//! How a record's bytes are laid out: the one place the workspace decides
//! byte order, field width and what a short buffer means. Every on-disk
//! record — the virtual log's map sectors, checkpoint slots and tail
//! record, the logical disk's summaries and checkpoints, the update-in-place
//! file system's superblock, inodes, directory entries and pointer blocks,
//! a saved image's header — is read and written through it.
//!
//! * Fields are little-endian and addressed by byte offset.
//! * A read faces bytes from the media: a field or table that does not fit
//!   in its buffer is [`DiskError::Corrupt`], never a panic, and a table's
//!   count is checked before anything is sized by it.
//! * A write lays out the encoder's own buffer: a field beyond it is a bug
//!   in the encoder and panics like any slice index.
//! * [`seal`] / [`seal_holds`] store and check a record's 32-bit seal, the
//!   [`Digest`] of the record (its seal field read as zeros) folded in half.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The one module that turns bytes into integers.
#![allow(clippy::disallowed_methods)]

use crate::digest::{Digest, STRIPE};
use crate::{DiskError, Result};

/// What a read of a field past the end of its buffer yields.
const SHORT: DiskError = DiskError::Corrupt("record field beyond the end of its buffer");

/// The `N` bytes at `at`, or [`SHORT`].
#[inline]
fn field<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N]> {
    let bytes = buf.get(at..).and_then(<[u8]>::first_chunk);
    bytes.copied().ok_or(SHORT)
}

/// The `len` bytes from byte `at` on: a fixed-size slot or a name.
#[inline]
pub fn get_bytes(buf: &[u8], at: usize, len: usize) -> Result<&[u8]> {
    let end = at.checked_add(len).ok_or(SHORT)?;
    buf.get(at..end).ok_or(SHORT)
}

/// The byte at `at`.
#[inline]
pub fn get_u8(buf: &[u8], at: usize) -> Result<u8> {
    field(buf, at).map(u8::from_le_bytes)
}

/// The `u16` at byte `at`.
#[inline]
pub fn get_u16(buf: &[u8], at: usize) -> Result<u16> {
    field(buf, at).map(u16::from_le_bytes)
}

/// The `u32` at byte `at`.
#[inline]
pub fn get_u32(buf: &[u8], at: usize) -> Result<u32> {
    field(buf, at).map(u32::from_le_bytes)
}

/// The `u64` at byte `at`.
#[inline]
pub fn get_u64(buf: &[u8], at: usize) -> Result<u64> {
    field(buf, at).map(u64::from_le_bytes)
}

/// Store `bytes` at byte `at`.
// bound: the encoder sized `buf` for its record; a field beyond it is an
// encoder bug and panics like any slice index.
#[allow(clippy::indexing_slicing)]
#[inline]
fn put<const N: usize>(buf: &mut [u8], at: usize, bytes: [u8; N]) {
    buf[at..at + N].copy_from_slice(&bytes);
}

/// Store `v` at byte `at`.
#[inline]
pub fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    put(buf, at, v.to_le_bytes());
}

/// Store `v` at byte `at`.
#[inline]
pub fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    put(buf, at, v.to_le_bytes());
}

/// Store `v` at byte `at`.
#[inline]
pub fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    put(buf, at, v.to_le_bytes());
}

/// The table of `count` `u32`s starting at byte `at` — a pointer block, an
/// owner table, a block map — in order. A table that does not fit in `buf`
/// is refused before anything is read or sized by `count`.
#[inline]
pub fn get_u32s(buf: &[u8], at: usize, count: usize) -> Result<impl Iterator<Item = u32> + '_> {
    let end = count.checked_mul(4).and_then(|len| at.checked_add(len));
    let bytes = end.and_then(|end| buf.get(at..end)).ok_or(SHORT)?;
    let (words, _) = bytes.as_chunks::<4>();
    Ok(words.iter().map(|w| u32::from_le_bytes(*w)))
}

/// Store the table `values` from byte `at` on.
// bound: the encoder sized `buf` for its record, as for `put`.
#[allow(clippy::indexing_slicing)]
#[inline]
pub fn put_u32s(buf: &mut [u8], at: usize, values: &[u32]) {
    let words = buf[at..at + 4 * values.len()].as_chunks_mut::<4>().0;
    for (w, v) in words.iter_mut().zip(values) {
        *w = v.to_le_bytes();
    }
}

/// The 32-bit seal of `record` with the four bytes at `field` read as
/// zeros: whole stripes before the field's are folded as they are, the
/// stripes holding the field from a stack copy with the field zeroed, and
/// the rest of the record after them — so only the final update can be
/// ragged, as [`Digest::update`] requires. `None` when the field does not
/// fit in the record.
fn sum(record: &[u8], field: usize) -> Option<[u8; 4]> {
    let start = field - field % STRIPE;
    let field_end = field.checked_add(4)?;
    let end = field_end
        .checked_next_multiple_of(STRIPE)?
        .min(record.len());
    // A field that straddles a stripe boundary spans two stripes.
    let mut window = [0u8; 2 * STRIPE];
    let window = window.get_mut(..end.checked_sub(start)?)?;
    window.copy_from_slice(record.get(start..end)?);
    window.get_mut(field - start..field_end - start)?.fill(0);
    let mut d = Digest::new();
    d.update(record.get(..start)?);
    d.update(window);
    if end < record.len() {
        d.update(record.get(end..)?);
    }
    let h = d.finish();
    Some(((h ^ (h >> 32)) as u32).to_le_bytes())
}

/// Seal an encoded record: store, in the (still zero) four-byte field at
/// `field`, the seal of the whole record. A field beyond the record is an
/// encoder bug and panics in the store, as for `put`.
pub fn seal(record: &mut [u8], field: usize) {
    debug_assert_eq!(get_bytes(record, field, 4), Ok(&[0u8; 4][..]));
    let sum = sum(record, field).unwrap_or_default();
    put(record, field, sum);
}

/// Does the seal stored at `field` match the record? The seal covers the
/// record as it was when [`seal`]ed — with the field itself reading as
/// zeros. A record too short to hold the field does not hold.
pub fn seal_holds(record: &[u8], field: usize) -> bool {
    let stored = get_bytes(record, field, 4);
    stored.is_ok_and(|stored| sum(record, field).is_some_and(|sum| stored == sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
    }

    /// Every field width at every offset of every buffer length up to 40:
    /// a field that fits reads back what was stored, and one that does not
    /// is `Corrupt`, whatever the offset (`usize::MAX` included).
    #[test]
    fn fields_read_back_or_are_corrupt() {
        for len in 0..40 {
            let mut buf = vec![0xA5u8; len];
            for at in (0..len + 10).chain([usize::MAX - 1, usize::MAX]) {
                let fits = |w: usize| at.checked_add(w).is_some_and(|e| e <= len);
                if fits(2) {
                    put_u16(&mut buf, at, 0xBEEF ^ at as u16);
                }
                assert_eq!(
                    get_u16(&buf, at).ok(),
                    fits(2).then_some(0xBEEF ^ at as u16)
                );
                if fits(4) {
                    put_u32(&mut buf, at, 0xDEAD_BEEF ^ at as u32);
                }
                assert_eq!(
                    get_u32(&buf, at).ok(),
                    fits(4).then_some(0xDEAD_BEEF ^ at as u32)
                );
                if fits(8) {
                    put_u64(&mut buf, at, 0x0123_4567_89AB_CDEF ^ at as u64);
                }
                assert_eq!(
                    get_u64(&buf, at).ok(),
                    fits(8).then_some(0x0123_4567_89AB_CDEF ^ at as u64)
                );
                if !fits(2) {
                    assert_eq!(get_u16(&buf, at), Err(SHORT));
                }
            }
        }
    }

    /// A byte run or a byte reads back what the buffer holds when it fits,
    /// and is `Corrupt` when it does not, whatever the offset and length.
    #[test]
    fn byte_runs_read_back_or_are_corrupt() {
        let buf = random_bytes(0xB17E5, 40);
        for at in (0..50).chain([usize::MAX - 1, usize::MAX]) {
            for len in (0..50).chain([usize::MAX - 1, usize::MAX]) {
                let fits = at.checked_add(len).is_some_and(|end| end <= buf.len());
                let want = fits.then(|| &buf[at..at + len]);
                assert_eq!(get_bytes(&buf, at, len).ok(), want, "at {at} len {len}");
                if !fits {
                    assert_eq!(get_bytes(&buf, at, len), Err(SHORT));
                }
            }
            assert_eq!(get_u8(&buf, at).ok(), buf.get(at).copied(), "at {at}");
        }
    }

    /// Fields are little-endian: the layout the records had before the
    /// codec, byte for byte.
    #[test]
    fn fields_are_little_endian() {
        let mut buf = [0u8; 16];
        put_u16(&mut buf, 0, 0x0102);
        put_u32(&mut buf, 2, 0x0304_0506);
        put_u64(&mut buf, 6, 0x0708_090A_0B0C_0D0E);
        assert_eq!(
            buf,
            [2, 1, 6, 5, 4, 3, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 9, 8, 7, 0, 0]
        );
    }

    /// A table reads back what was stored when it fits, and is refused,
    /// without being sized by its count, when it does not.
    #[test]
    fn tables_read_back_or_are_corrupt() {
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        for _ in 0..2000 {
            let len = rng.gen_range(0..200usize);
            let mut buf = random_bytes(rng.gen(), len);
            let at = rng.gen_range(0..len + 8);
            let count: usize = if rng.gen() {
                rng.gen_range(0..60usize)
            } else {
                rng.gen()
            };
            let fits = count
                .checked_mul(4)
                .and_then(|n| n.checked_add(at))
                .is_some_and(|end| end <= len);
            let refused = get_u32s(&buf, at, count).is_err();
            assert_eq!(refused, !fits, "len {len} at {at} count {count}");
            if fits {
                let values: Vec<u32> = (0..count).map(|_| rng.gen()).collect();
                put_u32s(&mut buf, at, &values);
                let got: Vec<u32> = get_u32s(&buf, at, count).expect("fits").collect();
                assert_eq!(got, values);
                for (i, &v) in values.iter().enumerate() {
                    assert_eq!(get_u32(&buf, at + 4 * i), Ok(v));
                }
            }
        }
    }

    /// The definition the kernel must meet: the folded digest of a copy of
    /// the record with the field zeroed.
    fn oracle(record: &[u8], field: usize) -> [u8; 4] {
        let mut copy = record.to_vec();
        copy[field..field + 4].fill(0);
        let h = digest(&copy);
        ((h ^ (h >> 32)) as u32).to_le_bytes()
    }

    /// Seal, check, tamper with and check again one record at one field.
    fn seal_matches_oracle(record: &[u8], field: usize) {
        let want = oracle(record, field);
        let mut sealed = record.to_vec();
        sealed[field..field + 4].fill(0);
        seal(&mut sealed, field);
        assert_eq!(
            sealed[field..field + 4],
            want,
            "len {} field {field}",
            record.len()
        );
        assert!(
            seal_holds(&sealed, field),
            "len {} field {field}",
            record.len()
        );
        // The stored word itself is covered: any other word fails.
        sealed[field] ^= 0x01;
        assert!(
            !seal_holds(&sealed, field),
            "len {} field {field}",
            record.len()
        );
    }

    /// Every field offset of every record length 36..=132 (ends inside and
    /// on stripes, fields in the first, middle and last stripe, and fields
    /// straddling two stripes).
    #[test]
    fn seal_is_the_folded_digest_of_the_zeroed_record_short() {
        let buf = random_bytes(0x5EA1, 132);
        for len in 36..=buf.len() {
            for field in 0..=len - 4 {
                seal_matches_oracle(&buf[..len], field);
            }
        }
    }

    /// Every 4-byte-aligned field offset of longer records up to 4 100
    /// bytes — on, one short of and one past stripe and sector boundaries,
    /// and ending mid-stripe — plus the stripe-straddling offsets.
    #[test]
    fn seal_is_the_folded_digest_of_the_zeroed_record_long() {
        let buf = random_bytes(0x5EA2, 4100);
        for len in [
            255, 256, 257, 511, 512, 513, 1000, 2047, 4064, 4095, 4096, 4100,
        ] {
            let aligned = (0..=len - 4).step_by(4);
            let straddling = (STRIPE - 3..=len - 6)
                .step_by(STRIPE)
                .flat_map(|f| f..f + 3);
            for field in aligned.chain(straddling) {
                seal_matches_oracle(&buf[..len], field);
            }
        }
    }

    /// A record too short to hold its seal field does not hold, and the
    /// check does not panic.
    #[test]
    fn a_record_without_room_for_its_seal_does_not_hold() {
        let buf = random_bytes(0x5EA3, 40);
        for len in 0..=buf.len() {
            for field in (0..len + 8).chain([usize::MAX - 3, usize::MAX]) {
                if field.checked_add(4).is_none_or(|end| end > len) {
                    assert!(!seal_holds(&buf[..len], field), "len {len} field {field}");
                }
            }
        }
    }
}
