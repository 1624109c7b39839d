//! Checksums for on-disk structures.
//!
//! The paper protects the firmware tail record with a checksum and relies on
//! "cryptographically signed map entries" for the scan-recovery fallback. A
//! 32-bit seal over the whole record plays both roles in the simulation: it
//! reliably distinguishes map sectors from arbitrary data and detects torn
//! or stale records.
//!
//! Every map-sector append, checkpoint and scan-recovery probe seals or
//! checks a whole record, so the kernel is the workspace's one digest,
//! [`disksim::digest::Digest`] (four word-wise lanes, one memory pass),
//! folded to 32 bits. The seal covers the record with its own four-byte
//! field reading as zeros; the field's stripe is the only part of the
//! record that is copied, to the stack, to zero it.

use disksim::digest::{Digest, STRIPE};

/// The 32-bit seal of `record` with the four bytes at `field` read as
/// zeros: whole stripes before the field's are folded as they are, the
/// stripes holding the field from a stack copy with the field zeroed, and
/// the rest of the record after them — so only the final update can be
/// ragged, as [`Digest::update`] requires.
fn sum(record: &[u8], field: usize) -> [u8; 4] {
    let start = field - field % STRIPE;
    let end = (field + 4).next_multiple_of(STRIPE).min(record.len());
    // A field that straddles a stripe boundary spans two stripes.
    let mut window = [0u8; 2 * STRIPE];
    let window = &mut window[..end - start];
    window.copy_from_slice(&record[start..end]);
    window[field - start..field - start + 4].fill(0);
    let mut d = Digest::new();
    d.update(&record[..start]);
    d.update(window);
    if end < record.len() {
        d.update(&record[end..]);
    }
    let h = d.finish();
    ((h ^ (h >> 32)) as u32).to_le_bytes()
}

/// Seal an encoded record: store, in the (still zero) four-byte field at
/// `field`, the checksum of the whole record.
pub(crate) fn seal(record: &mut [u8], field: usize) {
    debug_assert_eq!(record[field..field + 4], [0; 4]);
    let sum = sum(record, field);
    record[field..field + 4].copy_from_slice(&sum);
}

/// Does the checksum stored at `field` match the record? The checksum
/// covers the record as it was when [`seal`]ed — with the field itself
/// reading as zeros.
pub(crate) fn seal_holds(record: &[u8], field: usize) -> bool {
    record[field..field + 4] == sum(record, field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::digest::digest;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The definition the kernel must meet: the folded digest of a copy of
    /// the record with the field zeroed.
    fn oracle(record: &[u8], field: usize) -> [u8; 4] {
        let mut copy = record.to_vec();
        copy[field..field + 4].fill(0);
        let h = digest(&copy);
        ((h ^ (h >> 32)) as u32).to_le_bytes()
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
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

    /// The stored words of one fixed record of each sealed kind, recorded
    /// when the seal became the folded digest (EXPERIMENTS.md lists them
    /// beside the words of the checksum it replaced); each still decodes,
    /// and is rejected after any single-bit flip.
    #[test]
    fn stored_checksums_are_pinned() {
        use crate::checkpoint::Checkpoint;
        use crate::log::PieceLoc;
        use crate::mapsector::{MapFlags, MapSector, TxnInfo, UNMAPPED};
        use crate::tail::TailRecord;

        fn check(image: &[u8], field: usize, pinned: u32, decodes: impl Fn(&[u8]) -> bool) {
            let stored = u32::from_le_bytes(image[field..field + 4].try_into().unwrap());
            assert_eq!(stored, pinned, "stored checksum word moved: {stored:#010x}");
            assert!(decodes(image));
            let mut flipped = image.to_vec();
            for bit in 0..image.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(!decodes(&flipped), "bit {bit} flip accepted");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }

        let map = MapSector {
            seq: 42,
            piece: 7,
            flags: MapFlags::TXN_COMMIT,
            prev: Some((1234, 41)),
            bypass: Some((99, 17)),
            txn: Some(TxnInfo {
                id: 9,
                index: 2,
                total: 3,
            }),
            entries: vec![1, 2, UNMAPPED, 4],
        };
        check(&map.encode().unwrap(), 68, 0x21F6_80B0, |b| {
            MapSector::decode(b).is_some()
        });

        let ckpt = Checkpoint {
            seq: 99,
            pieces: vec![
                Some(PieceLoc {
                    lba: 800,
                    seq: 42,
                    prev: Some((640, 41)),
                }),
                None,
                Some(PieceLoc {
                    lba: 1600,
                    seq: 77,
                    prev: None,
                }),
            ],
        };
        check(&ckpt.encode(1), 12, 0xD1E2_DA3A, |b| {
            Checkpoint::decode(b).is_some()
        });

        let tail = TailRecord {
            root: Some((777, 42)),
            next_seq: 43,
        };
        check(&tail.encode(), 32, 0xB962_4912, |b| {
            TailRecord::decode(b).is_some()
        });
    }
}
