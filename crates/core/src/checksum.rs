//! CRC-32 checksums for on-disk structures.
//!
//! The paper protects the firmware tail record with a checksum and relies on
//! "cryptographically signed map entries" for the scan-recovery fallback. A
//! CRC-32 (IEEE polynomial) over the sector payload plays both roles in the
//! simulation: it reliably distinguishes map sectors from arbitrary data and
//! detects torn or stale records.
//!
//! Every map-sector append, checkpoint and scan-recovery probe checksums a
//! whole record, so the kernel is slicing-by-8: eight table lookups consume
//! eight input bytes per step instead of one. The polynomial, initial value
//! and final inversion are the standard IEEE ones, so stored checksums are
//! the same words a bytewise implementation produces.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets
/// eight bytes be folded in with eight independent lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A running CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) over
/// a message supplied in pieces: `Crc32::new().update(a).update(b).finish()`
/// equals [`crc32`] of `a` followed by `b`. The decoders use it to checksum
/// a record "with its checksum field zeroed" without copying the record.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The state before any input.
    pub const fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `data` into the running checksum.
    #[must_use]
    pub fn update(self, data: &[u8]) -> Self {
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        Crc32(crc)
    }

    /// The checksum of everything supplied so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// Seal an encoded record: store, in the (still zero) four-byte field at
/// `field`, the checksum of the whole record.
pub(crate) fn seal(record: &mut [u8], field: usize) {
    debug_assert_eq!(record[field..field + 4], [0; 4]);
    let sum = crc32(record);
    record[field..field + 4].copy_from_slice(&sum.to_le_bytes());
}

/// Does the checksum stored at `field` match the record? The checksum
/// covers the record as it was when [`seal`]ed — with the field itself
/// reading as zeros — which the streaming form supplies without copying
/// the record to zero it.
pub(crate) fn seal_holds(record: &[u8], field: usize) -> bool {
    let (before, rest) = record.split_at(field);
    let (stored, after) = rest.split_at(4);
    let sum = Crc32::new()
        .update(before)
        .update(&[0; 4])
        .update(after)
        .finish();
    stored == sum.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The one-byte-per-step loop the sliced kernel replaced, kept as the
    /// oracle it is tested against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_bytewise_on_every_length() {
        let buf = random_bytes(0xC4C, 1100);
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_unaligned_subslices() {
        let buf = random_bytes(0x51CE, 4096);
        let mut rng = StdRng::seed_from_u64(0x0FF5);
        for _ in 0..2000 {
            let a = rng.gen_range(0..buf.len());
            let b = rng.gen_range(a..=buf.len());
            assert_eq!(crc32(&buf[a..b]), crc32_bytewise(&buf[a..b]), "[{a}..{b})");
        }
    }

    #[test]
    fn streaming_over_any_split_matches_one_shot() {
        let buf = random_bytes(0x5711, 600);
        let mut rng = StdRng::seed_from_u64(0x3A7);
        for _ in 0..2000 {
            let len = rng.gen_range(0..=buf.len());
            let whole = crc32_bytewise(&buf[..len]);
            let a = rng.gen_range(0..=len);
            let b = rng.gen_range(a..=len);
            let one = Crc32::new().update(&buf[..len]).finish();
            let two = Crc32::new().update(&buf[..a]).update(&buf[a..len]).finish();
            let three = Crc32::new()
                .update(&buf[..a])
                .update(&buf[a..b])
                .update(&buf[b..len])
                .finish();
            assert_eq!((one, two, three), (whole, whole, whole), "{a}/{b}/{len}");
        }
    }

    #[test]
    fn seal_stores_the_checksum_of_the_zero_field_record() {
        for field in [0usize, 12, 32, 68, 508] {
            let mut buf = random_bytes(0x2E0, 512);
            buf[field..field + 4].fill(0);
            let sum = crc32(&buf);
            seal(&mut buf, field);
            assert_eq!(buf[field..field + 4], sum.to_le_bytes(), "{field}");
            assert!(seal_holds(&buf, field), "{field}");
            buf[(field + 100) % 512] ^= 0x10;
            assert!(!seal_holds(&buf, field), "{field}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut buf = vec![0u8; 512];
        buf[100] = 0x55;
        let c0 = crc32(&buf);
        buf[100] ^= 1;
        assert_ne!(crc32(&buf), c0);
    }

    #[test]
    fn zero_sector_checksum_is_stable_and_nonzero_elsewhere() {
        let zeros = vec![0u8; 512];
        let c = crc32(&zeros);
        assert_eq!(c, crc32(&vec![0u8; 512]));
        let ones = vec![0xFFu8; 512];
        assert_ne!(crc32(&ones), c);
    }

    /// The on-disk format did not move: one fixed record of each
    /// checksummed kind still stores the checksum word recorded before the
    /// kernel changed, still decodes, and is rejected after any single-bit
    /// flip.
    #[test]
    fn stored_checksums_are_pinned() {
        use crate::checkpoint::Checkpoint;
        use crate::log::PieceLoc;
        use crate::mapsector::{MapFlags, MapSector, TxnInfo, UNMAPPED};
        use crate::tail::TailRecord;

        fn check(image: &[u8], field: usize, pinned: u32, decodes: impl Fn(&[u8]) -> bool) {
            let stored = u32::from_le_bytes(image[field..field + 4].try_into().unwrap());
            assert_eq!(stored, pinned, "stored checksum word moved");
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
        check(&map.encode().unwrap(), 68, 0x2CE9_2805, |b| {
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
        check(&ckpt.encode(1), 12, 0xB1FA_E798, |b| {
            Checkpoint::decode(b).is_some()
        });

        let tail = TailRecord {
            root: Some((777, 42)),
            next_seq: 43,
        };
        check(&tail.encode(), 32, 0x420F_3786, |b| {
            TailRecord::decode(b).is_some()
        });
    }
}
