//! Periodic checkpoints of the piece directory (§3.3).
//!
//! "Periodically, we write the entire inode map to the disk contiguously.
//! At recovery time ... [the system] traverses the virtual log backwards
//! from the log tail towards the checkpoint." For the VLD's indirection
//! map the analogue is the *piece directory*: the location and age of every
//! live map piece. Two alternating slots in a fixed region just past the
//! firmware block hold it; recovery uses the newest valid slot and only
//! walks the log for entries younger than it.
//!
//! The checkpoint is also what makes recycling sound: a superseded map
//! sector younger than the last checkpoint stays allocated (on the
//! *pending* list) until the next checkpoint covers it — so the backward
//! chain within the traversal window is always intact, no matter how hot a
//! piece is. Sectors older than the checkpoint are recycled freely; the
//! traversal never descends below the checkpoint sequence.

use crate::log::PieceLoc;
use crate::mapsector::NO_LBA;
use disksim::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64, seal, seal_holds};
use disksim::SECTOR_BYTES;

/// Magic for a checkpoint slot ("VCKP").
pub const CKPT_MAGIC: u32 = 0x5643_4B50;

const HEADER_BYTES: usize = 32;
const ENTRY_BYTES: usize = 32;
/// Byte offset of the checksum word within the header: the seal of the
/// whole slot ([`disksim::codec::seal`]).
const SUM_OFFSET: usize = 12;

/// Placement of the two alternating checkpoint slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CheckpointRegion {
    /// LBA of slot A.
    pub(crate) slot_a: u64,
    /// LBA of slot B.
    pub(crate) slot_b: u64,
    /// Sectors per slot.
    pub(crate) sectors: u64,
}

impl CheckpointRegion {
    /// Region layout for `n_pieces` pieces starting at `start_lba`,
    /// block-aligned slots.
    pub(crate) fn layout(start_lba: u64, n_pieces: usize, block_sectors: u64) -> CheckpointRegion {
        let bytes = HEADER_BYTES + n_pieces * ENTRY_BYTES;
        let sectors_raw = (bytes as u64).div_ceil(SECTOR_BYTES as u64);
        let sectors = sectors_raw.div_ceil(block_sectors) * block_sectors;
        CheckpointRegion {
            slot_a: start_lba,
            slot_b: start_lba + sectors,
            sectors,
        }
    }

    /// First LBA past the region.
    pub(crate) fn end(&self) -> u64 {
        self.slot_b + self.sectors
    }
}

/// A decoded checkpoint: the piece directory at a moment in log time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Every log entry with `seq <` this value is covered by the directory
    /// below; traversal never descends past it.
    pub seq: u64,
    /// Piece directory (index = piece number).
    pub pieces: Vec<Option<PieceLoc>>,
}

impl Checkpoint {
    /// Serialise into a slot image of exactly `sectors * SECTOR_BYTES`.
    pub fn encode(&self, sectors: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::encode_into(self.seq, &self.pieces, sectors, &mut buf);
        buf
    }

    /// Serialise a borrowed piece directory into a caller-owned buffer,
    /// reusing its allocation: the buffer is cleared and resized to the
    /// slot size. The log checkpoints straight from its live directory
    /// through the same scratch vector every time, so a checkpoint clones
    /// nothing and allocates nothing.
    pub fn encode_into(seq: u64, pieces: &[Option<PieceLoc>], sectors: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(sectors as usize * SECTOR_BYTES, 0);
        assert!(
            HEADER_BYTES + pieces.len() * ENTRY_BYTES <= buf.len(),
            "piece directory outgrew its checkpoint slot"
        );
        put_u32(buf, 0, CKPT_MAGIC);
        put_u16(buf, 4, 1); // version
        put_u32(buf, 8, pieces.len() as u32);
        put_u64(buf, 16, seq);
        for (entry, p) in buf[HEADER_BYTES..]
            .chunks_exact_mut(ENTRY_BYTES)
            .zip(pieces)
        {
            let (lba, seq, prev) = match p {
                Some(loc) => (loc.lba, loc.seq, loc.prev),
                None => (NO_LBA, 0, None),
            };
            let (plba, pseq) = prev.unwrap_or((NO_LBA, 0));
            put_u64(entry, 0, lba);
            put_u64(entry, 8, seq);
            put_u64(entry, 16, plba);
            put_u64(entry, 24, pseq);
        }
        seal(buf, SUM_OFFSET);
    }

    /// Decode and validate a slot image; `None` if invalid/torn.
    pub fn decode(buf: &[u8]) -> Option<Checkpoint> {
        if buf.len() < HEADER_BYTES {
            return None;
        }
        if get_u32(buf, 0).ok()? != CKPT_MAGIC || get_u16(buf, 4).ok()? != 1 {
            return None;
        }
        if !seal_holds(buf, SUM_OFFSET) {
            return None;
        }
        // The entry count is checked against the slot before anything is
        // sized by it.
        let n = get_u32(buf, 8).ok()? as usize;
        let end = n.checked_mul(ENTRY_BYTES)?.checked_add(HEADER_BYTES)?;
        if end > buf.len() {
            return None;
        }
        let seq = get_u64(buf, 16).ok()?;
        let mut pieces = Vec::with_capacity(n);
        for i in 0..n {
            let o = HEADER_BYTES + i * ENTRY_BYTES;
            let lba = get_u64(buf, o).ok()?;
            if lba == NO_LBA {
                pieces.push(None);
                continue;
            }
            let plba = get_u64(buf, o + 16).ok()?;
            pieces.push(Some(PieceLoc {
                lba,
                seq: get_u64(buf, o + 8).ok()?,
                prev: (plba != NO_LBA).then_some((plba, get_u64(buf, o + 24).ok()?)),
            }));
        }
        Some(Checkpoint { seq, pieces })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
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
        }
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let region = CheckpointRegion::layout(8, c.pieces.len(), 8);
        let img = c.encode(region.sectors);
        assert_eq!(img.len() as u64, region.sectors * SECTOR_BYTES as u64);
        assert_eq!(Checkpoint::decode(&img), Some(c));
    }

    #[test]
    fn corruption_rejected() {
        let c = sample();
        let mut img = c.encode(8);
        img[40] ^= 1;
        assert_eq!(Checkpoint::decode(&img), None);
        assert_eq!(Checkpoint::decode(&[0u8; 512]), None);
    }

    #[test]
    fn region_layout_is_block_aligned_and_disjoint() {
        let r = CheckpointRegion::layout(8, 51, 8);
        assert_eq!(r.slot_a, 8);
        assert_eq!(r.sectors % 8, 0);
        assert!(r.slot_b >= r.slot_a + r.sectors);
        assert_eq!(r.end(), r.slot_b + r.sectors);
        // 51 pieces fit in one 4 KB block per slot.
        assert_eq!(r.sectors, 8);
        // Big directories grow the slots.
        let big = CheckpointRegion::layout(8, 5000, 8);
        assert!(big.sectors > 8);
    }
}
