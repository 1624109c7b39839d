//! The firmware log-tail record.
//!
//! "Modern disk drives use residual power to park their heads in a landing
//! zone ... It is easy to modify the firmware so that the drive records the
//! current log tail location at a fixed location on disk before it parks the
//! actuator" (§3.2). The simulation reserves the first physical block as
//! that fixed firmware area; sector 0 holds the tail record, protected by a
//! checksum and cleared after recovery so a stale record is never trusted.
//!
//! If the power-down sequence fails (injectable in the simulator), the
//! record is absent or corrupt and recovery falls back to scanning the disk
//! for self-identifying map sectors.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use disksim::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64, seal, seal_holds};
use disksim::SECTOR_BYTES;

/// Magic number for the tail record ("VTAL").
pub const TAIL_MAGIC: u32 = 0x5654_414C;
/// LBA of the tail record within the firmware area.
pub const TAIL_LBA: u64 = 0;
/// Number of sectors reserved for firmware use at the start of the disk
/// (one aligned 4 KB physical block).
pub(crate) const FIRMWARE_SECTORS: u64 = 8;

/// Byte offset of the checksum word within the record: the seal of the
/// whole sector ([`disksim::codec::seal`]).
const SUM_OFFSET: usize = 32;

/// A decoded tail record: where the virtual-log root lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailRecord {
    /// LBA of the current log root (tail) map sector, if the log is
    /// non-empty.
    pub root: Option<(u64, u64)>,
    /// The next sequence number to issue, so restarts never reuse one.
    pub next_seq: u64,
}

impl TailRecord {
    /// Serialise to a sector image.
    pub fn encode(&self) -> [u8; SECTOR_BYTES] {
        let mut buf = [0u8; SECTOR_BYTES];
        put_u32(&mut buf, 0, TAIL_MAGIC);
        put_u16(&mut buf, 4, 1); // version
        put_u16(&mut buf, 6, u16::from(self.root.is_some())); // flags
        let (lba, seq) = self.root.unwrap_or((0, 0));
        put_u64(&mut buf, 8, lba);
        put_u64(&mut buf, 16, seq);
        put_u64(&mut buf, 24, self.next_seq);
        seal(&mut buf, SUM_OFFSET);
        buf
    }

    /// Decode and validate a sector image. `None` means "no usable record"
    /// (cleared, corrupt, or never written) — the scan fallback applies.
    pub fn decode(buf: &[u8]) -> Option<TailRecord> {
        if buf.len() != SECTOR_BYTES {
            return None;
        }
        if get_u32(buf, 0).ok()? != TAIL_MAGIC || get_u16(buf, 4).ok()? != 1 {
            return None;
        }
        if !seal_holds(buf, SUM_OFFSET) {
            return None;
        }
        let flags = get_u16(buf, 6).ok()?;
        let lba = get_u64(buf, 8).ok()?;
        let seq = get_u64(buf, 16).ok()?;
        let next_seq = get_u64(buf, 24).ok()?;
        Some(TailRecord {
            root: (flags & 1 == 1).then_some((lba, seq)),
            next_seq,
        })
    }

    /// The cleared (post-recovery) state: an all-zero sector, which fails
    /// magic validation by construction.
    pub(crate) fn cleared() -> [u8; SECTOR_BYTES] {
        [0u8; SECTOR_BYTES]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_root() {
        let t = TailRecord {
            root: Some((777, 42)),
            next_seq: 43,
        };
        assert_eq!(TailRecord::decode(&t.encode()), Some(t));
    }

    #[test]
    fn roundtrip_empty_log() {
        let t = TailRecord {
            root: None,
            next_seq: 0,
        };
        assert_eq!(TailRecord::decode(&t.encode()), Some(t));
    }

    #[test]
    fn cleared_record_is_invalid() {
        assert_eq!(TailRecord::decode(&TailRecord::cleared()), None);
    }

    #[test]
    fn corruption_detected() {
        let t = TailRecord {
            root: Some((777, 42)),
            next_seq: 43,
        };
        let mut buf = t.encode();
        buf[9] ^= 1;
        assert_eq!(TailRecord::decode(&buf), None);
    }

    #[test]
    fn wrong_length_rejected() {
        assert_eq!(TailRecord::decode(&[0u8; 100]), None);
    }
}
