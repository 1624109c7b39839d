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

use crate::checksum::{seal, seal_holds};
use disksim::SECTOR_BYTES;

/// Magic number for the tail record ("VTAL").
pub const TAIL_MAGIC: u32 = 0x5654_414C;
/// LBA of the tail record within the firmware area.
pub const TAIL_LBA: u64 = 0;
/// Number of sectors reserved for firmware use at the start of the disk
/// (one aligned 4 KB physical block).
pub const FIRMWARE_SECTORS: u64 = 8;

/// Byte offset of the checksum word within the record: the seal of the
/// whole sector (the folded digest of [`crate::checksum`]).
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
        buf[0..4].copy_from_slice(&TAIL_MAGIC.to_le_bytes());
        buf[4..6].copy_from_slice(&1u16.to_le_bytes()); // version
        let flags: u16 = if self.root.is_some() { 1 } else { 0 };
        buf[6..8].copy_from_slice(&flags.to_le_bytes());
        let (lba, seq) = self.root.unwrap_or((0, 0));
        buf[8..16].copy_from_slice(&lba.to_le_bytes());
        buf[16..24].copy_from_slice(&seq.to_le_bytes());
        buf[24..32].copy_from_slice(&self.next_seq.to_le_bytes());
        seal(&mut buf, SUM_OFFSET);
        buf
    }

    /// Decode and validate a sector image. `None` means "no usable record"
    /// (cleared, corrupt, or never written) — the scan fallback applies.
    pub fn decode(buf: &[u8]) -> Option<TailRecord> {
        if buf.len() != SECTOR_BYTES {
            return None;
        }
        if u32::from_le_bytes(buf[0..4].try_into().ok()?) != TAIL_MAGIC {
            return None;
        }
        if u16::from_le_bytes(buf[4..6].try_into().ok()?) != 1 {
            return None;
        }
        if !seal_holds(buf, SUM_OFFSET) {
            return None;
        }
        let flags = u16::from_le_bytes(buf[6..8].try_into().ok()?);
        let lba = u64::from_le_bytes(buf[8..16].try_into().ok()?);
        let seq = u64::from_le_bytes(buf[16..24].try_into().ok()?);
        let next_seq = u64::from_le_bytes(buf[24..32].try_into().ok()?);
        Some(TailRecord {
            root: (flags & 1 == 1).then_some((lba, seq)),
            next_seq,
        })
    }

    /// The cleared (post-recovery) state: an all-zero sector, which fails
    /// magic validation by construction.
    pub fn cleared() -> [u8; SECTOR_BYTES] {
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
