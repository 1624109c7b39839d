//! On-disk format of virtual-log entries (indirection-map sectors).
//!
//! The indirection map is a table of logical-block → physical-block
//! translations, divided into fixed-size *pieces*; whenever a map entry
//! changes, the piece containing it is written — whole — to a free sector
//! near the head (§3.2 of the paper). Each such sector is a virtual-log
//! entry and carries:
//!
//! * a monotonically increasing **sequence number** (its age),
//! * a **previous-root pointer** — the backward chain of Figure 3a,
//! * an optional **bypass pointer** — the second tree branch of Figure 3b,
//!   pointing *past* the overwritten (now recyclable) older version of the
//!   same piece, and
//! * a checksum and magic, making entries self-identifying for the
//!   scan-recovery fallback.
//!
//! Multi-piece transactions mark all but the last sector `TXN_PART`; the
//! final sector carries `TXN_COMMIT`. Recovery ignores the payload of parts
//! whose commit record never made it to disk, giving atomic multi-block
//! writes with no extra I/O.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use disksim::codec::{
    get_u16, get_u32, get_u32s, get_u64, put_u16, put_u32, put_u32s, put_u64, seal, seal_holds,
};
use disksim::{DiskError, Result, SECTOR_BYTES};

/// Magic number identifying a virtual-log map sector ("VLOG").
pub const MAP_MAGIC: u32 = 0x564C_4F47;
/// On-disk format version.
pub const MAP_VERSION: u16 = 1;
/// Bytes per on-disk map piece: one sector, as in §3.2 ("we write the
/// piece of the table that contains the new map entry to a free sector").
/// Allocation, however, happens at the VLD's uniform 4 KB physical-block
/// granularity — a map sector occupies a whole block with internal
/// fragmentation (§4.2: "The resulting internal fragmentation when writing
/// data or metadata blocks that are smaller only biases against ... the
/// VLD") — so only one sector is *transferred* while the aligned free
/// space stays unfragmented.
pub const PIECE_BYTES: usize = SECTOR_BYTES;
/// Number of map entries per piece.
pub const PIECE_ENTRIES: usize = piece_capacity(PIECE_BYTES);
/// Sentinel for an unmapped logical block.
pub const UNMAPPED: u32 = u32::MAX;
/// Sentinel LBA meaning "no pointer".
pub(crate) const NO_LBA: u64 = u64::MAX;

const HEADER_BYTES: usize = 72;
/// Byte offset of the checksum word within the header: the seal of the
/// whole piece ([`disksim::codec::seal`]).
const SUM_OFFSET: usize = 68;

/// Map entries that fit in a piece of `bytes` bytes.
pub(crate) const fn piece_capacity(bytes: usize) -> usize {
    (bytes - HEADER_BYTES) / 4
}

/// Map-sector flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapFlags(pub u16);

impl MapFlags {
    /// Sector is part of a multi-sector transaction but not its commit
    /// point; its payload is valid only if the commit sector exists.
    pub const TXN_PART: MapFlags = MapFlags(0b01);
    /// Sector commits the transaction named by `txn_id`.
    pub const TXN_COMMIT: MapFlags = MapFlags(0b10);
    /// No flags set.
    pub const EMPTY: MapFlags = MapFlags(0);

    /// Does `self` contain all bits of `other`?
    pub(crate) fn contains(self, other: MapFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Identity of a transaction spanning multiple map sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnInfo {
    /// Transaction identifier (unique per log).
    pub id: u64,
    /// This sector's index within the transaction.
    pub index: u16,
    /// Total sectors in the transaction.
    pub total: u16,
}

/// A decoded virtual-log entry: one version of one piece of the indirection
/// map, plus the log linkage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSector {
    /// Age of this entry; strictly increasing across the log.
    pub seq: u64,
    /// Which piece of the map table this sector holds.
    pub piece: u32,
    /// Flags (transaction markers).
    pub flags: MapFlags,
    /// Backward pointer to the previous log root: (lba, seq).
    pub prev: Option<(u64, u64)>,
    /// Bypass pointer past a recycled older version: (lba, seq).
    pub bypass: Option<(u64, u64)>,
    /// Transaction metadata if this sector participates in one.
    pub txn: Option<TxnInfo>,
    /// The piece payload: physical block number per logical block, with
    /// [`UNMAPPED`] holes. At most [`PIECE_ENTRIES`] long.
    pub entries: Vec<u32>,
}

/// A map sector with a *borrowed* payload, for serialisation. The log
/// appends one map piece per tracked write; encoding straight from the
/// in-memory map table avoids cloning the piece payload on every append.
#[derive(Debug, Clone, Copy)]
pub struct MapSectorRef<'a> {
    /// Age of this entry; strictly increasing across the log.
    pub seq: u64,
    /// Which piece of the map table this sector holds.
    pub piece: u32,
    /// Flags (transaction markers).
    pub flags: MapFlags,
    /// Backward pointer to the previous log root: (lba, seq).
    pub prev: Option<(u64, u64)>,
    /// Bypass pointer past a recycled older version: (lba, seq).
    pub bypass: Option<(u64, u64)>,
    /// Transaction metadata if this sector participates in one.
    pub txn: Option<TxnInfo>,
    /// The piece payload. At most [`PIECE_ENTRIES`] long.
    pub entries: &'a [u32],
}

impl MapSector {
    /// Serialise into a [`PIECE_BYTES`]-byte block image.
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`PIECE_ENTRIES`].
    pub fn encode(&self) -> Result<Vec<u8>> {
        MapSectorRef {
            seq: self.seq,
            piece: self.piece,
            flags: self.flags,
            prev: self.prev,
            bypass: self.bypass,
            txn: self.txn,
            entries: &self.entries,
        }
        .encode()
    }
}

impl MapSectorRef<'_> {
    /// Serialise into a [`PIECE_BYTES`]-byte block image.
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`PIECE_ENTRIES`].
    pub(crate) fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serialise into a caller-owned buffer, reusing its allocation. The
    /// buffer is cleared and resized to [`PIECE_BYTES`] — the log's append
    /// path passes the same scratch vector on every call so the hot path
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`PIECE_ENTRIES`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        if self.entries.len() > PIECE_ENTRIES {
            return Err(DiskError::BadBufferLength {
                expected: PIECE_ENTRIES * 4,
                actual: self.entries.len() * 4,
            });
        }
        buf.clear();
        buf.resize(PIECE_BYTES, 0);
        put_u32(buf, 0, MAP_MAGIC);
        put_u16(buf, 4, MAP_VERSION);
        put_u16(buf, 6, self.flags.0);
        put_u64(buf, 8, self.seq);
        put_u32(buf, 16, self.piece);
        put_u16(buf, 20, self.entries.len() as u16);
        let (txn_id, txn_index, txn_total) = match self.txn {
            Some(t) => (t.id, t.index, t.total),
            None => (0, 0, 0),
        };
        put_u16(buf, 22, txn_index);
        let (plba, pseq) = self.prev.unwrap_or((NO_LBA, 0));
        put_u64(buf, 24, plba);
        put_u64(buf, 32, pseq);
        let (blba, bseq) = self.bypass.unwrap_or((NO_LBA, 0));
        put_u64(buf, 40, blba);
        put_u64(buf, 48, bseq);
        put_u64(buf, 56, txn_id);
        put_u16(buf, 64, txn_total);
        // buf[66..68] reserved, zero; the checksum word stays zero until
        // the record is sealed.
        put_u32s(buf, HEADER_BYTES, self.entries);
        seal(buf, SUM_OFFSET);
        Ok(())
    }
}

impl MapSector {
    /// Try to decode a piece image. Returns `None` (not an error) if the
    /// block is not a valid map piece — the common case when scanning.
    pub fn decode(buf: &[u8]) -> Option<MapSector> {
        if buf.len() != PIECE_BYTES {
            return None;
        }
        if get_u32(buf, 0).ok()? != MAP_MAGIC || get_u16(buf, 4).ok()? != MAP_VERSION {
            return None;
        }
        if !seal_holds(buf, SUM_OFFSET) {
            return None;
        }
        let n = get_u16(buf, 20).ok()? as usize;
        if n > PIECE_ENTRIES {
            return None;
        }
        let flags = MapFlags(get_u16(buf, 6).ok()?);
        let txn_id = get_u64(buf, 56).ok()?;
        let txn_index = get_u16(buf, 22).ok()?;
        let txn_total = get_u16(buf, 64).ok()?;
        let prev_lba = get_u64(buf, 24).ok()?;
        let prev_seq = get_u64(buf, 32).ok()?;
        let bypass_lba = get_u64(buf, 40).ok()?;
        let bypass_seq = get_u64(buf, 48).ok()?;
        let entries = get_u32s(buf, HEADER_BYTES, n).ok()?.collect();
        Some(MapSector {
            seq: get_u64(buf, 8).ok()?,
            piece: get_u32(buf, 16).ok()?,
            flags,
            prev: (prev_lba != NO_LBA).then_some((prev_lba, prev_seq)),
            bypass: (bypass_lba != NO_LBA).then_some((bypass_lba, bypass_seq)),
            txn: (flags.contains(MapFlags::TXN_PART) || flags.contains(MapFlags::TXN_COMMIT))
                .then_some(TxnInfo {
                    id: txn_id,
                    index: txn_index,
                    total: txn_total,
                }),
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MapSector {
        MapSector {
            seq: 42,
            piece: 7,
            flags: MapFlags::EMPTY,
            prev: Some((1234, 41)),
            bypass: Some((99, 17)),
            txn: None,
            entries: vec![1, 2, UNMAPPED, 4],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let buf = m.encode().unwrap();
        assert_eq!(MapSector::decode(&buf).unwrap(), m);
    }

    #[test]
    fn roundtrip_with_txn() {
        let mut m = sample();
        m.flags = MapFlags::TXN_COMMIT;
        m.txn = Some(TxnInfo {
            id: 9,
            index: 2,
            total: 3,
        });
        let buf = m.encode().unwrap();
        let d = MapSector::decode(&buf).unwrap();
        assert_eq!(d.txn, m.txn);
        assert!(d.flags.contains(MapFlags::TXN_COMMIT));
    }

    #[test]
    fn roundtrip_no_pointers_full_payload() {
        let m = MapSector {
            seq: 1,
            piece: 0,
            flags: MapFlags::EMPTY,
            prev: None,
            bypass: None,
            txn: None,
            entries: vec![UNMAPPED; PIECE_ENTRIES],
        };
        let d = MapSector::decode(&m.encode().unwrap()).unwrap();
        assert_eq!(d.prev, None);
        assert_eq!(d.bypass, None);
        assert_eq!(d.entries.len(), PIECE_ENTRIES);
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut m = sample();
        m.entries = vec![0; PIECE_ENTRIES + 1];
        assert!(m.encode().is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let m = sample();
        let mut buf = m.encode().unwrap();
        buf[100] ^= 0xFF;
        assert!(MapSector::decode(&buf).is_none());
    }

    #[test]
    fn arbitrary_data_is_not_a_map_sector() {
        assert!(MapSector::decode(&[0u8; PIECE_BYTES]).is_none());
        assert!(MapSector::decode(&[0xAAu8; PIECE_BYTES]).is_none());
        assert!(MapSector::decode(&[0u8; 100]).is_none());
        assert!(MapSector::decode(&[0u8; 8 * SECTOR_BYTES]).is_none());
    }

    #[test]
    fn capacity_matches_paper_overhead() {
        // 110 4-byte entries per sector-sized piece; the 23 MB simulated
        // disk needs ~55 pieces.
        assert_eq!(PIECE_ENTRIES, 110);
        assert_eq!(piece_capacity(8 * SECTOR_BYTES), 1006);
    }

    #[test]
    fn flags_operations() {
        let f = MapFlags(MapFlags::TXN_PART.0 | MapFlags::TXN_COMMIT.0);
        assert!(f.contains(MapFlags::TXN_PART));
        assert!(f.contains(MapFlags::TXN_COMMIT));
        assert!(!MapFlags::EMPTY.contains(MapFlags::TXN_PART));
    }
}
