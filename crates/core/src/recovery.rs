//! Crash recovery: rebuild the indirection map from the checkpoint plus
//! the virtual-log tail.
//!
//! Normal boot (the fast path of §3.2/§3.3):
//!
//! 1. read the firmware **tail record** (checksummed; written by the
//!    power-down sequence, cleared after every recovery so it can never be
//!    trusted stale);
//! 2. read the two alternating **checkpoint** slots and take the newest
//!    valid piece directory;
//! 3. traverse the log tree from the tail, youngest-first, down to the
//!    checkpoint horizon — within that window nothing has been recycled
//!    (superseded piece blocks wait on the pending list until a checkpoint
//!    covers them), so the chain is intact by construction;
//! 4. load the remaining live pieces straight from the checkpoint
//!    directory.
//!
//! Youngest-first order (a max-heap on the sequence number every pointer
//! carries) guarantees that the first version of a piece seen is the live
//! one and that a transaction's commit record is visited before its parts,
//! so uncommitted payloads are recognised and skipped.
//!
//! If the tail record is missing or corrupt (failed power-down), recovery
//! falls back to **scanning** the disk for self-identifying map sectors:
//! the traversal restarts from the youngest entry found, and any piece the
//! walk cannot reach is mined directly from the scan — every live piece
//! version is physically present and self-identifying, so scan recovery
//! succeeds regardless of chain damage.
//!
//! Recovery ends by clearing the tail record and writing a fresh
//! checkpoint, which re-establishes the recycling invariant for the next
//! epoch.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::alloc::{AllocConfig, EagerAllocator};
use crate::checkpoint::Checkpoint;
use crate::log::{LogState, PieceLoc, VirtualLog, BLOCK_SECTORS};
use crate::mapsector::{MapFlags, MapSector, PIECE_BYTES, PIECE_ENTRIES, UNMAPPED};
use crate::tail::{TailRecord, TAIL_LBA};
use disksim::{Disk, DiskError, Result, ServiceTime, SECTOR_BYTES};

/// What happened during a recovery pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// True if the firmware tail record was present and valid.
    pub used_tail: bool,
    /// Sequence horizon of the checkpoint recovery booted from.
    pub(crate) checkpoint_seq: u64,
    /// Sectors read by the scan fallback (0 when the tail was valid).
    pub scanned_sectors: u64,
    /// Tracks the scan fallback actually decoded: those holding bytes. A
    /// never-written track is read (and charged) like any other but cannot
    /// hold a map sector.
    pub(crate) tracks_decoded: u64,
    /// Log sectors visited during traversal.
    pub sectors_traversed: u64,
    /// Branches pruned because the target was invalid.
    pub(crate) branches_pruned: u64,
    /// Pieces taken from the checkpoint directory (not seen in the window).
    pub(crate) pieces_from_checkpoint: u64,
    /// Pieces recovered in total.
    pub pieces_recovered: u64,
    /// Map sectors whose payload was skipped as uncommitted transaction
    /// parts.
    pub uncommitted_skipped: u64,
    /// Total simulated time the recovery consumed.
    pub service: ServiceTime,
}

impl VirtualLog {
    /// Recover a virtual log from a disk image (e.g. after
    /// [`VirtualLog::crash`] or a normal shutdown).
    pub fn recover(mut disk: Disk, alloc_cfg: AllocConfig) -> Result<(Self, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        // Every read of the checkpoint slots, the traversal window and the
        // scan fallback — plus the closing checkpoint — is recovery work.
        // (On an error the span stays open; harnesses close leftovers with
        // `Spans::close_all` before the next mount.)
        let spans = disk.spans().clone();
        let sp = if spans.is_enabled() {
            spans.open(
                disksim::SpanKind::Recovery,
                "vld.recover",
                disk.clock().now(),
            )
        } else {
            0
        };

        let mut state = LogState::empty(&disk);
        let (n_pieces, region) = (state.pieces.len(), state.ckpt_region);

        // 1. The firmware tail record.
        let mut tail_buf = [0u8; SECTOR_BYTES];
        report.service += disk.read_sectors(TAIL_LBA, &mut tail_buf)?;
        let tail = TailRecord::decode(&tail_buf);
        report.used_tail = tail.is_some();

        // 2. The newest valid checkpoint.
        let mut slot_buf = vec![0u8; region.sectors as usize * SECTOR_BYTES];
        let mut best: Option<(Checkpoint, bool)> = None;
        for (lba, is_b) in [(region.slot_a, false), (region.slot_b, true)] {
            report.service += disk.read_sectors(lba, &mut slot_buf)?;
            if let Some(ck) = Checkpoint::decode(&slot_buf) {
                if best.as_ref().map(|(b, _)| ck.seq > b.seq).unwrap_or(true) {
                    best = Some((ck, is_b));
                }
            }
        }
        let (base, base_was_b) = best.unwrap_or((
            Checkpoint {
                seq: 0,
                pieces: vec![None; n_pieces],
            },
            false,
        ));
        report.checkpoint_seq = base.seq;

        // 3. Find the root: tail record, or scan fallback.
        let mut scan_cache: HashMap<u64, MapSector> = HashMap::new();
        let (root, mut next_seq) = match tail {
            Some(t) => (t.root, t.next_seq),
            None => {
                let (cache, scan) = scan_disk(&mut disk)?;
                report.scanned_sectors = scan.sectors;
                report.tracks_decoded = scan.tracks_decoded;
                report.service += scan.service;
                let root = cache
                    .iter()
                    .max_by_key(|(_, m)| m.seq)
                    .map(|(lba, m)| (*lba, m.seq));
                let next = cache.values().map(|m| m.seq.saturating_add(1)).max();
                let next = next.unwrap_or(1);
                scan_cache = cache;
                (root, next)
            }
        };

        // 4. Youngest-first traversal of the window above the checkpoint.
        // Resolved payloads are piece-indexed (dense, bounded by n_pieces)
        // rather than hashed — the traversal probes this on every sector.
        let mut resolved: Vec<Option<MapSector>> = vec![None; n_pieces];
        let mut resolved_n = 0usize;
        // The empty state's directory, filled in and handed back in step 7.
        let mut piece_locs = std::mem::take(&mut state.pieces);
        let mut committed: HashSet<u64> = HashSet::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut heap: BinaryHeap<(u64, u64)> = BinaryHeap::new(); // (seq, lba)
        if let Some((lba, seq)) = root {
            if seq >= base.seq {
                heap.push((seq, lba));
            }
        }
        let mut max_seen = base.seq;
        while let Some((seq, lba)) = heap.pop() {
            if seq < base.seq || !visited.insert(lba) {
                continue;
            }
            let sector = match scan_cache.get(&lba) {
                Some(m) => Some(m.clone()),
                None => {
                    let mut buf = [0u8; PIECE_BYTES];
                    report.service += disk.read_sectors(lba, &mut buf)?;
                    MapSector::decode(&buf)
                }
            };
            let m = match sector {
                Some(m) if m.seq == seq => m,
                _ => {
                    report.branches_pruned += 1;
                    continue;
                }
            };
            report.sectors_traversed += 1;
            max_seen = max_seen.max(m.seq);
            if m.flags.contains(MapFlags::TXN_COMMIT) {
                if let Some(t) = m.txn {
                    committed.insert(t.id);
                }
            }
            let payload_valid = if m.flags.contains(MapFlags::TXN_PART) {
                let ok = m.txn.map(|t| committed.contains(&t.id)).unwrap_or(false);
                if !ok {
                    report.uncommitted_skipped += 1;
                }
                ok
            } else {
                true
            };
            // A piece number past the directory names no piece.
            let piece = m.piece as usize;
            if let (true, Some(loc), Some(res @ None)) = (
                payload_valid,
                piece_locs.get_mut(piece),
                resolved.get_mut(piece),
            ) {
                *loc = Some(PieceLoc {
                    lba,
                    seq: m.seq,
                    prev: m.prev,
                });
                *res = Some(m.clone());
                resolved_n += 1;
            }
            for ptr in [m.prev, m.bypass].into_iter().flatten() {
                if ptr.1 >= base.seq {
                    heap.push((ptr.1, ptr.0));
                }
            }
            if resolved_n == n_pieces {
                break;
            }
        }

        // 5. Scan fallback also mines unreachable pieces directly: every
        // live piece version is physically present and self-identifying.
        if !scan_cache.is_empty() {
            let commits: HashSet<u64> = scan_cache
                .values()
                .filter(|m| m.flags.contains(MapFlags::TXN_COMMIT))
                .filter_map(|m| m.txn.map(|t| t.id))
                .collect();
            for (lba, m) in &scan_cache {
                let piece = m.piece as usize;
                let (Some(loc), Some(res)) = (piece_locs.get_mut(piece), resolved.get_mut(piece))
                else {
                    continue;
                };
                if m.flags.contains(MapFlags::TXN_PART)
                    && !m.txn.map(|t| commits.contains(&t.id)).unwrap_or(false)
                {
                    continue;
                }
                if loc.is_none_or(|loc| m.seq > loc.seq) {
                    *loc = Some(PieceLoc {
                        lba: *lba,
                        seq: m.seq,
                        prev: m.prev,
                    });
                    resolved_n += usize::from(res.is_none());
                    *res = Some(m.clone());
                }
            }
        }

        // 6. Anything still missing comes from the checkpoint directory;
        // those pieces are read back (one sector each) for their payload.
        let checkpointed = piece_locs.iter_mut().zip(&mut resolved).zip(&base.pieces);
        for (i, ((slot, res), loc)) in checkpointed.enumerate() {
            let (None, Some(loc)) = (&slot, loc) else {
                continue;
            };
            let mut buf = [0u8; PIECE_BYTES];
            report.service += disk.read_sectors(loc.lba, &mut buf)?;
            match MapSector::decode(&buf) {
                Some(m) if m.seq == loc.seq && m.piece as usize == i => {
                    *slot = Some(*loc);
                    resolved_n += usize::from(res.is_none());
                    *res = Some(m);
                    report.pieces_from_checkpoint += 1;
                }
                _ => report.branches_pruned += 1,
            }
        }
        report.pieces_recovered = resolved_n as u64;
        next_seq = next_seq.max(max_seen.saturating_add(1));

        // 7. Rebuild the volatile state.
        for (piece, m) in resolved.iter().enumerate() {
            let Some(m) = m else { continue };
            let base_lb = piece * PIECE_ENTRIES;
            for (i, &pb) in m.entries.iter().enumerate() {
                let lb = base_lb + i;
                if lb < state.map.len() && pb != UNMAPPED {
                    // `pb` comes straight from a checksum-valid sector of
                    // the image, which proves integrity, not sanity.
                    *state
                        .rmap
                        .get_mut(pb as usize)
                        .ok_or(DiskError::Corrupt("map entry beyond device"))? = lb as u32;
                    state.map.set(lb, pb);
                }
            }
        }
        let g = &disk.spec().geometry;
        for loc in piece_locs.iter().flatten() {
            let p = g.lba_to_phys(loc.lba)?;
            state
                .free
                .allocate(p.cyl, p.track, p.sector, BLOCK_SECTORS)?;
        }
        for pb in state.map.iter().filter(|&pb| pb != UNMAPPED) {
            let p = g.lba_to_phys(pb as u64 * BLOCK_SECTORS as u64)?;
            state
                .free
                .allocate(p.cyl, p.track, p.sector, BLOCK_SECTORS)?;
        }

        // 8. Clear the tail record so it is never trusted stale.
        report.service += disk.write_sectors(TAIL_LBA, &TailRecord::cleared())?;

        // The recovered root is the youngest live piece: chaining future
        // writes from it keeps every live entry reachable.
        state.root = piece_locs
            .iter()
            .flatten()
            .max_by_key(|l| l.seq)
            .map(|l| (l.lba, l.seq));
        state.pieces = piece_locs;
        (state.next_seq, state.next_txn) = (next_seq, next_seq);
        (state.checkpoint_seq, state.ckpt_use_b) = (base.seq, !base_was_b);
        let mut vlog = Self::assemble(disk, EagerAllocator::new(alloc_cfg), state);

        // 9. A fresh checkpoint re-establishes the recycling invariant:
        // everything stale from before the crash is genuinely free now.
        report.service += vlog.checkpoint()?;
        if sp != 0 {
            spans.close(sp, vlog.disk().clock().now());
        }
        Ok((vlog, report))
    }
}

/// What a disk scan cost.
#[derive(Debug, Default, PartialEq)]
struct ScanCost {
    /// Sectors read: every sector of the device.
    sectors: u64,
    /// Tracks that had bytes to decode.
    tracks_decoded: u64,
    /// Simulated time consumed.
    service: ServiceTime,
}

/// Read every track once through a lending read — one command per track,
/// charged exactly as a copying read, copying nothing — and decode the
/// first sector of each written page: a track's pages start at its 4 KB
/// blocks, map pieces live in the first sector of 4 KB-aligned physical
/// blocks, and a never-written page, skipped, reads as zeros, which cannot
/// carry `MAP_MAGIC`. Returns the cache of valid map sectors keyed by LBA
/// and what the scan cost.
fn scan_disk(disk: &mut Disk) -> Result<(HashMap<u64, MapSector>, ScanCost)> {
    let g = &disk.spec().geometry;
    let (cylinders, tracks) = (g.cylinders(), g.tracks_per_cylinder());
    // Valid map sectors found by a scan are bounded by the live pieces
    // plus their not-yet-recycled superseded versions — a few per piece.
    // Pre-sizing to that bound keeps the insert loop rehash-free.
    let n_pieces =
        (VirtualLog::logical_capacity(g.total_sectors()) as usize).div_ceil(PIECE_ENTRIES);
    let mut cache = HashMap::with_capacity(4 * n_pieces);
    let mut cost = ScanCost::default();
    for cyl in 0..cylinders {
        let spt = disk.spec().geometry.sectors_per_track(cyl)?;
        for track in 0..tracks {
            let start = disk.spec().geometry.track_start_lba(cyl, track)?;
            let mut decoded = false;
            cost.service += disk.lend_sectors(start, spt, |bytes, page| {
                // A page starts a block: its first sector may hold a piece.
                decoded = true;
                if let Some(m) = page.get(..PIECE_BYTES).and_then(MapSector::decode) {
                    cache.insert(start + (bytes.start / SECTOR_BYTES) as u64, m);
                }
            })?;
            cost.tracks_decoded += u64::from(decoded);
            cost.sectors += spt as u64;
        }
    }
    Ok((cache, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::BLOCK_BYTES;
    use disksim::{DiskSpec, SimClock};

    /// The copying scan the shared one replaced, kept as its oracle: every
    /// track zero-filled or copied into a buffer and every block-aligned
    /// sector of it decoded, blank track or not.
    fn scan_disk_copying(disk: &mut Disk) -> Result<(HashMap<u64, MapSector>, ScanCost)> {
        let tracks: Vec<(u64, u32)> = {
            let g = &disk.spec().geometry;
            let mut v = Vec::new();
            for cyl in 0..g.cylinders() {
                let spt = g.sectors_per_track(cyl)?;
                for track in 0..g.tracks_per_cylinder() {
                    v.push((g.track_start_lba(cyl, track)?, spt));
                }
            }
            v
        };
        let mut cache = HashMap::new();
        let mut cost = ScanCost::default();
        let mut buf = Vec::new();
        for (start, spt) in tracks {
            buf.resize(spt as usize * SECTOR_BYTES, 0);
            cost.service += disk.read_sectors(start, &mut buf)?;
            cost.sectors += spt as u64;
            for s in (0..spt).step_by(BLOCK_SECTORS as usize) {
                let off = s as usize * SECTOR_BYTES;
                if off + PIECE_BYTES <= buf.len() {
                    if let Some(m) = MapSector::decode(&buf[off..off + PIECE_BYTES]) {
                        cache.insert(start + s as u64, m);
                    }
                }
            }
        }
        Ok((cache, cost))
    }

    /// A crashed image with `blocks` logical blocks written (some twice):
    /// 0 leaves only the format's tracks, a few leave partly written
    /// tracks, many fill whole ones.
    fn crashed_image(spec: DiskSpec, blocks: u64) -> Disk {
        let mut v = VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default());
        for lb in 0..blocks {
            v.write(lb, &vec![lb as u8; BLOCK_BYTES]).expect("write");
        }
        for lb in (0..blocks).step_by(5) {
            v.write(lb, &vec![!(lb as u8); BLOCK_BYTES])
                .expect("rewrite");
        }
        let mut disk = v.crash();
        if blocks > 0 {
            // One track written end to end, a map sector in every block.
            let g = disk.spec().geometry.clone();
            let cyl = g.cylinders() - 1;
            let spt = g.sectors_per_track(cyl).expect("last cylinder");
            let mut track = vec![0xD7u8; spt as usize * SECTOR_BYTES];
            for (i, block) in track.chunks_mut(BLOCK_BYTES).enumerate() {
                let m = MapSector {
                    seq: 1 << 40 | i as u64,
                    piece: i as u32,
                    flags: MapFlags::default(),
                    prev: None,
                    bypass: None,
                    txn: None,
                    entries: vec![UNMAPPED; 3],
                };
                block[..PIECE_BYTES].copy_from_slice(&m.encode().expect("encode"));
            }
            let start = g.track_start_lba(cyl, 0).expect("track start");
            disk.poke_sectors(start, &track).expect("poke");
        }
        disk
    }

    /// The shared scan and the copying scan see the same map sectors at
    /// the same simulated cost and leave the disk in the same state.
    #[test]
    fn shared_scan_matches_the_copying_scan() {
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            for blocks in [0u64, 7, 900] {
                let restored = |d: Disk| d.snapshot().restore();
                for (mut share, mut copy) in [
                    (
                        crashed_image(spec.clone(), blocks),
                        crashed_image(spec.clone(), blocks),
                    ),
                    (
                        restored(crashed_image(spec.clone(), blocks)),
                        restored(crashed_image(spec.clone(), blocks)),
                    ),
                ] {
                    let ctx = format!("{} with {blocks} blocks", spec.name);
                    let materialised = share.materialised_tracks().len() as u64;
                    let (got, got_cost) = scan_disk(&mut share).expect("shared scan");
                    let (want, want_cost) = scan_disk_copying(&mut copy).expect("copying scan");
                    assert_eq!(got, want, "{ctx}: cache");
                    assert_eq!(got.is_empty(), blocks == 0, "{ctx}: map sectors found");
                    let full = spec.geometry.cylinders() - 1;
                    let full = spec.geometry.track_start_lba(full, 0).expect("track start");
                    assert_eq!(got.contains_key(&full), blocks > 0, "{ctx}: the full track");
                    assert_eq!(got_cost.sectors, want_cost.sectors, "{ctx}");
                    assert_eq!(got_cost.sectors, spec.geometry.total_sectors(), "{ctx}");
                    assert_eq!(got_cost.service, want_cost.service, "{ctx}: service time");
                    assert_eq!(share.now_ns(), copy.now_ns(), "{ctx}: clock");
                    assert_eq!(share.head(), copy.head(), "{ctx}: head");
                    assert_eq!(
                        format!("{:?}", share.stats()),
                        format!("{:?}", copy.stats()),
                        "{ctx}: stats"
                    );
                    assert_eq!(share.cache_stats(), copy.cache_stats(), "{ctx}: read-ahead");
                    assert_eq!(want_cost.tracks_decoded, 0, "the oracle does not count");
                    assert!(got_cost.tracks_decoded > 0, "{ctx}: the format wrote");
                    assert!(got_cost.tracks_decoded <= materialised, "{ctx}");
                    let all = spec.geometry.cylinders() * spec.geometry.tracks_per_cylinder();
                    assert!(materialised < all as u64, "{ctx}: some track stays blank");
                }
            }
        }
    }

    /// A map sector that passes its checksum but names a physical block
    /// beyond the device is a bad image, not a reason to panic.
    #[test]
    fn map_entry_beyond_the_device_is_corruption_not_a_panic() {
        let mut disk = crashed_image(DiskSpec::hp97560_sim(), 7);
        let (cache, _) = scan_disk(&mut disk.snapshot().restore()).expect("scan");
        let (&lba, newest) = cache
            .iter()
            .max_by_key(|(_, m)| m.seq)
            .expect("a map sector");
        let mut bad = newest.clone();
        let total_pb = disk.spec().geometry.total_sectors() / BLOCK_SECTORS as u64;
        bad.entries[0] = total_pb as u32;
        disk.poke_sectors(lba, &bad.encode().expect("encode"))
            .expect("poke");
        match VirtualLog::recover(disk, AllocConfig::default()) {
            Err(DiskError::Corrupt(what)) => assert_eq!(what, "map entry beyond device"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a map entry beyond the device was accepted"),
        }
    }
}
