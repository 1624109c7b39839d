//! The free-space compactor (§2.3, §4.2).
//!
//! During idle periods the drive can use the "free" bandwidth between head
//! and platter to generate empty tracks: read a victim track, *hole-plug*
//! its live blocks into free space on other (non-empty) tracks, and commit
//! the moves through the virtual log. Unlike the LFS cleaner, which must
//! move whole segments, this works at track granularity and can exploit
//! short idle intervals — the contrast Figures 10 and 11 measure.
//!
//! Live map sectors found on a victim track are relocated by simply
//! re-appending their piece to the log (which frees the old sector by
//! construction).

use crate::alloc::best_in_cylinder;
use crate::log::{DataBlock, VirtualLog, BLOCK_BYTES, BLOCK_SECTORS};
use crate::mapsector::{MapFlags, UNMAPPED};
use disksim::{DiskError, PhysAddr, Result, SECTOR_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// How compaction victims are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Uniformly random among non-empty tracks — what the paper's VLD does
    /// ("currently, we choose compaction targets randomly").
    Random,
    /// The least-utilised non-empty track first (cheapest empty track per
    /// byte moved) — an ablation alternative.
    LeastUtilized,
}

/// Compactor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactorConfig {
    /// Victim selection policy.
    pub policy: VictimPolicy,
    /// Stop once this many completely empty tracks exist.
    pub target_empty_tracks: u32,
    /// RNG seed (runs are deterministic in simulation).
    pub seed: u64,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        Self {
            policy: VictimPolicy::Random,
            target_empty_tracks: 64,
            seed: 0x5EED,
        }
    }
}

/// Counters for compactor activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactStats {
    /// Idle nanoseconds actually consumed by compaction.
    pub(crate) consumed_ns: u64,
    /// Victim tracks fully emptied.
    pub tracks_emptied: u64,
    /// Data blocks relocated.
    pub blocks_moved: u64,
    /// Map pieces re-appended to relocate their sectors.
    pub(crate) pieces_relocated: u64,
}

/// The idle-time free-space compactor. A plain value: cloning it is its
/// snapshot, and the restored RNG resumes exactly where the captured
/// stream stopped, so a fork picks the same victim sequence a continued
/// original would. It counts into the metrics handle of the log it runs
/// on.
#[derive(Debug, Clone)]
pub struct Compactor {
    cfg: CompactorConfig,
    rng: StdRng,
    stats: CompactStats,
    /// Victim whose track was partially compacted when the idle budget
    /// expired; the next [`Compactor::run`] resumes it (re-validated
    /// against the current free map) instead of re-picking from scratch.
    pending_victim: Option<(u32, u32)>,
    /// Sectors per track of cylinder 0, cached across runs for the
    /// achievable-target computation (geometry never changes). Zero until
    /// first use.
    spt0: u64,
    /// Working memory reused across victims and runs, so a compaction
    /// round performs no heap allocation. A clone starts without it and
    /// regrows it on first use.
    scratch: Scratch,
}

/// The compactor's per-victim working memory.
#[derive(Debug, Default)]
struct Scratch {
    /// Live data blocks on the victim: (old physical block, logical block,
    /// byte offset into the victim track).
    moves: Vec<(u32, u64, usize)>,
    /// Pieces whose live map sector sits on the victim.
    resident: Vec<u32>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Compactor {
    /// Create a compactor with the given configuration.
    pub(crate) fn new(cfg: CompactorConfig) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: CompactStats::default(),
            pending_victim: None,
            spt0: 0,
            scratch: Scratch::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CompactStats {
        self.stats
    }

    /// Run for at most `budget_ns` of simulated time; returns the time
    /// actually consumed. Stops early when the empty-track pool reaches its
    /// target or no suitable victim exists.
    pub(crate) fn run(&mut self, vlog: &mut VirtualLog, budget_ns: u64) -> u64 {
        let blocks_before = self.stats.blocks_moved;
        let clock = vlog.disk().clock();
        let start = clock.now();
        let deadline = start + budget_ns;
        // The whole pass is background work: every disk command issued
        // until the span closes (including map appends for moved blocks,
        // which open their own child spans) hangs off this node.
        let spans = vlog.disk().spans().clone();
        let sp = if spans.is_enabled() {
            spans.open(disksim::SpanKind::Compaction, "vld.compact", start)
        } else {
            0
        };
        // The pool can never exceed the free space; chasing a larger target
        // would repack the same data forever.
        if self.spt0 == 0 {
            self.spt0 = vlog.free_map().sectors_per_track(0) as u64;
        }
        let achievable = (vlog.free_map().free_sectors() / self.spt0).saturating_sub(2) as u32;
        let target = self.cfg.target_empty_tracks.min(achievable);
        // Emptying a victim starts with a whole-track read — a seek plus a
        // full rotation — before the per-move deadline checks can engage,
        // so a run may overshoot the deadline by about one track read plus
        // one move. The first track starts on any non-zero budget (short
        // idle intervals are the compactor's reason to exist; callers that
        // must not overdraw hold back a reserve, see `Vld::idle`), but a
        // *second* track needs visible headroom.
        let step_ns = 3 * vlog.disk().spec().half_rotation_ns();
        let mut started = false;
        while clock.now() < deadline && (!started || clock.now() + step_ns <= deadline) {
            if vlog.free_map().empty_tracks() >= target {
                break;
            }
            // Resume the track the previous idle grant left half-compacted,
            // if it still holds live data and hasn't become the fill track.
            let resumed = self
                .pending_victim
                .take()
                .filter(|&(c, t)| Self::victim_eligible(vlog, c, t));
            if resumed.is_some() {
                vlog.metrics.inc("compact.victims_resumed");
            }
            let Some(victim) = resumed.or_else(|| self.choose_victim(vlog)) else {
                break;
            };
            started = true;
            let outcome = self.compact_track(vlog, victim, deadline);
            vlog.alloc.set_avoid(None);
            match outcome {
                Ok(true) => {
                    self.stats.tracks_emptied += 1;
                    vlog.state.stats.tracks_emptied += 1;
                    vlog.metrics.inc("compact.tracks_emptied");
                }
                Ok(false) => {
                    // Out of budget mid-track: carry the victim over to the
                    // next run (the moves already made are committed).
                    self.pending_victim = Some(victim);
                    break;
                }
                Err(_) => break, // no destination space: nothing to gain
            }
        }
        if sp != 0 {
            spans.close(sp, clock.now());
        }
        let consumed = clock.now() - start;
        self.stats.consumed_ns += consumed;
        if vlog.metrics.is_enabled() && consumed > 0 {
            vlog.metrics.inc("compact.rounds");
            vlog.metrics.add("compact.consumed_ns", consumed);
            vlog.metrics.add(
                "compact.bytes_moved",
                (self.stats.blocks_moved - blocks_before) * crate::log::BLOCK_BYTES as u64,
            );
        }
        consumed
    }

    /// Pick a victim track containing live data (or live map sectors), per
    /// policy. Never picks the allocator's current fill track.
    ///
    /// `Random` rejection-samples eligible tracks (O(1) on any non-sparse
    /// disk); its sparse-disk fallback and the whole `LeastUtilized` policy
    /// are the free map's on-demand scan of the per-track counts.
    fn choose_victim(&mut self, vlog: &VirtualLog) -> Option<(u32, u32)> {
        let free = vlog.free_map();
        let cyls = free.cylinders();
        let tracks = free.tracks_in_cylinder();
        if self.cfg.policy == VictimPolicy::Random {
            for _ in 0..256 {
                let c = self.rng.gen_range(0..cyls);
                let t = self.rng.gen_range(0..tracks);
                if Self::victim_eligible(vlog, c, t) {
                    return Some((c, t));
                }
            }
            // Sparse disk: fall back to the deterministic pick.
        }
        let fill = vlog.alloc.fill_track();
        free.least_utilized_nonempty(|c, t| Some((c, t)) == fill || Self::is_firmware_track(c, t))
    }

    /// Is (`cyl`, `track`) a permissible victim right now: holds live data,
    /// is not the allocator's fill track, and is not the firmware track.
    fn victim_eligible(vlog: &VirtualLog, c: u32, t: u32) -> bool {
        !vlog.free_map().track_is_empty(c, t)
            && Some((c, t)) != vlog.alloc.fill_track()
            && !Self::is_firmware_track(c, t)
    }

    fn is_firmware_track(cyl: u32, track: u32) -> bool {
        // The firmware area occupies the first sectors of (0, 0); that track
        // can never be emptied, so don't waste idle time on it.
        cyl == 0 && track == 0
    }

    /// Empty one victim track. Returns Ok(true) if the track was fully
    /// emptied, Ok(false) if the budget expired first (partial progress is
    /// kept — every completed move is committed).
    fn compact_track(
        &mut self,
        vlog: &mut VirtualLog,
        (vc, vt): (u32, u32),
        deadline: u64,
    ) -> Result<bool> {
        let clock = vlog.disk().clock();
        let (spt, start_lba) = {
            let g = &vlog.disk().spec().geometry;
            (g.sectors_per_track(vc)?, g.track_start_lba(vc, vt)?)
        };
        let track_lbas = start_lba..start_lba + spt as u64;
        // Nothing — data or map sectors — may land on the victim while it
        // is being emptied, or it never empties.
        vlog.alloc.set_avoid(Some((vc, vt)));

        // One whole-track read: the compactor works at track granularity.
        // The drive lends the track's pages themselves, not a copy, and
        // each move below hands the destination the live block's own page.
        let (victim, _) = vlog.disk_mut().share_sectors(start_lba, spt)?;
        let Scratch { moves, resident } = &mut self.scratch;

        // Collect the live data blocks on this track.
        moves.clear();
        for slot in 0..spt / BLOCK_SECTORS {
            let sector = slot * BLOCK_SECTORS;
            let pb = ((start_lba + sector as u64) / BLOCK_SECTORS as u64) as u32;
            let lb = vlog.rmap_lookup(pb);
            if lb != UNMAPPED {
                moves.push((pb, lb as u64, sector as usize * SECTOR_BYTES));
            }
        }

        // Group the moves by map piece so each piece commits exactly once,
        // keeping track order within a piece (physical blocks are distinct,
        // so the composite key needs no stable sort and no sort scratch).
        moves.sort_unstable_by_key(|&(pb, lb, _)| (vlog.piece_of(lb), pb));

        // Hole-plug the data blocks elsewhere, committing per map piece.
        let mut current_piece: Option<u32> = None;
        for &(old_pb, lb, off) in moves.iter() {
            if clock.now() >= deadline {
                if let Some(p) = current_piece {
                    Self::commit_piece(vlog, p)?;
                }
                vlog.alloc.set_avoid(None);
                return Ok(false);
            }
            let piece = vlog.piece_of(lb);
            if let Some(cur) = current_piece.filter(|&cur| cur != piece) {
                Self::commit_piece(vlog, cur)?;
            }
            current_piece = Some(piece);
            let range = off..off + BLOCK_BYTES;
            let page = victim.page(range.clone());
            let block = match &page {
                Some(page) => DataBlock::Handle(page),
                None => DataBlock::Bytes(
                    victim
                        .get(range)
                        .ok_or(DiskError::Corrupt("live block on a never-written page"))?,
                ),
            };
            vlog.relocate_block(lb, old_pb, block, (vc, vt))?;
            self.stats.blocks_moved += 1;
        }
        if let Some(p) = current_piece {
            Self::commit_piece(vlog, p)?;
        }
        // The emptied victim soon becomes a fill track: a handle alive at
        // its first writes would make each map-sector write copy its page.
        drop(victim);

        // Relocate any live map sectors still on the victim track by
        // re-appending their pieces; a checkpoint then releases the
        // superseded blocks (they are pending until one covers them).
        resident.clear();
        vlog.pieces_on_track(&track_lbas, resident);
        for &piece in resident.iter() {
            if clock.now() >= deadline {
                vlog.alloc.set_avoid(None);
                return Ok(false);
            }
            Self::commit_piece(vlog, piece)?;
            self.stats.pieces_relocated += 1;
        }
        if !resident.is_empty() || vlog.pending_recycle_on_track(&track_lbas) {
            vlog.checkpoint()?;
        }
        vlog.alloc.set_avoid(None);
        Ok(vlog.free_map().free_in_track(vc, vt) == spt)
    }

    /// Append `piece` to the log — committing every block relocated into it
    /// since its last append — and release what that supersedes.
    fn commit_piece(vlog: &mut VirtualLog, piece: u32) -> Result<()> {
        vlog.append_piece(piece, MapFlags::EMPTY, None)?;
        vlog.release_superseded();
        Ok(())
    }
}

impl VirtualLog {
    /// Reverse-map lookup: which logical block lives in physical block `pb`.
    pub(crate) fn rmap_lookup(&self, pb: u32) -> u32 {
        self.state.rmap[pb as usize]
    }

    /// Append to `out` the pieces whose live map sector sits on the track
    /// occupying the LBA range `track` (a track's sectors are contiguous in
    /// LBA space), in piece order.
    pub(crate) fn pieces_on_track(&self, track: &Range<u64>, out: &mut Vec<u32>) {
        out.extend(self.state.pieces.iter().enumerate().filter_map(|(i, loc)| {
            loc.is_some_and(|loc| track.contains(&loc.lba))
                .then_some(i as u32)
        }));
    }

    /// Move one live data block off a victim track into a hole elsewhere
    /// (never back onto the victim, and preferring non-empty tracks so the
    /// compactor's output pool isn't consumed by its own input).
    pub(crate) fn relocate_block(
        &mut self,
        lb: u64,
        old_pb: u32,
        block: DataBlock,
        victim: (u32, u32),
    ) -> Result<()> {
        let cand = self
            .find_plug_destination(victim)
            .ok_or(disksim::DiskError::NoSpace)?;
        let lba = self.disk.phys_to_lba(PhysAddr {
            cyl: cand.0,
            track: cand.1,
            sector: cand.2,
        })?;
        block.write_to(&mut self.disk, lba)?;
        self.state
            .free
            .allocate(cand.0, cand.1, cand.2, BLOCK_SECTORS)?;
        let new_pb = (lba / BLOCK_SECTORS as u64) as u32;
        self.state.map.set(lb as usize, new_pb);
        self.state.rmap[new_pb as usize] = lb as u32;
        // The old copy is dead the moment the covering map piece commits;
        // defer its release exactly like an overwrite.
        self.defer_block_release(old_pb);
        self.state.stats.blocks_moved += 1;
        Ok(())
    }

    /// A hole-plugging destination for a block leaving `victim`, as
    /// `(cyl, track, sector)`: cylinders are visited in ring order from the
    /// head and the first one holding a free aligned block on a
    /// *non-empty*, non-victim track wins; within it the strictly cheapest
    /// track does (the lowest track on a cost tie). Empty tracks are used
    /// only as a last resort — the nearest one. The victim still holds the
    /// block being moved, so it is never that empty track.
    ///
    /// Each cylinder is searched by the eager allocator's
    /// `best_in_cylinder`, so full cylinders and tracks are skipped on the
    /// free map's O(1) summaries, one repositioning plan serves the whole
    /// cylinder, and a candidate on the head's own track that beats a head
    /// switch ends the search at once. `compact.plug_tracks_priced` counts
    /// the tracks considered (those with a free block that are neither the
    /// victim nor empty, and the last resort), `alloc.cost_evals` the exact
    /// pricings.
    pub fn find_plug_destination(&self, victim: (u32, u32)) -> Option<(u32, u32, u32)> {
        let (disk, free, metrics) = (&self.disk, &self.state.free, &self.metrics);
        let head = disk.head_cyl();
        let (mut tracks_priced, mut cyls_skipped) = (0u64, 0u64);
        let found = free
            .ring(head)
            .find_map(|cyl| {
                if !free.cylinder_has_candidate(cyl, BLOCK_SECTORS) {
                    cyls_skipped += 1;
                    return None;
                }
                best_in_cylinder(disk, free, metrics, cyl, BLOCK_SECTORS, |t| {
                    let skip = (cyl, t) == victim || free.track_is_empty(cyl, t);
                    tracks_priced += u64::from(!skip);
                    skip
                })
            })
            .or_else(|| {
                let (cyl, track) = free.nearest_empty_track(head)?;
                tracks_priced += 1;
                best_in_cylinder(disk, free, metrics, cyl, BLOCK_SECTORS, |t| t != track)
            });
        if self.metrics.is_enabled() {
            self.metrics.inc("compact.plug_searches");
            self.metrics
                .add("compact.plug_tracks_priced", tracks_priced);
            self.metrics.add("compact.plug_cyls_skipped", cyls_skipped);
        }
        found.map(|c| (c.cyl, c.track, c.sector))
    }

    /// The exhaustive hole-plug scan [`Self::find_plug_destination`]
    /// replaced — every track of every visited cylinder pays an arrival
    /// computation, a per-slot free-list scan and an exact positioning cost,
    /// consulting no summary and no plan — kept as the oracle the indexed
    /// search is tested against.
    #[cfg(test)]
    fn find_plug_destination_scan(&self, victim: (u32, u32)) -> Option<(u32, u32, u32)> {
        let head = self.disk.head();
        let cyls = self.state.free.cylinders();
        let tracks = self.state.free.tracks_in_cylinder();
        let mut last_resort: Option<(u32, u32, u32)> = None;
        for d in 0..cyls {
            for cyl in [
                head.cyl.checked_sub(d),
                (head.cyl + d < cyls).then_some(head.cyl + d),
            ]
            .into_iter()
            .flatten()
            {
                let mut best: Option<(u64, (u32, u32, u32))> = None;
                for t in 0..tracks {
                    if (cyl, t) == victim {
                        continue;
                    }
                    let Ok(arrival) = self.disk.arrival_sector(cyl, t) else {
                        continue;
                    };
                    let Some(sector) =
                        self.state
                            .free
                            .free_aligned_from(cyl, t, arrival, BLOCK_SECTORS)
                    else {
                        continue;
                    };
                    let ti = self.state.free.track_index(cyl, t);
                    let empty = self.state.free.free_in_track(cyl, t)
                        == self.state.free.sectors_per_track(ti);
                    if empty {
                        if last_resort.is_none() {
                            last_resort = Some((cyl, t, sector));
                        }
                        continue;
                    }
                    let Ok(cost) = self.disk.position_cost(cyl, t, sector) else {
                        continue;
                    };
                    let cost = cost.total_ns();
                    if best.map(|(c, _)| cost < c).unwrap_or(true) {
                        best = Some((cost, (cyl, t, sector)));
                    }
                }
                if let Some((_, found)) = best {
                    return Some(found);
                }
                if d == 0 {
                    break;
                }
            }
        }
        last_resort
    }

    /// Queue a physical block for release at the next commit point.
    pub(crate) fn defer_block_release(&mut self, pb: u32) {
        self.state.deferred_blocks.push(pb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocConfig;
    use disksim::{Disk, DiskSpec, Metrics, SimClock};

    fn fresh() -> VirtualLog {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default())
    }

    fn fill_fraction(v: &mut VirtualLog, frac: f64) -> u64 {
        let n = (v.num_blocks() as f64 * frac) as u64;
        let buf = vec![0x11u8; crate::log::BLOCK_BYTES];
        for lb in 0..n {
            v.write(lb, &buf).unwrap();
        }
        n
    }

    #[test]
    fn compaction_creates_empty_tracks() {
        let mut v = fresh();
        // Fill 60%, then punch holes by overwriting a scattered subset —
        // overwrites free the old locations, leaving holey tracks.
        let n = fill_fraction(&mut v, 0.6);
        let buf = vec![0x22u8; crate::log::BLOCK_BYTES];
        for lb in (0..n).step_by(3) {
            v.write(lb, &buf).unwrap();
        }
        let before = v.free_map().empty_tracks();
        let mut c = Compactor::new(CompactorConfig {
            target_empty_tracks: before + 4,
            ..CompactorConfig::default()
        });
        let consumed = c.run(&mut v, 60_000_000_000); // generous budget
        assert!(consumed > 0);
        assert!(
            v.free_map().empty_tracks() >= before + 4,
            "empty tracks {} -> {}",
            before,
            v.free_map().empty_tracks()
        );
        assert!(c.stats().blocks_moved > 0);
    }

    #[test]
    fn compaction_preserves_data() {
        let mut v = fresh();
        let n = 200u64;
        for lb in 0..n {
            v.write(lb, &vec![lb as u8; crate::log::BLOCK_BYTES])
                .unwrap();
        }
        // Punch holes.
        for lb in (0..n).step_by(2) {
            v.write(lb, &vec![(lb as u8) ^ 0xFF; crate::log::BLOCK_BYTES])
                .unwrap();
        }
        let mut c = Compactor::new(CompactorConfig::default());
        c.run(&mut v, 30_000_000_000);
        for lb in 0..n {
            let mut buf = vec![0u8; crate::log::BLOCK_BYTES];
            v.read(lb, &mut buf).unwrap();
            let want = if lb % 2 == 0 {
                (lb as u8) ^ 0xFF
            } else {
                lb as u8
            };
            assert!(
                buf.iter().all(|&b| b == want),
                "block {lb} corrupted by compaction"
            );
        }
    }

    #[test]
    fn budget_limits_consumption() {
        let mut v = fresh();
        fill_fraction(&mut v, 0.5);
        let buf = vec![0x33u8; crate::log::BLOCK_BYTES];
        for lb in (0..v.num_blocks() / 2).step_by(2) {
            v.write(lb, &buf).unwrap();
        }
        let mut c = Compactor::new(CompactorConfig {
            target_empty_tracks: u32::MAX,
            ..CompactorConfig::default()
        });
        let budget = 50_000_000; // 50 ms
        let consumed = c.run(&mut v, budget);
        // Allowed to overshoot by at most one track read + one move cycle.
        assert!(consumed < budget + 100_000_000, "consumed {consumed}");
        assert!(consumed > 0);
    }

    #[test]
    fn zero_budget_consumes_nothing() {
        let mut v = fresh();
        fill_fraction(&mut v, 0.3);
        let mut c = Compactor::new(CompactorConfig::default());
        assert_eq!(c.run(&mut v, 0), 0);
    }

    #[test]
    fn stops_at_target_pool() {
        let mut v = fresh();
        // Nearly empty disk: plenty of empty tracks already.
        v.write(0, &vec![1u8; crate::log::BLOCK_BYTES]).unwrap();
        let mut c = Compactor::new(CompactorConfig {
            target_empty_tracks: 1,
            ..CompactorConfig::default()
        });
        assert_eq!(c.run(&mut v, 1_000_000_000), 0, "pool already at target");
    }

    /// A budget expiry mid-track carries the victim into the next run
    /// instead of re-picking, and the resumed run finishes the track.
    #[test]
    fn partial_track_progress_resumes_across_runs() {
        let mut v = fresh();
        fill_fraction(&mut v, 0.5);
        let buf = vec![0x66u8; crate::log::BLOCK_BYTES];
        for lb in (0..v.num_blocks() / 2).step_by(2) {
            v.write(lb, &buf).unwrap();
        }
        let mut c = Compactor::new(CompactorConfig {
            target_empty_tracks: u32::MAX,
            ..CompactorConfig::default()
        });
        // Grant slivers of idle time until one expires mid-track.
        let mut carried = None;
        for _ in 0..200 {
            c.run(&mut v, 3_000_000);
            if let Some(vic) = c.pending_victim {
                carried = Some(vic);
                break;
            }
        }
        let vic = carried.expect("some 3 ms grant should expire mid-track");
        // The next grant must pick up the same track, not start elsewhere.
        let m = disksim::Metrics::enabled();
        v.set_metrics(m.clone());
        c.run(&mut v, 2_000_000_000);
        assert!(
            m.counter_value("compact.victims_resumed") >= 1,
            "victim {vic:?} was not resumed"
        );
    }

    /// The drive's page holding physical block `pb`, taken by a timed
    /// shared read.
    fn page_of(v: &mut VirtualLog, pb: u64) -> std::sync::Arc<[u8]> {
        let (shared, _) = v
            .disk_mut()
            .share_sectors(pb * BLOCK_SECTORS as u64, BLOCK_SECTORS)
            .unwrap();
        shared
            .page(0..crate::log::BLOCK_BYTES)
            .expect("a live block is one written page")
    }

    /// A move hands the destination the victim's own page, and the loan of
    /// the victim track ends inside `compact_track`: on aged logs (both
    /// drives, 50–95 % full) every live block's page after
    /// `Compactor::run` is the very page it had before, wherever the block
    /// now lies, and afterwards no page has a holder outside the drive's
    /// table — each is held exactly as often as the table names it.
    #[test]
    fn a_moved_block_keeps_its_page_and_no_loan_outlives_a_run() {
        use std::collections::HashMap;
        use std::sync::Arc;
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            for util in [0.5f64, 0.8, 0.95] {
                let mut spec = spec.clone();
                spec.command_overhead_ns = 0;
                let mut v =
                    VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default());
                let mut rng = StdRng::seed_from_u64(0xC0DE);
                let block = vec![0x5Au8; crate::log::BLOCK_BYTES];
                let mut live = Vec::new();
                while v.utilization() < util + 0.03 && (live.len() as u64) < v.num_blocks() {
                    v.write(live.len() as u64, &block).unwrap();
                    live.push(live.len() as u64);
                }
                while v.utilization() > util {
                    let lb = live.swap_remove(rng.gen_range(0..live.len()));
                    v.trim(lb).unwrap();
                }
                let before: Vec<(u64, u64, Arc<[u8]>)> = live
                    .iter()
                    .map(|&lb| {
                        let pb = v.translate(lb).unwrap();
                        (lb, pb, page_of(&mut v, pb))
                    })
                    .collect();
                let mut c = Compactor::new(CompactorConfig {
                    target_empty_tracks: u32::MAX,
                    ..CompactorConfig::default()
                });
                c.run(&mut v, 2_000_000_000);
                assert!(c.stats().blocks_moved > 0, "util {util}: nothing compacted");
                let mut moved = 0;
                for (lb, pb, page) in before {
                    let now = v.translate(lb).unwrap();
                    moved += (now != pb) as u64;
                    let at = page_of(&mut v, now);
                    assert!(
                        Arc::ptr_eq(&at, &page),
                        "util {util}: block {lb} was copied"
                    );
                }
                assert!(moved > 0, "util {util}");

                // Hold every written page through one share per track: a
                // page the table names k times then has 2k holders, plus
                // the probe's own.
                let shares: Vec<_> = v
                    .disk()
                    .materialised_tracks()
                    .into_iter()
                    .map(|(cyl, track)| {
                        let g = &v.disk().spec().geometry;
                        let lba = g.track_start_lba(cyl, track).unwrap();
                        let spt = g.sectors_per_track(cyl).unwrap();
                        (v.disk_mut().share_sectors(lba, spt).unwrap().0, spt)
                    })
                    .collect();
                let pages = || {
                    shares.iter().flat_map(|(shared, spt)| {
                        let blocks = (0..*spt as usize).step_by(BLOCK_SECTORS as usize);
                        blocks.filter_map(|first| {
                            let at = first * SECTOR_BYTES;
                            shared.page(at..at + crate::log::BLOCK_BYTES)
                        })
                    })
                };
                let mut named: HashMap<*const u8, usize> = HashMap::new();
                for page in pages() {
                    *named.entry(Arc::as_ptr(&page) as *const u8).or_default() += 1;
                }
                for page in pages() {
                    let k = named[&(Arc::as_ptr(&page) as *const u8)];
                    assert_eq!(
                        Arc::strong_count(&page),
                        2 * k + 1,
                        "util {util}: a loan outlived the run"
                    );
                }
            }
        }
    }

    #[test]
    fn least_utilized_policy_works() {
        let mut v = fresh();
        fill_fraction(&mut v, 0.4);
        let buf = vec![0x44u8; crate::log::BLOCK_BYTES];
        for lb in (0..v.num_blocks() * 2 / 5).step_by(4) {
            v.write(lb, &buf).unwrap();
        }
        let before = v.free_map().empty_tracks();
        let mut c = Compactor::new(CompactorConfig {
            policy: VictimPolicy::LeastUtilized,
            target_empty_tracks: before + 2,
            seed: 7,
        });
        c.run(&mut v, 60_000_000_000);
        assert!(v.free_map().empty_tracks() >= before + 2);
    }
    /// A log on `spec` whose free map is replaced by `free` — the plug
    /// search reads only the disk's head/clock and the free map.
    fn log_with_map(spec: &DiskSpec, free: crate::freemap::FreeMap) -> VirtualLog {
        let mut spec = spec.clone();
        spec.command_overhead_ns = 0;
        let mut v = VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default());
        v.state.free = free;
        v
    }

    /// Every block allocated except the listed `(cyl, track, sector)` ones.
    fn full_map_except(spec: &DiskSpec, holes: &[(u32, u32, u32)]) -> crate::freemap::FreeMap {
        let g = &spec.geometry;
        let mut free = crate::freemap::FreeMap::new(g);
        for c in 0..g.cylinders() {
            for t in 0..g.tracks_per_cylinder() {
                free.allocate(c, t, 0, g.sectors_per_track(c).unwrap())
                    .unwrap();
            }
        }
        for &(c, t, s) in holes {
            free.release(c, t, s, BLOCK_SECTORS).unwrap();
        }
        free
    }

    /// The indexed hole-plug search picks exactly what the exhaustive scan
    /// it replaced picks: both drives, aged maps (overfilled, then randomly
    /// freed back down) from 25 to 97 % full, random head positions and
    /// rotational phases, and the victim on the head's track, elsewhere in
    /// the head's cylinder, and far away.
    #[test]
    fn indexed_plug_search_matches_exhaustive_scan() {
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let g = spec.geometry.clone();
            let (cyls, tracks) = (g.cylinders(), g.tracks_per_cylinder());
            let mut rng = StdRng::seed_from_u64(0x9106 ^ cyls as u64);
            for util in [0.25f64, 0.5, 0.75, 0.9, 0.97] {
                let mut free = crate::freemap::FreeMap::new(&g);
                let mut used = Vec::new();
                while free.utilization() < (util + 0.08).min(0.98) {
                    let (c, t) = (rng.gen_range(0..cyls), rng.gen_range(0..tracks));
                    let slots = g.sectors_per_track(c).unwrap() / BLOCK_SECTORS;
                    let s = rng.gen_range(0..slots) * BLOCK_SECTORS;
                    if free.run_free(c, t, s, BLOCK_SECTORS) {
                        free.allocate(c, t, s, BLOCK_SECTORS).unwrap();
                        used.push((c, t, s));
                    }
                }
                while free.utilization() > util {
                    let (c, t, s) = used.swap_remove(rng.gen_range(0..used.len()));
                    free.release(c, t, s, BLOCK_SECTORS).unwrap();
                }
                let mut v = log_with_map(&spec, free);
                for _ in 0..40 {
                    let (hc, ht) = (rng.gen_range(0..cyls), rng.gen_range(0..tracks));
                    v.disk.seek_to(hc, ht).unwrap();
                    v.disk
                        .advance_ns(rng.gen_range(0..spec.mech.revolution_ns()));
                    let far = ((hc + cyls / 2) % cyls, rng.gen_range(0..tracks));
                    for victim in [(hc, ht), (hc, (ht + 1) % tracks), far] {
                        assert_eq!(
                            v.find_plug_destination(victim),
                            v.find_plug_destination_scan(victim),
                            "cyls={cyls} util={util} head=({hc},{ht}) victim={victim:?}"
                        );
                    }
                }
            }
        }
    }

    /// With room only on empty tracks the search falls back to one — the
    /// first the outward scan passes, not the cheapest — and the work
    /// counters show the full cylinders it never opened.
    #[test]
    fn plug_search_last_resort_is_first_empty_track_seen() {
        let spec = DiskSpec::hp97560_sim();
        let spt = spec.geometry.sectors_per_track(0).unwrap();
        let mut free = full_map_except(&spec, &[]);
        for (c, t) in [(11, 0), (9, 5), (9, 2)] {
            free.release(c, t, 0, spt).unwrap();
        }
        let mut v = log_with_map(&spec, free);
        let m = Metrics::enabled();
        v.set_metrics(m.clone());
        v.disk.seek_to(10, 3).unwrap();
        let got = v
            .find_plug_destination((10, 3))
            .expect("empty tracks exist");
        assert_eq!(
            (got.0, got.1),
            (9, 2),
            "cylinder 9 precedes 11, track 2 precedes 5"
        );
        assert_eq!(Some(got), v.find_plug_destination_scan((10, 3)));
        assert_eq!(m.counter_value("compact.plug_searches"), 1);
        assert_eq!(
            m.counter_value("compact.plug_tracks_priced"),
            1,
            "later empty tracks are not priced"
        );
        assert_eq!(
            m.counter_value("alloc.cost_evals"),
            1,
            "only the last resort is priced"
        );
        assert_eq!(
            m.counter_value("compact.plug_cyls_skipped"),
            spec.geometry.cylinders() as u64 - 2
        );
        // Nor does an empty track jump the queue by being under the head.
        v.state.free.release(10, 7, 0, spt).unwrap();
        v.state.free.release(10, 4, 0, spt).unwrap();
        v.disk.seek_to(10, 7).unwrap();
        let got = v.find_plug_destination((3, 3)).expect("empty tracks exist");
        assert_eq!((got.0, got.1), (10, 4));
        assert_eq!(Some(got), v.find_plug_destination_scan((3, 3)));
    }

    #[test]
    fn plug_search_never_lands_on_the_victim() {
        let spec = DiskSpec::hp97560_sim();
        let mut v = log_with_map(&spec, full_map_except(&spec, &[(4, 6, 16), (4, 6, 40)]));
        v.disk.seek_to(4, 1).unwrap();
        assert_eq!(v.find_plug_destination((4, 6)), None);
        assert_eq!(v.find_plug_destination_scan((4, 6)), None);
        assert!(v.find_plug_destination((4, 5)).is_some());
    }

    /// Two tracks of the head's cylinder offering a block at the same
    /// angle cost the same (the HP's track skew is 13 of 72 sectors, so
    /// 40 + 13·2 ≡ 8 + 13·10 mod 72): the lower track wins.
    #[test]
    fn plug_search_breaks_cost_ties_toward_the_lowest_track() {
        let spec = DiskSpec::hp97560_sim();
        let mut v = log_with_map(&spec, full_map_except(&spec, &[(0, 10, 8), (0, 2, 40)]));
        v.disk.seek_to(0, 15).unwrap();
        let (a, b) = (
            v.disk.position_cost(0, 2, 40).unwrap(),
            v.disk.position_cost(0, 10, 8).unwrap(),
        );
        assert_eq!(a.total_ns(), b.total_ns(), "the construction must tie");
        assert_eq!(v.find_plug_destination((5, 5)), Some((0, 2, 40)));
        assert_eq!(v.find_plug_destination_scan((5, 5)), Some((0, 2, 40)));
    }
}
