//! Eager-writing allocation: pick a free location near the disk head.
//!
//! Two strategies from the paper are implemented:
//!
//! * **Greedy** (§2.1/§2.2) — take the free sector (or aligned block)
//!   reachable in minimum positioning time, searching the current cylinder
//!   first and widening outward; the Figure 1 simulation uses the
//!   bidirectional variant, the VLD the one-directional sweep of §4.2
//!   ("cylinder seeks only in one direction until it reaches the last
//!   cylinder"), which keeps the head from being trapped in full regions.
//! * **Threshold fill** (§2.3/§4.2) — when the compactor keeps a pool of
//!   empty tracks, fill the current empty track only up to a threshold
//!   (75 % in the paper's experiments), then move on; fall back to greedy
//!   once the pool is exhausted.
//!
//! Both greedy sweeps and the compactor's hole-plug search a cylinder
//! through one function, [`best_in_cylinder`]; it and the threshold fill
//! use the exact mechanical model of [`disksim::Disk::cylinder_pricer`]
//! (equal to [`disksim::Disk::position_cost`] at every sector), so the
//! allocator is as informed as firmware running inside the drive —
//! precisely the paper's premise. Each exact pricing counts one
//! `alloc.cost_evals` on the metrics handle.

use crate::freemap::FreeMap;
use disksim::{Disk, Metrics, ServiceTime};

/// A chosen allocation target and its predicted positioning cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Cylinder of the chosen location.
    pub cyl: u32,
    /// Track (head) of the chosen location.
    pub track: u32,
    /// First sector of the chosen location.
    pub sector: u32,
    /// Predicted seek + head switch + rotation to reach it.
    pub cost: ServiceTime,
}

/// Allocator tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocConfig {
    /// Data-block alignment in sectors (8 for the paper's 4 KB blocks).
    pub block_sectors: u32,
    /// Track-fill threshold: stop filling an empty track once its
    /// utilisation reaches this fraction (paper: 0.75).
    pub threshold: f64,
    /// Use the one-directional cylinder sweep (the VLD behaviour). When
    /// false, greedy searches both directions — the Figure 1 idealisation.
    pub one_way_sweep: bool,
    /// Prefer filling compactor-produced empty tracks to the threshold
    /// before going greedy.
    pub threshold_fill: bool,
}

impl Default for AllocConfig {
    fn default() -> Self {
        Self {
            block_sectors: 8,
            threshold: 0.75,
            one_way_sweep: true,
            threshold_fill: true,
        }
    }
}

/// Stateful eager allocator.
#[derive(Debug, Clone)]
pub struct EagerAllocator {
    state: AllocatorState,
    /// Metrics handle (disabled by default). Counts fast-path vs. fallback
    /// decisions; never influences them.
    metrics: Metrics,
}

/// Plain-data image of an allocator's mutable state (`Send + Sync`), used
/// by the snapshot/fork engine. The metrics handle is deliberately not
/// captured: a restored allocator starts detached.
#[derive(Debug, Clone, Copy)]
pub struct AllocatorState {
    cfg: AllocConfig,
    /// The empty track currently being filled under the threshold policy.
    fill_track: Option<(u32, u32)>,
    /// A track allocations must avoid (set while the compactor empties it,
    /// so fresh writes don't re-pollute the victim).
    avoid: Option<(u32, u32)>,
}

impl EagerAllocator {
    /// Create an allocator with the given configuration.
    pub fn new(cfg: AllocConfig) -> Self {
        Self::from_state(&AllocatorState {
            cfg,
            fill_track: None,
            avoid: None,
        })
    }

    /// Capture the mutable state for a later [`EagerAllocator::from_state`].
    pub fn state(&self) -> AllocatorState {
        self.state
    }

    /// Rebuild an allocator from captured state (metrics detached).
    pub fn from_state(state: &AllocatorState) -> Self {
        Self {
            state: *state,
            metrics: Metrics::disabled(),
        }
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach). The
    /// allocator records `alloc.fast_path` / `alloc.greedy_fallback` block
    /// placements and its `alloc.cost_evals`; its decisions are unaffected.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Forbid allocations on one track (compaction victim); `None` clears.
    pub fn set_avoid(&mut self, track: Option<(u32, u32)>) {
        self.state.avoid = track;
        if self.state.avoid.is_some() && self.state.fill_track == self.state.avoid {
            self.state.fill_track = None;
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AllocConfig {
        &self.state.cfg
    }

    /// Choose a free aligned data block near the head. Returns `None` only
    /// when no aligned block is free anywhere.
    pub fn find_block(&mut self, disk: &Disk, free: &FreeMap) -> Option<Candidate> {
        let align = self.state.cfg.block_sectors;
        if self.state.cfg.threshold_fill {
            if let Some(c) = self.fill_candidate(disk, free, align) {
                self.metrics.inc("alloc.fast_path");
                return Some(c);
            }
        }
        self.metrics.inc("alloc.greedy_fallback");
        self.greedy(disk, free, align)
    }

    /// Choose a single free sector near the head (for map-sector appends).
    /// Always greedy: the log entry goes wherever is cheapest right now.
    pub fn find_sector(&mut self, disk: &Disk, free: &FreeMap) -> Option<Candidate> {
        self.greedy(disk, free, 1)
    }

    /// Threshold-fill step: keep writing into the current fill track until
    /// it reaches the threshold, then grab the nearest empty track.
    fn fill_candidate(&mut self, disk: &Disk, free: &FreeMap, align: u32) -> Option<Candidate> {
        // Keep filling the current track while it is under the threshold and
        // still has room for an aligned slot.
        if let Some((c, t)) = self.state.fill_track {
            if free.track_utilization(c, t) < self.state.cfg.threshold {
                if let Some(cand) = self.price_track(disk, free, c, t, align) {
                    return Some(cand);
                }
            }
            self.state.fill_track = None;
        }
        // Grab the nearest empty track from the compactor's pool; if the
        // pool is dry, the caller falls back to greedy.
        let next = free.nearest_empty_track(disk.head_cyl())?;
        if Some(next) == self.state.avoid {
            return None;
        }
        self.state.fill_track = Some(next);
        self.price_track(disk, free, next.0, next.1, align)
    }

    /// The first free (aligned) slot on one track in rotational encounter
    /// order from the head's arrival, priced exactly — all the threshold
    /// fill needs.
    fn price_track(
        &self,
        disk: &Disk,
        free: &FreeMap,
        cyl: u32,
        track: u32,
        align: u32,
    ) -> Option<Candidate> {
        if self.state.avoid == Some((cyl, track)) {
            return None;
        }
        let tp = disk.cylinder_pricer(cyl).ok()?.track(track);
        let sector = free.first_aligned_from(cyl, track, tp.arrival, align)?;
        self.metrics.inc("alloc.cost_evals");
        Some(Candidate {
            cyl,
            track,
            sector,
            cost: tp.cost(sector),
        })
    }

    /// Greedy search from the head's cylinder, pricing each cylinder with
    /// [`best_in_cylinder`]. One-way mode walks forward (wrapping) and
    /// takes the first cylinder with a candidate; two-way mode walks the
    /// [`FreeMap::ring`] and stops once the best cost is below the seek to
    /// the next distance, keeping the first of equal costs. Both pick
    /// exactly what the naive `reference::greedy` scan picks (the
    /// equivalence tests below).
    fn greedy(&self, disk: &Disk, free: &FreeMap, align: u32) -> Option<Candidate> {
        let head = disk.head_cyl();
        let avoid = self.state.avoid;
        let search = |cyl: u32| {
            if !free.cylinder_has_candidate(cyl, align) {
                return None;
            }
            best_in_cylinder(disk, free, &self.metrics, cyl, align, |t| {
                avoid == Some((cyl, t))
            })
        };
        if self.state.cfg.one_way_sweep {
            return (head..free.cylinders()).chain(0..head).find_map(search);
        }
        let mut best: Option<Candidate> = None;
        for cyl in free.ring(head) {
            let reach = disk.seek_ns(head.abs_diff(cyl));
            if best.is_some_and(|b| b.cost.total_ns() < reach) {
                break;
            }
            if let Some(c) = search(cyl) {
                if best.is_none_or(|b| c.cost.total_ns() < b.cost.total_ns()) {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Forget the current fill track (e.g. after a compaction pass changed
    /// the landscape).
    pub fn reset_fill(&mut self) {
        self.state.fill_track = None;
    }

    /// The empty track currently being filled, if the threshold policy has
    /// one in hand. The compactor avoids choosing it as a victim.
    pub fn fill_track(&self) -> Option<(u32, u32)> {
        self.state.fill_track
    }
}

/// The cheapest free `align`-slot on the tracks of `cyl` that `skip` lets
/// through — on each track the first free slot in rotational encounter
/// order, the cheapest of them, the lowest track on a cost tie. The head's
/// own track is priced first, and a slot there cheaper than a head switch
/// ends the search: every other track costs at least the switch. The other
/// tracks share one arrival phase, so their slots are compared by
/// [`disksim::TrackPricer::rank`], and only the winner is priced: at
/// most two exact pricings, each counted as `alloc.cost_evals` on
/// `metrics`. `skip` is asked only about tracks that can hold a slot, each
/// once.
///
/// Inlined so that a caller's constant `align` (the hole-plug's 4 KB
/// block) reaches the mask scan of `first_aligned_from`.
#[inline]
pub(crate) fn best_in_cylinder(
    disk: &Disk,
    free: &FreeMap,
    metrics: &Metrics,
    cyl: u32,
    align: u32,
    mut skip: impl FnMut(u32) -> bool,
) -> Option<Candidate> {
    let plan = disk.cylinder_pricer(cyl).ok()?;
    let own = plan.head_track();
    let price = |track: u32, sector: u32| {
        metrics.inc("alloc.cost_evals");
        Candidate {
            cyl,
            track,
            sector,
            cost: plan.track(track).cost(sector),
        }
    };
    let (mut on_own, mut winner) = (None, None::<(u32, u32, u32)>);
    for track in own
        .into_iter()
        .chain((0..free.tracks_in_cylinder()).filter(|&t| Some(t) != own))
    {
        if !free.track_has_candidate(cyl, track, align) || skip(track) {
            continue;
        }
        let tp = plan.track(track);
        let Some(sector) = free.first_aligned_from(cyl, track, tp.arrival, align) else {
            continue;
        };
        if Some(track) == own {
            let c = price(track, sector);
            if c.cost.total_ns() < disk.spec().mech.head_switch_ns {
                return Some(c);
            }
            on_own = Some(c);
        } else if winner.is_none_or(|(r, ..)| tp.rank(sector) < r) {
            winner = Some((tp.rank(sector), track, sector));
        }
    }
    on_own
        .into_iter()
        .chain(winner.map(|(_, track, sector)| price(track, sector)))
        .min_by_key(|c| (c.cost.total_ns(), c.track))
}

/// The pre-index exhaustive greedy search, retained as the oracle the
/// allocator is verified against: it prices every reachable free
/// slot with the exact mechanical model and never consults the summary
/// counts, lower bounds or word-level scans. The equivalence tests call
/// these directly.
#[cfg(test)]
mod reference {
    use super::Candidate;
    use crate::freemap::FreeMap;
    use disksim::Disk;

    /// Naive per-track candidate: linear free-list scan plus an exact
    /// `position_cost` for the first slot in rotational encounter order.
    pub fn best_in_track(
        disk: &Disk,
        free: &FreeMap,
        avoid: Option<(u32, u32)>,
        cyl: u32,
        track: u32,
        align: u32,
    ) -> Option<Candidate> {
        if avoid == Some((cyl, track)) {
            return None;
        }
        let arrival = disk.arrival_sector(cyl, track).ok()?;
        let sector = if align == 1 {
            free.free_sectors_from(cyl, track, arrival).next()?
        } else {
            free.free_aligned_from(cyl, track, arrival, align)?
        };
        let cost = disk.position_cost(cyl, track, sector).ok()?;
        Some(Candidate {
            cyl,
            track,
            sector,
            cost,
        })
    }

    /// Naive per-cylinder candidate: price every track, take the min.
    pub fn best_in_cylinder(
        disk: &Disk,
        free: &FreeMap,
        avoid: Option<(u32, u32)>,
        cyl: u32,
        align: u32,
    ) -> Option<Candidate> {
        let tracks = free.tracks_in_cylinder();
        (0..tracks)
            .filter_map(|t| best_in_track(disk, free, avoid, cyl, t, align))
            .min_by_key(|c| c.cost.total_ns())
    }

    /// Naive greedy search, both sweep modes, exactly as the allocator
    /// behaved before the hierarchical index and cost pruning landed.
    pub fn greedy(
        disk: &Disk,
        free: &FreeMap,
        avoid: Option<(u32, u32)>,
        align: u32,
        one_way_sweep: bool,
    ) -> Option<Candidate> {
        let cyls = free.cylinders();
        let cur = disk.head().cyl;
        if one_way_sweep {
            for w in 0..cyls {
                let c = (cur + w) % cyls;
                if let Some(cand) = best_in_cylinder(disk, free, avoid, c, align) {
                    return Some(cand);
                }
            }
            None
        } else {
            let mut best: Option<Candidate> = None;
            for d in 0..cyls {
                if let Some(b) = &best {
                    if b.cost.total_ns() < disk.spec().mech.seek_ns(d) {
                        break;
                    }
                }
                for c in [cur.checked_sub(d), (cur + d < cyls).then_some(cur + d)]
                    .into_iter()
                    .flatten()
                {
                    if let Some(cand) = best_in_cylinder(disk, free, avoid, c, align) {
                        if best.is_none()
                            || cand.cost.total_ns()
                                < best.as_ref().map(|b| b.cost.total_ns()).unwrap_or(u64::MAX)
                        {
                            best = Some(cand);
                        }
                    }
                    if d == 0 {
                        break;
                    }
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskSpec, SimClock};

    fn setup() -> (Disk, FreeMap) {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0; // internal (in-drive) operation
        let disk = Disk::new(spec, SimClock::new());
        let free = FreeMap::new(&disk.spec().geometry);
        (disk, free)
    }

    fn greedy_alloc(one_way: bool) -> EagerAllocator {
        EagerAllocator::new(AllocConfig {
            one_way_sweep: one_way,
            threshold_fill: false,
            ..AllocConfig::default()
        })
    }

    #[test]
    fn empty_disk_block_is_nearly_free_to_reach() {
        let (disk, free) = setup();
        let mut a = greedy_alloc(true);
        let c = a.find_block(&disk, &free).unwrap();
        // On an empty disk the very next aligned slot on the current track
        // should win: no seek, no switch, under one block of rotation.
        assert_eq!(c.cost.seek_ns, 0);
        assert_eq!(c.cost.head_switch_ns, 0);
        assert!(c.cost.rotation_ns <= 8 * disk.spec().mech.sector_ns(72));
    }

    #[test]
    fn chosen_block_is_globally_optimal_two_way() {
        let (disk, mut free) = setup();
        // Occupy most of the current track to force a real decision.
        free.allocate(0, 0, 0, 64).unwrap();
        let mut a = greedy_alloc(false);
        let c = a.find_block(&disk, &free).unwrap();
        // Exhaustively verify optimality over every free aligned block.
        let mut best = u64::MAX;
        for cyl in 0..36 {
            for t in 0..19 {
                for slot in 0..(72 / 8) {
                    let s = slot * 8;
                    if free.run_free(cyl, t, s, 8) {
                        let cost = disk.position_cost(cyl, t, s).unwrap().total_ns();
                        best = best.min(cost);
                    }
                }
            }
        }
        assert_eq!(c.cost.total_ns(), best);
    }

    #[test]
    fn single_sector_allocation_prefers_current_track() {
        let (disk, free) = setup();
        let mut a = greedy_alloc(true);
        let c = a.find_sector(&disk, &free).unwrap();
        let h = disk.head();
        assert_eq!((c.cyl, c.track), (h.cyl, h.track));
        assert!(c.cost.rotation_ns <= 2 * disk.spec().mech.sector_ns(72));
    }

    #[test]
    fn one_way_sweep_skips_full_cylinders_forward() {
        let (mut disk, mut free) = setup();
        disk.seek_to(5, 0).unwrap();
        // Fill cylinders 5..8 completely.
        for cyl in 5..8 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 72).unwrap();
            }
        }
        let mut a = greedy_alloc(true);
        let c = a.find_block(&disk, &free).unwrap();
        assert_eq!(c.cyl, 8, "sweep must move forward, not back to cylinder 4");
    }

    #[test]
    fn one_way_sweep_wraps_at_disk_end() {
        let (mut disk, mut free) = setup();
        disk.seek_to(35, 0).unwrap();
        for t in 0..19 {
            free.allocate(35, t, 0, 72).unwrap();
        }
        let mut a = greedy_alloc(true);
        let c = a.find_block(&disk, &free).unwrap();
        assert_eq!(c.cyl, 0);
    }

    #[test]
    fn exhausted_disk_returns_none() {
        let (disk, mut free) = setup();
        for cyl in 0..36 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 72).unwrap();
            }
        }
        let mut a = greedy_alloc(true);
        assert!(a.find_block(&disk, &free).is_none());
        assert!(a.find_sector(&disk, &free).is_none());
        // A single free sector is enough for find_sector but not find_block.
        free.release(10, 3, 17, 1).unwrap();
        assert!(a.find_sector(&disk, &free).is_some());
        assert!(a.find_block(&disk, &free).is_none());
    }

    #[test]
    fn threshold_fill_sticks_to_one_track_until_threshold() {
        let (disk, mut free) = setup();
        let mut a = EagerAllocator::new(AllocConfig::default());
        // 72 sectors/track, 9 blocks; 75% threshold -> 6 blocks and change.
        let mut tracks_used = std::collections::HashSet::new();
        for _ in 0..6 {
            let c = a.find_block(&disk, &free).unwrap();
            free.allocate(c.cyl, c.track, c.sector, 8).unwrap();
            tracks_used.insert((c.cyl, c.track));
        }
        assert_eq!(tracks_used.len(), 1, "filled more than one track early");
        // Utilization now 48/72 = 0.667 < 0.75: next block still same track.
        let c = a.find_block(&disk, &free).unwrap();
        assert!(tracks_used.contains(&(c.cyl, c.track)));
        free.allocate(c.cyl, c.track, c.sector, 8).unwrap();
        // 56/72 = 0.778 >= 0.75: the policy must switch tracks now.
        let c = a.find_block(&disk, &free).unwrap();
        assert!(!tracks_used.contains(&(c.cyl, c.track)));
    }

    #[test]
    fn threshold_fill_falls_back_to_greedy_without_empty_tracks() {
        let (disk, mut free) = setup();
        // Put one sector on every track: no empty tracks remain.
        for cyl in 0..36 {
            for t in 0..19 {
                free.allocate(cyl, t, 0, 1).unwrap();
            }
        }
        let mut a = EagerAllocator::new(AllocConfig::default());
        let c = a.find_block(&disk, &free).unwrap();
        assert!(free.run_free(c.cyl, c.track, c.sector, 8));
    }

    /// The allocator's safety net: across random fill patterns, head
    /// positions, rotation phases, disks, sweep modes, alignments and avoid
    /// tracks, the best-first indexed search must choose *exactly* the
    /// candidate the naive `reference::greedy` scan chooses — same sector,
    /// same predicted cost; it resolves ties to the reference scan's
    /// first-wins order, so equality is full, not just cost equality — and
    /// a one-way search prices at most two slots exactly. The same states
    /// also check `price_track` (all the threshold-fill path calls) against
    /// `reference::best_in_track`.
    #[test]
    fn allocator_modes_choose_identically() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for spec0 in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let mut spec = spec0;
            spec.command_overhead_ns = 0;
            let g = spec.geometry.clone();
            let (cyls, tracks) = (g.cylinders(), g.tracks_per_cylinder());
            let mut rng = StdRng::seed_from_u64(0xA11C ^ cyls as u64);
            for &util in &[0.05f64, 0.45, 0.85, 0.97] {
                for one_way in [true, false] {
                    let clock = SimClock::new();
                    let mut disk = Disk::new(spec.clone(), clock.clone());
                    let mut free = FreeMap::new(&g);
                    // Random per-sector occupancy at the target utilisation,
                    // plus (sometimes) a band of completely full cylinders so
                    // the O(1) cylinder skip actually triggers.
                    let full_band = if rng.gen_bool(0.5) {
                        let w = rng.gen_range(1..cyls.max(2));
                        let s = rng.gen_range(0..cyls);
                        Some((s, w))
                    } else {
                        None
                    };
                    for cyl in 0..cyls {
                        let in_band =
                            full_band.is_some_and(|(s, w)| (cyl + cyls - s) % cyls < w);
                        for t in 0..tracks {
                            let spt = g.sectors_per_track(cyl).unwrap();
                            for sec in 0..spt {
                                if in_band || rng.gen_bool(util) {
                                    free.allocate(cyl, t, sec, 1).unwrap();
                                }
                            }
                        }
                    }
                    let avoid = rng
                        .gen_bool(0.5)
                        .then(|| (rng.gen_range(0..cyls), rng.gen_range(0..tracks)));
                    let mut a = EagerAllocator::new(AllocConfig {
                        one_way_sweep: one_way,
                        threshold_fill: false,
                        ..AllocConfig::default()
                    });
                    a.set_avoid(avoid);
                    let m = Metrics::enabled();
                    a.set_metrics(m.clone());
                    for _ in 0..3 {
                        disk.seek_to(rng.gen_range(0..cyls), rng.gen_range(0..tracks))
                            .unwrap();
                        clock.advance(rng.gen_range(0..spec.mech.revolution_ns()));
                        // One random track, the head's own, and the avoided
                        // one (which both sides must refuse).
                        let h = disk.head();
                        let priced = [
                            Some((rng.gen_range(0..cyls), rng.gen_range(0..tracks))),
                            Some((h.cyl, h.track)),
                            avoid,
                        ];
                        for align in [8u32, 1] {
                            let evals = m.counter_value("alloc.cost_evals");
                            let fast = if align == 8 {
                                a.find_block(&disk, &free)
                            } else {
                                a.find_sector(&disk, &free)
                            };
                            let made = m.counter_value("alloc.cost_evals") - evals;
                            assert!(!one_way || made <= 2, "one-way search priced {made} slots");
                            let naive = reference::greedy(&disk, &free, avoid, align, one_way);
                            assert!(
                                fast == naive,
                                "divergence: cyls={cyls} util={util} one_way={one_way} \
                                 align={align} avoid={avoid:?} head={h:?} \
                                 fast={fast:?} reference={naive:?}"
                            );
                            for (c, t) in priced.into_iter().flatten() {
                                assert_eq!(
                                    a.price_track(&disk, &free, c, t, align),
                                    reference::best_in_track(&disk, &free, avoid, c, t, align),
                                    "price_track: cyls={cyls} util={util} align={align} \
                                     avoid={avoid:?} head={h:?} track=({c},{t})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Hand-built equal-cost ties: the allocator must resolve them to the
    /// track the reference scan visits first.
    #[test]
    fn tie_breaking_matches_reference_scan_order() {
        let picks = |disk: &Disk, free: &FreeMap, one_way: bool| {
            let mut a = greedy_alloc(one_way);
            [
                a.find_block(disk, free).unwrap(),
                reference::greedy(disk, free, None, 8, one_way).unwrap(),
            ]
        };
        let full = |free: &mut FreeMap| {
            for cyl in 0..36 {
                for t in 0..19 {
                    free.allocate(cyl, t, 0, 72).unwrap();
                }
            }
        };
        // Mirrored cylinders: the head sits on cylinder 10 with its own
        // cylinder (and everything within distance 2) full; cylinders 8 and
        // 12 each keep one identical free block. Seek, arrival sector and
        // rotation are mirror-equal, so the costs tie exactly; the
        // reference scan visits `cur - d` before `cur + d`.
        for one_way in [false, true] {
            let (mut disk, mut free) = setup();
            disk.seek_to(10, 3).unwrap();
            full(&mut free);
            free.release(8, 3, 16, 8).unwrap();
            free.release(12, 3, 16, 8).unwrap();
            let picks = picks(&disk, &free, one_way);
            assert_eq!(picks[0], picks[1]);
            if !one_way {
                assert_eq!(
                    (picks[0].cyl, picks[0].track),
                    (8, 3),
                    "two-way tie must go to the lower cylinder (visited first)"
                );
            }
        }
        // Same-cylinder track tie: one free block each on tracks 2 and 10
        // of cylinder 0, placed at the *same angle* (the HP's track skew is
        // 13 of 72 sectors, so tracks 8 apart with start sectors 32 apart
        // coincide: 40 + 13·2 ≡ 8 + 13·10 (mod 72)). From track 15 of the
        // same cylinder both cost one head switch plus equal rotation; from
        // cylinder 5 both cost the same seek plus equal rotation (the
        // one-way sweep wraps round to them) — first-wins goes to the lower
        // track index either way.
        //
        // From track 10 itself, with the phase set so its own block is
        // exactly one head switch of rotation away, track 2's block costs
        // the switch plus no wait at all: a tie in which the incumbent's
        // cost *equals* the other track's lower bound — the boundary the
        // best-first early exits must still price, not prune.
        for (head_cyl, head_track) in [(0, 15), (5, 15), (0, 10)] {
            let (mut disk, mut free) = setup();
            disk.seek_to(head_cyl, head_track).unwrap();
            full(&mut free);
            free.release(0, 2, 40, 8).unwrap();
            free.release(0, 10, 8, 8).unwrap();
            if head_track == 10 {
                let switch = disk.spec().mech.head_switch_ns;
                let rev = disk.spec().mech.revolution_ns();
                let wait = disk.position_cost(0, 10, 8).unwrap().rotation_ns;
                disk.clock().advance((wait + rev - switch) % rev);
                assert_eq!(disk.position_cost(0, 10, 8).unwrap().total_ns(), switch);
                assert_eq!(disk.position_cost(0, 2, 40).unwrap().rotation_ns, 0);
            }
            for one_way in [false, true] {
                let picks = picks(&disk, &free, one_way);
                let at = format!("head=({head_cyl},{head_track}) one_way={one_way}");
                assert_eq!(picks[0], picks[1], "{at}");
                assert_eq!((picks[0].cyl, picks[0].track), (0, 2), "{at}");
            }
        }
    }

    #[test]
    fn reset_fill_releases_track() {
        let (disk, mut free) = setup();
        let mut a = EagerAllocator::new(AllocConfig::default());
        let c = a.find_block(&disk, &free).unwrap();
        free.allocate(c.cyl, c.track, c.sector, 8).unwrap();
        a.reset_fill();
        // Still works after the reset.
        assert!(a.find_block(&disk, &free).is_some());
    }
}
