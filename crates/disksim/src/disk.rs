//! The stateful simulated disk.
//!
//! [`Disk`] combines a [`DiskSpec`] with a virtual clock, a sparse sector
//! store, the arm/head state and a track read-ahead buffer. Every timed
//! operation returns the [`ServiceTime`] it consumed and advances the shared
//! clock by exactly that amount.
//!
//! Rotational position is not stored: the platters spin continuously, so the
//! sector under the head is a pure function of the clock (plus per-track
//! skew). This makes timing exact across arbitrarily interleaved operations,
//! including the eager-writing previews the virtual log uses to choose the
//! cheapest free sector.

use std::ops::Range;
use std::sync::Arc;

use obs::{Metrics, OpKind, Spans, TraceEvent, Tracer};

use crate::cache::{CachePolicy, TrackCache};
use crate::clock::SimClock;
use crate::error::{DiskError, Result};
use crate::geometry::{Geometry, PhysAddr};
use crate::mech::{sector_at_phase, SeekTable};
use crate::service::ServiceTime;
use crate::spec::DiskSpec;
use crate::trackbuf::TrackBuf;
use crate::SECTOR_BYTES;

/// Where the head is right now: the track it is on, and the sector slot
/// currently passing beneath it (in logical sector numbering, i.e. with the
/// track's skew already removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadPosition {
    /// Cylinder the arm is parked over.
    pub cyl: u32,
    /// Selected head (track within the cylinder).
    pub track: u32,
    /// Logical sector number currently under the head on that track.
    pub(crate) sector: u32,
}

/// The repositioning plan for pricing candidate sectors on one track at one
/// instant: a [`CylinderPricer::track`]. The seek lookup and the divisions
/// behind `sector_under_head` / `sector_ns` are done once in the cylinder
/// plan; pricing a sector is then one modulo, one multiply and compares.
/// Stale as soon as the head moves or the clock advances.
#[derive(Debug, Clone, Copy)]
pub struct TrackPricer {
    /// Sectors per track on the plan's cylinder.
    spt: u32,
    /// Tabulated seek component of the reposition.
    seek_ns: u64,
    /// Head-switch component (0 when the plan's track is the head's own).
    head_switch_ns: u64,
    /// One revolution, and the time one sector takes to pass the head.
    rev_ns: u64,
    sector_ns: u64,
    /// Angular position of the head within the revolution at arrival time.
    in_rev: u64,
    /// The track's angular skew, already reduced modulo `spt`.
    skew: u32,
    /// The physical slot [`TrackPricer::rank`] counts from.
    origin: u32,
    /// First logical sector whose start passes under the head after the
    /// reposition — the seed for a rotational-encounter-order scan.
    pub arrival: u32,
}

impl TrackPricer {
    /// Exact positioning cost of `sector` on this track — identical to
    /// [`Disk::position_cost`] of the same sector, without redoing the
    /// reposition.
    #[inline]
    pub fn cost(&self, sector: u32) -> ServiceTime {
        debug_assert!(sector < self.spt, "sector off the priced track");
        let slot = (sector + self.skew) % self.spt;
        let target_start = slot as u64 * self.sector_ns;
        let rotation = if target_start >= self.in_rev {
            target_start - self.in_rev
        } else {
            self.rev_ns - self.in_rev + target_start
        };
        ServiceTime {
            overhead_ns: 0,
            seek_ns: self.seek_ns,
            head_switch_ns: if self.seek_ns >= self.head_switch_ns {
                0
            } else {
                self.head_switch_ns
            },
            rotation_ns: rotation,
            transfer_ns: 0,
        }
    }

    /// The order of `sector` by [`TrackPricer::cost`], without pricing it:
    /// of two slots on the tracks one [`CylinderPricer`] plans alike
    /// (every track but the head's own), the lower rank costs less, and
    /// equal ranks are the same angle at the same cost. A slot's rotational
    /// wait grows with its start until the wait wraps past a revolution, so
    /// the rank counts physical slots from `origin`, the first whose start
    /// is not behind the head. That is the arrival slot except in two cases,
    /// because `sector_at_phase` divides by the exact revolution while
    /// `sector_ns` is truncated: the slot behind the arrival slot can start
    /// exactly at the arrival instant (a wait of 0, so it ranks first), and
    /// the arrival slot itself can start just before it (almost a
    /// revolution, so it ranks last).
    #[inline]
    pub fn rank(&self, sector: u32) -> u32 {
        let rank = sector + self.skew + self.spt - self.origin; // below 3 · spt
        let rank = rank.checked_sub(self.spt).unwrap_or(rank);
        rank.checked_sub(self.spt).unwrap_or(rank)
    }
}

/// The repositioning plan shared by every track of one cylinder at one
/// instant, built by [`Disk::cylinder_pricer`]: one seek lookup, and the
/// angular state at the two possible arrival instants — after a head switch
/// (every track of the head's cylinder but its own, and no switch at all
/// elsewhere), and on the head's own track, which pays no switch. Stale as
/// soon as the head moves or the clock advances.
#[derive(Debug, Clone, Copy)]
pub struct CylinderPricer {
    spt: u32,
    seek_ns: u64,
    /// Paid by every track but the head's own (0 off the head's cylinder).
    head_switch_ns: u64,
    rev_ns: u64,
    sector_ns: u64,
    /// Skew of track 0 of this cylinder, and the skew each track adds.
    cyl_skew: u32,
    track_skew: u32,
    /// Arrival phase on a track reached after the seek (and switch).
    phase: Phase,
    /// On the head's cylinder: the head's own track and its arrival phase.
    own: Option<(u32, Phase)>,
}

/// Where a repositioning lands within the revolution: the head's angular
/// position, the physical slot whose boundary arrives first (already
/// advanced past the partially-gone sector), and the slot
/// [`TrackPricer::rank`] counts from, the first whose start is not behind
/// the head (slot 0 when none is).
#[derive(Debug, Clone, Copy)]
struct Phase {
    in_rev: u64,
    slot_plus1: u32,
    origin: u32,
}

impl CylinderPricer {
    /// The head's own track, when this is the head's cylinder.
    #[inline]
    pub fn head_track(&self) -> Option<u32> {
        self.own.map(|(t, _)| t)
    }

    /// The plan for one track of the cylinder: only the track's skew is new
    /// work, and the head's own track is charged no head switch.
    #[inline]
    pub fn track(&self, track: u32) -> TrackPricer {
        let (switch, phase) = match self.own {
            Some((t, own)) if t == track => (0, own),
            _ => (self.head_switch_ns, self.phase),
        };
        let skew = track
            .wrapping_mul(self.track_skew)
            .wrapping_add(self.cyl_skew)
            % self.spt;
        let arrival = phase.slot_plus1 + self.spt - skew;
        TrackPricer {
            spt: self.spt,
            seek_ns: self.seek_ns,
            head_switch_ns: switch,
            rev_ns: self.rev_ns,
            sector_ns: self.sector_ns,
            in_rev: phase.in_rev,
            skew,
            origin: phase.origin,
            arrival: arrival.checked_sub(self.spt).unwrap_or(arrival),
        }
    }
}

/// Cumulative operation counters for a disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Number of read commands serviced.
    pub reads: u64,
    /// Number of write commands serviced.
    pub writes: u64,
    /// Sectors transferred by reads (including buffer hits).
    pub sectors_read: u64,
    /// Sectors transferred by writes.
    pub sectors_written: u64,
    /// Total simulated busy time, by component.
    pub busy: ServiceTime,
}

/// A frozen disk image flattened into one contiguous allocation: every
/// materialised track's bytes packed back-to-back in `data`, located by a
/// per-slot offset table.
///
/// This is the media layer a [`DiskSnapshot`] retains and every fork reads
/// through until it writes. Packing matters as much as sharing: a cached
/// snapshot that instead kept ~200 live track-sized `Arc` buffers peppers
/// the allocator's arena with same-sized chunks, and a few dozen retained
/// snapshots degrade *every* later track-sized allocation in the process
/// (measured: ~100× on glibc). One multi-megabyte allocation per snapshot
/// leaves the arena clean.
#[derive(Debug)]
struct BaseImage {
    /// Per-slot `(start, len)` byte range into `data`; `None` means the
    /// track was never materialised (reads as zeros).
    offsets: Vec<Option<(u32, u32)>>,
    data: Vec<u8>,
}

impl BaseImage {
    fn track(&self, slot: usize) -> Option<&[u8]> {
        self.offsets[slot].map(|(off, len)| &self.data[off as usize..(off + len) as usize])
    }
}

/// Sparse per-track sector store; tracks are materialised (zero-filled) on
/// first write so full-size multi-gigabyte disks cost nothing until used.
///
/// Layout is a flat slot table indexed `cyl * tracks_per_cylinder + track`
/// (the tracks-per-cylinder count is uniform across the disk, only the
/// sectors per track vary by zone), so the per-access cost is one bounds-
/// checked index instead of a hash probe — this sits under every simulated
/// sector transfer. Unmaterialised tracks stay `None`, which preserves the
/// sparse-image semantics: a slot's buffer is allocated (zero-filled, at
/// that cylinder's zone size) only on first write.
///
/// Tracks are held behind `Arc` so a shared read ([`Disk::share_sectors`])
/// can hand a reader the tracks themselves rather than a copy. The store is
/// the only other holder, and a write to a track a reader still holds
/// copies that one track first (`Arc::make_mut`: copy-on-write at track
/// granularity, counted in `shared_copies`), so the reader's bytes never
/// change. The buffers themselves are [`TrackBuf`]s, whose allocations
/// recycle through a process-wide pool so fork-heavy runs don't churn the
/// global allocator with track-sized chunks.
///
/// A store restored from a [`DiskSnapshot`] starts with an empty overlay
/// on top of the snapshot's flattened [`BaseImage`]: reads fall through to
/// the base, and the first write to a track materialises a private copy in
/// the overlay — so restoring costs O(slots) pointer-sized writes no
/// matter how much media the captured workload produced.
#[derive(Debug)]
struct TrackStore {
    tracks: Vec<Option<Arc<TrackBuf>>>,
    base: Option<Arc<BaseImage>>,
    tracks_per_cyl: u32,
    /// Writes that found their track still held by a shared read's handle
    /// and copied it first.
    shared_copies: u64,
}

impl TrackStore {
    fn new(geometry: &Geometry) -> Self {
        let tracks_per_cyl = geometry.tracks_per_cylinder();
        let slots = geometry.cylinders() as usize * tracks_per_cyl as usize;
        Self {
            tracks: vec![None; slots],
            base: None,
            tracks_per_cyl,
            shared_copies: 0,
        }
    }

    #[inline]
    fn slot(&self, cyl: u32, track: u32) -> usize {
        cyl as usize * self.tracks_per_cyl as usize + track as usize
    }

    fn track_mut(&mut self, cyl: u32, track: u32, spt: u32) -> &mut [u8] {
        let slot = self.slot(cyl, track);
        let base = &self.base;
        let arc = self.tracks[slot].get_or_insert_with(|| {
            // First write since the fork: materialise the track in the
            // overlay, seeded from the base image if it has data there.
            Arc::new(match base.as_ref().and_then(|b| b.track(slot)) {
                Some(src) => TrackBuf::copy_of(src),
                None => TrackBuf::zeroed(spt as usize * SECTOR_BYTES),
            })
        });
        // Still held by a shared read's handle: `make_mut` copies this one
        // track before the first mutation so the handle keeps its bytes
        // (`TrackBuf::clone` draws the copy from the buffer pool).
        if Arc::strong_count(arc) > 1 {
            self.shared_copies += 1;
        }
        &mut *Arc::make_mut(arc)
    }

    /// The holder of `run`'s track — the overlay's buffer or the base
    /// image, shared instead of copied — and where the run starts in it;
    /// `None` for a track nothing ever wrote.
    fn share(&self, run: &Run) -> Option<(SharedMedia, usize)> {
        let slot = self.slot(run.cyl, run.track);
        match &self.tracks[slot] {
            Some(t) => Some((SharedMedia::Track(Arc::clone(t)), run.start())),
            None => self.base.as_ref().and_then(|b| {
                let at = b.offsets[slot]?.0 as usize + run.start();
                Some((SharedMedia::Base(Arc::clone(b)), at))
            }),
        }
    }

    /// The track's current bytes, overlay first, then the base image.
    fn track_bytes(&self, slot: usize) -> Option<&[u8]> {
        match &self.tracks[slot] {
            Some(t) => Some(&t[..]),
            None => self.base.as_ref().and_then(|b| b.track(slot)),
        }
    }

    /// Copy `run` from its track into its range of the request's `buf`;
    /// a never-written track reads as zeros.
    fn read(&self, run: &Run, buf: &mut [u8]) {
        let out = &mut buf[run.bytes()];
        match self.track_bytes(self.slot(run.cyl, run.track)) {
            Some(t) => out.copy_from_slice(&t[run.start()..run.start() + out.len()]),
            None => out.fill(0),
        }
    }

    /// Copy `run`'s range of the request's `buf` onto its track.
    fn write(&mut self, run: &Run, buf: &[u8]) {
        let src = &buf[run.bytes()];
        let t = self.track_mut(run.cyl, run.track, run.spt);
        t[run.start()..run.start() + src.len()].copy_from_slice(src);
    }
}

/// Read-only sectors returned by [`Disk::share_sectors`] without a copy:
/// one piece per track run of the request, each holding its track's
/// buffer (or the snapshot image it sits in) alive. A write to a held
/// track while the handle lives copies that one track first so the
/// handle's bytes never change, so drop the handle before writing where
/// it points.
#[derive(Debug)]
pub struct SharedSectors {
    /// The first run's piece, inline, so a one-track read allocates
    /// nothing.
    first: Piece,
    /// Every later run's piece, in request order.
    rest: Vec<Piece>,
    /// Bytes in the whole request.
    len: usize,
}

/// One track run of a [`SharedSectors`]; it ends where the next begins.
#[derive(Debug)]
struct Piece {
    /// Where the run starts in the request, in bytes.
    at: usize,
    /// The holder and where the run starts in it; `None` for a track
    /// nothing ever wrote (it reads as zeros).
    media: Option<(SharedMedia, usize)>,
}

#[derive(Debug)]
enum SharedMedia {
    Track(Arc<TrackBuf>),
    Base(Arc<BaseImage>),
}

impl SharedSectors {
    /// Each track run's byte range of the request and its bytes (`None` on
    /// a never-written track), in request order.
    fn runs(&self) -> impl Iterator<Item = (Range<usize>, Option<&[u8]>)> {
        let ends = self.rest.iter().map(|p| p.at).chain([self.len]);
        std::iter::once(&self.first)
            .chain(&self.rest)
            .zip(ends)
            .map(|(p, end)| {
                let bytes = p.media.as_ref().map(|(media, off)| {
                    let all: &[u8] = match media {
                        SharedMedia::Track(t) => t,
                        SharedMedia::Base(b) => &b.data,
                    };
                    &all[*off..*off + end - p.at]
                });
                (p.at..end, bytes)
            })
    }

    /// Bytes `range` of the read, borrowed from the one track they lie on;
    /// `None` when they cross a track boundary or lie on a never-written
    /// track.
    pub fn get(&self, range: Range<usize>) -> Option<&[u8]> {
        let (run, bytes) = self.runs().find(|(run, _)| run.contains(&range.start))?;
        let bytes = bytes.filter(|_| range.end <= run.end)?;
        Some(&bytes[range.start - run.start..range.end - run.start])
    }

    /// Copy the read's bytes from `at` on into `out`, across any track
    /// boundaries; never-written tracks read as zeros.
    pub(crate) fn copy_to(&self, at: usize, out: &mut [u8]) {
        let end = at + out.len();
        for (run, bytes) in self.runs() {
            let (lo, hi) = (run.start.max(at), run.end.min(end));
            if lo < hi {
                let dst = &mut out[lo - at..hi - at];
                match bytes {
                    Some(b) => dst.copy_from_slice(&b[lo - run.start..hi - run.start]),
                    None => dst.fill(0),
                }
            }
        }
    }
}

/// One contiguous piece of a request that fits on a single track.
#[derive(Debug, Clone, Copy)]
struct Run {
    cyl: u32,
    track: u32,
    sector: u32,
    count: u32,
    spt: u32,
    /// Where the run starts in the request, in bytes.
    at: usize,
}

impl Run {
    /// The run's bytes of the request.
    fn bytes(&self) -> Range<usize> {
        self.at..self.at + self.count as usize * SECTOR_BYTES
    }

    /// Where the run starts on its track, in bytes.
    fn start(&self) -> usize {
        self.sector as usize * SECTOR_BYTES
    }
}

/// The track runs of `count` sectors at `lba`, in request order, each
/// ending at its track's end or the request's. The whole range is checked
/// before the first run, so the walk itself cannot fail, and it never
/// touches the heap: it sits under every simulated command.
fn runs(g: &Geometry, lba: u64, count: u32) -> Result<impl Iterator<Item = Run> + '_> {
    let total = g.total_sectors();
    if lba >= total {
        return Err(DiskError::OutOfRange {
            addr: lba,
            limit: total,
        });
    }
    let end = lba + count as u64;
    if end > total {
        return Err(DiskError::TruncatedTransfer);
    }
    let (mut next, mut at) = (lba, 0);
    Ok(std::iter::from_fn(move || {
        (next < end).then(|| {
            let p = g.lba_to_phys(next).expect("a checked request lies on the media");
            let spt = g.sectors_per_track(p.cyl).expect("a mapped cylinder has tracks");
            let count = (end - next).min((spt - p.sector) as u64) as u32;
            let run = Run {
                cyl: p.cyl,
                track: p.track,
                sector: p.sector,
                count,
                spt,
                at,
            };
            next += count as u64;
            at += count as usize * SECTOR_BYTES;
            run
        })
    }))
}

/// The simulated drive.
#[derive(Debug)]
pub struct Disk {
    spec: DiskSpec,
    clock: SimClock,
    store: TrackStore,
    cur_cyl: u32,
    cur_track: u32,
    cache: TrackCache,
    stats: DiskStats,
    /// Precomputed seek curve (one entry per cylinder distance).
    seek: SeekTable,
    /// Optional event tracer; `None` costs a single branch per op.
    tracer: Option<Tracer>,
    /// Metrics handle; disabled by default (no-op after one branch).
    metrics: Metrics,
    /// Causal-span handle; disabled by default (no-op after one branch).
    spans: Spans,
    /// Cached "any observability sink attached?" flag, recomputed whenever
    /// a tracer/metrics/spans handle is (de)attached. Command dispatch
    /// checks this single predictable bool instead of probing all three
    /// handles, so fully-disabled tracing costs one branch per operation.
    obs_enabled: bool,
}

impl Disk {
    /// Create a disk from a spec, attached to the given clock, with the
    /// stock (conservative) read-ahead policy.
    pub fn new(spec: DiskSpec, clock: SimClock) -> Self {
        let seek = spec.mech.seek_table(spec.geometry.cylinders());
        let store = TrackStore::new(&spec.geometry);
        Self {
            spec,
            clock,
            store,
            cur_cyl: 0,
            cur_track: 0,
            cache: TrackCache::new(CachePolicy::Conservative),
            stats: DiskStats::default(),
            seek,
            tracer: None,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            obs_enabled: false,
        }
    }

    /// Recompute the cached observability flag after a handle change.
    fn refresh_obs(&mut self) {
        self.obs_enabled =
            self.tracer.is_some() || self.metrics.is_enabled() || self.spans.is_enabled();
    }

    /// Attach (or detach, with `None`) an event tracer. Every timed
    /// operation that accumulates into [`DiskStats::busy`] emits exactly
    /// one [`TraceEvent`] carrying the same [`ServiceTime`] breakdown, so
    /// the component sums of a complete trace equal the busy totals.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
        self.refresh_obs();
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
        self.refresh_obs();
    }

    /// Attach a causal-span handle (pass `Spans::disabled()` to detach).
    /// Every timed operation is attributed to the innermost span open on
    /// this handle at completion time; layers above share clones of the
    /// same handle so their spans are the attribution targets.
    pub fn set_spans(&mut self, spans: Spans) {
        self.spans = spans;
        self.refresh_obs();
    }

    /// The attached span handle (disabled handles are cheap to clone).
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Record one completed operation to the span table, tracer and
    /// metrics. With every sink detached this is one predictable branch.
    #[inline]
    fn observe_op(&self, kind: OpKind, lba: u64, sectors: u32, loc: (u32, u32, u32), seek_cyls: u32, st: ServiceTime) {
        if !self.obs_enabled {
            return;
        }
        // Attribute the busy time to the innermost open span first, so the
        // trace event can be stamped with the owning span's id.
        let (span, span_kind) = self.spans.attribute(st.total_ns());
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent {
                at_ns: self.clock.now(),
                kind,
                scope: 0,
                span,
                lba,
                sectors,
                cyl: loc.0,
                track: loc.1,
                sector: loc.2,
                seek_cyls,
                overhead_ns: st.overhead_ns,
                seek_ns: st.seek_ns,
                head_switch_ns: st.head_switch_ns,
                rotation_ns: st.rotation_ns,
                transfer_ns: st.transfer_ns,
            });
        }
        if self.metrics.is_enabled() {
            match kind {
                OpKind::Read => {
                    self.metrics.inc("disk.reads");
                    self.metrics.observe("disk.read_ns", st.total_ns());
                }
                OpKind::Write => {
                    self.metrics.inc("disk.writes");
                    self.metrics.observe("disk.write_ns", st.total_ns());
                }
                OpKind::Seek | OpKind::Fault => {
                    self.metrics.inc("disk.seeks");
                    self.metrics.observe("disk.seek_ns", st.total_ns());
                }
            }
            self.metrics.observe("disk.seek_cyls", seek_cyls as u64);
            if self.spans.is_enabled() {
                // Per-kind attributed time: the counters partition the
                // disk's cumulative busy time exactly (unattributed time
                // gets its own key), so their sum equals the busy-sum.
                let (ns_key, cmd_key) = match span_kind {
                    Some(k) => (k.disk_ns_counter(), k.disk_cmds_counter()),
                    None => (
                        obs::span::UNATTRIBUTED_DISK_NS,
                        obs::span::UNATTRIBUTED_DISK_CMDS,
                    ),
                };
                self.metrics.add(ns_key, st.total_ns());
                self.metrics.inc(cmd_key);
            }
        }
    }

    /// Record the batched-run shape of one command: how many same-track
    /// contiguous runs it collapsed into a single clock event (each run's
    /// length in sectors is observed as the command is planned).
    #[inline]
    fn observe_run_count(&self, n_runs: u64) {
        if self.obs_enabled && self.metrics.is_enabled() {
            self.metrics.observe("disk.runs_per_cmd", n_runs);
        }
    }

    /// Tabulated seek time for a cylinder distance of `d` (identical to
    /// `spec().mech.seek_ns(d)`, without the per-call float work).
    #[inline]
    pub fn seek_ns(&self, d: u32) -> u64 {
        self.seek.get(d)
    }

    /// The drive's specification.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Handle to the shared clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The current simulated instant — equivalent to `clock().now()` but
    /// without cloning the clock handle, for per-append hot paths.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now()
    }

    /// Advance the shared clock without cloning the handle.
    #[inline]
    pub fn advance_ns(&self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Read-ahead hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Switch the read-ahead buffer policy (drops buffered data).
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        self.cache.set_policy(policy);
    }

    /// The active read-ahead policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.policy()
    }

    /// Where the head is at the current instant.
    pub fn head(&self) -> HeadPosition {
        let spt = self
            .spec
            .geometry
            .sectors_per_track(self.cur_cyl)
            .expect("head is always on a valid cylinder");
        let slot = self.spec.mech.sector_under_head(self.clock.now(), spt);
        // Remove the track's skew to express the position in logical sectors.
        let skew = self.skew(self.cur_cyl, self.cur_track) % spt;
        let sector = (slot + spt - skew) % spt;
        HeadPosition {
            cyl: self.cur_cyl,
            track: self.cur_track,
            sector,
        }
    }

    /// The cylinder the arm is over: [`Self::head`] without working out
    /// the rotational position.
    #[inline]
    pub fn head_cyl(&self) -> u32 {
        self.cur_cyl
    }

    /// Angular skew (in sectors) applied to the given track.
    fn skew(&self, cyl: u32, track: u32) -> u32 {
        track
            .wrapping_mul(self.spec.track_skew)
            .wrapping_add(cyl.wrapping_mul(self.spec.cyl_skew))
    }

    /// The angular slot at which `sector` of (cyl, track) physically sits.
    fn angular_slot(&self, cyl: u32, track: u32, sector: u32, spt: u32) -> u32 {
        (sector + self.skew(cyl, track) % spt) % spt
    }

    /// Seek and head switch of moving the head from (`from_cyl`,
    /// `from_track`) to (`cyl`, `track`): the tabulated seek across
    /// cylinders, a head switch to another track of the same cylinder. The
    /// two overlap, and the switch is only paid where the seek is zero, so
    /// the reposition takes their sum.
    fn reposition(&self, (from_cyl, from_track): (u32, u32), cyl: u32, track: u32) -> ServiceTime {
        let switch = from_cyl == cyl && from_track != track;
        ServiceTime {
            seek_ns: self.seek.get(from_cyl.abs_diff(cyl)),
            head_switch_ns: if switch { self.spec.mech.head_switch_ns } else { 0 },
            ..ServiceTime::ZERO
        }
    }

    /// Mechanical cost of servicing `run` from the media, starting with the
    /// head over `from` (cylinder, track) at absolute time `t`.
    fn plan_run(&self, run: &Run, from: (u32, u32), t: u64) -> ServiceTime {
        let mech = &self.spec.mech;
        let mut st = self.reposition(from, run.cyl, run.track);
        let slot = self.angular_slot(run.cyl, run.track, run.sector, run.spt);
        st.rotation_ns = mech.rotational_wait_ns(t + st.total_ns(), slot, run.spt);
        st.transfer_ns = mech.transfer_ns(run.count, run.spt);
        st
    }

    /// The first logical sector whose *start* will pass under the head after
    /// repositioning from the current position (starting now) to
    /// (`cyl`, `track`). Scanning a track's free list from this sector in
    /// ascending rotational order visits candidates in order of increasing
    /// rotational delay — the seed an eager allocator wants.
    pub fn arrival_sector(&self, cyl: u32, track: u32) -> Result<u32> {
        let spt = self.spec.geometry.sectors_per_track(cyl)?;
        if track >= self.spec.geometry.tracks_per_cylinder() {
            return Err(DiskError::OutOfRange {
                addr: track as u64,
                limit: self.spec.geometry.tracks_per_cylinder() as u64,
            });
        }
        let reposition = self.reposition((self.cur_cyl, self.cur_track), cyl, track);
        let t_pos = self.clock.now() + reposition.total_ns();
        // The sector currently passing is partially gone; the next boundary
        // to arrive is slot+1.
        let slot = (self.spec.mech.sector_under_head(t_pos, spt) + 1) % spt;
        let skew = self.skew(cyl, track) % spt;
        Ok((slot + spt - skew) % spt)
    }

    /// The repositioning plan for every track of `cyl` from the current
    /// instant: the seek/switch/arrival trigonometry that
    /// [`Self::arrival_sector`] and [`Self::position_cost`] would redo per
    /// track and per sector, computed once. Specialise it per track with
    /// [`CylinderPricer::track`], scan the free map from
    /// [`TrackPricer::arrival`] and price the hit with [`TrackPricer::cost`].
    #[inline]
    pub fn cylinder_pricer(&self, cyl: u32) -> Result<CylinderPricer> {
        let spt = self.spec.geometry.sectors_per_track(cyl)?;
        let mech = &self.spec.mech;
        let seek = self.seek.get(self.cur_cyl.abs_diff(cyl));
        let (now, rev_ns) = (self.clock.now(), mech.revolution_ns());
        let sector_ns = rev_ns / spt as u64;
        // Same arrival rule as `arrival_sector`: the sector passing at
        // arrival is partially gone, so the next boundary is slot + 1.
        // `origin` is the first slot from the passing one whose start is not
        // behind the head: the next one, unless the truncation of
        // `sector_ns` puts its start behind `in_rev` (then a later one) or
        // the passing one starts exactly at `in_rev` (then that one).
        let phase = |reposition: u64| {
            let in_rev = (now + reposition) % rev_ns;
            let under = sector_at_phase(in_rev, spt, rev_ns);
            let origin = (under..spt).find(|&s| s as u64 * sector_ns >= in_rev);
            Phase {
                in_rev,
                slot_plus1: (under + 1) % spt,
                origin: origin.unwrap_or(0),
            }
        };
        let head_cyl = self.cur_cyl == cyl;
        let switch = if head_cyl { mech.head_switch_ns } else { 0 };
        Ok(CylinderPricer {
            spt,
            seek_ns: seek,
            head_switch_ns: switch,
            rev_ns,
            sector_ns,
            cyl_skew: cyl.wrapping_mul(self.spec.cyl_skew),
            track_skew: self.spec.track_skew,
            phase: phase(seek.max(switch)),
            own: head_cyl.then(|| (self.cur_track, phase(seek))),
        })
    }

    /// Pure positioning cost (seek + head switch + rotation, no overhead or
    /// transfer) of moving the head from where it is *now* to the start of
    /// `sector` on (`cyl`, `track`). This is the quantity an eager-writing
    /// allocator minimises when ranking candidate free sectors.
    pub fn position_cost(&self, cyl: u32, track: u32, sector: u32) -> Result<ServiceTime> {
        let spt = self.spec.geometry.sectors_per_track(cyl)?;
        if track >= self.spec.geometry.tracks_per_cylinder() || sector >= spt {
            return Err(DiskError::OutOfRange {
                addr: sector as u64,
                limit: spt as u64,
            });
        }
        let run = Run {
            cyl,
            track,
            sector,
            count: 0,
            spt,
            at: 0,
        };
        Ok(self.plan_run(&run, (self.cur_cyl, self.cur_track), self.clock.now()))
    }

    /// Estimate, without moving anything, the full service time of a write
    /// of `count` sectors at `lba` issued right now: exactly what
    /// [`Self::write_sectors`] would charge. The read-ahead buffer is not
    /// consulted, so a read it would serve costs less than this.
    pub fn preview_access(&self, lba: u64, count: u32) -> Result<ServiceTime> {
        let mut total = ServiceTime {
            overhead_ns: self.spec.command_overhead_ns,
            ..ServiceTime::ZERO
        };
        let mut head = (self.cur_cyl, self.cur_track);
        for run in runs(&self.spec.geometry, lba, count)? {
            total += self.plan_run(&run, head, self.clock.now() + total.total_ns());
            head = (run.cyl, run.track);
        }
        Ok(total)
    }

    /// The one timed media command behind [`Self::read_sectors`],
    /// [`Self::share_sectors`] and [`Self::write_sectors`]: `count` sectors
    /// at `lba`, handing each track run to `each` with the store as the
    /// run is serviced.
    ///
    /// The whole command is planned against an absolute-time cursor (the
    /// same arithmetic as [`Self::preview_access`]) and charged to the
    /// clock as **one** event, however many track runs it spans. A read
    /// run the read-ahead buffer holds is delivered at media rate without
    /// moving the head; every other run repositions, and a read refills the
    /// buffer while a write invalidates it. `DiskStats`, the
    /// `disk.run_len` / `disk.runs_per_cmd` observations and one trace
    /// event close the command. A command of no sectors is free and
    /// issues nothing.
    fn command(
        &mut self,
        kind: OpKind,
        lba: u64,
        count: u32,
        mut each: impl FnMut(&mut TrackStore, &Run),
    ) -> Result<ServiceTime> {
        if count == 0 {
            return Ok(ServiceTime::ZERO);
        }
        let read = kind == OpKind::Read;
        let mut total = ServiceTime {
            overhead_ns: self.spec.command_overhead_ns,
            ..ServiceTime::ZERO
        };
        // Absolute-time cursor: the clock itself stands still until the
        // whole command is planned, so rotational phases are computed
        // against `t` rather than `clock.now()`.
        let mut t = self.clock.now() + self.spec.command_overhead_ns;
        let from_cyl = self.cur_cyl;
        let mut first = None;
        let mut n_runs = 0u64;
        for run in runs(&self.spec.geometry, lba, count)? {
            first.get_or_insert((run.cyl, run.track, run.sector));
            n_runs += 1;
            if self.obs_enabled && self.metrics.is_enabled() {
                self.metrics.observe("disk.run_len", run.count as u64);
            }
            let st = if read && self.cache.lookup(run.cyl, run.track, run.sector, run.count) {
                // Buffer hit: deliver at media rate with no positioning and
                // without moving the head.
                ServiceTime {
                    transfer_ns: self.spec.mech.transfer_ns(run.count, run.spt),
                    ..ServiceTime::ZERO
                }
            } else {
                let st = self.plan_run(&run, (self.cur_cyl, self.cur_track), t);
                (self.cur_cyl, self.cur_track) = (run.cyl, run.track);
                if read {
                    self.cache
                        .on_media_read(run.cyl, run.track, run.sector, run.count, run.spt);
                } else {
                    self.cache.on_write(run.cyl, run.track);
                }
                st
            };
            t += st.total_ns();
            total += st;
            each(&mut self.store, &run);
        }
        self.clock.advance(total.total_ns());
        debug_assert_eq!(t, self.clock.now());
        self.observe_run_count(n_runs);
        let (cmds, sectors) = if read {
            (&mut self.stats.reads, &mut self.stats.sectors_read)
        } else {
            (&mut self.stats.writes, &mut self.stats.sectors_written)
        };
        *cmds += 1;
        *sectors += count as u64;
        self.stats.busy += total;
        let loc = first.expect("count > 0 yields at least one run");
        let seek_cyls = from_cyl.abs_diff(self.cur_cyl);
        self.observe_op(kind, lba, count, loc, seek_cyls, total);
        Ok(total)
    }

    /// Read `count` sectors starting at `lba` into `buf`, advancing the
    /// clock by the returned service time: one timed media command. With
    /// metrics attached, the bytes delivered into `buf` count towards
    /// `disk.read_bytes_copied` (the shared read adds nothing).
    pub fn read_sectors(&mut self, lba: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        let count = Self::sector_count(buf.len())?;
        let st = self.command(OpKind::Read, lba, count, |store, run| store.read(run, buf))?;
        if count > 0 && self.obs_enabled && self.metrics.is_enabled() {
            self.metrics.add("disk.read_bytes_copied", buf.len() as u64);
        }
        Ok(st)
    }

    /// The *shared* read: the command [`Self::read_sectors`] would issue
    /// for `count` sectors at `lba` — same plan, same [`ServiceTime`], one
    /// clock event, same statistics, read-ahead state and trace record —
    /// returning a handle on the tracks' bytes ([`SharedSectors`], one
    /// piece per track run, gathered as the command walks them) instead of
    /// a copy.
    pub fn share_sectors(&mut self, lba: u64, count: u32) -> Result<(SharedSectors, ServiceTime)> {
        let mut shared = SharedSectors {
            first: Piece { at: 0, media: None },
            rest: Vec::new(),
            len: count as usize * SECTOR_BYTES,
        };
        let st = self.command(OpKind::Read, lba, count, |store, run| {
            let piece = Piece {
                at: run.at,
                media: store.share(run),
            };
            if run.at == 0 {
                shared.first = piece;
            } else {
                shared.rest.push(piece);
            }
        })?;
        Ok((shared, st))
    }

    /// Writes that had to copy their whole track first because a
    /// [`SharedSectors`] handle still held it. Stays zero while every
    /// handle is dropped before its track is written.
    pub fn shared_track_copies(&self) -> u64 {
        self.store.shared_copies
    }

    /// Write `buf` (a whole number of sectors) starting at `lba`, advancing
    /// the clock by the returned service time: one timed media command.
    /// Writes always reach the media; there is no write-back cache.
    pub fn write_sectors(&mut self, lba: u64, buf: &[u8]) -> Result<ServiceTime> {
        let count = Self::sector_count(buf.len())?;
        self.command(OpKind::Write, lba, count, |store, run| store.write(run, buf))
    }

    /// Read sectors with no simulated cost — for tests and for integrity
    /// checks that model out-of-band verification.
    pub fn peek_sectors(&self, lba: u64, buf: &mut [u8]) -> Result<()> {
        let count = Self::sector_count(buf.len())?;
        runs(&self.spec.geometry, lba, count)?.for_each(|run| self.store.read(&run, buf));
        Ok(())
    }

    /// Write sectors with no simulated cost — for test setup (e.g. aging a
    /// disk image) without perturbing the clock.
    pub fn poke_sectors(&mut self, lba: u64, buf: &[u8]) -> Result<()> {
        let count = Self::sector_count(buf.len())?;
        runs(&self.spec.geometry, lba, count)?.for_each(|run| self.store.write(&run, buf));
        Ok(())
    }

    /// Move the head to a given track without transferring data, paying the
    /// mechanical cost. Used by firmware-level operations (e.g. parking).
    pub fn seek_to(&mut self, cyl: u32, track: u32) -> Result<ServiceTime> {
        if cyl >= self.spec.geometry.cylinders() {
            return Err(DiskError::OutOfRange {
                addr: cyl as u64,
                limit: self.spec.geometry.cylinders() as u64,
            });
        }
        let st = self.reposition((self.cur_cyl, self.cur_track), cyl, track);
        let seek_cyls = self.cur_cyl.abs_diff(cyl);
        self.clock.advance(st.total_ns());
        (self.cur_cyl, self.cur_track) = (cyl, track);
        self.stats.busy += st;
        self.observe_op(OpKind::Seek, 0, 0, (cyl, track, 0), seek_cyls, st);
        Ok(st)
    }

    /// The (cylinder, track) pairs whose data has been materialised in the
    /// sparse store, in deterministic order. Used by image serialisation.
    /// The flat slot table yields them already sorted.
    pub fn materialised_tracks(&self) -> Vec<(u32, u32)> {
        let tpc = self.store.tracks_per_cyl;
        (0..self.store.tracks.len())
            .filter(|&i| self.store.track_bytes(i).is_some())
            .map(|i| (i as u32 / tpc, i as u32 % tpc))
            .collect()
    }

    /// Translate a physical address to an LBA (convenience passthrough).
    pub fn phys_to_lba(&self, p: PhysAddr) -> Result<u64> {
        self.spec.geometry.phys_to_lba(p)
    }

    /// Freeze this disk's complete mutable state. The media image is
    /// flattened into a single contiguous allocation — an
    /// O(media bytes) copy, paid once per captured state — which every
    /// fork then shares; restoring is O(slots) regardless of media size,
    /// and a fork's first write to a track copies just that track.
    /// Observability handles (tracer/metrics/spans) are *not* captured; a
    /// restored disk starts with them disabled.
    pub fn snapshot(&self) -> DiskSnapshot {
        let slots = self.store.tracks.len();
        let total: usize = (0..slots)
            .filter_map(|i| self.store.track_bytes(i))
            .map(<[u8]>::len)
            .sum();
        let mut offsets = vec![None; slots];
        let mut data = Vec::with_capacity(total);
        for (i, slot_offsets) in offsets.iter_mut().enumerate() {
            if let Some(bytes) = self.store.track_bytes(i) {
                *slot_offsets = Some((data.len() as u32, bytes.len() as u32));
                data.extend_from_slice(bytes);
            }
        }
        DiskSnapshot {
            spec: self.spec.clone(),
            now_ns: self.clock.now(),
            local_events: self.clock.local_events(),
            base: Arc::new(BaseImage { offsets, data }),
            tracks_per_cyl: self.store.tracks_per_cyl,
            cur_cyl: self.cur_cyl,
            cur_track: self.cur_track,
            cache: self.cache.clone(),
            stats: self.stats,
            seek: self.seek.clone(),
        }
    }

    fn sector_count(bytes: usize) -> Result<u32> {
        if !bytes.is_multiple_of(SECTOR_BYTES) {
            return Err(DiskError::BadBufferLength {
                expected: (bytes / SECTOR_BYTES + 1) * SECTOR_BYTES,
                actual: bytes,
            });
        }
        Ok((bytes / SECTOR_BYTES) as u32)
    }
}

/// A frozen copy of a [`Disk`]'s complete mutable state: media image
/// (one flattened allocation every fork shares), clock instant,
/// arm/head position, read-ahead buffer and statistics.
///
/// The snapshot is `Send + Sync` plain data — it can be built once on one
/// thread and restored concurrently from many pool workers — and restoring
/// it is O(slots), independent of how much workload produced the state: a
/// fork starts with an empty copy-on-write overlay over the shared base
/// image. `restore` does not touch the process-wide event counter: a fork
/// simulated nothing to come into being. Its own clock keeps the captured
/// system's event count ([`SimClock::local_events`]).
#[derive(Debug, Clone)]
pub struct DiskSnapshot {
    spec: DiskSpec,
    now_ns: u64,
    local_events: u64,
    base: Arc<BaseImage>,
    tracks_per_cyl: u32,
    cur_cyl: u32,
    cur_track: u32,
    cache: TrackCache,
    stats: DiskStats,
    seek: SeekTable,
}

impl DiskSnapshot {
    /// Reconstruct an independent, fully-functional disk from this
    /// snapshot. The new disk has its own clock (restored to the captured
    /// instant) and disabled observability handles.
    pub fn restore(&self) -> Disk {
        Disk {
            spec: self.spec.clone(),
            clock: SimClock::restore(self.now_ns, self.local_events),
            store: TrackStore {
                tracks: vec![None; self.base.offsets.len()],
                base: Some(Arc::clone(&self.base)),
                tracks_per_cyl: self.tracks_per_cyl,
                shared_copies: 0,
            },
            cur_cyl: self.cur_cyl,
            cur_track: self.cur_track,
            cache: self.cache.clone(),
            stats: self.stats,
            seek: self.seek.clone(),
            tracer: None,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            obs_enabled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn disk() -> Disk {
        // 6000 RPM-style round numbers come from the HP spec; use the real
        // paper disk to keep parameters honest.
        Disk::new(DiskSpec::hp97560_sim(), SimClock::new())
    }

    #[test]
    fn data_round_trips() {
        let mut d = disk();
        let w = vec![0xabu8; 4 * SECTOR_BYTES];
        d.write_sectors(100, &w).unwrap();
        let mut r = vec![0u8; 4 * SECTOR_BYTES];
        d.read_sectors(100, &mut r).unwrap();
        assert_eq!(w, r);
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let mut d = disk();
        let mut r = vec![0xffu8; SECTOR_BYTES];
        d.read_sectors(0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn service_time_advances_clock_exactly() {
        let mut d = disk();
        let t0 = d.clock().now();
        let st = d.write_sectors(7, &vec![1u8; 2 * SECTOR_BYTES]).unwrap();
        assert_eq!(d.clock().now() - t0, st.total_ns());
    }

    #[test]
    fn write_includes_overhead_and_transfer() {
        let mut d = disk();
        let st = d.write_sectors(0, &vec![1u8; SECTOR_BYTES]).unwrap();
        assert_eq!(st.overhead_ns, d.spec().command_overhead_ns);
        assert_eq!(st.transfer_ns, d.spec().mech.sector_ns(72));
        // Starting position is cylinder 0/track 0, so no seek; rotation only.
        assert_eq!(st.seek_ns, 0);
        assert!(st.rotation_ns < d.spec().mech.revolution_ns());
    }

    #[test]
    fn cross_track_write_pays_head_switch_once() {
        let mut d = disk();
        // Sectors 70..74 span track 0 (72 sectors) into track 1.
        let st = d.write_sectors(70, &vec![1u8; 4 * SECTOR_BYTES]).unwrap();
        assert_eq!(st.head_switch_ns, d.spec().mech.head_switch_ns);
        assert_eq!(st.seek_ns, 0);
        // With skew, the post-switch rotational wait is far less than a rev.
        assert!(st.rotation_ns < 2 * d.spec().mech.revolution_ns());
        assert_eq!(d.head().track, 1);
    }

    #[test]
    fn skew_makes_sequential_cross_track_cheap() {
        let mut d = disk();
        // Write a full track plus a little; the second track's rotational
        // wait after the switch should be small thanks to skew.
        let buf = vec![1u8; 80 * SECTOR_BYTES];
        let st = d.write_sectors(0, &buf).unwrap();
        let rev = d.spec().mech.revolution_ns();
        // 80 sectors of transfer ≈ 1.11 revs; anything under ~2.2 revs total
        // mechanical time means we did not blow a full revolution on the
        // track switch.
        assert!(
            st.locate_ns() + st.transfer_ns < (5 * rev) / 2,
            "sequential cross-track too slow: {:?}",
            st
        );
    }

    #[test]
    fn preview_matches_actual_write() {
        let mut d = disk();
        d.write_sectors(30, &vec![1u8; SECTOR_BYTES]).unwrap();
        let preview = d.preview_access(500, 8).unwrap();
        let actual = d.write_sectors(500, &vec![2u8; 8 * SECTOR_BYTES]).unwrap();
        assert_eq!(preview, actual);
    }

    #[test]
    fn preview_does_not_disturb_state() {
        let mut d = disk();
        d.write_sectors(30, &vec![1u8; SECTOR_BYTES]).unwrap();
        let before_clock = d.clock().now();
        let before_head = d.head();
        let _ = d.preview_access(1000, 8).unwrap();
        assert_eq!(d.clock().now(), before_clock);
        assert_eq!(d.head(), before_head);
    }

    #[test]
    fn sequential_reread_hits_buffer() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 16 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        let first = d.read_sectors(0, &mut buf).unwrap();
        let second = d.read_sectors(8, &mut buf).unwrap();
        // The second read is within the read-ahead: no positioning at all.
        assert!(first.locate_ns() > 0);
        assert_eq!(second.locate_ns(), 0);
        assert_eq!(second.overhead_ns, d.spec().command_overhead_ns);
    }

    #[test]
    fn conservative_buffer_misses_backwards_read() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 32 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(16, &mut buf).unwrap();
        let back = d.read_sectors(0, &mut buf).unwrap();
        assert!(
            back.locate_ns() > 0,
            "backwards read should miss the buffer"
        );
        // Aggressive policy keeps the whole track instead.
        d.set_cache_policy(CachePolicy::AggressiveTrack);
        d.read_sectors(16, &mut buf).unwrap();
        let back = d.read_sectors(0, &mut buf).unwrap();
        assert_eq!(back.locate_ns(), 0);
    }

    #[test]
    fn write_invalidates_read_buffer() {
        let mut d = disk();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(0, &mut buf).unwrap();
        d.write_sectors(2, &vec![9u8; SECTOR_BYTES]).unwrap();
        let again = d.read_sectors(0, &mut buf).unwrap();
        assert!(again.locate_ns() > 0);
        assert_eq!(buf[2 * SECTOR_BYTES], 9);
    }

    #[test]
    fn out_of_range_requests_fail() {
        let mut d = disk();
        let total = d.spec().geometry.total_sectors();
        let mut buf = vec![0u8; SECTOR_BYTES];
        assert!(d.read_sectors(total, &mut buf).is_err());
        assert!(d
            .write_sectors(total - 1, &vec![0u8; 2 * SECTOR_BYTES])
            .is_err());
        assert!(d.read_sectors(0, &mut [0u8; 100]).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        d.write_sectors(0, &vec![1u8; 8 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(0, &mut buf).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors_read, 8);
        assert_eq!(s.sectors_written, 8);
        assert!(s.busy.total_ns() > 0);
    }

    #[test]
    fn peek_poke_are_free_and_visible() {
        let mut d = disk();
        let t0 = d.clock().now();
        d.poke_sectors(40, &vec![7u8; SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; SECTOR_BYTES];
        d.peek_sectors(40, &mut buf).unwrap();
        assert_eq!(d.clock().now(), t0);
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn seek_to_moves_head_and_charges_time() {
        let mut d = disk();
        let st = d.seek_to(10, 3).unwrap();
        assert_eq!(st.seek_ns, d.spec().mech.seek_ns(10));
        assert_eq!(d.head().cyl, 10);
        assert_eq!(d.head().track, 3);
        assert!(d.seek_to(99, 0).is_err());
    }

    #[test]
    fn arrival_sector_minimises_rotation() {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        let mut d = Disk::new(spec, SimClock::new());
        d.write_sectors(100, &vec![1u8; SECTOR_BYTES]).unwrap();
        // On the head's own track, the arrival sector must be the cheapest
        // rotational target of all 72 sectors.
        let h = d.head();
        let a = d.arrival_sector(h.cyl, h.track).unwrap();
        let cost_a = d.position_cost(h.cyl, h.track, a).unwrap().rotation_ns;
        for s in 0..72 {
            let c = d.position_cost(h.cyl, h.track, s).unwrap().rotation_ns;
            assert!(cost_a <= c, "sector {s} beats arrival {a}: {c} < {cost_a}");
        }
        // Also holds across a head switch within the cylinder.
        let a2 = d.arrival_sector(h.cyl, (h.track + 1) % 19).unwrap();
        let cost_a2 = d
            .position_cost(h.cyl, (h.track + 1) % 19, a2)
            .unwrap()
            .rotation_ns;
        for s in 0..72 {
            let c = d
                .position_cost(h.cyl, (h.track + 1) % 19, s)
                .unwrap()
                .rotation_ns;
            assert!(cost_a2 <= c);
        }
        assert!(d.arrival_sector(0, 99).is_err());
    }

    #[test]
    fn position_cost_agrees_with_preview() {
        // position_cost assumes the mechanism starts moving now; that matches
        // preview_access exactly when the command overhead is zero (as it is
        // on the VLD's internal disk, the main consumer of this API).
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        let mut d = Disk::new(spec, SimClock::new());
        d.write_sectors(123, &vec![1u8; SECTOR_BYTES]).unwrap();
        let lba = 600u64;
        let p = d.spec().geometry.lba_to_phys(lba).unwrap();
        let pos = d.position_cost(p.cyl, p.track, p.sector).unwrap();
        let full = d.preview_access(lba, 8).unwrap();
        assert_eq!(pos.locate_ns(), full.locate_ns());
        assert!(d.position_cost(0, 99, 0).is_err());
        assert!(d.position_cost(0, 0, 99).is_err());
    }

    /// The cylinder plan prices every track as the per-query oracles do: on
    /// both drives, from random head positions and rotational phases, each
    /// track of the head's cylinder (its own track, which pays no head
    /// switch, included) and of a far cylinder arrives at `arrival_sector`
    /// and costs `position_cost` at every sector.
    #[test]
    fn cylinder_pricer_matches_the_oracles() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let g = spec.geometry.clone();
            let (cyls, tracks) = (g.cylinders(), g.tracks_per_cylinder());
            let mut d = Disk::new(spec.clone(), SimClock::new());
            let mut rng = StdRng::seed_from_u64(0x9B1C ^ cyls as u64);
            for _ in 0..16 {
                d.seek_to(rng.gen_range(0..cyls), rng.gen_range(0..tracks))
                    .unwrap();
                d.advance_ns(rng.gen_range(0..spec.mech.revolution_ns()));
                let head = d.head();
                for cyl in [head.cyl, (head.cyl + cyls / 2) % cyls] {
                    let plan = d.cylinder_pricer(cyl).unwrap();
                    let own = (cyl == head.cyl).then_some(head.track);
                    assert_eq!(plan.head_track(), own);
                    for t in 0..tracks {
                        let tp = plan.track(t);
                        let at = format!("cyls={cyls} head={head:?} track=({cyl},{t})");
                        assert_eq!(tp.arrival, d.arrival_sector(cyl, t).unwrap(), "{at}");
                        for s in 0..g.sectors_per_track(cyl).unwrap() {
                            let oracle = d.position_cost(cyl, t, s).unwrap();
                            assert_eq!(tp.cost(s), oracle, "{at} sector={s}");
                        }
                    }
                }
            }
        }
    }

    /// `rank` orders every slot of every track but the head's own exactly
    /// as `cost` does, and equal ranks cost the same: on both drives, for
    /// the head's cylinder and a far one, from random instants and from
    /// instants forced onto the two boundaries (the slot behind the arrival
    /// slot starts exactly at the arrival instant; the arrival slot starts
    /// just before it).
    #[test]
    fn cylinder_rank_orders_like_cost() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let g = spec.geometry.clone();
            let (cyls, tracks) = (g.cylinders(), g.tracks_per_cylinder());
            let (rev, spt) = (spec.mech.revolution_ns(), g.sectors_per_track(0).unwrap());
            let sector_ns = spec.mech.sector_ns(spt);
            let mut d = Disk::new(spec.clone(), SimClock::new());
            let mut rng = StdRng::seed_from_u64(0x4A4B ^ cyls as u64);
            // Arrival phases: anywhere, exactly on slot 0's start (the slot
            // behind the arrival slot is free to reach), and one nanosecond
            // past the last slot's start (the arrival slot is just gone).
            let boundary = [None, Some(0), Some((spt as u64 - 1) * sector_ns + 1)];
            for round in 0..24 {
                d.seek_to(rng.gen_range(0..cyls), rng.gen_range(0..tracks))
                    .unwrap();
                d.advance_ns(rng.gen_range(0..rev));
                let head = d.head();
                for cyl in [head.cyl, (head.cyl + cyls / 2) % cyls] {
                    let other = (head.track + 1) % tracks;
                    if let Some(in_rev) = boundary[round % 3] {
                        let st = d.position_cost(cyl, other, 0).unwrap();
                        let arrive = d.now_ns() + st.seek_ns + st.head_switch_ns;
                        d.advance_ns((in_rev + rev - arrive % rev) % rev);
                    }
                    let plan = d.cylinder_pricer(cyl).unwrap();
                    let tp = plan.track(other);
                    let behind = (tp.arrival + spt - 1) % spt;
                    match boundary[round % 3] {
                        Some(0) => assert_eq!(tp.cost(behind).rotation_ns, 0),
                        Some(_) => assert!(tp.cost(tp.arrival).rotation_ns > rev - sector_ns),
                        None => {}
                    }
                    let mut ranked: Vec<(u32, u64)> = (0..tracks)
                        .filter(|&t| cyl != head.cyl || t != head.track)
                        .flat_map(|t| (0..spt).map(move |s| (t, s)))
                        .map(|(t, s)| (plan.track(t).rank(s), plan.track(t).cost(s).total_ns()))
                        .collect();
                    ranked.sort_unstable();
                    for w in ranked.windows(2) {
                        let ((ra, ca), (rb, cb)) = (w[0], w[1]);
                        let at = format!("cyls={cyls} round={round} head={head:?} cyl={cyl}");
                        assert_eq!(ra == rb, ca == cb, "{at}: {w:?}");
                        assert!(ca <= cb, "{at}: {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn head_position_tracks_rotation() {
        let d = disk();
        let h0 = d.head();
        // Advance 3.5 sector times: truncation in sector_ns cannot push the
        // head position across a boundary either way.
        d.clock().advance(d.spec().mech.sector_ns(72) * 7 / 2);
        let h1 = d.head();
        assert_eq!((h0.sector + 3) % 72, h1.sector);
    }

    /// A restored snapshot carries on exactly as the original would — same
    /// read-ahead buffer, head, clock and media — and the two then diverge
    /// without seeing each other's writes.
    #[test]
    fn restored_snapshot_continues_like_the_original() {
        let mut d = disk();
        d.write_sectors(0, &vec![7u8; 8 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 2 * SECTOR_BYTES];
        d.read_sectors(0, &mut buf).unwrap(); // leaves the track buffered
        let mut f = d.snapshot().restore();
        let (mut a, mut b) = (buf.clone(), buf);
        let hit = d.read_sectors(2, &mut a).unwrap();
        assert_eq!(hit.locate_ns(), 0, "sequential re-read is a buffer hit");
        assert_eq!(f.read_sectors(2, &mut b).unwrap(), hit);
        assert_eq!((a, d.now_ns(), d.head()), (b, f.now_ns(), f.head()));

        f.write_sectors(4, &vec![9u8; SECTOR_BYTES]).unwrap();
        let mut back = vec![0u8; 8 * SECTOR_BYTES];
        d.peek_sectors(0, &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 7), "the original saw a fork's write");
        f.peek_sectors(0, &mut back).unwrap();
        assert_eq!(back[3 * SECTOR_BYTES], 7, "first write after a fork keeps the track");
        assert_eq!(back[4 * SECTOR_BYTES], 9);
    }

    /// The pre-batching *stepwise* discipline, kept as the oracle of the
    /// batched command: the clock is advanced once for the command
    /// overhead and once per track run, and every run is planned against
    /// the live `clock.now()` rather than a cursor. Same media, head,
    /// read-ahead and statistics updates; no observability.
    impl Disk {
        fn read_sectors_stepwise(&mut self, lba: u64, buf: &mut [u8]) -> Result<ServiceTime> {
            let count = Self::sector_count(buf.len())?;
            let mut total = ServiceTime {
                overhead_ns: self.spec.command_overhead_ns,
                ..ServiceTime::ZERO
            };
            let runs = runs(&self.spec.geometry, lba, count)?;
            self.clock.advance(self.spec.command_overhead_ns);
            for run in runs {
                let st = if self.cache.lookup(run.cyl, run.track, run.sector, run.count) {
                    ServiceTime {
                        transfer_ns: self.spec.mech.transfer_ns(run.count, run.spt),
                        ..ServiceTime::ZERO
                    }
                } else {
                    let head = (self.cur_cyl, self.cur_track);
                    let st = self.plan_run(&run, head, self.clock.now());
                    (self.cur_cyl, self.cur_track) = (run.cyl, run.track);
                    self.cache
                        .on_media_read(run.cyl, run.track, run.sector, run.count, run.spt);
                    st
                };
                self.clock.advance(st.total_ns());
                total += st;
                self.store.read(&run, buf);
            }
            self.stats.reads += 1;
            self.stats.sectors_read += count as u64;
            self.stats.busy += total;
            Ok(total)
        }

        fn write_sectors_stepwise(&mut self, lba: u64, buf: &[u8]) -> Result<ServiceTime> {
            let count = Self::sector_count(buf.len())?;
            let mut total = ServiceTime {
                overhead_ns: self.spec.command_overhead_ns,
                ..ServiceTime::ZERO
            };
            let runs = runs(&self.spec.geometry, lba, count)?;
            self.clock.advance(self.spec.command_overhead_ns);
            for run in runs {
                let head = (self.cur_cyl, self.cur_track);
                let st = self.plan_run(&run, head, self.clock.now());
                self.clock.advance(st.total_ns());
                total += st;
                (self.cur_cyl, self.cur_track) = (run.cyl, run.track);
                self.cache.on_write(run.cyl, run.track);
                self.store.write(&run, buf);
            }
            self.stats.writes += 1;
            self.stats.sectors_written += count as u64;
            self.stats.busy += total;
            Ok(total)
        }
    }

    /// The shared read's runs reassemble to the copying read: `copy_to`
    /// gives `read_sectors`' buffer, a run's bytes are `None` exactly on
    /// tracks nothing ever wrote and `get` borrows every other run whole,
    /// and time, clock, head, statistics, read-ahead hits and the trace
    /// record are the same — on live tracks, on a snapshot-restored disk
    /// whose tracks sit in the shared base image, and on a disk nothing
    /// was written to.
    #[test]
    fn shared_runs_reassemble_to_the_copying_read() {
        let written = || {
            let mut d = disk();
            d.write_sectors(60, &vec![0xA7u8; 20 * SECTOR_BYTES])
                .unwrap(); // tracks 0, 1
            d.write_sectors(300, &vec![0x3Cu8; SECTOR_BYTES]).unwrap(); // track 4
            d
        };
        // Within a track, across written tracks and blank ones, a
        // read-ahead hit, nothing at all, and one whole blank track; with
        // the blank runs each reads on a written and on an unwritten disk.
        let reads = [(64u64, 4u32), (50, 300), (52, 8), (0, 0), (720, 72)];
        for (mut copy, mut share, blank_runs) in [
            (written(), written(), [0, 2, 0, 0, 1]),
            (
                written().snapshot().restore(),
                written().snapshot().restore(),
                [0, 2, 0, 0, 1],
            ),
            (disk(), disk(), [1, 5, 1, 0, 1]),
        ] {
            let (tc, ts) = (Tracer::with_capacity(64), Tracer::with_capacity(64));
            copy.set_tracer(Some(tc.clone()));
            share.set_tracer(Some(ts.clone()));
            for ((lba, count), blank_want) in reads.into_iter().zip(blank_runs) {
                let mut want = vec![0xEEu8; count as usize * SECTOR_BYTES];
                let mut got = want.clone();
                let st_copy = copy.read_sectors(lba, &mut want).unwrap();
                let (shared, st_share) = share.share_sectors(lba, count).unwrap();
                shared.copy_to(0, &mut got);
                let mut blank = 0;
                // A read of nothing still has its (empty) first piece.
                for (run, bytes) in shared.runs().filter(|(run, _)| !run.is_empty()) {
                    assert_eq!(shared.get(run.clone()), bytes, "({lba}, {count}) {run:?}");
                    blank += usize::from(bytes.is_none());
                }
                assert_eq!(got, want, "({lba}, {count})");
                assert_eq!(st_share, st_copy, "({lba}, {count})");
                assert_eq!(blank, blank_want, "({lba}, {count})");
                assert_eq!((share.now_ns(), share.head()), (copy.now_ns(), copy.head()));
                assert_eq!(share.cache_stats(), copy.cache_stats());
                assert_eq!(format!("{:?}", share.stats()), format!("{:?}", copy.stats()));
            }
            assert_eq!(ts.events(), tc.events());
            assert_eq!(share.clock().local_events(), copy.clock().local_events());
            assert!(share.share_sectors(u64::MAX, 1).is_err());
        }
    }

    /// `seek_to` and the pricing oracle share one repositioning rule:
    /// moving the head to its own track, another track of its cylinder or
    /// a far cylinder charges exactly the seek and head switch
    /// `position_cost` prices for the same target, and no rotation,
    /// transfer or overhead — on both drives.
    #[test]
    fn seek_to_charges_the_reposition_position_cost_prices() {
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let (cyls, tracks) = (spec.geometry.cylinders(), spec.geometry.tracks_per_cylinder());
            let mut d = Disk::new(spec, SimClock::new());
            d.seek_to(cyls / 3, 1).unwrap();
            let mut charged = 0;
            for (cyl, track, what) in [
                (cyls / 3, 1, "own track"),
                (cyls / 3, tracks - 1, "same cylinder"),
                (cyls - 1, 0, "far cylinder"),
            ] {
                let priced = d.position_cost(cyl, track, 0).unwrap();
                let st = d.seek_to(cyl, track).unwrap();
                let at = format!("{} {what}", d.spec().name);
                assert_eq!(
                    (st.seek_ns, st.head_switch_ns),
                    (priced.seek_ns, priced.head_switch_ns),
                    "{at}"
                );
                assert_eq!((st.overhead_ns, st.rotation_ns, st.transfer_ns), (0, 0, 0), "{at}");
                match what {
                    "own track" => assert_eq!(st.total_ns(), 0, "{at}"),
                    "same cylinder" => assert_eq!(st.seek_ns, 0, "{at}"),
                    _ => assert_eq!(st.head_switch_ns, 0, "{at}"),
                }
                assert_eq!((d.head().cyl, d.head().track), (cyl, track), "{at}");
                charged += st.total_ns();
            }
            assert!(charged > 0);
            assert_eq!(d.stats().busy.total_ns(), charged + d.seek_ns(cyls / 3));
        }
    }

    /// The shared read is the copying read minus the copy, on both drives
    /// and from every start alignment within a track: the handle's runs
    /// reassemble to `read_sectors`' buffer (`None` exactly on tracks
    /// nothing ever wrote), `get` borrows exactly the windows inside one
    /// written track, and time, clock, head, statistics, read-ahead hits
    /// and the trace record are the same — across overlay tracks, a
    /// restored fork's base-image tracks and blank tracks in one request.
    #[test]
    fn shared_read_matches_the_copying_read() {
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let spt = spec.geometry.sectors_per_track(0).unwrap() as u64;
            let track_bytes = spt as usize * SECTOR_BYTES;
            // Tracks 0 and 2 blank, 1 whole and 3 in part.
            let written = || {
                let mut d = Disk::new(spec.clone(), SimClock::new());
                let track: Vec<u8> = (0..track_bytes).map(|i| (i / 7) as u8).collect();
                d.write_sectors(spt, &track).unwrap();
                d.write_sectors(3 * spt + 2, &[0x3Cu8; 4 * SECTOR_BYTES])
                    .unwrap();
                d
            };
            // The fork's tracks 1 and 3 stay in its base image; a write
            // after the fork puts track 2 in its overlay.
            let fork = || {
                let mut d = written().snapshot().restore();
                d.write_sectors(2 * spt + 9, &[0x81u8; SECTOR_BYTES])
                    .unwrap();
                d
            };
            for (mut copy, mut share, forked) in
                [(written(), written(), false), (fork(), fork(), true)]
            {
                let blank = |track: u64| !(track == 1 || track == 3 || (forked && track == 2));
                let (tc, ts) = (Tracer::with_capacity(1024), Tracer::with_capacity(1024));
                copy.set_tracer(Some(tc.clone()));
                share.set_tracer(Some(ts.clone()));
                // Tracks 0 to 3 from every start sector of track 0, each
                // read followed by a sequential read-ahead hit.
                let reads = (0..spt).flat_map(|s| [(s, 3 * spt as u32 + 1), (s + 3 * spt + 1, 2)]);
                for (lba, count) in reads {
                    let mut want = vec![0xEEu8; count as usize * SECTOR_BYTES];
                    let st_copy = copy.read_sectors(lba, &mut want).unwrap();
                    let (shared, st_share) = share.share_sectors(lba, count).unwrap();
                    assert_eq!(shared.len, want.len());
                    let mut got = vec![0xEEu8; want.len()];
                    shared.copy_to(0, &mut got);
                    assert_eq!(got, want, "({lba}, {count})");
                    let track_of = |byte: usize| (lba + (byte / SECTOR_BYTES) as u64) / spt;
                    for (run, bytes) in shared.runs() {
                        let track = track_of(run.start);
                        assert_eq!(track, track_of(run.end - 1), "one run, one track");
                        assert_eq!(
                            bytes.is_none(),
                            blank(track),
                            "({lba}, {count}) track {track}"
                        );
                    }
                    for start in (0..want.len()).step_by(8 * SECTOR_BYTES) {
                        let end = (start + 4096).min(want.len());
                        let (a, b) = (track_of(start), track_of(end - 1));
                        let one_written = a == b && !blank(a);
                        let window = shared.get(start..end);
                        assert_eq!(window.is_some(), one_written, "({lba}, {count}) at {start}");
                        assert!(window.is_none_or(|w| w == &want[start..end]));
                    }
                    assert_eq!(st_share, st_copy, "({lba}, {count})");
                    assert_eq!((share.now_ns(), share.head()), (copy.now_ns(), copy.head()));
                    assert_eq!(share.cache_stats(), copy.cache_stats());
                    assert_eq!(
                        format!("{:?}", share.stats()),
                        format!("{:?}", copy.stats())
                    );
                }
                assert_eq!(ts.events(), tc.events());
                assert_eq!(share.clock().local_events(), copy.clock().local_events());

                let (now, stats) = (share.now_ns(), format!("{:?}", share.stats()));
                let total = spec.geometry.total_sectors();
                assert!(share.share_sectors(total - 1, 2).is_err());
                assert!(share.share_sectors(u64::MAX, 1).is_err());
                assert!(share.share_sectors(spt, 0).unwrap().0.len == 0);
                assert_eq!(
                    (share.now_ns(), format!("{:?}", share.stats())),
                    (now, stats)
                );
                assert_eq!(share.shared_track_copies(), 0);
            }
        }
    }

    /// A write to a track a shared read's handle still holds lands in the
    /// store while the handle keeps the bytes it was given, and copies only
    /// the track it writes; a fork's base image is never written, so only
    /// live overlay tracks need the copy, and once the handle is gone
    /// writes copy nothing.
    #[test]
    fn a_write_under_a_live_handle_copies_only_the_track_it_writes() {
        for fork in [false, true] {
            let mut d = disk();
            d.write_sectors(0, &[7u8; 3 * 72 * SECTOR_BYTES]).unwrap();
            if fork {
                d = d.snapshot().restore();
            }
            // Tracks 0, 1 and 2, held by one handle.
            let (shared, _) = d.share_sectors(8, 2 * 72 + 8).unwrap();
            d.write_sectors(72 + 10, &[9u8; SECTOR_BYTES]).unwrap();
            let mut now = vec![0u8; SECTOR_BYTES];
            d.peek_sectors(72 + 10, &mut now).unwrap();
            assert_eq!(now[0], 9, "the write reached the media");
            assert_eq!(d.shared_track_copies(), u64::from(!fork));
            d.write_sectors(20, &[9u8; SECTOR_BYTES]).unwrap();
            assert_eq!(d.shared_track_copies(), 2 * u64::from(!fork));
            let mut held = vec![0u8; shared.len];
            shared.copy_to(0, &mut held);
            assert!(held.iter().all(|&b| b == 7), "fork {fork}");
            drop(shared);
            d.write_sectors(2 * 72 + 3, &[9u8; SECTOR_BYTES]).unwrap();
            assert_eq!(d.shared_track_copies(), 2 * u64::from(!fork));
        }
    }

    /// `disk.read_bytes_copied` counts what the copying read delivers into
    /// the caller's buffer, blank tracks included; shared reads of the
    /// same sectors add nothing.
    #[test]
    fn only_the_copying_read_counts_copied_bytes() {
        let mut d = disk();
        let m = Metrics::enabled();
        d.set_metrics(m.clone());
        d.write_sectors(0, &[1u8; 8 * SECTOR_BYTES]).unwrap();
        let mut buf = vec![0u8; 8 * SECTOR_BYTES];
        d.read_sectors(0, &mut buf).unwrap();
        d.read_sectors(72 * 5, &mut buf).unwrap(); // never written
        d.read_sectors(0, &mut []).unwrap();
        assert_eq!(
            m.counter_value("disk.read_bytes_copied"),
            16 * SECTOR_BYTES as u64
        );
        d.share_sectors(0, 8).unwrap();
        d.share_sectors(72 * 5, 8).unwrap();
        assert_eq!(
            m.counter_value("disk.read_bytes_copied"),
            16 * SECTOR_BYTES as u64
        );
        assert_eq!(m.counter_value("disk.reads"), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The batched single-event command path is arithmetically identical
        /// to the stepwise per-run oracle: same service times, same clock,
        /// same head position, same data, same busy total — only the event
        /// count differs.
        #[test]
        fn batched_commands_match_stepwise_reference(
            spec in prop_oneof![Just(DiskSpec::hp97560_sim()), Just(DiskSpec::st19101_sim())],
            ops in proptest::collection::vec((any::<bool>(), 0u64..40_000, 1u32..80), 1..40),
        ) {
            let total = spec.geometry.total_sectors();
            let mut fast = Disk::new(spec.clone(), SimClock::new());
            let mut slow = Disk::new(spec, SimClock::new());
            for (i, (write, lba, count)) in ops.into_iter().enumerate() {
                let lba = lba % total;
                let count = count.min((total - lba) as u32);
                let bytes = count as usize * SECTOR_BYTES;
                let (st_fast, st_slow) = if write {
                    let data = vec![i as u8; bytes];
                    (
                        fast.write_sectors(lba, &data).expect("in range"),
                        slow.write_sectors_stepwise(lba, &data).expect("in range"),
                    )
                } else {
                    let mut a = vec![0u8; bytes];
                    let mut b = vec![0u8; bytes];
                    let r = (
                        fast.read_sectors(lba, &mut a).expect("in range"),
                        slow.read_sectors_stepwise(lba, &mut b).expect("in range"),
                    );
                    prop_assert_eq!(a, b);
                    r
                };
                prop_assert_eq!(st_fast, st_slow);
                prop_assert_eq!(fast.clock().now(), slow.clock().now());
                prop_assert_eq!(fast.head(), slow.head());
                prop_assert_eq!(fast.stats().busy, slow.stats().busy);
            }
        }
    }
}
