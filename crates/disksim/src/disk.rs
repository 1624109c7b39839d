//! The stateful simulated disk.
//!
//! [`Disk`] combines a [`DiskSpec`] with a virtual clock, a sparse page
//! store, the arm/head state and a track read-ahead buffer. Every timed
//! operation returns the [`ServiceTime`] it consumed and advances the shared
//! clock by exactly that amount.
//!
//! Rotational position is not stored: the platters spin continuously, so the
//! sector under the head is a pure function of the clock (plus per-track
//! skew). This makes timing exact across arbitrarily interleaved operations,
//! including the eager-writing previews the virtual log uses to choose the
//! cheapest free sector.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
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

/// Sectors in one media page, the unit the store holds, shares and copies.
const PAGE_SECTORS: u32 = 8;

/// Bytes in one media page.
const PAGE_BYTES: usize = PAGE_SECTORS as usize * SECTOR_BYTES;

/// One page of media.
type Page = [u8; PAGE_BYTES];

/// Most pages a thread's pool keeps (16 MiB).
const POOL_CAP: usize = 4096;

/// Pages a thread allocates at once when its pool is empty.
const PAGE_BATCH: usize = 64;

/// Pages no table holds any more, kept for reuse by the thread that let
/// them go. A fresh page from the allocator is memory the process has not
/// touched yet, or gave back to the kernel when the pages before it were
/// freed, so its first write takes a page fault, which costs more than the
/// write. Forks take and drop thousands of pages, and the pool turns those
/// faults into reuse.
///
/// The pool is one list, taken from the top (its end). The pages kept
/// writes replaced lie on top ([`park`]), so they are reused while still
/// warm. Below them lie a dropped table's pages in address order, lowest
/// nearest the top, so the pages a table takes lie close together rather
/// than wherever the last dropped table left them (the quick suite runs
/// about 8 % faster than with a plain stack). What a parked page holds is
/// never read: a page taken from the pool is wholly written before any
/// read.
///
/// Each thread owns its pool, so no page is reachable from two threads:
/// [`crate::par::pmap_in`] cuts the caller's pool into one share per
/// worker ([`PagePool::split_local`]) and parks what the workers hold when
/// they finish back on the caller ([`PagePool::rejoin_local`]).
#[derive(Default)]
pub(crate) struct PagePool {
    /// The parked pages, taken from the end.
    pages: Vec<Arc<Page>>,
    /// How many pages at the end of `pages` kept writes replaced.
    warm: usize,
}

thread_local! {
    /// This thread's page pool.
    static POOL: RefCell<PagePool> = const {
        RefCell::new(PagePool { pages: Vec::new(), warm: 0 })
    };
}

impl PagePool {
    /// Pages the pool may still take. The list is reserved to its cap the
    /// first time, so parking never grows it: a list that grows as it
    /// fills reallocates, and the logical disk's allocation gate counts
    /// that.
    fn room(&mut self) -> usize {
        if self.pages.capacity() < POOL_CAP {
            self.pages.reserve_exact(POOL_CAP - self.pages.len());
        }
        POOL_CAP - self.pages.len()
    }

    /// The top page, if any.
    fn take(&mut self) -> Option<Arc<Page>> {
        let page = self.pages.pop()?;
        self.warm = self.warm.saturating_sub(1);
        Some(page)
    }

    /// Park a page a kept write replaced on top, if there is room.
    fn park_warm(&mut self, page: Arc<Page>) {
        if self.room() > 0 {
            self.pages.push(page);
            self.warm += 1;
        }
    }

    /// Park `pages` below the warm ones, as many as there is room for,
    /// and put everything below the warm pages in address order, lowest
    /// nearest the top.
    fn park_cold(&mut self, pages: impl IntoIterator<Item = Arc<Page>>) {
        let (room, len) = (self.room(), self.pages.len());
        self.pages.extend(pages.into_iter().take(room));
        if self.pages.len() == len {
            return;
        }
        self.pages[len - self.warm..].rotate_left(self.warm);
        let cold = self.pages.len() - self.warm;
        self.pages[..cold].sort_unstable_by_key(|page| Reverse(Arc::as_ptr(page)));
    }

    /// This thread's pool cut into `n` pools, top first, each reserved to
    /// the cap; this thread's pool is left empty.
    pub(crate) fn split_local(n: usize) -> Vec<PagePool> {
        POOL.with_borrow_mut(|pool| {
            let share = pool.pages.len().div_ceil(n);
            (0..n)
                .map(|_| {
                    let at = pool.pages.len().saturating_sub(share);
                    let mut pages = Vec::with_capacity(POOL_CAP);
                    pages.extend(pool.pages.drain(at..));
                    let warm = pool.warm.min(pages.len());
                    pool.warm -= warm;
                    PagePool { pages, warm }
                })
                .collect()
        })
    }

    /// Park what `pools` hold on this thread's pool: their warm pages on
    /// top, the rest in address order below.
    pub(crate) fn rejoin_local(pools: Vec<PagePool>) {
        POOL.with_borrow_mut(|pool| {
            for mut other in pools {
                let warm = other.pages.split_off(other.pages.len() - other.warm);
                pool.park_cold(other.pages);
                warm.into_iter().for_each(|page| pool.park_warm(page));
            }
        });
    }

    /// Run `f` with `self` as this thread's pool, and return what `f`
    /// returns and the pool as `f` left it.
    pub(crate) fn lend<T>(self, f: impl FnOnce() -> T) -> (T, PagePool) {
        let before = POOL.replace(self);
        let out = f();
        (out, POOL.replace(before))
    }
}

/// Park `page`, which a kept write replaced, on top of this thread's pool
/// if no one else holds it, so the next fresh page or [`pooled_copy`]
/// reuses it while it is still warm instead of freeing it. A compactor
/// pass hands hundreds of moved blocks' destinations their victims' pages;
/// the pages it replaces there are what the writes that later refill the
/// victims take, and freeing them meant allocating as many again (1.3
/// allocations per op on `burst_idle_vld` through a copying layer).
fn park(mut page: Arc<Page>) {
    if Arc::get_mut(&mut page).is_some() {
        POOL.with_borrow_mut(|pool| pool.park_warm(page));
    }
}

/// A block holding a copy of `bytes` that no one else holds. A 4 KiB one
/// lies on a page of the drive's page pool, so a file layer that copies a
/// block the drive keeps (a copy-on-write, a refilled buffer) reuses the
/// page a kept write just replaced rather than allocating; any other
/// length is a new allocation.
pub fn pooled_copy(bytes: &[u8]) -> Arc<[u8]> {
    if bytes.len() != PAGE_BYTES {
        return Arc::from(bytes);
    }
    let mut page = fresh_page();
    Arc::get_mut(&mut page)
        .expect("a fresh page has one holder")
        .copy_from_slice(bytes);
    page
}

/// A page no one else holds: the pool's top one, or a new one. With
/// nothing parked, a thread allocates [`PAGE_BATCH`] pages at once, so new
/// pages lie together in the heap rather than each between the short-lived
/// blocks the file layers allocate and free around it (`fs_mix`, whose
/// VLD stacks keep writing never-written pages, ran about 15 % slower with
/// one allocation per page).
fn fresh_page() -> Arc<Page> {
    POOL.with_borrow_mut(|pool| {
        pool.take().unwrap_or_else(|| {
            pool.park_cold((0..PAGE_BATCH).map(|_| Arc::new([0; PAGE_BYTES])));
            pool.take().expect("a batch was just parked")
        })
    })
}

/// A page table: entry `i` holds the media's page `i` (see [`PageStore`]),
/// `None` reading as zeros. Sharing it ([`Pages::share`]) shares every
/// page; dropping it parks the pages it alone held in this thread's pool.
#[derive(Clone)]
struct Pages(Vec<Option<Arc<Page>>>);

impl Pages {
    /// A table holding every page this one holds, and the references that
    /// took (one per written page).
    fn share(&self) -> (Self, u64) {
        let mut refs = 0;
        let pages = self.0.iter().map(|page| {
            refs += page.is_some() as u64;
            page.clone()
        });
        (Self(pages.collect()), refs)
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        let sole = self
            .0
            .drain(..)
            .flatten()
            .filter_map(|mut page| Arc::get_mut(&mut page).is_some().then_some(page));
        // A table dropped while this thread's locals are torn down frees
        // its pages.
        let _ = POOL.try_with(|pool| pool.borrow_mut().park_cold(sole));
    }
}

impl std::fmt::Debug for Pages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.0.iter().filter(|p| p.is_some()).count();
        write!(f, "Pages({held} of {})", self.0.len())
    }
}

/// The sparse media store: a flat table of 4 KB pages, each written on
/// its own, so full-size disks cost nothing until used and a write never
/// moves more than the pages it touches.
///
/// Track `cyl * tracks_per_cylinder + track` owns `pages_per_track`
/// consecutive entries, its sector `s` lying in the entry `s / 8` of
/// them. On a drive whose tracks hold a whole number of pages, as both
/// paper drives' do, that puts sector `lba` in page `lba / 8`; elsewhere a
/// track ends in a short page, so no page spans two tracks.
///
/// Pages are held behind `Arc`, so a snapshot, a fork and a shared read
/// ([`Disk::share_sectors`]) hold the pages themselves rather than copies.
/// A write to a page someone else holds gives this store a page of its
/// own and leaves the holder's bytes as they were: a whole-page write
/// takes a fresh page and copies only the caller's bytes, a shorter one
/// copies the held page first (counted in `shared_copies`). A write into
/// a page no one has written zero-fills that one page (a whole-page write
/// fills nothing), and a write to a page only this store holds lands in
/// place. A whole-page write whose bytes are one of the caller's block
/// handles ([`Disk::write_gathered`]) keeps that block as the page and
/// copies nothing; the page it replaces, if no one else holds it, goes
/// to the page pool ([`park`]) for the next fresh page or
/// [`pooled_copy`].
#[derive(Debug)]
struct PageStore {
    pages: Pages,
    tracks_per_cyl: u32,
    pages_per_track: usize,
    /// What the store did to its pages so far.
    work: PageWork,
    /// Page references taken by snapshots of this store, and by the
    /// restore that made it: a snapshot takes them through `&self`.
    fork_refs: Cell<u64>,
}

/// The store's work on its pages, counted as it happens: plain integers
/// on the write path, published as the `disk.page_*` / `disk.pages_*`
/// counters by [`Disk::publish_work`]. Deterministic: they follow from
/// the requests alone.
#[derive(Debug, Clone, Copy, Default)]
struct PageWork {
    /// Bytes copied onto pages: a write's own bytes, and the held page a
    /// write shorter than a page copies first.
    bytes_copied: u64,
    /// Bytes zero-filled: a never-written page that a write shorter than
    /// a page starts.
    bytes_zeroed: u64,
    /// Pages taken for a write from the free lists or the allocator.
    fresh: u64,
    /// Caller blocks kept as pages instead of copied.
    kept: u64,
    /// Pages a write copied because a shared read's handle, a snapshot or
    /// another fork still held them.
    shared_copies: u64,
    /// Page references taken by snapshot and restore (see
    /// [`PageStore::fork_refs`]).
    fork_refs: u64,
}

impl PageStore {
    /// An empty store for `g`, or one holding `pages` (a snapshot's),
    /// whose sharing took `refs` page references.
    fn new(g: &Geometry, pages: Option<(Pages, u64)>) -> Self {
        let tracks_per_cyl = g.tracks_per_cylinder();
        let pages_per_track = (0..g.cylinders())
            .filter_map(|cyl| g.sectors_per_track(cyl).ok())
            .map(|spt| spt.div_ceil(PAGE_SECTORS) as usize)
            .max()
            .unwrap_or(0);
        let tracks = g.cylinders() as usize * tracks_per_cyl as usize;
        let (pages, refs) =
            pages.unwrap_or_else(|| (Pages(vec![None; tracks * pages_per_track]), 0));
        Self {
            pages,
            tracks_per_cyl,
            pages_per_track,
            work: PageWork::default(),
            fork_refs: Cell::new(refs),
        }
    }

    /// The work so far, fork references included.
    fn work(&self) -> PageWork {
        PageWork {
            fork_refs: self.fork_refs.get(),
            ..self.work
        }
    }

    /// The table, shared for a snapshot; the references it took are
    /// counted in `fork_refs`.
    fn fork_table(&self) -> Pages {
        let (pages, refs) = self.pages.share();
        self.fork_refs.set(self.fork_refs.get() + refs);
        pages
    }

    /// The pages `run` covers, in request order: each page's entry in the
    /// table, where the run's part of it starts in the page, and that
    /// part's byte range of the request.
    fn pieces(&self, run: &Run) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
        let slot = run.cyl as usize * self.tracks_per_cyl as usize + run.track as usize;
        let base = slot * self.pages_per_track;
        let (first, end) = (run.sector, run.sector + run.count);
        let at = run.at;
        (first / PAGE_SECTORS..end.div_ceil(PAGE_SECTORS)).map(move |page| {
            let lo = (page * PAGE_SECTORS).max(first);
            let hi = ((page + 1) * PAGE_SECTORS).min(end);
            let bytes = |s: u32| at + (s - first) as usize * SECTOR_BYTES;
            let off = (lo % PAGE_SECTORS) as usize * SECTOR_BYTES;
            (base + page as usize, off, bytes(lo)..bytes(hi))
        })
    }

    /// Copy `run` from its pages into its range of the request's `buf`;
    /// a page nothing ever wrote reads as zeros.
    fn read(&self, run: &Run, buf: &mut [u8]) {
        for (page, off, bytes) in self.pieces(run) {
            let out = &mut buf[bytes];
            match &self.pages.0[page] {
                Some(p) => out.copy_from_slice(&p[off..off + out.len()]),
                None => out.fill(0),
            }
        }
    }

    /// Put `run`'s range of the request's bytes `src` on its pages: keep
    /// a whole-page block of `src` as the page, copy anything else.
    fn write(&mut self, run: &Run, src: &Source) {
        let pieces = self.pieces(run);
        let work = &mut self.work;
        for (page, off, bytes) in pieces {
            let (at, len) = (bytes.start, bytes.len());
            let entry = &mut self.pages.0[page];
            if let Some(kept) = src.page(&bytes) {
                if let Some(replaced) = entry.replace(kept) {
                    park(replaced);
                }
                work.kept += 1;
                continue;
            }
            work.bytes_copied += len as u64;
            match entry.as_mut().and_then(Arc::get_mut) {
                Some(mine) => src.copy_to(at, &mut mine[off..off + len]),
                None => {
                    let mut fresh = fresh_page();
                    work.fresh += 1;
                    let new = Arc::get_mut(&mut fresh).expect("a fresh page has one holder");
                    if len < PAGE_BYTES {
                        match entry.as_deref() {
                            Some(held) => {
                                new.copy_from_slice(held);
                                work.shared_copies += 1;
                                work.bytes_copied += PAGE_BYTES as u64;
                            }
                            None => {
                                new.fill(0);
                                work.bytes_zeroed += PAGE_BYTES as u64;
                            }
                        }
                    }
                    src.copy_to(at, &mut new[off..off + len]);
                    *entry = Some(fresh);
                }
            }
        }
    }

    /// Hand each written page of `run` to `each`: its part of the
    /// request and those bytes.
    fn lend(&self, run: &Run, each: &mut impl FnMut(Range<usize>, &[u8])) {
        for (page, off, bytes) in self.pieces(run) {
            if let Some(p) = &self.pages.0[page] {
                let len = bytes.len();
                each(bytes, &p[off..off + len]);
            }
        }
    }

    /// Hand `run`'s pages to `shared`, one piece per page.
    fn share(&self, run: &Run, shared: &mut SharedSectors) {
        for (page, off, bytes) in self.pieces(run) {
            shared.push(Piece {
                at: bytes.start as u32,
                off: off as u32,
                page: self.pages.0[page].clone(),
            });
        }
    }

    /// Each track's `(cylinder, track)` with at least one page, in order.
    fn materialised_tracks(&self) -> Vec<(u32, u32)> {
        let tpc = self.tracks_per_cyl;
        self.pages
            .0
            .chunks(self.pages_per_track)
            .enumerate()
            .filter(|(_, pages)| pages.iter().any(Option::is_some))
            .map(|(slot, _)| (slot as u32 / tpc, slot as u32 % tpc))
            .collect()
    }
}

/// A write's bytes: the caller's one buffer, or its block handles, all of
/// one length, laid end to end.
enum Source<'a> {
    Flat(&'a [u8]),
    Blocks {
        blocks: &'a [&'a Arc<[u8]>],
        /// Bytes in each block.
        block: usize,
    },
}

impl<'a> Source<'a> {
    /// `blocks` as one request, or why they cannot be one: a block whose
    /// length differs from the first's.
    fn blocks(blocks: &'a [&'a Arc<[u8]>]) -> Result<Self> {
        let block = blocks.first().map_or(0, |b| b.len());
        match blocks.iter().find(|b| b.len() != block) {
            Some(b) => Err(DiskError::BadBufferLength {
                expected: block,
                actual: b.len(),
            }),
            None => Ok(Self::Blocks { blocks, block }),
        }
    }

    /// Bytes in the whole request.
    fn len(&self) -> usize {
        match self {
            Self::Flat(buf) => buf.len(),
            Self::Blocks { blocks, block } => block * blocks.len(),
        }
    }

    /// The block that is exactly the request's `bytes`, as a page to keep,
    /// when those bytes are one whole page (a piece of a page as long as
    /// the page) and one whole page-sized block.
    fn page(&self, bytes: &Range<usize>) -> Option<Arc<Page>> {
        match *self {
            Self::Blocks {
                blocks,
                block: PAGE_BYTES,
            } if bytes.len() == PAGE_BYTES && bytes.start.is_multiple_of(PAGE_BYTES) => {
                Arc::clone(blocks[bytes.start / PAGE_BYTES]).try_into().ok()
            }
            _ => None,
        }
    }

    /// Copy the request's bytes from `at` on into `out`, across any block
    /// boundaries.
    fn copy_to(&self, mut at: usize, mut out: &mut [u8]) {
        match self {
            Self::Flat(buf) => out.copy_from_slice(&buf[at..at + out.len()]),
            Self::Blocks { blocks, block } => {
                while !out.is_empty() {
                    let src = &blocks[at / block][at % block..];
                    let n = src.len().min(out.len());
                    let (head, rest) = out.split_at_mut(n);
                    head.copy_from_slice(&src[..n]);
                    (out, at) = (rest, at + n);
                }
            }
        }
    }
}

/// Pieces a [`SharedSectors`] holds without allocating: a whole track of
/// 512 sectors, the widest a free map allows.
const INLINE_PIECES: usize = 64;

/// Read-only sectors returned by [`Disk::share_sectors`] without a copy:
/// one piece per page of the request, each holding its page alive. A write
/// to a held page while the handle lives gives the drive a page of its own,
/// so the handle's bytes never change; a write shorter than a page copies
/// the page to do it, so drop the handle before writing where it points.
#[derive(Debug)]
pub struct SharedSectors {
    /// The first [`INLINE_PIECES`] pieces, so a share of one track or
    /// less allocates nothing.
    inline: [Piece; INLINE_PIECES],
    /// Pieces in `inline`.
    n_inline: usize,
    /// Every piece, in request order, once there are more than fit inline.
    spilled: Vec<Piece>,
    /// Bytes in the whole request.
    len: usize,
}

/// One page of a [`SharedSectors`]; it ends where the next begins.
#[derive(Debug, Default)]
struct Piece {
    /// Where the piece starts in the request, in bytes.
    at: u32,
    /// Where the piece starts in its page, in bytes.
    off: u32,
    /// The page; `None` for one nothing ever wrote (it reads as zeros).
    page: Option<Arc<Page>>,
}

impl SharedSectors {
    /// An empty share of `len` bytes, to be filled by [`PageStore::share`].
    fn new(len: usize) -> Self {
        Self {
            inline: std::array::from_fn(|_| Piece::default()),
            n_inline: 0,
            spilled: Vec::new(),
            len,
        }
    }

    /// The pieces, in request order.
    fn pieces(&self) -> &[Piece] {
        if self.spilled.is_empty() {
            &self.inline[..self.n_inline]
        } else {
            &self.spilled
        }
    }

    fn push(&mut self, piece: Piece) {
        if self.n_inline < INLINE_PIECES {
            self.inline[self.n_inline] = piece;
            self.n_inline += 1;
        } else {
            if self.spilled.is_empty() {
                self.spilled.reserve(2 * INLINE_PIECES);
                self.spilled
                    .extend(self.inline.iter_mut().map(std::mem::take));
            }
            self.spilled.push(piece);
        }
    }

    /// Each page's byte range of the request and its bytes (`None` on a
    /// never-written page), in request order.
    fn pages(&self) -> impl Iterator<Item = (Range<usize>, Option<&[u8]>)> {
        let pieces = self.pieces();
        let ends = pieces
            .iter()
            .skip(1)
            .map(|p| p.at as usize)
            .chain([self.len]);
        pieces.iter().zip(ends).map(|(p, end)| {
            let (at, off) = (p.at as usize, p.off as usize);
            let bytes = p.page.as_deref().map(|page| &page[off..off + end - at]);
            (at..end, bytes)
        })
    }

    /// The drive's page that is exactly bytes `range` of the read, held
    /// for the caller as a block it may keep or write back
    /// ([`Disk::write_gathered`] keeps it as a page again, copying
    /// nothing); `None` unless the range is one whole written page.
    pub fn page(&self, range: Range<usize>) -> Option<Arc<[u8]>> {
        let pieces = self.pieces();
        let i = pieces.partition_point(|p| (p.at as usize) < range.start);
        let p = pieces.get(i).filter(|p| p.at as usize == range.start && p.off == 0)?;
        let end = pieces.get(i + 1).map_or(self.len, |p| p.at as usize);
        let whole = range.len() == PAGE_BYTES && end - range.start == PAGE_BYTES;
        let page: Arc<[u8]> = p.page.clone().filter(|_| whole)?;
        Some(page)
    }

    /// Bytes `range` of the read, borrowed from the one page they lie on;
    /// `None` when they cross a page boundary or lie on a never-written
    /// page.
    pub fn get(&self, range: Range<usize>) -> Option<&[u8]> {
        let pieces = self.pieces();
        let i = pieces
            .partition_point(|p| p.at as usize <= range.start)
            .checked_sub(1)?;
        let (p, end) = (
            &pieces[i],
            pieces.get(i + 1).map_or(self.len, |p| p.at as usize),
        );
        let page = p.page.as_deref().filter(|_| range.end <= end)?;
        let off = p.off as usize + range.start - p.at as usize;
        Some(&page[off..off + range.len()])
    }

    /// Copy the read's bytes from `at` on into `out`, across any page
    /// boundaries; never-written pages read as zeros.
    pub(crate) fn copy_to(&self, at: usize, out: &mut [u8]) {
        let end = at + out.len();
        for (piece, bytes) in self.pages() {
            let (lo, hi) = (piece.start.max(at), piece.end.min(end));
            if lo < hi {
                let dst = &mut out[lo - at..hi - at];
                match bytes {
                    Some(b) => dst.copy_from_slice(&b[lo - piece.start..hi - piece.start]),
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
    store: PageStore,
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
    /// The store's work as last published to `metrics`.
    published: PageWork,
}

impl Disk {
    /// Create a disk from a spec, attached to the given clock, with the
    /// stock (conservative) read-ahead policy.
    pub fn new(spec: DiskSpec, clock: SimClock) -> Self {
        let seek = spec.mech.seek_table(spec.geometry.cylinders());
        let store = PageStore::new(&spec.geometry, None);
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
            published: PageWork::default(),
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

    /// Add the store's work since the last call to the attached metrics:
    /// `disk.page_bytes_copied`, `disk.page_bytes_zeroed`,
    /// `disk.pages_fresh`, `disk.pages_kept` and `disk.fork_refs` (see
    /// [`Disk::shared_page_copies`] for the copies among them). Called
    /// after each command while metrics are attached, so the first call
    /// also carries what the disk did before (a fork: the references its
    /// restore took).
    fn publish_work(&mut self) {
        let (now, was) = (self.store.work(), self.published);
        self.metrics
            .add("disk.page_bytes_copied", now.bytes_copied - was.bytes_copied);
        self.metrics
            .add("disk.page_bytes_zeroed", now.bytes_zeroed - was.bytes_zeroed);
        self.metrics.add("disk.pages_fresh", now.fresh - was.fresh);
        self.metrics.add("disk.pages_kept", now.kept - was.kept);
        self.metrics.add("disk.fork_refs", now.fork_refs - was.fork_refs);
        self.published = now;
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
        mut each: impl FnMut(&mut PageStore, &Run),
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
        if self.obs_enabled && self.metrics.is_enabled() {
            self.publish_work();
        }
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
    /// returning a handle on the pages' bytes ([`SharedSectors`], one
    /// piece per page, gathered as the command walks them) instead of a
    /// copy.
    pub fn share_sectors(&mut self, lba: u64, count: u32) -> Result<(SharedSectors, ServiceTime)> {
        let mut shared = SharedSectors::new(count as usize * SECTOR_BYTES);
        let st = self.command(OpKind::Read, lba, count, |store, run| {
            store.share(run, &mut shared)
        })?;
        if count > 0 && self.obs_enabled && self.metrics.is_enabled() {
            // Nothing copied, but counted as such: a reader that shares
            // shows `disk.read_bytes_copied` at 0 rather than not at all.
            self.metrics.add("disk.read_bytes_copied", 0);
        }
        Ok((shared, st))
    }

    /// The *lending* read: the command [`Self::read_sectors`] would issue
    /// for `count` sectors at `lba` — same plan, same [`ServiceTime`], one
    /// clock event, same statistics, read-ahead state and trace record —
    /// handing `each` every written page it covers, as that page's byte
    /// range of the request and its bytes, borrowed for the call. Pages
    /// nothing ever wrote read as zeros and are skipped. For a reader that
    /// only looks (a scan), where [`Self::share_sectors`] would hold every
    /// page to keep it.
    pub fn lend_sectors(
        &mut self,
        lba: u64,
        count: u32,
        mut each: impl FnMut(Range<usize>, &[u8]),
    ) -> Result<ServiceTime> {
        self.command(OpKind::Read, lba, count, |store, run| {
            store.lend(run, &mut each)
        })
    }

    /// Pages a write shorter than a page had to copy first because a
    /// [`SharedSectors`] handle, a snapshot or another fork still held
    /// them (a whole-page write takes a fresh page and copies nothing).
    /// Stays zero while every handle is dropped before its pages are
    /// written and nothing else shares the media.
    pub fn shared_page_copies(&self) -> u64 {
        self.store.work.shared_copies
    }

    /// Write `buf` (a whole number of sectors) starting at `lba`, advancing
    /// the clock by the returned service time: one timed media command.
    /// Writes always reach the media; there is no write-back cache.
    pub fn write_sectors(&mut self, lba: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.write_from(lba, Source::Flat(buf))
    }

    /// The *gathered* write: what [`Self::write_sectors`] does with
    /// `blocks` laid end to end — the same command — taking each block
    /// where it lies, so a caller holding its blocks apart (a cache
    /// flushing a run) builds no buffer for them. A page-sized block that
    /// lands on exactly one page is kept as that page (a clone of the
    /// handle, no copy); the rest is copied. The blocks are all of one
    /// length.
    pub fn write_gathered(&mut self, lba: u64, blocks: &[&Arc<[u8]>]) -> Result<ServiceTime> {
        self.write_from(lba, Source::blocks(blocks)?)
    }

    /// The one write command behind [`Self::write_sectors`] and
    /// [`Self::write_gathered`].
    fn write_from(&mut self, lba: u64, src: Source) -> Result<ServiceTime> {
        let count = Self::sector_count(src.len())?;
        self.command(OpKind::Write, lba, count, |store, run| {
            store.write(run, &src)
        })
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
        let src = Source::Flat(buf);
        runs(&self.spec.geometry, lba, count)?.for_each(|run| self.store.write(&run, &src));
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

    /// The (cylinder, track) pairs with at least one page in the sparse
    /// store, in deterministic order. Used by image serialisation. The
    /// flat page table yields them already sorted.
    pub fn materialised_tracks(&self) -> Vec<(u32, u32)> {
        self.store.materialised_tracks()
    }

    /// Translate a physical address to an LBA (convenience passthrough).
    pub fn phys_to_lba(&self, p: PhysAddr) -> Result<u64> {
        self.spec.geometry.phys_to_lba(p)
    }

    /// Freeze this disk's complete mutable state. The media is a clone of
    /// the page table, sharing every page with this disk: no media byte is
    /// copied, and the first write to a page afterwards, here or in a
    /// fork, gives the writer a page of its own. Observability handles
    /// (tracer/metrics/spans) are *not* captured; a restored disk starts
    /// with them disabled.
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            spec: self.spec.clone(),
            now_ns: self.clock.now(),
            local_events: self.clock.local_events(),
            pages: self.store.fork_table(),
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

/// A frozen copy of a [`Disk`]'s complete mutable state: media (a page
/// table whose pages every fork shares), clock instant, arm/head position,
/// read-ahead buffer and statistics.
///
/// The snapshot is `Send + Sync` plain data — it can be built once on one
/// thread and restored concurrently from many pool workers — and restoring
/// it clones the page table, one pointer per page, independent of how
/// much workload wrote the pages: a fork copies a page only when it
/// writes less than all of it. `restore` does not touch the process-wide event counter: a fork
/// simulated nothing to come into being. Its own clock keeps the captured
/// system's event count ([`SimClock::local_events`]).
#[derive(Debug, Clone)]
pub struct DiskSnapshot {
    spec: DiskSpec,
    now_ns: u64,
    local_events: u64,
    pages: Pages,
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
            store: PageStore::new(&self.spec.geometry, Some(self.pages.share())),
            cur_cyl: self.cur_cyl,
            cur_track: self.cur_track,
            cache: self.cache.clone(),
            stats: self.stats,
            seek: self.seek.clone(),
            tracer: None,
            metrics: Metrics::disabled(),
            spans: Spans::disabled(),
            obs_enabled: false,
            published: PageWork::default(),
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
            let src = Source::Flat(buf);
            self.clock.advance(self.spec.command_overhead_ns);
            for run in runs {
                let head = (self.cur_cyl, self.cur_track);
                let st = self.plan_run(&run, head, self.clock.now());
                self.clock.advance(st.total_ns());
                total += st;
                (self.cur_cyl, self.cur_track) = (run.cyl, run.track);
                self.cache.on_write(run.cyl, run.track);
                self.store.write(&run, &src);
            }
            self.stats.writes += 1;
            self.stats.sectors_written += count as u64;
            self.stats.busy += total;
            Ok(total)
        }
    }

    /// The shared read's pages reassemble to the copying read: `copy_to`
    /// gives `read_sectors`' buffer, a piece's bytes are `None` exactly on
    /// pages nothing ever wrote and `get` borrows every other piece whole,
    /// and time, clock, head, statistics, read-ahead hits and the trace
    /// record are the same — on live pages, on a snapshot-restored disk
    /// whose pages it shares with the snapshot, and on a disk nothing was
    /// written to.
    #[test]
    fn shared_runs_reassemble_to_the_copying_read() {
        let written = || {
            let mut d = disk();
            d.write_sectors(60, &vec![0xA7u8; 20 * SECTOR_BYTES])
                .unwrap(); // pages 7 to 9, on tracks 0 and 1
            d.write_sectors(300, &vec![0x3Cu8; SECTOR_BYTES]).unwrap(); // page 37, track 4
            d
        };
        // Within a page, across written pages and blank ones, a read-ahead
        // hit across a blank and a written page, nothing at all, and one
        // whole blank track; with the blank pages each reads on a written
        // and on an unwritten disk.
        let reads = [(64u64, 4u32), (50, 300), (52, 8), (0, 0), (720, 72)];
        for (mut copy, mut share, blank_runs) in [
            (written(), written(), [0, 34, 1, 0, 9]),
            (
                written().snapshot().restore(),
                written().snapshot().restore(),
                [0, 34, 1, 0, 9],
            ),
            (disk(), disk(), [1, 38, 2, 0, 9]),
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
                for (run, bytes) in shared.pages() {
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

    /// The shared and the lending read are the copying read minus the
    /// copy, on both drives and from every start alignment within a track:
    /// the handle's pieces reassemble to `read_sectors`' buffer (one per
    /// page, `None` exactly on pages nothing ever wrote), `get` borrows
    /// exactly the windows inside one written page, the lending read hands
    /// over exactly the written pages, one call each, and time, clock,
    /// head, statistics, read-ahead hits and the trace record are the same
    /// — across a fork's own pages, the pages it shares with its snapshot
    /// and blank pages in one request.
    #[test]
    fn shared_read_matches_the_copying_read() {
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let spt = spec.geometry.sectors_per_track(0).unwrap() as u64;
            let track_bytes = spt as usize * SECTOR_BYTES;
            // Tracks 0 and 2 blank, 1 whole and one page of 3.
            let written = || {
                let mut d = Disk::new(spec.clone(), SimClock::new());
                let track: Vec<u8> = (0..track_bytes).map(|i| (i / 7) as u8).collect();
                d.write_sectors(spt, &track).unwrap();
                d.write_sectors(3 * spt + 2, &[0x3Cu8; 4 * SECTOR_BYTES])
                    .unwrap();
                d
            };
            // The fork shares tracks 1 and 3 with its snapshot; a write
            // after the fork gives it one page of track 2.
            let fork = || {
                let mut d = written().snapshot().restore();
                d.write_sectors(2 * spt + 9, &[0x81u8; SECTOR_BYTES])
                    .unwrap();
                d
            };
            for (mut copy, mut share, mut lend, forked) in [
                (written(), written(), written(), false),
                (fork(), fork(), fork(), true),
            ] {
                let ppt = spt / PAGE_SECTORS as u64;
                let blank = |page: u64| {
                    !(page / ppt == 1 || page == 3 * ppt || (forked && page == 2 * ppt + 1))
                };
                let (tc, ts) = (Tracer::with_capacity(1024), Tracer::with_capacity(1024));
                let tl = Tracer::with_capacity(1024);
                copy.set_tracer(Some(tc.clone()));
                share.set_tracer(Some(ts.clone()));
                lend.set_tracer(Some(tl.clone()));
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
                    let page_of =
                        |byte: usize| (lba + (byte / SECTOR_BYTES) as u64) / PAGE_SECTORS as u64;
                    for (piece, bytes) in shared.pages() {
                        let page = page_of(piece.start);
                        assert_eq!(page, page_of(piece.end - 1), "one piece, one page");
                        assert_eq!(bytes.is_none(), blank(page), "({lba}, {count}) page {page}");
                    }
                    let (mut lent, mut pages) = (vec![0u8; want.len()], Vec::new());
                    let st_lend = lend
                        .lend_sectors(lba, count, |piece, bytes| {
                            pages.push(page_of(piece.start));
                            assert_eq!(page_of(piece.end - 1), pages[pages.len() - 1]);
                            lent[piece].copy_from_slice(bytes);
                        })
                        .unwrap();
                    let written: Vec<u64> = (page_of(0)..=page_of(want.len() - 1))
                        .filter(|&page| !blank(page))
                        .collect();
                    assert_eq!((lent == want, pages), (true, written), "({lba}, {count})");
                    assert_eq!(st_lend, st_copy, "({lba}, {count})");
                    assert_eq!((lend.now_ns(), lend.head()), (copy.now_ns(), copy.head()));
                    for start in (0..want.len()).step_by(PAGE_BYTES) {
                        let end = (start + PAGE_BYTES).min(want.len());
                        let (a, b) = (page_of(start), page_of(end - 1));
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
                assert_eq!(tl.events(), tc.events());
                assert_eq!(share.clock().local_events(), copy.clock().local_events());
                assert_eq!(lend.clock().local_events(), copy.clock().local_events());
                assert_eq!(format!("{:?}", lend.stats()), format!("{:?}", copy.stats()));
                assert_eq!(lend.cache_stats(), copy.cache_stats());

                let (now, stats) = (share.now_ns(), format!("{:?}", share.stats()));
                let total = spec.geometry.total_sectors();
                assert!(share.share_sectors(total - 1, 2).is_err());
                assert!(share.share_sectors(u64::MAX, 1).is_err());
                assert!(share.share_sectors(spt, 0).unwrap().0.len == 0);
                assert_eq!(
                    (share.now_ns(), format!("{:?}", share.stats())),
                    (now, stats)
                );
                assert_eq!(share.shared_page_copies(), 0);
            }
        }
    }

    /// The gathered write is the write of its blocks laid end to end: the
    /// same service time, clock, head, statistics, page copies and media,
    /// on both drives, for blocks of a page, of three sectors and of a page
    /// and a half, from start sectors that make blocks and pages cross, on
    /// a blank disk and on a fork sharing its pages. Blocks of two lengths
    /// are refused before the drive moves.
    #[test]
    fn a_gathered_write_is_its_blocks_written_end_to_end() {
        for spec in [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()] {
            let spt = spec.geometry.sectors_per_track(0).unwrap() as u64;
            let span = 3 * spt as usize * SECTOR_BYTES;
            let aged = {
                let mut d = Disk::new(spec.clone(), SimClock::new());
                d.write_sectors(0, &vec![0x5Au8; span]).unwrap();
                d.snapshot()
            };
            for (sectors, n) in [(8, 5), (3, 11), (12, 4)] {
                let blocks: Vec<Arc<[u8]>> = (1..=n)
                    .map(|i| vec![i as u8; sectors * SECTOR_BYTES].into())
                    .collect();
                let refs: Vec<&Arc<[u8]>> = blocks.iter().collect();
                for (lba, forked) in [0, 1, 7, spt - 5]
                    .into_iter()
                    .flat_map(|l| [(l, false), (l, true)])
                {
                    let make = || match forked {
                        true => aged.restore(),
                        false => Disk::new(spec.clone(), SimClock::new()),
                    };
                    let (mut gathered, mut flat) = (make(), make());
                    let ctx = format!("{}: {n} blocks of {sectors} at {lba}", spec.name);
                    let st = gathered.write_gathered(lba, &refs).unwrap();
                    assert_eq!(
                        st,
                        flat.write_sectors(lba, &blocks.iter().flat_map(|b| b.iter().copied()).collect::<Vec<u8>>()).unwrap(),
                        "{ctx}"
                    );
                    assert_eq!(gathered.now_ns(), flat.now_ns(), "{ctx}");
                    assert_eq!(gathered.head(), flat.head(), "{ctx}");
                    assert_eq!(gathered.shared_page_copies(), flat.shared_page_copies());
                    assert_eq!(
                        format!("{:?}", gathered.stats()),
                        format!("{:?}", flat.stats()),
                        "{ctx}"
                    );
                    let (mut a, mut b) = (vec![0u8; span], vec![1u8; span]);
                    gathered.peek_sectors(0, &mut a).unwrap();
                    flat.peek_sectors(0, &mut b).unwrap();
                    assert!(a == b, "{ctx}: media");
                }
            }
            let mut d = Disk::new(spec, SimClock::new());
            let (page, sector): (Arc<[u8]>, Arc<[u8]>) =
                (Arc::new([0u8; PAGE_BYTES]), Arc::new([0u8; SECTOR_BYTES]));
            assert!(matches!(
                d.write_gathered(0, &[&page, &sector]),
                Err(DiskError::BadBufferLength {
                    expected: PAGE_BYTES,
                    actual: SECTOR_BYTES
                })
            ));
            assert_eq!((d.stats().writes, d.now_ns()), (0, 0));
        }
    }

    /// What a write moves, exactly. A fork's first whole-block write
    /// copies nothing and gives the fork one page of its own; a one-sector
    /// write into a page it shares with its snapshot copies that page, 4 096
    /// bytes; a write into a never-written page takes that page alone; and
    /// neither the snapshot nor the original sees any of it. Under a live
    /// shared read, a one-sector write copies only the page it writes and a
    /// whole-page write copies nothing, the handle keeps the bytes it was
    /// given, and once it is dropped writes copy nothing.
    #[test]
    fn a_write_moves_only_the_pages_it_touches() {
        let same = |a: &Option<Arc<Page>>, b: &Option<Arc<Page>>| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        let mut d = disk();
        d.write_sectors(0, &[7u8; 3 * 72 * SECTOR_BYTES]).unwrap();
        let snap = d.snapshot();
        let own = |f: &Disk| {
            let (fork, base) = (&f.store.pages.0, &snap.pages.0);
            fork.iter().zip(base).filter(|(a, b)| !same(a, b)).count()
        };
        let mut f = snap.restore();
        assert_eq!(own(&f), 0, "a fork starts with every page shared");
        f.write_sectors(8, &[1u8; PAGE_BYTES]).unwrap();
        assert_eq!((f.shared_page_copies(), own(&f)), (0, 1), "whole block");
        f.write_sectors(17, &[2u8; SECTOR_BYTES]).unwrap();
        assert_eq!(
            f.shared_page_copies() as usize * PAGE_BYTES,
            4096,
            "one sector"
        );
        assert_eq!(own(&f), 2);
        f.write_sectors(17, &[3u8; SECTOR_BYTES]).unwrap();
        f.write_sectors(5 * 72, &[4u8; SECTOR_BYTES]).unwrap();
        assert_eq!(
            (f.shared_page_copies(), own(&f)),
            (1, 3),
            "own and blank pages"
        );
        let mut page = [0u8; 2 * PAGE_BYTES];
        f.peek_sectors(8, &mut page).unwrap();
        assert!(page[..PAGE_BYTES].iter().all(|&b| b == 1));
        assert_eq!(
            page[PAGE_BYTES..PAGE_BYTES + 2 * SECTOR_BYTES],
            [[7; SECTOR_BYTES], [3; SECTOR_BYTES]].concat()[..]
        );
        for (who, disk) in [("the original", &d), ("the snapshot", &snap.restore())] {
            disk.peek_sectors(8, &mut page).unwrap();
            assert!(page.iter().all(|&b| b == 7), "{who} saw a fork's write");
            disk.peek_sectors(5 * 72, &mut page).unwrap();
            assert!(page.iter().all(|&b| b == 0), "{who} saw a fork's write");
        }
        drop((f, snap));

        // Tracks 0, 1 and 2, held by one handle.
        let (shared, _) = d.share_sectors(8, 2 * 72 + 8).unwrap();
        d.write_sectors(72 + 10, &[9u8; SECTOR_BYTES]).unwrap();
        let mut now = vec![0u8; SECTOR_BYTES];
        d.peek_sectors(72 + 10, &mut now).unwrap();
        assert_eq!(now[0], 9, "the write reached the media");
        assert_eq!(d.shared_page_copies(), 1);
        d.write_sectors(24, &[9u8; PAGE_BYTES]).unwrap();
        assert_eq!(d.shared_page_copies(), 1, "a whole page copies nothing");
        let mut held = vec![0u8; shared.len];
        shared.copy_to(0, &mut held);
        assert!(held.iter().all(|&b| b == 7));
        drop(shared);
        d.write_sectors(2 * 72 + 3, &[9u8; SECTOR_BYTES]).unwrap();
        d.write_sectors(72 + 11, &[9u8; SECTOR_BYTES]).unwrap();
        assert_eq!(d.shared_page_copies(), 1);
    }

    /// A page-aligned 4 KiB block handed over as a handle becomes the page
    /// itself: nothing copied, nothing fresh, one page kept. The drive
    /// never writes into it while the caller holds it: a one-sector write
    /// copies the page and the caller's block keeps its bytes; once the
    /// drive alone holds a page, a short write lands in place. A block
    /// that does not lie on one whole page is copied, not kept.
    #[test]
    fn a_kept_block_is_the_page_until_someone_writes_it() {
        let mut d = disk();
        let block: Arc<[u8]> = Arc::from(&[7u8; PAGE_BYTES][..]);
        d.write_gathered(16, &[&block]).unwrap();
        let page = d.store.pages.0[2].as_ref().map(|p| Arc::as_ptr(p) as *const u8);
        assert_eq!(page, Some(block.as_ptr()), "the block is the page");
        let w = d.store.work();
        assert_eq!((w.kept, w.bytes_copied, w.fresh, w.bytes_zeroed), (1, 0, 0, 0));

        d.write_sectors(17, &[9u8; SECTOR_BYTES]).unwrap();
        assert!(block.iter().all(|&b| b == 7), "the caller's block kept its bytes");
        assert_eq!(d.shared_page_copies(), 1);
        let mut now = [0u8; PAGE_BYTES];
        d.peek_sectors(16, &mut now).unwrap();
        assert_eq!(now[SECTOR_BYTES..2 * SECTOR_BYTES], [9u8; SECTOR_BYTES]);
        d.write_gathered(16, &[&block]).unwrap();
        drop(block);
        d.write_sectors(18, &[9u8; SECTOR_BYTES]).unwrap();
        assert_eq!(d.shared_page_copies(), 1, "a page the drive alone holds");

        let astride: Arc<[u8]> = Arc::from(&[5u8; PAGE_BYTES][..]);
        d.write_gathered(28, &[&astride]).unwrap();
        assert_eq!(Arc::strong_count(&astride), 1, "copied, not kept");
        d.peek_sectors(28, &mut now).unwrap();
        assert!(now.iter().all(|&b| b == 5));
        let w = d.store.work();
        // Two sectors, the held page the first one copied, and the block
        // astride two blank pages, which both start zeroed.
        let copied = 2 * SECTOR_BYTES + PAGE_BYTES + PAGE_BYTES;
        assert_eq!((w.kept, w.bytes_copied), (2, copied as u64));
        assert_eq!((w.fresh, w.bytes_zeroed), (3, 2 * PAGE_BYTES as u64));
    }

    /// A kept write parks the page it replaces when the drive alone held
    /// it, and the next pooled copy is written onto that very page; a
    /// replaced page someone else still holds is left to its holder.
    #[test]
    fn a_kept_write_recycles_the_page_it_replaces() {
        let mut d = disk();
        d.write_sectors(16, &[1u8; PAGE_BYTES]).unwrap();
        let old = d.store.pages.0[2].as_ref().map(|p| Arc::as_ptr(p) as *const u8);
        // Start from an empty pool, whatever this thread's tests parked.
        POOL.take();
        let block: Arc<[u8]> = Arc::from(&[7u8; PAGE_BYTES][..]);
        d.write_gathered(16, &[&block]).unwrap();
        let copy = pooled_copy(&[9u8; PAGE_BYTES]);
        assert_eq!(Some(copy.as_ptr()), old, "the replaced page came back");
        assert!(copy.iter().all(|&b| b == 9));

        let other: Arc<[u8]> = Arc::from(&[8u8; PAGE_BYTES][..]);
        d.write_gathered(16, &[&other]).unwrap();
        assert!(parked().is_empty(), "the caller still holds it");
        assert!(block.iter().all(|&b| b == 7));
    }

    /// The addresses of the pages in this thread's pool, top first.
    fn parked() -> Vec<usize> {
        POOL.with_borrow(|pool| {
            pool.pages
                .iter()
                .rev()
                .map(|p| Arc::as_ptr(p) as usize)
                .collect()
        })
    }

    /// A kept write's replaced page goes on top of the pool, above a
    /// dropped table's pages, which lie in address order, lowest nearest
    /// the top.
    #[test]
    fn warm_pages_lie_above_a_dropped_tables_pages() {
        POOL.take();
        let mut d = disk();
        d.write_sectors(0, &[1u8; 3 * PAGE_BYTES]).unwrap();
        let mut table: Vec<usize> = d.store.pages.0[..3]
            .iter()
            .map(|p| Arc::as_ptr(p.as_ref().unwrap()) as usize)
            .collect();
        let replaced = table.pop().unwrap();
        // Warm the page behind the two the table keeps.
        let block: Arc<[u8]> = Arc::from(&[7u8; PAGE_BYTES][..]);
        d.write_gathered(16, &[&block]).unwrap();
        drop(d);
        table.sort();
        let mut batch = parked();
        assert_eq!(batch.remove(0), replaced, "the warm page is on top");
        let cold: Vec<_> = batch
            .iter()
            .filter(|p| table.contains(p))
            .copied()
            .collect();
        assert_eq!(cold, table, "in address order, lowest nearest the top");
        assert!(batch.windows(2).all(|w| w[0] < w[1]));
    }

    /// `pmap_in` hands each worker its own share of the caller's pool, no
    /// page to two workers, and takes the shares back: the caller's next
    /// fresh pages are the ones it parked before.
    #[test]
    fn pmap_hands_the_pool_to_its_workers_and_takes_it_back() {
        POOL.take();
        let pages: Vec<Arc<Page>> = (0..8).map(|_| Arc::new([0; PAGE_BYTES])).collect();
        let mut before: Vec<usize> = pages.iter().map(|p| Arc::as_ptr(p) as usize).collect();
        let alive: Vec<_> = pages.iter().map(Arc::downgrade).collect();
        POOL.with_borrow_mut(|pool| pool.park_cold(pages));
        let both = std::sync::Barrier::new(2);
        let shares = crate::par::pmap_in(2, vec![(); 2], |()| {
            // Each worker takes one item: neither leaves the barrier alone.
            both.wait();
            parked()
        });
        assert!(shares.iter().all(|share| !share.is_empty()), "{shares:?}");
        let mut handed: Vec<_> = shares.concat();
        handed.sort();
        before.sort();
        assert_eq!(handed, before, "every page to exactly one worker");
        assert!(
            alive.iter().all(|p| p.strong_count() == 1),
            "a page was let go"
        );
        let mut back: Vec<_> = (0..8)
            .map(|_| Arc::as_ptr(&fresh_page()) as usize)
            .collect();
        back.sort();
        assert_eq!(back, before, "the caller's pages came back");
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

    /// A disk beside the flat image it must read as and the tracks written
    /// so far (what `materialised_tracks` must list).
    type Modelled = (Vec<u8>, std::collections::BTreeSet<(u32, u32)>);

    /// The whole media of `disk` is `model`'s image, and its materialised
    /// tracks are the model's.
    fn check_disk(disk: &Disk, (bytes, tracks): &Modelled, what: &str) {
        let mut all = vec![0xEEu8; bytes.len()];
        disk.peek_sectors(0, &mut all).unwrap();
        assert!(all == *bytes, "{what}: media differs from the reference");
        let want: Vec<_> = tracks.iter().copied().collect();
        assert_eq!(disk.materialised_tracks(), want, "{what}");
    }

    /// `shared` still reads as `want`, the bytes under it when it was
    /// taken: reassembled, and page by page where it borrows.
    fn check_share(shared: &SharedSectors, want: &[u8]) {
        let mut got = vec![0xEEu8; want.len()];
        shared.copy_to(0, &mut got);
        assert!(got == want, "a held share changed");
        for (piece, bytes) in shared.pages() {
            assert_eq!(shared.get(piece.clone()), bytes);
            assert!(bytes.is_none_or(|b| b == &want[piece.clone()]), "{piece:?}");
        }
    }

    /// Blocks a write handed to the drive as handles, and their bytes then.
    type Handed = (Vec<Arc<[u8]>>, Vec<u8>);

    /// Run `ops` on a disk of `spec` and on a flat `Vec<u8>` image of it,
    /// each `(op, a, b, c)` one of: a write (of whole pages when `c` is
    /// even, of any sectors when odd; whole pages given as 4 KiB block
    /// handles the caller keeps when `c & 4` is set too), a read, a shared
    /// read held across what follows, dropping a held share and a kept
    /// block list, a snapshot, a restore (a fork) or dropping a disk or a
    /// snapshot. Reads must match as they happen; at the end every disk,
    /// every snapshot, every held share and every block handed over must
    /// read as its own image, so no write leaked from a fork into its
    /// snapshot, its original or another fork, into a block the drive
    /// kept, or the other way.
    fn run_against_reference(spec: DiskSpec, ops: Vec<(u8, u64, u32, u8)>) {
        let g = spec.geometry.clone();
        let total = g.total_sectors();
        let blank = (vec![0u8; total as usize * SECTOR_BYTES], Default::default());
        let mut disks: Vec<(Disk, Modelled)> = vec![(Disk::new(spec, SimClock::new()), blank)];
        let mut snaps: Vec<(DiskSnapshot, Modelled)> = Vec::new();
        let mut shares: Vec<(SharedSectors, Vec<u8>)> = Vec::new();
        let mut handed: Vec<Handed> = Vec::new();
        let unchanged = |(blocks, data): &Handed| {
            let now: Vec<u8> = blocks.iter().flat_map(|b| b.iter().copied()).collect();
            assert!(now == *data, "the drive wrote into a block it kept");
        };
        for (step, (op, a, b, c)) in ops.into_iter().enumerate() {
            let (lba, count) = match (a % total, c % 2) {
                (lba, 0) => (lba / 8 * 8, b.div_ceil(8) * 8),
                (lba, _) => (lba, b),
            };
            let count = count.min((total - lba) as u32);
            let range = lba as usize * SECTOR_BYTES..(lba + count as u64) as usize * SECTOR_BYTES;
            let i = c as usize % disks.len();
            let (disk, (bytes, tracks)) = &mut disks[i];
            match op % 8 {
                0..=2 => {
                    let data: Vec<u8> = (0..range.len())
                        .map(|k| (step * 31 + k / SECTOR_BYTES) as u8)
                        .collect();
                    if c & 5 == 4 && data.len().is_multiple_of(PAGE_BYTES) {
                        let blocks: Vec<Arc<[u8]>> = data.chunks(PAGE_BYTES).map(Arc::from).collect();
                        disk.write_gathered(lba, &blocks.iter().collect::<Vec<_>>()).unwrap();
                        handed.push((blocks, data.clone()));
                    } else {
                        disk.write_sectors(lba, &data).unwrap();
                    }
                    bytes[range].copy_from_slice(&data);
                    for s in lba..lba + count as u64 {
                        let p = g.lba_to_phys(s).unwrap();
                        tracks.insert((p.cyl, p.track));
                    }
                }
                3 => {
                    let mut got = vec![0xEEu8; range.len()];
                    disk.read_sectors(lba, &mut got).unwrap();
                    assert!(got == bytes[range], "step {step}: read ({lba}, {count})");
                }
                4 => shares.push((
                    disk.share_sectors(lba, count).unwrap().0,
                    bytes[range].to_vec(),
                )),
                5 if !shares.is_empty() || !handed.is_empty() => {
                    if !shares.is_empty() {
                        let (shared, want) = shares.swap_remove(a as usize % shares.len());
                        check_share(&shared, &want);
                    }
                    if !handed.is_empty() {
                        unchanged(&handed.swap_remove(a as usize % handed.len()));
                    }
                }
                6 => snaps.push((disk.snapshot(), (bytes.clone(), tracks.clone()))),
                7 if c & 2 == 0 && !snaps.is_empty() => {
                    let (snap, model) = &snaps[a as usize % snaps.len()];
                    disks.push((snap.restore(), model.clone()));
                }
                7 if disks.len() > 1 => drop(disks.swap_remove(i)),
                7 if !snaps.is_empty() => drop(snaps.swap_remove(a as usize % snaps.len())),
                _ => {}
            }
        }
        for (n, (disk, model)) in disks.iter().enumerate() {
            check_disk(disk, model, &format!("disk {n}"));
        }
        for (n, (snap, model)) in snaps.iter().enumerate() {
            check_disk(&snap.restore(), model, &format!("snapshot {n}"));
        }
        for (shared, want) in &shares {
            check_share(shared, want);
        }
        handed.iter().for_each(unchanged);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The page store reads as a flat byte image under writes of whole
        /// pages, of parts of pages and across pages and tracks, reads,
        /// shares held across writes, snapshots, forks and drops — on both
        /// drives and on one whose tracks end in a short page.
        #[test]
        fn the_page_store_reads_as_a_flat_image(
            spec in prop_oneof![
                Just(DiskSpec::hp97560(1)),
                Just(DiskSpec::st19101(1)),
                Just(DiskSpec { geometry: Geometry::uniform(2, 3, 75), ..DiskSpec::hp97560(1) }),
            ],
            ops in proptest::collection::vec((0u8..8, any::<u64>(), 1u32..40, any::<u8>()), 1..60),
        ) {
            run_against_reference(spec, ops);
        }

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
