//! The allocation gate for kept blocks: once warm, a synchronous 4 KiB
//! overwrite on UFS allocates nothing, over the VLD and over the regular
//! disk. The cache hands the drive its block, the drive parks the page
//! that block replaces in its pool, and the next copy-on-write takes it
//! back ([`vlfs::disksim::pooled_copy`]), so no step of the cycle calls
//! the allocator. The same holds with the logical disk in between: its
//! open segment keeps the cache's blocks, and its flushes and cleaner
//! copies hand the drive pages (and a cleaner copy reads none of its
//! bytes: it carries the digest its victim's summary records).
//!
//! Allocations are counted per thread, and the drive's page pool is one
//! per thread, so tests running beside a gate on other threads neither
//! show up in its count nor take the pages its cycle parks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use vlfs::disksim::{
    BlockDevice, DiskSpec, DiskStats, Metrics, RegularDisk, Result as DiskResult, ServiceTime,
    SharedBlocks, SimClock, Spans,
};
use vlfs::fscore::{FileSystem, HostModel};
use vlfs::lfs::{LldConfig, LogDisk};
use vlfs::ufs::{Ufs, UfsConfig};
use vlfs::vlog::{Vld, VldConfig};

thread_local! {
    /// Allocation requests made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting each allocation request (`alloc`,
/// `alloc_zeroed`, and `realloc`) against the thread that made it.
struct PerThreadCount;

fn count() {
    // A thread whose locals are already torn down is not measured.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread local, which touches no allocator.
unsafe impl GlobalAlloc for PerThreadCount {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PerThreadCount = PerThreadCount;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Blocks of the one file the overwrites land in.
const FILE_BLOCKS: u64 = 4000;

/// A VLD on the HP slice whose every page has been written: each logical
/// block twice, so the log has also moved through its spare space. On a
/// younger log an eager write may still land on a never-written page, and
/// a page that starts there is a new one, not one the pool recycled.
fn aged_vld() -> Vld {
    let mut vld = Vld::format(
        DiskSpec::hp97560_sim(),
        SimClock::new(),
        VldConfig::default(),
    );
    let n = vld.num_blocks();
    let run = vec![0u8; 16 * 4096];
    for _ in 0..2 {
        for start in (0..n).step_by(16) {
            let blocks = (n - start).min(16) as usize;
            vld.write_blocks(start, &run[..blocks * 4096]).unwrap();
        }
    }
    vld
}

/// Allocation requests of `ops` synchronous 4 KiB overwrites at
/// scattered blocks of a file on UFS over `dev`, after `warm` such
/// overwrites.
fn overwrite_allocs(dev: Box<dyn BlockDevice>, warm: u64, ops: u64) -> u64 {
    let mut fs = Ufs::format(dev, HostModel::instant(), UfsConfig::default()).unwrap();
    let f = fs.create("f").unwrap();
    fs.write(f, 0, &vec![1u8; 4096 * FILE_BLOCKS as usize])
        .unwrap();
    fs.sync().unwrap();
    fs.set_sync_writes(true);
    let block = [7u8; 4096];
    let mut overwrite = |i: u64| {
        let at = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % FILE_BLOCKS;
        fs.write(f, at * 4096, &block).unwrap();
    };
    (0..warm).for_each(&mut overwrite);
    let before = allocs();
    (warm..warm + ops).for_each(&mut overwrite);
    allocs() - before
}

#[test]
fn warm_synchronous_overwrites_allocate_nothing_on_the_vld() {
    assert_eq!(overwrite_allocs(Box::new(aged_vld()), 200, 500), 0);
}

#[test]
fn warm_synchronous_overwrites_allocate_nothing_on_the_regular_disk() {
    let disk = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), 4096);
    assert_eq!(overwrite_allocs(Box::new(disk), 200, 500), 0);
}

/// Allocation requests of `rounds` rounds of 64 delayed 4 KiB overwrites
/// at scattered blocks of a file and a `sync`, on UFS over `dev`, after
/// `warm` such rounds. Each sync flushes 64 one-block runs. An idle grant
/// follows each round and is not counted: on the logical disk it cleans,
/// so the log reuses written pages and the drive parks the pages it
/// replaces for the cache's next copy-on-write.
fn delayed_sync_allocs(dev: Box<dyn BlockDevice>, warm: u64, rounds: u64) -> u64 {
    let mut fs = Ufs::format(dev, HostModel::instant(), UfsConfig::default()).unwrap();
    let f = fs.create("f").unwrap();
    fs.write(f, 0, &vec![1u8; 4096 * FILE_BLOCKS as usize])
        .unwrap();
    fs.sync().unwrap();
    let block = [7u8; 4096];
    let mut round = |r: u64| {
        let before = allocs();
        for i in 0..64 {
            let at = (r * 64 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % FILE_BLOCKS;
            fs.write(f, at * 4096, &block).unwrap();
        }
        fs.sync().unwrap();
        let spent = allocs() - before;
        fs.idle(1_000_000_000);
        spent
    };
    (0..warm).for_each(|r| {
        round(r);
    });
    (warm..warm + rounds).map(round).sum()
}

/// A `sync` of delayed overwrites takes the dirty keys and gathers each
/// run's handles in buffers the file system keeps, so once warm it
/// allocates nothing, over the regular disk and over the logical disk.
#[test]
fn warm_delayed_writes_and_syncs_allocate_nothing() {
    let disk = || RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), 4096);
    assert_eq!(
        delayed_sync_allocs(Box::new(disk()), 40, 40),
        0,
        "regular disk"
    );
    let cfg = LldConfig {
        idle_clean_target: u32::MAX,
        ..LldConfig::default()
    };
    let lld = LogDisk::format(Box::new(disk()), cfg).unwrap();
    assert_eq!(
        delayed_sync_allocs(Box::new(lld), 40, 40),
        0,
        "logical disk"
    );
}

/// The device below it, passed through call for call, counting the blocks
/// the file layer writes to it.
struct Handed {
    dev: LogDisk,
    blocks: Rc<Cell<u64>>,
}

impl Handed {
    fn count(&self, blocks: usize) {
        self.blocks.set(self.blocks.get() + blocks as u64);
    }
}

impl BlockDevice for Handed {
    fn block_size(&self) -> usize {
        self.dev.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.dev.num_blocks()
    }
    fn clock(&self) -> SimClock {
        self.dev.clock()
    }
    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> DiskResult<ServiceTime> {
        self.dev.read_block(block, buf)
    }
    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> DiskResult<ServiceTime> {
        self.dev.read_blocks(start, buf)
    }
    fn share_blocks<'a>(
        &mut self,
        start: u64,
        blocks: usize,
        spare: &'a mut Vec<u8>,
    ) -> DiskResult<(SharedBlocks<'a>, ServiceTime)> {
        self.dev.share_blocks(start, blocks, spare)
    }
    fn write_block(&mut self, block: u64, buf: &[u8]) -> DiskResult<ServiceTime> {
        self.count(1);
        self.dev.write_block(block, buf)
    }
    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> DiskResult<ServiceTime> {
        self.count(buf.len() / self.block_size());
        self.dev.write_blocks(start, buf)
    }
    fn write_gathered(&mut self, start: u64, blocks: &[&Arc<[u8]>]) -> DiskResult<ServiceTime> {
        self.count(blocks.len());
        self.dev.write_gathered(start, blocks)
    }
    fn trim(&mut self, block: u64) -> DiskResult<()> {
        self.dev.trim(block)
    }
    fn idle(&mut self, budget_ns: u64) -> u64 {
        self.dev.idle(budget_ns)
    }
    fn flush(&mut self) -> DiskResult<ServiceTime> {
        self.dev.flush()
    }
    fn disk_stats(&self) -> DiskStats {
        self.dev.disk_stats()
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
    fn inner_device(&self) -> Option<&dyn BlockDevice> {
        Some(&self.dev)
    }
    fn spans(&self) -> Spans {
        self.dev.spans()
    }
}

/// What [`lld_round_allocs`] measured over its counted rounds.
struct LldRounds {
    allocs: u64,
    cleaned: u64,
    /// Blocks the file layer handed the log, and the bytes the log
    /// digested.
    handed: u64,
    digested: u64,
}

/// Allocation requests, segments cleaned, blocks handed to the log and
/// bytes it digested, over `rounds` rounds of 64 synchronous 4 KiB
/// overwrites at scattered blocks of a file, a sync and an idle grant that
/// cleans, on UFS over the logical disk over the regular disk, after
/// `warm` such rounds. The counted rounds start once `start` lets them,
/// and go on past `rounds` while `busy` reads true.
fn lld_round_allocs(warm: u64, rounds: u64, start: &Barrier, busy: &AtomicBool) -> LldRounds {
    let disk = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), 4096);
    let cfg = LldConfig {
        idle_clean_target: u32::MAX,
        ..LldConfig::default()
    };
    let metrics = Metrics::enabled();
    let mut lld = LogDisk::format(Box::new(disk), cfg).unwrap();
    lld.set_metrics(metrics.clone());
    let blocks = Rc::new(Cell::new(0));
    let dev = Handed {
        dev: lld,
        blocks: Rc::clone(&blocks),
    };
    let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
    let f = fs.create("f").unwrap();
    fs.write(f, 0, &vec![1u8; 4096 * FILE_BLOCKS as usize])
        .unwrap();
    fs.sync().unwrap();
    fs.set_sync_writes(true);
    let block = [7u8; 4096];
    let round = |fs: &mut Ufs, r: u64| {
        for i in 0..64 {
            let at = (r * 64 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % FILE_BLOCKS;
            fs.write(f, at * 4096, &block).unwrap();
        }
        fs.sync().unwrap();
        fs.idle(1_000_000_000);
    };
    (0..warm).for_each(|r| round(&mut fs, r));
    let cleaned = |fs: &Ufs| {
        let lld = vlfs::disksim::probe_device::<LogDisk>(fs.device()).unwrap();
        lld.cleaner_stats().segments_cleaned
    };
    // Each round ends in an idle grant, which publishes the work counter.
    let digested = || metrics.counter_value("lld.bytes_digested");
    start.wait();
    let (before, cleaned_before) = (allocs(), cleaned(&fs));
    let (handed_before, digested_before) = (blocks.get(), digested());
    let mut r = warm;
    while r < warm + rounds || busy.load(Ordering::Acquire) {
        round(&mut fs, r);
        r += 1;
    }
    LldRounds {
        allocs: allocs() - before,
        cleaned: cleaned(&fs) - cleaned_before,
        handed: blocks.get() - handed_before,
        digested: digested() - digested_before,
    }
}

/// Once every segment has been written, bursts of synchronous overwrites
/// (each block appended to the open segment as the cache's own), syncs
/// (partial flushes, seals and checkpoints) and idle cleaning allocate
/// nothing per block written. Cleaning a segment allocates twice, for the
/// victim read's hold on the drive's pages (its handle and its piece list).
/// The log digests each block the file layer hands it once and the
/// cleaner's copies not at all.
#[test]
fn warm_bursts_syncs_and_cleaning_allocate_nothing_per_block_on_the_logical_disk() {
    let LldRounds {
        allocs,
        cleaned,
        handed,
        digested,
    } = lld_round_allocs(40, 40, &Barrier::new(1), &AtomicBool::new(false));
    assert_at_most_two_allocations_per_cleaned_segment(allocs, cleaned);
    assert_eq!(
        digested,
        handed * 4096,
        "a block the file layer hands the log is digested exactly once, a cleaner copy never"
    );
}

/// The logical-disk gate's bound: the idle grants cleaned, and each
/// cleaned segment allocated at most twice.
fn assert_at_most_two_allocations_per_cleaned_segment(allocs: u64, cleaned: u64) {
    assert!(cleaned > 0, "the idle grants must clean");
    assert!(
        allocs <= 2 * cleaned,
        "{allocs} allocations, {cleaned} segments cleaned"
    );
}

/// The VLD overwrite gate and the logical-disk rounds, run at once on two
/// threads, each read what they read alone. The logical disk's counted
/// rounds start as the other thread starts building its VLD and go on
/// until its measured overwrites end, so they run beside every page that
/// thread takes and parks. A page one thread parks is never the other's
/// to take, so neither finds its pool drained and allocates pages its own
/// cycle did not need.
#[test]
fn gates_side_by_side_read_what_they_read_alone() {
    let (start, busy) = (Barrier::new(2), AtomicBool::new(true));
    let (vld, lld) = std::thread::scope(|s| {
        let vld = s.spawn(|| {
            start.wait();
            let n = std::panic::catch_unwind(|| overwrite_allocs(Box::new(aged_vld()), 200, 500));
            busy.store(false, Ordering::Release);
            n.unwrap_or_else(|e| std::panic::resume_unwind(e))
        });
        let lld = s.spawn(|| lld_round_allocs(40, 40, &start, &busy));
        (vld.join().unwrap(), lld.join().unwrap())
    });
    assert_eq!(vld, 0, "the VLD overwrites beside the logical disk");
    assert_at_most_two_allocations_per_cleaned_segment(lld.allocs, lld.cleaned);
}
