//! The allocation gate for kept blocks: once warm, a synchronous 4 KiB
//! overwrite on UFS allocates nothing, over the VLD and over the regular
//! disk. The cache hands the drive its block, the drive parks the page
//! that block replaces in its pool, and the next copy-on-write takes it
//! back ([`vlfs::disksim::pooled_copy`]), so no step of the cycle calls
//! the allocator. The same holds with the logical disk in between: its
//! open segment keeps the cache's blocks, and its flushes and cleaner
//! copies hand the drive pages.
//!
//! Allocations are counted per thread, so tests running beside this one
//! on other threads do not show up in its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use vlfs::disksim::{BlockDevice, DiskSpec, RegularDisk, SimClock};
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

/// Held by each gate for its whole run. The drive's page pool has a list
/// all threads share, and a gate running beside another can find it
/// drained by the other and allocate a batch of pages that its own cycle
/// would not have needed.
static ONE_GATE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
    let _alone = ONE_GATE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

/// Allocation requests, and segments cleaned, over `rounds` rounds of 64
/// synchronous 4 KiB overwrites at scattered blocks of a file, a sync and
/// an idle grant that cleans, on UFS over the logical disk over the
/// regular disk, after `warm` such rounds.
fn lld_round_allocs(warm: u64, rounds: u64) -> (u64, u64) {
    let _alone = ONE_GATE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let disk = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), 4096);
    let cfg = LldConfig {
        idle_clean_target: u32::MAX,
        ..LldConfig::default()
    };
    let lld = LogDisk::format(Box::new(disk), cfg).unwrap();
    let mut fs = Ufs::format(Box::new(lld), HostModel::instant(), UfsConfig::default()).unwrap();
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
    let (before, cleaned_before) = (allocs(), cleaned(&fs));
    (warm..warm + rounds).for_each(|r| round(&mut fs, r));
    (allocs() - before, cleaned(&fs) - cleaned_before)
}

/// Once every segment has been written, bursts of synchronous overwrites
/// (each block appended to the open segment as the cache's own), syncs
/// (partial flushes, seals and checkpoints) and idle cleaning allocate
/// nothing per block written. Cleaning a segment allocates twice, for the
/// victim read's hold on the drive's pages (its handle and its piece list).
#[test]
fn warm_bursts_syncs_and_cleaning_allocate_nothing_per_block_on_the_logical_disk() {
    let (allocs, cleaned) = lld_round_allocs(40, 40);
    assert!(cleaned > 0, "the idle grants must clean");
    assert!(
        allocs <= 2 * cleaned,
        "{allocs} allocations, {cleaned} segments cleaned"
    );
}
