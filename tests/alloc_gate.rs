//! The allocation gate for kept blocks: once warm, a synchronous 4 KiB
//! overwrite on UFS allocates nothing, over the VLD and over the regular
//! disk. The cache hands the drive its block, the drive parks the page
//! that block replaces in its pool, and the next copy-on-write takes it
//! back ([`vlfs::disksim::pooled_copy`]), so no step of the cycle calls
//! the allocator.
//!
//! Allocations are counted per thread, so tests running beside this one
//! on other threads do not show up in its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vlfs::disksim::{BlockDevice, DiskSpec, RegularDisk, SimClock};
use vlfs::fscore::{FileSystem, HostModel};
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
