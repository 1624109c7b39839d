//! The common file-system interface the benchmarks drive.
//!
//! Both file systems (update-in-place UFS and log-structured LFS) implement
//! [`FileSystem`] over any [`disksim::BlockDevice`], so every benchmark in
//! the paper's §5 runs unchanged across the four system combinations of its
//! Figure 5.

use crate::error::FsResult;
use disksim::{Metrics, SimClock};

/// Opaque file handle.
pub type FileId = u64;

/// A file system with simulated timing. All operations advance the shared
/// clock by host CPU cost plus any device time they incur.
pub trait FileSystem {
    /// Create an empty file. Fails with `Exists` if the name is taken.
    /// Names may be paths (`"a/b/c"`) on file systems with directory
    /// support.
    fn create(&mut self, name: &str) -> FsResult<FileId>;

    /// Create a directory. The default refuses: directory support is
    /// optional (the paper's benchmarks use a flat namespace).
    fn mkdir(&mut self, _path: &str) -> FsResult<()> {
        Err(crate::FsError::Invalid("directories not supported"))
    }

    /// Open an existing file by name.
    fn open(&mut self, name: &str) -> FsResult<FileId>;

    /// Write `data` at byte `offset`, extending the file as needed.
    ///
    /// With synchronous data writes enabled (see
    /// [`FileSystem::set_sync_writes`]) the call returns only after the
    /// data is on the device; otherwise data may linger in the cache until
    /// [`FileSystem::sync`], eviction, or (for LFS) a segment fill.
    fn write(&mut self, f: FileId, offset: u64, data: &[u8]) -> FsResult<()>;

    /// Read up to `out.len()` bytes at `offset`; returns bytes read
    /// (short at end of file).
    fn read(&mut self, f: FileId, offset: u64, out: &mut [u8]) -> FsResult<usize>;

    /// Remove a file and free its blocks.
    fn delete(&mut self, name: &str) -> FsResult<()>;

    /// Rename a file. Fails with `NotFound` if `from` does not exist and
    /// `Exists` if `to` is already taken. The default refuses: rename
    /// support is optional (the paper's benchmarks never rename).
    fn rename(&mut self, _from: &str, _to: &str) -> FsResult<()> {
        Err(crate::FsError::Invalid("rename not supported"))
    }

    /// Current size of a file in bytes.
    fn file_size(&mut self, f: FileId) -> FsResult<u64>;

    /// Flush all dirty state to the device ("sync").
    fn sync(&mut self) -> FsResult<()>;

    /// Drop clean cached data so subsequent reads hit the device — the
    /// benchmark "cache flush" between phases.
    fn drop_caches(&mut self);

    /// Make data writes synchronous (like `O_SYNC`) or delayed. Metadata
    /// update discipline is the file system's own affair (UFS: always
    /// synchronous; LFS: logged).
    fn set_sync_writes(&mut self, on: bool);

    /// Grant `ns` of idle wall-clock time. Background machinery (VLD
    /// compactor, LFS cleaner) may consume part of it; the remainder
    /// passes as pure idle, and the clock advances by `ns`. A pass the
    /// machinery has started is not pre-empted: when it runs past the
    /// grant the clock is left where it finished, so the overrun is charged
    /// to the next operation (see [`grant_idle`]).
    fn idle(&mut self, ns: u64);

    /// Handle to the simulation clock.
    fn clock(&self) -> SimClock;

    /// Fraction of data capacity in use, as `df` would report.
    fn utilization(&self) -> f64;

    /// Data blocks still allocatable.
    fn free_blocks(&self) -> u64;
}

/// Drive an idle grant through a device, then let the clock cover the rest.
/// Shared by file-system implementations of [`FileSystem::idle`]. A device
/// pass that runs past the grant leaves the clock past its end; each grant
/// adds to `idle.overruns` (1 if it ran over) and `idle.overrun_ns` (by how
/// much) on `metrics`.
pub fn grant_idle<D: disksim::BlockDevice + ?Sized>(device: &mut D, ns: u64, metrics: &Metrics) {
    let clock = device.clock();
    let end = clock.now() + ns;
    device.idle(ns);
    let overrun = clock.now().saturating_sub(end);
    metrics.add("idle.overruns", u64::from(overrun > 0));
    metrics.add("idle.overrun_ns", overrun);
    clock.advance_to(end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{BlockDevice, DiskSpec, DiskStats, RegularDisk, ServiceTime};

    #[test]
    fn grant_idle_advances_exactly() {
        let mut d = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
        let c = d.clock();
        let m = Metrics::enabled();
        grant_idle(&mut d, 1_000_000, &m);
        assert_eq!(c.now(), 1_000_000);
        assert_eq!(m.counter_value("idle.overruns"), 0);
        assert_eq!(m.counter_value("idle.overrun_ns"), 0);
    }

    /// A device whose every idle pass takes three times its grant.
    struct Overrunning(RegularDisk);

    impl BlockDevice for Overrunning {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
        fn clock(&self) -> SimClock {
            self.0.clock()
        }
        fn read_block(&mut self, block: u64, buf: &mut [u8]) -> disksim::Result<ServiceTime> {
            self.0.read_block(block, buf)
        }
        fn write_block(&mut self, block: u64, buf: &[u8]) -> disksim::Result<ServiceTime> {
            self.0.write_block(block, buf)
        }
        fn idle(&mut self, budget_ns: u64) -> u64 {
            self.0.clock().advance(3 * budget_ns);
            3 * budget_ns
        }
        fn disk_stats(&self) -> DiskStats {
            self.0.disk_stats()
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// An overrunning pass is not cut short: the clock stays where it
    /// ended, and the overrun is counted.
    #[test]
    fn grant_idle_counts_an_overrun() {
        let disk = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
        let mut d = Overrunning(disk);
        let c = d.clock();
        let m = Metrics::enabled();
        grant_idle(&mut d, 1_000_000, &m);
        assert_eq!(c.now(), 3_000_000);
        grant_idle(&mut d, 500_000, &m);
        assert_eq!(c.now(), 4_500_000);
        assert_eq!(m.counter_value("idle.overruns"), 2);
        assert_eq!(m.counter_value("idle.overrun_ns"), 3_000_000);
    }
}
