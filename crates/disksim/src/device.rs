//! The block-device interface file systems run on, and the classic
//! update-in-place implementation.
//!
//! The paper's experimental platform (its Figure 5) runs each file system on
//! either a "regular" disk or a Virtual Log Disk through the same device
//! driver interface. [`BlockDevice`] is that interface; [`RegularDisk`] is
//! the regular disk (logical blocks map linearly onto sectors and writes
//! update in place). The VLD implementation lives in the `vlog-core` crate.

use std::ops::Range;
use std::sync::Arc;

use crate::clock::SimClock;
use crate::disk::{Disk, DiskSnapshot, DiskStats, SharedSectors};
use crate::error::{DiskError, Result};
use crate::service::ServiceTime;
use crate::spec::DiskSpec;
use crate::SECTOR_BYTES;

/// A frozen, independently-restorable copy of a device stack's mutable
/// state.
///
/// Each [`BlockDevice`] implementation owns its snapshot type, which is
/// why this is a trait rather than an enum: the crates implementing
/// devices above `disksim` (the VLD, the log-structured logical disk) plug
/// in without this crate knowing about them. A layer keeps what its
/// snapshot carries in one `Clone` state value; its snapshot is that value
/// plus its inner device's snapshot, and `restore` builds the layer from
/// them through the same private assembler its constructors use.
///
/// Snapshots are plain data and `Send + Sync`: captured once, they can be
/// restored concurrently from many pool workers, each restore yielding a
/// fully independent live stack (media pages shared copy-on-write with the
/// snapshot and sibling forks). Restored stacks come up with disabled
/// observability handles and a fresh clock at the captured instant.
pub trait DeviceSnapshot: Send + Sync {
    /// Reconstruct an independent live device stack from this snapshot.
    fn restore(&self) -> Box<dyn BlockDevice>;
}

/// A logical block device with simulated timing.
///
/// All data-moving calls return the [`ServiceTime`] the request consumed;
/// the shared clock has already been advanced by that amount when the call
/// returns. Idle time is granted explicitly via [`BlockDevice::idle`], which
/// lets devices with background machinery (compactors, cleaners) use it.
pub trait BlockDevice {
    /// Logical block size in bytes (a multiple of the 512-byte sector).
    fn block_size(&self) -> usize;

    /// Number of addressable logical blocks.
    fn num_blocks(&self) -> u64;

    /// Handle to the simulation clock this device advances.
    fn clock(&self) -> SimClock;

    /// Read one block. `buf` must be exactly `block_size` bytes.
    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> Result<ServiceTime>;

    /// Write one block. `buf` must be exactly `block_size` bytes. The write
    /// is durable when the call returns (no volatile write-back cache).
    fn write_block(&mut self, block: u64, buf: &[u8]) -> Result<ServiceTime>;

    /// Read a contiguous run of blocks. The default issues one command per
    /// block; devices that can batch override this.
    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        let bs = self.block_size();
        check_chunks(bs, buf.len())?;
        let mut total = ServiceTime::ZERO;
        for (i, chunk) in buf.chunks_mut(bs).enumerate() {
            total += self.read_block(start + i as u64, chunk)?;
        }
        Ok(total)
    }

    /// The *shared* read: what [`BlockDevice::read_blocks`] delivers for
    /// `blocks` blocks at `start`, through the same command, lent instead
    /// of copied where the device can lend its media ([`RegularDisk`]
    /// does). The default reads into `spare`, resized to fit, and lends
    /// that, so a caller reusing one spare buffer allocates nothing per
    /// read.
    fn share_blocks<'a>(
        &mut self,
        start: u64,
        blocks: usize,
        spare: &'a mut Vec<u8>,
    ) -> Result<(SharedBlocks<'a>, ServiceTime)> {
        spare.resize(blocks * self.block_size(), 0);
        let st = self.read_blocks(start, spare)?;
        Ok((SharedBlocks::Copied(spare), st))
    }

    /// Write a contiguous run of blocks. See [`BlockDevice::read_blocks`].
    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> Result<ServiceTime> {
        let bs = self.block_size();
        check_chunks(bs, buf.len())?;
        let mut total = ServiceTime::ZERO;
        for (i, chunk) in buf.chunks(bs).enumerate() {
            total += self.write_block(start + i as u64, chunk)?;
        }
        Ok(total)
    }

    /// Write `blocks`, one block each, to the blocks from `start` on: what
    /// [`BlockDevice::write_block`] does with a lone block, and
    /// [`BlockDevice::write_blocks`] with several laid end to end.
    ///
    /// The blocks are the caller's handles. A device that copies borrows
    /// them; one that can keep a block as it is ([`RegularDisk`] and the
    /// VLD do, for a page-aligned 4 KiB block, and a
    /// [`FaultDisk`](crate::FaultDisk) passes them through to its device
    /// when no planned fault falls on the run) clones the handle instead
    /// of copying the bytes. Either way the bytes written are the block's
    /// at the call: the caller writes into a block it handed over only once
    /// `Arc::get_mut` says no one else holds it, and copies it otherwise.
    /// The default copies: a lone block through `write_block`, several
    /// laid end to end in a buffer.
    fn write_gathered(&mut self, start: u64, blocks: &[&Arc<[u8]>]) -> Result<ServiceTime> {
        if let [block] = blocks {
            return self.write_block(start, block);
        }
        let mut buf = Vec::with_capacity(blocks.iter().map(|b| b.len()).sum());
        blocks.iter().for_each(|b| buf.extend_from_slice(b));
        self.write_blocks(start, &buf)
    }

    /// Hint that a block's contents are dead (a delete the layer above has
    /// observed). Logical disks use this to free remapped space; the default
    /// does nothing, mirroring how deletes "are not visible to the device
    /// driver" in the paper.
    fn trim(&mut self, _block: u64) -> Result<()> {
        Ok(())
    }

    /// Grant up to `budget_ns` of idle time. The device may run background
    /// work (compaction, cleaning), advancing the clock as it goes, and
    /// returns the nanoseconds it actually consumed; the caller idles the
    /// clock through the remainder. A pass already started is finished, so
    /// the device may consume more than the budget. The default consumes
    /// nothing.
    fn idle(&mut self, _budget_ns: u64) -> u64 {
        0
    }

    /// Make all buffered state durable — a "sync" from the layer above.
    /// Write-through devices (the default) have nothing to do; the
    /// log-structured logical disk flushes its partial segment per the
    /// 75 % threshold and writes its checkpoint here.
    fn flush(&mut self) -> Result<ServiceTime> {
        Ok(ServiceTime::ZERO)
    }

    /// Cumulative low-level disk statistics (for Figure 9-style breakdowns).
    fn disk_stats(&self) -> DiskStats;

    /// Downcast support: convert the boxed device into [`std::any::Any`],
    /// so harnesses that build device stacks (`Ufs` over `FaultDisk` over
    /// `RegularDisk`, say) can unwrap them again after a simulated crash.
    /// Every implementation is one line: `self`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;

    /// Non-consuming downcast support: a borrowed [`std::any::Any`] view of
    /// the device, so audit harnesses can find a layer inside a *mounted*
    /// stack (e.g. the VLD under a fault layer) without dismantling it.
    /// Layers that wrap another device should also expose a borrow of their
    /// inner device so the probe can walk the stack; see
    /// [`probe_device`]. The default opts out.
    fn self_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Borrow the wrapped inner device, for stack-walking probes. `None`
    /// (the default) for bottom devices and layers that do not forward.
    fn inner_device(&self) -> Option<&dyn BlockDevice> {
        None
    }

    /// The causal-span handle the device attributes disk time against
    /// (disabled by default). Wrapping layers forward to their inner
    /// device, so a file system above any stack can clone the one handle
    /// the bottom [`Disk`] stamps events with and open spans on it.
    fn spans(&self) -> obs::Spans {
        obs::Spans::disabled()
    }

    /// Freeze this device stack's complete mutable state, or `None` (the
    /// default) for devices that do not support snapshotting. Wrapping
    /// layers return `None` when their inner device does.
    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        None
    }
}

/// The blocks a [`BlockDevice::share_blocks`] read delivered.
#[derive(Debug)]
pub enum SharedBlocks<'a> {
    /// The drive's own pages, lent without a copy (boxed: the handle
    /// carries its first pieces inline).
    Lent(Box<SharedSectors>),
    /// The caller's spare buffer, filled by [`BlockDevice::read_blocks`].
    Copied(&'a [u8]),
}

impl SharedBlocks<'_> {
    /// The drive's own page that is exactly bytes `range` of the read, as
    /// a block the caller may keep; `None` for a copied read, or a range
    /// that is not one whole written page (read those through
    /// [`SharedBlocks::get`]).
    pub fn page(&self, range: Range<usize>) -> Option<Arc<[u8]>> {
        match self {
            SharedBlocks::Lent(shared) => shared.page(range),
            SharedBlocks::Copied(_) => None,
        }
    }

    /// Bytes `range` of the read: borrowed where they lie on one page (or
    /// in the spare), else assembled in `scratch` — a range across a page
    /// boundary, or on a never-written page, which reads as zeros.
    pub fn get<'s>(&'s self, range: Range<usize>, scratch: &'s mut Vec<u8>) -> &'s [u8] {
        match self {
            SharedBlocks::Copied(bytes) => &bytes[range],
            SharedBlocks::Lent(shared) => match shared.get(range.clone()) {
                Some(bytes) => bytes,
                None => {
                    scratch.resize(range.len(), 0);
                    shared.copy_to(range.start, scratch);
                    scratch
                }
            },
        }
    }
}

/// Walk a device stack top-down and return the first layer of concrete type
/// `T`, without consuming anything. Relies on [`BlockDevice::self_any`] and
/// [`BlockDevice::inner_device`]; layers that implement neither are opaque
/// and end the walk.
pub fn probe_device<T: 'static>(top: &dyn BlockDevice) -> Option<&T> {
    let mut dev = top;
    loop {
        if let Some(hit) = dev.self_any().and_then(|a| a.downcast_ref::<T>()) {
            return Some(hit);
        }
        dev = dev.inner_device()?;
    }
}

/// Downcast a boxed device to a concrete type, panicking with a clear
/// message if the stack is not what the caller believed.
pub fn downcast_device<T: 'static>(dev: Box<dyn BlockDevice>) -> T {
    *dev.into_any()
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("device stack mismatch: expected {}", std::any::type_name::<T>()))
}

fn check_chunks(block_size: usize, len: usize) -> Result<()> {
    if !len.is_multiple_of(block_size) {
        return Err(DiskError::BadBufferLength {
            expected: (len / block_size + 1) * block_size,
            actual: len,
        });
    }
    Ok(())
}

/// The classic update-in-place disk: logical block `b` lives permanently at
/// sectors `[b*spb, (b+1)*spb)`.
#[derive(Debug)]
pub struct RegularDisk {
    disk: Disk,
    state: RegularState,
}

/// Everything a [`RegularDisk`] adds to its mechanical disk: the (fixed)
/// logical-block parameters.
#[derive(Debug, Clone, Copy)]
struct RegularState {
    block_sectors: u32,
    num_blocks: u64,
}

impl RegularDisk {
    /// Wrap a mechanical disk with `block_size`-byte logical blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a positive multiple of the sector size
    /// (a configuration error).
    pub fn new(spec: DiskSpec, clock: SimClock, block_size: usize) -> Self {
        Self::from_disk(Disk::new(spec, clock), block_size)
    }

    /// Wrap an *existing* mechanical disk (surviving media, e.g. after a
    /// simulated crash) with `block_size`-byte logical blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a positive multiple of the sector size
    /// (a configuration error).
    pub fn from_disk(disk: Disk, block_size: usize) -> Self {
        assert!(
            block_size > 0 && block_size.is_multiple_of(SECTOR_BYTES),
            "block size must be a multiple of {SECTOR_BYTES}"
        );
        let block_sectors = (block_size / SECTOR_BYTES) as u32;
        let state = RegularState {
            block_sectors,
            num_blocks: disk.spec().geometry.total_sectors() / block_sectors as u64,
        };
        Self { disk, state }
    }

    /// Unwrap, yielding the mechanical disk (for crash-test remounts and
    /// image comparison).
    pub fn into_disk(self) -> Disk {
        self.disk
    }

    /// Access the underlying mechanical disk (for cache policy, stats,
    /// test setup).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    fn lba(&self, block: u64) -> Result<u64> {
        if block >= self.state.num_blocks {
            return Err(DiskError::OutOfRange {
                addr: block,
                limit: self.state.num_blocks,
            });
        }
        Ok(block * self.state.block_sectors as u64)
    }
}

impl BlockDevice for RegularDisk {
    fn block_size(&self) -> usize {
        self.state.block_sectors as usize * SECTOR_BYTES
    }

    fn num_blocks(&self) -> u64 {
        self.state.num_blocks
    }

    fn clock(&self) -> SimClock {
        self.disk.clock()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        check_exact(self.block_size(), buf.len())?;
        let lba = self.lba(block)?;
        self.disk.read_sectors(lba, buf)
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> Result<ServiceTime> {
        check_exact(self.block_size(), buf.len())?;
        let lba = self.lba(block)?;
        self.disk.write_sectors(lba, buf)
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        check_chunks(self.block_size(), buf.len())?;
        let lba = self.lba(start)?;
        let last = start + (buf.len() / self.block_size()) as u64;
        if last > self.state.num_blocks {
            return Err(DiskError::TruncatedTransfer);
        }
        // One command for the whole physically contiguous run.
        self.disk.read_sectors(lba, buf)
    }

    fn share_blocks<'a>(
        &mut self,
        start: u64,
        blocks: usize,
        _spare: &'a mut Vec<u8>,
    ) -> Result<(SharedBlocks<'a>, ServiceTime)> {
        let lba = self.lba(start)?;
        if blocks as u64 > self.state.num_blocks - start {
            return Err(DiskError::TruncatedTransfer);
        }
        let count = u32::try_from(blocks as u64 * self.state.block_sectors as u64)
            .map_err(|_| DiskError::TruncatedTransfer)?;
        let (shared, st) = self.disk.share_sectors(lba, count)?;
        Ok((SharedBlocks::Lent(Box::new(shared)), st))
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> Result<ServiceTime> {
        check_chunks(self.block_size(), buf.len())?;
        let lba = self.lba(start)?;
        let last = start + (buf.len() / self.block_size()) as u64;
        if last > self.state.num_blocks {
            return Err(DiskError::TruncatedTransfer);
        }
        self.disk.write_sectors(lba, buf)
    }

    fn write_gathered(&mut self, start: u64, blocks: &[&Arc<[u8]>]) -> Result<ServiceTime> {
        for block in blocks {
            check_exact(self.block_size(), block.len())?;
        }
        let lba = self.lba(start)?;
        if blocks.len() as u64 > self.state.num_blocks - start {
            return Err(DiskError::TruncatedTransfer);
        }
        // One command for the whole run, each block kept as its page where
        // it is one, else copied where it lies.
        self.disk.write_gathered(lba, blocks)
    }

    fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn spans(&self) -> obs::Spans {
        self.disk.spans().clone()
    }

    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        Some(Box::new(RegularDiskSnapshot {
            disk: self.disk.snapshot(),
            state: self.state,
        }))
    }
}

/// Snapshot of a [`RegularDisk`]: the mechanical disk's snapshot plus the
/// layer's state.
#[derive(Debug, Clone)]
pub(crate) struct RegularDiskSnapshot {
    disk: DiskSnapshot,
    state: RegularState,
}

impl DeviceSnapshot for RegularDiskSnapshot {
    fn restore(&self) -> Box<dyn BlockDevice> {
        Box::new(RegularDisk {
            disk: self.disk.restore(),
            state: self.state,
        })
    }
}

fn check_exact(block_size: usize, len: usize) -> Result<()> {
    if len != block_size {
        return Err(DiskError::BadBufferLength {
            expected: block_size,
            actual: len,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> RegularDisk {
        RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), 4096)
    }

    #[test]
    fn geometry_derived_block_count() {
        let d = dev();
        // 36 cyl * 19 tracks * 72 sectors / 8 sectors-per-block
        assert_eq!(d.num_blocks(), 36 * 19 * 72 / 8);
        assert_eq!(d.block_size(), 4096);
    }

    #[test]
    fn block_round_trip() {
        let mut d = dev();
        let w = vec![0x5au8; 4096];
        d.write_block(10, &w).unwrap();
        let mut r = vec![0u8; 4096];
        d.read_block(10, &mut r).unwrap();
        assert_eq!(w, r);
    }

    #[test]
    fn multi_block_ops_are_single_commands() {
        let mut d = dev();
        let w = vec![1u8; 4096 * 4];
        let st = d.write_blocks(0, &w).unwrap();
        assert_eq!(st.overhead_ns, d.disk.spec().command_overhead_ns);
        let mut r = vec![0u8; 4096 * 4];
        let st = d.read_blocks(0, &mut r).unwrap();
        assert_eq!(st.overhead_ns, d.disk.spec().command_overhead_ns);
        assert_eq!(w, r);
    }

    /// A gathered write is one command, the write of its blocks laid end
    /// to end; a block of another size or a run past the end is refused.
    #[test]
    fn gathered_writes_are_the_write_of_their_blocks() {
        let (mut gathered, mut flat) = (dev(), dev());
        let blocks: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; 4096]).collect();
        let handles: Vec<Arc<[u8]>> = blocks.iter().map(|b| b[..].into()).collect();
        let refs: Vec<&Arc<[u8]>> = handles.iter().collect();
        let st = gathered.write_gathered(5, &refs).unwrap();
        assert_eq!(st, flat.write_blocks(5, &blocks.concat()).unwrap());
        assert_eq!(
            format!("{:?}", gathered.disk_stats()),
            format!("{:?}", flat.disk_stats())
        );
        let mut r = vec![0u8; 3 * 4096];
        gathered.read_blocks(5, &mut r).unwrap();
        assert_eq!(r, blocks.concat());
        let n = gathered.num_blocks();
        let (sector, block): (Arc<[u8]>, Arc<[u8]>) = (Arc::new([0u8; 512]), Arc::new([0u8; 4096]));
        assert!(gathered.write_gathered(0, &[&sector]).is_err());
        assert!(gathered.write_gathered(n - 1, &[&block, &block]).is_err());
        assert!(gathered.write_gathered(n, &[&block]).is_err());
        assert_eq!(gathered.disk_stats().writes, 1);
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut d = dev();
        assert!(d.write_block(0, &[0u8; 512]).is_err());
        assert!(d.read_block(0, &mut [0u8; 8192]).is_err());
        assert!(d.read_blocks(0, &mut [0u8; 1000]).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let n = d.num_blocks();
        assert!(d.write_block(n, &vec![0u8; 4096]).is_err());
        assert!(d.write_blocks(n - 1, &vec![0u8; 8192]).is_err());
    }

    #[test]
    fn default_idle_consumes_nothing() {
        let mut d = dev();
        assert_eq!(d.idle(1_000_000), 0);
    }

    #[test]
    fn trim_is_a_noop_by_default() {
        let mut d = dev();
        d.write_block(3, &vec![9u8; 4096]).unwrap();
        d.trim(3).unwrap();
        let mut r = vec![0u8; 4096];
        d.read_block(3, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 9));
    }

    #[test]
    fn update_in_place_pays_rotation() {
        // Repeatedly rewriting the same block costs about a full revolution
        // each time — the fundamental update-in-place penalty the paper
        // eager-writes around.
        let mut d = dev();
        let buf = vec![0u8; 4096];
        d.write_block(5, &buf).unwrap();
        let st = d.write_block(5, &buf).unwrap();
        let rev = d.disk.spec().mech.revolution_ns();
        assert!(
            st.rotation_ns > rev / 2,
            "rewrite rotation {:?} < half rev",
            st.rotation_ns
        );
    }
}
