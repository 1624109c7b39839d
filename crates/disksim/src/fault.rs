//! Deterministic fault injection for any [`BlockDevice`].
//!
//! [`FaultDisk`] wraps a device and injects failures from a [`FaultPlan`]:
//! a map from *write-op index* (every block written counts as one op,
//! whether it arrives via `write_block` or inside a `write_blocks` run) to
//! a [`WriteFault`]. Because the plan is data and the simulation is fully
//! deterministic, the same plan over the same workload always produces the
//! same post-crash media image — the property crash-point exploration and
//! the determinism property tests rely on.
//!
//! Supported faults:
//!
//! * **Power cut** — op *k* writes only its first `survivors` sectors (a
//!   torn write; `survivors == 0` is a clean cut losing the whole block),
//!   then the device is dead: the op and everything after it fails with
//!   [`DiskError::PowerFailure`]. The media keeps what was acknowledged;
//!   [`FaultDisk::into_parts`] hands it back for recovery/remount.
//! * **Silent corruption** — op *k*'s buffer is deterministically mutated
//!   (seeded) before it reaches the media, and the op still succeeds. This
//!   models a firmware/transfer bug; it exists to exercise checksum and
//!   fsck paths, so corrupted writes are *not* recorded as acknowledged.
//! * **Transient error** — op *k* fails once with [`DiskError::Transient`]
//!   and no side effects; the op index is consumed, so a retry proceeds
//!   normally.
//!
//! The wrapper also journals a content hash of every *acknowledged* write,
//! so a harness can later assert the device's central durability contract:
//! no acknowledged write is ever lost (`into_parts`).

use std::collections::{BTreeMap, HashMap};

use obs::{OpKind, TraceEvent, Tracer};

use crate::clock::SimClock;
use crate::device::{BlockDevice, DeviceSnapshot, SharedBlocks};
use crate::disk::DiskStats;
use crate::error::{DiskError, Result};
use crate::service::ServiceTime;
use crate::SECTOR_BYTES;

/// The content hash of the acknowledged-write journal: the workspace's
/// word-wise [`crate::digest::Digest`] over the block. Exposed so harnesses
/// can hash their own buffers the same way.
pub fn content_hash(data: &[u8]) -> u64 {
    crate::digest::digest(data)
}

/// SplitMix64 step, used to derive corruption offsets deterministically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What happens to one write op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Power fails during this write: the first `survivors` sectors of the
    /// block reach the media (0 = nothing does), the op returns
    /// [`DiskError::PowerFailure`], and every later op fails the same way.
    PowerCut {
        /// Sectors of the affected block that hit the media before power
        /// died.
        survivors: u32,
    },
    /// The buffer is silently corrupted (seeded, deterministic) before the
    /// write proceeds; the op succeeds.
    Corrupt {
        /// Seed for the deterministic mutation.
        seed: u64,
    },
    /// The op fails once with [`DiskError::Transient`], no side effects.
    Transient,
}

/// A deterministic schedule of write faults, keyed by 1-based write-op
/// index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: BTreeMap<u64, WriteFault>,
}

impl FaultPlan {
    /// A plan with no faults (useful for reference runs that count ops).
    pub fn none() -> Self {
        Self::default()
    }

    /// Power fails cleanly after `acked` write ops: ops `1..=acked`
    /// succeed, op `acked + 1` (and everything after) fails with nothing
    /// written.
    pub fn power_cut_after(acked: u64) -> Self {
        Self::none().with(acked + 1, WriteFault::PowerCut { survivors: 0 })
    }

    /// Power fails *during* write op `op`: its first `survivors` sectors
    /// reach the media, the rest of the block keeps its old contents.
    pub fn torn_power_cut(op: u64, survivors: u32) -> Self {
        Self::none().with(op, WriteFault::PowerCut { survivors })
    }

    /// Silently corrupt write op `op` (seeded).
    pub fn corrupt_write(op: u64, seed: u64) -> Self {
        Self::none().with(op, WriteFault::Corrupt { seed })
    }

    /// Fail write op `op` once with a transient error.
    pub fn transient(op: u64) -> Self {
        Self::none().with(op, WriteFault::Transient)
    }

    /// Add (or replace) the fault for write op `op`. Builder-style, so
    /// plans compose: `FaultPlan::transient(3).with(9, ...)`.
    pub fn with(mut self, op: u64, fault: WriteFault) -> Self {
        self.events.insert(op, fault);
        self
    }

    /// Does any event fall in the half-open op range `[start, end)`?
    fn intersects(&self, start: u64, end: u64) -> bool {
        self.events.range(start..end).next().is_some()
    }
}

/// Counters for the faults actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Power cuts fired (0 or 1).
    pub power_cuts: u64,
    /// Sectors of the cut block that survived (torn write), if any.
    pub(crate) torn_sectors: u32,
    /// The block a torn power-cut write landed on (its media contents are
    /// a blend and match no acknowledged write).
    pub torn_block: Option<u64>,
    /// Writes silently corrupted.
    pub(crate) corruptions: u64,
    /// Transient failures returned.
    pub transients: u64,
    /// Ops refused because the device was already dead.
    pub(crate) refused_after_cut: u64,
}

/// A [`BlockDevice`] adapter that injects failures from a [`FaultPlan`].
pub struct FaultDisk {
    inner: Box<dyn BlockDevice>,
    state: FaultState,
    /// Reusable buffer for the corrupt-write path, so repeated injected
    /// corruptions don't allocate per write.
    scratch: Vec<u8>,
    /// Optional event tracer; injected faults are recorded as
    /// [`OpKind::Fault`] events with a zero service-time breakdown.
    tracer: Option<Tracer>,
}

/// The fault plan's progress: everything a [`FaultDisk`] adds to its inner
/// device that a snapshot must carry.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    /// 1-based index of the next write op.
    next_op: u64,
    /// Write ops the caller saw succeed (faulted ops consume an index in
    /// `next_op` but are not acknowledged).
    acked_ops: u64,
    powered_off: bool,
    log: FaultLog,
    /// Block → content hash of its last acknowledged write.
    acked: HashMap<u64, u64>,
}

impl FaultDisk {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Box<dyn BlockDevice>, plan: FaultPlan) -> Self {
        let state = FaultState {
            plan,
            next_op: 1,
            acked_ops: 0,
            powered_off: false,
            log: FaultLog::default(),
            acked: HashMap::new(),
        };
        Self::assemble(inner, state)
    }

    /// The live layer over `inner` in `state`, tracer detached.
    fn assemble(inner: Box<dyn BlockDevice>, state: FaultState) -> Self {
        Self {
            inner,
            state,
            scratch: Vec::new(),
            tracer: None,
        }
    }

    /// Attach (or detach) an event tracer; each injected fault emits one
    /// [`OpKind::Fault`] event (faults consume no simulated time, so the
    /// breakdown fields are zero and busy-sum invariants are unaffected).
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    fn trace_fault(&self, block: u64, sectors: u32) {
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent {
                at_ns: self.inner.clock().now(),
                kind: OpKind::Fault,
                scope: 0,
                // Zero-duration fault markers are not causal disk work, so
                // they stay unattributed rather than consulting the span
                // stack of the device below.
                span: 0,
                lba: block,
                sectors,
                cyl: 0,
                track: 0,
                sector: 0,
                seek_cyls: 0,
                overhead_ns: 0,
                seek_ns: 0,
                head_switch_ns: 0,
                rotation_ns: 0,
                transfer_ns: 0,
            });
        }
    }

    /// Write ops acknowledged to the caller so far (reference runs use
    /// this to learn the total op count `W` of a workload; crash runs use
    /// it as the cut point `k`). Faulted ops consume a plan index but do
    /// not count.
    pub fn write_ops(&self) -> u64 {
        self.state.acked_ops
    }

    /// Has the power cut fired?
    pub fn is_powered_off(&self) -> bool {
        self.state.powered_off
    }

    /// What faults were actually injected.
    pub fn fault_log(&self) -> FaultLog {
        self.state.log
    }

    /// Unwrap, handing back everything a crash harness needs in one move:
    /// acknowledged-op count, fault log, the acknowledged-write journal
    /// (content hash by block; corrupted writes are deliberately excluded,
    /// the caller was lied to), and the (possibly "powerless") inner
    /// device — the surviving media.
    pub fn into_parts(self) -> (u64, FaultLog, HashMap<u64, u64>, Box<dyn BlockDevice>) {
        (
            self.state.acked_ops,
            self.state.log,
            self.state.acked,
            self.inner,
        )
    }

    fn check_power(&mut self) -> Result<()> {
        if self.state.powered_off {
            self.state.log.refused_after_cut += 1;
            return Err(DiskError::PowerFailure);
        }
        Ok(())
    }

    /// One write op through the plan. Factored out so `write_blocks` can
    /// run per-block when a fault falls inside its range.
    fn write_one(&mut self, block: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.check_power()?;
        let op = self.state.next_op;
        self.state.next_op += 1;
        match self.state.plan.events.get(&op).copied() {
            None => {
                let t = self.inner.write_block(block, buf)?;
                self.state.acked.insert(block, content_hash(buf));
                self.state.acked_ops += 1;
                Ok(t)
            }
            Some(WriteFault::Transient) => {
                self.state.log.transients += 1;
                self.trace_fault(block, (buf.len() / SECTOR_BYTES) as u32);
                Err(DiskError::Transient)
            }
            Some(WriteFault::Corrupt { seed }) => {
                let mut state = seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                self.scratch.clear();
                self.scratch.extend_from_slice(buf);
                // Flip a handful of bytes scattered through the block.
                for _ in 0..4 {
                    let r = splitmix64(&mut state);
                    let pos = (r as usize) % self.scratch.len();
                    self.scratch[pos] ^= (r >> 32) as u8 | 1;
                }
                self.state.log.corruptions += 1;
                self.state.acked_ops += 1;
                self.trace_fault(block, (buf.len() / SECTOR_BYTES) as u32);
                self.inner.write_block(block, &self.scratch)
                // The op is acknowledged (the caller saw success) but its
                // content hash is deliberately not: the caller was lied to.
            }
            Some(WriteFault::PowerCut { survivors }) => {
                self.state.powered_off = true;
                self.state.log.power_cuts += 1;
                let spb = (buf.len() / SECTOR_BYTES) as u32;
                let survivors = survivors.min(spb);
                self.trace_fault(block, survivors);
                if survivors > 0 {
                    // A torn write: blend the new prefix over the block's
                    // old contents, sector-granular, and let that reach the
                    // media before the lights go out.
                    self.state.log.torn_sectors = survivors;
                    self.state.log.torn_block = Some(block);
                    let mut old = vec![0u8; buf.len()];
                    self.inner.read_block(block, &mut old)?;
                    let keep = survivors as usize * SECTOR_BYTES;
                    old[..keep].copy_from_slice(&buf[..keep]);
                    self.inner.write_block(block, &old)?;
                }
                Err(DiskError::PowerFailure)
            }
        }
    }
}

impl std::fmt::Debug for FaultDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDisk")
            .field("plan", &self.state.plan)
            .field("next_op", &self.state.next_op)
            .field("powered_off", &self.state.powered_off)
            .field("log", &self.state.log)
            .finish_non_exhaustive()
    }
}

impl BlockDevice for FaultDisk {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn clock(&self) -> SimClock {
        self.inner.clock()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        self.check_power()?;
        self.inner.read_block(block, buf)
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.write_one(block, buf)
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        self.check_power()?;
        self.inner.read_blocks(start, buf)
    }

    fn share_blocks<'a>(
        &mut self,
        start: u64,
        blocks: usize,
        spare: &'a mut Vec<u8>,
    ) -> Result<(SharedBlocks<'a>, ServiceTime)> {
        self.check_power()?;
        self.inner.share_blocks(start, blocks, spare)
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.check_power()?;
        let bs = self.block_size();
        if bs == 0 || !buf.len().is_multiple_of(bs) {
            return Err(DiskError::BadBufferLength {
                expected: (buf.len() / bs.max(1) + 1) * bs,
                actual: buf.len(),
            });
        }
        let n = (buf.len() / bs) as u64;
        if !self
            .state
            .plan
            .intersects(self.state.next_op, self.state.next_op + n)
        {
            // No fault in range: forward the whole run (preserves the
            // device's clustering/timing behaviour) and ack every block.
            let t = self.inner.write_blocks(start, buf)?;
            for (i, chunk) in buf.chunks(bs).enumerate() {
                self.state
                    .acked
                    .insert(start + i as u64, content_hash(chunk));
            }
            self.state.next_op += n;
            self.state.acked_ops += n;
            return Ok(t);
        }
        // A fault lands inside this run: apply it block by block, in
        // ascending order, stopping at the first failure — exactly what a
        // mid-transfer power loss does to a large sequential write.
        let mut total = ServiceTime::ZERO;
        for (i, chunk) in buf.chunks(bs).enumerate() {
            total += self.write_one(start + i as u64, chunk)?;
        }
        Ok(total)
    }

    fn trim(&mut self, block: u64) -> Result<()> {
        self.check_power()?;
        self.inner.trim(block)
    }

    fn idle(&mut self, budget_ns: u64) -> u64 {
        if self.state.powered_off {
            return 0;
        }
        self.inner.idle(budget_ns)
    }

    fn flush(&mut self) -> Result<ServiceTime> {
        self.check_power()?;
        self.inner.flush()
    }

    fn disk_stats(&self) -> DiskStats {
        self.inner.disk_stats()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn self_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn inner_device(&self) -> Option<&dyn BlockDevice> {
        Some(self.inner.as_ref())
    }

    fn spans(&self) -> obs::Spans {
        self.inner.spans()
    }

    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        Some(Box::new(FaultDiskSnapshot {
            inner: self.inner.snapshot()?,
            state: self.state.clone(),
        }))
    }
}

/// Snapshot of a [`FaultDisk`]: the wrapped device's snapshot plus the
/// fault plan's progress (op cursor, power state, acknowledged-write
/// journal).
pub(crate) struct FaultDiskSnapshot {
    inner: Box<dyn DeviceSnapshot>,
    state: FaultState,
}

impl DeviceSnapshot for FaultDiskSnapshot {
    fn restore(&self) -> Box<dyn BlockDevice> {
        Box::new(FaultDisk::assemble(
            self.inner.restore(),
            self.state.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::device::RegularDisk;
    use crate::spec::DiskSpec;

    const BS: usize = 4096;

    fn dev(plan: FaultPlan) -> FaultDisk {
        let raw = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BS);
        FaultDisk::new(Box::new(raw), plan)
    }

    fn block(tag: u8) -> Vec<u8> {
        (0..BS).map(|i| tag ^ (i % 251) as u8).collect()
    }

    /// Without faults the wrapper is the bare disk: the same writes, then a
    /// plain and a shared read, give the same bytes, `ServiceTime`s,
    /// `DiskStats` and clock (instant and event count) on both.
    #[test]
    fn faultless_plan_is_transparent_and_counts_ops() {
        let mut d = dev(FaultPlan::none());
        let mut bare = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BS);
        let run = [block(9), block(8)].concat();
        for dev in [&mut d as &mut dyn BlockDevice, &mut bare] {
            for i in 0..5u64 {
                dev.write_block(i, &block(i as u8)).unwrap();
            }
            dev.write_blocks(10, &run).unwrap();
        }
        assert_eq!(d.write_ops(), 7);
        assert!(!d.is_powered_off());
        let mut r = vec![0u8; BS];
        d.read_block(3, &mut r).unwrap();
        assert_eq!(r, block(3));

        bare.read_block(3, &mut r).unwrap();
        let (mut spare, mut scratch) = (Vec::new(), Vec::new());
        let (shared, st) = d.share_blocks(9, 3, &mut spare).unwrap();
        assert!(
            matches!(shared, SharedBlocks::Lent(_)),
            "the read is lent, not copied"
        );
        let got = shared.get(0..3 * BS, &mut scratch).to_vec();
        let mut bare_spare = Vec::new();
        let (bare_shared, bare_st) = bare.share_blocks(9, 3, &mut bare_spare).unwrap();
        assert_eq!(got, bare_shared.get(0..3 * BS, &mut scratch));
        assert_eq!(&got[BS..], &run[..]);
        assert_eq!(st, bare_st);
        let stats = |s: DiskStats| (s.reads, s.writes, s.sectors_read, s.sectors_written, s.busy);
        assert_eq!(stats(d.disk_stats()), stats(bare.disk_stats()));
        let (clock, bare_clock) = (d.clock(), bare.clock());
        assert_eq!(
            (clock.now(), clock.local_events()),
            (bare_clock.now(), bare_clock.local_events())
        );
        let (_, _, acked, _) = d.into_parts();
        assert_eq!(acked.len(), 7);
        assert_eq!(acked[&11], content_hash(&block(8)));
    }

    #[test]
    fn clean_power_cut_kills_the_device() {
        let mut d = dev(FaultPlan::power_cut_after(2));
        d.write_block(0, &block(1)).unwrap();
        d.write_block(1, &block(2)).unwrap();
        let err = d.write_block(2, &block(3)).unwrap_err();
        assert_eq!(err, DiskError::PowerFailure);
        assert!(d.is_powered_off());
        // Everything fails now, with no side effects.
        assert_eq!(
            d.write_block(4, &block(4)).unwrap_err(),
            DiskError::PowerFailure
        );
        assert_eq!(
            d.read_block(0, &mut vec![0u8; BS]).unwrap_err(),
            DiskError::PowerFailure
        );
        assert!(d.flush().is_err());
        assert_eq!(
            d.share_blocks(0, 1, &mut Vec::new()).err(),
            Some(DiskError::PowerFailure)
        );
        assert_eq!(d.idle(1_000_000), 0);
        assert!(d.fault_log().refused_after_cut >= 2);
        // The media survives: acked writes are there, the cut one is not.
        let mut raw = d.into_parts().3;
        let mut r = vec![0u8; BS];
        raw.read_block(1, &mut r).unwrap();
        assert_eq!(r, block(2));
        raw.read_block(2, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0), "cut write must not land");
    }

    #[test]
    fn torn_write_keeps_a_sector_prefix() {
        let mut d = dev(FaultPlan::none());
        d.write_block(7, &block(0xAA)).unwrap();
        let mut d = {
            let raw = d.into_parts().3;
            FaultDisk::new(raw, FaultPlan::torn_power_cut(1, 3))
        };
        assert_eq!(
            d.write_block(7, &block(0x55)).unwrap_err(),
            DiskError::PowerFailure
        );
        assert_eq!(d.fault_log().torn_sectors, 3);
        let mut raw = d.into_parts().3;
        let mut r = vec![0u8; BS];
        raw.read_block(7, &mut r).unwrap();
        let keep = 3 * SECTOR_BYTES;
        assert_eq!(&r[..keep], &block(0x55)[..keep], "new prefix");
        assert_eq!(&r[keep..], &block(0xAA)[keep..], "old suffix");
    }

    #[test]
    fn power_cut_inside_a_multi_block_run() {
        let mut d = dev(FaultPlan::power_cut_after(2));
        let buf = [block(1), block(2), block(3), block(4)].concat();
        assert!(d.write_blocks(20, &buf).is_err());
        let mut raw = d.into_parts().3;
        let mut r = vec![0u8; BS];
        raw.read_block(20, &mut r).unwrap();
        assert_eq!(r, block(1));
        raw.read_block(21, &mut r).unwrap();
        assert_eq!(r, block(2));
        raw.read_block(22, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0), "block past the cut landed");
    }

    #[test]
    fn transient_error_is_retryable() {
        let mut d = dev(FaultPlan::transient(1));
        assert_eq!(
            d.write_block(0, &block(9)).unwrap_err(),
            DiskError::Transient
        );
        assert!(!d.is_powered_off());
        // The op index was consumed: the retry succeeds.
        d.write_block(0, &block(9)).unwrap();
        let mut r = vec![0u8; BS];
        d.read_block(0, &mut r).unwrap();
        assert_eq!(r, block(9));
        assert_eq!(d.fault_log().transients, 1);
    }

    #[test]
    fn corruption_is_silent_deterministic_and_unacked() {
        let run = || {
            let mut d = dev(FaultPlan::corrupt_write(2, 0xDEAD_BEEF));
            d.write_block(0, &block(1)).unwrap();
            d.write_block(1, &block(2)).unwrap(); // corrupted, still Ok
            let mut r = vec![0u8; BS];
            d.read_block(1, &mut r).unwrap();
            (r, d.fault_log().corruptions, d.into_parts().2.len())
        };
        let (a, corruptions, acked) = run();
        let (b, _, _) = run();
        assert_ne!(a, block(2), "corruption must change the payload");
        assert_eq!(a, b, "same seed, same corruption");
        assert_eq!(corruptions, 1);
        assert_eq!(acked, 1, "corrupted write must not be journalled");
    }

    #[test]
    fn same_plan_same_workload_identical_images() {
        let image = |seed: u64| {
            let mut d = dev(FaultPlan::torn_power_cut(40, 5).with(10, WriteFault::Transient));
            let mut s = seed;
            for _ in 0..1000 {
                let r = splitmix64(&mut s);
                let blk = r % 500;
                if d.write_block(blk, &block(r as u8)).is_err() && d.is_powered_off() {
                    break;
                }
            }
            let mut raw: RegularDisk = crate::device::downcast_device(d.into_parts().3);
            let mut img = Vec::new();
            raw.disk_mut().save_image(&mut img).unwrap();
            img
        };
        assert_eq!(image(42), image(42), "determinism");
        assert_ne!(image(42), image(43), "different workloads differ");
    }
}
