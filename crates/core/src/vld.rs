//! The Virtual Log Disk: eager writing behind an unmodified disk interface.
//!
//! The VLD "does not alter the existing disk interface and can deliver the
//! performance advantage of eager writing to an unmodified file system"
//! (§1, §4.2). It implements [`disksim::BlockDevice`] so the same UFS/LFS
//! code that runs on a [`disksim::RegularDisk`] runs on it unchanged.
//!
//! Per the paper's implementation notes (§4.2):
//!
//! * physical block size is 4 KB, matching the file systems' logical block;
//! * deletes invisible to the driver are handled by *overwrite detection* —
//!   re-use of a logical address frees the old mapping ([`BlockDevice::trim`]
//!   is also wired through for layers that can say more);
//! * the read-ahead buffer runs the aggressive whole-track policy, since
//!   remapping breaks the monotonic-address assumption of the stock
//!   algorithm;
//! * a free-space compactor runs during idle periods, filling empty tracks
//!   to a 75 % threshold before switching (§2.3's model picks the
//!   threshold);
//! * cylinder sweeps go one direction only, so the head is never trapped in
//!   a full region.
//!
//! Being "inside the drive", internal operations pay no per-command SCSI
//! overhead; the host-visible overhead *o* is charged exactly once per
//! block-device call.

use crate::alloc::AllocConfig;
use crate::compact::{Compactor, CompactorConfig};
use crate::log::{VirtualLog, VlogSnapshot, BLOCK_BYTES};
use crate::recovery::RecoveryReport;
use disksim::{
    BlockDevice, CachePolicy, DeviceSnapshot, Disk, DiskSpec, DiskStats, Metrics, Result,
    ServiceTime, SimClock, Tracer,
};

/// Configuration for a [`Vld`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VldConfig {
    /// Eager-allocation settings.
    pub alloc: AllocConfig,
    /// Compactor settings.
    pub compactor: CompactorConfig,
    /// Run the compactor when idle time is granted.
    pub compaction_enabled: bool,
    /// Use the aggressive whole-track read-ahead policy (the paper's fix).
    pub aggressive_readahead: bool,
}

impl Default for VldConfig {
    fn default() -> Self {
        Self {
            alloc: AllocConfig::default(),
            compactor: CompactorConfig::default(),
            compaction_enabled: true,
            aggressive_readahead: true,
        }
    }
}

/// A Virtual Log Disk: a [`VirtualLog`] exported through the standard
/// block-device interface.
#[derive(Debug)]
pub struct Vld {
    vlog: VirtualLog,
    state: VldState,
}

/// Everything a [`Vld`] adds to its virtual log.
#[derive(Debug, Clone)]
struct VldState {
    compactor: Compactor,
    cfg: VldConfig,
    /// Host-visible per-command overhead (the drive spec's *o*).
    host_overhead_ns: u64,
}

impl Vld {
    /// Format a fresh VLD on a drive described by `spec`.
    pub fn format(spec: DiskSpec, clock: SimClock, cfg: VldConfig) -> Self {
        let host_overhead_ns = spec.command_overhead_ns;
        let mut internal = spec;
        internal.command_overhead_ns = 0; // the log runs inside the drive
        let mut disk = Disk::new(internal, clock);
        if cfg.aggressive_readahead {
            disk.set_cache_policy(CachePolicy::AggressiveTrack);
        }
        Self::started(VirtualLog::format(disk, cfg.alloc), cfg, host_overhead_ns)
    }

    /// Recover a VLD from a disk image (after a crash or orderly shutdown).
    /// `host_overhead_ns` is the drive's per-command overhead, which is not
    /// stored on the media.
    pub fn recover(
        mut disk: Disk,
        host_overhead_ns: u64,
        cfg: VldConfig,
    ) -> Result<(Self, RecoveryReport)> {
        if cfg.aggressive_readahead {
            disk.set_cache_policy(CachePolicy::AggressiveTrack);
        }
        let (vlog, report) = VirtualLog::recover(disk, cfg.alloc)?;
        Ok((Self::started(vlog, cfg, host_overhead_ns), report))
    }

    /// A VLD over `vlog` whose compactor starts from its seed.
    fn started(vlog: VirtualLog, cfg: VldConfig, host_overhead_ns: u64) -> Self {
        let state = VldState {
            compactor: Compactor::new(cfg.compactor),
            cfg,
            host_overhead_ns,
        };
        Self { vlog, state }
    }

    /// Orderly power-down: persist the log tail for fast recovery.
    pub fn shutdown(&mut self) -> Result<ServiceTime> {
        self.vlog.shutdown()
    }

    /// Simulate a power failure, yielding the raw disk image.
    pub fn crash(self) -> Disk {
        self.vlog.crash()
    }

    /// The underlying virtual log (for statistics and inspection).
    pub fn vlog(&self) -> &VirtualLog {
        &self.vlog
    }

    /// Mutable access to the virtual log (fault-injection hooks in crash
    /// tests).
    pub fn vlog_mut(&mut self) -> &mut VirtualLog {
        &mut self.vlog
    }

    /// The compactor (for statistics).
    pub fn compactor(&self) -> &Compactor {
        &self.state.compactor
    }

    /// The configuration in force.
    pub fn config(&self) -> &VldConfig {
        &self.state.cfg
    }

    /// Attach an event tracer and metrics handle to the whole VLD stack:
    /// the internal disk (per-op trace events and latency histograms) and
    /// the virtual log (depth/chain gauges), whose handle the eager
    /// allocator (fast-path counters) and the compactor count into. Pass
    /// `None` / `Metrics::disabled()` to detach.
    pub fn set_observability(&mut self, tracer: Option<Tracer>, metrics: Metrics) {
        self.vlog.disk_mut().set_tracer(tracer);
        self.vlog.disk_mut().set_metrics(metrics.clone());
        self.vlog.set_metrics(metrics);
    }

    /// Attach a causal-span handle to the internal disk. The VLD's own
    /// machinery (map appends, checkpoints, compaction, recovery) opens
    /// spans on the same handle, so its disk time is attributed to the
    /// right cause rather than to the host command that happened to be in
    /// flight.
    pub fn set_spans(&mut self, spans: disksim::Spans) {
        self.vlog.disk_mut().set_spans(spans);
    }

    /// Write several logical blocks as a single atomic transaction (one
    /// host command). The virtual log's commit record guarantees that after
    /// a crash either all or none of the batch is visible.
    pub fn write_atomic(&mut self, batch: &[(u64, &[u8])]) -> Result<ServiceTime> {
        let host = self.charge_host_overhead();
        Ok(host + self.vlog.write_many(batch)?)
    }

    fn charge_host_overhead(&mut self) -> ServiceTime {
        self.vlog.disk().advance_ns(self.state.host_overhead_ns);
        ServiceTime {
            overhead_ns: self.state.host_overhead_ns,
            ..ServiceTime::ZERO
        }
    }
}

impl BlockDevice for Vld {
    fn block_size(&self) -> usize {
        BLOCK_BYTES
    }

    fn num_blocks(&self) -> u64 {
        self.vlog.num_blocks()
    }

    fn clock(&self) -> SimClock {
        self.vlog.disk().clock()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        let host = self.charge_host_overhead();
        Ok(host + self.vlog.read(block, buf)?)
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> Result<ServiceTime> {
        let host = self.charge_host_overhead();
        Ok(host + self.vlog.write(block, buf)?)
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        // One host command; internal reads resolve through the map (and the
        // aggressive track buffer absorbs the scatter).
        let mut total = self.charge_host_overhead();
        for (i, chunk) in buf.chunks_mut(BLOCK_BYTES).enumerate() {
            total += self.vlog.read(start + i as u64, chunk)?;
        }
        Ok(total)
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> Result<ServiceTime> {
        // Bulk writes take the non-atomic batched path: per-piece-group
        // durability without the transient old+new footprint of a full
        // transaction (see [`VirtualLog::write_batch`]).
        let host = self.charge_host_overhead();
        let batch: Vec<(u64, &[u8])> = buf
            .chunks(BLOCK_BYTES)
            .enumerate()
            .map(|(i, c)| (start + i as u64, c))
            .collect();
        Ok(host + self.vlog.write_batch(&batch)?)
    }

    fn trim(&mut self, block: u64) -> Result<()> {
        self.vlog.trim(block)?;
        Ok(())
    }

    fn idle(&mut self, budget_ns: u64) -> u64 {
        let start = self.vlog.disk().now_ns();
        // An idle grant is a loan the device must repay on time. Hold back
        // a reserve covering the worst single operation the background
        // machinery can have in flight when the deadline hits — a seek
        // plus a rotation, i.e. a whole-track read or a checkpoint — and
        // spend only the remainder. The compactor may dip into the reserve
        // to finish an operation it already started, never to begin one.
        let reserve_ns = 3 * self.vlog.disk().spec().half_rotation_ns();
        if budget_ns >= reserve_ns && self.vlog.pending_recycle_len() >= 8 {
            let _ = self.vlog.checkpoint();
        }
        if self.state.cfg.compaction_enabled {
            let used = self.vlog.disk().now_ns() - start;
            let spendable = budget_ns.saturating_sub(used + reserve_ns);
            if spendable > 0 {
                self.state.compactor.run(&mut self.vlog, spendable);
                // Compaction reshapes the free space; let the allocator
                // re-pick its fill track.
                self.vlog.alloc.reset_fill();
            }
        }
        self.vlog.disk().now_ns() - start
    }

    fn flush(&mut self) -> Result<ServiceTime> {
        // All VLD writes are already durable; use the sync point to refresh
        // the checkpoint when enough superseded map blocks have piled up —
        // it keeps recovery windows short at no extra foreground cost.
        if self.vlog.pending_recycle_len() >= 8 {
            self.vlog.checkpoint()
        } else {
            Ok(ServiceTime::ZERO)
        }
    }

    fn disk_stats(&self) -> DiskStats {
        self.vlog.disk().stats()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn self_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn spans(&self) -> disksim::Spans {
        self.vlog.disk().spans().clone()
    }

    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        Some(Box::new(VldSnapshot {
            vlog: self.vlog.snapshot(),
            state: self.state.clone(),
        }))
    }
}

/// A point-in-time image of a [`Vld`]: the virtual-log snapshot (disk
/// tracks and map pages `Arc`-shared, copy-on-write) plus the VLD's state
/// (compactor, RNG position included, and configuration). `Send + Sync`,
/// so an aged system can be built once and forked inside parallel
/// figure-cell workers.
#[derive(Debug, Clone)]
pub(crate) struct VldSnapshot {
    vlog: VlogSnapshot,
    state: VldState,
}

impl DeviceSnapshot for VldSnapshot {
    fn restore(&self) -> Box<dyn BlockDevice> {
        Box::new(Vld {
            vlog: self.vlog.restore(),
            state: self.state.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vld() -> Vld {
        Vld::format(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            VldConfig::default(),
        )
    }

    fn blk(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_BYTES]
    }

    #[test]
    fn implements_block_device_round_trip() {
        let mut d = vld();
        d.write_block(42, &blk(0x77)).unwrap();
        let mut buf = blk(0);
        d.read_block(42, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x77));
    }

    #[test]
    fn host_overhead_charged_once_per_command() {
        let mut d = vld();
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        let st = d.write_block(0, &blk(1)).unwrap();
        assert_eq!(st.overhead_ns, o, "exactly one host overhead per write");
        let st = d.write_blocks(10, &[blk(1), blk(2)].concat()).unwrap();
        assert_eq!(st.overhead_ns, o, "batch writes amortise the overhead");
    }

    #[test]
    fn random_sync_writes_much_faster_than_regular_disk() {
        use disksim::RegularDisk;
        let clock_v = SimClock::new();
        let mut v = Vld::format(DiskSpec::st19101_sim(), clock_v, VldConfig::default());
        let clock_r = SimClock::new();
        let mut r = RegularDisk::new(DiskSpec::st19101_sim(), clock_r, BLOCK_BYTES);

        // Interleave random single-block writes over 1/4 of the device.
        let span = (v.num_blocks().min(r.num_blocks()) / 4).max(1);
        let mut lb = 1u64;
        let (mut tv, mut tr) = (0u64, 0u64);
        for i in 0..200u64 {
            lb = (lb * 1103515245 + 12345 + i) % span;
            tv += v.write_block(lb, &blk(i as u8)).unwrap().total_ns();
            tr += r.write_block(lb, &blk(i as u8)).unwrap().total_ns();
        }
        assert!(
            tv * 2 < tr,
            "VLD ({tv} ns) should be far faster than regular ({tr} ns)"
        );
    }

    #[test]
    fn trim_then_read_returns_zeros() {
        let mut d = vld();
        d.write_block(3, &blk(9)).unwrap();
        d.trim(3).unwrap();
        let mut buf = blk(0xFF);
        d.read_block(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn idle_runs_compactor_only_when_enabled() {
        let cfg = VldConfig {
            compaction_enabled: false,
            ..VldConfig::default()
        };
        let mut d = Vld::format(DiskSpec::st19101_sim(), SimClock::new(), cfg);
        d.write_block(0, &blk(1)).unwrap();
        assert_eq!(d.idle(1_000_000_000), 0);
    }

    #[test]
    fn batched_reads_amortise_host_overhead() {
        let mut d = vld();
        let w: Vec<u8> = (0..8 * BLOCK_BYTES).map(|i| i as u8).collect();
        d.write_blocks(0, &w).unwrap();
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        let mut r = vec![0u8; 8 * BLOCK_BYTES];
        let st = d.read_blocks(0, &mut r).unwrap();
        assert_eq!(st.overhead_ns, o, "one command for the whole batch");
        assert_eq!(r, w);
    }

    #[test]
    fn oversized_atomic_batch_rejected() {
        let mut d = vld();
        let buf = blk(1);
        let batch: Vec<(u64, &[u8])> = (0..64u64).map(|i| (i, buf.as_slice())).collect();
        assert!(
            d.write_atomic(&batch).is_err(),
            "batches beyond the slack reserve must be refused, not wedge"
        );
        // The bulk path handles it fine.
        let big: Vec<u8> = vec![2u8; 64 * BLOCK_BYTES];
        d.write_blocks(100, &big).unwrap();
        let mut r = vec![0u8; BLOCK_BYTES];
        d.read_block(163, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 2));
    }

    #[test]
    fn write_atomic_round_trips() {
        let mut d = vld();
        let (a, b, c) = (blk(1), blk(2), blk(3));
        let batch: Vec<(u64, &[u8])> =
            vec![(0, a.as_slice()), (500, b.as_slice()), (1000, c.as_slice())];
        d.write_atomic(&batch).unwrap();
        for (lb, want) in [(0u64, 1u8), (500, 2), (1000, 3)] {
            let mut buf = blk(0);
            d.read_block(lb, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == want));
        }
    }

    #[test]
    fn shutdown_recover_preserves_contents() {
        let mut d = vld();
        for lb in 0..100u64 {
            d.write_block(lb, &blk(lb as u8)).unwrap();
        }
        d.shutdown().unwrap();
        let disk = d.crash();
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        let (mut d2, report) = Vld::recover(disk, o, VldConfig::default()).unwrap();
        assert!(
            report.used_tail,
            "orderly shutdown boots from the tail record"
        );
        assert_eq!(report.scanned_sectors, 0);
        for lb in 0..100u64 {
            let mut buf = blk(0);
            d2.read_block(lb, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == lb as u8), "block {lb} lost");
        }
    }

    #[test]
    fn checkpoints_alternate_slots_and_survive_a_torn_one() {
        // Write enough churn for several checkpoints; then corrupt the
        // newest slot on the raw image: recovery must fall back to the
        // older slot (plus the log window) without data loss.
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        let mut d = vld();
        for round in 0..4u64 {
            for i in 0..200u64 {
                d.write_block(i % 64, &blk((round * 200 + i) as u8))
                    .unwrap();
            }
            d.idle(1_000_000_000); // checkpoint opportunity
        }
        assert!(
            d.vlog().stats().checkpoints >= 2,
            "need several checkpoints"
        );
        let mut final_state = Vec::new();
        for lb in 0..64u64 {
            let mut buf = blk(0);
            d.read_block(lb, &mut buf).unwrap();
            final_state.push(buf[0]);
        }
        d.shutdown().unwrap();
        let mut disk = d.crash();
        // Corrupt both checkpoint slots' first sectors? No — just one: the
        // region starts right after the firmware block.
        let region = crate::checkpoint::CheckpointRegion::layout(
            crate::tail::FIRMWARE_SECTORS,
            64, // any >= actual piece count works for locating slot A
            8,
        );
        let garbage = vec![0xFFu8; disksim::SECTOR_BYTES];
        disk.poke_sectors(region.slot_a, &garbage).unwrap();
        let (mut d2, report) = Vld::recover(disk, o, VldConfig::default()).unwrap();
        assert!(report.used_tail);
        for (lb, &want) in final_state.iter().enumerate() {
            let mut buf = blk(0);
            d2.read_block(lb as u64, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == want),
                "block {lb} lost after torn checkpoint"
            );
        }
    }

    #[test]
    fn cold_data_survives_hot_piece_churn_across_recoveries() {
        // Regression test: a piece that is never rewritten must stay
        // recoverable even after heavy churn on *other* pieces recycles
        // long runs of the backward chain. Without checkpoint-gated
        // recycling, the chain to the cold piece breaks and its data is
        // silently lost on the second recovery.
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        let mut d = vld();
        // Cold data in piece 0.
        for lb in 0..50u64 {
            d.write_block(lb, &blk(lb as u8)).unwrap();
        }
        for round in 0..3 {
            // Hot churn in a different piece (far lbs), enough to recycle
            // many map blocks.
            for i in 0..300u64 {
                d.write_block(2000 + (i % 40), &blk(i as u8)).unwrap();
            }
            // Alternate orderly and crash recoveries.
            if round % 2 == 0 {
                d.shutdown().unwrap();
            }
            let disk = d.crash();
            let (d2, report) = Vld::recover(disk, o, VldConfig::default()).unwrap();
            d = d2;
            assert_eq!(report.used_tail, round % 2 == 0);
            for lb in (0..50u64).step_by(7) {
                let mut buf = blk(0);
                d.read_block(lb, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&b| b == lb as u8),
                    "round {round}: cold block {lb} lost"
                );
            }
        }
    }

    #[test]
    fn crash_without_shutdown_recovers_by_scanning() {
        let mut d = vld();
        for lb in 0..50u64 {
            d.write_block(lb, &blk(lb as u8)).unwrap();
        }
        let disk = d.crash(); // no shutdown: tail record is cleared
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        let (mut d2, report) = Vld::recover(disk, o, VldConfig::default()).unwrap();
        assert!(!report.used_tail);
        assert!(report.scanned_sectors > 0, "fallback must scan");
        for lb in 0..50u64 {
            let mut buf = blk(0);
            d2.read_block(lb, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == lb as u8), "block {lb} lost");
        }
    }

    /// Image round-trip property over the VLD's sparse remapped store:
    /// after a seeded mix of writes and trims, recovery from a
    /// saved-and-reloaded image is byte-identical to recovery from the
    /// original media — for every block the workload ever touched,
    /// including the trimmed ones.
    #[test]
    fn image_round_trip_preserves_vld_recovery() {
        let o = DiskSpec::st19101_sim().command_overhead_ns;
        for seed in 0..4u64 {
            let mut d = vld();
            let span = d.num_blocks() / 4;
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut touched = Vec::new();
            for _ in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = (x >> 16) % span;
                if x % 5 == 0 && !touched.is_empty() {
                    let victim = touched[(x >> 32) as usize % touched.len()];
                    d.trim(victim).unwrap();
                } else {
                    d.write_block(b, &blk((x >> 24) as u8)).unwrap();
                    touched.push(b);
                }
            }
            let disk = d.crash();
            let mut img = Vec::new();
            disk.save_image(&mut img).unwrap();
            let copy = Disk::load_image(
                DiskSpec::st19101_sim(),
                SimClock::new(),
                &mut img.as_slice(),
            )
            .unwrap();
            let (mut va, ra) = Vld::recover(disk, o, VldConfig::default()).unwrap();
            let (mut vb, rb) = Vld::recover(copy, o, VldConfig::default()).unwrap();
            assert_eq!(
                ra.used_tail, rb.used_tail,
                "seed {seed}: recovery paths diverged"
            );
            for &b in &touched {
                let mut pa = blk(0);
                let mut pb = blk(1);
                va.read_block(b, &mut pa).unwrap();
                vb.read_block(b, &mut pb).unwrap();
                assert_eq!(
                    pa, pb,
                    "seed {seed}: block {b} differs after image round-trip"
                );
            }
        }
    }
}
