//! The workspace's one recipe for the paper's Figure 5 stacks: what to
//! build is plain data ([`StackSpec`]), and this module alone knows how to
//! format it, cut its power, bring it back up and audit it.
//!
//! Layer order, top down: `Ufs → [LogDisk] → [FaultDisk] → RegularDisk | Vld`.
//! The log-structured logical disk is present when `fs` is [`FsKind::Lfs`];
//! the fault layer only when a [`FaultPlan`] is supplied. It always sits
//! directly above the raw device, so a cut is expressed in raw-device write
//! ops on every stack, the LLD's segment and checkpoint writes hit it block
//! by block (a cut mid-flush leaves a genuinely torn segment), and the VLD —
//! which commits a whole command atomically inside the drive — is faulted at
//! the command boundary.
//!
//! [`StackSpec::crash`] is a power loss: every volatile layer (buffer cache,
//! open segment, the VLD's in-memory map) evaporates and only the mechanical
//! disk's sectors — plus what the fault layer counted — survive.
//! `StackSpec::recover` runs the stack's real recovery path over those
//! sectors (VLD scan or tail recovery, LLD checkpoint + roll-forward, the
//! file layer's bitmap reconciliation) under the *same* file-layer
//! configuration the spec formats with.
//!
//! The crate's crash checks live here too, in three kinds by what they may
//! touch: `StackSpec::recover` (what a power cut must keep: the
//! acknowledged writes and no tail record) and `audit` (structure) only
//! peek, so any crash can afford them; `StackSpec::converge` (the recovery
//! paths agree) writes to the media and so ends the run it checks.
//!
//! A spec is `Copy + Send` so sweeps can fan it out over `disksim::par`;
//! the per-incarnation attachments that are not (the `Rc`-backed [`Obs`]
//! handles) or that differ between format and recovery (the fault plan)
//! are arguments of `build` / `recover` rather than fields.

use std::collections::HashMap;
use std::fmt;

use disksim::fault::content_hash;
use disksim::{
    downcast_device, probe_device, BlockDevice, Disk, DiskSpec, FaultDisk, FaultLog, FaultPlan,
    FlightRecorder, Metrics, RegularDisk, SimClock, Spans, Tracer,
};
use fscore::{FsError, FsResult, HostModel};
use lfs::seg::NONE;
use lfs::{lfs_filesystem, LfsConfig, LldConfig, LogDisk};
use ufs::{FsckError, Ufs, UfsConfig};
use vlog_core::vld::{Vld, VldConfig};

/// Logical block size all stacks run at.
pub(crate) const BLOCK: usize = 4096;
/// 512-byte sectors per logical block.
pub const SECTORS_PER_BLOCK: u64 = (BLOCK / disksim::SECTOR_BYTES) as u64;

/// Which file system runs on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// Update-in-place UFS (synchronous metadata).
    Ufs,
    /// Log-structured stack (file layer over the LLD).
    Lfs,
}

/// Which block device exports the drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevKind {
    /// Update-in-place (logical block = fixed physical location).
    Regular,
    /// The Virtual Log Disk (eager writing + virtual log).
    Vld,
}

impl DevKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DevKind::Regular => "Regular",
            DevKind::Vld => "VLD",
        }
    }
}

/// Which simulated drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// The 1990 HP97560 (36-cylinder simulated slice).
    Hp,
    /// The 1998 Seagate ST19101 (11-cylinder simulated slice).
    Seagate,
}

impl DiskKind {
    /// The drive's spec (paper-sized simulation slice).
    pub fn spec(self) -> DiskSpec {
        match self {
            DiskKind::Hp => DiskSpec::hp97560_sim(),
            DiskKind::Seagate => DiskSpec::st19101_sim(),
        }
    }
}

/// How big the file layer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sizing {
    /// What the figures run: 2048 inodes; UFS with a 16 MiB cache and
    /// 16-block read-ahead, LFS with the paper's 6.1 MB cache.
    Paper,
    /// What the crash harnesses run: 64 inodes and a 1 MiB cache, so a
    /// sweep explores the workload rather than mkfs, and read-ahead off on
    /// every stack for cross-stack uniformity.
    Small,
}

/// One of the paper's system combinations, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackSpec {
    /// File system on top.
    pub fs: FsKind,
    /// Block device in the middle.
    pub dev: DevKind,
    /// Simulated drive at the bottom.
    pub disk: DiskKind,
    /// Host CPU cost model.
    pub host: HostModel,
    /// File-layer sizing.
    pub sizing: Sizing,
    /// Override the VLD compactor's empty-track pool target (Figure 9's
    /// measured-after-compaction footnote). Ignored on a regular disk.
    pub vld_target_empty_tracks: Option<u32>,
}

/// Observability handles for one stack. The tracer, metrics and span table
/// are attached to the raw device before format and live on the mechanical
/// [`Disk`], which survives [`StackSpec::crash`] — so one set of handles
/// covers format, workload, crash and the recovery that follows. The
/// default is fully detached.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Event ring (also given to the fault layer, which marks each
    /// injected fault with a zero-duration event).
    pub tracer: Option<Tracer>,
    /// Metrics registry, shared by the raw device and the file layer.
    pub metrics: Metrics,
    /// Causal-span table.
    pub spans: Spans,
}

impl From<&FlightRecorder> for Obs {
    fn from(rec: &FlightRecorder) -> Self {
        Obs {
            tracer: Some(rec.tracer.clone()),
            metrics: Metrics::default(),
            spans: rec.spans.clone(),
        }
    }
}

impl StackSpec {
    /// The four `(fs, dev)` stacks as the crash harnesses run them, in
    /// sweep order; a stack's index (`StackSpec::index`) is its position here.
    pub const ALL: [StackSpec; 4] = [
        Self::harness(FsKind::Ufs, DevKind::Regular),
        Self::harness(FsKind::Ufs, DevKind::Vld),
        Self::harness(FsKind::Lfs, DevKind::Regular),
        Self::harness(FsKind::Lfs, DevKind::Vld),
    ];

    /// A harness stack: HP drive, instant host, [`Sizing::Small`].
    pub const fn harness(fs: FsKind, dev: DevKind) -> Self {
        StackSpec {
            fs,
            dev,
            disk: DiskKind::Hp,
            host: HostModel::instant(),
            sizing: Sizing::Small,
            vld_target_empty_tracks: None,
        }
    }

    /// A figure stack: [`Sizing::Paper`] on the given drive and host.
    pub const fn paper(fs: FsKind, dev: DevKind, disk: DiskKind, host: HostModel) -> Self {
        StackSpec {
            disk,
            host,
            sizing: Sizing::Paper,
            ..Self::harness(fs, dev)
        }
    }

    /// Position in [`StackSpec::ALL`] (0 ufs-regular, 1 ufs-vld,
    /// 2 lfs-regular, 3 lfs-vld); seeded sweeps mix it into episode seeds.
    pub(crate) fn index(&self) -> usize {
        2 * (self.fs == FsKind::Lfs) as usize + (self.dev == DevKind::Vld) as usize
    }

    /// A table label like "UFS on VLD".
    pub fn label(&self) -> String {
        let fs = match self.fs {
            FsKind::Ufs => "UFS",
            FsKind::Lfs => "LFS",
        };
        format!("{fs} on {}", self.dev.label())
    }

    /// The LFS configuration this spec formats and remounts with.
    fn lfs_config(&self) -> LfsConfig {
        match self.sizing {
            Sizing::Paper => LfsConfig::default(),
            Sizing::Small => LfsConfig {
                cache_bytes: 1 << 20,
                inode_count: 64,
                ..LfsConfig::default()
            },
        }
    }

    /// The logical-disk settings of an LFS stack (crash harnesses remount
    /// the LLD on its own to compare recovery paths).
    pub(crate) fn lld_config(&self) -> LldConfig {
        self.lfs_config().lld_for(self.host)
    }

    /// The file-layer settings, per `fs`: `lfs_filesystem`'s for LFS.
    pub(crate) fn ufs_config(&self) -> UfsConfig {
        match (self.fs, self.sizing) {
            (FsKind::Lfs, _) => self.lfs_config().file_layer(),
            (FsKind::Ufs, Sizing::Paper) => UfsConfig::default(),
            (FsKind::Ufs, Sizing::Small) => UfsConfig {
                inode_count: 64,
                cache_bytes: 1 << 20,
                readahead_blocks: 0,
                ..UfsConfig::default()
            },
        }
    }

    /// The VLD settings (also what [`Vld::recover`] runs under).
    pub(crate) fn vld_config(&self) -> VldConfig {
        let mut cfg = VldConfig::default();
        if let Some(target) = self.vld_target_empty_tracks {
            cfg.compactor.target_empty_tracks = target;
        }
        cfg
    }

    /// Splice the fault layer over `raw` when a plan is given.
    fn faulted(
        raw: Box<dyn BlockDevice>,
        fault: Option<FaultPlan>,
        tracer: Option<Tracer>,
    ) -> Box<dyn BlockDevice> {
        match fault {
            Some(plan) => {
                let mut faulted = FaultDisk::new(raw, plan);
                faulted.set_tracer(tracer);
                Box::new(faulted)
            }
            None => raw,
        }
    }

    /// Build a freshly formatted stack on a new clock. Nothing is synced:
    /// a caller that needs mkfs durable on a buffering stack (the LLD's
    /// partial segment is volatile until the first sync) syncs itself.
    pub fn build(&self, fault: Option<FaultPlan>, obs: &Obs) -> FsResult<Ufs> {
        let clock = SimClock::new();
        let raw: Box<dyn BlockDevice> = match self.dev {
            DevKind::Regular => {
                let mut rd = RegularDisk::new(self.disk.spec(), clock, BLOCK);
                rd.disk_mut().set_tracer(obs.tracer.clone());
                rd.disk_mut().set_metrics(obs.metrics.clone());
                rd.disk_mut().set_spans(obs.spans.clone());
                Box::new(rd)
            }
            DevKind::Vld => {
                let mut vld = Vld::format(self.disk.spec(), clock, self.vld_config());
                vld.set_observability(obs.tracer.clone(), obs.metrics.clone());
                vld.set_spans(obs.spans.clone());
                Box::new(vld)
            }
        };
        let dev = Self::faulted(raw, fault, obs.tracer.clone());
        let mut fs = match self.fs {
            FsKind::Ufs => Ufs::format(dev, self.host, self.ufs_config())?,
            FsKind::Lfs => lfs_filesystem(dev, self.host, self.lfs_config())?,
        };
        fs.set_metrics(obs.metrics.clone());
        Ok(fs)
    }

    /// Cut the power: dismantle the stack without any shutdown courtesy and
    /// keep only the media and the fault layer's journal.
    pub fn crash(&self, fs: Ufs) -> CrashState {
        let mut dev = fs.into_device();
        if self.fs == FsKind::Lfs {
            dev = downcast_device::<LogDisk>(dev).crash();
        }
        let (write_ops, log, acked) = if probe_device::<FaultDisk>(dev.as_ref()).is_some() {
            let (ops, log, acked, inner) = downcast_device::<FaultDisk>(dev).into_parts();
            dev = inner;
            (ops, log, acked)
        } else {
            Default::default()
        };
        let disk = match self.dev {
            DevKind::Regular => downcast_device::<RegularDisk>(dev).into_disk(),
            DevKind::Vld => downcast_device::<Vld>(dev).crash(),
        };
        CrashState {
            disk,
            write_ops,
            log,
            acked,
        }
    }

    /// Bring a crash back up through the stack's recovery path, with a
    /// fresh fault layer when `fault` is given; and when `check` (the model
    /// checker asks after a power cut, and at a cut point's one crash),
    /// check what the power loss had to keep: every acknowledged write is
    /// on the media — the raw sectors on a regular disk, through the
    /// recovered map on the VLD, whose journal is keyed by logical block —
    /// and the VLD claims no firmware tail record. Both are read before the
    /// layers above mount, because mount may write (it clears a torn
    /// rename's second name). The torn block is exempt on every stack: it
    /// holds an unacknowledged write, even when all eight sectors landed.
    /// These checks only peek, so they move no clock.
    pub(crate) fn recover(
        &self,
        st: CrashState,
        fault: Option<FaultPlan>,
        check: bool,
    ) -> FsResult<(Ufs, Vec<String>)> {
        let mut complaints = Vec::new();
        let mut acked: Vec<(u64, u64)> = Vec::new();
        if check {
            let torn = st.log.torn_block;
            let kept = st.acked.iter().filter(|&(&b, _)| Some(b) != torn);
            acked.extend(kept.map(|(&b, &h)| (b, h)));
            // Sorted, so failure text does not depend on hash-map order.
            acked.sort_unstable();
        }
        if self.dev == DevKind::Regular {
            for &(blk, h) in &acked {
                if st.media_hash(blk) != Some(h) {
                    complaints.push(format!(
                        "acknowledged write to device block {blk} lost from media"
                    ));
                }
            }
        }
        let tracer = st.disk.tracer().cloned();
        // Spans left open by the crash (an interrupted FsOp, a mid-flight
        // compaction) are closed here so the recovery spans opened below
        // attach at the root rather than under a dead foreground op. No-op
        // when no span table is attached.
        st.disk.spans().close_all(st.disk.clock().now());
        let raw: Box<dyn BlockDevice> = match self.dev {
            DevKind::Regular => Box::new(RegularDisk::from_disk(st.disk, BLOCK)),
            DevKind::Vld => {
                let overhead = self.disk.spec().command_overhead_ns;
                let (vld, rep) =
                    Vld::recover(st.disk, overhead, self.vld_config()).map_err(FsError::Disk)?;
                if check && rep.used_tail {
                    complaints.push("recovery claims a firmware tail record after a crash".into());
                }
                Box::new(vld)
            }
        };
        if let Some(vld) = probe_device::<Vld>(raw.as_ref()) {
            let mut buf = [0u8; BLOCK];
            for (blk, h) in acked {
                // Unmapped blocks read as zeros, as the drive would answer.
                buf.fill(0);
                let read = vld.vlog().translate(blk).map_or(Ok(()), |pb| {
                    vld.vlog().disk().peek_sectors(pb * SECTORS_PER_BLOCK, &mut buf)
                });
                if read.is_err() || content_hash(&buf) != h {
                    complaints.push(format!(
                        "acknowledged write to logical block {blk} lost after recovery"
                    ));
                }
            }
        }
        // The fault layer, the LLD's recovery and the file layer's mount
        // over the recovered raw device.
        let mut dev = Self::faulted(raw, fault, tracer);
        if self.fs == FsKind::Lfs {
            dev = Box::new(LogDisk::mount(dev, self.lld_config())?);
        }
        Ok((Ufs::mount_with(dev, self.host, self.ufs_config())?, complaints))
    }

    /// The recovery-path checks that write to the media, so a run ends with
    /// them: layer by layer from the top, the LLD remounts its own image to
    /// the identical map and — when `at_frontier` (a clean cut right after a
    /// completed sync, where every segment summary is whole) — rebuilds
    /// every checkpoint-mapped block from a summary scan with both
    /// checkpoint slots destroyed; then the VLD, shut down in order, comes
    /// back through its tail record to the map the scan built.
    pub(crate) fn converge(&self, fs: Ufs, at_frontier: bool) -> Vec<String> {
        let mut errs = Vec::new();
        let mut dev = fs.into_device();
        if self.fs == FsKind::Lfs {
            match self.lld_converges(downcast_device(dev), at_frontier, &mut errs) {
                Some(inner) => dev = inner,
                None => return errs,
            }
        }
        if self.dev == DevKind::Vld {
            if probe_device::<FaultDisk>(dev.as_ref()).is_some() {
                dev = downcast_device::<FaultDisk>(dev).into_parts().3;
            }
            self.vld_converges(downcast_device(dev), &mut errs);
        }
        errs
    }

    /// Remounting the same LLD image again must be a no-op, and the
    /// summary-scan fallback must agree on every block the checkpoint maps.
    /// A trim is durable only through the checkpoint (summaries carry no
    /// trim record), so the scan may bring a trimmed block's dead slot back,
    /// but never alias two blocks onto one slot. The scan is only sound at a
    /// frontier: a cut mid-way through re-flushing a partial segment tears
    /// its summary, and a scan without any checkpoint then legitimately
    /// loses the segment's previous generation. Returns the device beneath
    /// the logical disk unless a mount lost it.
    fn lld_converges(
        &self,
        lld: LogDisk,
        full_scan: bool,
        errs: &mut Vec<String>,
    ) -> Option<Box<dyn BlockDevice>> {
        let map1 = lld.map_snapshot();
        let (ck_start, ck_len) = lld.checkpoint_region();
        let l2 = LogDisk::mount(lld.crash(), self.lld_config())
            .map_err(|e| errs.push(format!("second LLD mount failed: {e}")))
            .ok()?;
        if l2.map_snapshot() != map1 {
            errs.push("LLD recovery is not idempotent".into());
        }
        let mut inner = l2.crash();
        if !full_scan {
            return Some(inner);
        }
        let junk = [0xA5u8; BLOCK];
        for b in 0..ck_len {
            if let Err(e) = inner.write_block(ck_start + b, &junk) {
                errs.push(format!("cannot overwrite checkpoint slot: {e}"));
                return Some(inner);
            }
        }
        let l3 = LogDisk::mount(inner, self.lld_config())
            .map_err(|e| errs.push(format!("summary-scan mount failed: {e}")))
            .ok()?;
        let map3 = l3.map_snapshot();
        if map1.iter().zip(&map3).any(|(&ck, &scan)| ck != NONE && ck != scan) {
            errs.push("checkpoint and summary-scan recovery disagree on the LLD map".into());
        }
        let mut slots: Vec<u32> = map3.into_iter().filter(|&s| s != NONE).collect();
        slots.sort_unstable();
        if slots.windows(2).any(|w| w[0] == w[1]) {
            errs.push("summary-scan recovery aliased two blocks onto one slot".into());
        }
        Some(l3.crash())
    }

    /// Take the VLD's other recovery path (orderly shutdown, then the tail
    /// record) and demand the identical map the scan produced.
    fn vld_converges(&self, mut vld: Vld, errs: &mut Vec<String>) {
        let map = |v: &Vld| -> Vec<Option<u64>> {
            (0..v.vlog().num_blocks()).map(|lb| v.vlog().translate(lb)).collect()
        };
        let scanned = map(&vld);
        if let Err(e) = vld.shutdown() {
            errs.push(format!("shutdown failed: {e}"));
            return;
        }
        let overhead = self.disk.spec().command_overhead_ns;
        match Vld::recover(vld.crash(), overhead, self.vld_config()) {
            Ok((v2, rep)) => {
                if !rep.used_tail {
                    errs.push("tail-record path not taken after orderly shutdown".into());
                }
                if map(&v2) != scanned {
                    errs.push(
                        "tail-record and scan recovery disagree on the indirection map".into(),
                    );
                }
                errs.extend(
                    v2.vlog()
                        .check_consistency()
                        .into_iter()
                        .map(|m| format!("vlog audit after second recovery: {m}")),
                );
            }
            Err(e) => errs.push(format!("recovery after orderly shutdown failed: {e}")),
        }
    }
}

/// `ufs-regular`, `ufs-vld`, `lfs-regular`, `lfs-vld`: the name failure
/// reports and sweep outcomes print.
impl fmt::Display for StackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(["ufs-regular", "ufs-vld", "lfs-regular", "lfs-vld"][self.index()])
    }
}

/// What survives a simulated power loss.
#[derive(Debug)]
pub struct CrashState {
    /// The mechanical disk's sectors — the only non-volatile state.
    pub disk: Disk,
    /// Write ops the fault layer acknowledged before the lights went out
    /// (0 without a fault layer).
    pub write_ops: u64,
    /// What the fault layer did (cuts, torn sectors, corruptions).
    pub log: FaultLog,
    /// Acknowledged writes: raw-device block → content hash at ack time.
    pub(crate) acked: HashMap<u64, u64>,
}

impl CrashState {
    /// Content hash of a raw-device block as it sits on the media,
    /// bypassing every logical layer (the raw durability check of the
    /// regular-disk stacks).
    pub fn media_hash(&self, block: u64) -> Option<u64> {
        let mut buf = [0u8; BLOCK];
        self.disk
            .peek_sectors(block * SECTORS_PER_BLOCK, &mut buf)
            .ok()?;
        Some(content_hash(&buf))
    }
}

/// Structural audits over a freshly recovered stack: the virtual log's
/// internal consistency check (when a VLD is present, probed in place
/// beneath whatever sits above it) and `fsck` restricted to the severe
/// classes a crash must never produce.
pub(crate) fn audit(fs: &mut Ufs) -> Vec<String> {
    let mut complaints = Vec::new();
    if let Some(vld) = probe_device::<Vld>(fs.device()) {
        complaints.extend(
            vld.vlog()
                .check_consistency()
                .into_iter()
                .map(|m| format!("vld audit: {m}")),
        );
    }
    match ufs::fsck(fs.device_mut()) {
        Ok(rep) => complaints.extend(
            rep.errors
                .iter()
                .filter(|e| severe(e))
                .map(|e| format!("fsck: {e:?}")),
        ),
        Err(e) => complaints.push(format!("fsck did not run: {e}")),
    }
    complaints
}

/// The fsck classes a recovered sync-metadata file system must never show.
/// Leaks, orphans and stale bitmap bits are the expected debris of delayed
/// bitmap/inode-growth writes; these mean structure was lost. A second name
/// is what a cut inside `rename` leaves, and mount has cleared it by now.
fn severe(e: &FsckError) -> bool {
    matches!(
        e,
        FsckError::PointerOutOfRange { .. }
            | FsckError::DoubleReference { .. }
            | FsckError::DanglingDirent { .. }
            | FsckError::SizeBeyondPointers { .. }
            | FsckError::DirectoryNamedTwice { .. }
            | FsckError::InodeNamedTwice { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscore::FileSystem;

    /// Every `(fs, dev)` stack on both drives, harness-sized.
    fn every_spec() -> impl Iterator<Item = StackSpec> {
        [DiskKind::Hp, DiskKind::Seagate]
            .into_iter()
            .flat_map(|disk| StackSpec::ALL.map(|s| StackSpec { disk, ..s }))
    }

    /// A few files written and synced, then one deleted and synced again.
    fn workload(fs: &mut Ufs) -> FsResult<()> {
        for (name, len) in [("a", 5000usize), ("b", 40_000), ("c", 300)] {
            let f = fs.create(name)?;
            fs.write(f, 0, &vec![name.as_bytes()[0]; len])?;
        }
        fs.sync()?;
        fs.delete("c")?;
        fs.sync()
    }

    fn read_all(fs: &mut Ufs, name: &str) -> Vec<u8> {
        let f = fs.open(name).expect("open");
        let mut buf = vec![0u8; fs.file_size(f).expect("size") as usize];
        assert_eq!(fs.read(f, 0, &mut buf).expect("read"), buf.len());
        buf
    }

    /// Device writes of format (+ the workload when `work`), fault-free.
    fn write_ops(spec: StackSpec, work: bool) -> u64 {
        let mut fs = spec
            .build(Some(FaultPlan::none()), &Obs::default())
            .expect("format");
        if work {
            workload(&mut fs).expect("workload");
        }
        spec.crash(fs).write_ops
    }

    /// Every stack builds, survives a crash and remounts with its contents
    /// and a clean audit — with and without a fault layer — and the in-place
    /// VLD probe finds the virtual log exactly on VLD stacks.
    #[test]
    fn round_trip_and_probe_every_stack() {
        for spec in every_spec() {
            for fault in [None, Some(FaultPlan::none())] {
                let faulted = fault.is_some();
                let mut fs = spec.build(fault.clone(), &Obs::default()).expect("format");
                workload(&mut fs).expect("workload");
                let has_vld = probe_device::<Vld>(fs.device()).is_some();
                assert_eq!(has_vld, spec.dev == DevKind::Vld, "{spec}: VLD probe");
                assert!(audit(&mut fs).is_empty(), "{spec}: clean audit");
                let st = spec.crash(fs);
                assert_eq!(st.write_ops > 0, faulted, "{spec}: write count");
                assert_eq!(st.acked.is_empty(), !faulted, "{spec}: ack journal");
                assert_eq!(st.log, FaultLog::default(), "{spec}: no fault was armed");
                // No acknowledged write is lost, and a crash leaves no tail.
                let (mut fs, complaints) = spec.recover(st, fault, true).expect("recover");
                assert_eq!(complaints, Vec::<String>::new(), "{spec}");
                assert!(audit(&mut fs).is_empty(), "{spec}: audit after recovery");
                assert_eq!(read_all(&mut fs, "a"), vec![b'a'; 5000], "{spec}");
                assert_eq!(read_all(&mut fs, "b"), vec![b'b'; 40_000], "{spec}");
                assert!(fs.open("c").is_err(), "{spec}: deleted file came back");
                // A remounted stack comes apart like a built one.
                assert_eq!(spec.crash(fs).log, FaultLog::default());
            }
        }
    }

    /// Device write counts are a pure function of (spec, workload) — the
    /// property every crash-point coordinate rests on — and formatting
    /// alone already writes on every stack.
    #[test]
    fn write_counts_are_deterministic() {
        for spec in every_spec() {
            let format = write_ops(spec, false);
            let total = write_ops(spec, true);
            assert!(format > 0, "{spec}: format wrote nothing?");
            assert!(total > format, "{spec}: workload wrote nothing?");
            assert_eq!(
                total,
                write_ops(spec, true),
                "{spec}: nondeterministic write count"
            );
        }
    }

    /// A recorder attached at build keeps recording across the crash: its
    /// span table and event ring live on the mechanical disk, so the dump
    /// taken after remount covers format, the power cut the fault layer
    /// injected and the recovery pass, and is itself deterministic.
    #[test]
    fn recorder_covers_format_fault_crash_and_recovery() {
        for spec in every_spec() {
            // Cut the workload's last device write (inside its final sync).
            let cut = FaultPlan::power_cut_after(write_ops(spec, true) - 1);
            let record = || {
                // Room for the whole history: the VLD's recovery scan alone
                // would push the fault marker out of a failure-sized ring.
                let rec = FlightRecorder::with_capacity(1 << 16);
                let mut fs = spec
                    .build(Some(cut.clone()), &Obs::from(&rec))
                    .expect("format");
                assert!(workload(&mut fs).is_err(), "{spec}: the cut must surface");
                let st = spec.crash(fs);
                assert_eq!(st.log.power_cuts, 1, "{spec}");
                let (_, complaints) = spec.recover(st, None, true).expect("recover");
                assert_eq!(complaints, Vec::<String>::new(), "{spec}");
                rec
            };
            let rec = record();
            let dump = rec.dump();
            let recovery = match (spec.fs, spec.dev) {
                (_, DevKind::Vld) => "vld.recover",
                (FsKind::Lfs, _) => "lld.mount",
                (FsKind::Ufs, _) => "ufs.mount",
            };
            for label in ["ufs.format", "ufs.mount", recovery] {
                assert!(
                    dump.contains(&format!("\"label\":\"{label}\"")),
                    "{spec}: no {label} span"
                );
            }
            let faults: Vec<_> = rec
                .tracer
                .events()
                .into_iter()
                .filter(|e| e.kind == disksim::OpKind::Fault)
                .collect();
            assert_eq!(faults.len(), 1, "{spec}: exactly the armed fault is traced");
            assert_eq!(
                faults[0].total_ns(),
                0,
                "fault events must not perturb busy sums"
            );
            assert_eq!(
                dump,
                record().dump(),
                "{spec}: recorder dump nondeterministic"
            );
        }
    }

    /// An idle grant the stack does not overrun ends exactly when granted,
    /// with dirty blocks to write back (LFS stacks flush them while idle)
    /// and without.
    #[test]
    fn idle_without_overrun_ends_exactly_at_the_grant() {
        const NS: u64 = 10_000_000_000;
        for spec in StackSpec::ALL {
            let obs = Obs {
                metrics: Metrics::enabled(),
                ..Obs::default()
            };
            let mut fs = spec.build(None, &obs).expect("format");
            let f = fs.create("a").expect("create");
            fs.write(f, 0, &vec![1u8; 16 * BLOCK]).expect("write");
            let clock = fs.clock();
            for pass in ["dirty", "clean"] {
                let start = clock.now();
                fs.idle(NS);
                assert_eq!(clock.now(), start + NS, "{spec}: {pass} grant");
            }
            assert_eq!(obs.metrics.counter_value("idle.overruns"), 0, "{spec}");
        }
    }

    /// Remount runs the configuration the spec formats with: on an LFS
    /// stack a delete after recovery still reaches the logical disk as
    /// trims, and a sequential read prefetches nothing.
    #[test]
    fn remount_keeps_the_file_layer_config() {
        let mapped = |fs: &Ufs| {
            let lld = probe_device::<LogDisk>(fs.device()).expect("LFS stack has an LLD");
            lld.map_snapshot()
                .iter()
                .filter(|&&slot| slot != lfs::seg::NONE)
                .count()
        };
        for spec in every_spec().filter(|s| s.fs == FsKind::Lfs) {
            let mut fs = spec.build(None, &Obs::default()).expect("format");
            workload(&mut fs).expect("workload");
            let (mut fs, complaints) = spec.recover(spec.crash(fs), None, true).expect("recover");
            assert_eq!(complaints, Vec::<String>::new(), "{spec}");

            // Read the first two blocks of the ten-block file in order, then
            // the rest: with read-ahead off the rest still comes from the
            // device, block by block.
            let f = fs.open("b").expect("open");
            fs.read(f, 0, &mut vec![0u8; 2 * BLOCK]).expect("read");
            let before = fs.device().disk_stats().sectors_read;
            fs.read(f, 2 * BLOCK as u64, &mut vec![0u8; 40_000 - 2 * BLOCK])
                .expect("read");
            let fetched = fs.device().disk_stats().sectors_read - before;
            assert!(
                fetched >= 7 * SECTORS_PER_BLOCK,
                "{spec}: blocks were prefetched ({fetched})"
            );

            let live = mapped(&fs);
            fs.delete("b").expect("delete");
            fs.sync().expect("sync");
            assert!(
                mapped(&fs) + 10 <= live,
                "{spec}: delete did not trim the log"
            );
        }
    }
}
