//! The crash-point sweep: cut power after every (or a seeded sample of
//! every) acknowledged device write, remount through recovery, and check
//! the durability invariants.
//!
//! The sweep leans entirely on determinism: a reference run with no faults
//! armed counts the device writes `W` the workload performs and the write
//! ordinal `W_f` at which each `Sync` frontier completes. A faulted run of
//! the *same* workload performs the same writes in the same order, so
//! "crash point `k`" is well defined: arm a plan that acknowledges exactly
//! `k` writes and fails everything after. For each explored `k` the checks
//! are:
//!
//! * **Acknowledged writes are on the media.** Every write the fault layer
//!   acknowledged must read back (by content hash) from the surviving
//!   state — raw sectors for the regular-disk stacks, the recovered
//!   indirection map for the VLD (probed in place, beneath the logical disk
//!   on the LFS stack).
//! * **Recovery succeeds** and, for the VLD, does **not** claim a firmware
//!   tail record (a power cut never leaves one).
//! * **`fsck` finds no structural damage.** All four stacks write
//!   metadata synchronously (UFS semantics), so a crash may leak blocks or
//!   orphan inodes — the classes `fsck` exists to mop up — but must never
//!   produce a dangling name, a doubly-referenced block, an out-of-range
//!   pointer, or a size beyond the mapped pointers.
//! * **Completed syncs are durable.** For every frontier at or before the
//!   cut, files untouched after that frontier read back byte-exact, and
//!   names deleted before it stay gone.
//! * **Recovery paths converge.** For the VLD (after the audit of the
//!   recovered log's map/free-map/piece consistency): shut down in an
//!   orderly fashion and recover again — the tail-record path must be taken
//!   and must produce the identical map the scan produced. For the LLD: remounting
//!   the same image twice must give the identical block map at every
//!   point, and at durability frontiers (where every on-media segment
//!   summary is whole) scribbling over both checkpoint slots and
//!   remounting must agree on every block the checkpoint maps — the
//!   summary-scan fallback rebuilds the state the checkpoint held, except
//!   that a trimmed block's dead slot may come back (summaries record no
//!   trims), never aliased onto a live one. The scan check is restricted to frontiers
//!   because it is only *guaranteed* there: a cut mid-way through the
//!   re-flush of a partial segment tears that segment's summary, and a
//!   scan without any checkpoint then legitimately loses the segment's
//!   previous generation, which only the checkpoint still maps.

use std::collections::BTreeSet;

use disksim::fault::content_hash;
use disksim::{downcast_device, probe_device, BlockDevice, FaultPlan};
use fscore::FileSystem;
use lfs::seg::NONE;
use lfs::LogDisk;
use modelcheck::stack::{
    self, CrashState, DevKind, FsKind, Obs, StackSpec, BLOCK, SECTORS_PER_BLOCK,
};
use vlog_core::Vld;

use crate::workload::{apply, splitmix64, Workload};

/// Event-ring capacity of the failure flight recorder: the last N disk
/// commands (span-annotated) of a failing crash point's replay.
const FLIGHT_EVENTS: usize = 256;

/// How to sweep one stack.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The stack under test.
    pub spec: StackSpec,
    /// The scripted workload.
    pub workload: Workload,
    /// `None` = every crash point; `Some((n, seed))` = `n` seeded sample
    /// points (endpoints always included).
    pub sample: Option<(usize, u64)>,
    /// Also run torn-write variants (a partially persisted final write) at
    /// each explored point. Skipped on the VLD stacks, whose fault layer
    /// sits at the command boundary.
    pub torn: bool,
    /// Run the recovery-path convergence checks at each point.
    pub convergence: bool,
}

impl SweepConfig {
    /// Exhaustive sweep with every check enabled.
    pub fn exhaustive(spec: StackSpec) -> Self {
        SweepConfig {
            spec,
            workload: Workload::small_mixed(),
            sample: None,
            torn: true,
            convergence: true,
        }
    }

    /// Seeded sampling sweep (for larger configurations).
    pub fn sampled(spec: StackSpec, points: usize, seed: u64) -> Self {
        SweepConfig {
            sample: Some((points, seed)),
            ..Self::exhaustive(spec)
        }
    }
}

/// What a sweep measured and found.
#[derive(Debug)]
pub struct SweepReport {
    /// The stack swept.
    pub spec: StackSpec,
    /// Device-write ordinal at which each `Sync` frontier completed.
    pub frontier_ops: Vec<u64>,
    /// Total device writes of the full workload.
    pub total_ops: u64,
    /// Crash points explored (torn variants count separately).
    pub points_run: usize,
    /// Invariant violations, empty on success.
    pub failures: Vec<String>,
}

impl SweepReport {
    /// Panic with every failure if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(
            self.failures.is_empty(),
            "{}: {} invariant violations:\n{}",
            self.spec,
            self.failures.len(),
            self.failures.join("\n")
        );
    }
}

/// Reference-run a prefix of the workload with no faults and count the
/// device writes it completes.
fn reference_ops(spec: StackSpec, w: &Workload, prefix: usize) -> u64 {
    let mut fs = spec
        .build(Some(FaultPlan::none()), &Obs::default())
        .expect("reference format failed");
    apply(&mut fs, &w.ops[..prefix]).expect("reference run failed");
    spec.crash(fs).write_ops
}

/// Sweep crash points over one stack and check every invariant. Crash
/// points fan out over the shared worker pool (`disksim::par`, sized by
/// `VLFS_THREADS`): each point builds its own clock, disk and stack, so
/// points are independent, and failures are collected in point order —
/// the report is byte-identical to a sequential sweep.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    run_sweep_in(disksim::par::threads(), cfg)
}

/// [`run_sweep`] at an explicit pool width, for tests comparing a 1-wide
/// and an N-wide sweep in one process (the global knob is set-once).
pub fn run_sweep_in(width: usize, cfg: &SweepConfig) -> SweepReport {
    let w = &cfg.workload;
    let frontiers = w.frontiers();
    assert!(
        frontiers.first() == Some(&1),
        "workloads must open with a Sync so the format has a frontier"
    );
    let frontier_ops: Vec<u64> = frontiers
        .iter()
        .map(|&p| reference_ops(cfg.spec, w, p))
        .collect();
    let total_ops = reference_ops(cfg.spec, w, w.ops.len());
    let mut failures = Vec::new();
    // Non-decreasing: a Sync with nothing dirty adds no device writes.
    for pair in frontier_ops.windows(2) {
        if pair[0] > pair[1] {
            failures.push(format!(
                "frontier write counts decreasing: {frontier_ops:?}"
            ));
        }
    }

    // The sweep starts at the first frontier: before the opening Sync the
    // buffered stacks legitimately have no recoverable file system yet
    // (mkfs without a sync is not crash-durable on a log-structured disk).
    let start = frontier_ops[0];
    let mut points = BTreeSet::new();
    match cfg.sample {
        None => points.extend(start..=total_ops),
        Some((n, seed)) => {
            points.insert(start);
            points.insert(total_ops);
            let span = total_ops - start + 1;
            let mut i = 0u64;
            while points.len() < n.min(span as usize) {
                points.insert(start + splitmix64(seed ^ i) % span);
                i += 1;
            }
        }
    }

    // Materialise the variant list in sequential order — each point, then
    // its torn variants — and fan it out; input-order collection keeps the
    // failure list identical at any pool width.
    let variants: Vec<(u64, Option<u32>)> = points
        .iter()
        .flat_map(|&k| {
            let torn = (cfg.torn && cfg.spec.dev != DevKind::Vld && k < total_ops)
                .then_some([Some(1u32), Some(3u32)])
                .into_iter()
                .flatten();
            std::iter::once((k, None)).chain(torn.map(move |s| (k, s)))
        })
        .collect();
    let points_run = variants.len();
    for errs in disksim::par::pmap_in(width, variants, |(k, survivors)| {
        run_point(cfg, &frontiers, &frontier_ops, total_ops, k, survivors)
    }) {
        failures.extend(errs);
    }

    SweepReport {
        spec: cfg.spec,
        frontier_ops,
        total_ops,
        points_run,
        failures,
    }
}

/// Run the workload against a plan that acknowledges exactly `k` writes —
/// with `survivors` sectors of the `k+1`-th write torn onto the media —
/// then check the crash state. A failing point is replayed once with a
/// flight recorder so the failure list carries the span-annotated disk
/// history (workload, crash and recovery) that led to it.
fn run_point(
    cfg: &SweepConfig,
    frontiers: &[usize],
    frontier_ops: &[u64],
    total_ops: u64,
    k: u64,
    survivors: Option<u32>,
) -> Vec<String> {
    let mut errs = run_point_inner(cfg, frontiers, frontier_ops, total_ops, k, survivors);
    if !errs.is_empty() {
        let plan = point_plan(k, survivors);
        let dump = flight_dump(cfg, plan);
        let tag = point_tag(k, survivors);
        errs.push(format!(
            "{tag}: flight recorder ({} lines):\n{dump}",
            dump.lines().count()
        ));
    }
    errs
}

fn point_tag(k: u64, survivors: Option<u32>) -> String {
    match survivors {
        None => format!("k={k}"),
        Some(s) => format!("k={k}+torn{s}"),
    }
}

fn point_plan(k: u64, survivors: Option<u32>) -> FaultPlan {
    match survivors {
        None => FaultPlan::power_cut_after(k),
        Some(s) => FaultPlan::torn_power_cut(k + 1, s),
    }
}

/// Deterministically replay one crash point with a recorder on the raw
/// device and return the span-annotated JSONL dump, recovery included.
fn flight_dump(cfg: &SweepConfig, plan: FaultPlan) -> String {
    let rec = disksim::FlightRecorder::with_capacity(FLIGHT_EVENTS);
    let Ok(mut fs) = cfg.spec.build(Some(plan), &Obs::from(&rec)) else {
        return rec.dump();
    };
    let _ = apply(&mut fs, &cfg.workload.ops);
    let st = cfg.spec.crash(fs);
    let _ = cfg.spec.remount(st.disk, None);
    rec.dump()
}

fn run_point_inner(
    cfg: &SweepConfig,
    frontiers: &[usize],
    frontier_ops: &[u64],
    total_ops: u64,
    k: u64,
    survivors: Option<u32>,
) -> Vec<String> {
    let tag = point_tag(k, survivors);
    let plan = point_plan(k, survivors);
    let mut fs = match cfg.spec.build(Some(plan), &Obs::default()) {
        Ok(fs) => fs,
        Err(e) => return vec![format!("{tag}: format failed under plan: {e}")],
    };
    let ran = apply(&mut fs, &cfg.workload.ops);
    let st = cfg.spec.crash(fs);

    let mut errs = Vec::new();
    if k < total_ops {
        if st.log.power_cuts == 0 {
            // Write counts drifted from the reference run — determinism is
            // broken and every later conclusion would be unsound.
            return vec![format!(
                "{tag}: cut never fired ({} ops completed, expected cut at {})",
                st.write_ops,
                k + 1
            )];
        }
        if ran.is_ok() {
            errs.push(format!("{tag}: workload completed despite a power cut"));
        }
        if st.write_ops != k {
            errs.push(format!(
                "{tag}: {} writes acknowledged, expected {k}",
                st.write_ops
            ));
        }
    } else if let Err((i, e)) = ran {
        return vec![format!("{tag}: op {i} failed with no fault armed: {e}")];
    }
    errs.extend(check_point(cfg, frontiers, frontier_ops, &tag, st));
    errs
}

fn check_point(
    cfg: &SweepConfig,
    frontiers: &[usize],
    frontier_ops: &[u64],
    tag: &str,
    st: CrashState,
) -> Vec<String> {
    let mut errs = Vec::new();
    let k = st.write_ops;
    let on_vld = cfg.spec.dev == DevKind::Vld;

    // 1. Acknowledged writes on raw media (the VLD stacks read through the
    // recovered map below, since their blocks live wherever the eager
    // allocator put them).
    if !on_vld {
        for (&blk, &h) in &st.acked {
            if st.log.torn_block == Some(blk) {
                continue; // superseded by an unacknowledged torn write
            }
            match st.media_hash(blk) {
                Some(mh) if mh == h => {}
                Some(_) => errs.push(format!(
                    "{tag}: acknowledged write to device block {blk} lost from media"
                )),
                None => errs.push(format!("{tag}: device block {blk} unreadable")),
            }
        }
    }

    // 2. Recovery must bring the stack back up.
    let CrashState {
        disk, acked, log, ..
    } = st;
    let (mut fs, vld_report) = match cfg.spec.remount(disk, None) {
        Ok(rm) => rm,
        Err(e) => {
            errs.push(format!("{tag}: remount failed: {e}"));
            return errs;
        }
    };
    if vld_report.is_some_and(|rep| log.power_cuts > 0 && rep.used_tail) {
        errs.push(format!(
            "{tag}: recovery claims a firmware tail record after a power cut"
        ));
    }

    // 1b. VLD acknowledged writes, through the recovered indirection map —
    // of the VLD itself, wherever in the stack it sits.
    if let Some(vld) = probe_device::<Vld>(fs.device()) {
        let mut buf = vec![0u8; BLOCK];
        for (&blk, &h) in &acked {
            // Unmapped blocks read as zeros, as the drive would answer.
            buf.fill(0);
            let read = match vld.vlog().translate(blk) {
                Some(pb) => vld
                    .vlog()
                    .disk()
                    .peek_sectors(pb * SECTORS_PER_BLOCK, &mut buf),
                None => Ok(()),
            };
            match read {
                Ok(()) if content_hash(&buf) == h => {}
                Ok(()) => errs.push(format!(
                    "{tag}: acknowledged write to logical block {blk} lost after recovery"
                )),
                Err(e) => errs.push(format!(
                    "{tag}: logical block {blk} unreadable after recovery: {e}"
                )),
            }
        }
    }

    // 3. No structural damage, in the virtual log or the file system.
    errs.extend(
        stack::audit(&mut fs)
            .into_iter()
            .map(|c| format!("{tag}: {c}")),
    );

    // 4. Every completed frontier's promises hold.
    for (i, &wf) in frontier_ops.iter().enumerate() {
        if k < wf {
            continue;
        }
        let exp = cfg.workload.expectations(frontiers[i]);
        for (name, content) in &exp.present {
            match read_file(&mut fs, name) {
                Ok(got) if got == *content => {}
                Ok(got) => errs.push(format!(
                    "{tag}: durable file {name} corrupt ({} bytes, expected {})",
                    got.len(),
                    content.len()
                )),
                Err(e) => errs.push(format!("{tag}: durable file {name} unreadable: {e}")),
            }
        }
        for name in &exp.absent {
            if fs.open(name).is_ok() {
                errs.push(format!("{tag}: durably deleted file {name} still visible"));
            }
        }
    }

    // 5. Recovery paths converge, layer by layer from the top: the LLD
    // check hands back the device beneath it for the VLD check. The full
    // summary-scan check is sound only in clean states: exactly at a
    // frontier, with no torn write on the media.
    if cfg.convergence {
        let clean_frontier = log.torn_block.is_none() && frontier_ops.contains(&k);
        let dev = fs.into_device();
        let dev = match cfg.spec.fs {
            FsKind::Ufs => Some(dev),
            FsKind::Lfs => lld_convergence(
                cfg.spec,
                tag,
                downcast_device(dev),
                clean_frontier,
                &mut errs,
            ),
        };
        if let (true, Some(dev)) = (on_vld, dev) {
            vld_convergence(cfg.spec, tag, downcast_device(dev), &mut errs);
        }
    }
    errs
}

/// Take the *other* VLD recovery path (orderly shutdown → tail record) and
/// demand the identical map the scan produced.
fn vld_convergence(spec: StackSpec, tag: &str, mut vld: Vld, errs: &mut Vec<String>) {
    let n = vld.vlog().num_blocks();
    let map1: Vec<Option<u64>> = (0..n).map(|lb| vld.vlog().translate(lb)).collect();
    if let Err(e) = vld.shutdown() {
        errs.push(format!("{tag}: shutdown failed: {e}"));
        return;
    }
    match Vld::recover(
        vld.crash(),
        spec.disk.spec().command_overhead_ns,
        spec.vld_config(),
    ) {
        Ok((v2, rep2)) => {
            if !rep2.used_tail {
                errs.push(format!(
                    "{tag}: tail-record path not taken after orderly shutdown"
                ));
            }
            let map2: Vec<Option<u64>> = (0..n).map(|lb| v2.vlog().translate(lb)).collect();
            if map1 != map2 {
                errs.push(format!(
                    "{tag}: tail-record and scan recovery disagree on the indirection map"
                ));
            }
            for msg in v2.vlog().check_consistency() {
                errs.push(format!("{tag}: vlog audit after second recovery: {msg}"));
            }
        }
        Err(e) => errs.push(format!(
            "{tag}: recovery after orderly shutdown failed: {e}"
        )),
    }
}

/// LLD convergence: remounting the same image again must be a no-op, and
/// in clean states the summary-scan fallback (both checkpoint slots
/// destroyed) must rebuild the same block map the checkpoint path held.
/// Returns the device beneath the logical disk unless a mount lost it.
fn lld_convergence(
    spec: StackSpec,
    tag: &str,
    lld: LogDisk,
    full_scan: bool,
    errs: &mut Vec<String>,
) -> Option<Box<dyn BlockDevice>> {
    let map1 = lld.map_snapshot();
    let (ck_start, ck_len) = lld.checkpoint_region();
    let l2 = match LogDisk::mount(lld.crash(), spec.lld_config()) {
        Ok(l2) => l2,
        Err(e) => {
            errs.push(format!("{tag}: second LLD mount failed: {e}"));
            return None;
        }
    };
    if l2.map_snapshot() != map1 {
        errs.push(format!("{tag}: LLD recovery is not idempotent"));
    }
    let mut inner = l2.crash();
    if !full_scan {
        return Some(inner);
    }
    let junk = vec![0xA5u8; BLOCK];
    for b in 0..ck_len {
        if let Err(e) = inner.write_block(ck_start + b, &junk) {
            errs.push(format!("{tag}: cannot overwrite checkpoint slot: {e}"));
            return Some(inner);
        }
    }
    match LogDisk::mount(inner, spec.lld_config()) {
        Ok(l3) => {
            // A trim is durable only through the checkpoint (summaries
            // carry no trim record), so the scan may bring a trimmed
            // block's dead slot back. Every block the checkpoint maps must
            // return in the same slot, and no slot may be claimed twice.
            let map3 = l3.map_snapshot();
            if map1
                .iter()
                .zip(&map3)
                .any(|(&ck, &scan)| ck != NONE && ck != scan)
            {
                errs.push(format!(
                    "{tag}: checkpoint and summary-scan recovery disagree on the LLD map"
                ));
            }
            let mut slots: Vec<u32> = map3.into_iter().filter(|&s| s != NONE).collect();
            slots.sort_unstable();
            if slots.windows(2).any(|w| w[0] == w[1]) {
                errs.push(format!(
                    "{tag}: summary-scan recovery aliased two blocks onto one slot"
                ));
            }
            Some(l3.crash())
        }
        Err(e) => {
            errs.push(format!("{tag}: summary-scan mount failed: {e}"));
            None
        }
    }
}

fn read_file(fs: &mut ufs::Ufs, name: &str) -> Result<Vec<u8>, fscore::FsError> {
    let id = fs.open(name)?;
    let size = fs.file_size(id)? as usize;
    let mut buf = vec![0u8; size];
    let n = fs.read(id, 0, &mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap sampled sweep of each stack — the exhaustive sweeps live in
    /// the workspace-level integration tests.
    #[test]
    fn sampled_sweep_is_clean_on_every_stack() {
        for spec in crate::ALL_STACKS {
            let mut cfg = SweepConfig::sampled(spec, 4, 0xc0ffee);
            cfg.torn = false;
            let rep = run_sweep(&cfg);
            assert!(rep.points_run >= 2, "{spec}: no points explored");
            rep.assert_clean();
        }
    }

    #[test]
    fn torn_variants_run_on_raw_stacks() {
        let cfg = SweepConfig::sampled(StackSpec::harness(FsKind::Ufs, DevKind::Regular), 3, 7);
        let rep = run_sweep(&cfg);
        // Each interior point adds two torn variants.
        assert!(rep.points_run > 3);
        rep.assert_clean();
    }

    /// The same sweep on a 1-wide and a 4-wide pool must produce the
    /// identical report: same points, same failure list, same order.
    #[test]
    fn sweep_report_identical_across_pool_widths() {
        for spec in crate::ALL_STACKS {
            let cfg = SweepConfig::sampled(spec, 3, 0xD15C);
            let one = run_sweep_in(1, &cfg);
            let four = run_sweep_in(4, &cfg);
            assert_eq!(
                format!("{one:?}"),
                format!("{four:?}"),
                "{spec}: pool width changed the sweep report"
            );
        }
    }
}
