//! The differential executor: one trace, two state machines.
//!
//! Each op is applied to the real stack and to the [`RefModel`]; results —
//! success/error, read bytes, file sizes — are compared after every step.
//! A completed `Sync` additionally triggers a full live-state sweep, and
//! every crash (explicit `CrashRemount`, or a seeded power cut firing
//! mid-episode) ends in remount through the stack's real recovery path,
//! the cut's checks and structural audits, and the durability-oracle
//! reconciliation.
//!
//! An episode ([`run_trace`]) always finishes with a final `sync` + crash +
//! remount + full durable comparison, so buffered state never escapes
//! scrutiny. A cut point ([`run_point`]) instead ends at its one crash,
//! with the recovery-path convergence checks on top.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Mutex, OnceLock};

use disksim::{probe_device, DiskError, FaultDisk, FaultPlan, WriteFault};
use fscore::{FileSystem, FsError, FsResult};
use ufs::Ufs;

use crate::gen::{name, McOp, TraceSpec, NAME_POOL};
use crate::model::RefModel;
use crate::rng::fill;
use crate::stack::{self, Obs, StackSpec};

/// A mutation planted in the device stack, used by the self-test to prove
/// the whole pipeline (detect → shrink → replay) actually fires. `None` in
/// normal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// No mutation: the stacks are expected to pass.
    None,
    /// Silently corrupt a device write op (the device acks the write but
    /// scribbles on the payload) — an undetected firmware lie the oracle
    /// must catch once the block is re-read from media. The bug is armed in
    /// every device incarnation: post-format write op `op` in the first,
    /// write op `op` of each post-crash incarnation after that (a cache
    /// holding the good copy heals early corruption on every re-flush, so a
    /// lie must be re-told to stay observable).
    SilentCorruption {
        /// 1-based write op to corrupt (post-format in the first
        /// incarnation, post-remount afterwards).
        op: u64,
        /// Corruption pattern seed.
        seed: u64,
    },
}

/// Why a run failed: the step (index into the trace, or `None` for the
/// finale), the op at that step, and what diverged.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the failing op, `None` when the run failed after its last
    /// op (the episode's finale barrier, a cut point's cut check).
    pub step: Option<usize>,
    /// The op at that step.
    pub op: Option<McOp>,
    /// Human-readable description of the violated expectation.
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.step, &self.op) {
            (Some(i), Some(op)) => write!(f, "at step {i} ({op:?}): {}", self.what),
            (Some(i), None) => write!(f, "at step {i}: {}", self.what),
            _ => write!(f, "after the last op: {}", self.what),
        }
    }
}

/// Counters from a passing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Ops executed (always the full trace on success).
    pub ops_run: usize,
    /// Crash + remount cycles survived (explicit, seeded, and the finale).
    pub crashes: u32,
    /// Did the seeded power cut fire?
    pub cut_fired: bool,
    /// Files live at the end of the episode.
    pub final_files: usize,
}

/// Drive `trace` through `cfg`, comparing against the reference model at
/// every step. `seed` is only echoed into failure text; the trace itself
/// carries all the entropy.
pub fn run_trace(
    cfg: StackSpec,
    trace: &TraceSpec,
    planted: &PlantedBug,
) -> Result<RunStats, Divergence> {
    run_trace_recorded(cfg, trace, planted, None)
}

/// [`run_trace`] with an optional flight recorder attached to the raw
/// device, so a failing episode leaves behind its span-annotated disk
/// history (see [`crate::shrink::Reproducer`]).
pub fn run_trace_recorded(
    cfg: StackSpec,
    trace: &TraceSpec,
    planted: &PlantedBug,
    rec: Option<&disksim::FlightRecorder>,
) -> Result<RunStats, Divergence> {
    let mut exec = Exec::start(cfg, trace, planted, rec, false)?;
    for (i, op) in trace.ops.iter().enumerate() {
        exec.stats.ops_run = i + 1;
        exec.step(i, op)?;
    }
    exec.finale(trace.ops.len())?;
    exec.stats.final_files = exec.model.live().len();
    Ok(exec.stats)
}

/// Where a cut-point run stood, in device write ops acknowledged since a
/// fresh build (mkfs included): the coordinates cut points are named by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointRun {
    /// Acknowledged when mkfs's sync and each completed `Sync` returned.
    pub frontier_ops: Vec<u64>,
    /// Acknowledged when the power went.
    pub write_ops: u64,
    /// Did the seeded cut fire?
    pub cut_fired: bool,
}

/// Run one cut point: `trace` through the same executor and model as an
/// episode, but the first crash — the seeded cut, or a power loss right
/// after the last op when the cut never fires — ends it. That crash checks
/// the acknowledged writes even without a cut, and then the recovery paths
/// must converge ([`StackSpec::converge`]), with the LLD's summary scan
/// only at a clean cut on the last frontier.
pub fn run_point(
    cfg: StackSpec,
    trace: &TraceSpec,
    planted: &PlantedBug,
    rec: Option<&disksim::FlightRecorder>,
) -> Result<PointRun, Divergence> {
    let mut exec = Exec::start(cfg, trace, planted, rec, true)?;
    for (i, op) in trace.ops.iter().enumerate() {
        exec.step(i, op)?;
        if exec.fs.is_none() {
            break;
        }
    }
    if exec.fs.is_some() {
        exec.crash_remount(trace.ops.len(), None)?;
    }
    Ok(exec.point.take().expect("a point run"))
}

/// Format `cfg` with `plan` armed and make mkfs durable: a crash before
/// the first operation must find a mountable file system even on stacks
/// that buffer writes (the LLD's partial segment is volatile until the
/// first sync).
fn build_synced(cfg: StackSpec, plan: FaultPlan, obs: &Obs) -> FsResult<Ufs> {
    let mut fs = cfg.build(Some(plan), obs)?;
    fs.sync()?;
    Ok(fs)
}

/// Device write ops a clean [`build_synced`] of `cfg` performs — the
/// deterministic offset seeded cuts are expressed relative to. Measured
/// once per spec.
fn format_writes(cfg: StackSpec) -> u64 {
    static CACHE: OnceLock<Mutex<HashMap<StackSpec, u64>>> = OnceLock::new();
    let cache = || {
        CACHE
            .get_or_init(Mutex::default)
            .lock()
            .expect("format-writes cache poisoned")
    };
    if let Some(&n) = cache().get(&cfg) {
        return n;
    }
    // Measured outside the lock: concurrent first callers each build once
    // and insert the same deterministic count.
    let fs = build_synced(cfg, FaultPlan::none(), &Obs::default()).expect("clean format");
    let n = cfg.crash(fs).write_ops;
    cache().insert(cfg, n);
    n
}

fn is_power(e: &FsError) -> bool {
    matches!(e, FsError::Disk(DiskError::PowerFailure))
}

/// What a single FS call turned into.
enum Outcome<T> {
    Ok(T),
    Err(FsError),
    /// The armed power cut fired during (or before) the call.
    Cut,
}

/// Write ops the fault layer has acknowledged so far.
fn write_ops(fs: &Ufs) -> u64 {
    probe_device::<FaultDisk>(fs.device()).map_or(0, FaultDisk::write_ops)
}

struct Exec {
    cfg: StackSpec,
    /// `None` once a cut point's crash has ended the run.
    fs: Option<Ufs>,
    model: RefModel,
    stats: RunStats,
    planted: PlantedBug,
    /// `Some` in cut-point mode ([`run_point`]): the coordinates so far.
    point: Option<PointRun>,
}

impl Exec {
    /// Format `cfg` under the trace's cut (and the planted lie), make mkfs
    /// durable and start the model empty.
    fn start(
        cfg: StackSpec,
        trace: &TraceSpec,
        planted: &PlantedBug,
        rec: Option<&disksim::FlightRecorder>,
        point: bool,
    ) -> Result<Exec, Divergence> {
        let format = format_writes(cfg);
        let mut plan = match *planted {
            PlantedBug::SilentCorruption { op, seed } => {
                FaultPlan::corrupt_write(format + op, seed)
            }
            PlantedBug::None => FaultPlan::none(),
        };
        // Added last, the cut wins a clash with the planted lie: the power
        // dies during the write that would have been corrupted.
        if let Some(c) = trace.cut {
            let cut = WriteFault::PowerCut { survivors: c.survivors };
            plan = plan.with(format + c.at_op, cut);
        }
        let obs = rec.map(Obs::from).unwrap_or_default();
        let fs = build_synced(cfg, plan, &obs).map_err(|e| Divergence {
            step: None,
            op: None,
            what: format!("initial format failed: {e}"),
        })?;
        let point = point.then(|| PointRun {
            frontier_ops: vec![write_ops(&fs)],
            ..PointRun::default()
        });
        Ok(Exec {
            cfg,
            fs: Some(fs),
            model: RefModel::new(),
            stats: RunStats::default(),
            planted: *planted,
            point,
        })
    }

    fn fs(&mut self) -> &mut Ufs {
        self.fs.as_mut().expect("stack mounted")
    }

    fn powered_off(&self) -> bool {
        self.fs
            .as_ref()
            .and_then(|fs| probe_device::<FaultDisk>(fs.device()))
            .is_some_and(|f| f.is_powered_off())
    }

    fn div(&self, step: usize, op: Option<&McOp>, what: String) -> Divergence {
        Divergence { step: Some(step), op: op.copied(), what }
    }

    /// Classify an FS result, folding power failures into `Cut`.
    fn outcome<T>(&self, r: FsResult<T>) -> Outcome<T> {
        match r {
            Ok(v) => Outcome::Ok(v),
            Err(e) if is_power(&e) => Outcome::Cut,
            Err(e) => Outcome::Err(e),
        }
    }

    fn step(&mut self, i: usize, op: &McOp) -> Result<(), Divergence> {
        match *op {
            McOp::Create { name: n } => self.simple_op(i, op, &name(n), |fs, nm| {
                fs.create(nm).map(|_| ())
            }, |m, nm| m.create(nm))?,
            McOp::Delete { name: n } => self.simple_op(i, op, &name(n), |fs, nm| {
                fs.delete(nm)
            }, |m, nm| m.delete(nm))?,
            McOp::Rename { from, to } => self.rename(i, op, from, to)?,
            McOp::Write { name: n, offset, len, tag, sync } => {
                self.fs().set_sync_writes(sync);
                self.write(i, op, n, offset as u64, len as usize, tag, false)?
            }
            McOp::Append { name: n, len, tag } => {
                self.write(i, op, n, 0, len as usize, tag, true)?
            }
            McOp::Read { name: n, offset, len } => self.read(i, op, n, offset as u64, len as usize)?,
            McOp::Sync => self.sync(i, op)?,
            McOp::Idle { ns } => self.fs().idle(ns),
            McOp::CrashRemount => return self.crash_remount(i, Some(op)),
        }
        // A cut can also fire on background writes (cache pressure, the
        // LFS cleaner inside `idle`) without surfacing as an op error.
        if self.powered_off() {
            return self.crash_remount(i, Some(op));
        }
        Ok(())
    }

    /// An op that is one FS call on one name, compared verbatim.
    fn simple_op(
        &mut self,
        i: usize,
        op: &McOp,
        nm: &str,
        fs_call: impl FnOnce(&mut Ufs, &str) -> FsResult<()>,
        model_call: impl FnOnce(&mut RefModel, &str) -> FsResult<()>,
    ) -> Result<(), Divergence> {
        let actual = fs_call(self.fs(), nm);
        match self.outcome(actual) {
            Outcome::Cut => {
                self.model.mark_dirty(nm);
                self.crash_remount(i, Some(op))
            }
            Outcome::Ok(()) => match model_call(&mut self.model, nm) {
                Ok(()) => Ok(()),
                Err(want) => Err(self.div(i, Some(op), format!(
                    "'{nm}': file system reported success, model expects {want}"
                ))),
            },
            Outcome::Err(got) => match model_call(&mut self.model, nm) {
                Err(want) if want == got => Ok(()),
                Err(want) => Err(self.div(i, Some(op), format!(
                    "'{nm}': file system failed with {got}, model expects {want}"
                ))),
                Ok(()) => Err(self.div(i, Some(op), format!(
                    "'{nm}': file system failed with {got}, model expects success"
                ))),
            },
        }
    }

    fn rename(&mut self, i: usize, op: &McOp, from: u8, to: u8) -> Result<(), Divergence> {
        let (f, t) = (name(from), name(to));
        let actual = self.fs().rename(&f, &t);
        match self.outcome(actual) {
            Outcome::Cut => {
                self.model.mark_dirty(&f);
                self.model.mark_dirty(&t);
                self.crash_remount(i, Some(op))
            }
            Outcome::Ok(()) => match self.model.rename(&f, &t) {
                Ok(()) => Ok(()),
                Err(want) => Err(self.div(i, Some(op), format!(
                    "rename '{f}' → '{t}': file system succeeded, model expects {want}"
                ))),
            },
            Outcome::Err(got) => match self.model.rename(&f, &t) {
                Err(want) if want == got => Ok(()),
                other => Err(self.div(i, Some(op), format!(
                    "rename '{f}' → '{t}': file system failed with {got}, model expects {other:?}"
                ))),
            },
        }
    }

    /// Open-by-name, then write (`append` computes the offset from the
    /// model's size, cross-checked against the file system's).
    #[allow(clippy::too_many_arguments)] // the destructured fields of two op variants
    fn write(
        &mut self,
        i: usize,
        op: &McOp,
        n: u8,
        offset: u64,
        len: usize,
        tag: u64,
        append: bool,
    ) -> Result<(), Divergence> {
        let nm = name(n);
        let open = self.fs().open(&nm);
        let h = match self.outcome(open) {
            Outcome::Cut => return self.crash_remount(i, Some(op)),
            Outcome::Err(e) => return self.expect_absent(i, op, &nm, e),
            Outcome::Ok(h) => h,
        };
        let Some(model_size) = self.model.size(&nm) else {
            return Err(self.div(i, Some(op), format!(
                "'{nm}': open succeeded but the model has no such file"
            )));
        };
        let size = self.fs().file_size(h);
        match self.outcome(size) {
            Outcome::Cut => return self.crash_remount(i, Some(op)),
            Outcome::Err(e) => {
                return Err(self.div(i, Some(op), format!("'{nm}': file_size failed: {e}")))
            }
            Outcome::Ok(s) if s != model_size => {
                return Err(self.div(i, Some(op), format!(
                    "'{nm}': file system says {s} bytes, model says {model_size}"
                )))
            }
            Outcome::Ok(_) => {}
        }
        let offset = if append { model_size } else { offset };
        let data = fill(tag, offset, len);
        let actual = self.fs().write(h, offset, &data);
        match self.outcome(actual) {
            Outcome::Cut => {
                self.model.mark_dirty(&nm);
                self.crash_remount(i, Some(op))
            }
            Outcome::Err(e) => Err(self.div(i, Some(op), format!(
                "'{nm}': write of {len} bytes at {offset} failed with {e}, model expects success"
            ))),
            Outcome::Ok(()) => {
                self.model.write(&nm, offset, &data).expect("model file exists");
                Ok(())
            }
        }
    }

    fn read(&mut self, i: usize, op: &McOp, n: u8, offset: u64, len: usize) -> Result<(), Divergence> {
        let nm = name(n);
        let open = self.fs().open(&nm);
        let h = match self.outcome(open) {
            Outcome::Cut => return self.crash_remount(i, Some(op)),
            Outcome::Err(e) => return self.expect_absent(i, op, &nm, e),
            Outcome::Ok(h) => h,
        };
        let expected = match self.model.read(&nm, offset, len) {
            Ok(b) => b,
            Err(_) => {
                return Err(self.div(i, Some(op), format!(
                    "'{nm}': open succeeded but the model has no such file"
                )))
            }
        };
        let mut buf = vec![0u8; len];
        let got = self.fs().read(h, offset, &mut buf);
        match self.outcome(got) {
            Outcome::Cut => self.crash_remount(i, Some(op)),
            Outcome::Err(e) => Err(self.div(i, Some(op), format!(
                "'{nm}': read at {offset} failed with {e}, model expects {} bytes",
                expected.len()
            ))),
            Outcome::Ok(count) => {
                if count != expected.len() || buf[..count] != expected[..] {
                    return Err(self.div(i, Some(op), format!(
                        "'{nm}': read at {offset} returned {count} bytes, model expects {}{}",
                        expected.len(),
                        first_mismatch(&buf[..count], &expected)
                    )));
                }
                Ok(())
            }
        }
    }

    /// An open failed: legal only if the model also lacks the file and the
    /// error is `NotFound`.
    fn expect_absent(
        &mut self,
        i: usize,
        op: &McOp,
        nm: &str,
        e: FsError,
    ) -> Result<(), Divergence> {
        if self.model.exists(nm) {
            Err(self.div(i, Some(op), format!(
                "'{nm}': open failed with {e}, model says the file exists"
            )))
        } else if e != FsError::NotFound {
            Err(self.div(i, Some(op), format!(
                "'{nm}': open of a missing file failed with {e}, expected NotFound"
            )))
        } else {
            Ok(())
        }
    }

    fn sync(&mut self, i: usize, op: &McOp) -> Result<(), Divergence> {
        let r = self.fs().sync();
        match self.outcome(r) {
            // An interrupted sync promises nothing: the floor stays put.
            Outcome::Cut => self.crash_remount(i, Some(op)),
            Outcome::Err(e) => Err(self.div(i, Some(op), format!(
                "sync failed with {e}, model expects success"
            ))),
            Outcome::Ok(()) => {
                self.model.commit_sync();
                if let (Some(p), Some(fs)) = (&mut self.point, &self.fs) {
                    p.frontier_ops.push(write_ops(fs));
                }
                self.live_compare(i, Some(op))
            }
        }
    }

    /// Compare the full live namespace through the mounted file system.
    fn live_compare(&mut self, i: usize, op: Option<&McOp>) -> Result<(), Divergence> {
        for idx in 0..NAME_POOL {
            let nm = name(idx);
            let contents = self.read_whole(&nm);
            match (contents, self.model.live().get(&nm)) {
                (Ok(Some(got)), Some(want)) => {
                    if got != **want {
                        return Err(Divergence {
                            step: Some(i),
                            op: op.copied(),
                            what: format!(
                                "live state: '{nm}' has {} bytes, model has {}{}",
                                got.len(),
                                want.len(),
                                first_mismatch(&got, want)
                            ),
                        });
                    }
                }
                (Ok(Some(got)), None) => {
                    return Err(Divergence {
                        step: Some(i),
                        op: op.copied(),
                        what: format!(
                            "live state: '{nm}' exists with {} bytes, model has no such file",
                            got.len()
                        ),
                    })
                }
                (Ok(None), Some(want)) => {
                    return Err(Divergence {
                        step: Some(i),
                        op: op.copied(),
                        what: format!(
                            "live state: '{nm}' is missing, model has it with {} bytes",
                            want.len()
                        ),
                    })
                }
                (Ok(None), None) => {}
                (Err(d), _) => return Err(d),
            }
        }
        Ok(())
    }

    /// Read a file's full contents through the FS; `Ok(None)` = absent.
    fn read_whole(&mut self, nm: &str) -> Result<Option<Vec<u8>>, Divergence> {
        let fail = |what: String| Divergence { step: None, op: None, what };
        let h = match self.fs().open(nm) {
            Ok(h) => h,
            Err(FsError::NotFound) => return Ok(None),
            Err(e) => return Err(fail(format!("'{nm}': open for state scan failed: {e}"))),
        };
        let size = self
            .fs()
            .file_size(h)
            .map_err(|e| fail(format!("'{nm}': file_size failed: {e}")))?;
        let mut buf = vec![0u8; size as usize];
        let got = self
            .fs()
            .read(h, 0, &mut buf)
            .map_err(|e| fail(format!("'{nm}': full read failed: {e}")))?;
        if got as u64 != size {
            return Err(fail(format!(
                "'{nm}': short read during state scan ({got} of {size} bytes)"
            )));
        }
        Ok(Some(buf))
    }

    /// Power loss (simulated or seeded) + remount through recovery + the
    /// cut's checks and the audits + durability reconciliation; in cut-point
    /// mode, then the recovery-path convergence checks, which end the run.
    fn crash_remount(&mut self, step: usize, op: Option<&McOp>) -> Result<(), Divergence> {
        self.stats.crashes += 1;
        let st = self.cfg.crash(self.fs.take().expect("stack mounted"));
        let cut = st.log.power_cuts > 0;
        self.stats.cut_fired |= cut;
        let mut at_frontier = false;
        if let Some(p) = &mut self.point {
            (p.write_ops, p.cut_fired) = (st.write_ops, cut);
            let last_frontier = p.frontier_ops.last() == Some(&st.write_ops);
            at_frontier = st.log.torn_block.is_none() && last_frontier;
        }
        // The seeded cut lives in the first incarnation only: after any
        // crash the rebuilt fault layer cannot cut again, so an episode sees
        // at most one cut and recovery always runs on a working device. A
        // planted corruption (self-test) never kills the device and IS
        // re-armed, or a single lying write would be healed by the cache's
        // good copy on the next flush and the self-test would be vacuous.
        let plan = match self.planted {
            PlantedBug::SilentCorruption { op, seed } => FaultPlan::corrupt_write(op, seed),
            PlantedBug::None => FaultPlan::none(),
        };
        let (mut fs, mut complaints) = self
            .cfg
            .recover(st, Some(plan), cut || self.point.is_some())
            .map_err(|e| self.div(step, op, format!("remount after crash failed: {e}")))?;
        complaints.extend(stack::audit(&mut fs));
        if !complaints.is_empty() {
            return Err(self.div(step, op, format!(
                "post-recovery audit: {}",
                complaints.join("; ")
            )));
        }
        self.fs = Some(fs);
        let mut actual = BTreeMap::new();
        for idx in 0..NAME_POOL {
            let nm = name(idx);
            if let Some(bytes) = self.read_whole(&nm).map_err(|mut d| {
                d.step = Some(step);
                d.op = op.copied();
                d
            })? {
                actual.insert(nm, bytes);
            }
        }
        self.model
            .crash_adopt(&actual)
            .map_err(|msg| self.div(step, op, msg))?;
        if self.point.is_some() {
            let fs = self.fs.take().expect("stack mounted");
            let complaints = self.cfg.converge(fs, at_frontier);
            if !complaints.is_empty() {
                return Err(self.div(step, op, format!(
                    "recovery paths diverge: {}",
                    complaints.join("; ")
                )));
            }
        }
        Ok(())
    }

    /// Final barrier: sync everything, verify live state, then one last
    /// crash + remount + durable comparison.
    fn finale(&mut self, len: usize) -> Result<(), Divergence> {
        // The seeded cut may still be pending and can fire on this sync's
        // writes; after the resulting remount the fault layer is benign,
        // so the second attempt always completes.
        for _ in 0..2 {
            let r = self.fs().sync();
            match self.outcome(r) {
                Outcome::Cut => {
                    self.crash_remount(len, None)?;
                    continue;
                }
                Outcome::Err(e) => {
                    return Err(Divergence {
                        step: None,
                        op: None,
                        what: format!("final sync failed with {e}"),
                    })
                }
                Outcome::Ok(()) => {
                    self.model.commit_sync();
                    break;
                }
            }
        }
        self.live_compare(len, None)?;
        self.crash_remount(len, None)?;
        self.live_compare(len, None)
    }
}

/// Locate the first differing byte of two buffers for failure text.
fn first_mismatch(got: &[u8], want: &[u8]) -> String {
    match got.iter().zip(want.iter()).position(|(a, b)| a != b) {
        Some(i) => format!(" (first difference at byte {i}: {:#04x} vs {:#04x})", got[i], want[i]),
        None => String::new(),
    }
}
