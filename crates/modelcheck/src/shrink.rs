//! Greedy trace shrinking and self-contained reproducer reports.
//!
//! On a divergence the original trace is minimized: every op is tried for
//! removal (repeatedly, to a fixpoint), then the seeded cut is dropped if
//! the failure reproduces without it. Ops are self-contained — payloads
//! come from per-op tags, appends from the model's size at execution — so
//! removing one op never changes the meaning of the others. *Any*
//! divergence counts as continued failure: shrinking is allowed to walk
//! from the original symptom to a simpler one of the same episode. A
//! failing cut point is not shrunk — dropping an op moves every later
//! write ordinal, and with it the cut — so its reproducer is its script
//! and cut as they ran.

use std::fmt;

use crate::diff::{run_point, run_trace, run_trace_recorded, Divergence, PlantedBug};
use crate::gen::{Cut, Script, TraceSpec};
use crate::stack::StackSpec;

/// Ceiling on shrink re-executions, so pathological episodes still return
/// promptly with a partially shrunk trace.
const MAX_RUNS: u32 = 2000;

/// Event-ring capacity of the failure flight recorder: the last N disk
/// commands of the failing run, span-annotated. Shrunk traces and cut
/// points are short, so this comfortably covers the interesting tail.
const FLIGHT_EVENTS: usize = 256;

/// How a failure was found, which is how to rerun it from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// The generated episode [`crate::check_seed`]`(cfg, seed, len)` runs.
    Seed {
        /// The episode seed.
        seed: u64,
        /// The episode length in ops.
        len: usize,
    },
    /// One point of a cut-point sweep: [`crate::check_point`]`(cfg, script, cut, planted)`.
    Point {
        /// The script.
        script: Script,
        /// The cut, `None` for the run that is cut only after its last op.
        cut: Option<Cut>,
    },
}

/// Everything needed to replay a failure from scratch.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The stack configuration the divergence occurred on.
    pub cfg: StackSpec,
    /// How the failing run came about (regenerates the *original* trace;
    /// the shrunk trace below is what minimal replay uses).
    pub replay: Replay,
    /// The mutation planted in the stack, if any.
    pub planted: PlantedBug,
    /// The minimized trace (a cut point's is its script, unshrunk).
    pub trace: TraceSpec,
    /// The divergence the minimized trace produces.
    pub failure: Divergence,
    /// Re-executions the shrinker spent.
    pub runs: u32,
    /// Span-annotated JSONL flight-recorder dump of one replay of the
    /// minimized trace: span lines (keyed `"parent"`) then the last
    /// [`FLIGHT_EVENTS`] disk events (keyed `"at"`, each stamped with the
    /// span open when the command was issued).
    pub flight: String,
}

impl Reproducer {
    /// A reproducer whose flight dump comes from one more run of `trace`
    /// with a recorder on the raw device. The run is deterministic, so the
    /// dump is too.
    pub fn recorded(
        cfg: StackSpec,
        replay: Replay,
        planted: PlantedBug,
        trace: TraceSpec,
        failure: Divergence,
        runs: u32,
    ) -> Self {
        let rec = disksim::FlightRecorder::with_capacity(FLIGHT_EVENTS);
        match replay {
            Replay::Seed { .. } => drop(run_trace_recorded(cfg, &trace, &planted, Some(&rec))),
            Replay::Point { .. } => drop(run_point(cfg, &trace, &planted, Some(&rec))),
        }
        let flight = rec.dump();
        Reproducer { cfg, replay, planted, trace, failure, runs, flight }
    }

    /// The Rust call that reruns the original failing run, in the form
    /// `tests/pinned.rs` pins known divergences with.
    pub fn replay_call(&self) -> String {
        let i = self.cfg.index();
        let spec = if self.cfg == StackSpec::ALL[i] {
            format!("StackSpec::ALL[{i}]")
        } else if self.cfg == (StackSpec { disk: self.cfg.disk, ..StackSpec::ALL[i] }) {
            format!("StackSpec {{ disk: DiskKind::{:?}, ..StackSpec::ALL[{i}] }}", self.cfg.disk)
        } else {
            format!("{:?}", self.cfg)
        };
        match (self.replay, self.planted) {
            (Replay::Seed { seed, len }, PlantedBug::None) => {
                format!("check_seed({spec}, {seed:#x}, {len})")
            }
            (Replay::Seed { seed, len }, planted) => format!(
                "run_trace({spec}, &gen::generate({seed:#x}, {len}), &PlantedBug::{planted:?})"
            ),
            (Replay::Point { script, cut }, planted) => format!(
                "check_point({spec}, Script::{script:?}, {cut:?}, &PlantedBug::{planted:?})"
            ),
        }
    }
}

impl fmt::Display for Reproducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "modelcheck divergence on stack `{}`", self.cfg)?;
        writeln!(f, "  replay: {}", self.replay_call())?;
        writeln!(f, "  failure: {}", self.failure)?;
        writeln!(
            f,
            "  shrunk trace ({} ops, {} shrink runs):",
            self.trace.ops.len(),
            self.runs
        )?;
        write!(f, "{}", self.trace)?;
        if !self.flight.is_empty() {
            let spans = self.flight.lines().filter(|l| l.contains("\"parent\":")).count();
            let events = self.flight.lines().count() - spans;
            writeln!(
                f,
                "  flight recorder ({spans} span(s), last {events} disk event(s)):"
            )?;
            for line in self.flight.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// Minimize a failing trace. `trace` must already fail (the caller
/// observed `run_trace(cfg, trace, planted).is_err()`).
pub fn shrink(
    cfg: StackSpec,
    seed: u64,
    trace: &TraceSpec,
    planted: &PlantedBug,
    original: Divergence,
) -> Reproducer {
    let mut best = trace.clone();
    let mut failure = original;
    let mut runs = 0u32;

    let try_candidate = |cand: &TraceSpec, runs: &mut u32| -> Option<Divergence> {
        *runs += 1;
        run_trace(cfg, cand, planted).err()
    };

    // Drop-op passes to a fixpoint: each pass walks back-to-front so index
    // shifts never skip a candidate within the pass.
    let mut changed = true;
    while changed && runs < MAX_RUNS {
        changed = false;
        let mut i = best.ops.len();
        while i > 0 && runs < MAX_RUNS {
            i -= 1;
            let mut cand = best.clone();
            cand.ops.remove(i);
            if let Some(f) = try_candidate(&cand, &mut runs) {
                best = cand;
                failure = f;
                changed = true;
            }
        }
    }

    // A cut that is no longer needed obscures the reproducer: drop it if
    // the shrunk trace fails without it.
    if best.cut.is_some() && runs < MAX_RUNS {
        let mut cand = best.clone();
        cand.cut = None;
        if let Some(f) = try_candidate(&cand, &mut runs) {
            best = cand;
            failure = f;
        }
    }

    let replay = Replay::Seed { seed, len: trace.ops.len() };
    Reproducer::recorded(cfg, replay, *planted, best, failure, runs)
}
