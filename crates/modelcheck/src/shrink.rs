//! Greedy trace shrinking and self-contained reproducer reports.
//!
//! On a divergence the original trace is minimized: every op is tried for
//! removal (repeatedly, to a fixpoint), then the seeded cut is dropped if
//! the failure reproduces without it. Ops are self-contained — payloads
//! come from per-op tags, appends from the model's size at execution — so
//! removing one op never changes the meaning of the others. *Any*
//! divergence counts as continued failure: shrinking is allowed to walk
//! from the original symptom to a simpler one of the same episode.

use std::fmt;

use crate::diff::{run_trace, run_trace_recorded, Divergence, PlantedBug};
use crate::gen::TraceSpec;
use crate::stack::StackSpec;

/// Ceiling on shrink re-executions, so pathological episodes still return
/// promptly with a partially shrunk trace.
const MAX_RUNS: u32 = 2000;

/// Event-ring capacity of the failure flight recorder: the last N disk
/// commands of the minimized episode, span-annotated. Shrunk traces are
/// short, so this comfortably covers the interesting tail.
const FLIGHT_EVENTS: usize = 256;

/// Everything needed to replay a failure from scratch.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The stack configuration the divergence occurred on.
    pub cfg: StackSpec,
    /// The episode seed (regenerates the *original* trace; the shrunk
    /// trace below is what minimal replay uses).
    pub seed: u64,
    /// The minimized trace.
    pub trace: TraceSpec,
    /// The divergence the minimized trace produces.
    pub failure: Divergence,
    /// Episode re-executions the shrinker spent.
    pub runs: u32,
    /// Span-annotated JSONL flight-recorder dump of one replay of the
    /// minimized trace: span lines (keyed `"parent"`) then the last
    /// [`FLIGHT_EVENTS`] disk events (keyed `"at"`, each stamped with the
    /// span open when the command was issued).
    pub flight: String,
}

impl fmt::Display for Reproducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "modelcheck divergence on stack `{}`", self.cfg)?;
        writeln!(
            f,
            "  seed: {:#018x}  (replay: VLFS_SEED={:#x} cargo test -p modelcheck)",
            self.seed, self.seed
        )?;
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

    // One last replay of the minimized trace with a flight recorder on the
    // raw device: the report then shows the span-annotated disk history
    // (which FS op or background pass issued each command) leading to the
    // failure. The replay is deterministic, so the dump is too.
    let recorder = disksim::FlightRecorder::with_capacity(FLIGHT_EVENTS);
    let _ = run_trace_recorded(cfg, &best, planted, Some(&recorder));
    let flight = recorder.dump();

    Reproducer { cfg, seed, trace: best, failure, runs, flight }
}
