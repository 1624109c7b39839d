#![warn(missing_docs)]
//! # modelcheck — differential model checking for the VLFS stacks
//!
//! A pure in-memory reference file system ([`model::RefModel`]) is driven
//! in lockstep with the real stacks — UFS and LFS, each over a regular
//! disk and over the virtual-log disk — through seeded workload traces
//! ([`gen::generate`]). Every step's result is compared; every `sync`
//! advances a durability floor; every crash (explicit, or a seeded power
//! cut in the uniformly spliced fault layer) is followed by the stack's
//! real recovery path, structural audits (virtual-log consistency probed
//! in place, `fsck` severe classes), and a byte-exact durability check.
//!
//! On divergence the failing trace is minimized ([`shrink::shrink`]) and a
//! self-contained [`shrink::Reproducer`] — stack, replay call, shrunk op
//! list — is produced.
//!
//! The same executor and model also run every cut point of a fixed script
//! ([`gen::Script`]): [`sweep_cut_points`] cuts the power after each device
//! write (or a seeded sample of them), torn and clean, and on top of the
//! episode's checks demands that the recovery paths converge.
//!
//! ## Seeding
//!
//! `VLFS_SEED` re-bases every sweep; episode seeds are derived from it
//! ([`episode_seed`]), so a failure report prints the call that replays the
//! one failing episode, not the variable. `VLFS_MC_EPISODES` opts into the
//! long-run soak test; the smoke sweep's width is `VLFS_MC_SMOKE_SEEDS`
//! (CI runs 64 and 1 024). All three take a decimal or `0x`-hex `u64` ([`knob`]).
//!
//! ```text
//! VLFS_SEED=0xdeadbeef cargo test -p modelcheck        # re-base the sweeps
//! VLFS_MC_EPISODES=500 cargo test -p modelcheck --release -- long_run
//! ```

use std::env::VarError;

pub mod diff;
pub mod gen;
pub mod model;
pub mod rng;
pub mod shrink;
pub mod stack;

pub use diff::{
    run_point, run_trace, run_trace_recorded, Divergence, PlantedBug, PointRun, RunStats,
};
pub use gen::{generate, Cut, McOp, Script, TraceSpec};
pub use model::RefModel;
pub use shrink::{shrink, Replay, Reproducer};
pub use stack::StackSpec;

/// A numeric `VLFS_*` knob, given the `env::var` result so each knob is
/// read by a literal name at its call site, where `tests/knobs.rs` sees it:
/// `None` when unset, the value when it is a decimal or `0x`-hex `u64`.
///
/// # Panics
/// On any other value, naming the accepted forms: a mistyped knob must not
/// silently fall back to the default.
pub fn knob(name: &str, var: Result<String, VarError>) -> Option<u64> {
    let v = match var {
        Err(VarError::NotPresent) => return None,
        Err(VarError::NotUnicode(v)) => v.to_string_lossy().into_owned(),
        Ok(v) => v,
    };
    let t = v.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{name}={v:?}: expected a decimal or 0x-hex u64")))
}

/// The `VLFS_SEED` environment variable ([`knob`]): the base every sweep
/// derives its episode seeds from.
pub fn env_seed() -> Option<u64> {
    knob("VLFS_SEED", std::env::var("VLFS_SEED"))
}

/// Derive episode seed `i` of stack `cfg` from a base seed, so sweeps
/// decorrelate across both axes while staying replayable from the base.
pub fn episode_seed(base: u64, cfg: StackSpec, i: u64) -> u64 {
    let mut s = base ^ (cfg.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ i.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    rng::splitmix64(&mut s)
}

/// Generate, run, and on divergence shrink one episode: the main entry
/// point the test suites use. `len` is the trace length in ops.
pub fn check_seed(
    cfg: StackSpec,
    seed: u64,
    len: usize,
) -> Result<RunStats, Box<Reproducer>> {
    let trace = gen::generate(seed, len);
    match diff::run_trace(cfg, &trace, &PlantedBug::None) {
        Ok(stats) => Ok(stats),
        Err(d) => Err(Box::new(shrink::shrink(cfg, seed, &trace, &PlantedBug::None, d))),
    }
}

/// One episode of a sweep and its outcome, in sweep order.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Which stack the episode drove.
    pub cfg: StackSpec,
    /// Episode index within the stack's seed range.
    pub index: u64,
    /// The derived episode seed ([`episode_seed`]).
    pub seed: u64,
    /// Clean stats, or a shrunk seed-replayable reproducer.
    pub result: Result<RunStats, Box<Reproducer>>,
}

/// Fan a seeded sweep — every stack in [`StackSpec::ALL`] × `seeds` episodes
/// of `len` ops each — over the shared worker pool ([`disksim::par`]).
///
/// Each episode builds its own clock, disk and file system and is seeded
/// by `(base, cfg, index)` alone, so episodes are independent; results
/// come back in `(cfg, index)` order regardless of the pool width, which
/// keeps failure sets, report text and shrunk reproducers byte-identical
/// between a sequential and a parallel sweep.
pub fn sweep_all_stacks(base: u64, seeds: u64, len: usize) -> Vec<SweepOutcome> {
    sweep_all_stacks_in(disksim::par::threads(), base, seeds, len)
}

/// [`sweep_all_stacks`] at an explicit pool width, for tests comparing a
/// 1-wide and an N-wide run in one process (the global knob is set-once).
pub fn sweep_all_stacks_in(width: usize, base: u64, seeds: u64, len: usize) -> Vec<SweepOutcome> {
    let episodes: Vec<(StackSpec, u64)> = StackSpec::ALL
        .into_iter()
        .flat_map(|cfg| (0..seeds).map(move |i| (cfg, i)))
        .collect();
    disksim::par::pmap_in(width, episodes, move |(cfg, index)| {
        let seed = episode_seed(base, cfg, index);
        SweepOutcome {
            cfg,
            index,
            seed,
            result: check_seed(cfg, seed, len),
        }
    })
}

/// Run one cut point of `script` on `cfg` ([`diff::run_point`]) and check
/// that the cut fired exactly where it was aimed: after `k` acknowledged
/// writes, `k` counted from a fresh build. A failure comes back unshrunk,
/// with the flight recorder of one more run.
pub fn check_point(
    cfg: StackSpec,
    script: Script,
    cut: Option<Cut>,
    planted: &PlantedBug,
) -> Result<PointRun, Box<Reproducer>> {
    let trace = TraceSpec { ops: script.ops(), cut };
    let run = diff::run_point(cfg, &trace, planted, None).and_then(|run| {
        match cut.map(|c| run.frontier_ops[0] + c.at_op - 1) {
            Some(k) if !run.cut_fired || run.write_ops != k => Err(Divergence {
                step: None,
                op: None,
                what: format!(
                    "the cut aimed after write {k} did not fire there ({} writes \
                     acknowledged, cut fired: {})",
                    run.write_ops, run.cut_fired
                ),
            }),
            _ => Ok(run),
        }
    });
    run.map_err(|failure| {
        let replay = Replay::Point { script, cut };
        Box::new(Reproducer::recorded(cfg, replay, *planted, trace, failure, 0))
    })
}

/// What a cut-point sweep visited and found.
#[derive(Debug)]
pub struct CutSweep {
    /// The stack swept.
    pub cfg: StackSpec,
    /// Device writes acknowledged at each durability frontier: mkfs's sync,
    /// then every `Sync` of the script.
    pub frontier_ops: Vec<u64>,
    /// Device writes of the whole script.
    pub total_ops: u64,
    /// Cut points run, torn variants counted separately.
    pub points_run: usize,
    /// One reproducer per failing point, in point order.
    pub failures: Vec<Reproducer>,
}

impl CutSweep {
    /// Panic with every failure if any point failed.
    pub fn assert_clean(&self) {
        assert!(
            self.failures.is_empty(),
            "{}: {} failing cut points:\n{}",
            self.cfg,
            self.failures.len(),
            self.failures.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}

/// Every cut point of `script` on `cfg`, or with `sample = Some((n, seed))`
/// `n` seeded ones (both ends always included), over the shared pool.
pub fn sweep_cut_points(cfg: StackSpec, script: Script, sample: Option<(usize, u64)>) -> CutSweep {
    sweep_cut_points_in(disksim::par::threads(), cfg, script, sample, &PlantedBug::None)
}

/// [`sweep_cut_points`] at an explicit pool width, with a planted bug.
///
/// One fault-free reference run (determinism makes every rerun perform the
/// same writes) names the points: `k` acknowledged writes, from mkfs's
/// sync (before it the buffering stacks have no file system to recover) to
/// the whole script, where the run is cut only after its last op. A raw
/// disk also gets each interior point torn, with 1 and 3 of the next
/// write's eight sectors landing; the VLD commits a command whole. Points
/// fan out over the pool and come back in point order, so the sweep is
/// identical at any width.
pub fn sweep_cut_points_in(
    width: usize,
    cfg: StackSpec,
    script: Script,
    sample: Option<(usize, u64)>,
    planted: &PlantedBug,
) -> CutSweep {
    let reference = check_point(cfg, script, None, &PlantedBug::None)
        .unwrap_or_else(|repro| panic!("reference run failed:\n{repro}"));
    let (start, total) = (reference.frontier_ops[0], reference.write_ops);
    let mut points = std::collections::BTreeSet::new();
    match sample {
        None => points.extend(start..=total),
        Some((n, seed)) => {
            points.extend([start, total]);
            let span = total - start + 1;
            let mut i = 0;
            while points.len() < n.min(span as usize) {
                points.insert(start + rng::splitmix64(&mut (seed ^ i)) % span);
                i += 1;
            }
        }
    }
    let torn: &[u32] = if cfg.dev == stack::DevKind::Regular { &[1, 3] } else { &[] };
    let mut cuts = Vec::new();
    for k in points {
        if k == total {
            cuts.push(None); // the whole script, cut only after its last op
        } else {
            let at_op = k - start + 1;
            cuts.extend([0].iter().chain(torn).map(|&survivors| Some(Cut { at_op, survivors })));
        }
    }
    let points_run = cuts.len();
    let failures = disksim::par::pmap_in(width, cuts, |cut| check_point(cfg, script, cut, planted))
        .into_iter()
        .filter_map(|r| r.err().map(|repro| *repro))
        .collect();
    CutSweep {
        cfg,
        frontier_ops: reference.frontier_ops,
        total_ops: total,
        points_run,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_take_decimal_and_hex() {
        let ok = |v: &str| knob("K", Ok(v.to_string()));
        assert_eq!(ok("64"), Some(64));
        assert_eq!(ok(" 0x7E570001 "), Some(0x7E57_0001));
        assert_eq!(ok("0XfF"), Some(255));
        assert_eq!(ok("18446744073709551615"), Some(u64::MAX));
        assert_eq!(knob("K", Err(VarError::NotPresent)), None);
    }

    #[test]
    fn junk_knobs_panic_naming_the_accepted_forms() {
        for junk in ["", "sixty-four", "0x", "0xg1", "-1", "1e3", "18446744073709551616"] {
            let err = std::panic::catch_unwind(|| knob("VLFS_MC_EPISODES", Ok(junk.into())))
                .expect_err(junk);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            let named = msg.starts_with("VLFS_MC_EPISODES=");
            assert!(named && msg.ends_with("expected a decimal or 0x-hex u64"), "{junk:?}: {msg}");
        }
    }
}
