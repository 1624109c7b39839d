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
//! self-contained [`shrink::Reproducer`] — stack, seed, shrunk op list —
//! is produced.
//!
//! ## Seeding
//!
//! `VLFS_SEED` is the one environment entry point for reproducibility: it
//! seeds the workload generator *and* (through the generated episode) the
//! fault plan armed in the `FaultDisk`, and it is echoed in every failure
//! report. `VLFS_MC_EPISODES` opts into the long-run soak test; the smoke
//! sweep's width is `VLFS_MC_SMOKE_SEEDS` (CI pins 64).
//!
//! ```text
//! VLFS_SEED=0xdeadbeef cargo test -p modelcheck        # replay a report
//! VLFS_MC_EPISODES=500 cargo test -p modelcheck --release -- long_run
//! ```

pub mod diff;
pub mod gen;
pub mod model;
pub mod rng;
pub mod shrink;
pub mod stack;

pub use diff::{run_trace, run_trace_recorded, Divergence, PlantedBug, RunStats};
pub use gen::{generate, McOp, TraceSpec};
pub use model::RefModel;
pub use shrink::{shrink, Reproducer};
pub use stack::StackSpec;

/// The `VLFS_SEED` environment variable, decimal or `0x`-hex. The single
/// documented entry point for reseeding the generator and the fault layer.
pub fn env_seed() -> Option<u64> {
    let v = std::env::var("VLFS_SEED").ok()?;
    let v = v.trim();
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
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
