//! Seeded differential-model-checking sweeps across all four stacks, plus
//! the planted-mutation self-test that proves the detect → shrink → replay
//! pipeline actually fires.
//!
//! Knobs (see the crate docs): `VLFS_SEED` re-bases every sweep for
//! replaying a failure report; `VLFS_MC_SMOKE_SEEDS` widens the smoke
//! sweep (CI runs 64 and 1 024); `VLFS_MC_EPISODES` opts into the long-run soak.

use modelcheck::stack::{DevKind, FsKind};
use modelcheck::{
    check_seed, env_seed, episode_seed, gen, knob, run_trace, shrink, sweep_all_stacks,
    sweep_all_stacks_in, Divergence, PlantedBug, Replay, Reproducer, StackSpec, SweepOutcome,
};

const DEFAULT_BASE: u64 = 0x0D15_C0DE_5EED_0001;

/// The acceptance sweep: N seeded episodes through every stack config,
/// each ending in a crash + recovery + durability barrier. Any divergence
/// panics with a shrunk, seed-replayable reproducer.
#[test]
fn smoke_episodes_all_stacks() {
    let base = env_seed().unwrap_or(DEFAULT_BASE);
    let seeds = knob("VLFS_MC_SMOKE_SEEDS", std::env::var("VLFS_MC_SMOKE_SEEDS")).unwrap_or(16);
    let mut crashes = 0u32;
    let mut cuts = 0u32;
    // Episodes fan out over the shared pool (VLFS_THREADS); outcomes come
    // back in (stack, index) order, so any panic below names the same
    // first failure a sequential sweep would.
    for outcome in sweep_all_stacks(base, seeds, 48) {
        match outcome.result {
            Ok(stats) => {
                crashes += stats.crashes;
                cuts += u32::from(stats.cut_fired);
            }
            Err(repro) => panic!("{repro}"),
        }
    }
    // The sweep must actually exercise the crash paths, not tiptoe past
    // them: every episode ends in at least the finale crash, and seeded
    // cuts fire in roughly half the episodes.
    assert!(crashes >= (seeds as u32) * 4, "crash paths under-exercised");
    assert!(cuts > 0, "no seeded power cut fired across the whole sweep");
}

/// Opt-in soak: `VLFS_MC_EPISODES=500 cargo test -p modelcheck --release
/// -- long_run`. Longer traces, as many episodes as requested.
#[test]
fn long_run_soak_when_requested() {
    let episodes = knob("VLFS_MC_EPISODES", std::env::var("VLFS_MC_EPISODES")).unwrap_or(0);
    if episodes == 0 {
        return;
    }
    let base = env_seed().unwrap_or(DEFAULT_BASE ^ 0x4C4F_4E47); // "LONG"
    for i in 0..episodes {
        let cfg = StackSpec::ALL[(i % 4) as usize];
        let seed = episode_seed(base, cfg, i);
        if let Err(repro) = check_seed(cfg, seed, 96) {
            panic!("{repro}");
        }
    }
}

/// The same sweep on a 1-wide and a 4-wide pool must render identically:
/// same outcomes, same stats, same order. Uses the explicit-width variant
/// because the process-wide thread knob is set-once.
#[test]
fn sweep_is_deterministic_across_pool_widths() {
    let base = env_seed().unwrap_or(DEFAULT_BASE ^ 0x5EED_D1FF);
    let render = |outs: &[SweepOutcome]| -> Vec<String> {
        outs.iter()
            .map(|o| match &o.result {
                Ok(s) => format!("{:?}#{} seed={:#x} ok {s:?}", o.cfg, o.index, o.seed),
                Err(r) => format!("{:?}#{} seed={:#x} FAIL\n{r}", o.cfg, o.index, o.seed),
            })
            .collect()
    };
    let one = render(&sweep_all_stacks_in(1, base, 4, 32));
    let four = render(&sweep_all_stacks_in(4, base, 4, 32));
    assert_eq!(one, four, "pool width changed sweep outcomes");
}

/// The first episode seed at or after the base whose trace arms no seeded
/// cut, so a planted bug is the only anomaly. The default's first planted
/// write already diverges.
fn uncut_seed() -> u64 {
    let base = env_seed().unwrap_or(0xBAD_CAB20);
    (base..)
        .find(|&s| gen::generate(s, 40).cut.is_none())
        .expect("a seed without a cut")
}

/// `(i, seed, len)` of a printed `check_seed(StackSpec::ALL[i], 0x…, len)`
/// or `run_trace(StackSpec::ALL[i], &gen::generate(0x…, len), …)`.
fn parse_call(call: &str) -> (usize, u64, usize) {
    let after = |pat: &str| call.split_once(pat).unwrap_or_else(|| panic!("no {pat} in {call}")).1;
    let index = after("StackSpec::ALL[").split(']').next().expect("an index");
    let (seed, rest) = after("0x").split_once(", ").expect("seed, len");
    let len = rest.split(')').next().expect("a length");
    let parsed = (index.parse(), u64::from_str_radix(seed, 16), len.parse());
    match parsed {
        (Ok(i), Ok(seed), Ok(len)) => (i, seed, len),
        _ => panic!("unparsable replay call {call}"),
    }
}

/// The call a seeded sweep's report prints reruns that one episode: the
/// printed stack, seed and length regenerate the trace `check_seed` ran.
#[test]
fn printed_check_seed_call_regenerates_the_episode() {
    for cfg in StackSpec::ALL {
        for index in 0..4 {
            let seed = episode_seed(DEFAULT_BASE, cfg, index);
            let trace = gen::generate(seed, 48);
            let repro = Reproducer {
                cfg,
                replay: Replay::Seed { seed, len: 48 },
                planted: PlantedBug::None,
                trace: trace.clone(),
                failure: Divergence { step: None, op: None, what: "planted".into() },
                runs: 0,
                flight: String::new(),
            };
            let call = repro.replay_call();
            assert!(call.starts_with("check_seed(StackSpec::ALL["), "{call}");
            assert!(repro.to_string().contains(&format!("replay: {call}")));
            let (i, printed, len) = parse_call(&call);
            assert_eq!((StackSpec::ALL[i], gen::generate(printed, len)), (cfg, trace), "{call}");
        }
    }
}

/// Shrunk reproducers are byte-identical whether produced sequentially or
/// on pool workers: the detect → shrink pipeline takes no input other than
/// the seed and the trace, so four parallel copies must all match the
/// sequential report text exactly.
#[test]
fn shrunk_reproducers_identical_across_pool_widths() {
    let seed = uncut_seed();
    let cfg = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
    let trace = gen::generate(seed, 40);
    let reproduce = |op: u64| -> Option<String> {
        let planted = PlantedBug::SilentCorruption { op, seed: seed ^ op };
        let failure = run_trace(cfg, &trace, &planted).err()?;
        Some(shrink(cfg, seed, &trace, &planted, failure).to_string())
    };
    let op = (1..=120)
        .find(|&op| reproduce(op).is_some())
        .expect("no planted corruption fired in 120 tries");
    let sequential = reproduce(op).expect("chosen op reproduces");
    let parallel = disksim::par::pmap_in(4, vec![op; 4], |op| {
        reproduce(op).expect("chosen op reproduces on a worker")
    });
    for copy in parallel {
        assert_eq!(sequential, copy, "worker-produced reproducer diverged");
    }
}

/// Plant a silent write corruption in the device and verify the pipeline:
/// the differential run diverges, the shrinker minimizes the trace, and
/// the shrunk reproducer still fails when replayed from scratch.
#[test]
fn planted_corruption_is_caught_shrunk_and_replayable() {
    let seed = uncut_seed();
    let cfg = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
    let trace = gen::generate(seed, 40);

    // Corrupting some post-format writes is benign (the block is freed or
    // overwritten before anyone re-reads it from media); sweep op indexes
    // until the oracle catches one. Deterministic, and in practice the
    // first few indexes already fire.
    let (planted, failure) = (1..=120)
        .find_map(|op| {
            let planted = PlantedBug::SilentCorruption { op, seed: seed ^ op };
            run_trace(cfg, &trace, &planted).err().map(|d| (planted, d))
        })
        .expect("no planted corruption produced a divergence in 120 tries");

    let repro = shrink(cfg, seed, &trace, &planted, failure);
    assert!(
        repro.trace.ops.len() <= trace.ops.len(),
        "shrinking must never grow the trace"
    );
    // The reproducer is self-contained: replaying the shrunk trace against
    // the same planted bug fails again.
    assert!(
        run_trace(cfg, &repro.trace, &planted).is_err(),
        "shrunk reproducer did not replay:\n{repro}"
    );
    let report = repro.to_string();
    // The printed call names the stack and regenerates the failing trace.
    let call = repro.replay_call();
    assert!(report.contains(&call), "report must print the replay call:\n{report}");
    let planted_call = call.starts_with("run_trace(") && call.contains("&PlantedBug::SilentCorruption");
    assert!(planted_call, "{call}");
    let (i, printed_seed, len) = parse_call(&call);
    assert_eq!(StackSpec::ALL[i], cfg, "{call}");
    assert_eq!(gen::generate(printed_seed, len), trace, "{call}");
    assert!(report.contains("ufs-regular"), "report must name the stack:\n{report}");
    // The flight recorder rode along on the final replay: the report must
    // carry span lines and span-stamped disk events from the failing run.
    assert!(
        report.contains("flight recorder") && report.contains("\"parent\":"),
        "report must include the span-annotated flight dump:\n{report}"
    );
    assert!(
        report.contains("\"at\":") && report.contains("\"span\":"),
        "flight dump must contain span-stamped disk events:\n{report}"
    );
}
