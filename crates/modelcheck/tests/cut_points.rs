//! The cut-point mode: cheap sampled sweeps of every stack, its torn
//! variants, pool-width identity, and the planted-mutation self-test that
//! proves a lie the stack tells is caught at a cut point and comes back as
//! a replayable reproducer. The exhaustive sweeps are `tests/crash_points.rs`
//! at the workspace root.

use modelcheck::stack::{DevKind, FsKind};
use modelcheck::{
    check_point, sweep_cut_points, sweep_cut_points_in, PlantedBug, Replay, Script, StackSpec,
};

#[test]
fn sampled_sweep_is_clean_on_every_stack() {
    for spec in StackSpec::ALL {
        let rep = sweep_cut_points(spec, Script::SmallMixed, Some((4, 0xc0ffee)));
        assert!(rep.points_run >= 2, "{spec}: no points explored");
        rep.assert_clean();
    }
}

#[test]
fn torn_variants_run_on_raw_stacks() {
    let spec = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
    let rep = sweep_cut_points(spec, Script::SmallMixed, Some((3, 7)));
    // Each interior point adds two torn variants.
    assert!(rep.points_run > 3);
    rep.assert_clean();
}

/// The same sweep on a 1-wide and a 4-wide pool must produce the identical
/// report: same points, same failure list, same order.
#[test]
fn sweep_report_identical_across_pool_widths() {
    for spec in StackSpec::ALL {
        let sweep = |width| {
            let sample = Some((3, 0xD15C));
            let rep = sweep_cut_points_in(width, spec, Script::SmallMixed, sample, &PlantedBug::None);
            format!("{rep:?}")
        };
        assert_eq!(sweep(1), sweep(4), "{spec}: pool width changed the sweep report");
    }
}

/// Plant a silent write corruption and sweep cut points under it: some
/// point must fail, and every failure must name its point in a call that
/// fails again, carry the flight recorder of its run, and say what broke.
#[test]
fn planted_corruption_is_caught_at_cut_points() {
    let spec = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
    // Corrupting some writes is benign (the block is rewritten before it
    // is read back); walk the write ordinals until a sweep catches one.
    let rep = (1..=30)
        .map(|op| {
            let planted = PlantedBug::SilentCorruption { op, seed: 0xBAD ^ op };
            sweep_cut_points_in(2, spec, Script::SmallMixed, Some((6, 0x5EED)), &planted)
        })
        .find(|rep| !rep.failures.is_empty())
        .expect("no planted corruption was caught at any cut point");
    for repro in &rep.failures {
        // A clash of the lie with a cut must not pass for a detection.
        assert!(!repro.failure.what.contains("did not fire"), "{repro}");
        let Replay::Point { script, cut } = repro.replay else {
            panic!("a cut point's reproducer names its point:\n{repro}");
        };
        assert!(
            check_point(repro.cfg, script, cut, &repro.planted).is_err(),
            "the reproducer does not fail again:\n{repro}"
        );
        let report = repro.to_string();
        let call = repro.replay_call();
        assert!(call.starts_with("check_point(StackSpec::ALL[0], Script::SmallMixed, "), "{call}");
        assert!(report.contains(&call) && report.contains("failure: "), "{report}");
        assert!(
            report.contains("flight recorder") && report.contains("\"span\":"),
            "report must include the span-annotated flight dump:\n{report}"
        );
    }
}
