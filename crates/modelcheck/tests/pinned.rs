//! What the sweep computes, pinned: a host-only change (a faster hash, a
//! cheaper audit, a different buffer) must leave every episode exactly as
//! it was, and a known divergence stays on file as a test, not as prose.

use modelcheck::rng::splitmix64;
use modelcheck::stack::{DevKind, FsKind};
use modelcheck::{check_seed, sweep_all_stacks_in, StackSpec};

/// The smoke sweep's default base: at 16 seeds per stack five of its
/// episodes have their seeded power cut fire.
const BASE: u64 = 0x0D15_C0DE_5EED_0001;

/// Every episode's `RunStats`, in sweep order, folded into one word —
/// together with the totals, so a failure says which way it moved. The
/// values were taken at commit 76db155, before the crash cycle was made to
/// follow the live state; an optimisation of the harness, the fault layer,
/// recovery or the audits that shifts an episode changes them.
#[test]
fn sweep_run_stats_are_pinned() {
    let (mut ops, mut crashes, mut cuts, mut files) = (0u64, 0u64, 0u64, 0u64);
    let mut fold = 0u64;
    for outcome in sweep_all_stacks_in(1, BASE, 16, 48) {
        let s = outcome.result.unwrap_or_else(|repro| panic!("{repro}"));
        for field in [
            s.ops_run as u64,
            s.crashes as u64,
            s.cut_fired as u64,
            s.final_files as u64,
        ] {
            fold = splitmix64(&mut (fold ^ field));
        }
        ops += s.ops_run as u64;
        crashes += s.crashes as u64;
        cuts += s.cut_fired as u64;
        files += s.final_files as u64;
    }
    assert_eq!(
        (ops, crashes, cuts, files, fold),
        (3072, 245, 5, 243, 1_214_805_771_377_657_129),
        "the sweep no longer computes what it did"
    );
}

/// A real, open divergence (ROADMAP, robustness): on `ufs-regular` a power
/// cut that tears the directory block `rename` is writing loses a synced
/// name. About one random episode in 10⁴ finds it; these two do. Ignored
/// while the bug is open — run with `-- --ignored` to see the reproducers —
/// and to be un-ignored, with the assertion flipped, by the fix.
#[test]
#[ignore = "known torn-rename divergence on ufs-regular; see ROADMAP"]
fn torn_rename_on_ufs_regular_still_diverges() {
    let cfg = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
    for seed in [0x921f_d645_b2a6_edc2u64, 0x45d5_02da_e848_a11b] {
        let repro = check_seed(cfg, seed, 48).expect_err("the torn rename is fixed: un-ignore");
        let report = repro.to_string();
        assert!(report.contains("ufs-regular"), "{report}");
        assert!(report.to_lowercase().contains("rename"), "{report}");
    }
}
