//! What the sweep computes, pinned: a host-only change (a faster hash, a
//! cheaper audit, a different buffer) must leave every episode exactly as
//! it was, and a divergence once found stays on file as a test, not as
//! prose.

use modelcheck::rng::splitmix64;
use modelcheck::{check_seed, gen, sweep_all_stacks_in, StackSpec};

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

/// The torn rename, closed: on both UFS stacks a power cut between
/// `rename`'s two directory writes leaves one inode under both names. These
/// episodes used to diverge — e.g. `'mc15' has 103499 bytes, model has
/// 80660` after a cut inside `Rename { from: 5, to: 15 }` — three on both
/// UFS stacks (the third is episode 20 of ufs-vld from the tier-1 base at
/// 64 seeds) and one on ufs-regular found by the smoke sweep at 1 024 seeds.
/// Mount now keeps the namespace walk's first name and clears the other;
/// both names are dirty in the model, so the survivor is adopted.
#[test]
fn torn_rename_on_ufs_is_repaired_at_mount() {
    let both = [
        0x921f_d645_b2a6_edc2u64,
        0x45d5_02da_e848_a11b,
        0x7d18_c4ea_3afa_3a74,
    ];
    let episodes = both
        .iter()
        .flat_map(|&seed| [(0, seed), (1, seed)])
        .chain([(0, 0x758c_d584_e6d2_f7f7)]);
    for (cfg, seed) in episodes.map(|(i, seed)| (StackSpec::ALL[i], seed)) {
        let stats = check_seed(cfg, seed, 48).unwrap_or_else(|repro| panic!("{repro}"));
        assert!(
            stats.cut_fired,
            "{cfg} {seed:#x}: the cut inside the rename must fire"
        );
    }
}

/// A VLD torn cut whose eight sectors all land writes a whole block the
/// fault layer never acknowledged, over a block whose *earlier* write it
/// did: the ack-journal check exempts the torn block on every stack, or
/// these two `mc_sweep` episodes (seeds 34 of ufs-vld and 27 of lfs-vld
/// from its base) would count the unacknowledged write as a lost one.
#[test]
fn vld_torn_cut_of_eight_sectors_is_not_an_acked_loss() {
    let episodes = [(1, 0x6301_251a_4985_705e), (3, 0xcc8d_e583_dadd_bdc1)];
    for (cfg, seed) in episodes.map(|(i, seed)| (StackSpec::ALL[i], seed)) {
        assert_eq!(gen::generate(seed, 48).cut.map(|c| c.survivors), Some(8));
        let stats = check_seed(cfg, seed, 48).unwrap_or_else(|repro| panic!("{repro}"));
        assert!(stats.cut_fired, "{cfg}: the torn cut must fire");
    }
}
