//! Crash-point exploration across the paper's four stacks (Figure 5): UFS
//! and LFS, each on a regular disk and on the virtual-log disk.
//!
//! The tier-1 tests sweep *every* crash point of the small mixed workload
//! exhaustively, with torn-write variants on the raw-disk stacks and the
//! recovery-path convergence checks enabled. The `#[ignore]`d tests run
//! the larger churn workload under seeded sampling — same invariants, more
//! state (name reuse, on-demand cleaning, bigger files).

use crashtest::{run_sweep, DevKind, DiskKind, FsKind, StackSpec, SweepConfig, Workload};

const UFS_REGULAR: StackSpec = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
const UFS_VLD: StackSpec = StackSpec::harness(FsKind::Ufs, DevKind::Vld);
const LFS_REGULAR: StackSpec = StackSpec::harness(FsKind::Lfs, DevKind::Regular);
const LFS_VLD: StackSpec = StackSpec::harness(FsKind::Lfs, DevKind::Vld);

#[test]
fn exhaustive_crash_sweep_ufs_regular() {
    let rep = run_sweep(&SweepConfig::exhaustive(UFS_REGULAR));
    assert!(rep.points_run as u64 > rep.total_ops, "torn variants missing");
    rep.assert_clean();
}

#[test]
fn exhaustive_crash_sweep_ufs_vld() {
    let rep = run_sweep(&SweepConfig::exhaustive(UFS_VLD));
    assert!(rep.total_ops > 0);
    rep.assert_clean();
}

#[test]
fn exhaustive_crash_sweep_ufs_lfs() {
    let rep = run_sweep(&SweepConfig::exhaustive(LFS_REGULAR));
    assert!(rep.frontier_ops.len() == 3);
    rep.assert_clean();
}

#[test]
fn exhaustive_crash_sweep_lfs_vld() {
    let rep = run_sweep(&SweepConfig::exhaustive(LFS_VLD));
    assert_eq!(
        rep.points_run as u64,
        rep.total_ops - rep.frontier_ops[0] + 1,
        "no torn variants on a VLD"
    );
    rep.assert_clean();
}

fn churn_cfg(spec: StackSpec, points: usize, seed: u64) -> SweepConfig {
    let mut cfg = SweepConfig::sampled(spec, points, seed);
    cfg.workload = Workload::churn(24);
    cfg
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_regular() {
    run_sweep(&churn_cfg(UFS_REGULAR, 48, 0x5eed_0001)).assert_clean();
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_vld() {
    run_sweep(&churn_cfg(UFS_VLD, 48, 0x5eed_0002)).assert_clean();
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_lfs() {
    run_sweep(&churn_cfg(LFS_REGULAR, 48, 0x5eed_0003)).assert_clean();
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_lfs_vld_seagate() {
    let spec = StackSpec {
        disk: DiskKind::Seagate,
        ..LFS_VLD
    };
    run_sweep(&churn_cfg(spec, 48, 0x5eed_0004)).assert_clean();
}
