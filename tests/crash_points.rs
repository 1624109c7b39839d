//! Crash-point exploration across the paper's four stacks (Figure 5): UFS
//! and LFS, each on a regular disk and on the virtual-log disk.
//!
//! The tier-1 tests sweep *every* crash point of the small mixed script
//! exhaustively, with torn-write variants on the raw-disk stacks and the
//! recovery-path convergence checks enabled, and pin where the points fall
//! (device-write ordinals of each frontier, of the whole script, and the
//! number of points). The `#[ignore]`d tests run the larger churn script
//! under seeded sampling — same invariants, more state (name reuse,
//! on-demand cleaning, bigger files); CI's `modelcheck-smoke` job runs them.

use modelcheck::stack::{DevKind, DiskKind, FsKind};
use modelcheck::{sweep_cut_points, CutSweep, Script, StackSpec};

const UFS_REGULAR: StackSpec = StackSpec::harness(FsKind::Ufs, DevKind::Regular);
const UFS_VLD: StackSpec = StackSpec::harness(FsKind::Ufs, DevKind::Vld);
const LFS_REGULAR: StackSpec = StackSpec::harness(FsKind::Lfs, DevKind::Regular);
const LFS_VLD: StackSpec = StackSpec::harness(FsKind::Lfs, DevKind::Vld);

/// Every cut point of the small mixed script.
fn exhaustive(spec: StackSpec) -> CutSweep {
    sweep_cut_points(spec, Script::SmallMixed, None)
}

/// `(frontier_ops, total_ops, points_run)`: where the points fall.
fn coordinates(rep: &CutSweep) -> (&[u64], u64, usize) {
    (&rep.frontier_ops, rep.total_ops, rep.points_run)
}

#[test]
fn exhaustive_crash_sweep_ufs_regular() {
    let rep = exhaustive(UFS_REGULAR);
    assert!(rep.points_run as u64 > rep.total_ops, "torn variants missing");
    assert_eq!(coordinates(&rep), (&[3, 20, 36][..], 38, 106));
    rep.assert_clean();
}

#[test]
fn exhaustive_crash_sweep_ufs_vld() {
    let rep = exhaustive(UFS_VLD);
    assert!(rep.total_ops > 0);
    assert_eq!(coordinates(&rep), (&[3, 20, 36][..], 38, 36));
    rep.assert_clean();
}

#[test]
fn exhaustive_crash_sweep_ufs_lfs() {
    let rep = exhaustive(LFS_REGULAR);
    assert!(rep.frontier_ops.len() == 3);
    assert_eq!(coordinates(&rep), (&[16, 43, 86][..], 86, 211));
    rep.assert_clean();
}

#[test]
fn exhaustive_crash_sweep_lfs_vld() {
    let rep = exhaustive(LFS_VLD);
    assert_eq!(
        rep.points_run as u64,
        rep.total_ops - rep.frontier_ops[0] + 1,
        "no torn variants on a VLD"
    );
    assert_eq!(coordinates(&rep), (&[16, 43, 86][..], 86, 71));
    rep.assert_clean();
}

/// 48 seeded cut points of 24 churn rounds, pinned where they fall.
fn churn(spec: StackSpec, seed: u64, frontier_ops: &[u64], points_run: usize) {
    let rep = sweep_cut_points(spec, Script::Churn(24), Some((48, seed)));
    let total = *frontier_ops.last().expect("frontiers");
    assert_eq!(coordinates(&rep), (frontier_ops, total, points_run));
    rep.assert_clean();
}

const UFS_CHURN: [u64; 10] = [3, 21, 40, 59, 81, 102, 124, 145, 167, 167];

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_regular() {
    churn(UFS_REGULAR, 0x5eed_0001, &UFS_CHURN, 142);
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_vld() {
    churn(UFS_VLD, 0x5eed_0002, &UFS_CHURN, 48);
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_lfs() {
    let frontiers = [16, 44, 91, 157, 245, 354, 383, 433, 505, 577];
    churn(LFS_REGULAR, 0x5eed_0003, &frontiers, 142);
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_lfs_vld_seagate() {
    let spec = StackSpec {
        disk: DiskKind::Seagate,
        ..LFS_VLD
    };
    let frontiers = [14, 41, 87, 152, 239, 347, 375, 424, 495, 566];
    churn(spec, 0x5eed_0004, &frontiers, 48);
}
