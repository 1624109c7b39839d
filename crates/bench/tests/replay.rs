//! A fork simulates nothing. The burst/idle grids build their aged state
//! once and run each cell on a fork of its snapshot: the build adds exactly
//! the events its own clock counted to the process-wide counter, and a
//! fork adds none, though its clock carries the build's count, and it
//! observes what [`build_aged`]'s system does. That counter is shared by
//! every clock in the process, so this file holds exactly one test: its
//! deltas are exact only while nothing else simulates beside it.

use disksim::clock::events;
use fscore::{FileId, FileSystem, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};
use ufs::Ufs;
use vlfs_bench::setup::{build_aged, AgedSpec};
use vlfs_bench::workload::steady_state_update_ms;

/// What a figure cell sees of an aged system: its clock, its device
/// statistics, and the exact latency of a short measured workload.
fn observe(mut fs: Ufs, f: FileId, file_blocks: u64) -> (u64, u64, String, u64) {
    let clock = fs.clock();
    let (now, stats) = (clock.now(), format!("{:?}", fs.device().disk_stats()));
    let ms = steady_state_update_ms(&mut fs, f, file_blocks, 20, 20, 0xF18).expect("workload");
    (file_blocks, now, stats, ms.to_bits())
}

#[test]
fn forks_simulate_nothing() {
    let host = HostModel::sparcstation_10();
    let spec = AgedSpec::new(FsKind::Ufs, DevKind::Vld, DiskKind::Hp, host, 0.25);
    let e0 = events();
    let (built, file, file_blocks) = build_aged(&spec).expect("build");
    let build_events = events() - e0;
    assert_eq!(build_events, built.clock().local_events());
    let snap = built.snapshot().expect("snapshot");
    let oracle = observe(build_aged(&spec).expect("rebuild").0, file, file_blocks);
    for fork in 0..2 {
        let e0 = events();
        let fs = snap.restore();
        assert_eq!(events() - e0, 0, "fork {fork}");
        assert_eq!(
            fs.clock().local_events(),
            build_events,
            "fork {fork}'s clock"
        );
        assert_eq!(
            observe(fs, file, file_blocks),
            oracle,
            "fork {fork} != build_aged"
        );
    }
}
