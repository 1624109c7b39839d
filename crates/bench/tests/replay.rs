//! Replays simulate nothing. The harness skips work it has already
//! simulated in two places, the [`vlfs_bench::fig9::measure`] memo and the
//! [`vlfs_bench::setup::aged_system`] snapshot cache. A replay returns
//! what doing the work again would, bit for bit, and adds no events to the
//! process-wide counter; a miss adds exactly the events its fresh system
//! simulated. That counter is shared by every clock in the process, so
//! this file holds exactly one test: its deltas are exact only while
//! nothing else simulates beside it.

use disksim::clock::events;
use fscore::{FileId, FileSystem, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};
use ufs::Ufs;
use vlfs_bench::fig9::{measure, measure_fresh, Breakdown};
use vlfs_bench::setup::{aged_system, build_aged, AgedSpec};
use vlfs_bench::workload::steady_state_update_ms;

fn bits(b: &Breakdown) -> [u64; 4] {
    [b.overhead_ms, b.locate_ms, b.transfer_ms, b.other_ms].map(f64::to_bits)
}

/// What a figure cell sees of an aged system: its clock, its device
/// statistics, and the exact latency of a short measured workload.
fn observe(mut fs: Ufs, f: FileId, file_blocks: u64) -> (u64, u64, String, u64) {
    let clock = fs.clock();
    let (now, stats) = (clock.now(), format!("{:?}", fs.device().disk_stats()));
    let ms = steady_state_update_ms(&mut fs, f, file_blocks, 20, 20, 0xF18).expect("workload");
    (file_blocks, now, stats, ms.to_bits())
}

#[test]
fn replays_simulate_nothing() {
    let host = HostModel::sparcstation_10();
    for (dev, disk) in [
        (DevKind::Regular, DiskKind::Hp),
        (DevKind::Vld, DiskKind::Seagate),
    ] {
        let e0 = events();
        let miss = measure(dev, disk, host, 120).expect("first call measures");
        let e1 = events();
        let hit = measure(dev, disk, host, 120).expect("second call replays");
        let e2 = events();
        let fresh = measure_fresh(dev, disk, host, 120).expect("fresh run");
        let e3 = events();

        assert_eq!(bits(&hit), bits(&fresh), "{dev:?}/{disk:?}: hit != fresh");
        assert_eq!(bits(&miss), bits(&fresh), "{dev:?}/{disk:?}: miss != fresh");
        assert_eq!(e2 - e1, 0, "{dev:?}/{disk:?}: the hit simulated");
        assert_eq!(e1 - e0, e3 - e2, "{dev:?}/{disk:?}: events of the miss");
    }
    // The key covers everything the result depends on: a different host is
    // a different measurement, not a hit.
    let e0 = events();
    let other = measure(
        DevKind::Regular,
        DiskKind::Hp,
        HostModel::ultrasparc_170(),
        120,
    )
    .unwrap();
    assert!(events() > e0, "a new key must simulate");
    let hp = measure(DevKind::Regular, DiskKind::Hp, host, 120).unwrap();
    assert_ne!(bits(&other), bits(&hp), "host model is part of the key");

    // The aged-system cache: the call that builds simulates one build,
    // exactly what the fresh system's own clock counted; a fork simulates
    // nothing, though its clock carries the build's count.
    let spec = AgedSpec::new(FsKind::Ufs, DevKind::Vld, DiskKind::Hp, host, 0.25);
    let e0 = events();
    let (built, file, file_blocks) = build_aged(&spec).expect("rebuild");
    let build_events = events() - e0;
    assert_eq!(build_events, built.clock().local_events());
    let oracle = observe(built, file, file_blocks);
    for (call, adds) in [("building", build_events), ("forking", 0)] {
        let e0 = events();
        let (fork, f, fb) = aged_system(&spec).expect("cached fork");
        assert_eq!(events() - e0, adds, "{call} call");
        assert_eq!(
            fork.clock().local_events(),
            build_events,
            "{call} call's clock"
        );
        assert_eq!(f, file, "{call} call's file");
        assert_eq!(observe(fork, f, fb), oracle, "{call} call != build_aged");
    }
}
