//! Replay-vs-fresh identity for the two places the harness skips work it
//! has already simulated: the [`vlfs_bench::fig9::measure`] memo and the
//! [`vlfs_bench::setup::aged_system`] snapshot cache.
//!
//! A replay must be indistinguishable from doing the work again: the same
//! result, bit for bit, and the same number of simulated events credited
//! to the process-wide counter. That counter is shared by every clock in
//! the process, so this file holds exactly one test — its deltas are exact
//! only while nothing else simulates beside it.

use disksim::clock::events;
use fscore::{FileSystem, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};
use vlfs_bench::fig9::{measure, measure_fresh, Breakdown};
use vlfs_bench::setup::{aged_system, build_aged, AgedSpec};

fn bits(b: &Breakdown) -> [u64; 4] {
    [b.overhead_ms, b.locate_ms, b.transfer_ms, b.other_ms].map(f64::to_bits)
}

#[test]
fn replays_credit_the_events_they_skip() {
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
        let (fresh, consumed) = measure_fresh(dev, disk, host, 120).expect("fresh run");
        let e3 = events();

        assert_eq!(bits(&hit), bits(&fresh), "{dev:?}/{disk:?}: hit != fresh");
        assert_eq!(bits(&miss), bits(&fresh), "{dev:?}/{disk:?}: miss != fresh");
        assert_eq!(e3 - e2, consumed, "{dev:?}/{disk:?}: fresh run's own count");
        assert_eq!(e2 - e1, consumed, "{dev:?}/{disk:?}: events credited by the hit");
        assert_eq!(e1 - e0, consumed, "{dev:?}/{disk:?}: events of the miss");
    }
    // The key covers everything the result depends on: a different host is
    // a different measurement, not a hit.
    let e0 = events();
    let other = measure(DevKind::Regular, DiskKind::Hp, HostModel::ultrasparc_170(), 120).unwrap();
    assert!(events() > e0, "a new key must simulate");
    let hp = measure(DevKind::Regular, DiskKind::Hp, host, 120).unwrap();
    assert_ne!(bits(&other), bits(&hp), "host model is part of the key");

    // The aged-system cache keeps the same books: the call that builds and
    // every later fork each count one from-scratch build.
    let spec = AgedSpec::new(FsKind::Ufs, DevKind::Vld, DiskKind::Hp, host, 0.25);
    let e0 = events();
    let (built, _, _) = build_aged(&spec).expect("rebuild");
    let build_events = events() - e0;
    assert_eq!(build_events, built.clock().local_events());
    for call in ["building", "forking"] {
        let e0 = events();
        let (fork, _, _) = aged_system(&spec).expect("cached fork");
        assert_eq!(events() - e0, build_events, "{call} call");
        assert_eq!(fork.clock().local_events(), build_events, "{call} call's clock");
    }
}
