//! Property tests of the disk simulator's timing invariants.

use proptest::prelude::*;

use disksim::{ns_to_ms, Disk, DiskSpec, SimClock, SECTOR_BYTES};

fn specs() -> impl Strategy<Value = DiskSpec> {
    prop_oneof![Just(DiskSpec::hp97560_sim()), Just(DiskSpec::st19101_sim())]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every operation advances the clock by exactly its reported total.
    #[test]
    fn service_time_equals_clock_delta(
        spec in specs(),
        ops in proptest::collection::vec((any::<bool>(), 0u64..40_000, 1u32..16), 1..40),
    ) {
        let total = spec.geometry.total_sectors();
        let clock = SimClock::new();
        let mut disk = Disk::new(spec, clock.clone());
        for (write, lba, count) in ops {
            let lba = lba % total;
            let count = count.min((total - lba) as u32);
            let t0 = clock.now();
            let st = if write {
                disk.write_sectors(lba, &vec![1u8; count as usize * SECTOR_BYTES])
                    .expect("in range")
            } else {
                let mut buf = vec![0u8; count as usize * SECTOR_BYTES];
                disk.read_sectors(lba, &mut buf).expect("in range")
            };
            prop_assert_eq!(clock.now() - t0, st.total_ns());
            prop_assert_eq!(
                st.total_ns(),
                st.overhead_ns + st.seek_ns + st.head_switch_ns + st.rotation_ns + st.transfer_ns
            );
        }
    }

    /// `preview_access` predicts writes exactly, from any machine state.
    #[test]
    fn preview_matches_execution(
        spec in specs(),
        warm in proptest::collection::vec(0u64..40_000, 0..10),
        target in 0u64..40_000,
        count in 1u32..16,
        idle_ns in 0u64..30_000_000,
    ) {
        let total = spec.geometry.total_sectors();
        let clock = SimClock::new();
        let mut disk = Disk::new(spec, clock.clone());
        for lba in warm {
            disk.write_sectors(lba % total, &vec![2u8; SECTOR_BYTES]).expect("in range");
        }
        clock.advance(idle_ns); // arbitrary rotational phase
        let lba = target % total;
        let count = count.min((total - lba) as u32);
        let predicted = disk.preview_access(lba, count).expect("in range");
        let actual = disk
            .write_sectors(lba, &vec![3u8; count as usize * SECTOR_BYTES])
            .expect("in range");
        prop_assert_eq!(predicted, actual);
    }

    /// Single-track rotational waits never exceed one revolution, and
    /// positioning costs are bounded by seek-max + switch + one revolution.
    #[test]
    fn positioning_costs_are_bounded(
        spec in specs(),
        moves in proptest::collection::vec((0u64..40_000, 1u32..9), 1..30),
    ) {
        let total = spec.geometry.total_sectors();
        let rev = spec.mech.revolution_ns();
        let max_seek = spec.mech.seek_ns(spec.geometry.cylinders());
        let spec_seek_one = spec.mech.seek_ns(1);
        let clock = SimClock::new();
        let mut disk = Disk::new(spec, clock);
        for (lba, count) in moves {
            let lba = lba % total;
            let count = count.min((total - lba) as u32);
            let st = disk
                .write_sectors(lba, &vec![1u8; count as usize * SECTOR_BYTES])
                .expect("in range");
            // Each per-track run waits under a revolution; small requests
            // span at most 2 runs.
            prop_assert!(st.rotation_ns <= 2 * rev, "rotation {} ms", ns_to_ms(st.rotation_ns));
            // A small request spans at most two runs; a cylinder crossing
            // adds one single-cylinder seek on top of the initial one.
            prop_assert!(st.seek_ns <= max_seek + spec_seek_one);
        }
    }

    /// Data integrity under arbitrary interleavings: the store behaves as
    /// a byte array regardless of timing state.
    #[test]
    fn reads_see_latest_writes(
        spec in specs(),
        ops in proptest::collection::vec((0u64..500, any::<u8>()), 1..60),
    ) {
        let clock = SimClock::new();
        let mut disk = Disk::new(spec, clock);
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        for (lba, fill) in ops {
            disk.write_sectors(lba, &vec![fill; SECTOR_BYTES]).expect("in range");
            model.insert(lba, fill);
        }
        for (lba, fill) in model {
            let mut buf = vec![0u8; SECTOR_BYTES];
            disk.read_sectors(lba, &mut buf).expect("in range");
            prop_assert!(buf.iter().all(|&b| b == fill), "lba {}", lba);
        }
    }
}
