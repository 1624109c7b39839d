//! Fork-vs-rebuild identity properties for the aged-system snapshot cache.
//!
//! The snapshot engine's contract is that a fork of a cached aged build is
//! *indistinguishable* from a from-scratch rebuild of the same
//! [`AgedSpec`]: same measured latencies (bit-for-bit), same virtual clock,
//! same logical media contents, same disk statistics — across all four
//! FS/device stacks, under fault injection, and regardless of how many
//! workers fork concurrently. These tests pin that contract.

use disksim::fault::content_hash;
use disksim::{par, probe_device, FaultDisk, FaultPlan, RegularDisk, SimClock, WriteFault};
use fscore::{FileId, FileSystem, HostModel};
use lfs::{CleanerStats, LogDisk};
use modelcheck::stack::{DevKind, DiskKind, FsKind, Obs, StackSpec, SECTORS_PER_BLOCK};
use ufs::{Ufs, UfsConfig};
use vlfs_bench::setup::{aged_system, build_aged, AgedSpec};
use vlfs_bench::workload::{make_file, steady_state_update_ms, BLOCK};
use vlog_core::{CompactStats, Vld};

/// A behavioural fingerprint of a system: everything a figure cell could
/// observe. Two systems in byte-identical states produce equal
/// fingerprints; any state divergence (cache contents, media bytes, layout
/// affecting seek times, clock skew) shows up in at least one field.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Measured workload latency, exact bits.
    latency_bits: u64,
    /// Virtual clock after the workload.
    clock_ns: u64,
    /// FNV hash of the target file's full contents, read back cold.
    file_hash: u64,
    /// Device statistics after the workload.
    disk_stats: String,
}

/// Run the standard measured workload on `fs` and fingerprint the result.
fn fingerprint(mut fs: Ufs, f: FileId, file_blocks: u64, updates: u64) -> Fingerprint {
    let ms = steady_state_update_ms(&mut fs, f, file_blocks, updates, updates, 0xF18)
        .expect("measured workload");
    fs.drop_caches();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = vec![0u8; 16 * BLOCK];
    let mut off = 0u64;
    let total = file_blocks * BLOCK as u64;
    while off < total {
        let n = fs.read(f, off, &mut buf).expect("read back");
        assert!(n > 0, "short read at {off}");
        for &b in &buf[..n] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        off += n as u64;
    }
    Fingerprint {
        latency_bits: ms.to_bits(),
        clock_ns: fs.clock().now(),
        file_hash: h,
        disk_stats: format!("{:?}", fs.device().disk_stats()),
    }
}

fn spec(fs: FsKind, dev: DevKind, disk: DiskKind) -> AgedSpec {
    AgedSpec {
        sync_writes: matches!(fs, FsKind::Ufs),
        ..AgedSpec::new(fs, dev, disk, HostModel::sparcstation_10(), 0.25)
    }
}

/// Fork and rebuild agree bit-for-bit on every stack of the paper's
/// Figure 5 matrix, on both simulated drives.
#[test]
fn fork_matches_rebuild_across_all_stacks() {
    for (fs, dev, disk) in [
        (FsKind::Ufs, DevKind::Regular, DiskKind::Seagate),
        (FsKind::Ufs, DevKind::Vld, DiskKind::Seagate),
        (FsKind::Lfs, DevKind::Regular, DiskKind::Seagate),
        (FsKind::Lfs, DevKind::Vld, DiskKind::Seagate),
        (FsKind::Ufs, DevKind::Vld, DiskKind::Hp),
        (FsKind::Lfs, DevKind::Regular, DiskKind::Hp),
    ] {
        let s = spec(fs, dev, disk);
        let (built, f, fb) = build_aged(&s).expect("build");
        let snap = built.snapshot().expect("stack must snapshot");
        let fork = fingerprint(snap.restore(), f, fb, 80);
        let (oracle, f2, fb2) = build_aged(&s).expect("rebuild");
        assert_eq!((f, fb), (f2, fb2), "{fs:?}/{dev:?}/{disk:?} setup handle");
        let rebuild = fingerprint(oracle, f2, fb2, 80);
        assert_eq!(fork, rebuild, "{fs:?}/{dev:?}/{disk:?} fork != rebuild");
    }
}

/// Build a UFS over a fault-injecting device; `plan` decides what fails.
fn faulty_system(plan: FaultPlan) -> (Ufs, FileId, u64) {
    let raw = RegularDisk::new(DiskKind::Seagate.spec(), SimClock::new(), 4096);
    let dev = FaultDisk::new(Box::new(raw), plan);
    let mut fs = Ufs::format(
        Box::new(dev),
        HostModel::sparcstation_10(),
        UfsConfig::default(),
    )
    .unwrap();
    let file_blocks = (fs.free_blocks() as f64 * 0.2) as u64;
    let f = make_file(&mut fs, "target", file_blocks * BLOCK as u64).unwrap();
    fs.set_sync_writes(true);
    (fs, f, file_blocks)
}

/// Fault injection state (the write-op cursor and pending plan) is part of
/// the snapshot: a fork hits the same transient error at the same op as a
/// rebuild, then both recover identically.
#[test]
fn fork_matches_rebuild_under_fault_disk() {
    // Pass 1: count the setup's write ops so the fault lands mid-measurement.
    let (fs, _, _) = faulty_system(FaultPlan::none());
    let setup_ops = disksim::probe_device::<FaultDisk>(fs.device())
        .expect("fault disk at top of stack")
        .write_ops();
    drop(fs);
    let plan = || FaultPlan::transient(setup_ops + 25);

    let run = |mut fs: Ufs, f: FileId, fb: u64| -> (Vec<String>, Fingerprint) {
        // Drive writes one block at a time so per-op Results are visible.
        let mut outcomes = Vec::new();
        let data = vec![0x5Au8; BLOCK];
        for i in 0..40u64 {
            let off = (i * 97 % fb) * BLOCK as u64;
            outcomes.push(match fs.write(f, off, &data) {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{e:?}"),
            });
        }
        (outcomes, fingerprint(fs, f, fb, 40))
    };

    let (built, f, fb) = faulty_system(plan());
    let snap = built.snapshot().expect("fault stack must snapshot");
    let (fork_outcomes, fork_fp) = run(snap.restore(), f, fb);
    let (oracle, f2, fb2) = faulty_system(plan());
    let (rebuild_outcomes, rebuild_fp) = run(oracle, f2, fb2);

    assert!(
        fork_outcomes.iter().any(|o| o != "ok"),
        "transient fault should fire during the measured writes"
    );
    assert_eq!(fork_outcomes, rebuild_outcomes, "fault timing diverged");
    assert_eq!(fork_fp, rebuild_fp, "post-fault state diverged");
}

/// Writes in one fork are invisible to the parent, to sibling forks, and
/// to forks taken later from the same snapshot — on the media (cold reads)
/// and in the buffer-cache payloads every fork shares with the snapshot
/// (warm reads of blocks that were cached when it was taken).
#[test]
fn fork_mutation_is_isolated() {
    let s = spec(FsKind::Lfs, DevKind::Vld, DiskKind::Seagate);
    let (mut parent, f, fb) = build_aged(&s).expect("build");
    let hot = 16.min(fb as usize) * BLOCK;
    let warm_hash = |fs: &mut Ufs| {
        let mut buf = vec![0u8; hot];
        let n = fs.read(f, 0, &mut buf).expect("read");
        content_hash(&buf[..n])
    };
    let warm = warm_hash(&mut parent); // now cached, so the snapshot shares it
    let snap = parent.snapshot().expect("snapshot");

    let cold_hash = |fs: &mut Ufs| {
        fs.drop_caches();
        let mut buf = vec![0u8; (fb as usize) * BLOCK];
        let n = fs.read(f, 0, &mut buf).expect("read");
        content_hash(&buf[..n])
    };
    let before = cold_hash(&mut snap.restore());
    let mut sibling = snap.restore();

    let mut mutant = snap.restore();
    let blot = vec![0xEEu8; 8 * BLOCK];
    for i in 0..16u64 {
        let off = (i * 131 % fb) * BLOCK as u64; // i = 0 blots the hot blocks
        mutant.write(f, off, &blot).expect("mutate fork");
    }
    assert_ne!(
        warm_hash(&mut mutant),
        warm,
        "mutation must be visible in the fork"
    );
    let mut late = snap.restore();
    for (who, fs) in [
        ("parent", &mut parent),
        ("sibling", &mut sibling),
        ("late fork", &mut late),
    ] {
        assert_eq!(warm_hash(fs), warm, "{who}'s cached blocks saw fork writes");
    }

    mutant.sync().expect("sync fork");
    assert_ne!(
        cold_hash(&mut mutant),
        before,
        "mutation must reach the fork's media"
    );
    assert_eq!(cold_hash(&mut parent), before, "parent saw fork writes");
    assert_eq!(cold_hash(&mut sibling), before, "sibling saw fork writes");
    assert_eq!(
        cold_hash(&mut snap.restore()),
        before,
        "snapshot itself was mutated"
    );
}

/// The cached path ([`aged_system`]) serves concurrent workers the same
/// state the rebuild oracle produces, at pool widths 1 and 4: every cell's
/// fingerprint matches, wherever the build races land.
#[test]
fn cached_forks_match_rebuilds_under_parallel_workers() {
    let s = spec(FsKind::Ufs, DevKind::Vld, DiskKind::Seagate);
    let cells: Vec<u64> = (0..6).collect();
    let oracle: Vec<Fingerprint> = cells
        .iter()
        .map(|_| {
            let (fs, f, fb) = build_aged(&s).expect("rebuild");
            fingerprint(fs, f, fb, 60)
        })
        .collect();
    for width in [1usize, 4] {
        let got = par::pmap_in(width, cells.clone(), |_| {
            let (fs, f, fb) = aged_system(&s).expect("cached fork");
            fingerprint(fs, f, fb, 60)
        });
        assert_eq!(got, oracle, "width {width}: cached fork diverged");
    }
}

/// Simulated nanoseconds per millisecond.
const MS: u64 = 1_000_000;

/// The idle grant for `spec`. The compactor stops a victim when its grant
/// runs out, so UFS on the VLD gets grants shorter than a track's worth of
/// moves. The LLD cleaner may start a segment just before its grant ends,
/// and on the VLD one segment takes over a second, so LFS gets grants long
/// enough for such an overrun to stay within what [`FileSystem::idle`]
/// allows.
fn grant(spec: StackSpec) -> u64 {
    match spec.fs {
        FsKind::Ufs => 60 * MS,
        FsKind::Lfs => 10_000 * MS,
    }
}

/// The background work done so far: the compactor's and the cleaner's.
fn work(fs: &Ufs) -> (Option<CompactStats>, Option<CleanerStats>) {
    let dev = fs.device();
    (
        probe_device::<Vld>(dev).map(|v| v.compactor().stats()),
        probe_device::<LogDisk>(dev).map(|l| l.cleaner_stats()),
    )
}

/// Op indices the fault layer of `fs` has consumed: acknowledged writes
/// plus faulted ones.
fn ops_used(fs: &Ufs) -> u64 {
    let fault = probe_device::<FaultDisk>(fs.device()).expect("a fault layer");
    fault.write_ops() + fault.fault_log().transients
}

/// A fragmented volume after a synced burst of overwrites. Returns the
/// system, its file and the file's size in blocks.
fn burst(spec: StackSpec, plan: FaultPlan) -> (Ufs, FileId, u64) {
    let mut fs = spec.build(Some(plan), &Obs::default()).expect("build");
    let blocks = fs.free_blocks() * 7 / 10;
    let f = make_file(&mut fs, "target", blocks * BLOCK as u64).expect("fill");
    fs.sync().expect("sync");
    let data = vec![0x5Au8; BLOCK];
    for i in 0..blocks / 2 {
        let off = (i * 7919 % blocks) * BLOCK as u64;
        fs.write(f, off, &data).expect("burst");
    }
    fs.sync().expect("sync");
    (fs, f, blocks)
}

/// [`burst`], then idle grants until one ends mid-way through background
/// work. On UFS over the VLD the compactor holds a half-moved victim. On
/// LFS over the VLD, `plan`'s transient fails the cleaner's flush: its
/// victim is parked in `pending_free` and its copies sit in the open
/// segment, past what the last partial flush wrote.
fn mid_idle(spec: StackSpec, plan: FaultPlan) -> (Ufs, FileId, u64) {
    let (mut fs, f, blocks) = burst(spec, plan);
    for _ in 0..400 {
        let before = work(&fs);
        fs.idle(grant(spec));
        let expired = match (before, work(&fs)) {
            ((_, Some(before)), (_, Some(after))) => {
                after.during_idle > before.during_idle
                    && after.segments_cleaned == before.segments_cleaned
            }
            ((Some(before), None), (Some(after), None)) => {
                after.blocks_moved > before.blocks_moved
                    && after.tracks_emptied == before.tracks_emptied
            }
            _ => unreachable!("{spec} is a VLD stack"),
        };
        if expired {
            return (fs, f, blocks);
        }
    }
    panic!("{spec}: no idle grant ended mid-way through background work");
}

/// Overwrites, with a sync and an idle grant every 64th op, until an op
/// fails; returns that op's index.
fn continue_until_cut(spec: StackSpec, fs: &mut Ufs, f: FileId, blocks: u64) -> Option<u64> {
    let data = vec![0xC3u8; BLOCK];
    (0..4_000u64).find(|&i| {
        let step = if i % 64 == 63 {
            fs.sync().map(|()| fs.idle(grant(spec)))
        } else {
            fs.write(f, (i * 104_729 % blocks) * BLOCK as u64, &data)
        };
        step.is_err()
    })
}

/// A fork taken while background work is half done continues exactly
/// like the system it was taken from: the same op fails at the same power
/// cut, with the same clock, drive counters, compactor and cleaner work,
/// and the same bytes in every block of the media.
#[test]
fn fork_mid_idle_continues_like_the_original() {
    for spec in [
        // A compactor that always has work: its pool target is the whole
        // free space.
        StackSpec {
            vld_target_empty_tracks: Some(u32::MAX),
            ..StackSpec::harness(FsKind::Ufs, DevKind::Vld)
        },
        StackSpec::harness(FsKind::Lfs, DevKind::Vld),
    ] {
        // The cleaner's first write after the burst fails; the compactor
        // needs no fault to stop mid-victim.
        let plan = match spec.fs {
            FsKind::Ufs => FaultPlan::none(),
            FsKind::Lfs => FaultPlan::transient(ops_used(&burst(spec, FaultPlan::none()).0) + 1),
        };
        // A dry run finds how many ops the continuation takes; the power
        // cut goes half-way through them, past the snapshot.
        let (mut fs, f, blocks) = mid_idle(spec, plan.clone());
        let at_snapshot = ops_used(&fs);
        assert_eq!(continue_until_cut(spec, &mut fs, f, blocks), None, "{spec}");
        let cut = at_snapshot + (ops_used(&fs) - at_snapshot) / 2;
        let plan = plan.with(cut, WriteFault::PowerCut { survivors: 3 });

        let (mut original, f, blocks) = mid_idle(spec, plan);
        let mut fork = original
            .snapshot()
            .expect("a VLD stack snapshots")
            .restore();
        let mut ends = Vec::new();
        for fs in [&mut original, &mut fork] {
            let cut_at = continue_until_cut(spec, fs, f, blocks);
            assert!(cut_at.is_some(), "{spec}: the power cut must fire");
            let stats = fs.device().disk_stats();
            ends.push(format!(
                "{cut_at:?} {} {stats:?} {:?}",
                fs.clock().now(),
                work(fs)
            ));
        }
        assert_eq!(ends[0], ends[1], "{spec}: the fork diverged");
        let (a, b) = (spec.crash(original), spec.crash(fork));
        assert_eq!((a.write_ops, a.log), (b.write_ops, b.log), "{spec}");
        let blocks = a.disk.spec().geometry.total_sectors() / SECTORS_PER_BLOCK;
        for block in 0..blocks {
            assert_eq!(
                a.media_hash(block),
                b.media_hash(block),
                "{spec}: block {block}"
            );
        }
    }
}
