//! Allocator fast-path micro-benchmarks: `find_block` / `find_sector` /
//! `FreeMap::allocate` at 10 / 50 / 90 % utilization, plus the retained
//! naive `reference::greedy` oracle at the same fill levels so the
//! speedup from the hierarchical index and cost pruning is measurable
//! side by side — and the three allocation modes (best-first indexed,
//! pruned scan, reference oracle) head-to-head on aged, highly
//! fragmented disks at 25 / 50 / 75 / 90 % utilization.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use disksim::{Disk, DiskSpec, SimClock};
use vlog_core::alloc::reference;
use vlog_core::{AllocConfig, AllocMode, EagerAllocator, FreeMap, BLOCK_SECTORS};

/// Deterministic xorshift-style fill to the requested utilization,
/// the same pattern the equivalence property test uses.
fn filled_map(spec: &DiskSpec, util: f64) -> FreeMap {
    let g = &spec.geometry;
    let mut free = FreeMap::new(g);
    let mut x = 7u64;
    while free.utilization() < util {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let cyl = (x >> 33) as u32 % g.cylinders();
        let track = (x >> 21) as u32 % g.tracks_per_cylinder();
        let spt = free.sectors_per_track(free.track_index(cyl, track));
        let slot = (x >> 8) as u32 % (spt / BLOCK_SECTORS);
        let _ = free.allocate(cyl, track, slot * BLOCK_SECTORS, BLOCK_SECTORS);
    }
    free
}

fn setup(util: f64) -> (Disk, FreeMap) {
    let mut spec = DiskSpec::st19101_sim();
    spec.command_overhead_ns = 0;
    let free = filled_map(&spec, util);
    (Disk::new(spec, SimClock::new()), free)
}

fn bench_find(c: &mut Criterion) {
    for pct in [10u32, 50, 90] {
        let (disk, free) = setup(pct as f64 / 100.0);
        let mut alloc = EagerAllocator::new(AllocConfig {
            threshold_fill: false,
            ..AllocConfig::default()
        });
        c.bench_function(&format!("alloc_find_block_{pct}pct"), |b| {
            b.iter(|| alloc.find_block(&disk, &free).expect("space exists"))
        });
        c.bench_function(&format!("alloc_find_sector_{pct}pct"), |b| {
            b.iter(|| alloc.find_sector(&disk, &free).expect("space exists"))
        });
        c.bench_function(&format!("alloc_reference_greedy_block_{pct}pct"), |b| {
            b.iter(|| {
                reference::greedy(&disk, &free, None, BLOCK_SECTORS, false)
                    .expect("space exists")
            })
        });
    }
}

/// An aged, highly fragmented map: overfill past the target utilization,
/// then free random blocks back down to it. Unlike a fresh fill, the
/// resulting free space is scattered holes — the shape eager writing
/// faces after long service, and the worst case for a candidate scan.
fn aged_map(spec: &DiskSpec, util: f64) -> FreeMap {
    let g = &spec.geometry;
    let mut free = FreeMap::new(g);
    let mut used: Vec<(u32, u32, u32)> = Vec::new();
    let mut x = 0xA6EDu64;
    let over = (util + 0.08).min(0.98);
    while free.utilization() < over {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let cyl = (x >> 33) as u32 % g.cylinders();
        let track = (x >> 21) as u32 % g.tracks_per_cylinder();
        let spt = free.sectors_per_track(free.track_index(cyl, track));
        let sector = ((x >> 8) as u32 % (spt / BLOCK_SECTORS)) * BLOCK_SECTORS;
        if free.allocate(cyl, track, sector, BLOCK_SECTORS).is_ok() {
            used.push((cyl, track, sector));
        }
    }
    while free.utilization() > util && !used.is_empty() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let i = (x >> 16) as usize % used.len();
        let (cyl, track, sector) = used.swap_remove(i);
        free.release(cyl, track, sector, BLOCK_SECTORS)
            .expect("allocated above");
    }
    free
}

/// The two allocator modes side by side on aged disks: the indexed
/// best-first path must beat the naive oracle at every fill level.
fn bench_modes_aged(c: &mut Criterion) {
    for pct in [25u32, 50, 75, 90] {
        let mut spec = DiskSpec::st19101_sim();
        spec.command_overhead_ns = 0;
        let free = aged_map(&spec, pct as f64 / 100.0);
        let disk = Disk::new(spec, SimClock::new());
        for (label, mode) in [
            ("fast", AllocMode::Fast),
            ("reference", AllocMode::Reference),
        ] {
            let mut alloc = EagerAllocator::with_mode(
                AllocConfig {
                    threshold_fill: false,
                    ..AllocConfig::default()
                },
                mode,
            );
            c.bench_function(&format!("alloc_aged_{label}_{pct}pct"), |b| {
                b.iter(|| alloc.find_block(&disk, &free).expect("space exists"))
            });
        }
    }
}

fn bench_freemap_allocate(c: &mut Criterion) {
    for pct in [10u32, 50, 90] {
        let (disk, free) = setup(pct as f64 / 100.0);
        let mut alloc = EagerAllocator::new(AllocConfig {
            threshold_fill: false,
            ..AllocConfig::default()
        });
        // Bench the bookkeeping itself: take the block the allocator
        // would pick, mark it used, then undo — the map returns to the
        // same fill level every iteration.
        let cand = alloc.find_block(&disk, &free).expect("space exists");
        c.bench_function(&format!("freemap_allocate_release_{pct}pct"), |b| {
            b.iter_batched(
                || free.clone(),
                |mut f| {
                    f.allocate(cand.cyl, cand.track, cand.sector, BLOCK_SECTORS)
                        .expect("allocate");
                    f.release(cand.cyl, cand.track, cand.sector, BLOCK_SECTORS)
                        .expect("release");
                    f
                },
                BatchSize::LargeInput,
            )
        });
    }
}

criterion_group!(benches, bench_find, bench_modes_aged, bench_freemap_allocate);
criterion_main!(benches);
