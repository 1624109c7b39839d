//! Snapshot-engine micro-benchmarks: what a figure cell pays to *fork* an
//! aged system versus *rebuilding* it from scratch, plus the two costs the
//! fork amortises over — taking the flattened snapshot in the first place
//! and servicing copy-on-write faults as the fork diverges.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fscore::{FileSystem, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};
use vlfs_bench::setup::{build_aged, AgedSpec};
use vlfs_bench::workload::BLOCK;

/// A small but representative aged state: log-structured stack at 30 %
/// utilisation on the Seagate slice (hundreds of live tracks, a populated
/// buffer cache and piece table).
fn spec() -> AgedSpec {
    AgedSpec::new(
        FsKind::Lfs,
        DevKind::Regular,
        DiskKind::Seagate,
        HostModel::sparcstation_10(),
        0.3,
    )
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);

    // The rebuild oracle: what every cell paid before forking existed.
    group.bench_function("rebuild_aged_lfs_0.3", |b| {
        b.iter(|| build_aged(&spec()).unwrap());
    });

    // Taking the snapshot: flatten the media into one base image and
    // capture FS/device metadata. Paid once per distinct spec.
    let (fs, f, fb) = build_aged(&spec()).unwrap();
    group.bench_function("take_snapshot", |b| {
        b.iter(|| fs.snapshot().unwrap());
    });

    // Forking: what every cell pays instead of a rebuild. O(metadata) —
    // no track data is copied.
    let snap = fs.snapshot().unwrap();
    group.bench_function("fork_restore", |b| {
        b.iter(|| snap.restore());
    });

    // A fork that immediately dirties 32 distinct blocks: measures the
    // copy-on-write faults (track materialisation from the base image
    // through the buffer pool) plus the simulated writes themselves.
    let buf = vec![0xC3u8; BLOCK];
    group.bench_function("fork_write_32_blocks", |b| {
        b.iter_batched(
            || snap.restore(),
            |mut fork| {
                for i in 0..32u64 {
                    let off = (i * 193 % fb) * BLOCK as u64;
                    fork.write(f, off, &buf).unwrap();
                }
                fork.sync().unwrap();
                fork
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
