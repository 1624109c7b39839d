//! Hot-path micro-benchmarks for the page store and the two-level
//! translation table: fresh, forked and shared pages and sequential and
//! strided multi-track reads through the disk's page store, and
//! logical→physical lookups through the virtual log's piece-paged map —
//! the two inner loops every simulated figure, model-check episode and
//! crash sweep turns on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use disksim::{Disk, DiskSpec, SimClock, SECTOR_BYTES};
use vlog_core::{AllocConfig, VirtualLog, BLOCK_BYTES};

fn disk() -> Disk {
    let mut spec = DiskSpec::hp97560_sim();
    spec.command_overhead_ns = 0;
    Disk::new(spec, SimClock::new())
}

/// Sector traffic through the page store: four tracks written to a fresh
/// disk (every page new), a fork's first write to one block of every
/// written track (every page shared with the snapshot), a shared read of
/// one track, a long sequential read (multi-track runs) and a strided
/// pattern (one run per command, different track each time).
fn bench_page_store(c: &mut Criterion) {
    let spt = 72usize; // HP 97560 sectors per track
    c.bench_function("disk/write_fresh_4tracks", |b| {
        let buf = vec![0xA5u8; 4 * spt * SECTOR_BYTES];
        b.iter_batched(
            disk,
            |mut d| d.write_sectors(0, &buf).unwrap(),
            BatchSize::SmallInput,
        );
    });
    c.bench_function("disk/fork_first_write_64tracks", |b| {
        let mut d = disk();
        d.write_sectors(0, &vec![0xA5u8; 64 * spt * SECTOR_BYTES])
            .unwrap();
        let snap = d.snapshot();
        let block = [0x5Au8; 8 * SECTOR_BYTES];
        b.iter_batched(
            || snap.restore(),
            |mut f| {
                for track in 0..64 {
                    f.write_sectors((track * spt) as u64, &block).unwrap();
                }
                f
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("disk/share_track", |b| {
        let mut d = disk();
        d.write_sectors(0, &vec![0xA5u8; spt * SECTOR_BYTES])
            .unwrap();
        b.iter(|| d.share_sectors(0, spt as u32).unwrap());
    });
    c.bench_function("disk/read_seq_4tracks", |b| {
        let mut d = disk();
        let buf = vec![0xA5u8; 4 * spt * SECTOR_BYTES];
        d.write_sectors(0, &buf).unwrap();
        let mut out = vec![0u8; buf.len()];
        b.iter(|| d.read_sectors(0, &mut out).unwrap());
    });
    c.bench_function("disk/read_strided_64cmds", |b| {
        let mut d = disk();
        let block = vec![0x5Au8; 8 * SECTOR_BYTES];
        for i in 0..64u64 {
            d.write_sectors(i * 1009 * 8 % 48_000, &block).unwrap();
        }
        let mut out = vec![0u8; block.len()];
        b.iter(|| {
            for i in 0..64u64 {
                d.read_sectors(i * 1009 * 8 % 48_000, &mut out).unwrap();
            }
        });
    });
}

/// Logical→physical translation through the piece-paged map: hit a warm
/// working set, then a sparse sweep that mostly lands on unmaterialised
/// pages (the shared all-unmapped page's fast path).
fn bench_translate(c: &mut Criterion) {
    let mut v = VirtualLog::format(disk(), AllocConfig::default());
    let data = vec![7u8; BLOCK_BYTES];
    for lb in 0..512u64 {
        v.write(lb, &data).unwrap();
    }
    let n = v.num_blocks();
    c.bench_function("vlog/translate_hot512", |b| {
        b.iter(|| {
            let mut live = 0u64;
            for lb in 0..512u64 {
                live += u64::from(v.translate(lb).is_some());
            }
            live
        });
    });
    c.bench_function("vlog/translate_sparse_sweep", |b| {
        b.iter(|| {
            let mut live = 0u64;
            for lb in (0..n).step_by(97) {
                live += u64::from(v.translate(lb).is_some());
            }
            live
        });
    });
}

criterion_group!(benches, bench_page_store, bench_translate);
criterion_main!(benches);
