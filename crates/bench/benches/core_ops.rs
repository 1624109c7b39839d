//! Criterion micro-benchmarks of the core mechanisms (wall-clock cost of
//! the implementation itself; the *simulated* latencies are reported by the
//! figure binaries).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use disksim::{BlockDevice, Disk, DiskSpec, SimClock};
use vlog_core::mapsector::MapSectorRef;
use vlog_core::{
    AllocConfig, Checkpoint, EagerAllocator, FreeMap, MapFlags, MapSector, PieceLoc, VirtualLog,
    Vld, VldConfig, BLOCK_BYTES,
};

/// The record seal through the public codecs: a 4 KB checkpoint slot, and
/// a 512 B map sector — the seal every log append pays.
fn bench_seal(c: &mut Criterion) {
    let loc = PieceLoc {
        lba: 4096,
        seq: 122,
        prev: Some((2048, 100)),
    };
    let pieces = vec![Some(loc); 100];
    let mut buf = Vec::new();
    c.bench_function("seal_4k", |b| {
        b.iter(|| Checkpoint::encode_into(99, std::hint::black_box(&pieces), 8, &mut buf))
    });
    let entries = vec![5u32; vlog_core::PIECE_ENTRIES];
    let piece = MapSectorRef {
        seq: 123,
        piece: 7,
        flags: MapFlags::EMPTY,
        prev: Some((4096, 122)),
        bypass: Some((2048, 100)),
        txn: None,
        entries: &entries,
    };
    c.bench_function("seal_512", |b| {
        b.iter(|| {
            std::hint::black_box(piece)
                .encode_into(&mut buf)
                .expect("encode")
        })
    });
}

/// The compactor's hole-plug search on an aged log: overfilled to 88 %,
/// then randomly trimmed back to 80 % so the free space is scattered holes.
fn bench_plug_destination(c: &mut Criterion) {
    let mut spec = DiskSpec::st19101_sim();
    spec.command_overhead_ns = 0;
    let mut vlog = VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default());
    let block = vec![0x42u8; BLOCK_BYTES];
    let mut live = Vec::new();
    for lb in 0..vlog.num_blocks() {
        if vlog.utilization() >= 0.88 {
            break;
        }
        vlog.write(lb, &block).expect("in range");
        live.push(lb);
    }
    let mut x = 0xA6EDu64;
    while vlog.utilization() > 0.80 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let lb = live.swap_remove((x >> 16) as usize % live.len());
        vlog.trim(lb).expect("mapped block");
    }
    let head = vlog.disk().head();
    c.bench_function("plug_destination_aged_80", |b| {
        b.iter(|| {
            vlog.find_plug_destination(std::hint::black_box((head.cyl, head.track)))
                .expect("holes exist")
        })
    });
}

fn bench_mapsector_codec(c: &mut Criterion) {
    let m = MapSector {
        seq: 123,
        piece: 7,
        flags: MapFlags::EMPTY,
        prev: Some((4096, 122)),
        bypass: Some((2048, 100)),
        txn: None,
        entries: vec![5; vlog_core::PIECE_ENTRIES],
    };
    let img = m.encode().expect("encode");
    c.bench_function("map_sector_encode", |b| {
        b.iter(|| m.encode().expect("encode"))
    });
    c.bench_function("map_sector_decode", |b| {
        b.iter(|| MapSector::decode(std::hint::black_box(&img)).expect("decode"))
    });
}

fn bench_eager_alloc(c: &mut Criterion) {
    // A half-full Seagate slice: realistic allocator working set.
    let mut spec = DiskSpec::st19101_sim();
    spec.command_overhead_ns = 0;
    let disk = Disk::new(spec.clone(), SimClock::new());
    let mut free = FreeMap::new(&spec.geometry);
    let mut x = 7u64;
    while free.utilization() < 0.5 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let cyl = (x >> 33) as u32 % 11;
        let track = (x >> 21) as u32 % 16;
        let slot = (x >> 8) as u32 % 32;
        let _ = free.allocate(cyl, track, slot * 8, 8);
    }
    let mut greedy = EagerAllocator::new(AllocConfig {
        threshold_fill: false,
        ..AllocConfig::default()
    });
    c.bench_function("eager_find_block_50pct", |b| {
        b.iter(|| greedy.find_block(&disk, &free).expect("space exists"))
    });
    c.bench_function("eager_find_sector_50pct", |b| {
        b.iter(|| greedy.find_sector(&disk, &free).expect("space exists"))
    });
}

fn bench_vld_write(c: &mut Criterion) {
    let block = vec![0x42u8; 4096];
    c.bench_function("vld_sync_write_4k", |b| {
        b.iter_batched(
            || {
                Vld::format(
                    DiskSpec::st19101_sim(),
                    SimClock::new(),
                    VldConfig::default(),
                )
            },
            |mut vld| {
                for lb in 0..64u64 {
                    vld.write_block(lb * 17 % 1024, &block).expect("in range");
                }
                vld
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_recovery(c: &mut Criterion) {
    let block = vec![0x42u8; 4096];
    let o = DiskSpec::st19101_sim().command_overhead_ns;
    c.bench_function("vld_recover_tail_500_blocks", |b| {
        b.iter_batched(
            || {
                let mut vld = Vld::format(
                    DiskSpec::st19101_sim(),
                    SimClock::new(),
                    VldConfig::default(),
                );
                for lb in 0..500u64 {
                    vld.write_block(lb, &block).expect("in range");
                }
                vld.shutdown().expect("park");
                vld.crash()
            },
            |disk| Vld::recover(disk, o, VldConfig::default()).expect("recover"),
            BatchSize::LargeInput,
        )
    });
}

fn bench_disk_mechanics(c: &mut Criterion) {
    let mut disk = Disk::new(DiskSpec::st19101_sim(), SimClock::new());
    let buf = vec![1u8; 4096];
    c.bench_function("disk_write_8_sectors", |b| {
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 8) % 40_000;
            disk.write_sectors(lba, &buf).expect("in range")
        })
    });
    c.bench_function("disk_position_cost", |b| {
        b.iter(|| disk.position_cost(5, 3, 100).expect("valid"))
    });
}

criterion_group!(
    benches,
    bench_seal,
    bench_plug_destination,
    bench_mapsector_codec,
    bench_eager_alloc,
    bench_vld_write,
    bench_recovery,
    bench_disk_mechanics
);
criterion_main!(benches);
