//! Damaged logs never panic `LogDisk::mount`: the logical disk's twin of
//! the file layer's damaged-volume round (`ufs/tests/decoders.rs`).
//!
//! A synced log with sealed segments, an open partial segment and
//! summaries newer than its checkpoint is damaged by a seeded mutation that
//! passes every checksum — the bytes are resealed or re-digested after the
//! change — so the damage reaches the mount's parse of the checkpoint and
//! the roll-forward. Mount must either refuse the log or give one in which
//! every mapped block reads back and no two blocks share a slot.
//!
//! The tier-1 round runs 64 seeds; the ignored one runs 4 096, and CI runs
//! it from a debug build, where an overflowing offset panics:
//! `cargo test --test damaged_logs -- --ignored`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlfs::disksim::codec::{get_u32, put_u32, put_u64, seal};
use vlfs::disksim::{BlockDevice, DeviceSnapshot, DiskSpec, RegularDisk, SimClock};
use vlfs::lfs::seg::{digest, slot_device_block, NONE, SEG_DATA};
use vlfs::lfs::{LldConfig, LogDisk};

const BS: usize = 4096;
/// Checkpoint slot layout: magic, seal, map length, flush sequence, map.
const CKPT_SEAL: usize = 4;
const CKPT_MAP: usize = 24;
/// Summary layout: magic, fill, sequence, owner table, data digest, then
/// the digest of everything before it.
const SUM_FILL: usize = 4;
const SUM_OWNERS: usize = 16;
const SUM_DATA_CSUM: usize = SUM_OWNERS + 4 * SEG_DATA as usize;
const SUM_HEAD: usize = SUM_DATA_CSUM + 8;

/// Where a log keeps its records on the raw device.
struct Places {
    /// First block of each checkpoint slot, and the slot's length.
    ckpt: [u64; 2],
    ckpt_blocks: u64,
    /// Logical blocks, the length of the checkpointed map.
    logical: usize,
    /// Segments in the log.
    segs: u64,
}

fn summary_block(seg: u64) -> u64 {
    slot_device_block(seg * SEG_DATA) - 1
}

fn read(dev: &mut dyn BlockDevice, start: u64, blocks: u64) -> Vec<u8> {
    let mut buf = vec![0u8; blocks as usize * BS];
    dev.read_blocks(start, &mut buf).unwrap();
    buf
}

/// A synced log: two sealed segments, a partial one flushed twice, and a
/// segment sealed after the last checkpoint, whose summary only the
/// roll-forward applies.
fn synced_log() -> (Box<dyn DeviceSnapshot>, Places) {
    let raw = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BS);
    let mut lld = LogDisk::format(Box::new(raw), LldConfig::default()).unwrap();
    let block = |i: u64| vec![(i % 251) as u8; BS];
    for i in 0..2 * SEG_DATA + 40 {
        lld.write_block(i, &block(i)).unwrap();
    }
    lld.sync().unwrap();
    for i in (0..2 * SEG_DATA).step_by(7) {
        lld.write_block(i, &block(i + 1)).unwrap();
    }
    lld.sync().unwrap();
    for i in 3 * SEG_DATA..4 * SEG_DATA + 20 {
        lld.write_block(i, &block(i)).unwrap();
    }
    let (start, total) = lld.checkpoint_region();
    let ckpt_blocks = total / 2;
    let places = Places {
        ckpt: [start, start + ckpt_blocks],
        ckpt_blocks,
        logical: lld.num_blocks() as usize,
        segs: start / (SEG_DATA + 1),
    };
    let snap = lld.crash().snapshot().expect("a regular disk snapshots");
    (snap, places)
}

/// Rewrite one checkpoint slot with `edit` and seal it again.
fn reseal_checkpoint(
    dev: &mut dyn BlockDevice,
    places: &Places,
    rng: &mut StdRng,
    edit: impl FnOnce(&mut [u8], &mut StdRng),
) {
    let start = places.ckpt[rng.gen_range(0..2usize)];
    let mut raw = read(dev, start, places.ckpt_blocks);
    edit(&mut raw, rng);
    put_u32(&mut raw, CKPT_SEAL, 0);
    seal(&mut raw, CKPT_SEAL);
    dev.write_blocks(start, &raw).unwrap();
}

/// Damage one record of `dev` with the mutation `seed` picks, sealed so
/// that it passes its checksum.
fn damage(dev: &mut dyn BlockDevice, places: &Places, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let map_at = |i: usize| CKPT_MAP + 4 * i;
    match seed % 3 {
        // Bit flips in the header or the map.
        0 => reseal_checkpoint(dev, places, &mut rng, |raw, rng| {
            for _ in 0..rng.gen_range(1..8u32) {
                raw[rng.gen_range(0..map_at(places.logical))] ^= 1 << rng.gen_range(0..8u32);
            }
        }),
        // One block's slot copied onto another block.
        1 => reseal_checkpoint(dev, places, &mut rng, |raw, rng| {
            let entry = |i: usize| get_u32(raw, map_at(i)).unwrap();
            let live: Vec<usize> = (0..places.logical).filter(|&i| entry(i) != NONE).collect();
            let slot = entry(live[rng.gen_range(0..live.len())]);
            put_u32(raw, map_at(rng.gen_range(0..places.logical)), slot);
        }),
        // A written segment's fill and owners rewritten, its data and
        // header digested again.
        _ => {
            let seg = rng.gen_range(0..3u64);
            let mut sum = read(dev, summary_block(seg), 1);
            put_u32(&mut sum, SUM_FILL, rng.gen_range(0..=SEG_DATA as u32));
            for _ in 0..rng.gen_range(1..16u32) {
                let at = SUM_OWNERS + 4 * rng.gen_range(0..SEG_DATA as usize);
                let owner = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..places.logical as u32),
                    1 => NONE,
                    _ => rng.gen(),
                };
                put_u32(&mut sum, at, owner);
            }
            let fill = get_u32(&sum, SUM_FILL).unwrap() as u64;
            let data = read(dev, summary_block(seg) + 1, fill);
            put_u64(&mut sum, SUM_DATA_CSUM, digest(&data));
            let head = digest(&sum[..SUM_HEAD]);
            put_u64(&mut sum, SUM_HEAD, head);
            dev.write_block(summary_block(seg), &sum).unwrap();
        }
    }
}

/// Mount the damaged log: refused, or every mapped block reads back and
/// no slot holds two blocks.
fn check_mount(snap: &dyn DeviceSnapshot, places: &Places, seed: u64) {
    let mut dev = snap.restore();
    damage(dev.as_mut(), places, seed);
    let Ok(mut lld) = LogDisk::mount(dev, LldConfig::default()) else {
        return;
    };
    let map = lld.map_snapshot();
    let mut owner = vec![None; (places.segs * SEG_DATA) as usize];
    let mut buf = vec![0u8; BS];
    for (lb, &slot) in map.iter().enumerate().filter(|&(_, &s)| s != NONE) {
        if let Some(other) = owner[slot as usize].replace(lb) {
            panic!("seed {seed}: blocks {other} and {lb} share slot {slot}");
        }
        lld.read_block(lb as u64, &mut buf)
            .unwrap_or_else(|e| panic!("seed {seed}: mapped block {lb} reads {e}"));
    }
}

fn damaged_rounds(seeds: u64) {
    let (snap, places) = synced_log();
    for seed in 0..seeds {
        check_mount(snap.as_ref(), &places, seed);
    }
}

#[test]
fn damaged_logs_never_panic_mount() {
    damaged_rounds(64);
}

#[test]
#[ignore = "4 096 seeds; CI runs it from a debug build"]
fn damaged_logs_never_panic_mount_wide() {
    damaged_rounds(4096);
}
