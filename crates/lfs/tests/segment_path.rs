//! The logical disk's segment path, end to end through the public API.
//!
//! * Seeded episodes of write / overwrite / trim / sync (below and above
//!   the partial-segment threshold) / idle cleaning / on-demand cleaning /
//!   crash + mount, checked against a byte model, with the final clock,
//!   `DiskStats`, `CleanerStats` and block map pinned to the values the
//!   copy-and-rehash segment path produced: host-side rewrites of the
//!   path must not move one simulated number.
//! * The work counter: a block the file layer hands the log is digested
//!   exactly once, a cleaner copy never.
//! * Snapshot → restore → diverge, across a remount of both sides, with
//!   the open segment's blocks shared, not copied.
//! * One torn flush per flush kind (summary landed, last data block
//!   stale), each discarded by roll-forward.

use disksim::{BlockDevice, DiskSpec, Metrics, RegularDisk, SimClock};
use lfs::seg::slot_device_block;
use lfs::{LldConfig, LogDisk, SEG_DATA};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const BS: usize = 4096;

fn raw() -> Box<dyn BlockDevice> {
    Box::new(RegularDisk::new(
        DiskSpec::st19101_sim(),
        SimClock::new(),
        BS,
    ))
}

fn cfg() -> LldConfig {
    LldConfig {
        idle_clean_target: 12,
        cpu_per_block_ns: 2_000,
        ..LldConfig::default()
    }
}

/// The block `lb` holds in generation `gen`; generation 0 is "never
/// written / trimmed" and reads as zeros.
fn payload(lb: u64, gen: u32) -> Vec<u8> {
    if gen == 0 {
        return vec![0u8; BS];
    }
    let mut x = (lb << 32 | gen as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(BS);
    while out.len() < BS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// What an episode leaves behind, as recorded from the parent commit.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    clock_ns: u64,
    /// `DiskStats`: reads, writes, sectors read, sectors written.
    disk: [u64; 4],
    /// `DiskStats::busy`: overhead, seek, head switch, rotation, transfer.
    busy_ns: [u64; 5],
    /// `CleanerStats` of the last mounted lifetime: segments cleaned,
    /// blocks copied, on-demand passes, idle passes.
    last_cleaner: [u64; 4],
    /// Cleaner activity summed over all lifetimes: (segments cleaned,
    /// on-demand passes, idle passes).
    cleaned: (u64, u64, u64),
    map_len: usize,
    map_fold: u64,
    partial_syncs: u32,
    sealing_syncs: u32,
    crashes: u32,
}

/// The model beside the disk: the generation every block must read as,
/// plus, for blocks touched since the last durable point, every generation
/// an unsynced crash may legitimately bring back.
struct Model {
    gen: Vec<u32>,
    since_sync: BTreeMap<u64, Vec<u32>>,
    next_gen: u32,
}

impl Model {
    fn touch(&mut self, lb: u64, new: u32) {
        let old = self.gen[lb as usize];
        self.since_sync
            .entry(lb)
            .or_insert_with(|| vec![old])
            .push(new);
        self.gen[lb as usize] = new;
    }
}

struct Episode {
    lld: LogDisk,
    model: Model,
    metrics: Metrics,
    /// Blocks handed to `write_block` over all lifetimes.
    written: u64,
    /// Cleaner totals of the lifetimes already ended by a crash.
    past_cleaned: (u64, u64, u64),
    partial_syncs: u32,
    sealing_syncs: u32,
    crashes: u32,
}

impl Episode {
    fn new() -> Self {
        let metrics = Metrics::enabled();
        let mut lld = LogDisk::format(raw(), cfg()).unwrap();
        lld.set_metrics(metrics.clone());
        let n = lld.num_blocks() as usize;
        Episode {
            lld,
            model: Model {
                gen: vec![0; n],
                since_sync: BTreeMap::new(),
                next_gen: 1,
            },
            metrics,
            written: 0,
            past_cleaned: (0, 0, 0),
            partial_syncs: 0,
            sealing_syncs: 0,
            crashes: 0,
        }
    }

    fn write(&mut self, lb: u64) {
        let gen = self.model.next_gen;
        self.model.next_gen += 1;
        self.lld.write_block(lb, &payload(lb, gen)).unwrap();
        self.written += 1;
        self.model.touch(lb, gen);
    }

    fn trim(&mut self, lb: u64) {
        self.lld.trim(lb).unwrap();
        self.model.touch(lb, 0);
    }

    fn read(&mut self, lb: u64) -> Vec<u8> {
        let mut buf = vec![0xEEu8; BS];
        self.lld.read_block(lb, &mut buf).unwrap();
        buf
    }

    fn check(&mut self, lb: u64) {
        let want = payload(lb, self.model.gen[lb as usize]);
        assert!(self.read(lb) == want, "block {lb} differs from the model");
    }

    /// Sync, and tell from the sectors written which kind it was: the
    /// segment flush is `1 + fill` blocks, the checkpoint one slot.
    fn sync(&mut self) {
        let before = self.lld.disk_stats().sectors_written;
        self.lld.sync().unwrap();
        self.model.since_sync.clear();
        let blocks = (self.lld.disk_stats().sectors_written - before) / (BS as u64 / 512);
        let ckpt_blocks = self.lld.checkpoint_region().1 / 2;
        match blocks - ckpt_blocks {
            0 => {}
            flushed if (flushed - 1) as f64 / SEG_DATA as f64 >= cfg().partial_threshold => {
                self.sealing_syncs += 1
            }
            _ => self.partial_syncs += 1,
        }
    }

    /// Publish the work counter (idle is one of the cold paths that do)
    /// and hold it to the blocks the test itself handed the log: each is
    /// digested once, and the cleaner's copies, which carry the digest
    /// their victim's summary records, add nothing.
    fn check_work_counters(&mut self) {
        self.lld.idle(0);
        assert_eq!(
            self.metrics.counter_value("lld.bytes_digested"),
            self.written * BS as u64,
            "a block the file layer hands the log is digested exactly once, a cleaner copy never"
        );
    }

    fn crash_and_mount(mut self, synced: bool) -> Self {
        if synced {
            self.sync();
        }
        self.check_work_counters();
        let s = self.lld.cleaner_stats();
        self.past_cleaned.0 += s.segments_cleaned;
        self.past_cleaned.1 += s.on_demand;
        self.past_cleaned.2 += s.during_idle;
        self.crashes += 1;
        self.lld = LogDisk::mount(self.lld.crash(), cfg()).unwrap();
        self.lld.set_metrics(self.metrics.clone());
        // Whatever was touched since the last sync comes back as one of
        // the generations it went through; everything else is exact.
        for (lb, candidates) in std::mem::take(&mut self.model.since_sync) {
            let got = self.read(lb);
            let found = candidates
                .iter()
                .rev()
                .find(|&&gen| got == payload(lb, gen))
                .unwrap_or_else(|| panic!("block {lb} came back as none of {candidates:?}"));
            self.model.gen[lb as usize] = *found;
        }
        self
    }
}

fn run_episode(seed: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ep = Episode::new();
    let logical = ep.lld.num_blocks();
    // 80 % of the advertised capacity live: the free pool runs dry and the
    // cleaner has to work in the write path as well as in idle time.
    let ws = logical * 4 / 5;
    for lb in 0..ws {
        ep.write(lb);
        if rng.gen_range(0..200u32) == 0 {
            ep.sync();
        }
    }
    ep.sync();
    for step in 0..2_500u32 {
        match rng.gen_range(0..1000u32) {
            0..=779 => {
                // Overwrites in bursts, so syncs meet every fill level.
                for _ in 0..rng.gen_range(1..12u32) {
                    ep.write(rng.gen_range(0..ws));
                }
            }
            780..=859 => ep.trim(rng.gen_range(0..ws)),
            860..=929 => {
                for _ in 0..8 {
                    let lb = rng.gen_range(0..logical);
                    ep.check(lb);
                }
            }
            930..=969 => ep.sync(),
            970..=991 => {
                ep.lld.idle(rng.gen_range(1..400_000_000u64));
            }
            992..=995 => ep = ep.crash_and_mount(true),
            _ => ep = ep.crash_and_mount(false),
        }
        if step % 500 == 499 {
            ep.check_work_counters();
        }
    }
    ep.sync();
    for lb in 0..logical {
        ep.check(lb);
    }
    ep.check_work_counters();
    let s = ep.lld.cleaner_stats();
    let d = ep.lld.disk_stats();
    let map = ep.lld.map_snapshot();
    Outcome {
        clock_ns: ep.lld.clock().now(),
        disk: [d.reads, d.writes, d.sectors_read, d.sectors_written],
        busy_ns: [
            d.busy.overhead_ns,
            d.busy.seek_ns,
            d.busy.head_switch_ns,
            d.busy.rotation_ns,
            d.busy.transfer_ns,
        ],
        last_cleaner: [
            s.segments_cleaned,
            s.blocks_copied,
            s.on_demand,
            s.during_idle,
        ],
        cleaned: (
            ep.past_cleaned.0 + s.segments_cleaned,
            ep.past_cleaned.1 + s.on_demand,
            ep.past_cleaned.2 + s.during_idle,
        ),
        map_len: map.len(),
        map_fold: map.iter().fold(0u64, |h, &slot| {
            h.rotate_left(7).wrapping_mul(31) ^ slot as u64
        }),
        partial_syncs: ep.partial_syncs,
        sealing_syncs: ep.sealing_syncs,
        crashes: ep.crashes,
    }
}

#[test]
fn seeded_episodes_match_the_model_and_the_pinned_simulation() {
    // Recorded from the parent of the commit that made the open segment
    // its own write image (word-FNV rehash per flush, staged flush image).
    let pinned = [
        (
            1u64,
            Outcome {
                clock_ns: 45_803_156_140,
                disk: [6557, 749, 320_912, 446_624],
                busy_ns: [
                    730_600_000,
                    3_736_265_297,
                    1_592_500_000,
                    21_684_369_611,
                    17_988_741_232,
                ],
                last_cleaner: [2, 95, 1, 0],
                cleaned: (250, 35, 180),
                map_len: 4953,
                map_fold: 5_810_426_372_713_965_566,
                partial_syncs: 94,
                sealing_syncs: 30,
                crashes: 13,
            },
        ),
        (
            2,
            Outcome {
                clock_ns: 50_866_781_148,
                disk: [7425, 827, 369_632, 494_584],
                busy_ns: [
                    825_200_000,
                    3_844_482_607,
                    2_015_000_000,
                    23_848_918_149,
                    20_254_630_392,
                ],
                last_cleaner: [12, 1003, 0, 12],
                cleaned: (285, 31, 223),
                map_len: 4953,
                map_fold: 7_330_316_994_554_985_011,
                partial_syncs: 99,
                sealing_syncs: 33,
                crashes: 24,
            },
        ),
        (
            3,
            Outcome {
                clock_ns: 49_420_359_282,
                disk: [7342, 807, 351_848, 483_896],
                busy_ns: [
                    814_900_000,
                    3_791_659_851,
                    1_939_000_000,
                    23_211_535_303,
                    19_587_332_128,
                ],
                last_cleaner: [35, 2682, 10, 15],
                cleaned: (274, 34, 206),
                map_len: 4953,
                map_fold: 11_764_372_532_208_548_335,
                partial_syncs: 106,
                sealing_syncs: 24,
                crashes: 24,
            },
        ),
    ];
    for (seed, want) in pinned {
        let got = run_episode(seed);
        // The episode is only worth pinning if it went everywhere.
        assert!(got.cleaned.1 > 0, "seed {seed}: no on-demand cleaning");
        assert!(got.cleaned.2 > 0, "seed {seed}: no idle cleaning");
        assert!(got.partial_syncs > 0 && got.sealing_syncs > 0 && got.crashes > 0);
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn snapshot_shares_the_open_segment_and_restores_its_digest() {
    let mut a = LogDisk::format(raw(), cfg()).unwrap();
    // One sealed segment, then an open one: 20 slots partially flushed by
    // the sync, 10 more in memory only, handed over as blocks the test
    // keeps a handle on.
    for lb in 0..SEG_DATA + 20 {
        a.write_block(lb, &payload(lb, 1)).unwrap();
    }
    a.sync().unwrap();
    let kept: Vec<Arc<[u8]>> = (300..310).map(|lb| payload(lb, 1).into()).collect();
    for (lb, block) in (300..).zip(&kept) {
        a.write_gathered(lb, &[block]).unwrap();
    }
    let holders = |n| kept.iter().all(|b| Arc::strong_count(b) == n);
    assert!(holders(2), "the open segment keeps each block it is handed");
    let snap = a.snapshot().expect("a regular disk snapshots");
    let mut b: Box<LogDisk> = snap.restore().into_any().downcast().expect("a LogDisk");
    // The snapshot and the fork each hold the very blocks the log holds —
    // nothing is copied — and the restore digested nothing.
    assert!(
        holders(4),
        "the snapshot and the fork share the open blocks"
    );
    let metrics = Metrics::enabled();
    b.set_metrics(metrics.clone());
    assert_eq!(metrics.counter_value("lld.bytes_digested"), 0);

    // The same continuation gives the same simulation on both sides.
    for lld in [&mut a, &mut *b] {
        for lb in 310..320 {
            lld.write_block(lb, &payload(lb, 2)).unwrap();
        }
        lld.sync().unwrap();
    }
    assert_eq!(a.clock().now(), b.clock().now());
    assert_eq!(
        format!("{:?}", a.disk_stats()),
        format!("{:?}", b.disk_stats())
    );
    assert_eq!(a.map_snapshot(), b.map_snapshot());

    // Diverge, filling the restored open segment until it seals: its
    // summary then records the digests of slots from before the snapshot
    // and after it.
    for (lld, gen) in [(&mut a, 7), (&mut *b, 9)] {
        for lb in 1000..1100 {
            lld.write_block(lb, &payload(lb, gen)).unwrap();
        }
        lld.write_block(5, &payload(5, gen)).unwrap();
    }
    // Crash without a sync: only roll-forward, which verifies those
    // digests, can bring the sealed segment back.
    for (lld, gen) in [(a, 7), (*b, 9)] {
        let mut lld = LogDisk::mount(lld.crash(), cfg()).unwrap();
        let mut buf = vec![0u8; BS];
        // 40 slots were taken, so 1000..=1086 sealed it; the rest (and the
        // new block 5) never left memory.
        for (lb, want) in [
            (5, 1),
            (SEG_DATA + 19, 1),
            (305, 1),
            (315, 2),
            (1000, gen),
            (1086, gen),
            (1087, 0),
        ] {
            lld.read_block(lb, &mut buf).unwrap();
            assert!(buf == payload(lb, want), "fork {gen}: block {lb}");
        }
    }
    // Both sides appended to, flushed and sealed the open segment they
    // shared with the snapshot: a fresh fork still reads it as it was.
    let mut c: Box<LogDisk> = snap.restore().into_any().downcast().expect("a LogDisk");
    let mut buf = vec![0u8; BS];
    for (lb, want) in [(SEG_DATA + 19, 1), (305, 1), (309, 1), (315, 0), (1000, 0)] {
        c.read_block(lb, &mut buf).unwrap();
        assert!(buf == payload(lb, want), "snapshot: block {lb}");
    }
    assert!((300..)
        .zip(&kept)
        .all(|(lb, b)| b[..] == payload(lb, 1)[..]));
}

/// Crash `lld` with its newest flush torn — the summary landed, the block
/// holding `last_lb` (the flush's last data block) still has older bytes —
/// and with no checkpoint covering it, then mount.
fn tear_last_block_and_mount(lld: LogDisk, last_lb: u64) -> LogDisk {
    let slot = lld.map_snapshot()[last_lb as usize];
    let (ckpt_start, ckpt_total) = lld.checkpoint_region();
    let mut dev = lld.crash();
    dev.write_block(slot_device_block(slot as u64), &vec![0x5Au8; BS])
        .unwrap();
    for ckpt_slot in [ckpt_start, ckpt_start + ckpt_total / 2] {
        dev.write_block(ckpt_slot, &vec![0xEEu8; BS]).unwrap();
    }
    LogDisk::mount(dev, cfg()).unwrap()
}

/// A log with segment 0 sealed (blocks `0..SEG_DATA`, generation 1).
fn one_sealed_segment() -> LogDisk {
    let mut lld = LogDisk::format(raw(), cfg()).unwrap();
    for lb in 0..SEG_DATA {
        lld.write_block(lb, &payload(lb, 1)).unwrap();
    }
    lld
}

fn assert_reads(lld: &mut LogDisk, lbs: std::ops::Range<u64>, gen: u32, what: &str) {
    let mut buf = vec![0u8; BS];
    for lb in lbs {
        lld.read_block(lb, &mut buf).unwrap();
        assert!(buf == payload(lb, gen), "{what}: block {lb}");
    }
}

#[test]
fn torn_flushes_of_every_kind_are_discarded_by_roll_forward() {
    // A seal by fill, a seal by a sync above the threshold, a partial
    // flush by a sync below it: `count` blocks from 200 up, then the sync.
    for (count, sync, what) in [
        (SEG_DATA, false, "seal on fill"),
        (100, true, "sealing sync"),
        (30, true, "partial flush"),
    ] {
        let mut lld = one_sealed_segment();
        for lb in 200..200 + count {
            lld.write_block(lb, &payload(lb, 2)).unwrap();
        }
        if sync {
            lld.sync().unwrap();
        }
        let mut lld = tear_last_block_and_mount(lld, 200 + count - 1);
        assert_reads(&mut lld, 0..SEG_DATA, 1, what);
        assert_reads(&mut lld, 200..200 + count, 0, what);
    }

    // The cleaner's forced flush: all but 27 blocks of the sealed segment
    // die, the cleaner copies those 27 to a fresh segment and flushes it.
    // With that flush torn the copies are discarded and the victim, not
    // yet reused, still serves all of them.
    let mut lld = one_sealed_segment();
    for lb in 0..100 {
        lld.trim(lb).unwrap();
    }
    assert_eq!(lld.clean_some(1).unwrap(), 1);
    assert_eq!(lld.cleaner_stats().blocks_copied, 27);
    let mut lld = tear_last_block_and_mount(lld, SEG_DATA - 1);
    assert_reads(&mut lld, 100..SEG_DATA, 1, "cleaner flush");
}
