//! The file layer's block path against an in-memory byte model.
//!
//! Seeded op streams — full-block, partial, extending and hole-creating
//! writes, reads, delete, `sync`, `drop_caches`, `idle`, and a snapshot →
//! restore → diverge episode — run on UFS over the regular disk with a
//! 64-block buffer cache, so pointer-block updates, copy-on-write against a
//! live snapshot, dirty evictions and (with `flush_on_full`) bulk flushes all
//! happen many times per run. Every read is compared with a `Vec<u8>` per
//! file.
//!
//! The block path may change how bytes move on the host, not what the
//! device sees: each run also pins the final simulated clock and the disk's
//! operation counters to constants recorded from the commit before the
//! copy-free block path landed (PR 13, `4f55cda`) — the unit-level form of
//! "simulated time did not move". One row is the documented exception.

use std::collections::BTreeMap;

use disksim::{DiskSpec, DiskStats, RegularDisk, SimClock};
use fscore::{FileId, FileSystem, HostModel};
use ufs::{Ufs, UfsConfig, BLOCK_SIZE};

const BS: u64 = BLOCK_SIZE as u64;
/// First file block reached through the double-indirect pointer.
const DOUBLE_START: u64 = 12 + 1024;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A file system and the byte model it must agree with.
struct Side {
    fs: Ufs,
    /// name → (open handle, expected contents).
    files: BTreeMap<String, (FileId, Vec<u8>)>,
}

impl Side {
    fn write(&mut self, name: &str, offset: u64, data: &[u8]) {
        let (f, model) = self.files.get_mut(name).expect("file exists");
        self.fs.write(*f, offset, data).expect("write");
        let end = offset as usize + data.len();
        if model.len() < end {
            model.resize(end, 0);
        }
        model[offset as usize..end].copy_from_slice(data);
    }

    fn check_read(&mut self, name: &str, offset: u64, len: usize) {
        let (f, model) = &self.files[name];
        let mut out = vec![0xEEu8; len];
        let n = self.fs.read(*f, offset, &mut out).expect("read");
        let want = &model[model.len().min(offset as usize)..model.len().min(offset as usize + len)];
        assert_eq!(n, want.len(), "{name}: short-read length at {offset}+{len}");
        assert!(
            out[..n] == *want,
            "{name}: contents differ at {offset}+{len}"
        );
    }

    fn check_all(&mut self) {
        let names: Vec<String> = self.files.keys().cloned().collect();
        for name in names {
            let len = self.files[&name].1.len();
            assert_eq!(
                self.fs.file_size(self.files[&name].0).expect("size"),
                len as u64
            );
            self.check_read(&name, 0, len + 100);
        }
    }

    fn step(&mut self, r: &mut Rng) {
        let names = ["a", "b", "c", "far"];
        let name = names[r.below(4) as usize];
        let size = self.files[name].1.len() as u64;
        let fill = r.next() as u8;
        match r.below(16) {
            // Full-block overwrite or append, 1–3 aligned blocks.
            0..=3 => {
                let blocks = 1 + r.below(3);
                let at = r.below(size / BS + 1) * BS;
                self.write(name, at, &vec![fill; (blocks * BS) as usize]);
            }
            // Partial write anywhere up to EOF, crossing block boundaries.
            4..=6 => {
                let at = r.below(size + 1);
                let len = 1 + r.below(5000);
                self.write(name, at, &vec![fill; len as usize]);
            }
            // Extend exactly at EOF with an unaligned tail.
            7 => {
                let len = 1 + r.below(3 * BS);
                self.write(name, size, &vec![fill; len as usize]);
            }
            // Leave a hole of up to three blocks, then write.
            8 => {
                let at = size + 1 + r.below(3 * BS);
                let len = 1 + r.below(BS + 100);
                self.write(name, at, &vec![fill; len as usize]);
            }
            // Sparse write through the double-indirect chain.
            9 => {
                let at = (DOUBLE_START + r.below(40)) * BS + r.below(BS);
                self.write("far", at, &vec![fill; 1 + r.below(2 * BS) as usize]);
            }
            10..=12 => {
                let at = r.below(size + BS);
                self.check_read(name, at, 1 + r.below(4 * BS) as usize);
            }
            13 => match r.below(4) {
                0 => self.fs.sync().expect("sync"),
                1 => self.fs.drop_caches(),
                2 => self.fs.idle(r.below(40_000_000)),
                _ => {
                    // Sequential whole-file read (drives read-ahead).
                    self.check_read(name, 0, size as usize);
                }
            },
            // Delete and re-create (frees data and pointer blocks).
            14 if r.below(4) == 0 => {
                self.fs.delete(name).expect("delete");
                let f = self.fs.create(name).expect("re-create");
                self.files.insert(name.to_string(), (f, Vec::new()));
            }
            _ => {
                let at = r.below(size / BS + 1) * BS;
                self.write(name, at, &vec![fill; BS as usize]);
            }
        }
    }
}

/// Run one seeded episode; returns the final clock and disk counters of the
/// original (non-forked) system.
fn episode(
    seed: u64,
    cache_blocks: usize,
    sync_data: bool,
    flush_on_full: bool,
) -> (u64, DiskStats) {
    let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
    let cfg = UfsConfig {
        cache_bytes: cache_blocks * BLOCK_SIZE,
        sync_data,
        flush_on_full,
        ..UfsConfig::default()
    };
    let mut fs = Ufs::format(Box::new(dev), HostModel::sparcstation_10(), cfg).expect("format");
    let mut files = BTreeMap::new();
    for name in ["a", "b", "c", "far"] {
        files.insert(
            name.to_string(),
            (fs.create(name).expect("create"), Vec::new()),
        );
    }
    let mut side = Side { fs, files };
    let mut r = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);

    for _ in 0..500 {
        side.step(&mut r);
    }
    // Snapshot, run on, then restore: the fork must see the snapshot's
    // bytes (not the original's later writes), and the original must not
    // see the fork's.
    let snap = side.fs.snapshot().expect("regular disk snapshots");
    let frozen: BTreeMap<String, (FileId, Vec<u8>)> = side.files.clone();
    for _ in 0..300 {
        side.step(&mut r);
    }
    let mut fork = Side {
        fs: snap.restore(),
        files: frozen,
    };
    fork.check_all();
    let mut fr = Rng(seed ^ 0xF0F0_F0F0);
    for _ in 0..300 {
        fork.step(&mut fr);
    }
    fork.check_all();
    side.check_all();
    for _ in 0..400 {
        side.step(&mut r);
    }
    side.fs.sync().expect("final sync");
    side.fs.drop_caches();
    side.check_all();
    (side.fs.clock().now(), side.fs.device().disk_stats())
}

/// `(clock ns, reads, writes, sectors read, sectors written, busy ns)`.
type Pinned = (u64, u64, u64, u64, u64, u64);

fn pinned(seed: u64, cache_blocks: usize, sync_data: bool, flush_on_full: bool) -> Pinned {
    let (now, s) = episode(seed, cache_blocks, sync_data, flush_on_full);
    (
        now,
        s.reads,
        s.writes,
        s.sectors_read,
        s.sectors_written,
        s.busy.total_ns(),
    )
}

#[test]
fn block_path_matches_byte_model_and_pinned_device_traffic() {
    let cases: [(u64, usize, bool, bool, Pinned); 5] = [
        (
            1,
            512,
            false,
            false,
            (5754468740, 412, 662, 4144, 9400, 3665215717),
        ),
        (
            2,
            64,
            true,
            false,
            (16568346746, 1668, 2147, 16208, 19528, 13926523244),
        ),
        (
            3,
            64,
            false,
            true,
            (8221781212, 1211, 946, 11960, 13096, 6688238972),
        ),
        (
            4,
            64,
            true,
            true,
            (13656440494, 781, 2257, 7688, 20448, 11712867438),
        ),
        // The one regime the block path deliberately changed: delayed
        // writes filling a cache with dirty blocks, where evictions prefer
        // the few clean ones — the pointer blocks. The parent walked the
        // pointer chain twice per block written, and a load in the first
        // walk could evict what the second walk then re-read; resolving
        // once drops exactly those re-reads. Parent: clock 8124468740,
        // 1238 reads of 10824 sectors, busy 6056815717 — the same 908
        // writes of 10216 sectors.
        (
            1,
            64,
            false,
            false,
            (8100468740, 1146, 908, 10088, 10216, 6032815717),
        ),
    ];
    for (seed, cache_blocks, sync_data, flush_on_full, want) in cases {
        let got = pinned(seed, cache_blocks, sync_data, flush_on_full);
        assert_eq!(
            got, want,
            "seed {seed} ({cache_blocks}-block cache, sync_data {sync_data}, \
             flush_on_full {flush_on_full}): simulated time or device traffic moved"
        );
    }
}

/// Idle write-back on a device that refuses every write, under a host model
/// that charges no time: nothing can be written and the clock cannot run
/// out, so the loop must notice a pass that made no progress. The call runs
/// on a helper thread with a bounded wait, so a regression is a failed
/// assertion rather than a hung suite.
#[test]
fn idle_returns_when_writeback_cannot_progress() {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let raw = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
        let dev = disksim::FaultDisk::new(Box::new(raw), disksim::FaultPlan::power_cut_after(400));
        let cfg = UfsConfig {
            flush_on_full: true,
            sync_data: false,
            ..UfsConfig::default()
        };
        let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), cfg).expect("format");
        let f = fs.create("f").expect("create");
        let block = vec![0xABu8; BLOCK_SIZE];
        // Pointer-block write-throughs spend the 400 acknowledged writes
        // part-way through; from then on every device write fails.
        for i in 0..600 {
            let _ = fs.write(f, i * BS, &block);
        }
        assert!(fs.sync().is_err(), "the device is dead by the first sync");
        // Overwrites of blocks that were mapped before the cut (the direct
        // blocks at least) still land in the cache, dirty and unwritable.
        for i in 0..50 {
            let _ = fs.write(f, i * BS, &block);
        }
        let before = fs.clock().now();
        fs.idle(1_000_000_000);
        assert_eq!(fs.clock().now(), before + 1_000_000_000);
        done.send(()).expect("main thread waits");
    });
    let outcome = finished.recv_timeout(std::time::Duration::from_secs(20));
    assert!(
        outcome.is_ok(),
        "Ufs::idle did not return (or the episode panicked) within 20 s"
    );
    worker.join().expect("episode completed");
}
