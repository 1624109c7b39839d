//! Beyond the paper: measuring the §3.3 VLFS design the authors only
//! speculated about.
//!
//! §5.1: "we speculate that by integrating LFS with the virtual log, the
//! VLFS (which we have not implemented) should approximate the performance
//! of UFS on the VLD when we must write synchronously, while retaining the
//! benefits of LFS when asynchronous buffering is acceptable."
//!
//! The `vlog-core::VlfsLayer` implements that design (inode-map-only
//! virtual log; data and inodes eager-written with addresses held in the
//! file structures). This harness puts the speculation to the test:
//! random synchronous 4 KB updates on
//!
//! 1. UFS on the VLD (the paper's measured proxy),
//! 2. the VLFS layer directly (the speculated design),
//! 3. LFS with synchronous flushes (the case the paper says hurts).

use crate::format_table;
use crate::workload::{make_file, rng, BLOCK};
use disksim::{Disk, SimClock};
use fscore::{FileSystem, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind, Obs, StackSpec};
use rand::Rng;
use vlog_core::{AllocConfig, VlfsLayer, INODE_DIRECT};

/// Mean random-sync-update latency on UFS-over-VLD at `frac` of capacity.
fn ufs_on_vld_ms(frac: f64, updates: u64, host: HostModel) -> f64 {
    let spec = StackSpec::paper(FsKind::Ufs, DevKind::Vld, DiskKind::Seagate, host);
    let mut fs = spec.build(None, &Obs::default()).expect("format");
    let usable = fs.free_blocks();
    let file_blocks = (usable as f64 * frac) as u64;
    let f = make_file(&mut fs, "t", file_blocks * BLOCK as u64).expect("fill");
    fs.set_sync_writes(true);
    let clock = fs.clock();
    let mut r = rng(0x77);
    let buf = vec![9u8; BLOCK];
    // Warm up.
    for _ in 0..updates / 2 {
        let b = r.gen_range(0..file_blocks);
        fs.write(f, b * BLOCK as u64, &buf).expect("update");
    }
    let t0 = clock.now();
    for _ in 0..updates {
        let b = r.gen_range(0..file_blocks);
        fs.write(f, b * BLOCK as u64, &buf).expect("update");
    }
    (clock.now() - t0) as f64 / updates as f64 / 1e6
}

/// The same workload on the VLFS layer: every update is data + inode +
/// inode-map, all eager, one commit.
fn vlfs_ms(frac: f64, updates: u64, host: HostModel) -> f64 {
    let spec = DiskKind::Seagate.spec();
    let host_overhead = spec.command_overhead_ns;
    let mut internal = spec;
    internal.command_overhead_ns = 0;
    let clock = SimClock::new();
    let mut v = VlfsLayer::format(
        Disk::new(internal, clock.clone()),
        AllocConfig::default(),
        64,
    );
    // One big file (like the paper's benchmark): fill to `frac` of the
    // log's capacity across several inodes (each holds INODE_DIRECT blocks).
    let capacity = v.log().num_blocks() / 2; // data blocks share with inodes
    let total_blocks = (capacity as f64 * frac) as u64;
    let per_file = INODE_DIRECT as u64;
    let files = total_blocks.div_ceil(per_file).max(1);
    let buf = vec![4u8; BLOCK];
    for ino in 0..files {
        v.create(ino).expect("inode free");
        let blocks = per_file.min(total_blocks - ino * per_file);
        for fb in 0..blocks {
            v.write_block(ino, fb, &buf).expect("fill");
        }
    }
    let mut r = rng(0x78);
    let charge = |clock: &SimClock| {
        clock.advance(host_overhead); // one host command per update
        host.charge(clock, 1);
    };
    for _ in 0..updates / 2 {
        let b = r.gen_range(0..total_blocks);
        charge(&clock);
        v.write_block(b / per_file, b % per_file, &buf)
            .expect("update");
    }
    let t0 = clock.now();
    for _ in 0..updates {
        let b = r.gen_range(0..total_blocks);
        charge(&clock);
        v.write_block(b / per_file, b % per_file, &buf)
            .expect("update");
    }
    (clock.now() - t0) as f64 / updates as f64 / 1e6
}

/// LFS with `sync` after every update — the paper's "frequent fsync" pain
/// case.
fn lfs_sync_ms(frac: f64, updates: u64, host: HostModel) -> f64 {
    let spec = StackSpec::paper(FsKind::Lfs, DevKind::Regular, DiskKind::Seagate, host);
    let mut fs = spec.build(None, &Obs::default()).expect("format");
    let usable = fs.free_blocks();
    let file_blocks = (usable as f64 * frac) as u64;
    let f = make_file(&mut fs, "t", file_blocks * BLOCK as u64).expect("fill");
    let clock = fs.clock();
    let mut r = rng(0x79);
    let buf = vec![9u8; BLOCK];
    for _ in 0..updates / 4 {
        let b = r.gen_range(0..file_blocks);
        fs.write(f, b * BLOCK as u64, &buf).expect("update");
        fs.sync().expect("sync");
    }
    let t0 = clock.now();
    for _ in 0..updates {
        let b = r.gen_range(0..file_blocks);
        fs.write(f, b * BLOCK as u64, &buf).expect("update");
        fs.sync().expect("sync");
    }
    (clock.now() - t0) as f64 / updates as f64 / 1e6
}

/// Run the comparison at a few utilisations.
pub fn run(updates: u64) -> String {
    let host = HostModel::sparcstation_10();
    let fracs = [0.3f64, 0.6];
    let points: Vec<(f64, u8)> = fracs
        .iter()
        .flat_map(|&frac| (0u8..3).map(move |sys| (frac, sys)))
        .collect();
    let cells = disksim::par::pmap(points, |(frac, sys)| match sys {
        0 => ufs_on_vld_ms(frac, updates, host),
        1 => vlfs_ms(frac, updates, host),
        _ => lfs_sync_ms(frac, updates / 2, host),
    });
    let rows: Vec<Vec<String>> = fracs
        .iter()
        .zip(cells.chunks(3))
        .map(|(frac, ms)| {
            std::iter::once(format!("{:.0}%", frac * 100.0))
                .chain(ms.iter().map(|v| format!("{v:.2}")))
                .collect()
        })
        .collect();
    format_table(
        "VLFS (§3.3, implemented) vs the paper's proxies: random sync 4 KB updates (ms)",
        &["file frac", "UFS on VLD", "VLFS layer", "LFS + fsync"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_speculation_holds() {
        // "VLFS should approximate the performance of UFS on the VLD when
        // we must write synchronously" — and beat per-write-fsync LFS.
        let host = HostModel::instant();
        let ufs = ufs_on_vld_ms(0.4, 250, host);
        let vlfs = vlfs_ms(0.4, 250, host);
        let lfs = lfs_sync_ms(0.4, 120, host);
        assert!(
            vlfs < ufs * 2.5 && ufs < vlfs * 2.5,
            "VLFS {vlfs} ms should approximate UFS-on-VLD {ufs} ms"
        );
        assert!(
            vlfs < lfs,
            "VLFS {vlfs} ms should beat fsync-per-write LFS {lfs} ms"
        );
    }
}
