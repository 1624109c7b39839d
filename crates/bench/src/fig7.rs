//! Figure 7: large-file performance. Sequentially write a 10 MB file, read
//! it back sequentially, rewrite it randomly (asynchronously, plus
//! synchronously on the UFS runs), read it sequentially again, and read it
//! randomly. Bandwidth in MB/s per phase, on all four systems.

use crate::format_table;
use crate::workload::{mb_per_s, rng, timed, BLOCK};
use fscore::{FileSystem, FsResult, HostModel};
use modelcheck::stack::{DiskKind, FsKind, Obs, StackSpec};
use rand::seq::SliceRandom;

/// Per-phase bandwidths (MB/s).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LargeFileResult {
    /// Sequential write.
    pub(crate) seq_write: f64,
    /// Sequential (cold) read.
    pub(crate) seq_read: f64,
    /// Random overwrite, asynchronous.
    pub(crate) rand_write_async: f64,
    /// Random overwrite, synchronous (UFS only; 0 otherwise).
    pub(crate) rand_write_sync: f64,
    /// Sequential read after the random writes.
    pub(crate) seq_read_again: f64,
    /// Random read.
    pub(crate) rand_read: f64,
}

/// Run the benchmark on one system with a file of `mb` megabytes.
pub(crate) fn measure(spec: StackSpec, mb: u64) -> FsResult<LargeFileResult> {
    let mut fs = spec.build(None, &Obs::default())?;
    let clock = fs.clock();
    let bytes = mb << 20;
    let nblocks = bytes / BLOCK as u64;
    let f = fs.create("big")?;
    let chunk = vec![0x3Cu8; 64 * BLOCK];

    let seq_write_ns = timed(&clock, || {
        let mut off = 0u64;
        while off < bytes {
            fs.write(f, off, &chunk)?;
            off += chunk.len() as u64;
        }
        fs.sync()
    })?;
    fs.drop_caches();

    let mut out = vec![0u8; 64 * BLOCK];
    let seq_read_ns = timed(&clock, || {
        let mut off = 0u64;
        while off < bytes {
            fs.read(f, off, &mut out)?;
            off += out.len() as u64;
        }
        Ok(())
    })?;
    fs.drop_caches();

    // Random writes touch every block once, in random order (so exactly
    // `bytes` are written, as in the paper's "write 10 MB randomly").
    let mut order: Vec<u64> = (0..nblocks).collect();
    order.shuffle(&mut rng(0x716));
    let one = vec![0x77u8; BLOCK];
    let rand_write_async_ns = timed(&clock, || {
        for &b in &order {
            fs.write(f, b * BLOCK as u64, &one)?;
        }
        fs.sync()
    })?;
    fs.drop_caches();

    let rand_write_sync_ns = if spec.fs == FsKind::Ufs {
        fs.set_sync_writes(true);
        order.shuffle(&mut rng(0x717));
        let ns = timed(&clock, || {
            for &b in &order {
                fs.write(f, b * BLOCK as u64, &one)?;
            }
            Ok(())
        })?;
        fs.set_sync_writes(false);
        Some(ns)
    } else {
        None
    };
    fs.drop_caches();

    let seq_read_again_ns = timed(&clock, || {
        let mut off = 0u64;
        while off < bytes {
            fs.read(f, off, &mut out)?;
            off += out.len() as u64;
        }
        Ok(())
    })?;
    fs.drop_caches();

    order.shuffle(&mut rng(0x718));
    let mut one_out = vec![0u8; BLOCK];
    let rand_read_ns = timed(&clock, || {
        for &b in &order {
            fs.read(f, b * BLOCK as u64, &mut one_out)?;
        }
        Ok(())
    })?;

    Ok(LargeFileResult {
        seq_write: mb_per_s(bytes, seq_write_ns),
        seq_read: mb_per_s(bytes, seq_read_ns),
        rand_write_async: mb_per_s(bytes, rand_write_async_ns),
        rand_write_sync: rand_write_sync_ns
            .map(|ns| mb_per_s(bytes, ns))
            .unwrap_or(0.0),
        seq_read_again: mb_per_s(bytes, seq_read_again_ns),
        rand_read: mb_per_s(bytes, rand_read_ns),
    })
}

/// Regenerate Figure 7.
pub fn run(mb: u64) -> String {
    let host = HostModel::sparcstation_10();
    let specs = StackSpec::ALL.map(|s| StackSpec::paper(s.fs, s.dev, DiskKind::Seagate, host));
    let rows: Vec<Vec<String>> = disksim::par::pmap(specs.to_vec(), |spec| {
        let r = measure(spec, mb).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        vec![
            spec.label(),
            format!("{:.2}", r.seq_write),
            format!("{:.2}", r.seq_read),
            format!("{:.2}", r.rand_write_async),
            if r.rand_write_sync > 0.0 {
                format!("{:.2}", r.rand_write_sync)
            } else {
                "-".into()
            },
            format!("{:.2}", r.seq_read_again),
            format!("{:.2}", r.rand_read),
        ]
    });
    format_table(
        &format!("Figure 7: large-file bandwidth (MB/s), {mb} MB file"),
        &[
            "system",
            "seq wr",
            "seq rd",
            "rnd wr(a)",
            "rnd wr(s)",
            "seq rd 2",
            "rnd rd",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcheck::stack::DevKind;

    fn quick(fs: FsKind, dev: DevKind) -> LargeFileResult {
        measure(
            StackSpec::paper(fs, dev, DiskKind::Seagate, HostModel::instant()),
            4,
        )
        .unwrap()
    }

    #[test]
    fn sync_random_writes_dominate_on_vld() {
        let reg = quick(FsKind::Ufs, DevKind::Regular);
        let vld = quick(FsKind::Ufs, DevKind::Vld);
        // The paper's headline: synchronous random writes are far faster on
        // the VLD.
        assert!(
            vld.rand_write_sync > 3.0 * reg.rand_write_sync,
            "VLD {} vs regular {}",
            vld.rand_write_sync,
            reg.rand_write_sync
        );
    }

    #[test]
    fn sequential_read_after_random_write_degrades_on_log_systems() {
        let vld = quick(FsKind::Ufs, DevKind::Vld);
        // Eager writing destroys spatial locality: re-read slower than the
        // original sequential read.
        assert!(
            vld.seq_read_again < vld.seq_read,
            "again {} vs first {}",
            vld.seq_read_again,
            vld.seq_read
        );
    }

    #[test]
    fn all_phases_produce_positive_bandwidth() {
        for (fk, dk) in [
            (FsKind::Ufs, DevKind::Regular),
            (FsKind::Lfs, DevKind::Regular),
            (FsKind::Lfs, DevKind::Vld),
        ] {
            let r = quick(fk, dk);
            assert!(r.seq_write > 0.0 && r.seq_read > 0.0);
            assert!(r.rand_write_async > 0.0 && r.seq_read_again > 0.0);
            assert!(r.rand_read > 0.0);
        }
    }
}
