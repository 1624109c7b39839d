//! Figure 6: small-file performance — create, read, and delete 1500 1 KB
//! files on the four system combinations, normalised to UFS on the regular
//! disk.
//!
//! As in the paper: UFS metadata (and the 1 KB data, via sync mode) is
//! synchronous; LFS buffers everything and flushes segments. Caches are
//! flushed between phases. Run on empty disks.

use crate::format_table;
use crate::workload::timed;
use fscore::{FileSystem, FsResult, HostModel};
use modelcheck::stack::{DiskKind, FsKind, Obs, StackSpec};

/// Per-phase simulated times for one system, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmallFileResult {
    /// Create phase.
    pub(crate) create_ns: u64,
    /// Read-back phase (after cache flush).
    pub(crate) read_ns: u64,
    /// Delete phase.
    pub(crate) delete_ns: u64,
}

/// Run the small-file benchmark on one system.
pub(crate) fn measure(spec: StackSpec, files: u32) -> FsResult<SmallFileResult> {
    let mut fs = spec.build(None, &Obs::default())?;
    if spec.fs == FsKind::Ufs {
        fs.set_sync_writes(true); // "Under UFS, updates are synchronous."
    }
    let clock = fs.clock();
    let data = vec![0xCDu8; 1024];
    let create_ns = timed(&clock, || {
        for i in 0..files {
            let f = fs.create(&format!("f{i:05}"))?;
            fs.write(f, 0, &data)?;
        }
        fs.sync()
    })?;
    fs.drop_caches();
    let mut out = vec![0u8; 1024];
    let read_ns = timed(&clock, || {
        for i in 0..files {
            let f = fs.open(&format!("f{i:05}"))?;
            fs.read(f, 0, &mut out)?;
        }
        Ok(())
    })?;
    let delete_ns = timed(&clock, || {
        for i in 0..files {
            fs.delete(&format!("f{i:05}"))?;
        }
        fs.sync()
    })?;
    Ok(SmallFileResult {
        create_ns,
        read_ns,
        delete_ns,
    })
}

/// Regenerate Figure 6: per-phase performance of all four systems,
/// normalised to UFS/regular (higher is better).
pub fn run(files: u32) -> String {
    let host = HostModel::sparcstation_10();
    let specs = StackSpec::ALL.map(|s| StackSpec::paper(s.fs, s.dev, DiskKind::Seagate, host));
    let results: Vec<(String, SmallFileResult)> = disksim::par::pmap(specs.to_vec(), |spec| {
        (
            spec.label(),
            measure(spec, files).unwrap_or_else(|e| panic!("{}: {e}", spec.label())),
        )
    });
    let base = results[0].1;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, r)| {
            vec![
                label.clone(),
                format!("{:.2}", base.create_ns as f64 / r.create_ns as f64),
                format!("{:.2}", base.read_ns as f64 / r.read_ns as f64),
                format!("{:.2}", base.delete_ns as f64 / r.delete_ns as f64),
                format!("{:.2}s", r.create_ns as f64 / 1e9),
                format!("{:.2}s", r.read_ns as f64 / 1e9),
                format!("{:.2}s", r.delete_ns as f64 / 1e9),
            ]
        })
        .collect();
    format_table(
        &format!(
            "Figure 6: small-file performance ({files} x 1 KB files), normalised to UFS/Regular"
        ),
        &[
            "system",
            "create",
            "read",
            "delete",
            "create(s)",
            "read(s)",
            "delete(s)",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcheck::stack::DevKind;

    fn quick(fs: FsKind, dev: DevKind) -> SmallFileResult {
        measure(
            StackSpec::paper(fs, dev, DiskKind::Seagate, HostModel::instant()),
            150,
        )
        .unwrap()
    }

    #[test]
    fn vld_speeds_up_ufs_creates_and_deletes() {
        let reg = quick(FsKind::Ufs, DevKind::Regular);
        let vld = quick(FsKind::Ufs, DevKind::Vld);
        assert!(
            vld.create_ns * 2 < reg.create_ns,
            "create: VLD {} vs regular {}",
            vld.create_ns,
            reg.create_ns
        );
        assert!(
            vld.delete_ns * 2 < reg.delete_ns,
            "delete: VLD {} vs regular {}",
            vld.delete_ns,
            reg.delete_ns
        );
        // Reads may be slightly worse on the VLD, but not catastrophically.
        assert!(vld.read_ns < reg.read_ns * 3);
    }

    #[test]
    fn lfs_create_is_fast_on_both_devices() {
        let ufs = quick(FsKind::Ufs, DevKind::Regular);
        let lfs = quick(FsKind::Lfs, DevKind::Regular);
        assert!(
            lfs.create_ns < ufs.create_ns,
            "buffered LFS creates must win"
        );
    }
}
