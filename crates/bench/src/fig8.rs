//! Figure 8: latency of random small synchronous updates vs disk
//! utilisation, with no idle time.
//!
//! Three systems, as in the paper: UFS on the regular disk (synchronous
//! update-in-place), UFS on the VLD (synchronous eager writing), and LFS on
//! the regular disk with its buffer cache treated as NVRAM (writes buffered
//! until the cache fills, then flushed — invoking the cleaner when free
//! segments run out). Utilisation is varied by the size of the single file
//! being updated and reported `df`-style.

use crate::format_table;
use crate::setup::{build_aged, AgedSpec};
use crate::workload::steady_state_update_ms;
use fscore::{FileSystem, FsResult, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};

/// One measured point for one system.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// df-style utilisation after creating the file, in percent.
    pub util_pct: f64,
    /// Mean latency per 4 KB update, ms.
    pub latency_ms: f64,
}

/// System selector for this figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// UFS on the regular disk, synchronous writes.
    UfsRegular,
    /// UFS on the VLD, synchronous writes.
    UfsVld,
    /// LFS (NVRAM buffer) on the regular disk.
    LfsNvram,
}

impl System {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            System::UfsRegular => "UFS/Regular",
            System::UfsVld => "UFS/VLD",
            System::LfsNvram => "LFS+NVRAM",
        }
    }
}

/// Measure one point: file of `frac` of usable capacity, steady-state
/// random updates.
pub fn measure_point(
    system: System,
    disk: DiskKind,
    frac: f64,
    updates: u64,
    host: HostModel,
) -> FsResult<Point> {
    let (fs_kind, dev) = match system {
        System::UfsRegular => (FsKind::Ufs, DevKind::Regular),
        System::UfsVld => (FsKind::Ufs, DevKind::Vld),
        System::LfsNvram => (FsKind::Lfs, DevKind::Regular),
    };
    // No built-in warm-up: this figure's warm-up shares the measurement RNG
    // stream. Every point has its own spec and uses it once, so it is built
    // directly — a snapshot would flatten a whole media image to serve a
    // single fork.
    let spec = AgedSpec {
        sync_writes: matches!(system, System::UfsRegular | System::UfsVld),
        ..AgedSpec::new(fs_kind, dev, disk, host, frac)
    };
    let (mut fs, f, file_blocks) = build_aged(&spec)?;
    let util_pct = fs.utilization() * 100.0;
    // LFS amortises its flush/clean cycles over ~1.5k-update periods, so it
    // needs several cycles of measurement to reach steady state; updates
    // there are mostly buffer hits and cost little real time to simulate.
    let updates = if system == System::LfsNvram {
        updates * 4
    } else {
        updates
    };
    let warmup = updates / 2;
    let latency_ms = steady_state_update_ms(
        &mut fs,
        f,
        file_blocks,
        warmup,
        updates,
        0xF18 + frac as u64,
    )?;
    Ok(Point {
        util_pct,
        latency_ms,
    })
}

/// Regenerate Figure 8.
pub fn run(updates: u64) -> String {
    let host = HostModel::sparcstation_10();
    let fracs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let systems = [System::UfsRegular, System::UfsVld, System::LfsNvram];
    let points: Vec<(f64, System)> = fracs
        .iter()
        .flat_map(|&frac| systems.iter().map(move |&sys| (frac, sys)))
        .collect();
    let cells = disksim::par::pmap(points, |(frac, sys)| {
        match measure_point(sys, DiskKind::Seagate, frac, updates, host) {
            Ok(p) => format!("{:.0}%:{:.2}", p.util_pct, p.latency_ms),
            Err(e) => format!("err:{e}"),
        }
    });
    let rows: Vec<Vec<String>> = fracs
        .iter()
        .zip(cells.chunks(systems.len()))
        .map(|(frac, row_cells)| {
            std::iter::once(format!("{:.0}%", frac * 100.0))
                .chain(row_cells.iter().cloned())
                .collect()
        })
        .collect();
    format_table(
        "Figure 8: random 4 KB sync-update latency (util%:ms) vs file size",
        &["file frac", "UFS/Regular", "UFS/VLD", "LFS+NVRAM"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vld_beats_update_in_place_by_a_lot() {
        let host = HostModel::instant();
        let reg = measure_point(System::UfsRegular, DiskKind::Seagate, 0.5, 400, host).unwrap();
        let vld = measure_point(System::UfsVld, DiskKind::Seagate, 0.5, 400, host).unwrap();
        assert!(
            vld.latency_ms * 3.0 < reg.latency_ms,
            "VLD {} ms vs regular {} ms",
            vld.latency_ms,
            reg.latency_ms
        );
    }

    #[test]
    fn lfs_is_fast_while_file_fits_in_nvram() {
        let host = HostModel::instant();
        // ~4 MB file < 6.1 MB NVRAM: almost every update is a buffer hit.
        let small = measure_point(System::LfsNvram, DiskKind::Seagate, 0.2, 2500, host).unwrap();
        // ~16 MB file >> NVRAM at high utilisation: cleaner dominates.
        let big = measure_point(System::LfsNvram, DiskKind::Seagate, 0.85, 2500, host).unwrap();
        assert!(big.latency_ms > 0.0, "big file must spill to disk");
        assert!(
            small.latency_ms * 4.0 < big.latency_ms,
            "small {} ms vs big {} ms",
            small.latency_ms,
            big.latency_ms
        );
    }

    #[test]
    fn vld_latency_rises_gently_with_utilization() {
        let host = HostModel::instant();
        let low = measure_point(System::UfsVld, DiskKind::Seagate, 0.2, 400, host).unwrap();
        let high = measure_point(System::UfsVld, DiskKind::Seagate, 0.85, 400, host).unwrap();
        assert!(
            high.latency_ms >= low.latency_ms * 0.8,
            "no catastrophic noise"
        );
        assert!(
            high.latency_ms < low.latency_ms + 3.0,
            "rise should be modest: {} -> {} ms",
            low.latency_ms,
            high.latency_ms
        );
    }
}
