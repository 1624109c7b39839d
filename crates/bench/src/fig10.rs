//! Figure 10: LFS (with NVRAM buffer) latency as a function of available
//! idle time, for several burst sizes, at 80 % disk utilisation.
//!
//! The benchmark performs a burst of random 4 KB updates, pauses for the
//! idle interval (during which the cleaner may run), and repeats. Reported
//! latency is non-idle time per block. Because the cleaner moves
//! segment-sized data, LFS "can only benefit from relatively long idle
//! intervals".

use crate::format_table;
use crate::setup::{aged_system, AgedSpec};
use crate::workload::{rng, BLOCK};
use fscore::{FileId, FileSystem, FsResult, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};
use rand::Rng;

/// The paper's burst sizes (KB). 504/1008/… are multiples of the 508 KB
/// of data a 127-slot segment holds.
pub const BURSTS_KB: [u64; 6] = [128, 256, 504, 1008, 2016, 4032];

/// Run the burst/idle cycle benchmark on an existing file; returns mean
/// non-idle milliseconds per 4 KB block.
pub fn burst_idle_bench(
    fs: &mut dyn FileSystem,
    f: FileId,
    file_blocks: u64,
    burst_blocks: u64,
    idle_ns: u64,
    total_blocks: u64,
    seed: u64,
) -> FsResult<f64> {
    let clock = fs.clock();
    let mut r = rng(seed);
    let buf = vec![0x5Du8; BLOCK];
    let mut written = 0u64;
    let mut idle_granted = 0u64;
    let t0 = clock.now();
    while written < total_blocks {
        let n = burst_blocks.min(total_blocks - written);
        for _ in 0..n {
            let b = r.gen_range(0..file_blocks);
            fs.write(f, b * BLOCK as u64, &buf)?;
        }
        written += n;
        if idle_ns > 0 {
            fs.idle(idle_ns);
            idle_granted += idle_ns;
        }
    }
    let busy = clock.now() - t0 - idle_granted;
    Ok(busy as f64 / written as f64 / 1e6)
}

/// Mixed with the burst size into each series' update-stream seed.
const SEED_TAG: u64 = 0xF20;

/// The aged state every cell starts from: LFS at 80 % utilisation, warmed
/// by one NVRAM-cycling burst. Built once, forked per cell.
fn spec(host: HostModel, total_blocks: u64) -> AgedSpec {
    AgedSpec {
        // Warm up: cycle the NVRAM once.
        warmup_blocks: 2000.min(total_blocks),
        ..AgedSpec::new(FsKind::Lfs, DevKind::Regular, DiskKind::Seagate, host, 0.8)
    }
}

/// Measure one series (burst size fixed, idle varied).
pub fn series(
    burst_kb: u64,
    idles_s: &[f64],
    total_blocks: u64,
    host: HostModel,
) -> Vec<(f64, f64)> {
    burst_idle_series(&spec(host, total_blocks), burst_kb, idles_s, total_blocks, SEED_TAG)
}

/// Regenerate Figure 10.
pub fn run(total_blocks: u64) -> String {
    let host = HostModel::sparcstation_10();
    burst_idle_grid(
        "Figure 10: LFS+NVRAM latency per 4 KB block (ms) vs idle interval",
        &spec(host, total_blocks),
        &BURSTS_KB,
        &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 7.0],
        total_blocks,
        SEED_TAG,
        2,
    )
}

/// One series of a burst/idle figure: for each idle interval, a fresh
/// fork of the aged state `spec` runs [`burst_idle_bench`] with bursts of
/// `burst_kb`, seeded by `seed_tag ^ burst_kb`.
pub(crate) fn burst_idle_series(
    spec: &AgedSpec,
    burst_kb: u64,
    idles_s: &[f64],
    total_blocks: u64,
    seed_tag: u64,
) -> Vec<(f64, f64)> {
    idles_s
        .iter()
        .map(|&idle| {
            let (mut fs, f, file_blocks) = aged_system(spec).expect("setup");
            let ms = burst_idle_bench(
                &mut fs,
                f,
                file_blocks,
                burst_kb * 1024 / BLOCK as u64,
                (idle * 1e9) as u64,
                total_blocks,
                seed_tag ^ burst_kb,
            )
            .expect("bench");
            (idle, ms)
        })
        .collect()
}

/// A burst/idle figure (10 and 11): one row per idle interval, one column
/// per burst size, each cell the latency of [`burst_idle_series`] printed
/// to `precision` decimals. Every (burst, idle) cell is an independent
/// simulation (a fresh fork, fixed seeds), so the whole grid fans out at
/// once.
pub(crate) fn burst_idle_grid(
    title: &str,
    spec: &AgedSpec,
    bursts_kb: &[u64],
    idles_s: &[f64],
    total_blocks: u64,
    seed_tag: u64,
    precision: usize,
) -> String {
    let points: Vec<(u64, f64)> = bursts_kb
        .iter()
        .flat_map(|&b| idles_s.iter().map(move |&idle| (b, idle)))
        .collect();
    let cells = disksim::par::pmap(points, |(b, idle)| {
        burst_idle_series(spec, b, &[idle], total_blocks, seed_tag)[0].1
    });
    let rows: Vec<Vec<String>> = idles_s
        .iter()
        .enumerate()
        .map(|(i, idle)| {
            let mut row = vec![format!("{idle:.2}")];
            for bi in 0..bursts_kb.len() {
                row.push(format!("{:.precision$}", cells[bi * idles_s.len() + i]));
            }
            row
        })
        .collect();
    let headers: Vec<String> = std::iter::once("idle (s)".to_string())
        .chain(bursts_kb.iter().map(|b| format!("{b}K")))
        .collect();
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    format_table(title, &hdr, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_time_helps_lfs() {
        let host = HostModel::instant();
        let pts = series(504, &[0.0, 4.0], 3000, host);
        let (busy, idle) = (pts[0].1, pts[1].1);
        assert!(
            idle < busy,
            "4 s idle ({idle} ms) must beat zero idle ({busy} ms)"
        );
    }
}
