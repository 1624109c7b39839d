//! Figure 11: UFS-on-VLD latency as a function of available idle time, for
//! several burst sizes, at 80 % disk utilisation.
//!
//! The same burst/pause benchmark as Figure 10, but the idle time feeds the
//! VLD's track-granularity compactor instead of the LFS cleaner — so the
//! performance "improves along a continuum of relatively small idle
//! intervals" (fractions of a second rather than seconds).

use crate::fig10::burst_idle_grid;
use crate::setup::AgedSpec;
use fscore::HostModel;
use modelcheck::stack::{DevKind, DiskKind, FsKind};

/// The paper's burst sizes for this figure (KB).
pub(crate) const BURSTS_KB: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Mixed with the burst size into each series' update-stream seed.
const SEED_TAG: u64 = 0xF21;

/// The aged state every cell starts from: synchronous UFS on the VLD at
/// 80 % utilisation, warmed by one update burst. Built once, forked per
/// cell.
fn spec(host: HostModel, total_blocks: u64) -> AgedSpec {
    AgedSpec {
        sync_writes: true,
        warmup_blocks: 1000.min(total_blocks),
        ..AgedSpec::new(FsKind::Ufs, DevKind::Vld, DiskKind::Seagate, host, 0.8)
    }
}

/// Regenerate Figure 11.
pub fn run(total_blocks: u64) -> String {
    let host = HostModel::sparcstation_10();
    burst_idle_grid(
        "Figure 11: UFS-on-VLD latency per 4 KB block (ms) vs idle interval",
        &spec(host, total_blocks),
        &BURSTS_KB,
        &[0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6],
        total_blocks,
        SEED_TAG,
        3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10::{aged_snapshot, burst_idle_series};

    #[test]
    fn small_idle_intervals_already_help_the_vld() {
        let host = HostModel::instant();
        let aged = aged_snapshot(&spec(host, 2500));
        let pts = burst_idle_series(&aged, 512, &[0.0, 0.45], 2500, SEED_TAG);
        let (busy, idle) = (pts[0].1, pts[1].1);
        assert!(
            idle <= busy,
            "0.45 s idle ({idle} ms) should not be worse than none ({busy} ms)"
        );
    }

    #[test]
    fn vld_latency_is_predictable() {
        // "The VLD performance is also more predictable": across burst
        // sizes at a fixed idle interval, the spread stays small.
        let aged = aged_snapshot(&spec(HostModel::instant(), 1500));
        let series = |burst_kb| burst_idle_series(&aged, burst_kb, &[0.2], 1500, SEED_TAG)[0].1;
        let (a, b) = (series(128), series(2048));
        let ratio = if a > b { a / b } else { b / a };
        assert!(ratio < 3.0, "burst-size sensitivity too high: {a} vs {b}");
    }
}
