//! Figure 9 (and the machinery behind Table 2): the latency breakdown of
//! random synchronous 4 KB updates at 80 % disk utilisation, decomposed
//! into SCSI overhead, locate (seek + head switch + rotation), transfer,
//! and "other" (host processing), across three platform generations.
//!
//! Per the paper's footnote, the VLD is measured immediately after a
//! compactor run.

use crate::format_table;
use crate::setup::{build_aged, AgedSpec};
use crate::workload::{random_updates, rng};
use fscore::{FileSystem, FsResult, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind};

/// Mean per-update latency components, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// SCSI/controller command overhead.
    pub overhead_ms: f64,
    /// Seek + head switch + rotation.
    pub locate_ms: f64,
    /// Media transfer.
    pub transfer_ms: f64,
    /// Host processing ("other").
    pub other_ms: f64,
}

impl Breakdown {
    /// Total latency per update.
    pub(crate) fn total_ms(&self) -> f64 {
        self.overhead_ms + self.locate_ms + self.transfer_ms + self.other_ms
    }
}

/// Measure the breakdown for UFS on the given device at ~80 % utilisation.
pub fn measure(dev: DevKind, disk: DiskKind, host: HostModel, updates: u64) -> FsResult<Breakdown> {
    // Footnote 1 of the paper: the VLD is measured "immediately after
    // running a compactor" — so provision an empty-track pool large enough
    // to cover the measured window.
    let mut spec = AgedSpec {
        sync_writes: true,
        ..AgedSpec::new(FsKind::Ufs, dev, disk, host, 0.8)
    };
    // (A VLD setting: no effect on the regular disk.)
    spec.stack.vld_target_empty_tracks = Some(40);
    // Each of the six specs is built exactly once (`measure_all`): no
    // snapshot to amortise.
    let (mut fs, f, file_blocks) = build_aged(&spec)?;
    let mut r = rng(0xF19);
    // Warm up, then replenish the compactor's pool so every measured chunk
    // runs right after a compaction pass, as in the paper. Idle grants are
    // not part of the measured time.
    fs.idle(20_000_000_000);
    random_updates(&mut fs, f, file_blocks, updates / 4, &mut r)?;
    let clock = fs.clock();
    let mut elapsed = 0u64;
    let mut dev_busy = disksim::ServiceTime::ZERO;
    let mut done = 0u64;
    while done < updates {
        // Replenish the pool; neither the idle time nor the compactor's
        // own device activity belongs to the measured updates.
        fs.idle(30_000_000_000);
        let chunk = 50.min(updates - done);
        let s0 = fs.device().disk_stats();
        let t0 = clock.now();
        random_updates(&mut fs, f, file_blocks, chunk, &mut r)?;
        elapsed += clock.now() - t0;
        let s1 = fs.device().disk_stats();
        dev_busy += disksim::ServiceTime {
            overhead_ns: s1.busy.overhead_ns - s0.busy.overhead_ns,
            seek_ns: s1.busy.seek_ns - s0.busy.seek_ns,
            head_switch_ns: s1.busy.head_switch_ns - s0.busy.head_switch_ns,
            rotation_ns: s1.busy.rotation_ns - s0.busy.rotation_ns,
            transfer_ns: s1.busy.transfer_ns - s0.busy.transfer_ns,
        };
        done += chunk;
    }
    let n = updates as f64;
    // The VLD charges its host-visible command overhead outside the raw
    // disk, so derive overhead as "per command o" times commands issued by
    // the host — which equals elapsed-minus-device-minus-host bookkeeping.
    // Simpler and exact: device components from stats; host = remainder,
    // split into the spec overhead per update and the rest.
    let spec_overhead_ns = match dev {
        DevKind::Regular => 0, // already inside dev_busy.overhead_ns
        DevKind::Vld => disk.spec().command_overhead_ns,
    };
    let overhead_ms = (dev_busy.overhead_ns as f64 / n + spec_overhead_ns as f64) / 1e6;
    let locate_ms = dev_busy.locate_ns() as f64 / n / 1e6;
    let transfer_ms = dev_busy.transfer_ns as f64 / n / 1e6;
    let other_ms = (elapsed as f64 / n) / 1e6 - overhead_ms - locate_ms - transfer_ms;
    Ok(Breakdown {
        overhead_ms,
        locate_ms,
        transfer_ms,
        other_ms: other_ms.max(0.0),
    })
}

/// The three platform generations of Table 2 / Figure 9.
pub(crate) fn platforms() -> Vec<(&'static str, DiskKind, HostModel)> {
    vec![
        ("HP + SPARC", DiskKind::Hp, HostModel::sparcstation_10()),
        (
            "Seagate + SPARC",
            DiskKind::Seagate,
            HostModel::sparcstation_10(),
        ),
        (
            "Seagate + Ultra",
            DiskKind::Seagate,
            HostModel::ultrasparc_170(),
        ),
    ]
}

/// The six measurements, each platform's regular disk then its VLD.
fn points() -> Vec<(&'static str, DiskKind, HostModel, DevKind)> {
    platforms()
        .into_iter()
        .flat_map(|(name, disk, host)| {
            [DevKind::Regular, DevKind::Vld]
                .into_iter()
                .map(move |dev| (name, disk, host, dev))
        })
        .collect()
}

/// The breakdowns Table 2 and Figure 9 both report, measured once and
/// handed to both: HP + SPARC, Seagate + SPARC and Seagate + Ultra, each
/// on the regular disk and then on the VLD.
pub fn measure_all(updates: u64) -> Vec<Breakdown> {
    disksim::par::pmap(points(), |(name, disk, host, dev)| {
        measure(dev, disk, host, updates).unwrap_or_else(|e| panic!("{name} {}: {e}", dev.label()))
    })
}

/// Regenerate Figure 9 from [`measure_all`]'s breakdowns.
pub fn run(measured: &[Breakdown]) -> String {
    let rows: Vec<Vec<String>> = points()
        .into_iter()
        .zip(measured)
        .map(|((name, _, _, dev), b)| {
            let total = b.total_ms();
            let pct = |x: f64| format!("{:.0}%", x / total * 100.0);
            vec![
                format!("{name} {}", dev.label()),
                format!("{total:.2}"),
                pct(b.overhead_ms),
                pct(b.transfer_ms),
                pct(b.locate_ms),
                pct(b.other_ms),
            ]
        })
        .collect();
    format_table(
        "Figure 9: latency breakdown of 4 KB sync updates at 80% utilisation",
        &[
            "platform", "total ms", "SCSI", "transfer", "locate", "other",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_in_place_is_mechanically_dominated_on_hp() {
        let b = measure(
            DevKind::Regular,
            DiskKind::Hp,
            HostModel::sparcstation_10(),
            150,
        )
        .unwrap();
        assert!(
            b.locate_ms > b.total_ms() * 0.4,
            "locate {} of total {}",
            b.locate_ms,
            b.total_ms()
        );
    }

    #[test]
    fn vld_slashes_locate_time() {
        let host = HostModel::sparcstation_10();
        let reg = measure(DevKind::Regular, DiskKind::Seagate, host, 150).unwrap();
        let vld = measure(DevKind::Vld, DiskKind::Seagate, host, 150).unwrap();
        assert!(
            vld.locate_ms * 4.0 < reg.locate_ms,
            "VLD locate {} vs regular {}",
            vld.locate_ms,
            reg.locate_ms
        );
        // Overheads and transfer are comparable across the two devices.
        assert!((vld.transfer_ms - reg.transfer_ms).abs() < 0.5);
    }
}
