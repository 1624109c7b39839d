//! Figure 1: time to locate the first free sector vs disk utilisation —
//! analytical model (formula 2) against an eager-writing simulation, on
//! both disks.
//!
//! The simulation follows the paper's setup: free space is randomly
//! distributed at each utilisation, and the eager writer "is not restricted
//! to the current cylinder and always seeks to the nearest sector" (greedy,
//! bidirectional). Utilisation is held steady by freeing one random used
//! sector per write.

use crate::format_table;
use disksim::{Disk, SimClock};
use rand::Rng;
use vlog_core::{AllocConfig, EagerAllocator, FreeMap};
use vlog_models::{convert, cylinder};

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// Free-space percentage (x-axis).
    pub(crate) free_pct: f64,
    /// Model prediction, ms.
    pub(crate) model_ms: f64,
    /// Simulated mean locate time, ms.
    pub(crate) sim_ms: f64,
}

/// Measure one disk across utilisations. `writes` sets the per-point
/// sample count.
pub(crate) fn series(spec: disksim::DiskSpec, writes: u32, seed: u64) -> Vec<Point> {
    let switch_sectors = convert::head_switch_sectors(&spec);
    let tracks = spec.geometry.tracks_per_cylinder();
    let pcts: Vec<u64> = (5..=95).step_by(5).collect();
    disksim::par::pmap(pcts, |free_pct| {
        let p = free_pct as f64 / 100.0;
        let model_sectors = cylinder::expected_latency(p, switch_sectors, tracks);
        let model_ms = convert::sectors_to_ms(&spec, model_sectors);
        let sim_ms = simulate_point(&spec, p, writes, seed ^ free_pct);
        Point {
            free_pct: free_pct as f64,
            model_ms,
            sim_ms,
        }
    })
}

/// Simulated mean locate latency at free fraction `p`.
fn simulate_point(spec: &disksim::DiskSpec, p: f64, writes: u32, seed: u64) -> f64 {
    let mut spec = spec.clone();
    spec.command_overhead_ns = 0; // we measure pure positioning
    let clock = SimClock::new();
    let mut disk = Disk::new(spec.clone(), clock.clone());
    let g = spec.geometry.clone();
    let mut free = FreeMap::new(&g);
    let mut rng = crate::workload::rng(seed);

    // Randomly occupy (1-p) of all sectors. Rejection-sample against a flat
    // LBA bitmap (same accept/reject decisions — and so the same RNG stream
    // and the same occupancy — as testing `FreeMap::is_free` on a map that
    // starts all-free), then apply the whole occupancy in one bulk pass:
    // per-sector `allocate` calls rebuild the utilization index ~`total`
    // times and used to dominate this figure's wall time.
    let total = g.total_sectors();
    let occupy = ((1.0 - p) * total as f64) as u64;
    let mut used: Vec<u64> = Vec::with_capacity(occupy as usize);
    let mut used_bits = vec![0u64; (total as usize).div_ceil(64)];
    while (used.len() as u64) < occupy {
        let lba = rng.gen_range(0..total);
        let (q, m) = (lba as usize / 64, 1u64 << (lba % 64));
        if used_bits[q] & m == 0 {
            used_bits[q] |= m;
            used.push(lba);
        }
    }
    free.allocate_bulk(&used_bits);

    // Greedy two-way eager writer; keep utilisation constant by freeing a
    // random used sector per write.
    let mut alloc = EagerAllocator::new(AllocConfig {
        one_way_sweep: false,
        threshold_fill: false,
        block_sectors: 1,
        ..AllocConfig::default()
    });
    let mut total_ns = 0u64;
    let buf = vec![0u8; disksim::SECTOR_BYTES];
    for _ in 0..writes {
        let cand = alloc
            .find_sector(&disk, &free)
            .expect("free space exists at p > 0");
        total_ns += cand.cost.locate_ns();
        let lba = g
            .phys_to_lba(disksim::PhysAddr::new(cand.cyl, cand.track, cand.sector))
            .expect("candidate is valid");
        disk.write_sectors(lba, &buf).expect("write in range");
        free.allocate(cand.cyl, cand.track, cand.sector, 1)
            .expect("valid");
        used.push(lba);
        // Free one random used sector to hold p steady.
        let victim = used.swap_remove(rng.gen_range(0..used.len()));
        let ph = g.lba_to_phys(victim).expect("in range");
        free.release(ph.cyl, ph.track, ph.sector, 1).expect("valid");
    }
    disksim::ns_to_ms(total_ns) / writes as f64
}

/// Regenerate Figure 1.
pub fn run(writes: u32) -> String {
    let hp = series(disksim::DiskSpec::hp97560_sim(), writes, 0xF161);
    let st = series(disksim::DiskSpec::st19101_sim(), writes, 0xF162);
    let rows: Vec<Vec<String>> = hp
        .iter()
        .zip(&st)
        .map(|(h, s)| {
            vec![
                format!("{:.0}", h.free_pct),
                format!("{:.3}", h.model_ms),
                format!("{:.3}", h.sim_ms),
                format!("{:.4}", s.model_ms),
                format!("{:.4}", s.sim_ms),
            ]
        })
        .collect();
    format_table(
        "Figure 1: time to locate first free sector (ms) vs free space (%)",
        &["free %", "HP model", "HP sim", "ST model", "ST sim"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_validates_simulation_on_hp() {
        // The paper's Figure 1 point: model and simulation agree in shape.
        let pts = series(disksim::DiskSpec::hp97560_sim(), 120, 42);
        // Latency decreases with free space in both curves.
        assert!(pts.first().expect("points").sim_ms > pts.last().expect("points").sim_ms);
        assert!(pts.first().expect("points").model_ms > pts.last().expect("points").model_ms);
        // At moderate utilisations the two agree within a factor of two.
        for p in pts.iter().filter(|p| (20.0..=80.0).contains(&p.free_pct)) {
            let ratio = p.sim_ms / p.model_ms;
            assert!(
                (0.4..2.5).contains(&ratio),
                "free {}%: sim {} vs model {}",
                p.free_pct,
                p.sim_ms,
                p.model_ms
            );
        }
    }

    #[test]
    fn seagate_is_roughly_order_of_magnitude_faster() {
        let hp = series(disksim::DiskSpec::hp97560_sim(), 80, 1);
        let st = series(disksim::DiskSpec::st19101_sim(), 80, 1);
        // Compare at 50% free.
        let h = hp.iter().find(|p| p.free_pct == 50.0).expect("point");
        let s = st.iter().find(|p| p.free_pct == 50.0).expect("point");
        assert!(
            s.sim_ms * 4.0 < h.sim_ms,
            "ST {} ms vs HP {} ms",
            s.sim_ms,
            h.sim_ms
        );
    }
}
