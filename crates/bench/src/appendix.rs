//! Appendix A.1: the block-size extension of the single-track model —
//! formula (9) — validated by simulation.
//!
//! "Suppose the file system logical block size is B and the disk physical
//! block size is b (b ≤ B), then the average amount of time (expressed in
//! the numbers of sectors skipped) needed to locate all the free sectors
//! for a logical block is (1−p)n/(b+pn) · B ... the latency is lowest when
//! the physical block size matches the logical block size." This is the
//! analysis behind the VLD's 4 KB physical block choice (§4.2).

use crate::format_table;
use crate::workload::rng;
use rand::Rng;

/// Simulate locating a logical block of `logical` sectors as `logical/b`
/// physical blocks of `b` sectors on a track of `n` sectors whose free
/// space is managed at `b`-sector granularity (the formula's premise: the
/// disk "allocates and frees" physical blocks). Each occupied block passed
/// over costs `b` skipped sectors; returns the mean skipped sectors per
/// logical-block placement.
fn simulate(n: u64, p: f64, b: u64, logical: u64, trials: u32, seed: u64) -> f64 {
    let mut r = rng(seed);
    let slots = n / b;
    let mut total = 0u64;
    let mut counted = 0u32;
    for _ in 0..trials {
        let mut slot_free: Vec<bool> = (0..slots).map(|_| r.gen_bool(p)).collect();
        let need_total = logical / b;
        if (slot_free.iter().filter(|&&f| f).count() as u64) < need_total {
            continue; // not enough space this trial (rare at p >= 0.2)
        }
        let mut slot = r.gen_range(0..slots) as usize;
        let mut need = need_total;
        let mut skipped = 0u64;
        while need > 0 {
            if slot_free[slot] {
                slot_free[slot] = false; // taken: transfer, not a skip
                need -= 1;
            } else {
                skipped += b;
            }
            slot = (slot + 1) % slots as usize;
        }
        total += skipped;
        counted += 1;
    }
    total as f64 / counted.max(1) as f64
}

/// Formula (9) in sectors skipped.
fn model(n: u64, p: f64, b: u64, logical: u64) -> f64 {
    vlfs_models_expected(n, p, b, logical)
}

fn vlfs_models_expected(n: u64, p: f64, b: u64, logical: u64) -> f64 {
    // The free-space fraction seen at block granularity is p^b; formula (9)
    // as printed uses the sector-granularity p with the b in the
    // denominator capturing the alignment effect.
    vlog_models::single_track::expected_skips_blocks(n, p, b, logical)
}

use vlog_models;

/// Regenerate the Appendix A.1 comparison: skipped sectors to place one
/// 8-sector (4 KB) logical block, by physical block size.
pub fn run(trials: u32) -> String {
    let n = 256u64; // ST19101 track
    let logical = 8u64;
    let points: Vec<(f64, u64)> = [0.2f64, 0.4, 0.6, 0.8]
        .iter()
        .flat_map(|&p| [1u64, 2, 4, 8].iter().map(move |&b| (p, b)))
        .collect();
    let rows = disksim::par::pmap(points, |(p, b)| {
        let m = model(n, p, b, logical);
        let s = simulate(n, p, b, logical, trials, 0xA1 ^ b ^ (p * 100.0) as u64);
        vec![
            format!("{:.0}%", p * 100.0),
            b.to_string(),
            format!("{m:.2}"),
            format!("{s:.2}"),
        ]
    });
    format_table(
        "Appendix A.1: sectors skipped placing a 4 KB logical block (model vs sim)",
        &["free %", "phys b", "model (9)", "sim"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_block_size_minimises_skips_in_simulation() {
        // The appendix's conclusion: b = B is the cheapest configuration.
        // The per-point advantage is a few percent, so compare the sum
        // across utilisations with a healthy sample size.
        let (mut sum1, mut sum8) = (0.0, 0.0);
        for &p in &[0.2f64, 0.4, 0.6, 0.8] {
            sum1 += simulate(256, p, 1, 8, 4000, 1);
            sum8 += simulate(256, p, 8, 8, 4000, 2);
        }
        assert!(
            sum8 < sum1,
            "aligned 4K blocks ({sum8}) should beat sector-granular ({sum1})"
        );
    }

    #[test]
    fn model_tracks_simulation_for_matched_blocks() {
        // For b=B the formula and the simulation agree well (the b<B cases
        // differ more because the formula idealises the retry process).
        for &p in &[0.3f64, 0.5, 0.7] {
            let m = model(256, p, 8, 8);
            let s = simulate(256, p, 8, 8, 600, 3);
            let ratio = s / m;
            assert!((0.4..2.5).contains(&ratio), "p={p}: sim {s} model {m}");
        }
    }
}
