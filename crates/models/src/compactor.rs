//! The fill-to-threshold model assuming a compactor (§2.3, Appendix A.2).
//!
//! With a compactor regenerating empty tracks during idle time, the
//! allocator fills an empty track until `m` of its `n` sectors remain free,
//! then switches (cost `s`). Substituting the free count `i` into formula
//! (6), the skips accumulated over one track's fill are
//!
//! ```text
//! Σ_{i=m+1}^{n} (n − i)/(1 + i)                              (10)
//! ```
//!
//! giving an average per-write latency of
//!
//! ```text
//! [s + r·Σ…] / (n − m)                                       (11)
//! ```
//!
//! Approximating the sum by an integral and adding the empirical
//! non-randomness correction
//!
//! ```text
//! ε(n, m) = (n − m − 0.5)^(p+2) / [(8 − n/96)·(p + 2)·n^p],  p = 1 + n/36   (12)
//! ```
//!
//! yields the paper's closed form
//!
//! ```text
//! [s + r·((n+1)·ln((n+2)/(m+2)) − (n − m) + ε(n, m))] / (n − m)   (13)
//! ```

/// Formula (10): total sectors skipped filling a track from empty down to
/// `m` free sectors.
pub fn total_skips_exact(n: u64, m: u64) -> f64 {
    assert!(m < n);
    ((m + 1)..=n).map(|i| (n - i) as f64 / (1 + i) as f64).sum()
}

/// Formula (12): the non-randomness correction ε(n, m).
pub(crate) fn epsilon(n: u64, m: u64) -> f64 {
    let nf = n as f64;
    let p = 1.0 + nf / 36.0;
    let num = (nf - m as f64 - 0.5).powf(p + 2.0);
    let den = (8.0 - nf / 96.0) * (p + 2.0) * nf.powf(p);
    num / den
}

/// Formula (13): the paper's closed-form average latency per write, in
/// nanoseconds.
pub fn avg_latency_model_ns(n: u64, m: u64, switch_ns: u64, sector_ns: u64) -> f64 {
    assert!(m < n);
    let nf = n as f64;
    let mf = m as f64;
    let integral = (nf + 1.0) * ((nf + 2.0) / (mf + 2.0)).ln() - (nf - mf);
    let skips = integral + epsilon(n, m);
    (switch_ns as f64 + sector_ns as f64 * skips) / (nf - mf)
}

/// The threshold expressed as the paper's x-axis: the percentage of free
/// sectors reserved per track before a switch (high threshold = frequent
/// switches).
pub fn threshold_to_m(n: u64, threshold_percent: f64) -> u64 {
    ((threshold_percent / 100.0) * n as f64).round() as u64
}

/// Sweep the model over thresholds and return the optimum `(m, latency_ns)`.
pub fn optimal_threshold(n: u64, switch_ns: u64, sector_ns: u64) -> (u64, f64) {
    (0..n)
        .map(|m| (m, avg_latency_model_ns(n, m, switch_ns, sector_ns)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite latencies"))
        .expect("n >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    // HP97560-ish: 72 sectors, 2.5 ms switch, 0.2082 ms/sector.
    const HP: (u64, u64, u64) = (72, 2_500_000, 208_229);
    // ST19101-ish: 256 sectors, 0.5 ms switch, 23.4 µs/sector.
    const ST: (u64, u64, u64) = (256, 500_000, 23_437);

    #[test]
    fn exact_sum_sanity() {
        // Filling to the last sector of a 72-sector track skips far more
        // than filling only half of it.
        assert!(total_skips_exact(72, 0) > total_skips_exact(72, 36) * 4.0);
        // One write into an otherwise-empty track skips ~nothing.
        assert!(total_skips_exact(72, 71) < 0.02);
    }

    #[test]
    fn model_tracks_exact_sum_shape() {
        // The closed form should stay within ~20% of the exact sum plus
        // epsilon over the operating range.
        let (n, s, r) = HP;
        for m in [4u64, 8, 18, 36, 54] {
            let exact =
                (s as f64 + r as f64 * (total_skips_exact(n, m) + epsilon(n, m))) / (n - m) as f64;
            let model = avg_latency_model_ns(n, m, s, r);
            let ratio = model / exact;
            assert!((0.8..1.2).contains(&ratio), "m={m}: ratio {ratio}");
        }
    }

    #[test]
    fn extremes_are_penalised() {
        // The paper: switching too frequently (high threshold, large m)
        // pays the switch cost; switching too rarely (m → 0) pays crowded-
        // track rotation. The optimum lies strictly between.
        let (n, s, r) = HP;
        let (m_opt, best) = optimal_threshold(n, s, r);
        assert!(m_opt > 0 && m_opt < n - 1, "optimum at boundary: {m_opt}");
        assert!(best < avg_latency_model_ns(n, 1, s, r));
        assert!(best < avg_latency_model_ns(n, n - 1, s, r));
    }

    #[test]
    fn hp_latencies_in_paper_range() {
        // Figure 2's HP curve lives between roughly 0.5 and 3 ms.
        let (n, s, r) = HP;
        for m in (2..n - 1).step_by(7) {
            let ms = avg_latency_model_ns(n, m, s, r) / 1e6;
            assert!((0.1..4.0).contains(&ms), "m={m}: {ms} ms");
        }
    }

    #[test]
    fn seagate_is_roughly_an_order_faster() {
        let hp_best = optimal_threshold(HP.0, HP.1, HP.2).1;
        let st_best = optimal_threshold(ST.0, ST.1, ST.2).1;
        assert!(
            st_best * 5.0 < hp_best,
            "HP {hp_best} ns vs ST {st_best} ns — technology trend missing"
        );
    }

    #[test]
    fn threshold_conversion() {
        assert_eq!(threshold_to_m(72, 0.0), 0);
        assert_eq!(threshold_to_m(72, 50.0), 36);
        assert_eq!(threshold_to_m(72, 100.0), 72);
    }
}
