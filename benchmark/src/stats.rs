//! Order statistics used by every metric: medians, exact percentiles and
//! the quartile spread `--selfcheck` and the README report.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile of an already **sorted** sample: the
/// smallest value with at least `p` (0..=1) of the sample at or below it.
/// No interpolation, so a simulated latency percentile is always a latency
/// some call actually saw and repeats bit-for-bit.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here can
/// be compared with the driver's.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |i: usize| {
        if n < 2 {
            return s.first().copied().unwrap_or(0.0);
        }
        // Cut point i*(n+1)/4 on a 1-based scale; the neighbour index is
        // clamped into the sample and the weight recomputed, which
        // extrapolates at the ends exactly as Python does.
        let pos = (i * (n + 1)) as f64;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = pos - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is
/// 0): the steadiness figure the benchmark contract is judged by.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 500);
        assert_eq!(percentile_sorted(&s, 0.999), 999);
        assert_eq!(percentile_sorted(&s, 1.0), 1000);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        // With 10^5 samples, 100 lie beyond the 99.9th percentile.
        let big: Vec<u64> = (0..100_000).collect();
        let p = percentile_sorted(&big, 0.999);
        assert_eq!(big.iter().filter(|&&x| x > p).count(), 100);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q2, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_of_a_constant_is_zero() {
        assert_eq!(iqr_share(&[2.0; 10]), 0.0);
        assert_eq!(iqr_share(&[0.0; 4]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
