//! The single-cylinder model (§2.2).
//!
//! The expected latency (in sector times) to reach the nearest free sector
//! considering both the current track and the other `t−1` tracks of the
//! cylinder is
//!
//! ```text
//! E = Σx Σy min(x, y) · fx(p, x) · fy(p, y)                  (2)
//! fx(p, x) = p · (1 − p)^x                                   (3)
//! fy(p, y) = fx(1 − (1 − p)^(t−1), y − s)                    (4)
//! ```
//!
//! where `x` is the delay on the current track, `y` the delay via a head
//! switch costing `s` sector times, and `p` the free fraction. Both the
//! literal double sum and an exact closed form (via
//! `E[min(X,Y)] = Σ_k P(X>k)·P(Y>k)`) are provided; the closed form is what
//! the Figure 1 harness uses.

/// Formula (3): probability of exactly `x` occupied sectors before a free
/// one on the current track.
pub(crate) fn fx(p: f64, x: u64) -> f64 {
    p * (1.0 - p).powi(x as i32)
}

/// Formula (4): probability that the cheapest other-track free sector costs
/// `y` (including the head-switch cost `s`); zero for `y < s`.
pub(crate) fn fy(p: f64, y: u64, s: u64, tracks: u32) -> f64 {
    if y < s {
        return 0.0;
    }
    let q = 1.0 - (1.0 - p).powi(tracks as i32 - 1);
    fx(q, y - s)
}

/// Formula (2) evaluated as the literal truncated double sum (for
/// validating the closed form).
pub fn expected_latency_sum(p: f64, s: u64, tracks: u32, terms: u64) -> f64 {
    let mut e = 0.0;
    for x in 0..terms {
        let px = fx(p, x);
        if px == 0.0 {
            continue;
        }
        for y in s..s + terms {
            e += (x.min(y)) as f64 * px * fy(p, y, s, tracks);
        }
    }
    e
}

/// Formula (2) in closed form. With `X ~ Geom(p)` and `Y = s + Geom(q)`
/// (`q = 1 − (1−p)^(t−1)`),
///
/// ```text
/// E[min(X,Y)] = Σ_{k<s} P(X>k) + Σ_{k≥s} P(X>k)·P(Y>k)
///             = a·(1−a^s)/(1−a) + a^{s+1}·b/(1−a·b)   (a=1−p, b=1−q)
/// ```
pub fn expected_latency(p: f64, s: u64, tracks: u32) -> f64 {
    if p >= 1.0 {
        return 0.0;
    }
    if p <= 0.0 {
        return f64::INFINITY;
    }
    let a = 1.0 - p; // P(X > k) = a^{k+1}
    let q = 1.0 - a.powi(tracks as i32 - 1);
    let b = 1.0 - q; // P(Y > s-1+j) = b^j
                     // Part 1: k = 0..s-1 → Σ a^{k+1} = a (1 - a^s) / (1 - a)
    let part1 = a * (1.0 - a.powi(s as i32)) / (1.0 - a);
    // Part 2: k = s+j, j ≥ 0 → Σ_j a^{s+j+1} b^{j+1} = a^{s+1} b / (1 - a b)
    let part2 = if b == 0.0 {
        0.0
    } else {
        a.powi(s as i32 + 1) * b / (1.0 - a * b)
    };
    part1 + part2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_double_sum() {
        for &p in &[0.05, 0.2, 0.5, 0.8] {
            for &(s, t) in &[(12u64, 19u32), (21, 16), (5, 2)] {
                let sum = expected_latency_sum(p, s, t, 4000);
                let closed = expected_latency(p, s, t);
                assert!(
                    (sum - closed).abs() < 1e-6,
                    "p={p} s={s} t={t}: {sum} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn cylinder_beats_single_track() {
        // Adding other tracks can only reduce expected latency versus the
        // single-track geometric mean (1-p)/p.
        for &p in &[0.1, 0.3, 0.6] {
            let single = (1.0 - p) / p;
            let cyl = expected_latency(p, 12, 19);
            assert!(cyl <= single + 1e-9, "p={p}");
        }
    }

    #[test]
    fn single_track_limit_when_switch_is_infinite() {
        // A huge switch cost reduces the model to the current track only:
        // E → Σ_k P(X>k) = (1-p)/p.
        let p = 0.25;
        let e = expected_latency(p, 10_000, 19);
        assert!((e - (1.0 - p) / p).abs() < 1e-6);
    }

    #[test]
    fn monotone_decreasing_in_free_space() {
        let mut prev = f64::INFINITY;
        for i in 1..=99 {
            let e = expected_latency(i as f64 / 100.0, 12, 19);
            assert!(e <= prev + 1e-12, "not monotone at {i}%");
            prev = e;
        }
    }

    #[test]
    fn boundary_values() {
        assert_eq!(expected_latency(1.0, 12, 19), 0.0);
        assert!(expected_latency(0.0, 12, 19).is_infinite());
    }

    #[test]
    fn fy_respects_switch_cost() {
        assert_eq!(fy(0.5, 3, 5, 19), 0.0, "cannot beat the switch cost");
        assert!(fy(0.5, 5, 5, 19) > 0.0);
    }
}
