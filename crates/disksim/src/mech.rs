//! The mechanical timing model: seek curve, rotation and head switches.
//!
//! Seek time follows the two-piece curve popularised by Ruemmler & Wilkes'
//! HP97560 characterisation (and used by the Dartmouth simulator the paper
//! ported): a square-root region for short seeks where the arm is
//! accelerating, and a linear region for long seeks where it coasts:
//!
//! ```text
//! seek(d) = a + b * sqrt(d)   for 0 < d < threshold
//! seek(d) = c + e * d         for d >= threshold
//! ```
//!
//! Rotation is uniform: the platters never stop, so the rotational position
//! at absolute time `t` is `(t % rev) / rev` of a revolution.

use std::sync::Arc;

/// Piecewise seek-time curve plus fixed per-event costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechModel {
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Head (track) switch time in nanoseconds, including settle.
    pub head_switch_ns: u64,
    /// Square-root region constant term, milliseconds.
    pub seek_a_ms: f64,
    /// Square-root region coefficient, milliseconds per sqrt(cylinder).
    pub seek_b_ms: f64,
    /// Boundary (in cylinders) between the two seek regions.
    pub seek_threshold: u32,
    /// Linear region constant term, milliseconds.
    pub seek_c_ms: f64,
    /// Linear region slope, milliseconds per cylinder.
    pub seek_e_ms: f64,
}

impl MechModel {
    /// One full revolution, in nanoseconds.
    #[inline]
    pub fn revolution_ns(&self) -> u64 {
        // 60 s/min * 1e9 ns/s / rpm
        60_000_000_000 / self.rpm as u64
    }

    /// Time for one sector to pass under the head on a track holding
    /// `sectors_per_track` sectors.
    #[inline]
    pub fn sector_ns(&self, sectors_per_track: u32) -> u64 {
        self.revolution_ns() / sectors_per_track as u64
    }

    /// Media transfer time for `count` contiguous sectors on one track.
    #[inline]
    pub fn transfer_ns(&self, count: u32, sectors_per_track: u32) -> u64 {
        count as u64 * self.sector_ns(sectors_per_track)
    }

    /// Seek time for a cylinder distance of `d` cylinders. Zero distance is
    /// free; the minimum (single-cylinder) seek is `seek_ns(1)`.
    pub fn seek_ns(&self, d: u32) -> u64 {
        if d == 0 {
            return 0;
        }
        let ms = if d < self.seek_threshold {
            self.seek_a_ms + self.seek_b_ms * (d as f64).sqrt()
        } else {
            self.seek_c_ms + self.seek_e_ms * d as f64
        };
        crate::ms_to_ns(ms)
    }

    /// Positioning cost of moving from `(cyl, track)` to another track:
    /// the larger of the cylinder seek and the head switch, since the
    /// actuator and head-select settle overlap.
    pub fn reposition_ns(&self, from_cyl: u32, from_track: u32, to_cyl: u32, to_track: u32) -> u64 {
        let seek = self.seek_ns(from_cyl.abs_diff(to_cyl));
        let switch = if from_track != to_track || from_cyl != to_cyl {
            // Selecting a different head — and after any cylinder seek the
            // drive must settle on the (possibly same-numbered) head anyway;
            // model cross-cylinder settles as part of the seek curve.
            if from_cyl == to_cyl {
                self.head_switch_ns
            } else {
                0
            }
        } else {
            0
        };
        seek.max(switch)
    }

    /// Precompute the seek curve over every distance a disk of `cylinders`
    /// cylinders can ask for, replacing the per-call `sqrt` with a lookup.
    ///
    /// Tables are interned process-wide by (curve, cylinder count): every
    /// disk built from the same spec — pool workers, snapshot forks, the
    /// oracle rebuild path — shares one allocation instead of re-deriving
    /// the curve per system.
    pub fn seek_table(&self, cylinders: u32) -> SeekTable {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        type Key = (u32, u64, u64, u64, u32, u64, u64, u32);
        static TABLES: OnceLock<Mutex<HashMap<Key, Arc<[u64]>>>> = OnceLock::new();
        let key = (
            self.rpm,
            self.head_switch_ns,
            self.seek_a_ms.to_bits(),
            self.seek_b_ms.to_bits(),
            self.seek_threshold,
            self.seek_c_ms.to_bits(),
            self.seek_e_ms.to_bits(),
            cylinders,
        );
        let mut tables = TABLES
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("seek-table cache poisoned");
        let ns = tables
            .entry(key)
            .or_insert_with(|| (0..cylinders.max(1)).map(|d| self.seek_ns(d)).collect())
            .clone();
        SeekTable { ns }
    }

    /// Rotational offset (in sectors) of the head over a track with
    /// `sectors_per_track` sectors at absolute time `t_ns`: which sector
    /// boundary most recently passed under the head.
    #[inline]
    pub fn sector_under_head(&self, t_ns: u64, sectors_per_track: u32) -> u32 {
        let rev = self.revolution_ns();
        sector_at_phase(t_ns % rev, sectors_per_track, rev)
    }

    /// Nanoseconds from absolute time `t_ns` until the *start* of sector
    /// `target` next passes under the head.
    pub fn rotational_wait_ns(&self, t_ns: u64, target: u32, sectors_per_track: u32) -> u64 {
        let rev = self.revolution_ns();
        let sector_ns = self.sector_ns(sectors_per_track);
        let target_start = target as u64 * sector_ns;
        let in_rev = t_ns % rev;
        if target_start >= in_rev {
            target_start - in_rev
        } else {
            rev - in_rev + target_start
        }
    }
}

/// The sector whose boundary most recently passed under the head `in_rev`
/// nanoseconds into a revolution of `rev_ns`, on a track of `spt` sectors:
/// `⌊in_rev · spt / rev_ns⌋`. `in_rev < rev_ns ≤ 6·10¹⁰` (one revolution at
/// 1 rpm) and `spt` is a few hundred, so the product fits `u64` with room
/// to spare and needs no 128-bit division.
#[inline]
pub(crate) fn sector_at_phase(in_rev: u64, spt: u32, rev_ns: u64) -> u32 {
    debug_assert!(in_rev < rev_ns && spt <= 1 << 20);
    (in_rev * spt as u64 / rev_ns) as u32
}

/// Precomputed seek times for every cylinder distance on one disk.
///
/// `seek_ns` sits on the allocator's innermost loop (every candidate ranking
/// and every lower-bound prune evaluates it); the two-piece curve costs a
/// float `sqrt` per call, so the table turns that into an indexed load. The
/// values are produced by [`MechModel::seek_ns`] itself, so table and curve
/// agree bit-for-bit. The storage is shared (`Arc`): cloning a table — per
/// pool worker, per snapshot fork — copies a pointer, not the curve.
#[derive(Debug, Clone)]
pub struct SeekTable {
    ns: Arc<[u64]>,
}

impl SeekTable {
    /// Seek time for a cylinder distance of `d`. Distances beyond the
    /// precomputed range (never produced by a valid geometry) fall back to
    /// the largest tabulated distance's cost.
    #[inline]
    pub fn get(&self, d: u32) -> u64 {
        match self.ns.get(d as usize) {
            Some(&ns) => ns,
            None => *self.ns.last().expect("table is never empty"),
        }
    }

    /// Number of tabulated distances.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Is the table empty? (Never true; kept for the `len` convention.)
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MechModel {
        MechModel {
            rpm: 6000, // 10 ms/rev for round numbers
            head_switch_ns: 1_000_000,
            seek_a_ms: 3.24,
            seek_b_ms: 0.4,
            seek_threshold: 383,
            seek_c_ms: 8.0,
            seek_e_ms: 0.008,
        }
    }

    #[test]
    fn revolution_time() {
        assert_eq!(model().revolution_ns(), 10_000_000);
        assert_eq!(model().sector_ns(100), 100_000);
    }

    /// The `u64` sector-phase arithmetic is the `u128` form it replaced, at
    /// every sector boundary ± 1 ns of both drives (and the slowest spindle
    /// with the widest track, where the product is largest).
    #[test]
    fn sector_phase_in_u64_matches_u128() {
        use crate::DiskSpec;
        let slow_wide = MechModel { rpm: 1, ..model() };
        let drives = [DiskSpec::hp97560_sim(), DiskSpec::st19101_sim()];
        let cases = drives
            .iter()
            .map(|d| (d.mech, d.geometry.sectors_per_track(0).unwrap()))
            .chain([(slow_wide, 1024)]);
        for (mech, spt) in cases {
            let rev = mech.revolution_ns();
            for k in 0..=spt as u64 {
                let boundary = (k * rev).div_ceil(spt as u64);
                for in_rev in boundary.saturating_sub(1)..=(boundary + 1).min(rev - 1) {
                    let wide = (in_rev as u128 * spt as u128 / rev as u128) as u32;
                    assert_eq!(sector_at_phase(in_rev, spt, rev), wide, "{spt} {in_rev}");
                    assert_eq!(mech.sector_under_head(7 * rev + in_rev, spt), wide);
                }
            }
        }
    }

    #[test]
    fn seek_curve_pieces() {
        let m = model();
        assert_eq!(m.seek_ns(0), 0);
        // Short seek: 3.24 + 0.4*sqrt(1) = 3.64 ms.
        assert_eq!(m.seek_ns(1), crate::ms_to_ns(3.64));
        // At the threshold the linear region applies: 8.00 + 0.008*383.
        assert_eq!(m.seek_ns(383), crate::ms_to_ns(8.0 + 0.008 * 383.0));
        // Long seeks grow linearly.
        assert!(m.seek_ns(1000) > m.seek_ns(383));
    }

    #[test]
    fn seek_is_monotonic() {
        let m = model();
        let mut prev = 0;
        for d in 0..1500 {
            let s = m.seek_ns(d);
            assert!(s >= prev, "seek not monotonic at {d}");
            prev = s;
        }
    }

    #[test]
    fn seek_table_matches_curve() {
        let m = model();
        let table = m.seek_table(1500);
        for d in 0..1500 {
            assert_eq!(table.get(d), m.seek_ns(d), "table diverges at {d}");
        }
        // Out-of-range distances clamp to the longest tabulated seek.
        assert_eq!(table.get(5000), m.seek_ns(1499));
        assert_eq!(table.len(), 1500);
        assert!(!table.is_empty());
    }

    #[test]
    fn reposition_overlaps_seek_and_switch() {
        let m = model();
        // Same track: free.
        assert_eq!(m.reposition_ns(5, 2, 5, 2), 0);
        // Same cylinder, different head: head switch.
        assert_eq!(m.reposition_ns(5, 2, 5, 3), m.head_switch_ns);
        // Different cylinder: the seek dominates the switch.
        assert_eq!(m.reposition_ns(5, 2, 6, 3), m.seek_ns(1));
    }

    #[test]
    fn sector_under_head_wraps() {
        let m = model();
        assert_eq!(m.sector_under_head(0, 100), 0);
        assert_eq!(m.sector_under_head(150_000, 100), 1);
        assert_eq!(m.sector_under_head(10_000_000, 100), 0); // full rev
        assert_eq!(m.sector_under_head(10_100_000, 100), 1);
    }

    #[test]
    fn rotational_wait_reaches_target_start() {
        let m = model();
        // At t=0, head at sector 0's start; waiting for sector 3 takes 3 sector times.
        assert_eq!(m.rotational_wait_ns(0, 3, 100), 300_000);
        // Just past sector 3: nearly a full revolution.
        let t = 300_001;
        let w = m.rotational_wait_ns(t, 3, 100);
        assert_eq!(t + w, 10_300_000);
    }

    #[test]
    fn rotational_wait_is_less_than_one_rev() {
        let m = model();
        for t in (0..20_000_000).step_by(314_159) {
            for target in [0, 1, 50, 99] {
                assert!(m.rotational_wait_ns(t, target, 100) < m.revolution_ns());
            }
        }
    }
}
