//! Concrete disk specifications — the paper's Table 1.
//!
//! Two drives anchor the evaluation:
//!
//! | Parameter              | HP97560 | Seagate ST19101 |
//! |------------------------|---------|-----------------|
//! | Sectors per track (n)  | 72      | 256             |
//! | Tracks per cylinder (t)| 19      | 16              |
//! | Head switch (s)        | 2.5 ms  | 0.5 ms          |
//! | Minimum seek           | 3.6 ms  | 0.5 ms          |
//! | Rotation speed         | 4002 RPM| 10000 RPM       |
//! | SCSI overhead (o)      | 2.3 ms  | 0.1 ms          |
//!
//! The HP seek curve is the published Ruemmler & Wilkes fit used by the
//! Dartmouth simulator; the Seagate curve is fitted to the drive's
//! single-cylinder (0.5 ms), average (~5.4 ms) and full-stroke (~10.5 ms)
//! seeks, matching the paper's "coarse approximation" approach.
//!
//! Like the paper, which could only fit 36 HP cylinders or 11 Seagate
//! cylinders in its 24 MB kernel ramdisk, the `*_sim` constructors build
//! those slices; `hp97560` and `st19101` build a slice of any number of
//! cylinders (tests use one to a few).

use crate::geometry::Geometry;
use crate::mech::MechModel;

/// Everything needed to instantiate a simulated disk: geometry, mechanics
/// and per-command processing overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSpec {
    /// Human-readable model name.
    pub name: &'static str,
    /// Platter layout.
    pub geometry: Geometry,
    /// Mechanical timing model.
    pub mech: MechModel,
    /// Per-command controller/SCSI processing overhead, nanoseconds
    /// (the paper's parameter *o*).
    pub command_overhead_ns: u64,
    /// Track skew in sectors: the angular offset added per track so that a
    /// head switch during a sequential transfer lands just ahead of the
    /// next sector instead of a full revolution behind it.
    pub track_skew: u32,
    /// Cylinder skew in sectors, covering a single-cylinder seek.
    pub cyl_skew: u32,
}

impl DiskSpec {
    fn hp_mech() -> MechModel {
        MechModel {
            rpm: 4002,
            head_switch_ns: crate::ms_to_ns(2.5),
            seek_a_ms: 3.24,
            seek_b_ms: 0.4,
            seek_threshold: 383,
            seek_c_ms: 8.0,
            seek_e_ms: 0.008,
        }
    }

    fn seagate_mech() -> MechModel {
        MechModel {
            rpm: 10_000,
            head_switch_ns: crate::ms_to_ns(0.5),
            seek_a_ms: 0.37,
            seek_b_ms: 0.13,
            seek_threshold: 3000,
            seek_c_ms: 0.74,
            seek_e_ms: 0.00225,
        }
    }

    /// The HP97560 restricted to `cylinders` cylinders.
    pub(crate) fn hp97560(cylinders: u32) -> Self {
        Self {
            name: "HP97560",
            geometry: Geometry::uniform(cylinders, 19, 72),
            mech: Self::hp_mech(),
            command_overhead_ns: crate::ms_to_ns(2.3),
            // 2.5 ms head switch is ~12 of 72 sectors at 4002 RPM;
            // 3.6 ms minimum seek is ~18 sectors.
            track_skew: 13,
            cyl_skew: 18,
        }
    }

    /// The 36-cylinder HP97560 slice the paper simulated (≈25 MB).
    pub fn hp97560_sim() -> Self {
        Self::hp97560(36)
    }

    /// The Seagate ST19101 restricted to `cylinders` cylinders.
    pub fn st19101(cylinders: u32) -> Self {
        Self {
            name: "ST19101",
            geometry: Geometry::uniform(cylinders, 16, 256),
            mech: Self::seagate_mech(),
            command_overhead_ns: crate::ms_to_ns(0.1),
            // 0.5 ms is ~21.3 of 256 sectors at 10000 RPM for both the head
            // switch and the minimum seek.
            track_skew: 22,
            cyl_skew: 22,
        }
    }

    /// The 11-cylinder ST19101 slice the paper simulated (≈23 MB).
    pub fn st19101_sim() -> Self {
        Self::st19101(11)
    }

    /// Half-rotation time — the paper's rule-of-thumb penalty an
    /// update-in-place system cannot avoid.
    pub fn half_rotation_ns(&self) -> u64 {
        self.mech.revolution_ns() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_hp_parameters() {
        let d = DiskSpec::hp97560_sim();
        assert_eq!(d.geometry.sectors_per_track(0).unwrap(), 72);
        assert_eq!(d.geometry.tracks_per_cylinder(), 19);
        assert_eq!(d.mech.head_switch_ns, 2_500_000);
        assert_eq!(d.mech.rpm, 4002);
        assert_eq!(d.command_overhead_ns, 2_300_000);
        // Minimum seek ≈ 3.6 ms per Table 1.
        let min_seek_ms = crate::ns_to_ms(d.mech.seek_ns(1));
        assert!((min_seek_ms - 3.6).abs() < 0.1, "min seek {min_seek_ms} ms");
        // Half rotation ≈ 7.5 ms (the paper quotes ~7 ms).
        assert!((crate::ns_to_ms(d.half_rotation_ns()) - 7.497).abs() < 0.01);
    }

    #[test]
    fn table1_seagate_parameters() {
        let d = DiskSpec::st19101_sim();
        assert_eq!(d.geometry.sectors_per_track(0).unwrap(), 256);
        assert_eq!(d.geometry.tracks_per_cylinder(), 16);
        assert_eq!(d.mech.head_switch_ns, 500_000);
        assert_eq!(d.mech.rpm, 10_000);
        assert_eq!(d.command_overhead_ns, 100_000);
        let min_seek_ms = crate::ns_to_ms(d.mech.seek_ns(1));
        assert!(
            (min_seek_ms - 0.5).abs() < 0.05,
            "min seek {min_seek_ms} ms"
        );
        // Half rotation = 3 ms exactly at 10k RPM.
        assert_eq!(d.half_rotation_ns(), 3_000_000);
    }

    #[test]
    fn sim_slices_match_paper_ramdisk() {
        // ~24 MB of kernel memory in the paper.
        let hp = DiskSpec::hp97560_sim().geometry.capacity_bytes();
        let st = DiskSpec::st19101_sim().geometry.capacity_bytes();
        assert!((23..27).contains(&(hp >> 20)), "hp {} MiB", hp >> 20);
        assert!((21..25).contains(&(st >> 20)), "st {} MiB", st >> 20);
    }

    #[test]
    fn seagate_seek_curve_plausible() {
        let m = DiskSpec::st19101(4340).mech;
        let avg = crate::ns_to_ms(m.seek_ns(4340 / 3));
        assert!((4.5..6.5).contains(&avg), "avg seek {avg} ms");
        let full = crate::ns_to_ms(m.seek_ns(4339));
        assert!((9.0..12.0).contains(&full), "full-stroke {full} ms");
    }
}
