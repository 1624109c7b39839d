//! Disk geometry: cylinders, tracks, sectors and address arithmetic.
//!
//! The paper's eager-writing analysis is phrased in terms of classic
//! cylinder/track/sector geometry (Table 1 gives sectors per track and
//! tracks per cylinder for both disks), so the simulator exposes that
//! geometry precisely. Multi-zone recording is supported — the paper notes
//! its Seagate model "simulates a single density zone while the actual disk
//! has multiple zones", so the default specs are single-zone, but zoned
//! layouts are available for sensitivity experiments.

use crate::error::{DiskError, Result};

/// A contiguous run of cylinders sharing one sectors-per-track density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// First cylinder of the zone (inclusive).
    pub first_cyl: u32,
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sectors recorded on each track of this zone.
    pub sectors_per_track: u32,
}

impl Zone {
    /// Number of sectors the zone holds given `tracks` heads per cylinder.
    pub(crate) fn sectors(&self, tracks: u32) -> u64 {
        self.cylinders as u64 * tracks as u64 * self.sectors_per_track as u64
    }
}

/// A physical disk address: cylinder, track (head) and sector-within-track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr {
    /// Cylinder number, 0 at the outer edge.
    pub cyl: u32,
    /// Track within the cylinder, i.e. the head that reads it.
    pub track: u32,
    /// Sector within the track.
    pub sector: u32,
}

impl PhysAddr {
    /// Convenience constructor.
    pub const fn new(cyl: u32, track: u32, sector: u32) -> Self {
        Self { cyl, track, sector }
    }
}

/// Full geometry of a simulated disk.
///
/// Logical block addresses (LBAs) map onto the geometry in the conventional
/// order: sectors along a track, then tracks within a cylinder, then
/// cylinders outward-in — the same order in which sequential transfers are
/// cheapest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    tracks_per_cylinder: u32,
    zones: Vec<Zone>,
    /// Cumulative sector count at the start of each zone (same length as
    /// `zones`, plus a final total entry).
    zone_starts: Vec<u64>,
    total_sectors: u64,
    total_cylinders: u32,
}

impl Geometry {
    /// Build a single-zone geometry — the layout both paper disk models use.
    pub fn uniform(cylinders: u32, tracks_per_cylinder: u32, sectors_per_track: u32) -> Self {
        Self::zoned(
            tracks_per_cylinder,
            vec![Zone {
                first_cyl: 0,
                cylinders,
                sectors_per_track,
            }],
        )
    }

    /// Build a multi-zone geometry. Zones must be contiguous from cylinder 0.
    ///
    /// # Panics
    ///
    /// Panics if the zone list is empty, not contiguous, or any dimension is
    /// zero — these are programming errors in test/bench setup, not runtime
    /// conditions.
    pub fn zoned(tracks_per_cylinder: u32, zones: Vec<Zone>) -> Self {
        assert!(!zones.is_empty(), "geometry needs at least one zone");
        assert!(tracks_per_cylinder > 0, "geometry needs at least one track");
        let mut next_cyl = 0u32;
        let mut zone_starts = Vec::with_capacity(zones.len() + 1);
        let mut total = 0u64;
        for z in &zones {
            assert_eq!(z.first_cyl, next_cyl, "zones must be contiguous");
            assert!(
                z.cylinders > 0 && z.sectors_per_track > 0,
                "zone dimensions must be nonzero"
            );
            zone_starts.push(total);
            total += z.sectors(tracks_per_cylinder);
            next_cyl += z.cylinders;
        }
        zone_starts.push(total);
        Self {
            tracks_per_cylinder,
            zones,
            zone_starts,
            total_sectors: total,
            total_cylinders: next_cyl,
        }
    }

    /// Heads (tracks per cylinder).
    #[inline]
    pub fn tracks_per_cylinder(&self) -> u32 {
        self.tracks_per_cylinder
    }

    /// Total number of cylinders.
    #[inline]
    pub fn cylinders(&self) -> u32 {
        self.total_cylinders
    }

    /// Total addressable sectors.
    #[inline]
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors * crate::SECTOR_BYTES as u64
    }

    /// Index of the zone containing `cyl`.
    fn zone_of_cyl(&self, cyl: u32) -> Result<usize> {
        if cyl >= self.total_cylinders {
            return Err(DiskError::OutOfRange {
                addr: cyl as u64,
                limit: self.total_cylinders as u64,
            });
        }
        // Zones are few (usually 1); linear scan is fine and branch-friendly.
        for (i, z) in self.zones.iter().enumerate() {
            if cyl < z.first_cyl + z.cylinders {
                return Ok(i);
            }
        }
        unreachable!("cylinder bounds already checked")
    }

    /// Sectors per track on cylinder `cyl`.
    pub fn sectors_per_track(&self, cyl: u32) -> Result<u32> {
        Ok(self.zones[self.zone_of_cyl(cyl)?].sectors_per_track)
    }

    /// Translate an LBA to its physical location.
    pub fn lba_to_phys(&self, lba: u64) -> Result<PhysAddr> {
        if lba >= self.total_sectors {
            return Err(DiskError::OutOfRange {
                addr: lba,
                limit: self.total_sectors,
            });
        }
        let zi = match self.zone_starts.binary_search(&lba) {
            Ok(i) if i == self.zones.len() => i - 1,
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let z = &self.zones[zi];
        let in_zone = lba - self.zone_starts[zi];
        let per_cyl = z.sectors_per_track as u64 * self.tracks_per_cylinder as u64;
        let cyl = z.first_cyl + (in_zone / per_cyl) as u32;
        let in_cyl = in_zone % per_cyl;
        let track = (in_cyl / z.sectors_per_track as u64) as u32;
        let sector = (in_cyl % z.sectors_per_track as u64) as u32;
        Ok(PhysAddr { cyl, track, sector })
    }

    /// Translate a physical location back to its LBA.
    pub fn phys_to_lba(&self, p: PhysAddr) -> Result<u64> {
        let zi = self.zone_of_cyl(p.cyl)?;
        let z = &self.zones[zi];
        if p.track >= self.tracks_per_cylinder {
            return Err(DiskError::OutOfRange {
                addr: p.track as u64,
                limit: self.tracks_per_cylinder as u64,
            });
        }
        if p.sector >= z.sectors_per_track {
            return Err(DiskError::OutOfRange {
                addr: p.sector as u64,
                limit: z.sectors_per_track as u64,
            });
        }
        let per_cyl = z.sectors_per_track as u64 * self.tracks_per_cylinder as u64;
        Ok(self.zone_starts[zi]
            + (p.cyl - z.first_cyl) as u64 * per_cyl
            + p.track as u64 * z.sectors_per_track as u64
            + p.sector as u64)
    }

    /// First LBA of the given track — useful for whole-track operations such
    /// as the VLD compactor.
    pub fn track_start_lba(&self, cyl: u32, track: u32) -> Result<u64> {
        self.phys_to_lba(PhysAddr {
            cyl,
            track,
            sector: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Geometry {
        Geometry::uniform(4, 2, 8) // 4 cyls, 2 heads, 8 sectors => 64 sectors
    }

    #[test]
    fn uniform_totals() {
        let g = small();
        assert_eq!(g.total_sectors(), 64);
        assert_eq!(g.cylinders(), 4);
        assert_eq!(g.capacity_bytes(), 64 * 512);
        assert_eq!(g.sectors_per_track(3).unwrap(), 8);
    }

    #[test]
    fn lba_roundtrip_uniform() {
        let g = small();
        for lba in 0..g.total_sectors() {
            let p = g.lba_to_phys(lba).unwrap();
            assert_eq!(g.phys_to_lba(p).unwrap(), lba);
        }
    }

    #[test]
    fn lba_order_is_track_then_head_then_cylinder() {
        let g = small();
        assert_eq!(g.lba_to_phys(0).unwrap(), PhysAddr::new(0, 0, 0));
        assert_eq!(g.lba_to_phys(7).unwrap(), PhysAddr::new(0, 0, 7));
        assert_eq!(g.lba_to_phys(8).unwrap(), PhysAddr::new(0, 1, 0));
        assert_eq!(g.lba_to_phys(16).unwrap(), PhysAddr::new(1, 0, 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let g = small();
        assert!(matches!(
            g.lba_to_phys(64),
            Err(DiskError::OutOfRange { .. })
        ));
        assert!(g.phys_to_lba(PhysAddr::new(4, 0, 0)).is_err());
        assert!(g.phys_to_lba(PhysAddr::new(0, 2, 0)).is_err());
        assert!(g.phys_to_lba(PhysAddr::new(0, 0, 8)).is_err());
    }

    #[test]
    fn zoned_roundtrip() {
        let g = Geometry::zoned(
            2,
            vec![
                Zone {
                    first_cyl: 0,
                    cylinders: 2,
                    sectors_per_track: 16,
                },
                Zone {
                    first_cyl: 2,
                    cylinders: 3,
                    sectors_per_track: 8,
                },
            ],
        );
        assert_eq!(g.total_sectors(), 2 * 2 * 16 + 3 * 2 * 8);
        for lba in 0..g.total_sectors() {
            let p = g.lba_to_phys(lba).unwrap();
            assert_eq!(g.phys_to_lba(p).unwrap(), lba);
        }
        // First sector of the inner zone.
        let p = g.lba_to_phys(64).unwrap();
        assert_eq!(p, PhysAddr::new(2, 0, 0));
        assert_eq!(g.sectors_per_track(2).unwrap(), 8);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn zones_must_be_contiguous() {
        let _ = Geometry::zoned(
            1,
            vec![
                Zone {
                    first_cyl: 0,
                    cylinders: 2,
                    sectors_per_track: 4,
                },
                Zone {
                    first_cyl: 3,
                    cylinders: 1,
                    sectors_per_track: 4,
                },
            ],
        );
    }

    #[test]
    fn track_start_lba_matches_phys() {
        let g = small();
        assert_eq!(g.track_start_lba(1, 1).unwrap(), 24);
    }
}
