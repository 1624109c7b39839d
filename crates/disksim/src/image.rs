//! Disk-image persistence: save and load the sector store.
//!
//! The simulator's state is otherwise in-memory only; images let tools and
//! tests move a "drive" between processes — e.g. crash a VLD in one run and
//! recover it in another, or keep fixture volumes on disk.
//!
//! Format (little-endian): magic `"VDSK"`, version, geometry dimensions
//! (validated against the spec on load), then the materialised tracks as
//! `(cyl, track, raw bytes)` triples. Untouched (all-zero) tracks are not
//! stored.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{self, Read, Write};

use crate::clock::SimClock;
use crate::codec::{get_u16, get_u32, put_u16, put_u32};
use crate::disk::Disk;
use crate::spec::DiskSpec;
use crate::SECTOR_BYTES;

const IMAGE_MAGIC: &[u8; 4] = b"VDSK";
const IMAGE_VERSION: u16 = 1;
/// Header bytes after the magic: version, cylinders, tracks per cylinder,
/// track count.
const HEADER_BYTES: usize = 14;

/// Any failure to make sense of an image, or of the disk behind it.
fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Disk {
    /// Write the disk's contents as an image.
    pub fn save_image<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let g = &self.spec().geometry;
        let tracks = self.materialised_tracks();
        let mut header = [0u8; HEADER_BYTES];
        put_u16(&mut header, 0, IMAGE_VERSION);
        put_u32(&mut header, 2, g.cylinders());
        put_u32(&mut header, 6, g.tracks_per_cylinder());
        put_u32(&mut header, 10, tracks.len() as u32);
        w.write_all(IMAGE_MAGIC)?;
        w.write_all(&header)?;
        for (cyl, track) in tracks {
            let spt = g.sectors_per_track(cyl).map_err(invalid)?;
            let mut buf = vec![0u8; spt as usize * SECTOR_BYTES];
            let start = g.track_start_lba(cyl, track).map_err(invalid)?;
            self.peek_sectors(start, &mut buf).map_err(invalid)?;
            let mut at = [0u8; 8];
            put_u32(&mut at, 0, cyl);
            put_u32(&mut at, 4, track);
            w.write_all(&at)?;
            w.write_all(&buf)?;
        }
        Ok(())
    }

    /// Load an image saved by [`Disk::save_image`] onto a fresh disk of the
    /// given spec. Fails if the image's geometry does not match.
    pub fn load_image<R: Read>(spec: DiskSpec, clock: SimClock, r: &mut R) -> io::Result<Disk> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != IMAGE_MAGIC {
            return Err(invalid("not a disk image"));
        }
        let mut header = [0u8; HEADER_BYTES];
        r.read_exact(&mut header)?;
        if get_u16(&header, 0).map_err(invalid)? != IMAGE_VERSION {
            return Err(invalid("unknown image version"));
        }
        let cyls = get_u32(&header, 2).map_err(invalid)?;
        let tpc = get_u32(&header, 6).map_err(invalid)?;
        if cyls != spec.geometry.cylinders() || tpc != spec.geometry.tracks_per_cylinder() {
            return Err(invalid("image geometry does not match the spec"));
        }
        let mut disk = Disk::new(spec, clock);
        for _ in 0..get_u32(&header, 10).map_err(invalid)? {
            let mut at = [0u8; 8];
            r.read_exact(&mut at)?;
            let cyl = get_u32(&at, 0).map_err(invalid)?;
            let track = get_u32(&at, 4).map_err(invalid)?;
            let g = &disk.spec().geometry;
            let spt = g.sectors_per_track(cyl).map_err(invalid)?;
            let start = g.track_start_lba(cyl, track).map_err(invalid)?;
            let mut buf = vec![0u8; spt as usize * SECTOR_BYTES];
            r.read_exact(&mut buf)?;
            disk.poke_sectors(start, &buf).map_err(invalid)?;
        }
        Ok(disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_round_trip() {
        let mut d = Disk::new(DiskSpec::st19101_sim(), SimClock::new());
        d.write_sectors(100, &vec![0xABu8; 8 * SECTOR_BYTES])
            .unwrap();
        d.write_sectors(9000, &vec![0xCDu8; SECTOR_BYTES]).unwrap();
        let mut img = Vec::new();
        d.save_image(&mut img).unwrap();
        let d2 = Disk::load_image(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            &mut img.as_slice(),
        )
        .unwrap();
        for (lba, len, fill) in [(100u64, 8usize, 0xABu8), (9000, 1, 0xCD), (0, 4, 0)] {
            let mut buf = vec![0xFFu8; len * SECTOR_BYTES];
            d2.peek_sectors(lba, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == fill), "lba {lba}");
        }
    }

    #[test]
    fn sparse_tracks_stay_sparse() {
        let mut d = Disk::new(DiskSpec::st19101_sim(), SimClock::new());
        d.write_sectors(0, &vec![1u8; SECTOR_BYTES]).unwrap();
        let mut img = Vec::new();
        d.save_image(&mut img).unwrap();
        // One track of payload plus a small header — far less than the
        // 23 MB capacity.
        assert!(img.len() < 256 * SECTOR_BYTES + 64);
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let d = Disk::new(DiskSpec::st19101_sim(), SimClock::new());
        let mut img = Vec::new();
        d.save_image(&mut img).unwrap();
        let err = Disk::load_image(
            DiskSpec::hp97560_sim(),
            SimClock::new(),
            &mut img.as_slice(),
        );
        assert!(err.is_err());
    }

    /// The header is the documented layout, and every truncation of an
    /// image is an error rather than a panic or a short disk.
    #[test]
    fn header_layout_and_truncations() {
        let mut d = Disk::new(DiskSpec::hp97560_sim(), SimClock::new());
        d.write_sectors(0, &[7u8; SECTOR_BYTES]).unwrap();
        let mut img = Vec::new();
        d.save_image(&mut img).unwrap();
        let g = &d.spec().geometry;
        let mut want = b"VDSK\x01\x00".to_vec();
        for v in [g.cylinders(), g.tracks_per_cylinder(), 1, 0, 0] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(img[..want.len()], want[..]);
        for len in (0..want.len()).chain([img.len() - 1]) {
            let cut = Disk::load_image(DiskSpec::hp97560_sim(), SimClock::new(), &mut &img[..len]);
            assert!(cut.is_err(), "len {len}");
        }
    }

    #[test]
    fn garbage_rejected() {
        let err = Disk::load_image(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            &mut &b"not an image"[..],
        );
        assert!(err.is_err());
    }

    /// Round-trip property over seeded sparse workloads: random block
    /// writes and trims through the block layer, then save → load must
    /// reproduce the sector store byte-for-byte — same materialised
    /// tracks, same contents, untouched space still reads as zeros.
    #[test]
    fn property_round_trip_random_sparse_writes_and_trims() {
        use crate::device::{BlockDevice, RegularDisk};
        const BS: usize = 4096;
        for seed in 0..6u64 {
            let mut dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BS);
            let span = dev.num_blocks();
            let mut touched = Vec::new();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..300 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let blk = (x >> 16) % span;
                match x % 4 {
                    // Trim a previously written block (a no-op on an
                    // update-in-place disk, but part of the op mix: it must
                    // never perturb the image).
                    0 if !touched.is_empty() => {
                        let victim = touched[(x >> 32) as usize % touched.len()];
                        dev.trim(victim).unwrap();
                    }
                    _ => {
                        dev.write_block(blk, &vec![(x >> 24) as u8; BS]).unwrap();
                        touched.push(blk);
                    }
                }
            }
            let mut img = Vec::new();
            dev.disk_mut().save_image(&mut img).unwrap();
            let copy = Disk::load_image(
                DiskSpec::st19101_sim(),
                SimClock::new(),
                &mut img.as_slice(),
            )
            .unwrap();
            // Sparseness is preserved exactly, and every materialised
            // track is byte-identical.
            assert_eq!(
                dev.disk_mut().materialised_tracks(),
                copy.materialised_tracks(),
                "seed {seed}: materialised track set drifted"
            );
            let g = &copy.spec().geometry;
            for (cyl, track) in dev.disk_mut().materialised_tracks() {
                let spt = g.sectors_per_track(cyl).unwrap() as usize;
                let start = g.track_start_lba(cyl, track).unwrap();
                let mut a = vec![0u8; spt * SECTOR_BYTES];
                let mut b = vec![0u8; spt * SECTOR_BYTES];
                dev.disk_mut().peek_sectors(start, &mut a).unwrap();
                copy.peek_sectors(start, &mut b).unwrap();
                assert_eq!(a, b, "seed {seed}: track ({cyl},{track}) differs");
            }
            // A block the workload never wrote still reads as zeros.
            let untouched = (0..span)
                .find(|b| !touched.contains(b))
                .expect("workload cannot fill the disk");
            let mut z = vec![0xFFu8; BS];
            copy.peek_sectors(untouched * (BS / SECTOR_BYTES) as u64, &mut z)
                .unwrap();
            assert!(z.iter().all(|&b| b == 0), "seed {seed}: ghost data");
        }
    }

    #[test]
    fn heavy_workload_image_fidelity() {
        // Image fidelity under a scattered write-through workload (the
        // vlog-core integration tests exercise crash recovery on top).
        let mut d = Disk::new(DiskSpec::st19101_sim(), SimClock::new());
        for i in 0..2000u64 {
            d.write_sectors((i * 37) % 40000, &vec![i as u8; SECTOR_BYTES])
                .unwrap();
        }
        let mut img = Vec::new();
        d.save_image(&mut img).unwrap();
        let d2 = Disk::load_image(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            &mut img.as_slice(),
        )
        .unwrap();
        for i in (0..2000u64).step_by(111) {
            let mut a = vec![0u8; SECTOR_BYTES];
            let mut b = vec![0u8; SECTOR_BYTES];
            d.peek_sectors((i * 37) % 40000, &mut a).unwrap();
            d2.peek_sectors((i * 37) % 40000, &mut b).unwrap();
            assert_eq!(a, b);
        }
    }
}
