//! Internal-consistency audit for the virtual log.
//!
//! Crash-point exploration needs a machine-checkable statement of what a
//! *healthy* virtual log looks like, so that a log rebuilt by recovery at
//! every possible power-cut point can be vetted. [`VirtualLog::check_consistency`]
//! verifies, without mutating anything:
//!
//! * the forward map and the reverse map are mutually consistent (a
//!   bijection over mapped blocks);
//! * every live map piece on disk decodes, and matches the in-memory piece
//!   directory (location, sequence) and the in-memory map (entries);
//! * the newest piece is the log root;
//! * the free map agrees exactly with reachability — every sector is
//!   accounted for: allocated if and only if owned by the firmware area,
//!   the checkpoint region, a mapped data block, a live piece block or a
//!   block awaiting deferred release/recycling.

use crate::freemap::{lba_bits, word_masks};
use crate::log::{PieceLoc, VirtualLog, BLOCK_SECTORS};
use crate::mapsector::{MapSector, PIECE_ENTRIES, UNMAPPED};
use crate::tail::FIRMWARE_SECTORS;
use disksim::SECTOR_BYTES;

/// The audit stops describing a broken log after this many complaints.
const MAX_COMPLAINTS: usize = 64;

/// What a sector is owned by, for the accounting pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Owner {
    Firmware,
    Checkpoint,
    Data(u32),
    Piece(u32),
    PendingRecycle,
    DeferredData,
}

impl Owner {
    fn describe(self) -> String {
        match self {
            Owner::Firmware => "firmware area".into(),
            Owner::Checkpoint => "checkpoint region".into(),
            Owner::Data(lb) => format!("data block of lb {lb}"),
            Owner::Piece(p) => format!("map piece {p}"),
            Owner::PendingRecycle => "pending-recycle map block".into(),
            Owner::DeferredData => "deferred-release data block".into(),
        }
    }
}

/// The accounting pass's table: one bit per sector for "owned", and who
/// owns what as the list of sector runs the claims were granted — one
/// entry per claim, so its size follows the live data, not the device.
/// Only a complaint needs to search it.
struct OwnerTable {
    total: u64,
    owned: Vec<u64>,
    runs: Vec<(u64, u64, Owner)>,
}

impl OwnerTable {
    fn new(total: u64) -> Self {
        Self {
            total,
            owned: vec![0; total.div_ceil(64) as usize],
            runs: Vec::new(),
        }
    }

    fn is_owned(&self, sector: u64) -> bool {
        self.owned[(sector / 64) as usize] >> (sector % 64) & 1 == 1
    }

    fn owner(&self, sector: u64) -> Option<Owner> {
        self.runs
            .iter()
            .find(|&&(start, len, _)| (start..start + len).contains(&sector))
            .map(|&(_, _, who)| who)
    }

    /// Give `count` sectors from `lba` to `who`, stopping with a complaint
    /// at the first one beyond the device or already owned.
    fn claim(&mut self, errs: &mut Vec<String>, lba: u64, count: u64, who: Owner) {
        // The part of the run that is on the device, cut at its first
        // sector somebody already owns.
        let on_device = (lba + count).min(self.total).max(lba);
        let clash = flat_masks(lba, on_device).find_map(|(wi, mask)| {
            let taken = self.owned[wi] & mask;
            (taken != 0).then(|| wi as u64 * 64 + taken.trailing_zeros() as u64)
        });
        let end = clash.unwrap_or(on_device);
        for (wi, mask) in flat_masks(lba, end) {
            self.owned[wi] |= mask;
        }
        if let Some(s) = clash {
            let prev = self.owner(s).expect("an owned sector is in a run");
            errs.push(format!(
                "sector {s} claimed by both {} and {}",
                prev.describe(),
                who.describe()
            ));
        } else if end < lba + count {
            errs.push(format!(
                "{} claims sector {end} beyond device",
                who.describe()
            ));
        }
        if end > lba {
            self.runs.push((lba, end - lba, who));
        }
    }
}

/// The `(word index, mask)` pairs covering sectors `start..end` of a flat
/// LBA-indexed bitmap: [`word_masks`] counted from the run's first word.
fn flat_masks(start: u64, end: u64) -> impl Iterator<Item = (usize, u64)> {
    let (first, lo) = ((start / 64) as usize, (start % 64) as u32);
    // Claims are a block, the firmware area or the checkpoint region.
    let len = u32::try_from(end - start).expect("an owner's run is far below 2^32 sectors");
    (len > 0)
        .then(|| word_masks(lo, lo + len))
        .into_iter()
        .flatten()
        .map(move |(wi, mask)| (first + wi, mask))
}

impl VirtualLog {
    /// Audit the log's invariants; returns a human-readable description of
    /// every violation found (empty = consistent). Reads the media via
    /// side-effect-free peeks, so the simulated clock and head do not move.
    pub fn check_consistency(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let cap = |errs: &Vec<String>| errs.len() >= MAX_COMPLAINTS;

        // --- map ↔ rmap bijection ---------------------------------------
        for (lb, pb) in self.state.map.iter().enumerate() {
            if pb == UNMAPPED {
                continue;
            }
            match self.state.rmap.get(pb as usize) {
                Some(&back) if back as usize == lb => {}
                Some(&back) => errs.push(format!(
                    "map[{lb}] = pb {pb}, but rmap[{pb}] = {back}"
                )),
                None => errs.push(format!("map[{lb}] = pb {pb} beyond device")),
            }
            if cap(&errs) {
                return errs;
            }
        }
        for (pb, &lb) in self.state.rmap.iter().enumerate() {
            if lb == UNMAPPED {
                continue;
            }
            match self.state.map.try_get(lb as usize) {
                Some(fwd) if fwd as usize == pb => {}
                Some(fwd) => errs.push(format!(
                    "rmap[{pb}] = lb {lb}, but map[{lb}] = {fwd}"
                )),
                None => errs.push(format!("rmap[{pb}] = lb {lb} beyond capacity")),
            }
            if cap(&errs) {
                return errs;
            }
        }

        // --- on-disk pieces match the directory and the map --------------
        let mut newest: Option<(u32, PieceLoc)> = None;
        for (idx, loc) in self.state.pieces.iter().enumerate() {
            let Some(loc) = *loc else { continue };
            if newest.is_none_or(|(_, n)| loc.seq > n.seq) {
                newest = Some((idx as u32, loc));
            }
            let mut buf = [0u8; SECTOR_BYTES];
            if self.disk.peek_sectors(loc.lba, &mut buf).is_err() {
                errs.push(format!("piece {idx}: lba {} unreadable", loc.lba));
                continue;
            }
            let Some(sector) = MapSector::decode(&buf) else {
                errs.push(format!(
                    "piece {idx}: sector at lba {} does not decode",
                    loc.lba
                ));
                continue;
            };
            if sector.piece != idx as u32 {
                errs.push(format!(
                    "piece {idx}: on-disk sector names piece {}",
                    sector.piece
                ));
            }
            if sector.seq != loc.seq {
                errs.push(format!(
                    "piece {idx}: directory seq {} vs on-disk seq {}",
                    loc.seq, sector.seq
                ));
            }
            let start = idx * PIECE_ENTRIES;
            for (k, &entry) in sector.entries.iter().enumerate() {
                let want = self.state.map.try_get(start + k).unwrap_or(UNMAPPED);
                if entry != want {
                    errs.push(format!(
                        "piece {idx} entry {k} (lb {}): on-disk {entry} vs memory {want}",
                        start + k
                    ));
                    break; // one mismatch per piece is enough signal
                }
            }
            if cap(&errs) {
                return errs;
            }
        }

        // --- the newest piece is the root --------------------------------
        match (self.state.root, newest) {
            (Some((lba, seq)), Some((idx, loc))) => {
                if loc.seq != seq || loc.lba != lba {
                    errs.push(format!(
                        "root is (lba {lba}, seq {seq}) but newest piece {idx} \
                         is (lba {}, seq {})",
                        loc.lba, loc.seq
                    ));
                }
            }
            (Some((lba, seq)), None) => errs.push(format!(
                "root is (lba {lba}, seq {seq}) but no piece is live"
            )),
            (None, Some((idx, _))) => {
                errs.push(format!("no root, but piece {idx} is live"))
            }
            (None, None) => {}
        }

        // --- free map agrees with reachability ---------------------------
        let g = &self.disk.spec().geometry;
        let mut owners = OwnerTable::new(g.total_sectors());
        owners.claim(&mut errs, 0, FIRMWARE_SECTORS, Owner::Firmware);
        owners.claim(
            &mut errs,
            self.state.ckpt_region.slot_a,
            self.state.ckpt_region.end() - self.state.ckpt_region.slot_a,
            Owner::Checkpoint,
        );
        let bs = BLOCK_SECTORS as u64;
        for (lb, pb) in self.state.map.iter().enumerate() {
            if pb != UNMAPPED {
                owners.claim(&mut errs, pb as u64 * bs, bs, Owner::Data(lb as u32));
            }
        }
        for (idx, loc) in self.state.pieces.iter().enumerate() {
            if let Some(loc) = loc {
                owners.claim(&mut errs, loc.lba, bs, Owner::Piece(idx as u32));
            }
        }
        for &lba in &self.state.pending_recycle {
            owners.claim(&mut errs, lba, bs, Owner::PendingRecycle);
        }
        for &pb in &self.state.deferred_blocks {
            owners.claim(&mut errs, pb as u64 * bs, bs, Owner::DeferredData);
        }
        if cap(&errs) {
            return errs;
        }
        // LBAs run cylinder by cylinder, track by track, sector by sector,
        // so the walk needs no address translation: `s` is the LBA of the
        // track's sector 0, and the track's owner bits start there.
        let mut s = 0u64;
        for cyl in 0..g.cylinders() {
            let spt = g.sectors_per_track(cyl).expect("cylinder within geometry");
            for track in 0..g.tracks_per_cylinder() {
                let words = self
                    .state
                    .free
                    .words(self.state.free.track_index(cyl, track));
                // Free exactly where unowned, a word at a time; only a track
                // that disagrees somewhere is walked sector by sector.
                let agrees = word_masks(0, spt).all(|(wi, valid)| {
                    words[wi] == !lba_bits(&owners.owned, s + wi as u64 * 64) & valid
                });
                if !agrees {
                    Self::freemap_complaints(&mut errs, &owners, words, s, spt);
                    if cap(&errs) {
                        return errs;
                    }
                }
                s += spt as u64;
            }
        }
        errs
    }

    /// One track of the free-map walk, sector by sector: a complaint for
    /// every sector (LBA `base` onward) that is free though owned or
    /// allocated though unowned, up to the complaint cap.
    fn freemap_complaints(
        errs: &mut Vec<String>,
        owners: &OwnerTable,
        words: &[u64],
        base: u64,
        spt: u32,
    ) {
        for sector in 0..spt {
            let s = base + sector as u64;
            let free = words[sector as usize / 64] >> (sector % 64) & 1 == 1;
            if free == owners.is_owned(s) {
                errs.push(match owners.owner(s) {
                    Some(who) => {
                        format!("sector {s} is owned ({}) but marked free", who.describe())
                    }
                    None => format!("sector {s} is allocated but unreachable"),
                });
                if errs.len() >= MAX_COMPLAINTS {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocConfig;
    use crate::log::BLOCK_BYTES;
    use disksim::{Disk, DiskSpec, SimClock};

    fn fresh() -> VirtualLog {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default())
    }

    #[test]
    fn fresh_and_busy_logs_are_consistent() {
        let v = fresh();
        assert_eq!(v.check_consistency(), Vec::<String>::new());
        let mut v = fresh();
        for lb in 0..200u64 {
            v.write(lb, &vec![lb as u8; BLOCK_BYTES]).unwrap();
        }
        for lb in (0..200u64).step_by(3) {
            v.write(lb, &vec![7u8; BLOCK_BYTES]).unwrap();
        }
        for lb in (0..200u64).step_by(7) {
            v.trim(lb).unwrap();
        }
        v.checkpoint().unwrap();
        assert_eq!(v.check_consistency(), Vec::<String>::new());
    }

    #[test]
    fn audit_detects_broken_bijection() {
        let mut v = fresh();
        v.write(0, &vec![1u8; BLOCK_BYTES]).unwrap();
        let pb = v.translate(0).unwrap();
        v.state.rmap[pb as usize] = 12345;
        let errs = v.check_consistency();
        assert!(!errs.is_empty());
        assert!(errs.iter().any(|e| e.contains("rmap")), "{errs:?}");
    }

    /// The free-map pass walks tracks instead of translating each LBA; on
    /// a zoned disk (the sectors-per-track changes mid-walk) every
    /// complaint must still name the right LBA and owner, in LBA order.
    #[test]
    fn freemap_complaints_name_lba_and_owner_in_lba_order() {
        use disksim::{Geometry, Zone};
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        let zone = |first_cyl, cylinders, sectors_per_track| Zone {
            first_cyl,
            cylinders,
            sectors_per_track,
        };
        spec.geometry = Geometry::zoned(4, vec![zone(0, 6, 96), zone(6, 10, 64)]);
        let mut v = VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default());
        v.write(0, &vec![1u8; BLOCK_BYTES]).unwrap();
        assert_eq!(v.check_consistency(), Vec::<String>::new());

        let g = v.disk.spec().geometry.clone();
        // Free lb 0's block behind the log's back, and allocate the last
        // sector of the inner zone.
        let block = v.translate(0).unwrap() * BLOCK_SECTORS as u64;
        let p = g.lba_to_phys(block).unwrap();
        v.state
            .free
            .release(p.cyl, p.track, p.sector, BLOCK_SECTORS)
            .unwrap();
        let last = g.total_sectors() - 1;
        let p = g.lba_to_phys(last).unwrap();
        assert_eq!((p.cyl, p.sector), (15, 63), "inner zone");
        v.state.free.allocate(p.cyl, p.track, p.sector, 1).unwrap();

        let mut want: Vec<String> = (block..block + BLOCK_SECTORS as u64)
            .map(|s| format!("sector {s} is owned (data block of lb 0) but marked free"))
            .collect();
        want.push(format!("sector {last} is allocated but unreachable"));
        assert_eq!(v.check_consistency(), want);

        // A second claim on the block is refused at its first sector, names
        // the first claimant, and leaves the block with it.
        v.state.pending_recycle.push(block);
        want.insert(
            0,
            format!(
                "sector {block} claimed by both data block of lb 0 and pending-recycle map block"
            ),
        );
        assert_eq!(v.check_consistency(), want);
    }

    impl OwnerTable {
        /// The per-sector `claim` the word-mask one replaced, kept as its
        /// oracle: test, complain or set one bit at a time.
        fn claim_per_sector(&mut self, errs: &mut Vec<String>, lba: u64, count: u64, who: Owner) {
            let mut granted = count;
            for s in lba..lba + count {
                if s >= self.total {
                    errs.push(format!(
                        "{} claims sector {s} beyond device",
                        who.describe()
                    ));
                    granted = s - lba;
                    break;
                }
                if self.is_owned(s) {
                    let prev = self.owner(s).expect("an owned sector is in a run");
                    errs.push(format!(
                        "sector {s} claimed by both {} and {}",
                        prev.describe(),
                        who.describe()
                    ));
                    granted = s - lba;
                    break;
                }
                self.owned[(s / 64) as usize] |= 1 << (s % 64);
            }
            if granted > 0 {
                self.runs.push((lba, granted, who));
            }
        }
    }

    /// The accounting pass as first written — per-sector claims, then the
    /// sector-by-sector walk over every track of the device, agreeing or
    /// not — kept as the oracle of the word-compare pass.
    fn accounting_per_sector(v: &VirtualLog) -> Vec<String> {
        let mut errs = Vec::new();
        let g = &v.disk.spec().geometry;
        let mut owners = OwnerTable::new(g.total_sectors());
        owners.claim_per_sector(&mut errs, 0, FIRMWARE_SECTORS, Owner::Firmware);
        owners.claim_per_sector(
            &mut errs,
            v.state.ckpt_region.slot_a,
            v.state.ckpt_region.end() - v.state.ckpt_region.slot_a,
            Owner::Checkpoint,
        );
        let bs = BLOCK_SECTORS as u64;
        for (lb, pb) in v.state.map.iter().enumerate() {
            if pb != UNMAPPED {
                owners.claim_per_sector(&mut errs, pb as u64 * bs, bs, Owner::Data(lb as u32));
            }
        }
        for (idx, loc) in v.state.pieces.iter().enumerate() {
            if let Some(loc) = loc {
                owners.claim_per_sector(&mut errs, loc.lba, bs, Owner::Piece(idx as u32));
            }
        }
        for &lba in &v.state.pending_recycle {
            owners.claim_per_sector(&mut errs, lba, bs, Owner::PendingRecycle);
        }
        for &pb in &v.state.deferred_blocks {
            owners.claim_per_sector(&mut errs, pb as u64 * bs, bs, Owner::DeferredData);
        }
        if errs.len() >= MAX_COMPLAINTS {
            return errs;
        }
        let mut s = 0u64;
        for cyl in 0..g.cylinders() {
            let spt = g.sectors_per_track(cyl).expect("cylinder within geometry");
            for track in 0..g.tracks_per_cylinder() {
                let words = v.state.free.words(v.state.free.track_index(cyl, track));
                VirtualLog::freemap_complaints(&mut errs, &owners, words, s, spt);
                if errs.len() >= MAX_COMPLAINTS {
                    return errs;
                }
                s += spt as u64;
            }
        }
        errs
    }

    /// Free maps and owner sets damaged at random — stray allocations and
    /// releases of one sector to a whole track, recycle and deferred lists
    /// naming owned blocks, unaligned sectors and blocks beyond the device —
    /// draw the same complaints, in the same order and under the same cap,
    /// from the word-compare pass and the per-sector one. Nothing else is
    /// damaged, so the accounting complaints are the whole audit.
    #[test]
    fn word_compare_accounting_matches_the_per_sector_walk() {
        use disksim::{Geometry, Zone};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let zone = |first_cyl, cylinders, sectors_per_track| Zone {
            first_cyl,
            cylinders,
            sectors_per_track,
        };
        let geometries = [
            DiskSpec::hp97560_sim().geometry,
            // Sectors per track that change mid-walk: whole blocks (the log
            // needs that) but not whole words, and more than two words.
            Geometry::zoned(4, vec![zone(0, 5, 96), zone(5, 9, 72), zone(14, 6, 136)]),
        ];
        let mut rng = StdRng::seed_from_u64(0xA0D1_7000);
        let mut capped = 0;
        for (round, geometry) in (0..40).map(|r| (r, geometries[r % 2].clone())) {
            let mut spec = DiskSpec::hp97560_sim();
            spec.command_overhead_ns = 0;
            spec.geometry = geometry;
            let g = spec.geometry.clone();
            let mut v =
                VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default());
            for lb in 0..rng.gen_range(1..120u64) {
                v.write(lb, &vec![lb as u8; BLOCK_BYTES]).unwrap();
            }
            assert_eq!(v.check_consistency(), Vec::<String>::new(), "round {round}");
            assert_eq!(
                accounting_per_sector(&v),
                Vec::<String>::new(),
                "round {round}"
            );

            let total = g.total_sectors();
            // Light damage on most rounds, enough to hit the cap on some.
            for _ in 0..rng.gen_range(0..if round % 4 == 3 { 30 } else { 4 }) {
                let p = g.lba_to_phys(rng.gen_range(0..total)).unwrap();
                let spt = g.sectors_per_track(p.cyl).unwrap();
                let n = match rng.gen_range(0..3) {
                    0 => 1,
                    1 => rng.gen_range(1..=(spt - p.sector).min(12)),
                    _ => spt - p.sector,
                };
                if rng.gen_bool(0.5) {
                    v.state.free.allocate(p.cyl, p.track, p.sector, n).unwrap();
                } else {
                    v.state.free.release(p.cyl, p.track, p.sector, n).unwrap();
                }
            }
            for _ in 0..rng.gen_range(0..3) {
                // Up to a block past the end: claims that start on the
                // device and run off it, and ones that start beyond it.
                v.state
                    .pending_recycle
                    .push(rng.gen_range(0..total + BLOCK_SECTORS as u64));
            }
            for _ in 0..rng.gen_range(0..3) {
                let blocks = (total / BLOCK_SECTORS as u64) as u32;
                v.state.deferred_blocks.push(rng.gen_range(0..blocks + 2));
            }
            let got = v.check_consistency();
            assert_eq!(got, accounting_per_sector(&v), "round {round}");
            capped += (got.len() >= MAX_COMPLAINTS) as usize;
        }
        assert!(capped > 0, "no round reached the complaint cap");
    }

    #[test]
    fn audit_detects_freemap_leak() {
        let mut v = fresh();
        v.write(0, &vec![1u8; BLOCK_BYTES]).unwrap();
        // Allocate an unowned sector behind the log's back.
        let g = v.disk.spec().geometry.clone();
        let total = g.total_sectors();
        let p = g.lba_to_phys(total - 1).unwrap();
        if v.state.free.is_free(p.cyl, p.track, p.sector) {
            v.state.free.allocate(p.cyl, p.track, p.sector, 1).unwrap();
        }
        let errs = v.check_consistency();
        assert!(
            errs.iter().any(|e| e.contains("unreachable")),
            "{errs:?}"
        );
    }
}
