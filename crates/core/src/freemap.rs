//! Sector-granularity free-space accounting, organised by track.
//!
//! Eager writing is all about knowing, cheaply, which sectors near the head
//! are free. [`FreeMap`] keeps one flat bitmap (each track a run of whole
//! words) plus per-track free counts and free-slot masks, so the allocator
//! can ask:
//!
//! * is this sector (or 8-sector-aligned block) free?
//! * how full is this track? (drives the fill-to-threshold policy of §2.3)
//! * which tracks are completely empty? (the compactor's output pool)
//!
//! The map is an in-memory structure; after a crash it is reconstructed from
//! the recovered indirection map (everything not live is free).

use disksim::{Geometry, Result};

/// The block alignment the hierarchical index tracks exactly: the paper's
/// 4 KB block is 8 sectors, and 8 divides the 64-bit bitmap word, so an
/// aligned slot is one byte of a word.
pub const INDEX_ALIGN: u32 = 8;

/// The widest track a [`FreeMap`] takes: one free-slot mask bit per
/// [`INDEX_ALIGN`]-aligned slot, 64 slots.
pub(crate) const MAX_SECTORS_PER_TRACK: u32 = 64 * INDEX_ALIGN;

/// Fixed-point scale of the utilization key. Two distinct track
/// utilizations `a/s1 != b/s2` differ by at least `1/(s1*s2)`, so with
/// `s <= 2^(SHIFT/2)` sectors per track the scaled keys differ by ≥ 1 and
/// integer truncation preserves the exact rational order (equal fractions
/// still collide, which is what the track-index tie-break is for).
const UTIL_KEY_SHIFT: u32 = 20;

/// Bitmapped free-sector map over an entire disk.
#[derive(Debug, Clone)]
pub struct FreeMap {
    /// Every track's bitmap words, concatenated in global track order: one
    /// allocation, so a clone is a memcpy and a figure-sized map (≈ 6 KB)
    /// stays in L1. Bits beyond a track's end are always zero.
    bits: Vec<u64>,
    /// Track `ti` owns `bits[word_off[ti]..word_off[ti + 1]]`.
    word_off: Vec<u32>,
    /// Free sectors per track.
    free_count: Vec<u32>,
    /// Sectors per track, per global track (varies across zones).
    spt: Vec<u32>,
    /// Tracks per cylinder, for global-track indexing.
    tracks_per_cyl: u32,
    /// Total free sectors.
    total_free: u64,
    /// Total sectors.
    total: u64,
    /// Number of completely empty tracks.
    empty_tracks: u32,
    /// Free sectors per cylinder (summary over the cylinder's tracks).
    cyl_free: Vec<u64>,
    /// Per track, bit `k` set iff [`INDEX_ALIGN`]-aligned slot `k` is
    /// wholly free.
    slot_mask: Vec<u64>,
    /// Free [`INDEX_ALIGN`]-aligned slots per cylinder.
    cyl_aligned: Vec<u32>,
    /// Completely empty tracks per cylinder.
    cyl_empty: Vec<u32>,
}

/// The `(word index, mask)` pairs covering sectors `start..end` of one
/// track's bitmap, `start < end`: one mask per touched 64-bit word.
#[inline]
pub(crate) fn word_masks(start: u32, end: u32) -> impl Iterator<Item = (usize, u64)> {
    let (first, last) = (start / 64, (end - 1) / 64);
    (first..=last).map(move |wi| {
        let lo = if wi == first { start % 64 } else { 0 };
        let hi = if wi == last { (end - 1) % 64 } else { 63 };
        (wi as usize, (u64::MAX << lo) & (u64::MAX >> (63 - hi)))
    })
}

/// The 64 bits of a flat LBA-indexed bitmap (bit `lba` of `flat[lba / 64]`)
/// that start at bit `lba`, stitched from the two words they straddle: how
/// one word of a track's bitmap is cut out of a whole-device one. Bits past
/// the end of `flat` read as zero.
#[inline]
pub(crate) fn lba_bits(flat: &[u64], lba: u64) -> u64 {
    let (q, r) = ((lba / 64) as usize, (lba % 64) as u32);
    let lo = flat.get(q).copied().unwrap_or(0) >> r;
    let hi = if r == 0 {
        0
    } else {
        flat.get(q + 1).copied().unwrap_or(0) << (64 - r)
    };
    lo | hi
}

impl FreeMap {
    /// Build a map with every sector free.
    ///
    /// # Panics
    /// If a track is wider than its free-slot mask, 64 slots of
    /// [`INDEX_ALIGN`] sectors (512 sectors).
    pub fn new(geometry: &Geometry) -> Self {
        let tracks_per_cyl = geometry.tracks_per_cylinder();
        let n_tracks = geometry.cylinders() as usize * tracks_per_cyl as usize;
        // Each track wastes less than one word, so this never regrows.
        let mut bits = Vec::with_capacity((geometry.total_sectors() / 64) as usize + n_tracks);
        let mut word_off = Vec::with_capacity(n_tracks + 1);
        let mut spt_v = Vec::with_capacity(n_tracks);
        for cyl in 0..geometry.cylinders() {
            let spt = geometry
                .sectors_per_track(cyl)
                .expect("cylinder in range by construction");
            assert!(spt <= MAX_SECTORS_PER_TRACK, "too wide: {spt} sectors");
            for _ in 0..tracks_per_cyl {
                word_off.push(bits.len() as u32);
                bits.extend(word_masks(0, spt).map(|(_, mask)| mask));
                spt_v.push(spt);
            }
        }
        word_off.push(bits.len() as u32);
        let n_cyls = geometry.cylinders() as usize;
        let mut map = Self {
            bits,
            word_off,
            free_count: vec![0; n_tracks],
            spt: spt_v,
            tracks_per_cyl,
            total_free: 0,
            total: geometry.total_sectors(),
            empty_tracks: 0,
            cyl_free: vec![0; n_cyls],
            slot_mask: vec![0; n_tracks],
            cyl_aligned: vec![0; n_cyls],
            cyl_empty: vec![0; n_cyls],
        };
        map.rebuild_summaries();
        map
    }

    /// Fixed-point utilization key of a track with `free` of `spt` sectors
    /// free; see [`UTIL_KEY_SHIFT`] for why truncation is order-exact.
    #[inline]
    fn util_key(spt: u32, free: u32) -> u64 {
        debug_assert!(spt <= 1 << (UTIL_KEY_SHIFT / 2));
        (((spt - free) as u64) << UTIL_KEY_SHIFT) / spt as u64
    }

    /// Global track index for (cylinder, track).
    #[inline]
    pub fn track_index(&self, cyl: u32, track: u32) -> usize {
        cyl as usize * self.tracks_per_cyl as usize + track as usize
    }

    /// The bitmap words of global track `ti`.
    #[inline]
    pub(crate) fn words(&self, ti: usize) -> &[u64] {
        &self.bits[self.word_off[ti] as usize..self.word_off[ti + 1] as usize]
    }

    /// Sectors per track at this global track index.
    #[inline]
    pub fn sectors_per_track(&self, ti: usize) -> u32 {
        self.spt[ti]
    }

    /// Total sectors under management.
    #[inline]
    pub fn total_sectors(&self) -> u64 {
        self.total
    }

    /// Free sectors remaining.
    #[inline]
    pub fn free_sectors(&self) -> u64 {
        self.total_free
    }

    /// Fraction of sectors in use, 0.0–1.0.
    pub fn utilization(&self) -> f64 {
        1.0 - self.total_free as f64 / self.total as f64
    }

    /// Number of completely empty tracks.
    #[inline]
    pub fn empty_tracks(&self) -> u32 {
        self.empty_tracks
    }

    /// Free sectors on the given track.
    #[inline]
    pub fn free_in_track(&self, cyl: u32, track: u32) -> u32 {
        self.free_count[self.track_index(cyl, track)]
    }

    /// Is the single sector at (cyl, track, sector) free?
    pub fn is_free(&self, cyl: u32, track: u32, sector: u32) -> bool {
        let ti = self.track_index(cyl, track);
        debug_assert!(sector < self.spt[ti]);
        self.words(ti)[sector as usize / 64] >> (sector % 64) & 1 == 1
    }

    /// Are all `count` sectors starting at `sector` on this track free?
    pub fn run_free(&self, cyl: u32, track: u32, sector: u32, count: u32) -> bool {
        let words = self.words(self.track_index(cyl, track));
        count == 0 || word_masks(sector, sector + count).all(|(wi, mask)| words[wi] & mask == mask)
    }

    /// SWAR reduction of one bitmap word to a flag per byte: bit `8k` of
    /// the result is set iff byte `k` of `w` is `0xFF`, i.e. iff aligned
    /// slot `k` of the word is entirely free. Bits beyond the track end are
    /// zero by construction, so invalid tail slots can never read as free.
    #[inline]
    fn free_slot_bits(w: u64) -> u64 {
        let m = w & (w >> 4);
        let m = m & (m >> 2);
        (m & (m >> 1)) & 0x0101_0101_0101_0101
    }

    /// Byte `wi` of a track's free-slot mask, from its bitmap word `wi`:
    /// the word's [`Self::free_slot_bits`] gathered into one byte (the
    /// multiply moves bit `8k` to bit `56 + k` without carries) and put in
    /// place.
    #[inline]
    fn slot_byte(wi: usize, w: u64) -> u64 {
        (Self::free_slot_bits(w).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * wi)
    }

    /// Flip sectors `sector..sector + count` of one track to `free`, a
    /// word at a time: the sectors that actually change are the set bits of
    /// `before ^ after`, and each touched word's byte of the track's
    /// free-slot mask is recomputed.
    fn set(&mut self, cyl: u32, track: u32, sector: u32, count: u32, free: bool) -> Result<()> {
        let ti = self.track_index(cyl, track);
        let spt = self.spt[ti];
        let Some(end) = sector.checked_add(count).filter(|&end| end <= spt) else {
            return Err(disksim::DiskError::OutOfRange {
                addr: sector as u64 + count as u64,
                limit: spt as u64,
            });
        };
        if count == 0 {
            return Ok(());
        }
        let base = self.word_off[ti] as usize;
        let (mut changed, before) = (0u32, self.slot_mask[ti]);
        let mut after = before;
        for (wi, mask) in word_masks(sector, end) {
            let w = &mut self.bits[base + wi];
            let was = *w;
            *w = if free { was | mask } else { was & !mask };
            changed += (was ^ *w).count_ones();
            after = after & !Self::slot_byte(wi, u64::MAX) | Self::slot_byte(wi, *w);
        }
        if changed == 0 {
            return Ok(());
        }
        let cyl = cyl as usize;
        self.slot_mask[ti] = after;
        self.cyl_aligned[cyl] = self.cyl_aligned[cyl] + after.count_ones() - before.count_ones();
        let was_empty = self.free_count[ti] == spt;
        if free {
            self.free_count[ti] += changed;
            self.total_free += changed as u64;
            self.cyl_free[cyl] += changed as u64;
        } else {
            self.free_count[ti] -= changed;
            self.total_free -= changed as u64;
            self.cyl_free[cyl] -= changed as u64;
        }
        match (was_empty, self.free_count[ti] == spt) {
            (true, false) => {
                self.empty_tracks -= 1;
                self.cyl_empty[cyl] -= 1;
            }
            (false, true) => {
                self.empty_tracks += 1;
                self.cyl_empty[cyl] += 1;
            }
            _ => {}
        }
        Ok(())
    }

    /// Mark sectors in use. Idempotent.
    pub fn allocate(&mut self, cyl: u32, track: u32, sector: u32, count: u32) -> Result<()> {
        self.set(cyl, track, sector, count, false)
    }

    /// Mark sectors free. Idempotent.
    pub fn release(&mut self, cyl: u32, track: u32, sector: u32, count: u32) -> Result<()> {
        self.set(cyl, track, sector, count, true)
    }

    /// Mark every sector whose bit is set in `used` as allocated, in one
    /// pass. `used` is a flat LBA-indexed bitmap (bit `lba` of
    /// `used[lba / 64]`); LBAs enumerate `(cyl, track, sector)` in
    /// lexicographic order, so each track is a contiguous bit range that is
    /// stitched into the track's words with two shifts. Summaries are
    /// rebuilt once at the end instead of being maintained per sector,
    /// which is what makes this O(total/64) rather than O(total · log).
    /// Equivalent to calling [`FreeMap::allocate`] for each set bit.
    pub fn allocate_bulk(&mut self, used: &[u64]) {
        let mut base = 0u64; // LBA of this track's sector 0
        for ti in 0..self.spt.len() {
            let words = self.word_off[ti] as usize..self.word_off[ti + 1] as usize;
            for (wi, w) in self.bits[words].iter_mut().enumerate() {
                // Clearing positions beyond the track end is harmless: those
                // bits are already zero by construction.
                *w &= !lba_bits(used, base + wi as u64 * 64);
            }
            base += self.spt[ti] as u64;
        }
        self.rebuild_summaries();
    }

    /// Recompute every summary (counts, per-cylinder rollups) from the
    /// bitmap: at construction and after a bulk mutation.
    fn rebuild_summaries(&mut self) {
        let tracks_per_cyl = self.tracks_per_cyl as usize;
        self.total_free = 0;
        self.empty_tracks = 0;
        self.cyl_free.fill(0);
        self.cyl_aligned.fill(0);
        self.cyl_empty.fill(0);
        for ti in 0..self.spt.len() {
            let cyl = ti / tracks_per_cyl;
            let words = self.words(ti);
            let free: u32 = words.iter().map(|w| w.count_ones()).sum();
            let mask = words
                .iter()
                .enumerate()
                .fold(0, |m, (wi, &w)| m | Self::slot_byte(wi, w));
            self.free_count[ti] = free;
            self.slot_mask[ti] = mask;
            self.total_free += free as u64;
            self.cyl_free[cyl] += free as u64;
            self.cyl_aligned[cyl] += mask.count_ones();
            if free == self.spt[ti] {
                self.empty_tracks += 1;
                self.cyl_empty[cyl] += 1;
            }
        }
    }

    /// Iterate the free single sectors of a track, starting the scan at
    /// `from_sector` and wrapping around — i.e. in rotational encounter
    /// order for a head arriving at `from_sector`.
    pub fn free_sectors_from(
        &self,
        cyl: u32,
        track: u32,
        from_sector: u32,
    ) -> impl Iterator<Item = u32> + '_ {
        let ti = self.track_index(cyl, track);
        let spt = self.spt[ti];
        let bits = self.words(ti);
        (0..spt).filter_map(move |i| {
            let s = (from_sector + i) % spt;
            (bits[s as usize / 64] >> (s % 64) & 1 == 1).then_some(s)
        })
    }

    /// First free aligned run of `align` sectors on the track at or after
    /// `from_sector` (wrapping), in rotational encounter order.
    pub fn free_aligned_from(
        &self,
        cyl: u32,
        track: u32,
        from_sector: u32,
        align: u32,
    ) -> Option<u32> {
        self.free_aligned_iter(cyl, track, from_sector, align)
            .next()
    }

    /// All free aligned runs of `align` sectors, in rotational encounter
    /// order starting from `from_sector`.
    pub fn free_aligned_iter(
        &self,
        cyl: u32,
        track: u32,
        from_sector: u32,
        align: u32,
    ) -> impl Iterator<Item = u32> + '_ {
        let ti = self.track_index(cyl, track);
        let spt = self.spt[ti];
        let slots = spt / align;
        let start_slot = from_sector.div_ceil(align) % slots.max(1);
        (0..slots).filter_map(move |i| {
            let slot = (start_slot + i) % slots;
            let s = slot * align;
            self.run_free(cyl, track, s, align).then_some(s)
        })
    }

    /// First free sector on the track at or after `from_sector` (wrapping),
    /// i.e. `free_sectors_from(..).next()`, but scanning whole 64-bit bitmap
    /// words with `trailing_zeros` instead of testing sectors one by one.
    pub fn first_free_from(&self, cyl: u32, track: u32, from_sector: u32) -> Option<u32> {
        let ti = self.track_index(cyl, track);
        if self.free_count[ti] == 0 {
            return None;
        }
        let spt = self.spt[ti];
        let bits = self.words(ti);
        let from = from_sector % spt;
        let wstart = from as usize / 64;
        // Bits beyond the track end are zero by construction, so a set bit
        // always names a valid sector.
        let w = bits[wstart] & (u64::MAX << (from % 64));
        if w != 0 {
            return Some(wstart as u32 * 64 + w.trailing_zeros());
        }
        for (wi, &w) in bits.iter().enumerate().skip(wstart + 1) {
            if w != 0 {
                return Some(wi as u32 * 64 + w.trailing_zeros());
            }
        }
        // Wrap: words before the start, then the low bits of the start word.
        for (wi, &w) in bits.iter().enumerate().take(wstart) {
            if w != 0 {
                return Some(wi as u32 * 64 + w.trailing_zeros());
            }
        }
        let w = bits[wstart] & !(u64::MAX << (from % 64));
        (w != 0).then(|| wstart as u32 * 64 + w.trailing_zeros())
    }

    /// First free aligned run of `align` sectors at or after `from_sector`
    /// (wrapping), equivalent to [`FreeMap::free_aligned_from`]; at the
    /// indexed alignment one rotate and `trailing_zeros` of the track's
    /// free-slot mask, small enough to inline into the placement search.
    #[inline]
    pub fn first_aligned_from(
        &self,
        cyl: u32,
        track: u32,
        from_sector: u32,
        align: u32,
    ) -> Option<u32> {
        if align != INDEX_ALIGN {
            return self.first_unindexed_from(cyl, track, from_sector, align);
        }
        let ti = self.track_index(cyl, track);
        let mask = self.slot_mask[ti];
        if mask == 0 {
            return None;
        }
        // Rotated right by the start slot, the mask lists the slots in
        // encounter order: the start slot onwards, then (past the zero bits
        // beyond the track's last slot) the slots before it.
        let slots = self.spt[ti] / INDEX_ALIGN;
        let start = from_sector.div_ceil(INDEX_ALIGN);
        let start = if start < slots { start } else { start % slots };
        Some((start + mask.rotate_right(start).trailing_zeros()) % 64 * INDEX_ALIGN)
    }

    /// [`Self::first_aligned_from`] at an alignment the masks do not index.
    fn first_unindexed_from(&self, cyl: u32, track: u32, from: u32, align: u32) -> Option<u32> {
        if align == 1 {
            return self.first_free_from(cyl, track, from);
        }
        let ti = self.track_index(cyl, track);
        (self.free_count[ti] >= align)
            .then(|| self.free_aligned_from(cyl, track, from, align))
            .flatten()
    }

    /// Free sectors in a whole cylinder.
    #[inline]
    pub fn free_in_cylinder(&self, cyl: u32) -> u64 {
        self.cyl_free[cyl as usize]
    }

    /// Free [`INDEX_ALIGN`]-aligned slots in a whole cylinder.
    #[inline]
    pub fn aligned_in_cylinder(&self, cyl: u32) -> u32 {
        self.cyl_aligned[cyl as usize]
    }

    /// Completely empty tracks in a cylinder.
    #[inline]
    pub fn empty_in_cylinder(&self, cyl: u32) -> u32 {
        self.cyl_empty[cyl as usize]
    }

    /// Can this cylinder possibly hold a free run of `align` sectors?
    /// Exact for 1 and [`INDEX_ALIGN`]; a conservative (never false-negative)
    /// free-count bound otherwise. The allocator uses this to skip whole
    /// cylinders in O(1).
    #[inline]
    pub fn cylinder_has_candidate(&self, cyl: u32, align: u32) -> bool {
        match align {
            1 => self.cyl_free[cyl as usize] > 0,
            INDEX_ALIGN => self.cyl_aligned[cyl as usize] > 0,
            a => self.cyl_free[cyl as usize] >= a as u64,
        }
    }

    /// Cylinders in ring order around `center`: `center` itself, then at
    /// each distance `d` the cylinder `center - d` before `center + d`,
    /// skipping those off the disk.
    pub(crate) fn ring(&self, center: u32) -> impl Iterator<Item = u32> {
        let cyls = self.cylinders();
        (0..cyls)
            .flat_map(move |d| {
                [
                    center.checked_sub(d),
                    (d > 0 && center + d < cyls).then_some(center + d),
                ]
            })
            .flatten()
    }

    /// Find the nearest completely empty track to `cyl` in ring order,
    /// lowest track first. Returns (cyl, track). The per-cylinder
    /// empty-track summary skips cylinders with nothing to offer in O(1).
    pub fn nearest_empty_track(&self, cyl: u32) -> Option<(u32, u32)> {
        if self.empty_tracks == 0 {
            return None;
        }
        self.ring(cyl)
            .filter(|&c| self.cyl_empty[c as usize] > 0)
            .find_map(|c| {
                (0..self.tracks_per_cyl)
                    .find(|&t| self.track_is_empty(c, t))
                    .map(|t| (c, t))
            })
    }

    /// Is every sector of this track free?
    #[inline]
    pub(crate) fn track_is_empty(&self, cyl: u32, track: u32) -> bool {
        let ti = self.track_index(cyl, track);
        self.free_count[ti] == self.spt[ti]
    }

    /// Number of cylinders under management.
    pub fn cylinders(&self) -> u32 {
        self.cyl_free.len() as u32
    }

    /// Tracks per cylinder.
    pub fn tracks_in_cylinder(&self) -> u32 {
        self.tracks_per_cyl
    }

    /// Utilisation of one track, 0.0 (empty) – 1.0 (full).
    pub fn track_utilization(&self, cyl: u32, track: u32) -> f64 {
        let ti = self.track_index(cyl, track);
        1.0 - self.free_count[ti] as f64 / self.spt[ti] as f64
    }

    /// Number of tracks holding at least one live sector. O(1).
    pub fn nonempty_tracks(&self) -> u32 {
        self.spt.len() as u32 - self.empty_tracks
    }

    /// The least-utilized track holding at least one live sector, skipping
    /// tracks rejected by `exclude`; ties resolve to the lowest global
    /// track index, matching a first-minimum full scan in `(cyl, track)`
    /// order. An O(tracks) scan of the per-track counts: no figure and no
    /// benchmark workload reaches it (the paper's VLD picks victims at
    /// random), so nothing is maintained for it on the mutation path.
    pub fn least_utilized_nonempty(
        &self,
        mut exclude: impl FnMut(u32, u32) -> bool,
    ) -> Option<(u32, u32)> {
        let tracks = self.tracks_per_cyl;
        let cyl_track = |ti: usize| (ti as u32 / tracks, ti as u32 % tracks);
        (0..self.spt.len())
            .filter(|&ti| self.free_count[ti] < self.spt[ti])
            .filter(|&ti| {
                let (c, t) = cyl_track(ti);
                !exclude(c, t)
            })
            .min_by_key(|&ti| Self::util_key(self.spt[ti], self.free_count[ti]))
            .map(cyl_track)
    }

    /// Could this track possibly hold a free run of `align` sectors? Exact
    /// for 1 and [`INDEX_ALIGN`]; a conservative (never false-negative)
    /// free-count bound otherwise. O(1).
    #[inline]
    pub fn track_has_candidate(&self, cyl: u32, track: u32, align: u32) -> bool {
        let ti = self.track_index(cyl, track);
        match align {
            1 => self.free_count[ti] > 0,
            INDEX_ALIGN => self.slot_mask[ti] != 0,
            a => self.free_count[ti] >= a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> FreeMap {
        FreeMap::new(&Geometry::uniform(4, 2, 16))
    }

    #[test]
    fn starts_all_free() {
        let m = map();
        assert_eq!(m.total_sectors(), 128);
        assert_eq!(m.free_sectors(), 128);
        assert_eq!(m.empty_tracks(), 8);
        assert!(m.is_free(3, 1, 15));
        assert_eq!(m.utilization(), 0.0);
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut m = map();
        m.allocate(1, 0, 4, 8).unwrap();
        assert!(!m.is_free(1, 0, 4));
        assert!(!m.is_free(1, 0, 11));
        assert!(m.is_free(1, 0, 3));
        assert_eq!(m.free_in_track(1, 0), 8);
        assert_eq!(m.free_sectors(), 120);
        assert_eq!(m.empty_tracks(), 7);
        m.release(1, 0, 4, 8).unwrap();
        assert_eq!(m.free_sectors(), 128);
        assert_eq!(m.empty_tracks(), 8);
    }

    #[test]
    fn allocation_is_idempotent() {
        let mut m = map();
        m.allocate(0, 0, 0, 4).unwrap();
        m.allocate(0, 0, 0, 4).unwrap();
        assert_eq!(m.free_sectors(), 124);
        m.release(0, 0, 0, 2).unwrap();
        m.release(0, 0, 0, 2).unwrap();
        assert_eq!(m.free_sectors(), 126);
    }

    #[test]
    fn out_of_track_alloc_fails() {
        let mut m = map();
        assert!(m.allocate(0, 0, 14, 4).is_err());
        // `sector + count` past `u32::MAX` is out of range, not a wrap to a
        // small in-range end.
        assert!(m.allocate(0, 0, 8, u32::MAX - 3).is_err());
        assert!(m.release(0, 0, u32::MAX, 2).is_err());
        assert_eq!(m.free_sectors(), 128);
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let mut m = map();
        m.allocate(0, 0, 5, 0).unwrap();
        m.allocate(0, 0, 16, 0).unwrap();
        assert!(m.allocate(0, 0, 17, 0).is_err());
        assert_eq!((m.free_sectors(), m.empty_tracks()), (128, 8));
        assert!(m.run_free(0, 0, 16, 0));
    }

    #[test]
    fn free_sectors_from_is_rotational_order() {
        let mut m = map();
        m.allocate(0, 0, 0, 16).unwrap();
        m.release(0, 0, 2, 1).unwrap();
        m.release(0, 0, 10, 1).unwrap();
        let order: Vec<u32> = m.free_sectors_from(0, 0, 5).collect();
        assert_eq!(order, vec![10, 2]);
        let order: Vec<u32> = m.free_sectors_from(0, 0, 0).collect();
        assert_eq!(order, vec![2, 10]);
    }

    #[test]
    fn aligned_search_respects_alignment() {
        let mut m = map();
        // Occupy sector 1: block [0,8) is no longer free, block [8,16) is.
        m.allocate(0, 0, 1, 1).unwrap();
        assert_eq!(m.free_aligned_from(0, 0, 0, 8), Some(8));
        // From sector 9 the wrap search still only returns slot 8.
        assert_eq!(m.free_aligned_from(0, 0, 9, 8), Some(8));
        m.allocate(0, 0, 8, 8).unwrap();
        assert_eq!(m.free_aligned_from(0, 0, 0, 8), None);
    }

    #[test]
    fn aligned_iter_starts_at_next_boundary() {
        let m = map();
        let v: Vec<u32> = m.free_aligned_iter(0, 0, 3, 8).collect();
        assert_eq!(v, vec![8, 0]);
    }

    #[test]
    fn nearest_empty_track_scans_outward() {
        let mut m = map();
        // Fill every track except (3, 1) with one sector.
        for c in 0..4 {
            for t in 0..2 {
                if (c, t) != (3, 1) {
                    m.allocate(c, t, 0, 1).unwrap();
                }
            }
        }
        assert_eq!(m.nearest_empty_track(0), Some((3, 1)));
        assert_eq!(m.nearest_empty_track(3), Some((3, 1)));
        m.allocate(3, 1, 0, 1).unwrap();
        assert_eq!(m.nearest_empty_track(0), None);
    }

    #[test]
    fn track_utilization_tracks_fill() {
        let mut m = map();
        assert_eq!(m.track_utilization(0, 0), 0.0);
        m.allocate(0, 0, 0, 8).unwrap();
        assert!((m.track_utilization(0, 0) - 0.5).abs() < 1e-12);
    }

    /// The least-utilized pick as first stated: first minimum of the f64
    /// utilization in `(cyl, track)` scan order, over tracks with live data.
    fn least_utilized_rescan(
        m: &FreeMap,
        mut exclude: impl FnMut(u32, u32) -> bool,
    ) -> Option<(u32, u32)> {
        let mut best: Option<((u32, u32), f64)> = None;
        for c in 0..m.cylinders() {
            for t in 0..m.tracks_in_cylinder() {
                if m.free_in_track(c, t) == m.sectors_per_track(m.track_index(c, t))
                    || exclude(c, t)
                {
                    continue;
                }
                let u = m.track_utilization(c, t);
                if best.is_none_or(|(_, b)| u < b) {
                    best = Some(((c, t), u));
                }
            }
        }
        best.map(|(ct, _)| ct)
    }

    /// The per-sector `set` that the word-mask one replaced — one bit, one
    /// count and two slot probes per sector — kept as its oracle.
    fn set_per_sector(m: &mut FreeMap, cyl: u32, track: u32, sector: u32, count: u32, free: bool) {
        let ti = m.track_index(cyl, track);
        let (spt, base, cyl) = (m.spt[ti], m.word_off[ti] as usize, cyl as usize);
        let slot_free = |m: &FreeMap, slot: u32| {
            slot < spt / INDEX_ALIGN
                && (m.bits[base + slot as usize / 8] >> ((slot % 8) * 8)) & 0xFF == 0xFF
        };
        let was_empty = m.free_count[ti] == spt;
        for s in sector..sector + count {
            let (wi, mask) = (base + s as usize / 64, 1u64 << (s % 64));
            if (m.bits[wi] & mask != 0) == free {
                continue;
            }
            let slot_was = slot_free(m, s / INDEX_ALIGN);
            if free {
                m.bits[wi] |= mask;
                m.free_count[ti] += 1;
                m.total_free += 1;
                m.cyl_free[cyl] += 1;
            } else {
                m.bits[wi] &= !mask;
                m.free_count[ti] -= 1;
                m.total_free -= 1;
                m.cyl_free[cyl] -= 1;
            }
            let bit = 1u64 << (s / INDEX_ALIGN);
            match (slot_was, slot_free(m, s / INDEX_ALIGN)) {
                (true, false) => {
                    m.slot_mask[ti] &= !bit;
                    m.cyl_aligned[cyl] -= 1;
                }
                (false, true) => {
                    m.slot_mask[ti] |= bit;
                    m.cyl_aligned[cyl] += 1;
                }
                _ => {}
            }
        }
        match (was_empty, m.free_count[ti] == spt) {
            (true, false) => {
                m.empty_tracks -= 1;
                m.cyl_empty[cyl] -= 1;
            }
            (false, true) => {
                m.empty_tracks += 1;
                m.cyl_empty[cyl] += 1;
            }
            _ => {}
        }
    }

    /// Two maps over one geometry agree on every bit and every summary,
    /// and each map's free-slot masks are what a byte-by-byte reading of
    /// its bitmap words gives.
    fn assert_same(a: &FreeMap, b: &FreeMap, ctx: &str) {
        assert_eq!(a.bits, b.bits, "{ctx}: bits");
        assert_eq!(a.slot_mask, b.slot_mask, "{ctx}: slot_mask");
        for ti in 0..a.spt.len() {
            let words = a.words(ti);
            let slots = 0..a.spt[ti] / INDEX_ALIGN;
            let free = slots.map(|k| words[k as usize / 8] >> (k % 8 * 8) & 0xFF == 0xFF);
            let mask = free.enumerate().fold(0, |m, (k, f)| m | u64::from(f) << k);
            assert_eq!(a.slot_mask[ti], mask, "{ctx}: slot_mask of track {ti}");
        }
        assert_eq!(a.free_sectors(), b.free_sectors(), "{ctx}");
        assert_eq!(a.empty_tracks(), b.empty_tracks(), "{ctx}");
        assert_eq!(a.nonempty_tracks(), b.nonempty_tracks(), "{ctx}");
        for c in 0..a.cylinders() {
            assert_eq!(
                a.free_in_cylinder(c),
                b.free_in_cylinder(c),
                "{ctx}: cyl {c}"
            );
            assert_eq!(
                a.aligned_in_cylinder(c),
                b.aligned_in_cylinder(c),
                "{ctx}: cyl {c}"
            );
            assert_eq!(
                a.empty_in_cylinder(c),
                b.empty_in_cylinder(c),
                "{ctx}: cyl {c}"
            );
            for t in 0..a.tracks_in_cylinder() {
                assert_eq!(
                    a.free_in_track(c, t),
                    b.free_in_track(c, t),
                    "{ctx}: ({c},{t})"
                );
            }
        }
    }

    /// Not a multiple of 64, nor of 8, and multi-word tracks beside the toy.
    const GEOMETRIES: [(u32, u32, u32); 4] = [(4, 2, 16), (6, 3, 72), (3, 2, 100), (3, 2, 256)];

    use proptest::prelude::*;

    proptest! {
        /// The word-mask `set` and the per-sector oracle, driven through one
        /// random allocate / release stream — ranges that cross word
        /// boundaries, overlap earlier ones and repeat — leave identical
        /// bits and summaries after every step; a mid-stream clone is its
        /// original; and the least-utilized scan is the f64 first-minimum
        /// rescan, with and without an exclusion.
        #[test]
        fn word_mask_set_matches_per_sector_oracle(
            geo in 0usize..4,
            ops in proptest::collection::vec(
                (0u32..6, 0u32..3, 0u32..256, 0u32..1024, any::<bool>(), any::<bool>()),
                1..120,
            ),
        ) {
            let (cyls, tracks, spt) = GEOMETRIES[geo];
            let mut m = FreeMap::new(&Geometry::uniform(cyls, tracks, spt));
            let mut oracle = m.clone();
            let mut last = (0, 0, 0, 1, false);
            for (step, &(c, t, s, n, free, repeat)) in ops.iter().enumerate() {
                let s = s % spt;
                // Mostly block-sized runs, sometimes up to the whole track.
                let n = 1 + n % if n % 4 == 0 { spt - s } else { (spt - s).min(12) };
                let op = if repeat { last } else { (c % cyls, t % tracks, s, n, free) };
                last = op;
                let (c, t, s, n, free) = op;
                let was_free = (s..s + n).all(|x| m.is_free(c, t, x));
                prop_assert_eq!(m.run_free(c, t, s, n), was_free);
                m.set(c, t, s, n, free).unwrap();
                set_per_sector(&mut oracle, c, t, s, n, free);
                let ctx = format!("step {step} {cyls}x{tracks}x{spt} {op:?}");
                assert_same(&m, &oracle, &ctx);
                prop_assert_eq!(m.run_free(c, t, s, n), free);
                if step == ops.len() / 2 {
                    assert_same(&m.clone(), &m, "clone");
                }
                let no_excl = |_: u32, _: u32| false;
                let excl = |cc: u32, tt: u32| (cc, tt) == (0, 0);
                prop_assert_eq!(
                    m.least_utilized_nonempty(no_excl),
                    least_utilized_rescan(&m, no_excl)
                );
                prop_assert_eq!(
                    m.least_utilized_nonempty(excl),
                    least_utilized_rescan(&m, excl)
                );
            }
        }
    }

    /// Random occupancies: the slot-mask aligned search must agree with
    /// the linear per-slot oracle at every starting sector.
    #[test]
    fn slot_mask_scan_matches_linear_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (cyls, tracks, spt) in [(2u32, 2u32, 72u32), (2, 2, 256), (2, 1, 16)] {
            let g = Geometry::uniform(cyls, tracks, spt);
            let mut m = FreeMap::new(&g);
            let mut rng = StdRng::seed_from_u64(0x5A4F ^ spt as u64);
            for _ in 0..300 {
                let c = rng.gen_range(0..cyls);
                let t = rng.gen_range(0..tracks);
                let s = rng.gen_range(0..spt);
                if rng.gen_bool(0.6) {
                    m.allocate(c, t, s, 1).unwrap();
                } else {
                    m.release(c, t, s, 1).unwrap();
                }
                let from = rng.gen_range(0..spt);
                assert_eq!(
                    m.first_aligned_from(c, t, from, INDEX_ALIGN),
                    m.free_aligned_from(c, t, from, INDEX_ALIGN),
                    "{cyls}x{tracks}x{spt} from={from}"
                );
            }
        }
    }

    /// `allocate_bulk` over a random LBA bitmap must leave the map — bits
    /// and every summary — identical to per-sector `allocate` calls.
    #[test]
    fn allocate_bulk_matches_per_sector_allocate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (cyls, tracks, spt) in GEOMETRIES {
            let g = Geometry::uniform(cyls, tracks, spt);
            let total = g.total_sectors();
            let mut rng = StdRng::seed_from_u64(0xB01C ^ total);
            let mut used = vec![0u64; (total as usize).div_ceil(64)];
            let mut seq = FreeMap::new(&g);
            for lba in 0..total {
                if rng.gen_bool(0.6) {
                    used[lba as usize / 64] |= 1 << (lba % 64);
                    let p = g.lba_to_phys(lba).unwrap();
                    seq.allocate(p.cyl, p.track, p.sector, 1).unwrap();
                }
            }
            let mut bulk = FreeMap::new(&g);
            bulk.allocate_bulk(&used);
            assert_same(&bulk, &seq, &format!("{cyls}x{tracks}x{spt}"));
            let no_excl = |_: u32, _: u32| false;
            assert_eq!(
                bulk.least_utilized_nonempty(no_excl),
                seq.least_utilized_nonempty(no_excl)
            );
            for c in 0..cyls {
                for t in 0..tracks {
                    assert_eq!(
                        bulk.first_aligned_from(c, t, 3, INDEX_ALIGN),
                        seq.first_aligned_from(c, t, 3, INDEX_ALIGN)
                    );
                }
            }
        }
    }

    /// The widest track has one mask bit per slot; one sector wider has
    /// no room.
    #[test]
    fn tracks_wider_than_the_slot_mask_are_refused() {
        let mut m = FreeMap::new(&Geometry::uniform(1, 1, MAX_SECTORS_PER_TRACK));
        assert_eq!(m.slot_mask, [u64::MAX]);
        m.allocate(0, 0, MAX_SECTORS_PER_TRACK - 1, 1).unwrap();
        assert_eq!(m.first_aligned_from(0, 0, 0, INDEX_ALIGN), Some(0));
        assert_eq!(m.first_aligned_from(0, 0, 500, INDEX_ALIGN), Some(0));
        assert_eq!(m.first_aligned_from(0, 0, 490, INDEX_ALIGN), Some(496));
        let wide = Geometry::uniform(1, 1, MAX_SECTORS_PER_TRACK + 1);
        let refused = std::panic::catch_unwind(|| FreeMap::new(&wide));
        assert!(refused.is_err(), "a wider track was taken");
    }

    #[test]
    fn works_on_wide_tracks() {
        // 256-sector ST19101 tracks span four bitmap words.
        let g = Geometry::uniform(2, 2, 256);
        let mut m = FreeMap::new(&g);
        m.allocate(1, 1, 250, 6).unwrap();
        assert!(!m.is_free(1, 1, 255));
        assert!(m.is_free(1, 1, 249));
        assert_eq!(m.free_in_track(1, 1), 250);
        let firsts: Vec<u32> = m.free_sectors_from(1, 1, 249).take(2).collect();
        assert_eq!(firsts, vec![249, 0]);
    }
}
