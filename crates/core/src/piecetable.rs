//! The two-level logical→physical translation table.
//!
//! The indirection map is stored as one page per map *piece* — the same
//! granularity at which it is persisted ([`crate::mapsector::MapSector`])
//! — with pages materialised lazily on first write. Lookup is two array
//! indexes (piece, then entry), never a hash probe; a piece whose page was
//! never touched reads as all-[`UNMAPPED`] from a shared zero page, so a
//! freshly formatted multi-gigabyte virtual log allocates no map memory at
//! all. Encoding a piece for the log ([`PieceTable::piece_entries`]) hands
//! back the page slice directly — the borrowed-encode path introduced for
//! the hot allocator loop keeps working without a copy.

use std::sync::Arc;

use crate::mapsector::{PIECE_ENTRIES, UNMAPPED};

/// A page shared by every piece that was never written.
static UNMAPPED_PAGE: [u32; PIECE_ENTRIES] = [UNMAPPED; PIECE_ENTRIES];

/// Logical block → physical block, piece-paged. `UNMAPPED` marks holes.
///
/// Pages sit behind `Arc`, so cloning the table — the snapshot/fork path —
/// copies one pointer per materialised page; the first [`PieceTable::set`]
/// into a page still shared with a snapshot copies that page only
/// (copy-on-write at piece granularity, matching the map-piece unit the
/// log persists).
#[derive(Debug, Clone)]
pub(crate) struct PieceTable {
    pages: Vec<Option<Arc<[u32; PIECE_ENTRIES]>>>,
    len: usize,
}

impl PieceTable {
    /// An all-unmapped table covering `num_logical` blocks.
    pub(crate) fn new(num_logical: usize) -> Self {
        Self {
            pages: (0..num_logical.div_ceil(PIECE_ENTRIES)).map(|_| None).collect(),
            len: num_logical,
        }
    }

    /// Number of logical blocks covered.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The entry for logical block `lb` (must be `< len`). Two array
    /// indexes; an unmaterialised page reads as [`UNMAPPED`].
    #[inline]
    pub(crate) fn get(&self, lb: usize) -> u32 {
        debug_assert!(lb < self.len);
        match &self.pages[lb / PIECE_ENTRIES] {
            Some(page) => page[lb % PIECE_ENTRIES],
            None => UNMAPPED,
        }
    }

    /// The entry for `lb`, or `None` past the end of the table.
    #[inline]
    pub(crate) fn try_get(&self, lb: usize) -> Option<u32> {
        (lb < self.len).then(|| self.get(lb))
    }

    /// Set the entry for logical block `lb`, materialising its page (and
    /// un-sharing it first if a snapshot still holds the old copy).
    #[inline]
    pub(crate) fn set(&mut self, lb: usize, pb: u32) {
        debug_assert!(lb < self.len);
        let page = self.pages[lb / PIECE_ENTRIES]
            .get_or_insert_with(|| Arc::new([UNMAPPED; PIECE_ENTRIES]));
        Arc::make_mut(page)[lb % PIECE_ENTRIES] = pb;
    }

    /// The entries of `piece`, clamped to the table length (the final
    /// piece may be short). Borrowed straight from the page — this is what
    /// the log's piece-append encodes from.
    pub(crate) fn piece_entries(&self, piece: u32) -> &[u32] {
        let start = piece as usize * PIECE_ENTRIES;
        let n = (self.len - start).min(PIECE_ENTRIES);
        match &self.pages[piece as usize] {
            Some(page) => &page[..n],
            None => &UNMAPPED_PAGE[..n],
        }
    }

    /// Every entry in logical-block order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |lb| self.get(lb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unmapped_and_lazy() {
        let t = PieceTable::new(PIECE_ENTRIES * 3 + 5);
        assert_eq!(t.len(), PIECE_ENTRIES * 3 + 5);
        assert_eq!(t.get(0), UNMAPPED);
        assert_eq!(t.get(t.len() - 1), UNMAPPED);
        assert!(t.pages.iter().all(|p| p.is_none()), "no page materialised");
    }

    #[test]
    fn set_get_round_trip_and_page_isolation() {
        let mut t = PieceTable::new(PIECE_ENTRIES * 2);
        t.set(3, 77);
        t.set(PIECE_ENTRIES + 1, 88);
        assert_eq!(t.get(3), 77);
        assert_eq!(t.get(PIECE_ENTRIES + 1), 88);
        assert_eq!(t.get(4), UNMAPPED);
        assert_eq!(t.try_get(PIECE_ENTRIES * 2), None);
        assert_eq!(t.try_get(3), Some(77));
    }

    #[test]
    fn piece_entries_clamp_and_share() {
        let mut t = PieceTable::new(PIECE_ENTRIES + 7);
        assert_eq!(t.piece_entries(0).len(), PIECE_ENTRIES);
        assert_eq!(t.piece_entries(1).len(), 7);
        assert!(t.piece_entries(1).iter().all(|&e| e == UNMAPPED));
        t.set(PIECE_ENTRIES + 2, 5);
        assert_eq!(t.piece_entries(1), &[UNMAPPED, UNMAPPED, 5, UNMAPPED, UNMAPPED, UNMAPPED, UNMAPPED]);
    }

    #[test]
    fn iter_covers_every_block_in_order() {
        let mut t = PieceTable::new(PIECE_ENTRIES + 2);
        t.set(1, 10);
        t.set(PIECE_ENTRIES, 20);
        let v: Vec<u32> = t.iter().collect();
        assert_eq!(v.len(), PIECE_ENTRIES + 2);
        assert_eq!(v[1], 10);
        assert_eq!(v[PIECE_ENTRIES], 20);
        assert_eq!(v[0], UNMAPPED);
    }
}
