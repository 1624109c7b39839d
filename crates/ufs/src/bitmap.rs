//! In-memory bitmaps backing the on-disk inode and block bitmaps.
//!
//! FFS-style: bitmap updates are *delayed* metadata — they live in memory,
//! are marked dirty per covering disk block, and reach the device on sync.
//! (Inode and directory updates, by contrast, are written synchronously by
//! the file system, which is exactly what makes small-file workloads slow
//! on an update-in-place disk.)
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use crate::layout::BLOCK_SIZE;
use disksim::codec::{get_u64, put_u64};

/// A bitmap with per-disk-block dirty tracking. Bit set = in use.
#[derive(Debug, Clone)]
pub(crate) struct Bitmap {
    bits: Vec<u64>,
    len: u64,
    used: u64,
    /// Dirty flags, one per BLOCK_SIZE chunk of the bitmap.
    dirty: Vec<bool>,
}

impl Bitmap {
    /// An all-free bitmap of `len` bits.
    pub(crate) fn new(len: u64) -> Self {
        let words = (len as usize).div_ceil(64);
        let blocks = (words * 8).div_ceil(BLOCK_SIZE).max(1);
        Self {
            bits: vec![0; words],
            len,
            used: 0,
            dirty: vec![false; blocks],
        }
    }

    /// Rebuild from on-disk bytes: bit `i` in byte `i/8`, LSB-first, so
    /// word `w` is bytes `8w..8w+8` read little-endian. Missing bytes read
    /// as zeros, and bits at or past `len` are dropped, so a damaged tail
    /// cannot set one.
    pub(crate) fn from_bytes(len: u64, bytes: &[u8]) -> Self {
        let mut bm = Self::new(len);
        for (w, src) in bm.bits.iter_mut().zip(bytes.chunks(8)) {
            let mut word = [0u8; 8];
            word.iter_mut().zip(src).for_each(|(b, s)| *b = *s);
            *w = get_u64(&word, 0).unwrap_or_default();
        }
        if let Some(last) = bm.bits.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1 << (len % 64)) - 1;
        }
        bm.used = bm.bits.iter().map(|w| u64::from(w.count_ones())).sum();
        bm
    }

    /// Serialise bit `i` into byte `i/8`, LSB-first (matching
    /// [`Bitmap::from_bytes`]).
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; (self.len as usize).div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                out[i as usize / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Number of bits.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Bits set (in use).
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// Bits clear (free).
    pub(crate) fn free(&self) -> u64 {
        self.len - self.used
    }

    /// Test a bit.
    #[cfg(test)]
    pub(crate) fn get(&self, i: u64) -> bool {
        debug_assert!(i < self.len);
        self.bits[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Set a bit (idempotent).
    pub(crate) fn set(&mut self, i: u64) {
        debug_assert!(i < self.len);
        let m = 1u64 << (i % 64);
        if let Some(w) = self
            .bits
            .get_mut((i / 64) as usize)
            .filter(|w| **w & m == 0)
        {
            *w |= m;
            self.used += 1;
            self.mark_dirty(i);
        }
    }

    /// Clear a bit (idempotent).
    pub(crate) fn clear(&mut self, i: u64) {
        debug_assert!(i < self.len);
        let m = 1u64 << (i % 64);
        if let Some(w) = self
            .bits
            .get_mut((i / 64) as usize)
            .filter(|w| **w & m != 0)
        {
            *w &= !m;
            self.used -= 1;
            self.mark_dirty(i);
        }
    }

    fn mark_dirty(&mut self, i: u64) {
        if let Some(dirty) = self.dirty.get_mut((i / 8) as usize / BLOCK_SIZE) {
            *dirty = true;
        }
    }

    /// First free bit at or after `hint`, wrapping around — the FFS
    /// locality heuristic (allocate near the previous block).
    pub(crate) fn alloc_from(&mut self, hint: u64) -> Option<u64> {
        if self.used == self.len {
            return None;
        }
        let start = if hint >= self.len { 0 } else { hint };
        let i = self
            .first_free(start, self.len)
            .or_else(|| self.first_free(0, start))?;
        self.set(i);
        Some(i)
    }

    /// The lowest clear bit in `from..to`, 64 bits a word.
    fn first_free(&self, from: u64, to: u64) -> Option<u64> {
        let mut w = (from / 64) as usize;
        // Bits below `from` in its word count as used.
        let mut free = !*self.bits.get(w)? & (!0 << (from % 64));
        loop {
            if free != 0 {
                let i = w as u64 * 64 + u64::from(free.trailing_zeros());
                return (i < to).then_some(i);
            }
            w += 1;
            if w as u64 * 64 >= to {
                return None;
            }
            free = !*self.bits.get(w)?;
        }
    }

    /// Indices of dirty BLOCK_SIZE chunks, clearing the flags.
    pub(crate) fn take_dirty_chunks(&mut self) -> Vec<usize> {
        let out: Vec<usize> = self
            .dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect();
        self.clear_dirty();
        out
    }

    /// Any dirty chunks pending?
    #[cfg(test)]
    pub fn has_dirty(&self) -> bool {
        self.dirty.iter().any(|&d| d)
    }

    fn clear_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = false);
    }

    /// One BLOCK_SIZE-sized chunk of the serialised bitmap (zero-padded),
    /// in a block the drive can keep: its words, little-endian, which is
    /// the byte layout [`Bitmap::from_bytes`] reads (bits at or past `len`
    /// are never set).
    pub(crate) fn chunk_bytes(&self, chunk: usize) -> Arc<[u8]> {
        const WORDS: usize = BLOCK_SIZE / 8;
        let mut block = [0u8; BLOCK_SIZE];
        let words = self.bits.iter().skip(chunk * WORDS).take(WORDS);
        for (i, &w) in words.enumerate() {
            put_u64(&mut block, i * 8, w);
        }
        disksim::pooled_copy(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_clear_counts() {
        let mut b = Bitmap::new(100);
        assert_eq!(b.free(), 100);
        b.set(5);
        b.set(5);
        assert_eq!(b.used(), 1);
        b.clear(5);
        b.clear(5);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn alloc_from_wraps_and_prefers_hint() {
        let mut b = Bitmap::new(10);
        assert_eq!(b.alloc_from(7), Some(7));
        assert_eq!(b.alloc_from(7), Some(8));
        assert_eq!(b.alloc_from(9), Some(9));
        assert_eq!(b.alloc_from(9), Some(0), "wraps to the start");
        for _ in 0..6 {
            b.alloc_from(0);
        }
        assert_eq!(b.free(), 0);
        assert_eq!(b.alloc_from(3), None);
    }

    /// [`Bitmap::alloc_from`] as it was, one bit at a time.
    fn alloc_bitwise(b: &mut Bitmap, hint: u64) -> Option<u64> {
        if b.used() == b.len() {
            return None;
        }
        let start = if hint >= b.len() { 0 } else { hint };
        let mut i = start;
        loop {
            if !b.get(i) {
                b.set(i);
                return Some(i);
            }
            i += 1;
            if i == b.len() {
                i = 0;
            }
            if i == start {
                return None;
            }
        }
    }

    proptest! {
        /// The word scan allocates exactly the bits the bitwise scan does,
        /// from any hint (past the end, in a word's middle, on its last
        /// bit), across the wrap-around and into a full map, with frees in
        /// between, on lengths on and off a word boundary.
        #[test]
        fn alloc_from_matches_the_bitwise_scan(
            len in prop_oneof![1u64..200, Just(4096 * 8 + 3)],
            ops in proptest::collection::vec((any::<u64>(), 0u8..4), 1..400),
        ) {
            let (mut words, mut bits) = (Bitmap::new(len), Bitmap::new(len));
            for (x, op) in ops {
                let hint = match op {
                    0 => x % (len + 70),
                    1 => (x % len.div_ceil(64)) * 64 + 63,
                    _ => x % len,
                };
                if op == 3 && words.used() > 0 {
                    words.clear(hint);
                    bits.clear(hint);
                    continue;
                }
                prop_assert_eq!(words.alloc_from(hint), alloc_bitwise(&mut bits, hint));
                prop_assert_eq!(words.used(), bits.used());
            }
            prop_assert_eq!(words.bits, bits.bits);
            prop_assert_eq!(words.dirty, bits.dirty);
        }
    }

    #[test]
    fn byte_roundtrip() {
        for len in [1u64, 63, 64, 65, 77, 128, 200, 4096 * 8 + 3] {
            let mut b = Bitmap::new(len);
            for i in [0, 7, 8, 63, 64, 76, 127, 199, len - 1] {
                if i < len {
                    b.set(i);
                }
            }
            // Word-wise chunks are the bytes `to_bytes` lays out, padded.
            let mut bytes: Vec<u8> = (0..b.dirty.len())
                .flat_map(|c| b.chunk_bytes(c).to_vec())
                .collect();
            assert_eq!(bytes[..b.to_bytes().len()], b.to_bytes(), "len {len}");
            // Garbage past `len` must not come back as set bits.
            let last = (len as usize - 1) / 8;
            bytes[last] |= !0u8 << ((len - 1) % 8) << 1;
            bytes[last + 1..].fill(0xFF);
            for again in [
                Bitmap::from_bytes(len, &bytes),
                Bitmap::from_bytes(len, &b.to_bytes()),
            ] {
                for i in 0..len {
                    assert_eq!(b.get(i), again.get(i), "len {len}, bit {i}");
                }
                assert_eq!(again.used(), b.used(), "len {len}");
                assert!(!again.has_dirty());
            }
        }
    }

    #[test]
    fn dirty_chunk_tracking() {
        let mut b = Bitmap::new(BLOCK_SIZE as u64 * 8 * 2); // two chunks
        assert!(!b.has_dirty());
        b.set(3);
        b.set(BLOCK_SIZE as u64 * 8 + 1);
        assert_eq!(b.take_dirty_chunks(), vec![0, 1]);
        assert!(!b.has_dirty());
        b.clear(3);
        assert_eq!(b.take_dirty_chunks(), vec![0]);
    }

    #[test]
    fn chunk_bytes_padding() {
        let mut b = Bitmap::new(16);
        b.set(0);
        b.set(9);
        let c = b.chunk_bytes(0);
        assert_eq!(c.len(), BLOCK_SIZE);
        assert_eq!(c[0], 1);
        assert_eq!(c[1], 2);
        assert!(c[2..].iter().all(|&x| x == 0));
    }
}
