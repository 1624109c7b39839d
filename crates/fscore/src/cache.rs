//! An LRU block buffer cache with dirty tracking.
//!
//! UFS uses one as its buffer cache (metadata and optionally-delayed data
//! writes); the LFS file layer uses a 6.1 MB instance as the paper's
//! MinixUFS file cache, which some experiments declare to be NVRAM. The
//! cache itself is device-agnostic: the owning file system decides when a
//! dirty eviction or a `sync` reaches the device.
//!
//! Entries live in a slab and are threaded on two intrusive doubly-linked
//! lists, one for clean and one for dirty blocks, each ordered by recency
//! tick from least to most recently used. A touch stamps a fresh (largest)
//! tick and relinks the entry at its list's tail, so every lookup, insert,
//! removal and eviction is O(1) — the cache sits on the per-block path of
//! every benchmark. Ticks are unique, so the head of a list is the entry a
//! full scan for the smallest tick would find: victims are exactly those of
//! the linear-scan model the tests compare against. The two operations that
//! move entries between lists *without* a fresh tick (a flush marks every
//! dirty block clean; a failed or unfinished flush puts some back) are one
//! backward merge each.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// "No entry": list terminator and empty free list.
const NIL: u32 = u32::MAX;
const CLEAN: usize = 0;
const DIRTY: usize = 1;

/// Hasher for block numbers, which the file system computes itself (never
/// outside input): one multiply, with the well-mixed high half folded into
/// the low bits the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("block numbers hash through write_u64");
    }

    fn write_u64(&mut self, block: u64) {
        let h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One slab slot: a cached block, or a link of the free list.
///
/// Payloads are reference-counted so a cache hit can hand the block to the
/// caller without copying it: readers share the buffer (and so may a
/// device that keeps a written block as it is), and the mutating paths
/// ([`BufferCache::edit`], [`BufferCache::overwrite`]) replace a payload
/// instead of writing into it while anyone else holds a handle.
#[derive(Debug, Clone)]
struct Entry {
    block: u64,
    /// `None` only while the slot is on the free list.
    data: Option<Arc<[u8]>>,
    tick: u64,
    prev: u32,
    next: u32,
    dirty: bool,
}

/// Ends of one recency list: `head` is least recently used.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

const EMPTY_LIST: List = List {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// Fixed-capacity LRU cache of equal-sized blocks keyed by block number.
///
/// Cloning the cache is a snapshot: payloads are `Arc`-shared with the
/// clone and never written while shared, so either side can keep running
/// without disturbing the other.
#[derive(Debug, Clone)]
pub struct BufferCache {
    capacity: usize,
    block_size: usize,
    /// Block number → slab index.
    map: HashMap<u64, u32, BuildHasherDefault<BlockHasher>>,
    entries: Vec<Entry>,
    /// Head of the free-slot chain through `Entry::next`.
    free: u32,
    /// `[CLEAN, DIRTY]`, each strictly ascending in tick from head to tail.
    lists: [List; 2],
    tick: u64,
    hits: u64,
    misses: u64,
    probes: u64,
    cow_copies: u64,
}

impl BufferCache {
    /// Create a cache holding at most `capacity` blocks of `block_size`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity or block size (configuration error).
    pub(crate) fn new(capacity: usize, block_size: usize) -> Self {
        assert!(capacity > 0 && block_size > 0);
        assert!(capacity < NIL as usize, "slab indexes are 32-bit");
        Self {
            capacity,
            block_size,
            map: HashMap::default(),
            entries: Vec::new(),
            free: NIL,
            lists: [EMPTY_LIST; 2],
            tick: 0,
            hits: 0,
            misses: 0,
            probes: 0,
            cow_copies: 0,
        }
    }

    /// Build a cache sized in bytes (e.g. the paper's 6.1 MB file cache).
    pub fn with_bytes(bytes: usize, block_size: usize) -> Self {
        Self::new((bytes / block_size).max(1), block_size)
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        self.lists[DIRTY].len
    }

    /// (hits, misses) counters of the lookups [`BufferCache::get_rc`] and
    /// [`BufferCache::edit`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Keyed calls made so far (every method that takes a block number,
    /// once per block): the deterministic measure of how hard the owner
    /// leans on the cache.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Payloads copied because a writer found a reader, a snapshot or a
    /// device still holding the buffer.
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    // ----- slab and list plumbing ---------------------------------------

    fn slot(&mut self, block: u64) -> Option<u32> {
        self.probes += 1;
        self.map.get(&block).copied()
    }

    /// Counted lookup: a hit or a miss for [`BufferCache::stats`].
    fn lookup(&mut self, block: u64) -> Option<u32> {
        let found = self.slot(block);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn unlink(&mut self, list: usize, i: u32) {
        let Entry { prev, next, .. } = self.entries[i as usize];
        match prev {
            NIL => self.lists[list].head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.lists[list].tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
        self.lists[list].len -= 1;
    }

    /// Link `i` into `list` right after `at` (`NIL`: at the head).
    fn link_after(&mut self, list: usize, at: u32, i: u32) {
        let next = match at {
            NIL => std::mem::replace(&mut self.lists[list].head, i),
            a => std::mem::replace(&mut self.entries[a as usize].next, i),
        };
        match next {
            NIL => self.lists[list].tail = i,
            n => self.entries[n as usize].prev = i,
        }
        let e = &mut self.entries[i as usize];
        e.prev = at;
        e.next = next;
        self.lists[list].len += 1;
    }

    /// Stamp the unlinked entry `i` with a fresh tick and link it as the
    /// most recently used entry of the list for `dirty`.
    fn link_mru(&mut self, i: u32, dirty: bool) {
        self.tick += 1;
        let e = &mut self.entries[i as usize];
        e.tick = self.tick;
        e.dirty = dirty;
        let tail = self.lists[dirty as usize].tail;
        self.link_after(dirty as usize, tail, i);
    }

    /// Make `i` the most recently used entry of the list for `dirty`.
    fn touch(&mut self, i: u32, dirty: bool) {
        let was = self.entries[i as usize].dirty;
        self.unlink(was as usize, i);
        self.link_mru(i, dirty);
    }

    /// Unlink and unmap entry `i` and put its slot on the free list.
    fn take(&mut self, i: u32) -> (u64, Arc<[u8]>, bool) {
        let dirty = self.entries[i as usize].dirty;
        self.unlink(dirty as usize, i);
        let e = &mut self.entries[i as usize];
        let data = e.data.take().expect("linked entry has a payload");
        e.next = std::mem::replace(&mut self.free, i);
        let block = e.block;
        self.map.remove(&block);
        (block, data, dirty)
    }

    /// Move the `count` entries of list `from` whose dirty flag already
    /// names the other list across to it, keeping both tick-ordered: one
    /// backward walk of `from` as far as the oldest migrant, merged into
    /// one backward walk of the destination.
    fn migrate(&mut self, from: usize, mut count: usize) {
        let to = from ^ 1;
        let mut i = self.lists[from].tail;
        let mut at = self.lists[to].tail;
        while count > 0 {
            let Entry {
                prev, tick, dirty, ..
            } = self.entries[i as usize];
            if dirty as usize == to {
                self.unlink(from, i);
                while at != NIL && self.entries[at as usize].tick > tick {
                    at = self.entries[at as usize].prev;
                }
                self.link_after(to, at, i);
                count -= 1;
            }
            i = prev;
        }
    }

    fn payload(&self, i: u32) -> &Arc<[u8]> {
        self.entries[i as usize]
            .data
            .as_ref()
            .expect("mapped entry has a payload")
    }

    // ----- lookups --------------------------------------------------------

    /// Look up a block, refreshing its LRU position, and return a shared
    /// handle to its payload. The zero-copy read path: cloning the `Arc`
    /// bumps a refcount instead of copying the block.
    pub fn get_rc(&mut self, block: u64) -> Option<Arc<[u8]>> {
        let i = self.lookup(block)?;
        self.touch(i, self.entries[i as usize].dirty);
        Some(Arc::clone(self.payload(i)))
    }

    /// Check for presence without touching LRU or the hit counters
    /// (`&mut self` only to count the probe).
    pub fn contains(&mut self, block: u64) -> bool {
        self.slot(block).is_some()
    }

    /// Borrow a block's payload handle without touching LRU or the hit
    /// counters (`&mut self` only to count the probe).
    pub fn peek(&mut self, block: u64) -> Option<&Arc<[u8]>> {
        let i = self.slot(block)?;
        Some(self.payload(i))
    }

    /// Borrow the payload handles of `blocks`, in order, as
    /// [`BufferCache::peek`] of each would (one probe each); `None` if one
    /// is not cached.
    pub fn peek_each(&mut self, blocks: &[u64]) -> Option<Vec<&Arc<[u8]>>> {
        let slots: Vec<u32> = blocks
            .iter()
            .map(|&block| self.slot(block))
            .collect::<Option<_>>()?;
        Some(slots.into_iter().map(|i| self.payload(i)).collect())
    }

    /// Read-modify-write a block in place: counts as a hit or miss and
    /// refreshes the LRU position like [`BufferCache::get_rc`], marks the
    /// block dirty if `dirty` (a dirty block stays dirty either way), hands
    /// the payload to `edit`, and returns its handle (to write the block
    /// through). Copies-on-write if a handle from [`BufferCache::get_rc`],
    /// a snapshot or a device still shares the payload, so those keep
    /// seeing the pre-write bytes; the copy takes a page from the drive's
    /// pool ([`disksim::pooled_copy`]). `None`, calling nothing, if the
    /// block is not cached.
    pub fn edit(
        &mut self,
        block: u64,
        dirty: bool,
        edit: impl FnOnce(&mut [u8]),
    ) -> Option<&Arc<[u8]>> {
        let i = self.lookup(block)?;
        self.touch(i, dirty || self.entries[i as usize].dirty);
        let data = self.entries[i as usize]
            .data
            .as_mut()
            .expect("mapped entry has a payload");
        if Arc::get_mut(data).is_none() {
            *data = disksim::pooled_copy(data);
            self.cow_copies += 1;
        }
        edit(Arc::get_mut(data).expect("unshared after CoW"));
        Some(data)
    }

    // ----- stores ---------------------------------------------------------

    /// Replace the payload of a cached block with `data`, with the effect
    /// of [`BufferCache::insert`] (most recently used; dirty if `dirty` or
    /// already dirty) but from a borrowed slice: the bytes are copied into
    /// the existing buffer when nobody shares it, into a pooled one
    /// ([`disksim::pooled_copy`]) otherwise. Returns false, changing
    /// nothing, if the block is not cached.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not block-sized (internal invariant).
    pub fn overwrite(&mut self, block: u64, data: &[u8], dirty: bool) -> bool {
        assert_eq!(data.len(), self.block_size, "cache blocks are fixed-size");
        let Some(i) = self.slot(block) else {
            return false;
        };
        self.touch(i, dirty || self.entries[i as usize].dirty);
        let payload = self.entries[i as usize]
            .data
            .as_mut()
            .expect("mapped entry has a payload");
        match Arc::get_mut(payload) {
            Some(buf) => buf.copy_from_slice(data),
            None => *payload = disksim::pooled_copy(data),
        }
        true
    }

    /// Put `data` in place of a cached block's payload, with the effect of
    /// [`BufferCache::overwrite`] (most recently used; dirty if `dirty` or
    /// already dirty) but taking the buffer as it is. Returns the payload
    /// it replaced, or gives `data` back, changing nothing, if the block is
    /// not cached.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not block-sized (internal invariant).
    pub fn swap(
        &mut self,
        block: u64,
        data: Arc<[u8]>,
        dirty: bool,
    ) -> Result<Arc<[u8]>, Arc<[u8]>> {
        assert_eq!(data.len(), self.block_size, "cache blocks are fixed-size");
        let Some(i) = self.slot(block) else {
            return Err(data);
        };
        self.touch(i, dirty || self.entries[i as usize].dirty);
        let payload = self.entries[i as usize]
            .data
            .as_mut()
            .expect("mapped entry has a payload");
        Ok(std::mem::replace(payload, data))
    }

    /// Insert (or replace) a block. Does **not** evict — call
    /// [`BufferCache::evict_lru_prefer_clean`] first when
    /// [`BufferCache::is_full`].
    ///
    /// # Panics
    ///
    /// Panics if `data` is not block-sized (internal invariant).
    pub fn insert(&mut self, block: u64, data: impl Into<Arc<[u8]>>, dirty: bool) {
        let data: Arc<[u8]> = data.into();
        assert_eq!(data.len(), self.block_size, "cache blocks are fixed-size");
        if let Some(i) = self.slot(block) {
            // Replacement keeps an existing buffer dirty if either copy was.
            self.entries[i as usize].data = Some(data);
            self.touch(i, dirty || self.entries[i as usize].dirty);
            return;
        }
        let entry = Entry {
            block,
            data: Some(data),
            tick: 0,
            prev: NIL,
            next: NIL,
            dirty,
        };
        let i = match self.free {
            NIL => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
            i => {
                self.free = self.entries[i as usize].next;
                self.entries[i as usize] = entry;
                i
            }
        };
        self.map.insert(block, i);
        self.link_mru(i, dirty);
    }

    /// True when inserting a new block requires an eviction first.
    pub fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    // ----- removal --------------------------------------------------------

    /// Remove and return the least-recently-used block:
    /// `(block, data, dirty)`. The caller must write dirty data back.
    pub(crate) fn evict_lru(&mut self) -> Option<(u64, Arc<[u8]>, bool)> {
        let (c, d) = (self.lists[CLEAN].head, self.lists[DIRTY].head);
        let victim = match (c, d) {
            (NIL, NIL) => return None,
            (c, NIL) => c,
            (NIL, d) => d,
            (c, d) if self.entries[c as usize].tick < self.entries[d as usize].tick => c,
            (_, d) => d,
        };
        Some(self.take(victim))
    }

    /// Remove and return the least-recently-used *clean* block, falling
    /// back to the least-recently-used dirty one only when everything is
    /// dirty: `(block, data, dirty)`. Clean evictions cost no I/O; the
    /// caller must write dirty data back.
    pub fn evict_lru_prefer_clean(&mut self) -> Option<(u64, Arc<[u8]>, bool)> {
        match self.lists[CLEAN].head {
            NIL => self.evict_lru(),
            c => Some(self.take(c)),
        }
    }

    /// Remove a specific block without writing it back.
    pub fn remove(&mut self, block: u64) -> Option<(Arc<[u8]>, bool)> {
        let i = self.slot(block)?;
        let (_, data, dirty) = self.take(i);
        Some((data, dirty))
    }

    /// Snapshot the dirty block numbers in ascending block order (the
    /// elevator order UFS flushes in) and mark them all clean. Payloads
    /// stay in the cache — read them with [`BufferCache::peek`] while
    /// writing back; returning keys instead of cloned data keeps the flush
    /// path free of per-block payload copies.
    pub fn take_dirty_sorted(&mut self) -> Vec<u64> {
        let count = self.lists[DIRTY].len;
        let mut out: Vec<u64> = Vec::with_capacity(count);
        let mut i = self.lists[DIRTY].head;
        while i != NIL {
            let e = &mut self.entries[i as usize];
            e.dirty = false;
            out.push(e.block);
            i = e.next;
        }
        // Everything dirty is now clean; recency (the ticks) is unchanged.
        self.migrate(DIRTY, count);
        out.sort_unstable();
        out
    }

    /// Re-mark cached blocks dirty without touching their recency — the
    /// put-back path for blocks whose write-back failed or ran out of idle
    /// budget. Blocks no longer cached, or already dirty, are skipped.
    pub fn mark_dirty(&mut self, blocks: &[u64]) {
        let mut count = 0;
        for &block in blocks {
            if let Some(i) = self.slot(block) {
                let e = &mut self.entries[i as usize];
                if !e.dirty {
                    e.dirty = true;
                    count += 1;
                }
            }
        }
        self.migrate(CLEAN, count);
    }

    /// Drop every clean block (a benchmark "cache flush"); dirty blocks
    /// stay, since dropping them would lose data.
    pub fn drop_clean(&mut self) {
        while self.lists[CLEAN].head != NIL {
            self.take(self.lists[CLEAN].head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> BufferCache {
        BufferCache::new(cap, 4)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = cache(4);
        c.insert(7, vec![1, 2, 3, 4], false);
        assert_eq!(c.get_rc(7).as_deref(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(c.get_rc(8), None);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(3);
        c.insert(1, vec![0; 4], false);
        c.insert(2, vec![0; 4], false);
        c.insert(3, vec![0; 4], false);
        // Touch 1 so 2 becomes LRU.
        c.get_rc(1);
        assert!(c.is_full());
        let (victim, _, dirty) = c.evict_lru().unwrap();
        assert_eq!(victim, 2);
        assert!(!dirty);
    }

    #[test]
    fn dirty_tracking_and_flush_order() {
        let mut c = cache(8);
        c.insert(5, vec![0; 4], true);
        c.insert(2, vec![0; 4], false);
        c.insert(9, vec![0; 4], true);
        assert_eq!(c.dirty_count(), 2);
        let dirty = c.take_dirty_sorted();
        assert_eq!(dirty, vec![5, 9]);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.map.len(), 3, "flush keeps blocks cached, now clean");
        // Payloads stayed cached and are reachable without an LRU touch.
        let (hits, misses) = c.stats();
        assert!(c.peek(5).is_some());
        assert_eq!(c.stats(), (hits, misses), "peek must not touch counters");
        // Put-back restores dirtiness in place; already-dirty and unknown
        // blocks are skipped.
        c.mark_dirty(&[9]);
        assert_eq!(c.dirty_count(), 1);
        c.mark_dirty(&[9, 777]);
        assert_eq!(c.dirty_count(), 1);
        assert!(!c.contains(777));
    }

    #[test]
    fn edit_marks_dirty_on_request() {
        let mut c = cache(2);
        c.insert(1, vec![0; 4], false);
        c.edit(1, false, |b| b[0] = 7).unwrap();
        assert_eq!(c.dirty_count(), 0, "a write-through edit stays clean");
        c.edit(1, true, |b| b[0] = 9).unwrap();
        assert_eq!(c.dirty_count(), 1);
        let edited = c.edit(1, false, |b| b[1] = 8).unwrap();
        assert_eq!(&edited[..], &[9, 8, 0, 0], "the handle carries the edit");
        assert_eq!(c.dirty_count(), 1, "dirtiness is sticky");
        assert_eq!(c.get_rc(1).as_deref(), Some(&[9, 8, 0, 0][..]));
        assert!(c.edit(2, true, |_| unreachable!()).is_none());
        assert_eq!(c.stats(), (4, 1), "edit counts as a lookup");
    }

    /// A swap puts the caller's buffer in place as it is and gives the old
    /// one back; an absent block gives the buffer back untouched.
    #[test]
    fn swap_takes_the_buffer_and_returns_the_old() {
        let mut c = cache(2);
        let new: Arc<[u8]> = Arc::from(&[5u8; 4][..]);
        let new = c.swap(1, new, true).expect_err("absent blocks are not inserted");
        assert!(!c.contains(1));
        c.insert(1, vec![1, 2, 3, 4], true);
        let old = c.swap(1, Arc::clone(&new), false).unwrap();
        assert_eq!(&old[..], &[1, 2, 3, 4]);
        assert!(Arc::ptr_eq(c.peek(1).unwrap(), &new), "kept, not copied");
        assert_eq!(c.dirty_count(), 1, "dirtiness is sticky");
        assert_eq!(c.cow_copies(), 0);
    }

    #[test]
    fn overwrite_reuses_an_unshared_buffer() {
        let mut c = cache(2);
        assert!(
            !c.overwrite(1, &[5; 4], true),
            "absent blocks are not inserted"
        );
        c.insert(1, vec![1, 2, 3, 4], false);
        let before = c.peek(1).unwrap().as_ptr();
        assert!(c.overwrite(1, &[5; 4], false));
        assert_eq!(c.peek(1).unwrap().as_ptr(), before, "copied in place");
        assert_eq!(c.dirty_count(), 0);
        // A shared payload is replaced, never written through.
        let held = c.get_rc(1).unwrap();
        assert!(c.overwrite(1, &[6; 4], true));
        assert_eq!(&held[..], &[5; 4]);
        assert_eq!(&c.peek(1).unwrap()[..], &[6; 4]);
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(
            c.cow_copies(),
            0,
            "a whole-block overwrite never copies the old bytes"
        );
    }

    #[test]
    fn get_rc_shares_then_copies_on_write() {
        let mut c = cache(2);
        c.insert(1, vec![1, 2, 3, 4], false);
        let snap = c.get_rc(1).unwrap();
        assert_eq!(c.stats(), (1, 0), "get_rc counts as a hit");
        // Mutation must not be visible through the outstanding handle.
        c.edit(1, true, |b| b[0] = 9).unwrap();
        assert_eq!(&snap[..], &[1, 2, 3, 4]);
        assert_eq!(c.get_rc(1).unwrap()[0], 9);
        assert_eq!(c.cow_copies(), 1);
        drop(snap);
        // Unshared payloads mutate in place.
        c.edit(1, true, |b| b[1] = 8).unwrap();
        assert_eq!(&c.peek(1).unwrap()[..], &[9, 8, 3, 4]);
        assert_eq!(c.cow_copies(), 1);
    }

    #[test]
    fn replacement_keeps_dirty_bit() {
        let mut c = cache(2);
        c.insert(1, vec![1; 4], true);
        c.insert(1, vec![2; 4], false);
        assert_eq!(
            c.dirty_count(),
            1,
            "clean overwrite must not lose dirtiness"
        );
    }

    #[test]
    fn prefer_clean_falls_back_to_dirty() {
        let mut c = cache(2);
        c.insert(1, vec![1; 4], true);
        c.insert(2, vec![2; 4], true);
        // Everything dirty: the preferring eviction must still evict.
        let (victim, _, dirty) = c.evict_lru_prefer_clean().unwrap();
        assert_eq!(victim, 1, "LRU dirty victim");
        assert!(dirty);
        // Mixed: the clean block goes first even if more recently used.
        c.insert(3, vec![3; 4], false);
        c.get_rc(3);
        let (victim, _, dirty) = c.evict_lru_prefer_clean().unwrap();
        assert_eq!(victim, 3);
        assert!(!dirty);
    }

    #[test]
    fn drop_clean_spares_dirty() {
        let mut c = cache(4);
        c.insert(1, vec![0; 4], true);
        c.insert(2, vec![0; 4], false);
        c.drop_clean();
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn with_bytes_sizing() {
        let c = BufferCache::with_bytes(6_400_000, 4096);
        assert_eq!(c.capacity(), 1562);
    }

    #[test]
    #[should_panic(expected = "fixed-size")]
    fn wrong_size_block_panics() {
        cache(2).insert(0, vec![0; 3], false);
    }

    /// The straight linear-scan cache the slab-and-lists implementation
    /// must be indistinguishable from: a victim is whatever a scan for the
    /// smallest tick finds.
    #[derive(Clone, Default)]
    struct Model {
        /// (block, dirty, lru tick, payload).
        blocks: Vec<(u64, bool, u64, [u8; 4])>,
        tick: u64,
    }

    impl Model {
        fn find(&mut self, block: u64) -> Option<&mut (u64, bool, u64, [u8; 4])> {
            self.blocks.iter_mut().find(|e| e.0 == block)
        }

        /// Refresh recency and OR in `dirty`, as every touching call does.
        fn touch(&mut self, block: u64, dirty: bool) -> Option<&mut [u8; 4]> {
            self.tick += 1;
            let tick = self.tick;
            let e = self.find(block)?;
            e.1 |= dirty;
            e.2 = tick;
            Some(&mut e.3)
        }

        fn store(&mut self, block: u64, data: [u8; 4], dirty: bool) {
            match self.touch(block, dirty) {
                Some(payload) => *payload = data,
                None => self.blocks.push((block, dirty, self.tick, data)),
            }
        }

        fn evict(&mut self, prefer_clean: bool) -> Option<(u64, [u8; 4], bool)> {
            let lru = |want_clean: bool| {
                self.blocks
                    .iter()
                    .filter(|e| !(want_clean && e.1))
                    .min_by_key(|e| e.2)
                    .map(|e| e.0)
            };
            let victim = if prefer_clean { lru(true) } else { None }.or_else(|| lru(false))?;
            self.remove(victim)
        }

        fn remove(&mut self, block: u64) -> Option<(u64, [u8; 4], bool)> {
            let at = self.blocks.iter().position(|e| e.0 == block)?;
            let (b, dirty, _, data) = self.blocks.swap_remove(at);
            Some((b, data, dirty))
        }

        fn dirty_sorted(&self) -> Vec<u64> {
            let mut d: Vec<u64> = self.blocks.iter().filter(|e| e.1).map(|e| e.0).collect();
            d.sort_unstable();
            d
        }
    }

    impl BufferCache {
        /// Structural audit: both lists tick-ordered and doubly linked,
        /// every entry on the list its dirty bit names, slab fully
        /// accounted for between the map and the free chain.
        fn check_invariants(&self) {
            for list in [CLEAN, DIRTY] {
                let (mut i, mut prev, mut n, mut last_tick) = (self.lists[list].head, NIL, 0, 0);
                while i != NIL {
                    let e = &self.entries[i as usize];
                    assert_eq!(e.prev, prev);
                    assert_eq!(e.dirty as usize, list);
                    assert!(e.tick > last_tick, "list {list} not tick-ordered");
                    assert_eq!(self.map.get(&e.block), Some(&i));
                    (prev, last_tick, n, i) = (i, e.tick, n + 1, e.next);
                }
                assert_eq!(self.lists[list].tail, prev);
                assert_eq!(self.lists[list].len, n);
            }
            assert_eq!(
                self.lists[CLEAN].len + self.lists[DIRTY].len,
                self.map.len()
            );
            let (mut free, mut i) = (0, self.free);
            while i != NIL {
                assert!(self.entries[i as usize].data.is_none());
                (free, i) = (free + 1, self.entries[i as usize].next);
            }
            assert_eq!(free + self.map.len(), self.entries.len());
        }
    }

    /// Every order-sensitive operation, on two diverging clones, against
    /// the linear-scan model: same victims, same dirty census, same
    /// `take_dirty_sorted` output, same bytes — including through handles
    /// and snapshots that outlive a write.
    #[test]
    fn indexed_lru_matches_linear_scan_reference() {
        const CAPACITY: usize = 64;
        const BLOCKS: u64 = 160;
        let mut x: u64 = 0x12345;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sides = vec![(cache(CAPACITY), Model::default()); 2];
        let mut cur = 0;
        // Handles from get_rc and the bytes they must keep showing.
        let mut held: Vec<(Arc<[u8]>, [u8; 4])> = Vec::new();
        let mut evictions = 0;
        for step in 0..24_000 {
            let (c, m) = &mut sides[cur];
            let blk = rng() % BLOCKS;
            let data = (rng() as u32).to_le_bytes();
            let dirty = rng() % 2 == 0;
            let evicted = |v: Option<(u64, Arc<[u8]>, bool)>| {
                v.map(|(b, d, dirty)| (b, d[..].try_into().unwrap(), dirty))
            };
            match rng() % 28 {
                0..=9 => {
                    if c.is_full() && !c.contains(blk) {
                        assert_eq!(evicted(c.evict_lru_prefer_clean()), m.evict(true));
                        evictions += 1;
                    }
                    c.insert(blk, data.to_vec(), dirty);
                    m.store(blk, data, dirty);
                }
                10 | 11 => {
                    let hit = c.overwrite(blk, &data, dirty);
                    assert_eq!(hit, m.find(blk).is_some());
                    if hit {
                        m.store(blk, data, dirty);
                    }
                }
                12 | 13 => {
                    let got = c.get_rc(blk).map(|d| d.to_vec());
                    assert_eq!(got, m.touch(blk, false).map(|d| d.to_vec()));
                }
                14 | 15 => {
                    let got = c.get_rc(blk);
                    let want = m.touch(blk, false).copied();
                    assert_eq!(got.as_deref(), want.as_ref().map(|d| &d[..]));
                    if let (Some(h), Some(w)) = (got, want) {
                        held.push((h, w));
                    }
                    if held.len() > 8 {
                        held.swap_remove(rng() as usize % held.len());
                    }
                }
                16..=18 => {
                    let want = m.touch(blk, dirty);
                    let mut seen = None;
                    let got = c.edit(blk, dirty, |g| {
                        seen = Some(g.to_vec());
                        g[data[0] as usize % 4] = data[1];
                    });
                    assert_eq!(got.is_some(), want.is_some());
                    if let Some(w) = want {
                        assert_eq!(seen.as_deref(), Some(&w[..]));
                        w[data[0] as usize % 4] = data[1];
                        assert_eq!(got.map(|g| &g[..]), Some(&w[..]));
                    }
                }
                19 => {
                    let got = c
                        .remove(blk)
                        .map(|(d, dirty)| (blk, d[..].try_into().unwrap(), dirty));
                    assert_eq!(got, m.remove(blk));
                }
                20 => assert_eq!(evicted(c.evict_lru()), m.evict(false)),
                21 => assert_eq!(evicted(c.evict_lru_prefer_clean()), m.evict(true)),
                22 => {
                    // A flush that runs out of budget: everything is taken
                    // clean, then an arbitrary subset (plus strangers) is
                    // put back dirty with its recency intact.
                    let taken = c.take_dirty_sorted();
                    assert_eq!(taken, m.dirty_sorted());
                    assert_eq!(c.dirty_count(), 0);
                    let keep = rng();
                    let mut back: Vec<u64> = taken
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| keep >> (k % 64) & 1 == 1)
                        .map(|(_, &b)| b)
                        .collect();
                    back.push(BLOCKS + 7);
                    back.push(rng() % BLOCKS);
                    c.mark_dirty(&back);
                    for e in m.blocks.iter_mut() {
                        e.1 = back.contains(&e.0);
                    }
                }
                23 if step % 50 == 0 => {
                    c.drop_clean();
                    m.blocks.retain(|e| e.1);
                }
                24 if step % 5 == 0 => {
                    // Snapshot: the other side restarts as a copy of this
                    // one, sharing every payload, and the two diverge.
                    let copy = sides[cur].clone();
                    sides[cur ^ 1] = copy;
                }
                25 => cur ^= 1,
                _ => {
                    assert_eq!(c.map.len(), m.blocks.len());
                    assert_eq!(c.dirty_count(), m.blocks.iter().filter(|e| e.1).count());
                    c.check_invariants();
                    for e in &m.blocks {
                        assert_eq!(c.peek(e.0).map(|b| &b[..]), Some(&e.3[..]), "block {}", e.0);
                    }
                    for (h, w) in &held {
                        assert_eq!(&h[..], w, "a held handle saw a later write");
                    }
                }
            }
        }
        assert!(evictions > 1000, "the run must stay eviction-bound");
    }
}
