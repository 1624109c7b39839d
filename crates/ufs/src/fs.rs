//! The update-in-place file system proper.
//!
//! Faithful to the behaviours the paper's benchmarks exercise:
//!
//! * **Synchronous metadata** — creates and deletes write the inode and the
//!   directory block to the device before returning (the Solaris UFS
//!   discipline that makes small-file workloads disk-bound);
//! * **Delayed or synchronous data** — data writes default to the buffer
//!   cache and are flushed, elevator-sorted and clustered, on `sync`; the
//!   benchmarks flip [`fscore::FileSystem::set_sync_writes`] on to model
//!   `O_SYNC` updates;
//! * **Update in place** — overwriting an allocated block rewrites the same
//!   device block, the behaviour eager writing is measured against;
//! * **Locality-aware allocation** — new blocks are taken near the file's
//!   previous block (first-fit from a moving hint), so sequential files lay
//!   out sequentially;
//! * **Read-ahead** — detected sequential reads prefetch a window of blocks
//!   with clustered device reads.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::dir::{Dirent, DIRENT_SIZE};
use crate::inode::{classify, BlockPath, Inode, NO_BLOCK, PTRS_PER_BLOCK};
use crate::layout::{zeroed_block, Layout, BLOCK_SIZE, INODE_SIZE, ZERO_BLOCK};
use crate::tree::{self, Node, TreeVisitor, Verdict, ROOT_INO};
use disksim::codec::{get_bytes, get_u32, put_u32};
use disksim::{pooled_copy, BlockDevice, DeviceSnapshot, SharedBlocks, SimClock};
use fscore::{BufferCache, FileId, FileSystem, FsError, FsResult, HostModel};

/// `data` in `spare` when no one else holds it, else in a pooled buffer
/// ([`disksim::pooled_copy`]): on a device that keeps blocks, the page its
/// last kept write replaced.
fn refill(spare: Option<Arc<[u8]>>, data: &[u8]) -> Arc<[u8]> {
    if let Some(mut block) = spare {
        if let Some(buf) = Arc::get_mut(&mut block) {
            buf.copy_from_slice(data);
            return block;
        }
    }
    pooled_copy(data)
}

/// Block `i` of a shared read as a buffer to cache: the drive's own page
/// where the device lent one, else a copy (counted in `copies`).
fn take_block(shared: &SharedBlocks, i: usize, copies: &mut u64) -> Arc<[u8]> {
    let range = i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE;
    shared.page(range.clone()).unwrap_or_else(|| {
        *copies += 1;
        pooled_copy(shared.get(range, &mut Vec::new()))
    })
}

/// Slot occupancy of one directory, with the lowest free slot kept current
/// so a create does not rescan the occupied prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirSlots {
    used: Vec<bool>,
    /// Lowest `i` with `!used[i]`, or `used.len()` when every slot is taken.
    first_free: usize,
}

impl DirSlots {
    /// The slot the next entry goes in, growing the directory when full.
    fn lowest_free(&mut self) -> u64 {
        if self.first_free == self.used.len() {
            self.used.push(false);
        }
        self.first_free as u64
    }

    /// Mark `slot` used or free, growing the directory to reach it.
    pub(crate) fn set(&mut self, slot: u64, used: bool) {
        let slot = slot as usize;
        if slot >= self.used.len() {
            self.used.resize(slot + 1, false);
        }
        self.used[slot] = used;
        if !used {
            self.first_free = self.first_free.min(slot);
        } else if slot == self.first_free {
            let free_after = self.used[slot..].iter().position(|u| !u);
            self.first_free = free_after.map_or(self.used.len(), |d| slot + d);
        }
    }
}

/// Where a named object lives: its inode, and the directory slot naming it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathEntry {
    pub(crate) ino: u32,
    pub(crate) parent: u32,
    pub(crate) slot: u64,
    pub(crate) is_dir: bool,
}

/// Tuning knobs for a [`Ufs`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UfsConfig {
    /// Number of inodes to format.
    pub inode_count: u32,
    /// Buffer-cache size in bytes.
    pub cache_bytes: usize,
    /// Make data writes synchronous from the start.
    pub sync_data: bool,
    /// Read-ahead window in blocks (0 disables).
    pub readahead_blocks: u64,
    /// Issue `trim` to the device when files are deleted. Off by default:
    /// the paper's VLD only learns of deletes by overwrite detection.
    pub trim_on_delete: bool,
    /// When the cache fills, flush *all* dirty blocks (sorted) instead of
    /// evicting one at a time — the paper's NVRAM-buffer discipline for the
    /// LFS experiments ("we do not flush to disk until the buffer cache is
    /// full").
    pub flush_on_full: bool,
}

impl Default for UfsConfig {
    fn default() -> Self {
        Self {
            inode_count: 2048,
            cache_bytes: 16 << 20,
            sync_data: false,
            readahead_blocks: 16,
            trim_on_delete: false,
            flush_on_full: false,
        }
    }
}

/// The update-in-place file system over any block device.
pub struct Ufs {
    dev: Box<dyn BlockDevice>,
    pub(crate) state: UfsState,
    /// Whole-block payload copies made outside the cache (the cache counts
    /// its own copy-on-write): see [`Ufs::update_cache_gauges`].
    copies: u64,
    /// `(cache probes, block copies)` already added to the metrics counters.
    work_published: (u64, u64),
    /// A block buffer a write-through fills before the cached block changes
    /// (see [`Ufs::put_block`]): the payload the last one replaced.
    spare_block: Option<Arc<[u8]>>,
    /// What a device that cannot lend its media reads into (see
    /// [`BlockDevice::share_blocks`]).
    read_spare: Vec<u8>,
    /// Observability sink (disabled by default — a single branch per use).
    metrics: disksim::Metrics,
    /// Causal-span handle shared with the device stack below (cloned from
    /// [`BlockDevice::spans`] at construction, so spans opened here are the
    /// attribution targets for the disk commands the stack issues).
    spans: disksim::Spans,
}

/// Every piece of file-system state a [`Ufs`] holds above its device
/// (bitmaps, buffer cache, directory index, handles, allocation hints):
/// the value a snapshot carries.
#[derive(Clone)]
pub(crate) struct UfsState {
    host: HostModel,
    pub(crate) layout: Layout,
    cfg: UfsConfig,
    pub(crate) inode_bm: Bitmap,
    /// Bitmap over the data region (bit 0 = layout.data_start).
    pub(crate) block_bm: Bitmap,
    cache: BufferCache,
    /// Directory index: normalised path → entry location.
    pub(crate) names: HashMap<String, PathEntry>,
    /// Per-directory slot occupancy for O(1) free-slot search. A directory
    /// no entry has been written to has none.
    pub(crate) dir_slots: HashMap<u32, DirSlots>,
    /// Open-file table: handle `h` names the inode at index `h - 1`. The
    /// `FileSystem` interface has no close, so handles are issued in
    /// sequence and never retired — a flat table, four bytes a handle.
    handles: Vec<u32>,
    /// ino → (last file block read, first un-prefetched file block), for
    /// sequential-read detection and windowed read-ahead.
    seq_state: HashMap<u32, (u64, u64)>,
    /// Moving allocation hint within the data region.
    alloc_hint: u64,
    /// Pointer blocks with delayed slot updates, written through at the
    /// end of the operation (see [`Ufs::flush_pointer_blocks`]).
    dirty_ptrs: std::collections::BTreeSet<u64>,
    sync_data: bool,
}

impl UfsState {
    /// A volume with nothing indexed or cached yet. `inode_count` comes
    /// from `layout`; every other setting from `cfg`.
    pub(crate) fn new(
        host: HostModel,
        layout: Layout,
        cfg: UfsConfig,
        bitmaps: (Bitmap, Bitmap),
    ) -> Self {
        let cfg = UfsConfig {
            inode_count: layout.inode_count,
            ..cfg
        };
        Self {
            host,
            layout,
            cfg,
            inode_bm: bitmaps.0,
            block_bm: bitmaps.1,
            cache: BufferCache::with_bytes(cfg.cache_bytes, BLOCK_SIZE),
            names: HashMap::new(),
            dir_slots: HashMap::new(),
            handles: Vec::new(),
            seq_state: HashMap::new(),
            alloc_hint: 0,
            dirty_ptrs: std::collections::BTreeSet::new(),
            sync_data: cfg.sync_data,
        }
    }
}

impl Ufs {
    /// Format a fresh file system on `dev` and mount it.
    pub fn format(dev: Box<dyn BlockDevice>, host: HostModel, cfg: UfsConfig) -> FsResult<Ufs> {
        assert_eq!(
            dev.block_size(),
            BLOCK_SIZE,
            "UFS expects 4 KB device blocks"
        );
        let layout = Layout::compute(dev.num_blocks(), cfg.inode_count)?;
        let bitmaps = (
            Bitmap::new(cfg.inode_count as u64),
            Bitmap::new(layout.data_blocks()),
        );
        let mut fs = Self::assemble(dev, UfsState::new(host, layout, cfg, bitmaps));
        // Superblock, root inode, bitmaps.
        let sp = fs.span_open(disksim::SpanKind::FsOp, "ufs.format");
        fs.dev.write_gathered(0, &[&layout.encode()])?;
        fs.state.inode_bm.set(ROOT_INO as u64);
        fs.put_inode(ROOT_INO, &Inode::empty_dir(), true)?;
        fs.flush_bitmaps()?;
        fs.span_close(sp);
        Ok(fs)
    }

    /// The live system over `dev` in `state`: metrics detached, spans
    /// shared with the device stack, and the work counters starting here.
    pub(crate) fn assemble(dev: Box<dyn BlockDevice>, state: UfsState) -> Self {
        let spans = dev.spans();
        let work_published = (state.cache.probes(), state.cache.cow_copies());
        Ufs {
            dev,
            state,
            copies: 0,
            work_published,
            spare_block: None,
            read_spare: Vec::new(),
            metrics: disksim::Metrics::disabled(),
            spans,
        }
    }

    /// Capture the whole mounted system — the device stack below (down to
    /// the simulated media, shared copy-on-write) and every piece of
    /// file-system state (bitmaps, buffer cache, directory index, handles,
    /// allocation hints) — as a `Send + Sync` [`UfsSnapshot`]. Returns
    /// `None` if any device in the stack does not support snapshotting.
    ///
    /// [`UfsSnapshot::restore`] yields an independent system that continues
    /// exactly as this one would; observability handles are not captured (a
    /// restored system starts detached).
    pub fn snapshot(&self) -> Option<UfsSnapshot> {
        Some(UfsSnapshot {
            dev: self.dev.snapshot()?,
            state: self.state.clone(),
        })
    }

    /// Walk `inode`'s pointer tree through the buffer cache
    /// ([`tree::walk`]): `visit` judges each pointer on the way down, and
    /// `leave` hears of each followed pointer block on the way up.
    pub(crate) fn cache_walk(
        &mut self,
        mut inode: Inode,
        visit: impl FnMut(&mut Ufs, Node) -> FsResult<Verdict>,
        leave: impl FnMut(&mut Ufs, Node),
    ) -> FsResult<()> {
        tree::walk(&mut inode, &mut CacheWalk(self, visit, leave)).map(drop)
    }

    /// Access the underlying device (e.g. to harvest statistics).
    pub fn device(&self) -> &dyn BlockDevice {
        self.dev.as_ref()
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        self.dev.as_mut()
    }

    /// Consume the file system, returning the device.
    pub fn into_device(self) -> Box<dyn BlockDevice> {
        self.dev
    }

    /// Attach a metrics registry; the buffer-cache hit/miss/dirty gauges
    /// and the `ufs.cache_probes` / `ufs.block_copies` work counters are
    /// brought up to date here, on flush and on idle (cold paths only).
    pub fn set_metrics(&mut self, metrics: disksim::Metrics) {
        self.metrics = metrics;
        self.update_cache_gauges();
    }

    /// Open a causal span at the current device clock. Returns 0 (no span,
    /// nothing to close) when span tracing is disabled — one branch of cost.
    fn span_open(&self, kind: disksim::SpanKind, label: &'static str) -> u32 {
        if self.spans.is_enabled() {
            self.spans.open(kind, label, self.dev.clock().now())
        } else {
            0
        }
    }

    /// Close a span previously opened by [`Ufs::span_open`].
    pub(crate) fn span_close(&self, sp: u32) {
        if sp != 0 {
            self.spans.close(sp, self.dev.clock().now());
        }
    }

    /// Refresh the cache gauges from the buffer cache's own counters, and
    /// add the file layer's deterministic work since the last refresh to
    /// its two counters: `ufs.cache_probes` (keyed buffer-cache calls) and
    /// `ufs.block_copies` (whole-block payload copies: caller data into the
    /// cache, cached data out to the caller, copy-on-write, a block a read
    /// could not take as the drive's own page; a flush copies nothing).
    /// The hot paths only bump plain integers; the one `is_enabled` branch
    /// is here.
    fn update_cache_gauges(&mut self) {
        if !self.metrics.is_enabled() {
            return;
        }
        let (hits, misses) = self.state.cache.stats();
        self.metrics.gauge("ufs.cache_hits", hits as i64);
        self.metrics.gauge("ufs.cache_misses", misses as i64);
        self.metrics
            .gauge("ufs.cache_dirty", self.state.cache.dirty_count() as i64);
        let work = (
            self.state.cache.probes(),
            self.copies + self.state.cache.cow_copies(),
        );
        self.metrics
            .add("ufs.cache_probes", work.0 - self.work_published.0);
        self.metrics
            .add("ufs.block_copies", work.1 - self.work_published.1);
        self.work_published = work;
    }

    // ----- low-level block helpers ------------------------------------

    fn cache_insert(&mut self, blk: u64, data: Arc<[u8]>, dirty: bool) -> FsResult<()> {
        if self.state.cache.is_full()
            && !self.state.cache.contains(blk)
            && self.state.cfg.flush_on_full
            && self.state.cache.dirty_count() * 4 >= self.state.cache.capacity() * 3
        {
            // NVRAM discipline: once the buffer is substantially dirty,
            // drain it all at once; clean blocks then evict for free.
            self.flush_dirty_sorted()?;
        }
        let mut sp = 0;
        while self.state.cache.is_full() && !self.state.cache.contains(blk) {
            let (vb, vd, vdirty) = self
                .state
                .cache
                .evict_lru_prefer_clean()
                .expect("full cache is non-empty");
            if vdirty {
                // Open lazily: most evictions find a clean victim and touch
                // no disk, so they should not mint a span record.
                if sp == 0 {
                    sp = self.span_open(disksim::SpanKind::CacheFlush, "ufs.evict");
                }
                self.dev.write_gathered(vb, &[&vd])?;
            }
        }
        self.span_close(sp);
        self.state.cache.insert(blk, data, dirty);
        Ok(())
    }

    /// Read a device block, bypassing the cache: the drive's own page where
    /// the device lends it (shared, so copy it before editing), else a
    /// buffer of its own.
    fn load_block(&mut self, blk: u64) -> FsResult<Arc<[u8]>> {
        let mut spare = std::mem::take(&mut self.read_spare);
        let (shared, _) = self.dev.share_blocks(blk, 1, &mut spare)?;
        let data = take_block(&shared, 0, &mut self.copies);
        drop(shared);
        self.read_spare = spare;
        Ok(data)
    }

    /// Read a device block through the cache. The returned handle shares
    /// the cached payload — a hit costs an `Arc` clone, not a 4 KB copy.
    /// Drop it before editing the block, or the edit copies-on-write.
    pub(crate) fn get_block(&mut self, blk: u64) -> FsResult<Arc<[u8]>> {
        if let Some(d) = self.state.cache.get_rc(blk) {
            return Ok(d);
        }
        let data = self.load_block(blk)?;
        self.cache_insert(blk, Arc::clone(&data), false)?;
        Ok(data)
    }

    /// Overwrite a whole device block from the caller's slice:
    /// synchronously (write-through) or delayed. The bytes are copied once,
    /// into the buffer the cache will hold. A write-through fills the spare
    /// buffer and hands it to the device (which may keep it rather than
    /// copy it) before it replaces the cached payload, so a failed one
    /// leaves the cache as it was; the payload it replaces is the next
    /// spare.
    fn put_block(&mut self, blk: u64, data: &[u8], sync: bool) -> FsResult<()> {
        if !sync {
            self.copies += 1;
            if self.state.cache.overwrite(blk, data, true) {
                return Ok(());
            }
            return self.cache_insert(blk, pooled_copy(data), true);
        }
        let block = refill(self.spare_block.take(), data);
        if let Err(e) = self.dev.write_gathered(blk, &[&block]) {
            self.spare_block = Some(block);
            return Err(e.into());
        }
        self.copies += 1;
        match self.state.cache.swap(blk, block, false) {
            Ok(old) => {
                self.spare_block = Some(old);
                Ok(())
            }
            Err(block) => self.cache_insert(blk, block, false),
        }
    }

    /// Read-modify-write part of a device block, in place in the cache:
    /// `edit` gets the block's current bytes, and the result is written
    /// through (`sync`) or left dirty. A failed write-through leaves the
    /// cached copy ahead of the media, as a failed delayed flush does.
    fn update_block(&mut self, blk: u64, sync: bool, mut edit: impl FnMut(&mut [u8])) -> FsResult<()> {
        if let Some(data) = self.state.cache.edit(blk, !sync, &mut edit) {
            if sync {
                self.dev.write_gathered(blk, &[data])?;
            }
            return Ok(());
        }
        let mut data = self.load_block(blk)?;
        if Arc::get_mut(&mut data).is_none() {
            data = pooled_copy(&data);
            self.copies += 1;
        }
        edit(Arc::get_mut(&mut data).expect("sole owner"));
        // Make room (possibly writing a dirty victim) before this block's
        // own write-through, the order a read followed by a write has.
        self.cache_insert(blk, Arc::clone(&data), !sync)?;
        if sync {
            self.dev.write_gathered(blk, &[&data])?;
        }
        Ok(())
    }

    // ----- inode helpers ----------------------------------------------

    pub(crate) fn get_inode(&mut self, ino: u32) -> FsResult<Inode> {
        let (blk, off) = self.state.layout.inode_location(ino);
        let buf = self.get_block(blk)?;
        Inode::decode(get_bytes(&buf, off, INODE_SIZE)?)
    }

    fn put_inode(&mut self, ino: u32, inode: &Inode, sync: bool) -> FsResult<()> {
        let (blk, off) = self.state.layout.inode_location(ino);
        // The block holds other inodes too, so read-modify-write.
        self.update_block(blk, sync, |buf| {
            inode.encode_into(&mut buf[off..off + INODE_SIZE])
        })
    }

    // ----- allocation ---------------------------------------------------

    fn usable_free(&self) -> u64 {
        self.state
            .block_bm
            .free()
            .saturating_sub(self.state.layout.reserved_blocks)
    }

    fn alloc_data_block(&mut self, hint: u64) -> FsResult<u64> {
        if self.usable_free() == 0 {
            return Err(FsError::NoSpace);
        }
        let idx = self
            .state
            .block_bm
            .alloc_from(hint)
            .ok_or(FsError::NoSpace)?;
        self.state.alloc_hint = idx + 1;
        Ok(self.state.layout.data_start + idx)
    }

    fn free_data_block(&mut self, blk: u64) {
        debug_assert!(blk >= self.state.layout.data_start);
        self.state
            .block_bm
            .clear(blk - self.state.layout.data_start);
        self.state.cache.remove(blk);
        self.state.dirty_ptrs.remove(&blk);
        if self.state.cfg.trim_on_delete {
            let _ = self.dev.trim(blk);
        }
    }

    /// Resolve the device block backing `file_block` of `inode`, allocating
    /// data and indirect blocks as needed when `allocate` is set. Returns
    /// the device block and whether this call allocated it — a fresh block
    /// holds nothing worth reading back, and the pointer to it (in the
    /// inode or in a pointer block) is new. `None` means a hole, and is
    /// only returned when `allocate` is false.
    fn resolve_block(
        &mut self,
        inode: &mut Inode,
        file_block: u64,
        allocate: bool,
    ) -> FsResult<Option<(u64, bool)>> {
        let hint = self.state.alloc_hint;
        match classify(file_block)? {
            BlockPath::Direct(i) => {
                let fresh = inode.direct[i] == NO_BLOCK;
                if fresh {
                    if !allocate {
                        return Ok(None);
                    }
                    inode.direct[i] = self.alloc_data_block(hint)? as u32;
                }
                Ok(Some((inode.direct[i] as u64, fresh)))
            }
            BlockPath::Indirect(i) => {
                if inode.indirect == NO_BLOCK {
                    if !allocate {
                        return Ok(None);
                    }
                    let b = self.alloc_data_block(hint)?;
                    // Pointer blocks are metadata: written through before
                    // anything on media can reference them. An inode block
                    // can reach the media early (a synchronous update to a
                    // neighbouring inode carries the whole block), so a
                    // cached-only pointer block would leave an on-media
                    // inode pointing at stale garbage after a crash.
                    self.put_block(b, &ZERO_BLOCK, true)?;
                    inode.indirect = b as u32;
                }
                self.resolve_via(inode.indirect as u64, i, allocate, false)
            }
            BlockPath::Double(i, j) => {
                if inode.dindirect == NO_BLOCK {
                    if !allocate {
                        return Ok(None);
                    }
                    let b = self.alloc_data_block(hint)?;
                    self.put_block(b, &ZERO_BLOCK, true)?;
                    inode.dindirect = b as u32;
                }
                let Some((l1, _)) = self.resolve_via(inode.dindirect as u64, i, allocate, true)?
                else {
                    return Ok(None);
                };
                self.resolve_via(l1, j, allocate, false)
            }
        }
    }

    /// Look up (or allocate) slot `idx` inside the pointer block `ptr_blk`;
    /// the result reads as [`Ufs::resolve_block`]'s. `child_is_ptr` says
    /// whether a freshly allocated child is itself a pointer block (a
    /// level-1 indirect) rather than a data block.
    fn resolve_via(
        &mut self,
        ptr_blk: u64,
        idx: u64,
        allocate: bool,
        child_is_ptr: bool,
    ) -> FsResult<Option<(u64, bool)>> {
        debug_assert!(idx < PTRS_PER_BLOCK);
        // The common case reads four bytes through the shared handle.
        let mut ptrs = self.get_block(ptr_blk)?;
        let o = idx as usize * 4;
        let cur = get_u32(&ptrs, o)?;
        if cur != NO_BLOCK {
            return Ok(Some((cur as u64, false)));
        }
        if !allocate {
            return Ok(None);
        }
        let b = self.alloc_data_block(self.state.alloc_hint)?;
        // A pointer-block child is zeroed on media before this slot can
        // reference it; data children are overwritten by the caller and may
        // stay delayed (a crash then leaves a pointer to stale data in an
        // unsynced file, which recovery semantics allow).
        self.put_block(b, &ZERO_BLOCK, child_is_ptr)?;
        // Caching the child may just have evicted the pointer block, so the
        // handle is what carries its bytes. Take the cache's reference away
        // (if it still has one) and the handle is the sole owner unless a
        // snapshot shares the payload: only then is the block copied.
        drop(self.state.cache.remove(ptr_blk));
        if Arc::get_mut(&mut ptrs).is_none() {
            ptrs = pooled_copy(&ptrs);
            self.copies += 1;
        }
        put_u32(Arc::get_mut(&mut ptrs).expect("sole owner"), o, b as u32);
        // The slot update is metadata but need not hit the media per slot:
        // it is delayed here and written through once per operation
        // ([`Ufs::flush_pointer_blocks`]), before the inode that leads to
        // it can reach the media.
        self.cache_insert(ptr_blk, ptrs, true)?;
        self.state.dirty_ptrs.insert(ptr_blk);
        Ok(Some((b, true)))
    }

    /// Write through every pointer block with delayed slot updates. Called
    /// at the end of each mutating operation so on-media metadata is always
    /// structurally consistent: an inode block can reach the media at any
    /// later point (a synchronous update to a neighbouring inode carries
    /// the whole block, and cache pressure evicts dirty blocks), and the
    /// pointer chain it references must already be there.
    fn flush_pointer_blocks(&mut self) -> FsResult<()> {
        while let Some(blk) = self.state.dirty_ptrs.pop_first() {
            if let Some((data, dirty)) = self.state.cache.remove(blk) {
                if dirty {
                    self.dev.write_gathered(blk, &[&data])?;
                }
                self.state.cache.insert(blk, data, false);
            }
        }
        Ok(())
    }

    // ----- directories ----------------------------------------------------

    /// Normalise a path: strip leading/trailing separators, reject empty
    /// names and empty segments, validate every component.
    fn normalize(path: &str) -> FsResult<String> {
        let trimmed = path.trim_matches('/');
        if trimmed.is_empty() {
            return Err(FsError::Invalid("empty path"));
        }
        for seg in trimmed.split('/') {
            Dirent::check_name(seg)?;
        }
        Ok(trimmed.to_string())
    }

    /// Split a normalised path into (parent path, leaf name).
    fn split_parent(path: &str) -> (Option<&str>, &str) {
        match path.rfind('/') {
            Some(i) => (Some(&path[..i]), &path[i + 1..]),
            None => (None, path),
        }
    }

    /// The inode of the directory that should contain `path`'s leaf.
    fn parent_dir_ino(&self, path: &str) -> FsResult<u32> {
        match Self::split_parent(path).0 {
            None => Ok(ROOT_INO),
            Some(parent) => {
                let e = self.state.names.get(parent).ok_or(FsError::NotFound)?;
                if !e.is_dir {
                    return Err(FsError::Invalid("path component is not a directory"));
                }
                Ok(e.ino)
            }
        }
    }

    /// Write a directory slot (synchronously — metadata), keep the
    /// directory inode's size current, and record the slot as used or free
    /// once the write has reached the device.
    pub(crate) fn write_dir_slot(
        &mut self,
        dir_ino: u32,
        slot_idx: u64,
        entry: Option<&Dirent>,
    ) -> FsResult<()> {
        let (file_block, o) = tree::slot_place(slot_idx);
        let mut dir = self.get_inode(dir_ino)?;
        let (dev_blk, _) = self
            .resolve_block(&mut dir, file_block, true)?
            .ok_or(FsError::NoSpace)?;
        self.update_block(dev_blk, true, |buf| match entry {
            Some(e) => e.encode_into(&mut buf[o..o + DIRENT_SIZE]),
            None => Dirent::clear_slot(&mut buf[o..o + DIRENT_SIZE]),
        })?;
        let needed = (slot_idx + 1) * DIRENT_SIZE as u64;
        if needed > dir.size {
            dir.size = needed;
            self.put_inode(dir_ino, &dir, true)?;
        }
        let slots = self.state.dir_slots.entry(dir_ino).or_default();
        slots.set(slot_idx, entry.is_some());
        Ok(())
    }

    /// Allocate an inode + directory entry for `path` (file or directory).
    fn create_entry(&mut self, path: &str, is_dir: bool) -> FsResult<PathEntry> {
        let path = Self::normalize(path)?;
        if self.state.names.contains_key(&path) {
            return Err(FsError::Exists);
        }
        let parent = self.parent_dir_ino(&path)?;
        let leaf = Self::split_parent(&path).1.to_string();
        let ino = self.state.inode_bm.alloc_from(1).ok_or(FsError::NoSpace)? as u32;
        // Synchronous metadata: inode first, then the directory entry that
        // makes it reachable (the safe ordering).
        let inode = if is_dir {
            Inode::empty_dir()
        } else {
            Inode::empty()
        };
        self.put_inode(ino, &inode, true)?;
        let slot = self
            .state
            .dir_slots
            .entry(parent)
            .or_default()
            .lowest_free();
        self.write_dir_slot(parent, slot, Some(&Dirent { ino, name: leaf }))?;
        let entry = PathEntry {
            ino,
            parent,
            slot,
            is_dir,
        };
        self.state.names.insert(path, entry);
        Ok(entry)
    }

    /// List the names directly inside a directory (`"/"` or `""` for the
    /// root), in unspecified order.
    pub fn list(&self, path: &str) -> FsResult<Vec<String>> {
        let dir_ino = match path.trim_matches('/') {
            "" => ROOT_INO,
            p => {
                let e = self.state.names.get(p).ok_or(FsError::NotFound)?;
                if !e.is_dir {
                    return Err(FsError::Invalid("not a directory"));
                }
                e.ino
            }
        };
        Ok(self
            .state
            .names
            .iter()
            .filter(|(_, e)| e.parent == dir_ino)
            .map(|(p, _)| p.rsplit('/').next().expect("non-empty path").to_string())
            .collect())
    }

    // ----- misc -----------------------------------------------------------

    /// Issue the next handle for inode `ino`.
    fn open_handle(&mut self, ino: u32) -> FileId {
        self.state.handles.push(ino);
        self.state.handles.len() as FileId
    }

    fn ino_of(&self, f: FileId) -> FsResult<u32> {
        let slot = usize::try_from(f).ok().and_then(|f| f.checked_sub(1));
        slot.and_then(|i| self.state.handles.get(i).copied())
            .ok_or(FsError::BadHandle)
    }

    fn flush_bitmaps(&mut self) -> FsResult<()> {
        let st = &mut self.state;
        let starts = [st.layout.inode_bitmap_start, st.layout.block_bitmap_start];
        for (bitmap, start) in [&mut st.inode_bm, &mut st.block_bm].into_iter().zip(starts) {
            for chunk in bitmap.take_dirty_chunks() {
                let data = bitmap.chunk_bytes(chunk);
                self.dev.write_gathered(start + chunk as u64, &[&data])?;
            }
        }
        Ok(())
    }

    /// Flush dirty cache blocks in elevator order, clustering physically
    /// contiguous runs into single device commands. Each flushed block also
    /// costs host CPU — the flush runs through the same user-level code as
    /// any other block write.
    fn flush_dirty_sorted(&mut self) -> FsResult<()> {
        let dirty = self.state.cache.take_dirty_sorted();
        self.state
            .host
            .charge(&self.dev.clock(), dirty.len() as u64);
        // Only mint a span when there is actually something to write back.
        let sp = if dirty.is_empty() {
            0
        } else {
            self.span_open(disksim::SpanKind::CacheFlush, "ufs.flush")
        };
        let r = self.flush_runs(&dirty);
        self.span_close(sp);
        r?;
        self.update_cache_gauges();
        Ok(())
    }

    /// Write a sorted dirty-block list as clustered runs (the I/O half of
    /// [`Ufs::flush_dirty_sorted`], split out so the flush span brackets it).
    fn flush_runs(&mut self, dirty: &[u64]) -> FsResult<()> {
        // Each run goes to the device in one command, its blocks taken
        // where the cache holds them.
        for run in dirty.chunk_by(|a, b| *b == *a + 1) {
            let blocks = self
                .state
                .cache
                .peek_each(run)
                .expect("flushed block cached");
            self.dev.write_gathered(run[0], &blocks)?;
        }
        Ok(())
    }

    /// Prefetch file blocks `[from, to)` with clustered device reads.
    fn readahead(&mut self, inode: &mut Inode, from: u64, to: u64) -> FsResult<()> {
        let mut targets = Vec::new();
        for fb in from..to {
            if let Some((db, _)) = self.resolve_block(inode, fb, false)? {
                if !self.state.cache.contains(db) {
                    targets.push(db);
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        // Each run is one shared read; the cache takes the drive's pages
        // where the device lends them.
        let mut spare = std::mem::take(&mut self.read_spare);
        for run in targets.chunk_by(|a, b| *b == *a + 1) {
            let (shared, _) = self.dev.share_blocks(run[0], run.len(), &mut spare)?;
            for (i, &blk) in run.iter().enumerate() {
                let data = take_block(&shared, i, &mut self.copies);
                self.cache_insert(blk, data, false)?;
            }
        }
        self.read_spare = spare;
        Ok(())
    }

    // ----- FsOp bodies ---------------------------------------------------
    //
    // The `FileSystem` entry points below are thin span wrappers around
    // these inner methods so `?` early returns cannot leak an open span.

    fn sync_inner(&mut self) -> FsResult<()> {
        self.flush_dirty_sorted()?;
        self.flush_bitmaps()?;
        // Let the device persist its own buffered state (the LLD's
        // partial-segment flush and checkpoint; a no-op for write-through
        // devices).
        self.dev.flush()?;
        Ok(())
    }

    fn write_inner(&mut self, f: FileId, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.ino_of(f)?;
        let blocks = (data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        self.state.host.charge(&self.dev.clock(), blocks);
        if data.is_empty() {
            return Ok(());
        }
        let mut inode = self.get_inode(ino)?;
        // Extending past EOF exposes bytes of already-allocated blocks in
        // the gap `[size, offset)` — the old last block's tail, and (after
        // a crash persisted pointers but not delayed data) even whole
        // blocks past it — which can hold garbage rather than zero
        // padding. Zero whatever is allocated there so the gap reads as
        // the hole POSIX promises; unallocated blocks already do.
        if offset > inode.size {
            let bs = BLOCK_SIZE as u64;
            for fb in inode.size / bs..=(offset - 1) / bs {
                let Some((dev_blk, _)) = self.resolve_block(&mut inode, fb, false)? else {
                    continue;
                };
                let lo = inode.size.saturating_sub(fb * bs).min(bs) as usize;
                let hi = (offset - fb * bs).min(bs) as usize;
                if lo >= hi {
                    continue;
                }
                self.update_block(dev_blk, self.state.sync_data, |buf| buf[lo..hi].fill(0))?;
            }
        }
        let mut pos = 0usize;
        let mut off = offset;
        let mut inode_dirty = false;
        while pos < data.len() {
            let fb = off / BLOCK_SIZE as u64;
            let in_block = (off % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(data.len() - pos);
            let (dev_blk, fresh) = self
                .resolve_block(&mut inode, fb, true)?
                .ok_or(FsError::NoSpace)?;
            // An allocation changed the inode or a pointer block under it.
            inode_dirty |= fresh;
            let piece = &data[pos..pos + n];
            if n == BLOCK_SIZE {
                self.put_block(dev_blk, piece, self.state.sync_data)?;
            } else if !fresh {
                // Partial overwrite: read-modify-write in the cached block.
                self.update_block(dev_blk, self.state.sync_data, |buf| {
                    buf[in_block..in_block + n].copy_from_slice(piece)
                })?;
            } else {
                // Part of a fresh block: the rest of it reads as zeros.
                let mut block = zeroed_block();
                let buf = Arc::get_mut(&mut block).expect("fresh buffer is unshared");
                buf[in_block..in_block + n].copy_from_slice(piece);
                if self.state.sync_data {
                    self.dev.write_gathered(dev_blk, &[&block])?;
                }
                self.cache_insert(dev_blk, block, !self.state.sync_data)?;
            }
            pos += n;
            off += n as u64;
        }
        if off > inode.size {
            inode.size = off;
            inode_dirty = true;
        }
        // Pointer blocks updated by this write reach the media before the
        // inode that references them possibly can.
        self.flush_pointer_blocks()?;
        if inode_dirty {
            // File-growth metadata is delayed (flushed on sync), matching
            // the FFS discipline for write-path updates.
            self.put_inode(ino, &inode, false)?;
        }
        Ok(())
    }

    fn read_inner(&mut self, f: FileId, offset: u64, out: &mut [u8]) -> FsResult<usize> {
        let ino = self.ino_of(f)?;
        let blocks = (out.len() as u64).div_ceil(BLOCK_SIZE as u64);
        self.state.host.charge(&self.dev.clock(), blocks);
        let mut inode = self.get_inode(ino)?;
        if offset >= inode.size {
            return Ok(0);
        }
        let want = out.len().min((inode.size - offset) as usize);
        let mut pos = 0usize;
        let mut off = offset;
        while pos < want {
            let fb = off / BLOCK_SIZE as u64;
            let in_block = (off % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(want - pos);
            match self.resolve_block(&mut inode, fb, false)? {
                Some((dev_blk, _)) => {
                    let buf = self.get_block(dev_blk)?;
                    out[pos..pos + n].copy_from_slice(&buf[in_block..in_block + n]);
                    self.copies += (n == BLOCK_SIZE) as u64;
                }
                None => out[pos..pos + n].fill(0), // hole
            }
            // Sequential-read detection drives windowed read-ahead: once a
            // run is detected, keep the next `readahead_blocks` blocks
            // prefetched, refilling in batches when the window half-drains.
            let ra = self.state.cfg.readahead_blocks;
            let (last_fb, mut ra_until) = self
                .state
                .seq_state
                .get(&ino)
                .copied()
                .unwrap_or((u64::MAX, 0));
            let sequential = fb == last_fb.wrapping_add(1) || fb == last_fb;
            if sequential && ra > 0 && fb + ra / 2 + 1 >= ra_until {
                let start = ra_until.max(fb + 1);
                let end = (fb + 1 + ra).min(inode.blocks());
                if start < end {
                    self.readahead(&mut inode, start, end)?;
                    ra_until = end;
                }
            }
            self.state.seq_state.insert(ino, (fb, ra_until));
            pos += n;
            off += n as u64;
        }
        Ok(want)
    }

    fn delete_inner(&mut self, name: &str) -> FsResult<()> {
        self.state.host.charge(&self.dev.clock(), 0);
        let path = Self::normalize(name)?;
        let e = *self.state.names.get(&path).ok_or(FsError::NotFound)?;
        let slots = self.state.dir_slots.get(&e.ino);
        if e.is_dir && slots.is_some_and(|s| s.used.contains(&true)) {
            return Err(FsError::Invalid("directory not empty"));
        }
        let (ino, slot) = (e.ino, e.slot);
        // Directory entry out first (synchronously), then free the inode
        // and blocks.
        self.write_dir_slot(e.parent, slot, None)?;
        self.state.names.remove(&path);
        if e.is_dir {
            self.state.dir_slots.remove(&ino);
        }
        let mut inode = self.get_inode(ino)?;
        // Free every data and pointer block, each pointer block after the
        // blocks it names.
        let free_data = |fs: &mut Ufs, n: Node| -> FsResult<Verdict> {
            if n.level == 0 {
                fs.free_data_block(n.block);
            }
            Ok(Verdict::Follow)
        };
        self.cache_walk(inode, free_data, |fs, n| fs.free_data_block(n.block))?;
        inode = Inode::empty();
        inode.allocated = false;
        self.put_inode(ino, &inode, true)?;
        self.state.inode_bm.clear(ino as u64);
        self.state.seq_state.remove(&ino);
        Ok(())
    }

    fn rename_inner(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.state.host.charge(&self.dev.clock(), 0);
        let from = Self::normalize(from)?;
        let to = Self::normalize(to)?;
        let e = *self.state.names.get(&from).ok_or(FsError::NotFound)?;
        if e.is_dir {
            return Err(FsError::Invalid("directory rename not supported"));
        }
        if from == to {
            return Ok(());
        }
        if self.state.names.contains_key(&to) {
            return Err(FsError::Exists);
        }
        let new_parent = self.parent_dir_ino(&to)?;
        let leaf = Self::split_parent(&to).1.to_string();
        // Synchronous metadata, safe ordering: the new entry lands first,
        // then the old one is cleared — a crash in between leaves the file
        // reachable under both names, never under none.
        let slot = self
            .state
            .dir_slots
            .entry(new_parent)
            .or_default()
            .lowest_free();
        self.write_dir_slot(
            new_parent,
            slot,
            Some(&Dirent {
                ino: e.ino,
                name: leaf,
            }),
        )?;
        self.write_dir_slot(e.parent, e.slot, None)?;
        self.state.names.remove(&from);
        self.state.names.insert(
            to,
            PathEntry {
                ino: e.ino,
                parent: new_parent,
                slot,
                is_dir: false,
            },
        );
        Ok(())
    }
}

/// A pointer-tree walk through the buffer cache (see [`Ufs::cache_walk`]).
struct CacheWalk<'a, V, L>(&'a mut Ufs, V, L);

impl<V, L> TreeVisitor for CacheWalk<'_, V, L>
where
    V: FnMut(&mut Ufs, Node) -> FsResult<Verdict>,
    L: FnMut(&mut Ufs, Node),
{
    type Block = Arc<[u8]>;

    fn read(&mut self, blk: u64) -> FsResult<Arc<[u8]>> {
        self.0.get_block(blk)
    }

    fn visit(&mut self, node: Node) -> FsResult<Verdict> {
        (self.1)(self.0, node)
    }

    fn leave(&mut self, node: Node) {
        (self.2)(self.0, node)
    }
}

/// A point-in-time image of a mounted [`Ufs`] and the whole device stack
/// under it. Plain data and `Send + Sync`: captured once, it can be
/// restored concurrently from many worker threads, each restore yielding a
/// fully independent system whose media pages and cache payloads are
/// shared copy-on-write with the snapshot and with sibling forks.
pub struct UfsSnapshot {
    dev: Box<dyn DeviceSnapshot>,
    state: UfsState,
}

// Snapshots must cross thread boundaries: the whole point is to capture
// once and restore from parallel figure-cell workers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<UfsSnapshot>();
};

impl UfsSnapshot {
    /// Materialise an independent live system from this snapshot. A fork's
    /// work counters start at the fork.
    pub fn restore(&self) -> Ufs {
        Ufs::assemble(self.dev.restore(), self.state.clone())
    }
}

impl FileSystem for Ufs {
    fn create(&mut self, name: &str) -> FsResult<FileId> {
        self.state.host.charge(&self.dev.clock(), 0);
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.create");
        let r = self.create_entry(name, false);
        self.span_close(sp);
        let entry = r?;
        Ok(self.open_handle(entry.ino))
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.state.host.charge(&self.dev.clock(), 0);
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.mkdir");
        let r = self.create_entry(path, true);
        self.span_close(sp);
        r?;
        Ok(())
    }

    fn open(&mut self, name: &str) -> FsResult<FileId> {
        self.state.host.charge(&self.dev.clock(), 0);
        let path = Self::normalize(name)?;
        let e = *self.state.names.get(&path).ok_or(FsError::NotFound)?;
        if e.is_dir {
            return Err(FsError::Invalid("is a directory"));
        }
        Ok(self.open_handle(e.ino))
    }

    fn write(&mut self, f: FileId, offset: u64, data: &[u8]) -> FsResult<()> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.write");
        let r = self.write_inner(f, offset, data);
        self.span_close(sp);
        r
    }

    fn read(&mut self, f: FileId, offset: u64, out: &mut [u8]) -> FsResult<usize> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.read");
        let r = self.read_inner(f, offset, out);
        self.span_close(sp);
        r
    }

    fn delete(&mut self, name: &str) -> FsResult<()> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.delete");
        let r = self.delete_inner(name);
        self.span_close(sp);
        r
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.rename");
        let r = self.rename_inner(from, to);
        self.span_close(sp);
        r
    }

    fn file_size(&mut self, f: FileId) -> FsResult<u64> {
        let ino = self.ino_of(f)?;
        Ok(self.get_inode(ino)?.size)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.state.host.charge(&self.dev.clock(), 0);
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.sync");
        let r = self.sync_inner();
        self.span_close(sp);
        r
    }

    fn drop_caches(&mut self) {
        self.state.cache.drop_clean();
        self.state.seq_state.clear();
    }

    fn set_sync_writes(&mut self, on: bool) {
        self.state.sync_data = on;
    }

    fn idle(&mut self, ns: u64) {
        let clock = self.dev.clock();
        let end = clock.now() + ns;
        if self.state.cfg.flush_on_full {
            // NVRAM discipline: use idle time for background write-back so
            // a later burst finds the buffer empty — with enough idle, the
            // flush (and any cleaning it triggers below) is entirely masked
            // and the foreground runs at memory speed.
            let sp = if self.state.cache.dirty_count() > 0 {
                self.span_open(disksim::SpanKind::CacheFlush, "ufs.idle_writeback")
            } else {
                0
            };
            while clock.now() < end && self.state.cache.dirty_count() > 0 {
                let mut dirty = self.state.cache.take_dirty_sorted();
                let taken = dirty.len();
                // Keep the blocks that stay unwritten: out of idle budget,
                // or refused by the device.
                dirty.retain(|&blk| {
                    if clock.now() >= end {
                        return true;
                    }
                    self.state.host.charge(&clock, 1);
                    let data = self.state.cache.peek(blk).expect("flushed block cached");
                    self.dev.write_gathered(blk, &[data]).is_err()
                });
                // Re-dirty them in place (no copy, recency intact), all in
                // one pass of the cache's lists.
                self.state.cache.mark_dirty(&dirty);
                // A pass that wrote nothing will not do better next time:
                // with a dead device and a host model that charges no time,
                // neither the clock nor the dirty count would ever move.
                if dirty.len() == taken {
                    break;
                }
            }
            self.span_close(sp);
            self.update_cache_gauges();
        }
        let remaining = end.saturating_sub(clock.now());
        fscore::fs::grant_idle(self.dev.as_mut(), remaining, &self.metrics);
    }

    fn clock(&self) -> SimClock {
        self.dev.clock()
    }

    fn utilization(&self) -> f64 {
        // df-style: the reserve counts as used.
        (self.state.block_bm.used() + self.state.layout.reserved_blocks) as f64
            / self.state.layout.data_blocks() as f64
    }

    fn free_blocks(&self) -> u64 {
        self.usable_free()
    }
}

/// The layout the `fsck` tests damage a volume against.
#[cfg(test)]
impl Ufs {
    /// The computed on-disk layout.
    pub(crate) fn layout(&self) -> &Layout {
        &self.state.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::NDIRECT;
    use disksim::{probe_device, DiskSpec, FaultDisk, FaultPlan, RegularDisk};
    use proptest::prelude::*;

    /// Blocks the aliasing test writes, from the start of the data region:
    /// none is allocated, so nothing else in the file system writes them.
    const SPAN: usize = 24;

    /// A fresh volume on the small paper disk, whose 16-block cache is
    /// smaller than [`SPAN`] so writes evict dirty blocks too.
    fn volume(dev: Box<dyn BlockDevice>) -> Ufs {
        let cfg = UfsConfig {
            cache_bytes: 16 * BLOCK_SIZE,
            ..UfsConfig::default()
        };
        Ufs::format(dev, HostModel::sparcstation_10(), cfg).expect("format")
    }

    fn regular() -> Box<dyn BlockDevice> {
        Box::new(RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BLOCK_SIZE))
    }

    /// A VLD on the small paper disk whose compactor works through every
    /// idle grant, so idle time moves blocks the cache shares.
    fn vld() -> Box<dyn BlockDevice> {
        let cfg = vlog_core::VldConfig {
            compactor: vlog_core::CompactorConfig {
                target_empty_tracks: u32::MAX,
                ..Default::default()
            },
            ..Default::default()
        };
        Box::new(vlog_core::Vld::format(DiskSpec::hp97560_sim(), SimClock::new(), cfg))
    }

    /// Blocks `blks` as the drive holds them, read from a restored copy of
    /// the stack so the reads change nothing.
    fn media(fs: &Ufs, blks: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        let mut dev = fs.dev.snapshot().expect("the stack snapshots").restore();
        let mut read = |blk| {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(blk, &mut buf).expect("in range");
            buf
        };
        blks.map(&mut read).collect()
    }

    /// `(cached bytes, dirty)` of `blk`, without touching the cache.
    fn cached(fs: &Ufs, blk: u64) -> Option<(Vec<u8>, bool)> {
        let mut cache = fs.state.cache.clone();
        let bytes = cache.peek(blk)?.to_vec();
        Some((bytes, cache.take_dirty_sorted().contains(&blk)))
    }

    /// What the file system must show for each of the [`SPAN`] blocks
    /// (`view`), and what the drive must hold for those the cache keeps
    /// dirty (`durable`): every other block is on the drive as viewed.
    #[derive(Clone)]
    struct Model {
        view: Vec<Vec<u8>>,
        durable: Vec<Vec<u8>>,
    }

    /// Every block's cached bytes are the view; a dirty block's drive bytes
    /// are the last durable ones, any other block's the view (which is
    /// then durable).
    fn check(fs: &Ufs, model: &mut Model, what: &str) {
        let base = fs.state.layout.data_start;
        let drive = media(fs, base..base + SPAN as u64);
        for (i, on_drive) in drive.into_iter().enumerate() {
            let cached = cached(fs, base + i as u64);
            if let Some((bytes, _)) = &cached {
                assert!(*bytes == model.view[i], "{what}: cached block {i}");
            }
            if cached.is_some_and(|(_, dirty)| dirty) {
                assert!(on_drive == model.durable[i], "{what}: dirty block {i} on the drive");
            } else {
                assert!(on_drive == model.view[i], "{what}: block {i} on the drive");
                model.durable[i].clone_from(&model.view[i]);
            }
        }
    }

    /// The drive keeps the cache's blocks as its pages, the cache reads
    /// the drive's pages, the VLD's compactor moves pages the cache
    /// shares, and snapshots share all of them: through random
    /// synchronous and delayed whole-block writes, partial edits, reads
    /// (a miss, or a read-ahead run over a file whose direct blocks are
    /// the first of the [`SPAN`]), flushes, cache drops, idle grants, and
    /// whole-stack snapshots, restores and drops, no write on one side
    /// shows through on the other, and no snapshot sees what was written
    /// after it.
    fn run_aliasing(dev: fn() -> Box<dyn BlockDevice>, ops: Vec<(u8, usize, u16, u8)>) {
        let mut fs = volume(dev());
        let base = fs.state.layout.data_start;
        let blank = vec![vec![0u8; BLOCK_SIZE]; SPAN];
        let mut model = Model {
            view: blank.clone(),
            durable: blank,
        };
        let mut saved: Vec<(UfsSnapshot, Model)> = Vec::new();
        let mut file = Inode::empty();
        for (k, ptr) in file.direct.iter_mut().enumerate() {
            *ptr = (base + k as u64) as u32;
        }
        for (step, (op, i, at, x)) in ops.into_iter().enumerate() {
            let (i, sync) = (i % SPAN, x % 2 == 0);
            let blk = base + i as u64;
            match op % 10 {
                0 | 1 => {
                    let data: Vec<u8> = (0..BLOCK_SIZE).map(|k| (step + k / 512) as u8 ^ x).collect();
                    fs.put_block(blk, &data, sync).expect("put");
                    model.view[i] = data;
                }
                2 | 3 => {
                    let lo = at as usize % BLOCK_SIZE;
                    let hi = (lo + 1 + x as usize * 37).min(BLOCK_SIZE);
                    fs.update_block(blk, sync, |buf| buf[lo..hi].fill(step as u8))
                        .expect("update");
                    model.view[i][lo..hi].fill(step as u8);
                }
                4 if x % 2 == 0 => {
                    let got = fs.get_block(blk).expect("read");
                    assert!(*got == model.view[i], "step {step}: read block {i}");
                }
                4 => {
                    let from = (i % NDIRECT) as u64;
                    let to = (from + 1 + at as u64 % 8).min(NDIRECT as u64);
                    fs.readahead(&mut file, from, to).expect("read-ahead");
                }
                5 => {
                    if x % 3 == 0 {
                        fs.drop_caches();
                    } else {
                        fs.sync().expect("sync");
                    }
                }
                6 => saved.push((fs.snapshot().expect("snapshot"), model.clone())),
                7 if !saved.is_empty() => {
                    let (snap, m) = &saved[at as usize % saved.len()];
                    fs = snap.restore();
                    model = m.clone();
                }
                8 if !saved.is_empty() => drop(saved.swap_remove(at as usize % saved.len())),
                9 => fs.idle((1 + at as u64 % 4) * 200_000_000),
                _ => {}
            }
            if sync && op % 10 < 4 {
                model.durable[i].clone_from(&model.view[i]);
            }
            check(&fs, &mut model, &format!("step {step}"));
        }
        for (n, (snap, m)) in saved.iter_mut().enumerate() {
            check(&snap.restore(), m, &format!("snapshot {n}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn cache_and_drive_share_blocks_without_aliasing(
            ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u16>(), any::<u8>()), 1..80),
        ) {
            run_aliasing(regular, ops);
        }

        #[test]
        fn cache_and_vld_share_blocks_without_aliasing(
            ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u16>(), any::<u8>()), 1..80),
        ) {
            run_aliasing(vld, ops);
        }
    }

    /// A write-through the device refuses changes nothing in the cache
    /// for a whole-block write (the cached block keeps its old bytes), and
    /// leaves a partial edit cached ahead of the media, as a failed flush
    /// does; the next write-through goes through.
    #[test]
    fn a_failed_write_through_leaves_the_cached_block() {
        let setup = |plan: FaultPlan| {
            let mut fs = volume(Box::new(FaultDisk::new(regular(), plan)));
            let blk = fs.state.layout.data_start;
            fs.put_block(blk, &[1u8; BLOCK_SIZE], true).expect("put");
            (fs, blk)
        };
        let (fs, _) = setup(FaultPlan::none());
        let ops = probe_device::<FaultDisk>(fs.device()).expect("fault layer").write_ops();
        // Plan indices count write ops from 1: fail the next two.
        let plan = FaultPlan::transient(ops + 1).with(ops + 2, disksim::WriteFault::Transient);
        let (mut fs, blk) = setup(plan);
        let old = vec![1u8; BLOCK_SIZE];

        assert!(fs.put_block(blk, &[2u8; BLOCK_SIZE], true).is_err());
        assert_eq!(cached(&fs, blk), Some((old.clone(), false)));
        assert_eq!(media(&fs, blk..blk + 1)[0], old);

        assert!(fs.update_block(blk, true, |buf| buf[..8].fill(3)).is_err());
        let mut ahead = old.clone();
        ahead[..8].fill(3);
        assert_eq!(cached(&fs, blk), Some((ahead, false)));
        assert_eq!(media(&fs, blk..blk + 1)[0], old);

        fs.put_block(blk, &[4u8; BLOCK_SIZE], true).expect("put");
        assert_eq!(cached(&fs, blk), Some((vec![4u8; BLOCK_SIZE], false)));
        assert_eq!(media(&fs, blk..blk + 1)[0], vec![4u8; BLOCK_SIZE]);
    }

    /// The cursor must name the slot a scan from index 0 finds, through any
    /// mix of creates and deletes.
    #[test]
    fn dir_slot_cursor_matches_a_scan_from_zero() {
        let mut slots = DirSlots::default();
        let mut x: u64 = 0xD15C;
        for step in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let scan = slots.used.iter().position(|u| !u);
            if !x.is_multiple_of(3) || slots.used.is_empty() {
                let slot = slots.lowest_free();
                assert_eq!(slot as usize, scan.unwrap_or(slots.used.len() - 1));
                // A failed slot write leaves the slot free for the next try.
                if step % 17 != 0 {
                    slots.set(slot, true);
                }
            } else {
                slots.set((x >> 8) % slots.used.len() as u64, false);
            }
            let lowest = slots.used.iter().position(|u| !u);
            assert_eq!(slots.first_free, lowest.unwrap_or(slots.used.len()));
        }
        assert!(slots.used.len() > 1000, "the directory must have grown");
    }
}
