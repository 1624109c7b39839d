//! The virtual log: an eager-written, tree-linked, recoverable
//! indirection map (§3 of the paper).
//!
//! Data blocks are written wherever is cheapest (eager writing); the
//! logical→physical *indirection map* makes them findable. The map is
//! persisted piecewise: each update writes the affected piece to a free
//! sector near the head, chained backward to the previous log tail
//! (Figure 3a). Overwriting a piece makes its old sector recyclable; the
//! new entry carries a *bypass* pointer past the dead sector so the chain
//! survives recycling (Figure 3b) — that is what makes the log "virtual":
//! entries are neither contiguous nor immortal, yet the tail reaches
//! everything live.
//!
//! A multi-block update writes all data blocks first, then the affected map
//! pieces, the last flagged as the transaction's commit record; recovery
//! ignores payloads of uncommitted parts, so updates are atomic with no
//! extra I/O.
//!
//! All I/O is simulated through [`disksim::Disk`]; every public operation
//! returns the [`ServiceTime`] it consumed.

use crate::alloc::{AllocConfig, AllocatorState, Candidate, EagerAllocator};
use crate::checkpoint::{Checkpoint, CheckpointRegion};
use crate::freemap::FreeMap;
use crate::mapsector::{MapFlags, MapSectorRef, TxnInfo, PIECE_ENTRIES, UNMAPPED};
use crate::piecetable::PieceTable;
use crate::tail::{TailRecord, FIRMWARE_SECTORS, TAIL_LBA};
use disksim::{Disk, DiskError, DiskSnapshot, Result, ServiceTime, SECTOR_BYTES};

/// Sectors per data block (4 KB physical blocks, as in the paper's VLD).
pub(crate) const BLOCK_SECTORS: u32 = 8;
/// Bytes per data block.
pub const BLOCK_BYTES: usize = BLOCK_SECTORS as usize * SECTOR_BYTES;

/// Where one live piece of the map currently sits on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceLoc {
    /// Sector holding the current version.
    pub lba: u64,
    /// Its sequence number.
    pub seq: u64,
    /// The previous-root pointer it was written with — needed as the bypass
    /// target when this version is later overwritten.
    pub prev: Option<(u64, u64)>,
}

/// Counters describing virtual-log activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct VlogStats {
    /// Logical data blocks written.
    pub data_writes: u64,
    /// Map sectors appended to the log.
    pub map_writes: u64,
    /// Logical data blocks read.
    pub(crate) data_reads: u64,
    /// Blocks relocated by the compactor.
    pub(crate) blocks_moved: u64,
    /// Compaction passes that emptied at least one track.
    pub(crate) tracks_emptied: u64,
    /// Multi-piece transactions committed.
    pub(crate) txns: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

/// The virtual log and everything it owns: the disk, the eager allocator,
/// and the log's state (free map, indirection map, chain bookkeeping).
#[derive(Debug)]
pub struct VirtualLog {
    pub(crate) disk: Disk,
    pub(crate) alloc: EagerAllocator,
    pub(crate) state: LogState,
    /// Metrics handle (disabled by default): log-depth / pending-recycle
    /// gauges and the map-sector chain-length histogram.
    pub(crate) metrics: disksim::Metrics,
    /// Scratch buffer for encoding map sectors and checkpoint slots: taken,
    /// filled and put back by every append and checkpoint, so neither
    /// performs a heap allocation (the same pooling idiom as `disksim`'s
    /// track buffers).
    append_buf: Vec<u8>,
}

/// Everything a [`VirtualLog`] holds beside its disk and allocator: the
/// value a snapshot carries, and the one format and recovery compute.
#[derive(Debug, Clone)]
pub(crate) struct LogState {
    pub(crate) free: FreeMap,
    /// Logical block → physical block ([`UNMAPPED`] = hole), paged by
    /// map piece so lookup is two array indexes.
    pub(crate) map: PieceTable,
    /// Physical block → logical block (UNMAPPED = not a live data block).
    pub(crate) rmap: Vec<u32>,
    /// Piece index → current on-disk location.
    pub(crate) pieces: Vec<Option<PieceLoc>>,
    /// Current log tail (root): (lba, seq).
    pub(crate) root: Option<(u64, u64)>,
    pub(crate) next_seq: u64,
    pub(crate) next_txn: u64,
    pub(crate) num_logical: u64,
    /// Physical blocks whose old contents become free once the in-flight
    /// commit is durable.
    pub(crate) deferred_blocks: Vec<u32>,
    /// Superseded map-piece blocks awaiting the next checkpoint. They stay
    /// allocated so the backward chain within the traversal window is never
    /// broken by recycling (§3.3's checkpoint makes recycling sound).
    pub(crate) pending_recycle: Vec<u64>,
    /// Placement of the two alternating checkpoint slots.
    pub(crate) ckpt_region: CheckpointRegion,
    /// Entries with `seq <` this are covered by the last checkpoint.
    pub(crate) checkpoint_seq: u64,
    /// Which slot the next checkpoint writes to.
    pub(crate) ckpt_use_b: bool,
    pub(crate) stats: VlogStats,
}

impl LogState {
    /// The state of an empty log on `disk`: nothing mapped, the firmware
    /// area and the checkpoint region allocated.
    pub(crate) fn empty(disk: &Disk) -> Self {
        let total_sectors = disk.spec().geometry.total_sectors();
        let num_logical = VirtualLog::logical_capacity(total_sectors);
        let n_pieces = (num_logical as usize).div_ceil(PIECE_ENTRIES);
        let ckpt_region =
            CheckpointRegion::layout(FIRMWARE_SECTORS, n_pieces, BLOCK_SECTORS as u64);
        let g = &disk.spec().geometry;
        let mut free = FreeMap::new(g);
        for area in [0..FIRMWARE_SECTORS, ckpt_region.slot_a..ckpt_region.end()] {
            // One ranged allocate per track the area touches.
            let mut lba = area.start;
            while lba < area.end {
                let p = g.lba_to_phys(lba).expect("metadata area within disk");
                let spt = g.sectors_per_track(p.cyl).expect("cylinder just resolved");
                let n = ((spt - p.sector) as u64).min(area.end - lba) as u32;
                free.allocate(p.cyl, p.track, p.sector, n)
                    .expect("metadata run within its track");
                lba += n as u64;
            }
        }
        Self {
            free,
            map: PieceTable::new(num_logical as usize),
            rmap: vec![UNMAPPED; (total_sectors / BLOCK_SECTORS as u64) as usize],
            pieces: vec![None; n_pieces],
            root: None,
            next_seq: 1,
            next_txn: 1,
            num_logical,
            deferred_blocks: Vec::new(),
            pending_recycle: Vec::new(),
            ckpt_region,
            checkpoint_seq: 0,
            ckpt_use_b: true,
            stats: VlogStats::default(),
        }
    }
}

impl VirtualLog {
    /// Format a fresh virtual log on `disk`: reserves the firmware area and
    /// starts with an empty map. The disk's own command overhead is zeroed —
    /// the log *is* the drive's firmware; per-command overhead is charged by
    /// the logical-disk layer ([`crate::Vld`]).
    pub fn format(mut disk: Disk, alloc_cfg: AllocConfig) -> Self {
        let state = LogState::empty(&disk);
        // Ensure the firmware tail slot starts unambiguously cleared and
        // slot A holds a valid (empty) checkpoint to boot from.
        disk.poke_sectors(TAIL_LBA, &TailRecord::cleared())
            .expect("firmware area exists on any disk");
        let initial = Checkpoint {
            seq: 0,
            pieces: state.pieces.clone(),
        };
        let region = state.ckpt_region;
        disk.poke_sectors(region.slot_a, &initial.encode(region.sectors))
            .expect("checkpoint region exists on any disk");
        Self::assemble(disk, EagerAllocator::new(alloc_cfg), state)
    }

    /// How many logical 4 KB blocks a disk with `total_sectors` sectors can
    /// expose, leaving room for the firmware area, the live map sectors and
    /// an eager-writing slack reserve.
    pub(crate) fn logical_capacity(total_sectors: u64) -> u64 {
        let mut n = (total_sectors - FIRMWARE_SECTORS) / BLOCK_SECTORS as u64;
        for _ in 0..4 {
            let pieces = n.div_ceil(PIECE_ENTRIES as u64);
            let ckpt =
                CheckpointRegion::layout(FIRMWARE_SECTORS, pieces as usize, BLOCK_SECTORS as u64);
            // Per piece: one live block, plus up to ~two superseded blocks
            // awaiting the next checkpoint, plus the checkpoint slots and
            // eager-writing headroom — a few percent of the simulated disk,
            // in the ballpark of the paper's map-overhead estimate.
            let reserve = 3 * pieces * BLOCK_SECTORS as u64 + 2 * ckpt.sectors + 384;
            n = (total_sectors - FIRMWARE_SECTORS - reserve) / BLOCK_SECTORS as u64;
        }
        n
    }

    /// The live log over `disk` and `alloc` in `state`, metrics detached.
    pub(crate) fn assemble(disk: Disk, alloc: EagerAllocator, state: LogState) -> Self {
        Self {
            disk,
            alloc,
            state,
            metrics: disksim::Metrics::disabled(),
            append_buf: Vec::new(),
        }
    }

    /// Number of logical blocks exposed.
    pub fn num_blocks(&self) -> u64 {
        self.state.num_logical
    }

    /// The simulated disk (e.g. for cache policy or statistics).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable access to the simulated disk.
    pub(crate) fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// Activity counters.
    pub fn stats(&self) -> VlogStats {
        self.state.stats
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach).
    /// Wired through to the eager allocator as well; the internal disk's
    /// handle is set separately via [`Self::disk_mut`].
    pub(crate) fn set_metrics(&mut self, metrics: disksim::Metrics) {
        self.alloc.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// Fraction of disk sectors in use (data + map + firmware).
    pub fn utilization(&self) -> f64 {
        self.state.free.utilization()
    }

    /// Free-space map (read-only view).
    pub fn free_map(&self) -> &FreeMap {
        &self.state.free
    }

    /// Current physical block of a logical block, if mapped.
    pub fn translate(&self, lb: u64) -> Option<u64> {
        let pb = self.state.map.try_get(lb as usize)?;
        (pb != UNMAPPED).then_some(pb as u64)
    }

    fn check_lb(&self, lb: u64) -> Result<()> {
        if lb >= self.state.num_logical {
            return Err(DiskError::OutOfRange {
                addr: lb,
                limit: self.state.num_logical,
            });
        }
        Ok(())
    }

    fn check_buf(buf_len: usize) -> Result<()> {
        if buf_len != BLOCK_BYTES {
            return Err(DiskError::BadBufferLength {
                expected: BLOCK_BYTES,
                actual: buf_len,
            });
        }
        Ok(())
    }

    /// Read a logical block. Unmapped blocks read as zeros at no mechanical
    /// cost (the drive answers from the map without touching the media).
    pub fn read(&mut self, lb: u64, buf: &mut [u8]) -> Result<ServiceTime> {
        self.check_lb(lb)?;
        Self::check_buf(buf.len())?;
        self.state.stats.data_reads += 1;
        match self.translate(lb) {
            Some(pb) => self.disk.read_sectors(pb * BLOCK_SECTORS as u64, buf),
            None => {
                buf.fill(0);
                Ok(ServiceTime::ZERO)
            }
        }
    }

    /// Write one logical block atomically: eager data write, then the map
    /// piece that commits it.
    pub fn write(&mut self, lb: u64, buf: &[u8]) -> Result<ServiceTime> {
        self.check_lb(lb)?;
        Self::check_buf(buf.len())?;
        let mut total = self.write_data_block(lb, buf)?;
        let piece = self.piece_of(lb);
        total += self.append_piece(piece, MapFlags::EMPTY, None)?;
        self.release_superseded();
        total += self.maybe_checkpoint()?;
        Ok(total)
    }

    /// Largest batch [`VirtualLog::write_many`] accepts: atomicity defers
    /// the release of every overwritten block until the commit record is
    /// durable, so the transient footprint (old + new) must fit in the
    /// eager-writing slack reserve.
    pub(crate) const MAX_ATOMIC_BLOCKS: usize = 32;

    /// Write several logical blocks as one atomic transaction. Data blocks
    /// are eager-written first; then every affected map piece, the last one
    /// flagged as the commit record. On recovery, either all of the batch
    /// or none of it is visible.
    ///
    /// # Errors
    ///
    /// Fails with `Unsupported` if the batch exceeds
    /// [`VirtualLog::MAX_ATOMIC_BLOCKS`]; use [`VirtualLog::write_batch`]
    /// for bulk data that doesn't need all-or-nothing semantics.
    pub(crate) fn write_many(&mut self, batch: &[(u64, &[u8])]) -> Result<ServiceTime> {
        if batch.is_empty() {
            return Ok(ServiceTime::ZERO);
        }
        if batch.len() > Self::MAX_ATOMIC_BLOCKS {
            return Err(DiskError::Unsupported("atomic batch exceeds slack reserve"));
        }
        for (lb, buf) in batch {
            self.check_lb(*lb)?;
            Self::check_buf(buf.len())?;
        }
        let mut total = ServiceTime::ZERO;
        for (lb, buf) in batch {
            total += self.write_data_block(*lb, buf)?;
        }
        // Group the affected pieces, preserving a deterministic order.
        let mut pieces: Vec<u32> = batch.iter().map(|(lb, _)| self.piece_of(*lb)).collect();
        pieces.sort_unstable();
        pieces.dedup();
        if pieces.len() == 1 {
            total += self.append_piece(pieces[0], MapFlags::EMPTY, None)?;
        } else {
            let id = self.state.next_txn;
            self.state.next_txn += 1;
            let n = pieces.len() as u16;
            for (i, piece) in pieces.iter().enumerate() {
                let last = i + 1 == pieces.len();
                let flags = if last {
                    MapFlags::TXN_COMMIT
                } else {
                    MapFlags::TXN_PART
                };
                let txn = TxnInfo {
                    id,
                    index: i as u16,
                    total: n,
                };
                total += self.append_piece(*piece, flags, Some(txn))?;
            }
            self.state.stats.txns += 1;
        }
        self.release_superseded();
        total += self.maybe_checkpoint()?;
        Ok(total)
    }

    /// Write many logical blocks with per-group durability but without
    /// cross-group atomicity: blocks are grouped by map piece (in chunks
    /// small enough to fit the slack reserve), each group committed by one
    /// map append and its superseded space released immediately. This is
    /// the bulk path the VLD's `write_blocks` uses — large sequential
    /// transfers (e.g. an LFS segment flush through the VLD) would
    /// otherwise transiently hold both old and new copies of every block.
    pub(crate) fn write_batch(&mut self, batch: &[(u64, &[u8])]) -> Result<ServiceTime> {
        const CHUNK: usize = 24;
        let mut total = ServiceTime::ZERO;
        let mut i = 0;
        while i < batch.len() {
            let piece = self.piece_of(batch[i].0);
            let mut j = i;
            while j < batch.len() && j - i < CHUNK && self.piece_of(batch[j].0) == piece {
                j += 1;
            }
            for (lb, buf) in &batch[i..j] {
                self.check_lb(*lb)?;
                Self::check_buf(buf.len())?;
                total += self.write_data_block(*lb, buf)?;
            }
            total += self.append_piece(piece, MapFlags::EMPTY, None)?;
            self.release_superseded();
            i = j;
        }
        total += self.maybe_checkpoint()?;
        Ok(total)
    }

    /// Drop the mapping of a logical block (an explicit delete from the
    /// layer above). The freed space becomes allocatable once the map piece
    /// recording the hole is durable.
    pub fn trim(&mut self, lb: u64) -> Result<ServiceTime> {
        self.check_lb(lb)?;
        if self.translate(lb).is_none() {
            return Ok(ServiceTime::ZERO);
        }
        let old = self.state.map.get(lb as usize);
        self.state.map.set(lb as usize, UNMAPPED);
        self.state.deferred_blocks.push(old);
        let piece = self.piece_of(lb);
        let mut t = self.append_piece(piece, MapFlags::EMPTY, None)?;
        self.release_superseded();
        t += self.maybe_checkpoint()?;
        Ok(t)
    }

    /// Eager-write a block that is *not* tracked by the indirection map —
    /// the caller keeps the returned physical block number (e.g. inside an
    /// inode, as VLFS does in §3.3/Figure 4). Returns `(physical block,
    /// service time)`. The block is not durable-by-name: after a crash the
    /// space is reclaimed unless a recovered structure re-registers it via
    /// [`VirtualLog::reserve_external_block`].
    pub(crate) fn write_raw(&mut self, buf: &[u8]) -> Result<(u32, ServiceTime)> {
        Self::check_buf(buf.len())?;
        let cand = self
            .alloc
            .find_block(&self.disk, &self.state.free)
            .ok_or(DiskError::NoSpace)?;
        let lba = self.cand_lba(&cand)?;
        let t = self.disk.write_sectors(lba, buf)?;
        self.state
            .free
            .allocate(cand.cyl, cand.track, cand.sector, BLOCK_SECTORS)?;
        Ok(((lba / BLOCK_SECTORS as u64) as u32, t))
    }

    /// Read a raw (externally tracked) physical block.
    pub(crate) fn read_raw(&mut self, pb: u32, buf: &mut [u8]) -> Result<ServiceTime> {
        Self::check_buf(buf.len())?;
        self.disk
            .read_sectors(pb as u64 * BLOCK_SECTORS as u64, buf)
    }

    /// Release a raw physical block previously returned by
    /// [`VirtualLog::write_raw`].
    pub(crate) fn free_raw(&mut self, pb: u32) -> Result<()> {
        let g = &self.disk.spec().geometry;
        let p = g.lba_to_phys(pb as u64 * BLOCK_SECTORS as u64)?;
        self.state
            .free
            .release(p.cyl, p.track, p.sector, BLOCK_SECTORS)
    }

    /// After recovery, re-register an externally tracked block (recovered
    /// from a structure such as an inode) as allocated.
    pub(crate) fn reserve_external_block(&mut self, pb: u32) -> Result<()> {
        let g = &self.disk.spec().geometry;
        let p = g.lba_to_phys(pb as u64 * BLOCK_SECTORS as u64)?;
        self.state
            .free
            .allocate(p.cyl, p.track, p.sector, BLOCK_SECTORS)
    }

    /// Fault-injection hook for crash tests: eager-write a data block and
    /// update the in-memory map *without* committing a map piece — as if a
    /// crash landed mid-transaction.
    #[doc(hidden)]
    pub fn write_data_block_for_test(&mut self, lb: u64, buf: &[u8]) {
        self.write_data_block(lb, buf).expect("test write fits");
    }

    /// Fault-injection hook: append a map piece with explicit flags (e.g. a
    /// transaction part with no commit record).
    #[doc(hidden)]
    pub fn append_piece_for_test(&mut self, piece: u32, flags: MapFlags, txn: Option<TxnInfo>) {
        self.append_piece(piece, flags, txn)
            .expect("test append fits");
        self.release_superseded();
    }

    /// Orderly power-down: record the log tail at the firmware location
    /// (with checksum) and park. Recovery boots from this record.
    pub(crate) fn shutdown(&mut self) -> Result<ServiceTime> {
        let rec = TailRecord {
            root: self.state.root,
            next_seq: self.state.next_seq,
        };
        let mut total = self.disk.seek_to(0, 0)?;
        total += self.disk.write_sectors(TAIL_LBA, &rec.encode())?;
        Ok(total)
    }

    /// Simulate a crash: drop all volatile state and hand back the disk.
    pub fn crash(self) -> Disk {
        self.disk
    }

    /// Which map piece covers logical block `lb`.
    pub(crate) fn piece_of(&self, lb: u64) -> u32 {
        (lb as usize / PIECE_ENTRIES) as u32
    }

    /// Eager-write the data for `lb`, updating the in-memory map and
    /// deferring the release of the overwritten block until commit.
    fn write_data_block(&mut self, lb: u64, buf: &[u8]) -> Result<ServiceTime> {
        let cand = self
            .alloc
            .find_block(&self.disk, &self.state.free)
            .ok_or(DiskError::NoSpace)?;
        let lba = self.cand_lba(&cand)?;
        let t = self.disk.write_sectors(lba, buf)?;
        self.state
            .free
            .allocate(cand.cyl, cand.track, cand.sector, BLOCK_SECTORS)?;
        let new_pb = (lba / BLOCK_SECTORS as u64) as u32;
        let old_pb = self.state.map.get(lb as usize);
        self.state.map.set(lb as usize, new_pb);
        self.state.rmap[new_pb as usize] = lb as u32;
        if old_pb != UNMAPPED {
            self.state.deferred_blocks.push(old_pb);
        }
        self.state.stats.data_writes += 1;
        Ok(t)
    }

    fn cand_lba(&self, cand: &Candidate) -> Result<u64> {
        self.disk.phys_to_lba(disksim::PhysAddr {
            cyl: cand.cyl,
            track: cand.track,
            sector: cand.sector,
        })
    }

    /// Append the current contents of `piece` to the virtual log and make
    /// it the new root. The overwritten version's sector joins the deferred
    /// release list (safe to recycle once this write is on disk — which it
    /// is when this function returns).
    pub(crate) fn append_piece(
        &mut self,
        piece: u32,
        flags: MapFlags,
        txn: Option<TxnInfo>,
    ) -> Result<ServiceTime> {
        // Map pieces are sector-sized but *occupy* whole 4 KB physical
        // blocks (the VLD's uniform allocation unit, §4.2): the internal
        // fragmentation costs space, not transfer time, and keeps the
        // aligned free pool unfragmented.
        let cand = self
            .alloc
            .find_block(&self.disk, &self.state.free)
            .ok_or(DiskError::NoSpace)?;
        let lba = self.cand_lba(&cand)?;
        let old = self.state.pieces[piece as usize];
        // Encode straight from the piece's page into the reusable scratch
        // buffer. The final piece may be shorter than PIECE_ENTRIES;
        // recovery treats absent trailing entries and UNMAPPED padding
        // identically.
        let mut image = std::mem::take(&mut self.append_buf);
        let sector = MapSectorRef {
            seq: self.state.next_seq,
            piece,
            flags,
            prev: self.state.root,
            bypass: old.and_then(|o| o.prev),
            txn,
            entries: self.state.map.piece_entries(piece),
        };
        sector.encode_into(&mut image)?;
        // Attribute the map commit to the log machinery, not to whichever
        // host command triggered it.
        let sp = if self.disk.spans().is_enabled() {
            self.disk.spans().open(
                disksim::SpanKind::LogAppend,
                "vlog.map_append",
                self.disk.now_ns(),
            )
        } else {
            0
        };
        let t = self.disk.write_sectors(lba, &image);
        if sp != 0 {
            self.disk.spans().close(sp, self.disk.now_ns());
        }
        self.append_buf = image;
        let t = t?;
        self.state
            .free
            .allocate(cand.cyl, cand.track, cand.sector, BLOCK_SECTORS)?;
        if let Some(o) = old {
            // Superseded piece blocks are recycled only once the next
            // checkpoint covers them, so the backward chain inside the
            // traversal window is never broken.
            self.state.pending_recycle.push(o.lba);
        }
        self.state.pieces[piece as usize] = Some(PieceLoc {
            lba,
            seq: self.state.next_seq,
            prev: self.state.root,
        });
        self.state.root = Some((lba, self.state.next_seq));
        self.state.next_seq += 1;
        self.state.stats.map_writes += 1;
        if self.metrics.is_enabled() {
            self.metrics.inc("vlog.map_writes");
            self.metrics.gauge(
                "vlog.depth",
                (self.state.next_seq - self.state.checkpoint_seq) as i64,
            );
            self.metrics.gauge(
                "vlog.pending_recycle",
                self.state.pending_recycle.len() as i64,
            );
        }
        Ok(t)
    }

    /// Release everything whose supersession just became durable: old data
    /// blocks and old map-piece sectors queued during the current operation.
    pub(crate) fn release_superseded(&mut self) {
        let g = &self.disk.spec().geometry;
        for pb in self.state.deferred_blocks.drain(..) {
            self.state.rmap[pb as usize] = UNMAPPED;
            let p = g
                .lba_to_phys(pb as u64 * BLOCK_SECTORS as u64)
                .expect("previously allocated block is in range");
            self.state
                .free
                .release(p.cyl, p.track, p.sector, BLOCK_SECTORS)
                .expect("release of an allocated block cannot fail");
        }
    }

    /// Write a checkpoint: persist the piece directory to the inactive
    /// slot, then recycle every superseded piece block the new checkpoint
    /// covers.
    pub(crate) fn checkpoint(&mut self) -> Result<ServiceTime> {
        if self.metrics.is_enabled() {
            // Chain length the checkpoint truncates: map sectors a scan
            // recovery would have had to traverse had we crashed now.
            self.metrics.observe(
                "vlog.chain_len",
                self.state.next_seq - self.state.checkpoint_seq,
            );
            self.metrics.inc("vlog.checkpoints");
        }
        let seq = self.state.next_seq;
        let slot = if self.state.ckpt_use_b {
            self.state.ckpt_region.slot_b
        } else {
            self.state.ckpt_region.slot_a
        };
        let mut image = std::mem::take(&mut self.append_buf);
        Checkpoint::encode_into(
            seq,
            &self.state.pieces,
            self.state.ckpt_region.sectors,
            &mut image,
        );
        let sp = if self.disk.spans().is_enabled() {
            self.disk.spans().open(
                disksim::SpanKind::LogAppend,
                "vlog.checkpoint",
                self.disk.now_ns(),
            )
        } else {
            0
        };
        let t = self.disk.write_sectors(slot, &image);
        if sp != 0 {
            self.disk.spans().close(sp, self.disk.now_ns());
        }
        self.append_buf = image;
        let t = t?;
        self.state.ckpt_use_b = !self.state.ckpt_use_b;
        self.state.checkpoint_seq = seq;
        let g = &self.disk.spec().geometry;
        for lba in self.state.pending_recycle.drain(..) {
            let p = g
                .lba_to_phys(lba)
                .expect("previously written map piece is in range");
            self.state
                .free
                .release(p.cyl, p.track, p.sector, BLOCK_SECTORS)
                .expect("release of an allocated block cannot fail");
        }
        self.state.stats.checkpoints += 1;
        if self.metrics.is_enabled() {
            self.metrics.gauge(
                "vlog.depth",
                (self.state.next_seq - self.state.checkpoint_seq) as i64,
            );
            self.metrics.gauge("vlog.pending_recycle", 0);
        }
        Ok(t)
    }

    /// Checkpoint when enough superseded piece blocks have accumulated —
    /// sooner when free space is tight, so pending blocks don't squeeze the
    /// eager-writing slack at high utilisation.
    pub(crate) fn maybe_checkpoint(&mut self) -> Result<ServiceTime> {
        let pending_sectors = self.state.pending_recycle.len() as u64 * BLOCK_SECTORS as u64;
        let tight = self.state.free.free_sectors() < 4 * pending_sectors;
        let threshold = if tight {
            8
        } else {
            self.state.pieces.len().max(16)
        };
        if self.state.pending_recycle.len() >= threshold {
            self.checkpoint()
        } else {
            Ok(ServiceTime::ZERO)
        }
    }

    /// Superseded map blocks waiting for the next checkpoint.
    pub(crate) fn pending_recycle_len(&self) -> usize {
        self.state.pending_recycle.len()
    }

    /// Does any pending-recycle block sit on the track occupying the LBA
    /// range `track` (a track's sectors are contiguous in LBA space)?
    pub(crate) fn pending_recycle_on_track(&self, track: &std::ops::Range<u64>) -> bool {
        self.state
            .pending_recycle
            .iter()
            .any(|lba| track.contains(lba))
    }

    /// Capture the complete mutable state of the log — disk image (shared
    /// copy-on-write), free map, indirection map (piece pages shared
    /// copy-on-write), log chain bookkeeping and allocator position — as a
    /// `Send + Sync` value. [`VlogSnapshot::restore`] yields an independent
    /// log that continues exactly as this one would; observability handles
    /// are not captured (a restored log starts detached).
    pub(crate) fn snapshot(&self) -> VlogSnapshot {
        VlogSnapshot {
            disk: self.disk.snapshot(),
            alloc: self.alloc.state(),
            state: self.state.clone(),
        }
    }
}

/// A point-in-time image of a [`VirtualLog`], cheap to take (the disk's
/// track store and the map's piece pages are `Arc`-shared, copied only on
/// the first post-snapshot write) and safe to ship across threads.
#[derive(Debug, Clone)]
pub struct VlogSnapshot {
    disk: DiskSnapshot,
    alloc: AllocatorState,
    state: LogState,
}

impl VlogSnapshot {
    /// Materialise an independent [`VirtualLog`] from this snapshot.
    pub(crate) fn restore(&self) -> VirtualLog {
        let alloc = EagerAllocator::from_state(&self.alloc);
        VirtualLog::assemble(self.disk.restore(), alloc, self.state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocConfig;
    use disksim::{DiskSpec, SimClock};

    pub fn fresh() -> VirtualLog {
        let mut spec = DiskSpec::hp97560_sim();
        spec.command_overhead_ns = 0;
        VirtualLog::format(Disk::new(spec, SimClock::new()), AllocConfig::default())
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_BYTES]
    }

    #[test]
    fn capacity_leaves_reserve() {
        let v = fresh();
        let total_pb = v.disk().spec().geometry.total_sectors() / 8;
        assert!(v.num_blocks() > 0);
        assert!(
            v.num_blocks() < total_pb,
            "must reserve space for map + firmware"
        );
        // The reserve is small (a few percent at most).
        assert!(v.num_blocks() as f64 > 0.95 * total_pb as f64);
    }

    #[test]
    fn unmapped_reads_zero_for_free() {
        let mut v = fresh();
        let mut buf = block(0xFF);
        let t = v.read(5, &mut buf).unwrap();
        assert_eq!(t, ServiceTime::ZERO);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut v = fresh();
        v.write(7, &block(0xAB)).unwrap();
        let mut buf = block(0);
        v.read(7, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAB));
        assert_eq!(v.stats().data_writes, 1);
        assert_eq!(v.stats().map_writes, 1);
    }

    #[test]
    fn overwrite_frees_old_block() {
        let mut v = fresh();
        v.write(3, &block(1)).unwrap();
        let first_pb = v.translate(3).unwrap();
        let free_after_first = v.state.free.free_sectors();
        v.write(3, &block(2)).unwrap();
        let second_pb = v.translate(3).unwrap();
        assert_ne!(first_pb, second_pb, "eager writing never updates in place");
        // The old data block was released at commit; the superseded map
        // block waits for the next checkpoint (8 sectors outstanding).
        assert_eq!(v.state.free.free_sectors(), free_after_first - 8);
        assert_eq!(v.pending_recycle_len(), 1);
        v.checkpoint().unwrap();
        assert_eq!(v.state.free.free_sectors(), free_after_first);
        assert_eq!(v.pending_recycle_len(), 0);
        let mut buf = block(0);
        v.read(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn small_write_latency_beats_update_in_place() {
        // The headline claim: a random small write lands in far less than
        // the half-rotation an update-in-place system pays on average.
        let mut v = fresh();
        // Prime the disk with some data and a moved head.
        for lb in 0..50 {
            v.write(lb, &block(lb as u8)).unwrap();
        }
        let half_rev = v.disk().spec().half_rotation_ns();
        let mut worst = 0u64;
        for lb in [1000u64, 2000, 3000, 500, 1500] {
            let t = v.write(lb, &block(9)).unwrap();
            worst = worst.max(t.total_ns());
        }
        assert!(
            worst < half_rev,
            "eager write took {worst} ns, ≥ half rotation {half_rev} ns"
        );
    }

    #[test]
    fn write_many_single_piece_is_one_map_write() {
        let mut v = fresh();
        let (a, b) = (block(1), block(2));
        let batch: Vec<(u64, &[u8])> = vec![(0, a.as_slice()), (1, b.as_slice())];
        v.write_many(&batch).unwrap();
        assert_eq!(v.stats().map_writes, 1, "same piece: one commit sector");
        assert_eq!(v.stats().txns, 0);
    }

    #[test]
    fn write_many_cross_piece_commits_once() {
        let mut v = fresh();
        let far = crate::mapsector::PIECE_ENTRIES as u64 * 3;
        let (a, b) = (block(1), block(2));
        let batch: Vec<(u64, &[u8])> = vec![(0, a.as_slice()), (far, b.as_slice())];
        v.write_many(&batch).unwrap();
        assert_eq!(v.stats().map_writes, 2);
        assert_eq!(v.stats().txns, 1);
        let mut buf = block(0);
        v.read(far, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 2));
    }

    #[test]
    fn trim_unmaps_and_frees() {
        let mut v = fresh();
        v.write(9, &block(7)).unwrap();
        let free_before_trim = v.state.free.free_sectors();
        v.trim(9).unwrap();
        assert_eq!(v.translate(9), None);
        // 8 data sectors came back; the superseded map block (also 8
        // sectors) waits for a checkpoint — net zero until then.
        v.checkpoint().unwrap();
        assert_eq!(v.state.free.free_sectors(), free_before_trim + 8);
        let mut buf = block(0xFF);
        v.read(9, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // Trimming an unmapped block is free.
        assert_eq!(v.trim(9).unwrap(), ServiceTime::ZERO);
    }

    #[test]
    fn out_of_range_and_bad_buffers_rejected() {
        let mut v = fresh();
        let n = v.num_blocks();
        assert!(v.write(n, &block(0)).is_err());
        assert!(v.read(n, &mut block(0)).is_err());
        assert!(v.write(0, &[0u8; 512]).is_err());
        assert!(v.trim(n).is_err());
    }

    #[test]
    fn fills_to_capacity_then_no_space() {
        let mut v = fresh();
        let n = v.num_blocks();
        for lb in 0..n {
            v.write(lb, &block(1)).unwrap_or_else(|e| {
                panic!("write {lb}/{n} failed: {e}");
            });
        }
        // Everything is mapped; utilization is near 1.
        assert!(v.utilization() > 0.95);
        // Overwrites must still succeed (they recycle their own space).
        v.write(0, &block(2)).unwrap();
        let mut buf = block(0);
        v.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn sequence_numbers_strictly_increase() {
        let mut v = fresh();
        v.write(0, &block(1)).unwrap();
        let s1 = v.state.root.unwrap().1;
        v.write(1, &block(1)).unwrap();
        let s2 = v.state.root.unwrap().1;
        assert!(s2 > s1);
    }

    #[test]
    fn shutdown_writes_valid_tail() {
        let mut v = fresh();
        v.write(0, &block(1)).unwrap();
        let root = v.state.root;
        v.shutdown().unwrap();
        let disk = v.crash();
        let mut buf = [0u8; disksim::SECTOR_BYTES];
        disk.peek_sectors(crate::tail::TAIL_LBA, &mut buf).unwrap();
        let rec = crate::tail::TailRecord::decode(&buf).unwrap();
        assert_eq!(rec.root, root);
    }
}
