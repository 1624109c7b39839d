//! The log-structured logical disk (LLD).
//!
//! A port-in-spirit of the MIT Log-structured Logical Disk the paper used:
//! a block device whose writes append to an in-memory 512 KB segment,
//! flushed to the raw device as one large sequential write. Key behaviours
//! from §4.3:
//!
//! * **Partial-segment threshold** — on `sync`, a segment filled above the
//!   threshold (75 %) is sealed as if full; below it, the contents are
//!   written out but the memory copy stays open for more appends.
//! * **Greedy cleaner** — picks the least-utilised sealed segments, copies
//!   their live blocks to the log head, and frees them; invoked on demand
//!   when the log runs out of free segments, and opportunistically during
//!   idle time (the paper's modification to the original LLD).
//! * **Segment summaries** — the first block of each segment names the
//!   owner of every slot, and a checkpoint area at the end of the device
//!   persists the block map on `sync`, making volumes remountable.
//!
//! Host-side, the open segment is a list of block handles (summary, then
//! data slots): an append keeps its block, and every flush hands the
//! handles to the device, which keeps each as its page. A block the file
//! layer hands the log is digested once, into its slot of the summary; a
//! cleaner copy carries the digest the victim's summary records for it, so
//! the cleaner moves blocks without reading their bytes.
//!
//! The LLD runs over any raw [`BlockDevice`] — a regular disk, or a VLD for
//! the paper's "LFS on VLD" configuration.

use std::sync::Arc;

use crate::seg::{
    digest, encode_checkpoint, seg_to_slot, slot_device_block, slot_to_seg, summary_block,
    SegState, Summary, CKPT_HEAD, NONE, SEG_BLOCKS, SEG_DATA,
};
use disksim::{
    pooled_copy, BlockDevice, DeviceSnapshot, DiskStats, Result as DiskResult, ServiceTime,
    SharedBlocks, SimClock,
};
use fscore::{FsError, FsResult};

/// Segments kept back from the advertised capacity so the cleaner always
/// has room to work.
const RESERVE_SEGS: u64 = 4;

/// Tuning knobs for the logical disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LldConfig {
    /// Partial-segment threshold: a sync with fill at or above this
    /// fraction seals the segment (paper: 0.75).
    pub partial_threshold: f64,
    /// Idle cleaning keeps at least this many segments free.
    pub idle_clean_target: u32,
    /// Host CPU nanoseconds per block appended to the log. The paper's LLD
    /// (and its cleaner) run at user level on the host, so every block that
    /// moves through the log — a flushed file block or a cleaner copy —
    /// costs CPU as well as disk time.
    pub cpu_per_block_ns: u64,
}

impl Default for LldConfig {
    fn default() -> Self {
        Self {
            partial_threshold: 0.75,
            idle_clean_target: 8,
            cpu_per_block_ns: 0,
        }
    }
}

/// Cleaner activity counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanerStats {
    /// Segments reclaimed.
    pub segments_cleaned: u64,
    /// Live blocks copied forward.
    pub blocks_copied: u64,
    /// Cleanings forced in the write path (no free segment).
    pub on_demand: u64,
    /// Cleanings performed during granted idle time.
    pub during_idle: u64,
}

/// The in-memory open segment. Its clone shares every block.
#[derive(Debug, Clone)]
pub(crate) struct OpenSeg {
    seg: u32,
    summary: Summary,
    /// The segment as a flush writes it: block 0 the summary (encoded just
    /// before each write), block `1 + i` data slot `i`. Others may hold
    /// any of them, so the log writes only into one no one else holds.
    blocks: Vec<Arc<[u8]>>,
    /// Slots already written to the device by a partial flush.
    flushed: u32,
}

/// The log-structured logical disk.
pub struct LogDisk {
    dev: Box<dyn BlockDevice>,
    state: LldState,
    /// Re-entrancy guard: the cleaner's own appends must never trigger
    /// another on-demand clean. Always false between calls.
    cleaning: bool,
    /// Metrics handle (disabled by default): cleaner counters, free-segment
    /// gauge, log utilisation and the work counter below.
    metrics: disksim::Metrics,
    /// Host-side scratch, reused across calls and never part of a
    /// snapshot (a restored log starts without it).
    pub(crate) scratch: Scratch,
    /// Bytes of data blocks digested since [`LogDisk::update_gauges`] last
    /// moved them to the `lld.bytes_digested` counter. A plain integer on
    /// the hot path.
    digested: u64,
}

/// Every piece of log bookkeeping a [`LogDisk`] adds to its device,
/// including the in-memory open segment (its block handles and summary):
/// the value a snapshot carries, and the one format and mount compute.
#[derive(Clone)]
pub(crate) struct LldState {
    pub(crate) cfg: LldConfig,
    pub(crate) block_size: usize,
    pub(crate) nsegs: u32,
    pub(crate) logical_blocks: u64,
    /// Logical block → global data slot (NONE = unmapped).
    pub(crate) map: Vec<u32>,
    /// Global data slot → logical owner if live.
    pub(crate) rmap: Vec<u32>,
    pub(crate) seg_state: Vec<SegState>,
    /// Running count of `SegState::Free` entries in `seg_state`, kept in
    /// lockstep with every transition so `free_segments()` (called on the
    /// append hot path) is O(1) instead of O(nsegs).
    pub(crate) free_count: u32,
    pub(crate) seg_live: Vec<u32>,
    pub(crate) open: Option<OpenSeg>,
    /// Next segment to consider when acquiring a free one (log order).
    pub(crate) next_seg: u32,
    pub(crate) ckpt_start: u64,
    pub(crate) ckpt_blocks: u64,
    /// Monotonic flush-sequence counter (stamped into every summary).
    pub(crate) flush_seq: u64,
    /// Segments with no live blocks whose reuse must wait until the open
    /// segment (holding the overwrites/cleaner copies that killed them) is
    /// durable — otherwise a crash loses both copies.
    pub(crate) pending_free: Vec<u32>,
    /// Which checkpoint slot the next sync writes (alternating A/B, so a
    /// crash mid-checkpoint always leaves the other slot intact).
    pub(crate) ckpt_next_b: bool,
    pub(crate) stats: CleanerStats,
}

/// Buffers a [`LogDisk`] keeps between calls so the segment path allocates
/// nothing in steady state. All start empty and are sized on first use.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The last sealed segment's block list, cut to its summary block.
    spare_blocks: Vec<Arc<[u8]>>,
    /// The spare a device without a shared read copies the cleaner's
    /// victim into (a regular disk lends its pages and leaves it empty).
    victim_image: Vec<u8>,
    /// One victim block assembled across a page boundary.
    victim_block: Vec<u8>,
    /// The cleaner's `(slot index, owner)` list of the victim's live slots.
    live: Vec<(u32, u32)>,
    /// One checkpoint slot image.
    pub(crate) ckpt_image: Vec<u8>,
}

impl LogDisk {
    /// Compute (segments, logical blocks, checkpoint start/blocks) for a
    /// raw device of `dev_blocks` blocks.
    pub(crate) fn geometry(dev_blocks: u64, block_size: usize) -> FsResult<(u32, u64, u64, u64)> {
        let mut nsegs = dev_blocks / SEG_BLOCKS;
        for _ in 0..3 {
            let logical = (nsegs.saturating_sub(RESERVE_SEGS)) * SEG_DATA;
            let ckpt_bytes = CKPT_HEAD as u64 + 4 * logical;
            let ckpt_blocks = ckpt_bytes.div_ceil(block_size as u64);
            // Two checkpoint slots (A/B): syncs alternate between them, so
            // a power cut tearing one leaves the other valid.
            nsegs = dev_blocks.saturating_sub(2 * ckpt_blocks) / SEG_BLOCKS;
        }
        if nsegs < RESERVE_SEGS + 2 {
            return Err(FsError::Invalid("device too small for a log"));
        }
        let logical = (nsegs - RESERVE_SEGS) * SEG_DATA;
        let ckpt_blocks = (CKPT_HEAD as u64 + 4 * logical).div_ceil(block_size as u64);
        Ok((nsegs as u32, logical, nsegs * SEG_BLOCKS, ckpt_blocks))
    }

    /// Format a fresh log on `dev`.
    pub fn format(dev: Box<dyn BlockDevice>, cfg: LldConfig) -> FsResult<LogDisk> {
        let block_size = dev.block_size();
        let geometry = Self::geometry(dev.num_blocks(), block_size)?;
        let map = vec![NONE; geometry.1 as usize];
        let state = LldState::from_map(cfg, block_size, geometry, map)?;
        let mut lld = Self::assemble(dev, state);
        lld.write_checkpoint()?;
        Ok(lld)
    }

    /// The live log over `dev` in `state`: metrics detached, scratch empty
    /// and no work on the books.
    pub(crate) fn assemble(dev: Box<dyn BlockDevice>, state: LldState) -> Self {
        LogDisk {
            dev,
            state,
            cleaning: false,
            metrics: disksim::Metrics::disabled(),
            scratch: Scratch::default(),
            digested: 0,
        }
    }

    /// Cleaner activity so far.
    pub fn cleaner_stats(&self) -> CleanerStats {
        self.state.stats
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach). The
    /// log records cleaner counters (`lld.segments_cleaned`,
    /// `lld.blocks_copied`, on-demand vs. idle passes), a `lld.victim_live`
    /// histogram, free-segment / utilisation gauges, and the work counter
    /// `lld.bytes_digested` (bytes of data blocks digested: each block the
    /// file layer hands the log once, a cleaner copy never unless its
    /// victim's summary does not vouch for it), brought up to date here,
    /// after each cleaned segment and on idle (cold paths only).
    pub fn set_metrics(&mut self, metrics: disksim::Metrics) {
        self.metrics = metrics;
        self.update_gauges();
    }

    /// Open a causal span on the device stack's shared handle (cold paths
    /// only: segment flushes, checkpoints, the cleaner). Returns the handle
    /// and the id to pass to [`LogDisk::close_span`]; id 0 when disabled.
    fn open_span(&self, kind: disksim::SpanKind, label: &'static str) -> (disksim::Spans, u32) {
        let spans = self.dev.spans();
        let sp = if spans.is_enabled() {
            spans.open(kind, label, self.dev.clock().now())
        } else {
            0
        };
        (spans, sp)
    }

    fn close_span(&self, spans: &disksim::Spans, sp: u32) {
        if sp != 0 {
            spans.close(sp, self.dev.clock().now());
        }
    }

    /// Refresh the slow-moving gauges and publish the work done since the
    /// last refresh; called from cold paths only (the cleaner and idle),
    /// never per append.
    fn update_gauges(&mut self) {
        if self.metrics.is_enabled() {
            self.metrics
                .gauge("lld.free_segments", self.state.free_count as i64);
            let live: u64 = self.state.seg_live.iter().map(|&l| l as u64).sum();
            let cap = self.state.nsegs as u64 * SEG_DATA;
            self.metrics
                .gauge("lld.utilization_pct", (live * 100 / cap.max(1)) as i64);
            self.metrics
                .add("lld.bytes_digested", std::mem::take(&mut self.digested));
        }
    }

    /// Free (immediately writable) segments. O(1): the count is maintained
    /// across state transitions (the recount below validates it in debug
    /// builds only).
    pub(crate) fn free_segments(&self) -> u32 {
        debug_assert_eq!(
            self.state.free_count,
            self.state
                .seg_state
                .iter()
                .filter(|s| **s == SegState::Free)
                .count() as u32,
            "free_count out of sync with seg_state"
        );
        self.state.free_count
    }

    /// Snapshot of the logical-block → data-slot map (crash-test harnesses
    /// compare these across recovery paths).
    pub fn map_snapshot(&self) -> Vec<u32> {
        self.state.map.clone()
    }

    /// The checkpoint region on the raw device: (first block, total blocks
    /// covering both slots). Crash tests corrupt it to force the
    /// summary-scan recovery path.
    pub fn checkpoint_region(&self) -> (u64, u64) {
        (self.state.ckpt_start, 2 * self.state.ckpt_blocks)
    }

    /// Simulate a crash: drop the in-memory log state (open segment, map)
    /// and hand back the raw device for remounting.
    pub fn crash(self) -> Box<dyn BlockDevice> {
        self.dev
    }

    /// Flush dirty state and write the checkpoint ("sync" semantics,
    /// including the partial-segment threshold behaviour).
    pub fn sync(&mut self) -> FsResult<()> {
        self.flush_partial()?;
        self.write_checkpoint()?;
        Ok(())
    }

    // ----- log mechanics -------------------------------------------------

    /// Transition one segment's state, keeping `free_count` in lockstep.
    /// Every `seg_state` write (after construction) must go through here.
    fn set_seg_state(&mut self, seg: u32, new: SegState) {
        let old = std::mem::replace(&mut self.state.seg_state[seg as usize], new);
        match (old == SegState::Free, new == SegState::Free) {
            (true, false) => self.state.free_count -= 1,
            (false, true) => self.state.free_count += 1,
            _ => {}
        }
    }

    fn acquire_segment(&mut self) -> FsResult<u32> {
        for attempt in 0..2 {
            for i in 0..self.state.nsegs {
                let seg = (self.state.next_seg + i) % self.state.nsegs;
                if self.state.seg_state[seg as usize] == SegState::Free {
                    self.state.next_seg = (seg + 1) % self.state.nsegs;
                    return Ok(seg);
                }
            }
            // No free segment: the cleaner must run in the write path — the
            // very situation Figure 8's high-utilisation cliff measures.
            // The cleaner's own appends must never recurse into cleaning.
            if self.cleaning || attempt == 1 {
                return Err(FsError::NoSpace);
            }
            self.state.stats.on_demand += 1;
            self.metrics.inc("lld.clean_on_demand");
            self.clean_some(2)?;
        }
        Err(FsError::NoSpace)
    }

    fn open_mut(&mut self) -> FsResult<&mut OpenSeg> {
        if self.state.open.is_none() {
            let seg = self.acquire_segment()?;
            self.set_seg_state(seg, SegState::Open);
            let mut blocks = std::mem::take(&mut self.scratch.spare_blocks);
            if blocks.is_empty() {
                blocks.reserve_exact(SEG_BLOCKS as usize);
                blocks.push(pooled_copy(&vec![0u8; self.state.block_size]));
            }
            self.state.open = Some(OpenSeg {
                seg,
                summary: Summary::empty(),
                blocks,
                flushed: 0,
            });
        }
        Ok(self.state.open.as_mut().expect("just ensured"))
    }

    /// Append `block`, handed over by the file layer, to the log: the one
    /// digest pass a block ever gets here.
    fn append(&mut self, lb: u64, block: Arc<[u8]>) -> FsResult<()> {
        self.digested += block.len() as u64;
        let sum = digest(&block);
        self.append_digested(lb, block, sum)
    }

    /// Append `block`, whose digest is `sum`, to the log, keeping it; seals
    /// the segment when full.
    fn append_digested(&mut self, lb: u64, block: Arc<[u8]>, sum: u64) -> FsResult<()> {
        // User-level logical disk: each block through it costs host CPU.
        // (A zero-cost configuration skips the clock call entirely so it
        // doesn't inflate the simulation event count.)
        if self.state.cfg.cpu_per_block_ns > 0 {
            self.dev.clock().advance(self.state.cfg.cpu_per_block_ns);
        }
        // Drop the old mapping first.
        self.unmap(lb);
        let open = self.open_mut()?;
        let idx = open.summary.fill;
        open.blocks.push(block);
        open.summary.owners[idx as usize] = lb as u32;
        open.summary.digests[idx as usize] = sum;
        open.summary.fill += 1;
        let seg = open.seg;
        let full = open.summary.fill as u64 == SEG_DATA;
        let slot = seg_to_slot(seg, idx);
        self.state.map[lb as usize] = slot as u32;
        self.state.rmap[slot as usize] = lb as u32;
        self.state.seg_live[seg as usize] += 1;
        if full {
            self.seal()?;
        }
        // Keep the log ahead of exhaustion: once the free pool runs low,
        // clean in the write path (the cost Figure 8 measures at high
        // utilisation). The guard stops the cleaner's own appends from
        // recursing here.
        if !self.cleaning && self.free_segments() <= 2 {
            self.state.stats.on_demand += 1;
            self.metrics.inc("lld.clean_on_demand");
            let _ = self.clean_some(2);
        }
        Ok(())
    }

    fn unmap(&mut self, lb: u64) {
        let old = self.state.map[lb as usize];
        if old != NONE {
            self.state.map[lb as usize] = NONE;
            self.state.rmap[old as usize] = NONE;
            let (seg, _) = slot_to_seg(old as u64);
            self.state.seg_live[seg as usize] -= 1;
            if self.state.seg_live[seg as usize] == 0
                && self.state.seg_state[seg as usize] == SegState::Dirty
            {
                if self.cleaning {
                    // Mid-clean, the emptied segment is the victim (or holds
                    // data whose only durable copy the open segment hasn't
                    // flushed yet): reusing it now would overwrite that copy,
                    // and a torn flush would lose both versions. Park it
                    // until the open segment is durable.
                    if !self.state.pending_free.contains(&seg) {
                        self.state.pending_free.push(seg);
                    }
                } else {
                    // A sealed segment emptied by overwrites is safe to free:
                    // the open segment holding the overwrites cannot itself
                    // be recycled before it seals (and thus is durable).
                    self.set_seg_state(seg, SegState::Free);
                }
            }
        }
    }

    /// Where logical `block` lies. A slot of the open segment is served
    /// from memory even once a partial flush has written it.
    fn place(&self, block: u64) -> Place<'_> {
        let slot = self.state.map[block as usize];
        if slot == NONE {
            return Place::Unmapped;
        }
        let (seg, idx) = slot_to_seg(slot as u64);
        match &self.state.open {
            Some(open) if open.seg == seg => Place::Open(&open.blocks[1 + idx as usize]),
            _ => Place::Device(slot_device_block(slot as u64)),
        }
    }

    fn next_flush_seq(&mut self) -> u64 {
        self.state.flush_seq += 1;
        self.state.flush_seq
    }

    /// The open segment's contents just reached the platter: everything it
    /// superseded is now safely dead, so parked segments become free.
    fn promote_pending_frees(&mut self) {
        if self.cleaning {
            // A victim still being copied out must not be promoted by a
            // mid-clean seal; `clean_segment` promotes after its final
            // flush instead.
            return;
        }
        while let Some(seg) = self.state.pending_free.pop() {
            if self.state.seg_live[seg as usize] == 0
                && self.state.seg_state[seg as usize] == SegState::Dirty
            {
                self.set_seg_state(seg, SegState::Free);
            }
        }
    }

    /// Write the open segment as it stands — summary plus every appended
    /// slot — in one command, handing the device its blocks: stamp a fresh
    /// flush sequence into the summary and encode it into block 0, a pooled
    /// copy if anyone else holds it.
    fn flush_image(&mut self) -> FsResult<()> {
        let seq = self.next_flush_seq();
        let open = self
            .state
            .open
            .as_mut()
            .expect("caller checked for an open segment");
        open.summary.seq = seq;
        open.flushed = open.summary.fill;
        let head = &mut open.blocks[0];
        if Arc::get_mut(head).is_none() {
            *head = pooled_copy(head);
        }
        open.summary
            .encode_into(Arc::get_mut(head).expect("no one else holds it"));
        let (spans, sp) = self.open_span(disksim::SpanKind::LogAppend, "lld.seg_flush");
        let open = self.state.open.as_ref().expect("checked above");
        // The run's handles, gathered on the stack.
        let mut run = [&open.blocks[0]; SEG_BLOCKS as usize];
        run.iter_mut().zip(&open.blocks).for_each(|(r, b)| *r = b);
        let r = self
            .dev
            .write_gathered(summary_block(open.seg), &run[..open.blocks.len()]);
        self.close_span(&spans, sp);
        r?;
        Ok(())
    }

    /// Force the open segment's current contents to disk without sealing,
    /// so that frees depending on them can be promoted.
    fn flush_open_now(&mut self) -> FsResult<()> {
        if self
            .state
            .open
            .as_ref()
            .is_some_and(|open| open.summary.fill > open.flushed)
        {
            self.flush_image()?;
        }
        self.promote_pending_frees();
        Ok(())
    }

    /// Write the open segment (summary + all appended slots) and seal it.
    fn seal(&mut self) -> FsResult<()> {
        if self.state.open.is_none() {
            return Ok(());
        }
        let r = self.flush_image();
        // The segment closes whether or not the write went through; its
        // block list, down to its summary block, is what the next segment
        // opens on.
        let mut open = self.state.open.take().expect("checked above");
        open.blocks.truncate(1);
        self.scratch.spare_blocks = open.blocks;
        r?;
        self.promote_pending_frees();
        let new = if self.state.seg_live[open.seg as usize] > 0 {
            SegState::Dirty
        } else {
            SegState::Free
        };
        self.set_seg_state(open.seg, new);
        Ok(())
    }

    /// Partial-segment handling on sync: above the threshold, seal; below
    /// it, write out what exists but keep accepting appends.
    fn flush_partial(&mut self) -> FsResult<()> {
        let Some(open) = self.state.open.as_ref() else {
            return Ok(());
        };
        if open.summary.fill == 0 {
            return Ok(());
        }
        let frac = open.summary.fill as f64 / SEG_DATA as f64;
        if frac >= self.state.cfg.partial_threshold {
            self.seal()
        } else {
            self.flush_image()?;
            self.promote_pending_frees();
            Ok(())
        }
    }

    fn write_checkpoint(&mut self) -> FsResult<()> {
        let raw = &mut self.scratch.ckpt_image;
        raw.resize((self.state.ckpt_blocks as usize) * self.state.block_size, 0);
        encode_checkpoint(raw, self.state.flush_seq, &self.state.map);
        let slot_start = if self.state.ckpt_next_b {
            self.state.ckpt_start + self.state.ckpt_blocks
        } else {
            self.state.ckpt_start
        };
        let (spans, sp) = self.open_span(disksim::SpanKind::LogAppend, "lld.checkpoint");
        let r = self.dev.write_blocks(slot_start, &self.scratch.ckpt_image);
        self.close_span(&spans, sp);
        r?;
        // Only alternate once the write completed: a failed/torn write
        // leaves the other (older but valid) slot as the fallback.
        self.state.ckpt_next_b = !self.state.ckpt_next_b;
        Ok(())
    }

    // ----- the cleaner -----------------------------------------------------

    /// Reclaim up to `want` segments, greedily by lowest utilisation.
    /// Returns how many were reclaimed.
    pub fn clean_some(&mut self, want: u32) -> FsResult<u32> {
        // One span per cleaning pass; the victim reads, copy appends and
        // their segment flushes all hang off it (the copies' own
        // `LogAppend` child spans inherit the background classification).
        let (spans, sp) = self.open_span(disksim::SpanKind::Compaction, "lld.clean");
        let r = self.clean_some_inner(want);
        self.close_span(&spans, sp);
        r
    }

    fn clean_some_inner(&mut self, want: u32) -> FsResult<u32> {
        let mut cleaned = 0;
        while cleaned < want {
            self.metrics.inc("lld.victim_picks");
            let Some(victim) = self.choose_victim() else {
                break;
            };
            self.clean_segment(victim)?;
            cleaned += 1;
        }
        Ok(cleaned)
    }

    /// The least-utilised sealed segment — lowest live count, ties to the
    /// lowest segment number — by a plain scan of the segment table: a few
    /// dozen entries per 512 KiB segment cleaned. Fully-live segments are
    /// never worth cleaning — copying them frees nothing.
    fn choose_victim(&self) -> Option<u32> {
        (0..self.state.nsegs)
            .filter(|&s| {
                self.state.seg_state[s as usize] == SegState::Dirty
                    && (self.state.seg_live[s as usize] as u64) < SEG_DATA
            })
            .min_by_key(|&s| self.state.seg_live[s as usize])
    }

    fn clean_segment(&mut self, victim: u32) -> FsResult<()> {
        if self.metrics.is_enabled() {
            self.metrics.observe(
                "lld.victim_live",
                self.state.seg_live[victim as usize] as u64,
            );
        }
        // The cleaner's scratch buffers leave `self` for the copy (whose
        // appends need all of it) and come back whatever its outcome.
        let mut live = std::mem::take(&mut self.scratch.live);
        let mut image = std::mem::take(&mut self.scratch.victim_image);
        let mut block = std::mem::take(&mut self.scratch.victim_block);
        let r = self.copy_live_forward(victim, &mut live, &mut image, &mut block);
        self.scratch.live = live;
        self.scratch.victim_image = image;
        self.scratch.victim_block = block;
        r?;
        debug_assert_eq!(self.state.seg_live[victim as usize], 0);
        // The victim may only be reused once the copies are durable.
        if !self.state.pending_free.contains(&victim) {
            self.state.pending_free.push(victim);
        }
        self.flush_open_now()?;
        self.state.stats.segments_cleaned += 1;
        if self.metrics.is_enabled() {
            self.metrics.inc("lld.segments_cleaned");
            self.update_gauges();
        }
        Ok(())
    }

    /// Read `victim` through the device's shared read (into `image` where
    /// it has none) and append each of its live blocks to the log head:
    /// the drive's own page where the device lent one, else a pooled copy
    /// (`block` assembles one that straddles a page). Each copy carries the
    /// digest the victim's summary (block 0 of the read) records for its
    /// slot, so its bytes are never read; only a slot whose summary does
    /// not decode, or names another owner there, is digested afresh. A
    /// block silently damaged since it was written thus keeps the digest
    /// it was written with, and its copy fails roll-forward as a torn write
    /// would. `cleaning` is set for exactly the duration of the appends.
    fn copy_live_forward(
        &mut self,
        victim: u32,
        live: &mut Vec<(u32, u32)>,
        image: &mut Vec<u8>,
        block: &mut Vec<u8>,
    ) -> FsResult<()> {
        live.clear();
        live.extend((0..SEG_DATA as u32).filter_map(|idx| {
            let owner = self.state.rmap[seg_to_slot(victim, idx) as usize];
            (owner != NONE).then_some((idx, owner))
        }));
        // The copies must fit in the open segment plus (at most) one fresh
        // one; refuse up front rather than wedge mid-copy.
        let open_room = self
            .state
            .open
            .as_ref()
            .map(|o| SEG_DATA as u32 - o.summary.fill)
            .unwrap_or(0);
        if live.len() as u32 > open_room && self.free_segments() == 0 {
            return Err(FsError::NoSpace);
        }
        // Read the whole victim in one command (cleaning is segment-sized
        // I/O — the reason it needs long idle windows, unlike the VLD's
        // track-sized compactor).
        let bs = self.state.block_size;
        let start = summary_block(victim);
        let (image, _) = self.dev.share_blocks(start, SEG_BLOCKS as usize, image)?;
        let summary = Summary::decode(image.get(0..bs, block)).ok();
        self.cleaning = true;
        let copied = live.iter().try_for_each(|&(idx, owner)| {
            let range = (1 + idx as usize) * bs..(2 + idx as usize) * bs;
            let page = image.page(range.clone());
            let page = page.unwrap_or_else(|| pooled_copy(image.get(range, block)));
            let recorded = summary.as_ref().and_then(|s| s.recorded(idx, owner));
            let sum = recorded.unwrap_or_else(|| {
                self.digested += bs as u64;
                digest(&page)
            });
            self.append_digested(owner as u64, page, sum)?;
            self.state.stats.blocks_copied += 1;
            self.metrics.inc("lld.blocks_copied");
            Ok(())
        });
        self.cleaning = false;
        copied
    }
}

/// Where a logical block lies: nowhere (zeros), open segment, or device.
enum Place<'a> {
    Unmapped,
    Open(&'a Arc<[u8]>),
    Device(u64),
}

impl BlockDevice for LogDisk {
    fn block_size(&self) -> usize {
        self.state.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.state.logical_blocks
    }

    fn clock(&self) -> SimClock {
        self.dev.clock()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> DiskResult<ServiceTime> {
        match self.place(block) {
            Place::Unmapped => buf.fill(0),
            Place::Open(data) => buf.copy_from_slice(data),
            Place::Device(at) => return self.dev.read_block(at, buf),
        }
        Ok(ServiceTime::ZERO)
    }

    /// A lone block on the device is the device's shared read of it, the
    /// command `read_block` issues; anything else reads as the default.
    fn share_blocks<'a>(
        &mut self,
        start: u64,
        blocks: usize,
        spare: &'a mut Vec<u8>,
    ) -> DiskResult<(SharedBlocks<'a>, ServiceTime)> {
        match self.place(start) {
            Place::Device(at) if blocks == 1 => self.dev.share_blocks(at, 1, spare),
            _ => {
                spare.resize(blocks * self.state.block_size, 0);
                let st = self.read_blocks(start, spare)?;
                Ok((SharedBlocks::Copied(spare), st))
            }
        }
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> DiskResult<ServiceTime> {
        self.write_gathered(block, &[&pooled_copy(buf)])
    }

    fn write_gathered(&mut self, start: u64, blocks: &[&Arc<[u8]>]) -> DiskResult<ServiceTime> {
        // What `write_blocks` does with the blocks laid end to end: one
        // append each, keeping each handle.
        let bs = self.block_size();
        if let Some(b) = blocks.iter().find(|b| b.len() != bs) {
            return Err(disksim::DiskError::BadBufferLength {
                expected: bs,
                actual: b.len(),
            });
        }
        let clock = self.dev.clock();
        let t0 = clock.now();
        for (block, data) in (start..).zip(blocks) {
            self.append(block, Arc::clone(data)).map_err(|e| match e {
                FsError::NoSpace => disksim::DiskError::NoSpace,
                FsError::Disk(d) => d,
                _ => disksim::DiskError::Unsupported("log append failed"),
            })?;
        }
        // The device time the appends triggered: their segment flushes.
        Ok(ServiceTime {
            transfer_ns: clock.now() - t0,
            ..ServiceTime::ZERO
        })
    }

    fn trim(&mut self, block: u64) -> DiskResult<()> {
        self.unmap(block);
        Ok(())
    }

    fn idle(&mut self, budget_ns: u64) -> u64 {
        let clock = self.dev.clock();
        let start = clock.now();
        let deadline = start + budget_ns;
        while clock.now() < deadline && self.free_segments() < self.state.cfg.idle_clean_target {
            if !self.state.seg_state.contains(&SegState::Dirty) {
                break;
            }
            self.state.stats.during_idle += 1;
            self.metrics.inc("lld.clean_during_idle");
            if self.clean_some(1).unwrap_or(0) == 0 {
                break;
            }
        }
        self.update_gauges();
        clock.now() - start
    }

    fn flush(&mut self) -> DiskResult<ServiceTime> {
        let clock = self.dev.clock();
        let t0 = clock.now();
        self.sync().map_err(|e| match e {
            FsError::Disk(d) => d,
            _ => disksim::DiskError::Unsupported("log flush failed"),
        })?;
        Ok(ServiceTime {
            transfer_ns: clock.now() - t0,
            ..ServiceTime::ZERO
        })
    }

    fn disk_stats(&self) -> DiskStats {
        self.dev.disk_stats()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn self_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn inner_device(&self) -> Option<&dyn BlockDevice> {
        Some(self.dev.as_ref())
    }

    fn spans(&self) -> disksim::Spans {
        self.dev.spans()
    }

    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        Some(Box::new(LogDiskSnapshot {
            dev: self.dev.snapshot()?,
            state: self.state.clone(),
        }))
    }
}

/// Snapshot of a [`LogDisk`]: the wrapped device's snapshot plus the log's
/// state.
pub(crate) struct LogDiskSnapshot {
    dev: Box<dyn DeviceSnapshot>,
    state: LldState,
}

impl DeviceSnapshot for LogDiskSnapshot {
    fn restore(&self) -> Box<dyn BlockDevice> {
        Box::new(LogDisk::assemble(self.dev.restore(), self.state.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{downcast_device, probe_device, DiskSpec, RegularDisk};

    fn raw() -> Box<dyn BlockDevice> {
        Box::new(RegularDisk::new(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            4096,
        ))
    }

    fn lld() -> LogDisk {
        LogDisk::format(raw(), LldConfig::default()).unwrap()
    }

    #[test]
    fn geometry_leaves_reserve_and_checkpoint() {
        let l = lld();
        assert!(l.state.nsegs >= 40);
        assert_eq!(
            l.num_blocks(),
            (l.state.nsegs as u64 - RESERVE_SEGS) * SEG_DATA
        );
        assert!(l.state.ckpt_start >= l.state.nsegs as u64 * SEG_BLOCKS);
    }

    #[test]
    fn write_read_round_trip_through_buffer_and_media() {
        let mut l = lld();
        let w: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        l.write_block(10, &w).unwrap();
        // Still in the open segment: served from memory.
        let mut r = vec![0u8; 4096];
        let t = l.read_block(10, &mut r).unwrap();
        assert_eq!(r, w);
        assert_eq!(t.total_ns(), 0);
        // Fill the segment to force a seal, then re-read from media.
        for i in 0..SEG_DATA {
            l.write_block(100 + i, &vec![i as u8; 4096]).unwrap();
        }
        let mut r = vec![0u8; 4096];
        l.read_block(10, &mut r).unwrap();
        assert_eq!(r, w);
    }

    #[test]
    fn small_writes_are_buffered_not_disked() {
        let mut l = lld();
        let before = l.disk_stats().writes;
        for i in 0..50u64 {
            l.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        assert_eq!(l.disk_stats().writes, before, "appends must stay in memory");
    }

    #[test]
    fn seal_writes_one_big_command() {
        let mut l = lld();
        let before = l.disk_stats().writes;
        for i in 0..SEG_DATA {
            l.write_block(i, &vec![2u8; 4096]).unwrap();
        }
        assert_eq!(l.disk_stats().writes, before + 1, "one command per segment");
    }

    /// A gathered write appends its blocks one by one, as `write_blocks`
    /// does with them laid end to end.
    #[test]
    fn gathered_writes_append_each_block() {
        let (mut gathered, mut flat) = (lld(), lld());
        let blocks: Vec<Vec<u8>> = (0..SEG_DATA + 3).map(|i| vec![i as u8; 4096]).collect();
        let handles: Vec<Arc<[u8]>> = blocks.iter().map(|b| b[..].into()).collect();
        let refs: Vec<&Arc<[u8]>> = handles.iter().collect();
        let st = gathered.write_gathered(7, &refs).unwrap();
        assert_eq!(st, flat.write_blocks(7, &blocks.concat()).unwrap());
        assert_eq!(
            format!("{:?}", gathered.disk_stats()),
            format!("{:?}", flat.disk_stats())
        );
        let mut r = vec![0u8; 4096];
        for (i, b) in blocks.iter().enumerate() {
            gathered.read_block(7 + i as u64, &mut r).unwrap();
            assert_eq!(&r, b);
        }
        assert!(gathered.write_gathered(0, &[&Arc::from(&[0u8; 512][..])]).is_err());
    }

    #[test]
    fn unmapped_reads_zero() {
        let mut l = lld();
        let mut r = vec![9u8; 4096];
        let t = l.read_block(77, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
        assert_eq!(t.total_ns(), 0);
    }

    #[test]
    fn sync_below_threshold_keeps_segment_open() {
        let mut l = lld();
        for i in 0..10u64 {
            l.write_block(i, &vec![3u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        assert!(l.state.open.is_some(), "10/127 < 75%: memory copy retained");
        // Above threshold: sealed.
        for i in 10..100u64 {
            l.write_block(i, &vec![4u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        assert!(l.state.open.is_none(), "100/127 >= 75%: flushed as if full");
    }

    #[test]
    fn overwrites_make_segments_cleanable() {
        let mut l = lld();
        // Fill several segments, then overwrite everything: old segments
        // become fully dead and thus free without cleaning.
        let n = 3 * SEG_DATA;
        for i in 0..n {
            l.write_block(i, &vec![5u8; 4096]).unwrap();
        }
        let free_before = l.free_segments();
        for i in 0..n {
            l.write_block(i, &vec![6u8; 4096]).unwrap();
        }
        assert!(
            l.free_segments() >= free_before - 1,
            "dead segments recycled"
        );
        // Data still correct.
        let mut r = vec![0u8; 4096];
        l.read_block(n - 1, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 6));
    }

    #[test]
    fn cleaner_reclaims_holey_segments() {
        let mut l = lld();
        let span = 5 * SEG_DATA;
        for i in 0..span {
            l.write_block(i, &vec![7u8; 4096]).unwrap();
        }
        // Punch 50% holes.
        for i in (0..span).step_by(2) {
            l.write_block(i, &vec![8u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        let free_before = l.free_segments();
        let cleaned = l.clean_some(2).unwrap();
        assert_eq!(cleaned, 2);
        assert!(l.free_segments() > free_before.saturating_sub(1));
        assert!(l.cleaner_stats().blocks_copied > 0);
        // All data intact.
        for i in 0..span {
            let want = if i % 2 == 0 { 8 } else { 7 };
            let mut r = vec![0u8; 4096];
            l.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == want), "block {i}");
        }
    }

    #[test]
    fn fills_to_capacity_with_on_demand_cleaning() {
        let mut l = lld();
        let n = l.num_blocks();
        for i in 0..n {
            l.write_block(i, &vec![9u8; 4096]).unwrap();
        }
        // Overwrite a lot — forces cleaning since free segments are scarce.
        for i in 0..n {
            l.write_block(i, &vec![10u8; 4096]).unwrap();
        }
        assert!(l.cleaner_stats().segments_cleaned > 0 || l.free_segments() > 0);
        let mut r = vec![0u8; 4096];
        l.read_block(0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 10));
    }

    #[test]
    fn idle_cleaning_respects_target_and_budget() {
        // Aggressive target so idle time has cleaning to do.
        let cfg = LldConfig {
            idle_clean_target: u32::MAX,
            ..LldConfig::default()
        };
        let mut l = LogDisk::format(raw(), cfg).unwrap();
        let span = 6 * SEG_DATA;
        for i in 0..span {
            l.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        for i in (0..span).step_by(2) {
            l.write_block(i, &vec![2u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        let dirty_before = l.state.nsegs - l.free_segments();
        let used = l.idle(60_000_000_000);
        assert!(used > 0, "holey segments existed; idle must clean");
        assert!(l.cleaner_stats().during_idle > 0);
        let dirty_after = l.state.nsegs - l.free_segments();
        assert!(
            dirty_after < dirty_before,
            "{dirty_before} -> {dirty_after}"
        );
        // A tiny budget consumes at most one cleaning pass beyond it.
        let small = l.idle(1_000);
        assert!(small < 200_000_000, "budget wildly exceeded: {small}");
    }

    /// Idle time counts a cleaning pass when some segment is dirty, even
    /// if every dirty segment is fully live and nothing gets cleaned, and
    /// none when no segment is dirty.
    #[test]
    fn idle_counts_a_pass_only_when_a_segment_is_dirty() {
        let cfg = LldConfig {
            idle_clean_target: u32::MAX,
            ..LldConfig::default()
        };
        let mut l = LogDisk::format(raw(), cfg).unwrap();
        l.idle(1_000_000_000);
        assert_eq!(l.cleaner_stats().during_idle, 0, "nothing dirty");
        for i in 0..2 * SEG_DATA {
            l.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        l.idle(1_000_000_000);
        let stats = l.cleaner_stats();
        assert_eq!((stats.during_idle, stats.segments_cleaned), (1, 0));
    }

    #[test]
    fn roll_forward_recovers_sealed_segments_after_crash() {
        // Write enough to seal several segments, then "crash" without any
        // sync: the checkpoint is stale (from format), but the sealed
        // segments' summaries roll the map forward.
        let mut l = lld();
        let n = 3 * SEG_DATA + 40; // 3 sealed + a partial tail
        for i in 0..n {
            l.write_block(i, &vec![(i % 251) as u8; 4096]).unwrap();
        }
        let dev = l.dev; // no sync(): simulated crash
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        for i in 0..3 * SEG_DATA {
            let mut r = vec![0u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            assert!(
                r.iter().all(|&b| b == (i % 251) as u8),
                "sealed block {i} lost"
            );
        }
        // The unsealed, never-flushed tail is (correctly) gone.
        let mut r = vec![0u8; 4096];
        l2.read_block(3 * SEG_DATA + 10, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0), "unflushed tail should be lost");
    }

    #[test]
    fn roll_forward_applies_partial_flushes() {
        let mut l = lld();
        for i in 0..30u64 {
            l.write_block(i, &vec![5u8; 4096]).unwrap();
        }
        l.sync().unwrap(); // below threshold: partial flush, segment open
        for i in 30..50u64 {
            l.write_block(i, &vec![6u8; 4096]).unwrap();
        }
        // Crash: blocks 30..50 were never flushed; 0..30 were.
        let dev = l.dev;
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        let mut r = vec![0u8; 4096];
        l2.read_block(10, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 5), "partially-flushed data lost");
        l2.read_block(40, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn roll_forward_keeps_latest_version_across_segments() {
        let mut l = lld();
        // Fill a segment with v1, then overwrite some blocks into the next
        // segment; crash after both sealed.
        for i in 0..SEG_DATA {
            l.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        for i in 0..SEG_DATA {
            l.write_block(i, &vec![2u8; 4096]).unwrap();
        }
        let dev = l.dev;
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        for i in (0..SEG_DATA).step_by(13) {
            let mut r = vec![0u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            assert!(
                r.iter().all(|&b| b == 2),
                "block {i} resolved to stale version"
            );
        }
    }

    #[test]
    fn cleaner_victims_stay_safe_across_crash() {
        // Clean a holey segment, then crash before any sync: the copies
        // were force-flushed before the victim became reusable, so nothing
        // is lost.
        let mut l = lld();
        let span = 3 * SEG_DATA;
        for i in 0..span {
            l.write_block(i, &vec![7u8; 4096]).unwrap();
        }
        for i in (0..span).step_by(2) {
            l.write_block(i, &vec![8u8; 4096]).unwrap();
        }
        l.clean_some(2).unwrap();
        let dev = l.dev; // crash, no sync
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        for i in 0..span {
            let want = if i % 2 == 0 { 8 } else { 7 };
            let mut r = vec![0u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            // Blocks might legitimately be the unflushed tail (lost) only
            // if they were never flushed; sealed v1/v2 and cleaned copies
            // must survive.
            let got = r[0];
            assert!(r.iter().all(|&b| b == got), "block {i} torn after crash");
            assert!(
                got == want || got == 0,
                "block {i}: impossible value {got} (want {want} or lost)"
            );
            if got == 0 {
                // Lost blocks are only acceptable from the unflushed tail;
                // v1 blocks (odd) were sealed long ago and must be present.
                assert!(i % 2 == 0, "sealed block {i} lost");
            }
        }
    }

    #[test]
    fn checkpointed_mount_preserves_data() {
        let mut l = lld();
        for i in 0..200u64 {
            l.write_block(i, &vec![i as u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        let dev = l.dev;
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        for i in 0..200u64 {
            let mut r = vec![0u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == i as u8), "block {i}");
        }
    }

    #[test]
    fn torn_checkpoint_falls_back_to_other_slot() {
        let mut l = lld();
        for i in 0..200u64 {
            l.write_block(i, &vec![i as u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        let (ckpt_start, ckpt_total) = l.checkpoint_region();
        let ckpt_blocks = ckpt_total / 2;
        // Format wrote slot A, the sync wrote slot B: tear slot B's header
        // (as a power cut mid-checkpoint would) and remount.
        let mut dev = l.crash();
        dev.write_block(ckpt_start + ckpt_blocks, &vec![0xEEu8; 4096])
            .unwrap();
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        // Slot A (from format) plus summary roll-forward recovers all the
        // sealed/flushed data.
        for i in 0..SEG_DATA {
            let mut r = vec![0u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == i as u8), "block {i}");
        }
    }

    #[test]
    fn both_checkpoints_corrupt_scan_fallback_recovers() {
        let mut l = lld();
        let n = 2 * SEG_DATA; // two sealed segments
        for i in 0..n {
            l.write_block(i, &vec![(i % 251) as u8; 4096]).unwrap();
        }
        l.sync().unwrap();
        let (ckpt_start, ckpt_total) = l.checkpoint_region();
        let ckpt_blocks = ckpt_total / 2;
        let mut dev = l.crash();
        dev.write_block(ckpt_start, &vec![0xEEu8; 4096]).unwrap();
        dev.write_block(ckpt_start + ckpt_blocks, &vec![0xEEu8; 4096])
            .unwrap();
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        for i in 0..n {
            let mut r = vec![0u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == (i % 251) as u8), "block {i}");
        }
    }

    #[test]
    fn torn_segment_flush_is_discarded_on_mount() {
        // Seal one segment (durable), then hand-craft a flush of a second:
        // its summary lands, and `landed` of its four data blocks. With one
        // slot not matching its recorded digest, mount must keep the
        // sealed segment and discard the torn one whole, its three whole
        // slots too; with all four landed, it rolls the segment forward.
        for landed in [3u32, 4] {
            let mut l = lld();
            for i in 0..SEG_DATA {
                l.write_block(i, &vec![3u8; 4096]).unwrap();
            }
            let mut dev = l.crash();
            let mut torn = Summary::empty();
            torn.fill = 4;
            for idx in 0..4u32 {
                let data = vec![9 + idx as u8; 4096];
                torn.owners[idx as usize] = (SEG_DATA + idx as u64) as u32;
                torn.digests[idx as usize] = digest(&data);
                if idx < landed {
                    dev.write_block(slot_device_block(seg_to_slot(1, idx)), &data)
                        .unwrap();
                }
            }
            torn.seq = 99;
            let mut img = vec![0u8; 4096];
            torn.encode_into(&mut img);
            dev.write_block(summary_block(1), &img).unwrap();
            let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
            let mut r = vec![0u8; 4096];
            l2.read_block(0, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == 3), "sealed segment lost");
            for idx in 0..4u32 {
                let want = if landed == 4 { 9 + idx as u8 } else { 0 };
                l2.read_block(SEG_DATA + idx as u64, &mut r).unwrap();
                assert!(r.iter().all(|&b| b == want), "{landed} landed: slot {idx}");
            }
        }
    }

    #[test]
    fn scan_fallback_does_not_alias_trimmed_blocks() {
        // Trim a whole segment's worth of blocks, force the emptied segment
        // to be reused by new data, then corrupt both checkpoints and
        // remount via the scan path. The stale pre-trim mappings must not
        // alias onto the reused segment's new contents.
        let mut l = lld();
        for i in 0..SEG_DATA {
            l.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        l.sync().unwrap(); // checkpoint maps 0..SEG_DATA into segment 0
        for i in 0..SEG_DATA {
            l.trim(i).unwrap();
        }
        // Steer the allocator back to the emptied segment and seal a fresh
        // generation of data into it.
        assert_eq!(
            l.state.seg_state[0],
            SegState::Free,
            "trim must free segment 0"
        );
        l.state.next_seg = 0;
        let hi = l.num_blocks() - SEG_DATA;
        for i in 0..SEG_DATA {
            l.write_block(hi + i, &vec![10u8; 4096]).unwrap();
        }
        assert_eq!(
            l.state.seg_state[0],
            SegState::Dirty,
            "segment 0 never reused"
        );
        assert!(l.state.seg_live[0] > 0);
        let (ckpt_start, ckpt_total) = l.checkpoint_region();
        let ckpt_blocks = ckpt_total / 2;
        let mut dev = l.crash();
        dev.write_block(ckpt_start, &vec![0xEEu8; 4096]).unwrap();
        dev.write_block(ckpt_start + ckpt_blocks, &vec![0xEEu8; 4096])
            .unwrap();
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        for i in 0..SEG_DATA {
            let mut r = vec![7u8; 4096];
            l2.read_block(i, &mut r).unwrap();
            assert!(
                r.iter().all(|&b| b == 0),
                "trimmed block {i} aliased onto reused segment data"
            );
        }
    }

    #[test]
    fn trim_frees_segment_space() {
        let mut l = lld();
        for i in 0..SEG_DATA {
            l.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        for i in 0..SEG_DATA {
            l.trim(i).unwrap();
        }
        let mut r = vec![1u8; 4096];
        l.read_block(0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    /// Mount a fresh log whose two checkpoint slots both hold a sealed
    /// image of the map `edit` makes from an empty one.
    fn mount_over_checkpoint(edit: impl FnOnce(&LogDisk, &mut [u32])) -> FsResult<LogDisk> {
        let l = lld();
        let (ckpt_start, ckpt_total) = l.checkpoint_region();
        let ckpt_blocks = ckpt_total / 2;
        let mut map = vec![NONE; l.num_blocks() as usize];
        edit(&l, &mut map);
        let mut raw = vec![0u8; ckpt_blocks as usize * 4096];
        encode_checkpoint(&mut raw, 7, &map);
        let mut dev = l.crash();
        for slot in 0..2 {
            dev.write_blocks(ckpt_start + slot * ckpt_blocks, &raw)
                .unwrap();
        }
        LogDisk::mount(dev, LldConfig::default())
    }

    /// A checksum-valid checkpoint naming a data slot past the end of the
    /// log fails the mount with `Invalid` instead of indexing out of the
    /// reverse map.
    #[test]
    fn a_checkpoint_naming_a_slot_beyond_the_log_is_refused() {
        let refused = mount_over_checkpoint(|l, map| {
            map[3] = (l.state.nsegs as u64 * SEG_DATA + 5) as u32;
        });
        assert_eq!(
            refused.err(),
            Some(FsError::Invalid("checkpoint slot beyond the log"))
        );
    }

    /// A checksum-valid checkpoint mapping two blocks to one slot fails the
    /// mount: the log would count the slot live once, and once either block
    /// is overwritten the cleaner could reuse the slot under the other.
    #[test]
    fn a_checkpoint_mapping_one_slot_twice_is_refused() {
        let refused = mount_over_checkpoint(|_, map| (map[3], map[4]) = (5, 5));
        assert_eq!(
            refused.err(),
            Some(FsError::Invalid("checkpoint maps one slot twice"))
        );
        let distinct = mount_over_checkpoint(|_, map| (map[3], map[4]) = (5, 6));
        assert_eq!(distinct.map(|l| l.state.seg_live[0]).ok(), Some(2));
    }

    fn drives() -> [DiskSpec; 3] {
        // 75 sectors a track: every ninth 4 KB block straddles a track
        // boundary, which neither paper drive produces.
        let straddling = DiskSpec {
            geometry: disksim::Geometry::uniform(36, 19, 75),
            ..DiskSpec::hp97560_sim()
        };
        [DiskSpec::st19101_sim(), DiskSpec::hp97560_sim(), straddling]
    }

    /// A seeded episode of writes, trims, syncs, cleaning passes and idle
    /// time on a log with `cfg` over `dev`, checked block by block against
    /// a shadow copy of what was written.
    fn episode(dev: Box<dyn BlockDevice>, cfg: LldConfig, seed: u64) -> LogDisk {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut l = LogDisk::format(dev, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = l.num_blocks() * 3 / 4;
        let mut shadow = vec![0u8; n as usize];
        for round in 0..40u64 {
            for _ in 0..rng.gen_range(10..300) {
                let lb = rng.gen_range(0..n);
                shadow[lb as usize] = if rng.gen_range(0..10u32) == 0 {
                    l.trim(lb).unwrap();
                    0
                } else {
                    let v = (lb ^ round) as u8 | 1;
                    l.write_block(lb, &vec![v; 4096]).unwrap();
                    v
                };
            }
            match rng.gen_range(0..4u32) {
                0 => {
                    let _ = l.clean_some(rng.gen_range(1..3u32));
                }
                1 => l.sync().unwrap(),
                2 => {
                    l.idle(200_000_000);
                }
                _ => {}
            }
        }
        let mut r = vec![0u8; 4096];
        for (lb, &v) in shadow.iter().enumerate() {
            l.read_block(lb as u64, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == v), "block {lb}");
        }
        l
    }

    /// Every live slot of every sealed segment on the device under `l`:
    /// its summary, read off the device, names the slot's owner within its
    /// fill and records the digest of the bytes the slot holds.
    fn check_recorded_digests(l: &mut LogDisk, what: &str) {
        let mut sbuf = vec![0u8; 4096];
        let mut data = vec![0u8; 4096];
        for seg in 0..l.state.nsegs {
            if l.state.seg_state[seg as usize] != SegState::Dirty {
                continue;
            }
            l.dev.read_block(summary_block(seg), &mut sbuf).unwrap();
            let summary = Summary::decode(&sbuf).unwrap();
            for idx in 0..SEG_DATA as u32 {
                let slot = seg_to_slot(seg, idx);
                let owner = l.state.rmap[slot as usize];
                if owner == NONE {
                    continue;
                }
                l.dev
                    .read_block(slot_device_block(slot), &mut data)
                    .unwrap();
                assert_eq!(
                    summary.recorded(idx, owner),
                    Some(digest(&data)),
                    "{what}: segment {seg} slot {idx}"
                );
            }
        }
    }

    /// A cleaner copy carries its victim's recorded digest instead of
    /// reading its bytes, and the carried digests stay true: after seeded
    /// churn with idle and on-demand cleaning, a crash and a mount, every
    /// live slot's recorded digest is the digest of what the drive holds,
    /// over a regular disk (which lends the victim's pages) and over a VLD
    /// (whose victim reads are copied).
    #[test]
    fn carried_digests_match_the_bytes_after_churn_crash_and_mount() {
        let regular = || -> Box<dyn BlockDevice> { raw() };
        let vld = || -> Box<dyn BlockDevice> {
            let cfg = vlog_core::VldConfig::default();
            Box::new(vlog_core::Vld::format(
                DiskSpec::st19101_sim(),
                SimClock::new(),
                cfg,
            ))
        };
        let cfg = LldConfig {
            idle_clean_target: u32::MAX,
            ..LldConfig::default()
        };
        for (what, dev) in [("regular", regular()), ("vld", vld())] {
            let mut l = episode(dev, cfg, 0xD16E);
            let stats = l.cleaner_stats();
            assert!(stats.blocks_copied > 0 && stats.during_idle > 0, "{what}");
            check_recorded_digests(&mut l, what);
            let mut l = LogDisk::mount(l.crash(), cfg).unwrap();
            check_recorded_digests(&mut l, what);
        }
    }

    /// A victim whose summary no longer vouches for its blocks is cleaned
    /// all the same, its live blocks digested afresh, and the copies roll
    /// forward at the next mount: a summary block damaged on the media (it
    /// fails to decode), and one that decodes but names other owners with
    /// other digests (a summary the slots' blocks were not written under).
    #[test]
    fn a_victim_whose_summary_does_not_vouch_is_digested_and_rolls_forward() {
        for damage in ["unreadable", "other owners"] {
            let m = disksim::Metrics::enabled();
            let mut l = lld();
            l.set_metrics(m.clone());
            for i in 0..SEG_DATA {
                l.write_block(i, &vec![i as u8 | 1; 4096]).unwrap();
            }
            // Segment 0 keeps 27 live blocks; the checkpoint maps them there.
            for i in 0..100 {
                l.trim(i).unwrap();
            }
            l.sync().unwrap();
            let mut sbuf = vec![0u8; 4096];
            l.dev.read_block(summary_block(0), &mut sbuf).unwrap();
            if damage == "unreadable" {
                sbuf[2000] ^= 1;
                sbuf[20] ^= 1;
                assert!(Summary::decode(&sbuf).is_err());
            } else {
                let mut stale = Summary::decode(&sbuf).unwrap();
                for idx in 100..SEG_DATA as usize {
                    stale.owners[idx] = 5000 + idx as u32;
                    stale.digests[idx] = 0x5A5A;
                }
                stale.encode_into(&mut sbuf);
            }
            l.dev.write_block(summary_block(0), &sbuf).unwrap();
            // A zero idle grant cleans nothing and publishes the work
            // counter; cleaning a segment publishes it again.
            l.idle(0);
            let digested = m.counter_value("lld.bytes_digested");
            assert_eq!(l.clean_some(1).unwrap(), 1, "{damage}");
            assert_eq!(l.cleaner_stats().blocks_copied, 27);
            assert_eq!(
                m.counter_value("lld.bytes_digested") - digested,
                27 * 4096,
                "{damage}: each copy digested afresh"
            );
            // Crash before any checkpoint covers the copies: only their
            // roll-forward can move the 27 blocks out of segment 0.
            let moved = l.map_snapshot();
            let mut l = LogDisk::mount(l.crash(), LldConfig::default()).unwrap();
            assert_eq!(l.map_snapshot(), moved, "{damage}: copies rolled forward");
            for i in 100..SEG_DATA {
                let mut r = vec![0u8; 4096];
                l.read_block(i, &mut r).unwrap();
                assert!(r.iter().all(|&b| b == i as u8 | 1), "{damage}: block {i}");
            }
        }
    }

    /// The cleaner reads its victim through the device's shared read: a
    /// regular disk lends its tracks and a `FaultDisk` (the default, copying
    /// path) fills the spare buffer, and the same seeded episode ends with
    /// the same clock, disk statistics, cleaner counters and map on both —
    /// on both paper drives and on one whose blocks straddle tracks.
    #[test]
    fn the_lent_victim_and_the_copied_victim_clean_alike() {
        for spec in drives() {
            let regular = || Box::new(RegularDisk::new(spec.clone(), SimClock::new(), 4096));
            let lent = episode(regular(), LldConfig::default(), 0x5EED);
            let fault = disksim::FaultDisk::new(regular(), disksim::FaultPlan::none());
            let copied = episode(Box::new(fault), LldConfig::default(), 0x5EED);
            assert!(lent.cleaner_stats().blocks_copied > 0, "{}", spec.name);
            assert_eq!(lent.dev.clock().now(), copied.dev.clock().now());
            assert_eq!(
                format!("{:?}", lent.disk_stats()),
                format!("{:?}", copied.disk_stats())
            );
            assert_eq!(
                format!("{:?}", lent.cleaner_stats()),
                format!("{:?}", copied.cleaner_stats())
            );
            assert_eq!(lent.map_snapshot(), copied.map_snapshot());
            assert!(
                lent.scratch.victim_image.is_empty(),
                "the spare stays unused"
            );
        }
    }

    /// Cleaning over a regular disk copies none of the victim's bytes out of
    /// the drive (`disk.read_bytes_copied` stays put while the victim reads
    /// are still issued), and a `FaultDisk` on top forwards the shared read.
    #[test]
    fn cleaning_over_a_regular_disk_copies_no_victim_bytes() {
        for wrap in [false, true] {
            let m = disksim::Metrics::enabled();
            let mut rd = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
            rd.disk_mut().set_metrics(m.clone());
            let dev: Box<dyn BlockDevice> = if wrap {
                Box::new(disksim::FaultDisk::new(
                    Box::new(rd),
                    disksim::FaultPlan::none(),
                ))
            } else {
                Box::new(rd)
            };
            let mut l = LogDisk::format(dev, LldConfig::default()).unwrap();
            let span = 5 * SEG_DATA;
            for i in 0..span {
                l.write_block(i, &vec![7u8; 4096]).unwrap();
            }
            for i in (0..span).step_by(2) {
                l.write_block(i, &vec![8u8; 4096]).unwrap();
            }
            l.sync().unwrap();
            let (copied, reads) = (
                m.counter_value("disk.read_bytes_copied"),
                m.counter_value("disk.reads"),
            );
            assert_eq!(l.clean_some(2).unwrap(), 2);
            assert!(l.cleaner_stats().blocks_copied > 0);
            assert_eq!(m.counter_value("disk.reads"), reads + 2);
            assert_eq!(
                m.counter_value("disk.read_bytes_copied"),
                copied,
                "wrapped {wrap}"
            );
        }
    }

    /// A shared read of one block on the device is the device's shared
    /// read of its slot: the same command as `read_block` (service time,
    /// clock and disk statistics alike) delivering the drive's own page. A
    /// block of the open segment, an unmapped one and a run of two read as
    /// `read_blocks` does, into the spare.
    #[test]
    fn a_lone_sealed_block_is_shared_through_the_read_command() {
        let setup = || {
            let mut l = lld();
            for i in 0..SEG_DATA + 5 {
                l.write_block(i, &vec![i as u8 | 1; 4096]).unwrap();
            }
            l
        };
        let (mut read, mut shared) = (setup(), setup());
        let mut spare = Vec::new();
        for (lb, n, lent) in [
            (3, 1, true),
            (SEG_DATA + 2, 1, false),
            (SEG_DATA + 40, 1, false),
            (3, 2, false),
        ] {
            let mut want = vec![0u8; n * 4096];
            let st = read.read_blocks(lb, &mut want).unwrap();
            let (blocks, got) = shared.share_blocks(lb, n, &mut spare).unwrap();
            assert_eq!(st, got, "block {lb}");
            assert_eq!(blocks.get(0..n * 4096, &mut Vec::new()), &want[..]);
            assert_eq!(blocks.page(0..4096).is_some(), lent, "block {lb}");
            drop(blocks);
            assert_eq!(read.clock().now(), shared.clock().now());
            assert_eq!(
                format!("{:?}", read.disk_stats()),
                format!("{:?}", shared.disk_stats())
            );
        }
        assert!(
            read.disk_stats().reads > 0,
            "the sealed block came off the drive"
        );
    }

    /// The file the aliasing test works on, in blocks: a segment and a
    /// half, so bursts seal segments and overwrites leave holes to clean.
    const SPAN: usize = 192;

    /// UFS, with a 16-block cache so writes evict dirty blocks too, over a
    /// log that cleans on every idle grant, over a regular disk, holding
    /// one file of [`SPAN`] blocks; and what each of them holds.
    fn kept_stack() -> (ufs::Ufs, fscore::FileId, Vec<Vec<u8>>) {
        use fscore::FileSystem;
        let cfg = LldConfig {
            idle_clean_target: u32::MAX,
            ..LldConfig::default()
        };
        let l = LogDisk::format(raw(), cfg).unwrap();
        let ufs_cfg = ufs::UfsConfig {
            cache_bytes: 16 * 4096,
            ..ufs::UfsConfig::default()
        };
        let host = fscore::HostModel::sparcstation_10();
        let mut fs = ufs::Ufs::format(Box::new(l), host, ufs_cfg).unwrap();
        let f = fs.create("f").unwrap();
        let view: Vec<Vec<u8>> = (0..SPAN).map(|i| vec![i as u8; 4096]).collect();
        fs.write(f, 0, &view.concat()).unwrap();
        fs.sync().unwrap();
        (fs, f, view)
    }

    /// The file as `fs` shows it, read from a restored copy of the whole
    /// stack (so the reads change nothing), with its clean cached blocks
    /// dropped first when `cold`, so those come from the log.
    fn file_view(fs: &ufs::Ufs, cold: bool) -> Vec<u8> {
        use fscore::FileSystem;
        let mut copy = fs.snapshot().expect("the stack snapshots").restore();
        if cold {
            copy.drop_caches();
        }
        let f = copy.open("f").unwrap();
        let mut out = vec![0u8; SPAN * 4096];
        copy.read(f, 0, &mut out).unwrap();
        out
    }

    /// The drive agrees with the log: every sealed segment's summary, read
    /// off the drive with `peek_sectors`, names the owner of each of its
    /// live slots, and the flushed prefix of the open segment is on the
    /// drive as the log holds it, summary included.
    fn check_drive(l: &LogDisk, what: &str) {
        let disk = disksim::downcast_device::<RegularDisk>(l.dev.snapshot().unwrap().restore());
        let disk = disk.into_disk();
        let peek = |block: u64| {
            let mut buf = vec![0u8; 4096];
            disk.peek_sectors(block * 8, &mut buf).unwrap();
            buf
        };
        for seg in 0..l.state.nsegs {
            if l.state.seg_state[seg as usize] != SegState::Dirty {
                continue;
            }
            let summary = Summary::decode(&peek(summary_block(seg))).unwrap();
            for idx in 0..summary.fill {
                let owner = l.state.rmap[seg_to_slot(seg, idx) as usize];
                if owner != NONE {
                    assert_eq!(
                        summary.owners[idx as usize], owner,
                        "{what}: segment {seg} slot {idx}"
                    );
                }
            }
        }
        if let Some(open) = l.state.open.as_ref().filter(|o| o.flushed > 0) {
            let summary = Summary::decode(&peek(summary_block(open.seg))).unwrap();
            assert_eq!(summary.fill, open.flushed, "{what}: open summary");
            for idx in 0..open.flushed {
                let on_drive = peek(slot_device_block(seg_to_slot(open.seg, idx)));
                assert!(
                    on_drive[..] == open.blocks[1 + idx as usize][..],
                    "{what}: open slot {idx}"
                );
                assert_eq!(
                    summary.owners[idx as usize],
                    open.summary.owners[idx as usize]
                );
            }
        }
    }

    /// The cache keeps the log's blocks, the log keeps the cache's blocks
    /// and the drive's pages, the drive keeps the log's, the cleaner moves
    /// pages the cache and the log share, and snapshots share all of them:
    /// through random synchronous and delayed whole-block writes, partial
    /// edits, reads, bursts that seal segments, partial flushes, syncs,
    /// cache drops, idle cleaning, and whole-stack snapshots, restores and
    /// drops, no write on one side shows through on another. After each
    /// step the file reads as written with its cache warm and cold, the
    /// drive agrees with the log, a sync leaves a volume that mounts with
    /// the file as written, and no snapshot sees what was written after it.
    fn run_kept_aliasing(ops: Vec<(u8, usize, u16, u8)>) {
        use fscore::FileSystem;
        let (mut fs, f, mut view) = kept_stack();
        let mut saved: Vec<(ufs::UfsSnapshot, Vec<Vec<u8>>)> = Vec::new();
        for (step, (op, i, at, x)) in ops.into_iter().enumerate() {
            let i = i % SPAN;
            let what = format!("step {step}");
            fs.set_sync_writes(x % 2 == 0);
            match op % 11 {
                0 | 1 => {
                    let data: Vec<u8> = (0..4096).map(|k| (step + k / 512) as u8 ^ x).collect();
                    fs.write(f, (i * 4096) as u64, &data).unwrap();
                    view[i] = data;
                }
                2 | 3 => {
                    let lo = at as usize % 4096;
                    let hi = (lo + 1 + x as usize * 37).min(4096);
                    fs.write(f, (i * 4096 + lo) as u64, &vec![step as u8; hi - lo])
                        .unwrap();
                    view[i][lo..hi].fill(step as u8);
                }
                4 => {
                    let mut got = vec![0u8; 4096];
                    fs.read(f, (i * 4096) as u64, &mut got).unwrap();
                    assert!(got == view[i], "{what}: read block {i}");
                }
                5 if x % 3 == 0 => fs.drop_caches(),
                5 if x % 3 == 1 => {
                    fs.device_mut().flush().unwrap();
                }
                5 => {
                    fs.sync().unwrap();
                    let copy = fs.snapshot().unwrap().restore();
                    let l = LogDisk::mount(
                        downcast_device::<LogDisk>(copy.into_device()).crash(),
                        LldConfig::default(),
                    );
                    let mut mounted =
                        ufs::Ufs::mount(Box::new(l.unwrap()), fscore::HostModel::instant())
                            .unwrap();
                    let g = mounted.open("f").unwrap();
                    let mut out = vec![0u8; SPAN * 4096];
                    mounted.read(g, 0, &mut out).unwrap();
                    assert!(
                        out == view.concat(),
                        "{what}: the synced volume after a crash"
                    );
                }
                6 => saved.push((fs.snapshot().expect("snapshot"), view.clone())),
                7 if !saved.is_empty() => {
                    let (snap, v) = &saved[at as usize % saved.len()];
                    fs = snap.restore();
                    view = v.clone();
                }
                8 if !saved.is_empty() => drop(saved.swap_remove(at as usize % saved.len())),
                9 => fs.idle((1 + at as u64 % 4) * 500_000_000),
                10 => {
                    for k in 0..48 {
                        let j = (i + k) % SPAN;
                        view[j] = vec![(step + k) as u8 ^ x; 4096];
                        fs.write(f, (j * 4096) as u64, &view[j]).unwrap();
                    }
                }
                _ => {}
            }
            let whole = view.concat();
            assert!(
                file_view(&fs, false) == whole,
                "{what}: the file, cache warm"
            );
            assert!(
                file_view(&fs, true) == whole,
                "{what}: the file, cache cold"
            );
            check_drive(probe_device::<LogDisk>(fs.device()).unwrap(), &what);
        }
        for (n, (snap, v)) in saved.iter().enumerate() {
            let restored = snap.restore();
            assert!(file_view(&restored, true) == v.concat(), "snapshot {n}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn cache_and_lld_share_blocks_without_aliasing(
            ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u16>(), any::<u8>()), 1..60),
        ) {
            run_kept_aliasing(ops);
        }
    }
}
