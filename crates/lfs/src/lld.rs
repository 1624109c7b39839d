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
//! Host-side, the open segment's buffer *is* the flush image (summary
//! block, then data slots): an append copies and digests its block once,
//! and every flush writes the used prefix straight from that buffer.
//!
//! The LLD runs over any raw [`BlockDevice`] — a regular disk, or a VLD for
//! the paper's "LFS on VLD" configuration.

use crate::seg::{
    checkpoint_map, digest, encode_checkpoint, seg_to_slot, slot_device_block, slot_to_seg,
    summary_block, validate_checkpoint, Digest, SegState, Summary, CKPT_HEAD, NONE, SEG_BLOCKS,
    SEG_DATA,
};
use disksim::{
    BlockDevice, DeviceSnapshot, DiskStats, Result as DiskResult, ServiceTime, SimClock,
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

/// The in-memory open segment.
#[derive(Debug)]
struct OpenSeg {
    seg: u32,
    summary: Summary,
    /// The segment exactly as a flush writes it: block 0 is the summary
    /// (encoded in place just before each write), block `1 + i` is data
    /// slot `i`. Always a whole segment long; only the prefix up to the
    /// last appended slot is ever read, so a recycled buffer is not
    /// cleared.
    image: Vec<u8>,
    /// Running digest of data slots `0..summary.fill`, so a flush reads
    /// the checksum instead of re-hashing the prefix.
    digest: Digest,
    /// Slots already written to the device by a partial flush.
    flushed: u32,
}

impl OpenSeg {
    /// Bytes of `image` holding the summary block and the appended slots.
    fn used_bytes(&self) -> usize {
        let bs = self.image.len() / SEG_BLOCKS as usize;
        (1 + self.summary.fill as usize) * bs
    }
}

impl Clone for OpenSeg {
    /// Copies the used prefix only; the rest of the clone's image is fresh.
    fn clone(&self) -> Self {
        let used = self.used_bytes();
        let mut image = vec![0u8; self.image.len()];
        image[..used].copy_from_slice(&self.image[..used]);
        Self {
            seg: self.seg,
            summary: self.summary.clone(),
            image,
            digest: self.digest,
            flushed: self.flushed,
        }
    }
}

/// The log-structured logical disk.
pub struct LogDisk {
    dev: Box<dyn BlockDevice>,
    state: LldState,
    /// Re-entrancy guard: the cleaner's own appends must never trigger
    /// another on-demand clean. Always false between calls.
    cleaning: bool,
    /// Metrics handle (disabled by default): cleaner counters, free-segment
    /// gauge, log utilisation and the two work counters below.
    metrics: disksim::Metrics,
    /// Host-side scratch, reused across calls and never part of a
    /// snapshot (a restored log starts without it).
    scratch: Scratch,
    /// Bytes folded into a segment digest, and bytes copied into a flush
    /// image by anything but `append` (only a snapshot restore does), since
    /// [`LogDisk::update_gauges`] last moved them to the
    /// `lld.bytes_digested` / `lld.bytes_staged` counters. Plain integers
    /// on the hot path.
    digested: u64,
    staged: u64,
}

/// Every piece of log bookkeeping a [`LogDisk`] adds to its device,
/// including the in-memory open segment (the used prefix of its image and
/// its running digest): the value a snapshot carries, and the one format
/// and mount compute.
#[derive(Clone)]
struct LldState {
    cfg: LldConfig,
    block_size: usize,
    nsegs: u32,
    logical_blocks: u64,
    /// Logical block → global data slot (NONE = unmapped).
    map: Vec<u32>,
    /// Global data slot → logical owner if live.
    rmap: Vec<u32>,
    seg_state: Vec<SegState>,
    /// Running count of `SegState::Free` entries in `seg_state`, kept in
    /// lockstep with every transition so `free_segments()` (called on the
    /// append hot path) is O(1) instead of O(nsegs).
    free_count: u32,
    seg_live: Vec<u32>,
    open: Option<OpenSeg>,
    /// Next segment to consider when acquiring a free one (log order).
    next_seg: u32,
    ckpt_start: u64,
    ckpt_blocks: u64,
    /// Monotonic flush-sequence counter (stamped into every summary).
    flush_seq: u64,
    /// Segments with no live blocks whose reuse must wait until the open
    /// segment (holding the overwrites/cleaner copies that killed them) is
    /// durable — otherwise a crash loses both copies.
    pending_free: Vec<u32>,
    /// Which checkpoint slot the next sync writes (alternating A/B, so a
    /// crash mid-checkpoint always leaves the other slot intact).
    ckpt_next_b: bool,
    stats: CleanerStats,
}

/// Buffers a [`LogDisk`] keeps between calls so the segment path allocates
/// nothing in steady state. All start empty and are sized on first use.
#[derive(Default)]
struct Scratch {
    /// The image of the last sealed segment, for the next one to open on.
    spare_image: Option<Vec<u8>>,
    /// The spare a device without a shared read copies the cleaner's
    /// victim into (a regular disk lends its tracks and leaves it empty).
    victim_image: Vec<u8>,
    /// One victim block assembled across a track boundary.
    victim_block: Vec<u8>,
    /// The cleaner's `(slot index, owner)` list of the victim's live slots.
    live: Vec<(u32, u32)>,
    /// One checkpoint slot image.
    ckpt_image: Vec<u8>,
}

impl LldState {
    /// A log holding `map`, on a device of the given
    /// [`LogDisk::geometry`], with no segment open: every other piece of
    /// bookkeeping is derived from the map.
    fn from_map(
        cfg: LldConfig,
        block_size: usize,
        geometry: (u32, u64, u64, u64),
        map: Vec<u32>,
    ) -> Self {
        let (nsegs, logical_blocks, ckpt_start, ckpt_blocks) = geometry;
        let mut rmap = vec![NONE; (nsegs as u64 * SEG_DATA) as usize];
        let mut seg_live = vec![0u32; nsegs as usize];
        for (lb, &slot) in map.iter().enumerate() {
            if slot != NONE {
                rmap[slot as usize] = lb as u32;
                let (seg, _) = slot_to_seg(slot as u64);
                seg_live[seg as usize] += 1;
            }
        }
        let seg_state: Vec<SegState> = seg_live
            .iter()
            .map(|&l| {
                if l > 0 {
                    SegState::Dirty
                } else {
                    SegState::Free
                }
            })
            .collect();
        let free_count = seg_state.iter().filter(|s| **s == SegState::Free).count() as u32;
        Self {
            cfg,
            block_size,
            nsegs,
            logical_blocks,
            map,
            rmap,
            seg_state,
            free_count,
            seg_live,
            open: None,
            next_seg: 0,
            ckpt_start,
            ckpt_blocks,
            flush_seq: 1,
            pending_free: Vec::new(),
            ckpt_next_b: false,
            stats: CleanerStats::default(),
        }
    }
}

impl LogDisk {
    /// Compute (segments, logical blocks, checkpoint start/blocks) for a
    /// raw device of `dev_blocks` blocks.
    fn geometry(dev_blocks: u64, block_size: usize) -> FsResult<(u32, u64, u64, u64)> {
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
        let state = LldState::from_map(cfg, block_size, geometry, map);
        let mut lld = Self::assemble(dev, state);
        lld.write_checkpoint()?;
        Ok(lld)
    }

    /// Mount an existing log from its checkpoint.
    pub fn mount(mut dev: Box<dyn BlockDevice>, cfg: LldConfig) -> FsResult<LogDisk> {
        // Checkpoint reads plus the whole-log summary roll-forward are
        // recovery work, attributed as such.
        let spans = dev.spans();
        let sp = if spans.is_enabled() {
            spans.open(disksim::SpanKind::Recovery, "lld.mount", dev.clock().now())
        } else {
            0
        };
        let block_size = dev.block_size();
        let (nsegs, logical, ckpt_start, ckpt_blocks) =
            Self::geometry(dev.num_blocks(), block_size)?;
        // Read both checkpoint slots and take the newest valid one. A power
        // cut tearing the slot being written leaves the other intact; if
        // *both* are unreadable (corrupted media), fall back to a full
        // summary scan — start from an empty map and let roll-forward
        // re-apply every valid summary ever flushed.
        let mut best: Option<(u64, bool)> = None;
        let mut best_raw = Vec::new();
        let mut raw = vec![0u8; (ckpt_blocks as usize) * block_size];
        for slot in 0..2u64 {
            if dev
                .read_blocks(ckpt_start + slot * ckpt_blocks, &mut raw)
                .is_err()
            {
                continue;
            }
            if let Some(seq) = validate_checkpoint(&raw, logical) {
                if best.is_none_or(|(s, _)| seq > s) {
                    best = Some((seq, slot == 1));
                    std::mem::swap(&mut raw, &mut best_raw);
                    raw.resize(best_raw.len(), 0);
                }
            }
        }
        // The next checkpoint must not overwrite the copy we just trusted.
        let ckpt_next_b = best.is_some_and(|(_, is_b)| !is_b);
        let slots = nsegs as u64 * SEG_DATA;
        let (ckpt_flush_seq, mut map) = match best {
            Some((seq, _)) => (seq, checkpoint_map(&best_raw, logical, slots)?),
            None => (0, vec![NONE; logical as usize]),
        };
        // Roll forward: apply every segment summary flushed after the
        // checkpoint, in flush order. Blocks written since the last sync
        // (and flushed, partially or fully) come back; only the never-
        // flushed in-memory tail is lost — the same guarantee as LFS.
        // Each candidate summary's data checksum is verified against the
        // slots it covers: a flush torn by a power cut (summary landed,
        // data didn't) fails the check and is discarded — safe, because
        // sync only acknowledges after the checkpoint, so torn flushes
        // hold exclusively unacknowledged state.
        let mut summaries: Vec<(u64, u32, Summary)> = Vec::new();
        let mut max_flush_seq = ckpt_flush_seq;
        // One summary-block and one data scratch for the whole scan; the
        // data scratch grows to the fullest candidate and goes when mount
        // returns.
        let mut sbuf = vec![0u8; block_size];
        let mut data = Vec::new();
        for seg in 0..nsegs {
            dev.read_block(summary_block(seg), &mut sbuf)?;
            if let Ok(sum) = Summary::decode(&sbuf) {
                max_flush_seq = max_flush_seq.max(sum.seq);
                if sum.seq > ckpt_flush_seq {
                    let covered = sum.fill as usize * block_size;
                    if data.len() < covered {
                        data.resize(covered, 0);
                    }
                    if sum.fill > 0 {
                        dev.read_blocks(summary_block(seg) + 1, &mut data[..covered])?;
                    }
                    if digest(&data[..covered]) == sum.data_csum {
                        summaries.push((sum.seq, seg, sum));
                    }
                }
            }
        }
        summaries.sort_by_key(|(seq, _, _)| *seq);
        // Working reverse map so stale mappings can be cleared as newer
        // summaries supersede them.
        let mut work_rmap = vec![NONE; slots as usize];
        for (lb, &slot) in map.iter().enumerate() {
            if slot != NONE {
                work_rmap[slot as usize] = lb as u32;
            }
        }
        for (_, seg, sum) in &summaries {
            // A summary describes the segment's *complete* ownership as of
            // its flush. Any older mapping into this segment (from a stale
            // checkpoint, or an older summary now superseded by reuse) is
            // dead — clear it first, or a trimmed-then-reused segment would
            // leave a logical block aliased onto someone else's slot.
            for idx in 0..SEG_DATA as u32 {
                let slot = seg_to_slot(*seg, idx);
                let old = work_rmap[slot as usize];
                if old != NONE && map[old as usize] == slot as u32 {
                    map[old as usize] = NONE;
                }
                work_rmap[slot as usize] = NONE;
            }
            for idx in 0..sum.fill {
                let owner = sum.owners[idx as usize];
                if owner != NONE && (owner as u64) < logical {
                    let slot = seg_to_slot(*seg, idx) as u32;
                    let prev = map[owner as usize];
                    if prev != NONE {
                        work_rmap[prev as usize] = NONE;
                    }
                    map[owner as usize] = slot;
                    work_rmap[slot as usize] = owner;
                }
            }
        }
        if sp != 0 {
            spans.close(sp, dev.clock().now());
        }
        let state = LldState {
            flush_seq: max_flush_seq + 1,
            ckpt_next_b,
            ..LldState::from_map(
                cfg,
                block_size,
                (nsegs, logical, ckpt_start, ckpt_blocks),
                map,
            )
        };
        let mut lld = Self::assemble(dev, state);
        lld.scratch.ckpt_image = raw;
        Ok(lld)
    }

    /// The live log over `dev` in `state`: metrics detached, scratch empty,
    /// and the open image's prefix, which the caller's copy of `state`
    /// staged, the only work on the books.
    fn assemble(dev: Box<dyn BlockDevice>, state: LldState) -> Self {
        let staged = state.open.as_ref().map_or(0, |o| o.used_bytes() as u64);
        LogDisk {
            dev,
            state,
            cleaning: false,
            metrics: disksim::Metrics::disabled(),
            scratch: Scratch::default(),
            digested: 0,
            staged,
        }
    }

    /// Cleaner activity so far.
    pub fn cleaner_stats(&self) -> CleanerStats {
        self.state.stats
    }

    /// Attach a metrics handle (pass `Metrics::disabled()` to detach). The
    /// log records cleaner counters (`lld.segments_cleaned`,
    /// `lld.blocks_copied`, on-demand vs. idle passes), a `lld.victim_live`
    /// histogram, free-segment / utilisation gauges, and the work counters
    /// `lld.bytes_digested` / `lld.bytes_staged`, brought up to date here,
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
            self.metrics
                .add("lld.bytes_staged", std::mem::take(&mut self.staged));
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
            let image = match self.scratch.spare_image.take() {
                Some(image) => image,
                None => vec![0u8; SEG_BLOCKS as usize * self.state.block_size],
            };
            self.state.open = Some(OpenSeg {
                seg,
                summary: Summary::empty(),
                image,
                digest: Digest::new(),
                flushed: 0,
            });
        }
        Ok(self.state.open.as_mut().expect("just ensured"))
    }

    /// Append one block to the log; seals the segment when it fills.
    fn append(&mut self, lb: u64, buf: &[u8]) -> FsResult<()> {
        // User-level logical disk: each block through it costs host CPU.
        // (A zero-cost configuration skips the clock call entirely so it
        // doesn't inflate the simulation event count.)
        if self.state.cfg.cpu_per_block_ns > 0 {
            self.dev.clock().advance(self.state.cfg.cpu_per_block_ns);
        }
        // Drop the old mapping first.
        self.unmap(lb);
        let bs = self.state.block_size;
        let open = self.open_mut()?;
        let idx = open.summary.fill;
        let off = (1 + idx as usize) * bs;
        // The one copy and the one digest pass a block ever gets here.
        open.image[off..off + bs].copy_from_slice(buf);
        open.digest.update(buf);
        open.summary.owners[idx as usize] = lb as u32;
        open.summary.fill += 1;
        let seg = open.seg;
        let full = open.summary.fill as u64 == SEG_DATA;
        let slot = seg_to_slot(seg, idx);
        self.state.map[lb as usize] = slot as u32;
        self.state.rmap[slot as usize] = lb as u32;
        self.state.seg_live[seg as usize] += 1;
        self.digested += bs as u64;
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
        for seg in std::mem::take(&mut self.state.pending_free) {
            if self.state.seg_live[seg as usize] == 0
                && self.state.seg_state[seg as usize] == SegState::Dirty
            {
                self.set_seg_state(seg, SegState::Free);
            }
        }
    }

    /// Write the open segment as it stands — summary plus every appended
    /// slot — in one command, straight from its image: stamp a fresh flush
    /// sequence and the running data digest into the summary and encode it
    /// into block 0 in place.
    fn flush_image(&mut self) -> FsResult<()> {
        let seq = self.next_flush_seq();
        let bs = self.state.block_size;
        let open = self
            .state
            .open
            .as_mut()
            .expect("caller checked for an open segment");
        open.summary.seq = seq;
        open.summary.data_csum = open.digest.finish();
        open.flushed = open.summary.fill;
        open.summary.encode_into(&mut open.image[..bs]);
        let (spans, sp) = self.open_span(disksim::SpanKind::LogAppend, "lld.seg_flush");
        let open = self.state.open.as_ref().expect("checked above");
        let r = self
            .dev
            .write_blocks(summary_block(open.seg), &open.image[..open.used_bytes()]);
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
        // image is what the next segment opens on.
        let open = self.state.open.take().expect("checked above");
        self.scratch.spare_image = Some(open.image);
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
    /// it has none) and append each of its live blocks to the log head
    /// straight from it; `block` assembles one that straddles a track.
    /// `cleaning` is set for exactly the duration of the appends. The
    /// handle on the victim ends with this call, before `clean_segment`
    /// flushes; a seal during the appends that writes a track it holds
    /// copies that one track first.
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
        self.cleaning = true;
        let copied = live.iter().try_for_each(|&(idx, owner)| {
            let off = (1 + idx as usize) * bs;
            self.append(owner as u64, image.get(off..off + bs, block))?;
            self.state.stats.blocks_copied += 1;
            self.metrics.inc("lld.blocks_copied");
            Ok(())
        });
        self.cleaning = false;
        copied
    }
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
        let slot = self.state.map[block as usize];
        if slot == NONE {
            buf.fill(0);
            return Ok(ServiceTime::ZERO);
        }
        // Serve from the open segment buffer when possible.
        if let Some(open) = &self.state.open {
            let (seg, idx) = slot_to_seg(slot as u64);
            if seg == open.seg {
                let off = (1 + idx as usize) * self.state.block_size;
                buf.copy_from_slice(&open.image[off..off + self.state.block_size]);
                return Ok(ServiceTime::ZERO);
            }
        }
        self.dev.read_block(slot_device_block(slot as u64), buf)
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> DiskResult<ServiceTime> {
        let clock = self.dev.clock();
        let t0 = clock.now();
        self.append(block, buf).map_err(|e| match e {
            FsError::NoSpace => disksim::DiskError::NoSpace,
            FsError::Disk(d) => d,
            _ => disksim::DiskError::Unsupported("log append failed"),
        })?;
        // Report the device time this append actually triggered (zero for
        // a pure buffer append; a sealed segment's flush otherwise).
        Ok(ServiceTime {
            overhead_ns: 0,
            seek_ns: 0,
            head_switch_ns: 0,
            rotation_ns: 0,
            transfer_ns: clock.now() - t0,
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
    use disksim::{DiskSpec, RegularDisk};

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
        // Seal one segment (durable), then hand-craft a "torn flush" of a
        // second: its summary lands but the data blocks do not. Mount must
        // keep the sealed segment and discard the torn one.
        let mut l = lld();
        for i in 0..SEG_DATA {
            l.write_block(i, &vec![3u8; 4096]).unwrap();
        }
        let mut torn = Summary::empty();
        torn.fill = 4;
        for idx in 0..4u32 {
            torn.owners[idx as usize] = (SEG_DATA + idx as u64) as u32;
        }
        torn.seq = 99;
        torn.data_csum = 0x1234_5678; // data never written: csum can't match
        let mut img = vec![0u8; 4096];
        torn.encode_into(&mut img);
        let mut dev = l.crash();
        dev.write_block(summary_block(1), &img).unwrap();
        let mut l2 = LogDisk::mount(dev, LldConfig::default()).unwrap();
        let mut r = vec![0u8; 4096];
        l2.read_block(0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 3), "sealed segment lost");
        l2.read_block(SEG_DATA + 1, &mut r).unwrap();
        assert!(
            r.iter().all(|&b| b == 0),
            "torn segment's blocks must not surface"
        );
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

    /// A checksum-valid checkpoint naming a data slot past the end of the
    /// log fails the mount with `Invalid` instead of indexing out of the
    /// reverse map.
    #[test]
    fn a_checkpoint_naming_a_slot_beyond_the_log_is_refused() {
        let l = lld();
        let (ckpt_start, ckpt_total) = l.checkpoint_region();
        let ckpt_blocks = ckpt_total / 2;
        let mut map = vec![NONE; l.num_blocks() as usize];
        map[3] = (l.state.nsegs as u64 * SEG_DATA + 5) as u32;
        let mut raw = vec![0u8; ckpt_blocks as usize * 4096];
        encode_checkpoint(&mut raw, 7, &map);
        let mut dev = l.crash();
        for slot in 0..2 {
            dev.write_blocks(ckpt_start + slot * ckpt_blocks, &raw)
                .unwrap();
        }
        let refused = LogDisk::mount(dev, LldConfig::default()).err();
        assert_eq!(
            refused,
            Some(FsError::Invalid("checkpoint slot beyond the log"))
        );
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
    /// time on a log over `dev`, checked block by block against a shadow
    /// copy of what was written.
    fn episode(dev: Box<dyn BlockDevice>, seed: u64) -> LogDisk {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut l = LogDisk::format(dev, LldConfig::default()).unwrap();
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

    /// The cleaner reads its victim through the device's shared read: a
    /// regular disk lends its tracks and a `FaultDisk` (the default, copying
    /// path) fills the spare buffer, and the same seeded episode ends with
    /// the same clock, disk statistics, cleaner counters and map on both —
    /// on both paper drives and on one whose blocks straddle tracks.
    #[test]
    fn the_lent_victim_and_the_copied_victim_clean_alike() {
        for spec in drives() {
            let regular = || Box::new(RegularDisk::new(spec.clone(), SimClock::new(), 4096));
            let lent = episode(regular(), 0x5EED);
            let fault = disksim::FaultDisk::new(regular(), disksim::FaultPlan::none());
            let copied = episode(Box::new(fault), 0x5EED);
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
}
