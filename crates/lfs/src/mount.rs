//! Mounting a log: read both checkpoint slots, roll the block map forward
//! through every segment summary flushed after the newer one, and derive
//! the rest of the log's bookkeeping from the map.
//!
//! Everything read here is input from the media: a checkpoint or a summary
//! that passes its checksum can still name a slot twice, an owner past the
//! map or a fill past the segment. Each is refused or skipped, never
//! indexed, so a damaged log fails its mount with `Invalid` rather than a
//! panic.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::lld::{CleanerStats, LldConfig, LldState, LogDisk};
use crate::seg::{
    checkpoint_map, digest, seg_to_slot, slot_to_seg, summary_block, validate_checkpoint, SegState,
    Summary, NONE, SEG_DATA,
};
use disksim::BlockDevice;
use fscore::{FsError, FsResult};

impl LldState {
    /// A log holding `map`, on a device of the given
    /// [`LogDisk::geometry`], with no segment open: every other piece of
    /// bookkeeping is derived from the map. A map that names one slot for
    /// two blocks is refused: the cleaner would free the slot while one of
    /// them still lives there.
    pub(crate) fn from_map(
        cfg: LldConfig,
        block_size: usize,
        geometry: (u32, u64, u64, u64),
        map: Vec<u32>,
    ) -> FsResult<Self> {
        let (nsegs, logical_blocks, ckpt_start, ckpt_blocks) = geometry;
        let mut rmap = vec![NONE; (nsegs as u64 * SEG_DATA) as usize];
        let mut seg_live = vec![0u32; nsegs as usize];
        const BEYOND: FsError = FsError::Invalid("checkpoint slot beyond the log");
        for (lb, &slot) in map.iter().enumerate().filter(|&(_, &s)| s != NONE) {
            let owner = rmap.get_mut(slot as usize).ok_or(BEYOND)?;
            if *owner != NONE {
                return Err(FsError::Invalid("checkpoint maps one slot twice"));
            }
            *owner = lb as u32;
            let (seg, _) = slot_to_seg(slot as u64);
            *seg_live.get_mut(seg as usize).ok_or(BEYOND)? += 1;
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
        Ok(Self {
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
        })
    }
}

impl LogDisk {
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
        // Each slot a candidate summary covers is checked against the
        // digest it records for that slot: a flush torn by a power cut
        // (summary landed, data didn't) fails the check and the whole
        // segment is discarded — safe, because sync only acknowledges
        // after the checkpoint, so torn flushes hold exclusively
        // unacknowledged state.
        let mut summaries: Vec<(u64, u32, Summary)> = Vec::new();
        let mut max_flush_seq = ckpt_flush_seq;
        // One summary-block and one data scratch for the whole scan; the
        // data scratch grows to the fullest candidate and goes when mount
        // returns.
        let mut sbuf = vec![0u8; block_size];
        let mut data = Vec::new();
        for seg in 0..nsegs {
            dev.read_block(summary_block(seg), &mut sbuf)?;
            let Ok(sum) = Summary::decode(&sbuf) else {
                continue;
            };
            max_flush_seq = max_flush_seq.max(sum.seq);
            if sum.seq <= ckpt_flush_seq {
                continue;
            }
            let Some(covered) = (sum.fill as usize).checked_mul(block_size) else {
                continue;
            };
            if data.len() < covered {
                data.resize(covered, 0);
            }
            let Some(flushed) = data.get_mut(..covered) else {
                continue;
            };
            if sum.fill > 0 {
                dev.read_blocks(summary_block(seg) + 1, flushed)?;
            }
            let whole = flushed
                .chunks_exact(block_size)
                .zip(&sum.digests)
                .all(|(block, &recorded)| digest(block) == recorded);
            if whole {
                summaries.push((sum.seq, seg, sum));
            }
        }
        summaries.sort_by_key(|(seq, _, _)| *seq);
        // Working reverse map so stale mappings can be cleared as newer
        // summaries supersede them.
        let mut work_rmap = vec![NONE; slots as usize];
        for (lb, &slot) in map.iter().enumerate() {
            if let Some(owner) = work_rmap.get_mut(slot as usize) {
                *owner = lb as u32;
            }
        }
        for (_, seg, sum) in &summaries {
            // A summary describes the segment's *complete* ownership as of
            // its flush. Any older mapping into this segment (from a stale
            // checkpoint, or an older summary now superseded by reuse) is
            // dead — clear it first, or a trimmed-then-reused segment would
            // leave a logical block aliased onto someone else's slot.
            for idx in 0..SEG_DATA as u32 {
                let slot = seg_to_slot(*seg, idx) as u32;
                let Some(owner) = work_rmap.get_mut(slot as usize) else {
                    continue;
                };
                let old = std::mem::replace(owner, NONE);
                if let Some(mapped) = map.get_mut(old as usize).filter(|m| **m == slot) {
                    *mapped = NONE;
                }
            }
            let owners = sum.owners.iter().take(sum.fill as usize);
            for (idx, &owner) in (0..).zip(owners) {
                // An owner past the map (`NONE` included) owns nothing.
                let Some(mapped) = map.get_mut(owner as usize) else {
                    continue;
                };
                let slot = seg_to_slot(*seg, idx) as u32;
                let prev = std::mem::replace(mapped, slot);
                if let Some(stale) = work_rmap.get_mut(prev as usize) {
                    *stale = NONE;
                }
                if let Some(now) = work_rmap.get_mut(slot as usize) {
                    *now = owner;
                }
            }
        }
        if sp != 0 {
            spans.close(sp, dev.clock().now());
        }
        let exhausted = FsError::Invalid("flush sequence exhausted");
        let state = LldState {
            flush_seq: max_flush_seq.checked_add(1).ok_or(exhausted)?,
            ckpt_next_b,
            ..LldState::from_map(
                cfg,
                block_size,
                (nsegs, logical, ckpt_start, ckpt_blocks),
                map,
            )?
        };
        let mut lld = Self::assemble(dev, state);
        lld.scratch.ckpt_image = raw;
        Ok(lld)
    }
}
