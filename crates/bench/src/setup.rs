//! The *aged-system cache*: every figure cell that starts from "system with
//! an aged file at some utilisation" describes that state as an
//! [`AgedSpec`] — one of the paper's system combinations (its Figure 5, a
//! [`StackSpec`]) plus the file and warm-up that age it — and
//! [`aged_system`] builds each distinct state once, snapshots it
//! ([`ufs::UfsSnapshot`]), and hands every cell an independent
//! copy-on-write fork instead of re-running the setup workload per cell
//! (cells whose state no other cell shares call [`build_aged`] directly).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use fscore::{FileId, FileSystem, FsResult, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind, Obs, StackSpec};
use ufs::{Ufs, UfsSnapshot};

use crate::workload::{make_file, BLOCK};

/// A complete description of the aged state a figure cell starts from: the
/// system combination, the single target file's size as a fraction of
/// usable capacity, whether writes are synchronous, and any deterministic
/// warm-up applied before measurement begins. Two cells with equal specs
/// start from byte-identical states, which is what lets [`aged_system`]
/// build the state once and fork it per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgedSpec {
    /// The system combination (paper-sized).
    pub stack: StackSpec,
    /// Target-file size as a fraction of usable capacity.
    pub file_frac: f64,
    /// Flip [`FileSystem::set_sync_writes`] before any warm-up.
    pub sync_writes: bool,
    /// Random 4 KB updates (seed 7) applied after file creation; 0 skips
    /// the warm-up (figures whose warm-up shares the measurement RNG
    /// stream keep it on the measured side of the snapshot).
    pub warmup_blocks: u64,
}

impl AgedSpec {
    /// The common shape: default device configs, no warm-up.
    pub fn new(fs: FsKind, dev: DevKind, disk: DiskKind, host: HostModel, file_frac: f64) -> Self {
        Self {
            stack: StackSpec::paper(fs, dev, disk, host),
            file_frac,
            sync_writes: false,
            warmup_blocks: 0,
        }
    }

    /// Content key for the snapshot cache (the fraction keyed by its bits —
    /// specs compare equal exactly when they build equal states).
    fn key(&self) -> AgedKey {
        (
            self.stack,
            self.file_frac.to_bits(),
            self.sync_writes,
            self.warmup_blocks,
        )
    }
}

type AgedKey = (StackSpec, u64, bool, u64);

/// A cached aged build: the snapshot plus the handle and size of the
/// target file inside it (both identical in every fork by construction).
struct CachedAged {
    snap: UfsSnapshot,
    file: FileId,
    file_blocks: u64,
}

/// Per-key build cells: concurrent workers asking for the same key block on
/// one `OnceLock` while the first builds (the build is deterministic, so it
/// does not matter which worker wins). `None` records a state whose device
/// stack cannot snapshot — those keys fall back to rebuilding per cell.
///
/// The map is unbounded because its callers are: Figures 10 and 11 each
/// fork one key across all their cells, and cells whose spec is used once
/// (Figure 8, Figure 9 / Table 2) call [`build_aged`] and never enter it.
/// A snapshot retains the aged system's full media image and buffer cache
/// (tens of MB), so a caller that mints many keys should do the same.
type AgedCell = Arc<OnceLock<Option<CachedAged>>>;

fn cache_cell(key: AgedKey) -> AgedCell {
    static CACHE: OnceLock<Mutex<HashMap<AgedKey, AgedCell>>> = OnceLock::new();
    let mut map = CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("aged cache poisoned");
    Arc::clone(map.entry(key).or_default())
}

/// Build the aged state described by `spec` from scratch, bypassing the
/// snapshot cache. This is the path for a spec that is used once, and the
/// oracle the fork-identity tests compare against.
pub fn build_aged(spec: &AgedSpec) -> FsResult<(Ufs, FileId, u64)> {
    let mut fs = spec.stack.build(None, &Obs::default())?;
    let usable = fs.free_blocks();
    let file_blocks = (usable as f64 * spec.file_frac) as u64;
    let f = make_file(&mut fs, "target", file_blocks * BLOCK as u64)?;
    if spec.sync_writes {
        fs.set_sync_writes(true);
    }
    if spec.warmup_blocks > 0 {
        let w = spec.warmup_blocks;
        crate::fig10::burst_idle_bench(&mut fs, f, file_blocks, w, 0, w, 7)?;
    }
    Ok((fs, f, file_blocks))
}

/// An independent system in the aged state described by `spec`, plus the
/// target file's handle and length in blocks.
///
/// The first request for a given spec builds the state and caches a
/// [`UfsSnapshot`]; every request (including the first) is then served by
/// forking the snapshot in O(metadata) — media tracks, map pages and cache
/// payloads stay shared copy-on-write until a fork writes them. Event
/// accounting is rebuild-equivalent: the cached build's simulation events
/// are subtracted once and re-credited by every fork, so per-figure event
/// totals match each cell rebuilding from scratch.
pub fn aged_system(spec: &AgedSpec) -> FsResult<(Ufs, FileId, u64)> {
    let cell = cache_cell(spec.key());
    let cached = cell.get_or_init(|| {
        let (fs, file, file_blocks) = build_aged(spec).ok()?;
        let snap = fs.snapshot()?;
        // The cached build's events are subtracted once here and re-credited
        // by every fork below, so event totals match a rebuild per cell.
        disksim::clock::sub_events(snap.local_events());
        Some(CachedAged {
            snap,
            file,
            file_blocks,
        })
    });
    match cached {
        Some(c) => {
            disksim::clock::add_events(c.snap.local_events());
            Ok((c.snap.restore(), c.file, c.file_blocks))
        }
        // Build failed or the stack cannot snapshot: rebuild per cell (and
        // surface the per-cell error, if any).
        None => build_aged(spec),
    }
}
