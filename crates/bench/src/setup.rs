//! The *aged-system cache*: every figure cell that starts from "system with
//! an aged file at some utilisation" describes that state as an
//! [`AgedSpec`] — one of the paper's system combinations (its Figure 5, a
//! [`StackSpec`]) plus the file and warm-up that age it — and
//! [`aged_system`] builds each distinct state once, snapshots it
//! ([`ufs::UfsSnapshot`]), and hands every cell an independent
//! copy-on-write fork instead of re-running the setup workload per cell
//! (cells whose state no other cell shares call [`build_aged`] directly).
//! The cache and the Figure 9 measurement memo share one once-per-key map,
//! `OnceMap`.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use fscore::{FileId, FileSystem, FsError, FsResult, HostModel};
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

/// A process-wide map from key to a value computed at most once: the
/// harness's one way of replaying work it has already simulated.
/// Concurrent first requests for a key block on that key's `OnceLock`
/// while one of them computes (the computation is deterministic, so it
/// does not matter which worker wins), and errors are cached like values.
/// A replay simulates nothing, so the process-wide event counter
/// ([`disksim::clock::events`]) counts each entry's work once.
///
/// The map is unbounded because its callers are: every entry is a state
/// or a measurement the suite asks for more than once.
pub(crate) struct OnceMap<K, V>(OnceLock<Mutex<HashMap<K, Arc<OnceLock<V>>>>>);

impl<K: Eq + Hash, V> OnceMap<K, V> {
    /// An empty map, usable as a `static`.
    pub(crate) const fn new() -> Self {
        Self(OnceLock::new())
    }

    /// `read` applied to the value for `key`, which `init` computes on the
    /// first request.
    pub(crate) fn get<R>(&self, key: K, init: impl FnOnce() -> V, read: impl FnOnce(&V) -> R) -> R {
        let cell = {
            let mut map = self
                .0
                .get_or_init(Mutex::default)
                .lock()
                .expect("once map poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        read(cell.get_or_init(init))
    }
}

/// Build the aged state described by `spec` from scratch, bypassing the
/// snapshot cache. This is the path for a spec that is used once (Figure
/// 8, Figure 9 / Table 2: a snapshot retains the aged system's full media
/// image and buffer cache, tens of MB), and the oracle the fork-identity
/// tests compare against.
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
/// [`UfsSnapshot`] (or the error that stopped it: a stack that cannot
/// snapshot is one); every request, the first included, is then served
/// by forking the snapshot in O(metadata) — media tracks, map pages and
/// cache payloads stay shared copy-on-write until a fork writes them. Only
/// the build is simulated: a fork adds no events to the process-wide
/// counter, though its clock carries the build's count.
pub fn aged_system(spec: &AgedSpec) -> FsResult<(Ufs, FileId, u64)> {
    static CACHE: OnceMap<AgedKey, FsResult<CachedAged>> = OnceMap::new();
    let build = || {
        let (fs, file, file_blocks) = build_aged(spec)?;
        let snap = fs
            .snapshot()
            .ok_or(FsError::Invalid("aged stack cannot snapshot"))?;
        Ok(CachedAged {
            snap,
            file,
            file_blocks,
        })
    };
    CACHE.get(spec.key(), build, |cached| match cached {
        Ok(c) => Ok((c.snap.restore(), c.file, c.file_blocks)),
        Err(e) => Err(e.clone()),
    })
}
