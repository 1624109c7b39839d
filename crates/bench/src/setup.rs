//! Aged systems: every figure cell that starts from "system with an aged
//! file at some utilisation" describes that state as an [`AgedSpec`], one
//! of the paper's system combinations (its Figure 5, a [`StackSpec`]) plus
//! the file and warm-up that age it, and [`build_aged`] builds it. A
//! figure whose cells share a state builds it once, snapshots it
//! ([`ufs::UfsSnapshot`]) and hands each cell a copy-on-write fork (the
//! burst/idle grids of Figures 10 and 11).

use fscore::{FileId, FileSystem, FsResult, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind, Obs, StackSpec};
use ufs::Ufs;

use crate::workload::{make_file, BLOCK};

/// A complete description of the aged state a figure cell starts from: the
/// system combination, the single target file's size as a fraction of
/// usable capacity, whether writes are synchronous, and any deterministic
/// warm-up applied before measurement begins. Two cells with equal specs
/// start from byte-identical states, which is what lets a figure build the
/// state once and fork it per cell.
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
}

/// Build the aged state described by `spec`, plus the target file's
/// handle and length in blocks. The fork-identity tests hold every fork
/// to what this builds.
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
