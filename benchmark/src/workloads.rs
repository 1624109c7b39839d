//! The seven workloads and the op loops of the five that drive a file
//! system. Each loop is a closed loop with one client: the next op is
//! issued when the previous one returns. Work per iteration is a fixed op
//! count (never a time budget), so simulated metrics repeat bit-for-bit
//! and wall time compares commit to commit.
//!
//! The loops are written here rather than imported from `vlfs-bench`:
//! `bench::setup` and its stack enums are scheduled for refactoring, and a
//! change that claims a gain may not edit the benchmark to follow a rename.

use disksim::DiskSpec;
use fscore::{FileId, FileSystem, FsResult, HostModel};

use crate::driver::{check_stamps, tag, Recorder, Rng, ShadowFile, StampBuf, Sys};
use crate::stack::{FsKind, StackKind, BLOCK};
use crate::trace::Probe;

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 6;

/// Timed iterations a file-system workload makes at least (and its
/// simulated metrics cover exactly), whatever `--seconds` allows. Many
/// short iterations rather than few long ones: `wall_s` is the fastest, and
/// on a shared host a 0.4 s window is likelier to run undisturbed.
pub const MIN_ITERS_FS: usize = 14;

/// `MIN_ITERS_FS` for `mc_sweep`, whose iteration is a whole 256-episode
/// sweep.
pub const MIN_ITERS_MC: usize = 7;

/// `MIN_ITERS_FS` for `figures_quick`, whose iteration is a whole child run.
pub const MIN_ITERS_FIGURES: usize = 5;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// UFS on the VLD, 80 % full, synchronous random 4 KB overwrites.
    SyncUpdateVld,
    /// The identical op stream on UFS over the regular disk.
    SyncUpdateRegular,
    /// UFS on the VLD, bursts of 64 blocks then 0.5 s idle.
    BurstIdleVld,
    /// LFS on the regular disk, bursts of 126 blocks then 0.25 s idle.
    BurstIdleLfs,
    /// All four stacks: small files, then a large file, reads beside writes.
    FsMix,
    /// The model-checking sweep: 256 crash-checked episodes.
    McSweep,
    /// `all_figures --quick --threads 1` as a child process.
    FiguresQuick,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 7] = [
        Workload::SyncUpdateVld,
        Workload::SyncUpdateRegular,
        Workload::BurstIdleVld,
        Workload::BurstIdleLfs,
        Workload::FsMix,
        Workload::McSweep,
        Workload::FiguresQuick,
    ];

    /// The name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncUpdateVld => "sync_update_vld",
            Workload::SyncUpdateRegular => "sync_update_regular",
            Workload::BurstIdleVld => "burst_idle_vld",
            Workload::BurstIdleLfs => "burst_idle_lfs",
            Workload::FsMix => "fs_mix",
            Workload::McSweep => "mc_sweep",
            Workload::FiguresQuick => "figures_quick",
        }
    }

    /// Parse a `--workload` argument.
    pub fn from_name(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The op loop of a file-system workload (`None` for the two that
    /// drive the system through `modelcheck` / `all_figures`).
    pub fn shape(self) -> Option<Shape> {
        Some(match self {
            Workload::SyncUpdateVld => Shape::Update(UpdateSpec {
                kind: StackKind::UFS_VLD,
                ops: 50_000,
                burst: 0,
                idle_ns: 0,
                sync_writes: true,
            }),
            Workload::SyncUpdateRegular => Shape::Update(UpdateSpec {
                kind: StackKind::UFS_REGULAR,
                ops: 140_000,
                burst: 0,
                idle_ns: 0,
                sync_writes: true,
            }),
            Workload::BurstIdleVld => Shape::Update(UpdateSpec {
                kind: StackKind::UFS_VLD,
                ops: 10_000,
                burst: 64,
                idle_ns: 500_000_000,
                sync_writes: true,
            }),
            Workload::BurstIdleLfs => Shape::Update(UpdateSpec {
                kind: StackKind::LFS_REGULAR,
                ops: 40_000,
                burst: 126,
                idle_ns: 250_000_000,
                sync_writes: false,
            }),
            Workload::FsMix => Shape::Mix { rounds: 2 },
            Workload::McSweep | Workload::FiguresQuick => return None,
        })
    }
}

/// A single-file random-overwrite loop (workloads 1–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSpec {
    /// Stack under test.
    pub kind: StackKind,
    /// 4 KB overwrites per iteration.
    pub ops: u64,
    /// Ops between idle grants (0 = never idle).
    pub burst: u64,
    /// Idle granted after each burst, simulated ns.
    pub idle_ns: u64,
    /// `set_sync_writes(true)` after ageing.
    pub sync_writes: bool,
}

/// What an iteration does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Uniform-random 4 KB overwrites of one aged file.
    Update(UpdateSpec),
    /// Small-file and large-file rounds on all four stacks.
    Mix {
        /// Rounds per iteration.
        rounds: u32,
    },
}

/// The aged file of the update workloads is this share of the free blocks
/// of a fresh file system (≈ 3.9 k blocks ≈ 15 MB on the ST19101 slice:
/// fits UFS's 16 MB cache, exceeds LFS's 6.1 MB NVRAM cache).
const FILE_FRAC: f64 = 0.8;

/// Blocks per sequential chunk (256 KB writes and reads, as in Figure 7).
const CHUNK: usize = 64;

/// `fs_mix`: small files per round (Figure 6).
const SMALL_FILES: usize = 1_500;
/// `fs_mix`: bytes per small file.
const SMALL_BYTES: usize = 1_024;
/// `fs_mix`: blocks of the large file (10 MB, Figure 7).
const BIG_BLOCKS: usize = 2_560;
/// `fs_mix`: random 4 KB reads of the large file per round.
const RANDOM_READS: usize = 2_560;
/// Stamp id of the large file (small files use their index).
const BIG_ID: u16 = u16::MAX;

/// The state a file-system workload iterates on.
pub struct FsBench<P: Probe> {
    shape: Shape,
    /// The mounted stacks (one for the update workloads, four for the mix).
    pub systems: Vec<Sys<P>>,
    rng: Rng,
    buf: StampBuf,
    out: Vec<u8>,
    tags: Vec<u64>,
    /// Update workloads: the aged file, its length in blocks, and the
    /// current version of every block (the shadow model).
    file: FileId,
    file_blocks: u64,
    versions: Vec<u32>,
    /// Mix: round counter (stamped into everything a round writes) and the
    /// small-file names.
    generation: u32,
    names: Vec<String>,
}

impl<P: Probe> FsBench<P> {
    /// Format and age: everything before the warm-up iteration.
    pub fn setup(shape: Shape, seed: u64, probe: &P) -> FsResult<Self> {
        let host = HostModel::sparcstation_10();
        let spec = DiskSpec::st19101_sim;
        let mut b = FsBench {
            shape,
            systems: Vec::new(),
            rng: Rng::new(seed, 1),
            buf: StampBuf::new(CHUNK),
            out: vec![0u8; CHUNK * BLOCK],
            tags: Vec::with_capacity(CHUNK),
            file: 0,
            file_blocks: 0,
            versions: Vec::new(),
            generation: 0,
            names: Vec::new(),
        };
        match shape {
            Shape::Update(u) => {
                let mut sys = Sys::format(u.kind, spec(), host, probe)?;
                b.file_blocks = (sys.fs.free_blocks() as f64 * FILE_FRAC) as u64;
                b.versions = vec![0; b.file_blocks as usize];
                b.file = sys.fs.create("target")?;
                let mut at = 0u64;
                while at < b.file_blocks {
                    let n = (b.file_blocks - at).min(CHUNK as u64) as usize;
                    b.tags.clear();
                    b.tags
                        .extend((0..n).map(|k| tag(0, (at + k as u64) as u32, 0)));
                    let data = b.buf.fill(&b.tags, n * BLOCK);
                    sys.fs.write(b.file, at * BLOCK as u64, data)?;
                    at += n as u64;
                }
                sys.fs.sync()?;
                sys.fs.set_sync_writes(u.sync_writes);
                b.systems.push(sys);
            }
            Shape::Mix { .. } => {
                for kind in StackKind::ALL {
                    b.systems.push(Sys::format(kind, spec(), host, probe)?);
                }
                b.names = (0..SMALL_FILES).map(|i| format!("s{i:04}")).collect();
            }
        }
        Ok(b)
    }

    /// One iteration: a fixed number of ops.
    pub fn iteration(&mut self, rec: &mut Recorder) {
        match self.shape {
            Shape::Update(u) => self.update_iteration(&u, rec),
            Shape::Mix { rounds } => {
                for _ in 0..rounds {
                    self.generation += 1;
                    for si in 0..self.systems.len() {
                        self.small_files(si, rec, true);
                        self.large_file(si, rec, true);
                    }
                }
            }
        }
    }

    fn update_iteration(&mut self, u: &UpdateSpec, rec: &mut Recorder) {
        let sys = &mut self.systems[0];
        let mut done = 0u64;
        while done < u.ops {
            let n = if u.burst == 0 { u.ops } else { u.burst }.min(u.ops - done);
            for _ in 0..n {
                let b = self.rng.below(self.file_blocks);
                let v = &mut self.versions[b as usize];
                *v += 1;
                let data = self.buf.fill(&[tag(0, b as u32, *v)], BLOCK);
                sys.write(rec, self.file, b * BLOCK as u64, data);
            }
            done += n;
            if u.idle_ns > 0 {
                sys.idle(rec, u.idle_ns);
            }
        }
    }

    fn small_tag(&self, i: usize) -> u64 {
        tag(i as u16, 0, self.generation)
    }

    /// Figure 6's phases on stack `si`: create and write the small files,
    /// sync, drop caches, open and read them all, and — when `delete` —
    /// delete them and sync. Synchronous data on UFS, as in the paper.
    fn small_files(&mut self, si: usize, rec: &mut Recorder, delete: bool) {
        let ufs = self.systems[si].kind.fs == FsKind::Ufs;
        self.systems[si].fs.set_sync_writes(ufs);
        for i in 0..SMALL_FILES {
            let t = self.small_tag(i);
            let sys = &mut self.systems[si];
            if let Some(f) = sys.create(rec, &self.names[i]) {
                sys.write(rec, f, 0, self.buf.fill(&[t], SMALL_BYTES));
            }
        }
        self.systems[si].sync(rec);
        self.systems[si].fs.drop_caches();
        for i in 0..SMALL_FILES {
            let t = self.small_tag(i);
            let sys = &mut self.systems[si];
            if let Some(f) = sys.open(rec, &self.names[i]) {
                let out = &mut self.out[..SMALL_BYTES];
                sys.read(rec, f, 0, out);
                if check_stamps(out, &[t]) != 0 {
                    rec.fail(format!(
                        "{} small file {i}: wrong content",
                        sys.kind.label()
                    ));
                }
            }
        }
        if delete {
            let sys = &mut self.systems[si];
            for name in &self.names {
                sys.delete(rec, name);
            }
            sys.sync(rec);
        }
        self.systems[si].fs.set_sync_writes(false);
    }

    fn big_tags(&mut self, first: usize, n: usize) {
        let g = self.generation;
        self.tags.clear();
        self.tags
            .extend((first..first + n).map(|b| tag(BIG_ID, b as u32, g)));
    }

    /// Figure 7's phases on stack `si`: write the large file sequentially,
    /// sync, drop caches, read it sequentially, read it at random, and —
    /// when `delete` — delete it.
    fn large_file(&mut self, si: usize, rec: &mut Recorder, delete: bool) {
        let Some(f) = self.systems[si].create(rec, "big") else {
            return;
        };
        for c in (0..BIG_BLOCKS).step_by(CHUNK) {
            self.big_tags(c, CHUNK);
            let data = self.buf.fill(&self.tags, CHUNK * BLOCK);
            self.systems[si].write(rec, f, (c * BLOCK) as u64, data);
        }
        self.systems[si].sync(rec);
        self.systems[si].fs.drop_caches();
        for c in (0..BIG_BLOCKS).step_by(CHUNK) {
            self.big_tags(c, CHUNK);
            let sys = &mut self.systems[si];
            sys.read(rec, f, (c * BLOCK) as u64, &mut self.out);
            if check_stamps(&self.out, &self.tags) != 0 {
                rec.fail(format!(
                    "{} large file chunk {c}: wrong content",
                    sys.kind.label()
                ));
            }
        }
        for _ in 0..RANDOM_READS {
            let b = self.rng.below(BIG_BLOCKS as u64) as usize;
            self.big_tags(b, 1);
            let sys = &mut self.systems[si];
            let out = &mut self.out[..BLOCK];
            sys.read(rec, f, (b * BLOCK) as u64, out);
            if check_stamps(out, &self.tags) != 0 {
                rec.fail(format!(
                    "{} large file block {b}: wrong content",
                    sys.kind.label()
                ));
            }
        }
        if delete {
            self.systems[si].delete(rec, "big");
        }
    }

    /// What each stack must hold now — the shadow model the output checks
    /// read back against. The mix ends every round empty, so it first
    /// writes (untimed) one more generation of files and keeps them.
    pub fn shadow(&mut self, rec: &mut Recorder) -> Vec<Vec<ShadowFile>> {
        match self.shape {
            Shape::Update(_) => {
                let tags = (0..self.file_blocks)
                    .map(|b| tag(0, b as u32, self.versions[b as usize]))
                    .collect();
                vec![vec![ShadowFile {
                    name: "target".into(),
                    len: self.file_blocks * BLOCK as u64,
                    tags,
                }]]
            }
            Shape::Mix { .. } => {
                self.generation += 1;
                let mut files: Vec<ShadowFile> = (0..SMALL_FILES)
                    .map(|i| ShadowFile {
                        name: self.names[i].clone(),
                        len: SMALL_BYTES as u64,
                        tags: vec![self.small_tag(i)],
                    })
                    .collect();
                self.big_tags(0, BIG_BLOCKS);
                files.push(ShadowFile {
                    name: "big".into(),
                    len: (BIG_BLOCKS * BLOCK) as u64,
                    tags: self.tags.clone(),
                });
                for si in 0..self.systems.len() {
                    self.small_files(si, rec, false);
                    self.large_file(si, rec, false);
                }
                vec![files; self.systems.len()]
            }
        }
    }
}
