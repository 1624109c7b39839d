//! The client side of the closed loop: one mounted stack ([`Sys`]) whose
//! `FileSystem` calls are issued one at a time, each wrapped in a
//! simulated-clock reading (what the caller of `write` sees, cleaner /
//! compactor / flush interference included) and — when tracing — a host
//! span; the [`Recorder`] those readings land in; and the shadow model
//! (stamped sectors) output checks compare against.

use disksim::{DiskSpec, DiskStats, ServiceTime, SimClock};
use fscore::{FileId, FileSystem, FsResult, HostModel};
use ufs::Ufs;

use crate::stack::{self, StackKind, BLOCK};
use crate::trace::{Layer, Probe};

/// Bytes per sector; every sector of every file carries an 8-byte stamp.
pub const SECTOR: usize = 512;

/// Filler for the unstamped bytes of written data.
const FILLER: u8 = 0x5D;

/// SplitMix64: the benchmark's own seeded generator, so op streams depend
/// on nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    #[allow(clippy::should_implement_trait)] // not an iterator: never ends
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// block counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() >> 32) * n) >> 32
    }
}

/// Everything the timed loop measures on the simulated clock, plus the op
/// and failure counts.
#[derive(Debug, Default)]
pub struct Recorder {
    /// `FileSystem` calls issued (`idle`, `drop_caches` and
    /// `set_sync_writes` are not ops).
    pub ops: u64,
    /// Calls that returned an `FsError`, and read-backs that did not match.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub complaints: Vec<String>,
    /// Simulated non-idle nanoseconds: time inside ops, plus any overrun
    /// of an idle grant.
    pub busy_ns: u64,
    /// Bytes handed to `write`.
    pub user_bytes: u64,
    /// Per-call simulated latency, kept while `sampling`.
    pub lat_ns: Vec<u64>,
    /// Record per-call latencies (the first K timed iterations only, so the
    /// percentiles cover a fixed op count whatever `--seconds` allows).
    pub sampling: bool,
}

impl Recorder {
    /// Note a failed op or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 8 {
            self.complaints.push(what);
        }
    }
}

/// One mounted stack driven through the `FileSystem` interface.
pub struct Sys<P: Probe> {
    /// The mounted file system.
    pub fs: Ufs,
    /// Which of the four combinations it is.
    pub kind: StackKind,
    /// The drive it runs on.
    pub spec: DiskSpec,
    /// The host model it charges CPU time with.
    pub host: HostModel,
    clock: SimClock,
    probe: P,
}

impl<P: Probe> Sys<P> {
    /// Format a fresh stack.
    pub fn format(kind: StackKind, spec: DiskSpec, host: HostModel, probe: &P) -> FsResult<Self> {
        let fs = stack::build(kind, spec.clone(), host, probe)?;
        Ok(Self::adopt(fs, kind, spec, host, probe))
    }

    /// Drive an already mounted stack.
    pub fn adopt(fs: Ufs, kind: StackKind, spec: DiskSpec, host: HostModel, probe: &P) -> Self {
        let clock = fs.clock();
        Sys {
            fs,
            kind,
            spec,
            host,
            clock,
            probe: probe.clone(),
        }
    }

    /// Issue one op: read the simulated clock around it, span it when
    /// tracing, count it, and turn an error into a failed op.
    #[inline]
    fn op<R>(
        &mut self,
        rec: &mut Recorder,
        call: &'static str,
        f: impl FnOnce(&mut Ufs) -> FsResult<R>,
    ) -> Option<R> {
        let t0 = self.clock.now();
        self.probe.enter(Layer::Ufs, call);
        let r = f(&mut self.fs);
        self.probe.exit();
        let dt = self.clock.now() - t0;
        rec.ops += 1;
        rec.busy_ns += dt;
        if rec.sampling {
            rec.lat_ns.push(dt);
        }
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                rec.fail(format!("{} {call}: {e}", self.kind.label()));
                None
            }
        }
    }

    /// `FileSystem::create`.
    pub fn create(&mut self, rec: &mut Recorder, name: &str) -> Option<FileId> {
        self.op(rec, "create", |fs| fs.create(name))
    }

    /// `FileSystem::open`.
    pub fn open(&mut self, rec: &mut Recorder, name: &str) -> Option<FileId> {
        self.op(rec, "open", |fs| fs.open(name))
    }

    /// `FileSystem::write`.
    pub fn write(&mut self, rec: &mut Recorder, f: FileId, offset: u64, data: &[u8]) {
        rec.user_bytes += data.len() as u64;
        self.op(rec, "write", |fs| fs.write(f, offset, data));
    }

    /// `FileSystem::read`; a short read is a failed op.
    pub fn read(&mut self, rec: &mut Recorder, f: FileId, offset: u64, out: &mut [u8]) {
        let want = out.len();
        if let Some(n) = self.op(rec, "read", |fs| fs.read(f, offset, out)) {
            if n != want {
                rec.fail(format!(
                    "{} read: {n} of {want} bytes at {offset}",
                    self.kind.label()
                ));
            }
        }
    }

    /// `FileSystem::delete`.
    pub fn delete(&mut self, rec: &mut Recorder, name: &str) {
        self.op(rec, "delete", |fs| fs.delete(name));
    }

    /// `FileSystem::sync`.
    pub fn sync(&mut self, rec: &mut Recorder) {
        self.op(rec, "sync", |fs| fs.sync());
    }

    /// Grant idle time. Spanned when tracing (background work runs here)
    /// but not an op. Background work that overruns the grant delays the
    /// next op, so the overrun is busy time — the accounting of Figures 10
    /// and 11, whose y-axis is elapsed time minus idle granted, per op.
    pub fn idle(&mut self, rec: &mut Recorder, ns: u64) {
        let t0 = self.clock.now();
        self.probe.enter(Layer::Ufs, "idle");
        self.fs.idle(ns);
        self.probe.exit();
        rec.busy_ns += (self.clock.now() - t0).saturating_sub(ns);
    }

    /// Cumulative low-level statistics of the drive at the bottom.
    pub fn disk_stats(&self) -> DiskStats {
        self.fs.device().disk_stats()
    }
}

/// Field-wise `a − b` of two cumulative [`DiskStats`] readings.
pub fn stats_delta(a: DiskStats, b: DiskStats) -> DiskStats {
    DiskStats {
        reads: a.reads - b.reads,
        writes: a.writes - b.writes,
        sectors_read: a.sectors_read - b.sectors_read,
        sectors_written: a.sectors_written - b.sectors_written,
        busy: ServiceTime {
            overhead_ns: a.busy.overhead_ns - b.busy.overhead_ns,
            seek_ns: a.busy.seek_ns - b.busy.seek_ns,
            head_switch_ns: a.busy.head_switch_ns - b.busy.head_switch_ns,
            rotation_ns: a.busy.rotation_ns - b.busy.rotation_ns,
            transfer_ns: a.busy.transfer_ns - b.busy.transfer_ns,
        },
    }
}

/// Field-wise `a + b`.
pub fn stats_sum(a: DiskStats, b: DiskStats) -> DiskStats {
    DiskStats {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        sectors_read: a.sectors_read + b.sectors_read,
        sectors_written: a.sectors_written + b.sectors_written,
        busy: a.busy + b.busy,
    }
}

/// The stamp of one block version: which file, which block, which version.
pub fn tag(file: u16, block: u32, version: u32) -> u64 {
    (file as u64) << 48 | ((block as u64) & 0xFF_FFFF) << 24 | (version as u64) & 0xFF_FFFF
}

/// A scratch write buffer: filler bytes, with the first 8 bytes of every
/// sector overwritten by the owning block's stamp before each write.
pub struct StampBuf(Vec<u8>);

impl StampBuf {
    /// A buffer for writes of up to `blocks` blocks.
    pub fn new(blocks: usize) -> Self {
        StampBuf(vec![FILLER; blocks * BLOCK])
    }

    /// Stamp `tags.len()` consecutive blocks and return the first `len`
    /// bytes of the buffer.
    pub fn fill(&mut self, tags: &[u64], len: usize) -> &[u8] {
        for (b, t) in tags.iter().enumerate() {
            for s in 0..BLOCK / SECTOR {
                let o = b * BLOCK + s * SECTOR;
                self.0[o..o + 8].copy_from_slice(&t.to_le_bytes());
            }
        }
        &self.0[..len]
    }
}

/// Check read-back data against the stamps it should carry: every whole
/// sector in `data` must start with its block's tag. Returns the number of
/// blocks with a wrong sector.
pub fn check_stamps(data: &[u8], tags: &[u64]) -> u64 {
    let mut bad = 0;
    for (b, t) in tags.iter().enumerate() {
        let want = t.to_le_bytes();
        let block = &data[(b * BLOCK).min(data.len())..((b + 1) * BLOCK).min(data.len())];
        if block.chunks_exact(SECTOR).any(|s| s[..8] != want) {
            bad += 1;
        }
    }
    bad
}

/// What a file must contain: its name, length, and the stamp of each of
/// its blocks. The shadow model output checks read back against.
#[derive(Debug, Clone)]
pub struct ShadowFile {
    /// File name.
    pub name: String,
    /// Length in bytes.
    pub len: u64,
    /// Stamp of each block.
    pub tags: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(1, 0);
        let mut b = Rng::new(1, 0);
        let mut c = Rng::new(2, 0);
        let xs: Vec<u64> = (0..100).map(|_| a.below(3900)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(3900)).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.below(3900)).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs, zs, "another seed, another stream");
        assert!(xs.iter().all(|&x| x < 3900));
        assert!(xs.iter().any(|&x| x > 1950) && xs.iter().any(|&x| x < 1950));
    }

    #[test]
    fn stamps_round_trip_and_catch_a_wrong_sector() {
        let tags = [tag(1, 7, 3), tag(1, 8, 1)];
        let mut buf = StampBuf::new(2);
        let data = buf.fill(&tags, 2 * BLOCK).to_vec();
        assert_eq!(check_stamps(&data, &tags), 0);
        // A stale version of the second block.
        assert_eq!(check_stamps(&data, &[tags[0], tag(1, 8, 2)]), 1);
        // One torn sector in the first block.
        let mut torn = data.clone();
        torn[3 * SECTOR] ^= 0xFF;
        assert_eq!(check_stamps(&torn, &tags), 1);
        // A 1 KB file: two sectors of block 0.
        assert_eq!(check_stamps(&data[..1024], &tags[..1]), 0);
    }

    #[test]
    fn tags_tell_file_block_and_version_apart() {
        assert_ne!(tag(1, 2, 3), tag(2, 2, 3));
        assert_ne!(tag(1, 2, 3), tag(1, 3, 3));
        assert_ne!(tag(1, 2, 3), tag(1, 2, 4));
    }
}
