//! Workload generators and measurement helpers shared by the figures.

use disksim::SimClock;
use fscore::{FileId, FileSystem, FsResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 4 KB — the file block size every benchmark uses.
pub const BLOCK: usize = 4096;

/// Deterministic RNG for a named experiment.
pub(crate) fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Time a closure in simulated nanoseconds.
pub(crate) fn timed<F: FnOnce() -> FsResult<()>>(clock: &SimClock, f: F) -> FsResult<u64> {
    let t0 = clock.now();
    f()?;
    Ok(clock.now() - t0)
}

/// Create a file and fill it sequentially to `bytes`, then sync.
pub fn make_file(fs: &mut dyn FileSystem, name: &str, bytes: u64) -> FsResult<FileId> {
    let f = fs.create(name)?;
    let chunk = vec![0x42u8; 64 * BLOCK];
    let mut off = 0u64;
    while off < bytes {
        let n = (bytes - off).min(chunk.len() as u64);
        fs.write(f, off, &chunk[..n as usize])?;
        off += n;
    }
    fs.sync()?;
    Ok(f)
}

/// Perform `count` random 4 KB block updates uniformly over a file of
/// `file_blocks` blocks; returns total simulated nanoseconds spent.
pub(crate) fn random_updates(
    fs: &mut dyn FileSystem,
    f: FileId,
    file_blocks: u64,
    count: u64,
    rng: &mut StdRng,
) -> FsResult<u64> {
    let clock = fs.clock();
    let buf = vec![0x99u8; BLOCK];
    let t0 = clock.now();
    for _ in 0..count {
        let b = rng.gen_range(0..file_blocks);
        fs.write(f, b * BLOCK as u64, &buf)?;
    }
    Ok(clock.now() - t0)
}

/// Mean latency per 4 KB random synchronous update in milliseconds, after a
/// warm-up, at the file system's current state.
pub fn steady_state_update_ms(
    fs: &mut dyn FileSystem,
    f: FileId,
    file_blocks: u64,
    warmup: u64,
    measured: u64,
    seed: u64,
) -> FsResult<f64> {
    let mut r = rng(seed);
    random_updates(fs, f, file_blocks, warmup, &mut r)?;
    let ns = random_updates(fs, f, file_blocks, measured, &mut r)?;
    Ok(ns as f64 / measured as f64 / 1e6)
}

/// Bandwidth in MB/s for moving `bytes` in `ns` simulated nanoseconds.
pub(crate) fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (1 << 20) as f64 / (ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscore::HostModel;
    use modelcheck::stack::{DevKind, DiskKind, FsKind, Obs, StackSpec};

    #[test]
    fn make_file_and_update() {
        let spec = StackSpec::paper(
            FsKind::Ufs,
            DevKind::Regular,
            DiskKind::Seagate,
            HostModel::instant(),
        );
        let mut fs = spec.build(None, &Obs::default()).unwrap();
        let f = make_file(&mut fs, "w", 1 << 20).unwrap();
        assert_eq!(fs.file_size(f).unwrap(), 1 << 20);
        fs.set_sync_writes(true);
        let mut r = rng(1);
        let ns = random_updates(&mut fs, f, 256, 50, &mut r).unwrap();
        assert!(ns > 0, "synchronous updates must cost simulated time");
        assert!(mb_per_s(1 << 20, ns) > 0.0);
    }

    #[test]
    fn bandwidth_math() {
        assert!((mb_per_s(1 << 20, 1_000_000_000) - 1.0).abs() < 1e-9);
        assert!(mb_per_s(1, 0).is_infinite());
    }
}
