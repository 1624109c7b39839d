#![warn(missing_docs)]
//! # lfs — a log-structured file system (file layer over a log-structured
//! logical disk)
//!
//! Mirrors the paper's LFS configuration (§4.3): the MIT Log-structured
//! Logical Disk design — a block device whose writes append to 512 KB
//! segments — with a conventional file layer above it holding a 6.1 MB
//! buffer cache. The file layer is the same code as the `ufs` crate (the
//! paper's MinixUFS is likewise an ordinary block-mapped file system); what
//! makes the stack "LFS" is the logical disk underneath:
//!
//! * all writes append to the log (no update-in-place),
//! * a `sync` flushes the partial segment per the 75 % threshold,
//! * a greedy cleaner reclaims segments on demand and during idle time,
//! * read-ahead in the file layer is disabled, "because blocks deemed
//!   contiguous by MinixUFS may not be so in the logical disk".
//!
//! [`lfs_filesystem`] assembles the stack over any raw device — a regular
//! disk or a VLD, giving the paper's "LFS on regular" and "LFS on VLD"
//! configurations.

mod lld;
pub mod seg;

pub use lld::{CleanerStats, LldConfig, LogDisk};
pub use seg::SEG_DATA;

use disksim::BlockDevice;
use fscore::{FsResult, HostModel};
use ufs::{Ufs, UfsConfig};

/// Configuration for the assembled LFS stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfsConfig {
    /// Logical-disk (segment/cleaner) settings.
    pub lld: LldConfig,
    /// File-layer buffer cache in bytes (paper: 6.1 MB, optionally NVRAM).
    pub cache_bytes: usize,
    /// Number of inodes in the file layer.
    pub inode_count: u32,
}

impl Default for LfsConfig {
    fn default() -> Self {
        Self {
            lld: LldConfig::default(),
            cache_bytes: (6.1 * 1024.0 * 1024.0) as usize,
            inode_count: 2048,
        }
    }
}

impl LfsConfig {
    /// The logical-disk settings as run under `host`. The LLD and its
    /// cleaner run at user level: cleaning copies cost the host CPU, not
    /// just the disk.
    pub fn lld_for(&self, host: HostModel) -> LldConfig {
        let mut lld = self.lld;
        if lld.cpu_per_block_ns == 0 {
            lld.cpu_per_block_ns = host.per_block_ns;
        }
        lld
    }

    /// The file-layer settings that make the stack "LFS" (§4.3).
    pub fn file_layer(&self) -> UfsConfig {
        UfsConfig {
            inode_count: self.inode_count,
            cache_bytes: self.cache_bytes,
            sync_data: false,
            // "The implementors of LLD has disabled read-ahead in MinixUFS".
            readahead_blocks: 0,
            // Deletes propagate to the log so dead segments become cleanable
            // (the file layer *can* see deletes, unlike the device driver).
            trim_on_delete: true,
            // The NVRAM discipline: buffer until full, then drain in bulk.
            flush_on_full: true,
        }
    }
}

/// Build the complete LFS stack (file layer over log-structured logical
/// disk) on a raw device.
pub fn lfs_filesystem(raw: Box<dyn BlockDevice>, host: HostModel, cfg: LfsConfig) -> FsResult<Ufs> {
    let lld = LogDisk::format(raw, cfg.lld_for(host))?;
    Ufs::format(Box::new(lld), host, cfg.file_layer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskSpec, RegularDisk, SimClock};
    use fscore::FileSystem;

    fn fresh() -> Ufs {
        let raw = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
        lfs_filesystem(Box::new(raw), HostModel::instant(), LfsConfig::default()).unwrap()
    }

    #[test]
    fn basic_file_operations_work_over_the_log() {
        let mut fs = fresh();
        let f = fs.create("log-file").unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(f, 0, &data).unwrap();
        fs.sync().unwrap();
        fs.drop_caches();
        let mut out = vec![0u8; data.len()];
        assert_eq!(fs.read(f, 0, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn creates_are_fast_on_the_log() {
        // LFS's point: synchronous metadata writes land in the segment
        // buffer, so creates cost only host CPU time, not disk mechanics.
        let raw = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
        let mut lfs =
            lfs_filesystem(Box::new(raw), HostModel::instant(), LfsConfig::default()).unwrap();
        let c = lfs.clock();
        let t0 = c.now();
        for i in 0..100 {
            lfs.create(&format!("f{i}")).unwrap();
        }
        let lfs_time = c.now() - t0;

        let raw = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
        let mut plain = ufs::Ufs::format(
            Box::new(raw),
            HostModel::instant(),
            ufs::UfsConfig::default(),
        )
        .unwrap();
        let c = plain.clock();
        let t0 = c.now();
        for i in 0..100 {
            plain.create(&format!("f{i}")).unwrap();
        }
        let ufs_time = c.now() - t0;
        assert!(
            lfs_time * 5 < ufs_time,
            "LFS creates ({lfs_time} ns) should crush update-in-place ({ufs_time} ns)"
        );
    }

    #[test]
    fn many_files_survive_sync_and_cache_drop() {
        let mut fs = fresh();
        for i in 0..200 {
            let f = fs.create(&format!("small{i}")).unwrap();
            fs.write(f, 0, &vec![i as u8; 1024]).unwrap();
        }
        fs.sync().unwrap();
        fs.drop_caches();
        for i in (0..200).step_by(17) {
            let f = fs.open(&format!("small{i}")).unwrap();
            let mut out = vec![0u8; 1024];
            assert_eq!(fs.read(f, 0, &mut out).unwrap(), 1024);
            assert!(out.iter().all(|&b| b == i as u8), "file {i}");
        }
    }

    #[test]
    fn overwrite_churn_exercises_cleaner_without_corruption() {
        let mut fs = fresh();
        let f = fs.create("churn").unwrap();
        let size: u64 = 8 << 20; // 8 MB file on a ~20 MB log
        let block = 4096u64;
        // Initial fill.
        let chunk = vec![0xAAu8; 256 * 1024];
        let mut off = 0;
        while off < size {
            fs.write(f, off, &chunk).unwrap();
            off += chunk.len() as u64;
        }
        fs.sync().unwrap();
        // Random overwrites forcing log turnover.
        let mut x = 12345u64;
        for i in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 16) % (size / block);
            fs.write(f, b * block, &vec![i as u8; block as usize])
                .unwrap();
        }
        fs.sync().unwrap();
        fs.drop_caches();
        // Spot-check: every block is readable and block-uniform.
        for b in (0..size / block).step_by(97) {
            let mut out = vec![0u8; block as usize];
            fs.read(f, b * block, &mut out).unwrap();
            let first = out[0];
            assert!(out.iter().all(|&v| v == first), "block {b} torn");
        }
    }

    #[test]
    fn idle_time_cleans_segments() {
        let mut fs = fresh();
        let f = fs.create("x").unwrap();
        let chunk = vec![1u8; 512 * 1024];
        for i in 0..20u64 {
            fs.write(f, i * chunk.len() as u64, &chunk).unwrap();
        }
        fs.sync().unwrap();
        // Overwrite half to create dead blocks.
        for i in 0..10u64 {
            fs.write(f, i * 2 * chunk.len() as u64, &chunk).unwrap();
        }
        fs.sync().unwrap();
        fs.idle(10_000_000_000);
        // After generous idle time the cleaner should have met its target
        // or run out of work; either way the fs still functions.
        let g = fs.open("x").unwrap();
        let mut out = vec![0u8; 4096];
        assert_eq!(fs.read(g, 0, &mut out).unwrap(), 4096);
    }
}
