#![warn(missing_docs)]
//! # ufs — an update-in-place FFS-like file system
//!
//! The baseline the paper measures eager writing against: a classic Unix
//! file system with synchronous metadata, optional synchronous data, in-place
//! block updates, locality-seeking allocation, a write-back buffer cache
//! with elevator-sorted flushes, and sequential read-ahead. It runs over any
//! [`disksim::BlockDevice`], so the same code serves as "UFS on a regular
//! disk" and "UFS on a VLD" — the paper's Figure 5 combinations.
//!
//! ```
//! use disksim::{DiskSpec, RegularDisk, SimClock};
//! use fscore::{FileSystem, HostModel};
//! use ufs::{Ufs, UfsConfig};
//!
//! let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), 4096);
//! let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
//! let f = fs.create("hello").unwrap();
//! fs.write(f, 0, b"hi there").unwrap();
//! let mut buf = [0u8; 8];
//! assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 8);
//! assert_eq!(&buf, b"hi there");
//! ```

mod bitmap;
pub mod dir;
mod fs;
pub mod fsck;
pub mod inode;
pub mod layout;
mod tree;

pub use fs::{Ufs, UfsConfig, UfsSnapshot};
pub use fsck::{fsck, fsck_repair, FsckError, FsckReport};
pub use layout::{Layout, BLOCK_SIZE};

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskSpec, RegularDisk, SimClock};
    use fscore::{FileSystem, FsError, HostModel};

    fn fresh() -> Ufs {
        let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
        Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap()
    }

    #[test]
    fn create_open_delete_lifecycle() {
        let mut fs = fresh();
        let f = fs.create("a").unwrap();
        assert_eq!(fs.file_size(f).unwrap(), 0);
        assert!(matches!(fs.create("a"), Err(FsError::Exists)));
        let g = fs.open("a").unwrap();
        assert_ne!(f, g, "handles are distinct");
        fs.delete("a").unwrap();
        assert!(matches!(fs.open("a"), Err(FsError::NotFound)));
        assert!(matches!(fs.delete("a"), Err(FsError::NotFound)));
    }

    #[test]
    fn rename_moves_a_file_and_survives_remount() {
        let mut fs = fresh();
        let f = fs.create("old").unwrap();
        fs.write(f, 0, b"payload").unwrap();
        fs.create("taken").unwrap();
        assert!(matches!(fs.rename("missing", "x"), Err(FsError::NotFound)));
        assert!(matches!(fs.rename("old", "taken"), Err(FsError::Exists)));
        fs.rename("old", "old").unwrap(); // no-op
        fs.rename("old", "new").unwrap();
        assert!(matches!(fs.open("old"), Err(FsError::NotFound)));
        // Open handles keep working across the rename (they hold the inode).
        let mut buf = [0u8; 7];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"payload");
        fs.sync().unwrap();
        // Rename is synchronous metadata: the new name survives a remount.
        let mut fs = Ufs::mount(fs.into_device(), HostModel::instant()).unwrap();
        let g = fs.open("new").unwrap();
        let mut buf = [0u8; 7];
        assert_eq!(fs.read(g, 0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"payload");
        assert!(matches!(fs.open("old"), Err(FsError::NotFound)));
        let report = fsck(fs.device_mut()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
    }

    #[test]
    fn rename_across_directories() {
        let mut fs = fresh();
        fs.mkdir("d1").unwrap();
        fs.mkdir("d2").unwrap();
        let f = fs.create("d1/file").unwrap();
        fs.write(f, 0, b"x").unwrap();
        fs.rename("d1/file", "d2/file").unwrap();
        assert!(matches!(fs.open("d1/file"), Err(FsError::NotFound)));
        fs.open("d2/file").unwrap();
        // The old directory is empty again, so it can be deleted.
        fs.delete("d1").unwrap();
        assert!(matches!(
            fs.rename("d2", "d3"),
            Err(FsError::Invalid(_))
        ));
    }

    #[test]
    fn write_read_various_offsets() {
        let mut fs = fresh();
        let f = fs.create("f").unwrap();
        // Unaligned write spanning a block boundary.
        let data: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        fs.write(f, 4000, &data).unwrap();
        assert_eq!(fs.file_size(f).unwrap(), 9000);
        let mut out = vec![0u8; 5000];
        assert_eq!(fs.read(f, 4000, &mut out).unwrap(), 5000);
        assert_eq!(out, data);
        // The hole before offset 4000 reads as zeros.
        let mut head = vec![0xFFu8; 4000];
        assert_eq!(fs.read(f, 0, &mut head).unwrap(), 4000);
        assert!(head.iter().all(|&b| b == 0));
        // Reading past EOF is short.
        let mut tail = vec![0u8; 100];
        assert_eq!(fs.read(f, 8990, &mut tail).unwrap(), 10);
    }

    #[test]
    fn data_survives_cache_drop() {
        let mut fs = fresh();
        let f = fs.create("f").unwrap();
        let data = vec![0x5Au8; 64 * 1024];
        fs.write(f, 0, &data).unwrap();
        fs.sync().unwrap();
        fs.drop_caches();
        let mut out = vec![0u8; data.len()];
        fs.read(f, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn large_file_through_indirect_blocks() {
        let mut fs = fresh();
        let f = fs.create("big").unwrap();
        // 5 MB exercises direct + indirect + double-indirect paths.
        let chunk = vec![0xA1u8; 128 * 1024];
        for i in 0..40u64 {
            fs.write(f, i * chunk.len() as u64, &chunk).unwrap();
        }
        assert_eq!(fs.file_size(f).unwrap(), 40 * 128 * 1024);
        fs.sync().unwrap();
        fs.drop_caches();
        let mut out = vec![0u8; chunk.len()];
        for i in [0u64, 13, 39] {
            fs.read(f, i * chunk.len() as u64, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0xA1), "chunk {i}");
        }
    }

    #[test]
    fn remount_preserves_everything() {
        let mut fs = fresh();
        let f = fs.create("keep").unwrap();
        fs.write(f, 0, b"persistent data").unwrap();
        fs.create("second").unwrap();
        fs.sync().unwrap();
        let dev = fs.into_device();
        let mut fs2 = Ufs::mount(dev, HostModel::instant()).unwrap();
        let f2 = fs2.open("keep").unwrap();
        let mut out = vec![0u8; 15];
        assert_eq!(fs2.read(f2, 0, &mut out).unwrap(), 15);
        assert_eq!(&out, b"persistent data");
        assert!(fs2.open("second").is_ok());
        assert!(fs2.open("missing").is_err());
    }

    #[test]
    fn delete_frees_space() {
        let mut fs = fresh();
        let before = fs.free_blocks();
        let f = fs.create("tmp").unwrap();
        fs.write(f, 0, &vec![1u8; 1 << 20]).unwrap();
        fs.sync().unwrap();
        assert!(fs.free_blocks() < before);
        fs.delete("tmp").unwrap();
        // All data blocks return (the dir block stays allocated).
        assert!(fs.free_blocks() >= before - 1);
    }

    #[test]
    fn nospace_at_reserve_boundary() {
        let mut fs = fresh();
        let f = fs.create("filler").unwrap();
        let chunk = vec![0u8; 256 * 1024];
        let mut off = 0u64;
        let err = loop {
            match fs.write(f, off, &chunk) {
                Ok(()) => off += chunk.len() as u64,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FsError::NoSpace);
        // df-style utilisation ≈ 100% (reserve counted as used).
        assert!(fs.utilization() > 0.97, "utilization {}", fs.utilization());
        assert_eq!(fs.free_blocks(), 0);
        // Deleting makes room again.
        fs.delete("filler").unwrap();
        assert!(fs.free_blocks() > 0);
    }

    #[test]
    fn sequential_layout_from_allocator() {
        let mut fs = fresh();
        let f = fs.create("seq").unwrap();
        fs.write(f, 0, &vec![7u8; 1 << 20]).unwrap();
        fs.sync().unwrap();
        fs.drop_caches();
        // A sequential cold read of 1 MB should enjoy read-ahead: far fewer
        // device commands than blocks.
        let before = fs.device().disk_stats().reads;
        let mut out = vec![0u8; 1 << 20];
        let mut off = 0usize;
        while off < out.len() {
            let mut chunk = vec![0u8; 4096];
            fs.read(f, off as u64, &mut chunk).unwrap();
            out[off..off + 4096].copy_from_slice(&chunk);
            off += 4096;
        }
        let cmds = fs.device().disk_stats().reads - before;
        assert!(
            cmds < 128,
            "{cmds} read commands for 256 blocks — read-ahead not batching"
        );
        assert!(out.iter().all(|&b| b == 7));
    }

    #[test]
    fn sync_data_mode_writes_through() {
        let mut fs = fresh();
        fs.set_sync_writes(true);
        let f = fs.create("s").unwrap();
        let before = fs.device().disk_stats().writes;
        fs.write(f, 0, &vec![1u8; 4096]).unwrap();
        let after = fs.device().disk_stats().writes;
        assert!(after > before, "sync write must hit the device immediately");
    }

    #[test]
    fn async_writes_batch_on_sync() {
        let mut fs = fresh();
        let f = fs.create("a").unwrap();
        let w_before = fs.device().disk_stats().writes;
        fs.write(f, 0, &vec![1u8; 1 << 20]).unwrap();
        let w_mid = fs.device().disk_stats().writes;
        // Pointer blocks are metadata and are written through (zeroed at
        // allocation, slot updates flushed once per operation); the 256
        // data blocks themselves must all stay in cache.
        assert!(
            w_mid - w_before <= 2,
            "async data writes stay in cache (saw {} device writes)",
            w_mid - w_before
        );
        fs.sync().unwrap();
        let w_after = fs.device().disk_stats().writes;
        // Clustering: 256 data blocks should flush in a handful of commands.
        assert!(
            w_after - w_mid < 40,
            "flush used {} commands",
            w_after - w_mid
        );
    }

    #[test]
    fn many_files_in_directory() {
        let mut fs = fresh();
        for i in 0..300 {
            fs.create(&format!("file{i:04}")).unwrap();
        }
        for i in (0..300).step_by(2) {
            fs.delete(&format!("file{i:04}")).unwrap();
        }
        // Slot reuse: creating new files fills the gaps.
        for i in 0..150 {
            fs.create(&format!("new{i:04}")).unwrap();
        }
        assert!(fs.open("file0001").is_ok());
        assert!(fs.open("file0000").is_err());
        assert!(fs.open("new0149").is_ok());
    }

    #[test]
    fn directories_nest_and_resolve() {
        let mut fs = fresh();
        fs.mkdir("inbox").unwrap();
        fs.mkdir("inbox/2026").unwrap();
        fs.mkdir("inbox/2026/jul").unwrap();
        let f = fs.create("inbox/2026/jul/msg1").unwrap();
        fs.write(f, 0, b"hello from deep down").unwrap();
        fs.sync().unwrap();
        fs.drop_caches();
        let f = fs.open("inbox/2026/jul/msg1").unwrap();
        let mut out = vec![0u8; 20];
        assert_eq!(fs.read(f, 0, &mut out).unwrap(), 20);
        assert_eq!(&out, b"hello from deep down");
        // Same leaf name in different directories is fine.
        fs.create("msg1").unwrap();
        fs.mkdir("outbox").unwrap();
        fs.create("outbox/msg1").unwrap();
        let mut names = fs.list("inbox/2026/jul").unwrap();
        names.sort();
        assert_eq!(names, vec!["msg1"]);
        let mut top = fs.list("/").unwrap();
        top.sort();
        assert_eq!(top, vec!["inbox", "msg1", "outbox"]);
    }

    #[test]
    fn directory_edge_cases() {
        let mut fs = fresh();
        fs.mkdir("d").unwrap();
        assert!(matches!(fs.mkdir("d"), Err(FsError::Exists)));
        assert!(matches!(fs.create("d"), Err(FsError::Exists)));
        assert!(matches!(fs.create("missing/x"), Err(FsError::NotFound)));
        assert!(matches!(fs.open("d"), Err(FsError::Invalid(_))));
        // Deleting a non-empty directory is refused; empty works.
        fs.create("d/file").unwrap();
        assert!(matches!(fs.delete("d"), Err(FsError::Invalid(_))));
        fs.delete("d/file").unwrap();
        fs.delete("d").unwrap();
        assert!(fs.open("d/file").is_err());
        // A file is not a directory.
        fs.create("plain").unwrap();
        assert!(matches!(fs.create("plain/x"), Err(FsError::Invalid(_))));
        assert!(fs.list("plain").is_err());
        // Paths normalise: leading/trailing slashes are tolerated.
        fs.mkdir("/norm/").unwrap();
        assert!(fs.open("norm").is_err()); // it's a dir
        fs.create("norm/f").unwrap();
        assert!(fs.open("/norm/f").is_ok());
    }

    #[test]
    fn directory_tree_survives_remount_and_fsck() {
        let mut fs = fresh();
        fs.mkdir("a").unwrap();
        fs.mkdir("a/b").unwrap();
        for i in 0..20 {
            let f = fs.create(&format!("a/b/f{i}")).unwrap();
            fs.write(f, 0, &vec![i as u8; 5000]).unwrap();
        }
        fs.create("top").unwrap();
        fs.sync().unwrap();
        let mut dev = fs.into_device();
        let report = crate::fsck::fsck(dev.as_mut()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert_eq!(report.files, 21, "20 nested + 1 top-level");
        let mut fs2 = Ufs::mount(dev, HostModel::instant()).unwrap();
        for i in (0..20).step_by(7) {
            let f = fs2.open(&format!("a/b/f{i}")).unwrap();
            let mut out = vec![0u8; 5000];
            assert_eq!(fs2.read(f, 0, &mut out).unwrap(), 5000);
            assert!(out.iter().all(|&b| b == i as u8), "a/b/f{i}");
        }
        assert!(fs2.open("top").is_ok());
        // The tree structure itself survived.
        assert_eq!(fs2.list("a").unwrap(), vec!["b"]);
        assert_eq!(fs2.list("a/b").unwrap().len(), 20);
    }

    #[test]
    fn inode_exhaustion_reports_nospace() {
        let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
        let mut fs = Ufs::format(
            Box::new(dev),
            HostModel::instant(),
            UfsConfig {
                inode_count: 40,
                ..UfsConfig::default()
            },
        )
        .unwrap();
        let mut created = 0;
        let err = loop {
            match fs.create(&format!("n{created}")) {
                Ok(_) => created += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FsError::NoSpace);
        // Root takes one inode; the other 39 are files.
        assert_eq!(created, 39);
        // Deleting frees an inode for reuse.
        fs.delete("n0").unwrap();
        assert!(fs.create("again").is_ok());
    }

    #[test]
    fn bad_handle_rejected() {
        let mut fs = fresh();
        assert!(matches!(fs.write(999, 0, b"x"), Err(FsError::BadHandle)));
        assert!(matches!(
            fs.read(999, 0, &mut [0u8; 1]),
            Err(FsError::BadHandle)
        ));
        assert!(matches!(fs.file_size(999), Err(FsError::BadHandle)));
    }

    #[test]
    fn clock_advances_with_work() {
        let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
        let mut fs = Ufs::format(
            Box::new(dev),
            HostModel::sparcstation_10(),
            UfsConfig::default(),
        )
        .unwrap();
        let c = fs.clock();
        let t0 = c.now();
        let f = fs.create("t").unwrap();
        assert!(c.now() > t0, "synchronous metadata must cost time");
        let t1 = c.now();
        fs.write(f, 0, &vec![0u8; 4096]).unwrap();
        assert!(c.now() > t1, "host cost accrues even for cached writes");
    }

    #[test]
    fn idle_advances_clock_exactly() {
        let mut fs = fresh();
        let c = fs.clock();
        let t0 = c.now();
        fs.idle(5_000_000);
        assert_eq!(c.now() - t0, 5_000_000);
    }
}
