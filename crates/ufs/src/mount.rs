//! Mounting a volume: read the superblock and both bitmaps, then rebuild
//! the directory index by walking the namespace from the root.
//!
//! Everything read here is input from the media. The superblock is
//! believed only within the device ([`Layout::decode`]), a directory entry
//! naming an inode past the table is dangling, and a block pointer outside
//! the data area is refused; none of them is indexed on trust, so a
//! damaged volume fails its mount with an error rather than a panic.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;

use crate::bitmap::Bitmap;
use crate::dir::Dirent;
use crate::fs::{PathEntry, Ufs, UfsConfig, UfsState};
use crate::fsck::read_blocks;
use crate::inode::Inode;
use crate::layout::{Layout, BLOCK_SIZE};
use crate::tree::{self, Named, Namespace, Node, Verdict};
use disksim::BlockDevice;
use fscore::{FsError, FsResult, HostModel};

impl Ufs {
    /// Mount an existing file system with the default configuration.
    pub fn mount(dev: Box<dyn BlockDevice>, host: HostModel) -> FsResult<Ufs> {
        Self::mount_with(dev, host, UfsConfig::default())
    }

    /// Mount an existing file system, rebuilding in-memory state from disk.
    /// `inode_count` comes from the superblock; every other setting (cache
    /// size, read-ahead, trim, bulk flush) is volatile and taken from `cfg`,
    /// so a remount can run the configuration the system was formatted with.
    pub fn mount_with(
        mut dev: Box<dyn BlockDevice>,
        host: HostModel,
        cfg: UfsConfig,
    ) -> FsResult<Ufs> {
        assert_eq!(dev.block_size(), BLOCK_SIZE);
        // Superblock/bitmap loads, the directory walk and the bitmap
        // reconciliation are all recovery-path reads.
        let spans = dev.spans();
        let sp = if spans.is_enabled() {
            spans.open(disksim::SpanKind::Recovery, "ufs.mount", dev.clock().now())
        } else {
            0
        };
        let mut sb = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut sb)?;
        let layout = Layout::decode(&sb, dev.num_blocks())?;
        let d = dev.as_mut();
        let ibm = read_blocks(d, layout.inode_bitmap_start, layout.inode_bitmap_blocks)?;
        let bbm = read_blocks(d, layout.block_bitmap_start, layout.block_bitmap_blocks)?;
        let bitmaps = (
            Bitmap::from_bytes(layout.inode_count as u64, &ibm),
            Bitmap::from_bytes(layout.data_blocks(), &bbm),
        );
        let mut fs = Self::assemble(dev, UfsState::new(host, layout, cfg, bitmaps));
        fs.index_tree()?;
        fs.span_close(sp);
        Ok(fs)
    }

    /// Rebuild the directory index from the media: walk the namespace from
    /// the root ([`tree::Namespace`]), clearing every second name of a
    /// file, then reconcile the bitmaps with what the walk reached.
    ///
    /// The bitmaps are crash recovery for the delayed-bitmap discipline:
    /// inode and directory updates are synchronous but bitmap flushes wait
    /// for `sync`, so after a power loss the on-media bitmaps can lag the
    /// metadata. Trusting a stale *free* bit would hand out an inode or
    /// block that reachable metadata already owns (double allocation, then
    /// a dangling dirent once either owner is deleted) — so re-mark
    /// everything reachable from the root as allocated. The opposite
    /// staleness (bits still set for freed objects) is harmless: those
    /// leak until `fsck` reclaims them.
    ///
    /// A second name of a file is what a power cut between `rename`'s two
    /// directory writes leaves. Either name is the file, so the walk's first
    /// is kept and the other cleared, synchronously, as `fsck_repair` would.
    fn index_tree(&mut self) -> FsResult<()> {
        let mut ns = Namespace::new(self.state.layout.inode_count);
        // The path of each directory reached below the root, `/`-terminated.
        let mut paths = HashMap::new();
        while let Some(dir) = ns.next_dir() {
            let Some(inode) = self.allocated_inode(dir)? else {
                continue;
            };
            for (slot, e) in self.dir_entries(inode)? {
                // Entries are input. Mount refuses what only `fsck_repair`
                // should mend (a directory reached twice would be walked
                // forever), and clears a file's second name.
                let is_dir = match ns.judge(e.ino, |ino| self.allocated_inode(ino))? {
                    Named::Dir => true,
                    Named::File => false,
                    Named::FileAgain => {
                        self.write_dir_slot(dir, slot, None)?;
                        continue;
                    }
                    Named::Dangling => return Err(FsError::Invalid("dangling dirent")),
                    Named::DirAgain => return Err(FsError::Invalid("directory named twice")),
                };
                let prefix = paths.get(&dir).map_or("", String::as_str);
                let path = format!("{prefix}{}", e.name);
                self.state.dir_slots.entry(dir).or_default().set(slot, true);
                if is_dir {
                    paths.insert(e.ino, format!("{path}/"));
                }
                let entry = PathEntry {
                    ino: e.ino,
                    parent: dir,
                    slot,
                    is_dir,
                };
                self.state.names.insert(path, entry);
            }
        }
        let reached = (0..).zip(&ns.reached).filter(|&(_, &r)| r);
        for (ino, _) in reached {
            self.state.inode_bm.set(ino as u64);
            let inode = self.get_inode(ino)?;
            let mark = |fs: &mut Ufs, n: Node| -> FsResult<Verdict> {
                // A pointer outside the data area is `fsck_repair`'s to
                // clear: `delete` would free a bit the data bitmap does not
                // have, and a write through it would land on metadata.
                let bit = n.block.checked_sub(fs.state.layout.data_start);
                let bit = bit.filter(|&b| b < fs.state.block_bm.len());
                let outside = FsError::Invalid("block pointer outside the data area");
                fs.state.block_bm.set(bit.ok_or(outside)?);
                Ok(Verdict::Follow)
            };
            self.cache_walk(inode, mark, |_, _| {})?;
        }
        Ok(())
    }

    /// Inode `ino`, or `None` if it is not allocated.
    fn allocated_inode(&mut self, ino: u32) -> FsResult<Option<Inode>> {
        Ok(Some(self.get_inode(ino)?).filter(|i| i.allocated))
    }

    /// The live entries of directory `dir` ([`tree::live_slots`]), its
    /// blocks read through the cache in file order.
    fn dir_entries(&mut self, dir: Inode) -> FsResult<Vec<(u64, Dirent)>> {
        let mut entries = Vec::new();
        let read = |fs: &mut Ufs, n: Node| -> FsResult<Verdict> {
            if n.file_block >= dir.blocks() {
                return Ok(Verdict::Skip);
            }
            if n.level == 0 {
                let buf = fs.get_block(n.block)?;
                entries.extend(tree::live_slots(dir.size, n.file_block, &buf)?);
            }
            Ok(Verdict::Follow)
        };
        self.cache_walk(dir, read, |_, _| {})?;
        Ok(entries)
    }
}
