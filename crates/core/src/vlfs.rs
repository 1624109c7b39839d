//! VLFS: the log-structured file system *integrated* with the virtual log
//! (§3.3, Figure 4).
//!
//! The paper designs (but does not implement) a variant of LFS in which
//! data blocks, inode blocks, and inode-map entries are all eager-written,
//! and **only the inode map belongs to the virtual log**: "this is
//! essentially adding a level of indirection to the indirection map. The
//! advantage is that the inode map, which is the sole content of the
//! virtual log, is now compact enough to be stored in memory; it also
//! reduces the number of I/O's needed to maintain the indirection map
//! because VLFS simply takes advantage of the existing indirection data
//! structures in the file system."
//!
//! Here the design is realised as a library layer:
//!
//! * data blocks are raw eager writes ([`VirtualLog::write_raw`]) whose
//!   addresses live in inodes, not in the map;
//! * inode blocks are eager-written through the virtual log's indirection
//!   map, keyed by inode number — so the map has one entry per *inode*,
//!   not per block (the §3.3 compactness win);
//! * a write commits by appending the inode-map piece: data first, inode
//!   second, map last — a crash at any point rolls back to the previous
//!   consistent inode.
//!
//! The layer is the write path the `vlfs_preview` exhibit measures:
//! format, create and block writes. It has no read, delete or recovery
//! path yet.

use crate::alloc::AllocConfig;
use crate::log::{VirtualLog, BLOCK_BYTES};
use crate::mapsector::UNMAPPED;
use disksim::codec::{put_u32, put_u32s, put_u64};
use disksim::{Disk, DiskError, Result, ServiceTime};

/// Direct block pointers per inode (one 4 KB inode block).
pub const INODE_DIRECT: usize = (BLOCK_BYTES - 16) / 4;
/// Magic at byte 8 of every inode block ("VLFS").
const VLFS_MAGIC: u32 = 0x564C_4653;

/// An in-memory inode: file size plus direct pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VlfsInode {
    /// File size in bytes.
    pub(crate) size: u64,
    /// Physical block of each file block ([`UNMAPPED`] = hole).
    pub(crate) direct: Vec<u32>,
}

impl VlfsInode {
    fn empty() -> Self {
        Self {
            size: 0,
            direct: vec![UNMAPPED; INODE_DIRECT],
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_BYTES];
        put_u64(&mut b, 0, self.size);
        put_u32(&mut b, 8, VLFS_MAGIC);
        put_u32s(&mut b, 16, &self.direct);
        b
    }
}

/// The inode-map-only virtual-log file layer of §3.3.
#[derive(Debug)]
pub struct VlfsLayer {
    log: VirtualLog,
    n_inodes: u64,
    /// In-memory inode cache ("compact enough to be stored in memory").
    inodes: Vec<Option<VlfsInode>>,
}

impl VlfsLayer {
    /// Format a fresh layer with `n_inodes` inodes on `disk`.
    pub fn format(disk: Disk, alloc_cfg: AllocConfig, n_inodes: u64) -> VlfsLayer {
        let log = VirtualLog::format(disk, alloc_cfg);
        let n_inodes = n_inodes.min(log.num_blocks());
        VlfsLayer {
            log,
            n_inodes,
            inodes: vec![None; n_inodes as usize],
        }
    }

    /// The underlying virtual log.
    pub fn log(&self) -> &VirtualLog {
        &self.log
    }

    fn check_ino(&self, ino: u64) -> Result<()> {
        if ino >= self.n_inodes {
            return Err(DiskError::OutOfRange {
                addr: ino,
                limit: self.n_inodes,
            });
        }
        Ok(())
    }

    /// Allocate an inode (caller picks a free number).
    pub fn create(&mut self, ino: u64) -> Result<ServiceTime> {
        self.check_ino(ino)?;
        if self.inodes[ino as usize].is_some() {
            return Err(DiskError::Unsupported("inode already exists"));
        }
        let inode = VlfsInode::empty();
        let t = self.log.write(ino, &inode.encode())?;
        self.inodes[ino as usize] = Some(inode);
        Ok(t)
    }

    /// Write one 4 KB file block. This is the §3.3 write path: eager data
    /// write (raw), then the updated inode block, committed by the
    /// inode-map append — three eager writes, one commit point.
    pub fn write_block(&mut self, ino: u64, file_block: u64, data: &[u8]) -> Result<ServiceTime> {
        self.check_ino(ino)?;
        if file_block >= INODE_DIRECT as u64 {
            return Err(DiskError::OutOfRange {
                addr: file_block,
                limit: INODE_DIRECT as u64,
            });
        }
        let mut inode = self.inodes[ino as usize]
            .clone()
            .ok_or(DiskError::Unsupported("no such inode"))?;
        let (new_pb, mut t) = self.log.write_raw(data)?;
        let old_pb = inode.direct[file_block as usize];
        inode.direct[file_block as usize] = new_pb;
        inode.size = inode.size.max((file_block + 1) * BLOCK_BYTES as u64);
        // Commit: the inode goes through the virtual log's map.
        t += self.log.write(ino, &inode.encode())?;
        if old_pb != UNMAPPED {
            self.log.free_raw(old_pb)?;
        }
        self.inodes[ino as usize] = Some(inode);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskSpec, SimClock};

    fn fresh() -> VlfsLayer {
        let mut spec = DiskSpec::st19101_sim();
        spec.command_overhead_ns = 0;
        VlfsLayer::format(
            Disk::new(spec, SimClock::new()),
            AllocConfig::default(),
            256,
        )
    }

    fn blk(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_BYTES]
    }

    #[test]
    fn writes_land_in_the_inode() {
        let mut v = fresh();
        v.create(3).unwrap();
        v.write_block(3, 0, &blk(7)).unwrap();
        v.write_block(3, 5, &blk(9)).unwrap();
        let inode = v.inodes[3].as_ref().unwrap();
        assert_eq!(inode.size, 6 * BLOCK_BYTES as u64);
        assert!(inode.direct[0] != UNMAPPED && inode.direct[5] != UNMAPPED);
        assert_eq!(inode.direct[2], UNMAPPED, "a hole");
    }

    #[test]
    fn map_traffic_is_per_inode_not_per_block() {
        // The §3.3 win: writing many blocks of one file touches the
        // indirection map once per write (the inode's entry), and the map
        // itself stays one-entry-per-inode small.
        let mut v = fresh();
        v.create(0).unwrap();
        let before = v.log().stats().map_writes;
        for i in 0..20 {
            v.write_block(0, i, &blk(i as u8)).unwrap();
        }
        let appends = v.log().stats().map_writes - before;
        assert_eq!(appends, 20, "one commit per write");
        // Only one map entry is live for this whole file.
        assert!(v.log().translate(0).is_some());
        assert_eq!(v.log().translate(1), None);
    }

    #[test]
    fn overwrite_reuses_space() {
        let mut v = fresh();
        v.create(1).unwrap();
        v.write_block(1, 0, &blk(1)).unwrap();
        let free1 = v.log().free_map().free_sectors();
        for pass in 2..10u8 {
            v.write_block(1, 0, &blk(pass)).unwrap();
        }
        // Space use is steady apart from pending map blocks awaiting a
        // checkpoint.
        let drift = free1.saturating_sub(v.log().free_map().free_sectors());
        assert!(
            drift <= 8 * (v.log().pending_recycle_len() as u64 + 2),
            "leak: {drift}"
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let mut v = fresh();
        assert!(v.create(10_000).is_err());
        v.create(0).unwrap();
        assert!(v.create(0).is_err(), "double create");
        assert!(v.write_block(0, INODE_DIRECT as u64, &blk(0)).is_err());
        assert!(v.write_block(99, 0, &blk(0)).is_err());
    }

    #[test]
    fn writes_are_eager_fast() {
        let mut v = fresh();
        v.create(0).unwrap();
        let half_rev = v.log().disk().spec().half_rotation_ns();
        // Prime, then measure: data + inode + map, all eager.
        for fb in 0..5u64 {
            v.write_block(0, fb, &blk(1)).unwrap();
        }
        let t = v.write_block(0, 2, &blk(2)).unwrap();
        assert!(
            t.total_ns() < 2 * half_rev,
            "three eager writes beat one update-in-place rotation: {t:?}"
        );
    }
}
