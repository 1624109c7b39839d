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
//! Recovery recovers the virtual log (tail record / checkpoint / scan as
//! usual), then walks the recovered inodes to re-register their data
//! blocks in the free map; unreferenced eager writes from a torn update
//! are reclaimed automatically.

use crate::alloc::AllocConfig;
use crate::log::{VirtualLog, BLOCK_BYTES};
use crate::mapsector::UNMAPPED;
use crate::recovery::RecoveryReport;
use disksim::codec::{get_u32, get_u32s, get_u64, put_u32, put_u32s, put_u64};
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

    fn decode(buf: &[u8]) -> Result<VlfsInode> {
        if buf.len() != BLOCK_BYTES || get_u32(buf, 8)? != VLFS_MAGIC {
            return Err(DiskError::Corrupt("VLFS inode"));
        }
        Ok(VlfsInode {
            size: get_u64(buf, 0)?,
            direct: get_u32s(buf, 16, INODE_DIRECT)?.collect(),
        })
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

    /// Recover a layer after a crash: recover the virtual log, then walk
    /// every live inode to re-register its data blocks.
    pub fn recover(
        disk: Disk,
        alloc_cfg: AllocConfig,
        n_inodes: u64,
    ) -> Result<(VlfsLayer, RecoveryReport)> {
        let (mut log, report) = VirtualLog::recover(disk, alloc_cfg)?;
        let n_inodes = n_inodes.min(log.num_blocks());
        let mut inodes = vec![None; n_inodes as usize];
        for ino in 0..n_inodes {
            if log.translate(ino).is_none() {
                continue;
            }
            let mut buf = vec![0u8; BLOCK_BYTES];
            log.read(ino, &mut buf)?;
            let inode = VlfsInode::decode(&buf)?;
            for &pb in inode.direct.iter().filter(|&&pb| pb != UNMAPPED) {
                log.reserve_external_block(pb)?;
            }
            inodes[ino as usize] = Some(inode);
        }
        Ok((
            VlfsLayer {
                log,
                n_inodes,
                inodes,
            },
            report,
        ))
    }

    /// The underlying virtual log.
    pub fn log(&self) -> &VirtualLog {
        &self.log
    }

    /// Simulate a crash, yielding the raw disk.
    pub fn crash(self) -> Disk {
        self.log.crash()
    }

    /// Orderly shutdown (writes the tail record for fast recovery).
    pub fn shutdown(&mut self) -> Result<ServiceTime> {
        self.log.shutdown()
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

    /// Does the inode exist?
    pub fn exists(&self, ino: u64) -> bool {
        (ino < self.n_inodes) && self.inodes[ino as usize].is_some()
    }

    /// File size of an inode.
    pub fn size(&self, ino: u64) -> Result<u64> {
        self.check_ino(ino)?;
        self.inodes[ino as usize]
            .as_ref()
            .map(|i| i.size)
            .ok_or(DiskError::Unsupported("no such inode"))
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

    /// Read one file block (holes read as zeros).
    pub fn read_block(&mut self, ino: u64, file_block: u64, out: &mut [u8]) -> Result<ServiceTime> {
        self.check_ino(ino)?;
        let inode = self.inodes[ino as usize]
            .as_ref()
            .ok_or(DiskError::Unsupported("no such inode"))?;
        match inode.direct.get(file_block as usize) {
            Some(&pb) if pb != UNMAPPED => self.log.read_raw(pb, out),
            _ => {
                out.fill(0);
                Ok(ServiceTime::ZERO)
            }
        }
    }

    /// Delete an inode and free all of its blocks.
    pub fn delete(&mut self, ino: u64) -> Result<ServiceTime> {
        self.check_ino(ino)?;
        let inode = self.inodes[ino as usize]
            .take()
            .ok_or(DiskError::Unsupported("no such inode"))?;
        for &pb in inode.direct.iter().filter(|&&pb| pb != UNMAPPED) {
            self.log.free_raw(pb)?;
        }
        self.log.trim(ino)
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
    fn create_write_read_roundtrip() {
        let mut v = fresh();
        v.create(3).unwrap();
        v.write_block(3, 0, &blk(7)).unwrap();
        v.write_block(3, 5, &blk(9)).unwrap();
        assert_eq!(v.size(3).unwrap(), 6 * BLOCK_BYTES as u64);
        let mut out = blk(0);
        v.read_block(3, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 7));
        v.read_block(3, 5, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 9));
        // Hole.
        v.read_block(3, 2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
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
    fn crash_recovery_restores_files_and_space() {
        let mut v = fresh();
        for ino in 0..10u64 {
            v.create(ino).unwrap();
            for fb in 0..4u64 {
                v.write_block(ino, fb, &blk((ino * 4 + fb) as u8)).unwrap();
            }
        }
        let free_before = v.log().free_map().free_sectors();
        let disk = v.crash();
        let (mut v, report) = VlfsLayer::recover(disk, AllocConfig::default(), 256).unwrap();
        assert!(report.pieces_recovered > 0);
        for ino in 0..10u64 {
            assert!(v.exists(ino));
            for fb in 0..4u64 {
                let mut out = blk(0);
                v.read_block(ino, fb, &mut out).unwrap();
                assert!(
                    out.iter().all(|&b| b == (ino * 4 + fb) as u8),
                    "ino {ino} block {fb}"
                );
            }
        }
        // Data blocks were re-registered: free space is consistent (within
        // the checkpoint-pending slack).
        let free_after = v.log().free_map().free_sectors();
        assert!(
            free_after.abs_diff(free_before) <= 512,
            "free space drifted: {free_before} -> {free_after}"
        );
        // And new writes don't corrupt old files (allocator respects the
        // re-registered blocks).
        v.create(100).unwrap();
        for fb in 0..50u64 {
            v.write_block(100, fb % INODE_DIRECT as u64, &blk(0xFF))
                .unwrap();
        }
        let mut out = blk(0);
        v.read_block(0, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn torn_update_rolls_back_to_previous_inode() {
        let mut v = fresh();
        v.create(2).unwrap();
        v.write_block(2, 0, &blk(5)).unwrap();
        // Tear: raw data written, inode never committed.
        let (_pb, _) = v.log.write_raw(&blk(6)).unwrap();
        let disk = v.crash();
        let (mut v, _) = VlfsLayer::recover(disk, AllocConfig::default(), 256).unwrap();
        let mut out = blk(0);
        v.read_block(2, 0, &mut out).unwrap();
        assert!(
            out.iter().all(|&b| b == 5),
            "must roll back to committed data"
        );
    }

    #[test]
    fn delete_frees_everything() {
        let mut v = fresh();
        v.create(9).unwrap();
        for fb in 0..8u64 {
            v.write_block(9, fb, &blk(1)).unwrap();
        }
        v.delete(9).unwrap();
        assert!(!v.exists(9));
        assert!(v.read_block(9, 0, &mut blk(0)).is_err());
        // Deleting again fails cleanly.
        assert!(v.delete(9).is_err());
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
