//! On-disk layout of the update-in-place file system.
//!
//! ```text
//! block 0              superblock
//! block 1 ..           inode bitmap
//! ..                   block bitmap
//! ..                   inode table (128-byte inodes, 32 per block)
//! data_start ..        data blocks
//! ```
//!
//! Like the Solaris UFS in the paper, a slice of the data area (10 %) is
//! reserved: allocation fails once free space dips below it, and `df`-style
//! utilisation counts it as used — the paper notes its Figure 8 x-axis
//! "includes about 12% of reserved free space that is not usable".

use disksim::codec::{get_u32, get_u64, put_u32, put_u64};
use fscore::{FsError, FsResult};

/// Bytes per file-system block (fixed, matching the paper's configuration).
pub const BLOCK_SIZE: usize = 4096;
/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 128;
/// Inodes per block.
pub(crate) const INODES_PER_BLOCK: u64 = (BLOCK_SIZE / INODE_SIZE) as u64;
/// Superblock magic ("UFSs").
pub const SUPER_MAGIC: u32 = 0x5546_5373;
/// Fraction of data blocks kept in reserve (FFS `minfree`).
pub(crate) const RESERVE_FRACTION: f64 = 0.10;

/// Computed block layout of a formatted volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total device blocks.
    pub total_blocks: u64,
    /// Number of inodes.
    pub(crate) inode_count: u32,
    /// First block of the inode bitmap.
    pub(crate) inode_bitmap_start: u64,
    /// Blocks in the inode bitmap.
    pub(crate) inode_bitmap_blocks: u64,
    /// First block of the data-block bitmap.
    pub(crate) block_bitmap_start: u64,
    /// Blocks in the data-block bitmap.
    pub(crate) block_bitmap_blocks: u64,
    /// First block of the inode table.
    pub inode_table_start: u64,
    /// Blocks in the inode table.
    pub(crate) inode_table_blocks: u64,
    /// First data block.
    pub data_start: u64,
    /// Data blocks reserved (unusable, counted as used by `df`).
    pub(crate) reserved_blocks: u64,
}

impl Layout {
    /// Compute a layout for a device of `total_blocks` blocks with
    /// `inode_count` inodes.
    pub fn compute(total_blocks: u64, inode_count: u32) -> FsResult<Layout> {
        let bits_per_block = (BLOCK_SIZE * 8) as u64;
        let inode_bitmap_blocks = (inode_count as u64).div_ceil(bits_per_block);
        let block_bitmap_blocks = total_blocks.div_ceil(bits_per_block);
        let inode_table_blocks = (inode_count as u64).div_ceil(INODES_PER_BLOCK);
        let inode_bitmap_start = 1;
        let block_bitmap_start = inode_bitmap_start + inode_bitmap_blocks;
        let inode_table_start = block_bitmap_start + block_bitmap_blocks;
        let data_start = inode_table_start + inode_table_blocks;
        if data_start + 16 > total_blocks {
            return Err(FsError::Invalid("device too small for layout"));
        }
        let data_blocks = total_blocks - data_start;
        let reserved_blocks = (data_blocks as f64 * RESERVE_FRACTION) as u64;
        Ok(Layout {
            total_blocks,
            inode_count,
            inode_bitmap_start,
            inode_bitmap_blocks,
            block_bitmap_start,
            block_bitmap_blocks,
            inode_table_start,
            inode_table_blocks,
            data_start,
            reserved_blocks,
        })
    }

    /// Number of data blocks (including the reserve).
    pub(crate) fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }

    /// Device block and byte offset holding inode `ino`.
    pub fn inode_location(&self, ino: u32) -> (u64, usize) {
        let block = self.inode_table_start + ino as u64 / INODES_PER_BLOCK;
        let offset = (ino as u64 % INODES_PER_BLOCK) as usize * INODE_SIZE;
        (block, offset)
    }

    /// Serialise as a superblock image.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        put_u32(&mut b, 0, SUPER_MAGIC);
        put_u64(&mut b, 4, self.total_blocks);
        put_u32(&mut b, 12, self.inode_count);
        b
    }

    /// Decode and re-derive a layout from the superblock of a device of
    /// `device_blocks` blocks. Mount and `fsck` size their tables from it,
    /// so it is believed only within the device and with a root inode.
    pub fn decode(buf: &[u8], device_blocks: u64) -> FsResult<Layout> {
        if get_u32(buf, 0).ok() != Some(SUPER_MAGIC) {
            return Err(FsError::Invalid("bad superblock"));
        }
        let (total, inodes) = (get_u64(buf, 4)?, get_u32(buf, 12)?);
        if total > device_blocks {
            return Err(FsError::Invalid("superblock larger than the device"));
        }
        if inodes == 0 {
            return Err(FsError::Invalid("superblock has no root inode"));
        }
        Layout::compute(total, inodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = Layout::compute(6156, 2048).unwrap();
        assert_eq!(l.inode_bitmap_start, 1);
        assert!(l.block_bitmap_start > l.inode_bitmap_start);
        assert!(l.inode_table_start > l.block_bitmap_start);
        assert!(l.data_start > l.inode_table_start);
        assert_eq!(l.inode_table_blocks, 2048 / 32);
        assert!(l.data_blocks() > 6000);
        assert_eq!(l.reserved_blocks, (l.data_blocks() as f64 * 0.10) as u64);
    }

    #[test]
    fn inode_location_math() {
        let l = Layout::compute(6156, 2048).unwrap();
        let (b0, o0) = l.inode_location(0);
        assert_eq!((b0, o0), (l.inode_table_start, 0));
        let (b, o) = l.inode_location(33);
        assert_eq!(b, l.inode_table_start + 1);
        assert_eq!(o, INODE_SIZE);
    }

    #[test]
    fn superblock_roundtrip() {
        let l = Layout::compute(6156, 2048).unwrap();
        let img = l.encode();
        assert_eq!(Layout::decode(&img, 6156).unwrap(), l);
        // A volume may be smaller than its device, never larger.
        assert_eq!(Layout::decode(&img, 6157).unwrap(), l);
        assert!(Layout::decode(&img, 6155).is_err());
        assert!(Layout::decode(&[0u8; 16], 6156).is_err());
    }

    #[test]
    fn tiny_device_rejected() {
        assert!(Layout::compute(20, 2048).is_err());
    }
}
