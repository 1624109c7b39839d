//! On-disk inodes: 12 direct pointers, one indirect, one double-indirect.
//!
//! With 4 KB blocks and 4-byte pointers that is 48 KB direct, +4 MB
//! indirect, +4 GB double-indirect — comfortably past the 10–18 MB files
//! the paper's large-file and utilisation benchmarks use.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::layout::{BLOCK_SIZE, INODE_SIZE};
use disksim::codec::{get_u32, get_u32s, get_u64, get_u8, put_u32, put_u32s, put_u64};
use disksim::DiskError;
use fscore::{FsError, FsResult};

/// Number of direct block pointers.
pub(crate) const NDIRECT: usize = 12;
/// Pointers per indirect block.
pub(crate) const PTRS_PER_BLOCK: u64 = (BLOCK_SIZE / 4) as u64;
/// Sentinel meaning "no block".
pub(crate) const NO_BLOCK: u32 = 0;

/// An in-memory inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inode {
    /// File length in bytes.
    pub size: u64,
    /// In-use marker (a free inode slot is all zeros).
    pub(crate) allocated: bool,
    /// Directory marker: the data blocks hold directory entries.
    pub(crate) is_dir: bool,
    /// Direct block pointers.
    pub direct: [u32; NDIRECT],
    /// Single-indirect block pointer.
    pub indirect: u32,
    /// Double-indirect block pointer.
    pub(crate) dindirect: u32,
}

impl Inode {
    /// A freshly allocated empty file.
    pub(crate) fn empty() -> Self {
        Self {
            size: 0,
            allocated: true,
            is_dir: false,
            direct: [NO_BLOCK; NDIRECT],
            indirect: NO_BLOCK,
            dindirect: NO_BLOCK,
        }
    }

    /// A freshly allocated empty directory.
    pub fn empty_dir() -> Self {
        Self {
            is_dir: true,
            ..Self::empty()
        }
    }

    /// Largest representable file, in blocks.
    pub(crate) fn max_blocks() -> u64 {
        NDIRECT as u64 + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK
    }

    /// Number of blocks the file spans (by size).
    pub(crate) fn blocks(&self) -> u64 {
        self.size.div_ceil(BLOCK_SIZE as u64)
    }

    /// Serialise into an [`INODE_SIZE`]-byte slot.
    // bound: an encoder; the caller sized `slot` (asserted here).
    #[allow(clippy::indexing_slicing)]
    pub fn encode_into(&self, slot: &mut [u8]) {
        assert_eq!(slot.len(), INODE_SIZE);
        slot.fill(0);
        put_u64(slot, 0, self.size);
        slot[8] = u8::from(self.allocated);
        slot[9] = u8::from(self.is_dir);
        put_u32s(slot, 16, &self.direct);
        put_u32(slot, 64, self.indirect);
        put_u32(slot, 68, self.dindirect);
    }

    /// Decode from an [`INODE_SIZE`]-byte slot; a buffer of any other
    /// length is `Corrupt`.
    pub fn decode(slot: &[u8]) -> FsResult<Inode> {
        if slot.len() != INODE_SIZE {
            return Err(DiskError::Corrupt("inode slot of the wrong size").into());
        }
        let mut direct = [NO_BLOCK; NDIRECT];
        for (d, stored) in direct.iter_mut().zip(get_u32s(slot, 16, NDIRECT)?) {
            *d = stored;
        }
        Ok(Inode {
            size: get_u64(slot, 0)?,
            allocated: get_u8(slot, 8)? != 0,
            is_dir: get_u8(slot, 9)? != 0,
            direct,
            indirect: get_u32(slot, 64)?,
            dindirect: get_u32(slot, 68)?,
        })
    }
}

/// Where a file-relative block number resolves within an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockPath {
    /// `direct[i]`.
    Direct(usize),
    /// `indirect[i]`.
    Indirect(u64),
    /// `dindirect[i][j]`.
    Double(u64, u64),
}

/// Classify a file block index into its pointer path.
pub(crate) fn classify(file_block: u64) -> FsResult<BlockPath> {
    if file_block < NDIRECT as u64 {
        return Ok(BlockPath::Direct(file_block as usize));
    }
    let b = file_block - NDIRECT as u64;
    if b < PTRS_PER_BLOCK {
        return Ok(BlockPath::Indirect(b));
    }
    let b = b - PTRS_PER_BLOCK;
    if b < PTRS_PER_BLOCK * PTRS_PER_BLOCK {
        return Ok(BlockPath::Double(b / PTRS_PER_BLOCK, b % PTRS_PER_BLOCK));
    }
    Err(FsError::TooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut ino = Inode::empty();
        ino.size = 123_456;
        ino.direct[0] = 77;
        ino.direct[11] = 99;
        ino.indirect = 1234;
        ino.dindirect = 4321;
        let mut slot = vec![0u8; INODE_SIZE];
        ino.encode_into(&mut slot);
        assert_eq!(Inode::decode(&slot).unwrap(), ino);
    }

    #[test]
    fn zero_slot_is_unallocated() {
        let i = Inode::decode(&[0u8; INODE_SIZE]).unwrap();
        assert!(!i.allocated);
        assert!(!i.is_dir);
        assert_eq!(i.size, 0);
    }

    #[test]
    fn directory_flag_round_trips() {
        let d = Inode::empty_dir();
        assert!(d.is_dir && d.allocated);
        let mut slot = vec![0u8; INODE_SIZE];
        d.encode_into(&mut slot);
        assert!(Inode::decode(&slot).unwrap().is_dir);
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(classify(0).unwrap(), BlockPath::Direct(0));
        assert_eq!(classify(11).unwrap(), BlockPath::Direct(11));
        assert_eq!(classify(12).unwrap(), BlockPath::Indirect(0));
        assert_eq!(classify(12 + 1023).unwrap(), BlockPath::Indirect(1023));
        assert_eq!(classify(12 + 1024).unwrap(), BlockPath::Double(0, 0));
        assert_eq!(classify(12 + 1024 + 1025).unwrap(), BlockPath::Double(1, 1));
        assert!(classify(Inode::max_blocks()).is_err());
    }

    #[test]
    fn max_file_exceeds_benchmark_needs() {
        // 18 MB (the largest Figure 8 file) is 4608 blocks.
        assert!(Inode::max_blocks() > 5000);
    }

    #[test]
    fn blocks_rounds_up() {
        let mut i = Inode::empty();
        i.size = 1;
        assert_eq!(i.blocks(), 1);
        i.size = 4096;
        assert_eq!(i.blocks(), 1);
        i.size = 4097;
        assert_eq!(i.blocks(), 2);
    }
}
