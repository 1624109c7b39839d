//! What the UFS integration tests share: a volume's blocks, superblock and
//! inodes read straight off the device, and the size of a mounted
//! namespace.

use disksim::BlockDevice;
use ufs::inode::Inode;
use ufs::layout::INODE_SIZE;
use ufs::{Layout, Ufs, BLOCK_SIZE};

pub fn read(dev: &mut dyn BlockDevice, blk: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    dev.read_block(blk, &mut buf).unwrap();
    buf
}

pub fn layout(dev: &mut dyn BlockDevice) -> Layout {
    Layout::decode(&read(dev, 0), dev.num_blocks()).unwrap()
}

pub fn inode(dev: &mut dyn BlockDevice, ino: u32) -> Inode {
    let (blk, off) = layout(dev).inode_location(ino);
    Inode::decode(&read(dev, blk)[off..off + INODE_SIZE]).unwrap()
}

/// `(files, directories)` in the mounted namespace, the root not counted.
pub fn count_names(fs: &Ufs) -> (u32, u32) {
    let (mut files, mut dirs) = (0, 0);
    let mut stack = vec![String::new()];
    while let Some(dir) = stack.pop() {
        for name in fs.list(&dir).unwrap() {
            let path = if dir.is_empty() {
                name
            } else {
                format!("{dir}/{name}")
            };
            if fs.list(&path).is_ok() {
                dirs += 1;
                stack.push(path);
            } else {
                files += 1;
            }
        }
    }
    (files, dirs)
}
