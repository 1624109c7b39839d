//! `fsck` — offline consistency checking and repair for the
//! update-in-place file system.
//!
//! Walks the on-disk structures (superblock, bitmaps, inode table, root
//! directory, block pointers) and cross-checks them:
//!
//! * every referenced block is inside the data area and referenced once;
//! * the block bitmap covers exactly the referenced blocks;
//! * the inode bitmap covers exactly the directory-reachable inodes
//!   (plus the root);
//! * directory entries point at allocated inodes;
//! * file sizes are representable by the pointer tree.
//!
//! [`fsck`] only reports. [`fsck_repair`] additionally fixes what it finds
//! with the classic conservative moves — drop the bad reference, remove the
//! dangling name, release the orphan, rebuild the bitmaps from the
//! reference walk — chosen so that repair *converges*: a second pass over a
//! repaired volume finds nothing. (On a sync-metadata UFS a crash alone
//! never needs more than bitmap reconciliation; the severe classes only
//! appear when the media itself lies, which is exactly what the
//! model-checking harness's fault layer injects.)
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dir::{Dirent, DIRENT_SIZE};
use crate::inode::Inode;
use crate::layout::{Layout, BLOCK_SIZE, INODE_SIZE};
use crate::tree::{self, Named, Namespace, Node, TreeVisitor, Verdict};
use disksim::codec::get_bytes;
use disksim::BlockDevice;
use fscore::FsResult;

/// One consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckError {
    /// A block pointer outside the data area.
    PointerOutOfRange {
        /// Owning inode.
        ino: u32,
        /// The bad device block.
        block: u64,
    },
    /// Two pointers reference the same block.
    DoubleReference {
        /// The block referenced twice.
        block: u64,
        /// First owner.
        first_ino: u32,
        /// Second owner.
        second_ino: u32,
    },
    /// Bitmap says free but the block is referenced.
    ReferencedButFree {
        /// The block in question.
        block: u64,
    },
    /// Bitmap says used but nothing references the block (a leak).
    Leaked {
        /// The leaked block.
        block: u64,
    },
    /// A directory entry points at an unallocated inode.
    DanglingDirent {
        /// The entry's name.
        name: String,
        /// The missing inode.
        ino: u32,
    },
    /// An allocated inode is unreachable from the root directory.
    OrphanInode {
        /// The orphan.
        ino: u32,
    },
    /// An allocated inode whose inode-bitmap bit is clear.
    InodeMarkedFree {
        /// The inode in question.
        ino: u32,
    },
    /// An inode-bitmap bit set for an unallocated inode slot.
    InodeMarkedUsed {
        /// The inode in question.
        ino: u32,
    },
    /// Inode size exceeds what its pointers can address.
    SizeBeyondPointers {
        /// The inode.
        ino: u32,
    },
    /// A directory reached by a second name: an entry naming the root, an
    /// ancestor (a cycle) or a directory an earlier entry named.
    DirectoryNamedTwice {
        /// The second name.
        name: String,
        /// The directory.
        ino: u32,
    },
    /// A non-directory inode reached by a second name — what a power cut
    /// between a rename's two directory writes leaves.
    InodeNamedTwice {
        /// The second name.
        name: String,
        /// The inode.
        ino: u32,
    },
}

/// Result of a check: counts plus the detailed errors.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Files reachable from the root directory.
    pub files: u32,
    /// Directories reachable from the root directory, the root not counted.
    pub dirs: u32,
    /// Data blocks referenced (including indirect blocks).
    pub blocks_referenced: u64,
    /// Violations found (empty = consistent).
    pub errors: Vec<FsckError>,
    /// Human-readable repair actions taken (always empty for [`fsck`]).
    pub repairs: Vec<String>,
}

impl FsckReport {
    /// Did the volume pass?
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Check the volume on `dev`. Reads raw blocks; does not require (or
/// trust) a mounted file system.
pub fn fsck(dev: &mut dyn BlockDevice) -> FsResult<FsckReport> {
    run(dev, false)
}

/// Check the volume on `dev` and repair every violation found. The report
/// lists the errors as detected (pre-repair) and the actions taken; a
/// subsequent [`fsck`] pass over the repaired volume is clean. An entry
/// naming an inode an earlier entry of the namespace walk named is
/// cleared: the rule mount applies to a file's second name. Must not be run
/// under a mounted file system (a mounted cache would go stale).
pub fn fsck_repair(dev: &mut dyn BlockDevice) -> FsResult<FsckReport> {
    run(dev, true)
}

/// "Nobody references this block" in the dense owner table.
const NO_OWNER: u32 = u32::MAX;

/// `fsck`'s side of a pointer-tree walk: every pointer is checked against
/// the data area and the owner table, and in repair mode a bad one is
/// cleared on the media.
struct Vet<'a> {
    dev: &'a mut dyn BlockDevice,
    layout: &'a Layout,
    report: &'a mut FsckReport,
    /// One slot per device block, holding the first inode to reference it.
    owner: &'a mut [u32],
    ino: u32,
    repair: bool,
    /// The accepted data blocks, `(file block, device block)`.
    data: Vec<(u64, u64)>,
}

impl TreeVisitor for Vet<'_> {
    type Block = Vec<u8>;

    fn read(&mut self, blk: u64) -> FsResult<Vec<u8>> {
        read_blocks(self.dev, blk, 1)
    }

    /// Accept a pointer into the data area that is its block's first
    /// reference; report any other.
    fn visit(&mut self, node: Node) -> FsResult<Verdict> {
        let (ino, block) = (self.ino, node.block);
        let owner = self.owner.get_mut(block as usize);
        let error = match owner.filter(|_| block >= self.layout.data_start) {
            None => FsckError::PointerOutOfRange { ino, block },
            Some(&mut first) if first != NO_OWNER => FsckError::DoubleReference {
                block,
                first_ino: first,
                second_ino: ino,
            },
            Some(owner) => {
                *owner = ino;
                self.report.blocks_referenced += 1;
                if node.level == 0 {
                    self.data.push((node.file_block, block));
                }
                return Ok(Verdict::Follow);
            }
        };
        self.report.errors.push(error);
        if !self.repair {
            return Ok(Verdict::Skip);
        }
        let which = match (node.in_inode, node.level) {
            (false, _) => "",
            (true, 0) => "direct ",
            (true, 1) => "indirect ",
            _ => "double-indirect ",
        };
        let repair = format!("ino {ino}: cleared bad {which}pointer to block {block}");
        self.report.repairs.push(repair);
        Ok(Verdict::Clear)
    }

    fn rewrite(&mut self, blk: u64, bytes: &[u8]) -> FsResult<()> {
        self.dev.write_block(blk, bytes)?;
        Ok(())
    }
}

fn run(dev: &mut dyn BlockDevice, repair: bool) -> FsResult<FsckReport> {
    let mut report = FsckReport::default();
    let mut buf = vec![0u8; BLOCK_SIZE];

    // Superblock → layout. The tables below are sized from it, so
    // `Layout::decode` believes it only as far as the device goes.
    dev.read_block(0, &mut buf)?;
    let layout = Layout::decode(&buf, dev.num_blocks())?;

    // Load the bitmaps.
    let block_bm = read_blocks(dev, layout.block_bitmap_start, layout.block_bitmap_blocks)?;
    let inode_bm = read_blocks(dev, layout.inode_bitmap_start, layout.inode_bitmap_blocks)?;

    // Walk every allocated inode's pointer tree, recording references (and,
    // in repair mode, dropping bad ones in place).
    let mut owner = vec![NO_OWNER; layout.total_blocks as usize];
    let mut inodes: Vec<Option<Inode>> = vec![None; layout.inode_count as usize];
    // Each inode's data blocks, for the namespace walk.
    let mut file_blocks = vec![Vec::new(); layout.inode_count as usize];
    let tables = inodes.iter_mut().zip(&mut file_blocks);
    for (ino, (slot, data)) in (0..layout.inode_count).zip(tables) {
        let (blk, off) = layout.inode_location(ino);
        dev.read_block(blk, &mut buf)?;
        let mut inode = Inode::decode(get_bytes(&buf, off, INODE_SIZE)?)?;
        if !inode.allocated {
            continue;
        }
        let mut ino_dirty = false;
        if inode.blocks() > Inode::max_blocks() {
            report.errors.push(FsckError::SizeBeyondPointers { ino });
            if repair {
                inode.size = Inode::max_blocks() * BLOCK_SIZE as u64;
                ino_dirty = true;
                report
                    .repairs
                    .push(format!("ino {ino}: size clamped to pointer capacity"));
            }
        }
        let mut vet = Vet {
            dev: &mut *dev,
            layout: &layout,
            report: &mut report,
            owner: &mut owner,
            ino,
            repair,
            data: Vec::new(),
        };
        ino_dirty |= tree::walk(&mut inode, &mut vet)?;
        *data = vet.data;
        if ino_dirty {
            // `buf` still holds this inode's table block (pointer blocks
            // were vetted through their own buffers), so neighbours in the
            // same block are preserved.
            if let Some(at) = buf.get_mut(off..off + INODE_SIZE) {
                inode.encode_into(at);
            }
            dev.write_block(blk, &buf)?;
        }
        *slot = Some(inode);
    }

    // Walk the namespace: reachability, dangling entries, second names. In
    // repair mode a directory block whose entries were cleared is written
    // once, before the next block is read.
    let mut ns = Namespace::new(layout.inode_count);
    while let Some(dir) = ns.next_dir() {
        let (Some(&Some(inode)), Some(blocks)) =
            (inodes.get(dir as usize), file_blocks.get(dir as usize))
        else {
            continue;
        };
        for &(file_block, blk) in blocks {
            dev.read_block(blk, &mut buf)?;
            let mut dirty = false;
            for (slot, Dirent { ino, name }) in tree::live_slots(inode.size, file_block, &buf)? {
                let named = ns.judge(ino, |ino| Ok(inodes.get(ino as usize).copied().flatten()))?;
                let what = match named {
                    Named::Dir => {
                        report.dirs += 1;
                        continue;
                    }
                    Named::File => {
                        report.files += 1;
                        continue;
                    }
                    Named::Dangling => "dangling entry",
                    Named::DirAgain | Named::FileAgain => "second name",
                };
                if repair {
                    let at = tree::slot_place(slot).1;
                    if let Some(entry) = buf.get_mut(at..at + DIRENT_SIZE) {
                        Dirent::clear_slot(entry);
                    }
                    dirty = true;
                    report.repairs.push(format!(
                        "dir ino {dir}: removed {what} '{name}' → ino {ino}"
                    ));
                }
                report.errors.push(match named {
                    Named::DirAgain => FsckError::DirectoryNamedTwice { name, ino },
                    Named::FileAgain => FsckError::InodeNamedTwice { name, ino },
                    _ => FsckError::DanglingDirent { name, ino },
                });
            }
            if dirty {
                dev.write_block(blk, &buf)?;
            }
        }
    }

    let reachable = ns.reached;

    // Orphans: allocated inodes no directory entry names. Repair releases
    // them (inode slot zeroed, their blocks dropped from the reference set
    // so the bitmap rebuild frees them). An orphaned directory's children
    // are themselves unreachable and released by the same sweep.
    for (ino, (inode, &reached)) in inodes.iter_mut().zip(&reachable).enumerate() {
        if inode.is_some() && !reached {
            report
                .errors
                .push(FsckError::OrphanInode { ino: ino as u32 });
            if repair {
                let (blk, off) = layout.inode_location(ino as u32);
                dev.read_block(blk, &mut buf)?;
                if let Some(at) = buf.get_mut(off..off + INODE_SIZE) {
                    at.fill(0);
                }
                dev.write_block(blk, &buf)?;
                for o in owner.iter_mut().filter(|o| **o == ino as u32) {
                    *o = NO_OWNER;
                    report.blocks_referenced -= 1;
                }
                *inode = None;
                report
                    .repairs
                    .push(format!("ino {ino}: released orphan inode and its blocks"));
            }
        }
    }

    // Bitmap cross-check over the data area, then inode bitmap vs
    // allocation: what each bitmap should say, rebuilt from the walk, is
    // compared with what it does say a byte at a time.
    let block_want = bitmap_of(
        layout.block_bitmap_blocks,
        owner
            .iter()
            .skip(layout.data_start as usize)
            .map(|&o| o != NO_OWNER),
    );
    for i in differing_bits(&block_bm, &block_want, layout.data_blocks()) {
        let block = layout.data_start + i;
        report.errors.push(if bit(&block_want, i) {
            FsckError::ReferencedButFree { block }
        } else {
            FsckError::Leaked { block }
        });
    }
    let inode_want = bitmap_of(
        layout.inode_bitmap_blocks,
        inodes.iter().map(Option::is_some),
    );
    for i in differing_bits(&inode_bm, &inode_want, layout.inode_count as u64) {
        let ino = i as u32;
        report.errors.push(if bit(&inode_want, i) {
            FsckError::InodeMarkedFree { ino }
        } else {
            FsckError::InodeMarkedUsed { ino }
        });
    }
    // In repair mode both bitmaps are rewritten from the reference walk
    // whenever anything at all was wrong: pointer/orphan fixes above change
    // what the correct bitmaps are, so recomputing is the only move that
    // converges.
    if repair && !report.errors.is_empty() {
        write_bitmap(dev, layout.block_bitmap_start, &block_want)?;
        write_bitmap(dev, layout.inode_bitmap_start, &inode_want)?;
        report
            .repairs
            .push("bitmaps rebuilt from the reference walk".into());
    }
    Ok(report)
}

/// The bytes of `blocks` device blocks from `start` on, one read a block:
/// a bitmap, a pointer block, a directory block.
pub(crate) fn read_blocks(dev: &mut dyn BlockDevice, start: u64, blocks: u64) -> FsResult<Vec<u8>> {
    let mut bytes = vec![0u8; blocks as usize * BLOCK_SIZE];
    for (b, chunk) in bytes.chunks_mut(BLOCK_SIZE).enumerate() {
        dev.read_block(start + b as u64, chunk)?;
    }
    Ok(bytes)
}

/// The image of a `blocks`-block bitmap whose leading bits are `bits`.
fn bitmap_of(blocks: u64, bits: impl Iterator<Item = bool>) -> Vec<u8> {
    let mut bytes = vec![0u8; blocks as usize * BLOCK_SIZE];
    for (i, b) in bits.enumerate() {
        if let Some(byte) = bytes.get_mut(i / 8) {
            *byte |= (b as u8) << (i % 8);
        }
    }
    bytes
}

fn bit(bitmap: &[u8], i: u64) -> bool {
    let byte = bitmap.get((i / 8) as usize);
    byte.is_some_and(|b| b >> (i % 8) & 1 == 1)
}

/// Indices below `bits` at which two bitmaps differ, ascending; bytes that
/// agree are skipped whole.
fn differing_bits<'a>(a: &'a [u8], b: &'a [u8], bits: u64) -> impl Iterator<Item = u64> + 'a {
    a.iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| x != y)
        .flat_map(|(i, (x, y))| {
            (0..8)
                .filter(move |k| (x ^ y) >> k & 1 == 1)
                .map(move |k| i as u64 * 8 + k)
        })
        .take_while(move |&i| i < bits)
}

fn write_bitmap(dev: &mut dyn BlockDevice, start: u64, bytes: &[u8]) -> FsResult<()> {
    for (blk, chunk) in bytes.chunks(BLOCK_SIZE).enumerate() {
        dev.write_block(start + blk as u64, chunk)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::{NO_BLOCK, PTRS_PER_BLOCK};
    use crate::tree::ROOT_INO;
    use crate::{Ufs, UfsConfig};
    use disksim::codec::{get_u32, put_u32};
    use disksim::{DiskSpec, RegularDisk, SimClock};
    use fscore::{FileSystem, FsError, HostModel};
    use std::collections::HashMap;

    fn populated() -> Ufs {
        let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
        let mut fs =
            Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
        for i in 0..20 {
            let f = fs.create(&format!("f{i}")).unwrap();
            fs.write(f, 0, &vec![i as u8; 10_000 * (i as usize + 1)])
                .unwrap();
        }
        fs.delete("f3").unwrap();
        fs.sync().unwrap();
        fs
    }

    // ---- The `HashMap<u64, u32>` + `Vec<bool>` walk the dense one replaced,
    // kept verbatim as its oracle: every check and repair in this module
    // runs both on forks of one image and compares the reports.

    /// Record a block reference; `true` if it was accepted (in range and the
    /// first reference), `false` if it was reported as bad.
    fn reference_hashmap(
        layout: &Layout,
        report: &mut FsckReport,
        owner: &mut HashMap<u64, u32>,
        ino: u32,
        block: u64,
    ) -> bool {
        if block < layout.data_start || block >= layout.total_blocks {
            report
                .errors
                .push(FsckError::PointerOutOfRange { ino, block });
            return false;
        }
        if let Some(&first) = owner.get(&block) {
            report.errors.push(FsckError::DoubleReference {
                block,
                first_ino: first,
                second_ino: ino,
            });
            return false;
        }
        owner.insert(block, ino);
        report.blocks_referenced += 1;
        true
    }

    /// Read a pointer block and vet its entries, returning the surviving
    /// children. In repair mode bad entries are cleared on the media.
    #[allow(clippy::too_many_arguments)]
    fn vet_ptr_block_hashmap(
        dev: &mut dyn BlockDevice,
        layout: &Layout,
        report: &mut FsckReport,
        owner: &mut HashMap<u64, u32>,
        ino: u32,
        ptr_blk: u64,
        repair: bool,
    ) -> FsResult<Vec<u64>> {
        let mut pbuf = vec![0u8; BLOCK_SIZE];
        dev.read_block(ptr_blk, &mut pbuf)?;
        let mut kids = Vec::new();
        let mut dirty = false;
        for o in (0..PTRS_PER_BLOCK as usize).map(|i| i * 4) {
            let b = get_u32(&pbuf, o)? as u64;
            if b == NO_BLOCK as u64 {
                continue;
            }
            if reference_hashmap(layout, report, owner, ino, b) {
                kids.push(b);
            } else if repair {
                put_u32(&mut pbuf, o, NO_BLOCK);
                dirty = true;
                report
                    .repairs
                    .push(format!("ino {ino}: cleared bad pointer to block {b}"));
            }
        }
        if dirty {
            dev.write_block(ptr_blk, &pbuf)?;
        }
        Ok(kids)
    }

    fn run_hashmap(dev: &mut dyn BlockDevice, repair: bool) -> FsResult<FsckReport> {
        let mut report = FsckReport::default();
        let mut buf = vec![0u8; BLOCK_SIZE];

        // Superblock → layout.
        dev.read_block(0, &mut buf)?;
        let layout = Layout::decode(&buf, dev.num_blocks())?;

        // Load the bitmaps.
        let block_bm = read_bitmap_hashmap(
            dev,
            layout.block_bitmap_start,
            layout.block_bitmap_blocks,
            layout.data_blocks(),
        )?;
        let inode_bm = read_bitmap_hashmap(
            dev,
            layout.inode_bitmap_start,
            layout.inode_bitmap_blocks,
            layout.inode_count as u64,
        )?;

        // Walk every allocated inode's pointers, recording references (and, in
        // repair mode, dropping bad ones in place).
        let mut owner: HashMap<u64, u32> = HashMap::new();
        let mut reachable_inodes = vec![false; layout.inode_count as usize];
        reachable_inodes[0] = true;

        let mut inodes: Vec<Option<Inode>> = vec![None; layout.inode_count as usize];
        // Data blocks of each inode in file order (needed to walk directories).
        let mut file_blocks: HashMap<u32, Vec<u64>> = HashMap::new();
        for ino in 0..layout.inode_count {
            let (blk, off) = layout.inode_location(ino);
            dev.read_block(blk, &mut buf)?;
            let mut inode = Inode::decode(&buf[off..off + INODE_SIZE])?;
            if !inode.allocated {
                continue;
            }
            let mut ino_dirty = false;
            if inode.blocks() > Inode::max_blocks() {
                report.errors.push(FsckError::SizeBeyondPointers { ino });
                if repair {
                    inode.size = Inode::max_blocks() * BLOCK_SIZE as u64;
                    ino_dirty = true;
                    report
                        .repairs
                        .push(format!("ino {ino}: size clamped to pointer capacity"));
                }
            }
            let mut data: Vec<u64> = Vec::new();
            for d in inode.direct.iter_mut() {
                if *d == NO_BLOCK {
                    continue;
                }
                if reference_hashmap(&layout, &mut report, &mut owner, ino, *d as u64) {
                    data.push(*d as u64);
                } else if repair {
                    report.repairs.push(format!(
                        "ino {ino}: cleared bad direct pointer to block {d}"
                    ));
                    *d = NO_BLOCK;
                    ino_dirty = true;
                }
            }
            if inode.indirect != NO_BLOCK {
                if reference_hashmap(&layout, &mut report, &mut owner, ino, inode.indirect as u64) {
                    data.extend(vet_ptr_block_hashmap(
                        dev,
                        &layout,
                        &mut report,
                        &mut owner,
                        ino,
                        inode.indirect as u64,
                        repair,
                    )?);
                } else if repair {
                    report.repairs.push(format!(
                        "ino {ino}: cleared bad indirect pointer to block {}",
                        inode.indirect
                    ));
                    inode.indirect = NO_BLOCK;
                    ino_dirty = true;
                }
            }
            if inode.dindirect != NO_BLOCK {
                if reference_hashmap(
                    &layout,
                    &mut report,
                    &mut owner,
                    ino,
                    inode.dindirect as u64,
                ) {
                    let l1s = vet_ptr_block_hashmap(
                        dev,
                        &layout,
                        &mut report,
                        &mut owner,
                        ino,
                        inode.dindirect as u64,
                        repair,
                    )?;
                    for l1 in l1s {
                        data.extend(vet_ptr_block_hashmap(
                            dev,
                            &layout,
                            &mut report,
                            &mut owner,
                            ino,
                            l1,
                            repair,
                        )?);
                    }
                } else if repair {
                    report.repairs.push(format!(
                        "ino {ino}: cleared bad double-indirect pointer to block {}",
                        inode.dindirect
                    ));
                    inode.dindirect = NO_BLOCK;
                    ino_dirty = true;
                }
            }
            if ino_dirty {
                // `buf` still holds this inode's table block (pointer blocks
                // were vetted through their own buffers), so neighbours in the
                // same block are preserved.
                inode.encode_into(&mut buf[off..off + INODE_SIZE]);
                dev.write_block(blk, &buf)?;
            }
            file_blocks.insert(ino, data);
            inodes[ino as usize] = Some(inode);
        }

        // Walk the directory tree: reachability + dangling entries. (Indirect
        // directory blocks are handled through the per-inode block lists.)
        let per_block = (BLOCK_SIZE / DIRENT_SIZE) as u64;
        let mut queue: Vec<u32> = vec![ROOT_INO];
        let mut visited_dirs = vec![false; layout.inode_count as usize];
        visited_dirs[ROOT_INO as usize] = true;
        while let Some(dir_ino) = queue.pop() {
            let Some(dir) = inodes[dir_ino as usize] else {
                continue;
            };
            let entries = dir.size / DIRENT_SIZE as u64;
            let blocks = file_blocks.get(&dir_ino).cloned().unwrap_or_default();
            for (blk_idx, dev_blk) in blocks.iter().enumerate() {
                dev.read_block(*dev_blk, &mut buf)?;
                let mut dirty = false;
                for s in 0..per_block {
                    let idx = blk_idx as u64 * per_block + s;
                    if idx >= entries {
                        break;
                    }
                    let o = s as usize * DIRENT_SIZE;
                    if let Some(e) = Dirent::decode(&buf[o..o + DIRENT_SIZE])? {
                        match inodes.get(e.ino as usize).and_then(|i| *i) {
                            Some(child) => {
                                reachable_inodes[e.ino as usize] = true;
                                if child.is_dir {
                                    if !visited_dirs[e.ino as usize] {
                                        visited_dirs[e.ino as usize] = true;
                                        queue.push(e.ino);
                                    }
                                } else {
                                    report.files += 1;
                                }
                            }
                            None => {
                                report.errors.push(FsckError::DanglingDirent {
                                    name: e.name.clone(),
                                    ino: e.ino,
                                });
                                if repair {
                                    Dirent::clear_slot(&mut buf[o..o + DIRENT_SIZE]);
                                    dirty = true;
                                    report.repairs.push(format!(
                                        "dir ino {dir_ino}: removed dangling entry '{}' → ino {}",
                                        e.name, e.ino
                                    ));
                                }
                            }
                        }
                    }
                }
                if dirty {
                    dev.write_block(*dev_blk, &buf)?;
                }
            }
        }

        // Orphans: allocated inodes no directory entry names. Repair releases
        // them (inode slot zeroed, their blocks dropped from the reference set
        // so the bitmap rebuild frees them). An orphaned directory's children
        // are themselves unreachable and released by the same sweep.
        for ino in 0..layout.inode_count as usize {
            if inodes[ino].is_some() && !reachable_inodes[ino] {
                report
                    .errors
                    .push(FsckError::OrphanInode { ino: ino as u32 });
                if repair {
                    let (blk, off) = layout.inode_location(ino as u32);
                    dev.read_block(blk, &mut buf)?;
                    buf[off..off + INODE_SIZE].fill(0);
                    dev.write_block(blk, &buf)?;
                    let before = owner.len();
                    owner.retain(|_, o| *o != ino as u32);
                    report.blocks_referenced -= (before - owner.len()) as u64;
                    inodes[ino] = None;
                    report
                        .repairs
                        .push(format!("ino {ino}: released orphan inode and its blocks"));
                }
            }
        }

        // Bitmap cross-check over the data area.
        for block in layout.data_start..layout.total_blocks {
            let bit = block_bm[(block - layout.data_start) as usize];
            let referenced = owner.contains_key(&block);
            match (bit, referenced) {
                (false, true) => report.errors.push(FsckError::ReferencedButFree { block }),
                (true, false) => report.errors.push(FsckError::Leaked { block }),
                _ => {}
            }
        }
        // Inode bitmap vs allocation.
        for ino in 0..layout.inode_count {
            let bit = inode_bm[ino as usize];
            let alloc = inodes[ino as usize].is_some();
            if bit != alloc {
                report.errors.push(if alloc {
                    FsckError::InodeMarkedFree { ino }
                } else {
                    FsckError::InodeMarkedUsed { ino }
                });
            }
        }
        // In repair mode both bitmaps are rewritten from the reference walk
        // whenever anything at all was wrong: pointer/orphan fixes above change
        // what the correct bitmaps are, so recomputing is the only move that
        // converges.
        if repair && !report.errors.is_empty() {
            let block_bits: Vec<bool> = (0..layout.data_blocks())
                .map(|i| owner.contains_key(&(layout.data_start + i)))
                .collect();
            write_bitmap_hashmap(
                dev,
                layout.block_bitmap_start,
                layout.block_bitmap_blocks,
                &block_bits,
            )?;
            let inode_bits: Vec<bool> = (0..layout.inode_count as usize)
                .map(|i| inodes[i].is_some())
                .collect();
            write_bitmap_hashmap(
                dev,
                layout.inode_bitmap_start,
                layout.inode_bitmap_blocks,
                &inode_bits,
            )?;
            report
                .repairs
                .push("bitmaps rebuilt from the reference walk".into());
        }
        Ok(report)
    }

    fn read_bitmap_hashmap(
        dev: &mut dyn BlockDevice,
        start: u64,
        blocks: u64,
        bits: u64,
    ) -> FsResult<Vec<bool>> {
        let mut bytes = Vec::new();
        let mut buf = vec![0u8; BLOCK_SIZE];
        for b in 0..blocks {
            dev.read_block(start + b, &mut buf)?;
            bytes.extend_from_slice(&buf);
        }
        Ok((0..bits)
            .map(|i| bytes[(i / 8) as usize] >> (i % 8) & 1 == 1)
            .collect())
    }

    fn write_bitmap_hashmap(
        dev: &mut dyn BlockDevice,
        start: u64,
        blocks: u64,
        bits: &[bool],
    ) -> FsResult<()> {
        let mut bytes = vec![0u8; blocks as usize * BLOCK_SIZE];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        for blk in 0..blocks {
            let chunk = &bytes[blk as usize * BLOCK_SIZE..(blk as usize + 1) * BLOCK_SIZE];
            dev.write_block(start + blk, chunk)?;
        }
        Ok(())
    }

    /// Both walks over forks of one image: same counts, same errors in the
    /// same order, same repairs, and the same media afterwards.
    fn both_walks(dev: &mut dyn BlockDevice, repair: bool) -> FsResult<FsckReport> {
        let mut fork = dev.snapshot().expect("test devices fork").restore();
        let got = run(dev, repair)?;
        let want = run_hashmap(fork.as_mut(), repair)?;
        assert_eq!(
            (got.files, got.blocks_referenced, &got.errors, &got.repairs),
            (
                want.files,
                want.blocks_referenced,
                &want.errors,
                &want.repairs
            ),
            "dense and HashMap walks disagree"
        );
        let (mut a, mut b) = (vec![0u8; BLOCK_SIZE], vec![0u8; BLOCK_SIZE]);
        for block in 0..dev.num_blocks() {
            dev.read_block(block, &mut a)?;
            fork.read_block(block, &mut b)?;
            assert!(a == b, "block {block} differs after the two walks");
        }
        Ok(got)
    }

    /// Shadow the public entry points so that every test below checks the
    /// dense walk against its oracle.
    fn fsck(dev: &mut dyn BlockDevice) -> FsResult<FsckReport> {
        both_walks(dev, false)
    }

    fn fsck_repair(dev: &mut dyn BlockDevice) -> FsResult<FsckReport> {
        both_walks(dev, true)
    }

    /// A superblock is input: one that claims more blocks than the device
    /// has is refused before anything is sized from it.
    #[test]
    fn oversized_superblock_is_refused() {
        let mut fs = populated();
        let dev = fs.device_mut();
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut buf).unwrap();
        let lying = Layout {
            total_blocks: 1 << 40,
            ..Layout::decode(&buf, dev.num_blocks()).unwrap()
        };
        dev.write_block(0, &lying.encode()).unwrap();
        assert!(matches!(super::fsck(dev), Err(FsError::Invalid(_))));
    }

    /// Repair the volume and insist the second pass finds nothing.
    fn repair_converges(dev: &mut dyn BlockDevice) -> FsckReport {
        let repaired = fsck_repair(dev).unwrap();
        assert!(
            !repaired.repairs.is_empty(),
            "repair took no action for: {:?}",
            repaired.errors
        );
        let second = fsck(dev).unwrap();
        assert!(
            second.is_clean(),
            "second pass after repair still dirty: {:?}",
            second.errors
        );
        repaired
    }

    #[test]
    fn clean_volume_passes() {
        let mut fs = populated();
        let report = fsck(fs.device_mut()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert_eq!(report.files, 19);
        assert!(report.blocks_referenced > 19);
    }

    #[test]
    fn large_files_with_indirect_blocks_pass() {
        let dev = RegularDisk::new(DiskSpec::st19101_sim(), SimClock::new(), BLOCK_SIZE);
        let mut fs =
            Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
        let f = fs.create("big").unwrap();
        fs.write(f, 0, &vec![7u8; 6 << 20]).unwrap(); // double-indirect range
        fs.sync().unwrap();
        let report = fsck(fs.device_mut()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
    }

    #[test]
    fn corrupted_pointer_detected_and_repaired() {
        let mut fs = populated();
        // Corrupt a direct pointer in inode 1's slot to point outside the
        // data area.
        let layout = *fs.layout();
        let (blk, off) = layout.inode_location(1);
        let dev = fs.device_mut();
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(blk, &mut buf).unwrap();
        let mut inode = Inode::decode(&buf[off..off + INODE_SIZE]).unwrap();
        inode.direct[0] = 1; // superblock area: out of range
        inode.encode_into(&mut buf[off..off + INODE_SIZE]);
        dev.write_block(blk, &buf).unwrap();
        let report = fsck(dev).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::PointerOutOfRange { ino: 1, .. })));
        repair_converges(dev);
    }

    #[test]
    fn bitmap_mismatch_detected_and_repaired() {
        let mut fs = populated();
        let layout = *fs.layout();
        let dev = fs.device_mut();
        // Flip one bit in the block bitmap: a used block becomes "free".
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(layout.block_bitmap_start, &mut buf).unwrap();
        // Find a set bit and clear it.
        let pos = buf
            .iter()
            .position(|&b| b != 0)
            .expect("some blocks are allocated");
        let bit = buf[pos].trailing_zeros();
        buf[pos] &= !(1 << bit);
        dev.write_block(layout.block_bitmap_start, &buf).unwrap();
        let report = fsck(dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::ReferencedButFree { .. })),
            "errors: {:?}",
            report.errors
        );
        repair_converges(dev);
    }

    #[test]
    fn leaked_block_detected_and_repaired() {
        let mut fs = populated();
        let layout = *fs.layout();
        let dev = fs.device_mut();
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(layout.block_bitmap_start, &mut buf).unwrap();
        // Set the bitmap bit of the volume's very last data block, which
        // nothing references at this fill level.
        let last = layout.data_blocks() - 1;
        buf[(last / 8) as usize] |= 1 << (last % 8);
        dev.write_block(
            layout.block_bitmap_start + last / 8 / BLOCK_SIZE as u64,
            &buf,
        )
        .unwrap();
        let report = fsck(dev).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::Leaked { .. })));
        repair_converges(dev);
    }

    #[test]
    fn orphan_inode_detected_and_repaired() {
        let mut fs = populated();
        let layout = *fs.layout();
        let dev = fs.device_mut();
        // Erase 'f5' from the root directory, leaving its inode allocated
        // but unreachable. The root's entries live in inode 0's first data
        // block at this fill level.
        let mut buf = vec![0u8; BLOCK_SIZE];
        let (blk, off) = layout.inode_location(ROOT_INO);
        dev.read_block(blk, &mut buf).unwrap();
        let root = Inode::decode(&buf[off..off + INODE_SIZE]).unwrap();
        let dir_blk = root.direct[0] as u64;
        dev.read_block(dir_blk, &mut buf).unwrap();
        let slot = (0..BLOCK_SIZE / DIRENT_SIZE)
            .find(|s| {
                Dirent::decode(&buf[s * DIRENT_SIZE..(s + 1) * DIRENT_SIZE])
                    .unwrap()
                    .is_some_and(|e| e.name == "f5")
            })
            .expect("'f5' present in the root block");
        Dirent::clear_slot(&mut buf[slot * DIRENT_SIZE..(slot + 1) * DIRENT_SIZE]);
        dev.write_block(dir_blk, &buf).unwrap();

        let report = fsck(dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::OrphanInode { .. })),
            "errors: {:?}",
            report.errors
        );
        let repaired = repair_converges(dev);
        // The orphan's blocks were released along with the inode: the
        // second pass has nothing leaked, and the file count drops by one.
        assert!(repaired
            .repairs
            .iter()
            .any(|r| r.contains("released orphan")));
        assert_eq!(fsck(dev).unwrap().files, 18);
    }

    #[test]
    fn dangling_dirent_detected_and_repaired() {
        let mut fs = populated();
        let layout = *fs.layout();
        let dev = fs.device_mut();
        // Zero 'f7''s inode slot directly: its directory entry now points
        // at an unallocated inode, and its blocks leak.
        let report = fsck(dev).unwrap();
        assert!(report.is_clean());
        // Find f7's ino through the root directory.
        let mut buf = vec![0u8; BLOCK_SIZE];
        let (blk, off) = layout.inode_location(ROOT_INO);
        dev.read_block(blk, &mut buf).unwrap();
        let root = Inode::decode(&buf[off..off + INODE_SIZE]).unwrap();
        let dir_blk = root.direct[0] as u64;
        dev.read_block(dir_blk, &mut buf).unwrap();
        let ino = (0..BLOCK_SIZE / DIRENT_SIZE)
            .find_map(|s| {
                Dirent::decode(&buf[s * DIRENT_SIZE..(s + 1) * DIRENT_SIZE])
                    .unwrap()
                    .filter(|e| e.name == "f7")
                    .map(|e| e.ino)
            })
            .expect("'f7' present in the root block");
        let (blk, off) = layout.inode_location(ino);
        dev.read_block(blk, &mut buf).unwrap();
        buf[off..off + INODE_SIZE].fill(0);
        dev.write_block(blk, &buf).unwrap();

        let report = fsck(dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::DanglingDirent { .. })),
            "errors: {:?}",
            report.errors
        );
        let repaired = repair_converges(dev);
        assert!(repaired
            .repairs
            .iter()
            .any(|r| r.contains("removed dangling entry 'f7'")));
    }

    #[test]
    fn inode_bitmap_mismatch_detected_and_repaired() {
        let mut fs = populated();
        let layout = *fs.layout();
        let dev = fs.device_mut();
        // Clear an allocated inode's bitmap bit (ino 1 is in use), and set
        // the bit of the table's last slot (free at this fill level).
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read_block(layout.inode_bitmap_start, &mut buf).unwrap();
        buf[0] &= !(1 << 1);
        let last = layout.inode_count as usize - 1;
        buf[last / 8] |= 1 << (last % 8);
        dev.write_block(layout.inode_bitmap_start, &buf).unwrap();
        let report = fsck(dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::InodeMarkedFree { ino: 1 })),
            "errors: {:?}",
            report.errors
        );
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::InodeMarkedUsed { .. })));
        repair_converges(dev);
    }

    #[test]
    fn double_reference_detected_and_repaired() {
        let mut fs = populated();
        let layout = *fs.layout();
        let dev = fs.device_mut();
        // Point inode 2's first direct slot at inode 1's first block.
        let mut buf = vec![0u8; BLOCK_SIZE];
        let (blk1, off1) = layout.inode_location(1);
        dev.read_block(blk1, &mut buf).unwrap();
        let victim = Inode::decode(&buf[off1..off1 + INODE_SIZE]).unwrap().direct[0];
        let (blk2, off2) = layout.inode_location(2);
        dev.read_block(blk2, &mut buf).unwrap();
        let mut thief = Inode::decode(&buf[off2..off2 + INODE_SIZE]).unwrap();
        let stolen_from = thief.direct[0];
        assert_ne!(stolen_from, victim);
        thief.direct[0] = victim;
        thief.encode_into(&mut buf[off2..off2 + INODE_SIZE]);
        dev.write_block(blk2, &buf).unwrap();
        let report = fsck(dev).unwrap();
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, FsckError::DoubleReference { .. })),
            "errors: {:?}",
            report.errors
        );
        // Repair drops the duplicate reference (the thief's block also
        // leaks, mopped up by the bitmap rebuild) and converges.
        repair_converges(dev);
    }

    #[test]
    fn fsck_works_through_the_vld_too() {
        // The VLD is transparent: the same checker runs over the remapped
        // volume unchanged.
        let dev = vlog_core::Vld::format(
            DiskSpec::st19101_sim(),
            SimClock::new(),
            vlog_core::VldConfig::default(),
        );
        let mut fs =
            Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
        for i in 0..10 {
            let f = fs.create(&format!("v{i}")).unwrap();
            fs.write(f, 0, &vec![1u8; 50_000]).unwrap();
        }
        fs.sync().unwrap();
        let report = fsck(fs.device_mut()).unwrap();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert_eq!(report.files, 10);
    }
}
