//! The on-disk tree, read in one place: the shape of an inode's pointer
//! tree, the live slots of a directory, and what a directory entry may
//! name. Mount, `delete` and `fsck` walk the tree only through here; they
//! differ in how a block is fetched (the buffer cache, or the raw device)
//! and in what they do with what the walk finds. Looking up or allocating
//! one file block is `Ufs::resolve_block`'s.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::ops::Deref;

use crate::dir::{Dirent, DIRENT_SIZE};
use crate::inode::{Inode, NDIRECT, NO_BLOCK, PTRS_PER_BLOCK};
use crate::layout::BLOCK_SIZE;
use disksim::codec::{get_bytes, get_u32s, put_u32};
use fscore::FsResult;

/// The root directory's inode.
pub(crate) const ROOT_INO: u32 = 0;
const DIRENTS_PER_BLOCK: u64 = (BLOCK_SIZE / DIRENT_SIZE) as u64;

/// One block of an inode's pointer tree, and where its pointer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    /// The device block the pointer names.
    pub(crate) block: u64,
    /// 0 for a data block, 1 for a block of data pointers, 2 for the
    /// double-indirect block.
    pub(crate) level: u8,
    /// The file block a data block holds, or the first under a pointer block.
    pub(crate) file_block: u64,
    /// The pointer is the inode's own (`direct[file_block]`, `indirect` or
    /// `dindirect`, by level), not an entry of the pointer block above.
    pub(crate) in_inode: bool,
}

/// What a [`TreeVisitor`] makes of one pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Accept it, and walk the pointer block it names.
    Follow,
    /// Leave it, and walk nothing under it.
    Skip,
    /// Clear it to [`NO_BLOCK`].
    Clear,
}

/// How a [`walk`] fetches pointer blocks, and what it does with each pointer.
pub(crate) trait TreeVisitor {
    /// A pointer block's bytes: a cached handle or a fresh buffer.
    type Block: Deref<Target = [u8]>;
    fn read(&mut self, blk: u64) -> FsResult<Self::Block>;
    /// Judge one pointer, before anything under it is read.
    fn visit(&mut self, node: Node) -> FsResult<Verdict>;
    /// Store pointer block `blk`, some of whose entries were cleared. Only
    /// a visitor that clears needs it.
    fn rewrite(&mut self, _blk: u64, _bytes: &[u8]) -> FsResult<()> {
        Ok(())
    }
    /// A followed pointer block's subtree has been walked.
    fn leave(&mut self, _node: Node) {}
}

/// Walk `inode`'s pointer tree: the direct pointers, then the indirect
/// block and its entries, then the double-indirect block, its entries and
/// each followed entry's. Holes are not visited, and every entry of a
/// pointer block is judged (and the block rewritten if any was cleared)
/// before any block under it is read. Returns whether one of the inode's
/// own pointers was cleared.
pub(crate) fn walk<V: TreeVisitor>(inode: &mut Inode, v: &mut V) -> FsResult<bool> {
    let direct = inode.direct.iter_mut().zip(0..).map(|(ptr, i)| (ptr, 0, i));
    let tops = [
        (&mut inode.indirect, 1, NDIRECT as u64),
        (&mut inode.dindirect, 2, NDIRECT as u64 + PTRS_PER_BLOCK),
    ];
    let mut cleared = false;
    for (ptr, level, file_block) in direct.chain(tops) {
        if *ptr == NO_BLOCK {
            continue;
        }
        let node = Node {
            block: u64::from(*ptr),
            level,
            file_block,
            in_inode: true,
        };
        match v.visit(node)? {
            Verdict::Follow if level > 0 => descend(v, node)?,
            Verdict::Follow | Verdict::Skip => {}
            Verdict::Clear => {
                *ptr = NO_BLOCK;
                cleared = true;
            }
        }
    }
    Ok(cleared)
}

/// Judge every entry of the pointer block `node`, rewrite it if any was
/// cleared, walk each followed child that is itself a pointer block, and
/// leave.
fn descend<V: TreeVisitor>(v: &mut V, node: Node) -> FsResult<()> {
    let block = v.read(node.block)?;
    let span = if node.level == 2 { PTRS_PER_BLOCK } else { 1 };
    let mut cleared: Option<Vec<u8>> = None;
    let mut below = Vec::new();
    for (i, ptr) in get_u32s(&block, 0, PTRS_PER_BLOCK as usize)?.enumerate() {
        if ptr == NO_BLOCK {
            continue;
        }
        let child = Node {
            block: u64::from(ptr),
            level: node.level - 1,
            file_block: node.file_block + i as u64 * span,
            in_inode: false,
        };
        match v.visit(child)? {
            Verdict::Follow if child.level > 0 => below.push(child),
            Verdict::Follow | Verdict::Skip => {}
            Verdict::Clear => {
                let copy = cleared.get_or_insert_with(|| block.to_vec());
                put_u32(copy, i * 4, NO_BLOCK);
            }
        }
    }
    if let Some(bytes) = cleared {
        v.rewrite(node.block, &bytes)?;
    }
    for child in below {
        descend(v, child)?;
    }
    v.leave(node);
    Ok(())
}

/// Directory slot `slot`: its file block, and its byte offset there.
pub(crate) fn slot_place(slot: u64) -> (u64, usize) {
    let offset = (slot % DIRENTS_PER_BLOCK) as usize * DIRENT_SIZE;
    (slot / DIRENTS_PER_BLOCK, offset)
}

/// The live entries of `buf`, file block `file_block` of a directory of
/// `size` bytes, as `(slot, entry)`. A slot's number counts file blocks,
/// holes included ([`slot_place`]), and a slot at or past `size` is not
/// live, whatever it holds.
pub(crate) fn live_slots(size: u64, file_block: u64, buf: &[u8]) -> FsResult<Vec<(u64, Dirent)>> {
    let first = file_block * DIRENTS_PER_BLOCK;
    let end = (size / DIRENT_SIZE as u64).min(first + DIRENTS_PER_BLOCK);
    let mut live = Vec::new();
    for slot in first..end {
        let at = slot_place(slot).1;
        if let Some(e) = Dirent::decode(get_bytes(buf, at, DIRENT_SIZE)?)? {
            live.push((slot, e));
        }
    }
    Ok(live)
}

/// What the namespace rules make of one directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Named {
    /// The first name of a directory; the walk goes into it.
    Dir,
    /// The first name of any other inode.
    File,
    /// It names an unallocated inode, or one past the end of the table.
    Dangling,
    /// It names a directory an earlier entry (or the root itself) named.
    DirAgain,
    /// It names another inode an earlier entry named: what a power cut
    /// between a rename's two directory writes leaves.
    FileAgain,
}

/// A walk of the namespace from the root, depth first, and the rules for
/// what each entry names. Directories come off a stack, the last reached
/// first; the caller reads each one's [`live_slots`] in slot order and
/// judges every entry before the next. The first entry reaching an inode
/// is its name, and a later one is [`Named::DirAgain`] or
/// [`Named::FileAgain`], so mount and `fsck` agree on which name is the
/// extra one. How a directory is read, and what becomes of an entry, is
/// the caller's.
pub(crate) struct Namespace {
    /// Which inodes the walk has reached, the root from the start.
    pub(crate) reached: Vec<bool>,
    /// Directories reached and not yet read.
    unread: Vec<u32>,
}

impl Namespace {
    /// A walk of an `inode_count`-inode table, about to read the root.
    pub(crate) fn new(inode_count: u32) -> Self {
        let mut reached = vec![false; inode_count as usize];
        if let Some(root) = reached.get_mut(ROOT_INO as usize) {
            *root = true;
        }
        let unread = vec![ROOT_INO];
        Namespace { reached, unread }
    }

    /// The next directory to read.
    pub(crate) fn next_dir(&mut self) -> Option<u32> {
        self.unread.pop()
    }

    /// What an entry naming `ino` is. `inode` reads an inode inside the
    /// table, `None` if it is not allocated; an `ino` past the table is
    /// [`Named::Dangling`] without it.
    pub(crate) fn judge(
        &mut self,
        ino: u32,
        inode: impl FnOnce(u32) -> FsResult<Option<Inode>>,
    ) -> FsResult<Named> {
        let Some(reached) = self.reached.get_mut(ino as usize) else {
            return Ok(Named::Dangling);
        };
        let Some(child) = inode(ino)? else {
            return Ok(Named::Dangling);
        };
        Ok(match (child.is_dir, std::mem::replace(reached, true)) {
            (true, true) => Named::DirAgain,
            (false, true) => Named::FileAgain,
            (true, false) => {
                self.unread.push(ino);
                Named::Dir
            }
            (false, false) => Named::File,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every call and follows everything.
    #[derive(Default)]
    struct Trace {
        blocks: std::collections::HashMap<u64, Vec<u8>>,
        reads: Vec<u64>,
        visits: Vec<Node>,
        leaves: Vec<u64>,
    }

    impl TreeVisitor for Trace {
        type Block = Vec<u8>;
        fn read(&mut self, blk: u64) -> FsResult<Vec<u8>> {
            self.reads.push(blk);
            Ok(self.blocks[&blk].clone())
        }
        fn visit(&mut self, node: Node) -> FsResult<Verdict> {
            self.visits.push(node);
            Ok(Verdict::Follow)
        }
        fn leave(&mut self, node: Node) {
            self.leaves.push(node.block);
        }
    }

    fn ptr_block(entries: &[(usize, u32)]) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        for &(i, p) in entries {
            put_u32(&mut b, i * 4, p);
        }
        b
    }

    /// File blocks, sites and order across every level, holes skipped.
    #[test]
    fn walk_numbers_file_blocks_and_judges_a_block_before_its_children() {
        let mut inode = Inode::empty();
        inode.direct[0] = 100;
        inode.direct[11] = 111;
        inode.indirect = 200;
        inode.dindirect = 300;
        let mut t = Trace::default();
        t.blocks.insert(200, ptr_block(&[(0, 201), (1023, 202)]));
        t.blocks.insert(300, ptr_block(&[(1, 310), (2, 320)]));
        t.blocks.insert(310, ptr_block(&[(5, 311)]));
        t.blocks.insert(320, ptr_block(&[]));
        assert!(!walk(&mut inode, &mut t).unwrap());
        assert_eq!(t.reads, [200, 300, 310, 320]);
        assert_eq!(t.leaves, [200, 310, 320, 300]);
        let seen: Vec<(u64, u8, u64, bool)> = t
            .visits
            .iter()
            .map(|n| (n.block, n.level, n.file_block, n.in_inode))
            .collect();
        let d = NDIRECT as u64 + PTRS_PER_BLOCK;
        assert_eq!(
            seen,
            [
                (100, 0, 0, true),
                (111, 0, 11, true),
                (200, 1, 12, true),
                (201, 0, 12, false),
                (202, 0, 12 + 1023, false),
                (300, 2, d, true),
                (310, 1, d + PTRS_PER_BLOCK, false),
                (320, 1, d + 2 * PTRS_PER_BLOCK, false),
                (311, 0, d + PTRS_PER_BLOCK + 5, false),
            ]
        );
    }

    /// An inode's first name keeps it and a later one is the extra name; an
    /// entry naming an unallocated inode, or one past the table, dangles.
    /// Directories are read last reached, first.
    #[test]
    fn judge_keeps_an_inodes_first_name() {
        let (dir, file) = (Some(Inode::empty_dir()), Some(Inode::empty()));
        let table = [dir, dir, file, None];
        let mut ns = Namespace::new(4);
        let named = [1, 2, 3, 4, 2, 1, 0].map(|ino| ns.judge(ino, |i| Ok(table[i as usize])));
        use Named::*;
        let want = [Dir, File, Dangling, Dangling, FileAgain, DirAgain, DirAgain];
        assert_eq!(named.map(Result::unwrap), want);
        assert_eq!(ns.reached, [true, true, true, false]);
        let order = [ns.next_dir(), ns.next_dir(), ns.next_dir()];
        assert_eq!(order, [Some(1), Some(0), None]);
    }

    /// Slots are numbered by file block, so a hole before a block does not
    /// renumber it, and a slot at or past the size is not live.
    #[test]
    fn live_slots_count_holes_and_stop_at_the_size() {
        let mut buf = vec![0u8; BLOCK_SIZE];
        for (i, name) in [(0usize, "a"), (5, "b"), (127, "c")] {
            let e = Dirent {
                ino: 7,
                name: name.into(),
            };
            e.encode_into(&mut buf[i * DIRENT_SIZE..(i + 1) * DIRENT_SIZE]);
        }
        let names = |size: u64| -> Vec<(u64, String)> {
            let live = live_slots(size, 2, &buf).unwrap();
            live.into_iter().map(|(s, e)| (s, e.name)).collect()
        };
        let base = 2 * DIRENTS_PER_BLOCK;
        assert_eq!(
            names((base + 6) * 32),
            [(base, "a".into()), (base + 5, "b".into())]
        );
        assert_eq!(names((base + 5) * 32), [(base, "a".into())]);
        assert_eq!(names(base * 32), []);
        assert_eq!(names(u64::MAX).len(), 3);
        assert_eq!(slot_place(base + 5), (2, 5 * DIRENT_SIZE));
        assert!(live_slots(u64::MAX, 0, &buf[..100]).is_err());
    }
}
