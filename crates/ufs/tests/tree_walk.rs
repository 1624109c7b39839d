//! The on-disk tree as mount and `fsck` read it: one walk of pointer trees
//! and directories, one numbering of directory slots, one set of namespace
//! rules.
//!
//! The walk may change how the two paths are written, not what they ask of
//! the device: mount and a report-mode `fsck` of a populated volume, and
//! `fsck_repair` of a damaged one, end at the simulated clock and the disk
//! counters recorded before the walk was shared (commit `ce18bb0`).

use disksim::codec::put_u32;
use disksim::{BlockDevice, DeviceSnapshot, DiskSpec, RegularDisk, SimClock};
use fscore::{FileSystem, FsError, HostModel};
use ufs::dir::{Dirent, DIRENT_SIZE};
use ufs::inode::Inode;
use ufs::layout::INODE_SIZE;
use ufs::{fsck, fsck_repair, FsckError, Ufs, UfsConfig, BLOCK_SIZE};

mod common;
use common::{count_names, inode, layout, read};

/// The root directory's inode.
const ROOT: u32 = 0;
/// Directory slots per block.
const PER_BLOCK: u64 = (BLOCK_SIZE / DIRENT_SIZE) as u64;

/// First file block reached through the double-indirect pointer.
const DOUBLE_START: usize = 12 + 1024;

/// A synced HP97560 volume with nested directories, small files at every
/// level and one file reaching 20 blocks into its double-indirect range.
fn nested_volume() -> Box<dyn DeviceSnapshot> {
    let dev = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BLOCK_SIZE);
    let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
    for dir in ["a", "a/b", "c"] {
        fs.mkdir(dir).unwrap();
    }
    for (i, name) in ["top", "a/one", "a/b/two", "a/b/three", "c/four"]
        .into_iter()
        .enumerate()
    {
        let f = fs.create(name).unwrap();
        fs.write(f, 0, &vec![i as u8 + 1; 3000 + 7000 * i]).unwrap();
    }
    let big = fs.create("a/b/big").unwrap();
    fs.write(big, 0, &vec![0xB1; (DOUBLE_START + 20) * BLOCK_SIZE])
        .unwrap();
    fs.sync().unwrap();
    fs.into_device()
        .snapshot()
        .expect("a regular disk snapshots")
}

/// `(clock ns, reads, writes, sectors read, sectors written, busy ns)`.
type Pinned = (u64, u64, u64, u64, u64, u64);

fn pinned(dev: &dyn BlockDevice) -> Pinned {
    let s = dev.disk_stats();
    (
        dev.clock().now(),
        s.reads,
        s.writes,
        s.sectors_read,
        s.sectors_written,
        s.busy.total_ns(),
    )
}

#[test]
fn mount_and_fsck_issue_the_device_commands_they_did() {
    let snap = nested_volume();
    let at_rest = pinned(snap.restore().as_ref());

    let mut dev = snap.restore();
    let report = fsck(dev.as_mut()).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!((report.files, report.blocks_referenced), (6, 1086));
    let after_fsck = pinned(dev.as_ref());

    let fs = Ufs::mount(snap.restore(), HostModel::instant()).unwrap();
    let after_mount = pinned(fs.device());

    // Format and the workload leave 5 reads and 44 writes. fsck then reads
    // the superblock, both bitmaps, the inode-table block once per inode
    // (2 048), the three pointer blocks and the four directories; mount
    // reads the superblock, both bitmaps, one inode-table block, the four
    // directories and then the three pointer blocks.
    assert_eq!(
        (at_rest, after_fsck, after_mount),
        (
            (2913543078, 5, 44, 40, 8944, 2913543078),
            (11239379739, 2063, 44, 16504, 8944, 11239379739),
            (3036407789, 16, 44, 128, 8944, 3036407789),
        ),
        "mount or fsck asks the device for something else"
    );
}

fn put_inode(dev: &mut dyn BlockDevice, ino: u32, inode: &Inode) {
    let (blk, off) = layout(dev).inode_location(ino);
    let mut buf = read(dev, blk);
    inode.encode_into(&mut buf[off..off + INODE_SIZE]);
    dev.write_block(blk, &buf).unwrap();
}

/// Store `e` in `slot` of directory `dir`, whose block holding it exists.
fn put_entry(dev: &mut dyn BlockDevice, dir: u32, slot: u64, e: &Dirent) {
    let (file_block, at) = (slot / PER_BLOCK, (slot % PER_BLOCK) as usize * DIRENT_SIZE);
    let blk = inode(dev, dir).direct[file_block as usize] as u64;
    let mut buf = read(dev, blk);
    e.encode_into(&mut buf[at..at + DIRENT_SIZE]);
    dev.write_block(blk, &buf).unwrap();
}

/// The inode `path` names, looked up on the media from the root.
fn ino_of(dev: &mut dyn BlockDevice, path: &str) -> u32 {
    path.split('/').fold(ROOT, |dir, name| {
        let blk = inode(dev, dir).direct[0] as u64;
        let buf = read(dev, blk);
        let mut entries = buf
            .chunks(DIRENT_SIZE)
            .filter_map(|s| Dirent::decode(s).unwrap());
        entries.find(|e| e.name == name).unwrap().ino
    })
}

/// A synced HP97560 volume with a two-block directory of 200 empty files
/// and a 20-block file laid out between the directory's blocks, so the
/// order of the directory's reads and writes shows in the clock. It is
/// damaged only in ways `fsck` repaired before the walk was shared: an
/// entry in each directory block names an unallocated inode (two dangling
/// entries, two orphans), and one of the file's direct pointers and one
/// entry of its indirect block leave the data area.
fn damaged_volume() -> Box<dyn BlockDevice> {
    let dev = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BLOCK_SIZE);
    let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
    fs.mkdir("d").unwrap();
    for i in 0..200 {
        if i == PER_BLOCK {
            let f = fs.create("big").unwrap();
            fs.write(f, 0, &vec![0xB1; 20 * BLOCK_SIZE]).unwrap();
        }
        fs.create(&format!("d/f{i:03}")).unwrap();
    }
    fs.sync().unwrap();
    let mut dev = fs.into_device();

    let d = ino_of(dev.as_mut(), "d");
    for (slot, ino) in [(5, 2000), (140, 2001)] {
        let name = format!("gone{slot}");
        put_entry(dev.as_mut(), d, slot, &Dirent { ino, name });
    }
    let big = ino_of(dev.as_mut(), "big");
    let mut file = inode(dev.as_mut(), big);
    let mut ptrs = read(dev.as_mut(), file.indirect as u64);
    put_u32(&mut ptrs, 2 * 4, u32::MAX);
    dev.write_block(file.indirect as u64, &ptrs).unwrap();
    file.direct[3] = 1; // the superblock
    put_inode(dev.as_mut(), big, &file);
    dev
}

/// `fsck_repair` reads and writes what it did before the walk was shared,
/// in the same order: each pointer block is rewritten before the blocks
/// under it are read, and each directory block is written once, before
/// the next is read.
#[test]
fn fsck_repair_issues_the_device_commands_it_did() {
    let mut dev = damaged_volume();
    let at_rest = pinned(dev.as_ref());
    let report = fsck_repair(dev.as_mut()).unwrap();
    let after_repair = pinned(dev.as_ref());
    // Two bad pointers, two dangling entries, two orphans, the two blocks
    // the bad pointers replaced and the orphans' inode bits; the repairs
    // end with the bitmaps rebuilt.
    assert_eq!((report.errors.len(), report.repairs.len()), (10, 7));
    // Repair reads what report mode does plus the orphans' two inode-table
    // blocks (2 057 reads), and writes the file's pointer block and inode,
    // both directory blocks, those two inode-table blocks and both bitmaps.
    assert_eq!(
        (at_rest, after_repair),
        (
            (7599533174, 27, 620, 216, 5104, 7599533174),
            (16000332365, 2084, 628, 16672, 5168, 16000332365),
        ),
        "fsck_repair asks the device for something else"
    );
    assert!(fsck(dev.as_mut()).unwrap().is_clean());
}

/// Append an entry naming `ino` to directory `dir`: what a rename's first
/// directory write leaves when the power fails before its second.
fn add_entry(dev: &mut dyn BlockDevice, dir: u32, name: &str, ino: u32) {
    let mut d = inode(dev, dir);
    let slot = d.size / DIRENT_SIZE as u64;
    let name = name.to_string();
    put_entry(dev, dir, slot, &Dirent { ino, name });
    d.size += DIRENT_SIZE as u64;
    put_inode(dev, dir, &d);
}

/// Repair the volume, insist the second pass is clean, and mount it: the
/// mounted namespace holds what the clean pass reached.
fn repair_and_mount(mut dev: Box<dyn BlockDevice>) -> Ufs {
    let repaired = fsck_repair(dev.as_mut()).unwrap();
    assert!(!repaired.repairs.is_empty(), "{:?}", repaired.errors);
    let clean = fsck(dev.as_mut()).unwrap();
    assert!(clean.is_clean(), "{:?}", clean.errors);
    let fs = Ufs::mount(dev, HostModel::instant()).unwrap();
    assert_eq!(count_names(&fs), (clean.files, clean.dirs));
    fs
}

/// A torn rename of `c/four` to `alias`: the walk reaches `alias` in the
/// root first, so `c/four` is the second name. `fsck` reports it,
/// `fsck_repair` clears it, and mount clears it too, on the media, before
/// it returns.
#[test]
fn a_file_named_twice_keeps_the_walks_first_name() {
    let mut dev = nested_volume().restore();
    let ino = ino_of(dev.as_mut(), "c/four");
    add_entry(dev.as_mut(), ROOT, "alias", ino);
    let snap = dev.snapshot().unwrap();

    let report = fsck(dev.as_mut()).unwrap();
    let twice = FsckError::InodeNamedTwice {
        name: "four".into(),
        ino,
    };
    assert_eq!(report.errors, [twice]);
    assert_eq!((report.files, report.dirs), (6, 3));

    let mut fs = Ufs::mount(snap.restore(), HostModel::instant()).unwrap();
    let after_mount = fsck(fs.device_mut()).unwrap();
    assert!(after_mount.is_clean(), "{:?}", after_mount.errors);
    assert!(matches!(fs.open("c/four"), Err(FsError::NotFound)));
    assert!(fs.list("c").unwrap().is_empty());
    let f = fs.open("alias").unwrap();
    assert_eq!(fs.file_size(f).unwrap(), 3000 + 7000 * 4);
    assert_eq!(count_names(&fs), (6, 3));

    let mut fs = repair_and_mount(snap.restore());
    assert!(fs.open("alias").is_ok() && fs.open("c/four").is_err());
}

/// A second name for a directory — a sibling's entry, or an entry naming
/// the root — is reported (the walk used to skip it silently), refused by
/// mount, and cleared by `fsck_repair`.
#[test]
fn a_directory_named_twice_is_reported_and_refused() {
    for (dir, name, target) in [("c", "again", "a"), ("a/b", "up", "")] {
        let mut dev = nested_volume().restore();
        let ino = if target.is_empty() {
            ROOT
        } else {
            ino_of(dev.as_mut(), target)
        };
        let dir_ino = ino_of(dev.as_mut(), dir);
        add_entry(dev.as_mut(), dir_ino, name, ino);
        let snap = dev.snapshot().unwrap();

        let report = fsck(dev.as_mut()).unwrap();
        let twice = FsckError::DirectoryNamedTwice {
            name: name.into(),
            ino,
        };
        assert_eq!(report.errors, [twice], "{dir}/{name}");
        assert!(matches!(
            Ufs::mount(snap.restore(), HostModel::instant()),
            Err(FsError::Invalid(_))
        ));
        let fs = repair_and_mount(snap.restore());
        assert!(fs.list(&format!("{dir}/{name}")).is_err());
    }
}

/// Slots are numbered by file block, holes included. Here a directory's
/// first block is lost (its pointer cleared by `fsck_repair`), and its
/// second block holds a stale entry past the directory's size, naming a
/// file whose only name was in the lost block. Counting only the blocks
/// that are left would renumber the second block's slots from 0, read the
/// stale entry as live and keep that file; mount never did.
#[test]
fn directory_slots_keep_their_numbers_across_a_hole() {
    let dev = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BLOCK_SIZE);
    let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
    fs.create("keep").unwrap();
    fs.mkdir("d").unwrap();
    for i in 0..200 {
        fs.create(&format!("d/f{i:03}")).unwrap();
    }
    fs.sync().unwrap();
    let mut dev = fs.into_device();

    let d = ino_of(dev.as_mut(), "d");
    let lost = ino_of(dev.as_mut(), "d/f000");
    let mut dir = inode(dev.as_mut(), d);
    assert_eq!(dir.size, 200 * DIRENT_SIZE as u64);
    let stale = Dirent {
        ino: lost,
        name: "stale".into(),
    };
    put_entry(dev.as_mut(), d, 250, &stale);
    dir.direct[0] = 1; // the superblock: out of the data area
    put_inode(dev.as_mut(), d, &dir);

    let fs = repair_and_mount(dev);
    assert_eq!(fs.list("d").unwrap().len(), 72);
    assert_eq!(count_names(&fs), (73, 1));
}
