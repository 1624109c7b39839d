//! The UFS record decoders — superblock, inode, directory entry — and the
//! two paths that parse a whole volume, `Ufs::mount` and `fsck`, read
//! whatever a crash, a torn write or a damaged image left on the media.
//! Whatever they are handed, each returns a value or an error and never
//! panics; a damaged volume is `fsck_repair`'s to mend, not mount's to
//! trust.

use disksim::codec::{get_u32, put_u32, put_u64};
use disksim::{BlockDevice, DeviceSnapshot, DiskError, DiskSpec, RegularDisk, SimClock};
use fscore::{FileSystem, FsError, HostModel};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ufs::dir::{Dirent, DIRENT_SIZE};
use ufs::inode::Inode;
use ufs::layout::{INODE_SIZE, SUPER_MAGIC};
use ufs::{fsck, fsck_repair, FsckError, Layout, Ufs, UfsConfig, BLOCK_SIZE};

mod common;
use common::{count_names, inode, layout, read};

/// Blocks of the HP97560 slice the volumes below are formatted on.
const HP_BLOCKS: u64 = 6156;
/// What the codec says of a field that does not fit.
const SHORT: &str = "record field beyond the end of its buffer";

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Feed one byte string to all three decoders; none may panic.
fn decode_all(bytes: &[u8]) -> (bool, bool, bool) {
    (
        Layout::decode(bytes, HP_BLOCKS).is_ok(),
        Inode::decode(bytes).is_ok(),
        Dirent::decode(bytes).is_ok_and(|e| e.is_some()),
    )
}

#[test]
fn random_bytes_of_every_length_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for len in 0..=4200 {
        let bytes = random_bytes(&mut rng, len);
        let (layout, inode, _) = decode_all(&bytes);
        assert!(!layout, "len {len}: random bytes made a superblock");
        // Every byte pattern of the right size is some inode.
        assert_eq!(inode, len == INODE_SIZE, "len {len}");
    }
}

#[test]
fn truncated_valid_images_never_panic() {
    let layout = Layout::compute(HP_BLOCKS, 2048).unwrap();
    let sb = layout.encode();
    for len in 0..sb.len() {
        let got = Layout::decode(&sb[..len], HP_BLOCKS);
        // The fields end at byte 16; what follows is zeros. Past the magic,
        // a field cut short is the codec's `Corrupt`.
        if (4..16).contains(&len) {
            assert_eq!(got, Err(FsError::Disk(DiskError::Corrupt(SHORT))));
        }
        assert_eq!(got.ok(), (len >= 16).then_some(layout), "len {len}");
        decode_all(&sb[..len]);
    }

    let mut inode = Inode::empty_dir();
    inode.size = 123_456;
    inode.direct = [7; 12];
    inode.indirect = 99;
    let mut slot = [0u8; INODE_SIZE + 1];
    inode.encode_into(&mut slot[..INODE_SIZE]);
    for len in 0..=slot.len() {
        let got = Inode::decode(&slot[..len]);
        if len != INODE_SIZE {
            assert!(is_corrupt(&got), "len {len}: {got:?}");
        }
        assert_eq!(got.ok(), (len == INODE_SIZE).then_some(inode), "len {len}");
    }

    let entry = Dirent {
        ino: 2047,
        name: "a-name-of-twenty-seven-byte".into(),
    };
    let mut slot = [0u8; DIRENT_SIZE + 1];
    entry.encode_into(&mut slot[..DIRENT_SIZE]);
    for len in 0..=slot.len() {
        let got = Dirent::decode(&slot[..len]);
        if len != DIRENT_SIZE {
            assert!(is_corrupt(&got), "len {len}: {got:?}");
        }
        let want = (len == DIRENT_SIZE).then(|| entry.clone());
        assert_eq!(got.ok().flatten(), want, "len {len}");
    }
}

/// A slot decoder's answer to a buffer that is not one slot long.
fn is_corrupt<T>(got: &Result<T, FsError>) -> bool {
    matches!(got, Err(FsError::Disk(DiskError::Corrupt(_))))
}

/// A formatted, populated HP97560 volume with a subdirectory, synced: its
/// device, captured so every round starts from the same media.
fn hp_volume() -> Box<dyn DeviceSnapshot> {
    let dev = RegularDisk::new(DiskSpec::hp97560_sim(), SimClock::new(), BLOCK_SIZE);
    let mut fs = Ufs::format(Box::new(dev), HostModel::instant(), UfsConfig::default()).unwrap();
    fs.mkdir("d").unwrap();
    for i in 0..12 {
        let name = if i % 3 == 0 {
            format!("d/f{i}")
        } else {
            format!("f{i}")
        };
        let f = fs.create(&name).unwrap();
        // Every fourth file reaches its indirect block.
        let len = if i % 4 == 0 { 60_000 } else { 5_000 };
        fs.write(f, 0, &vec![i as u8; len]).unwrap();
    }
    fs.sync().unwrap();
    fs.into_device()
        .snapshot()
        .expect("a regular disk snapshots")
}

/// The superblock, the root inode's table block and the root directory's
/// first block of the volume on `dev`.
fn targets(dev: &mut dyn BlockDevice) -> [u64; 3] {
    let (blk, _) = layout(dev).inode_location(0);
    [0, blk, inode(dev, 0).direct[0] as u64]
}

/// Check, repair and mount a damaged volume: each may succeed or fail,
/// none may panic. A repaired volume must mount, and mount must index
/// exactly the files and directories the clean pass reached.
fn check_repair_mount(snap: &dyn DeviceSnapshot, what: &str) {
    let _ = fsck(snap.restore().as_mut());
    let mut dev = snap.restore();
    if fsck_repair(dev.as_mut()).is_ok() {
        let second = fsck(dev.as_mut()).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(second.is_clean(), "{what}: repair left {:?}", second.errors);
        match Ufs::mount(dev, HostModel::instant()) {
            Ok(fs) => assert_eq!(
                count_names(&fs),
                (second.files, second.dirs),
                "{what}: mount and fsck reach different inodes"
            ),
            Err(e) => panic!("{what}: a repaired volume does not mount: {e}"),
        }
    }
    let _ = Ufs::mount(snap.restore(), HostModel::instant());
}

/// Seeded rounds that overwrite the superblock, the root inode's block or
/// the root directory's block, in whole with random bytes or in part with
/// a few random bytes or words.
#[test]
fn damaged_volumes_never_panic_mount_or_fsck() {
    let clean = hp_volume();
    let blocks = targets(clean.restore().as_mut());
    let mut rng = StdRng::seed_from_u64(0xBAD_D15C);
    for round in 0..150 {
        let which = round % 3;
        let mut dev = clean.restore();
        let mut buf = read(dev.as_mut(), blocks[which]);
        match rng.gen_range(0..3u32) {
            0 => rng.fill_bytes(&mut buf),
            1 => {
                for _ in 0..rng.gen_range(1..16u32) {
                    let at = rng.gen_range(0..buf.len());
                    buf[at] = rng.gen();
                }
            }
            _ => {
                // A small word where a field lives: the superblock's counts,
                // an inode's pointers, a directory entry's inode number.
                let at = match which {
                    0 => [4, 12][rng.gen_range(0..2usize)],
                    1 => 16 + 4 * rng.gen_range(0..14usize),
                    _ => DIRENT_SIZE * rng.gen_range(0..16usize),
                };
                put_u32(&mut buf, at, rng.gen_range(0..2 * HP_BLOCKS as u32));
            }
        }
        dev.write_block(blocks[which], &buf).unwrap();
        let snap = dev.snapshot().expect("a regular disk snapshots");
        check_repair_mount(snap.as_ref(), &format!("round {round}, block {which}"));
    }
}

/// Write `ino` into the root directory's first entry.
fn rename_root_entry_to(dev: &mut dyn BlockDevice, ino: u32) {
    let dir_blk = targets(dev)[2];
    let mut buf = read(dev, dir_blk);
    assert!(Dirent::decode(&buf[..DIRENT_SIZE]).unwrap().is_some());
    put_u32(&mut buf, 0, ino);
    dev.write_block(dir_blk, &buf).unwrap();
}

/// An entry naming inode 2112 of a 2048-inode table: mount refuses it
/// (it used to index the inode bitmap out of bounds), `fsck` reports it
/// dangling and `fsck_repair` clears it, after which the volume mounts.
#[test]
fn a_dirent_naming_an_inode_beyond_the_table_is_refused_by_mount() {
    let mut dev = hp_volume().restore();
    rename_root_entry_to(dev.as_mut(), 2112);
    let snap = dev.snapshot().unwrap();
    assert!(matches!(
        Ufs::mount(snap.restore(), HostModel::instant()),
        Err(FsError::Invalid(_))
    ));
    let report = fsck(dev.as_mut()).unwrap();
    assert!(
        report
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::DanglingDirent { ino: 2112, .. })),
        "{:?}",
        report.errors
    );
    fsck_repair(dev.as_mut()).unwrap();
    assert!(fsck(dev.as_mut()).unwrap().is_clean());
    Ufs::mount(dev, HostModel::instant()).expect("the repaired volume mounts");
}

/// Rewrite the inode the root directory names `name` with `damage`.
fn damage_inode(dev: &mut dyn BlockDevice, name: &str, damage: impl FnOnce(&mut Inode)) {
    let dir_blk = targets(dev)[2];
    let entry = read(dev, dir_blk)
        .chunks(DIRENT_SIZE)
        .find_map(|slot| Dirent::decode(slot).unwrap().filter(|e| e.name == name))
        .unwrap_or_else(|| panic!("{name} is in the root directory"));
    let (blk, off) = layout(dev).inode_location(entry.ino);
    let mut buf = read(dev, blk);
    let mut node = Inode::decode(&buf[off..off + INODE_SIZE]).unwrap();
    damage(&mut node);
    node.encode_into(&mut buf[off..off + INODE_SIZE]);
    dev.write_block(blk, &buf).unwrap();
}

/// File pointers outside the data area: `f1`'s first direct pointer names
/// a block of the inode table, and `f4`'s indirect pointer lies past the
/// end of the device. Mount refuses each (it used to skip them, after
/// which a `delete` freed a bit below the data bitmap); `fsck_repair`
/// clears them, after which the volume mounts and both files delete.
#[test]
fn a_pointer_outside_the_data_area_is_refused_by_mount() {
    let clean = hp_volume();
    let l = layout(clean.restore().as_mut());
    let below = (l.inode_table_start + 1) as u32;
    let past = (l.total_blocks + 7) as u32;
    assert!(u64::from(below) < l.data_start);
    let damage = |name: &str, node: &mut Inode| match name {
        "f1" => node.direct[0] = below,
        _ => node.indirect = past,
    };
    let mut both = clean.restore();
    for name in ["f1", "f4"] {
        let mut dev = clean.restore();
        damage_inode(dev.as_mut(), name, |node| damage(name, node));
        assert!(
            matches!(
                Ufs::mount(dev, HostModel::instant()),
                Err(FsError::Invalid("block pointer outside the data area"))
            ),
            "{name}"
        );
        damage_inode(both.as_mut(), name, |node| damage(name, node));
    }
    let report = fsck(both.as_mut()).unwrap();
    let out_of_range = |e: &FsckError| matches!(e, FsckError::PointerOutOfRange { .. });
    assert_eq!(report.errors.iter().filter(|e| out_of_range(e)).count(), 2);
    fsck_repair(both.as_mut()).unwrap();
    assert!(fsck(both.as_mut()).unwrap().is_clean());
    let mut fs = Ufs::mount(both, HostModel::instant()).expect("the repaired volume mounts");
    for name in ["f1", "f4"] {
        fs.delete(name)
            .unwrap_or_else(|e| panic!("delete {name}: {e}"));
    }
    fs.sync().unwrap();
}

/// A directory entry naming the root directory is a cycle: mount refuses
/// it rather than walking the tree forever, and `fsck` reports the root's
/// second name.
#[test]
fn a_directory_cycle_is_refused_by_mount() {
    let mut dev = hp_volume().restore();
    let dir_blk = targets(dev.as_mut())[2];
    let buf = read(dev.as_mut(), dir_blk);
    // The first entry is the subdirectory `d`; point it at the root.
    assert_eq!(
        Dirent::decode(&buf[..DIRENT_SIZE]).unwrap().unwrap().name,
        "d"
    );
    assert_ne!(get_u32(&buf, 0).unwrap(), 0);
    rename_root_entry_to(dev.as_mut(), 0);
    let twice = FsckError::DirectoryNamedTwice {
        name: "d".into(),
        ino: 0,
    };
    assert!(fsck(dev.as_mut()).unwrap().errors.contains(&twice));
    assert!(matches!(
        Ufs::mount(dev, HostModel::instant()),
        Err(FsError::Invalid(_))
    ));
}

/// A superblock whose counts cannot describe the device: zero inodes
/// leaves the root no slot (both paths used to index an empty table), and
/// more blocks than the device has would size the tables past it. Mount
/// and `fsck` refuse both through the same check.
#[test]
fn a_superblock_the_device_cannot_hold_is_refused_by_mount_and_fsck() {
    let clean = hp_volume();
    for (at, lie) in [(12, 0u64), (4, HP_BLOCKS + 1)] {
        let mut dev = clean.restore();
        let mut sb = read(dev.as_mut(), 0);
        assert_eq!(get_u32(&sb, 0).unwrap(), SUPER_MAGIC);
        if at == 12 {
            put_u32(&mut sb, at, lie as u32);
        } else {
            put_u64(&mut sb, at, lie);
        }
        dev.write_block(0, &sb).unwrap();
        let snap = dev.snapshot().unwrap();
        assert!(
            matches!(fsck(dev.as_mut()), Err(FsError::Invalid(_))),
            "field {at} = {lie}"
        );
        assert!(
            matches!(
                Ufs::mount(snap.restore(), HostModel::instant()),
                Err(FsError::Invalid(_))
            ),
            "field {at} = {lie}"
        );
    }
}
