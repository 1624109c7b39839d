//! Shim transparency: a stack built with a timing shim at every device
//! boundary and the `obs` registries attached must behave, on the
//! simulated clock, exactly like the stack the library constructors build —
//! same final clock, same `DiskStats`, same bytes read back. (A shim that
//! let `read_blocks` / `write_blocks` fall to the trait default would issue
//! one command per block and fail here.)

use disksim::{BlockDevice, DiskSpec, RegularDisk, SimClock};
use fscore::{FileSystem, HostModel};
use lfs::{lfs_filesystem, LfsConfig};
use ufs::{Ufs, UfsConfig};
use vlbench::driver::Rng;
use vlbench::stack::{self, DevKind, FsKind, StackKind, BLOCK};
use vlbench::trace::{Layer, Off, On};
use vlog_core::{Vld, VldConfig};

/// The stack as the library's own constructors assemble it.
fn reference(kind: StackKind, host: HostModel) -> Ufs {
    let spec = DiskSpec::st19101_sim();
    let raw: Box<dyn BlockDevice> = match kind.dev {
        DevKind::Regular => Box::new(RegularDisk::new(spec, SimClock::new(), BLOCK)),
        DevKind::Vld => Box::new(Vld::format(spec, SimClock::new(), VldConfig::default())),
    };
    match kind.fs {
        FsKind::Ufs => Ufs::format(raw, host, UfsConfig::default()),
        FsKind::Lfs => lfs_filesystem(raw, host, LfsConfig::default()),
    }
    .expect("format")
}

/// About 2 000 `FileSystem` calls touching every device method: single and
/// multi-block writes and reads (read-ahead on), synchronous and delayed
/// data, deletes (trims on LFS), syncs (flushes) and idle grants
/// (compaction, cleaning). Returns an FNV-1a hash of everything read.
fn drive(fs: &mut Ufs) -> u64 {
    let mut rng = Rng::new(7, 0);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut out = vec![0u8; 96 * BLOCK];
    let big = fs.create("big").expect("create");
    for c in 0..24u64 {
        let data: Vec<u8> = (0..64 * BLOCK).map(|i| (i as u64 * 31 + c) as u8).collect();
        fs.write(big, c * data.len() as u64, &data).expect("write");
    }
    fs.sync().expect("sync");
    fs.set_sync_writes(true);
    for i in 0..600u64 {
        let b = rng.below(24 * 64);
        fs.write(big, b * BLOCK as u64, &vec![i as u8; BLOCK])
            .expect("overwrite");
        if i % 64 == 63 {
            fs.idle(200_000_000);
        }
    }
    fs.set_sync_writes(false);
    for i in 0..300u64 {
        let name = format!("f{i:03}");
        let f = fs.create(&name).expect("create");
        let len = 1 + rng.below(3 * BLOCK as u64) as usize;
        fs.write(f, 0, &vec![(i * 7) as u8; len]).expect("write");
        if i % 3 == 0 {
            fs.delete(&name).expect("delete");
        }
        if i % 50 == 49 {
            fs.sync().expect("sync");
            fs.idle(500_000_000);
        }
    }
    fs.sync().expect("sync");
    fs.drop_caches();
    for c in 0..16u64 {
        let n = fs.read(big, c * out.len() as u64, &mut out).expect("read");
        eat(&out[..n]);
    }
    for i in (0..300u64).filter(|i| i % 3 != 0) {
        let f = fs.open(&format!("f{i:03}")).expect("open");
        let n = fs.read(f, 0, &mut out[..3 * BLOCK]).expect("read");
        eat(&out[..n]);
    }
    for _ in 0..200 {
        let b = rng.below(24 * 64);
        fs.read(big, b * BLOCK as u64, &mut out[..BLOCK])
            .expect("read");
        eat(&out[..BLOCK]);
    }
    fs.delete("big").expect("delete");
    fs.sync().expect("sync");
    hash
}

/// `(content hash, final simulated clock, DiskStats)` after the drive.
fn fingerprint(mut fs: Ufs) -> (u64, u64, String) {
    let hash = drive(&mut fs);
    (
        hash,
        fs.clock().now(),
        format!("{:?}", fs.device().disk_stats()),
    )
}

#[test]
fn shimmed_stacks_match_the_library_built_ones_bit_for_bit() {
    let host = HostModel::sparcstation_10();
    for kind in StackKind::ALL {
        let want = fingerprint(reference(kind, host));
        let probe = On::new();
        let shimmed = stack::build(kind, DiskSpec::st19101_sim(), host, &probe).expect("format");
        assert_eq!(
            fingerprint(shimmed),
            want,
            "{}: shims and registries changed the simulation",
            kind.label()
        );
        let plain = stack::build(kind, DiskSpec::st19101_sim(), host, &Off).expect("format");
        assert_eq!(
            fingerprint(plain),
            want,
            "{}: hand-assembled stack differs",
            kind.label()
        );

        // The shims did see the traffic, at the layers the stack has.
        let s = probe.tracer.summary();
        let calls = |l: Layer| s.layers[l as usize].calls;
        assert_eq!(
            calls(Layer::Lld) > 0,
            kind.fs == FsKind::Lfs,
            "{}",
            kind.label()
        );
        assert_eq!(
            calls(Layer::Vld) > 0,
            kind.dev == DevKind::Vld,
            "{}",
            kind.label()
        );
        assert_eq!(
            calls(Layer::Regular) > 0,
            kind.dev == DevKind::Regular,
            "{}",
            kind.label()
        );
        assert!(
            probe.metrics.counter_value("disk.writes") > 0,
            "registries attached"
        );
        assert!(!probe.spans.is_empty() && probe.spans.dropped() == 0);
    }
}

/// The shim answers downcasts and probes as its inner device, so crash,
/// remount and audit code needs no tracing case — and a shimmed stack
/// survives the same crash a plain one does.
#[test]
fn shims_are_invisible_to_downcasts_and_survive_a_crash() {
    let host = HostModel::sparcstation_10();
    for kind in StackKind::ALL {
        let spec = DiskSpec::st19101_sim();
        let mut fs = stack::build(kind, spec.clone(), host, &On::new()).expect("format");
        assert_eq!(
            disksim::probe_device::<Vld>(fs.device()).is_some(),
            kind.dev == DevKind::Vld,
            "{}: probe_device sees through the shim",
            kind.label()
        );
        assert_eq!(
            disksim::probe_device::<lfs::LogDisk>(fs.device()).is_some(),
            kind.fs == FsKind::Lfs
        );
        let f = fs.create("keep").expect("create");
        fs.write(f, 0, &vec![0xAB; 3 * BLOCK]).expect("write");
        fs.sync().expect("sync");
        assert!(stack::audit(&mut fs).is_empty());
        assert!(
            fs.snapshot().is_some(),
            "{}: snapshot forwards through the shim",
            kind.label()
        );
        let disk = stack::crash(kind, fs);
        let (mut fs, report) =
            stack::remount(kind, disk, spec.command_overhead_ns, host).expect("remount");
        assert_eq!(report.is_some(), kind.dev == DevKind::Vld);
        let f = fs.open("keep").expect("open");
        let mut out = vec![0u8; 3 * BLOCK];
        assert_eq!(fs.read(f, 0, &mut out).expect("read"), 3 * BLOCK);
        assert!(
            out.iter().all(|&b| b == 0xAB),
            "{}: synced data survived",
            kind.label()
        );
        assert!(
            stack::audit(&mut fs).is_empty(),
            "{}: clean after recovery",
            kind.label()
        );
    }
}
