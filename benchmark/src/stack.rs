//! The paper's four system combinations (its Figure 5), assembled from the
//! library crates' public constructors — with a [`Probe`] deciding whether
//! a timing shim sits at each device boundary:
//!
//! * UFS / Regular — `Ufs → [shim] RegularDisk`
//! * UFS / VLD     — `Ufs → [shim] Vld`
//! * LFS / Regular — `Ufs → [shim] LogDisk → [shim] RegularDisk`
//! * LFS / VLD     — `Ufs → [shim] LogDisk → [shim] Vld`
//!
//! The LFS stacks are put together by hand (`LogDisk::format` +
//! `Ufs::format`) with exactly the settings `lfs::lfs_filesystem` uses, so
//! a shim can sit between the LLD and the raw device; the transparency
//! tests compare the result with `lfs_filesystem` itself.

use disksim::{downcast_device, probe_device, BlockDevice, Disk, DiskSpec, RegularDisk, SimClock};
use fscore::{FsError, FsResult, HostModel};
use lfs::{LfsConfig, LldConfig, LogDisk};
use ufs::{FsckError, Ufs, UfsConfig};
use vlog_core::{RecoveryReport, Vld, VldConfig};

use crate::trace::{Layer, Probe};

/// 4 KB — the block size every stack runs at.
pub const BLOCK: usize = 4096;

/// File system on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// Update-in-place file layer straight on the device.
    Ufs,
    /// File layer over the log-structured logical disk.
    Lfs,
}

/// Block device exporting the drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevKind {
    /// Update-in-place disk.
    Regular,
    /// Virtual-log disk.
    Vld,
}

/// One of the four combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackKind {
    /// File system on top.
    pub fs: FsKind,
    /// Device underneath.
    pub dev: DevKind,
}

impl StackKind {
    /// UFS on the regular disk.
    pub const UFS_REGULAR: StackKind = StackKind {
        fs: FsKind::Ufs,
        dev: DevKind::Regular,
    };
    /// UFS on the VLD.
    pub const UFS_VLD: StackKind = StackKind {
        fs: FsKind::Ufs,
        dev: DevKind::Vld,
    };
    /// LFS on the regular disk.
    pub const LFS_REGULAR: StackKind = StackKind {
        fs: FsKind::Lfs,
        dev: DevKind::Regular,
    };
    /// LFS on the VLD.
    pub const LFS_VLD: StackKind = StackKind {
        fs: FsKind::Lfs,
        dev: DevKind::Vld,
    };
    /// All four, in the paper's order.
    pub const ALL: [StackKind; 4] = [
        Self::UFS_REGULAR,
        Self::UFS_VLD,
        Self::LFS_REGULAR,
        Self::LFS_VLD,
    ];

    /// "UFS/VLD"-style label.
    pub fn label(self) -> &'static str {
        match (self.fs, self.dev) {
            (FsKind::Ufs, DevKind::Regular) => "UFS/Regular",
            (FsKind::Ufs, DevKind::Vld) => "UFS/VLD",
            (FsKind::Lfs, DevKind::Regular) => "LFS/Regular",
            (FsKind::Lfs, DevKind::Vld) => "LFS/VLD",
        }
    }
}

/// The LLD settings of the LFS stacks: `lfs_filesystem` charges the host's
/// per-block CPU cost to every block moving through the log.
pub fn lld_config(host: HostModel) -> LldConfig {
    LldConfig {
        cpu_per_block_ns: host.per_block_ns,
        ..LfsConfig::default().lld
    }
}

/// Format the raw device of a stack on a fresh clock, with the probe's
/// registries attached before it is boxed (they cannot be reached after).
fn raw_device<P: Probe>(dev: DevKind, spec: DiskSpec, probe: &P) -> Box<dyn BlockDevice> {
    match dev {
        DevKind::Regular => {
            let mut rd = RegularDisk::new(spec, SimClock::new(), BLOCK);
            if P::TRACED {
                rd.disk_mut().set_metrics(probe.metrics());
                rd.disk_mut().set_spans(probe.spans());
            }
            probe.wrap(Layer::Regular, rd)
        }
        DevKind::Vld => {
            let mut vld = Vld::format(spec, SimClock::new(), VldConfig::default());
            if P::TRACED {
                vld.set_observability(None, probe.metrics());
                vld.set_spans(probe.spans());
            }
            probe.wrap(Layer::Vld, vld)
        }
    }
}

/// Build and format one of the four stacks.
pub fn build<P: Probe>(
    kind: StackKind,
    spec: DiskSpec,
    host: HostModel,
    probe: &P,
) -> FsResult<Ufs> {
    let raw = raw_device(kind.dev, spec, probe);
    let mut fs = match kind.fs {
        FsKind::Ufs => Ufs::format(raw, host, UfsConfig::default())?,
        FsKind::Lfs => {
            let cfg = LfsConfig::default();
            let mut lld = LogDisk::format(raw, lld_config(host))?;
            if P::TRACED {
                lld.set_metrics(probe.metrics());
            }
            // The file-layer settings of `lfs::lfs_filesystem`: no
            // read-ahead, deletes trimmed into the log, NVRAM-style bulk
            // flush.
            let ufs_cfg = UfsConfig {
                inode_count: cfg.inode_count,
                cache_bytes: cfg.cache_bytes,
                sync_data: false,
                readahead_blocks: 0,
                trim_on_delete: true,
                flush_on_full: true,
            };
            Ufs::format(probe.wrap(Layer::Lld, lld), host, ufs_cfg)?
        }
    };
    if P::TRACED {
        fs.set_metrics(probe.metrics());
    }
    Ok(fs)
}

/// Simulated power loss: caches, the LLD's open segment and the VLD's
/// in-memory map evaporate; only the media's sectors survive.
pub fn crash(kind: StackKind, fs: Ufs) -> Disk {
    crash_device(kind, fs.into_device(), false).expect("nothing can fail without a shutdown")
}

/// Peel a device stack down to its drive. With `shutdown`, a VLD first
/// powers down in order (persisting its tail record, so recovery takes the
/// fast path); otherwise nothing is written. (The shims answer downcasts
/// as their inner device, so this needs no tracing case.)
pub fn crash_device(
    kind: StackKind,
    dev: Box<dyn BlockDevice>,
    shutdown: bool,
) -> disksim::Result<Disk> {
    let raw = match kind.fs {
        FsKind::Lfs => downcast_device::<LogDisk>(dev).crash(),
        FsKind::Ufs => dev,
    };
    Ok(match kind.dev {
        DevKind::Vld => {
            let mut vld = downcast_device::<Vld>(raw);
            if shutdown {
                vld.shutdown()?;
            }
            vld.crash()
        }
        DevKind::Regular => downcast_device::<RegularDisk>(raw).into_disk(),
    })
}

/// Bring surviving media back up through the stack's real recovery path
/// (VLD recovery, LLD mount, UFS mount), unshimmed. `overhead_ns` is the
/// drive's per-command overhead, which the VLD does not keep on the media.
pub fn remount(
    kind: StackKind,
    disk: Disk,
    overhead_ns: u64,
    host: HostModel,
) -> FsResult<(Ufs, Option<RecoveryReport>)> {
    // Spans the crash left open must not adopt the recovery spans.
    disk.spans().close_all(disk.clock().now());
    let (raw, report): (Box<dyn BlockDevice>, _) = match kind.dev {
        DevKind::Vld => {
            let (vld, rep) =
                Vld::recover(disk, overhead_ns, VldConfig::default()).map_err(FsError::Disk)?;
            (Box::new(vld), Some(rep))
        }
        DevKind::Regular => (Box::new(RegularDisk::from_disk(disk, BLOCK)), None),
    };
    let dev: Box<dyn BlockDevice> = match kind.fs {
        FsKind::Lfs => Box::new(LogDisk::mount(raw, lld_config(host))?),
        FsKind::Ufs => raw,
    };
    Ok((Ufs::mount(dev, host)?, report))
}

/// Structural audits of a mounted stack: the virtual log's consistency
/// check where a VLD is present (probed in place), and `fsck` restricted to
/// the classes that mean damage rather than crash debris.
pub fn audit(fs: &mut Ufs) -> Vec<String> {
    let mut complaints = Vec::new();
    if let Some(vld) = probe_device::<Vld>(fs.device()) {
        complaints.extend(
            vld.vlog()
                .check_consistency()
                .into_iter()
                .map(|m| format!("vld audit: {m}")),
        );
    }
    match ufs::fsck(fs.device_mut()) {
        Ok(rep) => complaints.extend(
            rep.errors
                .iter()
                .filter(|e| severe(e))
                .map(|e| format!("fsck: {e:?}")),
        ),
        Err(e) => complaints.push(format!("fsck did not run: {e}")),
    }
    complaints
}

fn severe(e: &FsckError) -> bool {
    matches!(
        e,
        FsckError::PointerOutOfRange { .. }
            | FsckError::DoubleReference { .. }
            | FsckError::DanglingDirent { .. }
            | FsckError::SizeBeyondPointers { .. }
    )
}
