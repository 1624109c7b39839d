//! Direct-drive probes: short measurements on a workload's end state,
//! through public functions only, of paths no workload iteration crosses —
//! the allocator's search in isolation, the recovery and mount paths,
//! `fsck`, and the snapshot / fork / copy-on-write engine. Each works on a
//! fork of the end state, so the state the output checks read back is
//! untouched.

use std::hint::black_box;
use std::time::Instant;

use disksim::{downcast_device, probe_device, Disk, PhysAddr, SECTOR_BYTES};
use lfs::LogDisk;
use vlog_core::{EagerAllocator, Vld, VldConfig};

use crate::driver::Sys;
use crate::run::Outcome;
use crate::stack::{self, DevKind, FsKind};
use crate::trace::On;
use crate::workloads::FsBench;

/// `find_block` calls the allocator probe times.
const FIND_BLOCK_CALLS: u32 = 10_000;

/// Forks timed for `ufs.fork_us`.
const FORKS: u32 = 16;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Mean of the collected samples (0 for none): `fs_mix` probes each of its
/// stacks that has the layer and reports the mean.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The drive of a fork of `sys`, crashed — after an orderly VLD shutdown
/// if `shutdown` (which persists the tail record).
fn forked_disk(sys: &Sys<On>, shutdown: bool) -> Option<Disk> {
    let dev = sys.fs.device().snapshot()?.restore();
    stack::crash_device(sys.kind, dev, shutdown).ok()
}

/// `(host ms, simulated ms)` of `Vld::recover` on a fork of `sys`, through
/// the tail record (`tail`) or the scan fallback.
fn recovery(sys: &Sys<On>, tail: bool, out: &mut Outcome) -> Option<(f64, f64)> {
    let disk = forked_disk(sys, tail)?;
    let t0 = Instant::now();
    let recovered = Vld::recover(disk, sys.spec.command_overhead_ns, VldConfig::default());
    let host_ms = ms_since(t0);
    match recovered {
        Ok((_, rep)) => {
            out.check(rep.used_tail == tail, || {
                format!(
                    "recovery probe: used_tail = {}, expected {tail}",
                    rep.used_tail
                )
            });
            Some((host_ms, rep.service.total_ms()))
        }
        Err(e) => {
            out.check(false, || {
                format!("recovery probe ({}): {e}", sys.kind.label())
            });
            None
        }
    }
}

/// Run every probe the end state's layers allow and record the results.
pub fn run(bench: &mut FsBench<On>, out: &mut Outcome) {
    let mut find_block = Vec::new();
    let (mut tail_host, mut tail_sim, mut scan_host, mut scan_sim) =
        (vec![], vec![], vec![], vec![]);
    let (mut mount_host, mut mount_sim) = (vec![], vec![]);
    let (mut fsck_ms, mut snapshot_ms, mut fork_us, mut cow_us) = (vec![], vec![], vec![], vec![]);

    for sys in &mut bench.systems {
        // core.alloc: the eager search alone, on the end-state disk and
        // free map, with a fresh allocator of the stack's configuration.
        if let Some(vld) = probe_device::<Vld>(sys.fs.device()) {
            let mut alloc = EagerAllocator::new(vld.config().alloc);
            let (disk, free) = (vld.vlog().disk(), vld.vlog().free_map());
            let t0 = Instant::now();
            for _ in 0..FIND_BLOCK_CALLS {
                black_box(alloc.find_block(black_box(disk), black_box(free)));
            }
            find_block.push(t0.elapsed().as_nanos() as f64 / FIND_BLOCK_CALLS as f64);
        }

        // core.recovery: crash the end state; recover with and without
        // the tail record.
        if sys.kind.dev == DevKind::Vld {
            if let Some((h, s)) = recovery(sys, true, out) {
                tail_host.push(h);
                tail_sim.push(s);
            }
            if let Some((h, s)) = recovery(sys, false, out) {
                scan_host.push(h);
                scan_sim.push(s);
            }
        }

        // lfs.lld: mount (checkpoint load + roll-forward) on the crashed
        // end state.
        if sys.kind.fs == FsKind::Lfs {
            if let Some(dev) = sys.fs.device().snapshot().map(|s| s.restore()) {
                let raw = downcast_device::<LogDisk>(dev).crash();
                let clock = raw.clock();
                let (t0, sim0) = (Instant::now(), clock.now());
                let mounted = LogDisk::mount(raw, stack::lld_config(sys.host));
                mount_host.push(ms_since(t0));
                mount_sim.push((clock.now() - sim0) as f64 / 1e6);
                out.check(mounted.is_ok(), || {
                    format!("LLD mount probe ({})", sys.kind.label())
                });
            }
        }

        // ufs: fsck of the live (synced) volume.
        let synced = fscore::FileSystem::sync(&mut sys.fs);
        out.check(synced.is_ok(), || {
            format!("sync before fsck probe ({})", sys.kind.label())
        });
        let t0 = Instant::now();
        let report = ufs::fsck(sys.fs.device_mut());
        fsck_ms.push(ms_since(t0));
        out.check(report.is_ok(), || {
            format!("fsck probe ({})", sys.kind.label())
        });

        // ufs / disksim: snapshot, fork, and the first write to each track
        // of a fork (minus a second write to the same place, which pays
        // the same mechanics but no copy).
        let t0 = Instant::now();
        let snap = sys.fs.snapshot();
        snapshot_ms.push(ms_since(t0));
        if let Some(snap) = snap {
            let t0 = Instant::now();
            for _ in 0..FORKS {
                black_box(snap.restore());
            }
            fork_us.push(t0.elapsed().as_secs_f64() * 1e6 / FORKS as f64);
        }
        if let Some(mut disk) = forked_disk(sys, false) {
            let tracks = disk.materialised_tracks();
            let block = [0xC0u8; 8 * SECTOR_BYTES];
            let pass = |disk: &mut Disk| {
                let t0 = Instant::now();
                for &(cyl, track) in &tracks {
                    if let Ok(lba) = disk.phys_to_lba(PhysAddr {
                        cyl,
                        track,
                        sector: 0,
                    }) {
                        let _ = black_box(disk.write_sectors(lba, &block));
                    }
                }
                t0.elapsed().as_secs_f64() * 1e6 / tracks.len().max(1) as f64
            };
            let (first, second) = (pass(&mut disk), pass(&mut disk));
            cow_us.push((first - second).max(0.0));
        }
    }

    let v = &mut out.values;
    v.insert("core.alloc.find_block_ns", mean(&find_block));
    v.insert("core.recovery.tail_host_ms", mean(&tail_host));
    v.insert("core.recovery.tail_sim_ms", mean(&tail_sim));
    v.insert("core.recovery.scan_host_ms", mean(&scan_host));
    v.insert("core.recovery.scan_sim_ms", mean(&scan_sim));
    v.insert("lfs.lld.mount_host_ms", mean(&mount_host));
    v.insert("lfs.lld.mount_sim_ms", mean(&mount_sim));
    v.insert("ufs.fsck_host_ms", mean(&fsck_ms));
    v.insert("ufs.snapshot_ms", mean(&snapshot_ms));
    v.insert("ufs.fork_us", mean(&fork_us));
    v.insert("disksim.cow_first_write_us", mean(&cow_us));
}
