#![warn(missing_docs)]
//! # crashtest — deterministic crash-point exploration for the paper's stacks
//!
//! The paper's central durability claim (§3) is that the virtual log
//! eager-writes make *every acknowledged synchronous write* crash-durable,
//! and that recovery rebuilds an equivalent indirection map from any crash
//! state — whether the firmware tail record survived or the scan fallback
//! has to find the youngest log root. This crate turns that claim (and the
//! analogous ones for the update-in-place UFS and the log-structured
//! logical disk) into an executable check:
//!
//! 1. Run a scripted workload against a stack with a [`disksim::FaultDisk`]
//!    spliced in, with no faults armed, and count the device write
//!    operations `W` it performs. Everything in the simulator is
//!    deterministic, so a re-run performs the *same* `W` writes.
//! 2. For every crash point `k` (exhaustively for small configurations,
//!    seeded sampling for large ones), replay the workload with a plan that
//!    cuts power after the `k`-th acknowledged write, discarding all
//!    volatile state.
//! 3. Remount through the stack's recovery path and check invariants: no
//!    acknowledged write is lost, `fsck` reports no structural damage, files
//!    made durable by a completed `sync` read back exactly, the VLD's
//!    indirection map and free map agree with the on-disk pieces, and both
//!    recovery paths (tail record and scan fallback) converge on the same
//!    state.
//!
//! The modules split along those lines: [`workload`] scripts the file
//! system activity and predicts what must survive, and [`explore`] sweeps
//! the crash points and runs the invariant checks. Building, crashing and
//! remounting the four device stacks of the paper's Figure 5 is
//! [`modelcheck::stack`]'s job — the one recipe the workspace has.

pub mod explore;
pub mod workload;

pub use explore::{run_sweep, SweepConfig, SweepReport};
pub use modelcheck::stack::{CrashState, DevKind, DiskKind, FsKind, Obs, StackSpec};
pub use workload::{apply, file_data, Expectations, Op, Workload};

/// All four stacks (harness-sized, HP drive), sweep order.
pub const ALL_STACKS: [StackSpec; 4] = StackSpec::ALL;
