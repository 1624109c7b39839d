#![warn(missing_docs)]
//! # vlog-core — the virtual log and the Virtual Log Disk
//!
//! This crate implements the primary contribution of *Virtual Log Based
//! File Systems for a Programmable Disk* (Wang, Anderson, Patterson,
//! OSDI 1999):
//!
//! * **Eager writing** ([`EagerAllocator`]): small synchronous writes
//!   complete by landing on a free sector near the current head position,
//!   chosen with exact mechanical knowledge — the premise of a file system
//!   running on the drive's embedded processor.
//! * **The virtual log** ([`VirtualLog`], [`mapsector`]): a log of
//!   indirection-map pieces whose entries are *not* physically contiguous.
//!   Entries chain backward; overwrites turn the chain into a tree whose
//!   bypass branches let obsolete sectors be recycled without copying live
//!   data (paper Figure 3).
//! * **Fast recovery** ([`recovery`], [`tail`]): boot from a checksummed
//!   tail record written by the firmware power-down sequence; fall back to
//!   scanning for self-identifying entries when power-down failed. Atomic
//!   multi-block transactions ride the same mechanism.
//! * **Idle-time compaction** ([`Compactor`]): track-granularity
//!   hole-plugging that regenerates empty tracks, keeping eager writes fast
//!   at high utilisation.
//! * **The VLD** ([`vld`]): all of the above behind an unmodified
//!   block-device interface, so stock file systems get the benefit.
//!
//! ```
//! use disksim::{BlockDevice, DiskSpec, SimClock};
//! use vlog_core::{Vld, VldConfig};
//!
//! let mut vld = Vld::format(DiskSpec::st19101_sim(), SimClock::new(), VldConfig::default());
//! let block = vec![7u8; vld.block_size()];
//! let t = vld.write_block(123, &block).unwrap();
//! // A small synchronous write costs far less than a half rotation (3 ms).
//! assert!(t.total_ms() < 3.0);
//! ```

mod alloc;
mod audit;
pub mod checkpoint;
mod compact;
mod freemap;
mod log;
pub mod mapsector;
mod piecetable;
pub mod recovery;
pub mod tail;
pub mod vld;
mod vlfs;

pub use alloc::{AllocConfig, AllocatorState, Candidate, EagerAllocator};
pub use checkpoint::Checkpoint;
pub use compact::{CompactStats, Compactor, CompactorConfig, VictimPolicy};
pub use freemap::FreeMap;
pub use log::{DataBlock, PieceLoc, VirtualLog, VlogSnapshot, VlogStats, BLOCK_BYTES};
pub use mapsector::{MapFlags, MapSector, TxnInfo, PIECE_ENTRIES, UNMAPPED};
pub use recovery::RecoveryReport;
pub use tail::{TailRecord, TAIL_LBA};
pub use vld::{Vld, VldConfig};
pub use vlfs::{VlfsLayer, INODE_DIRECT};
