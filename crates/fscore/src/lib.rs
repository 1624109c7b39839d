#![warn(missing_docs)]
//! # fscore — shared file-system infrastructure
//!
//! The paper's experimental platform (its Figure 5) runs two file systems
//! (UFS and LFS) over two simulated devices (regular disk and VLD) and
//! times them on two hosts (SPARCstation-10 and UltraSPARC-170). This crate
//! holds everything those combinations share:
//!
//! * [`FileSystem`] — the common interface the benchmarks drive
//!   (create / read / write / delete / sync, with switchable synchronous
//!   data writes);
//! * [`HostModel`] — the host CPU cost model: the "other" component of the
//!   paper's Figure 9 latency breakdown, scaled between the two hosts;
//! * [`BufferCache`] — an LRU block cache with dirty tracking, used as the
//!   UFS buffer cache and as the LFS file cache (optionally treated as
//!   NVRAM).

mod cache;
mod error;
pub mod fs;
mod host;

pub use cache::BufferCache;
pub use error::{FsError, FsResult};
pub use fs::{FileId, FileSystem};
pub use host::HostModel;
