#![warn(missing_docs)]
//! # disksim — a discrete-time disk mechanics simulator
//!
//! This crate re-implements the simulation substrate used by the OSDI '99
//! paper *Virtual Log Based File Systems for a Programmable Disk*: a
//! mechanically faithful model of a rotating disk (seek, rotation, head
//! switch, command overhead, media transfer) driven by a virtual clock.
//!
//! The paper ported the Dartmouth HP97560 simulator into the Solaris kernel
//! and re-parameterised it to approximate a Seagate ST19101 (Cheetah). Here
//! the same two parameter sets (paper Table 1) drive a from-scratch
//! discrete-time model:
//!
//! * [`SimClock`] — a shared virtual clock in nanoseconds. Platters spin
//!   continuously, so the rotational angle is a pure function of absolute
//!   time; advancing the clock *is* rotating the disk.
//! * [`Geometry`] — cylinders × tracks × sectors addressing with optional
//!   multi-zone layouts.
//! * [`MechModel`] — the seek-time curve, head-switch and rotation costs.
//! * [`Disk`] — the stateful device: it owns the page store, the head
//!   position and a track read-ahead buffer, and reports a per-request
//!   [`ServiceTime`] breakdown (the paper's Figure 9 categories).
//! * [`BlockDevice`] — the logical-disk interface the file systems run on;
//!   [`RegularDisk`] is the classic update-in-place implementation.
//!
//! All times are simulated; nothing here sleeps.

mod cache;
pub mod clock;
pub mod codec;
mod device;
pub mod digest;
mod disk;
mod error;
pub mod fault;
mod geometry;
mod image;
mod mech;
pub mod par;
mod service;
mod spec;

pub use cache::CachePolicy;
pub use clock::SimClock;
pub use device::{
    downcast_device, probe_device, BlockDevice, DeviceSnapshot, RegularDisk, SharedBlocks,
};
pub use disk::{
    pooled_copy, CylinderPricer, Disk, DiskSnapshot, DiskStats, HeadPosition, SharedSectors,
    TrackPricer,
};
pub use error::{DiskError, Result};
pub use fault::{FaultDisk, FaultLog, FaultPlan, WriteFault};
pub use geometry::{Geometry, PhysAddr, Zone};
pub use service::ServiceTime;
pub use spec::DiskSpec;

// Observability types, re-exported so device consumers need not depend on
// `obs` directly.
pub use mech::MechModel;
pub use obs::span;
pub use obs::{FlightRecorder, Metrics, OpKind, SpanKind, SpanRecord, Spans, TraceEvent, Tracer};

/// Size of the smallest addressable unit, in bytes (both paper disks use
/// 512-byte sectors).
pub const SECTOR_BYTES: usize = 512;

/// Nanoseconds per millisecond, used throughout for parameter conversion.
pub(crate) const NS_PER_MS: u64 = 1_000_000;

/// Convert milliseconds (as used in the paper's tables) to nanoseconds.
#[inline]
pub(crate) fn ms_to_ns(ms: f64) -> u64 {
    (ms * NS_PER_MS as f64).round() as u64
}

/// Convert nanoseconds to milliseconds for reporting.
#[inline]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / NS_PER_MS as f64
}
