#![warn(missing_docs)]
//! # obs — simulation-time observability
//!
//! A std-only tracing and metrics layer keyed to the simulator's virtual
//! clock. The paper's central claims are *latency decompositions* — eager
//! writing wins because seek + rotation collapse to near-zero (Figs. 2/6/8,
//! Table 2) — so the instrumentation here is built around the same
//! decomposition: every traced disk operation carries its
//! overhead / seek / head-switch / rotation / transfer split, and the
//! metric histograms are log-bucketed latency distributions.
//!
//! Two first-class objects, both cheap cloneable handles:
//!
//! * [`Tracer`] — a bounded ring buffer of [`TraceEvent`]s. Producers hold
//!   an `Option<Tracer>`; when it is `None` the cost of tracing is a single
//!   branch. Events are stamped with the virtual-clock completion time, so
//!   a trace of a deterministic simulation is itself deterministic —
//!   byte-identical across runs.
//! * [`Metrics`] — a registry of counters, gauges and power-of-two
//!   log-bucketed histograms. A disabled handle (the default) makes every
//!   recording call a no-op after one branch, so instrumented hot paths pay
//!   nothing in ordinary runs.
//!
//! On top of these, [`Spans`] builds a causal forest attributing each disk
//! command's busy time to the file-system operation (or background
//! compaction/recovery pass) that caused it, and [`FlightRecorder`] pairs a
//! bounded event ring with a span table as a black box for the failure
//! harnesses. Both follow the same disabled-by-default, one-branch-cost
//! discipline.
//!
//! Exporters are deliberately dependency-free (the workspace builds
//! offline): JSONL for traces, a flat hand-rolled JSON object and a
//! human-readable table for metrics.
//!
//! This crate knows nothing about the simulator: times are plain `u64`
//! nanoseconds, positions are plain integers. `disksim` depends on `obs`,
//! never the reverse.

mod metrics;
pub mod span;
mod trace;

pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use span::{FlightRecorder, SpanKind, SpanRecord, Spans};
pub use trace::{OpKind, TraceEvent, Tracer};
