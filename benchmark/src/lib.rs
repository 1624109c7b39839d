#![warn(missing_docs)]
//! # vlbench — the repository's benchmark
//!
//! Seven workloads, run single-threaded in a closed loop (one client; the
//! next op is issued when the previous one returns), measured on two
//! clocks: **host time** — what the simulator costs to run — and
//! **simulated time** — what the modelled disk and file system would
//! take. Timed runs have tracing off; a separate traced run interposes
//! timing shims at every public layer boundary, from this crate's own
//! files, and gives the per-layer numbers. See `README.md` beside this
//! crate and `/BENCHMARK.json`.
//!
//! Only the library crates' public API (`disksim`, `vlog-core`, `fscore`,
//! `ufs`, `lfs`, `obs`, `modelcheck`) and the `all_figures` command line
//! are used.

pub mod alloc_count;
pub mod cli;
pub mod driver;
pub mod figures;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workloads;
