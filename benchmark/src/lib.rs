//! # scaleclass-benchmark
//!
//! The repository's ruler: one fixed-work, whole-tree-build benchmark with
//! five workloads, eight end-to-end metrics and a per-layer ledger. It
//! claims no gain; later changes are judged by it. See `README.md` for the
//! glossary, the layer table and the measured spreads.
//!
//! Standalone on purpose (own `[workspace]`, path dependencies only): the
//! benchmark reaches the system through `pub` items like any other client.

#![warn(missing_docs)]

pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
