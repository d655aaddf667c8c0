//! # nsbench
//!
//! A socket-to-socket serving benchmark for the `nsai-serve` runtime behind
//! the `nsai-gateway` TCP front-end, both with their default configs.
//! Each process runs one named traffic mix ([`spec::WORKLOADS`]) from a
//! seed and prints either the end-to-end metrics (untraced run) or the
//! per-layer metrics and a Chrome trace (traced run). See `README.md`
//! beside this crate for the workloads, metrics and waterfall arithmetic.

pub mod loadgen;
pub mod plan;
pub mod run;
pub mod spec;
pub mod stats;
