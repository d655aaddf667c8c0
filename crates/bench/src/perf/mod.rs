//! Continuous characterization: the deterministic perf suite, its
//! machine-readable baseline format, and the CI regression gate.
//!
//! The paper's contribution is a measurement methodology; this module
//! makes the repo apply that methodology to *itself*, continuously.
//! Every revision can be measured into a schema-versioned
//! [`report::PerfReport`] (`results/perf_baseline.json`) by
//! [`suite::run_suite`], and two reports — in CI: the merge-base and
//! the candidate, measured back to back on the same runner — are
//! compared by [`gate::compare`]:
//!
//! - deterministic work counters ([`nsai_core::counters`]) must match
//!   **exactly**;
//! - wall-clock medians are held to a per-entry tolerance derived from
//!   the recorded interquartile ranges ([`stats::WallStats`]).
//!
//! See EXPERIMENTS.md ("Continuous characterization") for the
//! methodology write-up and the baseline-blessing workflow.

pub mod gate;
pub mod report;
pub mod stats;
pub mod suite;

pub use gate::{compare, GateError, GateOptions, GateResult, Verdict};
pub use report::{EntryKind, PerfEntry, PerfReport, SCHEMA};
pub use stats::WallStats;
pub use suite::{run_suite, SuiteConfig, SuiteError, WORKLOAD_SUITE};
