//! # nsai-core
//!
//! The characterization framework at the heart of the `neurosym` workspace —
//! a Rust reproduction of the methodology in *"Towards Cognitive AI Systems:
//! Workload and Characterization of Neuro-Symbolic AI"* (ISPASS 2024).
//!
//! The paper's primary contribution is not a model but a **measurement
//! methodology**: every operator executed by a neuro-symbolic workload is
//! attributed to a *phase* (neural or symbolic) and an *operator category*
//! (convolution, matrix multiplication, vector/element-wise, data
//! transformation, data movement, other), and the resulting event stream is
//! aggregated into latency breakdowns, memory profiles, roofline placements,
//! and sparsity statistics. This crate provides exactly that:
//!
//! - [`taxonomy`] — the five Kautz-style neuro-symbolic system categories
//!   (Tab. I) and the six operator categories (Sec. IV-B).
//! - [`event`] — the per-operator record: duration, FLOPs, bytes moved,
//!   output sparsity.
//! - [`profile`] — a scoped profiler. Instrumented kernels (in `nsai-tensor`
//!   and friends) report into the *active* profiler via [`profile::record`],
//!   so workload code stays free of bookkeeping.
//! - [`memory`] — live-byte tracking, high-water marks, and storage
//!   footprint registration (weights vs. codebooks, Fig. 3b).
//! - [`failpoint`] — deterministic fault injection (zero-cost when
//!   disarmed) for chaos and failure-mode testing of the serving stack.
//! - [`metrics`] — lock-free counters and log-bucketed latency histograms
//!   for population-level (serving) statistics: p50/p95/p99, queue
//!   depths, batch-size distributions.
//! - [`roofline`] — the roofline model used for Fig. 3c.
//! - [`sparsity`] — sparsity statistics used for Fig. 5.
//! - [`report`] — aggregation of an event stream into the tables the paper
//!   prints.
//! - [`export`] — Chrome trace-event export for timeline inspection in
//!   `chrome://tracing` / Perfetto.
//! - [`counters`] — order-independent deterministic work counters, the
//!   exactly-gated half of the continuous-characterization baseline.
//! - [`takeaways`] — programmatic checks of the paper's Takeaways 1–7
//!   against a set of reports.
//!
//! ## Example
//!
//! ```
//! use nsai_core::profile::{Profiler, OpMeta};
//! use nsai_core::taxonomy::{OpCategory, Phase};
//!
//! let profiler = Profiler::new();
//! {
//!     let _active = profiler.activate();
//!     let _phase = nsai_core::profile::phase_scope(Phase::Symbolic);
//!     nsai_core::profile::time_op(
//!         "bundle",
//!         OpCategory::VectorElementwise,
//!         OpMeta::new().flops(8_192).bytes_read(32_768).bytes_written(32_768),
//!         || { /* kernel body */ },
//!     );
//! }
//! let report = profiler.report();
//! assert_eq!(report.phase_duration(Phase::Symbolic), report.total_duration());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod error;
pub mod event;
pub mod export;
pub mod failpoint;
pub mod memory;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod roofline;
pub mod sparsity;
pub mod takeaways;
pub mod taxonomy;

pub use error::CoreError;
pub use event::OpEvent;
pub use profile::Profiler;
pub use report::Report;
pub use roofline::{Bound, DeviceRoofline};
pub use sparsity::SparsityStats;
pub use taxonomy::{NsCategory, OpCategory, Phase};
