//! # nsai-serve
//!
//! An in-process inference-serving runtime for the seven neuro-symbolic
//! workloads — the layer that turns the workspace's *characterized*
//! workloads into *served* ones, under the scheduling pressures the
//! deployment literature identifies as decisive for neuro-symbolic
//! systems: a mixed neural/symbolic phase profile per request, and
//! batching opportunities confined to the neural frontend.
//!
//! The runtime is deliberately small and explicit:
//!
//! - [`Server`] owns one prepared replica of each registered workload
//!   **per worker thread**, fed from a single bounded FIFO queue.
//!   Admission is explicit: [`Server::submit`] either accepts a request
//!   or rejects it immediately with [`SubmitError::QueueFull`] — under
//!   overload, queue depth and memory stay bounded by the configured
//!   capacity and the excess is pushed back to the caller.
//! - A **greedy micro-batcher** runs inside each worker: after popping
//!   a request it takes the same-workload requests already queued behind
//!   it, up to [`ServeConfig::max_batch`], without waiting for more, then
//!   executes the batch via [`nsai_workloads::Workload::run_batch`]. An
//!   idle server dispatches each request at once; batches form when
//!   requests queue behind busy workers. Workloads whose episodes
//!   share work (one ConvNet forward over all panels for NVSA/PrAE, a
//!   shared theorem-prover chase for LNN) turn that coalescing into real
//!   throughput; the contract that batch outputs are bitwise-identical
//!   to per-case outputs keeps results independent of timing.
//! - **Per-request observability**: a request may carry a
//!   [`nsai_core::profile::Scope`] so one tenant's trace lands in their
//!   own profiler. Batches form only among requests bound for the same
//!   profiler, and a traced batch runs the same `run_batch` call as an
//!   untraced one, so tracing never changes what executes. The server
//!   also maintains lock-free aggregate metrics
//!   ([`ServerMetrics`]): log-bucketed latency histograms (p50/p95/p99),
//!   queue depth, batch-size distribution, and reject counts.
//! - A seeded [`loadgen`] module provides open-loop Poisson and
//!   closed-loop N-client arrival processes, deterministic under the
//!   vendored `rand`, for reproducible latency–throughput sweeps.
//!
//! ## Example
//!
//! ```
//! use nsai_serve::{ServeConfig, Server};
//! use nsai_workloads::{CaseInput, Lnn, LnnConfig, Workload};
//!
//! let server = Server::builder(ServeConfig::default().workers(2))
//!     .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
//!     .start()
//!     .unwrap();
//! let ticket = server.submit("lnn", CaseInput::new(1)).unwrap();
//! let output = ticket.wait().unwrap();
//! assert!(output.metric("iterations").is_some());
//! server.shutdown(nsai_serve::ShutdownMode::Drain);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod config;
pub mod loadgen;
pub mod metrics;
mod queue;
mod request;
mod server;

pub use config::ServeConfig;
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use request::{Response, ServeError, Ticket};
pub use server::{RejectCode, Server, ServerBuilder, ShutdownMode, StartError, SubmitError};
