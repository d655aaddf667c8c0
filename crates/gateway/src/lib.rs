//! # nsai-gateway
//!
//! A networked front-end for the [`nsai_serve`] runtime: plain
//! `std::net` TCP, a versioned length-prefixed binary protocol
//! ([`wire`], `nsgp/1`), per-connection flow control, and the same
//! determinism contract the rest of the workspace lives by — **a
//! request served over the wire returns bitwise-identical bytes to the
//! same case executed in-process.**
//!
//! Architecture, one connection:
//!
//! ```text
//!   client ──frames──▶ reader thread ──(window, deadline, admission)──▶ serve queue
//!                         │ rejects                                        │ tickets
//!                         ▼                                                ▼
//!   client ◀──frames── responder thread ◀─────────(in submission order)────┘
//! ```
//!
//! - The **reader** decodes frames, applies wire-level flow control (a
//!   bounded per-connection in-flight window), checks request
//!   deadlines, and submits into the serve queue. Every rejection is a
//!   typed wire status ([`wire::Status`]) mapped exhaustively from
//!   [`nsai_serve::RejectCode`] — a client can always tell *why*.
//! - The **responder** resolves serve tickets and writes responses in
//!   submission order, so pipelined clients get positional matching
//!   for free.
//! - **Malformed or oversized input never panics a connection
//!   thread**: protocol violations end the connection with a typed
//!   goodbye frame; the frame-size cap is enforced before any payload
//!   is read.
//! - **Shutdown is two-layer**: [`Gateway::shutdown`] with
//!   [`ShutdownMode::Drain`] stops accepting, flushes every
//!   connection's in-flight responses, sends typed goodbyes, then
//!   drains serve; `Abort` tears everything down immediately (serve
//!   first, so no responder blocks on an unresolved ticket).
//! - Chaos: four failpoint sites (`gateway::accept`,
//!   `gateway::conn_spawn`, `gateway::decode`,
//!   `gateway::write_response`), a seeded schedule over them, and the
//!   wire transport ([`chaos::Wire`]) that runs the shared
//!   [`nsai_serve::chaos`] harness and its outcome-conservation ledger
//!   through a live gateway.
//!
//! ## Example
//!
//! ```
//! use nsai_gateway::wire::{self, Status};
//! use nsai_gateway::{Gateway, GatewayClient, GatewayConfig};
//! use nsai_serve::{ServeConfig, Server};
//! use nsai_serve::chaos::ChaosWorkload;
//!
//! let server = Server::builder(ServeConfig::default().workers(1))
//!     .register("chaos", || Box::new(ChaosWorkload))
//!     .start()
//!     .unwrap();
//! let gateway = Gateway::start(server, GatewayConfig::default()).unwrap();
//!
//! let workload = gateway.workload_id("chaos").unwrap();
//! let mut client = GatewayClient::connect(gateway.local_addr(), workload).unwrap();
//! let raw = client.call_raw(7).unwrap();
//! assert_eq!(raw.status, Status::Ok);
//! let output = wire::decode_output(&raw.payload).unwrap();
//! assert_eq!(output, ChaosWorkload::expected(7));
//! gateway.shutdown(nsai_serve::ShutdownMode::Drain);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod client;
mod conn;
pub mod metrics;
mod server;
pub mod wire;

pub use client::{GatewayClient, RawResponse};
pub use metrics::{GatewayMetrics, GatewaySnapshot};
pub use nsai_serve::ShutdownMode;
pub use server::{Gateway, GatewayConfig};
