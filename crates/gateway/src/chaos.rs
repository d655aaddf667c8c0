//! Socket-level chaos: a seeded fault schedule over the gateway's
//! failpoint sites, and the wire [`Transport`] that lets
//! [`nsai_serve::chaos::run_chaos`] drive the stack through a real
//! gateway.
//!
//! The serve-level contract ([`nsai_serve::chaos`]) extends across the
//! wire unchanged: one outcome per request, balanced serve counters,
//! survivors bitwise-identical to the canonical encoding of the
//! fault-free output, no deadlock. The wire adds one balance equation
//! of its own: every serve admission came through a decoded frame.

use crate::client::GatewayClient;
use crate::metrics::GatewaySnapshot;
use crate::server::{Gateway, GatewayConfig};
use crate::wire::{self, Status, WireError};
use nsai_serve::chaos::{
    splitmix64, ChaosOutcome, ChaosReport, ChaosWorkload, Transport, WATCHDOG,
};
use nsai_serve::{Server, ShutdownMode};
use std::io::ErrorKind;
use std::ops::Range;

/// Derive a socket-level fault schedule from `seed` in the
/// `NEUROSYM_FAILPOINTS` grammar — a pure function, like
/// [`nsai_serve::chaos::chaos_schedule`], so CI logs only the seed.
/// Every gateway site gets an error injection at a seed-chosen rate,
/// and serve-side sites may join in so the two fault layers compose.
pub fn gateway_chaos_schedule(seed: u64) -> String {
    let r = |salt: u64| splitmix64(seed ^ salt);
    let mut spec = vec![
        format!("gateway::accept=return_err@1in{}", 5 + r(1) % 8),
        format!("gateway::conn_spawn=return_err@1in{}", 7 + r(2) % 8),
        format!(
            "gateway::decode=return_err@p0.{:02}s{}",
            2 + r(3) % 10,
            seed
        ),
        format!("gateway::write_response=return_err@1in{}", 9 + r(4) % 12),
    ];
    if r(5) % 2 == 0 {
        // Cross-layer: admission sheds inside serve, so wire-level
        // `queue_full` rejections flow back through the ledger too.
        spec.push(format!(
            "serve::server::admission=return_err@1in{}",
            6 + r(6) % 8
        ));
    }
    if r(7) % 2 == 0 {
        spec.push(format!(
            "serve::server::replica_run=panic@1in{}",
            8 + r(8) % 8
        ));
    }
    spec.join(";")
}

/// The wire transport: a default-config [`Gateway`] in front of the
/// chaos server, driven by clients that send one request at a time and
/// reconnect after every killed connection. Outcomes settle on the
/// client thread (reads time out at [`WATCHDOG`]).
#[derive(Debug)]
pub struct Wire {
    gateway: Gateway,
    workload: u32,
}

impl Wire {
    fn connect(&self) -> Option<GatewayClient> {
        let mut client = GatewayClient::connect(self.gateway.local_addr(), self.workload).ok()?;
        client.set_read_timeout(Some(WATCHDOG)).ok()?;
        Some(client)
    }
}

/// One round trip on `client`: `Ok` with the outcome of a typed
/// response, or `Err` with the outcome when the connection died.
fn round_trip(
    client: &mut GatewayClient,
    case: u64,
) -> Result<ChaosOutcome<Vec<u8>>, ChaosOutcome<Vec<u8>>> {
    client
        .send_request(case)
        .map_err(|_| ChaosOutcome::Refused)?;
    let raw = client.read_response().map_err(|e| match e {
        WireError::Disconnected(e)
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            ChaosOutcome::Deadlocked
        }
        _ => ChaosOutcome::ConnDropped,
    })?;
    // A goodbye instead of our response: the request died with the
    // connection.
    if raw.terminal {
        return Err(ChaosOutcome::ConnDropped);
    }
    Ok(match raw.status {
        Status::Ok => ChaosOutcome::Ok(raw.payload),
        Status::WorkloadError => {
            ChaosOutcome::WorkloadErr(String::from_utf8_lossy(&raw.payload).into_owned())
        }
        Status::WorkerPanicked => ChaosOutcome::Panicked,
        Status::DeadlineExceeded => ChaosOutcome::TimedOut,
        Status::Aborted => ChaosOutcome::Aborted,
        Status::QueueFull | Status::WindowExceeded => ChaosOutcome::Rejected,
        Status::UnknownWorkload
        | Status::ShuttingDown
        | Status::BadFrame
        | Status::FrameTooLarge => ChaosOutcome::Refused,
    })
}

impl Transport for Wire {
    type Output = Vec<u8>;
    type Pending = ChaosOutcome<Vec<u8>>;
    type Stats = GatewaySnapshot;

    fn attach(server: Server) -> Self {
        let gateway = Gateway::start(server, GatewayConfig::default()).expect("gateway must start");
        let workload = gateway.workload_id("chaos").expect("chaos registered");
        Wire { gateway, workload }
    }

    fn server(&self) -> &Server {
        self.gateway.server()
    }

    fn submit(&self, cases: Range<u64>) -> Vec<(u64, Self::Pending)> {
        let mut conn: Option<GatewayClient> = None;
        cases
            .map(|case| {
                if conn.is_none() {
                    conn = self.connect();
                }
                let outcome = match conn.as_mut() {
                    None => Err(ChaosOutcome::Refused),
                    Some(client) => round_trip(client, case),
                };
                let outcome = outcome.unwrap_or_else(|dead| {
                    conn = None;
                    dead
                });
                (case, outcome)
            })
            .collect()
    }

    fn shutdown(&self, mode: ShutdownMode) {
        self.gateway.shutdown(mode);
    }

    fn settle(&self, pending: Self::Pending) -> ChaosOutcome<Vec<u8>> {
        pending
    }

    fn stats(&self) -> GatewaySnapshot {
        self.gateway.metrics_snapshot()
    }

    fn reference(case: u64) -> Vec<u8> {
        wire::encode_output(&ChaosWorkload::expected(case))
    }

    /// Every serve admission came through a decoded frame.
    fn check_balance(report: &ChaosReport<Self>) -> Result<(), String> {
        let (submitted, frames_in) = (report.metrics.submitted, report.transport.frames_in);
        if submitted > frames_in {
            return Err(format!(
                "serve admitted {submitted} requests from only {frames_in} decoded frames"
            ));
        }
        Ok(())
    }
}
