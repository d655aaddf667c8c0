//! Seeded chaos harness: drive the serving stack through a randomized
//! fault schedule and check its failure contract, over any transport.
//!
//! The contract under test (see `tests/chaos.rs` at the workspace root
//! for the enforcing suite):
//!
//! 1. **Outcome conservation** — every offered request terminates with
//!    exactly one outcome, and the serve counters reconcile:
//!    `submitted = completed + panicked + timed_out + aborted`. Each
//!    transport adds the balance equations only it can state
//!    ([`Transport::check_balance`]).
//! 2. **Bitwise parity** — a request that completes OK under chaos
//!    carries exactly the fault-free output for its case, in the
//!    transport's own form ([`Transport::reference`]). Faults may *fail*
//!    requests, never corrupt them.
//! 3. **No deadlock** — every request settles within [`WATCHDOG`].
//! 4. **Self-healing** — injected replica panics leave the worker pool
//!    at full width (panics are contained per batch and the replica is
//!    rebuilt).
//!
//! One runner ([`run_chaos`]) serves both transports: [`InProcess`]
//! here, and the gateway's wire adapter (`nsai_gateway::chaos::Wire`).
//! Fault schedules are pure functions of a seed, expressed in the
//! `NEUROSYM_FAILPOINTS` spec grammar, so a failing CI seed reproduces
//! locally with no extra state. [`chaos_schedule`] confines injected
//! *panics* to `serve::server::replica_run` — the one site wrapped in
//! `catch_unwind` — while scheduling perturbations (delay/yield) and
//! error injections land on the surrounding admission, enqueue,
//! dispatch, rebuild, and drain sites.

use crate::config::ServeConfig;
use crate::metrics::MetricsSnapshot;
use crate::server::{Server, ShutdownMode, SubmitError};
use crate::{ServeError, Ticket};
use nsai_core::failpoint::FailpointGuard;
use nsai_core::taxonomy::NsCategory;
use nsai_workloads::{CaseInput, Workload, WorkloadError, WorkloadOutput};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::time::Duration;

/// Concurrent clients every chaos run fans its requests out over.
pub const CLIENTS: usize = 4;

/// How long one request may take to settle; exceeding it is a deadlock
/// verdict, always a contract violation.
pub const WATCHDOG: Duration = Duration::from_secs(60);

/// The seeded generator behind every chaos schedule and the
/// [`ChaosWorkload`] digest (SplitMix64's output function).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deliberately cheap, pure workload for chaos runs: its output is a
/// deterministic hash chain of the case id, so expected outputs need no
/// server (see [`ChaosWorkload::expected`]) and every completed request
/// can be checked for bitwise parity.
#[derive(Debug, Default)]
pub struct ChaosWorkload;

impl ChaosWorkload {
    /// The exact output [`Workload::run_case`] produces for `case` — the
    /// fault-free reference for parity checks, computable without a
    /// server.
    pub fn expected(case: u64) -> WorkloadOutput {
        // A short hash chain stands in for real service work; folding
        // keeps the result sensitive to every step. Metrics are stored
        // as f64, so expose 53-bit-safe halves for exact equality.
        let mut acc = case;
        for _ in 0..256 {
            acc = splitmix64(acc);
        }
        let mut out = WorkloadOutput::new();
        out.set("case", case as f64);
        out.set("digest_hi", (acc >> 32) as f64);
        out.set("digest_lo", (acc & 0xFFFF_FFFF) as f64);
        out
    }
}

impl Workload for ChaosWorkload {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn category(&self) -> NsCategory {
        NsCategory::SymbolicNeuro
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        Ok(Self::expected(input.case))
    }
}

/// One chaos run's shape. Faults are supplied separately (see
/// [`run_chaos`]) so the same traffic can run fault-free as a baseline.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Total requests offered across the [`CLIENTS`] clients.
    pub requests: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// How the post-traffic shutdown treats still-queued work. `Abort`
    /// runs shutdown while requests are still unsettled, exercising the
    /// orphan-failing path.
    pub shutdown: ShutdownMode,
}

/// How one offered request terminated. Exactly one variant per request —
/// the "exactly one outcome" half of the conservation invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOutcome<T = WorkloadOutput> {
    /// Completed with the workload's output, in the transport's form.
    Ok(T),
    /// Completed with a workload-level error (counted as `completed` by
    /// the server, like any workload result).
    WorkloadErr(String),
    /// Failed because its replica panicked (contained; replica rebuilt).
    Panicked,
    /// Expired in the queue.
    TimedOut,
    /// Failed by an abort-mode shutdown before dispatch.
    Aborted,
    /// Rejected at admission or by flow control (queue full, injected
    /// admission fault, full wire window).
    Rejected,
    /// Turned away without being admitted: the server was shutting down,
    /// or the request frame never made it onto a live connection.
    Refused,
    /// Written over the wire, but the connection died before its
    /// response arrived.
    ConnDropped,
    /// The request did not settle within [`WATCHDOG`]. Any occurrence is
    /// a contract violation.
    Deadlocked,
}

impl<T> ChaosOutcome<T> {
    /// Whether the request reached a serve-side terminal state, i.e. was
    /// admitted to the queue.
    fn admitted(&self) -> bool {
        matches!(
            self,
            ChaosOutcome::Ok(_)
                | ChaosOutcome::WorkloadErr(_)
                | ChaosOutcome::Panicked
                | ChaosOutcome::TimedOut
                | ChaosOutcome::Aborted
        )
    }
}

impl<T> From<ServeError> for ChaosOutcome<T> {
    fn from(error: ServeError) -> Self {
        match error {
            ServeError::Workload(msg) => ChaosOutcome::WorkloadErr(msg),
            ServeError::WorkerPanicked => ChaosOutcome::Panicked,
            ServeError::DeadlineExceeded => ChaosOutcome::TimedOut,
            ServeError::Aborted => ChaosOutcome::Aborted,
        }
    }
}

/// How requests reach a chaos server: one adapter per transport. The
/// runner owns everything else — the server, the fault schedule, the
/// client fan-out, shutdown, and the shared ledger checks.
pub trait Transport: Sized + Sync {
    /// What an OK completion carries; compared bitwise against
    /// [`Transport::reference`].
    type Output: fmt::Debug + PartialEq + Send;
    /// A submitted request, not yet settled.
    type Pending: Send;
    /// Transport-level counters, frozen after shutdown.
    type Stats: fmt::Debug;

    /// Put the transport in front of a started chaos server.
    fn attach(server: Server) -> Self;
    /// The serve runtime behind the transport.
    fn server(&self) -> &Server;
    /// One client's share of the traffic: offer every case in `cases`.
    fn submit(&self, cases: Range<u64>) -> Vec<(u64, Self::Pending)>;
    /// Shut the whole stack down.
    fn shutdown(&self, mode: ShutdownMode);
    /// Resolve one submission to its outcome within [`WATCHDOG`].
    fn settle(&self, pending: Self::Pending) -> ChaosOutcome<Self::Output>;
    /// Freeze the transport's counters.
    fn stats(&self) -> Self::Stats;
    /// The fault-free output of `case`, in the transport's form.
    fn reference(case: u64) -> Self::Output;
    /// Balance equations only this transport can state.
    ///
    /// # Errors
    ///
    /// A description of the first violated equation.
    fn check_balance(report: &ChaosReport<Self>) -> Result<(), String>;
}

/// Everything a chaos run observed, for the invariant checks.
#[derive(Debug)]
pub struct ChaosReport<T: Transport> {
    /// Requests offered (== [`ChaosConfig::requests`]).
    pub offered: usize,
    /// Per-case terminal outcomes, keyed by case id.
    pub outcomes: BTreeMap<u64, ChaosOutcome<T::Output>>,
    /// Frozen serve metrics, taken after shutdown.
    pub metrics: MetricsSnapshot,
    /// Frozen transport metrics, taken after shutdown.
    pub transport: T::Stats,
    /// Worker threads still alive after traffic, before shutdown.
    pub live_workers_after_traffic: usize,
}

impl<T: Transport> ChaosReport<T> {
    fn count(&self, pred: impl Fn(&ChaosOutcome<T::Output>) -> bool) -> usize {
        self.outcomes.values().filter(|o| pred(o)).count()
    }

    /// `true` when any request blew the watchdog.
    pub fn deadlocked(&self) -> bool {
        self.count(|o| matches!(o, ChaosOutcome::Deadlocked)) > 0
    }

    /// Check outcome conservation: one outcome per offered request, no
    /// deadlock, balanced serve counters, then the transport's own
    /// equations.
    ///
    /// # Errors
    ///
    /// A description of the first violated balance equation.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.outcomes.len() != self.offered {
            return Err(format!(
                "client ledger: {} outcomes for {} offered requests",
                self.outcomes.len(),
                self.offered
            ));
        }
        if self.deadlocked() {
            return Err("watchdog: at least one request never settled".to_string());
        }
        let m = &self.metrics;
        if m.submitted != m.completed + m.panicked + m.timed_out + m.aborted {
            return Err(format!(
                "server counters: submitted {} != completed {} + panicked {} \
                 + timed_out {} + aborted {}",
                m.submitted, m.completed, m.panicked, m.timed_out, m.aborted
            ));
        }
        T::check_balance(self)
    }

    /// Check that every OK completion is bitwise-identical to the
    /// fault-free output for its case; returns how many were checked.
    ///
    /// # Errors
    ///
    /// The first case whose surviving output diverges.
    pub fn check_parity(&self) -> Result<usize, String> {
        let mut checked = 0;
        for (case, outcome) in &self.outcomes {
            if let ChaosOutcome::Ok(output) = outcome {
                let expected = T::reference(*case);
                if *output != expected {
                    return Err(format!(
                        "case {case}: chaos output {output:?} != fault-free {expected:?}"
                    ));
                }
                checked += 1;
            }
        }
        Ok(checked)
    }
}

/// Derive a fault schedule from `seed` in the `NEUROSYM_FAILPOINTS`
/// grammar — a pure function, so CI only needs to log the seed for a
/// failure to reproduce locally. Panics are confined to
/// `serve::server::replica_run`; every other site gets error, delay, or
/// yield injections at seed-chosen rates.
pub fn chaos_schedule(seed: u64) -> String {
    let r = |salt: u64| splitmix64(seed ^ salt);
    let mut spec = Vec::new();
    // Always shake the contained-panic path: it is the heart of the
    // containment contract. Rate between 1-in-4 and 1-in-11.
    spec.push(format!(
        "serve::server::replica_run=panic@1in{}",
        4 + r(1) % 8
    ));
    if r(2) % 2 == 0 {
        spec.push(format!(
            "serve::server::admission=return_err@p0.{:02}s{}",
            1 + r(3) % 20,
            seed
        ));
    }
    if r(4) % 2 == 0 {
        spec.push(format!(
            "serve::queue::enqueue=return_err@1in{}",
            5 + r(5) % 10
        ));
    }
    if r(6) % 2 == 0 {
        spec.push(format!(
            "serve::server::batch_dispatch=delay({})@1in{}",
            50 + r(7) % 500,
            3 + r(8) % 5
        ));
    } else {
        spec.push("serve::server::batch_dispatch=yield@1in2".to_string());
    }
    spec.push(format!(
        "serve::server::replica_rebuild=delay({})",
        100 + r(9) % 400
    ));
    spec.push("serve::server::drain=yield".to_string());
    // Perturb the kernel pool's claim loop too (no error path there).
    spec.push(format!(
        "tensor::par::task_claim=yield@1in{}",
        2 + r(10) % 6
    ));
    spec.join(";")
}

/// Run one chaos episode: start a [`ChaosWorkload`] server behind
/// transport `T`, arm `fault_spec` (when given), offer
/// `config.requests` across [`CLIENTS`] client threads, shut down per
/// `config.shutdown`, then settle every request into the ledger.
///
/// With `fault_spec = None` this is the fault-free baseline of the same
/// traffic shape.
///
/// # Panics
///
/// On harness bugs (server or transport construction failure, poisoned
/// client threads) — never as part of the contract under test.
pub fn run_chaos<T: Transport>(config: &ChaosConfig, fault_spec: Option<&str>) -> ChaosReport<T> {
    let server = Server::builder(ServeConfig::default().workers(config.workers))
        .register("chaos", || Box::new(ChaosWorkload))
        .start()
        .expect("chaos server must start");
    let transport = T::attach(server);
    let _guard = fault_spec.map(FailpointGuard::arm_many);

    // Submit everything first, leaving requests unsettled so an
    // abort-mode shutdown has queued work to orphan.
    let per_client = config.requests.div_ceil(CLIENTS);
    let pending: Vec<(u64, T::Pending)> = std::thread::scope(|scope| {
        let transport = &transport;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let lo = (client * per_client).min(config.requests) as u64;
                let hi = ((client + 1) * per_client).min(config.requests) as u64;
                scope.spawn(move || transport.submit(lo..hi))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("chaos client thread"))
            .collect()
    });

    let live_workers_after_traffic = transport.server().live_workers();
    // Snapshots come after shutdown so every admitted request has
    // reached its terminal counter before the books are balanced.
    transport.shutdown(config.shutdown);
    let outcomes = pending
        .into_iter()
        .map(|(case, p)| (case, transport.settle(p)))
        .collect();
    ChaosReport {
        offered: config.requests,
        outcomes,
        metrics: transport.server().metrics_snapshot(),
        transport: transport.stats(),
        live_workers_after_traffic,
    }
}

/// The in-process transport: clients call [`Server::submit_blocking`]
/// directly and settle their [`Ticket`]s after shutdown.
#[derive(Debug)]
pub struct InProcess(Server);

impl Transport for InProcess {
    type Output = WorkloadOutput;
    type Pending = Result<Ticket, SubmitError>;
    type Stats = ();

    fn attach(server: Server) -> Self {
        InProcess(server)
    }

    fn server(&self) -> &Server {
        &self.0
    }

    fn submit(&self, cases: Range<u64>) -> Vec<(u64, Self::Pending)> {
        // Blocking on queue space, so a fault-free baseline admits every
        // request: rejections come only from armed admission/enqueue
        // failpoints, never from the harness outrunning its own queue.
        cases
            .map(|case| (case, self.0.submit_blocking("chaos", CaseInput::new(case))))
            .collect()
    }

    fn shutdown(&self, mode: ShutdownMode) {
        self.0.shutdown(mode);
    }

    fn settle(&self, pending: Self::Pending) -> ChaosOutcome {
        match pending {
            Err(SubmitError::QueueFull) => ChaosOutcome::Rejected,
            Err(_) => ChaosOutcome::Refused,
            Ok(ticket) => match ticket.wait_timeout(WATCHDOG) {
                None => ChaosOutcome::Deadlocked,
                Some(Ok(output)) => ChaosOutcome::Ok(output),
                Some(Err(error)) => error.into(),
            },
        }
    }

    fn stats(&self) {}

    fn reference(case: u64) -> WorkloadOutput {
        ChaosWorkload::expected(case)
    }

    /// In-process the ledger sees every admission decision, so it must
    /// match the server's `submitted` and `rejected` counters exactly.
    fn check_balance(report: &ChaosReport<Self>) -> Result<(), String> {
        let admitted = report.count(ChaosOutcome::admitted);
        let rejected = report.count(|o| matches!(o, ChaosOutcome::Rejected));
        let refused = report.count(|o| matches!(o, ChaosOutcome::Refused));
        let m = &report.metrics;
        if admitted as u64 != m.submitted {
            return Err(format!(
                "ledger admitted {admitted} != server submitted {}",
                m.submitted
            ));
        }
        if rejected as u64 != m.rejected {
            return Err(format!(
                "ledger rejected {rejected} != server rejected {}",
                m.rejected
            ));
        }
        if admitted + rejected + refused != report.offered {
            return Err(format!(
                "offered {} != admitted {admitted} + rejected {rejected} \
                 + refused {refused}",
                report.offered
            ));
        }
        Ok(())
    }
}
