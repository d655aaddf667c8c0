//! The serving loop: admission, worker-driven micro-batching, panic
//! containment, and graceful shutdown.

use crate::config::ServeConfig;
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{QueuedRequest, Response, ServeError, Ticket};
use nsai_core::failpoint;
use nsai_core::profile::Scope;
use nsai_workloads::{CaseInput, Workload, WorkloadError};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; back off or shed the request.
    QueueFull,
    /// No workload with this name was registered.
    UnknownWorkload(String),
    /// The server has begun shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("admission queue is full"),
            SubmitError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            SubmitError::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Stable admission-rejection codes, one per [`SubmitError`] variant.
///
/// A transport layer (the `nsai-gateway` wire protocol) must surface
/// *why* a request was not admitted — a client that cannot tell
/// "back off and retry" ([`RejectCode::QueueFull`]) from "this name
/// will never work" ([`RejectCode::UnknownWorkload`]) from "drain in
/// progress, go elsewhere" ([`RejectCode::ShuttingDown`]) retries
/// uselessly or gives up wrongly. [`SubmitError::reject_code`] is the
/// one sanctioned mapping; its match is exhaustive by construction, so
/// adding a `SubmitError` variant without a distinct code is a compile
/// error here rather than a silently collapsed status on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RejectCode {
    /// The admission queue was at capacity — transient; back off.
    QueueFull = 1,
    /// The workload name is not registered — permanent for this server.
    UnknownWorkload = 2,
    /// The server is draining or stopped — permanent for this server.
    ShuttingDown = 3,
}

impl RejectCode {
    /// Every code, in wire-value order. Tests iterate this to prove the
    /// mapping stays injective as variants are added.
    pub const ALL: [RejectCode; 3] = [
        RejectCode::QueueFull,
        RejectCode::UnknownWorkload,
        RejectCode::ShuttingDown,
    ];

    /// The stable wire value (`#[repr(u8)]` discriminant).
    pub fn wire_code(self) -> u8 {
        self as u8
    }
}

impl SubmitError {
    /// The typed rejection code for this error. Exhaustive on purpose:
    /// no wildcard arm, so every future variant must pick a distinct
    /// [`RejectCode`] (or extend the enum) at compile time.
    pub fn reject_code(&self) -> RejectCode {
        match self {
            SubmitError::QueueFull => RejectCode::QueueFull,
            SubmitError::UnknownWorkload(_) => RejectCode::UnknownWorkload,
            SubmitError::ShuttingDown => RejectCode::ShuttingDown,
        }
    }
}

/// Why [`ServerBuilder::start`] failed before serving anything.
#[derive(Debug)]
pub enum StartError {
    /// A workload replica failed to [`prepare`](Workload::prepare).
    Workload(WorkloadError),
    /// The OS refused to spawn a worker thread.
    Spawn(std::io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Workload(e) => write!(f, "replica preparation failed: {e}"),
            StartError::Spawn(e) => write!(f, "failed to spawn serve worker: {e}"),
        }
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StartError::Workload(e) => Some(e),
            StartError::Spawn(e) => Some(e),
        }
    }
}

impl From<WorkloadError> for StartError {
    fn from(e: WorkloadError) -> Self {
        StartError::Workload(e)
    }
}

/// How [`Server::shutdown`] treats work that is already admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admitting, but serve everything already queued before
    /// workers exit.
    Drain,
    /// Stop admitting and fail queued-but-undispatched requests with
    /// [`ServeError::Aborted`]. Batches already executing still finish
    /// (workloads are not preemptible).
    Abort,
}

type Factory = Box<dyn Fn() -> Box<dyn Workload + Send> + Send + Sync>;

struct Registration {
    name: String,
    factory: Factory,
}

/// Builds a [`Server`]: collects workload registrations, then
/// constructs and prepares every replica before any worker starts.
pub struct ServerBuilder {
    config: ServeConfig,
    registrations: Vec<Registration>,
}

impl fmt::Debug for ServerBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerBuilder")
            .field("config", &self.config)
            .field(
                "workloads",
                &self
                    .registrations
                    .iter()
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ServerBuilder {
    /// Register a workload under `name`. The factory is called once per
    /// worker at startup (each worker owns a private replica, so no
    /// lock is held while serving) and again whenever a replica must be
    /// rebuilt after a panic.
    pub fn register(
        mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Workload + Send> + Send + Sync + 'static,
    ) -> Self {
        self.registrations.push(Registration {
            name: name.into(),
            factory: Box::new(factory),
        });
        self
    }

    /// Construct and prepare all `workers × workloads` replicas, then
    /// start the worker threads. Preparation happens on the calling
    /// thread so configuration errors surface here rather than as
    /// failed requests.
    ///
    /// # Errors
    ///
    /// [`StartError::Workload`] when a replica fails to prepare,
    /// [`StartError::Spawn`] when a worker thread cannot be created.
    pub fn start(self) -> Result<Server, StartError> {
        let ServerBuilder {
            config,
            registrations,
        } = self;
        let shared = Arc::new(SharedState {
            config,
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: ServerMetrics::new(),
            registrations,
        });

        let mut replica_sets = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let mut replicas: Vec<Box<dyn Workload + Send>> =
                Vec::with_capacity(shared.registrations.len());
            for registration in &shared.registrations {
                let mut replica = (registration.factory)();
                replica.prepare()?;
                replicas.push(replica);
            }
            replica_sets.push(replicas);
        }

        let mut workers = Vec::with_capacity(config.workers);
        for (id, replicas) in replica_sets.into_iter().enumerate() {
            let shared_worker = Arc::clone(&shared);
            // Chaos site: `return_err` models the OS refusing the thread,
            // exercising the cleanup path below exactly as a real spawn
            // failure would.
            let spawned = if failpoint::fire("serve::server::worker_spawn") {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "failpoint serve::server::worker_spawn: injected spawn failure",
                ))
            } else {
                std::thread::Builder::new()
                    .name(format!("nsai-serve-{id}"))
                    .spawn(move || worker_loop(&shared_worker, replicas))
            };
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unblock the workers that did start before bailing.
                    shared.queue.close(false);
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(StartError::Spawn(e));
                }
            }
        }

        Ok(Server {
            shared,
            workers: parking_lot::Mutex::new(Some(workers)).with_label("serve::server::workers"),
        })
    }
}

struct SharedState {
    config: ServeConfig,
    queue: BoundedQueue,
    metrics: ServerMetrics,
    registrations: Vec<Registration>,
}

impl SharedState {
    fn workload_index(&self, name: &str) -> Option<usize> {
        self.registrations.iter().position(|r| r.name == name)
    }
}

/// In-process inference server. See the [crate docs](crate) for the
/// architecture; construct via [`Server::builder`].
pub struct Server {
    shared: Arc<SharedState>,
    /// `Some` while running; taken by the first shutdown.
    workers: parking_lot::Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.config)
            .field("queue_depth", &self.shared.queue.len())
            .finish()
    }
}

impl Server {
    /// Start describing a server with the given configuration.
    pub fn builder(config: ServeConfig) -> ServerBuilder {
        ServerBuilder {
            config,
            registrations: Vec::new(),
        }
    }

    /// Names of the registered workloads, in registration order.
    pub fn workloads(&self) -> Vec<&str> {
        self.shared
            .registrations
            .iter()
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Submit one request. Admission is immediate: the request is
    /// either queued (returning a [`Ticket`]) or rejected. The caller's
    /// profiling context ([`Scope::capture`]) rides along, so a request
    /// submitted under an active profiler is traced into it even though
    /// it executes on a worker thread.
    pub fn submit(&self, workload: &str, input: CaseInput) -> Result<Ticket, SubmitError> {
        let (ticket, request) = self.admit(workload, input)?;
        self.enqueued(self.shared.queue.try_push(request))?;
        Ok(ticket)
    }

    /// Like [`Server::submit`], but block while the queue is full
    /// instead of rejecting — the closed-loop client discipline. Still
    /// fails on a zero-capacity queue or during shutdown.
    pub fn submit_blocking(&self, workload: &str, input: CaseInput) -> Result<Ticket, SubmitError> {
        let (ticket, request) = self.admit(workload, input)?;
        self.enqueued(self.shared.queue.push_wait(request))?;
        Ok(ticket)
    }

    /// The admission steps both submit paths share, up to the push:
    /// resolve the workload, pass the admission failpoint, and build the
    /// queued request with its ticket.
    fn admit(
        &self,
        workload: &str,
        input: CaseInput,
    ) -> Result<(Ticket, QueuedRequest), SubmitError> {
        let shared = &self.shared;
        let index = shared
            .workload_index(workload)
            // nsai-lint: allow(hot-path-no-alloc): allocates only on the unknown-workload reject path; admitted requests never take this closure.
            .ok_or_else(|| SubmitError::UnknownWorkload(workload.to_string()))?;
        // Chaos site: `return_err` sheds the request at admission as if
        // the queue were full — the caller-visible backpressure path.
        if failpoint::fire("serve::server::admission") {
            shared.metrics.rejected.incr();
            return Err(SubmitError::QueueFull);
        }
        let now = Instant::now();
        let (ticket, slot) = Ticket::new();
        let request = QueuedRequest {
            workload: index,
            input,
            scope: Scope::capture(),
            slot,
            submitted_at: now,
            deadline: shared.config.timeout.map(|t| now + t),
        };
        Ok((ticket, request))
    }

    /// Count a push's outcome. The depth a successful push reports was
    /// read under the queue lock, so the peak is the true queue depth.
    fn enqueued(&self, pushed: Result<usize, PushError>) -> Result<(), SubmitError> {
        let metrics = &self.shared.metrics;
        match pushed {
            Ok(depth) => {
                metrics.submitted.incr();
                metrics.queue_depth.observe(depth as u64);
                Ok(())
            }
            Err(PushError::Full) => {
                metrics.rejected.incr();
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Live aggregate metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Number of worker threads still running (0 after shutdown). Chaos
    /// tests use this to assert the serving pool keeps its full width
    /// through injected replica panics — workers contain panics and
    /// rebuild rather than dying.
    pub fn live_workers(&self) -> usize {
        self.workers.lock().as_ref().map_or(0, |workers| {
            workers.iter().filter(|w| !w.is_finished()).count()
        })
    }

    /// Freeze the current metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Zero the metrics for a fresh measurement window without
    /// restarting (and re-preparing) the server. The queue-depth peak
    /// restarts from the requests still queued.
    pub fn reset_metrics(&self) {
        self.shared.metrics.reset();
        self.shared
            .metrics
            .queue_depth
            .observe(self.shared.queue.len() as u64);
    }

    /// Stop the server and join its workers. Idempotent; the second
    /// call is a no-op. See [`ShutdownMode`] for what happens to
    /// already-admitted requests.
    pub fn shutdown(&self, mode: ShutdownMode) {
        let Some(workers) = self.workers.lock().take() else {
            return;
        };
        // Chaos site: stretch the window between deciding to shut down
        // and closing the queue (`delay`/`yield`; `return_err` ignored —
        // shutdown must always run to completion).
        let _ = failpoint::fire("serve::server::drain");
        let orphans = self.shared.queue.close(matches!(mode, ShutdownMode::Drain));
        for request in orphans {
            self.shared.metrics.aborted.incr();
            request.slot.complete(Err(ServeError::Aborted));
        }
        for worker in workers {
            // A worker that panicked outside `catch_unwind` (a bug, not
            // a workload panic) surfaces here rather than hanging.
            worker.join().expect("serve worker exited cleanly");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown(ShutdownMode::Abort);
    }
}

/// One worker: pop, coalesce, filter expired, execute, deliver.
fn worker_loop(shared: &SharedState, mut replicas: Vec<Box<dyn Workload + Send>>) {
    while let Some(first) = shared.queue.pop_wait() {
        let workload = first.workload;
        let mut batch = vec![first];
        if shared.config.max_batch > 1 {
            shared.queue.fill_batch(&mut batch, shared.config.max_batch);
        }

        let dispatched_at = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for request in batch {
            if request.deadline.is_some_and(|d| dispatched_at > d) {
                shared.metrics.timed_out.incr();
                request.slot.complete(Err(ServeError::DeadlineExceeded));
            } else {
                shared
                    .metrics
                    .queue_wait_us
                    .record(micros_between(request.submitted_at, dispatched_at));
                live.push(request);
            }
        }
        if live.is_empty() {
            continue;
        }
        shared.metrics.batch_size.record(live.len() as u64);
        // Chaos site: perturb the window between coalescing a batch and
        // executing it (`delay`/`yield` schedules only; `return_err` is
        // ignored — there is no error path between claim and dispatch —
        // and a `panic` here would be a server bug surfacing at join).
        let _ = failpoint::fire("serve::server::batch_dispatch");

        // Every request in the batch shares one profiler target (see
        // `BoundedQueue::fill_batch`), so entering the first one's scope
        // traces the whole batch, through the same `run_batch` call
        // untraced traffic takes.
        let inputs: Vec<CaseInput> = live.iter().map(|r| r.input).collect();
        let replica = &mut replicas[workload];
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _guard = live.first().map(|r| r.scope.enter());
            // Chaos site: a `panic` exercises containment + rebuild;
            // `return_err` fails every request in the batch with a
            // workload error, bypassing execution.
            if failpoint::fire("serve::server::replica_run") {
                return inputs
                    .iter()
                    .map(|_| Err(injected_replica_error()))
                    .collect();
            }
            replica.run_batch(&inputs)
        }));
        let service_us = micros_between(started, Instant::now());
        match outcome {
            Ok(results) => {
                debug_assert_eq!(results.len(), live.len());
                for (request, result) in live.into_iter().zip(results) {
                    deliver(shared, request, result.map_err(workload_error), service_us);
                }
            }
            Err(_) => fail_batch_and_rebuild(shared, workload, replica, live, service_us),
        }
    }
}

fn workload_error(error: WorkloadError) -> ServeError {
    ServeError::Workload(error.to_string())
}

/// The error an armed `serve::server::replica_run` failpoint injects in
/// place of executing the replica.
fn injected_replica_error() -> WorkloadError {
    WorkloadError::Config("failpoint serve::server::replica_run: injected error".to_string())
}

fn deliver(shared: &SharedState, request: QueuedRequest, response: Response, service_us: u64) {
    shared.metrics.service_us.record(service_us);
    shared
        .metrics
        .total_us
        .record(micros_between(request.submitted_at, Instant::now()));
    shared.metrics.completed.incr();
    request.slot.complete(response);
}

/// A workload panic poisons only its batch: every request in it fails
/// with [`ServeError::WorkerPanicked`], the replica is rebuilt from its
/// factory, and the worker keeps serving.
fn fail_batch_and_rebuild(
    shared: &SharedState,
    workload: usize,
    replica: &mut Box<dyn Workload + Send>,
    batch: Vec<QueuedRequest>,
    service_us: u64,
) {
    for request in batch {
        shared.metrics.panicked.incr();
        shared.metrics.service_us.record(service_us);
        shared
            .metrics
            .total_us
            .record(micros_between(request.submitted_at, Instant::now()));
        request.slot.complete(Err(ServeError::WorkerPanicked));
    }
    // Chaos site: stretch the rebuild window so more traffic piles onto
    // the surviving replicas (`delay`/`yield`; `return_err` ignored — the
    // replica must always be replaced).
    let _ = failpoint::fire("serve::server::replica_rebuild");
    let mut fresh = (shared.registrations[workload].factory)();
    // A prepare error here is not fatal: the replaced replica reports
    // it per-request via `run_case`'s own prepare path.
    let _ = fresh.prepare();
    *replica = fresh;
    shared.metrics.rebuilt.incr();
}

fn micros_between(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_submit_error_maps_to_a_unique_wire_code() {
        // One variant of each kind; if SubmitError grows a variant the
        // exhaustive match in `reject_code` breaks the build before this
        // test can even miss it.
        let variants = [
            SubmitError::QueueFull,
            SubmitError::UnknownWorkload("x".to_string()),
            SubmitError::ShuttingDown,
        ];
        let codes: BTreeSet<u8> = variants
            .iter()
            .map(|e| e.reject_code().wire_code())
            .collect();
        assert_eq!(
            codes.len(),
            variants.len(),
            "reject codes collapsed: {codes:?}"
        );
        // The catalog constant covers exactly the reachable codes.
        let all: BTreeSet<u8> = RejectCode::ALL.iter().map(|c| c.wire_code()).collect();
        assert_eq!(all, codes);
        // Code 0 is reserved for OK on every wire protocol.
        assert!(!codes.contains(&0), "0 must stay reserved for OK");
    }
}
