//! End-to-end serving-runtime tests: admission control, overload
//! degradation, batching, shutdown semantics, panic containment, and
//! per-request tracing.

use nsai_core::profile::Profiler;
use nsai_core::NsCategory;
use nsai_serve::{ServeConfig, ServeError, Server, ShutdownMode, SubmitError};
use nsai_workloads::{CaseInput, Lnn, LnnConfig, Workload, WorkloadError, WorkloadOutput};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[path = "support/gate.rs"]
mod gate;
use gate::Gate;

/// Minimal deterministic workload for scheduling tests: output echoes
/// the case id, with optional per-case service time and a poison case
/// that panics.
#[derive(Debug)]
struct Echo {
    delay: Duration,
    panic_on: Option<u64>,
    executed: Arc<AtomicU64>,
}

impl Echo {
    fn new(delay: Duration, panic_on: Option<u64>, executed: Arc<AtomicU64>) -> Self {
        Echo {
            delay,
            panic_on,
            executed,
        }
    }
}

impl Workload for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn category(&self) -> NsCategory {
        NsCategory::SymbolicNeuro
    }

    fn run_case(&mut self, input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        if Some(input.case) == self.panic_on {
            panic!("poison case");
        }
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        let mut output = WorkloadOutput::new();
        output.set("case", input.case as f64);
        Ok(output)
    }
}

fn echo_server(
    config: ServeConfig,
    delay: Duration,
    panic_on: Option<u64>,
) -> (Server, Arc<AtomicU64>) {
    let executed = Arc::new(AtomicU64::new(0));
    let handle = Arc::clone(&executed);
    let server = Server::builder(config)
        .register("echo", move || {
            Box::new(Echo::new(delay, panic_on, Arc::clone(&handle)))
        })
        .start()
        .expect("echo prepares trivially");
    (server, executed)
}

#[test]
fn zero_capacity_queue_rejects_every_submission() {
    let (server, executed) = echo_server(
        ServeConfig::default().queue_capacity(0),
        Duration::ZERO,
        None,
    );
    for case in 0..8 {
        assert_eq!(
            server.submit("echo", CaseInput::new(case)).unwrap_err(),
            SubmitError::QueueFull
        );
    }
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.rejected, 8);
    assert_eq!(snapshot.submitted, 0);
    assert_eq!(executed.load(Ordering::Relaxed), 0);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn unknown_workload_is_refused_at_submit() {
    let (server, _) = echo_server(ServeConfig::default(), Duration::ZERO, None);
    assert_eq!(
        server.submit("nvsa", CaseInput::new(0)).unwrap_err(),
        SubmitError::UnknownWorkload("nvsa".to_string())
    );
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn overload_stays_bounded_and_sheds_the_excess() {
    const CAPACITY: usize = 4;
    let (server, _) = echo_server(
        ServeConfig::default()
            .queue_capacity(CAPACITY)
            .workers(1)
            .max_batch(1),
        Duration::from_millis(5),
        None,
    );
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for case in 0..64 {
        match server.submit("echo", CaseInput::new(case)) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    for ticket in &tickets {
        assert!(ticket.wait().is_ok());
    }
    let snapshot = server.metrics_snapshot();
    // The single 5 ms/request worker cannot keep up with a burst of 64:
    // admission must have shed load, and the queue never grew beyond
    // its capacity bound.
    assert!(rejected > 0, "burst should overflow the queue");
    assert_eq!(snapshot.rejected, rejected as u64);
    assert!(
        snapshot.queue_depth_peak <= CAPACITY as u64,
        "peak depth {} exceeds capacity {CAPACITY}",
        snapshot.queue_depth_peak
    );
    assert_eq!(snapshot.completed, tickets.len() as u64);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn queue_depth_peak_never_counts_a_claimed_request() {
    const CAPACITY: usize = 2;
    let executed = Arc::new(AtomicU64::new(0));
    let handle = Arc::clone(&executed);
    let gate = Gate::default();
    let server = gate
        .register(Server::builder(
            ServeConfig::default()
                .queue_capacity(CAPACITY)
                .workers(1)
                .max_batch(4),
        ))
        .register("echo", move || {
            Box::new(Echo::new(Duration::ZERO, None, Arc::clone(&handle)))
        })
        .start()
        .expect("echo prepares trivially");
    // The only worker has claimed the gate request and holds it, so the
    // queue fills to capacity behind it.
    let parked = gate.park(&server, 1);
    let tickets: Vec<_> = (1..=2)
        .map(|case| {
            server
                .submit("echo", CaseInput::new(case))
                .expect("admitted")
        })
        .collect();
    assert_eq!(
        server.metrics_snapshot().queue_depth_peak,
        CAPACITY as u64,
        "the peak must not count the request the worker already claimed"
    );
    // A new measurement window starts from the requests still queued.
    server.reset_metrics();
    assert_eq!(server.metrics_snapshot().queue_depth_peak, CAPACITY as u64);
    gate.open();
    server.shutdown(ShutdownMode::Drain);
    for ticket in parked.iter().chain(&tickets) {
        assert!(ticket.wait().is_ok());
    }
    assert_eq!(executed.load(Ordering::Relaxed), 2);
}

#[test]
fn drain_shutdown_serves_everything_admitted() {
    let (server, executed) = echo_server(
        ServeConfig::default().queue_capacity(64).workers(1),
        Duration::from_millis(2),
        None,
    );
    let tickets: Vec<_> = (0..16)
        .map(|case| server.submit("echo", CaseInput::new(case)).unwrap())
        .collect();
    server.shutdown(ShutdownMode::Drain);
    for ticket in &tickets {
        assert!(ticket.wait().is_ok(), "drain must complete admitted work");
    }
    assert_eq!(executed.load(Ordering::Relaxed), 16);
}

#[test]
fn abort_shutdown_fails_undispatched_requests() {
    let (server, _) = echo_server(
        ServeConfig::default()
            .queue_capacity(64)
            .workers(1)
            .max_batch(1),
        Duration::from_millis(10),
        None,
    );
    let tickets: Vec<_> = (0..16)
        .map(|case| server.submit("echo", CaseInput::new(case)).unwrap())
        .collect();
    server.shutdown(ShutdownMode::Abort);
    let outcomes: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
    let aborted = outcomes
        .iter()
        .filter(|r| **r == Err(ServeError::Aborted))
        .count();
    let served = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(aborted + served, 16);
    assert!(
        aborted > 0,
        "a 160 ms backlog cannot all dispatch instantly"
    );
    assert_eq!(server.metrics_snapshot().aborted, aborted as u64);
}

#[test]
fn a_lone_request_runs_at_once_as_a_batch_of_one() {
    let (server, _) = echo_server(
        ServeConfig::default()
            .queue_capacity(8)
            .workers(1)
            .max_batch(8),
        Duration::ZERO,
        None,
    );
    // Nothing queues behind the request: the worker runs it alone
    // instead of waiting for batch-mates.
    let ticket = server.submit("echo", CaseInput::new(7)).unwrap();
    let response = ticket
        .wait_timeout(Duration::from_secs(5))
        .expect("a lone request must run, not wait for batch-mates");
    assert_eq!(response.unwrap().metric("case"), Some(7.0));
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.batch_size.count, 1);
    assert_eq!(snapshot.batch_size.max, 1);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn worker_panic_poisons_only_its_request() {
    let (server, _) = echo_server(
        ServeConfig::default().queue_capacity(16).workers(1),
        Duration::ZERO,
        Some(13),
    );
    assert!(server
        .submit("echo", CaseInput::new(1))
        .unwrap()
        .wait()
        .is_ok());
    assert_eq!(
        server.submit("echo", CaseInput::new(13)).unwrap().wait(),
        Err(ServeError::WorkerPanicked)
    );
    // The replica was rebuilt; the server keeps serving.
    for case in [2, 3, 4] {
        let output = server
            .submit("echo", CaseInput::new(case))
            .unwrap()
            .wait()
            .expect("server must survive a workload panic");
        assert_eq!(output.metric("case"), Some(case as f64));
    }
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.panicked, 1);
    assert_eq!(snapshot.completed, 4);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn request_deadline_expires_in_queue() {
    let (server, _) = echo_server(
        ServeConfig::default()
            .queue_capacity(16)
            .workers(1)
            .max_batch(1)
            .timeout(Duration::from_millis(5)),
        Duration::from_millis(30),
        None,
    );
    // First request occupies the worker for 30 ms; the rest outlive
    // their 5 ms budget while queued.
    let first = server.submit("echo", CaseInput::new(0)).unwrap();
    let queued: Vec<_> = (1..4)
        .map(|case| server.submit("echo", CaseInput::new(case)).unwrap())
        .collect();
    assert!(first.wait().is_ok());
    for ticket in &queued {
        assert_eq!(ticket.wait(), Err(ServeError::DeadlineExceeded));
    }
    assert_eq!(server.metrics_snapshot().timed_out, 3);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn served_lnn_outputs_match_direct_execution() {
    let server = Server::builder(ServeConfig::default().workers(2).max_batch(4))
        .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
        .start()
        .unwrap();
    let cases: Vec<u64> = (0..6).collect();
    let tickets: Vec<_> = cases
        .iter()
        .map(|&case| server.submit_blocking("lnn", CaseInput::new(case)).unwrap())
        .collect();
    let served: Vec<_> = tickets.iter().map(|t| t.wait().unwrap()).collect();
    server.shutdown(ShutdownMode::Drain);

    let mut direct = Lnn::new(LnnConfig::small());
    direct.prepare().unwrap();
    for (case, output) in cases.iter().zip(&served) {
        let expected = direct.run_case(&CaseInput::new(*case)).unwrap();
        for (key, value) in expected.metrics() {
            assert_eq!(
                output.metric(key).map(f64::to_bits),
                Some(value.to_bits()),
                "served {key} for case {case} must match direct execution bitwise"
            );
        }
    }
}

#[test]
fn traced_request_lands_in_the_submitters_profiler() {
    let server = Server::builder(ServeConfig::default().workers(1))
        .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
        .start()
        .unwrap();
    let profiler = Profiler::new();
    let ticket = {
        let _active = profiler.activate();
        server.submit("lnn", CaseInput::new(0)).unwrap()
    };
    assert!(ticket.wait().is_ok());
    server.shutdown(ShutdownMode::Drain);
    let report = profiler.report();
    assert!(
        report.event_count() > 0,
        "request submitted under an active profiler must trace into it"
    );
}

#[test]
fn tracing_does_not_change_what_a_batch_executes() {
    // The one worker is parked behind an untraced gate request while the
    // four submissions queue, so they run as one batch, traced or not.
    let run = |profiler: Option<&Profiler>| {
        let gate = Gate::default();
        let server = gate
            .register(Server::builder(
                ServeConfig::default().workers(1).max_batch(4),
            ))
            .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
            .start()
            .unwrap();
        let parked = gate.park(&server, 1);
        let tickets: Vec<_> = {
            let _active = profiler.map(Profiler::activate);
            (0..4)
                .map(|case| server.submit("lnn", CaseInput::new(case)).unwrap())
                .collect()
        };
        gate.open();
        assert!(parked[0].wait().is_ok());
        let outputs: Vec<_> = tickets.iter().map(|t| t.wait().unwrap()).collect();
        server.shutdown(ShutdownMode::Drain);
        let m = server.metrics_snapshot();
        let counters = [
            m.submitted,
            m.completed,
            m.rejected,
            m.timed_out,
            m.panicked,
            m.aborted,
            m.rebuilt,
        ];
        (outputs, counters, m.batch_size)
    };
    let untraced = run(None);
    let profiler = Profiler::new();
    let traced = run(Some(&profiler));
    assert_eq!(
        (traced.2.count, traced.2.max),
        (2, 4),
        "the gate's batch of 1, then one batch of 4"
    );
    assert_eq!(traced, untraced);
    // The trace is that of one `run_batch` over all four cases, the call
    // untraced traffic makes — not of four `run_case` calls.
    let direct = Profiler::new();
    let mut replica = Lnn::new(LnnConfig::small());
    replica.prepare().unwrap();
    {
        let _active = direct.activate();
        let inputs: Vec<_> = (0..4).map(CaseInput::new).collect();
        assert!(replica.run_batch(&inputs).iter().all(Result::is_ok));
    }
    assert!(direct.report().event_count() > 0);
    assert_eq!(
        profiler.report().event_count(),
        direct.report().event_count(),
        "a traced batch must record exactly one run_batch into the submitter's profiler"
    );
}
