//! A test workload that parks the worker running it until the test
//! opens the gate.
//!
//! The batcher is greedy: a worker takes what is already queued behind
//! its first request and never waits for more. To form a batch without
//! racing the workers, a test parks every worker on a gate request,
//! queues its cases, then opens the gate; each worker's next claim takes
//! the queued cases up to `max_batch`. Shared by the serve crate's tests
//! and the workspace's `tests/serve_determinism.rs`.

use nsai_core::NsCategory;
use nsai_serve::{Server, ServerBuilder, Ticket};
use nsai_workloads::{CaseInput, Workload, WorkloadError, WorkloadOutput};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Longest a parked request waits for the gate to open, and a test for a
/// request to park. A failing test then ends instead of hanging in its
/// server's shutdown, which joins the parked worker.
const PATIENCE: Duration = Duration::from_secs(60);

#[derive(Debug, Default)]
struct State {
    parked: usize,
    open: bool,
}

/// The test's handle on the gate; every replica of the gate workload
/// shares it.
#[derive(Debug, Clone, Default)]
pub struct Gate(Arc<(Mutex<State>, Condvar)>);

impl Gate {
    /// The workload name [`Gate::register`] uses.
    pub const NAME: &'static str = "gate";

    /// Register the gate workload on `builder`.
    pub fn register(&self, builder: ServerBuilder) -> ServerBuilder {
        let gate = self.clone();
        builder.register(Self::NAME, move || Box::new(Parked(gate.clone())))
    }

    /// Park `workers` workers. Each gate request is submitted only once
    /// the one before it has parked, so an idle worker claims each.
    pub fn park(&self, server: &Server, workers: usize) -> Vec<Ticket> {
        (1..=workers)
            .map(|parked| {
                let ticket = server
                    .submit(Self::NAME, CaseInput::new(parked as u64))
                    .expect("gate request admitted");
                assert!(
                    self.wait_until(|s| s.parked >= parked),
                    "no worker parked within {PATIENCE:?}"
                );
                ticket
            })
            .collect()
    }

    /// Let every parked request, and every later one, through.
    pub fn open(&self) {
        let (lock, signal) = &*self.0;
        lock.lock().expect("gate lock").open = true;
        signal.notify_all();
    }

    /// Wait, for at most [`PATIENCE`], until `done` holds; whether it
    /// does.
    fn wait_until(&self, done: impl Fn(&State) -> bool) -> bool {
        let (lock, signal) = &*self.0;
        let guard = lock.lock().expect("gate lock");
        let (_guard, waited) = signal
            .wait_timeout_while(guard, PATIENCE, |s| !done(s))
            .expect("gate lock");
        !waited.timed_out()
    }
}

/// The workload behind [`Gate::NAME`].
#[derive(Debug)]
struct Parked(Gate);

impl Workload for Parked {
    fn name(&self) -> &'static str {
        Gate::NAME
    }

    fn category(&self) -> NsCategory {
        NsCategory::SymbolicNeuro
    }

    fn run_case(&mut self, _input: &CaseInput) -> Result<WorkloadOutput, WorkloadError> {
        {
            let (lock, signal) = &*self.0 .0;
            lock.lock().expect("gate lock").parked += 1;
            signal.notify_all();
        }
        if self.0.wait_until(|s| s.open) {
            Ok(WorkloadOutput::new())
        } else {
            Err(WorkloadError::Config(format!(
                "gate still shut after {PATIENCE:?}"
            )))
        }
    }
}
