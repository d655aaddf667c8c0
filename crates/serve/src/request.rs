//! Requests in flight and the tickets clients wait on.

use nsai_core::profile::Scope;
use nsai_workloads::{CaseInput, WorkloadOutput};
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a served request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The workload returned an error (its message, since workload
    /// errors are not cloneable across the response channel).
    Workload(String),
    /// The replica panicked while executing this request's batch. The
    /// server rebuilt the replica; other requests are unaffected.
    WorkerPanicked,
    /// The request's time budget (configured via
    /// [`crate::ServeConfig::timeout`]) expired before a worker picked
    /// it up.
    DeadlineExceeded,
    /// The server shut down in [`crate::ShutdownMode::Abort`] mode
    /// before this request was dispatched.
    Aborted,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Workload(msg) => write!(f, "workload error: {msg}"),
            ServeError::WorkerPanicked => f.write_str("worker panicked while serving request"),
            ServeError::DeadlineExceeded => f.write_str("request deadline exceeded in queue"),
            ServeError::Aborted => f.write_str("server aborted before request was served"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The outcome a ticket resolves to.
pub type Response = Result<WorkloadOutput, ServeError>;

/// The write side of a response slot, held by the server.
#[derive(Debug)]
pub(crate) struct ResponseSlot {
    slot: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Default for ResponseSlot {
    fn default() -> Self {
        ResponseSlot {
            // Every slot instance shares one sanitizer label: the
            // static↔runtime lock-order cross-check treats the field as a
            // single lock identity, exactly like the static analyzer does.
            slot: Mutex::new(None).with_label("serve::request::slot"),
            ready: Condvar::new(),
        }
    }
}

impl ResponseSlot {
    /// Fulfill the slot and wake waiters. The first completion wins;
    /// late completions (e.g. an abort racing a worker) are dropped.
    pub(crate) fn complete(&self, response: Response) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(response);
            self.ready.notify_all();
        }
    }
}

/// A claim on one submitted request's eventual response.
///
/// Returned by [`crate::Server::submit`]; resolves exactly once. Waiting
/// never blocks the serving side — dropping an unwaited ticket is fine,
/// the response is simply discarded.
#[derive(Debug, Clone)]
pub struct Ticket {
    shared: Arc<ResponseSlot>,
}

impl Ticket {
    pub(crate) fn new() -> (Ticket, Arc<ResponseSlot>) {
        // nsai-lint: allow(hot-path-no-alloc): the ticket is the one per-request allocation — a single Arc pairing submission with reply; there is no cross-request free-list to reuse.
        let shared = Arc::new(ResponseSlot::default());
        (
            Ticket {
                shared: Arc::clone(&shared),
            },
            shared,
        )
    }

    /// Block until the response arrives.
    pub fn wait(&self) -> Response {
        let mut slot = self.shared.slot.lock();
        loop {
            if let Some(response) = slot.clone() {
                return response;
            }
            self.shared.ready.wait(&mut slot);
        }
    }

    /// Block for at most `timeout`; `None` means the response has not
    /// arrived yet (the request may still complete later).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock();
        loop {
            if let Some(response) = slot.clone() {
                return Some(response);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let _ = self.shared.ready.wait_for(&mut slot, deadline - now);
        }
    }
}

/// A queued request, as the dispatch loop sees it.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    /// Index into the server's registered-workload table.
    pub workload: usize,
    /// Episode selector.
    pub input: CaseInput,
    /// The submitter's captured profiling context (no-op scope when the
    /// submitter had no active profiler).
    pub scope: Scope,
    /// Where the response goes.
    pub slot: Arc<ResponseSlot>,
    /// Submission time, for queue-wait and end-to-end latency metrics.
    pub submitted_at: Instant,
    /// Absolute deadline derived from the server's request timeout.
    pub deadline: Option<Instant>,
}

impl QueuedRequest {
    /// Whether `other` may share a `run_batch` call with `self`: same
    /// workload, and events recorded into the same profiler (or none).
    pub fn batches_with(&self, other: &QueuedRequest) -> bool {
        self.workload == other.workload && self.scope.same_target(&other.scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_resolves_once_and_first_write_wins() {
        let (ticket, slot) = Ticket::new();
        assert!(ticket.wait_timeout(Duration::ZERO).is_none());
        slot.complete(Err(ServeError::Aborted));
        slot.complete(Err(ServeError::WorkerPanicked));
        assert_eq!(ticket.wait(), Err(ServeError::Aborted));
        assert_eq!(ticket.wait(), Err(ServeError::Aborted));
    }

    #[test]
    fn wait_timeout_returns_none_until_completion() {
        let (ticket, slot) = Ticket::new();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        slot.complete(Ok(WorkloadOutput::new()));
        assert!(ticket
            .wait_timeout(Duration::from_millis(5))
            .expect("completed")
            .is_ok());
    }

    #[test]
    fn wait_unblocks_across_threads() {
        let (ticket, slot) = Ticket::new();
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(10));
        slot.complete(Ok(WorkloadOutput::new()));
        assert!(waiter.join().unwrap().is_ok());
    }
}
