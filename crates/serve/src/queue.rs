//! Bounded FIFO admission queue shared by submitters and workers.
//!
//! The queue is the server's single point of backpressure: a push
//! beyond `capacity` fails immediately ([`PushError::Full`]) instead of
//! buffering, so under overload memory and queue wait stay bounded and
//! the excess is surfaced to callers. Workers pop from the head and may
//! additionally *steal* queued same-workload requests to form batches.

use crate::request::QueuedRequest;
use nsai_core::failpoint;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a push did not enqueue. The request is dropped with the error —
/// the submitter still holds the ticket and reports the failure itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity.
    Full,
    /// The server is shutting down; no new work is admitted.
    Closed,
}

struct QueueState {
    items: VecDeque<QueuedRequest>,
    closed: bool,
}

pub(crate) struct BoundedQueue {
    state: Mutex<QueueState>,
    /// Signalled on push and on close; idle workers wait here. Both
    /// `notify_all`: a close must wake every worker, and after a push
    /// the first woken worker to take the lock claims the request while
    /// the others find the queue empty and wait again.
    not_empty: Condvar,
    /// Signalled when space frees up; blocking submitters wait here.
    not_full: Condvar,
    capacity: usize,
}

impl BoundedQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            })
            .with_label("serve::queue::state"),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Current queue depth (items admitted but not yet claimed).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Non-blocking admission.
    pub(crate) fn try_push(&self, request: QueuedRequest) -> Result<usize, PushError> {
        // Chaos site: `return_err` drops the push as if the queue were at
        // capacity — backpressure injected below the admission check.
        if failpoint::fire("serve::queue::enqueue") {
            return Err(PushError::Full);
        }
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(request);
        let depth = state.items.len();
        self.not_empty.notify_all();
        Ok(depth)
    }

    /// Admission that waits for space instead of failing on `Full`. Used
    /// by closed-loop clients that model think-time-free resubmission. A
    /// zero-capacity queue can never gain space, so that still fails
    /// immediately.
    pub(crate) fn push_wait(&self, request: QueuedRequest) -> Result<usize, PushError> {
        if self.capacity == 0 {
            return self.try_push(request);
        }
        // Chaos site: see `try_push`.
        if failpoint::fire("serve::queue::enqueue") {
            return Err(PushError::Full);
        }
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(request);
                let depth = state.items.len();
                self.not_empty.notify_all();
                return Ok(depth);
            }
            self.not_full.wait(&mut state);
        }
    }

    /// Block until a request is available (returning it) or the queue is
    /// closed *and* empty (returning `None`, the worker's exit signal).
    pub(crate) fn pop_wait(&self) -> Option<QueuedRequest> {
        let mut state = self.state.lock();
        loop {
            if let Some(request) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(request);
            }
            if state.closed {
                return None;
            }
            self.not_empty.wait(&mut state);
        }
    }

    /// Steal the queued requests that share `batch[0]`'s workload and
    /// profiler target into `batch` until it holds `max_batch` entries.
    /// Never waits: a batch is whatever has already queued behind busy
    /// workers. FIFO order among stolen requests is preserved; other
    /// requests are left in place for other workers.
    pub(crate) fn fill_batch(&self, batch: &mut Vec<QueuedRequest>, max_batch: usize) {
        let mut state = self.state.lock();
        let mut i = 0;
        while batch.len() < max_batch && i < state.items.len() {
            if batch
                .first()
                .is_some_and(|head| head.batches_with(&state.items[i]))
            {
                // `i` is bounds-checked by the loop condition, so
                // `remove` cannot return `None`; the `else` arm keeps
                // the hot path panic-free regardless.
                let Some(request) = state.items.remove(i) else {
                    break;
                };
                batch.push(request);
                self.not_full.notify_one();
            } else {
                i += 1;
            }
        }
    }

    /// Stop admitting work. With `drain` the queued requests stay for
    /// workers to finish; otherwise they are removed and returned so the
    /// caller can fail their tickets. Idempotent.
    pub(crate) fn close(&self, drain: bool) -> Vec<QueuedRequest> {
        let mut state = self.state.lock();
        state.closed = true;
        let orphans = if drain {
            Vec::new()
        } else {
            state.items.drain(..).collect()
        };
        self.not_empty.notify_all();
        self.not_full.notify_all();
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Ticket;
    use nsai_core::profile::Scope;
    use nsai_workloads::CaseInput;
    use std::time::Instant;

    fn request(workload: usize, case: u64) -> QueuedRequest {
        let (_ticket, slot) = Ticket::new();
        QueuedRequest {
            workload,
            input: CaseInput::new(case),
            scope: Scope::capture(),
            slot,
            submitted_at: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn capacity_bounds_admission() {
        let queue = BoundedQueue::new(2);
        assert!(queue.try_push(request(0, 0)).is_ok());
        assert!(queue.try_push(request(0, 1)).is_ok());
        assert!(matches!(
            queue.try_push(request(0, 2)),
            Err(PushError::Full)
        ));
        assert_eq!(queue.len(), 2);
        queue.pop_wait().expect("queued");
        assert!(queue.try_push(request(0, 3)).is_ok());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let queue = BoundedQueue::new(0);
        assert!(matches!(
            queue.try_push(request(0, 0)),
            Err(PushError::Full)
        ));
        assert!(matches!(
            queue.push_wait(request(0, 0)),
            Err(PushError::Full)
        ));
    }

    #[test]
    fn close_unblocks_pop_and_rejects_push() {
        let queue = BoundedQueue::new(4);
        queue.close(true);
        assert!(queue.pop_wait().is_none());
        assert!(matches!(
            queue.try_push(request(0, 0)),
            Err(PushError::Closed)
        ));
    }

    #[test]
    fn drain_close_keeps_items_abort_close_returns_them() {
        let drain = BoundedQueue::new(4);
        drain.try_push(request(0, 0)).ok();
        assert!(drain.close(true).is_empty());
        assert!(drain.pop_wait().is_some());
        assert!(drain.pop_wait().is_none());

        let abort = BoundedQueue::new(4);
        abort.try_push(request(0, 0)).ok();
        abort.try_push(request(0, 1)).ok();
        assert_eq!(abort.close(false).len(), 2);
        assert!(abort.pop_wait().is_none());
    }

    #[test]
    fn fill_batch_steals_only_matching_workload_in_fifo_order() {
        let queue = BoundedQueue::new(8);
        for (w, c) in [(0, 0), (1, 10), (0, 1), (0, 2), (1, 11)] {
            queue.try_push(request(w, c)).ok();
        }
        let first = queue.pop_wait().expect("queued");
        assert_eq!(first.workload, 0);
        let mut batch = vec![first];
        queue.fill_batch(&mut batch, 3);
        let cases: Vec<u64> = batch.iter().map(|r| r.input.case).collect();
        assert_eq!(cases, vec![0, 1, 2]);
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn fill_batch_steals_only_the_same_profiler_target() {
        let queue = BoundedQueue::new(8);
        let profiler = nsai_core::profile::Profiler::new();
        queue.try_push(request(0, 0)).ok();
        {
            let _active = profiler.activate();
            queue.try_push(request(0, 1)).ok();
        }
        queue.try_push(request(0, 2)).ok();
        let mut batch = vec![queue.pop_wait().expect("queued")];
        queue.fill_batch(&mut batch, 8);
        let cases: Vec<u64> = batch.iter().map(|r| r.input.case).collect();
        assert_eq!(cases, vec![0, 2]);
        let mut traced = vec![queue.pop_wait().expect("queued")];
        queue.fill_batch(&mut traced, 8);
        assert_eq!(traced.len(), 1);
    }
}
