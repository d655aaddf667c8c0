//! Server tuning knobs.

use std::time::Duration;

/// Configuration for a [`crate::Server`].
///
/// The three scheduling knobs interact:
///
/// - `queue_capacity` bounds memory and tail latency under overload —
///   submissions beyond it are rejected, not buffered.
/// - `max_batch` caps how many same-workload requests a worker takes
///   in one `run_batch` call. Batching is greedy: the worker takes the
///   ones already queued behind its first request and never holds that
///   request waiting for more, so an idle server dispatches at once and
///   batches form only when requests queue behind busy workers.
/// - `workers` is the number of serving threads. Each executes kernels
///   through `nsai_tensor::par`, whose width is governed separately by
///   `NEUROSYM_THREADS`; nested submission degrades to serial there, so
///   `workers × NEUROSYM_THREADS` never oversubscribes by more than the
///   pool width. Concurrent workers do not share the pool either: it
///   runs one job at a time for the whole process, so a worker whose
///   kernel finds the job slot taken waits until the other job ends and
///   runs none of its chunks meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum queued (admitted but not yet dispatched) requests. A
    /// capacity of 0 rejects every submission — useful as a drain valve
    /// and in tests.
    pub queue_capacity: usize,
    /// Largest number of same-workload requests coalesced into one
    /// `run_batch` call. 1 disables batching.
    pub max_batch: usize,
    /// Number of worker threads (each owns one prepared replica per
    /// registered workload).
    pub workers: usize,
    /// Optional request time budget, measured from submission. A request
    /// still queued when its budget expires completes with
    /// [`crate::ServeError::DeadlineExceeded`] instead of running.
    pub timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            workers: 2,
            timeout: None,
        }
    }
}

impl ServeConfig {
    /// Set the queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the maximum batch size (clamped to at least 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Set the worker count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the per-request time budget.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_degenerate_values() {
        let c = ServeConfig::default().max_batch(0).workers(0);
        assert_eq!(c.max_batch, 1);
        assert_eq!(c.workers, 1);
    }
}
