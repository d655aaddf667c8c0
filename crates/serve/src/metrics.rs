//! Lock-free aggregate serving metrics.
//!
//! All counters and histograms come from [`nsai_core::metrics`] and are
//! updated with relaxed atomics on the submit and worker hot paths — no
//! lock is ever taken to record an observation. [`MetricsSnapshot`]
//! freezes the current state into a plain serializable struct for
//! reports and assertions.

use nsai_core::metrics::{Counter, LogHistogram, PeakGauge};
use serde::Serialize;

/// Live serving metrics, shared between the server handle and workers.
///
/// Latency is split into its two serving components, all in
/// microseconds: `queue_wait_us` (submission to dispatch),
/// `service_us` (batch execution, attributed to every request in the
/// batch), and `total_us` (submission to completion, the end-to-end
/// figure a client observes).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests admitted to the queue.
    pub submitted: Counter,
    /// Requests completed with the workload's own result (ok or error).
    pub completed: Counter,
    /// Submissions rejected because the queue was at capacity.
    pub rejected: Counter,
    /// Requests that exceeded their deadline while queued.
    pub timed_out: Counter,
    /// Requests failed because their replica panicked mid-batch.
    pub panicked: Counter,
    /// Requests failed by an abort-mode shutdown before dispatch.
    pub aborted: Counter,
    /// Replica rebuilds after contained panics (a fleet-health signal:
    /// each rebuild re-runs the workload factory and `prepare`).
    pub rebuilt: Counter,
    /// Peak queue depth, as the queue counted it under its own lock on
    /// each admission.
    pub queue_depth: PeakGauge,
    /// Time from submission to dispatch, µs.
    pub queue_wait_us: LogHistogram,
    /// Batch execution time attributed to each request in it, µs.
    pub service_us: LogHistogram,
    /// End-to-end latency from submission to completion, µs.
    pub total_us: LogHistogram,
    /// Dispatched batch sizes (after deadline filtering).
    pub batch_size: LogHistogram,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            rejected: self.rejected.get(),
            timed_out: self.timed_out.get(),
            panicked: self.panicked.get(),
            aborted: self.aborted.get(),
            rebuilt: self.rebuilt.get(),
            queue_depth_peak: self.queue_depth.peak(),
            queue_wait_us: HistogramSnapshot::of(&self.queue_wait_us),
            service_us: HistogramSnapshot::of(&self.service_us),
            total_us: HistogramSnapshot::of(&self.total_us),
            batch_size: HistogramSnapshot::of(&self.batch_size),
        }
    }

    /// Zero everything for a fresh measurement window.
    /// [`Server::reset_metrics`](crate::Server::reset_metrics) then
    /// restarts the queue-depth peak from the current depth, since
    /// requests may be queued across the window boundary.
    pub fn reset(&self) {
        self.submitted.reset();
        self.completed.reset();
        self.rejected.reset();
        self.timed_out.reset();
        self.panicked.reset();
        self.aborted.reset();
        self.rebuilt.reset();
        self.queue_depth.reset();
        self.queue_wait_us.reset();
        self.service_us.reset();
        self.total_us.reset();
        self.batch_size.reset();
    }
}

/// Point-in-time summary of one [`LogHistogram`]. Percentiles are upper
/// bucket bounds, so they over-, never under-, estimate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Exact mean (sums are kept exactly, only percentiles are
    /// bucketed).
    pub mean: f64,
    /// Median upper bound.
    pub p50: u64,
    /// 95th-percentile upper bound.
    pub p95: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Largest recorded value, exact.
    pub max: u64,
    /// `(bucket_upper_bound, count)` pairs for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn of(histogram: &LogHistogram) -> Self {
        HistogramSnapshot {
            count: histogram.count(),
            mean: histogram.mean(),
            p50: histogram.percentile(50.0),
            p95: histogram.percentile(95.0),
            p99: histogram.percentile(99.0),
            max: histogram.max(),
            buckets: histogram.nonzero_buckets(),
        }
    }
}

/// Frozen copy of [`ServerMetrics`], serializable into reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests completed with the workload's own result.
    pub completed: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Requests expired while queued.
    pub timed_out: u64,
    /// Requests failed by a replica panic.
    pub panicked: u64,
    /// Requests failed by an abort-mode shutdown.
    pub aborted: u64,
    /// Replica rebuilds after contained panics.
    pub rebuilt: u64,
    /// Highest queue depth observed.
    pub queue_depth_peak: u64,
    /// Queue-wait latency, µs.
    pub queue_wait_us: HistogramSnapshot,
    /// Service (execution) latency, µs.
    pub service_us: HistogramSnapshot,
    /// End-to-end latency, µs.
    pub total_us: HistogramSnapshot,
    /// Dispatched batch-size distribution.
    pub batch_size: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_activity() {
        let m = ServerMetrics::new();
        m.submitted.add(10);
        m.completed.add(9);
        m.rejected.add(2);
        m.queue_depth.observe(3);
        m.queue_depth.observe(2);
        for v in [100, 200, 400, 800] {
            m.total_us.record(v);
        }
        m.batch_size.record(4);
        let s = m.snapshot();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.queue_depth_peak, 3);
        assert_eq!(s.total_us.count, 4);
        assert_eq!(s.total_us.max, 800);
        assert!(s.total_us.p50 >= 200);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.batch_size.count, 1);
        assert_eq!(s.batch_size.mean, 4.0);
    }

    #[test]
    fn reset_clears_counts_and_the_depth_peak() {
        let m = ServerMetrics::new();
        m.submitted.add(5);
        m.queue_depth.observe(4);
        m.reset();
        assert_eq!(m.submitted.get(), 0);
        assert_eq!(m.queue_depth.peak(), 0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = ServerMetrics::new();
        m.total_us.record(123);
        let s = m.snapshot();
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(json.contains("\"queue_depth_peak\""));
        assert!(json.contains("\"total_us\""));
    }
}
