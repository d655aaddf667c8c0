//! Percentiles, resident-memory reads, and the per-layer latency
//! waterfall.

use nsai_gateway::GatewayMetrics;
use nsai_serve::MetricsSnapshot;

/// Nearest-rank percentile `p` (0-100) of ascending `sorted` samples; 0
/// when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `values` (any order); 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Mean of `values`; 0 when there are none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples expected beyond percentile `p` among `n` samples.
pub fn beyond(n: f64, p: f64) -> f64 {
    n * (1.0 - p / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// One request's mean latency split into the layers it crosses, in ms.
///
/// The layers nest: the client sees the gateway's wire time plus the
/// socket; the gateway's wire time (decode to response written) holds
/// serve's total (submit to completion) plus the hand-off between them;
/// serve's total is queue wait, service and delivery. Means are used
/// because means add up, so the components sum to the client mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waterfall {
    /// Client latency, from due to response read.
    pub client: f64,
    /// Client mean minus gateway wire mean: send lag, client and kernel
    /// socket work, and the gateway's own reads and writes.
    pub socket: f64,
    /// Gateway wire mean minus serve total mean: decode to submit, and
    /// ticket wake-up to response encoded.
    pub handoff: f64,
    /// Submission to batch dispatch, including the straggler wait.
    pub queue_wait: f64,
    /// Batch execution, attributed to every request in the batch.
    pub service: f64,
    /// Serve total minus queue wait and service: completion bookkeeping.
    pub delivery: f64,
}

impl Waterfall {
    /// The waterfall of one window, from the client mean (ms) and the
    /// gateway and serve metrics of the same window.
    pub fn new(client: f64, gateway: &GatewayMetrics, serve: &MetricsSnapshot) -> Waterfall {
        let wire = gateway.wire_latency_us.mean() / 1e3;
        let total = serve.total_us.mean / 1e3;
        let queue_wait = serve.queue_wait_us.mean / 1e3;
        let service = serve.service_us.mean / 1e3;
        Waterfall {
            client,
            socket: client - wire,
            handoff: wire - total,
            queue_wait,
            service,
            delivery: total - queue_wait - service,
        }
    }

    /// The components, client side first.
    pub fn components(&self) -> [(&'static str, f64); 5] {
        [
            ("socket", self.socket),
            ("handoff", self.handoff),
            ("queue_wait", self.queue_wait),
            ("service", self.service),
            ("delivery", self.delivery),
        ]
    }

    /// Sum of the components.
    pub fn sum(&self) -> f64 {
        self.components().iter().map(|(_, ms)| ms).sum()
    }
}
