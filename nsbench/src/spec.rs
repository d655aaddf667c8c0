//! What the benchmark runs: the three request classes, the three traffic
//! mixes built from them, the fixed run constants, and the catalog of
//! metric names each mode prints.
//!
//! Everything here is a constant on purpose: rates, mixes and connection
//! counts are part of the benchmark's definition (and of
//! `BENCHMARK.json`), not knobs, so two commits are always measured
//! under identical traffic.

use nsai_core::taxonomy::{OpCategory, Phase};
use nsai_workloads::perception::PerceptionMode;
use nsai_workloads::{Lnn, LnnConfig, Nvsa, NvsaConfig, Workload};

/// Measured window when `--seconds` is not given; equals `run_seconds`
/// in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 30;
/// Requests per class sent (closed loop) before the window, so lazy
/// set-up and cold caches are paid before metrics are reset.
pub const WARMUP_PER_CLASS: usize = 8;
/// The set-up (start serve and gateway, connect, warm up) is timed in two
/// rounds, one before the window and one after it, each of at least this
/// many set-ups; `setup_s` is the median over both rounds.
pub const SETUP_MIN_REPS: usize = 3;
/// Set-ups continue past [`SETUP_MIN_REPS`] until this much time has been
/// spent in the round, so a short set-up gets a median over many.
pub const SETUP_MIN_SECONDS: f64 = 1.5;
/// Most set-ups per round.
pub const SETUP_MAX_REPS: usize = 50;
/// Cases per class replayed directly under the profiler in a traced run.
pub const REPLAY_CASES: usize = 64;
/// The output check re-runs the first `CHECK_HEAD` served cases of each
/// class and every `CHECK_STRIDE`-th after that.
pub const CHECK_HEAD: usize = 32;
/// See [`CHECK_HEAD`].
pub const CHECK_STRIDE: usize = 64;
/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// One kind of request: a workload with a fixed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// `LnnConfig::small()`: about 1.1 ms direct, mostly symbolic.
    Lnn,
    /// `NvsaConfig::small()`, one problem, oracle perception at d = 1024:
    /// about 56 ms direct, about 91% symbolic over sparse PMFs.
    Nvsa,
    /// `NvsaConfig::small()`, one problem, neural perception at d = 128
    /// (the `serve` bin's config): about 5.6 ms direct, about 70% neural,
    /// dense PMFs.
    NvsaNeural,
}

impl Class {
    /// Every class, in metric-catalog order.
    pub const ALL: [Class; 3] = [Class::Lnn, Class::Nvsa, Class::NvsaNeural];

    /// Registered workload name and metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Class::Lnn => "lnn",
            Class::Nvsa => "nvsa",
            Class::NvsaNeural => "nvsa-neural",
        }
    }

    /// A fresh, unprepared replica.
    pub fn build(self) -> Box<dyn Workload + Send> {
        match self {
            Class::Lnn => Box::new(Lnn::new(LnnConfig::small())),
            Class::Nvsa => {
                let mut config = NvsaConfig::small();
                config.problems = 1;
                Box::new(Nvsa::new(config))
            }
            Class::NvsaNeural => {
                let mut config = NvsaConfig::small();
                config.problems = 1;
                config.mode = PerceptionMode::Neural;
                config.dim = 128;
                Box::new(Nvsa::new(config))
            }
        }
    }

    /// The tail percentile reported for this class: p99 for LNN, sent at
    /// 120-200 req/s; p95 for the NVSA classes, of which a closed loop
    /// completes 12-18 req/s (`nvsa`) and `mixed-open` sends 30 req/s
    /// (`nvsa-neural`).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Class::Lnn => 99.0,
            Class::Nvsa | Class::NvsaNeural => 95.0,
        }
    }
}

/// How arrivals are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals at `rate_hz`, each sent when due whether or not
    /// earlier requests have completed.
    Open {
        /// Offered rate over all classes, requests per second.
        rate_hz: f64,
    },
    /// One client that sends its next request when the previous response
    /// arrives.
    Closed,
}

/// How requests are spread over connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conns {
    /// Requests alternate over this many connections, by arrival index.
    Alternate(usize),
    /// Each class has its own connection, in `mix` order.
    PerClass,
}

/// One traffic mix.
#[derive(Debug)]
pub struct Spec {
    /// Workload name given to `--workload`.
    pub name: &'static str,
    /// Open or closed loop.
    pub arrivals: Arrivals,
    /// Classes and their shares of arrivals (shares sum to 1).
    pub mix: &'static [(Class, f64)],
    /// Connection layout.
    pub conns: Conns,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

impl Spec {
    /// Number of client connections.
    pub fn connections(&self) -> usize {
        match self.conns {
            Conns::Alternate(n) => n,
            Conns::PerClass => self.mix.len(),
        }
    }

    /// The connection arrival `index` of `class` is sent on.
    pub fn conn_of(&self, index: usize, class: Class) -> usize {
        match self.conns {
            Conns::Alternate(n) => index % n,
            Conns::PerClass => self
                .mix
                .iter()
                .position(|(c, _)| *c == class)
                .expect("class drawn from this mix"),
        }
    }

    /// The classes this workload sends.
    pub fn classes(&self) -> impl Iterator<Item = Class> + '_ {
        self.mix.iter().map(|(class, _)| *class)
    }
}

/// The benchmark's workloads.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "lnn-open",
        arrivals: Arrivals::Open { rate_hz: 200.0 },
        mix: &[(Class::Lnn, 1.0)],
        conns: Conns::Alternate(2),
        why: "open loop, 200 req/s of short LNN requests over 2 connections: wire framing, \
              socket, admission, straggler wait and batching make up most of the latency",
    },
    Spec {
        name: "nvsa-closed",
        arrivals: Arrivals::Closed,
        mix: &[(Class::Nvsa, 1.0)],
        conns: Conns::Alternate(1),
        why: "closed loop, 1 client on 1 connection: sparse symbolic VSA kernels dominate and \
              wire and queue time are under 2%, so gateway or batching changes should not move it",
    },
    Spec {
        name: "mixed-open",
        arrivals: Arrivals::Open { rate_hz: 150.0 },
        mix: &[(Class::Lnn, 0.8), (Class::NvsaNeural, 0.2)],
        conns: Conns::PerClass,
        why: "open loop, 150 req/s, 80% lnn + 20% nvsa-neural, one connection per class: a short \
              and a 5x longer class share one queue, so helping one class can cost the other",
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// One metric the benchmark prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Metric-name form of an operator category (`vec/elem` holds a `/`,
/// which metric names may not).
pub fn category_name(category: OpCategory) -> &'static str {
    match category {
        OpCategory::VectorElementwise => "elementwise",
        other => other.label(),
    }
}

/// Name of `class`'s tail-latency metric.
pub fn class_tail_name(class: Class) -> String {
    format!(
        "{}.latency_p{}_ms",
        class.name(),
        class.tail_percentile() as u32
    )
}

/// Metrics an untraced run prints, for every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
        def("goodput_rps", "1/s", "higher"),
        def("latency_p50_ms", "ms", "lower"),
        def("latency_p95_ms", "ms", "lower"),
    ]
}

/// Metrics a traced run prints, for every workload. Names are
/// `<layer>.<metric>`, with the repository's module names as layers and
/// the request classes as the layers of direct execution.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("loadgen.sent", "count", "higher"),
        def("loadgen.send_lag_p50_ms", "ms", "lower"),
        def("loadgen.send_lag_p99_ms", "ms", "lower"),
        def("loadgen.client_mean_ms", "ms", "lower"),
        def("gateway.socket_mean_ms", "ms", "lower"),
        def("gateway.handoff_mean_ms", "ms", "lower"),
        def("gateway.wire_p50_ms", "ms", "lower"),
        def("gateway.wire_p99_ms", "ms", "lower"),
        def("gateway.wire_mean_ms", "ms", "lower"),
        def("gateway.codec_us", "us", "lower"),
        def("gateway.frames_in", "count", "higher"),
        def("gateway.frames_out", "count", "higher"),
        def("gateway.window_rejected", "count", "lower"),
        def("gateway.decode_errors", "count", "lower"),
        def("gateway.peak_in_flight", "count", "lower"),
        def("serve.queue_wait_p50_ms", "ms", "lower"),
        def("serve.queue_wait_p99_ms", "ms", "lower"),
        def("serve.queue_wait_mean_ms", "ms", "lower"),
        def("serve.batch_size_mean", "count", "higher"),
        def("serve.batches", "count", "lower"),
        def("serve.queue_depth_peak", "count", "lower"),
        def("serve.service_p50_ms", "ms", "lower"),
        def("serve.service_p99_ms", "ms", "lower"),
        def("serve.service_mean_ms", "ms", "lower"),
        def("serve.total_mean_ms", "ms", "lower"),
        def("serve.delivery_mean_ms", "ms", "lower"),
        def("serve.rejected", "count", "lower"),
        def("serve.timed_out", "count", "lower"),
        def("serve.panicked", "count", "lower"),
    ];
    for class in Class::ALL {
        let c = class.name();
        defs.push(def(format!("{c}.latency_p50_ms"), "ms", "lower"));
        defs.push(def(class_tail_name(class), "ms", "lower"));
        defs.push(def(format!("{c}.run_case_ms"), "ms", "lower"));
        defs.push(def(format!("{c}.events"), "count", "lower"));
        for phase in Phase::ALL {
            defs.push(def(format!("{c}.{phase}_ms"), "ms", "lower"));
            for category in OpCategory::ALL {
                let cat = category_name(category);
                defs.push(def(format!("{c}.{phase}.{cat}_ms"), "ms", "lower"));
            }
            defs.push(def(format!("{c}.{phase}.mflop"), "MFLOP", "lower"));
            defs.push(def(format!("{c}.{phase}.mbytes"), "MB", "lower"));
        }
    }
    defs.extend([
        def("trace.latency_p50_ms", "ms", "lower"),
        def("trace.overhead_p50_frac", "ratio", "lower"),
        def("trace.batch_size_mean", "count", "higher"),
    ]);
    defs
}
