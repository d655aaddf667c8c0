//! The curated measurement suite behind `nsai-bench --bin perf`.
//!
//! Three sections, echoing the paper's measurement levels:
//!
//! 1. **Micro** — operator-level kernels (matmul, conv2d, elementwise
//!    with broadcast, reduction, FFT circular convolution, HV bind) at
//!    fixed shapes, each measured at every configured pool width;
//! 2. **Workloads** — full profiled runs of the registered workloads
//!    with per-phase breakdowns (neural vs. symbolic, the Fig. 3 split),
//!    `prepare` excluded as in the characterization protocol;
//! 3. **Serve** — a closed-loop sample through the serving runtime,
//!    including the queue-wait overhead the runtime adds on top of pure
//!    service time.
//!
//! The wire (loopback TCP through `nsai-gateway`) is not measured
//! here: `nsbench` measures it socket to socket, with a per-layer
//! waterfall.
//!
//! Every entry is seeded from the master seed, repeated K times with
//! the repetitions interleaved across the whole suite, and emits both
//! wall-clock samples (summarized by [`WallStats`]) and deterministic
//! [`Counters`]. The harness *verifies* determinism while measuring: a
//! counter set that changes between repetitions aborts the run — a
//! nondeterministic suite entry would make the exact-match gate flaky,
//! which is strictly worse than having no gate.
//!
//! [`WORKLOAD_SUITE`] is the workload manifest the `nsai-analyze`
//! `perf-suite-coverage` rule checks against `crates/workloads`: a
//! workload registered there but absent here fails the lint, so new
//! workloads cannot land unmeasured.

use super::report::{EntryKind, PerfEntry, PerfReport};
use super::stats::WallStats;
use nsai_core::counters::Counters;
use nsai_core::profile::Profiler;
use nsai_core::taxonomy::Phase;
use nsai_serve::loadgen::closed_loop;
use nsai_serve::{ServeConfig, Server, ShutdownMode};
use nsai_tensor::ops::conv::Conv2dParams;
use nsai_tensor::{par, Tensor};
use nsai_vsa::{Hypervector, VsaModel};
use nsai_workloads::{all_workloads_small, Workload};
use std::time::Instant;

/// Workload manifest: every workload registered in `crates/workloads`
/// must appear here (enforced by the `perf-suite-coverage` analyzer
/// rule), so the perf baseline always covers the full workload set.
pub const WORKLOAD_SUITE: &[&str] = &["lnn", "ltn", "nvsa", "nlm", "vsait", "zeroc", "prae"];

/// Pool widths the microbenchmarks run at by default: the exact serial
/// path and a real pool (the same pair the CI test matrix exercises).
pub const DEFAULT_WIDTHS: &[usize] = &[1, 4];

/// Default interleaved repetitions per entry.
pub const DEFAULT_REPETITIONS: usize = 5;

/// Default master seed.
pub const DEFAULT_SEED: u64 = 42;

/// Full configuration of one suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Master seed all per-entry seeds derive from.
    pub seed: u64,
    /// Interleaved repetitions per entry.
    pub repetitions: usize,
    /// Pool widths for the micro section.
    pub widths: Vec<usize>,
    /// Workloads for the workload section (subset of [`WORKLOAD_SUITE`]).
    pub workloads: Vec<String>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            seed: DEFAULT_SEED,
            repetitions: DEFAULT_REPETITIONS,
            widths: DEFAULT_WIDTHS.to_vec(),
            workloads: WORKLOAD_SUITE.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Why a suite run aborted.
#[derive(Debug)]
pub enum SuiteError {
    /// An entry's counters changed between same-seed repetitions — the
    /// measured code is nondeterministic and must be fixed before it
    /// can be gated.
    NonDeterministic {
        /// The offending entry.
        id: String,
        /// Per-key differences between repetition 0 and the later one.
        details: String,
    },
    /// A requested workload is not registered.
    UnknownWorkload(String),
    /// The serve section observed failed requests.
    ServeErrors {
        /// The offending entry.
        id: String,
        /// How many requests failed.
        errors: u64,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::NonDeterministic { id, details } => write!(
                f,
                "entry `{id}` is nondeterministic across same-seed repetitions: {details}"
            ),
            SuiteError::UnknownWorkload(name) => write!(
                f,
                "unknown workload `{name}` (valid: {})",
                WORKLOAD_SUITE.join(" ")
            ),
            SuiteError::ServeErrors { id, errors } => {
                write!(f, "entry `{id}`: {errors} served requests failed")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// One measured sample of one entry.
struct Sample {
    id: String,
    kind: EntryKind,
    wall_ns: u64,
    counters: Counters,
}

/// A suite measurement: warmed up once, then measured once per
/// repetition. One measurement may emit several entries (a workload run
/// emits total + per-phase).
trait Measurement {
    fn warmup(&mut self) -> Result<(), SuiteError>;
    fn measure(&mut self) -> Result<Vec<Sample>, SuiteError>;
}

// ---------------------------------------------------------------------
// Micro section
// ---------------------------------------------------------------------

/// An operator kernel at a fixed shape and pool width. Inputs are built
/// once (outside any profiler), so the recorded counters cover the
/// kernel alone.
struct MicroBench {
    id: String,
    width: usize,
    op: Box<dyn Fn()>,
}

impl Measurement for MicroBench {
    fn warmup(&mut self) -> Result<(), SuiteError> {
        // First parallel call spawns the shared pool's workers; keep
        // that cost (and cold caches) out of repetition 0.
        par::with_threads(self.width, || (self.op)());
        Ok(())
    }

    fn measure(&mut self) -> Result<Vec<Sample>, SuiteError> {
        let profiler = Profiler::new();
        let wall_ns = par::with_threads(self.width, || {
            let _active = profiler.activate();
            let started = Instant::now();
            (self.op)();
            started.elapsed().as_nanos() as u64
        });
        Ok(vec![Sample {
            id: self.id.clone(),
            kind: EntryKind::Micro,
            wall_ns,
            counters: Counters::from_report(&profiler.report()),
        }])
    }
}

/// The fixed-shape operator kernels, one [`MicroBench`] per (kernel,
/// width) pair. Shapes are sized to run in milliseconds even in debug
/// builds while still giving the pool real work at width 4.
/// A named kernel closure, boxed so one list can hold them all.
type KernelSpec = (&'static str, Box<dyn Fn()>);

fn micro_benches(seed: u64, widths: &[usize]) -> Vec<MicroBench> {
    let mut benches = Vec::new();
    for &width in widths {
        let specs: Vec<KernelSpec> = vec![
            ("micro/matmul/96x96x96", {
                let a = Tensor::rand_uniform(&[96, 96], -1.0, 1.0, seed ^ 0x11);
                let b = Tensor::rand_uniform(&[96, 96], -1.0, 1.0, seed ^ 0x12);
                Box::new(move || {
                    a.matmul(&b).expect("matmul shapes are fixed");
                })
            }),
            ("micro/conv2d/2x8x24x24_k3", {
                let input = Tensor::rand_uniform(&[2, 8, 24, 24], -1.0, 1.0, seed ^ 0x21);
                let weight = Tensor::rand_uniform(&[8, 8, 3, 3], -1.0, 1.0, seed ^ 0x22);
                Box::new(move || {
                    input
                        .conv2d(&weight, None, Conv2dParams::default())
                        .expect("conv shapes are fixed");
                })
            }),
            ("micro/elementwise/add_bcast_256x256", {
                let a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, seed ^ 0x31);
                let b = Tensor::rand_uniform(&[256], -1.0, 1.0, seed ^ 0x32);
                Box::new(move || {
                    a.add(&b).expect("broadcast add shapes are fixed");
                })
            }),
            ("micro/reduce/softmax_128x256", {
                let a = Tensor::rand_uniform(&[128, 256], -4.0, 4.0, seed ^ 0x41);
                Box::new(move || {
                    a.softmax().expect("softmax over fixed shape");
                })
            }),
            ("micro/fft/circconv_4096", {
                let a = Tensor::rand_uniform(&[4096], -1.0, 1.0, seed ^ 0x51);
                let b = Tensor::rand_uniform(&[4096], -1.0, 1.0, seed ^ 0x52);
                Box::new(move || {
                    a.circular_conv_fft(&b).expect("fft over fixed shape");
                })
            }),
            ("micro/vsa/bind_hrr_2048", {
                let a = Hypervector::random(VsaModel::Hrr, 2048, seed ^ 0x61);
                let b = Hypervector::random(VsaModel::Hrr, 2048, seed ^ 0x62);
                Box::new(move || {
                    a.bind(&b).expect("hrr bind over fixed dim");
                })
            }),
            ("micro/vsa/bind_bipolar_8192", {
                let a = Hypervector::random(VsaModel::Bipolar, 8192, seed ^ 0x71);
                let b = Hypervector::random(VsaModel::Bipolar, 8192, seed ^ 0x72);
                Box::new(move || {
                    a.bind(&b).expect("bipolar bind over fixed dim");
                })
            }),
        ];
        for (name, op) in specs {
            benches.push(MicroBench {
                id: format!("{name}/w{width}"),
                width,
                op,
            });
        }
    }
    benches
}

// ---------------------------------------------------------------------
// Workload section
// ---------------------------------------------------------------------

/// One registered workload, measured as a full profiled run with the
/// phase split. Always at width 1: the workload entries characterize
/// the algorithms; the pool's scaling is the micro section's job.
///
/// The instance is prepared once (training and codebook generation are
/// excluded from measurement, as in [`crate::profiled_run`]) and re-run every
/// repetition — the workloads' repeat-determinism contract makes the
/// runs bitwise-identical.
struct WorkloadBench {
    name: String,
    instance: Option<Box<dyn Workload>>,
}

impl Measurement for WorkloadBench {
    fn warmup(&mut self) -> Result<(), SuiteError> {
        let mut workload = workload_by_name(&self.name)?;
        workload
            .prepare()
            .unwrap_or_else(|e| panic!("workload {} failed to prepare: {e}", self.name));
        // One unprofiled run so repetition 0 doesn't pay cold caches.
        workload
            .run()
            .unwrap_or_else(|e| panic!("workload {} failed: {e}", self.name));
        self.instance = Some(workload);
        Ok(())
    }

    fn measure(&mut self) -> Result<Vec<Sample>, SuiteError> {
        let workload = self
            .instance
            .as_mut()
            .expect("warmup ran before measurement");
        let profiler = Profiler::new();
        let started = Instant::now();
        {
            let _active = profiler.activate();
            workload
                .run()
                .unwrap_or_else(|e| panic!("workload {} failed: {e}", self.name));
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        let report = profiler.report_for(&self.name);
        let mut samples = vec![Sample {
            id: format!("workload/{}/total", self.name),
            kind: EntryKind::Workload,
            wall_ns,
            counters: Counters::from_report(&report),
        }];
        for phase in Phase::ALL {
            samples.push(Sample {
                id: format!("workload/{}/{phase}", self.name),
                kind: EntryKind::Workload,
                wall_ns: report.phase_duration(phase).as_nanos() as u64,
                counters: Counters::for_phase(&report, phase),
            });
        }
        Ok(samples)
    }
}

fn workload_by_name(name: &str) -> Result<Box<dyn Workload>, SuiteError> {
    all_workloads_small()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| SuiteError::UnknownWorkload(name.to_string()))
}

// ---------------------------------------------------------------------
// Serve section
// ---------------------------------------------------------------------

const SERVE_WORKLOAD: &str = "lnn";
const SERVE_WORKERS: usize = 2;
const SERVE_QUEUE: usize = 32;
const SERVE_MAX_BATCH: usize = 8;
const SERVE_MAX_WAIT_US: u64 = 200;
const SERVE_CLIENTS: usize = 4;
const SERVE_PER_CLIENT: usize = 4;

/// A closed-loop sample through the serving runtime: total wall clock
/// for the request set, plus the median queue-wait (the overhead the
/// runtime adds on top of pure service time — the "serve overhead"
/// slice of the characterization).
struct ServeBench {
    seed: u64,
    server: Option<Server>,
}

impl ServeBench {
    fn start_server(&self) -> Server {
        Server::builder(
            ServeConfig::default()
                .workers(SERVE_WORKERS)
                .queue_capacity(SERVE_QUEUE)
                .max_batch(SERVE_MAX_BATCH)
                .max_wait_us(SERVE_MAX_WAIT_US),
        )
        .register(SERVE_WORKLOAD, || {
            Box::new(nsai_workloads::Lnn::new(nsai_workloads::LnnConfig::small()))
        })
        .start()
        .expect("serve bench server starts")
    }
}

impl Measurement for ServeBench {
    fn warmup(&mut self) -> Result<(), SuiteError> {
        // Start the server once (worker replicas prepare here) and push
        // one warm-up round through it.
        let server = self.start_server();
        closed_loop(&server, SERVE_WORKLOAD, SERVE_CLIENTS, 1, self.seed);
        server.reset_metrics();
        self.server = Some(server);
        Ok(())
    }

    fn measure(&mut self) -> Result<Vec<Sample>, SuiteError> {
        if self.server.is_none() {
            self.server = Some(self.start_server());
        }
        let server = self.server.as_ref().expect("server just ensured");
        server.reset_metrics();
        let requests = (SERVE_CLIENTS * SERVE_PER_CLIENT) as u64;
        let started = Instant::now();
        let records = closed_loop(
            server,
            SERVE_WORKLOAD,
            SERVE_CLIENTS,
            SERVE_PER_CLIENT,
            self.seed,
        );
        let wall_ns = started.elapsed().as_nanos() as u64;
        let ok = records.iter().filter(|r| r.response.is_ok()).count() as u64;
        let errors = requests - ok;
        let id = format!("serve/{SERVE_WORKLOAD}/closed_loop");
        if errors > 0 {
            return Err(SuiteError::ServeErrors { id, errors });
        }
        let metrics = server.metrics_snapshot();
        let mut counters = Counters::new();
        counters.set("requests", requests);
        counters.set("completed_ok", ok);
        counters.set("errors", errors);
        let mut queue_counters = Counters::new();
        queue_counters.set("requests", requests);
        Ok(vec![
            Sample {
                id,
                kind: EntryKind::Serve,
                wall_ns,
                counters,
            },
            Sample {
                // Median time a request spent queued before a worker
                // picked it up — the runtime's overhead slice.
                id: format!("serve/{SERVE_WORKLOAD}/queue_wait_p50"),
                kind: EntryKind::Serve,
                wall_ns: metrics.queue_wait_us.p50.saturating_mul(1_000),
                counters: queue_counters,
            },
        ])
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(ShutdownMode::Drain);
        }
    }
}

// ---------------------------------------------------------------------
// Suite driver
// ---------------------------------------------------------------------

/// Run the configured suite: warm up every measurement, then take
/// `repetitions` interleaved passes, verify counter determinism across
/// repetitions, and fold the samples into a [`PerfReport`].
///
/// `progress` receives one human-readable line per suite phase (pass
/// `|_| {}` to silence).
pub fn run_suite(
    config: &SuiteConfig,
    mut progress: impl FnMut(&str),
) -> Result<PerfReport, SuiteError> {
    for name in &config.workloads {
        if !WORKLOAD_SUITE.contains(&name.as_str()) {
            return Err(SuiteError::UnknownWorkload(name.clone()));
        }
    }

    let mut measurements: Vec<Box<dyn Measurement>> = Vec::new();
    for bench in micro_benches(config.seed, &config.widths) {
        measurements.push(Box::new(bench));
    }
    for name in &config.workloads {
        measurements.push(Box::new(WorkloadBench {
            name: name.clone(),
            instance: None,
        }));
    }
    measurements.push(Box::new(ServeBench {
        seed: config.seed,
        server: None,
    }));

    progress(&format!(
        "warming up {} measurements...",
        measurements.len()
    ));
    for m in measurements.iter_mut() {
        m.warmup()?;
    }

    // Interleaved repetitions: rep 0 of everything, then rep 1, ... so
    // host drift lands on all entries instead of the tail of one.
    let mut ids: Vec<String> = Vec::new();
    let mut kinds: Vec<EntryKind> = Vec::new();
    let mut walls: Vec<Vec<u64>> = Vec::new();
    let mut counters: Vec<Counters> = Vec::new();
    for rep in 0..config.repetitions.max(1) {
        progress(&format!(
            "repetition {}/{}...",
            rep + 1,
            config.repetitions.max(1)
        ));
        for m in measurements.iter_mut() {
            for sample in m.measure()? {
                match ids.iter().position(|id| *id == sample.id) {
                    None => {
                        ids.push(sample.id);
                        kinds.push(sample.kind);
                        walls.push(vec![sample.wall_ns]);
                        counters.push(sample.counters);
                    }
                    Some(i) => {
                        walls[i].push(sample.wall_ns);
                        if counters[i] != sample.counters {
                            let details: Vec<String> = counters[i]
                                .diff(&sample.counters)
                                .into_iter()
                                .map(|d| d.to_string())
                                .collect();
                            return Err(SuiteError::NonDeterministic {
                                id: ids[i].clone(),
                                details: details.join(", "),
                            });
                        }
                    }
                }
            }
        }
    }

    let mut report = PerfReport::new(config);
    for (((id, kind), wall), entry_counters) in ids.into_iter().zip(kinds).zip(&walls).zip(counters)
    {
        report.entries.push(PerfEntry {
            id,
            kind,
            wall: WallStats::from_samples(wall),
            counters: entry_counters,
        });
    }
    Ok(report)
}
