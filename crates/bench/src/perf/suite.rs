//! The curated measurement suite behind `nsai-bench --bin perf`, the
//! repo's one in-process measurement harness.
//!
//! Four sections, echoing the paper's measurement levels:
//!
//! 1. **Micro** — operator-level kernels (matmul, conv2d, elementwise
//!    with broadcast, reduction, FFT circular convolution, HV bind) at
//!    fixed shapes, each measured at every configured pool width;
//! 2. **Workloads** — full profiled runs of the registered workloads
//!    with per-phase breakdowns (neural vs. symbolic, the Fig. 3 split),
//!    `prepare` excluded as in the characterization protocol;
//! 3. **Serve** — a closed-loop sample through the serving runtime,
//!    including the queue-wait overhead the runtime adds on top of pure
//!    service time, batched and with batching off (`_unbatched`);
//! 4. **Ablations** — both sides of each design choice DESIGN.md §6
//!    names, at one fixed shape, under `ablate/<lever>/<variant>/<shape>`:
//!    direct vs FFT circular convolution, linear-scan vs early-exit
//!    cleanup, dense vs sparsity-aware superposition, dense vs CSR
//!    matvec and GEMM, direct vs im2col convolution, NVSA at two
//!    hypervector dims, and forward/backward chaining. These run at
//!    width 1 like the workloads; the two levers that depend on pool
//!    width (rule scoring and batched cleanup) run at every width. The
//!    VSA and logic levers run under the symbolic phase, as they would
//!    inside a workload.
//!    Work counters tell the two sides of a lever apart exactly, so a
//!    ratio the docs quote cannot go stale without failing the gate.
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
use nsai_core::profile::{phase_scope, Profiler};
use nsai_core::taxonomy::Phase;
use nsai_data::logic_kb::{university_kb, UniversityConfig};
use nsai_logic::{Atom, KnowledgeBase, Rule, Term};
use nsai_serve::loadgen::closed_loop;
use nsai_serve::{ServeConfig, Server, ShutdownMode};
use nsai_tensor::ops::conv::Conv2dParams;
use nsai_tensor::{par, CooMatrix, Tensor};
use nsai_vsa::{Codebook, Hypervector, VsaModel};
use nsai_workloads::{all_workloads_small, Nvsa, NvsaConfig, Workload};
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
    op: Box<dyn FnMut()>,
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

/// A named kernel closure, boxed so one list can hold them all.
type KernelSpec = (String, Box<dyn FnMut()>);

fn spec(name: impl Into<String>, op: impl FnMut() + 'static) -> KernelSpec {
    (name.into(), Box::new(op))
}

/// A [`spec`] for a symbolic kernel: its work counts under `symbolic.*`
/// rather than under the profiler's default phase, as it would inside a
/// workload's symbolic stage.
fn symbolic(name: impl Into<String>, mut op: impl FnMut() + 'static) -> KernelSpec {
    spec(name, move || {
        let _symbolic = phase_scope(Phase::Symbolic);
        op();
    })
}

/// One [`MicroBench`] per (kernel, width) pair, ids suffixed `/w<width>`.
/// `specs` builds fresh inputs for each width.
fn at_widths(widths: &[usize], specs: impl Fn() -> Vec<KernelSpec>) -> Vec<MicroBench> {
    let mut benches = Vec::new();
    for &width in widths {
        for (name, op) in specs() {
            benches.push(MicroBench {
                id: format!("{name}/w{width}"),
                width,
                op,
            });
        }
    }
    benches
}

/// The fixed-shape operator kernels. Shapes are sized to run in
/// milliseconds even in debug builds while still giving the pool real
/// work at width 4.
fn kernel_specs(seed: u64) -> Vec<KernelSpec> {
    vec![
        {
            let a = Tensor::rand_uniform(&[96, 96], -1.0, 1.0, seed ^ 0x11);
            let b = Tensor::rand_uniform(&[96, 96], -1.0, 1.0, seed ^ 0x12);
            spec("micro/matmul/96x96x96", move || {
                a.matmul(&b).expect("matmul shapes are fixed");
            })
        },
        {
            let input = Tensor::rand_uniform(&[2, 8, 24, 24], -1.0, 1.0, seed ^ 0x21);
            let weight = Tensor::rand_uniform(&[8, 8, 3, 3], -1.0, 1.0, seed ^ 0x22);
            spec("micro/conv2d/2x8x24x24_k3", move || {
                input
                    .conv2d(&weight, None, Conv2dParams::default())
                    .expect("conv shapes are fixed");
            })
        },
        {
            let a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, seed ^ 0x31);
            let b = Tensor::rand_uniform(&[256], -1.0, 1.0, seed ^ 0x32);
            spec("micro/elementwise/add_bcast_256x256", move || {
                a.add(&b).expect("broadcast add shapes are fixed");
            })
        },
        {
            let a = Tensor::rand_uniform(&[128, 256], -4.0, 4.0, seed ^ 0x41);
            spec("micro/reduce/softmax_128x256", move || {
                a.softmax().expect("softmax over fixed shape");
            })
        },
        {
            let a = Tensor::rand_uniform(&[4096], -1.0, 1.0, seed ^ 0x51);
            let b = Tensor::rand_uniform(&[4096], -1.0, 1.0, seed ^ 0x52);
            spec("micro/fft/circconv_4096", move || {
                a.circular_conv_fft(&b).expect("fft over fixed shape");
            })
        },
        {
            let a = Hypervector::random(VsaModel::Hrr, 2048, seed ^ 0x61);
            let b = Hypervector::random(VsaModel::Hrr, 2048, seed ^ 0x62);
            spec("micro/vsa/bind_hrr_2048", move || {
                a.bind(&b).expect("hrr bind over fixed dim");
            })
        },
        {
            let a = Hypervector::random(VsaModel::Bipolar, 8192, seed ^ 0x71);
            let b = Hypervector::random(VsaModel::Bipolar, 8192, seed ^ 0x72);
            spec("micro/vsa/bind_bipolar_8192", move || {
                a.bind(&b).expect("bipolar bind over fixed dim");
            })
        },
    ]
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
const SERVE_PER_CLIENT: usize = 4;
/// Client counts of the closed-loop pairs: 4, twice the workers, and 16,
/// a saturating load where most requests queue behind busy workers.
const SERVE_CLIENTS: usize = 4;
const SERVE_SATURATING_CLIENTS: usize = 16;

/// A closed-loop sample through the serving runtime: total wall clock
/// for the request set, plus the median queue-wait (the overhead the
/// runtime adds on top of pure service time — the "serve overhead"
/// slice of the characterization). With `max_batch` 1 the same request
/// set runs unbatched, under ids suffixed `_unbatched`, so the pair
/// reads as the batching effect at this load. Both sides record the
/// same counters; only `max_batch` tells them apart. Ids of the
/// saturating client count carry a `_16c` suffix.
struct ServeBench {
    seed: u64,
    clients: usize,
    max_batch: usize,
    server: Option<Server>,
}

impl ServeBench {
    fn new(seed: u64, clients: usize, max_batch: usize) -> Self {
        ServeBench {
            seed,
            clients,
            max_batch,
            server: None,
        }
    }

    fn id(&self, name: &str) -> String {
        let clients = if self.clients == SERVE_CLIENTS {
            String::new()
        } else {
            format!("_{}c", self.clients)
        };
        let batching = if self.max_batch == 1 {
            "_unbatched"
        } else {
            ""
        };
        format!("serve/{SERVE_WORKLOAD}/{name}{clients}{batching}")
    }

    fn start_server(&self) -> Server {
        Server::builder(
            ServeConfig::default()
                .workers(SERVE_WORKERS)
                .queue_capacity(SERVE_QUEUE)
                .max_batch(self.max_batch),
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
        closed_loop(&server, SERVE_WORKLOAD, self.clients, 1, self.seed);
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
        let requests = (self.clients * SERVE_PER_CLIENT) as u64;
        let started = Instant::now();
        let records = closed_loop(
            server,
            SERVE_WORKLOAD,
            self.clients,
            SERVE_PER_CLIENT,
            self.seed,
        );
        let wall_ns = started.elapsed().as_nanos() as u64;
        let ok = records.iter().filter(|r| r.response.is_ok()).count() as u64;
        let errors = requests - ok;
        let id = self.id("closed_loop");
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
                id: self.id("queue_wait_p50"),
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
// Ablation section
// ---------------------------------------------------------------------

/// The width-1 design-choice ablations: both sides of each lever at one
/// fixed shape (the shape EXPERIMENTS.md quotes, shrunk where a debug
/// build needs it), so each pair of ids reads as one lever's ratio.
fn ablation_specs(seed: u64) -> Vec<KernelSpec> {
    let mut specs = Vec::new();

    // Circular convolution: direct O(d²) vs FFT O(d log d).
    let a = Tensor::rand_uniform(&[1024], -1.0, 1.0, seed ^ 0x81);
    let b = Tensor::rand_uniform(&[1024], -1.0, 1.0, seed ^ 0x82);
    let (a2, b2) = (a.clone(), b.clone());
    specs.push(symbolic("ablate/circconv/direct/d1024", move || {
        a.circular_conv_direct(&b).expect("same length");
    }));
    specs.push(symbolic("ablate/circconv/fft/d1024", move || {
        a2.circular_conv_fft(&b2).expect("power of two");
    }));

    // Codebook cleanup of a noisy mid-table entry: full linear scan vs
    // stopping at the first similarity over 0.4.
    let cb = symbol_codebook(2048, 256, seed ^ 0x91);
    let noise = Hypervector::random(VsaModel::Bipolar, 2048, seed ^ 0x92);
    let query = Hypervector::bundle(&[cb.at(128).expect("in range"), &noise]).expect("compatible");
    let (cb2, query2) = (cb.clone(), query.clone());
    specs.push(symbolic("ablate/cleanup/linear_scan/256x2048", move || {
        cb.cleanup(&query).expect("non-empty");
    }));
    specs.push(symbolic("ablate/cleanup/early_exit/256x2048", move || {
        cb2.cleanup_early_exit(&query2, 0.4).expect("non-empty");
    }));

    // PMF→VSA superposition (Fig. 5, Recommendation 7): dense
    // multiply-accumulate over every entry vs `encode_pmf`, which skips
    // zero-mass entries; at full density the two do the same work.
    let cb = symbol_codebook(4096, 64, seed ^ 0xa1);
    let mut one_hot = vec![0.0f32; 64];
    one_hot[0] = 1.0;
    let total: f32 = (1..=64).map(|i| 1.0 / i as f32).sum();
    let full: Vec<f32> = (1..=64).map(|i| 1.0 / i as f32 / total).collect();
    let (cb2, cb3, one_hot2) = (cb.clone(), cb.clone(), one_hot.clone());
    specs.push(symbolic("ablate/superpose/dense/64x4096_1hot", move || {
        superpose_dense(&cb, &one_hot);
    }));
    specs.push(symbolic(
        "ablate/superpose/sparse/64x4096_1hot",
        move || {
            cb2.encode_pmf(&one_hot2).expect("matching length");
        },
    ));
    specs.push(symbolic(
        "ablate/superpose/sparse/64x4096_full",
        move || {
            cb3.encode_pmf(&full).expect("matching length");
        },
    ));

    // Dense vs CSR at 95% zeros: matrix-vector and matrix-matrix.
    let dense = sparse_95(256, seed ^ 0xb1);
    let csr = CooMatrix::from_dense(&dense).expect("matrix").to_csr();
    let v = Tensor::rand_uniform(&[256], -1.0, 1.0, seed ^ 0xb2);
    let v2 = v.clone();
    specs.push(spec("ablate/spmv/dense/256_95pct_zero", move || {
        dense.matvec(&v).expect("shapes match");
    }));
    specs.push(spec("ablate/spmv/csr/256_95pct_zero", move || {
        csr.spmv(&v2).expect("shapes match");
    }));
    let dense = sparse_95(128, seed ^ 0xb3);
    let csr = CooMatrix::from_dense(&dense).expect("matrix").to_csr();
    let rhs = Tensor::rand_uniform(&[128, 128], -1.0, 1.0, seed ^ 0xb4);
    let rhs2 = rhs.clone();
    specs.push(spec("ablate/spmm/dense/128_95pct_zero", move || {
        dense.matmul(&rhs).expect("shapes match");
    }));
    specs.push(spec("ablate/spmm/csr/128_95pct_zero", move || {
        csr.spmm(&rhs2).expect("shapes match");
    }));

    // Convolution lowering: direct vs im2col + GEMM, 8ch→16ch at 32².
    let input = Tensor::rand_uniform(&[1, 8, 32, 32], -1.0, 1.0, seed ^ 0xc1);
    let kernel = Tensor::rand_uniform(&[16, 8, 3, 3], -1.0, 1.0, seed ^ 0xc2);
    let (input2, kernel2) = (input.clone(), kernel.clone());
    specs.push(spec("ablate/conv_algo/direct/8to16_32x32", move || {
        input
            .conv2d(&kernel, None, Conv2dParams::default())
            .expect("shapes match");
    }));
    specs.push(spec("ablate/conv_algo/im2col/8to16_32x32", move || {
        input2
            .conv2d_im2col(&kernel2, None, Conv2dParams::default())
            .expect("shapes match");
    }));

    // Hypervector dimension: one NVSA solve of a 2×2 RPM problem,
    // prepared outside the measurement (codebook generation is setup,
    // not inference). Grid and dims are small so a debug suite stays
    // within seconds; the neural frontend's cost does not depend on d.
    for dim in [128usize, 256] {
        let mut nvsa = Nvsa::new(NvsaConfig {
            grid: 2,
            dim,
            problems: 1,
            seed: seed ^ 0xd1,
            ..NvsaConfig::small()
        });
        nvsa.prepare().expect("nvsa prepares");
        specs.push(spec(
            format!("ablate/dimension/d{dim}/nvsa_2x2"),
            move || {
                nvsa.run().expect("nvsa solves");
            },
        ));
    }

    // Horn chaining over the university KB: forward closure as the KB
    // grows, backward proof of a provable and an unprovable goal.
    for departments in [1usize, 2, 4] {
        let kb = university(departments, seed ^ 0xe1);
        specs.push(symbolic(
            format!("ablate/forward_chain/closure/{departments}dept"),
            move || {
                kb.forward_chain(4);
            },
        ));
    }
    let kb = university(2, seed ^ 0xe1);
    let kb2 = kb.clone();
    let provable = Atom::new(
        "taught_by",
        vec![Term::constant("student0_0"), Term::var("P")],
    );
    let unprovable = Atom::prop2("taught_by", "prof0_0", "prof0_1");
    specs.push(symbolic(
        "ablate/backward_chain/provable/2dept",
        move || {
            kb.backward_chain(&provable, 8).expect("within depth");
        },
    ));
    specs.push(symbolic(
        "ablate/backward_chain/unprovable/2dept",
        move || {
            kb2.backward_chain(&unprovable, 8).expect("within depth");
        },
    ));

    specs
}

/// The ablations whose lever is the pool width itself, measured at every
/// configured width like the micro kernels.
fn pool_ablation_specs(seed: u64) -> Vec<KernelSpec> {
    // Per-attribute NVSA rule scoring (Recommendation 5): the attributes
    // are independent, so they fan out one pool chunk each.
    let tasks = rule_scoring_tasks(128, 5, seed ^ 0xf1);
    // Batched codebook cleanup, one pool chunk per query.
    let cb = symbol_codebook(1024, 64, seed ^ 0xf2);
    let queries: Vec<Hypervector> = (0..16)
        .map(|i| cb.at(i).expect("in range").clone())
        .collect();
    vec![
        symbolic("ablate/parallel_rules/score/5x128", move || {
            par::map_chunks(tasks.len(), 1, |r| score_attribute(&tasks[r.start]));
        }),
        symbolic("ablate/threads/cleanup_batch/16x64x1024", move || {
            cb.cleanup_batch(&queries).expect("validated");
        }),
    ]
}

/// A bipolar codebook of `size` symbols `s0..`.
fn symbol_codebook(dim: usize, size: usize, seed: u64) -> Codebook {
    let symbols: Vec<String> = (0..size).map(|i| format!("s{i}")).collect();
    let refs: Vec<&str> = symbols.iter().map(String::as_str).collect();
    Codebook::generate("ablate", VsaModel::Bipolar, dim, &refs, seed)
}

/// Dense superposition: multiply-accumulate every entry, even zero-mass.
fn superpose_dense(cb: &Codebook, pmf: &[f32]) -> Tensor {
    let mut acc = Tensor::zeros(&[cb.dim()]);
    for (i, w) in pmf.iter().enumerate() {
        let scaled = cb.at(i).expect("in range").as_tensor().mul_scalar(*w);
        acc = acc.add(&scaled).expect("same shape");
    }
    acc
}

/// An `n`×`n` matrix with 95% of its entries zero (the Fig. 5 regime).
fn sparse_95(n: usize, seed: u64) -> Tensor {
    let mut dense = Tensor::rand_uniform(&[n, n], -1.0, 1.0, seed);
    for (i, v) in dense.data_mut().iter_mut().enumerate() {
        if i % 20 != 0 {
            *v = 0.0;
        }
    }
    dense
}

/// The university KB with two join rules (`taught_by`, `colleague`).
fn university(departments: usize, seed: u64) -> KnowledgeBase {
    let uni = university_kb(
        UniversityConfig {
            departments,
            professors_per_dept: 3,
            students_per_dept: 8,
            courses_per_dept: 4,
        },
        seed,
    );
    let mut kb = KnowledgeBase::new();
    for (p, e) in &uni.unary {
        kb.add_fact(Atom::prop1(p.clone(), e.clone()));
    }
    for (p, s, o) in &uni.binary {
        kb.add_fact(Atom::prop2(p.clone(), s.clone(), o.clone()));
    }
    kb.add_rule(Rule::new(
        Atom::new("taught_by", vec![Term::var("S"), Term::var("P")]),
        vec![
            Atom::new("enrolled", vec![Term::var("S"), Term::var("C")]),
            Atom::new("teaches", vec![Term::var("P"), Term::var("C")]),
        ],
    ));
    kb.add_rule(Rule::new(
        Atom::new("colleague", vec![Term::var("X"), Term::var("Y")]),
        vec![
            Atom::new("works_for", vec![Term::var("X"), Term::var("D")]),
            Atom::new("works_for", vec![Term::var("Y"), Term::var("D")]),
        ],
    ));
    kb
}

/// One attribute's rule-detection input: the two complete context rows
/// of three fractional-power-encoded panels, and the shift base.
struct RuleScoringTask {
    rows: Vec<Vec<Hypervector>>,
    base: Hypervector,
}

fn rule_scoring_tasks(dim: usize, attributes: usize, seed: u64) -> Vec<RuleScoringTask> {
    let symbols: Vec<String> = (0..9).map(|v| v.to_string()).collect();
    let refs: Vec<&str> = symbols.iter().map(String::as_str).collect();
    (0..attributes as u64)
        .map(|attr| {
            let base = Hypervector::random_unitary(dim, seed ^ attr);
            let cb = Codebook::fractional_power("v", &base, 9, &refs).expect("hrr base");
            let rows = (0..2)
                .map(|r| {
                    (0..3)
                        .map(|c| cb.at((r + c) % 9).expect("in range").clone())
                        .collect()
                })
                .collect();
            RuleScoringTask { rows, base }
        })
        .collect()
}

/// Score NVSA's 7-rule hypothesis space for one attribute (its inner
/// loop, without the workload around it); returns the winning rule.
fn score_attribute(task: &RuleScoringTask) -> usize {
    let mut best = (f32::NEG_INFINITY, 0usize);
    for rule in 0..7 {
        let mut score = 0.0f32;
        for row in &task.rows {
            let pred = match rule {
                0 => row[1].clone(),
                1..=3 => {
                    let shift = task.base.conv_power(rule).expect("hrr");
                    row[1].bind(&shift).expect("compatible")
                }
                4 => row[0].bind(&row[1]).expect("compatible"),
                5 => row[0].unbind(&row[1]).expect("compatible"),
                _ => {
                    let sum = row[0]
                        .as_tensor()
                        .add(row[1].as_tensor())
                        .expect("same shape");
                    Hypervector::from_tensor(VsaModel::Hrr, sum).expect("rank 1")
                }
            };
            score += pred.similarity(&row[2]).expect("compatible");
        }
        if score > best.0 {
            best = (score, rule);
        }
    }
    best.1
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

    let seed = config.seed;
    let mut measurements: Vec<Box<dyn Measurement>> = Vec::new();
    for bench in at_widths(&config.widths, || kernel_specs(seed)) {
        measurements.push(Box::new(bench));
    }
    for name in &config.workloads {
        measurements.push(Box::new(WorkloadBench {
            name: name.clone(),
            instance: None,
        }));
    }
    measurements.push(Box::new(ServeBench::new(
        seed,
        SERVE_CLIENTS,
        SERVE_MAX_BATCH,
    )));
    // The ablations come after the entries above so those keep their
    // order (and their neighbours) across revisions.
    for bench in at_widths(&config.widths, || pool_ablation_specs(seed)) {
        measurements.push(Box::new(bench));
    }
    for (id, op) in ablation_specs(seed) {
        measurements.push(Box::new(MicroBench { id, width: 1, op }));
    }
    measurements.push(Box::new(ServeBench::new(seed, SERVE_CLIENTS, 1)));
    for max_batch in [SERVE_MAX_BATCH, 1] {
        measurements.push(Box::new(ServeBench::new(
            seed,
            SERVE_SATURATING_CLIENTS,
            max_batch,
        )));
    }

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
