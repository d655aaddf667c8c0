//! One benchmark run: start the stack, warm up, measure a window, check
//! the outputs, and turn what was measured into named metrics.

use crate::loadgen::{self, Connections, Outcome};
use crate::plan;
use crate::spec::{
    category_name, class_tail_name, Arrivals, Class, Spec, CHECK_HEAD, CHECK_STRIDE,
    MIN_TAIL_SAMPLES, REPLAY_CASES, SETUP_MAX_REPS, SETUP_MIN_REPS, SETUP_MIN_SECONDS,
};
use crate::stats::{self, Waterfall};
use nsai_core::event::OpEvent;
use nsai_core::profile::Profiler;
use nsai_core::taxonomy::{OpCategory, Phase};
use nsai_gateway::wire::{self, Frame, Status};
use nsai_gateway::{Gateway, GatewayConfig, GatewayMetrics, GatewaySnapshot};
use nsai_serve::{MetricsSnapshot, ServeConfig, Server, ShutdownMode};
use nsai_workloads::CaseInput;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Replayed cases per class whose operator events are written to the
/// Chrome trace; all [`REPLAY_CASES`] feed the metrics.
const EXPORTED_REPLAY_CASES: usize = 2;
/// In the traced window, the profiler is emptied every this many sent
/// requests.
const TRACED_EVENTS_KEPT_FOR: usize = 64;

/// Start serve and gateway with default configs, serving `spec`'s
/// classes. With a profiler, the gateway is started under it, so every
/// request arriving over the wire is traced into it.
fn start_stack(spec: &Spec, profiler: Option<&Profiler>) -> io::Result<Gateway> {
    let server = spec
        .classes()
        .fold(Server::builder(ServeConfig::default()), |builder, class| {
            builder.register(class.name(), move || class.build())
        })
        .start()
        .map_err(io::Error::other)?;
    let _active = profiler.map(Profiler::activate);
    Gateway::start(server, GatewayConfig::default())
}

/// A started stack whose client connections are open and warmed up.
struct Stack {
    gateway: Gateway,
    conns: Connections,
    /// Warm-up responses sent on `conns`.
    warmed: usize,
}

impl Stack {
    /// The benchmark's set-up: start the stack, open `spec`'s connections
    /// and send the warm-up requests one at a time, so lazy set-up and cold
    /// caches are paid before anything is measured.
    fn set_up(spec: &Spec, seed: u64, profiler: Option<&Profiler>) -> io::Result<Stack> {
        let gateway = start_stack(spec, profiler)?;
        let conns = Connections::open(&gateway, spec)?;
        let warmup = loadgen::call_each(&conns, &spec.warmup_plan(seed))?;
        if let Some(bad) = warmup.iter().find(|o| !o.ok()) {
            return Err(io::Error::other(format!(
                "warm-up request failed: {}",
                bad.status
            )));
        }
        Ok(Stack {
            gateway,
            conns,
            warmed: warmup.len(),
        })
    }

    /// Close the connections, then drain the stack.
    fn shutdown(self) {
        drop(self.conns);
        self.gateway.shutdown(ShutdownMode::Drain);
    }
}

/// One round of timed set-ups: [`SETUP_MIN_REPS`] to [`SETUP_MAX_REPS`]
/// of them (see [`SETUP_MIN_SECONDS`]), each time in seconds appended to
/// `times`. Returns the last stack.
fn set_up_timed(spec: &Spec, seed: u64, times: &mut Vec<f64>) -> io::Result<Stack> {
    let mut round: Vec<f64> = Vec::new();
    let mut stack: Option<Stack> = None;
    while round.len() < SETUP_MIN_REPS
        || (round.len() < SETUP_MAX_REPS && round.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        if let Some(previous) = stack.take() {
            previous.shutdown();
        }
        let started = loadgen::now();
        stack = Some(Stack::set_up(spec, seed, None)?);
        round.push(started.elapsed().as_secs_f64());
    }
    times.extend(round);
    Ok(stack.expect("SETUP_MIN_REPS is positive"))
}

fn reset_gateway_metrics(metrics: &GatewayMetrics) {
    for counter in [
        &metrics.accepted,
        &metrics.refused,
        &metrics.frames_in,
        &metrics.frames_out,
        &metrics.decode_errors,
        &metrics.window_rejected,
        &metrics.expired,
        &metrics.conn_dropped,
        &metrics.write_errors,
    ] {
        counter.reset();
    }
    metrics.connections.reset_peak();
    metrics.in_flight.reset_peak();
    metrics.wire_latency_us.reset();
}

/// What one measured window produced.
#[derive(Debug)]
struct Window {
    /// Every window request with its response, in send order.
    outcomes: Vec<Outcome>,
    serve: MetricsSnapshot,
    gateway: GatewaySnapshot,
    /// Mean gateway wire time (decode to response written), ms.
    wire_mean_ms: f64,
    /// Mean client latency split by layer.
    waterfall: Waterfall,
}

impl Window {
    /// Requests that did not come back `Ok`.
    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok()).count()
    }

    /// Ascending latencies (ms) of the `Ok` requests of `class`, or of
    /// every class.
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.ok() && class.is_none_or(|c| o.request.class == c))
            .map(|o| o.latency().as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Time from the window's start to its last response.
    fn elapsed(&self) -> Duration {
        self.outcomes
            .iter()
            .map(|o| o.received)
            .max()
            .unwrap_or_default()
    }
}

/// Wait (at most a second) until the gateway has counted `frames`
/// response writes: a response can reach the client a moment before its
/// connection thread records the write.
fn settle(gateway: &Gateway, frames: usize) {
    let started = loadgen::now();
    while gateway.metrics().frames_out.get() < frames as u64
        && started.elapsed() < Duration::from_secs(1)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reset the metrics of a freshly set-up stack and measure one `window`
/// of `spec`'s traffic. `on_sent` is called with the count sent after
/// each window request.
fn measure(
    stack: &Stack,
    spec: &Spec,
    seed: u64,
    window: Duration,
    on_sent: &dyn Fn(usize),
) -> io::Result<Window> {
    let Stack {
        gateway,
        conns,
        warmed,
    } = stack;
    settle(gateway, *warmed);
    gateway.server().reset_metrics();
    reset_gateway_metrics(gateway.metrics());

    let outcomes = match spec.arrivals {
        Arrivals::Open { .. } => loadgen::open_loop(conns, &spec.open_plan(seed, window), on_sent)?,
        Arrivals::Closed => loadgen::closed_loop(conns, spec, seed, window, on_sent)?,
    };
    settle(gateway, outcomes.len());
    let serve = gateway.server().metrics_snapshot();
    let client = stats::mean(
        &outcomes
            .iter()
            .filter(|o| o.ok())
            .map(|o| o.latency().as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    Ok(Window {
        wire_mean_ms: gateway.metrics().wire_latency_us.mean() / 1e3,
        waterfall: Waterfall::new(client, gateway.metrics(), &serve),
        gateway: gateway.metrics_snapshot(),
        serve,
        outcomes,
    })
}

/// Result of re-running served cases directly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Responses compared.
    pub checked: usize,
    /// Responses whose bytes differ from direct execution.
    pub mismatches: usize,
}

/// Re-run a seeded sample of the `Ok` responses — per class, the first
/// [`CHECK_HEAD`] and every [`CHECK_STRIDE`]-th after that — on a fresh
/// direct replica, and compare the raw payloads byte for byte with the
/// encoded direct output.
///
/// # Errors
///
/// A replica that fails to prepare or run.
pub fn check_outputs(outcomes: &[Outcome]) -> io::Result<Check> {
    let mut check = Check::default();
    for class in Class::ALL {
        let sample: Vec<&Outcome> = outcomes
            .iter()
            .filter(|o| o.request.class == class)
            .enumerate()
            .filter(|(k, o)| (*k < CHECK_HEAD || k % CHECK_STRIDE == 0) && o.ok())
            .map(|(_, o)| o)
            .collect();
        if sample.is_empty() {
            continue;
        }
        let mut replica = class.build();
        replica.prepare().map_err(io::Error::other)?;
        for outcome in sample {
            let direct = replica
                .run_case(&CaseInput::new(outcome.request.case))
                .map_err(io::Error::other)?;
            check.checked += 1;
            if wire::encode_output(&direct) != outcome.payload {
                check.mismatches += 1;
                eprintln!(
                    "output mismatch: {} case {} (request {}) differs from direct execution",
                    class.name(),
                    outcome.request.case,
                    outcome.request.id
                );
            }
        }
    }
    Ok(check)
}

/// The outcome of one run: its metrics and what the output check found.
#[derive(Debug)]
pub struct Report {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Requests sent in measured windows.
    pub attempted: usize,
    /// Of those, requests that did not come back `Ok`.
    pub failed: usize,
    /// Output check over every measured window.
    pub check: Check,
    /// Chrome-trace JSON text of a traced run.
    pub trace: Option<String>,
}

/// Warn when a workload's window gives a reported tail percentile fewer
/// than [`MIN_TAIL_SAMPLES`] samples beyond it.
fn warn_thin_tails(spec: &Spec, window: &Window) {
    let all = window.latencies(None).len() as f64;
    let mut tails = vec![("latency_p95_ms".to_string(), stats::beyond(all, 95.0))];
    for class in spec.classes() {
        let n = window.latencies(Some(class)).len() as f64;
        tails.push((
            class_tail_name(class),
            stats::beyond(n, class.tail_percentile()),
        ));
    }
    for (name, beyond) in tails {
        if beyond < MIN_TAIL_SAMPLES {
            eprintln!("warning: {name} has only {beyond:.1} samples beyond it in this window");
        }
    }
}

/// An untraced run: the end-to-end metrics of one `window` of `spec`.
///
/// # Errors
///
/// Stack start-up, transport and replica failures.
pub fn run_e2e(spec: &Spec, seed: u64, window: Duration) -> io::Result<Report> {
    let mut setup_times = Vec::new();
    let stack = set_up_timed(spec, seed, &mut setup_times)?;
    let measured = measure(&stack, spec, seed, window, &|_| {})?;
    let peak_rss_mb = stats::peak_rss_mb()?;
    stack.shutdown();
    // A second round, a window after the first, so that a burst of host
    // contention during one round does not decide `setup_s`.
    set_up_timed(spec, seed, &mut setup_times)?.shutdown();
    let setup_s = stats::median(&setup_times);
    warn_thin_tails(spec, &measured);

    let latencies = measured.latencies(None);
    let secs = measured.elapsed().as_secs_f64();
    let metrics = Metrics::from([
        ("setup_s".to_string(), setup_s),
        ("peak_rss_mb".to_string(), peak_rss_mb),
        (
            "goodput_rps".to_string(),
            if secs > 0.0 {
                latencies.len() as f64 / secs
            } else {
                0.0
            },
        ),
        (
            "latency_p50_ms".to_string(),
            stats::percentile(&latencies, 50.0),
        ),
        (
            "latency_p95_ms".to_string(),
            stats::percentile(&latencies, 95.0),
        ),
    ]);
    Ok(Report {
        metrics,
        attempted: measured.outcomes.len(),
        failed: measured.failed(),
        check: check_outputs(&measured.outcomes)?,
        trace: None,
    })
}

/// A traced run: an untraced window and a traced window of `window / 2`
/// each with the same seed, then a direct replay of [`REPLAY_CASES`] cases
/// per class. Gives every per-layer metric and the Chrome trace.
///
/// # Errors
///
/// Stack start-up, transport and replica failures.
pub fn run_traced(spec: &Spec, seed: u64, window: Duration) -> io::Result<Report> {
    let half = (window / 2).max(Duration::from_secs(1));

    let stack = Stack::set_up(spec, seed, None)?;
    let plain = measure(&stack, spec, seed, half, &|_| {})?;
    stack.shutdown();

    // The traced window's operator events are not reported, only its
    // latency; dropping them as it runs keeps memory flat.
    let profiler = Profiler::new();
    let stack = Stack::set_up(spec, seed, Some(&profiler))?;
    let traced = measure(&stack, spec, seed, half, &|sent| {
        if sent % TRACED_EVENTS_KEPT_FOR == 0 {
            profiler.reset();
        }
    })?;
    stack.shutdown();
    profiler.reset();

    for (layer, ms) in plain.waterfall.components() {
        if ms < 0.0 {
            eprintln!("warning: waterfall component {layer} is negative ({ms:.4} ms)");
        }
    }
    let mut metrics = layer_metrics(&plain);
    for class in Class::ALL {
        let latencies = plain.latencies(Some(class));
        metrics.insert(
            format!("{}.latency_p50_ms", class.name()),
            stats::percentile(&latencies, 50.0),
        );
        metrics.insert(
            class_tail_name(class),
            stats::percentile(&latencies, class.tail_percentile()),
        );
    }
    let plain_p50 = stats::percentile(&plain.latencies(None), 50.0);
    let traced_p50 = stats::percentile(&traced.latencies(None), 50.0);
    metrics.insert("trace.latency_p50_ms".to_string(), traced_p50);
    metrics.insert(
        "trace.overhead_p50_frac".to_string(),
        if plain_p50 > 0.0 {
            traced_p50 / plain_p50 - 1.0
        } else {
            0.0
        },
    );
    metrics.insert(
        "trace.batch_size_mean".to_string(),
        traced.serve.batch_size.mean,
    );

    let mut replays = Vec::new();
    for class in Class::ALL {
        let (class_metrics, events) = replay(class, seed)?;
        metrics.extend(class_metrics);
        replays.push((class, events));
    }

    let mut check = check_outputs(&plain.outcomes)?;
    let traced_check = check_outputs(&traced.outcomes)?;
    check.checked += traced_check.checked;
    check.mismatches += traced_check.mismatches;

    Ok(Report {
        trace: Some(chrome_trace(&[&plain, &traced], &replays)?),
        metrics,
        attempted: plain.outcomes.len() + traced.outcomes.len(),
        failed: plain.failed() + traced.failed(),
        check,
    })
}

/// Load generator, gateway and serve metrics of one untraced window.
fn layer_metrics(window: &Window) -> Metrics {
    let ms = |us: f64| us / 1e3;
    let mut lags: Vec<f64> = window
        .outcomes
        .iter()
        .map(|o| o.sent.saturating_sub(o.request.due).as_secs_f64() * 1e3)
        .collect();
    lags.sort_by(f64::total_cmp);
    let w = &window.waterfall;
    let g = &window.gateway;
    let s = &window.serve;
    let entries = [
        ("loadgen.sent", window.outcomes.len() as f64),
        ("loadgen.send_lag_p50_ms", stats::percentile(&lags, 50.0)),
        ("loadgen.send_lag_p99_ms", stats::percentile(&lags, 99.0)),
        ("loadgen.client_mean_ms", w.client),
        ("gateway.socket_mean_ms", w.socket),
        ("gateway.handoff_mean_ms", w.handoff),
        ("gateway.wire_p50_ms", ms(g.wire_p50_us as f64)),
        ("gateway.wire_p99_ms", ms(g.wire_p99_us as f64)),
        ("gateway.wire_mean_ms", window.wire_mean_ms),
        ("gateway.codec_us", codec_us(&window.outcomes)),
        ("gateway.frames_in", g.frames_in as f64),
        ("gateway.frames_out", g.frames_out as f64),
        ("gateway.window_rejected", g.window_rejected as f64),
        ("gateway.decode_errors", g.decode_errors as f64),
        ("gateway.peak_in_flight", f64::from(g.peak_in_flight)),
        ("serve.queue_wait_p50_ms", ms(s.queue_wait_us.p50 as f64)),
        ("serve.queue_wait_p99_ms", ms(s.queue_wait_us.p99 as f64)),
        ("serve.queue_wait_mean_ms", w.queue_wait),
        ("serve.batch_size_mean", s.batch_size.mean),
        ("serve.batches", s.batch_size.count as f64),
        ("serve.queue_depth_peak", s.queue_depth_peak as f64),
        ("serve.service_p50_ms", ms(s.service_us.p50 as f64)),
        ("serve.service_p99_ms", ms(s.service_us.p99 as f64)),
        ("serve.service_mean_ms", w.service),
        ("serve.total_mean_ms", ms(s.total_us.mean)),
        ("serve.delivery_mean_ms", w.delivery),
        ("serve.rejected", s.rejected as f64),
        ("serve.timed_out", s.timed_out as f64),
        ("serve.panicked", s.panicked as f64),
    ];
    entries
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// Mean time (µs) to encode, reassemble and decode one captured `Ok`
/// response — the client-visible cost of the wire codec.
fn codec_us(outcomes: &[Outcome]) -> f64 {
    let responses: Vec<Frame> = outcomes
        .iter()
        .filter(|o| o.ok())
        .map(|o| Frame::Response {
            id: o.request.id,
            status: Status::Ok,
            payload: o.payload.clone(),
        })
        .collect();
    if responses.is_empty() {
        return 0.0;
    }
    // Time at least 20 000 round trips so clock resolution does not matter.
    let rounds = 1 + 20_000 / responses.len();
    let started = loadgen::now();
    for _ in 0..rounds {
        for frame in &responses {
            let bytes = wire::encode_frame(frame).expect("captured payloads fit a frame");
            let decoded = wire::read_frame(&mut bytes.as_slice()).expect("encoded frames decode");
            if let Frame::Response { payload, .. } = std::hint::black_box(decoded) {
                std::hint::black_box(wire::decode_output(&payload).expect("Ok payloads decode"));
            }
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (rounds * responses.len()) as f64
}

/// Replay [`REPLAY_CASES`] cases of `class` through `run_case` on a fresh
/// replica: once unprofiled, timing each case, then again under a fresh
/// profiler. Returns the class's timing, phase, category and counter
/// metrics, and the operator events of the first
/// [`EXPORTED_REPLAY_CASES`] cases.
fn replay(class: Class, seed: u64) -> io::Result<(Metrics, Vec<OpEvent>)> {
    let cases = plan::replay_cases(seed, class, REPLAY_CASES);
    let mut replica = class.build();
    replica.prepare().map_err(io::Error::other)?;
    let mut wall = Vec::with_capacity(cases.len());
    for case in &cases {
        let started = loadgen::now();
        replica
            .run_case(&CaseInput::new(*case))
            .map_err(io::Error::other)?;
        wall.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let profiler = Profiler::new();
    let mut exported = 0;
    {
        let _active = profiler.activate();
        for (i, case) in cases.iter().enumerate() {
            replica
                .run_case(&CaseInput::new(*case))
                .map_err(io::Error::other)?;
            if i + 1 == EXPORTED_REPLAY_CASES {
                exported = profiler.len();
            }
        }
    }
    let report = profiler.report_for(class.name());
    let n = cases.len() as f64;
    let c = class.name();
    let mut metrics = Metrics::from([
        (format!("{c}.run_case_ms"), stats::mean(&wall)),
        (format!("{c}.events"), report.event_count() as f64 / n),
    ]);
    for phase in Phase::ALL {
        metrics.insert(
            format!("{c}.{phase}_ms"),
            report.phase_duration(phase).as_secs_f64() * 1e3 / n,
        );
        for category in OpCategory::ALL {
            metrics.insert(
                format!("{c}.{phase}.{}_ms", category_name(category)),
                report.cell(phase, category).duration.as_secs_f64() * 1e3 / n,
            );
        }
        metrics.insert(
            format!("{c}.{phase}.mflop"),
            report.phase_flops(phase) as f64 / 1e6 / n,
        );
        metrics.insert(
            format!("{c}.{phase}.mbytes"),
            report.phase_bytes(phase) as f64 / 1e6 / n,
        );
    }
    let mut events = profiler.events();
    events.truncate(exported);
    Ok((metrics, events))
}

fn process_name(pid: u64, label: &str) -> Value {
    serde_json::json!({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}})
}

fn span(
    name: &str,
    cat: &str,
    ts: Duration,
    dur: Duration,
    pid: u64,
    tid: u64,
    args: Value,
) -> Value {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    serde_json::json!({
        "name": name, "cat": cat, "ph": "X", "ts": us(ts), "dur": us(dur),
        "pid": pid, "tid": tid, "args": args,
    })
}

/// The Chrome trace of a traced run, as JSON text. Process 1 holds the
/// replayed operator events from `nsai_core::export`, one thread per
/// phase, laid out back to back class after class, with one span per
/// class on thread 3. Processes 2 and 3 hold one span per client request
/// of the untraced and the traced window, one thread per connection.
fn chrome_trace(windows: &[&Window; 2], replays: &[(Class, Vec<OpEvent>)]) -> io::Result<String> {
    let mut events = vec![process_name(1, "direct replay (profiler op events)")];
    let mut cursor = Duration::ZERO;
    for (class, ops) in replays {
        let length: Duration = ops.iter().map(|op| op.duration).sum();
        let cases = EXPORTED_REPLAY_CASES as u64;
        events.push(span(
            class.name(),
            "replay",
            cursor,
            length,
            1,
            3,
            serde_json::json!({"cases": cases}),
        ));
        cursor += length;
    }
    for (pid, (window, label)) in (2u64..).zip(windows.iter().zip(["untraced", "traced"])) {
        events.push(process_name(pid, &format!("client, {label} window")));
        for o in &window.outcomes {
            let args = serde_json::json!({
                "id": o.request.id,
                "case": o.request.case,
                "sent_us": o.sent.as_secs_f64() * 1e6,
                "received_us": o.received.as_secs_f64() * 1e6,
                "status": o.status.to_string(),
            });
            let class = o.request.class.name();
            let conn = o.request.conn as u64;
            events.push(span(
                class,
                "client",
                o.request.due,
                o.latency(),
                pid,
                conn,
                args,
            ));
        }
    }
    let ops: Vec<OpEvent> = replays
        .iter()
        .flat_map(|(_, ops)| ops.iter().cloned())
        .collect();
    let exported = nsai_core::export::to_chrome_trace(&ops).map_err(io::Error::other)?;
    // Splice the exporter's array into ours as text: re-parsing it would
    // only rebuild what it already wrote.
    let op_records = exported
        .trim()
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
        .ok_or_else(|| io::Error::other("chrome trace export is not a JSON array"))?;
    let ours = serde_json::to_string(&events).map_err(io::Error::other)?;
    let ours = &ours[1..ours.len() - 1];
    Ok(format!(
        "{{\"traceEvents\":[{ours},{op_records}],\"displayTimeUnit\":\"ms\"}}"
    ))
}
