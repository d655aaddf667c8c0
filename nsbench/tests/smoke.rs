//! Short runs of every workload through the real serve + gateway stack.

use nsbench::run::{self, Report};
use nsbench::spec::{self, MetricDef, WORKLOADS};
use std::time::Duration;

fn assert_names(report: &Report, defs: Vec<MetricDef>) {
    let mut declared: Vec<String> = defs.into_iter().map(|d| d.name).collect();
    declared.sort_unstable();
    let emitted: Vec<String> = report.metrics.keys().cloned().collect();
    assert_eq!(emitted, declared);
}

fn assert_clean(name: &str, report: &Report) {
    assert!(report.attempted > 0, "{name}: nothing sent");
    assert_eq!(report.failed, 0, "{name}: failed requests");
    assert!(report.check.checked > 0, "{name}: nothing checked");
    assert_eq!(report.check.mismatches, 0, "{name}: output mismatch");
}

#[test]
fn a_one_second_window_of_every_workload_has_no_failures_and_matching_outputs() {
    for spec in &WORKLOADS {
        let report = run::run_e2e(spec, 5, Duration::from_secs(1)).expect("run completes");
        assert_clean(spec.name, &report);
        assert_names(&report, spec::end_to_end());
        for (name, value) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                spec.name
            );
        }
    }
}

#[test]
fn a_traced_run_gives_every_layer_metric_an_adding_waterfall_and_a_chrome_trace() {
    let spec = spec::find("lnn-open").expect("declared");
    let report = run::run_traced(spec, 5, Duration::from_secs(2)).expect("run completes");
    assert_clean(spec.name, &report);
    assert_names(&report, spec::per_layer());

    let m = &report.metrics;
    let parts = [
        "gateway.socket_mean_ms",
        "gateway.handoff_mean_ms",
        "serve.queue_wait_mean_ms",
        "serve.service_mean_ms",
        "serve.delivery_mean_ms",
    ];
    for part in parts {
        assert!(m[part] >= 0.0, "{part} = {}", m[part]);
    }
    let sum: f64 = parts.iter().map(|part| m[*part]).sum();
    let client = m["loadgen.client_mean_ms"];
    assert!((sum - client).abs() <= 0.01 * client, "{sum} vs {client}");
    assert_eq!(m["gateway.frames_out"], m["loadgen.sent"]);
    assert!(m["lnn.events"] > 0.0 && m["nvsa.symbolic_ms"] > m["nvsa.neural_ms"]);

    let trace = report.trace.expect("a traced run writes a trace");
    assert!(trace.starts_with("{\"traceEvents\":["));
    // Client spans from the benchmark and operator events from the
    // profiler's exporter.
    assert!(trace.contains("\"cat\":\"client\",\"ph\":\"X\""));
    assert!(trace.contains("\"cat\": \"other\""));
    assert!(trace.contains("\"ph\": \"X\""));
}
