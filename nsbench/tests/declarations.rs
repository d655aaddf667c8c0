//! `BENCHMARK.json` and the binary declare the same workloads and
//! metrics, and every declared tail percentile has enough samples.

use nsbench::spec::{self, Arrivals, Class, MetricDef, MIN_TAIL_SAMPLES, WORKLOADS};
use nsbench::stats::beyond;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

type Declared = Vec<(String, String, String)>;

fn declared(json: &Value, key: &str) -> Declared {
    json[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn ours(defs: Vec<MetricDef>) -> Declared {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn the_metric_names_the_binary_emits_are_the_declared_ones() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), ours(spec::end_to_end()));
    assert_eq!(declared(&json, "per_layer"), ours(spec::per_layer()));
    assert!(spec::end_to_end().len() <= 16);
    assert!(spec::per_layer().len() <= 128);
    let mut names: Vec<String> = spec::end_to_end()
        .into_iter()
        .chain(spec::per_layer())
        .map(|d| d.name)
        .collect();
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a metric name is used twice");
    for name in &names {
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
}

#[test]
fn the_declared_workloads_are_the_binary_workloads() {
    let json = benchmark_json();
    let declared: Vec<(&str, &str)> = json["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| {
            (
                w["name"].as_str().expect("name"),
                w["why"].as_str().expect("why"),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(declared, ours);
    assert!(ours.iter().all(|(_, why)| why.len() <= 200));
    assert_eq!(
        json["run_seconds"].as_u64(),
        Some(spec::DEFAULT_SECONDS),
        "run_seconds and DEFAULT_SECONDS disagree"
    );
}

/// Slowest rate to plan for in a one-client closed loop of `class`: on
/// 2 cores `nvsa` completes 12-18 req/s, depending on host load, so this
/// floor leaves room for a slower host.
fn closed_floor_rps(class: Class) -> f64 {
    match class {
        Class::Nvsa => 10.0,
        Class::Lnn | Class::NvsaNeural => {
            panic!("no closed-loop {} workload is declared", class.name())
        }
    }
}

#[test]
fn every_declared_tail_percentile_has_ten_samples_beyond_it() {
    let seconds = spec::DEFAULT_SECONDS as f64;
    for spec in &WORKLOADS {
        let expected = |class: Class| match spec.arrivals {
            Arrivals::Open { rate_hz } => {
                let share: f64 = spec
                    .mix
                    .iter()
                    .filter(|(c, _)| *c == class)
                    .map(|(_, share)| share)
                    .sum();
                rate_hz * share * seconds
            }
            Arrivals::Closed => closed_floor_rps(class) * seconds,
        };
        let all: f64 = spec.classes().map(expected).sum();
        assert!(
            beyond(all, 95.0) >= MIN_TAIL_SAMPLES,
            "{}: latency_p95_ms",
            spec.name
        );
        for class in spec.classes() {
            let n = beyond(expected(class), class.tail_percentile());
            assert!(
                n >= MIN_TAIL_SAMPLES,
                "{}: {} has {n:.1} samples beyond it",
                spec.name,
                spec::class_tail_name(class)
            );
        }
    }
}
