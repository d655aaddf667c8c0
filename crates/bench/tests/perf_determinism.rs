//! Determinism acceptance test for the perf harness (ISSUE 8): two
//! same-seed suite runs must produce **bitwise-identical counter
//! sections**, and the gate must pass when comparing them.
//!
//! The suite is narrowed (fewer repetitions, two fast workloads) so the
//! test stays debug-build friendly, but every section — micro at widths
//! {1, 4}, workload phase breakdowns, serve sample — is exercised, so
//! a scheduling- or merge-order-dependent counter anywhere in the
//! pipeline fails here before it can make the CI gate flaky.

use nsai_bench::perf::{compare, run_suite, GateOptions, SuiteConfig};

fn test_config(seed: u64) -> SuiteConfig {
    SuiteConfig {
        seed,
        repetitions: 2,
        widths: vec![1, 4],
        workloads: vec!["lnn".to_string(), "nlm".to_string()],
    }
}

#[test]
fn same_seed_runs_have_bitwise_identical_counter_sections() {
    let a = run_suite(&test_config(42), |_| {}).expect("suite runs");
    let b = run_suite(&test_config(42), |_| {}).expect("suite runs");

    // Entry sets and order are part of the contract too.
    let ids_a: Vec<&str> = a.entries.iter().map(|e| e.id.as_str()).collect();
    let ids_b: Vec<&str> = b.entries.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids_a, ids_b);

    // The canonical counter section is byte-for-byte identical.
    assert_eq!(a.counter_section(), b.counter_section());

    // And the gate agrees: comparing the two runs passes cleanly.
    let result = compare(&a, &b, GateOptions::default()).expect("same schema");
    assert!(result.passed(), "{}", result.render());
}

#[test]
fn suite_covers_all_sections_with_expected_ids() {
    let report = run_suite(&test_config(7), |_| {}).expect("suite runs");
    let has = |id: &str| report.entry(id).is_some();
    assert!(has("micro/matmul/96x96x96/w1"));
    assert!(has("micro/matmul/96x96x96/w4"));
    assert!(has("micro/fft/circconv_4096/w1"));
    assert!(has("micro/vsa/bind_hrr_2048/w4"));
    assert!(has("workload/lnn/total"));
    assert!(has("workload/lnn/neural"));
    assert!(has("workload/lnn/symbolic"));
    assert!(has("workload/nlm/total"));
    assert!(has("serve/lnn/closed_loop"));
    assert!(has("serve/lnn/queue_wait_p50"));

    // Phase counters decompose the totals.
    let total = report.entry("workload/lnn/total").unwrap();
    let neural = report.entry("workload/lnn/neural").unwrap();
    let symbolic = report.entry("workload/lnn/symbolic").unwrap();
    for key in ["events", "flops", "bytes"] {
        assert_eq!(
            total.counters.get(key).unwrap(),
            neural.counters.get(key).unwrap() + symbolic.counters.get(key).unwrap(),
            "{key} must decompose across phases"
        );
    }
    // Micro entries carry real work and repetition counts.
    let matmul = report.entry("micro/matmul/96x96x96/w1").unwrap();
    assert!(matmul.counters.get("flops").unwrap() > 0);
    assert_eq!(matmul.wall.samples, 2);
}

#[test]
fn different_seeds_may_change_counters_but_not_ids() {
    // Seeds change input *values*; shapes (and therefore work counters
    // for dense kernels) stay put. The ids must be seed-independent so
    // baselines join across revisions.
    let a = run_suite(&test_config(1), |_| {}).expect("suite runs");
    let b = run_suite(&test_config(2), |_| {}).expect("suite runs");
    let ids_a: Vec<&str> = a.entries.iter().map(|e| e.id.as_str()).collect();
    let ids_b: Vec<&str> = b.entries.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids_a, ids_b);
}

#[test]
fn unknown_workload_is_rejected_before_measuring() {
    let mut config = test_config(1);
    config.workloads = vec!["nope".to_string()];
    let err = run_suite(&config, |_| {}).unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
}
