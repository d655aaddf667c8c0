//! Determinism acceptance test for the perf harness (ISSUE 8): two
//! same-seed suite runs must produce **bitwise-identical counter
//! sections**, and the gate must pass when comparing them.
//!
//! The suite is narrowed (fewer repetitions, two fast workloads) so the
//! test stays debug-build friendly, but every section — micro at widths
//! {1, 4}, workload phase breakdowns, serve samples, ablations — is
//! exercised, so a scheduling- or merge-order-dependent counter
//! anywhere in the pipeline fails here before it can make the CI gate
//! flaky.

use nsai_bench::perf::{compare, run_suite, GateOptions, SuiteConfig};
use std::sync::{Mutex, MutexGuard};

/// Taken by every test that runs a suite: the harness would otherwise
/// run them concurrently, and each suite's wall clocks would be taken
/// under the other suites' load.
static SUITE: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SUITE.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _serial = serial();
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
    let _serial = serial();
    let report = run_suite(&test_config(7), |_| {}).expect("suite runs");
    let has = |id: &str| report.entry(id).is_some();
    assert!(has("micro/matmul/96x96x96/w1"));
    assert!(has("micro/matmul/96x96x96/w4"));
    assert!(has("micro/fft/circconv_4096/w1"));
    assert!(has("micro/vsa/bind_hrr_2048/w4"));
    assert!(has("micro/vsa/unbind_hrr_1024/w1"));
    assert!(has("micro/vsa/unbind_hrr_1024/w4"));
    assert!(has("workload/lnn/total"));
    assert!(has("workload/lnn/neural"));
    assert!(has("workload/lnn/symbolic"));
    assert!(has("workload/nlm/total"));
    assert!(has("serve/lnn/closed_loop"));
    assert!(has("serve/lnn/queue_wait_p50"));
    assert!(has("serve/lnn/closed_loop_unbatched"));
    assert!(has("serve/lnn/queue_wait_p50_unbatched"));
    assert!(has("serve/lnn/closed_loop_16c"));
    assert!(has("serve/lnn/closed_loop_16c_unbatched"));

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

    // Each ablation measures its lever. Counters repeat exactly, so the
    // checks below are free of wall-clock noise, and a port that wires
    // both sides of a pair to the same kernel fails them.
    let counter = |id: &str, key: &str| {
        let entry = report.entry(id).unwrap_or_else(|| panic!("missing {id}"));
        entry
            .counters
            .get(key)
            .unwrap_or_else(|| panic!("{id}: no {key}"))
    };
    let flops = |id: &str| counter(id, "flops");
    // The saturating pair serves 16 clients' requests, 4 times the set.
    for suffix in ["", "_unbatched"] {
        assert_eq!(
            counter(&format!("serve/lnn/closed_loop{suffix}"), "requests"),
            16
        );
        assert_eq!(
            counter(&format!("serve/lnn/closed_loop_16c{suffix}"), "requests"),
            64
        );
    }
    let pairs = [
        ("ablate/circconv/direct/d1024", "ablate/circconv/fft/d1024"),
        (
            "ablate/cleanup/linear_scan/256x2048",
            "ablate/cleanup/early_exit/256x2048",
        ),
        (
            "ablate/superpose/dense/64x4096_1hot",
            "ablate/superpose/sparse/64x4096_1hot",
        ),
        (
            "ablate/spmv/dense/256_95pct_zero",
            "ablate/spmv/csr/256_95pct_zero",
        ),
        (
            "ablate/spmm/dense/128_95pct_zero",
            "ablate/spmm/csr/128_95pct_zero",
        ),
        (
            "ablate/conv_algo/direct/8to16_32x32",
            "ablate/conv_algo/im2col/8to16_32x32",
        ),
        (
            "ablate/dimension/d128/nvsa_2x2",
            "ablate/dimension/d256/nvsa_2x2",
        ),
        (
            "ablate/backward_chain/provable/2dept",
            "ablate/backward_chain/unprovable/2dept",
        ),
    ];
    for (a, b) in pairs {
        let (a, b) = (report.entry(a).unwrap(), report.entry(b).unwrap());
        assert_ne!(a.counters, b.counters, "{} vs {}", a.id, b.id);
    }
    // Sparsity (Fig. 5): a 1-hot PMF superposes one entry, not 64, and
    // at full density the sparse path does the dense path's work.
    assert!(
        100 * flops("ablate/superpose/sparse/64x4096_1hot")
            < flops("ablate/superpose/dense/64x4096_1hot")
    );
    assert!(
        10 * flops("ablate/superpose/sparse/64x4096_full")
            > 9 * flops("ablate/superpose/dense/64x4096_1hot")
    );
    assert!(
        10 * flops("ablate/spmv/csr/256_95pct_zero") < flops("ablate/spmv/dense/256_95pct_zero")
    );
    assert!(flops("ablate/circconv/fft/d1024") < flops("ablate/circconv/direct/d1024"));
    assert!(
        flops("ablate/cleanup/early_exit/256x2048") < flops("ablate/cleanup/linear_scan/256x2048")
    );
    // im2col does the same arithmetic and pays for the column matrix.
    assert_eq!(
        flops("ablate/conv_algo/direct/8to16_32x32"),
        flops("ablate/conv_algo/im2col/8to16_32x32")
    );
    assert!(
        counter("ablate/conv_algo/im2col/8to16_32x32", "alloc.bytes")
            > counter("ablate/conv_algo/direct/8to16_32x32", "alloc.bytes")
    );
    // Dimension acts on the VSA backend: the symbolic phase more than
    // doubles when d doubles, the neural frontend does not move.
    assert!(
        counter("ablate/dimension/d256/nvsa_2x2", "symbolic.flops")
            > 2 * counter("ablate/dimension/d128/nvsa_2x2", "symbolic.flops")
    );
    assert_eq!(
        counter("ablate/dimension/d256/nvsa_2x2", "neural.flops"),
        counter("ablate/dimension/d128/nvsa_2x2", "neural.flops")
    );
    assert!(
        flops("ablate/forward_chain/closure/1dept") < flops("ablate/forward_chain/closure/2dept")
    );
    assert!(
        flops("ablate/forward_chain/closure/2dept") < flops("ablate/forward_chain/closure/4dept")
    );
    // The pool-width levers do the same work at every width.
    for lever in [
        "ablate/parallel_rules/score/5x128",
        "ablate/threads/cleanup_batch/16x64x1024",
    ] {
        let w1 = report.entry(&format!("{lever}/w1")).unwrap();
        let w4 = report.entry(&format!("{lever}/w4")).unwrap();
        assert!(w1.counters.get("flops").unwrap() > 0);
        assert_eq!(w1.counters, w4.counters, "{lever}");
    }
    // The VSA and logic levers count their work as symbolic, as inside
    // a workload's symbolic stage.
    let symbolic: Vec<&str> = report
        .entries
        .iter()
        .map(|e| e.id.as_str())
        .filter(|id| {
            [
                "ablate/circconv/",
                "ablate/cleanup/",
                "ablate/superpose/",
                "ablate/parallel_rules/",
                "ablate/threads/cleanup_batch/",
                "ablate/forward_chain/",
                "ablate/backward_chain/",
            ]
            .iter()
            .any(|family| id.starts_with(family))
        })
        .collect();
    assert_eq!(symbolic.len(), 16, "{symbolic:?}");
    for id in symbolic {
        assert_eq!(counter(id, "neural.events"), 0, "{id}");
        assert!(counter(id, "symbolic.events") > 0, "{id}");
    }
}

#[test]
fn different_seeds_may_change_counters_but_not_ids() {
    let _serial = serial();
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
