//! Serving-layer determinism regression suite.
//!
//! The serving contract extends the bitwise-parity discipline of
//! `tests/parallel_equivalence.rs` up one layer: episode outputs must
//! depend only on `(workload config, case id)` — never on worker count,
//! batch composition, queue timing, or which replica served the
//! request. These tests serve the same cases through servers with
//! different worker counts and batching settings and require every
//! per-request metric to agree bitwise (`f64::to_bits`). Unbatched
//! servers take the cases from closed-loop clients; batched ones find
//! them all queued behind a gate (`crates/serve/tests/support/gate.rs`),
//! so their batches form without depending on timing.

use neurosym::serve::loadgen::closed_loop;
use neurosym::serve::{ServeConfig, Server, ServerBuilder, ShutdownMode};
use neurosym::workloads::{
    CaseInput, Lnn, LnnConfig, Nvsa, NvsaConfig, Prae, PraeConfig, Workload, WorkloadOutput,
};
use std::collections::BTreeMap;

#[path = "../crates/serve/tests/support/gate.rs"]
mod gate;
use gate::Gate;

/// `case id → (metric name → f64 bits)` for one served case set.
type Fingerprint = BTreeMap<u64, BTreeMap<String, u64>>;

fn metric_bits(output: &WorkloadOutput) -> BTreeMap<String, u64> {
    output
        .metrics()
        .map(|(k, v)| (k.to_string(), v.to_bits()))
        .collect()
}

/// Run one closed-loop sweep over cases `0..clients * per_client` and
/// reduce it to a fingerprint.
fn closed_loop_fingerprint(
    config: ServeConfig,
    register: &dyn Fn(ServerBuilder) -> ServerBuilder,
    workload: &str,
    clients: usize,
    per_client: usize,
) -> Fingerprint {
    let server = register(Server::builder(config)).start().expect("prepare");
    let records = closed_loop(&server, workload, clients, per_client, 0);
    server.shutdown(ShutdownMode::Drain);
    records
        .into_iter()
        .map(|record| {
            let output = record.response.expect("closed loop completes everything");
            (record.case, metric_bits(&output))
        })
        .collect()
}

/// Serve cases `0..cases` with every worker parked behind a gate until
/// all of them are queued, then reduce them to a fingerprint. Returns it
/// with the largest batch the server ran. Once the gate opens, at most
/// one case per worker is claimed before the first worker fills its
/// batch from the rest, so with `cases >= workers + max_batch - 1` that
/// largest batch is exactly `max_batch`.
fn gated_fingerprint(
    config: ServeConfig,
    register: &dyn Fn(ServerBuilder) -> ServerBuilder,
    workload: &str,
    cases: u64,
) -> (Fingerprint, u64) {
    let gate = Gate::default();
    let server = gate
        .register(register(Server::builder(config)))
        .start()
        .expect("prepare");
    let parked = gate.park(&server, config.workers);
    let tickets: Vec<_> = (0..cases)
        .map(|case| {
            let ticket = server.submit(workload, CaseInput::new(case));
            (case, ticket.expect("queue holds every case"))
        })
        .collect();
    gate.open();
    for ticket in &parked {
        assert!(ticket.wait().is_ok(), "gate request");
    }
    let fingerprint = tickets
        .iter()
        .map(|(case, ticket)| {
            let output = ticket.wait().expect("gated case completes");
            (*case, metric_bits(&output))
        })
        .collect();
    let largest = server.metrics_snapshot().batch_size.max;
    server.shutdown(ShutdownMode::Drain);
    (fingerprint, largest)
}

fn assert_fingerprints_equal(reference: &Fingerprint, other: &Fingerprint, what: &str) {
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        other.keys().collect::<Vec<_>>(),
        "{what}: case sets differ"
    );
    for (case, expected) in reference {
        let got = &other[case];
        assert_eq!(expected, got, "{what}: case {case} outputs differ bitwise");
    }
}

/// Check the gated, batched run of `config` over the reference's cases
/// against the reference, and that it ran a batch of `max_batch`.
fn assert_batched_matches(
    reference: &Fingerprint,
    config: ServeConfig,
    register: &dyn Fn(ServerBuilder) -> ServerBuilder,
    workload: &str,
) {
    let what = format!(
        "{workload} at workers={} max_batch={}",
        config.workers, config.max_batch
    );
    let (batched, largest) = gated_fingerprint(config, register, workload, reference.len() as u64);
    assert_eq!(largest, config.max_batch as u64, "{what}: largest batch");
    assert_fingerprints_equal(reference, &batched, &what);
}

#[test]
fn lnn_outputs_are_identical_across_worker_counts_and_batching() {
    let register: &dyn Fn(ServerBuilder) -> ServerBuilder =
        &|b| b.register("lnn", || Box::new(Lnn::new(LnnConfig::small())));
    let reference = closed_loop_fingerprint(
        ServeConfig::default().workers(1).max_batch(1),
        register,
        "lnn",
        2,
        4,
    );
    assert_eq!(reference.len(), 8);
    let unbatched = closed_loop_fingerprint(
        ServeConfig::default().workers(2).max_batch(1),
        register,
        "lnn",
        2,
        4,
    );
    assert_fingerprints_equal(&reference, &unbatched, "lnn at workers=2 max_batch=1");
    for workers in [1, 4] {
        let config = ServeConfig::default().workers(workers).max_batch(4);
        assert_batched_matches(&reference, config, register, "lnn");
    }
}

#[test]
fn nvsa_outputs_are_identical_across_worker_counts_and_batching() {
    let mut config = NvsaConfig::small();
    config.problems = 1;
    let register: &dyn Fn(ServerBuilder) -> ServerBuilder = &move |b| {
        let config = config.clone();
        b.register("nvsa", move || Box::new(Nvsa::new(config.clone())))
    };
    // Six cases: enough for a batch of 4 behind 3 parked workers.
    let reference = closed_loop_fingerprint(
        ServeConfig::default().workers(1).max_batch(1),
        register,
        "nvsa",
        2,
        3,
    );
    let config = ServeConfig::default().workers(3).max_batch(4);
    assert_batched_matches(&reference, config, register, "nvsa");
}

#[test]
fn prae_outputs_are_identical_across_worker_counts_and_batching() {
    let mut config = PraeConfig::small();
    config.problems = 1;
    let register: &dyn Fn(ServerBuilder) -> ServerBuilder = &move |b| {
        let config = config.clone();
        b.register("prae", move || Box::new(Prae::new(config.clone())))
    };
    // Six cases: enough for a batch of 4 behind 3 parked workers.
    let reference = closed_loop_fingerprint(
        ServeConfig::default().workers(1).max_batch(1),
        register,
        "prae",
        2,
        3,
    );
    let config = ServeConfig::default().workers(3).max_batch(4);
    assert_batched_matches(&reference, config, register, "prae");
}

#[test]
fn served_cases_match_direct_execution_bitwise() {
    let server = Server::builder(ServeConfig::default().workers(2).max_batch(4))
        .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
        .start()
        .unwrap();
    let records = closed_loop(&server, "lnn", 2, 3, 100);
    server.shutdown(ShutdownMode::Drain);

    let mut direct = Lnn::new(LnnConfig::small());
    direct.prepare().unwrap();
    for record in records {
        let served = record.response.expect("completes");
        let expected = direct.run_case(&CaseInput::new(record.case)).unwrap();
        for (key, value) in expected.metrics() {
            assert_eq!(
                served.metric(key).map(f64::to_bits),
                Some(value.to_bits()),
                "case {} metric {key} must match direct run bitwise",
                record.case
            );
        }
    }
}
