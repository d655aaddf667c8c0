//! Chaos suite: seeded fault schedules against the serving stack, both
//! in-process and over the `nsgp/1` wire.
//!
//! Each episode runs [`nsai_serve::chaos::run_chaos`] over one transport
//! and checks the failure contract: outcome conservation, bitwise parity
//! of surviving outputs against a fault-free run, no deadlocks, and full
//! pool width through injected replica deaths.
//!
//! Seeds: the fixed matrix below, or exactly one seed when
//! `NEUROSYM_CHAOS_SEED` is set — the hook CI uses so each matrix job
//! logs a single reproducible seed
//! (`NEUROSYM_CHAOS_SEED=37 cargo test --release --test chaos`).

use nsai_core::failpoint::FailpointGuard;
use nsai_gateway::chaos::{gateway_chaos_schedule, Wire};
use nsai_serve::chaos::{
    chaos_schedule, run_chaos, ChaosConfig, ChaosOutcome, ChaosReport, ChaosWorkload, InProcess,
    Transport,
};
use nsai_serve::{ServeConfig, Server, ShutdownMode};
use nsai_workloads::{CaseInput, Lnn, LnnConfig, Workload};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Failpoints are process-global: chaos episodes must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize a chaos episode; a poisoned lock (an earlier test's
/// assertion failed) must not cascade into unrelated failures.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The CI seed matrix. `NEUROSYM_CHAOS_SEED` narrows a run to one seed.
fn seeds() -> Vec<u64> {
    match std::env::var("NEUROSYM_CHAOS_SEED") {
        Ok(s) => vec![s.trim().parse().expect("NEUROSYM_CHAOS_SEED must be a u64")],
        Err(_) => vec![11, 23, 37, 53],
    }
}

const IN_PROCESS: ChaosConfig = ChaosConfig {
    requests: 400,
    workers: 4,
    shutdown: ShutdownMode::Drain,
};

const OVER_THE_WIRE: ChaosConfig = ChaosConfig {
    requests: 200,
    workers: 2,
    shutdown: ShutdownMode::Drain,
};

/// The checks every faulted episode must pass, on either transport;
/// returns the number of surviving (parity-checked) requests.
fn check_episode<T: Transport>(report: &ChaosReport<T>, cfg: &ChaosConfig, seed: u64) -> usize {
    report
        .check_conservation()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let surviving = report
        .check_parity()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert!(!report.deadlocked(), "seed {seed}: watchdog tripped");
    assert_eq!(
        report.live_workers_after_traffic, cfg.workers,
        "seed {seed}: worker died instead of containing its panic"
    );
    let m = &report.metrics;
    if m.panicked > 0 {
        assert!(
            m.rebuilt > 0,
            "seed {seed}: panics without replica rebuilds"
        );
    }
    eprintln!(
        "chaos seed {seed}: offered {} ok {surviving} panicked {} rejected {} \
         timed_out {} aborted {} rebuilt {}; transport {:?}",
        report.offered, m.panicked, m.rejected, m.timed_out, m.aborted, m.rebuilt, report.transport
    );
    surviving
}

#[test]
fn chaos_schedule_is_a_pure_function_of_the_seed() {
    for schedule in [chaos_schedule, gateway_chaos_schedule] {
        for seed in seeds() {
            assert_eq!(schedule(seed), schedule(seed));
            // Every schedule must parse under the arming grammar.
            nsai_core::failpoint::parse_spec(&schedule(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: unparseable schedule: {e}"));
        }
        assert_ne!(schedule(11), schedule(23));
    }
}

#[test]
fn seeded_chaos_conserves_outcomes_and_preserves_surviving_outputs() {
    let _s = serial();
    for seed in seeds() {
        let schedule = chaos_schedule(seed);
        eprintln!("chaos seed {seed}: {schedule}");

        // Fault-free run of the same traffic shape first: its OK outputs
        // are the parity reference.
        let baseline = run_chaos::<InProcess>(&IN_PROCESS, None);
        baseline
            .check_conservation()
            .unwrap_or_else(|e| panic!("seed {seed} baseline: {e}"));
        let baseline_ok: BTreeMap<u64, _> = baseline
            .outcomes
            .iter()
            .filter_map(|(case, o)| match o {
                ChaosOutcome::Ok(out) => Some((*case, out.clone())),
                _ => None,
            })
            .collect();
        assert!(
            baseline_ok.len() > IN_PROCESS.requests / 2,
            "seed {seed}: fault-free run completed only {} of {}",
            baseline_ok.len(),
            IN_PROCESS.requests
        );

        let report = run_chaos::<InProcess>(&IN_PROCESS, Some(&schedule));
        check_episode(&report, &IN_PROCESS, seed);
        // Bitwise parity against the *actual* fault-free run, not just
        // the analytic reference.
        for (case, outcome) in &report.outcomes {
            if let (ChaosOutcome::Ok(out), Some(reference)) = (outcome, baseline_ok.get(case)) {
                assert_eq!(
                    out, reference,
                    "seed {seed} case {case}: chaos output diverged from fault-free run"
                );
            }
        }
    }
}

#[test]
fn abort_mode_chaos_still_conserves_outcomes() {
    let _s = serial();
    let cfg = ChaosConfig {
        shutdown: ShutdownMode::Abort,
        ..IN_PROCESS
    };
    for seed in seeds() {
        let report = run_chaos::<InProcess>(&cfg, Some(&chaos_schedule(seed)));
        report
            .check_conservation()
            .unwrap_or_else(|e| panic!("seed {seed} (abort): {e}"));
        report
            .check_parity()
            .unwrap_or_else(|e| panic!("seed {seed} (abort): {e}"));
    }
}

#[test]
fn fault_free_wire_baseline_completes_everything_with_parity() {
    let _s = serial();
    let report = run_chaos::<Wire>(&OVER_THE_WIRE, None);
    let checked = check_episode(&report, &OVER_THE_WIRE, 0);
    // Without faults, every request completes OK over the wire.
    assert_eq!(checked, report.offered, "baseline lost requests");
    let gateway = &report.transport;
    assert_eq!(
        (
            gateway.decode_errors,
            gateway.conn_dropped,
            gateway.write_errors
        ),
        (0, 0, 0)
    );
}

#[test]
fn seeded_socket_chaos_conserves_outcomes_and_preserves_parity() {
    let _s = serial();
    for seed in seeds() {
        let schedule = gateway_chaos_schedule(seed);
        eprintln!("gateway chaos seed {seed}: {schedule}");
        let report = run_chaos::<Wire>(&OVER_THE_WIRE, Some(&schedule));
        let checked = check_episode(&report, &OVER_THE_WIRE, seed);
        // The schedules are lossy by design, never total: some requests
        // must survive for the parity check to mean anything, and some
        // must die or the chaos exercised nothing.
        assert!(checked > 0, "seed {seed}: no surviving responses");
        assert!(
            checked < report.offered,
            "seed {seed}: chaos injected nothing"
        );
    }
}

#[test]
fn chaos_on_a_real_workload_fails_requests_but_never_corrupts_them() {
    let _s = serial();
    // Reference outputs from a standalone replica, no server involved.
    let mut reference = Lnn::new(LnnConfig::small());
    reference.prepare().expect("lnn prepares");
    let cases: Vec<u64> = (0..12).collect();
    let expected: BTreeMap<u64, _> = cases
        .iter()
        .map(|&c| (c, reference.run_case(&CaseInput::new(c)).expect("lnn case")))
        .collect();

    let server = Server::builder(ServeConfig::default().workers(2).max_batch(4))
        .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
        .start()
        .expect("server starts");
    let _g = FailpointGuard::arm_many(
        "serve::server::replica_run=panic@1in3;serve::server::replica_rebuild=delay(200)",
    );
    let tickets: Vec<_> = cases
        .iter()
        .map(|&c| {
            (
                c,
                server
                    .submit_blocking("lnn", CaseInput::new(c))
                    .expect("admitted"),
            )
        })
        .collect();
    let mut ok = 0usize;
    let mut panicked = 0usize;
    for (case, ticket) in tickets {
        match ticket
            .wait_timeout(Duration::from_secs(120))
            .expect("no deadlock")
        {
            Ok(output) => {
                assert_eq!(output, expected[&case], "case {case} corrupted under chaos");
                ok += 1;
            }
            Err(nsai_serve::ServeError::WorkerPanicked) => panicked += 1,
            Err(e) => panic!("case {case}: unexpected outcome {e}"),
        }
    }
    assert_eq!(ok + panicked, cases.len());
    assert!(
        panicked > 0,
        "panic failpoint at 1in3 never fired over {} batches",
        cases.len()
    );
    let m = server.metrics_snapshot();
    assert_eq!(m.submitted, cases.len() as u64);
    assert_eq!(
        m.submitted,
        m.completed + m.panicked + m.timed_out + m.aborted
    );
    assert_eq!(server.live_workers(), 2);
    drop(_g);

    // Probe wave with faults disarmed: the pool must serve perfectly.
    for &c in &cases {
        let out = server
            .submit_blocking("lnn", CaseInput::new(c))
            .expect("admitted")
            .wait();
        assert_eq!(out.expect("post-chaos request succeeds"), expected[&c]);
    }
    server.shutdown(ShutdownMode::Drain);
    // `rebuilt` increments *after* the failed batch's tickets resolve
    // (the factory re-runs `prepare` first), so only a post-join
    // snapshot may assert on it.
    assert!(
        server.metrics_snapshot().rebuilt > 0,
        "panics without replica rebuilds"
    );
}

#[test]
fn chaos_workload_is_deterministic() {
    let mut w = ChaosWorkload;
    for case in [0u64, 1, 17, 123_456_789] {
        let a = w.run_case(&CaseInput::new(case)).unwrap();
        assert_eq!(a, ChaosWorkload::expected(case));
        assert!(a.metric("digest_hi").is_some());
    }
}
