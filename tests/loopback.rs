//! Loopback integration: the gateway's core promise is that serving a
//! case over TCP returns **bitwise-identical** bytes to executing the
//! same case in-process. These tests check that promise across seeds,
//! pipelined and concurrent connections, and a real workload replica
//! (the CI matrix re-runs them under `NEUROSYM_THREADS` 1 and 4), plus
//! the two shutdown contracts.

use nsai_gateway::wire::{self, Status};
use nsai_gateway::{Gateway, GatewayClient, GatewayConfig, RawResponse, ShutdownMode};
use nsai_serve::chaos::{splitmix64, ChaosWorkload};
use nsai_serve::{ServeConfig, Server};
use nsai_workloads::{CaseInput, Lnn, LnnConfig, Workload};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Failpoints are process-global; tests that arm them must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The seeded request set: `count` case ids derived purely from `seed`.
fn request_set(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| splitmix64(seed ^ (i << 8)))
        .collect()
}

fn start_gateway(workers: usize) -> Gateway {
    let server = Server::builder(ServeConfig::default().workers(workers).queue_capacity(64))
        .register("chaos", || Box::new(ChaosWorkload))
        .register("lnn", || Box::new(Lnn::new(LnnConfig::small())))
        .start()
        .expect("server starts");
    Gateway::start(server, GatewayConfig::default()).expect("gateway starts")
}

#[test]
fn gateway_payloads_are_bitwise_identical_to_direct_execution() {
    let gateway = start_gateway(2);
    let addr = gateway.local_addr();
    let chaos_id = gateway.workload_id("chaos").expect("chaos registered");

    for seed in [11u64, 23, 37] {
        let cases = request_set(seed, 40);
        // Two pipelining connections split the set, so responses mix
        // batching and interleaving on the serve side.
        let (left, right) = cases.split_at(cases.len() / 2);
        let mut served: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for half in [left, right] {
            let mut client = GatewayClient::connect(addr, chaos_id).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            let responses = client.pipeline(half).expect("pipelined sweep");
            assert_eq!(responses.len(), half.len(), "seed {seed}: short sweep");
            for (case, response) in half.iter().zip(responses) {
                assert_eq!(response.status, Status::Ok, "seed {seed} case {case}");
                served.insert(*case, response.payload);
            }
        }
        // Direct in-process execution of the same request set.
        for case in &cases {
            let direct = wire::encode_output(&ChaosWorkload::expected(*case));
            assert_eq!(
                served.get(case),
                Some(&direct),
                "seed {seed} case {case}: gateway bytes diverge from direct execution"
            );
        }
    }
    let snapshot = gateway.metrics_snapshot();
    assert_eq!(snapshot.decode_errors, 0);
    assert_eq!(snapshot.conn_dropped, 0);
    assert_eq!(snapshot.frames_in, 3 * 40);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn parity_holds_for_a_real_workload_replica() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 3;
    const CASE_BASE: u64 = 42;
    let gateway = start_gateway(2);
    let addr = gateway.local_addr();
    let lnn_id = gateway.workload_id("lnn").expect("lnn registered");

    // Concurrent connections with one request in flight each (the
    // closed-loop shape), so serve batches mix cases from different
    // connections.
    let served: Vec<(u64, RawResponse)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = GatewayClient::connect(addr, lnn_id).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .expect("read timeout");
                    (0..PER_CLIENT)
                        .map(|i| {
                            let case = CASE_BASE + c * PER_CLIENT + i;
                            (case, client.call_raw(case).expect("round trip"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served.len() as u64, CLIENTS * PER_CLIENT);

    let mut replica = Lnn::new(LnnConfig::small());
    replica.prepare().expect("replica prepares");
    for (case, response) in served {
        assert_eq!(response.status, Status::Ok, "case {case}");
        let direct = replica.run_case(&CaseInput::new(case)).expect("direct run");
        assert_eq!(
            response.payload,
            wire::encode_output(&direct),
            "case {case}: wire bytes diverge from direct replica output"
        );
    }
    let snapshot = gateway.metrics_snapshot();
    assert_eq!(
        (
            snapshot.decode_errors,
            snapshot.conn_dropped,
            snapshot.write_errors
        ),
        (0, 0, 0)
    );
    assert_eq!(snapshot.frames_in, CLIENTS * PER_CLIENT);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn drain_flushes_in_flight_responses_before_closing() {
    let _s = serial();
    let gateway = start_gateway(2);
    let addr = gateway.local_addr();
    let chaos_id = gateway.workload_id("chaos").expect("chaos registered");

    // Slow every dispatch so requests are reliably in flight when the
    // drain starts.
    let _fp =
        nsai_core::failpoint::FailpointGuard::arm("serve::server::batch_dispatch", "delay(100000)");

    let clients: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr, chaos_id).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                client.call_raw(100 + i)
            })
        })
        .collect();
    // Let every request reach the serve queue before draining.
    std::thread::sleep(Duration::from_millis(40));
    gateway.shutdown(ShutdownMode::Drain);

    for (i, handle) in clients.into_iter().enumerate() {
        let case = 100 + i as u64;
        let response = handle
            .join()
            .expect("client thread")
            .expect("response arrives");
        assert_eq!(response.status, Status::Ok, "case {case} lost in drain");
        assert_eq!(
            response.payload,
            wire::encode_output(&ChaosWorkload::expected(case)),
            "case {case}: drained response corrupted"
        );
    }
    let serve = gateway.server().metrics_snapshot();
    assert_eq!(
        serve.submitted, serve.completed,
        "drain must complete everything admitted"
    );
}

#[test]
fn idle_connections_get_a_typed_goodbye_on_drain() {
    let gateway = start_gateway(1);
    let mut client = GatewayClient::connect(gateway.local_addr(), 0).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    gateway.shutdown(ShutdownMode::Drain);
    let goodbye = client.read_response().expect("goodbye frame");
    assert!(goodbye.terminal);
    assert_eq!(goodbye.status, Status::ShuttingDown);
}

#[test]
fn abort_is_immediate_and_resolves_or_cuts_every_request() {
    let _s = serial();
    let gateway = start_gateway(1);
    let addr = gateway.local_addr();
    let chaos_id = gateway.workload_id("chaos").expect("chaos registered");

    // A long dispatch delay gives the abort in-flight work to cut.
    let _fp =
        nsai_core::failpoint::FailpointGuard::arm("serve::server::batch_dispatch", "delay(200000)");

    let clients: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr, chaos_id).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                client.call_raw(200 + i)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(40));
    let started = Instant::now();
    gateway.shutdown(ShutdownMode::Abort);
    // Immediate up to the one non-preemptible executing batch.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "abort took {:?}",
        started.elapsed()
    );

    for handle in clients {
        // A response that made it out must be a terminal one: OK (batch
        // finished first), aborted, or a typed goodbye. A connection cut
        // before any response (`Err`) is equally valid.
        if let Ok(response) = handle.join().expect("client thread") {
            assert!(
                matches!(
                    response.status,
                    Status::Ok | Status::Aborted | Status::ShuttingDown
                ),
                "unexpected abort-path status {:?}",
                response.status
            );
        }
    }
    let serve = gateway.server().metrics_snapshot();
    assert_eq!(
        serve.submitted,
        serve.completed + serve.aborted + serve.timed_out + serve.panicked,
        "abort lost requests: {serve:?}"
    );
}
