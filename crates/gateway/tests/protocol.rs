//! Wire-protocol edge cases against a live gateway: malformed and
//! oversized frames, mid-frame disconnects, unknown workloads, deadline
//! expiry, and window flow control. The common contract: **every
//! violation gets a typed answer (or a clean close), never a panic and
//! never a hang.**

use nsai_gateway::wire::{self, Frame, Status, HEADER_LEN, MAX_PAYLOAD};
use nsai_gateway::{Gateway, GatewayClient, GatewayConfig, ShutdownMode};
use nsai_serve::chaos::ChaosWorkload;
use nsai_serve::{ServeConfig, Server};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_gateway(window: u32) -> Gateway {
    let server = Server::builder(ServeConfig::default().workers(1).queue_capacity(32))
        .register("chaos", || Box::new(ChaosWorkload))
        .start()
        .expect("server starts");
    Gateway::start(server, GatewayConfig::default().window(window)).expect("gateway starts")
}

fn connect(gateway: &Gateway) -> GatewayClient {
    let mut client = GatewayClient::connect(gateway.local_addr(), 0).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    client
}

/// A valid request frame to mutate.
fn good_request(case: u64) -> Vec<u8> {
    wire::encode_frame(&Frame::Request {
        id: 1,
        workload: 0,
        deadline_us: 0,
        case,
    })
    .expect("encodable")
}

#[test]
fn bad_magic_gets_a_typed_goodbye_and_a_close() {
    let gateway = start_gateway(8);
    let mut client = connect(&gateway);
    let mut bytes = good_request(1);
    bytes[0] = b'X';
    client.send_bytes(&bytes).expect("send");
    let goodbye = client.read_response().expect("goodbye");
    assert!(goodbye.terminal);
    assert_eq!(goodbye.status, Status::BadFrame);
    // The connection is gone: the next read sees a clean close.
    assert!(client.read_response().is_err());
    assert_eq!(gateway.metrics_snapshot().decode_errors, 1);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn unsupported_version_gets_a_typed_goodbye() {
    let gateway = start_gateway(8);
    let mut client = connect(&gateway);
    let mut bytes = good_request(1);
    bytes[4] = 99;
    client.send_bytes(&bytes).expect("send");
    let goodbye = client.read_response().expect("goodbye");
    assert!(goodbye.terminal);
    assert_eq!(goodbye.status, Status::BadFrame);
    assert!(String::from_utf8_lossy(&goodbye.payload).contains("version"));
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn oversized_frames_are_refused_without_reading_the_payload() {
    let gateway = start_gateway(8);
    let mut client = connect(&gateway);
    let mut bytes = good_request(1);
    bytes[24..28].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    // Send only the header: the gateway must reject on the declared
    // length alone, not wait for (or buffer) the payload.
    client.send_bytes(&bytes[..HEADER_LEN]).expect("send");
    let goodbye = client.read_response().expect("goodbye");
    assert!(goodbye.terminal);
    assert_eq!(goodbye.status, Status::FrameTooLarge);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn client_side_response_frames_are_a_protocol_violation() {
    let gateway = start_gateway(8);
    let mut client = connect(&gateway);
    let bytes = wire::encode_frame(&Frame::Response {
        id: 5,
        status: Status::Ok,
        payload: Vec::new(),
    })
    .expect("encodable");
    client.send_bytes(&bytes).expect("send");
    let goodbye = client.read_response().expect("goodbye");
    assert!(goodbye.terminal);
    assert_eq!(goodbye.status, Status::BadFrame);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn mid_frame_disconnect_is_counted_and_contained() {
    // Serves real requests, so no other test may have faults armed.
    let _s = serial();
    let gateway = start_gateway(8);
    {
        let mut client = connect(&gateway);
        let bytes = good_request(1);
        client
            .send_bytes(&bytes[..HEADER_LEN - 3])
            .expect("send partial");
        // Drop mid-frame.
    }
    // The gateway notices the truncation and stays healthy: a fresh
    // connection serves normally.
    let mut client = connect(&gateway);
    let response = client.call_raw(9).expect("fresh connection serves");
    assert_eq!(response.status, Status::Ok);
    // The reader of the dead connection may still be mid-accounting;
    // poll briefly rather than racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if gateway.metrics_snapshot().conn_dropped >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame disconnect never counted: {:?}",
            gateway.metrics_snapshot()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn unknown_workload_is_rejected_without_killing_the_connection() {
    // Serves real requests, so no other test may have faults armed.
    let _s = serial();
    let gateway = start_gateway(8);
    let mut client = GatewayClient::connect(gateway.local_addr(), 7).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let response = client.call_raw(1).expect("typed rejection");
    assert!(!response.terminal);
    assert_eq!(response.status, Status::UnknownWorkload);
    // Same connection, valid workload id: still serving. (The client
    // pins its workload id at connect, so speak frames directly.)
    let bytes = wire::encode_frame(&Frame::Request {
        id: 99,
        workload: 0,
        deadline_us: 0,
        case: 3,
    })
    .expect("encodable");
    client.send_bytes(&bytes).expect("send");
    let response = client.read_response().expect("served");
    assert_eq!(response.id, 99);
    assert_eq!(response.status, Status::Ok);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn expired_deadlines_are_rejected_before_submission() {
    let _s = serial();
    let gateway = start_gateway(8);
    // Stretch decode past any realistic deadline: the request's 1ms
    // budget is guaranteed spent before the gateway's deadline check.
    let _fp = nsai_core::failpoint::FailpointGuard::arm("gateway::decode", "delay(5000)");
    let mut client = connect(&gateway).with_deadline_us(1_000);
    let response = client.call_raw(1).expect("typed rejection");
    assert!(!response.terminal);
    assert_eq!(response.status, Status::DeadlineExceeded);
    let snapshot = gateway.metrics_snapshot();
    assert_eq!(snapshot.expired, 1);
    // Nothing reached serve.
    assert_eq!(gateway.server().metrics_snapshot().submitted, 0);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn window_overflow_is_flow_controlled_with_a_typed_status() {
    let _s = serial();
    let gateway = start_gateway(1);
    // Hold the single in-flight slot open long enough for the pipelined
    // frames behind it to hit the window check.
    let _fp =
        nsai_core::failpoint::FailpointGuard::arm("serve::server::batch_dispatch", "delay(150000)");
    let mut client = connect(&gateway);
    let responses = client.pipeline(&[1, 2, 3]).expect("pipelined sweep");
    assert_eq!(responses.len(), 3);
    // In-order responses: the admitted head completes, the frames that
    // overran the window of 1 are bounced with the flow-control status.
    assert_eq!(responses[0].status, Status::Ok, "head of line must serve");
    assert_eq!(responses[1].status, Status::WindowExceeded);
    assert_eq!(responses[2].status, Status::WindowExceeded);
    assert_eq!(gateway.metrics_snapshot().window_rejected, 2);
    gateway.shutdown(ShutdownMode::Drain);
}

#[test]
fn injected_decode_failures_end_the_connection_with_a_typed_goodbye() {
    let _s = serial();
    let gateway = start_gateway(8);
    let _fp = nsai_core::failpoint::FailpointGuard::arm("gateway::decode", "return_err");
    let mut client = connect(&gateway);
    client.send_request(1).expect("send");
    let goodbye = client.read_response().expect("goodbye");
    assert!(goodbye.terminal);
    assert_eq!(goodbye.status, Status::BadFrame);
    assert_eq!(gateway.metrics_snapshot().decode_errors, 1);
    gateway.shutdown(ShutdownMode::Drain);
}
