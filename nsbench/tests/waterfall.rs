//! The latency waterfall adds up to the client mean.

use nsai_gateway::GatewayMetrics;
use nsai_serve::ServerMetrics;
use nsbench::stats::Waterfall;

#[test]
fn synthetic_snapshots_telescope_to_the_client_mean_with_nonnegative_parts() {
    let gateway = GatewayMetrics::new();
    let serve = ServerMetrics::new();
    let mut client_ms = Vec::new();
    let mut parts = [0.0f64; 5];
    for i in 0..500u64 {
        // Per-request layer times in µs, varied so no layer is constant.
        let queue = 300 + (i * 37) % 900;
        let service = 1_000 + (i * 53) % 4_000;
        let delivery = 5 + i % 11;
        let handoff = 40 + (i * 7) % 90;
        let socket = 200 + (i * 101) % 6_000;
        let total = queue + service + delivery;
        let wire = total + handoff;
        serve.queue_wait_us.record(queue);
        serve.service_us.record(service);
        serve.total_us.record(total);
        gateway.wire_latency_us.record(wire);
        client_ms.push((wire + socket) as f64 / 1e3);
        for (sum, part) in parts
            .iter_mut()
            .zip([socket, handoff, queue, service, delivery])
        {
            *sum += part as f64 / 1e3 / 500.0;
        }
    }
    let client = client_ms.iter().sum::<f64>() / client_ms.len() as f64;
    let waterfall = Waterfall::new(client, &gateway, &serve.snapshot());

    assert!((waterfall.sum() - client).abs() <= client * 1e-9);
    for ((name, ms), expected) in waterfall.components().into_iter().zip(parts) {
        assert!(ms >= 0.0, "{name} is negative: {ms}");
        assert!((ms - expected).abs() < 1e-9, "{name}: {ms} vs {expected}");
    }
}
