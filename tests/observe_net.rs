//! Observe-gated transport counters: only built with `--features observe`,
//! where the net hooks compile to real atomics. A single test owns the
//! process-global counters (this file has exactly one `#[test]`, so no
//! parallel test can race the reset).

#![cfg(feature = "observe")]

use std::sync::{Arc, Mutex};

use unn::geom::Point;
use unn::net::{
    ChaosDuplex, ClientConfig, Duplex, FrameFault, LoopbackDuplex, NetClient, NetError,
    ServerConfig,
};
use unn::serve::{DispatchConfig, Dispatcher, Request, ServeConfig, ShardPolicy, ShardSet};
use unn::Uncertain;
use unn_observe::{net_counters, net_counters_reset, NullClock, PipelineMetrics};

#[test]
fn net_counters_track_transport_traffic_and_surface_in_renders() {
    net_counters_reset();
    assert_eq!(net_counters(), unn_observe::NetCounters::default());

    let mut set = ShardSet::new(2, ShardPolicy::Hash, ServeConfig::default())
        .unwrap_or_else(|e| panic!("{e}"));
    for i in 0..8 {
        set.insert(Uncertain::uniform_disk(
            Point::new(i as f64 * 1.5, 0.5),
            0.4,
        ));
    }
    let d = Arc::new(Mutex::new(
        Dispatcher::for_snapshot(
            &set.snapshot(),
            DispatchConfig::default(),
            Arc::new(NullClock),
        )
        .unwrap_or_else(|e| panic!("{e}")),
    ));

    // Clean traffic: handshake + one batch = 2 frames out, 2 in.
    let mut client = NetClient::new(
        LoopbackDuplex::connector(Arc::clone(&d), ServerConfig::default()),
        ClientConfig::default(),
        Arc::new(NullClock),
    );
    let reqs = [
        Request::NnNonzero(Point::new(1.0, 0.5)),
        Request::Quantify(Point::new(2.0, 0.5)),
    ];
    client.serve(&reqs).unwrap_or_else(|e| panic!("{e}"));
    let after_clean = net_counters();
    // The server also counts its own frames (2 in, 2 out), so process-wide
    // totals are 4/4.
    assert_eq!(after_clean.frames_out, 4);
    assert_eq!(after_clean.frames_in, 4);
    assert!(after_clean.bytes_out > 0 && after_clean.bytes_in > 0);
    assert_eq!(after_clean.decode_errors, 0);
    assert_eq!(after_clean.reconnects, 0);

    // A dropped request forces a timeout, a reconnect, and a retry.
    let drop_then_clean = {
        let d = Arc::clone(&d);
        let mut scripts = vec![vec![FrameFault::Deliver, FrameFault::Drop], Vec::new()].into_iter();
        move || {
            let script = scripts.next().unwrap_or_default();
            Ok(Box::new(ChaosDuplex::new(
                LoopbackDuplex::new(Arc::clone(&d), ServerConfig::default()),
                script,
            )) as Box<dyn Duplex>)
        }
    };
    let mut flaky = NetClient::new(
        drop_then_clean,
        ClientConfig::default(),
        Arc::new(NullClock),
    );
    flaky.serve(&reqs).unwrap_or_else(|e| panic!("{e}"));
    let after_flaky = net_counters();
    assert_eq!(after_flaky.reconnects, 1);

    // A corrupted request frame registers a decode error server-side.
    let corrupt = {
        let d = Arc::clone(&d);
        let mut scripts = vec![
            vec![FrameFault::Deliver, FrameFault::CorruptBit(32)],
            Vec::new(),
        ]
        .into_iter();
        move || {
            let script = scripts.next().unwrap_or_default();
            Ok(Box::new(ChaosDuplex::new(
                LoopbackDuplex::new(Arc::clone(&d), ServerConfig::default()),
                script,
            )) as Box<dyn Duplex>)
        }
    };
    let mut corrupted = NetClient::new(corrupt, ClientConfig::default(), Arc::new(NullClock));
    corrupted.serve(&reqs).unwrap_or_else(|e| panic!("{e}"));
    let after_corrupt = net_counters();
    assert!(
        after_corrupt.decode_errors >= 1,
        "bit-flipped frame must count a decode error, got {after_corrupt:?}"
    );

    // A future-version peer registers a version mismatch. The server-side
    // counter fires when *it* rejects a hello, so we impersonate a v+1 peer
    // at the connection level (the typed client always speaks v1).
    let mut conn = unn::net::Connection::new(Arc::clone(&d), ServerConfig::default());
    let mut out = Vec::new();
    let hello = unn::wire::encode_frame(&unn::wire::Frame::Hello(unn::wire::Hello {
        version: unn::wire::WIRE_VERSION + 1,
        expected_epoch: unn::wire::ANY_EPOCH,
    }));
    conn.feed(&unn::wire::frame_bytes(&hello), &mut out);
    let after_mismatch = net_counters();
    assert_eq!(after_mismatch.version_mismatches, 1);

    // The totals flow into the metrics renders.
    let mut metrics = PipelineMetrics::new();
    metrics.absorb_net(&after_mismatch);
    let text = metrics.render_text();
    assert!(
        text.contains("net: frames"),
        "text render lacks net line:\n{text}"
    );
    // One reconnect each from the flaky and the corrupted client.
    assert!(
        text.contains("reconnects 2"),
        "text render lacks reconnects:\n{text}"
    );
    let json = metrics.render_json();
    for key in [
        "\"net_frames_in\"",
        "\"net_frames_out\"",
        "\"net_bytes_in\"",
        "\"net_bytes_out\"",
        "\"net_decode_errors\"",
        "\"net_version_mismatches\"",
        "\"net_reconnects\"",
    ] {
        assert!(json.contains(key), "json render lacks {key}:\n{json}");
    }
    assert!(json.contains("\"net_version_mismatches\": 1"), "{json}");

    // Reset drains everything.
    net_counters_reset();
    assert_eq!(net_counters(), unn_observe::NetCounters::default());

    // Silence the unused-error-type lint path: a NetError is what the
    // chaos scripts would surface on permanent failure.
    let _: fn(&NetError) -> bool = NetError::retryable;
}
