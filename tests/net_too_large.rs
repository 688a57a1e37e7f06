//! Batches no peer could decode (DESIGN.md §10).
//!
//! When the replies to one batch expand past the decoder's budget, the
//! server answers `ErrorCode::TooLarge` instead of sending them. The client
//! surfaces it as a permanent error after one attempt (re-sending would
//! run the whole batch again for the same result), and the next batch that
//! fits is served normally.
//!
//! A request batch that encodes past `MAX_FRAME_LEN` never leaves the
//! client: it fails with a permanent `NetError::TooLarge` before any write,
//! and the connection and the client's counters stay as they were.

use std::sync::{Arc, Mutex, MutexGuard};

use unn::dynamic::PointId;
use unn::geom::Point;
use unn::net::{ClientConfig, LoopbackDuplex, NetClient, NetError, ServerConfig};
use unn::nonzero::DeltaCompose;
use unn::serve::{
    DispatchConfig, Dispatcher, Outcome, Request, ServeConfig, ShardBackend, ShardPolicy, ShardSet,
};
use unn::wire::{ErrorCode, MAX_FRAME_LEN};
use unn::Uncertain;
use unn_observe::NullClock;

/// A shard with many live ids and one Monte-Carlo round, which id 0 wins:
/// every quantify reply is a π and a layout of `ids.len()` elements, with
/// no index to build.
struct WideShard {
    ids: Vec<PointId>,
}

impl ShardBackend for WideShard {
    fn live_ids(&self) -> &[PointId] {
        &self.ids
    }
    fn rounds(&self) -> usize {
        1
    }
    fn delta_fold(&self, _q: Point) -> (DeltaCompose, u64) {
        (DeltaCompose::new(), 0)
    }
    fn report_nonzero(&self, _q: Point, _fold: &DeltaCompose) -> (Vec<PointId>, u64) {
        (Vec::new(), 0)
    }
    fn round_winners(&self, _q: Point) -> (Vec<(f64, PointId)>, u64) {
        (vec![(1.0, 0)], 0)
    }
}

fn lock(d: &Arc<Mutex<Dispatcher>>) -> MutexGuard<'_, Dispatcher> {
    d.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[test]
fn an_oversized_reply_batch_fails_once_with_too_large() {
    const LIVE: usize = 300_000;
    let shard = WideShard {
        ids: (0..LIVE as PointId).collect(),
    };
    let d = Dispatcher::new(
        vec![Box::new(shard)],
        None,
        DispatchConfig::default(),
        Arc::new(NullClock),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let d = Arc::new(Mutex::new(d));
    let mut client = NetClient::new(
        LoopbackDuplex::connector(Arc::clone(&d), ServerConfig::default()),
        ClientConfig::default(),
        Arc::new(NullClock),
    );
    // 32 replies of 2 × 300,000 elements: 19.2M, over the 8,388,608 a
    // frame may expand to.
    let reqs: Vec<Request> = (0..32)
        .map(|i| Request::Quantify(Point::new(i as f64, 0.0)))
        .collect();
    let err = match client.serve(&reqs) {
        Err(e) => e,
        Ok(replies) => panic!("{} replies past the decoder's budget", replies.len()),
    };
    assert!(!err.retryable(), "{err}");
    match err {
        NetError::Remote {
            code: ErrorCode::TooLarge,
            detail,
        } => assert!(detail.contains("exceeds cap 8388608"), "{detail}"),
        other => panic!("expected a TooLarge error, got {other:?}"),
    }
    let stats = client.stats();
    assert_eq!((stats.retried_attempts, stats.reconnects), (0, 0));
    assert_eq!(lock(&d).metrics().queries, 32, "the batch ran once");

    // Four such replies fit, and are served whole.
    let replies = client
        .serve(&reqs[..4])
        .unwrap_or_else(|e| panic!("a batch within the limits failed: {e}"));
    for reply in &replies {
        assert_eq!(reply.layout.len(), LIVE);
        match &reply.outcome {
            Outcome::Adaptive { pi, .. } => {
                assert_eq!(pi.len(), LIVE);
                assert_eq!(pi[0], 1.0);
                assert!(pi[1..].iter().all(|p| p.to_bits() == 0));
            }
            other => panic!("expected an Adaptive answer, got {other:?}"),
        }
    }
    assert_eq!(lock(&d).metrics().queries, 36);
}

/// A two-shard index over 16 disks: small batches answer in microseconds.
fn small_dispatcher() -> Arc<Mutex<Dispatcher>> {
    let cfg = ServeConfig {
        mc_rounds: 16,
        ..ServeConfig::default()
    };
    let mut set = ShardSet::new(2, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
    for i in 0..16 {
        set.insert(Uncertain::uniform_disk(
            Point::new((i % 4) as f64 * 2.0, (i / 4) as f64 * 2.0),
            0.5,
        ));
    }
    let d = Dispatcher::for_snapshot(
        &set.snapshot(),
        DispatchConfig::default(),
        Arc::new(NullClock),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    Arc::new(Mutex::new(d))
}

#[test]
fn an_oversized_request_batch_is_refused_before_sending() {
    // A request batch body is 13 bytes (tag, budget, count) plus 17 per
    // request (tag, point): this is the fewest requests past the frame cap.
    const K: usize = (MAX_FRAME_LEN - 13) / 17 + 1;
    let d = small_dispatcher();
    let mut client = NetClient::new(
        LoopbackDuplex::connector(Arc::clone(&d), ServerConfig::default()),
        ClientConfig::default(),
        Arc::new(NullClock),
    );
    let small: Vec<Request> = (0..4)
        .map(|i| Request::NnNonzero(Point::new(i as f64 * 1.5, 1.0)))
        .collect();
    let first = client
        .serve(&small)
        .unwrap_or_else(|e| panic!("a 4-request batch failed: {e}"));
    let before = client.stats();
    let queries = lock(&d).metrics().queries;

    let huge = vec![Request::NnNonzero(Point::new(1.0, 1.0)); K];
    let err = match client.serve(&huge) {
        Err(e) => e,
        Ok(replies) => panic!("{} replies to a batch past the frame cap", replies.len()),
    };
    drop(huge);
    assert!(!err.retryable(), "{err}");
    assert_eq!(
        err,
        NetError::TooLarge {
            len: 13 + 17 * K as u64,
            cap: MAX_FRAME_LEN as u64,
        }
    );
    assert_eq!(client.stats(), before, "nothing was sent or retried");
    assert_eq!(lock(&d).metrics().queries, queries, "nothing was served");

    // The connection survives the refusal: the next batch goes out on it.
    let again = client
        .serve(&small)
        .unwrap_or_else(|e| panic!("a 4-request batch after the refusal failed: {e}"));
    assert_eq!(again, first);
    let stats = client.stats();
    assert_eq!(stats.reconnects, 0);
    assert_eq!(stats.frames_out, before.frames_out + 1);
    assert_eq!(lock(&d).metrics().queries, queries + 4);
}
