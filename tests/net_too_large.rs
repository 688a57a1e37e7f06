//! A reply batch no peer could decode (DESIGN.md §10).
//!
//! When the replies to one batch expand past the decoder's budget, the
//! server answers `ErrorCode::TooLarge` instead of sending them. The client
//! surfaces it as a permanent error after one attempt (re-sending would
//! run the whole batch again for the same result), and the next batch that
//! fits is served normally.

use std::sync::{Arc, Mutex, MutexGuard};

use unn::dynamic::PointId;
use unn::geom::Point;
use unn::net::{ClientConfig, LoopbackDuplex, NetClient, NetError, ServerConfig};
use unn::nonzero::DeltaCompose;
use unn::serve::{DispatchConfig, Dispatcher, Outcome, Request, ShardBackend};
use unn::wire::ErrorCode;
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
