//! The layout of Monte-Carlo replies across epochs (DESIGN.md §9).
//!
//! The dispatcher merges and sorts its shards' live ids once per epoch. A
//! full-coverage reply carries that layout, which `Dispatcher::refresh`
//! replaces with the new snapshot's `live_ids()`; a partial reply carries
//! the sorted union of the shards that answered. Either way π is the fold
//! a direct computation over the same ids gives, bit for bit.

use std::sync::Arc;

use unn::dynamic::PointId;
use unn::geom::Point;
use unn::serve::{
    AdmissionConfig, BreakerConfig, BreakerState, ChaosShard, DispatchConfig, Dispatcher,
    EngineShard, FaultKind, Outcome, Reply, Request, ServeConfig, ShardBackend, ShardPolicy,
    ShardSet, ShardSetSnapshot,
};
use unn::Uncertain;
use unn_observe::NullClock;

const ROUNDS: usize = 96;

fn serve_config() -> ServeConfig {
    ServeConfig {
        mc_rounds: ROUNDS,
        ..ServeConfig::default()
    }
}

fn disk(i: usize) -> Uncertain {
    Uncertain::uniform_disk(
        Point::new((i % 8) as f64 * 2.2, (i / 8) as f64 * 2.2),
        0.35 + 0.04 * (i % 4) as f64,
    )
}

fn queries() -> Vec<Point> {
    (0..8)
        .map(|i| Point::new(1.7 * i as f64 - 1.0, 1.1 * (i % 5) as f64))
        .collect()
}

/// The adaptive tier at the snapshot's ε/δ; the work capacity affords
/// `s` rounds per query but never a numeric exact sweep.
fn dispatch_config(cfg: &ServeConfig) -> DispatchConfig {
    DispatchConfig {
        threads: Some(2),
        admission: AdmissionConfig {
            work_capacity: (ROUNDS * queries().len()) as u64,
            ..AdmissionConfig::default()
        },
        epsilon: cfg.epsilon,
        delta: cfg.delta,
        adaptive_min_rounds: cfg.adaptive_min_rounds,
        ..DispatchConfig::default()
    }
}

fn serve_quantify(d: &mut Dispatcher) -> Vec<Reply> {
    let reqs: Vec<Request> = queries().into_iter().map(Request::Quantify).collect();
    d.serve(&reqs)
}

fn adaptive_pi(reply: &Reply) -> (&[f64], f64, usize) {
    match &reply.outcome {
        Outcome::Adaptive {
            pi,
            achieved_epsilon,
            rounds_used,
        } => (pi, *achieved_epsilon, *rounds_used),
        other => panic!("expected an Adaptive answer, got {other:?}"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// Every reply covers `snap` fully, carries its live ids, and equals
/// `ShardSetSnapshot::quantify_adaptive` bit for bit.
fn assert_epoch(replies: &[Reply], snap: &ShardSetSnapshot) {
    for (reply, q) in replies.iter().zip(queries()) {
        assert!(reply.failed_shards.is_empty(), "{reply:?}");
        assert_eq!(reply.layout, snap.live_ids(), "layout at {q:?}");
        let (pi, eps, rounds) = adaptive_pi(reply);
        let want = snap.quantify_adaptive(q);
        assert_eq!(bits(pi), bits(&want.pi), "π at {q:?}");
        assert_eq!(eps.to_bits(), want.half_width.to_bits(), "ε at {q:?}");
        assert_eq!(rounds, want.rounds_used, "rounds at {q:?}");
    }
}

#[test]
fn full_coverage_replies_carry_the_refreshed_layout() {
    let cfg = serve_config();
    let mut set = ShardSet::new(4, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
    let ids: Vec<PointId> = (0..48).map(|i| set.insert(disk(i))).collect();
    let first = set.snapshot();
    let mut d = Dispatcher::for_snapshot(&first, dispatch_config(&cfg), Arc::new(NullClock))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_epoch(&serve_quantify(&mut d), &first);

    // Churn: every third point leaves, twelve new ones arrive.
    for &id in ids.iter().step_by(3) {
        assert!(set.remove(id));
    }
    for i in 48..60 {
        set.insert(disk(i));
    }
    let second = set.snapshot();
    assert_ne!(first.live_ids(), second.live_ids());
    // Until the refresh the dispatcher answers over the epoch it holds.
    assert_epoch(&serve_quantify(&mut d), &first);
    d.refresh(&second);
    assert_epoch(&serve_quantify(&mut d), &second);
}

#[test]
fn a_breaker_open_shard_leaves_the_covered_union_as_layout() {
    let cfg = serve_config();
    let mut set = ShardSet::new(4, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
    for i in 0..48 {
        set.insert(disk(i));
    }
    let snap = set.snapshot();
    let dcfg = DispatchConfig {
        breaker: BreakerConfig {
            trip_after: 3,
            cooldown_nanos: u64::MAX,
            close_after: 1,
        },
        ..dispatch_config(&cfg)
    };
    let mut d = Dispatcher::for_snapshot(&snap, dcfg, Arc::new(NullClock))
        .unwrap_or_else(|e| panic!("{e}"));
    d.wrap_shard(1, |inner| {
        Box::new(ChaosShard::new(inner, FaultKind::PanicOnQuery))
    });
    // Three panicking attempts (one call plus two retries) trip shard 1.
    d.serve(&[Request::Quantify(queries()[0])]);
    assert_eq!(d.breaker_states()[1], BreakerState::Open);

    // The same fold over the three healthy shards alone, whose layout is
    // merged once when the dispatcher is built.
    let healthy: Vec<Box<dyn ShardBackend>> = [0, 2, 3]
        .iter()
        .map(|&k| {
            Box::new(EngineShard::new(
                snap.shards()[k].clone(),
                Arc::new(NullClock),
            )) as Box<dyn ShardBackend>
        })
        .collect();
    let mut subset =
        Dispatcher::new(healthy, None, dcfg, Arc::new(NullClock)).unwrap_or_else(|e| panic!("{e}"));
    let mut union: Vec<PointId> = [0, 2, 3]
        .iter()
        .flat_map(|&k| snap.shards()[k].live_ids().iter().copied())
        .collect();
    union.sort_unstable();
    assert!(union.len() < snap.len());

    let replies = serve_quantify(&mut d);
    for ((reply, want), q) in replies
        .iter()
        .zip(serve_quantify(&mut subset))
        .zip(queries())
    {
        assert_eq!(reply.failed_shards, vec![1], "{reply:?}");
        assert_eq!(reply.covered, union.len());
        assert_eq!(reply.layout, union, "layout at {q:?}");
        assert_eq!(want.layout, union, "subset layout at {q:?}");
        let (pi, eps, rounds) = adaptive_pi(reply);
        let (want_pi, want_eps, want_rounds) = adaptive_pi(&want);
        assert_eq!(bits(pi), bits(want_pi), "π at {q:?}");
        assert_eq!(eps.to_bits(), want_eps.to_bits(), "ε at {q:?}");
        assert_eq!(rounds, want_rounds, "rounds at {q:?}");
    }
}
