//! Chaos suite for the sharded serving tier (`unn::serve`).
//!
//! Contracts under test, per DESIGN.md §9:
//!
//! * no injected fault ever escapes the dispatcher — panicking, slow, and
//!   NaN-poisoned shards surface as failed shards, never as a crash;
//! * healthy shards' answers are bit-identical to the fault-free run over
//!   the same healthy subset, at 1, 2, and 8 worker threads alike;
//! * circuit breakers trip after the documented number of consecutive
//!   failures, cool down on the injected clock, half-open, and recover;
//! * shedding is honest: every shed reply names its reason, and degraded
//!   answers carry the accuracy they actually certify;
//! * admission starts at the cheapest tier that certifies ε, and every
//!   tier reports the time it took through the injected clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unn::geom::Point;
use unn::serve::{
    AdmissionConfig, BreakerConfig, BreakerState, ChaosShard, DispatchConfig, Dispatcher,
    EngineShard, FaultKind, Outcome, Reply, Request, RetryPolicy, ServeConfig, ShardBackend,
    ShardPolicy, ShardSet, ShardSetSnapshot, ShedReason,
};
use unn::Uncertain;
use unn_observe::{Clock, NullClock, VirtualClock};

fn serve_config() -> ServeConfig {
    ServeConfig {
        mc_rounds: 96,
        ..ServeConfig::default()
    }
}

fn build_set(n_shards: usize, n_points: usize) -> ShardSet {
    set_of(n_shards, serve_config(), grid_disks(n_points))
}

/// `n` disks on a grid, eight to a row.
fn grid_disks(n: usize) -> impl Iterator<Item = Uncertain> {
    (0..n).map(|i| {
        Uncertain::uniform_disk(
            Point::new((i % 8) as f64 * 2.2, (i / 8) as f64 * 2.2),
            0.35 + 0.04 * (i % 4) as f64,
        )
    })
}

fn set_of(
    n_shards: usize,
    cfg: ServeConfig,
    points: impl IntoIterator<Item = Uncertain>,
) -> ShardSet {
    let mut set = ShardSet::new(n_shards, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
    for p in points {
        set.insert(p);
    }
    set
}

/// A clock that advances a fixed step on every read, so every timed
/// interval with no read inside it measures exactly one step.
struct StepClock {
    now: AtomicU64,
    step: u64,
}

impl StepClock {
    fn new(step: u64) -> Self {
        Self {
            now: AtomicU64::new(0),
            step,
        }
    }
}

impl Clock for StepClock {
    fn now_nanos(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::Relaxed) + self.step
    }
}

fn requests() -> Vec<Request> {
    let mut reqs = Vec::new();
    for i in 0..12 {
        let q = Point::new(1.3 * i as f64 - 4.0, 0.9 * (i % 5) as f64);
        reqs.push(Request::NnNonzero(q));
        reqs.push(Request::Quantify(q));
    }
    reqs
}

/// A dispatcher over an arbitrary subset of the snapshot's shards, with no
/// exact view — the fault-free oracle for a run where the complement of
/// `keep` has failed.
fn subset_dispatcher(snap: &ShardSetSnapshot, keep: &[usize], cfg: DispatchConfig) -> Dispatcher {
    let clock = Arc::new(NullClock);
    let backends: Vec<Box<dyn ShardBackend>> = keep
        .iter()
        .map(|&k| {
            Box::new(EngineShard::new(snap.shards()[k].clone(), clock.clone()))
                as Box<dyn ShardBackend>
        })
        .collect();
    Dispatcher::new(backends, None, cfg, clock).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `reqs` through a dispatcher whose shard 0 carries `fault`, at the
/// given thread count, and returns (replies, deterministic counters).
fn faulted_run(
    snap: &ShardSetSnapshot,
    fault: FaultKind,
    threads: Option<usize>,
    reqs: &[Request],
) -> (Vec<Reply>, unn_observe::ServeCounters) {
    let cfg = DispatchConfig {
        threads,
        call_timeout_nanos: 1_000_000,
        ..DispatchConfig::default()
    };
    let mut d =
        Dispatcher::for_snapshot(snap, cfg, Arc::new(NullClock)).unwrap_or_else(|e| panic!("{e}"));
    d.wrap_shard(0, |inner| Box::new(ChaosShard::new(inner, fault)));
    let replies = d.serve(reqs);
    (replies, d.metrics().deterministic())
}

/// The fault-free oracle run over only the healthy shards, on one thread.
fn healthy_oracle(snap: &ShardSetSnapshot, reqs: &[Request]) -> Vec<Reply> {
    let keep: Vec<usize> = (1..snap.shards().len()).collect();
    let cfg = DispatchConfig {
        threads: Some(1),
        ..DispatchConfig::default()
    };
    subset_dispatcher(snap, &keep, cfg).serve(reqs)
}

/// Asserts that a faulted reply's *answer* is bit-identical to the
/// fault-free reply computed over the healthy subset alone.
fn assert_healthy_identical(faulted: &Reply, oracle: &Reply) {
    assert_eq!(faulted.outcome, oracle.outcome);
    assert_eq!(faulted.layout, oracle.layout);
    assert_eq!(faulted.covered, oracle.covered);
}

#[test]
fn panicking_shard_is_isolated_and_healthy_answers_are_bit_identical() {
    let set = build_set(4, 48);
    let snap = set.snapshot();
    let reqs = requests();
    let oracle = healthy_oracle(&snap, &reqs);

    let mut runs = Vec::new();
    for threads in [Some(1), Some(2), Some(8)] {
        let (replies, counters) = faulted_run(&snap, FaultKind::PanicOnQuery, threads, &reqs);
        assert_eq!(replies.len(), reqs.len());
        for (reply, oracle_reply) in replies.iter().zip(&oracle) {
            assert!(reply.failed_shards.contains(&0), "shard 0 must be failed");
            assert!(reply.degraded, "partial coverage must be flagged");
            assert!(reply.partial());
            assert_healthy_identical(reply, oracle_reply);
        }
        assert!(counters.shard_panics > 0);
        runs.push((replies, counters));
    }
    // Bit-identical replies AND counters at 1/2/8 threads.
    assert_eq!(runs[0].0, runs[1].0);
    assert_eq!(runs[0].0, runs[2].0);
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(runs[0].1, runs[2].1);
}

#[test]
fn nan_poisoned_shard_is_caught_by_validators() {
    let set = build_set(4, 40);
    let snap = set.snapshot();
    let reqs = requests();
    let oracle = healthy_oracle(&snap, &reqs);

    let (replies, counters) = faulted_run(&snap, FaultKind::NanPoison, Some(2), &reqs);
    for (reply, oracle_reply) in replies.iter().zip(&oracle) {
        assert!(reply.failed_shards.contains(&0));
        assert_healthy_identical(reply, oracle_reply);
        // NaN never leaks into an answer.
        match &reply.outcome {
            Outcome::Adaptive { pi, .. } | Outcome::Capped { pi, .. } | Outcome::Exact { pi } => {
                assert!(pi.iter().all(|p| p.is_finite()));
            }
            Outcome::Nonzero { .. } | Outcome::Shed { .. } => {}
        }
    }
    assert!(
        counters.poisoned_answers > 0,
        "validators must see the NaNs"
    );
    assert_eq!(counters.shard_panics, 0);
}

#[test]
fn slow_shard_times_out_and_is_failed() {
    let set = build_set(3, 30);
    let snap = set.snapshot();
    let reqs = requests();
    let oracle = {
        let cfg = DispatchConfig {
            threads: Some(1),
            ..DispatchConfig::default()
        };
        subset_dispatcher(&snap, &[1, 2], cfg).serve(&reqs)
    };
    // 2ms of injected slowness against a 1ms call timeout.
    let (replies, counters) = faulted_run(&snap, FaultKind::SlowBy(2_000_000), Some(2), &reqs);
    for (reply, oracle_reply) in replies.iter().zip(&oracle) {
        assert!(reply.failed_shards.contains(&0));
        assert_healthy_identical(reply, oracle_reply);
    }
    assert!(counters.timeouts > 0);
    // Each timed-out call still charges its modeled latency to the query.
    assert!(replies.iter().any(|r| r.elapsed_nanos >= 2_000_000));
}

#[test]
fn breaker_trips_cools_down_and_recovers_on_the_injected_clock() {
    let set = build_set(3, 24);
    let snap = set.snapshot();
    let clock = Arc::new(VirtualClock::new());
    let cfg = DispatchConfig {
        threads: Some(2),
        call_timeout_nanos: 1_000,
        breaker: BreakerConfig {
            trip_after: 3,
            cooldown_nanos: 1_000_000,
            close_after: 2,
        },
        ..DispatchConfig::default()
    };
    let mut d =
        Dispatcher::for_snapshot(&snap, cfg, clock.clone()).unwrap_or_else(|e| panic!("{e}"));
    // Chaos slowness on shard 0: every call reports 5µs against a 1µs
    // timeout. Keep a handle to heal it later.
    let chaos = ChaosShard::new(
        Box::new(EngineShard::new(snap.shards()[0].clone(), clock.clone())),
        FaultKind::SlowBy(5_000),
    );
    let armed = chaos.armed_handle();
    d.wrap_shard(0, move |_| Box::new(chaos));

    let q = Point::new(1.0, 1.0);
    // Enough failures to trip (retries make each query 3 failed attempts).
    d.serve(&[Request::Quantify(q)]);
    assert_eq!(
        d.breaker_states()[0],
        BreakerState::Open,
        "3 consecutive failures must trip the breaker"
    );
    assert_eq!(d.metrics().breaker_trips, 1);

    // While open, the shard is excluded without being called.
    let panics_before = d.metrics().shard_panics;
    let replies = d.serve(&[Request::Quantify(q)]);
    assert!(replies[0].failed_shards.contains(&0));
    assert_eq!(d.metrics().shard_panics, panics_before);

    // Cooldown elapses on the virtual clock; the shard is healed; the next
    // batch half-opens the breaker, probes succeed, and it closes.
    clock.advance(2_000_000);
    armed.store(false, Ordering::Relaxed);
    d.serve(&[Request::Quantify(q), Request::Quantify(q)]);
    assert_eq!(
        d.breaker_states()[0],
        BreakerState::Closed,
        "two successful probes must close the breaker"
    );
    assert!(d.metrics().breaker_recoveries >= 1);

    // Healed: full coverage again.
    let replies = d.serve(&[Request::Quantify(q)]);
    assert!(replies[0].failed_shards.is_empty());
    assert_eq!(replies[0].covered, replies[0].total_live);
}

#[test]
fn shedding_is_honest_and_tiered() {
    let set = build_set(2, 20);
    let snap = set.snapshot();
    let exact_work = snap.exact_view().work();
    let s = snap.mc_rounds() as u64;
    // Capacity for one exact sweep, one adaptive run, one capped run —
    // then nothing.
    let cfg = DispatchConfig {
        threads: Some(1),
        admission: AdmissionConfig {
            work_capacity: exact_work + s + 64,
            nn_cost: 8,
            capped_rounds: 64,
            feedback: None,
        },
        ..DispatchConfig::default()
    };
    let mut d =
        Dispatcher::for_snapshot(&snap, cfg, Arc::new(NullClock)).unwrap_or_else(|e| panic!("{e}"));
    let q = Point::new(2.0, 2.0);
    let replies = d.serve(&[
        Request::Quantify(q),
        Request::Quantify(q),
        Request::Quantify(q),
        Request::Quantify(q),
        Request::Quantify(Point::new(f64::NAN, 0.0)),
    ]);
    assert!(matches!(replies[0].outcome, Outcome::Exact { .. }));
    match &replies[1].outcome {
        Outcome::Adaptive {
            achieved_epsilon, ..
        } => assert!(achieved_epsilon.is_finite() && *achieved_epsilon > 0.0),
        other => panic!("expected Adaptive, got {other:?}"),
    }
    match &replies[2].outcome {
        Outcome::Capped {
            achieved_epsilon,
            rounds_used,
            ..
        } => {
            assert!(*rounds_used <= 64);
            assert!(*achieved_epsilon > 0.0, "capped tier is honest about ε");
        }
        other => panic!("expected Capped, got {other:?}"),
    }
    assert_eq!(
        replies[3].outcome,
        Outcome::Shed {
            reason: ShedReason::CapacityExhausted
        }
    );
    assert_eq!(
        replies[4].outcome,
        Outcome::Shed {
            reason: ShedReason::InvalidQuery
        }
    );
    // Downgraded tiers are flagged degraded even at full coverage.
    assert!(!replies[0].degraded);
    assert!(replies[1].degraded && replies[2].degraded);
    let m = d.metrics();
    assert_eq!(m.answered_exact, 1);
    assert_eq!(m.answered_adaptive, 1);
    assert_eq!(m.answered_capped, 1);
    assert_eq!(m.shed, 2);
    assert_eq!(m.shed_capacity, 1);
    assert_eq!(m.shed_invalid, 1);
}

/// 4096 rounds over `build_set`'s 20 points certify a half-width of
/// 0.0368 at δ = 0.01 before any query runs.
fn certified_config() -> ServeConfig {
    ServeConfig {
        mc_rounds: 4096,
        ..ServeConfig::default()
    }
}

#[test]
fn certified_monte_carlo_answers_before_a_costlier_exact_sweep() {
    let set = set_of(2, certified_config(), grid_disks(20));
    let snap = set.snapshot();
    assert!(snap.exact_view().work() > snap.mc_rounds() as u64);
    let reqs = requests();
    let mut runs = Vec::new();
    for threads in [Some(1), Some(2), Some(8)] {
        let cfg = DispatchConfig {
            threads,
            ..DispatchConfig::default()
        };
        let mut d = Dispatcher::for_snapshot(&snap, cfg, Arc::new(NullClock))
            .unwrap_or_else(|e| panic!("{e}"));
        let replies = d.serve(&reqs);
        for (req, reply) in reqs.iter().zip(&replies) {
            if let Request::NnNonzero(_) = req {
                continue;
            }
            match &reply.outcome {
                Outcome::Adaptive {
                    achieved_epsilon, ..
                } => assert!(*achieved_epsilon <= 0.05, "certified {achieved_epsilon}"),
                other => panic!("expected Adaptive, got {other:?}"),
            }
            // Below the exact view's tier, so still flagged; full coverage.
            assert!(reply.degraded);
            assert!(!reply.partial());
        }
        let counters = d.metrics().deterministic();
        assert_eq!(counters.answered_exact, 0);
        assert_eq!(counters.answered_adaptive, 12);
        runs.push((replies, counters));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);

    // An ε the rounds cannot certify keeps the exact tier first.
    let cfg = DispatchConfig {
        threads: Some(1),
        epsilon: 0.03,
        ..DispatchConfig::default()
    };
    let mut d =
        Dispatcher::for_snapshot(&snap, cfg, Arc::new(NullClock)).unwrap_or_else(|e| panic!("{e}"));
    let replies = d.serve(&[Request::Quantify(Point::new(2.0, 2.0))]);
    assert!(matches!(replies[0].outcome, Outcome::Exact { .. }));
    assert!(!replies[0].degraded);

    // So does an exact sweep cheaper than the rounds: 20 three-location
    // discrete points cost 60 touches against 4096 rounds.
    let set = set_of(
        2,
        certified_config(),
        unn_testkit::corpus::uniform_discrete(20, 3, 7),
    );
    let snap = set.snapshot();
    assert!(snap.exact_view().work() <= snap.mc_rounds() as u64);
    let mut d = Dispatcher::for_snapshot(&snap, DispatchConfig::default(), Arc::new(NullClock))
        .unwrap_or_else(|e| panic!("{e}"));
    let replies = d.serve(&reqs);
    for (req, reply) in reqs.iter().zip(&replies) {
        if let Request::Quantify(_) = req {
            assert!(matches!(reply.outcome, Outcome::Exact { .. }));
        }
    }
    assert_eq!(d.metrics().answered_exact, 12);
}

#[test]
fn exact_tier_time_is_recorded_through_the_clock() {
    // 3 ms, so the microsecond latency histogram records it exactly.
    const STEP: u64 = 3_000_000;
    let set = build_set(2, 20);
    let snap = set.snapshot();
    let cfg = DispatchConfig {
        threads: Some(1),
        ..DispatchConfig::default()
    };
    let mut d = Dispatcher::for_snapshot(&snap, cfg, Arc::new(StepClock::new(STEP)))
        .unwrap_or_else(|e| panic!("{e}"));
    let replies = d.serve(&[Request::Quantify(Point::new(2.0, 2.0))]);
    assert!(matches!(replies[0].outcome, Outcome::Exact { .. }));
    assert_eq!(replies[0].elapsed_nanos, STEP);
    let latency = &d.metrics().query_latency;
    assert_eq!((latency.count, latency.sum), (1, u128::from(STEP / 1_000)));

    // A faulting sweep stays charged to the Monte-Carlo fallback: the
    // numeric sweep rejects a one-step grid by panicking, then each of
    // the two shards' round-winner calls takes one more step.
    let cfg_one_step = ServeConfig {
        numeric_steps: 1,
        ..serve_config()
    };
    let set = set_of(2, cfg_one_step, grid_disks(20));
    let snap = set.snapshot();
    let mut d = Dispatcher::for_snapshot(&snap, cfg, Arc::new(StepClock::new(STEP)))
        .unwrap_or_else(|e| panic!("{e}"));
    let replies = d.serve(&[Request::Quantify(Point::new(2.0, 2.0))]);
    assert!(matches!(replies[0].outcome, Outcome::Adaptive { .. }));
    assert_eq!(d.metrics().exact_faults, 1);
    assert_eq!(replies[0].elapsed_nanos, 3 * STEP);
}

#[test]
fn deadline_and_retry_accounting_is_deterministic() {
    let set = build_set(2, 16);
    let snap = set.snapshot();
    // A zero deadline: every shard call is skipped before it starts.
    let cfg = DispatchConfig {
        threads: Some(1),
        deadline_nanos: 0,
        ..DispatchConfig::default()
    };
    let mut d =
        Dispatcher::for_snapshot(&snap, cfg, Arc::new(NullClock)).unwrap_or_else(|e| panic!("{e}"));
    // The exact tier bypasses shard calls, so force the Monte-Carlo path.
    d.wrap_shard(0, |b| b);
    let replies = d.serve(&[Request::Quantify(Point::new(0.0, 0.0))]);
    assert_eq!(
        replies[0].outcome,
        Outcome::Shed {
            reason: ShedReason::DeadlineExceeded
        }
    );
    assert_eq!(d.metrics().shed_deadline, 1);

    // Retries are bounded: a panicking shard costs exactly
    // 1 + max_retries attempts per stage-1 call.
    let cfg = DispatchConfig {
        threads: Some(1),
        retry: RetryPolicy {
            max_retries: 2,
            backoff_base_nanos: 1_000,
        },
        ..DispatchConfig::default()
    };
    let mut d =
        Dispatcher::for_snapshot(&snap, cfg, Arc::new(NullClock)).unwrap_or_else(|e| panic!("{e}"));
    d.wrap_shard(0, |inner| {
        Box::new(ChaosShard::new(inner, FaultKind::PanicOnQuery))
    });
    let replies = d.serve(&[Request::Quantify(Point::new(0.0, 0.0))]);
    assert_eq!(replies[0].retries, 2);
    assert_eq!(d.metrics().shard_panics, 3);
    // Backoff is charged to the modeled latency: 1µs + 2µs.
    assert!(replies[0].elapsed_nanos >= 3_000);
}

#[test]
fn empty_set_and_all_shards_down_answer_honestly() {
    let set = build_set(2, 0);
    let snap = set.snapshot();
    let mut d = Dispatcher::for_snapshot(&snap, DispatchConfig::default(), Arc::new(NullClock))
        .unwrap_or_else(|e| panic!("{e}"));
    let replies = d.serve(&[
        Request::NnNonzero(Point::new(0.0, 0.0)),
        Request::Quantify(Point::new(0.0, 0.0)),
    ]);
    assert_eq!(replies[0].outcome, Outcome::Nonzero { ids: vec![] });
    assert_eq!(replies[1].outcome, Outcome::Exact { pi: vec![] });

    // Every shard poisoned: NoCoverage, not a wrong answer.
    let set = build_set(2, 12);
    let snap = set.snapshot();
    let mut d = Dispatcher::for_snapshot(&snap, DispatchConfig::default(), Arc::new(NullClock))
        .unwrap_or_else(|e| panic!("{e}"));
    for k in 0..2 {
        d.wrap_shard(k, |inner| {
            Box::new(ChaosShard::new(inner, FaultKind::PanicOnQuery))
        });
    }
    let replies = d.serve(&[Request::NnNonzero(Point::new(0.0, 0.0))]);
    assert_eq!(
        replies[0].outcome,
        Outcome::Shed {
            reason: ShedReason::NoCoverage
        }
    );
    assert_eq!(replies[0].failed_shards, vec![0, 1]);
}
