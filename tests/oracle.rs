//! Differential-oracle suite: one shared random discrete corpus pushed
//! through every quantification path — the exact Eq. 2 sweep, the spiral
//! estimator, fixed-`s` Monte-Carlo (adaptive forced to exhaust its
//! budget), adaptive early stopping, and budget-capped degradation — with
//! pairwise agreement checked against each path's *honest* advertised
//! accuracy (`achieved_epsilon` / `half_width`), never a hard-coded bound.
//!
//! Everything here is deterministic: corpus and queries come from fixed
//! seeds and the Monte-Carlo rounds are frozen at build time by
//! `PnnConfig::seed`, so these are regression tests, not flaky
//! probabilistic ones.

use unn::geom::Point;
use unn::observe::{NullClock, QueryOutcome};
use unn::quantify::ADAPTIVE_MIN_ROUNDS;
use unn::{PnnIndex, QuantifyMethod, QuantifyOutcome, QueryBudget, Uncertain, UnnError};
use unn_testkit::{corpus as kit, max_abs_diff};

const EPS: f64 = 0.05;
const DELTA: f64 = 0.01;

fn corpus(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
    kit::weighted_discrete(n, k, seed)
}

fn queries(m: usize, seed: u64) -> Vec<Point> {
    kit::query_points(m, seed, 30.0)
}

fn shared() -> (PnnIndex, Vec<Point>) {
    (PnnIndex::new(corpus(24, 4, 900)), queries(12, 901))
}

/// `rounds_used` must land on the doubling checkpoint schedule
/// `{min, 2·min, 4·min, …} ∪ {cap}` — the stopping rule only evaluates (and
/// certifies `half_width` at) checkpoints.
fn is_checkpoint(rounds_used: usize, cap: usize) -> bool {
    let mut t = ADAPTIVE_MIN_ROUNDS.min(cap);
    loop {
        if rounds_used == t {
            return true;
        }
        if t >= cap {
            return false;
        }
        t = (t * 2).min(cap);
    }
}

/// The exact sweep is the ground truth every other path is judged against:
/// a proper distribution whose support is exactly the nonzero-NN set.
#[test]
fn exact_oracle_is_distribution_with_nonzero_support() {
    let (idx, qs) = shared();
    for &q in &qs {
        let (pi, method) = idx.quantify_exact(q);
        assert_eq!(method, QuantifyMethod::ExactSweep);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let nonzero = idx.nn_nonzero(q);
        for (i, &p) in pi.iter().enumerate() {
            assert!(p >= 0.0);
            assert!(
                p <= 1e-12 || nonzero.contains(&i),
                "pi[{i}]={p} but {i} not in nonzero set at {q:?}"
            );
        }
    }
}

/// Spiral (the fixed discrete estimator behind `quantify`) agrees with the
/// exact oracle within the configured ε it advertises.
#[test]
fn spiral_agrees_with_exact_within_configured_epsilon() {
    let (idx, qs) = shared();
    for &q in &qs {
        let (pi, method) = idx.quantify(q);
        assert_eq!(method, QuantifyMethod::Spiral);
        let (exact, _) = idx.quantify_exact(q);
        let d = max_abs_diff(&pi, &exact);
        assert!(
            d <= idx.config().epsilon + 1e-9,
            "spiral off by {d} at {q:?}"
        );
    }
}

/// Fixed-`s` Monte-Carlo: an adaptive query with an unreachably small ε
/// consumes every pre-drawn round, so its estimate IS the fixed-`s`
/// estimate. It must sit within the `mc_achieved_epsilon` the build
/// certifies for that `s` (and within its own reported half-width).
#[test]
fn fixed_s_mc_agrees_with_exact_within_achieved_epsilon() {
    let (idx, qs) = shared();
    let s = idx.mc_rounds();
    for &q in &qs {
        let a = idx.quantify_adaptive(q, 1e-9, DELTA);
        assert_eq!(a.rounds_used, s, "1e-9 target must exhaust the budget");
        let (exact, _) = idx.quantify_exact(q);
        let d = max_abs_diff(&a.pi, &exact);
        assert!(
            d <= idx.mc_achieved_epsilon(),
            "fixed-s off by {d} > {} at {q:?}",
            idx.mc_achieved_epsilon()
        );
        assert!(
            d <= a.half_width,
            "fixed-s off by {d} > hw {}",
            a.half_width
        );
    }
}

/// Adaptive early stopping: the certificate is honest (the true error is
/// within `half_width`), the target is met unless the budget ran dry, and
/// `rounds_used` lands on the checkpoint schedule the bound was union'd
/// over.
#[test]
fn adaptive_certificate_is_honest_and_rounds_consistent() {
    let (idx, qs) = shared();
    let s = idx.mc_rounds();
    for &q in &qs {
        let a = idx.quantify_adaptive(q, EPS, DELTA);
        assert!((a.pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(a.rounds_used >= ADAPTIVE_MIN_ROUNDS.min(s));
        assert!(a.rounds_used <= s);
        assert!(
            is_checkpoint(a.rounds_used, s),
            "rounds_used={}",
            a.rounds_used
        );
        assert!(
            a.half_width <= EPS || a.rounds_used == s,
            "stopped early at {} rounds without certifying eps (hw={})",
            a.rounds_used,
            a.half_width
        );
        let (exact, _) = idx.quantify_exact(q);
        let d = max_abs_diff(&a.pi, &exact);
        assert!(
            d <= a.half_width,
            "true error {d} > certified {}",
            a.half_width
        );
    }
}

/// Budget-capped quantification degrades honestly: under a cap below the
/// exact-sweep cost the answer is `Degraded` with `rounds_used ≤ cap`,
/// `work == rounds_used`, and a certificate that really bounds the error;
/// a zero budget errs; an ample budget reproduces the exact sweep
/// bit-for-bit.
#[test]
fn budget_capped_agrees_within_achieved_epsilon() {
    let (idx, qs) = shared();
    let exact_work = idx.exact_work();
    let cap = 64u64;
    assert!(cap < exact_work, "corpus too small to force degradation");
    for &q in &qs {
        match idx.quantify_within(q, QueryBudget::with_work(cap)).unwrap() {
            QuantifyOutcome::Degraded {
                pi,
                achieved_epsilon,
                rounds_used,
                work,
            } => {
                assert!(rounds_used as u64 <= cap);
                assert_eq!(work, rounds_used as u64);
                assert!(is_checkpoint(rounds_used, cap as usize));
                let (exact, _) = idx.quantify_exact(q);
                let d = max_abs_diff(&pi, &exact);
                assert!(
                    d <= achieved_epsilon,
                    "degraded error {d} > certified {achieved_epsilon} at {q:?}"
                );
            }
            other => panic!("expected Degraded under cap {cap}, got {other:?}"),
        }

        match idx.quantify_within(q, QueryBudget::with_work(0)) {
            Err(UnnError::BudgetExhausted { .. }) => {}
            other => panic!("expected BudgetExhausted at zero budget, got {other:?}"),
        }

        let (exact, _) = idx.quantify_exact(q);
        match idx.quantify_within(q, QueryBudget::unlimited()).unwrap() {
            QuantifyOutcome::Exact { pi, work, .. } => {
                assert_eq!(pi, exact, "unlimited budget must match the sweep exactly");
                assert_eq!(work, exact_work);
            }
            other => panic!("expected Exact under unlimited budget, got {other:?}"),
        }
    }
}

/// Every pair of approximate paths agrees within the *sum* of its honest
/// bounds (triangle inequality through the exact oracle) — catches any
/// path silently reporting a tighter accuracy than it delivers.
#[test]
fn pairwise_agreement_within_summed_bounds() {
    let (idx, qs) = shared();
    let eps_spiral = idx.config().epsilon;
    for &q in &qs {
        let (spiral, _) = idx.quantify(q);
        let a = idx.quantify_adaptive(q, EPS, DELTA);
        let degraded = match idx.quantify_within(q, QueryBudget::with_work(64)).unwrap() {
            QuantifyOutcome::Degraded {
                pi,
                achieved_epsilon,
                ..
            } => (pi, achieved_epsilon),
            other => panic!("expected Degraded, got {other:?}"),
        };
        assert!(max_abs_diff(&spiral, &a.pi) <= eps_spiral + a.half_width);
        assert!(max_abs_diff(&spiral, &degraded.0) <= eps_spiral + degraded.1);
        assert!(max_abs_diff(&a.pi, &degraded.0) <= a.half_width + degraded.1);
    }
}

/// The observability layer reports the same numbers the results carry:
/// `QueryStats.rounds_used` / `rounds_total` / `achieved_epsilon` match the
/// `AdaptiveQuantify` they rode in on, and guarded outcomes map to the
/// right `QueryOutcome`.
#[test]
fn observed_stats_match_results() {
    let (idx, qs) = shared();
    let s = idx.mc_rounds() as u64;
    for &q in &qs {
        let (a, stats) = idx.observed(&NullClock, || idx.quantify_adaptive(q, EPS, DELTA));
        assert_eq!(stats.rounds_used, a.rounds_used as u64);
        assert_eq!(stats.rounds_total, s);
        assert_eq!(stats.achieved_epsilon, a.half_width);
        assert_eq!(stats.wall_nanos, 0, "NullClock must report zero wall time");

        let (res, stats) = idx.observed(&NullClock, || {
            idx.quantify_guarded(q, QueryBudget::with_work(64))
        });
        match res.unwrap() {
            QuantifyOutcome::Degraded {
                rounds_used,
                achieved_epsilon,
                ..
            } => {
                assert_eq!(stats.outcome, QueryOutcome::Degraded);
                assert_eq!(stats.rounds_used, rounds_used as u64);
                assert_eq!(stats.achieved_epsilon, achieved_epsilon);
            }
            QuantifyOutcome::Exact { .. } => panic!("cap 64 must degrade"),
        }

        let (res, stats) = idx.observed(&NullClock, || {
            idx.quantify_guarded(q, QueryBudget::unlimited())
        });
        assert!(matches!(res, Ok(QuantifyOutcome::Exact { .. })));
        assert_eq!(stats.outcome, QueryOutcome::Exact);
    }
}

/// Serving-layer honesty under faults and shedding: every degraded tier the
/// dispatcher hands back (adaptive after a shard failure, round-capped
/// under admission pressure) certifies an `achieved_epsilon` that really
/// bounds its error against the exact Eq. 2 sweep **over the covered set**
/// — the points its `layout` actually names. Deterministic: fixed seeds
/// freeze the Monte-Carlo rounds, so this is a regression test.
#[test]
fn serve_degraded_epsilon_bounds_true_error_under_faults_and_shedding() {
    use std::sync::Arc;
    use unn::serve::{
        AdmissionConfig, ChaosShard, DispatchConfig, Dispatcher, FaultKind, Outcome, Request,
        ServeConfig, ShardPolicy, ShardSet,
    };
    use unn::PointId;
    use unn_observe::NullClock;

    let points = corpus(24, 3, 3100);
    let cfg = ServeConfig {
        mc_rounds: 256,
        ..ServeConfig::default()
    };
    let mut set = ShardSet::new(3, ShardPolicy::Hash, cfg).unwrap();
    for (i, p) in points.iter().enumerate() {
        assert_eq!(set.insert(p.clone()), i as PointId);
    }
    let snap = set.snapshot();
    let qs = queries(10, 3101);

    // The exact oracle over an arbitrary covered subset, in layout order.
    let exact_over = |layout: &[PointId], q: Point| -> Vec<f64> {
        let subset: Vec<Uncertain> = layout
            .iter()
            .map(|&id| points[id as usize].clone())
            .collect();
        PnnIndex::new(subset).quantify_exact(q).0
    };

    // Scenario 1: shard 0 panics — partial coverage, adaptive tier.
    let mut faulted = Dispatcher::for_snapshot(
        &snap,
        DispatchConfig {
            threads: Some(2),
            ..DispatchConfig::default()
        },
        Arc::new(NullClock),
    )
    .unwrap();
    faulted.wrap_shard(0, |inner| {
        Box::new(ChaosShard::new(inner, FaultKind::PanicOnQuery))
    });

    // Scenario 2: admission pressure — full coverage, capped tier.
    let mut starved = Dispatcher::for_snapshot(
        &snap,
        DispatchConfig {
            threads: Some(2),
            admission: AdmissionConfig {
                work_capacity: 64,
                nn_cost: 8,
                capped_rounds: 64,
                feedback: None,
            },
            ..DispatchConfig::default()
        },
        Arc::new(NullClock),
    )
    .unwrap();

    for &q in &qs {
        let reply = faulted.serve(&[Request::Quantify(q)]).remove(0);
        match &reply.outcome {
            Outcome::Adaptive {
                pi,
                achieved_epsilon,
                ..
            } => {
                assert!(reply.partial(), "shard 0 must be missing");
                let exact = exact_over(&reply.layout, q);
                let d = max_abs_diff(pi, &exact);
                assert!(
                    d <= *achieved_epsilon,
                    "faulted degraded error {d} > certified {achieved_epsilon} at {q:?}"
                );
            }
            other => panic!("expected Adaptive under shard fault, got {other:?}"),
        }

        // One query per batch so the capacity ladder lands on Capped.
        let reply = starved.serve(&[Request::Quantify(q)]).remove(0);
        match &reply.outcome {
            Outcome::Capped {
                pi,
                achieved_epsilon,
                rounds_used,
            } => {
                assert!(*rounds_used <= 64);
                assert_eq!(reply.covered, points.len(), "no shard failed here");
                let exact = exact_over(&reply.layout, q);
                let d = max_abs_diff(pi, &exact);
                assert!(
                    d <= *achieved_epsilon,
                    "capped degraded error {d} > certified {achieved_epsilon} at {q:?}"
                );
            }
            other => panic!("expected Capped under admission pressure, got {other:?}"),
        }
    }
}
