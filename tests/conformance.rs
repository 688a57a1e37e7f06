//! Conformance suite: the approximate estimators agree with the exact
//! oracle within their advertised bounds, and `NN≠0` covers every
//! realizable nearest neighbor.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::batch::{query_stream_seed, BatchOptions};
use unn::distr::DiscreteDistribution;
use unn::geom::Point;
use unn::quantify::MonteCarloIndex;
use unn::{PnnConfig, PnnIndex, QuantifyMethod, Uncertain, UncertainPoint};

fn random_discrete_instance(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cx: f64 = rng.random_range(-25.0..25.0);
            let cy: f64 = rng.random_range(-25.0..25.0);
            let pts: Vec<Point> = (0..k)
                .map(|_| {
                    Point::new(
                        cx + rng.random_range(-4.0..4.0),
                        cy + rng.random_range(-4.0..4.0),
                    )
                })
                .collect();
            let ws: Vec<f64> = (0..k).map(|_| rng.random_range(0.1..3.0)).collect();
            Uncertain::Discrete(DiscreteDistribution::new(pts, ws).unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spiral-search quantification stays within the configured additive ε
    /// of the exact Eq. 2 sweep on random discrete instances.
    #[test]
    fn spiral_quantify_within_epsilon_of_exact(
        seed in 0u64..100_000, qx in -30.0f64..30.0, qy in -30.0f64..30.0,
    ) {
        let idx = PnnIndex::new(random_discrete_instance(8, 3, seed));
        let q = Point::new(qx, qy);
        let (pi, method) = idx.quantify(q);
        prop_assert_eq!(method, QuantifyMethod::Spiral);
        let (exact, _) = idx.quantify_exact(q);
        let eps = idx.config().epsilon;
        for (i, (a, e)) in pi.iter().zip(&exact).enumerate() {
            prop_assert!((a - e).abs() <= eps + 1e-9, "i={}: spiral={} exact={}", i, a, e);
        }
    }

    /// Monte-Carlo quantification (fresh per-query streams, the batch
    /// layer's randomized path) stays within ε of the exact sweep when run
    /// with the Theorem 4.3 per-query round count.
    #[test]
    fn monte_carlo_quantify_within_epsilon_of_exact(
        seed in 0u64..100_000, qi in 0u64..64, qx in -30.0f64..30.0, qy in -30.0f64..30.0,
    ) {
        let points = random_discrete_instance(6, 3, seed);
        let idx = PnnIndex::new(points);
        let q = Point::new(qx, qy);
        let eps = 0.05;
        // One query asked of this stream: m = 1 in the per-query bound.
        let s = MonteCarloIndex::samples_for_queries(eps, 0.001, idx.len(), 1);
        let mut rng = SmallRng::seed_from_u64(query_stream_seed(idx.config().seed, qi));
        let pi = idx.quantify_fresh(q, s, &mut rng);
        let (exact, _) = idx.quantify_exact(q);
        for (i, (a, e)) in pi.iter().zip(&exact).enumerate() {
            prop_assert!((a - e).abs() <= eps, "i={}: mc={} exact={}", i, a, e);
        }
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// The prebuilt Monte-Carlo structure conforms too: `quantify` on a
    /// continuous-free instance forced down the MC path sums to 1 and tracks
    /// the exact sweep within the build ε.
    #[test]
    fn prebuilt_monte_carlo_within_epsilon_of_exact(
        seed in 0u64..100_000, qx in -30.0f64..30.0, qy in -30.0f64..30.0,
    ) {
        let points = random_discrete_instance(6, 2, seed);
        let mc = {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
            let s = MonteCarloIndex::samples_for_queries(0.05, 0.001, 6, 1);
            MonteCarloIndex::build(&points, s, unn::quantify::McBackend::KdTree, &mut rng)
        };
        let idx = PnnIndex::new(points);
        let q = Point::new(qx, qy);
        let est = mc.query(q);
        let (exact, _) = idx.quantify_exact(q);
        for (a, e) in est.iter().zip(&exact) {
            prop_assert!((a - e).abs() <= 0.05, "mc={} exact={}", a, e);
        }
    }

    /// Lemma 2.1 completeness: `nn_nonzero(q)` contains the true nearest
    /// neighbor of every sampled instantiation of the uncertain set.
    #[test]
    fn nn_nonzero_contains_nn_of_every_instantiation(
        seed in 0u64..100_000, qx in -30.0f64..30.0, qy in -30.0f64..30.0,
    ) {
        let points = random_discrete_instance(12, 3, seed);
        let idx = PnnIndex::new(points.clone());
        let q = Point::new(qx, qy);
        let nz = idx.nn_nonzero(q);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1234);
        for _ in 0..64 {
            let winner = points
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.sample(&mut rng).dist(q)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            // Exclude exact ties (measure-zero; Eq. 2 assigns them zero mass).
            let tied = points
                .iter()
                .enumerate()
                .any(|(j, p)| j != winner.0 && p.min_dist(q) == winner.1);
            if !tied {
                prop_assert!(
                    nz.contains(&winner.0),
                    "instantiation NN {} (d={}) missing from NN!=0 {:?}",
                    winner.0, winner.1, nz
                );
            }
        }
    }

    /// Batch and sequential conformance agree: the batch engine inherits
    /// every bound above because its outputs are bit-identical.
    #[test]
    fn batch_quantify_inherits_epsilon_bound(
        seed in 0u64..100_000,
    ) {
        let idx = PnnIndex::new(random_discrete_instance(8, 2, seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        let qs: Vec<Point> = (0..16)
            .map(|_| Point::new(rng.random_range(-30.0..30.0), rng.random_range(-30.0..30.0)))
            .collect();
        let opts = BatchOptions::default();
        let approx = opts.map(&qs, |q| idx.quantify(q).0);
        let exact = opts.map(&qs, |q| idx.quantify_exact(q).0);
        let eps = idx.config().epsilon;
        for (pi, ex) in approx.iter().zip(&exact) {
            for (a, e) in pi.iter().zip(ex) {
                prop_assert!((a - e).abs() <= eps + 1e-9);
            }
        }
    }
}

#[test]
fn quantify_fresh_respects_round_budget_scaling() {
    // Halving eps needs ~4x the rounds: sanity-check the config plumbing the
    // batch layer documents for choosing `rounds`.
    let s1 = MonteCarloIndex::samples_for_queries(0.1, 0.01, 10, 1);
    let s2 = MonteCarloIndex::samples_for_queries(0.05, 0.01, 10, 1);
    assert!(s2 >= 3 * s1);
    // And the PnnConfig default round cap stays above the per-query need
    // for the default epsilon.
    let cfg = PnnConfig::default();
    assert!(
        MonteCarloIndex::samples_for_queries(cfg.epsilon, cfg.delta, 100, 1) <= cfg.max_mc_rounds
    );
}
