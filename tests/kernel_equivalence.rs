//! Differential guard for the batched SoA distance kernels: every batched
//! read path must be **bit-identical** to its retained scalar oracle —
//! same ids, same `f64` bits, same visit sequences, same early-exit
//! flags — across random corpora, adversarial geometry (coincident,
//! collinear, denormal, near-overflow coordinates), corpora surviving
//! dynamic churn, and concurrent query threads.
//!
//! Corpora, signatures, and the churn driver live in `unn-testkit`
//! (shared with `tests/dynamic_oracle.rs`); this file owns only the
//! batched-vs-scalar assertions.
//!
//! The one deliberate exception is [`KdTree::prune_with_cap`], whose
//! batched walk is allowed to skip contract-dead points: there the
//! *fold outputs* (`delta_min`, `prune_bound`, `cap_for`) must match the
//! visit-every-slot scalar walk bit-for-bit, per the exactness contract
//! documented on the method.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::dynamic::DynamicPnnConfig;
use unn::PnnConfig;
use unn_distr::{Uncertain, UncertainPoint};
use unn_geom::{Disk, Point};
use unn_nonzero::DiskNonzeroIndex;
use unn_quantify::{McBackend, MonteCarloIndex};
use unn_spatial::{KdConfig, KdForest, KdTree};
use unn_testkit::sig::{configs, forest_signature, kd_signature};
use unn_testkit::{churn, corpus};

/// Asserts batched == scalar for every config over one corpus. Returns
/// the batched signature of the last config for reuse (thread tests).
fn check_corpus(pts: &[Point], seed: u64) -> Vec<u64> {
    let (lo, hi) = corpus::aux_offsets(pts.len(), seed);
    let boxes = corpus::support_boxes(pts, &lo);
    let queries = corpus::queries_for(5, pts, seed);
    let mut last = Vec::new();
    for cfg in configs() {
        let tree = KdTree::with_aux_bounds_config(pts, &lo, &hi, cfg);
        let batched = kd_signature(&tree, pts, &lo, &boxes, &queries, false);
        let scalar = kd_signature(&tree, pts, &lo, &boxes, &queries, true);
        assert_eq!(
            batched,
            scalar,
            "batched/scalar divergence on {} points under {:?}",
            pts.len(),
            cfg
        );
        last = batched;
    }
    last
}

fn check_forest(pts: &[Point], seed: u64) {
    let mut forest = KdForest::new();
    // Uneven rounds, including an empty one: partial lane batches at
    // every round boundary.
    forest.push_round(&pts[..pts.len() / 3]);
    forest.push_round(&[]);
    forest.push_round(&pts[pts.len() / 3..]);
    forest.push_round(pts);
    let queries = corpus::queries_for(4, pts, seed ^ 0xF0);
    assert_eq!(
        forest_signature(&forest, &queries, false),
        forest_signature(&forest, &queries, true),
        "forest batched/scalar divergence on {} points",
        pts.len()
    );
}

/// Full quantify fast path (`prune_radius` + seeded arena fold + winners
/// decode) against its scalar twin: membership probabilities bit-equal.
fn check_montecarlo(points: &[Uncertain], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4D43);
    let index = MonteCarloIndex::build(points, 64, McBackend::KdTree, &mut rng);
    let queries = corpus::query_points(6, seed ^ 0x9, 25.0);
    let (mut pi, mut pi_scalar) = (Vec::new(), Vec::new());
    for &q in &queries {
        let pr = index.prune_radius(q);
        let pr_scalar = index.prune_radius_scalar(q);
        assert_eq!(pr.to_bits(), pr_scalar.to_bits(), "prune_radius diverged");
        index.query_into(q, &mut pi);
        index.query_into_scalar(q, &mut pi_scalar);
        let a: Vec<u64> = pi.iter().map(|p| p.to_bits()).collect();
        let b: Vec<u64> = pi_scalar.iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b, "query_into diverged from scalar at {q:?}");
    }
}

// ---------------------------------------------------------------------------
// Random corpora (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kd_tree_batched_matches_scalar(n in 1usize..140, seed in 0u64..1_000_000) {
        check_corpus(&corpus::points(n, seed), seed);
    }

    #[test]
    fn forest_batched_matches_scalar(n in 2usize..100, seed in 0u64..1_000_000) {
        check_forest(&corpus::points(n, seed), seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn montecarlo_batched_matches_scalar(n in 1usize..16, seed in 0u64..1_000_000) {
        check_montecarlo(&corpus::uniform_disks(n, seed ^ 0xD15C, 0.3, 2.5), seed);
    }

    #[test]
    fn disk_nonzero_batched_matches_scalar(n in 1usize..24, seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let disks: Vec<Disk> = (0..n)
            .map(|_| {
                Disk::new(
                    Point::new(rng.random_range(-15.0..15.0), rng.random_range(-15.0..15.0)),
                    rng.random_range(0.1..4.0),
                )
            })
            .collect();
        let index = DiskNonzeroIndex::new(&disks);
        let (mut out, mut out_scalar) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            let q = Point::new(rng.random_range(-18.0..18.0), rng.random_range(-18.0..18.0));
            index.query_into(q, &mut out);
            index.query_into_scalar(q, &mut out_scalar);
            prop_assert_eq!(&out, &out_scalar, "NN≠0 set diverged at {:?}", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Churned-dynamic corpora: batched kernels over point sets that survived
// an arbitrary insert/remove interleaving (the layouts a static build
// never produces: tombstone-shaped id gaps, re-inserted duplicates).
// ---------------------------------------------------------------------------

fn churn_config() -> DynamicPnnConfig {
    DynamicPnnConfig {
        base: PnnConfig {
            epsilon: 0.05,
            delta: 0.01,
            ..PnnConfig::default()
        },
        mc_rounds: 96,
        ..DynamicPnnConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn churned_corpus_batched_matches_scalar(
        initial in 3usize..10,
        ops in proptest::collection::vec((proptest::bool::ANY, 0u64..1_000_000), 4..24),
        seed in 0u64..10_000,
    ) {
        let survivors = churn::survivors(initial, &ops, seed, churn_config());
        if survivors.is_empty() {
            return Ok(());
        }
        // Spatial kernels over the survivors' support-box centers…
        let centers: Vec<Point> = survivors.iter().map(|u| u.support_bbox().center()).collect();
        check_corpus(&centers, seed ^ 0xC0);
        // …and the full quantify pipeline over the survivors themselves.
        check_montecarlo(&survivors, seed ^ 0xC1);
    }
}

// ---------------------------------------------------------------------------
// Adversarial geometry
// ---------------------------------------------------------------------------

/// Probe points for an adversarial corpus: both ends of the corpus, the
/// origin, a denormal point, a generic point, and one near overflow.
fn adversarial_queries(pts: &[Point]) -> Vec<Point> {
    vec![
        pts[0],
        pts[pts.len() - 1],
        Point::new(0.0, 0.0),
        Point::new(1e-308, -5e-324),
        Point::new(7.25, -7.25),
        Point::new(1e308, 1e307),
    ]
}

#[test]
fn adversarial_geometry_batched_matches_scalar() {
    for (name, pts) in corpus::adversarial() {
        // Zero offsets everywhere: exact ties in every adjusted kernel,
        // including the prune_with_cap tie-at-the-minimum contract case
        // on the coincident corpus.
        let zeros = vec![0.0; pts.len()];
        let boxes = corpus::support_boxes(&pts, &zeros);
        let queries = adversarial_queries(&pts);
        for cfg in configs() {
            let tree = KdTree::with_aux_bounds_config(&pts, &zeros, &zeros, cfg);
            assert_eq!(
                kd_signature(&tree, &pts, &zeros, &boxes, &queries, false),
                kd_signature(&tree, &pts, &zeros, &boxes, &queries, true),
                "batched/scalar divergence on adversarial corpus `{name}` under {cfg:?}"
            );
        }
        check_forest(&pts, 0xAD);
    }
}

#[test]
fn weighted_adversarial_geometry_batched_matches_scalar() {
    // Nontrivial asymmetric offsets under every layout config.
    for (name, pts) in corpus::adversarial() {
        let (lo, hi) = corpus::aux_offsets(pts.len(), 0x5A5A);
        let boxes = corpus::support_boxes(&pts, &lo);
        let queries = adversarial_queries(&pts);
        for cfg in configs() {
            let tree = KdTree::with_aux_bounds_config(&pts, &lo, &hi, cfg);
            assert_eq!(
                kd_signature(&tree, &pts, &lo, &boxes, &queries, false),
                kd_signature(&tree, &pts, &lo, &boxes, &queries, true),
                "batched/scalar divergence on weighted adversarial corpus `{name}` under {cfg:?}"
            );
        }
    }
}

#[test]
fn mid_batch_tightened_threshold_gates_identically() {
    // Points in strictly descending distance from `q`, all in one flat
    // leaf, so every point tightens the nearest incumbent *within a single
    // fill chunk*, not at a node boundary.
    let q = Point::new(0.25, -0.5);
    let pts: Vec<Point> = (0..11)
        .map(|k| {
            let r = 40.0 * 0.5f64.powf(0.5 * k as f64);
            let a = 0.7 * k as f64;
            Point::new(q.x + r * a.cos(), q.y + r * a.sin())
        })
        .collect();
    assert!(pts.windows(2).all(|w| w[0].dist(q) > w[1].dist(q)));
    let one_leaf = KdConfig {
        leaf_size: 1024,
        brute_force_below: 1024,
    };
    let zeros = vec![0.0; pts.len()];
    let boxes = corpus::support_boxes(&pts, &zeros);
    let tree = KdTree::with_aux_bounds_config(&pts, &zeros, &zeros, one_leaf);
    assert_eq!(
        kd_signature(&tree, &pts, &zeros, &boxes, &[q], false),
        kd_signature(&tree, &pts, &zeros, &boxes, &[q], true),
        "batched/scalar divergence under mid-chunk threshold tightening"
    );
    let n = tree
        .nearest_within(q, f64::INFINITY)
        .unwrap_or_else(|| panic!("corpus is nonempty"));
    assert_eq!(n.id, pts.len() - 1, "the last tightener must win");
}

// ---------------------------------------------------------------------------
// Thread determinism: the kernels hold no mutable state, so concurrent
// readers at any parallelism must reproduce the single-thread signature
// bit-for-bit, batched and scalar alike.
// ---------------------------------------------------------------------------

fn check_threads(name: &str, pts: &[Point]) {
    let (lo, hi) = corpus::aux_offsets(pts.len(), 0xBEEF);
    let boxes = corpus::support_boxes(pts, &lo);
    let queries = corpus::queries_for(6, pts, 0xBEEF);
    let tree = KdTree::with_aux_bounds_config(pts, &lo, &hi, KdConfig::scan_heavy());
    let reference = kd_signature(&tree, pts, &lo, &boxes, &queries, false);
    let reference_scalar = kd_signature(&tree, pts, &lo, &boxes, &queries, true);
    assert_eq!(
        reference, reference_scalar,
        "batched/scalar divergence on `{name}`"
    );
    for threads in [1usize, 2, 8] {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        (
                            kd_signature(&tree, pts, &lo, &boxes, &queries, false),
                            kd_signature(&tree, pts, &lo, &boxes, &queries, true),
                        )
                    })
                })
                .collect();
            for h in handles {
                let (batched, scalar) = h.join().expect("query thread panicked");
                assert_eq!(
                    batched, reference,
                    "batched signature diverged across threads on `{name}`"
                );
                assert_eq!(
                    scalar, reference,
                    "scalar signature diverged across threads on `{name}`"
                );
            }
        });
    }
}

#[test]
fn concurrent_queries_are_bit_identical() {
    check_threads("random", &corpus::points(300, 0xBEEF));
}

#[test]
fn adversarial_queries_are_bit_identical_across_threads() {
    for (name, pts) in corpus::adversarial() {
        check_threads(name, &pts);
    }
}
