//! Differential guard for the kd-tree, forest and Monte-Carlo read paths:
//! every answer must equal its flat-scan reference in `unn_testkit::brute`
//! across random corpora, adversarial geometry (coincident, collinear,
//! denormal, near-overflow coordinates), corpora surviving dynamic churn,
//! and concurrent query threads.
//!
//! Answers are compared as the method's contract allows: `f64` values bit
//! for bit; ids exactly when the reference answer is unique and by
//! membership in its tie set otherwise; visit reports as id-sorted
//! `(id, bits)` sets; capped reports by their budget contract (complete
//! exactly when the ball fits the cap, otherwise exactly `cap` visits, all
//! inside the ball). The references share no traversal with the kernels, so
//! a pruning bug that skips a point fails here.
//!
//! [`KdTree::prune_with_cap`] may skip contract-dead points, so it is
//! checked by its fold outputs (`delta_min`, `prune_bound`, `cap_for`),
//! which must equal a fold over every point.
//!
//! The adaptive Monte-Carlo stopping rule scans only the slots that have
//! won a round; [`brute::adaptive_fold`] scans every dense count, and the
//! two must agree bit for bit.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::dynamic::DynamicPnnConfig;
use unn::AdaptiveQuantify;
use unn::PnnConfig;
use unn_distr::{Uncertain, UncertainPoint};
use unn_geom::{Aabb, AabbSoA, Disk, Point};
use unn_nonzero::DiskNonzeroIndex;
use unn_quantify::{adaptive_over_winners, McBackend, MonteCarloIndex};
use unn_spatial::{KdConfig, KdForest, KdTree, Neighbor};
use unn_testkit::brute::{self, Argmin};
use unn_testkit::sig::{configs, kd_signature, prune_fold_start};
use unn_testkit::{churn, corpus};

fn assert_admitted(got: Option<(usize, f64)>, want: Option<Argmin>, what: &str) {
    match (got, &want) {
        (None, None) => {}
        (Some((id, v)), Some(w)) if w.admits(id, v) => {}
        _ => panic!("{what}: got {got:?}, reference {want:?}"),
    }
}

fn assert_nearest(got: Option<Neighbor>, want: Option<Argmin>, what: &str) {
    assert_admitted(got.map(|n| (n.id, n.dist)), want, what);
}

/// Distances bit for bit; ids exactly below the last distance and inside
/// its tie set at it (which tied points fill the last slots is free).
fn assert_m_nearest(got: &[Neighbor], pts: &[Point], q: Point, m: usize, what: &str) {
    let want = brute::m_nearest(pts, q, m);
    let bits = |v: &[Neighbor]| v.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(&want), "{what}: m={m} distances");
    let Some(last) = want.last() else {
        return;
    };
    let tied = brute::ties_at(pts, q, last.dist);
    for (g, w) in got.iter().zip(&want) {
        if g.dist.to_bits() == last.dist.to_bits() {
            assert!(tied.contains(&g.id), "{what}: m={m} id {} not tied", g.id);
        } else {
            assert_eq!(g.id, w.id, "{what}: m={m} ids");
        }
    }
    let mut ids: Vec<usize> = got.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), got.len(), "{what}: m={m} repeated ids");
}

fn bit_set(v: Vec<(usize, f64)>) -> Vec<(usize, u64)> {
    let mut v: Vec<(usize, u64)> = v.into_iter().map(|(i, d)| (i, d.to_bits())).collect();
    v.sort_unstable();
    v
}

/// The budget contract: the call completes exactly when the ball fits in
/// `cap`; otherwise it makes exactly `cap` distinct visits, all in the ball.
fn assert_capped(tree: &KdTree, pts: &[Point], q: Point, r: f64, cap: usize, what: &str) {
    let ball = bit_set(brute::closed_ball(pts, q, r));
    let mut seen = Vec::new();
    let complete = tree.in_disk_capped(q, r, cap, &mut |i, d| seen.push((i, d)));
    let seen = bit_set(seen);
    if ball.len() <= cap {
        assert!(complete, "{what}: r={r} cap={cap} aborted a fitting ball");
        assert_eq!(seen, ball, "{what}: r={r} cap={cap} ball");
    } else {
        assert!(!complete, "{what}: r={r} cap={cap} overran the budget");
        assert_eq!(seen.len(), cap, "{what}: r={r} cap={cap} visit count");
        assert!(seen.windows(2).all(|w| w[0] != w[1]), "{what}: repeats");
        for v in &seen {
            assert!(ball.binary_search(v).is_ok(), "{what}: {v:?} outside ball");
        }
    }
}

/// Every query family of one tree against the flat-scan references.
fn check_kd(
    tree: &KdTree,
    pts: &[Point],
    (lo, hi): (&[f64], &[f64]),
    boxes: &AabbSoA,
    queries: &[Point],
    what: &str,
) {
    for &q in queries {
        let what = format!("{what} at {q:?}");
        for init in [f64::INFINITY, 1.5] {
            assert_nearest(
                tree.nearest_within(q, init),
                brute::nearest_within(pts, q, init),
                &format!("{what}: nearest_within({init})"),
            );
        }
        let mut out = Vec::new();
        for m in [1usize, 4, 33] {
            tree.m_nearest_into(q, m, &mut out);
            assert_m_nearest(&out, pts, q, m, &what);
        }
        for r in corpus::radii(pts, q) {
            for cap in [0usize, 1, 5, usize::MAX] {
                assert_capped(tree, pts, q, r, cap, &what);
            }
            let mut ball = Vec::new();
            tree.report_ball_below(q, r, &mut |i, v| ball.push((i, v)));
            assert_eq!(
                bit_set(ball),
                bit_set(brute::report_ball_below(pts, hi, q, r)),
                "{what}: report_ball_below({r})"
            );
        }
        assert_admitted(
            tree.min_adjusted_weighted(q),
            brute::min_adjusted_weighted(pts, lo, q),
            &format!("{what}: min_adjusted_weighted"),
        );
        match (
            tree.min_two_adjusted_weighted(q),
            brute::min_two_adjusted_weighted(pts, lo, q),
        ) {
            (None, None) => {}
            (Some((i, a, b)), Some((w, second)))
                if w.admits(i, a) && b.to_bits() == second.to_bits() => {}
            (got, want) => panic!("{what}: min_two got {got:?}, reference {want:?}"),
        }
        assert_admitted(
            tree.min_adjusted_boxes(q, boxes),
            brute::min_adjusted_boxes(boxes, q),
            &format!("{what}: min_adjusted_boxes"),
        );
        for preseed in [false, true] {
            let mut fold = prune_fold_start(pts, q, preseed);
            let want = brute::delta_fold(pts, lo, q, fold);
            let cap0 = fold.prune_bound();
            let fin = tree.prune_with_cap(q, cap0, &mut |i: usize| {
                fold.observe(pts[i].dist(q) + lo[i], i as u64);
                fold.prune_bound()
            });
            let outputs = |f: &unn_nonzero::DeltaCompose| {
                let mut v = vec![f.delta_min().to_bits(), f.prune_bound().to_bits()];
                v.extend((0..pts.len() as u64).map(|id| f.cap_for(id).to_bits()));
                v
            };
            assert_eq!(
                outputs(&fold),
                outputs(&want),
                "{what}: prune fold {preseed}"
            );
            assert_eq!(
                fin.to_bits(),
                want.prune_bound().to_bits(),
                "{what}: prune cap {preseed}"
            );
        }
    }
}

/// Every layout config over one corpus, against the references.
fn check_corpus(pts: &[Point], seed: u64) {
    let (lo, hi) = corpus::aux_offsets(pts.len(), seed);
    let boxes = corpus::support_boxes(pts, &lo);
    let queries = corpus::queries_for(5, pts, seed);
    for cfg in configs() {
        let tree = KdTree::with_aux_bounds_config(pts, &lo, &hi, cfg);
        let what = format!("{} points under {cfg:?}", pts.len());
        check_kd(&tree, pts, (&lo, &hi), &boxes, &queries, &what);
    }
}

fn check_forest(pts: &[Point], seed: u64) {
    // Uneven rounds, including an empty one: partial lane batches at
    // every round boundary.
    let third = pts.len() / 3;
    let rounds: [&[Point]; 4] = [&pts[..third], &[], &pts[third..], pts];
    let mut forest = KdForest::new();
    for r in rounds {
        forest.push_round(r);
    }
    let queries = corpus::queries_for(4, pts, seed ^ 0xF0);
    let mut out = Vec::new();
    for (round, rpts) in rounds.iter().enumerate() {
        for &q in &queries {
            let what = format!("forest round {round} of {} points at {q:?}", pts.len());
            for init in [f64::INFINITY, 2.0] {
                assert_nearest(
                    forest.nearest_within(round, q, init),
                    brute::nearest_within(rpts, q, init),
                    &format!("{what}: nearest_within({init})"),
                );
            }
            for m in [1usize, 3] {
                forest.m_nearest_into(round, q, m, &mut out);
                assert_m_nearest(&out, rpts, q, m, &what);
            }
        }
    }
}

/// Full quantify fast path (`prune_radius` + seeded arena fold + winners
/// decode) against a replay of the build's draws: `prune_radius` bit-equal
/// to the flat box minimum, and `π̂` bit-equal to the per-round flat
/// argmin counts (a round tied between objects may go to any of them).
fn check_montecarlo(points: &[Uncertain], seed: u64) {
    let s = 64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4D43);
    let index = MonteCarloIndex::build(points, s, McBackend::KdTree, &mut rng);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4D43);
    let rounds = brute::mc_rounds(points, s, &mut rng);
    let support: Vec<Aabb> = points.iter().map(|p| p.support_bbox()).collect();
    let support = AabbSoA::from_boxes(&support);
    let queries = corpus::query_points(6, seed ^ 0x9, 25.0);
    let mut pi = Vec::new();
    for &q in &queries {
        let radius = brute::min_adjusted_boxes(&support, q).map_or(f64::INFINITY, |a| a.value);
        assert_eq!(
            index.prune_radius(q).to_bits(),
            radius.to_bits(),
            "prune_radius diverged at {q:?}"
        );
        index.query_into(q, &mut pi);
        let winners = brute::mc_winners(&rounds, q);
        if winners.iter().flatten().all(|w| w.ties.len() == 1) {
            let want = brute::mc_pi(&winners, points.len());
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pi), bits(&want), "query_into diverged at {q:?}");
        } else {
            for (i, &p) in pi.iter().enumerate() {
                let sure = winners.iter().flatten().filter(|w| w.ties == [i]).count();
                let tied = winners
                    .iter()
                    .flatten()
                    .filter(|w| w.ties.contains(&i))
                    .count();
                let c = (p * s as f64).round() as usize;
                assert!(sure <= c && c <= tied, "object {i} won {c} rounds at {q:?}");
            }
        }
    }
}

/// `π̂` bits, rounds used and half-width bits of an adaptive fold.
fn fold_bits(a: &AdaptiveQuantify) -> (Vec<u64>, usize, u64) {
    let pi = a.pi.iter().map(|p| p.to_bits()).collect();
    (pi, a.rounds_used, a.half_width.to_bits())
}

/// Winner sequences of `s` rounds over `n` slots: one slot every round,
/// round-robin (tied counts), a two-way even split (tied, and the largest
/// variance), one slot with rare others, and uniform random.
fn winner_kinds(n: usize, s: usize, seed: u64) -> Vec<Vec<u32>> {
    let n32 = n as u32;
    let mut rng = SmallRng::seed_from_u64(seed);
    let one = (seed % n as u64) as u32;
    vec![
        vec![one; s],
        (0..s).map(|r| (r % n) as u32).collect(),
        (0..s).map(|r| ((r % 2) as u32 + one) % n32).collect(),
        (0..s)
            .map(|_| {
                if rng.random_range(0..16u32) == 0 {
                    rng.random_range(0..n32)
                } else {
                    one
                }
            })
            .collect(),
        (0..s).map(|_| rng.random_range(0..n32)).collect(),
    ]
}

/// `adaptive_over_winners` against the dense reference at `eps` and at
/// an `eps` below every checkpoint's half-width, for `n` slots.
fn check_adaptive_fold(
    winners: &[u32],
    n: usize,
    eps: f64,
    delta: f64,
    min_rounds: usize,
    cap: usize,
) -> Result<(), TestCaseError> {
    for eps in [eps, f64::MIN_POSITIVE] {
        let got = adaptive_over_winners(winners, n, eps, delta, min_rounds, cap);
        let want = brute::adaptive_fold(winners, n, eps, delta, min_rounds, cap);
        prop_assert_eq!(
            fold_bits(&got),
            fold_bits(&want),
            "n={} s={} eps={} cap={}",
            n,
            winners.len(),
            eps,
            cap
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Random corpora (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The winner-only stopping scan equals the dense one over every
    /// winner kind, plus the edge shapes n = 1 and s = 1.
    #[test]
    fn adaptive_fold_matches_dense_reference(
        n in 1usize..300,
        s in 1usize..700,
        min_rounds in 1usize..80,
        cap_extra in 0usize..40,
        eps in 0.001f64..0.5,
        delta in 0.001f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        // A cap above `s` clamps to the rounds available.
        let cap = (seed as usize % s + 1) + cap_extra;
        for winners in winner_kinds(n, s, seed) {
            check_adaptive_fold(&winners, n, eps, delta, min_rounds, cap)?;
        }
        for winners in winner_kinds(1, s, seed) {
            check_adaptive_fold(&winners, 1, eps, delta, min_rounds, cap)?;
        }
        for winners in winner_kinds(n, 1, seed) {
            check_adaptive_fold(&winners, n, eps, delta, min_rounds, cap)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `quantify_adaptive_capped` equals the dense reference fed the
    /// winners of a replay of the build's draws, on the prefetched
    /// (`cap = s`) and the incremental (`cap < s`) path.
    #[test]
    fn indexed_adaptive_fold_matches_dense_reference(
        n in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        let points = corpus::uniform_disks(n, seed ^ 0xD15C, 0.3, 2.5);
        let s = 96;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xADA9);
        let index = MonteCarloIndex::build(&points, s, McBackend::KdTree, &mut rng);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xADA9);
        let rounds = brute::mc_rounds(&points, s, &mut rng);
        let mut prng = SmallRng::seed_from_u64(seed);
        for q in corpus::query_points(6, seed ^ 0x7, 25.0) {
            let argmins = brute::mc_winners(&rounds, q);
            // A tied round may go to any tied object; compare untied ones.
            let winners: Option<Vec<u32>> = argmins
                .iter()
                .map(|w| w.as_ref().filter(|w| w.ties.len() == 1).map(|w| w.ties[0] as u32))
                .collect();
            let Some(winners) = winners else { continue };
            let min_rounds = prng.random_range(1..48usize);
            let delta = prng.random_range(0.001..0.5);
            for cap in [s, prng.random_range(1..s)] {
                for eps in [prng.random_range(0.01..0.5), f64::MIN_POSITIVE] {
                    let got = index.quantify_adaptive_capped(q, eps, delta, min_rounds, cap);
                    let want = brute::adaptive_fold(&winners, n, eps, delta, min_rounds, cap);
                    prop_assert_eq!(
                        fold_bits(&got),
                        fold_bits(&want),
                        "q={:?} cap={} eps={}",
                        q,
                        cap,
                        eps
                    );
                }
            }
        }
    }
}

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
        for _ in 0..8 {
            let q = Point::new(rng.random_range(-18.0..18.0), rng.random_range(-18.0..18.0));
            let out = index.query(q);
            prop_assert_eq!(&out, &index.query_naive(q), "NN≠0 set diverged at {:?}", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Churned-dynamic corpora: kernels over point sets that survived an
// arbitrary insert/remove interleaving (the layouts a static build never
// produces: tombstone-shaped id gaps, re-inserted duplicates).
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
            let what = format!("adversarial corpus `{name}` under {cfg:?}");
            check_kd(&tree, &pts, (&zeros, &zeros), &boxes, &queries, &what);
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
            let what = format!("weighted adversarial corpus `{name}` under {cfg:?}");
            check_kd(&tree, &pts, (&lo, &hi), &boxes, &queries, &what);
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
    check_kd(
        &tree,
        &pts,
        (&zeros, &zeros),
        &boxes,
        &[q],
        "mid-chunk threshold tightening",
    );
    let n = tree
        .nearest_within(q, f64::INFINITY)
        .unwrap_or_else(|| panic!("corpus is nonempty"));
    assert_eq!(n.id, pts.len() - 1, "the last tightener must win");
}

// ---------------------------------------------------------------------------
// Thread determinism: the kernels hold no mutable state, so concurrent
// readers at any parallelism must reproduce the single-thread signature
// bit-for-bit, and that signature's answers must match the references.
// ---------------------------------------------------------------------------

fn check_threads(name: &str, pts: &[Point]) {
    let (lo, hi) = corpus::aux_offsets(pts.len(), 0xBEEF);
    let boxes = corpus::support_boxes(pts, &lo);
    let queries = corpus::queries_for(6, pts, 0xBEEF);
    let tree = KdTree::with_aux_bounds_config(pts, &lo, &hi, KdConfig::scan_heavy());
    check_kd(&tree, pts, (&lo, &hi), &boxes, &queries, name);
    let reference = kd_signature(&tree, pts, &lo, &boxes, &queries);
    for threads in [1usize, 2, 8] {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| kd_signature(&tree, pts, &lo, &boxes, &queries)))
                .collect();
            for h in handles {
                let sig = h.join().expect("query thread panicked");
                assert_eq!(
                    sig, reference,
                    "signature diverged across threads on `{name}`"
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
