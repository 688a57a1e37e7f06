//! Seeded corpus generators: every integration suite draws its point sets,
//! uncertain distributions, offsets, and thresholds from here, so a corpus
//! hardened for one suite immediately reaches the others.
//!
//! All generators are pure functions of their explicit arguments — the
//! same `(n, seed)` always yields the same corpus, byte for byte.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::DiscreteDistribution;
use unn_distr::Uncertain;
use unn_geom::{Aabb, AabbSoA, Point};

/// Duplicate-heavy random point cloud in `[-50, 50]²`: one in four points
/// copies an earlier one, because ties in distance and id order are where
/// a pruned walk and a flat scan would diverge.
pub fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        if !pts.is_empty() && rng.random_range(0u32..4) == 0 {
            let j = rng.random_range(0u64..pts.len() as u64) as usize;
            pts.push(pts[j]);
        } else {
            pts.push(Point::new(
                rng.random_range(-50.0..50.0),
                rng.random_range(-50.0..50.0),
            ));
        }
    }
    pts
}

/// `m` random queries in `[-60, 60]²` plus one query *at* a stored point:
/// exact-zero distances and closed-ball boundary hits.
pub fn queries_for(m: usize, pts: &[Point], seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let mut qs: Vec<Point> = (0..m)
        .map(|_| Point::new(rng.random_range(-60.0..60.0), rng.random_range(-60.0..60.0)))
        .collect();
    qs.push(pts[pts.len() / 2]);
    qs
}

/// `m` uniform random queries in `[-half, half]²` (the free-standing query
/// stream of the oracle suites — no corpus anchor point).
pub fn query_points(m: usize, seed: u64, half: f64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..m)
        .map(|_| Point::new(rng.random_range(-half..half), rng.random_range(-half..half)))
        .collect()
}

/// Non-negative per-point offsets: `lo` feeds the min-side aux bounds
/// (weighted kernels, prune folds), `hi >= lo` the max side
/// (`report_ball_below` trees).
pub fn aux_offsets(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA07);
    let lo: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..3.0)).collect();
    let hi: Vec<f64> = lo.iter().map(|&l| l + rng.random_range(0.0..3.0)).collect();
    (lo, hi)
}

/// Per-point support boxes for the batched δ/Δ box kernel: the point
/// inflated by its `lo` offset (any finite non-negative halfwidth works;
/// tying it to `lo` keeps the corpus deterministic).
pub fn support_boxes(pts: &[Point], lo: &[f64]) -> AabbSoA {
    let boxes: Vec<Aabb> = pts
        .iter()
        .zip(lo)
        .map(|(p, &w)| Aabb::new(Point::new(p.x - w, p.y - w), Point::new(p.x + w, p.y + w)))
        .collect();
    AabbSoA::from_boxes(&boxes)
}

/// Ball radii / report thresholds spanning the interesting regimes:
/// empty-or-boundary (0), half the corpus (median distance), everything
/// (max distance — a closed-ball boundary hit by construction).
pub fn radii(pts: &[Point], q: Point) -> [f64; 3] {
    let mut ds: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
    ds.sort_by(f64::total_cmp);
    [0.0, ds[ds.len() / 2], ds[ds.len() - 1]]
}

/// The named adversarial point corpora: exact coincidence (ties
/// everywhere), large-offset collinear points (catastrophic cancellation),
/// denormal coordinates (gradual underflow), and near-`f64::MAX`
/// magnitudes (squared-distance overflow).
pub fn adversarial() -> Vec<(&'static str, Vec<Point>)> {
    let p = Point::new;
    let mut coincident = vec![p(1.5, -2.5); 19];
    coincident.extend([p(1.5, -2.5000001), p(-4.0, 8.0), p(0.0, 0.0)]);
    let collinear: Vec<Point> = (0..40).map(|i| p(-1e6 + i as f64 * 3.7e4, 5.0)).collect();
    let tiny = [0.0, 5e-324, -5e-324, 1e-308, -1e-308, 2.5e-308, 4.9e-300];
    let mut denormal = Vec::new();
    for &x in &tiny {
        for &y in &tiny {
            denormal.push(p(x, y));
        }
    }
    let huge = vec![
        p(1e308, 1e308),
        p(-1e308, 1e308),
        p(1e308, -1e308),
        p(-1e308, -1e308),
        p(1e308, 0.0),
        p(0.0, -1e308),
        p(0.0, 0.0),
        p(1.0, 1.0),
        p(1e154, -1e154),
    ];
    vec![
        ("coincident", coincident),
        ("collinear", collinear),
        ("denormal", denormal),
        ("huge", huge),
    ]
}

/// Random uniform-disk uncertain points: centers in `[-20, 20]²`, radii in
/// `[r_lo, r_hi)`. The `(0.3, 2.5)` range is the kernel-equivalence /
/// churn corpus; fault injection uses `(0.5, 2.0)`.
pub fn uniform_disks(n: usize, seed: u64, r_lo: f64, r_hi: f64) -> Vec<Uncertain> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Uncertain::uniform_disk(
                Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)),
                rng.random_range(r_lo..r_hi),
            )
        })
        .collect()
}

/// `n` weighted discrete distributions of `k` support points each,
/// clustered around random centers in `[-25, 25]²` — the shared oracle
/// corpus every quantification path is judged on.
pub fn weighted_discrete(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
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
            Uncertain::Discrete(
                DiscreteDistribution::new(pts, ws).unwrap_or_else(|e| panic!("corpus: {e}")),
            )
        })
        .collect()
}

/// `n` uniform discrete distributions of `k` support points each,
/// clustered tighter (`±2`) around centers in `[-20, 20]²` — the clean
/// half of the fault-injection corpus.
pub fn uniform_discrete(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0));
            DiscreteDistribution::uniform(
                (0..k)
                    .map(|_| {
                        Point::new(
                            c.x + rng.random_range(-2.0..2.0),
                            c.y + rng.random_range(-2.0..2.0),
                        )
                    })
                    .collect(),
            )
            .map(Uncertain::Discrete)
            .unwrap_or_else(|e| panic!("corpus: {e}"))
        })
        .collect()
}
