//! Near-linear-size two-stage structures for `NN≠0` queries (paper §3).
//!
//! Both structures answer a query in two stages, exactly as the paper
//! prescribes:
//!
//! 1. compute `Δ(q) = min_i Δ_i(q)` (the smallest guaranteed distance — the
//!    additively weighted Voronoi value for disks, the min-max distance for
//!    discrete points);
//! 2. report every `i` with `δ_i(q) < Δ(q)`.
//!
//! The paper realizes the stages with an AW-Voronoi point-location structure
//! plus the reporting structure of `[KMR⁺16]` (disks), and with 3-level
//! partition trees plus `[AC09]` halfspace reporting (discrete). Both are
//! replaced here by pruned kd-tree searches with identical outputs and
//! `O(log n + t)`-shaped observed query times (DESIGN.md §4); experiment E7
//! benchmarks the shape against the naive linear scan.

use unn_distr::DiscreteDistribution;
use unn_geom::hull::{convex_hull, farthest_on_hull, nearest_dist};
use unn_geom::{Disk, Point};
use unn_spatial::KdTree;

use crate::error::NonzeroError;

/// `NN≠0` index for uncertain points with disk supports (Theorem 3.1).
///
/// ```
/// use unn_geom::{Disk, Point};
/// use unn_nonzero::DiskNonzeroIndex;
///
/// let disks = vec![
///     Disk::new(Point::new(0.0, 0.0), 1.0),
///     Disk::new(Point::new(4.0, 0.0), 1.0),
///     Disk::new(Point::new(40.0, 0.0), 1.0), // far away: never the NN here
/// ];
/// let idx = DiskNonzeroIndex::new(&disks);
/// assert_eq!(idx.query(Point::new(2.0, 0.0)), vec![0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct DiskNonzeroIndex {
    disks: Vec<Disk>,
    tree: KdTree,
}

impl DiskNonzeroIndex {
    /// Fallible [`DiskNonzeroIndex::new`]: rejects non-finite centers or
    /// radii and negative radii with a typed error. Zero radii are valid —
    /// they model zero-extent (certain) supports.
    pub fn try_new(disks: &[Disk]) -> Result<Self, NonzeroError> {
        for (index, d) in disks.iter().enumerate() {
            if !(d.center.is_finite() && d.radius.is_finite()) {
                return Err(NonzeroError::NonFiniteDisk { index });
            }
            if d.radius < 0.0 {
                return Err(NonzeroError::NegativeRadius {
                    index,
                    radius: d.radius,
                });
            }
        }
        Ok(Self::new(disks))
    }

    /// Builds the index from the support disks.
    pub fn new(disks: &[Disk]) -> Self {
        let centers: Vec<Point> = disks.iter().map(|d| d.center).collect();
        let radii: Vec<f64> = disks.iter().map(|d| d.radius).collect();
        DiskNonzeroIndex {
            disks: disks.to_vec(),
            tree: KdTree::with_aux(&centers, &radii),
        }
    }

    /// Number of uncertain points.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Stage 1: `Δ(q) = min_i (d(q, c_i) + r_i)`.
    ///
    /// Runs on the batched weighted kernel over the tree's stored radii —
    /// bit-identical to the closure form `min_adjusted(q, &|i|
    /// disks[i].max_dist(q))` because `Disk::max_dist` *is* `d(q, c_i) +
    /// r_i` in the same operation order.
    pub fn min_max_dist(&self, q: Point) -> Option<f64> {
        self.tree.min_adjusted_weighted(q).map(|(_, v)| v)
    }

    /// Stage 1 with the runner-up: `(argmin, Δ, second-smallest Δ_j)`.
    ///
    /// Lemma 2.1 compares `δ_i` against `Δ_j` over `j ≠ i`, so the disk
    /// realizing `Δ(q)` itself must be tested against the *second* minimum
    /// (this only matters for zero-extent supports, where `δ_i = Δ_i`).
    /// One batched single-pass walk replaces the former two `min_adjusted`
    /// descents with identical results.
    fn min_two_max_dist(&self, q: Point) -> Option<(usize, f64, f64)> {
        self.tree.min_two_adjusted_weighted(q)
    }

    /// `NN≠0(q)`: indices of all uncertain points with nonzero probability
    /// of being the nearest neighbor of `q` (Lemma 2.1), in index order.
    pub fn query(&self, q: Point) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_into(q, &mut out);
        out
    }

    /// [`DiskNonzeroIndex::query`] into a caller-provided buffer (cleared
    /// first), for a loop that reuses one buffer across queries.
    pub fn query_into(&self, q: Point, out: &mut Vec<usize>) {
        out.clear();
        let Some((best, d1, d2)) = self.min_two_max_dist(q) else {
            return;
        };
        // Everyone except `best` is tested against d1; `best` against d2.
        // `report_ball_below` evaluates `(d(q, c_i) - r_i).max(0.0)` on the
        // batched kernel — exactly `Disk::min_dist`, bit for bit.
        self.tree.report_ball_below(q, d1.max(d2), &mut |i, v| {
            unn_observe::nonzero_candidate();
            let threshold = if i == best { d2 } else { d1 };
            if v < threshold {
                out.push(i);
            }
        });
        out.sort_unstable();
    }

    /// Reference implementation: linear scan (the baseline of experiment E7).
    pub fn query_naive(&self, q: Point) -> Vec<usize> {
        let caps: Vec<f64> = self.disks.iter().map(|d| d.max_dist(q)).collect();
        (0..self.disks.len())
            .filter(|&i| {
                let delta_i = self.disks[i].min_dist(q);
                caps.iter()
                    .enumerate()
                    .all(|(j, &cap)| j == i || delta_i < cap)
            })
            .collect()
    }
}

/// `NN≠0` index for uncertain points with discrete distributions
/// (Theorem 3.2). Only the supports (location sets) matter.
#[derive(Clone, Debug)]
pub struct DiscreteNonzeroIndex {
    /// Location sets.
    objects: Vec<Vec<Point>>,
    /// Convex hulls (farthest-distance queries touch only hull vertices).
    hulls: Vec<Vec<Point>>,
    /// Stage-1 tree over centroids (aux 0: prune by `d(q, c_i) <= Δ_i`).
    tree_min: KdTree,
    /// Stage-2 tree over centroids (aux = extent: prune by
    /// `δ_i >= d(q, c_i) - extent_i`).
    tree_report: KdTree,
}

impl DiscreteNonzeroIndex {
    /// Fallible [`DiscreteNonzeroIndex::new`]: rejects empty supports and
    /// non-finite locations with a typed error instead of asserting.
    pub fn try_new(objects: &[Vec<Point>]) -> Result<Self, NonzeroError> {
        for (index, o) in objects.iter().enumerate() {
            if o.is_empty() {
                return Err(NonzeroError::EmptySupport { index });
            }
            if let Some(&point) = o.iter().find(|p| !p.is_finite()) {
                return Err(NonzeroError::NonFiniteLocation { index, point });
            }
        }
        Ok(Self::new(objects))
    }

    /// Builds from explicit location sets (weights are irrelevant to
    /// `NN≠0`, which depends only on supports).
    pub fn new(objects: &[Vec<Point>]) -> Self {
        assert!(objects.iter().all(|o| !o.is_empty()), "empty support");
        let hulls: Vec<Vec<Point>> = objects.iter().map(|o| convex_hull(o)).collect();
        let centroids: Vec<Point> = objects
            .iter()
            .map(|o| {
                let n = o.len() as f64;
                let (sx, sy) = o.iter().fold((0.0, 0.0), |(x, y), p| (x + p.x, y + p.y));
                Point::new(sx / n, sy / n)
            })
            .collect();
        let extents: Vec<f64> = objects
            .iter()
            .zip(&centroids)
            .map(|(o, c)| o.iter().map(|p| p.dist(*c)).fold(0.0, f64::max))
            .collect();
        DiscreteNonzeroIndex {
            objects: objects.to_vec(),
            hulls,
            tree_min: KdTree::new(&centroids),
            tree_report: KdTree::with_aux(&centroids, &extents),
        }
    }

    /// Builds from [`DiscreteDistribution`]s.
    pub fn from_distributions(ds: &[DiscreteDistribution]) -> Self {
        let objects: Vec<Vec<Point>> = ds.iter().map(|d| d.points().to_vec()).collect();
        Self::new(&objects)
    }

    /// Number of uncertain points.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Stage 1: `Δ(q) = min_i max_{p ∈ P_i} d(q, p)`.
    pub fn min_max_dist(&self, q: Point) -> Option<f64> {
        let hulls = &self.hulls;
        self.tree_min
            .min_adjusted(q, &|i| farthest_on_hull(&hulls[i], q))
            .map(|(_, v)| v)
    }

    /// Stage 1 with the runner-up (see [`DiskNonzeroIndex`]: the object
    /// realizing `Δ(q)` is tested against the second minimum, per the
    /// `j ≠ i` quantifier of Lemma 2.1).
    fn min_two_max_dist(&self, q: Point) -> Option<(usize, f64, f64)> {
        // Single-pass (min, second-min) walk: each hull's farthest-point
        // evaluation — the expensive part here — runs at most once, where
        // the former two-descent form could evaluate a hull twice.
        let hulls = &self.hulls;
        self.tree_min
            .min_two_adjusted(q, &|i| farthest_on_hull(&hulls[i], q))
    }

    /// `NN≠0(q)` for discrete supports, in index order.
    pub fn query(&self, q: Point) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_into(q, &mut out);
        out
    }

    /// [`DiscreteNonzeroIndex::query`] into a caller-provided buffer
    /// (cleared first); see [`DiskNonzeroIndex::query_into`].
    pub fn query_into(&self, q: Point, out: &mut Vec<usize>) {
        out.clear();
        let Some((best, d1, d2)) = self.min_two_max_dist(q) else {
            return;
        };
        let objects = &self.objects;
        self.tree_report.report_adjusted_below(
            q,
            d1.max(d2),
            &|i| nearest_dist(&objects[i], q),
            &mut |i, v| {
                unn_observe::nonzero_candidate();
                let threshold = if i == best { d2 } else { d1 };
                if v < threshold {
                    out.push(i);
                }
            },
        );
        out.sort_unstable();
    }

    /// Reference implementation: linear scan.
    pub fn query_naive(&self, q: Point) -> Vec<usize> {
        let caps: Vec<f64> = self.hulls.iter().map(|h| farthest_on_hull(h, q)).collect();
        (0..self.objects.len())
            .filter(|&i| {
                let delta_i = nearest_dist(&self.objects[i], q);
                caps.iter()
                    .enumerate()
                    .all(|(j, &cap)| j == i || delta_i < cap)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn random_disks(n: usize, seed: u64) -> Vec<Disk> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Disk::new(
                    Point::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0)),
                    rng.random_range(0.5..5.0),
                )
            })
            .collect()
    }

    fn random_objects(n: usize, k: usize, seed: u64) -> Vec<Vec<Point>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let cx: f64 = rng.random_range(-50.0..50.0);
                let cy: f64 = rng.random_range(-50.0..50.0);
                (0..k)
                    .map(|_| {
                        Point::new(
                            cx + rng.random_range(-3.0..3.0),
                            cy + rng.random_range(-3.0..3.0),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn disk_query_matches_naive() {
        let disks = random_disks(80, 90);
        let idx = DiskNonzeroIndex::new(&disks);
        let mut rng = SmallRng::seed_from_u64(91);
        for _ in 0..200 {
            let q = Point::new(rng.random_range(-80.0..80.0), rng.random_range(-80.0..80.0));
            assert_eq!(idx.query(q), idx.query_naive(q), "q = {q:?}");
        }
    }

    #[test]
    fn discrete_query_matches_naive() {
        let objects = random_objects(60, 5, 92);
        let idx = DiscreteNonzeroIndex::new(&objects);
        let mut rng = SmallRng::seed_from_u64(93);
        for _ in 0..200 {
            let q = Point::new(rng.random_range(-80.0..80.0), rng.random_range(-80.0..80.0));
            assert_eq!(idx.query(q), idx.query_naive(q), "q = {q:?}");
        }
    }

    #[test]
    fn result_always_nonempty_and_contains_guaranteed_nn() {
        // The disk realizing Delta(q) always belongs to NN!=0(q):
        // delta_i < Delta_i of itself... more precisely delta_i(q) <
        // Delta_j(q) for all j != i when i minimizes Delta.
        let disks = random_disks(40, 94);
        let idx = DiskNonzeroIndex::new(&disks);
        let mut rng = SmallRng::seed_from_u64(95);
        for _ in 0..100 {
            let q = Point::new(rng.random_range(-80.0..80.0), rng.random_range(-80.0..80.0));
            let res = idx.query(q);
            assert!(!res.is_empty());
            let best = (0..disks.len())
                .min_by(|&a, &b| disks[a].max_dist(q).total_cmp(&disks[b].max_dist(q)))
                .unwrap();
            // delta_best <= Delta_best - 2 r_best < Delta_j unless r = 0 or
            // a tie; with positive radii the guaranteed NN is in the set.
            assert!(res.contains(&best), "guaranteed NN missing at {q:?}");
        }
    }

    #[test]
    fn query_inside_support_region() {
        // A query inside a disk: that disk is always a candidate.
        let disks = random_disks(30, 96);
        let idx = DiskNonzeroIndex::new(&disks);
        for (i, d) in disks.iter().enumerate() {
            let res = idx.query(d.center);
            assert!(res.contains(&i), "disk {i} missing at its own center");
        }
    }

    #[test]
    fn empty_and_single() {
        let idx = DiskNonzeroIndex::new(&[]);
        assert!(idx.query(Point::ORIGIN).is_empty());
        let one = DiskNonzeroIndex::new(&[Disk::new(Point::ORIGIN, 1.0)]);
        assert_eq!(one.query(Point::new(100.0, 0.0)), vec![0]);
        let didx = DiscreteNonzeroIndex::new(&[vec![Point::ORIGIN]]);
        assert_eq!(didx.query(Point::new(5.0, 5.0)), vec![0]);
    }

    #[test]
    fn discrete_singletons_reduce_to_certain_nn() {
        // k = 1: NN!=0 is exactly the set of nearest points (ties allowed);
        // away from bisectors it has size 1.
        let mut rng = SmallRng::seed_from_u64(97);
        let pts: Vec<Vec<Point>> = (0..50)
            .map(|_| {
                vec![Point::new(
                    rng.random_range(-50.0..50.0),
                    rng.random_range(-50.0..50.0),
                )]
            })
            .collect();
        let idx = DiscreteNonzeroIndex::new(&pts);
        for _ in 0..100 {
            let q = Point::new(rng.random_range(-60.0..60.0), rng.random_range(-60.0..60.0));
            let res = idx.query(q);
            let dmin = pts
                .iter()
                .map(|p| p[0].dist(q))
                .fold(f64::INFINITY, f64::min);
            // All reported are at distance exactly dmin (δ < Δ = dmin only
            // possible for δ = ... δ_i < dmin is impossible, δ_i <= dmin and
            // strict < Δ means ties are excluded unless Δ realized by
            // another point).
            for &i in &res {
                assert!(pts[i][0].dist(q) <= dmin + 1e-9);
            }
            assert!(
                !res.is_empty() || dmin == 0.0 || pts.len() == 1 || {
                    // all points tie: query exactly on a multi-bisector (rare)
                    true
                }
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_disk_two_stage_equals_naive(
            seed in 0u64..1000, qx in -80.0f64..80.0, qy in -80.0f64..80.0,
        ) {
            let disks = random_disks(25, seed);
            let idx = DiskNonzeroIndex::new(&disks);
            let q = Point::new(qx, qy);
            prop_assert_eq!(idx.query(q), idx.query_naive(q));
        }

        #[test]
        fn prop_discrete_two_stage_equals_naive(
            seed in 0u64..1000, qx in -80.0f64..80.0, qy in -80.0f64..80.0,
        ) {
            let objects = random_objects(20, 4, seed);
            let idx = DiscreteNonzeroIndex::new(&objects);
            let q = Point::new(qx, qy);
            prop_assert_eq!(idx.query(q), idx.query_naive(q));
        }
    }
}
