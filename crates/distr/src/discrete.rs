//! Discrete uncertain points: finitely many locations with probabilities.
//!
//! This is the paper's *discrete distribution of description complexity `k`*:
//! `P = {p_1, ..., p_k}` with location probabilities `w_i` summing to 1.
//! Sampling is provided both by inverse-cdf binary search (the balanced
//! binary tree of `[MR95]` that the paper cites) and by Walker's alias method
//! (`O(1)` per draw after `O(k)` preprocessing) — the Monte-Carlo structure
//! benchmarks both.

use rand::{Rng, RngExt};
use unn_geom::hull::convex_hull;
use unn_geom::{Aabb, Point};

use crate::traits::UncertainPoint;

/// Errors constructing a discrete distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum DiscreteError {
    /// No locations were given.
    Empty,
    /// A weight was zero, negative, or non-finite.
    BadWeight(f64),
    /// A location coordinate was NaN or infinite.
    NonFiniteLocation(Point),
    /// Location and weight slices had different lengths.
    LengthMismatch {
        /// Number of locations supplied.
        points: usize,
        /// Number of weights supplied.
        weights: usize,
    },
}

impl core::fmt::Display for DiscreteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DiscreteError::Empty => write!(f, "discrete distribution needs at least one location"),
            DiscreteError::BadWeight(w) => write!(f, "weight {w} is not positive and finite"),
            DiscreteError::NonFiniteLocation(p) => {
                write!(f, "location ({}, {}) is not finite", p.x, p.y)
            }
            DiscreteError::LengthMismatch { points, weights } => {
                write!(f, "{points} locations but {weights} weights")
            }
        }
    }
}

impl std::error::Error for DiscreteError {}

/// A discrete uncertain point.
///
/// Weights are normalized to sum to 1 on construction. Location order is
/// preserved (the paper's `p_{ij}` indexing).
#[derive(Clone, Debug, PartialEq)]
pub struct DiscreteDistribution {
    points: Vec<Point>,
    weights: Vec<f64>,
    /// Prefix sums of weights; `cum.last() == 1.0` (up to rounding, forced).
    cum: Vec<f64>,
    /// Convex hull of the locations, for O(h) farthest-distance queries.
    hull: Vec<Point>,
    mean: Point,
    bbox: Aabb,
}

impl DiscreteDistribution {
    /// Builds a discrete uncertain point from locations and (unnormalized)
    /// positive weights.
    pub fn new(points: Vec<Point>, weights: Vec<f64>) -> Result<Self, DiscreteError> {
        if points.is_empty() {
            return Err(DiscreteError::Empty);
        }
        if points.len() != weights.len() {
            return Err(DiscreteError::LengthMismatch {
                points: points.len(),
                weights: weights.len(),
            });
        }
        if let Some(&p) = points.iter().find(|p| !p.is_finite()) {
            return Err(DiscreteError::NonFiniteLocation(p));
        }
        let mut total = 0.0;
        for &w in &weights {
            if !(w > 0.0 && w.is_finite()) {
                return Err(DiscreteError::BadWeight(w));
            }
            total += w;
        }
        let weights: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        let hull = convex_hull(&points);
        let (mut mx, mut my) = (0.0, 0.0);
        for (p, w) in points.iter().zip(&weights) {
            mx += w * p.x;
            my += w * p.y;
        }
        let bbox = Aabb::of_points(&points);
        Ok(DiscreteDistribution {
            points,
            weights,
            cum,
            hull,
            mean: Point::new(mx, my),
            bbox,
        })
    }

    /// Uniform distribution over the given locations.
    pub fn uniform(points: Vec<Point>) -> Result<Self, DiscreteError> {
        let n = points.len();
        Self::new(points, vec![1.0; n.max(1)])
    }

    /// A certain (single-location) point.
    ///
    /// # Panics
    ///
    /// If `p` is not finite.
    pub fn certain(p: Point) -> Self {
        match Self::new(vec![p], vec![1.0]) {
            Ok(d) => d,
            Err(e) => panic!("certain point: {e}"),
        }
    }

    /// Builds a discrete uncertain point from possibly-degenerate input by
    /// repairing what [`DiscreteDistribution::new`] would reject:
    ///
    /// * locations with non-finite coordinates are dropped (with their
    ///   weights);
    /// * non-positive or non-finite weights are dropped (with their
    ///   locations);
    /// * exactly coincident locations are merged, summing their weights.
    ///
    /// Returns [`DiscreteError::Empty`] when nothing survives, and
    /// [`DiscreteError::LengthMismatch`] for unequal slice lengths (that is
    /// an API misuse, not a data defect). On input that `new` accepts the
    /// result is identical to `new` up to duplicate merging.
    pub fn repair(points: Vec<Point>, weights: Vec<f64>) -> Result<Self, DiscreteError> {
        if points.len() != weights.len() {
            return Err(DiscreteError::LengthMismatch {
                points: points.len(),
                weights: weights.len(),
            });
        }
        let mut kept: Vec<Point> = Vec::with_capacity(points.len());
        let mut kept_w: Vec<f64> = Vec::with_capacity(points.len());
        for (p, w) in points.into_iter().zip(weights) {
            if !(p.is_finite() && w > 0.0 && w.is_finite()) {
                continue;
            }
            // Merge exact duplicates (linear scan: k is the description
            // complexity, small by assumption).
            if let Some(j) = kept.iter().position(|&k| k == p) {
                kept_w[j] += w;
            } else {
                kept.push(p);
                kept_w.push(w);
            }
        }
        Self::new(kept, kept_w)
    }

    /// Locations, in construction order.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Normalized weights, aligned with [`points`](Self::points).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Description complexity `k` (number of locations).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if there are no locations (cannot occur for constructed values).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ratio of the largest to the smallest weight — this point's
    /// contribution to the paper's *spread* `ρ` (Eq. 9).
    pub fn weight_spread(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &w in &self.weights {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        hi / lo
    }

    /// Builds an alias table for O(1) sampling.
    pub fn alias_table(&self) -> AliasTable {
        AliasTable::new(&self.weights)
    }

    /// Samples a location index by inverse-cdf binary search.
    pub fn sample_index(&self, rng: &mut dyn Rng) -> usize {
        let u: f64 = rng.random();
        self.cum.partition_point(|&c| c < u).min(self.len() - 1)
    }
}

impl UncertainPoint for DiscreteDistribution {
    fn min_dist(&self, q: Point) -> f64 {
        unn_geom::hull::nearest_dist(&self.points, q)
    }

    fn max_dist(&self, q: Point) -> f64 {
        unn_geom::hull::farthest_on_hull(&self.hull, q)
    }

    fn distance_cdf(&self, q: Point, r: f64) -> f64 {
        if r < 0.0 {
            return 0.0;
        }
        // Compare distances (not squared) so that `r = max_dist(q)` — itself
        // a rounded square root — includes the farthest location exactly.
        self.points
            .iter()
            .zip(&self.weights)
            .filter(|(p, _)| p.dist(q) <= r)
            .map(|(_, w)| w)
            .sum()
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point {
        self.points[self.sample_index(rng)]
    }

    fn mean(&self) -> Point {
        self.mean
    }

    fn expected_dist(&self, q: Point) -> f64 {
        self.points
            .iter()
            .zip(&self.weights)
            .map(|(p, w)| w * p.dist(q))
            .sum()
    }

    fn support_bbox(&self) -> Aabb {
        self.bbox
    }
}

/// Walker's alias method: O(1) sampling from a discrete distribution.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from (already normalized or unnormalized) positive
    /// weights.
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            let leftover = prob[l as usize] - (1.0 - prob[s as usize]);
            prob[l as usize] = leftover;
            if leftover < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries keep prob ~1 up to rounding.
        AliasTable { prob, alias }
    }

    /// Draws an index.
    #[inline]
    pub fn sample(&self, rng: &mut dyn Rng) -> usize {
        let n = self.prob.len();
        let i = rng.random_range(0..n);
        let u: f64 = rng.random();
        if u < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{check_cdf_against_sampling, check_moments_against_sampling};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tri() -> DiscreteDistribution {
        DiscreteDistribution::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(0.0, 2.0),
            ],
            vec![1.0, 2.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            DiscreteDistribution::new(vec![], vec![]),
            Err(DiscreteError::Empty)
        ));
        assert!(matches!(
            DiscreteDistribution::new(vec![Point::ORIGIN], vec![0.0]),
            Err(DiscreteError::BadWeight(_))
        ));
        assert!(matches!(
            DiscreteDistribution::new(vec![Point::ORIGIN], vec![1.0, 1.0]),
            Err(DiscreteError::LengthMismatch { .. })
        ));
        // Normalization.
        let d = tri();
        assert!((d.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d.weights()[1], 0.5);
    }

    #[test]
    fn min_max_dist() {
        let d = tri();
        let q = Point::new(-1.0, 0.0);
        assert_eq!(d.min_dist(q), 1.0);
        assert_eq!(d.max_dist(q), 3.0);
    }

    #[test]
    fn distance_cdf_steps() {
        let d = tri();
        let q = Point::new(0.0, 0.0);
        assert_eq!(d.distance_cdf(q, -1.0), 0.0);
        assert_eq!(d.distance_cdf(q, 0.0), 0.25);
        assert_eq!(d.distance_cdf(q, 1.9), 0.25);
        assert_eq!(d.distance_cdf(q, 2.0), 1.0);
    }

    #[test]
    fn expected_dist_exact() {
        let d = tri();
        let q = Point::ORIGIN;
        assert!((d.expected_dist(q) - (0.25 * 0.0 + 0.5 * 2.0 + 0.25 * 2.0)).abs() < 1e-12);
        assert_eq!(d.mean(), Point::new(1.0, 0.5));
    }

    #[test]
    fn weight_spread() {
        assert_eq!(tri().weight_spread(), 2.0);
        assert_eq!(
            DiscreteDistribution::certain(Point::ORIGIN).weight_spread(),
            1.0
        );
    }

    #[test]
    fn sampling_matches_weights() {
        let d = tri();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[d.sample_index(&mut rng)] += 1;
        }
        for (c, w) in counts.iter().zip(d.weights()) {
            let freq = *c as f64 / n as f64;
            assert!((freq - w).abs() < 0.01, "freq {freq} vs weight {w}");
        }
    }

    #[test]
    fn alias_table_matches_weights() {
        let d = tri();
        let table = d.alias_table();
        let mut rng = SmallRng::seed_from_u64(8);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (c, w) in counts.iter().zip(d.weights()) {
            let freq = *c as f64 / n as f64;
            assert!((freq - w).abs() < 0.01, "freq {freq} vs weight {w}");
        }
    }

    #[test]
    fn cdf_and_moments_against_sampling() {
        let d = tri();
        let q = Point::new(3.0, 1.0);
        check_cdf_against_sampling(&d, q, 40_000, 0.01, 42);
        check_moments_against_sampling(&d, q, 40_000, 0.01, 43);
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone_and_bounded(
            pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..12),
            ws in proptest::collection::vec(0.01f64..10.0, 12),
            qx in -20.0f64..20.0, qy in -20.0f64..20.0,
        ) {
            let k = pts.len();
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let d = DiscreteDistribution::new(pts, ws[..k].to_vec()).unwrap();
            let q = Point::new(qx, qy);
            let lo = d.min_dist(q);
            let hi = d.max_dist(q);
            prop_assert!(lo <= hi + 1e-12);
            let mut prev = -1e-12;
            for i in 0..=10 {
                let r = lo + (hi - lo) * i as f64 / 10.0;
                let c = d.distance_cdf(q, r);
                prop_assert!(c >= prev - 1e-12);
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c));
                prev = c;
            }
            prop_assert!((d.distance_cdf(q, hi) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_expected_dist_between_min_max(
            pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..12),
            qx in -20.0f64..20.0, qy in -20.0f64..20.0,
        ) {
            let d = DiscreteDistribution::uniform(
                pts.into_iter().map(|(x, y)| Point::new(x, y)).collect()
            ).unwrap();
            let q = Point::new(qx, qy);
            let e = d.expected_dist(q);
            prop_assert!(e >= d.min_dist(q) - 1e-9);
            prop_assert!(e <= d.max_dist(q) + 1e-9);
            // Jensen: E[d(q,P)] >= d(q, E[P]).
            prop_assert!(e >= q.dist(d.mean()) - 1e-9);
        }
    }
}
