//! Uniform distribution on a convex polygon.
//!
//! Theorem 2.6 extends the disk analysis to semialgebraic uncertainty
//! regions of constant description complexity; convex polygons are the
//! standard practical instance (e.g. map-matched road cells, bounding
//! shapes from computer vision). The distance cdf is exact via the
//! circle–polygon intersection area of `unn-geom`; sampling uses a
//! triangle-fan decomposition.

use rand::{Rng, RngExt};
use unn_geom::circular::circle_polygon_area;
use unn_geom::{Aabb, ConvexPolygon, Point, Vector};

use crate::error::DistrError;
use crate::integrate::adaptive_simpson;
use crate::traits::UncertainPoint;

/// An uncertain point uniform over a convex polygon.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformPolygon {
    poly: ConvexPolygon,
    area: f64,
    /// Cumulative areas of the fan triangles `(v0, v_i, v_{i+1})`.
    fan_cum: Vec<f64>,
    centroid: Point,
    bbox: Aabb,
}

impl UniformPolygon {
    /// Builds from a convex polygon with positive area (CCW vertices).
    ///
    /// # Panics
    ///
    /// On invalid input; [`UniformPolygon::try_new`] is the non-panicking
    /// equivalent.
    pub fn new(poly: ConvexPolygon) -> Self {
        match Self::try_new(poly) {
            Ok(u) => u,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects non-finite vertices and zero-area
    /// (degenerate, fewer than 3 vertices, or collinear) polygons instead
    /// of panicking.
    pub fn try_new(poly: ConvexPolygon) -> Result<Self, DistrError> {
        if let Some(&v) = poly.vertices().iter().find(|v| !v.is_finite()) {
            return Err(DistrError::NonFiniteCoordinate {
                model: "uniform-polygon",
                point: v,
            });
        }
        let area = poly.area();
        if !(area > 0.0 && area.is_finite()) || poly.len() < 3 {
            return Err(DistrError::EmptySupport {
                model: "uniform-polygon",
            });
        }
        Ok(Self::new_unchecked(poly, area))
    }

    /// Re-checks the construction invariants on an existing value (the
    /// index-build validation hook).
    pub fn validate(&self) -> Result<(), DistrError> {
        Self::try_new(self.poly.clone()).map(|_| ())
    }

    fn new_unchecked(poly: ConvexPolygon, area: f64) -> Self {
        let verts = poly.vertices();
        let v0 = verts[0];
        let mut fan_cum = Vec::with_capacity(verts.len() - 2);
        let mut acc = 0.0;
        // Area centroid: weighted average of fan-triangle centroids.
        let (mut cx, mut cy) = (0.0, 0.0);
        for i in 1..verts.len() - 1 {
            let (a, b) = (verts[i], verts[i + 1]);
            let t_area = 0.5 * (a - v0).cross(b - v0);
            acc += t_area;
            fan_cum.push(acc);
            cx += t_area * (v0.x + a.x + b.x) / 3.0;
            cy += t_area * (v0.y + a.y + b.y) / 3.0;
        }
        let bbox = poly.bbox();
        UniformPolygon {
            centroid: Point::new(cx / area, cy / area),
            poly,
            area,
            fan_cum,
            bbox,
        }
    }

    /// Builds from CCW vertices.
    pub fn from_ccw_vertices(verts: Vec<Point>) -> Self {
        Self::new(ConvexPolygon::from_ccw_vertices(verts))
    }

    /// A regular `n`-gon approximation of a disk (handy for tests and for
    /// migrating disk workloads to the polygon code path).
    pub fn regular(center: Point, radius: f64, n: usize) -> Self {
        assert!(n >= 3);
        let verts: Vec<Point> = (0..n)
            .map(|i| {
                let a = core::f64::consts::TAU * i as f64 / n as f64;
                center + Vector::from_angle(a) * radius
            })
            .collect();
        Self::from_ccw_vertices(verts)
    }

    /// The support polygon.
    pub fn polygon(&self) -> &ConvexPolygon {
        &self.poly
    }
}

impl UncertainPoint for UniformPolygon {
    fn min_dist(&self, q: Point) -> f64 {
        if self.poly.contains(q) {
            return 0.0;
        }
        self.poly
            .edges()
            .map(|e| e.dist2_to_point(q))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    fn max_dist(&self, q: Point) -> f64 {
        unn_geom::hull::farthest_dist(self.poly.vertices(), q)
    }

    fn distance_cdf(&self, q: Point, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        (circle_polygon_area(q, r, &self.poly) / self.area).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point {
        // Pick a fan triangle by area, then a uniform point inside it.
        let u: f64 = rng.random_range(0.0..self.area);
        let idx = self.fan_cum.partition_point(|&c| c < u);
        let verts = self.poly.vertices();
        let (a, b, c) = (
            verts[0],
            verts[idx + 1],
            verts[(idx + 2).min(verts.len() - 1)],
        );
        let (mut s, mut t) = (rng.random::<f64>(), rng.random::<f64>());
        if s + t > 1.0 {
            s = 1.0 - s;
            t = 1.0 - t;
        }
        a + (b - a) * s + (c - a) * t
    }

    fn mean(&self) -> Point {
        self.centroid
    }

    fn expected_dist(&self, q: Point) -> f64 {
        let lo = self.min_dist(q);
        let hi = self.max_dist(q);
        lo + adaptive_simpson(|r| 1.0 - self.distance_cdf(q, r), lo, hi, 1e-8)
    }

    fn support_bbox(&self) -> Aabb {
        self.bbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{check_cdf_against_sampling, check_moments_against_sampling};
    use crate::uniform_disk::UniformDisk;
    use proptest::prelude::*;

    fn quad() -> UniformPolygon {
        UniformPolygon::from_ccw_vertices(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(3.0, 4.0),
            Point::new(-1.0, 3.0),
        ])
    }

    #[test]
    fn support_distances() {
        let p = quad();
        assert_eq!(p.min_dist(Point::new(1.0, 1.5)), 0.0); // inside
        let q = Point::new(-3.0, 0.0);
        assert!(p.min_dist(q) > 0.0);
        assert!(p.max_dist(q) > p.min_dist(q));
        // Max distance attained at a vertex.
        let want = p
            .polygon()
            .vertices()
            .iter()
            .map(|v| v.dist(q))
            .fold(0.0f64, f64::max);
        assert_eq!(p.max_dist(q), want);
    }

    #[test]
    fn cdf_and_moments_vs_sampling() {
        let p = quad();
        check_cdf_against_sampling(&p, Point::new(5.0, -1.0), 60_000, 0.012, 700);
        check_moments_against_sampling(&p, Point::new(5.0, -1.0), 60_000, 0.012, 701);
        // Query inside the support.
        check_cdf_against_sampling(&p, Point::new(1.5, 2.0), 60_000, 0.012, 702);
    }

    #[test]
    fn regular_polygon_approximates_disk() {
        // A 64-gon's distance cdf tracks the disk's everywhere.
        let c = Point::new(1.0, -2.0);
        let poly = UniformPolygon::regular(c, 3.0, 64);
        let disk = UniformDisk::from_center(c, 3.0);
        let q = Point::new(5.0, 1.0);
        for i in 1..20 {
            let r = 0.5 * i as f64;
            let a = poly.distance_cdf(q, r);
            let b = disk.distance_cdf(q, r);
            assert!((a - b).abs() < 0.01, "r={r}: poly={a} disk={b}");
        }
        assert!((poly.expected_dist(q) - disk.expected_dist(q)).abs() < 0.02);
        assert!(poly.mean().dist(c) < 1e-9);
    }

    #[test]
    fn centroid_is_area_centroid() {
        // L-shaped-ish asymmetric quad: the area centroid differs from the
        // vertex average; verify against the fan decomposition by sampling.
        let p = quad();
        let m = p.mean();
        assert!(p.polygon().contains(m));
        // Known: for a triangle the centroid is the vertex average.
        let tri = UniformPolygon::from_ccw_vertices(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(0.0, 3.0),
        ]);
        assert!(tri.mean().dist(Point::new(1.0, 1.0)) < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_cdf_monotone_bounded(
            qx in -8.0f64..8.0, qy in -8.0f64..8.0,
        ) {
            let p = quad();
            let q = Point::new(qx, qy);
            let lo = p.min_dist(q);
            let hi = p.max_dist(q);
            prop_assert!(lo <= hi);
            let mut prev = -1e-12;
            for i in 0..=12 {
                let r = lo + (hi - lo) * i as f64 / 12.0;
                let c = p.distance_cdf(q, r);
                prop_assert!(c + 1e-9 >= prev);
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c));
                prev = c;
            }
            prop_assert!((p.distance_cdf(q, hi) - 1.0).abs() < 1e-9);
            prop_assert!(p.distance_cdf(q, lo) < 1e-9 || lo == 0.0);
        }

        #[test]
        fn prop_samples_inside_polygon(seed in 0u64..500) {
            use rand::rngs::SmallRng;
            use rand::SeedableRng;
            let p = quad();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..50 {
                let s = p.sample(&mut rng);
                prop_assert!(p.polygon().contains(s), "{s:?} outside");
            }
        }
    }
}
