//! Uniform distribution on a disk — the paper's canonical continuous model.
//!
//! The distance from a query `q` to a point uniform on disk `D = (c, R)` has
//! a fully closed-form cdf and pdf via circle–circle lens areas:
//!
//! * `G_q(r) = area(D ∩ B(q, r)) / area(D)`,
//! * `g_q(r) = dG/dr = (arc length of ∂B(q, r) inside D) / area(D)`.
//!
//! The pdf `g_q` is exactly the curve shown in the paper's Figure 1 (disk of
//! radius 5 at the origin, `q = (6, 8)`), reproduced by experiment E13.

use rand::{Rng, RngExt};
use unn_geom::{Aabb, Disk, Point, Vector};

use crate::error::DistrError;
use crate::integrate::adaptive_simpson;
use crate::traits::UncertainPoint;

/// An uncertain point distributed uniformly over a disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UniformDisk {
    disk: Disk,
}

impl UniformDisk {
    /// Uniform distribution over the given disk (radius must be positive).
    ///
    /// # Panics
    ///
    /// On invalid input; [`UniformDisk::try_new`] is the non-panicking
    /// equivalent.
    pub fn new(disk: Disk) -> Self {
        match Self::try_new(disk) {
            Ok(u) => u,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects a non-finite center and a zero,
    /// negative, or non-finite radius instead of panicking. (A zero-radius
    /// disk is a *certain* point; model it as
    /// [`crate::DiscreteDistribution::certain`].)
    pub fn try_new(disk: Disk) -> Result<Self, DistrError> {
        if !disk.center.is_finite() {
            return Err(DistrError::NonFiniteCoordinate {
                model: "uniform-disk",
                point: disk.center,
            });
        }
        if !(disk.radius > 0.0 && disk.radius.is_finite()) {
            return Err(DistrError::BadParameter {
                model: "uniform-disk",
                name: "radius",
                value: disk.radius,
            });
        }
        Ok(UniformDisk { disk })
    }

    /// Convenience constructor from center and radius.
    pub fn from_center(center: Point, radius: f64) -> Self {
        match Self::try_from_center(center, radius) {
            Ok(u) => u,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`UniformDisk::from_center`].
    pub fn try_from_center(center: Point, radius: f64) -> Result<Self, DistrError> {
        if !center.is_finite() {
            return Err(DistrError::NonFiniteCoordinate {
                model: "uniform-disk",
                point: center,
            });
        }
        if !(radius > 0.0 && radius.is_finite()) {
            return Err(DistrError::BadParameter {
                model: "uniform-disk",
                name: "radius",
                value: radius,
            });
        }
        Ok(UniformDisk {
            disk: Disk::new(center, radius),
        })
    }

    /// Re-checks the construction invariants on an existing value (the
    /// index-build validation hook).
    pub fn validate(&self) -> Result<(), DistrError> {
        Self::try_new(self.disk).map(|_| ())
    }

    /// The support disk.
    #[inline]
    pub fn disk(&self) -> Disk {
        self.disk
    }

    /// Distance pdf `g_q(r)` (paper Eq. just above Eq. 1; Figure 1).
    ///
    /// Closed form: the length of the arc of the circle of radius `r` around
    /// `q` that lies inside the support disk, divided by the disk area.
    pub fn distance_pdf(&self, q: Point, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        let ll = q.dist(self.disk.center);
        let rr = self.disk.radius;
        let area = self.disk.area();
        if ll == 0.0 {
            return if r <= rr {
                2.0 * core::f64::consts::PI * r / area
            } else {
                0.0
            };
        }
        if r <= (ll - rr).abs() {
            // Circle entirely inside (if l < rr) contributes a full circle;
            // entirely outside contributes nothing.
            return if ll < rr {
                2.0 * core::f64::consts::PI * r / area
            } else {
                0.0
            };
        }
        if r >= ll + rr {
            return 0.0;
        }
        // Proper crossing: half-angle of the arc inside the support.
        let cos_half = ((r * r + ll * ll - rr * rr) / (2.0 * r * ll)).clamp(-1.0, 1.0);
        let half = cos_half.acos();
        2.0 * r * half / area
    }
}

impl UncertainPoint for UniformDisk {
    fn min_dist(&self, q: Point) -> f64 {
        self.disk.min_dist(q)
    }

    fn max_dist(&self, q: Point) -> f64 {
        self.disk.max_dist(q)
    }

    fn distance_cdf(&self, q: Point, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        let ball = Disk::new(q, r);
        self.disk.lens_area(&ball) / self.disk.area()
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point {
        // sqrt trick for uniform area density.
        let u: f64 = rng.random();
        let phi: f64 = rng.random_range(0.0..core::f64::consts::TAU);
        self.disk.center + Vector::from_angle(phi) * (self.disk.radius * u.sqrt())
    }

    fn mean(&self) -> Point {
        self.disk.center
    }

    fn expected_dist(&self, q: Point) -> f64 {
        // E[d] = ∫ r g(r) dr over [δ, Δ]; g is smooth except at the kink
        // r = |l - R|, so split there.
        let lo = self.min_dist(q);
        let hi = self.max_dist(q);
        let kink = (q.dist(self.disk.center) - self.disk.radius).abs();
        let mut total = 0.0;
        let mut a = lo;
        if kink > lo && kink < hi {
            total += adaptive_simpson(|r| r * self.distance_pdf(q, r), a, kink, 1e-10);
            a = kink;
        }
        total + adaptive_simpson(|r| r * self.distance_pdf(q, r), a, hi, 1e-10)
    }

    fn support_bbox(&self) -> Aabb {
        let c = self.disk.center;
        let r = self.disk.radius;
        Aabb::new(Point::new(c.x - r, c.y - r), Point::new(c.x + r, c.y + r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{check_cdf_against_sampling, check_moments_against_sampling};
    use proptest::prelude::*;

    /// The paper's Figure 1 instance.
    fn fig1() -> (UniformDisk, Point) {
        (
            UniformDisk::from_center(Point::ORIGIN, 5.0),
            Point::new(6.0, 8.0),
        )
    }

    #[test]
    fn fig1_support_bounds() {
        let (u, q) = fig1();
        // |q| = 10, so distances range over [5, 15] (Figure 1b).
        assert_eq!(u.min_dist(q), 5.0);
        assert_eq!(u.max_dist(q), 15.0);
        assert_eq!(u.distance_pdf(q, 4.9), 0.0);
        assert_eq!(u.distance_pdf(q, 15.1), 0.0);
        assert!(u.distance_pdf(q, 10.0) > 0.0);
    }

    #[test]
    fn fig1_pdf_integrates_to_one() {
        let (u, q) = fig1();
        let total = adaptive_simpson(|r| u.distance_pdf(q, r), 5.0, 15.0, 1e-10);
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }

    #[test]
    fn pdf_is_derivative_of_cdf() {
        let (u, q) = fig1();
        for &r in &[6.0, 8.0, 10.0, 12.0, 14.0] {
            let h = 1e-6;
            let numeric = (u.distance_cdf(q, r + h) - u.distance_cdf(q, r - h)) / (2.0 * h);
            let analytic = u.distance_pdf(q, r);
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "r={r}: numeric={numeric} analytic={analytic}"
            );
        }
    }

    #[test]
    fn query_inside_disk() {
        let u = UniformDisk::from_center(Point::ORIGIN, 2.0);
        let q = Point::new(0.5, 0.0);
        assert_eq!(u.min_dist(q), 0.0);
        assert_eq!(u.max_dist(q), 2.5);
        // Small r: the ball around q is entirely inside, cdf = r^2 / R^2.
        let r = 0.3;
        assert!((u.distance_cdf(q, r) - r * r / 4.0).abs() < 1e-12);
        assert!((u.distance_pdf(q, r) - 2.0 * r / 4.0).abs() < 1e-12);
    }

    #[test]
    fn centered_query_closed_forms() {
        let u = UniformDisk::from_center(Point::ORIGIN, 3.0);
        let q = Point::ORIGIN;
        assert!((u.distance_cdf(q, 1.5) - 0.25).abs() < 1e-12);
        // E[d] = 2R/3 for a centered query.
        assert!((u.expected_dist(q) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn sampling_agreement() {
        let (u, q) = fig1();
        check_cdf_against_sampling(&u, q, 60_000, 0.01, 11);
        check_moments_against_sampling(&u, q, 60_000, 0.01, 12);
        // Also with the query inside the support.
        let u2 = UniformDisk::from_center(Point::new(1.0, -2.0), 4.0);
        let q2 = Point::new(0.0, -1.0);
        check_cdf_against_sampling(&u2, q2, 60_000, 0.01, 13);
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(
            cx in -10.0f64..10.0, cy in -10.0f64..10.0, rad in 0.1f64..5.0,
            qx in -15.0f64..15.0, qy in -15.0f64..15.0,
        ) {
            let u = UniformDisk::from_center(Point::new(cx, cy), rad);
            let q = Point::new(qx, qy);
            let lo = u.min_dist(q);
            let hi = u.max_dist(q);
            let mut prev = -1e-12;
            for i in 0..=16 {
                let r = lo + (hi - lo) * i as f64 / 16.0;
                let c = u.distance_cdf(q, r);
                prop_assert!(c + 1e-9 >= prev);
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c));
                prev = c;
            }
        }

        #[test]
        fn prop_pdf_nonnegative_and_normalized(
            l in 0.0f64..12.0, rad in 0.5f64..5.0,
        ) {
            let u = UniformDisk::from_center(Point::ORIGIN, rad);
            let q = Point::new(l, 0.0);
            let lo = u.min_dist(q);
            let hi = u.max_dist(q);
            let kink = (l - rad).abs();
            let total = crate::integrate::integrate_piecewise(
                |r| u.distance_pdf(q, r), lo, hi, &[kink], 1e-10);
            prop_assert!((total - 1.0).abs() < 1e-5, "total = {total}");
        }

        #[test]
        fn prop_expected_dist_jensen(
            cx in -5.0f64..5.0, cy in -5.0f64..5.0, rad in 0.2f64..4.0,
            qx in -10.0f64..10.0, qy in -10.0f64..10.0,
        ) {
            let u = UniformDisk::from_center(Point::new(cx, cy), rad);
            let q = Point::new(qx, qy);
            let e = u.expected_dist(q);
            prop_assert!(e >= q.dist(u.mean()) - 1e-7);
            prop_assert!(e >= u.min_dist(q) - 1e-7);
            prop_assert!(e <= u.max_dist(q) + 1e-7);
        }
    }
}
