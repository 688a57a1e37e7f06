//! Circular disks: the canonical uncertainty region of the paper.
//!
//! Provides min/max distance (the paper's `δ_i(q)` and `Δ_i(q)`), containment
//! and tangency relations, circle–circle intersection points, and the area of
//! the intersection of two disks (the *lens*), which yields the closed-form
//! distance cdf `G_{q,i}` for uniformly distributed uncertain points.

use crate::point::{Point, Vector};

/// A closed disk with center and non-negative radius.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Disk {
    /// Center.
    pub center: Point,
    /// Radius (`>= 0`; a zero radius is a point).
    pub radius: f64,
}

impl Disk {
    /// Creates a disk.
    ///
    /// # Panics
    /// On a negative or non-finite radius, or non-finite center — rejecting
    /// bad inputs at construction keeps every downstream structure free of
    /// NaN poisoning.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius >= 0.0 && radius.is_finite() && center.is_finite(),
            "bad disk: center {center:?}, radius {radius}"
        );
        Disk { center, radius }
    }

    /// Minimum distance from `q` to the disk: the paper's `δ(q)`.
    ///
    /// Zero when `q` lies inside the disk.
    #[inline]
    pub fn min_dist(&self, q: Point) -> f64 {
        (q.dist(self.center) - self.radius).max(0.0)
    }

    /// Maximum distance from `q` to the disk: the paper's `Δ(q)`.
    #[inline]
    pub fn max_dist(&self, q: Point) -> f64 {
        q.dist(self.center) + self.radius
    }

    /// `true` if `q` lies in the closed disk.
    #[inline]
    pub fn contains(&self, q: Point) -> bool {
        q.dist2(self.center) <= self.radius * self.radius
    }

    /// `true` if `other` lies entirely inside the closed disk.
    #[inline]
    pub fn contains_disk(&self, other: &Disk) -> bool {
        self.center.dist(other.center) + other.radius <= self.radius
    }

    /// `true` if the closed disks share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Disk) -> bool {
        self.center.dist(other.center) <= self.radius + other.radius
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        core::f64::consts::PI * self.radius * self.radius
    }

    /// Area of the intersection of two disks (the lens).
    ///
    /// Uses the standard circular-segment formula; exact up to rounding.
    /// This is the workhorse of the uniform-disk distance cdf: for a point
    /// `P` uniform on disk `D`, `Pr[d(q, P) <= r] = area(D ∩ disk(q, r)) /
    /// area(D)`.
    pub fn lens_area(&self, other: &Disk) -> f64 {
        let d = self.center.dist(other.center);
        let (r1, r2) = (self.radius, other.radius);
        if d >= r1 + r2 {
            return 0.0;
        }
        if d + r1 <= r2 {
            return self.area();
        }
        if d + r2 <= r1 {
            return other.area();
        }
        // Proper lens. Half-angle at each center subtended by the chord.
        let a1 = ((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
        let a2 = ((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
        let t1 = a1.acos();
        let t2 = a2.acos();
        r1 * r1 * (t1 - t1.sin() * t1.cos()) + r2 * r2 * (t2 - t2.sin() * t2.cos())
    }

    /// Intersection points of the two circle boundaries.
    ///
    /// Returns `None` when the circles are disjoint, nested, or identical;
    /// tangency yields a single repeated point.
    pub fn circle_intersections(&self, other: &Disk) -> Option<(Point, Point)> {
        let e = other.center - self.center;
        let d = e.norm();
        let (r1, r2) = (self.radius, other.radius);
        if d == 0.0 || d > r1 + r2 || d < (r1 - r2).abs() {
            return None;
        }
        // Distance from self.center to the chord along e.
        let a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d);
        let h2 = r1 * r1 - a * a;
        let h = h2.max(0.0).sqrt();
        let u = e / d;
        let mid = self.center + u * a;
        let n = u.perp() * h;
        Some((mid + n, mid - n))
    }

    /// The point of the disk boundary closest to `q` (for `q != center`).
    #[inline]
    pub fn closest_boundary_point(&self, q: Point) -> Option<Point> {
        let u: Vector = (q - self.center).normalized()?;
        Some(self.center + u * self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn min_max_dist_match_paper_definitions() {
        // Paper Fig. 1 setup: disk of radius 5 at origin, q = (6, 8).
        let d = Disk::new(Point::ORIGIN, 5.0);
        let q = Point::new(6.0, 8.0);
        assert_eq!(d.min_dist(q), 5.0); // |q| = 10, minus radius
        assert_eq!(d.max_dist(q), 15.0);
        // Inside the disk, min distance is zero.
        assert_eq!(d.min_dist(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(d.max_dist(Point::ORIGIN), 5.0);
    }

    #[test]
    fn containment_relations() {
        let big = Disk::new(Point::ORIGIN, 5.0);
        let small = Disk::new(Point::new(1.0, 0.0), 2.0);
        assert!(big.contains_disk(&small));
        assert!(!small.contains_disk(&big));
        assert!(big.intersects(&small));
        let far = Disk::new(Point::new(100.0, 0.0), 2.0);
        assert!(!big.intersects(&far));
    }

    #[test]
    fn lens_area_limits() {
        let a = Disk::new(Point::ORIGIN, 2.0);
        let b = Disk::new(Point::new(10.0, 0.0), 1.0);
        assert_eq!(a.lens_area(&b), 0.0); // disjoint
        let inner = Disk::new(Point::new(0.5, 0.0), 1.0);
        assert!((a.lens_area(&inner) - inner.area()).abs() < 1e-12); // nested
        assert!((a.lens_area(&a) - a.area()).abs() < 1e-12); // identical
    }

    #[test]
    fn lens_area_half_overlap_symmetric() {
        // Two unit circles at distance d: known lens formula
        // A = 2 r^2 cos^-1(d/2r) - (d/2) sqrt(4r^2 - d^2).
        let r = 1.0;
        for &d in &[0.5, 1.0, 1.5, 1.999] {
            let a = Disk::new(Point::ORIGIN, r);
            let b = Disk::new(Point::new(d, 0.0), r);
            let expected =
                2.0 * r * r * (d / (2.0 * r)).acos() - (d / 2.0) * (4.0 * r * r - d * d).sqrt();
            assert!(
                (a.lens_area(&b) - expected).abs() < 1e-12,
                "d={d}: {} vs {}",
                a.lens_area(&b),
                expected
            );
        }
    }

    #[test]
    fn circle_intersections_basic() {
        let a = Disk::new(Point::ORIGIN, 1.0);
        let b = Disk::new(Point::new(1.0, 0.0), 1.0);
        let (p1, p2) = a.circle_intersections(&b).unwrap();
        for p in [p1, p2] {
            assert!((p.dist(a.center) - 1.0).abs() < 1e-12);
            assert!((p.dist(b.center) - 1.0).abs() < 1e-12);
        }
        assert!((p1.x - 0.5).abs() < 1e-12 && (p2.x - 0.5).abs() < 1e-12);
        // Tangent circles: single repeated point.
        let c = Disk::new(Point::new(2.0, 0.0), 1.0);
        let (t1, t2) = a.circle_intersections(&c).unwrap();
        assert!(t1.dist(t2) < 1e-9);
        assert!(t1.dist(Point::new(1.0, 0.0)) < 1e-9);
        // Disjoint / nested: none.
        assert!(a
            .circle_intersections(&Disk::new(Point::new(5.0, 0.0), 1.0))
            .is_none());
        assert!(a
            .circle_intersections(&Disk::new(Point::ORIGIN, 0.5))
            .is_none());
    }

    #[test]
    fn closest_boundary_point_is_on_circle() {
        let d = Disk::new(Point::new(1.0, 1.0), 2.0);
        let q = Point::new(10.0, 1.0);
        let p = d.closest_boundary_point(q).unwrap();
        assert!(p.dist(Point::new(3.0, 1.0)) < 1e-12);
        assert!(d.closest_boundary_point(d.center).is_none());
    }

    proptest! {
        #[test]
        fn prop_lens_area_bounds(
            cx in -5.0f64..5.0, cy in -5.0f64..5.0,
            r1 in 0.01f64..4.0, r2 in 0.01f64..4.0,
        ) {
            let a = Disk::new(Point::ORIGIN, r1);
            let b = Disk::new(Point::new(cx, cy), r2);
            let lens = a.lens_area(&b);
            prop_assert!(lens >= -1e-12);
            prop_assert!(lens <= a.area().min(b.area()) + 1e-9);
            // Symmetry.
            prop_assert!((lens - b.lens_area(&a)).abs() < 1e-9);
        }

        #[test]
        fn prop_lens_area_vs_monte_carlo(
            cx in -3.0f64..3.0, r2 in 0.5f64..3.0,
        ) {
            let a = Disk::new(Point::ORIGIN, 2.0);
            let b = Disk::new(Point::new(cx, 0.0), r2);
            let lens = a.lens_area(&b);
            // Deterministic grid "Monte Carlo" over a's bounding box.
            let n = 200;
            let mut hits = 0u32;
            for i in 0..n {
                for j in 0..n {
                    let p = Point::new(
                        -2.0 + 4.0 * (i as f64 + 0.5) / n as f64,
                        -2.0 + 4.0 * (j as f64 + 0.5) / n as f64,
                    );
                    if a.contains(p) && b.contains(p) { hits += 1; }
                }
            }
            let approx = hits as f64 * (4.0 * 4.0) / (n * n) as f64;
            prop_assert!((lens - approx).abs() < 0.15, "lens={lens} approx={approx}");
        }

        #[test]
        fn prop_min_max_dist_consistent(
            cx in -10.0f64..10.0, cy in -10.0f64..10.0, r in 0.0f64..5.0,
            qx in -10.0f64..10.0, qy in -10.0f64..10.0,
        ) {
            let d = Disk::new(Point::new(cx, cy), r);
            let q = Point::new(qx, qy);
            prop_assert!(d.min_dist(q) <= d.max_dist(q));
            prop_assert!((d.max_dist(q) - d.min_dist(q)) <= 2.0 * r + 1e-12);
            prop_assert_eq!(d.min_dist(q) == 0.0, d.contains(q));
        }
    }
}
