//! Truncated isotropic Gaussian uncertain points.
//!
//! The paper (after [BSI08, CCMC08]) assumes Gaussian location uncertainty is
//! *truncated* to a bounded support so that `Δ_i(q)` is finite. We truncate
//! at a radius `t·σ` around the center. Sampling is Box–Muller with
//! rejection; the distance cdf has no elementary closed form and is computed
//! by adaptive quadrature over the radial density:
//!
//! ```text
//!   G_q(r) = (1/Z) ∫_0^T  (ρ/σ²) e^{-ρ²/2σ²} · w(ρ) / 2π  dρ ,
//! ```
//!
//! where `w(ρ)` is the angular width of directions `φ` with
//! `|c + ρ·u(φ) - q| <= r`, and `Z = 1 - e^{-T²/2σ²}` is the truncated mass.

use rand::{Rng, RngExt};
use unn_geom::{Aabb, Point, Vector};

use crate::error::DistrError;
use crate::integrate::{adaptive_simpson, integrate_piecewise};
use crate::traits::UncertainPoint;

/// An uncertain point with truncated isotropic Gaussian distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TruncatedGaussian {
    center: Point,
    sigma: f64,
    /// Truncation radius (absolute, not in units of sigma).
    radius: f64,
}

impl TruncatedGaussian {
    /// Gaussian with standard deviation `sigma`, truncated at `radius`
    /// around `center`. Both must be positive.
    ///
    /// # Panics
    ///
    /// On invalid parameters; [`TruncatedGaussian::try_new`] is the
    /// non-panicking equivalent.
    pub fn new(center: Point, sigma: f64, radius: f64) -> Self {
        match Self::try_new(center, sigma, radius) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects a non-finite center and non-positive
    /// or non-finite `sigma`/`radius` instead of panicking.
    pub fn try_new(center: Point, sigma: f64, radius: f64) -> Result<Self, DistrError> {
        if !center.is_finite() {
            return Err(DistrError::NonFiniteCoordinate {
                model: "gaussian",
                point: center,
            });
        }
        if !(sigma > 0.0 && sigma.is_finite()) {
            return Err(DistrError::BadParameter {
                model: "gaussian",
                name: "sigma",
                value: sigma,
            });
        }
        if !(radius > 0.0 && radius.is_finite()) {
            return Err(DistrError::BadParameter {
                model: "gaussian",
                name: "radius",
                value: radius,
            });
        }
        Ok(TruncatedGaussian {
            center,
            sigma,
            radius,
        })
    }

    /// Truncates at `k` standard deviations (the common "3-sigma" choice).
    pub fn with_sigmas(center: Point, sigma: f64, k: f64) -> Self {
        Self::new(center, sigma, k * sigma)
    }

    /// Fallible [`TruncatedGaussian::with_sigmas`].
    pub fn try_with_sigmas(center: Point, sigma: f64, k: f64) -> Result<Self, DistrError> {
        Self::try_new(center, sigma, k * sigma)
    }

    /// Re-checks the construction invariants on an existing value (the
    /// index-build validation hook; always `Ok` for values built through
    /// the constructors of this version).
    pub fn validate(&self) -> Result<(), DistrError> {
        Self::try_new(self.center, self.sigma, self.radius).map(|_| ())
    }

    /// Center of the distribution.
    #[inline]
    pub fn center(&self) -> Point {
        self.center
    }

    /// Standard deviation.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Truncation radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Mass of the untruncated Gaussian within the truncation radius.
    #[inline]
    fn z(&self) -> f64 {
        1.0 - (-self.radius * self.radius / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Angular width (radians, in `[0, 2π]`) of directions `φ` such that the
    /// point at polar `(ρ, φ)` around the center is within `r` of `q`.
    fn angular_width(&self, l: f64, rho: f64, r: f64) -> f64 {
        if rho == 0.0 || l == 0.0 {
            return if (l - rho).abs() <= r {
                core::f64::consts::TAU
            } else {
                0.0
            };
        }
        let v = (rho * rho + l * l - r * r) / (2.0 * rho * l);
        if v >= 1.0 {
            0.0
        } else if v <= -1.0 {
            core::f64::consts::TAU
        } else {
            2.0 * v.acos()
        }
    }
}

impl UncertainPoint for TruncatedGaussian {
    fn min_dist(&self, q: Point) -> f64 {
        (q.dist(self.center) - self.radius).max(0.0)
    }

    fn max_dist(&self, q: Point) -> f64 {
        q.dist(self.center) + self.radius
    }

    fn distance_cdf(&self, q: Point, r: f64) -> f64 {
        if r <= self.min_dist(q) {
            return 0.0;
        }
        if r >= self.max_dist(q) {
            return 1.0;
        }
        let l = q.dist(self.center);
        let s2 = self.sigma * self.sigma;
        let density = |rho: f64| {
            (rho / s2)
                * (-rho * rho / (2.0 * s2)).exp()
                * (self.angular_width(l, rho, r) / core::f64::consts::TAU)
        };
        // Kinks where the circle of radius r around q is tangent to the
        // circle of radius rho around c: rho = |l - r| and rho = l + r.
        let val = integrate_piecewise(density, 0.0, self.radius, &[(l - r).abs(), l + r], 1e-10);
        (val / self.z()).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point {
        // Box–Muller, rejecting draws outside the truncation radius.
        loop {
            let u1: f64 = rng.random();
            let u2: f64 = rng.random();
            let mag = self.sigma * (-2.0 * u1.max(1e-300).ln()).sqrt();
            let v = Vector::from_angle(core::f64::consts::TAU * u2) * mag;
            if v.norm() <= self.radius {
                return self.center + v;
            }
        }
    }

    fn mean(&self) -> Point {
        self.center
    }

    fn expected_dist(&self, q: Point) -> f64 {
        // E[d] = δ + ∫_δ^Δ (1 - G(r)) dr.
        let lo = self.min_dist(q);
        let hi = self.max_dist(q);
        lo + adaptive_simpson(|r| 1.0 - self.distance_cdf(q, r), lo, hi, 1e-7)
    }

    fn support_bbox(&self) -> Aabb {
        let c = self.center;
        let r = self.radius;
        Aabb::new(Point::new(c.x - r, c.y - r), Point::new(c.x + r, c.y + r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{check_cdf_against_sampling, check_moments_against_sampling};
    use proptest::prelude::*;

    #[test]
    fn support_bounds() {
        let g = TruncatedGaussian::with_sigmas(Point::new(1.0, 2.0), 0.5, 3.0);
        let q = Point::new(4.0, 2.0);
        assert_eq!(g.min_dist(q), 1.5);
        assert_eq!(g.max_dist(q), 4.5);
        assert_eq!(g.distance_cdf(q, 1.4), 0.0);
        assert_eq!(g.distance_cdf(q, 4.6), 1.0);
    }

    #[test]
    fn centered_query_matches_rayleigh() {
        // With q at the center, d is a truncated Rayleigh:
        // G(r) = (1 - e^{-r²/2σ²}) / Z.
        let g = TruncatedGaussian::with_sigmas(Point::ORIGIN, 1.0, 4.0);
        let q = Point::ORIGIN;
        for &r in &[0.5, 1.0, 2.0, 3.0] {
            let analytic = (1.0 - (-r * r / 2.0f64).exp()) / (1.0 - (-8.0f64).exp());
            let got = g.distance_cdf(q, r);
            assert!(
                (got - analytic).abs() < 1e-7,
                "r={r}: got={got} analytic={analytic}"
            );
        }
    }

    #[test]
    fn sampling_agreement() {
        let g = TruncatedGaussian::with_sigmas(Point::new(-1.0, 0.5), 0.8, 3.0);
        let q = Point::new(1.0, 1.0);
        check_cdf_against_sampling(&g, q, 50_000, 0.012, 21);
        check_moments_against_sampling(&g, q, 50_000, 0.012, 22);
    }

    #[test]
    fn truncation_respected() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let g = TruncatedGaussian::with_sigmas(Point::ORIGIN, 1.0, 2.0);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let p = g.sample(&mut rng);
            assert!(p.to_vector().norm() <= 2.0 + 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone_bounded(
            l in 0.0f64..6.0, sigma in 0.2f64..2.0, k in 1.5f64..4.0,
        ) {
            let g = TruncatedGaussian::with_sigmas(Point::ORIGIN, sigma, k);
            let q = Point::new(l, 0.0);
            let lo = g.min_dist(q);
            let hi = g.max_dist(q);
            let mut prev = -1e-9;
            for i in 0..=12 {
                let r = lo + (hi - lo) * i as f64 / 12.0;
                let c = g.distance_cdf(q, r);
                prop_assert!(c + 1e-7 >= prev, "non-monotone at r={r}");
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c));
                prev = c;
            }
            prop_assert!((g.distance_cdf(q, hi) - 1.0).abs() < 1e-6);
        }

        #[test]
        fn prop_expected_dist_sane(
            l in 0.0f64..6.0, sigma in 0.2f64..2.0,
        ) {
            let g = TruncatedGaussian::with_sigmas(Point::ORIGIN, sigma, 3.0);
            let q = Point::new(l, 0.0);
            let e = g.expected_dist(q);
            prop_assert!(e >= g.min_dist(q) - 1e-6);
            prop_assert!(e <= g.max_dist(q) + 1e-6);
            prop_assert!(e >= q.dist(g.mean()) - 1e-5); // Jensen
        }
    }
}
