//! # unn-distr — uncertain-point models
//!
//! Implements the paper's locational uncertainty models (§1.1): an uncertain
//! point is a probability distribution over locations in the plane, either
//! discrete (`k` weighted locations) or continuous with bounded support
//! (uniform on a disk, truncated Gaussian, histogram).
//!
//! The common interface is [`UncertainPoint`]; the closed enum [`Uncertain`]
//! lets heterogeneous sets live in one collection without dynamic dispatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod discrete;
pub mod error;
pub mod gaussian;
pub mod histogram;
pub mod integrate;
pub mod traits;
pub mod uniform_disk;
pub mod uniform_polygon;

pub use chaos::{ChaosDistribution, ChaosMode};
pub use discrete::{AliasTable, DiscreteDistribution, DiscreteError};
pub use error::DistrError;
pub use gaussian::TruncatedGaussian;
pub use histogram::{circle_rect_overlap_area, HistogramDistribution};
pub use traits::UncertainPoint;
pub use uniform_disk::UniformDisk;
pub use uniform_polygon::UniformPolygon;

use rand::Rng;
use unn_geom::{Aabb, Disk, Point};

/// Any supported uncertain-point model.
///
/// Dispatches [`UncertainPoint`] over the concrete models; use this for
/// heterogeneous inputs (e.g. a sensor database mixing GPS disks and
/// particle-filter histograms).
#[derive(Clone, Debug, PartialEq)]
pub enum Uncertain {
    /// Discrete distribution of description complexity `k`.
    Discrete(DiscreteDistribution),
    /// Uniform distribution over a disk.
    UniformDisk(UniformDisk),
    /// Truncated isotropic Gaussian.
    Gaussian(TruncatedGaussian),
    /// Histogram over a regular grid.
    Histogram(HistogramDistribution),
    /// Uniform distribution over a convex polygon.
    Polygon(UniformPolygon),
    /// Fault-injection wrapper for resilience testing (see [`chaos`]).
    Chaos(ChaosDistribution),
}

impl Uncertain {
    /// A certain (single-location) point.
    pub fn certain(p: Point) -> Self {
        Uncertain::Discrete(DiscreteDistribution::certain(p))
    }

    /// Uniform distribution over a disk.
    pub fn uniform_disk(center: Point, radius: f64) -> Self {
        Uncertain::UniformDisk(UniformDisk::from_center(center, radius))
    }

    /// The disk support if this is a uniform-disk point.
    pub fn as_disk(&self) -> Option<Disk> {
        match self {
            Uncertain::UniformDisk(u) => Some(u.disk()),
            _ => None,
        }
    }

    /// The discrete distribution if this is a discrete point.
    pub fn as_discrete(&self) -> Option<&DiscreteDistribution> {
        match self {
            Uncertain::Discrete(d) => Some(d),
            _ => None,
        }
    }

    /// Approximates any model by a discrete distribution of `k` sampled
    /// locations with uniform weights — the reduction of Theorem 4.5, which
    /// proves that `k(α) = O(α⁻² log(1/δ'))` samples keep every
    /// quantification probability within `αn` (Lemma 4.4).
    ///
    /// For an already-discrete point this *resamples* (matching the theorem's
    /// analysis); callers that want the exact discrete distribution should
    /// use it directly.
    pub fn discretize(&self, k: usize, rng: &mut dyn Rng) -> DiscreteDistribution {
        assert!(k > 0, "need at least one sample");
        let pts: Vec<Point> = (0..k).map(|_| self.sample(rng)).collect();
        match DiscreteDistribution::uniform(pts) {
            Ok(d) => d,
            // k > 0 locations were drawn; only non-finite samples (a faulty
            // model) can fail here.
            Err(e) => panic!("discretize: {e}"),
        }
    }

    /// Checks that this value satisfies every construction invariant of its
    /// model: finite coordinates, positive weights/masses/radii, non-empty
    /// support. Always `Ok` for values built through this crate's checked
    /// constructors; catches values deserialized or constructed around them.
    ///
    /// A [`Chaos`](Uncertain::Chaos) wrapper validates its *inner* model —
    /// it is a testing double and deliberately passes as whatever it wraps.
    pub fn validate(&self) -> Result<(), DistrError> {
        match self {
            Uncertain::Discrete(d) => {
                // `DiscreteDistribution` re-validated through its own
                // constructor on the defining data.
                DiscreteDistribution::new(d.points().to_vec(), d.weights().to_vec())
                    .map(|_| ())
                    .map_err(DistrError::from)
            }
            Uncertain::UniformDisk(u) => u.validate(),
            Uncertain::Gaussian(g) => g.validate(),
            Uncertain::Histogram(h) => h.validate(),
            Uncertain::Polygon(p) => p.validate(),
            Uncertain::Chaos(c) => c.inner().validate(),
        }
    }

    /// Returns a repaired copy of this value, fixing what [`validate`]
    /// (see [`Uncertain::validate`]) would reject when a fix is
    /// well-defined, and erroring otherwise:
    ///
    /// * discrete: non-finite locations and non-positive weights are
    ///   dropped, coincident locations merged
    ///   ([`DiscreteDistribution::repair`]);
    /// * everything else: validation failures are unrepairable (there is no
    ///   canonical fix for a NaN center or a zero-area support) and return
    ///   the underlying error.
    ///
    /// On already-valid input this returns a value that behaves identically
    /// (discrete points may still have coincident locations merged, which
    /// does not change the distribution).
    pub fn repair(&self) -> Result<Uncertain, DistrError> {
        match self {
            Uncertain::Discrete(d) => {
                let r = DiscreteDistribution::repair(d.points().to_vec(), d.weights().to_vec())?;
                Ok(Uncertain::Discrete(r))
            }
            other => other.validate().map(|()| other.clone()),
        }
    }

    /// Sample count `k(α)` from Theorem 4.5 for accuracy `alpha` and failure
    /// probability `delta` (per point), with the constant set to 1/2 from
    /// the classic VC bound for disks ([VC71, LLS01] give `c/α² · log(1/δ)`).
    pub fn discretization_size(alpha: f64, delta: f64) -> usize {
        assert!(alpha > 0.0 && alpha < 1.0 && delta > 0.0 && delta < 1.0);
        ((0.5 / (alpha * alpha)) * (1.0 / delta).ln())
            .ceil()
            .max(1.0) as usize
    }
}

macro_rules! dispatch {
    ($self:ident, $u:ident => $body:expr) => {
        match $self {
            Uncertain::Discrete($u) => $body,
            Uncertain::UniformDisk($u) => $body,
            Uncertain::Gaussian($u) => $body,
            Uncertain::Histogram($u) => $body,
            Uncertain::Polygon($u) => $body,
            Uncertain::Chaos($u) => $body,
        }
    };
}

impl UncertainPoint for Uncertain {
    fn min_dist(&self, q: Point) -> f64 {
        dispatch!(self, u => u.min_dist(q))
    }
    fn max_dist(&self, q: Point) -> f64 {
        dispatch!(self, u => u.max_dist(q))
    }
    fn distance_cdf(&self, q: Point, r: f64) -> f64 {
        dispatch!(self, u => u.distance_cdf(q, r))
    }
    fn sample(&self, rng: &mut dyn Rng) -> Point {
        dispatch!(self, u => u.sample(rng))
    }
    fn mean(&self) -> Point {
        dispatch!(self, u => u.mean())
    }
    fn expected_dist(&self, q: Point) -> f64 {
        dispatch!(self, u => u.expected_dist(q))
    }
    fn support_bbox(&self) -> Aabb {
        dispatch!(self, u => u.support_bbox())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn enum_dispatch_consistency() {
        let models: Vec<Uncertain> = vec![
            Uncertain::certain(Point::new(1.0, 1.0)),
            Uncertain::uniform_disk(Point::new(0.0, 0.0), 2.0),
            Uncertain::Gaussian(TruncatedGaussian::with_sigmas(
                Point::new(3.0, 0.0),
                0.5,
                3.0,
            )),
            Uncertain::Histogram(HistogramDistribution::new(
                Aabb::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0)),
                2,
                2,
                vec![1.0, 1.0, 1.0, 1.0],
            )),
            Uncertain::Polygon(UniformPolygon::from_ccw_vertices(vec![
                Point::new(-1.0, -1.0),
                Point::new(1.0, -1.0),
                Point::new(0.0, 1.5),
            ])),
        ];
        let q = Point::new(5.0, 5.0);
        for m in &models {
            assert!(m.min_dist(q) <= m.max_dist(q));
            assert!(m.distance_cdf(q, m.max_dist(q) + 1e-9) > 1.0 - 1e-9);
            assert!(m.distance_cdf(q, m.min_dist(q) - 1e-9) < 1e-9);
            assert!(m.expected_dist(q) >= m.min_dist(q) - 1e-6);
            assert!(m.support_bbox().contains(m.mean()));
        }
    }

    #[test]
    fn discretize_approximates_cdf() {
        // Lemma 4.4's engine: the discretized cdf tracks the continuous cdf
        // uniformly within alpha.
        let u = Uncertain::uniform_disk(Point::ORIGIN, 3.0);
        let mut rng = SmallRng::seed_from_u64(99);
        let k = Uncertain::discretization_size(0.05, 0.01);
        let d = u.discretize(k, &mut rng);
        assert_eq!(d.len(), k);
        let q = Point::new(4.0, 1.0);
        for i in 0..=20 {
            let r = 1.0 + 6.0 * i as f64 / 20.0;
            let err = (u.distance_cdf(q, r) - d.distance_cdf(q, r)).abs();
            assert!(err < 0.05, "r={r}: err={err}");
        }
    }

    #[test]
    fn discretization_size_scales() {
        let a = Uncertain::discretization_size(0.1, 0.1);
        let b = Uncertain::discretization_size(0.05, 0.1);
        assert!(b >= 4 * a - 4); // quadratic in 1/alpha
        assert!(Uncertain::discretization_size(0.5, 0.5) >= 1);
    }

    #[test]
    fn as_accessors() {
        let d = Uncertain::uniform_disk(Point::ORIGIN, 1.0);
        assert!(d.as_disk().is_some());
        assert!(d.as_discrete().is_none());
        let c = Uncertain::certain(Point::ORIGIN);
        assert!(c.as_disk().is_none());
        assert_eq!(c.as_discrete().unwrap().len(), 1);
    }
}
