//! Histogram (non-parametric) uncertain points.
//!
//! The paper's problem definition explicitly allows non-parametric pdfs
//! "such as a histogram". A [`HistogramDistribution`] is a uniform grid of
//! cells over a bounding box with a probability mass per cell; within a cell
//! the density is uniform. The distance cdf is computed *exactly* via the
//! closed-form area of a circle–rectangle intersection (no sampling).

use rand::{Rng, RngExt};
use unn_geom::{Aabb, Point};

use crate::error::DistrError;
use crate::traits::UncertainPoint;

/// A histogram-shaped uncertain point on a regular grid.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramDistribution {
    bbox: Aabb,
    nx: usize,
    ny: usize,
    /// Normalized cell masses, row-major (`iy * nx + ix`).
    mass: Vec<f64>,
    /// Prefix sums for sampling.
    cum: Vec<f64>,
    mean: Point,
}

impl HistogramDistribution {
    /// Builds a histogram over `bbox` with `nx × ny` cells and the given
    /// (unnormalized, non-negative) masses in row-major order. At least one
    /// mass must be positive.
    ///
    /// # Panics
    ///
    /// On invalid input; [`HistogramDistribution::try_new`] is the
    /// non-panicking equivalent.
    pub fn new(bbox: Aabb, nx: usize, ny: usize, masses: Vec<f64>) -> Self {
        match Self::try_new(bbox, nx, ny, masses) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects an empty or non-finite grid box, a
    /// zero-cell grid, a mass vector of the wrong length, and negative or
    /// non-finite masses (or a non-positive total) instead of panicking.
    pub fn try_new(bbox: Aabb, nx: usize, ny: usize, masses: Vec<f64>) -> Result<Self, DistrError> {
        if nx == 0 || ny == 0 {
            return Err(DistrError::EmptySupport { model: "histogram" });
        }
        if masses.len() != nx * ny {
            return Err(DistrError::LengthMismatch {
                expected: nx * ny,
                got: masses.len(),
            });
        }
        if !bbox.min.is_finite() || !bbox.max.is_finite() {
            return Err(DistrError::NonFiniteCoordinate {
                model: "histogram",
                point: if bbox.min.is_finite() {
                    bbox.max
                } else {
                    bbox.min
                },
            });
        }
        if bbox.is_empty() || bbox.width() <= 0.0 || bbox.height() <= 0.0 {
            return Err(DistrError::EmptySupport { model: "histogram" });
        }
        if let Some(&m) = masses.iter().find(|&&m| !(m >= 0.0 && m.is_finite())) {
            return Err(DistrError::BadParameter {
                model: "histogram",
                name: "mass",
                value: m,
            });
        }
        let total: f64 = masses.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            return Err(DistrError::BadParameter {
                model: "histogram",
                name: "total mass",
                value: total,
            });
        }
        let mass: Vec<f64> = masses.iter().map(|m| m / total).collect();
        let mut cum = Vec::with_capacity(mass.len());
        let mut acc = 0.0;
        for &m in &mass {
            acc += m;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        let (cw, ch) = (bbox.width() / nx as f64, bbox.height() / ny as f64);
        let (mut mx, mut my) = (0.0, 0.0);
        for iy in 0..ny {
            for ix in 0..nx {
                let m = mass[iy * nx + ix];
                mx += m * (bbox.min.x + (ix as f64 + 0.5) * cw);
                my += m * (bbox.min.y + (iy as f64 + 0.5) * ch);
            }
        }
        Ok(HistogramDistribution {
            bbox,
            nx,
            ny,
            mass,
            cum,
            mean: Point::new(mx, my),
        })
    }

    /// Re-checks the construction invariants on an existing value (the
    /// index-build validation hook).
    pub fn validate(&self) -> Result<(), DistrError> {
        Self::try_new(self.bbox, self.nx, self.ny, self.mass.clone()).map(|_| ())
    }

    /// Grid resolution `(nx, ny)`.
    #[inline]
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// The cell rectangle of cell `(ix, iy)`.
    fn cell(&self, ix: usize, iy: usize) -> Aabb {
        let cw = self.bbox.width() / self.nx as f64;
        let ch = self.bbox.height() / self.ny as f64;
        let min = Point::new(
            self.bbox.min.x + ix as f64 * cw,
            self.bbox.min.y + iy as f64 * ch,
        );
        Aabb::new(min, Point::new(min.x + cw, min.y + ch))
    }
}

/// Exact area of the intersection of the disk `(center q, radius r)` with an
/// axis-aligned rectangle.
///
/// Shifts the rectangle so the circle is centered at the origin and
/// integrates the clipped chord height
/// `len(x) = max(0, min(y1, h(x)) - max(y0, -h(x)))`, `h(x) = √(r²-x²)`,
/// splitting at the kinks (where `±h` crosses `y0`/`y1`) so each piece has
/// the closed-form antiderivative `∫h = (x·h + r²·asin(x/r)) / 2`.
pub fn circle_rect_overlap_area(q: Point, r: f64, rect: &Aabb) -> f64 {
    if r <= 0.0 || rect.is_empty() {
        return 0.0;
    }
    let (x0, x1) = (rect.min.x - q.x, rect.max.x - q.x);
    let (y0, y1) = (rect.min.y - q.y, rect.max.y - q.y);
    let a = x0.max(-r);
    let b = x1.min(r);
    if a >= b {
        return 0.0;
    }
    // Kinks: x where h(x) = |y0| or |y1|.
    let mut cuts = vec![a, b];
    for y in [y0, y1] {
        if y.abs() < r {
            let x = (r * r - y * y).sqrt();
            for cand in [x, -x] {
                if cand > a && cand < b {
                    cuts.push(cand);
                }
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    // Antiderivative of h(x) = sqrt(r² - x²).
    let cap_f = |x: f64| {
        let xc = x.clamp(-r, r);
        0.5 * (xc * (r * r - xc * xc).max(0.0).sqrt() + r * r * (xc / r).asin())
    };

    let mut area = 0.0;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let m = 0.5 * (lo + hi);
        let h_m = (r * r - m * m).max(0.0).sqrt();
        let top_is_circle = h_m < y1;
        let bot_is_circle = -h_m > y0;
        let top_val = if top_is_circle { h_m } else { y1 };
        let bot_val = if bot_is_circle { -h_m } else { y0 };
        if top_val <= bot_val {
            continue; // empty strip
        }
        let top_int = if top_is_circle {
            cap_f(hi) - cap_f(lo)
        } else {
            y1 * (hi - lo)
        };
        let bot_int = if bot_is_circle {
            -(cap_f(hi) - cap_f(lo))
        } else {
            y0 * (hi - lo)
        };
        area += top_int - bot_int;
    }
    area.max(0.0)
}

impl UncertainPoint for HistogramDistribution {
    fn min_dist(&self, q: Point) -> f64 {
        // Minimum over cells with positive mass.
        let mut best = f64::INFINITY;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                if self.mass[iy * self.nx + ix] > 0.0 {
                    best = best.min(self.cell(ix, iy).min_dist(q));
                }
            }
        }
        best
    }

    fn max_dist(&self, q: Point) -> f64 {
        let mut best = 0.0f64;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                if self.mass[iy * self.nx + ix] > 0.0 {
                    best = best.max(self.cell(ix, iy).max_dist(q));
                }
            }
        }
        best
    }

    fn distance_cdf(&self, q: Point, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let m = self.mass[iy * self.nx + ix];
                if m == 0.0 {
                    continue;
                }
                let cell = self.cell(ix, iy);
                if cell.min_dist(q) >= r {
                    continue;
                }
                if cell.max_dist(q) <= r {
                    total += m;
                    continue;
                }
                let cell_area = (cell.width() * cell.height()).max(f64::MIN_POSITIVE);
                total += m * circle_rect_overlap_area(q, r, &cell) / cell_area;
            }
        }
        total.clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn Rng) -> Point {
        let u: f64 = rng.random();
        let idx = self
            .cum
            .partition_point(|&c| c < u)
            .min(self.mass.len() - 1);
        let (ix, iy) = (idx % self.nx, idx / self.nx);
        let cell = self.cell(ix, iy);
        Point::new(
            rng.random_range(cell.min.x..cell.max.x),
            rng.random_range(cell.min.y..cell.max.y),
        )
    }

    fn mean(&self) -> Point {
        self.mean
    }

    fn expected_dist(&self, q: Point) -> f64 {
        // E[d] = δ + ∫ (1 - G) over the support range.
        let lo = self.min_dist(q);
        let hi = self.max_dist(q);
        lo + crate::integrate::adaptive_simpson(|r| 1.0 - self.distance_cdf(q, r), lo, hi, 1e-8)
    }

    fn support_bbox(&self) -> Aabb {
        self.bbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{check_cdf_against_sampling, check_moments_against_sampling};
    use core::f64::consts::PI;
    use proptest::prelude::*;

    #[test]
    fn circle_rect_area_limits() {
        let rect = Aabb::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
        // Huge circle covers the rect.
        assert!((circle_rect_overlap_area(Point::ORIGIN, 10.0, &rect) - 4.0).abs() < 1e-12);
        // Tiny circle fully inside the rect.
        assert!((circle_rect_overlap_area(Point::ORIGIN, 0.5, &rect) - PI * 0.25).abs() < 1e-12);
        // Far circle misses.
        assert_eq!(
            circle_rect_overlap_area(Point::new(100.0, 0.0), 1.0, &rect),
            0.0
        );
        // Half overlap: circle centered on rect edge, small radius.
        let v = circle_rect_overlap_area(Point::new(1.0, 0.0), 0.5, &rect);
        assert!((v - PI * 0.125).abs() < 1e-12, "v = {v}");
        // Quarter overlap at a corner.
        let v = circle_rect_overlap_area(Point::new(1.0, 1.0), 0.5, &rect);
        assert!((v - PI * 0.0625).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn circle_rect_area_vs_grid() {
        let rect = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        for &(qx, qy, r) in &[
            (0.5, 0.5, 0.8),
            (-0.3, 0.2, 1.0),
            (2.0, 1.0, 1.5),
            (1.0, -0.5, 0.7),
        ] {
            let q = Point::new(qx, qy);
            let analytic = circle_rect_overlap_area(q, r, &rect);
            // Fine grid check.
            let n = 400;
            let mut hits = 0u64;
            for i in 0..n {
                for j in 0..n {
                    let p = Point::new(
                        rect.min.x + rect.width() * (i as f64 + 0.5) / n as f64,
                        rect.min.y + rect.height() * (j as f64 + 0.5) / n as f64,
                    );
                    if p.dist2(q) <= r * r {
                        hits += 1;
                    }
                }
            }
            let approx = hits as f64 * rect.width() * rect.height() / (n * n) as f64;
            assert!(
                (analytic - approx).abs() < 0.01,
                "q=({qx},{qy}) r={r}: analytic={analytic} approx={approx}"
            );
        }
    }

    fn sample_hist() -> HistogramDistribution {
        // 2x2 grid with unequal masses.
        HistogramDistribution::new(
            Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)),
            2,
            2,
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn construction_and_moments() {
        let h = sample_hist();
        assert_eq!(h.resolution(), (2, 2));
        // Mean: weighted centers (0.5,0.5)*0.1 + (1.5,0.5)*0.2 + (0.5,1.5)*0.3
        // + (1.5,1.5)*0.4.
        let m = h.mean();
        assert!((m.x - (0.05 + 0.3 + 0.15 + 0.6)).abs() < 1e-12);
        assert!((m.y - (0.05 + 0.1 + 0.45 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn min_max_skip_empty_cells() {
        let h = HistogramDistribution::new(
            Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0)),
            2,
            1,
            vec![0.0, 1.0], // only the right cell carries mass
        );
        let q = Point::new(-1.0, 0.5);
        assert_eq!(h.min_dist(q), 2.0);
        // Farthest point of the right cell from q: corner (2, 0) or (2, 1).
        assert!((h.max_dist(q) - (9.0f64 + 0.25).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cdf_against_sampling() {
        let h = sample_hist();
        let q = Point::new(2.5, -0.5);
        check_cdf_against_sampling(&h, q, 50_000, 0.012, 31);
        check_moments_against_sampling(&h, q, 50_000, 0.012, 32);
    }

    proptest! {
        #[test]
        fn prop_circle_rect_area_bounds(
            qx in -3.0f64..3.0, qy in -3.0f64..3.0, r in 0.01f64..4.0,
        ) {
            let rect = Aabb::new(Point::new(-1.0, -0.5), Point::new(1.0, 0.5));
            let v = circle_rect_overlap_area(Point::new(qx, qy), r, &rect);
            prop_assert!(v >= 0.0);
            prop_assert!(v <= PI * r * r + 1e-9);
            prop_assert!(v <= rect.width() * rect.height() + 1e-9);
        }

        #[test]
        fn prop_circle_rect_area_monotone_in_r(
            qx in -3.0f64..3.0, qy in -3.0f64..3.0,
        ) {
            let rect = Aabb::new(Point::new(-1.0, -0.5), Point::new(1.0, 0.5));
            let q = Point::new(qx, qy);
            let mut prev = 0.0;
            for i in 1..=12 {
                let r = 0.3 * i as f64;
                let v = circle_rect_overlap_area(q, r, &rect);
                prop_assert!(v + 1e-10 >= prev);
                prev = v;
            }
        }

        #[test]
        fn prop_hist_cdf_monotone(
            masses in proptest::collection::vec(0.0f64..5.0, 9),
            qx in -3.0f64..5.0, qy in -3.0f64..5.0,
        ) {
            prop_assume!(masses.iter().sum::<f64>() > 0.1);
            let h = HistogramDistribution::new(
                Aabb::new(Point::new(0.0, 0.0), Point::new(3.0, 3.0)), 3, 3, masses);
            let q = Point::new(qx, qy);
            let lo = h.min_dist(q);
            let hi = h.max_dist(q);
            let mut prev = -1e-9;
            for i in 0..=10 {
                let r = lo + (hi - lo) * i as f64 / 10.0;
                let c = h.distance_cdf(q, r);
                prop_assert!(c + 1e-9 >= prev);
                prev = c;
            }
            prop_assert!((h.distance_cdf(q, hi + 1e-9) - 1.0).abs() < 1e-9);
        }
    }
}
