//! Spiral search: deterministic ε-approximate quantification (paper §4.3).
//!
//! Retrieve the `m(ρ,ε) = ρk·ln(1/ε) + k − 1` locations of `S = ∪P_i`
//! nearest to `q` and evaluate Eq. 10/11 on that prefix only. Lemma 4.6
//! proves the one-sided guarantee `π̂_i(q) ≤ π_i(q) ≤ π̂_i(q) + ε` where `ρ`
//! is the *spread* of location probabilities (Eq. 9): truncated locations
//! have survival products bounded by `e^{-m'/ρk} ≤ ε`.
//!
//! The m-NN retrieval uses a kd-tree bounded-heap search, a substitution
//! for the galactic `[AC09]` structure. The quadtree branch-and-bound of
//! remark (ii) is the other one; E14 still benchmarks both
//! (`unn_spatial::QuadTree` against `unn_spatial::KdTree`).

use unn_distr::DiscreteDistribution;
use unn_geom::Point;
use unn_spatial::KdTree;

/// Deterministic ε-approximate quantification via truncated sweep.
///
/// ```
/// use unn_distr::DiscreteDistribution;
/// use unn_geom::Point;
/// use unn_quantify::SpiralIndex;
///
/// let objects = vec![
///     DiscreteDistribution::uniform(vec![Point::new(1.0, 0.0), Point::new(3.0, 0.0)]).unwrap(),
///     DiscreteDistribution::uniform(vec![Point::new(2.0, 0.0), Point::new(4.0, 0.0)]).unwrap(),
/// ];
/// let idx = SpiralIndex::build(&objects);
/// let pi = idx.query(Point::new(0.0, 0.0), 0.01);
/// // P_0 is nearer with probability 3/4 (enumerate the four instantiations).
/// assert!((pi[0] - 0.75).abs() <= 0.01);
/// ```
pub struct SpiralIndex {
    kd: KdTree,
    /// Owner object of each flat location.
    owner: Vec<u32>,
    /// Location probability of each flat location.
    weight: Vec<f64>,
    n: usize,
    k_max: usize,
    rho: f64,
}

impl SpiralIndex {
    /// Builds the index over discrete uncertain points.
    pub fn build(objects: &[DiscreteDistribution]) -> Self {
        let mut pts = Vec::new();
        let mut owner = Vec::new();
        let mut weight = Vec::new();
        let mut k_max = 1usize;
        let mut wmin = f64::INFINITY;
        let mut wmax = 0.0f64;
        for (i, obj) in objects.iter().enumerate() {
            k_max = k_max.max(obj.len());
            for (p, &w) in obj.points().iter().zip(obj.weights()) {
                pts.push(*p);
                owner.push(i as u32);
                weight.push(w);
                wmin = wmin.min(w);
                wmax = wmax.max(w);
            }
        }
        let rho = if pts.is_empty() { 1.0 } else { wmax / wmin };
        SpiralIndex {
            kd: KdTree::new(&pts),
            owner,
            weight,
            n: objects.len(),
            k_max,
            rho,
        }
    }

    /// Number of uncertain points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for an empty index.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The spread `ρ` of location probabilities (Eq. 9).
    pub fn spread(&self) -> f64 {
        self.rho
    }

    /// The paper's truncation size `m(ρ, ε) = ⌈ρk·ln(1/ε)⌉ + k − 1`.
    pub fn m_for(&self, eps: f64) -> usize {
        assert!(eps > 0.0 && eps < 1.0);
        let m = self.rho * self.k_max as f64 * (1.0 / eps).ln();
        (m.ceil() as usize + self.k_max).saturating_sub(1).max(1)
    }

    /// ε-approximate quantification probabilities: a dense vector `π̂` with
    /// `π̂_i ≤ π_i ≤ π̂_i + ε` for every `i` (Lemma 4.6). Implicit zeros for
    /// objects with no retrieved location.
    pub fn query(&self, q: Point, eps: f64) -> Vec<f64> {
        let retrieved: Vec<(usize, f64)> = self
            .kd
            .m_nearest(q, self.m_for(eps))
            .into_iter()
            .map(|nb| (nb.id, nb.dist))
            .collect();
        self.sweep(&retrieved)
    }

    /// Evaluates the truncated Eq. 10/11 on an already-sorted retrieved
    /// prefix of `(location id, distance)`.
    fn sweep(&self, retrieved: &[(usize, f64)]) -> Vec<f64> {
        let mut pi = vec![0.0; self.n];
        // Accumulated retrieved weight per object (the \bar P_j of the
        // paper; may be < 1).
        let mut rem = vec![1.0f64; self.n];
        let mut log_p = 0.0f64;
        let mut zeros = 0usize;

        let len = retrieved.len();
        let mut idx = 0;
        while idx < len {
            let d = retrieved[idx].1;
            let mut end = idx;
            while end < len && retrieved[end].1 == d {
                end += 1;
            }
            for &(loc, _) in &retrieved[idx..end] {
                let j = self.owner[loc] as usize;
                let old = rem[j];
                let new = (old - self.weight[loc]).max(0.0);
                if old > 0.0 {
                    log_p -= old.ln();
                } else {
                    zeros -= 1;
                }
                if new > 0.0 {
                    log_p += new.ln();
                } else {
                    zeros += 1;
                }
                rem[j] = new;
            }
            for &(loc, _) in &retrieved[idx..end] {
                let j = self.owner[loc] as usize;
                let contrib = if rem[j] > 0.0 {
                    if zeros == 0 {
                        (log_p - rem[j].ln()).exp()
                    } else {
                        0.0
                    }
                } else if zeros == 1 {
                    log_p.exp()
                } else {
                    0.0
                };
                pi[j] += self.weight[loc] * contrib;
            }
            idx = end;
        }
        pi
    }

    /// The failure mode of remark (i): evaluates the sweep after *dropping*
    /// every location with weight below `w_min` — used by experiment E11 to
    /// demonstrate that this seemingly-safe pruning breaks the ε-guarantee.
    pub fn query_dropping_light_points(&self, q: Point, eps: f64, w_min: f64) -> Vec<f64> {
        let m = self.m_for(eps);
        // Retrieve as usual, then drop light locations.
        let retrieved: Vec<(usize, f64)> = self
            .kd
            .m_nearest(q, m)
            .into_iter()
            .map(|nb| (nb.id, nb.dist))
            .filter(|&(loc, _)| self.weight[loc] >= w_min)
            .collect();
        self.sweep(&retrieved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::quantification_exact;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn random_objects(n: usize, k: usize, seed: u64, spread: f64) -> Vec<DiscreteDistribution> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let cx: f64 = rng.random_range(-20.0..20.0);
                let cy: f64 = rng.random_range(-20.0..20.0);
                let pts: Vec<Point> = (0..k)
                    .map(|_| {
                        Point::new(
                            cx + rng.random_range(-4.0..4.0),
                            cy + rng.random_range(-4.0..4.0),
                        )
                    })
                    .collect();
                let ws: Vec<f64> = (0..k).map(|_| rng.random_range(1.0..spread)).collect();
                DiscreteDistribution::new(pts, ws).unwrap()
            })
            .collect()
    }

    #[test]
    fn one_sided_eps_guarantee() {
        // Lemma 4.6: pi_hat <= pi <= pi_hat + eps, for every object.
        for seed in 150..154 {
            let objs = random_objects(12, 3, seed, 3.0);
            let idx = SpiralIndex::build(&objs);
            let mut rng = SmallRng::seed_from_u64(seed + 500);
            for &eps in &[0.2, 0.05, 0.01] {
                for _ in 0..25 {
                    let q =
                        Point::new(rng.random_range(-30.0..30.0), rng.random_range(-30.0..30.0));
                    let approx = idx.query(q, eps);
                    let exact = quantification_exact(&objs, q);
                    for i in 0..objs.len() {
                        assert!(
                            approx[i] <= exact[i] + 1e-9,
                            "overestimate: i={i} {} > {}",
                            approx[i],
                            exact[i]
                        );
                        assert!(
                            exact[i] <= approx[i] + eps + 1e-9,
                            "error > eps: i={i} exact={} approx={} eps={eps}",
                            exact[i],
                            approx[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_retrieval_is_exact() {
        // When m >= N the sweep must equal the exact computation.
        let objs = random_objects(6, 3, 160, 2.0);
        let idx = SpiralIndex::build(&objs);
        let q = Point::new(3.0, -2.0);
        // eps small enough that m >= N = 18.
        let eps = 1e-9;
        assert!(idx.m_for(eps) >= 18);
        let approx = idx.query(q, eps);
        let exact = quantification_exact(&objs, q);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 1e-9, "{a} vs {e}");
        }
    }

    #[test]
    fn m_formula_matches_paper() {
        // m(rho, eps) = rho * k * ln(1/eps) + k - 1 (up to ceiling).
        let objs = random_objects(5, 4, 163, 1.0 + 1e-9); // uniform weights
        let idx = SpiralIndex::build(&objs);
        assert!((idx.spread() - 1.0).abs() < 0.2);
        let m = idx.m_for(0.1);
        let expect = idx.spread() * 4.0 * (10.0f64).ln() + 3.0;
        assert!(
            (m as f64 - expect).abs() <= 2.0,
            "m = {m}, expected ≈ {expect}"
        );
        // Monotone in 1/eps.
        assert!(idx.m_for(0.01) > idx.m_for(0.1));
    }

    #[test]
    fn remark_i_adversarial_example() {
        // The paper's remark (i): dropping locations with weight < eps/k
        // can distort other probabilities by more than eps. Construction:
        // p1 (w = 3eps) closest; then n/2 points from distinct objects with
        // w = 2/n each; then p2 (w = 5eps). True pi(p2) < 2eps but dropping
        // the light points inflates it past 4eps.
        let eps = 0.05;
        let half_n = 50usize;
        let mut objs = Vec::new();
        // Object 0: p1 near q, rest of its mass far away.
        objs.push(
            DiscreteDistribution::new(
                vec![Point::new(1.0, 0.0), Point::new(1000.0, 0.0)],
                vec![3.0 * eps, 1.0 - 3.0 * eps],
            )
            .unwrap(),
        );
        // Light objects: one location at distance ~2, mass 2/n; rest far.
        for t in 0..half_n {
            let angle = t as f64 * 0.1;
            objs.push(
                DiscreteDistribution::new(
                    vec![
                        Point::new(2.0 * angle.cos(), 2.0 * angle.sin()),
                        Point::new(1000.0, 10.0 + t as f64),
                    ],
                    vec![1.0 / half_n as f64, 1.0 - 1.0 / half_n as f64],
                )
                .unwrap(),
            );
        }
        // Object with p2 at distance 3, weight 5 eps.
        objs.push(
            DiscreteDistribution::new(
                vec![Point::new(3.0, 0.0), Point::new(1000.0, -10.0)],
                vec![5.0 * eps, 1.0 - 5.0 * eps],
            )
            .unwrap(),
        );
        let q = Point::ORIGIN;
        let idx = SpiralIndex::build(&objs);
        let exact = quantification_exact(&objs, q);
        let p2 = objs.len() - 1;
        // Dropping light points (w < eps/k = eps/2) breaks the guarantee...
        let dropped = idx.query_dropping_light_points(q, 1e-6, eps / 2.0);
        let err_dropped = (dropped[p2] - exact[p2]).abs();
        assert!(
            err_dropped > eps,
            "dropping light points should break eps: err = {err_dropped}"
        );
        // ...while honest spiral search does not.
        let honest = idx.query(q, eps);
        assert!((honest[p2] - exact[p2]).abs() <= eps + 1e-9);
    }
}
