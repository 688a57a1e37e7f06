//! The main user-facing index over a set of uncertain points.
//!
//! [`PnnIndex`] bundles the paper's structures behind one API:
//!
//! * [`PnnIndex::nn_nonzero`] — all points with nonzero probability of
//!   being the NN (§2–3), specialized to disk or discrete supports when the
//!   input is homogeneous, exact linear scan otherwise;
//! * [`PnnIndex::quantify`] — ε-approximate quantification probabilities,
//!   auto-selecting spiral search (discrete, deterministic, Thm 4.7) or the
//!   Monte-Carlo structure (continuous / mixed, Thm 4.3/4.5);
//! * [`PnnIndex::quantify_exact`] — exact (discrete, Eq. 2 sweep) or
//!   high-resolution numeric integration (continuous, Eq. 1);
//! * [`PnnIndex::expected_nn`] — the part-I expected-distance criterion.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use unn_distr::{Uncertain, UncertainPoint};
use unn_geom::{Disk, Point};
use unn_nonzero::{DiscreteNonzeroIndex, DiskNonzeroIndex, GuaranteedNnIndex};
use unn_quantify::{
    knn_membership_exact, quantification_monte_carlo, AdaptiveQuantify, ExactTier, McBackend,
    MonteCarloIndex, SpiralIndex, ADAPTIVE_MIN_ROUNDS,
};

use crate::expected::ExpectedNnIndex;
use crate::resilience::{QuantifyOutcome, QueryBudget, UnnError, ValidationPolicy};

/// Configuration for [`PnnIndex::build`].
#[derive(Clone, Debug)]
pub struct PnnConfig {
    /// Deterministic seed for all randomized components.
    pub seed: u64,
    /// Target additive error for [`PnnIndex::quantify`].
    pub epsilon: f64,
    /// Failure probability for Monte-Carlo guarantees.
    pub delta: f64,
    /// Upper bound on Monte-Carlo rounds (the theorem-driven count can be
    /// enormous for tiny ε; production deployments cap it).
    pub max_mc_rounds: usize,
    /// Grid resolution for exact-by-integration on continuous models (≥ 2).
    pub numeric_steps: usize,
    /// First checkpoint of the adaptive stopping rule
    /// ([`PnnIndex::quantify_adaptive`]); later checkpoints double up to
    /// the built round count.
    pub adaptive_min_rounds: usize,
}

impl Default for PnnConfig {
    fn default() -> Self {
        PnnConfig {
            seed: 0x5eed,
            epsilon: 0.05,
            delta: 0.01,
            max_mc_rounds: 20_000,
            numeric_steps: 2_000,
            adaptive_min_rounds: ADAPTIVE_MIN_ROUNDS,
        }
    }
}

impl PnnConfig {
    /// Checks every parameter against its documented range — the checks
    /// [`PnnIndex::try_build`] runs before construction. `epsilon` and
    /// `delta` must lie in `(0, 1)` (the spiral truncation and the
    /// Monte-Carlo round count `m_for`/Eq. 6 are undefined outside it);
    /// the round counts must be at least 1 and `numeric_steps` at least 2
    /// (the numeric integrator's grid needs two nodes).
    pub fn validate(&self) -> Result<(), crate::resilience::UnnError> {
        use crate::resilience::UnnError;
        let bad = |reason: String| Err(UnnError::InvalidConfig { reason });
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return bad(format!("epsilon must be in (0, 1), got {}", self.epsilon));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return bad(format!("delta must be in (0, 1), got {}", self.delta));
        }
        if self.max_mc_rounds == 0 {
            return bad("max_mc_rounds must be at least 1".into());
        }
        if self.numeric_steps < 2 {
            return bad(format!(
                "numeric_steps must be at least 2, got {}",
                self.numeric_steps
            ));
        }
        if self.adaptive_min_rounds == 0 {
            return bad("adaptive_min_rounds must be at least 1".into());
        }
        Ok(())
    }
}

/// Which estimator produced a quantification answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuantifyMethod {
    /// Spiral search (deterministic, discrete only).
    Spiral,
    /// Monte-Carlo instantiations.
    MonteCarlo {
        /// The accuracy the built round count *actually* guarantees (Eq. 6
        /// inverted at the built `s`). Equals the requested
        /// [`PnnConfig::epsilon`] — or better — unless
        /// [`PnnConfig::max_mc_rounds`] capped the theorem-driven count,
        /// in which case this is honestly larger than the request.
        achieved_epsilon: f64,
    },
    /// Exact sweep over Eq. 2.
    ExactSweep,
    /// Numeric integration of Eq. 1.
    NumericIntegration,
}

/// `tier`'s answer at `q`, tagged with the sweep that produced it.
pub(crate) fn exact_answer(tier: &ExactTier, q: Point) -> (Vec<f64>, QuantifyMethod) {
    let method = if tier.discrete().is_some() {
        QuantifyMethod::ExactSweep
    } else {
        QuantifyMethod::NumericIntegration
    };
    (tier.quantify(q), method)
}

enum NonzeroBackend {
    // Both index variants are boxed: the kd structures inside dominate the
    // enum footprint and the backend lives once per `PnnIndex`.
    Disks(Box<DiskNonzeroIndex>),
    Discrete(Box<DiscreteNonzeroIndex>),
    /// Heterogeneous models: exact linear scan over `δ_i` / `Δ_j`.
    Generic,
}

/// Probabilistic nearest-neighbor index over uncertain points (the paper's
/// full query suite).
///
/// All query methods take `&self` and the index is `Send + Sync` (statically
/// asserted in [`crate::batch`]), so one index can be shared across threads
/// by reference; [`crate::batch::BatchOptions::map`] does exactly that.
pub struct PnnIndex {
    /// The points, their all-discrete view and the exact sweep over them.
    tier: ExactTier,
    config: PnnConfig,
    nonzero: NonzeroBackend,
    spiral: Option<SpiralIndex>,
    mc: MonteCarloIndex,
    /// Eq. 6 inverted at the built round count (see
    /// [`PnnIndex::mc_achieved_epsilon`]).
    mc_achieved_epsilon: f64,
    expected: ExpectedNnIndex,
    guaranteed: Option<GuaranteedNnIndex>,
}

impl PnnIndex {
    /// Builds the index. Deterministic given `config.seed`.
    pub fn build(points: Vec<Uncertain>, config: PnnConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let tier = ExactTier::new(points, config.numeric_steps);
        let points = tier.points();
        let discrete = tier.discrete();
        // Specialize the nonzero backend.
        let disks: Option<Vec<Disk>> = points.iter().map(|p| p.as_disk()).collect();
        let nonzero = if let Some(ds) = &disks {
            NonzeroBackend::Disks(Box::new(DiskNonzeroIndex::new(ds)))
        } else if let Some(objs) = discrete {
            NonzeroBackend::Discrete(Box::new(DiscreteNonzeroIndex::from_distributions(objs)))
        } else {
            NonzeroBackend::Generic
        };
        let spiral = discrete.map(SpiralIndex::build);
        let n = points.len();
        let k = discrete.map_or(1, |objs| objs.iter().map(|o| o.len()).max().unwrap_or(1));
        let s = MonteCarloIndex::samples_for(config.epsilon, config.delta, n.max(1), k)
            .min(config.max_mc_rounds)
            .max(1);
        // Eq. 6 inverted at the rounds actually built: when `max_mc_rounds`
        // capped the theorem-driven count this is larger than the request,
        // and results must say so rather than pretend `config.epsilon`.
        let mc_achieved_epsilon = MonteCarloIndex::epsilon_for(s, config.delta, n.max(1), k);
        let mc = MonteCarloIndex::build(points, s, McBackend::KdTree, &mut rng);
        let expected = ExpectedNnIndex::build(points);
        let guaranteed = disks.as_ref().map(|ds| GuaranteedNnIndex::new(ds));
        PnnIndex {
            tier,
            config,
            nonzero,
            spiral,
            mc,
            mc_achieved_epsilon,
            expected,
            guaranteed,
        }
    }

    /// Builds with the default configuration.
    pub fn new(points: Vec<Uncertain>) -> Self {
        Self::build(points, PnnConfig::default())
    }

    /// Fallible [`PnnIndex::build`] with strict input validation.
    ///
    /// Rejects (or, under [`ValidationPolicy::Repair`], fixes) inputs that
    /// the unchecked constructor would accept and later choke on:
    ///
    /// * out-of-range configuration → [`UnnError::InvalidConfig`];
    /// * distributions failing [`Uncertain::validate`] (non-finite
    ///   coordinates, empty or non-positive-weight supports, zero-radius
    ///   disks via the model constructors) →
    ///   [`UnnError::InvalidDistribution`] with the offending index;
    /// * exact duplicate points → [`UnnError::DegenerateGeometry`] under
    ///   `Strict`, deduped (first occurrence kept) under `Repair`;
    /// * a panic during construction (e.g. a fault injected by a
    ///   [`unn_distr::ChaosDistribution`] behind validation) is caught and
    ///   surfaced as [`UnnError::QueryPanicked`] — no panic escapes.
    ///
    /// On clean inputs both policies build indexes identical to
    /// [`PnnIndex::build`] (asserted by the property tests).
    pub fn try_build(
        points: Vec<Uncertain>,
        config: PnnConfig,
        policy: ValidationPolicy,
    ) -> Result<Self, UnnError> {
        config.validate()?;
        // Per-point validation / repair.
        let mut kept: Vec<Uncertain> = Vec::with_capacity(points.len());
        for (i, p) in points.into_iter().enumerate() {
            let ok = match policy {
                ValidationPolicy::Strict => p.validate().map(|()| p),
                ValidationPolicy::Repair => p.repair(),
            };
            match ok {
                Ok(p) => kept.push(p),
                Err(e) => {
                    return Err(UnnError::InvalidDistribution {
                        index: Some(i),
                        reason: e.to_string(),
                    })
                }
            }
        }
        // Duplicate detection: sort by mean, then compare only within runs
        // of equal means — near O(n log n) on non-adversarial inputs.
        let mut order: Vec<usize> = (0..kept.len()).collect();
        let means: Vec<Point> = kept.iter().map(|p| p.mean()).collect();
        order.sort_by(|&a, &b| {
            means[a]
                .x
                .total_cmp(&means[b].x)
                .then(means[a].y.total_cmp(&means[b].y))
        });
        let mut dup_of: Vec<Option<usize>> = vec![None; kept.len()];
        for w in 0..order.len() {
            let i = order[w];
            if dup_of[i].is_some() {
                continue;
            }
            for &j in order[w + 1..].iter().take_while(|&&j| means[j] == means[i]) {
                if dup_of[j].is_none() && kept[i] == kept[j] {
                    dup_of[j] = Some(i);
                }
            }
        }
        if let Some((j, i)) = dup_of
            .iter()
            .enumerate()
            .find_map(|(j, d)| d.map(|i| (j, i)))
        {
            let (first, second) = (i.min(j), i.max(j));
            match policy {
                ValidationPolicy::Strict => {
                    return Err(UnnError::DegenerateGeometry {
                        reason: format!("points {first} and {second} are identical"),
                    })
                }
                ValidationPolicy::Repair => {
                    let mut idx = 0;
                    kept.retain(|_| {
                        let keep = dup_of[idx].is_none();
                        idx += 1;
                        keep
                    });
                }
            }
        }
        // Construction itself samples the models (Monte-Carlo rounds), so
        // an injected fault can fire here; contain it.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Self::build(kept, config)))
            .map_err(|payload| UnnError::QueryPanicked {
                message: unn_quantify::panic_message(payload),
            })
    }

    /// [`PnnIndex::nn_nonzero`] that cannot panic: rejects non-finite
    /// query coordinates with a typed error and converts any panic on the
    /// query path into [`UnnError::QueryPanicked`].
    pub fn try_nn_nonzero(&self, q: Point) -> Result<Vec<usize>, UnnError> {
        crate::batch::isolate(q, || self.nn_nonzero(q))
    }

    /// The work an exact quantification answer costs at this index, in the
    /// deterministic units of [`QueryBudget`]: the price
    /// [`ExactTier::work`] puts on [`PnnIndex::quantify_exact`].
    pub fn exact_work(&self) -> u64 {
        self.tier.work()
    }

    /// Budgeted quantification with graceful degradation.
    ///
    /// If the exact answer ([`PnnIndex::quantify_exact`]) fits
    /// `budget.effective()` work units it is returned as
    /// [`QuantifyOutcome::Exact`]. Otherwise the query degrades to capped
    /// adaptive Monte-Carlo — at most one pre-drawn round per remaining
    /// work unit — and returns [`QuantifyOutcome::Degraded`] carrying the
    /// *certified* accuracy actually achieved, which the caller must check
    /// (it can be much larger than the configured ε under a tight budget).
    ///
    /// Errors with [`UnnError::BudgetExhausted`] only when not even one
    /// Monte-Carlo round fits. Work units are deterministic, so the result
    /// is a pure function of `(index, q, budget)` and batched budgeted
    /// queries stay bit-identical across thread counts.
    pub fn quantify_within(
        &self,
        q: Point,
        budget: QueryBudget,
    ) -> Result<QuantifyOutcome, UnnError> {
        budget.ladder(&self.tier, q, |max_rounds| {
            self.mc.quantify_adaptive_capped(
                q,
                self.config.epsilon,
                self.config.delta,
                self.config.adaptive_min_rounds,
                max_rounds,
            )
        })
    }

    /// [`PnnIndex::quantify_within`] hardened against panics: non-finite
    /// queries become [`UnnError::DegenerateGeometry`] and a panic on the
    /// query path becomes [`UnnError::QueryPanicked`] — this entry point
    /// never unwinds.
    pub fn quantify_guarded(
        &self,
        q: Point,
        budget: QueryBudget,
    ) -> Result<QuantifyOutcome, UnnError> {
        crate::batch::isolate(q, || self.quantify_within(q, budget)).and_then(|r| r)
    }

    /// Number of uncertain points.
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// `true` when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// The uncertain points.
    pub fn points(&self) -> &[Uncertain] {
        self.tier.points()
    }

    /// `NN≠0(q)`: every point with `π_i(q) > 0`, by Lemma 2.1.
    pub fn nn_nonzero(&self, q: Point) -> Vec<usize> {
        match &self.nonzero {
            NonzeroBackend::Disks(idx) => idx.query(q),
            NonzeroBackend::Discrete(idx) => idx.query(q),
            NonzeroBackend::Generic => self.nn_nonzero_generic(q),
        }
    }

    /// Generic Lemma 2.1 scan: `i` is reported when `δ_i(q)` is below
    /// every other point's `Δ_j(q)`.
    fn nn_nonzero_generic(&self, q: Point) -> Vec<usize> {
        let points = self.points();
        let caps: Vec<f64> = points.iter().map(|p| p.max_dist(q)).collect();
        (0..points.len())
            .filter(|&i| {
                let delta_i = points[i].min_dist(q);
                caps.iter()
                    .enumerate()
                    .all(|(j, &cap)| j == i || delta_i < cap)
            })
            .collect()
    }

    /// ε-approximate quantification probabilities (dense vector) and the
    /// method used. ε comes from the build configuration; on the
    /// Monte-Carlo path the returned method carries the *achieved* ε, which
    /// degrades honestly when [`PnnConfig::max_mc_rounds`] capped the
    /// theorem-driven round count.
    pub fn quantify(&self, q: Point) -> (Vec<f64>, QuantifyMethod) {
        if let Some(spiral) = &self.spiral {
            (spiral.query(q, self.config.epsilon), QuantifyMethod::Spiral)
        } else {
            (
                self.mc.query(q),
                QuantifyMethod::MonteCarlo {
                    achieved_epsilon: self.mc_achieved_epsilon,
                },
            )
        }
    }

    /// Monte-Carlo quantification with per-query adaptive early stopping:
    /// rounds are consumed in their fixed build order and the estimate is
    /// returned as soon as a Hoeffding/empirical-Bernstein half-width
    /// certifies `|π̂_i − π_i| ≤ eps` for every `i` (failure probability
    /// `delta`), along with the rounds actually consumed and the certified
    /// half-width.
    ///
    /// Unlike [`PnnIndex::quantify`] this always runs on the Monte-Carlo
    /// structure (the stopping rule is specific to it); the result is a
    /// pure function of `(index, q, eps, delta)`, so the batch determinism
    /// contract extends to it under [`crate::batch::BatchOptions::map`].
    pub fn quantify_adaptive(&self, q: Point, eps: f64, delta: f64) -> AdaptiveQuantify {
        self.mc
            .quantify_adaptive_from(q, eps, delta, self.config.adaptive_min_rounds)
    }

    /// The accuracy the built Monte-Carlo round count actually guarantees:
    /// Eq. 6 inverted at the built `s`. At most [`PnnConfig::epsilon`]
    /// unless [`PnnConfig::max_mc_rounds`] forced fewer rounds than
    /// Theorem 4.3 requires.
    pub fn mc_achieved_epsilon(&self) -> f64 {
        self.mc_achieved_epsilon
    }

    /// The number of pre-drawn Monte-Carlo rounds `s` the index holds —
    /// the denominator of every `rounds_used / s` early-stopping ratio the
    /// observability layer reports.
    pub fn mc_rounds(&self) -> usize {
        self.mc.rounds()
    }

    /// Exact (discrete) or high-resolution numeric (continuous)
    /// quantification probabilities.
    pub fn quantify_exact(&self, q: Point) -> (Vec<f64>, QuantifyMethod) {
        exact_answer(&self.tier, q)
    }

    /// Monte-Carlo quantification with *fresh* instantiations drawn from
    /// `rng` at query time, over `rounds` rounds.
    ///
    /// Unlike [`PnnIndex::quantify`]'s Monte-Carlo path (whose rounds are
    /// frozen at build time and shared by every query), the estimate here is
    /// a pure function of the RNG stream: two calls with identically seeded
    /// RNGs are bit-identical, and independent streams give statistically
    /// independent estimates. [`PnnIndex::quantify_fresh_batch`] builds on
    /// this with one deterministic stream per query.
    pub fn quantify_fresh(&self, q: Point, rounds: usize, rng: &mut dyn Rng) -> Vec<f64> {
        quantification_monte_carlo(self.points(), q, rounds, rng)
    }

    /// The most probable nearest neighbor: `argmax_i π̂_i(q)` with its
    /// estimated probability.
    pub fn most_probable_nn(&self, q: Point) -> Option<(usize, f64)> {
        let (pi, _) = self.quantify(q);
        pi.into_iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The guaranteed nearest neighbor (`[SE08]`, §1.2): the unique point that
    /// is the NN in *every* instantiation (`π_i(q) = 1`), if one exists.
    pub fn guaranteed_nn(&self, q: Point) -> Option<usize> {
        if let Some(g) = &self.guaranteed {
            return g.guaranteed_nn(q);
        }
        // Generic path: Δ-minimizer must beat every other δ.
        use unn_distr::UncertainPoint as _;
        let points = self.points();
        let best = (0..points.len())
            .min_by(|&a, &b| points[a].max_dist(q).total_cmp(&points[b].max_dist(q)))?;
        let cap = points[best].max_dist(q);
        points
            .iter()
            .enumerate()
            .all(|(j, p)| j == best || p.min_dist(q) > cap)
            .then_some(best)
    }

    /// Probability that each point is among the `k` nearest neighbors of
    /// `q` (the kNN extension of §1.2): exact Poisson-binomial evaluation
    /// for discrete sets, Monte-Carlo estimate otherwise.
    pub fn knn_membership(&self, q: Point, k: usize) -> (Vec<f64>, QuantifyMethod) {
        if let Some(objs) = self.tier.discrete() {
            (knn_membership_exact(objs, q, k), QuantifyMethod::ExactSweep)
        } else {
            (
                self.mc.query_knn(q, k),
                QuantifyMethod::MonteCarlo {
                    achieved_epsilon: self.mc_achieved_epsilon,
                },
            )
        }
    }

    /// Expected-distance nearest neighbor (part-I criterion, §1.2).
    pub fn expected_nn(&self, q: Point) -> Option<(usize, f64)> {
        self.expected.expected_nn(q)
    }

    /// Expected-distance k-NN ranking.
    pub fn expected_knn(&self, q: Point, k: usize) -> Vec<(usize, f64)> {
        self.expected.expected_knn(q, k)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PnnConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use unn_distr::{DiscreteDistribution, TruncatedGaussian};

    fn mixed_points(seed: u64) -> Vec<Uncertain> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for i in 0..12 {
            let c = Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0));
            pts.push(match i % 2 {
                0 => Uncertain::uniform_disk(c, rng.random_range(0.5..2.0)),
                _ => Uncertain::Gaussian(TruncatedGaussian::with_sigmas(c, 0.6, 3.0)),
            });
        }
        pts
    }

    fn discrete_points(seed: u64) -> Vec<Uncertain> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..10)
            .map(|_| {
                let c = Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0));
                Uncertain::Discrete(
                    DiscreteDistribution::uniform(
                        (0..3)
                            .map(|_| {
                                Point::new(
                                    c.x + rng.random_range(-2.0..2.0),
                                    c.y + rng.random_range(-2.0..2.0),
                                )
                            })
                            .collect(),
                    )
                    .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn discrete_pipeline_methods() {
        let idx = PnnIndex::new(discrete_points(210));
        let q = Point::new(1.0, 1.0);
        let (pi, method) = idx.quantify(q);
        assert_eq!(method, QuantifyMethod::Spiral);
        let (exact, method2) = idx.quantify_exact(q);
        assert_eq!(method2, QuantifyMethod::ExactSweep);
        for (a, e) in pi.iter().zip(&exact) {
            assert!((a - e).abs() <= idx.config().epsilon + 1e-9);
        }
        // nn_nonzero is a superset of {i : pi_i > eps}.
        let nz = idx.nn_nonzero(q);
        for (i, &p) in exact.iter().enumerate() {
            if p > 1e-12 {
                assert!(nz.contains(&i), "pi_{i} = {p} but not in NN!=0");
            }
        }
    }

    #[test]
    fn continuous_pipeline_methods() {
        let idx = PnnIndex::new(mixed_points(211));
        let q = Point::new(0.0, 0.0);
        let (pi, method) = idx.quantify(q);
        assert!(matches!(method, QuantifyMethod::MonteCarlo { .. }));
        let (num, method2) = idx.quantify_exact(q);
        assert_eq!(method2, QuantifyMethod::NumericIntegration);
        let sum_mc: f64 = pi.iter().sum();
        let sum_num: f64 = num.iter().sum();
        assert!((sum_mc - 1.0).abs() < 1e-9);
        assert!((sum_num - 1.0).abs() < 0.01);
        for (a, b) in pi.iter().zip(&num) {
            assert!((a - b).abs() < 0.1, "mc={a} numeric={b}");
        }
    }

    #[test]
    fn nonzero_consistency_across_backends() {
        // A mixed set evaluated generically must agree with the disk
        // specialization on the same geometry.
        let mut rng = SmallRng::seed_from_u64(212);
        let disks: Vec<Uncertain> = (0..15)
            .map(|_| {
                Uncertain::uniform_disk(
                    Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)),
                    rng.random_range(0.5..2.0),
                )
            })
            .collect();
        let idx = PnnIndex::new(disks.clone());
        // Force the generic path by mixing in a Gaussian with zero influence
        // far away… instead, compare against the internal generic scan.
        let mut qrng = SmallRng::seed_from_u64(213);
        for _ in 0..100 {
            let q = Point::new(
                qrng.random_range(-25.0..25.0),
                qrng.random_range(-25.0..25.0),
            );
            assert_eq!(idx.nn_nonzero(q), idx.nn_nonzero_generic(q));
        }
    }

    #[test]
    fn most_probable_nn_is_plausible() {
        let idx = PnnIndex::new(discrete_points(214));
        let q = Point::new(0.0, 0.0);
        let (i, p) = idx.most_probable_nn(q).unwrap();
        let (exact, _) = idx.quantify_exact(q);
        let best = exact
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        // Within eps of the true max (the argmax may differ on near-ties).
        assert!(
            p >= best.1 - 2.0 * idx.config().epsilon,
            "{i}/{p} vs {best:?}"
        );
    }

    #[test]
    fn guaranteed_nn_consistent_with_nonzero() {
        let idx = PnnIndex::new(mixed_points(215));
        let mut qrng = SmallRng::seed_from_u64(216);
        for _ in 0..100 {
            let q = Point::new(
                qrng.random_range(-30.0..30.0),
                qrng.random_range(-30.0..30.0),
            );
            if let Some(g) = idx.guaranteed_nn(q) {
                assert_eq!(idx.nn_nonzero(q), vec![g], "q = {q:?}");
            }
        }
    }

    #[test]
    fn knn_membership_exact_and_mc() {
        let idx = PnnIndex::new(discrete_points(217));
        let q = Point::new(0.0, 0.0);
        let (pi, method) = idx.knn_membership(q, 3);
        assert_eq!(method, QuantifyMethod::ExactSweep);
        let sum: f64 = pi.iter().sum();
        assert!((sum - 3.0).abs() < 1e-9);
        // Continuous path uses MC.
        let cidx = PnnIndex::new(mixed_points(218));
        let (pi, method) = cidx.knn_membership(q, 2);
        assert!(matches!(method, QuantifyMethod::MonteCarlo { .. }));
        let sum: f64 = pi.iter().sum();
        assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_is_harmless() {
        let idx = PnnIndex::new(Vec::new());
        assert!(idx.is_empty());
        assert!(idx.nn_nonzero(Point::ORIGIN).is_empty());
        assert!(idx.quantify(Point::ORIGIN).0.is_empty());
        assert!(idx.expected_nn(Point::ORIGIN).is_none());
        let a = idx.quantify_adaptive(Point::ORIGIN, 0.1, 0.01);
        assert!(a.pi.is_empty() && a.rounds_used == 0);
    }

    #[test]
    fn capped_rounds_surface_achieved_epsilon() {
        // A cap far below the theorem-driven count: the reported method
        // must carry the honestly degraded ε, not the requested one.
        let points = mixed_points(219);
        let capped = PnnIndex::build(
            points.clone(),
            PnnConfig {
                epsilon: 0.01,
                max_mc_rounds: 200,
                ..PnnConfig::default()
            },
        );
        assert_eq!(capped.mc.rounds(), 200);
        let (_, method) = capped.quantify(Point::ORIGIN);
        let QuantifyMethod::MonteCarlo { achieved_epsilon } = method else {
            panic!("expected MonteCarlo, got {method:?}");
        };
        assert_eq!(achieved_epsilon, capped.mc_achieved_epsilon());
        assert!(
            achieved_epsilon > 0.01,
            "capped s must degrade eps: {achieved_epsilon}"
        );
        // Uncapped: the built count meets or beats the request.
        let uncapped = PnnIndex::build(
            points,
            PnnConfig {
                epsilon: 0.05,
                ..PnnConfig::default()
            },
        );
        assert!(uncapped.mc_achieved_epsilon() <= 0.05 + 1e-12);
    }

    #[test]
    fn adaptive_quantify_consistent_with_fixed() {
        let idx = PnnIndex::new(mixed_points(220));
        let mut qrng = SmallRng::seed_from_u64(221);
        for _ in 0..10 {
            let q = Point::new(
                qrng.random_range(-25.0..25.0),
                qrng.random_range(-25.0..25.0),
            );
            let (full, _) = idx.quantify(q);
            let a = idx.quantify_adaptive(q, 0.05, 0.01);
            assert!(a.rounds_used <= idx.mc.rounds());
            for (ad, fu) in a.pi.iter().zip(&full) {
                assert!(
                    (ad - fu).abs() <= a.half_width + idx.mc_achieved_epsilon(),
                    "adaptive={ad} full={fu} hw={}",
                    a.half_width
                );
            }
        }
    }
}
