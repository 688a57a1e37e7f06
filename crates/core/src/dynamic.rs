//! Dynamic probabilistic-NN index: the [`unn_dynamic`] engine behind the
//! crate's user-facing conventions (validation policies, query budgets,
//! batch determinism).
//!
//! [`DynamicPnnIndex`] maintains a live set of uncertain points under
//! [`insert`](DynamicPnnIndex::insert) / [`remove`](DynamicPnnIndex::remove)
//! with the Bentley–Saxe logarithmic method: geometrically-sized immutable
//! blocks, merge cascades on insert, tombstones plus threshold-triggered
//! compaction on remove — amortized O(polylog) rebuild work per update
//! instead of the static index's full O(s·n) rebuild.
//!
//! Queries run on a [`DynamicSnapshot`] — a cheap `Arc`-backed frozen view
//! that later mutations cannot perturb — and are **bit-identical for any
//! block decomposition of the same live set**: `NN≠0` composes the global
//! pruning threshold across blocks (Lemma 2.1), and Monte-Carlo rounds key
//! every point's sample stream by its stable [`PointId`], extending the
//! [`query_stream_seed`](crate::batch::query_stream_seed) determinism
//! contract from batch position to point identity.
//!
//! ```
//! use unn::dynamic::DynamicPnnIndex;
//! use unn::geom::Point;
//! use unn::Uncertain;
//!
//! let mut index = DynamicPnnIndex::new();
//! let a = index.insert(Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0));
//! let b = index.insert(Uncertain::uniform_disk(Point::new(5.0, 0.0), 1.0));
//! let snap = index.snapshot();
//! let q = Point::new(1.0, 0.0);
//! assert_eq!(snap.nn_nonzero(q), vec![a]);
//!
//! index.remove(a);
//! // The old snapshot is frozen; a fresh one sees the removal.
//! assert_eq!(snap.nn_nonzero(q), vec![a]);
//! assert_eq!(index.snapshot().nn_nonzero(q), vec![b]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use unn_distr::{DiscreteDistribution, Uncertain};
use unn_dynamic::{DynamicEngine, DynamicError, EngineConfig, EngineSnapshot};
use unn_geom::Point;
use unn_quantify::{
    adaptive_over_winners, quantification_exact, quantification_numeric, AdaptiveQuantify,
    MonteCarloIndex,
};

use crate::index::{PnnConfig, QuantifyMethod};
use crate::resilience::{QuantifyOutcome, QueryBudget, UnnError, ValidationPolicy};

pub use unn_dynamic::{CompactionPolicy, DynamicStats, PointId};

/// Configuration for [`DynamicPnnIndex`]: the static query parameters plus
/// the dynamic lifecycle knobs.
#[derive(Clone, Debug)]
pub struct DynamicPnnConfig {
    /// Seed, ε/δ targets, numeric resolution, adaptive schedule — shared
    /// with the static [`crate::PnnIndex`].
    pub base: PnnConfig,
    /// Monte-Carlo rounds instantiated per block (additionally capped by
    /// `base.max_mc_rounds`). Every block holds the same round count, so
    /// per-round winners compose across blocks.
    pub mc_rounds: usize,
    /// Compact everything into one block once tombstones exceed this
    /// fraction of stored slots. Must lie in `(0, 1)`.
    pub max_dead_fraction: f64,
    /// How inserts reshape the block set: classic Bentley–Saxe cascades
    /// ([`CompactionPolicy::Logarithmic`], the default), a hard cap on block
    /// count ([`CompactionPolicy::Tiered`], `max_blocks >= 1`), or a single
    /// always-merged block ([`CompactionPolicy::MergeToOne`]). Every policy
    /// yields bit-identical query answers — this knob trades update cost
    /// against read-path fan-out.
    pub policy: CompactionPolicy,
    /// Hot-block promotion: when `Some(r)`, a mutation arriving after at
    /// least `r` snapshot reads per update since the last promotion
    /// collapses the structure into one block (read-heavy phases buy the
    /// single-block read path without paying it on every insert). Must be
    /// finite and positive. `None` (the default) disables promotion.
    pub hot_promote_ratio: Option<f64>,
}

impl Default for DynamicPnnConfig {
    fn default() -> Self {
        DynamicPnnConfig {
            base: PnnConfig::default(),
            mc_rounds: 1024,
            max_dead_fraction: 0.25,
            policy: CompactionPolicy::Logarithmic,
            hot_promote_ratio: None,
        }
    }
}

impl DynamicPnnConfig {
    /// Checks every parameter against its documented range.
    pub fn validate(&self) -> Result<(), UnnError> {
        self.base.validate()?;
        if self.mc_rounds == 0 {
            return Err(UnnError::InvalidConfig {
                reason: "mc_rounds must be at least 1".into(),
            });
        }
        if !(self.max_dead_fraction > 0.0 && self.max_dead_fraction < 1.0) {
            return Err(UnnError::InvalidConfig {
                reason: format!(
                    "max_dead_fraction must be in (0, 1), got {}",
                    self.max_dead_fraction
                ),
            });
        }
        if let CompactionPolicy::Tiered { max_blocks } = self.policy {
            if max_blocks == 0 {
                return Err(UnnError::InvalidConfig {
                    reason: "Tiered policy needs max_blocks >= 1".into(),
                });
            }
        }
        if let Some(r) = self.hot_promote_ratio {
            if !(r.is_finite() && r > 0.0) {
                return Err(UnnError::InvalidConfig {
                    reason: format!("hot_promote_ratio must be finite and positive, got {r}"),
                });
            }
        }
        Ok(())
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            seed: self.base.seed,
            mc_rounds: self.mc_rounds.min(self.base.max_mc_rounds).max(1),
            max_dead_fraction: self.max_dead_fraction,
            policy: self.policy,
            hot_promote_ratio: self.hot_promote_ratio,
        }
    }
}

/// Dynamic probabilistic nearest-neighbor index (see the module docs).
///
/// Mutations take `&mut self`; queries go through cheap frozen
/// [`DynamicPnnIndex::snapshot`]s, which are `Send + Sync + Clone` and can
/// be fanned out across threads.
pub struct DynamicPnnIndex {
    engine: DynamicEngine,
    config: DynamicPnnConfig,
}

impl Default for DynamicPnnIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicPnnIndex {
    /// An empty index with the default configuration.
    pub fn new() -> Self {
        let config = DynamicPnnConfig::default();
        DynamicPnnIndex {
            engine: DynamicEngine::new(config.engine_config()),
            config,
        }
    }

    /// An empty index with a validated configuration.
    pub fn with_config(config: DynamicPnnConfig) -> Result<Self, UnnError> {
        config.validate()?;
        Ok(DynamicPnnIndex {
            engine: DynamicEngine::new(config.engine_config()),
            config,
        })
    }

    /// Builds from an initial point set (ids `0..points.len()` in order),
    /// validating the configuration first. The initial set lands as one
    /// block (a single build instead of an insert cascade), which makes
    /// bootstrap affordable even under [`CompactionPolicy::MergeToOne`];
    /// query answers are bit-identical either way.
    pub fn from_points(points: Vec<Uncertain>, config: DynamicPnnConfig) -> Result<Self, UnnError> {
        let mut index = Self::with_config(config)?;
        index.bulk_insert(points);
        Ok(index)
    }

    /// Inserts a batch of points as **one** block build, returning their
    /// fresh consecutive ids. Equivalent to inserting one-by-one (same ids,
    /// bit-identical query answers) at a fraction of the rebuild cost.
    pub fn bulk_insert(&mut self, points: Vec<Uncertain>) -> Vec<PointId> {
        self.engine.bulk_insert(points)
    }

    /// Inserts a point under a fresh id and returns it. Amortized
    /// O(polylog) block-rebuild work per call.
    pub fn insert(&mut self, point: Uncertain) -> PointId {
        self.engine.insert(point)
    }

    /// Inserts under a caller-chosen id. Ids of removed points may be
    /// re-used; a currently-live collision is rejected.
    pub fn insert_with_id(&mut self, id: PointId, point: Uncertain) -> Result<(), UnnError> {
        self.engine.insert_with_id(id, point).map_err(|e| match e {
            DynamicError::IdInUse { id } => UnnError::DegenerateGeometry {
                reason: format!("point id {id} is already live"),
            },
        })
    }

    /// Validating insert, mirroring [`crate::PnnIndex::try_build`]'s
    /// per-point boundary: `Strict` rejects invalid distributions, `Repair`
    /// fixes what it can; either failure surfaces as
    /// [`UnnError::InvalidDistribution`] (with no index — the point never
    /// joined the set).
    ///
    /// Validation cannot catch a distribution whose *sampler* panics (a
    /// `Chaos` wrapper delegates validation to its healthy inner model), so
    /// the block build runs under `catch_unwind` and a sampling panic comes
    /// back as [`UnnError::QueryPanicked`]. The engine orders every
    /// mutation after the panic-prone build step, so a caught panic leaves
    /// the index exactly as it was — live set, epoch, and counters
    /// untouched, later churn and queries unaffected.
    pub fn try_insert(
        &mut self,
        point: Uncertain,
        policy: ValidationPolicy,
    ) -> Result<PointId, UnnError> {
        let ok = match policy {
            ValidationPolicy::Strict => point.validate().map(|()| point),
            ValidationPolicy::Repair => point.repair(),
        };
        match ok {
            Ok(p) => {
                let engine = &mut self.engine;
                // AssertUnwindSafe: on Err the engine is still consistent by
                // the build-before-mutate ordering documented above.
                catch_unwind(AssertUnwindSafe(|| engine.insert(p))).map_err(|payload| {
                    UnnError::QueryPanicked {
                        message: unn_quantify::panic_message(payload),
                    }
                })
            }
            Err(e) => Err(UnnError::InvalidDistribution {
                index: None,
                reason: e.to_string(),
            }),
        }
    }

    /// Tombstones `id`; returns `false` if no live point carries it.
    pub fn remove(&mut self, id: PointId) -> bool {
        self.engine.remove(id)
    }

    /// True if `id` is currently live.
    pub fn contains(&self, id: PointId) -> bool {
        self.engine.contains(id)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when no point is live.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Monotone version counter; bumps on every successful mutation.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Block/lifecycle counters (merges, compactions, tombstones, …).
    pub fn stats(&self) -> DynamicStats {
        self.engine.stats()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DynamicPnnConfig {
        &self.config
    }

    /// Monte-Carlo rounds instantiated per block.
    pub fn mc_rounds(&self) -> usize {
        self.engine.rounds()
    }

    /// A consistent frozen view of the current live set. O(n) to take,
    /// shares all block storage; later mutations never perturb it.
    pub fn snapshot(&self) -> DynamicSnapshot {
        DynamicSnapshot {
            inner: Arc::new(SnapInner {
                core: self.engine.snapshot(),
                merged: OnceLock::new(),
            }),
            epsilon: self.config.base.epsilon,
            delta: self.config.base.delta,
            numeric_steps: self.config.base.numeric_steps,
            adaptive_min_rounds: self.config.base.adaptive_min_rounds,
        }
    }

    /// One-shot [`DynamicSnapshot::nn_nonzero`] on a fresh snapshot.
    pub fn nn_nonzero(&self, q: Point) -> Vec<PointId> {
        self.snapshot().nn_nonzero(q)
    }

    /// One-shot [`DynamicSnapshot::quantify`] on a fresh snapshot.
    pub fn quantify(&self, q: Point) -> (Vec<f64>, QuantifyMethod) {
        self.snapshot().quantify(q)
    }

    /// One-shot [`DynamicSnapshot::quantify_exact`] on a fresh snapshot.
    pub fn quantify_exact(&self, q: Point) -> (Vec<f64>, QuantifyMethod) {
        self.snapshot().quantify_exact(q)
    }

    /// One-shot [`DynamicSnapshot::quantify_within`] on a fresh snapshot.
    pub fn quantify_within(
        &self,
        q: Point,
        budget: QueryBudget,
    ) -> Result<QuantifyOutcome, UnnError> {
        self.snapshot().quantify_within(q, budget)
    }
}

/// The lazily-materialized merged live view (exact quantification needs the
/// points densely, in live-id order).
struct MergedView {
    points: Vec<Uncertain>,
    discrete: Option<Vec<DiscreteDistribution>>,
}

struct SnapInner {
    core: EngineSnapshot,
    merged: OnceLock<MergedView>,
}

/// Frozen view of a [`DynamicPnnIndex`] at one epoch.
///
/// All probability vectors are dense and indexed like
/// [`DynamicSnapshot::live_ids`] (sorted ascending), so slot `r` of a
/// result always refers to `live_ids()[r]` — a stable mapping independent
/// of block layout. Cloning is O(1) (shared `Arc`).
#[derive(Clone)]
pub struct DynamicSnapshot {
    inner: Arc<SnapInner>,
    epsilon: f64,
    delta: f64,
    numeric_steps: usize,
    adaptive_min_rounds: usize,
}

// Snapshots fan out across rayon workers under `BatchOptions::map`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DynamicPnnIndex>();
    assert_send_sync::<DynamicSnapshot>();
};

impl DynamicSnapshot {
    /// Live ids, sorted ascending — the index layout of every dense result.
    pub fn live_ids(&self) -> &[PointId] {
        self.inner.core.live_ids()
    }

    /// Number of live points in the view.
    pub fn len(&self) -> usize {
        self.inner.core.live_len()
    }

    /// True when the view holds no live points.
    pub fn is_empty(&self) -> bool {
        self.inner.core.live_len() == 0
    }

    /// Engine epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.inner.core.epoch()
    }

    /// Monte-Carlo rounds backing [`DynamicSnapshot::quantify`].
    pub fn mc_rounds(&self) -> usize {
        self.inner.core.rounds()
    }

    /// The live points in live-id order (cloned out of block storage).
    pub fn live_points(&self) -> Vec<(PointId, Uncertain)> {
        self.inner.core.live_points()
    }

    /// The accuracy the per-block round count actually guarantees: Eq. 6
    /// inverted at `s` for the live set — same honesty contract as
    /// [`crate::PnnIndex::mc_achieved_epsilon`].
    pub fn achieved_epsilon(&self) -> f64 {
        let core = &self.inner.core;
        MonteCarloIndex::epsilon_for(
            core.rounds(),
            self.delta,
            core.live_len().max(1),
            core.k_max(),
        )
    }

    fn merged(&self) -> &MergedView {
        self.inner.merged.get_or_init(|| {
            let points: Vec<Uncertain> = self
                .inner
                .core
                .live_points()
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            let discrete = points.iter().map(|p| p.as_discrete().cloned()).collect();
            MergedView { points, discrete }
        })
    }

    /// `NN≠0(q)` over the live set (Lemma 2.1 composed across blocks),
    /// sorted ascending. Bit-identical to the static index on the same
    /// live set, for every block layout.
    pub fn nn_nonzero(&self, q: Point) -> Vec<PointId> {
        self.inner.core.nn_nonzero(q)
    }

    /// Number of blocks backing this view (compaction-policy diagnostics).
    pub fn blocks(&self) -> usize {
        self.inner.core.blocks()
    }

    /// ε-approximate quantification probabilities over the live set, from
    /// the per-block Monte-Carlo rounds. Deterministic under churn: the
    /// estimate is a pure function of `(live set, seed, q)`.
    pub fn quantify(&self, q: Point) -> (Vec<f64>, QuantifyMethod) {
        (
            self.inner.core.quantify(q),
            QuantifyMethod::MonteCarlo {
                achieved_epsilon: self.achieved_epsilon(),
            },
        )
    }

    /// Exact (all-discrete live set, Eq. 2 sweep) or high-resolution
    /// numeric (otherwise) quantification over a materialized merged view.
    pub fn quantify_exact(&self, q: Point) -> (Vec<f64>, QuantifyMethod) {
        if self.is_empty() {
            return (Vec::new(), QuantifyMethod::ExactSweep);
        }
        let merged = self.merged();
        if let Some(objs) = &merged.discrete {
            (quantification_exact(objs, q), QuantifyMethod::ExactSweep)
        } else {
            (
                quantification_numeric(&merged.points, q, self.numeric_steps),
                QuantifyMethod::NumericIntegration,
            )
        }
    }

    /// Adaptive early-stopping Monte-Carlo quantification: per-round
    /// winners compose across blocks, then run through the same
    /// doubling-checkpoint stopping rule as
    /// [`crate::PnnIndex::quantify_adaptive`].
    pub fn quantify_adaptive(&self, q: Point, eps: f64, delta: f64) -> AdaptiveQuantify {
        let winners = self.inner.core.winner_ranks(q);
        adaptive_over_winners(
            &winners,
            self.len(),
            eps,
            delta,
            self.adaptive_min_rounds,
            self.inner.core.rounds(),
        )
    }

    /// The work an exact answer costs at this view, in [`QueryBudget`]
    /// units (location touches) — same accounting as
    /// [`crate::PnnIndex::exact_work`].
    pub fn exact_work(&self) -> u64 {
        let merged = self.merged();
        if let Some(objs) = &merged.discrete {
            objs.iter().map(|o| o.len() as u64).sum()
        } else {
            self.numeric_steps as u64 * merged.points.len() as u64
        }
    }

    /// Budgeted quantification with graceful degradation, mirroring
    /// [`crate::PnnIndex::quantify_within`]: exact if it fits, else capped
    /// adaptive Monte-Carlo as [`QuantifyOutcome::Degraded`] carrying the
    /// honest certified accuracy, else [`UnnError::BudgetExhausted`] when
    /// not even one round fits.
    pub fn quantify_within(
        &self,
        q: Point,
        budget: QueryBudget,
    ) -> Result<QuantifyOutcome, UnnError> {
        let cap = budget.effective();
        if self.is_empty() {
            return Ok(QuantifyOutcome::Exact {
                pi: Vec::new(),
                method: QuantifyMethod::ExactSweep,
                work: 0,
            });
        }
        let exact_work = self.exact_work();
        if exact_work <= cap {
            let (pi, method) = self.quantify_exact(q);
            return Ok(QuantifyOutcome::Exact {
                pi,
                method,
                work: exact_work,
            });
        }
        if cap == 0 {
            return Err(UnnError::BudgetExhausted {
                budget: cap,
                required: 1,
            });
        }
        let max_rounds = usize::try_from(cap).unwrap_or(usize::MAX);
        let winners = self.inner.core.winner_ranks(q);
        let a = adaptive_over_winners(
            &winners,
            self.len(),
            self.epsilon,
            self.delta,
            self.adaptive_min_rounds,
            max_rounds,
        );
        Ok(QuantifyOutcome::Degraded {
            work: a.rounds_used as u64,
            achieved_epsilon: a.half_width,
            rounds_used: a.rounds_used,
            pi: a.pi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn small_config() -> DynamicPnnConfig {
        DynamicPnnConfig {
            mc_rounds: 256,
            ..DynamicPnnConfig::default()
        }
    }

    fn random_disks(seed: u64, n: usize) -> Vec<Uncertain> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Uncertain::uniform_disk(
                    Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0)),
                    rng.random_range(0.3..2.0),
                )
            })
            .collect()
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let mut cfg = small_config();
        cfg.mc_rounds = 0;
        assert!(matches!(
            DynamicPnnIndex::with_config(cfg).err(),
            Some(UnnError::InvalidConfig { .. })
        ));
        let mut cfg = small_config();
        cfg.max_dead_fraction = 1.5;
        assert!(matches!(
            DynamicPnnIndex::with_config(cfg).err(),
            Some(UnnError::InvalidConfig { .. })
        ));
        let mut cfg = small_config();
        cfg.base.epsilon = -1.0;
        assert!(DynamicPnnIndex::with_config(cfg).is_err());
    }

    #[test]
    fn try_insert_policies_agree_on_clean_points() {
        let mut strict =
            DynamicPnnIndex::with_config(small_config()).unwrap_or_else(|e| panic!("config: {e}"));
        let mut repair =
            DynamicPnnIndex::with_config(small_config()).unwrap_or_else(|e| panic!("config: {e}"));
        for p in random_disks(30, 6) {
            let a = strict
                .try_insert(p.clone(), ValidationPolicy::Strict)
                .unwrap_or_else(|e| panic!("strict: {e}"));
            let b = repair
                .try_insert(p, ValidationPolicy::Repair)
                .unwrap_or_else(|e| panic!("repair: {e}"));
            assert_eq!(a, b, "both policies must assign the same ids");
        }
        let q = Point::new(0.5, 0.5);
        assert_eq!(strict.nn_nonzero(q), repair.nn_nonzero(q));
        assert_eq!(strict.quantify(q).0, repair.quantify(q).0);
    }

    #[test]
    fn quantify_sums_to_one_and_matches_live_layout() {
        let mut index =
            DynamicPnnIndex::with_config(small_config()).unwrap_or_else(|e| panic!("config: {e}"));
        for p in random_disks(31, 9) {
            index.insert(p);
        }
        index.remove(4);
        let snap = index.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.live_ids(), &[0, 1, 2, 3, 5, 6, 7, 8]);
        let q = Point::new(0.5, -0.5);
        let (pi, method) = snap.quantify(q);
        assert_eq!(pi.len(), 8);
        assert!(matches!(method, QuantifyMethod::MonteCarlo { .. }));
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn quantify_within_degrades_and_errors_like_static() {
        let mut index =
            DynamicPnnIndex::with_config(small_config()).unwrap_or_else(|e| panic!("config: {e}"));
        for p in random_disks(32, 8) {
            index.insert(p);
        }
        let snap = index.snapshot();
        let q = Point::new(0.0, 0.0);
        // Continuous set: exact costs numeric_steps * n, far over 64.
        let out = snap
            .quantify_within(q, QueryBudget::with_work(64))
            .unwrap_or_else(|e| panic!("budget 64: {e}"));
        assert!(out.is_degraded());
        let QuantifyOutcome::Degraded { rounds_used, .. } = &out else {
            unreachable!()
        };
        assert!(*rounds_used <= 64);
        assert!(matches!(
            snap.quantify_within(q, QueryBudget::with_work(0)),
            Err(UnnError::BudgetExhausted { .. })
        ));
        let exact = snap
            .quantify_within(q, QueryBudget::unlimited())
            .unwrap_or_else(|e| panic!("unlimited: {e}"));
        assert!(!exact.is_degraded());
    }

    #[test]
    fn empty_snapshot_answers_are_empty() {
        let index = DynamicPnnIndex::new();
        let snap = index.snapshot();
        let q = Point::new(1.0, 1.0);
        assert!(snap.nn_nonzero(q).is_empty());
        assert!(snap.quantify(q).0.is_empty());
        assert!(snap.quantify_exact(q).0.is_empty());
        let a = snap.quantify_adaptive(q, 0.1, 0.01);
        assert!(a.pi.is_empty() && a.rounds_used == 0);
        let out = snap
            .quantify_within(q, QueryBudget::with_work(0))
            .unwrap_or_else(|e| panic!("empty must fit any budget: {e}"));
        assert!(!out.is_degraded());
    }
}
