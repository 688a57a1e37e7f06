//! Sharded ownership of the live set and merged frozen views.
//!
//! A [`ShardSet`] routes every point to one of N [`DynamicEngine`]s by a
//! deterministic policy (id hash or spatial cell) and allocates globally
//! unique ids, so the union of shard live sets is exactly the live set an
//! unsharded engine with the same history would hold. Queries run against a
//! [`ShardSetSnapshot`] whose merge rules are bit-identical to one
//! unsharded engine:
//!
//! * **NN≠0** — per-shard stage-1 [`DeltaCompose`] folds merge into the
//!   flat fold over the union (the fold is a commutative two-smallest-Δ
//!   reduction), then each shard reports stage 2 under the merged caps.
//! * **Quantification** — per-round `(distance, id)` winners are exact
//!   per-shard minima over id-keyed sample streams, so the elementwise
//!   lexicographic minimum across shards is the global round winner.
//! * **Exact sweep** — shards materialize into one id-sorted merged view,
//!   identical to the unsharded materialization.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use unn_distr::{DiscreteDistribution, Uncertain, UncertainPoint};
use unn_dynamic::{
    CompactionPolicy, DynamicEngine, DynamicStats, EngineConfig, EngineSnapshot, PointId,
};
use unn_geom::Point;
use unn_nonzero::DeltaCompose;
use unn_quantify::{
    adaptive_over_winners, panic_message, quantification_exact, quantification_numeric,
    AdaptiveQuantify, MonteCarloIndex, ADAPTIVE_MIN_ROUNDS,
};

use crate::ServeError;

/// How points map to shards. Both policies are pure functions of the point
/// (and the id allocator), so a replayed insert stream lands identically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShardPolicy {
    /// Mix the point id; uniform balance regardless of geometry.
    Hash,
    /// Mix the grid cell (side length `cell`) containing the center of the
    /// point's support box; co-located points share shards, which keeps
    /// most queries' stage-2 candidates on few shards.
    Spatial {
        /// Grid-cell side length (finite, positive).
        cell: f64,
    },
}

/// Configuration for a [`ShardSet`]: the per-shard engine knobs plus the
/// query-accuracy targets its snapshots serve with.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Base seed; shared by every shard so id-keyed sample streams agree
    /// with an unsharded engine.
    pub seed: u64,
    /// Monte-Carlo rounds per block (clamped to ≥ 1; identical across
    /// shards so per-round winners compose).
    pub mc_rounds: usize,
    /// Per-shard tombstone compaction threshold, in `(0, 1)`.
    pub max_dead_fraction: f64,
    /// Per-shard block-count policy.
    pub policy: CompactionPolicy,
    /// Per-shard hot-block promotion ratio (`None` disables).
    pub hot_promote_ratio: Option<f64>,
    /// Target additive error for adaptive quantification, in `(0, 1)`.
    pub epsilon: f64,
    /// Failure probability for Monte-Carlo guarantees, in `(0, 1)`.
    pub delta: f64,
    /// Grid resolution for exact-by-integration on continuous models (≥ 2).
    pub numeric_steps: usize,
    /// First checkpoint of the adaptive stopping rule (≥ 1).
    pub adaptive_min_rounds: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            mc_rounds: 1024,
            max_dead_fraction: 0.25,
            policy: CompactionPolicy::Logarithmic,
            hot_promote_ratio: None,
            epsilon: 0.05,
            delta: 0.01,
            numeric_steps: 2_000,
            adaptive_min_rounds: ADAPTIVE_MIN_ROUNDS,
        }
    }
}

impl ServeConfig {
    /// Checks every parameter against its documented range.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |reason: String| Err(ServeError::InvalidConfig { reason });
        if self.mc_rounds == 0 {
            return bad("mc_rounds must be >= 1".into());
        }
        if !(self.max_dead_fraction > 0.0 && self.max_dead_fraction < 1.0) {
            return bad(format!(
                "max_dead_fraction must be in (0, 1), got {}",
                self.max_dead_fraction
            ));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return bad(format!("epsilon must be in (0, 1), got {}", self.epsilon));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return bad(format!("delta must be in (0, 1), got {}", self.delta));
        }
        if self.numeric_steps < 2 {
            return bad(format!(
                "numeric_steps must be >= 2, got {}",
                self.numeric_steps
            ));
        }
        if self.adaptive_min_rounds == 0 {
            return bad("adaptive_min_rounds must be >= 1".into());
        }
        if let Some(r) = self.hot_promote_ratio {
            if !(r.is_finite() && r > 0.0) {
                return bad(format!(
                    "hot_promote_ratio must be finite positive, got {r}"
                ));
            }
        }
        if let CompactionPolicy::Tiered { max_blocks } = self.policy {
            if max_blocks == 0 {
                return bad("tiered max_blocks must be >= 1".into());
            }
        }
        Ok(())
    }

    /// The per-shard engine configuration this serve config induces.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            seed: self.seed,
            mc_rounds: self.mc_rounds.max(1),
            max_dead_fraction: self.max_dead_fraction,
            policy: self.policy,
            hot_promote_ratio: self.hot_promote_ratio,
        }
    }
}

/// Validation behavior at the [`ShardSet::try_insert`] boundary (mirrors
/// the core crate's `ValidationPolicy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPolicy {
    /// Reject any point that fails validation.
    Strict,
    /// Repair what is repairable; reject the rest.
    Repair,
}

/// splitmix64 finalizer — the same mixing quality as the engine's stream
/// seeding, used only for shard routing.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// N dynamic engines behind one id space and one routing policy.
#[derive(Clone, Debug)]
pub struct ShardSet {
    engines: Vec<DynamicEngine>,
    policy: ShardPolicy,
    config: ServeConfig,
    next_id: PointId,
    homes: HashMap<PointId, usize>,
}

impl ShardSet {
    /// `n_shards` empty engines (all sharing `config.seed`, so cross-shard
    /// merges stay bit-identical to an unsharded engine).
    pub fn new(
        n_shards: usize,
        policy: ShardPolicy,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if n_shards == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "need at least one shard".into(),
            });
        }
        if let ShardPolicy::Spatial { cell } = policy {
            if !(cell.is_finite() && cell > 0.0) {
                return Err(ServeError::InvalidConfig {
                    reason: format!("spatial cell must be finite positive, got {cell}"),
                });
            }
        }
        config.validate()?;
        Ok(Self {
            engines: (0..n_shards)
                .map(|_| DynamicEngine::new(config.engine_config()))
                .collect(),
            policy,
            config,
            next_id: 0,
            homes: HashMap::new(),
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.engines.len()
    }

    /// Total live points across shards.
    pub fn len(&self) -> usize {
        self.engines.iter().map(DynamicEngine::len).sum()
    }

    /// True when no shard holds a live point.
    pub fn is_empty(&self) -> bool {
        self.engines.iter().all(DynamicEngine::is_empty)
    }

    /// The configuration the set was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Which shard `point` would land on under the next fresh id.
    fn route(&self, id: PointId, point: &Uncertain) -> usize {
        let n = self.engines.len() as u64;
        let h = match self.policy {
            ShardPolicy::Hash => mix(id),
            ShardPolicy::Spatial { cell } => {
                let c = point.support_bbox().center();
                let gx = (c.x / cell).floor() as i64 as u64;
                let gy = (c.y / cell).floor() as i64 as u64;
                mix(gx ^ gy.rotate_left(32))
            }
        };
        (h % n) as usize
    }

    /// Inserts a point under a fresh globally-unique id and returns it.
    /// A sampling panic (hostile distribution) propagates, but the shard
    /// engine's build-before-mutate ordering leaves the set unchanged —
    /// prefer [`ShardSet::try_insert`] at trust boundaries.
    pub fn insert(&mut self, point: Uncertain) -> PointId {
        let id = self.next_id;
        let shard = self.route(id, &point);
        let inserted = self.engines[shard].insert_with_id(id, point);
        debug_assert!(inserted.is_ok(), "fresh ids cannot collide");
        self.next_id += 1;
        self.homes.insert(id, shard);
        id
    }

    /// Validating, panic-isolating insert: the point is validated (or
    /// repaired) first, and the block build runs under `catch_unwind` so a
    /// hostile sampler surfaces as [`ServeError::InsertPanicked`] with the
    /// shard set untouched.
    pub fn try_insert(
        &mut self,
        point: Uncertain,
        policy: InsertPolicy,
    ) -> Result<PointId, ServeError> {
        let point = match policy {
            InsertPolicy::Strict => point.validate().map(|()| point),
            InsertPolicy::Repair => point.repair(),
        }
        .map_err(|e| ServeError::InvalidPoint {
            reason: e.to_string(),
        })?;
        let id = self.next_id;
        let shard = self.route(id, &point);
        let engine = &mut self.engines[shard];
        // AssertUnwindSafe: the engine orders every mutation after the
        // panic-prone block build, so a caught panic leaves it consistent.
        match catch_unwind(AssertUnwindSafe(|| engine.insert_with_id(id, point))) {
            Ok(res) => {
                debug_assert!(res.is_ok(), "fresh ids cannot collide");
                self.next_id += 1;
                self.homes.insert(id, shard);
                Ok(id)
            }
            Err(payload) => Err(ServeError::InsertPanicked {
                message: panic_message(payload),
            }),
        }
    }

    /// Tombstones `id` on its home shard; `false` if it is not live.
    pub fn remove(&mut self, id: PointId) -> bool {
        match self.homes.get(&id).copied() {
            Some(shard) if self.engines[shard].remove(id) => {
                self.homes.remove(&id);
                true
            }
            _ => false,
        }
    }

    /// True if `id` is currently live.
    pub fn contains(&self, id: PointId) -> bool {
        self.homes.contains_key(&id)
    }

    /// Per-shard lifecycle counters.
    pub fn shard_stats(&self) -> Vec<DynamicStats> {
        self.engines.iter().map(DynamicEngine::stats).collect()
    }

    /// A consistent frozen view across all shards.
    pub fn snapshot(&self) -> ShardSetSnapshot {
        let shards: Vec<EngineSnapshot> =
            self.engines.iter().map(DynamicEngine::snapshot).collect();
        let mut live_ids = Vec::with_capacity(self.len());
        let mut k_max = 1usize;
        for s in &shards {
            live_ids.extend_from_slice(s.live_ids());
            k_max = k_max.max(s.k_max());
        }
        live_ids.sort_unstable();
        ShardSetSnapshot {
            inner: Arc::new(SnapInner {
                shards,
                live_ids,
                k_max,
                s: self.config.mc_rounds.max(1),
                config: self.config,
                exact: OnceLock::new(),
            }),
        }
    }
}

struct SnapInner {
    shards: Vec<EngineSnapshot>,
    live_ids: Vec<PointId>,
    k_max: usize,
    s: usize,
    config: ServeConfig,
    exact: OnceLock<Arc<ExactView>>,
}

/// Frozen cross-shard view at one (vector of) epoch(s). Cloning is O(1).
#[derive(Clone)]
pub struct ShardSetSnapshot {
    inner: Arc<SnapInner>,
}

impl ShardSetSnapshot {
    /// Per-shard frozen views, in shard order.
    pub fn shards(&self) -> &[EngineSnapshot] {
        &self.inner.shards
    }

    /// Live ids across all shards, sorted ascending — the dense layout of
    /// every merged probability vector.
    pub fn live_ids(&self) -> &[PointId] {
        &self.inner.live_ids
    }

    /// Total live points.
    pub fn len(&self) -> usize {
        self.inner.live_ids.len()
    }

    /// True when the view holds no live points.
    pub fn is_empty(&self) -> bool {
        self.inner.live_ids.is_empty()
    }

    /// Monte-Carlo rounds per block (shared by every shard).
    pub fn mc_rounds(&self) -> usize {
        self.inner.s
    }

    /// The serve config the owning set was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// The accuracy the per-block round count certifies for the merged
    /// live set (Eq. 6 inverted at `s`).
    pub fn achieved_epsilon(&self) -> f64 {
        MonteCarloIndex::epsilon_for(
            self.inner.s,
            self.inner.config.delta,
            self.len().max(1),
            self.inner.k_max,
        )
    }

    /// `NN≠0(q)` over the union, sorted ascending — per-shard Lemma 2.1
    /// folds merged into the flat fold, then per-shard stage-2 reports
    /// under the merged caps. Bit-identical to one unsharded engine on the
    /// same live set.
    pub fn nn_nonzero(&self, q: Point) -> Vec<PointId> {
        let mut merged = DeltaCompose::new();
        let folds: Vec<DeltaCompose> = self.inner.shards.iter().map(|s| s.delta_fold(q)).collect();
        for f in &folds {
            merged.merge(f);
        }
        let mut out = Vec::new();
        for s in &self.inner.shards {
            s.report_nonzero_under(q, &merged, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// Per-round Monte-Carlo winners over the union: the elementwise
    /// `(distance, id)` lexicographic minimum of per-shard winners, which
    /// equals the unsharded winner vector because sample streams are keyed
    /// by stable point id under the shared seed.
    pub fn round_winners(&self, q: Point) -> Vec<(f64, PointId)> {
        let mut acc: Vec<(f64, PointId)> = Vec::new();
        for s in &self.inner.shards {
            if s.live_len() == 0 {
                continue;
            }
            merge_winners(&mut acc, &s.round_winners(q));
        }
        acc
    }

    /// Full-round Monte-Carlo estimate of `π_i(q)`, dense over
    /// [`ShardSetSnapshot::live_ids`].
    pub fn quantify(&self, q: Point) -> Vec<f64> {
        if self.is_empty() {
            return Vec::new();
        }
        let winners = self.round_winners(q);
        let ranks = ranks_in(&self.inner.live_ids, &winners);
        pi_from_ranks(&ranks, self.len(), self.inner.s)
    }

    /// Adaptive early-stopping quantification at the configured ε/δ.
    pub fn quantify_adaptive(&self, q: Point) -> AdaptiveQuantify {
        let winners = self.round_winners(q);
        let ranks = ranks_in(&self.inner.live_ids, &winners);
        adaptive_over_winners(
            &ranks,
            self.len(),
            self.inner.config.epsilon,
            self.inner.config.delta,
            self.inner.config.adaptive_min_rounds,
            self.inner.s,
        )
    }

    /// The merged exact view (lazily materialized once, shared).
    pub fn exact_view(&self) -> Arc<ExactView> {
        Arc::clone(self.inner.exact.get_or_init(|| {
            let mut entries: Vec<(PointId, Uncertain)> = Vec::with_capacity(self.len());
            for s in &self.inner.shards {
                entries.extend(s.live_points());
            }
            entries.sort_unstable_by_key(|(id, _)| *id);
            let ids: Vec<PointId> = entries.iter().map(|(id, _)| *id).collect();
            let points: Vec<Uncertain> = entries.into_iter().map(|(_, p)| p).collect();
            let discrete = points.iter().map(|p| p.as_discrete().cloned()).collect();
            Arc::new(ExactView {
                ids,
                points,
                discrete,
                numeric_steps: self.inner.config.numeric_steps,
            })
        }))
    }

    /// Exact (all-discrete) or high-resolution numeric quantification over
    /// the merged live set.
    pub fn quantify_exact(&self, q: Point) -> Vec<f64> {
        if self.is_empty() {
            return Vec::new();
        }
        self.exact_view().quantify(q)
    }

    /// The work an exact answer costs, in location touches.
    pub fn exact_work(&self) -> u64 {
        self.exact_view().work()
    }
}

/// The merged, id-sorted live set materialized for exact quantification —
/// what the [`Dispatcher`](crate::Dispatcher)'s exact tier sweeps.
pub struct ExactView {
    ids: Vec<PointId>,
    points: Vec<Uncertain>,
    discrete: Option<Vec<DiscreteDistribution>>,
    numeric_steps: usize,
}

impl ExactView {
    /// Live ids, sorted ascending (the dense layout of
    /// [`ExactView::quantify`]).
    pub fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// Exact-sweep work in location touches (same accounting as the core
    /// crate's `exact_work`).
    pub fn work(&self) -> u64 {
        if let Some(objs) = &self.discrete {
            objs.iter().map(|o| o.len() as u64).sum()
        } else {
            self.numeric_steps as u64 * self.points.len() as u64
        }
    }

    /// The exact (Eq. 2 sweep) or numeric-integration probability vector.
    pub fn quantify(&self, q: Point) -> Vec<f64> {
        if self.points.is_empty() {
            return Vec::new();
        }
        if let Some(objs) = &self.discrete {
            quantification_exact(objs, q)
        } else {
            quantification_numeric(&self.points, q, self.numeric_steps)
        }
    }
}

/// Folds shard winner vector `w` into `acc` by elementwise `(distance, id)`
/// lexicographic minimum. An empty `acc` adopts `w`.
pub(crate) fn merge_winners(acc: &mut Vec<(f64, PointId)>, w: &[(f64, PointId)]) {
    if acc.is_empty() {
        acc.extend_from_slice(w);
        return;
    }
    debug_assert_eq!(acc.len(), w.len(), "shards must share the round count");
    for (e, &(d, id)) in acc.iter_mut().zip(w) {
        if d < e.0 || (d == e.0 && id < e.1) {
            *e = (d, id);
        }
    }
}

/// Maps winner ids to ranks in the sorted `ids` layout.
pub(crate) fn ranks_in(ids: &[PointId], winners: &[(f64, PointId)]) -> Vec<u32> {
    winners
        .iter()
        .map(|(_, id)| {
            let rank = ids.binary_search(id);
            debug_assert!(rank.is_ok(), "winner id {id} not in covered live set");
            rank.unwrap_or(0) as u32
        })
        .collect()
}

/// Dense probability vector from winner ranks over `n` points and `s`
/// rounds.
pub(crate) fn pi_from_ranks(ranks: &[u32], n: usize, s: usize) -> Vec<f64> {
    let mut counts = vec![0u32; n];
    for r in ranks {
        counts[*r as usize] += 1;
    }
    let inv = 1.0 / (s as f64);
    counts.into_iter().map(|c| f64::from(c) * inv).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(x: f64, y: f64, r: f64) -> Uncertain {
        Uncertain::uniform_disk(Point::new(x, y), r)
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            mc_rounds: 64,
            ..ServeConfig::default()
        }
    }

    /// An unsharded engine fed the same (id, point) stream — the
    /// differential oracle every merged answer must match bit-for-bit.
    fn oracle_engine(points: &[Uncertain], config: &ServeConfig) -> DynamicEngine {
        let mut e = DynamicEngine::new(config.engine_config());
        for (i, p) in points.iter().enumerate() {
            e.insert_with_id(i as PointId, p.clone())
                .unwrap_or_else(|err| panic!("oracle insert {i}: {err}"));
        }
        e
    }

    fn corpus(n: usize) -> Vec<Uncertain> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % 7) as f64 * 2.5, (i / 7) as f64 * 2.5);
                disk(x, y, 0.3 + 0.05 * (i % 5) as f64)
            })
            .collect()
    }

    #[test]
    fn sharded_answers_match_unsharded_oracle() {
        let cfg = small_config();
        let points = corpus(23);
        for policy in [ShardPolicy::Hash, ShardPolicy::Spatial { cell: 4.0 }] {
            let mut set = ShardSet::new(3, policy, cfg).unwrap_or_else(|e| panic!("{e}"));
            for p in &points {
                set.insert(p.clone());
            }
            let oracle = oracle_engine(&points, &cfg).snapshot();
            let snap = set.snapshot();
            assert_eq!(snap.live_ids(), oracle.live_ids());
            for q in [
                Point::new(0.0, 0.0),
                Point::new(5.1, 2.2),
                Point::new(-3.0, 7.5),
                Point::new(9.9, 0.1),
            ] {
                assert_eq!(snap.nn_nonzero(q), oracle.nn_nonzero(q), "{policy:?} {q:?}");
                assert_eq!(
                    snap.round_winners(q),
                    oracle.round_winners(q),
                    "{policy:?} {q:?}"
                );
                assert_eq!(snap.quantify(q), oracle.quantify(q), "{policy:?} {q:?}");
            }
        }
    }

    #[test]
    fn churn_keeps_oracle_equality() {
        let cfg = small_config();
        let points = corpus(17);
        let mut set = ShardSet::new(4, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
        let mut oracle = DynamicEngine::new(cfg.engine_config());
        let mut ids = Vec::new();
        for p in &points {
            let id = set.insert(p.clone());
            oracle
                .insert_with_id(id, p.clone())
                .unwrap_or_else(|e| panic!("{e}"));
            ids.push(id);
        }
        for &id in &[ids[2], ids[9], ids[14]] {
            assert!(set.remove(id));
            assert!(oracle.remove(id));
            assert!(!set.contains(id));
        }
        assert!(!set.remove(ids[2]), "double remove must fail");
        let (snap, osnap) = (set.snapshot(), oracle.snapshot());
        assert_eq!(snap.live_ids(), osnap.live_ids());
        assert_eq!(snap.len(), points.len() - 3);
        let q = Point::new(4.0, 3.0);
        assert_eq!(snap.nn_nonzero(q), osnap.nn_nonzero(q));
        assert_eq!(snap.quantify(q), osnap.quantify(q));
    }

    #[test]
    fn exact_view_matches_merged_live_set() {
        let cfg = small_config();
        let points: Vec<Uncertain> = (0..12)
            .map(|i| Uncertain::certain(Point::new(i as f64, (i % 3) as f64)))
            .collect();
        let mut set = ShardSet::new(3, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
        for p in &points {
            set.insert(p.clone());
        }
        let snap = set.snapshot();
        let view = snap.exact_view();
        assert_eq!(view.ids(), snap.live_ids());
        // All-discrete corpus: exact work is the summed support size.
        assert_eq!(view.work(), 12);
        let pi = snap.quantify_exact(Point::new(0.1, 0.0));
        assert_eq!(pi.len(), 12);
        let total: f64 = pi.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "exact pi sums to 1, got {total}"
        );
    }

    #[test]
    fn out_of_range_configs_are_rejected() {
        for config in [
            ServeConfig {
                mc_rounds: 0,
                ..small_config()
            },
            // The numeric integrator needs at least two grid nodes.
            ServeConfig {
                numeric_steps: 1,
                ..small_config()
            },
        ] {
            assert!(matches!(
                ShardSet::new(2, ShardPolicy::Hash, config),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
        assert!(ShardSet::new(
            2,
            ShardPolicy::Hash,
            ServeConfig {
                numeric_steps: 2,
                ..small_config()
            }
        )
        .is_ok());
    }

    #[test]
    fn try_insert_isolates_a_hostile_sampler() {
        use unn_distr::{ChaosDistribution, ChaosMode};
        let cfg = small_config();
        let mut set = ShardSet::new(2, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
        // Passes validation (delegates to its inner disk) but panics on the
        // first Monte-Carlo sample — inside the block build.
        let bad = Uncertain::Chaos(ChaosDistribution::new(
            disk(2.0, 2.0, 1.0),
            ChaosMode::PanicOnSample(1),
        ));
        match set.try_insert(bad, InsertPolicy::Strict) {
            Err(ServeError::InsertPanicked { message }) => {
                assert!(message.contains("chaos"), "unexpected payload: {message}")
            }
            other => panic!("expected InsertPanicked, got {other:?}"),
        }
        // The shard set is untouched and still serves.
        assert!(set.is_empty());
        let ok = set.try_insert(disk(1.0, 1.0, 0.5), InsertPolicy::Strict);
        assert_eq!(ok.unwrap_or_else(|e| panic!("{e}")), 0, "id 0 not burned");
        assert_eq!(set.len(), 1);
        let snap = set.snapshot();
        assert_eq!(snap.nn_nonzero(Point::new(1.0, 1.0)), vec![0]);
    }
}
