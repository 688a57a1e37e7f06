//! Logarithmic-method engine: block lifecycle (insert cascades, tombstone
//! removals, compaction) and frozen query snapshots.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unn_distr::Uncertain;
use unn_geom::Point;
use unn_nonzero::DeltaCompose;

use crate::block::BlockCore;
use crate::PointId;

/// How the engine bounds its block count on insert. Every policy preserves
/// the engine's query contract bit-for-bit — answers are layout-invariant —
/// and trades update cost against the number of blocks a read must compose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// Classic Bentley–Saxe: merge while two blocks share a size class
    /// (`⌊log₂ len⌋`). O(log n) blocks, amortized O(polylog) rebuild work
    /// per insert — the write-optimized default.
    Logarithmic,
    /// Logarithmic cascades followed by greedy smallest-pair merges until
    /// at most `max_blocks` remain (`0` is treated as `1`). Bounds the
    /// read-side composition width at a bounded extra write cost — the
    /// LSM-style middle ground.
    Tiered {
        /// Maximum number of blocks left standing after any insert.
        max_blocks: usize,
    },
    /// Every insert rebuilds the whole live set into a single block.
    /// Read-optimal (queries see exactly one block) but O(n) rebuild work
    /// per insert — for read-dominated sets that rarely change.
    MergeToOne,
}

/// Tuning knobs for the dynamic engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Base seed; every point's Monte-Carlo stream derives from
    /// `point_stream_seed(seed, id)`.
    pub seed: u64,
    /// Monte-Carlo rounds instantiated per block (clamped to ≥ 1).
    pub mc_rounds: usize,
    /// Compact the whole structure into one block once
    /// `dead > max_dead_fraction · (live + dead)`.
    pub max_dead_fraction: f64,
    /// Block-count policy applied after every insert.
    pub policy: CompactionPolicy,
    /// Hot-block promotion: when `Some(r)`, a mutation that observes
    /// `snapshot reads ≥ r · updates` (both counted since the last
    /// promotion) on a multi-block engine merges everything into one block.
    /// Background-free: the check runs inside `insert`/`remove`, reads are
    /// counted by query snapshots via a shared atomic. `None` disables it.
    pub hot_promote_ratio: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            mc_rounds: 1024,
            max_dead_fraction: 0.25,
            policy: CompactionPolicy::Logarithmic,
            hot_promote_ratio: None,
        }
    }
}

/// Errors surfaced by fallible engine mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicError {
    /// `insert_with_id` collided with an id that is currently live.
    IdInUse {
        /// The conflicting id.
        id: PointId,
    },
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::IdInUse { id } => write!(f, "point id {id} is already live"),
        }
    }
}

impl std::error::Error for DynamicError {}

/// Lifecycle counters and live-set sizes, for observability and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicStats {
    /// Points currently live.
    pub live: usize,
    /// Tombstoned slots still occupying block storage.
    pub tombstones: usize,
    /// Number of blocks.
    pub blocks: usize,
    /// Slot count of the largest block (live + dead).
    pub largest_block: usize,
    /// Monotone version counter; bumps on every successful mutation.
    pub epoch: u64,
    /// Total logarithmic-method merges performed.
    pub merges: u64,
    /// Total full compactions performed.
    pub compactions: u64,
    /// Total hot-block promotions performed (read-ratio-triggered
    /// merge-to-one rebuilds).
    pub promotions: u64,
    /// Total blocks ever built (inserts + merges + compactions).
    pub blocks_built: u64,
    /// Snapshot queries counted toward the promotion heuristic since the
    /// last promotion (or forever, when promotion is disabled).
    pub reads: u64,
}

/// One block plus its copy-on-write liveness bitmap.
#[derive(Clone, Debug)]
struct Slot {
    core: Arc<BlockCore>,
    alive: Arc<Vec<bool>>,
    live: usize,
}

/// Mutable dynamic index over uncertain points.
///
/// Inserts build a singleton block and cascade-merge while two blocks share
/// a size class (`⌊log₂ len⌋`), so blocks stay geometrically sized and each
/// point is rebuilt O(log n) times. Removals tombstone in place; crossing
/// the dead-fraction threshold triggers a full compaction. All queries go
/// through [`DynamicEngine::snapshot`].
#[derive(Clone, Debug)]
pub struct DynamicEngine {
    config: EngineConfig,
    slots: Vec<Slot>,
    next_id: PointId,
    epoch: u64,
    live: usize,
    dead: usize,
    merges: u64,
    compactions: u64,
    promotions: u64,
    blocks_built: u64,
    /// Snapshot read counter shared with every [`EngineSnapshot`] this
    /// engine hands out (cloning the engine shares it too — reads against
    /// either clone's snapshots feed both promotion heuristics).
    reads: Arc<AtomicU64>,
    /// Mutations since the last promotion (the denominator of the
    /// read/update ratio).
    updates_since_promote: u64,
}

impl Default for DynamicEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl DynamicEngine {
    /// Creates an empty engine.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            slots: Vec::new(),
            next_id: 0,
            epoch: 0,
            live: 0,
            dead: 0,
            merges: 0,
            compactions: 0,
            promotions: 0,
            blocks_built: 0,
            reads: Arc::new(AtomicU64::new(0)),
            updates_since_promote: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Monte-Carlo rounds per block (config value clamped to ≥ 1).
    pub fn rounds(&self) -> usize {
        self.config.mc_rounds.max(1)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no point is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Monotone version counter; bumps on every successful mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if `id` is currently live.
    pub fn contains(&self, id: PointId) -> bool {
        self.slots
            .iter()
            .any(|s| s.core.find(id).is_some_and(|j| s.alive[j]))
    }

    /// The live point with id `id`, if any.
    pub fn get(&self, id: PointId) -> Option<&Uncertain> {
        self.slots.iter().find_map(|s| {
            s.core
                .find(id)
                .filter(|&j| s.alive[j])
                .map(|j| &s.core.points[j])
        })
    }

    /// Inserts a point under a fresh id and returns it.
    pub fn insert(&mut self, point: Uncertain) -> PointId {
        let id = self.next_id;
        // Claim the id only after the panic-prone build inside
        // `insert_entry` has succeeded, so a caught sampling panic does not
        // burn it (the id streams of twin engines stay in lockstep).
        self.insert_entry(id, point);
        self.next_id += 1;
        id
    }

    /// Inserts a point under a caller-chosen id.
    ///
    /// Fails with [`DynamicError::IdInUse`] if `id` is currently live;
    /// re-using the id of a removed point is allowed (tombstoned copies in
    /// older blocks are ignored by queries and dropped at the next merge).
    pub fn insert_with_id(&mut self, id: PointId, point: Uncertain) -> Result<(), DynamicError> {
        if self.contains(id) {
            return Err(DynamicError::IdInUse { id });
        }
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.insert_entry(id, point);
        Ok(())
    }

    fn insert_entry(&mut self, id: PointId, point: Uncertain) {
        // Mutation ordering is panic-atomic: the singleton block build (the
        // only step that runs distribution sampling code and can panic) goes
        // first and touches no engine state until it succeeds, and every
        // policy merge is individually build-before-remove. A panic escaping
        // here therefore leaves the engine in a consistent (at worst
        // under-compacted) state that later mutations and queries handle
        // normally.
        self.push_block(vec![(id, point)]);
        self.live += 1;
        self.epoch += 1;
        self.apply_policy();
        self.note_update();
    }

    /// Inserts many points as **one** block under fresh consecutive ids
    /// (then applies the compaction policy once), returning the ids.
    /// Query-equivalent to inserting one by one — answers are
    /// layout-invariant — but builds O(1) blocks instead of O(n), which is
    /// what makes bootstrapping a [`CompactionPolicy::MergeToOne`] engine
    /// affordable.
    pub fn bulk_insert(&mut self, points: Vec<Uncertain>) -> Vec<PointId> {
        if points.is_empty() {
            return Vec::new();
        }
        let ids: Vec<PointId> = (0..points.len() as PointId)
            .map(|k| self.next_id + k)
            .collect();
        let entries: Vec<(PointId, Uncertain)> = ids.iter().copied().zip(points).collect();
        let added = entries.len();
        // Build first, mutate after — see `insert_entry` for the panic
        // contract. The ids are claimed only once the build has succeeded.
        self.push_block(entries);
        self.next_id += added as PointId;
        self.live += added;
        self.epoch += 1;
        self.apply_policy();
        self.note_update();
        ids
    }

    /// Tombstones `id`. Returns `false` (and leaves the epoch untouched) if
    /// no live point carries that id.
    pub fn remove(&mut self, id: PointId) -> bool {
        for idx in 0..self.slots.len() {
            // A dead copy of `id` may linger in an older block while the
            // live copy sits elsewhere — only mutate the live one, and only
            // clone the bitmap (`make_mut`) once we know we will flip a bit.
            if let Some(j) = self.slots[idx].core.find(id) {
                if self.slots[idx].alive[j] {
                    let slot = &mut self.slots[idx];
                    Arc::make_mut(&mut slot.alive)[j] = false;
                    slot.live -= 1;
                    self.live -= 1;
                    self.dead += 1;
                    self.epoch += 1;
                    self.maybe_compact();
                    self.note_update();
                    return true;
                }
            }
        }
        false
    }

    /// Builds a [`Slot`] from `entries` without touching engine state.
    /// [`BlockCore::build`] runs distribution sampling code and is the one
    /// place a hostile (chaos) distribution can panic — callers sequence all
    /// their mutations *after* this returns so an unwinding build leaves the
    /// engine exactly as it was.
    fn build_slot(&self, entries: Vec<(PointId, Uncertain)>) -> Option<Slot> {
        if entries.is_empty() {
            return None;
        }
        let live = entries.len();
        let core = Arc::new(BlockCore::build(entries, self.config.seed, self.rounds()));
        let alive = Arc::new(vec![true; core.len()]);
        Some(Slot { core, alive, live })
    }

    /// Builds a block from `entries` and registers it (no cascade).
    fn push_block(&mut self, entries: Vec<(PointId, Uncertain)>) {
        debug_assert!(!entries.is_empty());
        if let Some(slot) = self.build_slot(entries) {
            self.blocks_built += 1;
            self.slots.push(slot);
        }
    }

    /// Applies the configured [`CompactionPolicy`] after an insert.
    fn apply_policy(&mut self) {
        match self.config.policy {
            CompactionPolicy::Logarithmic => self.cascade(),
            CompactionPolicy::Tiered { max_blocks } => {
                self.cascade();
                let cap = max_blocks.max(1);
                while self.slots.len() > cap {
                    // Merge the two smallest blocks (ties broken by slot
                    // order); each round removes at least one slot.
                    let (mut a, mut b) = (0usize, 1usize);
                    if self.slots[b].core.len() < self.slots[a].core.len() {
                        std::mem::swap(&mut a, &mut b);
                    }
                    for i in 2..self.slots.len() {
                        let l = self.slots[i].core.len();
                        if l < self.slots[a].core.len() {
                            b = a;
                            a = i;
                        } else if l < self.slots[b].core.len() {
                            b = i;
                        }
                    }
                    self.merge_slots(a, b);
                }
            }
            CompactionPolicy::MergeToOne => {
                if self.slots.len() > 1 {
                    self.merges += 1;
                    unn_observe::dyn_merge();
                    self.merge_all();
                }
            }
        }
    }

    /// Bumps the update counter and fires hot-block promotion when the
    /// read/update ratio crosses the configured bound on a multi-block
    /// engine. Called once per successful mutation.
    fn note_update(&mut self) {
        self.updates_since_promote = self.updates_since_promote.saturating_add(1);
        let Some(ratio) = self.config.hot_promote_ratio else {
            return;
        };
        if self.slots.len() <= 1 {
            return;
        }
        let reads = self.reads.load(Ordering::Relaxed);
        if reads as f64 >= ratio * self.updates_since_promote as f64 && reads > 0 {
            self.promotions += 1;
            unn_observe::dyn_promotion();
            self.merge_all();
            self.reads.store(0, Ordering::Relaxed);
            self.updates_since_promote = 0;
        }
    }

    /// Merges blocks while any two share a size class. Each merge removes at
    /// least one slot, so the loop terminates.
    fn cascade(&mut self) {
        loop {
            let mut found = None;
            'outer: for i in 0..self.slots.len() {
                for j in (i + 1)..self.slots.len() {
                    if self.slots[i].core.len().ilog2() == self.slots[j].core.len().ilog2() {
                        found = Some((i, j));
                        break 'outer;
                    }
                }
            }
            let Some((i, j)) = found else { break };
            self.merge_slots(i, j);
        }
    }

    /// Merges the blocks at slot indices `i` and `j` into one. The merged
    /// block is built *before* either source slot is removed or any counter
    /// moves, so a build panic (hostile distribution) aborts the merge with
    /// the engine untouched.
    fn merge_slots(&mut self, i: usize, j: usize) {
        debug_assert_ne!(i, j);
        let (a, b) = (&self.slots[i], &self.slots[j]);
        let mut entries = Vec::with_capacity(a.live + b.live);
        for slot in [a, b] {
            for k in 0..slot.core.len() {
                if slot.alive[k] {
                    entries.push((slot.core.ids[k], slot.core.points[k].clone()));
                }
            }
        }
        let dropped = (a.core.len() - a.live) + (b.core.len() - b.live);
        let built = self.build_slot(entries);
        let (hi, lo) = (i.max(j), i.min(j));
        self.slots.swap_remove(hi);
        self.slots.swap_remove(lo);
        self.merges += 1;
        unn_observe::dyn_merge();
        self.dead -= dropped;
        if let Some(slot) = built {
            self.blocks_built += 1;
            self.slots.push(slot);
        }
    }

    /// Rebuilds everything live into one block once tombstones dominate.
    fn maybe_compact(&mut self) {
        let total = self.live + self.dead;
        if self.dead == 0 || (self.dead as f64) <= self.config.max_dead_fraction * (total as f64) {
            return;
        }
        self.compactions += 1;
        unn_observe::dyn_compaction();
        self.merge_all();
    }

    /// Rebuilds the whole live set into a single block, dropping every
    /// tombstone. Shared by compaction, [`CompactionPolicy::MergeToOne`],
    /// and hot-block promotion — callers bump their own counters first.
    fn merge_all(&mut self) {
        let mut entries = Vec::with_capacity(self.live);
        for slot in &self.slots {
            for j in 0..slot.core.len() {
                if slot.alive[j] {
                    entries.push((slot.core.ids[j], slot.core.points[j].clone()));
                }
            }
        }
        // Build before clearing (panic-atomicity; see `build_slot`).
        let built = self.build_slot(entries);
        self.slots.clear();
        self.dead = 0;
        if let Some(slot) = built {
            self.blocks_built += 1;
            self.slots.push(slot);
        }
    }

    /// Block lengths (live + tombstoned slots), in slot order — the raw
    /// material for compaction-policy invariant checks.
    pub fn block_sizes(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.core.len()).collect()
    }

    /// Lifecycle counters and sizes.
    pub fn stats(&self) -> DynamicStats {
        DynamicStats {
            live: self.live,
            tombstones: self.dead,
            blocks: self.slots.len(),
            largest_block: self.slots.iter().map(|s| s.core.len()).max().unwrap_or(0),
            epoch: self.epoch,
            merges: self.merges,
            compactions: self.compactions,
            promotions: self.promotions,
            blocks_built: self.blocks_built,
            reads: self.reads.load(Ordering::Relaxed),
        }
    }

    /// A consistent frozen view of the current live set. O(n) to take (it
    /// collects the sorted live-id list) but shares all block storage.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut live_ids = Vec::with_capacity(self.live);
        let mut k_max = 1usize;
        for slot in &self.slots {
            for j in 0..slot.core.len() {
                if slot.alive[j] {
                    live_ids.push(slot.core.ids[j]);
                    k_max = k_max.max(slot.core.points[j].as_discrete().map_or(1, |d| d.len()));
                }
            }
        }
        live_ids.sort_unstable();
        EngineSnapshot {
            slots: self
                .slots
                .iter()
                .map(|s| (Arc::clone(&s.core), Arc::clone(&s.alive)))
                .collect(),
            live_ids,
            epoch: self.epoch,
            s: self.rounds(),
            k_max,
            reads: Arc::clone(&self.reads),
        }
    }
}

/// Immutable view of the engine at one epoch. Queries against a snapshot
/// never observe later mutations; all answers are **layout-invariant** —
/// bit-identical for any block decomposition of the same live set.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    slots: Vec<(Arc<BlockCore>, Arc<Vec<bool>>)>,
    live_ids: Vec<PointId>,
    epoch: u64,
    s: usize,
    k_max: usize,
    /// Shared with the owning engine: queries bump it so mutations can see
    /// the read/update ratio for hot-block promotion.
    reads: Arc<AtomicU64>,
}

impl EngineSnapshot {
    /// Live ids, sorted ascending.
    pub fn live_ids(&self) -> &[PointId] {
        &self.live_ids
    }

    /// Number of live points in the view.
    pub fn live_len(&self) -> usize {
        self.live_ids.len()
    }

    /// Engine epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monte-Carlo rounds per block.
    pub fn rounds(&self) -> usize {
        self.s
    }

    /// Largest discrete support size among live points (≥ 1).
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// The live points as `(id, point)` pairs, sorted by id. Materializes a
    /// merged copy — used for exact quantification and oracle checks.
    pub fn live_points(&self) -> Vec<(PointId, Uncertain)> {
        let mut out = Vec::with_capacity(self.live_ids.len());
        for (core, alive) in &self.slots {
            for j in 0..core.len() {
                if alive[j] {
                    out.push((core.ids[j], core.points[j].clone()));
                }
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Ids with nonzero probability of being the nearest neighbor of `q`
    /// (paper §2), sorted ascending.
    ///
    /// Composes per Lemma 2.1 with **shared-bound pruning**: stage 1 orders
    /// blocks best-first by their root lower bound and threads one
    /// shrinking cap ([`DeltaCompose::prune_bound`]) through every
    /// per-block kd descent, skipping whole blocks — without probing them —
    /// once the cap undercuts their bound; stage 2 reports through each
    /// block's center tree under the same cap. Both stages fold the same
    /// floats through the same strict comparisons as a flat Lemma 2.1 scan
    /// over the live set, so the answer is bit-identical to that scan and
    /// to the static index on the same live set.
    pub fn nn_nonzero(&self, q: Point) -> Vec<PointId> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let fold = self.fold_delta(q);
        let mut out = Vec::new();
        for (core, alive) in &self.slots {
            core.report_nonzero(q, alive, &fold, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// The stage-1 Lemma 2.1 fold for `q` over this snapshot, exposed for
    /// **cross-shard composition** (`unn-serve`): because
    /// [`DeltaCompose::merge`] is the same commutative fold as observing all
    /// pairs flat, merging the `delta_fold`s of snapshots over disjoint live
    /// sets yields a fold bit-identical to one unsharded snapshot over the
    /// union — the pruned per-snapshot fold's observable state already
    /// equals its unpruned scan (see [`EngineSnapshot::nn_nonzero`]).
    /// Counts one read toward hot-block promotion.
    pub fn delta_fold(&self, q: Point) -> DeltaCompose {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.fold_delta(q)
    }

    /// Stage-2 report under an externally merged fold: pushes every live id
    /// whose minimum distance undercuts `fold`'s cap for it. With `fold`
    /// merged across shards, the union of per-shard reports equals the
    /// unsharded [`EngineSnapshot::nn_nonzero`] answer (unsorted here;
    /// callers sort the concatenation).
    pub fn report_nonzero_under(&self, q: Point, fold: &DeltaCompose, out: &mut Vec<PointId>) {
        for (core, alive) in &self.slots {
            core.report_nonzero(q, alive, fold, out);
        }
    }

    /// Stage-1 fold with cross-block pruning: blocks ordered best-first by
    /// [`BlockCore::delta_fold_bound`]; once the running
    /// [`DeltaCompose::prune_bound`] drops below the next block's bound,
    /// every remaining block is skipped (the order is ascending and the cap
    /// only shrinks). The fold's observable state — `prune_bound` and every
    /// `cap_for` — is bit-identical to the unpruned full scan.
    fn fold_delta(&self, q: Point) -> DeltaCompose {
        let mut fold = DeltaCompose::new();
        let mut order: Vec<(f64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, (core, _))| (core.delta_fold_bound(q), i as u32))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for &(bound, i) in &order {
            if bound >= fold.prune_bound() {
                break;
            }
            unn_observe::dyn_block_probed();
            let (core, alive) = &self.slots[i as usize];
            core.fold_delta_capped(q, alive, &mut fold);
        }
        fold
    }

    /// Per-round Monte-Carlo winners `(distance, id)` for `q`.
    ///
    /// The global pruning radius is the min over per-block Δ_b(q); each
    /// block then folds its in-ball samples into the shared per-round
    /// `(distance, id)` lexicographic minimum. The round winner has
    /// distance ≤ Δ(q) (its sample lies inside its own support box), so the
    /// ball query over the winner's own block always reports it; blocks that
    /// exhaust the visit cap fall back to a full linear scan, which folds
    /// the same minimum. Tie-breaking by stable id keeps the result
    /// independent of block layout and traversal order.
    pub fn round_winners(&self, q: Point) -> Vec<(f64, PointId)> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.live_ids.is_empty() {
            return Vec::new();
        }
        let s = self.s;
        let seed = self.shared_delta(q) * (1.0 + 1e-12);
        unn_observe::seed_radius(seed);
        let mut best: Vec<(f64, PointId)> = vec![(f64::INFINITY, PointId::MAX); s];
        for (core, alive) in &self.slots {
            // A block whose closest sample sits beyond the seed radius
            // contributes nothing — the ball traversal's root test would
            // prune it immediately. Skipping it (without counting a probe)
            // cannot change any round's fold.
            if core.ball_bound(q) > seed {
                continue;
            }
            unn_observe::dyn_block_probed();
            let n_b = core.len();
            if n_b == 0 {
                continue;
            }
            let complete = core.global.in_disk_capped(q, seed, 32 * s, &mut |pos, d| {
                let j = pos % n_b;
                if alive[j] {
                    let id = core.ids[j];
                    let e = &mut best[pos / n_b];
                    if d < e.0 || (d == e.0 && id < e.1) {
                        *e = (d, id);
                    }
                } else {
                    unn_observe::dyn_tombstone_filtered();
                }
            });
            if !complete {
                // Cap exhausted: rescan every round of this block linearly.
                // Re-folding already-observed samples is idempotent.
                for (r, e) in best.iter_mut().enumerate() {
                    Self::fold_round(core, alive, q, r, e);
                }
            }
        }
        // Ulp safety net: a round every block's ball fold missed gets a
        // cross-block linear scan (live set is non-empty, so this fills it).
        for (r, e) in best.iter_mut().enumerate() {
            if e.1 == PointId::MAX {
                for (core, alive) in &self.slots {
                    if !core.is_empty() {
                        Self::fold_round(core, alive, q, r, e);
                    }
                }
            }
        }
        best
    }

    /// The global pruning radius `Δ(q) = min_b Δ_b(q)` computed with one
    /// incumbent threaded through blocks ordered best-first by
    /// [`BlockCore::prune_radius_bound`]; blocks whose bound reaches the
    /// incumbent are skipped outright. Exactly the same value as the
    /// independent per-block minima folded by `min` — branch-and-bound with
    /// a shared incumbent still visits every candidate that could lower it.
    fn shared_delta(&self, q: Point) -> f64 {
        let mut order: Vec<(f64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, (core, _))| (core.prune_radius_bound(q), i as u32))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut delta = f64::INFINITY;
        for &(bound, i) in &order {
            if bound >= delta {
                break;
            }
            let (core, alive) = &self.slots[i as usize];
            delta = core.prune_radius_from(q, alive, delta);
        }
        delta
    }

    /// Folds round `r` of `core` into `e` by linear scan (layout-invariant:
    /// strict `(distance, id)` lexicographic minimum over live samples).
    fn fold_round(core: &BlockCore, alive: &[bool], q: Point, r: usize, e: &mut (f64, PointId)) {
        let (xs, ys, rids) = core.forest.round_soa(r);
        for (k, rid) in rids.iter().enumerate() {
            let j = *rid as usize;
            if alive[j] {
                // Same operation order as `Point::dist`, so the fold is
                // bit-identical to the pre-SoA AoS scan.
                let dx = xs[k] - q.x;
                let dy = ys[k] - q.y;
                let d = (dx * dx + dy * dy).sqrt();
                let id = core.ids[j];
                if d < e.0 || (d == e.0 && id < e.1) {
                    *e = (d, id);
                }
            }
        }
    }

    /// Round winners mapped to ranks in [`EngineSnapshot::live_ids`] —
    /// the index layout expected by `adaptive_over_winners`.
    pub fn winner_ranks(&self, q: Point) -> Vec<u32> {
        self.ranks_of(self.round_winners(q))
    }

    fn ranks_of(&self, winners: Vec<(f64, PointId)>) -> Vec<u32> {
        winners
            .into_iter()
            .map(|(_, id)| {
                let rank = self.live_ids.binary_search(&id);
                debug_assert!(rank.is_ok(), "winner id {id} not in live set");
                rank.unwrap_or(0) as u32
            })
            .collect()
    }

    /// Monte-Carlo estimate of `π_i(q)` over the live set (dense, indexed
    /// like [`EngineSnapshot::live_ids`]), using all `s` rounds.
    pub fn quantify(&self, q: Point) -> Vec<f64> {
        if self.live_ids.is_empty() {
            return Vec::new();
        }
        let ranks = self.winner_ranks(q);
        self.pi_from_ranks(&ranks)
    }

    fn pi_from_ranks(&self, ranks: &[u32]) -> Vec<f64> {
        let mut counts = vec![0u32; self.live_ids.len()];
        for r in ranks {
            counts[*r as usize] += 1;
        }
        let inv = 1.0 / (self.s as f64);
        counts.into_iter().map(|c| f64::from(c) * inv).collect()
    }

    /// Number of blocks in the view (diagnostics and tests).
    pub fn blocks(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::Point;

    fn disk(x: f64, y: f64, r: f64) -> Uncertain {
        Uncertain::uniform_disk(Point::new(x, y), r)
    }

    fn grid_engine(n: usize, cfg: EngineConfig) -> DynamicEngine {
        let mut e = DynamicEngine::new(cfg);
        for i in 0..n {
            let (x, y) = ((i % 8) as f64, (i / 8) as f64);
            e.insert(disk(x * 3.0, y * 3.0, 0.4));
        }
        e
    }

    #[test]
    fn block_count_tracks_popcount() {
        let cfg = EngineConfig {
            mc_rounds: 4,
            ..EngineConfig::default()
        };
        for n in [1usize, 2, 3, 7, 8, 13] {
            let e = grid_engine(n, cfg);
            assert_eq!(
                e.stats().blocks,
                n.count_ones() as usize,
                "n = {n}: sizes should match the binary representation"
            );
            assert_eq!(e.len(), n);
        }
    }

    #[test]
    fn remove_tombstones_then_compacts() {
        let cfg = EngineConfig {
            mc_rounds: 4,
            ..EngineConfig::default()
        };
        let mut e = grid_engine(8, cfg);
        assert!(e.remove(0));
        assert!(!e.remove(0), "double-remove must fail");
        assert!(!e.contains(0));
        assert_eq!(e.stats().tombstones, 1);
        assert!(e.remove(1));
        assert_eq!(e.stats().tombstones, 2);
        // Third removal pushes dead fraction past 0.25 -> full compaction.
        assert!(e.remove(2));
        let st = e.stats();
        assert_eq!(st.tombstones, 0);
        assert_eq!(st.blocks, 1);
        assert!(st.compactions >= 1);
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn reinsert_after_remove_and_id_collision() {
        let cfg = EngineConfig {
            mc_rounds: 4,
            ..EngineConfig::default()
        };
        let mut e = grid_engine(4, cfg);
        assert_eq!(
            e.insert_with_id(2, disk(0.0, 0.0, 0.1)),
            Err(DynamicError::IdInUse { id: 2 })
        );
        assert!(e.remove(2));
        assert_eq!(e.insert_with_id(2, disk(9.0, 9.0, 0.2)), Ok(()));
        assert!(e.contains(2));
        // Fresh ids must never collide with the re-used one.
        let fresh = e.insert(disk(1.0, 1.0, 0.1));
        assert!(fresh > 3);
    }

    #[test]
    fn snapshot_is_isolated_from_later_updates() {
        let cfg = EngineConfig {
            mc_rounds: 16,
            ..EngineConfig::default()
        };
        let mut e = DynamicEngine::new(cfg);
        let a = e.insert(disk(0.0, 0.0, 0.5));
        let b = e.insert(disk(10.0, 0.0, 0.5));
        let snap = e.snapshot();
        e.remove(a);
        let q = Point::new(0.0, 0.0);
        assert_eq!(snap.nn_nonzero(q), vec![a], "frozen view still sees a");
        assert_eq!(e.snapshot().nn_nonzero(q), vec![b]);
        assert!(snap.epoch() < e.epoch());
    }

    #[test]
    fn round_winners_invariant_to_block_layout() {
        let cfg = EngineConfig {
            mc_rounds: 64,
            ..EngineConfig::default()
        };
        // Same live set reached via three different histories.
        let forward = grid_engine(13, cfg);
        let mut reversed = DynamicEngine::new(cfg);
        for i in (0..13u64).rev() {
            let (x, y) = ((i % 8) as f64, (i / 8) as f64);
            reversed
                .insert_with_id(i, disk(x * 3.0, y * 3.0, 0.4))
                .unwrap_or_else(|e| panic!("insert {i}: {e}"));
        }
        let mut churned = grid_engine(13, cfg);
        for i in [3u64, 7, 11] {
            assert!(churned.remove(i));
        }
        for i in [3u64, 7, 11] {
            let (x, y) = ((i % 8) as f64, (i / 8) as f64);
            churned
                .insert_with_id(i, disk(x * 3.0, y * 3.0, 0.4))
                .unwrap_or_else(|e| panic!("reinsert {i}: {e}"));
        }
        assert_ne!(
            forward.stats().blocks_built,
            churned.stats().blocks_built,
            "histories should differ structurally"
        );
        let (sf, sr, sc) = (forward.snapshot(), reversed.snapshot(), churned.snapshot());
        assert_eq!(sf.live_ids(), sr.live_ids());
        assert_eq!(sf.live_ids(), sc.live_ids());
        for q in [
            Point::new(0.0, 0.0),
            Point::new(5.5, 2.5),
            Point::new(21.0, 3.0),
            Point::new(-4.0, 9.0),
        ] {
            let w = sf.round_winners(q);
            assert_eq!(w, sr.round_winners(q), "reversed layout diverged at {q:?}");
            assert_eq!(w, sc.round_winners(q), "churned layout diverged at {q:?}");
            assert_eq!(sf.nn_nonzero(q), sr.nn_nonzero(q));
            assert_eq!(sf.nn_nonzero(q), sc.nn_nonzero(q));
        }
    }
}
