//! Immutable block: a static Monte-Carlo-instantiated index over one
//! logarithmic-method size class.
//!
//! A [`BlockCore`] is built once (at insert, merge, or compaction time) and
//! never mutated; liveness is tracked outside it by the engine's per-slot
//! alive bitmap. All sampling is keyed by **stable point id**
//! ([`unn_quantify::point_stream_seed`]), so a point's per-round sample
//! sequence is identical in every block it ever inhabits — the property that
//! makes Monte-Carlo estimates invariant to merge history.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use unn_distr::{Uncertain, UncertainPoint};
use unn_geom::{Aabb, Point};
use unn_nonzero::DeltaCompose;
use unn_quantify::point_stream_seed;
use unn_spatial::{KdConfig, KdForest, KdTree};

use crate::PointId;

/// Immutable per-block data: points, their ids, and the spatial structures
/// needed to answer pruning and round-winner queries.
#[derive(Clone, Debug)]
pub struct BlockCore {
    /// Stable ids, sorted ascending (the block's membership key).
    pub(crate) ids: Vec<PointId>,
    /// The uncertain points, parallel to `ids`.
    pub(crate) points: Vec<Uncertain>,
    /// Support bounding boxes, parallel to `ids`.
    pub(crate) support: Vec<Aabb>,
    /// Kd-tree over support-box centers, with asymmetric aux bounds:
    /// `lo[j] = min_halfwidth(support[j])` (valid lower offset for the box
    /// `max_dist` family minimized by `prune_radius_from`) and `hi[j] =
    /// circumradius(support[j])` (valid upper offset for the distribution
    /// `min_dist` family reported by `report_nonzero`). The stage-1
    /// `fold_delta_capped` walk prunes on the raw center distance alone —
    /// a *distribution* `max_dist` admits no positive lower offset (a
    /// two-point support across a box diagonal beats `d(q, center) + lo`).
    pub(crate) delta_tree: KdTree,
    /// Per-round forest: round `r` holds the `r`-th sample of every point,
    /// in block order. Used for layout-invariant linear fallbacks.
    pub(crate) forest: KdForest,
    /// One kd-tree over **all** `s·n` samples, sample of point `j` in round
    /// `r` stored at position `r·n + j`. Ball queries against it report all
    /// (round, point) pairs within the global pruning radius.
    pub(crate) global: KdTree,
}

impl BlockCore {
    /// Builds a block from `(id, point)` entries. Entries need not be sorted;
    /// the block sorts them by id. `s` is the number of Monte-Carlo rounds
    /// (must be ≥ 1) and `seed` the index-level base seed.
    pub fn build(mut entries: Vec<(PointId, Uncertain)>, seed: u64, s: usize) -> Self {
        debug_assert!(s >= 1);
        entries.sort_unstable_by_key(|(id, _)| *id);
        let n = entries.len();
        let mut ids = Vec::with_capacity(n);
        let mut points = Vec::with_capacity(n);
        for (id, p) in entries {
            ids.push(id);
            points.push(p);
        }
        let support: Vec<Aabb> = points.iter().map(|p| p.support_bbox()).collect();
        let centers: Vec<Point> = support.iter().map(|b| b.center()).collect();
        let lo: Vec<f64> = support
            .iter()
            .map(|b| (b.width().min(b.height()) / 2.0).max(0.0))
            .collect();
        let hi: Vec<f64> = support.iter().map(|b| b.center().dist(b.max)).collect();
        let delta_tree = KdTree::with_aux_bounds(&centers, &lo, &hi);
        // Column-fill: point j's samples come from its own id-keyed stream,
        // independent of which other points share the block.
        let mut all = vec![Point::new(0.0, 0.0); s * n];
        for (j, p) in points.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(point_stream_seed(seed, ids[j]));
            for r in 0..s {
                all[r * n + j] = p.sample(&mut rng);
            }
        }
        let mut forest = KdForest::new();
        for r in 0..s {
            forest.push_round(&all[r * n..(r + 1) * n]);
        }
        // Scan-heavy leaf layout: the global tree only ever serves ball
        // queries whose folds are (distance, id)-lex minima — abort and
        // result depend on the ball's membership, not the leaf layout —
        // so bigger batched leaves are observationally safe and faster.
        let global = KdTree::with_config(&all, KdConfig::scan_heavy());
        Self {
            ids,
            points,
            support,
            delta_tree,
            forest,
            global,
        }
    }

    /// Number of slots in the block (live + tombstoned).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the block holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Stable ids in this block, sorted ascending.
    pub fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// Position of `id` in this block, if present (live or dead).
    pub fn find(&self, id: PointId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// `min(init, Δ_b(q))`, where `Δ_b(q) = min_{live j}
    /// support[j].max_dist(q)` is the per-block pruning radius (`+∞` if
    /// every slot is tombstoned) and `init`, an incumbent from other
    /// blocks, prunes the descent from the first node. Threading the result
    /// block-to-block computes the same global `min_b Δ_b(q)` as
    /// independent per-block minima folded by `min`.
    pub fn prune_radius_from(&self, q: Point, alive: &[bool], init: f64) -> f64 {
        self.delta_tree
            .min_adjusted_from(q, init, &|j| {
                if alive[j] {
                    self.support[j].max_dist(q)
                } else {
                    f64::INFINITY
                }
            })
            .map_or(init, |(_, d)| d)
    }

    /// Lower bound on `max_dist_j(q)` over every slot (live or dead): the
    /// root box of the center tree. Support-box centers lie in their
    /// distribution's convex hull, so `d(q, center_j) <= max_dist_j(q)` and
    /// the root distance bounds the whole block. Used to order blocks
    /// best-first and skip blocks that cannot tighten a stage-1 fold.
    pub fn delta_fold_bound(&self, q: Point) -> f64 {
        self.delta_tree.root_min_dist(q)
    }

    /// Lower bound on this block's pruning radius `Δ_b(q)` (root box
    /// distance plus the minimum half-width offset); `+∞` for a block with
    /// no slots.
    pub fn prune_radius_bound(&self, q: Point) -> f64 {
        self.delta_tree.root_lower_bound(q)
    }

    /// Lower bound on the distance from `q` to any Monte-Carlo sample in
    /// this block (root box of the global sample tree). A ball query with
    /// radius below it cannot report anything.
    pub fn ball_bound(&self, q: Point) -> f64 {
        self.global.root_min_dist(q)
    }

    /// Stage-1 fold with shared-bound pruning: folds every live
    /// `(max_dist_j(q), id_j)` pair whose subtree can still change `fold`
    /// (per [`DeltaCompose::prune_bound`]) — bit-identical fold state to the
    /// full linear scan, skipping most of the tree once two tight Δs are
    /// known. Tombstoned slots inside surviving leaves are counted and
    /// skipped.
    pub fn fold_delta_capped(&self, q: Point, alive: &[bool], fold: &mut DeltaCompose) {
        self.delta_tree
            .prune_with_cap(q, fold.prune_bound(), &mut |j| {
                if alive[j] {
                    fold.observe(self.points[j].max_dist(q), self.ids[j]);
                } else {
                    unn_observe::dyn_tombstone_filtered();
                }
                fold.prune_bound()
            });
    }

    /// Stage-2 report under a finished stage-1 fold: pushes every live id
    /// with `min_dist_j(q) < cap_for(id)`. The kd walk prunes on
    /// `d(q, center) - circumradius >= prune_bound()` (the loosest cap any
    /// id receives), then re-checks the exact per-id cap at the leaves —
    /// the same comparisons, on the same floats, as the flat scan.
    pub fn report_nonzero(
        &self,
        q: Point,
        alive: &[bool],
        fold: &DeltaCompose,
        out: &mut Vec<PointId>,
    ) {
        let t = fold.prune_bound();
        self.delta_tree.report_adjusted_below(
            q,
            t,
            &|j| {
                if alive[j] {
                    self.points[j].min_dist(q)
                } else {
                    f64::INFINITY
                }
            },
            &mut |j, v| {
                if v < fold.cap_for(self.ids[j]) {
                    out.push(self.ids[j]);
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::Point;

    fn disk(x: f64, y: f64, r: f64) -> Uncertain {
        Uncertain::uniform_disk(Point::new(x, y), r)
    }

    #[test]
    fn samples_keyed_by_id_not_block_position() {
        // The same point id must produce identical round samples whether it
        // lives alone or alongside other points.
        let solo = BlockCore::build(vec![(7, disk(1.0, 2.0, 0.5))], 42, 8);
        let merged = BlockCore::build(
            vec![(3, disk(-4.0, 0.0, 1.0)), (7, disk(1.0, 2.0, 0.5))],
            42,
            8,
        );
        let j = merged.find(7).unwrap_or(usize::MAX);
        for r in 0..8 {
            let (solo_xs, solo_ys, _) = solo.forest.round_soa(r);
            let (m_xs, m_ys, _) = merged.forest.round_soa(r);
            assert_eq!(solo_xs[0], m_xs[j]);
            assert_eq!(solo_ys[0], m_ys[j]);
        }
    }

    #[test]
    fn capped_fold_matches_linear_scan() {
        // fold_delta_capped / report_nonzero must reproduce the flat
        // two-pass Lemma 2.1 scan bit-for-bit, tombstones included.
        let entries: Vec<(PointId, Uncertain)> = (0u32..17)
            .map(|i| {
                let x = f64::from(i % 5) * 3.0 - 6.0;
                let y = f64::from(i / 5) * 2.5 - 4.0;
                (
                    u64::from(i) * 3 + 1,
                    disk(x, y, 0.3 + f64::from(i % 3) * 0.4),
                )
            })
            .collect();
        let b = BlockCore::build(entries.clone(), 9, 4);
        let alive: Vec<bool> = (0..17).map(|i| i % 4 != 2).collect();
        let q = Point::new(1.5, -2.0);

        let mut flat = DeltaCompose::new();
        for (j, id) in b.ids().iter().enumerate() {
            if alive[j] {
                flat.observe(b.points[j].max_dist(q), *id);
            }
        }
        let mut capped = DeltaCompose::new();
        b.fold_delta_capped(q, &alive, &mut capped);
        assert_eq!(flat, capped);

        let mut want: Vec<PointId> = b
            .ids()
            .iter()
            .enumerate()
            .filter(|(j, id)| alive[*j] && b.points[*j].min_dist(q) < flat.cap_for(**id))
            .map(|(_, id)| *id)
            .collect();
        want.sort_unstable();
        let mut got = Vec::new();
        b.report_nonzero(q, &alive, &capped, &mut got);
        got.sort_unstable();
        assert_eq!(want, got);
        assert!(
            !got.is_empty(),
            "query inside the grid must report something"
        );
    }

    #[test]
    fn prune_radius_skips_tombstones() {
        let b = BlockCore::build(
            vec![(0, disk(0.0, 0.0, 0.1)), (1, disk(100.0, 0.0, 0.1))],
            1,
            2,
        );
        let q = Point::new(0.0, 0.0);
        let radius = |alive: &[bool]| b.prune_radius_from(q, alive, f64::INFINITY);
        let all_alive = radius(&[true, true]);
        assert!(all_alive <= 0.5, "near disk should dominate: {all_alive}");
        let near_dead = radius(&[false, true]);
        assert!(near_dead >= 99.0, "must fall back to far disk: {near_dead}");
        assert!(radius(&[false, false]).is_infinite());
    }
}
