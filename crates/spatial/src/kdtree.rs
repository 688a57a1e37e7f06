//! Kd-tree over weighted points, SoA leaves, batched distance kernels.
//!
//! One structure serves every query shape the paper's data structures need
//! (DESIGN.md §4 explains each substitution):
//!
//! * [`KdTree::nearest`] / [`KdTree::m_nearest`] — plain (m-)nearest
//!   neighbors; the engine of the Monte-Carlo structure (§4.2) and of spiral
//!   search (§4.3, replacing the `[AC09]` structure).
//! * [`KdTree::in_disk_capped`] — disk range reporting under an output
//!   budget (`usize::MAX` reports the whole ball).
//! * [`KdTree::min_adjusted`] — minimize a per-point score bounded below by
//!   the box distance; with `eval = d(q,c_i) + r_i` over disk centers this
//!   computes `Δ(q) = min_i Δ_i(q)`, stage 1 of the `NN≠0` query (§3).
//!   [`KdTree::min_adjusted_weighted`] is the batched closure-free form over
//!   the stored `lo` offsets; [`KdTree::min_adjusted_boxes`] the batched
//!   support-box form over an [`AabbSoA`].
//! * [`KdTree::report_adjusted_below`] — report every `i` with
//!   `eval(i) < t` where `eval(i) >= d(q, p_i) - aux_i`; with `aux_i = r_i`
//!   and `eval = δ_i` this reports `{i : δ_i(q) < Δ(q)}`, stage 2 of the
//!   `NN≠0` query (replacing `[KMR⁺16]`). [`KdTree::report_ball_below`] is
//!   the batched closure-free form.
//!
//! The tree is built by recursive median split on the wider box dimension;
//! nodes are stored in a flat `Vec` (index arithmetic, no pointers), leaves
//! hold at most [`KdConfig::leaf_size`] points. Leaf storage is
//! structure-of-arrays — `x[]`/`y[]`/`lo[]`/`hi[]`/`id[]` — and the hot
//! leaf scans run in lane batches (see [`crate::scan`]). Each query has one
//! implementation; the workspace tests check every one against a flat scan
//! over its definition (DESIGN.md §8).

use unn_geom::kernels::{AabbSoA, LANES};
use unn_geom::{Aabb, Point};

use crate::scan::{scan_dists, scan_dists_below};

/// Historical leaf capacity, now the [`KdConfig`] default.
const DEFAULT_LEAF_SIZE: usize = 8;

/// Build-time layout knobs for [`KdTree`].
///
/// The defaults reproduce the original hard-coded layout exactly (leaf
/// capacity 8, no brute-force short-circuit beyond what an 8-point tree
/// already is), so default-built trees are bit-compatible with every
/// pre-config artifact. [`KdConfig::scan_heavy`] is the bench-swept preset
/// for trees whose queries are dominated by batched leaf scans rather than
/// per-point closure evaluations (see EXPERIMENTS.md T20).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KdConfig {
    /// Maximum points per leaf (≥ 1; values below 1 are treated as 1).
    pub leaf_size: usize,
    /// Inputs of at most this many points are stored as one brute-force
    /// leaf: below the crossover a straight-line batched scan beats any
    /// tree descent (the classic flat-scan crossover, swept in
    /// `bench_quantify`).
    pub brute_force_below: usize,
}

impl Default for KdConfig {
    fn default() -> Self {
        KdConfig {
            leaf_size: DEFAULT_LEAF_SIZE,
            brute_force_below: DEFAULT_LEAF_SIZE,
        }
    }
}

impl KdConfig {
    /// Preset for scan-dominated trees (pure point-distance queries over
    /// large arenas, e.g. the Monte-Carlo global sample tree): bigger
    /// leaves amortize descent overhead into batched scans. Values picked
    /// by the `bench_quantify` leaf-size sweep (EXPERIMENTS.md T20).
    pub fn scan_heavy() -> Self {
        KdConfig {
            leaf_size: 128,
            brute_force_below: 128,
        }
    }

    /// Leaf capacity actually used for an input of `n` points.
    #[inline]
    fn effective_leaf(&self, n: usize) -> usize {
        let leaf = self.leaf_size.max(1);
        if n <= self.brute_force_below {
            leaf.max(n).max(1)
        } else {
            leaf
        }
    }
}

#[derive(Clone, Debug)]
struct Node {
    bbox: Aabb,
    /// Minimum of `aux` over the subtree (for `min_adjusted`-style bounds).
    min_aux: f64,
    /// Maximum of `aux` over the subtree (for `report_adjusted_below`).
    max_aux: f64,
    /// Children indices, or `u32::MAX` sentinel for leaves.
    left: u32,
    right: u32,
    /// Range of points (into the reordered arrays) for leaves; empty for
    /// internal nodes.
    start: u32,
    end: u32,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// A static kd-tree over points with an auxiliary scalar per point
/// (a radius, an extent — anything that offsets distances).
///
/// ```
/// use unn_geom::Point;
/// use unn_spatial::KdTree;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0), Point::new(9.0, 1.0)];
/// let tree = KdTree::new(&pts);
/// assert_eq!(tree.nearest(Point::new(8.0, 0.0)).unwrap().id, 2);
/// let two = tree.m_nearest(Point::new(0.0, 1.0), 2);
/// assert_eq!(two[0].id, 0);
/// ```
#[derive(Clone, Debug)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// Reordered point coordinates, structure-of-arrays.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Per-point lower offsets: node `min_aux` is their subtree minimum.
    aux_lo: Vec<f64>,
    /// Per-point upper offsets: node `max_aux` is their subtree maximum.
    aux_hi: Vec<f64>,
    /// Original index of each reordered point.
    ids: Vec<u32>,
}

/// A reported neighbor: original index and distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index into the original input slice.
    pub id: usize,
    /// Euclidean distance to the query.
    pub dist: f64,
}

impl KdTree {
    /// Builds a tree over `points` with all-zero auxiliaries.
    pub fn new(points: &[Point]) -> Self {
        Self::with_config(points, KdConfig::default())
    }

    /// [`KdTree::new`] with explicit layout knobs.
    pub fn with_config(points: &[Point], config: KdConfig) -> Self {
        let zeros = vec![0.0; points.len()];
        Self::with_aux_bounds_config(points, &zeros, &zeros, config)
    }

    /// Builds a tree over `points` with the given per-point auxiliaries
    /// (used for both the lower and the upper per-point offset).
    pub fn with_aux(points: &[Point], aux: &[f64]) -> Self {
        Self::with_aux_bounds(points, aux, aux)
    }

    /// Builds a tree over `points` with *asymmetric* per-point offsets:
    /// `lo[i]` feeds the subtree `min_aux` bounds ([`KdTree::min_adjusted`],
    /// [`KdTree::root_lower_bound`]) and `hi[i]` the subtree `max_aux`
    /// bounds ([`KdTree::report_adjusted_below`]).
    ///
    /// The split: a single evaluation family rarely admits the same offset
    /// in both directions. For an uncertain point with support box `B_i`
    /// centered at `p_i`, `max_dist_i(q) >= d(q, p_i) + min_halfwidth(B_i)`
    /// (a valid lower offset) while `min_dist_i(q) >= d(q, p_i) - circum(B_i)`
    /// (a valid upper offset) — and the two scalars differ.
    pub fn with_aux_bounds(points: &[Point], lo: &[f64], hi: &[f64]) -> Self {
        Self::with_aux_bounds_config(points, lo, hi, KdConfig::default())
    }

    /// [`KdTree::with_aux_bounds`] with explicit layout knobs.
    pub fn with_aux_bounds_config(
        points: &[Point],
        lo: &[f64],
        hi: &[f64],
        config: KdConfig,
    ) -> Self {
        assert_eq!(points.len(), lo.len());
        assert_eq!(points.len(), hi.len());
        let n = points.len();
        let leaf = config.effective_leaf(n);
        let mut nodes = Vec::with_capacity(2 * n / leaf + 2);
        let mut order: Vec<u32> = (0..n as u32).collect();
        if n > 0 {
            build_rec(&mut nodes, points, lo, hi, &mut order, 0, leaf);
        }
        // Scatter the build permutation into the SoA arenas.
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut aux_lo = Vec::with_capacity(n);
        let mut aux_hi = Vec::with_capacity(n);
        for &i in &order {
            let i = i as usize;
            let p = points[i];
            xs.push(p.x);
            ys.push(p.y);
            aux_lo.push(lo[i]);
            aux_hi.push(hi[i]);
        }
        KdTree {
            nodes,
            xs,
            ys,
            aux_lo,
            aux_hi,
            ids: order,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Leaf scan: hands `(slot, d(q, p_slot))` to `f` in ascending slot
    /// order, lane-chunked.
    #[inline]
    fn scan<F: FnMut(usize, f64)>(&self, start: u32, end: u32, q: Point, f: &mut F) {
        scan_dists(&self.xs, &self.ys, start as usize, end as usize, q, f);
    }

    /// Threshold-gated leaf scan ([`scan_dists_below`]): `f` only sees
    /// slots whose distance can pass `thresh()`; batches with no admissible
    /// lane are rejected by one vectorized compare. `f` must still apply
    /// its exact predicate — the gate over-approximates.
    #[inline]
    fn scan_below<T: FnMut() -> f64, F: FnMut(usize, f64)>(
        &self,
        start: u32,
        end: u32,
        q: Point,
        thresh: &mut T,
        f: &mut F,
    ) {
        scan_dists_below(
            &self.xs,
            &self.ys,
            start as usize,
            end as usize,
            q,
            thresh,
            f,
        );
    }

    /// Nearest neighbor of `q`, or `None` for an empty tree.
    pub fn nearest(&self, q: Point) -> Option<Neighbor> {
        self.nearest_within(q, f64::INFINITY)
    }

    /// Nearest neighbor of `q` among points at distance `<= init_best`
    /// (closed ball), or `None` when the tree is empty or no point lies
    /// within the seed radius.
    ///
    /// The branch-and-bound starts with `init_best` as the incumbent
    /// distance instead of `+∞`, so any subtree farther than the seed is
    /// pruned before the walk begins. With a valid seed (any upper bound on
    /// the true NN distance, e.g. the paper's `Δ(q)` from Lemma 2.1) the
    /// result is identical to [`KdTree::nearest`]; `f64::INFINITY` recovers
    /// the unseeded search exactly.
    pub fn nearest_within(&self, q: Point, init_best: f64) -> Option<Neighbor> {
        if self.is_empty() {
            return None;
        }
        let mut best = Neighbor {
            id: usize::MAX,
            // `next_up` makes the seed radius inclusive under the strict
            // `<` comparisons below (a point at exactly `init_best` wins).
            dist: init_best.next_up(),
        };
        self.nearest_rec(0, q, &mut best);
        (best.id != usize::MAX).then_some(best)
    }

    fn nearest_rec(&self, node: u32, q: Point, best: &mut Neighbor) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) >= best.dist {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            // The gate threshold tightens as the incumbent improves; a
            // `Cell` lets the gate closure and the visitor share it.
            let bd = std::cell::Cell::new(best.dist);
            self.scan_below(n.start, n.end, q, &mut || bd.get(), &mut |slot, d| {
                if d < bd.get() {
                    *best = Neighbor {
                        id: self.ids[slot] as usize,
                        dist: d,
                    };
                    bd.set(d);
                }
            });
            return;
        }
        let (l, r) = (n.left, n.right);
        let dl = self.nodes[l as usize].bbox.min_dist2(q);
        let dr = self.nodes[r as usize].bbox.min_dist2(q);
        if dl <= dr {
            self.nearest_rec(l, q, best);
            self.nearest_rec(r, q, best);
        } else {
            self.nearest_rec(r, q, best);
            self.nearest_rec(l, q, best);
        }
    }

    /// The `m` nearest neighbors of `q`, sorted by increasing distance.
    ///
    /// This is the retrieval engine of spiral search (Theorem 4.7): the
    /// `m(ρ,ε)` closest locations of `S = ∪ P_i`.
    pub fn m_nearest(&self, q: Point, m: usize) -> Vec<Neighbor> {
        let mut heap = Vec::new();
        self.m_nearest_into(q, m, &mut heap);
        heap
    }

    /// [`KdTree::m_nearest`] into a caller-provided buffer (cleared first):
    /// per-round loops reuse one heap allocation across calls.
    pub fn m_nearest_into(&self, q: Point, m: usize, out: &mut Vec<Neighbor>) {
        out.clear();
        if self.is_empty() || m == 0 {
            return;
        }
        // Bounded max-heap on distance.
        out.reserve(m + 1);
        self.m_nearest_rec(0, q, m, out);
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    }

    fn m_nearest_rec(&self, node: u32, q: Point, m: usize, heap: &mut Vec<Neighbor>) {
        let n = &self.nodes[node as usize];
        let worst = if heap.len() < m {
            f64::INFINITY
        } else {
            heap[0].dist
        };
        if n.bbox.min_dist(q) >= worst {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            let cur_worst = std::cell::Cell::new(if heap.len() < m {
                f64::INFINITY
            } else {
                heap[0].dist
            });
            self.scan_below(
                n.start,
                n.end,
                q,
                &mut || cur_worst.get(),
                &mut |slot, d| {
                    if d < cur_worst.get() {
                        heap_push(
                            heap,
                            m,
                            Neighbor {
                                id: self.ids[slot] as usize,
                                dist: d,
                            },
                        );
                        cur_worst.set(if heap.len() < m {
                            f64::INFINITY
                        } else {
                            heap[0].dist
                        });
                    }
                },
            );
            return;
        }
        let (l, r) = (n.left, n.right);
        let dl = self.nodes[l as usize].bbox.min_dist2(q);
        let dr = self.nodes[r as usize].bbox.min_dist2(q);
        if dl <= dr {
            self.m_nearest_rec(l, q, m, heap);
            self.m_nearest_rec(r, q, m, heap);
        } else {
            self.m_nearest_rec(r, q, m, heap);
            self.m_nearest_rec(l, q, m, heap);
        }
    }

    /// Calls `visit(id, dist)` for every point within distance `r` of `q`
    /// (closed ball) under an output budget: stops and returns `false` as
    /// soon as reporting one more point would exceed `cap`. Returns `true`
    /// when every point in the ball was visited (`cap = usize::MAX` reports
    /// the whole ball).
    ///
    /// Callers use the budget to bound range-reporting cost when the ball
    /// could degenerate to a large fraction of the tree (the partial visits
    /// of an aborted call must be discarded).
    pub fn in_disk_capped<F: FnMut(usize, f64)>(
        &self,
        q: Point,
        r: f64,
        cap: usize,
        visit: &mut F,
    ) -> bool {
        if self.is_empty() || r < 0.0 {
            return true;
        }
        let mut budget = cap;
        self.in_disk_capped_rec(0, q, r, &mut budget, visit)
    }

    fn in_disk_capped_rec<F: FnMut(usize, f64)>(
        &self,
        node: u32,
        q: Point,
        r: f64,
        budget: &mut usize,
        visit: &mut F,
    ) -> bool {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) > r {
            unn_observe::kd_node_pruned();
            return true;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            // The batched scan cannot early-return mid-leaf; `ok` gates all
            // effects after an abort, so exactly `cap` points are visited
            // (the leftover lanes only compute distances).
            let mut ok = true;
            self.scan_below(n.start, n.end, q, &mut || r, &mut |slot, d| {
                if ok && d <= r {
                    if *budget == 0 {
                        ok = false;
                        return;
                    }
                    *budget -= 1;
                    unn_observe::ball_point();
                    visit(self.ids[slot] as usize, d);
                }
            });
            return ok;
        }
        self.in_disk_capped_rec(n.left, q, r, budget, visit)
            && self.in_disk_capped_rec(n.right, q, r, budget, visit)
    }

    /// Minimizes `eval(id)` over all points, where `eval(id)` must satisfy
    /// `eval(id) >= d(q, p_id) + min_aux_bound` with `min_aux_bound` the
    /// node's minimum auxiliary (pass `eval = d(q,·) + aux` for the
    /// additively-weighted nearest neighbor `Δ(q) = min_i d(q,c_i) + r_i`,
    /// or any more expensive exact evaluation such as a farthest-point
    /// distance with `aux = 0`).
    ///
    /// Pruning bound per subtree: `bbox.min_dist(q) + min_aux`.
    pub fn min_adjusted(&self, q: Point, eval: &dyn Fn(usize) -> f64) -> Option<(usize, f64)> {
        self.min_adjusted_from(q, f64::INFINITY, eval)
    }

    /// [`KdTree::min_adjusted`] seeded with an incumbent value `init`:
    /// subtrees whose bound cannot *strictly* beat `init` are pruned before
    /// the walk begins, and only a strictly better minimum is returned
    /// (`None` if nothing beats the incumbent, or the tree is empty).
    ///
    /// Threading the running minimum through a sequence of trees —
    /// `init = +∞`, then each call's result (when `Some`) — computes the
    /// global minimum over all of them with exactly the same value as
    /// independent searches folded by `min`; that is how the dynamic engine
    /// shares one Δ(q) bound across blocks.
    pub fn min_adjusted_from(
        &self,
        q: Point,
        init: f64,
        eval: &dyn Fn(usize) -> f64,
    ) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: (usize, f64) = (usize::MAX, init);
        self.min_adjusted_rec(0, q, eval, &mut best);
        (best.0 != usize::MAX).then_some(best)
    }

    fn min_adjusted_rec(
        &self,
        node: u32,
        q: Point,
        eval: &dyn Fn(usize) -> f64,
        best: &mut (usize, f64),
    ) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) + n.min_aux >= best.1 {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            for i in n.start..n.end {
                let id = self.ids[i as usize] as usize;
                let v = eval(id);
                if v < best.1 {
                    *best = (id, v);
                }
            }
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.min_dist(q) + self.nodes[l as usize].min_aux;
        let br = self.nodes[r as usize].bbox.min_dist(q) + self.nodes[r as usize].min_aux;
        if bl <= br {
            self.min_adjusted_rec(l, q, eval, best);
            self.min_adjusted_rec(r, q, eval, best);
        } else {
            self.min_adjusted_rec(r, q, eval, best);
            self.min_adjusted_rec(l, q, eval, best);
        }
    }

    /// Batched additively-weighted nearest neighbor over the stored points
    /// and their `lo` offsets: minimizes `d(q, p_i) + lo_i`, bit-identical
    /// to `min_adjusted(q, &|i| p_i.dist(q) + lo[i])` (same traversal, same
    /// leaf order, same scalar operation sequence per lane) but with the
    /// leaf evaluations running through the lane-chunked scan instead of a
    /// per-point closure.
    pub fn min_adjusted_weighted(&self, q: Point) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: (usize, f64) = (usize::MAX, f64::INFINITY);
        self.min_weighted_rec(0, q, &mut best);
        (best.0 != usize::MAX).then_some(best)
    }

    fn min_weighted_rec(&self, node: u32, q: Point, best: &mut (usize, f64)) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) + n.min_aux >= best.1 {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            self.scan(n.start, n.end, q, &mut |slot, d| {
                let v = d + self.aux_lo[slot];
                if v < best.1 {
                    *best = (self.ids[slot] as usize, v);
                }
            });
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.min_dist(q) + self.nodes[l as usize].min_aux;
        let br = self.nodes[r as usize].bbox.min_dist(q) + self.nodes[r as usize].min_aux;
        if bl <= br {
            self.min_weighted_rec(l, q, best);
            self.min_weighted_rec(r, q, best);
        } else {
            self.min_weighted_rec(r, q, best);
            self.min_weighted_rec(l, q, best);
        }
    }

    /// Minimum and second minimum of `eval(id)` in one pass:
    /// `Some((argmin, min, second))` where `second` is the minimum over all
    /// points other than the returned argmin occurrence (ties at the
    /// minimum land in `second`; `+∞` for a one-point tree), or `None` for
    /// an empty tree. `eval` must obey the [`KdTree::min_adjusted`]
    /// contract; the prune bound is the running *second* minimum, so each
    /// point is evaluated at most once — replacing the classic two-pass
    /// (min, then min-excluding-argmin) with identical results: the pass-2
    /// exclusion of the argmin index is exactly the single-instance
    /// exclusion the running pair performs.
    pub fn min_two_adjusted(
        &self,
        q: Point,
        eval: &dyn Fn(usize) -> f64,
    ) -> Option<(usize, f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: (usize, f64, f64) = (usize::MAX, f64::INFINITY, f64::INFINITY);
        self.min_two_rec(0, q, eval, &mut best);
        (best.0 != usize::MAX).then_some(best)
    }

    fn min_two_rec(
        &self,
        node: u32,
        q: Point,
        eval: &dyn Fn(usize) -> f64,
        best: &mut (usize, f64, f64),
    ) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) + n.min_aux >= best.2 {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            for i in n.start..n.end {
                let id = self.ids[i as usize] as usize;
                let v = eval(id);
                if v < best.1 {
                    best.2 = best.1;
                    best.1 = v;
                    best.0 = id;
                } else if v < best.2 {
                    best.2 = v;
                }
            }
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.min_dist(q) + self.nodes[l as usize].min_aux;
        let br = self.nodes[r as usize].bbox.min_dist(q) + self.nodes[r as usize].min_aux;
        if bl <= br {
            self.min_two_rec(l, q, eval, best);
            self.min_two_rec(r, q, eval, best);
        } else {
            self.min_two_rec(r, q, eval, best);
            self.min_two_rec(l, q, eval, best);
        }
    }

    /// Batched [`KdTree::min_two_adjusted`] over the stored `lo` offsets
    /// (`eval(i) = d(q, p_i) + lo_i`): the two-stage `NN≠0` front end's
    /// `(Δ₁, Δ₂)` in one lane-chunked walk.
    pub fn min_two_adjusted_weighted(&self, q: Point) -> Option<(usize, f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: (usize, f64, f64) = (usize::MAX, f64::INFINITY, f64::INFINITY);
        self.min_two_weighted_rec(0, q, &mut best);
        (best.0 != usize::MAX).then_some(best)
    }

    fn min_two_weighted_rec(&self, node: u32, q: Point, best: &mut (usize, f64, f64)) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) + n.min_aux >= best.2 {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            self.scan(n.start, n.end, q, &mut |slot, d| {
                let v = d + self.aux_lo[slot];
                if v < best.1 {
                    best.2 = best.1;
                    best.1 = v;
                    best.0 = self.ids[slot] as usize;
                } else if v < best.2 {
                    best.2 = v;
                }
            });
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.min_dist(q) + self.nodes[l as usize].min_aux;
        let br = self.nodes[r as usize].bbox.min_dist(q) + self.nodes[r as usize].min_aux;
        if bl <= br {
            self.min_two_weighted_rec(l, q, best);
            self.min_two_weighted_rec(r, q, best);
        } else {
            self.min_two_weighted_rec(r, q, best);
            self.min_two_weighted_rec(l, q, best);
        }
    }

    /// Batched stage-1 Δ(q) minimization over an external support-box
    /// family: minimizes `boxes.max_dist(id, q)` over all stored points,
    /// gathering [`LANES`] box evaluations per batch. Requires the usual
    /// [`KdTree::min_adjusted`] contract —
    /// `boxes.max_dist(id, q) >= d(q, p_id) + min_aux` for every stored
    /// point — which holds with all-zero aux whenever `p_id` lies inside
    /// `boxes[id]` (e.g. the boxes' centers). Bit-identical to
    /// `min_adjusted(q, &|i| boxes.get(i).max_dist(q))`.
    pub fn min_adjusted_boxes(&self, q: Point, boxes: &AabbSoA) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: (usize, f64) = (usize::MAX, f64::INFINITY);
        self.min_boxes_rec(0, q, boxes, &mut best);
        (best.0 != usize::MAX).then_some(best)
    }

    fn min_boxes_rec(&self, node: u32, q: Point, boxes: &AabbSoA, best: &mut (usize, f64)) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) + n.min_aux >= best.1 {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            let (s, e) = (n.start as usize, n.end as usize);
            unn_observe::leaf_points((e - s) as u64);
            let mut i = s;
            let batches = (e - s) / LANES;
            unn_observe::simd_batches_add(batches as u64);
            for _ in 0..batches {
                let vs = boxes.max_dist_lanes(&self.ids[i..i + LANES], q.x, q.y);
                for (l, &v) in vs.iter().enumerate() {
                    if v < best.1 {
                        *best = (self.ids[i + l] as usize, v);
                    }
                }
                i += LANES;
            }
            while i < e {
                let id = self.ids[i] as usize;
                let v = boxes.max_dist(id, q);
                if v < best.1 {
                    *best = (id, v);
                }
                i += 1;
            }
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.min_dist(q) + self.nodes[l as usize].min_aux;
        let br = self.nodes[r as usize].bbox.min_dist(q) + self.nodes[r as usize].min_aux;
        if bl <= br {
            self.min_boxes_rec(l, q, boxes, best);
            self.min_boxes_rec(r, q, boxes, best);
        } else {
            self.min_boxes_rec(r, q, boxes, best);
            self.min_boxes_rec(l, q, boxes, best);
        }
    }

    /// Best-first fold over the tree under a caller-maintained shrinking
    /// cap: points in a subtree with `bbox.min_dist(q) < cap` are handed
    /// to `visit`, which returns the (possibly tightened) cap for the rest
    /// of the walk; subtrees whose bound reaches the current cap are cut.
    /// Returns the final cap.
    ///
    /// Exactness contract (what makes the pruned fold equal the full scan):
    /// the caller's fold must be monotone (`visit` never *raises* the cap)
    /// and insensitive to skipped points — any point whose folded statistic
    /// is `>= cap` at the moment it would be visited must leave the fold's
    /// observable outputs unchanged, with the statistic bounded below by
    /// `d(q, p_id)`. [`DeltaCompose`](../unn_nonzero) under
    /// `prune_bound` satisfies both: its caps only depend on the minimum and
    /// second-minimum, and a Δ at or above the running second-minimum
    /// changes neither.
    ///
    /// The walk exercises that latitude at point granularity too: each
    /// leaf's center distances are computed in lane batches and slots with
    /// `d(q, p_id) >= cap` are skipped without calling `visit` — by the
    /// contract their statistic is `>= cap` and the fold ignores them. The
    /// final fold state and cap therefore equal those of a fold over every
    /// point.
    pub fn prune_with_cap(&self, q: Point, cap: f64, visit: &mut dyn FnMut(usize) -> f64) -> f64 {
        if self.is_empty() {
            return cap;
        }
        let mut cap = cap;
        self.prune_with_cap_rec(0, q, &mut cap, visit);
        cap
    }

    fn prune_with_cap_rec(
        &self,
        node: u32,
        q: Point,
        cap: &mut f64,
        visit: &mut dyn FnMut(usize) -> f64,
    ) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) >= *cap {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            // The gate admits `d <= cap`, a superset of the consumer's
            // strict `d < cap`, so it never drops a slot `visit` takes.
            let cap_cell = std::cell::Cell::new(*cap);
            self.scan_below(n.start, n.end, q, &mut || cap_cell.get(), &mut |slot, d| {
                if d < cap_cell.get() {
                    cap_cell.set(visit(self.ids[slot] as usize));
                }
            });
            *cap = cap_cell.get();
            return;
        }
        let (l, r) = (n.left, n.right);
        let dl = self.nodes[l as usize].bbox.min_dist2(q);
        let dr = self.nodes[r as usize].bbox.min_dist2(q);
        if dl <= dr {
            self.prune_with_cap_rec(l, q, cap, visit);
            self.prune_with_cap_rec(r, q, cap, visit);
        } else {
            self.prune_with_cap_rec(r, q, cap, visit);
            self.prune_with_cap_rec(l, q, cap, visit);
        }
    }

    /// Distance from `q` to the root bounding box (`+∞` for an empty tree):
    /// a lower bound on `d(q, p)` for every stored point, hence on any
    /// evaluation family with non-negative offsets. Callers use it to order
    /// whole trees best-first and to skip trees that cannot beat a running
    /// cap without touching a single node.
    pub fn root_min_dist(&self, q: Point) -> f64 {
        self.nodes
            .first()
            .map_or(f64::INFINITY, |n| n.bbox.min_dist(q))
    }

    /// `root_min_dist(q) + min_aux`: the [`KdTree::min_adjusted`] pruning
    /// bound of the whole tree (`+∞` when empty) — a lower bound on the
    /// tree's `min_adjusted` result under the same evaluation contract.
    pub fn root_lower_bound(&self, q: Point) -> f64 {
        self.nodes
            .first()
            .map_or(f64::INFINITY, |n| n.bbox.min_dist(q) + n.min_aux)
    }

    /// Reports every `id` with `eval(id) < t`, where
    /// `eval(id) >= d(q, p_id) - aux_id` (pass `eval = δ_i` with
    /// `aux = r_i` for disks, or `aux` = object extent for discrete points).
    ///
    /// Pruning bound per subtree: `bbox.min_dist(q) - max_aux`.
    pub fn report_adjusted_below(
        &self,
        q: Point,
        t: f64,
        eval: &dyn Fn(usize) -> f64,
        visit: &mut dyn FnMut(usize, f64),
    ) {
        if self.is_empty() {
            return;
        }
        self.report_rec(0, q, t, eval, visit);
    }

    fn report_rec(
        &self,
        node: u32,
        q: Point,
        t: f64,
        eval: &dyn Fn(usize) -> f64,
        visit: &mut dyn FnMut(usize, f64),
    ) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) - n.max_aux >= t {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            for i in n.start..n.end {
                let id = self.ids[i as usize] as usize;
                let v = eval(id);
                if v < t {
                    visit(id, v);
                }
            }
            return;
        }
        self.report_rec(n.left, q, t, eval, visit);
        self.report_rec(n.right, q, t, eval, visit);
    }

    /// Batched stage-2 ball reporter over the stored `hi` offsets: calls
    /// `visit(id, v)` for every point with
    /// `v = (d(q, p_i) - hi_i).max(0.0) < t` — the disk lower-envelope
    /// family `δ_i(q)` with `hi_i = r_i`. Bit-identical to
    /// [`KdTree::report_adjusted_below`] with that closure (same traversal,
    /// same leaf order, same scalar operation sequence per lane).
    pub fn report_ball_below(&self, q: Point, t: f64, visit: &mut dyn FnMut(usize, f64)) {
        if self.is_empty() {
            return;
        }
        self.report_ball_rec(0, q, t, visit);
    }

    fn report_ball_rec(&self, node: u32, q: Point, t: f64, visit: &mut dyn FnMut(usize, f64)) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) - n.max_aux >= t {
            unn_observe::kd_node_pruned();
            return;
        }
        unn_observe::kd_node_visited();
        if n.is_leaf() {
            self.scan(n.start, n.end, q, &mut |slot, d| {
                let v = (d - self.aux_hi[slot]).max(0.0);
                if v < t {
                    visit(self.ids[slot] as usize, v);
                }
            });
            return;
        }
        self.report_ball_rec(n.left, q, t, visit);
        self.report_ball_rec(n.right, q, t, visit);
    }
}

/// Recursive median-split build over `order` (original point indices);
/// appends this subtree's nodes to `nodes` and returns the subtree root.
/// `global_start` is the final arena position of `order[0]`.
fn build_rec(
    nodes: &mut Vec<Node>,
    points: &[Point],
    lo: &[f64],
    hi: &[f64],
    order: &mut [u32],
    global_start: usize,
    leaf: usize,
) -> u32 {
    // Compute bbox and aux range of this chunk.
    let mut bbox = Aabb::EMPTY;
    let mut min_aux = f64::INFINITY;
    let mut max_aux = f64::NEG_INFINITY;
    for &i in order.iter() {
        bbox.insert(points[i as usize]);
        min_aux = min_aux.min(lo[i as usize]);
        max_aux = max_aux.max(hi[i as usize]);
    }
    let idx = nodes.len() as u32;
    nodes.push(Node {
        bbox,
        min_aux,
        max_aux,
        left: u32::MAX,
        right: u32::MAX,
        start: global_start as u32,
        end: (global_start + order.len()) as u32,
    });
    if order.len() <= leaf {
        return idx;
    }
    // Split at the median of the wider dimension.
    let horizontal = bbox.width() >= bbox.height();
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (points[a as usize], points[b as usize]);
        if horizontal {
            pa.x.total_cmp(&pb.x)
        } else {
            pa.y.total_cmp(&pb.y)
        }
    });
    let (l, h) = order.split_at_mut(mid);
    let left = build_rec(nodes, points, lo, hi, l, global_start, leaf);
    let right = build_rec(nodes, points, lo, hi, h, global_start + mid, leaf);
    nodes[idx as usize].left = left;
    nodes[idx as usize].right = right;
    nodes[idx as usize].start = u32::MAX;
    nodes[idx as usize].end = u32::MAX;
    idx
}

#[inline]
pub(crate) fn heap_push(heap: &mut Vec<Neighbor>, m: usize, nb: Neighbor) {
    // Max-heap on dist, capped at m entries.
    heap.push(nb);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent].dist < heap[i].dist {
            heap.swap(parent, i);
            i = parent;
        } else {
            break;
        }
    }
    if heap.len() > m {
        // Pop the max (root).
        let last = heap.len() - 1;
        heap.swap(0, last);
        heap.pop();
        // Sift down.
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < heap.len() && heap[l].dist > heap[largest].dist {
                largest = l;
            }
            if r < heap.len() && heap[r].dist > heap[largest].dist {
                largest = r;
            }
            if largest == i {
                break;
            }
            heap.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    rng.random_range(-100.0..100.0),
                    rng.random_range(-100.0..100.0),
                )
            })
            .collect()
    }

    fn brute_nearest(pts: &[Point], q: Point) -> Neighbor {
        let mut best = Neighbor {
            id: usize::MAX,
            dist: f64::INFINITY,
        };
        for (i, p) in pts.iter().enumerate() {
            let d = p.dist(q);
            if d < best.dist {
                best = Neighbor { id: i, dist: d };
            }
        }
        best
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(500, 1);
        let tree = KdTree::new(&pts);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let got = tree.nearest(q).unwrap();
            let want = brute_nearest(&pts, q);
            assert_eq!(got.id, want.id, "q = {q:?}");
        }
    }

    #[test]
    fn m_nearest_matches_sorted_brute_force() {
        let pts = random_points(300, 3);
        let tree = KdTree::new(&pts);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..50 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            for m in [1, 5, 17, 300, 400] {
                let got = tree.m_nearest(q, m);
                let mut want: Vec<(usize, f64)> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.dist(q)))
                    .collect();
                want.sort_by(|a, b| a.1.total_cmp(&b.1));
                want.truncate(m);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.dist - w.1).abs() < 1e-12, "m={m}");
                }
            }
        }
    }

    #[test]
    fn in_disk_matches_brute_force() {
        let pts = random_points(400, 5);
        let tree = KdTree::new(&pts);
        let q = Point::new(10.0, -20.0);
        for r in [0.0, 5.0, 30.0, 300.0] {
            let mut got: Vec<usize> = Vec::new();
            assert!(tree.in_disk_capped(q, r, usize::MAX, &mut |id, _| got.push(id)));
            got.sort_unstable();
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(q) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "r = {r}");
        }
    }

    #[test]
    fn in_disk_capped_honors_budget() {
        let pts = random_points(400, 5);
        let tree = KdTree::new(&pts);
        let q = Point::new(10.0, -20.0);
        let r = 60.0;
        let full: usize = pts.iter().filter(|p| p.dist(q) <= r).count();
        assert!(full > 10, "workload too sparse for the test");
        // Generous budget: visits everything, returns true.
        let mut got: Vec<usize> = Vec::new();
        assert!(tree.in_disk_capped(q, r, full, &mut |id, _| got.push(id)));
        got.sort_unstable();
        let mut want: Vec<usize> = (0..pts.len()).filter(|&i| pts[i].dist(q) <= r).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // Tight budget: aborts, never visiting more than the cap.
        let mut count = 0usize;
        assert!(!tree.in_disk_capped(q, r, full - 1, &mut |_, _| count += 1));
        assert!(count < full);
    }

    #[test]
    fn weighted_min_matches_brute_force() {
        // Additively weighted NN: Delta(q) = min d(q,c_i) + r_i.
        let pts = random_points(300, 6);
        let mut rng = SmallRng::seed_from_u64(7);
        let radii: Vec<f64> = (0..pts.len())
            .map(|_| rng.random_range(0.1..20.0))
            .collect();
        let tree = KdTree::with_aux(&pts, &radii);
        for _ in 0..100 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let (id, v) = tree
                .min_adjusted(q, &|i| pts[i].dist(q) + radii[i])
                .unwrap();
            let (bid, bv) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.dist(q) + radii[i]))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(id, bid);
            assert!((v - bv).abs() < 1e-12);
            // The batched weighted form lands on the identical pair.
            assert_eq!(tree.min_adjusted_weighted(q), Some((id, v)));
        }
    }

    #[test]
    fn min_two_matches_two_pass_oracle() {
        let pts = random_points(300, 30);
        let mut rng = SmallRng::seed_from_u64(31);
        let radii: Vec<f64> = (0..pts.len())
            .map(|_| rng.random_range(0.1..20.0))
            .collect();
        let tree = KdTree::with_aux(&pts, &radii);
        let eval_at = |q: Point, i: usize| pts[i].dist(q) + radii[i];
        for _ in 0..100 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            // Classic two-pass: argmin, then min excluding that index.
            let (best, d1) = tree.min_adjusted(q, &|i| eval_at(q, i)).unwrap();
            let d2 = tree
                .min_adjusted(q, &|i| {
                    if i == best {
                        f64::INFINITY
                    } else {
                        eval_at(q, i)
                    }
                })
                .map_or(f64::INFINITY, |(_, v)| v);
            let got = tree.min_two_adjusted(q, &|i| eval_at(q, i)).unwrap();
            assert_eq!(got, (best, d1, d2), "closure single-pass at {q:?}");
            let gotw = tree.min_two_adjusted_weighted(q).unwrap();
            assert_eq!(gotw, (best, d1, d2), "weighted batched at {q:?}");
        }
        // Single-point tree: second is +infinity.
        let one = KdTree::with_aux(&pts[..1], &radii[..1]);
        let (_, _, d2) = one.min_two_adjusted_weighted(Point::ORIGIN).unwrap();
        assert!(d2.is_infinite());
        assert!(KdTree::new(&[])
            .min_two_adjusted_weighted(Point::ORIGIN)
            .is_none());
    }

    #[test]
    fn min_adjusted_boxes_matches_closure() {
        let pts = random_points(250, 32);
        let mut rng = SmallRng::seed_from_u64(33);
        let boxes: Vec<Aabb> = pts
            .iter()
            .map(|p| {
                let (w, h) = (rng.random_range(0.0..9.0), rng.random_range(0.0..9.0));
                Aabb::new(Point::new(p.x - w, p.y - h), Point::new(p.x + w, p.y + h))
            })
            .collect();
        let soa = AabbSoA::from_boxes(&boxes);
        let tree = KdTree::new(&pts);
        for _ in 0..80 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let want = tree.min_adjusted(q, &|i| boxes[i].max_dist(q)).unwrap();
            assert_eq!(tree.min_adjusted_boxes(q, &soa), Some(want));
        }
        assert!(KdTree::new(&[])
            .min_adjusted_boxes(Point::ORIGIN, &soa)
            .is_none());
    }

    #[test]
    fn config_layouts_answer_identically() {
        // Different leaf layouts permute the arena but cannot change any
        // nearest/ball answer; the default config must reproduce the
        // original LEAF_SIZE=8 layout's results exactly.
        let pts = random_points(300, 34);
        let trees = [
            KdTree::new(&pts),
            KdTree::with_config(&pts, KdConfig::scan_heavy()),
            KdTree::with_config(
                &pts,
                KdConfig {
                    leaf_size: 3,
                    brute_force_below: 0,
                },
            ),
            KdTree::with_config(
                &pts,
                KdConfig {
                    leaf_size: 8,
                    brute_force_below: 500,
                },
            ),
        ];
        assert!(trees[3].nodes.len() == 1, "brute_force_below must flatten");
        let mut rng = SmallRng::seed_from_u64(35);
        for _ in 0..60 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let want = trees[0].nearest(q).unwrap();
            for t in &trees[1..] {
                let got = t.nearest(q).unwrap();
                assert_eq!((got.id, got.dist.to_bits()), (want.id, want.dist.to_bits()));
            }
            // (dist, id)-lex-min ball folds are layout-invariant.
            let fold = |t: &KdTree| {
                let mut e = (f64::INFINITY, usize::MAX);
                t.in_disk_capped(q, 75.0, usize::MAX, &mut |id, d| {
                    if d < e.0 || (d == e.0 && id < e.1) {
                        e = (d, id);
                    }
                });
                e
            };
            let want_fold = fold(&trees[0]);
            for t in &trees[1..] {
                assert_eq!(fold(t), want_fold);
            }
        }
    }

    #[test]
    fn report_below_matches_brute_force() {
        // Stage 2 of NN!=0: report i with max(d - r, 0) < t.
        let pts = random_points(300, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        let radii: Vec<f64> = (0..pts.len())
            .map(|_| rng.random_range(0.1..20.0))
            .collect();
        let tree = KdTree::with_aux(&pts, &radii);
        for _ in 0..50 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let t = rng.random_range(1.0..60.0);
            let delta = |i: usize| (pts[i].dist(q) - radii[i]).max(0.0);
            let mut got: Vec<usize> = Vec::new();
            tree.report_adjusted_below(q, t, &delta, &mut |id, _| got.push(id));
            got.sort_unstable();
            let want: Vec<usize> = (0..pts.len()).filter(|&i| delta(i) < t).collect();
            assert_eq!(got, want);
            // Batched ball reporter: the same ids with the same values.
            let mut ball: Vec<(usize, u64)> = Vec::new();
            tree.report_ball_below(q, t, &mut |id, v| ball.push((id, v.to_bits())));
            ball.sort_unstable();
            let want_ball: Vec<(usize, u64)> =
                want.iter().map(|&i| (i, delta(i).to_bits())).collect();
            assert_eq!(ball, want_ball);
        }
    }

    #[test]
    fn prune_with_cap_min2_matches_full_scan() {
        // A (min, second-min) fold over d(q, p) where the cap is the running
        // second minimum — the monotone/insensitive shape the dynamic
        // engine's DeltaCompose fold has. The pruned walk must land on the
        // exact same pair as the full scan.
        let pts = random_points(400, 13);
        let tree = KdTree::new(&pts);
        let mut rng = SmallRng::seed_from_u64(14);
        for _ in 0..100 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let (mut lo, mut second) = (f64::INFINITY, f64::INFINITY);
            let fin = tree.prune_with_cap(q, f64::INFINITY, &mut |id: usize| {
                let d = pts[id].dist(q);
                if d < lo {
                    second = lo;
                    lo = d;
                } else if d < second {
                    second = d;
                }
                second
            });
            assert_eq!(fin, second, "returned cap at {q:?}");
            let mut dists: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
            dists.sort_by(f64::total_cmp);
            assert_eq!(lo, dists[0], "min diverged at {q:?}");
            assert_eq!(second, dists[1], "second-min diverged at {q:?}");
        }
    }

    #[test]
    fn min_adjusted_from_threads_incumbent_across_trees() {
        let pts = random_points(300, 15);
        let mut rng = SmallRng::seed_from_u64(16);
        let radii: Vec<f64> = (0..pts.len())
            .map(|_| rng.random_range(0.1..20.0))
            .collect();
        // Split into uneven chunks, one tree per chunk; threading the
        // incumbent through them must recover the exact global minimum.
        let cuts = [0usize, 7, 120, 121, 300];
        let trees: Vec<(usize, KdTree)> = cuts
            .windows(2)
            .map(|w| (w[0], KdTree::with_aux(&pts[w[0]..w[1]], &radii[w[0]..w[1]])))
            .collect();
        for _ in 0..60 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let mut incumbent = f64::INFINITY;
            for (off, tree) in &trees {
                if let Some((_, v)) =
                    tree.min_adjusted_from(q, incumbent, &|i| pts[off + i].dist(q) + radii[off + i])
                {
                    incumbent = v;
                }
            }
            let want = pts
                .iter()
                .zip(&radii)
                .map(|(p, r)| p.dist(q) + r)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(incumbent, want, "threaded minimum diverged at {q:?}");
        }
        // An incumbent at (or below) the tree minimum yields None.
        let q = Point::ORIGIN;
        let tree = KdTree::with_aux(&pts, &radii);
        let (_, v) = tree
            .min_adjusted(q, &|i| pts[i].dist(q) + radii[i])
            .unwrap();
        assert!(tree
            .min_adjusted_from(q, v, &|i| pts[i].dist(q) + radii[i])
            .is_none());
    }

    #[test]
    fn root_bounds_bound_every_result() {
        let pts = random_points(200, 17);
        let mut rng = SmallRng::seed_from_u64(18);
        let radii: Vec<f64> = (0..pts.len()).map(|_| rng.random_range(0.0..5.0)).collect();
        let tree = KdTree::with_aux(&pts, &radii);
        for _ in 0..50 {
            let q = Point::new(
                rng.random_range(-150.0..150.0),
                rng.random_range(-150.0..150.0),
            );
            let nn = tree.nearest(q).unwrap();
            assert!(tree.root_min_dist(q) <= nn.dist);
            let (_, v) = tree
                .min_adjusted(q, &|i| pts[i].dist(q) + radii[i])
                .unwrap();
            assert!(tree.root_lower_bound(q) <= v);
        }
        let empty = KdTree::new(&[]);
        assert!(empty.root_min_dist(Point::ORIGIN).is_infinite());
        assert!(empty.root_lower_bound(Point::ORIGIN).is_infinite());
        assert_eq!(
            empty.prune_with_cap(Point::ORIGIN, 3.0, &mut |_| unreachable!()),
            3.0
        );
    }

    #[test]
    fn with_aux_bounds_serves_asymmetric_offsets() {
        // lo feeds min_adjusted pruning, hi feeds report_adjusted_below:
        // the same tree answers both families exactly even when they differ.
        let pts = random_points(250, 19);
        let mut rng = SmallRng::seed_from_u64(20);
        let lo: Vec<f64> = (0..pts.len()).map(|_| rng.random_range(0.0..3.0)).collect();
        let hi: Vec<f64> = (0..pts.len())
            .map(|_| rng.random_range(5.0..15.0))
            .collect();
        let tree = KdTree::with_aux_bounds(&pts, &lo, &hi);
        for _ in 0..40 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let (id, v) = tree.min_adjusted(q, &|i| pts[i].dist(q) + lo[i]).unwrap();
            let (bid, bv) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.dist(q) + lo[i]))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(id, bid);
            assert_eq!(v, bv);
            assert_eq!(tree.min_adjusted_weighted(q), Some((id, v)));
            let t = rng.random_range(1.0..40.0);
            let delta = |i: usize| (pts[i].dist(q) - hi[i]).max(0.0);
            let mut got: Vec<usize> = Vec::new();
            tree.report_adjusted_below(q, t, &delta, &mut |i, _| got.push(i));
            got.sort_unstable();
            let want: Vec<usize> = (0..pts.len()).filter(|&i| delta(i) < t).collect();
            assert_eq!(got, want);
            let mut ball: Vec<usize> = Vec::new();
            tree.report_ball_below(q, t, &mut |i, _| ball.push(i));
            ball.sort_unstable();
            assert_eq!(ball, want);
        }
    }

    #[test]
    fn nearest_within_matches_unseeded() {
        let pts = random_points(500, 10);
        let tree = KdTree::new(&pts);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            let want = brute_nearest(&pts, q);
            // Any valid seed (>= true NN distance) gives the identical answer.
            for seed in [want.dist, want.dist * 1.5, want.dist + 10.0, f64::INFINITY] {
                let got = tree.nearest_within(q, seed).unwrap();
                assert_eq!(got.id, want.id, "seed = {seed}");
                assert_eq!(got.dist, want.dist);
            }
            // A seed strictly below the NN distance finds nothing.
            if want.dist > 0.0 {
                assert!(tree.nearest_within(q, want.dist * 0.999999).is_none());
            }
        }
    }

    #[test]
    fn m_nearest_into_reuses_buffer() {
        let pts = random_points(200, 12);
        let tree = KdTree::new(&pts);
        let mut buf = vec![Neighbor { id: 7, dist: -1.0 }; 3];
        let q = Point::new(3.0, -4.0);
        tree.m_nearest_into(q, 5, &mut buf);
        assert_eq!(buf, tree.m_nearest(q, 5));
        tree.m_nearest_into(q, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn empty_and_tiny_trees() {
        let empty = KdTree::new(&[]);
        assert!(empty.nearest(Point::ORIGIN).is_none());
        assert!(empty.m_nearest(Point::ORIGIN, 3).is_empty());
        assert!(empty
            .min_adjusted(Point::ORIGIN, &|_| unreachable!())
            .is_none());
        assert!(empty.min_adjusted_weighted(Point::ORIGIN).is_none());

        let one = KdTree::new(&[Point::new(1.0, 1.0)]);
        let nb = one.nearest(Point::ORIGIN).unwrap();
        assert_eq!(nb.id, 0);
        assert!((nb.dist - 2.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn duplicate_points_all_reported() {
        let pts = vec![Point::new(1.0, 1.0); 20];
        let tree = KdTree::new(&pts);
        let mut got = Vec::new();
        assert!(tree.in_disk_capped(Point::ORIGIN, 2.0, usize::MAX, &mut |id, _| got.push(id)));
        assert_eq!(got.len(), 20);
        let m = tree.m_nearest(Point::ORIGIN, 7);
        assert_eq!(m.len(), 7);
    }

    proptest! {
        #[test]
        fn prop_nearest_agrees(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..80),
            qx in -60.0f64..60.0, qy in -60.0f64..60.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let tree = KdTree::new(&pts);
            let q = Point::new(qx, qy);
            let got = tree.nearest(q).unwrap();
            let want = brute_nearest(&pts, q);
            prop_assert!((got.dist - want.dist).abs() < 1e-12);
        }

        #[test]
        fn prop_nearest_within_valid_seed_agrees(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..80),
            qx in -60.0f64..60.0, qy in -60.0f64..60.0,
            slack in 0.0f64..30.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let tree = KdTree::new(&pts);
            let q = Point::new(qx, qy);
            let want = brute_nearest(&pts, q);
            // Valid seeds: exactly the NN distance (Δ(q)-style tight bound),
            // any slack above it, and +∞ (the unseeded search).
            for seed in [want.dist, want.dist + slack, f64::INFINITY] {
                let got = tree.nearest_within(q, seed).unwrap();
                prop_assert_eq!(got.dist, pts[got.id].dist(q));
                prop_assert!((got.dist - want.dist).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_m_nearest_is_prefix_of_sort(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..60),
            qx in -60.0f64..60.0, qy in -60.0f64..60.0,
            m in 1usize..70,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let tree = KdTree::new(&pts);
            let q = Point::new(qx, qy);
            let got = tree.m_nearest(q, m);
            prop_assert_eq!(got.len(), m.min(pts.len()));
            // Sorted and matching the true distance multiset prefix.
            let mut dists: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
            dists.sort_by(f64::total_cmp);
            for (g, &w) in got.iter().zip(dists.iter()) {
                prop_assert!((g.dist - w).abs() < 1e-12);
            }
        }
    }
}
