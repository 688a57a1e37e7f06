//! Arena-packed forest of kd-trees.
//!
//! [`KdForest`] stores many small kd-trees ("rounds") in shared
//! structure-of-arrays arenas — nodes, `x[]`/`y[]` coordinates, original ids
//! — with per-round offset ranges instead of one heap-allocated
//! [`KdTree`](crate::KdTree) per round. The layout is *round-major*: round
//! `r`'s nodes and points are contiguous and rounds are laid out in build
//! order, so a query that sweeps rounds `0..s` (the Monte-Carlo
//! quantification loop of the paper's §4.2) walks the arenas strictly
//! forward. Compared to `s` independent trees this replaces `4s` allocations
//! with a handful and removes the per-round pointer chase, which is most of
//! the constant factor on the many-rounds/small-`n` regime the Chernoff
//! bound (Eq. 6) produces. Leaf scans run through the shared lane-chunked
//! kernel ([`crate::scan`]); the workspace tests check each query against a
//! flat scan of its round (DESIGN.md §8).
//!
//! Query support mirrors the per-round needs of the Monte-Carlo structure:
//! [`KdForest::nearest`], the seeded [`KdForest::nearest_within`] (for
//! `Δ(q)`-pruned descents, Lemma 2.1), and the buffer-reusing
//! [`KdForest::m_nearest_into`] (k-NN membership estimation).

use unn_geom::{Aabb, Point};

use crate::kdtree::Neighbor;
use crate::scan::scan_dists_below;

/// Max points per leaf (same policy as the [`crate::KdTree`] default).
const LEAF_SIZE: usize = 8;

/// One kd-node in the shared arena. Child and point ranges are *absolute*
/// indices into the forest arenas, so traversal never needs the per-round
/// offsets.
#[derive(Clone, Debug)]
struct ForestNode {
    bbox: Aabb,
    /// Children arena indices, or `u32::MAX` sentinel for leaves.
    left: u32,
    right: u32,
    /// Absolute range of points for leaves; unused for internal nodes.
    start: u32,
    end: u32,
}

impl ForestNode {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// A forest of kd-trees packed into contiguous shared arenas.
///
/// ```
/// use unn_geom::Point;
/// use unn_spatial::KdForest;
///
/// let mut forest = KdForest::new();
/// forest.push_round(&[Point::new(0.0, 0.0), Point::new(5.0, 5.0)]);
/// forest.push_round(&[Point::new(1.0, 0.0), Point::new(9.0, 9.0)]);
/// assert_eq!(forest.rounds(), 2);
/// assert_eq!(forest.nearest(1, Point::new(2.0, 0.0)).unwrap().id, 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct KdForest {
    nodes: Vec<ForestNode>,
    /// Reordered point coordinates, structure-of-arrays.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Original (within-round) index of each reordered point.
    ids: Vec<u32>,
    /// `nodes[node_off[r] as usize]` is round `r`'s root;
    /// `node_off.len() == rounds() + 1`.
    node_off: Vec<u32>,
    /// Round `r` owns `xs[pt_off[r]..pt_off[r+1]]` (and the same `ys`/`ids`
    /// ranges).
    pt_off: Vec<u32>,
}

impl KdForest {
    /// An empty forest.
    pub fn new() -> Self {
        KdForest {
            nodes: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            ids: Vec::new(),
            node_off: vec![0],
            pt_off: vec![0],
        }
    }

    /// An empty forest with arena capacity for `rounds` rounds of
    /// `pts_per_round` points each (one allocation per arena up front).
    pub fn with_capacity(rounds: usize, pts_per_round: usize) -> Self {
        let total_pts = rounds * pts_per_round;
        // Every split is a median split, so the node count per round is at
        // most 2·ceil(n/leaf) (a full binary tree over the leaves).
        let nodes_per_round = if pts_per_round == 0 {
            1
        } else {
            2 * pts_per_round.div_ceil(LEAF_SIZE)
        };
        let mut f = KdForest {
            nodes: Vec::with_capacity(rounds * nodes_per_round),
            xs: Vec::with_capacity(total_pts),
            ys: Vec::with_capacity(total_pts),
            ids: Vec::with_capacity(total_pts),
            node_off: Vec::with_capacity(rounds + 1),
            pt_off: Vec::with_capacity(rounds + 1),
        };
        f.node_off.push(0);
        f.pt_off.push(0);
        f
    }

    /// Number of rounds.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.pt_off.len() - 1
    }

    /// Number of points in round `round`.
    #[inline]
    pub fn round_len(&self, round: usize) -> usize {
        (self.pt_off[round + 1] - self.pt_off[round]) as usize
    }

    /// Total points across all rounds.
    #[inline]
    pub fn total_points(&self) -> usize {
        self.xs.len()
    }

    /// Round `round`'s arena slices: the (build-reordered) point
    /// coordinates `(xs, ys)` and their within-round original indices,
    /// aligned elementwise.
    ///
    /// This is the linear-scan escape hatch for callers that must stay
    /// *layout-invariant*: a fold over `(dist, ids[j])` pairs visits the
    /// same multiset regardless of the build permutation, whereas a tree
    /// descent's tie-breaking depends on it.
    #[inline]
    pub fn round_soa(&self, round: usize) -> (&[f64], &[f64], &[u32]) {
        let (a, b) = (self.pt_off[round] as usize, self.pt_off[round + 1] as usize);
        (&self.xs[a..b], &self.ys[a..b], &self.ids[a..b])
    }

    /// Appends one round built over `points`; rounds are queried by their
    /// push order.
    pub fn push_round(&mut self, points: &[Point]) {
        let pt_base = self.xs.len();
        if !points.is_empty() {
            let mut order: Vec<u32> = (0..points.len() as u32).collect();
            build_forest_rec(&mut self.nodes, points, &mut order, pt_base);
            // Scatter the build permutation into the SoA arenas.
            for &orig in &order {
                let p = points[orig as usize];
                self.xs.push(p.x);
                self.ys.push(p.y);
                self.ids.push(orig);
            }
        } else {
            // Empty round: a single empty leaf keeps offsets uniform.
            self.nodes.push(ForestNode {
                bbox: Aabb::EMPTY,
                left: u32::MAX,
                right: u32::MAX,
                start: pt_base as u32,
                end: pt_base as u32,
            });
        }
        self.node_off.push(self.nodes.len() as u32);
        self.pt_off.push(self.xs.len() as u32);
    }

    #[inline]
    fn root(&self, round: usize) -> u32 {
        self.node_off[round]
    }

    /// Nearest neighbor of `q` in round `round` (`None` for an empty
    /// round). Ids are round-local (`0..round_len(round)`).
    pub fn nearest(&self, round: usize, q: Point) -> Option<Neighbor> {
        self.nearest_within(round, q, f64::INFINITY)
    }

    /// Nearest neighbor of `q` in round `round` among points at distance
    /// `<= init_best` (closed ball), or `None` if no point qualifies.
    ///
    /// Seeding the incumbent with a valid upper bound on the NN distance —
    /// `Δ(q)` per Lemma 2.1 on the Monte-Carlo path — prunes most subtrees
    /// before the descent starts; `f64::INFINITY` recovers the unseeded
    /// search exactly.
    pub fn nearest_within(&self, round: usize, q: Point, init_best: f64) -> Option<Neighbor> {
        if self.round_len(round) == 0 {
            return None;
        }
        let mut best = Neighbor {
            id: usize::MAX,
            // Inclusive seed radius under the strict `<` comparisons below.
            dist: init_best.next_up(),
        };
        self.nearest_rec(self.root(round), q, &mut best);
        (best.id != usize::MAX).then_some(best)
    }

    fn nearest_rec(&self, node: u32, q: Point, best: &mut Neighbor) {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q) >= best.dist {
            unn_observe::forest_node_pruned();
            return;
        }
        unn_observe::forest_node_visited();
        if n.is_leaf() {
            // Shared moving gate threshold, as in `KdTree::nearest_rec`.
            let bd = std::cell::Cell::new(best.dist);
            scan_dists_below(
                &self.xs,
                &self.ys,
                n.start as usize,
                n.end as usize,
                q,
                &mut || bd.get(),
                &mut |slot, d| {
                    if d < bd.get() {
                        *best = Neighbor {
                            id: self.ids[slot] as usize,
                            dist: d,
                        };
                        bd.set(d);
                    }
                },
            );
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

    /// The `m` nearest neighbors of `q` in round `round`, written into
    /// `out` (cleared first) sorted by increasing distance — the
    /// buffer-reusing engine of per-round k-NN loops.
    pub fn m_nearest_into(&self, round: usize, q: Point, m: usize, out: &mut Vec<Neighbor>) {
        out.clear();
        if self.round_len(round) == 0 || m == 0 {
            return;
        }
        out.reserve(m + 1);
        self.m_nearest_rec(self.root(round), q, m, out);
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
            unn_observe::forest_node_pruned();
            return;
        }
        unn_observe::forest_node_visited();
        if n.is_leaf() {
            // The gate admits `d <= worst`, a superset of the consumer's
            // strict `d < worst`, so the heap sees every slot it accepts.
            let cur_worst = std::cell::Cell::new(if heap.len() < m {
                f64::INFINITY
            } else {
                heap[0].dist
            });
            scan_dists_below(
                &self.xs,
                &self.ys,
                n.start as usize,
                n.end as usize,
                q,
                &mut || cur_worst.get(),
                &mut |slot, d| {
                    if d < cur_worst.get() {
                        crate::kdtree::heap_push(
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
}

/// Recursive median-split build over `order` (round-local point indices
/// into `points`); `chunk_start` is the absolute arena position of
/// `order[0]`'s final slot. Appends this subtree's nodes and returns its
/// root index.
fn build_forest_rec(
    nodes: &mut Vec<ForestNode>,
    points: &[Point],
    order: &mut [u32],
    chunk_start: usize,
) -> u32 {
    let mut bbox = Aabb::EMPTY;
    for &i in order.iter() {
        bbox.insert(points[i as usize]);
    }
    let idx = nodes.len() as u32;
    nodes.push(ForestNode {
        bbox,
        left: u32::MAX,
        right: u32::MAX,
        start: chunk_start as u32,
        end: (chunk_start + order.len()) as u32,
    });
    if order.len() <= LEAF_SIZE {
        return idx;
    }
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
    let (lo, hi) = order.split_at_mut(mid);
    let left = build_forest_rec(nodes, points, lo, chunk_start);
    let right = build_forest_rec(nodes, points, hi, chunk_start + mid);
    nodes[idx as usize].left = left;
    nodes[idx as usize].right = right;
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KdTree;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn random_rounds(rounds: usize, n: usize, seed: u64) -> Vec<Vec<Point>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..rounds)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        Point::new(
                            rng.random_range(-100.0..100.0),
                            rng.random_range(-100.0..100.0),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forest_matches_independent_trees() {
        let rounds = random_rounds(40, 37, 20);
        let mut forest = KdForest::with_capacity(rounds.len(), 37);
        let trees: Vec<KdTree> = rounds.iter().map(|r| KdTree::new(r)).collect();
        for r in &rounds {
            forest.push_round(r);
        }
        assert_eq!(forest.rounds(), 40);
        assert_eq!(forest.total_points(), 40 * 37);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut buf = Vec::new();
        for _ in 0..50 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            for (r, tree) in trees.iter().enumerate() {
                let want = tree.nearest(q).unwrap();
                let got = forest.nearest(r, q).unwrap();
                assert_eq!(got.id, want.id);
                assert_eq!(got.dist, want.dist);
                for m in [1usize, 3, 11] {
                    forest.m_nearest_into(r, q, m, &mut buf);
                    assert_eq!(buf, tree.m_nearest(q, m));
                }
            }
        }
    }

    #[test]
    fn round_soa_exposes_build_permutation() {
        let rounds = random_rounds(5, 23, 24);
        let mut forest = KdForest::new();
        for r in &rounds {
            forest.push_round(r);
        }
        for (r, pts) in rounds.iter().enumerate() {
            let (xs, ys, ids) = forest.round_soa(r);
            assert_eq!(xs.len(), pts.len());
            assert_eq!(ys.len(), pts.len());
            let mut seen: Vec<u32> = ids.to_vec();
            for ((&x, &y), &id) in xs.iter().zip(ys).zip(ids) {
                assert_eq!(x.to_bits(), pts[id as usize].x.to_bits());
                assert_eq!(y.to_bits(), pts[id as usize].y.to_bits());
            }
            seen.sort_unstable();
            let want: Vec<u32> = (0..pts.len() as u32).collect();
            assert_eq!(seen, want, "round {r} ids are a permutation");
        }
    }

    #[test]
    fn seeded_search_matches_unseeded() {
        let rounds = random_rounds(25, 64, 22);
        let mut forest = KdForest::new();
        for r in &rounds {
            forest.push_round(r);
        }
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..100 {
            let q = Point::new(
                rng.random_range(-120.0..120.0),
                rng.random_range(-120.0..120.0),
            );
            for (r, pts) in rounds.iter().enumerate() {
                // Flat scan of the round: (distance, index)-lex minimum.
                let want = pts
                    .iter()
                    .enumerate()
                    .map(|(id, p)| Neighbor {
                        id,
                        dist: p.dist(q),
                    })
                    .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
                    .unwrap();
                for seed in [want.dist, want.dist * 2.0, f64::INFINITY] {
                    let got = forest.nearest_within(r, q, seed).unwrap();
                    assert_eq!(got.id, want.id, "round {r} seed {seed}");
                    assert_eq!(got.dist, want.dist);
                }
                if want.dist > 0.0 {
                    assert!(forest.nearest_within(r, q, want.dist * 0.5).is_none());
                }
            }
        }
    }

    #[test]
    fn empty_and_uneven_rounds() {
        let mut forest = KdForest::new();
        forest.push_round(&[]);
        forest.push_round(&[Point::new(1.0, 2.0)]);
        forest.push_round(&[]);
        let many: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        forest.push_round(&many);
        assert_eq!(forest.rounds(), 4);
        assert!(forest.nearest(0, Point::ORIGIN).is_none());
        assert_eq!(forest.nearest(1, Point::ORIGIN).unwrap().id, 0);
        assert!(forest.nearest(2, Point::ORIGIN).is_none());
        assert_eq!(forest.nearest(3, Point::new(41.2, 0.0)).unwrap().id, 41);
        let mut buf = Vec::new();
        forest.m_nearest_into(0, Point::ORIGIN, 3, &mut buf);
        assert!(buf.is_empty());
        forest.m_nearest_into(3, Point::new(-5.0, 0.0), 2, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].id, 0);
        assert_eq!(buf[1].id, 1);
    }

    proptest! {
        #[test]
        fn prop_forest_nearest_within_agrees_with_scan(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..60),
            qx in -60.0f64..60.0, qy in -60.0f64..60.0,
            slack in 0.0f64..25.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let mut forest = KdForest::new();
            forest.push_round(&pts);
            let q = Point::new(qx, qy);
            let want = pts
                .iter()
                .map(|p| p.dist(q))
                .min_by(f64::total_cmp)
                .unwrap();
            for seed in [want, want + slack, f64::INFINITY] {
                let got = forest.nearest_within(0, q, seed).unwrap();
                prop_assert_eq!(got.dist, pts[got.id].dist(q));
                prop_assert!((got.dist - want).abs() < 1e-12);
            }
        }
    }
}
