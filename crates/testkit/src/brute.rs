//! Brute-force references: each answer the kd kernels, the Monte-Carlo
//! index and the dynamic snapshot compute, recomputed from its definition
//! by a flat scan.
//!
//! A reference shares no traversal, pruning or layout with the code it
//! checks, so a pruning bug that drops a point shows up as a wrong answer.
//! It does share every *comparison* with the method it mirrors — the same
//! strict or closed bound, the same `f64` operation sequence per point —
//! so the two agree bit for bit, including where a distance overflows to
//! `+∞` (`nearest_within` admits `d < init.next_up()`, which excludes an
//! infinite distance on both sides).
//!
//! Where a tree may legitimately return any of several equal answers (a
//! distance tie broken by traversal order), the reference returns the whole
//! tie set as an [`Argmin`]; callers compare ids exactly when the answer is
//! unique and by membership otherwise.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use unn::dynamic::PointId;
use unn::quantify::point_stream_seed;
use unn::AdaptiveQuantify;
use unn_distr::{Uncertain, UncertainPoint};
use unn_geom::{AabbSoA, Point};
use unn_nonzero::DeltaCompose;
use unn_spatial::Neighbor;

/// The answer to an argmin query: the minimal value and every id that
/// attains it, ascending.
#[derive(Clone, Debug, PartialEq)]
pub struct Argmin {
    /// The minimal value.
    pub value: f64,
    /// Every id whose value equals [`Argmin::value`], ascending.
    pub ties: Vec<usize>,
}

impl Argmin {
    /// `true` when `(id, value)` is an answer the reference allows: the
    /// same value bits and an id in the tie set.
    pub fn admits(&self, id: usize, value: f64) -> bool {
        value.to_bits() == self.value.to_bits() && self.ties.contains(&id)
    }
}

/// Minimum of `values` over the entries with `v < below`, with its tie
/// set; `None` when no entry qualifies.
fn argmin(values: impl Iterator<Item = (usize, f64)>, below: f64) -> Option<Argmin> {
    let mut best: Option<Argmin> = None;
    for (id, v) in values.filter(|&(_, v)| v < below) {
        match &mut best {
            Some(b) if v > b.value => {}
            Some(b) if v == b.value => b.ties.push(id),
            _ => {
                best = Some(Argmin {
                    value: v,
                    ties: vec![id],
                })
            }
        }
    }
    best
}

/// [`KdTree::nearest_within`](unn_spatial::KdTree::nearest_within) and
/// [`KdForest::nearest_within`](unn_spatial::KdForest::nearest_within):
/// the nearest point at distance `< init.next_up()`, i.e. inside the closed
/// ball of radius `init`.
pub fn nearest_within(pts: &[Point], q: Point, init: f64) -> Option<Argmin> {
    argmin(
        pts.iter().enumerate().map(|(i, p)| (i, p.dist(q))),
        init.next_up(),
    )
}

/// [`KdTree::m_nearest_into`](unn_spatial::KdTree::m_nearest_into) and
/// [`KdForest::m_nearest_into`](unn_spatial::KdForest::m_nearest_into):
/// the `m` nearest points at finite distance, sorted by `(distance, id)`.
/// Only the ids at the last distance can differ in a correct answer (which
/// of several tied points fills the final slots); see [`ties_at`].
pub fn m_nearest(pts: &[Point], q: Point, m: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = pts
        .iter()
        .enumerate()
        .map(|(id, p)| Neighbor {
            id,
            dist: p.dist(q),
        })
        .filter(|n| n.dist < f64::INFINITY)
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    all.truncate(m);
    all
}

/// Every id at distance exactly `d` from `q`, ascending.
pub fn ties_at(pts: &[Point], q: Point, d: f64) -> Vec<usize> {
    (0..pts.len())
        .filter(|&i| pts[i].dist(q).to_bits() == d.to_bits())
        .collect()
}

/// [`KdTree::in_disk_capped`](unn_spatial::KdTree::in_disk_capped) with an
/// unlimited budget: every `(id, distance)` with `distance <= r`, id order.
pub fn closed_ball(pts: &[Point], q: Point, r: f64) -> Vec<(usize, f64)> {
    pts.iter()
        .enumerate()
        .map(|(i, p)| (i, p.dist(q)))
        .filter(|&(_, d)| d <= r)
        .collect()
}

/// [`KdTree::report_ball_below`](unn_spatial::KdTree::report_ball_below):
/// every `(id, v)` with `v = (d(q, p_id) - hi_id).max(0) < t`, id order.
pub fn report_ball_below(pts: &[Point], hi: &[f64], q: Point, t: f64) -> Vec<(usize, f64)> {
    pts.iter()
        .zip(hi)
        .enumerate()
        .map(|(i, (p, &h))| (i, (p.dist(q) - h).max(0.0)))
        .filter(|&(_, v)| v < t)
        .collect()
}

/// [`KdTree::min_adjusted_weighted`](unn_spatial::KdTree::min_adjusted_weighted):
/// the minimum of `d(q, p_id) + lo_id` below `+∞`.
pub fn min_adjusted_weighted(pts: &[Point], lo: &[f64], q: Point) -> Option<Argmin> {
    argmin(
        pts.iter()
            .zip(lo)
            .enumerate()
            .map(|(i, (p, &l))| (i, p.dist(q) + l)),
        f64::INFINITY,
    )
}

/// [`KdTree::min_two_adjusted_weighted`](unn_spatial::KdTree::min_two_adjusted_weighted):
/// the [`min_adjusted_weighted`] answer and the minimum over every point
/// but one argmin occurrence (equal to the minimum when it is tied, `+∞`
/// when nothing else is left).
pub fn min_two_adjusted_weighted(pts: &[Point], lo: &[f64], q: Point) -> Option<(Argmin, f64)> {
    let best = min_adjusted_weighted(pts, lo, q)?;
    let second = if best.ties.len() > 1 {
        best.value
    } else {
        pts.iter()
            .zip(lo)
            .enumerate()
            .filter(|&(i, _)| i != best.ties[0])
            .map(|(_, (p, &l))| p.dist(q) + l)
            .fold(f64::INFINITY, f64::min)
    };
    Some((best, second))
}

/// [`KdTree::min_adjusted_boxes`](unn_spatial::KdTree::min_adjusted_boxes)
/// over a tree holding one point per box: the minimum of
/// `boxes.max_dist(id, q)` below `+∞`. Also the Monte-Carlo index's
/// [`prune_radius`](unn::quantify::MonteCarloIndex::prune_radius) over the
/// support boxes.
pub fn min_adjusted_boxes(boxes: &AabbSoA, q: Point) -> Option<Argmin> {
    argmin(
        (0..boxes.len()).map(|i| (i, boxes.max_dist(i, q))),
        f64::INFINITY,
    )
}

/// The fold [`KdTree::prune_with_cap`](unn_spatial::KdTree::prune_with_cap)
/// must land on: `fold` after observing `(d(q, p_id) + lo_id, id)` for
/// every point.
pub fn delta_fold(pts: &[Point], lo: &[f64], q: Point, mut fold: DeltaCompose) -> DeltaCompose {
    for (i, (p, &l)) in pts.iter().zip(lo).enumerate() {
        fold.observe(p.dist(q) + l, i as u64);
    }
    fold
}

/// The `s` instantiations [`MonteCarloIndex::build`](unn::quantify::MonteCarloIndex::build)
/// draws from `rng`: round-major, one `p.sample(rng)` per point per round.
pub fn mc_rounds(points: &[Uncertain], s: usize, rng: &mut dyn Rng) -> Vec<Vec<Point>> {
    (0..s)
        .map(|_| points.iter().map(|p| p.sample(rng)).collect())
        .collect()
}

/// Each round's winner for `q`: the object nearest to `q` in that
/// instantiation, with every tied object.
pub fn mc_winners(rounds: &[Vec<Point>], q: Point) -> Vec<Option<Argmin>> {
    rounds
        .iter()
        .map(|pts| nearest_within(pts, q, f64::INFINITY))
        .collect()
}

/// `π̂` over `n` objects from per-round winners, each round counted for its
/// smallest tied object, in the index's `count · (1/s)` arithmetic.
pub fn mc_pi(winners: &[Option<Argmin>], n: usize) -> Vec<f64> {
    let mut pi = vec![0.0; n];
    for w in winners.iter().flatten() {
        pi[w.ties[0]] += 1.0;
    }
    let w = 1.0 / winners.len() as f64;
    for x in pi.iter_mut() {
        *x *= w;
    }
    pi
}

/// The adaptive Monte-Carlo stopping rule over a winner sequence, from its
/// definition: checkpoints double from `min_rounds` (clamped to `[1, s]`)
/// and saturate at `s = max_rounds` clamped to `[1, winners.len()]`; with
/// `K` checkpoints, `u = K·n/δ`, the Hoeffding half-width after `t`
/// rounds is `√(ln(4u)/2t)` and the empirical-Bernstein one is
/// `√(2·v·ln(6u)/t) + 7·ln(6u)/(3(t − 1))` at the largest `v = p(1 − p)`,
/// `p = count/t`, over **all** `n` dense counts (Hoeffding alone at
/// `t < 2`). The fold stops at the first checkpoint whose tighter
/// half-width is `≤ eps`; `π̂_i = count_i · (1/t)`. Out-of-range winners
/// count as rounds but for no slot. Mirrors
/// [`adaptive_over_winners`](unn::quantify::adaptive_over_winners) and
/// `MonteCarloIndex::quantify_adaptive_capped`.
pub fn adaptive_fold(
    winners: &[u32],
    n: usize,
    eps: f64,
    delta: f64,
    min_rounds: usize,
    max_rounds: usize,
) -> AdaptiveQuantify {
    if n == 0 || winners.is_empty() {
        return AdaptiveQuantify {
            pi: Vec::new(),
            rounds_used: 0,
            half_width: 0.0,
        };
    }
    let s = max_rounds.clamp(1, winners.len());
    let mut checkpoints = vec![min_rounds.clamp(1, s)];
    while let Some(&t) = checkpoints.last().filter(|&&t| t < s) {
        checkpoints.push((t * 2).min(s));
    }
    let union = checkpoints.len() as f64 * n as f64 / delta;
    let (l_hoeff, l_bern) = ((4.0 * union).ln(), (6.0 * union).ln());
    let mut counts = vec![0u32; n];
    let mut used = 0;
    let mut half_width = f64::INFINITY;
    for &w in &winners[..s] {
        if let Some(c) = counts.get_mut(w as usize) {
            *c += 1;
        }
        used += 1;
        if !checkpoints.contains(&used) {
            continue;
        }
        let t = used as f64;
        let hoeff = (l_hoeff / (2.0 * t)).sqrt();
        half_width = if used < 2 {
            hoeff
        } else {
            let mut vmax = 0.0f64;
            for &c in &counts {
                let p = f64::from(c) / t;
                vmax = vmax.max(p * (1.0 - p));
            }
            hoeff.min((2.0 * vmax * l_bern / t).sqrt() + 7.0 * l_bern / (3.0 * (t - 1.0)))
        };
        if half_width <= eps {
            break;
        }
    }
    let w = 1.0 / used as f64;
    AdaptiveQuantify {
        pi: counts.iter().map(|&c| f64::from(c) * w).collect(),
        rounds_used: used,
        half_width,
    }
}

/// `NN≠0(q)` over a live set (Lemma 2.1), ascending: a [`DeltaCompose`]
/// over every live `max_dist`, keeping each id with
/// `min_dist < cap_for(id)`.
pub fn nn_nonzero(live: &[(PointId, Uncertain)], q: Point) -> Vec<PointId> {
    let mut fold = DeltaCompose::new();
    for (id, p) in live {
        fold.observe(p.max_dist(q), *id);
    }
    let mut out: Vec<PointId> = live
        .iter()
        .filter(|(id, p)| p.min_dist(q) < fold.cap_for(*id))
        .map(|(id, _)| *id)
        .collect();
    out.sort_unstable();
    out
}

/// The dynamic snapshot's Monte-Carlo `π̂` over a live set sorted by id:
/// each point draws its `s` samples from its own
/// [`point_stream_seed`]`(seed, id)` stream; each round's winner is the
/// `(distance, id)`-lex minimum; `π̂_i = count_i · (1/s)`, indexed like
/// `live`.
pub fn quantify(live: &[(PointId, Uncertain)], seed: u64, s: usize, q: Point) -> Vec<f64> {
    if live.is_empty() {
        return Vec::new();
    }
    let samples: Vec<Vec<Point>> = live
        .iter()
        .map(|(id, p)| {
            let mut rng = SmallRng::seed_from_u64(point_stream_seed(seed, *id));
            (0..s).map(|_| p.sample(&mut rng)).collect()
        })
        .collect();
    let mut counts = vec![0u32; live.len()];
    for r in 0..s {
        let mut best = (f64::INFINITY, PointId::MAX, 0usize);
        for (rank, ((id, _), pts)) in live.iter().zip(&samples).enumerate() {
            let d = pts[r].dist(q);
            if d < best.0 || (d == best.0 && *id < best.1) {
                best = (d, *id, rank);
            }
        }
        counts[best.2] += 1;
    }
    let inv = 1.0 / (s as f64);
    counts.into_iter().map(|c| f64::from(c) * inv).collect()
}
