//! The Monte-Carlo quantification structure (paper §4.2).
//!
//! Preprocessing draws `s` *instantiations* of the uncertain set — one
//! location per uncertain point — and indexes each for nearest-neighbor
//! queries. A query finds the NN owner in every instantiation and estimates
//! `π̂_i(q) = c_i / s`. The Chernoff–Hoeffding bound (Eq. 6) plus a union
//! bound over the `O(N⁴)` cells of the probabilistic Voronoi diagram
//! (Lemma 4.1) gives Theorem 4.3:
//! `s = (1/2ε²)·ln(2n|Q|/δ)` rounds suffice for `|π̂_i − π_i| ≤ ε`
//! everywhere, with probability `≥ 1 − δ`. Continuous distributions reduce
//! to the discrete case by Theorem 4.5's sampling argument (Lemma 4.4).
//!
//! The paper prescribes "Voronoi diagram + point location" per round; the
//! default backend here packs all `s` per-round kd-trees into one
//! round-major [`KdForest`] arena, with the Delaunay-based nearest-site
//! structure available for the E14 ablation. Three query-time optimizations
//! make this the hot path of the batch engine:
//!
//! 1. **`Δ(q)` pruning (Lemma 2.1).** In every instantiation, point `j`'s
//!    location is within `Δ_j(q)` of `q`, so the NN distance never exceeds
//!    `Δ(q) = min_j Δ_j(q)`. [`MonteCarloIndex::prune_radius`] computes a
//!    cheap upper bound on `Δ(q)` once per query (additively-weighted NN
//!    over the support bounding boxes, via `KdTree::min_adjusted`). The
//!    fixed-`s` query then answers *all* `s` rounds with **one** range
//!    traversal: a single kd-tree over all `s·n` instantiations reports
//!    every location inside the `Δ(q)` ball, and a per-round fold keeps each
//!    round's minimum. A nonempty ball always contains that round's true NN
//!    (the NN is the distance minimum), so the fold is exact; a round the
//!    ball misses entirely (last-ulp rounding of the seed) falls back to a
//!    seeded descent. This replaces `s` root-to-leaf walks with one walk
//!    whose cost is `O(log(sn) + output)`.
//! 2. **Arena-packed rounds.** The per-round trees live in one round-major
//!    [`KdForest`] arena — memory moves strictly forward over rounds
//!    instead of chasing `s` separately allocated trees (the unpruned,
//!    Delaunay, and adaptive paths use these descents).
//! 3. **Adaptive early stopping.** Because rounds are pre-drawn and
//!    consumed in build order, any prefix of rounds is itself an unbiased
//!    estimator; [`MonteCarloIndex::quantify_adaptive`] stops as soon as a
//!    Hoeffding *or* empirical-Bernstein confidence half-width (in the
//!    style of Mnih–Szepesvári–Audibert, ICML 2008) certifies the requested
//!    accuracy, and reports the rounds actually consumed.

use rand::Rng;
use unn_distr::{Uncertain, UncertainPoint};
use unn_geom::{Aabb, AabbSoA, Point};
use unn_spatial::{KdConfig, KdForest, KdTree, Neighbor};
use unn_voronoi::Delaunay;

/// Per-round nearest-neighbor backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McBackend {
    /// All rounds' kd-trees packed into one [`KdForest`] arena (default).
    KdTree,
    /// Delaunay triangulation per instantiation (the paper's Voronoi
    /// point-location narrative; E14 ablation).
    Delaunay,
}

enum McStorage {
    /// Round-major arena of kd-trees.
    Forest(KdForest),
    /// One Delaunay triangulation per round.
    Del(Vec<Delaunay>),
}

/// Default first checkpoint of the adaptive stopping rule.
pub const ADAPTIVE_MIN_ROUNDS: usize = 32;

/// Result of [`MonteCarloIndex::quantify_adaptive`]: the estimates plus how
/// much work the stopping rule actually spent and what accuracy it
/// certified.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveQuantify {
    /// `π̂_i` over the consumed prefix of rounds (dense, sums to 1).
    pub pi: Vec<f64>,
    /// Rounds consumed before the half-width dropped below the target (or
    /// all of `s` if it never did).
    pub rounds_used: usize,
    /// The certified half-width at stopping: with probability `≥ 1 − δ`,
    /// every `|π̂_i − π_i|` is at most this.
    pub half_width: f64,
}

/// Monte-Carlo estimator of all quantification probabilities.
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use unn_distr::Uncertain;
/// use unn_geom::Point;
/// use unn_quantify::{McBackend, MonteCarloIndex};
///
/// let points = vec![
///     Uncertain::uniform_disk(Point::new(-5.0, 0.0), 1.0),
///     Uncertain::uniform_disk(Point::new(5.0, 0.0), 1.0),
/// ];
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mc = MonteCarloIndex::build(&points, 2000, McBackend::KdTree, &mut rng);
/// let pi = mc.query(Point::new(0.0, 0.0)); // symmetric: both ~1/2
/// assert!((pi[0] - 0.5).abs() < 0.1);
/// // Adaptive stopping certifies ±0.1 with far fewer than 2000 rounds.
/// let a = mc.quantify_adaptive(Point::new(0.0, 0.0), 0.1, 0.01);
/// assert!(a.rounds_used <= 2000 && a.half_width <= 0.1);
/// ```
pub struct MonteCarloIndex {
    storage: McStorage,
    n: usize,
    s: usize,
    /// Per-point support bounding boxes in SoA layout:
    /// `support.max_dist(i, q)` is an upper bound on the paper's `Δ_i(q)`.
    support: AabbSoA,
    /// Kd-tree over the support-box centers; `min_adjusted_boxes` over it
    /// minimizes `support.max_dist(i, q)` — the `Δ(q)` seed radius —
    /// gathering four box evaluations per lane batch.
    delta_tree: KdTree,
    /// One kd-tree over all `s·n` instantiations in generation order
    /// (point `r·n + i` is object `i`'s location in round `r`): the
    /// single-traversal engine of the pruned fixed-`s` query. Only built
    /// for the forest backend.
    global: Option<KdTree>,
}

impl MonteCarloIndex {
    /// Builds the structure with `s` instantiations of `points`.
    pub fn build(points: &[Uncertain], s: usize, backend: McBackend, rng: &mut dyn Rng) -> Self {
        assert!(s > 0, "need at least one round");
        let n = points.len();
        let mut insts: Vec<Point> = Vec::with_capacity(n);
        let (storage, global) = match backend {
            McBackend::KdTree => {
                let mut forest = KdForest::with_capacity(s, n);
                let mut all: Vec<Point> = Vec::with_capacity(s * n);
                for _ in 0..s {
                    insts.clear();
                    insts.extend(points.iter().map(|p| p.sample(rng)));
                    all.extend_from_slice(&insts);
                    forest.push_round(&insts);
                }
                // The global tree's queries are pure point-distance ball
                // folds whose results are layout-invariant (the fold is a
                // per-round (distance, object)-lex minimum), so the
                // scan-heavy leaf layout is safe and benches fastest.
                let global = (n > 0).then(|| KdTree::with_config(&all, KdConfig::scan_heavy()));
                (McStorage::Forest(forest), global)
            }
            McBackend::Delaunay => {
                let mut rounds = Vec::with_capacity(s);
                for _ in 0..s {
                    insts.clear();
                    insts.extend(points.iter().map(|p| p.sample(rng)));
                    rounds.push(Delaunay::new(&insts));
                }
                (McStorage::Del(rounds), None)
            }
        };
        let support: Vec<Aabb> = points.iter().map(|p| p.support_bbox()).collect();
        let centers: Vec<Point> = support.iter().map(|b| b.center()).collect();
        let delta_tree = KdTree::new(&centers);
        MonteCarloIndex {
            storage,
            n,
            s,
            support: AabbSoA::from_boxes(&support),
            delta_tree,
            global,
        }
    }

    /// Number of rounds `s`.
    pub fn rounds(&self) -> usize {
        self.s
    }

    /// Number of uncertain points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no uncertain points were indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// An upper bound on `Δ(q) = min_i Δ_i(q)`, the Lemma 2.1 radius that
    /// must contain the nearest neighbor of `q` in *every* instantiation
    /// (computed over support bounding boxes, so it is within the box
    /// slack of the exact `Δ(q)`).
    ///
    /// This is the per-query seed of the pruned round descents; it is also
    /// useful on its own as a certified search radius.
    pub fn prune_radius(&self, q: Point) -> f64 {
        self.delta_tree
            .min_adjusted_boxes(q, &self.support)
            .map_or(f64::INFINITY, |(_, v)| v)
    }

    /// The winner of one round: nearest instantiation index to `q`, with
    /// the descent seeded by `init_best` (an upper bound on the NN
    /// distance; `f64::INFINITY` disables pruning).
    #[inline]
    fn round_winner(&self, round: usize, q: Point, init_best: f64) -> usize {
        // Invariant: callers check `n > 0`, so every round holds `n >= 1`
        // locations and a descent always finds a neighbor. The `0` arms are
        // unreachable; they exist so a violated invariant degrades to a
        // wrong-but-typed answer in release builds instead of a panic on
        // the query hot path.
        unn_observe::mc_descent_round();
        match &self.storage {
            McStorage::Forest(f) => {
                // The seed provably contains the NN; the `nearest` fallback
                // only guards against last-ulp rounding of the seed itself.
                match f
                    .nearest_within(round, q, init_best)
                    .or_else(|| f.nearest(round, q))
                {
                    Some(nb) => nb.id,
                    None => {
                        debug_assert!(false, "round {round} empty despite n > 0");
                        0
                    }
                }
            }
            McStorage::Del(ds) => match ds[round].nearest(q) {
                Some((id, _)) => id,
                None => {
                    debug_assert!(false, "round {round} empty despite n > 0");
                    0
                }
            },
        }
    }

    /// Inflates the Lemma 2.1 radius by one part in 10¹² so the closed-ball
    /// seed survives floating-point rounding of `Δ(q)` itself.
    #[inline]
    fn seed_for(&self, q: Point) -> f64 {
        let seed = self.prune_radius(q) * (1.0 + 1e-12);
        unn_observe::seed_radius(seed);
        seed
    }

    /// The per-round winners (object index per round, in round order).
    ///
    /// Forest backend with a finite seed: one range traversal of the global
    /// instantiation tree collects every location inside the `Δ(q)` ball
    /// and a fold keeps each round's closest (ties to the smaller object
    /// index). A nonempty ball necessarily contains the round's NN, so the
    /// fold equals the descent result; the rare round the ball misses (the
    /// seed rounded below the NN distance by an ulp) reruns as a descent.
    /// If the ball degenerates (more than `32·s` locations inside), the
    /// traversal aborts and all rounds run as seeded descents instead —
    /// both sides of the switch are deterministic in `(self, q, init_best)`.
    ///
    /// Everything else — infinite seed, Delaunay backend — is one descent
    /// per round.
    fn winners_into(&self, q: Point, init_best: f64, winners: &mut Vec<u32>) {
        winners.clear();
        if let (McStorage::Forest(f), Some(g)) = (&self.storage, self.global.as_ref()) {
            if init_best.is_finite() {
                let mut best: Vec<(f64, u32)> = vec![(f64::INFINITY, u32::MAX); self.s];
                let split = RoundSplit::new(self.n);
                let complete = g.in_disk_capped(q, init_best, 32 * self.s, &mut |pos, d| {
                    let (r, obj) = split.split(pos);
                    let e = &mut best[r];
                    if d < e.0 || (d == e.0 && obj < e.1) {
                        *e = (d, obj);
                    }
                });
                if complete {
                    winners.extend(best.iter().enumerate().map(|(r, &(_, obj))| {
                        if obj != u32::MAX {
                            unn_observe::mc_ball_round();
                            obj
                        } else {
                            // Ball missed this round (seed rounded below
                            // the NN distance by an ulp): rerun as a
                            // descent. `n > 0` here, so the descent finds a
                            // neighbor; 0 is the typed-degradation arm for
                            // a violated invariant in release builds.
                            unn_observe::mc_descent_round();
                            match f.nearest(r, q) {
                                Some(nb) => nb.id as u32,
                                None => {
                                    debug_assert!(false, "round {r} empty despite n > 0");
                                    0
                                }
                            }
                        }
                    }));
                    return;
                }
            }
        }
        winners.extend((0..self.s).map(|r| self.round_winner(r, q, init_best) as u32));
    }

    /// Estimates `π̂_i(q)` for all `i`; at most `s` entries are nonzero.
    ///
    /// Returns a dense vector (callers wanting sparse output use
    /// [`MonteCarloIndex::query_sparse`]).
    pub fn query(&self, q: Point) -> Vec<f64> {
        let mut pi = Vec::new();
        self.query_into(q, &mut pi);
        pi
    }

    /// [`MonteCarloIndex::query`] into a caller-provided buffer (cleared and
    /// resized to `len()`): batch loops reuse one buffer per worker.
    ///
    /// Every round's descent is seeded with the Lemma 2.1 radius
    /// [`MonteCarloIndex::prune_radius`], computed once per query.
    pub fn query_into(&self, q: Point, pi: &mut Vec<f64>) {
        if self.n == 0 {
            pi.clear();
            return;
        }
        self.query_into_seeded(q, self.seed_for(q), pi);
    }

    /// [`MonteCarloIndex::query_into`] with a caller-supplied seed radius
    /// instead of the automatic `Δ(q)` bound.
    ///
    /// The estimate is correct for *any* seed — a too-small ball either
    /// still contains the round's NN or is empty for that round (the NN is
    /// the distance minimum) and falls back to a descent; a small valid
    /// seed is merely fastest. `f64::INFINITY` disables pruning entirely
    /// and runs one descent per round; benchmarks use this to measure the
    /// fast-path speedup.
    pub fn query_into_seeded(&self, q: Point, init_best: f64, pi: &mut Vec<f64>) {
        pi.clear();
        pi.resize(self.n, 0.0);
        if self.n == 0 {
            return;
        }
        let mut winners = Vec::with_capacity(self.s);
        self.winners_into(q, init_best, &mut winners);
        // Count in exact unit increments, scale once: `π̂_i` is then
        // `c_i·(1/s)` with a single rounding, bit-identical to the sparse
        // and adaptive paths.
        for &wn in &winners {
            pi[wn as usize] += 1.0;
        }
        let w = 1.0 / self.s as f64;
        for x in pi.iter_mut() {
            *x *= w;
        }
    }

    /// Sparse estimate: `(object, π̂)` pairs for objects that won at least
    /// one round, sorted by decreasing probability (ties by index).
    ///
    /// Runs in `O(s · query + s log s)` independent of `n`: winners are
    /// accumulated sparsely (at most `s` distinct), never through a dense
    /// `n`-vector — the right shape when `n ≫ s`.
    pub fn query_sparse(&self, q: Point) -> Vec<(usize, f64)> {
        if self.n == 0 {
            return Vec::new();
        }
        let mut winners = Vec::with_capacity(self.s);
        self.winners_into(q, self.seed_for(q), &mut winners);
        winners.sort_unstable();
        let w = 1.0 / self.s as f64;
        let mut out: Vec<(usize, f64)> = Vec::new();
        let mut run_start = 0usize;
        for i in 1..=winners.len() {
            if i == winners.len() || winners[i] != winners[run_start] {
                out.push((winners[run_start] as usize, (i - run_start) as f64 * w));
                run_start = i;
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Estimates the k-NN *membership* probabilities: `π̂_i^{(k)}(q)` is the
    /// fraction of instantiations in which `P_i` is among the `k` nearest.
    /// Same Chernoff bound per entry as [`MonteCarloIndex::query`]. One
    /// neighbor buffer is reused across all `s` rounds.
    pub fn query_knn(&self, q: Point, k: usize) -> Vec<f64> {
        let mut pi = vec![0.0; self.n];
        if self.n == 0 || k == 0 {
            return pi;
        }
        let w = 1.0 / self.s as f64;
        match &self.storage {
            McStorage::Forest(f) => {
                let mut buf: Vec<Neighbor> = Vec::new();
                for r in 0..self.s {
                    f.m_nearest_into(r, q, k, &mut buf);
                    for nb in &buf {
                        pi[nb.id] += w;
                    }
                }
            }
            McStorage::Del(ds) => {
                let mut buf: Vec<(usize, f64)> = Vec::new();
                for d in ds {
                    d.m_nearest_into(q, k, &mut buf);
                    for &(i, _) in &buf {
                        pi[i] += w;
                    }
                }
            }
        }
        pi
    }

    /// Adaptive-stopping estimate of all `π_i(q)`: consumes the pre-drawn
    /// rounds in build order and stops at the first doubling checkpoint
    /// (starting at [`ADAPTIVE_MIN_ROUNDS`]) where a union-bounded
    /// Hoeffding *or* empirical-Bernstein half-width drops to `eps` for
    /// every `π̂_i` simultaneously, with failure probability `≤ delta`.
    ///
    /// On well-separated instances (one point wins almost every round) the
    /// empirical variance is near zero and the Bernstein term stops after
    /// `O(log(n/δ)/ε)` rounds — quadratically earlier than the fixed
    /// `O(log(n/δ)/ε²)` of Eq. 6.
    ///
    /// Because the consumed rounds are a deterministic prefix of the
    /// build-time draw, the result is a pure function of `(self, q, eps,
    /// delta)` — bit-identical across repeated calls, thread counts, and
    /// query orders (the batch determinism contract).
    pub fn quantify_adaptive(&self, q: Point, eps: f64, delta: f64) -> AdaptiveQuantify {
        self.quantify_adaptive_from(q, eps, delta, ADAPTIVE_MIN_ROUNDS)
    }

    /// [`MonteCarloIndex::quantify_adaptive`] with an explicit first
    /// checkpoint (subsequent checkpoints double until `s`).
    pub fn quantify_adaptive_from(
        &self,
        q: Point,
        eps: f64,
        delta: f64,
        min_rounds: usize,
    ) -> AdaptiveQuantify {
        self.quantify_adaptive_capped(q, eps, delta, min_rounds, self.s)
    }

    /// [`MonteCarloIndex::quantify_adaptive_from`] restricted to at most
    /// `max_rounds` of the pre-drawn rounds — the budgeted-degradation
    /// primitive: the caller caps the work and reads the honestly certified
    /// accuracy back from [`AdaptiveQuantify::half_width`].
    ///
    /// The doubling schedule saturates at the cap, so the final consumed
    /// round is always a checkpoint and `half_width` is always the
    /// certified bound for the returned estimates (never stale). With
    /// `max_rounds >= s` this is exactly `quantify_adaptive_from` —
    /// bit-identical, preserving the batch determinism contract.
    pub fn quantify_adaptive_capped(
        &self,
        q: Point,
        eps: f64,
        delta: f64,
        min_rounds: usize,
        max_rounds: usize,
    ) -> AdaptiveQuantify {
        assert!(eps > 0.0, "eps must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        if self.n == 0 {
            return AdaptiveQuantify {
                pi: Vec::new(),
                rounds_used: 0,
                half_width: 0.0,
            };
        }
        let s = max_rounds.clamp(1, self.s);
        let (first, l_hoeff, l_bern) = stopping_schedule(self.n, delta, min_rounds, s);
        let seed = self.seed_for(q);
        // Forest backend: all winners come from the single-traversal ball
        // fold (same cost as one fixed-`s` query); early stopping then only
        // trims the counting prefix. The Delaunay backend stays incremental
        // so stopping at `t` rounds really does skip `s - t` searches.
        // Under a work cap below `s` the prefetch would overspend the
        // budget, so the capped path goes incremental too.
        let mut winners = Vec::new();
        if self.global.is_some() && s == self.s {
            self.winners_into(q, seed, &mut winners);
        }
        let mut counts = vec![0u32; self.n];
        let mut used = 0usize;
        let mut next = first;
        let mut half_width = f64::INFINITY;
        for r in 0..s {
            let wr = match winners.get(r) {
                Some(&w) => w as usize,
                None => self.round_winner(r, q, seed),
            };
            counts[wr] += 1;
            used += 1;
            if used == next {
                unn_observe::mc_checkpoint();
                half_width = Self::stop_half_width(&counts, used, l_hoeff, l_bern);
                if half_width <= eps {
                    break;
                }
                next = (next * 2).min(s);
            }
        }
        let w = 1.0 / used as f64;
        AdaptiveQuantify {
            pi: counts.iter().map(|&c| c as f64 * w).collect(),
            rounds_used: used,
            half_width,
        }
    }

    /// The max-over-`i` confidence half-width after `t` rounds: the tighter
    /// of the Hoeffding bound (variance-free) and the empirical-Bernstein
    /// bound at the worst observed empirical variance.
    fn stop_half_width(counts: &[u32], t: usize, l_hoeff: f64, l_bern: f64) -> f64 {
        let tf = t as f64;
        let hoeff = hoeffding_half_width(t, l_hoeff);
        if t < 2 {
            return hoeff;
        }
        let vmax = counts
            .iter()
            .map(|&c| {
                let p = c as f64 / tf;
                p * (1.0 - p)
            })
            .fold(0.0, f64::max);
        let bern = (2.0 * vmax * l_bern / tf).sqrt() + 7.0 * l_bern / (3.0 * (tf - 1.0));
        hoeff.min(bern)
    }

    /// Theorem 4.3's round count for accuracy `eps` and failure probability
    /// `delta`, with `|Q| = O((nk)⁴)` cells from Lemma 4.1.
    ///
    /// `s = (1/2ε²) · ln(2n|Q|/δ)` with `|Q| = (nk)⁴` (constant 1).
    pub fn samples_for(eps: f64, delta: f64, n: usize, k: usize) -> usize {
        assert!(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
        let nn = (n.max(1) as f64) * (k.max(1) as f64);
        let q_cells = nn.powi(4);
        let s = (1.0 / (2.0 * eps * eps)) * (2.0 * n.max(1) as f64 * q_cells / delta).ln();
        s.ceil().max(1.0) as usize
    }

    /// Eq. 6 inverted at a fixed round budget: the accuracy `ε` that `s`
    /// rounds actually guarantee (w.p. `≥ 1 − δ`, `|Q| = (nk)⁴` as in
    /// [`MonteCarloIndex::samples_for`]).
    ///
    /// When a deployment caps the theorem-driven round count (see
    /// `PnnConfig::max_mc_rounds` in `unn`), this is the *achieved* ε that
    /// honest results must surface instead of the requested one.
    pub fn epsilon_for(s: usize, delta: f64, n: usize, k: usize) -> f64 {
        assert!(s > 0 && delta > 0.0 && delta < 1.0);
        let nn = (n.max(1) as f64) * (k.max(1) as f64);
        let q_cells = nn.powi(4);
        ((2.0 * n.max(1) as f64 * q_cells / delta).ln() / (2.0 * s as f64)).sqrt()
    }

    /// The *per-query* round count: if only `m` query points will ever be
    /// asked (instead of uniform-over-the-plane accuracy), the union bound
    /// shrinks to `s = (1/2ε²) ln(2nm/δ)`.
    pub fn samples_for_queries(eps: f64, delta: f64, n: usize, m: usize) -> usize {
        assert!(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
        let s = (1.0 / (2.0 * eps * eps)) * (2.0 * n.max(1) as f64 * m.max(1) as f64 / delta).ln();
        s.ceil().max(1.0) as usize
    }
}

/// The `pos -> (round, object)` split of the global instantiation tree,
/// where location `pos = round·n + object`. A hardware division per
/// reported ball point is the fold's single biggest cost, so the split
/// multiplies by a precomputed reciprocal instead (Granlund–Montgomery /
/// Lemire): exact for every `pos < 2^32`, which `s·n` never exceeds.
#[derive(Clone, Copy, Debug)]
struct RoundSplit {
    n: usize,
    magic: u64,
}

impl RoundSplit {
    fn new(n: usize) -> Self {
        let magic = if n > 1 { u64::MAX / n as u64 + 1 } else { 0 };
        RoundSplit { n, magic }
    }

    /// `(pos / n, pos % n)`.
    #[inline]
    fn split(self, pos: usize) -> (usize, u32) {
        if self.n == 1 {
            (pos, 0)
        } else {
            let r = ((pos as u128 * self.magic as u128) >> 64) as usize;
            (r, (pos - r * self.n) as u32)
        }
    }
}

/// The seed of point `id`'s private Monte-Carlo sample stream.
///
/// This extends the batch layer's `query_stream_seed` contract from queries
/// to *points*: where a batch query's randomness is a pure function of
/// `(seed, query_index)`, a dynamic index draws each point's `s` per-round
/// instantiations from `SmallRng::seed_from_u64(point_stream_seed(seed,
/// id))` — a pure function of `(seed, id)` alone. A point's samples are
/// therefore invariant under churn (insert/remove of *other* points), block
/// merges, compactions, and thread counts, which is what makes dynamic
/// quantification results reproducible and layout-independent.
///
/// The extra domain-separation constant keeps point streams disjoint from
/// query streams even when `id == query_index`.
pub fn point_stream_seed(seed: u64, id: u64) -> u64 {
    // Golden-ratio spread (as in `query_stream_seed`) plus a distinct
    // domain constant, then two SplitMix64 rounds to decorrelate low bits.
    let mut state = seed ^ 0xA076_1D64_78BD_642F ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::split_mix_64(&mut state);
    rand::split_mix_64(&mut state);
    state
}

/// The doubling-checkpoint schedule both adaptive folds stop on, over `n`
/// points with checkpoints doubling from `min_rounds` and saturating at
/// `s ≥ 1`: `(first checkpoint, Hoeffding log term, empirical-Bernstein
/// log term)`. One function keeps both folds, and
/// [`adaptive_half_width_bound`], on the same float operations.
fn stopping_schedule(n: usize, delta: f64, min_rounds: usize, s: usize) -> (usize, f64, f64) {
    let first = min_rounds.clamp(1, s);
    // Number of checkpoints in the doubling schedule — the union bound
    // spends delta / (checkpoints · n) per point per checkpoint.
    let checkpoints = {
        let (mut k, mut t) = (1usize, first);
        while t < s {
            t = (t * 2).min(s);
            k += 1;
        }
        k as f64
    };
    let union = checkpoints * n as f64 / delta;
    // Hoeffding with delta' = delta/(2·K·n) per (i, checkpoint); the other
    // half of the budget goes to the Bernstein family.
    let l_hoeff = (4.0 * union).ln();
    // Empirical Bernstein (MSA'08, Thm 1 shape): ln(3/delta') terms.
    let l_bern = (6.0 * union).ln();
    (first, l_hoeff, l_bern)
}

/// The variance-free Hoeffding half-width after `t` rounds.
fn hoeffding_half_width(t: usize, l_hoeff: f64) -> f64 {
    (l_hoeff / (2.0 * t as f64)).sqrt()
}

/// The largest `half_width` an adaptive fold over `n` points can return
/// without having stopped early: the Hoeffding half-width at its last
/// checkpoint, `max_rounds` (read as 1 when 0).
///
/// With the same `(n, delta, min_rounds, max_rounds)` and at least
/// `max_rounds` rounds available, [`MonteCarloIndex::quantify_adaptive_capped`]
/// and [`adaptive_over_winners`] either stop at a checkpoint whose
/// half-width is `≤ eps`, or run to `max_rounds` and report the tighter
/// of this bound and the empirical-Bernstein one. Their `half_width` is
/// therefore at most `max(eps, bound)`, so a bound `≤ eps` certifies
/// `eps` before the query runs. The bound grows with `n`, so it also
/// covers folds over fewer points. `n == 0` returns 0, the half-width of
/// an empty fold.
///
/// ```
/// use unn_quantify::adaptive_half_width_bound;
///
/// // 4096 rounds over 256 points certify ±0.05 at δ = 0.01; 512 do not.
/// assert!(adaptive_half_width_bound(256, 0.01, 32, 4096) <= 0.05);
/// assert!(adaptive_half_width_bound(256, 0.01, 32, 512) > 0.05);
/// ```
pub fn adaptive_half_width_bound(
    n: usize,
    delta: f64,
    min_rounds: usize,
    max_rounds: usize,
) -> f64 {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    if n == 0 {
        return 0.0;
    }
    let s = max_rounds.max(1);
    let (_, l_hoeff, _) = stopping_schedule(n, delta, min_rounds, s);
    hoeffding_half_width(s, l_hoeff)
}

/// The adaptive early-stopping rule of
/// [`MonteCarloIndex::quantify_adaptive_capped`] applied to a
/// caller-supplied per-round winner sequence.
///
/// A Bentley–Saxe dynamic index composes each round's winner across many
/// blocks (the per-round NN over the union of block instantiations), so the
/// winners cannot come from one `MonteCarloIndex`. This free function runs
/// the identical doubling-checkpoint schedule — same union bound over
/// `checkpoints · n / delta`, same Hoeffding/empirical-Bernstein half-width
/// — over `winners[..max_rounds]`, where `winners[r]` is the dense object
/// index (`< n`) that won round `r`. Feeding it the winner sequence of a
/// static index reproduces `quantify_adaptive_capped` bit-for-bit.
///
/// Out-of-range winner entries are ignored (typed degradation rather than a
/// panic on the query path); `rounds_used` still counts them.
pub fn adaptive_over_winners(
    winners: &[u32],
    n: usize,
    eps: f64,
    delta: f64,
    min_rounds: usize,
    max_rounds: usize,
) -> AdaptiveQuantify {
    assert!(eps > 0.0, "eps must be positive");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    if n == 0 || winners.is_empty() {
        return AdaptiveQuantify {
            pi: Vec::new(),
            rounds_used: 0,
            half_width: 0.0,
        };
    }
    let s = max_rounds.clamp(1, winners.len());
    let (first, l_hoeff, l_bern) = stopping_schedule(n, delta, min_rounds, s);
    let mut counts = vec![0u32; n];
    let mut used = 0usize;
    let mut next = first;
    let mut half_width = f64::INFINITY;
    for &wr in &winners[..s] {
        if let Some(c) = counts.get_mut(wr as usize) {
            *c += 1;
        } else {
            debug_assert!(false, "winner {wr} out of range (n = {n})");
        }
        used += 1;
        if used == next {
            unn_observe::mc_checkpoint();
            half_width = MonteCarloIndex::stop_half_width(&counts, used, l_hoeff, l_bern);
            if half_width <= eps {
                break;
            }
            next = (next * 2).min(s);
        }
    }
    let w = 1.0 / used as f64;
    AdaptiveQuantify {
        pi: counts.iter().map(|&c| c as f64 * w).collect(),
        rounds_used: used,
        half_width,
    }
}

/// One-shot Monte-Carlo estimate with *fresh* instantiations drawn from
/// `rng` at query time (no prebuilt rounds).
///
/// Same estimator as [`MonteCarloIndex::query`] — `π̂_i = c_i / s` with the
/// identical Chernoff–Hoeffding accuracy per Eq. 6 — but the randomness is
/// supplied per call instead of being frozen at build time, so estimates
/// from independent RNG streams are statistically independent. This is the
/// primitive behind the batch layer's deterministic per-query streams
/// (`unn::batch`): seeding `rng` as a pure function of `(seed, query_index)`
/// makes the result reproducible regardless of thread scheduling.
///
/// Each round scans all `n` points once (`O(s·n·k̄)` with `k̄` the mean
/// sample cost); building a per-round tree is only worth it when the same
/// instantiations serve many queries, which is exactly what
/// [`MonteCarloIndex`] is for.
pub fn quantification_monte_carlo(
    points: &[Uncertain],
    q: Point,
    s: usize,
    rng: &mut dyn Rng,
) -> Vec<f64> {
    let mut pi = Vec::new();
    quantification_monte_carlo_into(points, q, s, rng, &mut pi);
    pi
}

/// [`quantification_monte_carlo`] into a caller-provided buffer (cleared
/// and resized to `points.len()`).
pub fn quantification_monte_carlo_into(
    points: &[Uncertain],
    q: Point,
    s: usize,
    rng: &mut dyn Rng,
    pi: &mut Vec<f64>,
) {
    pi.clear();
    pi.resize(points.len(), 0.0);
    if points.is_empty() || s == 0 {
        return;
    }
    let w = 1.0 / s as f64;
    for _ in 0..s {
        let mut best = (0usize, f64::INFINITY);
        for (i, p) in points.iter().enumerate() {
            let d = p.sample(rng).dist(q);
            if d < best.1 {
                best = (i, d);
            }
        }
        pi[best.0] += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::quantification_exact;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use unn_distr::DiscreteDistribution;

    fn random_discrete(n: usize, k: usize, seed: u64) -> Vec<Uncertain> {
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
                Uncertain::Discrete(DiscreteDistribution::uniform(pts).unwrap())
            })
            .collect()
    }

    fn as_discrete(points: &[Uncertain]) -> Vec<DiscreteDistribution> {
        points
            .iter()
            .map(|p| p.as_discrete().unwrap().clone())
            .collect()
    }

    #[test]
    fn estimates_within_eps_of_exact() {
        let points = random_discrete(8, 3, 140);
        let exact_objs = as_discrete(&points);
        let mut rng = SmallRng::seed_from_u64(141);
        let eps = 0.05;
        // Accuracy at a fixed set of queries: use the per-query bound.
        let s = MonteCarloIndex::samples_for_queries(eps, 0.01, 8, 20);
        let mc = MonteCarloIndex::build(&points, s, McBackend::KdTree, &mut rng);
        let mut qrng = SmallRng::seed_from_u64(142);
        for _ in 0..20 {
            let q = Point::new(
                qrng.random_range(-25.0..25.0),
                qrng.random_range(-25.0..25.0),
            );
            let want = quantification_exact(&exact_objs, q);
            let got = mc.query(q);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= eps, "i={i}: mc={g} exact={w} (eps={eps})");
            }
        }
    }

    #[test]
    fn backends_agree() {
        let points = random_discrete(10, 2, 143);
        let s = 400;
        let mut rng1 = SmallRng::seed_from_u64(144);
        let mut rng2 = SmallRng::seed_from_u64(144); // same seed: same samples
        let kd = MonteCarloIndex::build(&points, s, McBackend::KdTree, &mut rng1);
        let del = MonteCarloIndex::build(&points, s, McBackend::Delaunay, &mut rng2);
        let mut qrng = SmallRng::seed_from_u64(145);
        for _ in 0..30 {
            let q = Point::new(
                qrng.random_range(-25.0..25.0),
                qrng.random_range(-25.0..25.0),
            );
            let a = kd.query(q);
            let b = del.query(q);
            // Identical instantiations: the only divergence is NN ties.
            let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(diff < 1e-9, "backends disagree: {diff}");
        }
    }

    #[test]
    fn round_split_matches_division() {
        for n in 1usize..=300 {
            let split = RoundSplit::new(n);
            let near_max = (u32::MAX as usize - 3 * n)..=(u32::MAX as usize);
            for pos in (0..70 * n).chain(near_max) {
                assert_eq!(
                    split.split(pos),
                    (pos / n, (pos % n) as u32),
                    "n {n} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn pruned_query_matches_unseeded() {
        // The Δ(q)-seeded fast path must be bit-identical to the unseeded
        // branch-and-bound — pruning only skips subtrees that cannot win.
        let points = random_discrete(40, 3, 160);
        let mut rng = SmallRng::seed_from_u64(161);
        let mc = MonteCarloIndex::build(&points, 600, McBackend::KdTree, &mut rng);
        let mut qrng = SmallRng::seed_from_u64(162);
        let (mut pruned, mut unpruned) = (Vec::new(), Vec::new());
        for _ in 0..60 {
            let q = Point::new(
                qrng.random_range(-30.0..30.0),
                qrng.random_range(-30.0..30.0),
            );
            mc.query_into(q, &mut pruned);
            mc.query_into_seeded(q, f64::INFINITY, &mut unpruned);
            assert_eq!(pruned, unpruned, "q = {q:?}");
            // The prune radius really is an upper bound on Δ(q).
            let delta: f64 = points
                .iter()
                .map(|p| p.max_dist(q))
                .fold(f64::INFINITY, f64::min);
            assert!(mc.prune_radius(q) >= delta - 1e-9);
        }
    }

    #[test]
    fn continuous_models_supported() {
        // Two uniform disks straddling the query: probabilities near 1/2.
        let points = vec![
            Uncertain::uniform_disk(Point::new(-5.0, 0.0), 1.0),
            Uncertain::uniform_disk(Point::new(5.0, 0.0), 1.0),
        ];
        let mut rng = SmallRng::seed_from_u64(146);
        let mc = MonteCarloIndex::build(&points, 4000, McBackend::KdTree, &mut rng);
        let pi = mc.query(Point::ORIGIN);
        assert!((pi[0] - 0.5).abs() < 0.05, "{pi:?}");
        assert!((pi[1] - 0.5).abs() < 0.05);
        // Far to the left, the left disk always wins.
        let pi = mc.query(Point::new(-20.0, 0.0));
        assert!(pi[0] > 0.999);
    }

    #[test]
    fn query_knn_matches_exact_membership() {
        let points = random_discrete(7, 3, 149);
        let objs = as_discrete(&points);
        let mut rng = SmallRng::seed_from_u64(150);
        let mc = MonteCarloIndex::build(&points, 8000, McBackend::KdTree, &mut rng);
        let q = Point::new(0.5, -1.0);
        for k in [1usize, 3, 5] {
            let est = mc.query_knn(q, k);
            let exact = crate::knn::knn_membership_exact(&objs, q, k);
            for (i, (a, b)) in est.iter().zip(&exact).enumerate() {
                assert!((a - b).abs() < 0.03, "k={k} i={i}: mc={a} exact={b}");
            }
            let sum: f64 = est.iter().sum();
            assert!((sum - k.min(7) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_backends_agree() {
        let points = random_discrete(9, 2, 163);
        let mut rng1 = SmallRng::seed_from_u64(164);
        let mut rng2 = SmallRng::seed_from_u64(164);
        let kd = MonteCarloIndex::build(&points, 300, McBackend::KdTree, &mut rng1);
        let del = MonteCarloIndex::build(&points, 300, McBackend::Delaunay, &mut rng2);
        let q = Point::new(2.0, -3.0);
        for k in [1usize, 2, 4] {
            let a = kd.query_knn(q, k);
            let b = del.query_knn(q, k);
            let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(diff < 1e-9, "k={k}: {diff}");
        }
    }

    #[test]
    fn sparse_query_consistent() {
        let points = random_discrete(12, 2, 147);
        let mut rng = SmallRng::seed_from_u64(148);
        let mc = MonteCarloIndex::build(&points, 500, McBackend::KdTree, &mut rng);
        let q = Point::new(1.0, 2.0);
        let dense = mc.query(q);
        let sparse = mc.query_sparse(q);
        let sum: f64 = sparse.iter().map(|&(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for &(i, p) in &sparse {
            assert_eq!(dense[i], p);
        }
        // Every dense nonzero appears in the sparse output.
        assert_eq!(
            sparse.len(),
            dense.iter().filter(|&&p| p > 0.0).count(),
            "sparse output missing winners"
        );
        // Sorted by decreasing probability.
        for w in sparse.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn adaptive_matches_full_estimate_within_half_width() {
        let points = random_discrete(10, 3, 165);
        let mut rng = SmallRng::seed_from_u64(166);
        let mc = MonteCarloIndex::build(&points, 8000, McBackend::KdTree, &mut rng);
        let mut qrng = SmallRng::seed_from_u64(167);
        for _ in 0..15 {
            let q = Point::new(
                qrng.random_range(-25.0..25.0),
                qrng.random_range(-25.0..25.0),
            );
            let full = mc.query(q);
            let a = mc.quantify_adaptive(q, 0.05, 0.01);
            assert!(a.rounds_used <= 8000);
            assert!((a.pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // The full-s estimate is (w.h.p.) within the certified band of
            // the adaptive one; allow the full estimate's own tiny noise.
            for (i, (ad, fu)) in a.pi.iter().zip(&full).enumerate() {
                assert!(
                    (ad - fu).abs() <= a.half_width + 0.02,
                    "i={i}: adaptive={ad} full={fu} hw={}",
                    a.half_width
                );
            }
        }
    }

    #[test]
    fn adaptive_stops_early_when_separated() {
        // Far-apart tight clusters: the winner is deterministic, empirical
        // variance is ~0, and the Bernstein rule stops almost immediately.
        let points: Vec<Uncertain> = (0..16)
            .map(|i| Uncertain::uniform_disk(Point::new(1000.0 * i as f64, 0.0), 0.5))
            .collect();
        let s = 8000;
        let mut rng = SmallRng::seed_from_u64(168);
        let mc = MonteCarloIndex::build(&points, s, McBackend::KdTree, &mut rng);
        let a = mc.quantify_adaptive(Point::new(2.0, 3.0), 0.05, 0.01);
        assert!(
            a.rounds_used < s / 2,
            "adaptive used {}/{} rounds on a separated instance",
            a.rounds_used,
            s
        );
        assert!(a.half_width <= 0.05);
        assert!((a.pi[0] - 1.0).abs() < 1e-12, "{:?}", &a.pi[..2]);
        // Deterministic: repeated calls are bit-identical.
        let b = mc.quantify_adaptive(Point::new(2.0, 3.0), 0.05, 0.01);
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_exhausts_rounds_on_hard_instances() {
        // Two overlapping disks at the midpoint: variance is maximal, so a
        // tiny eps cannot be certified within the available rounds and the
        // honest half-width is reported instead.
        let points = vec![
            Uncertain::uniform_disk(Point::new(-1.0, 0.0), 1.0),
            Uncertain::uniform_disk(Point::new(1.0, 0.0), 1.0),
        ];
        let mut rng = SmallRng::seed_from_u64(169);
        let mc = MonteCarloIndex::build(&points, 500, McBackend::KdTree, &mut rng);
        let a = mc.quantify_adaptive(Point::ORIGIN, 0.001, 0.01);
        assert_eq!(a.rounds_used, 500);
        assert!(a.half_width > 0.001, "hw = {}", a.half_width);
    }

    #[test]
    fn fresh_sampling_matches_exact_and_is_deterministic() {
        let points = random_discrete(8, 3, 151);
        let exact_objs = as_discrete(&points);
        let q = Point::new(1.5, -2.0);
        let want = quantification_exact(&exact_objs, q);
        let s = 20_000;
        let mut rng = SmallRng::seed_from_u64(152);
        let got = quantification_monte_carlo(&points, q, s, &mut rng);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 0.02, "i={i}: fresh={g} exact={w}");
        }
        // Identical seed => bit-identical estimate (the batch layer's
        // per-query-stream contract).
        let mut rng2 = SmallRng::seed_from_u64(152);
        let again = quantification_monte_carlo(&points, q, s, &mut rng2);
        assert_eq!(got, again);
        // The _into variant reusing a dirty buffer agrees exactly.
        let mut rng3 = SmallRng::seed_from_u64(152);
        let mut buf = vec![99.0; 3];
        quantification_monte_carlo_into(&points, q, s, &mut rng3, &mut buf);
        assert_eq!(got, buf);
    }

    #[test]
    fn point_stream_seed_separates_domains() {
        // Distinct (seed, id) pairs give distinct streams, and point
        // streams never collide with query streams at equal indices.
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 0x5eed] {
            for id in 0..64u64 {
                assert!(seen.insert(point_stream_seed(seed, id)));
            }
        }
        // Deterministic (pure function of its arguments).
        assert_eq!(point_stream_seed(7, 9), point_stream_seed(7, 9));
        // Domain separation vs the bare golden-ratio spread with no
        // constant: mixing id = 0 must still perturb the raw seed.
        assert_ne!(point_stream_seed(0x5eed, 0), 0x5eed);
    }

    #[test]
    fn adaptive_over_winners_matches_index_path() {
        // The free function over a static index's winner sequence must
        // reproduce quantify_adaptive_capped bit-for-bit.
        let points = random_discrete(9, 3, 170);
        let mut rng = SmallRng::seed_from_u64(171);
        let mc = MonteCarloIndex::build(&points, 700, McBackend::KdTree, &mut rng);
        let mut qrng = SmallRng::seed_from_u64(172);
        for _ in 0..12 {
            let q = Point::new(
                qrng.random_range(-25.0..25.0),
                qrng.random_range(-25.0..25.0),
            );
            let seed = mc.seed_for(q);
            let mut winners = Vec::new();
            mc.winners_into(q, seed, &mut winners);
            for (eps, cap) in [(0.05, 700usize), (1e-9, 700), (0.05, 64)] {
                let want = mc.quantify_adaptive_capped(q, eps, 0.01, ADAPTIVE_MIN_ROUNDS, cap);
                let got =
                    adaptive_over_winners(&winners, mc.len(), eps, 0.01, ADAPTIVE_MIN_ROUNDS, cap);
                assert_eq!(got, want, "eps={eps} cap={cap} q={q:?}");
            }
        }
    }

    /// Winner sequences of `s` rounds over `n` points: one repeated
    /// winner, every point in turn (all distinct while `s <= n`), and
    /// uniform random.
    fn winner_kinds(n: usize, s: usize, seed: u64) -> [Vec<u32>; 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        [
            vec![(seed % n as u64) as u32; s],
            (0..s).map(|r| (r % n) as u32).collect(),
            (0..s).map(|_| rng.random_range(0..n as u32)).collect(),
        ]
    }

    proptest::proptest! {
        #[test]
        fn prop_adaptive_half_width_within_bound(
            n in 1usize..600,
            s in 1usize..3000,
            delta in 0.001f64..0.5,
            min_rounds in 1usize..100,
            eps in 0.001f64..0.5,
            seed in 0u64..1_000_000,
        ) {
            let bound = adaptive_half_width_bound(n, delta, min_rounds, s);
            for winners in winner_kinds(n, s, seed) {
                // Stopped early (≤ ε) or ran to s (≤ the bound).
                let a = adaptive_over_winners(&winners, n, eps, delta, min_rounds, s);
                proptest::prop_assert!(a.half_width <= bound.max(eps));
                // ε below every checkpoint's (positive) half-width: the
                // fold runs to s and ends within the bound.
                let full =
                    adaptive_over_winners(&winners, n, f64::MIN_POSITIVE, delta, min_rounds, s);
                proptest::prop_assert_eq!(full.rounds_used, s);
                proptest::prop_assert!(full.half_width <= bound);
            }
            // An even two-way split has the largest empirical variance, 1/4,
            // so Hoeffding is the tighter term at s and the fold ends on
            // exactly the bound.
            let split: Vec<u32> = (0..2 * s).map(|r| (r % 2) as u32).collect();
            let full = adaptive_over_winners(&split, 2, f64::MIN_POSITIVE, delta, min_rounds, 2 * s);
            let bound = adaptive_half_width_bound(2, delta, min_rounds, 2 * s);
            proptest::prop_assert_eq!(full.half_width.to_bits(), bound.to_bits());
        }
    }

    #[test]
    fn indexed_adaptive_half_width_within_bound() {
        let points = random_discrete(9, 3, 173);
        let mut rng = SmallRng::seed_from_u64(174);
        let mc = MonteCarloIndex::build(&points, 700, McBackend::KdTree, &mut rng);
        let mut prng = SmallRng::seed_from_u64(175);
        for _ in 0..200 {
            let q = Point::new(
                prng.random_range(-25.0..25.0),
                prng.random_range(-25.0..25.0),
            );
            let delta = prng.random_range(0.001..0.5);
            let min_rounds = prng.random_range(1..100usize);
            let cap = prng.random_range(1..=700usize);
            let eps = prng.random_range(0.001..0.5);
            let bound = adaptive_half_width_bound(mc.len(), delta, min_rounds, cap);
            let a = mc.quantify_adaptive_capped(q, eps, delta, min_rounds, cap);
            assert!(a.half_width <= bound.max(eps), "q={q:?} cap={cap}");
            let full = mc.quantify_adaptive_capped(q, f64::MIN_POSITIVE, delta, min_rounds, cap);
            assert_eq!(full.rounds_used, cap);
            assert!(full.half_width <= bound, "q={q:?} cap={cap}");
        }
    }

    #[test]
    fn samples_for_formula_shape() {
        // Quadratic in 1/eps, logarithmic in n and 1/delta.
        let s1 = MonteCarloIndex::samples_for(0.1, 0.1, 10, 2);
        let s2 = MonteCarloIndex::samples_for(0.05, 0.1, 10, 2);
        assert!(s2 >= 3 * s1, "s(ε/2) should be ~4x s(ε): {s1} vs {s2}");
        let s3 = MonteCarloIndex::samples_for(0.1, 0.1, 1000, 2);
        assert!(s3 < 4 * s1, "log growth in n violated: {s1} -> {s3}");
    }

    #[test]
    fn epsilon_for_inverts_samples_for() {
        for (eps, delta, n, k) in [(0.1, 0.01, 10, 2), (0.05, 0.1, 100, 3)] {
            let s = MonteCarloIndex::samples_for(eps, delta, n, k);
            let achieved = MonteCarloIndex::epsilon_for(s, delta, n, k);
            // Rounding s up can only improve the achieved accuracy.
            assert!(achieved <= eps + 1e-12, "{achieved} > {eps}");
            // Halving the budget must degrade it beyond the request.
            let degraded = MonteCarloIndex::epsilon_for(s / 4, delta, n, k);
            assert!(degraded > eps, "{degraded} <= {eps}");
        }
    }
}
