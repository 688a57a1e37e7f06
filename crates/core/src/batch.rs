//! Parallel batch query engine over a shared [`PnnIndex`].
//!
//! All [`PnnIndex`] query methods take `&self` and the index is
//! `Send + Sync` (statically asserted below), so a batch of queries fans
//! out over a rayon pool with every worker borrowing the same index. The
//! module guarantees:
//!
//! * **Determinism** — each batch method returns results *bit-identical* to
//!   the corresponding sequential loop, for every thread count and
//!   scheduling order. Deterministic queries (`nn_nonzero`, `quantify`,
//!   `quantify_exact`, `expected_nn`) are pure functions of `(index, q)`;
//!   the randomized [`PnnIndex::quantify_fresh_batch`] derives one RNG
//!   stream per query from `(config.seed, query_index)` (see
//!   [`query_stream_seed`]), never from shared or thread-local RNG state.
//! * **Input-order output** — result `i` always answers query `i`.
//! * **Allocation-free hot paths** — each worker carries a scratch state
//!   ([`rayon`'s `map_init`]) reused across its queries: the Lemma 2.1
//!   reporting buffers and the Eq. 2 sweep's `O(N)` working memory are
//!   allocated once per worker, not once per query.
//!
//! Thread count comes from the ambient rayon pool by default;
//! [`BatchOptions::with_threads`] pins it per call:
//!
//! ```
//! use unn::batch::BatchOptions;
//! use unn::geom::Point;
//! use unn::{PnnIndex, Uncertain};
//!
//! let index = PnnIndex::new(vec![
//!     Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
//!     Uncertain::uniform_disk(Point::new(5.0, 1.0), 2.0),
//! ]);
//! let queries: Vec<Point> = (0..100).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
//! let batch = index.nn_nonzero_batch_with(&queries, &BatchOptions::with_threads(4));
//! let sequential: Vec<_> = queries.iter().map(|&q| index.nn_nonzero(q)).collect();
//! assert_eq!(batch, sequential);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use unn_geom::Point;
use unn_quantify::{quantification_exact_into, quantification_monte_carlo_into, ExactScratch};

use unn_quantify::AdaptiveQuantify;

use crate::index::{NonzeroBackend, PnnConfig, PnnIndex, QuantifyMethod};
use crate::resilience::{QuantifyOutcome, QueryBudget, UnnError};

/// Per-slot result of an `*_isolated` batch method: the query's answer, or
/// the typed error it degraded to (a caught panic, a non-finite query, …).
pub type BatchOutcome<T> = Result<T, UnnError>;

/// Runs one query under panic isolation: a non-finite `q` becomes
/// [`UnnError::DegenerateGeometry`], and a panic anywhere below `f` is
/// caught here, inside the worker's closure, so the rayon worker never
/// unwinds and every other slot of the batch proceeds untouched. The one
/// copy of this rule: [`PnnIndex::try_nn_nonzero`] and
/// [`PnnIndex::quantify_guarded`] call it too.
pub(crate) fn isolate<T>(q: Point, f: impl FnOnce() -> T) -> BatchOutcome<T> {
    if !q.is_finite() {
        return Err(UnnError::DegenerateGeometry {
            reason: format!("query point has non-finite coordinate ({}, {})", q.x, q.y),
        });
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| UnnError::QueryPanicked {
        message: unn_quantify::panic_message(payload),
    })
}

// Compile-time guarantee behind every `&self`-sharing batch method: the
// index (and the config snapshot workers read) must stay `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PnnIndex>();
    assert_send_sync::<PnnConfig>();
};

/// Execution policy for one batch call.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker thread count; `None` inherits the ambient rayon pool
    /// (hardware parallelism unless inside a `ThreadPool::install`).
    pub threads: Option<usize>,
}

impl BatchOptions {
    /// Policy pinning the batch to exactly `threads` workers
    /// (`1` = sequential on the calling thread).
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads: Some(threads.max(1)),
        }
    }

    /// Runs `op` under this policy's thread pool. A pool that cannot be
    /// built (resource exhaustion) degrades to the ambient pool rather
    /// than panicking — the results are bit-identical either way, only
    /// the parallelism differs.
    pub(crate) fn run<R>(&self, op: impl FnOnce() -> R) -> R {
        match self
            .threads
            .and_then(|n| rayon::ThreadPoolBuilder::new().num_threads(n).build().ok())
        {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }
}

/// The RNG-stream seed for query `index` in a batch rooted at `seed`.
///
/// Two rounds of splitmix64 over a Weyl-shifted combination of `(seed,
/// index)`: streams for distinct indices are pairwise uncorrelated, and the
/// scheme is position-based — the stream belongs to the query's *index in
/// the batch*, not to the worker that happens to execute it, which is what
/// makes randomized batch results independent of thread scheduling.
pub fn query_stream_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::split_mix_64(&mut state);
    rand::split_mix_64(&mut state)
}

impl PnnIndex {
    /// [`PnnIndex::nn_nonzero`] for a batch of queries, in input order,
    /// on the ambient thread pool.
    pub fn nn_nonzero_batch(&self, queries: &[Point]) -> Vec<Vec<usize>> {
        self.nn_nonzero_batch_with(queries, &BatchOptions::default())
    }

    /// [`PnnIndex::nn_nonzero_batch`] under an explicit execution policy.
    pub fn nn_nonzero_batch_with(&self, queries: &[Point], opts: &BatchOptions) -> Vec<Vec<usize>> {
        opts.run(|| match &self.nonzero {
            NonzeroBackend::Disks(idx) => queries
                .par_iter()
                .map_init(Vec::new, |buf, &q| {
                    idx.query_into(q, buf);
                    buf.clone()
                })
                .collect(),
            NonzeroBackend::Discrete(idx) => queries
                .par_iter()
                .map_init(Vec::new, |buf, &q| {
                    idx.query_into(q, buf);
                    buf.clone()
                })
                .collect(),
            NonzeroBackend::Generic => queries
                .par_iter()
                .map_init(
                    || (Vec::new(), Vec::new()),
                    |(caps, buf), &q| {
                        self.nn_nonzero_generic_into(q, caps, buf);
                        buf.clone()
                    },
                )
                .collect(),
        })
    }

    /// [`PnnIndex::quantify`] for a batch of queries: the probability
    /// vectors in input order plus the (input-wide) method used.
    pub fn quantify_batch(&self, queries: &[Point]) -> (Vec<Vec<f64>>, QuantifyMethod) {
        self.quantify_batch_with(queries, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_batch`] under an explicit execution policy.
    pub fn quantify_batch_with(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
    ) -> (Vec<Vec<f64>>, QuantifyMethod) {
        opts.run(|| {
            if let Some(spiral) = &self.spiral {
                let eps = self.config.epsilon;
                let pis = queries.par_iter().map(|&q| spiral.query(q, eps)).collect();
                (pis, QuantifyMethod::Spiral)
            } else {
                let pis = queries
                    .par_iter()
                    .map_init(Vec::new, |buf, &q| {
                        self.mc.query_into(q, buf);
                        buf.clone()
                    })
                    .collect();
                (
                    pis,
                    QuantifyMethod::MonteCarlo {
                        achieved_epsilon: self.mc_achieved_epsilon,
                    },
                )
            }
        })
    }

    /// [`PnnIndex::quantify_adaptive`] for a batch of queries, in input
    /// order, on the ambient thread pool.
    ///
    /// Each query's stopping decision is a pure function of `(index, q,
    /// eps, delta)` — the pre-drawn rounds are consumed in build order — so
    /// the batch inherits the full determinism contract: bit-identical
    /// results (estimates, consumed rounds, half-widths) for every thread
    /// count and query order.
    pub fn quantify_adaptive_batch(
        &self,
        queries: &[Point],
        eps: f64,
        delta: f64,
    ) -> Vec<AdaptiveQuantify> {
        self.quantify_adaptive_batch_with(queries, eps, delta, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_adaptive_batch`] under an explicit execution
    /// policy.
    pub fn quantify_adaptive_batch_with(
        &self,
        queries: &[Point],
        eps: f64,
        delta: f64,
        opts: &BatchOptions,
    ) -> Vec<AdaptiveQuantify> {
        opts.run(|| {
            queries
                .par_iter()
                .map(|&q| self.quantify_adaptive(q, eps, delta))
                .collect()
        })
    }

    /// [`PnnIndex::quantify_exact`] for a batch of queries: exact sweep
    /// (discrete) or numeric integration (continuous), in input order.
    pub fn quantify_exact_batch(&self, queries: &[Point]) -> (Vec<Vec<f64>>, QuantifyMethod) {
        self.quantify_exact_batch_with(queries, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_exact_batch`] under an explicit execution
    /// policy. The Eq. 2 sweep's working memory is per-worker scratch.
    pub fn quantify_exact_batch_with(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
    ) -> (Vec<Vec<f64>>, QuantifyMethod) {
        opts.run(|| {
            if let Some(objs) = &self.discrete {
                let pis = queries
                    .par_iter()
                    .map_init(
                        || (Vec::new(), ExactScratch::default()),
                        |(pi, scratch), &q| {
                            quantification_exact_into(objs, q, pi, scratch);
                            pi.clone()
                        },
                    )
                    .collect();
                (pis, QuantifyMethod::ExactSweep)
            } else {
                let steps = self.config.numeric_steps;
                let pis = queries
                    .par_iter()
                    .map(|&q| unn_quantify::quantification_numeric(&self.points, q, steps))
                    .collect();
                (pis, QuantifyMethod::NumericIntegration)
            }
        })
    }

    /// [`PnnIndex::expected_nn`] for a batch of queries, in input order.
    pub fn expected_nn_batch(&self, queries: &[Point]) -> Vec<Option<(usize, f64)>> {
        self.expected_nn_batch_with(queries, &BatchOptions::default())
    }

    /// [`PnnIndex::expected_nn_batch`] under an explicit execution policy.
    pub fn expected_nn_batch_with(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
    ) -> Vec<Option<(usize, f64)>> {
        opts.run(|| {
            queries
                .par_iter()
                .map(|&q| self.expected.expected_nn(q))
                .collect()
        })
    }

    /// Fresh-instantiation Monte-Carlo quantification of a batch with one
    /// deterministic RNG stream per query.
    ///
    /// Query `i` draws its `rounds` instantiations from
    /// `SmallRng::seed_from_u64(query_stream_seed(config.seed, i))`, making
    /// the output a pure function of `(points, config.seed, queries,
    /// rounds)`: bit-identical to the sequential loop
    /// `queries.iter().enumerate().map(|(i, q)| index.quantify_fresh(q, …))`
    /// with the same per-index seeding, for every thread count.
    pub fn quantify_fresh_batch(&self, queries: &[Point], rounds: usize) -> Vec<Vec<f64>> {
        self.quantify_fresh_batch_with(queries, rounds, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_fresh_batch`] under an explicit execution
    /// policy.
    pub fn quantify_fresh_batch_with(
        &self,
        queries: &[Point],
        rounds: usize,
        opts: &BatchOptions,
    ) -> Vec<Vec<f64>> {
        let seed = self.config.seed;
        opts.run(|| {
            queries
                .par_iter()
                .enumerate()
                .map_init(Vec::new, |pi, (i, &q)| {
                    let mut rng = SmallRng::seed_from_u64(query_stream_seed(seed, i as u64));
                    quantification_monte_carlo_into(&self.points, q, rounds, &mut rng, pi);
                    pi.clone()
                })
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // Panic-isolated batches.
    //
    // Each query runs under `catch_unwind` *inside* the worker's map
    // closure: a poison query (an injected fault, a latent bug) turns into
    // `BatchOutcome::Err` for its own slot while every other slot's result
    // stays bit-identical to the sequential run without the poison query —
    // the determinism contract survives partial failure. The per-worker
    // scratch buffers stay safe across a caught panic because every
    // `*_into` method clears them before writing.
    // ------------------------------------------------------------------

    /// [`PnnIndex::nn_nonzero_batch`] with per-query panic isolation.
    pub fn nn_nonzero_batch_isolated(&self, queries: &[Point]) -> Vec<BatchOutcome<Vec<usize>>> {
        self.nn_nonzero_batch_isolated_with(queries, &BatchOptions::default())
    }

    /// [`PnnIndex::nn_nonzero_batch_isolated`] under an explicit execution
    /// policy.
    pub fn nn_nonzero_batch_isolated_with(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
    ) -> Vec<BatchOutcome<Vec<usize>>> {
        opts.run(|| {
            queries
                .par_iter()
                .map(|&q| self.try_nn_nonzero(q))
                .collect()
        })
    }

    /// [`PnnIndex::quantify_batch`] with per-query panic isolation.
    pub fn quantify_batch_isolated(
        &self,
        queries: &[Point],
    ) -> Vec<BatchOutcome<(Vec<f64>, QuantifyMethod)>> {
        self.quantify_batch_isolated_with(queries, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_batch_isolated`] under an explicit execution
    /// policy.
    pub fn quantify_batch_isolated_with(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
    ) -> Vec<BatchOutcome<(Vec<f64>, QuantifyMethod)>> {
        opts.run(|| {
            queries
                .par_iter()
                .map(|&q| isolate(q, || self.quantify(q)))
                .collect()
        })
    }

    /// [`PnnIndex::quantify_adaptive_batch`] with per-query panic
    /// isolation.
    pub fn quantify_adaptive_batch_isolated(
        &self,
        queries: &[Point],
        eps: f64,
        delta: f64,
    ) -> Vec<BatchOutcome<AdaptiveQuantify>> {
        self.quantify_adaptive_batch_isolated_with(queries, eps, delta, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_adaptive_batch_isolated`] under an explicit
    /// execution policy.
    pub fn quantify_adaptive_batch_isolated_with(
        &self,
        queries: &[Point],
        eps: f64,
        delta: f64,
        opts: &BatchOptions,
    ) -> Vec<BatchOutcome<AdaptiveQuantify>> {
        opts.run(|| {
            queries
                .par_iter()
                .map(|&q| isolate(q, || self.quantify_adaptive(q, eps, delta)))
                .collect()
        })
    }

    /// Budgeted batch quantification ([`PnnIndex::quantify_within`]) with
    /// per-query panic isolation: every slot carries an exact answer, a
    /// degraded answer with its certified accuracy, or a typed error.
    pub fn quantify_guarded_batch(
        &self,
        queries: &[Point],
        budget: QueryBudget,
    ) -> Vec<BatchOutcome<QuantifyOutcome>> {
        self.quantify_guarded_batch_with(queries, budget, &BatchOptions::default())
    }

    /// [`PnnIndex::quantify_guarded_batch`] under an explicit execution
    /// policy.
    pub fn quantify_guarded_batch_with(
        &self,
        queries: &[Point],
        budget: QueryBudget,
        opts: &BatchOptions,
    ) -> Vec<BatchOutcome<QuantifyOutcome>> {
        opts.run(|| {
            queries
                .par_iter()
                .map(|&q| self.quantify_guarded(q, budget))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use unn_distr::{DiscreteDistribution, TruncatedGaussian, Uncertain};

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

    fn mixed_points(seed: u64) -> Vec<Uncertain> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..8)
            .map(|i| {
                let c = Point::new(rng.random_range(-20.0..20.0), rng.random_range(-20.0..20.0));
                if i % 2 == 0 {
                    Uncertain::uniform_disk(c, rng.random_range(0.5..2.0))
                } else {
                    Uncertain::Gaussian(TruncatedGaussian::with_sigmas(c, 0.6, 3.0))
                }
            })
            .collect()
    }

    fn queries(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(-25.0..25.0), rng.random_range(-25.0..25.0)))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_discrete() {
        let idx = PnnIndex::new(discrete_points(400));
        let qs = queries(64, 401);
        let opts = BatchOptions::with_threads(4);
        assert_eq!(
            idx.nn_nonzero_batch_with(&qs, &opts),
            qs.iter().map(|&q| idx.nn_nonzero(q)).collect::<Vec<_>>()
        );
        let (pis, m) = idx.quantify_batch_with(&qs, &opts);
        assert_eq!(m, QuantifyMethod::Spiral);
        assert_eq!(
            pis,
            qs.iter().map(|&q| idx.quantify(q).0).collect::<Vec<_>>()
        );
        let (exact, m) = idx.quantify_exact_batch_with(&qs, &opts);
        assert_eq!(m, QuantifyMethod::ExactSweep);
        assert_eq!(
            exact,
            qs.iter()
                .map(|&q| idx.quantify_exact(q).0)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            idx.expected_nn_batch_with(&qs, &opts),
            qs.iter().map(|&q| idx.expected_nn(q)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_matches_sequential_continuous() {
        let idx = PnnIndex::new(mixed_points(402));
        let qs = queries(24, 403);
        let opts = BatchOptions::with_threads(3);
        let (pis, m) = idx.quantify_batch_with(&qs, &opts);
        assert!(matches!(m, QuantifyMethod::MonteCarlo { .. }));
        assert_eq!(
            pis,
            qs.iter().map(|&q| idx.quantify(q).0).collect::<Vec<_>>()
        );
        assert_eq!(
            idx.nn_nonzero_batch_with(&qs, &opts),
            qs.iter().map(|&q| idx.nn_nonzero(q)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn adaptive_batch_matches_sequential() {
        let idx = PnnIndex::new(mixed_points(408));
        let qs = queries(32, 409);
        let seq: Vec<_> = qs
            .iter()
            .map(|&q| idx.quantify_adaptive(q, 0.05, 0.01))
            .collect();
        let batch =
            idx.quantify_adaptive_batch_with(&qs, 0.05, 0.01, &BatchOptions::with_threads(4));
        assert_eq!(batch, seq);
    }

    #[test]
    fn fresh_batch_is_schedule_independent() {
        let idx = PnnIndex::new(discrete_points(404));
        let qs = queries(32, 405);
        let reference = idx.quantify_fresh_batch_with(&qs, 200, &BatchOptions::with_threads(1));
        for threads in [2, 4, 8] {
            assert_eq!(
                idx.quantify_fresh_batch_with(&qs, 200, &BatchOptions::with_threads(threads)),
                reference,
                "threads = {threads}"
            );
        }
        // And matches the sequential per-index loop exactly.
        let seq: Vec<Vec<f64>> = qs
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let mut rng =
                    SmallRng::seed_from_u64(query_stream_seed(idx.config().seed, i as u64));
                idx.quantify_fresh(q, 200, &mut rng)
            })
            .collect();
        assert_eq!(reference, seq);
    }

    #[test]
    fn stream_seeds_are_spread_out() {
        // Adjacent indices and adjacent seeds must not collide.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for i in 0..1024u64 {
                assert!(seen.insert(query_stream_seed(seed, i)));
            }
        }
    }

    #[test]
    fn empty_batches_and_empty_index() {
        let idx = PnnIndex::new(discrete_points(406));
        assert!(idx.nn_nonzero_batch(&[]).is_empty());
        assert!(idx.quantify_batch(&[]).0.is_empty());
        let empty = PnnIndex::new(Vec::new());
        let qs = queries(4, 407);
        assert_eq!(empty.quantify_fresh_batch(&qs, 10), vec![Vec::new(); 4]);
    }
}
