//! Parallel batch queries over a shared [`PnnIndex`].
//!
//! Every query the paper defines is a pure function of one query point, so
//! a batch is one parallel map: [`BatchOptions::map`] answers `f(q)` for
//! every query over a rayon pool, with every worker borrowing the same
//! index (all [`PnnIndex`] query methods take `&self` and the index is
//! `Send + Sync`, statically asserted below). The module guarantees:
//!
//! * **Determinism** — a batch is *bit-identical* to the sequential loop
//!   `queries.iter().map(|&q| f(q))`, for every thread count and
//!   scheduling order, whenever `f` is a pure function of `q` (as
//!   `nn_nonzero`, `quantify`, `quantify_exact`, `quantify_adaptive` and
//!   `expected_nn` are). The randomized [`PnnIndex::quantify_fresh_batch`]
//!   derives one RNG stream per query from `(config.seed, query_index)`
//!   (see [`query_stream_seed`]), never from shared or thread-local RNG
//!   state.
//! * **Input-order output** — result `i` always answers query `i`.
//! * **Panic isolation on request** — wrapping the query in [`isolate`]
//!   turns a poison query into an error in its own slot; without it a
//!   panic unwinds on the caller once every worker has stopped.
//!
//! Thread count comes from the ambient rayon pool by default;
//! [`BatchOptions::with_threads`] pins it per call:
//!
//! ```
//! use unn::batch::{isolate, BatchOptions};
//! use unn::geom::Point;
//! use unn::{PnnIndex, Uncertain};
//!
//! let index = PnnIndex::new(vec![
//!     Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
//!     Uncertain::uniform_disk(Point::new(5.0, 1.0), 2.0),
//! ]);
//! let queries: Vec<Point> = (0..100).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
//! let opts = BatchOptions::with_threads(4);
//! let batch = opts.map(&queries, |q| index.nn_nonzero(q));
//! let sequential: Vec<_> = queries.iter().map(|&q| index.nn_nonzero(q)).collect();
//! assert_eq!(batch, sequential);
//! let guarded = opts.map(&queries, |q| isolate(q, || index.quantify(q)));
//! assert!(guarded.iter().all(|slot| slot.is_ok()));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use unn_geom::Point;

use crate::index::{PnnConfig, PnnIndex};
use crate::resilience::UnnError;

/// Per-slot result of an [`isolate`]d batch: the query's answer, or the
/// typed error it degraded to (a caught panic, a non-finite query, …).
pub type BatchOutcome<T> = Result<T, UnnError>;

/// Runs one query under panic isolation: a non-finite `q` becomes
/// [`UnnError::DegenerateGeometry`], and a panic anywhere below `f` is
/// caught here, inside the worker's closure, so the rayon worker never
/// unwinds and every other slot of the batch proceeds untouched. The one
/// copy of this rule: [`PnnIndex::try_nn_nonzero`] and
/// [`PnnIndex::quantify_guarded`] call it too.
pub fn isolate<T>(q: Point, f: impl FnOnce() -> T) -> BatchOutcome<T> {
    if !q.is_finite() {
        return Err(UnnError::DegenerateGeometry {
            reason: format!("query point has non-finite coordinate ({}, {})", q.x, q.y),
        });
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| UnnError::QueryPanicked {
        message: unn_quantify::panic_message(payload),
    })
}

// Compile-time guarantee behind every `&self`-sharing batch: the index
// (and the config snapshot workers read) must stay `Send + Sync`.
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

    /// Answers `f(q)` for every query in parallel under this policy, in
    /// input order. Bit-identical to `queries.iter().map(|&q| f(q))` when
    /// `f` is a pure function of `q`. A panic in `f` unwinds here once
    /// every worker has stopped; wrap the query in [`isolate`] to turn it
    /// into an error in its own slot instead.
    pub fn map<T: Send>(&self, queries: &[Point], f: impl Fn(Point) -> T + Sync) -> Vec<T> {
        self.run(|| queries.par_iter().map(|&q| f(q)).collect())
    }

    /// Runs `op` under this policy's thread pool. A pool that cannot be
    /// built (resource exhaustion) degrades to the ambient pool rather
    /// than panicking — the results are bit-identical either way, only
    /// the parallelism differs.
    fn run<R>(&self, op: impl FnOnce() -> R) -> R {
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
    /// Fresh-instantiation Monte-Carlo quantification of a batch with one
    /// deterministic RNG stream per query.
    ///
    /// Query `i` draws its `rounds` instantiations from
    /// `SmallRng::seed_from_u64(query_stream_seed(config.seed, i))`, making
    /// the output a pure function of `(points, config.seed, queries,
    /// rounds)`: bit-identical to the sequential loop
    /// `queries.iter().enumerate().map(|(i, q)| index.quantify_fresh(q, …))`
    /// with the same per-index seeding, for every thread count. The stream
    /// is keyed by batch position, so this is the one batch query that is
    /// not a [`BatchOptions::map`] of a per-query function.
    pub fn quantify_fresh_batch(
        &self,
        queries: &[Point],
        rounds: usize,
        opts: &BatchOptions,
    ) -> Vec<Vec<f64>> {
        let seed = self.config().seed;
        opts.run(|| {
            queries
                .par_iter()
                .enumerate()
                .map(|(i, &q)| {
                    let mut rng = SmallRng::seed_from_u64(query_stream_seed(seed, i as u64));
                    self.quantify_fresh(q, rounds, &mut rng)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QuantifyMethod;
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
            opts.map(&qs, |q| idx.nn_nonzero(q)),
            qs.iter().map(|&q| idx.nn_nonzero(q)).collect::<Vec<_>>()
        );
        let pis = opts.map(&qs, |q| idx.quantify(q));
        assert!(pis.iter().all(|(_, m)| *m == QuantifyMethod::Spiral));
        assert_eq!(pis, qs.iter().map(|&q| idx.quantify(q)).collect::<Vec<_>>());
        let exact = opts.map(&qs, |q| idx.quantify_exact(q));
        assert!(exact.iter().all(|(_, m)| *m == QuantifyMethod::ExactSweep));
        assert_eq!(
            exact,
            qs.iter()
                .map(|&q| idx.quantify_exact(q))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            opts.map(&qs, |q| idx.expected_nn(q)),
            qs.iter().map(|&q| idx.expected_nn(q)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_matches_sequential_continuous() {
        let idx = PnnIndex::new(mixed_points(402));
        let qs = queries(24, 403);
        let opts = BatchOptions::with_threads(3);
        let pis = opts.map(&qs, |q| idx.quantify(q));
        assert!(pis
            .iter()
            .all(|(_, m)| matches!(m, QuantifyMethod::MonteCarlo { .. })));
        assert_eq!(pis, qs.iter().map(|&q| idx.quantify(q)).collect::<Vec<_>>());
        assert_eq!(
            opts.map(&qs, |q| idx.nn_nonzero(q)),
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
            BatchOptions::with_threads(4).map(&qs, |q| idx.quantify_adaptive(q, 0.05, 0.01));
        assert_eq!(batch, seq);
    }

    #[test]
    fn fresh_batch_is_schedule_independent() {
        let idx = PnnIndex::new(discrete_points(404));
        let qs = queries(32, 405);
        let reference = idx.quantify_fresh_batch(&qs, 200, &BatchOptions::with_threads(1));
        for threads in [2, 4, 8] {
            assert_eq!(
                idx.quantify_fresh_batch(&qs, 200, &BatchOptions::with_threads(threads)),
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
        let opts = BatchOptions::default();
        assert!(opts.map(&[], |q| idx.nn_nonzero(q)).is_empty());
        assert!(opts.map(&[], |q| idx.quantify(q)).is_empty());
        let empty = PnnIndex::new(Vec::new());
        let qs = queries(4, 407);
        assert_eq!(
            empty.quantify_fresh_batch(&qs, 10, &opts),
            vec![Vec::new(); 4]
        );
    }

    #[test]
    fn map_clamps_threads_and_propagates_unisolated_panics() {
        let idx = PnnIndex::new(discrete_points(410));
        let qs = queries(48, 411);
        let seq: Vec<_> = qs.iter().map(|&q| idx.nn_nonzero(q)).collect();
        // Zero threads clamps to one: the sequential loop on the caller.
        assert_eq!(
            BatchOptions::with_threads(0).map(&qs, |q| idx.nn_nonzero(q)),
            seq
        );
        for opts in [
            BatchOptions::default(),
            BatchOptions::with_threads(1),
            BatchOptions::with_threads(8),
        ] {
            assert!(opts.map(&[], |q| idx.nn_nonzero(q)).is_empty());
        }
        // Without `isolate`, one panicking query unwinds on the caller, and
        // the pinned pool's thread-count override is restored on the way.
        let poison = qs[17];
        let before = rayon::current_num_threads();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            BatchOptions::with_threads(8).map(&qs, |q| {
                assert!(q != poison, "poison query");
                idx.nn_nonzero(q)
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(rayon::current_num_threads(), before);
    }
}
