//! Observability layer: per-query stats and batch pipeline metrics
//! (re-exporting and wiring up [`unn_observe`]).
//!
//! Every `*_observed` entry point wraps its plain counterpart with three
//! additions and no behavioral change:
//!
//! 1. the structure-level counters (kd nodes visited/pruned, ball hits,
//!    Δ-seed radius, checkpoint evaluations — live only under the `observe`
//!    feature, all-zero otherwise) are reset before and harvested after the
//!    query into a [`QueryStats`];
//! 2. the *result-derived* fields (rounds used vs available, certified
//!    accuracy, Exact/Degraded/Errored outcome) are filled from the return
//!    value — these are meaningful even without the `observe` feature;
//! 3. wall-clock is taken from a caller-injected [`Clock`] — inject
//!    [`NullClock`] and the timing fields are identically zero, which is how
//!    the determinism tests compare [`MetricsSnapshot`]s bit-for-bit.
//!
//! The batch variants additionally fold every query's stats into a
//! [`PipelineMetrics`] through per-worker [`ShardHandle`]s: workers record
//! into private shards (no locks, no atomics on the query path) that merge
//! into the shared total once per worker, when the handle drops.
//!
//! # Determinism
//!
//! [`MetricsSnapshot::deterministic`] (all non-timing fields) is a pure
//! function of `(index, queries)` — independent of thread count and query
//! order — because every counter is an order-independent sum of per-query
//! quantities that are themselves deterministic. Asserted at 1/2/8 threads
//! in `tests/batch_determinism.rs`.

use rayon::prelude::*;
use unn_geom::Point;
use unn_quantify::AdaptiveQuantify;

use crate::batch::{BatchOptions, BatchOutcome};
use crate::index::{PnnIndex, QuantifyMethod};
use crate::resilience::{QuantifyOutcome, QueryBudget, UnnError};

pub use unn_observe::{
    counters_enabled, error_label_index, Clock, CounterSet, Histogram, MetricsShard,
    MetricsSnapshot, MonotonicClock, NullClock, PipelineMetrics, QueryOutcome, QueryStats,
    ServeCounters, ShardHandle, VirtualClock, ERROR_LABELS, HIST_BUCKETS,
};

/// The stable [`ERROR_LABELS`] key for an [`UnnError`] variant (the
/// `unn-observe` crate cannot name `UnnError`, so errors cross into the
/// metrics as labels).
pub fn error_label(e: &UnnError) -> &'static str {
    match e {
        UnnError::InvalidDistribution { .. } => ERROR_LABELS[0],
        UnnError::InvalidConfig { .. } => ERROR_LABELS[1],
        UnnError::DegenerateGeometry { .. } => ERROR_LABELS[2],
        UnnError::BudgetExhausted { .. } => ERROR_LABELS[3],
        UnnError::QueryPanicked { .. } => ERROR_LABELS[4],
    }
}

/// Runs `f` between a counter reset and harvest, stamping wall-clock from
/// `clock`. The shared prologue/epilogue of every observed entry point.
fn observe_query<T>(clock: &dyn Clock, f: impl FnOnce() -> T) -> (T, QueryStats) {
    let t0 = clock.now_nanos();
    unn_observe::begin_query();
    let out = f();
    let counters = unn_observe::take_counters();
    let wall_nanos = clock.now_nanos().saturating_sub(t0);
    (
        out,
        QueryStats {
            counters,
            wall_nanos,
            ..QueryStats::default()
        },
    )
}

/// Fills the outcome-related fields of `stats` from a budgeted result.
fn fill_outcome(res: &Result<QuantifyOutcome, UnnError>, s: u64, stats: &mut QueryStats) {
    match res {
        Ok(QuantifyOutcome::Exact { .. }) => stats.outcome = QueryOutcome::Exact,
        Ok(QuantifyOutcome::Degraded {
            achieved_epsilon,
            rounds_used,
            ..
        }) => {
            stats.outcome = QueryOutcome::Degraded;
            stats.rounds_used = *rounds_used as u64;
            stats.rounds_total = s;
            stats.achieved_epsilon = *achieved_epsilon;
        }
        Err(e) => {
            stats.outcome = QueryOutcome::Errored;
            stats.error_label = Some(error_label(e));
        }
    }
}

/// Fills the outcome fields of an isolated slot: an `Ok` answer counts as
/// exact, a typed error is labeled so it lands in exactly one
/// [`MetricsShard::error_counts`] bucket.
fn fill_isolated<T>(res: &BatchOutcome<T>, stats: &mut QueryStats) {
    match res {
        Ok(_) => stats.outcome = QueryOutcome::Exact,
        Err(e) => {
            stats.outcome = QueryOutcome::Errored;
            stats.error_label = Some(error_label(e));
        }
    }
}

impl PnnIndex {
    /// [`PnnIndex::nn_nonzero`] plus its [`QueryStats`].
    pub fn nn_nonzero_observed(&self, q: Point, clock: &dyn Clock) -> (Vec<usize>, QueryStats) {
        observe_query(clock, || self.nn_nonzero(q))
    }

    /// [`PnnIndex::quantify`] plus its [`QueryStats`].
    pub fn quantify_observed(
        &self,
        q: Point,
        clock: &dyn Clock,
    ) -> (Vec<f64>, QuantifyMethod, QueryStats) {
        let ((pi, method), mut stats) = observe_query(clock, || self.quantify(q));
        if let QuantifyMethod::MonteCarlo { achieved_epsilon } = method {
            // The fixed-s estimator consumes every pre-drawn round.
            let s = self.mc_rounds() as u64;
            stats.rounds_used = s;
            stats.rounds_total = s;
            stats.achieved_epsilon = achieved_epsilon;
        }
        (pi, method, stats)
    }

    /// [`PnnIndex::quantify_adaptive`] plus its [`QueryStats`]
    /// (`rounds_used`, `rounds_total = s`, and the certified half-width are
    /// copied from the result, so they are live even without the `observe`
    /// feature).
    pub fn quantify_adaptive_observed(
        &self,
        q: Point,
        eps: f64,
        delta: f64,
        clock: &dyn Clock,
    ) -> (AdaptiveQuantify, QueryStats) {
        let (a, mut stats) = observe_query(clock, || self.quantify_adaptive(q, eps, delta));
        stats.rounds_used = a.rounds_used as u64;
        stats.rounds_total = self.mc_rounds() as u64;
        stats.achieved_epsilon = a.half_width;
        (a, stats)
    }

    /// [`PnnIndex::quantify_guarded`] plus its [`QueryStats`]: the outcome
    /// field records Exact/Degraded/Errored and errors are labeled for
    /// [`MetricsShard::error_counts`].
    pub fn quantify_guarded_observed(
        &self,
        q: Point,
        budget: QueryBudget,
        clock: &dyn Clock,
    ) -> (Result<QuantifyOutcome, UnnError>, QueryStats) {
        let (res, mut stats) = observe_query(clock, || self.quantify_guarded(q, budget));
        fill_outcome(&res, self.mc_rounds() as u64, &mut stats);
        (res, stats)
    }

    /// [`PnnIndex::nn_nonzero_batch_with`] recording per-query stats into
    /// `metrics` (results identical to the unobserved batch).
    pub fn nn_nonzero_batch_observed(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> Vec<Vec<usize>> {
        opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (out, stats) = self.nn_nonzero_observed(q, clock);
                        shard.record(&stats);
                        out
                    },
                )
                .collect()
        })
    }

    /// [`PnnIndex::quantify_batch_with`] recording per-query stats into
    /// `metrics`.
    pub fn quantify_batch_observed(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> (Vec<Vec<f64>>, QuantifyMethod) {
        // The method is input-wide (spiral vs Monte-Carlo is a property of
        // the index); an empty batch resolves it without running a query.
        let (_, method) = self.quantify_batch(&[]);
        let pis = opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (pi, _, stats) = self.quantify_observed(q, clock);
                        shard.record(&stats);
                        pi
                    },
                )
                .collect()
        });
        (pis, method)
    }

    /// [`PnnIndex::quantify_adaptive_batch_with`] recording per-query stats
    /// into `metrics` — the workhorse of the pruning-effectiveness table
    /// (`BENCH_observe.json`): rounds-used histograms, ball-fold vs descent
    /// round counts, checkpoint evaluations.
    pub fn quantify_adaptive_batch_observed(
        &self,
        queries: &[Point],
        eps: f64,
        delta: f64,
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> Vec<AdaptiveQuantify> {
        opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (a, stats) = self.quantify_adaptive_observed(q, eps, delta, clock);
                        shard.record(&stats);
                        a
                    },
                )
                .collect()
        })
    }

    /// [`PnnIndex::nn_nonzero_batch_isolated_with`] recording per-query
    /// stats into `metrics`: every slot that degrades to a typed error —
    /// including a caught panic — lands in exactly one
    /// [`MetricsShard::error_counts`] bucket keyed by [`ERROR_LABELS`]
    /// variant; successful slots count as exact.
    pub fn nn_nonzero_batch_isolated_observed(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> Vec<BatchOutcome<Vec<usize>>> {
        opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (res, mut stats) = observe_query(clock, || {
                            crate::batch::isolate(q, || self.nn_nonzero(q))
                        });
                        fill_isolated(&res, &mut stats);
                        shard.record(&stats);
                        res
                    },
                )
                .collect()
        })
    }

    /// [`PnnIndex::quantify_batch_isolated_with`] recording per-query stats
    /// into `metrics` with automatic per-error-variant counting.
    pub fn quantify_batch_isolated_observed(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> Vec<BatchOutcome<(Vec<f64>, QuantifyMethod)>> {
        opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (res, mut stats) =
                            observe_query(clock, || crate::batch::isolate(q, || self.quantify(q)));
                        fill_isolated(&res, &mut stats);
                        if let Ok((_, QuantifyMethod::MonteCarlo { achieved_epsilon })) = &res {
                            let s = self.mc_rounds() as u64;
                            stats.rounds_used = s;
                            stats.rounds_total = s;
                            stats.achieved_epsilon = *achieved_epsilon;
                        }
                        shard.record(&stats);
                        res
                    },
                )
                .collect()
        })
    }

    /// [`PnnIndex::quantify_adaptive_batch_isolated_with`] recording
    /// per-query stats into `metrics` with automatic per-error-variant
    /// counting; successful slots carry their adaptive rounds/accuracy.
    pub fn quantify_adaptive_batch_isolated_observed(
        &self,
        queries: &[Point],
        eps: f64,
        delta: f64,
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> Vec<BatchOutcome<AdaptiveQuantify>> {
        opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (res, mut stats) = observe_query(clock, || {
                            crate::batch::isolate(q, || self.quantify_adaptive(q, eps, delta))
                        });
                        fill_isolated(&res, &mut stats);
                        if let Ok(a) = &res {
                            stats.rounds_used = a.rounds_used as u64;
                            stats.rounds_total = self.mc_rounds() as u64;
                            stats.achieved_epsilon = a.half_width;
                        }
                        shard.record(&stats);
                        res
                    },
                )
                .collect()
        })
    }

    /// [`PnnIndex::quantify_guarded_batch_with`] recording per-query stats
    /// into `metrics`: degradations and typed errors are counted by
    /// [`ERROR_LABELS`] variant, each slot still answers independently.
    pub fn quantify_guarded_batch_observed(
        &self,
        queries: &[Point],
        budget: QueryBudget,
        opts: &BatchOptions,
        metrics: &PipelineMetrics,
        clock: &dyn Clock,
    ) -> Vec<BatchOutcome<QuantifyOutcome>> {
        opts.run(|| {
            queries
                .par_iter()
                .map_init(
                    || metrics.shard(),
                    |shard, &q| {
                        let (res, stats) = self.quantify_guarded_observed(q, budget, clock);
                        shard.record(&stats);
                        res
                    },
                )
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_distr::Uncertain;

    fn index() -> PnnIndex {
        let points = vec![
            Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
            Uncertain::uniform_disk(Point::new(6.0, 0.0), 1.0),
            Uncertain::uniform_disk(Point::new(0.0, 7.0), 2.0),
        ];
        PnnIndex::new(points)
    }

    #[test]
    fn observed_results_match_unobserved() {
        let idx = index();
        let q = Point::new(1.0, 1.0);
        let clock = NullClock;
        assert_eq!(idx.nn_nonzero_observed(q, &clock).0, idx.nn_nonzero(q));
        let (a, stats) = idx.quantify_adaptive_observed(q, 0.05, 0.01, &clock);
        assert_eq!(a, idx.quantify_adaptive(q, 0.05, 0.01));
        assert_eq!(stats.rounds_used, a.rounds_used as u64);
        assert_eq!(stats.rounds_total, idx.mc_rounds() as u64);
        assert_eq!(stats.achieved_epsilon, a.half_width);
        assert_eq!(stats.wall_nanos, 0, "NullClock must zero the timing");
    }

    #[test]
    fn guarded_observed_labels_outcomes() {
        let idx = index();
        let clock = NullClock;
        let q = Point::new(1.0, 1.0);
        let (res, stats) = idx.quantify_guarded_observed(q, QueryBudget::unlimited(), &clock);
        assert!(res.is_ok());
        assert_eq!(stats.outcome, QueryOutcome::Exact);
        let (res, stats) = idx.quantify_guarded_observed(q, QueryBudget::with_work(64), &clock);
        assert!(matches!(res, Ok(QuantifyOutcome::Degraded { .. })));
        assert_eq!(stats.outcome, QueryOutcome::Degraded);
        assert!(stats.rounds_used > 0);
        let bad = Point::new(f64::NAN, 0.0);
        let (res, stats) = idx.quantify_guarded_observed(bad, QueryBudget::unlimited(), &clock);
        assert!(res.is_err());
        assert_eq!(stats.outcome, QueryOutcome::Errored);
        assert_eq!(stats.error_label, Some("degenerate_geometry"));
    }

    #[test]
    fn batch_observed_fills_metrics() {
        let idx = index();
        let queries: Vec<Point> = (0..40).map(|i| Point::new(i as f64 * 0.3, 0.5)).collect();
        let metrics = PipelineMetrics::new();
        let plain = idx.quantify_adaptive_batch(&queries, 0.05, 0.01);
        let observed = idx.quantify_adaptive_batch_observed(
            &queries,
            0.05,
            0.01,
            &BatchOptions::with_threads(2),
            &metrics,
            &NullClock,
        );
        assert_eq!(plain, observed);
        let snap = metrics.snapshot();
        assert_eq!(snap.shard.queries, queries.len() as u64);
        assert_eq!(
            snap.shard.rounds_used,
            plain.iter().map(|a| a.rounds_used as u64).sum::<u64>()
        );
        assert_eq!(snap.shard.wall_nanos, 0);
        // Deep counters are live exactly when the observe feature is on.
        if counters_enabled() {
            assert!(snap.shard.kd_nodes_visited > 0 || snap.shard.forest_nodes_visited > 0);
        } else {
            assert_eq!(snap.shard.kd_nodes_visited, 0);
        }
    }

    #[test]
    fn isolated_observed_counts_each_error_variant_once() {
        use unn_distr::{ChaosDistribution, ChaosMode};
        let poison = Point::new(321.5, -654.25);
        let points = vec![
            Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
            Uncertain::uniform_disk(Point::new(6.0, 0.0), 1.0),
            Uncertain::Chaos(ChaosDistribution::new(
                Uncertain::uniform_disk(Point::new(0.0, 7.0), 2.0),
                ChaosMode::PanicAtQuery(poison),
            )),
        ];
        let idx = PnnIndex::new(points);
        let mut queries: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 0.4, 0.6)).collect();
        queries[7] = poison;
        queries[13] = Point::new(f64::NAN, 0.0);
        let metrics = PipelineMetrics::new();
        let out = idx.nn_nonzero_batch_isolated_observed(
            &queries,
            &BatchOptions::with_threads(2),
            &metrics,
            &NullClock,
        );
        assert_eq!(out, idx.nn_nonzero_batch_isolated(&queries));
        let snap = metrics.snapshot();
        assert_eq!(snap.shard.queries, 20);
        let panicked = error_label_index("query_panicked").unwrap();
        let degenerate = error_label_index("degenerate_geometry").unwrap();
        assert_eq!(
            snap.shard.error_counts[panicked], 1,
            "the poison query lands in exactly one query_panicked bucket"
        );
        assert_eq!(snap.shard.error_counts[degenerate], 1);
        assert_eq!(snap.shard.error_counts.iter().sum::<u64>(), 2);
        assert_eq!(snap.shard.exact_count, 18);

        // The adaptive isolated variant counts the same way and keeps
        // per-slot answers identical to the unobserved batch. (Its
        // Monte-Carlo estimator never evaluates distance CDFs at q, so the
        // chaos poison does not fire — only the NaN query errors.)
        let metrics = PipelineMetrics::new();
        let out = idx.quantify_adaptive_batch_isolated_observed(
            &queries,
            0.05,
            0.01,
            &BatchOptions::with_threads(2),
            &metrics,
            &NullClock,
        );
        assert_eq!(
            out,
            idx.quantify_adaptive_batch_isolated_with(
                &queries,
                0.05,
                0.01,
                &BatchOptions::default()
            )
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.shard.error_counts[degenerate], 1);
        let errored = snap.shard.error_counts.iter().sum::<u64>();
        assert_eq!(snap.shard.exact_count + errored, 20);
    }

    #[test]
    fn error_labels_cover_all_variants() {
        let errs = [
            UnnError::InvalidDistribution {
                index: None,
                reason: String::new(),
            },
            UnnError::InvalidConfig {
                reason: String::new(),
            },
            UnnError::DegenerateGeometry {
                reason: String::new(),
            },
            UnnError::BudgetExhausted {
                budget: 0,
                required: 1,
            },
            UnnError::QueryPanicked {
                message: String::new(),
            },
        ];
        for (i, e) in errs.iter().enumerate() {
            assert_eq!(error_label(e), ERROR_LABELS[i]);
            assert_eq!(error_label_index(error_label(e)), Some(i));
        }
    }
}
