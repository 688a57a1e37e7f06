//! Observability layer: per-query stats and batch pipeline metrics
//! (re-exporting and wiring up [`unn_observe`]).
//!
//! [`PnnIndex::observed`] wraps any query closure with three additions and
//! no behavioral change:
//!
//! 1. the structure-level counters (kd nodes visited/pruned, ball hits,
//!    checkpoint evaluations — live only under the `observe` feature,
//!    all-zero otherwise) are reset before and harvested after the query
//!    into a [`QueryStats`];
//! 2. the *result-derived* fields (rounds used vs available, certified
//!    accuracy, Exact/Degraded/Errored outcome) are filled from the return
//!    value through its [`Observed`] impl — these are meaningful even
//!    without the `observe` feature;
//! 3. wall-clock is taken from a caller-injected [`Clock`] — inject
//!    [`NullClock`] and the timing fields are identically zero, which is how
//!    the determinism tests compare [`PipelineMetrics`] bit-for-bit.
//!
//! ```
//! use unn::geom::Point;
//! use unn::observe::{NullClock, PipelineMetrics};
//! use unn::{BatchOptions, PnnIndex, Uncertain};
//!
//! let index = PnnIndex::new(vec![
//!     Uncertain::uniform_disk(Point::new(0.0, 0.0), 1.0),
//!     Uncertain::uniform_disk(Point::new(5.0, 1.0), 2.0),
//! ]);
//! let q = Point::new(2.0, 0.0);
//! let (a, stats) = index.observed(&NullClock, || index.quantify_adaptive(q, 0.05, 0.01));
//! assert_eq!(stats.rounds_used, a.rounds_used as u64);
//!
//! let queries = [q, Point::new(4.0, 1.0)];
//! let mut metrics = PipelineMetrics::new();
//! let opts = BatchOptions::default();
//! index.observed_batch(&queries, &opts, &mut metrics, &NullClock, |q| index.nn_nonzero(q));
//! assert_eq!(metrics.queries, 2);
//! ```
//!
//! # Determinism
//!
//! [`PipelineMetrics::deterministic`] (all non-timing fields) is a pure
//! function of `(index, queries)` — independent of thread count and query
//! order — because every counter is an order-independent sum of per-query
//! quantities that are themselves deterministic. Asserted at 1/2/8 threads
//! in `tests/batch_determinism.rs`.

use unn_geom::Point;
use unn_quantify::AdaptiveQuantify;

use crate::batch::BatchOptions;
use crate::index::{PnnIndex, QuantifyMethod};
use crate::resilience::{QuantifyOutcome, UnnError};

pub use unn_observe::{
    counters_enabled, error_label_index, Clock, CounterSet, Histogram, MonotonicClock, NullClock,
    PipelineMetrics, QueryOutcome, QueryStats, ServeCounters, VirtualClock, ERROR_LABELS,
    HIST_BUCKETS,
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

/// A query answer that knows its result-derived [`QueryStats`] fields.
pub trait Observed {
    /// Fills rounds used and total, the certified ε, the outcome and the
    /// error label from this answer; `rounds` is the index's round count
    /// `s`.
    fn fill(&self, rounds: u64, stats: &mut QueryStats);
}

/// NN≠0 ids: an exact answer with no rounds.
impl Observed for Vec<usize> {
    fn fill(&self, _rounds: u64, _stats: &mut QueryStats) {}
}

/// [`PnnIndex::quantify`]: the fixed-s estimator consumes every pre-drawn
/// round.
impl Observed for (Vec<f64>, QuantifyMethod) {
    fn fill(&self, rounds: u64, stats: &mut QueryStats) {
        if let QuantifyMethod::MonteCarlo { achieved_epsilon } = self.1 {
            stats.rounds_used = rounds;
            stats.rounds_total = rounds;
            stats.achieved_epsilon = achieved_epsilon;
        }
    }
}

impl Observed for AdaptiveQuantify {
    fn fill(&self, rounds: u64, stats: &mut QueryStats) {
        stats.rounds_used = self.rounds_used as u64;
        stats.rounds_total = rounds;
        stats.achieved_epsilon = self.half_width;
    }
}

impl Observed for QuantifyOutcome {
    fn fill(&self, rounds: u64, stats: &mut QueryStats) {
        if let QuantifyOutcome::Degraded {
            achieved_epsilon,
            rounds_used,
            ..
        } = self
        {
            stats.outcome = QueryOutcome::Degraded;
            stats.rounds_used = *rounds_used as u64;
            stats.rounds_total = rounds;
            stats.achieved_epsilon = *achieved_epsilon;
        }
    }
}

/// A typed error lands in exactly one [`PipelineMetrics::error_counts`]
/// bucket.
impl<T: Observed> Observed for Result<T, UnnError> {
    fn fill(&self, rounds: u64, stats: &mut QueryStats) {
        match self {
            Ok(answer) => answer.fill(rounds, stats),
            Err(e) => {
                stats.outcome = QueryOutcome::Errored;
                stats.error_label = Some(error_label(e));
            }
        }
    }
}

impl PnnIndex {
    /// Runs the query `f` between a counter reset and harvest, stamping
    /// wall-clock from `clock`, and returns its answer with its
    /// [`QueryStats`].
    pub fn observed<T: Observed>(
        &self,
        clock: &dyn Clock,
        f: impl FnOnce() -> T,
    ) -> (T, QueryStats) {
        let t0 = clock.now_nanos();
        unn_observe::begin_query();
        let answer = f();
        let mut stats = QueryStats {
            counters: unn_observe::take_counters(),
            wall_nanos: clock.now_nanos().saturating_sub(t0),
            ..QueryStats::default()
        };
        answer.fill(self.mc_rounds() as u64, &mut stats);
        (answer, stats)
    }

    /// [`PnnIndex::observed`] over a batch: answers `f(q)` for every query
    /// in parallel under `opts`, then records each query's stats into
    /// `metrics` in input order. The answers are those of
    /// `opts.map(queries, f)`.
    pub fn observed_batch<T: Observed + Send>(
        &self,
        queries: &[Point],
        opts: &BatchOptions,
        metrics: &mut PipelineMetrics,
        clock: &dyn Clock,
        f: impl Fn(Point) -> T + Sync,
    ) -> Vec<T> {
        let observed = opts.map(queries, |q| self.observed(clock, || f(q)));
        observed
            .into_iter()
            .map(|(answer, stats)| {
                metrics.record(&stats);
                answer
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::isolate;
    use crate::resilience::QueryBudget;
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
        assert_eq!(
            idx.observed(&clock, || idx.nn_nonzero(q)).0,
            idx.nn_nonzero(q)
        );
        let (a, stats) = idx.observed(&clock, || idx.quantify_adaptive(q, 0.05, 0.01));
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
        let guarded = |q, budget| idx.observed(&clock, || idx.quantify_guarded(q, budget));
        let (res, stats) = guarded(q, QueryBudget::unlimited());
        assert!(res.is_ok());
        assert_eq!(stats.outcome, QueryOutcome::Exact);
        let (res, stats) = guarded(q, QueryBudget::with_work(64));
        assert!(matches!(res, Ok(QuantifyOutcome::Degraded { .. })));
        assert_eq!(stats.outcome, QueryOutcome::Degraded);
        assert!(stats.rounds_used > 0);
        let (res, stats) = guarded(Point::new(f64::NAN, 0.0), QueryBudget::unlimited());
        assert!(res.is_err());
        assert_eq!(stats.outcome, QueryOutcome::Errored);
        assert_eq!(stats.error_label, Some("degenerate_geometry"));
    }

    #[test]
    fn batch_observed_fills_metrics() {
        let idx = index();
        let queries: Vec<Point> = (0..40).map(|i| Point::new(i as f64 * 0.3, 0.5)).collect();
        let mut metrics = PipelineMetrics::new();
        let plain: Vec<_> = queries
            .iter()
            .map(|&q| idx.quantify_adaptive(q, 0.05, 0.01))
            .collect();
        let observed = idx.observed_batch(
            &queries,
            &BatchOptions::with_threads(2),
            &mut metrics,
            &NullClock,
            |q| idx.quantify_adaptive(q, 0.05, 0.01),
        );
        assert_eq!(plain, observed);
        assert_eq!(metrics.queries, queries.len() as u64);
        assert_eq!(
            metrics.rounds_used,
            plain.iter().map(|a| a.rounds_used as u64).sum::<u64>()
        );
        assert_eq!(metrics.wall_nanos, 0);
        // Deep counters are live exactly when the observe feature is on.
        let c = &metrics.counters;
        if counters_enabled() {
            assert!(c.kd_nodes_visited > 0 || c.forest_nodes_visited > 0);
        } else {
            assert_eq!(c.kd_nodes_visited, 0);
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
        let opts = BatchOptions::with_threads(2);
        let mut metrics = PipelineMetrics::new();
        let out = idx.observed_batch(&queries, &opts, &mut metrics, &NullClock, |q| {
            idx.try_nn_nonzero(q)
        });
        assert_eq!(
            out,
            queries
                .iter()
                .map(|&q| idx.try_nn_nonzero(q))
                .collect::<Vec<_>>()
        );
        assert_eq!(metrics.queries, 20);
        let panicked = error_label_index("query_panicked").unwrap();
        let degenerate = error_label_index("degenerate_geometry").unwrap();
        assert_eq!(
            metrics.error_counts[panicked], 1,
            "the poison query lands in exactly one query_panicked bucket"
        );
        assert_eq!(metrics.error_counts[degenerate], 1);
        assert_eq!(metrics.error_counts.iter().sum::<u64>(), 2);
        assert_eq!(metrics.exact_count, 18);

        // Isolated adaptive answers count the same way and keep per-slot
        // answers identical to the unobserved batch. (Its Monte-Carlo
        // estimator never evaluates distance CDFs at q, so the chaos poison
        // does not fire — only the NaN query errors.)
        let mut metrics = PipelineMetrics::new();
        let out = idx.observed_batch(&queries, &opts, &mut metrics, &NullClock, |q| {
            isolate(q, || idx.quantify_adaptive(q, 0.05, 0.01))
        });
        assert_eq!(
            out,
            queries
                .iter()
                .map(|&q| isolate(q, || idx.quantify_adaptive(q, 0.05, 0.01)))
                .collect::<Vec<_>>()
        );
        assert_eq!(metrics.error_counts[degenerate], 1);
        let errored = metrics.error_counts.iter().sum::<u64>();
        assert_eq!(metrics.exact_count + errored, 20);
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
