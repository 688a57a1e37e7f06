//! Façade over the [`unn_serve`] sharded serving tier.
//!
//! [`unn_serve`] speaks its own vocabulary (it sits below this crate in the
//! dependency graph); this module translates it into the core resilience
//! types so applications can stay inside one error and outcome model:
//!
//! * [`ServeError`] converts into [`UnnError`] (`From`);
//! * a serving [`Reply`] converts into the familiar
//!   [`QuantifyOutcome`] via [`outcome_from_reply`] — `Exact` stays exact,
//!   the adaptive/capped tiers become [`QuantifyOutcome::Degraded`] with
//!   the honest `achieved_epsilon` the surviving rounds certify, and a shed
//!   reply becomes a typed [`UnnError`];
//! * [`serve_config`] derives a [`ServeConfig`] from a
//!   [`DynamicPnnConfig`], and [`insert_policy`] maps
//!   [`ValidationPolicy`] onto the serving tier's insert policies.

pub use unn_serve::{
    AdmissionConfig, BreakerConfig, BreakerState, ChaosShard, CircuitBreaker, DispatchConfig,
    Dispatcher, EngineShard, ExactView, FaultKind, FeedbackConfig, InsertPolicy, Outcome, Reply,
    Request, RetryPolicy, ServeConfig, ServeError, ShardBackend, ShardPolicy, ShardSet,
    ShardSetSnapshot, ShedReason,
};

use crate::dynamic::DynamicPnnConfig;
use crate::index::QuantifyMethod;
use crate::resilience::{QuantifyOutcome, UnnError, ValidationPolicy};

impl From<ServeError> for UnnError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::InvalidConfig { reason } => UnnError::InvalidConfig { reason },
            ServeError::InvalidPoint { reason } => UnnError::InvalidDistribution {
                index: None,
                reason,
            },
            ServeError::InsertPanicked { message } => UnnError::QueryPanicked { message },
        }
    }
}

/// The [`ServeConfig`] that makes a shard set behave like a
/// [`DynamicPnnIndex`](crate::DynamicPnnIndex) built from `cfg` (same seed,
/// round count, compaction, and accuracy targets).
pub fn serve_config(cfg: &DynamicPnnConfig) -> ServeConfig {
    ServeConfig {
        seed: cfg.base.seed,
        mc_rounds: cfg.mc_rounds.clamp(1, cfg.base.max_mc_rounds.max(1)),
        max_dead_fraction: cfg.max_dead_fraction,
        policy: cfg.policy,
        hot_promote_ratio: cfg.hot_promote_ratio,
        epsilon: cfg.base.epsilon,
        delta: cfg.base.delta,
        numeric_steps: cfg.base.numeric_steps,
        adaptive_min_rounds: cfg.base.adaptive_min_rounds,
    }
}

/// Maps the core validation policy onto the serving insert policy.
pub fn insert_policy(policy: ValidationPolicy) -> InsertPolicy {
    match policy {
        ValidationPolicy::Strict => InsertPolicy::Strict,
        ValidationPolicy::Repair => InsertPolicy::Repair,
    }
}

/// Translates a serving [`Reply`] for a quantification request into the
/// core [`QuantifyOutcome`] vocabulary. Work is accounted as Monte-Carlo
/// rounds for the degraded tiers and as the layout size for exact answers.
///
/// * `Exact` → [`QuantifyOutcome::Exact`];
/// * `Adaptive`/`Capped` → [`QuantifyOutcome::Degraded`] carrying the
///   honest `achieved_epsilon`;
/// * `Shed` → a typed error: [`UnnError::BudgetExhausted`] for capacity or
///   deadline sheds, [`UnnError::DegenerateGeometry`] for an invalid query,
///   [`UnnError::QueryPanicked`] when no shard survived to answer;
/// * an NN≠0 reply is a contract violation → [`UnnError::InvalidConfig`].
pub fn outcome_from_reply(reply: &Reply) -> Result<QuantifyOutcome, UnnError> {
    match &reply.outcome {
        Outcome::Exact { pi } => Ok(QuantifyOutcome::Exact {
            pi: pi.clone(),
            method: QuantifyMethod::ExactSweep,
            work: reply.layout.len() as u64,
        }),
        Outcome::Adaptive {
            pi,
            achieved_epsilon,
            rounds_used,
        }
        | Outcome::Capped {
            pi,
            achieved_epsilon,
            rounds_used,
        } => Ok(QuantifyOutcome::Degraded {
            pi: pi.clone(),
            achieved_epsilon: *achieved_epsilon,
            rounds_used: *rounds_used,
            work: *rounds_used as u64,
        }),
        Outcome::Shed { reason } => Err(match reason {
            ShedReason::CapacityExhausted | ShedReason::DeadlineExceeded => {
                UnnError::BudgetExhausted {
                    budget: 0,
                    required: reply.total_live as u64,
                }
            }
            ShedReason::InvalidQuery => UnnError::DegenerateGeometry {
                reason: "non-finite query point".into(),
            },
            ShedReason::NoCoverage => UnnError::QueryPanicked {
                message: "every shard failed; no coverage to answer from".into(),
            },
        }),
        Outcome::Nonzero { .. } => Err(UnnError::InvalidConfig {
            reason: "outcome_from_reply expects a quantification reply".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::QueryBudget;
    use std::sync::Arc;
    use unn_geom::Point;
    use unn_observe::NullClock;

    fn build_set(n: usize) -> ShardSet {
        let cfg = serve_config(&DynamicPnnConfig {
            mc_rounds: 64,
            ..DynamicPnnConfig::default()
        });
        let mut set = ShardSet::new(3, ShardPolicy::Hash, cfg).unwrap_or_else(|e| panic!("{e}"));
        for i in 0..n {
            set.insert(crate::Uncertain::uniform_disk(
                Point::new((i % 6) as f64 * 2.0, (i / 6) as f64 * 2.0),
                0.4,
            ));
        }
        set
    }

    #[test]
    fn facade_reply_maps_to_quantify_outcome() {
        let set = build_set(14);
        let snap = set.snapshot();
        let mut d = Dispatcher::for_snapshot(&snap, DispatchConfig::default(), Arc::new(NullClock))
            .unwrap_or_else(|e| panic!("{e}"));
        let q = Point::new(1.0, 1.0);
        let replies = d.serve(&[Request::Quantify(q)]);
        let outcome = outcome_from_reply(&replies[0]).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            !outcome.is_degraded(),
            "healthy full-capacity serve is exact"
        );
        // The probabilities agree with the unsharded budget path's exact tier.
        let idx: crate::DynamicPnnIndex = {
            let mut ix = crate::DynamicPnnIndex::with_config(DynamicPnnConfig {
                mc_rounds: 64,
                ..DynamicPnnConfig::default()
            })
            .unwrap_or_else(|e| panic!("{e}"));
            for i in 0..14usize {
                ix.insert(crate::Uncertain::uniform_disk(
                    Point::new((i % 6) as f64 * 2.0, (i / 6) as f64 * 2.0),
                    0.4,
                ));
            }
            ix
        };
        let oracle = idx
            .snapshot()
            .quantify_within(q, QueryBudget::unlimited())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(outcome.pi(), oracle.pi());
    }

    #[test]
    fn shed_replies_become_typed_errors() {
        let set = build_set(6);
        let snap = set.snapshot();
        let cfg = DispatchConfig {
            admission: AdmissionConfig {
                work_capacity: 0,
                ..AdmissionConfig::default()
            },
            ..DispatchConfig::default()
        };
        let mut d = Dispatcher::for_snapshot(&snap, cfg, Arc::new(NullClock))
            .unwrap_or_else(|e| panic!("{e}"));
        let replies = d.serve(&[
            Request::Quantify(Point::new(0.0, 0.0)),
            Request::Quantify(Point::new(f64::NAN, 0.0)),
        ]);
        assert!(matches!(
            outcome_from_reply(&replies[0]),
            Err(UnnError::BudgetExhausted { .. })
        ));
        assert!(matches!(
            outcome_from_reply(&replies[1]),
            Err(UnnError::DegenerateGeometry { .. })
        ));
        let err: UnnError = ServeError::InvalidPoint { reason: "x".into() }.into();
        assert!(matches!(err, UnnError::InvalidDistribution { .. }));
    }
}
