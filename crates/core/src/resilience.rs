//! Typed errors, validation policy, and per-query budgets.
//!
//! The resilience layer gives the whole pipeline one failure vocabulary:
//!
//! * [`UnnError`] — every way a build or query can fail, as data. The
//!   `try_*` entry points ([`crate::PnnIndex::try_build`],
//!   [`crate::PnnIndex::try_nn_nonzero`],
//!   [`crate::PnnIndex::quantify_guarded`], any query wrapped in
//!   [`crate::batch::isolate`]) guarantee that no panic escapes them — a
//!   caught panic is converted to [`UnnError::QueryPanicked`].
//! * [`ValidationPolicy`] — what to do with invalid or degenerate inputs at
//!   build time: reject ([`ValidationPolicy::Strict`]) or fix what is
//!   fixable ([`ValidationPolicy::Repair`]).
//! * [`QueryBudget`] and [`QuantifyOutcome`] — graceful degradation: when
//!   an exact answer does not fit the work budget, the query falls back to
//!   capped adaptive Monte-Carlo and reports the accuracy it *actually*
//!   certified ([`QuantifyOutcome::Degraded`]) instead of silently
//!   overrunning or failing.
//!
//! Budgets are counted in deterministic *work units*, not wall-clock time,
//! so budgeted results remain pure functions of `(index, query, budget)`
//! and the batch determinism contract extends to degraded answers.

use unn_distr::discrete::DiscreteError;
use unn_distr::DistrError;
use unn_geom::Point;
use unn_nonzero::NonzeroError;
use unn_quantify::{AdaptiveQuantify, ExactTier, QuantifyError};
use unn_voronoi::VoronoiError;

use crate::index::{exact_answer, QuantifyMethod};

/// Every way an `unn` build or query can fail.
#[derive(Clone, Debug, PartialEq)]
pub enum UnnError {
    /// An input distribution failed validation (non-finite coordinates,
    /// empty or non-positive-weight support, …).
    InvalidDistribution {
        /// Index of the offending point in the input, when attributable.
        index: Option<usize>,
        /// Human-readable cause.
        reason: String,
    },
    /// A configuration parameter is out of its documented range.
    InvalidConfig {
        /// Human-readable cause.
        reason: String,
    },
    /// The input geometry is degenerate for the requested structure
    /// (duplicate sites under [`ValidationPolicy::Strict`], non-finite
    /// query coordinates, …).
    DegenerateGeometry {
        /// Human-readable cause.
        reason: String,
    },
    /// A budgeted query could not produce even a degraded answer within
    /// the budget.
    BudgetExhausted {
        /// The effective budget that was available (work units).
        budget: u64,
        /// The minimum work the cheapest fallback would have needed.
        required: u64,
    },
    /// A query panicked; the panic was caught at the API boundary (the
    /// `try_*` entry points and [`crate::batch::isolate`]) and converted.
    QueryPanicked {
        /// Best-effort panic payload message.
        message: String,
    },
}

impl core::fmt::Display for UnnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnnError::InvalidDistribution {
                index: Some(i),
                reason,
            } => {
                write!(f, "invalid distribution at index {i}: {reason}")
            }
            UnnError::InvalidDistribution {
                index: None,
                reason,
            } => {
                write!(f, "invalid distribution: {reason}")
            }
            UnnError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            UnnError::DegenerateGeometry { reason } => write!(f, "degenerate geometry: {reason}"),
            UnnError::BudgetExhausted { budget, required } => {
                write!(
                    f,
                    "budget exhausted: {budget} work units available, cheapest fallback needs {required}"
                )
            }
            UnnError::QueryPanicked { message } => write!(f, "query panicked: {message}"),
        }
    }
}

impl std::error::Error for UnnError {}

impl From<DistrError> for UnnError {
    fn from(e: DistrError) -> Self {
        UnnError::InvalidDistribution {
            index: None,
            reason: e.to_string(),
        }
    }
}

impl From<DiscreteError> for UnnError {
    fn from(e: DiscreteError) -> Self {
        UnnError::InvalidDistribution {
            index: None,
            reason: e.to_string(),
        }
    }
}

impl From<NonzeroError> for UnnError {
    fn from(e: NonzeroError) -> Self {
        let index = match &e {
            NonzeroError::NonFiniteDisk { index }
            | NonzeroError::NegativeRadius { index, .. }
            | NonzeroError::EmptySupport { index }
            | NonzeroError::NonFiniteLocation { index, .. } => Some(*index),
        };
        UnnError::InvalidDistribution {
            index,
            reason: e.to_string(),
        }
    }
}

impl From<QuantifyError> for UnnError {
    fn from(e: QuantifyError) -> Self {
        match e {
            QuantifyError::DegenerateInput(reason) => UnnError::DegenerateGeometry { reason },
            QuantifyError::Panicked(message) => UnnError::QueryPanicked { message },
        }
    }
}

impl From<VoronoiError> for UnnError {
    fn from(e: VoronoiError) -> Self {
        UnnError::DegenerateGeometry {
            reason: e.to_string(),
        }
    }
}

/// What [`crate::PnnIndex::try_build`] does with invalid or degenerate
/// inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationPolicy {
    /// Reject: any invalid distribution or duplicate point is a typed
    /// error. On clean inputs, `Strict` and `Repair` build *identical*
    /// indexes (asserted by the degenerate-geometry property tests).
    #[default]
    Strict,
    /// Fix what is fixable, reject the rest:
    ///
    /// * discrete supports are repaired location-wise — non-finite
    ///   locations and non-positive weights dropped, exact duplicate
    ///   locations merged (weights summed), the rest renormalized; a
    ///   support with nothing salvageable is still an error;
    /// * exact duplicate *points* (identical distributions) are deduped,
    ///   keeping the first occurrence — the built index then holds fewer
    ///   points than the input and indices refer to the deduped set
    ///   ([`crate::PnnIndex::points`] shows what was kept);
    /// * everything else behaves like [`ValidationPolicy::Strict`].
    Repair,
}

/// A deterministic per-query work budget.
///
/// Work units are counted in *location touches*: the exact tier costs what
/// [`ExactTier::work`] prices it at, and one Monte-Carlo round costs `1`
/// (its per-round search is logarithmic, amortized below one location
/// touch per round on the instances the cap matters for). The two fields
/// are capped jointly: the effective budget is their minimum.
/// `deadline_proxy` exists so callers with a latency target can derive a
/// second, tighter cap from a calibrated work-per-second rate without
/// giving up determinism — wall clock never enters the query path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryBudget {
    /// Hard cap on work units.
    pub max_work: u64,
    /// Deadline expressed as work units (a calibrated time proxy).
    pub deadline_proxy: u64,
}

impl QueryBudget {
    /// No limit: budgeted entry points behave like their exact
    /// counterparts.
    pub fn unlimited() -> Self {
        QueryBudget {
            max_work: u64::MAX,
            deadline_proxy: u64::MAX,
        }
    }

    /// A pure work cap with no deadline component.
    pub fn with_work(max_work: u64) -> Self {
        QueryBudget {
            max_work,
            deadline_proxy: u64::MAX,
        }
    }

    /// The binding constraint: `min(max_work, deadline_proxy)`.
    pub fn effective(&self) -> u64 {
        self.max_work.min(self.deadline_proxy)
    }

    /// The degradation ladder behind every `quantify_within`: `tier`'s
    /// exact answer if its [`ExactTier::work`] fits, else
    /// [`UnnError::BudgetExhausted`] under a zero budget, else the caller's
    /// capped adaptive Monte-Carlo fold, given at most one round per work
    /// unit.
    pub(crate) fn ladder(
        self,
        tier: &ExactTier,
        q: Point,
        capped_fold: impl FnOnce(usize) -> AdaptiveQuantify,
    ) -> Result<QuantifyOutcome, UnnError> {
        let cap = self.effective();
        let work = tier.work();
        if work <= cap {
            let (pi, method) = exact_answer(tier, q);
            return Ok(QuantifyOutcome::Exact { pi, method, work });
        }
        if cap == 0 {
            return Err(UnnError::BudgetExhausted {
                budget: cap,
                required: 1,
            });
        }
        let a = capped_fold(usize::try_from(cap).unwrap_or(usize::MAX));
        Ok(QuantifyOutcome::Degraded {
            work: a.rounds_used as u64,
            achieved_epsilon: a.half_width,
            rounds_used: a.rounds_used,
            pi: a.pi,
        })
    }
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A budgeted quantification answer ([`crate::PnnIndex::quantify_within`]).
#[derive(Clone, Debug, PartialEq)]
pub enum QuantifyOutcome {
    /// The exact (or configured-ε) answer fit the budget.
    Exact {
        /// The probabilities `π_i(q)`.
        pi: Vec<f64>,
        /// Which estimator produced them.
        method: QuantifyMethod,
        /// Work units spent.
        work: u64,
    },
    /// The exact answer did not fit; capped adaptive Monte-Carlo ran
    /// instead and certifies the (honest, possibly large) accuracy below.
    Degraded {
        /// The estimated probabilities `π̂_i(q)`.
        pi: Vec<f64>,
        /// The certified half-width at stopping: with probability
        /// `≥ 1 − δ`, every `|π̂_i − π_i|` is at most this.
        achieved_epsilon: f64,
        /// Monte-Carlo rounds consumed.
        rounds_used: usize,
        /// Work units spent.
        work: u64,
    },
}

impl QuantifyOutcome {
    /// The probability vector, whichever path produced it.
    pub fn pi(&self) -> &[f64] {
        match self {
            QuantifyOutcome::Exact { pi, .. } | QuantifyOutcome::Degraded { pi, .. } => pi,
        }
    }

    /// `true` when the budget forced the fallback path.
    pub fn is_degraded(&self) -> bool {
        matches!(self, QuantifyOutcome::Degraded { .. })
    }

    /// Work units spent producing the answer.
    pub fn work(&self) -> u64 {
        match self {
            QuantifyOutcome::Exact { work, .. } | QuantifyOutcome::Degraded { work, .. } => *work,
        }
    }
}
