//! # unn-quantify — quantification probabilities (paper §4)
//!
//! Everything needed to return the probabilities `π_i(q)` of each uncertain
//! point being the nearest neighbor of a query:
//!
//! * [`exact`] — exact sweep evaluation of Eq. 2 (discrete case), and
//!   [`ExactTier`], which picks that sweep or [`numeric`] for a point set
//!   and prices it;
//! * [`montecarlo`] — the `s`-round instantiation structure (Thm 4.3/4.5);
//! * [`spiral`] — deterministic spiral-search truncation (Thm 4.7);
//! * [`vpr`] — the probabilistic Voronoi diagram `𝒱_Pr` (Thm 4.2);
//! * [`numeric`] — adaptive numeric integration of Eq. 1 (the `[CKP04]`
//!   baseline for continuous distributions);
//! * [`threshold`] — probability-threshold NN queries on top of the
//!   estimators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exact;
pub mod knn;
pub mod montecarlo;
pub mod numeric;
pub mod spiral;
pub mod threshold;
pub mod vpr;

pub use error::{panic_message, QuantifyError};
pub use exact::{quantification_exact, quantification_exact_recompute, ExactTier};
pub use knn::knn_membership_exact;
pub use montecarlo::{
    adaptive_half_width_bound, adaptive_over_winners, point_stream_seed,
    quantification_monte_carlo, AdaptiveQuantify, McBackend, MonteCarloIndex, ADAPTIVE_MIN_ROUNDS,
};
pub use numeric::quantification_numeric;
pub use spiral::SpiralIndex;
pub use threshold::{threshold_query_spiral, ThresholdResult};
pub use vpr::ProbabilisticVoronoi;
