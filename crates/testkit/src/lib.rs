//! # unn-testkit — shared differential-test corpora, references and batteries
//!
//! The integration suites (`tests/kernel_equivalence.rs`,
//! `tests/dynamic_oracle.rs`, `tests/dynamic_pruning.rs`, `tests/oracle.rs`,
//! `tests/fault_injection.rs`) all probe the same invariant from different
//! angles: *every read path is a pure function of the live point set* — a
//! pruned kd walk vs a flat scan, dynamic vs fresh static. Before this
//! crate each suite carried its own copy of the corpus generators; a corpus
//! hardened in one file (denormals, 1e308 coordinates, churn-shaped id
//! gaps) silently never reached the others.
//!
//! This crate is the single home for that shared machinery:
//!
//! * [`corpus`] — seeded, named point/distribution corpora: duplicate-heavy
//!   random clouds, adversarial geometry (coincident, collinear, denormal,
//!   near-overflow), disk and discrete uncertain sets, aux-offset vectors,
//!   support boxes, and regime-spanning ball radii.
//! * [`brute`] — the reference answers: every kd-tree, forest, Monte-Carlo
//!   and dynamic-snapshot query recomputed from its definition by a flat
//!   scan. The library crates ship one implementation per query; these are
//!   what the suites check it against.
//! * [`churn`] — drives a [`unn::dynamic::DynamicPnnIndex`] through an
//!   arbitrary insert/remove interleaving against a map mirror, yielding
//!   the layouts a static build never produces.
//! * [`sig`] — the full read-path battery serialized into a flat word
//!   stream: two signatures are equal iff the two runs were bit-identical
//!   on every kernel.
//!
//! Everything is deterministic: generators take explicit seeds and derive
//! any internal streams from them, so a failing case replays from its seed
//! alone. The crate is test-support only — it never ships in a build of
//! the library crates, which must not depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod churn;
pub mod corpus;
pub mod sig;

/// Largest absolute componentwise difference between two equal-length
/// probability vectors — the metric every honesty bound is stated in.
///
/// # Panics
///
/// Panics if the slices have different lengths (a differential harness
/// comparing vectors of different shapes is already broken).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "comparing vectors of different lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
