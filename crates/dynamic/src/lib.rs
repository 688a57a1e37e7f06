//! # unn-dynamic — dynamic uncertain-NN index (logarithmic method)
//!
//! Maintains a live set of uncertain points under `insert` / `remove` using
//! the Bentley–Saxe logarithmic method: the set is partitioned into
//! geometrically-sized **immutable blocks**; an insert builds a singleton
//! block and cascades merges while two blocks share a size class, so each
//! point participates in O(log n) rebuilds over its lifetime. Removals are
//! **tombstones** (a copy-on-write alive bitmap per block); when the dead
//! fraction exceeds a threshold the whole structure compacts into one block.
//!
//! Queries run against an [`EngineSnapshot`] — a cheap frozen view (shared
//! `Arc`s of the block cores and bitmaps) that is immune to concurrent
//! updates. Per-block partial results compose losslessly:
//!
//! * `NN≠0` composes via [`unn_nonzero::DeltaCompose`] (Lemma 2.1): the
//!   global pruning threshold is the min over blocks, and the candidate
//!   re-filter is a pure per-point predicate — results are **bit-identical**
//!   regardless of block layout or merge history.
//! * Monte-Carlo rounds key each point's RNG stream by its **stable id**
//!   ([`unn_quantify::point_stream_seed`]), so round samples — and hence the
//!   estimate — do not change when a point migrates between blocks.
//!
//! The user-facing facade (validation policies, budgets, batch queries)
//! lives in `unn::dynamic`; this crate is the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod engine;

/// Stable identity of a point across merges, compactions, and snapshots.
pub type PointId = u64;

pub use block::BlockCore;
pub use engine::{
    CompactionPolicy, DynamicEngine, DynamicError, DynamicStats, EngineConfig, EngineSnapshot,
};
