//! # unn-spatial — spatial indexes for uncertain nearest-neighbor search
//!
//! Practical index structures standing in for the paper's theoretical ones
//! (see DESIGN.md §4 for the substitution table):
//!
//! * [`KdTree`] — (m-)nearest neighbors (seedable via
//!   [`KdTree::nearest_within`]), disk range reporting, and the
//!   adjusted-distance queries behind the two-stage `NN≠0` structure (§3);
//! * [`KdForest`] — many small kd-trees packed round-major into shared
//!   contiguous arenas; the storage of the Monte-Carlo quantification
//!   structure (§4.2);
//! * [`QuadTree`] — branch-and-bound m-NN, the alternative the paper itself
//!   recommends (§4.3 remark (ii));
//! * [`RTree`] — STR-packed R-tree, the substrate of the `[CKP04]`
//!   branch-and-prune baseline;
//! * [`PersistentSet`] — path-copying persistent sets implementing the
//!   `O(μ)`-space cell-label storage of §2.1 `[DSST89]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod kdtree;
pub mod persist;
pub mod quadtree;
pub mod rtree;
mod scan;

pub use forest::KdForest;
pub use kdtree::{KdConfig, KdTree, Neighbor};
pub use persist::PersistentSet;
pub use quadtree::QuadTree;
pub use rtree::RTree;
