//! R\*-tree spatial index substrate for the Stardust framework.
//!
//! The paper (§4) indexes the MBRs produced at every resolution level in an
//! R\*-tree ("We use the R\*-Tree family of index structures for indexing
//! MBRs at each level"). This crate is a from-scratch implementation of the
//! R\*-tree of Beckmann et al. (SIGMOD 1990) with:
//!
//! * overlap-minimizing ChooseSubtree, margin-driven split, and forced
//!   reinsertion ([`tree`]),
//! * deletion with tree condensation, required by the summarizer's sliding
//!   history (features older than `N` are retired),
//! * rectangle-intersection and point/radius range queries, the primitives
//!   behind Algorithms 2–4,
//! * STR bulk loading ([`bulk`]), used by engine restore.
//!
//! Beside the tree sits [`table::PointTable`], a flat point store banded
//! on the first axis. The correlation and trend monitors index a few
//! thousand *points* that turn over every round; there a scan of the
//! bands a query reaches beats any rebalanced structure, with the same
//! result set (see the module docs for the argument).
//!
//! The geometry scan primitives process bounds in fixed-width chunks the
//! optimizer can vectorize, bit-identical to the scalar reference (see
//! [`geometry`] for the determinism contract).

pub mod bulk;
pub mod geometry;
pub mod table;
pub mod tree;

pub use bulk::bulk_load;
pub use geometry::{Rect, RectRef};
pub use table::PointTable;
pub use tree::{Params, RStarTree, TreeCounters};
