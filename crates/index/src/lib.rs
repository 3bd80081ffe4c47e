//! Spatial index substrate for the Stardust framework.
//!
//! [`table::PointTable`] is the index the monitors use: a flat point
//! store banded on the first axis. The correlation and trend monitors
//! index a few thousand *points* that turn over every round; there a scan
//! of the bands a query reaches beats any rebalanced structure, with the
//! same result set (see the module docs for the argument).
//!
//! The paper (§4) indexes the MBRs of every resolution level in an
//! R\*-tree. The pattern engine (`stardust_core::engine`) scans the MBRs
//! its stream summaries already keep instead. [`tree::RStarTree`], a
//! from-scratch R\*-tree of Beckmann et al. (SIGMOD 1990), remains as the
//! index of the GeneralMatch baseline and as the benchmark's reference
//! index. It has:
//!
//! * overlap-minimizing ChooseSubtree, margin-driven split, and forced
//!   reinsertion,
//! * deletion with tree condensation,
//! * rectangle-intersection and point/radius range queries.
//!
//! The geometry scan primitives process bounds in fixed-width chunks the
//! optimizer can vectorize, bit-identical to the scalar reference (see
//! [`geometry`] for the determinism contract).

pub mod geometry;
pub mod table;
pub mod tree;

pub use geometry::{Rect, RectRef};
pub use table::PointTable;
pub use tree::{Params, RStarTree, TreeCounters};
