//! Transform substrate for the Stardust stream-monitoring framework.
//!
//! This crate implements, from scratch, the signal-processing machinery the
//! paper *A Unified Framework for Monitoring Data Streams in Real Time*
//! (Bulut & Singh, ICDE 2005) depends on:
//!
//! * [`haar`] — the Haar discrete wavelet transform, its approximation
//!   pyramid, and the **exact incremental half-merge** of Lemma A.1: the
//!   approximation coefficients of a window can be computed in Θ(f) from the
//!   approximation coefficients of its two halves.
//! * [`filter`] — general two-channel filter banks (circular convolution +
//!   downsampling), with or without negative taps.
//! * [`mbr_transform`] — the MBR transform of Appendix A: one Θ(taps·d)
//!   pass that pushes a feature box through one analysis step and returns
//!   the tightest enclosing box (for any bank shorter than the box).
//!
//! All transforms are deterministic and allocation-conscious: the hot merge
//! paths (`merge_halves`, `Bounds` merges) reuse caller-provided buffers
//! where it matters.

pub mod filter;
pub mod haar;
pub mod mbr_transform;

pub use filter::FilterBank;
pub use mbr_transform::Bounds;
