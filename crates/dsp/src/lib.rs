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
//!   downsampling) including the δ-split of Lemma A.2 that extends the MBR
//!   transform to filters with negative taps.
//! * [`mbr_transform`] — the two approximate MBR transforms of Appendix A:
//!   *Online I* (corner enumeration, Θ(2^f'·f), tightest) and *Online II*
//!   (low/high corners with δ-split, Θ(f), looser but fast).
//! * [`dft`] — the sliding-window discrete Fourier transform maintained over
//!   basic windows, the substrate of the StatStream baseline.
//! * [`complex`] — a minimal complex-number type used by the DFT.
//!
//! All transforms are deterministic and allocation-conscious: the hot merge
//! paths (`merge_halves`, `Bounds` merges) reuse caller-provided buffers
//! where it matters.

pub mod complex;
pub mod dft;
pub mod filter;
pub mod haar;
pub mod mbr_transform;

pub use complex::Complex;
pub use filter::FilterBank;
pub use mbr_transform::Bounds;
