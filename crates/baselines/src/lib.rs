//! Published baselines the Stardust paper (§3, §6) compares against,
//! implemented from scratch:
//!
//! * [`swt`] — Shifted Wavelet Tree elastic burst detection (Zhu & Shasha,
//!   KDD 2003); the Fig. 4 comparator.
//! * [`statstream`] — grid-based DFT correlation monitoring (Zhu & Shasha,
//!   VLDB 2002); the Table 1 / Fig. 6 comparator.
//! * [`dft`] — the sliding-window discrete Fourier transform maintained
//!   over basic windows, StatStream's summary, with [`complex`], the
//!   minimal complex-number type it needs.
//! * [`generalmatch`] — dual-window subsequence matching (Moon, Whang &
//!   Han, SIGMOD 2002); a Fig. 5 comparator.
//! * [`mrindex`] — the multi-resolution index of Kahveci & Singh (ICDE
//!   2001) run in its streaming (recompute-per-arrival) form; the other
//!   Fig. 5 comparator.
//! * [`linear_scan`] — exhaustive ground truth for all three query
//!   classes.

pub mod complex;
pub mod dft;
pub mod generalmatch;
pub mod linear_scan;
pub mod mrindex;
pub mod statstream;
pub mod swt;

pub use generalmatch::GeneralMatch;
pub use linear_scan::ExhaustiveMonitor;
pub use mrindex::MrIndex;
pub use statstream::StatStream;
pub use swt::{SwtAlarm, SwtMonitor};
