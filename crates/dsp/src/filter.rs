//! Two-channel analysis filter banks: circular convolution + downsampling.
//!
//! Appendix A of the paper phrases the incremental DWT in terms of a low-pass
//! decomposition filter `h̃` (Equations 11–12): approximation coefficients at
//! the next level are obtained by convolving the current approximation signal
//! with `h̃` and downsampling by two. For Haar, `h̃ = [1/√2, 1/√2]`; longer
//! Daubechies-style filters have negative taps, which
//! [`crate::Bounds::analyze_online2`] handles by the sign of each tap.

/// A two-channel analysis filter bank described by its low-pass
/// decomposition filter `h̃` (the high-pass is the quadrature mirror, used
/// only for detail coefficients, which Stardust discards).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterBank {
    lowpass: Vec<f64>,
}

impl FilterBank {
    /// The Haar filter bank, `h̃ = [1/√2, 1/√2]`.
    pub fn haar() -> Self {
        FilterBank { lowpass: vec![crate::haar::INV_SQRT2; 2] }
    }

    /// Builds a filter bank from arbitrary low-pass taps.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "filter needs at least one tap");
        FilterBank { lowpass: taps }
    }

    /// The low-pass taps.
    pub fn taps(&self) -> &[f64] {
        &self.lowpass
    }

    /// One analysis step: circular convolution of `x` with the low-pass
    /// filter followed by downsampling by two (Equations 11–12).
    ///
    /// `out[n] = Σ_k h̃[k] · x[(2n + k) mod len]`.
    ///
    /// # Panics
    /// Panics if `x.len()` is odd or zero.
    pub fn analyze(&self, x: &[f64]) -> Vec<f64> {
        assert!(!x.is_empty() && x.len().is_multiple_of(2), "analysis needs even, nonzero length");
        let n = x.len();
        let mut out = Vec::with_capacity(n / 2);
        for i in 0..n / 2 {
            let mut acc = 0.0;
            for (k, &h) in self.lowpass.iter().enumerate() {
                acc += h * x[(2 * i + k) % n];
            }
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::haar;

    const EPS: f64 = 1e-10;

    /// The Daubechies-4 (two-vanishing-moment) filter bank, a fixture with
    /// a negative tap.
    pub(crate) fn db2() -> FilterBank {
        let s3 = 3f64.sqrt();
        let norm = 4.0 * 2f64.sqrt();
        FilterBank::from_taps(vec![
            (1.0 + s3) / norm,
            (3.0 + s3) / norm,
            (3.0 - s3) / norm,
            (1.0 - s3) / norm,
        ])
    }

    #[test]
    fn haar_analyze_matches_averaging_step() {
        let x = [1.0, 3.0, -2.0, 6.0, 0.5, 0.5, 9.0, -9.0];
        let via_filter = FilterBank::haar().analyze(&x);
        let via_step = haar::averaging_step(&x);
        for (a, b) in via_filter.iter().zip(&via_step) {
            assert!((a - b).abs() < EPS);
        }
    }

    #[test]
    fn haar_is_nonnegative_db2_is_not() {
        // The db2 fixture is what exercises the negative-tap branch of
        // the MBR transform.
        assert!(FilterBank::haar().taps().iter().all(|&t| t >= 0.0));
        assert!(db2().taps().iter().any(|&t| t < 0.0));
    }

    #[test]
    fn db2_lowpass_sums_to_sqrt2() {
        // Admissibility: Σ h̃[k] = √2 for an orthonormal two-channel bank.
        let sum: f64 = db2().taps().iter().sum();
        assert!((sum - 2f64.sqrt()).abs() < EPS);
    }

    #[test]
    fn db2_preserves_constant_energy_per_step() {
        // For a constant signal, one analysis step scales by √2 exactly.
        let x = vec![1.0; 8];
        let y = db2().analyze(&x);
        for v in y {
            assert!((v - 2f64.sqrt()).abs() < EPS);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = FilterBank::from_taps(vec![]);
    }
}
