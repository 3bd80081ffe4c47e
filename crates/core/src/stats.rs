//! Statistical primitives: normal CDF / quantiles, moments, and the
//! threshold-training procedure of §6.1.
//!
//! Equations 4–7 of the paper analyze the false-alarm rate of the
//! monitoring schemes through the standard normal distribution; the
//! experiments set per-window thresholds to `μ + λσ` of a training prefix.
//! Both are implemented here without external dependencies: `Φ` via the
//! Abramowitz–Stegun erf approximation and `Φ⁻¹` via Acklam's rational
//! approximation refined with one Halley step.

/// The error function `erf(x)`, Abramowitz–Stegun 7.1.26 (|ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF `Φ⁻¹(p)` (Acklam's approximation plus one
/// Halley refinement step; relative error below 1e-9 on (0, 1)).
///
/// # Panics
/// Panics if `p` is not strictly inside (0, 1).
pub fn phi_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley step against the high-accuracy CDF.
    let e = phi(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Sample mean of a slice; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice; zero for fewer than two
/// samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Trains the alarm threshold for window size `w` on a training prefix
/// (§6.1): slides a window of size `w` over `training`, applies `agg` to
/// each window position to obtain the series `y`, and returns
/// `μ_y + λ·σ_y`.
///
/// Returns `None` if the training data is shorter than `w`.
pub fn train_threshold<F>(training: &[f64], w: usize, lambda: f64, agg: F) -> Option<f64>
where
    F: FnMut(&[f64]) -> f64,
{
    if w == 0 || training.len() < w {
        return None;
    }
    let ys: Vec<f64> = training.windows(w).map(agg).collect();
    Some(mean(&ys) + lambda * std_dev(&ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // The A&S polynomial's coefficients sum to 1 only to ~1e-9.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn phi_reference_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-9);
        assert!((phi(1.0) - 0.841344746).abs() < 1e-6);
        assert!((phi(-1.959964) - 0.025).abs() < 1e-5);
    }

    #[test]
    fn phi_inv_roundtrip() {
        for &p in &[0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999] {
            let x = phi_inv(p);
            assert!((phi(x) - p).abs() < 1e-6, "p={p}: phi(phi_inv(p))={}", phi(x));
        }
    }

    #[test]
    fn phi_inv_symmetry() {
        for &p in &[0.01, 0.2, 0.35] {
            assert!((phi_inv(p) + phi_inv(1.0 - p)).abs() < 1e-8);
        }
    }

    #[test]
    fn moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_training_flat_series() {
        // Constant series: every window sum is w·k, σ = 0.
        let train = vec![2.0; 100];
        let tau = train_threshold(&train, 10, 5.0, |w| w.iter().sum()).unwrap();
        assert!((tau - 20.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_training_scales_with_lambda() {
        let train: Vec<f64> = (0..200).map(|i| ((i * 31) % 17) as f64).collect();
        let t0 = train_threshold(&train, 8, 0.0, |w| w.iter().sum()).unwrap();
        let t2 = train_threshold(&train, 8, 2.0, |w| w.iter().sum()).unwrap();
        let t5 = train_threshold(&train, 8, 5.0, |w| w.iter().sum()).unwrap();
        assert!(t0 < t2 && t2 < t5);
    }

    #[test]
    fn threshold_training_too_short() {
        assert!(train_threshold(&[1.0, 2.0], 5, 1.0, |w| w.iter().sum()).is_none());
    }

    #[test]
    #[should_panic(expected = "quantile needs p")]
    fn phi_inv_rejects_bounds() {
        let _ = phi_inv(1.0);
    }
}
