//! The two normalizations of §2.3 / §2.4 and the correlation ↔ distance
//! reduction.

/// Unit-hypersphere normalization (Eq. 2): `x̂[i] = x[i] / (√w · R_max)`,
/// mapping a window of values in `[0, R_max]` into the unit hyper-sphere.
///
/// # Panics
/// Panics if the window is empty or `r_max` is not positive.
pub fn unit_sphere(window: &[f64], r_max: f64) -> Vec<f64> {
    assert!(!window.is_empty(), "cannot normalize an empty window");
    assert!(r_max > 0.0, "R_max must be positive");
    let s = 1.0 / ((window.len() as f64).sqrt() * r_max);
    window.iter().map(|x| x * s).collect()
}

/// The scale factor of Eq. 2 for window length `w`: `1 / (√w · R_max)`.
/// The DWT is linear, so features can be maintained unnormalized and scaled
/// by this factor when they are inserted into the index.
#[inline]
pub fn unit_sphere_scale(w: usize, r_max: f64) -> f64 {
    1.0 / ((w as f64).sqrt() * r_max)
}

/// z-normalization (Eq. 3): subtract the mean and divide by the centered
/// L2 norm, so that `‖x̂‖ = 1` and the mean is zero.
///
/// Returns `None` for windows with zero variance (the z-norm is
/// undefined).
pub fn z_norm(window: &[f64]) -> Option<Vec<f64>> {
    let mut z = window.to_vec();
    z_norm_in_place(&mut z).then_some(z)
}

/// [`z_norm`] overwriting the window, for callers that reuse one buffer
/// across many windows. Returns `false` (leaving the values untouched)
/// for windows with zero variance.
pub fn z_norm_in_place(window: &mut [f64]) -> bool {
    assert!(!window.is_empty(), "cannot normalize an empty window");
    let w = window.len() as f64;
    let mu = window.iter().sum::<f64>() / w;
    let energy: f64 = window.iter().map(|x| (x - mu) * (x - mu)).sum();
    if energy <= 0.0 {
        return false;
    }
    let s = 1.0 / energy.sqrt();
    for x in window {
        *x = (*x - mu) * s;
    }
    true
}

/// Width of the chunks [`l2_distance`] squares per iteration: one 256-bit
/// vector of `f64`, matching the index geometry primitives.
const LANES: usize = 4;

/// Euclidean distance between two equal-length slices.
///
/// The squared differences are formed in fixed-width chunks (a strictly
/// element-wise kernel the optimizer can vectorize) and accumulated in
/// element order, so the value is bit-identical to the naive running sum.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let (ac, at) = a.as_chunks::<LANES>();
    let (bc, bt) = b.as_chunks::<LANES>();
    let mut acc = 0.0;
    for (x, y) in ac.iter().zip(bc) {
        let mut sq = [0.0; LANES];
        for i in 0..LANES {
            let d = x[i] - y[i];
            sq[i] = d * d;
        }
        for s in sq {
            acc += s;
        }
    }
    for (x, y) in at.iter().zip(bt) {
        acc += (x - y) * (x - y);
    }
    acc.sqrt()
}

/// Pearson correlation via the z-norm reduction of §2.4:
/// `corr(x, y) = 1 − L2²(x̂, ŷ) / 2`.
///
/// Returns `None` if either window has zero variance.
pub fn correlation(x: &[f64], y: &[f64]) -> Option<f64> {
    let zx = z_norm(x)?;
    let zy = z_norm(y)?;
    Some(correlation_of_znormed(&zx, &zy))
}

/// [`correlation`] for windows that are already z-normalized.
///
/// Verification phases that compare one stream against many candidates
/// z-normalize each window once and evaluate all pairs through this
/// function; since [`z_norm`] is deterministic, the result is bit-identical
/// to calling [`correlation`] on the raw windows pair by pair.
#[inline]
pub fn correlation_of_znormed(zx: &[f64], zy: &[f64]) -> f64 {
    let d = l2_distance(zx, zy);
    1.0 - d * d / 2.0
}

/// Converts a correlation threshold to the equivalent z-norm distance
/// threshold: `corr ≥ 1 − r²/2  ⇔  L2(x̂, ŷ) ≤ r`.
#[inline]
pub fn correlation_to_distance(min_corr: f64) -> f64 {
    (2.0 * (1.0 - min_corr)).max(0.0).sqrt()
}

/// Inverse of [`correlation_to_distance`].
#[inline]
pub fn distance_to_correlation(r: f64) -> f64 {
    1.0 - r * r / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn unit_sphere_bounds_norm() {
        // Values in [0, R_max] ⇒ ‖x̂‖ ≤ 1, with equality at x ≡ R_max.
        let w = vec![5.0; 16];
        let n = unit_sphere(&w, 5.0);
        let norm: f64 = n.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < EPS);
        let w2 = vec![2.0; 16];
        let n2 = unit_sphere(&w2, 5.0);
        let norm2: f64 = n2.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm2 < 1.0);
    }

    #[test]
    fn unit_sphere_scale_matches() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let direct = unit_sphere(&w, 10.0);
        let s = unit_sphere_scale(4, 10.0);
        for (d, x) in direct.iter().zip(&w) {
            assert!((d - x * s).abs() < EPS);
        }
    }

    #[test]
    fn z_norm_properties() {
        let x = [1.0, 4.0, 2.0, 9.0, -3.0];
        let z = z_norm(&x).unwrap();
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let norm: f64 = z.iter().map(|v| v * v).sum::<f64>();
        assert!(mean.abs() < EPS);
        assert!((norm - 1.0).abs() < EPS);
    }

    #[test]
    fn z_norm_constant_is_none() {
        assert!(z_norm(&[3.0, 3.0, 3.0]).is_none());
    }

    #[test]
    fn correlation_of_identical_is_one() {
        let x = [1.0, 5.0, 2.0, 8.0];
        assert!((correlation(&x, &x).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn correlation_is_affine_invariant() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 7.0).collect();
        assert!((correlation(&x, &y).unwrap() - 1.0).abs() < EPS);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((correlation(&x, &neg).unwrap() + 1.0).abs() < EPS);
    }

    #[test]
    fn correlation_matches_pearson() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        // Pearson by hand.
        let mx = 3.0;
        let my = 3.0;
        let cov: f64 = x.iter().zip(&y).map(|(a, b)| (a - mx) * (b - my)).sum();
        let vx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
        let vy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
        let pearson = cov / (vx.sqrt() * vy.sqrt());
        assert!((correlation(&x, &y).unwrap() - pearson).abs() < EPS);
    }

    #[test]
    fn threshold_conversions_roundtrip() {
        for &c in &[0.5, 0.9, 0.99, 0.0, -0.5] {
            let r = correlation_to_distance(c);
            assert!((distance_to_correlation(r) - c).abs() < EPS);
        }
    }
}
