//! The Haar discrete wavelet transform and its incremental half-merge.
//!
//! The Stardust summarizer keeps, for every (stream, level) pair, the first
//! `f` *approximation* coefficients of the Haar DWT of the current sliding
//! window. Lemma A.1 of the paper shows these can be computed **exactly** in
//! Θ(f) from the approximation coefficients of the window's two halves; this
//! module implements both the direct transform (used by tests and the batch
//! algorithm) and the incremental merge (used by the online algorithm).
//!
//! Coefficient conventions: the orthonormal Haar pyramid
//!
//! ```text
//! a⁰ = x
//! aˡ[n] = (aˡ⁻¹[2n] + aˡ⁻¹[2n+1]) / √2      (approximation)
//! dˡ[n] = (aˡ⁻¹[2n] − aˡ⁻¹[2n+1]) / √2      (detail)
//! ```
//!
//! The full ordered transform is `[a^J, d^J, d^{J-1}, …, d^1]`, which is an
//! orthonormal change of basis (energy preserving). The *approximation at
//! keep-length f* is the vector `a^l` with `len(a^l) = f`; it equals the
//! first `f` coefficients of the ordered transform restricted to the
//! approximation subspace, and Euclidean distance between two windows'
//! approximations **lower-bounds** the distance between the windows
//! (orthogonal projection), which is what makes range queries on the index
//! free of false dismissals.

/// `1/√2`, the Haar analysis filter tap.
pub const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Width of the chunks the pairwise kernels process per iteration: one
/// 256-bit vector of `f64` outputs, matching the geometry scan primitives.
const LANES: usize = 4;

/// Writes `(src[2i] + src[2i+1]) * INV_SQRT2` into `out[i]` — one Haar
/// averaging step as a strictly element-wise kernel. The body is processed
/// in fixed-width chunks (`LANES` outputs, `2·LANES` inputs per iteration)
/// so the optimizer can vectorize it; there is no reduction, so the result
/// is bit-identical to the naive pair loop by construction.
#[inline]
fn pairwise_avg_into(src: &[f64], out: &mut [f64]) {
    debug_assert_eq!(src.len(), out.len() * 2);
    let (src_c, src_t) = src.as_chunks::<{ 2 * LANES }>();
    let (out_c, out_t) = out.as_chunks_mut::<LANES>();
    for (o, s) in out_c.iter_mut().zip(src_c) {
        for i in 0..LANES {
            o[i] = (s[2 * i] + s[2 * i + 1]) * INV_SQRT2;
        }
    }
    for (o, p) in out_t.iter_mut().zip(src_t.chunks_exact(2)) {
        *o = (p[0] + p[1]) * INV_SQRT2;
    }
}

/// Differencing twin of [`pairwise_avg_into`]: `(src[2i] − src[2i+1]) · 1/√2`.
#[inline]
fn pairwise_diff_into(src: &[f64], out: &mut [f64]) {
    debug_assert_eq!(src.len(), out.len() * 2);
    let (src_c, src_t) = src.as_chunks::<{ 2 * LANES }>();
    let (out_c, out_t) = out.as_chunks_mut::<LANES>();
    for (o, s) in out_c.iter_mut().zip(src_c) {
        for i in 0..LANES {
            o[i] = (s[2 * i] - s[2 * i + 1]) * INV_SQRT2;
        }
    }
    for (o, p) in out_t.iter_mut().zip(src_t.chunks_exact(2)) {
        *o = (p[0] - p[1]) * INV_SQRT2;
    }
}

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// One in-place Haar averaging step: maps a slice of even length `2m` to its
/// `m` approximation coefficients, returned as a new vector.
///
/// # Panics
/// Panics if `x.len()` is odd or zero.
pub fn averaging_step(x: &[f64]) -> Vec<f64> {
    assert!(
        !x.is_empty() && x.len().is_multiple_of(2),
        "averaging step needs even, nonzero length"
    );
    let mut out = vec![0.0; x.len() / 2];
    pairwise_avg_into(x, &mut out);
    out
}

/// The full ordered Haar DWT `[a^J, d^J, d^{J-1}, …, d^1]` of a signal whose
/// length is a power of two.
///
/// The transform is orthonormal: `‖dwt(x)‖₂ = ‖x‖₂` (Parseval).
///
/// # Panics
/// Panics if `x.len()` is not a power of two.
pub fn dwt(x: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    dwt_into(x, &mut out);
    out
}

/// [`dwt`] into a caller-provided buffer (cleared first), for per-feature
/// hot paths that would otherwise allocate a vector per pyramid level.
/// Steady state allocates nothing: `out` is grown to twice the signal
/// length once and reused.
///
/// # Panics
/// Panics if `x.len()` is not a power of two.
pub fn dwt_into(x: &[f64], out: &mut Vec<f64>) {
    let n = x.len();
    assert!(is_pow2(n), "Haar DWT needs a power-of-two length, got {n}");
    // `out[..n]` receives the ordered coefficients; `out[n..]` is the
    // working approximation, halved in place level by level. The details
    // of a length-`len` approximation land at `[len/2, len)` — their
    // final position in the ordered layout.
    out.clear();
    out.resize(n, 0.0);
    out.extend_from_slice(x);
    let (coeffs, approx) = out.split_at_mut(n);
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        pairwise_diff_into(&approx[..len], &mut coeffs[half..len]);
        // Element `i` reads `2i` and `2i + 1`, both at or beyond `i`.
        for i in 0..half {
            approx[i] = (approx[2 * i] + approx[2 * i + 1]) * INV_SQRT2;
        }
        len = half;
    }
    coeffs[0] = approx[0];
    out.truncate(n);
}

/// Inverse of [`dwt`]: reconstructs the signal from the ordered coefficient
/// vector.
///
/// # Panics
/// Panics if `coeffs.len()` is not a power of two.
pub fn idwt(coeffs: &[f64]) -> Vec<f64> {
    assert!(is_pow2(coeffs.len()), "Haar IDWT needs a power-of-two length");
    let mut approx = vec![coeffs[0]];
    let mut offset = 1;
    while offset < coeffs.len() {
        let detail = &coeffs[offset..offset + approx.len()];
        let mut next = Vec::with_capacity(approx.len() * 2);
        for (a, d) in approx.iter().zip(detail) {
            next.push((a + d) * INV_SQRT2);
            next.push((a - d) * INV_SQRT2);
        }
        offset += approx.len();
        approx = next;
    }
    approx
}

/// The `keep` Haar approximation coefficients of `x`: repeated averaging
/// steps until the vector has length `keep`.
///
/// This is the DWT feature Stardust maintains per level: the projection of
/// the window onto the coarsest `keep` scaling functions.
///
/// # Panics
/// Panics if `x.len()` or `keep` is not a power of two, or `keep > x.len()`.
pub fn approx(x: &[f64], keep: usize) -> Vec<f64> {
    assert!(is_pow2(x.len()), "signal length must be a power of two");
    assert!(is_pow2(keep), "keep length must be a power of two");
    assert!(keep <= x.len(), "cannot keep more coefficients than samples");
    let mut a = x.to_vec();
    while a.len() > keep {
        a = averaging_step(&a);
    }
    a
}

/// **Lemma A.1** — exact incremental merge.
///
/// Given the `f` approximation coefficients of the left half
/// `x[t−w+1 : t−w/2]` and the right half `x[t−w/2+1 : t]`, returns the `f`
/// approximation coefficients of the full window `x[t−w+1 : t]`.
///
/// Concatenating the halves' approximations gives the full window's
/// approximation at length `2f` (translates of the same scaling function);
/// one more averaging step brings it to length `f`. Cost Θ(f).
///
/// # Panics
/// Panics if the halves have different lengths or are empty.
pub fn merge_halves(left: &[f64], right: &[f64]) -> Vec<f64> {
    assert_eq!(left.len(), right.len(), "halves must have equal coefficient counts");
    assert!(!left.is_empty(), "halves must be nonempty");
    let mut out = vec![0.0; left.len()];
    merge_halves_into(left, right, &mut out);
    out
}

/// Merge variant that writes into a caller-provided buffer, avoiding
/// allocation on the per-item hot path of the online summarizer.
///
/// # Panics
/// Panics if `out.len() != left.len()` or the halves differ in length.
pub fn merge_halves_into(left: &[f64], right: &[f64], out: &mut [f64]) {
    assert_eq!(left.len(), right.len(), "halves must have equal coefficient counts");
    assert_eq!(out.len(), left.len(), "output buffer must match coefficient count");
    let f = left.len();
    // Averaging the concatenation [left, right] pairs elements within each
    // half first (2f -> f), never across the seam, because f is a power of
    // two: pairs are (left[0],left[1]), ..., (right[f-2],right[f-1]) — except
    // at f = 1, where the single pair spans the seam.
    if f == 1 {
        out[0] = (left[0] + right[0]) * INV_SQRT2;
        return;
    }
    let half = f / 2;
    pairwise_avg_into(left, &mut out[..half]);
    pairwise_avg_into(right, &mut out[half..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < EPS, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn dwt_of_known_signal() {
        // x = [1,1,1,1] -> a^2 = [2], no detail energy.
        let c = dwt(&[1.0, 1.0, 1.0, 1.0]);
        assert_close(&c, &[2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn dwt_idwt_roundtrip() {
        let x = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0];
        let back = idwt(&dwt(&x));
        assert_close(&back, &x);
    }

    #[test]
    fn dwt_preserves_energy() {
        let energy = |v: &[f64]| v.iter().map(|c| c * c).sum::<f64>();
        let x = [0.5, 2.5, -1.5, 7.0, 3.25, -2.0, 0.0, 1.0];
        assert!((energy(&dwt(&x)) - energy(&x)).abs() < EPS);
    }

    #[test]
    fn approx_full_length_is_identity() {
        let x = [2.0, 4.0, 6.0, 8.0];
        assert_close(&approx(&x, 4), &x);
    }

    #[test]
    fn approx_one_is_scaled_sum() {
        let x = [1.0, 2.0, 3.0, 4.0];
        // Two averaging steps: sum / 2^(levels/2)... a^2 = sum / 2.
        assert_close(&approx(&x, 1), &[5.0]);
    }

    #[test]
    fn merge_matches_direct_approx() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin() * 3.0 + i as f64).collect();
        for f in [1usize, 2, 4, 8] {
            let left = approx(&x[..8], f);
            let right = approx(&x[8..], f);
            let merged = merge_halves(&left, &right);
            let direct = approx(&x, f);
            assert_close(&merged, &direct);
        }
    }

    #[test]
    fn merge_into_matches_merge() {
        let left = [1.0, 2.0, 3.0, 4.0];
        let right = [5.0, 6.0, 7.0, 8.0];
        let alloc = merge_halves(&left, &right);
        let mut buf = [0.0; 4];
        merge_halves_into(&left, &right, &mut buf);
        assert_close(&alloc, &buf);
    }

    #[test]
    fn approximation_distance_lower_bounds_signal_distance() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.31).sin() * 1.2).collect();
        let d_signal = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        for f in [1usize, 2, 4, 8, 16, 32] {
            let ax = approx(&x, f);
            let ay = approx(&y, f);
            let d_approx = ax.iter().zip(&ay).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            assert!(
                d_approx <= d_signal + EPS,
                "f={f}: approx distance {d_approx} exceeds signal distance {d_signal}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn dwt_rejects_non_pow2() {
        let _ = dwt(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn ordered_transform_layout() {
        // For [a, b]: a^1 = (a+b)/√2, d^1 = (a−b)/√2.
        let c = dwt(&[3.0, 1.0]);
        assert_close(&c, &[4.0 * INV_SQRT2, 2.0 * INV_SQRT2]);
    }
}
