//! Transforming minimum bounding rectangles through the wavelet transform.
//!
//! When the summarizer trades accuracy for space by grouping `c` consecutive
//! feature vectors into an MBR, computing the next level's feature requires
//! pushing a *rectangle* (not a point) through one analysis step
//! (Appendix A). [`Bounds::analyze_online2`] does it in one Θ(taps·d) pass
//! that yields the tightest enclosing box: the output box contains the
//! transform of every point in the input box, so downstream pruning never
//! causes a false dismissal.

use crate::filter::FilterBank;

/// An axis-aligned hyper-rectangle in feature space, the `B` of the paper:
/// `B[2i]`/`B[2i+1]` are the low/high coordinates of dimension `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Bounds {
    /// A degenerate rectangle containing the single point `p`.
    pub fn point(p: &[f64]) -> Self {
        Bounds { lo: p.to_vec(), hi: p.to_vec() }
    }

    /// A rectangle from explicit low/high coordinates.
    ///
    /// # Panics
    /// Panics if the vectors differ in length, are empty, or `lo > hi` in
    /// some dimension.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "lo/hi dimensionality mismatch");
        assert!(!lo.is_empty(), "bounds need at least one dimension");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l <= h, "inverted bounds: lo {l} > hi {h}");
        }
        Bounds { lo, hi }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Low corner.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// High corner.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Extent `hi − lo` per dimension.
    pub fn widths(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }

    /// `true` if `p` lies inside (with tolerance `eps`).
    pub fn contains(&self, p: &[f64], eps: f64) -> bool {
        p.len() == self.dims()
            && p.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(x, (l, h))| *x >= l - eps && *x <= h + eps)
    }

    /// `true` if the closed rectangles share at least one point: no axis
    /// separates them, so touching rectangles intersect.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ.
    pub fn intersects(&self, other: &Bounds) -> bool {
        assert_eq!(other.dims(), self.dims(), "bounds dimensionality mismatch");
        !(0..self.dims()).any(|d| self.lo[d] > other.hi[d] || other.lo[d] > self.hi[d])
    }

    /// Grows the rectangle to include `p`.
    ///
    /// # Panics
    /// Panics if `p` has the wrong dimensionality.
    pub fn extend(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        for (i, &x) in p.iter().enumerate() {
            if x < self.lo[i] {
                self.lo[i] = x;
            }
            if x > self.hi[i] {
                self.hi[i] = x;
            }
        }
    }

    /// The concatenation `[self, other]` as a rectangle in `R^{d1+d2}`;
    /// represents all signals whose first half lies in `self` and second
    /// half in `other`.
    pub fn concat(&self, other: &Bounds) -> Bounds {
        let mut lo = self.lo.clone();
        lo.extend_from_slice(&other.lo);
        let mut hi = self.hi.clone();
        hi.extend_from_slice(&other.hi);
        Bounds { lo, hi }
    }

    /// Scales every coordinate by `s ≥ 0` (normalization is linear).
    ///
    /// # Panics
    /// Panics if `s` is negative.
    pub fn scale(&self, s: f64) -> Bounds {
        assert!(s >= 0.0, "scale factor must be nonnegative");
        Bounds {
            lo: self.lo.iter().map(|v| v * s).collect(),
            hi: self.hi.iter().map(|v| v * s).collect(),
        }
    }

    /// Enlarges the rectangle by `r` on both sides of every dimension
    /// (the query-MBR enlargement of Algorithm 4).
    ///
    /// # Panics
    /// Panics if `r` is negative.
    pub fn enlarge(&self, r: f64) -> Bounds {
        assert!(r >= 0.0, "enlargement must be nonnegative");
        Bounds {
            lo: self.lo.iter().map(|v| v - r).collect(),
            hi: self.hi.iter().map(|v| v + r).collect(),
        }
    }

    /// Minimum Euclidean distance from point `p` to this rectangle
    /// (`d_min(p, B)` of Roussopoulos et al., used by the hierarchical
    /// radius refinement).
    pub fn min_dist(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        let mut acc = 0.0;
        for (x, (l, h)) in p.iter().zip(self.lo.iter().zip(&self.hi)) {
            let d = if x < l {
                l - x
            } else if x > h {
                x - h
            } else {
                0.0
            };
            acc += d * d;
        }
        acc.sqrt()
    }

    /// One analysis step applied to the rectangle: a rectangle in
    /// `R^{d/2}` containing `bank.analyze(x)` for every `x` in `self`.
    ///
    /// Each output is a sum of `h·x[j]` terms, each extremal at an end of
    /// `x[j]`'s interval, so summing `h·lo[j]` or `h·hi[j]` by the sign of
    /// `h` is Θ(taps·d) and gives the tightest box — Appendix A's 2^d-corner
    /// Online I box — whenever `d ≥ taps`; a filter that wraps around a
    /// shorter input gets a conservative box. Lemma A.2's δ-split (Online
    /// II) is ≈ 1.46× wider on db2 and is not used. For nonnegative taps
    /// (Haar) the box is `(bank.analyze(lo), bank.analyze(hi))` bit for
    /// bit: the same products, added in the same order from 0.0.
    ///
    /// # Panics
    /// Panics if the dimensionality is odd.
    pub fn analyze_online2(&self, bank: &FilterBank) -> Bounds {
        let n = self.dims();
        assert!(n > 0 && n.is_multiple_of(2), "analysis needs even, nonzero length");
        let mut lo = Vec::with_capacity(n / 2);
        let mut hi = Vec::with_capacity(n / 2);
        for i in 0..n / 2 {
            let (mut l, mut h) = (0.0, 0.0);
            for (k, &tap) in bank.taps().iter().enumerate() {
                let j = (2 * i + k) % n;
                if tap < 0.0 {
                    l += tap * self.hi[j];
                    h += tap * self.lo[j];
                } else {
                    l += tap * self.lo[j];
                    h += tap * self.hi[j];
                }
            }
            lo.push(l);
            hi.push(h);
        }
        Bounds { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::tests::db2;

    const EPS: f64 = 1e-9;

    fn sample_bounds() -> Bounds {
        Bounds::new(vec![-1.0, 0.0, 2.0, -3.0], vec![1.0, 0.5, 2.0, 4.0])
    }

    /// Deterministic interior points of a rectangle for conservativeness checks.
    fn interior_points(b: &Bounds, n: usize) -> Vec<Vec<f64>> {
        let d = b.dims();
        (0..n)
            .map(|k| {
                (0..d)
                    .map(|i| {
                        // low-discrepancy-ish fractions in [0,1]
                        let t = ((k * 31 + i * 17) % 97) as f64 / 96.0;
                        b.lo()[i] + t * (b.hi()[i] - b.lo()[i])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn point_bounds_have_zero_width() {
        let b = Bounds::point(&[1.0, 2.0]);
        assert_eq!(b.widths(), vec![0.0, 0.0]);
        assert!(b.contains(&[1.0, 2.0], 0.0));
    }

    #[test]
    fn extend_grows_monotonically() {
        let mut b = Bounds::point(&[0.0, 0.0]);
        b.extend(&[1.0, -2.0]);
        b.extend(&[-0.5, 3.0]);
        assert_eq!(b.lo(), &[-0.5, -2.0]);
        assert_eq!(b.hi(), &[1.0, 3.0]);
    }

    #[test]
    fn min_dist_inside_is_zero_outside_positive() {
        let b = sample_bounds();
        assert_eq!(b.min_dist(&[0.0, 0.25, 2.0, 0.0]), 0.0);
        let d = b.min_dist(&[2.0, 0.25, 2.0, 0.0]);
        assert!((d - 1.0).abs() < EPS);
    }

    #[test]
    fn online2_haar_contains_all_interior_transforms() {
        let bank = FilterBank::haar();
        let b = sample_bounds();
        let out = b.analyze_online2(&bank);
        for p in interior_points(&b, 64) {
            let t = bank.analyze(&p);
            assert!(out.contains(&t, EPS), "{t:?} outside {out:?}");
        }
    }

    #[test]
    fn online2_db2_contains_all_interior_transforms() {
        let bank = db2();
        let b = sample_bounds();
        let out = b.analyze_online2(&bank);
        for p in interior_points(&b, 64) {
            let t = bank.analyze(&p);
            assert!(out.contains(&t, EPS), "{t:?} outside {out:?}");
        }
    }

    /// With d ≥ taps no coordinate enters one output twice, so the box
    /// is the tightest one around the images of all 2^d corners.
    fn assert_online2_equals_corner_enumeration(bank: &FilterBank) {
        let b = sample_bounds();
        let out = b.analyze_online2(bank);
        let mut corners: Option<Bounds> = None;
        for mask in 0..1u32 << b.dims() {
            let corner: Vec<f64> = (0..b.dims())
                .map(|i| if mask >> i & 1 == 1 { b.hi()[i] } else { b.lo()[i] })
                .collect();
            let t = bank.analyze(&corner);
            match &mut corners {
                None => corners = Some(Bounds::point(&t)),
                Some(c) => c.extend(&t),
            }
        }
        let corners = corners.expect("at least one corner");
        for i in 0..out.dims() {
            assert!((out.lo()[i] - corners.lo()[i]).abs() < EPS);
            assert!((out.hi()[i] - corners.hi()[i]).abs() < EPS);
        }
    }

    #[test]
    fn online2_equals_corner_enumeration_for_haar() {
        assert_online2_equals_corner_enumeration(&FilterBank::haar());
    }

    #[test]
    fn online2_equals_corner_enumeration_for_db2() {
        assert_online2_equals_corner_enumeration(&db2());
    }

    #[test]
    fn degenerate_box_transforms_to_exact_point() {
        let bank = db2();
        let p = [0.3, -1.0, 2.2, 0.9];
        let b = Bounds::point(&p);
        let out = b.analyze_online2(&bank);
        let exact = bank.analyze(&p);
        for i in 0..exact.len() {
            assert!((out.lo()[i] - exact[i]).abs() < EPS);
            assert!((out.hi()[i] - exact[i]).abs() < EPS);
        }
    }

    #[test]
    fn haar_width_growth_bounded_by_two() {
        // A.1: unitary rotation stretches each projection at most 2x the
        // total original extent; for Haar one step sums pairs, so each output
        // width is at most (w[2i]+w[2i+1])/√2 ≤ √2 · max-pair-width.
        let bank = FilterBank::haar();
        let b = sample_bounds();
        let out = b.analyze_online2(&bank);
        let w_in = b.widths();
        let w_out = out.widths();
        for (i, w) in w_out.iter().enumerate() {
            let pair = w_in[2 * i] + w_in[2 * i + 1];
            assert!(*w <= pair / std::f64::consts::SQRT_2 + EPS);
        }
    }

    #[test]
    fn concat_preserves_corners() {
        let a = Bounds::new(vec![0.0], vec![1.0]);
        let b = Bounds::new(vec![2.0], vec![3.0]);
        let c = a.concat(&b);
        assert_eq!(c.lo(), &[0.0, 2.0]);
        assert_eq!(c.hi(), &[1.0, 3.0]);
    }

    #[test]
    fn scale_and_enlarge() {
        let b = Bounds::new(vec![-2.0, 1.0], vec![2.0, 3.0]);
        let s = b.scale(0.5);
        assert_eq!(s.lo(), &[-1.0, 0.5]);
        assert_eq!(s.hi(), &[1.0, 1.5]);
        let e = b.enlarge(1.0);
        assert_eq!(e.lo(), &[-3.0, 0.0]);
        assert_eq!(e.hi(), &[3.0, 4.0]);
    }

    #[test]
    fn intersection_is_closed() {
        let a = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let touching = Bounds::new(vec![1.0, 0.5], vec![2.0, 2.0]);
        let apart = Bounds::new(vec![1.5, 0.0], vec![2.0, 1.0]);
        assert!(a.intersects(&touching) && touching.intersects(&a));
        assert!(!a.intersects(&apart) && !apart.intersects(&a));
        assert!(a.intersects(&Bounds::point(&[0.5, 0.5])));
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_rejected() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }
}
