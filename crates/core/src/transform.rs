//! Incremental transforms: the `F` of §4.
//!
//! The transform applied to each sliding window depends on the monitoring
//! query: SUM for burst detection, MAX/MIN (and their difference, SPREAD)
//! for volatility, and the DWT for pattern and correlation queries. All of
//! them support:
//!
//! * **direct computation** on a raw window (level 0 / verification),
//! * **exact merge** (Lemma 4.1): the feature of a window from the features
//!   of its two halves in Θ(f),
//! * **interval merge** (Lemma 4.2): a bounding interval of the feature
//!   from the MBRs containing the halves' features, also Θ(f) (the DWT
//!   pushes the halves' box through one Haar step, Appendix A).

use stardust_dsp::haar;
use stardust_dsp::mbr_transform::Bounds;
use stardust_dsp::FilterBank;

/// Which transform the summarizer applies to each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// Moving sum — burst detection.
    Sum,
    /// Moving maximum.
    Max,
    /// Moving minimum.
    Min,
    /// `MAX − MIN` — volatility detection. Features carry both components
    /// (`[max, min]`); the spread itself is derived on demand.
    Spread,
    /// The first `f` Haar approximation coefficients — pattern and
    /// correlation queries.
    Dwt,
}

impl TransformKind {
    /// Feature dimensionality: 1 for SUM/MAX/MIN, 2 for SPREAD
    /// (`[max, min]`), `f` for the DWT.
    pub fn dims(self, f: usize) -> usize {
        match self {
            TransformKind::Sum | TransformKind::Max | TransformKind::Min => 1,
            TransformKind::Spread => 2,
            TransformKind::Dwt => f,
        }
    }

    /// Direct computation of the (unnormalized) feature of a raw window.
    ///
    /// # Panics
    /// Panics if the window is empty, or (for DWT) if lengths are not
    /// powers of two.
    pub fn compute(self, window: &[f64], f: usize) -> Vec<f64> {
        assert!(!window.is_empty(), "cannot transform an empty window");
        match self {
            TransformKind::Sum => vec![window.iter().sum()],
            TransformKind::Max => vec![window.iter().copied().fold(f64::NEG_INFINITY, f64::max)],
            TransformKind::Min => vec![window.iter().copied().fold(f64::INFINITY, f64::min)],
            TransformKind::Spread => {
                let mx = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mn = window.iter().copied().fold(f64::INFINITY, f64::min);
                vec![mx, mn]
            }
            TransformKind::Dwt => haar::approx(window, f),
        }
    }

    /// **Lemma 4.1** — exact merge: the feature of a window from the
    /// features of its (earlier) left half and (later) right half.
    ///
    /// # Panics
    /// Panics on dimensionality mismatches.
    pub fn merge_exact(self, left: &[f64], right: &[f64]) -> Vec<f64> {
        assert_eq!(left.len(), right.len(), "half feature dimensionality mismatch");
        match self {
            TransformKind::Sum => vec![left[0] + right[0]],
            TransformKind::Max => vec![left[0].max(right[0])],
            TransformKind::Min => vec![left[0].min(right[0])],
            TransformKind::Spread => vec![left[0].max(right[0]), left[1].min(right[1])],
            TransformKind::Dwt => haar::merge_halves(left, right),
        }
    }

    /// **Lemma 4.2** — interval merge: a conservative bounding box of the
    /// merged feature given boxes containing the halves' features.
    ///
    /// # Panics
    /// Panics on dimensionality mismatches.
    pub fn merge_bounds(self, left: &Bounds, right: &Bounds) -> Bounds {
        assert_eq!(left.dims(), right.dims(), "half bounds dimensionality mismatch");
        match self {
            TransformKind::Sum => {
                Bounds::new(vec![left.lo()[0] + right.lo()[0]], vec![left.hi()[0] + right.hi()[0]])
            }
            TransformKind::Max => Bounds::new(
                vec![left.lo()[0].max(right.lo()[0])],
                vec![left.hi()[0].max(right.hi()[0])],
            ),
            TransformKind::Min => Bounds::new(
                vec![left.lo()[0].min(right.lo()[0])],
                vec![left.hi()[0].min(right.hi()[0])],
            ),
            TransformKind::Spread => Bounds::new(
                vec![left.lo()[0].max(right.lo()[0]), left.lo()[1].min(right.lo()[1])],
                vec![left.hi()[0].max(right.hi()[0]), left.hi()[1].min(right.hi()[1])],
            ),
            TransformKind::Dwt => left.concat(right).analyze_online2(&FilterBank::haar()),
        }
    }

    /// Maps a feature box to the scalar interval `[lo, hi]` bounding the
    /// monitored aggregate: the sum for SUM, max for MAX, min for MIN, and
    /// `max − min` for SPREAD. Returns `None` for the DWT (no scalar
    /// aggregate).
    pub fn aggregate_interval(self, b: &Bounds) -> Option<(f64, f64)> {
        match self {
            TransformKind::Sum | TransformKind::Max | TransformKind::Min => {
                Some((b.lo()[0], b.hi()[0]))
            }
            TransformKind::Spread => Some((b.lo()[0] - b.hi()[1], b.hi()[0] - b.lo()[1])),
            TransformKind::Dwt => None,
        }
    }

    /// The scalar aggregate of a raw window (used for verification and
    /// ground truth): sum, max, min, or spread. Returns `None` for DWT.
    pub fn scalar_aggregate(self, window: &[f64]) -> Option<f64> {
        match self {
            TransformKind::Sum => Some(window.iter().sum()),
            TransformKind::Max => Some(window.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            TransformKind::Min => Some(window.iter().copied().fold(f64::INFINITY, f64::min)),
            TransformKind::Spread => {
                let mx = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mn = window.iter().copied().fold(f64::INFINITY, f64::min);
                Some(mx - mn)
            }
            TransformKind::Dwt => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    fn windows() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let left: Vec<f64> = (0..8).map(|i| (i as f64 * 1.3).sin() * 4.0 + 5.0).collect();
        let right: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).cos() * 2.0 + 3.0).collect();
        let full: Vec<f64> = left.iter().chain(&right).copied().collect();
        (left, right, full)
    }

    #[test]
    fn exact_merge_matches_direct_for_all_kinds() {
        let (left, right, full) = windows();
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let f = 4;
            let fl = kind.compute(&left, f);
            let fr = kind.compute(&right, f);
            let merged = kind.merge_exact(&fl, &fr);
            let direct = kind.compute(&full, f);
            assert_eq!(merged.len(), direct.len());
            for (m, d) in merged.iter().zip(&direct) {
                assert!((m - d).abs() < EPS, "{kind:?}: {merged:?} vs {direct:?}");
            }
        }
    }

    #[test]
    fn interval_merge_contains_exact_merge() {
        let (left, right, full) = windows();
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let f = 4;
            let fl = kind.compute(&left, f);
            let fr = kind.compute(&right, f);
            // Inflate each half feature into a box (simulating MBR slack).
            let bl = Bounds::new(
                fl.iter().map(|v| v - 0.5).collect(),
                fl.iter().map(|v| v + 0.3).collect(),
            );
            let br = Bounds::new(
                fr.iter().map(|v| v - 0.2).collect(),
                fr.iter().map(|v| v + 0.6).collect(),
            );
            let merged = kind.merge_bounds(&bl, &br);
            let exact = kind.compute(&full, f);
            assert!(
                merged.contains(&exact, EPS),
                "{kind:?}: exact {exact:?} outside merged {merged:?}"
            );
        }
    }

    #[test]
    fn degenerate_interval_merge_equals_exact_merge() {
        let (left, right, _) = windows();
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let f = 4;
            let fl = kind.compute(&left, f);
            let fr = kind.compute(&right, f);
            let merged = kind.merge_bounds(&Bounds::point(&fl), &Bounds::point(&fr));
            let exact = kind.merge_exact(&fl, &fr);
            for i in 0..exact.len() {
                assert!((merged.lo()[i] - exact[i]).abs() < EPS, "{kind:?}");
                assert!((merged.hi()[i] - exact[i]).abs() < EPS, "{kind:?}");
            }
        }
    }

    #[test]
    fn spread_interval_bounds_true_spread() {
        let window = [3.0, 9.0, 1.0, 5.0];
        let feat = TransformKind::Spread.compute(&window, 0);
        assert_eq!(feat, vec![9.0, 1.0]);
        let b = Bounds::new(vec![8.5, 0.5], vec![9.5, 1.5]);
        let (lo, hi) = TransformKind::Spread.aggregate_interval(&b).unwrap();
        let true_spread = TransformKind::Spread.scalar_aggregate(&window).unwrap();
        assert!(lo <= true_spread && true_spread <= hi);
        assert!((true_spread - 8.0).abs() < EPS);
    }

    #[test]
    fn aggregate_interval_for_sum() {
        let b = Bounds::new(vec![10.0], vec![14.0]);
        assert_eq!(TransformKind::Sum.aggregate_interval(&b), Some((10.0, 14.0)));
        assert_eq!(TransformKind::Dwt.aggregate_interval(&b), None);
    }

    #[test]
    fn dims_per_kind() {
        assert_eq!(TransformKind::Sum.dims(8), 1);
        assert_eq!(TransformKind::Spread.dims(8), 2);
        assert_eq!(TransformKind::Dwt.dims(8), 8);
    }
}
