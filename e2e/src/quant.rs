//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw `u64` nanosecond samples and reported as
//! order statistics of the sample itself — never through the telemetry
//! crate's power-of-two buckets, whose quantiles snap to bucket edges.
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; a tail read off fewer samples is a single outlier,
//! not a percentile.

/// Samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of an ascending slice:
/// the smallest element with at least `p·n` elements at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 1]`.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "quantile {p} outside (0, 1]");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p`-quantile of a sample of
/// `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The highest whole percentile `≤ want` (as a fraction) that still has
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`; `None` when not
/// even the median qualifies.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    let top = (want * 100.0).round() as usize;
    (50..=top).rev().map(|pct| pct as f64 / 100.0).find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// A sorted latency sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<u64>,
}

impl Sample {
    /// Sorts `values` into a sample.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Sample { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample holds no observation.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The exact median (nearest rank), `None` on an empty sample.
    pub fn median(&self) -> Option<u64> {
        (!self.is_empty()).then(|| nearest_rank(&self.sorted, 0.5))
    }

    /// The largest observation.
    pub fn max(&self) -> Option<u64> {
        self.sorted.last().copied()
    }

    /// The `p`-quantile, refused (`None`) unless [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        (!self.is_empty() && beyond(self.len(), p) >= MIN_BEYOND)
            .then(|| nearest_rank(&self.sorted, p))
    }

    /// The highest supported percentile `≤ want` with its value.
    pub fn tail(&self, want: f64) -> Option<(f64, u64)> {
        let p = supported_percentile(self.len(), want)?;
        Some((p, nearest_rank(&self.sorted, p)))
    }
}

/// Median and quartiles of a handful of trial results, by the same
/// method Python's `statistics.quantiles(values, n=4)` uses (exclusive,
/// linear interpolation), so the spreads printed here are the ones the
/// acceptance procedure computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` (any order); `None` with fewer than two.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.len() < 2 {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let cut = |k: usize| {
            let n = v.len();
            let pos = k as f64 * (n + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Some(Quartiles { q1: cut(1), median: cut(2), q3: cut(3) })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The median of a few trial results (mean of the middle two when even).
///
/// # Panics
/// Panics on an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no trials");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_element_not_a_bucket_edge() {
        let s: Vec<u64> = (1..=1000).map(|i| i * 3 + 1).collect();
        assert_eq!(nearest_rank(&s, 0.5), 500 * 3 + 1);
        assert_eq!(nearest_rank(&s, 0.99), 990 * 3 + 1);
        assert_eq!(nearest_rank(&s, 1.0), 1000 * 3 + 1);
        assert_eq!(nearest_rank(&[7u64], 0.5), 7);
    }

    #[test]
    fn percentile_refused_without_ten_samples_beyond() {
        let s = Sample::new((0..999).collect());
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(s.percentile(0.99), None);
        let s = Sample::new((0..1000).collect());
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(s.percentile(0.99), Some(989));
        assert_eq!(Sample::new(vec![]).median(), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        assert_eq!(supported_percentile(200, 0.99), Some(0.95));
        assert_eq!(supported_percentile(20, 0.99), Some(0.5));
        assert_eq!(supported_percentile(19, 0.99), None);
        let s = Sample::new((1..=200).collect());
        assert_eq!(s.tail(0.99), Some((0.95, 190)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        assert!(Quartiles::of(&[1.0]).is_none());
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[5.0, 1.0, 3.0]), 3.0);
    }
}
