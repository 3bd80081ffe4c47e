//! Minimum bounding rectangles over consecutive features.
//!
//! §4: "At each resolution level, we combine every `c` of the feature
//! vectors into a box, or a minimum bounding rectangle (MBR)", exploiting
//! the strong spatio-temporal correlation between consecutive features to
//! cut the space overhead by a factor of `c`. Alongside the feature-space
//! extent, each MBR carries interval bounds on the windows' sum and sum of
//! squares so that z-normalization can be performed downstream, and its
//! temporal extent (first feature time, count, update period) for the
//! per-stream threading.

use stardust_dsp::mbr_transform::Bounds;

use crate::stream::Time;

/// A box over up to `c` consecutive features of one stream at one level.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMbr {
    /// Feature-space extent (unnormalized coordinates).
    pub bounds: Bounds,
    /// Interval bound on the window sums of the contained features.
    pub sum: (f64, f64),
    /// Interval bound on the window sums of squares.
    pub sumsq: (f64, f64),
    /// Feature time (window end index) of the first contained feature.
    pub first: Time,
    /// Number of contained features.
    pub count: usize,
    /// Spacing `T_j` between consecutive feature times.
    pub period: u64,
}

impl FeatureMbr {
    /// A fresh MBR holding exactly one feature (possibly itself an
    /// interval, when the feature was produced by an approximate merge).
    pub fn first(
        bounds: Bounds,
        sum: (f64, f64),
        sumsq: (f64, f64),
        time: Time,
        period: u64,
    ) -> Self {
        debug_assert!(period >= 1);
        FeatureMbr { bounds, sum, sumsq, first: time, count: 1, period }
    }

    /// Feature time of the last contained feature.
    pub fn last(&self) -> Time {
        self.first + (self.count as u64 - 1) * self.period
    }

    /// The feature times contained in this MBR, oldest first.
    pub fn feature_times(&self) -> impl Iterator<Item = Time> + '_ {
        (0..self.count as u64).map(move |i| self.first + i * self.period)
    }

    /// `true` if a feature with time `t` is contained in this MBR.
    pub fn covers(&self, t: Time) -> bool {
        t >= self.first && t <= self.last() && (t - self.first).is_multiple_of(self.period)
    }

    /// Absorbs the next consecutive feature (time must be `last() +
    /// period`).
    ///
    /// # Panics
    /// Panics (debug) if the time is not the expected successor.
    pub fn absorb(&mut self, bounds: &Bounds, sum: (f64, f64), sumsq: (f64, f64), time: Time) {
        debug_assert_eq!(time, self.last() + self.period, "features must be absorbed in order");
        self.bounds.extend(bounds.lo());
        self.bounds.extend(bounds.hi());
        self.sum.0 = self.sum.0.min(sum.0);
        self.sum.1 = self.sum.1.max(sum.1);
        self.sumsq.0 = self.sumsq.0.min(sumsq.0);
        self.sumsq.1 = self.sumsq.1.max(sumsq.1);
        self.count += 1;
        let _ = time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64]) -> Bounds {
        Bounds::point(coords)
    }

    #[test]
    fn single_feature_mbr() {
        let m = FeatureMbr::first(pt(&[1.0, 2.0]), (3.0, 3.0), (5.0, 5.0), 10, 1);
        assert_eq!(m.last(), 10);
        assert!(m.covers(10));
        assert!(!m.covers(11));
        assert!(!m.covers(9));
    }

    #[test]
    fn absorb_extends_everything() {
        let mut m = FeatureMbr::first(pt(&[1.0, 2.0]), (3.0, 3.0), (5.0, 5.0), 10, 1);
        m.absorb(&pt(&[0.0, 4.0]), (2.0, 2.0), (9.0, 9.0), 11);
        assert_eq!(m.count, 2);
        assert_eq!(m.last(), 11);
        assert_eq!(m.bounds.lo(), &[0.0, 2.0]);
        assert_eq!(m.bounds.hi(), &[1.0, 4.0]);
        assert_eq!(m.sum, (2.0, 3.0));
        assert_eq!(m.sumsq, (5.0, 9.0));
    }

    #[test]
    fn covers_respects_period() {
        let mut m = FeatureMbr::first(pt(&[0.0]), (0.0, 0.0), (0.0, 0.0), 63, 64);
        m.absorb(&pt(&[1.0]), (0.0, 0.0), (0.0, 0.0), 127);
        m.absorb(&pt(&[2.0]), (0.0, 0.0), (0.0, 0.0), 191);
        assert!(m.covers(63));
        assert!(m.covers(127));
        assert!(m.covers(191));
        assert!(!m.covers(128));
        assert!(!m.covers(255));
        assert_eq!(m.last(), 191);
    }

    #[test]
    fn interval_features_absorb() {
        let mut m =
            FeatureMbr::first(Bounds::new(vec![0.0], vec![1.0]), (0.0, 2.0), (0.0, 4.0), 5, 1);
        m.absorb(&Bounds::new(vec![-1.0], vec![0.5]), (1.0, 3.0), (1.0, 2.0), 6);
        assert_eq!(m.bounds.lo(), &[-1.0]);
        assert_eq!(m.bounds.hi(), &[1.0]);
        assert_eq!(m.sum, (0.0, 3.0));
        assert_eq!(m.sumsq, (0.0, 4.0));
    }
}
