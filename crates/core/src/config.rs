//! Configuration of the multi-resolution summarizer.

use crate::error::{ensure, SpecError};
use crate::transform::TransformKind;

/// Update-rate policy: how often a new feature is computed at level `j`
/// (the `T_j` of §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// `T_j = 1` at every level — the **online algorithm**. Box capacity
    /// `c` may be larger than one; used for aggregate monitoring.
    Online,
    /// `T_j = W` at every level — the **batch algorithm** of the paper
    /// (used with `c = 1` for pattern and correlation queries).
    Batch,
    /// `T_j = 2^j` — the update schedule of the authors' earlier SWAT
    /// system, kept for the ablation benchmarks.
    Swat,
}

impl UpdatePolicy {
    /// The update period `T_j` at level `j` for base window `w`.
    pub fn period(self, level: usize, base_window: usize) -> u64 {
        match self {
            UpdatePolicy::Online => 1,
            UpdatePolicy::Batch => base_window as u64,
            UpdatePolicy::Swat => 1u64 << level,
        }
    }
}

/// How features above level 0 are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeMode {
    /// Stardust's incremental scheme (Algorithm 1): level `j` from the
    /// level `j−1` MBRs, Θ(f) per level per item — exact for `c = 1`,
    /// approximate otherwise.
    #[default]
    Incremental,
    /// Direct computation from the raw window at every level — Θ(W·2^j)
    /// per level per item, always exact. This is how the MR-Index baseline
    /// (Kahveci & Singh) behaves in a streaming setting (§3), and the
    /// ablation against which the incremental scheme is measured.
    Direct,
}

/// Configuration of a Stardust summarizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Sliding window size `W` at the lowest resolution.
    pub base_window: usize,
    /// Number of resolution levels (`J + 1`); level `j` summarizes windows
    /// of `W · 2^j`.
    pub levels: usize,
    /// Box capacity `c`: features per MBR. `c = 1` stores features exactly.
    pub box_capacity: usize,
    /// History of interest `N`: raw values and features older than `N`
    /// time units are discarded.
    pub history: usize,
    /// Transform applied to each window.
    pub transform: TransformKind,
    /// Feature dimensionality `f` for the DWT transform (ignored by the
    /// aggregate transforms, which have fixed dimensionality).
    pub dwt_coeffs: usize,
    /// Upper bound `R_max` of the value range, used by the unit-sphere
    /// normalization (Eq. 2).
    pub r_max: f64,
    /// Update-rate policy.
    pub update: UpdatePolicy,
    /// How features above level 0 are computed.
    pub compute: ComputeMode,
}

/// The shift `W << (levels − 1)` of the largest window, clamped so that
/// an out-of-range level count reaches [`Config::check`] instead of
/// overflowing the shift.
fn max_shift(levels: usize) -> usize {
    levels.saturating_sub(1).min(63)
}

impl Config {
    /// A configuration for the **online algorithm** (aggregate monitoring):
    /// `T_j = 1` with the given box capacity.
    pub fn online(
        transform: TransformKind,
        base_window: usize,
        levels: usize,
        box_capacity: usize,
    ) -> Self {
        Config {
            base_window,
            levels,
            box_capacity,
            history: base_window << max_shift(levels),
            transform,
            dwt_coeffs: 2,
            r_max: 1.0,
            update: UpdatePolicy::Online,
            compute: ComputeMode::default(),
        }
    }

    /// A configuration for the **batch algorithm** (pattern / correlation
    /// queries): `T_j = W`, `c = 1`, DWT features of dimensionality `f`.
    pub fn batch(base_window: usize, levels: usize, f: usize, r_max: f64) -> Self {
        Config {
            base_window,
            levels,
            box_capacity: 1,
            history: base_window << max_shift(levels),
            transform: TransformKind::Dwt,
            dwt_coeffs: f,
            r_max,
            update: UpdatePolicy::Batch,
            compute: ComputeMode::default(),
        }
    }

    /// Overrides the history of interest `N`.
    pub fn with_history(mut self, n: usize) -> Self {
        self.history = n;
        self
    }

    /// The sliding window size `W · 2^j` at level `j`.
    pub fn window_at(&self, level: usize) -> usize {
        self.base_window << level
    }

    /// The largest window size `W · 2^J`.
    pub fn max_window(&self) -> usize {
        self.window_at(self.levels - 1)
    }

    /// Checks internal consistency. The summarizer constructor, every
    /// monitor constructor and snapshot restore call it.
    ///
    /// # Errors
    /// Names the first inconsistency.
    pub fn check(&self) -> Result<(), SpecError> {
        ensure(self.base_window >= 1, || "base window W must be at least 1".into())?;
        ensure(self.levels >= 1, || "need at least one resolution level".into())?;
        ensure(self.levels <= 40, || "too many levels".into())?;
        ensure(self.base_window.checked_mul(1 << (self.levels - 1)).is_some(), || {
            "largest window W·2^(levels−1) overflows".into()
        })?;
        ensure(self.box_capacity >= 1, || "box capacity c must be at least 1".into())?;
        ensure(self.history >= self.max_window() && self.history < usize::MAX, || {
            "history N must cover the largest window".into()
        })?;
        ensure(self.r_max > 0.0 && self.r_max.is_finite(), || {
            "R_max must be positive and finite".into()
        })?;
        if self.transform == TransformKind::Dwt {
            ensure(self.base_window.is_power_of_two(), || {
                format!("DWT requires a power-of-two base window, got {}", self.base_window)
            })?;
            ensure(
                self.dwt_coeffs.is_power_of_two() && self.dwt_coeffs <= self.base_window,
                || "DWT coefficient count f must be a power of two no larger than W".into(),
            )?;
        }
        // Feature alignment: computing level j from level j-1 requires the
        // half offset w_{j-1} and the period T_j to both be multiples of
        // T_{j-1} (§4, Algorithm 1).
        for j in 1..self.levels {
            let tj = self.update.period(j, self.base_window);
            let tprev = self.update.period(j - 1, self.base_window);
            ensure(tj.is_multiple_of(tprev), || {
                format!("period at level {j} not a multiple of level {}", j - 1)
            })?;
            ensure((self.window_at(j - 1) as u64).is_multiple_of(tprev), || {
                format!("half-window at level {} not aligned with its period", j - 1)
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarizer::StreamSummary;

    #[test]
    fn online_config_is_valid() {
        Config::online(TransformKind::Sum, 20, 6, 25).check().expect("valid");
    }

    #[test]
    fn batch_config_is_valid() {
        Config::batch(64, 5, 2, 200.0).check().expect("valid");
    }

    #[test]
    fn swat_periods_double() {
        let p = UpdatePolicy::Swat;
        assert_eq!(p.period(0, 16), 1);
        assert_eq!(p.period(3, 16), 8);
    }

    #[test]
    fn window_sizes_double_per_level() {
        let cfg = Config::online(TransformKind::Sum, 20, 4, 1);
        assert_eq!(cfg.window_at(0), 20);
        assert_eq!(cfg.window_at(3), 160);
        assert_eq!(cfg.max_window(), 160);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn dwt_requires_pow2_window() {
        let mut cfg = Config::batch(64, 3, 2, 1.0);
        cfg.base_window = 20;
        cfg.history = 20 << 2;
        let _ = StreamSummary::new(cfg);
    }

    #[test]
    #[should_panic(expected = "history N must cover")]
    fn short_history_rejected() {
        let _ = StreamSummary::new(Config::online(TransformKind::Sum, 16, 4, 1).with_history(10));
    }

    #[test]
    fn swat_policy_is_aligned() {
        let mut cfg = Config::online(TransformKind::Sum, 16, 5, 1);
        cfg.update = UpdatePolicy::Swat;
        cfg.check().expect("aligned");
    }
}
