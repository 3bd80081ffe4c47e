//! Aggregate monitoring — Algorithm 2 plus the false-alarm analysis of
//! §5.1.
//!
//! A query window `w = b·W` is partitioned along the ones in the binary
//! representation of `b`; the current aggregate is composed from the MBR
//! extents of the sub-windows' features, yielding an interval `[lo, hi]`
//! with `hi ≥` the true aggregate. When `hi` crosses the threshold the most
//! recent raw subsequence is retrieved and the true aggregate verified —
//! only verified crossings raise an alarm, but every crossing costs a
//! verification, which is what the precision measurements of §6.1 count.

use crate::config::Config;
use crate::error::QueryError;
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::stream::Time;
use crate::summarizer::StreamSummary;
use crate::transform::TransformKind;

/// Binary decomposition of a window (§5.1): the ascending resolution levels
/// `j` with `Σ 2^j · base = window`. The first entry covers the most recent
/// values.
///
/// Errors if the window is not a positive multiple of `base` or requires a
/// level above `max_level`.
pub fn decompose(window: usize, base: usize, max_level: usize) -> Result<Vec<usize>, QueryError> {
    let err = QueryError::LengthNotDecomposable { len: window, base, max_level };
    if window == 0 || base == 0 || !window.is_multiple_of(base) {
        return Err(err);
    }
    let mut b = window / base;
    let mut levels = Vec::new();
    let mut j = 0usize;
    while b > 0 {
        if b & 1 == 1 {
            if j > max_level {
                return Err(err);
            }
            levels.push(j);
        }
        b >>= 1;
        j += 1;
    }
    Ok(levels)
}

/// A monitored window with its alarm threshold (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSpec {
    /// Window size `w` (a multiple of the base window `W`).
    pub window: usize,
    /// Alarm threshold `τ`.
    pub threshold: f64,
}

/// One candidate alarm: the approximation crossed the threshold and the
/// raw data was checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// Which monitored window fired.
    pub window: usize,
    /// Current time of the crossing.
    pub time: Time,
    /// Upper bound of the composed interval.
    pub upper_bound: f64,
    /// True aggregate over the raw window.
    pub true_value: f64,
    /// `true` if the true aggregate also crossed the threshold.
    pub is_true_alarm: bool,
}

/// Running alarm counters, the §6.1 metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlarmStats {
    /// Warm-window evaluations: each time a monitored window's composed
    /// interval was inspected against its threshold. The denominator of
    /// the firing-rate that Eq. 4–7 model.
    pub checks: u64,
    /// Threshold crossings of the upper bound (each costs a verification).
    pub candidates: u64,
    /// Crossings confirmed on the raw data.
    pub true_alarms: u64,
}

impl AlarmStats {
    /// Precision: true alarms over total alarms raised (1.0 when nothing
    /// was raised).
    pub fn precision(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.true_alarms as f64 / self.candidates as f64
        }
    }

    /// False-alarm rate, `1 − precision`.
    pub fn false_alarm_rate(&self) -> f64 {
        1.0 - self.precision()
    }

    /// Fraction of evaluations in which the upper bound crossed the
    /// threshold — the observable that Eq. 6's
    /// `Pr(X_{T·w} ≥ τ)` predicts under the §5.1 stream model (0.0 when
    /// nothing was checked).
    pub fn candidate_rate(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.candidates as f64 / self.checks as f64
        }
    }
}

struct Monitored {
    spec: WindowSpec,
    /// The decomposed covering window: `spec.window` rounded up to a
    /// multiple of `W`. Equal to `spec.window` for aligned windows.
    effective: usize,
    levels: Vec<usize>,
}

/// Continuous aggregate monitoring of one stream over a set of windows
/// (the Stardust side of the §6.1 experiments).
pub struct AggregateMonitor {
    summary: StreamSummary,
    windows: Vec<Monitored>,
    stats: AlarmStats,
    scratch: Vec<f64>,
    /// Detached (free) unless attached; never serialized.
    telemetry: crate::telemetry::ClassTelemetry,
}

// Compact by hand: the summary carries full per-level box state.
impl std::fmt::Debug for AggregateMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregateMonitor")
            .field("windows", &self.windows.iter().map(|m| m.spec).collect::<Vec<_>>())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl AggregateMonitor {
    /// A monitor with the given summarizer configuration and monitored
    /// windows.
    ///
    /// Windows that are not multiples of `W` are monitored through the
    /// next multiple (the minimal covering window, inflation
    /// `T ≤ 1 + W/w` — tighter than SWT's dyadic `T < 2`); verification
    /// always uses the exact window. MIN cannot be covered this way (a
    /// larger window only lower-bounds the minimum), so MIN windows must
    /// be exact multiples. For SUM the covering bound relies on the §2.1
    /// stream model (values in `[0, R_max]`, nonnegative).
    ///
    /// # Panics
    /// Panics if the transform is DWT (no scalar aggregate), a window is
    /// not decomposable over the configured levels, a MIN window is not a
    /// multiple of `W`, or a covering window exceeds the history.
    pub fn new(config: Config, specs: &[WindowSpec]) -> Self {
        assert_ne!(
            config.transform,
            TransformKind::Dwt,
            "aggregate monitoring needs a scalar transform"
        );
        config.validate();
        let windows = specs
            .iter()
            .map(|&spec| {
                assert!(spec.window >= 1, "window must be positive");
                let effective =
                    spec.window.div_ceil(config.base_window) * config.base_window;
                assert!(
                    effective == spec.window || config.transform != TransformKind::Min,
                    "MIN window {} must be a multiple of W = {} (covering windows only upper-bound SUM/MAX/SPREAD)",
                    spec.window,
                    config.base_window
                );
                assert!(
                    effective <= config.history,
                    "window {} (covered by {}) exceeds history {}",
                    spec.window,
                    effective,
                    config.history
                );
                let levels = decompose(effective, config.base_window, config.levels - 1)
                    .unwrap_or_else(|e| panic!("window {}: {e}", spec.window));
                Monitored { spec, effective, levels }
            })
            .collect();
        AggregateMonitor {
            summary: StreamSummary::new(config),
            windows,
            stats: AlarmStats::default(),
            scratch: Vec::new(),
            telemetry: crate::telemetry::ClassTelemetry::default(),
        }
    }

    /// The underlying stream summary.
    pub fn summary(&self) -> &StreamSummary {
        &self.summary
    }

    /// Attaches per-class telemetry (and summarizer counters) from
    /// `registry`. Telemetry is runtime state: it survives neither
    /// [`Self::snapshot`] nor [`Self::restore`]; re-attach after
    /// restoring.
    pub fn attach_telemetry(&mut self, registry: &stardust_telemetry::Registry) {
        self.telemetry = crate::telemetry::ClassTelemetry::new(registry, "aggregate");
        self.summary.set_telemetry(crate::telemetry::SummarizerTelemetry::new(registry));
    }

    /// Cumulative alarm statistics.
    pub fn stats(&self) -> AlarmStats {
        self.stats
    }

    /// Appends a value and checks every monitored window; returns the
    /// candidate alarms raised at this time step.
    pub fn push(&mut self, value: f64) -> Vec<Alarm> {
        let span = self.telemetry.latency_span();
        self.summary.push_quiet(value);
        let t = self.summary.now().expect("just pushed");
        let mut alarms = Vec::new();
        for i in 0..self.windows.len() {
            let (window, threshold) = (self.windows[i].spec.window, self.windows[i].spec.threshold);
            let effective = self.windows[i].effective;
            if (t + 1) < effective as u64 {
                continue;
            }
            let Some((_, hi)) = compose_interval(
                &self.summary,
                &self.windows[i].levels,
                t,
                self.summary.config().transform,
            ) else {
                continue;
            };
            self.stats.checks += 1;
            self.telemetry.checks.inc();
            if hi < threshold {
                continue;
            }
            // Candidate alarm: retrieve the raw subsequence and verify.
            self.stats.candidates += 1;
            self.telemetry.candidates.inc();
            let mut buf = std::mem::take(&mut self.scratch);
            let ok = self.summary.history().copy_window(t, window, &mut buf);
            debug_assert!(ok, "window within history");
            let true_value =
                self.summary.config().transform.scalar_aggregate(&buf).expect("scalar transform");
            self.scratch = buf;
            let is_true_alarm = true_value >= threshold;
            if is_true_alarm {
                self.stats.true_alarms += 1;
                self.telemetry.confirmed.inc();
            }
            alarms.push(Alarm { window, time: t, upper_bound: hi, true_value, is_true_alarm });
        }
        drop(span);
        alarms
    }

    /// Serializes the monitor — summary, window specs, and alarm
    /// counters — into a self-describing byte buffer. The decomposition
    /// tables are derived state and are rebuilt by [`Self::restore`].
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.blob(&self.summary.snapshot());
        w.u64(self.stats.checks);
        w.u64(self.stats.candidates);
        w.u64(self.stats.true_alarms);
        w.usize(self.windows.len());
        for m in &self.windows {
            w.usize(m.spec.window);
            w.f64(m.spec.threshold);
        }
        w.finish()
    }

    /// Rebuilds a monitor from [`Self::snapshot`] bytes; continuation is
    /// bit-identical to the uninterrupted original.
    ///
    /// # Errors
    /// [`SnapshotError`] on a truncated, corrupt, or inconsistent buffer.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes)?;
        let summary = StreamSummary::restore(r.blob()?)?;
        let stats = AlarmStats { checks: r.u64()?, candidates: r.u64()?, true_alarms: r.u64()? };
        let n = r.count(16)?;
        let mut windows = Vec::with_capacity(n);
        let config = summary.config().clone();
        if config.transform == TransformKind::Dwt {
            return Err(SnapshotError::Corrupt("aggregate snapshot with DWT transform"));
        }
        for _ in 0..n {
            let spec = WindowSpec { window: r.usize()?, threshold: r.f64()? };
            if spec.window == 0 {
                return Err(SnapshotError::Corrupt("zero aggregate window"));
            }
            let effective = spec.window.div_ceil(config.base_window) * config.base_window;
            if effective != spec.window && config.transform == TransformKind::Min {
                return Err(SnapshotError::Corrupt("unaligned MIN window"));
            }
            if effective > config.history {
                return Err(SnapshotError::Corrupt("window exceeds history"));
            }
            let levels = decompose(effective, config.base_window, config.levels - 1)
                .map_err(|_| SnapshotError::Corrupt("window not decomposable"))?;
            windows.push(Monitored { spec, effective, levels });
        }
        r.expect_end()?;
        Ok(AggregateMonitor {
            summary,
            windows,
            stats,
            scratch: Vec::new(),
            telemetry: crate::telemetry::ClassTelemetry::default(),
        })
    }

    /// The current composed interval for the monitored window of size `w`
    /// (`None` during warm-up or if `w` is not monitored). For unaligned
    /// windows this is the covering window's interval, whose upper bound
    /// still dominates the true aggregate.
    pub fn window_interval(&self, w: usize) -> Option<(f64, f64)> {
        let t = self.summary.now()?;
        let m = self.windows.iter().find(|m| m.spec.window == w)?;
        if (t + 1) < m.effective as u64 {
            return None;
        }
        compose_interval(&self.summary, &m.levels, t, self.summary.config().transform)
    }
}

/// Composes the aggregate interval for a decomposed window ending at `t`
/// (the merge loop of Algorithm 2). Returns `None` if some sub-window
/// feature is unavailable.
fn compose_interval(
    summary: &StreamSummary,
    levels: &[usize],
    t: Time,
    kind: TransformKind,
) -> Option<(f64, f64)> {
    let base = summary.config().base_window;
    let mut t_cur = t;
    let mut acc: Option<stardust_dsp::mbr_transform::Bounds> = None;
    for (i, &j) in levels.iter().enumerate() {
        let mbr = summary.mbr_at(j, t_cur)?;
        acc = Some(match acc {
            None => mbr.bounds.clone(),
            // Sub-windows are disjoint pieces of the full window; the
            // aggregate merges of Lemma 4.2 are valid for any
            // concatenation, not just equal halves.
            Some(b) => kind.merge_bounds(&mbr.bounds, &b),
        });
        if i + 1 < levels.len() {
            t_cur = t_cur.checked_sub((base << j) as u64)?;
        }
    }
    kind.aggregate_interval(&acc?)
}

/// The analytical model of §5.1: effective monitoring ratios and
/// false-alarm rates (Equations 4–7).
pub mod analysis {
    use crate::stats::{phi, phi_inv};

    /// Eq. 7 — the effective monitoring ratio of Stardust for a window of
    /// `b·W` with box capacity `c`:
    /// `T′ = 1 + log₂(b)·(c−1)/(b·W)`.
    pub fn stardust_t_prime(b: u64, c: usize, base_window: usize) -> f64 {
        assert!(b >= 1 && base_window >= 1 && c >= 1);
        1.0 + (b as f64).log2() * (c as f64 - 1.0) / (b as f64 * base_window as f64)
    }

    /// The monitoring ratio of SWT for a window `w`: the window is watched
    /// through the smallest power-of-two multiple of `W` covering it, so
    /// `T = 2^⌈log₂(w/W)⌉·W / w ∈ [1, 2)`.
    pub fn swt_t(window: usize, base_window: usize) -> f64 {
        assert!(window >= base_window && base_window >= 1);
        let ratio = window as f64 / base_window as f64;
        let level = ratio.log2().ceil() as u32;
        (base_window as f64) * 2f64.powi(level as i32) / window as f64
    }

    /// The threshold `τ = μ·(1 + Φ⁻¹(1−p))` that bounds the tail
    /// probability of Eq. 4 by `p` under the normalized-deviation model of
    /// Eq. 5.
    pub fn tail_threshold(mu: f64, p: f64) -> f64 {
        mu * (1.0 + phi_inv(1.0 - p))
    }

    /// Eq. 6 (with the paper's notational typo resolved): the false-alarm
    /// rate of monitoring a window through a covering window `T·w`,
    /// `Pr(Z ≥ τ) = 1 − Φ((1 + Φ⁻¹(1−p))/T − 1)`. Equal to `p` at `T = 1`
    /// and increasing in `T`.
    pub fn false_alarm_rate(t: f64, p: f64) -> f64 {
        assert!(t >= 1.0, "monitoring ratio T must be at least 1");
        1.0 - phi((1.0 + phi_inv(1.0 - p)) / t - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_examples() {
        // Paper example: w = 26, W = 2 ⇒ b = 13 = 1101₂ ⇒ levels 0, 2, 3.
        assert_eq!(decompose(26, 2, 4).unwrap(), vec![0, 2, 3]);
        assert_eq!(decompose(8, 8, 0).unwrap(), vec![0]);
        assert_eq!(decompose(24, 8, 4).unwrap(), vec![0, 1]);
    }

    #[test]
    fn decompose_errors() {
        assert!(decompose(26, 4, 4).is_err()); // not a multiple
        assert!(decompose(26, 2, 2).is_err()); // needs level 3
        assert!(decompose(0, 2, 4).is_err());
    }

    #[test]
    fn decomposition_sums_to_window() {
        for w in (2..200).step_by(2) {
            if let Ok(levels) = decompose(w, 2, 10) {
                let total: usize = levels.iter().map(|&j| 2usize << j).sum();
                assert_eq!(total, w);
            }
        }
    }

    fn bursty(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let base = 1.0 + ((i * 7) % 5) as f64 * 0.1;
                if (300..340).contains(&i) || (700..830).contains(&i) {
                    base + 8.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn exact_monitor_has_perfect_precision() {
        // c = 1: the composed interval is degenerate, so every candidate
        // verifies (§6.1: "Stardust with c = 1 is the exact algorithm").
        let cfg = Config::online(TransformKind::Sum, 10, 5, 1).with_history(400);
        let data = bursty(1000);
        let specs = [
            WindowSpec { window: 20, threshold: 60.0 },
            WindowSpec { window: 70, threshold: 250.0 },
            WindowSpec { window: 150, threshold: 400.0 },
        ];
        let mut mon = AggregateMonitor::new(cfg, &specs);
        for &x in &data {
            mon.push(x);
        }
        let st = mon.stats();
        assert!(st.candidates > 0, "bursts must trigger alarms");
        assert_eq!(st.candidates, st.true_alarms);
        assert_eq!(st.precision(), 1.0);
    }

    #[test]
    fn upper_bound_dominates_truth() {
        let cfg = Config::online(TransformKind::Sum, 10, 5, 8).with_history(400);
        let data = bursty(600);
        let specs = [WindowSpec { window: 70, threshold: f64::INFINITY }];
        let mut mon = AggregateMonitor::new(cfg, &specs);
        for (i, &x) in data.iter().enumerate() {
            mon.push(x);
            if i + 1 >= 70 {
                let (lo, hi) = mon.window_interval(70).expect("warm");
                let truth: f64 = data[i + 1 - 70..=i].iter().sum();
                assert!(lo <= truth + 1e-7 && truth <= hi + 1e-7, "t={i}: {lo} {truth} {hi}");
            }
        }
    }

    #[test]
    fn spread_monitoring_bounds_truth() {
        let cfg = Config::online(TransformKind::Spread, 10, 4, 5).with_history(200);
        let data = bursty(400);
        let specs = [WindowSpec { window: 30, threshold: f64::INFINITY }];
        let mut mon = AggregateMonitor::new(cfg, &specs);
        for (i, &x) in data.iter().enumerate() {
            mon.push(x);
            if i + 1 >= 30 {
                let (lo, hi) = mon.window_interval(30).expect("warm");
                let win = &data[i + 1 - 30..=i];
                let truth = TransformKind::Spread.scalar_aggregate(win).unwrap();
                assert!(lo <= truth + 1e-7 && truth <= hi + 1e-7);
            }
        }
    }

    #[test]
    fn larger_boxes_lose_precision_not_recall() {
        // Every true alarm is raised regardless of c (the upper bound never
        // misses); precision can only drop as c grows.
        let data = bursty(1000);
        let specs = [WindowSpec { window: 40, threshold: 100.0 }];
        let mut truth_count = None;
        let mut prev_precision = f64::NEG_INFINITY;
        for c in [25usize, 5, 1] {
            let cfg = Config::online(TransformKind::Sum, 10, 5, c).with_history(400);
            let mut mon = AggregateMonitor::new(cfg, &specs);
            for &x in &data {
                mon.push(x);
            }
            let st = mon.stats();
            match truth_count {
                None => truth_count = Some(st.true_alarms),
                Some(tc) => assert_eq!(tc, st.true_alarms, "recall must not depend on c"),
            }
            assert!(
                st.precision() >= prev_precision - 1e-12,
                "precision should not drop as c shrinks (c={c})"
            );
            prev_precision = st.precision();
        }
    }

    #[test]
    fn unaligned_windows_are_covered_without_misses() {
        // Window 33 with W = 10 is monitored through 40; recall must stay
        // perfect and the upper bound sound (nonnegative data).
        let data = bursty(800);
        let spec = WindowSpec { window: 33, threshold: 90.0 };
        let cfg = Config::online(TransformKind::Sum, 10, 4, 4).with_history(160);
        let mut mon = AggregateMonitor::new(cfg, &[spec]);
        let mut true_alarms = Vec::new();
        for (i, &x) in data.iter().enumerate() {
            for a in mon.push(x) {
                assert!(a.upper_bound + 1e-9 >= a.true_value, "covering bound must dominate");
                if a.is_true_alarm {
                    true_alarms.push(i as u64);
                }
            }
        }
        // Brute force over the exact window 33.
        let mut expect = Vec::new();
        for t in 32..data.len() {
            let s: f64 = data[t - 32..=t].iter().sum();
            if s >= 90.0 {
                expect.push(t as u64);
            }
        }
        assert_eq!(true_alarms, expect);
        assert!(!expect.is_empty(), "workload should contain alarms");
    }

    #[test]
    #[should_panic(expected = "MIN window")]
    fn unaligned_min_window_rejected() {
        let cfg = Config::online(TransformKind::Min, 10, 3, 1);
        let _ = AggregateMonitor::new(cfg, &[WindowSpec { window: 33, threshold: 0.0 }]);
    }

    #[test]
    fn analysis_matches_paper_example() {
        // §5.1: c = W = 64, b = 12 ⇒ T′ ≈ 1.2987, SWT T = 4/3.
        let tp = analysis::stardust_t_prime(12, 64, 64);
        assert!((tp - 1.2947).abs() < 0.01, "T' = {tp}");
        let t = analysis::swt_t(12 * 64, 64);
        assert!((t - 16.0 * 64.0 / 768.0).abs() < 1e-9);
        assert!((t - 1.3333).abs() < 1e-3);
    }

    #[test]
    fn false_alarm_rate_properties() {
        let p = 0.01;
        assert!((analysis::false_alarm_rate(1.0, p) - p).abs() < 1e-6);
        let f12 = analysis::false_alarm_rate(1.2, p);
        let f13 = analysis::false_alarm_rate(1.33, p);
        assert!(p < f12 && f12 < f13, "{p} {f12} {f13}");
    }

    #[test]
    fn t_prime_improves_with_larger_b() {
        let a = analysis::stardust_t_prime(4, 64, 64);
        let b = analysis::stardust_t_prime(32, 64, 64);
        assert!(b < a);
        assert!(analysis::stardust_t_prime(12, 1, 64) == 1.0, "c = 1 is optimal");
    }

    #[test]
    #[should_panic(expected = "scalar transform")]
    fn rejects_dwt() {
        let cfg = Config::batch(8, 2, 2, 1.0);
        let _ = AggregateMonitor::new(cfg, &[]);
    }
}
