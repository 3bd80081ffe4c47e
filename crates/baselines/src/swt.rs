//! SWT — Shifted-Wavelet-Tree burst detection (Zhu & Shasha, KDD 2003).
//!
//! The elastic-burst baseline of §6.1. For monitored windows
//! `w_1 ≤ … ≤ w_m`, SWT maintains one moving aggregate per dyadic level
//! `j` (window `W·2^j`); a query window `w_i` is watched by the *lowest*
//! level with `w_i ≤ W·2^j`, and the level's threshold is the minimum of
//! its windows' thresholds. When the level aggregate crosses that
//! threshold, every window assigned to the level is checked brute-force
//! against the raw data. Because the covering window is up to 2× the
//! monitored window (the `T ∈ [1, 2)` of Eq. 6), SWT raises substantially
//! more false alarms than Stardust's binary-decomposition bound — that gap
//! is Fig. 4.

use std::collections::VecDeque;

use stardust_core::query::aggregate::{AlarmStats, WindowSpec};
use stardust_core::stream::{StreamHistory, Time};
use stardust_core::transform::TransformKind;

struct Level {
    /// Covering window `W·2^j`.
    window: usize,
    /// Minimum threshold of the windows assigned here.
    tau: f64,
    /// The monitored windows watched through this level.
    assigned: Vec<WindowSpec>,
    /// Running sum over the covering window (SUM).
    run_sum: f64,
    /// Monotonic deques over the covering window (MAX / SPREAD).
    maxd: VecDeque<(Time, f64)>,
    mind: VecDeque<(Time, f64)>,
}

impl Level {
    fn aggregate(&self, kind: TransformKind) -> f64 {
        match kind {
            TransformKind::Sum => self.run_sum,
            TransformKind::Max => self.maxd.front().expect("warm level").1,
            TransformKind::Spread => {
                self.maxd.front().expect("warm level").1 - self.mind.front().expect("warm level").1
            }
            TransformKind::Min | TransformKind::Dwt => unreachable!("rejected at construction"),
        }
    }
}

/// An SWT monitor over a single stream.
pub struct SwtMonitor {
    kind: TransformKind,
    history: StreamHistory,
    levels: Vec<Level>,
    stats: AlarmStats,
    scratch: Vec<f64>,
}

/// One candidate alarm raised by SWT (a brute-force check triggered by a
/// level-threshold crossing).
#[derive(Debug, Clone, PartialEq)]
pub struct SwtAlarm {
    /// The monitored window checked.
    pub window: usize,
    /// Current time.
    pub time: Time,
    /// True aggregate over the monitored window.
    pub true_value: f64,
    /// Whether the monitored window's own threshold was crossed.
    pub is_true_alarm: bool,
}

impl SwtMonitor {
    /// Builds the shifted wavelet tree for the given monitored windows.
    /// `base_window` is the unit `W`; each window is assigned to the
    /// lowest level `j` with `w ≤ W·2^j`.
    ///
    /// # Panics
    /// Panics if `specs` is empty, a window is smaller than `W`, or the
    /// transform is MIN/DWT (SWT covers upper-bounded aggregates only).
    pub fn new(kind: TransformKind, base_window: usize, specs: &[WindowSpec]) -> Self {
        assert!(!specs.is_empty(), "need at least one monitored window");
        assert!(base_window >= 1, "base window must be positive");
        assert!(
            matches!(kind, TransformKind::Sum | TransformKind::Max | TransformKind::Spread),
            "SWT supports SUM/MAX/SPREAD aggregates"
        );
        let max_w = specs.iter().map(|s| s.window).max().expect("nonempty");
        let mut n_levels = 0usize;
        while base_window << n_levels < max_w {
            n_levels += 1;
        }
        let mut levels: Vec<Level> = (0..=n_levels)
            .map(|j| Level {
                window: base_window << j,
                tau: f64::INFINITY,
                assigned: Vec::new(),
                run_sum: 0.0,
                maxd: VecDeque::new(),
                mind: VecDeque::new(),
            })
            .collect();
        for &spec in specs {
            assert!(spec.window >= base_window, "window smaller than the base unit");
            let j = levels
                .iter()
                .position(|l| spec.window <= l.window)
                .expect("levels cover the largest window");
            levels[j].tau = levels[j].tau.min(spec.threshold);
            levels[j].assigned.push(spec);
        }
        levels.retain(|l| !l.assigned.is_empty());
        // The covering level window can be up to 2× the largest monitored
        // window; the running sums subtract the value leaving it.
        let capacity = levels.iter().map(|l| l.window).max().expect("nonempty levels") + 1;
        SwtMonitor {
            kind,
            history: StreamHistory::new(capacity).expect("history fits in memory"),
            levels,
            stats: AlarmStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Cumulative alarm statistics (same metric as the Stardust monitor).
    pub fn stats(&self) -> AlarmStats {
        self.stats
    }

    /// Appends a value; returns the brute-force checks (candidate alarms)
    /// triggered at this step.
    pub fn push(&mut self, value: f64) -> Vec<SwtAlarm> {
        let t = self.history.push(value);
        let kind = self.kind;
        // Maintain per-level aggregates.
        for level in &mut self.levels {
            let w = level.window as u64;
            match kind {
                TransformKind::Sum => {
                    level.run_sum += value;
                    if t >= w {
                        let old = self.history.get(t - w).expect("capacity covers window");
                        level.run_sum -= old;
                    }
                }
                TransformKind::Max | TransformKind::Spread => {
                    while level.maxd.back().is_some_and(|&(_, v)| v <= value) {
                        level.maxd.pop_back();
                    }
                    level.maxd.push_back((t, value));
                    while level.mind.back().is_some_and(|&(_, v)| v >= value) {
                        level.mind.pop_back();
                    }
                    level.mind.push_back((t, value));
                    let cutoff = (t + 1).saturating_sub(w);
                    while level.maxd.front().is_some_and(|&(ft, _)| ft < cutoff) {
                        level.maxd.pop_front();
                    }
                    while level.mind.front().is_some_and(|&(ft, _)| ft < cutoff) {
                        level.mind.pop_front();
                    }
                }
                _ => unreachable!(),
            }
        }
        // Check level thresholds, brute-force the assigned windows.
        let mut alarms = Vec::new();
        for li in 0..self.levels.len() {
            let level = &self.levels[li];
            // Before the covering window is full, the aggregate over all
            // available data is still a valid upper bound for any assigned
            // window that *is* full, so the level is checked from the
            // first arrival on.
            let crossed = level.aggregate(kind) >= level.tau;
            for ai in 0..self.levels[li].assigned.len() {
                let spec = self.levels[li].assigned[ai];
                if t + 1 < spec.window as u64 {
                    continue;
                }
                self.stats.checks += 1;
                if !crossed {
                    continue;
                }
                self.stats.candidates += 1;
                let mut buf = std::mem::take(&mut self.scratch);
                let ok = self.history.copy_window(t, spec.window, &mut buf);
                debug_assert!(ok);
                let true_value = kind.scalar_aggregate(&buf).expect("scalar transform");
                self.scratch = buf;
                let is_true_alarm = true_value >= spec.threshold;
                if is_true_alarm {
                    self.stats.true_alarms += 1;
                }
                alarms.push(SwtAlarm { window: spec.window, time: t, true_value, is_true_alarm });
            }
        }
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bursty(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let base = 1.0 + ((i * 7) % 5) as f64 * 0.1;
                // An early burst (inside the covering-window warm-up of the
                // larger levels) and a late one.
                if (32..70).contains(&i) || (300..360).contains(&i) {
                    base + 6.0
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn detects_the_burst() {
        let specs = [WindowSpec { window: 40, threshold: 150.0 }];
        let mut swt = SwtMonitor::new(TransformKind::Sum, 10, &specs);
        let mut true_alarms = 0;
        for x in bursty(600) {
            true_alarms += swt.push(x).iter().filter(|a| a.is_true_alarm).count();
        }
        assert!(true_alarms > 0, "burst missed");
    }

    #[test]
    fn never_misses_what_bruteforce_finds() {
        // Covering-window monotonicity: SUM over W·2^j ≥ SUM over w ⇒ any
        // true alarm also crosses the level threshold.
        let data = bursty(700);
        let specs = [
            WindowSpec { window: 30, threshold: 100.0 },
            WindowSpec { window: 50, threshold: 170.0 },
        ];
        let mut swt = SwtMonitor::new(TransformKind::Sum, 10, &specs);
        let mut raised: Vec<(usize, Time)> = Vec::new();
        for &x in &data {
            raised
                .extend(swt.push(x).iter().filter(|a| a.is_true_alarm).map(|a| (a.window, a.time)));
        }
        // Brute force ground truth.
        let mut expect = Vec::new();
        for &spec in &specs {
            for t in spec.window - 1..data.len() {
                let s: f64 = data[t + 1 - spec.window..=t].iter().sum();
                if s >= spec.threshold {
                    expect.push((spec.window, t as Time));
                }
            }
        }
        raised.sort_unstable();
        expect.sort_unstable();
        assert_eq!(raised, expect);
    }

    #[test]
    fn raises_false_alarms_unlike_exact_monitoring() {
        // With a window strictly between two dyadic sizes, the covering
        // window inflates the aggregate and produces false alarms.
        let data = bursty(700);
        let specs = [WindowSpec { window: 30, threshold: 120.0 }];
        let mut swt = SwtMonitor::new(TransformKind::Sum, 10, &specs);
        for &x in &data {
            swt.push(x);
        }
        let st = swt.stats();
        assert!(st.candidates > st.true_alarms, "expected false alarms: {st:?}");
        assert!(st.precision() < 1.0);
    }

    #[test]
    fn spread_monitoring_works() {
        let data = bursty(600);
        let specs = [WindowSpec { window: 25, threshold: 5.0 }];
        let mut swt = SwtMonitor::new(TransformKind::Spread, 10, &specs);
        let mut any_true = false;
        for &x in &data {
            any_true |= swt.push(x).iter().any(|a| a.is_true_alarm);
        }
        assert!(any_true, "spread burst missed");
        // Verify against brute force for recall.
        let spec = specs[0];
        let mut expect = 0usize;
        for t in spec.window - 1..data.len() {
            let win = &data[t + 1 - spec.window..=t];
            let spread = win.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - win.iter().copied().fold(f64::INFINITY, f64::min);
            if spread >= spec.threshold {
                expect += 1;
            }
        }
        assert_eq!(swt.stats().true_alarms as usize, expect);
    }

    #[test]
    fn level_assignment_uses_lowest_cover() {
        // Windows 10, 15, 40 with W = 10 need levels 10, 20, 40.
        let specs = [
            WindowSpec { window: 10, threshold: 1e12 },
            WindowSpec { window: 15, threshold: 1e12 },
            WindowSpec { window: 40, threshold: 1e12 },
        ];
        let swt = SwtMonitor::new(TransformKind::Sum, 10, &specs);
        let sizes: Vec<usize> = swt.levels.iter().map(|l| l.window).collect();
        assert_eq!(sizes, vec![10, 20, 40]);
    }

    #[test]
    #[should_panic(expected = "SUM/MAX/SPREAD")]
    fn rejects_min() {
        let _ =
            SwtMonitor::new(TransformKind::Min, 10, &[WindowSpec { window: 10, threshold: 0.0 }]);
    }
}
