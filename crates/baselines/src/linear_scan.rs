//! Linear-scan ground truth for every query class.
//!
//! The precision metrics of §6 are ratios against exhaustive answers;
//! these helpers compute them directly over raw series. They are also the
//! "more than ten/hundred times slower" comparator the paper mentions for
//! SWT.

use stardust_core::normalize;
use stardust_core::query::aggregate::WindowSpec;
use stardust_core::transform::TransformKind;

/// The sliding aggregate series of `series` under window `w` — one value
/// per window position (the `y` of the §6.1 threshold-training procedure).
///
/// SUM/MAX/MIN run in Θ(n) via running sums / monotonic deques; SPREAD
/// combines the two deques.
///
/// # Panics
/// Panics if `w` is zero or the transform is DWT.
pub fn sliding_aggregate(series: &[f64], w: usize, kind: TransformKind) -> Vec<f64> {
    assert!(w > 0, "window must be positive");
    assert_ne!(kind, TransformKind::Dwt, "DWT has no scalar aggregate");
    if series.len() < w {
        return Vec::new();
    }
    let n = series.len();
    let mut out = Vec::with_capacity(n - w + 1);
    match kind {
        TransformKind::Sum => {
            let mut acc: f64 = series[..w].iter().sum();
            out.push(acc);
            for t in w..n {
                acc += series[t] - series[t - w];
                out.push(acc);
            }
        }
        TransformKind::Max | TransformKind::Min | TransformKind::Spread => {
            let mut maxd: std::collections::VecDeque<usize> = Default::default();
            let mut mind: std::collections::VecDeque<usize> = Default::default();
            for t in 0..n {
                while maxd.back().is_some_and(|&i| series[i] <= series[t]) {
                    maxd.pop_back();
                }
                maxd.push_back(t);
                while mind.back().is_some_and(|&i| series[i] >= series[t]) {
                    mind.pop_back();
                }
                mind.push_back(t);
                if t + 1 >= w {
                    let cutoff = t + 1 - w;
                    while maxd.front().is_some_and(|&i| i < cutoff) {
                        maxd.pop_front();
                    }
                    while mind.front().is_some_and(|&i| i < cutoff) {
                        mind.pop_front();
                    }
                    let mx = series[*maxd.front().expect("nonempty")];
                    let mn = series[*mind.front().expect("nonempty")];
                    out.push(match kind {
                        TransformKind::Max => mx,
                        TransformKind::Min => mn,
                        TransformKind::Spread => mx - mn,
                        _ => unreachable!(),
                    });
                }
            }
        }
        TransformKind::Dwt => unreachable!(),
    }
    out
}

/// All true alarm times for a monitored window over a full series:
/// `(window, t)` pairs where the aggregate over `series[t−w+1..=t]` crosses
/// the threshold.
pub fn true_alarm_times(series: &[f64], spec: &WindowSpec, kind: TransformKind) -> Vec<u64> {
    sliding_aggregate(series, spec.window, kind)
        .into_iter()
        .enumerate()
        .filter(|&(_, v)| v >= spec.threshold)
        .map(|(i, _)| (i + spec.window - 1) as u64)
        .collect()
}

/// All subsequence matches of `query` in `data` within normalized distance
/// `radius` (Eq. 2 normalization with `R_max`): end indices.
pub fn subsequence_matches(data: &[f64], query: &[f64], radius: f64, r_max: f64) -> Vec<usize> {
    let len = query.len();
    if len == 0 || data.len() < len {
        return Vec::new();
    }
    let r_abs = radius * (len as f64).sqrt() * r_max;
    let r_sq = r_abs * r_abs;
    let mut out = Vec::new();
    for end in len - 1..data.len() {
        let start = end + 1 - len;
        let mut acc = 0.0;
        let mut pruned = false;
        for (a, b) in data[start..=end].iter().zip(query) {
            acc += (a - b) * (a - b);
            if acc > r_sq {
                pruned = true;
                break;
            }
        }
        if !pruned {
            out.push(end);
        }
    }
    out
}

/// All correlated pairs among the last `w` values of the given streams:
/// `(a, b, corr)` with `corr ≥ 1 − r²/2`.
pub fn correlated_pairs(streams: &[Vec<f64>], w: usize, radius: f64) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for a in 0..streams.len() {
        if streams[a].len() < w {
            continue;
        }
        for b in a + 1..streams.len() {
            if streams[b].len() < w {
                continue;
            }
            let wa = &streams[a][streams[a].len() - w..];
            let wb = &streams[b][streams[b].len() - w..];
            let Some(corr) = normalize::correlation(wa, wb) else { continue };
            if normalize::correlation_to_distance(corr) <= radius {
                out.push((a, b, corr));
            }
        }
    }
    out
}

/// The exhaustive online monitor the paper benchmarks SWT against ("more
/// than ten times faster than the linear scan", §6.1): at every arrival,
/// every monitored window's aggregate is recomputed from the raw data —
/// exact, alarm-free of false positives, and Θ(Σ wᵢ) per item.
pub struct ExhaustiveMonitor {
    kind: TransformKind,
    history: stardust_core::stream::StreamHistory,
    specs: Vec<WindowSpec>,
    stats: stardust_core::query::aggregate::AlarmStats,
    scratch: Vec<f64>,
}

impl ExhaustiveMonitor {
    /// A monitor over the given windows.
    ///
    /// # Panics
    /// Panics if `specs` is empty or the transform is DWT.
    pub fn new(kind: TransformKind, specs: &[WindowSpec]) -> Self {
        assert!(!specs.is_empty(), "need at least one monitored window");
        assert_ne!(kind, TransformKind::Dwt, "DWT has no scalar aggregate");
        let max_w = specs.iter().map(|s| s.window).max().expect("nonempty");
        ExhaustiveMonitor {
            kind,
            history: stardust_core::stream::StreamHistory::new(max_w + 1)
                .expect("history fits in memory"),
            specs: specs.to_vec(),
            stats: Default::default(),
            scratch: Vec::new(),
        }
    }

    /// Cumulative alarm statistics; precision is 1.0 by construction.
    pub fn stats(&self) -> stardust_core::query::aggregate::AlarmStats {
        self.stats
    }

    /// Appends a value, recomputing every window from raw data; returns
    /// the times-window pairs that alarmed.
    pub fn push(&mut self, value: f64) -> Vec<usize> {
        let t = self.history.push(value);
        let mut fired = Vec::new();
        for spec in &self.specs {
            if t + 1 < spec.window as u64 {
                continue;
            }
            self.stats.checks += 1;
            let ok = self.history.copy_window(t, spec.window, &mut self.scratch);
            debug_assert!(ok);
            let agg = self.kind.scalar_aggregate(&self.scratch).expect("scalar kind");
            if agg >= spec.threshold {
                self.stats.candidates += 1;
                self.stats.true_alarms += 1;
                fired.push(spec.window);
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_monitor_is_exact() {
        let mut data = vec![1.0; 500];
        for v in data.iter_mut().skip(200).take(30) {
            *v = 6.0;
        }
        let specs = [
            WindowSpec { window: 10, threshold: 30.0 },
            WindowSpec { window: 25, threshold: 60.0 },
        ];
        let mut mon = ExhaustiveMonitor::new(TransformKind::Sum, &specs);
        let mut count = 0usize;
        for &x in &data {
            count += mon.push(x).len();
        }
        let mut expect = 0usize;
        for spec in &specs {
            expect += true_alarm_times(&data, spec, TransformKind::Sum).len();
        }
        assert_eq!(count, expect);
        assert_eq!(mon.stats().precision(), 1.0);
        assert!(expect > 0);
    }

    #[test]
    fn sliding_sum_matches_naive() {
        let s: Vec<f64> = (0..50).map(|i| ((i * 17) % 7) as f64).collect();
        let fast = sliding_aggregate(&s, 5, TransformKind::Sum);
        for (i, v) in fast.iter().enumerate() {
            let naive: f64 = s[i..i + 5].iter().sum();
            assert!((v - naive).abs() < 1e-9);
        }
    }

    #[test]
    fn sliding_spread_matches_naive() {
        let s: Vec<f64> = (0..60).map(|i| ((i * 31) % 13) as f64).collect();
        let fast = sliding_aggregate(&s, 7, TransformKind::Spread);
        for (i, v) in fast.iter().enumerate() {
            let win = &s[i..i + 7];
            let naive = win.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - win.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(*v, naive);
        }
    }

    #[test]
    fn short_series_yields_empty() {
        assert!(sliding_aggregate(&[1.0, 2.0], 5, TransformKind::Sum).is_empty());
    }

    #[test]
    fn alarm_times_are_window_ends() {
        let mut s = vec![0.0; 30];
        for v in s.iter_mut().skip(10).take(5) {
            *v = 10.0;
        }
        let spec = WindowSpec { window: 5, threshold: 49.0 };
        let alarms = true_alarm_times(&s, &spec, TransformKind::Sum);
        assert_eq!(alarms, vec![14]); // exactly the all-burst window
    }

    #[test]
    fn subsequence_matches_include_self() {
        let data: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let q = data[10..20].to_vec();
        let m = subsequence_matches(&data, &q, 0.0, 1.0);
        assert!(m.contains(&19));
    }

    #[test]
    fn correlated_pairs_detects_affine_pair() {
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = a.iter().map(|v| 2.0 * v + 1.0).collect();
        let c: Vec<f64> = (0..32).map(|i| ((i * i) % 17) as f64).collect();
        let pairs = correlated_pairs(&[a, b, c], 32, 0.1);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
    }
}
