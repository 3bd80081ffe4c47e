//! The multi-resolution summarizer — Algorithm 1 of the paper.
//!
//! For each arriving value, features are computed at every due resolution
//! level, **bottom-up**: level 0 from the raw window (incrementally for the
//! aggregate transforms), level `j ≥ 1` from the MBRs at level `j−1` that
//! contain the features of the window's two halves (Lemmas 4.1 / 4.2).
//! Every `c` consecutive features are combined into an MBR; sealed MBRs are
//! kept per level in time order (the pattern engine scans them as its
//! index) and retired once they fall out of the history of interest.
//!
//! Per-item cost: Θ(1) amortized for the aggregate transforms at level 0
//! (running sum / monotonic deques), Θ(f) per due level above it
//! (Theorem 4.3); space Θ(2^{j−1}·W / (c·T_{j−1})) at level `j−1`.

use std::collections::VecDeque;

use stardust_dsp::haar;
use stardust_dsp::mbr_transform::Bounds;

use crate::config::Config;
use crate::error::SpecError;
use crate::mbr::FeatureMbr;
use crate::snapshot::{self, SnapshotError};
use crate::stream::{StreamHistory, Time};
use crate::telemetry::SummarizerTelemetry;
use crate::transform::TransformKind;

/// Change notification emitted by [`StreamSummary::push`].
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryEvent {
    /// An MBR reached its box capacity and is ready for indexing.
    Sealed {
        /// Resolution level of the MBR.
        level: usize,
        /// The sealed MBR.
        mbr: FeatureMbr,
    },
    /// A previously sealed MBR fell out of the history of interest.
    Retired {
        /// Resolution level of the MBR.
        level: usize,
        /// The retired MBR (identical to the one sealed earlier).
        mbr: FeatureMbr,
    },
}

/// Per-level summary state: the open MBR plus the threaded deque of sealed
/// MBRs, oldest first ("the MBRs belonging to a specific stream are
/// threaded together", §4).
#[derive(Debug, Clone)]
struct LevelState {
    window: usize,
    period: u64,
    open: Option<FeatureMbr>,
    sealed: VecDeque<FeatureMbr>,
}

impl LevelState {
    /// The MBR (sealed or open) containing the feature with time `t`.
    fn find(&self, t: Time) -> Option<&FeatureMbr> {
        if let Some(open) = &self.open {
            if open.covers(t) {
                return Some(open);
            }
        }
        // First sealed MBR starting after t, then step back one.
        let idx = self.sealed.partition_point(|m| m.first <= t);
        let candidate = self.sealed.get(idx.checked_sub(1)?)?;
        candidate.covers(t).then_some(candidate)
    }
}

/// Incremental sliding max/min over the base window, via monotonic deques
/// (amortized Θ(1) per item).
#[derive(Debug, Clone, Default)]
struct MonotonicDeques {
    maxd: VecDeque<(Time, f64)>,
    mind: VecDeque<(Time, f64)>,
}

impl MonotonicDeques {
    fn push(&mut self, t: Time, x: f64, window: usize) {
        while self.maxd.back().is_some_and(|&(_, v)| v <= x) {
            self.maxd.pop_back();
        }
        self.maxd.push_back((t, x));
        while self.mind.back().is_some_and(|&(_, v)| v >= x) {
            self.mind.pop_back();
        }
        self.mind.push_back((t, x));
        let cutoff = t + 1 - (window as u64).min(t + 1);
        while self.maxd.front().is_some_and(|&(ft, _)| ft < cutoff) {
            self.maxd.pop_front();
        }
        while self.mind.front().is_some_and(|&(ft, _)| ft < cutoff) {
            self.mind.pop_front();
        }
    }

    fn max(&self) -> f64 {
        self.maxd.front().expect("nonempty window").1
    }

    fn min(&self) -> f64 {
        self.mind.front().expect("nonempty window").1
    }
}

/// The multi-resolution summary of a single stream.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    config: Config,
    history: StreamHistory,
    levels: Vec<LevelState>,
    deques: MonotonicDeques,
    /// Running sum / sum of squares over the current base window.
    run_sum: f64,
    run_sumsq: f64,
    scratch: Vec<f64>,
    /// Lifecycle counters; detached (free) by default. Deliberately not
    /// serialized: a restored summary comes back detached and the owner
    /// re-attaches. Clones share the counter cells, so the per-stream
    /// summaries of one monitor aggregate into one series.
    telemetry: SummarizerTelemetry,
}

impl StreamSummary {
    /// A fresh summary for the given configuration.
    ///
    /// # Panics
    /// Panics with [`Self::try_new`]'s message.
    pub fn new(config: Config) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`] without the panic.
    ///
    /// # Errors
    /// [`Config::check`]'s error on an invalid configuration, and
    /// [`SpecError::Invalid`] if the raw history cannot be allocated.
    pub fn try_new(config: Config) -> Result<Self, SpecError> {
        config.check()?;
        let levels = (0..config.levels)
            .map(|j| LevelState {
                window: config.window_at(j),
                period: config.update.period(j, config.base_window),
                open: None,
                sealed: VecDeque::new(),
            })
            .collect();
        // +1 so the value leaving the base window (t − W) is still readable
        // when time t is pushed.
        let history = StreamHistory::new(config.history + 1).map_err(|_| {
            SpecError::Invalid(format!(
                "a raw history of {} values cannot be allocated",
                config.history + 1
            ))
        })?;
        Ok(StreamSummary {
            config,
            history,
            levels,
            deques: MonotonicDeques::default(),
            run_sum: 0.0,
            run_sumsq: 0.0,
            scratch: Vec::new(),
            telemetry: SummarizerTelemetry::default(),
        })
    }

    /// Attaches lifecycle counters; pass
    /// [`SummarizerTelemetry::default`] to detach.
    pub fn set_telemetry(&mut self, telemetry: SummarizerTelemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration this summary was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The raw-value history (for verification and ground truth).
    pub fn history(&self) -> &StreamHistory {
        &self.history
    }

    /// Time of the most recent value, `None` before the first push.
    pub fn now(&self) -> Option<Time> {
        self.history.latest_time()
    }

    /// The MBR at `level` containing the feature with time `t` (its window
    /// is `x[t − W·2^level + 1 : t]`).
    pub fn mbr_at(&self, level: usize, t: Time) -> Option<&FeatureMbr> {
        self.levels.get(level)?.find(t)
    }

    /// Iterates over the sealed MBRs at a level, oldest first.
    pub fn sealed_mbrs(&self, level: usize) -> impl Iterator<Item = &FeatureMbr> {
        self.levels[level].sealed.iter()
    }

    /// The currently open (unsealed) MBR at a level, if any.
    pub fn open_mbr(&self, level: usize) -> Option<&FeatureMbr> {
        self.levels[level].open.as_ref()
    }

    /// Total MBRs retained across all levels — the space accounting of
    /// Theorem 4.3.
    pub fn retained_mbrs(&self) -> usize {
        self.levels.iter().map(|l| l.sealed.len() + usize::from(l.open.is_some())).sum()
    }

    /// Serializes the full summary state — configuration, raw history,
    /// and every open/sealed MBR — into a self-describing byte buffer.
    /// Restoring with [`StreamSummary::restore`] yields a summary whose
    /// future behaviour is identical to the uninterrupted original.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = snapshot::Writer::new();
        snapshot::encode_config(&mut w, &self.config);
        snapshot::encode_precision(&mut w);
        let (capacity, next, buf) = self.history.raw_parts();
        w.usize(capacity);
        w.u64(next);
        w.f64_slice(buf);
        w.f64(self.run_sum);
        w.f64(self.run_sumsq);
        let encode_deque = |w: &mut snapshot::Writer, dq: &VecDeque<(Time, f64)>| {
            w.usize(dq.len());
            for &(t, v) in dq {
                w.u64(t);
                w.f64(v);
            }
        };
        encode_deque(&mut w, &self.deques.maxd);
        encode_deque(&mut w, &self.deques.mind);
        w.usize(self.levels.len());
        for level in &self.levels {
            match &level.open {
                None => w.u8(0),
                Some(m) => {
                    w.u8(1);
                    snapshot::encode_mbr(&mut w, m);
                }
            }
            w.usize(level.sealed.len());
            for m in &level.sealed {
                snapshot::encode_mbr(&mut w, m);
            }
        }
        w.finish()
    }

    /// Rebuilds a summary from a [`StreamSummary::snapshot`] buffer. The
    /// level-0 derived state (running moments, sliding max/min deques) is
    /// reconstructed from the restored raw history.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] on malformed, truncated, or inconsistent
    /// input; no partially restored summary is ever produced.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = snapshot::Reader::new(bytes)?;
        let config = snapshot::decode_config(&mut r)?;
        config.check().map_err(|_| SnapshotError::Corrupt("invalid configuration"))?;
        snapshot::decode_precision(&mut r)?;
        let capacity = r.usize()?;
        if capacity != config.history + 1 {
            return Err(SnapshotError::Corrupt("history capacity mismatch"));
        }
        let next = r.u64()?;
        let buf = r.f64_vec()?;
        let history = StreamHistory::from_raw_parts(capacity, next, buf)
            .map_err(|_| SnapshotError::Corrupt("inconsistent history ring"))?;
        let run_sum = r.f64()?;
        let run_sumsq = r.f64()?;
        let decode_deque =
            |r: &mut snapshot::Reader<'_>| -> Result<VecDeque<(Time, f64)>, SnapshotError> {
                let n = r.count(16)?;
                let mut dq = VecDeque::with_capacity(n);
                let mut prev: Option<Time> = None;
                for _ in 0..n {
                    let t = r.u64()?;
                    if t >= next || prev.is_some_and(|p| t <= p) {
                        return Err(SnapshotError::Corrupt("deque times out of order"));
                    }
                    prev = Some(t);
                    dq.push_back((t, r.f64()?));
                }
                Ok(dq)
            };
        let maxd = decode_deque(&mut r)?;
        let mind = decode_deque(&mut r)?;
        let n_levels = r.usize()?;
        if n_levels != config.levels {
            return Err(SnapshotError::Corrupt("level count mismatch"));
        }
        let dims = config.transform.dims(config.dwt_coeffs);
        let c = config.box_capacity as u64;
        let mut levels = Vec::with_capacity(n_levels);
        for j in 0..n_levels {
            let (window, period) =
                (config.window_at(j), config.update.period(j, config.base_window));
            // The stream clock fixes every box: features at `t0 + i·T`
            // up to `next − 1`, boxed `c` at a time from the first, and
            // sealed boxes that ended before the history horizon are
            // retired.
            let t0 = (window as u64).div_ceil(period) * period - 1;
            let n_features = if next > t0 { (next - 1 - t0) / period + 1 } else { 0 };
            let first_of = |boxed: u64| t0 + boxed * period;
            let horizon = next.saturating_sub(1).saturating_sub(config.history as u64);
            let n_boxes = n_features / c;
            // Box k ends at `t0 + ((k + 1)·c − 1)·T`, before the horizon
            // for the first ⌈(horizon − t0)/T⌉ / c boxes.
            let retired = (horizon.saturating_sub(t0).div_ceil(period) / c).min(n_boxes);
            let read_box = |r: &mut snapshot::Reader<'_>, first: Time, count: u64| {
                let m = snapshot::decode_mbr(r)?;
                if m.bounds.dims() != dims
                    || (m.first, m.count as u64, m.period) != (first, count, period)
                {
                    return Err(SnapshotError::Corrupt("MBR disagrees with the stream clock"));
                }
                Ok(m)
            };
            let open = match r.u8()? {
                0 if n_features % c == 0 => None,
                1 if n_features % c != 0 => {
                    Some(read_box(&mut r, first_of(n_boxes * c), n_features % c)?)
                }
                _ => return Err(SnapshotError::Corrupt("open tag")),
            };
            let n_sealed = r.count(64)?;
            if n_sealed as u64 != n_boxes - retired {
                return Err(SnapshotError::Corrupt(
                    "sealed MBR count disagrees with the stream clock",
                ));
            }
            let mut sealed = VecDeque::with_capacity(n_sealed);
            for k in retired..n_boxes {
                sealed.push_back(read_box(&mut r, first_of(k * c), c)?);
            }
            levels.push(LevelState { window, period, open, sealed });
        }
        r.expect_end()?;
        Ok(StreamSummary {
            config,
            history,
            levels,
            deques: MonotonicDeques { maxd, mind },
            run_sum,
            run_sumsq,
            scratch: Vec::new(),
            telemetry: SummarizerTelemetry::default(),
        })
    }

    /// Appends one value, updating every due level bottom-up (Algorithm 1).
    /// Sealed/retired MBRs are appended to `events`.
    pub fn push(&mut self, value: f64, events: &mut Vec<SummaryEvent>) {
        self.push_inner(value, Some(events));
    }

    /// [`Self::push`] for callers that read the summary afterwards
    /// instead of its change notifications: nothing is recorded, so no
    /// sealed MBR is cloned.
    pub fn push_quiet(&mut self, value: f64) {
        self.push_inner(value, None);
    }

    fn push_inner(&mut self, value: f64, mut events: Option<&mut Vec<SummaryEvent>>) {
        self.telemetry.appends.inc();
        let w0 = self.config.base_window;
        let t = self.history.push(value);
        // Level-0 incremental state.
        self.run_sum += value;
        self.run_sumsq += value * value;
        if t >= w0 as u64 {
            let old =
                self.history.get(t - w0 as u64).expect("history capacity covers the base window");
            self.run_sum -= old;
            self.run_sumsq -= old * old;
        }
        match self.config.transform {
            TransformKind::Max | TransformKind::Min | TransformKind::Spread => {
                self.deques.push(t, value, w0);
            }
            TransformKind::Sum | TransformKind::Dwt => {}
        }

        for j in 0..self.config.levels {
            let period = self.levels[j].period;
            let window = self.levels[j].window as u64;
            if !(t + 1).is_multiple_of(period) || t + 1 < window {
                continue;
            }
            let (bounds, sum, sumsq) = if j == 0 {
                self.level0_feature(t)
            } else if self.config.compute == crate::config::ComputeMode::Direct {
                // MR-Index-style maintenance: recompute the transform from
                // the raw window at every level (Θ(w_j) per item) — exact,
                // but without Stardust's incremental savings.
                self.direct_feature(j, t)
            } else {
                let half = self.levels[j - 1].window as u64;
                let (lower, _upper) = self.levels.split_at(j);
                let prev = &lower[j - 1];
                let Some(left) = prev.find(t - half) else { continue };
                let Some(right) = prev.find(t) else { continue };
                let merged = self.config.transform.merge_bounds(&left.bounds, &right.bounds);
                let sum = (left.sum.0 + right.sum.0, left.sum.1 + right.sum.1);
                let sumsq = (left.sumsq.0 + right.sumsq.0, left.sumsq.1 + right.sumsq.1);
                (merged, sum, sumsq)
            };
            self.insert_feature(j, bounds, sum, sumsq, t, events.as_deref_mut());
        }
        self.retire(t, events);
    }

    /// Direct (non-incremental) feature of the level-`j` window ending at
    /// `t` — the `ComputeMode::Direct` path.
    fn direct_feature(&mut self, level: usize, t: Time) -> (Bounds, (f64, f64), (f64, f64)) {
        let w = self.levels[level].window;
        let mut buf = std::mem::take(&mut self.scratch);
        let ok = self.history.copy_window(t, w, &mut buf);
        debug_assert!(ok, "window must be in history");
        let coords = self.config.transform.compute(&buf, self.config.dwt_coeffs);
        let sum: f64 = buf.iter().sum();
        let sumsq: f64 = buf.iter().map(|v| v * v).sum();
        self.scratch = buf;
        (Bounds::point(&coords), (sum, sum), (sumsq, sumsq))
    }

    fn level0_feature(&mut self, t: Time) -> (Bounds, (f64, f64), (f64, f64)) {
        let w0 = self.config.base_window;
        let coords: Vec<f64> = match self.config.transform {
            TransformKind::Sum => vec![self.run_sum],
            TransformKind::Max => vec![self.deques.max()],
            TransformKind::Min => vec![self.deques.min()],
            TransformKind::Spread => vec![self.deques.max(), self.deques.min()],
            TransformKind::Dwt => {
                let mut buf = std::mem::take(&mut self.scratch);
                let ok = self.history.copy_window(t, w0, &mut buf);
                debug_assert!(ok, "base window must be in history");
                let coeffs = haar::approx(&buf, self.config.dwt_coeffs);
                self.scratch = buf;
                coeffs
            }
        };
        (Bounds::point(&coords), (self.run_sum, self.run_sum), (self.run_sumsq, self.run_sumsq))
    }

    fn insert_feature(
        &mut self,
        level: usize,
        bounds: Bounds,
        sum: (f64, f64),
        sumsq: (f64, f64),
        t: Time,
        events: Option<&mut Vec<SummaryEvent>>,
    ) {
        let capacity = self.config.box_capacity;
        let st = &mut self.levels[level];
        match &mut st.open {
            None => {
                st.open = Some(FeatureMbr::first(bounds, sum, sumsq, t, st.period));
            }
            Some(m) => m.absorb(&bounds, sum, sumsq, t),
        }
        if st.open.as_ref().map(|m| m.count) == Some(capacity) {
            let mbr = st.open.take().expect("just checked");
            self.telemetry.sealed.inc();
            if let Some(events) = events {
                events.push(SummaryEvent::Sealed { level, mbr: mbr.clone() });
            }
            st.sealed.push_back(mbr);
        }
    }

    fn retire(&mut self, t: Time, mut events: Option<&mut Vec<SummaryEvent>>) {
        let horizon = t.saturating_sub(self.config.history as u64);
        for (level, st) in self.levels.iter_mut().enumerate() {
            while st.sealed.front().is_some_and(|m| m.last() < horizon) {
                let mbr = st.sealed.pop_front().expect("just checked");
                self.telemetry.retired.inc();
                if let Some(events) = events.as_deref_mut() {
                    events.push(SummaryEvent::Retired { level, mbr });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpdatePolicy;

    fn series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.17).sin() * 10.0 + (i % 13) as f64).collect()
    }

    /// Online mode with c = 1 must reproduce the direct transform exactly
    /// at every level and every time step.
    #[test]
    fn online_exact_matches_direct_all_kinds() {
        let data = series(300);
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let base = if kind == TransformKind::Dwt { 8 } else { 10 };
            let mut cfg = Config::online(kind, base, 4, 1);
            cfg.dwt_coeffs = 4;
            cfg.history = cfg.max_window() * 2;
            let mut s = StreamSummary::new(cfg.clone());
            for (i, &x) in data.iter().enumerate() {
                s.push_quiet(x);
                let t = i as u64;
                for j in 0..cfg.levels {
                    let w = cfg.window_at(j);
                    if i + 1 < w {
                        continue;
                    }
                    let mbr = s
                        .mbr_at(j, t)
                        .unwrap_or_else(|| panic!("{kind:?} missing level {j} at t={t}"));
                    let direct = kind.compute(&data[i + 1 - w..=i], cfg.dwt_coeffs);
                    for (d, (lo, hi)) in
                        direct.iter().zip(mbr.bounds.lo().iter().zip(mbr.bounds.hi()))
                    {
                        assert!(
                            (d - lo).abs() < 1e-7 && (d - hi).abs() < 1e-7,
                            "{kind:?} level {j} t={t}: direct {direct:?} vs [{:?}, {:?}]",
                            mbr.bounds.lo(),
                            mbr.bounds.hi()
                        );
                    }
                }
            }
        }
    }

    /// With c > 1 the MBR extent must always contain the true feature
    /// (Lemma 4.2 conservativeness, end to end).
    #[test]
    fn online_boxes_contain_true_features() {
        let data = series(400);
        for kind in [TransformKind::Sum, TransformKind::Spread, TransformKind::Dwt] {
            let base = if kind == TransformKind::Dwt { 8 } else { 10 };
            let mut cfg = Config::online(kind, base, 4, 5);
            cfg.dwt_coeffs = 4;
            cfg.history = cfg.max_window() * 2;
            let mut s = StreamSummary::new(cfg.clone());
            for (i, &x) in data.iter().enumerate() {
                s.push_quiet(x);
                let t = i as u64;
                for j in 0..cfg.levels {
                    let w = cfg.window_at(j);
                    if i + 1 < w {
                        continue;
                    }
                    let mbr = s.mbr_at(j, t).expect("feature exists");
                    let direct = kind.compute(&data[i + 1 - w..=i], cfg.dwt_coeffs);
                    assert!(
                        mbr.bounds.contains(&direct, 1e-7),
                        "{kind:?} level {j} t={t}: {direct:?} outside box"
                    );
                }
            }
        }
    }

    /// Moment intervals must contain the true window sum / sum of squares.
    #[test]
    fn moment_intervals_contain_truth() {
        let data = series(300);
        let mut cfg = Config::online(TransformKind::Sum, 10, 3, 4);
        cfg.history = cfg.max_window() * 2;
        let mut s = StreamSummary::new(cfg.clone());
        for (i, &x) in data.iter().enumerate() {
            s.push_quiet(x);
            for j in 0..cfg.levels {
                let w = cfg.window_at(j);
                if i + 1 < w {
                    continue;
                }
                let mbr = s.mbr_at(j, i as u64).expect("feature exists");
                let win = &data[i + 1 - w..=i];
                let sum: f64 = win.iter().sum();
                let sumsq: f64 = win.iter().map(|v| v * v).sum();
                assert!(mbr.sum.0 - 1e-7 <= sum && sum <= mbr.sum.1 + 1e-7);
                assert!(mbr.sumsq.0 - 1e-7 <= sumsq && sumsq <= mbr.sumsq.1 + 1e-7);
            }
        }
    }

    /// Batch mode computes features only every W steps, matching the
    /// direct transform at aligned times.
    #[test]
    fn batch_mode_alignment_and_exactness() {
        let data = series(512);
        let cfg = Config::batch(16, 3, 4, 1.0).with_history(256);
        let mut s = StreamSummary::new(cfg.clone());
        for (i, &x) in data.iter().enumerate() {
            s.push_quiet(x);
            let t = i as u64;
            for j in 0..cfg.levels {
                let w = cfg.window_at(j);
                let due = (i + 1) % 16 == 0 && i + 1 >= w;
                let found = s.mbr_at(j, t).is_some();
                assert_eq!(found, due, "level {j} t={t}");
                if due {
                    let mbr = s.mbr_at(j, t).unwrap();
                    let direct = TransformKind::Dwt.compute(&data[i + 1 - w..=i], 4);
                    for (d, lo) in direct.iter().zip(mbr.bounds.lo()) {
                        assert!((d - lo).abs() < 1e-7);
                    }
                }
            }
        }
    }

    /// SWAT policy: level j updates every 2^j steps.
    #[test]
    fn swat_policy_update_times() {
        let mut cfg = Config::online(TransformKind::Sum, 4, 3, 1);
        cfg.update = UpdatePolicy::Swat;
        cfg.history = 64;
        let mut s = StreamSummary::new(cfg.clone());
        for i in 0..64usize {
            s.push_quiet(i as f64);
            let t = i as u64;
            for j in 0..3 {
                let due = (i + 1) % (1 << j) == 0 && i + 1 >= cfg.window_at(j);
                assert_eq!(s.mbr_at(j, t).is_some(), due, "level {j} t={t}");
            }
        }
    }

    /// Sealed and retired events bracket the MBR lifecycle; retained space
    /// stays bounded.
    #[test]
    fn lifecycle_events_and_space_bound() {
        let cfg = Config::online(TransformKind::Sum, 8, 3, 4).with_history(64);
        let mut s = StreamSummary::new(cfg.clone());
        let mut events = Vec::new();
        let mut sealed = 0usize;
        let mut retired = 0usize;
        for i in 0..2000 {
            events.clear();
            s.push(i as f64, &mut events);
            for e in &events {
                match e {
                    SummaryEvent::Sealed { .. } => sealed += 1,
                    SummaryEvent::Retired { .. } => retired += 1,
                }
            }
        }
        assert!(sealed > 0 && retired > 0);
        assert!(sealed >= retired);
        // Retained MBRs: per level about history/(c·T) plus slack.
        assert!(s.retained_mbrs() <= 3 * (64 / 4 + 3), "retained {} MBRs", s.retained_mbrs());
        // Everything sealed is eventually retired or still retained.
        let still: usize = (0..3).map(|j| s.sealed_mbrs(j).count()).sum();
        assert_eq!(sealed, retired + still);
    }

    /// MBRs older than the history horizon are unreachable.
    #[test]
    fn retirement_horizon() {
        let cfg = Config::online(TransformKind::Sum, 4, 2, 2).with_history(32);
        let mut s = StreamSummary::new(cfg);
        for i in 0..200 {
            s.push_quiet(i as f64);
        }
        let t = s.now().unwrap();
        assert!(s.mbr_at(0, t).is_some() || s.open_mbr(0).is_some());
        assert!(s.mbr_at(0, t - 20).is_some());
        assert!(s.mbr_at(0, t - 40).is_none(), "beyond horizon must be retired");
    }

    /// Querying a time with no feature (misaligned or warm-up) is None.
    #[test]
    fn missing_feature_lookups() {
        let cfg = Config::batch(8, 2, 2, 1.0).with_history(64);
        let mut s = StreamSummary::new(cfg);
        for i in 0..40 {
            s.push_quiet(i as f64);
        }
        assert!(s.mbr_at(0, 31).is_some());
        assert!(s.mbr_at(0, 30).is_none(), "misaligned time");
        assert!(s.mbr_at(1, 15).is_some());
        assert!(s.mbr_at(1, 7).is_none(), "warm-up period");
        assert!(s.mbr_at(5, 31).is_none(), "level out of range");
    }

    /// Direct (MR-Index-style) computation agrees with the incremental
    /// scheme when features are exact (c = 1).
    #[test]
    fn direct_mode_matches_incremental_with_unit_capacity() {
        let data = series(300);
        let mut cfg = Config::batch(8, 3, 4, 1.0).with_history(64);
        let mut a = StreamSummary::new(cfg.clone());
        cfg.compute = crate::config::ComputeMode::Direct;
        let mut b = StreamSummary::new(cfg.clone());
        for (i, &x) in data.iter().enumerate() {
            a.push_quiet(x);
            b.push_quiet(x);
            for j in 0..3 {
                let (fa, fb) = (a.mbr_at(j, i as u64), b.mbr_at(j, i as u64));
                assert_eq!(fa.is_some(), fb.is_some(), "level {j} t={i}");
                if let (Some(fa), Some(fb)) = (fa, fb) {
                    for (x1, x2) in fa.bounds.lo().iter().zip(fb.bounds.lo()) {
                        assert!((x1 - x2).abs() < 1e-7, "level {j} t={i}");
                    }
                }
            }
        }
    }

    /// Snapshot → restore → keep feeding: the restored summary must be
    /// indistinguishable from the uninterrupted one, for every transform
    /// and policy.
    #[test]
    fn snapshot_restore_is_transparent() {
        let data = series(500);
        for kind in [TransformKind::Sum, TransformKind::Spread, TransformKind::Dwt] {
            for policy in [UpdatePolicy::Online, UpdatePolicy::Batch, UpdatePolicy::Swat] {
                let base = 8usize;
                let mut cfg = Config::online(kind, base, 3, 4);
                cfg.update = policy;
                cfg.dwt_coeffs = 4;
                cfg.history = cfg.max_window() * 2;
                let mut original = StreamSummary::new(cfg.clone());
                // Feed a prefix, snapshot mid-stream (not at a boundary).
                for &x in &data[..233] {
                    original.push_quiet(x);
                }
                let bytes = original.snapshot();
                let mut restored = StreamSummary::restore(&bytes)
                    .unwrap_or_else(|e| panic!("{kind:?}/{policy:?}: {e}"));
                // Feed the rest into both; every event and lookup agrees.
                let mut ev_a = Vec::new();
                let mut ev_b = Vec::new();
                for (off, &x) in data[233..].iter().enumerate() {
                    ev_a.clear();
                    ev_b.clear();
                    original.push(x, &mut ev_a);
                    restored.push(x, &mut ev_b);
                    assert_eq!(ev_a, ev_b, "{kind:?}/{policy:?} events diverge at +{off}");
                    let t = (233 + off) as u64;
                    for j in 0..3 {
                        assert_eq!(
                            original.mbr_at(j, t),
                            restored.mbr_at(j, t),
                            "{kind:?}/{policy:?} level {j} at t={t}"
                        );
                    }
                }
                assert_eq!(original.retained_mbrs(), restored.retained_mbrs());
            }
        }
    }

    /// Restore rejects malformed input instead of panicking.
    #[test]
    fn restore_rejects_garbage() {
        use crate::snapshot::SnapshotError;
        assert_eq!(StreamSummary::restore(b"garbage!").unwrap_err(), SnapshotError::BadMagic);
        let cfg = Config::online(TransformKind::Sum, 8, 3, 4).with_history(64);
        let mut s = StreamSummary::new(cfg);
        for i in 0..100 {
            s.push_quiet(i as f64);
        }
        let good = s.snapshot();
        // Truncations at every prefix length must error, never panic.
        for cut in (8..good.len()).step_by(7) {
            assert!(StreamSummary::restore(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Single-byte corruptions must error or produce a valid summary,
        // never panic. (Flips in raw f64 payload can be benign.)
        for i in (8..good.len()).step_by(11) {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let _ = StreamSummary::restore(&bad);
        }
    }

    /// Monotonic deques agree with brute-force sliding max/min.
    #[test]
    fn monotonic_deques_match_bruteforce() {
        let data = series(200);
        let w = 7;
        let mut dq = MonotonicDeques::default();
        for (i, &x) in data.iter().enumerate() {
            dq.push(i as u64, x, w);
            let start = i.saturating_sub(w - 1);
            let win = &data[start..=i];
            let mx = win.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mn = win.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(dq.max(), mx, "t={i}");
            assert_eq!(dq.min(), mn, "t={i}");
        }
    }
}
