//! Correlation monitoring — §5.3.
//!
//! Every time a new level-`J` feature of a stream is computed (batch
//! algorithm, `c = 1`, `T_j = W`), a range query around the feature reports
//! every other synchronized stream whose current feature is within distance
//! `r` — the candidates for `corr ≥ 1 − r²/2` (the z-norm reduction of
//! §2.4). As in the paper's evaluation, reported pairs are **approximate**:
//! the filter is the feature distance (which lower-bounds the true z-norm
//! distance, so no true pair is ever dismissed), and the §6.3 precision
//! metric is the fraction of reported pairs that survive raw-window
//! verification. Verification can be kept inline (for precision runs) or
//! disabled (for timing runs).
//!
//! The only difference from a pattern query is the normalization, handled
//! analytically from the threaded (coefficients, sum, sum-of-squares)
//! triple: a z-normalized window has zero mean, so its leading ordered-DWT
//! coefficient vanishes and the *first `f` detail coefficients* carry the
//! signal ("the first f DWT coefficients retain most of the energy", §4).
//! Details are mean-invariant, so the feature is simply the ordered DWT of
//! the maintained approximation vector, coefficients `1..=f`, scaled by
//! `1/√(Σx² − w·μ²)`.

use stardust_dsp::haar;
use stardust_index::PointTable;

use crate::config::Config;
use crate::error::{ensure, SpecError};
use crate::normalize;
use crate::sketch::BlockSketch;
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::stream::{StreamId, Time};
use crate::summarizer::StreamSummary;

/// A reported (approximately) correlated pair at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedPair {
    /// The stream whose arrival triggered the report.
    pub a: StreamId,
    /// The other stream of the pair.
    pub b: StreamId,
    /// Feature time of stream `a` (the window of `a` ends here).
    pub time: Time,
    /// Feature time of stream `b`; equal to `time` for synchronized
    /// pairs, earlier for lagged pairs.
    pub time_other: Time,
    /// Distance between the two streams' features (≤ the true z-norm
    /// distance).
    pub feature_distance: f64,
    /// Exact correlation over the raw windows; `Some` only when inline
    /// verification is enabled.
    pub correlation: Option<f64>,
}

/// Running counters for the §6.3 metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorrelationStats {
    /// Pairs reported (feature distance within threshold).
    pub reported: u64,
    /// Reported pairs confirmed on the raw windows (only counted when
    /// inline verification is enabled).
    pub true_pairs: u64,
}

impl CorrelationStats {
    /// True pairs over reported pairs (1.0 when nothing was reported).
    /// Meaningful only when the monitor verifies inline.
    pub fn precision(&self) -> f64 {
        if self.reported == 0 {
            1.0
        } else {
            self.true_pairs as f64 / self.reported as f64
        }
    }
}

/// Continuous correlation monitoring over `M` synchronized streams.
///
/// ```
/// use stardust_core::query::correlation::CorrelationMonitor;
///
/// // Correlation over windows of 4·2² = 16 values, threshold corr ≥ 0.995.
/// let mut monitor = CorrelationMonitor::new(4, 3, 2, 0.1, 2);
/// let mut confirmed = 0;
/// for t in 0..64 {
///     let x = (t as f64 * 0.3).sin() * 5.0 + 10.0;
///     monitor.append(0, x);
///     // Stream 1 is an affine copy of stream 0: perfectly correlated.
///     for pair in monitor.append(1, 2.0 * x + 1.0) {
///         if pair.correlation.unwrap_or(0.0) > 0.995 {
///             confirmed += 1;
///         }
///     }
/// }
/// assert!(confirmed > 0);
/// ```
///
/// Each unordered correlated pair is reported exactly once, when the
/// later of the two streams produces its feature for that time step. The
/// feature table holds exactly the current round's features (it is
/// cleared when the first stream of a round emits), so maintenance is
/// append-only.
///
/// Streams need not be appended round-robin (`0, 1, …, M−1, 0, 1, …`).
/// Without a lag, a feed in which no stream runs `W` or more values ahead
/// of another reports and verifies exactly the pairs of the round-robin
/// feed. A stream that runs a whole round ahead of a partner loses that
/// round's pairs with it: the partner's next feature clears the table. In
/// lagged mode ([`Self::with_lag_periods`] > 1) a partner's window that
/// has already left its history is reported unverified (`correlation:
/// None`).
pub struct CorrelationMonitor {
    summaries: Vec<StreamSummary>,
    /// The live features, banded on the first coefficient with a band
    /// width of at least the radius. It is both the range index and —
    /// read back in `(time, stream)` order — the snapshot's entry log.
    table: PointTable<(StreamId, Time)>,
    round: Option<Time>,
    /// How many feature periods back a lagged partner may be (1 =
    /// synchronized only).
    lag_periods: usize,
    /// Per-stream sliding-window block sketches, maintained on every
    /// append. A sharded deployment ships these to its collector so
    /// cross-shard pairs can be pruned by the sketch distance bound
    /// (see [`crate::sketch`]); single-process use pays only the two
    /// accumulator adds per value.
    sketches: Vec<BlockSketch>,
    radius: f64,
    level: usize,
    window: usize,
    f: usize,
    verify: bool,
    stats: CorrelationStats,
    telemetry: crate::telemetry::ClassTelemetry,
    scratch: Scratch,
}

/// Narrowest band of the feature table. z-normed features lie in the
/// unit ball, so this bounds the table at 2·64 + 1 bands however small
/// the radius.
const MIN_BAND_WIDTH: f64 = 1.0 / 64.0;

/// Buffers reused from feature to feature; derived state, never
/// serialized.
#[derive(Default)]
struct Scratch {
    /// Ordered DWT of the current approximation vector.
    dwt: Vec<f64>,
    /// The current feature.
    coords: Vec<f64>,
    /// Range-query hits `(partner, partner time, feature distance)`.
    reported: Vec<(StreamId, Time, f64)>,
    /// One slot per stream, see [`ZWindow`].
    znormed: Vec<ZWindow>,
}

impl Scratch {
    fn for_streams(n_streams: usize) -> Self {
        Scratch {
            znormed: (0..n_streams).map(|_| ZWindow::default()).collect(),
            ..Scratch::default()
        }
    }
}

/// A stream's z-normalized raw window, kept after its first verification:
/// in a synchronized round every later stream that reports this one
/// compares against the same window, so it is normalized once per round
/// instead of once per candidate pair. It is also filled just before the
/// stream pushes past a feature time that a partner has yet to reach,
/// because the stream's later pushes evict that window from its history.
#[derive(Default)]
struct ZWindow {
    /// End time of the cached window.
    end: Option<Time>,
    /// Empty when the window has zero variance (z-norm undefined).
    z: Vec<f64>,
}

impl ZWindow {
    /// Makes the slot hold `summary`'s window of `len` values ending at
    /// `end`; `false` (and an empty slot) if the history no longer holds
    /// that window.
    fn fill(&mut self, summary: &StreamSummary, end: Time, len: usize) -> bool {
        if self.end == Some(end) {
            return true;
        }
        if !summary.history().copy_window(end, len, &mut self.z) {
            self.end = None;
            return false;
        }
        if !normalize::z_norm_in_place(&mut self.z) {
            self.z.clear();
        }
        self.end = Some(end);
        true
    }
}

/// If stream `s` stands at a feature time that some stream has not
/// reached yet, z-normalizes the window of `len` values ending there into
/// `s`'s slot before `s` pushes on: the laggard's query at that time may
/// report `s`, and a synchronized monitor's history holds one value more
/// than the window. A round-robin feed never gets here with a laggard.
fn keep_feature_window(summaries: &[StreamSummary], slot: &mut ZWindow, s: usize, len: usize) {
    let Some(t) = summaries[s].now() else { return };
    let period = summaries[s].config().base_window as u64;
    if !(t + 1).is_multiple_of(period)
        || t + 1 < len as u64
        || summaries.iter().all(|other| other.now().is_some_and(|now| now >= t))
    {
        return;
    }
    slot.fill(&summaries[s], t, len);
}

// Compact by hand: summaries and the feature table carry full state.
impl std::fmt::Debug for CorrelationMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorrelationMonitor")
            .field("n_streams", &self.summaries.len())
            .field("window", &self.window)
            .field("f", &self.f)
            .field("radius", &self.radius)
            .field("lag_periods", &self.lag_periods)
            .field("verify", &self.verify)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl CorrelationMonitor {
    /// A monitor detecting correlations over windows of size
    /// `N = W·2^(levels−1)` with z-norm distance threshold `r` (equivalent
    /// correlation threshold `1 − r²/2`). Inline verification is enabled
    /// by default.
    ///
    /// # Panics
    /// Panics with [`Self::try_new`]'s message on invalid parameters.
    pub fn new(base_window: usize, levels: usize, f: usize, radius: f64, n_streams: usize) -> Self {
        Self::try_new(base_window, levels, f, radius, n_streams).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`] without the panic.
    ///
    /// # Errors
    /// A non-finite or negative radius, zero streams, `f = 0`, an `f`
    /// whose approximation pyramid exceeds `W`, an invalid summarizer
    /// configuration (see [`Config::check`]), or histories that cannot
    /// be allocated.
    pub fn try_new(
        base_window: usize,
        levels: usize,
        f: usize,
        radius: f64,
        n_streams: usize,
    ) -> Result<Self, SpecError> {
        let config = Self::summary_config(base_window, levels, f, radius, n_streams, 1)?;
        let summaries = Self::fresh_summaries(&config, n_streams)?;
        Ok(Self::assemble(summaries, f, radius, 1))
    }

    /// Checks a monitor's parameters and returns the configuration of
    /// its summaries. [`Self::try_new`], [`Self::try_with_lag_periods`] and
    /// [`Self::restore`] all go through here.
    fn summary_config(
        base_window: usize,
        levels: usize,
        f: usize,
        radius: f64,
        n_streams: usize,
        lag_periods: usize,
    ) -> Result<Config, SpecError> {
        ensure(radius.is_finite() && radius >= 0.0, || {
            "radius must be finite and nonnegative".into()
        })?;
        // A single-stream monitor reports no pairs locally but still
        // maintains its summary and sketch — a sharded deployment needs
        // exactly that from one-stream shards to serve cross-shard
        // verification.
        ensure(n_streams >= 1, || "correlation needs at least one stream".into())?;
        ensure(f >= 1, || "correlation needs at least one feature coefficient".into())?;
        ensure(lag_periods >= 1, || "need at least one period".into())?;
        // The maintained approximation vector must be long enough to carry
        // the leading coefficient plus f details.
        let pyramid =
            f.checked_add(1).and_then(usize::checked_next_power_of_two).unwrap_or(usize::MAX);
        ensure(pyramid <= base_window, || {
            format!("f = {f} needs an approximation pyramid of {pyramid} ≤ W = {base_window}")
        })?;
        let config = Config::batch(base_window, levels, pyramid, 1.0);
        config.check()?;
        // Verifying a lagged pair needs the partner's full window, which
        // ends up to `lag_periods − 1` update periods in the past.
        let history = (lag_periods - 1)
            .checked_mul(base_window)
            .and_then(|n| n.checked_add(config.max_window()))
            .ok_or_else(|| SpecError::Invalid("lag horizon overflows".into()))?;
        Ok(config.with_history(history))
    }

    /// One empty summary per stream, each with its history reserved.
    fn fresh_summaries(config: &Config, n_streams: usize) -> Result<Vec<StreamSummary>, SpecError> {
        (0..n_streams).map(|_| StreamSummary::try_new(config.clone())).collect()
    }

    /// Puts a monitor together over checked summaries.
    fn assemble(summaries: Vec<StreamSummary>, f: usize, radius: f64, lag_periods: usize) -> Self {
        let config = summaries[0].config();
        let (base_window, level) = (config.base_window, config.levels - 1);
        let window = config.max_window();
        let n_streams = summaries.len();
        CorrelationMonitor {
            summaries,
            table: PointTable::new(f, radius.max(MIN_BAND_WIDTH)),
            round: None,
            lag_periods,
            sketches: (0..n_streams).map(|_| BlockSketch::new(window, base_window)).collect(),
            radius,
            level,
            window,
            f,
            verify: true,
            stats: CorrelationStats::default(),
            telemetry: crate::telemetry::ClassTelemetry::default(),
            scratch: Scratch::for_streams(n_streams),
        }
    }

    /// Attaches metric handles from `registry` (class `correlation`):
    /// per-append latency, probe/report/confirmation counters and
    /// summarizer lifecycle counters. Telemetry is runtime state —
    /// snapshots never carry it, so call this again after
    /// [`Self::restore`].
    pub fn attach_telemetry(&mut self, registry: &stardust_telemetry::Registry) {
        self.telemetry = crate::telemetry::ClassTelemetry::new(registry, "correlation");
        let summarizer = crate::telemetry::SummarizerTelemetry::new(registry);
        for summary in &mut self.summaries {
            summary.set_telemetry(summarizer.clone());
        }
    }

    /// Enables or disables inline raw-window verification (disable for
    /// timing runs; reported pairs then carry `correlation: None`).
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Also reports **lagged** correlations: partners whose feature is up
    /// to `periods − 1` update periods (of `W` ticks each) in the past —
    /// the "lag time" dimension of StatStream that §3 mentions. `1`
    /// (default) reports synchronized pairs only.
    ///
    /// # Panics
    /// Panics with [`Self::try_with_lag_periods`]'s message, or if the
    /// monitor has already consumed values (the raw-history size depends
    /// on the lag horizon).
    pub fn with_lag_periods(self, periods: usize) -> Self {
        self.try_with_lag_periods(periods).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::with_lag_periods`] without the panic on invalid input.
    ///
    /// # Errors
    /// `periods` is zero, the lag horizon `(periods − 1)·W + N` overflows,
    /// or the histories it needs cannot be allocated.
    ///
    /// # Panics
    /// Panics if the monitor has already consumed values.
    pub fn try_with_lag_periods(mut self, periods: usize) -> Result<Self, SpecError> {
        assert!(self.summaries[0].now().is_none(), "configure the lag before feeding values");
        let base = self.summaries[0].config();
        let config = Self::summary_config(
            base.base_window,
            base.levels,
            self.f,
            self.radius,
            self.summaries.len(),
            periods,
        )?;
        self.summaries = Self::fresh_summaries(&config, self.summaries.len())?;
        self.lag_periods = periods;
        Ok(self)
    }

    /// Number of monitored streams.
    pub fn n_streams(&self) -> usize {
        self.summaries.len()
    }

    /// The sliding-window sketch of one stream.
    pub fn sketch(&self, stream: StreamId) -> &BlockSketch {
        &self.sketches[stream as usize]
    }

    /// The correlation window size `N`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Cumulative reported/true-pair counters.
    pub fn stats(&self) -> CorrelationStats {
        self.stats
    }

    /// The summary of one stream.
    pub fn summary(&self, stream: StreamId) -> &StreamSummary {
        &self.summaries[stream as usize]
    }

    /// Serializes the monitor: stream summaries, parameters, counters,
    /// and the live feature-table entries in `(time, stream)` order —
    /// the order round-robin appends produce them in. [`Self::restore`]
    /// pushes them back; the bands may then hold their entries in a
    /// different order than the live table's, but reported pairs are
    /// bit-identical: a range query returns the same entry set, and
    /// reports are canonically ordered by (partner stream, partner time)
    /// before verification.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.summaries.len());
        for s in &self.summaries {
            w.blob(&s.snapshot());
        }
        w.usize(self.f);
        w.f64(self.radius);
        w.usize(self.lag_periods);
        w.u8(self.verify as u8);
        match self.round {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.u64(t);
            }
        }
        w.u64(self.stats.reported);
        w.u64(self.stats.true_pairs);
        let mut log: Vec<(&[f64], StreamId, Time)> =
            self.table.iter().map(|(coords, &(stream, t))| (coords, stream, t)).collect();
        log.sort_unstable_by_key(|&(_, stream, t)| (t, stream));
        w.usize(log.len());
        for (coords, stream, t) in log {
            w.f64_slice(coords);
            w.u64(stream as u64);
            w.u64(t);
        }
        // The sketch block, always W.
        w.usize(self.summaries[0].config().base_window);
        for sketch in &self.sketches {
            sketch.write_into(&mut w);
        }
        // Windows kept for a partner that has yet to report them. Only a
        // skewed feed leaves one, so a round-robin feed's snapshot ends
        // above.
        let kept: Vec<(usize, Time)> = (0..self.summaries.len())
            .filter_map(|s| self.kept_window(s).map(|end| (s, end)))
            .collect();
        if !kept.is_empty() {
            w.usize(kept.len());
            for (s, end) in kept {
                w.u64(s as u64);
                w.u64(end);
                w.f64_slice(&self.scratch.znormed[s].z);
            }
        }
        w.finish()
    }

    /// The end of stream `s`'s z-window when a snapshot must carry it:
    /// `s` has pushed past it (so its history is losing the window),
    /// some stream has not reached it yet, and the feature taken there
    /// is still indexed for that stream to report.
    fn kept_window(&self, s: usize) -> Option<Time> {
        let end = self.scratch.znormed[s].end?;
        (self.summaries[s].now().is_some_and(|now| now > end)
            && self.summaries.iter().any(|other| other.now().is_none_or(|now| now < end))
            && self.table.iter().any(|(_, &key)| key == (s as StreamId, end)))
        .then_some(end)
    }

    /// Rebuilds a monitor from [`Self::snapshot`] bytes.
    ///
    /// # Errors
    /// [`SnapshotError`] on a truncated, corrupt, or inconsistent buffer.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes)?;
        let n_streams = r.count(16)?;
        let mut summaries = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            summaries.push(StreamSummary::restore(r.blob()?)?);
        }
        let (f, radius, lag_periods) = (r.usize()?, r.f64()?, r.usize()?);
        let params_err =
            SnapshotError::Corrupt("correlation parameters disagree with the summaries");
        let config = summaries.first().ok_or(params_err.clone())?.config();
        let config = Self::summary_config(
            config.base_window,
            config.levels,
            f,
            radius,
            n_streams,
            lag_periods,
        )
        .map_err(|_| params_err.clone())?;
        if summaries.iter().any(|s| *s.config() != config) {
            return Err(params_err);
        }
        let mut monitor = Self::assemble(summaries, f, radius, lag_periods);
        monitor.verify = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Corrupt("verify tag")),
        };
        monitor.round = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(SnapshotError::Corrupt("round tag")),
        };
        monitor.stats = CorrelationStats { reported: r.u64()?, true_pairs: r.u64()? };
        let (period, window) = (config.base_window as u64, monitor.window);
        let n_entries = r.count(24)?;
        for _ in 0..n_entries {
            let coords = r.f64_vec()?;
            if coords.len() != f {
                return Err(SnapshotError::Corrupt("feature arity"));
            }
            let stream = StreamId::try_from(r.u64()?)
                .map_err(|_| SnapshotError::Corrupt("oversized stream id"))?;
            if stream as usize >= n_streams {
                return Err(SnapshotError::Corrupt("entry stream out of range"));
            }
            let t = r.u64()?;
            // An indexed feature was taken at one of its stream's feature
            // times.
            if monitor.summaries[stream as usize].now().is_none_or(|now| t > now)
                || !(t + 1).is_multiple_of(period)
                || t + 1 < window as u64
            {
                return Err(SnapshotError::Corrupt("entry window outside its stream's history"));
            }
            monitor.table.push(&coords, (stream, t));
        }
        if r.usize()? != config.base_window {
            return Err(SnapshotError::Corrupt("sketch block is not W"));
        }
        for sketch in &mut monitor.sketches {
            *sketch = BlockSketch::read_from(&mut r, window, config.base_window)?;
        }
        if !r.at_end() {
            let kept_err = SnapshotError::Corrupt("kept window no partner can report");
            for _ in 0..r.count(24)? {
                let s = usize::try_from(r.u64()?).map_err(|_| kept_err.clone())?;
                let (end, z) = (r.u64()?, r.f64_vec()?);
                let slot = monitor.scratch.znormed.get_mut(s).ok_or(kept_err.clone())?;
                if slot.end.is_some() || !(z.is_empty() || z.len() == window) {
                    return Err(kept_err);
                }
                *slot = ZWindow { end: Some(end), z };
                if monitor.kept_window(s) != Some(end) {
                    return Err(kept_err);
                }
            }
        }
        r.expect_end()?;
        // A verifying synchronized monitor keeps a window before its
        // stream pushes past it while a partner has yet to report it, so
        // an entry that a partner can report is in its stream's history
        // or kept.
        if monitor.verify && lag_periods == 1 {
            let mut raw = Vec::new();
            let mut lost = |&(s, t): &(StreamId, Time)| {
                let s = s as usize;
                monitor.round == Some(t)
                    && monitor.summaries.iter().any(|o| o.now().is_none_or(|now| now < t))
                    && monitor.scratch.znormed[s].end != Some(t)
                    && !monitor.summaries[s].history().copy_window(t, window, &mut raw)
            };
            if monitor.table.iter().any(|(_, key)| lost(key)) {
                return Err(SnapshotError::Corrupt("entry window outside its stream's history"));
            }
        }
        Ok(monitor)
    }

    /// Appends one value to one stream; returns the pairs reported by this
    /// arrival.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) -> Vec<CorrelatedPair> {
        let span = self.telemetry.latency_span();
        let s = stream as usize;
        if self.verify {
            keep_feature_window(&self.summaries, &mut self.scratch.znormed[s], s, self.window);
        }
        self.summaries[s].push_quiet(value);
        // The sketch sees every value, before any early return — its
        // clock must stay in lockstep with the summary's.
        self.sketches[s].push(value);
        let t = self.summaries[s].now().expect("just pushed");
        // Fast path: no level-J feature due at this time step.
        if !(t + 1).is_multiple_of(self.summaries[s].config().base_window as u64)
            || t + 1 < self.window as u64
        {
            return Vec::new();
        }
        let Some(mbr) = self.summaries[s].mbr_at(self.level, t) else {
            return Vec::new();
        };
        // Analytic z-normalization of the degenerate (c = 1) feature: the
        // detail coefficients are mean-invariant, so transforming the
        // maintained approximation vector and scaling by the centered
        // energy gives the z-normed window's ordered coefficients 1..=f.
        let w = self.window as f64;
        let mean = mbr.sum.0 / w;
        let energy = (mbr.sumsq.0 - w * mean * mean).max(0.0);
        let period = self.summaries[s].config().base_window as u64;
        let horizon = t.saturating_sub(self.lag_periods as u64 * period);
        if self.lag_periods == 1 {
            // Synchronized-only: the previous round's features are stale
            // and would be filtered anyway, so empty the table at each
            // round boundary (append-only maintenance).
            if self.round != Some(t) {
                self.round = Some(t);
                self.table.clear();
            }
        } else {
            // Lagged mode: retire this stream's entries that fell out of
            // the lag horizon (other streams retire on their own turns;
            // the query filters any stragglers by time).
            self.table.retain(|&(other, ot)| other != stream || ot > horizon);
        }
        if energy <= f64::EPSILON {
            // z-norm undefined for (near-)constant windows; the stream
            // simply has no current feature.
            return Vec::new();
        }
        let scale = 1.0 / energy.sqrt();
        let Scratch { dwt, coords, reported, znormed } = &mut self.scratch;
        haar::dwt_into(mbr.bounds.lo(), dwt);
        coords.clear();
        coords.extend(dwt[1..=self.f].iter().map(|c| c * scale));

        // Range query before adding ourselves; partners from other
        // streams within the lag horizon are reports.
        self.telemetry.checks.inc();
        reported.clear();
        self.table.scan_within(coords, self.radius, |&(other, ot), feature_distance| {
            if other != stream && ot > horizon {
                reported.push((other, ot, feature_distance));
            }
        });
        // Canonical report order: scan order depends on how the bands
        // were filled (live appends vs a restored log), so sort by the
        // integer keys to keep emitted pairs bit-identical across both.
        reported.sort_unstable_by_key(|&(other, ot, _)| (other, ot));
        self.table.push(coords, (stream, t));

        let mut pairs = Vec::with_capacity(reported.len());
        for &(other, time_other, feature_distance) in reported.iter() {
            self.stats.reported += 1;
            self.telemetry.candidates.inc();
            let correlation = if self.verify {
                let o = other as usize;
                let filled = znormed[s].fill(&self.summaries[s], t, self.window)
                    && znormed[o].fill(&self.summaries[o], time_other, self.window);
                let (za, zb) = (&znormed[s].z, &znormed[o].z);
                let corr = (filled && !za.is_empty() && !zb.is_empty())
                    .then(|| normalize::correlation_of_znormed(za, zb));
                if corr.is_some_and(|c| normalize::correlation_to_distance(c) <= self.radius) {
                    self.stats.true_pairs += 1;
                    self.telemetry.confirmed.inc();
                }
                corr
            } else {
                None
            };
            pairs.push(CorrelatedPair {
                a: stream,
                b: other,
                time: t,
                time_other,
                feature_distance,
                correlation,
            });
        }
        drop(span);
        pairs
    }

    /// Brute-force ground truth: all pairs correlated within the threshold
    /// over the windows ending at time `t` (for tests and precision
    /// baselines).
    pub fn linear_scan_pairs(&self, t: Time) -> Vec<(StreamId, StreamId, f64)> {
        let mut out = Vec::new();
        // z-normalize each window once and evaluate all O(n²) pairs on the
        // normalized vectors — `z_norm` is deterministic, so the per-pair
        // correlations are bit-identical to `normalize::correlation` on the
        // raw windows, at a third of the arithmetic.
        let znormed: Vec<Option<Vec<f64>>> = self
            .summaries
            .iter()
            .map(|s| s.history().window(t, self.window).and_then(|w| normalize::z_norm(&w)))
            .collect();
        for a in 0..self.summaries.len() {
            for b in a + 1..self.summaries.len() {
                let (Some(za), Some(zb)) = (&znormed[a], &znormed[b]) else { continue };
                let corr = normalize::correlation_of_znormed(za, zb);
                if normalize::correlation_to_distance(corr) <= self.radius {
                    out.push((a as StreamId, b as StreamId, corr));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Streams 0 and 1 follow (almost) the same walk, stream 2 an
    /// independent one.
    fn feed(mon: &mut CorrelationMonitor, n: usize) -> Vec<Vec<CorrelatedPair>> {
        let mut s1 = 42u64;
        let mut s2 = 4242u64;
        let (mut a, mut c) = (50.0f64, 50.0f64);
        let mut reports = Vec::new();
        for i in 0..n {
            a += rng(&mut s1) - 0.5;
            c += rng(&mut s2) - 0.5;
            let b = a + 0.01 * ((i % 7) as f64 - 3.0);
            let mut batch = Vec::new();
            batch.extend(mon.append(0, a));
            batch.extend(mon.append(1, b));
            batch.extend(mon.append(2, c));
            reports.push(batch);
        }
        reports
    }

    #[test]
    fn restore_rejects_an_entry_a_partner_cannot_verify() {
        let mut mon = CorrelationMonitor::new(4, 2, 2, 0.8, 3);
        feed(&mut mon, 43);
        assert!(CorrelationMonitor::restore(&mon.snapshot()).is_ok());
        let entries: Vec<(Vec<f64>, (StreamId, Time))> =
            mon.table.iter().map(|(coords, &key)| (coords.to_vec(), key)).collect();
        assert!(!entries.is_empty(), "the feed must index features");
        // Move one entry's time past its stream's history: the next
        // append that reports it would find no window to verify.
        let mut moved = CorrelationMonitor::restore(&mon.snapshot()).unwrap();
        moved.table.clear();
        for (i, (coords, (stream, t))) in entries.iter().enumerate() {
            let t = if i == 0 { t + 4 * mon.summaries[0].config().base_window as Time } else { *t };
            moved.table.push(coords, (*stream, t));
        }
        assert!(CorrelationMonitor::restore(&moved.snapshot()).is_err());
        // A lag horizon the history was not sized for (the lag a
        // corrupted snapshot claims) is rejected the same way.
        let mut lagged = CorrelationMonitor::restore(&mon.snapshot()).unwrap();
        lagged.lag_periods = 3;
        assert!(CorrelationMonitor::restore(&lagged.snapshot()).is_err());
    }

    #[test]
    fn detects_planted_correlation() {
        let mut mon = CorrelationMonitor::new(8, 3, 4, 0.2, 3);
        let reports = feed(&mut mon, 200);
        let verified: Vec<&CorrelatedPair> = reports
            .iter()
            .flatten()
            .filter(|p| p.correlation.is_some_and(|c| normalize::correlation_to_distance(c) <= 0.2))
            .collect();
        assert!(!verified.is_empty(), "correlated pair never confirmed");
        assert!(
            verified.iter().all(|p| (p.a.min(p.b), p.a.max(p.b)) == (0, 1)),
            "only streams 0,1 are truly correlated"
        );
    }

    #[test]
    fn no_false_dismissals_against_ground_truth() {
        // Feature distance lower-bounds true distance, so reported ⊇ truth
        // at every feature-complete step.
        let mut mon = CorrelationMonitor::new(4, 3, 2, 0.5, 3);
        let mut s1 = 42u64;
        let mut s2 = 4242u64;
        let (mut a, mut c) = (50.0f64, 50.0f64);
        for i in 0..160u64 {
            a += rng(&mut s1) - 0.5;
            c += rng(&mut s2) - 0.5;
            let b = a + 0.01 * ((i % 7) as f64 - 3.0);
            let mut batch = Vec::new();
            batch.extend(mon.append(0, a));
            batch.extend(mon.append(1, b));
            batch.extend(mon.append(2, c));
            if (i + 1) % 4 != 0 || (i + 1) < 16 {
                assert!(batch.is_empty(), "no features due at t={i}");
                continue;
            }
            let got: BTreeSet<(StreamId, StreamId)> =
                batch.iter().map(|p| (p.a.min(p.b), p.a.max(p.b))).collect();
            for &(x, y, _) in &mon.linear_scan_pairs(i) {
                assert!(got.contains(&(x, y)), "t={i}: true pair ({x},{y}) dismissed");
            }
            // And feature distances never exceed the radius.
            for p in &batch {
                assert!(p.feature_distance <= 0.5 + 1e-9);
            }
        }
    }

    #[test]
    fn verification_counters_bound_reports() {
        let mut mon = CorrelationMonitor::new(8, 3, 4, 0.3, 3);
        feed(&mut mon, 300);
        let st = mon.stats();
        assert!(st.true_pairs <= st.reported);
        assert!(st.true_pairs > 0);
        assert!(st.precision() > 0.0 && st.precision() <= 1.0);
    }

    #[test]
    fn unverified_mode_reports_without_correlation() {
        let mut mon = CorrelationMonitor::new(8, 3, 4, 0.3, 3).with_verification(false);
        let reports = feed(&mut mon, 300);
        let all: Vec<&CorrelatedPair> = reports.iter().flatten().collect();
        assert!(!all.is_empty());
        assert!(all.iter().all(|p| p.correlation.is_none()));
        assert_eq!(mon.stats().true_pairs, 0);
        assert_eq!(mon.stats().reported, all.len() as u64);
    }

    #[test]
    fn constant_stream_is_skipped() {
        let mut mon = CorrelationMonitor::new(4, 2, 2, 1.0, 2);
        for i in 0..64 {
            let _ = mon.append(0, 5.0); // constant: z-norm undefined
            let _ = mon.append(1, (i as f64 * 0.3).sin());
        }
        // No panic, no pairs involving the constant stream.
        assert_eq!(mon.stats().reported, 0);
    }

    #[test]
    fn higher_f_yields_fewer_or_equal_reports() {
        // More coefficients = tighter filter (Fig. 6 mechanism).
        let mut counts = Vec::new();
        for f in [2usize, 7] {
            let mut mon = CorrelationMonitor::new(8, 3, f, 0.8, 3);
            feed(&mut mon, 400);
            counts.push(mon.stats().reported);
        }
        assert!(counts[1] <= counts[0], "f=8 reported {} > f=2 reported {}", counts[1], counts[0]);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn needs_one_stream() {
        let _ = CorrelationMonitor::new(8, 2, 2, 0.1, 0);
    }

    /// A single-stream monitor reports no pairs but keeps its summary
    /// and sketch live — what one-stream shards contribute to the
    /// cross-shard path.
    #[test]
    fn single_stream_monitor_serves_sketch_and_windows() {
        let mut mon = CorrelationMonitor::new(4, 2, 2, 0.5, 1);
        for i in 0..16u64 {
            assert!(mon.append(0, (i as f64 * 0.7).sin()).is_empty());
        }
        assert_eq!(mon.stats().reported, 0);
        assert!(mon.sketch(0).is_complete());
        assert_eq!(mon.sketch(0).end_time(), Some(15));
        assert!(mon.summary(0).history().window(15, mon.window()).is_some());
    }

    /// The sketch clock tracks the stream clock exactly, and its block
    /// (always W) aligns with feature times.
    #[test]
    fn sketches_stay_synchronized_with_summaries() {
        let mut mon = CorrelationMonitor::new(4, 2, 2, 0.5, 2);
        let mut seed = 5u64;
        for _ in 0..100 {
            for s in 0..2 {
                let _ = mon.append(s, rng(&mut seed) * 9.0);
            }
        }
        for s in 0..2u32 {
            let now = mon.summary(s).now().expect("fed");
            assert_eq!(mon.sketch(s).end_time(), Some(now - (now + 1) % 4));
        }
        let lb = mon.sketch(0).distance_lower_bound(mon.sketch(1));
        assert!(lb.is_some(), "aligned complete sketches must produce a bound");
    }

    /// Stream 1 replays stream 0 with a delay of exactly 2 update periods;
    /// lagged mode must find the pair, synchronized mode must not.
    #[test]
    fn lagged_replay_is_detected() {
        let delay = 16usize; // 2 periods of W = 8
        let make = |lag: usize| {
            let mut mon = CorrelationMonitor::new(8, 3, 4, 0.3, 2).with_verification(true);
            if lag > 1 {
                mon = mon.with_lag_periods(lag);
            }
            let mut s1 = 7u64;
            let mut a = 50.0f64;
            let mut walk = Vec::new();
            let mut lagged_hits = 0usize;
            for i in 0..400usize {
                a += rng(&mut s1) - 0.5;
                walk.push(a);
                let b = if i >= delay { walk[i - delay] } else { 50.0 };
                mon.append(0, a);
                for p in mon.append(1, b) {
                    if p.time != p.time_other {
                        lagged_hits += 1;
                        // The verified correlation over the shifted windows
                        // must be near-perfect when the lag matches.
                        if p.b == 0 && p.time - p.time_other == delay as u64 {
                            assert!(p.correlation.unwrap_or(0.0) > 0.999);
                        }
                    }
                }
            }
            lagged_hits
        };
        assert_eq!(make(1), 0, "synchronized mode must not report lagged pairs");
        assert!(make(4) > 0, "lagged mode must find the delayed replay");
    }

    /// Lagged pairs respect the horizon: time_other is never more than
    /// lag_periods·W in the past.
    #[test]
    fn lag_horizon_is_enforced() {
        let mut mon =
            CorrelationMonitor::new(4, 2, 2, 2.0, 2).with_verification(false).with_lag_periods(3);
        let mut s1 = 3u64;
        let mut s2 = 33u64;
        let (mut a, mut b) = (10.0f64, 20.0f64);
        for _ in 0..200 {
            a += rng(&mut s1) - 0.5;
            b += rng(&mut s2) - 0.5;
            for p in mon.append(0, a).into_iter().chain(mon.append(1, b)) {
                assert!(p.time - p.time_other < 3 * 4, "{p:?}");
            }
        }
    }

    /// Value `i` of stream `s`: streams 0 and 1 nearly equal, the rest
    /// independent.
    fn value(s: StreamId, i: usize) -> f64 {
        let x = i as f64;
        match s {
            0 | 1 => (x * 0.37).sin() * 5.0 + x * 0.1 + 0.01 * f64::from(s) * (i % 5) as f64,
            _ => (x * 0.91 * f64::from(s)).cos() * 3.0 - x * 0.05,
        }
    }

    /// Appends each stream's next value in `order`; returns the reports
    /// sorted, each as `(min, max, time, time_other, distance bits,
    /// correlation bits)`, a key that does not depend on which stream
    /// of a pair came later.
    fn feed_order(mon: &mut CorrelationMonitor, order: &[StreamId]) -> Vec<[u64; 6]> {
        let mut next = vec![0; mon.n_streams()];
        let mut keys = Vec::new();
        for &s in order {
            next[s as usize] += 1;
            for p in mon.append(s, value(s, next[s as usize] - 1)) {
                let (a, b) = (p.a.min(p.b).into(), p.a.max(p.b).into());
                let corr = p.correlation.map_or(u64::MAX, f64::to_bits);
                keys.push([a, b, p.time, p.time_other, p.feature_distance.to_bits(), corr]);
            }
        }
        keys.sort_unstable();
        keys
    }

    fn round_robin(n_streams: StreamId, n: usize) -> Vec<StreamId> {
        (0..n).flat_map(|_| 0..n_streams).collect()
    }

    /// Stream 1's feature query at 19 reports stream 0's entry at 19
    /// after stream 0 has pushed on to 21, past the history that held
    /// that window. It is verified from the window kept before the push.
    #[test]
    fn partner_two_values_ahead_is_verified() {
        let order: Vec<StreamId> = [(0, 17), (1, 16), (0, 5), (1, 4)]
            .into_iter()
            .flat_map(|(s, n)| std::iter::repeat_n(s, n))
            .collect();
        let keys = feed_order(&mut CorrelationMonitor::new(4, 2, 2, 2.0, 2), &order);
        let expected =
            feed_order(&mut CorrelationMonitor::new(4, 2, 2, 2.0, 2), &round_robin(2, 22));
        // Stream 0 ran whole rounds ahead before time 16, so only the
        // pair at 19 survives; it must be the round-robin feed's pair.
        let at_19: Vec<_> = expected.into_iter().filter(|k| k[2] == 19).collect();
        assert!(at_19.len() == 1 && at_19[0][5] != u64::MAX, "{at_19:?}");
        assert_eq!(keys, at_19);
    }

    /// Appends each stream's next value (per `next`) in `order`; returns
    /// every report as `(a, b, time, time_other, distance bits,
    /// correlation bits)`, in emission order.
    fn feed_from(
        mon: &mut CorrelationMonitor,
        next: &mut [usize],
        order: &[StreamId],
    ) -> Vec<[u64; 6]> {
        let mut keys = Vec::new();
        for &s in order {
            next[s as usize] += 1;
            for p in mon.append(s, value(s, next[s as usize] - 1)) {
                let corr = p.correlation.map_or(u64::MAX, f64::to_bits);
                let fd = p.feature_distance.to_bits();
                keys.push([p.a.into(), p.b.into(), p.time, p.time_other, fd, corr]);
            }
        }
        keys
    }

    fn runs(runs: &[(StreamId, usize)]) -> Vec<StreamId> {
        runs.iter().flat_map(|&(s, n)| std::iter::repeat_n(s, n)).collect()
    }

    /// Stream 0 has pushed past its feature at 19 and its history has
    /// dropped that window, but stream 1 has yet to report it: the
    /// snapshot carries the window kept before the push, and the
    /// restored monitor continues exactly like the live one.
    #[test]
    fn a_window_kept_for_a_partner_survives_restore() {
        let mut live = CorrelationMonitor::new(4, 2, 2, 2.0, 2);
        let mut next = [0; 2];
        feed_from(&mut live, &mut next, &runs(&[(0, 17), (1, 16), (0, 5), (1, 2)]));
        let mut revived =
            CorrelationMonitor::restore(&live.snapshot()).expect("a live state restores");
        assert_eq!(revived.snapshot(), live.snapshot());
        let tail = runs(&[(1, 2), (0, 3), (1, 9), (0, 12), (1, 4)]);
        let (mut next_live, mut next_revived) = (next, next);
        let reported = feed_from(&mut live, &mut next_live, &tail);
        assert_eq!(feed_from(&mut revived, &mut next_revived, &tail), reported);
        assert_eq!(revived.snapshot(), live.snapshot());
        // Stream 1's next two appends verify stream 0's window at 19.
        let first = reported[0];
        assert_eq!(first[..4], [1, 0, 19, 19]);
        assert_ne!(first[5], u64::MAX, "the pair at 19 must be verified");
    }

    /// Skewed feeds (a stream up to two rounds ahead), synchronized and
    /// lagged: a snapshot taken after any append restores, and the
    /// restored monitor reports what the live one does, to the bit.
    #[test]
    fn skewed_feeds_restore_at_any_point() {
        for (lag, mut seed) in [(1, 3u64), (1, 4), (2, 5), (3, 6)] {
            let mut order = Vec::new();
            let mut next = [0usize; 3];
            while order.len() < 120 {
                let s = (rng(&mut seed) * 3.0) as usize;
                if next[s] - next.iter().min().expect("three streams") < 8 {
                    next[s] += 1;
                    order.push(s as StreamId);
                }
            }
            for cut in 0..order.len() {
                let mut live = CorrelationMonitor::new(4, 2, 2, 1.5, 3).with_lag_periods(lag);
                let mut next = [0; 3];
                feed_from(&mut live, &mut next, &order[..cut]);
                let mut revived = CorrelationMonitor::restore(&live.snapshot())
                    .unwrap_or_else(|e| panic!("lag {lag}, cut {cut}: {e}"));
                let mut next_revived = next;
                assert_eq!(
                    feed_from(&mut revived, &mut next_revived, &order[cut..]),
                    feed_from(&mut live, &mut next, &order[cut..]),
                    "lag {lag}, cut {cut}"
                );
                assert_eq!(revived.snapshot(), live.snapshot(), "lag {lag}, cut {cut}");
            }
        }
    }

    /// A feed in which no two streams are more than W − 1 values apart
    /// reports the round-robin feed's pairs, correlations to the bit.
    #[test]
    fn skew_below_one_round_matches_round_robin() {
        const W: usize = 8;
        const N: usize = 400;
        let mut seed = 77u64;
        let mut next = [0usize; 3];
        let mut order = Vec::new();
        let mut widest = 0;
        while next.iter().any(|&n| n < N) {
            let low = *next.iter().min().expect("three streams");
            let open: Vec<usize> =
                (0..3).filter(|&s| next[s] < N && next[s] + 1 - low < W).collect();
            let s = open[(rng(&mut seed) * open.len() as f64) as usize];
            next[s] += 1;
            order.push(s as StreamId);
            widest = widest.max(next[s] - next.iter().min().expect("three streams"));
        }
        assert_eq!(widest, W - 1, "the feed must reach the widest allowed skew");
        let keys = feed_order(&mut CorrelationMonitor::new(W, 3, 4, 0.5, 3), &order);
        let expected =
            feed_order(&mut CorrelationMonitor::new(W, 3, 4, 0.5, 3), &round_robin(3, N));
        assert!(expected.iter().filter(|k| k[5] != u64::MAX).count() > 10, "{expected:?}");
        assert_eq!(keys, expected);
    }

    /// In lagged mode a partner's entry can outlive its window in the
    /// history: stream 0's history holds 13 values, so at 26 it has lost
    /// the window ending at 19, whose entry lives until 27. The report
    /// then carries no correlation.
    #[test]
    fn lagged_partner_past_its_history_is_reported_unverified() {
        let mut mon = CorrelationMonitor::new(4, 2, 2, 2.0, 2).with_lag_periods(2);
        let order: Vec<StreamId> = [0; 27].into_iter().chain([1; 20]).collect();
        let keys = feed_order(&mut mon, &order);
        assert!(keys.iter().any(|k| k[3] == 19 && k[5] == u64::MAX), "{keys:?}");
        assert!(keys.iter().any(|k| k[5] != u64::MAX), "{keys:?}");
    }
}
