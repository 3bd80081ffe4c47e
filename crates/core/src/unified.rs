//! The "single body" of the paper's vision (§1): one monitor, one
//! per-arrival call, all three query classes.
//!
//! "We envision that all these queries are interconnected in a monitoring
//! infrastructure. […] a general scheme that accommodates all these tasks
//! in a single body has not been addressed. We try to fill this gap by
//! proposing a unified system solution called 'Stardust'."
//!
//! [`UnifiedMonitor`] composes the three monitors behind one description,
//! [`crate::spec::MonitorSpec`], and one [`UnifiedMonitor::append`],
//! multiplexing their reports into a single [`Event`] stream — the exact
//! shape of the paper's motivating story ("an unusual volatility of a time series may trigger an in-depth
//! trend analysis"): aggregate alarms, trend matches, and correlation
//! reports arrive interleaved, in arrival order, tagged by class.
//!
//! Each query class keeps its own summarizer per stream (they need
//! different transforms and update rates — SUM/SPREAD online for
//! aggregates, DWT online for trends, DWT batch for correlations — exactly
//! as §4 prescribes), so enabling only some classes costs only their
//! share.

use crate::error::{ensure, QueryError, SpecError};
use crate::query::aggregate::{AggregateMonitor, Alarm, WindowSpec};
use crate::query::correlation::{CorrelatedPair, CorrelationMonitor};
use crate::query::trend::{PatternId, TrendMatch, TrendMonitor};
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::stream::StreamId;

/// One report from the unified monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An aggregate (burst/volatility) alarm on one stream.
    Aggregate {
        /// The alarming stream.
        stream: StreamId,
        /// The alarm details (window, bound, verification).
        alarm: Alarm,
    },
    /// A stream currently matches a registered trend.
    Trend(TrendMatch),
    /// Two streams are (approximately) correlated.
    Correlation(CorrelatedPair),
}

/// A single monitor over `M` streams serving every enabled query class.
/// Built by [`crate::spec::MonitorSpec::build`] or rebuilt by
/// [`Self::restore`].
pub struct UnifiedMonitor {
    aggregates: Option<(Vec<AggregateMonitor>, Vec<WindowSpec>)>,
    trends: Option<TrendMonitor>,
    correlations: Option<CorrelationMonitor>,
}

impl std::fmt::Debug for UnifiedMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnifiedMonitor")
            .field("aggregates", &self.aggregates.as_ref().map(|(m, specs)| (m.len(), specs)))
            .field("trends", &self.trends)
            .field("correlations", &self.correlations)
            .finish()
    }
}

impl UnifiedMonitor {
    /// Puts the enabled classes together: at least one, all over the
    /// same streams. [`crate::spec::MonitorSpec::build`] and
    /// [`Self::restore`] both go through here.
    pub(crate) fn assemble(
        aggregates: Option<(Vec<AggregateMonitor>, Vec<WindowSpec>)>,
        trends: Option<TrendMonitor>,
        correlations: Option<CorrelationMonitor>,
    ) -> Result<Self, SpecError> {
        let mut counts = [
            aggregates.as_ref().map(|(m, _)| m.len()),
            trends.as_ref().map(TrendMonitor::n_streams),
            correlations.as_ref().map(CorrelationMonitor::n_streams),
        ]
        .into_iter()
        .flatten();
        let n = counts.next().ok_or(SpecError::NoQueryClass)?;
        ensure(n >= 1 && counts.all(|m| m == n), || {
            "query classes disagree on the stream count".into()
        })?;
        Ok(UnifiedMonitor { aggregates, trends, correlations })
    }

    /// Attaches metric handles from `registry` to every enabled query
    /// class: per-class latency histograms, check/candidate/confirmation
    /// counters, summarizer lifecycle counters, and index structural
    /// counters (see DESIGN.md §Observability for the catalogue).
    ///
    /// Telemetry is runtime state — [`Self::snapshot`] never carries it,
    /// and a monitor rebuilt by [`Self::restore`] is detached until this
    /// is called again (the sharded runtime re-attaches after every
    /// crash recovery).
    pub fn attach_telemetry(&mut self, registry: &stardust_telemetry::Registry) {
        if let Some((monitors, _)) = &mut self.aggregates {
            for m in monitors {
                m.attach_telemetry(registry);
            }
        }
        if let Some(trends) = &mut self.trends {
            trends.attach_telemetry(registry);
        }
        if let Some(corr) = &mut self.correlations {
            corr.attach_telemetry(registry);
        }
    }

    /// Registers a trend pattern (requires `trends` to be enabled).
    ///
    /// # Panics
    /// Panics if trend monitoring is not enabled.
    pub fn register_trend(
        &mut self,
        sequence: Vec<f64>,
        radius: f64,
    ) -> Result<PatternId, QueryError> {
        self.trends.as_mut().expect("trend monitoring not enabled").register(sequence, radius)
    }

    /// Appends one value to one stream; returns every event the arrival
    /// produced, across all enabled query classes. Non-finite values
    /// are rejected as a no-op (see [`Self::append_into`]).
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) -> Vec<Event> {
        let mut events = Vec::new();
        self.append_into(stream, value, &mut events);
        events
    }

    /// Appends one value to one stream, pushing the produced events onto
    /// `out` (which is **not** cleared). The allocation-free form of
    /// [`Self::append`]: batch drains reuse one buffer across a whole
    /// batch instead of allocating a `Vec` per value.
    ///
    /// Non-finite values (NaN, ±∞) are rejected as a no-op: a NaN would
    /// poison window sums and distance computations irreversibly, and a
    /// silent ±∞ turns every downstream interval into `[-∞, ∞]`. The
    /// guard lives here — not only at the ingestion boundary — so a
    /// journaled non-finite sample replays as the same no-op and crash
    /// recovery stays deterministic.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append_into(&mut self, stream: StreamId, value: f64, out: &mut Vec<Event>) {
        if !value.is_finite() {
            return;
        }
        if let Some((monitors, _)) = &mut self.aggregates {
            for alarm in monitors[stream as usize].push(value) {
                out.push(Event::Aggregate { stream, alarm });
            }
        }
        if let Some(trends) = &mut self.trends {
            out.extend(trends.append(stream, value).into_iter().map(Event::Trend));
        }
        if let Some(corr) = &mut self.correlations {
            out.extend(corr.append(stream, value).into_iter().map(Event::Correlation));
        }
    }

    /// Appends a batch of (stream, value) pairs in order; the returned
    /// events are exactly the concatenation of the per-item
    /// [`Self::append`] results.
    ///
    /// # Panics
    /// Panics if any stream id is out of range.
    pub fn append_batch(&mut self, items: &[(StreamId, f64)]) -> Vec<Event> {
        let mut events = Vec::new();
        for &(stream, value) in items {
            self.append_into(stream, value, &mut events);
        }
        events
    }

    /// Serializes the whole monitor — every enabled class, every
    /// stream — into one self-describing byte buffer. Restoring with
    /// [`Self::restore`] and continuing to append yields output
    /// bit-identical to the uninterrupted original for every enabled
    /// class (see [`CorrelationMonitor::snapshot`] for why correlation
    /// reports are rebuild-invariant); the sharded runtime builds its
    /// crash-recovery checkpoints out of exactly this buffer.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.aggregates {
            None => w.u8(0),
            Some((monitors, specs)) => {
                w.u8(1);
                w.usize(specs.len());
                for spec in specs {
                    w.usize(spec.window);
                    w.f64(spec.threshold);
                }
                w.usize(monitors.len());
                for m in monitors {
                    w.blob(&m.snapshot());
                }
            }
        }
        match &self.trends {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.blob(&t.snapshot());
            }
        }
        match &self.correlations {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                w.blob(&c.snapshot());
            }
        }
        w.finish()
    }

    /// Rebuilds a monitor from [`Self::snapshot`] bytes.
    ///
    /// # Errors
    /// [`SnapshotError`] on a truncated, corrupt, or inconsistent buffer.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        fn class_tag(r: &mut Reader<'_>) -> Result<bool, SnapshotError> {
            match r.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(SnapshotError::Corrupt("class tag")),
            }
        }
        let mut r = Reader::new(bytes)?;
        let aggregates = if class_tag(&mut r)? {
            let n_specs = r.count(16)?;
            let mut specs = Vec::with_capacity(n_specs);
            for _ in 0..n_specs {
                specs.push(WindowSpec { window: r.usize()?, threshold: r.f64()? });
            }
            let n_monitors = r.count(16)?;
            let mut monitors = Vec::with_capacity(n_monitors);
            for _ in 0..n_monitors {
                monitors.push(AggregateMonitor::restore(r.blob()?)?);
            }
            Some((monitors, specs))
        } else {
            None
        };
        let trends =
            if class_tag(&mut r)? { Some(TrendMonitor::restore(r.blob()?)?) } else { None };
        let correlations =
            if class_tag(&mut r)? { Some(CorrelationMonitor::restore(r.blob()?)?) } else { None };
        r.expect_end()?;
        Self::assemble(aggregates, trends, correlations)
            .map_err(|_| SnapshotError::Corrupt("query classes disagree on the streams"))
    }

    /// The aggregate monitor of one stream, if enabled.
    pub fn aggregate_monitor(&self, stream: StreamId) -> Option<&AggregateMonitor> {
        self.aggregates.as_ref().map(|(m, _)| &m[stream as usize])
    }

    /// The trend monitor, if enabled.
    pub fn trend_monitor(&self) -> Option<&TrendMonitor> {
        self.trends.as_ref()
    }

    /// The correlation monitor, if enabled.
    pub fn correlation_monitor(&self) -> Option<&CorrelationMonitor> {
        self.correlations.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggregateSpec, CorrelationSpec, MonitorSpec, TrendSpec};
    use crate::transform::TransformKind;

    /// Compile-time guarantee that monitors can be moved into worker
    /// threads (the sharded runtime relies on this). Breaking it — e.g.
    /// by introducing an `Rc` — fails this test at compile time.
    #[test]
    fn monitors_are_send() {
        fn _assert_send<T: Send>() {}
        _assert_send::<UnifiedMonitor>();
        _assert_send::<MonitorSpec>();
        _assert_send::<Event>();
    }

    /// All three classes over base window 8: SUM alarms on `window`
    /// with c = 2, trends with f = c = 4, correlations with f = 4 at
    /// `radius`.
    fn three_classes(levels: usize, window: WindowSpec, radius: f64) -> MonitorSpec {
        MonitorSpec::new(8, levels, 100.0)
            .with_aggregates(AggregateSpec {
                transform: TransformKind::Sum,
                windows: vec![window],
                box_capacity: 2,
            })
            .with_trends(TrendSpec { coeffs: 4, box_capacity: 4, patterns: Vec::new() })
            .with_correlations(CorrelationSpec { coeffs: 4, radius })
    }

    fn build(spec: &MonitorSpec, n_streams: usize) -> UnifiedMonitor {
        spec.build(n_streams).expect("valid spec").expect("streams")
    }

    fn splitmix(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn all_three_classes_fire_from_one_feed() {
        let spec = three_classes(3, WindowSpec { window: 16, threshold: 60.0 }, 0.3);
        let mut unified = build(&spec, 2);
        // A trend: the surge ramp; register before feeding.
        let ramp: Vec<f64> = (0..16).map(|i| 2.0 + i as f64 * 0.5).collect();
        let trend_id = unified.register_trend(ramp.clone(), 0.05).expect("valid");

        let mut seed = 9u64;
        let mut saw_aggregate = false;
        let mut saw_trend = false;
        let mut saw_correlation = false;
        let mut x = 2.0f64;
        for i in 0..400usize {
            // Stream 0: noise, then the ramp surge at i = 300.
            let v0 = if (300..316).contains(&i) {
                ramp[i - 300]
            } else {
                x += (splitmix(&mut seed) - 0.5) * 0.1;
                x.clamp(0.5, 4.0)
            };
            // Stream 1: affine copy of stream 0 => correlated.
            let v1 = 2.0 * v0 + 1.0;
            for ev in unified.append(0, v0).into_iter().chain(unified.append(1, v1)) {
                match ev {
                    Event::Aggregate { alarm, .. } => saw_aggregate |= alarm.is_true_alarm,
                    Event::Trend(m) => saw_trend |= m.pattern == trend_id,
                    Event::Correlation(p) => saw_correlation |= p.correlation.unwrap_or(0.0) > 0.9,
                }
            }
        }
        assert!(saw_trend, "trend event missing");
        assert!(saw_correlation, "correlation event missing");
        assert!(saw_aggregate, "aggregate event missing");
    }

    #[test]
    fn non_finite_samples_are_rejected_as_no_ops() {
        let spec = three_classes(2, WindowSpec { window: 4, threshold: 5.0 }, 0.3);
        let mut poisoned = build(&spec, 2);
        let mut clean = build(&spec, 2);
        for i in 0..64u32 {
            let v = (i as f64 * 0.4).sin() + 2.0;
            // The poisoned feed interleaves every non-finite flavour.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(poisoned.append(i % 2, bad).is_empty(), "non-finite produced events");
            }
            let a = poisoned.append(i % 2, v);
            let b = clean.append(i % 2, v);
            assert_eq!(a.len(), b.len(), "divergence at sample {i}");
        }
        // Rejected samples leave no trace in the serialized state either.
        assert_eq!(poisoned.snapshot(), clean.snapshot());
    }

    #[test]
    fn partial_configuration_only_produces_enabled_classes() {
        let spec = MonitorSpec::new(8, 2, 10.0)
            .with_correlations(CorrelationSpec { coeffs: 2, radius: 0.5 });
        let mut unified = build(&spec, 2);
        assert!(unified.aggregate_monitor(0).is_none());
        assert!(unified.trend_monitor().is_none());
        assert!(unified.correlation_monitor().is_some());
        for i in 0..64 {
            let v = (i as f64 * 0.3).sin();
            for ev in unified.append(0, v).into_iter().chain(unified.append(1, v + 0.1)) {
                assert!(matches!(ev, Event::Correlation(_)));
            }
        }
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let spec = three_classes(3, WindowSpec { window: 16, threshold: 60.0 }, 0.5);
        let mut live = build(&spec, 2);
        let ramp: Vec<f64> = (0..16).map(|i| 2.0 + i as f64 * 0.5).collect();
        live.register_trend(ramp, 0.05).expect("valid");
        let mut seed = 77u64;
        let value = |seed: &mut u64, s: StreamId| {
            let x = splitmix(seed) * 8.0;
            if s == 0 {
                x
            } else {
                2.0 * x + 1.0
            }
        };
        for _ in 0..137 {
            for s in 0..2 {
                let _ = live.append(s, value(&mut seed, s));
            }
        }
        let mut revived = UnifiedMonitor::restore(&live.snapshot()).expect("restores");
        for _ in 0..200 {
            for s in 0..2 {
                let v = value(&mut seed, s);
                assert_eq!(live.append(s, v), revived.append(s, v));
            }
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(UnifiedMonitor::restore(b"not a snapshot").is_err());
        let spec = MonitorSpec::new(8, 2, 10.0)
            .with_correlations(CorrelationSpec { coeffs: 2, radius: 0.5 });
        let m = build(&spec, 2);
        let mut bytes = m.snapshot();
        let n = bytes.len();
        bytes.truncate(n - 3);
        assert!(UnifiedMonitor::restore(&bytes).is_err());
    }

    #[test]
    fn empty_configuration_rejected() {
        let err = MonitorSpec::new(8, 2, 1.0).build(1).unwrap_err();
        assert_eq!(err, SpecError::NoQueryClass);
        assert_eq!(err.to_string(), "enable at least one query class");
    }

    #[test]
    #[should_panic(expected = "trend monitoring not enabled")]
    fn registering_without_trends_panics() {
        let spec = MonitorSpec::new(8, 2, 1.0).with_aggregates(AggregateSpec {
            transform: TransformKind::Sum,
            windows: vec![WindowSpec { window: 8, threshold: 1.0 }],
            box_capacity: 1,
        });
        let mut unified = build(&spec, 1);
        let _ = unified.register_trend(vec![0.0; 8], 0.1);
    }
}
