//! stardust-telemetry — lock-cheap in-process metrics for hot paths.
//!
//! The framework's claim is per-item Θ(f) maintenance; instrumentation
//! must not change that. This crate provides a [`Registry`] handing out
//! three metric handles — [`Counter`], [`Gauge`], [`Histogram`] — whose
//! hot-path operations are a single branch plus one relaxed atomic op.
//! A **disabled** registry hands out *no-op* handles: every operation is
//! one `Option` branch on data the caller already owns, and span timers
//! never call `Instant::now()`. There is no feature gate to misconfigure
//! — enablement is a runtime property of the registry. The `e2e`
//! benchmark's `telemetry.overhead_share` row measures what an attached
//! registry costs end to end.
//!
//! Registration is locked (a `Mutex` around a name→metric map) but
//! happens once per metric at attach time; after that, handles are
//! `Arc`-shared atomics and never touch the lock again. Cloned handles
//! share their cell, so per-stream clones of an instrumented component
//! aggregate into one series.
//!
//! Exposition formats: [`Registry::render_prometheus`] (text format
//! 0.0.4) and [`Registry::render_json`] (schema
//! `stardust-metrics/v1`, stable key order). The [`json`] module holds
//! the std-only JSON parser used by the bench-regression comparator and
//! the CLI golden tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod json;

/// Relaxed ordering everywhere: metrics are monotone statistics, not
/// synchronization edges.
const ORD: Ordering = Ordering::Relaxed;

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
///
/// Cheap to clone (an `Option<Arc<AtomicU64>>`); clones share the cell.
/// The default value is a detached no-op handle, so instrumented
/// structs can hold a `Counter` unconditionally.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached, always-enabled counter not owned by any registry.
    pub fn standalone() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, ORD);
        }
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, ORD);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(ORD))
    }

    /// Whether this handle is backed by a live cell.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached, always-enabled gauge not owned by any registry.
    pub fn standalone() -> Self {
        Gauge(Some(Arc::new(AtomicU64::new(0f64.to_bits()))))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), ORD);
        }
    }

    /// Current value (0.0 when detached).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| f64::from_bits(g.load(ORD)))
    }

    /// Whether this handle is backed by a live cell.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Shared state behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds of the finite buckets, strictly
    /// increasing. One implicit `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` per-bucket counts (last is the overflow
    /// bucket).
    counts: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Saturating sum of observed values — a histogram that has seen
    /// `u64::MAX` worth of nanoseconds reports a pegged sum rather than
    /// a wrapped one.
    sum: AtomicU64,
    /// Smallest observation (`u64::MAX` until the first observe).
    min: AtomicU64,
    /// Largest observation.
    max: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples (by convention,
/// nanoseconds for latency series).
///
/// Observation is a binary search over the bucket bounds plus four
/// relaxed atomic ops; no locks, no allocation. Quantiles are estimated
/// by linear interpolation inside the selected bucket, clamped to the
/// observed min/max, so `p50`/`p95` are exact to within one bucket's
/// resolution (buckets double, so the relative error is bounded by 2×
/// and in practice far less).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

/// A summary of a histogram's state, as read at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// Smallest observation, if any.
    pub min: Option<u64>,
    /// Largest observation, if any.
    pub max: Option<u64>,
    /// Estimated median.
    pub p50: Option<u64>,
    /// Estimated 95th percentile.
    pub p95: Option<u64>,
    /// Estimated 99th percentile.
    pub p99: Option<u64>,
}

impl HistogramSnapshot {
    /// Mean of the observations, if any (saturating sum over count).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// The default latency bucket layout: 27 buckets doubling from 250 ns
/// to ~8.4 s, plus the implicit `+Inf` overflow bucket. Documented in
/// DESIGN.md §Observability.
pub fn duration_buckets_ns() -> Vec<u64> {
    (0..26).map(|i| 250u64 << i).collect()
}

impl Histogram {
    /// A detached, always-enabled histogram not owned by any registry
    /// (used by runtime shard stats, which exist independently of any
    /// registry). `bounds` must be non-empty and strictly increasing.
    pub fn standalone(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must strictly increase");
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Some(Arc::new(HistogramCell {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        })))
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            let idx = h.bounds.partition_point(|&b| b < v);
            h.counts[idx].fetch_add(1, ORD);
            h.count.fetch_add(1, ORD);
            // Saturating accumulation: a pegged sum beats a wrapped one.
            let _ = h.sum.fetch_update(ORD, ORD, |s| Some(s.saturating_add(v)));
            h.min.fetch_min(v, ORD);
            h.max.fetch_max(v, ORD);
        }
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        if self.0.is_some() {
            self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Starts a span; the elapsed time is recorded when the returned
    /// guard drops. On a detached handle this never reads the clock.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, start: self.0.as_ref().map(|_| Instant::now()) }
    }

    /// Like [`Histogram::span`], but only reads the clock when `sample`
    /// is true; otherwise the returned guard is inert. Hot paths use
    /// this to time every Nth operation: two clock reads per recorded
    /// span dominate the cost of instrumentation on sub-microsecond
    /// operations, so sampling keeps the quantile series while making
    /// the common case a single branch.
    #[inline]
    pub fn span_if(&self, sample: bool) -> Span<'_> {
        Span {
            hist: self,
            start: if sample { self.0.as_ref().map(|_| Instant::now()) } else { None },
        }
    }

    /// Whether this handle is backed by a live cell.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Total observations (0 when detached).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(ORD))
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the selected bucket. `None` when empty or detached.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let h = self.0.as_ref()?;
        let total = h.count.load(ORD);
        if total == 0 {
            return None;
        }
        let min = h.min.load(ORD);
        let max = h.max.load(ORD);
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in h.counts.iter().enumerate() {
            let n = c.load(ORD);
            if n == 0 {
                cum += n;
                continue;
            }
            if cum + n >= rank {
                // Interpolate inside bucket i, clamped to observed range.
                let lo = if i == 0 { min } else { h.bounds[i - 1].max(min) };
                let hi = if i < h.bounds.len() { h.bounds[i].min(max) } else { max };
                let hi = hi.max(lo);
                let frac = (rank - cum) as f64 / n as f64;
                return Some(lo + ((hi - lo) as f64 * frac).round() as u64);
            }
            cum += n;
        }
        Some(max)
    }

    /// Reads the histogram's state at one instant.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(h) = self.0.as_ref() else {
            return HistogramSnapshot::default();
        };
        let count = h.count.load(ORD);
        let present = count > 0;
        HistogramSnapshot {
            count,
            sum: h.sum.load(ORD),
            min: present.then(|| h.min.load(ORD)),
            max: present.then(|| h.max.load(ORD)),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Cumulative `(upper_bound, count)` pairs, ending with the
    /// overflow bucket as `(None, total)`. Empty when detached.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let Some(h) = self.0.as_ref() else { return Vec::new() };
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(h.counts.len());
        for (i, c) in h.counts.iter().enumerate() {
            cum += c.load(ORD);
            out.push((h.bounds.get(i).copied(), cum));
        }
        out
    }
}

/// A drop guard recording elapsed wall time into a [`Histogram`].
/// Created by [`Histogram::span`]; when the histogram is detached the
/// guard holds no `Instant` and drop is free.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.observe_duration(start.elapsed());
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct RegistryInner {
    /// name → (help, metric); BTreeMap keeps exposition order stable.
    metrics: Mutex<std::collections::BTreeMap<String, (String, Metric)>>,
}

/// A named collection of metrics.
///
/// `Registry::new()` is enabled; [`Registry::disabled`] (also the
/// `Default`) hands out detached no-op handles from every constructor,
/// so instrumentation can be threaded unconditionally and switched off
/// without a recompile. Clones share the underlying map.
#[derive(Clone, Debug, Default)]
pub struct Registry(Option<Arc<RegistryInner>>);

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry(Some(Arc::new(RegistryInner {
            metrics: Mutex::new(std::collections::BTreeMap::new()),
        })))
    }

    /// A disabled registry: every handle it hands out is a detached
    /// no-op whose operations cost one branch.
    pub fn disabled() -> Self {
        Registry(None)
    }

    /// Whether metrics registered here are live.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let Some(inner) = &self.0 else { return Counter(None) };
        let mut map = inner.metrics.lock().unwrap();
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Metric::Counter(Counter::standalone())));
        match &entry.1 {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let Some(inner) = &self.0 else { return Gauge(None) };
        let mut map = inner.metrics.lock().unwrap();
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Metric::Gauge(Gauge::standalone())));
        match &entry.1 {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram registered under `name` with the default
    /// latency buckets ([`duration_buckets_ns`]), creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, duration_buckets_ns())
    }

    /// Like [`Registry::histogram`] with explicit bucket bounds; the
    /// bounds are only consulted when the histogram is first created.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram_with(&self, name: &str, help: &str, bounds: Vec<u64>) -> Histogram {
        let Some(inner) = &self.0 else { return Histogram(None) };
        let mut map = inner.metrics.lock().unwrap();
        let entry = map.entry(name.to_string()).or_insert_with(|| {
            (help.to_string(), Metric::Histogram(Histogram::standalone(bounds)))
        });
        match &entry.1 {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format 0.0.4. Histogram sample names must not carry labels;
    /// counters and gauges may embed a `{key="value"}` label suffix in
    /// their registered name (see [`labeled`]).
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.0 else { return String::new() };
        let map = inner.metrics.lock().unwrap();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, (help, metric)) in map.iter() {
            let base = name.split('{').next().unwrap_or(name);
            if base != last_base {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", fmt_f64(g.get()))),
                Metric::Histogram(h) => {
                    for (bound, cum) in h.cumulative_buckets() {
                        match bound {
                            Some(b) => {
                                out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cum}\n"));
                            }
                            None => {
                                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
                            }
                        }
                    }
                    let snap = h.snapshot();
                    out.push_str(&format!("{name}_sum {}\n", snap.sum));
                    out.push_str(&format!("{name}_count {}\n", snap.count));
                }
            }
        }
        out
    }

    /// Renders every registered metric as a JSON object with schema
    /// `stardust-metrics/v1`:
    ///
    /// ```json
    /// {"schema":"stardust-metrics/v1",
    ///  "counters":{"name":1,…},
    ///  "gauges":{"name":0.5,…},
    ///  "histograms":{"name":{"count":…,"sum":…,"min":…,"max":…,
    ///                        "p50":…,"p95":…,"p99":…},…}}
    /// ```
    ///
    /// Key order is stable (sorted by metric name). Empty histograms
    /// report `null` for min/max/quantiles.
    pub fn render_json(&self) -> String {
        let Some(inner) = &self.0 else {
            return "{\"schema\":\"stardust-metrics/v1\",\"counters\":{},\"gauges\":{},\
                    \"histograms\":{}}"
                .to_string();
        };
        let map = inner.metrics.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (name, (_, metric)) in map.iter() {
            let key = json::escape(name);
            match metric {
                Metric::Counter(c) => counters.push(format!("\"{key}\":{}", c.get())),
                Metric::Gauge(g) => gauges.push(format!("\"{key}\":{}", fmt_f64(g.get()))),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    hists.push(format!(
                        "\"{key}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p95\":{},\"p99\":{}}}",
                        s.count,
                        s.sum,
                        fmt_opt(s.min),
                        fmt_opt(s.max),
                        fmt_opt(s.p50),
                        fmt_opt(s.p95),
                        fmt_opt(s.p99),
                    ));
                }
            }
        }
        format!(
            "{{\"schema\":\"stardust-metrics/v1\",\"counters\":{{{}}},\"gauges\":{{{}}},\
             \"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

/// Formats `name{key="value",…}` for per-instance series (e.g. one
/// gauge per shard). Values are JSON/Prometheus-escaped.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", json::escape(v))).collect();
    format!("{name}{{{}}}", body.join(","))
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

/// Formats an f64 so that integral values have no fractional part and
/// the output round-trips through the JSON parser.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("stardust_test_total", "test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same cell.
        assert_eq!(reg.counter("stardust_test_total", "test counter").get(), 5);
        let g = reg.gauge("stardust_test_ratio", "test gauge");
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn disabled_registry_is_noop() {
        let reg = Registry::disabled();
        let c = reg.counter("x", "");
        let g = reg.gauge("y", "");
        let h = reg.histogram("z", "");
        c.inc();
        g.set(1.0);
        h.observe(10);
        {
            let _span = h.span();
        }
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(
            reg.render_json(),
            "{\"schema\":\"stardust-metrics/v1\",\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert!(reg.render_prometheus().is_empty());
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::standalone(vec![10, 20, 40, 80]);
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, (1..=100u64).sum::<u64>());
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(100));
        // p50 of 1..=100 is ~50; bucket (40,80] holds ranks 41..=80 so
        // interpolation lands within that bucket.
        let p50 = s.p50.unwrap();
        assert!((40..=80).contains(&p50), "p50 = {p50}");
        // p99 lands in the overflow bucket, clamped to max.
        assert!(s.p99.unwrap() <= 100);
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::standalone(vec![1]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Histogram::standalone(duration_buckets_ns());
        {
            let _span = h.span();
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
        let cancelled = h.span();
        cancelled.cancel();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let reg = Registry::new();
        reg.counter("a_total", "a help").add(3);
        reg.counter(&labeled("a_total", &[("shard", "1")]), "a help").add(2);
        reg.gauge("b", "b help").set(1.5);
        reg.histogram_with("c_ns", "c help", vec![10, 100]).observe(50);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 3"));
        assert!(text.contains("a_total{shard=\"1\"} 2"));
        assert!(text.contains("b 1.5"));
        assert!(text.contains("c_ns_bucket{le=\"10\"} 0"));
        assert!(text.contains("c_ns_bucket{le=\"100\"} 1"));
        assert!(text.contains("c_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("c_ns_sum 50"));
        assert!(text.contains("c_ns_count 1"));
        // TYPE emitted once per base name even with labeled series.
        assert_eq!(text.matches("# TYPE a_total").count(), 1);
    }

    #[test]
    fn json_rendering_parses_back() {
        let reg = Registry::new();
        reg.counter("events_total", "events").add(7);
        reg.gauge("rate", "rate").set(0.125);
        reg.histogram_with("lat_ns", "latency", vec![8, 64]).observe(9);
        let doc = json::parse(&reg.render_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(json::Value::as_str), Some("stardust-metrics/v1"));
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("events_total")).and_then(json::Value::as_u64),
            Some(7)
        );
        assert_eq!(
            doc.get("gauges").and_then(|g| g.get("rate")).and_then(json::Value::as_f64),
            Some(0.125)
        );
        let hist = doc.get("histograms").and_then(|h| h.get("lat_ns")).expect("histogram entry");
        assert_eq!(hist.get("count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(hist.get("min").and_then(json::Value::as_u64), Some(9));
    }
}
