//! Instrumentation bundles wiring [`stardust_telemetry`] handles into
//! the core engines.
//!
//! Every bundle is a set of pre-registered metric handles; the default
//! value of each bundle is fully detached (every operation a single
//! branch), so monitors hold them unconditionally and attaching
//! telemetry is just swapping the bundle. Bundles are **runtime state,
//! not summary state**: snapshots never serialize them, and a restored
//! monitor comes back detached until the owner re-attaches (the sharded
//! runtime does this after every crash recovery).
//!
//! Metric names follow Prometheus conventions
//! (`stardust_<subsystem>_<what>_<unit|total>`); the full catalogue
//! with units lives in DESIGN.md §Observability.

use stardust_telemetry::{Counter, Histogram, Registry};

/// Summarizer (Algorithm 1) counters: raw appends and the MBR
/// lifecycle.
#[derive(Clone, Debug, Default)]
pub struct SummarizerTelemetry {
    /// `stardust_summarizer_appends_total` — raw values pushed.
    pub appends: Counter,
    /// `stardust_summarizer_mbrs_sealed_total` — MBRs sealed at any level.
    pub sealed: Counter,
    /// `stardust_summarizer_mbrs_retired_total` — MBRs retired at any level.
    pub retired: Counter,
}

impl SummarizerTelemetry {
    /// Registers (or re-resolves) the summarizer series in `registry`.
    pub fn new(registry: &Registry) -> Self {
        SummarizerTelemetry {
            appends: registry.counter(
                "stardust_summarizer_appends_total",
                "Raw stream values pushed into summarizers",
            ),
            sealed: registry.counter(
                "stardust_summarizer_mbrs_sealed_total",
                "Feature MBRs sealed at box capacity, all levels",
            ),
            retired: registry.counter(
                "stardust_summarizer_mbrs_retired_total",
                "Feature MBRs retired past the history horizon, all levels",
            ),
        }
    }
}

/// Per-query-class counters and latency: shared shape for the
/// aggregate, trend (pattern), and correlation engines.
///
/// `candidates` vs `confirmed` is the paper's §6.1 accounting: a
/// candidate is an index/bound hit that forced a raw-data verification,
/// a confirmed result survived it. `confirmed/candidates` is precision;
/// `1 − precision` is the observed false-alarm rate that Eq. 4–7 model
/// analytically.
#[derive(Clone, Debug, Default)]
pub struct ClassTelemetry {
    /// `stardust_<class>_checks_total` — evaluations performed (warm
    /// windows inspected, features probed).
    pub checks: Counter,
    /// `stardust_<class>_candidates_total` — bound/index crossings that
    /// required verification.
    pub candidates: Counter,
    /// `stardust_<class>_confirmed_total` — verifications that held.
    pub confirmed: Counter,
    /// `stardust_<class>_latency_ns` — per-append processing latency,
    /// systematically sampled (see [`ClassTelemetry::latency_span`]).
    pub latency: Histogram,
    /// Rolling append count driving the latency sampling schedule.
    tick: std::cell::Cell<u32>,
}

impl ClassTelemetry {
    /// One append in [`Self::LATENCY_SAMPLE_EVERY`] carries a latency
    /// span. Reading the clock twice per span costs more than every
    /// counter in an append combined, so timing each one would blow the
    /// ≤5% ingest-overhead budget; systematic 1-in-64 sampling keeps
    /// the quantile estimates while amortizing the clock reads to under
    /// a nanosecond per append.
    pub const LATENCY_SAMPLE_EVERY: u32 = 64;

    /// A span for one append: inert on detached handles and on
    /// unsampled appends, timed on every
    /// [`Self::LATENCY_SAMPLE_EVERY`]th.
    #[inline]
    pub fn latency_span(&self) -> stardust_telemetry::Span<'_> {
        let t = self.tick.get().wrapping_add(1);
        self.tick.set(t);
        self.latency.span_if(t.is_multiple_of(Self::LATENCY_SAMPLE_EVERY))
    }

    /// Registers (or re-resolves) the series for `class` (one of
    /// `aggregate`, `trend`, `correlation`, `pattern`).
    pub fn new(registry: &Registry, class: &str) -> Self {
        ClassTelemetry {
            checks: registry.counter(
                &format!("stardust_{class}_checks_total"),
                "Evaluations performed by this query class",
            ),
            candidates: registry.counter(
                &format!("stardust_{class}_candidates_total"),
                "Bound or index crossings that required raw-data verification",
            ),
            confirmed: registry.counter(
                &format!("stardust_{class}_confirmed_total"),
                "Verifications confirmed on raw data",
            ),
            latency: registry.histogram(
                &format!("stardust_{class}_latency_ns"),
                "Per-append processing latency in nanoseconds (1-in-64 sampled)",
            ),
            tick: std::cell::Cell::new(0),
        }
    }
}

/// Everything the unified monitor wires up at once.
#[derive(Clone, Debug, Default)]
pub struct CoreTelemetry {
    /// Summarizer lifecycle counters.
    pub summarizer: SummarizerTelemetry,
    /// Aggregate-monitor (Algorithm 2) series.
    pub aggregate: ClassTelemetry,
    /// Trend-monitor (Algorithms 3–4, standing patterns) series.
    pub trend: ClassTelemetry,
    /// Correlation-monitor (§5.3) series.
    pub correlation: ClassTelemetry,
}

impl CoreTelemetry {
    /// Registers (or re-resolves) every core series in `registry`.
    pub fn new(registry: &Registry) -> Self {
        CoreTelemetry {
            summarizer: SummarizerTelemetry::new(registry),
            aggregate: ClassTelemetry::new(registry, "aggregate"),
            trend: ClassTelemetry::new(registry, "trend"),
            correlation: ClassTelemetry::new(registry, "correlation"),
        }
    }
}
