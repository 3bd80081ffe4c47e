//! A cloneable recipe for building [`UnifiedMonitor`]s.
//!
//! The runtime constructs one monitor per shard, each over that shard's
//! slice of streams. [`UnifiedMonitor`] itself is deliberately not
//! `Clone` (it owns large per-stream state), so the sharding layer needs
//! a value that *describes* a monitor — transforms, windows, registered
//! trend patterns — and can be replayed as many times as there are
//! shards. [`MonitorSpec`] is that value.

use stardust_core::query::aggregate::WindowSpec;
use stardust_core::transform::TransformKind;
use stardust_core::unified::UnifiedMonitor;

use crate::RuntimeError;

/// Aggregate (burst / volatility) monitoring parameters.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// SUM for bursts, SPREAD for volatility.
    pub transform: TransformKind,
    /// Monitored windows with their alarm thresholds.
    pub windows: Vec<WindowSpec>,
    /// Box capacity `c` (space/accuracy knob).
    pub box_capacity: usize,
}

/// One trend pattern to register on every shard's monitor.
#[derive(Debug, Clone)]
pub struct TrendPattern {
    /// The raw pattern sequence.
    pub sequence: Vec<f64>,
    /// Normalized match radius.
    pub radius: f64,
}

/// Continuous trend-monitoring parameters.
#[derive(Debug, Clone)]
pub struct TrendSpec {
    /// DWT feature dimensionality `f`.
    pub coeffs: usize,
    /// Box capacity `c`.
    pub box_capacity: usize,
    /// Patterns registered at build time. Registration order is part of
    /// the spec: pattern ids are assigned sequentially and must agree
    /// across shards.
    pub patterns: Vec<TrendPattern>,
}

/// Correlation-monitoring parameters.
#[derive(Debug, Clone)]
pub struct CorrelationSpec {
    /// Feature dimensionality `f`.
    pub coeffs: usize,
    /// z-norm distance threshold.
    pub radius: f64,
}

/// A cloneable description of a [`UnifiedMonitor`]: its builder
/// parameters plus the trend patterns to register. The runtime's shard
/// rebuild calls [`Self::build`] for every shard it has no snapshot
/// for — at launch, on a fresh directory, and for a shard that dies
/// before its first snapshot — with that shard's stream count.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Base window `W`.
    pub base_window: usize,
    /// Number of resolution levels.
    pub levels: usize,
    /// Value-range bound `R_max` (pattern normalization).
    pub r_max: f64,
    /// Aggregate monitoring, if enabled.
    pub aggregate: Option<AggregateSpec>,
    /// Trend monitoring, if enabled.
    pub trend: Option<TrendSpec>,
    /// Correlation monitoring, if enabled.
    pub correlation: Option<CorrelationSpec>,
    /// Correlation sketch block granularity override (values per block).
    /// `None` uses the monitor default (`base_window`). Must divide the
    /// correlation window `W * 2^(levels-1)`.
    pub sketch_block: Option<usize>,
}

impl MonitorSpec {
    /// An empty spec over base window `W` and `levels` resolution
    /// levels; enable at least one query class before building.
    pub fn new(base_window: usize, levels: usize, r_max: f64) -> Self {
        MonitorSpec {
            base_window,
            levels,
            r_max,
            aggregate: None,
            trend: None,
            correlation: None,
            sketch_block: None,
        }
    }

    /// Enables aggregate monitoring.
    pub fn with_aggregates(mut self, spec: AggregateSpec) -> Self {
        self.aggregate = Some(spec);
        self
    }

    /// Enables trend monitoring.
    pub fn with_trends(mut self, spec: TrendSpec) -> Self {
        self.trend = Some(spec);
        self
    }

    /// Enables correlation monitoring.
    pub fn with_correlations(mut self, spec: CorrelationSpec) -> Self {
        self.correlation = Some(spec);
        self
    }

    /// Overrides the correlation sketch's block granularity.
    pub fn with_sketch_block(mut self, block: usize) -> Self {
        self.sketch_block = Some(block);
        self
    }

    /// Whether any query class is enabled.
    fn any_class(&self) -> bool {
        self.aggregate.is_some() || self.trend.is_some() || self.correlation.is_some()
    }

    /// Builds a monitor over `n_streams` streams.
    ///
    /// Correlation is kept even on one-stream slices: a lone stream has
    /// no same-shard pairs, but its sliding-window sketch and raw
    /// windows still feed the collector's cross-shard correlation path
    /// (see [`crate::ShardedRuntime::correlated_pairs`]). Returns
    /// `Ok(None)` when no enabled class is constructible for this slice
    /// — the caller runs such a shard as a counting pass-through.
    ///
    /// # Errors
    /// Fails when no class is enabled at all, or a trend pattern is
    /// rejected by the monitor.
    pub fn build(&self, n_streams: usize) -> Result<Option<UnifiedMonitor>, RuntimeError> {
        if !self.any_class() {
            return Err(RuntimeError::NoQueryClass);
        }
        if n_streams == 0 {
            return Ok(None);
        }
        let mut builder =
            UnifiedMonitor::builder(self.base_window, self.levels, n_streams, self.r_max);
        if let Some(agg) = &self.aggregate {
            builder = builder.aggregates(agg.transform, agg.windows.clone(), agg.box_capacity);
        }
        if let Some(trend) = &self.trend {
            builder = builder.trends(trend.coeffs, trend.box_capacity);
        }
        if let Some(corr) = &self.correlation {
            builder = builder.correlations(corr.coeffs, corr.radius);
            if let Some(block) = self.sketch_block {
                builder = builder.correlation_sketch_block(block);
            }
        }
        let mut monitor = builder.build();
        if let Some(trend) = &self.trend {
            for p in &trend.patterns {
                monitor
                    .register_trend(p.sequence.clone(), p.radius)
                    .map_err(RuntimeError::Pattern)?;
            }
        }
        Ok(Some(monitor))
    }
}
