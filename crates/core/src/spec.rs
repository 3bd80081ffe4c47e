//! [`MonitorSpec`]: the one description of a [`UnifiedMonitor`].
//!
//! A spec is a plain, cloneable value — transforms, windows, registered
//! trend patterns — so the sharded runtime can build one monitor per
//! shard from it, each over that shard's slice of streams.
//! [`MonitorSpec::build`] is the only way to construct a
//! [`UnifiedMonitor`] besides [`UnifiedMonitor::restore`], and it goes
//! through each class's fallible constructor, so a spec is checked
//! before any monitor runs and an invalid one is a [`SpecError`], never
//! a panic.

use crate::config::{Config, UpdatePolicy};
use crate::error::SpecError;
use crate::query::aggregate::{AggregateMonitor, WindowSpec};
use crate::query::correlation::CorrelationMonitor;
use crate::query::trend::TrendMonitor;
use crate::transform::TransformKind;
use crate::unified::UnifiedMonitor;

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

/// One trend pattern to register on every monitor the spec builds.
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

/// A cloneable description of a [`UnifiedMonitor`]: base window `W`,
/// resolution levels, and the enabled query classes with their trend
/// patterns.
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
}

impl MonitorSpec {
    /// An empty spec over base window `W` and `levels` resolution
    /// levels; enable at least one query class before building.
    pub fn new(base_window: usize, levels: usize, r_max: f64) -> Self {
        MonitorSpec { base_window, levels, r_max, aggregate: None, trend: None, correlation: None }
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

    /// Checks the whole spec without keeping a monitor: builds one over
    /// a single stream and drops it.
    ///
    /// # Errors
    /// Every error [`Self::build`] can return.
    pub fn check(&self) -> Result<(), SpecError> {
        self.build(0).map(drop)
    }

    /// Builds a monitor over `n_streams` streams, through each enabled
    /// class's fallible constructor: aggregates run SUM/SPREAD online
    /// with a history covering the largest window, trends run the DWT
    /// online, and correlations run the DWT in batch over windows of
    /// `W·2^(levels−1)` — kept even on one stream, whose sketch and raw
    /// windows serve a sharded deployment's cross-shard path. Returns
    /// `Ok(None)` for zero streams, after checking the spec on one.
    ///
    /// # Errors
    /// [`SpecError::NoQueryClass`] when no class is enabled,
    /// [`SpecError::Invalid`] for a parameter a class's constructor
    /// rejects, and [`SpecError::Pattern`] for a rejected trend pattern.
    pub fn build(&self, n_streams: usize) -> Result<Option<UnifiedMonitor>, SpecError> {
        let n = n_streams.max(1);
        let (w, levels) = (self.base_window, self.levels);
        let aggregates = match &self.aggregate {
            None => None,
            Some(agg) => {
                let config = Config::online(agg.transform, w, levels, agg.box_capacity);
                config.check()?;
                // The history covers the largest window rounded up to a
                // power-of-two multiple of W. An overflowing cover is
                // left to the window check.
                let largest = agg.windows.iter().map(|s| s.window).max().unwrap_or(w);
                let history = largest
                    .div_ceil(w)
                    .checked_next_power_of_two()
                    .and_then(|blocks| blocks.checked_mul(w))
                    .map_or(config.history, |cover| cover.max(config.history));
                let config = config.with_history(history);
                let monitors = (0..n)
                    .map(|_| AggregateMonitor::try_new(config.clone(), &agg.windows))
                    .collect::<Result<_, _>>()?;
                Some((monitors, agg.windows.clone()))
            }
        };
        let trends = match &self.trend {
            None => None,
            Some(trend) => {
                let mut config = Config::batch(w, levels, trend.coeffs, self.r_max);
                config.update = UpdatePolicy::Online;
                config.box_capacity = trend.box_capacity;
                let mut monitor = TrendMonitor::try_new(config, n)?;
                for p in &trend.patterns {
                    monitor.register(p.sequence.clone(), p.radius).map_err(SpecError::Pattern)?;
                }
                Some(monitor)
            }
        };
        let correlations = match &self.correlation {
            None => None,
            Some(corr) => {
                Some(CorrelationMonitor::try_new(w, levels, corr.coeffs, corr.radius, n)?)
            }
        };
        let monitor = UnifiedMonitor::assemble(aggregates, trends, correlations)?;
        Ok((n_streams > 0).then_some(monitor))
    }
}
