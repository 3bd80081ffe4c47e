//! # Stardust — monitoring data streams in real time
//!
//! A from-scratch implementation of the stream-monitoring framework of
//! Bulut & Singh, *A Unified Framework for Monitoring Data Streams in Real
//! Time* (ICDE 2005).
//!
//! The core idea: extract features over sliding windows at **multiple
//! resolutions** — the window doubles per level — and compute each level's
//! features incrementally **from the level below** (exactly when features
//! are kept individually, approximately via MBR extents when every `c`
//! features are boxed to save space). The result is a summary with tunable
//! time/space/accuracy (`Θ(f)` per level per item; `Θ(2^{j−1}W/(c·T_{j−1}))`
//! space at level `j`) that serves three query classes over flexible,
//! a-priori-unknown window sizes:
//!
//! | Query class | Entry point | Paper |
//! |---|---|---|
//! | Aggregate monitoring (bursts, volatility) | [`query::aggregate::AggregateMonitor`] | §5.1, Alg. 2 |
//! | Pattern matching (variable-length similarity) | [`query::pattern::query_online`] / [`query::pattern::query_batch`], scanning the MBRs of a [`engine::Stardust`]'s summaries | §5.2, Alg. 3–4 |
//! | k-most-similar search | [`query::pattern::nearest_online`] | §1 finance scenario |
//! | Continuous trend monitoring (standing patterns) | [`query::trend::TrendMonitor`] | §2.3 |
//! | Correlation monitoring (incl. lagged pairs) | [`query::correlation::CorrelationMonitor`] | §5.3 |
//! | All classes as one monitor | [`spec::MonitorSpec`] builds a [`unified::UnifiedMonitor`] | §1 |
//!
//! All three share the same summarization substrate
//! ([`summarizer::StreamSummary`], Algorithm 1) — that shared substrate is
//! the paper's "unified framework" claim.
//!
//! ## Quick example
//!
//! ```
//! use stardust_core::config::Config;
//! use stardust_core::transform::TransformKind;
//! use stardust_core::query::aggregate::{AggregateMonitor, WindowSpec};
//!
//! // Monitor bursts over 20- and 40-value windows of one stream.
//! let config = Config::online(TransformKind::Sum, 20, 4, 5);
//! let windows = [
//!     WindowSpec { window: 20, threshold: 30.0 },
//!     WindowSpec { window: 40, threshold: 55.0 },
//! ];
//! let mut monitor = AggregateMonitor::new(config, &windows);
//! for t in 0..200 {
//!     let value = if (100..120).contains(&t) { 3.0 } else { 1.0 };
//!     for alarm in monitor.push(value) {
//!         if alarm.is_true_alarm {
//!             println!("burst over {} values at t={}", alarm.window, alarm.time);
//!         }
//!     }
//! }
//! assert!(monitor.stats().true_alarms > 0);
//! ```

pub mod config;
pub mod engine;
pub mod error;
pub mod mbr;
pub mod normalize;
pub mod query;
pub mod sketch;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod summarizer;
pub mod telemetry;
pub mod transform;
pub mod unified;

pub use config::{ComputeMode, Config, UpdatePolicy};
pub use engine::Stardust;
pub use error::{QueryError, SpecError};
pub use mbr::FeatureMbr;
pub use sketch::{BlockSketch, SketchDelta, SketchProjection, PRUNE_SLACK};
pub use spec::{AggregateSpec, CorrelationSpec, MonitorSpec, TrendPattern, TrendSpec};
pub use stream::{StreamHistory, StreamId, Time};
pub use summarizer::{StreamSummary, SummaryEvent};
pub use transform::TransformKind;
