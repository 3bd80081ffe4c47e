//! stardust-runtime — a sharded, multi-threaded ingestion & query
//! runtime over [`stardust_core`]'s `UnifiedMonitor`.
//!
//! The core crate implements the paper's single-threaded monitor; this
//! crate scales it out by **partitioning streams across worker shards**.
//! Stream `g` (of `M`) lives on shard `g mod S` and is monitored there
//! as local stream `g div S`; each shard owns a private monitor, so no
//! locks guard monitor state and no summaries are shared. Cross-shard
//! correlated pairs are still covered: shards ship compact
//! sliding-window sketches to the collector, which prunes distant pairs
//! (provably no false dismissals) and verifies the rest exactly — see
//! [`ShardedRuntime::correlated_pairs`].
//!
//! ```text
//!            Batch { (stream, value)… }
//!                      │ split by g mod S
//!        ┌─────────────┼─────────────┐
//!        ▼             ▼             ▼
//!   [bounded q]   [bounded q]   [bounded q]    ← backpressure here
//!        │             │             │
//!   ┌────▼────┐   ┌────▼────┐   ┌────▼────┐
//!   │ shard 0 │   │ shard 1 │   │ shard 2 │    one thread + one
//!   │ monitor │   │ monitor │   │ monitor │    UnifiedMonitor each
//!   └────┬────┘   └────┬────┘   └────┬────┘
//!        └─────────────┼─────────────┘
//!                      ▼
//!             collector (Events)  →  drain_events() / shutdown()
//! ```
//!
//! Queries ride the same bounded queues as data (per-shard sequential
//! consistency) and are answered by scatter-gather with deterministic
//! merge order. See [`ShardedRuntime`] for the exact semantics and the
//! backpressure contract.
//!
//! **Fault tolerance.** Each shard is one step function, `ShardCore`,
//! driven by three shells: the worker thread commits live groups, and
//! the supervisor (after a worker crash) and [`ShardedRuntime::open`]
//! (after a process crash) construct it by one rebuild — restore the
//! shard's last snapshot (or build from the spec when there is none),
//! replay the logged suffix through the same apply path, and suppress
//! the events that were already delivered. Each shard has one log: an
//! in-memory journal, or, for a runtime opened on a directory, its
//! checksummed on-disk WAL and snapshot chain, which a respawn reads
//! back through the same scan `open()` uses. So thread and process
//! crashes recover with the same exactly-once arithmetic. With
//! [`RuntimeConfig::recovery`] enabled (the default), batches are
//! logged ahead of processing, monitors are snapshotted on a cadence,
//! and each shard's queue and log outlive its worker thread.
//! [`FaultPlan`] injects deterministic crashes, stalls, and slow drains
//! for testing this machinery.
//!
//! # Example
//!
//! ```
//! use stardust_core::query::aggregate::WindowSpec;
//! use stardust_core::transform::TransformKind;
//! use stardust_runtime::{
//!     AggregateSpec, Batch, MonitorSpec, RuntimeConfig, ShardedRuntime,
//! };
//!
//! let spec = MonitorSpec::new(8, 3, 10.0).with_aggregates(AggregateSpec {
//!     transform: TransformKind::Sum,
//!     windows: vec![WindowSpec { window: 16, threshold: 12.0 }],
//!     box_capacity: 4,
//! });
//! let mut rt = ShardedRuntime::launch(
//!     &spec,
//!     4,
//!     RuntimeConfig { shards: 2, queue_capacity: 8, ..RuntimeConfig::default() },
//! )
//! .unwrap();
//!
//! let batch: Batch = (0..4u32).map(|s| (s, 1.0)).collect();
//! for _ in 0..32 {
//!     rt.submit_blocking(&batch).unwrap();
//! }
//! let report = rt.shutdown();
//! assert_eq!(report.stats.total_appends(), 128);
//! ```

use stardust_core::error::QueryError;
use stardust_core::stream::StreamId;

mod fault;
mod log;
mod persist;
mod queue;
mod runtime;
mod shard;
mod spec;
mod stats;
mod step;
mod telemetry;

pub use fault::{DiskFault, DiskFaultKind, DiskFile, Fault, FaultKind, FaultPlan};
pub use persist::crc32::crc32;
pub use persist::{PersistConfig, RecoveryError, RecoveryReport, ShardRecoveryReport, SyncPolicy};
pub use runtime::{
    sort_events, Batch, PartialSubmit, QueueFull, RecoveryPolicy, RuntimeConfig, ShardedRuntime,
    ShutdownReport,
};
pub use shard::ClassStats;
pub use spec::{AggregateSpec, CorrelationSpec, MonitorSpec, TrendPattern, TrendSpec};
pub use stats::{CrossCorrStats, LatencyStats, RuntimeStats, ShardStats};

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// The spec enables no query class; there is nothing to monitor.
    NoQueryClass,
    /// `launch` was asked to monitor zero streams.
    NoStreams,
    /// A trend pattern in the spec was rejected by the monitor.
    Pattern(QueryError),
    /// A stream id at or beyond the configured stream count.
    UnknownStream {
        /// The offending id.
        stream: StreamId,
        /// The runtime's configured stream count.
        n_streams: usize,
    },
    /// A bounded shard queue was full (non-blocking paths only).
    Backpressure(QueueFull),
    /// A worker thread exited unexpectedly (it panicked or its channel
    /// closed); the runtime should be shut down.
    Disconnected,
    /// The OS refused to spawn a worker thread.
    Spawn(std::io::Error),
    /// `open()` could not recover the persistence directory.
    Recovery(RecoveryError),
    /// The supervisor gave up restarting a shard that kept dying faster
    /// than [`RuntimeConfig::max_restarts_in_window`] allows; the shard
    /// is failed for good.
    RespawnStorm {
        /// The fail-stopped shard.
        shard: usize,
        /// Restarts observed inside the window when the cap tripped.
        restarts: u32,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NoQueryClass => f.write_str("monitor spec enables no query class"),
            RuntimeError::NoStreams => f.write_str("cannot launch a runtime over zero streams"),
            RuntimeError::Pattern(e) => write!(f, "trend pattern rejected: {e}"),
            RuntimeError::UnknownStream { stream, n_streams } => {
                write!(f, "stream {stream} out of range (runtime monitors {n_streams} streams)")
            }
            RuntimeError::Backpressure(_) => f.write_str("shard queue full (backpressure)"),
            RuntimeError::Disconnected => f.write_str("a worker thread is gone"),
            RuntimeError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
            RuntimeError::Recovery(e) => write!(f, "persistence recovery failed: {e}"),
            RuntimeError::RespawnStorm { shard, restarts } => write!(
                f,
                "shard {shard} fail-stopped after {restarts} restarts inside the storm window"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Pattern(e) => Some(e),
            RuntimeError::Backpressure(e) => Some(e),
            RuntimeError::Spawn(e) => Some(e),
            RuntimeError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}
