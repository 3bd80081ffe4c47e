//! Runtime-level telemetry handles: batch latency, crash-recovery
//! timings, and durable-persistence counters.
//!
//! Mirrors `stardust_core::telemetry`: a bundle of pre-registered
//! handles whose default value is fully detached, so workers hold one
//! unconditionally and pay a single branch per operation when
//! telemetry is off.

use stardust_telemetry::{Counter, Histogram, Registry};

/// Pre-registered runtime series shared by every shard worker.
#[derive(Clone, Debug, Default)]
pub(crate) struct RuntimeTelemetry {
    /// `stardust_runtime_batch_latency_ns` — submit-to-drained latency
    /// of every batch, across shards.
    pub batch_latency: Histogram,
    /// `stardust_recovery_journal_ns` — write-ahead journal appends.
    pub journal: Histogram,
    /// `stardust_recovery_snapshot_ns` — monitor snapshot captures.
    pub snapshot: Histogram,
    /// `stardust_recovery_restore_ns` — full crash restores (monitor
    /// rebuild plus journal-suffix replay).
    pub restore: Histogram,
    /// `stardust_persist_wal_append_ns` — on-disk WAL record appends.
    pub wal_append: Histogram,
    /// `stardust_persist_recovery_ns` — per-shard disk recovery (scan,
    /// validate, restore, replay) at `open()`.
    pub disk_recovery: Histogram,
    /// `stardust_persist_fsyncs_total` — successful fsyncs (WAL and
    /// snapshot).
    pub fsyncs: Counter,
    /// `stardust_persist_fsync_failures_total` — failed or injected-
    /// failure fsyncs.
    pub fsync_failures: Counter,
    /// `stardust_persist_wal_records_total` — records appended to WALs.
    pub wal_records: Counter,
    /// `stardust_persist_wal_bytes_total` — bytes appended to WALs.
    pub wal_bytes: Counter,
    /// `stardust_persist_torn_truncations_total` — torn WAL tails
    /// truncated during recovery.
    pub torn_truncations: Counter,
    /// `stardust_persist_snapshot_fallbacks_total` — recoveries that
    /// fell back to the previous snapshot generation.
    pub snapshot_fallbacks: Counter,
    /// `stardust_persist_replayed_total` — WAL appends replayed through
    /// restored monitors at `open()`.
    pub replayed: Counter,
    /// `stardust_runtime_rejected_samples_total` — non-finite samples
    /// rejected at the append boundary.
    pub rejected: Counter,
    /// `stardust_runtime_group_size` — batches per commit group: how
    /// many queued batches one worker drain journaled under a single
    /// coalesced WAL write (and, under `SyncPolicy::Always`, one fsync).
    pub group_size: Histogram,
    /// `stardust_persist_wal_group_writes_total` — coalesced group
    /// writes issued to on-disk WALs (one per commit group, i.e. one
    /// per batch-record `write(2)` regardless of how many records it
    /// carried).
    pub wal_group_writes: Counter,
    /// `stardust_sketch_exchange_ns` — one cadence firing: shipping
    /// every local sketch delta to the collector board.
    pub sketch_exchange: Histogram,
    /// `stardust_sketch_exchanges_total` — cadence firings across
    /// shards.
    pub sketch_exchanges: Counter,
    /// `stardust_cross_corr_candidates_total` — cross-shard pairs that
    /// survived the sketch prune and went to exact verification.
    pub cross_candidates: Counter,
    /// `stardust_cross_corr_pruned_total` — cross-shard pairs dismissed
    /// by the sketch distance lower bound.
    pub cross_pruned: Counter,
    /// `stardust_cross_corr_confirmed_total` — cross-shard candidates
    /// confirmed by exact verification.
    pub cross_confirmed: Counter,
}

impl RuntimeTelemetry {
    /// Registers (or re-resolves) the runtime series in `registry`.
    pub fn new(registry: &Registry) -> Self {
        RuntimeTelemetry {
            batch_latency: registry.histogram(
                "stardust_runtime_batch_latency_ns",
                "Submit-to-drained batch latency in nanoseconds, all shards",
            ),
            journal: registry.histogram(
                "stardust_recovery_journal_ns",
                "Write-ahead journal append duration in nanoseconds",
            ),
            snapshot: registry.histogram(
                "stardust_recovery_snapshot_ns",
                "Monitor snapshot capture duration in nanoseconds",
            ),
            restore: registry.histogram(
                "stardust_recovery_restore_ns",
                "Crash restore (rebuild + replay) duration in nanoseconds",
            ),
            wal_append: registry.histogram(
                "stardust_persist_wal_append_ns",
                "On-disk WAL record append duration in nanoseconds",
            ),
            disk_recovery: registry.histogram(
                "stardust_persist_recovery_ns",
                "Per-shard disk recovery duration at open() in nanoseconds",
            ),
            fsyncs: registry.counter(
                "stardust_persist_fsyncs_total",
                "Successful fsyncs of WAL and snapshot files",
            ),
            fsync_failures: registry.counter(
                "stardust_persist_fsync_failures_total",
                "Failed (or fault-injected) fsyncs of WAL and snapshot files",
            ),
            wal_records: registry
                .counter("stardust_persist_wal_records_total", "Records appended to on-disk WALs"),
            wal_bytes: registry
                .counter("stardust_persist_wal_bytes_total", "Bytes appended to on-disk WALs"),
            torn_truncations: registry.counter(
                "stardust_persist_torn_truncations_total",
                "Torn WAL tails truncated during recovery",
            ),
            snapshot_fallbacks: registry.counter(
                "stardust_persist_snapshot_fallbacks_total",
                "Recoveries that fell back to the previous snapshot generation",
            ),
            replayed: registry.counter(
                "stardust_persist_replayed_total",
                "WAL appends replayed through restored monitors at open()",
            ),
            rejected: registry.counter(
                "stardust_runtime_rejected_samples_total",
                "Non-finite samples rejected at the append boundary",
            ),
            group_size: registry.histogram_with(
                "stardust_runtime_group_size",
                "Batches per commit group (one coalesced WAL write / fsync)",
                // Group sizes span 1..=256 batches, not nanoseconds:
                // power-of-two buckets keep the quantiles meaningful.
                (0..9).map(|i| 1u64 << i).collect(),
            ),
            wal_group_writes: registry.counter(
                "stardust_persist_wal_group_writes_total",
                "Coalesced group writes issued to on-disk WALs (one per commit group)",
            ),
            sketch_exchange: registry.histogram(
                "stardust_sketch_exchange_ns",
                "One sketch-exchange cadence firing in nanoseconds",
            ),
            sketch_exchanges: registry.counter(
                "stardust_sketch_exchanges_total",
                "Sketch-exchange cadence firings across shards",
            ),
            cross_candidates: registry.counter(
                "stardust_cross_corr_candidates_total",
                "Cross-shard pairs sent to exact verification after the sketch prune",
            ),
            cross_pruned: registry.counter(
                "stardust_cross_corr_pruned_total",
                "Cross-shard pairs dismissed by the sketch distance lower bound",
            ),
            cross_confirmed: registry.counter(
                "stardust_cross_corr_confirmed_total",
                "Cross-shard candidates confirmed by exact verification",
            ),
        }
    }
}
