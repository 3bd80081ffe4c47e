//! Shared per-shard counters and the [`RuntimeStats`] snapshot.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use stardust_telemetry::{duration_buckets_ns, Histogram};

/// Lock-free counters one shard's worker and its producers share.
/// Producers bump the queue depth on enqueue; the worker decrements on
/// dequeue and owns every other field.
///
/// Batch latency is kept in a fixed-bucket histogram (27 buckets
/// doubling from 250 ns up to ~16.8 s, plus the implicit +Inf bucket)
/// whose sum accumulates saturating — a shard that runs long enough to
/// overflow `u64` nanoseconds pins at `u64::MAX` instead of wrapping
/// into a bogus mean.
#[derive(Debug)]
pub(crate) struct ShardCounters {
    pub appends: AtomicU64,
    pub events: AtomicU64,
    pub rejected: AtomicU64,
    pub batches: AtomicU64,
    pub restarts: AtomicU64,
    pub queue_depth: AtomicUsize,
    pub queue_high_water: AtomicUsize,
    pub latency: Histogram,
}

impl ShardCounters {
    pub fn new() -> Self {
        ShardCounters {
            appends: AtomicU64::new(0),
            events: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_high_water: AtomicUsize::new(0),
            latency: Histogram::standalone(duration_buckets_ns()),
        }
    }

    /// Producer side: called *before* the send attempt, so the depth
    /// never underflows on the worker side. Pair a failed send with
    /// [`Self::undo_enqueued`].
    pub fn note_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Producer side: the send that followed [`Self::note_enqueued`]
    /// failed; roll the depth back.
    pub fn undo_enqueued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Worker side: `n` batches dequeued in one bulk drain. The depth is
    /// sampled *before* the group is subtracted — a grouped drain that
    /// empties a backlogged queue must record the backlog as the
    /// high-water mark, not the post-drain zero. The sample matters on
    /// the drain side, not just on enqueue: a queue that filled while
    /// the worker was stalled and is drained without concurrent
    /// enqueues would otherwise under-report its peak (producers may
    /// bail out with `QueueFull` before ever bumping the mark past the
    /// stall).
    pub fn note_drained(&self, n: usize) {
        if n == 0 {
            return;
        }
        let depth = self.queue_depth.fetch_sub(n, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Worker side: one batch fully processed, `ns` nanoseconds after it
    /// was submitted.
    pub fn note_batch(&self, ns: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.latency.observe(ns);
    }

    pub fn snapshot(&self) -> ShardStats {
        let batches = self.batches.load(Ordering::Relaxed);
        let h = self.latency.snapshot();
        let nanos = |n: Option<u64>| n.map(Duration::from_nanos);
        let latency = LatencyStats {
            min: nanos(h.min),
            mean: h.mean().map(|ns| Duration::from_nanos(ns as u64)),
            p50: nanos(h.p50),
            p95: nanos(h.p95),
            max: nanos(h.max),
        };
        ShardStats {
            appends: self.appends.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches,
            restarts: self.restarts.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            batch_latency: latency,
        }
    }
}

/// Submit-to-drained batch latency summary; every field is `None`
/// until the shard has processed at least one batch.
///
/// The extremes and mean are exact; `p50`/`p95` are estimated from a
/// fixed-bucket histogram (bounds doubling from 250 ns — see
/// [`stardust_telemetry::duration_buckets_ns`]) by linear interpolation
/// within the covering bucket, clamped to the observed min/max, so the
/// worst-case quantile error is half a bucket width (< 2× the true
/// value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Fastest batch.
    pub min: Option<Duration>,
    /// Arithmetic mean over all batches (the underlying nanosecond sum
    /// accumulates saturating, so it pins instead of wrapping).
    pub mean: Option<Duration>,
    /// Median batch latency (histogram estimate).
    pub p50: Option<Duration>,
    /// 95th-percentile batch latency (histogram estimate).
    pub p95: Option<Duration>,
    /// Slowest batch.
    pub max: Option<Duration>,
}

/// One shard's counters at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Values appended into this shard's monitor.
    pub appends: u64,
    /// Events this shard pushed to the collector.
    pub events: u64,
    /// Non-finite (NaN/Inf) samples rejected at the append boundary.
    /// Rejected samples still count toward `appends`.
    pub rejected: u64,
    /// Batches drained.
    pub batches: u64,
    /// Times this shard's worker died and was restored by the
    /// supervisor (always `0` with recovery disabled).
    pub restarts: u64,
    /// Messages currently queued (approximate — producers and the worker
    /// race by design).
    pub queue_depth: usize,
    /// Highest queue depth observed since launch.
    pub queue_high_water: usize,
    /// Submit-to-drained latency summary.
    pub batch_latency: LatencyStats,
}

/// Cumulative counters of the cross-shard correlation path: sketch
/// publications absorbed by the collector board, and the fate of every
/// cross-shard pair considered by
/// [`crate::ShardedRuntime::correlated_pairs`]. Pruning is sound
/// (pruned pairs are provably outside the radius), so
/// `candidates + pruned` is the number of cross-shard pairs considered
/// and `confirmed / candidates` is the prune precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrossCorrStats {
    /// Sketch publications absorbed (one per stream per cadence firing).
    pub exchanges: u64,
    /// Cross-shard pairs that survived the prune and were verified
    /// exactly.
    pub candidates: u64,
    /// Cross-shard pairs dismissed by the sketch distance lower bound.
    pub pruned: u64,
    /// Candidates confirmed correlated by exact verification.
    pub confirmed: u64,
}

/// A point-in-time snapshot of the whole runtime, one entry per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl RuntimeStats {
    /// Total values appended across shards.
    pub fn total_appends(&self) -> u64 {
        self.shards.iter().map(|s| s.appends).sum()
    }

    /// Total non-finite samples rejected across shards.
    pub fn total_rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Highest queue high-water mark across shards.
    pub fn max_queue_high_water(&self) -> usize {
        self.shards.iter().map(|s| s.queue_high_water).max().unwrap_or(0)
    }

    /// Total worker restarts across shards.
    pub fn total_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Publishes the snapshot into `registry` as per-shard gauges
    /// (`stardust_shard_*{shard="N"}`). Gauges rather than counters
    /// because a snapshot is a point-in-time level: queue depth moves
    /// both ways, and repeated exports overwrite rather than accumulate.
    pub fn export(&self, registry: &stardust_telemetry::Registry) {
        let gauge = |name: &str, help: &str, shard: usize, v: f64| {
            registry
                .gauge(&stardust_telemetry::labeled(name, &[("shard", &shard.to_string())]), help)
                .set(v);
        };
        let ns = |d: Option<Duration>| d.map(|d| d.as_nanos() as f64).unwrap_or(0.0);
        for (i, s) in self.shards.iter().enumerate() {
            gauge("stardust_shard_appends", "Values appended into the shard's monitor", i, {
                s.appends as f64
            });
            gauge("stardust_shard_events", "Events the shard pushed to the collector", i, {
                s.events as f64
            });
            gauge(
                "stardust_shard_rejected",
                "Non-finite samples rejected at the append boundary",
                i,
                s.rejected as f64,
            );
            gauge("stardust_shard_batches", "Batches the shard drained", i, s.batches as f64);
            gauge("stardust_shard_restarts", "Worker restarts performed by the supervisor", i, {
                s.restarts as f64
            });
            gauge("stardust_shard_queue_depth", "Messages currently queued (approximate)", i, {
                s.queue_depth as f64
            });
            gauge("stardust_shard_queue_high_water", "Highest queue depth observed", i, {
                s.queue_high_water as f64
            });
            gauge(
                "stardust_shard_batch_latency_p50_ns",
                "Median submit-to-drained batch latency, nanoseconds",
                i,
                ns(s.batch_latency.p50),
            );
            gauge(
                "stardust_shard_batch_latency_p95_ns",
                "95th-percentile submit-to-drained batch latency, nanoseconds",
                i,
                ns(s.batch_latency.p95),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_is_sampled_on_drain_too() {
        // Fill-then-drain with no enqueues racing the drain: the peak
        // must still be observed. Before the drain-side sample, only
        // `note_enqueued` bumped the mark, so a worker stalled behind a
        // full queue could report a high-water mark below the real peak.
        let c = ShardCounters::new();
        for _ in 0..5 {
            c.note_enqueued();
        }
        // Simulate the enqueue-side mark having been missed (e.g. reset
        // by a racing reader of a fresh counter set after restore).
        c.queue_high_water.store(0, Ordering::Relaxed);
        c.note_drained(1);
        assert_eq!(c.snapshot().queue_high_water, 5, "drain must observe the pre-pop depth");
        for _ in 0..4 {
            c.note_drained(1);
        }
        let s = c.snapshot();
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.queue_high_water, 5);
    }

    #[test]
    fn bulk_drain_samples_high_water_before_the_pop() {
        // A grouped drain removes the whole backlog in one step; the
        // high-water mark must still reflect the pre-drain depth rather
        // than the post-drain zero.
        let c = ShardCounters::new();
        for _ in 0..7 {
            c.note_enqueued();
        }
        c.queue_high_water.store(0, Ordering::Relaxed);
        c.note_drained(7);
        let s = c.snapshot();
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.queue_high_water, 7, "bulk drain must observe the pre-pop depth");
        // A zero-batch drain (a group of queries, say) records nothing.
        c.note_drained(0);
        assert_eq!(c.snapshot().queue_depth, 0);
    }

    #[test]
    fn undo_rolls_back_depth_but_not_high_water() {
        let c = ShardCounters::new();
        c.note_enqueued();
        c.undo_enqueued();
        let s = c.snapshot();
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.queue_high_water, 1, "the attempt still observed depth 1");
    }

    #[test]
    fn latency_quantiles_are_ordered_and_bounded() {
        let c = ShardCounters::new();
        for ns in [500u64, 700, 900, 1_100, 40_000] {
            c.note_batch(ns);
        }
        let s = c.snapshot();
        let lat = s.batch_latency;
        let (min, p50, mean, p95, max) = (
            lat.min.expect("recorded"),
            lat.p50.expect("recorded"),
            lat.mean.expect("recorded"),
            lat.p95.expect("recorded"),
            lat.max.expect("recorded"),
        );
        assert_eq!(min, Duration::from_nanos(500));
        assert_eq!(max, Duration::from_nanos(40_000));
        assert!(min <= p50 && p50 <= p95 && p95 <= max, "{lat:?}");
        // Exact mean: (500+700+900+1100+40000)/5 = 8640.
        assert_eq!(mean, Duration::from_nanos(8_640));
        assert_eq!(s.batches, 5);
    }

    #[test]
    fn latency_sum_saturates_instead_of_wrapping() {
        let c = ShardCounters::new();
        c.note_batch(u64::MAX);
        c.note_batch(u64::MAX);
        let lat = c.snapshot().batch_latency;
        // A wrapping sum would make the mean collapse toward zero; the
        // saturating sum pins it at the ceiling instead.
        assert!(lat.mean.expect("recorded") >= Duration::from_nanos(u64::MAX / 2));
    }

    #[test]
    fn export_publishes_per_shard_gauges() {
        let registry = stardust_telemetry::Registry::new();
        let c = ShardCounters::new();
        c.appends.fetch_add(7, Ordering::Relaxed);
        c.note_batch(1_000);
        let stats = RuntimeStats { shards: vec![c.snapshot()] };
        stats.export(&registry);
        let text = registry.render_prometheus();
        assert!(text.contains("stardust_shard_appends{shard=\"0\"} 7"), "{text}");
        assert!(text.contains("stardust_shard_batches{shard=\"0\"} 1"), "{text}");
    }

    #[test]
    fn restarts_flow_through_snapshot_and_totals() {
        let c = ShardCounters::new();
        c.restarts.fetch_add(2, Ordering::Relaxed);
        let stats = RuntimeStats { shards: vec![c.snapshot(), ShardCounters::new().snapshot()] };
        assert_eq!(stats.shards[0].restarts, 2);
        assert_eq!(stats.total_restarts(), 2);
    }
}
