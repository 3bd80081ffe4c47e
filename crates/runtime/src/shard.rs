//! The per-shard worker: drains batches into the shard's
//! [`UnifiedMonitor`], remaps local stream ids back to global ones, and
//! answers scatter-gather queries in queue order. Also hosts the
//! fault-injection hooks and the crash-reporting [`Board`] the
//! supervisor watches.

use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stardust_core::query::aggregate::AlarmStats;
use stardust_core::query::correlation::CorrelationStats;
use stardust_core::query::trend::TrendStats;
use stardust_core::sketch::{BlockSketch, SketchDelta};
use stardust_core::stream::{StreamId, Time};
use stardust_core::unified::{Event, UnifiedMonitor};

use crate::fault::{FaultKind, FaultPlan};
use crate::queue::BoundedQueue;
use crate::snapshot::ShardRecovery;
use crate::stats::ShardCounters;
use crate::telemetry::RuntimeTelemetry;

/// Messages a shard's bounded queue carries. Queries ride the same
/// queue as batches, so each observes every batch submitted before it
/// (per-shard sequential consistency).
pub(crate) enum ShardMsg {
    /// A local-id value batch plus its submission instant.
    Batch(Vec<(StreamId, f64)>, Instant),
    /// A query and the channel to answer on.
    Query(QueryRequest, Sender<QueryReply>),
    /// Drain nothing further; reply channelless, exit the loop.
    Shutdown,
}

/// A scatter-gather query, expressed in shard-local stream ids (the
/// runtime translates global ids before sending).
#[derive(Debug, Clone)]
pub(crate) enum QueryRequest {
    /// Current composed interval of one monitored aggregate window.
    AggregateInterval {
        /// Local stream id.
        stream: StreamId,
        /// Monitored window size.
        window: usize,
    },
    /// Cumulative per-class counters.
    ClassStats,
    /// Phase 1 of the cross-shard correlation query: every local
    /// stream's correlation clock, so the collector can pick the global
    /// verification instant `t* = min` over all streams.
    CorrClock,
    /// Phase 3: ground-truth same-shard pairs at the global instant `t`,
    /// plus the raw windows ending at `t` for the listed local streams
    /// (the collector verifies cross-shard candidates with them).
    CorrVerify {
        /// Global verification instant.
        t: Time,
        /// Local ids whose raw windows the collector needs.
        windows_for: Vec<StreamId>,
    },
}

/// A shard's answer to a [`QueryRequest`]. Stream ids are already
/// remapped to global ids.
#[derive(Debug, Clone)]
pub(crate) enum QueryReply {
    /// `AggregateInterval` answer.
    AggregateInterval(Option<(f64, f64)>),
    /// `ClassStats` answer.
    ClassStats(ClassStats),
    /// `CorrClock` answer: one clock per local stream (empty when this
    /// shard runs no correlation monitor).
    CorrClock(Vec<Option<Time>>),
    /// `CorrVerify` answer.
    CorrVerify {
        /// Same-shard pairs at `t` (global ids, unsorted).
        pairs: Vec<(StreamId, StreamId, f64)>,
        /// Requested raw windows (global ids; `None` when the window
        /// ending at `t` is no longer in the stream's history).
        windows: Vec<(StreamId, Option<Vec<f64>>)>,
    },
}

/// Collector-side mirror of every stream's sliding-window sketch, keyed
/// by **global** stream id. Workers publish deltas on a cadence;
/// absorption is idempotent (deltas carry absolute block indices), so a
/// recovered worker re-shipping already-seen blocks never double-counts
/// — the exactly-once argument for the exchange is the delta frontier,
/// not delivery counting.
pub(crate) struct SketchBoard {
    slots: Mutex<Vec<Option<BlockSketch>>>,
    /// Sketch publications absorbed (one per stream per cadence firing).
    pub exchanges: std::sync::atomic::AtomicU64,
    /// Cross-shard pairs that survived the sketch prune and went to
    /// exact verification.
    pub candidates: std::sync::atomic::AtomicU64,
    /// Cross-shard pairs dismissed by the sketch lower bound.
    pub pruned: std::sync::atomic::AtomicU64,
    /// Cross-shard candidates confirmed by exact verification.
    pub confirmed: std::sync::atomic::AtomicU64,
}

impl SketchBoard {
    pub(crate) fn new(n_streams: usize) -> Self {
        SketchBoard {
            slots: Mutex::new((0..n_streams).map(|_| None).collect()),
            exchanges: std::sync::atomic::AtomicU64::new(0),
            candidates: std::sync::atomic::AtomicU64::new(0),
            pruned: std::sync::atomic::AtomicU64::new(0),
            confirmed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Absorbs one stream's delta into its mirror (created on first
    /// publication with the shipped geometry).
    pub(crate) fn publish(
        &self,
        stream: StreamId,
        window: usize,
        block: usize,
        delta: &SketchDelta,
    ) {
        let mut slots = self.slots.lock().expect("sketch board poisoned");
        slots[stream as usize].get_or_insert_with(|| BlockSketch::new(window, block)).absorb(delta);
        self.exchanges.fetch_add(1, Ordering::Relaxed);
    }

    /// A clone of every mirror, for the collector's prune pass.
    pub(crate) fn mirrors(&self) -> Vec<Option<BlockSketch>> {
        self.slots.lock().expect("sketch board poisoned").clone()
    }
}

/// Cumulative counters of all three query classes, mergeable across
/// shards by field-wise addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Aggregate (burst/volatility) counters.
    pub aggregate: AlarmStats,
    /// Trend counters.
    pub trend: TrendStats,
    /// Correlation counters.
    pub correlation: CorrelationStats,
}

impl ClassStats {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &ClassStats) {
        self.aggregate.checks += other.aggregate.checks;
        self.aggregate.candidates += other.aggregate.candidates;
        self.aggregate.true_alarms += other.aggregate.true_alarms;
        self.trend.candidates += other.trend.candidates;
        self.trend.matches += other.trend.matches;
        self.correlation.reported += other.correlation.reported;
        self.correlation.true_pairs += other.correlation.true_pairs;
    }
}

/// Local stream id → global stream id on `shard` of `n_shards`
/// (the inverse of `stream % S` / `stream / S`).
fn global_id(shard: usize, n_shards: usize, local: StreamId) -> StreamId {
    local * n_shards as StreamId + shard as StreamId
}

/// Frontier-driven sketch publication, shared by the live worker loop
/// and the recovery replay: once the slowest local stream has sealed
/// `cadence` new blocks past `last_shipped`, every local sketch ships
/// to the collector board (absorbed idempotently — re-publication after
/// a crash restore is a no-op on the mirrors). The recovery replay must
/// drive this too: batches a dead worker drained but never applied are
/// replayed from the journal rather than re-popped, and any cadence
/// boundary they cross has to fire exactly as it would have on the live
/// path.
pub(crate) fn publish_sketches_if_due(
    monitor: Option<&UnifiedMonitor>,
    shard: usize,
    n_shards: usize,
    sketches: &SketchBoard,
    cadence: u64,
    last_shipped: &mut u64,
    telemetry: &RuntimeTelemetry,
) {
    if cadence == 0 {
        return;
    }
    let Some(corr) = monitor.and_then(|m| m.correlation_monitor()) else {
        return;
    };
    let frontier = (0..corr.n_streams() as StreamId)
        .map(|s| {
            let sk = corr.sketch(s);
            sk.end_time().map_or(0, |t| (t + 1) / sk.block() as u64)
        })
        .min()
        .unwrap_or(0);
    if frontier < last_shipped.saturating_add(cadence) {
        return;
    }
    let start = Instant::now();
    for local in 0..corr.n_streams() as StreamId {
        let sk = corr.sketch(local);
        sketches.publish(global_id(shard, n_shards, local), sk.window(), sk.block(), &sk.delta());
    }
    *last_shipped = frontier;
    let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    telemetry.sketch_exchange.observe(ns);
    telemetry.sketch_exchanges.inc();
}

/// Rewrites an event's shard-local stream ids back to global ids.
pub(crate) fn remap_event(shard: usize, n_shards: usize, ev: Event) -> Event {
    match ev {
        Event::Aggregate { stream, alarm } => {
            Event::Aggregate { stream: global_id(shard, n_shards, stream), alarm }
        }
        Event::Trend(mut m) => {
            m.stream = global_id(shard, n_shards, m.stream);
            Event::Trend(m)
        }
        Event::Correlation(mut p) => {
            p.a = global_id(shard, n_shards, p.a);
            p.b = global_id(shard, n_shards, p.b);
            Event::Correlation(p)
        }
    }
}

/// What the board records for each shard.
struct BoardState {
    /// Shards whose workers died and await restoration, in death order.
    dead: Vec<usize>,
    /// `clean[s]`: shard `s`'s worker exited its loop normally.
    clean: Vec<bool>,
    /// `failed[s]`: shard `s` died with no supervisor to restore it (its
    /// queue is closed, producers see `Disconnected`).
    failed: Vec<bool>,
    /// Set once the runtime wants the supervisor gone.
    shutdown: bool,
}

/// Shared bulletin board between workers (reporting their own fate via
/// [`DeathNotice`]), the supervisor (waiting for dead shards), and the
/// runtime's shutdown path (waiting for every shard to settle).
pub(crate) struct Board {
    state: Mutex<BoardState>,
    cv: Condvar,
}

impl Board {
    pub(crate) fn new(n_shards: usize) -> Self {
        Board {
            state: Mutex::new(BoardState {
                dead: Vec::new(),
                clean: vec![false; n_shards],
                failed: vec![false; n_shards],
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn report_clean(&self, shard: usize) {
        self.state.lock().expect("board poisoned").clean[shard] = true;
        self.cv.notify_all();
    }

    fn report_dead(&self, shard: usize, terminal: bool) {
        let mut st = self.state.lock().expect("board poisoned");
        if terminal {
            st.failed[shard] = true;
        } else {
            st.dead.push(shard);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Marks a shard unrecoverable (the supervisor could not respawn a
    /// worker for it).
    pub(crate) fn mark_failed(&self, shard: usize) {
        self.state.lock().expect("board poisoned").failed[shard] = true;
        self.cv.notify_all();
    }

    /// Supervisor side: blocks until a shard dies (returning its id) or
    /// shutdown begins with no deaths pending (returning `None`).
    /// Pending deaths win over the shutdown flag so no shard is
    /// abandoned mid-restore.
    pub(crate) fn next_dead(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("board poisoned");
        loop {
            if let Some(shard) = st.dead.pop() {
                return Some(shard);
            }
            if st.shutdown {
                return None;
            }
            st = self.cv.wait(st).expect("board poisoned");
        }
    }

    /// Shutdown path: blocks until every shard either exited cleanly or
    /// failed terminally. While this waits the supervisor is still
    /// restoring crashed shards, so a shard that dies with `Shutdown`
    /// still queued gets one more worker to drain it.
    pub(crate) fn wait_all_settled(&self) {
        let mut st = self.state.lock().expect("board poisoned");
        while !st.clean.iter().zip(&st.failed).all(|(c, f)| *c || *f) {
            st = self.cv.wait(st).expect("board poisoned");
        }
    }

    /// Tells [`Self::next_dead`] to return once its backlog is empty.
    pub(crate) fn begin_shutdown(&self) {
        self.state.lock().expect("board poisoned").shutdown = true;
        self.cv.notify_all();
    }
}

/// Reports a worker's fate to the [`Board`] from `Drop`, so a panic
/// anywhere in the worker loop is reported on unwind. The loop flips
/// `clean` to `true` on its orderly exits; any other unwinding is a
/// death.
pub(crate) struct DeathNotice {
    pub shard: usize,
    pub board: Arc<Board>,
    pub clean: bool,
    /// With recovery disabled there is no supervisor to restore the
    /// shard, so death must close the queue (unparking producers into
    /// `Disconnected`) and is terminal.
    pub close_on_death: Option<Arc<BoundedQueue<ShardMsg>>>,
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if self.clean {
            self.board.report_clean(self.shard);
        } else {
            let terminal = self.close_on_death.is_some();
            if let Some(queue) = &self.close_on_death {
                queue.close();
            }
            self.board.report_dead(self.shard, terminal);
        }
    }
}

/// Most batches one drain may move into a commit group. Bounds the
/// coalesced WAL write (and the grouped event send) regardless of queue
/// capacity; a longer backlog simply commits as consecutive groups.
const MAX_GROUP_BATCHES: usize = 256;

/// Everything one worker thread owns: the shard identity, its monitor,
/// and the handles it shares with producers and the supervisor.
pub(crate) struct Worker {
    /// Shard index (stable across restarts).
    pub slot: usize,
    /// Total shards in the runtime (the placement modulus).
    pub n_shards: usize,
    /// Local streams on this shard.
    pub n_locals: usize,
    /// The shard's monitor (`None` when the spec builds none).
    pub monitor: Option<UnifiedMonitor>,
    /// The shard's crash-recovery journal; `None` disables journaling.
    pub recovery: Option<Arc<ShardRecovery>>,
    pub inbox: Arc<BoundedQueue<ShardMsg>>,
    pub events: Sender<Vec<Event>>,
    pub counters: Arc<ShardCounters>,
    /// Injected faults; `None` costs nothing on the append path.
    pub faults: Option<Arc<FaultPlan>>,
    /// Lifetime appends applied to this shard (including rejected
    /// non-finite samples — they are journaled and tick the clock):
    /// the deterministic fault clock.
    pub processed: u64,
    /// Snapshot cadence in appends; `0` never snapshots.
    pub snapshot_every: u64,
    /// Collector-side sketch mirrors this worker publishes to.
    pub sketches: Arc<SketchBoard>,
    /// Publish sketches every this many sealed blocks of the slowest
    /// local stream; `0` disables the exchange entirely.
    pub sketch_cadence: u64,
    /// Sealed-block frontier at the last sketch publication.
    /// Deliberately `0` on every (re)spawn: the re-publication it causes
    /// is absorbed idempotently by the board.
    pub last_shipped: u64,
    /// Runtime-level metric handles; detached when telemetry is off.
    pub telemetry: RuntimeTelemetry,
}

impl Worker {
    fn answer(&self, req: QueryRequest) -> QueryReply {
        let global = |local: StreamId| global_id(self.slot, self.n_shards, local);
        let Some(monitor) = &self.monitor else {
            return match req {
                QueryRequest::AggregateInterval { .. } => QueryReply::AggregateInterval(None),
                QueryRequest::ClassStats => QueryReply::ClassStats(ClassStats::default()),
                QueryRequest::CorrClock => QueryReply::CorrClock(Vec::new()),
                QueryRequest::CorrVerify { windows_for, .. } => QueryReply::CorrVerify {
                    pairs: Vec::new(),
                    windows: windows_for.iter().map(|&s| (global(s), None)).collect(),
                },
            };
        };
        match req {
            QueryRequest::AggregateInterval { stream, window } => QueryReply::AggregateInterval(
                monitor.aggregate_monitor(stream).and_then(|m| m.window_interval(window)),
            ),
            QueryRequest::ClassStats => {
                let mut stats = ClassStats::default();
                // Aggregate stats live per stream; trend/correlation are
                // monitor-wide.
                for local in 0..self.n_locals as StreamId {
                    let Some(m) = monitor.aggregate_monitor(local) else { break };
                    let s = m.stats();
                    stats.aggregate.checks += s.checks;
                    stats.aggregate.candidates += s.candidates;
                    stats.aggregate.true_alarms += s.true_alarms;
                }
                if let Some(t) = monitor.trend_monitor() {
                    stats.trend = t.stats();
                }
                if let Some(c) = monitor.correlation_monitor() {
                    stats.correlation = c.stats();
                }
                QueryReply::ClassStats(stats)
            }
            QueryRequest::CorrClock => {
                let clocks = monitor
                    .correlation_monitor()
                    .map(|corr| {
                        (0..corr.n_streams() as StreamId).map(|s| corr.summary(s).now()).collect()
                    })
                    .unwrap_or_default();
                QueryReply::CorrClock(clocks)
            }
            QueryRequest::CorrVerify { t, windows_for } => {
                let Some(corr) = monitor.correlation_monitor() else {
                    return QueryReply::CorrVerify {
                        pairs: Vec::new(),
                        windows: windows_for.iter().map(|&s| (global(s), None)).collect(),
                    };
                };
                let pairs = corr
                    .linear_scan_pairs(t)
                    .into_iter()
                    .map(|(a, b, c)| (global(a), global(b), c))
                    .collect();
                let n = corr.window();
                let windows = windows_for
                    .iter()
                    .map(|&local| (global(local), corr.summary(local).history().window(t, n)))
                    .collect();
                QueryReply::CorrVerify { pairs, windows }
            }
        }
    }

    /// The worker loop: drain message runs until `Shutdown` or the
    /// queue is closed and empty, whichever comes first. A contiguous
    /// run of batches commits as one group ([`Self::commit_group`]);
    /// queries and shutdown break runs and are handled singly, at their
    /// queue position — they are never buffered in worker-local state,
    /// so a crash mid-group cannot lose a query reply (journaled batches
    /// are the only messages the recovery protocol can replay).
    /// `notice` reports the exit (or a panic's unwind) to the board.
    pub fn run(mut self, notice: &mut DeathNotice) {
        let mut pending_delay: Option<Duration> = None;
        // Buffers reused across commit groups: the drained run, the
        // per-batch monitor output, and the run's remapped events.
        // Steady state allocates nothing per run — the one exception
        // is the exact-sized Vec that hands a non-empty run's events
        // to the collector (ownership crosses the channel).
        let mut msgs: Vec<ShardMsg> = Vec::new();
        let mut event_buf: Vec<Event> = Vec::new();
        let mut run_events: Vec<Event> = Vec::new();
        loop {
            if let Some(pause) = pending_delay.take() {
                std::thread::sleep(pause);
            }
            msgs.clear();
            let n = self
                .inbox
                .drain_into(&mut msgs, MAX_GROUP_BATCHES, |m| matches!(m, ShardMsg::Batch(..)));
            if n == 0 {
                notice.clean = true;
                return;
            }
            if matches!(msgs[0], ShardMsg::Batch(..)) {
                self.commit_group(&msgs, &mut event_buf, &mut run_events, &mut pending_delay);
            } else {
                match msgs.pop().expect("drained run is non-empty") {
                    ShardMsg::Query(req, reply) => {
                        let _ = reply.send(self.answer(req));
                    }
                    ShardMsg::Shutdown => {
                        notice.clean = true;
                        return;
                    }
                    ShardMsg::Batch(..) => unreachable!("batch heads commit as groups"),
                }
            }
        }
    }

    /// Commits one drained run of batches as a group commit: the
    /// queue's high-water mark was sampled at the pre-drain depth, the
    /// whole run is journaled under one coalesced WAL write before any
    /// batch is applied, and the run's events leave in one channel send
    /// followed by one durable ack.
    ///
    /// Crash safety: a panic anywhere past the journal step loses
    /// nothing — every batch of the run is already journaled, so the
    /// recovery replay regenerates exactly the journaled prefix's
    /// events, suppressing the ones this worker already sent (none
    /// mid-run: the send is a single all-or-nothing handoff after the
    /// last batch applied).
    fn commit_group(
        &mut self,
        msgs: &[ShardMsg],
        event_buf: &mut Vec<Event>,
        run_events: &mut Vec<Event>,
        pending_delay: &mut Option<Duration>,
    ) {
        fn batch(m: &ShardMsg) -> (&[(StreamId, f64)], Instant) {
            match m {
                ShardMsg::Batch(items, submitted) => (items, *submitted),
                _ => unreachable!("commit groups contain only batches"),
            }
        }
        // Only batches count toward queue depth; the drain predicate
        // guarantees the run is all batches.
        self.counters.note_drained(msgs.len());
        // Write-ahead for the whole run, before anything is applied.
        if let Some(rec) = &self.recovery {
            let _span = self.telemetry.journal.span();
            rec.journal_group(msgs.iter().map(|m| batch(m).0));
        }
        self.telemetry.group_size.observe(msgs.len() as u64);
        let mut rejected_total = 0u64;
        for msg in msgs {
            let (items, submitted) = batch(msg);
            if let Some(monitor) = &mut self.monitor {
                event_buf.clear();
                for &(local, value) in items {
                    self.processed += 1;
                    if let Some(plan) = &self.faults {
                        match plan.fire(self.slot, self.processed) {
                            Some(FaultKind::Panic) => panic!(
                                "injected fault: shard {} killed at append {}",
                                self.slot, self.processed
                            ),
                            Some(FaultKind::Stall(pause)) => std::thread::sleep(pause),
                            Some(FaultKind::DelayDrain(pause)) => {
                                *pending_delay = Some(pause);
                            }
                            None => {}
                        }
                    }
                    // Non-finite samples are rejected at the append
                    // boundary (the monitor guards identically, so a
                    // journaled NaN replays as the same no-op). The
                    // fault clock above still ticks for them.
                    if !value.is_finite() {
                        rejected_total += 1;
                        continue;
                    }
                    monitor.append_into(local, value, event_buf);
                }
                // Collect this batch's events behind the run's; they
                // ship once the whole run has applied, in batch order.
                for ev in event_buf.drain(..) {
                    run_events.push(remap_event(self.slot, self.n_shards, ev));
                }
            }
            self.counters.appends.fetch_add(items.len() as u64, Ordering::Relaxed);
            let ns = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.counters.note_batch(ns);
            self.telemetry.batch_latency.observe(ns);
            // Cadence is frontier-driven and board absorption is
            // idempotent, so publishing inside the run keeps the
            // exchange on the same per-batch schedule as before.
            publish_sketches_if_due(
                self.monitor.as_ref(),
                self.slot,
                self.n_shards,
                &self.sketches,
                self.sketch_cadence,
                &mut self.last_shipped,
                &self.telemetry,
            );
        }
        if rejected_total > 0 {
            self.counters.rejected.fetch_add(rejected_total, Ordering::Relaxed);
            self.telemetry.rejected.add(rejected_total);
        }
        let emitted = run_events.len() as u64;
        if emitted > 0 {
            // One send per event-bearing run. `split_off(0)` moves the
            // events into an exact-sized Vec for the collector while the
            // buffer keeps its capacity for the next run. A send error
            // means the runtime dropped its receiver (shutdown already
            // under way); keep draining so producers unblock.
            let _ = self.events.send(run_events.split_off(0));
            self.counters.events.fetch_add(emitted, Ordering::Relaxed);
            if let Some(rec) = &self.recovery {
                // The events are out; ack the cumulative count to the
                // durable WAL so a process-level recovery suppresses
                // exactly these.
                rec.note_emitted_n(emitted);
                rec.ack_emitted();
            }
        }
        // Snapshot only at run boundaries: the journal suffix holds
        // whole batches from the write-ahead step, and a snapshot must
        // not cover appends that have not been applied yet.
        if let Some(rec) = &self.recovery {
            if self.snapshot_every > 0 && rec.journal().suffix.len() as u64 >= self.snapshot_every {
                let _span = self.telemetry.snapshot.span();
                rec.record_snapshot(self.monitor.as_ref().map(|m| m.snapshot()));
            }
        }
    }
}
