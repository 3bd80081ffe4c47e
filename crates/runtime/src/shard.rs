//! The worker thread: the live shell over a shard's
//! [`ShardCore`]. It drains its bounded queue, commits each run of
//! batches as one group through the core (supplying the fault hooks,
//! the counters and the collector send), and answers scatter-gather
//! queries in queue order. Also hosts the collector's [`SketchBoard`]
//! and the crash-reporting [`Board`] the supervisor watches.

use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use stardust_core::query::aggregate::AlarmStats;
use stardust_core::query::correlation::CorrelationStats;
use stardust_core::query::trend::TrendStats;
use stardust_core::sketch::{BlockSketch, SketchDelta};
use stardust_core::stream::{StreamId, Time};
use stardust_core::unified::Event;

use crate::fault::{FaultKind, FaultPlan};
use crate::log::ShardLog;
use crate::queue::BoundedQueue;
use crate::stats::ShardCounters;
use crate::step::{ShardCore, Shell};
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

    /// A shard's worker died. `terminal`: no worker will be restored
    /// for it (its queue is closed).
    pub(crate) fn report_dead(&self, shard: usize, terminal: bool) {
        let mut st = self.state.lock().expect("board poisoned");
        if terminal {
            st.failed[shard] = true;
        } else {
            st.dead.push(shard);
        }
        drop(st);
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
    /// shard, so death must close the queue and drop what it holds
    /// (unparking producers and queued queries into `Disconnected`) and
    /// is terminal.
    pub close_on_death: Option<Arc<BoundedQueue<ShardMsg>>>,
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if self.clean {
            self.board.report_clean(self.shard);
        } else {
            let terminal = self.close_on_death.is_some();
            if let Some(queue) = &self.close_on_death {
                queue.abandon();
            }
            self.board.report_dead(self.shard, terminal);
        }
    }
}

/// Most batches one drain may move into a commit group. Bounds the
/// coalesced WAL write (and the grouped event send) regardless of queue
/// capacity; a longer backlog simply commits as consecutive groups.
const MAX_GROUP_BATCHES: usize = 256;

/// Everything one worker thread owns: the shard's core and the handles
/// it shares with producers and the supervisor.
pub(crate) struct Worker {
    /// Shard index (stable across restarts).
    pub slot: usize,
    pub core: ShardCore,
    /// The shard's log; `None` disables journaling.
    pub log: Option<Arc<Mutex<ShardLog>>>,
    pub inbox: Arc<BoundedQueue<ShardMsg>>,
    pub events: Sender<Vec<Event>>,
    pub counters: Arc<ShardCounters>,
    /// Injected faults; `None` costs nothing on the append path.
    pub faults: Option<Arc<FaultPlan>>,
    /// Runtime-level metric handles; detached when telemetry is off.
    pub telemetry: RuntimeTelemetry,
}

impl Worker {
    /// The worker loop: drain message runs until `Shutdown` or the
    /// queue is closed and empty, whichever comes first. A contiguous
    /// run of batches commits as one group ([`Self::commit_group`]);
    /// queries and shutdown break runs and are handled singly, at their
    /// queue position — they are never buffered in worker-local state,
    /// so a crash mid-group cannot lose a query reply (logged batches
    /// are the only messages a rebuild can replay).
    /// `notice` reports the exit (or a panic's unwind) to the board.
    pub fn run(mut self, notice: &mut DeathNotice) {
        let mut pending_delay: Option<Duration> = None;
        // The drained run is reused across groups, as the core reuses
        // its event buffers: steady state allocates nothing per run but
        // the exact-sized Vec that hands a non-empty run's events to
        // the collector (ownership crosses the channel).
        let mut msgs: Vec<ShardMsg> = Vec::new();
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
                self.commit_group(&msgs, &mut pending_delay);
            } else {
                match msgs.pop().expect("drained run is non-empty") {
                    ShardMsg::Query(req, reply) => {
                        let _ = reply.send(self.core.answer(req));
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

    /// Commits one drained run of batches as a group through the core.
    /// The queue's high-water mark was sampled at the pre-drain depth.
    ///
    /// # Panics
    /// Panics when the log cannot take the group's write-ahead record:
    /// the worker dies before applying anything from the group, the
    /// supervisor sees the wedged log and closes the shard, and
    /// producers observe `Disconnected` — fail-stop rather than
    /// divergence between the monitor and its log.
    fn commit_group(&mut self, msgs: &[ShardMsg], pending_delay: &mut Option<Duration>) {
        // Only batches count toward queue depth; the drain predicate
        // guarantees the run is all batches.
        self.counters.note_drained(msgs.len());
        self.telemetry.group_size.observe(msgs.len() as u64);
        let mut log = self.log.as_deref().map(|l| l.lock().unwrap_or_else(PoisonError::into_inner));
        let mut live = Live {
            slot: self.slot,
            msgs,
            events: &self.events,
            counters: &self.counters,
            faults: self.faults.as_deref(),
            telemetry: &self.telemetry,
            pending_delay,
        };
        let batches = msgs.iter().map(|m| batch(m).0);
        if let Err(e) = self.core.commit(log.as_deref_mut(), batches, &mut live) {
            panic!("shard WAL group append failed; failing stop: {e}");
        }
    }
}

fn batch(m: &ShardMsg) -> (&[(StreamId, f64)], Instant) {
    match m {
        ShardMsg::Batch(items, submitted) => (items, *submitted),
        _ => unreachable!("commit groups contain only batches"),
    }
}

/// The worker's [`Shell`] for one group.
struct Live<'a> {
    slot: usize,
    msgs: &'a [ShardMsg],
    events: &'a Sender<Vec<Event>>,
    counters: &'a ShardCounters,
    faults: Option<&'a FaultPlan>,
    telemetry: &'a RuntimeTelemetry,
    pending_delay: &'a mut Option<Duration>,
}

impl Shell for Live<'_> {
    fn tick(&mut self, append: u64) {
        let Some(plan) = self.faults else { return };
        match plan.fire(self.slot, append) {
            Some(FaultKind::Panic) => {
                panic!("injected fault: shard {} killed at append {append}", self.slot)
            }
            Some(FaultKind::Stall(pause)) => std::thread::sleep(pause),
            Some(FaultKind::DelayDrain(pause)) => *self.pending_delay = Some(pause),
            None => {}
        }
    }

    fn applied(&mut self, i: usize, rejected: u64) {
        let (items, submitted) = batch(&self.msgs[i]);
        self.counters.appends.fetch_add(items.len() as u64, Ordering::Relaxed);
        let ns = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.counters.note_batch(ns);
        self.telemetry.batch_latency.observe(ns);
        if rejected > 0 {
            self.counters.rejected.fetch_add(rejected, Ordering::Relaxed);
            self.telemetry.rejected.add(rejected);
        }
    }

    fn deliver(&mut self, events: &mut Vec<Event>) {
        // One send per event-bearing group. `split_off(0)` moves the
        // events into an exact-sized Vec for the collector while the
        // buffer keeps its capacity. A send error means the runtime
        // dropped its receiver (shutdown already under way); keep
        // draining so producers unblock.
        let n = events.len() as u64;
        let _ = self.events.send(events.split_off(0));
        self.counters.events.fetch_add(n, Ordering::Relaxed);
    }
}
