//! The sharded runtime: stream partitioning, bounded-queue ingestion
//! with backpressure, scatter-gather queries, supervised crash
//! recovery, elastic shard split/merge with exactly-once live
//! migration, and drain-then-join shutdown.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stardust_core::normalize;
use stardust_core::sketch::{SketchProjection, PRUNE_SLACK};
use stardust_core::stream::StreamId;
use stardust_core::unified::{Event, UnifiedMonitor};

use crate::fault::FaultPlan;
use crate::persist::{self, PersistConfig, RecoveryError, RecoveryReport, ShardRecoveryReport};
use crate::queue::{AdmitError, BoundedQueue, TryAdmitError};
use crate::routing::{GroupRoute, Routing};
use crate::shard::{
    remap_event, Board, DeathNotice, GroupState, QueryReply, QueryRequest, ShardMsg, SketchBoard,
    Worker,
};
use crate::snapshot::ShardRecovery;
use crate::spec::MonitorSpec;
use crate::stats::{CrossCorrStats, RuntimeStats, ShardCounters};
use crate::telemetry::RuntimeTelemetry;
use crate::{ClassStats, RuntimeError};

/// Worker-slot count, group count, and per-group stream counts for
/// `n_streams` streams. Streams with `g mod n_groups == group` live in
/// `group`; groups are placed on worker slots by the routing table
/// (initially `group mod n_shards`) and move between slots at runtime.
fn sizing(n_streams: usize, shards: usize, groups: usize) -> (usize, usize, Vec<usize>) {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let n_shards = if shards == 0 { hw } else { shards }.min(n_streams).max(1);
    let n_groups = if groups == 0 { n_shards } else { groups }.min(n_streams).max(1);
    let n_locals = (0..n_groups).map(|group| (n_streams - group).div_ceil(n_groups)).collect();
    (n_shards, n_groups, n_locals)
}

/// One rebalancing move chosen (and already executed) by
/// [`ShardedRuntime::rebalance_step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Groups moved off a hot slot onto an idle one.
    Split {
        /// The overloaded source slot.
        from: usize,
        /// The previously idle destination slot.
        to: usize,
        /// The groups that moved.
        groups: Vec<usize>,
    },
    /// A cold slot drained into a sibling and retired.
    Merge {
        /// The cold source slot (owns nothing afterwards).
        from: usize,
        /// The slot that absorbed its groups.
        into: usize,
        /// The groups that moved.
        groups: Vec<usize>,
    },
}

/// The bounded per-shard queue rejected a message; retry later or use a
/// blocking variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("shard queue full")
    }
}

impl std::error::Error for QueueFull {}

/// A group of values for ingestion, each tagged with its (global)
/// stream. Values of one stream are applied in batch order.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    items: Vec<(StreamId, f64)>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Appends one value for one stream.
    pub fn push(&mut self, stream: StreamId, value: f64) {
        self.items.push((stream, value));
    }

    /// Number of values in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The batched `(stream, value)` pairs, in push order.
    pub fn items(&self) -> &[(StreamId, f64)] {
        &self.items
    }

    /// Whether the batch holds no values.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl FromIterator<(StreamId, f64)> for Batch {
    fn from_iter<I: IntoIterator<Item = (StreamId, f64)>>(iter: I) -> Self {
        Batch { items: iter.into_iter().collect() }
    }
}

/// `try_submit` could not enqueue everything; `rejected` holds the
/// unqueued remainder (per-stream order preserved) for retry.
#[derive(Debug, Clone)]
pub struct PartialSubmit {
    /// Values that were not enqueued.
    pub rejected: Batch,
    /// Values that were enqueued before the first full queue.
    pub accepted: usize,
}

/// Crash-recovery tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Snapshot each shard's monitor after this many journaled appends;
    /// crash recovery then replays at most this many values. `0` never
    /// snapshots — recovery replays the shard's entire input from the
    /// journal (simplest, but the journal grows without bound).
    pub snapshot_every: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { snapshot_every: 1024 }
    }
}

/// Runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker shards. `0` means one per available CPU. Clamped to the
    /// stream count (an empty shard serves nothing).
    pub shards: usize,
    /// Stream groups — the unit of elastic rebalancing. Streams are
    /// partitioned `stream mod groups`; each group is owned by exactly
    /// one worker slot and can migrate between slots at runtime
    /// ([`ShardedRuntime::split_shard`] / [`ShardedRuntime::merge_shard`]).
    /// `0` — the default — means one group per shard, which pins the
    /// placement to the classic `stream mod shards` layout (bit-identical
    /// to the pre-elastic runtime, but with nothing to split). Set it
    /// above `shards` to give the runtime room to rebalance.
    pub groups: usize,
    /// Extra worker slots spawned at launch beyond `shards`, idle until
    /// a split moves groups onto them. Split destinations must be
    /// pre-spawned: migration hands state over through queues, not by
    /// creating threads mid-protocol.
    pub spare_shards: usize,
    /// Respawn-storm cap: if one worker slot restarts more than this
    /// many times within [`Self::restart_window`], the supervisor stops
    /// restarting it and fails the slot for good — producers get
    /// [`RuntimeError::RespawnStorm`] instead of an unbounded
    /// crash/restore loop.
    pub max_restarts_in_window: u32,
    /// Sliding window for [`Self::max_restarts_in_window`].
    pub restart_window: Duration,
    /// Bounded queue capacity per shard, in messages (batches), not
    /// values. When a queue is full, `try_*` reports [`QueueFull`] and
    /// the blocking variants wait — that is the backpressure contract.
    pub queue_capacity: usize,
    /// Crash recovery. `Some` (the default) journals every batch,
    /// snapshots on the policy's cadence, and runs a supervisor thread
    /// that restores crashed shard workers with exactly-once event
    /// delivery. `None` disables all of it: a crashed shard is terminal
    /// and its producers see [`RuntimeError::Disconnected`].
    pub recovery: Option<RecoveryPolicy>,
    /// Deterministic fault injection (tests). `None` — the
    /// default — costs one pointer check per append.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Metrics registry. `Some` wires every shard's monitor, the batch
    /// latency path, and the recovery machinery into the registry (see
    /// DESIGN.md §Observability for the series catalogue); restored
    /// workers are re-attached automatically after a crash. `None` — the
    /// default — leaves every handle detached: one branch per would-be
    /// sample.
    pub telemetry: Option<stardust_telemetry::Registry>,
    /// Sketch-exchange cadence for the cross-shard correlation path, in
    /// sealed sketch blocks: each shard re-publishes its streams'
    /// sliding-window sketches to the collector board once its slowest
    /// local stream has sealed this many new blocks. `0` disables the
    /// exchange — [`ShardedRuntime::correlated_pairs`] stays exact but
    /// verifies every cross-shard pair without sketch pruning.
    pub sketch_cadence: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: 0,
            groups: 0,
            spare_shards: 0,
            max_restarts_in_window: 64,
            restart_window: Duration::from_secs(10),
            queue_capacity: 64,
            recovery: Some(RecoveryPolicy::default()),
            fault_plan: None,
            telemetry: None,
            sketch_cadence: 1,
        }
    }
}

/// Result of [`ShardedRuntime::shutdown`]: final counters plus every
/// event not yet drained.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final per-shard counters.
    pub stats: RuntimeStats,
    /// Events emitted after the last `drain_events` call, in collector
    /// arrival order.
    pub events: Vec<Event>,
}

/// State shared by producers, workers, the supervisor, and the
/// migration coordinator. Everything a restored worker needs to resume
/// a dead slot lives here.
struct Shared {
    spec: MonitorSpec,
    /// Worker slots (`shards + spare_shards`), all spawned at launch.
    n_workers: usize,
    /// Stream groups — the routing modulus.
    n_groups: usize,
    /// Streams per group.
    n_locals: Vec<usize>,
    snapshot_every: u64,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Registry monitors re-attach to after a crash restore; `None`
    /// when telemetry is off.
    telemetry: Option<stardust_telemetry::Registry>,
    /// Runtime-level handles (batch latency, recovery timings); fully
    /// detached when telemetry is off.
    runtime_telemetry: RuntimeTelemetry,
    /// Per-slot queues. They live outside any worker so a worker crash
    /// loses no queued message — the restored worker resumes draining.
    queues: Vec<Arc<BoundedQueue<ShardMsg>>>,
    /// Per-slot queue capacity, for the rebalance policy's depth signal.
    queue_capacity: usize,
    counters: Vec<Arc<ShardCounters>>,
    /// Epoch-versioned group→slot routing table.
    routing: Arc<Routing>,
    /// Serializes migrations: one group moves at a time, so the
    /// freeze/seal/adopt/promote window never overlaps another's.
    migration: Mutex<()>,
    /// Completed migrations (splits and merges both count per group).
    migrations: AtomicU64,
    /// Per-slot append counts at the last `rebalance_step`, for the
    /// append-rate half of the policy signal.
    last_appends: Mutex<Vec<u64>>,
    /// Slots the supervisor fail-stopped for restarting too fast,
    /// with the restart count that tripped the cap.
    storms: Mutex<Vec<(usize, u32)>>,
    /// Per-slot restart timestamps inside the storm window.
    restart_history: Mutex<Vec<VecDeque<Instant>>>,
    max_restarts_in_window: u32,
    restart_window: Duration,
    /// Collector-side sketch mirrors for the cross-shard correlation
    /// path, keyed by global stream id.
    sketches: Arc<SketchBoard>,
    /// Sketch-exchange cadence in sealed blocks (`0` = disabled).
    sketch_cadence: u64,
    /// Per-**group** recovery journals (a group's journal travels with
    /// it across slots); `None` when recovery is disabled.
    recovery: Option<Vec<Arc<ShardRecovery>>>,
    board: Arc<Board>,
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// The collector sender respawned workers clone; dropped (set to
    /// `None`) once every worker has joined so the receiver disconnects.
    /// Carries one `Vec<Event>` per commit group (bulk delivery), not
    /// one message per event.
    events_tx: Mutex<Option<Sender<Vec<Event>>>>,
}

impl Shared {
    fn spawn_worker(
        self: &Arc<Self>,
        slot: usize,
        groups: BTreeMap<usize, GroupState>,
        processed: u64,
    ) -> std::io::Result<JoinHandle<()>> {
        let events = self
            .events_tx
            .lock()
            .expect("events sender poisoned")
            .clone()
            .expect("worker spawned after shutdown");
        let worker = Worker {
            slot,
            n_groups: self.n_groups,
            groups,
            inbox: Arc::clone(&self.queues[slot]),
            events,
            counters: Arc::clone(&self.counters[slot]),
            faults: self.fault_plan.clone(),
            processed,
            snapshot_every: self.snapshot_every,
            sketches: Arc::clone(&self.sketches),
            sketch_cadence: self.sketch_cadence,
            routing: Arc::clone(&self.routing),
            telemetry: self.runtime_telemetry.clone(),
        };
        let board = Arc::clone(&self.board);
        // Without a supervisor a death is terminal: the dying worker
        // must close its queue so producers fail fast instead of
        // parking forever.
        let close_on_death =
            if self.recovery.is_none() { Some(Arc::clone(&self.queues[slot])) } else { None };
        std::thread::Builder::new().name(format!("stardust-shard-{slot}")).spawn(move || {
            let mut notice = DeathNotice { shard: slot, board, clean: false, close_on_death };
            worker.run(&mut notice);
        })
    }

    /// Fail-stops a slot for good: queue closed (producers unpark into
    /// an error), board told, every route through the slot poisoned.
    fn fail_slot(&self, slot: usize, storm_restarts: Option<u32>) {
        if let Some(restarts) = storm_restarts {
            self.storms.lock().unwrap_or_else(PoisonError::into_inner).push((slot, restarts));
        }
        self.queues[slot].close();
        self.board.mark_failed(slot);
        self.routing.mark_worker_failed(slot);
    }

    /// The error producers see for a permanently failed route: a
    /// respawn storm if the supervisor tripped the cap, otherwise plain
    /// disconnection.
    fn route_failed_error(&self) -> RuntimeError {
        let storms = self.storms.lock().unwrap_or_else(PoisonError::into_inner);
        match storms.first() {
            Some(&(shard, restarts)) => RuntimeError::RespawnStorm { shard, restarts },
            None => RuntimeError::Disconnected,
        }
    }

    /// Supervisor path: joins the dead worker, rebuilds every group the
    /// slot still owes state for from the groups' journals (replaying
    /// undelivered events), and spawns a replacement that resumes
    /// draining the same queue. The respawn set is routing-derived: it
    /// heals deaths mid-migration by re-pushing consumed-but-unsealed
    /// `MigrateOut` markers and re-rebuilding adopted-but-unpromoted
    /// groups from their journals.
    fn restore_shard(self: &Arc<Self>, slot: usize) {
        if let Some(handle) = self.handles.lock().expect("handles poisoned")[slot].take() {
            let _ = handle.join();
        }
        // Respawn-storm cap: a slot that keeps dying faster than the
        // window allows is failed for good rather than looped forever.
        {
            let mut history = self.restart_history.lock().unwrap_or_else(PoisonError::into_inner);
            let now = Instant::now();
            let h = &mut history[slot];
            h.push_back(now);
            while h.front().is_some_and(|&t| now.duration_since(t) > self.restart_window) {
                h.pop_front();
            }
            if h.len() as u32 > self.max_restarts_in_window {
                let restarts = h.len() as u32;
                drop(history);
                self.fail_slot(slot, Some(restarts));
                return;
            }
        }
        let recs = self.recovery.as_ref().expect("supervisor requires recovery");
        let events = self
            .events_tx
            .lock()
            .expect("events sender poisoned")
            .clone()
            .expect("restore after shutdown");
        let restore_span = self.runtime_telemetry.restore.span();
        let mut groups: BTreeMap<usize, GroupState> = BTreeMap::new();
        let mut processed = 0u64;
        let mut markers = Vec::new();
        for (group, needs_marker) in self.routing.respawn_set(slot) {
            let rec = &recs[group];
            let rebuilt = rec.rebuild_state(
                &self.spec,
                self.n_locals[group],
                group,
                self.n_groups,
                &events,
                &self.sketches,
                self.sketch_cadence,
                &self.runtime_telemetry,
            );
            let Some((mut monitor, appends)) = rebuilt else {
                // The group's durable WAL is wedged (torn write or
                // failed rotation): an in-memory rebuild would accept
                // appends the disk can no longer journal, so the whole
                // slot fails stop (its other groups' journals are fine
                // but the slot's fate is one fail-stop decision).
                drop(restore_span);
                self.fail_slot(slot, None);
                return;
            };
            // The replay above ran detached (a restored monitor never
            // counts replayed appends twice); re-attach for the group's
            // second life.
            if let (Some(registry), Some(m)) = (&self.telemetry, monitor.as_mut()) {
                m.attach_telemetry(registry);
            }
            groups.insert(
                group,
                GroupState {
                    n_locals: self.n_locals[group],
                    monitor,
                    recovery: Some(Arc::clone(rec)),
                    appends,
                    emitted: rec.emitted(),
                    // Reset on every (re)spawn: the restored worker
                    // re-publishes its sketches, absorbed idempotently.
                    last_shipped: 0,
                },
            );
            processed += appends;
            if needs_marker {
                markers.push(group);
            }
        }
        drop(restore_span);
        // Absolute stores, not deltas: they heal a counter move a death
        // interrupted halfway (sealed but not adopted, or vice versa).
        let counters = &self.counters[slot];
        counters.appends.store(groups.values().map(|g| g.appends).sum(), Ordering::Relaxed);
        counters.events.store(groups.values().map(|g| g.emitted).sum(), Ordering::Relaxed);
        counters.restarts.fetch_add(1, Ordering::Relaxed);
        // Dead-with-marker-consumed groups get their marker back. Force
        // push: the supervisor must never park on a full queue, and the
        // marker is control flow, not capacity-counted load.
        for group in markers {
            let _ = self.queues[slot].force_push(ShardMsg::MigrateOut(group));
        }
        match self.spawn_worker(slot, groups, processed) {
            Ok(handle) => {
                self.handles.lock().expect("handles poisoned")[slot] = Some(handle);
            }
            Err(_) => {
                // Can't spawn a replacement thread: give the slot up.
                self.fail_slot(slot, None);
            }
        }
    }

    /// Moves one group to slot `to` through the freeze → seal → rebuild
    /// → adopt → promote protocol. Serialized (one migration at a
    /// time); exactly-once by construction — the group's journal is the
    /// unit of handoff, and the ack-suppression arithmetic that already
    /// proves crash recovery proves the replay resends nothing (the
    /// source sealed gracefully, so everything it emitted is acked).
    fn migrate_group(self: &Arc<Self>, group: usize, to: usize) -> Result<(), RuntimeError> {
        let Some(recs) = self.recovery.as_ref() else {
            return Err(RuntimeError::MigrationUnsupported);
        };
        if group >= self.n_groups {
            return Err(RuntimeError::Rebalance { detail: "group index out of range" });
        }
        if to >= self.n_workers {
            return Err(RuntimeError::Rebalance { detail: "destination slot out of range" });
        }
        let _serial = self.migration.lock().unwrap_or_else(PoisonError::into_inner);
        let from = match self.routing.freeze(group, to) {
            Ok(from) => from,
            // Already where it should be: a no-op, not an error.
            Err(GroupRoute::Steady(w)) if w == to => return Ok(()),
            Err(GroupRoute::Failed) => return Err(self.route_failed_error()),
            Err(_) => return Err(RuntimeError::Rebalance { detail: "group is mid-migration" }),
        };
        let started = Instant::now();
        // Queue the seal marker. Everything for the group admitted
        // before the freeze is FIFO-ahead of it; nothing lands behind
        // (admission closures re-check the route under the queue lock).
        if self.queues[from].push(ShardMsg::MigrateOut(group)).is_err() {
            self.routing.thaw(group, from);
            return Err(self.route_failed_error());
        }
        match self.routing.wait_handed(group) {
            GroupRoute::Handed { .. } => {}
            _ => return Err(self.route_failed_error()),
        }
        // The source sealed: its journal is the group's complete,
        // quiescent state (emitted == acked). Rebuild a warm monitor
        // from it; the replay resends nothing.
        let events = self
            .events_tx
            .lock()
            .expect("events sender poisoned")
            .clone()
            .ok_or(RuntimeError::Disconnected)?;
        let rec = &recs[group];
        let rebuilt = rec.rebuild_state(
            &self.spec,
            self.n_locals[group],
            group,
            self.n_groups,
            &events,
            &self.sketches,
            self.sketch_cadence,
            &self.runtime_telemetry,
        );
        let Some((mut monitor, appends)) = rebuilt else {
            // Wedged journal mid-migration: the group cannot be handed
            // to anyone (its WAL refuses appends). Fail the group, not
            // the runtime.
            self.routing.mark_group_failed(group);
            return Err(RuntimeError::Disconnected);
        };
        if let (Some(registry), Some(m)) = (&self.telemetry, monitor.as_mut()) {
            m.attach_telemetry(registry);
        }
        let state = GroupState {
            n_locals: self.n_locals[group],
            monitor,
            recovery: Some(Arc::clone(rec)),
            appends,
            emitted: rec.emitted(),
            last_shipped: 0,
        };
        // Queue the adoption, then promote. FIFO puts the payload ahead
        // of any batch admitted after the flip, and a destination crash
        // between the two is healed by its respawn set (`Handed{to}` ⇒
        // rebuild from the journal; the stale payload is dropped).
        if self.queues[to].push(ShardMsg::Adopt(group, Box::new(state))).is_err() {
            self.routing.mark_group_failed(group);
            return Err(self.route_failed_error());
        }
        self.routing.promote(group);
        // The seal/adopt pair transfers the group's historical append
        // count between the slot counters; shift the rebalance baseline
        // by the same amount so the transfer never reads as fresh load
        // (otherwise the policy sees the destination as hot and
        // thrashes).
        {
            let mut last = self.last_appends.lock().unwrap_or_else(PoisonError::into_inner);
            last[from] = last[from].saturating_sub(appends);
            last[to] += appends;
        }
        self.migrations.fetch_add(1, Ordering::Relaxed);
        self.runtime_telemetry.migrations.inc();
        let ms = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
        self.runtime_telemetry.migration_ms.observe(ms);
        Ok(())
    }
}

/// A multi-threaded monitor over `M` streams, partitioned into `G`
/// stream groups placed across `S` worker shards.
///
/// Stream `g` lives in group `g mod G` as local stream `g div G`; each
/// group owns a private [`stardust_core::unified::UnifiedMonitor`] over
/// its slice and communicates only through channels, so no monitor
/// state is ever shared or locked. By default `G = S` and every group
/// is pinned to its identity slot — the classic immutable layout. With
/// [`RuntimeConfig::groups`] `> S` the runtime is *elastic*: groups
/// migrate between worker slots online ([`Self::split_shard`] /
/// [`Self::merge_shard`]) through an exactly-once handoff protocol
/// built on the same journal/ack machinery as crash recovery, and
/// ingestion and queries issued mid-migration return exactly what an
/// unresized run would.
///
/// **Semantics vs. a single monitor.** Aggregate and trend monitoring
/// are per-stream computations: the sharded runtime emits *exactly* the
/// events a single-threaded monitor would (the determinism test in
/// `tests/` proves the set equality). Correlation is a cross-stream
/// computation with two surfaces: pushed [`Event::Correlation`] events
/// remain **partitioned** (each shard's index search covers its own
/// streams only), while the pulled [`Self::correlated_pairs`] query
/// covers **every** pair, cross-shard included — shards publish
/// sliding-window sketches to a collector board on a cadence, the
/// collector prunes distant cross-shard pairs with a no-false-dismissal
/// distance bound, and surviving candidates are verified exactly
/// against the owning shards' raw windows. With `S = 1` the runtime is
/// exactly the paper's semantics on one core.
///
/// **Backpressure.** Per-shard queues are bounded at
/// [`RuntimeConfig::queue_capacity`] messages. `try_append` /
/// `try_submit` never block: a full queue returns [`QueueFull`] (or a
/// [`PartialSubmit`] remainder). `append_blocking` / `submit_blocking`
/// park the producer until the worker drains. Queries share the same
/// queues, so a query answered by a shard has observed every batch
/// submitted to that shard before it.
///
/// **Crash recovery.** With [`RuntimeConfig::recovery`] enabled (the
/// default), every batch is journaled before it is applied and each
/// shard's monitor is snapshotted on a configurable cadence. A
/// supervisor thread watches for dead workers; when one dies it
/// restores the monitor from the last snapshot, replays the journaled
/// suffix (suppressing the events the dead worker already delivered),
/// and spawns a replacement that resumes draining the *same* queue — no
/// queued batch or query is lost, no event is delivered twice, and the
/// recovered event stream is bit-identical to an unfaulted run.
pub struct ShardedRuntime {
    n_streams: usize,
    shared: Arc<Shared>,
    /// The collector receiver. `mpsc::Receiver` is `!Sync`, so it lives
    /// behind a mutex: the runtime itself is then `Sync` and a network
    /// front end can share one instance across handler threads while a
    /// single collector thread drains events. Each message is one commit
    /// group's events; `drain_events` flattens them in arrival order.
    events_rx: Mutex<Receiver<Vec<Event>>>,
    supervisor: Option<JoinHandle<()>>,
    finished: bool,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("n_streams", &self.n_streams)
            .field("n_shards", &self.shared.n_workers)
            .field("n_groups", &self.shared.n_groups)
            .field("epoch", &self.shared.routing.epoch())
            .field("recovery", &self.shared.recovery.is_some())
            .finish_non_exhaustive()
    }
}

impl ShardedRuntime {
    /// Launches workers for `n_streams` streams described by `spec`.
    ///
    /// # Errors
    /// Fails on zero streams, a spec with no query class, or a rejected
    /// trend pattern.
    pub fn launch(
        spec: &MonitorSpec,
        n_streams: usize,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        if n_streams == 0 {
            return Err(RuntimeError::NoStreams);
        }
        let (n_shards, n_groups, n_locals) = sizing(n_streams, config.shards, config.groups);
        let n_workers = n_shards + config.spare_shards;
        let with_recovery = config.recovery.is_some();
        let mut seeds: Vec<(usize, Option<UnifiedMonitor>, u64)> = Vec::with_capacity(n_groups);
        for (group, &n_local) in n_locals.iter().enumerate() {
            let mut monitor = spec.build(n_local)?;
            if let (Some(registry), Some(m)) = (&config.telemetry, monitor.as_mut()) {
                m.attach_telemetry(registry);
            }
            seeds.push((group, monitor, 0));
        }
        let runtime_telemetry =
            config.telemetry.as_ref().map(RuntimeTelemetry::new).unwrap_or_default();

        let (events_tx, events_rx) = mpsc::channel();
        let shared = Self::assemble(
            spec,
            n_locals,
            n_workers,
            config,
            events_tx,
            runtime_telemetry,
            (0..n_workers).map(|_| Arc::new(ShardCounters::new())).collect(),
            with_recovery
                .then(|| (0..n_groups).map(|_| Arc::new(ShardRecovery::new(None))).collect()),
        );
        Self::start_workers(&shared, seeds)?;
        let supervisor = if with_recovery { Some(Self::start_supervisor(&shared)?) } else { None };
        Ok(ShardedRuntime {
            n_streams,
            shared,
            events_rx: Mutex::new(events_rx),
            supervisor,
            finished: false,
        })
    }

    /// Opens (or creates) a durable runtime backed by `persist.dir`.
    ///
    /// The directory is scanned shard by shard: snapshot and WAL
    /// checksums are validated, torn WAL tails are truncated, a corrupt
    /// current snapshot falls back to the previous generation, and the
    /// WAL suffix past the recovered snapshot is replayed through the
    /// restored monitors. Events the previous process had not yet
    /// delivered (per the WAL's ack records) are re-emitted and show up
    /// in the next [`Self::drain_events`]; delivered ones are
    /// suppressed. Each shard then rotates to a fresh snapshot
    /// generation and resumes journaling every batch to its
    /// `shard-N.wal`.
    ///
    /// Crash recovery is forced on (a durable runtime without a
    /// supervisor would lose the WAL's exactly-once arithmetic). The
    /// caller must open with the same spec and stream count the
    /// directory was written under — the shard-file layout is checked,
    /// the spec is not.
    ///
    /// # Errors
    /// [`RuntimeError::Recovery`] when the directory cannot be
    /// recovered exactly (see [`RecoveryError`] for the taxonomy), plus
    /// every error [`Self::launch`] can return.
    pub fn open(
        spec: &MonitorSpec,
        n_streams: usize,
        mut config: RuntimeConfig,
        persist: PersistConfig,
    ) -> Result<(Self, RecoveryReport), RuntimeError> {
        if n_streams == 0 {
            return Err(RuntimeError::NoStreams);
        }
        if config.recovery.is_none() {
            config.recovery = Some(RecoveryPolicy::default());
        }
        let (n_shards, n_groups, n_locals) = sizing(n_streams, config.shards, config.groups);
        let n_workers = n_shards + config.spare_shards;
        let recovery_err = |e: RecoveryError| RuntimeError::Recovery(e);
        std::fs::create_dir_all(&persist.dir)
            .map_err(|e| recovery_err(RecoveryError::io(&persist.dir, e)))?;
        // Durable layout is per *group*: `shard-N` files hold group N's
        // journal, which travels with the group across worker slots.
        // (The on-disk names predate elastic routing.)
        persist::check_shard_layout(&persist.dir, n_groups).map_err(recovery_err)?;
        let runtime_telemetry =
            config.telemetry.as_ref().map(RuntimeTelemetry::new).unwrap_or_default();
        let (events_tx, events_rx) = mpsc::channel();

        let mut seeds = Vec::with_capacity(n_groups);
        let mut recoveries = Vec::with_capacity(n_groups);
        let mut report = RecoveryReport { shards: Vec::with_capacity(n_groups) };
        for group in 0..n_groups {
            let span = runtime_telemetry.disk_recovery.span();
            persist::apply_open_faults(&persist.dir, group, &config.fault_plan)
                .map_err(recovery_err)?;
            let rec = persist::recover_shard(&persist.dir, group).map_err(recovery_err)?;
            // Build from the spec first — this validates the spec for
            // every group even when a snapshot overrides the state.
            let mut monitor = spec.build(n_locals[group])?;
            if let Some(bytes) = &rec.snapshot {
                let restored = UnifiedMonitor::restore(bytes).map_err(|_| {
                    recovery_err(RecoveryError::CorruptSnapshot {
                        path: persist::ShardPaths::new(&persist.dir, group).snap,
                        detail: "checksummed monitor payload failed to decode \
                                 (spec or version mismatch?)",
                    })
                })?;
                monitor = Some(restored);
            }
            // Replay the WAL suffix. The first `already` regenerated
            // events were delivered (and acked) by the previous process;
            // the rest go to the collector now. A process killed mid-
            // migration recovers here too: the group's journal is
            // crash-consistent no matter which slot owned it (seal
            // fences the source before the destination writes), so
            // `open` lands in a consistent epoch-0 placement.
            let already = rec.last_ack - rec.emitted_at_snapshot;
            let mut regenerated = 0u64;
            let mut re_emitted = 0u64;
            if let Some(monitor) = monitor.as_mut() {
                let mut buf = Vec::new();
                let mut resend = Vec::new();
                for &(local, value) in &rec.suffix {
                    buf.clear();
                    monitor.append_into(local, value, &mut buf);
                    for ev in buf.drain(..) {
                        regenerated += 1;
                        if regenerated > already {
                            resend.push(remap_event(group, n_groups, ev));
                        }
                    }
                }
                if !resend.is_empty() {
                    re_emitted = resend.len() as u64;
                    let _ = events_tx.send(resend);
                }
            }
            runtime_telemetry.replayed.add(rec.suffix.len() as u64);
            if rec.truncated_bytes > 0 {
                runtime_telemetry.torn_truncations.inc();
            }
            if rec.used_fallback {
                runtime_telemetry.snapshot_fallbacks.inc();
            }
            // The replay ran detached; attach for the live phase.
            if let (Some(registry), Some(m)) = (&config.telemetry, monitor.as_mut()) {
                m.attach_telemetry(registry);
            }
            let durable_appends = rec.snapshot_appends + rec.suffix.len() as u64;
            let emitted = rec.emitted_at_snapshot + regenerated.max(already);
            let snap_bytes = monitor.as_ref().map(|m| m.snapshot());
            let disk = persist::ShardDisk::create(
                &persist.dir,
                group,
                persist.sync,
                config.fault_plan.clone(),
                runtime_telemetry.clone(),
                rec.max_gen,
                durable_appends,
                emitted,
                snap_bytes.as_deref(),
            )
            .map_err(|e| recovery_err(RecoveryError::io(&persist.dir, e)))?;
            drop(span);
            report.shards.push(ShardRecoveryReport {
                shard: group,
                durable_appends,
                replayed: rec.suffix.len() as u64,
                re_emitted,
                suppressed: already.min(regenerated),
                truncated_bytes: rec.truncated_bytes,
                used_fallback: rec.used_fallback,
                generation: disk.generation(),
            });
            recoveries.push(Arc::new(ShardRecovery::resumed(
                snap_bytes,
                durable_appends,
                emitted,
                Some(disk),
            )));
            seeds.push((group, monitor, durable_appends));
        }

        // Per-slot counters start at the sums of the groups initially
        // placed on each slot (`group mod n_shards`).
        let counters: Vec<Arc<ShardCounters>> =
            (0..n_workers).map(|_| Arc::new(ShardCounters::new())).collect();
        for (group, rec) in recoveries.iter().enumerate() {
            let slot = group % n_shards;
            let appends = report.shards[group].durable_appends;
            counters[slot].appends.fetch_add(appends, Ordering::Relaxed);
            counters[slot].events.fetch_add(rec.emitted(), Ordering::Relaxed);
        }

        let shared = Self::assemble(
            spec,
            n_locals,
            n_workers,
            config,
            events_tx,
            runtime_telemetry,
            counters,
            Some(recoveries),
        );
        Self::start_workers(&shared, seeds)?;
        let supervisor = Some(Self::start_supervisor(&shared)?);
        let rt = ShardedRuntime {
            n_streams,
            shared,
            events_rx: Mutex::new(events_rx),
            supervisor,
            finished: false,
        };
        Ok((rt, report))
    }

    /// Builds the shared state common to [`Self::launch`] and
    /// [`Self::open`].
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        spec: &MonitorSpec,
        n_locals: Vec<usize>,
        n_workers: usize,
        config: RuntimeConfig,
        events_tx: Sender<Vec<Event>>,
        runtime_telemetry: RuntimeTelemetry,
        counters: Vec<Arc<ShardCounters>>,
        recovery: Option<Vec<Arc<ShardRecovery>>>,
    ) -> Arc<Shared> {
        let n_groups = n_locals.len();
        let n_shards = n_workers - config.spare_shards;
        let n_streams: usize = n_locals.iter().sum();
        let queue_capacity = config.queue_capacity.max(1);
        // Initial placement: group g on slot g mod n_shards. With the
        // default groups == shards this is the identity — the classic
        // immutable layout.
        let assignment = (0..n_groups).map(|g| g % n_shards).collect();
        Arc::new(Shared {
            spec: spec.clone(),
            n_workers,
            n_groups,
            n_locals,
            snapshot_every: config.recovery.map(|r| r.snapshot_every).unwrap_or(0),
            fault_plan: config.fault_plan,
            telemetry: config.telemetry,
            runtime_telemetry,
            queues: (0..n_workers).map(|_| Arc::new(BoundedQueue::new(queue_capacity))).collect(),
            queue_capacity,
            counters,
            routing: Arc::new(Routing::new(assignment, n_workers)),
            migration: Mutex::new(()),
            migrations: AtomicU64::new(0),
            last_appends: Mutex::new(vec![0; n_workers]),
            storms: Mutex::new(Vec::new()),
            restart_history: Mutex::new(vec![VecDeque::new(); n_workers]),
            max_restarts_in_window: config.max_restarts_in_window,
            restart_window: config.restart_window,
            sketches: Arc::new(SketchBoard::new(n_streams)),
            sketch_cadence: config.sketch_cadence,
            recovery,
            board: Arc::new(Board::new(n_workers)),
            handles: Mutex::new((0..n_workers).map(|_| None).collect()),
            events_tx: Mutex::new(Some(events_tx)),
        })
    }

    /// Spawns every worker slot. `seeds` carries one entry per *group*
    /// (`(group, monitor, durable_appends)`); groups are bucketed onto
    /// their initial slots and spare slots start empty.
    fn start_workers(
        shared: &Arc<Shared>,
        seeds: Vec<(usize, Option<UnifiedMonitor>, u64)>,
    ) -> Result<(), RuntimeError> {
        let mut per_slot: Vec<BTreeMap<usize, GroupState>> =
            (0..shared.n_workers).map(|_| BTreeMap::new()).collect();
        let mut processed: Vec<u64> = vec![0; shared.n_workers];
        for (group, monitor, appends) in seeds {
            let slot = shared.routing.try_owner(group).expect("fresh routing is steady");
            let recovery = shared.recovery.as_ref().map(|r| Arc::clone(&r[group]));
            let emitted = recovery.as_ref().map_or(0, |r| r.emitted());
            per_slot[slot].insert(
                group,
                GroupState {
                    n_locals: shared.n_locals[group],
                    monitor,
                    recovery,
                    appends,
                    emitted,
                    last_shipped: 0,
                },
            );
            processed[slot] += appends;
        }
        for (slot, groups) in per_slot.into_iter().enumerate() {
            match shared.spawn_worker(slot, groups, processed[slot]) {
                Ok(handle) => shared.handles.lock().expect("handles poisoned")[slot] = Some(handle),
                Err(e) => {
                    // Unblock the workers already spawned; they drain
                    // nothing and exit.
                    for queue in &shared.queues {
                        queue.close();
                    }
                    return Err(RuntimeError::Spawn(e));
                }
            }
        }
        Ok(())
    }

    fn start_supervisor(shared: &Arc<Shared>) -> Result<JoinHandle<()>, RuntimeError> {
        let sup = Arc::clone(shared);
        std::thread::Builder::new()
            .name("stardust-supervisor".to_string())
            .spawn(move || {
                while let Some(shard) = sup.board.next_dead() {
                    sup.restore_shard(shard);
                }
            })
            .map_err(|e| {
                for queue in &shared.queues {
                    queue.close();
                }
                shared.board.begin_shutdown();
                RuntimeError::Spawn(e)
            })
    }

    /// Number of worker slots (including idle spares).
    pub fn n_shards(&self) -> usize {
        self.shared.n_workers
    }

    /// Number of stream groups — the unit of elastic rebalancing.
    pub fn n_groups(&self) -> usize {
        self.shared.n_groups
    }

    /// Number of worker slots currently owning at least one group.
    pub fn live_shards(&self) -> usize {
        self.shared.routing.live_workers()
    }

    /// Routing epoch: bumped once per completed group migration.
    pub fn epoch(&self) -> u64 {
        self.shared.routing.epoch()
    }

    /// Completed group migrations (splits and merges both count one per
    /// group moved).
    pub fn migrations(&self) -> u64 {
        self.shared.migrations.load(Ordering::Relaxed)
    }

    /// Number of monitored streams.
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// Total worker restarts performed by the supervisor so far.
    pub fn restarts(&self) -> u64 {
        self.shared.counters.iter().map(|c| c.restarts.load(Ordering::Relaxed)).sum()
    }

    fn place(&self, stream: StreamId) -> Result<(usize, StreamId), RuntimeError> {
        if (stream as usize) < self.n_streams {
            let g = self.shared.n_groups;
            Ok((stream as usize % g, stream / g as StreamId))
        } else {
            Err(RuntimeError::UnknownStream { stream, n_streams: self.n_streams })
        }
    }

    /// Blocks until `group` has a steady owner; maps routing failures
    /// to the producer-visible error.
    fn wait_owner(&self, group: usize) -> Result<usize, RuntimeError> {
        self.shared.routing.wait_steady(group).map_err(|failed| {
            if failed {
                self.shared.route_failed_error()
            } else {
                RuntimeError::Disconnected
            }
        })
    }

    /// Blocking push of one group's batch with migration-safe admission:
    /// the message is admitted only while the route still points at the
    /// resolved slot (checked under the queue lock, atomically against
    /// the coordinator's freeze), so no batch ever lands behind a
    /// `MigrateOut` marker. A refusal re-resolves and retries on the
    /// new owner.
    fn push_batch_blocking(
        &self,
        group: usize,
        mut items: Vec<(StreamId, f64)>,
        now: Instant,
    ) -> Result<(), RuntimeError> {
        loop {
            let slot = self.wait_owner(group)?;
            self.shared.counters[slot].note_enqueued();
            let routing = &self.shared.routing;
            match self.shared.queues[slot]
                .push_if(ShardMsg::Batch(group, items, now), || routing.is_steady_at(group, slot))
            {
                Ok(()) => return Ok(()),
                Err(AdmitError::Refused(ShardMsg::Batch(_, i, _))) => {
                    // The group migrated (or froze) while we waited;
                    // chase it to its new owner.
                    self.shared.counters[slot].undo_enqueued();
                    items = i;
                }
                Err(AdmitError::Closed(ShardMsg::Batch(_, i, _))) => {
                    self.shared.counters[slot].undo_enqueued();
                    if self.shared.recovery.is_none() {
                        return Err(RuntimeError::Disconnected);
                    }
                    // Slot fail-stopped; the routing table is marked
                    // failed momentarily after the close. Yield until
                    // wait_owner observes it.
                    items = i;
                    std::thread::yield_now();
                }
                Err(_) => unreachable!("pushed message is returned verbatim"),
            }
        }
    }

    /// Appends one value without blocking.
    ///
    /// # Errors
    /// [`RuntimeError::Backpressure`] when the owning shard's queue is
    /// full — or the stream's group is mid-migration — (the value is
    /// *not* enqueued; retry or use [`Self::append_blocking`]),
    /// [`RuntimeError::UnknownStream`] on an out-of-range id.
    pub fn try_append(&self, stream: StreamId, value: f64) -> Result<(), RuntimeError> {
        let (group, local) = self.place(stream)?;
        let slot = match self.shared.routing.try_owner(group) {
            Ok(slot) => slot,
            // Mid-migration: transient, report backpressure.
            Err(false) => return Err(RuntimeError::Backpressure(QueueFull)),
            Err(true) => return Err(self.shared.route_failed_error()),
        };
        let msg = ShardMsg::Batch(group, vec![(local, value)], Instant::now());
        self.shared.counters[slot].note_enqueued();
        let routing = &self.shared.routing;
        match self.shared.queues[slot].try_push_if(msg, || routing.is_steady_at(group, slot)) {
            Ok(()) => Ok(()),
            Err(TryAdmitError::Full(_)) | Err(TryAdmitError::Refused(_)) => {
                self.shared.counters[slot].undo_enqueued();
                Err(RuntimeError::Backpressure(QueueFull))
            }
            Err(TryAdmitError::Closed(_)) => {
                self.shared.counters[slot].undo_enqueued();
                Err(RuntimeError::Disconnected)
            }
        }
    }

    /// Appends one value, waiting while the owning shard's queue is
    /// full (or the stream's group is mid-migration).
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] on an out-of-range id,
    /// [`RuntimeError::Disconnected`] if the shard failed terminally,
    /// [`RuntimeError::RespawnStorm`] if the supervisor gave up on it.
    pub fn append_blocking(&self, stream: StreamId, value: f64) -> Result<(), RuntimeError> {
        let (group, local) = self.place(stream)?;
        self.push_batch_blocking(group, vec![(local, value)], Instant::now())
    }

    fn split(&self, batch: &Batch) -> Result<Vec<Vec<(StreamId, f64)>>, RuntimeError> {
        let mut per_group: Vec<Vec<(StreamId, f64)>> = vec![Vec::new(); self.shared.n_groups];
        for &(stream, value) in &batch.items {
            let (group, local) = self.place(stream)?;
            per_group[group].push((local, value));
        }
        Ok(per_group)
    }

    /// Submits a batch, waiting on full queues. Values are split into
    /// one message per involved stream group; per-stream order is
    /// preserved.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] on any out-of-range id (nothing
    /// is enqueued), [`RuntimeError::Disconnected`] if a shard failed
    /// terminally, [`RuntimeError::RespawnStorm`] if the supervisor
    /// gave up on one.
    pub fn submit_blocking(&self, batch: &Batch) -> Result<(), RuntimeError> {
        let now = Instant::now();
        for (group, items) in self.split(batch)?.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            self.push_batch_blocking(group, items, now)?;
        }
        Ok(())
    }

    /// Submits a batch without blocking. Sub-batches for groups with
    /// room are enqueued; the rest (including any group mid-migration)
    /// is returned for retry.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] on any out-of-range id (nothing
    /// is enqueued); otherwise `Ok` with an optional [`PartialSubmit`]
    /// remainder — `None` means everything was enqueued.
    pub fn try_submit(&self, batch: &Batch) -> Result<Option<PartialSubmit>, RuntimeError> {
        let now = Instant::now();
        let g_n = self.shared.n_groups as StreamId;
        let mut rejected = Batch::new();
        let mut accepted = 0usize;
        for (group, items) in self.split(batch)?.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let reject = |rejected: &mut Batch, items: Vec<(StreamId, f64)>| {
                rejected.items.extend(
                    items.into_iter().map(|(local, v)| (local * g_n + group as StreamId, v)),
                )
            };
            let slot = match self.shared.routing.try_owner(group) {
                Ok(slot) => slot,
                Err(false) => {
                    // Mid-migration: backpressure, retry later.
                    reject(&mut rejected, items);
                    continue;
                }
                Err(true) => return Err(self.shared.route_failed_error()),
            };
            let n = items.len();
            self.shared.counters[slot].note_enqueued();
            let routing = &self.shared.routing;
            match self.shared.queues[slot].try_push_if(ShardMsg::Batch(group, items, now), || {
                routing.is_steady_at(group, slot)
            }) {
                Ok(()) => {
                    accepted += n;
                }
                Err(TryAdmitError::Full(ShardMsg::Batch(_, items, _)))
                | Err(TryAdmitError::Refused(ShardMsg::Batch(_, items, _))) => {
                    self.shared.counters[slot].undo_enqueued();
                    reject(&mut rejected, items);
                }
                Err(TryAdmitError::Closed(_)) => {
                    self.shared.counters[slot].undo_enqueued();
                    return Err(RuntimeError::Disconnected);
                }
                Err(_) => unreachable!("only batches are retried"),
            }
        }
        if rejected.is_empty() {
            Ok(None)
        } else {
            Ok(Some(PartialSubmit { rejected, accepted }))
        }
    }

    /// Every event collected so far, in collector arrival order
    /// (interleaved across shards; per-stream order is preserved —
    /// groups arrive whole, so flattening them preserves each shard's
    /// emission order). Concurrent callers serialize on the collector
    /// receiver; each event is delivered to exactly one of them.
    pub fn drain_events(&self) -> Vec<Event> {
        self.events_rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .try_iter()
            .flatten()
            .collect()
    }

    /// A live counter snapshot (racy by one message against in-flight
    /// producers, by design).
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            shards: self.shared.counters.iter().map(|c| c.snapshot()).collect(),
            epoch: self.shared.routing.epoch(),
            live_shards: self.shared.routing.live_workers(),
            migrations: self.shared.migrations.load(Ordering::Relaxed),
        }
    }

    /// Routes `req` to `group`'s current owner, retrying across
    /// migrations until the push is admitted. The reply channel is
    /// tagged with the group id so gatherers can re-send on a
    /// [`QueryReply::Declined`] (the group moved after routing).
    fn send_group_query(
        &self,
        group: usize,
        req: QueryRequest,
        tx: &Sender<(usize, QueryReply)>,
    ) -> Result<(), RuntimeError> {
        loop {
            let slot = self.wait_owner(group)?;
            let routing = &self.shared.routing;
            match self.shared.queues[slot]
                .push_if(ShardMsg::Query(group, req.clone(), tx.clone()), || {
                    routing.is_steady_at(group, slot)
                }) {
                Ok(()) => return Ok(()),
                Err(AdmitError::Refused(_)) => continue,
                Err(AdmitError::Closed(_)) => {
                    if self.shared.recovery.is_none() {
                        return Err(RuntimeError::Disconnected);
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Gathers one reply per request in `reqs` (indexed by group),
    /// re-sending any query a worker declined because the group had
    /// migrated off it between routing and delivery. Migrations are
    /// serialized and finite, so the re-send loop terminates.
    fn gather(
        &self,
        rx: &Receiver<(usize, QueryReply)>,
        tx: &Sender<(usize, QueryReply)>,
        reqs: &[QueryRequest],
    ) -> Result<Vec<QueryReply>, RuntimeError> {
        let mut replies: Vec<Option<QueryReply>> = reqs.iter().map(|_| None).collect();
        let mut remaining = reqs.len();
        while remaining > 0 {
            // A worker crash cannot lose the query: it stays in the
            // shared queue and the restored worker answers it.
            let (group, reply) = rx.recv().map_err(|_| RuntimeError::Disconnected)?;
            if matches!(reply, QueryReply::Declined) {
                self.send_group_query(group, reqs[group].clone(), tx)?;
            } else {
                if replies[group].is_none() {
                    remaining -= 1;
                }
                replies[group] = Some(reply);
            }
        }
        Ok(replies.into_iter().map(|r| r.expect("loop exits only when filled")).collect())
    }

    /// Scatter-gather over every group; replies come back in group
    /// order.
    fn scatter(&self, req: QueryRequest) -> Result<Vec<QueryReply>, RuntimeError> {
        let reqs: Vec<QueryRequest> = (0..self.shared.n_groups).map(|_| req.clone()).collect();
        let (tx, rx) = mpsc::channel();
        for (group, req) in reqs.iter().enumerate() {
            self.send_group_query(group, req.clone(), &tx)?;
        }
        self.gather(&rx, &tx, &reqs)
    }

    /// One query against one group, retrying across migrations.
    fn query_group(&self, group: usize, req: QueryRequest) -> Result<QueryReply, RuntimeError> {
        let (tx, rx) = mpsc::channel();
        self.send_group_query(group, req.clone(), &tx)?;
        loop {
            let (_, reply) = rx.recv().map_err(|_| RuntimeError::Disconnected)?;
            if matches!(reply, QueryReply::Declined) {
                self.send_group_query(group, req.clone(), &tx)?;
                continue;
            }
            return Ok(reply);
        }
    }

    /// The current composed interval of one monitored aggregate window
    /// on one stream (routed to the owning shard; waits for queued
    /// batches ahead of it).
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] / [`RuntimeError::Disconnected`].
    pub fn aggregate_interval(
        &self,
        stream: StreamId,
        window: usize,
    ) -> Result<Option<(f64, f64)>, RuntimeError> {
        let (group, local) = self.place(stream)?;
        match self.query_group(group, QueryRequest::AggregateInterval { stream: local, window })? {
            QueryReply::AggregateInterval(ans) => Ok(ans),
            _ => Err(RuntimeError::Disconnected),
        }
    }

    /// Cumulative per-class counters, merged across all shards
    /// (scatter-gather).
    ///
    /// # Errors
    /// [`RuntimeError::Disconnected`] if a shard failed terminally.
    pub fn class_stats(&self) -> Result<ClassStats, RuntimeError> {
        let mut merged = ClassStats::default();
        for reply in self.scatter(QueryRequest::ClassStats)? {
            if let QueryReply::ClassStats(s) = reply {
                merged.merge(&s);
            }
        }
        Ok(merged)
    }

    /// Currently correlated pairs among **all** streams — same-shard and
    /// cross-shard — sorted by `(a, b)`.
    ///
    /// The result is set-identical to a single-threaded
    /// [`stardust_core::query::correlation::CorrelationMonitor::linear_scan_pairs`]
    /// over all streams at the global instant `t* = min` over every
    /// stream's correlation clock (queried under quiescence; concurrent
    /// ingest between the clock and verification phases can expire
    /// windows and drop pairs, exactly as it would invalidate any
    /// point-in-time answer).
    ///
    /// Three phases:
    /// 1. **Clock scatter** establishes `t*`. Any stream without a full
    ///    window yet ⇒ empty result (the reference behaves identically).
    /// 2. **Sketch prune**: cross-shard pairs whose board sketches are
    ///    complete, aligned at `t*`, and whose projection lower bound
    ///    exceeds `radius + PRUNE_SLACK` are dismissed — provably
    ///    outside the radius (no false dismissals; see
    ///    [`stardust_core::sketch`]). Stale or missing sketches are
    ///    never pruned on, only verified.
    /// 3. **Verify scatter** fetches each shard's exact same-shard pairs
    ///    at `t*` plus the raw windows of surviving candidates; the
    ///    collector confirms candidates with the exact z-normed
    ///    distance.
    ///
    /// # Errors
    /// [`RuntimeError::Disconnected`] if a shard failed terminally.
    pub fn correlated_pairs(&self) -> Result<Vec<(StreamId, StreamId, f64)>, RuntimeError> {
        let Some(corr_spec) = self.shared.spec.correlation.clone() else {
            return Ok(Vec::new());
        };

        // Phase 1: global verification instant.
        let mut clocks = Vec::with_capacity(self.n_streams);
        for reply in self.scatter(QueryRequest::CorrClock)? {
            if let QueryReply::CorrClock(c) = reply {
                clocks.extend(c);
            }
        }
        let Some(t) = clocks.iter().copied().min().flatten() else {
            return Ok(Vec::new());
        };

        // Phase 2: prune cross-shard pairs on the sketch board. A pair
        // is pruned only when both mirrors are complete windows ending
        // exactly at t* — anything stale goes to exact verification.
        // Each mirror is projected once (Θ(m), amortizing the moment
        // normalization out of the O(n²) pair loop).
        let mirrors = self.shared.sketches.mirrors();
        let s = self.shared.n_groups;
        let radius = corr_spec.radius;
        let projections: Vec<Option<SketchProjection>> = mirrors
            .iter()
            .map(|m| m.as_ref().and_then(|sk| sk.projection()).filter(|p| p.end_time() == t))
            .collect();
        let mut candidates: Vec<(StreamId, StreamId)> = Vec::new();
        let mut pruned = 0u64;
        for a in 0..self.n_streams {
            for b in (a + 1)..self.n_streams {
                if a % s == b % s {
                    continue; // same shard: covered by the exact scan below
                }
                let bound = match (&projections[a], &projections[b]) {
                    (Some(pa), Some(pb)) => pa.distance_lower_bound(pb),
                    _ => None,
                };
                if bound.is_some_and(|lb| lb > radius + PRUNE_SLACK) {
                    pruned += 1;
                } else {
                    candidates.push((a as StreamId, b as StreamId));
                }
            }
        }
        self.shared.sketches.pruned.fetch_add(pruned, Ordering::Relaxed);
        self.shared.sketches.candidates.fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.shared.runtime_telemetry.cross_pruned.add(pruned);
        self.shared.runtime_telemetry.cross_candidates.add(candidates.len() as u64);

        // Phase 3: exact same-group pairs at t* plus the raw windows of
        // every candidate. Requests differ per group, so this is a
        // custom scatter.
        let mut windows_for: Vec<Vec<StreamId>> = vec![Vec::new(); s];
        for &(a, b) in &candidates {
            for g in [a, b] {
                windows_for[g as usize % s].push(g / s as StreamId);
            }
        }
        for locals in &mut windows_for {
            locals.sort_unstable();
            locals.dedup();
        }
        let reqs: Vec<QueryRequest> = windows_for
            .into_iter()
            .map(|w| QueryRequest::CorrVerify { t, windows_for: w })
            .collect();
        let (tx, rx) = mpsc::channel();
        for (group, req) in reqs.iter().enumerate() {
            self.send_group_query(group, req.clone(), &tx)?;
        }
        let mut merged = Vec::new();
        let mut windows: std::collections::HashMap<StreamId, Option<Vec<f64>>> =
            std::collections::HashMap::new();
        for reply in self.gather(&rx, &tx, &reqs)? {
            if let QueryReply::CorrVerify { pairs, windows: w } = reply {
                merged.extend(pairs);
                windows.extend(w);
            }
        }
        // Verify candidates: each fetched window is z-normalized once,
        // and every pair is evaluated on the normalized vectors in
        // candidate order — bit-identical to correlating the raw windows
        // pair by pair, because `z_norm` is deterministic.
        let znormed: std::collections::HashMap<StreamId, Vec<f64>> = windows
            .iter()
            .filter_map(|(&g, w)| Some((g, normalize::z_norm(w.as_deref()?)?)))
            .collect();
        let mut confirmed = 0u64;
        for &(a, b) in &candidates {
            // A missing window (expired) or undefined z-norm (constant
            // window) skips the pair, as the reference linear scan does.
            let (Some(za), Some(zb)) = (znormed.get(&a), znormed.get(&b)) else {
                continue;
            };
            let corr = normalize::correlation_of_znormed(za, zb);
            if normalize::correlation_to_distance(corr) <= radius {
                merged.push((a, b, corr));
                confirmed += 1;
            }
        }
        self.shared.sketches.confirmed.fetch_add(confirmed, Ordering::Relaxed);
        self.shared.runtime_telemetry.cross_confirmed.add(confirmed);
        merged.sort_by_key(|x| (x.0, x.1));
        Ok(merged)
    }

    /// Cumulative cross-shard correlation-path counters: sketch
    /// publications absorbed by the collector board and the fate of
    /// every cross-shard pair [`Self::correlated_pairs`] has considered.
    pub fn cross_corr_stats(&self) -> CrossCorrStats {
        let b = &self.shared.sketches;
        CrossCorrStats {
            exchanges: b.exchanges.load(Ordering::Relaxed),
            candidates: b.candidates.load(Ordering::Relaxed),
            pruned: b.pruned.load(Ordering::Relaxed),
            confirmed: b.confirmed.load(Ordering::Relaxed),
        }
    }

    /// Online shard **split**: moves `groups` off slot `from` onto slot
    /// `to` (typically an idle spare — see
    /// [`RuntimeConfig::spare_shards`]), one exactly-once live migration
    /// per group. Ingestion and queries continue throughout; producers
    /// touching a moving group park for the freeze window and re-resolve.
    ///
    /// # Errors
    /// [`RuntimeError::MigrationUnsupported`] without recovery,
    /// [`RuntimeError::Rebalance`] on bad arguments (out-of-range slot
    /// or group, a group not owned by `from`),
    /// [`RuntimeError::Disconnected`] / [`RuntimeError::RespawnStorm`]
    /// if a slot involved failed terminally.
    pub fn split_shard(
        &self,
        from: usize,
        to: usize,
        groups: &[usize],
    ) -> Result<(), RuntimeError> {
        if from == to {
            return Err(RuntimeError::Rebalance { detail: "split source equals destination" });
        }
        if groups.is_empty() {
            return Err(RuntimeError::Rebalance { detail: "split moves no groups" });
        }
        let owners = self.shared.routing.owners();
        for &group in groups {
            if owners.get(group).copied() != Some(from) {
                return Err(RuntimeError::Rebalance {
                    detail: "group is not owned by the split source",
                });
            }
        }
        for &group in groups {
            self.shared.migrate_group(group, to)?;
        }
        Ok(())
    }

    /// Online shard **merge**: drains every group slot `from` owns into
    /// slot `into` and retires `from` (its thread stays parked on an
    /// empty queue, ready to be a split destination later). Returns the
    /// number of groups moved.
    ///
    /// # Errors
    /// Same surface as [`Self::split_shard`].
    pub fn merge_shard(&self, from: usize, into: usize) -> Result<usize, RuntimeError> {
        if from == into {
            return Err(RuntimeError::Rebalance { detail: "merge source equals destination" });
        }
        if from >= self.shared.n_workers || into >= self.shared.n_workers {
            return Err(RuntimeError::Rebalance { detail: "slot index out of range" });
        }
        let owners = self.shared.routing.owners();
        let moving: Vec<usize> = (0..self.shared.n_groups).filter(|&g| owners[g] == from).collect();
        for &group in &moving {
            self.shared.migrate_group(group, into)?;
        }
        Ok(moving.len())
    }

    /// One step of the queue-depth / append-rate rebalancing policy;
    /// executes at most one action per call and returns what it did.
    ///
    /// * **Split** when some slot is hot — queue at least half full, or
    ///   appending at more than twice the per-live-slot average since
    ///   the last call — *and* owns ≥ 2 groups *and* an idle slot
    ///   exists: half its groups (the hotter-id half rounds down) move
    ///   to the idle slot.
    /// * **Merge** when ≥ 2 slots own groups and some slot was
    ///   completely cold over the interval (no appends since the last
    ///   call, empty queue): its groups drain into the busiest slot.
    ///
    /// Call it on a cadence; each call observes the append deltas since
    /// the previous one, so the first call only primes the baseline.
    ///
    /// # Errors
    /// Same surface as [`Self::split_shard`].
    pub fn rebalance_step(&self) -> Result<Option<RebalanceAction>, RuntimeError> {
        if self.shared.recovery.is_none() {
            return Err(RuntimeError::MigrationUnsupported);
        }
        let shared = &self.shared;
        let owners = shared.routing.owners();
        let mut groups_of: Vec<Vec<usize>> = vec![Vec::new(); shared.n_workers];
        for (g, &w) in owners.iter().enumerate() {
            if w != usize::MAX {
                groups_of[w].push(g);
            }
        }
        let appends: Vec<u64> =
            shared.counters.iter().map(|c| c.appends.load(Ordering::Relaxed)).collect();
        let deltas: Vec<u64> = {
            let mut last = shared.last_appends.lock().unwrap_or_else(PoisonError::into_inner);
            let deltas =
                appends.iter().zip(last.iter()).map(|(a, l)| a.saturating_sub(*l)).collect();
            *last = appends;
            deltas
        };
        let depths: Vec<u64> =
            shared.counters.iter().map(|c| c.snapshot().queue_depth as u64).collect();
        let capacity = shared.queue_capacity as u64;
        let owning: Vec<usize> =
            (0..shared.n_workers).filter(|&w| !groups_of[w].is_empty()).collect();
        if owning.is_empty() {
            return Ok(None);
        }
        let avg_delta = deltas.iter().sum::<u64>() / owning.len() as u64;
        // Split: hottest eligible slot onto the first idle slot.
        let idle = (0..shared.n_workers).find(|&w| groups_of[w].is_empty() && !owners.contains(&w));
        if let Some(to) = idle {
            let hot = owning
                .iter()
                .copied()
                .filter(|&w| groups_of[w].len() >= 2)
                .filter(|&w| {
                    depths[w] * 2 >= capacity || (avg_delta > 0 && deltas[w] > 2 * avg_delta)
                })
                .max_by_key(|&w| (deltas[w], depths[w]));
            if let Some(from) = hot {
                let half = groups_of[from].len() / 2;
                let moving: Vec<usize> = groups_of[from][half..].to_vec();
                self.split_shard(from, to, &moving)?;
                return Ok(Some(RebalanceAction::Split { from, to, groups: moving }));
            }
        }
        // Merge: a completely cold slot drains into the busiest one.
        if owning.len() >= 2 {
            let cold = owning.iter().copied().find(|&w| deltas[w] == 0 && depths[w] == 0);
            if let Some(from) = cold {
                let into = owning
                    .iter()
                    .copied()
                    .filter(|&w| w != from)
                    .max_by_key(|&w| (deltas[w], depths[w]))
                    .expect("owning.len() >= 2");
                let moving = groups_of[from].clone();
                self.merge_shard(from, into)?;
                return Ok(Some(RebalanceAction::Merge { from, into, groups: moving }));
            }
        }
        Ok(None)
    }

    /// Slots the supervisor fail-stopped for breaching the respawn-storm
    /// cap, with the restart count that tripped it.
    pub fn respawn_storms(&self) -> Vec<(usize, u32)> {
        self.shared.storms.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Graceful shutdown: queued batches are fully drained (crashed
    /// shards are restored one last time to finish their queues),
    /// workers and the supervisor join, and the final stats plus all
    /// undrained events are returned.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.finish(true);
        let events: Vec<Event> = self.drain_events();
        ShutdownReport { stats: self.stats(), events }
    }

    /// Abrupt teardown for crash tests: queues are closed instead of
    /// receiving `Shutdown` markers, so producers racing this call see
    /// [`RuntimeError::Disconnected`] rather than parking. Already
    /// queued batches still drain (they were accepted), wedged shards
    /// stay down, and whatever events were collected are returned. With
    /// persistence this exercises exactly the state a process kill
    /// leaves behind — the WAL's durable watermark, not the producers'
    /// view — which [`Self::open`] must then recover.
    pub fn crash(mut self) -> ShutdownReport {
        self.finish(false);
        let events: Vec<Event> = self.drain_events();
        ShutdownReport { stats: self.stats(), events }
    }

    /// Common teardown. `graceful` sends `Shutdown` markers (workers
    /// drain everything queued before them); the abrupt path closes the
    /// queues instead, which also drains what is already queued but
    /// refuses new messages.
    fn finish(&mut self, graceful: bool) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Wake producers/queries parked on a frozen route; they exit
        // with `Disconnected` instead of waiting out a migration that
        // will never promote.
        self.shared.routing.begin_shutdown();
        if graceful {
            for queue in &self.shared.queues {
                // Err means the shard failed terminally; it settled.
                let _ = queue.push(ShardMsg::Shutdown);
            }
        } else {
            for queue in &self.shared.queues {
                queue.close();
            }
        }
        // The supervisor keeps restoring crashed workers while this
        // waits, so a shard that dies with messages still queued gets a
        // fresh worker to finish the drain.
        self.shared.board.wait_all_settled();
        self.shared.board.begin_shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut slots = self.shared.handles.lock().expect("handles poisoned");
            slots.iter_mut().filter_map(|slot| slot.take()).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        // Last sender gone: the receiver sees disconnect after the
        // buffered events.
        *self.shared.events_tx.lock().expect("events sender poisoned") = None;
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        self.finish(false);
    }
}

// A network front end shares one runtime across connection-handler
// threads: `&ShardedRuntime` must be sendable to all of them.
const _: fn() = || {
    fn _assert_sync<T: Send + Sync>() {}
    _assert_sync::<ShardedRuntime>();
};

/// Sorts events into a canonical total order: by query class, then
/// stream(s), then time, then the class-specific payload. Two event
/// multisets are equal iff they compare equal after this sort —
/// used to check sharded against single-threaded execution.
pub fn sort_events(events: &mut [Event]) {
    fn key(e: &Event) -> (u8, u64, u64, u64, u64, u64) {
        match e {
            Event::Aggregate { stream, alarm } => (
                0,
                *stream as u64,
                alarm.time,
                alarm.window as u64,
                alarm.true_value.to_bits(),
                alarm.is_true_alarm as u64,
            ),
            Event::Trend(m) => {
                (1, m.stream as u64, m.time, m.pattern as u64, m.distance.to_bits(), 0)
            }
            Event::Correlation(p) => {
                (2, p.a as u64, p.time, p.b as u64, p.time_other, p.feature_distance.to_bits())
            }
        }
    }
    events.sort_by_key(key);
}
