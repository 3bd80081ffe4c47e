//! The sharded runtime: stream partitioning, bounded-queue ingestion
//! with backpressure, scatter-gather queries, supervised crash
//! recovery, and drain-then-join shutdown.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stardust_core::normalize;
use stardust_core::sketch::{SketchProjection, PRUNE_SLACK};
use stardust_core::stream::StreamId;
use stardust_core::unified::Event;

use crate::fault::FaultPlan;
use crate::log::{Journal, ShardLog};
use crate::persist::{
    self, PersistConfig, RecoveryError, RecoveryReport, ShardDisk, ShardRecoveryReport,
};
use crate::queue::{BoundedQueue, PushError};
use crate::shard::{Board, DeathNotice, QueryReply, QueryRequest, ShardMsg, SketchBoard, Worker};
use crate::spec::MonitorSpec;
use crate::stats::{CrossCorrStats, RuntimeStats, ShardCounters};
use crate::step::{CoreConfig, ShardCore};
use crate::telemetry::RuntimeTelemetry;
use crate::{ClassStats, RuntimeError};

/// Shard count and per-shard stream counts for `n_streams` streams.
/// Stream `s` lives on shard `s mod n_shards` as local stream
/// `s div n_shards`.
fn sizing(n_streams: usize, shards: usize) -> (usize, Vec<usize>) {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let n_shards = if shards == 0 { hw } else { shards }.min(n_streams).max(1);
    let n_locals = (0..n_shards).map(|shard| (n_streams - shard).div_ceil(n_shards)).collect();
    (n_shards, n_locals)
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

/// A set of values for ingestion, each tagged with its (global)
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
    /// Worker shards `S`. Stream `s` is placed on shard `s mod S` for
    /// the runtime's whole life. `0` means one per available CPU.
    /// Clamped to the stream count (an empty shard serves nothing).
    pub shards: usize,
    /// Respawn-storm cap: if one shard's worker restarts more than this
    /// many times within [`Self::restart_window`], the supervisor stops
    /// restarting it and fails the shard for good — producers get
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

/// State shared by producers, workers, and the supervisor. Everything
/// a shard's rebuild needs lives here.
struct Shared {
    /// What every shard core is built from.
    core: Arc<CoreConfig>,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Per-shard queues. They live outside any worker so a worker crash
    /// loses no queued message — the restored worker resumes draining.
    /// A closed queue is the one "shard is gone" signal producers see.
    queues: Vec<Arc<BoundedQueue<ShardMsg>>>,
    /// Per-shard counters. `events` is also the exact delivered-event
    /// count a respawned shard resumes from.
    counters: Vec<Arc<ShardCounters>>,
    /// Shards the supervisor fail-stopped for restarting too fast,
    /// with the restart count that tripped the cap.
    storms: Mutex<Vec<(usize, u32)>>,
    /// Per-shard restart timestamps inside the storm window.
    restart_history: Mutex<Vec<VecDeque<Instant>>>,
    max_restarts_in_window: u32,
    restart_window: Duration,
    /// Per-shard logs, outliving their workers; `None` when recovery
    /// is disabled.
    logs: Option<Vec<Arc<Mutex<ShardLog>>>>,
    board: Arc<Board>,
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// The collector sender respawned workers clone; dropped (set to
    /// `None`) once every worker has joined so the receiver disconnects.
    /// Carries one `Vec<Event>` per commit group (bulk delivery), not
    /// one message per event.
    events_tx: Mutex<Option<Sender<Vec<Event>>>>,
}

impl Shared {
    fn n_shards(&self) -> usize {
        self.core.n_locals.len()
    }

    fn log(&self, slot: usize) -> MutexGuard<'_, ShardLog> {
        let logs = self.logs.as_ref().expect("recovery is enabled");
        logs[slot].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rebuilds `slot`'s core over its log ([`ShardCore::rebuild`]):
    /// the memory journal, or the file log's chain read back through
    /// the recovery scan. The shard's `events` counter is the resumed
    /// delivered-event count — 0 at [`ShardedRuntime::launch`], the
    /// WAL's last ack at [`ShardedRuntime::open`], and the exact
    /// in-process count at a respawn. Delivers the replayed events that
    /// were not delivered before and stores the shard's counters.
    fn rebuild(&self, slot: usize) -> Result<(ShardCore, ShardRecoveryReport), RuntimeError> {
        let counters = &self.counters[slot];
        let emitted = counters.events.load(Ordering::Relaxed);
        let (core, resend, report) = match self.logs {
            None => ShardCore::rebuild(&self.core, slot, &Journal::default(), emitted)?,
            Some(_) => {
                let log = self.log(slot);
                let journal = log.journal().map_err(RuntimeError::Recovery)?;
                ShardCore::rebuild(&self.core, slot, &journal, emitted)?
            }
        };
        if !resend.is_empty() {
            if let Some(events) = &*self.events_tx.lock().expect("events sender poisoned") {
                let _ = events.send(resend);
            }
        }
        // Absolute stores, not deltas: the log covers batches a dead
        // worker drained but never applied.
        counters.appends.store(report.durable_appends, Ordering::Relaxed);
        counters.events.store(core.emitted(), Ordering::Relaxed);
        Ok((core, report))
    }

    /// Spawns the worker for `slot` over its rebuilt `core`.
    fn spawn_worker(
        self: &Arc<Self>,
        slot: usize,
        core: ShardCore,
    ) -> std::io::Result<JoinHandle<()>> {
        let events = self
            .events_tx
            .lock()
            .expect("events sender poisoned")
            .clone()
            .expect("worker spawned after shutdown");
        let worker = Worker {
            slot,
            core,
            log: self.logs.as_ref().map(|logs| Arc::clone(&logs[slot])),
            inbox: Arc::clone(&self.queues[slot]),
            events,
            counters: Arc::clone(&self.counters[slot]),
            faults: self.fault_plan.clone(),
            telemetry: self.core.telemetry.clone(),
        };
        let board = Arc::clone(&self.board);
        // Without a supervisor a death is terminal: the dying worker
        // must close its queue so producers fail fast instead of
        // parking forever.
        let close_on_death =
            if self.logs.is_none() { Some(Arc::clone(&self.queues[slot])) } else { None };
        std::thread::Builder::new().name(format!("stardust-shard-{slot}")).spawn(move || {
            let mut notice = DeathNotice { shard: slot, board, clean: false, close_on_death };
            worker.run(&mut notice);
        })
    }

    /// Fail-stops a shard for good: the storm (if any) is recorded
    /// first, then the queue closes (producers unpark into
    /// [`Self::route_failed_error`]) and drops what it holds (queued
    /// queries get a disconnect), and the board is told.
    fn fail_slot(&self, slot: usize, storm_restarts: Option<u32>) {
        if let Some(restarts) = storm_restarts {
            self.storms.lock().unwrap_or_else(PoisonError::into_inner).push((slot, restarts));
        }
        self.queues[slot].abandon();
        self.board.report_dead(slot, true);
    }

    /// The error a producer or query sees when `slot`'s queue is
    /// closed: a respawn storm if the supervisor tripped the cap on that
    /// shard, otherwise plain disconnection.
    fn route_failed_error(&self, slot: usize) -> RuntimeError {
        let storms = self.storms.lock().unwrap_or_else(PoisonError::into_inner);
        match storms.iter().find(|&&(shard, _)| shard == slot) {
            Some(&(shard, restarts)) => RuntimeError::RespawnStorm { shard, restarts },
            None => RuntimeError::Disconnected,
        }
    }

    /// Supervisor path: joins the dead worker, rebuilds the shard over
    /// its log (replaying undelivered events), and spawns a replacement
    /// that resumes draining the same queue.
    fn restore_shard(self: &Arc<Self>, slot: usize) {
        if let Some(handle) = self.handles.lock().expect("handles poisoned")[slot].take() {
            let _ = handle.join();
        }
        // Respawn-storm cap: a shard that keeps dying faster than the
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
        // A wedged file log (torn write or failed rotation) keeps the
        // shard down: a rebuilt worker would accept appends the disk can
        // no longer journal.
        if self.log(slot).wedged() {
            self.fail_slot(slot, None);
            return;
        }
        let restore_span = self.core.telemetry.restore.span();
        let rebuilt = panic::catch_unwind(AssertUnwindSafe(|| self.rebuild(slot)));
        drop(restore_span);
        // A log this runtime wrote always rebuilds; should one not — an
        // error, or a panic that the replay repeats after the worker
        // died of it — the shard fails stop rather than the supervisor.
        let Ok(Ok((core, _))) = rebuilt else {
            self.fail_slot(slot, None);
            return;
        };
        // Ack what the replay delivered.
        self.log(slot).ack(core.emitted());
        self.counters[slot].restarts.fetch_add(1, Ordering::Relaxed);
        match self.spawn_worker(slot, core) {
            Ok(handle) => {
                self.handles.lock().expect("handles poisoned")[slot] = Some(handle);
            }
            Err(_) => {
                // Can't spawn a replacement thread: give the shard up.
                self.fail_slot(slot, None);
            }
        }
    }
}

/// A multi-threaded monitor over `M` streams, partitioned across `S`
/// worker shards.
///
/// Placement is static: stream `s` lives on shard `s mod S` as local
/// stream `s div S` for the runtime's whole life. Each shard owns a
/// private [`stardust_core::unified::UnifiedMonitor`] over its slice
/// and communicates only through channels, so no monitor state is ever
/// shared or locked.
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
/// restores the monitor from the last snapshot and replays the
/// journaled suffix, suppressing the events the dead worker already
/// delivered — the same rebuild [`Self::launch`] and [`Self::open`]
/// start every shard with. A replacement worker then resumes draining
/// the *same* queue: no queued batch or query is lost, no event is
/// delivered twice, and the recovered event stream is bit-identical to
/// an unfaulted run. A shard
/// that keeps dying faster than [`RuntimeConfig::max_restarts_in_window`]
/// allows is fail-stopped instead: its queue closes, and every producer
/// and query path into it reports [`RuntimeError::RespawnStorm`].
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
            .field("n_shards", &self.shared.n_shards())
            .field("recovery", &self.shared.logs.is_some())
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
        let (n_shards, n_locals) = sizing(n_streams, config.shards);
        let logs = config
            .recovery
            .is_some()
            .then(|| (0..n_shards).map(|_| ShardLog::Memory(Journal::default())).collect());
        let (shared, events_rx) = Self::assemble(spec, n_locals, config, None, logs);
        let cores = (0..n_shards)
            .map(|slot| shared.rebuild(slot).map(|(core, _)| core))
            .collect::<Result<_, _>>()?;
        Self::start(n_streams, shared, events_rx, cores)
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
    /// `shard-N.wal`, which is then its only log.
    ///
    /// Crash recovery is forced on (a durable runtime without a
    /// supervisor would lose the WAL's exactly-once arithmetic). The
    /// caller must open with the same spec and stream count the
    /// directory was written under — the shard-file layout is checked,
    /// the spec is not: a shard with a snapshot is restored from it, and
    /// only a shard without one is built from the spec.
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
        let (n_shards, n_locals) = sizing(n_streams, config.shards);
        let recovery_err = RuntimeError::Recovery;
        std::fs::create_dir_all(&persist.dir)
            .map_err(|e| recovery_err(RecoveryError::io(&persist.dir, e)))?;
        persist::check_shard_layout(&persist.dir, n_shards).map_err(recovery_err)?;

        // Scan every shard's files before rebuilding any. Until its
        // open-time rotation, a shard's log is the journal its scan
        // assembled.
        let mut scans = Vec::with_capacity(n_shards);
        let mut logs = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let started = Instant::now();
            persist::apply_open_faults(&persist.dir, shard, &config.fault_plan)
                .map_err(recovery_err)?;
            let mut scan = persist::recover_shard(&persist.dir, shard).map_err(recovery_err)?;
            logs.push(ShardLog::Memory(std::mem::take(&mut scan.journal)));
            scans.push((scan, started.elapsed()));
        }
        let (shared, events_rx) =
            Self::assemble(spec, n_locals, config, Some(persist.dir.clone()), Some(logs));

        let tel = &shared.core.telemetry;
        let mut report = RecoveryReport { shards: Vec::with_capacity(n_shards) };
        let mut cores = Vec::with_capacity(n_shards);
        for (shard, (scan, scan_time)) in scans.into_iter().enumerate() {
            let started = Instant::now();
            shared.counters[shard].events.store(scan.last_ack, Ordering::Relaxed);
            let (mut core, rebuilt) = shared.rebuild(shard)?;
            // Open-time rotation: the rebuilt state becomes generation
            // `max_gen + 1`, the pristine chain the worker journals on.
            let (appends, emitted, snapshot) = core.snapshot();
            let disk = ShardDisk::create(
                &persist.dir,
                shard,
                persist.sync,
                shared.fault_plan.clone(),
                tel.clone(),
                scan.max_gen,
                appends,
                emitted,
                snapshot.as_deref(),
            )
            .map_err(|e| recovery_err(RecoveryError::io(&persist.dir, e)))?;
            let generation = disk.generation();
            *shared.log(shard) = ShardLog::File(Box::new(disk));
            tel.disk_recovery.observe_duration(scan_time + started.elapsed());
            tel.replayed.add(rebuilt.replayed);
            if scan.truncated_bytes > 0 {
                tel.torn_truncations.inc();
            }
            if scan.used_fallback {
                tel.snapshot_fallbacks.inc();
            }
            cores.push(core);
            report.shards.push(ShardRecoveryReport {
                truncated_bytes: scan.truncated_bytes,
                used_fallback: scan.used_fallback,
                generation,
                ..rebuilt
            });
        }
        Ok((Self::start(n_streams, shared, events_rx, cores)?, report))
    }

    /// Builds the shared state common to [`Self::launch`] and
    /// [`Self::open`], plus the collector receiver.
    fn assemble(
        spec: &MonitorSpec,
        n_locals: Vec<usize>,
        config: RuntimeConfig,
        persist_dir: Option<PathBuf>,
        logs: Option<Vec<ShardLog>>,
    ) -> (Arc<Shared>, Receiver<Vec<Event>>) {
        let n_shards = n_locals.len();
        let n_streams: usize = n_locals.iter().sum();
        let queue_capacity = config.queue_capacity.max(1);
        let (events_tx, events_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            core: Arc::new(CoreConfig {
                spec: spec.clone(),
                n_locals,
                snapshot_every: config.recovery.map(|r| r.snapshot_every).unwrap_or(0),
                sketches: Arc::new(SketchBoard::new(n_streams)),
                sketch_cadence: config.sketch_cadence,
                telemetry: config.telemetry.as_ref().map(RuntimeTelemetry::new).unwrap_or_default(),
                registry: config.telemetry,
                persist_dir,
            }),
            fault_plan: config.fault_plan,
            queues: (0..n_shards).map(|_| Arc::new(BoundedQueue::new(queue_capacity))).collect(),
            counters: (0..n_shards).map(|_| Arc::new(ShardCounters::new())).collect(),
            storms: Mutex::new(Vec::new()),
            restart_history: Mutex::new(vec![VecDeque::new(); n_shards]),
            max_restarts_in_window: config.max_restarts_in_window,
            restart_window: config.restart_window,
            logs: logs.map(|l| l.into_iter().map(|log| Arc::new(Mutex::new(log))).collect()),
            board: Arc::new(Board::new(n_shards)),
            handles: Mutex::new((0..n_shards).map(|_| None).collect()),
            events_tx: Mutex::new(Some(events_tx)),
        });
        (shared, events_rx)
    }

    /// Spawns one worker per rebuilt shard core, plus the supervisor
    /// when recovery is on.
    fn start(
        n_streams: usize,
        shared: Arc<Shared>,
        events_rx: Receiver<Vec<Event>>,
        cores: Vec<ShardCore>,
    ) -> Result<Self, RuntimeError> {
        for (slot, core) in cores.into_iter().enumerate() {
            match shared.spawn_worker(slot, core) {
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
        let supervisor =
            if shared.logs.is_some() { Some(Self::start_supervisor(&shared)?) } else { None };
        Ok(ShardedRuntime {
            n_streams,
            shared,
            events_rx: Mutex::new(events_rx),
            supervisor,
            finished: false,
        })
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

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.shared.n_shards()
    }

    /// Number of monitored streams.
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// Total worker restarts performed by the supervisor so far.
    pub fn restarts(&self) -> u64 {
        self.shared.counters.iter().map(|c| c.restarts.load(Ordering::Relaxed)).sum()
    }

    /// `(shard, local id)` of a global stream id.
    fn place(&self, stream: StreamId) -> Result<(usize, StreamId), RuntimeError> {
        if (stream as usize) < self.n_streams {
            let s = self.shared.n_shards();
            Ok((stream as usize % s, stream / s as StreamId))
        } else {
            Err(RuntimeError::UnknownStream { stream, n_streams: self.n_streams })
        }
    }

    /// Blocking push of one shard's batch.
    fn push_batch_blocking(
        &self,
        slot: usize,
        items: Vec<(StreamId, f64)>,
        now: Instant,
    ) -> Result<(), RuntimeError> {
        self.shared.counters[slot].note_enqueued();
        self.shared.queues[slot].push(ShardMsg::Batch(items, now)).map_err(|_| {
            self.shared.counters[slot].undo_enqueued();
            self.shared.route_failed_error(slot)
        })
    }

    /// Non-blocking push of one shard's batch; a full queue hands the
    /// items back.
    fn try_push_batch(
        &self,
        slot: usize,
        items: Vec<(StreamId, f64)>,
        now: Instant,
    ) -> Result<Result<(), Vec<(StreamId, f64)>>, RuntimeError> {
        self.shared.counters[slot].note_enqueued();
        match self.shared.queues[slot].try_push(ShardMsg::Batch(items, now)) {
            Ok(()) => Ok(Ok(())),
            Err(e) => {
                self.shared.counters[slot].undo_enqueued();
                match e {
                    PushError::Full(ShardMsg::Batch(items, _)) => Ok(Err(items)),
                    _ => Err(self.shared.route_failed_error(slot)),
                }
            }
        }
    }

    /// Appends one value without blocking.
    ///
    /// # Errors
    /// [`RuntimeError::Backpressure`] when the owning shard's queue is
    /// full (the value is *not* enqueued; retry or use
    /// [`Self::append_blocking`]), [`RuntimeError::UnknownStream`] on an
    /// out-of-range id, [`RuntimeError::Disconnected`] if the shard
    /// failed terminally, [`RuntimeError::RespawnStorm`] if the
    /// supervisor gave up on it.
    pub fn try_append(&self, stream: StreamId, value: f64) -> Result<(), RuntimeError> {
        let (slot, local) = self.place(stream)?;
        match self.try_push_batch(slot, vec![(local, value)], Instant::now())? {
            Ok(()) => Ok(()),
            Err(_) => Err(RuntimeError::Backpressure(QueueFull)),
        }
    }

    /// Appends one value, waiting while the owning shard's queue is
    /// full.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] on an out-of-range id,
    /// [`RuntimeError::Disconnected`] if the shard failed terminally,
    /// [`RuntimeError::RespawnStorm`] if the supervisor gave up on it.
    pub fn append_blocking(&self, stream: StreamId, value: f64) -> Result<(), RuntimeError> {
        let (slot, local) = self.place(stream)?;
        self.push_batch_blocking(slot, vec![(local, value)], Instant::now())
    }

    fn split(&self, batch: &Batch) -> Result<Vec<Vec<(StreamId, f64)>>, RuntimeError> {
        let mut per_shard: Vec<Vec<(StreamId, f64)>> = vec![Vec::new(); self.shared.n_shards()];
        for &(stream, value) in &batch.items {
            let (slot, local) = self.place(stream)?;
            per_shard[slot].push((local, value));
        }
        Ok(per_shard)
    }

    /// Submits a batch, waiting on full queues. Values are split into
    /// one message per involved shard; per-stream order is preserved.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] on any out-of-range id (nothing
    /// is enqueued), [`RuntimeError::Disconnected`] if a shard failed
    /// terminally, [`RuntimeError::RespawnStorm`] if the supervisor
    /// gave up on one.
    pub fn submit_blocking(&self, batch: &Batch) -> Result<(), RuntimeError> {
        let now = Instant::now();
        for (slot, items) in self.split(batch)?.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            self.push_batch_blocking(slot, items, now)?;
        }
        Ok(())
    }

    /// Submits a batch without blocking. Sub-batches for shards with
    /// room are enqueued; the rest is returned for retry.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownStream`] on any out-of-range id (nothing
    /// is enqueued), [`RuntimeError::Disconnected`] /
    /// [`RuntimeError::RespawnStorm`] if an involved shard failed
    /// terminally; otherwise `Ok` with an optional [`PartialSubmit`]
    /// remainder — `None` means everything was enqueued.
    pub fn try_submit(&self, batch: &Batch) -> Result<Option<PartialSubmit>, RuntimeError> {
        let now = Instant::now();
        let s_n = self.shared.n_shards() as StreamId;
        let mut rejected = Batch::new();
        let mut accepted = 0usize;
        for (slot, items) in self.split(batch)?.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let n = items.len();
            match self.try_push_batch(slot, items, now)? {
                Ok(()) => accepted += n,
                Err(items) => rejected.items.extend(
                    items.into_iter().map(|(local, v)| (local * s_n + slot as StreamId, v)),
                ),
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
    /// commit groups arrive whole, so flattening them preserves each shard's
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
        RuntimeStats { shards: self.shared.counters.iter().map(|c| c.snapshot()).collect() }
    }

    /// Queues `req` on `slot` and returns the channel its reply will
    /// arrive on. A worker crash cannot lose the query: it stays in the
    /// shared queue and the restored worker answers it.
    fn send_query(
        &self,
        slot: usize,
        req: QueryRequest,
    ) -> Result<Receiver<QueryReply>, RuntimeError> {
        let (tx, rx) = mpsc::channel();
        self.shared.queues[slot]
            .push(ShardMsg::Query(req, tx))
            .map_err(|_| self.shared.route_failed_error(slot))?;
        Ok(rx)
    }

    /// Sends `reqs[shard]` to every shard, then gathers the replies in
    /// shard order.
    fn scatter_each(&self, reqs: Vec<QueryRequest>) -> Result<Vec<QueryReply>, RuntimeError> {
        let rxs = reqs
            .into_iter()
            .enumerate()
            .map(|(slot, req)| self.send_query(slot, req))
            .collect::<Result<Vec<_>, _>>()?;
        rxs.iter().map(|rx| rx.recv().map_err(|_| RuntimeError::Disconnected)).collect()
    }

    /// Scatter-gather of one request over every shard; replies come
    /// back in shard order.
    fn scatter(&self, req: QueryRequest) -> Result<Vec<QueryReply>, RuntimeError> {
        self.scatter_each(vec![req; self.shared.n_shards()])
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
        let (slot, local) = self.place(stream)?;
        let rx =
            self.send_query(slot, QueryRequest::AggregateInterval { stream: local, window })?;
        match rx.recv().map_err(|_| RuntimeError::Disconnected)? {
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
        let Some(corr_spec) = self.shared.core.spec.correlation.clone() else {
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
        let mirrors = self.shared.core.sketches.mirrors();
        let s = self.shared.n_shards();
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
        self.shared.core.sketches.pruned.fetch_add(pruned, Ordering::Relaxed);
        self.shared.core.sketches.candidates.fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.shared.core.telemetry.cross_pruned.add(pruned);
        self.shared.core.telemetry.cross_candidates.add(candidates.len() as u64);

        // Phase 3: exact same-shard pairs at t* plus the raw windows of
        // every candidate. Requests differ per shard.
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
        let reqs = windows_for
            .into_iter()
            .map(|w| QueryRequest::CorrVerify { t, windows_for: w })
            .collect();
        let mut merged = Vec::new();
        let mut windows: std::collections::HashMap<StreamId, Option<Vec<f64>>> =
            std::collections::HashMap::new();
        for reply in self.scatter_each(reqs)? {
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
        self.shared.core.sketches.confirmed.fetch_add(confirmed, Ordering::Relaxed);
        self.shared.core.telemetry.cross_confirmed.add(confirmed);
        merged.sort_by_key(|x| (x.0, x.1));
        Ok(merged)
    }

    /// Cumulative cross-shard correlation-path counters: sketch
    /// publications absorbed by the collector board and the fate of
    /// every cross-shard pair [`Self::correlated_pairs`] has considered.
    pub fn cross_corr_stats(&self) -> CrossCorrStats {
        let b = &self.shared.core.sketches;
        CrossCorrStats {
            exchanges: b.exchanges.load(Ordering::Relaxed),
            candidates: b.candidates.load(Ordering::Relaxed),
            pruned: b.pruned.load(Ordering::Relaxed),
            confirmed: b.confirmed.load(Ordering::Relaxed),
        }
    }

    /// Shards the supervisor fail-stopped for breaching the respawn-storm
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
