//! The shard step function: [`ShardCore`].
//!
//! A shard's monitor and its events are a pure function of the shard's
//! append sequence (the summaries are updated incrementally, Lemmas
//! 4.1/4.2). `ShardCore` is that function and nothing else: it owns the
//! monitor, the delivered-event count, the processed-append clock, the
//! snapshot-cadence counter and the sketch frontier, and it starts no
//! thread and opens no channel or file. Its one group commit,
//! [`ShardCore::commit`], runs the group's effects in a fixed order:
//!
//! 1. the write-ahead record goes to the shard's [`ShardLog`], before
//!    any append of the group is applied;
//! 2. every batch is applied, publishing sketches whenever the cadence
//!    frontier is crossed;
//! 3. the group's events are handed to the shell in one delivery, and
//!    the new delivered-event count is acked to the log;
//! 4. a snapshot is stored in the log when the cadence is due.
//!
//! Three shells drive it. The worker thread commits live groups; the
//! supervisor and `open()` construct a core with [`ShardCore::rebuild`],
//! which replays a journal through the same commit with no log — so
//! the write-ahead, ack and snapshot steps are skipped — and suppresses
//! the first `emitted − emitted_at_snapshot` regenerated events, which
//! were delivered before. What a shell does between effects (fault
//! hooks, counters, the channel send) it supplies through [`Shell`].

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use stardust_core::stream::StreamId;
use stardust_core::unified::{Event, UnifiedMonitor};
use stardust_telemetry::Registry;

use crate::log::{Journal, ShardLog};
use crate::persist::{RecoveryError, ShardPaths, ShardRecoveryReport};
use crate::shard::{ClassStats, QueryReply, QueryRequest, SketchBoard};
use crate::spec::MonitorSpec;
use crate::telemetry::RuntimeTelemetry;
use crate::RuntimeError;

/// What every shard core of one runtime is built from.
pub(crate) struct CoreConfig {
    pub spec: MonitorSpec,
    /// Streams per shard.
    pub n_locals: Vec<usize>,
    /// Snapshot cadence in appends; `0` never snapshots.
    pub snapshot_every: u64,
    /// Collector-side sketch mirrors the cores publish to.
    pub sketches: Arc<SketchBoard>,
    /// Publish sketches every this many sealed blocks of the slowest
    /// local stream; `0` disables the exchange.
    pub sketch_cadence: u64,
    /// Registry every rebuilt monitor attaches to; `None` when
    /// telemetry is off.
    pub registry: Option<Registry>,
    /// Runtime-level handles; fully detached when telemetry is off.
    pub telemetry: RuntimeTelemetry,
    /// The persistence directory, which names the snapshot a failed
    /// decode came from.
    pub persist_dir: Option<PathBuf>,
}

/// A log effect of [`ShardCore::commit`], reported to the shell once
/// it is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Logged {
    /// The group's write-ahead record.
    WriteAhead,
    /// The cumulative delivered-event count.
    Ack,
    /// A snapshot of the monitor.
    Snapshot,
}

/// What a group commit needs from the code that drives it.
pub(crate) trait Shell {
    /// Lifetime append number `append` (1-based) is about to be
    /// applied. The worker's fault hook.
    fn tick(&mut self, _append: u64) {}
    /// Batch `batch` of the group is applied; `rejected` of its samples
    /// were non-finite.
    fn applied(&mut self, _batch: usize, _rejected: u64) {}
    /// The group's events, in emission order, for the shell to take;
    /// the vector is cleared afterwards.
    fn deliver(&mut self, events: &mut Vec<Event>);
    /// A log effect completed.
    fn logged(&mut self, _effect: Logged) {}
}

/// Local stream id → global stream id on `shard` of `n_shards`
/// (the inverse of `stream % S` / `stream / S`).
fn global_id(shard: usize, n_shards: usize, local: StreamId) -> StreamId {
    local * n_shards as StreamId + shard as StreamId
}

/// Rewrites an event's shard-local stream ids back to global ids.
fn remap_event(shard: usize, n_shards: usize, ev: Event) -> Event {
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

/// One shard's monitor and counters, and the one way appends reach
/// them.
pub(crate) struct ShardCore {
    slot: usize,
    cfg: Arc<CoreConfig>,
    /// The shard's monitor (`None` when the spec builds none).
    monitor: Option<UnifiedMonitor>,
    /// Events delivered over the shard's lifetime.
    emitted: u64,
    /// Appends applied over the shard's lifetime, including rejected
    /// non-finite samples (they are journaled too): the fault clock.
    processed: u64,
    /// Appends applied since the last snapshot.
    since_snapshot: u64,
    /// Regenerated events still to drop; non-zero only during a replay.
    suppress: u64,
    /// Sealed-block frontier at the last sketch publication. `0` at
    /// every rebuild: the re-publication it causes is absorbed
    /// idempotently by the board.
    last_shipped: u64,
    /// One batch's monitor output; reused across batches.
    event_buf: Vec<Event>,
    /// The group's remapped events awaiting delivery; reused across
    /// groups.
    pending: Vec<Event>,
}

impl ShardCore {
    /// The one way a shard's core comes into existence. Restores the
    /// journal's snapshot, or builds from the spec when there is none;
    /// replays the journaled suffix through [`Self::commit`] with no
    /// log, dropping the first `emitted − emitted_at_snapshot`
    /// regenerated events (they were delivered before) and firing the
    /// sketch cadence as the live path does; then attaches telemetry.
    ///
    /// Returns the core, the replayed events that were not delivered
    /// before (for the caller to deliver), and the replay's half of the
    /// shard's [`ShardRecoveryReport`]: `durable_appends` is every
    /// append the monitor has absorbed, and the disk scan's fields are
    /// left for `open()` to fill.
    ///
    /// # Errors
    /// A spec the monitor rejects, or a snapshot that fails to decode.
    pub(crate) fn rebuild(
        cfg: &Arc<CoreConfig>,
        slot: usize,
        journal: &Journal,
        emitted: u64,
    ) -> Result<(Self, Vec<Event>, ShardRecoveryReport), RuntimeError> {
        let monitor = match &journal.snapshot {
            Some(bytes) => Some(UnifiedMonitor::restore(bytes).map_err(|_| {
                RuntimeError::Recovery(RecoveryError::CorruptSnapshot {
                    path: cfg
                        .persist_dir
                        .as_deref()
                        .map(|dir| ShardPaths::new(dir, slot).snap)
                        .unwrap_or_default(),
                    detail: "checksummed monitor payload failed to decode \
                             (spec or version mismatch?)",
                })
            })?),
            None => cfg.spec.build(cfg.n_locals[slot])?,
        };
        let already = emitted.saturating_sub(journal.emitted_at_snapshot);
        let mut core = ShardCore {
            slot,
            cfg: Arc::clone(cfg),
            monitor,
            emitted,
            processed: journal.snapshot_appends,
            since_snapshot: 0,
            suppress: already,
            last_shipped: 0,
            event_buf: Vec::new(),
            pending: Vec::new(),
        };
        // One append per batch: the cadence is checked after every
        // replayed append, as it was after every live batch.
        let mut resend = Replay(Vec::new());
        core.commit(None, journal.suffix.iter().map(std::slice::from_ref), &mut resend)
            .expect("a replay writes no log");
        let suppressed = already - std::mem::take(&mut core.suppress);
        // The replay ran detached (a restored monitor never counts
        // replayed appends twice); attach for the live phase.
        if let (Some(registry), Some(m)) = (&cfg.registry, core.monitor.as_mut()) {
            m.attach_telemetry(registry);
        }
        let report = ShardRecoveryReport {
            shard: slot,
            durable_appends: core.processed,
            replayed: journal.suffix.len() as u64,
            re_emitted: resend.0.len() as u64,
            suppressed,
            truncated_bytes: 0,
            used_fallback: false,
            generation: 0,
        };
        Ok((core, resend.0, report))
    }

    /// Commits one group of batches: write-ahead to `log` (skipped
    /// without one), apply, deliver the events, ack, and snapshot when
    /// the cadence is due. Each log effect is reported through
    /// [`Shell::logged`] once done.
    ///
    /// Crash safety: a panic anywhere past the write-ahead step loses
    /// nothing. Every batch of the group is already in the log, so a
    /// rebuild regenerates exactly the logged prefix's events and
    /// suppresses the ones already delivered (none from this group:
    /// the delivery is one all-or-nothing handoff after the last batch
    /// applied).
    ///
    /// # Errors
    /// The log could not take the write-ahead record. Nothing of the
    /// group was applied; the caller must fail stop.
    pub(crate) fn commit<'a, B, S>(
        &mut self,
        mut log: Option<&mut ShardLog>,
        batches: B,
        shell: &mut S,
    ) -> io::Result<()>
    where
        B: Iterator<Item = &'a [(StreamId, f64)]> + Clone,
        S: Shell,
    {
        if let Some(log) = log.as_deref_mut() {
            let _span = self.cfg.telemetry.journal.span();
            log.write_ahead(batches.clone())?;
            shell.logged(Logged::WriteAhead);
        }
        for (i, items) in batches.enumerate() {
            let rejected = self.apply(items, shell);
            shell.applied(i, rejected);
        }
        if !self.pending.is_empty() {
            let n = self.pending.len() as u64;
            shell.deliver(&mut self.pending);
            self.pending.clear();
            self.emitted += n;
            if let Some(log) = log.as_deref_mut() {
                log.ack(self.emitted);
                shell.logged(Logged::Ack);
            }
        }
        // Snapshot only at group boundaries: the write-ahead step logged
        // whole batches, and a snapshot must not cover appends that have
        // not been applied yet.
        if let Some(log) = log {
            let every = self.cfg.snapshot_every;
            if every > 0 && self.since_snapshot >= every {
                let cfg = Arc::clone(&self.cfg);
                let _span = cfg.telemetry.snapshot.span();
                let (appends, emitted, snapshot) = self.snapshot();
                log.snapshot(appends, emitted, snapshot);
                shell.logged(Logged::Snapshot);
            }
        }
        Ok(())
    }

    /// Applies one batch and returns how many of its samples were
    /// rejected as non-finite. Events collect behind the group's; the
    /// sketch cadence is checked once the batch is in.
    fn apply<S: Shell>(&mut self, items: &[(StreamId, f64)], shell: &mut S) -> u64 {
        self.since_snapshot += items.len() as u64;
        let mut rejected = 0u64;
        for &(local, value) in items {
            self.processed += 1;
            shell.tick(self.processed);
            // Non-finite samples are rejected at the append boundary
            // (the monitor guards identically, so a journaled NaN
            // replays as the same no-op). The clock above still ticks
            // for them.
            if !value.is_finite() {
                rejected += 1;
                continue;
            }
            if let Some(monitor) = &mut self.monitor {
                monitor.append_into(local, value, &mut self.event_buf);
            }
        }
        for ev in self.event_buf.drain(..) {
            if self.suppress > 0 {
                self.suppress -= 1;
            } else {
                self.pending.push(remap_event(self.slot, self.cfg.n_locals.len(), ev));
            }
        }
        self.publish_sketches_if_due();
        rejected
    }

    /// Frontier-driven sketch publication: once the slowest local
    /// stream has sealed `sketch_cadence` new blocks past
    /// `last_shipped`, every local sketch ships to the collector board
    /// (absorbed idempotently, so re-publication after a rebuild is a
    /// no-op on the mirrors).
    fn publish_sketches_if_due(&mut self) {
        let cfg = &self.cfg;
        if cfg.sketch_cadence == 0 {
            return;
        }
        let Some(corr) = self.monitor.as_ref().and_then(|m| m.correlation_monitor()) else {
            return;
        };
        let frontier = (0..corr.n_streams() as StreamId)
            .map(|s| {
                let sk = corr.sketch(s);
                sk.end_time().map_or(0, |t| (t + 1) / sk.block() as u64)
            })
            .min()
            .unwrap_or(0);
        if frontier < self.last_shipped.saturating_add(cfg.sketch_cadence) {
            return;
        }
        let _span = cfg.telemetry.sketch_exchange.span();
        for local in 0..corr.n_streams() as StreamId {
            let sk = corr.sketch(local);
            let global = global_id(self.slot, cfg.n_locals.len(), local);
            cfg.sketches.publish(global, sk.window(), sk.block(), &sk.delta());
        }
        cfg.telemetry.sketch_exchanges.inc();
        self.last_shipped = frontier;
    }

    /// The state a snapshot stores — appends covered, events delivered,
    /// monitor bytes — and a restart of the cadence.
    pub(crate) fn snapshot(&mut self) -> (u64, u64, Option<Vec<u8>>) {
        self.since_snapshot = 0;
        (self.processed, self.emitted, self.monitor.as_ref().map(|m| m.snapshot()))
    }

    /// Events delivered over the shard's lifetime.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Answers a query from the monitor's current state.
    pub(crate) fn answer(&self, req: QueryRequest) -> QueryReply {
        let global = |local: StreamId| global_id(self.slot, self.cfg.n_locals.len(), local);
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
                for local in 0..self.cfg.n_locals[self.slot] as StreamId {
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
}

/// The replay's shell: collects the events it regenerates past the
/// suppressed prefix.
struct Replay(Vec<Event>);

impl Shell for Replay {
    fn deliver(&mut self, events: &mut Vec<Event>) {
        self.0.append(events);
    }
}

#[cfg(test)]
mod tests {
    //! Every crash point of a small durable run. Two shard cores drive
    //! their file logs directly — no threads, no sleeps — and the run
    //! stops after each of its effects in turn, keeping either every
    //! written byte (a process crash) or only the fsynced bytes (a power
    //! loss). The image left behind is rebuilt through the scan and
    //! rebuild `open()` uses, each shard's feed resumes from its durable
    //! watermark, and the delivered events are compared with a
    //! single-threaded monitor over the shard's streams: exactly the
    //! events delivered after the last durable ack come back a second
    //! time, and no other event is lost or repeated. Sketch publications
    //! are not crash points of their own: they leave nothing in the log
    //! or the delivered events, and a rebuild's replay publishes again.

    use std::collections::{BTreeMap, HashMap};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::time::Instant;

    use stardust_core::query::aggregate::WindowSpec;
    use stardust_core::transform::TransformKind;
    use stardust_datagen::random_walk::{observed_r_max, random_walk_streams};

    use super::*;
    use crate::persist::{recover_shard, ShardDisk, SyncPolicy};
    use crate::spec::{AggregateSpec, CorrelationSpec, TrendPattern, TrendSpec};

    const SHARDS: usize = 2;
    const STREAMS: usize = 3;
    const ROWS: usize = 67;
    const BASE: usize = 8;

    /// A crash image: every file of the directory with its bytes.
    type Image = Vec<(String, Vec<u8>)>;

    fn workload() -> (Vec<Vec<f64>>, MonitorSpec) {
        let mut streams = random_walk_streams(31, STREAMS, ROWS);
        // Stream 2 shares shard 0 with stream 0 and trails it closely,
        // so the shard reports correlated pairs.
        streams[2] =
            streams[0].iter().enumerate().map(|(t, v)| v + 0.01 * (t as f64).sin()).collect();
        let window = 2 * BASE;
        let max_sum = streams
            .iter()
            .flat_map(|s| s.windows(window).map(|w| w.iter().sum::<f64>()))
            .fold(f64::MIN, f64::max);
        let spec = MonitorSpec::new(BASE, 3, observed_r_max(&streams))
            .with_aggregates(AggregateSpec {
                transform: TransformKind::Sum,
                windows: vec![WindowSpec { window, threshold: max_sum * 0.97 }],
                box_capacity: 4,
            })
            .with_trends(TrendSpec {
                coeffs: 4,
                box_capacity: 4,
                patterns: vec![TrendPattern {
                    sequence: streams[1][20..20 + window].to_vec(),
                    radius: 0.2,
                }],
            })
            .with_correlations(CorrelationSpec { coeffs: 3, radius: 0.5 });
        (streams, spec)
    }

    /// Shard `shard`'s batches, one per row, in local stream ids.
    fn shard_rows(streams: &[Vec<f64>], shard: usize) -> Vec<Vec<(StreamId, f64)>> {
        (0..ROWS)
            .map(|t| {
                (shard..STREAMS)
                    .step_by(SHARDS)
                    .map(|s| ((s / SHARDS) as StreamId, streams[s][t]))
                    .collect()
            })
            .collect()
    }

    fn config(spec: &MonitorSpec) -> Arc<CoreConfig> {
        Arc::new(CoreConfig {
            spec: spec.clone(),
            n_locals: (0..SHARDS).map(|s| (STREAMS - s).div_ceil(SHARDS)).collect(),
            snapshot_every: 16,
            sketches: Arc::new(SketchBoard::new(STREAMS)),
            sketch_cadence: 1,
            registry: None,
            telemetry: RuntimeTelemetry::default(),
            persist_dir: None,
        })
    }

    /// A shell that keeps what it is handed.
    struct Collect(Vec<Event>);

    impl Shell for Collect {
        fn deliver(&mut self, events: &mut Vec<Event>) {
            self.0.append(events);
        }
    }

    /// Each shard's events from a single-threaded monitor over its
    /// streams, in emission order, with global ids.
    fn reference(cfg: &CoreConfig, rows: &[Vec<Vec<(StreamId, f64)>>]) -> Vec<Vec<Event>> {
        (0..SHARDS)
            .map(|shard| {
                let mut monitor = cfg.spec.build(cfg.n_locals[shard]).unwrap().unwrap();
                let mut events = Vec::new();
                for &(local, value) in rows[shard].iter().flatten() {
                    let evs = monitor.append(local, value);
                    events.extend(evs.into_iter().map(|e| remap_event(shard, SHARDS, e)));
                }
                events
            })
            .collect()
    }

    fn read_image(dir: &Path) -> Image {
        let mut files: Image = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().into_string().unwrap(), fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    fn write_image(dir: &Path, image: &Image) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        for (name, bytes) in image {
            fs::write(dir.join(name), bytes).unwrap();
        }
    }

    /// What the run looked like right after one effect.
    struct Point {
        /// The effect, and the shard it belongs to (`None`: the state
        /// right after `open()`).
        effect: Option<(usize, Option<Logged>)>,
        image: Image,
        /// Bytes of each file known to be on stable storage.
        durable: BTreeMap<String, u64>,
        delivered: [usize; SHARDS],
        logged_appends: [u64; SHARDS],
    }

    struct Trace {
        dir: PathBuf,
        telemetry: Vec<RuntimeTelemetry>,
        fsyncs: [u64; SHARDS],
        durable: BTreeMap<String, u64>,
        delivered: Vec<Vec<Event>>,
        logged_appends: [u64; SHARDS],
        points: Vec<Point>,
    }

    impl Trace {
        fn record(&mut self, shard: usize, effect: Option<Logged>) {
            let image = read_image(&self.dir);
            let prefix = format!("shard-{shard}.");
            let fsyncs = self.telemetry[shard].fsyncs.get();
            if effect == Some(Logged::Snapshot) {
                // A completed rotation syncs every file it leaves.
                self.durable.retain(|name, _| !name.starts_with(&prefix));
                for (name, bytes) in image.iter().filter(|(n, _)| n.starts_with(&prefix)) {
                    self.durable.insert(name.clone(), bytes.len() as u64);
                }
            } else if fsyncs > self.fsyncs[shard] {
                // A WAL record's fsync covers everything written before.
                let wal = format!("shard-{shard}.wal");
                let len = image.iter().find(|(n, _)| *n == wal).map(|(_, b)| b.len() as u64);
                self.durable.insert(wal, len.unwrap());
            }
            self.fsyncs[shard] = fsyncs;
            self.points.push(Point {
                effect: Some((shard, effect)),
                image,
                durable: self.durable.clone(),
                delivered: std::array::from_fn(|s| self.delivered[s].len()),
                logged_appends: self.logged_appends,
            });
        }
    }

    /// One shard's view of the trace, as a commit's shell.
    struct Recorder<'a> {
        shard: usize,
        trace: &'a mut Trace,
    }

    impl Shell for Recorder<'_> {
        fn deliver(&mut self, events: &mut Vec<Event>) {
            self.trace.delivered[self.shard].append(events);
            self.trace.record(self.shard, None);
        }

        fn logged(&mut self, effect: Logged) {
            self.trace.record(self.shard, Some(effect));
        }
    }

    /// Runs the whole feed under `sync`, recording every crash point.
    fn run(
        cfg: &Arc<CoreConfig>,
        rows: &[Vec<Vec<(StreamId, f64)>>],
        sync: SyncPolicy,
        dir: &Path,
    ) -> Trace {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        let mut cores = Vec::new();
        let mut logs = Vec::new();
        let mut trace = Trace {
            dir: dir.to_path_buf(),
            telemetry: (0..SHARDS).map(|_| RuntimeTelemetry::new(&Registry::new())).collect(),
            fsyncs: [0; SHARDS],
            durable: BTreeMap::new(),
            delivered: vec![Vec::new(); SHARDS],
            logged_appends: [0; SHARDS],
            points: Vec::new(),
        };
        // What `open()` does with a fresh directory.
        for shard in 0..SHARDS {
            let scan = recover_shard(dir, shard).unwrap();
            let (mut core, resend, _) =
                ShardCore::rebuild(cfg, shard, &scan.journal, scan.last_ack).unwrap();
            assert!(resend.is_empty());
            let (appends, emitted, snapshot) = core.snapshot();
            let tel = trace.telemetry[shard].clone();
            let disk = ShardDisk::create(
                dir,
                shard,
                sync,
                None,
                tel,
                scan.max_gen,
                appends,
                emitted,
                snapshot.as_deref(),
            )
            .unwrap();
            cores.push(core);
            logs.push(ShardLog::File(Box::new(disk)));
            trace.fsyncs[shard] = trace.telemetry[shard].fsyncs.get();
        }
        let image = read_image(dir);
        trace.durable = image.iter().map(|(n, b)| (n.clone(), b.len() as u64)).collect();
        trace.points.push(Point {
            effect: None,
            image,
            durable: trace.durable.clone(),
            delivered: [0; SHARDS],
            logged_appends: [0; SHARDS],
        });
        // Groups of one to three rows, so some write-ahead records are
        // coalesced multi-batch groups.
        let mut row = 0;
        for size in [1usize, 2, 3].into_iter().cycle() {
            if row >= ROWS {
                break;
            }
            let group = row..(row + size).min(ROWS);
            for shard in 0..SHARDS {
                let batches = &rows[shard][group.clone()];
                trace.logged_appends[shard] += batches.iter().map(|b| b.len() as u64).sum::<u64>();
                let mut shell = Recorder { shard, trace: &mut trace };
                cores[shard]
                    .commit(Some(&mut logs[shard]), batches.iter().map(Vec::as_slice), &mut shell)
                    .unwrap();
            }
            row = group.end;
        }
        trace
    }

    /// Rebuilds every shard from `image` and resumes its feed; per
    /// shard, the durable ack, the durable appends, and every event
    /// delivered after the crash.
    fn recover(
        cfg: &Arc<CoreConfig>,
        rows: &[Vec<Vec<(StreamId, f64)>>],
        image: &Image,
        dir: &Path,
    ) -> Vec<(u64, u64, Vec<Event>)> {
        write_image(dir, image);
        (0..SHARDS)
            .map(|shard| {
                let scan = recover_shard(dir, shard).unwrap();
                let (mut core, resend, report) =
                    ShardCore::rebuild(cfg, shard, &scan.journal, scan.last_ack).unwrap();
                let mut after = Collect(resend);
                let feed: Vec<(StreamId, f64)> = rows[shard].iter().flatten().copied().collect();
                for item in &feed[report.durable_appends as usize..] {
                    core.commit(None, std::iter::once(std::slice::from_ref(item)), &mut after)
                        .unwrap();
                }
                (scan.last_ack, report.durable_appends, after.0)
            })
            .collect()
    }

    #[test]
    fn crash_points_deliver_at_least_once_with_an_exact_tail() {
        let started = Instant::now();
        let (streams, spec) = workload();
        let cfg = config(&spec);
        let rows: Vec<_> = (0..SHARDS).map(|s| shard_rows(&streams, s)).collect();
        let want = reference(&cfg, &rows);
        let all: Vec<&Event> = want.iter().flatten().collect();
        assert!(all.iter().any(|e| matches!(e, Event::Aggregate { .. })), "no aggregate event");
        assert!(all.iter().any(|e| matches!(e, Event::Trend(_))), "no trend event");
        assert!(all.iter().any(|e| matches!(e, Event::Correlation(_))), "no correlation event");

        let base = std::env::temp_dir().join(format!("sdcrash-{}", std::process::id()));
        let (run_dir, crash_dir) = (base.join("run"), base.join("crash"));
        let (mut crash_points, mut redelivered, mut lost_appends) = (0usize, 0usize, 0u64);
        for sync in [SyncPolicy::Always, SyncPolicy::EveryN(4), SyncPolicy::OnSnapshot] {
            let trace = run(&cfg, &rows, sync, &run_dir);
            assert_eq!(trace.delivered, want, "{sync:?}: the uninterrupted run diverged");
            assert!(trace
                .points
                .iter()
                .any(|p| matches!(p.effect, Some((_, Some(Logged::Snapshot))))));
            let mut cache: HashMap<Image, Vec<(u64, u64, Vec<Event>)>> = HashMap::new();
            for (k, point) in trace.points.iter().enumerate() {
                for power_loss in [false, true] {
                    crash_points += 1;
                    let image: Image = if power_loss {
                        point
                            .image
                            .iter()
                            .filter_map(|(name, bytes)| {
                                let keep = *point.durable.get(name)? as usize;
                                Some((name.clone(), bytes[..keep].to_vec()))
                            })
                            .collect()
                    } else {
                        point.image.clone()
                    };
                    let recovered = cache
                        .entry(image)
                        .or_insert_with_key(|image| recover(&cfg, &rows, image, &crash_dir));
                    for (shard, (ack, durable, after)) in recovered.iter().enumerate() {
                        let case = format!("{sync:?} k={k} power_loss={power_loss} shard {shard}");
                        let (ack, delivered) = (*ack as usize, point.delivered[shard]);
                        assert!(ack <= delivered, "{case}: acked {ack} of {delivered} delivered");
                        // Only a group delivered and not yet acked comes
                        // back after a process crash; a power loss may
                        // also lose acks that were written but not synced.
                        if !power_loss && point.effect != Some((shard, None)) {
                            assert_eq!(ack, delivered, "{case}: a written ack was lost");
                        }
                        redelivered += delivered - ack;
                        let logged = point.logged_appends[shard];
                        assert!(*durable <= logged, "{case}: durable past the log");
                        lost_appends += logged - *durable;
                        if !power_loss {
                            assert_eq!(*durable, logged, "{case}: a written record was lost");
                        }
                        assert!(
                            after.as_slice() == &want[shard][ack..],
                            "{case}: events after recovery are not exactly those past the \
                             durable ack {ack}"
                        );
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(&base);
        assert!(redelivered > 0, "no crash point re-delivered an event");
        assert!(lost_appends > 0, "no power loss dropped an unsynced record");
        eprintln!("{crash_points} crash points in {:.2?}", started.elapsed());
    }
}
