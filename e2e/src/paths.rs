//! The three paths under test and the two load shapes driven over them.
//!
//! A [`Sut`] is a started system: a direct `ShardedRuntime`, a durable
//! one opened over a scratch directory, or an in-process `Server` on
//! loopback with its `Client` connections. [`closed_loop`] pushes a
//! fixed number of rows as fast as the system accepts them;
//! [`open_loop`] offers rows on a fixed schedule and times everything
//! from the instant it was *due*, so a stall is charged to every row it
//! delays. The ad-hoc query runs beside the closed loop only: beside a
//! saturating ingest its latency is queue wait plus its own work, which
//! repeats; beside an idle-most-of-the-time open loop it is mostly the
//! virtual machine's thread wake-up time, which does not. The generator
//! side never uses more than two threads: on the direct paths one
//! submits and one reads (drains events, issues the query); on the
//! network path each of the two connections has one thread that does
//! both.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use stardust_core::unified::Event;
use stardust_runtime::{
    PersistConfig, RecoveryReport, RuntimeConfig, RuntimeStats, ShardedRuntime, SyncPolicy,
};
use stardust_server::{Client, Server, ServerConfig, TenantConfig};
use stardust_telemetry::Registry;

use crate::oracle::event_row;
use crate::trace::{in_span, Ctx};
use crate::workload::{PathKind, Prepared, QueryKind, CLIENTS, PIPELINE};

/// Token of the single tenant on the network path.
const TOKEN: &str = "e2e-token";
/// Gap between ad-hoc queries beside a closed-loop ingest.
pub const QUERY_PERIOD: Duration = Duration::from_millis(20);
/// Delay of a trial's first query: long enough for the producer to have
/// filled the shard queues (≈ 1 ms), short enough that even a smoke
/// trial answers one.
const FIRST_QUERY_AFTER: Duration = Duration::from_millis(5);
/// Reader pause between `drain_events()` polls beside an open-loop
/// ingest, where the poll cadence is part of the response time.
const OPEN_POLL_PAUSE: Duration = Duration::from_micros(200);
/// Reader pause beside a closed-loop ingest, where nothing is timed
/// against the poll and waking less often steals less from the workers.
const CLOSED_POLL_PAUSE: Duration = Duration::from_millis(2);

/// Operations attempted and failed (refused or errored submits,
/// exhausted retries, failed queries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation and whether it failed.
    pub fn note<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        self.failed += u64::from(r.is_err());
    }

    /// Adds another tally.
    pub fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// A scratch directory removed on drop — on success, on a failed check
/// and on a panic alike.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, uniquely named directory under `root`.
    ///
    /// # Errors
    /// Any I/O failure creating it.
    pub fn new(root: &Path) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = root.join(format!("tmp-{}-{n}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How to start a system.
#[derive(Debug, Clone)]
pub struct StartOpts<'a> {
    /// Path to start.
    pub path: PathKind,
    /// Worker shards.
    pub shards: usize,
    /// Keep the runtime's default crash recovery (journal, snapshots,
    /// supervisor); `false` launches with `recovery: None`.
    pub recovery: bool,
    /// Telemetry registry handed to the runtime (and server); `None`
    /// leaves every handle detached.
    pub registry: Option<Registry>,
    /// Persistence directory (durable path only).
    pub dir: Option<&'a Path>,
}

impl<'a> StartOpts<'a> {
    /// The workload's own path with telemetry off.
    pub fn plain(path: PathKind, dir: Option<&'a Path>) -> Self {
        StartOpts { path, shards: crate::workload::SHARDS, recovery: true, registry: None, dir }
    }
}

/// A started system under test.
pub enum Sut {
    /// Direct or durable runtime.
    Runtime(ShardedRuntime),
    /// Server on loopback with its client connections.
    Net {
        /// The in-process server (owns the runtime).
        server: Server,
        /// One connection per generator thread.
        clients: Vec<Client>,
    },
}

/// What a finished system leaves behind.
pub struct Finished {
    /// Events not handed out before the teardown.
    pub events: Vec<Event>,
    /// Final runtime counters.
    pub stats: RuntimeStats,
}

/// Starts the system `opts` describes for `p`'s spec and stream count.
///
/// # Errors
/// A rendered launch/open/bind/connect error.
pub fn start(p: &Prepared, opts: &StartOpts<'_>) -> Result<(Sut, Option<RecoveryReport>), String> {
    let mut config = RuntimeConfig {
        shards: opts.shards,
        telemetry: opts.registry.clone(),
        ..RuntimeConfig::default()
    };
    if !opts.recovery {
        config.recovery = None;
    }
    match opts.path {
        PathKind::Direct => ShardedRuntime::launch(&p.spec, p.w.streams, config)
            .map(|rt| (Sut::Runtime(rt), None))
            .map_err(|e| format!("launch: {e}")),
        PathKind::Durable => {
            let dir = opts.dir.ok_or("durable path needs a directory")?;
            let persist = PersistConfig::new(dir).sync(SyncPolicy::Always);
            ShardedRuntime::open(&p.spec, p.w.streams, config, persist)
                .map(|(rt, report)| (Sut::Runtime(rt), Some(report)))
                .map_err(|e| format!("open: {e}"))
        }
        PathKind::Loopback => {
            let rt = ShardedRuntime::launch(&p.spec, p.w.streams, config)
                .map_err(|e| format!("launch: {e}"))?;
            let tenants = vec![TenantConfig {
                name: "e2e".into(),
                token: TOKEN.into(),
                streams: p.w.streams as u32,
                append_rate: 0,
            }];
            let registry = opts.registry.clone().unwrap_or_else(Registry::disabled);
            let server =
                Server::start("127.0.0.1:0", rt, tenants, ServerConfig::default(), registry)
                    .map_err(|e| format!("server start: {e}"))?;
            let mut clients = Vec::with_capacity(CLIENTS);
            for _ in 0..CLIENTS {
                match Client::connect(server.local_addr(), TOKEN) {
                    Ok((client, _)) => clients.push(client),
                    Err(e) => {
                        server.shutdown();
                        return Err(format!("connect: {e}"));
                    }
                }
            }
            Ok((Sut::Net { server, clients }, None))
        }
    }
}

impl Sut {
    /// Graceful teardown: everything queued is applied first.
    pub fn finish(self) -> Finished {
        match self {
            Sut::Runtime(rt) => {
                let report = rt.shutdown();
                Finished { events: report.events, stats: report.stats }
            }
            Sut::Net { server, clients } => {
                for client in clients {
                    let _ = client.goodbye();
                }
                let report = server.shutdown();
                Finished { events: report.events, stats: report.stats }
            }
        }
    }

    /// Abrupt teardown of a runtime (`crash()`), leaving the state a
    /// process kill leaves on disk; a network system drains gracefully.
    pub fn crash(self) -> Finished {
        match self {
            Sut::Runtime(rt) => {
                let report = rt.crash();
                Finished { events: report.events, stats: report.stats }
            }
            net => net.finish(),
        }
    }

    /// Cross-shard correlation counters (direct paths only: a server
    /// owns its runtime).
    pub fn cross_corr_stats(&self) -> Option<stardust_runtime::CrossCorrStats> {
        match self {
            Sut::Runtime(rt) => Some(rt.cross_corr_stats()),
            Sut::Net { .. } => None,
        }
    }
}

/// Result of one closed-loop trial.
#[derive(Debug, Default)]
pub struct ClosedOut {
    /// Values applied inside the timed window.
    pub values: u64,
    /// Timed window, first timed submit → barrier answered, ns.
    pub wall_ns: u64,
    /// Submits and queries attempted / failed.
    pub ops: Ops,
    /// Ad-hoc query latencies beside the ingest, ns.
    pub query_ns: Vec<u64>,
    /// Per-submission call durations, ns (traced pass only).
    pub submit_ns: Vec<u64>,
    /// `Busy` replies absorbed (network path).
    pub busy: u64,
    /// Rate-quota waits absorbed (network path).
    pub rate_waits: u64,
    /// Events drained while the trial ran (direct paths).
    pub events: Vec<Event>,
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenOut {
    /// Rows offered.
    pub rows: u64,
    /// Values offered.
    pub values: u64,
    /// Due-time → response, ns: on the direct paths the `drain_events()`
    /// call that returned an event of that row; on the network path the
    /// `Ok` reply of the frame holding it.
    pub response_ns: Vec<u64>,
    /// How late each submission started, ns past its due time.
    pub late_ns: Vec<u64>,
    /// Per-submission call durations, ns.
    pub submit_ns: Vec<u64>,
    /// Per-poll `drain_events()` durations, ns (direct paths).
    pub drain_ns: Vec<u64>,
    /// Work still pending at the scheduled end: rows accepted after it
    /// plus (direct paths) batches still queued when the last submit
    /// returned.
    pub backlog_end: u64,
    /// Submits attempted / failed.
    pub ops: Ops,
    /// `Busy` replies absorbed (network path).
    pub busy: u64,
    /// Rate-quota waits absorbed (network path).
    pub rate_waits: u64,
    /// Events drained while the phase ran (direct paths).
    pub events: Vec<Event>,
}

/// The fixed-rate schedule of an open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    t0: Instant,
    period_ns: u64,
}

impl Schedule {
    /// A schedule of `rows_per_s` starting a few milliseconds from now.
    pub fn starting_now(rows_per_s: usize) -> Schedule {
        Schedule {
            t0: Instant::now() + Duration::from_millis(5),
            period_ns: 1_000_000_000 / rows_per_s as u64,
        }
    }

    /// When `row` is due.
    pub fn due(&self, row: u64) -> Instant {
        self.t0 + Duration::from_nanos(row * self.period_ns)
    }
}

/// Sleeps, then spins the last stretch, until `due`.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Rows of a closed-loop trial spent warming up (untimed): a tenth,
/// rounded down to whole network frames.
pub fn warm_rows(p: &Prepared, rows: usize) -> usize {
    let per_frame = p.w.rows_per_frame();
    rows / 10 / per_frame * per_frame
}

/// One ad-hoc query against a runtime; `turn` picks the stream.
fn query_runtime(rt: &ShardedRuntime, p: &Prepared, turn: u64) -> Result<(), String> {
    match p.w.query {
        QueryKind::AggregateInterval => rt
            .aggregate_interval((turn % p.w.streams as u64) as u32, p.w.query_window())
            .map(|_| ())
            .map_err(|e| e.to_string()),
        QueryKind::CorrelatedPairs => rt.correlated_pairs().map(|_| ()).map_err(|e| e.to_string()),
    }
}

/// One ad-hoc query over a connection.
fn query_client(client: &mut Client, p: &Prepared, turn: u64) -> Result<(), String> {
    match p.w.query {
        QueryKind::AggregateInterval => client
            .aggregate_interval((turn % p.w.streams as u64) as u32, p.w.query_window() as u32)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        QueryKind::CorrelatedPairs => {
            client.correlated_pairs().map(|_| ()).map_err(|e| e.to_string())
        }
    }
}

/// What the reading thread of a direct path collected.
#[derive(Default)]
struct ReaderOut {
    events: Vec<Event>,
    response_ns: Vec<u64>,
    query_ns: Vec<u64>,
    drain_ns: Vec<u64>,
    ops: Ops,
}

/// The second thread of a direct path: polls `drain_events()`, stamps
/// each returned event against its row's due time (open loop), or
/// issues the ad-hoc query every [`QUERY_PERIOD`] (closed loop, no
/// schedule). Runs until `stop`, then drains once more so nothing sent
/// before the barrier is left behind.
fn reader_loop(
    rt: &ShardedRuntime,
    p: &Prepared,
    stop: &AtomicBool,
    schedule: Option<Schedule>,
    ctx: Ctx<'_>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut next_query = Instant::now() + FIRST_QUERY_AFTER;
    let mut turn = 0u64;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let before = Instant::now();
        let events = in_span(ctx, "runtime.drain_events", None, || rt.drain_events());
        let now = Instant::now();
        out.drain_ns.push(ns(now - before));
        if let Some(schedule) = schedule {
            out.response_ns.extend(
                events
                    .iter()
                    .map(|e| ns(now.saturating_duration_since(schedule.due(event_row(e))))),
            );
        }
        out.events.extend(events);
        if stopping {
            return out;
        }
        if schedule.is_none() && now >= next_query {
            let asked = Instant::now();
            let answer = in_span(ctx, "runtime.query", Some(turn), || query_runtime(rt, p, turn));
            out.query_ns.push(ns(asked.elapsed()));
            out.ops.note(&answer);
            turn += 1;
            next_query = (next_query + QUERY_PERIOD).max(Instant::now());
        }
        std::thread::sleep(if schedule.is_some() { OPEN_POLL_PAUSE } else { CLOSED_POLL_PAUSE });
    }
}

/// Closed loop: warms up with the first tenth of `rows`, then submits
/// the rest back to back and waits for a barrier query, which rides the
/// shard queues behind every submitted value.
pub fn closed_loop(sut: &mut Sut, p: &Prepared, rows: usize, ctx: Ctx<'_>) -> ClosedOut {
    let warm = warm_rows(p, rows);
    let warm_ops = in_span(ctx, "warmup", None, || warm_up(sut, p, warm));
    let mut out = match sut {
        Sut::Runtime(rt) => closed_runtime(rt, p, warm, rows, ctx),
        Sut::Net { clients, .. } => closed_net(clients, p, warm, rows, ctx),
    };
    out.ops.add(warm_ops);
    out
}

/// Feeds the first `warm` rows and waits until they are applied.
pub fn warm_up(sut: &mut Sut, p: &Prepared, warm: usize) -> Ops {
    let mut ops = Ops::default();
    match sut {
        Sut::Runtime(rt) => {
            for batch in &p.batches[..warm] {
                ops.note(&rt.submit_blocking(batch));
            }
            ops.note(&rt.class_stats());
        }
        Sut::Net { clients, .. } => {
            let warm_frames = warm / p.w.rows_per_frame();
            for (client, frames) in clients.iter_mut().zip(&p.frames) {
                for group in frames[..warm_frames].chunks(PIPELINE) {
                    ops.note(&client.append_group_all(group));
                }
                ops.note(&client.class_stats());
            }
        }
    }
    ops
}

fn closed_runtime(
    rt: &ShardedRuntime,
    p: &Prepared,
    warm: usize,
    rows: usize,
    ctx: Ctx<'_>,
) -> ClosedOut {
    let mut out = ClosedOut::default();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(rt, p, &stop, None, ctx));
        let start = Instant::now();
        for (row, batch) in p.batches[warm..rows].iter().enumerate() {
            let result = match ctx {
                Some(_) => {
                    let called = Instant::now();
                    let r =
                        in_span(ctx, "runtime.submit_blocking", Some((warm + row) as u64), || {
                            rt.submit_blocking(batch)
                        });
                    out.submit_ns.push(ns(called.elapsed()));
                    r
                }
                None => rt.submit_blocking(batch),
            };
            out.ops.note(&result);
        }
        out.ops.note(&in_span(ctx, "runtime.barrier", None, || rt.class_stats()));
        out.wall_ns = ns(start.elapsed());
        stop.store(true, Ordering::Release);
        let read = reader.join().expect("reader thread panicked");
        out.events = read.events;
        out.query_ns = read.query_ns;
        out.ops.add(read.ops);
    });
    out.values = ((rows - warm) * p.w.streams) as u64;
    out
}

fn closed_net(
    clients: &mut [Client],
    p: &Prepared,
    warm: usize,
    rows: usize,
    ctx: Ctx<'_>,
) -> ClosedOut {
    let per_frame = p.w.rows_per_frame();
    let (warm_frames, all_frames) = (warm / per_frame, rows / per_frame);
    let gate = Barrier::new(clients.len() + 1);
    let mut out = ClosedOut::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (gate, frames) = (&gate, &p.frames[c]);
                scope.spawn(move || {
                    let mut mine = ClosedOut::default();
                    gate.wait();
                    let mut next_query =
                        Instant::now() + FIRST_QUERY_AFTER + QUERY_PERIOD * c as u32;
                    let mut turn = c as u64;
                    let mut sent = warm_frames;
                    for group in frames[warm_frames..all_frames].chunks(PIPELINE) {
                        let called = Instant::now();
                        let reply = in_span(ctx, "client.append_group", Some(sent as u64), || {
                            client.append_group_all(group)
                        });
                        if ctx.is_some() {
                            mine.submit_ns.push(ns(called.elapsed()));
                        }
                        if let Ok(stats) = &reply {
                            mine.busy += stats.busy_replies;
                            mine.rate_waits += stats.rate_waits;
                        }
                        mine.ops.note(&reply);
                        sent += group.len();
                        if Instant::now() >= next_query {
                            let asked = Instant::now();
                            let answer = in_span(ctx, "client.query", Some(turn), || {
                                query_client(client, p, turn)
                            });
                            mine.query_ns.push(ns(asked.elapsed()));
                            mine.ops.note(&answer);
                            turn += CLIENTS as u64;
                            next_query = Instant::now() + QUERY_PERIOD * CLIENTS as u32;
                        }
                    }
                    mine.ops.note(&in_span(ctx, "client.barrier", None, || client.class_stats()));
                    (mine, Instant::now())
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        for handle in handles {
            let (mine, ended) = handle.join().expect("client thread panicked");
            out.wall_ns = out.wall_ns.max(ns(ended.saturating_duration_since(start)));
            out.ops.add(mine.ops);
            out.query_ns.extend(mine.query_ns);
            out.submit_ns.extend(mine.submit_ns);
            out.busy += mine.busy;
            out.rate_waits += mine.rate_waits;
        }
    });
    out.values = ((rows - warm) * p.w.streams) as u64;
    out
}

/// Open loop: offers the first `rows` rows on a fixed schedule.
pub fn open_loop(sut: &mut Sut, p: &Prepared, rows: usize, ctx: Ctx<'_>) -> OpenOut {
    let schedule = Schedule::starting_now(p.w.open_rows_per_s);
    let mut out = match sut {
        Sut::Runtime(rt) => open_runtime(rt, p, rows, schedule, ctx),
        Sut::Net { clients, .. } => open_net(clients, p, rows, schedule, ctx),
    };
    out.rows = rows as u64;
    out.values = (rows * p.w.streams) as u64;
    out
}

fn open_runtime(
    rt: &ShardedRuntime,
    p: &Prepared,
    rows: usize,
    schedule: Schedule,
    ctx: Ctx<'_>,
) -> OpenOut {
    let mut out = OpenOut::default();
    let end = schedule.due(rows as u64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(rt, p, &stop, Some(schedule), ctx));
        for (row, batch) in p.batches[..rows].iter().enumerate() {
            let due = schedule.due(row as u64);
            wait_until(due);
            let called = Instant::now();
            out.late_ns.push(ns(called - due));
            let result = in_span(ctx, "runtime.submit_blocking", Some(row as u64), || {
                rt.submit_blocking(batch)
            });
            let returned = Instant::now();
            out.submit_ns.push(ns(returned - called));
            out.backlog_end += u64::from(returned > end);
            out.ops.note(&result);
        }
        out.backlog_end += rt.stats().shards.iter().map(|s| s.queue_depth as u64).sum::<u64>();
        out.ops.note(&in_span(ctx, "runtime.barrier", None, || rt.class_stats()));
        stop.store(true, Ordering::Release);
        let read = reader.join().expect("reader thread panicked");
        out.events = read.events;
        out.response_ns = read.response_ns;
        out.drain_ns = read.drain_ns;
        out.ops.add(read.ops);
    });
    out
}

fn open_net(
    clients: &mut [Client],
    p: &Prepared,
    rows: usize,
    schedule: Schedule,
    ctx: Ctx<'_>,
) -> OpenOut {
    let per_frame = p.w.rows_per_frame() as u64;
    let n_frames = rows / per_frame as usize;
    let end = schedule.due(rows as u64);
    // A frame is due when its last row is.
    let frame_due = move |k: usize| schedule.due((k as u64 + 1) * per_frame - 1);
    let mut out = OpenOut::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let frames = &p.frames[c];
                scope.spawn(move || {
                    let mut mine = OpenOut::default();
                    let mut k = 0;
                    while k < n_frames {
                        wait_until(frame_due(k));
                        let called = Instant::now();
                        // Everything already due goes out in one
                        // pipelined group, so a stall is caught up
                        // rather than compounded.
                        let mut upto = k + 1;
                        while upto < n_frames && upto - k < PIPELINE && frame_due(upto) <= called {
                            upto += 1;
                        }
                        let reply = in_span(ctx, "client.append_group", Some(k as u64), || {
                            client.append_group_all(&frames[k..upto])
                        });
                        let replied = Instant::now();
                        mine.submit_ns.push(ns(replied - called));
                        if let Ok(stats) = &reply {
                            mine.busy += stats.busy_replies;
                            mine.rate_waits += stats.rate_waits;
                        }
                        for frame in k..upto {
                            let due = frame_due(frame);
                            mine.late_ns.push(ns(called - due));
                            mine.ops.note(&reply);
                            if reply.is_ok() {
                                mine.response_ns.push(ns(replied - due));
                            }
                            mine.backlog_end += u64::from(replied > end) * per_frame;
                        }
                        k = upto;
                    }
                    mine.ops.note(&in_span(ctx, "client.barrier", None, || client.class_stats()));
                    mine
                })
            })
            .collect();
        for handle in handles {
            let mine = handle.join().expect("client thread panicked");
            out.response_ns.extend(mine.response_ns);
            out.late_ns.extend(mine.late_ns);
            out.submit_ns.extend(mine.submit_ns);
            out.backlog_end += mine.backlog_end;
            out.ops.add(mine.ops);
            out.busy += mine.busy;
            out.rate_waits += mine.rate_waits;
        }
    });
    out
}

/// Quiescent answers to the workload's query, for the reference check:
/// every stream's interval, or the correlated pairs.
pub enum FinalAnswers {
    /// `aggregate_interval` of every stream, by stream id.
    Intervals(Vec<Option<(f64, f64)>>),
    /// `correlated_pairs()`.
    Pairs(Vec<(u32, u32, f64)>),
}

/// Asks the workload's query once the system is quiescent.
///
/// # Errors
/// The first failing query, rendered.
pub fn final_answers(sut: &mut Sut, p: &Prepared) -> Result<FinalAnswers, String> {
    let window = p.w.query_window();
    match (p.w.query, sut) {
        (QueryKind::CorrelatedPairs, Sut::Runtime(rt)) => {
            rt.correlated_pairs().map(FinalAnswers::Pairs).map_err(|e| e.to_string())
        }
        (QueryKind::CorrelatedPairs, Sut::Net { clients, .. }) => {
            clients[0].correlated_pairs().map(FinalAnswers::Pairs).map_err(|e| e.to_string())
        }
        (QueryKind::AggregateInterval, Sut::Runtime(rt)) => (0..p.w.streams as u32)
            .map(|s| rt.aggregate_interval(s, window))
            .collect::<Result<_, _>>()
            .map(FinalAnswers::Intervals)
            .map_err(|e| e.to_string()),
        (QueryKind::AggregateInterval, Sut::Net { clients, .. }) => (0..p.w.streams as u32)
            .map(|s| clients[0].aggregate_interval(s, window as u32))
            .collect::<Result<_, _>>()
            .map(FinalAnswers::Intervals)
            .map_err(|e| e.to_string()),
    }
}
