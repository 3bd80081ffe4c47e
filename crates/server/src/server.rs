//! The `stardust` TCP server: thread-per-connection over
//! `std::net::TcpListener`, speaking [`crate::protocol`], with
//! per-tenant quotas and admission control mapped onto the runtime's
//! bounded shard queues.
//!
//! # Admission control
//!
//! Appends travel `namespace check → token bucket → ShardedRuntime::
//! try_submit`. `try_submit` is all-or-nothing *per shard sub-batch*:
//! a full shard rejects every value routed to it and accepts none, so
//! the server can tell the client exactly which batch indices were not
//! admitted — the [`Reply::Busy`] reply carries those indices plus a
//! backoff hint, and the client resends only them. Nothing is buffered
//! server-side: a full queue becomes a `Busy` reply, never unbounded
//! memory.
//!
//! # Group admission and buffered replies
//!
//! A pipelining client may have several frames in flight; the handler
//! decodes every complete frame out of each read chunk before replying
//! to any of them. A run of consecutive authenticated `Append` frames
//! is admitted as *one* `try_submit` group — one shard sub-batch per
//! shard for the whole run, which the runtime journals under one
//! coalesced WAL write — while each frame still gets its own quota
//! check and its own `AppendOk`/`Busy` reply (rejection is per shard
//! sub-batch, so the rejected global ids identify each frame's
//! rejected indices exactly). Every reply produced for the chunk is
//! encoded into one write buffer and flushed with a single `write_all`
//! — one syscall covers the whole pipelined window instead of one per
//! frame.
//!
//! # Timeouts
//!
//! The handler's socket read is a short tick; each tick it checks (a)
//! the drain flag, (b) an idle deadline (no traffic between frames),
//! and (c) a frame deadline (a frame that started but never finished).
//! A background reaper additionally shuts down sockets whose handler
//! has seen no traffic past the idle window plus a write grace —
//! covering handlers wedged in a blocking write to a stalled peer.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] stops the acceptor, tells every handler to say
//! `Bye` on its next tick, joins all threads, then runs
//! [`ShardedRuntime::shutdown`], which drains every queued batch and
//! flushes the WAL before returning the final event set.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stardust_core::unified::Event;
use stardust_runtime::{Batch, RuntimeError, RuntimeStats, ShardedRuntime};
use stardust_telemetry::Registry;

use crate::protocol::{
    encode_frame, parse_frame, ErrorCode, FrameParse, MetricsFormat, QuotaKind, Reply, Request,
    DEFAULT_MAX_FRAME, FRAME_HEADER_LEN, NET_MAGIC,
};
use crate::telemetry::ServerTelemetry;
use crate::tenant::{layout, TenantConfig, TenantState};

/// Backoff hint quoted in `Busy` replies.
const BUSY_RETRY_MS: u32 = 5;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously open client connections; the acceptor
    /// answers `Error(TooManyConnections)` beyond it.
    pub max_connections: usize,
    /// Maximum frame payload the server will read.
    pub max_frame: u32,
    /// Disconnect (with `Error(IdleTimeout)`) a connection that sends
    /// nothing for this long between frames.
    pub idle_timeout: Duration,
    /// Disconnect a connection whose frame starts but does not finish
    /// within this window.
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stops reading is disconnected
    /// once a write blocks this long.
    pub write_timeout: Duration,
    /// Handler poll tick: drain-flag/deadline check cadence (also the
    /// reaper's scan cadence).
    pub tick: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            max_frame: DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            tick: Duration::from_millis(25),
        }
    }
}

/// What a drained [`Server`] leaves behind.
#[derive(Debug)]
pub struct ServerReport {
    /// Every event the runtime emitted over the server's lifetime, in
    /// collector arrival order.
    pub events: Vec<Event>,
    /// Final runtime counters.
    pub stats: RuntimeStats,
}

/// Server startup errors.
#[derive(Debug)]
pub enum ServerError {
    /// Tenant layout does not match the runtime (or names/tokens
    /// collide).
    Config(String),
    /// Listener setup failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(msg) => write!(f, "server configuration rejected: {msg}"),
            ServerError::Io(e) => write!(f, "server socket error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Config(_) => None,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reaper bookkeeping for one live connection.
struct ConnEntry {
    /// Clone of the handler's socket, for out-of-band shutdown.
    stream: TcpStream,
    /// Milliseconds (since server start) of the last observed traffic.
    last_seen: Arc<AtomicU64>,
    /// Set by the handler on exit; the reaper then drops the entry.
    done: Arc<AtomicBool>,
}

struct Inner {
    rt: ShardedRuntime,
    tenants: Vec<TenantState>,
    cfg: ServerConfig,
    tel: ServerTelemetry,
    registry: Registry,
    start: Instant,
    draining: AtomicBool,
    active: AtomicUsize,
    conns: Mutex<Vec<ConnEntry>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    events: Mutex<Vec<Event>>,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A running ingest/query server. Call [`Server::shutdown`] to drain
/// it; dropping without shutting down leaks the background threads and
/// skips the runtime's WAL flush.
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr`, lays tenants out over the runtime's stream space,
    /// and starts the acceptor, reaper, and event-collector threads.
    ///
    /// # Errors
    /// [`ServerError::Config`] if tenant stream counts do not sum to
    /// the runtime's stream count (or names/tokens collide);
    /// [`ServerError::Io`] if the listener cannot bind.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        rt: ShardedRuntime,
        tenants: Vec<TenantConfig>,
        cfg: ServerConfig,
        registry: Registry,
    ) -> Result<Server, ServerError> {
        let states = layout(&tenants, rt.n_streams()).map_err(ServerError::Config)?;
        let tel = ServerTelemetry::new(&registry, &tenants);
        let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
        let local_addr = listener.local_addr().map_err(ServerError::Io)?;

        let inner = Arc::new(Inner {
            rt,
            tenants: states,
            cfg,
            tel,
            registry,
            start: Instant::now(),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        });

        let collector = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sd-net-collector".into())
                .spawn(move || collector_loop(&inner))
                .map_err(ServerError::Io)?
        };
        let reaper = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sd-net-reaper".into())
                .spawn(move || reaper_loop(&inner))
                .map_err(ServerError::Io)?
        };
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sd-net-accept".into())
                .spawn(move || accept_loop(&inner, listener))
                .map_err(ServerError::Io)?
        };

        Ok(Server {
            inner,
            local_addr,
            accept: Some(accept),
            reaper: Some(reaper),
            collector: Some(collector),
        })
    }

    /// The bound listen address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful drain: stop accepting, say `Bye` on every connection,
    /// join all threads, then shut the runtime down (draining queued
    /// batches and flushing the WAL). Returns everything the runtime
    /// emitted.
    pub fn shutdown(self) -> ServerReport {
        let Server { inner, local_addr, accept, reaper, collector } = self;
        inner.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(local_addr);
        if let Some(h) = accept {
            let _ = h.join();
        }
        let handlers = std::mem::take(&mut *lock(&inner.handlers));
        for h in handlers {
            let _ = h.join();
        }
        if let Some(h) = reaper {
            let _ = h.join();
        }
        if let Some(h) = collector {
            let _ = h.join();
        }
        let inner =
            Arc::try_unwrap(inner).unwrap_or_else(|_| unreachable!("all server threads joined"));
        inner.tel.connections_active.set(0.0);
        let mut events = inner.events.into_inner().unwrap_or_else(PoisonError::into_inner);
        let report = inner.rt.shutdown();
        events.extend(report.events);
        ServerReport { events, stats: report.stats }
    }
}

/// Moves runtime events into the server-side buffer on a short cadence
/// so `drain_events`' channel never backs up during long runs.
fn collector_loop(inner: &Inner) {
    loop {
        let evs = inner.rt.drain_events();
        if !evs.is_empty() {
            lock(&inner.events).extend(evs);
        }
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Backstop for wedged handlers: a socket with no inbound traffic past
/// the idle window plus the write grace is shut down out-of-band, which
/// errors the handler's blocking call and lets it exit.
fn reaper_loop(inner: &Inner) {
    let stale_ms =
        (inner.cfg.idle_timeout + inner.cfg.write_timeout + inner.cfg.tick).as_millis() as u64;
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        let now = inner.now_ms();
        let mut conns = lock(&inner.conns);
        conns.retain(|c| {
            if c.done.load(Ordering::SeqCst) {
                return false;
            }
            if now.saturating_sub(c.last_seen.load(Ordering::SeqCst)) > stale_ms {
                inner.tel.idle_disconnects.inc();
                let _ = c.stream.shutdown(Shutdown::Both);
                return false;
            }
            true
        });
        drop(conns);
        std::thread::sleep(inner.cfg.tick);
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if inner.active.load(Ordering::SeqCst) >= inner.cfg.max_connections {
            inner.tel.connections_rejected.inc();
            reject_over_cap(inner, stream);
            continue;
        }
        inner.active.fetch_add(1, Ordering::SeqCst);
        inner.tel.connections_total.inc();
        inner.tel.connections_active.set(inner.active.load(Ordering::SeqCst) as f64);
        let last_seen = Arc::new(AtomicU64::new(inner.now_ms()));
        let done = Arc::new(AtomicBool::new(false));
        if let Ok(clone) = stream.try_clone() {
            lock(&inner.conns).push(ConnEntry {
                stream: clone,
                last_seen: Arc::clone(&last_seen),
                done: Arc::clone(&done),
            });
        }
        let handler = {
            let inner = Arc::clone(inner);
            let done = Arc::clone(&done);
            std::thread::Builder::new().name("sd-net-conn".into()).spawn(move || {
                handle_connection(&inner, stream, &last_seen);
                done.store(true, Ordering::SeqCst);
                inner.active.fetch_sub(1, Ordering::SeqCst);
                inner.tel.connections_active.set(inner.active.load(Ordering::SeqCst) as f64);
            })
        };
        match handler {
            Ok(h) => lock(&inner.handlers).push(h),
            Err(_) => {
                // Thread spawn failed: undo the accounting and drop the
                // socket; the client sees a reset.
                done.store(true, Ordering::SeqCst);
                inner.active.fetch_sub(1, Ordering::SeqCst);
                inner.tel.connections_active.set(inner.active.load(Ordering::SeqCst) as f64);
            }
        }
    }
}

/// Over-cap connections still get the handshake plus a typed error, so
/// a well-behaved client can distinguish "server full" from a crash.
fn reject_over_cap(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.write_all(NET_MAGIC);
    let reply = Reply::Error {
        code: ErrorCode::TooManyConnections,
        detail: format!("connection cap of {} reached", inner.cfg.max_connections),
    };
    let _ = stream.write_all(&encode_frame(&reply.encode()));
    let _ = stream.shutdown(Shutdown::Both);
}

fn send(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    stream.write_all(&encode_frame(&reply.encode()))
}

fn handle_connection(inner: &Inner, mut stream: TcpStream, last_seen: &AtomicU64) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(inner.cfg.write_timeout)).is_err() {
        return;
    }
    // Handshake: the client leads with the magic; we echo it. A silent
    // or foreign client is cut off at the idle timeout.
    if stream.set_read_timeout(Some(inner.cfg.idle_timeout)).is_err() {
        return;
    }
    let mut magic = [0u8; NET_MAGIC.len()];
    if stream.read_exact(&mut magic).is_err() || &magic != NET_MAGIC {
        inner.tel.frame_errors.inc();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if stream.write_all(NET_MAGIC).is_err() {
        return;
    }
    if stream.set_read_timeout(Some(inner.cfg.tick)).is_err() {
        return;
    }

    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    // Reply bytes for the current chunk, flushed in one write_all, and
    // the decoded-but-unanswered frames — both reused across chunks.
    let mut wbuf: Vec<u8> = Vec::with_capacity(4096);
    let mut pending: Vec<Result<Request, crate::protocol::WireError>> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut tenant: Option<usize> = None;
    let mut last_activity = Instant::now();

    loop {
        if inner.draining.load(Ordering::SeqCst) {
            let _ = send(&mut stream, &Reply::Bye);
            return;
        }
        let quiet = last_activity.elapsed();
        if buf.is_empty() && quiet >= inner.cfg.idle_timeout {
            inner.tel.idle_disconnects.inc();
            let _ = send(
                &mut stream,
                &Reply::Error {
                    code: ErrorCode::IdleTimeout,
                    detail: format!("idle for {quiet:?}"),
                },
            );
            return;
        }
        if !buf.is_empty() && quiet >= inner.cfg.read_timeout {
            inner.tel.frame_errors.inc();
            let _ = send(
                &mut stream,
                &Reply::Error {
                    code: ErrorCode::BadMessage,
                    detail: "frame did not complete within the read timeout".into(),
                },
            );
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        };
        last_activity = Instant::now();
        last_seen.store(inner.now_ms(), Ordering::SeqCst);
        buf.extend_from_slice(&chunk[..n]);

        // Phase 1: slice every complete frame out of the read buffer
        // before answering any of them, so a pipelined client's whole
        // in-flight window is visible to the group-admission pass. A
        // framing error is fatal (the byte stream is unrecoverable) but
        // still answered after the frames that preceded it.
        pending.clear();
        let mut fatal: Option<Reply> = None;
        loop {
            let consumed = match parse_frame(&buf, inner.cfg.max_frame) {
                FrameParse::NeedMore(_) => break,
                FrameParse::TooLarge(len) => {
                    inner.tel.frame_errors.inc();
                    fatal = Some(Reply::Error {
                        code: ErrorCode::FrameTooLarge,
                        detail: format!(
                            "frame of {len} bytes exceeds the {}-byte cap",
                            inner.cfg.max_frame
                        ),
                    });
                    break;
                }
                FrameParse::BadCrc => {
                    inner.tel.frame_errors.inc();
                    fatal = Some(Reply::Error {
                        code: ErrorCode::BadCrc,
                        detail: "frame checksum mismatch; stream out of sync".into(),
                    });
                    break;
                }
                FrameParse::Frame { consumed } => consumed,
            };
            inner.tel.requests.inc();
            let decoded = Request::decode(&buf[FRAME_HEADER_LEN..consumed]);
            if decoded.is_err() {
                inner.tel.frame_errors.inc();
            }
            pending.push(decoded);
            buf.drain(..consumed);
        }

        // Phase 2: answer the pending frames in order, admitting each
        // run of consecutive authenticated Append frames as one
        // try_submit group. Replies accumulate in wbuf; one write_all
        // flushes the whole chunk's worth.
        wbuf.clear();
        let started = Instant::now();
        let mut close = false;
        let mut answered = 0u64;
        let mut it = pending.drain(..).peekable();
        while let Some(decoded) = it.next() {
            if close {
                // A closing reply (Goodbye, fatal error) ends the
                // conversation; later frames are never answered,
                // matching the unbuffered behavior.
                break;
            }
            match decoded {
                Ok(Request::Append { items }) if tenant.is_some() => {
                    let mut frames: Vec<Vec<(u32, f64)>> = vec![items];
                    while let Some(Ok(Request::Append { .. })) = it.peek() {
                        match it.next() {
                            Some(Ok(Request::Append { items })) => frames.push(items),
                            _ => unreachable!("peek saw an Append"),
                        }
                    }
                    let idx = tenant.expect("guarded by tenant.is_some()");
                    let (replies, c) = handle_append_group(
                        inner,
                        &inner.tenants[idx],
                        &inner.tel.tenants[idx],
                        &frames,
                    );
                    answered += replies.len() as u64;
                    for reply in &replies {
                        wbuf.extend_from_slice(&encode_frame(&reply.encode()));
                    }
                    close = c;
                }
                Ok(req) => {
                    let (reply, c) = handle_request(inner, &mut tenant, req);
                    answered += 1;
                    wbuf.extend_from_slice(&encode_frame(&reply.encode()));
                    close = c;
                }
                Err(e) => {
                    // Frame boundaries are intact, so the connection
                    // can continue past a single bad payload.
                    let reply = Reply::Error { code: ErrorCode::BadMessage, detail: e.to_string() };
                    answered += 1;
                    wbuf.extend_from_slice(&encode_frame(&reply.encode()));
                }
            }
        }
        if let Some(reply) = fatal {
            if !close {
                wbuf.extend_from_slice(&encode_frame(&reply.encode()));
                close = true;
            }
        }
        let ok = wbuf.is_empty() || stream.write_all(&wbuf).is_ok();
        // One handling pass covered `answered` frames; attribute the
        // chunk's latency to each so the histogram count stays
        // per-request.
        for _ in 0..answered {
            inner.tel.request_latency.observe_duration(started.elapsed());
        }
        if close || !ok {
            return;
        }
    }
}

/// Serves one decoded request; returns the reply and whether the
/// connection closes after it.
fn handle_request(inner: &Inner, tenant: &mut Option<usize>, req: Request) -> (Reply, bool) {
    // Pre-auth requests.
    match req {
        Request::Ping => return (Reply::Pong, false),
        Request::Goodbye => return (Reply::Bye, true),
        Request::Hello { ref token } => {
            return match inner.tenants.iter().position(|t| t.cfg.token == *token) {
                Some(i) => {
                    *tenant = Some(i);
                    let t = &inner.tenants[i].cfg;
                    (
                        Reply::HelloOk {
                            tenant: t.name.clone(),
                            streams: t.streams,
                            append_rate: t.append_rate,
                        },
                        false,
                    )
                }
                None => {
                    inner.tel.auth_failures.inc();
                    (
                        Reply::Error {
                            code: ErrorCode::Unauthenticated,
                            detail: "unknown token".into(),
                        },
                        true,
                    )
                }
            };
        }
        _ => {}
    }
    let Some(idx) = *tenant else {
        return (
            Reply::Error {
                code: ErrorCode::Unauthenticated,
                detail: "authenticate with Hello first".into(),
            },
            false,
        );
    };
    let t = &inner.tenants[idx];
    let tt = &inner.tel.tenants[idx];

    match req {
        // The connection loop admits authenticated Append runs through
        // handle_append_group directly; this arm only serves the
        // degenerate single-frame case (e.g. a frame that arrived
        // alone).
        Request::Append { items } => {
            let (mut replies, close) = handle_append_group(inner, t, tt, &[items]);
            (replies.pop().expect("one reply per frame"), close)
        }
        Request::AggregateInterval { stream, window } => match t.to_global(stream) {
            None => {
                tt.rejected_streams.inc();
                (
                    Reply::Error {
                        code: ErrorCode::UnknownStream,
                        detail: format!("stream {stream} outside 0..{}", t.cfg.streams),
                    },
                    false,
                )
            }
            Some(global) => match inner.rt.aggregate_interval(global, window as usize) {
                Ok(ans) => (Reply::AggregateInterval(ans), false),
                Err(RuntimeError::UnknownStream { .. }) => (
                    Reply::Error {
                        code: ErrorCode::UnknownStream,
                        detail: format!("stream {stream} unknown to the runtime"),
                    },
                    false,
                ),
                Err(_) => (internal_error(), true),
            },
        },
        Request::ClassStats => match inner.rt.class_stats() {
            Ok(s) => (Reply::ClassStats(s), false),
            Err(_) => (internal_error(), true),
        },
        Request::CorrelatedPairs => match inner.rt.correlated_pairs() {
            Ok(pairs) => {
                // Only pairs fully inside the tenant's namespace are
                // visible, remapped to tenant-local ids.
                let local: Vec<(u32, u32, f64)> = pairs
                    .into_iter()
                    .filter_map(|(a, b, d)| Some((t.to_local(a)?, t.to_local(b)?, d)))
                    .collect();
                (Reply::CorrelatedPairs(local), false)
            }
            Err(_) => (internal_error(), true),
        },
        Request::Metrics { format } => {
            let payload = match format {
                MetricsFormat::Prometheus => inner.registry.render_prometheus(),
                MetricsFormat::Json => inner.registry.render_json(),
            };
            (Reply::Metrics { format, payload }, false)
        }
        // Handled above.
        Request::Hello { .. } | Request::Ping | Request::Goodbye => unreachable!(),
    }
}

fn internal_error() -> Reply {
    Reply::Error { code: ErrorCode::Internal, detail: "runtime unavailable".into() }
}

/// Admits a run of `Append` frames from one connection as a single
/// `try_submit` group, answering each frame individually. Per-frame
/// quota checks happen first (a frame a quota rejects contributes
/// nothing to the group); the surviving frames are concatenated into
/// one batch, so the runtime sees one shard sub-batch per shard for
/// the whole run — one queue message, journaled under one coalesced
/// WAL write. Rejection stays all-or-nothing per shard sub-batch, so
/// the rejected global ids identify each frame's rejected indices
/// exactly, and per-frame `AppendOk`/`Busy` replies stay precise.
fn handle_append_group(
    inner: &Inner,
    t: &TenantState,
    tt: &crate::telemetry::TenantTelemetry,
    frames: &[Vec<(u32, f64)>],
) -> (Vec<Reply>, bool) {
    let mut replies: Vec<Option<Reply>> = frames.iter().map(|_| None).collect();
    let mut admitted: Vec<usize> = Vec::with_capacity(frames.len());
    let mut batch = Batch::new();
    for (k, items) in frames.iter().enumerate() {
        if let Some(&(bad, _)) = items.iter().find(|&&(s, _)| s >= t.cfg.streams) {
            tt.rejected_streams.inc();
            replies[k] = Some(Reply::QuotaExceeded {
                kind: QuotaKind::StreamCount,
                retry_after_ms: 0,
                detail: format!("stream {bad} outside the tenant's 0..{}", t.cfg.streams),
            });
            continue;
        }
        let n = items.len() as u64;
        if let Err(wait_ms) = t.bucket.try_take(n) {
            tt.rejected_rate.add(n);
            replies[k] = Some(Reply::QuotaExceeded {
                kind: QuotaKind::AppendRate,
                retry_after_ms: wait_ms,
                detail: format!("append-rate quota is {} values/s", t.cfg.append_rate),
            });
            continue;
        }
        admitted.push(k);
        for &(s, v) in items {
            batch.push(t.base + s, v);
        }
    }
    let mut close = false;
    if !admitted.is_empty() {
        match inner.rt.try_submit(&batch) {
            Ok(None) => {
                for &k in &admitted {
                    tt.accepted_values.add(frames[k].len() as u64);
                    replies[k] = Some(Reply::AppendOk { appended: frames[k].len() as u32 });
                }
            }
            Ok(Some(partial)) => {
                let rejected_globals: HashSet<u32> =
                    partial.rejected.items().iter().map(|&(s, _)| s).collect();
                for &k in &admitted {
                    let rejected: Vec<u32> = frames[k]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &(s, _))| rejected_globals.contains(&(t.base + s)))
                        .map(|(i, _)| i as u32)
                        .collect();
                    if rejected.is_empty() {
                        tt.accepted_values.add(frames[k].len() as u64);
                        replies[k] = Some(Reply::AppendOk { appended: frames[k].len() as u32 });
                    } else {
                        t.bucket.refund(rejected.len() as u64);
                        tt.accepted_values.add((frames[k].len() - rejected.len()) as u64);
                        tt.rejected_busy.add(rejected.len() as u64);
                        inner.tel.busy_replies.inc();
                        replies[k] = Some(Reply::Busy { retry_after_ms: BUSY_RETRY_MS, rejected });
                    }
                }
            }
            Err(_) => {
                for &k in &admitted {
                    replies[k] = Some(internal_error());
                }
                close = true;
            }
        }
    }
    (replies.into_iter().map(|r| r.expect("every frame answered")).collect(), close)
}
