//! Load driver for the `stardust serve` network layer: N concurrent
//! clients × sustained append throughput × tail latency, with an
//! optional self-audit proving zero lost or duplicated events.
//!
//! Two modes:
//!
//! * **self-hosted** — starts an in-process [`Server`] on
//!   `127.0.0.1:0`, runs the fleet, then replays the identical workload
//!   through a direct [`ShardedRuntime`] and requires *bit-identical*
//!   event sets (the equality audit from the persistence tests, applied
//!   across the socket). This is what CI's `load_driver` step runs.
//! * **remote** — points the same fleet at an externally started
//!   `stardust serve` (no audit: the remote event set is not
//!   observable).
//!
//! Each client owns one disjoint stream, so aggregate/trend events are
//! invariant to client interleaving and the audit is exact (see
//! DESIGN.md §Network service for why correlation is excluded).

use std::sync::Mutex;
use std::time::Instant;

use stardust_core::query::aggregate::WindowSpec;
use stardust_core::transform::TransformKind;
use stardust_datagen::random_walk::{observed_r_max, random_walk_streams};
use stardust_runtime::{
    sort_events, AggregateSpec, Batch, MonitorSpec, RuntimeConfig, ShardedRuntime, TrendPattern,
    TrendSpec,
};
use stardust_server::{Client, Server, ServerConfig, TenantConfig};
use stardust_telemetry::{Histogram, Registry};

/// Load-driver parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections (one disjoint stream each).
    pub clients: usize,
    /// Values each client appends.
    pub values_per_client: usize,
    /// Values per append request.
    pub batch: usize,
    /// Append frames kept in flight per round trip (pipelining depth;
    /// 1 = the pre-group-commit request/reply lockstep).
    pub pipeline: usize,
    /// Runtime worker shards (0 = one per CPU).
    pub shards: usize,
    /// Per-shard queue capacity in batches.
    pub queue_capacity: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 32,
            values_per_client: 4_096,
            batch: 64,
            pipeline: 8,
            shards: 0,
            queue_capacity: 256,
            seed: 42,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Concurrent clients sustained.
    pub clients: usize,
    /// Total values admitted across all clients.
    pub values: u64,
    /// Wall-clock of the append phase, seconds.
    pub elapsed_s: f64,
    /// `values / elapsed_s`.
    pub throughput_values_per_s: f64,
    /// Median append round trip (request write → last reply decoded,
    /// including any Busy retry waits inside the round), nanoseconds.
    pub append_p50_ns: u64,
    /// 95th percentile round-trip, ns.
    pub append_p95_ns: u64,
    /// 99th percentile round-trip, ns.
    pub append_p99_ns: u64,
    /// `Busy` replies absorbed fleet-wide (backpressure observed).
    pub busy_replies: u64,
    /// Append-rate quota waits absorbed fleet-wide.
    pub rate_waits: u64,
    /// Event-set equality audit: `None` in remote mode, otherwise
    /// whether the socket run matched the direct run bit-for-bit.
    pub audit_ok: Option<bool>,
    /// Events observed in the audit (socket side).
    pub audit_events: u64,
}

const BASE_WINDOW: usize = 16;
const LEVELS: usize = 3;
const TOKEN: &str = "bench-token";

/// Aggregate + trend spec whose thresholds the seeded workload crosses,
/// so the audit compares non-empty event sets.
fn spec_for(streams: &[Vec<f64>]) -> MonitorSpec {
    let r_max = observed_r_max(streams);
    let window = 2 * BASE_WINDOW;
    let max_sum = streams
        .iter()
        .flat_map(|s| s.windows(window).map(|w| w.iter().sum::<f64>()))
        .fold(f64::MIN, f64::max);
    let pattern: Vec<f64> = streams[0][8..8 + window].to_vec();
    MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_aggregates(AggregateSpec {
            transform: TransformKind::Sum,
            windows: vec![WindowSpec { window, threshold: max_sum * 0.98 }],
            box_capacity: 4,
        })
        .with_trends(TrendSpec {
            coeffs: 4,
            box_capacity: 4,
            patterns: vec![TrendPattern { sequence: pattern, radius: 0.05 }],
        })
}

/// Runs the client fleet against `addr`; returns (admitted values,
/// busy replies, rate waits) with latencies recorded into `lat`.
fn run_fleet(
    addr: std::net::SocketAddr,
    token: &str,
    streams: &[Vec<f64>],
    batch: usize,
    pipeline: usize,
    lat: &Histogram,
) -> (u64, u64, u64) {
    let pipeline = pipeline.max(1);
    let totals = Mutex::new((0u64, 0u64, 0u64));
    std::thread::scope(|scope| {
        for (g, s) in streams.iter().enumerate() {
            let totals = &totals;
            scope.spawn(move || {
                let (mut client, _) = Client::connect(addr, token)
                    .unwrap_or_else(|e| panic!("client {g} failed to connect: {e}"));
                let mut appended = 0u64;
                let mut busy = 0u64;
                let mut waits = 0u64;
                // Each round trip pipelines up to `pipeline` append
                // frames; the server admits the run as one try_submit
                // group and replies to each frame.
                for window in s.chunks(batch * pipeline) {
                    let batches: Vec<Vec<(u32, f64)>> = window
                        .chunks(batch)
                        .map(|chunk| chunk.iter().map(|&v| (g as u32, v)).collect())
                        .collect();
                    let span = lat.span();
                    let stats = client
                        .append_group_all(&batches)
                        .unwrap_or_else(|e| panic!("client {g} append failed: {e}"));
                    drop(span);
                    appended += window.len() as u64;
                    busy += stats.busy_replies;
                    waits += stats.rate_waits;
                }
                client.goodbye().unwrap_or_else(|e| panic!("client {g} goodbye failed: {e}"));
                let mut t = totals.lock().unwrap();
                t.0 += appended;
                t.1 += busy;
                t.2 += waits;
            });
        }
    });
    totals.into_inner().unwrap()
}

fn percentiles(lat: &Histogram) -> (u64, u64, u64) {
    (
        lat.quantile(0.50).unwrap_or(0),
        lat.quantile(0.95).unwrap_or(0),
        lat.quantile(0.99).unwrap_or(0),
    )
}

/// Self-hosted run: in-process server, fleet, then the equality audit
/// against a direct runtime executing the identical workload.
pub fn run_self_hosted(cfg: &LoadConfig) -> LoadResult {
    let streams = random_walk_streams(cfg.seed, cfg.clients, cfg.values_per_client);
    let spec = spec_for(&streams);
    let runtime_config = RuntimeConfig {
        shards: cfg.shards,
        queue_capacity: cfg.queue_capacity,
        ..RuntimeConfig::default()
    };

    let rt =
        ShardedRuntime::launch(&spec, cfg.clients, runtime_config.clone()).expect("launch runtime");
    let tenants = vec![TenantConfig {
        name: "bench".into(),
        token: TOKEN.into(),
        streams: cfg.clients as u32,
        append_rate: 0,
    }];
    let server = Server::start(
        "127.0.0.1:0",
        rt,
        tenants,
        ServerConfig { max_connections: cfg.clients + 8, ..ServerConfig::default() },
        Registry::new(),
    )
    .expect("start server");

    let lat = Histogram::standalone(stardust_telemetry::duration_buckets_ns());
    let start = Instant::now();
    let (values, busy_replies, rate_waits) =
        run_fleet(server.local_addr(), TOKEN, &streams, cfg.batch, cfg.pipeline, &lat);
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut socket_events = server.shutdown().events;

    // Audit: identical workload straight into a fresh runtime.
    let rt = ShardedRuntime::launch(&spec, cfg.clients, runtime_config).expect("audit runtime");
    for (g, s) in streams.iter().enumerate() {
        for chunk in s.chunks(cfg.batch) {
            let batch: Batch = chunk.iter().map(|&v| (g as u32, v)).collect();
            rt.submit_blocking(&batch).expect("audit submit");
        }
    }
    let mut direct_events = rt.shutdown().events;
    sort_events(&mut socket_events);
    sort_events(&mut direct_events);
    let audit_ok = socket_events == direct_events && !socket_events.is_empty();

    let (append_p50_ns, append_p95_ns, append_p99_ns) = percentiles(&lat);
    LoadResult {
        clients: cfg.clients,
        values,
        elapsed_s,
        throughput_values_per_s: values as f64 / elapsed_s,
        append_p50_ns,
        append_p95_ns,
        append_p99_ns,
        busy_replies,
        rate_waits,
        audit_ok: Some(audit_ok),
        audit_events: socket_events.len() as u64,
    }
}

/// Remote run: same fleet against an already-listening server. No
/// audit (the remote event set is not observable from here).
pub fn run_remote(addr: &str, token: &str, cfg: &LoadConfig) -> LoadResult {
    let streams = random_walk_streams(cfg.seed, cfg.clients, cfg.values_per_client);
    let addr: std::net::SocketAddr =
        addr.parse().unwrap_or_else(|e| panic!("bad --addr '{addr}': {e}"));
    let lat = Histogram::standalone(stardust_telemetry::duration_buckets_ns());
    let start = Instant::now();
    let (values, busy_replies, rate_waits) =
        run_fleet(addr, token, &streams, cfg.batch, cfg.pipeline, &lat);
    let elapsed_s = start.elapsed().as_secs_f64();
    let (append_p50_ns, append_p95_ns, append_p99_ns) = percentiles(&lat);
    LoadResult {
        clients: cfg.clients,
        values,
        elapsed_s,
        throughput_values_per_s: values as f64 / elapsed_s,
        append_p50_ns,
        append_p95_ns,
        append_p99_ns,
        busy_replies,
        rate_waits,
        audit_ok: None,
        audit_events: 0,
    }
}
