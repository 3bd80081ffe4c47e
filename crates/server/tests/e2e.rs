//! End-to-end equivalence and quota behavior over a real socket.
//!
//! The load-bearing assertions: N concurrent clients appending disjoint
//! streams through the server produce *bit-identical* event sets to the
//! same workload run directly through `ShardedRuntime` — including
//! across a server restart with persistence enabled — and quota/
//! backpressure rejections come back as typed replies, never as
//! disconnects or silent buffering.
//!
//! Aggregate and trend events depend only on each stream's own value
//! sequence, so they are invariant to how concurrent clients interleave
//! — the multi-client audits are exact. Correlation events depend on
//! cross-stream arrival order and are covered by the single-client test
//! (deterministic interleaving); see DESIGN.md §Network service for the
//! residual.

mod common;

use std::sync::Arc;
use std::time::Duration;

use stardust_core::unified::Event;
use stardust_datagen::random_walk::random_walk_streams;
use stardust_runtime::{
    sort_events, Batch, CorrelationSpec, FaultPlan, MonitorSpec, PersistConfig, RuntimeConfig,
    ShardedRuntime,
};
use stardust_server::{
    AppendOutcome, Client, ClientError, ErrorCode, MetricsFormat, QuotaKind, Server, ServerConfig,
    TenantConfig,
};
use stardust_telemetry::{json, Registry};

use common::{fast_config, single_tenant, spec_for, tempdir, workload, BASE_WINDOW, LEVELS};

const TOKEN: &str = "t0-token";
const SHARDS: usize = 2;
const QUEUE: usize = 256;

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig { shards: SHARDS, queue_capacity: QUEUE, ..RuntimeConfig::default() }
}

/// Ground truth: the whole workload row-major through a direct runtime.
fn direct_events(spec: &MonitorSpec, streams: &[Vec<f64>]) -> Vec<Event> {
    let rt = ShardedRuntime::launch(spec, streams.len(), runtime_config()).unwrap();
    let n = streams[0].len();
    for t in 0..n {
        let batch: Batch = streams.iter().enumerate().map(|(g, s)| (g as u32, s[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    let mut events = rt.shutdown().events;
    sort_events(&mut events);
    events
}

/// Runs one client per stream, each appending its own column in chunks,
/// all concurrently. Returns when every client is done.
fn run_clients(addr: std::net::SocketAddr, streams: &[Vec<f64>], lo: usize, hi: usize) {
    std::thread::scope(|scope| {
        for (g, s) in streams.iter().enumerate() {
            let col = &s[lo..hi];
            scope.spawn(move || {
                let (mut client, hello) = Client::connect(addr, TOKEN).unwrap();
                assert_eq!(hello.tenant, "t0");
                for chunk in col.chunks(16) {
                    let items: Vec<(u32, f64)> = chunk.iter().map(|&v| (g as u32, v)).collect();
                    client.append_all(&items).unwrap();
                }
                client.goodbye().unwrap();
            });
        }
    });
}

/// N concurrent clients over disjoint streams == the direct runtime,
/// event set compared bit-for-bit. 32 clients contend for two shards;
/// `append_all` retries any `Busy` reply, so values admitted after
/// backpressure are audited too.
#[test]
fn multi_client_equivalence() {
    const N: usize = 32;
    let (streams, r_max) = workload(42, N, 192);
    let spec = spec_for(&streams, r_max);
    let expected = direct_events(&spec, &streams);
    assert!(!expected.is_empty(), "vacuous equivalence: reference run emitted nothing");

    let rt = ShardedRuntime::launch(&spec, N, runtime_config()).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        rt,
        single_tenant(N as u32),
        ServerConfig::default(),
        Registry::new(),
    )
    .unwrap();
    run_clients(server.local_addr(), &streams, 0, streams[0].len());
    let mut got = server.shutdown().events;
    sort_events(&mut got);
    assert_eq!(got, expected, "event sets diverged between socket and direct ingest");
}

/// Same equivalence across a full stop/start cycle with persistence:
/// half the workload, graceful shutdown (WAL flush), reopen from disk,
/// second half. The union of both sessions' events must equal one
/// uninterrupted direct run.
#[test]
fn equivalence_across_restart() {
    const N: usize = 6;
    let (streams, r_max) = workload(43, N, 160);
    let spec = spec_for(&streams, r_max);
    let expected = direct_events(&spec, &streams);
    assert!(!expected.is_empty(), "vacuous equivalence: reference run emitted nothing");

    let dir = tempdir("restart");
    let half = streams[0].len() / 2;
    let mut got: Vec<Event> = Vec::new();

    for (lo, hi) in [(0, half), (half, streams[0].len())] {
        let (rt, _report) =
            ShardedRuntime::open(&spec, N, runtime_config(), PersistConfig::new(&dir)).unwrap();
        let server = Server::start(
            "127.0.0.1:0",
            rt,
            single_tenant(N as u32),
            ServerConfig::default(),
            Registry::new(),
        )
        .unwrap();
        run_clients(server.local_addr(), &streams, lo, hi);
        got.extend(server.shutdown().events);
    }
    sort_events(&mut got);
    assert_eq!(got, expected, "restart changed the delivered event set");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Correlation events depend on cross-stream interleaving, so they are
/// audited with a single client whose batch sequence exactly mirrors
/// the direct run.
#[test]
fn correlation_equivalence_single_client() {
    const N: usize = 4;
    let streams = {
        // Two near-identical streams guarantee correlation reports.
        // *Pushed* correlation events are detected within a shard, so
        // the twin must land on stream 0's shard: with `g % 2` sharding
        // that is stream 2. (The pulled `correlated_pairs` query spans
        // shards; see `cross_shard_pairs_are_tenant_filtered`.)
        let mut s = random_walk_streams(7, N, 128);
        let twin: Vec<f64> = s[0].iter().map(|v| v + 1e-9).collect();
        s[2] = twin;
        s
    };
    let r_max = stardust_datagen::random_walk::observed_r_max(&streams);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 0.5 });
    let expected = direct_events(&spec, &streams);
    assert!(!expected.is_empty(), "vacuous: no correlation events in the reference run");

    let rt = ShardedRuntime::launch(&spec, N, runtime_config()).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        rt,
        single_tenant(N as u32),
        ServerConfig::default(),
        Registry::new(),
    )
    .unwrap();
    let (mut client, _) = Client::connect(server.local_addr(), TOKEN).unwrap();
    let n = streams[0].len();
    for t in 0..n {
        let items: Vec<(u32, f64)> =
            streams.iter().enumerate().map(|(g, s)| (g as u32, s[t])).collect();
        client.append_all(&items).unwrap();
    }
    // The wire-level correlation query agrees with the direct one.
    let direct = {
        let rt = ShardedRuntime::launch(&spec, N, runtime_config()).unwrap();
        for t in 0..n {
            let batch: Batch = streams.iter().enumerate().map(|(g, s)| (g as u32, s[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
        let pairs = rt.correlated_pairs().unwrap();
        rt.shutdown();
        pairs
    };
    let over_wire = client.correlated_pairs().unwrap();
    assert_eq!(over_wire, direct, "correlated_pairs diverged over the wire");
    client.goodbye().unwrap();

    let mut got = server.shutdown().events;
    sort_events(&mut got);
    assert_eq!(got, expected, "correlation events diverged between socket and direct ingest");
}

/// Cross-shard pairs flow through the collector's sketch-prune path and
/// stay tenant-filtered over the wire: each tenant sees exactly the
/// pairs whose *both* ends live in its namespace, in tenant-local ids.
/// A correlated pair spanning two tenants is visible to neither.
#[test]
fn cross_shard_pairs_are_tenant_filtered() {
    const N: usize = 6;
    let streams = {
        let mut s = random_walk_streams(9, N, 128);
        // Twin (0, 1): within tenant a, cross-shard under `g % 2`.
        s[1] = s[0].iter().map(|v| v + 1e-9).collect();
        // Twin (3, 4): spans tenants a and b, also cross-shard.
        s[4] = s[3].iter().map(|v| v + 1e-9).collect();
        s
    };
    let r_max = stardust_datagen::random_walk::observed_r_max(&streams);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 0.5 });
    let n = streams[0].len();

    // Unfiltered ground truth through a direct runtime.
    let direct = {
        let rt = ShardedRuntime::launch(&spec, N, runtime_config()).unwrap();
        for t in 0..n {
            let batch: Batch = streams.iter().enumerate().map(|(g, s)| (g as u32, s[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
        let pairs = rt.correlated_pairs().unwrap();
        rt.shutdown();
        pairs
    };
    assert!(
        direct.iter().any(|&(a, b, _)| (a, b) == (0, 1)),
        "vacuous: within-tenant cross-shard twin not detected: {direct:?}"
    );
    assert!(
        direct.iter().any(|&(a, b, _)| (a, b) == (3, 4)),
        "vacuous: tenant-spanning twin not detected: {direct:?}"
    );

    let registry = Registry::new();
    let rt = ShardedRuntime::launch(
        &spec,
        N,
        RuntimeConfig { telemetry: Some(registry.clone()), ..runtime_config() },
    )
    .unwrap();
    let tenants = vec![
        TenantConfig { name: "a".into(), token: "a-token".into(), streams: 4, append_rate: 0 },
        TenantConfig { name: "b".into(), token: "b-token".into(), streams: 2, append_rate: 0 },
    ];
    let server =
        Server::start("127.0.0.1:0", rt, tenants, ServerConfig::default(), Registry::new())
            .unwrap();
    let addr = server.local_addr();
    let (mut a, _) = Client::connect(addr, "a-token").unwrap();
    let (mut b, _) = Client::connect(addr, "b-token").unwrap();
    for t in 0..n {
        let tenant_a: Vec<(u32, f64)> = (0..4).map(|g| (g as u32, streams[g][t])).collect();
        let tenant_b: Vec<(u32, f64)> = (0..2).map(|l| (l as u32, streams[4 + l][t])).collect();
        a.append_all(&tenant_a).unwrap();
        b.append_all(&tenant_b).unwrap();
    }

    // Tenant a: exactly the direct pairs fully inside globals 0..4
    // (its base is 0, so local ids equal global ids). The (3, 4) pair
    // crosses the namespace boundary and must be filtered out.
    let seen_a = a.correlated_pairs().unwrap();
    let expect_a: Vec<(u32, u32, f64)> =
        direct.iter().copied().filter(|&(x, y, _)| x < 4 && y < 4).collect();
    assert_eq!(seen_a, expect_a, "tenant a's view diverged from the filtered ground truth");
    assert!(seen_a.iter().any(|&(x, y, _)| (x, y) == (0, 1)));
    assert!(
        seen_a.iter().all(|&(x, y, _)| x < 4 && y < 4),
        "tenant a saw ids outside its namespace: {seen_a:?}"
    );

    // Tenant b: streams 4 and 5 are uncorrelated, and the (3, 4) pair
    // has one end outside its namespace — it must see nothing.
    let seen_b = b.correlated_pairs().unwrap();
    assert!(seen_b.is_empty(), "tenant b saw pairs outside its namespace: {seen_b:?}");

    // The runtime's cross-shard counters prove the wire queries rode
    // the sketch-prune path, not a same-shard shortcut.
    let doc = json::parse(&registry.render_json()).expect("runtime metrics JSON must parse");
    let counters = doc.get("counters").expect("counters object");
    let confirmed = counters
        .get("stardust_cross_corr_confirmed_total")
        .and_then(|v| v.as_u64())
        .expect("cross-corr confirmed counter present");
    assert!(confirmed >= 1, "no cross-shard pair was ever confirmed");
    let exchanges = counters
        .get("stardust_sketch_exchanges_total")
        .and_then(|v| v.as_u64())
        .expect("sketch exchange counter present");
    assert!(exchanges > 0, "sketches were never exchanged");

    a.goodbye().unwrap();
    b.goodbye().unwrap();
    server.shutdown();
}

/// Authentication and both quota classes answer with typed replies and
/// leave the connection in a defined state.
#[test]
fn auth_and_quota_replies_are_typed() {
    let (streams, r_max) = workload(44, 6, 96);
    let spec = spec_for(&streams, r_max);
    let rt = ShardedRuntime::launch(&spec, 6, runtime_config()).unwrap();
    let tenants = vec![
        TenantConfig { name: "a".into(), token: "a-token".into(), streams: 4, append_rate: 0 },
        TenantConfig { name: "b".into(), token: "b-token".into(), streams: 2, append_rate: 64 },
    ];
    let server =
        Server::start("127.0.0.1:0", rt, tenants, ServerConfig::default(), Registry::new())
            .unwrap();
    let addr = server.local_addr();

    // Bad token: typed Unauthenticated, connection closed by server.
    match Client::connect(addr, "wrong-token") {
        Err(ClientError::Server { code: ErrorCode::Unauthenticated, .. }) => {}
        Err(other) => panic!("expected Unauthenticated, got {other:?}"),
        Ok(_) => panic!("expected Unauthenticated, got a session"),
    }

    // Stream-count quota: appends beyond the namespace are rejected
    // whole, with a typed reply, and the connection stays usable.
    let (mut a, hello_a) = Client::connect(addr, "a-token").unwrap();
    assert_eq!((hello_a.tenant.as_str(), hello_a.streams), ("a", 4));
    match a.append(&[(0, 1.0), (4, 2.0)]).unwrap() {
        AppendOutcome::Quota { kind: QuotaKind::StreamCount, .. } => {}
        other => panic!("expected StreamCount quota, got {other:?}"),
    }
    a.ping().unwrap();

    // Tenant isolation: tenant b's stream 0 is global stream 4; the
    // runtime sees tenant-local ids offset into disjoint slices.
    let (mut b, hello_b) = Client::connect(addr, "b-token").unwrap();
    assert_eq!((hello_b.tenant.as_str(), hello_b.streams, hello_b.append_rate), ("b", 2, 64));
    match b.append(&[(2, 1.0)]).unwrap() {
        AppendOutcome::Quota { kind: QuotaKind::StreamCount, .. } => {}
        other => panic!("tenant b must not reach stream 2, got {other:?}"),
    }

    // Append-rate quota: a burst beyond 64 values/s gets a typed
    // AppendRate rejection with a non-zero retry hint; nothing from the
    // rejected batch is admitted.
    let burst: Vec<(u32, f64)> = (0..64).map(|i| (i % 2, i as f64)).collect();
    match b.append(&burst).unwrap() {
        AppendOutcome::Appended(64) => {}
        other => panic!("first burst should fit the bucket, got {other:?}"),
    }
    match b.append(&[(0, 1.0)]).unwrap() {
        AppendOutcome::Quota { kind: QuotaKind::AppendRate, retry_after_ms, .. } => {
            assert!(retry_after_ms > 0, "rate rejection must quote a wait");
        }
        other => panic!("expected AppendRate quota, got {other:?}"),
    }
    b.ping().unwrap();

    a.goodbye().unwrap();
    b.goodbye().unwrap();
    let report = server.shutdown();
    // Only the one admitted burst ever reached the runtime.
    assert_eq!(report.stats.total_appends(), 64);
}

/// Shard-queue backpressure surfaces as a typed `Busy` reply carrying
/// the exact rejected indices, and retrying only those indices admits
/// every value exactly once.
#[test]
fn busy_reply_lists_rejected_indices_exactly_once() {
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, 100.0).with_aggregates(
        stardust_runtime::AggregateSpec {
            transform: stardust_core::transform::TransformKind::Sum,
            windows: vec![stardust_core::query::aggregate::WindowSpec {
                window: 2 * BASE_WINDOW,
                threshold: 1e12,
            }],
            box_capacity: 4,
        },
    );
    // Stall the only shard on its first batch so the 2-deep queue
    // fills deterministically.
    let plan = Arc::new(FaultPlan::new().stall(0, 1, Duration::from_millis(400)));
    let rt = ShardedRuntime::launch(
        &spec,
        2,
        RuntimeConfig {
            shards: 1,
            queue_capacity: 2,
            fault_plan: Some(plan),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let server =
        Server::start("127.0.0.1:0", rt, single_tenant(2), fast_config(), Registry::new()).unwrap();
    let (mut client, _) = Client::connect(server.local_addr(), TOKEN).unwrap();

    let batch: Vec<(u32, f64)> = (0..8).map(|i| (i % 2, i as f64)).collect();
    let mut admitted = 0u64;
    let mut saw_busy = false;
    let mut pending: Vec<Vec<(u32, f64)>> = (0..8).map(|_| batch.clone()).collect();
    while let Some(items) = pending.pop() {
        match client.append(&items).unwrap() {
            AppendOutcome::Appended(n) => admitted += u64::from(n),
            AppendOutcome::Busy { retry_after_ms, rejected } => {
                saw_busy = true;
                assert!(!rejected.is_empty());
                assert!(rejected.iter().all(|&i| (i as usize) < items.len()));
                // With one shard, rejection is all-or-nothing.
                assert_eq!(rejected.len(), items.len());
                admitted += (items.len() - rejected.len()) as u64;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                pending.push(rejected.iter().map(|&i| items[i as usize]).collect::<Vec<_>>());
            }
            other => panic!("unexpected append outcome: {other:?}"),
        }
    }
    assert!(saw_busy, "a stalled 2-deep queue never produced a Busy reply");

    client.goodbye().unwrap();
    let report = server.shutdown();
    assert_eq!(
        report.stats.total_appends(),
        admitted,
        "values were lost or duplicated across Busy retries"
    );
    assert_eq!(admitted, 8 * batch.len() as u64);
}

/// A wedged shard must not trap `append_all` in its retry loop
/// forever: once the [`stardust_server::RetryPolicy`] budget is spent,
/// the client gives up with the typed `RetriesExhausted` error.
#[test]
fn append_all_gives_up_typed_when_the_server_stays_busy() {
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, 100.0).with_aggregates(
        stardust_runtime::AggregateSpec {
            transform: stardust_core::transform::TransformKind::Sum,
            windows: vec![stardust_core::query::aggregate::WindowSpec {
                window: 2 * BASE_WINDOW,
                threshold: 1e12,
            }],
            box_capacity: 4,
        },
    );
    // Stall the only shard well past the retry budget's total sleep
    // (3 rounds × ≤ 4 ms) so every retry still finds the queue full.
    let plan = Arc::new(FaultPlan::new().stall(0, 1, Duration::from_millis(600)));
    let rt = ShardedRuntime::launch(
        &spec,
        2,
        RuntimeConfig {
            shards: 1,
            queue_capacity: 2,
            fault_plan: Some(plan),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    // Park the worker inside the stall before any client connects: one
    // value goes in, and once the queue reads empty again the worker has
    // drained that batch alone and is stalled on it. Filling the queue
    // earlier would let a late-waking worker drain several batches into
    // one group and leave room for `append_all`.
    rt.append_blocking(0, 0.0).unwrap();
    while rt.stats().shards[0].queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let server =
        Server::start("127.0.0.1:0", rt, single_tenant(2), fast_config(), Registry::new()).unwrap();
    let (mut client, _) = Client::connect(server.local_addr(), TOKEN).unwrap();
    client.set_retry_policy(stardust_server::RetryPolicy {
        base_ms: 1,
        cap_ms: 4,
        max_attempts: 3,
        seed: 42,
    });

    // Fill the 2-deep queue behind the stalled worker, then ask
    // `append_all` to push one more batch: every round is `Busy`.
    let batch: Vec<(u32, f64)> = (0..8).map(|i| (i % 2, i as f64)).collect();
    for _ in 0..2 {
        assert_eq!(client.append(&batch).unwrap(), AppendOutcome::Appended(batch.len() as u32));
    }
    match client.append_all(&batch) {
        Err(ClientError::RetriesExhausted { attempts: 3 }) => {}
        other => panic!("expected RetriesExhausted after 3 rounds, got {other:?}"),
    }
    // The connection survives giving up; the server drains normally.
    client.ping().unwrap();
    client.goodbye().unwrap();
    server.shutdown();
}

/// Pipelined clients (whole windows of append frames in flight, group-
/// admitted server-side) produce the same bit-identical event set as
/// the direct runtime — batching at the socket must not change what
/// the monitor computes.
#[test]
fn pipelined_append_equivalence() {
    const N: usize = 8;
    const PIPELINE: usize = 4;
    let (streams, r_max) = workload(44, N, 192);
    let spec = spec_for(&streams, r_max);
    let expected = direct_events(&spec, &streams);
    assert!(!expected.is_empty(), "vacuous equivalence: reference run emitted nothing");

    let rt = ShardedRuntime::launch(&spec, N, runtime_config()).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        rt,
        single_tenant(N as u32),
        ServerConfig::default(),
        Registry::new(),
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for (g, s) in streams.iter().enumerate() {
            scope.spawn(move || {
                let (mut client, _) = Client::connect(addr, TOKEN).unwrap();
                for window in s.chunks(16 * PIPELINE) {
                    let batches: Vec<Vec<(u32, f64)>> = window
                        .chunks(16)
                        .map(|chunk| chunk.iter().map(|&v| (g as u32, v)).collect())
                        .collect();
                    let outcomes = client.append_group(&batches).unwrap();
                    assert_eq!(outcomes.len(), batches.len(), "one reply per pipelined frame");
                    for (outcome, batch) in outcomes.iter().zip(&batches) {
                        assert_eq!(*outcome, AppendOutcome::Appended(batch.len() as u32));
                    }
                }
                client.goodbye().unwrap();
            });
        }
    });
    let mut got = server.shutdown().events;
    sort_events(&mut got);
    assert_eq!(got, expected, "event sets diverged between pipelined and direct ingest");
}

/// A pipelined group answers every frame individually: a frame a quota
/// rejects (out-of-range stream) contributes nothing to the group and
/// gets its own typed reply, while its neighbors are admitted — and
/// the admitted count is exact.
#[test]
fn pipelined_group_answers_frames_individually() {
    let spec = spec_for(&workload(45, 2, 64).0, 100.0);
    let rt = ShardedRuntime::launch(&spec, 2, runtime_config()).unwrap();
    let server =
        Server::start("127.0.0.1:0", rt, single_tenant(2), fast_config(), Registry::new()).unwrap();
    let (mut client, _) = Client::connect(server.local_addr(), TOKEN).unwrap();

    let good: Vec<(u32, f64)> = vec![(0, 1.0), (1, 2.0)];
    let bad: Vec<(u32, f64)> = vec![(0, 3.0), (9, 4.0)]; // stream 9 outside 0..2
    let outcomes = client.append_group(&[good.clone(), bad, good.clone()]).unwrap();
    assert_eq!(outcomes.len(), 3);
    assert_eq!(outcomes[0], AppendOutcome::Appended(2));
    assert!(
        matches!(&outcomes[1], AppendOutcome::Quota { kind: QuotaKind::StreamCount, .. }),
        "out-of-range frame must be quota-rejected, got {:?}",
        outcomes[1]
    );
    assert_eq!(outcomes[2], AppendOutcome::Appended(2));

    client.goodbye().unwrap();
    let report = server.shutdown();
    assert_eq!(report.stats.total_appends(), 4, "only the two good frames were admitted");
}

/// `stardust metrics` over the wire: both export formats round-trip,
/// the JSON parses against the `stardust-metrics/v1` schema, and the
/// server series reflect the traffic just sent (golden assertions).
#[test]
fn metrics_over_the_wire() {
    let (streams, r_max) = workload(45, 4, 96);
    let spec = spec_for(&streams, r_max);
    let registry = Registry::new();
    let rt = ShardedRuntime::launch(
        &spec,
        4,
        RuntimeConfig { telemetry: Some(registry.clone()), ..runtime_config() },
    )
    .unwrap();
    let server =
        Server::start("127.0.0.1:0", rt, single_tenant(4), ServerConfig::default(), registry)
            .unwrap();
    let (mut client, _) = Client::connect(server.local_addr(), TOKEN).unwrap();
    client.append_all(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]).unwrap();

    // JSON: parses, carries the schema tag, and the per-tenant accepted
    // counter equals exactly the four values just appended.
    let payload = client.metrics(MetricsFormat::Json).unwrap();
    let doc = json::parse(&payload).expect("metrics JSON must parse");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("stardust-metrics/v1"));
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("stardust_server_tenant_accepted_values_total{tenant=\"t0\"}")
            .and_then(|v| v.as_u64()),
        Some(4),
        "accepted-values counter disagrees with the appends sent"
    );
    assert_eq!(
        doc.get("gauges")
            .and_then(|g| g.get("stardust_server_connections_active"))
            .and_then(|v| v.as_f64()),
        Some(1.0),
        "exactly one connection is open"
    );
    let requests = counters
        .get("stardust_server_requests_total")
        .and_then(|v| v.as_u64())
        .expect("requests counter present");
    assert!(requests >= 2, "hello + append must have been counted, got {requests}");

    // The runtime's own series share the registry, so one wire fetch
    // exports both layers.
    assert!(
        counters.as_object().unwrap().iter().any(|(k, _)| k.starts_with("stardust_runtime")
            || k.starts_with("stardust_ingest")
            || k.starts_with("stardust_")),
        "runtime series missing from the shared registry"
    );

    // Prometheus: well-formed exposition with HELP/TYPE headers for the
    // server series.
    let prom = client.metrics(MetricsFormat::Prometheus).unwrap();
    assert!(prom.contains("# HELP stardust_server_requests_total"));
    assert!(prom.contains("# TYPE stardust_server_requests_total counter"));
    assert!(prom.contains("stardust_server_tenant_accepted_values_total{tenant=\"t0\"} 4"));

    client.goodbye().unwrap();
    server.shutdown();
}
