//! Crash recovery must not change what the framework detects.
//!
//! Each test kills shard workers mid-ingest through a seeded
//! [`FaultPlan`] and checks that the supervisor-recovered run emits an
//! event set *bit-identical* to an unfaulted run: nothing lost from the
//! queues, nothing delivered twice by the replay, every monitor resumed
//! from its snapshot exactly where it died.

use std::sync::Arc;
use std::time::Duration;

use stardust_core::query::aggregate::WindowSpec;
use stardust_core::stream::StreamId;
use stardust_core::transform::TransformKind;
use stardust_core::unified::Event;
use stardust_datagen::random_walk::{observed_r_max, random_walk_streams};
use stardust_runtime::{
    sort_events, AggregateSpec, Batch, CorrelationSpec, FaultPlan, MonitorSpec, RecoveryPolicy,
    RuntimeConfig, RuntimeError, ShardedRuntime, ShutdownReport, TrendPattern, TrendSpec,
};

const BASE_WINDOW: usize = 16;
const LEVELS: usize = 3;
const N_STREAMS: usize = 6;
const N_VALUES: usize = 512;

fn workload(seed: u64, n_streams: usize) -> (Vec<Vec<f64>>, f64) {
    let streams = random_walk_streams(seed, n_streams, N_VALUES);
    let r_max = observed_r_max(&streams);
    (streams, r_max)
}

/// A SUM threshold low enough that some windows of the data cross it.
fn crossing_threshold(streams: &[Vec<f64>], window: usize) -> f64 {
    let max_sum = streams
        .iter()
        .flat_map(|s| s.windows(window).map(|w| w.iter().sum::<f64>()))
        .fold(f64::MIN, f64::max);
    max_sum * 0.98
}

/// The aggregate + trend spec the determinism suite proves equivalent
/// to a single monitor; here it runs under injected crashes.
fn agg_trend_spec(streams: &[Vec<f64>], r_max: f64) -> MonitorSpec {
    let threshold = crossing_threshold(streams, 2 * BASE_WINDOW);
    let pattern: Vec<f64> = streams[2][100..100 + 2 * BASE_WINDOW].to_vec();
    MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_aggregates(AggregateSpec {
            transform: TransformKind::Sum,
            windows: vec![WindowSpec { window: 2 * BASE_WINDOW, threshold }],
            box_capacity: 4,
        })
        .with_trends(TrendSpec {
            coeffs: 4,
            box_capacity: 4,
            patterns: vec![TrendPattern { sequence: pattern, radius: 0.05 }],
        })
}

/// Replays `streams` through a single-threaded monitor.
fn single_threaded_events(spec: &MonitorSpec, streams: &[Vec<f64>]) -> Vec<Event> {
    let mut monitor = spec.build(streams.len()).unwrap().unwrap();
    let mut events = Vec::new();
    for t in 0..N_VALUES {
        for (s, stream) in streams.iter().enumerate() {
            events.extend(monitor.append(s as StreamId, stream[t]));
        }
    }
    events
}

/// Replays `streams` through a sharded runtime under `faults` (one
/// batch per time step), returning the shutdown report.
fn faulted_run(
    spec: &MonitorSpec,
    streams: &[Vec<f64>],
    shards: usize,
    faults: Option<Arc<FaultPlan>>,
    snapshot_every: u64,
) -> ShutdownReport {
    let rt = ShardedRuntime::launch(
        spec,
        streams.len(),
        RuntimeConfig {
            shards,
            queue_capacity: 32,
            recovery: Some(RecoveryPolicy { snapshot_every }),
            fault_plan: faults,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    for t in 0..N_VALUES {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    let report = rt.shutdown();
    assert_eq!(
        report.stats.total_appends(),
        (streams.len() * N_VALUES) as u64,
        "every submitted value must be applied exactly once"
    );
    report
}

/// Tentpole invariant: kill every shard once mid-ingest; the recovered
/// event set is bit-identical to an unfaulted single-threaded monitor.
#[test]
fn killed_shards_recover_to_the_exact_event_set() {
    let (streams, r_max) = workload(42, N_STREAMS);
    let spec = agg_trend_spec(&streams, r_max);

    let mut reference = single_threaded_events(&spec, &streams);
    assert!(reference.iter().any(|e| matches!(e, Event::Aggregate { .. })));
    assert!(reference.iter().any(|e| matches!(e, Event::Trend(_))));
    sort_events(&mut reference);

    for shards in [2usize, 4] {
        // Every shard processes at least 512 appends here; [100, 400)
        // keeps each kill strictly mid-ingest so crashes land while
        // queues are hot, past at least one snapshot boundary.
        let plan = Arc::new(FaultPlan::seeded_kills(0xC0FFEE + shards as u64, shards, 100, 400));
        let report = faulted_run(&spec, &streams, shards, Some(Arc::clone(&plan)), 64);
        assert_eq!(plan.fired_count(), shards, "every scheduled kill must fire");
        assert_eq!(
            report.stats.total_restarts(),
            shards as u64,
            "each killed shard must be restored exactly once"
        );
        let mut recovered = report.events;
        sort_events(&mut recovered);
        assert_eq!(recovered, reference, "recovered event set diverged at {shards} shards");
    }
}

/// With `snapshot_every: 0` no snapshot is ever taken: recovery falls
/// back to replaying the shard's entire journaled history. Same
/// invariant, different code path.
#[test]
fn full_journal_replay_recovers_without_snapshots() {
    let (streams, r_max) = workload(42, N_STREAMS);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    sort_events(&mut reference);

    let plan = Arc::new(FaultPlan::new().kill(0, 300).kill(1, 700));
    let report = faulted_run(&spec, &streams, 2, Some(Arc::clone(&plan)), 0);
    assert_eq!(plan.fired_count(), 2);
    assert_eq!(report.stats.total_restarts(), 2);
    let mut recovered = report.events;
    sort_events(&mut recovered);
    assert_eq!(recovered, reference);
}

/// Correlation state (feature table + summaries) must also survive a
/// crash: a faulted run emits exactly what an unfaulted run with the
/// same shard count does, and post-crash queries still answer.
#[test]
fn correlation_state_survives_worker_crashes() {
    let (streams, r_max) = workload(42, N_STREAMS);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 1.0 });
    let shards = 2;

    let unfaulted = faulted_run(&spec, &streams, shards, None, 64);
    assert!(
        unfaulted.events.iter().any(|e| matches!(e, Event::Correlation(_))),
        "workload should report at least one correlated pair"
    );

    let plan = Arc::new(FaultPlan::seeded_kills(7, shards, 200, 900));
    let rt = ShardedRuntime::launch(
        &spec,
        N_STREAMS,
        RuntimeConfig {
            shards,
            queue_capacity: 32,
            recovery: Some(RecoveryPolicy { snapshot_every: 64 }),
            fault_plan: Some(Arc::clone(&plan)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    for t in 0..N_VALUES {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    // Queries ride the queues that survived the crashes: they must be
    // answered by the restored workers, not lost.
    let pairs = rt.correlated_pairs().unwrap();
    let report = rt.shutdown();
    assert_eq!(plan.fired_count(), shards);

    let mut expected = unfaulted.events;
    sort_events(&mut expected);
    let mut recovered = report.events;
    sort_events(&mut recovered);
    assert_eq!(recovered, expected, "correlation events diverged after recovery");

    // The unfaulted run at the same point in time sees the same pairs.
    let rt2 = ShardedRuntime::launch(
        &spec,
        N_STREAMS,
        RuntimeConfig { shards, queue_capacity: 32, ..RuntimeConfig::default() },
    )
    .unwrap();
    for t in 0..N_VALUES {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt2.submit_blocking(&batch).unwrap();
    }
    assert_eq!(pairs, rt2.correlated_pairs().unwrap());
    rt2.shutdown();
}

/// Killing shards mid-cadence must not corrupt the collector's sketch
/// board: a restored worker's ship frontier resets, so it re-publishes
/// sketches the board has already absorbed, and the absorb must be
/// idempotent. The cross-shard pair set after recovery is bit-identical
/// to an unfaulted run's, and no exchange is double-counted into the
/// prune accounting.
#[test]
fn sketch_exchange_survives_mid_cadence_kills() {
    let (mut streams, _) = workload(42, N_STREAMS);
    // Plant a twin: streams 0 and 1 land on different shards for every
    // shard count > 1 under `g mod S` placement.
    streams[1] = streams[0].iter().map(|v| v + 1e-9).collect();
    let r_max = observed_r_max(&streams);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 0.25 });
    // Pairs compared through `to_bits`: a single reassociated float
    // operation on the query path fails here instead of passing `==`.
    let bits = |pairs: &[(StreamId, StreamId, f64)]| -> Vec<(StreamId, StreamId, u64)> {
        pairs.iter().map(|&(a, b, c)| (a, b, c.to_bits())).collect()
    };

    for shards in [2usize, 3] {
        let drive = |config: RuntimeConfig| {
            let rt = ShardedRuntime::launch(&spec, N_STREAMS, config).unwrap();
            for t in 0..N_VALUES {
                let batch: Batch =
                    streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
                rt.submit_blocking(&batch).unwrap();
            }
            let pairs = rt.correlated_pairs().unwrap();
            let stats = rt.cross_corr_stats();
            (pairs, stats, rt.shutdown())
        };

        let (want, clean, _) =
            drive(RuntimeConfig { shards, queue_capacity: 32, ..RuntimeConfig::default() });
        assert!(want.iter().any(|&(a, b, _)| (a, b) == (0, 1)), "planted twin missing: {want:?}");
        assert!(clean.exchanges > 0, "sketches were never exchanged in the clean run");

        // Each shard sees at least 1024 appends; killing inside
        // [150, 800) lands strictly between cadence boundaries (one
        // block = 16 appends per stream), past at least one snapshot.
        let plan = Arc::new(FaultPlan::seeded_kills(0xD1CE, shards, 150, 800));
        let (got, faulted, report) = drive(RuntimeConfig {
            shards,
            queue_capacity: 32,
            recovery: Some(RecoveryPolicy { snapshot_every: 64 }),
            fault_plan: Some(Arc::clone(&plan)),
            ..RuntimeConfig::default()
        });
        assert_eq!(plan.fired_count(), shards, "every scheduled kill must fire");
        assert_eq!(report.stats.total_restarts(), shards as u64);
        assert_eq!(
            bits(&got),
            bits(&want),
            "cross-shard pair set diverged after mid-cadence kills at {shards} shard(s)"
        );
        // Respawned workers re-shipped from a reset frontier (strictly
        // more publications than the clean run), yet the prune
        // accounting still covers every cross-shard pair exactly once.
        assert!(
            faulted.exchanges >= clean.exchanges,
            "recovered workers must re-publish sketches: {faulted:?} vs {clean:?}"
        );
        assert_eq!(
            faulted.candidates + faulted.pruned,
            clean.candidates + clean.pruned,
            "exchange double-counted into prune accounting: {faulted:?} vs {clean:?}"
        );
    }
}

/// A `DelayDrain` fault slows a worker without killing it; nothing may
/// change in the output and no restart may happen.
#[test]
fn delayed_drain_changes_timing_but_not_events() {
    let (streams, r_max) = workload(42, N_STREAMS);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    sort_events(&mut reference);

    let plan = Arc::new(FaultPlan::new().delay_drain(0, 200, Duration::from_millis(30)));
    let report = faulted_run(&spec, &streams, 2, Some(Arc::clone(&plan)), 64);
    assert_eq!(plan.fired_count(), 1);
    assert_eq!(report.stats.total_restarts(), 0);
    let mut events = report.events;
    sort_events(&mut events);
    assert_eq!(events, reference);
}

/// Group commit must be invisible in the event stream. The drain loop
/// is paused several times per shard so the queue backs up and the
/// following drains commit genuinely multi-batch groups — asserted via
/// the group-size telemetry, so the test cannot silently degenerate to
/// single-batch groups — and the grouped event delivery at S ∈ {1, 2,
/// 4} must stay bit-identical to the per-event single-threaded
/// monitor.
#[test]
fn grouped_delivery_matches_per_event_delivery() {
    let (streams, r_max) = workload(42, N_STREAMS);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    assert!(!reference.is_empty(), "vacuous equivalence: reference run emitted nothing");
    sort_events(&mut reference);

    for shards in [1usize, 2, 4] {
        let mut plan = FaultPlan::new();
        for shard in 0..shards {
            for at in [50u64, 200, 350] {
                plan = plan.delay_drain(shard, at, Duration::from_millis(25));
            }
        }
        let plan = Arc::new(plan);
        let registry = stardust_telemetry::Registry::new();
        let rt = ShardedRuntime::launch(
            &spec,
            streams.len(),
            RuntimeConfig {
                shards,
                queue_capacity: 32,
                recovery: Some(RecoveryPolicy { snapshot_every: 64 }),
                fault_plan: Some(Arc::clone(&plan)),
                telemetry: Some(registry.clone()),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        for t in 0..N_VALUES {
            let batch: Batch =
                streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
        let report = rt.shutdown();
        assert_eq!(plan.fired_count(), 3 * shards, "every drain delay must fire");
        let group_max =
            registry.histogram("stardust_runtime_group_size", "").snapshot().max.unwrap_or(0);
        assert!(
            group_max >= 2,
            "delayed drains never produced a multi-batch group at {shards} shard(s)"
        );
        let mut grouped = report.events;
        sort_events(&mut grouped);
        assert_eq!(
            grouped, reference,
            "grouped delivery diverged from per-event delivery at {shards} shard(s)"
        );
    }
}

/// A shard dying faster than the storm cap allows is fail-stopped with
/// a typed error instead of an unbounded crash/restore loop. Every
/// producer path into the failed shard reports the storm — the
/// non-blocking ones included — while the healthy shard keeps
/// accepting.
#[test]
fn respawn_storm_fail_stops_the_shard() {
    let (streams, r_max) = workload(42, N_STREAMS);
    let spec = agg_trend_spec(&streams, r_max);
    // Three kills land on shard 0 inside one window; the cap allows two.
    let plan = Arc::new(FaultPlan::new().kill(0, 50).kill(0, 60).kill(0, 70));
    let rt = ShardedRuntime::launch(
        &spec,
        N_STREAMS,
        RuntimeConfig {
            shards: 2,
            queue_capacity: 32,
            recovery: Some(RecoveryPolicy { snapshot_every: 64 }),
            fault_plan: Some(Arc::clone(&plan)),
            max_restarts_in_window: 2,
            restart_window: Duration::from_secs(30),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let mut storm = None;
    for t in 0..N_VALUES {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        if let Err(e) = rt.submit_blocking(&batch) {
            storm = Some(e);
            break;
        }
    }
    match storm {
        Some(RuntimeError::RespawnStorm { shard: 0, restarts: 3 }) => {}
        other => panic!("expected RespawnStorm on shard 0 after 3 restarts, got {other:?}"),
    }
    assert_eq!(plan.fired_count(), 3, "all three kills must fire before the cap trips");
    assert_eq!(rt.respawn_storms(), vec![(0, 3)]);
    // Stream 0 lives on shard 0, stream 1 on shard 1.
    let storm_on_0 =
        |e: RuntimeError| matches!(e, RuntimeError::RespawnStorm { shard: 0, restarts: 3 });
    assert!(storm_on_0(rt.append_blocking(0, 1.0).unwrap_err()), "append_blocking");
    assert!(storm_on_0(rt.try_append(0, 1.0).unwrap_err()), "try_append");
    let batch: Batch = [(0, 1.0)].into_iter().collect();
    assert!(storm_on_0(rt.try_submit(&batch).unwrap_err()), "try_submit");
    rt.append_blocking(1, 1.0).expect("the healthy shard still accepts");
    // The runtime tears down cleanly.
    let report = rt.shutdown();
    assert!(report.stats.total_appends() > 0);
}

/// A batch in which one stream runs ahead of its partner inside a
/// round — the order of a client that batches per stream — neither
/// panics the shard nor hangs a query: stream 1's feature query at 19
/// reports stream 0's entry at 19 after stream 0 has pushed on to 21.
/// Should the shard die of such a batch anyway, its replay dies the same
/// way, and the supervisor fail-stops the shard, so the query below gets
/// a typed error rather than waiting forever.
#[test]
fn skewed_batch_neither_panics_a_shard_nor_hangs() {
    let streams = random_walk_streams(5, 2, 22);
    let spec = MonitorSpec::new(4, 2, observed_r_max(&streams))
        .with_correlations(CorrelationSpec { coeffs: 2, radius: 2.0 });
    let config = RuntimeConfig { shards: 1, ..RuntimeConfig::default() };
    let rt = ShardedRuntime::launch(&spec, 2, config).unwrap();
    let batch: Batch = [(0, 0..17), (1, 0..16), (0, 17..22), (1, 16..20)]
        .into_iter()
        .flat_map(|(s, times)| times.map(move |t| (s as StreamId, t)))
        .map(|(s, t)| (s, streams[s as usize][t]))
        .collect();
    rt.submit_blocking(&batch).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let asker = std::thread::spawn(move || {
        let _ = tx.send(rt.class_stats());
        rt
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("class_stats must return, not hang")
        .expect("the shard must survive the skewed batch");
    assert!(stats.correlation.true_pairs > 0, "{stats:?}");
    let report = asker.join().unwrap().shutdown();
    assert_eq!(report.stats.total_appends(), 42);
    assert!(
        report.events.iter().any(|e| matches!(
            e,
            Event::Correlation(p) if p.time == 19 && p.correlation.is_some()
        )),
        "the pair at 19 must be reported and verified"
    );
}

/// Stress variant: more shards, multiple seeds.
#[test]
fn stress_eight_shards_four_seeds() {
    const STRESS_STREAMS: usize = 8;
    let (streams, r_max) = workload(7, STRESS_STREAMS);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    sort_events(&mut reference);

    for seed in [1u64, 2, 3, 4] {
        // Each of the 8 shards owns one stream (512 appends); kill all
        // of them somewhere strictly inside the run.
        let plan = Arc::new(FaultPlan::seeded_kills(seed, 8, 50, 450));
        let report = faulted_run(&spec, &streams, 8, Some(Arc::clone(&plan)), 64);
        assert_eq!(plan.fired_count(), 8, "seed {seed}");
        assert_eq!(report.stats.total_restarts(), 8, "seed {seed}");
        let mut recovered = report.events;
        sort_events(&mut recovered);
        assert_eq!(recovered, reference, "seed {seed} diverged");
    }
}
