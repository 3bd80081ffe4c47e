//! Elastic rebalancing must be invisible in the output.
//!
//! Every test resizes a live runtime — splitting stream groups onto a
//! spare shard, merging them back — and checks that the emitted event
//! set is *bit-identical* to a run that never resized (and to the
//! single-threaded monitor): no batch lost in a handoff, no batch
//! replayed twice after one, every query answered as if the layout had
//! never changed. The `--ignored` sweep additionally kills a worker at
//! every step of the migration protocol.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use stardust_core::query::aggregate::WindowSpec;
use stardust_core::stream::StreamId;
use stardust_core::transform::TransformKind;
use stardust_core::unified::Event;
use stardust_datagen::random_walk::{observed_r_max, random_walk_streams};
use stardust_runtime::{
    sort_events, AggregateSpec, Batch, CorrelationSpec, FaultKind, FaultPlan, MigrationStep,
    MonitorSpec, PersistConfig, RebalanceAction, RecoveryPolicy, RuntimeConfig, RuntimeError,
    ShardedRuntime, SyncPolicy, TrendPattern, TrendSpec,
};

const BASE_WINDOW: usize = 16;
const LEVELS: usize = 3;
const N_STREAMS: usize = 6;
const N_VALUES: usize = 512;

fn workload(seed: u64) -> (Vec<Vec<f64>>, f64) {
    let streams = random_walk_streams(seed, N_STREAMS, N_VALUES);
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

/// An elastic config: `groups > shards` so there is something to move,
/// one spare slot to move it to.
fn elastic_config(shards: usize, groups: usize) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        groups,
        spare_shards: 1,
        queue_capacity: 32,
        recovery: Some(RecoveryPolicy { snapshot_every: 64 }),
        ..RuntimeConfig::default()
    }
}

fn feed(rt: &ShardedRuntime, streams: &[Vec<f64>], range: std::ops::Range<usize>) {
    for t in range {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
}

/// Tentpole invariant: split a hot shard onto the spare mid-ingest,
/// merge it back later, and the event set is bit-identical to the
/// single-threaded monitor at every shard count. The split must also
/// relieve the hot slot: its share of the appends drops by exactly the
/// share of the streams it handed off.
#[test]
fn split_then_merge_is_invisible_in_the_event_set() {
    let (streams, r_max) = workload(42);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    assert!(reference.iter().any(|e| matches!(e, Event::Aggregate { .. })));
    assert!(reference.iter().any(|e| matches!(e, Event::Trend(_))));
    sort_events(&mut reference);

    // Hot-slot relief (slot 0's append share before the split over its
    // share after), per shard count. Slot 0 owns groups {0, S} of
    // min(2S, 6) over 6 streams and hands group S to the spare: at S = 2
    // that is 3 streams down to 2 (group 0 holds streams 0 and 4); at
    // S = 3 and 4 it is 2 down to 1, half its load.
    let reliefs = [1.5, 2.0, 2.0];
    for (shards, want_relief) in [2usize, 3, 4].into_iter().zip(reliefs) {
        // Group `shards` lands on slot 0 (`g mod shards`); the spare is
        // slot `shards`, the first slot past the primaries.
        let spare = shards;
        let rt =
            ShardedRuntime::launch(&spec, N_STREAMS, elastic_config(shards, 2 * shards)).unwrap();
        assert_eq!(rt.live_shards(), shards, "spares must start idle");
        // Slot 0's appends over a feed, read behind a scatter-gather
        // barrier so every batch (and any adoption) has landed.
        let hot_appends = |range: std::ops::Range<usize>| {
            rt.class_stats().unwrap();
            let before = rt.stats().shards[0].appends;
            let rows = range.len() as u64;
            feed(&rt, &streams, range);
            rt.class_stats().unwrap();
            (rt.stats().shards[0].appends - before, N_STREAMS as u64 * rows)
        };
        let (pre_hot, pre_total) = hot_appends(0..N_VALUES / 3);
        rt.split_shard(0, spare, &[shards]).unwrap();
        assert_eq!(rt.live_shards(), shards + 1, "split must activate the spare");
        let (post_hot, post_total) = hot_appends(N_VALUES / 3..2 * N_VALUES / 3);
        let relief = (pre_hot * post_total) as f64 / (post_hot * pre_total) as f64;
        assert_eq!(relief, want_relief, "hot-slot relief at {shards} shards");
        assert_eq!(rt.merge_shard(spare, 0).unwrap(), 1, "merge must drain the spare");
        assert_eq!(rt.live_shards(), shards);
        feed(&rt, &streams, 2 * N_VALUES / 3..N_VALUES);
        let report = rt.shutdown();
        assert_eq!(report.stats.epoch, 2, "each migration must bump the epoch");
        assert_eq!(report.stats.migrations, 2);
        assert_eq!(
            report.stats.total_appends(),
            (N_STREAMS * N_VALUES) as u64,
            "appends lost or duplicated across the resize at {shards} shards"
        );
        let mut resized = report.events;
        sort_events(&mut resized);
        assert_eq!(resized, reference, "event set diverged after resize at {shards} shards");
    }
}

/// Same invariant under genuinely concurrent ingest: a feeder thread
/// never stops submitting while the main thread splits and merges.
/// Producers racing a frozen group must park and re-resolve, not drop
/// or double-apply their batches.
#[test]
fn live_migration_under_concurrent_ingest() {
    let (streams, r_max) = workload(42);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    sort_events(&mut reference);

    // 2 primaries + 1 spare over 6 groups: slot 0 owns {0, 2, 4}.
    let rt = ShardedRuntime::launch(&spec, N_STREAMS, elastic_config(2, 6)).unwrap();
    let total = (N_STREAMS * N_VALUES) as u64;
    thread::scope(|scope| {
        scope.spawn(|| feed(&rt, &streams, 0..N_VALUES));
        while rt.stats().total_appends() < total / 3 {
            thread::sleep(Duration::from_millis(1));
        }
        rt.split_shard(0, 2, &[2, 4]).unwrap();
        while rt.stats().total_appends() < 2 * total / 3 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rt.merge_shard(2, 0).unwrap(), 2);
    });
    assert_eq!(rt.epoch(), 4);
    assert_eq!(rt.migrations(), 4);
    let report = rt.shutdown();
    assert_eq!(report.stats.total_appends(), total);
    let mut resized = report.events;
    sort_events(&mut resized);
    assert_eq!(resized, reference, "live migration leaked into the event set");
}

/// Cross-shard correlation state must survive a resize: a run that
/// split mid-ingest answers `correlated_pairs` exactly like a run that
/// never did, and their event sets match.
#[test]
fn correlated_pairs_match_a_never_resized_run() {
    let (streams, r_max) = workload(42);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 1.0 });

    let baseline = ShardedRuntime::launch(&spec, N_STREAMS, elastic_config(2, 4)).unwrap();
    feed(&baseline, &streams, 0..N_VALUES);
    let want = baseline.correlated_pairs().unwrap();
    assert!(!want.is_empty(), "workload should report at least one correlated pair");
    let mut expected = baseline.shutdown().events;
    sort_events(&mut expected);

    let rt = ShardedRuntime::launch(&spec, N_STREAMS, elastic_config(2, 4)).unwrap();
    feed(&rt, &streams, 0..N_VALUES / 2);
    rt.split_shard(0, 2, &[2]).unwrap();
    feed(&rt, &streams, N_VALUES / 2..N_VALUES);
    let got = rt.correlated_pairs().unwrap();
    let report = rt.shutdown();
    assert_eq!(got, want, "correlated pairs diverged after a split");
    let mut resized = report.events;
    sort_events(&mut resized);
    assert_eq!(resized, expected, "correlation events diverged after a split");
}

/// Runs one split (group `shards` → spare) and one merge back with a
/// one-shot kill injected at `step` of `group`'s migration, and checks
/// the event set still matches the single-threaded monitor.
fn killed_migration_run(
    spec: &MonitorSpec,
    streams: &[Vec<f64>],
    reference: &[Event],
    group: usize,
    step: MigrationStep,
    merge_into_spare: bool,
) {
    let plan = Arc::new(FaultPlan::new().migration_fault(group, step, FaultKind::Panic));
    let rt = ShardedRuntime::launch(
        spec,
        N_STREAMS,
        RuntimeConfig { fault_plan: Some(Arc::clone(&plan)), ..elastic_config(2, 4) },
    )
    .unwrap();
    feed(&rt, streams, 0..N_VALUES / 3);
    // Slot 0 owns {0, 2}; the spare is slot 2. The split moves group 2;
    // the merge either returns it (2 → 0) or drains slot 0's remaining
    // group 0 into the spare (0 → 2), so a fault keyed on group 0 fires
    // during the *merge* migration instead of the split.
    rt.split_shard(0, 2, &[2]).unwrap();
    feed(&rt, streams, N_VALUES / 3..2 * N_VALUES / 3);
    if merge_into_spare {
        assert_eq!(rt.merge_shard(0, 2).unwrap(), 1);
    } else {
        assert_eq!(rt.merge_shard(2, 0).unwrap(), 1);
    }
    feed(&rt, streams, 2 * N_VALUES / 3..N_VALUES);
    let report = rt.shutdown();
    assert_eq!(plan.fired_count(), 1, "migration fault at {step:?} never fired");
    assert_eq!(
        report.stats.total_restarts(),
        1,
        "the killed worker must be restored exactly once ({step:?})"
    );
    assert_eq!(report.stats.migrations, 2);
    assert_eq!(report.stats.total_appends(), (N_STREAMS * N_VALUES) as u64, "at {step:?}");
    let mut recovered = report.events;
    sort_events(&mut recovered);
    assert_eq!(recovered, reference, "event set diverged after a kill at {step:?}");
}

/// A worker killed mid-handoff — the source after sealing, the
/// destination while adopting — must be healed by the supervisor
/// without losing or replaying a batch.
#[test]
fn killed_worker_mid_migration_recovers_exactly_once() {
    let (streams, r_max) = workload(42);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    sort_events(&mut reference);

    for step in [MigrationStep::AfterSeal, MigrationStep::BeforeAdopt] {
        killed_migration_run(&spec, &streams, &reference, 2, step, false);
    }

    // The whole process dies mid-handoff: persist to disk, stall the
    // destination inside its first adoption, crash while the split is in
    // flight, and reopen unfaulted. The shard layout is not durable —
    // `open()` re-places every group at epoch 0 and recovers it from its
    // own journal — so the half-applied migration must be invisible once
    // each group's feed is re-submitted past its durable watermark.
    let dir = std::env::temp_dir().join(format!("sd-rebalance-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = || PersistConfig::new(&dir).sync(SyncPolicy::EveryN(8));
    let stall = FaultKind::Stall(Duration::from_millis(300));
    let plan = Arc::new(FaultPlan::new().migration_fault(0, MigrationStep::BeforeAdopt, stall));
    let faulted = RuntimeConfig { fault_plan: Some(Arc::clone(&plan)), ..elastic_config(2, 4) };
    let (rt, _) = ShardedRuntime::open(&spec, N_STREAMS, faulted, persist()).unwrap();
    feed(&rt, &streams, 0..N_VALUES / 2);
    let mut events = rt.drain_events();
    // Slot 0 owns {0, 2}; both move to the spare (slot 2).
    rt.split_shard(0, 2, &[0, 2]).unwrap();
    events.extend(rt.crash().events);
    assert_eq!(plan.fired_count(), 1, "the adoption stall never fired");

    let (rt, report) =
        ShardedRuntime::open(&spec, N_STREAMS, elastic_config(2, 4), persist()).unwrap();
    assert_eq!(rt.epoch(), 0, "the shard layout must not survive a process crash");
    events.extend(rt.drain_events());
    let groups = rt.n_groups();
    for (g, group_report) in report.shards.iter().enumerate() {
        // The group's journal order: row-major over its streams.
        let group_feed =
            (0..N_VALUES).flat_map(|t| (g..N_STREAMS).step_by(groups).map(move |s| (s, t)));
        for (s, t) in group_feed.skip(group_report.durable_appends as usize) {
            rt.append_blocking(s as StreamId, streams[s][t]).unwrap();
        }
    }
    events.extend(rt.shutdown().events);
    sort_events(&mut events);
    assert_eq!(events, reference, "a crash mid-migration corrupted recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exhaustive chaos sweep: kill the protocol at *every* step, during a
/// split and during a merge. Run with
/// `cargo test --test rebalance -- --ignored`.
#[test]
#[ignore = "stress: 8 kill points across split and merge, run explicitly in CI"]
fn kill_sweep_covers_every_migration_step() {
    let (streams, r_max) = workload(42);
    let spec = agg_trend_spec(&streams, r_max);
    let mut reference = single_threaded_events(&spec, &streams);
    sort_events(&mut reference);

    let steps = [
        MigrationStep::BeforeSeal,
        MigrationStep::AfterSeal,
        MigrationStep::BeforeAdopt,
        MigrationStep::AfterAdopt,
    ];
    for step in steps {
        // Kill the split's migration of group 2...
        killed_migration_run(&spec, &streams, &reference, 2, step, false);
        // ...and the merge's migration of group 0.
        killed_migration_run(&spec, &streams, &reference, 0, step, true);
    }
}

/// Satellite: a shard dying faster than the storm cap allows is
/// fail-stopped with a typed error instead of an unbounded
/// crash/restore loop.
#[test]
fn respawn_storm_fail_stops_the_shard() {
    let (streams, r_max) = workload(42);
    let spec = agg_trend_spec(&streams, r_max);
    // Three kills land on slot 0 inside one window; the cap allows two.
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
    assert_eq!(rt.live_shards(), 1, "the failed slot must leave the live set");
    // The healthy shard still answers; the runtime tears down cleanly.
    let report = rt.shutdown();
    assert!(report.stats.total_appends() > 0);
}

/// The queue-depth / append-rate policy: a slot appending far above the
/// per-slot average splits onto the idle spare, a slot gone completely
/// cold merges into the busiest, and a balanced layout is left alone.
#[test]
fn rebalance_policy_splits_hot_and_merges_cold() {
    let (streams, r_max) = workload(42);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max).with_aggregates(AggregateSpec {
        transform: TransformKind::Sum,
        windows: vec![WindowSpec { window: 2 * BASE_WINDOW, threshold: f64::MAX }],
        box_capacity: 4,
    });
    // 3 primaries + 1 spare over 6 single-stream groups: slot 0 owns
    // streams {0, 3}, slot 1 owns {1, 4}, slot 2 owns {2, 5}.
    let rt = ShardedRuntime::launch(&spec, N_STREAMS, elastic_config(3, 6)).unwrap();
    let drained = |want: u64| {
        while rt.stats().total_appends() < want {
            thread::sleep(Duration::from_millis(1));
        }
    };

    // Phase 1 — slot 0 is hot: its streams append every tick, slot 2's
    // every 4th, slot 1's every 8th. 512 vs 128 vs 64 appends is far
    // beyond twice the per-slot average, so the policy moves the upper
    // half of slot 0's groups to the spare (slot 3).
    let send = |subset: &[usize], t: usize| -> u64 {
        let batch: Batch = subset.iter().map(|&s| (s as StreamId, streams[s][t])).collect();
        rt.submit_blocking(&batch).unwrap();
        subset.len() as u64
    };
    let mut fed = 0;
    for t in 0..256 {
        fed += send(&[0, 3], t);
        if t % 4 == 0 {
            fed += send(&[2, 5], t);
        }
        if t % 8 == 0 {
            fed += send(&[1, 4], t);
        }
    }
    drained(fed);
    assert_eq!(
        rt.rebalance_step().unwrap(),
        Some(RebalanceAction::Split { from: 0, to: 3, groups: vec![3] }),
        "hot slot 0 must split onto the idle spare"
    );

    // Phase 2 — slot 0 goes cold (nothing for streams 0 or 3) while
    // slot 2 is the busiest: slot 0's remaining group merges into it.
    // Slot 3 received group 3's historical appends in the split, but
    // the migration shifts the policy baseline by the same amount, so
    // the transfer must not read as load here.
    for t in 256..416 {
        fed += send(&[2, 5], t);
        if t % 4 == 0 {
            fed += send(&[1, 4], t);
        }
    }
    drained(fed);
    assert_eq!(
        rt.rebalance_step().unwrap(),
        Some(RebalanceAction::Merge { from: 0, into: 2, groups: vec![0] }),
        "cold slot 0 must merge into the busiest slot"
    );

    // Phase 3 — balanced traffic: the policy must not thrash.
    for t in 416..448 {
        fed += send(&[0, 1, 2, 3, 4, 5], t);
    }
    drained(fed);
    assert_eq!(rt.rebalance_step().unwrap(), None, "a balanced layout must be left alone");

    let report = rt.shutdown();
    assert_eq!(report.stats.migrations, 2);
    assert_eq!(report.stats.total_appends(), fed);
}

/// Rebalancing without the recovery journal has no handoff mechanism;
/// bad arguments are rejected before anything freezes.
#[test]
fn rebalance_validates_arguments_and_requires_recovery() {
    let (streams, r_max) = workload(42);
    let spec = agg_trend_spec(&streams, r_max);

    let bare = ShardedRuntime::launch(
        &spec,
        N_STREAMS,
        RuntimeConfig { recovery: None, ..elastic_config(2, 4) },
    )
    .unwrap();
    assert!(matches!(bare.split_shard(0, 2, &[2]), Err(RuntimeError::MigrationUnsupported)));
    assert!(matches!(bare.rebalance_step(), Err(RuntimeError::MigrationUnsupported)));
    bare.shutdown();

    let rt = ShardedRuntime::launch(&spec, N_STREAMS, elastic_config(2, 4)).unwrap();
    assert_eq!(rt.n_shards(), 3, "2 primaries + 1 spare");
    assert_eq!(rt.n_groups(), 4);
    assert_eq!((rt.epoch(), rt.migrations(), rt.live_shards()), (0, 0, 2));
    for err in [
        rt.split_shard(0, 0, &[0]),       // source == destination
        rt.split_shard(0, 2, &[]),        // nothing to move
        rt.split_shard(0, 2, &[1]),       // group 1 belongs to slot 1
        rt.split_shard(0, 2, &[9]),       // no such group
        rt.split_shard(0, 7, &[2]),       // no such slot
        rt.merge_shard(1, 1).map(|_| ()), // source == destination
    ] {
        assert!(matches!(err, Err(RuntimeError::Rebalance { .. })), "got {err:?}");
    }
    // Nothing above may have touched the routing table.
    assert_eq!((rt.epoch(), rt.migrations()), (0, 0));
    feed(&rt, &streams, 0..8);
    rt.shutdown();
}
