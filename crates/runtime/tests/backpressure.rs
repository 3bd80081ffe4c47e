//! The backpressure contract: bounded queues reject (`try_*`) or park
//! (`*_blocking`) producers instead of buffering without limit, and the
//! runtime recovers once the worker catches up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stardust_core::error::SpecError;
use stardust_core::query::aggregate::WindowSpec;
use stardust_core::stream::StreamId;
use stardust_core::transform::TransformKind;
use stardust_runtime::{
    AggregateSpec, Batch, CorrelationSpec, FaultPlan, MonitorSpec, PersistConfig, RuntimeConfig,
    RuntimeError, ShardedRuntime, TrendPattern, TrendSpec,
};

fn spec() -> MonitorSpec {
    MonitorSpec::new(16, 3, 100.0).with_aggregates(AggregateSpec {
        transform: TransformKind::Sum,
        windows: vec![WindowSpec { window: 32, threshold: 1e9 }],
        box_capacity: 4,
    })
}

/// Specs that once panicked inside `launch`, each with the message its
/// class rejects it with.
fn invalid_specs() -> Vec<(MonitorSpec, &'static str)> {
    let sum = |windows: Vec<usize>, box_capacity| AggregateSpec {
        transform: TransformKind::Sum,
        windows: windows.into_iter().map(|window| WindowSpec { window, threshold: 1e9 }).collect(),
        box_capacity,
    };
    let corr = CorrelationSpec { coeffs: 4, radius: 0.45 };
    let pyramid = "f = 4 needs an approximation pyramid of 8 ≤ W = 4";
    vec![
        (MonitorSpec::new(4, 3, 100.0).with_correlations(corr.clone()), pyramid),
        (MonitorSpec::new(4, 2, 100.0).with_correlations(corr), pyramid),
        (
            MonitorSpec::new(16, 1, 100.0).with_aggregates(sum(vec![32], 4)),
            "window 32: length 32 cannot be decomposed",
        ),
        (
            MonitorSpec::new(2, 3, 100.0).with_trends(TrendSpec {
                coeffs: 4,
                box_capacity: 4,
                patterns: vec![TrendPattern { sequence: vec![1.0; 4], radius: 0.05 }],
            }),
            "DWT coefficient count f must be a power of two no larger than W",
        ),
        (
            MonitorSpec::new(20, 4, 100.0)
                .with_aggregates(sum((1..=8).map(|k| 20 * k).collect(), 0)),
            "box capacity c must be at least 1",
        ),
    ]
}

/// `open` checks the spec before it touches the directory: a fresh path
/// is not created, and a directory whose shards all hold snapshots (so
/// no shard would be built from the spec) still refuses it.
#[test]
fn open_rejects_bad_specs_before_touching_the_directory() {
    let dir = std::env::temp_dir().join(format!("sd-open-spec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || RuntimeConfig { shards: 2, ..RuntimeConfig::default() };
    for (spec, _) in invalid_specs() {
        let opened = ShardedRuntime::open(&spec, 4, config(), PersistConfig::new(&dir));
        assert!(matches!(opened, Err(RuntimeError::Spec(_))), "{spec:?}");
        assert!(!dir.exists(), "a rejected spec created {}", dir.display());
    }
    // Every shard of a closed runtime holds its open-time snapshot.
    let (rt, _) = ShardedRuntime::open(&spec(), 4, config(), PersistConfig::new(&dir)).unwrap();
    rt.submit_blocking(&(0..4u32).map(|s| (s, 1.0)).collect()).unwrap();
    rt.shutdown();
    for shard in 0..2 {
        assert!(dir.join(format!("shard-{shard}.snap")).exists(), "shard {shard} has no snapshot");
    }
    for (spec, _) in invalid_specs() {
        let opened = ShardedRuntime::open(&spec, 4, config(), PersistConfig::new(&dir));
        assert!(matches!(opened, Err(RuntimeError::Spec(_))), "{spec:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch expensive enough that the worker lags a tight producer loop.
fn heavy_batch() -> Batch {
    (0..4_000).map(|i| (0 as StreamId, (i % 100) as f64)).collect()
}

#[test]
fn try_append_reports_queue_full_then_recovers() {
    let rt = ShardedRuntime::launch(
        &spec(),
        1,
        RuntimeConfig { shards: 1, queue_capacity: 2, ..RuntimeConfig::default() },
    )
    .unwrap();

    // Enqueueing is ~ns, draining a heavy batch is ~ms: a tight loop
    // must hit the bounded queue's limit almost immediately.
    let mut accepted = 0u64;
    let mut saw_full = false;
    for _ in 0..100_000 {
        match rt.try_submit(&heavy_batch()) {
            Ok(None) => accepted += heavy_batch().len() as u64,
            Ok(Some(partial)) => {
                assert!(!partial.rejected.is_empty());
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_full, "a 2-deep queue never filled under a tight producer loop");

    // Single-value try_append must see the same backpressure while the
    // queue is still full... (the worker may drain between calls, so
    // probe a few times rather than assert on one call)
    let mut single_full = false;
    for _ in 0..100_000 {
        match rt.try_append(0, 1.0) {
            Err(RuntimeError::Backpressure(_)) => {
                single_full = true;
                break;
            }
            Ok(()) => accepted += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(single_full, "try_append never observed backpressure");

    // ...while the blocking path parks until there is room and succeeds.
    rt.append_blocking(0, 1.0).unwrap();
    accepted += 1;

    // Recovery: once the worker drains, the non-blocking path works
    // again (bounded retry in case the worker is mid-batch).
    let mut recovered = false;
    for _ in 0..1_000_000 {
        match rt.try_append(0, 1.0) {
            Ok(()) => {
                accepted += 1;
                recovered = true;
                break;
            }
            Err(RuntimeError::Backpressure(_)) => std::thread::yield_now(),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(recovered, "queue never drained after backpressure");

    let stats = rt.stats();
    assert!(
        stats.max_queue_high_water() >= 2,
        "high-water mark should reach the queue capacity, got {}",
        stats.max_queue_high_water()
    );
    assert!(rt.drain_events().is_empty(), "threshold 1e9 should never fire");

    // Graceful shutdown drains everything that was accepted.
    let report = rt.shutdown();
    assert_eq!(report.stats.total_appends(), accepted);
    assert_eq!(report.stats.shards.len(), 1);
    assert_eq!(report.stats.shards[0].queue_depth, 0);
}

/// Regression: a stalled worker must surface as *bounded* backpressure
/// — `try_append` fails within `queue_capacity + 1` accepted values
/// (capacity plus the message the worker holds mid-stall), the observed
/// queue depth never exceeds capacity, and `append_blocking` makes
/// progress once the stall clears instead of parking forever.
#[test]
fn stalled_worker_bounds_the_queue_then_unparks_producers() {
    const CAPACITY: usize = 4;
    let stall = Duration::from_millis(150);
    // Stall on the very first append, deterministically.
    let plan = Arc::new(FaultPlan::new().stall(0, 1, stall));
    let rt = ShardedRuntime::launch(
        &spec(),
        1,
        RuntimeConfig {
            shards: 1,
            queue_capacity: CAPACITY,
            fault_plan: Some(Arc::clone(&plan)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();

    // The first value triggers the stall inside the worker. Wait until
    // the worker has actually picked it up (queue empty again) so the
    // fills below land behind a worker that is provably asleep.
    let started = Instant::now();
    rt.try_append(0, 1.0).unwrap();
    let mut accepted = 1u64;
    while rt.stats().shards[0].queue_depth > 0 {
        std::thread::yield_now();
    }

    // While the worker sleeps, exactly CAPACITY more values fit.
    let mut full = false;
    for _ in 0..(CAPACITY + 1) {
        match rt.try_append(0, 1.0) {
            Ok(()) => accepted += 1,
            Err(RuntimeError::Backpressure(_)) => {
                full = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(full, "queue never filled while the worker was stalled");
    assert_eq!(
        accepted,
        CAPACITY as u64 + 1,
        "a stalled worker must bound acceptance at queue capacity"
    );
    // The mark samples *attempted* depth: the rejected push observes
    // capacity + 1 before it is rolled back, never more.
    assert!(
        rt.stats().max_queue_high_water() <= CAPACITY + 1,
        "queue depth exceeded its bound during the stall"
    );

    // The blocking path parks through the stall and completes once the
    // worker resumes draining.
    rt.append_blocking(0, 2.0).unwrap();
    accepted += 1;
    assert!(
        started.elapsed() >= stall / 2,
        "append_blocking returned while the queue should still have been full"
    );

    assert_eq!(plan.fired_count(), 1, "the stall fault should have fired exactly once");
    let report = rt.shutdown();
    assert_eq!(report.stats.total_appends(), accepted);
    assert_eq!(report.stats.total_restarts(), 0, "a stall is not a crash");
}

#[test]
fn unknown_stream_is_rejected_without_enqueueing() {
    let rt = ShardedRuntime::launch(&spec(), 1, RuntimeConfig::default()).unwrap();
    assert!(matches!(
        rt.try_append(7, 1.0),
        Err(RuntimeError::UnknownStream { stream: 7, n_streams: 1 })
    ));
    assert!(matches!(rt.append_blocking(7, 1.0), Err(RuntimeError::UnknownStream { .. })));
    let batch: Batch = [(0, 1.0), (7, 2.0)].into_iter().collect();
    assert!(matches!(rt.submit_blocking(&batch), Err(RuntimeError::UnknownStream { .. })));
    let report = rt.shutdown();
    assert_eq!(report.stats.total_appends(), 0, "rejected batches must not be enqueued");
}

#[test]
fn launch_rejects_bad_configs() {
    assert!(matches!(
        ShardedRuntime::launch(&spec(), 0, RuntimeConfig::default()),
        Err(RuntimeError::NoStreams)
    ));
    assert!(matches!(
        ShardedRuntime::launch(&MonitorSpec::new(16, 3, 100.0), 4, RuntimeConfig::default()),
        Err(RuntimeError::Spec(SpecError::NoQueryClass))
    ));
    for (spec, message) in invalid_specs() {
        match ShardedRuntime::launch(&spec, 4, RuntimeConfig::default()) {
            Err(RuntimeError::Spec(e)) => assert!(e.to_string().contains(message), "{e}"),
            other => panic!("{spec:?} launched: {other:?}"),
        }
    }
    // More shards than streams: clamped, not an error.
    let rt = ShardedRuntime::launch(
        &spec(),
        1,
        RuntimeConfig { shards: 8, queue_capacity: 4, ..RuntimeConfig::default() },
    )
    .unwrap();
    assert_eq!(rt.n_shards(), 1);
    rt.shutdown();
}
