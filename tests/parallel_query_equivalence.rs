//! Intra-query parallelism is invisible in query results.
//!
//! The determinism contract of the fan-out machinery (`stardust::runtime`'s
//! pool): at **every** worker count the result is bit-for-bit the serial
//! result — same values, same float bits, same order. Parallelism may only
//! change wall-clock time.
//! The chaos variant kills a shard worker mid-run and requires the same
//! identity from the restored runtime.

use stardust::core::stream::StreamId;
use stardust::runtime::{
    Batch, CorrelationSpec, FaultPlan, MonitorSpec, RuntimeConfig, ShardedRuntime,
};
use std::sync::Arc;

const BASE_WINDOW: usize = 8;
const LEVELS: usize = 3;
const WINDOW: usize = BASE_WINDOW << (LEVELS - 1);
const N_VALUES: usize = 160;
const RADIUS: f64 = 0.5;

/// Pair lists compared through `to_bits` so a single reassociated float
/// operation anywhere in the fan-out shows up as a failure, not as a
/// tolerance pass.
fn bits(pairs: &[(StreamId, StreamId, f64)]) -> Vec<(StreamId, StreamId, u64)> {
    pairs.iter().map(|&(a, b, c)| (a, b, c.to_bits())).collect()
}

/// Correlated workload with planted cross-shard pairs (phases 0/1 and 2/3
/// agree), identical to the cross-shard correlation suite's shape.
fn workload() -> Vec<Vec<f64>> {
    let phases = [0.0, 0.0, 2.1, 2.1, 4.2, 5.3];
    let mut seed = 0x5EEDu64;
    let mut rng = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    phases
        .iter()
        .enumerate()
        .map(|(i, &phase)| {
            let mean = 40.0 + 5.0 * i as f64;
            (0..N_VALUES)
                .map(|t| {
                    let cycle = 2.0 * std::f64::consts::PI * t as f64 / WINDOW as f64;
                    mean * (1.0 + 0.2 * (cycle + phase).sin() + 0.004 * rng())
                })
                .collect()
        })
        .collect()
}

fn spec(streams: &[Vec<f64>]) -> MonitorSpec {
    let r_max = streams.iter().flatten().fold(1.0f64, |m, &x| m.max(x.abs()));
    MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: RADIUS })
}

fn run(
    spec: &MonitorSpec,
    streams: &[Vec<f64>],
    shards: usize,
    intra_query_threads: usize,
    fault_plan: Option<Arc<FaultPlan>>,
) -> Vec<(StreamId, StreamId, f64)> {
    let rt = ShardedRuntime::launch(
        spec,
        streams.len(),
        RuntimeConfig {
            shards,
            queue_capacity: 32,
            intra_query_threads,
            fault_plan,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    for t in 0..N_VALUES {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    let pairs = rt.correlated_pairs().unwrap();
    rt.shutdown();
    pairs
}

#[test]
fn correlated_pairs_bit_identical_at_every_thread_count() {
    let streams = workload();
    let spec = spec(&streams);
    for shards in [2usize, 3, 4] {
        let serial = run(&spec, &streams, shards, 1, None);
        assert!(!serial.is_empty(), "vacuous: no pairs at {shards} shard(s)");
        for threads in [2usize, 3, 8, 0] {
            let parallel = run(&spec, &streams, shards, threads, None);
            assert_eq!(
                bits(&parallel),
                bits(&serial),
                "intra_query_threads={threads} diverged from serial at {shards} shard(s)"
            );
        }
    }
}

/// Chaos variant: every shard worker is killed somewhere mid-ingest and
/// restored by the supervisor; the parallel query over the recovered
/// runtime must still be bit-identical to the undisturbed serial run.
#[test]
fn parallel_query_survives_worker_kills_bit_identically() {
    let streams = workload();
    let spec = spec(&streams);
    for shards in [2usize, 3] {
        let serial = run(&spec, &streams, shards, 1, None);
        assert!(!serial.is_empty(), "vacuous: no pairs at {shards} shard(s)");
        for threads in [2usize, 8] {
            let plan = Arc::new(FaultPlan::seeded_kills(41 + shards as u64, shards, 40, 120));
            let chaotic = run(&spec, &streams, shards, threads, Some(plan));
            assert_eq!(
                bits(&chaotic),
                bits(&serial),
                "kills + intra_query_threads={threads} diverged at {shards} shard(s)"
            );
        }
    }
}
