//! Observed sketch-prune precision vs the analytic bound — the
//! cross-shard analogue of the Eq. 4–7 false-alarm check.
//!
//! The collector prunes a cross-shard pair when the block-sketch
//! distance lower bound exceeds `radius + PRUNE_SLACK`. Because the
//! bound is an orthogonal projection of the z-normed windows onto
//! block-constant vectors, it never exceeds the true distance — so
//! recall of the prune filter is *exactly* 1 (zero false dismissals),
//! and its precision is whatever the projection's resolution buys.
//!
//! This test pins both ends analytically: it rebuilds every stream's
//! sketch locally from the raw data, asserts the bound is below the
//! true z-normed distance for every cross-shard pair, predicts the
//! pruned count from the bound alone, and requires the runtime's
//! counters to match that prediction *exactly*. The same counters are
//! exported as the `stardust_cross_corr_*` registry series.

use stardust::core::normalize;
use stardust::core::stream::StreamId;
use stardust::core::{BlockSketch, PRUNE_SLACK};
use stardust::runtime::{Batch, CorrelationSpec, MonitorSpec, RuntimeConfig, ShardedRuntime};

const BASE_WINDOW: usize = 8;
const LEVELS: usize = 3;
/// Correlation window `W * 2^(levels-1)`; the sketch block defaults to
/// `BASE_WINDOW`, so the window spans 4 blocks.
const WINDOW: usize = BASE_WINDOW << (LEVELS - 1);
const N_STREAMS: usize = 8;
const SHARDS: usize = 4;
/// Block-aligned so the final sketches end exactly at `t*` and the
/// prune path is live for the last query.
const N_VALUES: usize = 160;
const RADIUS: f64 = 0.5;

/// Phase-structured sinusoids: streams sharing a phase are correlated
/// (z-normed correlation ~ cos of the phase difference); the rest sit
/// well outside the radius. One waveform period per correlation window
/// keeps the block averages shape-resolving, which is what gives the
/// projection bound its pruning power.
fn streams() -> Vec<Vec<f64>> {
    // (0,1) and (2,3) planted; under `g mod 4` placement both pairs are
    // cross-shard, and 24 of the 28 pairs are cross-shard in total.
    let phases = [0.0, 0.0, 2.1, 2.1, 0.9, 2.9, 4.2, 5.1];
    let mut seed = 0xACCE5Du64;
    let mut rng = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    phases
        .iter()
        .enumerate()
        .map(|(i, &phase)| {
            let mean = 30.0 + 4.0 * i as f64;
            (0..N_VALUES)
                .map(|t| {
                    let cycle = 2.0 * std::f64::consts::PI * t as f64 / WINDOW as f64;
                    mean * (1.0 + 0.2 * (cycle + phase).sin() + 0.004 * rng())
                })
                .collect()
        })
        .collect()
}

fn cross_shard(a: StreamId, b: StreamId) -> bool {
    a as usize % SHARDS != b as usize % SHARDS
}

#[test]
fn prune_precision_matches_analytic_bound() {
    let data = streams();
    let r_max = data.iter().flatten().fold(1.0f64, |m, &x| m.max(x.abs()));
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: RADIUS });

    // Ground truth at t* = N_VALUES - 1 from a single monitor.
    let want = {
        let mut monitor = spec.build(N_STREAMS).unwrap().unwrap();
        for t in 0..N_VALUES {
            for (s, stream) in data.iter().enumerate() {
                monitor.append(s as StreamId, stream[t]);
            }
        }
        monitor.correlation_monitor().unwrap().linear_scan_pairs(N_VALUES as u64 - 1)
    };
    for &(a, b) in &[(0, 1), (2, 3)] {
        assert!(
            want.iter().any(|&(x, y, _)| (x, y) == (a, b)),
            "vacuous: planted pair ({a},{b}) not in ground truth: {want:?}"
        );
    }

    // The sharded run whose counters we pin.
    let rt = ShardedRuntime::launch(
        &spec,
        N_STREAMS,
        RuntimeConfig { shards: SHARDS, queue_capacity: 32, ..RuntimeConfig::default() },
    )
    .unwrap();
    for t in 0..N_VALUES {
        let batch: Batch = data.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    let got = rt.correlated_pairs().unwrap();
    let stats = rt.cross_corr_stats();
    rt.shutdown();

    // Recall is exactly 1: set identity with the linear scan means no
    // ground-truth pair was dismissed by the prune.
    assert_eq!(got, want, "sharded result diverged from the linear scan");
    let recall = if want.is_empty() { 1.0 } else { got.len() as f64 / want.len() as f64 };
    assert_eq!(recall, 1.0, "prune recall must be exactly 1");

    // Analytic prediction: rebuild each stream's sketch from the raw
    // data (bit-identical to what the shard ships — absorb reproduces
    // the pusher, see `sketch_properties`) and apply the collector's
    // own predicate.
    let sketches: Vec<BlockSketch> = data
        .iter()
        .map(|stream| {
            let mut sk = BlockSketch::new(WINDOW, BASE_WINDOW);
            for &v in stream {
                sk.push(v);
            }
            assert_eq!(sk.end_time(), Some(N_VALUES as u64 - 1), "sketch not aligned with t*");
            sk
        })
        .collect();

    let mut predicted_pruned = 0u64;
    let mut cross_pairs = 0u64;
    for a in 0..N_STREAMS as StreamId {
        for b in a + 1..N_STREAMS as StreamId {
            if !cross_shard(a, b) {
                continue;
            }
            cross_pairs += 1;
            let lb = sketches[a as usize]
                .distance_lower_bound(&sketches[b as usize])
                .expect("aligned complete sketches must bound");
            // The no-false-dismissal theorem, checked numerically: the
            // bound never exceeds the true z-normed distance.
            let wa = normalize::z_norm(&data[a as usize][N_VALUES - WINDOW..]).unwrap();
            let wb = normalize::z_norm(&data[b as usize][N_VALUES - WINDOW..]).unwrap();
            let true_d = normalize::l2_distance(&wa, &wb);
            assert!(
                lb <= true_d + 1e-7,
                "bound {lb} exceeds true distance {true_d} for pair ({a},{b})"
            );
            if lb > RADIUS + PRUNE_SLACK {
                predicted_pruned += 1;
            }
        }
    }

    // The runtime's prune counter must equal the analytic prediction
    // *exactly* — the collector applies the same predicate to the same
    // sketch state.
    assert_eq!(
        stats.pruned, predicted_pruned,
        "observed prune count diverged from the analytic bound: {stats:?}"
    );
    assert_eq!(stats.candidates + stats.pruned, cross_pairs, "prune accounting gap: {stats:?}");

    // The projection has real resolving power on block-scale waveforms:
    // most uncorrelated cross-shard pairs are pruned without touching
    // the owning shards, and most surviving candidates confirm.
    assert!(
        stats.pruned >= cross_pairs / 2,
        "prune rate collapsed: {} of {cross_pairs} pruned",
        stats.pruned
    );
    let precision = stats.confirmed as f64 / stats.candidates as f64;
    assert!(
        precision >= 0.5,
        "prune precision {precision:.3} below floor ({} candidates, {} confirmed)",
        stats.candidates,
        stats.confirmed
    );
}
