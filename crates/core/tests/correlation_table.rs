//! `CorrelationMonitor` on the banded feature table, through its public
//! surface: lagged mode against a brute-force scan of the lag horizon,
//! and snapshot compatibility with the R\*-tree-backed monitor it
//! replaced.

use stardust_core::normalize;
use stardust_core::query::correlation::CorrelationMonitor;
use stardust_core::stream::{StreamId, Time};
use stardust_dsp::haar;

fn rng(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// At every feature, the reported partners are exactly the features of
/// other streams inside the lag horizon whose independently computed
/// feature (z-norm the raw window, full DWT, coefficients 1..=f) lies
/// within the radius, in (partner, partner time) order, each verified
/// with the correlation of the two raw windows.
#[test]
fn lagged_reports_equal_bruteforce_over_the_horizon() {
    let (w0, f, radius, lag) = (4usize, 2usize, 0.8f64, 3u64);
    let mut mon = CorrelationMonitor::new(w0, 2, f, radius, 3).with_lag_periods(lag as usize);
    let window = mon.window();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut features: Vec<(StreamId, Time, Vec<f64>)> = Vec::new();
    let (mut s1, mut s2) = (11u64, 1111u64);
    let (mut a, mut c) = (50.0f64, 50.0f64);
    let mut total = 0usize;
    for i in 0..240u64 {
        a += rng(&mut s1) - 0.5;
        c += rng(&mut s2) - 0.5;
        // Stream 1 replays stream 0 one period late, so lagged hits are
        // plentiful.
        let b = if i >= w0 as u64 { series[0][i as usize - w0] } else { 50.0 };
        for (stream, value) in [(0u32, a), (1, b), (2, c)] {
            series[stream as usize].push(value);
            let got = mon.append(stream, value);
            if (i + 1) % w0 as u64 != 0 || (i + 1) < window as u64 {
                assert!(got.is_empty());
                continue;
            }
            let raw = |s: StreamId, end: Time| {
                &series[s as usize][end as usize + 1 - window..=end as usize]
            };
            let Some(z) = normalize::z_norm(raw(stream, i)) else { continue };
            let feature = haar::dwt(&z)[1..=f].to_vec();
            let horizon = i.saturating_sub(lag * w0 as u64);
            let mut want: Vec<(StreamId, Time, f64)> = features
                .iter()
                .filter(|(other, ot, _)| *other != stream && *ot > horizon)
                .map(|(other, ot, feat)| (*other, *ot, normalize::l2_distance(feat, &feature)))
                .filter(|&(_, _, d)| d <= radius)
                .collect();
            want.sort_by_key(|&(other, ot, _)| (other, ot));
            assert_eq!(
                got.iter().map(|p| (p.b, p.time_other)).collect::<Vec<_>>(),
                want.iter().map(|&(other, ot, _)| (other, ot)).collect::<Vec<_>>(),
                "stream {stream} at t={i}"
            );
            for (p, &(other, ot, d)) in got.iter().zip(&want) {
                assert!((p.feature_distance - d).abs() < 1e-9);
                assert_eq!(p.correlation, normalize::correlation(raw(stream, i), raw(other, ot)));
            }
            total += got.len();
            features.push((stream, i, feature));
        }
    }
    assert!(total > 50, "workload should report plenty of pairs, got {total}");
}

/// The fixed input behind the checked-in parent-format snapshots: three
/// streams, stopped mid-round at a feature time (stream 2 has not had its
/// turn, so lagged mode still holds its straggler).
fn fixture_monitor(lag: usize) -> CorrelationMonitor {
    let mut mon = CorrelationMonitor::new(4, 2, 2, 0.8, 3);
    if lag > 1 {
        mon = mon.with_lag_periods(lag);
    }
    let (mut s1, mut s2) = (42u64, 4242u64);
    let (mut a, mut c) = (50.0f64, 50.0f64);
    for i in 0..44u64 {
        a += rng(&mut s1) - 0.5;
        c += rng(&mut s2) - 0.5;
        let b = a + 0.01 * ((i % 7) as f64 - 3.0);
        mon.append(0, a);
        mon.append(1, b);
        if i < 43 {
            mon.append(2, c);
        }
    }
    mon
}

/// Snapshot format compatibility, in both modes: the blobs under
/// `fixtures/` were written from `fixture_monitor` by the last commit
/// whose monitor kept an R\*-tree, an insertion-order log and per-stream
/// deques. This monitor writes the same bytes from the same input (so
/// either commit restores the other's snapshots), restoring and
/// re-snapshotting is the identity, and the restored monitor continues
/// exactly like the live one.
#[test]
fn snapshots_are_byte_identical_to_the_tree_backed_format() {
    let parent: [(usize, &[u8]); 2] = [
        (1, include_bytes!("fixtures/correlation_sync_parent.snap")),
        (3, include_bytes!("fixtures/correlation_lag3_parent.snap")),
    ];
    for (lag, blob) in parent {
        let mut live = fixture_monitor(lag);
        assert_eq!(live.snapshot(), blob, "lag {lag}: live snapshot differs from the parent's");
        let mut restored = CorrelationMonitor::restore(blob).expect("parent-format blob restores");
        assert_eq!(restored.snapshot(), blob, "lag {lag}: restore → snapshot is not the identity");
        // Finish the interrupted round and run on: stream 2's turn
        // queries the restored entries.
        let mut seed = 7u64;
        for stream in std::iter::once(2u32).chain((0..40).flat_map(|_| 0..3)) {
            let value = 50.0 + rng(&mut seed);
            assert_eq!(live.append(stream, value), restored.append(stream, value));
        }
        assert_eq!(live.snapshot(), restored.snapshot());
        assert!(live.stats().reported > 0);
    }
}
