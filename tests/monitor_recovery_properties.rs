//! Property tests of the unified monitor's crash checkpointing: a
//! monitor snapshotted at an arbitrary point and restored must be
//! indistinguishable — event for event, bit for bit — from one that
//! never stopped. This is the invariant the sharded runtime's shard
//! recovery is built on.

use proptest::prelude::*;
use stardust::core::query::aggregate::WindowSpec;
use stardust::core::spec::{AggregateSpec, CorrelationSpec, MonitorSpec, TrendSpec};
use stardust::core::transform::TransformKind;
use stardust::core::unified::UnifiedMonitor;

const N_VALUES: usize = 320;
const BASE: usize = 8;

fn stream_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (0.0f64..100.0, proptest::collection::vec(-1.0f64..1.0, n)).prop_map(|(start, steps)| {
        let mut x = start;
        steps
            .into_iter()
            .map(|d| {
                x = (x + d).clamp(0.0, 100.0);
                x
            })
            .collect()
    })
}

/// A SUM threshold most cases cross somewhere, so the comparison covers
/// real alarm events rather than empty vectors.
fn crossing_threshold(streams: &[Vec<f64>], window: usize) -> f64 {
    streams
        .iter()
        .flat_map(|s| s.windows(window).map(|w| w.iter().sum::<f64>()))
        .fold(f64::MIN, f64::max)
        * 0.9
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// snapshot → restore → continue ≡ never snapshotted, across all
    /// three query classes, for any split point, pattern radius, and
    /// pattern origin.
    #[test]
    fn snapshot_restore_continue_is_bit_identical(
        a in stream_strategy(N_VALUES),
        b in stream_strategy(N_VALUES),
        split in 40usize..N_VALUES - 40,
        pattern_at in 0usize..N_VALUES - 2 * BASE,
        radius in 0.02f64..0.5,
        corr_radius in 0.1f64..2.0,
    ) {
        let streams = [a, b];
        let r_max = streams.iter().flatten().fold(1.0f64, |m, &x| m.max(x.abs()));
        let threshold = crossing_threshold(&streams, 2 * BASE);

        let mut live = MonitorSpec::new(BASE, 3, r_max)
            .with_aggregates(AggregateSpec {
                transform: TransformKind::Sum,
                windows: vec![WindowSpec { window: 2 * BASE, threshold }],
                box_capacity: 4,
            })
            .with_trends(TrendSpec { coeffs: 4, box_capacity: 4, patterns: Vec::new() })
            .with_correlations(CorrelationSpec { coeffs: 4, radius: corr_radius })
            .build(2)
            .expect("valid spec")
            .expect("streams");
        // A pattern cut from the data itself, so trend hits occur.
        live.register_trend(
            streams[0][pattern_at..pattern_at + 2 * BASE].to_vec(),
            radius,
        ).unwrap();

        for t in 0..split {
            for (s, stream) in streams.iter().enumerate() {
                live.append(s as u32, stream[t]);
            }
        }

        let mut revived = UnifiedMonitor::restore(&live.snapshot()).expect("snapshot round-trips");
        for t in split..N_VALUES {
            for (s, stream) in streams.iter().enumerate() {
                let expected = live.append(s as u32, stream[t]);
                let got = revived.append(s as u32, stream[t]);
                prop_assert_eq!(&got, &expected, "diverged at t={} stream={}", t, s);
            }
        }
        // After identical continuations the two monitors are the same
        // state again — their next checkpoints must agree byte for byte.
        prop_assert_eq!(live.snapshot(), revived.snapshot());
    }
}
