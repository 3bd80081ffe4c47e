//! No monitor spec can panic a launch. Specs are drawn over a grid that
//! includes invalid values — W, levels, f and c at zero and at
//! non-powers of two, windows that cannot be decomposed, unaligned MIN
//! windows, NaN / negative / infinite radii and `R_max`, empty and
//! undecomposable trend patterns — and `MonitorSpec::build` and
//! `ShardedRuntime::launch` must agree on `Ok` against `Err` without
//! panicking or aborting.
//!
//! Two corners pass every parameter check but ask for a raw history no
//! machine holds: W = 2^61, whose history exceeds `isize::MAX` bytes,
//! and 40 levels, whose history is at least 2^39 values (4 TiB). The
//! first is refused before the allocator is asked; the second is refused
//! by an allocator that does not overcommit that far (Linux's default
//! heuristic), so neither corner touches real memory.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use stardust_core::query::aggregate::WindowSpec;
use stardust_core::transform::TransformKind;
use stardust_runtime::{
    AggregateSpec, Batch, CorrelationSpec, MonitorSpec, RuntimeConfig, RuntimeError,
    ShardedRuntime, TrendPattern, TrendSpec,
};

// Valid values appear more than once, so that about one drawn spec in
// ten builds.
const WS: [usize; 8] = [0, 1, 3, 4, 8, 4, 8, 1 << 61];
const LEVELS: [usize; 7] = [0, 1, 2, 3, 5, 2, 40];
const REALS: [f64; 8] = [f64::NAN, -1.0, f64::INFINITY, 0.0, 0.5, 50.0, 0.5, 50.0];
const COEFFS: [usize; 7] = [0, 1, 2, 3, 4, 2, 1];
const CAPACITIES: [usize; 5] = [0, 1, 3, 4, 4];
const TRANSFORMS: [TransformKind; 4] =
    [TransformKind::Sum, TransformKind::Min, TransformKind::Spread, TransformKind::Dwt];
const WINDOWS: [&[usize]; 8] = [&[], &[0], &[3], &[4], &[6, 8], &[16, 32], &[1 << 40], &[8]];
/// Pattern lengths; 0 is the empty pattern.
const PATTERNS: [&[usize]; 6] = [&[], &[0], &[8], &[6], &[4, 16], &[8]];

fn spec(
    (w, levels, r_max): (usize, usize, usize),
    (agg, transform, capacity, windows): (bool, usize, usize, usize),
    (trend, coeffs, trend_capacity, patterns, pattern_radius): (bool, usize, usize, usize, usize),
    (corr, corr_coeffs, radius): (bool, usize, usize),
) -> MonitorSpec {
    let mut spec = MonitorSpec::new(WS[w], LEVELS[levels], REALS[r_max]);
    spec.aggregate = agg.then(|| AggregateSpec {
        transform: TRANSFORMS[transform],
        windows: WINDOWS[windows]
            .iter()
            .map(|&window| WindowSpec { window, threshold: 5.0 })
            .collect(),
        box_capacity: CAPACITIES[capacity],
    });
    spec.trend = trend.then(|| TrendSpec {
        coeffs: COEFFS[coeffs],
        box_capacity: CAPACITIES[trend_capacity],
        patterns: PATTERNS[patterns]
            .iter()
            .map(|&len| TrendPattern {
                sequence: (0..len).map(|i| (i as f64 * 0.7).sin() + 2.0).collect(),
                radius: REALS[pattern_radius],
            })
            .collect(),
    });
    spec.correlation =
        corr.then(|| CorrelationSpec { coeffs: COEFFS[corr_coeffs], radius: REALS[radius] });
    spec
}

fn value(i: usize) -> f64 {
    (i as f64 * 0.37).sin() * 3.0 + 4.0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn no_spec_panics_and_build_agrees_with_launch(
        shape in (0..WS.len(), 0..LEVELS.len(), 0..REALS.len()),
        aggregate in (any::<bool>(), 0..TRANSFORMS.len(), 0..CAPACITIES.len(), 0..WINDOWS.len()),
        trend in (any::<bool>(), 0..COEFFS.len(), 0..CAPACITIES.len(), 0..PATTERNS.len(), 0..REALS.len()),
        correlation in (any::<bool>(), 0..COEFFS.len(), 0..REALS.len()),
        n_streams in 1usize..4,
    ) {
        let spec = spec(shape, aggregate, trend, correlation);
        let built = catch_unwind(AssertUnwindSafe(|| {
            spec.build(n_streams).map(|m| {
                let mut monitor = m.expect("at least one stream");
                for i in 0..64 {
                    monitor.append((i % n_streams) as u32, value(i));
                }
                monitor.snapshot().len()
            })
        }));
        prop_assert!(built.is_ok(), "build panicked on {spec:?}");
        let built = built.expect("checked");
        let launched = catch_unwind(AssertUnwindSafe(|| {
            let config = RuntimeConfig { shards: 2, ..RuntimeConfig::default() };
            ShardedRuntime::launch(&spec, n_streams, config).map(|rt| {
                let batch: Batch = (0..64).map(|i| ((i % n_streams) as u32, value(i))).collect();
                rt.submit_blocking(&batch).expect("workers alive");
                rt.shutdown().stats.total_appends()
            })
        }));
        prop_assert!(launched.is_ok(), "launch panicked on {spec:?}");
        match (built, launched.expect("checked")) {
            (Ok(_), Ok(appends)) => prop_assert_eq!(appends, 64),
            (Err(e), Err(RuntimeError::Spec(f))) => prop_assert_eq!(e, f),
            (built, launched) => {
                prop_assert!(false, "{spec:?}: build {built:?}, launch {launched:?}")
            }
        }
    }
}
