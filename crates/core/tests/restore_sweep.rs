//! Restore is total: every single-byte corruption of a snapshot of each
//! monitor class either fails with a typed `SnapshotError` or restores
//! a monitor that keeps appending and snapshotting. Each byte after the
//! magic is XOR-ed with 0x01, 0x80 and 0xff; no mutation may panic.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use stardust_core::config::{Config, UpdatePolicy};
use stardust_core::query::aggregate::{AggregateMonitor, WindowSpec};
use stardust_core::query::correlation::CorrelationMonitor;
use stardust_core::query::trend::TrendMonitor;
use stardust_core::snapshot::{SnapshotError, MAGIC};
use stardust_core::spec::{AggregateSpec, CorrelationSpec, MonitorSpec, TrendPattern, TrendSpec};
use stardust_core::transform::TransformKind;
use stardust_core::unified::UnifiedMonitor;

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` under `catch_unwind` without the default hook's report: a
/// mutation that panics is counted and reported by the sweep itself.
fn quietly<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                report(info);
            }
        }));
    });
    QUIET.set(true);
    let outcome = catch_unwind(AssertUnwindSafe(f));
    QUIET.set(false);
    outcome
}

fn value(s: u32, i: usize) -> f64 {
    ((i as f64 * 0.37 + f64::from(s)).sin() * 4.0 + 5.0) + f64::from(s) * (i % 3) as f64 * 0.1
}

/// Flips every byte of part `i` of `k` of `bytes` after the magic three
/// ways; each restore that succeeds must survive 16 appends (two
/// streams, alternating) and a re-snapshot. Returns (restored, rejected)
/// counts.
fn sweep<M>(
    bytes: &[u8],
    (i, k): (usize, usize),
    restore: fn(&[u8]) -> Result<M, SnapshotError>,
    run: fn(&mut M, u32, f64),
    snapshot: fn(&M) -> Vec<u8>,
) -> (usize, usize) {
    let (mut restored, mut rejected, mut panicked) = (0, 0, Vec::new());
    let body = bytes.len() - MAGIC.len();
    let range = MAGIC.len() + body * i / k..MAGIC.len() + body * (i + 1) / k;
    let mut mutated = bytes.to_vec();
    for at in range.clone() {
        for mask in [0x01u8, 0x80, 0xff] {
            mutated[at] = bytes[at] ^ mask;
            let outcome = quietly(|| match restore(&mutated) {
                Ok(mut m) => {
                    for i in 0..16 {
                        run(&mut m, i % 2, value(i % 2, 1000 + i as usize));
                    }
                    snapshot(&m);
                    true
                }
                Err(_) => false,
            });
            match outcome {
                Ok(true) => restored += 1,
                Ok(false) => rejected += 1,
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    panicked.push((at, mask, message));
                }
            }
        }
        mutated[at] = bytes[at];
    }
    let mut distinct: Vec<_> =
        panicked.iter().map(|(at, mask, m)| (m.lines().next(), at, mask)).collect();
    distinct.sort();
    distinct.dedup_by(|a, b| a.0 == b.0);
    assert!(
        panicked.is_empty(),
        "{} of {} mutations panicked; each distinct message, first (byte, mask): {distinct:#?}",
        panicked.len(),
        3 * range.len(),
    );
    (restored, rejected)
}

#[test]
fn aggregate_snapshots() {
    let windows = [4, 8, 12].map(|window| WindowSpec { window, threshold: 30.0 });
    let mut m = AggregateMonitor::new(Config::online(TransformKind::Sum, 4, 3, 2), &windows);
    for i in 0..100 {
        m.push(value(0, i));
    }
    let (restored, rejected) = sweep(
        &m.snapshot(),
        (0, 1),
        AggregateMonitor::restore,
        |m, _, v| drop(m.push(v)),
        |m| m.snapshot(),
    );
    assert!(restored > 0 && rejected > 0);
}

#[test]
fn trend_snapshots() {
    let mut config = Config::batch(4, 2, 2, 20.0);
    config.update = UpdatePolicy::Online;
    config.box_capacity = 4;
    let mut m = TrendMonitor::new(config, 2);
    m.register((8..16).map(|i| value(0, i)).collect(), 0.2).expect("valid pattern");
    for i in 0..50 {
        for s in 0..2 {
            m.append(s, value(s, i));
        }
    }
    let (restored, rejected) = sweep(
        &m.snapshot(),
        (0, 1),
        TrendMonitor::restore,
        |m, s, v| drop(m.append(s, v)),
        |m| m.snapshot(),
    );
    assert!(restored > 0 && rejected > 0);
}

#[test]
fn correlation_snapshots() {
    let mut m = CorrelationMonitor::new(4, 3, 2, 1.0, 2);
    for i in 0..50 {
        for s in 0..2 {
            m.append(s, value(s, i));
        }
    }
    let (restored, rejected) = sweep(
        &m.snapshot(),
        (0, 1),
        CorrelationMonitor::restore,
        |m, s, v| drop(m.append(s, v)),
        |m| m.snapshot(),
    );
    assert!(restored > 0 && rejected > 0);
}

/// The three-class fixture, the largest: its bytes are swept in two
/// halves that run as separate tests.
fn unified_fixture() -> Vec<u8> {
    let spec = MonitorSpec::new(4, 2, 20.0)
        .with_aggregates(AggregateSpec {
            transform: TransformKind::Spread,
            windows: vec![WindowSpec { window: 6, threshold: 3.0 }],
            box_capacity: 2,
        })
        .with_trends(TrendSpec {
            coeffs: 2,
            box_capacity: 4,
            patterns: vec![TrendPattern {
                sequence: (4..12).map(|i| value(1, i)).collect(),
                radius: 0.3,
            }],
        })
        .with_correlations(CorrelationSpec { coeffs: 2, radius: 1.0 });
    let mut m = spec.build(2).expect("valid spec").expect("two streams");
    for i in 0..40 {
        for s in 0..2 {
            m.append(s, value(s, i));
        }
    }
    m.snapshot()
}

fn unified_sweep(half: usize) {
    let (restored, rejected) = sweep(
        &unified_fixture(),
        (half, 2),
        UnifiedMonitor::restore,
        |m, s, v| drop(m.append(s, v)),
        |m| m.snapshot(),
    );
    assert!(restored > 0 && rejected > 0);
}

#[test]
fn unified_snapshots_first_half() {
    unified_sweep(0);
}

#[test]
fn unified_snapshots_second_half() {
    unified_sweep(1);
}
