//! Recovery-path equivalence: a monitor restored from a snapshot (whose
//! R\*-trees are rebuilt with one STR bulk load) must answer every query
//! class bit-identically to one rebuilt the expensive way — a fresh
//! monitor incrementally replaying the entire append history.

use stardust::core::config::Config;
use stardust::core::engine::Stardust;
use stardust::core::query::aggregate::WindowSpec;
use stardust::core::query::pattern::{query_batch, PatternQuery};
use stardust::core::transform::TransformKind;
use stardust::core::unified::{Event, UnifiedMonitor};

const BASE: usize = 8;
const N_STREAMS: usize = 3;
const N_VALUES: usize = 400;
const SPLIT: usize = 250;

fn value(t: usize, s: usize) -> f64 {
    // Correlated waves with per-stream phase so all three classes fire:
    // aggregates cross the threshold, the registered trend recurs, and
    // streams stay pairwise close in feature space.
    ((t as f64 * 0.23) + s as f64 * 0.05).sin() * 20.0 + 50.0 + (s as f64) * 0.1
}

fn build_monitor() -> UnifiedMonitor {
    let mut m = UnifiedMonitor::builder(BASE, 3, N_STREAMS, 100.0)
        .aggregates(
            TransformKind::Sum,
            vec![WindowSpec { window: 2 * BASE, threshold: 2.0 * BASE as f64 * 55.0 }],
            4,
        )
        .trends(4, 4)
        .correlations(4, 1.5)
        .build();
    // A pattern cut from the data itself, so trend matches occur.
    let pattern: Vec<f64> = (16..16 + 2 * BASE).map(|t| value(t, 0)).collect();
    m.register_trend(pattern, 0.4).expect("trends enabled");
    m
}

/// The restored monitor (STR bulk-loaded trees) and an incremental-replay
/// rebuild emit bit-identical events for every subsequent append, across
/// aggregates, trends, and correlations.
#[test]
fn restored_monitor_matches_incremental_replay() {
    let mut live = build_monitor();
    for t in 0..SPLIT {
        for s in 0..N_STREAMS {
            live.append(s as u32, value(t, s));
        }
    }

    // Path A: snapshot → restore (trees rebuilt via STR bulk load).
    let mut restored = UnifiedMonitor::restore(&live.snapshot()).expect("snapshot round-trips");
    // Path B: fresh monitor, incremental replay of the whole history.
    let mut replayed = build_monitor();
    for t in 0..SPLIT {
        for s in 0..N_STREAMS {
            replayed.append(s as u32, value(t, s));
        }
    }

    let mut classes_seen = [false; 3];
    for t in SPLIT..N_VALUES {
        for s in 0..N_STREAMS {
            let expected = live.append(s as u32, value(t, s));
            let via_bulk = restored.append(s as u32, value(t, s));
            let via_replay = replayed.append(s as u32, value(t, s));
            assert_eq!(via_bulk, expected, "restore diverged at t={t} stream={s}");
            assert_eq!(via_replay, expected, "replay diverged at t={t} stream={s}");
            for ev in &expected {
                match ev {
                    Event::Aggregate { .. } => classes_seen[0] = true,
                    Event::Trend(_) => classes_seen[1] = true,
                    Event::Correlation(_) => classes_seen[2] = true,
                }
            }
        }
    }
    assert!(
        classes_seen.iter().all(|&c| c),
        "test data must exercise all three classes, saw {classes_seen:?}"
    );
    // Identical states again: next checkpoints agree byte for byte.
    assert_eq!(live.snapshot(), restored.snapshot());
    assert_eq!(live.snapshot(), replayed.snapshot());
}

/// Engine level: per-level trees rebuilt by `Stardust::restore`'s bulk
/// load hold the same entries as an incremental replay and answer pattern
/// queries identically.
#[test]
fn restored_engine_matches_incremental_replay() {
    let cfg = Config::batch(8, 3, 4, 100.0).with_history(128);
    let mut live = Stardust::new(cfg.clone(), N_STREAMS);
    for t in 0..300 {
        for s in 0..N_STREAMS {
            live.append(s as u32, value(t, s));
        }
    }

    let mut restored = Stardust::restore(&live.snapshot()).expect("restores");
    let mut replayed = Stardust::new(cfg, N_STREAMS);
    for t in 0..300 {
        for s in 0..N_STREAMS {
            replayed.append(s as u32, value(t, s));
        }
    }

    // Every indexed entry as (exact corner bits, payload), sorted.
    let entries = |engine: &Stardust, level: usize| {
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut out: Vec<_> = engine
            .tree(level)
            .iter()
            .map(|(r, e)| (bits(r.lo()), bits(r.hi()), e.stream, e.first, e.count, e.period))
            .collect();
        out.sort_unstable();
        out
    };
    for level in 0..3 {
        restored.tree(level).validate().expect("bulk-loaded tree valid");
        let (a, b) = (entries(&restored, level), entries(&replayed, level));
        assert!(!a.is_empty(), "level {level} holds no entries");
        assert_eq!(a, b, "level {level} entries");
    }

    // Both engines answer pattern queries identically after continuing.
    for t in 300..360 {
        for s in 0..N_STREAMS {
            restored.append(s as u32, value(t, s));
            replayed.append(s as u32, value(t, s));
        }
    }
    let q = PatternQuery { sequence: (320..352).map(|t| value(t, 1)).collect(), radius: 0.05 };
    let a = query_batch(&restored, &q).expect("valid query");
    let b = query_batch(&replayed, &q).expect("valid query");
    let mut ma: Vec<_> = a.matches.iter().map(|m| (m.stream, m.end_time)).collect();
    let mut mb: Vec<_> = b.matches.iter().map(|m| (m.stream, m.end_time)).collect();
    ma.sort_unstable();
    mb.sort_unstable();
    assert_eq!(ma, mb);
}

/// The batched-append fast path is event-for-event equivalent to the
/// per-item loop.
#[test]
fn append_batch_matches_per_item_appends() {
    let mut one_by_one = build_monitor();
    let mut batched = build_monitor();
    for chunk_start in (0..N_VALUES).step_by(13) {
        let chunk_end = (chunk_start + 13).min(N_VALUES);
        let mut items: Vec<(u32, f64)> = Vec::new();
        for t in chunk_start..chunk_end {
            for s in 0..N_STREAMS {
                items.push((s as u32, value(t, s)));
            }
        }
        let mut expected = Vec::new();
        for &(s, v) in &items {
            expected.extend(one_by_one.append(s, v));
        }
        let got = batched.append_batch(&items);
        assert_eq!(got, expected, "batch starting at t={chunk_start}");
    }
    assert_eq!(one_by_one.snapshot(), batched.snapshot());
}
