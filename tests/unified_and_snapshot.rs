//! Facade-level tests of the unified monitor and the checkpoint/restore
//! pipeline across crates.

use stardust::core::engine::Stardust;
use stardust::core::query::aggregate::WindowSpec;
use stardust::core::query::pattern::{self, PatternQuery};
use stardust::core::spec::{AggregateSpec, CorrelationSpec, MonitorSpec};
use stardust::core::transform::TransformKind;
use stardust::core::unified::Event;
use stardust::core::{Config, StreamSummary};
use stardust::datagen::random_walk_streams;

/// The unified monitor's per-class reports agree with dedicated monitors
/// fed the same stream.
#[test]
fn unified_agrees_with_dedicated_monitors() {
    let data = random_walk_streams(21, 2, 600);
    let specs = vec![
        WindowSpec { window: 16, threshold: 900.0 },
        WindowSpec { window: 32, threshold: 1800.0 },
    ];
    let mut unified = MonitorSpec::new(8, 3, 200.0)
        .with_aggregates(AggregateSpec {
            transform: TransformKind::Sum,
            windows: specs.clone(),
            box_capacity: 4,
        })
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 0.4 })
        .build(2)
        .expect("valid spec")
        .expect("streams");
    let mut dedicated_corr =
        stardust::core::query::correlation::CorrelationMonitor::new(8, 3, 4, 0.4, 2);

    let mut unified_aggr = 0usize;
    let mut unified_pairs = Vec::new();
    let mut dedicated_pairs = Vec::new();
    for i in 0..600 {
        for s in 0..2u32 {
            for ev in unified.append(s, data[s as usize][i]) {
                match ev {
                    Event::Aggregate { alarm, .. } => {
                        unified_aggr += usize::from(alarm.is_true_alarm)
                    }
                    Event::Correlation(p) => {
                        unified_pairs.push((p.a.min(p.b), p.a.max(p.b), p.time))
                    }
                    Event::Trend(_) => unreachable!("trends not enabled"),
                }
            }
            dedicated_pairs.extend(
                dedicated_corr
                    .append(s, data[s as usize][i])
                    .into_iter()
                    .map(|p| (p.a.min(p.b), p.a.max(p.b), p.time)),
            );
        }
    }
    assert_eq!(unified_pairs, dedicated_pairs, "correlation streams diverge");
    // Dedicated aggregate monitor on stream 0.
    let cfg = Config::online(TransformKind::Sum, 8, 3, 4).with_history(32);
    let mut dedicated_aggr = stardust::core::query::aggregate::AggregateMonitor::new(cfg, &specs);
    let mut count0 = 0usize;
    for i in 0..600 {
        count0 += dedicated_aggr.push(data[0][i]).iter().filter(|a| a.is_true_alarm).count();
    }
    // The unified count covers both streams; stream 0's share must match.
    assert!(unified_aggr >= count0);
}

/// Snapshot a summary to disk, restore it in a "new process" (fresh
/// objects), and keep going — the full operational cycle.
#[test]
fn checkpoint_cycle_through_disk() {
    let data = random_walk_streams(5, 1, 400);
    let cfg = Config::batch(8, 3, 4, 200.0).with_history(64);
    let mut live = StreamSummary::new(cfg);
    for &x in &data[0][..250] {
        live.push_quiet(x);
    }
    let dir = std::env::temp_dir().join(format!("stardust_ckpt_test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("summary.snap");
    std::fs::write(&path, live.snapshot()).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let mut revived = StreamSummary::restore(&bytes).expect("restores from disk");
    for &x in &data[0][250..] {
        live.push_quiet(x);
        revived.push_quiet(x);
    }
    let t = live.now().unwrap();
    for j in 0..3 {
        assert_eq!(live.mbr_at(j, t), revived.mbr_at(j, t), "level {j}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine checkpointing preserves pattern-query answers exactly.
#[test]
fn engine_checkpoint_preserves_answers() {
    let data = random_walk_streams(9, 4, 500);
    let r_max = data.iter().flatten().fold(1.0f64, |a, &b| a.max(b.abs()));
    let cfg = Config::batch(8, 4, 4, r_max).with_history(256);
    let mut engine = Stardust::new(cfg, 4);
    for i in 0..500 {
        for s in 0..4u32 {
            engine.append(s, data[s as usize][i]);
        }
    }
    let restored = Stardust::restore(&engine.snapshot()).expect("restores");
    for len in [24usize, 40] {
        let q = PatternQuery { sequence: data[1][500 - len..].to_vec(), radius: 0.03 };
        let a = pattern::query_batch(&engine, &q).expect("valid");
        let b = pattern::query_batch(&restored, &q).expect("valid");
        let mut ma: Vec<_> = a.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        let mut mb: Vec<_> = b.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        ma.sort_unstable();
        mb.sort_unstable();
        assert_eq!(ma, mb, "len={len}");
        assert_eq!(a.candidates.len(), b.candidates.len(), "len={len}");
    }
}
