#![allow(missing_docs)]
//! Query-latency microbenchmarks: one-time pattern queries (Algorithms 3
//! and 4), continuous trend probes, and a correlation detection round.

use criterion::{criterion_group, criterion_main, Criterion};
use stardust_core::config::{Config, UpdatePolicy};
use stardust_core::engine::Stardust;
use stardust_core::query::pattern::{self, PatternQuery};
use stardust_core::query::trend::TrendMonitor;
use stardust_datagen::random_walk_streams;

const W: usize = 16;
const LEVELS: usize = 5;
const M: usize = 16;
const N_ITEMS: usize = 1500;

fn engines() -> (Stardust, Stardust, Vec<Vec<f64>>) {
    let data = random_walk_streams(11, M, N_ITEMS);
    let r_max = data.iter().flatten().fold(1.0f64, |a, &b| a.max(b.abs()));
    let mut online_cfg = Config::batch(W, LEVELS, 4, r_max).with_history(512);
    online_cfg.update = UpdatePolicy::Online;
    online_cfg.box_capacity = 16;
    let mut online = Stardust::new(online_cfg, M);
    let batch_cfg = Config::batch(W, LEVELS, 4, r_max).with_history(512);
    let mut batch = Stardust::new(batch_cfg, M);
    for i in 0..N_ITEMS {
        for (s, col) in data.iter().enumerate() {
            online.append(s as u32, col[i]);
            batch.append(s as u32, col[i]);
        }
    }
    (online, batch, data)
}

fn bench_queries(c: &mut Criterion) {
    let (online, batch, data) = engines();
    let mut group = c.benchmark_group("pattern_query");
    for len in [48usize, 112, 240] {
        let q = PatternQuery { sequence: data[0][N_ITEMS - len..].to_vec(), radius: 0.02 };
        group.bench_function(format!("online_len{len}"), |b| {
            b.iter(|| pattern::query_online(&online, &q).expect("valid"))
        });
        group.bench_function(format!("batch_len{len}"), |b| {
            b.iter(|| pattern::query_batch(&batch, &q).expect("valid"))
        });
    }
    group.bench_function("nearest_online_k10", |b| {
        let seq = &data[1][N_ITEMS - 112..];
        b.iter(|| pattern::nearest_online(&online, seq, 10).expect("valid"))
    });
    group.finish();

    // Trend probe: per-arrival cost with a registered pattern database.
    let mut group = c.benchmark_group("trend_probe");
    for n_patterns in [8usize, 64] {
        group.bench_function(format!("arrival_{n_patterns}_patterns"), |b| {
            let mut cfg = Config::batch(W, 4, 4, 200.0).with_history(256);
            cfg.update = UpdatePolicy::Online;
            cfg.box_capacity = 8;
            let mut mon = TrendMonitor::new(cfg, 1);
            for p in 0..n_patterns {
                let pat: Vec<f64> =
                    (0..48).map(|i| 50.0 + ((i + p) as f64 * 0.37).sin() * 10.0).collect();
                mon.register(pat, 0.02).expect("valid pattern");
            }
            let stream = &data[2];
            let mut i = 0usize;
            b.iter(|| {
                let out = mon.append(0, stream[i % N_ITEMS]);
                i += 1;
                out
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_queries
}
criterion_main!(benches);
