#![allow(missing_docs)]
//! R\*-tree microbenchmarks: insert, range query, delete, bulk load.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use stardust_index::{bulk_load, Params, RStarTree, Rect};

fn splitmix(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn random_rects(n: usize, dims: usize, seed: u64) -> Vec<(Rect, u32)> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let lo: Vec<f64> = (0..dims).map(|_| splitmix(&mut s) * 100.0).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + splitmix(&mut s) * 2.0).collect();
            (Rect::new(lo, hi), i as u32)
        })
        .collect()
}

fn bench_index(c: &mut Criterion) {
    for dims in [2usize, 8] {
        let items = random_rects(2000, dims, 99);
        let mut group = c.benchmark_group(format!("rstar_{dims}d"));
        group.throughput(Throughput::Elements(items.len() as u64));

        group.bench_function("insert_2000", |b| {
            b.iter_batched(
                || items.clone(),
                |items| {
                    let mut t = RStarTree::with_params(dims, Params::default());
                    for (r, v) in items {
                        t.insert(r, v);
                    }
                    t
                },
                BatchSize::SmallInput,
            )
        });

        group.bench_function("bulk_load_2000", |b| {
            b.iter_batched(
                || items.clone(),
                |items| bulk_load(dims, Params::default(), items),
                BatchSize::SmallInput,
            )
        });

        let mut tree = RStarTree::with_params(dims, Params::default());
        for (r, v) in items.clone() {
            tree.insert(r, v);
        }
        let queries = random_rects(100, dims, 123);
        group.bench_function("range_query_100", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (q, _) in &queries {
                    tree.search_intersecting(q, |_, _| hits += 1);
                }
                hits
            })
        });

        group.bench_function("point_radius_query_100", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (q, _) in &queries {
                    tree.search_within(q.lo(), 5.0, |_, _| hits += 1);
                }
                hits
            })
        });

        // Small-drift churn: every item deleted and reinserted slightly
        // moved.
        group.bench_function("update_via_remove_insert", |b| {
            b.iter_batched(
                || {
                    let mut t = RStarTree::with_params(dims, Params::default());
                    for (r, v) in items.clone() {
                        t.insert(r, v);
                    }
                    t
                },
                |mut t| {
                    for (r, v) in &items {
                        let moved = Rect::new(
                            r.lo().iter().map(|x| x + 0.01).collect(),
                            r.hi().iter().map(|x| x + 0.01).collect(),
                        );
                        t.remove(r, v);
                        t.insert(moved, *v);
                    }
                    t
                },
                BatchSize::SmallInput,
            )
        });

        group.bench_function("remove_half", |b| {
            b.iter_batched(
                || {
                    let mut t = RStarTree::with_params(dims, Params::default());
                    for (r, v) in items.clone() {
                        t.insert(r, v);
                    }
                    t
                },
                |mut t| {
                    for (r, v) in items.iter().step_by(2) {
                        t.remove(r, v);
                    }
                    t
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_index
}
criterion_main!(benches);
