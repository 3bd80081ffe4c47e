#![allow(missing_docs)]
//! Per-item maintenance cost of the summarization schemes — the
//! time-complexity claims of §4 / Theorem 4.3.
//!
//! Compares, at identical configurations:
//! * Stardust **incremental online** (Θ(f) per level per item),
//! * Stardust **batch** (amortized Θ(f) per level per W items),
//! * **direct** recomputation (MR-Index style, Θ(W·2^j) per level), and
//! * the SWAT update schedule.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use stardust_core::config::{ComputeMode, Config, UpdatePolicy};
use stardust_core::engine::Stardust;
use stardust_core::transform::TransformKind;
use stardust_core::StreamSummary;
use stardust_datagen::random_walk;
use stardust_index::{bulk_load, Params, RStarTree, Rect};

const N_ITEMS: usize = 4096;

fn feed(summary: &mut StreamSummary, data: &[f64]) {
    for &x in data {
        summary.push_quiet(x);
    }
}

fn bench_maintenance(c: &mut Criterion) {
    let data = random_walk(7, N_ITEMS);
    let mut group = c.benchmark_group("maintenance");
    group.throughput(Throughput::Elements(N_ITEMS as u64));

    let base = Config::batch(64, 5, 4, 200.0).with_history(2048);

    let mut online = base.clone();
    online.update = UpdatePolicy::Online;
    online.box_capacity = 25;
    group.bench_function("incremental_online_c25", |b| {
        b.iter_batched(
            || StreamSummary::new(online.clone()),
            |mut s| feed(&mut s, &data),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("incremental_batch", |b| {
        b.iter_batched(
            || StreamSummary::new(base.clone()),
            |mut s| feed(&mut s, &data),
            BatchSize::SmallInput,
        )
    });

    let mut direct = online.clone();
    direct.compute = ComputeMode::Direct;
    group.bench_function("direct_mrindex_c25", |b| {
        b.iter_batched(
            || StreamSummary::new(direct.clone()),
            |mut s| feed(&mut s, &data),
            BatchSize::SmallInput,
        )
    });

    let mut swat = base.clone();
    swat.update = UpdatePolicy::Swat;
    group.bench_function("incremental_swat", |b| {
        b.iter_batched(
            || StreamSummary::new(swat.clone()),
            |mut s| feed(&mut s, &data),
            BatchSize::SmallInput,
        )
    });

    // Aggregate transforms are cheaper still (no per-level vectors).
    let sum_cfg = Config::online(TransformKind::Sum, 64, 5, 25).with_history(2048);
    group.bench_function("incremental_online_sum", |b| {
        b.iter_batched(
            || StreamSummary::new(sum_cfg.clone()),
            |mut s| feed(&mut s, &data),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Index-rebuild cost on the crash-recovery path: one bottom-up STR bulk
/// build versus replaying every sealed MBR through incremental insertion
/// (what `Stardust::restore` did before the arena/STR rewrite), plus the
/// whole-engine `restore` for context.
fn bench_rebuild(c: &mut Criterion) {
    // Harvest a realistic feature population: a DWT engine over several
    // streams, long enough history that each level retains many MBRs.
    const STREAMS: usize = 8;
    const VALUES: usize = 4096;
    let cfg = Config::batch(8, 3, 8, 200.0).with_history(4096);
    let mut engine = Stardust::new(cfg, STREAMS);
    for (s, walk) in (0..STREAMS).map(|s| (s, random_walk(s as u64 + 11, VALUES))) {
        for v in walk {
            engine.append(s as u32, v);
        }
    }
    let dims = engine.tree(0).dims();
    let items: Vec<(Rect, u64)> = (0..3)
        .flat_map(|level| {
            engine.tree(level).iter().enumerate().map(move |(i, (r, _))| {
                (Rect::new(r.lo().to_vec(), r.hi().to_vec()), (level * VALUES + i) as u64)
            })
        })
        .collect();
    let snapshot = engine.snapshot();

    let mut group = c.benchmark_group("maintenance");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("rebuild_bulk_str", |b| {
        b.iter_batched(
            || items.clone(),
            |items| bulk_load(dims, Params::default(), items),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("rebuild_incremental_replay", |b| {
        b.iter_batched(
            || items.clone(),
            |items| {
                let mut tree = RStarTree::with_params(dims, Params::default());
                for (r, v) in items {
                    tree.insert(r, v);
                }
                tree
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("engine_restore", |b| {
        b.iter(|| Stardust::restore(&snapshot).expect("self-written snapshot"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_maintenance, bench_rebuild
}
criterion_main!(benches);
