//! **Microbenchmarks** — the timings behind the §4 maintenance-cost
//! claims (Lemmas 4.1 / 4.2: incremental Θ(f) work per level per item
//! against direct recomputation).
//!
//! * `maintenance` — summarization cost over 4,096 random-walk items at
//!   W = 64, 5 levels, DWT f = 4: incremental online c = 25, batch,
//!   direct (MR-Index style) c = 25, the SWAT schedule and online SUM;
//!   then the crash-recovery index rebuild of one engine's MBR
//!   population: STR `bulk_load` against incremental replay, plus the
//!   whole `Stardust::restore`.
//! * `transforms` — direct Haar at w = 1,024 against the Θ(f)
//!   `merge_halves_into`, and the SUM / DWT interval merges.
//!
//! Each row is the median of repeated [`timed`] samples, taken
//! round-robin across the rows of its group. A sample runs the operation
//! often enough to last at least 1 ms, on inputs built outside the
//! timer. Only the entry count is deterministic.
//!
//! Run: `cargo run --release -p stardust-bench --bin microbench [--full] [--seed N]`
//! (21 samples per row; `--full` takes 101).

use std::hint::black_box;

use stardust_bench::{f1, full_scale, seed_arg, timed, Table};
use stardust_core::config::{ComputeMode, Config, UpdatePolicy};
use stardust_core::engine::Stardust;
use stardust_core::transform::TransformKind;
use stardust_core::StreamSummary;
use stardust_datagen::random_walk;
use stardust_dsp::haar;
use stardust_dsp::mbr_transform::Bounds;
use stardust_index::{bulk_load, Params, RStarTree, Rect};

const MAINTENANCE_ITEMS: usize = 4096;
const MIN_SAMPLE_MS: f64 = 1.0;

/// One timed operation: `sample(calls)` runs `calls` calls, each on a
/// fresh input built before the timer starts, and returns the elapsed
/// milliseconds; the outputs are dropped after the timer stops.
type Sampler<'a> = Box<dyn FnMut(usize) -> f64 + 'a>;

fn sampler<'a, S, T>(
    mut setup: impl FnMut() -> S + 'a,
    mut op: impl FnMut(S) -> T + 'a,
) -> Sampler<'a> {
    Box::new(move |calls| {
        let inputs: Vec<S> = (0..calls).map(|_| setup()).collect();
        let mut outputs = Vec::with_capacity(calls);
        let ((), ms) = timed(|| outputs.extend(inputs.into_iter().map(&mut op)));
        black_box(outputs);
        ms
    })
}

/// A sampler for an operation without per-call input.
fn repeat<'a, T>(mut op: impl FnMut() -> T + 'a) -> Sampler<'a> {
    sampler(|| (), move |()| op())
}

/// Nanoseconds in the largest unit that keeps the value ≥ 1.
fn human(ns: f64) -> String {
    match ns {
        x if x >= 1e6 => format!("{:.2} ms", x / 1e6),
        x if x >= 1e3 => format!("{:.2} µs", x / 1e3),
        x => format!("{x:.1} ns"),
    }
}

/// The rows of one run plus the ratio lines printed under the table.
struct Report {
    table: Table,
    notes: Vec<String>,
    samples: usize,
}

impl Report {
    /// Times one group of `(operation, items per call, sampler)` rows,
    /// adds a row each and returns their median ns per call. The calls
    /// per sample double from 1 until a sample lasts [`MIN_SAMPLE_MS`],
    /// which also warms the caches. The samples then go round-robin
    /// across the rows, so a slow spell on a shared machine hits every
    /// row of a ratio alike instead of one of them.
    fn group(&mut self, group: &str, mut rows: Vec<(&str, usize, Sampler<'_>)>) -> Vec<f64> {
        let calls: Vec<usize> = rows
            .iter_mut()
            .map(|(_, _, sample)| {
                let mut calls = 1;
                while sample(calls) < MIN_SAMPLE_MS {
                    calls *= 2;
                }
                calls
            })
            .collect();
        let mut ns = vec![Vec::with_capacity(self.samples); rows.len()];
        for _ in 0..self.samples {
            for (i, (_, _, sample)) in rows.iter_mut().enumerate() {
                ns[i].push(sample(calls[i]) * 1e6 / calls[i] as f64);
            }
        }
        rows.iter()
            .zip(ns)
            .map(|((name, items, _), mut ns)| {
                ns.sort_by(f64::total_cmp);
                let median = ns[ns.len() / 2];
                self.table.row(&[
                    group.to_string(),
                    name.to_string(),
                    items.to_string(),
                    human(median),
                    f1(median / *items as f64),
                ]);
                median
            })
            .collect()
    }
}

fn feed(config: &Config, data: &[f64]) -> StreamSummary {
    let mut summary = StreamSummary::new(config.clone());
    for &x in data {
        summary.push_quiet(x);
    }
    summary
}

fn maintenance(r: &mut Report, seed: u64) {
    let data = random_walk(seed, MAINTENANCE_ITEMS);
    let base = Config::batch(64, 5, 4, 200.0).with_history(2048);
    let mut online = base.clone();
    online.update = UpdatePolicy::Online;
    online.box_capacity = 25;
    let mut direct = online.clone();
    direct.compute = ComputeMode::Direct;
    let mut swat = base.clone();
    swat.update = UpdatePolicy::Swat;
    let sum = Config::online(TransformKind::Sum, 64, 5, 25).with_history(2048);

    let rows = [
        ("incremental_online_c25", &online),
        ("incremental_batch", &base),
        ("direct_mrindex_c25", &direct),
        ("incremental_swat", &swat),
        ("incremental_online_sum", &sum),
    ]
    .map(|(name, config)| (name, MAINTENANCE_ITEMS, repeat(|| feed(config, &data))));
    let ns = r.group("maintenance", rows.into());
    r.notes.push(format!(
        "# maintenance: direct / incremental online = {:.1}x; incremental online / batch = {:.1}x",
        ns[2] / ns[0],
        ns[0] / ns[1]
    ));
}

/// Index rebuild on the crash-recovery path: one bottom-up STR build
/// against replaying every sealed MBR through incremental insertion,
/// plus the whole-engine restore for context.
fn rebuild(r: &mut Report, seed: u64) {
    const STREAMS: usize = 8;
    const VALUES: usize = 4096;
    const LEVELS: usize = 3;
    let cfg = Config::batch(8, LEVELS, 8, 200.0).with_history(4096);
    let mut engine = Stardust::new(cfg, STREAMS);
    for s in 0..STREAMS {
        for v in random_walk(seed.wrapping_add(1 + s as u64), VALUES) {
            engine.append(s as u32, v);
        }
    }
    let dims = engine.tree(0).dims();
    let items: Vec<(Rect, u64)> = (0..LEVELS)
        .flat_map(|level| {
            engine.tree(level).iter().enumerate().map(move |(i, (r, _))| {
                (Rect::new(r.lo().to_vec(), r.hi().to_vec()), (level * VALUES + i) as u64)
            })
        })
        .collect();
    let snapshot = engine.snapshot();
    let n = items.len();

    let bulk = sampler(|| items.clone(), |items| bulk_load(dims, Params::default(), items));
    let replay = sampler(
        || items.clone(),
        |items| {
            let mut tree = RStarTree::with_params(dims, Params::default());
            for (rect, v) in items {
                tree.insert(rect, v);
            }
            tree
        },
    );
    let restore = repeat(|| Stardust::restore(&snapshot).expect("self-written snapshot"));
    let ns = r.group(
        "maintenance",
        vec![
            ("rebuild_bulk_str", n, bulk),
            ("rebuild_incremental_replay", n, replay),
            ("engine_restore", n, restore),
        ],
    );
    r.notes.push(format!(
        "# rebuild: {n} entries; incremental replay / STR bulk load = {:.1}x",
        ns[1] / ns[0]
    ));
}

fn transforms(r: &mut Report) {
    let window: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.13).sin() * 5.0 + 10.0).collect();
    let left = haar::approx(&window[..512], 4);
    let right = haar::approx(&window[512..], 4);
    let widen = |f: &[f64]| {
        Bounds::new(f.iter().map(|v| v - 0.5).collect(), f.iter().map(|v| v + 0.5).collect())
    };
    let (bl, br) = (widen(&left), widen(&right));
    let (sl, sr) = (Bounds::new(vec![1.0], vec![2.0]), Bounds::new(vec![3.0], vec![4.0]));
    let ns = r.group(
        "transforms",
        vec![
            ("haar_direct_w1024_f4", 1, repeat(|| haar::approx(black_box(&window), 4))),
            (
                "haar_merge_halves_into_f4",
                1,
                repeat(|| {
                    let mut out = [0.0; 4];
                    haar::merge_halves_into(black_box(&left), black_box(&right), &mut out);
                    out
                }),
            ),
            (
                "interval_merge_dwt_f4",
                1,
                repeat(|| TransformKind::Dwt.merge_bounds(black_box(&bl), black_box(&br))),
            ),
            (
                "interval_merge_sum",
                1,
                repeat(|| TransformKind::Sum.merge_bounds(black_box(&sl), black_box(&sr))),
            ),
        ],
    );
    r.notes.push(format!(
        "# transforms: direct Haar w=1024 / merge_halves_into f=4 = {:.0}x",
        ns[0] / ns[1]
    ));
}

fn main() {
    let seed = seed_arg();
    let samples = if full_scale() { 101 } else { 21 };
    println!(
        "# Microbenchmarks: median of {samples} timed samples per row (each ≥ {MIN_SAMPLE_MS} ms), seed {seed}"
    );
    let mut r = Report {
        table: Table::new(&["group", "operation", "items", "median", "ns_per_item"]),
        notes: Vec::new(),
        samples,
    };
    maintenance(&mut r, seed);
    rebuild(&mut r, seed);
    transforms(&mut r);
    r.table.print();
    for note in &r.notes {
        println!("{note}");
    }
}
