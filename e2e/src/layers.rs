//! The traced pass: per-layer metrics, measured from outside.
//!
//! Nothing inside the program is touched. A layer is timed by calling
//! its public functions on the workload's own generated input, and the
//! path is attributed by an **ablation ladder** over that same input:
//!
//! ```text
//! StreamSummary::push → class monitors → UnifiedMonitor (1 thread)
//!   → ShardedRuntime, 1 shard, recovery off → 2 shards, default recovery
//!   → open() with SyncPolicy::Always        (durable path only)
//!   → Server + Clients on loopback          (network path only)
//! ```
//!
//! Each rung reports ns per value; adjacent deltas are the layers'
//! shares and telescope to the top rung. Where a layer is also timed in
//! isolation (`index.*`, `dsp.*`, `core.sketch.*`), the share of the
//! single-thread rung those isolated timings leave unexplained is
//! `attrib.residual_share`. The workload then runs once more on its own
//! path with a telemetry `Registry` attached and a span around every
//! call the benchmark makes (`trace_<workload>.json`); the difference
//! to the untraced top rung is `telemetry.overhead_share`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use stardust_core::config::{Config, UpdatePolicy};
use stardust_core::query::aggregate::AggregateMonitor;
use stardust_core::query::correlation::CorrelationMonitor;
use stardust_core::query::trend::TrendMonitor;
use stardust_core::sketch::BlockSketch;
use stardust_core::summarizer::StreamSummary;
use stardust_core::transform::TransformKind;
use stardust_dsp::mbr_transform::Bounds;
use stardust_dsp::{haar, FilterBank};
use stardust_index::{Params, RStarTree, Rect};
use stardust_runtime::RuntimeStats;
use stardust_server::protocol::{
    encode_frame, parse_frame, FrameParse, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
use stardust_server::Request;
use stardust_telemetry::Registry;

use crate::oracle::Oracle;
use crate::paths::{closed_loop, final_answers, open_loop, start, StartOpts, TempDir};
use crate::quant::Sample;
use crate::run::{check_phase, scratch, spin_up, Metric, Outcome, RunCfg, Tally};
use crate::trace::{SpanId, Tracer};
use crate::workload::{prepare, PathKind, Prepared, Workload, BOX_CAPACITY, SHARDS};

/// Times each ladder rung this often and keeps the fastest: the box's
/// slow stretches only ever add time.
const RUNG_REPEATS: usize = 3;
/// Values pushed per cell of the Θ(f) sweep.
const SWEEP_VALUES: usize = 24_000;
/// Share of `--seconds` the traced open-loop segment lasts.
const OPEN_SHARE: f64 = 0.2;

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let began = Instant::now();
    let out = f();
    (out, began.elapsed().as_nanos() as u64)
}

fn fastest(times: usize, mut f: impl FnMut() -> u64) -> u64 {
    (0..times).map(|_| f()).min().expect("at least one repetition")
}

/// The summarizer configuration each enabled class runs per stream,
/// as `UnifiedMonitor`'s builder derives them.
fn class_configs(p: &Prepared) -> Vec<(&'static str, Config)> {
    let (w0, levels) = (p.w.base_window, p.w.levels);
    let top = w0 << (levels - 1);
    let mut out = Vec::new();
    if let Some(agg) = &p.spec.aggregate {
        let max_w = agg.windows.iter().map(|s| s.window).max().unwrap_or(w0);
        let history = max_w.div_ceil(w0).max(1).next_power_of_two().max(1 << (levels - 1)) * w0;
        out.push((
            "aggregate",
            Config::online(agg.transform, w0, levels, agg.box_capacity)
                .with_history(history.max(top)),
        ));
    }
    if let Some(trend) = &p.spec.trend {
        let mut cfg = Config::batch(w0, levels, trend.coeffs, p.spec.r_max).with_history(top);
        cfg.update = UpdatePolicy::Online;
        cfg.box_capacity = trend.box_capacity;
        out.push(("trend", cfg));
    }
    if let Some(corr) = &p.spec.correlation {
        out.push(("correlation", Config::batch(w0, levels, corr_pyramid(corr.coeffs), 1.0)));
    }
    out
}

/// Approximation-vector length the correlation class maintains for `f`
/// detail coefficients.
fn corr_pyramid(f: usize) -> usize {
    (f + 1).next_power_of_two()
}

fn per_value(ns: u64, p: &Prepared, rows: usize) -> f64 {
    ns as f64 / (rows * p.w.streams) as f64
}

/// Rung 1: `StreamSummary::push` of every enabled class's summarizer.
/// Returns (ns per value, retained MBRs per stream and class).
fn rung_summarizer(p: &Prepared, rows: usize, times: usize) -> (f64, f64) {
    let configs = class_configs(p);
    let mut retained = 0usize;
    let ns = fastest(times, || {
        let mut summaries: Vec<Vec<StreamSummary>> = configs
            .iter()
            .map(|(_, cfg)| (0..p.w.streams).map(|_| StreamSummary::new(cfg.clone())).collect())
            .collect();
        let mut events = Vec::new();
        let ((), ns) = timed(|| {
            for row in 0..rows {
                for per_class in &mut summaries {
                    for (s, summary) in per_class.iter_mut().enumerate() {
                        events.clear();
                        summary.push(p.streams[s][row], &mut events);
                    }
                }
            }
        });
        retained = summaries.iter().flatten().map(StreamSummary::retained_mbrs).sum();
        ns
    });
    (per_value(ns, p, rows), retained as f64 / (p.w.streams * configs.len().max(1)) as f64)
}

/// What the class-monitor rung measured.
#[derive(Default)]
struct ClassRung {
    aggregate_ns: f64,
    aggregate_precision: f64,
    trend_ns: f64,
    trend_precision: f64,
    correlation_ns: f64,
    correlation_precision: f64,
}

impl ClassRung {
    fn total(&self) -> f64 {
        self.aggregate_ns + self.trend_ns + self.correlation_ns
    }
}

/// Rung 2: each enabled class's monitor alone, fed the whole input.
fn rung_classes(p: &Prepared, rows: usize, times: usize) -> ClassRung {
    let mut out = ClassRung::default();
    let configs = class_configs(p);
    let config_of = |class: &str| configs.iter().find(|(c, _)| *c == class).map(|(_, cfg)| cfg);
    if let (Some(agg), Some(cfg)) = (&p.spec.aggregate, config_of("aggregate")) {
        let ns = fastest(times, || {
            let mut monitors: Vec<AggregateMonitor> = (0..p.w.streams)
                .map(|_| AggregateMonitor::new(cfg.clone(), &agg.windows))
                .collect();
            let ((), ns) = timed(|| {
                for row in 0..rows {
                    for (s, m) in monitors.iter_mut().enumerate() {
                        black_box(m.push(p.streams[s][row]));
                    }
                }
            });
            let (candidates, confirmed) = monitors.iter().fold((0u64, 0u64), |(c, t), m| {
                (c + m.stats().candidates, t + m.stats().true_alarms)
            });
            out.aggregate_precision = confirmed as f64 / candidates.max(1) as f64;
            ns
        });
        out.aggregate_ns = per_value(ns, p, rows);
    }
    if let (Some(trend), Some(cfg)) = (&p.spec.trend, config_of("trend")) {
        let ns = fastest(times, || {
            let mut monitor = TrendMonitor::new(cfg.clone(), p.w.streams);
            for pattern in &trend.patterns {
                monitor
                    .register(pattern.sequence.clone(), pattern.radius)
                    .expect("the runtime accepted the same pattern");
            }
            let ((), ns) = timed(|| {
                for row in 0..rows {
                    for s in 0..p.w.streams {
                        black_box(monitor.append(s as u32, p.streams[s][row]));
                    }
                }
            });
            out.trend_precision = monitor.stats().precision();
            ns
        });
        out.trend_ns = per_value(ns, p, rows);
    }
    if let Some(corr) = &p.spec.correlation {
        let ns = fastest(times, || {
            let mut monitor = CorrelationMonitor::new(
                p.w.base_window,
                p.w.levels,
                corr.coeffs,
                corr.radius,
                p.w.streams,
            );
            let ((), ns) = timed(|| {
                for row in 0..rows {
                    for s in 0..p.w.streams {
                        black_box(monitor.append(s as u32, p.streams[s][row]));
                    }
                }
            });
            out.correlation_precision = monitor.stats().precision();
            ns
        });
        out.correlation_ns = per_value(ns, p, rows);
    }
    out
}

/// Rung 3: one `UnifiedMonitor` over all streams on one thread — the
/// single-thread baseline. Returns (append ns per value, snapshot ns,
/// snapshot bytes).
fn rung_unified(p: &Prepared, rows: usize, times: usize) -> (f64, f64, f64) {
    let mut snapshot = (0u64, 0usize);
    let ns = fastest(times, || {
        let mut monitor = p
            .spec
            .build(p.w.streams)
            .expect("the runtime accepted the same spec")
            .expect("streams > 0");
        let ((), ns) = timed(|| {
            for batch in &p.batches[..rows] {
                black_box(monitor.append_batch(batch.items()));
            }
        });
        let (bytes, snap_ns) = timed(|| monitor.snapshot());
        snapshot = (snap_ns, bytes.len());
        ns
    });
    (per_value(ns, p, rows), snapshot.0 as f64, snapshot.1 as f64)
}

/// A runtime rung: closed loop over the workload's input on the given
/// path; fastest of `times`, ns per value.
fn rung_path(
    p: &Prepared,
    rows: usize,
    opts: &StartOpts<'_>,
    out_dir: &Path,
    times: usize,
) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..times {
        let dir = match opts.path {
            PathKind::Durable => {
                Some(TempDir::new(out_dir).map_err(|e| format!("scratch directory: {e}"))?)
            }
            _ => None,
        };
        let opts = StartOpts { dir: dir.as_ref().map(TempDir::path), ..opts.clone() };
        let (mut sut, _) = start(p, &opts)?;
        let trial = closed_loop(&mut sut, p, rows, None);
        sut.finish();
        if trial.ops.failed > 0 {
            return Err(format!("{} operations failed on a ladder rung", trial.ops.failed));
        }
        best = best.min(trial.wall_ns as f64 / trial.values as f64);
    }
    Ok(best)
}

/// The feature points one routing group's correlation monitor indexes:
/// per feature round, each local stream's z-normed Haar detail
/// coefficients — computed exactly as `CorrelationMonitor::append`
/// does, so the replay below exercises the index on the very points and
/// radius the workload produces.
fn corr_points(p: &Prepared, group: usize, rows: usize, f: usize) -> Vec<Vec<Vec<f64>>> {
    let cfg = Config::batch(p.w.base_window, p.w.levels, corr_pyramid(f), 1.0);
    let (level, window) = (p.w.levels - 1, p.w.corr_window());
    let locals: Vec<usize> = (group..p.w.streams).step_by(SHARDS).collect();
    let mut summaries: Vec<StreamSummary> =
        locals.iter().map(|_| StreamSummary::new(cfg.clone())).collect();
    let mut rounds = Vec::new();
    for row in 0..rows {
        let due = (row + 1) % p.w.base_window == 0 && row + 1 >= window;
        let mut round = Vec::new();
        for (summary, &s) in summaries.iter_mut().zip(&locals) {
            summary.push_quiet(p.streams[s][row]);
            if !due {
                continue;
            }
            let Some(mbr) = summary.mbr_at(level, row as u64) else { continue };
            let n = window as f64;
            let mean = mbr.sum.0 / n;
            let energy = (mbr.sumsq.0 - n * mean * mean).max(0.0);
            if energy <= f64::EPSILON {
                continue;
            }
            let scale = 1.0 / energy.sqrt();
            let ordered = haar::dwt(mbr.bounds.lo());
            round.push(ordered[1..=f].iter().map(|c| c * scale).collect());
        }
        if due {
            rounds.push(round);
        }
    }
    rounds
}

/// `index.*`: the workload's feature points replayed into an
/// `RStarTree` the way the correlation monitor uses it (range query,
/// then insert; reset every round), into a plain linear scan, and
/// removed entry by entry.
#[derive(Default)]
struct IndexReplay {
    insert_ns: f64,
    remove_ns: f64,
    search_ns: f64,
    entries: f64,
    node_visits_per_search: f64,
    vs_linear_scan: f64,
    /// Searches whose tree and linear-scan hit counts differed.
    mismatches: u64,
    searches: u64,
}

fn index_replay(p: &Prepared, rows: usize) -> IndexReplay {
    let Some(corr) = &p.spec.correlation else { return IndexReplay::default() };
    let (f, radius) = (corr.coeffs, corr.radius);
    let (mut search, mut insert, mut remove, mut linear) = (0u64, 0u64, 0u64, 0u64);
    let (mut searches, mut entries, mut visits, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    for group in 0..SHARDS {
        for (t, round) in corr_points(p, group, rows, f).iter().enumerate() {
            let mut tree: RStarTree<(u32, u64)> = RStarTree::with_params(f, Params::new(8));
            let mut tree_hits = Vec::with_capacity(round.len());
            for (i, coords) in round.iter().enumerate() {
                entries += tree.len() as u64;
                let mut hits = 0u32;
                let t0 = Instant::now();
                tree.search_within(coords, radius, |rect, _| {
                    black_box(rect);
                    hits += 1;
                });
                let t1 = Instant::now();
                tree.insert(Rect::point(coords), (i as u32, t as u64));
                let t2 = Instant::now();
                search += (t1 - t0).as_nanos() as u64;
                insert += (t2 - t1).as_nanos() as u64;
                tree_hits.push(hits);
            }
            searches += round.len() as u64;
            visits += tree.counters().node_visits;
            let r2 = radius * radius;
            for (i, coords) in round.iter().enumerate() {
                let t0 = Instant::now();
                let hits = round[..i]
                    .iter()
                    .filter(|other| {
                        other.iter().zip(coords).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() <= r2
                    })
                    .count() as u32;
                linear += t0.elapsed().as_nanos() as u64;
                mismatches += u64::from(black_box(hits) != tree_hits[i]);
            }
            let ((), ns) = timed(|| {
                for (i, coords) in round.iter().enumerate() {
                    black_box(tree.remove(&Rect::point(coords), &(i as u32, t as u64)));
                }
            });
            remove += ns;
        }
    }
    let per_op = |ns: u64| ns as f64 / searches.max(1) as f64;
    IndexReplay {
        insert_ns: per_op(insert),
        remove_ns: per_op(remove),
        search_ns: per_op(search),
        entries: per_op(entries),
        node_visits_per_search: per_op(visits),
        vs_linear_scan: search as f64 / linear.max(1) as f64,
        mismatches,
        searches,
    }
}

/// `dsp.*`: the incremental half-merge (Lemma A.1) and the MBR
/// transform (Lemma A.2, Online II) at coefficient count `f`, on
/// coefficient vectors cut from the workload's own values. Returns
/// (ns per merge, ns per MBR transform).
fn dsp_kernels(p: &Prepared, f: usize) -> (f64, f64) {
    const CALLS: usize = 200_000;
    let half = p.w.base_window.max(f);
    let halves: Vec<Vec<f64>> =
        p.streams[0].chunks_exact(half).take(64).map(|window| haar::approx(window, f)).collect();
    let n = halves.len() - 1;
    let ((), merge) = timed(|| {
        for i in 0..CALLS {
            black_box(haar::merge_halves(black_box(&halves[i % n]), black_box(&halves[i % n + 1])));
        }
    });
    let boxes: Vec<Bounds> = halves
        .iter()
        .map(|h| {
            Bounds::new(h.iter().map(|c| c - 0.01).collect(), h.iter().map(|c| c + 0.01).collect())
        })
        .collect();
    let bank = FilterBank::haar();
    let ((), transform) = timed(|| {
        for i in 0..CALLS {
            let joined = black_box(&boxes[i % n]).concat(black_box(&boxes[i % n + 1]));
            black_box(joined.analyze_online2(&bank));
        }
    });
    (merge as f64 / CALLS as f64, transform as f64 / CALLS as f64)
}

/// `core.sketch.push_ns`: the per-value sketch upkeep of one routing
/// group plus the delta/absorb exchange at every sealed block.
fn sketch_kernel(p: &Prepared, rows: usize) -> f64 {
    let (window, block) = (p.w.corr_window(), p.w.base_window);
    let locals: Vec<usize> = (0..p.w.streams).step_by(SHARDS).collect();
    let mut shard_side: Vec<BlockSketch> =
        locals.iter().map(|_| BlockSketch::new(window, block)).collect();
    let mut mirrors = shard_side.clone();
    let ((), ns) = timed(|| {
        for row in 0..rows {
            for ((sketch, mirror), &s) in shard_side.iter_mut().zip(&mut mirrors).zip(&locals) {
                sketch.push(p.streams[s][row]);
                if (row + 1) % block == 0 {
                    mirror.absorb(&sketch.delta());
                }
            }
        }
    });
    black_box(&mirrors);
    ns as f64 / (rows * locals.len()) as f64
}

/// `server.protocol.*` on the frames the network path actually sends:
/// (encode ns per value, decode ns per value, wire bytes per value).
fn protocol_kernels(p: &Prepared) -> (f64, f64, f64) {
    let frames: Vec<&Vec<(u32, f64)>> = p.frames.iter().flatten().take(4096).collect();
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let values: usize = frames.iter().map(|f| f.len()).sum();
    let (wire, encode) = timed(|| {
        frames
            .iter()
            .map(|items| encode_frame(&Request::Append { items: (*items).clone() }.encode()))
            .collect::<Vec<_>>()
    });
    let ((), decode) = timed(|| {
        for framed in &wire {
            let FrameParse::Frame { consumed } = parse_frame(framed, DEFAULT_MAX_FRAME) else {
                panic!("a frame this benchmark just encoded failed to parse");
            };
            black_box(
                Request::decode(&framed[FRAME_HEADER_LEN..consumed])
                    .expect("a frame this benchmark just encoded failed to decode"),
            );
        }
    });
    let bytes: usize = wire.iter().map(Vec::len).sum();
    (encode as f64 / values as f64, decode as f64 / values as f64, bytes as f64 / values as f64)
}

/// The Θ(f) check (Lemmas 4.1/4.2): `StreamSummary::push` with the
/// online DWT summarizer, levels {2,4,6,8} × f {2,4,8}, as ns per value
/// per level. Returns the table and the mean f = 8 : f = 2 cost ratio
/// (4 if the per-level cost were exactly proportional to f).
fn theta_f_sweep(p: &Prepared, values: usize, times: usize) -> (Vec<(usize, usize, f64)>, f64) {
    const W: usize = 16;
    let series: Vec<f64> = p.streams.iter().flatten().copied().take(values).collect();
    let mut table = Vec::new();
    let mut ratios = Vec::new();
    for levels in [2usize, 4, 6, 8] {
        let mut at = [0.0f64; 2];
        for f in [2usize, 4, 8] {
            let mut cfg = Config::batch(W, levels, f, p.spec.r_max.max(1.0));
            cfg.update = UpdatePolicy::Online;
            cfg.box_capacity = BOX_CAPACITY;
            debug_assert_eq!(cfg.transform, TransformKind::Dwt);
            let ns = fastest(times, || {
                let mut summary = StreamSummary::new(cfg.clone());
                let mut events = Vec::new();
                timed(|| {
                    for &v in &series {
                        events.clear();
                        summary.push(v, &mut events);
                    }
                })
                .1
            });
            let per_level = ns as f64 / series.len() as f64 / levels as f64;
            table.push((levels, f, per_level));
            match f {
                2 => at[0] = per_level,
                8 => at[1] = per_level,
                _ => {}
            }
        }
        ratios.push(at[1] / at[0]);
    }
    (table, ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// Median µs of a bare 4 KiB write + fsync in `dir`, and the type of
/// the filesystem holding it, so that fsync numbers from tmpfs or an
/// overlay are never mistaken for disk numbers.
fn fsync_probe(dir: &Path) -> Result<(f64, String), String> {
    use std::io::Write as _;
    let probe = dir.join("fsync-probe");
    let block = [0x5Au8; 4096];
    let mut samples = Vec::with_capacity(21);
    let mut file = std::fs::File::create(&probe).map_err(|e| format!("fsync probe: {e}"))?;
    for _ in 0..21 {
        let began = Instant::now();
        file.write_all(&block).map_err(|e| format!("fsync probe write: {e}"))?;
        file.sync_all().map_err(|e| format!("fsync probe sync: {e}"))?;
        samples.push(began.elapsed().as_nanos() as u64);
    }
    drop(file);
    let _ = std::fs::remove_file(&probe);
    let median = Sample::new(samples).median().expect("21 samples") as f64 / 1e3;
    Ok((median, filesystem_of(dir)))
}

/// The filesystem type of the mount holding `dir`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes it).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            dir.starts_with(mount_point).then_some((mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}

fn shard_skew(stats: &RuntimeStats) -> f64 {
    let appends = stats.shards.iter().map(|s| s.appends).filter(|&a| a > 0);
    match (appends.clone().max(), appends.min()) {
        (Some(max), Some(min)) => max as f64 / min as f64,
        _ => 0.0,
    }
}

fn batch_latency_us(
    stats: &RuntimeStats,
    pick: impl Fn(&stardust_runtime::LatencyStats) -> Option<std::time::Duration>,
) -> f64 {
    stats
        .shards
        .iter()
        .filter_map(|s| pick(&s.batch_latency))
        .map(|d| d.as_secs_f64() * 1e6)
        .fold(0.0, f64::max)
}

/// The ladder's rungs, ns per value (0 where the workload's path has
/// no such rung).
struct Ladder {
    summarizer: f64,
    retained_mbrs: f64,
    classes: ClassRung,
    unified: f64,
    snapshot_ns: f64,
    snapshot_bytes: f64,
    runtime1: f64,
    runtime2: f64,
    durable: f64,
    loopback: f64,
}

impl Ladder {
    fn rungs(&self) -> [(&'static str, f64); 7] {
        [
            ("summarizer", self.summarizer),
            ("class", self.classes.total()),
            ("unified", self.unified),
            ("runtime1", self.runtime1),
            ("runtime2", self.runtime2),
            ("durable", self.durable),
            ("loopback", self.loopback),
        ]
    }

    /// The path's top rung.
    fn top(&self) -> f64 {
        self.rungs().iter().rev().map(|r| r.1).find(|&ns| ns > 0.0).unwrap_or(0.0)
    }

    /// Adjacent deltas over the rungs this path has, bottom up.
    fn deltas(&self) -> Vec<(&'static str, f64)> {
        self.rungs()
            .iter()
            .filter(|r| r.1 > 0.0)
            .scan(0.0, |below, &(name, ns)| {
                let delta = ns - *below;
                *below = ns;
                Some((name, delta))
            })
            .collect()
    }
}

fn climb(
    p: &Prepared,
    rows: usize,
    out_dir: &Path,
    times: usize,
    tracer: &Tracer,
    root: SpanId,
) -> Result<Ladder, String> {
    let ladder = tracer.open("ladder", Some(root), None);
    let at = Some(ladder);
    let (summarizer, retained_mbrs) =
        tracer.span("core.summarizer.push", at, None, || rung_summarizer(p, rows, times));
    let classes = tracer.span("core.class.append", at, None, || rung_classes(p, rows, times));
    let (unified, snapshot_ns, snapshot_bytes) =
        tracer.span("core.unified.append_batch", at, None, || rung_unified(p, rows, times));
    let one_shard =
        StartOpts { path: PathKind::Direct, shards: 1, recovery: false, registry: None, dir: None };
    let runtime1 = tracer
        .span("runtime.1shard", at, None, || rung_path(p, rows, &one_shard, out_dir, times))?;
    let runtime2 = tracer.span("runtime.2shards", at, None, || {
        rung_path(p, rows, &StartOpts::plain(PathKind::Direct, None), out_dir, times)
    })?;
    let own = StartOpts::plain(p.w.path, None);
    let (mut durable, mut loopback) = (0.0, 0.0);
    match p.w.path {
        PathKind::Direct => {}
        PathKind::Durable => {
            durable = tracer
                .span("runtime.durable", at, None, || rung_path(p, rows, &own, out_dir, times))?;
        }
        PathKind::Loopback => {
            loopback = tracer
                .span("server.loopback", at, None, || rung_path(p, rows, &own, out_dir, times))?;
        }
    }
    tracer.close(ladder);
    Ok(Ladder {
        summarizer,
        retained_mbrs,
        classes,
        unified,
        snapshot_ns,
        snapshot_bytes,
        runtime1,
        runtime2,
        durable,
        loopback,
    })
}

/// Reads back what the runtime recorded into the attached registry.
fn registry_counter(registry: &Registry, name: &str) -> f64 {
    registry.counter(name, "").get() as f64
}

/// Runs the traced pass of `w`.
///
/// # Errors
/// A rendered set-up failure (a system could not be started, scratch
/// space or the trace file could not be written).
pub fn run_traced(w: &Workload, cfg: &RunCfg) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let root = tracer.open("workload", None, None);
    let rows = w.closed_rows;
    let rows_open = w.open_rows(cfg.seconds * OPEN_SHARE);
    let values = (rows * w.streams) as f64;
    let mut tally = Tally::default();
    // A smoke run only has to produce every number: kernels are timed
    // once, not best-of, and the sweep is an eighth as long.
    let (times, sweep_values) =
        if cfg.smoke { (1, SWEEP_VALUES / 8) } else { (RUNG_REPEATS, SWEEP_VALUES) };
    if !cfg.smoke {
        spin_up();
    }

    let mut p =
        tracer.span("setup", Some(root), None, || prepare(w, cfg.seed, rows.max(rows_open)));
    if p.batches.is_empty() {
        // The ladder's direct rungs submit row batches; a network
        // workload's input is re-shaped for them (same values, same
        // order).
        p.batches = crate::workload::row_batches(&p.streams);
    }
    let oracle = tracer.span("reference", Some(root), None, || Oracle::run(&p, &[rows, rows_open]));
    let ladder = climb(&p, rows, &cfg.out_dir, times, &tracer, root)?;
    let top = ladder.top();
    let delta_sum: f64 = ladder.deltas().iter().map(|d| d.1).sum();
    tally.compared(u64::from((delta_sum - top).abs() > 1e-9 * top), 1);

    // Isolated layers.
    let isolated = tracer.open("isolated", Some(root), None);
    let at = Some(isolated);
    let index = tracer.span("index.replay", at, None, || index_replay(&p, rows));
    tally.compared(index.mismatches, index.searches);
    let f_dsp = match (&p.spec.correlation, &p.spec.trend) {
        (Some(corr), _) => corr_pyramid(corr.coeffs),
        (None, Some(trend)) => trend.coeffs,
        (None, None) => 0,
    };
    let (merge_ns, transform_ns) = if f_dsp > 0 {
        tracer.span("dsp.kernels", at, None, || dsp_kernels(&p, f_dsp))
    } else {
        (0.0, 0.0)
    };
    let sketch_ns = if p.spec.correlation.is_some() {
        tracer.span("core.sketch.push", at, None, || sketch_kernel(&p, rows))
    } else {
        0.0
    };
    let (encode_ns, decode_ns, wire_bytes) =
        tracer.span("server.protocol", at, None, || protocol_kernels(&p));
    let (sweep, f8_over_f2) =
        tracer.span("core.summarizer.sweep", at, None, || theta_f_sweep(&p, sweep_values, times));
    tracer.close(isolated);

    // The workload's own path once more, spans on and a registry
    // attached: closed loop, recovery (durable path), open loop.
    let registry = Registry::new();
    // Fastest of a few, like the ladder rungs it is compared with; the
    // last repetition's events and directory are the ones checked and
    // recovered.
    let mut traced_ns = f64::INFINITY;
    let mut last = None;
    for _ in 0..times {
        let dir = scratch(w, &cfg.out_dir)?;
        let closed = tracer.open("closed_loop", Some(root), None);
        let (mut sut, _) = tracer.span("start", Some(closed), None, || {
            start(&p, &traced_opts(w, &registry, dir.as_ref().map(TempDir::path)))
        })?;
        let trial = closed_loop(&mut sut, &p, rows, Some((&tracer, closed)));
        traced_ns = traced_ns.min(trial.wall_ns as f64 / trial.values as f64);
        let answers = final_answers(&mut sut, &p);
        let cross = sut.cross_corr_stats();
        let finished = tracer.span("teardown", Some(closed), None, || {
            if dir.is_some() {
                sut.crash()
            } else {
                sut.finish()
            }
        });
        tracer.close(closed);
        last = Some((dir, trial, answers, cross, finished));
    }
    let (dir, trial, answers, cross, finished) = last.expect("at least one repetition");
    let dir_path = dir.as_ref().map(TempDir::path);
    tally.ops(trial.ops);
    let mut events = trial.events;
    events.extend(finished.events);
    check_phase(&mut tally, &oracle, &p, rows, &events, answers);
    let stats = finished.stats;
    let submit = Sample::new(trial.submit_ns);

    let mut persist = Persist::default();
    if let Some(dir_path) = dir_path {
        let runs = times as f64;
        persist.wal_bytes_per_value =
            registry_counter(&registry, "stardust_persist_wal_bytes_total") / values / runs;
        persist.group_writes =
            registry_counter(&registry, "stardust_persist_wal_group_writes_total") / runs;
        persist.group_size_p50 = registry
            .histogram_with("stardust_runtime_group_size", "", Vec::new())
            .quantile(0.5)
            .unwrap_or(0) as f64;
        let (started, open_ns) = timed(|| {
            tracer.span("runtime.open", Some(root), None, || {
                start(&p, &traced_opts(w, &registry, Some(dir_path)))
            })
        });
        let (mut reopened, report) = started?;
        persist.replayed = report.map_or(0, |r| r.total_replayed()) as f64;
        if persist.replayed > 0.0 {
            persist.recovery_ns_per_append = open_ns as f64 / persist.replayed;
        }
        let answers = final_answers(&mut reopened, &p);
        let mut recovered = events.clone();
        recovered.extend(reopened.finish().events);
        check_phase(&mut tally, &oracle, &p, rows, &recovered, answers);
        (persist.fsync_probe_us, persist.filesystem) = fsync_probe(dir_path)?;
    }
    drop(dir);

    let dir = scratch(w, &cfg.out_dir)?;
    let opened = tracer.open("open_loop", Some(root), None);
    let (mut sut, _) = tracer.span("start", Some(opened), None, || {
        start(&p, &traced_opts(w, &registry, dir.as_ref().map(TempDir::path)))
    })?;
    let open = open_loop(&mut sut, &p, rows_open, Some((&tracer, opened)));
    tally.ops(open.ops);
    let answers = final_answers(&mut sut, &p);
    let mut open_events = open.events;
    open_events.extend(tracer.span("teardown", Some(opened), None, || sut.finish()).events);
    tracer.close(opened);
    check_phase(&mut tally, &oracle, &p, rows_open, &open_events, answers);
    drop(dir);
    tracer.close(root);

    // Per-value cost of the isolated layers, for the attribution.
    let period = w.base_window as f64;
    let upper = (w.levels - 1) as f64;
    let index_per_value = if p.spec.correlation.is_some() {
        (index.search_ns + index.insert_ns) / period
    } else {
        0.0
    };
    let mut dsp_per_value = 0.0;
    if p.spec.correlation.is_some() {
        // Batch policy: per stream and feature period, one MBR transform
        // per upper level plus one Haar pass over the pyramid.
        dsp_per_value += (upper * transform_ns + merge_ns) / period;
    }
    if p.spec.trend.is_some() {
        // Online policy: one MBR transform per upper level per value.
        dsp_per_value += upper * transform_ns;
    }
    let explained = ladder.summarizer + index_per_value + sketch_ns;

    let mut out = Outcome::default();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.metrics.push(Metric::new(name, value, unit, 1));
    };
    push("datagen.gen_s", p.gen_s, "s");
    push("core.summarizer.push_ns", ladder.summarizer, "ns");
    push(
        "core.summarizer.ns_per_level",
        ladder.summarizer / (w.levels * class_configs(&p).len().max(1)) as f64,
        "ns",
    );
    push("core.summarizer.retained_mbrs", ladder.retained_mbrs, "count");
    push("core.summarizer.f8_over_f2", f8_over_f2, "ratio");
    push("core.aggregate.push_ns", ladder.classes.aggregate_ns, "ns");
    push("core.aggregate.precision", ladder.classes.aggregate_precision, "ratio");
    push("core.correlation.append_ns", ladder.classes.correlation_ns, "ns");
    push("core.correlation.precision", ladder.classes.correlation_precision, "ratio");
    push("core.trend.append_ns", ladder.classes.trend_ns, "ns");
    push("core.trend.precision", ladder.classes.trend_precision, "ratio");
    push("index.insert_ns", index.insert_ns, "ns");
    push("index.remove_ns", index.remove_ns, "ns");
    push("index.search_ns", index.search_ns, "ns");
    push("index.entries", index.entries, "count");
    push("index.node_visits_per_search", index.node_visits_per_search, "count");
    push("index.vs_linear_scan", index.vs_linear_scan, "ratio");
    push("dsp.haar_merge_ns", merge_ns, "ns");
    push("dsp.mbr_transform_ns", transform_ns, "ns");
    push("core.sketch.push_ns", sketch_ns, "ns");
    push(
        "core.sketch.prune_share",
        cross.map_or(0.0, |c| c.pruned as f64 / (c.pruned + c.candidates).max(1) as f64),
        "ratio",
    );
    push("core.unified.append_ns", ladder.unified, "ns");
    push("core.unified.snapshot_ns", ladder.snapshot_ns, "ns");
    push("core.unified.snapshot_bytes", ladder.snapshot_bytes, "bytes");
    push("runtime.submit_wait_ns_p50", submit.median().unwrap_or(0) as f64, "ns");
    push("runtime.submit_wait_ns_p99", submit.tail(0.99).map_or(0, |t| t.1) as f64, "ns");
    // The runtime's own histogram: power-of-two buckets, p95 at most.
    push("runtime.batch_latency_p50_us", batch_latency_us(&stats, |l| l.p50), "us");
    push("runtime.batch_latency_p95_us", batch_latency_us(&stats, |l| l.p95), "us");
    push("runtime.queue_high_water", stats.max_queue_high_water() as f64, "count");
    push("runtime.shard_skew", shard_skew(&stats), "ratio");
    push("runtime.rejected", stats.total_rejected() as f64, "count");
    push("runtime.drain_poll_ns", Sample::new(open.drain_ns).median().unwrap_or(0) as f64, "ns");
    push("runtime.events_per_value", open_events.len() as f64 / open.values as f64, "ratio");
    push(
        "runtime.persist.ns_per_value",
        if ladder.durable > 0.0 { ladder.durable - ladder.runtime2 } else { 0.0 },
        "ns",
    );
    push("runtime.persist.wal_bytes_per_value", persist.wal_bytes_per_value, "bytes");
    push("runtime.persist.group_size_p50", persist.group_size_p50, "count");
    push("runtime.persist.group_writes", persist.group_writes, "count");
    push("runtime.persist.fsync_probe_us", persist.fsync_probe_us, "us");
    push("runtime.persist.replayed_appends", persist.replayed, "count");
    push("runtime.persist.recovery_ns_per_append", persist.recovery_ns_per_append, "ns");
    push("server.protocol.encode_ns", encode_ns, "ns");
    push("server.protocol.decode_ns", decode_ns, "ns");
    push("server.protocol.bytes_per_value", wire_bytes, "bytes");
    push(
        "server.overhead_ns_per_value",
        if ladder.loopback > 0.0 { ladder.loopback - ladder.runtime2 } else { 0.0 },
        "ns",
    );
    push("server.busy_replies", (trial.busy + open.busy) as f64, "count");
    push("server.rate_waits", (trial.rate_waits + open.rate_waits) as f64, "count");
    push(
        "gen.late_p99_us",
        Sample::new(open.late_ns).tail(0.99).map_or(0.0, |t| t.1 as f64 / 1e3),
        "us",
    );
    push("gen.backlog_end", open.backlog_end as f64, "count");
    push("telemetry.overhead_share", (traced_ns - top) / top, "ratio");
    for (name, ns) in ladder.rungs() {
        push(&format!("attrib.{name}_ns_per_value"), ns, "ns");
    }
    push("attrib.residual_share", (ladder.unified - explained) / ladder.unified, "ratio");
    push("attrib.index_dsp_share", (index_per_value + dsp_per_value) / ladder.unified, "ratio");

    let trace_path = cfg.out_dir.join(format!("trace_{}.json", w.name));
    tracer.write(&trace_path, w.name).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let deltas: Vec<String> =
        ladder.deltas().iter().map(|(name, d)| format!("\"{name}\":{d}")).collect();
    out.detail.push(("ladder_deltas_ns_per_value".into(), format!("{{{}}}", deltas.join(","))));
    let sweep: Vec<String> = sweep
        .iter()
        .map(|(levels, f, ns)| {
            format!("{{\"levels\":{levels},\"f\":{f},\"ns_per_value_per_level\":{ns}}}")
        })
        .collect();
    out.detail.push(("theta_f_sweep".into(), format!("[{}]", sweep.join(","))));
    let filesystem = if persist.filesystem.is_empty() { "none" } else { &persist.filesystem };
    out.detail.push(("filesystem".into(), format!("\"{filesystem}\"")));
    out.detail.push(("trace_file".into(), format!("\"{}\"", trace_path.display())));
    let selfs: Vec<String> = tracer
        .totals()
        .iter()
        .map(|(name, t)| format!("\"{name}\":{{\"count\":{},\"self_ns\":{}}}", t.count, t.self_ns))
        .collect();
    out.detail.push(("span_self_times".into(), format!("{{{}}}", selfs.join(","))));

    out.correct = tally.mismatched == 0;
    out.attempted = tally.attempted.max(1);
    out.failed = tally.failed;
    Ok(out)
}

/// Start options of the traced own-path runs: the workload's path with
/// the registry attached.
fn traced_opts<'a>(w: &Workload, registry: &Registry, dir: Option<&'a Path>) -> StartOpts<'a> {
    StartOpts { registry: Some(registry.clone()), ..StartOpts::plain(w.path, dir) }
}

/// `runtime.persist.*` observations of the traced durable run.
#[derive(Default)]
struct Persist {
    wal_bytes_per_value: f64,
    group_writes: f64,
    group_size_p50: f64,
    replayed: f64,
    recovery_ns_per_append: f64,
    fsync_probe_us: f64,
    filesystem: String,
}
