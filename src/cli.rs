//! Command-line front end: argument parsing, CSV ingestion, and the
//! subcommand implementations behind the `stardust` binary.
//!
//! Kept as a library module so the logic is unit-testable; the binary in
//! `src/bin/stardust.rs` is a thin wrapper.

use std::collections::BTreeMap;

use stardust_core::config::Config;
use stardust_core::engine::Stardust;
use stardust_core::query::aggregate::{AggregateMonitor, WindowSpec};
use stardust_core::query::correlation::CorrelationMonitor;
use stardust_core::query::pattern::{self, PatternQuery};
use stardust_core::query::trend::TrendMonitor;
use stardust_core::stats::train_threshold;
use stardust_core::transform::TransformKind;

/// Parsed command line: a subcommand, `--flag value` pairs, and positional
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `args` (without the program name). The first token is the
    /// subcommand; `--name value` pairs become flags.
    pub fn parse(args: &[String]) -> Result<(String, Args), String> {
        let mut it = args.iter();
        let cmd = it.next().ok_or_else(usage)?.clone();
        let mut out = Args::default();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value =
                    it.next().ok_or_else(|| format!("flag --{name} needs a value"))?.clone();
                out.flags.insert(name.to_string(), value);
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok((cmd, out))
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// A parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("flag --{name}: cannot parse '{v}'")),
        }
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// The usage string.
pub fn usage() -> String {
    "\
stardust — monitor data streams in real time (Bulut & Singh, ICDE 2005)

USAGE: stardust <COMMAND> [FLAGS] [FILE]

Input is CSV with one column per stream (header-free; blank lines and
'#' comments skipped); reads stdin when no file is given.

COMMANDS:
  burst       monitor moving sums over a ladder of windows
              --base W (20)  --windows k (8: monitors W,2W,..,kW)
              --lambda L (6.0: thresholds μ+Lσ)  --train N (1000)
              --capacity c (5)
  volatility  same as burst but for MAX−MIN spread
  pattern     search all streams for a query subsequence
              --query FILE (required, single column)  --radius r (0.05)
              --base W (16)  --levels L (5)
  correlate   report correlated stream pairs continuously
              --base W (16)  --levels L (5: window W·2^(L−1))
              --min-corr c (0.9)  --coeffs f (4)  --lag periods (1)
  trend       continuously match registered patterns against all streams
              --patterns FILE (required: one comma-separated pattern per
              line)  --radius r (0.05)  --base W (16)  --levels L (4)
  serve-bench replay a workload through the sharded multi-threaded
              runtime and report ingest throughput, query latency, and
              per-shard stats; generates random-walk streams when no
              input is given
              --shards S (0: one per CPU)  --queue Q (64)  --batch rows (16)
              --streams M (64)  --values N (2048)  --seed (42)
              --base W (16)  --levels L (3)  --min-corr c (0.9)
              --lambda L (6.0)  --radius r (0.05)
              --classes agg,corr (of agg|corr|trend)
              --query-iters K (32: scatter-gather latency samples)
              --query-threads T (1: collector-side intra-query worker
              pool; 0 = one per CPU; results are bit-identical at
              every setting)
              --emit-bench FILE (write a schema-stable JSON report for
              CI regression gating, including WAL-append and
              disk-recovery micro-timings, a socket-level server load
              section, and a cross-shard correlation prune audit;
              see crates/bench/src/bin/bench_gate.rs)
              --server-clients C (32)  --server-values V (1024)
              (fleet size for the emitted server load section)
  serve       listen for ingest/query clients over TCP (SDNET001
              length+CRC framed protocol); clients authenticate with
              per-tenant tokens and get disjoint stream namespaces
              with stream-count and append-rate quotas; full shard
              queues answer typed Busy (admission control), not
              unbounded buffering
              --addr HOST:PORT (127.0.0.1:7171)  --shards S (0)
              --queue Q (64)  --tenants name:token:streams:rate,...
              (default: one tenant 'default' with --token TOK
              ('stardust-dev'), --streams M (16) streams, --rate R
              (0: unlimited) appends/s)  --dir PATH (persist to disk
              and recover on restart)  --max-seconds T (0: serve
              until killed)  --idle-seconds T (60)  --max-conns N
              (256)  --addr-file PATH (write the bound address, for
              scripts using --addr with port 0)
              --values N (2048)  --seed (42) and the serve-bench spec
              flags (the threshold-training workload when no CSV is
              given)
  metrics     run a workload through the instrumented runtime and dump
              the metrics registry (Prometheus text or JSON), including
              the observed vs Eq. 4-7 predicted false-alarm rate;
              generates random-walk streams when no input is given
              --format prom|json (prom)  --shards S (1)
              --streams M (16)  --values N (2048)  --seed (42)
              --base W (16)  --levels L (3)  --min-corr c (0.9)
              --lambda L (6.0)  --classes agg,corr (query classes)
  chaos       crash-recovery drill: kill every shard worker once
              mid-ingest (seeded, reproducible) and audit that the
              recovered event set is bit-identical to an unfaulted run;
              generates random-walk streams when no input is given
              --shards S (2)  --queue Q (32)  --batch rows (16)
              --snapshot-every A (64: appends between shard snapshots)
              --streams M (32)  --values N (2048)  --seed (42)
              --base W (16)  --levels L (3)  --min-corr c (0.9)
              --classes agg,corr (which query classes to enable)
  chaos-disk  disk-fault drill: run the persisted runtime through every
              disk-fault kind (torn WAL write, failed fsync, bit-flipped
              snapshot, truncated WAL), kill the process mid-ingest,
              reopen the directory, re-submit past the durable
              watermark, and audit the recovered event set against an
              unfaulted run; generates random-walk streams when no
              input is given
              --dir PATH (temp dir)  --shards S (2)  --queue Q (32)
              --batch rows (16)  --snapshot-every A (64)
              --sync-every E (8: WAL fsync cadence)
              --torn-at B (600: WAL byte offset of the torn write)
              --streams M (16)  --values N (2048)  --seed (42)
              --base W (16)  --levels L (3)  --min-corr c (0.9)
              --classes agg,corr (of agg|corr|trend)
  rebalance   elastic rebalancing drill: split a hot shard onto a spare
              and merge it back under live ingest, under deterministic
              worker kills at every migration protocol step, and across
              a whole-process crash mid-migration recovered from disk;
              every phase audited bit-identical to a never-resized run;
              generates random-walk streams when no input is given
              --shards S (2)  --groups G (2*S)  --queue Q (32)
              --batch rows (16)  --snapshot-every A (64)
              --dir PATH (temp dir)  --streams M (8)  --values N (2048)
              --seed (42)  --base W (16)  --levels L (3)
              --min-corr c (0.9)  --classes agg,corr (of agg|corr|trend)

EXAMPLE:
  stardust burst --base 20 --windows 8 --lambda 8 traffic.csv
  stardust serve-bench --shards 4 --streams 128 --values 4096
  stardust serve-bench --emit-bench BENCH_3.json
  stardust serve --addr 127.0.0.1:7171 --tenants a:tok-a:8:0,b:tok-b:8:512
  stardust metrics --format prom --streams 8 --values 1024
  stardust chaos --shards 4 --snapshot-every 128 --seed 7
  stardust chaos-disk --shards 2 --streams 8 --values 1024
  stardust rebalance --shards 2 --groups 4 --streams 8 --values 1024
"
    .to_string()
}

/// Parses a comma-separated list of positive integers.
pub fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|_| format!("bad integer '{p}'")))
        .collect()
}

/// Reads header-free CSV columns; `#`-prefixed and blank lines skipped.
/// All rows must have the same arity.
pub fn read_columns(input: &str) -> Result<Vec<Vec<f64>>, String> {
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let values: Result<Vec<f64>, String> = line
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("line {}: bad number '{c}'", lineno + 1))
            })
            .collect();
        let values = values?;
        if columns.is_empty() {
            columns = values.iter().map(|&v| vec![v]).collect();
        } else {
            if values.len() != columns.len() {
                return Err(format!(
                    "line {}: expected {} columns, found {}",
                    lineno + 1,
                    columns.len(),
                    values.len()
                ));
            }
            for (col, v) in columns.iter_mut().zip(values) {
                col.push(v);
            }
        }
    }
    if columns.is_empty() {
        return Err("no data rows in input".to_string());
    }
    Ok(columns)
}

/// Runs a subcommand over pre-read input; returns the report text.
pub fn run(cmd: &str, args: &Args, input: &str) -> Result<String, String> {
    match cmd {
        "burst" => run_aggregate(args, input, TransformKind::Sum),
        "volatility" => run_aggregate(args, input, TransformKind::Spread),
        "pattern" => run_pattern(args, input),
        "correlate" => run_correlate(args, input),
        "trend" => run_trend(args, input),
        "serve-bench" => run_serve_bench(args, input),
        "serve" => run_serve(args, input),
        "metrics" => run_metrics(args, input),
        "chaos" => run_chaos(args, input),
        "chaos-disk" => run_chaos_disk(args, input),
        "rebalance" => run_rebalance(args, input),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn single_column(input: &str) -> Result<Vec<f64>, String> {
    let mut cols = read_columns(input)?;
    if cols.len() != 1 {
        return Err(format!("expected a single-column stream, found {} columns", cols.len()));
    }
    Ok(cols.pop().expect("one column"))
}

fn run_aggregate(args: &Args, input: &str, kind: TransformKind) -> Result<String, String> {
    let data = single_column(input)?;
    let base: usize = args.get_or("base", 20)?;
    let k: usize = args.get_or("windows", 8)?;
    let lambda: f64 = args.get_or("lambda", 6.0)?;
    let train_len: usize = args.get_or("train", 1000.min(data.len() / 4))?;
    let capacity: usize = args.get_or("capacity", 5)?;
    if base == 0 || k == 0 {
        return Err("--base and --windows must be positive".into());
    }
    if data.len() <= train_len + base * k {
        return Err(format!(
            "input too short: {} values for training {} + largest window {}",
            data.len(),
            train_len,
            base * k
        ));
    }
    let (train, live) = data.split_at(train_len);
    let mut specs = Vec::new();
    for i in 1..=k {
        let w = base * i;
        let threshold = train_threshold(train, w, lambda, |win| {
            kind.scalar_aggregate(win).expect("scalar kind")
        })
        .ok_or_else(|| format!("training prefix shorter than window {w}"))?;
        specs.push(WindowSpec { window: w, threshold });
    }
    let mut levels = 1;
    while base << (levels - 1) < base * k {
        levels += 1;
    }
    let cfg = Config::online(kind, base, levels, capacity)
        .with_history((base * k).max(base << (levels - 1)));
    let mut monitor = AggregateMonitor::new(cfg, &specs);
    let mut out = String::new();
    out.push_str("time,window,aggregate,threshold\n");
    for (i, &x) in live.iter().enumerate() {
        for alarm in monitor.push(x) {
            if alarm.is_true_alarm {
                let tau = specs
                    .iter()
                    .find(|s| s.window == alarm.window)
                    .expect("monitored window")
                    .threshold;
                out.push_str(&format!(
                    "{},{},{:.3},{:.3}\n",
                    i + train_len,
                    alarm.window,
                    alarm.true_value,
                    tau
                ));
            }
        }
    }
    let st = monitor.stats();
    out.push_str(&format!(
        "# {} checks, {} true alarms, precision {:.3}\n",
        st.candidates,
        st.true_alarms,
        st.precision()
    ));
    Ok(out)
}

fn run_pattern(args: &Args, input: &str) -> Result<String, String> {
    let streams = read_columns(input)?;
    let query_path = args.get("query").ok_or("pattern needs --query FILE")?;
    let query_text = std::fs::read_to_string(query_path)
        .map_err(|e| format!("cannot read query file '{query_path}': {e}"))?;
    let query = single_column(&query_text)?;
    let radius: f64 = args.get_or("radius", 0.05)?;
    let base: usize = args.get_or("base", 16)?;
    let levels: usize = args.get_or("levels", 5)?;
    let n = streams[0].len();
    let r_max = streams.iter().flatten().chain(query.iter()).fold(1.0f64, |a, &b| a.max(b.abs()));
    let cfg =
        Config::batch(base, levels, 4.min(base), r_max).with_history(n.max(base << (levels - 1)));
    let mut engine = Stardust::new(cfg, streams.len());
    for i in 0..n {
        for (s, col) in streams.iter().enumerate() {
            engine.append(s as u32, col[i]);
        }
    }
    let q = PatternQuery { sequence: query, radius };
    let ans = pattern::query_batch(&engine, &q).map_err(|e| e.to_string())?;
    let mut out = String::from("stream,end_row,distance\n");
    let precision = ans.precision();
    let n_candidates = ans.candidates.len();
    let mut matches = ans.matches;
    matches.sort_by_key(|a| (a.stream, a.end_time));
    for m in &matches {
        out.push_str(&format!("{},{},{:.5}\n", m.stream, m.end_time, m.distance));
    }
    out.push_str(&format!(
        "# {} candidates, {} matches, precision {:.3}\n",
        n_candidates,
        matches.len(),
        precision
    ));
    Ok(out)
}

fn run_correlate(args: &Args, input: &str) -> Result<String, String> {
    let streams = read_columns(input)?;
    if streams.len() < 2 {
        return Err("correlate needs at least two stream columns".into());
    }
    let base: usize = args.get_or("base", 16)?;
    let levels: usize = args.get_or("levels", 5)?;
    let min_corr: f64 = args.get_or("min-corr", 0.9)?;
    let f: usize = args.get_or("coeffs", 4)?;
    let lag: usize = args.get_or("lag", 1)?;
    if !(-1.0..=1.0).contains(&min_corr) {
        return Err("--min-corr must be in [-1, 1]".into());
    }
    let radius = stardust_core::normalize::correlation_to_distance(min_corr);
    let mut monitor = CorrelationMonitor::new(base, levels, f, radius, streams.len());
    if lag > 1 {
        monitor = monitor.with_lag_periods(lag);
    }
    let n = streams[0].len();
    let mut out = String::from("row,stream_a,stream_b,lag,correlation\n");
    for i in 0..n {
        for (s, col) in streams.iter().enumerate() {
            for p in monitor.append(s as u32, col[i]) {
                if let Some(corr) = p.correlation {
                    if corr >= min_corr {
                        out.push_str(&format!(
                            "{},{},{},{},{:.4}\n",
                            i,
                            p.a,
                            p.b,
                            p.time - p.time_other,
                            corr
                        ));
                    }
                }
            }
        }
    }
    let st = monitor.stats();
    out.push_str(&format!(
        "# {} reported, {} confirmed, precision {:.3}\n",
        st.reported,
        st.true_pairs,
        st.precision()
    ));
    Ok(out)
}

/// Workload for the runtime subcommands: CSV columns when given, the
/// paper's random-walk model otherwise.
fn workload_from_args(
    args: &Args,
    input: &str,
    default_streams: usize,
) -> Result<Vec<Vec<f64>>, String> {
    if input.trim().is_empty() {
        let m: usize = args.get_or("streams", default_streams)?;
        let n: usize = args.get_or("values", 2048)?;
        let seed: u64 = args.get_or("seed", 42)?;
        if m == 0 || n == 0 {
            return Err("--streams and --values must be positive".into());
        }
        Ok(stardust_datagen::random_walk_streams(seed, m, n))
    } else {
        read_columns(input)
    }
}

/// The aggregate class of the runtime subcommands monitors one window
/// of `AGG_WINDOW_FACTOR·W` with box capacity [`AGG_BOX_CAPACITY`];
/// `metrics` feeds the same constants into the Eq. 7 monitoring-ratio
/// model, so keep them in one place.
const AGG_WINDOW_FACTOR: usize = 2;
/// Box capacity `c` of the runtime subcommands' aggregate class.
const AGG_BOX_CAPACITY: usize = 4;

/// Builds a runtime `MonitorSpec` from the shared
/// `--base/--levels/--min-corr/--lambda/--classes` flags over `streams`
/// (used by `serve-bench`, `metrics`, and `chaos`).
fn monitor_spec_from_args(
    args: &Args,
    streams: &[Vec<f64>],
) -> Result<stardust_runtime::MonitorSpec, String> {
    use stardust_runtime::{AggregateSpec, CorrelationSpec, MonitorSpec, TrendPattern, TrendSpec};

    let base: usize = args.get_or("base", 16)?;
    let levels: usize = args.get_or("levels", 3)?;
    let min_corr: f64 = args.get_or("min-corr", 0.9)?;
    let lambda: f64 = args.get_or("lambda", 6.0)?;
    let radius: f64 = args.get_or("radius", 0.05)?;
    if base == 0 || !base.is_power_of_two() || levels == 0 {
        return Err("--base must be a positive power of two and --levels positive".into());
    }
    if !(-1.0..=1.0).contains(&min_corr) {
        return Err("--min-corr must be in [-1, 1]".into());
    }
    let n = streams[0].len();
    let r_max = streams.iter().flatten().fold(1.0f64, |a, &b| a.max(b.abs()));

    let mut spec = MonitorSpec::new(base, levels, r_max);
    for class in args.get("classes").unwrap_or("agg,corr").split(',') {
        match class.trim() {
            "agg" => {
                // Thresholds trained on each stream's prefix, like `burst`.
                let window = AGG_WINDOW_FACTOR * base;
                let train = (n / 4).max(window + 1).min(n);
                let threshold = train_threshold(&streams[0][..train], window, lambda, |w| {
                    w.iter().sum::<f64>()
                })
                .ok_or("input too short to train an aggregate threshold")?;
                spec = spec.with_aggregates(AggregateSpec {
                    transform: TransformKind::Sum,
                    windows: vec![WindowSpec { window, threshold }],
                    box_capacity: AGG_BOX_CAPACITY,
                });
            }
            "corr" => {
                let corr_radius = stardust_core::normalize::correlation_to_distance(min_corr);
                spec = spec.with_correlations(CorrelationSpec { coeffs: 4, radius: corr_radius });
            }
            "trend" => {
                // The registered pattern is a window cut from the first
                // stream, like the `trend` subcommand run against its
                // own input — guaranteed to have at least one match.
                let window = AGG_WINDOW_FACTOR * base;
                if n < 8 + window {
                    return Err(format!(
                        "input too short to cut a trend pattern ({n} values, need {})",
                        8 + window
                    ));
                }
                spec = spec.with_trends(TrendSpec {
                    coeffs: 4,
                    box_capacity: AGG_BOX_CAPACITY,
                    patterns: vec![TrendPattern {
                        sequence: streams[0][8..8 + window].to_vec(),
                        radius,
                    }],
                });
            }
            other => return Err(format!("unknown class '{other}' (agg|corr|trend)")),
        }
    }
    Ok(spec)
}

/// Formats an `f64` as a JSON number (non-finite values become 0, which
/// JSON cannot represent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median wall time of `reps` runs of `f`, in nanoseconds (std-only
/// micro-measurement for the machine-readable bench report; criterion's
/// stdout is not machine-parseable).
fn micro_median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = std::time::Instant::now();
        f();
        samples.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    samples.sort_unstable();
    samples[reps / 2]
}

/// Index and rebuild micro-benchmarks for the `stardust-bench/v1` report:
/// total ns to insert `n_items` random 8-d rects one at a time, ns for 100
/// range queries, and the tree-rebuild cost via STR bulk load vs
/// incremental replay (the crash-recovery comparison the CI gate watches).
fn index_micro_bench(n_items: usize) -> (u64, u64, u64, u64) {
    use stardust_index::{bulk_load, Params, RStarTree, Rect};

    const DIMS: usize = 8;
    const REPS: usize = 5;
    // splitmix64, matching the criterion index bench's data shape.
    let mut state = 99u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let items: Vec<(Rect, u64)> = (0..n_items)
        .map(|i| {
            let lo: Vec<f64> = (0..DIMS).map(|_| rng() * 100.0).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng() * 2.0).collect();
            (Rect::new(lo, hi), i as u64)
        })
        .collect();
    let queries: Vec<Rect> = (0..100)
        .map(|_| {
            let lo: Vec<f64> = (0..DIMS).map(|_| rng() * 90.0).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + 10.0).collect();
            Rect::new(lo, hi)
        })
        .collect();

    let insert_ns = micro_median_ns(REPS, || {
        let mut tree = RStarTree::with_params(DIMS, Params::default());
        for (r, v) in &items {
            tree.insert(r.clone(), *v);
        }
        std::hint::black_box(tree.len());
    });
    let mut tree = RStarTree::with_params(DIMS, Params::default());
    for (r, v) in &items {
        tree.insert(r.clone(), *v);
    }
    let query_ns = micro_median_ns(REPS, || {
        let mut hits = 0usize;
        for q in &queries {
            tree.search_intersecting(q, |_, _| hits += 1);
        }
        std::hint::black_box(hits);
    });
    let rebuild_bulk_ns = micro_median_ns(REPS, || {
        let t = bulk_load(DIMS, Params::default(), items.clone());
        std::hint::black_box(t.len());
    });
    let rebuild_replay_ns = micro_median_ns(REPS, || {
        let mut t = RStarTree::with_params(DIMS, Params::default());
        for (r, v) in &items {
            t.insert(r.clone(), *v);
        }
        std::hint::black_box(t.len());
    });
    (insert_ns, query_ns, rebuild_bulk_ns, rebuild_replay_ns)
}

/// Persistence micro-timings for the `stardust-bench/v1` report: the
/// per-append cost of ingesting the workload through a durably
/// persisted runtime (`SyncPolicy::EveryN(64)`), and the wall time to
/// reopen the directory after a `crash()` — WAL scan, checksum
/// validation, and replay included. Returns
/// `(wal_append_ns, recovery_ns, recovered_appends)`.
fn persistence_micro_bench(
    spec: &stardust_runtime::MonitorSpec,
    streams: &[Vec<f64>],
    shards: usize,
    queue: usize,
    batch_rows: usize,
) -> Result<(u64, u64, u64), String> {
    use stardust_runtime::{Batch, PersistConfig, RuntimeConfig, ShardedRuntime, SyncPolicy};

    let m = streams.len();
    let n = streams[0].len();
    let dir = std::env::temp_dir().join(format!("stardust-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || RuntimeConfig { shards, queue_capacity: queue, ..RuntimeConfig::default() };
    let persist = || PersistConfig::new(&dir).sync(SyncPolicy::EveryN(64));

    let (rt, _) = ShardedRuntime::open(spec, m, config(), persist()).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let mut row = 0;
    while row < n {
        let rows = batch_rows.min(n - row);
        let batch: Batch = (row..row + rows)
            .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
            .collect();
        rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
        row += rows;
    }
    // Scatter-gather barrier: every batch above is journaled and
    // applied before the clock stops.
    rt.class_stats().map_err(|e| e.to_string())?;
    let total = (m * n) as u64;
    let wal_append_ns = (started.elapsed().as_nanos() / total.max(1) as u128) as u64;
    drop(rt.crash());

    let started = std::time::Instant::now();
    let (rt, report) =
        ShardedRuntime::open(spec, m, config(), persist()).map_err(|e| e.to_string())?;
    let recovery_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let recovered_appends = report.total_durable_appends();
    drop(rt.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
    Ok((wal_append_ns, recovery_ns, recovered_appends))
}

/// Durable group-commit ingest: the serve-bench workload through a
/// persisted runtime under `SyncPolicy::Always`, where every commit
/// group pays exactly one fsync. Returns (values/s, batches-per-group
/// p50, coalesced WAL group writes) — the numbers the CI gate uses to
/// hold the group-commit win.
fn durable_ingest_bench(
    spec: &stardust_runtime::MonitorSpec,
    streams: &[Vec<f64>],
    shards: usize,
    queue: usize,
    batch_rows: usize,
) -> Result<(f64, u64, u64), String> {
    use stardust_runtime::{Batch, PersistConfig, RuntimeConfig, ShardedRuntime, SyncPolicy};
    use stardust_telemetry::Registry;

    let m = streams.len();
    let n = streams[0].len();
    let dir = std::env::temp_dir().join(format!("stardust-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::new();
    let config = RuntimeConfig {
        shards,
        queue_capacity: queue,
        telemetry: Some(registry.clone()),
        ..RuntimeConfig::default()
    };
    let persist = PersistConfig::new(&dir).sync(SyncPolicy::Always);

    let (rt, _) = ShardedRuntime::open(spec, m, config, persist).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let mut row = 0;
    while row < n {
        let rows = batch_rows.min(n - row);
        let batch: Batch = (row..row + rows)
            .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
            .collect();
        rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
        row += rows;
    }
    // Scatter-gather barrier: every batch above is journaled, fsynced,
    // and applied before the clock stops.
    rt.class_stats().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    drop(rt.shutdown());
    let _ = std::fs::remove_dir_all(&dir);

    let total = (m * n) as u64;
    let rate = total as f64 / elapsed.as_secs_f64();
    let group_p50 =
        registry.histogram("stardust_runtime_group_size", "").quantile(0.5).unwrap_or(0);
    let group_writes = registry.counter("stardust_persist_wal_group_writes_total", "").get();
    Ok((rate, group_p50, group_writes))
}

/// Cross-shard correlation audit for the report's `cross_corr` section.
struct CrossCorrBench {
    /// Correlated pairs in the final result.
    pairs: u64,
    /// Cross-shard pairs the collector considered (candidates + pruned).
    considered: u64,
    /// Pairs that survived the sketch prune into exact verification.
    candidates: u64,
    /// Pairs dismissed by the sketch distance lower bound.
    pruned: u64,
    /// Verified candidates that were genuinely within the radius.
    confirmed: u64,
    /// Sketch publications absorbed by the collector board.
    exchanges: u64,
    /// `confirmed / candidates` — how selective the prune filter is.
    prune_precision: f64,
    /// Fraction of ground-truth pairs the sharded path reported (the
    /// no-false-dismissal bound says this is exactly 1).
    prune_recall: f64,
    /// Ground-truth pairs missing from the sharded result.
    false_dismissals: u64,
    /// Median latency of the pulled cross-shard query over drained queues.
    query_p50_ns: u64,
}

/// Runs a phase-structured workload with planted correlated pairs at
/// four shards, audits the sketch-prune funnel against a single-monitor
/// linear scan, and times the pulled `correlated_pairs` query. A false
/// dismissal is a correctness bug, not a slow run, so it fails the
/// command rather than just skewing a number.
fn cross_corr_micro_bench(query_iters: usize) -> Result<CrossCorrBench, String> {
    use stardust_runtime::{Batch, CorrelationSpec, MonitorSpec, RuntimeConfig, ShardedRuntime};

    const BASE_WINDOW: usize = 8;
    const LEVELS: usize = 3;
    const WINDOW: usize = BASE_WINDOW << (LEVELS - 1);
    const M: usize = 8;
    const SHARDS: usize = 4;
    /// Block-aligned with the default sketch block so the final sketches
    /// end exactly at the query clock and the prune path is live.
    const N: usize = 160;
    const RADIUS: f64 = 0.5;

    // Sinusoids one period per correlation window: streams sharing a
    // phase correlate, the rest sit far outside the radius, and the
    // block averages resolve the waveform so the prune has teeth. Both
    // planted pairs are cross-shard under `g mod 4`.
    let phases = [0.0, 0.0, 2.1, 2.1, 0.9, 2.9, 4.2, 5.1];
    let mut state = 0xB0B5u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let streams: Vec<Vec<f64>> = phases
        .iter()
        .enumerate()
        .map(|(i, &phase)| {
            let mean = 30.0 + 4.0 * i as f64;
            (0..N)
                .map(|t| {
                    let cycle = 2.0 * std::f64::consts::PI * t as f64 / WINDOW as f64;
                    mean * (1.0 + 0.2 * (cycle + phase).sin() + 0.004 * rng())
                })
                .collect()
        })
        .collect();
    let r_max = streams.iter().flatten().fold(1.0f64, |m, &x| m.max(x.abs()));
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: RADIUS });

    // Ground truth: single monitor, linear scan over every pair.
    let want = {
        let mut monitor = spec.build(M).map_err(|e| e.to_string())?.ok_or("no correlation")?;
        for t in 0..N {
            for (s, stream) in streams.iter().enumerate() {
                monitor.append(s as u32, stream[t]);
            }
        }
        monitor.correlation_monitor().ok_or("no correlation")?.linear_scan_pairs(N as u64 - 1)
    };

    let rt = ShardedRuntime::launch(
        &spec,
        M,
        RuntimeConfig { shards: SHARDS, queue_capacity: 64, ..RuntimeConfig::default() },
    )
    .map_err(|e| e.to_string())?;
    for t in 0..N {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as u32, x[t])).collect();
        rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
    }
    let got = rt.correlated_pairs().map_err(|e| e.to_string())?;
    // Snapshot the funnel after exactly one query: the timing loop
    // below would otherwise multiply the counters.
    let stats = rt.cross_corr_stats();

    let hist = stardust_telemetry::Histogram::standalone(stardust_telemetry::duration_buckets_ns());
    for _ in 0..query_iters.max(1) {
        let span = hist.span();
        rt.correlated_pairs().map_err(|e| e.to_string())?;
        drop(span);
    }
    rt.shutdown();

    let false_dismissals = want.iter().filter(|p| !got.contains(p)).count() as u64;
    if false_dismissals > 0 {
        return Err(format!(
            "cross-corr audit FAILED: {false_dismissals} ground-truth pair(s) dismissed \
             ({want:?} expected, {got:?} reported)"
        ));
    }
    let prune_recall = if want.is_empty() {
        1.0
    } else {
        (want.len() as u64 - false_dismissals) as f64 / want.len() as f64
    };
    let prune_precision =
        if stats.candidates > 0 { stats.confirmed as f64 / stats.candidates as f64 } else { 1.0 };
    Ok(CrossCorrBench {
        pairs: got.len() as u64,
        considered: stats.candidates + stats.pruned,
        candidates: stats.candidates,
        pruned: stats.pruned,
        confirmed: stats.confirmed,
        exchanges: stats.exchanges,
        prune_precision,
        prune_recall,
        false_dismissals,
        query_p50_ns: hist.quantile(0.5).unwrap_or(0),
    })
}

/// Elastic-rebalancing recovery numbers for the report's `rebalance`
/// section.
struct RebalanceBench {
    /// Ingest rate with every group packed onto one hot worker.
    pre_rate: f64,
    /// Ingest rate after half the groups were split onto the spare.
    post_rate: f64,
    /// Hot-shard load relief: the hot worker's share of ingest before
    /// the split divided by its share after (2.0 when half the groups
    /// move off). The CI gate holds this at >= 1.2 — an online split
    /// must actually relieve the hot shard. Load shares come from the
    /// exact per-shard append counters, so the ratio is deterministic
    /// where wall-clock throughput on a shared CI core is not.
    recovery_ratio: f64,
    /// Group migrations the split performed.
    migrations: u64,
    /// Median end-to-end migration latency (freeze to promote).
    migration_ms_p50: u64,
}

/// One deliberately hot primary worker (plus an idle spare) ingests a
/// correlation-heavy workload; halfway through, half of its stream
/// groups are split onto the spare under live ingest and the clock
/// restarts. The interesting number is how much of the hot shard's
/// load the online split sheds without stopping the stream.
fn rebalance_micro_bench(batch_rows: usize) -> Result<RebalanceBench, String> {
    use stardust_runtime::{
        Batch, CorrelationSpec, MonitorSpec, RecoveryPolicy, RuntimeConfig, ShardedRuntime,
    };
    use stardust_telemetry::Registry;

    const M: usize = 16;
    const N: usize = 4096;

    let streams = stardust_datagen::random_walk_streams(0xE1A5, M, N);
    let r_max = streams.iter().flatten().fold(1.0f64, |acc, &x| acc.max(x.abs()));
    let spec = MonitorSpec::new(32, 5, r_max)
        .with_correlations(CorrelationSpec { coeffs: 31, radius: 0.25 });

    let registry = Registry::new();
    let rt = ShardedRuntime::launch(
        &spec,
        M,
        RuntimeConfig {
            shards: 1,
            groups: 4,
            spare_shards: 1,
            queue_capacity: 32,
            recovery: Some(RecoveryPolicy { snapshot_every: 64 }),
            telemetry: Some(registry.clone()),
            ..RuntimeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    // Per-phase ingest rate plus the hot slot's appends over the phase.
    let phase = |lo: usize, hi: usize| -> Result<(f64, u64), String> {
        let before = rt.stats().shards[0].appends;
        let started = std::time::Instant::now();
        let mut row = lo;
        while row < hi {
            let rows = batch_rows.min(hi - row);
            let batch: Batch = (row..row + rows)
                .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
                .collect();
            rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
            row += rows;
        }
        // Scatter-gather barrier: every batch above is applied before
        // the clock stops (and any in-flight adoption has landed, so
        // the counter transfer is settled).
        rt.class_stats().map_err(|e| e.to_string())?;
        let rate = (M * (hi - lo)) as f64 / started.elapsed().as_secs_f64();
        Ok((rate, rt.stats().shards[0].appends - before))
    };

    let (pre_rate, pre_hot) = phase(0, N / 2)?;
    rt.split_shard(0, 1, &[1, 3]).map_err(|e| format!("bench split failed: {e}"))?;
    // Barrier between split and the post phase: the adoption's counter
    // transfer must not be misread as phase-2 hot-shard load.
    rt.class_stats().map_err(|e| e.to_string())?;
    let (post_rate, post_hot) = phase(N / 2, N)?;
    let stats = rt.stats();
    rt.shutdown();

    let phase_total = (M * N / 2) as f64;
    let pre_share = pre_hot as f64 / phase_total;
    let post_share = post_hot as f64 / phase_total;
    Ok(RebalanceBench {
        pre_rate,
        post_rate,
        recovery_ratio: if post_share > 0.0 { pre_share / post_share } else { 0.0 },
        migrations: stats.migrations,
        migration_ms_p50: registry
            .histogram("stardust_runtime_migration_ms", "")
            .quantile(0.5)
            .unwrap_or(0),
    })
}

fn run_serve_bench(args: &Args, input: &str) -> Result<String, String> {
    use stardust_runtime::{Batch, RuntimeConfig, ShardedRuntime};
    use stardust_telemetry::Registry;

    let shards: usize = args.get_or("shards", 0)?;
    let queue: usize = args.get_or("queue", 64)?;
    let batch_rows: usize = args.get_or("batch", 16)?;
    let query_iters: usize = args.get_or("query-iters", 32)?;
    let query_threads: usize = args.get_or("query-threads", 1)?;

    let streams = workload_from_args(args, input, 64)?;
    let m = streams.len();
    let n = streams[0].len();
    let spec = monitor_spec_from_args(args, &streams)?;

    let registry = Registry::new();
    let rt = ShardedRuntime::launch(
        &spec,
        m,
        RuntimeConfig {
            shards,
            queue_capacity: queue,
            intra_query_threads: query_threads,
            telemetry: Some(registry.clone()),
            ..RuntimeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let n_shards = rt.n_shards();

    let started = std::time::Instant::now();
    let mut events = 0u64;
    let mut row = 0;
    while row < n {
        let rows = batch_rows.min(n - row);
        let batch: Batch = (row..row + rows)
            .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
            .collect();
        rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
        events += rt.drain_events().len() as u64;
        row += rows;
    }
    // Queries ride the shard queues, so this scatter-gather doubles as a
    // drain barrier: once it answers, every batch above is processed and
    // the ingest clock stops.
    rt.class_stats().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();

    // Query-latency phase: repeated scatter-gather over drained queues.
    let query_hist =
        stardust_telemetry::Histogram::standalone(stardust_telemetry::duration_buckets_ns());
    for _ in 0..query_iters {
        let span = query_hist.span();
        rt.class_stats().map_err(|e| e.to_string())?;
        drop(span);
    }
    let query = query_hist.snapshot();

    let report = rt.shutdown();
    events += report.events.len() as u64;
    report.stats.export(&registry);

    let total = (m * n) as u64;
    let rate = total as f64 / elapsed.as_secs_f64();
    let mut out = String::new();
    out.push_str(&format!(
        "# {m} streams x {n} values, {n_shards} shard(s), queue {queue}, batch {batch_rows} row(s)\n"
    ));
    out.push_str(&format!(
        "ingested {total} values in {:.3}s: {:.0} values/s, {events} event(s)\n",
        elapsed.as_secs_f64(),
        rate,
    ));
    out.push_str(&format!(
        "query latency over {query_iters} scatter-gather round(s): p50 {}ns, p95 {}ns\n",
        query.p50.unwrap_or(0),
        query.p95.unwrap_or(0),
    ));
    out.push_str(&report.stats.render());

    if let Some(path) = args.get("emit-bench") {
        // Standalone index/rebuild micro-benchmarks: criterion output is
        // stdout-only, so the machine-readable report carries its own
        // timings for the CI gate's index and maintenance checks.
        let micro_items: usize = args.get_or("micro-items", 2000)?;
        let (insert_ns, query_ns, rebuild_bulk_ns, rebuild_replay_ns) =
            index_micro_bench(micro_items);
        let rebuild_speedup = if rebuild_bulk_ns > 0 {
            rebuild_replay_ns as f64 / rebuild_bulk_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "index micro ({micro_items} items): insert {insert_ns}ns, 100 queries {query_ns}ns, \
             rebuild bulk {rebuild_bulk_ns}ns vs replay {rebuild_replay_ns}ns ({rebuild_speedup:.2}x)\n"
        ));
        let (wal_append_ns, recovery_ns, recovered_appends) =
            persistence_micro_bench(&spec, &streams, shards, queue, batch_rows)?;
        out.push_str(&format!(
            "persistence micro: WAL append {wal_append_ns}ns/append (EveryN(64)), \
             recovery of {recovered_appends} append(s) in {recovery_ns}ns\n"
        ));
        // Durable group-commit phase: the same workload under
        // SyncPolicy::Always, where the coalesced write + single fsync
        // per commit group is what makes the rate.
        let (durable_rate, group_size_p50, wal_group_writes) =
            durable_ingest_bench(&spec, &streams, shards, queue, batch_rows)?;
        out.push_str(&format!(
            "durable ingest (SyncPolicy::Always): {durable_rate:.0} values/s, \
             group p50 {group_size_p50} batch(es), {wal_group_writes} coalesced WAL write(s)\n"
        ));
        // Socket-level load: the same self-hosted fleet CI's serve job
        // drives, with the zero-loss/zero-duplication event audit. An
        // audit failure is a correctness bug, not a slow run, so it
        // fails the command rather than just skewing a number.
        let server_clients: usize = args.get_or("server-clients", 32)?;
        let server_values: usize = args.get_or("server-values", 1024)?;
        let load = stardust_bench::server_load::run_self_hosted(
            &stardust_bench::server_load::LoadConfig {
                clients: server_clients,
                values_per_client: server_values,
                shards,
                ..Default::default()
            },
        );
        if load.audit_ok != Some(true) {
            return Err("server load audit FAILED: socket ingest lost or duplicated events".into());
        }
        out.push_str(&format!(
            "server load: {} client(s) x {} value(s): {:.0} values/s, \
             append p50 {}ns p99 {}ns, {} busy repl(ies), audit ok ({} events)\n",
            load.clients,
            server_values,
            load.throughput_values_per_s,
            load.append_p50_ns,
            load.append_p99_ns,
            load.busy_replies,
            load.audit_events,
        ));
        // Cross-shard correlation audit: sketch-prune funnel vs a
        // single-monitor linear scan. A false dismissal fails the
        // command inside the helper.
        let cc = cross_corr_micro_bench(query_iters)?;
        out.push_str(&format!(
            "cross-corr: {} pair(s), {} cross-shard considered ({} pruned, {} verified, \
             {} confirmed), precision {:.3}, recall {:.3}, query p50 {}ns, {} exchange(s)\n",
            cc.pairs,
            cc.considered,
            cc.pruned,
            cc.candidates,
            cc.confirmed,
            cc.prune_precision,
            cc.prune_recall,
            cc.query_p50_ns,
            cc.exchanges,
        ));
        // Elastic-rebalancing recovery: an online split of a hot shard
        // must win back throughput under live ingest; the gate holds
        // the recovery ratio.
        let rb = rebalance_micro_bench(batch_rows)?;
        out.push_str(&format!(
            "rebalance: hot-shard load relief {:.2}x ({} migration(s), p50 {}ms), \
             pre-split {:.0} values/s, post-split {:.0} values/s\n",
            rb.recovery_ratio, rb.migrations, rb.migration_ms_p50, rb.pre_rate, rb.post_rate,
        ));
        let json = format!(
            concat!(
                "{{\"schema\":\"stardust-bench/v1\",",
                "\"config\":{{\"batch_rows\":{},\"queue\":{},\"shards\":{},",
                "\"streams\":{},\"values\":{}}},",
                "\"ingest\":{{\"durable_throughput_values_per_s\":{},",
                "\"elapsed_s\":{},\"events\":{},\"group_size_p50\":{},",
                "\"throughput_values_per_s\":{},\"values\":{},",
                "\"wal_group_writes\":{}}},",
                "\"query\":{{\"iterations\":{},\"p50_ns\":{},\"p95_ns\":{}}},",
                "\"index\":{{\"insert_ns\":{},\"items\":{},\"query_ns\":{}}},",
                "\"maintenance\":{{\"rebuild_bulk_ns\":{},\"rebuild_replay_ns\":{},",
                "\"rebuild_speedup\":{}}},",
                "\"persistence\":{{\"recovered_appends\":{},\"recovery_ns\":{},",
                "\"wal_append_ns\":{}}},",
                "\"server\":{{\"append_p50_ns\":{},\"append_p95_ns\":{},",
                "\"append_p99_ns\":{},\"audit_events\":{},\"busy_replies\":{},",
                "\"clients\":{},\"elapsed_s\":{},",
                "\"throughput_values_per_s\":{},\"values\":{}}},",
                "\"cross_corr\":{{\"candidates\":{},\"confirmed\":{},",
                "\"considered\":{},\"exchanges\":{},\"false_dismissals\":{},",
                "\"pairs\":{},\"prune_precision\":{},\"prune_recall\":{},",
                "\"pruned\":{},\"query_p50_ns\":{}}},",
                "\"rebalance\":{{\"migration_ms_p50\":{},\"migrations\":{},",
                "\"recovery_ratio\":{},\"throughput_post_split_values_per_s\":{},",
                "\"throughput_pre_split_values_per_s\":{}}},",
                "\"metrics\":{}}}\n"
            ),
            batch_rows,
            queue,
            n_shards,
            m,
            n,
            json_num(durable_rate),
            json_num(elapsed.as_secs_f64()),
            events,
            group_size_p50,
            json_num(rate),
            total,
            wal_group_writes,
            query_iters,
            query.p50.unwrap_or(0),
            query.p95.unwrap_or(0),
            insert_ns,
            micro_items,
            query_ns,
            rebuild_bulk_ns,
            rebuild_replay_ns,
            json_num(rebuild_speedup),
            recovered_appends,
            recovery_ns,
            wal_append_ns,
            load.append_p50_ns,
            load.append_p95_ns,
            load.append_p99_ns,
            load.audit_events,
            load.busy_replies,
            load.clients,
            json_num(load.elapsed_s),
            json_num(load.throughput_values_per_s),
            load.values,
            cc.candidates,
            cc.confirmed,
            cc.considered,
            cc.exchanges,
            cc.false_dismissals,
            cc.pairs,
            json_num(cc.prune_precision),
            json_num(cc.prune_recall),
            cc.pruned,
            cc.query_p50_ns,
            rb.migration_ms_p50,
            rb.migrations,
            json_num(rb.recovery_ratio),
            json_num(rb.post_rate),
            json_num(rb.pre_rate),
            registry.render_json(),
        );
        std::fs::write(path, &json)
            .map_err(|e| format!("cannot write bench report '{path}': {e}"))?;
        out.push_str(&format!("wrote bench report to {path}\n"));
    }
    Ok(out)
}

/// Parses `--tenants name:token:streams:rate,...` into tenant configs
/// (`rate` 0 means unlimited appends/s).
fn parse_tenants(s: &str) -> Result<Vec<stardust_server::TenantConfig>, String> {
    s.split(',')
        .map(|part| {
            let fields: Vec<&str> = part.trim().split(':').collect();
            let [name, token, streams, rate] = fields.as_slice() else {
                return Err(format!("bad tenant '{part}': expected name:token:streams:rate"));
            };
            Ok(stardust_server::TenantConfig {
                name: name.to_string(),
                token: token.to_string(),
                streams: streams
                    .parse()
                    .map_err(|_| format!("tenant '{name}': bad stream count '{streams}'"))?,
                append_rate: rate
                    .parse()
                    .map_err(|_| format!("tenant '{name}': bad append rate '{rate}'"))?,
            })
        })
        .collect()
}

/// The `stardust serve` subcommand: a long-running multi-client TCP
/// server over the sharded runtime. Thresholds are trained on the
/// given CSV (or a seeded random-walk workload), then the server
/// accepts tenant-authenticated clients until `--max-seconds` elapses
/// or the process is killed. Admission control maps full shard queues
/// to typed `Busy` replies; `--dir` makes ingest durable and recovers
/// it on restart.
fn run_serve(args: &Args, input: &str) -> Result<String, String> {
    use stardust_runtime::{PersistConfig, RuntimeConfig, ShardedRuntime};
    use stardust_server::{Server, ServerConfig, TenantConfig};
    use stardust_telemetry::Registry;

    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let shards: usize = args.get_or("shards", 0)?;
    let queue: usize = args.get_or("queue", 64)?;
    let max_seconds: f64 = args.get_or("max-seconds", 0.0)?;
    let idle_seconds: u64 = args.get_or("idle-seconds", 60)?;
    let max_conns: usize = args.get_or("max-conns", 256)?;
    let token = args.get("token").unwrap_or("stardust-dev").to_string();
    let rate: u64 = args.get_or("rate", 0)?;
    let tenants = args.get("tenants").map(parse_tenants).transpose()?;

    // Threshold-training workload: the spec the live server monitors is
    // calibrated on this data, exactly like `serve-bench`. With
    // `--tenants` and no explicit `--streams`, the tenant layout
    // defines the stream count.
    let streams = if input.trim().is_empty() {
        let m: usize = match (&tenants, args.get("streams")) {
            (Some(t), None) => t.iter().map(|t| t.streams as usize).sum(),
            _ => args.get_or("streams", 16)?,
        };
        let n: usize = args.get_or("values", 2048)?;
        let seed: u64 = args.get_or("seed", 42)?;
        if m == 0 || n == 0 {
            return Err("--streams and --values must be positive".into());
        }
        stardust_datagen::random_walk_streams(seed, m, n)
    } else {
        read_columns(input)?
    };
    let m = streams.len();
    let spec = monitor_spec_from_args(args, &streams)?;
    let tenants = tenants.unwrap_or_else(|| {
        vec![TenantConfig { name: "default".into(), token, streams: m as u32, append_rate: rate }]
    });
    let declared: usize = tenants.iter().map(|t| t.streams as usize).sum();
    if declared != m {
        return Err(format!(
            "tenant stream counts sum to {declared}, but the training workload \
             defines {m} stream(s)"
        ));
    }

    let registry = Registry::new();
    let config = RuntimeConfig {
        shards,
        queue_capacity: queue,
        telemetry: Some(registry.clone()),
        ..RuntimeConfig::default()
    };
    let (rt, recovered) = match args.get("dir") {
        Some(dir) => {
            let (rt, report) = ShardedRuntime::open(&spec, m, config, PersistConfig::new(dir))
                .map_err(|e| e.to_string())?;
            (rt, Some(report.total_durable_appends()))
        }
        None => (ShardedRuntime::launch(&spec, m, config).map_err(|e| e.to_string())?, None),
    };

    let server = Server::start(
        addr,
        rt,
        tenants.clone(),
        ServerConfig {
            max_connections: max_conns,
            idle_timeout: std::time::Duration::from_secs(idle_seconds.max(1)),
            ..ServerConfig::default()
        },
        registry,
    )
    .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    let bound = server.local_addr();

    // The listening line goes straight to stdout, flushed, so scripts
    // can scrape the bound port before the first client connects.
    println!("stardust serve listening on {bound} ({m} stream(s), {} tenant(s))", tenants.len());
    for t in &tenants {
        let rate = if t.append_rate == 0 {
            "unlimited rate".to_string()
        } else {
            format!("{} appends/s", t.append_rate)
        };
        println!("  tenant {}: {} stream(s), {rate}", t.name, t.streams);
    }
    if let Some(n) = recovered {
        println!("  recovered {n} durable append(s) from {}", args.get("dir").unwrap_or("?"));
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, bound.to_string())
            .map_err(|e| format!("cannot write --addr-file '{path}': {e}"))?;
    }

    if max_seconds > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(max_seconds));
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let report = server.shutdown();
    Ok(format!(
        "drained: {} append(s) admitted, {} event(s) delivered\n",
        report.stats.total_appends(),
        report.events.len(),
    ))
}

fn run_metrics(args: &Args, input: &str) -> Result<String, String> {
    use stardust_core::query::aggregate::analysis;
    use stardust_runtime::{Batch, RuntimeConfig, ShardedRuntime};
    use stardust_telemetry::Registry;

    let format = args.get("format").unwrap_or("prom");
    if format != "prom" && format != "json" {
        return Err(format!("unknown format '{format}' (prom|json)"));
    }
    let shards: usize = args.get_or("shards", 1)?;
    let batch_rows: usize = args.get_or("batch", 16)?;
    let base: usize = args.get_or("base", 16)?;
    let lambda: f64 = args.get_or("lambda", 6.0)?;

    let streams = workload_from_args(args, input, 16)?;
    let m = streams.len();
    let n = streams[0].len();
    let spec = monitor_spec_from_args(args, &streams)?;

    let registry = Registry::new();
    let rt = ShardedRuntime::launch(
        &spec,
        m,
        RuntimeConfig { shards, telemetry: Some(registry.clone()), ..RuntimeConfig::default() },
    )
    .map_err(|e| e.to_string())?;

    let mut row = 0;
    while row < n {
        let rows = batch_rows.min(n - row);
        let batch: Batch = (row..row + rows)
            .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
            .collect();
        rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
        row += rows;
    }
    let class = rt.class_stats().map_err(|e| e.to_string())?;
    let report = rt.shutdown();
    report.stats.export(&registry);

    // Eq. 4-7 accounting for the aggregate class: the observed fraction
    // of checks whose composed upper bound crossed the threshold, next
    // to the rate the paper's model predicts for this configuration
    // (monitoring ratio T' of Eq. 7, design tail probability
    // p = 1 - Phi(lambda) from the trained threshold).
    if class.aggregate.checks > 0 {
        let p = 1.0 - stardust_core::stats::phi(lambda);
        let t_prime = analysis::stardust_t_prime(AGG_WINDOW_FACTOR as u64, AGG_BOX_CAPACITY, base);
        registry
            .gauge(
                "stardust_aggregate_candidate_rate_observed",
                "Observed fraction of aggregate checks whose upper bound crossed the threshold",
            )
            .set(class.aggregate.candidate_rate());
        registry
            .gauge(
                "stardust_aggregate_false_alarm_rate_observed",
                "Observed fraction of aggregate checks that raised a candidate refuted on raw data",
            )
            .set(
                (class.aggregate.candidates - class.aggregate.true_alarms) as f64
                    / class.aggregate.checks as f64,
            );
        registry
            .gauge(
                "stardust_aggregate_false_alarm_rate_predicted",
                "Eq. 6 false-alarm rate predicted for this monitoring ratio and tail probability",
            )
            .set(analysis::false_alarm_rate(t_prime, p));
        registry
            .gauge(
                "stardust_aggregate_monitoring_ratio",
                "Eq. 7 effective monitoring ratio T' of the aggregate class",
            )
            .set(t_prime);
    }

    match format {
        "prom" => Ok(registry.render_prometheus()),
        _ => Ok(registry.render_json()),
    }
}

/// Chaos drill: run the same workload twice through the sharded
/// runtime — once untouched, once with every shard worker killed
/// mid-ingest by a seeded fault plan — and audit that crash recovery
/// reproduced the unfaulted event set bit for bit.
fn run_chaos(args: &Args, input: &str) -> Result<String, String> {
    use stardust_runtime::{
        sort_events, Batch, FaultPlan, RecoveryPolicy, RuntimeConfig, RuntimeStats, ShardedRuntime,
    };
    use std::sync::Arc;

    let shards: usize = args.get_or("shards", 2)?;
    let queue: usize = args.get_or("queue", 32)?;
    let batch_rows: usize = args.get_or("batch", 16)?;
    let snapshot_every: u64 = args.get_or("snapshot-every", 64)?;
    let seed: u64 = args.get_or("seed", 42)?;
    if shards == 0 {
        return Err("--shards must be positive for a chaos drill".into());
    }

    let streams = workload_from_args(args, input, 32)?;
    let m = streams.len();
    let n = streams[0].len();
    if m < shards {
        return Err(format!("need at least one stream per shard ({m} streams, {shards} shards)"));
    }
    let spec = monitor_spec_from_args(args, &streams)?;

    // One kill per shard, each somewhere in [10%, 60%) of the fewest
    // appends any shard processes — strictly mid-ingest on every shard.
    let min_local = (0..shards).map(|s| (m - s).div_ceil(shards)).min().unwrap_or(1);
    let per_shard = (min_local * n) as u64;
    let lo = (per_shard / 10).max(1);
    let hi = (per_shard * 6 / 10).max(lo + 1);
    let plan = Arc::new(FaultPlan::seeded_kills(seed, shards, lo, hi));

    let run = |faults: Option<Arc<FaultPlan>>| -> Result<(Vec<_>, RuntimeStats), String> {
        let rt = ShardedRuntime::launch(
            &spec,
            m,
            RuntimeConfig {
                shards,
                queue_capacity: queue,
                recovery: Some(RecoveryPolicy { snapshot_every }),
                fault_plan: faults,
                ..RuntimeConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let mut row = 0;
        while row < n {
            let rows = batch_rows.min(n - row);
            let batch: Batch = (row..row + rows)
                .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
                .collect();
            rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
            row += rows;
        }
        let report = rt.shutdown();
        Ok((report.events, report.stats))
    };

    let (mut baseline, _) = run(None)?;
    let (mut chaotic, stats) = run(Some(Arc::clone(&plan)))?;
    sort_events(&mut baseline);
    sort_events(&mut chaotic);

    let mut out = String::new();
    out.push_str(&format!(
        "# chaos drill: {m} streams x {n} values, {shards} shard(s), \
         snapshot every {snapshot_every} append(s)\n"
    ));
    for f in plan.faults() {
        out.push_str(&format!("kill shard {} at its append #{}\n", f.shard, f.at_append));
    }
    out.push_str(&format!(
        "faults fired: {}/{}, worker restarts: {}\n",
        plan.fired_count(),
        shards,
        stats.total_restarts(),
    ));
    if chaotic != baseline {
        return Err(format!(
            "AUDIT FAILED: recovered run emitted {} event(s), unfaulted run {} — \
             crash recovery lost or duplicated events",
            chaotic.len(),
            baseline.len(),
        ));
    }
    out.push_str(&format!(
        "AUDIT OK: recovered event set bit-identical to the unfaulted run ({} event(s))\n",
        baseline.len(),
    ));
    out.push_str(&stats.render());
    Ok(out)
}

/// Disk-fault drill: for each disk-fault kind, run the persisted
/// runtime with that fault injected, kill the whole process
/// (`crash()`), reopen the directory, re-submit everything past each
/// shard's durable watermark, and audit the union of delivered events
/// against an unfaulted in-memory run.
///
/// Two of the four kinds can legally re-deliver a suffix of events:
/// a torn write or an at-rest WAL truncation may destroy the ack
/// records of events that already left the process, so exactly-once
/// degrades to at-least-once for that tail (see DESIGN.md
/// §Durability). Those drills audit the *deduplicated* union; the
/// failed-fsync and bit-flipped-snapshot drills lose no acks and are
/// audited bit-exact.
fn run_chaos_disk(args: &Args, input: &str) -> Result<String, String> {
    use stardust_runtime::{
        sort_events, Batch, DiskFaultKind, DiskFile, FaultPlan, PersistConfig, RecoveryPolicy,
        RuntimeConfig, RuntimeError, ShardedRuntime, SyncPolicy,
    };
    use std::sync::Arc;

    let shards: usize = args.get_or("shards", 2)?;
    let queue: usize = args.get_or("queue", 32)?;
    let batch_rows: usize = args.get_or("batch", 16)?;
    let snapshot_every: u64 = args.get_or("snapshot-every", 64)?;
    let sync_every: u64 = args.get_or("sync-every", 8)?;
    let torn_at: u64 = args.get_or("torn-at", 600)?;
    if shards == 0 || snapshot_every == 0 || sync_every == 0 {
        return Err("--shards, --snapshot-every, and --sync-every must be positive".into());
    }

    let streams = workload_from_args(args, input, 16)?;
    let m = streams.len();
    let n = streams[0].len();
    if m < shards {
        return Err(format!("need at least one stream per shard ({m} streams, {shards} shards)"));
    }
    let spec = monitor_spec_from_args(args, &streams)?;

    let base_dir = match args.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("stardust-chaos-disk-{}", std::process::id())),
    };

    // Unfaulted reference: the same workload through the in-memory
    // runtime. PR-tier determinism tests prove this equals a
    // single-threaded feed, so it is the drill's ground truth.
    let reference_rt = ShardedRuntime::launch(
        &spec,
        m,
        RuntimeConfig { shards, queue_capacity: queue, ..RuntimeConfig::default() },
    )
    .map_err(|e| e.to_string())?;
    let mut row = 0;
    while row < n {
        let rows = batch_rows.min(n - row);
        let batch: Batch = (row..row + rows)
            .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
            .collect();
        reference_rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
        row += rows;
    }
    let mut reference = reference_rt.shutdown().events;
    sort_events(&mut reference);

    // The append order each shard journals, so the post-recovery
    // re-submission can start exactly at the durable watermark.
    let shard_feeds: Vec<Vec<(u32, f64)>> = (0..shards)
        .map(|shard| {
            let mut feed = Vec::new();
            for t in 0..n {
                for (s, x) in streams.iter().enumerate() {
                    if s % shards == shard {
                        feed.push((s as u32, x[t]));
                    }
                }
            }
            feed
        })
        .collect();

    // (name, fault kind, fires at open time, audit modulo duplicates)
    let drills: [(&str, DiskFaultKind, bool, bool); 4] = [
        ("torn-write", DiskFaultKind::TornWrite { at_byte: torn_at }, false, true),
        ("failed-fsync", DiskFaultKind::FailFsync { nth: 1 }, false, false),
        (
            "bit-flip-snap",
            DiskFaultKind::BitFlip { file: DiskFile::Snapshot, at_byte: 40 },
            true,
            false,
        ),
        // Cut just past the 28-byte segment header: whatever records
        // the live segment holds at the kill are destroyed, however
        // short the segment is (offsets clamp into the file).
        ("truncate-wal", DiskFaultKind::TruncateWal { at_byte: 30 }, true, true),
    ];

    let mut out = String::new();
    out.push_str(&format!(
        "# chaos-disk drill: {m} streams x {n} values, {shards} shard(s), \
         snapshot every {snapshot_every} append(s), fsync every {sync_every} record(s)\n"
    ));
    for &(name, kind, at_open, dedup) in &drills {
        let dir = base_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Arc::new(FaultPlan::new().disk_fault(0, kind));
        let config = |faults: Option<Arc<FaultPlan>>| RuntimeConfig {
            shards,
            queue_capacity: queue,
            recovery: Some(RecoveryPolicy { snapshot_every }),
            fault_plan: faults,
            ..RuntimeConfig::default()
        };
        let persist = || PersistConfig::new(&dir).sync(SyncPolicy::EveryN(sync_every));

        // Phase 1: ingest under the fault (write-path faults fire here;
        // at-rest faults wait for the reopen), then kill the process.
        let live = if at_open { None } else { Some(Arc::clone(&plan)) };
        let (rt, _) = ShardedRuntime::open(&spec, m, config(live), persist())
            .map_err(|e| format!("{name}: open failed: {e}"))?;
        let mut events = Vec::new();
        let mut row = 0;
        while row < n {
            let rows = batch_rows.min(n - row);
            let batch: Batch = (row..row + rows)
                .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
                .collect();
            match rt.submit_blocking(&batch) {
                Ok(()) => {}
                // A wedged shard closes its queue mid-ingest; the rest
                // of the feed is re-submitted after recovery.
                Err(RuntimeError::Disconnected) => break,
                Err(e) => return Err(format!("{name}: ingest failed: {e}")),
            }
            events.extend(rt.drain_events());
            row += rows;
        }
        events.extend(rt.crash().events);

        // Phase 2: reopen (at-rest faults damage the files now), let
        // the replay re-deliver the unacked tail, then re-submit
        // everything past each shard's durable watermark.
        let open_faults = if at_open { Some(Arc::clone(&plan)) } else { None };
        let (rt, report) = ShardedRuntime::open(&spec, m, config(open_faults), persist())
            .map_err(|e| format!("{name}: recovery failed: {e}"))?;
        events.extend(rt.drain_events());
        for (shard, shard_report) in report.shards.iter().enumerate() {
            for &(stream, value) in &shard_feeds[shard][shard_report.durable_appends as usize..] {
                rt.append_blocking(stream, value)
                    .map_err(|e| format!("{name}: re-submission failed: {e}"))?;
            }
        }
        events.extend(rt.shutdown().events);
        sort_events(&mut events);
        if dedup {
            events.dedup();
        }

        let verdict = if events == reference { "AUDIT OK" } else { "AUDIT FAILED" };
        out.push_str(&format!(
            "{name:<14} fired {}/1, durable {}/{} append(s), replayed {}, \
             truncated {} byte(s), fallback {} — {verdict}{}\n",
            plan.fired_count(),
            report.total_durable_appends(),
            m * n,
            report.total_replayed(),
            report.total_truncated_bytes(),
            report.any_fallback(),
            if dedup { " (modulo re-delivered tail)" } else { "" },
        ));
        let _ = std::fs::remove_dir_all(&dir);
        if events != reference {
            return Err(format!(
                "{out}AUDIT FAILED: {name}: recovered {} event(s), unfaulted run {} — \
                 disk recovery lost or corrupted events",
                events.len(),
                reference.len(),
            ));
        }
    }
    if args.get("dir").is_none() {
        let _ = std::fs::remove_dir_all(&base_dir);
    }
    out.push_str(&format!(
        "AUDIT OK: all {} disk-fault drills recovered the unfaulted event set ({} event(s))\n",
        drills.len(),
        reference.len(),
    ));
    Ok(out)
}

/// Elastic rebalancing drill: prove that online shard split/merge is
/// invisible in the event stream — under live concurrent ingest
/// (phase B), under deterministic worker kills at migration protocol
/// steps (phase C), and across a whole-process crash mid-migration
/// recovered through `ShardedRuntime::open` (phase D). Every phase is
/// audited bit-for-bit against a never-resized baseline (phase A).
fn run_rebalance(args: &Args, input: &str) -> Result<String, String> {
    use stardust_runtime::{
        sort_events, Batch, FaultKind, FaultPlan, MigrationStep, PersistConfig, RecoveryPolicy,
        RuntimeConfig, ShardedRuntime, SyncPolicy,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let shards: usize = args.get_or("shards", 2)?;
    let queue: usize = args.get_or("queue", 32)?;
    let batch_rows: usize = args.get_or("batch", 16)?;
    let snapshot_every: u64 = args.get_or("snapshot-every", 64)?;
    if shards == 0 {
        return Err("--shards must be positive for a rebalance drill".into());
    }
    let streams = workload_from_args(args, input, 8)?;
    let m = streams.len();
    let n = streams[0].len();
    let groups: usize = args.get_or("groups", (2 * shards).min(m))?;
    if groups <= shards || groups > m {
        return Err(format!(
            "--groups must exceed --shards and not exceed the stream count \
             ({groups} groups, {shards} shards, {m} streams)"
        ));
    }
    let spec = monitor_spec_from_args(args, &streams)?;
    // The first slot past the primaries: idle until a split lands on it.
    let spare = shards;
    // Slot 0 owns groups {0, S, 2S, …} under `g mod S` placement; the
    // drill moves all of them (≥ 2, since groups > shards).
    let moving: Vec<usize> = (0..groups).filter(|&g| g % shards == 0).collect();

    let config = |fault_plan: Option<Arc<FaultPlan>>| RuntimeConfig {
        shards,
        groups,
        spare_shards: 1,
        queue_capacity: queue,
        recovery: Some(RecoveryPolicy { snapshot_every }),
        fault_plan,
        ..RuntimeConfig::default()
    };
    let feed = |rt: &ShardedRuntime, lo: usize, hi: usize| -> Result<(), String> {
        let mut row = lo;
        while row < hi {
            let rows = batch_rows.min(hi - row);
            let batch: Batch = (row..row + rows)
                .flat_map(|t| streams.iter().enumerate().map(move |(s, x)| (s as u32, x[t])))
                .collect();
            rt.submit_blocking(&batch).map_err(|e| e.to_string())?;
            row += rows;
        }
        Ok(())
    };

    let mut out = String::new();
    out.push_str(&format!(
        "# rebalance drill: {m} streams x {n} values, {shards} shard(s) + 1 spare, \
         {groups} group(s), snapshot every {snapshot_every} append(s)\n"
    ));

    // Phase A — baseline: the same elastic layout, never resized.
    let rt = ShardedRuntime::launch(&spec, m, config(None)).map_err(|e| e.to_string())?;
    feed(&rt, 0, n)?;
    let mut reference = rt.shutdown().events;
    sort_events(&mut reference);
    out.push_str(&format!("baseline: never resized, {} event(s)\n", reference.len()));

    // Phase B — live resize: a feeder thread never stops submitting
    // while the drill splits slot 0's groups onto the spare and later
    // merges the spare away again.
    let rt = ShardedRuntime::launch(&spec, m, config(None)).map_err(|e| e.to_string())?;
    let total = (m * n) as u64;
    std::thread::scope(|scope| -> Result<(), String> {
        let feeder = scope.spawn(|| feed(&rt, 0, n));
        while rt.stats().total_appends() < total / 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        rt.split_shard(0, spare, &moving).map_err(|e| format!("live split failed: {e}"))?;
        while rt.stats().total_appends() < 2 * total / 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let merged = rt.merge_shard(spare, 0).map_err(|e| format!("live merge failed: {e}"))?;
        if merged != moving.len() {
            return Err(format!("merge drained {merged} group(s), expected {}", moving.len()));
        }
        feeder.join().map_err(|_| "feeder thread panicked".to_string())?
    })?;
    let stats = rt.stats();
    out.push_str(&format!(
        "live resize: split groups {moving:?} 0 -> {spare}, merged back, \
         epoch {}, {} migration(s)\n",
        stats.epoch, stats.migrations,
    ));
    let expected_migrations = 2 * moving.len() as u64;
    if stats.migrations != expected_migrations {
        return Err(format!(
            "{out}AUDIT FAILED: {} migration(s) recorded, expected {expected_migrations}",
            stats.migrations,
        ));
    }
    let mut resized = rt.shutdown().events;
    sort_events(&mut resized);
    if resized != reference {
        return Err(format!(
            "{out}AUDIT FAILED: live resize emitted {} event(s), baseline {} — \
             migration lost or duplicated events",
            resized.len(),
            reference.len(),
        ));
    }
    out.push_str("AUDIT OK: live split+merge bit-identical to the never-resized baseline\n");

    // Phase C — protocol chaos: kill the source worker right after it
    // seals one group and the destination worker right before it
    // adopts another; the supervisor must heal both handoffs.
    let plan = Arc::new(
        FaultPlan::new()
            .migration_fault(moving[0], MigrationStep::AfterSeal, FaultKind::Panic)
            .migration_fault(moving[1], MigrationStep::BeforeAdopt, FaultKind::Panic),
    );
    let rt = ShardedRuntime::launch(&spec, m, config(Some(Arc::clone(&plan))))
        .map_err(|e| e.to_string())?;
    feed(&rt, 0, n / 3)?;
    rt.split_shard(0, spare, &moving).map_err(|e| format!("chaos split failed: {e}"))?;
    feed(&rt, n / 3, 2 * n / 3)?;
    rt.merge_shard(spare, 0).map_err(|e| format!("chaos merge failed: {e}"))?;
    feed(&rt, 2 * n / 3, n)?;
    let report = rt.shutdown();
    out.push_str(&format!(
        "migration kills: faults fired: {}/2, worker restarts: {}\n",
        plan.fired_count(),
        report.stats.total_restarts(),
    ));
    if plan.fired_count() != 2 || report.stats.total_restarts() != 2 {
        return Err(format!("{out}AUDIT FAILED: scheduled migration kills did not all fire"));
    }
    let mut chaotic = report.events;
    sort_events(&mut chaotic);
    if chaotic != reference {
        return Err(format!(
            "{out}AUDIT FAILED: killed-migration run emitted {} event(s), baseline {} — \
             the handoff lost or duplicated events",
            chaotic.len(),
            reference.len(),
        ));
    }
    out.push_str("AUDIT OK: kills at seal and adopt recovered bit-identically\n");

    // Phase D — process crash mid-migration: persist to disk, stall the
    // destination inside an adoption, kill the whole process while the
    // handoff is in flight, and reopen. The shard layout is not
    // durable — `open()` re-places every group at epoch 0 and recovers
    // it from its own journal, so the half-applied migration must be
    // invisible after the re-submission.
    let base_dir = match args.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("stardust-rebalance-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&base_dir);
    let plan = Arc::new(FaultPlan::new().migration_fault(
        moving[0],
        MigrationStep::BeforeAdopt,
        FaultKind::Stall(Duration::from_millis(300)),
    ));
    let persist = || PersistConfig::new(&base_dir).sync(SyncPolicy::EveryN(8));
    let (rt, _) = ShardedRuntime::open(&spec, m, config(Some(Arc::clone(&plan))), persist())
        .map_err(|e| format!("persisted open failed: {e}"))?;
    let mut events = Vec::new();
    feed(&rt, 0, n / 2)?;
    events.extend(rt.drain_events());
    rt.split_shard(0, spare, &moving).map_err(|e| format!("persisted split failed: {e}"))?;
    // The destination is stalled inside the first adoption; kill the
    // process with the handoff half-applied.
    events.extend(rt.crash().events);
    let (rt, report) = ShardedRuntime::open(&spec, m, config(None), persist())
        .map_err(|e| format!("reopen after mid-migration crash failed: {e}"))?;
    events.extend(rt.drain_events());
    let reopened_epoch = rt.epoch();
    // Re-submit everything past each group's durable watermark, in the
    // same per-group order the journals saw.
    let mut resubmitted = 0u64;
    for (g, group_report) in report.shards.iter().enumerate() {
        let feed_for_group: Vec<(u32, f64)> = (0..n)
            .flat_map(|t| {
                streams
                    .iter()
                    .enumerate()
                    .filter(move |(s, _)| s % groups == g)
                    .map(move |(s, x)| (s as u32, x[t]))
            })
            .collect();
        for &(stream, value) in &feed_for_group[group_report.durable_appends as usize..] {
            rt.append_blocking(stream, value)
                .map_err(|e| format!("post-recovery re-submission failed: {e}"))?;
            resubmitted += 1;
        }
    }
    events.extend(rt.shutdown().events);
    sort_events(&mut events);
    out.push_str(&format!(
        "process crash mid-migration: durable {}/{} append(s), replayed {}, \
         re-submitted {resubmitted}, reopened at epoch {reopened_epoch}\n",
        report.total_durable_appends(),
        m * n,
        report.total_replayed(),
    ));
    if args.get("dir").is_none() {
        let _ = std::fs::remove_dir_all(&base_dir);
    }
    if events != reference {
        return Err(format!(
            "{out}AUDIT FAILED: crash-recovered run emitted {} event(s), baseline {} — \
             the interrupted migration corrupted recovery",
            events.len(),
            reference.len(),
        ));
    }
    out.push_str(&format!(
        "AUDIT OK: all rebalance drills recovered the baseline event set \
         ({} event(s))\n",
        reference.len(),
    ));
    Ok(out)
}

fn run_trend(args: &Args, input: &str) -> Result<String, String> {
    let streams = read_columns(input)?;
    let patterns_path = args.get("patterns").ok_or("trend needs --patterns FILE")?;
    let text = std::fs::read_to_string(patterns_path)
        .map_err(|e| format!("cannot read patterns file '{patterns_path}': {e}"))?;
    let radius: f64 = args.get_or("radius", 0.05)?;
    let base: usize = args.get_or("base", 16)?;
    let levels: usize = args.get_or("levels", 4)?;
    // One pattern per non-comment line.
    let mut patterns: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let p: Result<Vec<f64>, String> = line
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("patterns line {}: bad number '{c}'", lineno + 1))
            })
            .collect();
        patterns.push(p?);
    }
    if patterns.is_empty() {
        return Err("no patterns in the patterns file".to_string());
    }
    if !base.is_power_of_two() || levels == 0 {
        return Err("--base must be a power of two and --levels positive".to_string());
    }
    let r_max = streams
        .iter()
        .flatten()
        .chain(patterns.iter().flatten())
        .fold(1.0f64, |a, &b| a.max(b.abs()));
    let mut cfg =
        Config::online(TransformKind::Dwt, base, levels, 8).with_history(base << (levels - 1));
    cfg.dwt_coeffs = 4.min(base);
    cfg.r_max = r_max;
    let mut monitor = TrendMonitor::new(cfg, streams.len());
    for p in patterns {
        monitor.register(p, radius).map_err(|e| e.to_string())?;
    }
    let n = streams[0].len();
    let mut out = String::from("row,stream,pattern,distance\n");
    for i in 0..n {
        for (s, col) in streams.iter().enumerate() {
            for m in monitor.append(s as u32, col[i]) {
                out.push_str(&format!("{i},{},{},{:.5}\n", m.stream, m.pattern, m.distance));
            }
        }
    }
    let st = monitor.stats();
    out.push_str(&format!(
        "# {} candidates, {} matches, precision {:.3}\n",
        st.candidates,
        st.matches,
        st.precision()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|p| p.to_string()).collect()
    }

    #[test]
    fn parse_flags_and_positional() {
        let (cmd, args) =
            Args::parse(&argv("burst --base 20 --lambda 6.5 input.csv")).expect("valid");
        assert_eq!(cmd, "burst");
        assert_eq!(args.get("base"), Some("20"));
        assert_eq!(args.get_or::<f64>("lambda", 0.0).unwrap(), 6.5);
        assert_eq!(args.positional(), &["input.csv".to_string()]);
        assert_eq!(args.get_or::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parse_errors() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("burst --base")).is_err());
        let (_, args) = Args::parse(&argv("burst --base xyz")).unwrap();
        assert!(args.get_or::<usize>("base", 1).is_err());
    }

    #[test]
    fn csv_columns() {
        let input = "# comment\n1, 2.5\n3,4\n\n5,6\n";
        let cols = read_columns(input).expect("valid csv");
        assert_eq!(cols, vec![vec![1.0, 3.0, 5.0], vec![2.5, 4.0, 6.0]]);
        assert!(read_columns("1,2\n3\n").is_err());
        assert!(read_columns("").is_err());
        assert!(read_columns("a,b\n").is_err());
    }

    #[test]
    fn usize_list() {
        assert_eq!(parse_usize_list("1, 2,30").unwrap(), vec![1, 2, 30]);
        assert!(parse_usize_list("1,x").is_err());
    }

    fn bursty_csv() -> String {
        let mut s = String::new();
        for i in 0..3000 {
            let v = if (2000..2100).contains(&i) { 9.0 } else { 1.0 + (i % 3) as f64 * 0.1 };
            s.push_str(&format!("{v}\n"));
        }
        s
    }

    #[test]
    fn burst_subcommand_end_to_end() {
        let (cmd, args) =
            Args::parse(&argv("burst --base 10 --windows 4 --lambda 8 --train 800")).unwrap();
        let out = run(&cmd, &args, &bursty_csv()).expect("runs");
        assert!(out.lines().count() > 2, "alarms expected:\n{out}");
        assert!(out.contains("precision"));
        // Alarm rows land inside the burst region.
        let first_alarm: usize = out
            .lines()
            .nth(1)
            .and_then(|l| l.split(',').next())
            .and_then(|t| t.parse().ok())
            .expect("alarm row");
        assert!((2000..2250).contains(&first_alarm), "first alarm at {first_alarm}");
    }

    #[test]
    fn correlate_subcommand() {
        let mut csv = String::new();
        let mut a = 50.0f64;
        let mut seed = 5u64;
        for _ in 0..300 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            a += (seed >> 33) as f64 / 2f64.powi(32) - 0.5;
            csv.push_str(&format!("{a},{},{}\n", a * 2.0 + 3.0, (seed % 100) as f64));
        }
        let (cmd, args) =
            Args::parse(&argv("correlate --base 8 --levels 3 --min-corr 0.95")).unwrap();
        let out = run(&cmd, &args, &csv).expect("runs");
        assert!(
            out.lines().skip(1).any(|l| l.contains(",0,") || l.starts_with(char::is_numeric)),
            "correlated pair expected:\n{out}"
        );
    }

    #[test]
    fn trend_subcommand_end_to_end() {
        // Pattern file on disk; stream contains the pattern at a known spot.
        let dir = std::env::temp_dir().join("stardust_cli_trend");
        std::fs::create_dir_all(&dir).unwrap();
        let pfile = dir.join("patterns.csv");
        let ramp: Vec<String> = (0..32).map(|i| format!("{}", 10.0 + i as f64)).collect();
        std::fs::write(&pfile, ramp.join(",") + "\n").unwrap();
        let mut csv = String::new();
        for i in 0..200 {
            let v = if (120..152).contains(&i) { 10.0 + (i - 120) as f64 } else { 5.0 };
            csv.push_str(&format!("{v}\n"));
        }
        let argv_s =
            format!("trend --patterns {} --radius 0.02 --base 16 --levels 2", pfile.display());
        let (cmd, args) = Args::parse(&argv(&argv_s)).unwrap();
        let out = run(&cmd, &args, &csv).expect("runs");
        assert!(out.contains("151,0,0,"), "match at row 151 expected:\n{out}");
        let _ = std::fs::remove_file(&pfile);
    }

    #[test]
    fn serve_bench_generated_workload() {
        let (cmd, args) = Args::parse(&argv(
            "serve-bench --shards 2 --streams 8 --values 256 --batch 8 --seed 7",
        ))
        .unwrap();
        let out = run(&cmd, &args, "").expect("runs");
        assert!(out.contains("8 streams x 256 values, 2 shard(s)"), "header:\n{out}");
        assert!(out.contains("values/s"), "throughput line:\n{out}");
        assert!(out.contains("q_hwm"), "per-shard stats table:\n{out}");
        assert!(out.contains("ingested 2048 values"), "total count:\n{out}");
    }

    #[test]
    fn chaos_drill_audits_recovery() {
        let (cmd, args) = Args::parse(&argv(
            "chaos --shards 2 --streams 6 --values 512 --snapshot-every 64 --seed 9",
        ))
        .unwrap();
        let out = run(&cmd, &args, "").expect("drill passes its audit");
        assert!(out.contains("chaos drill: 6 streams x 512 values, 2 shard(s)"), "header:\n{out}");
        assert!(out.contains("kill shard 0 at"), "kill plan:\n{out}");
        assert!(out.contains("kill shard 1 at"), "kill plan:\n{out}");
        assert!(out.contains("faults fired: 2/2, worker restarts: 2"), "fired line:\n{out}");
        assert!(out.contains("AUDIT OK"), "audit verdict:\n{out}");
        assert!(out.contains("restarts"), "stats table:\n{out}");
    }

    #[test]
    fn chaos_rejects_more_shards_than_streams() {
        let (cmd, args) = Args::parse(&argv("chaos --shards 8 --streams 4 --values 128")).unwrap();
        let err = run(&cmd, &args, "").unwrap_err();
        assert!(err.contains("at least one stream per shard"), "{err}");
    }

    #[test]
    fn serve_bench_csv_input() {
        let mut csv = String::new();
        let mut x = 10.0f64;
        for i in 0..400 {
            x += ((i * 37) % 11) as f64 / 11.0 - 0.5;
            csv.push_str(&format!("{x},{},{}\n", x + 1.0, 40.0 - x / 2.0));
        }
        let (cmd, args) =
            Args::parse(&argv("serve-bench --shards 3 --batch 4 --classes corr")).unwrap();
        let out = run(&cmd, &args, &csv).expect("runs");
        assert!(out.contains("3 streams x 400 values, 3 shard(s)"), "header:\n{out}");
    }

    #[test]
    fn serve_rejects_bad_tenant_layouts() {
        // Malformed tenant spec: caught before any socket is bound.
        let (cmd, args) = Args::parse(&argv("serve --tenants nonsense")).unwrap();
        let err = run(&cmd, &args, "").unwrap_err();
        assert!(err.contains("name:token:streams:rate"), "{err}");
        // Tenant layout that disagrees with the training workload.
        let (cmd, args) =
            Args::parse(&argv("serve --tenants a:tok-a:3:0 --streams 4 --values 256")).unwrap();
        let err = run(&cmd, &args, "").unwrap_err();
        assert!(err.contains("sum to 3"), "{err}");
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let (cmd, args) = Args::parse(&argv("frobnicate")).unwrap();
        let err = run(&cmd, &args, "1\n").unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let (cmd, args) = Args::parse(&argv("burst --base 10")).unwrap();
        assert!(run(&cmd, &args, "1\n2\n3\n").is_err(), "too-short input must error");
        let (cmd, args) = Args::parse(&argv("pattern")).unwrap();
        let err = run(&cmd, &args, &bursty_csv()).unwrap_err();
        assert!(err.contains("--query"), "missing --query: {err}");
    }
}
