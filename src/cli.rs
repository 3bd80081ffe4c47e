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
              --values N (2048)  --seed (42) (threshold-training
              workload when no CSV is given); monitor spec: the
              metrics flags --base/--levels/--min-corr/--lambda/
              --classes, plus --radius r (0.05: trend class)
  metrics     run a workload through the instrumented runtime and dump
              the metrics registry (Prometheus text or JSON), including
              the observed vs Eq. 4-7 predicted false-alarm rate;
              generates random-walk streams when no input is given
              --format prom|json (prom)  --shards S (1)
              --streams M (16)  --values N (2048)  --seed (42)
              --base W (16)  --levels L (3)  --min-corr c (0.9)
              --lambda L (6.0)  --classes agg,corr (of agg|corr|trend)

EXAMPLE:
  stardust burst --base 20 --windows 8 --lambda 8 traffic.csv
  stardust serve --addr 127.0.0.1:7171 --tenants a:tok-a:8:0,b:tok-b:8:512
  stardust metrics --format prom --streams 8 --values 1024
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
        "serve" => run_serve(args, input),
        "metrics" => run_metrics(args, input),
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
/// `--base/--levels/--min-corr/--lambda/--radius/--classes` flags over
/// `streams` (used by `serve` and `metrics`).
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
    // calibrated on this data, exactly like `metrics`. With
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
        let dir = std::env::temp_dir().join(format!("stardust_cli_trend-{}", std::process::id()));
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_csv_input() {
        let mut csv = String::new();
        let mut x = 10.0f64;
        for i in 0..400 {
            x += ((i * 37) % 11) as f64 / 11.0 - 0.5;
            csv.push_str(&format!("{x},{},{}\n", x + 1.0, 40.0 - x / 2.0));
        }
        let (cmd, args) =
            Args::parse(&argv("metrics --shards 3 --batch 4 --classes corr")).unwrap();
        let out = run(&cmd, &args, &csv).expect("runs");
        for shard in 0..3 {
            let line = format!("stardust_shard_appends{{shard=\"{shard}\"}} 400\n");
            assert!(out.contains(&line), "one CSV column per shard:\n{out}");
        }
        assert!(
            !out.contains("stardust_aggregate_monitoring_ratio"),
            "--classes corr must not run the aggregate class:\n{out}"
        );
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
