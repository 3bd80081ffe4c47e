//! The untraced pass: one workload's end-to-end metrics, checked
//! against the reference.
//!
//! One run is [`SETUPS`] timed set-ups (generate + train + start +
//! warm-up; `setup_s` is their median) followed by [`ROUNDS`] identical
//! rounds on the same seeded input. Each round is
//!
//! 1. [`TRIALS_PER_ROUND`] **closed-loop** trials of a fixed number of
//!    rows, each on a fresh system (`ingest_values_per_s`);
//! 2. one **recovery**: the system is torn down and bringing it back is
//!    timed — `open()` over the directory the last trial crashed on the
//!    durable path, a fresh start where there is nothing to replay
//!    (`recovery_s`);
//! 3. one **open-loop** segment at the workload's fixed rate with the
//!    second thread reading (`response_*`, `query_*`), its percentiles
//!    taken over that segment alone.
//!
//! Every metric is the median over the rounds. The box this was frozen
//! on slows one or both CPUs by 1.4–2× for seconds at a time; a
//! whole-run p99 is then whatever the worst stretch did, while the
//! median of per-round values holds as long as most rounds were clean.
//! Interleaving the phases gives every metric the same view of the run.
//!
//! Every phase's events and quiescent query answers are compared with
//! the reference; any difference counts as a failed operation and makes
//! the run incorrect.

use std::path::{Path, PathBuf};
use std::time::Instant;

use stardust_core::normalize::correlation_to_distance;
use stardust_core::unified::Event;

use crate::oracle::{pairs_mismatch, Oracle};
use crate::paths::{
    closed_loop, final_answers, open_loop, start, warm_rows, warm_up, FinalAnswers, Ops, StartOpts,
    Sut, TempDir,
};
use crate::quant::{median_f64, Quartiles, Sample};
use crate::workload::{prepare, PathKind, Prepared, Workload, MIN_CORR};

/// Set-ups timed per run (`setup_s` is their median).
pub const SETUPS: usize = 9;
/// Rounds of a full run; every metric but `setup_s` is a median over
/// them.
pub const ROUNDS: usize = 12;
/// Rounds of a `--smoke` run.
pub const SMOKE_ROUNDS: usize = 2;
/// Closed-loop trials per round.
pub const TRIALS_PER_ROUND: usize = 2;
/// Share of `--seconds` spent in open-loop segments (the closed-loop
/// trials are sized in rows, not seconds, so event counts repeat).
pub const OPEN_SHARE: f64 = 0.6;
/// Fewest pooled query samples a full run accepts for `query_mean_us`.
pub const MIN_QUERIES: usize = 50;
/// Tail percentile of the response time, reported beside the gated
/// median (see README.md, "What is gated").
pub const RESPONSE_TAIL: f64 = 0.99;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// Observations the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` observations.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.to_string(), value, unit, samples }
    }
}

/// What one pass over one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output matched the reference.
    pub correct: bool,
    /// Operations attempted, including every reference comparison.
    pub attempted: u64,
    /// Operations failed, including every reference mismatch.
    pub failed: u64,
    /// The metrics of the pass.
    pub metrics: Vec<Metric>,
    /// Side observations for the detail document (name, JSON value).
    pub detail: Vec<(String, String)>,
}

impl RunCfg {
    /// Rounds this run makes.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            SMOKE_ROUNDS
        } else {
            ROUNDS
        }
    }
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Shrunk sizes, [`SMOKE_ROUNDS`] rounds, no CPU spin-up;
    /// percentiles fall back to what the sample supports.
    pub smoke: bool,
    /// Directory for scratch state and trace files.
    pub out_dir: PathBuf,
}

/// Tally of operations and reference comparisons.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations and comparisons attempted.
    pub attempted: u64,
    /// Operations failed and comparisons mismatched.
    pub failed: u64,
    /// Comparisons mismatched (makes the run incorrect).
    pub mismatched: u64,
}

impl Tally {
    /// Adds submit/query operations.
    pub fn ops(&mut self, ops: Ops) {
        self.attempted += ops.attempted;
        self.failed += ops.failed;
    }

    /// Adds a reference comparison of `compared` items, `bad` of which
    /// differed.
    pub fn compared(&mut self, bad: u64, compared: u64) {
        self.attempted += compared.max(bad);
        self.failed += bad;
        self.mismatched += bad;
    }
}

/// A scratch directory for the durable path (none on the others).
pub fn scratch(w: &Workload, out_dir: &Path) -> Result<Option<TempDir>, String> {
    match w.path {
        PathKind::Durable => TempDir::new(out_dir)
            .map(Some)
            .map_err(|e| format!("creating a scratch directory under {}: {e}", out_dir.display())),
        _ => Ok(None),
    }
}

/// A freshly started system on the workload's own path, telemetry off,
/// with its scratch directory if the path is durable.
fn fresh(p: &Prepared, out_dir: &Path) -> Result<(Option<TempDir>, Sut), String> {
    let dir = scratch(&p.w, out_dir)?;
    let (sut, _) = start(p, &StartOpts::plain(p.w.path, dir.as_ref().map(TempDir::path)))?;
    Ok((dir, sut))
}

/// Compares a phase's events and quiescent answers with the reference.
pub fn check_phase(
    tally: &mut Tally,
    oracle: &Oracle,
    p: &Prepared,
    rows: usize,
    events: &[Event],
    answers: Result<FinalAnswers, String>,
) {
    let (bad, compared) = oracle.diff(rows, events);
    tally.compared(bad, compared);
    match answers {
        Err(_) => tally.compared(1, 1),
        Ok(FinalAnswers::Pairs(pairs)) => {
            let (bad, compared) =
                pairs_mismatch(p, rows, &pairs, correlation_to_distance(MIN_CORR));
            tally.compared(bad, compared);
        }
        Ok(FinalAnswers::Intervals(got)) => match oracle.intervals_at(rows) {
            Some(want) => {
                let bad = got.iter().zip(want).filter(|(g, w)| g != w).count()
                    + got.len().abs_diff(want.len());
                tally.compared(bad as u64, want.len() as u64);
            }
            None => tally.compared(1, 1),
        },
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Keeps every CPU busy for a moment before anything is timed. An idle
/// virtual machine runs its first second or so of load at a fraction of
/// its speed (measured here: 3× slower for ~1.5 s); without this the
/// first set-up pays for it.
pub fn spin_up() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cpus {
            scope.spawn(|| {
                let until = Instant::now() + std::time::Duration::from_millis(1500);
                let mut x = 1u64;
                while Instant::now() < until {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// The better quartile of per-round values: the value a quarter of the
/// rounds beat (highest throughputs, lowest times). The box's
/// disturbances only ever slow a round down, so the better quartile
/// moves far less between runs than the median does (measured: worst
/// spread over ten runs 0.17 against 0.28), while a real regression
/// shifts every round and the quartile with them.
///
/// # Panics
/// Panics on an empty slice.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of no rounds");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[v.len() / 4]
}

/// A percentile (µs) of one round's latency sample: exactly `want` in
/// a full run, the highest supported percentile — down to the maximum —
/// in a smoke run; `None` when the sample cannot support it.
fn percentile_us(sample: &Sample, want: f64, smoke: bool) -> Option<f64> {
    let value = if smoke {
        sample.tail(want).map(|(_, v)| v).or(sample.max())
    } else {
        sample.percentile(want)
    };
    value.map(|ns| ns as f64 / 1e3)
}

/// The per-round `want`-percentiles of `rounds`, or an error naming
/// `metric` when fewer than half of the rounds can support it.
fn per_round(rounds: &[Sample], want: f64, smoke: bool, metric: &str) -> Result<Vec<f64>, String> {
    let values: Vec<f64> = rounds.iter().filter_map(|s| percentile_us(s, want, smoke)).collect();
    if values.is_empty() || values.len() * 2 < rounds.len() {
        return Err(format!(
            "{metric}: only {} of {} rounds had enough samples for p{:.0} with {} beyond it; \
             raise --seconds",
            values.len(),
            rounds.len(),
            want * 100.0,
            crate::quant::MIN_BEYOND
        ));
    }
    Ok(values)
}

/// Runs the untraced pass of `w`.
///
/// # Errors
/// A rendered set-up failure (the system could not be started, scratch
/// space could not be created, a latency sample was too small).
pub fn run_untraced(w: &Workload, cfg: &RunCfg) -> Result<Outcome, String> {
    let rows_closed = w.closed_rows;
    let rounds = cfg.rounds();
    let rows_open = w.open_rows(cfg.seconds * OPEN_SHARE / rounds as f64);
    let rows_total = rows_closed.max(rows_open);
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    if !cfg.smoke {
        spin_up();
    }

    // Set-up, several times; the last one's input is the run's.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let began = Instant::now();
        let p = prepare(w, cfg.seed, rows_total);
        let (_dir, mut sut) = fresh(&p, &cfg.out_dir)?;
        tally.ops(warm_up(&mut sut, &p, warm_rows(&p, rows_closed)));
        setups.push(began.elapsed().as_secs_f64());
        sut.finish();
        prepared = Some(p);
    }
    let p = prepared.expect("SETUPS >= 1");
    out.metrics.push(Metric::new("setup_s", median_f64(&setups), "s", setups.len()));
    out.detail.push(("setup_trials".into(), format!("{setups:?}")));
    let oracle = Oracle::run(&p, &[rows_closed, rows_open]);

    let mut rates = Vec::new();
    let mut recoveries = Vec::new();
    let (mut queries, mut responses, mut lates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut n_events, mut backlog) = (0, 0);
    let mut by_class = [0u64; 3];
    for _ in 0..rounds {
        // Closed-loop trials on a fresh system each. The durable path
        // ends a trial the way a process kill would, so the directory
        // the last one leaves is what recovery opens.
        let mut crashed: Option<(TempDir, Vec<Event>)> = None;
        for _ in 0..TRIALS_PER_ROUND {
            let (dir, mut sut) = fresh(&p, &cfg.out_dir)?;
            let trial = closed_loop(&mut sut, &p, rows_closed, None);
            tally.ops(trial.ops);
            rates.push(trial.values as f64 / (trial.wall_ns as f64 / 1e9));
            queries.extend(trial.query_ns);
            let answers = final_answers(&mut sut, &p);
            let mut events = trial.events;
            events.extend(if dir.is_some() { sut.crash().events } else { sut.finish().events });
            check_phase(&mut tally, &oracle, &p, rows_closed, &events, answers);
            crashed = dir.map(|d| (d, events));
        }

        // Recovery: teardown → serving again.
        match &crashed {
            Some((crashed_dir, delivered)) => {
                let copy = TempDir::new(&cfg.out_dir).map_err(|e| format!("scratch copy: {e}"))?;
                copy_dir(crashed_dir.path(), copy.path()).map_err(|e| format!("copy: {e}"))?;
                let began = Instant::now();
                let (mut sut, report) = start(&p, &StartOpts::plain(w.path, Some(copy.path())))?;
                recoveries.push(began.elapsed().as_secs_f64());
                // Exactly-once across the crash: what was delivered
                // before it plus what recovery re-emits is the
                // reference, and every append was durable.
                let answers = final_answers(&mut sut, &p);
                let mut events = delivered.clone();
                events.extend(sut.crash().events);
                check_phase(&mut tally, &oracle, &p, rows_closed, &events, answers);
                let durable = report.map_or(0, |r| r.total_durable_appends());
                tally.compared(u64::from(durable != (rows_closed * w.streams) as u64), 1);
            }
            None => {
                let began = Instant::now();
                let (sut, _) = start(&p, &StartOpts::plain(w.path, None))?;
                recoveries.push(began.elapsed().as_secs_f64());
                sut.finish();
            }
        }
        drop(crashed);

        // Open-loop segment at the fixed rate.
        let (_dir, mut sut) = fresh(&p, &cfg.out_dir)?;
        let open = open_loop(&mut sut, &p, rows_open, None);
        tally.ops(open.ops);
        let answers = final_answers(&mut sut, &p);
        let mut events = open.events;
        events.extend(sut.finish().events);
        check_phase(&mut tally, &oracle, &p, rows_open, &events, answers);
        n_events += events.len();
        for e in &events {
            by_class[crate::oracle::event_key(e)[0] as usize] += 1;
        }
        backlog += open.backlog_end;
        responses.push(Sample::new(open.response_ns));
        lates.push(Sample::new(open.late_ns).tail(0.99).map_or(0.0, |(_, v)| v as f64 / 1e3));
    }

    let count = |samples: &[Sample]| samples.iter().map(Sample::len).sum::<usize>();
    // A saturated shard queue answers a query in tens of milliseconds,
    // so a trial sees a handful; the run's trials are pooled. The mean,
    // not the median: on the network path the queues fill and drain with
    // the clients' Busy back-off and a query finds anything between an
    // empty and a full queue (0–45 ms in one trial), so the median jumps
    // with the mix while the mean moves in proportion to it.
    if queries.is_empty() || (queries.len() < MIN_QUERIES && !cfg.smoke) {
        return Err(format!(
            "query_mean_us: {} queries are too few for a mean; raise --seconds",
            queries.len()
        ));
    }
    let query_mean = queries.iter().sum::<u64>() as f64 / queries.len() as f64 / 1e3;
    let queries = Sample::new(queries);
    let response_p50 = per_round(&responses, 0.5, cfg.smoke, "response_p50_us")?;
    out.metrics.push(Metric::new(
        "ingest_values_per_s",
        better_quartile(&rates, true),
        "1/s",
        rates.len(),
    ));
    out.metrics.push(Metric::new(
        "recovery_s",
        better_quartile(&recoveries, false),
        "s",
        recoveries.len(),
    ));
    out.metrics.push(Metric::new("query_mean_us", query_mean, "us", queries.len()));
    if let Some(p50) = queries.median() {
        out.detail.push(("query_p50_us".into(), format!("{}", p50 as f64 / 1e3)));
    }
    out.metrics.push(Metric::new(
        "response_p50_us",
        better_quartile(&response_p50, false),
        "us",
        count(&responses),
    ));
    // Reported, not gated: the tail of the response time.
    if let Ok(tails) = per_round(&responses, RESPONSE_TAIL, cfg.smoke, "response_p99_us") {
        out.detail.push(("response_p99_us".into(), format!("{}", better_quartile(&tails, false))));
        out.detail.push(("response_p99_rounds".into(), format!("{tails:?}")));
    }
    let spread = Quartiles::of(&rates).map_or(0.0, |q| q.spread());
    out.detail.push(("ingest_trial_spread".into(), format!("{spread}")));
    out.detail.push(("ingest_trials".into(), format!("{rates:?}")));
    out.detail.push(("recovery_trials".into(), format!("{recoveries:?}")));
    out.detail.push(("response_p50_rounds".into(), format!("{response_p50:?}")));
    out.detail.push(("gen_late_p99_us".into(), format!("{}", median_f64(&lates))));
    out.detail.push(("gen_backlog_end".into(), format!("{}", backlog as f64 / rounds as f64)));
    out.detail.push((
        "open_loop_events_per_value".into(),
        format!("{}", n_events as f64 / (rounds * rows_open * w.streams) as f64),
    ));

    out.detail.push(("open_loop_events_agg_trend_corr".into(), format!("{by_class:?}")));

    out.correct = tally.mismatched == 0;
    out.attempted = tally.attempted.max(1);
    out.failed = tally.failed;
    Ok(out)
}
