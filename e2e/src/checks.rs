//! Whole-benchmark tests: BENCHMARK.json and the binary agree, and the
//! reference check is live.

use std::path::PathBuf;

use crate::oracle::Oracle;
use crate::paths::{closed_loop, start, StartOpts};
use crate::report::{parse_benchmark, Benchmark};
use crate::run::{run_untraced, RunCfg};
use crate::workload::{by_name, prepare, WORKLOADS};

fn declared() -> Benchmark {
    parse_benchmark(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn smoke_cfg(tag: &str) -> RunCfg {
    let out_dir: PathBuf =
        std::env::temp_dir().join(format!("e2e-test-{}-{tag}", std::process::id()));
    RunCfg { seed: 42, seconds: crate::SMOKE_SECONDS, smoke: true, out_dir }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_this_binarys_workloads_with_well_formed_names() {
    let bench = declared();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(bench.workloads, ours);
    let mut seen = std::collections::BTreeSet::new();
    for d in bench.end_to_end.iter().chain(&bench.per_layer) {
        assert!(well_formed(&d.name), "bad metric name {:?}", d.name);
        assert!(seen.insert(d.name.clone()), "metric {} declared twice", d.name);
    }
    for d in &bench.end_to_end {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
    }
    let setup = bench.end_to_end.iter().find(|d| d.name == "setup_s").expect("setup_s declared");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
}

#[test]
fn smoke_runs_emit_every_declared_end_to_end_metric_and_match_the_reference() {
    let bench = declared();
    let cfg = smoke_cfg("untraced");
    for w in &WORKLOADS {
        let outcome = run_untraced(&w.smoke(), &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(outcome.correct, "{}: output differed from the reference", w.name);
        assert_eq!(outcome.failed, 0, "{}", w.name);
        assert_eq!(outcome.metrics.len(), bench.end_to_end.len(), "{}", w.name);
        for d in &bench.end_to_end {
            let m = outcome
                .metric(&d.name)
                .unwrap_or_else(|| panic!("{}: {} not emitted", w.name, d.name));
            assert_eq!(m.unit, d.unit, "{}: unit of {}", w.name, d.name);
            assert!(m.value > 0.0 && m.value.is_finite(), "{}: {} = {}", w.name, d.name, m.value);
            assert!(m.samples > 0, "{}: {} has no samples", w.name, d.name);
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
}

#[test]
fn smoke_trace_emits_every_declared_per_layer_metric_and_a_trace_file() {
    let bench = declared();
    let cfg = smoke_cfg("traced");
    for w in &WORKLOADS {
        let outcome = crate::layers::run_traced(&w.smoke(), &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(outcome.correct, "{}: output differed from the reference", w.name);
        assert_eq!(outcome.metrics.len(), bench.per_layer.len(), "{}", w.name);
        for d in &bench.per_layer {
            let m = outcome
                .metric(&d.name)
                .unwrap_or_else(|| panic!("{}: {} not emitted", w.name, d.name));
            assert_eq!(m.unit, d.unit, "{}: unit of {}", w.name, d.name);
            assert!(m.value.is_finite(), "{}: {} = {}", w.name, d.name, m.value);
        }
        let trace = cfg.out_dir.join(format!("trace_{}.json", w.name));
        let doc = stardust_telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        assert!(!doc.get("spans").unwrap().as_array().unwrap().is_empty());
        // Workload separation: layers a path does not have measure zero.
        let zero = |name: &str| outcome.metric(name).unwrap().value == 0.0;
        if w.name != "durable_mixed" {
            assert!(zero("runtime.persist.ns_per_value"), "{}", w.name);
        }
        if w.name != "net_loopback" {
            assert!(zero("server.overhead_ns_per_value") && zero("server.protocol.encode_ns"));
        }
        if w.name == "agg_wide" {
            assert!(zero("index.search_ns") && zero("dsp.haar_merge_ns"));
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
}

#[test]
fn reference_check_catches_a_dropped_a_duplicated_and_an_altered_event() {
    let w = by_name("durable_mixed").unwrap().smoke();
    let mut w = w;
    w.path = crate::workload::PathKind::Direct;
    let rows = w.closed_rows;
    let p = prepare(&w, 42, rows);
    let oracle = Oracle::run(&p, &[rows]);
    let (mut sut, _) = start(&p, &StartOpts::plain(w.path, None)).unwrap();
    let trial = closed_loop(&mut sut, &p, rows, None);
    let mut events = trial.events;
    events.extend(sut.finish().events);
    let (bad, compared) = oracle.diff(rows, &events);
    assert!(compared > 0, "the smoke input must raise events");
    assert_eq!(bad, 0, "the runtime and the reference agree");

    let mut dropped = events.clone();
    dropped.pop();
    assert_eq!(oracle.diff(rows, &dropped).0, 1);

    let mut duplicated = events.clone();
    duplicated.push(events[0].clone());
    assert_eq!(oracle.diff(rows, &duplicated).0, 1);

    let mut altered = events.clone();
    match &mut altered[0] {
        stardust_core::unified::Event::Aggregate { alarm, .. } => alarm.true_value += 1.0,
        stardust_core::unified::Event::Trend(m) => m.distance += 1.0,
        stardust_core::unified::Event::Correlation(pair) => pair.feature_distance += 1.0,
    }
    assert_eq!(oracle.diff(rows, &altered).0, 2, "one missing plus one extra");
}
