//! Output: the contract line, the detail document, and the A/A mode.

use std::fmt::Write as _;

use stardust_telemetry::json::{self, escape, Value};

use crate::run::{run_untraced, Metric, Outcome, RunCfg};
use crate::workload::Workload;

/// Writes one line to standard output. A reader that closed the pipe
/// early (`| head -1`) is not an error worth a panic.
pub fn emit(line: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

/// A float as a JSON number with every digit it was measured with.
fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric values are finite, got {x}");
    format!("{x}")
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                escape(&m.name),
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The run's result as the one JSON object the benchmark contract asks
/// for: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_object(&o.metrics)
    )
}

fn outcome_extras(o: &Outcome) -> String {
    let samples: Vec<String> =
        o.metrics.iter().map(|m| format!("\"{}\":{}", escape(&m.name), m.samples)).collect();
    let detail: Vec<String> =
        o.detail.iter().map(|(k, v)| format!("\"{}\":{v}", escape(k))).collect();
    format!("\"samples\":{{{}}},\"detail\":{{{}}}", samples.join(","), detail.join(","))
}

fn run_header(cfg: &RunCfg, traced: bool) -> String {
    format!(
        "\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"cpus\":{}",
        cfg.seed,
        num(cfg.seconds),
        u8::from(traced),
        cfg.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
}

/// The same run with what the contract line has no room for: sample
/// counts per metric and side observations.
pub fn detail_line(name: &str, cfg: &RunCfg, traced: bool, o: &Outcome) -> String {
    format!("{{\"workload\":\"{name}\",{},{}}}", run_header(cfg, traced), outcome_extras(o))
}

/// One document for a run over several workloads.
pub fn all_document(cfg: &RunCfg, traced: bool, outcomes: &[(&str, Outcome)]) -> String {
    let mut doc = format!("{{{},\"workloads\":{{", run_header(cfg, traced));
    for (i, (name, o)) in outcomes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            doc,
            "{sep}\n\"{name}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},{}}}",
            o.correct,
            o.attempted,
            o.failed,
            metrics_object(&o.metrics),
            outcome_extras(o)
        );
    }
    doc.push_str("\n}}");
    doc
}

/// One end-to-end metric as BENCHMARK.json declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// What BENCHMARK.json declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Parses BENCHMARK.json.
///
/// # Errors
/// A rendered parse error or a missing key.
pub fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key).and_then(Value::as_array).ok_or(format!("BENCHMARK.json: no '{key}' array"))
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or(format!("BENCHMARK.json: entry without '{key}'"))
    };
    let declared = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|v| {
                Ok(Declared {
                    name: text_of(v, "name")?,
                    unit: text_of(v, "unit")?,
                    higher_is_better: text_of(v, "better")? == "higher",
                    bound: v.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Benchmark {
        workloads: list("workloads")?
            .iter()
            .map(|v| text_of(v, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: declared("end_to_end")?,
        per_layer: declared("per_layer")?,
    })
}

/// A/A mode: the untraced set twice, back to back, in one process; per
/// end-to-end metric and workload both values, how much worse the
/// second is than the first as a share of the first, and whether that
/// stays inside the metric's bound. Returns whether everything did
/// (and every output matched the reference).
///
/// # Errors
/// BENCHMARK.json unreadable from the working directory, or a run that
/// could not be set up.
pub fn aa(workloads: &[Workload], cfg: &RunCfg) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the working directory: {e}"))?;
    let bench = parse_benchmark(&text)?;
    let mut ok = true;
    let mut rows = Vec::new();
    for w in workloads {
        let a = run_untraced(w, cfg)?;
        let b = run_untraced(w, cfg)?;
        ok &= a.correct && b.correct;
        for d in &bench.end_to_end {
            let (Some(ma), Some(mb)) = (a.metric(&d.name), b.metric(&d.name)) else {
                return Err(format!("{}: metric {} was not emitted", w.name, d.name));
            };
            // Positive = the second run is worse.
            let worse = if d.higher_is_better {
                (ma.value - mb.value) / ma.value
            } else {
                (mb.value - ma.value) / ma.value
            };
            let bound = d.bound.unwrap_or(0.0);
            // Either run may be the unlucky one; an A/A pair passes
            // when they agree within the bound in both directions.
            let pass = worse.abs() <= bound;
            ok &= pass;
            rows.push(format!(
                "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"first\":{},\"second\":{},\"worse_by\":{},\"bound\":{},\"pass\":{pass}}}",
                w.name,
                escape(&d.name),
                escape(&d.unit),
                num(ma.value),
                num(mb.value),
                num(worse),
                num(bound)
            ));
        }
    }
    emit(&format!(
        "{{{},\"pass\":{ok},\"aa\":[\n{}\n]}}",
        run_header(cfg, false),
        rows.join(",\n")
    ));
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.25, "s", 3),
                Metric::new("x.y-z", 3.0, "1/s", 5),
            ],
            detail: vec![("note".into(), "1.5".into())],
        };
        let doc = json::parse(&contract_line(&o)).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.as_object().unwrap().len(), 2);
        assert!(!contract_line(&o).contains('\n'));
        let cfg = RunCfg { seed: 1, seconds: 2.0, smoke: true, out_dir: "x".into() };
        let detail = json::parse(&detail_line("w", &cfg, false, &o)).unwrap();
        assert_eq!(detail.get("samples").unwrap().get("x.y-z").unwrap().as_u64(), Some(5));
        let all = json::parse(&all_document(&cfg, true, &[("w", o)])).unwrap();
        assert!(all.get("workloads").unwrap().get("w").unwrap().get("metrics").is_some());
    }
}
