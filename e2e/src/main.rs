//! `e2e` — the repo's benchmark.
//!
//! Four seeded workloads, each checked against a single-threaded
//! reference, reported as end-to-end metrics (tracing and telemetry
//! off) and, in a separate traced pass, per-layer metrics with an
//! ablation ladder. See README.md beside this package for the layers,
//! the metric tables and how to read the output.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (what BENCHMARK.json runs)
//! e2e --seed <n> [--trace <0|1>]                                 all four workloads
//! e2e --smoke                                                    all four at ~1 % size
//! e2e --aa                                                       the untraced set twice, A/A verdict per metric
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before
//! it carries the same run with sample counts and side observations.
//! The exit code is non-zero when any output differed from the
//! reference.

#[cfg(test)]
mod checks;
mod layers;
mod oracle;
mod paths;
mod quant;
mod report;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Outcome, RunCfg};
use workload::{Workload, WORKLOADS};

/// Directory (under the working directory) for scratch state and trace
/// files; listed in the repo's `.gitignore`.
const OUT_DIR: &str = "e2e_out";
/// `--seconds` of a `--smoke` run.
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 42, seconds: 15.0, trace: false, smoke: false, aa: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone and `--trace 1` both select the traced pass.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument '{other}' (see README.md)")),
        }
    }
    Ok(args)
}

fn selected(args: &Args) -> Result<Vec<Workload>, String> {
    let chosen: Vec<Workload> = match &args.workload {
        Some(name) => vec![*workload::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (one of {})", names.join(", "))
        })?],
        None => WORKLOADS.to_vec(),
    };
    Ok(if args.smoke { chosen.iter().map(Workload::smoke).collect() } else { chosen })
}

fn run_one(w: &Workload, cfg: &RunCfg, trace: bool) -> Result<Outcome, String> {
    if trace {
        layers::run_traced(w, cfg)
    } else {
        run::run_untraced(w, cfg)
    }
}

/// `Ok(None)` on success, `Ok(Some(why))` when the run completed but
/// must exit 1.
fn real_main() -> Result<Option<&'static str>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let cfg = RunCfg {
        seed: args.seed,
        seconds: if args.smoke { args.seconds.min(SMOKE_SECONDS) } else { args.seconds },
        smoke: args.smoke,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let workloads = selected(&args)?;
    if args.aa {
        let agreed = report::aa(&workloads, &cfg)?;
        return Ok((!agreed).then_some(
            "an A/A pair disagreed beyond its bound, or an output differed from the reference",
        ));
    }
    let mut all_correct = true;
    let mut outcomes = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let outcome = run_one(w, &cfg, args.trace)?;
        all_correct &= outcome.correct;
        outcomes.push((w.name, outcome));
    }
    match (&args.workload, outcomes.as_slice()) {
        (Some(_), [(name, outcome)]) => {
            report::emit(&report::detail_line(name, &cfg, args.trace, outcome));
            report::emit(&report::contract_line(outcome));
        }
        _ => report::emit(&report::all_document(&cfg, args.trace, &outcomes)),
    }
    Ok((!all_correct).then_some("output differed from the reference"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(why)) => {
            eprintln!("e2e: {why}");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = parse_args(&argv("--workload agg_wide --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("agg_wide"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let a = parse_args(&argv("--workload agg_wide --seed 7 --seconds 10 --trace 1")).unwrap();
        assert!(a.trace);
        assert!(parse_args(&argv("--trace --seed 3")).unwrap().trace);
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(selected(&parse_args(&argv("--workload nope")).unwrap()).is_err());
    }
}
