//! Golden-output integration tests for the operational CLI commands:
//! `metrics` and `serve` are run in-process on generated workloads and
//! their emitted documents are parsed back and checked for schema
//! stability and cross-field invariants.
//!
//! "Golden" here means schema and invariants, not byte-exact output —
//! every run carries machine-dependent timings. What must never drift
//! without a deliberate schema bump: the metric names exported by the
//! registry and conservation laws between counters (values in = values
//! appended, candidates never exceed checks, confirmed never exceeds
//! candidates).

use stardust::cli::{run, Args};
use stardust_telemetry::json::{self, Value};

/// Parses CLI argv into (cmd, args), panicking on malformed flags.
fn argv(parts: &[&str]) -> (String, Args) {
    let owned: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    Args::parse(&owned).expect("argv parses")
}

fn counter(doc: &Value, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

#[test]
fn metrics_command_emits_model_gauges() {
    let (cmd, args) = argv(&["metrics", "--format", "json", "--streams", "4", "--values", "512"]);
    let out = run(&cmd, &args, "").expect("metrics runs");
    let doc = json::parse(&out).expect("metrics output is valid JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("stardust-metrics/v1"));

    let gauges = doc.get("gauges").expect("gauges section");
    let observed = gauges
        .get("stardust_aggregate_false_alarm_rate_observed")
        .and_then(Value::as_f64)
        .expect("observed false-alarm gauge");
    let predicted = gauges
        .get("stardust_aggregate_false_alarm_rate_predicted")
        .and_then(Value::as_f64)
        .expect("predicted false-alarm gauge");
    let ratio = gauges
        .get("stardust_aggregate_monitoring_ratio")
        .and_then(Value::as_f64)
        .expect("monitoring-ratio gauge");
    assert!((0.0..=1.0).contains(&observed), "observed rate out of range: {observed}");
    assert!((0.0..=1.0).contains(&predicted), "predicted rate out of range: {predicted}");
    assert!(ratio >= 1.0, "Eq. 7 ratio below 1: {ratio}");

    // Conservation: every value ingested is an append seen by the
    // summarizers of the enabled classes (aggregate plus correlation by
    // default), and the class funnel is monotone.
    let values = 4 * 512;
    let appends = counter(&doc, "stardust_summarizer_appends_total");
    assert_eq!(appends % values, 0, "appends {appends} not a multiple of values ingested");
    assert!(appends >= values);
    for class in ["aggregate", "correlation"] {
        let checks = counter(&doc, &format!("stardust_{class}_checks_total"));
        let candidates = counter(&doc, &format!("stardust_{class}_candidates_total"));
        let confirmed = counter(&doc, &format!("stardust_{class}_confirmed_total"));
        assert!(candidates <= checks, "{class}: candidates {candidates} > checks {checks}");
        assert!(
            confirmed <= candidates,
            "{class}: confirmed {confirmed} > candidates {candidates}"
        );
    }
    // Per-shard gauges exported from runtime stats conserve the ingest
    // volume.
    let shard_appends: f64 = gauges
        .as_object()
        .expect("gauges object")
        .iter()
        .filter(|(k, _)| k.starts_with("stardust_shard_appends{"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    assert_eq!(shard_appends as u64, values, "shard appends must sum to values ingested");

    // Prometheus rendering of the same run: spot-check the format.
    let (cmd, args) = argv(&["metrics", "--format", "prom", "--streams", "4", "--values", "512"]);
    let prom = run(&cmd, &args, "").expect("metrics --format prom runs");
    assert!(prom.contains("# TYPE stardust_summarizer_appends_total counter"));
    assert!(prom.contains("# TYPE stardust_aggregate_latency_ns histogram"));
    assert!(prom.contains("stardust_aggregate_latency_ns_bucket{le=\"+Inf\"}"));

    let (cmd, args) = argv(&["metrics", "--format", "bogus"]);
    assert!(run(&cmd, &args, "").is_err(), "unknown format must be rejected");
}

/// End-to-end `stardust serve`: bind an ephemeral port, scrape it via
/// `--addr-file`, speak the wire protocol with the real client, and
/// check the drain summary accounts for exactly the appends sent.
#[test]
fn serve_subcommand_accepts_clients_end_to_end() {
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("stardust-golden-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let addr_file = dir.join("addr.txt");
    let addr_file_str = addr_file.to_str().expect("utf-8 temp path").to_string();

    let handle = std::thread::spawn(move || {
        let (cmd, args) = argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            &addr_file_str,
            "--max-seconds",
            "2.5",
            "--streams",
            "4",
            "--values",
            "512",
            "--shards",
            "2",
        ]);
        run(&cmd, &args, "")
    });

    // The bound address appears in the file once the listener is up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr: std::net::SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(a) = text.trim().parse() {
                break a;
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote --addr-file");
        std::thread::sleep(Duration::from_millis(20));
    };

    let (mut client, hello) =
        stardust_server::Client::connect(addr, "stardust-dev").expect("connect");
    assert_eq!(hello.streams, 4, "default tenant must own all serve streams");
    let items: Vec<(u32, f64)> = (0..8).map(|i| (i % 4, 0.25 * i as f64)).collect();
    client.append_all(&items).expect("append over the wire");
    client.ping().expect("ping");
    client.goodbye().expect("goodbye");

    let out = handle.join().expect("serve thread").expect("serve runs");
    assert!(
        out.contains("drained: 8 append(s) admitted"),
        "drain summary must account for the 8 appends:\n{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
