//! **Table 1** — total time (ms) spent on correlation detection for an
//! increasing number of streams.
//!
//! N = 256, W = 16, f = 2, StatStream cell diameter 0.01, M ∈ {256 … 8192},
//! distance thresholds r ∈ {0.01, 0.02, 0.04, 0.08}. Monitors are first
//! warmed with one full window, then 256 synchronized arrivals per stream
//! are observed (16 detection rounds); the total wall-clock time covers
//! summary maintenance plus correlation detection, as in §6.3.1. Reporting
//! is approximate (feature-space filtering, no raw verification), matching
//! both original systems.
//!
//! Shape to reproduce: StatStream's time explodes as r grows past the cell
//! size (the `(2b+1)^f` neighbor-cell blowup plus dense candidate lists)
//! while Stardust's banded point-table range queries degrade gracefully — Stardust
//! wins by growing factors at the larger thresholds.
//!
//! Run: `cargo run --release -p stardust-bench --bin table1_correlation [--full]`
//! (default M up to 2048; `--full` runs the paper's 8192).

use stardust_baselines::StatStream;
use stardust_bench::{full_scale, seed_arg, timed, Table};
use stardust_core::query::correlation::CorrelationMonitor;
use stardust_core::StreamId;
use stardust_datagen::random_walk_streams;

const W: usize = 16;
const LEVELS: usize = 5; // N = 16·2^4 = 256
const N: usize = 256;
const F: usize = 2;
const ARRIVALS: usize = 256;
const CELL: f64 = 0.01;

fn main() {
    let seed = seed_arg();
    let stream_counts: &[usize] =
        if full_scale() { &[256, 512, 1024, 2048, 4096, 8192] } else { &[256, 512, 1024, 2048] };
    let radii = [0.01, 0.02, 0.04, 0.08];
    println!(
        "# Table 1: correlation detection total time (ms); N={N}, W={W}, f={F}, cell={CELL}, warm-up + {ARRIVALS} arrivals, seed {seed}"
    );
    let mut table = Table::new(&[
        "streams",
        "r",
        "statstream_ms",
        "stardust_ms",
        "speedup",
        "ss_pairs",
        "sd_pairs",
    ]);
    for &m in stream_counts {
        let data = random_walk_streams(seed, m, N + ARRIVALS);
        for &r in &radii {
            let mut ss = StatStream::new(W, N / W, F, CELL, r, m).with_verification(false);
            let mut sd = CorrelationMonitor::new(W, LEVELS, F, r, m).with_verification(false);
            // Warm-up: fill one full window (not timed).
            for i in 0..N {
                for (s, stream) in data.iter().enumerate() {
                    ss.append(s as StreamId, stream[i]);
                    sd.append(s as StreamId, stream[i]);
                }
            }
            let (ss_pairs, ss_ms) = timed(|| {
                let mut pairs = 0u64;
                for i in N..N + ARRIVALS {
                    for (s, stream) in data.iter().enumerate() {
                        pairs += ss.append(s as StreamId, stream[i]).len() as u64;
                    }
                }
                pairs
            });
            let (sd_pairs, sd_ms) = timed(|| {
                let mut pairs = 0u64;
                for i in N..N + ARRIVALS {
                    for (s, stream) in data.iter().enumerate() {
                        pairs += sd.append(s as StreamId, stream[i]).len() as u64;
                    }
                }
                pairs
            });
            table.row(&[
                m.to_string(),
                format!("{r}"),
                format!("{ss_ms:.0}"),
                format!("{sd_ms:.0}"),
                format!("{:.2}", ss_ms / sd_ms),
                ss_pairs.to_string(),
                sd_pairs.to_string(),
            ]);
        }
    }
    table.print();
}
