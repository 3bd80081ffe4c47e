//! The four workloads: frozen sizes and rates, seeded input generation,
//! and the monitor spec each one runs.
//!
//! Everything the system under test receives is generated here from
//! `--seed`; the system sees values and a [`MonitorSpec`], never a
//! workload name or a seed. Sizes and rates are constants of this file
//! (see README.md, "Frozen sizes"): a benchmark whose input moves
//! between runs cannot compare two commits.

use std::time::Instant;

use stardust_core::normalize::correlation_to_distance;
use stardust_core::query::aggregate::WindowSpec;
use stardust_core::stats::train_threshold;
use stardust_core::transform::TransformKind;
use stardust_datagen::burst::{burst_series, BurstParams};
use stardust_datagen::random_walk::{observed_r_max, random_walk_streams};
use stardust_runtime::{
    AggregateSpec, Batch, CorrelationSpec, MonitorSpec, TrendPattern, TrendSpec,
};

/// Worker shards every runtime in this benchmark runs (`nproc` = 2 on
/// the box the sizes were frozen on).
pub const SHARDS: usize = 2;
/// Client connections of the network path; each owns half the streams.
pub const CLIENTS: usize = 2;
/// Values per `Append` frame on the network path.
pub const FRAME_VALUES: usize = 64;
/// Frames kept in flight per round trip in the closed loop.
pub const PIPELINE: usize = 8;

/// Which path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// `ShardedRuntime::launch`, no persistence.
    Direct,
    /// `ShardedRuntime::open` with `SyncPolicy::Always`.
    Durable,
    /// In-process `Server` on loopback plus [`CLIENTS`] `Client`s.
    Loopback,
}

/// The ad-hoc query the second thread issues beside the ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `aggregate_interval(stream, window)`, cycling over streams.
    AggregateInterval,
    /// `correlated_pairs()`.
    CorrelatedPairs,
}

/// How a workload's values are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Poisson counts with rare planted bursts (`datagen::burst_series`).
    Bursts,
    /// Mean-reverting walks; the first half of the streams in planted
    /// groups of four that share a driver walk.
    PlantedWalks,
    /// Independent random walks (`datagen::random_walk_streams`).
    Walks,
}

/// One workload's frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name cited by BENCHMARK.json and later issues.
    pub name: &'static str,
    /// Path under test.
    pub path: PathKind,
    /// Input shape.
    pub input: InputKind,
    /// Monitored streams.
    pub streams: usize,
    /// Base window `W`.
    pub base_window: usize,
    /// Resolution levels.
    pub levels: usize,
    /// Aggregate class: monitored SUM windows (empty = class off).
    pub agg_windows: &'static [usize],
    /// Trend class: registered patterns (0 = class off).
    pub trend_patterns: usize,
    /// Correlation class on (f = 4, min-corr 0.9).
    pub corr: bool,
    /// Rows (one value per stream each) of one closed-loop trial,
    /// including its 10 % warm-up.
    pub closed_rows: usize,
    /// Open-loop rate in rows per second.
    pub open_rows_per_s: usize,
    /// The query issued beside the ingest.
    pub query: QueryKind,
}

/// DWT coefficients `f` of the trend and correlation classes.
pub const COEFFS: usize = 4;
/// Box capacity `c` of the aggregate and trend classes.
pub const BOX_CAPACITY: usize = 4;
/// Minimum correlation of the correlation class.
pub const MIN_CORR: f64 = 0.9;
/// Trend match radius (normalized).
pub const TREND_RADIUS: f64 = 0.002;
/// `λ` of the burst thresholds `μ + λσ`.
pub const BURST_LAMBDA: f64 = 9.0;
/// Share of training window sums a random-walk SUM threshold sits above.
pub const WALK_QUANTILE: f64 = 0.995;

/// Burst input: rare, short bursts so that alarms track planted bursts
/// (the datagen default plants bursts over ~17 % of the ticks).
pub const BURSTS: BurstParams = BurstParams {
    background_rate: 2.0,
    bursts_per_kilo_tick: 0.1,
    min_duration: 8,
    duration_shape: 2.5,
    intensity: 4.0,
};

/// The four workloads, in the order they are reported.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "agg_wide",
        path: PathKind::Direct,
        input: InputKind::Bursts,
        streams: 512,
        base_window: 16,
        levels: 4,
        agg_windows: &[32, 64, 128],
        trend_patterns: 0,
        corr: false,
        closed_rows: 768,
        open_rows_per_s: 400,
        query: QueryKind::AggregateInterval,
    },
    Workload {
        name: "corr_index",
        path: PathKind::Direct,
        input: InputKind::PlantedWalks,
        streams: 128,
        base_window: 8,
        levels: 4,
        agg_windows: &[],
        trend_patterns: 0,
        corr: true,
        closed_rows: 2048,
        open_rows_per_s: 1000,
        query: QueryKind::CorrelatedPairs,
    },
    Workload {
        name: "durable_mixed",
        path: PathKind::Durable,
        input: InputKind::Walks,
        streams: 64,
        base_window: 16,
        levels: 3,
        agg_windows: &[32],
        trend_patterns: 32,
        corr: true,
        // 1567 rows × 32 streams per shard is not a multiple of the
        // snapshot cadence (1024 appends), so recovery has a WAL suffix
        // to replay; 1536 rows would end exactly on a snapshot.
        closed_rows: 1567,
        open_rows_per_s: 500,
        query: QueryKind::AggregateInterval,
    },
    Workload {
        name: "net_loopback",
        path: PathKind::Loopback,
        input: InputKind::Walks,
        streams: 64,
        base_window: 16,
        levels: 3,
        agg_windows: &[32],
        trend_patterns: 4,
        corr: false,
        closed_rows: 4096,
        open_rows_per_s: 2000,
        query: QueryKind::AggregateInterval,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rows of the open-loop phase lasting `seconds`.
    pub fn open_rows(&self, seconds: f64) -> usize {
        // Whole frames on the network path: a frame carries
        // FRAME_VALUES / (streams / CLIENTS) rows.
        let per_frame = self.rows_per_frame();
        let rows = (self.open_rows_per_s as f64 * seconds).ceil() as usize;
        rows.div_ceil(per_frame).max(1) * per_frame
    }

    /// Rows one network frame carries for one client.
    pub fn rows_per_frame(&self) -> usize {
        (FRAME_VALUES / (self.streams / CLIENTS)).max(1)
    }

    /// A copy shrunk for `--smoke`: the same shape at a fraction of the
    /// rows and streams.
    pub fn smoke(&self) -> Workload {
        Workload {
            streams: (self.streams / 4).max(32),
            closed_rows: 640,
            open_rows_per_s: self.open_rows_per_s.min(1000),
            ..*self
        }
    }

    /// The first monitored aggregate window (the one ad-hoc interval
    /// queries ask about).
    pub fn query_window(&self) -> usize {
        self.agg_windows.first().copied().unwrap_or(0)
    }

    /// The correlation window `W·2^(levels−1)`.
    pub fn corr_window(&self) -> usize {
        self.base_window << (self.levels - 1)
    }
}

/// SplitMix64, used to derive per-stream seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Generates `rows` values for each of the workload's streams.
pub fn generate(w: &Workload, seed: u64, rows: usize) -> Vec<Vec<f64>> {
    match w.input {
        InputKind::Bursts => {
            (0..w.streams).map(|s| burst_series(mix(seed, s as u64), rows, &BURSTS).0).collect()
        }
        InputKind::Walks => random_walk_streams(seed, w.streams, rows),
        InputKind::PlantedWalks => {
            // Mean-reverting walks (AR(1), φ = 0.9). The first half of
            // the streams form groups of four that share one driver and
            // add a small private walk each, so range queries return
            // real neighbours and verification runs; members 4k..4k+3
            // land two per shard, so every group has same-shard and
            // cross-shard pairs. The rest are independent. Plain random
            // walks would not do: two unrelated ones correlate above 0.9
            // by chance in a tenth of all windows, which turns the
            // workload into an event-allocation benchmark; white noise
            // would not either, as it empties the leading Haar
            // coefficients and makes every stream everyone's neighbour.
            const PHI: f64 = 0.9;
            const PRIVATE: f64 = 0.2;
            let walk = |walk_seed: u64| -> Vec<f64> {
                let mut x = 0.0;
                (0..rows as u64)
                    .map(|t| {
                        let unit = (mix(walk_seed, t) >> 11) as f64 / (1u64 << 53) as f64;
                        x = PHI * x + unit - 0.5;
                        x
                    })
                    .collect()
            };
            let planted = w.streams / 2 / 4 * 4;
            let drivers: Vec<Vec<f64>> =
                (0..planted / 4).map(|g| walk(mix(seed, 1_000_000 + g as u64))).collect();
            (0..w.streams)
                .map(|s| {
                    let own = walk(mix(seed, s as u64));
                    if s < planted {
                        own.iter().zip(&drivers[s / 4]).map(|(&o, &d)| d + PRIVATE * o).collect()
                    } else {
                        own
                    }
                })
                .collect()
        }
    }
}

/// The exact `q`-quantile of the `window`-sums over the first quarter
/// of every stream.
fn walk_sum_quantile(streams: &[Vec<f64>], window: usize, q: f64) -> f64 {
    let train = (streams[0].len() / 4).max(window + 1).min(streams[0].len());
    let mut sums: Vec<f64> = streams
        .iter()
        .flat_map(|s| s[..train].windows(window).map(|w| w.iter().sum::<f64>()))
        .collect();
    sums.sort_by(f64::total_cmp);
    crate::quant::nearest_rank(&sums, q)
}

/// Builds the monitor spec: thresholds trained on a prefix of the data,
/// trend patterns cut from it.
pub fn train(w: &Workload, streams: &[Vec<f64>]) -> MonitorSpec {
    let rows = streams[0].len();
    let r_max = observed_r_max(streams);
    let mut spec = MonitorSpec::new(w.base_window, w.levels, r_max);
    if !w.agg_windows.is_empty() {
        let windows = w
            .agg_windows
            .iter()
            .map(|&window| {
                let threshold = match w.input {
                    InputKind::Bursts => {
                        // μ + λσ per stream over a prefix (§6.1), median
                        // over a sample of streams: the streams are
                        // identically distributed and share one spec.
                        let train = (rows / 4).max(window + 1).min(rows);
                        let mut per_stream: Vec<f64> = streams
                            .iter()
                            .take(32)
                            .filter_map(|s| {
                                train_threshold(&s[..train], window, BURST_LAMBDA, |x| {
                                    x.iter().sum::<f64>()
                                })
                            })
                            .collect();
                        per_stream.sort_by(f64::total_cmp);
                        per_stream[per_stream.len() / 2]
                    }
                    _ => walk_sum_quantile(streams, window, WALK_QUANTILE),
                };
                WindowSpec { window, threshold }
            })
            .collect();
        spec = spec.with_aggregates(AggregateSpec {
            transform: TransformKind::Sum,
            windows,
            box_capacity: BOX_CAPACITY,
        });
    }
    if w.trend_patterns > 0 {
        let len = 2 * w.base_window;
        let span = rows.saturating_sub(len + 16).max(1);
        let patterns = (0..w.trend_patterns)
            .map(|i| {
                let stream = (i * 7) % streams.len();
                let start = 8 + (i * 131) % span;
                TrendPattern {
                    sequence: streams[stream][start..start + len].to_vec(),
                    radius: TREND_RADIUS,
                }
            })
            .collect();
        spec = spec.with_trends(TrendSpec { coeffs: COEFFS, box_capacity: BOX_CAPACITY, patterns });
    }
    if w.corr {
        spec = spec.with_correlations(CorrelationSpec {
            coeffs: COEFFS,
            radius: correlation_to_distance(MIN_CORR),
        });
    }
    spec
}

/// Everything one workload run feeds the system: the values, the spec,
/// and the pre-built submissions (so the timed loops only submit).
pub struct Prepared {
    /// The workload.
    pub w: Workload,
    /// `streams[s][row]`.
    pub streams: Vec<Vec<f64>>,
    /// The monitor spec.
    pub spec: MonitorSpec,
    /// One batch per row, all streams in id order (direct paths).
    pub batches: Vec<Batch>,
    /// Per client, one frame per [`Workload::rows_per_frame`] rows of
    /// that client's streams in tenant-local ids (network path).
    pub frames: Vec<Vec<Vec<(u32, f64)>>>,
    /// Seconds spent generating values.
    pub gen_s: f64,
}

/// One batch per row, all streams in id order.
pub fn row_batches(streams: &[Vec<f64>]) -> Vec<Batch> {
    (0..streams[0].len())
        .map(|row| streams.iter().enumerate().map(|(s, x)| (s as u32, x[row])).collect())
        .collect()
}

/// Generates, trains and pre-builds the submissions for `rows` rows.
pub fn prepare(w: &Workload, seed: u64, rows: usize) -> Prepared {
    let t = Instant::now();
    let streams = generate(w, seed, rows);
    let gen_s = t.elapsed().as_secs_f64();
    let spec = train(w, &streams);
    let (mut batches, mut frames) = (Vec::new(), Vec::new());
    if w.path == PathKind::Loopback {
        let per_client = w.streams / CLIENTS;
        let per_frame = w.rows_per_frame();
        frames = (0..CLIENTS)
            .map(|c| {
                (0..rows / per_frame)
                    .map(|k| {
                        (k * per_frame..(k + 1) * per_frame)
                            .flat_map(|row| {
                                let streams = &streams;
                                (0..per_client).map(move |l| {
                                    let s = c * per_client + l;
                                    (s as u32, streams[s][row])
                                })
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
    } else {
        batches = row_batches(&streams);
    }
    Prepared { w: *w, streams, spec, batches, frames, gen_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        for w in &WORKLOADS {
            let w = w.smoke();
            let a = generate(&w, 42, 200);
            assert_eq!(a, generate(&w, 42, 200), "{}", w.name);
            assert_ne!(a, generate(&w, 7, 200), "{}", w.name);
            assert_eq!(a.len(), w.streams);
        }
    }

    #[test]
    fn frames_cover_every_value_once_in_row_order() {
        let w = by_name("net_loopback").unwrap().smoke();
        let p = prepare(&w, 3, 64);
        let per_client = w.streams / CLIENTS;
        let mut seen = vec![0usize; w.streams];
        for frames in &p.frames {
            for frame in frames {
                assert_eq!(frame.len(), w.rows_per_frame() * per_client);
                for &(s, v) in frame {
                    assert_eq!(v, p.streams[s as usize][seen[s as usize]]);
                    seen[s as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 64));
    }

    #[test]
    fn planted_groups_correlate_and_open_rows_are_whole_frames() {
        let w = by_name("corr_index").unwrap();
        let s = generate(w, 42, 256);
        let n = w.corr_window();
        let corr =
            stardust_core::normalize::correlation(&s[0][256 - n..], &s[2][256 - n..]).unwrap();
        assert!(corr > MIN_CORR, "planted pair correlation {corr}");
        let net = by_name("net_loopback").unwrap();
        assert_eq!(net.open_rows(0.0105) % net.rows_per_frame(), 0);
    }
}
