//! Durable persistence must survive process death and disk damage
//! without changing what the framework detects.
//!
//! The tests here kill the whole runtime (`crash()`), damage its files
//! (torn writes, bit flips, truncations, failed fsyncs), reopen the
//! directory, re-submit everything past the durable watermark, and
//! require the union of all delivered events to be *bit-identical* to
//! an unfaulted single-threaded run. The proptest at the bottom attacks
//! the WAL at arbitrary byte offsets: `open()` must either recover
//! exactly or return a typed [`RecoveryError`] — never panic, never
//! silently drop a checksummed-complete record. Two more tests make
//! that sweep exhaustive (every offset, both damage modes) and add a
//! multi-seed crash-storm stress.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use stardust_core::query::aggregate::WindowSpec;
use stardust_core::stream::StreamId;
use stardust_core::transform::TransformKind;
use stardust_core::unified::Event;
use stardust_datagen::random_walk::{observed_r_max, random_walk_streams};
use stardust_runtime::{
    sort_events, AggregateSpec, Batch, CorrelationSpec, DiskFaultKind, DiskFile, FaultPlan,
    MonitorSpec, PersistConfig, RecoveryPolicy, RuntimeConfig, ShardedRuntime, SyncPolicy,
    TrendPattern, TrendSpec,
};
use stardust_telemetry::Registry;

const BASE_WINDOW: usize = 16;
const LEVELS: usize = 3;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sd-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn workload(seed: u64, n_streams: usize, n_values: usize) -> (Vec<Vec<f64>>, f64) {
    let streams = random_walk_streams(seed, n_streams, n_values);
    let r_max = observed_r_max(&streams);
    (streams, r_max)
}

/// Aggregate + trend spec whose thresholds the workload actually
/// crosses, so the event-set equality below is not vacuous.
fn spec_for(streams: &[Vec<f64>], r_max: f64) -> MonitorSpec {
    let window = 2 * BASE_WINDOW;
    let max_sum = streams
        .iter()
        .flat_map(|s| s.windows(window).map(|w| w.iter().sum::<f64>()))
        .fold(f64::MIN, f64::max);
    let pattern: Vec<f64> = streams[0][8..8 + window].to_vec();
    MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_aggregates(AggregateSpec {
            transform: TransformKind::Sum,
            windows: vec![WindowSpec { window, threshold: max_sum * 0.98 }],
            box_capacity: 4,
        })
        .with_trends(TrendSpec {
            coeffs: 4,
            box_capacity: 4,
            patterns: vec![TrendPattern { sequence: pattern, radius: 0.05 }],
        })
}

/// Every event an unfaulted single-threaded monitor emits for the
/// feed, in emission order (the order a single-shard worker delivers
/// and acks them in).
fn emission_ordered_events(
    spec: &MonitorSpec,
    streams: &[Vec<f64>],
    n_values: usize,
) -> Vec<Event> {
    let mut monitor = spec.build(streams.len()).unwrap().unwrap();
    let mut events = Vec::new();
    for t in 0..n_values {
        for (s, stream) in streams.iter().enumerate() {
            events.extend(monitor.append(s as StreamId, stream[t]));
        }
    }
    events
}

/// Same, sorted for set comparison.
fn reference_events(spec: &MonitorSpec, streams: &[Vec<f64>], n_values: usize) -> Vec<Event> {
    let mut events = emission_ordered_events(spec, streams, n_values);
    sort_events(&mut events);
    events
}

fn config(shards: usize, faults: Option<Arc<FaultPlan>>, snapshot_every: u64) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        queue_capacity: 32,
        recovery: Some(RecoveryPolicy { snapshot_every }),
        fault_plan: faults,
        ..RuntimeConfig::default()
    }
}

/// The exact sequence of appends shard `shard` journals for a full
/// row-major feed (global ids kept — re-submission uses the public API).
fn shard_feed(
    streams: &[Vec<f64>],
    n_values: usize,
    shard: usize,
    n_shards: usize,
) -> Vec<(StreamId, f64)> {
    let mut feed = Vec::new();
    for t in 0..n_values {
        for (s, stream) in streams.iter().enumerate() {
            if s % n_shards == shard {
                feed.push((s as StreamId, stream[t]));
            }
        }
    }
    feed
}

/// The full cycle: feed through a persisted runtime under `faults`,
/// kill the process (`crash()`), reopen the directory under
/// `reopen_faults` (the at-rest damage `open()` applies before its
/// scan), re-submit everything past each shard's durable watermark, and
/// return the union of every event delivered along the way (sorted).
#[allow(clippy::too_many_arguments)]
fn crash_reopen_resubmit(
    dir: &Path,
    spec: &MonitorSpec,
    streams: &[Vec<f64>],
    n_values: usize,
    shards: usize,
    sync: SyncPolicy,
    faults: Option<Arc<FaultPlan>>,
    reopen_faults: Option<Arc<FaultPlan>>,
    snapshot_every: u64,
) -> Vec<Event> {
    let persist = PersistConfig::new(dir).sync(sync);
    let (rt, _) =
        ShardedRuntime::open(spec, streams.len(), config(shards, faults, snapshot_every), {
            persist.clone()
        })
        .unwrap();
    for t in 0..n_values {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        if rt.submit_blocking(&batch).is_err() {
            // A wedged shard failed stop; the rest of this feed is
            // re-submitted from the durable watermark after reopen.
            break;
        }
    }
    let mut all_events = rt.crash().events;

    let reopen = config(shards, reopen_faults, snapshot_every);
    let (rt, report) = ShardedRuntime::open(spec, streams.len(), reopen, persist).unwrap();
    all_events.extend(rt.drain_events());
    let n_shards = rt.n_shards();
    for shard_report in &report.shards {
        let feed = shard_feed(streams, n_values, shard_report.shard, n_shards);
        assert!(
            shard_report.durable_appends as usize <= feed.len(),
            "durable watermark beyond the submitted feed"
        );
        for &(stream, value) in &feed[shard_report.durable_appends as usize..] {
            rt.append_blocking(stream, value).unwrap();
        }
    }
    let report = rt.shutdown();
    all_events.extend(report.events);
    assert_eq!(
        report.stats.total_appends(),
        (streams.len() * n_values) as u64,
        "the resubmitted run must cover the entire feed exactly once"
    );
    sort_events(&mut all_events);
    all_events
}

/// Baseline: kill the process mid-stream, reopen, keep feeding — the
/// event set matches the unfaulted single monitor. The second pass at
/// each shard count also kills shard 0's worker in the reopened
/// runtime, after the appends `open()` recovered and before the first
/// new snapshot, so the supervisor respawns it from the journal
/// `open()` seeded from disk.
#[test]
fn crash_and_reopen_recover_the_exact_event_set() {
    let n_values = 384;
    let (streams, r_max) = workload(11, 4, n_values);
    let spec = spec_for(&streams, r_max);
    let reference = reference_events(&spec, &streams, n_values);
    assert!(!reference.is_empty(), "workload must produce events");

    for (shards, kill_second_life) in [(1usize, false), (3, false), (1, true), (3, true)] {
        let dir = tempdir(&format!("reopen-{shards}-{kill_second_life}"));
        let persist = PersistConfig::new(&dir).sync(SyncPolicy::EveryN(64));
        let (rt, report) =
            ShardedRuntime::open(&spec, streams.len(), config(shards, None, 64), persist.clone())
                .unwrap();
        assert_eq!(report.total_durable_appends(), 0, "fresh directory");
        let half = n_values / 2;
        for t in 0..half {
            let batch: Batch =
                streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
        let mut all_events = rt.crash().events;

        // Shard 0 resumes at its durable ordinal and snapshots again 64
        // appends later; the kill lands 20 appends in.
        let shard0_durable = shard_feed(&streams, half, 0, shards).len() as u64;
        let kill =
            kill_second_life.then(|| Arc::new(FaultPlan::new().kill(0, shard0_durable + 20)));
        let (rt, report) =
            ShardedRuntime::open(&spec, streams.len(), config(shards, kill.clone(), 64), persist)
                .unwrap();
        assert_eq!(
            report.total_durable_appends(),
            (streams.len() * half) as u64,
            "crash() drains accepted batches, so everything submitted is durable"
        );
        assert_eq!(report.shards[0].durable_appends, shard0_durable);
        all_events.extend(rt.drain_events());
        for t in half..n_values {
            let batch: Batch =
                streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
        let report = rt.shutdown();
        if let Some(plan) = &kill {
            assert_eq!(plan.fired_count(), 1, "the second-life kill must fire");
            assert_eq!(report.stats.total_restarts(), 1, "the killed worker was respawned");
        }
        all_events.extend(report.events);
        sort_events(&mut all_events);
        assert_eq!(all_events, reference, "event set diverged at {shards} shards");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The correlation class through `open()`: the reopened runtime's
/// first pulled answer is bit-identical to the crashed runtime's last,
/// and the WAL replay itself republishes the shards' sketches to the
/// collector board, as a respawn's replay does. Each shard snapshots
/// exactly once, after the first 80 rows, so the replayed suffix holds
/// 40 rows per stream and crosses at least two 16-value sketch blocks.
#[test]
fn reopened_correlation_answer_is_bit_identical() {
    let (rows_before_snapshot, rows_after) = (80, 40);
    let n_values = rows_before_snapshot + rows_after;
    let n_streams = 6;
    let (streams, r_max) = workload(16, n_streams, n_values);
    let spec = MonitorSpec::new(BASE_WINDOW, LEVELS, r_max)
        .with_correlations(CorrelationSpec { coeffs: 4, radius: 0.5 });
    let feed_rows = |rt: &ShardedRuntime, rows: std::ops::Range<usize>| {
        for t in rows {
            let batch: Batch =
                streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
    };

    for shards in [2usize, 3] {
        let dir = tempdir(&format!("corr-{shards}"));
        let persist = PersistConfig::new(&dir).sync(SyncPolicy::EveryN(64));
        // Each shard reaches the cadence exactly at the last batch
        // before the barrier query, and never again.
        let snapshot_every = (n_streams / shards * rows_before_snapshot) as u64;
        let cfg = || config(shards, None, snapshot_every);
        let (rt, _) = ShardedRuntime::open(&spec, n_streams, cfg(), persist.clone()).unwrap();
        feed_rows(&rt, 0..rows_before_snapshot);
        // Queries ride the shard queues: once this answers, every batch
        // before it has committed, and its snapshot with it.
        rt.class_stats().unwrap();
        feed_rows(&rt, rows_before_snapshot..n_values);
        let before = rt.correlated_pairs().unwrap();
        assert!(!before.is_empty(), "workload must produce correlated pairs");
        drop(rt.crash());

        let (rt, report) = ShardedRuntime::open(&spec, n_streams, cfg(), persist).unwrap();
        for shard in &report.shards {
            assert_eq!(
                shard.replayed as usize,
                n_streams / shards * rows_after,
                "shard {} must replay exactly the post-snapshot rows",
                shard.shard
            );
        }
        let after = rt.correlated_pairs().unwrap();
        let bits = |pairs: &[(StreamId, StreamId, f64)]| -> Vec<(StreamId, StreamId, u64)> {
            pairs.iter().map(|&(a, b, c)| (a, b, c.to_bits())).collect()
        };
        assert_eq!(bits(&after), bits(&before), "reopened answer diverged at {shards} shards");
        assert!(
            rt.cross_corr_stats().exchanges > 0,
            "open()'s replay must publish sketches at {shards} shards"
        );
        drop(rt.shutdown());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every sync policy recovers the same state — the policy paces
/// fsyncs, not what is written (process death keeps unsynced bytes).
#[test]
fn all_sync_policies_recover_identically() {
    let n_values = 192;
    let (streams, r_max) = workload(12, 3, n_values);
    let spec = spec_for(&streams, r_max);
    let reference = reference_events(&spec, &streams, n_values);

    for (tag, sync) in [
        ("always", SyncPolicy::Always),
        ("every", SyncPolicy::EveryN(8)),
        ("onsnap", SyncPolicy::OnSnapshot),
    ] {
        let dir = tempdir(&format!("sync-{tag}"));
        let events =
            crash_reopen_resubmit(&dir, &spec, &streams, n_values, 2, sync, None, None, 48);
        assert_eq!(events, reference, "policy {tag} diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn WAL write wedges its shard (fail stop), the torn tail is
/// truncated at reopen, and re-submission from the durable watermark
/// restores the exact event set. A WAL truncated at rest before the
/// reopen loses records the same way, but also the acks of events
/// already delivered: that tail is re-delivered (at-least-once), so the
/// *deduplicated* union must equal the reference.
#[test]
fn torn_write_fails_stop_and_recovers_the_prefix() {
    let n_values = 256;
    let (streams, r_max) = workload(13, 4, n_values);
    let spec = spec_for(&streams, r_max);
    let reference = reference_events(&spec, &streams, n_values);

    // Tear the write that crosses byte 900 of shard 0's WAL — far
    // enough in that complete records precede it.
    let plan = Arc::new(FaultPlan::new().disk_fault(0, DiskFaultKind::TornWrite { at_byte: 900 }));
    let dir = tempdir("torn");
    let events = crash_reopen_resubmit(
        &dir,
        &spec,
        &streams,
        n_values,
        2,
        SyncPolicy::EveryN(16),
        Some(Arc::clone(&plan)),
        None,
        64,
    );
    assert_eq!(plan.fired_count(), 1, "the torn write must fire");
    assert_eq!(events, reference, "torn write changed the detected event set");
    let _ = std::fs::remove_dir_all(&dir);

    // Cut shard 0's WAL just past its 28-byte segment header at reopen.
    // With no snapshot the segment is the shard's whole history, so the
    // cut destroys every batch and ack record it held and every event
    // the shard delivered before the kill comes back a second time.
    let plan = Arc::new(FaultPlan::new().disk_fault(0, DiskFaultKind::TruncateWal { at_byte: 30 }));
    let dir = tempdir("truncate");
    let mut events = crash_reopen_resubmit(
        &dir,
        &spec,
        &streams,
        n_values,
        2,
        SyncPolicy::EveryN(8),
        None,
        Some(Arc::clone(&plan)),
        0,
    );
    assert_eq!(plan.fired_count(), 1, "the truncation must fire at reopen");
    assert!(events.len() > reference.len(), "the ack-destroyed tail was not re-delivered");
    events.dedup();
    assert_eq!(events, reference, "truncated WAL changed the deduplicated event set");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected fsync failure aborts a snapshot rotation; the chain
/// stays on the previous generation and nothing is lost.
#[test]
fn failed_fsync_aborts_rotation_but_loses_nothing() {
    let n_values = 256;
    let (streams, r_max) = workload(14, 4, n_values);
    let spec = spec_for(&streams, r_max);
    let reference = reference_events(&spec, &streams, n_values);

    let plan = Arc::new(
        FaultPlan::new()
            .disk_fault(0, DiskFaultKind::FailFsync { nth: 2 })
            .disk_fault(1, DiskFaultKind::FailFsync { nth: 0 }),
    );
    let dir = tempdir("fsync");
    let events = crash_reopen_resubmit(
        &dir,
        &spec,
        &streams,
        n_values,
        2,
        SyncPolicy::EveryN(8),
        Some(Arc::clone(&plan)),
        None,
        32,
    );
    assert_eq!(plan.fired_count(), 2);
    assert_eq!(events, reference, "aborted rotation changed the detected event set");
    let _ = std::fs::remove_dir_all(&dir);
    // A worker killed while its shard's on-disk chain is a generation
    // behind the state it reached. Shard 1's `nth: 0` fails its first
    // fsync, which aborts its open-time rotation (shard 0's `nth: 2`
    // fails the fresh WAL's header sync instead), so shard 1 journals
    // on the gen-0 WAL until its first cadence snapshot at append 32.
    // The kill at append 20 lands in between: the respawn reads the
    // older generation plus the longer WAL back from disk.
    let plan = Arc::new(
        FaultPlan::new()
            .disk_fault(0, DiskFaultKind::FailFsync { nth: 2 })
            .disk_fault(1, DiskFaultKind::FailFsync { nth: 0 })
            .kill(1, 20),
    );
    let dir = tempdir("fsync-kill");
    let persist = PersistConfig::new(&dir).sync(SyncPolicy::EveryN(8));
    let (rt, _) =
        ShardedRuntime::open(&spec, streams.len(), config(2, Some(Arc::clone(&plan)), 32), persist)
            .unwrap();
    for t in 0..n_values {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    let mut events = rt.drain_events();
    let report = rt.shutdown();
    assert_eq!(plan.fired_count(), 3, "both fsync failures and the kill must fire");
    assert_eq!(report.stats.total_restarts(), 1, "the killed worker was respawned once");
    events.extend(report.events);
    sort_events(&mut events);
    assert_eq!(events, reference, "respawn over an aborted rotation changed the event set");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip in the current snapshot file makes `open()` fall back to
/// the previous generation and rebuild the same state from its WALs.
#[test]
fn corrupt_snapshot_falls_back_one_generation() {
    let n_values = 320;
    let (streams, r_max) = workload(15, 3, n_values);
    let spec = spec_for(&streams, r_max);
    let reference = reference_events(&spec, &streams, n_values);

    let dir = tempdir("snapflip");
    let persist = PersistConfig::new(&dir).sync(SyncPolicy::EveryN(16));
    // Small cadence => several rotations, so a `.prev` generation exists.
    let (rt, _) =
        ShardedRuntime::open(&spec, streams.len(), config(1, None, 48), persist.clone()).unwrap();
    for t in 0..n_values {
        let batch: Batch = streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
        rt.submit_blocking(&batch).unwrap();
    }
    let mut all_events = rt.crash().events;
    assert!(dir.join("shard-0.snap.prev").exists(), "cadence must have rotated at least twice");

    let plan = Arc::new(
        FaultPlan::new()
            .disk_fault(0, DiskFaultKind::BitFlip { file: DiskFile::Snapshot, at_byte: 40 }),
    );
    let (rt, report) =
        ShardedRuntime::open(&spec, streams.len(), config(1, Some(plan), 48), persist).unwrap();
    assert!(report.any_fallback(), "damaged snapshot must trigger the fallback");
    assert_eq!(
        report.total_durable_appends(),
        (streams.len() * n_values) as u64,
        "the previous generation plus its WALs reproduce the full state"
    );
    all_events.extend(rt.drain_events());
    let report = rt.shutdown();
    all_events.extend(report.events);
    sort_events(&mut all_events);
    assert_eq!(all_events, reference, "fallback produced a different event set");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// WAL damage sweep: recover exactly or fail with a typed error.
// ---------------------------------------------------------------------

/// One frame of a clean WAL: where it ends, how many batch items it
/// carries (0 for ack records), and the cumulative delivered-event
/// count it acks (None for batch records).
struct Frame {
    end: usize,
    items: u64,
    ack: Option<u64>,
}

const WAL_HEADER_LEN: usize = 28;

/// Parses the frame layout of a clean WAL so damage outcomes can be
/// predicted exactly.
fn wal_frames(bytes: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 8..pos + 8 + len];
        let (items, ack) = match payload[0] {
            0x00 => (u32::from_le_bytes(payload[1..5].try_into().unwrap()) as u64, None),
            _ => (0, Some(u64::from_le_bytes(payload[1..9].try_into().unwrap()))),
        };
        pos += 8 + len;
        frames.push(Frame { end: pos, items, ack });
    }
    assert_eq!(pos, bytes.len(), "clean WAL must parse to its exact length");
    frames
}

/// A clean single-shard persisted run whose WAL carries every record
/// (cadence 0 => no rotation), ready for the damage sweep. The run's
/// directory is held in memory; each check writes its damaged copy into
/// a directory of its own and removes it.
struct WalFixture {
    tag: String,
    /// The clean run's files, by name.
    files: Vec<(OsString, Vec<u8>)>,
    spec: MonitorSpec,
    streams: Vec<Vec<f64>>,
    n_values: usize,
    clean_wal: Vec<u8>,
    frames: Vec<Frame>,
    /// The full event sequence in emission order — the clean run
    /// delivered (and acked) a prefix of exactly this sequence.
    ordered: Vec<Event>,
}

impl WalFixture {
    fn build(tag: &str, seed: u64, n_values: usize) -> Self {
        Self::build_with(tag, seed, n_values, SyncPolicy::EveryN(16), None)
    }

    /// Like [`WalFixture::build`], but the worker is stalled on its
    /// first append so the queue backs up and the backlog commits as
    /// genuinely multi-batch groups — the WAL is then a product of
    /// coalesced group writes (verified via the group telemetry, so
    /// the mid-group sweep cannot go vacuous).
    fn build_grouped(tag: &str, seed: u64, n_values: usize) -> Self {
        let plan = Arc::new(FaultPlan::new().stall(0, 1, std::time::Duration::from_millis(150)));
        Self::build_with(tag, seed, n_values, SyncPolicy::Always, Some(plan))
    }

    fn build_with(
        tag: &str,
        seed: u64,
        n_values: usize,
        sync: SyncPolicy,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let grouped = faults.is_some();
        let (streams, r_max) = workload(seed, 2, n_values);
        let spec = spec_for(&streams, r_max);
        let ordered = emission_ordered_events(&spec, &streams, n_values);
        let dir = tempdir(tag);
        let registry = Registry::new();
        let persist = PersistConfig::new(&dir).sync(sync);
        let mut cfg = config(1, faults, 0);
        cfg.telemetry = Some(registry.clone());
        let (rt, _) = ShardedRuntime::open(&spec, streams.len(), cfg, persist).unwrap();
        for t in 0..n_values {
            let batch: Batch =
                streams.iter().enumerate().map(|(s, x)| (s as StreamId, x[t])).collect();
            rt.submit_blocking(&batch).unwrap();
        }
        drop(rt.crash());
        if grouped {
            // Fewer group writes than batches proves at least one
            // coalesced multi-batch group landed on disk.
            let groups = registry.counter("stardust_persist_wal_group_writes_total", "").get();
            assert!(groups >= 1, "no group writes recorded");
            assert!(
                groups < n_values as u64,
                "stalled worker never coalesced a group ({groups} writes / {n_values} batches)"
            );
        }
        let clean_wal = std::fs::read(dir.join("shard-0.wal")).unwrap();
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.map(|e| (e.file_name(), std::fs::read(e.path()).unwrap())).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        let frames = wal_frames(&clean_wal);
        let total: u64 = frames.iter().map(|f| f.items).sum();
        assert_eq!(total, (streams.len() * n_values) as u64, "every append must be in the WAL");
        let tag = tag.to_string();
        WalFixture { tag, files, spec, streams, n_values, clean_wal, frames, ordered }
    }

    /// The frames that survive damage at `offset`: every frame that
    /// ends at or before it. (A frame containing the offset is the
    /// damaged one; for truncation nothing after the cut survives, and
    /// an offset inside the header keeps no frame at all.)
    fn frames_before(&self, offset: usize) -> &[Frame] {
        let n = self.frames.iter().take_while(|f| f.end <= offset).count();
        &self.frames[..n]
    }

    /// Whether `offset` falls inside the last frame.
    fn in_last_frame(&self, offset: usize) -> bool {
        let start = self.frames.len().checked_sub(2).map(|i| self.frames[i].end);
        offset >= start.unwrap_or(WAL_HEADER_LEN)
    }

    /// Applies `damage` to a scratch copy of the directory and opens
    /// it. On success: asserts the durable watermark is exactly the
    /// predicted complete-record prefix (nothing silently dropped, no
    /// damaged record resurrected), then re-submits the remainder and
    /// checks full event-set equality when `check_equality`. On error:
    /// the error is typed by construction — reaching a `Result` at all
    /// is the no-panic guarantee.
    fn check(&self, case: &str, damage: Damage, check_equality: bool) {
        let scratch = tempdir(&format!("{}-case", self.tag));
        for (name, bytes) in &self.files {
            std::fs::write(scratch.join(name), bytes).unwrap();
        }
        let wal_path = scratch.join("shard-0.wal");
        let mut bytes = self.clean_wal.clone();
        let (expect_ok, survivors) = match damage {
            Damage::Truncate(at) => {
                bytes.truncate(at);
                // Truncation is always tail damage: recovery keeps the
                // complete-record prefix (a destroyed header keeps
                // nothing — no complete record survives it).
                (true, self.frames_before(at))
            }
            Damage::Flip(at) => {
                bytes[at] ^= 0x01;
                if at < WAL_HEADER_LEN {
                    // Header damage is typed, never guessed around.
                    (false, &[][..])
                } else if self.in_last_frame(at) {
                    // Damage to the final record is a torn tail.
                    (true, self.frames_before(at))
                } else {
                    // Mid-log damage followed by complete records is
                    // data loss — must be a typed error, not a
                    // truncation that buries the survivors.
                    (false, &[][..])
                }
            }
        };
        let expected_durable: u64 = survivors.iter().map(|f| f.items).sum();
        // The last surviving ack is cumulative: that many events were
        // delivered in the previous life, so recovery must suppress
        // exactly that prefix of the emission order.
        let suppressed = survivors.iter().filter_map(|f| f.ack).next_back().unwrap_or(0);
        std::fs::write(&wal_path, &bytes).unwrap();

        let persist = PersistConfig::new(&scratch).sync(SyncPolicy::EveryN(16));
        let opened =
            ShardedRuntime::open(&self.spec, self.streams.len(), config(1, None, 0), persist);
        match opened {
            Ok((rt, report)) => {
                assert!(expect_ok, "{case}: expected a typed error, recovered instead");
                assert_eq!(
                    report.shards[0].durable_appends, expected_durable,
                    "{case}: watermark must equal the checksummed-complete prefix"
                );
                if check_equality {
                    let mut all_events = rt.drain_events();
                    let feed = shard_feed(&self.streams, self.n_values, 0, 1);
                    for &(stream, value) in &feed[expected_durable as usize..] {
                        rt.append_blocking(stream, value).unwrap();
                    }
                    all_events.extend(rt.shutdown().events);
                    sort_events(&mut all_events);
                    let mut expected = self.ordered[suppressed as usize..].to_vec();
                    sort_events(&mut expected);
                    assert_eq!(
                        all_events, expected,
                        "{case}: recovered + resubmitted events diverged \
                         (suppressed={suppressed})"
                    );
                } else {
                    drop(rt.crash());
                }
            }
            Err(e) => {
                assert!(!expect_ok, "{case}: expected recovery, got {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    Truncate(usize),
    Flip(usize),
}

mod wal_damage {
    use super::*;
    use proptest::prelude::*;

    fn fixture() -> &'static WalFixture {
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<WalFixture> = OnceLock::new();
        FIXTURE.get_or_init(|| WalFixture::build("prop", 21, 96))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Sampled sweep: damage the WAL anywhere; `open()` recovers
        /// the exact complete-record prefix or fails typed. Event-set
        /// equality is re-proven on every recovered case.
        #[test]
        fn open_recovers_exactly_or_fails_typed(
            offset in 0usize..4096,
            flip in any::<bool>(),
        ) {
            let fx = fixture();
            let offset = offset % fx.clean_wal.len();
            let damage = if flip { Damage::Flip(offset) } else { Damage::Truncate(offset) };
            fx.check(&format!("{damage:?}"), damage, true);
        }
    }
}

/// Crash-mid-group sweep: the fixture WAL was written by coalesced
/// multi-batch group commits under `SyncPolicy::Always` (asserted, not
/// assumed). Killing the process after every byte prefix of that WAL
/// must recover exactly the complete-record prefix the tear left —
/// batches of a torn group that made it to disk whole are applied
/// once, the torn tail is truncated, nothing is duplicated, and
/// `open()` never panics. Event-set equality is re-proven on a stride
/// of offsets (every recovery is still watermark-checked).
#[test]
fn crash_mid_group_prefix_sweep() {
    let fx = WalFixture::build_grouped("midgroup", 23, 48);
    for offset in 0..fx.clean_wal.len() {
        let check_equality = offset % 7 == 0;
        fx.check(&format!("group-truncate@{offset}"), Damage::Truncate(offset), check_equality);
    }
}

/// Exhaustive sweep: every byte offset, both damage modes.
#[test]
fn exhaustive_wal_damage_sweep() {
    let fx = WalFixture::build("sweep", 22, 64);
    for offset in 0..fx.clean_wal.len() {
        fx.check(&format!("truncate@{offset}"), Damage::Truncate(offset), false);
        fx.check(&format!("flip@{offset}"), Damage::Flip(offset), false);
    }
}

/// Multi-seed stress: random workloads under every disk-fault kind,
/// crash/reopen/re-submit, full event-set equality each time.
#[test]
fn multi_seed_disk_fault_storm() {
    for seed in 0..8u64 {
        let n_values = 192 + 16 * seed as usize;
        let (streams, r_max) = workload(100 + seed, 4, n_values);
        let spec = spec_for(&streams, r_max);
        let reference = reference_events(&spec, &streams, n_values);
        let kinds: Vec<FaultPlan> = vec![
            FaultPlan::new().disk_fault(0, DiskFaultKind::TornWrite { at_byte: 400 + 64 * seed }),
            FaultPlan::new().disk_fault(1, DiskFaultKind::FailFsync { nth: seed % 3 }),
            FaultPlan::new()
                .disk_fault(0, DiskFaultKind::TornWrite { at_byte: 700 })
                .disk_fault(1, DiskFaultKind::FailFsync { nth: 1 }),
        ];
        for (k, plan) in kinds.into_iter().enumerate() {
            let dir = tempdir(&format!("storm-{seed}-{k}"));
            let events = crash_reopen_resubmit(
                &dir,
                &spec,
                &streams,
                n_values,
                2,
                SyncPolicy::EveryN(8),
                Some(Arc::new(plan)),
                None,
                48,
            );
            assert_eq!(events, reference, "seed {seed} fault {k} diverged");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
