//! Durable on-disk persistence for the sharded runtime: the file
//! backend of a shard's log ([`crate::log::ShardLog::File`]), and the
//! scan that reads it back for `open()` and for a respawned worker.
//!
//! Layout of a persistence directory for `S` shards:
//!
//! ```text
//! shard-N.wal        live write-ahead log, generation g
//! shard-N.wal.prev   the WAL segment between snapshots g−1 and g
//! shard-N.snap       snapshot generation g (atomic: tmp + rename)
//! shard-N.snap.prev  snapshot generation g−1 (corruption fallback)
//! shard-N.snap.tmp   in-flight snapshot; adopted or deleted on open
//! ```
//!
//! The invariant after every completed snapshot rotation: `shard-N.snap`
//! at generation `g` plus the records of `shard-N.wal` (generation `g`)
//! reproduce the shard's monitor exactly; if `shard-N.snap` is damaged,
//! `shard-N.snap.prev` plus `shard-N.wal.prev` plus `shard-N.wal`
//! reproduce the same state. Rotation keeps at least one intact
//! generation durable through every crash window: the new snapshot is
//! written to a temp file and fsynced *before* any rename, nothing is
//! deleted until the new generation is in place, and the old WAL
//! segment is retained as `.prev` rather than deleted — WAL
//! "truncation" is segment rotation.
//!
//! A snapshot rotation whose fsync fails is aborted: the shard keeps
//! appending to its current WAL segment, which remains self-consistent
//! with the on-disk snapshot chain (the chain only advances after the
//! new generation is durable).
//!
//! Residual exposure, by design: losing an *entire* `.wal.prev` file at
//! rest while `shard-N.snap` is simultaneously corrupt is
//! indistinguishable from the (legal, common) empty inter-generation
//! segment, so that double fault falls back without the missing
//! records. Every single-fault state either recovers exactly or fails
//! with a typed [`RecoveryError`].

pub(crate) mod crc32;
mod snapfile;
mod wal;

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use stardust_core::stream::StreamId;

use crate::fault::{DiskFaultKind, DiskFile, FaultPlan};
use crate::log::Journal;
use crate::telemetry::RuntimeTelemetry;

use wal::{scan_wal, WalFile, WalWriter};

/// When the write-ahead log is flushed to stable storage.
///
/// Every WAL write goes straight to the file descriptor, so a record
/// survives *process* death (kill −9, panic, OOM) as soon as the append
/// returns regardless of policy. The policy only paces `fsync`, which
/// is what survives machine/power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record — strongest durability, slowest ingest.
    Always,
    /// fsync after every `n` records — bounded power-loss exposure.
    EveryN(u64),
    /// fsync only when a snapshot rotates — fastest; a power cut can
    /// lose the whole live segment (process crashes still lose
    /// nothing).
    OnSnapshot,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::EveryN(64)
    }
}

/// Where and how the runtime persists shard state.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the per-shard WAL and snapshot files (created
    /// if absent).
    pub dir: PathBuf,
    /// fsync pacing for the WAL.
    pub sync: SyncPolicy,
}

impl PersistConfig {
    /// Persistence under `dir` with the default [`SyncPolicy`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig { dir: dir.into(), sync: SyncPolicy::default() }
    }

    /// Overrides the sync policy.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }
}

/// Typed failures surfaced by [`crate::ShardedRuntime::open`]. Torn
/// *tails* are not errors (they are truncated and recovery proceeds);
/// these are the states recovery refuses to guess about.
#[derive(Debug)]
pub enum RecoveryError {
    /// An I/O operation on a persistence file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A file's magic or fixed header fields are damaged.
    BadHeader {
        /// The file involved.
        path: PathBuf,
        /// What was wrong.
        detail: &'static str,
    },
    /// A damaged WAL record with checksummed-complete records after it.
    /// Truncating here would silently drop records that verify, so
    /// recovery refuses.
    CorruptRecord {
        /// The WAL segment involved.
        path: PathBuf,
        /// Offset of the first damaged byte.
        offset: u64,
    },
    /// A snapshot file failed validation and no previous generation
    /// could take its place.
    CorruptSnapshot {
        /// The snapshot file involved.
        path: PathBuf,
        /// What was wrong.
        detail: &'static str,
    },
    /// A WAL segment's generation does not chain onto the snapshot it
    /// extends — the directory holds files from different histories.
    GenerationMismatch {
        /// The WAL segment involved.
        path: PathBuf,
        /// Generation the chain requires.
        expected: u64,
        /// Generation found in the file.
        found: u64,
    },
    /// The directory holds files for more shards than the runtime was
    /// configured with — reopening with a smaller shard count would
    /// silently strand their data.
    ShardLayoutMismatch {
        /// The persistence directory.
        dir: PathBuf,
        /// Highest shard index found on disk, plus one.
        found: usize,
        /// Shards the runtime was configured with.
        expected: usize,
    },
}

impl RecoveryError {
    pub(crate) fn io(path: &Path, source: io::Error) -> Self {
        RecoveryError::Io { path: path.to_path_buf(), source }
    }

    pub(crate) fn bad_header(path: &Path, detail: &'static str) -> Self {
        RecoveryError::BadHeader { path: path.to_path_buf(), detail }
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            RecoveryError::BadHeader { path, detail } => {
                write!(f, "bad header in {}: {detail}", path.display())
            }
            RecoveryError::CorruptRecord { path, offset } => write!(
                f,
                "corrupt WAL record in {} at byte {offset}: valid records would be lost",
                path.display()
            ),
            RecoveryError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            RecoveryError::GenerationMismatch { path, expected, found } => write!(
                f,
                "generation mismatch in {}: expected {expected}, found {found}",
                path.display()
            ),
            RecoveryError::ShardLayoutMismatch { dir, found, expected } => write!(
                f,
                "{} holds files for {found} shards but the runtime is configured for {expected}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What [`crate::ShardedRuntime::open`] found and did for one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecoveryReport {
    /// The shard.
    pub shard: usize,
    /// Appends that were durable on disk (snapshot + WAL records) —
    /// everything before this per-shard ordinal survived; a producer
    /// that knows its feed order can resume from here.
    pub durable_appends: u64,
    /// WAL appends replayed through the restored monitor.
    pub replayed: u64,
    /// Replayed events that had *not* been delivered before the crash
    /// and were re-emitted to the collector.
    pub re_emitted: u64,
    /// Replayed events suppressed because a WAL ack proved they were
    /// already delivered.
    pub suppressed: u64,
    /// Torn-tail bytes truncated off WAL segments.
    pub truncated_bytes: u64,
    /// The current snapshot was damaged and recovery fell back to the
    /// previous generation.
    pub used_fallback: bool,
    /// Snapshot generation after the open-time rotation.
    pub generation: u64,
}

/// Per-shard recovery outcomes of one [`crate::ShardedRuntime::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// One entry per shard, indexed by shard id.
    pub shards: Vec<ShardRecoveryReport>,
}

impl RecoveryReport {
    /// Durable appends across shards.
    pub fn total_durable_appends(&self) -> u64 {
        self.shards.iter().map(|s| s.durable_appends).sum()
    }

    /// Replayed appends across shards.
    pub fn total_replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed).sum()
    }

    /// Whether any shard fell back to its previous snapshot generation.
    pub fn any_fallback(&self) -> bool {
        self.shards.iter().any(|s| s.used_fallback)
    }

    /// A fixed-width table for CLI / log output.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "shard   durable  replayed  re_emitted  suppressed  torn_bytes  fallback  gen\n",
        );
        for s in &self.shards {
            out.push_str(&format!(
                "{:>5} {:>9} {:>9} {:>11} {:>11} {:>11} {:>9} {:>4}\n",
                s.shard,
                s.durable_appends,
                s.replayed,
                s.re_emitted,
                s.suppressed,
                s.truncated_bytes,
                if s.used_fallback { "yes" } else { "no" },
                s.generation,
            ));
        }
        out
    }
}

/// The well-known paths of one shard's persistence files.
#[derive(Debug, Clone)]
pub(crate) struct ShardPaths {
    pub dir: PathBuf,
    pub snap: PathBuf,
    pub snap_prev: PathBuf,
    pub snap_tmp: PathBuf,
    pub wal: PathBuf,
    pub wal_prev: PathBuf,
}

impl ShardPaths {
    pub fn new(dir: &Path, shard: usize) -> Self {
        ShardPaths {
            dir: dir.to_path_buf(),
            snap: dir.join(format!("shard-{shard}.snap")),
            snap_prev: dir.join(format!("shard-{shard}.snap.prev")),
            snap_tmp: dir.join(format!("shard-{shard}.snap.tmp")),
            wal: dir.join(format!("shard-{shard}.wal")),
            wal_prev: dir.join(format!("shard-{shard}.wal.prev")),
        }
    }
}

/// Refuses to open a directory that holds files for shards the runtime
/// would not serve (their data would be silently stranded).
pub(crate) fn check_shard_layout(dir: &Path, n_shards: usize) -> Result<(), RecoveryError> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(RecoveryError::io(dir, e)),
        Ok(entries) => entries,
    };
    let mut max_found: Option<usize> = None;
    for entry in entries {
        let entry = entry.map_err(|e| RecoveryError::io(dir, e))?;
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("shard-")) else { continue };
        let Some(digits) = rest.split('.').next() else { continue };
        if let Ok(idx) = digits.parse::<usize>() {
            max_found = Some(max_found.map_or(idx, |m: usize| m.max(idx)));
        }
    }
    match max_found {
        Some(idx) if idx >= n_shards => Err(RecoveryError::ShardLayoutMismatch {
            dir: dir.to_path_buf(),
            found: idx + 1,
            expected: n_shards,
        }),
        _ => Ok(()),
    }
}

/// Applies at-rest disk faults (`BitFlip` / `TruncateWal`) pending for
/// `shard` to its files, before the recovery scan reads them.
pub(crate) fn apply_open_faults(
    dir: &Path,
    shard: usize,
    plan: &Option<Arc<FaultPlan>>,
) -> Result<(), RecoveryError> {
    let Some(plan) = plan else { return Ok(()) };
    let paths = ShardPaths::new(dir, shard);
    for kind in plan.take_open_faults(shard) {
        match kind {
            DiskFaultKind::BitFlip { file, at_byte } => {
                let path = match file {
                    DiskFile::Wal => &paths.wal,
                    DiskFile::Snapshot => &paths.snap,
                };
                let mut bytes = match fs::read(path) {
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(RecoveryError::io(path, e)),
                    Ok(b) => b,
                };
                if bytes.is_empty() {
                    continue;
                }
                let at = (at_byte as usize).min(bytes.len() - 1);
                bytes[at] ^= 0x01;
                fs::write(path, &bytes).map_err(|e| RecoveryError::io(path, e))?;
            }
            DiskFaultKind::TruncateWal { at_byte } => {
                let file = match File::options().write(true).open(&paths.wal) {
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(RecoveryError::io(&paths.wal, e)),
                    Ok(f) => f,
                };
                let len = file.metadata().map_err(|e| RecoveryError::io(&paths.wal, e))?.len();
                file.set_len(at_byte.min(len)).map_err(|e| RecoveryError::io(&paths.wal, e))?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// What the scan of one shard's files found: the journal `open()`
/// rebuilds the shard from, plus what its report and open-time
/// rotation need.
#[derive(Debug, Default)]
pub(crate) struct ShardScan {
    /// Base snapshot (`None`: rebuild from spec) and the WAL appends
    /// after it, in log order.
    pub journal: Journal,
    /// Highest acked delivered-event count (≥ the journal's
    /// `emitted_at_snapshot`): the shard's resumed `emitted`.
    pub last_ack: u64,
    /// Highest generation the on-disk chain reached; the open-time
    /// rotation writes `max_gen + 1`.
    pub max_gen: u64,
    /// Torn-tail bytes physically truncated during the scan.
    pub truncated_bytes: u64,
    /// The current snapshot was damaged; the previous generation and
    /// its WAL segments reproduced the state instead.
    pub used_fallback: bool,
}

impl ShardScan {
    fn base(&mut self, gen: u64, snap: snapfile::SnapFile) {
        self.max_gen = gen;
        self.journal.snapshot = snap.monitor;
        self.journal.snapshot_appends = snap.appends;
        self.journal.emitted_at_snapshot = snap.emitted;
        self.last_ack = snap.emitted;
    }

    /// Folds the shard's *final* WAL segment in, truncating its torn
    /// tail (the expected residue of a crash mid-write).
    fn fold_final(&mut self, scan: wal::WalScan, path: &Path) -> Result<(), RecoveryError> {
        self.journal.suffix.extend_from_slice(&scan.items);
        if let Some(ack) = scan.last_ack {
            self.last_ack = self.last_ack.max(ack);
        }
        if scan.torn_bytes > 0 {
            wal::truncate_to(path, scan.valid_len)?;
            self.truncated_bytes += scan.torn_bytes;
        }
        Ok(())
    }

    /// Folds the archived `.wal.prev` segment in. A rotated-away
    /// segment sits *mid-chain*: a torn tail here is not crash residue
    /// but lost data (the missing records are part of the state the
    /// damaged current snapshot held), so damage is a typed error
    /// rather than a truncation. A missing file is the (legal, common)
    /// empty inter-generation segment.
    fn fold_prev(
        &mut self,
        paths: &ShardPaths,
        expected_gen: u64,
        shard: usize,
    ) -> Result<(), RecoveryError> {
        match scan_wal(&paths.wal_prev)? {
            WalFile::Valid(v) => {
                if v.shard != shard as u64 {
                    return Err(RecoveryError::bad_header(
                        &paths.wal_prev,
                        "WAL belongs to a different shard",
                    ));
                }
                if v.gen != expected_gen {
                    return Err(RecoveryError::GenerationMismatch {
                        path: paths.wal_prev.clone(),
                        expected: expected_gen,
                        found: v.gen,
                    });
                }
                if v.torn_bytes > 0 {
                    return Err(RecoveryError::CorruptRecord {
                        path: paths.wal_prev.clone(),
                        offset: v.valid_len,
                    });
                }
                self.journal.suffix.extend_from_slice(&v.items);
                if let Some(ack) = v.last_ack {
                    self.last_ack = self.last_ack.max(ack);
                }
                Ok(())
            }
            WalFile::Missing => Ok(()),
            WalFile::TornHeader { .. } => {
                Err(RecoveryError::bad_header(&paths.wal_prev, "archived segment header torn"))
            }
        }
    }
}

/// Scans one shard's files, validates checksums and the generation
/// chain, truncates torn tails, and falls back to the previous snapshot
/// generation if the current one is damaged. Never panics; anything it
/// cannot recover from exactly is a typed [`RecoveryError`].
pub(crate) fn recover_shard(dir: &Path, shard: usize) -> Result<ShardScan, RecoveryError> {
    let paths = ShardPaths::new(dir, shard);
    // Tolerate only at-rest corruption here; real I/O errors abort.
    let read_soft = |path: &Path| match snapfile::read_snapshot(path) {
        Ok(s) => Ok(Ok(s)),
        Err(e @ RecoveryError::CorruptSnapshot { .. }) => Ok(Err(e)),
        Err(e) => Err(e),
    };
    let mut snap = read_soft(&paths.snap)?;
    let prev = read_soft(&paths.snap_prev)?;

    // A complete, checksummed `.tmp` is a snapshot whose rotation was
    // interrupted between fsync and rename — the newest durable state.
    // Adopt it if it extends the chain; otherwise it is debris.
    match read_soft(&paths.snap_tmp)? {
        Ok(Some(tmp))
            if match (&snap, &prev) {
                (Ok(Some(s)), _) => tmp.gen == s.gen + 1,
                (_, Ok(Some(p))) => tmp.gen == p.gen + 1,
                (Ok(None), Ok(None)) => true,
                _ => false,
            } =>
        {
            fs::rename(&paths.snap_tmp, &paths.snap)
                .map_err(|e| RecoveryError::io(&paths.snap_tmp, e))?;
            snap = Ok(Some(tmp));
        }
        _ => {
            let _ = fs::remove_file(&paths.snap_tmp);
        }
    }

    let shard_check = |scan: &wal::WalScan, path: &Path| {
        if scan.shard != shard as u64 {
            Err(RecoveryError::bad_header(path, "WAL belongs to a different shard"))
        } else {
            Ok(())
        }
    };

    let mut out = ShardScan::default();
    match (snap, prev) {
        // The current snapshot is corrupt with nothing to fall back to,
        // or the previous one cannot be read.
        (Err(e), Ok(None) | Err(_)) | (Ok(None), Err(e)) => return Err(e),
        (snap_state @ (Err(_) | Ok(None)), Ok(Some(p))) => {
            out.used_fallback = snap_state.is_err();
            let prev_gen = p.gen;
            out.base(prev_gen, p);
            match scan_wal(&paths.wal)? {
                WalFile::Valid(w) => {
                    shard_check(&w, &paths.wal)?;
                    if w.gen == prev_gen {
                        // Crash before the WAL rename: the live segment
                        // still extends the previous snapshot directly;
                        // any `.wal.prev` is an older generation the
                        // snapshot already covers.
                        out.fold_final(w, &paths.wal)?;
                    } else if w.gen == prev_gen + 1 {
                        out.max_gen = prev_gen + 1;
                        out.fold_prev(&paths, prev_gen, shard)?;
                        out.fold_final(w, &paths.wal)?;
                    } else {
                        return Err(RecoveryError::GenerationMismatch {
                            path: paths.wal,
                            expected: prev_gen + 1,
                            found: w.gen,
                        });
                    }
                }
                WalFile::Missing => {
                    out.max_gen = prev_gen + 1;
                    out.fold_prev(&paths, prev_gen, shard)?;
                }
                WalFile::TornHeader { .. } => {
                    return Err(RecoveryError::bad_header(
                        &paths.wal,
                        "WAL header torn with a fallback pending",
                    ));
                }
            }
        }
        // The live WAL extends the current snapshot — or, in a fresh
        // directory or after a crash before the first snapshot, the
        // empty generation 0.
        (Ok(current), _) => {
            let gen = current.as_ref().map_or(0, |s| s.gen);
            if let Some(s) = current {
                out.base(gen, s);
            }
            match scan_wal(&paths.wal)? {
                WalFile::Valid(w) => {
                    shard_check(&w, &paths.wal)?;
                    if w.gen == gen {
                        out.fold_final(w, &paths.wal)?;
                    } else if w.gen + 1 == gen {
                        // The crash hit after the new snapshot landed
                        // but before the old segment was archived: its
                        // records are covered by the snapshot. Archive
                        // it now so the chain stays well-formed.
                        if w.torn_bytes > 0 {
                            wal::truncate_to(&paths.wal, w.valid_len)?;
                            out.truncated_bytes += w.torn_bytes;
                        }
                        fs::rename(&paths.wal, &paths.wal_prev)
                            .map_err(|e| RecoveryError::io(&paths.wal, e))?;
                    } else {
                        return Err(RecoveryError::GenerationMismatch {
                            path: paths.wal,
                            expected: gen,
                            found: w.gen,
                        });
                    }
                }
                // Crash between the snapshot rename and the fresh WAL's
                // creation: no records since the snapshot.
                WalFile::Missing => {}
                WalFile::TornHeader { torn_bytes } => {
                    out.truncated_bytes += torn_bytes;
                    fs::remove_file(&paths.wal).map_err(|e| RecoveryError::io(&paths.wal, e))?;
                }
            }
        }
    }
    Ok(out)
}

/// fsync through the fault plan: bumps the shard's fsync ordinal, lets
/// an injected `FailFsync` veto, then syncs for real.
fn fault_fsync(
    file: &File,
    path: &Path,
    shard: usize,
    ordinal: &mut u64,
    faults: &Option<Arc<FaultPlan>>,
    tel: &RuntimeTelemetry,
) -> io::Result<()> {
    *ordinal += 1;
    if let Some(plan) = faults {
        if plan.fsync_fails(shard, *ordinal) {
            tel.fsync_failures.inc();
            return Err(io::Error::other(format!(
                "injected fsync failure on {} (ordinal {ordinal})",
                path.display()
            )));
        }
    }
    file.sync_all()?;
    tel.fsyncs.inc();
    Ok(())
}

/// One shard's live durable-write handle: appends to the WAL and
/// rotates snapshot generations. It is the shard's file log
/// ([`crate::log::ShardLog::File`]), so all writes are serialized under
/// the log's lock.
#[derive(Debug)]
pub(crate) struct ShardDisk {
    paths: ShardPaths,
    shard: usize,
    gen: u64,
    /// `None` after a hard write error — the shard is wedged and must
    /// fail stop rather than accept appends it cannot journal.
    wal: Option<WalWriter>,
    sync: SyncPolicy,
    records_since_sync: u64,
    fsync_ordinal: u64,
    pub wedged: bool,
    faults: Option<Arc<FaultPlan>>,
    tel: RuntimeTelemetry,
    /// Scratch for framed records, reused across writes so the
    /// steady-state ingest path performs no per-group allocation.
    group_buf: Vec<u8>,
    /// The last rotated snapshot's bytes, never read, only held until
    /// the next rotation replaces them: dropped right after its
    /// rotation, a snapshot's pages go back to the system and the next
    /// snapshot faults them all in again.
    pub(crate) held: Option<Vec<u8>>,
}

impl ShardDisk {
    /// Builds the live handle over a freshly recovered shard and
    /// performs the open-time rotation: the recovered state is written
    /// as generation `base_gen + 1`, leaving a pristine chain. If the
    /// rotation's fsync is vetoed by the fault plan, the shard resumes
    /// its existing WAL segment instead (the chain stays
    /// self-consistent either way).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: &Path,
        shard: usize,
        sync: SyncPolicy,
        faults: Option<Arc<FaultPlan>>,
        tel: RuntimeTelemetry,
        base_gen: u64,
        appends: u64,
        emitted: u64,
        monitor: Option<&[u8]>,
    ) -> io::Result<Self> {
        let mut disk = ShardDisk {
            paths: ShardPaths::new(dir, shard),
            shard,
            gen: base_gen,
            wal: None,
            sync,
            records_since_sync: 0,
            fsync_ordinal: 0,
            wedged: false,
            faults,
            tel,
            group_buf: Vec::new(),
            held: None,
        };
        if !disk.rotate(appends, emitted, monitor)? {
            disk.wal = Some(match fs::metadata(&disk.paths.wal) {
                Ok(meta) => WalWriter::open_append(&disk.paths.wal, meta.len())?,
                Err(_) => WalWriter::create(&disk.paths.wal, base_gen, shard as u64)?,
            });
        }
        Ok(disk)
    }

    /// Appends a run of batch records as one coalesced `write(2)`
    /// followed by at most one fsync — the group-commit write-ahead
    /// step (a one-batch group is the degenerate case). The on-disk
    /// bytes are identical to framing and appending each record
    /// separately, so a tear anywhere inside the group leaves a clean
    /// prefix of complete records plus a truncatable tail. Under
    /// [`SyncPolicy::Always`] the single `maybe_sync` at the end covers
    /// every record in the group; the caller must not apply or ack any
    /// batch of the group before this returns `Ok`. A failure —
    /// including an injected torn write — wedges the handle; the caller
    /// must fail stop.
    pub fn append_group<'a, I>(&mut self, batches: I) -> io::Result<()>
    where
        I: Iterator<Item = &'a [(StreamId, f64)]>,
    {
        self.group_buf.clear();
        let mut records = 0u64;
        for items in batches {
            wal::frame_record_into(&mut self.group_buf, |buf| wal::encode_batch_into(buf, items));
            records += 1;
        }
        self.write_records(records, true)
    }

    /// Appends an ack record carrying the cumulative delivered-event
    /// count. Errors wedge the handle silently — the events are already
    /// delivered, and the next batch append fail-stops.
    pub fn append_ack(&mut self, emitted: u64) {
        self.group_buf.clear();
        wal::frame_record_into(&mut self.group_buf, |buf| wal::encode_ack_into(buf, emitted));
        let _ = self.write_records(1, false);
    }

    /// Writes the `records` framed in `group_buf`. Only batch records
    /// (`batches`) are subject to injected tears and are timed and
    /// counted as group writes.
    fn write_records(&mut self, records: u64, batches: bool) -> io::Result<()> {
        if self.wedged {
            // A prior failure may have left partial bytes on disk;
            // appending after them would bury them mid-log.
            return Err(io::Error::other("shard WAL is wedged"));
        }
        let Some(w) = self.wal.as_mut() else {
            self.wedged = true;
            return Err(io::Error::other("shard WAL is wedged"));
        };
        if records == 0 {
            return Ok(());
        }
        let group_end = w.bytes + self.group_buf.len() as u64;
        let tear = self
            .faults
            .as_ref()
            .filter(|_| batches)
            .and_then(|p| p.tear_wal(self.shard, w.bytes, group_end));
        let span = batches.then(|| self.tel.wal_append.span());
        match w.append(&self.group_buf, tear) {
            Ok(n) => {
                drop(span);
                self.tel.wal_records.add(records);
                self.tel.wal_bytes.add(n);
                if batches {
                    self.tel.wal_group_writes.inc();
                }
                self.records_since_sync += records;
                self.maybe_sync();
                Ok(())
            }
            Err(e) => {
                self.wedged = true;
                Err(e)
            }
        }
    }

    fn maybe_sync(&mut self) {
        let due = match self.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.records_since_sync >= n.max(1),
            SyncPolicy::OnSnapshot => false,
        };
        if !due {
            return;
        }
        self.records_since_sync = 0;
        if let Some(w) = &self.wal {
            // A failed fsync is not fatal: the bytes are written and
            // survive process death; only power loss is exposed.
            let _ = fault_fsync(
                w.file(),
                &self.paths.wal,
                self.shard,
                &mut self.fsync_ordinal,
                &self.faults,
                &self.tel,
            );
        }
    }

    /// The generation the live chain is currently on.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Reads the shard's chain back through the scan `open()` uses.
    pub fn scan(&self) -> Result<ShardScan, RecoveryError> {
        recover_shard(&self.paths.dir, self.shard)
    }

    /// Rotates to a new snapshot generation: `snap.tmp` written and
    /// fsynced, current generation renamed to `.prev`, tmp renamed into
    /// place, fresh WAL started. Nothing is removed before the new
    /// snapshot is durable and in place, so every crash window leaves
    /// at least one intact generation. Returns `Ok(false)` when the new
    /// snapshot's fsync failed and the rotation was aborted (previous
    /// generation kept, current WAL kept growing). Hard rename/create
    /// failures wedge the handle.
    pub fn rotate(
        &mut self,
        appends: u64,
        emitted: u64,
        monitor: Option<&[u8]>,
    ) -> io::Result<bool> {
        let new_gen = self.gen + 1;
        let tmp =
            snapfile::write_snapshot(&self.paths.snap_tmp, new_gen, appends, emitted, monitor)?;
        if fault_fsync(
            &tmp,
            &self.paths.snap_tmp,
            self.shard,
            &mut self.fsync_ordinal,
            &self.faults,
            &self.tel,
        )
        .is_err()
        {
            let _ = fs::remove_file(&self.paths.snap_tmp);
            return Ok(false);
        }
        // Seal the outgoing segment before it becomes `.prev`.
        if let Some(w) = &self.wal {
            let _ = fault_fsync(
                w.file(),
                &self.paths.wal,
                self.shard,
                &mut self.fsync_ordinal,
                &self.faults,
                &self.tel,
            );
        }
        let snap_archived = fs::rename(&self.paths.snap, &self.paths.snap_prev).is_ok();
        let wal_archived = fs::rename(&self.paths.wal, &self.paths.wal_prev).is_ok();
        fs::rename(&self.paths.snap_tmp, &self.paths.snap).inspect_err(|_| {
            self.wedged = true;
            self.wal = None;
        })?;
        // With the new generation in place, drop `.prev` files the
        // renames above did not refresh — a stale older generation
        // would mischain a later fallback.
        if !snap_archived {
            let _ = fs::remove_file(&self.paths.snap_prev);
        }
        if !wal_archived {
            let _ = fs::remove_file(&self.paths.wal_prev);
        }
        let fresh =
            WalWriter::create(&self.paths.wal, new_gen, self.shard as u64).inspect_err(|_| {
                self.wedged = true;
                self.wal = None;
            })?;
        let _ = fault_fsync(
            fresh.file(),
            &self.paths.wal,
            self.shard,
            &mut self.fsync_ordinal,
            &self.faults,
            &self.tel,
        );
        self.wal = Some(fresh);
        // Make the renames themselves durable (best-effort; not every
        // platform allows opening a directory for sync).
        if let Ok(d) = File::open(&self.paths.dir) {
            let _ = d.sync_all();
        }
        self.gen = new_gen;
        self.records_since_sync = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdpersist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn disk(dir: &Path, faults: Option<Arc<FaultPlan>>) -> ShardDisk {
        ShardDisk::create(
            dir,
            0,
            SyncPolicy::EveryN(2),
            faults,
            RuntimeTelemetry::default(),
            0,
            0,
            0,
            None,
        )
        .unwrap()
    }

    /// One batch as a degenerate commit group — the production write
    /// path for a queue with no backlog.
    fn append_one(d: &mut ShardDisk, items: &[(StreamId, f64)]) -> io::Result<()> {
        d.append_group(std::iter::once(items))
    }

    #[test]
    fn write_rotate_recover_round_trip() {
        let dir = tempdir("rt");
        let mut d = disk(&dir, None);
        append_one(&mut d, &[(0, 1.0), (1, 2.0)]).unwrap();
        d.append_ack(1);
        append_one(&mut d, &[(2, 3.0)]).unwrap();
        let r = recover_shard(&dir, 0).unwrap();
        assert_eq!(r.journal.suffix, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(r.last_ack, 1);
        assert_eq!(r.max_gen, 1, "open-time rotation advanced the chain");
        assert!(!r.used_fallback);

        // Rotate: state folds into the snapshot, the WAL restarts.
        assert!(d.rotate(3, 1, Some(b"mon")).unwrap());
        append_one(&mut d, &[(0, 4.0)]).unwrap();
        let r = recover_shard(&dir, 0).unwrap();
        assert_eq!(r.journal.snapshot.as_deref(), Some(b"mon".as_slice()));
        assert_eq!((r.journal.snapshot_appends, r.journal.emitted_at_snapshot), (3, 1));
        assert_eq!(r.journal.suffix, vec![(0, 4.0)]);
        assert_eq!(r.max_gen, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_a_generation() {
        let dir = tempdir("fb");
        let mut d = disk(&dir, None);
        append_one(&mut d, &[(0, 1.0)]).unwrap();
        assert!(d.rotate(1, 0, Some(b"state-1")).unwrap());
        append_one(&mut d, &[(0, 2.0)]).unwrap();

        // Damage the current snapshot: recovery must rebuild the same
        // state from snap.prev + wal.prev + wal.
        let paths = ShardPaths::new(&dir, 0);
        let mut bytes = fs::read(&paths.snap).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&paths.snap, &bytes).unwrap();

        let r = recover_shard(&dir, 0).unwrap();
        assert!(r.used_fallback);
        // Base is the gen-1 snapshot (taken by the open-time rotation,
        // covering zero appends); both batches replay from the WALs.
        assert_eq!(r.journal.suffix, vec![(0, 1.0), (0, 2.0)]);
        assert_eq!(r.max_gen, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_generations_corrupt_is_a_typed_error() {
        let dir = tempdir("dbl");
        let mut d = disk(&dir, None);
        append_one(&mut d, &[(0, 1.0)]).unwrap();
        assert!(d.rotate(1, 0, Some(b"state-1")).unwrap());
        let paths = ShardPaths::new(&dir, 0);
        for p in [&paths.snap, &paths.snap_prev] {
            let mut bytes = fs::read(p).unwrap();
            let at = bytes.len() - 1;
            bytes[at] ^= 0x10;
            fs::write(p, &bytes).unwrap();
        }
        assert!(matches!(recover_shard(&dir, 0), Err(RecoveryError::CorruptSnapshot { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_fsync_failure_aborts_rotation_but_keeps_the_chain() {
        let dir = tempdir("fsync");
        {
            let mut d = disk(&dir, None);
            append_one(&mut d, &[(0, 1.0)]).unwrap();
        }
        // Reopen with the first fsync (the open-time rotation's tmp
        // sync) failing: the rotation aborts and the shard resumes the
        // existing gen-1 segment.
        let plan = Arc::new(FaultPlan::new().disk_fault(0, DiskFaultKind::FailFsync { nth: 1 }));
        let rec = recover_shard(&dir, 0).unwrap();
        let mut d = ShardDisk::create(
            &dir,
            0,
            SyncPolicy::Always,
            Some(plan),
            RuntimeTelemetry::default(),
            rec.max_gen,
            rec.journal.snapshot_appends + rec.journal.suffix.len() as u64,
            rec.last_ack,
            None,
        )
        .unwrap();
        assert!(!d.wedged);
        append_one(&mut d, &[(0, 2.0)]).unwrap();
        let r = recover_shard(&dir, 0).unwrap();
        assert_eq!(
            r.journal.suffix,
            vec![(0, 1.0), (0, 2.0)],
            "appends landed on the resumed segment"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_wedges_and_prefix_recovers() {
        let dir = tempdir("tear");
        let plan =
            Arc::new(FaultPlan::new().disk_fault(0, DiskFaultKind::TornWrite { at_byte: 60 }));
        let mut d = disk(&dir, Some(plan));
        append_one(&mut d, &[(0, 1.0)]).unwrap();
        // Byte 60 lands inside the second record's frame: it tears.
        assert!(append_one(&mut d, &[(0, 2.0), (1, 3.0)]).is_err());
        assert!(d.wedged);
        assert!(append_one(&mut d, &[(0, 9.0)]).is_err(), "wedged handles fail stop");
        let r = recover_shard(&dir, 0).unwrap();
        assert_eq!(r.journal.suffix, vec![(0, 1.0)], "pre-tear prefix survives");
        assert!(r.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adopted_tmp_snapshot_is_the_newest_state() {
        let dir = tempdir("tmp");
        let mut d = disk(&dir, None);
        append_one(&mut d, &[(0, 1.0)]).unwrap();
        // Simulate a crash between tmp fsync and the renames: write the
        // next generation's snapshot at the tmp path by hand.
        let paths = ShardPaths::new(&dir, 0);
        let f = snapfile::write_snapshot(&paths.snap_tmp, 2, 1, 0, Some(b"newest")).unwrap();
        f.sync_all().unwrap();
        let r = recover_shard(&dir, 0).unwrap();
        assert_eq!(r.journal.snapshot.as_deref(), Some(b"newest".as_slice()));
        assert_eq!(r.max_gen, 2);
        assert!(
            r.journal.suffix.is_empty(),
            "the live gen-1 segment is superseded by the adopted snapshot"
        );
        assert!(paths.wal_prev.exists(), "superseded segment was archived, not deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_layout_guard_catches_stranded_shards() {
        let dir = tempdir("layout");
        fs::write(dir.join("shard-3.wal"), b"x").unwrap();
        assert!(check_shard_layout(&dir, 4).is_ok());
        assert!(matches!(
            check_shard_layout(&dir, 3),
            Err(RecoveryError::ShardLayoutMismatch { found: 4, expected: 3, .. })
        ));
        assert!(check_shard_layout(&dir.join("absent"), 1).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
