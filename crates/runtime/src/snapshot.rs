//! Per-shard crash recovery: write-ahead journal, periodic monitor
//! snapshots, and deterministic suffix replay.
//!
//! Every shard owns a [`ShardRecovery`] that outlives any one worker
//! thread. The worker journals each batch *before* applying it, counts
//! every event it delivers, and periodically stores a full
//! [`UnifiedMonitor::snapshot`], truncating the journal. When the
//! supervisor finds the worker dead it rebuilds the monitor from the
//! last snapshot, replays the journaled suffix — monitor output is a
//! pure function of the append sequence, so the replay regenerates
//! exactly the events the dead worker produced — and suppresses the
//! first `emitted − emitted_at_snapshot` of them, which were already
//! delivered. The combination yields exactly-once event delivery across
//! worker crashes: nothing lost (the journal is written ahead of
//! processing), nothing duplicated (the suppression count is exact).
//!
//! With [`crate::PersistConfig`] the journal additionally owns a
//! [`ShardDisk`]: every batch is appended to the on-disk WAL *before*
//! the in-memory suffix accepts it, snapshots rotate the on-disk
//! generation, and delivered-event counts are acked to the WAL so a
//! process-level crash recovers with the same suppression arithmetic.
//! A disk that can no longer be appended to (torn write, failed rename)
//! wedges the shard: accepting appends the log cannot journal would
//! break the durability contract, so the shard fails stop instead.
//!
//! Lock poisoning is survived, not propagated: a worker that panics
//! mid-batch (the fault injector does this on purpose) may poison the
//! journal mutex, but every structure it guards is kept consistent at
//! each write, so the supervisor recovers the inner value with
//! [`PoisonError::into_inner`] rather than cascading the panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Mutex, PoisonError};

use stardust_core::stream::StreamId;
use stardust_core::unified::{Event, UnifiedMonitor};

use crate::persist::ShardDisk;
use crate::shard::{publish_sketches_if_due, remap_event, SketchBoard};
use crate::spec::MonitorSpec;
use crate::telemetry::RuntimeTelemetry;

/// The journaled, not-yet-snapshotted tail of one shard's input.
struct Journal {
    /// Last stored monitor snapshot (`None` until the first cadence
    /// boundary, or for shards whose spec builds no monitor).
    snapshot: Option<Vec<u8>>,
    /// Appends covered by `snapshot`.
    snapshot_appends: u64,
    /// Value of `emitted` when `snapshot` was taken.
    emitted_at_snapshot: u64,
    /// Appends journaled after `snapshot`, in processing order
    /// (local stream ids). Written ahead of processing.
    suffix: Vec<(StreamId, f64)>,
    /// Durable mirror of this journal (absent without persistence).
    disk: Option<ShardDisk>,
}

/// One shard's recovery state, shared by the worker (journaling) and
/// the supervisor (rebuilding). The worker is the only writer while it
/// lives; the supervisor only touches this after the worker died, so
/// the mutex is never contended.
pub(crate) struct ShardRecovery {
    journal: Mutex<Journal>,
    /// Events delivered to the collector over the shard's lifetime,
    /// bumped once per successful send — exact even mid-batch.
    emitted: AtomicU64,
}

impl ShardRecovery {
    pub(crate) fn new(disk: Option<ShardDisk>) -> Self {
        ShardRecovery {
            journal: Mutex::new(Journal {
                snapshot: None,
                snapshot_appends: 0,
                emitted_at_snapshot: 0,
                suffix: Vec::new(),
                disk,
            }),
            emitted: AtomicU64::new(0),
        }
    }

    /// Warm constructor for `open()`: the journal starts at the state
    /// the open-time rotation just made durable — `snapshot` covering
    /// `snapshot_appends` appends with `emitted` events delivered, and
    /// an empty suffix.
    pub(crate) fn resumed(
        snapshot: Option<Vec<u8>>,
        snapshot_appends: u64,
        emitted: u64,
        disk: Option<ShardDisk>,
    ) -> Self {
        ShardRecovery {
            journal: Mutex::new(Journal {
                snapshot,
                snapshot_appends,
                emitted_at_snapshot: emitted,
                suffix: Vec::new(),
                disk,
            }),
            emitted: AtomicU64::new(emitted),
        }
    }

    /// Group-commit write-ahead step: journals a run of batches before
    /// the worker applies any of them — on disk first as one coalesced
    /// WAL write with a single fsync covering the whole group (see
    /// [`ShardDisk::append_group`]), then mirrored into the in-memory
    /// suffix in order. Per-batch ordering is preserved: the on-disk
    /// bytes are identical to per-batch journaling.
    ///
    /// # Panics
    /// Panics when the durable WAL cannot accept the group (torn write
    /// or wedged handle). The worker thread dies *before* applying
    /// anything from the group, the supervisor sees the wedge and
    /// closes the shard, and producers observe `Disconnected` —
    /// fail-stop rather than divergence between the monitor and its
    /// log. A tear mid-group leaves a clean prefix of complete records
    /// on disk; recovery replays exactly that journaled prefix.
    pub(crate) fn journal_group<'a, I>(&self, batches: I)
    where
        I: Iterator<Item = &'a [(StreamId, f64)]> + Clone,
    {
        let mut journal = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let journal = &mut *journal;
        if let Some(disk) = journal.disk.as_mut() {
            if let Err(e) = disk.append_group(batches.clone()) {
                panic!("shard WAL group append failed; failing stop: {e}");
            }
        }
        for items in batches {
            journal.suffix.extend_from_slice(items);
        }
    }

    /// `n` events delivered to the collector in one grouped send.
    pub(crate) fn note_emitted_n(&self, n: u64) {
        self.emitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Acks the cumulative delivered-event count to the durable WAL
    /// (no-op without persistence). Called after a batch's events were
    /// handed to the collector, so a process-level recovery can
    /// suppress exactly the events that were already out.
    pub(crate) fn ack_emitted(&self) {
        let mut journal = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(disk) = journal.disk.as_mut() {
            disk.append_ack(self.emitted.load(Ordering::Relaxed));
        }
    }

    /// Appends journaled since the last snapshot.
    pub(crate) fn suffix_len(&self) -> usize {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner).suffix.len()
    }

    /// Stores a snapshot (taken *after* the worker fully applied every
    /// journaled append) and truncates the in-memory journal to it.
    /// With persistence, also rotates the on-disk generation; an
    /// aborted rotation (injected fsync failure) keeps the on-disk
    /// chain at the previous generation, which stays self-consistent
    /// because the WAL segment keeps growing.
    pub(crate) fn record_snapshot(&self, snapshot: Option<Vec<u8>>) {
        let mut journal = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        journal.snapshot_appends += journal.suffix.len() as u64;
        journal.suffix.clear();
        journal.emitted_at_snapshot = self.emitted.load(Ordering::Relaxed);
        journal.snapshot = snapshot;
        let appends = journal.snapshot_appends;
        let emitted = journal.emitted_at_snapshot;
        let journal = &mut *journal;
        if let Some(disk) = journal.disk.as_mut() {
            // Rename/create failures wedge the handle; the next
            // journal_group fails stop. The snapshot itself stays
            // consistent in memory either way.
            let _ = disk.rotate(appends, emitted, journal.snapshot.as_deref());
        }
    }

    /// Events delivered to the collector over this shard's lifetime.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Rebuilds the monitor of a dead shard and replays the journaled
    /// suffix, delivering only the events the dead worker had not yet
    /// sent (one grouped send) and firing the sketch-exchange cadence
    /// for every boundary the replay crosses — batches a dead worker
    /// drained into a commit group but never applied exist only in the
    /// journal, so their publications must happen here. Returns the
    /// warm monitor and the number of appends it has processed (the
    /// restored worker's fault clock) — or `None` when the shard's
    /// durable WAL is wedged, in which case the shard must stay down: an
    /// in-memory rebuild would accept appends the disk can no longer
    /// journal.
    ///
    /// Pure with respect to shard accounting: the supervisor applies
    /// its own counter/restart bookkeeping.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rebuild_state(
        &self,
        spec: &MonitorSpec,
        n_local: usize,
        shard: usize,
        n_shards: usize,
        events: &Sender<Vec<Event>>,
        sketches: &SketchBoard,
        sketch_cadence: u64,
        telemetry: &RuntimeTelemetry,
    ) -> Option<(Option<UnifiedMonitor>, u64)> {
        let journal = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        if journal.disk.as_ref().is_some_and(|d| d.wedged) {
            return None;
        }
        let mut monitor = match &journal.snapshot {
            Some(bytes) => {
                Some(UnifiedMonitor::restore(bytes).expect("self-written snapshot decodes"))
            }
            // No snapshot yet: rebuild from scratch and replay the full
            // journal (which then spans the shard's whole history).
            None => spec.build(n_local).expect("spec validated at launch"),
        };
        let already = self.emitted.load(Ordering::Relaxed) - journal.emitted_at_snapshot;
        let mut regenerated = 0u64;
        if let Some(monitor) = monitor.as_mut() {
            let mut buf = Vec::new();
            let mut resend = Vec::new();
            // Like a respawned worker's, the replay's ship frontier
            // starts at zero: the first crossed boundary re-publishes
            // state the board may already hold (absorbed idempotently).
            let mut last_shipped = 0u64;
            for &(local, value) in &journal.suffix {
                buf.clear();
                monitor.append_into(local, value, &mut buf);
                for ev in buf.drain(..) {
                    regenerated += 1;
                    if regenerated > already {
                        resend.push(remap_event(shard, n_shards, ev));
                    }
                }
                publish_sketches_if_due(
                    Some(monitor),
                    shard,
                    n_shards,
                    sketches,
                    sketch_cadence,
                    &mut last_shipped,
                    telemetry,
                );
            }
            if !resend.is_empty() {
                self.note_emitted_n(resend.len() as u64);
                let _ = events.send(resend);
            }
        }
        debug_assert!(
            regenerated >= already,
            "replay regenerated {regenerated} events but {already} were already delivered"
        );
        let processed = journal.snapshot_appends + journal.suffix.len() as u64;
        drop(journal);
        // The replay delivered events the dead worker had not acked.
        self.ack_emitted();
        Some((monitor, processed))
    }
}
