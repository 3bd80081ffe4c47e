//! Per-shard crash recovery: the write-ahead [`Journal`] and the
//! [`ShardRecovery`] that owns it.
//!
//! A journal is a shard's recoverable state: the last monitor snapshot,
//! the counts it covers, and the appends journaled after it. Every
//! shard's monitor comes into existence through one rebuild over a
//! journal (`Shared::rebuild` in `runtime.rs`): restore the snapshot
//! (or build from the spec when there is none), replay the suffix, and
//! suppress the first `emitted − emitted_at_snapshot` regenerated
//! events, which were already delivered. Monitor output is a pure
//! function of the append sequence, so the replay regenerates exactly
//! the events the previous incarnation produced. The rebuild has three
//! callers, which differ only in the journal they hand it:
//!
//! - `launch`: an empty journal, so the rebuild is a plain build;
//! - supervisor respawn: the in-memory journal of the dead worker;
//! - `open()`: a journal assembled from the on-disk snapshot chain and
//!   WAL (`persist::recover_shard`), with the WAL's last ack as the
//!   delivered-event count.
//!
//! While a worker lives it journals each batch *before* applying it,
//! counts every event it delivers, and periodically stores a full
//! [`stardust_core::unified::UnifiedMonitor::snapshot`], truncating the
//! suffix. Nothing is lost (the journal is written ahead of processing)
//! and nothing is duplicated (the suppression count is exact).
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

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use stardust_core::stream::StreamId;

use crate::persist::ShardDisk;

/// A shard's recoverable state: the last snapshot plus the appends
/// journaled after it.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    /// Last stored monitor snapshot (`None` until the first cadence
    /// boundary, or for shards whose spec builds no monitor).
    pub snapshot: Option<Vec<u8>>,
    /// Appends covered by `snapshot`.
    pub snapshot_appends: u64,
    /// Delivered-event count when `snapshot` was taken.
    pub emitted_at_snapshot: u64,
    /// Appends journaled after `snapshot`, in processing order
    /// (local stream ids). Written ahead of processing.
    pub suffix: Vec<(StreamId, f64)>,
    /// Durable mirror of this journal (absent without persistence, and
    /// during `open()`'s rebuild, before the open-time rotation).
    pub disk: Option<ShardDisk>,
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
    /// A shard whose history is `journal`, with `emitted` of the
    /// events that history produces already delivered.
    pub(crate) fn new(journal: Journal, emitted: u64) -> Self {
        ShardRecovery { journal: Mutex::new(journal), emitted: AtomicU64::new(emitted) }
    }

    /// The journal, for the rebuild that replays it.
    pub(crate) fn journal(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut journal = self.journal();
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
        let mut journal = self.journal();
        if let Some(disk) = journal.disk.as_mut() {
            disk.append_ack(self.emitted.load(Ordering::Relaxed));
        }
    }

    /// Stores a snapshot (taken *after* the worker fully applied every
    /// journaled append) and truncates the in-memory journal to it.
    /// With persistence, also rotates the on-disk generation; an
    /// aborted rotation (injected fsync failure) keeps the on-disk
    /// chain at the previous generation, which stays self-consistent
    /// because the WAL segment keeps growing.
    pub(crate) fn record_snapshot(&self, snapshot: Option<Vec<u8>>) {
        let mut journal = self.journal();
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

    /// Hands `open()`'s durable handle to the journal. `create` writes
    /// the journal's snapshot state — just folded in by
    /// [`Self::record_snapshot`] — as the next on-disk generation.
    /// Returns the handle's generation.
    pub(crate) fn attach_disk(
        &self,
        create: impl FnOnce(&Journal) -> io::Result<ShardDisk>,
    ) -> io::Result<u64> {
        let mut journal = self.journal();
        let disk = create(&journal)?;
        let generation = disk.generation();
        journal.disk = Some(disk);
        Ok(generation)
    }

    /// Events delivered to the collector over this shard's lifetime.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }
}
