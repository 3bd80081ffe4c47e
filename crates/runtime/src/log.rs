//! One log per shard: the [`ShardLog`] a shard's core journals to, and
//! the [`Journal`] a rebuild replays.
//!
//! A journal is a shard's recoverable state: the last monitor snapshot,
//! the counts it covers, and the appends logged after it. The log that
//! holds it has two backends:
//!
//! - **memory** ([`ShardLog::Memory`]): the journal itself. A crashed
//!   worker's shard is rebuilt from it within the process.
//! - **file** ([`ShardLog::File`]): the checksummed on-disk WAL and
//!   snapshot chain of an [`crate::ShardedRuntime::open`]ed runtime. A
//!   persisted shard keeps no in-memory copy of its journal: a respawn
//!   reads it back through the same scan `open()` uses
//!   ([`crate::persist::recover_shard`]).
//!
//! The shard's core ([`crate::step::ShardCore`]) writes each group's
//! batches to the log before applying any of them, acks every delivered
//! event count, and stores a snapshot on the cadence, after which the
//! memory journal drops its suffix and the file log rotates to a new
//! generation. A file log that can no longer be appended to (torn
//! write, failed rename) is wedged: accepting appends the log cannot
//! journal would break the durability contract, so the shard fails
//! stop instead.
//!
//! The log sits behind a mutex that outlives the worker, so a worker
//! that panics mid-group (the fault injector does this on purpose) may
//! poison it. Every write leaves the log consistent, so the supervisor
//! recovers the inner value with [`std::sync::PoisonError::into_inner`]
//! rather than cascading the panic.

use std::borrow::Cow;
use std::io;

use stardust_core::stream::StreamId;

use crate::persist::{RecoveryError, ShardDisk};

/// A shard's recoverable state: the last snapshot plus the appends
/// logged after it.
#[derive(Debug, Default, Clone)]
pub(crate) struct Journal {
    /// Last stored monitor snapshot (`None` until the first cadence
    /// boundary, or for shards whose spec builds no monitor).
    pub snapshot: Option<Vec<u8>>,
    /// Appends covered by `snapshot`.
    pub snapshot_appends: u64,
    /// Delivered-event count when `snapshot` was taken.
    pub emitted_at_snapshot: u64,
    /// Appends logged after `snapshot`, in processing order (local
    /// stream ids). Written ahead of processing.
    pub suffix: Vec<(StreamId, f64)>,
}

/// Where a shard's core journals: in memory, or to its files.
#[derive(Debug)]
pub(crate) enum ShardLog {
    /// In-process recovery only.
    Memory(Journal),
    /// The durable WAL and snapshot chain.
    File(Box<ShardDisk>),
}

impl ShardLog {
    /// The write-ahead step: logs a group of batches before any of them
    /// is applied — on disk as one coalesced WAL write with at most one
    /// fsync (see [`ShardDisk::append_group`]).
    ///
    /// # Errors
    /// The file log cannot take the group (torn write or wedged
    /// handle). A tear mid-group leaves a clean prefix of complete
    /// records on disk, which is what recovery replays.
    pub(crate) fn write_ahead<'a, I>(&mut self, batches: I) -> io::Result<()>
    where
        I: Iterator<Item = &'a [(StreamId, f64)]>,
    {
        match self {
            ShardLog::Memory(journal) => {
                for items in batches {
                    journal.suffix.extend_from_slice(items);
                }
                Ok(())
            }
            ShardLog::File(disk) => disk.append_group(batches),
        }
    }

    /// Acks the cumulative delivered-event count, so a process-level
    /// recovery suppresses exactly the events that were already out.
    /// The memory log needs no ack: its rebuild knows the exact count.
    pub(crate) fn ack(&mut self, emitted: u64) {
        if let ShardLog::File(disk) = self {
            disk.append_ack(emitted);
        }
    }

    /// Stores a snapshot taken after every logged append was applied.
    /// The memory journal drops its suffix; the file log rotates to a
    /// new generation. An aborted rotation (failed fsync) keeps the
    /// on-disk chain at the previous generation, which stays
    /// self-consistent because the WAL segment keeps growing; a failed
    /// rename wedges the handle and the next write-ahead fails stop.
    pub(crate) fn snapshot(&mut self, appends: u64, emitted: u64, monitor: Option<Vec<u8>>) {
        match self {
            ShardLog::Memory(journal) => {
                journal.snapshot = monitor;
                journal.snapshot_appends = appends;
                journal.emitted_at_snapshot = emitted;
                journal.suffix.clear();
            }
            ShardLog::File(disk) => {
                let _ = disk.rotate(appends, emitted, monitor.as_deref());
                disk.held = monitor;
            }
        }
    }

    /// Whether the log refuses further writes.
    pub(crate) fn wedged(&self) -> bool {
        matches!(self, ShardLog::File(disk) if disk.wedged)
    }

    /// The journal a rebuild replays: the memory journal as it stands,
    /// or the file log's chain read back through the recovery scan.
    pub(crate) fn journal(&self) -> Result<Cow<'_, Journal>, RecoveryError> {
        match self {
            ShardLog::Memory(journal) => Ok(Cow::Borrowed(journal)),
            ShardLog::File(disk) => Ok(Cow::Owned(disk.scan()?.journal)),
        }
    }
}
