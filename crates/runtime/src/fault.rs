//! Deterministic fault injection for the sharded runtime.
//!
//! A [`FaultPlan`] is a list of one-shot faults, each pinned to a shard
//! and an append ordinal: "kill shard 2 when it applies its 1 000th
//! value". The ordinal is the processed-append clock of the shard's
//! core (`ShardCore`), which the worker thread consults before every
//! append it applies; a rebuild's replay never consults it, so a fault
//! fires once, mid-group, at the same ordinal on every run, regardless
//! of thread scheduling. Disk faults fire in the shard's file log: torn
//! writes and failed fsyncs on the live write path, bit flips and
//! truncations when `open()` next scans the directory. Plans are
//! injected through [`crate::RuntimeConfig::fault_plan`] and cost one
//! `Option` check per append when absent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which on-disk file a disk fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFile {
    /// The shard's live write-ahead log (`shard-N.wal`).
    Wal,
    /// The shard's current snapshot file (`shard-N.snap`).
    Snapshot,
}

/// Disk-level failure modes, injected into the persistence layer.
///
/// `TornWrite` and `FailFsync` fire on the *live* write path;
/// `BitFlip` and `TruncateWal` model at-rest damage and are applied to
/// the files the next time [`crate::ShardedRuntime::open`] scans the
/// directory. Byte offsets are clamped into the file, so `u64::MAX`
/// reliably targets the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// Stop the WAL write that crosses byte `at_byte` mid-frame — the
    /// partial record a power cut leaves behind. The shard's file log is
    /// wedged afterwards and the shard fails stop (a durable log that
    /// can no longer be appended to must not accept writes it cannot
    /// journal). Injected on batch records, the write-ahead path.
    TornWrite {
        /// Absolute WAL file offset at which the write is cut.
        at_byte: u64,
    },
    /// Flip one bit of the chosen file at `at_byte` (clamped) before
    /// the next `open()` scan — silent at-rest corruption.
    BitFlip {
        /// File to damage.
        file: DiskFile,
        /// Byte offset of the flipped bit (clamped to the last byte).
        at_byte: u64,
    },
    /// Truncate the WAL to `at_byte` (clamped) before the next
    /// `open()` scan — a lost tail.
    TruncateWal {
        /// Length to truncate to (clamped to the file length).
        at_byte: u64,
    },
    /// The shard's `nth` fsync (1-based, counted across WAL and
    /// snapshot syncs) reports failure. Data stays in the page cache —
    /// harmless unless the machine loses power — but a snapshot whose
    /// fsync fails is aborted, keeping the previous generation.
    FailFsync {
        /// Which fsync fails.
        nth: u64,
    },
}

/// One scheduled disk fault.
#[derive(Debug)]
pub struct DiskFault {
    /// The shard whose files the fault targets.
    pub shard: usize,
    /// The failure mode.
    pub kind: DiskFaultKind,
    fired: AtomicBool,
}

/// What happens when a fault triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread panics mid-batch (before applying the
    /// triggering append). The supervisor restores the shard from its
    /// last snapshot and replays the journaled suffix.
    Panic,
    /// The worker sleeps in place, wedging its queue — producers feel
    /// backpressure (`QueueFull` / parked blocking calls) until the
    /// stall clears.
    Stall(Duration),
    /// The worker finishes the current batch, then sleeps before
    /// draining the next message — a slow consumer rather than a wedged
    /// one.
    DelayDrain(Duration),
}

/// One scheduled fault.
#[derive(Debug)]
pub struct Fault {
    /// The shard the fault lives on.
    pub shard: usize,
    /// The 1-based append ordinal (within the shard) that triggers it.
    pub at_append: u64,
    /// The failure mode.
    pub kind: FaultKind,
    fired: AtomicBool,
}

/// A reproducible set of one-shot faults, shared read-only by every
/// shard. Each fault fires at most once per run — a shard restored past
/// its crash point does not re-crash.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    disk: Vec<DiskFault>,
}

impl FaultPlan {
    /// An empty plan; add faults with the builder methods.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a worker panic on `shard` at its `at_append`-th value.
    pub fn kill(self, shard: usize, at_append: u64) -> Self {
        self.with(shard, at_append, FaultKind::Panic)
    }

    /// Adds an in-place stall on `shard` at its `at_append`-th value.
    pub fn stall(self, shard: usize, at_append: u64, pause: Duration) -> Self {
        self.with(shard, at_append, FaultKind::Stall(pause))
    }

    /// Adds a delayed drain on `shard` starting at its `at_append`-th
    /// value.
    pub fn delay_drain(self, shard: usize, at_append: u64, pause: Duration) -> Self {
        self.with(shard, at_append, FaultKind::DelayDrain(pause))
    }

    fn with(mut self, shard: usize, at_append: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault { shard, at_append, kind, fired: AtomicBool::new(false) });
        self
    }

    /// One seeded kill per shard, each at a pseudo-random append ordinal
    /// in `[lo, hi)` — the reproducible "crash every shard somewhere
    /// mid-ingest" plan the chaos tests use.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn seeded_kills(seed: u64, n_shards: usize, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "empty kill window");
        let mut plan = FaultPlan::new();
        let mut state = seed;
        for shard in 0..n_shards {
            // splitmix64: statistically solid, dependency-free.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            plan = plan.kill(shard, lo + z % (hi - lo));
        }
        plan
    }

    /// Adds a disk fault on `shard`'s persistence files.
    pub fn disk_fault(mut self, shard: usize, kind: DiskFaultKind) -> Self {
        self.disk.push(DiskFault { shard, kind, fired: AtomicBool::new(false) });
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// How many faults (worker and disk) have triggered so far.
    pub fn fired_count(&self) -> usize {
        self.faults.iter().filter(|f| f.fired.load(Ordering::Relaxed)).count()
            + self.disk.iter().filter(|f| f.fired.load(Ordering::Relaxed)).count()
    }

    /// Checks whether a fault triggers for `shard` at the (1-based)
    /// append ordinal `append_no`; marks it fired. `>=` rather than `==`
    /// so a fault scheduled inside an already-processed prefix (e.g.
    /// `at_append: 0`) still fires on the next append.
    pub(crate) fn fire(&self, shard: usize, append_no: u64) -> Option<FaultKind> {
        for f in &self.faults {
            if f.shard == shard
                && append_no >= f.at_append
                && !f.fired.swap(true, Ordering::Relaxed)
            {
                return Some(f.kind);
            }
        }
        None
    }

    /// Should the WAL write spanning `[start, end)` on `shard` be torn?
    /// Returns the absolute offset to cut at (clamped into the span so
    /// an `at_byte` the file already passed still fires on the next
    /// write, like [`Self::fire`]'s `>=`). One-shot.
    pub(crate) fn tear_wal(&self, shard: usize, start: u64, end: u64) -> Option<u64> {
        for f in &self.disk {
            if f.shard != shard {
                continue;
            }
            if let DiskFaultKind::TornWrite { at_byte } = f.kind {
                if at_byte < end && !f.fired.swap(true, Ordering::Relaxed) {
                    return Some(at_byte.clamp(start, end));
                }
            }
        }
        None
    }

    /// Does `shard`'s `ordinal`-th fsync (1-based) fail? One-shot per
    /// scheduled fault; `>=` so a small `nth` fires on the next sync.
    pub(crate) fn fsync_fails(&self, shard: usize, ordinal: u64) -> bool {
        self.disk.iter().any(|f| {
            f.shard == shard
                && matches!(f.kind, DiskFaultKind::FailFsync { nth } if ordinal >= nth)
                && !f.fired.swap(true, Ordering::Relaxed)
        })
    }

    /// Drains the at-rest faults (`BitFlip` / `TruncateWal`) pending
    /// for `shard`, marking them fired. Called by `open()` before it
    /// scans the shard's files.
    pub(crate) fn take_open_faults(&self, shard: usize) -> Vec<DiskFaultKind> {
        self.disk
            .iter()
            .filter(|f| {
                f.shard == shard
                    && matches!(
                        f.kind,
                        DiskFaultKind::BitFlip { .. } | DiskFaultKind::TruncateWal { .. }
                    )
                    && !f.fired.swap(true, Ordering::Relaxed)
            })
            .map(|f| f.kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_at_their_ordinal() {
        let plan = FaultPlan::new().kill(1, 5).stall(1, 7, Duration::from_millis(1));
        assert_eq!(plan.fire(0, 5), None, "wrong shard");
        assert_eq!(plan.fire(1, 4), None, "too early");
        assert_eq!(plan.fire(1, 5), Some(FaultKind::Panic));
        assert_eq!(plan.fire(1, 5), None, "one-shot");
        assert_eq!(plan.fire(1, 6), None, "already fired");
        assert_eq!(plan.fire(1, 9), Some(FaultKind::Stall(Duration::from_millis(1))));
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn disk_faults_fire_once_and_clamp() {
        let plan = FaultPlan::new()
            .disk_fault(0, DiskFaultKind::TornWrite { at_byte: 100 })
            .disk_fault(1, DiskFaultKind::FailFsync { nth: 3 })
            .disk_fault(0, DiskFaultKind::TruncateWal { at_byte: 7 });
        assert_eq!(plan.tear_wal(0, 120, 180), Some(120), "already-passed offset clamps to start");
        assert_eq!(plan.tear_wal(0, 120, 180), None, "one-shot");
        assert!(!plan.fsync_fails(1, 2), "too early");
        assert!(plan.fsync_fails(1, 3));
        assert!(!plan.fsync_fails(1, 4), "one-shot");
        let pending = plan.take_open_faults(0);
        assert_eq!(pending, vec![DiskFaultKind::TruncateWal { at_byte: 7 }]);
        assert!(plan.take_open_faults(0).is_empty(), "drained");
        assert_eq!(plan.fired_count(), 3);
    }

    #[test]
    fn tear_inside_span_cuts_at_the_offset() {
        let plan = FaultPlan::new().disk_fault(2, DiskFaultKind::TornWrite { at_byte: 150 });
        assert_eq!(plan.tear_wal(2, 100, 140), None, "write ends before the offset");
        assert_eq!(plan.tear_wal(2, 140, 180), Some(150));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::seeded_kills(9, 4, 100, 200);
        let b = FaultPlan::seeded_kills(9, 4, 100, 200);
        let ords = |p: &FaultPlan| p.faults().iter().map(|f| f.at_append).collect::<Vec<_>>();
        assert_eq!(ords(&a), ords(&b));
        assert!(a.faults().iter().all(|f| (100..200).contains(&f.at_append)));
        assert_eq!(a.faults().len(), 4);
        let c = FaultPlan::seeded_kills(10, 4, 100, 200);
        assert_ne!(ords(&a), ords(&c), "different seed, different plan");
    }
}
