//! A bounded MPSC queue that survives the death of its consumer.
//!
//! `std::sync::mpsc::sync_channel` ties the queued messages to the
//! `Receiver`: when a worker thread panics, its receiver is dropped and
//! every queued batch is lost. Recovery needs the opposite — the queue
//! must outlive any one worker so a restored worker can resume draining
//! exactly where its predecessor died. This queue lives in an [`Arc`]
//! shared by producers, the worker, and the supervisor; a panicking
//! worker merely stops popping. For the same reason lock poisoning is
//! recovered, not propagated: every mutation below keeps the guarded
//! state consistent, so a panic while holding the lock (the fault
//! injector kills workers on purpose) leaves nothing to unwind.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity; the message is handed back for retry.
    Full(T),
    /// The queue was closed; no further messages are accepted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer queue with blocking and non-blocking push,
/// blocking pop, and explicit close.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::with_capacity(capacity), closed: false }),
            capacity: capacity.max(1),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues without blocking; a full or closed queue returns the
    /// message for the caller to retry or report.
    pub(crate) fn try_push(&self, msg: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Err(PushError::Closed(msg));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(msg));
        }
        inner.items.push_back(msg);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, parking the producer while the queue is at capacity.
    /// Returns the message back if the queue was closed.
    pub(crate) fn push(&self, msg: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if inner.closed {
                return Err(msg);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(msg);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeues, parking the consumer while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained — queued messages
    /// are always delivered, even after close. The production consumer
    /// uses [`Self::drain_into`] (a one-message drain is the degenerate
    /// case); this single-pop form remains for tests.
    #[cfg(test)]
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(msg) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(msg);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Bulk dequeue: parks like [`Self::pop`] until at least one message
    /// is ready (or the queue is closed and drained), then moves the
    /// first message plus every ready message behind it matching
    /// `same_group` — up to `max` total — into `out` under a single lock
    /// acquisition, and issues one `not_full` notification for the whole
    /// group. This is the group-commit entry point: a backlogged queue
    /// hands the consumer its entire ready run for the price of one
    /// Mutex/Condvar round-trip instead of one per message.
    ///
    /// The first ready message is moved unconditionally (so a
    /// non-matching head still makes progress, like [`Self::pop`]); the
    /// run then extends only while `same_group` accepts the *next*
    /// queued message. Messages that would break the run stay queued —
    /// the consumer may crash with `out` partially processed, and
    /// anything still in the queue survives for its successor, so only
    /// messages the group-commit protocol can replay (journaled batches)
    /// should match the predicate.
    ///
    /// Returns the number of messages moved; `0` means closed and empty
    /// (the [`Self::pop`] `None` case). `out` is appended to, not
    /// cleared.
    pub(crate) fn drain_into(
        &self,
        out: &mut Vec<T>,
        max: usize,
        same_group: impl Fn(&T) -> bool,
    ) -> usize {
        let max = max.max(1);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(first) = inner.items.pop_front() {
                let matched = same_group(&first);
                out.push(first);
                let mut n = 1;
                if matched {
                    while n < max {
                        match inner.items.front() {
                            Some(next) if same_group(next) => {
                                out.push(inner.items.pop_front().expect("front exists"));
                                n += 1;
                            }
                            _ => break,
                        }
                    }
                }
                drop(inner);
                // Several capacity slots may have freed at once: wake
                // every parked producer, not one.
                self.not_full.notify_all();
                return n;
            }
            if inner.closed {
                return 0;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes fail from now on, pops drain the
    /// remainder and then report exhaustion. Idempotent.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Closes the queue and drops what it still holds, for a consumer
    /// that is gone for good: a caller parked on a dropped message's
    /// reply channel then wakes with a disconnect instead of waiting
    /// forever.
    pub(crate) fn abandon(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        let dropped = std::mem::take(&mut inner.items);
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
        drop(dropped);
    }

    /// Current number of queued messages (production code tracks depth
    /// through `ShardCounters` instead).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn abandon_drops_what_it_holds() {
        let q = BoundedQueue::new(4);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        q.try_push(tx).unwrap();
        q.abandon();
        assert!(rx.recv().is_err(), "the queued sender must be dropped");
        assert!(matches!(q.try_push(std::sync::mpsc::channel().0), Err(PushError::Closed(_))));
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_survives_a_dead_consumer() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(41).unwrap();
        q.try_push(42).unwrap();
        let q2 = Arc::clone(&q);
        let dead = std::thread::spawn(move || {
            let _ = q2.pop();
            panic!("injected");
        });
        assert!(dead.join().is_err());
        // A replacement consumer picks up exactly where the first died.
        assert_eq!(q.pop(), Some(42));
    }

    #[test]
    fn drain_into_moves_ready_run_in_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 3, |_| true), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.drain_into(&mut out, 16, |_| true), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drain_into_stops_at_a_run_boundary() {
        let q = BoundedQueue::new(8);
        for v in [2, 4, 6, 7, 8] {
            q.try_push(v).unwrap();
        }
        let even = |v: &i32| v % 2 == 0;
        // The leading even run drains as one group; the odd message
        // stays queued behind it.
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 16, even), 3);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(q.len(), 2);
        // A non-matching head still makes progress — alone.
        out.clear();
        assert_eq!(q.drain_into(&mut out, 16, even), 1);
        assert_eq!(out, vec![7]);
        out.clear();
        assert_eq!(q.drain_into(&mut out, 16, even), 1);
        assert_eq!(out, vec![8]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drain_into_blocks_then_returns_zero_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.drain_into(&mut out, 8, |_| true);
            (n, out)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7).unwrap();
        let (n, out) = consumer.join().unwrap();
        assert_eq!((n, out), (1, vec![7]));
        // Closed-and-empty reports exhaustion, like pop() -> None.
        q.close();
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 8, |_| true), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn drain_into_unparks_every_blocked_producer() {
        let q = Arc::new(BoundedQueue::new(2));
        q.try_push(0).unwrap();
        q.try_push(1).unwrap();
        let producers: Vec<_> = (2..4)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(i).is_ok())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // One bulk drain frees both slots and must wake both producers.
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 8, |_| true), 2);
        for p in producers {
            assert!(p.join().unwrap());
        }
        let mut rest = Vec::new();
        assert_eq!(q.drain_into(&mut rest, 8, |_| true), 2);
        rest.sort_unstable();
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    fn blocking_push_unparks_on_drain() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }
}
