//! Stream identities and the raw-value history ring buffer.
//!
//! §2.1: a stream is an ordered sequence of bounded values; the system
//! keeps summary information over a time window of size `N`. Raw values
//! inside the window are retained too — Algorithm 2 retrieves the most
//! recent subsequence to verify candidate alarms, and the pattern /
//! correlation monitors verify candidate matches the same way.

use std::collections::TryReserveError;

/// Identifier of one input stream.
pub type StreamId = u32;

/// Discrete time: the 0-based index of a value in its stream.
pub type Time = u64;

/// A fixed-capacity ring buffer holding the most recent `capacity` values
/// of one stream, addressable by absolute time.
#[derive(Debug, Clone)]
pub struct StreamHistory {
    buf: Vec<f64>,
    capacity: usize,
    /// Number of values ever pushed; the next value gets time `next`.
    next: Time,
}

impl StreamHistory {
    /// An empty history retaining the last `capacity` values. The whole
    /// ring is reserved up front, so pushes never reallocate.
    ///
    /// # Errors
    /// The allocator's error if the ring cannot be reserved.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, TryReserveError> {
        assert!(capacity > 0, "history capacity must be positive");
        let mut buf = Vec::new();
        buf.try_reserve_exact(capacity)?;
        Ok(StreamHistory { buf, capacity, next: 0 })
    }

    /// Appends a value, evicting the oldest if full. Returns the time
    /// assigned to the value.
    pub fn push(&mut self, value: f64) -> Time {
        let t = self.next;
        if self.buf.len() < self.capacity {
            self.buf.push(value);
        } else {
            self.buf[(t % self.capacity as u64) as usize] = value;
        }
        self.next += 1;
        t
    }

    /// Number of values ever pushed (the current time frontier).
    pub fn len_seen(&self) -> Time {
        self.next
    }

    /// Time of the most recent value, `None` if empty.
    pub fn latest_time(&self) -> Option<Time> {
        self.next.checked_sub(1)
    }

    /// Oldest time still retained.
    pub fn oldest_time(&self) -> Time {
        self.next.saturating_sub(self.buf.len() as u64)
    }

    /// The value at absolute time `t`, `None` if evicted or not yet seen.
    pub fn get(&self, t: Time) -> Option<f64> {
        if t >= self.next || t < self.oldest_time() {
            return None;
        }
        Some(self.buf[(t % self.capacity as u64) as usize])
    }

    /// Copies the window of `len` values ending at time `t_end` (inclusive)
    /// into `out`. Returns `false` (leaving `out` cleared) if any part of
    /// the window is unavailable.
    pub fn copy_window(&self, t_end: Time, len: usize, out: &mut Vec<f64>) -> bool {
        out.clear();
        if len == 0 {
            return true;
        }
        let Some(start) = (t_end + 1).checked_sub(len as u64) else { return false };
        if t_end >= self.next || start < self.oldest_time() {
            return false;
        }
        out.reserve(len);
        for t in start..=t_end {
            out.push(self.buf[(t % self.capacity as u64) as usize]);
        }
        true
    }

    /// Raw snapshot parts: (capacity, next time, ring buffer as stored).
    pub(crate) fn raw_parts(&self) -> (usize, Time, &[f64]) {
        (self.capacity, self.next, &self.buf)
    }

    /// Rebuilds a history from snapshot parts, validating consistency.
    pub(crate) fn from_raw_parts(
        capacity: usize,
        next: Time,
        buf: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if capacity == 0 {
            return Err("zero history capacity");
        }
        let expected = (next.min(capacity as u64)) as usize;
        if buf.len() != expected {
            return Err("ring length inconsistent with time frontier");
        }
        Ok(StreamHistory { buf, capacity, next })
    }

    /// The window of `len` values ending at `t_end`, or `None` if any part
    /// is unavailable.
    pub fn window(&self, t_end: Time, len: usize) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        if self.copy_window(t_end, len, &mut out) {
            Some(out)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_sequential_times() {
        let mut h = StreamHistory::new(4).expect("small ring");
        assert_eq!(h.push(1.0), 0);
        assert_eq!(h.push(2.0), 1);
        assert_eq!(h.len_seen(), 2);
        assert_eq!(h.latest_time(), Some(1));
    }

    #[test]
    fn get_within_capacity() {
        let mut h = StreamHistory::new(3).expect("small ring");
        for i in 0..3 {
            h.push(i as f64);
        }
        assert_eq!(h.get(0), Some(0.0));
        assert_eq!(h.get(2), Some(2.0));
        assert_eq!(h.get(3), None);
    }

    #[test]
    fn eviction_after_wraparound() {
        let mut h = StreamHistory::new(3).expect("small ring");
        for i in 0..5 {
            h.push(i as f64);
        }
        assert_eq!(h.oldest_time(), 2);
        assert_eq!(h.get(1), None);
        assert_eq!(h.get(2), Some(2.0));
        assert_eq!(h.get(4), Some(4.0));
    }

    #[test]
    fn window_extraction() {
        let mut h = StreamHistory::new(8).expect("small ring");
        for i in 0..8 {
            h.push(i as f64 * 10.0);
        }
        assert_eq!(h.window(4, 3), Some(vec![20.0, 30.0, 40.0]));
        assert_eq!(h.window(7, 8), Some((0..8).map(|i| i as f64 * 10.0).collect()));
    }

    #[test]
    fn window_unavailable_cases() {
        let mut h = StreamHistory::new(4).expect("small ring");
        for i in 0..6 {
            h.push(i as f64);
        }
        // Evicted prefix.
        assert_eq!(h.window(3, 4), None);
        // Future.
        assert_eq!(h.window(7, 2), None);
        // Longer than history since start.
        assert_eq!(h.window(5, 7), None);
        // Valid.
        assert_eq!(h.window(5, 4), Some(vec![2.0, 3.0, 4.0, 5.0]));
    }

    #[test]
    fn empty_window_is_ok() {
        let h = StreamHistory::new(2).expect("small ring");
        let mut out = vec![1.0];
        assert!(h.copy_window(0, 0, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut h = StreamHistory::new(5).expect("small ring");
        for i in 0..23 {
            h.push(i as f64);
        }
        let w = h.window(22, 5).unwrap();
        assert_eq!(w, vec![18.0, 19.0, 20.0, 21.0, 22.0]);
    }
}
