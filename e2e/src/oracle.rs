//! The reference every workload's output is checked against.
//!
//! One single-threaded `UnifiedMonitor` per routing group is fed the
//! same values in row order — the oracle `crates/runtime/tests` uses.
//! Monitors are causal, so one pass over the longest input serves every
//! phase: the reference of a phase that fed `n` rows is the events
//! stamped with a time below `n`.

use stardust_core::stream::StreamId;
use stardust_core::unified::Event;
use stardust_runtime::MonitorSpec;

use crate::workload::{Prepared, SHARDS};

/// A canonical, totally ordered image of an event: every field, floats
/// by bit pattern, so equality is bit-identity.
pub type EventKey = [u64; 7];

/// Maps an event to its key.
pub fn event_key(e: &Event) -> EventKey {
    match e {
        Event::Aggregate { stream, alarm } => [
            0,
            u64::from(*stream),
            alarm.time,
            alarm.window as u64,
            alarm.true_value.to_bits(),
            alarm.upper_bound.to_bits(),
            u64::from(alarm.is_true_alarm),
        ],
        Event::Trend(m) => {
            [1, u64::from(m.stream), m.time, u64::from(m.pattern), m.distance.to_bits(), 0, 0]
        }
        Event::Correlation(p) => [
            2,
            u64::from(p.a),
            p.time,
            u64::from(p.b),
            p.time_other,
            p.feature_distance.to_bits(),
            p.correlation.map_or(u64::MAX, f64::to_bits),
        ],
    }
}

/// The row (per-stream time index) whose arrival produced the event.
pub fn event_row(e: &Event) -> u64 {
    match e {
        Event::Aggregate { alarm, .. } => alarm.time,
        Event::Trend(m) => m.time,
        Event::Correlation(p) => p.time,
    }
}

/// A composed aggregate interval, `None` while the window is warming up.
pub type Interval = Option<(f64, f64)>;

/// Reference output of one workload input.
pub struct Oracle {
    /// Sorted keys of every event over the whole input, each with the
    /// row that produced it.
    keys: Vec<(u64, EventKey)>,
    /// For each requested checkpoint `rows`, every stream's composed
    /// interval of the query window once exactly `rows` rows were fed.
    intervals: Vec<(usize, Vec<Interval>)>,
}

fn to_global(group: usize, local: StreamId) -> StreamId {
    local * SHARDS as StreamId + group as StreamId
}

/// Same renumbering the runtime applies to a shard's events.
fn remap(group: usize, ev: Event) -> Event {
    match ev {
        Event::Aggregate { stream, alarm } => {
            Event::Aggregate { stream: to_global(group, stream), alarm }
        }
        Event::Trend(mut m) => {
            m.stream = to_global(group, m.stream);
            Event::Trend(m)
        }
        Event::Correlation(mut p) => {
            p.a = to_global(group, p.a);
            p.b = to_global(group, p.b);
            Event::Correlation(p)
        }
    }
}

type GroupOut = (Vec<(u64, EventKey)>, Vec<(usize, Vec<(StreamId, Interval)>)>);

fn run_group(
    spec: &MonitorSpec,
    streams: &[Vec<f64>],
    group: usize,
    window: usize,
    checkpoints: &[usize],
) -> GroupOut {
    let locals: Vec<usize> = (group..streams.len()).step_by(SHARDS).collect();
    let mut monitor = spec
        .build(locals.len())
        .expect("spec was accepted by the runtime")
        .expect("every group owns at least one stream");
    let mut keys = Vec::new();
    let mut marks = Vec::new();
    let mut buf = Vec::new();
    for row in 0..streams[0].len() {
        for (local, &s) in locals.iter().enumerate() {
            monitor.append_into(local as StreamId, streams[s][row], &mut buf);
        }
        for ev in buf.drain(..) {
            let ev = remap(group, ev);
            keys.push((event_row(&ev), event_key(&ev)));
        }
        if checkpoints.contains(&(row + 1)) {
            let answers = locals
                .iter()
                .enumerate()
                .map(|(local, &s)| {
                    let interval = monitor
                        .aggregate_monitor(local as StreamId)
                        .and_then(|m| m.window_interval(window));
                    (s as StreamId, interval)
                })
                .collect();
            marks.push((row + 1, answers));
        }
    }
    (keys, marks)
}

impl Oracle {
    /// Runs the reference over all of `p`'s rows, one thread per routing
    /// group, recording interval answers at each of `checkpoints` rows.
    pub fn run(p: &Prepared, checkpoints: &[usize]) -> Oracle {
        let window = p.w.query_window();
        let outs: Vec<GroupOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SHARDS)
                .map(|g| {
                    scope.spawn(move || run_group(&p.spec, &p.streams, g, window, checkpoints))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("reference monitor panicked")).collect()
        });
        let mut keys = Vec::new();
        let mut intervals: Vec<(usize, Vec<Interval>)> =
            checkpoints.iter().map(|&c| (c, vec![None; p.w.streams])).collect();
        for (group_keys, marks) in outs {
            keys.extend(group_keys);
            for (rows, answers) in marks {
                let slot = intervals.iter_mut().find(|(c, _)| *c == rows).expect("own checkpoint");
                for (s, interval) in answers {
                    slot.1[s as usize] = interval;
                }
            }
        }
        keys.sort_unstable_by_key(|k| k.1);
        Oracle { keys, intervals }
    }

    /// Reference events of a phase that fed the first `rows` rows.
    pub fn expected(&self, rows: usize) -> Vec<EventKey> {
        self.keys.iter().filter(|(row, _)| (*row as usize) < rows).map(|&(_, k)| k).collect()
    }

    /// Reference interval answers after exactly `rows` rows.
    pub fn intervals_at(&self, rows: usize) -> Option<&[Interval]> {
        self.intervals.iter().find(|(c, _)| *c == rows).map(|(_, v)| v.as_slice())
    }

    /// Events missing from, extra in, or different in `got` against the
    /// reference of a `rows`-row phase (size of the multiset symmetric
    /// difference), with the reference event count.
    pub fn diff(&self, rows: usize, got: &[Event]) -> (u64, u64) {
        let want = self.expected(rows);
        let mut got: Vec<EventKey> = got.iter().map(event_key).collect();
        got.sort_unstable();
        (symmetric_difference(&got, &want), want.len() as u64)
    }
}

/// Size of the multiset symmetric difference of two sorted slices.
pub fn symmetric_difference<T: Ord>(a: &[T], b: &[T]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                diff += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Mismatches between the runtime's quiescent `correlated_pairs()`
/// answer and the `stardust-baselines` linear scan over the last
/// `window` values of the first `rows` rows: pairs in one and not the
/// other, plus shared pairs whose correlation differs by more than
/// rounding.
pub fn pairs_mismatch(
    p: &Prepared,
    rows: usize,
    got: &[(StreamId, StreamId, f64)],
    radius: f64,
) -> (u64, u64) {
    let window = p.w.corr_window();
    let tails: Vec<Vec<f64>> =
        p.streams.iter().map(|s| s[rows.saturating_sub(window)..rows].to_vec()).collect();
    let want = stardust_baselines::linear_scan::correlated_pairs(&tails, window, radius);
    let want_ids: Vec<(u32, u32)> = want.iter().map(|&(a, b, _)| (a as u32, b as u32)).collect();
    let got_ids: Vec<(u32, u32)> = got.iter().map(|&(a, b, _)| (a, b)).collect();
    let mut bad = symmetric_difference(&got_ids, &want_ids);
    for &(a, b, corr) in got {
        if let Ok(i) = want_ids.binary_search(&(a, b)) {
            if (want[i].2 - corr).abs() > 1e-9 {
                bad += 1;
            }
        }
    }
    (bad, want.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, prepare};

    #[test]
    fn symmetric_difference_counts_both_sides() {
        assert_eq!(symmetric_difference(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(symmetric_difference(&[1, 2, 2, 3], &[1, 2, 3]), 1);
        assert_eq!(symmetric_difference(&[1, 4], &[2, 3, 4, 5]), 4);
        assert_eq!(symmetric_difference::<u8>(&[], &[]), 0);
    }

    #[test]
    fn reference_is_causal_and_prefix_filter_matches_a_short_run() {
        let w = by_name("durable_mixed").unwrap().smoke();
        let long = prepare(&w, 42, 400);
        let mut short = prepare(&w, 42, 400);
        // Same spec (trained on 400 rows), fewer rows fed.
        for s in &mut short.streams {
            s.truncate(250);
        }
        let a = Oracle::run(&long, &[250]);
        let b = Oracle::run(&short, &[250]);
        assert!(!a.expected(250).is_empty(), "the smoke input must raise events");
        assert_eq!(a.expected(250), b.expected(250));
        assert_eq!(a.intervals_at(250), b.intervals_at(250));
        assert!(a.intervals_at(250).unwrap().iter().any(Option::is_some));
    }
}
