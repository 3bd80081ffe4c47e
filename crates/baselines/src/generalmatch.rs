//! GeneralMatch — dual-window subsequence matching (Moon, Whang & Han,
//! SIGMOD 2002), the single-resolution baseline of §6.2.
//!
//! The data stream is divided into **disjoint** windows of a fixed size
//! `w` (chosen from the a-priori minimum query length — the constraint
//! Stardust's multi-resolution index removes); the query is divided into
//! **sliding** windows of the same size. A true match guarantees that at
//! least `p = ⌊(|Q|−w+1)/w⌋` disjoint data windows fall inside it, so for
//! each query sliding window a range query with radius `r/√p` retrieves
//! candidates without false dismissals.

use stardust_core::query::pattern::{PatternAnswer, PatternMatch, PatternQuery};
use stardust_core::stream::{StreamHistory, StreamId, Time};
use stardust_dsp::haar;
use stardust_index::{Params, RStarTree, Rect};

use std::collections::{BTreeSet, VecDeque};

/// Index payload: one disjoint-window feature.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GmEntry {
    stream: StreamId,
    /// Time of the window's last value.
    end: Time,
}

/// A GeneralMatch index over `M` streams.
pub struct GeneralMatch {
    w: usize,
    f: usize,
    r_max: f64,
    history: usize,
    histories: Vec<StreamHistory>,
    tree: RStarTree<GmEntry>,
    /// Per-stream inserted features, oldest first, for retirement.
    inserted: Vec<VecDeque<(Time, Vec<f64>)>>,
}

impl GeneralMatch {
    /// The largest power-of-two disjoint-window size usable for queries of
    /// at least `min_query_len` (`2w − 1 ≤ min_query_len` so that `p ≥ 1`).
    pub fn max_window_for(min_query_len: usize) -> usize {
        let mut w = 1usize;
        while 2 * (w << 1) - 1 <= min_query_len {
            w <<= 1;
        }
        w
    }

    /// An index with disjoint windows of size `w` (a power of two), `f`
    /// Haar coefficients per window, retaining `history` values per
    /// stream.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(w: usize, f: usize, r_max: f64, history: usize, n_streams: usize) -> Self {
        assert!(w.is_power_of_two(), "window must be a power of two for the Haar transform");
        assert!(f.is_power_of_two() && f <= w, "need f ≤ w, both powers of two");
        assert!(r_max > 0.0, "R_max must be positive");
        assert!(history >= w, "history must cover one window");
        assert!(n_streams >= 1, "need at least one stream");
        GeneralMatch {
            w,
            f,
            r_max,
            history,
            histories: (0..n_streams)
                .map(|_| StreamHistory::new(history + 1).expect("history fits in memory"))
                .collect(),
            tree: RStarTree::with_params(f, Params::default()),
            inserted: (0..n_streams).map(|_| VecDeque::new()).collect(),
        }
    }

    /// The disjoint-window size.
    pub fn window(&self) -> usize {
        self.w
    }

    /// Number of indexed features.
    pub fn indexed(&self) -> usize {
        self.tree.len()
    }

    /// Appends one value; indexes a new disjoint-window feature every `w`
    /// arrivals and retires features older than the history.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) {
        let s = stream as usize;
        let t = self.histories[s].push(value);
        if (t + 1).is_multiple_of(self.w as u64) {
            let win = self.histories[s].window(t, self.w).expect("just pushed full window");
            let coeffs = haar::approx(&win, self.f);
            self.tree.insert(Rect::point(&coeffs), GmEntry { stream, end: t });
            self.inserted[s].push_back((t, coeffs));
        }
        // Retire features whose window left the history.
        let horizon = t.saturating_sub(self.history as u64);
        while self.inserted[s].front().is_some_and(|&(end, _)| end < horizon) {
            let (end, coeffs) = self.inserted[s].pop_front().expect("just checked");
            let removed = self.tree.remove(&Rect::point(&coeffs), &GmEntry { stream, end });
            debug_assert!(removed);
        }
    }

    /// Answers a pattern query (normalized-space radius, as in
    /// [`stardust_core::query::pattern`]). Candidates are
    /// (query-offset, data-window) retrievals; matches are verified,
    /// deduplicated end positions.
    ///
    /// # Panics
    /// Panics if the query is shorter than `2w − 1` (violates the
    /// construction-time minimum length contract).
    pub fn query(&self, q: &PatternQuery) -> PatternAnswer {
        let len = q.sequence.len();
        let w = self.w;
        assert!(len >= 2 * w - 1, "query length {len} below the index minimum {}", 2 * w - 1);
        let r_abs = q.radius * (len as f64).sqrt() * self.r_max;
        let p = (len - w + 1) / w;
        let piece_radius = r_abs / (p as f64).sqrt();

        let mut answer = PatternAnswer::default();
        let mut found: BTreeSet<(StreamId, Time)> = BTreeSet::new();
        let mut window = Vec::new();
        // One range query per query sliding window.
        for offset in 0..=len - w {
            let qf = haar::approx(&q.sequence[offset..offset + w], self.f);
            let mut hits: Vec<GmEntry> = Vec::new();
            self.tree.search_within(&qf, piece_radius, |_, entry| {
                hits.push(entry.clone());
            });
            for entry in hits {
                answer.candidates.push((entry.stream, entry.end));
                // Alignment: query[offset..offset+w] ↔ data[end−w+1..=end]
                // ⇒ match ends at end + (len − offset − w).
                let end_time = entry.end + (len - offset - w) as u64;
                let hist = &self.histories[entry.stream as usize];
                let mut hit = false;
                if found.contains(&(entry.stream, end_time)) {
                    hit = true;
                } else if hist.copy_window(end_time, len, &mut window) {
                    let d: f64 = window
                        .iter()
                        .zip(&q.sequence)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    if d <= r_abs {
                        hit = true;
                        found.insert((entry.stream, end_time));
                        answer.matches.push(PatternMatch {
                            stream: entry.stream,
                            end_time,
                            distance: d / ((len as f64).sqrt() * self.r_max),
                        });
                    }
                }
                if hit {
                    answer.relevant += 1;
                }
            }
        }
        answer
    }

    /// Ground-truth matches by linear scan (for tests).
    pub fn linear_scan(&self, q: &PatternQuery) -> Vec<(StreamId, Time)> {
        let len = q.sequence.len();
        let r_abs = q.radius * (len as f64).sqrt() * self.r_max;
        let mut out = Vec::new();
        let mut window = Vec::new();
        for (s, hist) in self.histories.iter().enumerate() {
            let Some(now) = hist.latest_time() else { continue };
            for te in hist.oldest_time() + len as u64 - 1..=now {
                if !hist.copy_window(te, len, &mut window) {
                    continue;
                }
                let d: f64 = window
                    .iter()
                    .zip(&q.sequence)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if d <= r_abs {
                    out.push((s as StreamId, te));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn feed(gm: &mut GeneralMatch, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let m = gm.histories.len();
        let mut seeds: Vec<u64> = (0..m as u64).map(|s| seed ^ (s * 7919)).collect();
        let mut vals: Vec<f64> = seeds.iter_mut().map(|s| splitmix(s) * 100.0).collect();
        let mut data = vec![Vec::new(); m];
        for _ in 0..n {
            for s in 0..m {
                vals[s] += splitmix(&mut seeds[s]) - 0.5;
                gm.append(s as StreamId, vals[s]);
                data[s].push(vals[s]);
            }
        }
        data
    }

    #[test]
    fn max_window_for_respects_constraint() {
        for min_len in [15usize, 16, 31, 32, 100] {
            let w = GeneralMatch::max_window_for(min_len);
            assert!(2 * w - 1 <= min_len, "min_len={min_len} w={w}");
            assert!(2 * (w * 2) - 1 > min_len, "w not maximal for {min_len}");
        }
    }

    #[test]
    fn finds_planted_subsequence() {
        let mut gm = GeneralMatch::new(8, 4, 200.0, 256, 2);
        let data = feed(&mut gm, 300, 3);
        let q = PatternQuery { sequence: data[1][270..294].to_vec(), radius: 0.01 };
        let ans = gm.query(&q);
        assert!(ans.matches.iter().any(|m| m.stream == 1 && m.end_time == 293));
    }

    #[test]
    fn no_false_dismissals() {
        let mut gm = GeneralMatch::new(8, 4, 200.0, 256, 3);
        let data = feed(&mut gm, 400, 11);
        for &(len, r) in &[(24usize, 0.03), (33, 0.05)] {
            let q = PatternQuery { sequence: data[0][360 - len..360].to_vec(), radius: r };
            let ans = gm.query(&q);
            let truth = gm.linear_scan(&q);
            let got: BTreeSet<(StreamId, Time)> =
                ans.matches.iter().map(|m| (m.stream, m.end_time)).collect();
            for pos in &truth {
                assert!(got.contains(pos), "len={len}: {pos:?} dismissed");
            }
            assert_eq!(got.len(), truth.len(), "reported non-matches");
        }
    }

    #[test]
    fn retirement_bounds_index_size() {
        let mut gm = GeneralMatch::new(8, 4, 200.0, 64, 1);
        feed(&mut gm, 2000, 5);
        // 64 / 8 = 8 live windows, plus the one at the boundary.
        assert!(gm.indexed() <= 10, "indexed {}", gm.indexed());
    }

    #[test]
    fn precision_within_unit_interval() {
        let mut gm = GeneralMatch::new(8, 2, 200.0, 256, 2);
        let data = feed(&mut gm, 300, 21);
        let q = PatternQuery { sequence: data[0][250..282].to_vec(), radius: 0.08 };
        let ans = gm.query(&q);
        let p = ans.precision();
        assert!((0.0..=1.0).contains(&p), "precision {p}");
    }

    #[test]
    #[should_panic(expected = "below the index minimum")]
    fn short_query_rejected() {
        let gm = GeneralMatch::new(8, 4, 1.0, 64, 1);
        let q = PatternQuery { sequence: vec![0.0; 10], radius: 0.1 };
        let _ = gm.query(&q);
    }
}
