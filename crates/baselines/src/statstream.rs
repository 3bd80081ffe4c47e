//! StatStream — grid-based correlation monitoring (Zhu & Shasha, VLDB
//! 2002), the baseline of §6.3.
//!
//! Each stream's sliding window is summarized by the first DFT
//! coefficients of its z-normalized window, maintained over *basic
//! windows* (batch updates, Θ(f) per item). An orthogonal regular grid
//! with cells of diameter equal to the correlation threshold `r` is
//! superimposed on the feature space; a stream reports candidate partners
//! from its own and neighboring cells. Detecting correlations at a
//! threshold `b·r` forces scanning `(2b+1)^f − 1` neighbor cells — the
//! volume blowup Stardust's R\*-tree range query avoids, and the mechanism
//! behind the Table 1 crossover.

use std::collections::HashMap;

use stardust_core::normalize;
use stardust_core::query::correlation::{CorrelatedPair, CorrelationStats};
use stardust_core::stream::{StreamHistory, StreamId, Time};

use crate::dft::SlidingDft;

struct Current {
    cell: Vec<i64>,
    coords: Vec<f64>,
    time: Time,
}

/// A StatStream correlation monitor over `M` synchronized streams.
///
/// As in the original system (and the paper's §6.3 comparison), reported
/// pairs are **approximate**: the filter is grid proximity plus DFT
/// feature distance; raw-window verification is optional and only feeds
/// the precision counters.
pub struct StatStream {
    dfts: Vec<SlidingDft>,
    histories: Vec<StreamHistory>,
    grid: HashMap<Vec<i64>, Vec<StreamId>>,
    current: Vec<Option<Current>>,
    cell_size: f64,
    radius: f64,
    window: usize,
    verify: bool,
    stats: CorrelationStats,
}

impl StatStream {
    /// A monitor over windows of `basic · n_basic` values with `f` real
    /// DFT feature dimensions, grid cell diameter `cell_size`, and z-norm
    /// distance threshold `radius`.
    ///
    /// # Panics
    /// Panics on non-positive parameters, odd `f`, or fewer than two
    /// streams.
    pub fn new(
        basic: usize,
        n_basic: usize,
        f: usize,
        cell_size: f64,
        radius: f64,
        n_streams: usize,
    ) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(radius.is_finite() && radius >= 0.0, "radius must be finite and nonnegative");
        assert!(n_streams >= 2, "correlation needs at least two streams");
        let window = basic * n_basic;
        StatStream {
            dfts: (0..n_streams).map(|_| SlidingDft::new(basic, n_basic, f)).collect(),
            histories: (0..n_streams).map(|_| StreamHistory::new(window + 1)).collect(),
            grid: HashMap::new(),
            current: (0..n_streams).map(|_| None).collect(),
            cell_size,
            radius,
            window,
            verify: true,
            stats: CorrelationStats::default(),
        }
    }

    /// Enables or disables inline raw-window verification (disable for
    /// timing runs; reported pairs then carry `correlation: None`).
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Number of monitored streams.
    pub fn n_streams(&self) -> usize {
        self.dfts.len()
    }

    /// The correlation window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Cumulative candidate/true-pair counters.
    pub fn stats(&self) -> CorrelationStats {
        self.stats
    }

    fn cell_of(&self, coords: &[f64]) -> Vec<i64> {
        coords.iter().map(|c| (c / self.cell_size).floor() as i64).collect()
    }

    /// Appends one value to one stream; returns the verified correlated
    /// pairs discovered by this arrival. Streams must be appended
    /// round-robin, like [`stardust_core::query::correlation::CorrelationMonitor`].
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) -> Vec<CorrelatedPair> {
        let s = stream as usize;
        let t = self.histories[s].push(value);
        let Some(feature) = self.dfts[s].push(value) else {
            return Vec::new();
        };
        // Drop the stream's previous grid placement.
        if let Some(prev) = self.current[s].take() {
            if let Some(members) = self.grid.get_mut(&prev.cell) {
                members.retain(|&m| m != stream);
                if members.is_empty() {
                    self.grid.remove(&prev.cell);
                }
            }
        }
        let Some(coords) = feature.coords else {
            // Zero-variance window: no feature, no reports.
            return Vec::new();
        };
        let cell = self.cell_of(&coords);

        // Scan the (2b+1)^f neighborhood; report same-time streams whose
        // feature distance is within the threshold.
        let b = (self.radius / self.cell_size).ceil() as i64;
        let mut reported: Vec<(StreamId, f64)> = Vec::new();
        let mut neighbor = cell.clone();
        scan_neighbors(&self.grid, &cell, &mut neighbor, 0, b, &mut |members| {
            for &other in members {
                let Some(cur) = self.current[other as usize].as_ref() else { continue };
                if other == stream || cur.time != t {
                    continue;
                }
                let d: f64 = cur
                    .coords
                    .iter()
                    .zip(&coords)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt();
                if d <= self.radius {
                    reported.push((other, d));
                }
            }
        });

        self.grid.entry(cell.clone()).or_default().push(stream);
        self.current[s] = Some(Current { cell, coords, time: t });

        let mut pairs = Vec::with_capacity(reported.len());
        for (other, feature_distance) in reported {
            self.stats.reported += 1;
            let correlation = if self.verify {
                let win_a =
                    self.histories[s].window(t, self.window).expect("feature implies full window");
                let win_b = self.histories[other as usize]
                    .window(t, self.window)
                    .expect("same-time feature implies full window");
                let corr = normalize::correlation(&win_a, &win_b);
                if corr.is_some_and(|c| normalize::correlation_to_distance(c) <= self.radius) {
                    self.stats.true_pairs += 1;
                }
                corr
            } else {
                None
            };
            pairs.push(CorrelatedPair {
                a: stream,
                b: other,
                time: t,
                time_other: t,
                feature_distance,
                correlation,
            });
        }
        pairs
    }
}

/// Recursively enumerates all cells within `±b` of `center` per dimension,
/// invoking `visit` on each occupied cell's member list.
fn scan_neighbors<'g>(
    grid: &'g HashMap<Vec<i64>, Vec<StreamId>>,
    center: &[i64],
    scratch: &mut Vec<i64>,
    dim: usize,
    b: i64,
    visit: &mut impl FnMut(&'g [StreamId]),
) {
    if dim == center.len() {
        if let Some(members) = grid.get(scratch) {
            visit(members);
        }
        return;
    }
    for d in -b..=b {
        scratch[dim] = center[dim] + d;
        scan_neighbors(grid, center, scratch, dim + 1, b, visit);
    }
    scratch[dim] = center[dim];
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

    fn feed(mon: &mut StatStream, n: usize) -> Vec<CorrelatedPair> {
        let mut s1 = 42u64;
        let mut s2 = 4242u64;
        let (mut a, mut c) = (50.0f64, 50.0f64);
        let mut all = Vec::new();
        for i in 0..n {
            a += splitmix(&mut s1) - 0.5;
            c += splitmix(&mut s2) - 0.5;
            let b = a + 0.01 * ((i % 7) as f64 - 3.0);
            all.extend(mon.append(0, a));
            all.extend(mon.append(1, b));
            all.extend(mon.append(2, c));
        }
        all
    }

    #[test]
    fn detects_planted_correlation() {
        let mut mon = StatStream::new(8, 4, 2, 0.1, 0.2, 3);
        let pairs = feed(&mut mon, 300);
        let confirmed: Vec<_> = pairs
            .iter()
            .filter(|p| p.correlation.is_some_and(|c| normalize::correlation_to_distance(c) <= 0.2))
            .collect();
        assert!(!confirmed.is_empty(), "correlated pair never confirmed");
        assert!(confirmed.iter().all(|p| (p.a.min(p.b), p.a.max(p.b)) == (0, 1)));
    }

    #[test]
    fn grid_membership_is_exact() {
        let mut mon = StatStream::new(4, 4, 2, 0.5, 0.5, 3);
        feed(&mut mon, 200);
        // Every stream appears in exactly one cell (or none pre-warm-up).
        let mut seen = [0usize; 3];
        for members in mon.grid.values() {
            for &m in members {
                seen[m as usize] += 1;
            }
        }
        for (s, count) in seen.iter().enumerate() {
            assert!(*count <= 1, "stream {s} in {count} cells");
        }
    }

    #[test]
    fn larger_threshold_reports_more_pairs() {
        let mut small = StatStream::new(8, 4, 2, 0.1, 0.1, 3);
        let mut large = StatStream::new(8, 4, 2, 0.1, 1.2, 3);
        feed(&mut small, 400);
        feed(&mut large, 400);
        assert!(
            large.stats().reported >= small.stats().reported,
            "reports should grow with the threshold"
        );
    }

    #[test]
    fn reported_pairs_carry_feature_distance_within_radius() {
        let mut mon = StatStream::new(8, 4, 2, 0.1, 0.3, 3);
        let pairs = feed(&mut mon, 400);
        for p in &pairs {
            assert!(p.feature_distance <= 0.3 + 1e-9);
            assert!(p.correlation.is_some(), "verification on by default");
        }
        let st = mon.stats();
        assert!(st.true_pairs <= st.reported);
    }

    #[test]
    fn unverified_mode_skips_correlation() {
        let mut mon = StatStream::new(8, 4, 2, 0.1, 0.3, 3).with_verification(false);
        let pairs = feed(&mut mon, 400);
        assert!(pairs.iter().all(|p| p.correlation.is_none()));
        assert_eq!(mon.stats().true_pairs, 0);
    }

    #[test]
    fn no_false_dismissals_against_bruteforce() {
        // Whenever both streams have a same-time feature, every truly
        // correlated pair must be reported (DFT feature distance
        // lower-bounds z-norm distance, so the grid scan is conservative).
        let mut mon = StatStream::new(4, 4, 2, 0.2, 0.6, 3);
        let mut s1 = 7u64;
        let mut s2 = 77u64;
        let (mut a, mut c) = (50.0f64, 50.0f64);
        for i in 0..240u64 {
            a += splitmix(&mut s1) - 0.5;
            c += splitmix(&mut s2) - 0.5;
            let b = a + 0.02 * ((i % 5) as f64 - 2.0);
            let mut batch = Vec::new();
            batch.extend(mon.append(0, a));
            batch.extend(mon.append(1, b));
            batch.extend(mon.append(2, c));
            if (i + 1) % 4 != 0 || (i + 1) < 16 {
                continue;
            }
            // Brute force over the three windows.
            let wins: Vec<Vec<f64>> =
                (0..3).map(|s| mon.histories[s].window(i, 16).expect("in history")).collect();
            for x in 0..3usize {
                for y in x + 1..3 {
                    let Some(corr) = normalize::correlation(&wins[x], &wins[y]) else {
                        continue;
                    };
                    if normalize::correlation_to_distance(corr) <= 0.6 {
                        assert!(
                            batch
                                .iter()
                                .any(|p| (p.a.min(p.b), p.a.max(p.b)) == (x as u32, y as u32)),
                            "t={i}: pair ({x},{y}) corr={corr} dismissed"
                        );
                    }
                }
            }
        }
    }
}
