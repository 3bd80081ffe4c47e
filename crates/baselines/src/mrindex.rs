//! MR-Index — the multi-resolution index of Kahveci & Singh (ICDE 2001),
//! the offline ancestor Stardust extends to streams.
//!
//! MR-Index keeps, per resolution, MBRs over `c` consecutive feature
//! vectors and answers variable-length queries with hierarchical radius
//! refinement — structurally identical to Stardust's online index. The
//! difference (§3) is **maintenance**: MR-Index computes the wavelet
//! transform *from the raw window at every level on every arrival*
//! (Θ(Σ_j W·2^j) per item), where Stardust derives level `j` from level
//! `j−1` in Θ(f). The upside is exactness: MR-Index boxes contain true
//! features rather than merged intervals, so its MBRs are tighter and its
//! precision higher than online Stardust at equal `c` — both effects are
//! visible in Fig. 5 and the maintenance benchmarks.
//!
//! The implementation reuses the core engine with
//! [`ComputeMode::Direct`], which is precisely this maintenance scheme.

use stardust_core::config::{ComputeMode, Config, UpdatePolicy};
use stardust_core::engine::Stardust;
use stardust_core::error::QueryError;
use stardust_core::query::pattern::{self, PatternAnswer, PatternQuery};
use stardust_core::stream::StreamId;

/// An MR-Index over `M` streams: a direct-computation, online-rate,
/// multi-resolution index.
pub struct MrIndex {
    engine: Stardust,
}

impl MrIndex {
    /// Builds an MR-Index with base window `W` (power of two), the given
    /// number of levels, box capacity `c`, `f` Haar coefficients, history
    /// `N`, and value bound `R_max`.
    ///
    /// # Panics
    /// Panics on invalid parameters (see
    /// [`stardust_core::config::Config::validate`]).
    pub fn new(
        base_window: usize,
        levels: usize,
        box_capacity: usize,
        f: usize,
        history: usize,
        r_max: f64,
        n_streams: usize,
    ) -> Self {
        let mut config = Config::batch(base_window, levels, f, r_max).with_history(history);
        config.update = UpdatePolicy::Online;
        config.box_capacity = box_capacity;
        config.compute = ComputeMode::Direct;
        MrIndex { engine: Stardust::new(config, n_streams) }
    }

    /// Appends one value to one stream (recomputing features at every
    /// level — the costly part).
    pub fn append(&mut self, stream: StreamId, value: f64) {
        self.engine.append(stream, value);
    }

    /// Answers a variable-length pattern query with hierarchical radius
    /// refinement (the MR-Index search algorithm, identical to
    /// Algorithm 3).
    pub fn query(&self, q: &PatternQuery) -> Result<PatternAnswer, QueryError> {
        pattern::query_online(&self.engine, q)
    }

    /// The underlying engine (for inspection in tests and benches).
    pub fn engine(&self) -> &Stardust {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_core::query::pattern::linear_scan_matches;
    use stardust_core::StreamSummary;

    fn splitmix(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn feed(mr: &mut MrIndex, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let m = mr.engine.n_streams();
        let mut seeds: Vec<u64> = (0..m as u64).map(|s| seed ^ (s * 104729)).collect();
        let mut vals: Vec<f64> = seeds.iter_mut().map(|s| splitmix(s) * 100.0).collect();
        let mut data = vec![Vec::new(); m];
        for _ in 0..n {
            for s in 0..m {
                vals[s] += splitmix(&mut seeds[s]) - 0.5;
                mr.append(s as StreamId, vals[s]);
                data[s].push(vals[s]);
            }
        }
        data
    }

    #[test]
    fn query_equals_ground_truth() {
        let mut mr = MrIndex::new(8, 4, 4, 4, 256, 200.0, 2);
        let data = feed(&mut mr, 400, 9);
        let q = PatternQuery { sequence: data[0][360..384].to_vec(), radius: 0.03 };
        let ans = mr.query(&q).expect("valid");
        let truth = linear_scan_matches(mr.engine(), &q);
        let mut got: Vec<_> = ans.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        let mut want: Vec<_> =
            truth.iter().filter(|m| m.end_time + 1 >= 24).map(|m| (m.stream, m.end_time)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// MR-Index boxes are tighter than online Stardust's merged boxes at
    /// equal c: the candidate count can only be lower or equal on the same
    /// data and query.
    #[test]
    fn tighter_boxes_than_incremental_online() {
        use stardust_core::config::{Config, UpdatePolicy};
        let mut mr = MrIndex::new(8, 4, 4, 4, 256, 200.0, 2);
        let mut cfg = Config::batch(8, 4, 4, 200.0).with_history(256);
        cfg.update = UpdatePolicy::Online;
        cfg.box_capacity = 4;
        let mut online = Stardust::new(cfg, 2);
        let data = feed(&mut mr, 400, 31);
        for i in 0..400 {
            for s in 0..2 {
                online.append(s as StreamId, data[s][i]);
            }
        }
        let q = PatternQuery { sequence: data[1][340..372].to_vec(), radius: 0.05 };
        let a_mr = mr.query(&q).expect("valid");
        let a_on = pattern::query_online(&online, &q).expect("valid");
        assert!(
            a_mr.candidates.len() <= a_on.candidates.len(),
            "MR-Index candidates {} > online {}",
            a_mr.candidates.len(),
            a_on.candidates.len()
        );
        // Both find the same true matches.
        let mut m1: Vec<_> = a_mr.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        let mut m2: Vec<_> = a_on.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        m1.sort_unstable();
        m2.sort_unstable();
        assert_eq!(m1, m2);
    }

    /// Per-item maintenance work of direct computation scales with the
    /// total window size — sanity-check the cost model by counting raw
    /// history reads indirectly via timing-free proxy: feature exactness.
    #[test]
    fn direct_features_are_exact_despite_boxes() {
        let mut cfg = Config::batch(8, 3, 4, 1.0).with_history(64);
        cfg.update = UpdatePolicy::Online;
        cfg.box_capacity = 3;
        cfg.compute = ComputeMode::Direct;
        let mut s = StreamSummary::new(cfg);
        let data: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.37).sin() * 5.0).collect();
        for &x in &data {
            s.push_quiet(x);
        }
        // The open/sealed boxes contain exact features: each box extent is
        // the hull of true features, so the true feature at the last time
        // must lie on the box boundary or inside.
        let t = 199u64;
        for j in 0..3 {
            let w = 8usize << j;
            let mbr = s.mbr_at(j, t).expect("feature exists");
            let direct = stardust_dsp::haar::approx(&data[200 - w..], 4);
            assert!(mbr.bounds.contains(&direct, 1e-9), "level {j}");
        }
    }
}
