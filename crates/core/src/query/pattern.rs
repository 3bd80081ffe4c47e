//! Pattern monitoring — Algorithms 3 (online) and 4 (batch) of §5.2.
//!
//! Both algorithms answer: *which streams contain a subsequence within
//! normalized Euclidean distance `r` of the query `Q`?* The normalized
//! space of Eq. 2 scales every window by `1/(√w·R_max)`; since the DWT is
//! linear, we keep all feature coordinates **unnormalized** and convert the
//! radius once to raw space, `R = r·√|Q|·R_max`, so one set of per-level
//! boxes serves queries of any length.
//!
//! * **Online** (summaries built with `T_j = 1`): `Q` is partitioned along
//!   the binary representation of `|Q|/W`; a range query at the first
//!   sub-query's level seeds candidates, which are then narrowed by
//!   *hierarchical radius refinement* — at each further sub-query the
//!   remaining radius shrinks to `√(r² − d_min²)` — walking the per-stream
//!   MBR threads.
//! * **Batch** (summaries built with `T_j = W`): all `W` prefixes' disjoint
//!   pieces of `Q` are gathered into one query box, enlarged by `R/√p`
//!   (multi-piece search), and a single box query retrieves the
//!   candidates.
//!
//! The range and box queries scan a level's retained MBRs
//! ([`Stardust::mbrs`]) with the exact tests an index's leaves apply
//! (`d_min ≤ R`, closed-interval intersection), so the candidates are the
//! ones an R\*-tree over the same boxes returns, in canonical order.

use std::collections::BTreeSet;

use stardust_dsp::haar;
use stardust_dsp::mbr_transform::Bounds;

use crate::engine::Stardust;
use crate::error::QueryError;
use crate::normalize::unit_sphere_scale;
use crate::query::aggregate::decompose;
use crate::stream::{StreamId, Time};

/// A one-time pattern query.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternQuery {
    /// The query sequence `Q`.
    pub sequence: Vec<f64>,
    /// Match threshold `r` in the normalized space of Eq. 2.
    pub radius: f64,
}

/// A verified match.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    /// Matching stream.
    pub stream: StreamId,
    /// Time of the last value of the matching subsequence.
    pub end_time: Time,
    /// Normalized distance to the query (≤ the query radius).
    pub distance: f64,
}

/// The outcome of a pattern query: the candidates that survived box
/// filtering (each cost a raw-data verification) and the verified matches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatternAnswer {
    /// Candidate (stream, feature-time) pairs retrieved, in canonical
    /// order: by stream, then by feature time.
    pub candidates: Vec<(StreamId, Time)>,
    /// How many candidates verified to at least one true match.
    pub relevant: usize,
    /// Verified matches (deduplicated by (stream, end position)).
    pub matches: Vec<PatternMatch>,
}

impl PatternAnswer {
    /// Precision: relevant retrieved over total retrieved (§6: the quality
    /// metric of Fig. 5). 1.0 when nothing was retrieved.
    pub fn precision(&self) -> f64 {
        if self.candidates.is_empty() {
            1.0
        } else {
            self.relevant as f64 / self.candidates.len() as f64
        }
    }
}

fn check_query(q: &PatternQuery) -> Result<(), QueryError> {
    if q.sequence.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    if !q.radius.is_finite() || q.radius < 0.0 {
        return Err(QueryError::InvalidRadius);
    }
    Ok(())
}

/// **Algorithm 3** — answering a pattern query against online-built
/// summaries (`T_j = 1`).
pub fn query_online(engine: &Stardust, q: &PatternQuery) -> Result<PatternAnswer, QueryError> {
    check_query(q)?;
    let cfg = engine.config();
    let (w0, f) = (cfg.base_window, cfg.dwt_coeffs);
    let len = q.sequence.len();
    let levels = decompose(len, w0, cfg.levels - 1)?;
    let r_abs = engine.raw_radius(q.radius, len);

    // Sub-query features in raw coefficient space, first = most recent
    // (the tail of Q), walking towards the head as levels ascend.
    let mut sub_feats = Vec::with_capacity(levels.len());
    let mut end = len;
    for &j in &levels {
        let w = w0 << j;
        sub_feats.push(haar::approx(&q.sequence[end - w..end], f));
        end -= w;
    }
    debug_assert_eq!(end, 0);

    let mut answer = PatternAnswer::default();
    let r_sq = r_abs * r_abs;
    let first_level = levels[0];
    let first_window = (w0 << first_level) as u64;

    // Seed candidates: range query on the first sub-query's level.
    let mut seeds: Vec<(StreamId, Time, f64)> = Vec::new();
    for (stream, mbr) in engine.mbrs(first_level) {
        let d = mbr.bounds.min_dist(&sub_feats[0]);
        if d <= r_abs {
            seeds.extend(mbr.feature_times().map(|tf| (stream, tf, d)));
        }
    }

    // Hierarchical radius refinement along the per-stream MBR threads.
    for (stream, tf, d0) in seeds {
        let mut acc = d0 * d0;
        let mut t_cur = tf;
        let mut prev_window = first_window;
        let mut alive = acc <= r_sq + 1e-12;
        for (feat, &j) in sub_feats.iter().zip(&levels).skip(1) {
            let Some(back) = t_cur.checked_sub(prev_window) else {
                alive = false;
                break;
            };
            t_cur = back;
            let Some(mbr) = engine.summary(stream).mbr_at(j, t_cur) else {
                alive = false;
                break;
            };
            let d = mbr.bounds.min_dist(feat);
            acc += d * d;
            if acc > r_sq + 1e-12 {
                alive = false;
                break;
            }
            prev_window = (w0 << j) as u64;
        }
        if alive {
            answer.candidates.push((stream, tf));
        }
    }

    // Post-process: verify candidates on the raw data.
    let scale = unit_sphere_scale(len, cfg.r_max);
    let mut window = Vec::new();
    for &(stream, tf) in &answer.candidates {
        if !engine.summary(stream).history().copy_window(tf, len, &mut window) {
            continue;
        }
        let d_raw: f64 =
            window.iter().zip(&q.sequence).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        if d_raw <= r_abs {
            answer.relevant += 1;
            answer.matches.push(PatternMatch { stream, end_time: tf, distance: d_raw * scale });
        }
    }
    Ok(answer)
}

/// **Algorithm 4** — answering a pattern query against batch-built
/// summaries (`T_j = W`).
pub fn query_batch(engine: &Stardust, q: &PatternQuery) -> Result<PatternAnswer, QueryError> {
    check_query(q)?;
    let cfg = engine.config();
    let (w0, f) = (cfg.base_window, cfg.dwt_coeffs);
    let len = q.sequence.len();
    // Largest level j with 2^j·W + W − 1 ≤ |Q|.
    let mut level = None;
    for j in (0..cfg.levels).rev() {
        if (w0 << j) + w0 - 1 <= len {
            level = Some(j);
            break;
        }
    }
    let Some(level) = level else {
        return Err(QueryError::QueryTooShort { len, min: 2 * w0 - 1 });
    };
    let w = w0 << level;
    let r_abs = engine.raw_radius(q.radius, len);

    // Gather the disjoint pieces of every prefix into the query box.
    let mut query_box: Option<Bounds> = None;
    for i in 0..w0 {
        let mut k = 0usize;
        while i + (k + 1) * w <= len {
            let coeffs = haar::approx(&q.sequence[i + k * w..i + (k + 1) * w], f);
            match &mut query_box {
                Some(b) => b.extend(&coeffs),
                None => query_box = Some(Bounds::point(&coeffs)),
            }
            k += 1;
        }
    }
    // Multi-piece refinement: at least p disjoint pieces fit in any
    // alignment, so some piece is within R/√p.
    let p = (len - w0 + 1) / w;
    debug_assert!(p >= 1);
    let query_box =
        query_box.expect("|Q| ≥ 2^j·W + W − 1 holds a piece").enlarge(r_abs / (p as f64).sqrt());

    let mut answer = PatternAnswer::default();
    for (stream, mbr) in engine.mbrs(level) {
        if mbr.bounds.intersects(&query_box) {
            answer.candidates.extend(mbr.feature_times().map(|tf| (stream, tf)));
        }
    }

    // Post-process: each candidate feature window could align with any
    // (prefix, piece) position of the query; verify all feasible
    // alignments and deduplicate matches by end position.
    let scale = unit_sphere_scale(len, cfg.r_max);
    let mut found: BTreeSet<(StreamId, Time)> = BTreeSet::new();
    let mut window = Vec::new();
    for &(stream, tf) in &answer.candidates {
        let now = engine.summary(stream).now().unwrap_or(0);
        let mut candidate_hit = false;
        for i in 0..w0 {
            let mut k = 0usize;
            while i + (k + 1) * w <= len {
                // Query piece [i + k·w, i + (k+1)·w) aligned with the
                // stream window [tf − w + 1, tf] puts the match end at:
                let offset = (len - (i + (k + 1) * w)) as u64;
                k += 1;
                let end_time = tf + offset;
                if end_time > now || end_time + 1 < len as u64 {
                    continue;
                }
                if found.contains(&(stream, end_time)) {
                    candidate_hit = true;
                    continue;
                }
                if !engine.summary(stream).history().copy_window(end_time, len, &mut window) {
                    continue;
                }
                let d_raw: f64 = window
                    .iter()
                    .zip(&q.sequence)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if d_raw <= r_abs {
                    candidate_hit = true;
                    found.insert((stream, end_time));
                    answer.matches.push(PatternMatch { stream, end_time, distance: d_raw * scale });
                }
            }
        }
        if candidate_hit {
            answer.relevant += 1;
        }
    }
    Ok(answer)
}

/// The `k` most similar subsequence positions to `sequence` across all
/// streams — the "find the most interesting pattern" form of the finance
/// scenario (§1).
///
/// Exact: runs [`query_online`] with an expanding radius (no false
/// dismissals at any radius) until at least `k` verified matches exist or
/// the radius covers the normalized space, then returns the `k` closest.
///
/// # Errors
/// Same contract as [`query_online`] (length decomposability etc.).
pub fn nearest_online(
    engine: &Stardust,
    sequence: &[f64],
    k: usize,
) -> Result<Vec<PatternMatch>, QueryError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    // Everything is normalized into (a superset of) the unit sphere, so
    // pairwise normalized distances are bounded by ~2; 4.0 is a safe cap
    // even with an underestimated R_max.
    const RADIUS_CAP: f64 = 4.0;
    let mut radius = 1.0 / (sequence.len().max(1) as f64).sqrt();
    loop {
        let q = PatternQuery { sequence: sequence.to_vec(), radius };
        let mut answer = query_online(engine, &q)?;
        if answer.matches.len() >= k || radius >= RADIUS_CAP {
            answer
                .matches
                .sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("finite distances"));
            answer.matches.truncate(k);
            return Ok(answer.matches);
        }
        radius *= 2.0;
    }
}

/// Ground truth by linear scan: all (stream, end time) subsequence matches
/// within normalized distance `r`, restricted to end positions still in
/// history. Used by tests and the precision experiments.
pub fn linear_scan_matches(engine: &Stardust, q: &PatternQuery) -> Vec<PatternMatch> {
    let len = q.sequence.len();
    let r_abs = engine.raw_radius(q.radius, len);
    let scale = unit_sphere_scale(len, engine.config().r_max);
    let mut out = Vec::new();
    let mut window = Vec::new();
    for s in 0..engine.n_streams() as StreamId {
        let hist = engine.summary(s).history();
        let Some(now) = hist.latest_time() else { continue };
        let start = hist.oldest_time() + len as u64 - 1;
        for te in start..=now {
            if !hist.copy_window(te, len, &mut window) {
                continue;
            }
            let d_raw: f64 =
                window.iter().zip(&q.sequence).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            if d_raw <= r_abs {
                out.push(PatternMatch { stream: s, end_time: te, distance: d_raw * scale });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Random-walk streams (the paper's synthetic model, §6).
    fn feed(engine: &mut Stardust, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let m = engine.n_streams();
        let mut seeds: Vec<u64> = (0..m as u64).map(|s| seed ^ (s * 7919)).collect();
        let mut vals: Vec<f64> = seeds.iter_mut().map(|s| rng(s) * 100.0).collect();
        let mut data = vec![Vec::with_capacity(n); m];
        for _ in 0..n {
            for s in 0..m {
                vals[s] += rng(&mut seeds[s]) - 0.5;
                vals[s] = vals[s].clamp(0.0, 200.0);
                engine.append(s as StreamId, vals[s]);
                data[s].push(vals[s]);
            }
        }
        data
    }

    fn online_engine() -> Stardust {
        let mut cfg = Config::batch(8, 4, 4, 200.0).with_history(256);
        cfg.update = crate::config::UpdatePolicy::Online;
        cfg.box_capacity = 4;
        Stardust::new(cfg, 3)
    }

    fn batch_engine() -> Stardust {
        let cfg = Config::batch(8, 4, 4, 200.0).with_history(256);
        Stardust::new(cfg, 3)
    }

    /// A self-query (a subsequence of a stream) must always be found.
    #[test]
    fn online_finds_planted_subsequence() {
        let mut e = online_engine();
        let data = feed(&mut e, 400, 17);
        // Query = stream 1's subsequence of length 24 = 8 + 16 ending at 399.
        let q = PatternQuery { sequence: data[1][376..400].to_vec(), radius: 0.01 };
        let ans = query_online(&e, &q).expect("valid query");
        assert!(
            ans.matches.iter().any(|m| m.stream == 1 && m.end_time == 399),
            "planted match missing: {:?}",
            ans.matches
        );
    }

    /// Online answers exactly the linear-scan matches (no false
    /// dismissals; verification removes false alarms) for end positions
    /// where all sub-window features exist.
    #[test]
    fn online_matches_equal_ground_truth() {
        let mut e = online_engine();
        let _ = feed(&mut e, 500, 5);
        for &(len, r) in &[(24usize, 0.02), (40, 0.05), (8, 0.03)] {
            let src = e.summary(0).history().window(499, len).unwrap();
            let q = PatternQuery { sequence: src, radius: r };
            let ans = query_online(&e, &q).expect("valid");
            let truth = linear_scan_matches(&e, &q);
            // Ground truth restricted to positions with full feature
            // coverage (warm-up excluded).
            let mut want: Vec<(StreamId, Time)> = truth
                .iter()
                .filter(|m| m.end_time + 1 >= len as u64)
                .map(|m| (m.stream, m.end_time))
                .collect();
            want.sort_unstable();
            let mut got: Vec<(StreamId, Time)> =
                ans.matches.iter().map(|m| (m.stream, m.end_time)).collect();
            got.sort_unstable();
            assert_eq!(got, want, "len={len} r={r}");
        }
    }

    /// Batch finds every ground-truth match (no false dismissals).
    #[test]
    fn batch_covers_ground_truth() {
        let mut e = batch_engine();
        let _ = feed(&mut e, 500, 23);
        for &(len, r) in &[(24usize, 0.03), (40, 0.06)] {
            let src = e.summary(2).history().window(480, len).unwrap();
            let q = PatternQuery { sequence: src, radius: r };
            let ans = query_batch(&e, &q).expect("valid");
            let truth = linear_scan_matches(&e, &q);
            let got: BTreeSet<(StreamId, Time)> =
                ans.matches.iter().map(|m| (m.stream, m.end_time)).collect();
            for m in &truth {
                assert!(
                    got.contains(&(m.stream, m.end_time)),
                    "len={len} r={r}: ground-truth match {m:?} dismissed"
                );
            }
            // And everything reported is a true match (verified).
            assert_eq!(got.len(), truth.len(), "len={len} r={r}");
        }
    }

    #[test]
    fn precision_is_fraction_of_candidates() {
        let mut e = batch_engine();
        let _ = feed(&mut e, 400, 99);
        let src = e.summary(0).history().window(399, 24).unwrap();
        let q = PatternQuery { sequence: src, radius: 0.05 };
        let ans = query_batch(&e, &q).expect("valid");
        assert!(ans.precision() >= 0.0 && ans.precision() <= 1.0);
        assert!(ans.relevant <= ans.candidates.len());
        // The planted source guarantees at least one relevant candidate.
        assert!(ans.relevant >= 1);
    }

    #[test]
    fn query_validation_errors() {
        let e = online_engine();
        let empty = PatternQuery { sequence: vec![], radius: 0.1 };
        assert_eq!(query_online(&e, &empty), Err(QueryError::EmptyQuery));
        let bad_len = PatternQuery { sequence: vec![0.0; 25], radius: 0.1 };
        assert!(matches!(
            query_online(&e, &bad_len),
            Err(QueryError::LengthNotDecomposable { .. })
        ));
        let bad_r = PatternQuery { sequence: vec![0.0; 24], radius: -1.0 };
        assert_eq!(query_online(&e, &bad_r), Err(QueryError::InvalidRadius));
        let short = PatternQuery { sequence: vec![0.0; 8], radius: 0.1 };
        assert!(matches!(query_batch(&e, &short), Err(QueryError::QueryTooShort { .. })));
    }

    #[test]
    fn nearest_matches_bruteforce_top_k() {
        let mut e = online_engine();
        let data = feed(&mut e, 400, 71);
        let query = data[2][360..384].to_vec();
        for k in [1usize, 5, 20] {
            let got = nearest_online(&e, &query, k).expect("valid");
            assert_eq!(got.len(), k.min(got.len()));
            // Brute-force top-k over all available positions.
            let q = PatternQuery { sequence: query.clone(), radius: 4.0 };
            let mut truth = linear_scan_matches(&e, &q);
            truth.retain(|m| m.end_time + 1 >= 24);
            truth.sort_by(|a, b| a.distance.partial_cmp(&b.distance).unwrap());
            for (g, t) in got.iter().zip(&truth) {
                assert!((g.distance - t.distance).abs() < 1e-9, "k={k}: got {g:?} want {t:?}");
            }
            // The self-occurrence is always the nearest.
            assert_eq!(got[0].stream, 2);
            assert_eq!(got[0].end_time, 383);
            assert!(got[0].distance < 1e-9);
        }
    }

    #[test]
    fn nearest_with_zero_k() {
        let mut e = online_engine();
        let _ = feed(&mut e, 200, 8);
        let q: Vec<f64> = e.summary(0).history().window(199, 24).unwrap();
        assert!(nearest_online(&e, &q, 0).expect("valid").is_empty());
    }

    #[test]
    fn zero_radius_finds_exact_occurrence_only() {
        let mut e = online_engine();
        let data = feed(&mut e, 300, 1234);
        let q = PatternQuery { sequence: data[0][260..284].to_vec(), radius: 0.0 };
        let ans = query_online(&e, &q).expect("valid");
        assert!(ans.matches.iter().any(|m| m.stream == 0 && m.end_time == 283));
        for m in &ans.matches {
            assert!(m.distance <= 1e-9);
        }
    }
}
