//! Continuous trend monitoring — the standing-query form of §2.3.
//!
//! Where [`crate::query::pattern`] answers *one-time* queries ("find all
//! past occurrences of Q"), the paper's pattern-monitoring model is
//! continuous: "a pattern database is continuously monitored over dynamic
//! data streams: identify all temperature sensors […] that **currently**
//! exhibit an interesting trend". This module inverts the index: the
//! registered patterns' features live in per-length point tables, and each
//! arriving value probes them with the stream's current multi-resolution
//! summary — the same binary decomposition and hierarchical radius
//! refinement as Algorithm 3, with the roles of query and data swapped.

use std::collections::BTreeMap;

use stardust_dsp::haar;
use stardust_index::PointTable;

use crate::config::Config;
use crate::error::{ensure, QueryError, SpecError};
use crate::normalize::unit_sphere_scale;
use crate::query::aggregate::decompose;
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::stream::{StreamId, Time};
use crate::summarizer::StreamSummary;
use crate::transform::TransformKind;

/// Identifier assigned to a registered pattern.
pub type PatternId = u32;

/// A stream currently matching a registered pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendMatch {
    /// The stream whose arrival completed the match.
    pub stream: StreamId,
    /// The matched pattern.
    pub pattern: PatternId,
    /// Time of the last value of the matching window.
    pub time: Time,
    /// Normalized distance (≤ the pattern's radius).
    pub distance: f64,
}

struct Registered {
    id: PatternId,
    /// Raw sequence, for verification.
    sequence: Vec<f64>,
    /// Raw-space radius budget `r·√L·R_max`.
    r_abs: f64,
    /// Sub-window features, most recent first (levels ascending).
    sub_feats: Vec<Vec<f64>>,
}

/// Patterns of one length share a decomposition and a feature table over
/// their first (most recent) sub-window feature. A group holds a handful
/// of patterns, so the table is a single band: candidates come back in
/// registration order.
struct LengthGroup {
    levels: Vec<usize>,
    table: PointTable<usize>, // payload: index into `patterns`
    max_r_abs: f64,
}

/// Running counters for trend monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrendStats {
    /// Candidates that survived index filtering + refinement (each cost a
    /// raw verification).
    pub candidates: u64,
    /// Verified matches reported.
    pub matches: u64,
}

impl TrendStats {
    /// Verified matches over candidates (1.0 when nothing was retrieved).
    pub fn precision(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.matches as f64 / self.candidates as f64
        }
    }
}

/// Continuous pattern monitoring over `M` streams against a registered
/// pattern database.
///
/// ```
/// use stardust_core::config::{Config, UpdatePolicy};
/// use stardust_core::query::trend::TrendMonitor;
/// use stardust_core::transform::TransformKind;
///
/// let mut cfg = Config::batch(8, 2, 4, 100.0).with_history(32);
/// cfg.update = UpdatePolicy::Online;
/// let mut monitor = TrendMonitor::new(cfg, 1);
/// let ramp: Vec<f64> = (0..16).map(|i| 10.0 + i as f64).collect();
/// let id = monitor.register(ramp.clone(), 0.01).unwrap();
///
/// // Quiet stream, then the trend appears.
/// for _ in 0..20 {
///     assert!(monitor.append(0, 12.0).is_empty());
/// }
/// let mut hits = Vec::new();
/// for &v in &ramp {
///     hits.extend(monitor.append(0, v));
/// }
/// assert!(hits.iter().any(|m| m.pattern == id));
/// ```
pub struct TrendMonitor {
    config: Config,
    summaries: Vec<StreamSummary>,
    patterns: Vec<Registered>,
    groups: BTreeMap<usize, LengthGroup>,
    stats: TrendStats,
    scratch: Vec<f64>,
    /// Detached (free) unless attached; never serialized.
    telemetry: crate::telemetry::ClassTelemetry,
}

// Compact by hand: summaries and length groups carry full index state.
impl std::fmt::Debug for TrendMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrendMonitor")
            .field("n_streams", &self.summaries.len())
            .field("n_patterns", &self.patterns.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl TrendMonitor {
    /// A monitor over `n_streams` streams with the given summarizer
    /// configuration (must be DWT-based; typically the online policy so
    /// every arrival is checked).
    ///
    /// # Panics
    /// Panics with [`Self::try_new`]'s message on invalid parameters.
    pub fn new(config: Config, n_streams: usize) -> Self {
        Self::try_new(config, n_streams).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`] without the panic.
    ///
    /// # Errors
    /// Zero streams, an invalid or non-DWT configuration, or a history
    /// that cannot be allocated.
    pub fn try_new(config: Config, n_streams: usize) -> Result<Self, SpecError> {
        config.check()?;
        let summaries = (0..n_streams)
            .map(|_| StreamSummary::try_new(config.clone()))
            .collect::<Result<_, _>>()?;
        Self::assemble(summaries, TrendStats::default())
    }

    /// The one place a monitor is put together, from fresh or restored
    /// summaries; patterns are registered on the result.
    fn assemble(summaries: Vec<StreamSummary>, stats: TrendStats) -> Result<Self, SpecError> {
        ensure(!summaries.is_empty(), || "need at least one stream".into())?;
        let config = summaries[0].config().clone();
        ensure(config.transform == TransformKind::Dwt, || "trend monitoring is DWT-based".into())?;
        ensure(summaries.iter().all(|s| *s.config() == config), || {
            "trend summaries disagree on config".into()
        })?;
        Ok(TrendMonitor {
            config,
            summaries,
            patterns: Vec::new(),
            groups: BTreeMap::new(),
            stats,
            scratch: Vec::new(),
            telemetry: crate::telemetry::ClassTelemetry::default(),
        })
    }

    /// Attaches per-class and summarizer telemetry from `registry`.
    /// Runtime state only — re-attach after [`Self::restore`].
    pub fn attach_telemetry(&mut self, registry: &stardust_telemetry::Registry) {
        self.telemetry = crate::telemetry::ClassTelemetry::new(registry, "trend");
        let summarizer = crate::telemetry::SummarizerTelemetry::new(registry);
        for s in &mut self.summaries {
            s.set_telemetry(summarizer.clone());
        }
    }

    /// Registers a pattern; returns its id. The pattern length must be a
    /// positive multiple of `W` decomposable over the configured levels.
    pub fn register(&mut self, sequence: Vec<f64>, radius: f64) -> Result<PatternId, QueryError> {
        if !radius.is_finite() || radius < 0.0 {
            return Err(QueryError::InvalidRadius);
        }
        let r_abs = radius * (sequence.len() as f64).sqrt() * self.config.r_max;
        self.register_with_r_abs(sequence, r_abs)
    }

    /// Registers a pattern by its precomputed raw-space radius budget
    /// `r_abs = r·√L·R_max`. [`Self::register`] and snapshot restoration
    /// both funnel through here, so a restored pattern carries the exact
    /// same budget (no radius round-trip through division).
    fn register_with_r_abs(
        &mut self,
        sequence: Vec<f64>,
        r_abs: f64,
    ) -> Result<PatternId, QueryError> {
        if sequence.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        if !r_abs.is_finite() || r_abs < 0.0 {
            return Err(QueryError::InvalidRadius);
        }
        let len = sequence.len();
        let w0 = self.config.base_window;
        let f = self.config.dwt_coeffs;
        let levels = decompose(len, w0, self.config.levels - 1)?;
        // Sub-window features, most recent (tail of the pattern) first.
        let mut sub_feats = Vec::with_capacity(levels.len());
        let mut end = len;
        for &j in &levels {
            let w = w0 << j;
            sub_feats.push(haar::approx(&sequence[end - w..end], f));
            end -= w;
        }
        let id = self.patterns.len() as PatternId;
        let pattern_index = self.patterns.len();
        self.patterns.push(Registered { id, sequence, r_abs, sub_feats });
        let group = self.groups.entry(len).or_insert_with(|| LengthGroup {
            levels,
            table: PointTable::new(f, f64::INFINITY),
            max_r_abs: 0.0,
        });
        group.max_r_abs = group.max_r_abs.max(r_abs);
        group.table.push(&self.patterns[pattern_index].sub_feats[0], pattern_index);
        Ok(id)
    }

    /// Number of monitored streams.
    pub(crate) fn n_streams(&self) -> usize {
        self.summaries.len()
    }

    /// Number of registered patterns.
    pub fn n_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Cumulative candidate/match counters.
    pub fn stats(&self) -> TrendStats {
        self.stats
    }

    /// The summary of one stream.
    pub fn summary(&self, stream: StreamId) -> &StreamSummary {
        &self.summaries[stream as usize]
    }

    /// Serializes the monitor: every stream summary, the registered
    /// patterns (raw sequence plus exact radius budget), and the
    /// counters. The per-length tables are derived state: they are
    /// rebuilt by [`Self::restore`] re-registering the patterns in id
    /// order, which reproduces the identical push sequence.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize(self.summaries.len());
        for s in &self.summaries {
            w.blob(&s.snapshot());
        }
        w.u64(self.stats.candidates);
        w.u64(self.stats.matches);
        w.usize(self.patterns.len());
        for p in &self.patterns {
            w.f64_slice(&p.sequence);
            w.f64(p.r_abs);
        }
        w.finish()
    }

    /// Rebuilds a monitor from [`Self::snapshot`] bytes; continuation is
    /// bit-identical to the uninterrupted original.
    ///
    /// # Errors
    /// [`SnapshotError`] on a truncated, corrupt, or inconsistent buffer.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes)?;
        let n_streams = r.count(16)?;
        let mut summaries = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            summaries.push(StreamSummary::restore(r.blob()?)?);
        }
        let stats = TrendStats { candidates: r.u64()?, matches: r.u64()? };
        let mut monitor = Self::assemble(summaries, stats)
            .map_err(|_| SnapshotError::Corrupt("trend summaries disagree with the monitor"))?;
        let n_patterns = r.count(16)?;
        for _ in 0..n_patterns {
            let sequence = r.f64_vec()?;
            let r_abs = r.f64()?;
            monitor
                .register_with_r_abs(sequence, r_abs)
                .map_err(|_| SnapshotError::Corrupt("unregistrable trend pattern"))?;
        }
        r.expect_end()?;
        Ok(monitor)
    }

    /// Appends one value to one stream; returns the patterns the stream's
    /// current windows now match.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) -> Vec<TrendMatch> {
        let span = self.telemetry.latency_span();
        let s = stream as usize;
        self.summaries[s].push_quiet(value);
        let t = self.summaries[s].now().expect("just pushed");
        let w0 = self.config.base_window as u64;
        let mut out = Vec::new();
        for (&len, group) in &self.groups {
            if t + 1 < len as u64 {
                continue;
            }
            let summary = &self.summaries[s];
            // The stream's feature box over its most recent sub-window.
            let first_level = group.levels[0];
            let Some(mbr) = summary.mbr_at(first_level, t) else { continue };
            self.telemetry.checks.inc();
            // Candidate patterns: those whose first sub-feature is within
            // the group's largest radius of the stream's feature box.
            let mut cands: Vec<usize> = Vec::new();
            let qlo: Vec<f64> = mbr.bounds.lo().iter().map(|v| v - group.max_r_abs).collect();
            let qhi: Vec<f64> = mbr.bounds.hi().iter().map(|v| v + group.max_r_abs).collect();
            group.table.scan_in_box(&qlo, &qhi, |&idx| cands.push(idx));

            for idx in cands {
                let pat = &self.patterns[idx];
                // Hierarchical radius refinement along the stream's own
                // MBR thread (roles of Algorithm 3 swapped).
                let r_sq = pat.r_abs * pat.r_abs;
                let mut acc = {
                    let d = mbr.bounds.min_dist(&pat.sub_feats[0]);
                    d * d
                };
                if acc > r_sq + 1e-12 {
                    continue;
                }
                let mut t_cur = t;
                let mut prev_window = w0 << group.levels[0] as u64;
                let mut alive = true;
                for (feat, &j) in pat.sub_feats.iter().zip(&group.levels).skip(1) {
                    let Some(back) = t_cur.checked_sub(prev_window) else {
                        alive = false;
                        break;
                    };
                    t_cur = back;
                    let Some(m) = summary.mbr_at(j, t_cur) else {
                        alive = false;
                        break;
                    };
                    let d = m.bounds.min_dist(feat);
                    acc += d * d;
                    if acc > r_sq + 1e-12 {
                        alive = false;
                        break;
                    }
                    prev_window = w0 << j;
                }
                if !alive {
                    continue;
                }
                // Verify on the raw window.
                self.stats.candidates += 1;
                self.telemetry.candidates.inc();
                let mut buf = std::mem::take(&mut self.scratch);
                let ok = summary.history().copy_window(t, len, &mut buf);
                debug_assert!(ok, "warm window is in history");
                let d_raw: f64 = buf
                    .iter()
                    .zip(&pat.sequence)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                self.scratch = buf;
                if d_raw <= pat.r_abs {
                    self.stats.matches += 1;
                    self.telemetry.confirmed.inc();
                    out.push(TrendMatch {
                        stream,
                        pattern: pat.id,
                        time: t,
                        distance: d_raw * unit_sphere_scale(len, self.config.r_max),
                    });
                }
            }
        }
        drop(span);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpdatePolicy;

    fn monitor() -> TrendMonitor {
        let mut cfg = Config::batch(8, 3, 4, 100.0).with_history(64);
        cfg.update = UpdatePolicy::Online;
        cfg.box_capacity = 4;
        TrendMonitor::new(cfg, 2)
    }

    fn ramp(len: usize, slope: f64) -> Vec<f64> {
        (0..len).map(|i| 10.0 + slope * i as f64).collect()
    }

    #[test]
    fn registration_validates() {
        let mut m = monitor();
        assert!(m.register(vec![], 0.1).is_err());
        assert!(m.register(vec![0.0; 24], -1.0).is_err());
        assert!(matches!(
            m.register(vec![0.0; 25], 0.1),
            Err(QueryError::LengthNotDecomposable { .. })
        ));
        assert!(m.register(ramp(24, 0.5), 0.1).is_ok());
        assert_eq!(m.n_patterns(), 1);
    }

    #[test]
    fn detects_trend_as_it_appears() {
        let mut m = monitor();
        let pat = ramp(24, 0.5);
        let id = m.register(pat.clone(), 0.02).expect("valid pattern");
        // Stream 1 wanders flat, then follows the ramp exactly.
        let mut hits = Vec::new();
        for i in 0..60 {
            let v = 10.0 + ((i * 13) % 7) as f64 * 0.2;
            hits.extend(m.append(1, v));
        }
        assert!(hits.is_empty(), "no trend yet: {hits:?}");
        for &v in &pat {
            hits.extend(m.append(1, v));
        }
        assert!(
            hits.iter().any(|h| h.pattern == id && h.stream == 1),
            "trend not flagged: {hits:?}"
        );
        // The final match fires exactly when the window completes.
        let last = hits.last().expect("matched");
        assert_eq!(last.time, 60 + 24 - 1);
        assert!(last.distance <= 0.02);
    }

    #[test]
    fn multiple_patterns_and_lengths() {
        let mut m = monitor();
        let up = m.register(ramp(16, 1.0), 0.05).unwrap();
        let down = m.register(ramp(24, -0.8).iter().map(|v| v + 30.0).collect(), 0.05).unwrap();
        assert_ne!(up, down);
        // Feed the down-trend into stream 0.
        let mut matched = std::collections::BTreeSet::new();
        for i in 0..24 {
            let v = 40.0 - 0.8 * i as f64;
            for h in m.append(0, v) {
                matched.insert(h.pattern);
            }
        }
        assert!(matched.contains(&down), "down trend missed: {matched:?}");
        assert!(!matched.contains(&up), "up trend spuriously matched");
    }

    #[test]
    fn matches_agree_with_bruteforce_over_time() {
        let mut m = monitor();
        let pat = ramp(16, 0.7);
        m.register(pat.clone(), 0.03).unwrap();
        let r_abs = 0.03 * 16f64.sqrt() * 100.0;
        let mut series = Vec::new();
        let mut expected = 0usize;
        let mut reported = 0usize;
        let mut seed = 5u64;
        for i in 0..400 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = if i % 37 < 16 {
                // periodically replay the ramp with small noise
                pat[i % 37] + ((seed >> 33) as f64 / 2f64.powi(31) - 0.5) * 0.3
            } else {
                12.0 + ((seed >> 33) % 8) as f64
            };
            series.push(v);
            reported += m.append(0, v).len();
            if series.len() >= 16 {
                let win = &series[series.len() - 16..];
                let d: f64 =
                    win.iter().zip(&pat).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
                if d <= r_abs {
                    expected += 1;
                }
            }
        }
        assert_eq!(reported, expected, "continuous matches must equal brute force");
        assert!(expected > 0, "workload should contain matches");
    }

    #[test]
    fn precision_counters() {
        let mut m = monitor();
        m.register(ramp(16, 0.7), 0.03).unwrap();
        for i in 0..200 {
            m.append(0, 10.0 + (i % 16) as f64 * 0.7);
        }
        let st = m.stats();
        assert!(st.matches <= st.candidates);
        assert!(st.precision() > 0.0 && st.precision() <= 1.0);
    }
}
