//! The multi-stream Stardust engine: one summary per stream, queried
//! together by the pattern algorithms.
//!
//! §4: "We maintain features at a given level in a high dimensional index
//! structure. The index combines information from all the streams […]
//! However, each MBR inserted into the index is specific to a single
//! stream." Every stream's [`StreamSummary`] already keeps its MBRs per
//! level in time order, sealing new ones and retiring old ones as the
//! history slides, so the engine keeps no second copy: a level's index is
//! the sequence [`Stardust::mbrs`] walks, every stream's sealed MBRs and
//! then its open one. The pattern-query algorithms (Algorithms 3 and 4)
//! scan it with the exact box tests a tree's leaves would apply; at the
//! paper's sizes (a few thousand boxes per level, `f` = 2–8) the scan is
//! linear in the retained boxes and costs no maintenance. Aggregate and
//! correlation monitoring have dedicated façades
//! ([`crate::query::aggregate::AggregateMonitor`],
//! [`crate::query::correlation::CorrelationMonitor`]) built on the same
//! summarizer.
//!
//! Feature coordinates are kept **unnormalized** throughout (the DWT is
//! linear, so the Eq. 2 scale factor commutes with everything); queries
//! convert their normalized-space radius `r` into the equivalent raw-space
//! radius `r·√|Q|·R_max` once, which lets one set of boxes serve queries
//! of any length.

use crate::config::Config;
use crate::mbr::FeatureMbr;
use crate::stream::StreamId;
use crate::summarizer::StreamSummary;
use crate::transform::TransformKind;

/// The Stardust engine over `M` streams.
pub struct Stardust {
    config: Config,
    streams: Vec<StreamSummary>,
}

impl Stardust {
    /// An engine over `n_streams` streams with the given configuration.
    /// The configuration must use the DWT transform (aggregate monitoring
    /// does not query across streams; use `AggregateMonitor`).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or not DWT-based.
    pub fn new(config: Config, n_streams: usize) -> Self {
        assert!(n_streams > 0, "need at least one stream");
        assert_eq!(
            config.transform,
            TransformKind::Dwt,
            "the pattern engine is DWT-based; aggregates use AggregateMonitor"
        );
        let streams = (0..n_streams).map(|_| StreamSummary::new(config.clone())).collect();
        Stardust { config, streams }
    }

    /// The shared configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of streams.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// The summary of one stream.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn summary(&self, stream: StreamId) -> &StreamSummary {
        &self.streams[stream as usize]
    }

    /// Every retained MBR at a resolution level, each with its stream, in
    /// canonical order: by stream, then by time (each stream's sealed
    /// MBRs, oldest first, then its open one). This is the level's index
    /// that the pattern queries scan.
    ///
    /// # Panics
    /// Panics if the level is out of range.
    pub fn mbrs(&self, level: usize) -> impl Iterator<Item = (StreamId, &FeatureMbr)> {
        self.streams.iter().enumerate().flat_map(move |(s, summary)| {
            summary
                .sealed_mbrs(level)
                .chain(summary.open_mbr(level))
                .map(move |mbr| (s as StreamId, mbr))
        })
    }

    /// Appends one value to one stream, maintaining its summary.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) {
        self.streams[stream as usize].push_quiet(value);
    }

    /// Appends one synchronized value per stream (`values.len()` must equal
    /// the stream count).
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn append_all(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.streams.len(), "one value per stream");
        for (s, &v) in values.iter().enumerate() {
            self.append(s as StreamId, v);
        }
    }

    /// Converts a normalized-space radius (Eq. 2 with window length
    /// `query_len`) to the equivalent raw-space radius.
    pub fn raw_radius(&self, r: f64, query_len: usize) -> f64 {
        r * (query_len as f64).sqrt() * self.config.r_max
    }

    /// Serializes the whole engine: every stream's summary, which is all
    /// the state it has.
    pub fn snapshot(&self) -> Vec<u8> {
        // Concatenate per-stream summary snapshots behind a count header;
        // each summary blob is length-prefixed.
        let mut out = Vec::new();
        out.extend_from_slice(crate::snapshot::MAGIC);
        out.extend_from_slice(&(self.streams.len() as u64).to_le_bytes());
        for s in &self.streams {
            let blob = s.snapshot();
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        out
    }

    /// Rebuilds an engine from a [`Stardust::snapshot`] buffer.
    ///
    /// # Errors
    /// Returns [`crate::snapshot::SnapshotError`] on malformed input or if
    /// the streams' configurations disagree.
    pub fn restore(bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let magic = crate::snapshot::MAGIC;
        if bytes.len() < magic.len() + 8 || &bytes[..magic.len()] != magic {
            return Err(SnapshotError::BadMagic);
        }
        let mut pos = magic.len();
        let read_u64 = |pos: &mut usize| -> Result<u64, SnapshotError> {
            let end = *pos + 8;
            if end > bytes.len() {
                return Err(SnapshotError::Truncated);
            }
            let v = u64::from_le_bytes(bytes[*pos..end].try_into().expect("8 bytes"));
            *pos = end;
            Ok(v)
        };
        let n_streams = read_u64(&mut pos)? as usize;
        if n_streams == 0 || n_streams > bytes.len() {
            return Err(SnapshotError::Corrupt("stream count"));
        }
        let mut streams = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            let len = read_u64(&mut pos)? as usize;
            if pos + len > bytes.len() {
                return Err(SnapshotError::Truncated);
            }
            streams.push(StreamSummary::restore(&bytes[pos..pos + len])?);
            pos += len;
        }
        if pos != bytes.len() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        let config = streams[0].config().clone();
        if config.transform != TransformKind::Dwt {
            return Err(SnapshotError::Corrupt("engine requires a DWT configuration"));
        }
        if streams.iter().any(|s| s.config() != &config) {
            return Err(SnapshotError::Corrupt("stream configurations disagree"));
        }
        Ok(Stardust { config, streams })
    }
}

impl std::fmt::Debug for Stardust {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stardust")
            .field("streams", &self.streams.len())
            .field("levels", &self.config.levels)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::pattern::{query_batch, PatternQuery};

    fn engine(streams: usize) -> Stardust {
        let cfg = Config::batch(8, 3, 4, 100.0).with_history(64);
        Stardust::new(cfg, streams)
    }

    fn wave(i: usize, s: usize) -> f64 {
        ((i as f64 * 0.21) + s as f64).sin() * 20.0 + 50.0
    }

    /// A batch query whose box covers all of feature space retrieves the
    /// features of every retained MBR at its level, sealed and open, once
    /// each and in canonical (stream, time) order.
    #[test]
    fn indexes_follow_sealed_mbrs() {
        let mut e = engine(3);
        for i in 0..200 {
            for s in 0..3 {
                e.append(s, wave(i, s as usize));
            }
        }
        // Query lengths 15, 23 and 39 select levels 0, 1 and 2.
        for (level, len) in [(0, 15), (1, 23), (2, 39)] {
            let q = PatternQuery { sequence: vec![50.0; len], radius: 1e9 };
            let answer = query_batch(&e, &q).expect("valid");
            let mut want = Vec::new();
            for s in 0..3 {
                let summary = e.summary(s);
                assert!(summary.sealed_mbrs(level).count() > 0, "level {level} stream {s}");
                for mbr in summary.sealed_mbrs(level).chain(summary.open_mbr(level)) {
                    want.extend(mbr.feature_times().map(|t| (s, t)));
                }
            }
            assert!(want.windows(2).all(|pair| pair[0] < pair[1]), "level {level}");
            assert_eq!(answer.candidates, want, "level {level}");
        }
    }

    /// Retired MBRs leave the scan with the history that backed them.
    #[test]
    fn retired_mbrs_leave_index() {
        let mut e = engine(1);
        for i in 0..2000 {
            e.append(0, wave(i, 0));
        }
        // History is 64, features every 8 at level 0 -> at most ~9-10 live.
        let live = e.mbrs(0).count();
        assert!(live <= 12, "level 0 holds {live}");
        let q = PatternQuery { sequence: vec![50.0; 15], radius: 1e9 };
        let answer = query_batch(&e, &q).expect("valid");
        let oldest = e.summary(0).history().oldest_time();
        assert!(!answer.candidates.is_empty());
        assert!(answer.candidates.iter().all(|&(_, t)| t >= oldest), "{:?}", answer.candidates);
    }

    /// A hit on a box expands to the feature times it holds.
    #[test]
    fn entry_feature_times() {
        let mbr = FeatureMbr {
            bounds: stardust_dsp::mbr_transform::Bounds::point(&[0.0]),
            sum: (0.0, 0.0),
            sumsq: (0.0, 0.0),
            first: 63,
            count: 3,
            period: 64,
        };
        assert_eq!(mbr.feature_times().collect::<Vec<_>>(), vec![63, 127, 191]);
    }

    #[test]
    fn raw_radius_conversion() {
        let e = engine(1);
        // r·√|Q|·R_max = 0.1·√64·100
        assert!((e.raw_radius(0.1, 64) - 80.0).abs() < 1e-9);
    }

    /// Snapshot → restore → continue: every level's boxes and query
    /// behaviour are preserved.
    #[test]
    fn engine_snapshot_roundtrip() {
        let mut e = engine(3);
        for i in 0..300 {
            for s in 0..3 {
                e.append(s, wave(i, s as usize));
            }
        }
        let bytes = e.snapshot();
        let mut r = Stardust::restore(&bytes).expect("restores");
        assert_eq!(r.n_streams(), 3);
        let same_boxes = |a: &Stardust, b: &Stardust, level: usize| a.mbrs(level).eq(b.mbrs(level));
        for level in 0..3 {
            assert!(same_boxes(&e, &r, level), "level {level}");
        }
        // Future appends keep the two engines in lockstep.
        for i in 300..400 {
            for s in 0..3 {
                e.append(s, wave(i, s as usize));
                r.append(s, wave(i, s as usize));
            }
        }
        for level in 0..3 {
            assert!(same_boxes(&e, &r, level), "level {level} after append");
        }
        // And answer pattern queries identically.
        let q = PatternQuery { sequence: (360..392).map(|i| wave(i, 1)).collect(), radius: 0.05 };
        let a = query_batch(&e, &q).expect("valid");
        let b = query_batch(&r, &q).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn engine_restore_rejects_garbage() {
        assert!(Stardust::restore(b"junk").is_err());
        let e = engine(2);
        let good = e.snapshot();
        for cut in (8..good.len()).step_by(101) {
            assert!(Stardust::restore(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "DWT-based")]
    fn rejects_aggregate_transform() {
        let cfg = Config::online(TransformKind::Sum, 8, 2, 1);
        let _ = Stardust::new(cfg, 1);
    }
}
