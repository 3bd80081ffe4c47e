//! The multi-stream Stardust engine: per-stream summaries plus one shared
//! R\*-tree per resolution level.
//!
//! §4: "We maintain features at a given level in a high dimensional index
//! structure. The index combines information from all the streams […]
//! However, each MBR inserted into the index is specific to a single
//! stream." Sealed MBRs flow into the level's tree; retired MBRs are
//! deleted. The pattern-query algorithms (Algorithms 3 and 4) run against
//! this engine; aggregate and correlation monitoring have dedicated
//! façades ([`crate::query::aggregate::AggregateMonitor`],
//! [`crate::query::correlation::CorrelationMonitor`]) built on the same
//! summarizer.
//!
//! Feature coordinates are kept **unnormalized** throughout (the DWT is
//! linear, so the Eq. 2 scale factor commutes with everything); queries
//! convert their normalized-space radius `r` into the equivalent raw-space
//! radius `r·√|Q|·R_max` once, which lets a single tree serve queries of
//! any length.

use stardust_index::{bulk_load, Params, RStarTree, Rect};

use crate::config::Config;
use crate::mbr::FeatureMbr;
use crate::stream::{StreamId, Time};
use crate::summarizer::{StreamSummary, SummaryEvent};
use crate::transform::TransformKind;

/// What a tree leaf points back to: a sealed MBR of one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Owning stream.
    pub stream: StreamId,
    /// Feature time of the MBR's first feature.
    pub first: Time,
    /// Number of features in the MBR.
    pub count: u32,
    /// Spacing between consecutive feature times.
    pub period: u64,
}

impl IndexEntry {
    /// Iterates the feature times contained in the MBR.
    pub fn feature_times(&self) -> impl Iterator<Item = Time> + '_ {
        (0..self.count as u64).map(move |i| self.first + i * self.period)
    }
}

/// The Stardust engine over `M` streams.
pub struct Stardust {
    config: Config,
    streams: Vec<StreamSummary>,
    trees: Vec<RStarTree<IndexEntry>>,
    events: Vec<SummaryEvent>,
}

impl Stardust {
    /// An engine over `n_streams` streams with the given configuration.
    /// The configuration must use the DWT transform (aggregate monitoring
    /// does not need the cross-stream index; use `AggregateMonitor`).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or not DWT-based.
    pub fn new(config: Config, n_streams: usize) -> Self {
        assert!(n_streams > 0, "need at least one stream");
        assert_eq!(
            config.transform,
            TransformKind::Dwt,
            "the indexed engine is DWT-based; aggregates use AggregateMonitor"
        );
        config.validate();
        let dims = config.transform.dims(config.dwt_coeffs);
        let streams = (0..n_streams).map(|_| StreamSummary::new(config.clone())).collect();
        let trees =
            (0..config.levels).map(|_| RStarTree::with_params(dims, Params::default())).collect();
        Stardust { config, streams, trees, events: Vec::new() }
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

    /// The index at a resolution level.
    ///
    /// # Panics
    /// Panics if the level is out of range.
    pub fn tree(&self, level: usize) -> &RStarTree<IndexEntry> {
        &self.trees[level]
    }

    /// Appends one value to one stream, maintaining summaries and indexes.
    ///
    /// # Panics
    /// Panics if the stream id is out of range.
    pub fn append(&mut self, stream: StreamId, value: f64) {
        self.events.clear();
        self.streams[stream as usize].push(value, &mut self.events);
        for event in self.events.drain(..) {
            match event {
                SummaryEvent::Sealed { level, mbr } => {
                    let (rect, entry) = index_record(stream, &mbr);
                    self.trees[level].insert(rect, entry);
                }
                SummaryEvent::Retired { level, mbr } => {
                    let (rect, entry) = index_record(stream, &mbr);
                    let removed = self.trees[level].remove(&rect, &entry);
                    debug_assert!(removed, "retired MBR was never indexed");
                }
            }
        }
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

    /// Serializes the whole engine (every stream's summary). The per-level
    /// R\*-trees are *not* serialized — they are derived state, rebuilt on
    /// restore by re-indexing every retained sealed MBR.
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
        // Rebuild the per-level indexes from the retained sealed MBRs with
        // one STR bulk build per level instead of N incremental inserts.
        let dims = config.transform.dims(config.dwt_coeffs);
        let trees: Vec<RStarTree<IndexEntry>> = (0..config.levels)
            .map(|level| {
                let items: Vec<(Rect, IndexEntry)> = streams
                    .iter()
                    .enumerate()
                    .flat_map(|(sid, summary)| {
                        summary
                            .sealed_mbrs(level)
                            .map(move |mbr| index_record(sid as StreamId, mbr))
                    })
                    .collect();
                bulk_load(dims, Params::default(), items)
            })
            .collect();
        Ok(Stardust { config, streams, trees, events: Vec::new() })
    }
}

impl std::fmt::Debug for Stardust {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stardust")
            .field("streams", &self.streams.len())
            .field("levels", &self.config.levels)
            .field("indexed", &self.trees.iter().map(|t| t.len()).collect::<Vec<_>>())
            .finish()
    }
}

/// The (rectangle, payload) pair under which an MBR is indexed; must be
/// deterministic so retirement can delete the exact record.
fn index_record(stream: StreamId, mbr: &FeatureMbr) -> (Rect, IndexEntry) {
    let rect = Rect::new(mbr.bounds.lo().to_vec(), mbr.bounds.hi().to_vec());
    let entry =
        IndexEntry { stream, first: mbr.first, count: mbr.count as u32, period: mbr.period };
    (rect, entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(streams: usize) -> Stardust {
        let cfg = Config::batch(8, 3, 4, 100.0).with_history(64);
        Stardust::new(cfg, streams)
    }

    fn wave(i: usize, s: usize) -> f64 {
        ((i as f64 * 0.21) + s as f64).sin() * 20.0 + 50.0
    }

    #[test]
    fn indexes_follow_sealed_mbrs() {
        let mut e = engine(3);
        for i in 0..200 {
            for s in 0..3 {
                e.append(s, wave(i, s as usize));
            }
        }
        for level in 0..3 {
            let tree_count = e.tree(level).len();
            let sealed: usize = (0..3).map(|s| e.summary(s).sealed_mbrs(level).count()).sum();
            assert_eq!(tree_count, sealed, "level {level}");
            assert!(tree_count > 0, "level {level} should have entries");
            e.tree(level).validate().expect("valid tree");
        }
    }

    #[test]
    fn retired_mbrs_leave_index() {
        let mut e = engine(1);
        for i in 0..2000 {
            e.append(0, wave(i, 0));
        }
        // History is 64, features every 8 at level 0 -> at most ~9-10 live.
        assert!(e.tree(0).len() <= 12, "level 0 holds {}", e.tree(0).len());
    }

    #[test]
    fn entry_feature_times() {
        let entry = IndexEntry { stream: 2, first: 63, count: 3, period: 64 };
        let times: Vec<Time> = entry.feature_times().collect();
        assert_eq!(times, vec![63, 127, 191]);
    }

    #[test]
    fn raw_radius_conversion() {
        let e = engine(1);
        // r·√|Q|·R_max = 0.1·√64·100
        assert!((e.raw_radius(0.1, 64) - 80.0).abs() < 1e-9);
    }

    /// Snapshot → restore → continue: index contents and query behaviour
    /// are preserved.
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
        for level in 0..3 {
            assert_eq!(e.tree(level).len(), r.tree(level).len(), "level {level}");
            r.tree(level).validate().expect("valid restored tree");
        }
        // Future appends keep the two engines in lockstep.
        for i in 300..400 {
            for s in 0..3 {
                e.append(s, wave(i, s as usize));
                r.append(s, wave(i, s as usize));
            }
        }
        for level in 0..3 {
            assert_eq!(e.tree(level).len(), r.tree(level).len(), "level {level} after append");
        }
        // And answer pattern queries identically.
        let q = crate::query::pattern::PatternQuery {
            sequence: (360..392).map(|i| wave(i, 1)).collect(),
            radius: 0.05,
        };
        let a = crate::query::pattern::query_batch(&e, &q).expect("valid");
        let b = crate::query::pattern::query_batch(&r, &q).expect("valid");
        let mut ma: Vec<_> = a.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        let mut mb: Vec<_> = b.matches.iter().map(|m| (m.stream, m.end_time)).collect();
        ma.sort_unstable();
        mb.sort_unstable();
        assert_eq!(ma, mb);
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
