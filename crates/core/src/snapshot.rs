//! Checkpoint / restore of summarizer state.
//!
//! A monitoring deployment must survive restarts without losing its
//! windowed history (re-warming a level-J window of size `N` costs `N`
//! arrivals of blindness). [`crate::summarizer::StreamSummary::snapshot`]
//! serializes the full summary — configuration, raw-history ring buffer,
//! and every open/sealed MBR at every level — into a self-describing
//! little-endian byte format; restoring yields a summary whose future
//! outputs are **bit-identical** to the uninterrupted original (verified
//! by property tests).
//!
//! The derived level-0 machinery (running moments, monotonic deques) *is*
//! serialized: the running sums carry the accumulated floating-point
//! rounding of the whole stream, so rebuilding them from the retained
//! history would differ from the uninterrupted original in the last ulp —
//! bit-identical continuation requires carrying them across.

use crate::config::{ComputeMode, Config, UpdatePolicy};
use crate::mbr::FeatureMbr;
use crate::transform::TransformKind;
use stardust_dsp::mbr_transform::Bounds;

/// Format magic + version.
pub const MAGIC: &[u8; 8] = b"SDSNAP01";

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic/version.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A tag or count field held an invalid value.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a stardust snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian byte sink.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        let mut w = Writer { buf: Vec::with_capacity(256) };
        w.buf.extend_from_slice(MAGIC);
        w
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64_slice(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// A length-prefixed nested byte blob (e.g. an embedded sub-snapshot
    /// that carries its own magic).
    pub(crate) fn blob(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte source with bounds checking.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        Ok(Reader { buf, pos: MAGIC.len() })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("oversized count"))
    }

    /// A count that will be used to allocate; bounded against the
    /// remaining input so corrupt lengths cannot trigger huge allocations.
    pub(crate) fn count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.saturating_mul(elem_size.max(1)) > self.buf.len() - self.pos + 8 {
            return Err(SnapshotError::Corrupt("count exceeds input"));
        }
        Ok(n)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Reads a blob written by [`Writer::blob`].
    pub(crate) fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.count(1)?;
        self.take(n)
    }

    pub(crate) fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing bytes"))
        }
    }
}

pub(crate) fn encode_config(w: &mut Writer, cfg: &Config) {
    w.usize(cfg.base_window);
    w.usize(cfg.levels);
    w.usize(cfg.box_capacity);
    w.usize(cfg.history);
    w.u8(match cfg.transform {
        TransformKind::Sum => 0,
        TransformKind::Max => 1,
        TransformKind::Min => 2,
        TransformKind::Spread => 3,
        TransformKind::Dwt => 4,
    });
    w.usize(cfg.dwt_coeffs);
    w.f64(cfg.r_max);
    w.u8(match cfg.update {
        UpdatePolicy::Online => 0,
        UpdatePolicy::Batch => 1,
        UpdatePolicy::Swat => 2,
    });
    w.u8(match cfg.compute {
        ComputeMode::Incremental => 0,
        ComputeMode::Direct => 1,
    });
}

pub(crate) fn decode_config(r: &mut Reader<'_>) -> Result<Config, SnapshotError> {
    let base_window = r.usize()?;
    let levels = r.usize()?;
    let box_capacity = r.usize()?;
    let history = r.usize()?;
    let transform = match r.u8()? {
        0 => TransformKind::Sum,
        1 => TransformKind::Max,
        2 => TransformKind::Min,
        3 => TransformKind::Spread,
        4 => TransformKind::Dwt,
        _ => return Err(SnapshotError::Corrupt("transform tag")),
    };
    let dwt_coeffs = r.usize()?;
    let r_max = r.f64()?;
    let update = match r.u8()? {
        0 => UpdatePolicy::Online,
        1 => UpdatePolicy::Batch,
        2 => UpdatePolicy::Swat,
        _ => return Err(SnapshotError::Corrupt("update tag")),
    };
    let compute = match r.u8()? {
        0 => ComputeMode::Incremental,
        1 => ComputeMode::Direct,
        _ => return Err(SnapshotError::Corrupt("compute tag")),
    };
    Ok(Config {
        base_window,
        levels,
        box_capacity,
        history,
        transform,
        dwt_coeffs,
        r_max,
        update,
        compute,
    })
}

/// The DWT interval merge has one algorithm (Appendix A's box transform);
/// the format keeps its one-byte tag, always 0, so existing blobs stay
/// byte-identical.
pub(crate) fn encode_precision(w: &mut Writer) {
    w.u8(0);
}

pub(crate) fn decode_precision(r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    match r.u8()? {
        0 => Ok(()),
        _ => Err(SnapshotError::Corrupt("precision tag")),
    }
}

pub(crate) fn encode_mbr(w: &mut Writer, m: &FeatureMbr) {
    w.f64_slice(m.bounds.lo());
    w.f64_slice(m.bounds.hi());
    w.f64(m.sum.0);
    w.f64(m.sum.1);
    w.f64(m.sumsq.0);
    w.f64(m.sumsq.1);
    w.u64(m.first);
    w.usize(m.count);
    w.u64(m.period);
}

pub(crate) fn decode_mbr(r: &mut Reader<'_>) -> Result<FeatureMbr, SnapshotError> {
    let lo = r.f64_vec()?;
    let hi = r.f64_vec()?;
    if lo.len() != hi.len() || lo.is_empty() {
        return Err(SnapshotError::Corrupt("bounds arity"));
    }
    for (l, h) in lo.iter().zip(&hi) {
        if !(l.is_finite() && h.is_finite() && l <= h) {
            return Err(SnapshotError::Corrupt("inverted or non-finite bounds"));
        }
    }
    let bounds = Bounds::new(lo, hi);
    let sum = (r.f64()?, r.f64()?);
    let sumsq = (r.f64()?, r.f64()?);
    let first = r.u64()?;
    let count = r.usize()?;
    let period = r.u64()?;
    if count == 0 || period == 0 {
        return Err(SnapshotError::Corrupt("empty MBR"));
    }
    Ok(FeatureMbr { bounds, sum, sumsq, first, count, period })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.f64(-0.125);
        w.f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).expect("magic");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.f64_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        r.expect_end().expect("consumed exactly");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Reader::new(b"NOTSNAP0").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(Reader::new(b"SD").unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2);
        let mut r = Reader::new(&bytes).expect("magic intact");
        assert_eq!(r.u64().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn oversized_count_rejected() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).expect("magic");
        assert!(matches!(r.count(8), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn config_roundtrip() {
        let cfg = Config::batch(32, 4, 8, 123.5).with_history(512);
        let mut w = Writer::new();
        encode_config(&mut w, &cfg);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(decode_config(&mut r).unwrap(), cfg);
    }

    #[test]
    fn mbr_roundtrip() {
        let mut m = FeatureMbr::first(
            Bounds::new(vec![1.0, -2.0], vec![1.5, 0.0]),
            (3.0, 4.0),
            (9.0, 16.0),
            42,
            8,
        );
        m.absorb(&Bounds::point(&[0.5, -1.0]), (2.0, 2.0), (4.0, 4.0), 50);
        let mut w = Writer::new();
        encode_mbr(&mut w, &m);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(decode_mbr(&mut r).unwrap(), m);
    }

    #[test]
    fn corrupt_tags_rejected() {
        let mut w = Writer::new();
        let mut cfg_bytes = {
            encode_config(&mut w, &Config::batch(8, 2, 2, 1.0));
            w.finish()
        };
        // The transform tag is at a fixed offset: magic(8) + 4 usizes(32).
        cfg_bytes[8 + 32] = 99;
        let mut r = Reader::new(&cfg_bytes).unwrap();
        assert!(matches!(decode_config(&mut r), Err(SnapshotError::Corrupt("transform tag"))));
    }
}
