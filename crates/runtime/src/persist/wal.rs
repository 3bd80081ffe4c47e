//! The on-disk write-ahead log: one `shard-N.wal` file per shard,
//! length-prefixed CRC-checksummed records appended through the
//! journal-first path.
//!
//! ```text
//! header   "SDWAL001" | gen u64 | shard u64            (24 bytes)
//! record   len u32 | crc32(payload) u32 | payload      (repeated)
//! payload  0x00 | count u32 | (stream u32, value f64)×count   batch
//!          0x01 | emitted u64                                 ack
//! ```
//!
//! All integers little-endian. A *batch* record is written before the
//! batch is applied (write-ahead); an *ack* record is written after the
//! batch's events were handed to the collector and carries the shard's
//! cumulative delivered-event count — recovery replays batches and
//! suppresses the first `last_ack − emitted_at_snapshot` regenerated
//! events, which were already delivered before the crash.
//!
//! [`scan_wal`] distinguishes a *torn tail* (a partial or
//! checksum-failing record at the end of the log — the expected residue
//! of a crash mid-write, recovered by truncating to the last valid
//! record) from *mid-log corruption* (a damaged record with checksummed
//! complete records after it), which is reported as a typed
//! [`RecoveryError::CorruptRecord`] — silently dropping records that
//! verify would turn disk rot into data loss.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use stardust_core::stream::StreamId;

use super::crc32::crc32;
use super::RecoveryError;

/// Magic bytes opening every WAL file (version in the trailing digits).
pub(crate) const WAL_MAGIC: &[u8; 8] = b"SDWAL001";
/// Fixed header length: magic + generation + shard id + header CRC.
/// The CRC covers the generation and shard fields — a bit flip there
/// would otherwise silently re-chain the segment onto the wrong
/// snapshot.
pub(crate) const WAL_HEADER_LEN: u64 = 28;
/// Upper bound on a record payload accepted by the scanner. Real
/// payloads are bounded by the batch size; anything past this is
/// treated as frame garbage rather than allocated.
const MAX_PAYLOAD: u32 = 1 << 30;

const TAG_BATCH: u8 = 0x00;
const TAG_ACK: u8 = 0x01;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A journaled batch, in shard-local stream ids.
    Batch(Vec<(StreamId, f64)>),
    /// Cumulative events delivered to the collector as of this point.
    Ack(u64),
}

/// Encodes a batch payload (tag + count + items) into `buf`.
pub(crate) fn encode_batch_into(buf: &mut Vec<u8>, items: &[(StreamId, f64)]) {
    buf.reserve(5 + items.len() * 12);
    buf.push(TAG_BATCH);
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for &(stream, value) in items {
        buf.extend_from_slice(&stream.to_le_bytes());
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

/// Encodes an ack payload (tag + cumulative emitted count) into `buf`.
pub(crate) fn encode_ack_into(buf: &mut Vec<u8>, emitted: u64) {
    buf.push(TAG_ACK);
    buf.extend_from_slice(&emitted.to_le_bytes());
}

/// Decodes a payload whose checksum already verified. `None` means the
/// bytes checksum but do not parse — a foreign or future record shape.
fn decode_payload(payload: &[u8]) -> Option<WalEntry> {
    let (&tag, rest) = payload.split_first()?;
    match tag {
        TAG_BATCH => {
            let (count, mut rest) =
                (u32::from_le_bytes(rest.get(..4)?.try_into().ok()?), &rest[4..]);
            if rest.len() != count as usize * 12 {
                return None;
            }
            let mut items = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let stream = u32::from_le_bytes(rest[..4].try_into().ok()?);
                let value = f64::from_bits(u64::from_le_bytes(rest[4..12].try_into().ok()?));
                items.push((stream, value));
                rest = &rest[12..];
            }
            Some(WalEntry::Batch(items))
        }
        TAG_ACK if rest.len() == 8 => {
            Some(WalEntry::Ack(u64::from_le_bytes(rest.try_into().ok()?)))
        }
        _ => None,
    }
}

/// Appends one framed record to `buf`, with the payload produced in
/// place by `encode` — no intermediate payload allocation. The 8-byte
/// frame head is reserved up front and backpatched with the payload's
/// length and checksum once it is encoded.
pub(crate) fn frame_record_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let head = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    encode(buf);
    let payload_len = (buf.len() - head - 8) as u32;
    let crc = crc32(&buf[head + 8..]);
    buf[head..head + 4].copy_from_slice(&payload_len.to_le_bytes());
    buf[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Append handle over one shard's live WAL file. Writes go straight to
/// the file descriptor (no userspace buffering), so a record survives
/// process death the moment [`Self::append`] returns; `sync` is only needed to
/// survive machine/power loss, which is what [`super::SyncPolicy`]
/// paces.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    /// Valid bytes written so far (header + complete records).
    pub bytes: u64,
}

impl WalWriter {
    /// Creates (truncating) a fresh WAL with its header. The caller
    /// decides whether to fsync.
    pub fn create(path: &Path, gen: u64, shard: u64) -> io::Result<Self> {
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&gen.to_le_bytes());
        header.extend_from_slice(&shard.to_le_bytes());
        let crc = crc32(&header[8..24]);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)?;
        Ok(WalWriter { file, bytes: WAL_HEADER_LEN })
    }

    /// Reopens an existing segment for appending at `len` bytes — its
    /// valid length after any torn-tail truncation. Used when the
    /// open-time rotation is aborted and the shard resumes its current
    /// segment instead.
    pub fn open_append(path: &Path, len: u64) -> io::Result<Self> {
        let file = File::options().append(true).open(path)?;
        Ok(WalWriter { file, bytes: len })
    }

    /// The underlying file handle, for fsync through the fault plan.
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Appends a run of framed records (built with
    /// [`frame_record_into`]) as one `write(2)`. `tear_at` (an absolute
    /// file offset inside the run, injected by the disk fault plan)
    /// stops the write there and reports an error, simulating the torn
    /// tail a power cut mid-write leaves behind: the bytes before it hit
    /// disk (a clean prefix of complete records plus at most one partial
    /// frame), and `bytes` does not advance.
    pub fn append(&mut self, framed: &[u8], tear_at: Option<u64>) -> io::Result<u64> {
        if let Some(at) = tear_at {
            let keep = at.saturating_sub(self.bytes).min(framed.len() as u64) as usize;
            self.file.write_all(&framed[..keep])?;
            return Err(io::Error::other(format!(
                "injected torn write at byte {at} ({keep} of {} group bytes hit disk)",
                framed.len()
            )));
        }
        self.file.write_all(framed)?;
        self.bytes += framed.len() as u64;
        Ok(framed.len() as u64)
    }
}

/// What a scan found on disk.
#[derive(Debug)]
pub(crate) enum WalFile {
    /// No file at the path.
    Missing,
    /// The file is shorter than a header — the crash interrupted its
    /// creation. Nothing was ever logged to it.
    TornHeader {
        /// Bytes of partial header on disk.
        torn_bytes: u64,
    },
    /// A readable log (possibly with a truncatable torn tail).
    Valid(WalScan),
}

/// The decoded contents of one WAL segment.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Generation stamped in the header (ties the segment to the
    /// snapshot it extends).
    pub gen: u64,
    /// Shard id stamped in the header.
    pub shard: u64,
    /// Journaled appends in log order, flattened across batch records.
    pub items: Vec<(StreamId, f64)>,
    /// Highest cumulative delivered-event count acked in the segment.
    pub last_ack: Option<u64>,
    /// Offset one past the last valid record.
    pub valid_len: u64,
    /// Bytes of torn tail beyond `valid_len` (zero for a clean log).
    pub torn_bytes: u64,
}

/// Is there a complete, checksummed, decodable record at `pos`?
fn record_at(buf: &[u8], pos: usize) -> bool {
    let Some(head) = buf.get(pos..pos + 8) else { return false };
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD as usize {
        return false;
    }
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    let Some(payload) = buf.get(pos + 8..pos + 8 + len) else { return false };
    crc32(payload) == crc && decode_payload(payload).is_some()
}

/// Reads and validates one WAL segment.
///
/// A partial or checksum-failing record at the tail is reported as
/// `torn_bytes` for the caller to truncate; the same damage followed by
/// at least one complete valid record is mid-log corruption and fails
/// with [`RecoveryError::CorruptRecord`]. Never panics on any byte
/// sequence.
pub(crate) fn scan_wal(path: &Path) -> Result<WalFile, RecoveryError> {
    let mut buf = Vec::new();
    match File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalFile::Missing),
        Err(e) => return Err(RecoveryError::io(path, e)),
        Ok(mut f) => {
            f.read_to_end(&mut buf).map_err(|e| RecoveryError::io(path, e))?;
        }
    }
    if (buf.len() as u64) < WAL_HEADER_LEN {
        return Ok(WalFile::TornHeader { torn_bytes: buf.len() as u64 });
    }
    if &buf[..8] != WAL_MAGIC {
        return Err(RecoveryError::bad_header(path, "WAL magic mismatch"));
    }
    let header_crc = u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes"));
    if crc32(&buf[8..24]) != header_crc {
        return Err(RecoveryError::bad_header(path, "WAL header checksum mismatch"));
    }
    let gen = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let shard = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));

    let mut scan = WalScan {
        gen,
        shard,
        items: Vec::new(),
        last_ack: None,
        valid_len: WAL_HEADER_LEN,
        torn_bytes: 0,
    };
    let mut pos = WAL_HEADER_LEN as usize;
    while pos < buf.len() {
        if record_at(&buf, pos) {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            match decode_payload(&buf[pos + 8..pos + 8 + len]).expect("validated by record_at") {
                WalEntry::Batch(items) => scan.items.extend_from_slice(&items),
                WalEntry::Ack(emitted) => {
                    scan.last_ack = Some(scan.last_ack.map_or(emitted, |a| a.max(emitted)));
                }
            }
            pos += 8 + len;
            scan.valid_len = pos as u64;
            continue;
        }
        // Damage at `pos`. If any complete valid record exists beyond it
        // the log lost its middle, which truncation cannot repair; a
        // resync scan at every byte offset finds such a record if one
        // exists (a false positive needs a 32-bit checksum collision).
        if (pos + 1..buf.len().saturating_sub(8)).any(|cand| record_at(&buf, cand)) {
            return Err(RecoveryError::CorruptRecord {
                path: path.to_path_buf(),
                offset: pos as u64,
            });
        }
        scan.torn_bytes = (buf.len() - pos) as u64;
        break;
    }
    Ok(WalFile::Valid(scan))
}

/// Physically truncates a torn tail off a WAL segment, leaving exactly
/// the records a rescan validates.
pub(crate) fn truncate_to(path: &Path, valid_len: u64) -> Result<(), RecoveryError> {
    let file = File::options().write(true).open(path).map_err(|e| RecoveryError::io(path, e))?;
    file.set_len(valid_len).map_err(|e| RecoveryError::io(path, e))?;
    file.sync_all().map_err(|e| RecoveryError::io(path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_items(n: usize) -> Vec<(StreamId, f64)> {
        (0..n).map(|i| (i as StreamId % 7, i as f64 * 0.5 - 3.0)).collect()
    }

    fn batch(items: &[(StreamId, f64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        frame_record_into(&mut buf, |out| encode_batch_into(out, items));
        buf
    }

    fn ack(emitted: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        frame_record_into(&mut buf, |out| encode_ack_into(out, emitted));
        buf
    }

    fn write_sample(path: &Path) -> WalWriter {
        let mut w = WalWriter::create(path, 3, 1).unwrap();
        w.append(&batch(&sample_items(4)), None).unwrap();
        w.append(&ack(2), None).unwrap();
        w.append(&batch(&sample_items(5)), None).unwrap();
        w.append(&ack(6), None).unwrap();
        w
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join(format!("sdwal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-1.wal");
        let w = write_sample(&path);
        let WalFile::Valid(scan) = scan_wal(&path).unwrap() else { panic!("valid") };
        assert_eq!((scan.gen, scan.shard), (3, 1));
        assert_eq!(scan.items.len(), 9);
        assert_eq!(scan.last_ack, Some(6));
        assert_eq!(scan.valid_len, w.bytes);
        assert_eq!(scan.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let dir = std::env::temp_dir().join(format!("sdwal-tt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.wal");
        let w = write_sample(&path);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let WalFile::Valid(scan) = scan_wal(&path).unwrap() else { panic!("valid") };
        assert_eq!(scan.items.len(), 9, "complete records all survive");
        assert!(scan.torn_bytes > 0);
        assert!(scan.valid_len < w.bytes);
        truncate_to(&path, scan.valid_len).unwrap();
        let WalFile::Valid(rescan) = scan_wal(&path).unwrap() else { panic!("valid") };
        assert_eq!(rescan.torn_bytes, 0);
        assert_eq!(rescan.last_ack, Some(2), "the torn ack is gone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("sdwal-mid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.wal");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the FIRST record's payload: complete valid
        // records follow, so truncation would silently drop them.
        let at = WAL_HEADER_LEN as usize + 10;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match scan_wal(&path) {
            Err(RecoveryError::CorruptRecord { offset, .. }) => {
                assert_eq!(offset, WAL_HEADER_LEN);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_tear_leaves_a_recoverable_prefix() {
        let dir = std::env::temp_dir().join(format!("sdwal-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.wal");
        let mut w = WalWriter::create(&path, 0, 0).unwrap();
        w.append(&batch(&sample_items(3)), None).unwrap();
        let tear = w.bytes + 5;
        let err = w.append(&batch(&sample_items(8)), Some(tear)).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let WalFile::Valid(scan) = scan_wal(&path).unwrap() else { panic!("valid") };
        assert_eq!(scan.items.len(), 3, "only the pre-tear record survives");
        assert_eq!(scan.torn_bytes, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_group_is_byte_identical_to_sequential_appends() {
        let dir = std::env::temp_dir().join(format!("sdwal-grp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let seq = dir.join("seq.wal");
        let grp = dir.join("grp.wal");
        let batches = [sample_items(4), sample_items(1), sample_items(9)];
        let mut w = WalWriter::create(&seq, 2, 0).unwrap();
        for b in &batches {
            w.append(&batch(b), None).unwrap();
        }
        let mut w = WalWriter::create(&grp, 2, 0).unwrap();
        let mut buf = Vec::new();
        for b in &batches {
            frame_record_into(&mut buf, |out| encode_batch_into(out, b));
        }
        w.append(&buf, None).unwrap();
        assert_eq!(
            std::fs::read(&seq).unwrap(),
            std::fs::read(&grp).unwrap(),
            "group commit must not change the on-disk format"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_group_write_leaves_a_recoverable_record_prefix() {
        let dir = std::env::temp_dir().join(format!("sdwal-grptear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.wal");
        let mut w = WalWriter::create(&path, 0, 0).unwrap();
        let mut buf = Vec::new();
        let first = sample_items(3);
        frame_record_into(&mut buf, |out| encode_batch_into(out, &first));
        let first_len = buf.len() as u64;
        let second = sample_items(5);
        frame_record_into(&mut buf, |out| encode_batch_into(out, &second));
        // Tear inside the second record of the group: the first record
        // is a complete prefix, the second is a torn tail.
        let tear = w.bytes + first_len + 6;
        let err = w.append(&buf, Some(tear)).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let WalFile::Valid(scan) = scan_wal(&path).unwrap() else { panic!("valid") };
        assert_eq!(scan.items, first, "exactly the pre-tear records survive");
        assert_eq!(scan.torn_bytes, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_file_is_a_torn_header() {
        let dir = std::env::temp_dir().join(format!("sdwal-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.wal");
        std::fs::write(&path, b"SDWAL0").unwrap();
        assert!(matches!(scan_wal(&path).unwrap(), WalFile::TornHeader { torn_bytes: 6 }));
        assert!(matches!(scan_wal(&dir.join("absent.wal")).unwrap(), WalFile::Missing));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
