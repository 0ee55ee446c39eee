//! Durable change log (write-ahead log) for maintenance batches.
//!
//! The warehouse appends every accepted change batch to the log *before*
//! applying it to the engines, so that a crash between the append and the
//! next snapshot loses no committed work: recovery restores the latest
//! snapshot and replays the log suffix whose LSNs exceed the snapshot's
//! per-table LSN vector.
//!
//! ## Format
//!
//! The log is a byte image — the warehouse owns where the bytes live.
//!
//! ```text
//! header:  "MDWL" (4 bytes)  version (1 byte)
//! record:  len (u32 LE)  crc (u32 LE)  payload (len bytes)
//! payload: table (u32)  lsn (u64)  n_changes (u32)  change*
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. A torn tail write — a partial
//! frame from a crash mid-append — is detected by the length or checksum
//! and treated as end-of-log, never as corruption of the committed prefix.
//! [`Wal::append`] truncates any torn tail left by a previous crash before
//! writing, so the log never accumulates garbage between valid frames.

use md_relation::{Change, Decoder, Encoder, RelationError, TableId};

use crate::error::{MaintainError, Result};

/// Magic bytes opening a change-log image.
pub const WAL_MAGIC: &[u8; 4] = b"MDWL";

/// Current change-log format version.
pub const WAL_VERSION: u8 = 1;

/// One logged batch: the changes the warehouse committed to a table under
/// a given log sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The table the batch targets.
    pub table: TableId,
    /// The batch's log sequence number — strictly increasing per table.
    pub lsn: u64,
    /// The changes, in application order.
    pub changes: Vec<Change>,
}

/// An append-only change log over an in-memory byte image.
#[derive(Debug, Clone)]
pub struct Wal {
    bytes: Vec<u8>,
    /// Length of the longest prefix of `bytes` that parses as valid
    /// frames — everything past it is a torn tail to truncate on append.
    last_good: usize,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.push(WAL_VERSION);
        let last_good = bytes.len();
        Wal { bytes, last_good }
    }

    /// Reopens a log from its byte image, tolerating a torn tail: the
    /// valid frame prefix is kept, and the next [`Self::append`] truncates
    /// the rest. Fails on a bad header (wrong magic or version) — that is
    /// not a torn write but the wrong file.
    pub fn open(bytes: Vec<u8>) -> Result<Self> {
        let (_, consumed) = Self::replay(&bytes)?;
        Ok(Wal {
            bytes,
            last_good: consumed,
        })
    }

    /// The log's current byte image, including any torn tail.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Byte length of the valid frame prefix. It only ever grows, so a
    /// remembered value stays a frame boundary of every later image.
    pub fn valid_len(&self) -> usize {
        self.last_good
    }

    /// The valid records from byte `offset` on, where `offset` is an
    /// earlier [`Self::valid_len`] of this log. An offset past the valid
    /// prefix yields nothing.
    pub fn records_from(&self, offset: usize) -> Vec<WalRecord> {
        decode_frames(&self.bytes[..self.last_good], offset).0
    }

    /// Parses a log image into its valid records. Returns the records and
    /// the byte length of the valid prefix; bytes past the first torn or
    /// corrupt frame are ignored (crash-tail semantics). Fails only on a
    /// bad header.
    pub fn replay(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize)> {
        if bytes.len() < 5 || &bytes[..4] != WAL_MAGIC {
            return Err(MaintainError::Relation(RelationError::Invalid(
                "change log: bad magic (not a MDWL image)".into(),
            )));
        }
        if bytes[4] != WAL_VERSION {
            return Err(MaintainError::Relation(RelationError::Invalid(format!(
                "change log: unsupported version {} (expected {WAL_VERSION})",
                bytes[4]
            ))));
        }
        Ok(decode_frames(bytes, 5))
    }

    /// Appends one batch frame, first truncating any torn tail left by a
    /// previous crash. The bytes of `table`/`lsn`/`changes` are fully
    /// framed and checksummed; a reader crash-recovering from the image
    /// either sees the whole record or none of it.
    pub fn append(&mut self, table: TableId, lsn: u64, changes: &[Change]) {
        self.bytes.truncate(self.last_good);
        let mut enc = Encoder::new();
        enc.put_u32(table.0 as u32);
        enc.put_u64(lsn);
        enc.put_u32(changes.len() as u32);
        for c in changes {
            enc.put_change(c);
        }
        let payload = enc.into_bytes();
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes
            .extend_from_slice(&md_relation::crc32(&payload).to_le_bytes());
        self.bytes.extend_from_slice(&payload);
        self.last_good = self.bytes.len();
    }

    /// Appends a deliberately torn frame — the first half of what
    /// [`Self::append`] would write — simulating a crash mid-write. Used
    /// by fault injection; recovery must treat the tail as absent.
    pub fn append_torn(&mut self, table: TableId, lsn: u64, changes: &[Change]) {
        // Drop any previous torn tail first, so repeated torn writes (a
        // transient fault firing on consecutive retries) stay one tear.
        self.bytes.truncate(self.last_good);
        let before = self.bytes.len();
        self.append(table, lsn, changes);
        let frame_len = self.bytes.len() - before;
        self.bytes.truncate(before + frame_len / 2);
        self.last_good = before;
    }
}

/// Decodes consecutive frames of `bytes` starting at `pos`; returns them
/// with the position of the first byte that is not part of a valid frame.
fn decode_frames(bytes: &[u8], mut pos: usize) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    while let Some((record, frame_len)) = bytes.get(pos..).and_then(decode_frame) {
        records.push(record);
        pos += frame_len;
    }
    (records, pos)
}

/// Decodes one frame from `bytes`. Returns `None` when the bytes do not
/// hold a complete, checksummed, parseable frame (end of log or torn tail).
fn decode_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let payload = bytes.get(8..8 + len)?;
    if md_relation::crc32(payload) != crc {
        return None;
    }
    let mut dec = Decoder::new(payload);
    let record = (|| -> Result<WalRecord> {
        let table = TableId(dec.take_u32()? as usize);
        let lsn = dec.take_u64()?;
        let n = dec.take_u32()? as usize;
        let mut changes = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            changes.push(dec.take_change()?);
        }
        Ok(WalRecord {
            table,
            lsn,
            changes,
        })
    })()
    .ok()?;
    if !dec.is_exhausted() {
        return None;
    }
    Some((record, 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::row;

    fn sample_changes() -> Vec<Change> {
        vec![
            Change::Insert(row![1, "a", 2.5]),
            Change::Delete(row![2]),
            Change::Update {
                old: row![3, "x"],
                new: row![3, "y"],
            },
        ]
    }

    #[test]
    fn round_trips_batches() {
        let mut wal = Wal::new();
        wal.append(TableId(0), 1, &sample_changes());
        wal.append(TableId(2), 1, &[Change::Insert(row![9])]);
        wal.append(TableId(0), 2, &[]);
        let (records, consumed) = Wal::replay(wal.bytes()).unwrap();
        assert_eq!(consumed, wal.bytes().len());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].table, TableId(0));
        assert_eq!(records[0].lsn, 1);
        assert_eq!(records[0].changes, sample_changes());
        assert_eq!(records[1].table, TableId(2));
        assert_eq!(records[2].changes, vec![]);
    }

    #[test]
    fn torn_tail_is_end_of_log_not_an_error() {
        let mut wal = Wal::new();
        wal.append(TableId(0), 1, &sample_changes());
        let good_len = wal.bytes().len();
        wal.append_torn(TableId(0), 2, &sample_changes());
        assert!(wal.bytes().len() > good_len);

        let (records, consumed) = Wal::replay(wal.bytes()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(consumed, good_len);

        // Reopening and appending truncates the torn tail first.
        let mut reopened = Wal::open(wal.bytes().to_vec()).unwrap();
        reopened.append(TableId(0), 2, &[Change::Insert(row![5])]);
        let (records, consumed) = Wal::replay(reopened.bytes()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].lsn, 2);
        assert_eq!(consumed, reopened.bytes().len());
    }

    #[test]
    fn records_from_a_remembered_valid_len_are_the_frames_appended_since() {
        let mut wal = Wal::new();
        assert!(wal.records_from(wal.valid_len()).is_empty());
        wal.append(TableId(0), 1, &sample_changes());
        let mark = wal.valid_len();
        // A torn tail neither moves the mark nor shows up as a record.
        wal.append_torn(TableId(0), 2, &sample_changes());
        assert_eq!(wal.valid_len(), mark);
        assert!(wal.records_from(mark).is_empty());
        wal.append(TableId(0), 2, &[Change::Insert(row![5])]);
        wal.append(TableId(1), 1, &[]);
        let since: Vec<(TableId, u64)> = wal
            .records_from(mark)
            .iter()
            .map(|r| (r.table, r.lsn))
            .collect();
        assert_eq!(since, vec![(TableId(0), 2), (TableId(1), 1)]);
        assert_eq!(wal.records_from(5), Wal::replay(wal.bytes()).unwrap().0);
        assert!(wal.records_from(wal.valid_len() + 1).is_empty());
    }

    #[test]
    fn corrupt_frame_truncates_replay() {
        let mut wal = Wal::new();
        wal.append(TableId(0), 1, &sample_changes());
        let first_end = wal.bytes().len();
        wal.append(TableId(0), 2, &sample_changes());

        // Flip a payload byte of the second frame: CRC catches it.
        let mut image = wal.bytes().to_vec();
        image[first_end + 10] ^= 0xFF;
        let (records, consumed) = Wal::replay(&image).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(consumed, first_end);
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        assert!(Wal::replay(b"").is_err());
        assert!(Wal::replay(b"MDWL").is_err()); // no version byte
        assert!(Wal::replay(b"XXXX\x01").is_err());
        assert!(Wal::replay(&[b'M', b'D', b'W', b'L', 99]).is_err());
        assert!(Wal::open(b"XXXX\x01rest".to_vec()).is_err());
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let wal = Wal::new();
        let (records, consumed) = Wal::replay(wal.bytes()).unwrap();
        assert!(records.is_empty());
        assert_eq!(consumed, wal.bytes().len());
    }
}
