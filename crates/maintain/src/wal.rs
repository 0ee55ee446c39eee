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
//! header:  "MDWL" (4 bytes)  version (1 byte, 2)
//! record:  len (u32 LE)  crc (u32 LE)  payload (len bytes)
//! payload: table (varint)  lsn (varint)  n_changes (varint)  change*
//! change:  0 row | 1 row              insert | delete
//!          2 row n (index value){n}   update: the old row, then the n
//!                                     columns that differ, new values
//!          3 row row                  update across arities: old, new
//! row:     arity (varint)  value{arity}
//! value:   0 zigzag varint | 1 f64 bits (8 bytes LE)
//!          | 2 len (varint) UTF-8 | 3 bool (0 or 1)
//! ```
//!
//! A varint is unsigned LEB128; the payload's encoding is md-relation's
//! (`Encoder::put_log_change`, described in full in its `codec` module).
//! A change costs what it says: the paper's 20-byte `sale` row logs in
//! about as many bytes, and an update in its old row plus the columns it
//! moved. The `len`/`crc` prefix stays fixed-width so that
//! [`Wal::append`] encodes a payload where it will live and fills the
//! prefix in afterwards.
//!
//! `crc` is the IEEE CRC-32 of the payload. A torn tail write — a partial
//! frame from a crash mid-append — is detected by the length or checksum
//! and treated as end-of-log, never as corruption of the committed prefix.
//! [`Wal::append`] truncates any torn tail left by a previous crash before
//! writing, so the log never accumulates garbage between valid frames.
//!
//! An image of another version is the wrong file, not a log to guess at:
//! every reader answers a version-1 image (fixed-width fields, updates as
//! two full rows) with the typed "unsupported version 1 (expected 2)".
//!
//! ## What a valid frame is
//!
//! One parser decides, [`FrameCursor::next_frame`]: a frame is valid when
//! its `len` fits the image, its `crc` matches, and its payload parses —
//! header, exactly `n_changes` well-formed changes (known tags, counts
//! and lengths within the payload, UTF-8 strings), and not a byte more —
//! and parses *canonically*: re-encoding what it decodes to gives back its
//! bytes. So no varint is longer than its value needs or wider than 64
//! bits, a `Bool` is 0 or 1, an update of equal arities is patches and
//! never two rows, and patch indexes rise strictly, stay below the arity
//! and carry a value other than the old one. Two images that replay alike
//! are therefore the same bytes, which is what lets tests compare logs.
//!
//! A reader that does not need a frame's changes still holds it to all of
//! that, walking the payload without building rows: `Decoder::
//! skip_log_changes` and `take_log_change` are one function that differs
//! only in whether it allocates. Whether a frame counts never depends on
//! who reads it, and the log's valid length is the same from every reader.
//!
//! ## Reading in one pass
//!
//! [`FrameCursor`] hands out one frame at a time, so a reader that acts on
//! each frame before asking for the next holds one frame's changes,
//! however long the log. The warehouse's recovery and quarantine repair
//! are that reader: one streaming pass that verifies each frame, decodes
//! it only if some engine still needs it, applies it, and drops it.
//! [`Wal::replay`] collects every frame through the same cursor instead,
//! for readers that want the whole log at once (the shell's `\wal`, the
//! layer benchmark, tests).
//!
//! What a pass costs is per byte of log: the CRC-32 over every byte (64
//! bytes a step by carry-less multiplication where the CPU has it,
//! slice-by-16 elsewhere), the skip walk over the frames a snapshot
//! already covers, and decoding only over the tail it does not. The walk
//! steps over a frame's `n` changes in one call
//! (`Decoder::skip_log_changes`) on a local cursor, and its refusals are a
//! small `Copy` value worded as an error only when the walk hands one
//! back, so the accepting path carries no error value and the per-value
//! steps inline into one loop. Together, on `bulk_feed`'s 26 MB log, the
//! CRC and the skip walk cost ≈ 1.0 ms per MB of history.

use md_relation::{Change, Decoder, Encoder, RelationError, TableId};

use crate::error::{MaintainError, Result};

/// Magic bytes opening a change-log image.
pub(crate) const WAL_MAGIC: &[u8; 4] = b"MDWL";

/// Current change-log format version.
pub const WAL_VERSION: u8 = 2;

/// Bytes of the image header: magic and version.
const HEADER_LEN: usize = WAL_MAGIC.len() + 1;

/// Bytes of a frame before its payload: `len` and `crc`.
const FRAME_PREFIX: usize = 8;

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

/// One valid frame as [`FrameCursor::next_frame`] read it.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The table the batch targets.
    pub table: TableId,
    /// The batch's log sequence number.
    pub lsn: u64,
    /// The changes, when the reader asked for them; `None` when the frame
    /// was verified without being materialised.
    pub changes: Option<Vec<Change>>,
}

/// A forward reader over the frames of a log image — the one frame
/// parser. It stops for good at the first byte that does not start a
/// valid frame (end of log, torn tail or corruption alike), and
/// [`Self::position`] is then the image's valid length.
#[derive(Debug, Clone)]
pub struct FrameCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameCursor<'a> {
    /// A cursor at the first frame of a log image. Fails on a bad header
    /// (wrong magic or version) — that is not a torn write but the wrong
    /// file.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN || &bytes[..4] != WAL_MAGIC {
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
        Ok(FrameCursor {
            bytes,
            pos: HEADER_LEN,
        })
    }

    /// Byte offset of the next unread frame: every byte before it belongs
    /// to the header or to a frame this cursor accepted.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads the next frame, or `None` at the first byte that does not
    /// start a valid one (see the module docs); the cursor then stays
    /// where it is. `want(table, lsn)` says whether the caller needs the
    /// changes: they are decoded if so and walked over if not, and the
    /// frame is held to the same rules either way.
    pub fn next_frame(&mut self, want: impl FnOnce(TableId, u64) -> bool) -> Option<Frame> {
        let rest = self.bytes.get(self.pos..)?;
        let prefix = rest.get(..FRAME_PREFIX)?;
        let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(prefix[4..].try_into().expect("4 bytes"));
        let payload = rest.get(FRAME_PREFIX..FRAME_PREFIX.checked_add(len)?)?;
        if md_relation::crc32(payload) != crc {
            return None;
        }
        let mut dec = Decoder::new(payload);
        let table = TableId(usize::try_from(dec.take_varint().ok()?).ok()?);
        let lsn = dec.take_varint().ok()?;
        let n = usize::try_from(dec.take_varint().ok()?).ok()?;
        // The count is untrusted until the payload bears it out: a change
        // is a tag and a row's arity, two bytes, at least.
        if n > dec.remaining() / 2 {
            return None;
        }
        let changes = if want(table, lsn) {
            let mut changes = Vec::with_capacity(n);
            for _ in 0..n {
                changes.push(dec.take_log_change().ok()?);
            }
            Some(changes)
        } else {
            dec.skip_log_changes(n).ok()?;
            None
        };
        if !dec.is_exhausted() {
            return None;
        }
        self.pos += FRAME_PREFIX + len;
        Some(Frame {
            table,
            lsn,
            changes,
        })
    }

    /// How many valid frames follow the frame this cursor stopped at,
    /// reached through that frame's `len`. Zero at the end of the image
    /// and at a torn tail; more means the stop is a damaged frame inside
    /// the committed log, and that many valid frames lie past the valid
    /// length, where the next [`Wal::append`] overwrites them.
    pub fn frames_past_the_stop(&self) -> u64 {
        let Some(prefix) = self
            .bytes
            .get(self.pos..)
            .and_then(|r| r.get(..FRAME_PREFIX))
        else {
            return 0;
        };
        let len = u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes")) as usize;
        let Some(next) = (self.pos + FRAME_PREFIX).checked_add(len) else {
            return 0;
        };
        let mut past = FrameCursor {
            bytes: self.bytes,
            pos: next,
        };
        std::iter::from_fn(|| past.next_frame(|_, _| false)).count() as u64
    }

    /// Verifies every remaining frame without materialising any; returns
    /// the final position.
    fn skip_to_end(mut self) -> usize {
        while self.next_frame(|_, _| false).is_some() {}
        self.pos
    }
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
        let last_good = FrameCursor::new(&bytes)?.skip_to_end();
        Ok(Wal { bytes, last_good })
    }

    /// Takes over (a copy of) the image a cursor is reading, with the
    /// cursor's final position as the valid length: a reader that already
    /// walked the log — recovery — does not walk it again to reopen it.
    /// Frames the cursor had not reached are verified here. Whatever lies
    /// past the valid length is kept as the torn tail the next
    /// [`Self::append`] truncates.
    pub fn adopt(cursor: FrameCursor<'_>) -> Self {
        Wal {
            bytes: cursor.bytes.to_vec(),
            last_good: cursor.skip_to_end(),
        }
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

    /// A cursor over the valid frames from byte `offset` on, where
    /// `offset` is an earlier [`Self::valid_len`] of this log. An offset
    /// past the valid prefix yields nothing.
    pub fn frames_from(&self, offset: usize) -> FrameCursor<'_> {
        FrameCursor {
            bytes: &self.bytes[..self.last_good],
            pos: offset,
        }
    }

    /// Parses a log image into its valid records. Returns the records and
    /// the byte length of the valid prefix; bytes past the first torn or
    /// corrupt frame are ignored (crash-tail semantics). Fails only on a
    /// bad header.
    pub fn replay(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize)> {
        let mut cursor = FrameCursor::new(bytes)?;
        let records = std::iter::from_fn(|| cursor.next_frame(|_, _| true))
            .map(|frame| WalRecord {
                table: frame.table,
                lsn: frame.lsn,
                changes: frame.changes.expect("asked for"),
            })
            .collect();
        Ok((records, cursor.pos))
    }

    /// Appends one batch frame, first truncating any torn tail left by a
    /// previous crash. The bytes of `table`/`lsn`/`changes` are fully
    /// framed and checksummed; a reader crash-recovering from the image
    /// either sees the whole record or none of it.
    pub fn append(&mut self, table: TableId, lsn: u64, changes: &[Change]) {
        self.bytes.truncate(self.last_good);
        let frame = self.bytes.len();
        // The payload is encoded where it will live, behind a prefix that
        // is filled in once its length and checksum are known.
        let mut enc = Encoder::with_buffer(std::mem::take(&mut self.bytes));
        enc.put_u64(0);
        enc.put_varint(table.0 as u64);
        enc.put_varint(lsn);
        enc.put_varint(changes.len() as u64);
        for c in changes {
            enc.put_log_change(c);
        }
        self.bytes = enc.into_bytes();
        let (prefix, payload) = self.bytes[frame..].split_at_mut(FRAME_PREFIX);
        let len = u32::try_from(payload.len()).expect("a batch's frame is under 4 GiB");
        prefix[..4].copy_from_slice(&len.to_le_bytes());
        prefix[4..].copy_from_slice(&md_relation::crc32(payload).to_le_bytes());
        self.last_good = self.bytes.len();
    }

    /// Appends a deliberately torn frame — the first half of what
    /// [`Self::append`] would write — simulating a crash mid-write. Used
    /// by fault injection; recovery must treat the tail as absent.
    pub fn append_torn(&mut self, table: TableId, lsn: u64, changes: &[Change]) {
        // Drop any previous torn tail first, so repeated torn writes (a
        // batch torn, resubmitted and torn again) stay one tear.
        self.bytes.truncate(self.last_good);
        let before = self.bytes.len();
        self.append(table, lsn, changes);
        let frame_len = self.bytes.len() - before;
        self.bytes.truncate(before + frame_len / 2);
        self.last_good = before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::{row, Row, Value};
    use proptest::prelude::*;

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

    /// Every frame `cursor` reads on, decoded: table, lsn and changes.
    fn read_on(mut cursor: FrameCursor<'_>) -> Vec<(TableId, u64, Vec<Change>)> {
        std::iter::from_fn(|| cursor.next_frame(|_, _| true))
            .map(|frame| (frame.table, frame.lsn, frame.changes.expect("asked for")))
            .collect()
    }

    #[test]
    fn records_from_a_remembered_valid_len_are_the_frames_appended_since() {
        let mut wal = Wal::new();
        assert!(read_on(wal.frames_from(wal.valid_len())).is_empty());
        wal.append(TableId(0), 1, &sample_changes());
        let mark = wal.valid_len();
        // A torn tail neither moves the mark nor shows up as a record.
        wal.append_torn(TableId(0), 2, &sample_changes());
        assert_eq!(wal.valid_len(), mark);
        assert!(read_on(wal.frames_from(mark)).is_empty());
        wal.append(TableId(0), 2, &[Change::Insert(row![5])]);
        wal.append(TableId(1), 1, &[]);
        let since: Vec<(TableId, u64)> = (read_on(wal.frames_from(mark)).into_iter())
            .map(|(table, lsn, _)| (table, lsn))
            .collect();
        assert_eq!(since, vec![(TableId(0), 2), (TableId(1), 1)]);
        let replayed = Wal::replay(wal.bytes()).unwrap().0.into_iter();
        assert_eq!(
            read_on(wal.frames_from(5)),
            replayed
                .map(|r| (r.table, r.lsn, r.changes))
                .collect::<Vec<_>>()
        );
        assert!(read_on(wal.frames_from(wal.valid_len() + 1)).is_empty());
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
    fn a_stop_before_valid_frames_counts_them_and_a_torn_tail_counts_none() {
        let mut wal = Wal::new();
        let mut starts = Vec::new();
        for lsn in 1..=4 {
            starts.push(wal.valid_len());
            wal.append(TableId(0), lsn, &sample_changes());
        }
        let stop_at = |image: &[u8]| {
            let mut cursor = FrameCursor::new(image).unwrap();
            while cursor.next_frame(|_, _| false).is_some() {}
            (cursor.position(), cursor.frames_past_the_stop())
        };
        assert_eq!(stop_at(wal.bytes()), (wal.valid_len(), 0));
        // A flipped payload byte of the second frame: two valid frames
        // lie past it.
        let mut damaged = wal.bytes().to_vec();
        damaged[starts[1] + FRAME_PREFIX + 1] ^= 0x40;
        assert_eq!(stop_at(&damaged), (starts[1], 2));
        // Every cut of the last frame, and a torn append, is a torn tail.
        for cut in starts[3]..wal.bytes().len() {
            assert_eq!(stop_at(&wal.bytes()[..cut]), (starts[3], 0), "cut {cut}");
        }
        wal.append_torn(TableId(0), 5, &sample_changes());
        assert_eq!(stop_at(wal.bytes()), (wal.valid_len(), 0));
        // A length prefix that lies leads nowhere: no frames counted.
        let mut lying = wal.bytes()[..wal.valid_len()].to_vec();
        lying[starts[1]..starts[1] + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(stop_at(&lying), (starts[1], 0));
    }

    #[test]
    fn bad_header_is_a_typed_error() {
        assert!(Wal::replay(b"").is_err());
        assert!(Wal::replay(b"MDWL").is_err()); // no version byte
        assert!(Wal::replay(b"XXXX\x01").is_err());
        assert!(Wal::replay(&[b'M', b'D', b'W', b'L', 99]).is_err());
        assert!(Wal::open(b"XXXX\x01rest".to_vec()).is_err());
        // The previous format is the wrong file too, and says which.
        for err in [
            Wal::replay(b"MDWL\x01").unwrap_err(),
            Wal::open(b"MDWL\x01".to_vec()).unwrap_err(),
            FrameCursor::new(b"MDWL\x01").unwrap_err(),
        ] {
            let message = err.to_string();
            assert!(
                message.contains("unsupported version 1 (expected 2)"),
                "{message}"
            );
        }
    }

    /// FNV-1a, 64 bit: the golden test below must not lean on `crc32`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The frames of a fixed three-table batch sequence are the bytes of
    /// format version 2. Length and hash were re-captured on purpose when
    /// the version moved: the same sequence was 644 bytes in version 1
    /// (hash `0xa1b5_d8b4_50d5_8fa5`; `tests/snapshot_robustness.rs` keeps
    /// that image to show it is refused). A change of either number is a
    /// change of format and needs a new version.
    #[test]
    fn log_image_of_a_fixed_batch_sequence_is_byte_identical_to_the_format() {
        let mut wal = Wal::new();
        for lsn in 1..=3u64 {
            wal.append(TableId(0), lsn, &sample_changes());
            wal.append(
                TableId(1),
                lsn,
                &[
                    Change::Insert(row![lsn as i64, -0.0, true, "brand-é"]),
                    Change::Delete(row![f64::NAN, false, ""]),
                ],
            );
            wal.append(TableId(7), lsn, &[]);
            if lsn == 2 {
                // A healed tear leaves no trace in the image.
                wal.append_torn(TableId(0), 9, &sample_changes());
            }
        }
        assert_eq!(wal.bytes().len(), 320);
        assert_eq!(fnv1a(wal.bytes()), 0x98b5_f279_68c8_0bd4);
    }

    /// What a reader that wants every frame's changes makes of `image`,
    /// and what one that wants none does: the frames (table, lsn) each
    /// accepted and where each stopped.
    fn decoded_and_skipped(image: &[u8]) -> [(Vec<(TableId, u64)>, usize); 2] {
        [true, false].map(|want| {
            let mut cursor = FrameCursor::new(image).unwrap();
            let mut seen = Vec::new();
            while let Some(frame) = cursor.next_frame(|_, _| want) {
                assert_eq!(frame.changes.is_some(), want);
                seen.push((frame.table, frame.lsn));
            }
            (seen, cursor.position())
        })
    }

    /// Rewrites the frame at `frame` so that its checksum matches its
    /// (mutated) payload: the parser, not the CRC, must judge it.
    fn reseal(image: &mut [u8], frame: usize) {
        let len = u32::from_le_bytes(image[frame..frame + 4].try_into().unwrap()) as usize;
        let crc = md_relation::crc32(&image[frame + 8..frame + 8 + len]);
        image[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// The image [`Wal::append`] writes for `records` — what an accepted
    /// image must equal, byte for byte, if the format is canonical.
    fn reappended(records: &[WalRecord]) -> Vec<u8> {
        let mut wal = Wal::new();
        for r in records {
            wal.append(r.table, r.lsn, &r.changes);
        }
        wal.bytes().to_vec()
    }

    /// What every reader must make of `image`, valid or damaged: one
    /// valid length from both walks, `open` and `replay`, and a valid
    /// prefix that is the only spelling of its records. Returns that
    /// length.
    fn assert_one_valid_length(image: &[u8]) -> usize {
        let [decoded, skipped] = decoded_and_skipped(image);
        assert_eq!(decoded, skipped);
        let valid = decoded.1;
        assert_eq!(Wal::open(image.to_vec()).unwrap().valid_len(), valid);
        let (records, consumed) = Wal::replay(image).unwrap();
        assert_eq!(consumed, valid);
        assert_eq!(reappended(&records), &image[..valid], "{records:?}");
        valid
    }

    #[test]
    fn skip_validation_accepts_exactly_the_frames_decoding_accepts() {
        let mut wal = Wal::new();
        wal.append(TableId(0), 1, &[Change::Insert(row![7])]);
        let second = wal.valid_len();
        wal.append(TableId(1), 300, &sample_changes());
        let third = wal.valid_len();
        wal.append(TableId(0), 2, &[Change::Delete(row!["é", true])]);
        let good = wal.bytes().to_vec();
        assert_eq!(assert_one_valid_length(&good), good.len());

        // Every single-byte mutation of the middle frame's payload, under
        // a checksum that vouches for it: the parser refuses the frame, or
        // the mutation made another frame's canonical bytes.
        let (mut rejected, mut accepted) = (0, 0);
        for at in second + 8..third {
            for flip in [0x01, 0x02, 0x80, 0xFF] {
                let mut image = good.clone();
                image[at] ^= flip;
                reseal(&mut image, second);
                let valid = assert_one_valid_length(&image);
                assert!(
                    valid == second || valid == good.len(),
                    "byte {at} ^ {flip:#x}"
                );
                rejected += usize::from(valid == second);
                accepted += usize::from(valid == good.len());
            }
        }
        assert!(rejected > 0, "no mutation reached the parser");
        assert!(accepted > 0, "no mutation spelled another frame");
    }

    /// Builds a one-frame log whose payload is `payload`, checksummed.
    fn image_with_payload(payload: &[u8]) -> Vec<u8> {
        let mut image = Wal::new().bytes().to_vec();
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&md_relation::crc32(payload).to_le_bytes());
        image.extend_from_slice(payload);
        image
    }

    fn payload(n_changes: u64, body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(3);
        enc.put_varint(1);
        enc.put_varint(n_changes);
        body(&mut enc);
        enc.into_bytes()
    }

    /// A payload of one change, spelled by hand.
    fn one_change(bytes: &[u8]) -> Vec<u8> {
        payload(1, |e| bytes.iter().for_each(|b| e.put_u8(*b)))
    }

    #[test]
    fn checksummed_frames_the_parser_must_refuse_are_refused_by_both_walks() {
        let one = Change::Insert(row![1, "a"]);
        let malformed: Vec<(&str, Vec<u8>)> = vec![
            (
                "count above the changes present",
                payload(2, |e| e.put_log_change(&one)),
            ),
            (
                "count the payload cannot hold",
                payload(u64::MAX, |e| e.put_log_change(&one)),
            ),
            (
                "count below the changes present",
                payload(0, |e| e.put_log_change(&one)),
            ),
            (
                "trailing bytes",
                payload(1, |e| {
                    e.put_log_change(&one);
                    e.put_u8(0);
                }),
            ),
            ("bad change tag", one_change(&[4, 1, 0, 2])),
            ("bad value tag", one_change(&[0, 1, 4, 0])),
            ("invalid UTF-8", one_change(&[0, 1, 2, 2, b'a', 0xFF])),
            ("arity beyond the payload", one_change(&[1, 3, 0, 2, 0, 4])),
            ("header cut short", vec![3, 1]),
            // What version 1's decoder let through: a second spelling of
            // `true`, hence two payloads, both checksummed, for one batch.
            ("bool neither 0 nor 1", one_change(&[0, 1, 3, 2])),
            ("overlong table id", vec![0x83, 0, 1, 0]),
            ("overlong lsn", vec![3, 0x81, 0, 0]),
            ("overlong count", vec![3, 1, 0x80, 0]),
            (
                "lsn overflowing 64 bits",
                [&[3][..], &[0xFF; 9], &[2, 0]].concat(),
            ),
            ("overlong arity", one_change(&[0, 0x81, 0, 0, 2])),
            ("overlong integer", one_change(&[0, 1, 0, 0x82, 0])),
            (
                "patch index out of range",
                one_change(&[2, 2, 0, 2, 0, 4, 1, 2, 0, 6]),
            ),
            (
                "patch indexes not increasing",
                one_change(&[2, 2, 0, 2, 0, 4, 2, 1, 0, 6, 0, 0, 8]),
            ),
            (
                "more patches than columns",
                one_change(&[2, 1, 0, 2, 2, 0, 0, 4, 0, 0, 6]),
            ),
            (
                "patch repeating the old value",
                one_change(&[2, 2, 0, 2, 0, 4, 1, 1, 0, 4]),
            ),
            (
                "update of one arity spelled as two rows",
                one_change(&[3, 1, 0, 2, 1, 0, 4]),
            ),
        ];
        for (what, payload) in malformed {
            let image = image_with_payload(&payload);
            let [decoded, skipped] = decoded_and_skipped(&image);
            assert_eq!(decoded, (vec![], 5), "{what}: decoded");
            assert_eq!(skipped, (vec![], 5), "{what}: skipped");
            assert_eq!(Wal::open(image).unwrap().valid_len(), 5, "{what}");
        }
        // The same builders, well-formed, are accepted by both.
        for payload in [
            payload(1, |e| e.put_log_change(&one)),
            one_change(&[0, 1, 3, 1]),
            one_change(&[2, 2, 0, 2, 0, 4, 1, 1, 0, 6]),
            one_change(&[3, 1, 0, 2, 0]),
        ] {
            let image = image_with_payload(&payload);
            let [decoded, skipped] = decoded_and_skipped(&image);
            assert_eq!(decoded, (vec![(TableId(3), 1)], image.len()));
            assert_eq!(skipped, decoded);
        }
    }

    #[test]
    fn a_cursor_decodes_only_the_frames_its_reader_wants() {
        let mut wal = Wal::new();
        wal.append(TableId(0), 1, &sample_changes());
        wal.append(TableId(1), 1, &[Change::Insert(row![9])]);
        wal.append(TableId(0), 2, &[]);
        let mut cursor = FrameCursor::new(wal.bytes()).unwrap();
        let mut got = Vec::new();
        while let Some(frame) = cursor.next_frame(|table, lsn| table == TableId(0) && lsn > 1) {
            got.push(frame);
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].changes, None);
        assert_eq!(got[1].changes, None);
        assert_eq!(got[2].changes, Some(vec![]));
        // The walked log is adopted where the cursor stopped.
        let adopted = Wal::adopt(cursor);
        assert_eq!(adopted.valid_len(), wal.valid_len());
        assert_eq!(adopted.bytes(), wal.bytes());
    }

    #[test]
    fn adopting_a_cursor_keeps_the_frames_it_had_not_read_and_the_torn_tail() {
        let mut wal = Wal::new();
        wal.append(TableId(0), 1, &sample_changes());
        wal.append(TableId(0), 2, &sample_changes());
        let good = wal.valid_len();
        wal.append_torn(TableId(0), 3, &sample_changes());
        let mut cursor = FrameCursor::new(wal.bytes()).unwrap();
        assert!(cursor.next_frame(|_, _| true).is_some());
        let mut adopted = Wal::adopt(cursor);
        assert_eq!(adopted.valid_len(), good);
        assert_eq!(adopted.bytes(), wal.bytes());
        adopted.append(TableId(0), 3, &[]);
        let (records, consumed) = Wal::replay(adopted.bytes()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(consumed, adopted.bytes().len());
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let wal = Wal::new();
        let (records, consumed) = Wal::replay(wal.bytes()).unwrap();
        assert!(records.is_empty());
        assert_eq!(consumed, wal.bytes().len());
    }

    /// All four value types: integers at the extremes and around zero,
    /// doubles by bit pattern (±0.0, every NaN), empty and multi-byte
    /// strings.
    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-70..70i64).prop_map(Value::Int),
            any::<f64>().prop_map(Value::Double),
            any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))),
            "[abé🦀]{0,4}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// Inserts, deletes, updates of any two rows (arity 0 and unequal
    /// arities included) and updates that move the odd columns only.
    fn change_strategy() -> impl Strategy<Value = Change> {
        let row = || proptest::collection::vec(value_strategy(), 0..5);
        (0..4u8, row(), row()).prop_map(|(kind, a, b)| match kind {
            0 => Change::Insert(Row::new(a)),
            1 => Change::Delete(Row::new(a)),
            2 => Change::Update {
                old: Row::new(a),
                new: Row::new(b),
            },
            _ => Change::Update {
                new: (a.iter().enumerate())
                    .map(|(i, was)| b.get(i).filter(|_| i % 2 == 1).unwrap_or(was).clone())
                    .collect(),
                old: Row::new(a),
            },
        })
    }

    proptest! {
        /// Whatever is appended reads back; the image cut anywhere is its
        /// whole frames and nothing else; a byte of its last frame changed
        /// is that frame gone, or — under a checksum remade to vouch for
        /// it — gone or another frame's canonical bytes. Every reader
        /// agrees each time and none panics.
        #[test]
        fn any_batches_round_trip_and_damage_is_refused_or_canonical(
            batches in proptest::collection::vec(
                (0..300usize, proptest::collection::vec(change_strategy(), 0..5)),
                1..4
            ),
            masks in proptest::collection::vec(1..=255u8, 1..16)
        ) {
            let mut wal = Wal::new();
            let mut ends = vec![wal.valid_len()];
            for (i, (table, changes)) in batches.iter().enumerate() {
                wal.append(TableId(*table), 100 * i as u64 + 1, changes);
                ends.push(wal.valid_len());
            }
            let image = wal.bytes();
            let (records, consumed) = Wal::replay(image).unwrap();
            prop_assert_eq!(consumed, image.len());
            prop_assert_eq!(records.len(), batches.len());
            for (record, (table, changes)) in records.iter().zip(&batches) {
                prop_assert_eq!(record.table, TableId(*table));
                prop_assert_eq!(&record.changes, changes);
            }
            for cut in HEADER_LEN..=image.len() {
                let whole = *ends.iter().rfind(|end| **end <= cut).unwrap();
                prop_assert_eq!(assert_one_valid_length(&image[..cut]), whole);
            }
            let last = ends[ends.len() - 2];
            for at in last..image.len() {
                let mut damaged = image.to_vec();
                damaged[at] ^= masks[at % masks.len()];
                prop_assert_eq!(assert_one_valid_length(&damaged), last);
                if at >= last + FRAME_PREFIX {
                    reseal(&mut damaged, last);
                    let valid = assert_one_valid_length(&damaged);
                    prop_assert!(valid == last || valid == image.len());
                }
            }
        }
    }
}
