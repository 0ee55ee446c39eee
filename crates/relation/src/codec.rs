//! A compact, versioned binary codec for values, rows and changes.
//!
//! The warehouse's reason for existing is that the sources are
//! unreachable — so its state (summary + auxiliary views) and the changes
//! it has accepted must survive restarts without a reload. They live in
//! two byte streams, the change log and the saved image (both framed in
//! `md-maintain`), and a value is spelled one way in both: a [`Value`] by
//! [`Encoder::put_value`], a row or a group key by [`Encoder::put_row`], a
//! [`Change`] by [`Encoder::put_change`] — read back by
//! [`Decoder::take_value`], [`Decoder::take_row`] / [`Decoder::take_key`]
//! and [`Decoder::take_change`], or walked by [`Decoder::skip_changes`].
//! A plan fingerprint spells its literals the same way. Each is sized by
//! what it says rather than by the width of its fields:
//!
//! ```text
//! varint:  unsigned LEB128 — seven bits a byte, low bits first, the high
//!          bit set on every byte but the last; at most ten bytes
//! change:  0 row                      insert
//!          1 row                      delete
//!          2 row n (index value){n}   update, both rows of one arity: the
//!                                     old row, then the columns that differ
//!          3 row row                  update across arities: old, new
//! row:     arity (varint)  value{arity}
//! value:   0 zigzag varint | 1 f64 bits (8 bytes LE)
//!          | 2 len (varint) UTF-8 | 3 bool (0 or 1)
//! ```
//!
//! The encoding is canonical — bytes the decoder accepts are the bytes the
//! encoder writes for what they decode to: no varint is longer than its
//! value needs, a `Bool` is 0 or 1, an update of equal arities is never
//! spelled as two rows, and its patch indexes rise strictly, stay below the
//! arity and each carry a value other than the old row's. One walk
//! (`Cursor`) reads all of it, so an image's rows get the log's checks
//! and its arity bound, and a refusal names what it refused and the byte
//! it stopped at, never which stream it was reading.
//!
//! Framing stays fixed-width: little-endian `u8`/`u32`/`u64`
//! ([`Encoder::put_u32`], [`Encoder::put_u64`]) and `u32`-length-prefixed
//! byte strings ([`Encoder::put_bytes`], [`Encoder::put_str`]) carry an
//! image's header, version byte, fingerprint, LSNs and counts, and the
//! log's frame prefix. A reader finds the version byte of any older image
//! where it always was, and the log fills its `len`/`crc` prefix in after
//! encoding the payload behind it.

use crate::delta::{Change, ChangeRef};
use crate::error::{RelationError, Result};
use crate::key::GroupKey;
use crate::row::Row;
use crate::value::Value;

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup tables for
/// slice-by-16, built at compile time. `CRC32_TABLES[0]` is the classic
/// one-byte table; `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which is what lets sixteen input bytes be folded with
/// sixteen independent lookups.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32 checksum (IEEE, as used by zlib/Ethernet) of `bytes`.
/// Guards the change-log frames in `md-maintain` against torn or
/// bit-flipped writes. On an x86_64 CPU with `pclmulqdq`, an input of 128
/// bytes or more folds 64 bytes a step by carry-less multiplication
/// (`codec/clmul.rs`); everything else, and the last `len % 16` bytes,
/// goes through the slice-by-16 table code.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (c, rest) = (!0, bytes);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    let (c, rest) = clmul::fold(c, rest);
    !crc32_table(c, rest)
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul;

/// Folds `bytes` into the CRC register `c` sixteen bytes a step
/// (slice-by-16), the tail a byte at a time: the portable CRC-32, and the
/// reference the carry-less path is tested against.
fn crc32_table(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(16);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][w[4] as usize]
            ^ t[10][w[5] as usize]
            ^ t[9][w[6] as usize]
            ^ t[8][w[7] as usize]
            ^ t[7][w[8] as usize]
            ^ t[6][w[9] as usize]
            ^ t[5][w[10] as usize]
            ^ t[4][w[11] as usize]
            ^ t[3][w[12] as usize]
            ^ t[2][w[13] as usize]
            ^ t[1][w[14] as usize]
            ^ t[0][w[15] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Serializes primitives into a growable byte buffer. The byte-sized
/// primitives, here and in [`Decoder`], are `#[inline]`: other crates (the
/// engine image's sums) call them a few bytes at a time.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder that appends to `buf`, so a caller that owns a larger
    /// image (the change log) encodes into it without a copy;
    /// [`Self::into_bytes`] hands the buffer back.
    pub fn with_buffer(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Finishes encoding, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an unsigned LEB128 varint (see the module docs).
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a signed integer as the varint of its zigzag image, so that
    /// values near zero of either sign are short.
    #[inline]
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends `bytes` as they are, with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a tagged [`Value`] (see the module docs): an `Int` as its
    /// zigzag varint, a `Double` as its IEEE-754 bit pattern (bit-exact,
    /// NaN payloads and signed zeros included), a `Str` as its varint
    /// length and UTF-8 bytes, a `Bool` as 0 or 1.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.put_u8(0);
                self.put_zigzag(*i);
            }
            Value::Double(d) => {
                self.put_u8(1);
                self.put_u64(d.to_bits());
            }
            Value::Str(s) => self.put_str_value(s),
            Value::Bool(b) => {
                self.put_u8(3);
                self.put_u8(u8::from(*b));
            }
        }
    }

    /// Appends `Value::Str(s)` as [`Self::put_value`] spells it, from the
    /// borrowed string.
    #[inline]
    pub fn put_str_value(&mut self, s: &str) {
        self.put_u8(2);
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a row of values — a [`Row`]'s or a [`GroupKey`]'s: its
    /// arity as a varint, then each value.
    pub fn put_row(&mut self, values: &[Value]) {
        self.put_varint(values.len() as u64);
        for v in values {
            self.put_value(v);
        }
    }

    /// Appends a tagged [`Change`] (see the module docs), owned or
    /// borrowed: an update of one arity as its old row plus the columns
    /// whose value differs.
    pub fn put_change<'c>(&mut self, change: impl Into<ChangeRef<'c>>) {
        match change.into() {
            ChangeRef::Insert(row) => {
                self.put_u8(INSERT);
                self.put_row(row.values());
            }
            ChangeRef::Delete(row) => {
                self.put_u8(DELETE);
                self.put_row(row.values());
            }
            ChangeRef::Update { old, new } if old.arity() == new.arity() => {
                self.put_u8(UPDATE);
                self.put_row(old.values());
                let differing = || {
                    let columns = old.values().iter().zip(new.values()).enumerate();
                    columns.filter(|(_, (was, now))| was != now)
                };
                self.put_varint(differing().count() as u64);
                for (idx, (_, now)) in differing() {
                    self.put_varint(idx as u64);
                    self.put_value(now);
                }
            }
            ChangeRef::Update { old, new } => {
                self.put_u8(UPDATE_ROWS);
                self.put_row(old.values());
                self.put_row(new.values());
            }
        }
    }
}

/// Change tags.
const INSERT: u8 = 0;
const DELETE: u8 = 1;
/// An update whose rows have one arity: old row, then patches.
const UPDATE: u8 = 2;
/// An update across arities: old row, new row.
const UPDATE_ROWS: u8 = 3;

/// Deserializes primitives from a byte slice, tracking position.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns `true` when the input is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    #[inline(always)]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        self.walk(|c| c.take(n, what))
    }

    /// Reads `n` bytes as they are (no length prefix), borrowed from the
    /// input.
    #[inline]
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "bytes")
    }

    /// Reads one byte.
    #[inline(always)]
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    #[inline(always)]
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string, borrowed from the input. The
    /// prefix is untrusted: one past the remaining bytes is an error, and
    /// nothing is ever allocated from it.
    pub fn take_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.take_u32()? as usize;
        self.take(len, "byte string")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let bytes = self.take_bytes()?;
        self.walk(|c| {
            let s = std::str::from_utf8(bytes).map_err(|_| c.malformed("invalid UTF-8"))?;
            Ok(s.to_owned())
        })
    }

    /// Reads a [`Value`] written by [`Encoder::put_value`].
    pub fn take_value(&mut self) -> Result<Value> {
        self.walk(|c| c.value::<true>().map(built))
    }

    /// Reads a [`Row`] written by [`Encoder::put_row`].
    pub fn take_row(&mut self) -> Result<Row> {
        self.walk(|c| c.row::<true>().map(|(_, values)| Row::new(values)))
    }

    /// Reads a row written by [`Encoder::put_row`] as a [`GroupKey`],
    /// decoding one or two values straight into the key's place.
    pub fn take_key(&mut self) -> Result<GroupKey> {
        self.walk(|c| {
            let arity = c.arity()?;
            GroupKey::try_from_fn(arity, || c.value::<true>().map(built))
        })
    }

    /// Reads an unsigned LEB128 varint. Only the shortest spelling of a
    /// value is accepted: a final zero byte after another byte, an
    /// eleventh byte, or bits past the sixty-fourth are errors.
    #[inline(always)]
    pub fn take_varint(&mut self) -> Result<u64> {
        self.walk(Cursor::varint)
    }

    /// Reads a signed integer from the varint of its zigzag image.
    #[inline(always)]
    pub fn take_zigzag(&mut self) -> Result<i64> {
        self.walk(Cursor::zigzag)
    }

    /// Reads a [`Change`] written by [`Encoder::put_change`].
    pub fn take_change(&mut self) -> Result<Change> {
        self.walk(|c| c.change::<true>().map(built))
    }

    /// Walks over `n` [`Change`]s without building them: accepts exactly
    /// the input [`Self::take_change`] accepts `n` times, leaves the
    /// decoder at the same position, allocates nothing. The walk's
    /// position stays in a register from the first change to the last.
    pub fn skip_changes(&mut self, n: usize) -> Result<()> {
        self.walk(|c| (0..n).try_for_each(|_| c.change::<false>().map(drop)))
    }

    /// Runs one walk of the parser from this decoder's position, moves the
    /// decoder to where the walk stopped, and words a refusal.
    #[inline(always)]
    fn walk<T>(&mut self, f: impl FnOnce(&mut Cursor<'a>) -> Walked<T>) -> Result<T> {
        let mut cursor = Cursor {
            bytes: self.data,
            pos: self.pos,
        };
        let walked = f(&mut cursor);
        self.pos = cursor.pos;
        walked.map_err(Refusal::error)
    }
}

/// Why a walk refused its input, and the byte it stopped at. It is small
/// and `Copy`, so the accepting path carries no error value: it becomes a
/// [`RelationError`] only where a walk hands it back to a [`Decoder`]
/// caller.
#[derive(Debug, Clone, Copy)]
struct Refusal {
    what: What,
    at: usize,
}

/// What a [`Refusal`] refuses.
#[derive(Debug, Clone, Copy)]
enum What {
    /// The input ends inside the named field.
    Truncated(&'static str),
    /// A spelling the encoder never writes.
    Malformed(&'static str),
}

impl Refusal {
    /// The refusal in words: what was refused and at which byte of the
    /// decoder's input, in terms of the encoding alone — the same walk
    /// reads a change log, an image and whatever else is spelled in it.
    /// Cold and out of line, so the walk's per-value steps inline into one
    /// loop.
    #[cold]
    #[inline(never)]
    fn error(self) -> RelationError {
        RelationError::Invalid(match self.what {
            What::Truncated(what) => {
                format!("corrupt encoding: truncated {what} at byte {}", self.at)
            }
            What::Malformed(what) => {
                format!("corrupt encoding: {what} before byte {}", self.at)
            }
        })
    }
}

/// What a walk built when asked to build it (`BUILD`).
fn built<T>(value: Option<T>) -> T {
    value.expect("built when asked to")
}

/// What a step of the parser returns.
type Walked<T> = std::result::Result<T, Refusal>;

/// The decoder's cursor: the input and a position, taken out of a
/// [`Decoder`] for one walk ([`Decoder::walk`]) and put back after it, so
/// that the position is a local while the walk runs. Every step is
/// inlined into the walk over a value, a row or a change.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline(always)]
    fn refuse(&self, what: What) -> Refusal {
        Refusal { what, at: self.pos }
    }

    #[inline(always)]
    fn malformed(&self, what: &'static str) -> Refusal {
        self.refuse(What::Malformed(what))
    }

    #[inline(always)]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline(always)]
    fn take(&mut self, n: usize, what: &'static str) -> Walked<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.refuse(What::Truncated(what)));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline(always)]
    fn u8(&mut self, what: &'static str) -> Walked<u8> {
        match self.bytes.get(self.pos) {
            Some(&byte) => {
                self.pos += 1;
                Ok(byte)
            }
            None => Err(self.refuse(What::Truncated(what))),
        }
    }

    /// A boolean: one byte, 0 or 1, so that a value has one spelling.
    #[inline(always)]
    fn bool(&mut self) -> Walked<bool> {
        match self.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.malformed("bool neither 0 nor 1")),
        }
    }

    /// See [`Decoder::take_varint`].
    #[inline(always)]
    fn varint(&mut self) -> Walked<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8("varint")?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift != 0 {
                    return Err(self.malformed("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(self.malformed("varint overflows 64 bits"))
    }

    #[inline(always)]
    fn zigzag(&mut self) -> Walked<i64> {
        let z = self.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads a varint that counts or indexes something in memory.
    #[inline(always)]
    fn count(&mut self) -> Walked<usize> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| self.malformed("count beyond usize"))
    }

    /// Reads one value: built when `BUILD`, else only held to the format.
    #[inline(always)]
    fn value<const BUILD: bool>(&mut self) -> Walked<Option<Value>> {
        let value = match self.u8("value tag")? {
            0 => Value::Int(self.zigzag()?),
            1 => {
                let bits = self.take(8, "f64")?;
                Value::Double(f64::from_bits(u64::from_le_bytes(
                    bits.try_into().expect("8 bytes"),
                )))
            }
            2 => {
                let len = self.count()?;
                let bytes = self.take(len, "string")?;
                let s = std::str::from_utf8(bytes).map_err(|_| self.malformed("invalid UTF-8"))?;
                Value::Str(if BUILD { s.to_owned() } else { String::new() })
            }
            3 => Value::Bool(self.bool()?),
            _ => return Err(self.malformed("unknown value tag")),
        };
        Ok(BUILD.then_some(value))
    }

    /// Reads a row's arity. It is untrusted input: a value occupies two
    /// bytes at least, so an arity the remaining bytes cannot hold is
    /// corruption — rejected before anything is allocated that size.
    #[inline(always)]
    fn arity(&mut self) -> Walked<usize> {
        let arity = self.count()?;
        if arity > self.remaining() / 2 {
            return Err(self.malformed("row arity exceeds remaining bytes"));
        }
        Ok(arity)
    }

    /// Reads one row: its arity and, when `BUILD`, its values (else an
    /// empty vector, which owns no memory).
    #[inline(always)]
    fn row<const BUILD: bool>(&mut self) -> Walked<(usize, Vec<Value>)> {
        let arity = self.arity()?;
        let mut values = if BUILD {
            Vec::with_capacity(arity)
        } else {
            Vec::new()
        };
        for _ in 0..arity {
            if let Some(value) = self.value::<BUILD>()? {
                values.push(value);
            }
        }
        Ok((arity, values))
    }

    /// The one parser of a change. `BUILD` decides only whether the
    /// change is materialised (`Some`) or walked over without allocating
    /// (`None`, and no change, row or value is built to be dropped); what
    /// is accepted, and where the cursor stops, is the same code either
    /// way.
    #[inline]
    fn change<const BUILD: bool>(&mut self) -> Walked<Option<Change>> {
        let change = match self.u8("change tag")? {
            INSERT => {
                let (_, row) = self.row::<BUILD>()?;
                BUILD.then(|| Change::Insert(Row::new(row)))
            }
            DELETE => {
                let (_, row) = self.row::<BUILD>()?;
                BUILD.then(|| Change::Delete(Row::new(row)))
            }
            UPDATE => {
                // A second cursor follows the patches through the old
                // row's bytes: values are spelled one way only, so a patch
                // repeats the old value exactly when it repeats its bytes.
                let mut old_columns = *self;
                let (arity, old) = self.row::<BUILD>()?;
                let mut new = if BUILD { old.clone() } else { Vec::new() };
                let patches = self.count()?;
                if patches > arity {
                    return Err(self.malformed("more patches than columns"));
                }
                old_columns.arity()?;
                let mut next_column = 0;
                for _ in 0..patches {
                    let idx = self.count()?;
                    if idx < next_column || idx >= arity {
                        return Err(self.malformed("patch index out of order or range"));
                    }
                    for _ in next_column..idx {
                        old_columns.value::<false>()?;
                    }
                    let was_at = old_columns.pos;
                    old_columns.value::<false>()?;
                    next_column = idx + 1;
                    let now_at = self.pos;
                    let now = self.value::<BUILD>()?;
                    if self.bytes[was_at..old_columns.pos] == self.bytes[now_at..self.pos] {
                        return Err(self.malformed("patch repeats the old value"));
                    }
                    if let Some(now) = now {
                        new[idx] = now;
                    }
                }
                BUILD.then(|| Change::Update {
                    old: Row::new(old),
                    new: Row::new(new),
                })
            }
            UPDATE_ROWS => {
                let (old_arity, old) = self.row::<BUILD>()?;
                let (new_arity, new) = self.row::<BUILD>()?;
                if old_arity == new_arity {
                    return Err(self.malformed("equal-arity update spelled as two rows"));
                }
                BUILD.then(|| Change::Update {
                    old: Row::new(old),
                    new: Row::new(new),
                })
            }
            _ => return Err(self.malformed("unknown change tag")),
        };
        Ok(change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn round_trip_value(v: Value) {
        let mut e = Encoder::new();
        e.put_value(&v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_value().unwrap(), v);
        assert!(d.is_exhausted());
    }

    #[test]
    fn primitive_round_trips() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(1_000_000);
        e.put_u64(u64::MAX);
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 1_000_000);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_str().unwrap(), "héllo");
        assert!(d.is_exhausted());
    }

    #[test]
    fn byte_strings_round_trip_and_an_overlong_prefix_is_an_error() {
        let mut e = Encoder::new();
        e.put_bytes(&[]);
        e.put_bytes(&[0xff, 0, 7]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_bytes().unwrap(), &[] as &[u8]);
        assert_eq!(d.take_bytes().unwrap(), &[0xff, 0, 7]);
        assert!(d.is_exhausted());
        // A prefix promising 4 GiB over three bytes of input.
        let mut lying = u32::MAX.to_le_bytes().to_vec();
        lying.extend([1, 2, 3]);
        assert!(Decoder::new(&lying).take_bytes().is_err());
    }

    #[test]
    fn value_round_trips() {
        round_trip_value(Value::Int(i64::MIN));
        round_trip_value(Value::Double(f64::NAN)); // bitwise-preserved
        round_trip_value(Value::Double(-0.0));
        round_trip_value(Value::Double(3.25));
        round_trip_value(Value::str(""));
        round_trip_value(Value::str("brand-42"));
        round_trip_value(Value::Bool(true));
    }

    #[test]
    fn row_round_trips() {
        let r = row![1, 2.5, "x", true];
        let mut e = Encoder::new();
        e.put_row(r.values());
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_row().unwrap(), r);
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_row(row![1, "abc"].values());
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.take_row().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut d = Decoder::new(&[9]);
        assert!(d.take_value().is_err());
    }

    #[test]
    fn a_bool_byte_other_than_zero_or_one_is_rejected() {
        assert_eq!(
            Decoder::new(&[3, 0]).take_value().unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Decoder::new(&[3, 1]).take_value().unwrap(),
            Value::Bool(true)
        );
        for byte in [2, 0x80, 0xFF] {
            assert!(Decoder::new(&[3, byte]).take_value().is_err(), "{byte}");
        }
    }

    #[test]
    fn varints_round_trip_in_their_shortest_spelling() {
        let cases: [(u64, &[u8]); 7] = [
            (0, &[0]),
            (1, &[1]),
            (127, &[0x7F]),
            (128, &[0x80, 1]),
            (300, &[0xAC, 2]),
            (1 << 14, &[0x80, 0x80, 1]),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1],
            ),
        ];
        for (v, spelled) in cases {
            let mut e = Encoder::new();
            e.put_varint(v);
            assert_eq!(e.into_bytes(), spelled, "{v}");
        }
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.take_varint().unwrap(), v);
            assert!(d.is_exhausted());
            for cut in 0..bytes.len() {
                assert!(Decoder::new(&bytes[..cut]).take_varint().is_err());
            }
        }
        for v in [0, -1, 1, -64, 63, 64, -65, i64::MIN, i64::MAX] {
            let mut e = Encoder::new();
            e.put_zigzag(v);
            let bytes = e.into_bytes();
            assert_eq!(Decoder::new(&bytes).take_zigzag().unwrap(), v);
            assert_eq!(bytes.len() == 1, (-64..64).contains(&v), "{v}");
        }
    }

    #[test]
    fn a_varint_longer_than_its_value_needs_or_wider_than_64_bits_is_refused() {
        let refused: [&[u8]; 7] = [
            &[0x80, 0],                                                 // 0 in two bytes
            &[0x81, 0],                                                 // 1 in two bytes
            &[0xFF, 0x80, 0],                                           // 127 in three
            &[0xFF; 10],                                                // an eleventh byte promised
            &[0x80; 11],                                                // eleven bytes
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2], // bit 64
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F],
        ];
        for bytes in refused {
            assert!(Decoder::new(bytes).take_varint().is_err(), "{bytes:?}");
        }
        let mut top = [0x80; 10];
        top[9] = 1;
        assert_eq!(Decoder::new(&top).take_varint().unwrap(), 1 << 63);
    }

    pub(super) fn logged(change: &Change) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_change(change);
        e.into_bytes()
    }

    fn sample_changes() -> Vec<Change> {
        vec![
            Change::Insert(row![1, "héllo", 2.5, true]),
            Change::Delete(row![]),
            Change::Insert(row![i64::MIN, i64::MAX, -0.0, f64::NAN, "", false]),
            Change::Update {
                old: row![1, "a", 7],
                new: row![1, "b", 7],
            },
            Change::Update {
                old: row![1, "a"],
                new: row![1, "a"],
            },
            Change::Update {
                old: row![1, "a"],
                new: row![f64::NAN, ""],
            },
            Change::Update {
                old: row![1, "a"],
                new: row![1],
            },
            Change::Update {
                old: row![],
                new: row![0],
            },
        ]
    }

    #[test]
    fn logged_changes_round_trip() {
        let changes = sample_changes();
        let mut e = Encoder::new();
        for c in &changes {
            e.put_change(c);
        }
        let bytes = e.into_bytes();
        let (mut take, mut skip) = (Decoder::new(&bytes), Decoder::new(&bytes));
        for c in &changes {
            assert_eq!(&take.take_change().unwrap(), c);
            skip.skip_changes(1).unwrap();
            assert_eq!(take.remaining(), skip.remaining());
        }
        assert!(take.is_exhausted());
    }

    /// The format, byte for byte: a change costs what it says.
    #[test]
    fn a_logged_change_is_spelled_as_the_format_says() {
        assert_eq!(
            logged(&Change::Insert(row![1, "a", true])),
            [0, 3, 0, 2, 2, 1, b'a', 3, 1]
        );
        assert_eq!(logged(&Change::Delete(row![-1])), [1, 1, 0, 1]);
        // An update: the old row, then only the column that moved.
        let update = Change::Update {
            old: row![300, "x", 2.5],
            new: row![300, "y", 2.5],
        };
        let mut expected = vec![2, 3, 0, 0xD8, 4, 2, 1, b'x', 1];
        expected.extend(2.5f64.to_bits().to_le_bytes());
        expected.extend([1, 1, 2, 1, b'y']);
        assert_eq!(logged(&update), expected);
        // Across arities: both rows.
        let reshaped = Change::Update {
            old: row![7],
            new: row![],
        };
        assert_eq!(logged(&reshaped), [3, 1, 0, 14, 0]);
        // The paper's `sale` row (five 4-byte fields, 20 B): 17 B.
        let sale = Change::Insert(row![120_001, 364, 999, 12, 250]);
        assert_eq!(logged(&sale).len(), 17);
    }

    #[test]
    fn change_decoding_rejects_garbage() {
        assert!(Decoder::new(&[4]).take_change().is_err()); // unknown tag
        let bytes = logged(&Change::Insert(row![1, "abc"]));
        for cut in 0..bytes.len() {
            assert!(Decoder::new(&bytes[..cut]).take_change().is_err());
        }
    }

    #[test]
    fn spellings_the_encoder_never_writes_are_refused_by_both_walks() {
        let refused: [(&str, &[u8]); 14] = [
            ("bool 2", &[0, 1, 3, 2]),
            ("unknown value tag", &[0, 1, 4, 0]),
            ("overlong arity", &[0, 0x80, 0]),
            ("overlong int", &[0, 1, 0, 0x82, 0]),
            ("overlong string length", &[0, 1, 2, 0x81, 0, b'a']),
            ("invalid UTF-8", &[0, 1, 2, 1, 0xFF]),
            ("arity beyond the remaining bytes", &[1, 3, 0, 1, 0, 2]),
            (
                "arity u64::MAX",
                &[1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1],
            ),
            ("patch index out of range", &[2, 2, 0, 1, 0, 2, 1, 2, 0, 3]),
            (
                "patch indexes falling",
                &[2, 2, 0, 1, 0, 2, 2, 1, 0, 3, 0, 0, 4],
            ),
            (
                "patch index repeated",
                &[2, 2, 0, 1, 0, 2, 2, 0, 0, 3, 0, 0, 4],
            ),
            (
                "more patches than columns",
                &[2, 1, 0, 1, 2, 0, 0, 2, 0, 0, 3],
            ),
            (
                "patch repeats the old value",
                &[2, 2, 0, 1, 0, 2, 1, 1, 0, 2],
            ),
            ("equal arities as two rows", &[3, 1, 0, 1, 1, 0, 2]),
        ];
        for (what, bytes) in refused {
            assert!(Decoder::new(bytes).take_change().is_err(), "{what}");
            assert!(Decoder::new(bytes).skip_changes(1).is_err(), "{what}");
        }
        // The neighbours the encoder does write are accepted.
        let accepted: [&[u8]; 3] = [
            &[2, 2, 0, 1, 0, 2, 1, 1, 0, 3],
            &[2, 2, 0, 1, 0, 2, 2, 0, 0, 3, 1, 0, 4],
            &[3, 1, 0, 1, 2, 0, 2, 0, 2],
        ];
        for bytes in accepted {
            assert_canonical_or_refused(bytes);
            assert!(Decoder::new(bytes).skip_changes(1).is_ok(), "{bytes:?}");
        }
    }

    /// The message of a refusal, which names the byte it stopped at.
    fn refusal<T: std::fmt::Debug>(result: Result<T>) -> String {
        match result {
            Err(RelationError::Invalid(message)) => message,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// The refusals of every reader, word for word and byte for byte: the
    /// error paths sit out of line, and moving them must not move a
    /// message or an offset. Each case is a change; one that inserts or
    /// deletes a row is also read, past its tag, as a row and as a key,
    /// which refuse it one byte earlier.
    #[test]
    fn every_walk_refuses_with_its_message_at_its_byte() {
        let cases: [(&[u8], &str, usize); 13] = [
            (&[0, 0x80], "truncated varint at byte", 2),
            (&[0], "truncated varint at byte", 1),
            (&[0, 0x80, 0], "overlong varint before byte", 3),
            (&[0, 1, 4, 0], "unknown value tag before byte", 3),
            (&[1, 2, 0, 2, 9, 0], "unknown value tag before byte", 5),
            (&[4], "unknown change tag before byte", 1),
            (&[0, 1, 2, 1, 0xFF], "invalid UTF-8 before byte", 5),
            (&[0, 1, 2, 2, b'a', 0xFF], "invalid UTF-8 before byte", 6),
            (
                &[1, 3, 0, 1, 0, 2],
                "row arity exceeds remaining bytes before byte",
                2,
            ),
            (
                &[0, 5, 3, 1],
                "row arity exceeds remaining bytes before byte",
                2,
            ),
            (&[0, 1, 1, 1, 2], "truncated f64 at byte", 3),
            (&[0, 1, 3, 2], "bool neither 0 nor 1 before byte", 4),
            (&[0, 1, 3, 0xFF], "bool neither 0 nor 1 before byte", 4),
        ];
        for (bytes, words, at) in cases {
            let message = format!("corrupt encoding: {words} {at}");
            let taken = Decoder::new(bytes).take_change();
            assert_eq!(refusal(taken), message, "take {bytes:?}");
            let skipped = Decoder::new(bytes).skip_changes(1);
            assert_eq!(refusal(skipped), message, "skip {bytes:?}");
            if let [INSERT | DELETE, row @ ..] = bytes {
                let message = format!("corrupt encoding: {words} {}", at - 1);
                assert_eq!(refusal(Decoder::new(row).take_row()), message);
                assert_eq!(refusal(Decoder::new(row).take_key()), message);
            }
        }
        // The fixed-width framing words its refusals the same way.
        assert_eq!(
            refusal(Decoder::new(&[1, 0]).take_u32()),
            "corrupt encoding: truncated u32 at byte 0"
        );
        assert_eq!(
            refusal(Decoder::new(&[1, 0, 0, 0, 0xFF]).take_str()),
            "corrupt encoding: invalid UTF-8 before byte 5"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The one-byte-per-lookup CRC-32 the faster paths replaced, kept as
    /// the reference both are held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic filler: an LCG's high bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..len)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 56) as u8
            })
            .collect()
    }

    /// Every length from empty to four times the carry-less path's
    /// 128-byte threshold, at sixteen alignments: `crc32` (whichever path
    /// this host takes) and the slice-by-16 table path, called directly so
    /// that it stays covered on a host that takes the fast one.
    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = noise(528);
        for start in 0..16 {
            for len in 0..=512 {
                let s = &buf[start..start + len];
                let reference = crc32_bytewise(s);
                assert_eq!(crc32(s), reference, "start {start} len {len}");
                assert_eq!(
                    !crc32_table(!0, s),
                    reference,
                    "table: start {start} len {len}"
                );
            }
        }
        let big = noise(if cfg!(miri) { 4 << 10 } else { 1 << 20 });
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        assert_eq!(crc32(&big[3..]), crc32_bytewise(&big[3..]));
        assert_eq!(!crc32_table(!0, &big[3..]), crc32_bytewise(&big[3..]));
    }

    /// What the log's two walks owe each other and the encoder on any
    /// input: both accept and stop at the same byte, or both refuse; and
    /// what is accepted re-encodes to exactly the bytes consumed.
    pub(super) fn assert_canonical_or_refused(bytes: &[u8]) {
        let mut take = Decoder::new(bytes);
        let mut skip = Decoder::new(bytes);
        match (take.take_change(), skip.skip_changes(1)) {
            (Ok(change), Ok(())) => {
                assert_eq!(take.remaining(), skip.remaining(), "{bytes:?}");
                let consumed = bytes.len() - take.remaining();
                assert_eq!(logged(&change), &bytes[..consumed], "{change:?}");
            }
            (Err(_), Err(_)) => {}
            (t, s) => panic!("take {t:?} but skip {s:?} on {bytes:?}"),
        }
    }

    #[test]
    fn skipping_a_change_accepts_exactly_what_decoding_it_accepts() {
        for c in &sample_changes() {
            let mut bytes = logged(c);
            bytes.push(0xAB); // a byte past the change: neither may eat it
            assert_canonical_or_refused(&bytes);
            for cut in 0..bytes.len() {
                assert_canonical_or_refused(&bytes[..cut]);
            }
            // Every single-byte mutation: bad tags, lying lengths and
            // arities, broken UTF-8, respelled varints, moved patches.
            for i in 0..bytes.len() {
                for flip in [0x01, 0x02, 0x04, 0x80, 0xFF] {
                    let mut mutated = bytes.clone();
                    mutated[i] ^= flip;
                    assert_canonical_or_refused(&mutated);
                }
            }
        }
    }

    #[test]
    fn invalid_utf8_is_rejected_without_a_copy_and_valid_utf8_round_trips() {
        let mut e = Encoder::new();
        e.put_bytes(&[b'a', 0xFF, b'b']);
        e.put_str("ça va");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.take_str().is_err());
        assert_eq!(d.take_str().unwrap(), "ça va");
    }

    #[test]
    fn an_encoder_over_a_buffer_appends_to_it() {
        let mut e = Encoder::with_buffer(vec![9, 9]);
        e.put_u32(1);
        assert_eq!(e.into_bytes(), vec![9, 9, 1, 0, 0, 0]);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut e = Encoder::new();
        e.put_row(row![1, "abc", 2.5].values());
        let bytes = e.into_bytes();
        let good = crc32(&bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            assert_ne!(crc32(&flipped), good, "flip at byte {i} undetected");
        }
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::tests::{assert_canonical_or_refused, logged};
    use super::*;
    use crate::row::Row;
    use proptest::prelude::*;

    /// All four types: integers at the extremes and around the varint
    /// length boundaries, doubles by value (±0.0, ±∞) and by bit pattern
    /// (every NaN payload), empty and multi-byte strings.
    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-9_000..9_000i64).prop_map(Value::Int),
            any::<f64>().prop_map(Value::Double),
            any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))),
            "[a-zA-Z0-9 '\\-]{0,24}".prop_map(Value::Str),
            "[a-cé世🦀]{0,6}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// Inserts, deletes, updates of whatever two rows (mostly across
    /// arities, arity 0 included) and updates within one arity that move
    /// every other column.
    fn change_strategy() -> impl Strategy<Value = Change> {
        let row = || proptest::collection::vec(value_strategy(), 0..7);
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
        #[test]
        fn any_value_round_trips(v in value_strategy()) {
            let mut e = Encoder::new();
            e.put_value(&v);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_value().unwrap(), v);
            prop_assert!(d.is_exhausted());
        }

        #[test]
        fn any_row_round_trips(vals in proptest::collection::vec(value_strategy(), 0..12)) {
            let r = Row::new(vals);
            let mut e = Encoder::new();
            e.put_row(r.values());
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_row().unwrap(), r.clone());
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_key().unwrap(), r);
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Arbitrary input must produce Ok or Err — never a panic.
            let mut d = Decoder::new(&bytes);
            let row = d.take_row();
            let mut d = Decoder::new(&bytes);
            let key = d.take_key();
            // A key is read as a row is: the same values or the same refusal.
            match (row, key) {
                (Ok(row), Ok(key)) => prop_assert_eq!(key, row),
                (Err(row), Err(key)) => prop_assert_eq!(key.to_string(), row.to_string()),
                _ => prop_assert!(false, "a key and a row read apart"),
            }
            let mut d = Decoder::new(&bytes);
            let _ = d.take_value();
            let mut d = Decoder::new(&bytes);
            let _ = d.take_str();
            let mut d = Decoder::new(&bytes);
            let _ = d.take_varint();
            assert_canonical_or_refused(&bytes);
        }

        #[test]
        fn any_logged_changes_round_trip_and_skip_lands_where_take_lands(
            changes in proptest::collection::vec(change_strategy(), 0..8)
        ) {
            let mut e = Encoder::new();
            for c in &changes {
                e.put_change(c);
            }
            let bytes = e.into_bytes();
            let (mut take, mut skip) = (Decoder::new(&bytes), Decoder::new(&bytes));
            for c in &changes {
                prop_assert_eq!(&take.take_change().unwrap(), c);
                skip.skip_changes(1).unwrap();
                prop_assert_eq!(take.remaining(), skip.remaining());
            }
            prop_assert!(take.is_exhausted());
        }

        /// Every truncation and a mutation of every byte of a logged
        /// change: refused by both walks, or accepted by both at one
        /// position as the canonical spelling of what it decodes to.
        #[test]
        fn a_damaged_logged_change_is_refused_or_canonical(
            change in change_strategy(),
            masks in proptest::collection::vec(1..=255u8, 1..16)
        ) {
            let bytes = logged(&change);
            for cut in 0..=bytes.len() {
                assert_canonical_or_refused(&bytes[..cut]);
            }
            for i in 0..bytes.len() {
                let mut mutated = bytes.clone();
                mutated[i] ^= masks[i % masks.len()];
                assert_canonical_or_refused(&mutated);
            }
        }
    }
}
