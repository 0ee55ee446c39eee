//! A compact, versioned binary codec for values and rows.
//!
//! The warehouse's reason for existing is that the sources are
//! unreachable — so its state (summary + auxiliary views) must survive
//! restarts without a reload. This module provides the primitive
//! encoding used by the snapshot format in `md-maintain`: little-endian
//! fixed-width integers, IEEE-754 bit patterns for doubles (preserving
//! the engine's bitwise value semantics), and length-prefixed UTF-8
//! strings.

use crate::delta::Change;
use crate::error::{RelationError, Result};
use crate::row::Row;
use crate::value::Value;

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup tables for
/// slice-by-8, built at compile time. `CRC32_TABLES[0]` is the classic
/// one-byte table; `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which is what lets eight input bytes be folded with
/// eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
    while k < 8 {
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
/// bit-flipped writes. Eight bytes per step (slice-by-8); the tail goes a
/// byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes primitives into a growable byte buffer.
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

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing was encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
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

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// including NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
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

    /// Appends a tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.put_u8(0);
                self.put_i64(*i);
            }
            Value::Double(d) => {
                self.put_u8(1);
                self.put_f64(*d);
            }
            Value::Str(s) => {
                self.put_u8(2);
                self.put_str(s);
            }
            Value::Bool(b) => {
                self.put_u8(3);
                self.put_u8(u8::from(*b));
            }
        }
    }

    /// Appends a length-prefixed [`Row`].
    pub fn put_row(&mut self, row: &Row) {
        self.put_u32(row.arity() as u32);
        for v in row.values() {
            self.put_value(v);
        }
    }

    /// Appends a tagged [`Change`].
    pub fn put_change(&mut self, change: &Change) {
        match change {
            Change::Insert(row) => {
                self.put_u8(0);
                self.put_row(row);
            }
            Change::Delete(row) => {
                self.put_u8(1);
                self.put_row(row);
            }
            Change::Update { old, new } => {
                self.put_u8(2);
                self.put_row(old);
                self.put_row(new);
            }
        }
    }
}

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

    fn corrupt(&self, what: &str) -> RelationError {
        RelationError::Invalid(format!(
            "corrupt snapshot: truncated {what} at byte {}",
            self.pos
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(what));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an IEEE-754 `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
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
        Ok(self.take_str_borrowed()?.to_owned())
    }

    /// Validates a length-prefixed UTF-8 string in place.
    fn take_str_borrowed(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|_| RelationError::Invalid("corrupt snapshot: invalid UTF-8".into()))
    }

    /// Reads a tagged [`Value`].
    pub fn take_value(&mut self) -> Result<Value> {
        match self.take_u8()? {
            0 => Ok(Value::Int(self.take_i64()?)),
            1 => Ok(Value::Double(self.take_f64()?)),
            2 => Ok(Value::Str(self.take_str()?)),
            3 => Ok(Value::Bool(self.take_u8()? != 0)),
            tag => Err(RelationError::Invalid(format!(
                "corrupt snapshot: unknown value tag {tag}"
            ))),
        }
    }

    /// Reads a length-prefixed [`Row`].
    pub fn take_row(&mut self) -> Result<Row> {
        let arity = self.take_u32()? as usize;
        // The length prefix is untrusted input: every value occupies at
        // least one byte, so an arity beyond the remaining bytes is
        // corruption — reject it before allocating anything that size.
        if arity > self.remaining() {
            return Err(self.corrupt("row (arity exceeds remaining bytes)"));
        }
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.take_value()?);
        }
        Ok(Row::new(vals))
    }

    /// Reads a tagged [`Change`].
    pub fn take_change(&mut self) -> Result<Change> {
        match self.take_u8()? {
            0 => Ok(Change::Insert(self.take_row()?)),
            1 => Ok(Change::Delete(self.take_row()?)),
            2 => Ok(Change::Update {
                old: self.take_row()?,
                new: self.take_row()?,
            }),
            tag => Err(RelationError::Invalid(format!(
                "corrupt snapshot: unknown change tag {tag}"
            ))),
        }
    }

    /// Walks over one tagged [`Value`] without building it. The `skip_*`
    /// walkers accept exactly the input their `take_*` twins accept — same
    /// tags, same length checks, same UTF-8 check — and leave the decoder
    /// at the same position; they allocate nothing.
    pub fn skip_value(&mut self) -> Result<()> {
        match self.take_u8()? {
            0 | 1 => self.take(8, "u64").map(|_| ()),
            2 => self.take_str_borrowed().map(|_| ()),
            3 => self.take_u8().map(|_| ()),
            tag => Err(RelationError::Invalid(format!(
                "corrupt snapshot: unknown value tag {tag}"
            ))),
        }
    }

    /// Walks over one length-prefixed [`Row`]; see [`Self::skip_value`].
    pub fn skip_row(&mut self) -> Result<()> {
        let arity = self.take_u32()? as usize;
        if arity > self.remaining() {
            return Err(self.corrupt("row (arity exceeds remaining bytes)"));
        }
        for _ in 0..arity {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Walks over one tagged [`Change`]; see [`Self::skip_value`].
    pub fn skip_change(&mut self) -> Result<()> {
        match self.take_u8()? {
            0 | 1 => self.skip_row(),
            2 => {
                self.skip_row()?;
                self.skip_row()
            }
            tag => Err(RelationError::Invalid(format!(
                "corrupt snapshot: unknown change tag {tag}"
            ))),
        }
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
        e.put_i64(-42);
        e.put_f64(-0.0);
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 1_000_000);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_i64().unwrap(), -42);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
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
        round_trip_value(Value::Double(3.25));
        round_trip_value(Value::str(""));
        round_trip_value(Value::str("brand-42"));
        round_trip_value(Value::Bool(true));
    }

    #[test]
    fn row_round_trips() {
        let r = row![1, 2.5, "x", true];
        let mut e = Encoder::new();
        e.put_row(&r);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_row().unwrap(), r);
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_row(&row![1, "abc"]);
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
    fn change_round_trips() {
        let changes = [
            Change::Insert(row![1, "a", 2.5]),
            Change::Delete(row![7]),
            Change::Update {
                old: row![1, "a"],
                new: row![1, "b"],
            },
        ];
        let mut e = Encoder::new();
        for c in &changes {
            e.put_change(c);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        for c in &changes {
            assert_eq!(&d.take_change().unwrap(), c);
        }
        assert!(d.is_exhausted());
    }

    #[test]
    fn change_decoding_rejects_garbage() {
        assert!(Decoder::new(&[3]).take_change().is_err()); // unknown tag
        let mut e = Encoder::new();
        e.put_change(&Change::Insert(row![1, "abc"]));
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Decoder::new(&bytes[..cut]).take_change().is_err());
        }
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

    /// The one-byte-per-lookup CRC-32 `crc32` replaced, kept as the
    /// reference the slice-by-8 code is held to.
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

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = noise(80);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let big = noise(if cfg!(miri) { 4 << 10 } else { 1 << 20 });
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        assert_eq!(crc32(&big[3..]), crc32_bytewise(&big[3..]));
    }

    /// `skip_change` and `take_change` must agree on `bytes`: both accept
    /// and stop at the same position, or both reject.
    fn assert_skip_agrees_with_take(bytes: &[u8]) {
        let mut take = Decoder::new(bytes);
        let mut skip = Decoder::new(bytes);
        match (take.take_change(), skip.skip_change()) {
            (Ok(_), Ok(())) => assert_eq!(take.remaining(), skip.remaining(), "{bytes:?}"),
            (Err(_), Err(_)) => {}
            (t, s) => panic!("take {t:?} but skip {s:?} on {bytes:?}"),
        }
    }

    #[test]
    fn skipping_a_change_accepts_exactly_what_decoding_it_accepts() {
        let changes = [
            Change::Insert(row![1, "héllo", 2.5, true]),
            Change::Delete(row![]),
            Change::Update {
                old: row![1, "a"],
                new: row![f64::NAN, ""],
            },
        ];
        for c in &changes {
            let mut e = Encoder::new();
            e.put_change(c);
            e.put_u8(0xAB); // a byte past the change: neither may eat it
            let bytes = e.into_bytes();
            assert_skip_agrees_with_take(&bytes);
            for cut in 0..bytes.len() {
                assert_skip_agrees_with_take(&bytes[..cut]);
            }
            // Every single-byte mutation: bad tags, lying lengths and
            // arities, broken UTF-8.
            for i in 0..bytes.len() {
                for flip in [0x01, 0x02, 0x04, 0x80, 0xFF] {
                    let mut mutated = bytes.clone();
                    mutated[i] ^= flip;
                    assert_skip_agrees_with_take(&mutated);
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
        assert_eq!(e.len(), 6);
        assert_eq!(e.into_bytes(), vec![9, 9, 1, 0, 0, 0]);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut e = Encoder::new();
        e.put_row(&row![1, "abc", 2.5]);
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
    use super::*;
    use crate::row::Row;
    use proptest::prelude::*;

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Double),
            "[a-zA-Z0-9 '\\-]{0,24}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
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
            e.put_row(&r);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_row().unwrap(), r);
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Arbitrary input must produce Ok or Err — never a panic.
            let mut d = Decoder::new(&bytes);
            let _ = d.take_row();
            let mut d = Decoder::new(&bytes);
            let _ = d.take_value();
            let mut d = Decoder::new(&bytes);
            let _ = d.take_str();
        }
    }
}
