//! Exact sums: the one accumulator every `SUM` and `AVG` in the engine
//! folds through.
//!
//! A finite `Double` is `m · 2^e` for integers `|m| < 2⁵³` and
//! `−1074 ≤ e ≤ 971`, and an `Int` is an integer, so the sum of any
//! multiset of them, each taken any whole number of times, is an integer
//! multiple of 2⁻¹⁰⁷⁴. [`ExactSum`] holds that integer in two's complement
//! — as one inline 128-bit word in units of 2⁻⁶⁴ when it fits, else in
//! 64-bit limbs scaled by `2^(64·lo)`, trimmed at both ends, with counts
//! of NaN, `+∞` and `−∞` beside them. Adding and retracting are integer
//! operations, so any order, batching, dimension-delta move, rollback,
//! replay or rebuild of the same multiset leaves the same value — and,
//! since the form is canonical, the same bits. The value is rounded once,
//! when it is emitted (DESIGN.md, "Exact sums").

use md_relation::{DataType, Decoder, Encoder, RelationError, Value};

use crate::error::{MaintainError, Result};

/// Where the NaN, `+∞` and `−∞` counts sit among the special counts.
const NAN: usize = 0;
const POS_INF: usize = 1;
const NEG_INF: usize = 2;

/// Limbs no sum of doubles with 64-bit weights reaches (it stays below
/// limb 19): an image holding one is refused.
const MAX_LIMB: i32 = 64;

/// The exact sum of a multiset of `Int` and `Double` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSum(Repr);

/// A sum in exactly one of two forms, so that equal sums compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// `v · 2⁻⁶⁴` for a 128-bit two's-complement `v`, held as its low and
    /// high limb: every sum with no bit below 2⁻⁶⁴ and a magnitude below
    /// 2⁶³ — of prices, tenths, integers — and no special value. It never
    /// touches the heap, and adding to it is one 128-bit addition.
    Small([u64; 2]),
    /// Any other sum.
    Wide(Box<Wide>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Wide {
    lo: i32,
    /// Two's complement, lowest limb first: no zero limb at the bottom, no
    /// limb at the top that only extends the sign of the one below.
    limbs: Vec<u64>,
    /// How many NaN, `+∞` and `−∞` the multiset holds (mod 2⁶⁴).
    specials: [u64; 3],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum(Repr::Small([0, 0]))
    }
}

impl ExactSum {
    /// Adds `v` `weight` times; a negative weight retracts it. Exact: the
    /// product `v · weight` is taken as `mantissa × weight`, never rounded.
    #[inline]
    pub fn add(&mut self, v: &Value, weight: i64) -> Result<()> {
        let (m, e) = match *v {
            Value::Int(i) => (i, 0),
            Value::Double(d) if d.is_finite() => decompose(d),
            Value::Double(d) => {
                let mut specials = [0; 3];
                specials[if d.is_nan() {
                    NAN
                } else if d > 0.0 {
                    POS_INF
                } else {
                    NEG_INF
                }] = weight as u64;
                self.add_slow(0, &[], specials, false);
                return Ok(());
            }
            ref other => {
                return Err(MaintainError::from(RelationError::TypeError {
                    expected: DataType::Double,
                    found: other.data_type(),
                }))
            }
        };
        // |m| ≤ 2⁶³ and |weight| ≤ 2⁶³: the product fits in 127 bits.
        let x = i128::from(m) * i128::from(weight);
        if x == 0 {
            // ±0.0, or a zero weight: the exact sum is what it was.
            return Ok(());
        }
        // In units of 2⁻⁶⁴, x · 2^e is x shifted left by e + 64.
        let shift = e + 64;
        if (0..127).contains(&shift)
            && x.unsigned_abs() >> (126 - shift) == 0
            && self.add_small(x << shift)
        {
            return Ok(());
        }
        let (k, s) = (e.div_euclid(64), e.rem_euclid(64) as u32);
        // x · 2^s over three limbs (|x| < 2¹²⁷, s < 64), sign-extended.
        let wide = [x as u64, (x >> 64) as u64, (x >> 127) as u64];
        let limbs = if s == 0 {
            wide
        } else {
            [
                wide[0] << s,
                wide[1] << s | wide[0] >> (64 - s),
                wide[2] << s | wide[1] >> (64 - s),
            ]
        };
        self.add_slow(k, &limbs, [0; 3], false);
        Ok(())
    }

    /// Adds every value `other` holds.
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        match other.0 {
            Repr::Small(v) if self.add_small(i128_of(v)) => {}
            _ => {
                let (lo, limbs, specials) = other.parts();
                self.add_slow(lo, limbs, specials, false);
            }
        }
    }

    /// Retracts every value `other` holds.
    pub(crate) fn unmerge(&mut self, other: &ExactSum) {
        let negated = match other.0 {
            Repr::Small(v) => i128_of(v).checked_neg(),
            Repr::Wide(_) => None,
        };
        if !negated.is_some_and(|a| self.add_small(a)) {
            let (lo, limbs, specials) = other.parts();
            self.add_slow(lo, limbs, specials, true);
        }
    }

    /// The sum emitted as a value of the argument column's type: an `Int`
    /// column's exact sum mod 2⁶⁴ (what `wrapping_add` gives), a `Double`
    /// column's rounded once to the nearest `f64`.
    pub(crate) fn emit(&self, dtype: DataType) -> Value {
        match dtype {
            DataType::Int => Value::Int(self.wrapped() as i64),
            _ => Value::Double(self.to_f64()),
        }
    }

    /// `AVG`: the sum rounded once, over `n` rows.
    pub(crate) fn mean(&self, n: u64) -> Value {
        Value::Double(self.to_f64() / n as f64)
    }

    /// The sum rounded once to the nearest `f64`, ties to even. Exact zero
    /// is `+0.0`; any NaN, or `+∞` with `−∞`, is NaN; a lone infinity
    /// outweighs every finite value; a finite sum beyond `f64::MAX` is
    /// `±∞`.
    fn to_f64(&self) -> f64 {
        let Repr::Small(v) = self.0 else {
            return self.rounded();
        };
        // Integer part and fraction, when both are exact doubles (a sum of
        // prices): their sum is rounded once, and three times as fast as
        // the 128-bit conversion.
        let (int, frac) = (v[1] as i64, v[0]);
        if frac & 0x7ff == 0 && int.unsigned_abs() < 1 << 53 {
            return int as f64 + (frac >> 11) as i64 as f64 * f64::from_bits((1023 - 53) << 52);
        }
        // `as` rounds to nearest, ties to even; scaling by 2⁻⁶⁴ is exact.
        i128_of(v) as f64 * f64::from_bits((1023 - 64) << 52)
    }

    /// [`Self::to_f64`] of a wide sum.
    #[cold]
    #[inline(never)]
    fn rounded(&self) -> f64 {
        let (lo, limbs, specials) = self.parts();
        if specials[NAN] != 0 || (specials[POS_INF] != 0 && specials[NEG_INF] != 0) {
            f64::NAN
        } else if specials[POS_INF] != 0 {
            f64::INFINITY
        } else if specials[NEG_INF] != 0 {
            f64::NEG_INFINITY
        } else {
            round(lo, limbs)
        }
    }

    /// Whether a column of type `dtype` can hold this sum: a `Double`
    /// column's is a multiple of 2⁻¹⁰⁷⁴, an `Int` column's an integer with
    /// no special value.
    pub(crate) fn admits(&self, dtype: DataType) -> bool {
        let (lo, limbs, specials) = self.parts();
        let lowest = limbs.first().map_or(0, |low| {
            64 * i64::from(lo) + i64::from(low.trailing_zeros())
        });
        match dtype {
            DataType::Int => specials == [0; 3] && lowest >= 0,
            DataType::Double => lowest >= -1074,
            DataType::Str | DataType::Bool => false,
        }
    }

    /// Appends the sum in the engine image's encoding:
    ///
    /// ```text
    /// sum: at (zigzag varint)  n·2 + s (varint)  byte{n}
    ///      [nan +inf −inf (varints)]   — only when s = 1
    /// ```
    ///
    /// The sum is the `n`-byte two's-complement integer (lowest byte
    /// first) times `2^(8·at)`, trimmed at both ends — its lowest byte is
    /// not zero, its top byte does not just extend the sign of the one
    /// below — and zero is no bytes at `at = 0`: a sum has one spelling. A
    /// sum of prices takes a few bytes.
    pub fn encode(&self, e: &mut Encoder) {
        match &self.0 {
            Repr::Small(v) => {
                // In bytes from 2⁻⁶⁴: the zero bytes at the bottom go into
                // the exponent, the ones that only extend the sign go.
                let x = i128_of(*v);
                let zeros = if x == 0 { 8 } else { x.trailing_zeros() / 8 };
                let y = x >> (8 * zeros);
                let n = match y {
                    0 => 0,
                    _ => (129 - (y ^ y >> 127).leading_zeros()).div_ceil(8) as usize,
                };
                // `at` is in −8..8 and `n` at most 16, so each of the two
                // varints is one byte.
                let at = i64::from(zeros) - 8;
                let mut spelled = [0; 18];
                spelled[0] = ((at << 1) ^ (at >> 63)) as u8;
                spelled[1] = (n << 1) as u8;
                spelled[2..].copy_from_slice(&y.to_le_bytes());
                e.put_raw(&spelled[..2 + n]);
            }
            Repr::Wide(wide) => put_limbs(e, wide.lo, &wide.limbs, wide.specials),
        }
    }

    /// Reads a sum [`Self::encode`] wrote, refusing any other spelling:
    /// a redundant byte at either end, a zero with an exponent, a special
    /// flag with no special value, or bits beyond any sum of doubles.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let refused =
            |what: &str| MaintainError::InvariantViolation(format!("corrupt snapshot: sum {what}"));
        let at = d.take_zigzag()?;
        let head = d.take_varint()?;
        let bytes = d.take_raw((head >> 1).try_into().unwrap_or(usize::MAX))?;
        let mut specials = [0; 3];
        if head & 1 == 1 {
            for n in &mut specials {
                *n = d.take_varint()?;
            }
            if specials == [0; 3] {
                return Err(refused("flags special values it does not count"));
            }
        }
        let canonical = match bytes {
            [] => at == 0,
            [.., next, top] if *top == byte_sign(*next) => false,
            [low, ..] => *low != 0,
        };
        let (bound, n) = (8 * i64::from(MAX_LIMB), bytes.len() as i64);
        if !canonical || at < -bound || at.saturating_add(n) > bound {
            return Err(refused("not in canonical form"));
        }
        let fill = bytes.last().map_or(0, |&top| byte_sign(top));
        if specials == [0; 3] && at >= -8 && at + n <= 8 {
            // Inline: the bytes, sign-extended, shifted to 2⁻⁶⁴.
            let top = i128::from(fill as i8);
            let y = bytes.iter().rev().fold(top, |y, &b| y << 8 | i128::from(b));
            return Ok(ExactSum(Repr::Small(limbs_of(y << (8 * (at + 8))))));
        }
        // Back to limbs: zeros below, to a limb boundary, the sign above.
        let (lo, pad) = (at.div_euclid(8) as i32, at.rem_euclid(8) as usize);
        let mut aligned = vec![0; pad];
        aligned.extend(bytes);
        aligned.resize(aligned.len().div_ceil(8) * 8, fill);
        let limbs = aligned
            .chunks_exact(8)
            .map(|limb| u64::from_le_bytes(limb.try_into().expect("8 bytes")))
            .collect();
        let (lo, limbs) = normalize(lo, limbs);
        Ok(ExactSum::from_parts(lo, limbs, specials))
    }

    /// The limbs (lowest first, trimmed at both ends), the exponent of the
    /// lowest, and the special counts.
    fn parts(&self) -> (i32, &[u64], [u64; 3]) {
        match &self.0 {
            Repr::Small(v) => match *v {
                [0, 0] => (0, &v[..0], [0; 3]),
                [0, _] => (0, &v[1..], [0; 3]),
                [low, high] if high == sign_of(low) => (-1, &v[..1], [0; 3]),
                _ => (-1, &v[..], [0; 3]),
            },
            Repr::Wide(wide) => (wide.lo, &wide.limbs, wide.specials),
        }
    }

    /// The sum of `limbs` (trimmed at both ends) at `lo` and `specials`,
    /// in the one form that holds it.
    fn from_parts(lo: i32, limbs: Vec<u64>, specials: [u64; 3]) -> Self {
        ExactSum(match (lo, &limbs[..]) {
            _ if specials != [0; 3] => Repr::Wide(Box::new(Wide {
                lo,
                limbs,
                specials,
            })),
            (_, []) => Repr::Small([0, 0]),
            (-1, &[low]) => Repr::Small([low, sign_of(low)]),
            (-1, &[low, high]) => Repr::Small([low, high]),
            (0, &[high]) => Repr::Small([0, high]),
            _ => Repr::Wide(Box::new(Wide {
                lo,
                limbs,
                specials,
            })),
        })
    }

    /// `self += a · 2⁻⁶⁴` in place, when `self` and the sum are small;
    /// `false`, and `self` untouched, when they are not.
    fn add_small(&mut self, a: i128) -> bool {
        let Repr::Small(v) = &mut self.0 else {
            return false;
        };
        match i128_of(*v).checked_add(a) {
            Some(sum) => {
                *v = limbs_of(sum);
                true
            }
            None => false,
        }
    }

    /// `self ± (limbs · 2^(64·k) + specials)` through the general limb
    /// arithmetic.
    #[cold]
    #[inline(never)]
    fn add_slow(&mut self, k: i32, limbs: &[u64], specials: [u64; 3], negate: bool) {
        let (lo, mine, mut counts) = self.parts();
        let (lo, sum) = combine((lo, mine), (k, limbs), negate);
        for (count, n) in counts.iter_mut().zip(specials) {
            *count = if negate {
                count.wrapping_sub(n)
            } else {
                count.wrapping_add(n)
            };
        }
        *self = ExactSum::from_parts(lo, sum, counts);
    }

    /// The limb at 2⁰: the integer part mod 2⁶⁴.
    fn wrapped(&self) -> u64 {
        let (lo, limbs, _) = self.parts();
        limb((lo, limbs), 0)
    }
}

/// `d` (finite) as `(m, e)` with `d = m · 2^e`.
fn decompose(d: f64) -> (i64, i32) {
    let bits = d.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    let fraction = (bits & ((1 << 52) - 1)) as i64;
    let (m, e) = match exponent {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, exponent - 1075),
    };
    (if d.is_sign_negative() { -m } else { m }, e)
}

fn i128_of(v: [u64; 2]) -> i128 {
    i128::from(v[1] as i64) << 64 | i128::from(v[0])
}

fn limbs_of(x: i128) -> [u64; 2] {
    [x as u64, (x >> 64) as u64]
}

/// The limb that extends `limb`'s sign upwards.
fn sign_of(limb: u64) -> u64 {
    ((limb as i64) >> 63) as u64
}

/// Writes `limbs · 2^(64·lo)` and `specials` as [`ExactSum::encode`]
/// spells them.
fn put_limbs(e: &mut Encoder, lo: i32, limbs: &[u64], specials: [u64; 3]) {
    let bytes: Vec<u8> = limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
    let zeros = bytes.iter().take_while(|&&b| b == 0).count();
    let mut bytes = &bytes[zeros..];
    while let [.., next, top] = *bytes {
        if top != byte_sign(next) {
            break;
        }
        bytes = &bytes[..bytes.len() - 1];
    }
    put_sum(e, 8 * i64::from(lo) + zeros as i64, bytes, specials);
}

/// Writes a sum as [`ExactSum::encode`] spells it: `bytes · 2^(8·at)`.
fn put_sum(e: &mut Encoder, at: i64, bytes: &[u8], specials: [u64; 3]) {
    let special = specials != [0; 3];
    e.put_zigzag(at);
    e.put_varint((bytes.len() as u64) << 1 | u64::from(special));
    e.put_raw(bytes);
    if special {
        for n in specials {
            e.put_varint(n);
        }
    }
}

/// The byte that extends `byte`'s sign upwards.
fn byte_sign(byte: u8) -> u8 {
    ((byte as i8) >> 7) as u8
}

/// Limb `p` of the two's-complement number `limbs · 2^(64·lo)`.
fn limb((lo, limbs): (i32, &[u64]), p: i32) -> u64 {
    match limbs.last() {
        Some(&top) if p >= lo => limbs
            .get((p - lo) as usize)
            .copied()
            .unwrap_or(sign_of(top)),
        _ => 0,
    }
}

/// `a + b`, or `a − b` when `negate`, in canonical form.
fn combine(a: (i32, &[u64]), b: (i32, &[u64]), negate: bool) -> (i32, Vec<u64>) {
    let span =
        |(lo, limbs): (i32, &[u64])| (!limbs.is_empty()).then(|| (lo, lo + limbs.len() as i32));
    let (lo, hi) = match (span(a), span(b)) {
        (None, None) => return (0, Vec::new()),
        (Some(s), None) | (None, Some(s)) => s,
        (Some(x), Some(y)) => (x.0.min(y.0), x.1.max(y.1)),
    };
    // One limb of headroom above both: the sum cannot carry past it.
    let mut carry = u64::from(negate);
    let limbs = (lo..=hi)
        .map(|p| {
            let y = if negate { !limb(b, p) } else { limb(b, p) };
            let (s, c1) = limb(a, p).overflowing_add(y);
            let (s, c2) = s.overflowing_add(carry);
            carry = u64::from(c1 || c2);
            s
        })
        .collect();
    normalize(lo, limbs)
}

/// Trims `limbs · 2^(64·lo)` at both ends: no limb at the top that only
/// extends the sign, none at the bottom that is zero.
fn normalize(lo: i32, mut limbs: Vec<u64>) -> (i32, Vec<u64>) {
    while let [.., next, top] = limbs[..] {
        if top != sign_of(next) {
            break;
        }
        limbs.pop();
    }
    let zeros = limbs.iter().take_while(|&&l| l == 0).count();
    limbs.drain(..zeros);
    let lo = if limbs.is_empty() {
        0
    } else {
        lo + zeros as i32
    };
    (lo, limbs)
}

/// `limbs · 2^(64·lo)` rounded to the nearest `f64`, ties to even.
fn round(lo: i32, limbs: &[u64]) -> f64 {
    let Some(&top) = limbs.last() else {
        return 0.0;
    };
    let negative = (top as i64) < 0;
    let mut magnitude = limbs.to_vec();
    if negative {
        let mut carry = true;
        for l in &mut magnitude {
            (*l, carry) = (!*l).overflowing_add(u64::from(carry));
        }
    }
    let base = 64 * i64::from(lo);
    let bit = |p: i64| {
        let r = p - base;
        r >= 0
            && magnitude
                .get((r / 64) as usize)
                .is_some_and(|l| l >> (r % 64) & 1 == 1)
    };
    let any_below = |p: i64| {
        let r = (p - base).clamp(0, 64 * magnitude.len() as i64);
        let (whole, part) = ((r / 64) as usize, r % 64);
        magnitude[..whole].iter().any(|&l| l != 0)
            || (part > 0 && magnitude[whole] & ((1 << part) - 1) != 0)
    };
    let high = magnitude
        .iter()
        .rposition(|&l| l != 0)
        .expect("a nonzero sum");
    let h = base + 64 * high as i64 + 63 - i64::from(magnitude[high].leading_zeros());
    // The last mantissa bit, and the mantissa: 53 bits, fewer below 2⁻¹⁰²².
    let mut q = (h - 52).max(-1074);
    let mut m = (q..=h).rev().fold(0u64, |m, p| m << 1 | u64::from(bit(p)));
    if bit(q - 1) && (m & 1 == 1 || any_below(q - 1)) {
        m += 1;
        if m == 1 << 53 {
            (m, q) = (m >> 1, q + 1);
        }
    }
    let value = if q > 971 {
        f64::INFINITY
    } else if m < 1 << 52 {
        f64::from_bits(m)
    } else {
        f64::from_bits(((q + 1075) as u64) << 52 | (m & ((1 << 52) - 1)))
    };
    if negative {
        -value
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[(f64, i64)]) -> ExactSum {
        let mut s = ExactSum::default();
        for &(v, w) in values {
            s.add(&Value::Double(v), w).unwrap();
        }
        s
    }

    fn re_encoded(s: &ExactSum) -> ExactSum {
        let mut e = Encoder::new();
        s.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = ExactSum::decode(&mut d).unwrap();
        assert!(d.is_exhausted());
        back
    }

    #[test]
    fn cancelling_magnitudes_sum_exactly() {
        let s = sum_of(&[(1e16, 1), (1.0, 1), (-1e16, 1)]);
        assert_eq!(s.to_f64(), 1.0);
        assert_eq!(s, sum_of(&[(1.0, 1)]));
        // `a · cnt₀` is one state with `a` added `cnt₀` times, and small.
        let tenths = sum_of(&[(0.1, 3)]);
        assert_eq!(tenths, sum_of(&[(0.1, 1), (0.1, 1), (0.1, 1)]));
        assert_eq!(tenths.to_f64(), 0.30000000000000004);
        assert!(matches!(tenths.0, Repr::Small(_)));
    }

    #[test]
    fn zero_is_canonical_and_emits_plus_zero() {
        let s = sum_of(&[(-0.0, 1), (-0.0, 5)]);
        assert_eq!(s, ExactSum::default());
        assert_eq!(s.to_f64().to_bits(), 0.0f64.to_bits());
        let gone = sum_of(&[(2.5, 2), (1e300, 1), (-2.5, 2), (-1e300, 1)]);
        assert_eq!(gone, ExactSum::default());
    }

    #[test]
    fn special_values_are_counted_not_absorbed() {
        let mut s = sum_of(&[(1.5, 1), (f64::NAN, 1)]);
        assert!(s.to_f64().is_nan());
        s.add(&Value::Double(f64::NAN), -1).unwrap();
        assert_eq!(s, sum_of(&[(1.5, 1)]));
        let both = sum_of(&[(f64::INFINITY, 1), (f64::NEG_INFINITY, 1), (3.0, 1)]);
        assert!(both.to_f64().is_nan());
        assert_eq!(
            sum_of(&[(f64::INFINITY, 2), (1.0, 1)]).to_f64(),
            f64::INFINITY
        );
        assert!(!both.admits(DataType::Int));
    }

    #[test]
    fn overflow_and_subnormals_round_as_ieee_does() {
        assert_eq!(sum_of(&[(1e308, 2)]).to_f64(), f64::INFINITY);
        assert_eq!(
            sum_of(&[(-1e308, 1), (-1e308, 1)]).to_f64(),
            f64::NEG_INFINITY
        );
        assert_eq!(sum_of(&[(1e308, 2), (-1e308, 1)]).to_f64(), 1e308);
        assert_eq!(sum_of(&[(f64::MAX, 1)]).to_f64(), f64::MAX);
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[(tiny, 3)]).to_f64(), 3.0 * tiny);
        let sub = f64::from_bits(0x000f_ffff_ffff_ffff);
        assert_eq!(sum_of(&[(sub, 1), (tiny, 1)]).to_f64(), f64::MIN_POSITIVE);
        // A tie between two doubles goes to the even one.
        let even = sum_of(&[(1.0, 1), (f64::EPSILON / 2.0, 1)]);
        assert_eq!(even.to_f64(), 1.0);
        let odd = sum_of(&[(1.0 + f64::EPSILON, 1), (f64::EPSILON / 2.0, 1)]);
        assert_eq!(odd.to_f64(), 1.0 + 2.0 * f64::EPSILON);
        let above = sum_of(&[(1.0, 1), (f64::EPSILON / 2.0, 1), (1e-300, 1)]);
        assert_eq!(above.to_f64(), 1.0 + f64::EPSILON);
    }

    /// Inline words: ties at every width, both signs, the ends of the
    /// range, and a spread of others.
    fn inline_words() -> Vec<i128> {
        let mut xs = vec![i128::MIN, i128::MAX, 0, 1, -1, (1 << 53) + 1, 3 << 62];
        for width in 54..127 {
            let base = 1i128 << width;
            let half = 1i128 << (width - 53);
            xs.extend([base + half, base + 3 * half, base + half + 1, base - 1]);
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let x = i128::from(state as i64) << (state % 64) | i128::from(state >> 7);
            xs.push(x);
        }
        xs.into_iter().flat_map(|x| [x, x.wrapping_neg()]).collect()
    }

    #[test]
    fn the_inline_form_rounds_as_the_general_one_does() {
        for x in inline_words() {
            let s = ExactSum(Repr::Small(limbs_of(x)));
            let (lo, limbs, _) = s.parts();
            let want = round(lo, limbs);
            assert_eq!(s.to_f64().to_bits(), want.to_bits(), "{x}");
        }
    }

    #[test]
    fn the_inline_form_encodes_as_the_general_one_does() {
        for x in inline_words() {
            let s = ExactSum(Repr::Small(limbs_of(x)));
            let (lo, limbs, specials) = s.parts();
            let mut general = Encoder::new();
            put_limbs(&mut general, lo, limbs, specials);
            let mut inline = Encoder::new();
            s.encode(&mut inline);
            assert_eq!(inline.into_bytes(), general.into_bytes(), "{x}");
            assert_eq!(re_encoded(&s), s, "{x}");
        }
    }

    #[test]
    fn ints_emit_the_wrapping_sum_and_average_the_exact_one() {
        let mut s = ExactSum::default();
        for _ in 0..3 {
            s.add(&Value::Int(i64::MAX), 1).unwrap();
        }
        let wrapped = i64::MAX.wrapping_add(i64::MAX).wrapping_add(i64::MAX);
        assert_eq!(s.emit(DataType::Int), Value::Int(wrapped));
        assert_eq!(s.mean(3), Value::Double(i64::MAX as f64));
        assert!(s.admits(DataType::Int));
        assert!(!sum_of(&[(0.5, 1)]).admits(DataType::Int));
    }

    #[test]
    fn merge_and_unmerge_are_adding_and_retracting_the_values() {
        let parts = [(1e16, 3), (0.1, 7), (-2.5e-310, 2), (1e300, 1)];
        let mut merged = ExactSum::default();
        for &p in &parts {
            merged.merge(&sum_of(&[p]));
        }
        assert_eq!(merged, sum_of(&parts));
        for &p in &parts {
            merged.unmerge(&sum_of(&[p]));
        }
        assert_eq!(merged, ExactSum::default());
    }

    #[test]
    fn the_encoding_round_trips_and_refuses_other_spellings() {
        for s in [
            ExactSum::default(),
            sum_of(&[(12.75, 1)]),
            sum_of(&[(-3.0, 1)]),
            sum_of(&[(1e300, 1), (1e-300, 1)]),
            sum_of(&[(f64::NAN, 2), (0.1, 1)]),
        ] {
            assert_eq!(re_encoded(&s), s);
        }
        let decode = |bytes: &[u8]| ExactSum::decode(&mut Decoder::new(bytes));
        let image = |at: i64, bytes: &[u8], specials: Option<[u64; 3]>| {
            let mut e = Encoder::new();
            e.put_zigzag(at);
            e.put_varint((bytes.len() as u64) << 1 | u64::from(specials.is_some()));
            bytes.iter().for_each(|&b| e.put_u8(b));
            specials.into_iter().flatten().for_each(|n| e.put_varint(n));
            e.into_bytes()
        };
        // 12.5 is 0x0C80 · 2⁻⁸.
        let twelve_and_a_half = decode(&image(-1, &[0x80, 0x0c], None)).unwrap();
        assert_eq!(twelve_and_a_half, sum_of(&[(12.5, 1)]));
        for (what, bytes) in [
            ("a zero low byte", image(-2, &[0, 0x80, 0x0c], None)),
            ("a redundant high byte", image(-1, &[0x80, 0x0c, 0], None)),
            ("a redundant sign byte", image(0, &[0xfe, 0xff], None)),
            ("a zero with an exponent", image(3, &[], None)),
            (
                "a special flag counting nothing",
                image(0, &[5], Some([0; 3])),
            ),
            (
                "a byte past any sum",
                image(8 * i64::from(MAX_LIMB), &[5], None),
            ),
            (
                "a length past the image",
                image(0, &[5, 6], None)[..3].to_vec(),
            ),
        ] {
            assert!(decode(&bytes).is_err(), "{what} decoded");
        }
    }

    /// A double of any magnitude: random bits, or one of the values whose
    /// sums sit on or next to a rounding tie, at either end of the range.
    fn any_double() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        let edges = [
            f64::MAX,
            2f64.powi(1023),
            2f64.powi(970),
            2f64.powi(969),
            1.0,
            f64::EPSILON / 2.0,
            0.1,
            2f64.powi(-790),
            2f64.powi(-801),
            f64::MIN_POSITIVE,
            f64::from_bits(1),
        ];
        let edge = (0..2 * edges.len()).prop_map(move |i| edges[i / 2] * [1.0, -1.0][i % 2]);
        prop_oneof![any::<u64>().prop_map(f64::from_bits), edge]
    }

    proptest::proptest! {
        /// The oracle's exact sum, Shewchuk expansions, and this one —
        /// integer limbs — agree to the last bit, whatever is added and
        /// retracted around them.
        #[test]
        fn agrees_with_the_oracles_expansion_sum(
            values in proptest::collection::vec((any_double(), 1..4u64), 0..12),
            junk in any_double(),
        ) {
            use md_algebra::ExpansionSum;

            let mut exact = ExactSum::default();
            let mut oracle = ExpansionSum::new(DataType::Double).unwrap();
            exact.add(&Value::Double(junk), 5).unwrap();
            for &(v, n) in &values {
                exact.add(&Value::Double(v), n as i64).unwrap();
                oracle.add(&Value::Double(v), n).unwrap();
            }
            exact.add(&Value::Double(junk), -5).unwrap();
            let Value::Double(want) = oracle.sum() else {
                unreachable!("a Double column sums to a Double");
            };
            proptest::prop_assert_eq!(exact.to_f64().to_bits(), want.to_bits());
        }
    }
}
