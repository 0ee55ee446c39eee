//! The oracle's exact sums: Shewchuk expansions, rounded once.
//!
//! An expansion holds a sum of doubles exactly as a list of non-overlapping
//! doubles ("partials", J. R. Shewchuk, *Adaptive Precision Floating-Point
//! Arithmetic*, 1997; the algorithm of Python's `math.fsum`): adding a
//! value runs it through the list with error-free two-sums, and the total
//! is rounded once at the end. `a · n` enters as the error-free products of
//! `a` with the two 32-bit halves of `n` (each an exact double), split by a
//! fused multiply-add. Two things keep every operation finite and exact:
//! values of at least `2^SMALL` are summed scaled down by `2^−SCALE`, the
//! rest unscaled, and the two lists meet only at the final rounding.
//!
//! This is the recompute side's arithmetic. The maintenance engine sums
//! with integer limbs; the two are different exact algorithms, and a
//! maintained `SUM` must equal its recompute to the last bit.

use md_relation::{DataType, RelationError, Value};

use crate::error::{AlgebraError, Result};

/// The power of two large inputs are scaled down by.
const SCALE: i32 = 128;

/// Inputs below `2^SMALL` are summed unscaled. Larger ones scale without
/// losing a bit (their last bit is at least `2^−852`), and no sum of 2⁶⁴
/// smaller ones comes near overflow.
const SMALL: i32 = -800;

/// The exact sum of one numeric column's values.
#[derive(Debug, Clone)]
pub struct ExpansionSum(Kind);

#[derive(Debug, Clone)]
enum Kind {
    /// An `Int` column: the sum mod 2⁶⁴ and, for `AVG`, in 128 bits.
    Int { wrapped: i64, wide: i128 },
    /// A `Double` column.
    Double {
        /// The partials of the inputs of at least `2^SMALL`, scaled.
        large: Vec<f64>,
        /// The partials of the smaller ones.
        small: Vec<f64>,
        nan: bool,
        pos_inf: bool,
        neg_inf: bool,
    },
}

impl ExpansionSum {
    /// An empty sum of a column of type `dtype`.
    pub fn new(dtype: DataType) -> Result<Self> {
        Ok(ExpansionSum(match dtype {
            DataType::Int => Kind::Int {
                wrapped: 0,
                wide: 0,
            },
            DataType::Double => Kind::Double {
                large: Vec::new(),
                small: Vec::new(),
                nan: false,
                pos_inf: false,
                neg_inf: false,
            },
            other => return Err(type_error(DataType::Double, other)),
        }))
    }

    /// Adds `v` `n` times.
    pub fn add(&mut self, v: &Value, n: u64) -> Result<()> {
        match (&mut self.0, v) {
            (Kind::Int { wrapped, wide }, Value::Int(i)) => {
                *wrapped = wrapped.wrapping_add(i.wrapping_mul(n as i64));
                *wide += i128::from(*i) * i128::from(n);
            }
            (Kind::Int { .. }, other) => return Err(type_error(DataType::Int, other.data_type())),
            (Kind::Double { .. }, Value::Int(i)) => {
                // Two doubles that hold the integer exactly.
                let high = *i & !0xFFFF_FFFF;
                self.add_double(high as f64, n);
                self.add_double((*i - high) as f64, n);
            }
            (Kind::Double { .. }, Value::Double(d)) => self.add_double(*d, n),
            (Kind::Double { .. }, other) => {
                return Err(type_error(DataType::Double, other.data_type()))
            }
        }
        Ok(())
    }

    /// The sum as a value of the column's type: an `Int` column's mod
    /// 2⁶⁴, a `Double` column's rounded once to nearest-even — exact zero
    /// is `+0.0`, any NaN or `+∞` with `−∞` is NaN, a lone infinity wins,
    /// and a finite sum beyond `f64::MAX` is `±∞`.
    pub fn sum(&self) -> Value {
        match &self.0 {
            Kind::Int { wrapped, .. } => Value::Int(*wrapped),
            Kind::Double { .. } => Value::Double(self.rounded()),
        }
    }

    /// `AVG` over `n` rows: the sum rounded once, divided by `n`.
    pub(crate) fn mean(&self, n: u64) -> Value {
        let total = match &self.0 {
            Kind::Int { wide, .. } => *wide as f64,
            Kind::Double { .. } => self.rounded(),
        };
        Value::Double(total / n as f64)
    }

    fn add_double(&mut self, x: f64, n: u64) {
        let Kind::Double {
            large,
            small,
            nan,
            pos_inf,
            neg_inf,
        } = &mut self.0
        else {
            unreachable!("a double goes into a Double sum");
        };
        if n == 0 || x == 0.0 {
            return;
        }
        if x.is_nan() {
            *nan = true;
        } else if x == f64::INFINITY {
            *pos_inf = true;
        } else if x == f64::NEG_INFINITY {
            *neg_inf = true;
        } else {
            let (partials, x) = if x.abs() >= pow2(SMALL) {
                (large, x * pow2(-SCALE))
            } else {
                (small, x)
            };
            // n = high · 2³² + low, each exact; x · part = p + e exactly.
            for (part, shift) in [
                ((n >> 32) as f64, pow2(32)),
                ((n & 0xFFFF_FFFF) as f64, 1.0),
            ] {
                let p = x * part;
                let e = x.mul_add(part, -p);
                grow(partials, p * shift);
                grow(partials, e * shift);
            }
        }
    }

    fn rounded(&self) -> f64 {
        let Kind::Double {
            large,
            small,
            nan,
            pos_inf,
            neg_inf,
        } = &self.0
        else {
            unreachable!("only a Double sum rounds");
        };
        if *nan || (*pos_inf && *neg_inf) {
            return f64::NAN;
        } else if *pos_inf {
            return f64::INFINITY;
        } else if *neg_inf {
            return f64::NEG_INFINITY;
        }
        // The largest nonzero partial outweighs all below it together.
        let top = |partials: &[f64]| partials.iter().rev().copied().find(|p| *p != 0.0);
        let total = match top(large) {
            None => round(small),
            // Unscaled, the large partials stay below 2¹⁰²²: they join the
            // small ones, exactly.
            Some(t) if t.abs() <= pow2(1022 - SCALE) => {
                let mut all = small.clone();
                for &p in large {
                    grow(&mut all, p * pow2(SCALE));
                }
                round(&all)
            }
            // Round the large ones where they are. What that left over is
            // exact and, unscaled, below 2⁹⁷¹: it joins the small ones, and
            // the two together move the result at most to a neighbour,
            // ties to even. Scaled back up, it overflows to ±∞ when it
            // should.
            Some(_) => {
                let hi = round(large);
                let mut rest = small.clone();
                let mut left_over = large.clone();
                grow(&mut left_over, -hi);
                for &p in &left_over {
                    grow(&mut rest, p * pow2(SCALE));
                }
                // Whether `rest` reaches past half the way to `next`, or
                // to exactly half with `next` the even one.
                let moves_to = |next: f64| {
                    let mut past = rest.clone();
                    grow(&mut past, (hi - next) * pow2(SCALE - 1));
                    let past = round(&past) * (next - hi).signum();
                    past > 0.0 || (past == 0.0 && next.to_bits() & 1 == 0)
                };
                // Its neighbours: one step away from zero, one toward it.
                let settled = [hi.to_bits() + 1, hi.to_bits() - 1]
                    .map(f64::from_bits)
                    .into_iter()
                    .find(|&next| moves_to(next))
                    .unwrap_or(hi);
                settled * pow2(SCALE)
            }
        };
        // Exact zero is +0.0.
        total + 0.0
    }
}

fn type_error(expected: DataType, found: DataType) -> AlgebraError {
    AlgebraError::from(RelationError::TypeError { expected, found })
}

/// `2^k`, for `−1022 ≤ k ≤ 1023`.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((1023 + k) as u64) << 52)
}

/// Adds `x` to the expansion `partials` (non-overlapping, increasing in
/// magnitude, zero only at the top), keeping it exact.
fn grow(partials: &mut Vec<f64>, mut x: f64) {
    if x == 0.0 {
        return;
    }
    let mut kept = 0;
    for j in 0..partials.len() {
        let mut y = partials[j];
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        let hi = x + y;
        let lo = y - (hi - x);
        if lo != 0.0 {
            partials[kept] = lo;
            kept += 1;
        }
        x = hi;
    }
    partials.truncate(kept);
    partials.push(x);
}

/// The expansion `partials` rounded once to the nearest double, ties to
/// even: the top partials added until the addition is inexact, then the
/// half-way case settled by the sign of what lies below.
fn round(partials: &[f64]) -> f64 {
    let Some((&top, rest)) = partials.split_last() else {
        return 0.0;
    };
    let (mut hi, mut lo) = (top, 0.0);
    let mut n = rest.len();
    while n > 0 {
        let x = hi;
        n -= 1;
        let y = partials[n];
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_sum(values: &[(f64, u64)]) -> f64 {
        let mut s = ExpansionSum::new(DataType::Double).unwrap();
        for &(v, n) in values {
            s.add(&Value::Double(v), n).unwrap();
        }
        match s.sum() {
            Value::Double(d) => d,
            other => panic!("{other}"),
        }
    }

    #[test]
    fn sums_are_exact_and_rounded_once() {
        assert_eq!(double_sum(&[(1e16, 1), (1.0, 1), (-1e16, 1)]), 1.0);
        assert_eq!(double_sum(&[(0.1, 1), (0.2, 1), (0.3, 1)]), 0.6);
        assert_eq!(double_sum(&[(0.1, 3)]), 0.30000000000000004);
        assert_eq!(double_sum(&[(0.1, 10)]), 1.0);
        assert_eq!(double_sum(&[(1.0, 1), (f64::EPSILON / 2.0, 1)]), 1.0);
        let above = [(1.0, 1), (f64::EPSILON / 2.0, 1), (1e-300, 1)];
        assert_eq!(double_sum(&above), 1.0 + f64::EPSILON);
        // A tie in the large part, even — unless the small part breaks it.
        let (big, half_ulp) = (pow2(1023), pow2(970));
        assert_eq!(double_sum(&[(big, 1), (half_ulp, 1)]), big);
        let broken = [(big, 1), (half_ulp, 1), (1e-300, 1)];
        assert_eq!(double_sum(&broken), big + 2.0 * half_ulp);
        let below = [(big, 1), (half_ulp, 1), (-1e-300, 1)];
        assert_eq!(double_sum(&below), big);
        // Just under the tie in the large part, and over it once the small
        // part is added: more than a tie-breaker.
        let under_tie = |n| [(big, 1), (half_ulp, 1), (-pow2(-790), 1), (pow2(-801), n)];
        assert_eq!(double_sum(&under_tie(1 << 20)), big + 2.0 * half_ulp);
        assert_eq!(double_sum(&under_tie(1 << 5)), big);
        // Halfway below a power of two, where the step down is half the
        // step up.
        let down = [(big, 1), (-pow2(969), 1)];
        assert_eq!(double_sum(&down), big);
        let past = [(big, 1), (-pow2(969), 1), (-pow2(-900), 1)];
        assert_eq!(double_sum(&past), big.next_down());
    }

    #[test]
    fn the_edges_follow_the_rules() {
        assert_eq!(double_sum(&[(-0.0, 2)]).to_bits(), 0.0f64.to_bits());
        assert_eq!(double_sum(&[(1e308, 2)]), f64::INFINITY);
        assert_eq!(double_sum(&[(1e308, 2), (-1e308, 1)]), 1e308);
        assert_eq!(
            double_sum(&[(-f64::MAX, 1), (-f64::MAX, 1)]),
            f64::NEG_INFINITY
        );
        assert!(double_sum(&[(f64::INFINITY, 1), (f64::NEG_INFINITY, 1)]).is_nan());
        assert!(double_sum(&[(f64::NAN, 1), (2.0, 1)]).is_nan());
        assert_eq!(
            double_sum(&[(f64::INFINITY, 1), (-1e308, 3)]),
            f64::INFINITY
        );
        let tiny = f64::from_bits(1);
        assert_eq!(double_sum(&[(tiny, u64::MAX)]), tiny * u64::MAX as f64);
        assert_eq!(double_sum(&[(f64::MAX, 1)]), f64::MAX);
    }

    #[test]
    fn ints_wrap_and_average_exactly() {
        let mut s = ExpansionSum::new(DataType::Int).unwrap();
        s.add(&Value::Int(i64::MAX), 3).unwrap();
        let wrapped = i64::MAX.wrapping_mul(3);
        assert_eq!(s.sum(), Value::Int(wrapped));
        assert_eq!(s.mean(3), Value::Double(i64::MAX as f64));
        assert!(s.add(&Value::Double(1.0), 1).is_err());
        let mut d = ExpansionSum::new(DataType::Double).unwrap();
        d.add(&Value::Int(-(1 << 60) - 1), 1).unwrap();
        assert_eq!(d.sum(), Value::Double(-(2f64.powi(60))));
        assert!(ExpansionSum::new(DataType::Str).is_err());
    }
}
