//! Typed values stored in relations.
//!
//! The paper assumes base tables contain no null values (Section 2.1), so
//! [`Value`] has no null variant; operations that would produce an undefined
//! result return a [`TypeError`](crate::RelationError::TypeError)
//! instead.
//!
//! `Value` implements total `Eq`/`Ord`/`Hash` — including for doubles, which
//! are compared with [`f64::total_cmp`] and hashed by their bit pattern — so
//! values can serve as hash-map keys for group-by processing and key indexes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{RelationError, Result};

/// The data types supported by the engine.
///
/// This is deliberately a small set: the paper's examples use integers
/// (surrogate keys, counts), floating point measures (prices) and strings
/// (dimension attributes such as `brand` or `city`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point.
    Double,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Returns `true` for types on which `SUM`/`AVG` are defined.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Double)
    }

    /// Human-readable name, used in error messages and SQL rendering.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOLEAN",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Compared with total order, hashed by bits.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Double(_) => DataType::Double,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the integer payload, or a type error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(RelationError::TypeError {
                expected: DataType::Int,
                found: other.data_type(),
            }),
        }
    }

    /// Returns the float payload, coercing integers, or a type error.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Double(d) => Ok(*d),
            Value::Int(i) => Ok(*i as f64),
            other => Err(RelationError::TypeError {
                expected: DataType::Double,
                found: other.data_type(),
            }),
        }
    }

    /// Comparison that fails on cross-type comparisons between
    /// non-numeric types instead of silently ordering by variant.
    ///
    /// Doubles compare NaN-last: every NaN orders after every number (NaNs
    /// among themselves by [`f64::total_cmp`]), so `MIN`/`MAX` folds treat NaN as the
    /// largest value regardless of its sign bit. Under plain
    /// [`f64::total_cmp`] a negative NaN sorts *below* `-inf`.
    pub fn try_cmp(&self, other: &Value) -> Result<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            (a, b) if a.data_type().is_numeric() && b.data_type().is_numeric() => {
                Ok(total_cmp_nan_last(a.as_double()?, b.as_double()?))
            }
            (a, b) => Err(RelationError::Incomparable {
                left: a.data_type(),
                right: b.data_type(),
            }),
        }
    }

    /// The number of bytes the paper's storage model charges for one field.
    ///
    /// The Section 1.1 size computation charges a flat 4 bytes per field
    /// ("5 fields × 4 bytes"); we reproduce that model here so that our
    /// analytic sizes match the paper's arithmetic exactly.
    pub const PAPER_FIELD_BYTES: u64 = 4;
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: values of the same type order naturally (doubles via
    /// `total_cmp`), and heterogeneous values order by type tag. The
    /// heterogeneous branch exists only so rows can be sorted
    /// deterministically in test output; query evaluation uses
    /// [`Value::try_cmp`], which rejects it.
    fn cmp(&self, other: &Self) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) => 1,
                Value::Double(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => total_cmp_nan_last(*a, *b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

/// Total order over `f64` with *every* NaN ordered after every number:
/// `-inf < … < +inf < NaN` (NaNs among themselves order by
/// [`f64::total_cmp`], keeping the order total and [`Value`]'s bitwise
/// equality consistent). This is the comparison behind [`Value::try_cmp`]
/// and [`Value`]'s `Ord`, hence behind every condition and every
/// `MIN`/`MAX`.
pub(crate) fn total_cmp_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) | (true, true) => a.total_cmp(&b),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// A value writes its type tag and its payload — a string, its length —
/// as one `u128`, tag in the high half, so that a hasher that takes a
/// `u128` in one round (md-relation's `SeededHasher`) spends one round on
/// a number; a string's bytes follow its length.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let tagged = |tag: u8, payload: u64| (u128::from(tag) << 64) | u128::from(payload);
        match self {
            Value::Int(i) => state.write_u128(tagged(0, *i as u64)),
            Value::Double(d) => state.write_u128(tagged(1, d.to_bits())),
            Value::Str(s) => {
                state.write_u128(tagged(2, s.len() as u64));
                state.write(s.as_bytes());
            }
            Value::Bool(b) => state.write_u128(tagged(3, u64::from(*b))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                // Keep doubles lexically distinguishable from integers so
                // SQL rendering round-trips: `1.0` must not print as `1`.
                if d.is_finite() && d.fract() == 0.0 && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_types_of_values() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::Double(1.0).data_type(), DataType::Double);
        assert_eq!(Value::str("x").data_type(), DataType::Str);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
    }

    #[test]
    fn try_cmp_same_type() {
        assert_eq!(
            Value::Int(1).try_cmp(&Value::Int(2)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            Value::str("b").try_cmp(&Value::str("a")).unwrap(),
            Ordering::Greater
        );
    }

    #[test]
    fn try_cmp_numeric_cross_type() {
        assert_eq!(
            Value::Int(2).try_cmp(&Value::Double(2.0)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Double(1.5).try_cmp(&Value::Int(2)).unwrap(),
            Ordering::Less
        );
    }

    #[test]
    fn try_cmp_rejects_incomparable() {
        assert!(Value::str("a").try_cmp(&Value::Int(1)).is_err());
        assert!(Value::Bool(true).try_cmp(&Value::Double(0.0)).is_err());
    }

    #[test]
    fn double_equality_is_bitwise() {
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
    }

    #[test]
    fn nan_orders_after_every_number() {
        // Regression pin for the NaN-last total order: under raw
        // `f64::total_cmp` a negative NaN sorts *below* -inf, which made a
        // MIN fold report NaN as the minimum of {-inf, -NaN}. Every NaN
        // must order after every number, so MIN({1.0, NaN}) = 1.0 and
        // MAX({1.0, NaN}) = NaN, in both engines.
        let nan = Value::Double(f64::NAN);
        let neg_nan = Value::Double(-f64::NAN);
        assert_eq!(
            nan.try_cmp(&Value::Double(f64::INFINITY)).unwrap(),
            Ordering::Greater
        );
        assert_eq!(
            neg_nan.try_cmp(&Value::Double(f64::NEG_INFINITY)).unwrap(),
            Ordering::Greater
        );
        assert_eq!(nan.try_cmp(&Value::Int(1)).unwrap(), Ordering::Greater);
        assert_eq!(Value::Double(1.0).try_cmp(&nan).unwrap(), Ordering::Less);
        assert_eq!(
            total_cmp_nan_last(-f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );

        // A MIN/MAX fold via try_cmp lands on 1.0 / NaN respectively.
        let vals = [Value::Double(1.0), Value::Double(f64::NAN)];
        let min = vals
            .iter()
            .cloned()
            .reduce(|a, b| {
                if b.try_cmp(&a).unwrap() == Ordering::Less {
                    b
                } else {
                    a
                }
            })
            .unwrap();
        let max = vals
            .iter()
            .cloned()
            .reduce(|a, b| {
                if b.try_cmp(&a).unwrap() == Ordering::Greater {
                    b
                } else {
                    a
                }
            })
            .unwrap();
        assert_eq!(min, Value::Double(1.0));
        assert!(matches!(max, Value::Double(d) if d.is_nan()));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::Double(3.25);
        let b = Value::Double(3.25);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&Value::str("abc")), hash_of(&Value::str("abc")));
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = vec![
            Value::str("z"),
            Value::Int(5),
            Value::Double(2.5),
            Value::Bool(false),
            Value::Int(-1),
        ];
        vals.sort();
        // Bool < Int < Double < Str by tag; ints ordered among themselves.
        assert_eq!(
            vals,
            vec![
                Value::Bool(false),
                Value::Int(-1),
                Value::Int(5),
                Value::Double(2.5),
                Value::str("z"),
            ]
        );
    }

    #[test]
    fn display_rendering() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Double(1.0).to_string(), "1.0");
        assert_eq!(Value::Double(2.5).to_string(), "2.5");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Double(2.5));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn paper_field_bytes_matches_paper_model() {
        // Section 1.1: "5 fields × 4 bytes".
        assert_eq!(Value::PAPER_FIELD_BYTES, 4);
    }
}
