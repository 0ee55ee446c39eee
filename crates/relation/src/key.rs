//! Group keys held in place.
//!
//! A map keyed by [`Row`] holds a pointer to a heap block of values in
//! each bucket, so every probe and every scan of the map pays a load past
//! the bucket. A [`GroupKey`] holds a key of one or two values in the
//! bucket itself — every key of an auxiliary view or a summary the
//! benchmark workloads build is one — and a key of any other length in
//! one boxed slice (an empty one allocates nothing). It stands in for the
//! [`Row`] with the same values everywhere a map looks: it hashes,
//! compares, orders and prints exactly as that row does, and it borrows
//! as `dyn RowKey`, so a map keyed by it is probed with values borrowed
//! from wherever they live, as a map keyed by rows is.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

use crate::row::{Row, RowKey};
use crate::value::Value;

/// A group key: the values of a [`Row`], held in place up to two.
#[derive(Clone)]
pub struct GroupKey(Repr);

#[derive(Clone)]
enum Repr {
    One([Value; 1]),
    Two([Value; 2]),
    /// Any other length, zero included.
    Spilled(Box<[Value]>),
}

impl GroupKey {
    /// The key holding the values `values` yields, which must say how
    /// many it yields: a key of one or two values never touches the heap.
    pub(crate) fn from_values(mut values: impl ExactSizeIterator<Item = Value>) -> Self {
        let arity = values.len();
        let next = || Ok::<_, Infallible>(values.next().expect("as many values as announced"));
        match GroupKey::try_from_fn(arity, next) {
            Ok(key) => key,
        }
    }

    /// The key of `arity` values, each the next `next` returns, in place
    /// from the first: the first error ends the key.
    pub(crate) fn try_from_fn<E>(
        arity: usize,
        mut next: impl FnMut() -> Result<Value, E>,
    ) -> Result<Self, E> {
        Ok(GroupKey(match arity {
            1 => Repr::One([next()?]),
            2 => Repr::Two([next()?, next()?]),
            _ => Repr::Spilled((0..arity).map(|_| next()).collect::<Result<_, E>>()?),
        }))
    }

    /// The key holding the values `key` reads.
    pub fn of(key: &dyn RowKey) -> Self {
        GroupKey::from_values((0..key.arity()).map(|i| key.value(i).clone()))
    }

    /// The values, in key order.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::One(values) => values,
            Repr::Two(values) => values,
            Repr::Spilled(values) => values,
        }
    }
}

impl RowKey for GroupKey {
    fn arity(&self) -> usize {
        self.values().len()
    }

    fn value(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }
}

impl<'a> Borrow<dyn RowKey + 'a> for GroupKey {
    fn borrow(&self) -> &(dyn RowKey + 'a) {
        self
    }
}

/// `dyn RowKey`'s hash — and so [`Row`]'s: `Borrow` requires a key and
/// its borrowed form to hash alike.
impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let key: &dyn RowKey = self;
        key.hash(state);
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for GroupKey {}

impl PartialEq<Row> for GroupKey {
    fn eq(&self, other: &Row) -> bool {
        self.values() == other.values()
    }
}

impl PartialEq<GroupKey> for Row {
    fn eq(&self, other: &GroupKey) -> bool {
        self.values() == other.values()
    }
}

/// [`Row`]'s order: value by value, a proper prefix first.
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Index<usize> for GroupKey {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }
}

impl From<Row> for GroupKey {
    fn from(row: Row) -> Self {
        GroupKey::from_values(row.into_values().into_iter())
    }
}

impl fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

/// [`Row`]'s rendering: `(v₁, v₂, …)`.
impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn one_or_two_values_sit_in_place_and_more_spill() {
        assert!(matches!(GroupKey::from(row![1]).0, Repr::One(_)));
        assert!(matches!(GroupKey::from(row![1, "a"]).0, Repr::Two(_)));
        assert!(matches!(GroupKey::from(row![1, 2, 3]).0, Repr::Spilled(_)));
        assert_eq!(GroupKey::from(row![]).arity(), 0);
        // Two values and a pointer-sized tag fit the bucket of two values.
        assert_eq!(
            std::mem::size_of::<GroupKey>(),
            2 * std::mem::size_of::<Value>()
        );
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use crate::hash::{SeededBuildHasher, SeededHashMap};
    use proptest::prelude::*;
    use std::hash::BuildHasher;

    /// All four types: ±0.0, NaNs of several payloads, ±∞, strings past
    /// eight bytes (where a hash or a prefix could stop short) and empty.
    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-3..3i64).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            (0..5usize).prop_map(|i| {
                let doubles = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY];
                Value::Double(doubles[i])
            }),
            any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))),
            "[ab]{0,3}".prop_map(Value::Str),
            "[a-z0-9]{9,20}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn tuple() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(value_strategy(), 0..5)
    }

    proptest! {
        /// A key and the equal row are one key to every map: equal
        /// hashes under one hasher, the same comparisons with any other
        /// tuple, the same rendering.
        #[test]
        fn a_key_is_its_row_to_every_map(a in tuple(), b in tuple()) {
            let hasher = SeededBuildHasher::default();
            let (row_a, row_b) = (Row::new(a.clone()), Row::new(b.clone()));
            let (key_a, key_b) = (GroupKey::from(row_a.clone()), GroupKey::from(row_b.clone()));
            prop_assert_eq!(hasher.hash_one(&key_a), hasher.hash_one(&row_a));
            let borrowed: &dyn RowKey = &key_a;
            prop_assert_eq!(hasher.hash_one(borrowed), hasher.hash_one(&row_a));
            prop_assert_eq!(key_a == key_b, row_a == row_b);
            prop_assert_eq!(key_a.cmp(&key_b), row_a.cmp(&row_b));
            prop_assert_eq!(key_a.partial_cmp(&key_b), row_a.partial_cmp(&row_b));
            // Both ways round: `GroupKey == Row` and `Row == GroupKey`.
            prop_assert!(key_a == row_a);
            prop_assert!(row_a == key_a);
            prop_assert_eq!(key_a.to_string(), row_a.to_string());
            prop_assert_eq!(key_a.to_row(), row_a.clone());
            prop_assert_eq!(GroupKey::of(&row_a), key_a.clone());
        }

        /// A map keyed by keys is found by values borrowed from a wider
        /// row, in any order, and misses a shorter or a longer probe.
        #[test]
        fn a_map_of_keys_is_probed_with_borrowed_values(
            a in tuple(),
            extra in value_strategy(),
        ) {
            let mut map: SeededHashMap<GroupKey, usize> = SeededHashMap::default();
            map.insert(GroupKey::from(Row::new(a.clone())), 7);
            // The key's values, reversed, behind one more value.
            let wide: Vec<Value> = std::iter::once(extra.clone())
                .chain(a.iter().rev().cloned())
                .collect();
            let seen: Vec<&Value> = (0..a.len()).map(|i| &wide[wide.len() - 1 - i]).collect();
            let probe: &dyn RowKey = &seen.as_slice();
            prop_assert_eq!(map.get(probe), Some(&7));
            let row = Row::new(a.clone());
            prop_assert_eq!(map.get(&row as &dyn RowKey), Some(&7));
            let longer = Row::new(a.iter().cloned().chain([extra]).collect());
            prop_assert_eq!(map.get(&longer as &dyn RowKey), None);
            if !a.is_empty() {
                let shorter: &dyn RowKey = &&seen[..a.len() - 1];
                prop_assert_eq!(map.get(shorter), None);
            }
        }
    }
}
