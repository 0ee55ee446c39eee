//! Rows (tuples) of values.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

use crate::value::Value;

/// A tuple of values, ordered according to some [`Schema`](crate::Schema).
///
/// Rows are plain value vectors with helpers for projection and display.
/// They implement `Eq + Hash + Ord` (inherited from [`Value`]'s total
/// order) so they can be used as hash keys for group-by processing and as
/// sortable test fixtures.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Row(Vec<Value>);

/// A sequence of values that can stand in for the [`Row`] holding the same
/// values as a map key: `dyn RowKey` hashes and compares exactly as that
/// row does, and `Row: Borrow<dyn RowKey>`, so a map keyed by rows is
/// probed with values borrowed from wherever they live — a projection of
/// a wider row, a dimension chain — and a `Row` is built only when the
/// map has to keep one ([`RowKey::to_row`]).
pub trait RowKey {
    /// Number of values in the key.
    fn arity(&self) -> usize;

    /// The value at `idx` (`idx < arity()`).
    fn value(&self, idx: usize) -> &Value;

    /// The key as an owned row.
    fn to_row(&self) -> Row {
        (0..self.arity()).map(|i| self.value(i).clone()).collect()
    }
}

impl RowKey for Row {
    fn arity(&self) -> usize {
        self.0.len()
    }

    fn value(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl RowKey for &[Value] {
    fn arity(&self) -> usize {
        self.len()
    }

    fn value(&self, idx: usize) -> &Value {
        &self[idx]
    }
}

impl RowKey for &[&Value] {
    fn arity(&self) -> usize {
        self.len()
    }

    fn value(&self, idx: usize) -> &Value {
        self[idx]
    }
}

impl Hash for dyn RowKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.arity());
        for i in 0..self.arity() {
            self.value(i).hash(state);
        }
    }
}

impl PartialEq for dyn RowKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && (0..self.arity()).all(|i| self.value(i) == other.value(i))
    }
}

impl Eq for dyn RowKey + '_ {}

impl<'a> Borrow<dyn RowKey + 'a> for Row {
    fn borrow(&self) -> &(dyn RowKey + 'a) {
        self
    }
}

/// The one definition `dyn RowKey` shares: `Borrow` requires a row and its
/// borrowed form to hash alike.
impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let key: &dyn RowKey = self;
        key.hash(state);
    }
}

impl Row {
    /// Creates a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    /// Number of values in the row.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Borrow the underlying values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Consume the row, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// A new row containing the values at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }
}

impl Index<usize> for Row {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds a [`Row`] from a heterogeneous list of expressions convertible
/// into [`Value`].
///
/// ```
/// use md_relation::row;
/// let r = row![1, 2.5, "brand-a"];
/// assert_eq!(r.arity(), 3);
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_builds_typed_values() {
        let r = row![1, 2.0, "x", true];
        assert_eq!(&r[0], &Value::Int(1));
        assert_eq!(&r[1], &Value::Double(2.0));
        assert_eq!(&r[2], &Value::str("x"));
        assert_eq!(&r[3], &Value::Bool(true));
    }

    #[test]
    fn projection_reorders() {
        let r = row![10, 20, 30];
        assert_eq!(r.project(&[2, 0]), row![30, 10]);
    }

    #[test]
    fn index_operator() {
        let r = row![5, 6];
        assert_eq!(r[1], Value::Int(6));
    }

    #[test]
    fn rows_usable_as_hash_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<Row, u64> = HashMap::new();
        *m.entry(row![1, "a"]).or_insert(0) += 1;
        *m.entry(row![1, "a"]).or_insert(0) += 1;
        assert_eq!(m[&row![1, "a"]], 2);
    }

    #[test]
    fn a_map_keyed_by_rows_is_probed_with_borrowed_values() {
        use std::collections::HashMap;
        let mut m: HashMap<Row, u64> = HashMap::new();
        m.insert(row![7, "acme", 2.5], 1);
        let wide = row!["x", 2.5, 7, "acme"];
        let seen: Vec<&Value> = vec![&wide[2], &wide[3], &wide[1]];
        let key: &dyn RowKey = &seen.as_slice();
        assert_eq!(m.get(key), Some(&1));
        assert_eq!(key.to_row(), row![7, "acme", 2.5]);
        let owned = [Value::Int(7), Value::str("acme")];
        let short: &dyn RowKey = &owned.as_slice();
        assert_eq!(m.get(short), None);
        *m.get_mut(key).unwrap() += 1;
        assert_eq!(m[&row![7, "acme", 2.5]], 2);
    }

    #[test]
    fn display_renders_tuple() {
        assert_eq!(row![1, "a"].to_string(), "(1, 'a')");
    }

    #[test]
    fn from_iterator_collects() {
        let r: Row = (0..3).map(Value::Int).collect();
        assert_eq!(r, row![0, 1, 2]);
    }
}
