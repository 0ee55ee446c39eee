//! Bag (multiset) relations.
//!
//! SQL and the paper's GPSJ algebra operate under *bag semantics*: a
//! selection over a base table, or a join result before generalized
//! projection, may contain duplicate tuples, and the duplicate count is
//! semantically significant (it is exactly what smart duplicate compression
//! aggregates away). [`Bag`] stores each distinct row once with a
//! multiplicity, which is both compact and makes bag equality cheap.

use std::collections::HashMap;
use std::fmt;

use crate::order::sort_by_row;
use crate::row::Row;

/// A multiset of rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bag {
    counts: HashMap<Row, u64>,
    len: u64,
}

impl Bag {
    /// An empty bag.
    pub fn new() -> Self {
        Bag::default()
    }

    /// Builds a bag from an iterator of rows, accumulating duplicates.
    pub fn from_rows<I: IntoIterator<Item = Row>>(rows: I) -> Self {
        let mut bag = Bag::new();
        for r in rows {
            bag.insert(r);
        }
        bag
    }

    /// Total number of rows, counting multiplicities.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when the bag holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Multiplicity of `row` (0 when absent).
    pub fn count(&self, row: &Row) -> u64 {
        self.counts.get(row).copied().unwrap_or(0)
    }

    /// Inserts one occurrence of `row`.
    pub fn insert(&mut self, row: Row) {
        self.insert_n(row, 1);
    }

    /// Inserts `n` occurrences of `row`.
    pub(crate) fn insert_n(&mut self, row: Row, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(row).or_insert(0) += n;
        self.len += n;
    }

    /// Iterates over `(row, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, u64)> {
        self.counts.iter().map(|(r, &c)| (r, c))
    }

    /// All distinct rows sorted — deterministic output for tests and reports.
    pub fn sorted_rows(&self) -> Vec<(Row, u64)> {
        let mut rows: Vec<(Row, u64)> = self.counts.iter().map(|(r, &c)| (r.clone(), c)).collect();
        sort_by_row(&mut rows, |(row, _)| row.values());
        rows
    }
}

impl FromIterator<Row> for Bag {
    fn from_iter<I: IntoIterator<Item = Row>>(iter: I) -> Self {
        Bag::from_rows(iter)
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (row, count) in self.sorted_rows() {
            writeln!(f, "  {row} x{count}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn insert_accumulates_multiplicity() {
        let mut b = Bag::new();
        b.insert(row![1]);
        b.insert(row![1]);
        b.insert(row![2]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.counts.len(), 2);
        assert_eq!(b.count(&row![1]), 2);
    }

    #[test]
    fn insert_n_zero_is_noop() {
        let mut b = Bag::new();
        b.insert_n(row![1], 0);
        assert!(b.is_empty());
        assert_eq!(b.counts.len(), 0);
    }

    #[test]
    fn bag_equality_ignores_insertion_order() {
        let a = Bag::from_rows(vec![row![1], row![2], row![1]]);
        let b = Bag::from_rows(vec![row![2], row![1], row![1]]);
        assert_eq!(a, b);
        let c = Bag::from_rows(vec![row![1], row![2]]);
        assert_ne!(a, c); // multiplicity matters
    }

    #[test]
    fn sorted_rows_is_deterministic() {
        let b = Bag::from_rows(vec![row![3], row![1], row![2], row![1]]);
        let sorted = b.sorted_rows();
        assert_eq!(sorted, vec![(row![1], 2), (row![2], 1), (row![3], 1)]);
    }
}
