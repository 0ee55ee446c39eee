//! Changes flowing from data sources to the warehouse.
//!
//! The paper assumes insertions, deletions and updates of base tables
//! (Section 2.1). Updates that can change attributes involved in selection or
//! join conditions are *exposed* and are propagated as a deletion followed by
//! an insertion; whether an update is exposed depends on the *view*, so the
//! classification itself lives in `md-core`. This module only models the raw
//! change stream.

use std::fmt;

use crate::row::Row;

/// A single change to one base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change {
    /// Insert a new row.
    Insert(Row),
    /// Delete an existing row, identified by its key value; the full old row
    /// is carried so downstream consumers never need to query the source.
    Delete(Row),
    /// Update an existing row in place (same key). Carries old and new
    /// images; consumers that treat updates as delete+insert can split it.
    Update {
        /// The row before the update.
        old: Row,
        /// The row after the update.
        new: Row,
    },
}

impl Change {
    /// Splits this change into its delete/insert components:
    /// `(deleted row, inserted row)`.
    pub fn as_delete_insert(&self) -> (Option<&Row>, Option<&Row>) {
        match self {
            Change::Insert(r) => (None, Some(r)),
            Change::Delete(r) => (Some(r), None),
            Change::Update { old, new } => (Some(old), Some(new)),
        }
    }
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Change::Insert(r) => write!(f, "+{r}"),
            Change::Delete(r) => write!(f, "-{r}"),
            Change::Update { old, new } => write!(f, "{old} -> {new}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn change_splits_into_delete_insert() {
        let u = Change::Update {
            old: row![1, "a"],
            new: row![1, "b"],
        };
        let (d, i) = u.as_delete_insert();
        assert_eq!(d, Some(&row![1, "a"]));
        assert_eq!(i, Some(&row![1, "b"]));
    }
}
