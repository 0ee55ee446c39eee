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
        ChangeRef::from(self).as_delete_insert()
    }
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ChangeRef::from(self).fmt(f)
    }
}

/// A [`Change`] whose rows are borrowed: how a batch's coalesced changes
/// are lent to the door, the folds and the change log, so that no row is
/// cloned on the way from the submitted batch to the summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeRef<'a> {
    /// Insert a new row.
    Insert(&'a Row),
    /// Delete an existing row.
    Delete(&'a Row),
    /// Update an existing row in place.
    Update {
        /// The row before the update.
        old: &'a Row,
        /// The row after the update.
        new: &'a Row,
    },
}

impl<'a> ChangeRef<'a> {
    /// `(deleted row, inserted row)`, as [`Change::as_delete_insert`].
    pub fn as_delete_insert(self) -> (Option<&'a Row>, Option<&'a Row>) {
        match self {
            ChangeRef::Insert(r) => (None, Some(r)),
            ChangeRef::Delete(r) => (Some(r), None),
            ChangeRef::Update { old, new } => (Some(old), Some(new)),
        }
    }

    /// The change with its rows cloned.
    pub fn to_change(self) -> Change {
        match self {
            ChangeRef::Insert(r) => Change::Insert(r.clone()),
            ChangeRef::Delete(r) => Change::Delete(r.clone()),
            ChangeRef::Update { old, new } => Change::Update {
                old: old.clone(),
                new: new.clone(),
            },
        }
    }
}

impl<'a> From<&'a Change> for ChangeRef<'a> {
    fn from(change: &'a Change) -> Self {
        match change {
            Change::Insert(r) => ChangeRef::Insert(r),
            Change::Delete(r) => ChangeRef::Delete(r),
            Change::Update { old, new } => ChangeRef::Update { old, new },
        }
    }
}

impl<'a> From<&ChangeRef<'a>> for ChangeRef<'a> {
    fn from(change: &ChangeRef<'a>) -> Self {
        *change
    }
}

impl PartialEq<Change> for ChangeRef<'_> {
    fn eq(&self, other: &Change) -> bool {
        *self == ChangeRef::from(other)
    }
}

impl fmt::Display for ChangeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeRef::Insert(r) => write!(f, "+{r}"),
            ChangeRef::Delete(r) => write!(f, "-{r}"),
            ChangeRef::Update { old, new } => write!(f, "{old} -> {new}"),
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

    #[test]
    fn a_borrowed_change_is_its_change() {
        let changes = [
            Change::Insert(row![1, "a"]),
            Change::Delete(row![2]),
            Change::Update {
                old: row![1, "a"],
                new: row![1, "b"],
            },
        ];
        for change in &changes {
            let lent = ChangeRef::from(change);
            assert_eq!(lent, *change);
            assert_eq!(lent.to_change(), *change);
            assert_eq!(lent.as_delete_insert(), change.as_delete_insert());
            assert_eq!(lent.to_string(), change.to_string());
        }
        assert_ne!(ChangeRef::from(&changes[0]), changes[1]);
    }
}
