//! Exposed-update analysis — paper Section 2.1.
//!
//! "We say that a base table `Rᵢ` has *exposed updates* if updates can
//! change values of attributes involved in selection or join conditions."
//!
//! Whether updates *can* change an attribute is given by the table's update
//! contract ([`md_relation::TableDef::updatable_columns`]); which attributes
//! are involved in conditions depends on the view. Exposed updates are
//! propagated as deletions followed by insertions, and their possibility
//! disables join reductions against the table (Section 2.2): the join
//! graph reads [`exposed_columns`] when it classifies an edge into it.

use std::collections::BTreeSet;

use md_algebra::GpsjView;
use md_relation::{Catalog, TableId};

use crate::error::Result;

/// Returns the columns of `table` that are both updatable under the table's
/// contract and involved in selection or join conditions of `view` — the
/// *exposed columns*.
pub fn exposed_columns(
    view: &GpsjView,
    catalog: &Catalog,
    table: TableId,
) -> Result<BTreeSet<usize>> {
    let def = catalog.def(table)?;
    let condition_cols = view.condition_columns(table);
    Ok(def
        .updatable_columns
        .intersection(&condition_cols)
        .copied()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{Aggregate, CmpOp, ColRef, Condition, SelectItem};
    use md_relation::{DataType, Schema};

    fn setup() -> (Catalog, TableId, TableId, GpsjView) {
        let mut cat = Catalog::new();
        let time = cat
            .add_table(
                "time",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("month", DataType::Int),
                    ("year", DataType::Int),
                ]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, time).unwrap();
        let view = GpsjView::new(
            "v",
            vec![sale, time],
            vec![
                SelectItem::group_by(ColRef::new(time, 1), "month"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
            ],
        );
        (cat, time, sale, view)
    }

    #[test]
    fn default_contract_exposes_condition_columns() {
        let (cat, time, sale, view) = setup();
        // time.year is a condition column and updatable by default.
        assert_eq!(
            exposed_columns(&view, &cat, time).unwrap(),
            BTreeSet::from([2])
        );
        // sale.timeid is a condition column and updatable by default.
        assert_eq!(
            exposed_columns(&view, &cat, sale).unwrap(),
            BTreeSet::from([1])
        );
    }

    #[test]
    fn tightened_contract_removes_exposure() {
        let (mut cat, time, sale, view) = setup();
        // Declare time rows immutable and sale updates restricted to price.
        cat.set_append_only(time).unwrap();
        cat.set_updatable_columns(sale, &[2]).unwrap();
        assert!(exposed_columns(&view, &cat, time).unwrap().is_empty());
        assert!(exposed_columns(&view, &cat, sale).unwrap().is_empty());
    }

    #[test]
    fn updatable_non_condition_column_is_not_exposed() {
        let (mut cat, time, _, view) = setup();
        // Only `month` (a preserved, non-condition column) may change.
        cat.set_updatable_columns(time, &[1]).unwrap();
        assert!(exposed_columns(&view, &cat, time).unwrap().is_empty());
    }
}
