//! Reconstruction plans: how to compute the summary view `V` from its
//! auxiliary views `X` alone — paper Sections 1.1 ("the `product_sales`
//! view can now be reconstructed from these three auxiliary views without
//! ever accessing the original fact and dimension tables") and 3.2
//! ("Maintenance Issues under Duplicate Compression").
//!
//! The reconstruction rules in the presence of compressed duplicates:
//!
//! * `COUNT(*)` in `V` → `SUM(cnt₀)` (sum of the root view's counts);
//! * a CSMAS over an attribute that is itself maintained by a SUM in the
//!   root auxiliary view → sum the pre-aggregated column;
//! * a CSMAS over a *raw* attribute (kept because it also feeds a
//!   non-CSMAS, or lives on a non-root table) → `f(a · cnt₀)`;
//! * `MIN`/`MAX` and `DISTINCT` aggregates ignore duplicates and are
//!   recomputed directly from the raw columns.

use md_algebra::AggFunc;
use md_relation::TableId;

/// A join between two auxiliary views, mirroring one edge of the extended
/// join graph: `from_aux[from_aux_col] = to_aux[to_aux_col]` where the
/// right-hand column holds the key of `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxJoin {
    /// Referencing auxiliary view's base table.
    pub from: TableId,
    /// Column index (in the auxiliary view) of the foreign key on `from`.
    pub from_aux_col: usize,
    /// Referenced auxiliary view's base table.
    pub to: TableId,
    /// Column index (in the auxiliary view) of the key on `to`.
    pub to_aux_col: usize,
}

/// Where a summed quantity comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumSource {
    /// A pre-aggregated `SUM(a)` column of the root auxiliary view — add
    /// the stored partial sums directly (distributivity).
    PreSummed {
        /// The auxiliary view's base table (always the root).
        table: TableId,
        /// Column index within that auxiliary view.
        aux_col: usize,
    },
    /// A raw attribute column — each joined tuple contributes
    /// `a · cnt₀` (the paper's multiplication rule).
    Raw {
        /// The auxiliary view's base table.
        table: TableId,
        /// Column index within that auxiliary view.
        aux_col: usize,
    },
}

/// One output item of the reconstruction, parallel to the view's select
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconItem {
    /// A group-by attribute read from an auxiliary view.
    Group {
        /// The auxiliary view's base table.
        table: TableId,
        /// Column index within that auxiliary view.
        aux_col: usize,
    },
    /// `COUNT(*)` (and `COUNT(a)` after the Table 2 rewrite): `Σ cnt₀`.
    Count,
    /// `SUM(a)`.
    Sum(SumSource),
    /// `AVG(a)`: the sum from `source` divided by `Σ cnt₀`.
    Avg(SumSource),
    /// `MIN(a)`/`MAX(a)`: duplicate-insensitive, read from a raw column.
    MinMax {
        /// Which extremum.
        func: AggFunc,
        /// The auxiliary view's base table.
        table: TableId,
        /// Raw column index within that auxiliary view.
        aux_col: usize,
    },
    /// `COUNT/SUM/AVG(DISTINCT a)`: duplicate-insensitive, read from a raw
    /// column.
    Distinct {
        /// The underlying aggregate function.
        func: AggFunc,
        /// The auxiliary view's base table.
        table: TableId,
        /// Raw column index within that auxiliary view.
        aux_col: usize,
    },
}

/// A full reconstruction plan for a view whose root auxiliary view is
/// materialized.
#[derive(Debug, Clone)]
pub struct ReconstructionPlan {
    /// The root table (iteration starts from its auxiliary view).
    pub root: TableId,
    /// Output items, parallel to the view's select list.
    pub items: Vec<ReconItem>,
    /// Joins from each auxiliary view to the auxiliary views of its
    /// children in the extended join graph.
    pub joins: Vec<AuxJoin>,
    /// Column index of `cnt₀` in the root auxiliary view; `None` when the
    /// root degenerated to a PSJ view (every stored tuple then stands for
    /// exactly one base tuple).
    pub root_count_col: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_from_filters_by_source() {
        let plan = ReconstructionPlan {
            root: TableId(0),
            items: vec![ReconItem::Count],
            joins: vec![
                AuxJoin {
                    from: TableId(0),
                    from_aux_col: 0,
                    to: TableId(1),
                    to_aux_col: 0,
                },
                AuxJoin {
                    from: TableId(0),
                    from_aux_col: 1,
                    to: TableId(2),
                    to_aux_col: 0,
                },
                AuxJoin {
                    from: TableId(1),
                    from_aux_col: 1,
                    to: TableId(3),
                    to_aux_col: 0,
                },
            ],
            root_count_col: Some(2),
        };
        let from = |t| plan.joins.iter().filter(|j| j.from == t).count();
        assert_eq!(from(TableId(0)), 2);
        assert_eq!(from(TableId(1)), 1);
    }
}
