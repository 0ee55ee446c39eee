//! Aggregate classification — paper Section 3.1, Tables 1 and 2.
//!
//! * An aggregate `f(aᵢ)` is a **self-maintainable aggregate (SMA)** with
//!   respect to a change kind when its new value can be computed solely from
//!   its old value and the change.
//! * A **self-maintainable aggregate set (SMAS)** is a set of aggregates
//!   jointly maintainable from their old values and the change.
//! * A **completely self-maintainable aggregate set (CSMAS)** (Definition 1)
//!   is self-maintainable for *both* insertions and deletions.
//!
//! Table 2 rewrites each CSMAS-class aggregate into distributive components:
//! `COUNT(a) → COUNT(*)` (no nulls), `SUM(a) → {SUM(a), COUNT(*)}`,
//! `AVG(a) → {SUM(a), COUNT(*)}`. `MIN`/`MAX` are not replaced, and any
//! `DISTINCT` aggregate is non-distributive and therefore non-CSMAS.

use md_algebra::{AggFunc, Aggregate, GpsjView, SelectItem};
use md_relation::{Catalog, TableId};

/// The kind of base-table change, for SMA classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// An insertion (`⊕` in Table 1).
    Insertion,
    /// A deletion (`⊖` in Table 1).
    Deletion,
}

/// Classification of an aggregate per Definition 1 / Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggClass {
    /// Part of a completely self-maintainable aggregate set after the
    /// Table 2 rewrite: `COUNT`, `SUM`, `AVG` without `DISTINCT`.
    Csmas,
    /// Not completely self-maintainable: `MIN`, `MAX`, and every `DISTINCT`
    /// aggregate. Maintaining these may require recomputation from the
    /// auxiliary views.
    NonCsmas,
}

/// Table 1, SMA column: is `f` a self-maintainable aggregate *on its own*
/// with respect to `kind`?
///
/// * `COUNT` — SMA for insertions and deletions (a count can always be
///   adjusted by the number of changed tuples).
/// * `SUM` — SMA for insertions only; under deletions it cannot detect that
///   the group became empty without a count.
/// * `AVG` — not an SMA at all.
/// * `MIN`/`MAX` — SMA for insertions (`min(old, new)`), not for deletions
///   (deleting the current extremum needs the runner-up).
pub fn is_sma(func: AggFunc, kind: ChangeKind) -> bool {
    match (func, kind) {
        (AggFunc::Count, _) => true,
        (AggFunc::Sum, ChangeKind::Insertion) => true,
        (AggFunc::Sum, ChangeKind::Deletion) => false,
        (AggFunc::Avg, _) => false,
        (AggFunc::Min | AggFunc::Max, ChangeKind::Insertion) => true,
        (AggFunc::Min | AggFunc::Max, ChangeKind::Deletion) => false,
    }
}

/// Table 1, SMAS column: the set of companion aggregates that makes `f`
/// self-maintainable with respect to `kind`, or `None` when no finite set
/// of distributive aggregates does.
///
/// * `COUNT` needs nothing.
/// * `SUM` needs `COUNT` for deletions.
/// * `AVG` needs `COUNT` and `SUM` for both kinds.
/// * `MIN`/`MAX` need nothing for insertions, and cannot be completed for
///   deletions.
pub fn smas_companions(func: AggFunc, kind: ChangeKind) -> Option<&'static [AggFunc]> {
    const NONE: &[AggFunc] = &[];
    const COUNT: &[AggFunc] = &[AggFunc::Count];
    const SUM_COUNT: &[AggFunc] = &[AggFunc::Sum, AggFunc::Count];
    match (func, kind) {
        (AggFunc::Count, _) => Some(NONE),
        (AggFunc::Sum, ChangeKind::Insertion) => Some(NONE),
        (AggFunc::Sum, ChangeKind::Deletion) => Some(COUNT),
        (AggFunc::Avg, _) => Some(SUM_COUNT),
        (AggFunc::Min | AggFunc::Max, ChangeKind::Insertion) => Some(NONE),
        (AggFunc::Min | AggFunc::Max, ChangeKind::Deletion) => None,
    }
}

/// Classifies an aggregate per Table 2 (with the `DISTINCT` rule from
/// Section 3.1: the `DISTINCT` keyword makes any aggregate
/// non-distributive, hence non-CSMAS).
pub(crate) fn classify(agg: &Aggregate) -> AggClass {
    if agg.distinct {
        return AggClass::NonCsmas;
    }
    match agg.func {
        AggFunc::Count | AggFunc::Sum | AggFunc::Avg => AggClass::Csmas,
        AggFunc::Min | AggFunc::Max => AggClass::NonCsmas,
    }
}

/// The Table 2 rewrite of one aggregate into distributive components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// Replaced by the listed distributive components. A `SUM(a)` component
    /// is represented by the argument column; `COUNT(*)` by [`Rewrite`]
    /// carrying `needs_count`.
    Replaced {
        /// Whether a per-group `SUM(a)` over the original argument is needed.
        needs_sum: bool,
        /// Whether a per-group `COUNT(*)` is needed.
        needs_count: bool,
    },
    /// Not replaced (`MIN`/`MAX`, `DISTINCT` aggregates): the raw attribute
    /// values must remain available.
    NotReplaced,
}

/// Applies Table 2 to a single aggregate.
pub fn rewrite(agg: &Aggregate) -> Rewrite {
    match classify(agg) {
        AggClass::NonCsmas => Rewrite::NotReplaced,
        AggClass::Csmas => match agg.func {
            // COUNT(a) → COUNT(*): with null-free data they agree.
            AggFunc::Count => Rewrite::Replaced {
                needs_sum: false,
                needs_count: true,
            },
            // SUM(a) → {SUM(a), COUNT(*)}; AVG(a) → {SUM(a), COUNT(*)}.
            AggFunc::Sum | AggFunc::Avg => Rewrite::Replaced {
                needs_sum: true,
                needs_count: true,
            },
            AggFunc::Min | AggFunc::Max => unreachable!("classified non-CSMAS"),
        },
    }
}

/// The change regime a view operates under — paper Section 4, "old
/// detail data": when every referenced table is declared insert-only,
/// only insertions have to be considered, which relaxes the CSMA
/// definition: `MIN`/`MAX` become self-maintainable (they are SMAs
/// w.r.t. insertion, Table 1), and only `DISTINCT` aggregates still
/// require detail data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeRegime {
    /// Insertions, deletions and updates may all arrive.
    General,
    /// Every referenced table is insert-only (old detail data).
    AppendOnly,
}

/// Determines the regime of `view` from the tables' contracts.
pub fn regime_of(
    view: &GpsjView,
    catalog: &Catalog,
) -> Result<ChangeRegime, md_relation::RelationError> {
    for &t in &view.tables {
        if !catalog.def(t)?.insert_only {
            return Ok(ChangeRegime::General);
        }
    }
    Ok(ChangeRegime::AppendOnly)
}

/// The columns of `table` whose aggregates *block* auxiliary-view
/// elimination under `regime`: every non-CSMAS argument in the general
/// regime, and only `DISTINCT` arguments under the append-only regime
/// (insertion-maintained `MIN`/`MAX` need no detail data).
pub(crate) fn blocking_non_csmas_columns(
    view: &GpsjView,
    table: TableId,
    regime: ChangeRegime,
) -> Vec<usize> {
    let mut out = Vec::new();
    for agg in view.aggregates() {
        let blocks = match regime {
            ChangeRegime::General => classify(agg) == AggClass::NonCsmas,
            ChangeRegime::AppendOnly => agg.distinct,
        };
        if blocks {
            if let Some(col) = agg.arg {
                if col.table == table && !out.contains(&col.column) {
                    out.push(col.column);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The columns of `table` used in non-CSMAS aggregates of `view`.
pub fn non_csmas_columns(view: &GpsjView, table: TableId) -> Vec<usize> {
    let mut out = Vec::new();
    for agg in view.aggregates() {
        if classify(agg) == AggClass::NonCsmas {
            if let Some(col) = agg.arg {
                if col.table == table && !out.contains(&col.column) {
                    out.push(col.column);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Detects *superfluous* aggregates (paper Section 2.1, footnote 1): an
/// aggregate `f(aᵢ)` that can be replaced by the plain attribute `aᵢ`
/// without changing the statement's meaning. That is the case for
/// duplicate-insensitive aggregates (`MIN`, `MAX`, `AVG`, and any
/// `DISTINCT` form) whose argument is itself a group-by attribute of the
/// view — every group then holds a single distinct argument value.
///
/// (`SUM(a)` and `COUNT(a)` with `a` in the group-by are *not* superfluous:
/// they still depend on the group's multiplicity.)
pub fn find_superfluous(view: &GpsjView, catalog: &Catalog) -> Vec<String> {
    let _ = catalog;
    let group_cols = view.group_by_cols();
    let mut findings = Vec::new();
    for item in &view.select {
        if let SelectItem::Agg { agg, alias } = item {
            if let Some(arg) = agg.arg {
                let duplicate_insensitive =
                    agg.distinct || matches!(agg.func, AggFunc::Min | AggFunc::Max | AggFunc::Avg);
                if duplicate_insensitive && group_cols.contains(&arg) {
                    findings.push(alias.clone());
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{ColRef, Condition};
    use md_relation::{DataType, Schema};

    #[test]
    fn table1_sma_column() {
        use ChangeKind::*;
        // COUNT: ⊕/⊖
        assert!(is_sma(AggFunc::Count, Insertion));
        assert!(is_sma(AggFunc::Count, Deletion));
        // SUM: ⊕ only
        assert!(is_sma(AggFunc::Sum, Insertion));
        assert!(!is_sma(AggFunc::Sum, Deletion));
        // AVG: not a SMA
        assert!(!is_sma(AggFunc::Avg, Insertion));
        assert!(!is_sma(AggFunc::Avg, Deletion));
        // MIN/MAX: ⊕ only
        assert!(is_sma(AggFunc::Min, Insertion));
        assert!(!is_sma(AggFunc::Min, Deletion));
        assert!(is_sma(AggFunc::Max, Insertion));
        assert!(!is_sma(AggFunc::Max, Deletion));
    }

    #[test]
    fn table1_smas_column() {
        use AggFunc::*;
        // Per aggregate: its companions w.r.t. insertion, then deletion
        // (`None`: no set of SMAs completes it).
        type Companions = Option<&'static [AggFunc]>;
        let table: [(AggFunc, Companions, Companions); 5] = [
            (Count, Some(&[]), Some(&[])),
            (Sum, Some(&[]), Some(&[Count])),
            (Avg, Some(&[Sum, Count]), Some(&[Sum, Count])),
            (Min, Some(&[]), None),
            (Max, Some(&[]), None),
        ];
        for (f, insert, delete) in table {
            assert_eq!(smas_companions(f, ChangeKind::Insertion), insert, "{f}");
            assert_eq!(smas_companions(f, ChangeKind::Deletion), delete, "{f}");
        }
    }

    #[test]
    fn table2_classification() {
        let col = ColRef::new(TableId(0), 1);
        assert_eq!(classify(&Aggregate::count_star()), AggClass::Csmas);
        assert_eq!(
            classify(&Aggregate::of(AggFunc::Count, col)),
            AggClass::Csmas
        );
        assert_eq!(classify(&Aggregate::of(AggFunc::Sum, col)), AggClass::Csmas);
        assert_eq!(classify(&Aggregate::of(AggFunc::Avg, col)), AggClass::Csmas);
        assert_eq!(
            classify(&Aggregate::of(AggFunc::Min, col)),
            AggClass::NonCsmas
        );
        assert_eq!(
            classify(&Aggregate::of(AggFunc::Max, col)),
            AggClass::NonCsmas
        );
    }

    #[test]
    fn distinct_is_always_non_csmas() {
        let col = ColRef::new(TableId(0), 1);
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            assert_eq!(
                classify(&Aggregate::distinct_of(f, col)),
                AggClass::NonCsmas,
                "{f} DISTINCT must be non-CSMAS"
            );
        }
    }

    #[test]
    fn table2_rewrites() {
        let col = ColRef::new(TableId(0), 1);
        assert_eq!(
            rewrite(&Aggregate::of(AggFunc::Count, col)),
            Rewrite::Replaced {
                needs_sum: false,
                needs_count: true
            }
        );
        assert_eq!(
            rewrite(&Aggregate::of(AggFunc::Sum, col)),
            Rewrite::Replaced {
                needs_sum: true,
                needs_count: true
            }
        );
        assert_eq!(
            rewrite(&Aggregate::of(AggFunc::Avg, col)),
            Rewrite::Replaced {
                needs_sum: true,
                needs_count: true
            }
        );
        assert_eq!(
            rewrite(&Aggregate::count_star()),
            Rewrite::Replaced {
                needs_sum: false,
                needs_count: true
            }
        );
        for agg in [
            Aggregate::of(AggFunc::Min, col),
            Aggregate::of(AggFunc::Max, col),
            Aggregate::distinct_of(AggFunc::Count, col),
            Aggregate::distinct_of(AggFunc::Sum, col),
            Aggregate::distinct_of(AggFunc::Avg, col),
        ] {
            assert_eq!(rewrite(&agg), Rewrite::NotReplaced, "{agg:?}");
        }
    }

    fn toy_view() -> (Catalog, TableId, GpsjView) {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        let v = GpsjView::new(
            "v",
            vec![t],
            vec![
                SelectItem::group_by(ColRef::new(t, 1), "productid"),
                SelectItem::agg(Aggregate::of(AggFunc::Max, ColRef::new(t, 2)), "MaxPrice"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(t, 2)), "TotalPrice"),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
            ],
            vec![],
        );
        (cat, t, v)
    }

    #[test]
    fn non_csmas_columns_found() {
        let (_, t, v) = toy_view();
        // price participates in MAX → non-CSMAS column of sale.
        assert_eq!(non_csmas_columns(&v, t), vec![2]);
    }

    #[test]
    fn superfluous_detection() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "t",
                Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Int)]),
                0,
            )
            .unwrap();
        // MAX(x) with x in group-by is superfluous; SUM(x) is not.
        let v = GpsjView::new(
            "v",
            vec![t],
            vec![
                SelectItem::group_by(ColRef::new(t, 1), "x"),
                SelectItem::agg(Aggregate::of(AggFunc::Max, ColRef::new(t, 1)), "mx"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(t, 1)), "sx"),
            ],
            vec![],
        );
        assert_eq!(find_superfluous(&v, &cat), vec!["mx".to_owned()]);
        let _ = Condition::cmp_lit(ColRef::new(t, 1), md_algebra::CmpOp::Eq, 0i64);
    }
}
