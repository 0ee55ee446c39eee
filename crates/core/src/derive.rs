//! Algorithm 3.2 — creation of minimum auxiliary views for GPSJ views.
//!
//! ```text
//! 1. Construct the extended join graph G(V).
//! 2. For each base table Rᵢ ∈ R calculate Need(Rᵢ, G(V)) and check whether
//!    Rᵢ transitively depends on all other base tables in R. If this is the
//!    case, and Rᵢ is not in the Need set of any other base table in R, and
//!    none of the attributes of Rᵢ are involved in non-CSMASs, then X_{Rᵢ}
//!    can be omitted. Else
//!        X_{Rᵢ} = (Π_{A_{Rᵢ}} σ_S Rᵢ) ⋉ X_{R_{j1}} ⋉ … ⋉ X_{R_{jn}}
//! ```
//!
//! The derived [`DerivedPlan`] carries the auxiliary view definitions
//! (Theorem 1: `X ∪ {V}` is the unique minimal self-maintainable set) and
//! records why each is there: an omitted entry holds the [`Omission`]
//! that justified it, a materialized one every failed condition as a
//! [`Blocker`] — not the root, each blocked edge of its subtree (read off
//! the join graph's verdicts), each table whose Need set holds it, each
//! blocking non-CSMAS column. Reports read this record instead of
//! re-running the test. Reading `V` back from `X` (Section 3.2) is the
//! maintenance engine's business: it takes each aggregate's input from
//! Table 2 ([`crate::rewrite`]) and the columns these definitions retain.

use std::fmt;

use md_algebra::{ColRef, GpsjView};
use md_relation::{Catalog, TableId};

use crate::aggregates::{self, ChangeRegime};
use crate::aux::{AuxColKind, AuxColumn, AuxViewDef};
use crate::compression::compress;
use crate::error::{CoreError, Result};
use crate::join_graph::{EdgeBlock, ExtendedJoinGraph, JoinEdge};
use crate::need::needed_by;

/// The outcome of Algorithm 3.2 for a single base table.
#[derive(Debug, Clone)]
pub enum AuxEntry {
    /// The auxiliary view must be materialized.
    Materialized {
        /// Its definition.
        def: AuxViewDef,
        /// Every elimination condition that fails (never empty).
        blockers: Vec<Blocker>,
    },
    /// The auxiliary view can be omitted (Section 3.3).
    Omitted {
        /// The table whose auxiliary view is omitted.
        table: TableId,
        /// Why: every elimination condition holds.
        reason: Omission,
    },
}

/// Why Algorithm 3.2 omits `X_{Rᵢ}`. Its `Display` is the sentence reports
/// print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Omission {
    /// The name of `Rᵢ`.
    pub table_name: String,
    /// The regime whose conditions held: under the append-only regime the
    /// Need-set condition is moot and only `DISTINCT` blocks.
    pub regime: ChangeRegime,
}

impl fmt::Display for Omission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = &self.table_name;
        match self.regime {
            ChangeRegime::General => write!(
                f,
                "'{name}' transitively depends on all other base tables, is in no \
                 other table's Need set, and contributes no non-CSMAS aggregate"
            ),
            ChangeRegime::AppendOnly => write!(
                f,
                "'{name}' transitively depends on all other base tables and, under \
                 the append-only regime (every source insert-only), contributes no \
                 DISTINCT aggregate — the relaxed CSMA conditions of Section 4"
            ),
        }
    }
}

/// One failed elimination condition of Algorithm 3.2 for `Rᵢ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// `Rᵢ` is not the root, so it cannot reach — transitively depend
    /// on — every other table.
    NotRoot,
    /// This edge of `Rᵢ`'s subtree is not a dependency, so `Rᵢ` does not
    /// transitively depend on the tables behind it.
    Edge(JoinEdge, EdgeBlock),
    /// `Rᵢ` is in the Need set of this other table (general regime only).
    NeededBy(TableId),
    /// This column of `Rᵢ` is the argument of an aggregate that blocks
    /// elimination under the plan's regime.
    NonCsmas(ColRef),
}

impl Blocker {
    /// A phrase for reports, naming tables and columns from `catalog`.
    pub fn describe(&self, catalog: &Catalog) -> String {
        let name = |t: TableId| match catalog.def(t) {
            Ok(def) => def.name.clone(),
            Err(_) => t.to_string(),
        };
        match self {
            Blocker::NotRoot => "not the root table".to_owned(),
            Blocker::Edge(edge, block) => {
                let mut why = Vec::new();
                if !block.ri_declared {
                    why.push("no declared foreign key".to_owned());
                }
                if !block.exposed.is_empty() {
                    let cols: Vec<String> = (block.exposed.iter())
                        .map(|&c| ColRef::new(edge.to, c).display(catalog))
                        .collect();
                    why.push(format!("exposed updates on {}", cols.join(", ")));
                }
                format!(
                    "{} -> {} is not a dependency ({})",
                    name(edge.from),
                    name(edge.to),
                    why.join("; ")
                )
            }
            Blocker::NeededBy(other) => format!("in the Need set of '{}'", name(*other)),
            Blocker::NonCsmas(col) => {
                format!("{} feeds a non-CSMAS aggregate", col.display(catalog))
            }
        }
    }
}

impl AuxEntry {
    /// The auxiliary view definition, if materialized.
    pub(crate) fn as_materialized(&self) -> Option<&AuxViewDef> {
        match self {
            AuxEntry::Materialized { def, .. } => Some(def),
            AuxEntry::Omitted { .. } => None,
        }
    }

    /// The covered base table.
    pub fn table(&self) -> TableId {
        match self {
            AuxEntry::Materialized { def, .. } => def.table,
            AuxEntry::Omitted { table, .. } => *table,
        }
    }
}

/// The full output of the derivation: the minimal set of auxiliary views.
#[derive(Debug, Clone)]
pub struct DerivedPlan {
    /// The (validated) view the plan was derived for.
    pub view: GpsjView,
    /// The extended join graph `G(V)`.
    pub graph: ExtendedJoinGraph,
    /// Per-table outcomes, parallel to `view.tables`.
    pub aux: Vec<AuxEntry>,
    /// The change regime the plan was derived for (paper Section 4:
    /// insert-only "old detail data" relaxes the CSMA requirements).
    pub regime: ChangeRegime,
}

impl DerivedPlan {
    /// The auxiliary view of `table`, if materialized.
    pub fn aux_for(&self, table: TableId) -> Option<&AuxViewDef> {
        self.aux
            .iter()
            .find(|e| e.table() == table)
            .and_then(AuxEntry::as_materialized)
    }

    /// All materialized auxiliary views.
    pub fn materialized(&self) -> impl Iterator<Item = &AuxViewDef> {
        self.aux.iter().filter_map(AuxEntry::as_materialized)
    }

    /// Tables whose auxiliary views were omitted.
    pub fn omitted_tables(&self) -> Vec<TableId> {
        self.aux
            .iter()
            .filter_map(|e| match e {
                AuxEntry::Omitted { table, .. } => Some(*table),
                AuxEntry::Materialized { .. } => None,
            })
            .collect()
    }

    /// Returns `true` when the root table's auxiliary view is omitted —
    /// the paper's "omit the typically huge fact table" case.
    pub fn root_omitted(&self) -> bool {
        self.aux_for(self.graph.root()).is_none()
    }
}

/// Runs Algorithm 3.2: derives the minimal set of auxiliary views that
/// makes `{V} ∪ X` self-maintainable.
pub fn derive(view: &GpsjView, catalog: &Catalog) -> Result<DerivedPlan> {
    // Section 2.1 assumption: no superfluous aggregates.
    let superfluous = aggregates::find_superfluous(view, catalog);
    if !superfluous.is_empty() {
        return Err(CoreError::SuperfluousAggregates {
            view: view.name.clone(),
            aliases: superfluous,
        });
    }

    // Step 1: extended join graph (validates the view and the tree shape,
    // and classifies every edge by the depends relation).
    let graph = ExtendedJoinGraph::build(view, catalog)?;
    let regime = aggregates::regime_of(view, catalog)?;

    // Step 2: per-table elimination test, else auxiliary view construction.
    let mut aux = Vec::with_capacity(view.tables.len());
    for &table in &view.tables {
        let blockers = blockers(view, &graph, table, regime);
        if blockers.is_empty() {
            let reason = Omission {
                table_name: catalog.def(table)?.name.clone(),
                regime,
            };
            aux.push(AuxEntry::Omitted { table, reason });
        } else {
            let def = build_aux_def(view, catalog, &graph, table)?;
            aux.push(AuxEntry::Materialized { def, blockers });
        }
    }

    Ok(DerivedPlan {
        view: view.clone(),
        graph,
        aux,
        regime,
    })
}

/// Every elimination condition of Algorithm 3.2 that fails for `table`,
/// in the algorithm's order; empty exactly when `X_table` can be omitted.
/// Under the append-only regime (Section 4) the Need-set condition is
/// moot (there are no deletions to propagate) and only DISTINCT
/// aggregates block elimination; transitive dependence (referential
/// integrity on every edge) is still required so dimension insertions
/// provably cannot join existing rows.
fn blockers(
    view: &GpsjView,
    graph: &ExtendedJoinGraph,
    table: TableId,
    regime: ChangeRegime,
) -> Vec<Blocker> {
    let mut out = Vec::new();
    // Transitive dependence on all: only the root reaches every table, and
    // only along dependency edges.
    if table != graph.root() {
        out.push(Blocker::NotRoot);
    }
    out.extend(
        (graph.blocked_edges(table)).map(|(edge, block)| Blocker::Edge(*edge, block.clone())),
    );
    if regime == ChangeRegime::General {
        out.extend(needed_by(graph, table).into_iter().map(Blocker::NeededBy));
    }
    out.extend(
        (aggregates::blocking_non_csmas_columns(view, table, regime).into_iter())
            .map(|col| Blocker::NonCsmas(ColRef::new(table, col))),
    );
    out
}

/// Builds `X_{Rᵢ}` for one table: local reduction, smart duplicate
/// compression, and the semijoin list from the dependency edges.
fn build_aux_def(
    view: &GpsjView,
    catalog: &Catalog,
    graph: &ExtendedJoinGraph,
    table: TableId,
) -> Result<AuxViewDef> {
    let def = catalog.def(table)?;
    let spec = compress(view, catalog, table)?;

    let mut columns = Vec::new();
    for &src in &spec.group_cols {
        columns.push(AuxColumn {
            kind: AuxColKind::Group { src_col: src },
            name: def.schema.column(src).name.clone(),
        });
    }
    for &src in &spec.sum_cols {
        columns.push(AuxColumn {
            kind: AuxColKind::Sum { src_col: src },
            name: format!("sum_{}", def.schema.column(src).name),
        });
    }
    if spec.include_count {
        columns.push(AuxColumn {
            kind: AuxColKind::Count,
            name: "cnt".into(),
        });
    }

    Ok(AuxViewDef {
        table,
        name: format!("{}DTL", def.name),
        columns,
        local_conditions: view.local_conditions(table).into_iter().cloned().collect(),
        semijoins: graph.direct_dependencies(table),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, SelectItem};
    use md_relation::{DataType, Schema};

    struct Fx {
        cat: Catalog,
        time: TableId,
        product: TableId,
        sale: TableId,
    }

    fn fixture() -> Fx {
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
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, time).unwrap();
        cat.add_foreign_key(sale, 2, product).unwrap();
        Fx {
            cat,
            time,
            product,
            sale,
        }
    }

    fn product_sales(f: &Fx) -> GpsjView {
        GpsjView::new(
            "product_sales",
            vec![f.sale, f.time, f.product],
            vec![
                SelectItem::group_by(ColRef::new(f.time, 1), "month"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(f.sale, 3)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
                SelectItem::agg(
                    Aggregate::distinct_of(AggFunc::Count, ColRef::new(f.product, 1)),
                    "DifferentBrands",
                ),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(f.time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(f.sale, 1), ColRef::new(f.time, 0)),
                Condition::eq_cols(ColRef::new(f.sale, 2), ColRef::new(f.product, 0)),
            ],
        )
    }

    #[test]
    fn paper_running_example_plan() {
        let f = fixture();
        let plan = derive(&product_sales(&f), &f.cat).unwrap();
        // All three auxiliary views materialized (sale is in dimensions'
        // Need sets; dimensions never depend on all).
        assert_eq!(plan.materialized().count(), 3);
        assert!(plan.omitted_tables().is_empty());
        assert!(!plan.root_omitted());

        let sale_dtl = plan.aux_for(f.sale).unwrap();
        assert_eq!(sale_dtl.name, "saleDTL");
        assert_eq!(sale_dtl.group_source_cols(), vec![1, 2]);
        assert_eq!(sale_dtl.sum_cols().len(), 1);
        assert!(sale_dtl.count_col().is_some());
        // With default (pessimistic) update contracts time.year is exposed,
        // so saleDTL is only semijoin-reduced against productDTL.
        assert_eq!(sale_dtl.semijoins, vec![f.product]);

        let time_dtl = plan.aux_for(f.time).unwrap();
        assert!(time_dtl.is_degenerate_psj());
        assert_eq!(time_dtl.group_source_cols(), vec![0, 1]);
        assert_eq!(time_dtl.local_conditions.len(), 1);

        let product_dtl = plan.aux_for(f.product).unwrap();
        assert!(product_dtl.is_degenerate_psj());
        assert_eq!(product_dtl.group_source_cols(), vec![0, 1]);

        // Why each is kept, every failed condition in Algorithm 3.2's
        // order. sale: the exposed time.year blocks sale -> time, and sale
        // is in Need(time) and Need(product).
        let sale_time = *plan.graph.parent_edge(f.time).unwrap();
        let exposed_year = EdgeBlock {
            ri_declared: true,
            exposed: vec![2],
        };
        assert_eq!(
            blockers_of(&plan, f.sale),
            &[
                Blocker::Edge(sale_time, exposed_year.clone()),
                Blocker::NeededBy(f.time),
                Blocker::NeededBy(f.product),
            ]
        );
        // time: a dimension, in Need(sale) (time is grouped) and
        // Need(product) (through the root's Need₀).
        assert_eq!(
            blockers_of(&plan, f.time),
            &[
                Blocker::NotRoot,
                Blocker::NeededBy(f.sale),
                Blocker::NeededBy(f.product),
            ]
        );
        // product: a dimension feeding COUNT(DISTINCT brand).
        assert_eq!(
            blockers_of(&plan, f.product),
            &[
                Blocker::NotRoot,
                Blocker::NonCsmas(ColRef::new(f.product, 1))
            ]
        );
        assert_eq!(
            Blocker::Edge(sale_time, exposed_year).describe(&f.cat),
            "sale -> time is not a dependency (exposed updates on time.year)"
        );
        assert_eq!(
            Blocker::NonCsmas(ColRef::new(f.product, 1)).describe(&f.cat),
            "product.brand feeds a non-CSMAS aggregate"
        );
    }

    /// The recorded blockers of `table`'s materialized entry.
    fn blockers_of(plan: &DerivedPlan, table: TableId) -> &[Blocker] {
        match plan.aux.iter().find(|e| e.table() == table) {
            Some(AuxEntry::Materialized { blockers, .. }) => blockers,
            other => panic!("{table} is not materialized: {other:?}"),
        }
    }

    #[test]
    fn paper_running_example_with_tight_contracts_reduces_against_both() {
        let mut f = fixture();
        f.cat.set_append_only(f.time).unwrap();
        f.cat.set_append_only(f.product).unwrap();
        let plan = derive(&product_sales(&f), &f.cat).unwrap();
        let sale_dtl = plan.aux_for(f.sale).unwrap();
        let mut semis = sale_dtl.semijoins.clone();
        semis.sort();
        assert_eq!(semis, vec![f.time, f.product]);
        // Still not omitted: sale is in the Need set of time and product —
        // no edge blocks any more, and the DISTINCT (non-CSMAS) aggregate
        // reads product, not sale.
        assert!(!plan.root_omitted());
        assert_eq!(
            blockers_of(&plan, f.sale),
            &[Blocker::NeededBy(f.time), Blocker::NeededBy(f.product)]
        );
        assert_eq!(
            blockers_of(&plan, f.time),
            &[
                Blocker::NotRoot,
                Blocker::NeededBy(f.sale),
                Blocker::NeededBy(f.product),
            ]
        );
        assert_eq!(
            blockers_of(&plan, f.product),
            &[
                Blocker::NotRoot,
                Blocker::NonCsmas(ColRef::new(f.product, 1))
            ]
        );
        assert_eq!(
            Blocker::NeededBy(f.time).describe(&f.cat),
            "in the Need set of 'time'"
        );
        assert_eq!(Blocker::NotRoot.describe(&f.cat), "not the root table");
    }

    #[test]
    fn root_omitted_when_all_children_key_grouped() {
        let mut f = fixture();
        f.cat.set_append_only(f.time).unwrap();
        f.cat.set_append_only(f.product).unwrap();
        f.cat.set_updatable_columns(f.sale, &[3]).unwrap(); // only price updates
        let v = GpsjView::new(
            "by_keys",
            vec![f.sale, f.time, f.product],
            vec![
                SelectItem::group_by(ColRef::new(f.time, 0), "timeid"),
                SelectItem::group_by(ColRef::new(f.product, 0), "productid"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(f.sale, 3)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(f.sale, 1), ColRef::new(f.time, 0)),
                Condition::eq_cols(ColRef::new(f.sale, 2), ColRef::new(f.product, 0)),
            ],
        );
        let plan = derive(&v, &f.cat).unwrap();
        assert!(plan.root_omitted());
        assert_eq!(plan.omitted_tables(), vec![f.sale]);
        let AuxEntry::Omitted { reason, .. } = &plan.aux[0] else {
            panic!("saleDTL is omitted");
        };
        assert_eq!(
            reason.to_string(),
            "'sale' transitively depends on all other base tables, is in no other \
             table's Need set, and contributes no non-CSMAS aggregate"
        );
        let append_only = Omission {
            regime: ChangeRegime::AppendOnly,
            ..reason.clone()
        };
        assert_eq!(
            append_only.to_string(),
            "'sale' transitively depends on all other base tables and, under the \
             append-only regime (every source insert-only), contributes no DISTINCT \
             aggregate — the relaxed CSMA conditions of Section 4"
        );
        // Dimensions still materialized.
        assert!(plan.aux_for(f.time).is_some());
        assert!(plan.aux_for(f.product).is_some());
    }

    #[test]
    fn root_not_omitted_with_exposed_dimension_updates() {
        // Same as above but time.year stays updatable → no dependence on
        // time → no transitive dependence on all → root materialized.
        let mut f = fixture();
        f.cat.set_append_only(f.product).unwrap();
        let v = GpsjView::new(
            "by_keys",
            vec![f.sale, f.time, f.product],
            vec![
                SelectItem::group_by(ColRef::new(f.time, 0), "timeid"),
                SelectItem::group_by(ColRef::new(f.product, 0), "productid"),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(f.time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(f.sale, 1), ColRef::new(f.time, 0)),
                Condition::eq_cols(ColRef::new(f.sale, 2), ColRef::new(f.product, 0)),
            ],
        );
        let plan = derive(&v, &f.cat).unwrap();
        assert!(!plan.root_omitted());
    }

    #[test]
    fn root_not_omitted_with_root_non_csmas() {
        let mut f = fixture();
        f.cat.set_append_only(f.time).unwrap();
        f.cat.set_append_only(f.product).unwrap();
        f.cat.set_updatable_columns(f.sale, &[3]).unwrap();
        let v = GpsjView::new(
            "by_keys_max",
            vec![f.sale, f.time, f.product],
            vec![
                SelectItem::group_by(ColRef::new(f.time, 0), "timeid"),
                SelectItem::group_by(ColRef::new(f.product, 0), "productid"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Max, ColRef::new(f.sale, 3)),
                    "MaxPrice",
                ),
            ],
            vec![
                Condition::eq_cols(ColRef::new(f.sale, 1), ColRef::new(f.time, 0)),
                Condition::eq_cols(ColRef::new(f.sale, 2), ColRef::new(f.product, 0)),
            ],
        );
        let plan = derive(&v, &f.cat).unwrap();
        assert!(!plan.root_omitted());
    }

    #[test]
    fn single_table_count_view_needs_no_aux() {
        let f = fixture();
        let v = GpsjView::new(
            "counts",
            vec![f.product],
            vec![
                SelectItem::group_by(ColRef::new(f.product, 1), "brand"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![],
        );
        let plan = derive(&v, &f.cat).unwrap();
        assert!(plan.root_omitted());
        assert_eq!(plan.materialized().count(), 0);
    }

    #[test]
    fn root_not_omitted_when_a_dimension_needs_it() {
        // Grouping on time.month (not its key) puts sale into Need(time):
        // sale depends on everything and feeds only CSMAS aggregates, yet
        // saleDTL stays.
        let mut f = fixture();
        f.cat.set_append_only(f.time).unwrap();
        f.cat.set_updatable_columns(f.sale, &[3]).unwrap();
        let v = GpsjView::new(
            "monthly",
            vec![f.sale, f.time],
            vec![
                SelectItem::group_by(ColRef::new(f.time, 1), "month"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(f.sale, 3)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
            ],
            vec![Condition::eq_cols(
                ColRef::new(f.sale, 1),
                ColRef::new(f.time, 0),
            )],
        );
        let plan = derive(&v, &f.cat).unwrap();
        assert_eq!(blockers_of(&plan, f.sale), &[Blocker::NeededBy(f.time)]);
        assert!(!plan.root_omitted());
        assert!(plan.aux_for(f.sale).is_some());
        assert!(plan.aux_for(f.time).is_some());
    }

    #[test]
    fn single_table_min_view_keeps_its_aux_view() {
        // MIN is non-CSMAS: a deletion of the minimum needs the rest of
        // the group, so even a one-table view keeps saleDTL, grouped on
        // the raw price.
        let f = fixture();
        let v = GpsjView::new(
            "lows",
            vec![f.sale],
            vec![
                SelectItem::group_by(ColRef::new(f.sale, 2), "productid"),
                SelectItem::agg(Aggregate::of(AggFunc::Min, ColRef::new(f.sale, 3)), "lo"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![],
        );
        let plan = derive(&v, &f.cat).unwrap();
        assert!(!plan.root_omitted());
        assert_eq!(
            plan.aux_for(f.sale).unwrap().group_source_cols(),
            vec![2, 3]
        );
    }

    #[test]
    fn superfluous_aggregate_rejected() {
        let f = fixture();
        let v = GpsjView::new(
            "bad",
            vec![f.sale],
            vec![
                SelectItem::group_by(ColRef::new(f.sale, 3), "price"),
                SelectItem::agg(Aggregate::of(AggFunc::Max, ColRef::new(f.sale, 3)), "mx"),
            ],
            vec![],
        );
        assert!(matches!(
            derive(&v, &f.cat),
            Err(CoreError::SuperfluousAggregates { .. })
        ));
    }

    #[test]
    fn join_columns_survive_in_reconstruction_joins() {
        // X is joined along G(V)'s edges when V is rebuilt from it, so
        // each edge's foreign key and key stay group columns of their
        // auxiliary views: saleDTL.timeid joins timeDTL.id.
        let f = fixture();
        let plan = derive(&product_sales(&f), &f.cat).unwrap();
        let sale_dtl = plan.aux_for(f.sale).unwrap();
        let time_dtl = plan.aux_for(f.time).unwrap();
        let timeid = sale_dtl.group_col_of_source(1).unwrap();
        let id = time_dtl.group_col_of_source(0).unwrap();
        assert_eq!(sale_dtl.columns[timeid].name, "timeid");
        assert_eq!(time_dtl.columns[id].name, "id");
        for edge in (plan.graph.tables().iter()).filter_map(|&t| plan.graph.parent_edge(t)) {
            let from = plan.aux_for(edge.from).unwrap();
            let to = plan.aux_for(edge.to).unwrap();
            assert!(from.group_col_of_source(edge.fk_col).is_some());
            assert!(to.group_col_of_source(edge.key_col).is_some());
        }
    }
}
