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
//! (Theorem 1: `X ∪ {V}` is the unique minimal self-maintainable set).
//! Reading `V` back from `X` (Section 3.2) is the maintenance engine's
//! business: it takes each aggregate's input from Table 2
//! ([`crate::rewrite`]) and the columns these definitions retain.

use md_algebra::GpsjView;
use md_relation::{Catalog, TableId};

use crate::aggregates::{self, ChangeRegime};
use crate::aux::{AuxColKind, AuxColumn, AuxViewDef};
use crate::compression::compress;
use crate::error::{CoreError, Result};
use crate::join_graph::{direct_dependencies, transitively_depends_on_all, ExtendedJoinGraph};
use crate::need::in_need_of_another;

/// The outcome of Algorithm 3.2 for a single base table.
#[derive(Debug, Clone)]
pub enum AuxEntry {
    /// The auxiliary view must be materialized.
    Materialized(AuxViewDef),
    /// The auxiliary view can be omitted (Section 3.3).
    Omitted {
        /// The table whose auxiliary view is omitted.
        table: TableId,
        /// Human-readable justification, for reports.
        reason: String,
    },
}

impl AuxEntry {
    /// The auxiliary view definition, if materialized.
    pub fn as_materialized(&self) -> Option<&AuxViewDef> {
        match self {
            AuxEntry::Materialized(def) => Some(def),
            AuxEntry::Omitted { .. } => None,
        }
    }

    /// The covered base table.
    pub fn table(&self) -> TableId {
        match self {
            AuxEntry::Materialized(def) => def.table,
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
                AuxEntry::Materialized(_) => None,
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

    // Step 1: extended join graph (validates the view and the tree shape).
    let graph = ExtendedJoinGraph::build(view, catalog)?;
    let regime = aggregates::regime_of(view, catalog)?;

    // Step 2: per-table elimination test, else auxiliary view construction.
    // Under the append-only regime (Section 4) the Need-set condition is
    // moot (there are no deletions to propagate) and only DISTINCT
    // aggregates block elimination; transitive dependence (referential
    // integrity on every edge) is still required so dimension insertions
    // provably cannot join existing rows.
    let mut aux = Vec::with_capacity(view.tables.len());
    for &table in &view.tables {
        let depends_on_all = transitively_depends_on_all(view, catalog, &graph, table)?;
        let needed_by_other = match regime {
            ChangeRegime::General => in_need_of_another(&graph, table),
            ChangeRegime::AppendOnly => false,
        };
        let non_csmas_cols = aggregates::blocking_non_csmas_columns(view, table, regime);
        if depends_on_all && !needed_by_other && non_csmas_cols.is_empty() {
            let name = catalog.def(table)?.name.clone();
            let reason = match regime {
                ChangeRegime::General => format!(
                    "'{name}' transitively depends on all other base tables, is in no \
                     other table's Need set, and contributes no non-CSMAS aggregate"
                ),
                ChangeRegime::AppendOnly => format!(
                    "'{name}' transitively depends on all other base tables and, under \
                     the append-only regime (every source insert-only), contributes no \
                     DISTINCT aggregate — the relaxed CSMA conditions of Section 4"
                ),
            };
            aux.push(AuxEntry::Omitted { table, reason });
        } else {
            aux.push(AuxEntry::Materialized(build_aux_def(
                view, catalog, &graph, table,
            )?));
        }
    }

    Ok(DerivedPlan {
        view: view.clone(),
        graph,
        aux,
        regime,
    })
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
        semijoins: direct_dependencies(view, catalog, graph, table)?,
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
        // Still not omitted: sale is in the Need set of time and product,
        // and feeds the DISTINCT (non-CSMAS) aggregate via the join.
        assert!(!plan.root_omitted());
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
        assert!(transitively_depends_on_all(&v, &f.cat, &plan.graph, f.sale).unwrap());
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
        for edge in plan.graph.edges() {
            let from = plan.aux_for(edge.from).unwrap();
            let to = plan.aux_for(edge.to).unwrap();
            assert!(from.group_col_of_source(edge.fk_col).is_some());
            assert!(to.group_col_of_source(edge.key_col).is_some());
        }
    }
}
