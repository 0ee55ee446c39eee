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
//! The derived [`DerivedPlan`] carries the auxiliary view definitions plus
//! the [`ReconstructionPlan`] to rebuild `V` from `X` without touching the
//! base tables (Theorem 1: `X ∪ {V}` is the unique minimal self-maintainable
//! set).

use md_algebra::{AggFunc, Aggregate, GpsjView, SelectItem};
use md_relation::{Catalog, TableId};

use crate::aggregates::{self, AggClass, ChangeRegime};
use crate::aux::{AuxColKind, AuxColumn, AuxViewDef};
use crate::compression::compress;
use crate::error::{CoreError, Result};
use crate::join_graph::{direct_dependencies, transitively_depends_on_all, ExtendedJoinGraph};
use crate::need::in_need_of_another;
use crate::recon::{AuxJoin, ReconItem, ReconstructionPlan, SumSource};

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

/// The full output of the derivation: the minimal set of auxiliary views
/// plus the reconstruction plan.
#[derive(Debug, Clone)]
pub struct DerivedPlan {
    /// The (validated) view the plan was derived for.
    pub view: GpsjView,
    /// The extended join graph `G(V)`.
    pub graph: ExtendedJoinGraph,
    /// Per-table outcomes, parallel to `view.tables`.
    pub aux: Vec<AuxEntry>,
    /// How to rebuild `V` from `X`; `None` exactly when the root auxiliary
    /// view is omitted (then `V` is maintained purely from deltas and the
    /// dimension auxiliary views, and never needs rebuilding from `X`).
    pub reconstruction: Option<ReconstructionPlan>,
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

    let plan = DerivedPlan {
        view: view.clone(),
        graph,
        aux,
        reconstruction: None,
        regime,
    };
    let reconstruction = if plan.root_omitted() {
        None
    } else {
        Some(build_reconstruction(&plan, catalog)?)
    };
    Ok(DerivedPlan {
        reconstruction,
        ..plan
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

/// Builds the reconstruction plan of `V` over the materialized `X`.
fn build_reconstruction(plan: &DerivedPlan, catalog: &Catalog) -> Result<ReconstructionPlan> {
    let view = &plan.view;
    let root = plan.graph.root();
    let root_aux = plan
        .aux_for(root)
        .expect("build_reconstruction requires a materialized root");
    let internal = |detail: String| -> CoreError {
        CoreError::Internal {
            view: view.name.clone(),
            detail,
        }
    };

    let raw_col = |agg: &Aggregate| -> Result<(TableId, usize)> {
        let col = agg
            .arg
            .expect("non-count aggregates always carry an argument");
        let aux = plan.aux_for(col.table).ok_or_else(|| {
            internal(format!(
                "internal error: aggregate argument on omitted table {}",
                col.table
            ))
        })?;
        let aux_col = aux.group_col_of_source(col.column).ok_or_else(|| {
            internal(format!(
                "internal error: raw attribute {} not retained in {}",
                col.column, aux.name
            ))
        })?;
        Ok((col.table, aux_col))
    };

    let mut items = Vec::with_capacity(view.select.len());
    for item in &view.select {
        let recon = match item {
            SelectItem::GroupBy { col, .. } => {
                let aux = plan.aux_for(col.table).ok_or_else(|| {
                    internal(format!(
                        "internal error: group-by attribute on omitted table {}",
                        col.table
                    ))
                })?;
                let aux_col = aux.group_col_of_source(col.column).ok_or_else(|| {
                    internal(format!(
                        "internal error: group-by attribute {} not in {}",
                        col.column, aux.name
                    ))
                })?;
                ReconItem::Group {
                    table: col.table,
                    aux_col,
                }
            }
            SelectItem::Agg { agg, .. } => match (agg.func, agg.distinct) {
                // COUNT(*) and COUNT(a): Σ cnt₀ (Table 2 rewrite).
                (AggFunc::Count, false) => ReconItem::Count,
                (AggFunc::Sum, false) | (AggFunc::Avg, false) => {
                    debug_assert_eq!(aggregates::classify(agg), AggClass::Csmas);
                    let col = agg.arg.expect("SUM/AVG have an argument");
                    let aux = plan.aux_for(col.table).ok_or_else(|| {
                        internal(format!(
                            "internal error: CSMAS argument on omitted table {}",
                            col.table
                        ))
                    })?;
                    let source = match aux.sum_col_of_source(col.column) {
                        Some(aux_col) => SumSource::PreSummed {
                            table: col.table,
                            aux_col,
                        },
                        None => {
                            let (table, aux_col) = raw_col(agg)?;
                            SumSource::Raw { table, aux_col }
                        }
                    };
                    if agg.func == AggFunc::Sum {
                        ReconItem::Sum(source)
                    } else {
                        ReconItem::Avg(source)
                    }
                }
                // MIN/MAX (DISTINCT or not: duplicates are irrelevant).
                (AggFunc::Min | AggFunc::Max, _) => {
                    let (table, aux_col) = raw_col(agg)?;
                    ReconItem::MinMax {
                        func: agg.func,
                        table,
                        aux_col,
                    }
                }
                // COUNT/SUM/AVG with DISTINCT.
                (func, true) => {
                    let (table, aux_col) = raw_col(agg)?;
                    ReconItem::Distinct {
                        func,
                        table,
                        aux_col,
                    }
                }
            },
        };
        items.push(recon);
    }

    let mut joins = Vec::new();
    for edge in plan.graph.edges() {
        let from_aux = plan
            .aux_for(edge.from)
            .ok_or_else(|| internal("internal error: non-root table omitted".into()))?;
        let to_aux = plan
            .aux_for(edge.to)
            .ok_or_else(|| internal("internal error: non-root table omitted".into()))?;
        joins.push(AuxJoin {
            from: edge.from,
            from_aux_col: from_aux.group_col_of_source(edge.fk_col).ok_or_else(|| {
                internal(format!(
                    "internal error: fk column {} not retained in {}",
                    edge.fk_col, from_aux.name
                ))
            })?,
            to: edge.to,
            to_aux_col: to_aux.group_col_of_source(edge.key_col).ok_or_else(|| {
                internal(format!(
                    "internal error: key column {} not retained in {}",
                    edge.key_col, to_aux.name
                ))
            })?,
        });
    }

    let _ = catalog;
    Ok(ReconstructionPlan {
        root,
        items,
        joins,
        root_count_col: root_aux.count_col(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{CmpOp, ColRef, Condition};
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
    fn reconstruction_plan_for_running_example() {
        let f = fixture();
        let plan = derive(&product_sales(&f), &f.cat).unwrap();
        let recon = plan.reconstruction.as_ref().unwrap();
        assert_eq!(recon.root, f.sale);
        assert_eq!(recon.items.len(), 4);
        assert!(matches!(
            recon.items[0],
            ReconItem::Group { table, .. } if table == f.time
        ));
        assert!(matches!(
            recon.items[1],
            ReconItem::Sum(SumSource::PreSummed { table, .. }) if table == f.sale
        ));
        assert!(matches!(recon.items[2], ReconItem::Count));
        assert!(matches!(
            recon.items[3],
            ReconItem::Distinct { func: AggFunc::Count, table, .. } if table == f.product
        ));
        assert_eq!(recon.joins.len(), 2);
        assert!(recon.root_count_col.is_some());
        assert!(recon.has_non_csmas());
    }

    #[test]
    fn product_sales_max_reconstruction_uses_raw_sum() {
        // Paper Section 3.2: SUM(price) recomputed as SUM(price·SaleCount).
        let f = fixture();
        let v = GpsjView::new(
            "product_sales_max",
            vec![f.sale],
            vec![
                SelectItem::group_by(ColRef::new(f.sale, 2), "productid"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Max, ColRef::new(f.sale, 3)),
                    "MaxPrice",
                ),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(f.sale, 3)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
            ],
            vec![],
        );
        let plan = derive(&v, &f.cat).unwrap();
        // saleDTL: GROUP BY productid, price + COUNT(*) (Section 3.2).
        let aux = plan.aux_for(f.sale).unwrap();
        assert_eq!(aux.group_source_cols(), vec![2, 3]);
        assert!(aux.sum_cols().is_empty());
        assert!(aux.count_col().is_some());
        let recon = plan.reconstruction.as_ref().unwrap();
        assert!(matches!(
            recon.items[2],
            ReconItem::Sum(SumSource::Raw { .. })
        ));
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
        assert!(plan.reconstruction.is_none());
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
        let f = fixture();
        let plan = derive(&product_sales(&f), &f.cat).unwrap();
        let recon = plan.reconstruction.as_ref().unwrap();
        let sale_dtl = plan.aux_for(f.sale).unwrap();
        let time_dtl = plan.aux_for(f.time).unwrap();
        let j = recon.joins_from(f.sale).find(|j| j.to == f.time).unwrap();
        // saleDTL.timeid joins timeDTL.id.
        assert_eq!(sale_dtl.columns[j.from_aux_col].name, "timeid");
        assert_eq!(time_dtl.columns[j.to_aux_col].name, "id");
    }
}
