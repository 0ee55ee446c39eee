//! The PSJ self-maintenance baseline (Quass, Gupta, Mumick & Widom,
//! PDIS 1995 — reference \[14\] of the paper).
//!
//! The paper extends Quass et al.'s framework from PSJ to GPSJ views; the
//! natural storage baseline is therefore *their* auxiliary views: local and
//! join reductions are applied, but there is **no smart duplicate
//! compression** — every surviving base tuple is stored, and keys are
//! always retained so tuples remain individually identifiable. For a fact
//! table this means one auxiliary tuple per transaction instead of one per
//! `(group, …)` combination, which is exactly the gap experiment E10
//! quantifies.

use std::collections::BTreeSet;

use md_algebra::GpsjView;
use md_algebra::RowEnv as AlgebraRowEnv;
use md_core::{direct_dependencies, AuxColKind, AuxColumn, AuxViewDef, ExtendedJoinGraph};
#[cfg(test)]
use md_relation::Value;
use md_relation::{Catalog, Database, TableId};

use crate::error::Result;
use crate::store::AuxStore;

/// Derives PSJ-style auxiliary views for `view`: one per base table, with
/// local reductions (projection to preserved + join attributes, plus the
/// key), local condition pushdown, and semijoin reductions on dependency
/// edges — but no duplicate compression.
pub fn derive_psj(view: &GpsjView, catalog: &Catalog) -> Result<Vec<AuxViewDef>> {
    let graph = ExtendedJoinGraph::build(view, catalog)?;
    let mut defs = Vec::with_capacity(view.tables.len());
    for &table in &view.tables {
        let def = catalog.def(table)?;
        let mut cols: BTreeSet<usize> = BTreeSet::new();
        cols.insert(def.key_col); // keys are always retained in [14]
        cols.extend(view.preserved_columns(table));
        cols.extend(view.join_columns_of(catalog, table)?);
        let columns = cols
            .into_iter()
            .map(|src| AuxColumn {
                kind: AuxColKind::Group { src_col: src },
                name: def.schema.column(src).name.clone(),
            })
            .collect();
        defs.push(AuxViewDef {
            table,
            name: format!("{}PSJ", def.name),
            columns,
            local_conditions: view.local_conditions(table).into_iter().cloned().collect(),
            semijoins: direct_dependencies(view, catalog, &graph, table)?,
        });
    }
    Ok(defs)
}

/// Materializes the PSJ auxiliary views from the sources and returns the
/// loaded stores (the E10 comparison, `tests/psj_vs_gpsj.rs`).
pub fn load_psj_stores(view: &GpsjView, catalog: &Catalog, db: &Database) -> Result<Vec<AuxStore>> {
    let graph = ExtendedJoinGraph::build(view, catalog)?;
    let defs = derive_psj(view, catalog)?;
    // Children before parents so semijoin targets are ready.
    let mut order: Vec<TableId> = Vec::new();
    fn visit(graph: &ExtendedJoinGraph, t: TableId, out: &mut Vec<TableId>) {
        let children: Vec<TableId> = graph.children(t).map(|e| e.to).collect();
        for c in children {
            visit(graph, c, out);
        }
        out.push(t);
    }
    visit(&graph, graph.root(), &mut order);

    let mut stores: Vec<AuxStore> = Vec::new();
    for t in order {
        let def = defs
            .iter()
            .find(|d| d.table == t)
            .expect("one def per view table")
            .clone();
        let mut store = AuxStore::new(def.clone(), catalog)?;
        'rows: for row in db.table(t).rows() {
            let env: AlgebraRowEnv<'_> = AlgebraRowEnv::single(t, &row);
            for cond in &def.local_conditions {
                if !cond.eval(&env).map_err(crate::error::MaintainError::from)? {
                    continue 'rows;
                }
            }
            for target in &def.semijoins {
                let Some(edge) = graph.children(t).find(|e| e.to == *target) else {
                    continue 'rows;
                };
                let ok = stores
                    .iter()
                    .find(|s| s.def().table == *target)
                    .map(|s| s.contains_key_value(&row[edge.fk_col]))
                    .unwrap_or(false);
                if !ok {
                    continue 'rows;
                }
            }
            // Keys are retained, so every tuple is its own group: a run of one.
            store.apply_source_run(&store.group_key_of(&row), [(1, &row)])?;
        }
        stores.push(store);
    }
    Ok(stores)
}

/// Convenience: the total storage (rows, paper bytes) of a PSJ store set.
pub fn psj_totals(stores: &[AuxStore]) -> (u64, u64) {
    let rows = stores.iter().map(|s| s.len() as u64).sum();
    let bytes = stores.iter().map(AuxStore::paper_bytes).sum();
    (rows, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, SelectItem};
    use md_relation::{row, DataType, Schema};

    fn fixture() -> (Catalog, Database, TableId, TableId, GpsjView) {
        let mut cat = Catalog::new();
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
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        cat.set_append_only(product).unwrap();
        let view = GpsjView::new(
            "v",
            vec![sale, product],
            vec![
                SelectItem::group_by(ColRef::new(product, 1), "brand"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "total"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
                Condition::cmp_lit(ColRef::new(sale, 2), CmpOp::Gt, 0.0f64),
            ],
        );
        let mut db = Database::new(cat.clone());
        db.insert(product, row![1, "acme"]).unwrap();
        db.insert(product, row![2, "zeta"]).unwrap();
        for (id, p, price) in [
            (10, 1, 5.0),
            (11, 1, 5.0),
            (12, 1, 7.0),
            (13, 2, 3.0),
            (14, 2, -1.0), // filtered by the local condition
        ] {
            db.insert(sale, row![id, p, price]).unwrap();
        }
        (cat, db, product, sale, view)
    }

    #[test]
    fn psj_defs_retain_keys_and_skip_compression() {
        let (cat, _, product, sale, view) = fixture();
        let defs = derive_psj(&view, &cat).unwrap();
        let sale_def = defs.iter().find(|d| d.table == sale).unwrap();
        // id (key), productid (join), price (preserved) all raw.
        assert_eq!(sale_def.group_source_cols(), vec![0, 1, 2]);
        assert!(sale_def.sum_cols().is_empty());
        assert!(sale_def.count_col().is_none());
        assert!(sale_def.is_degenerate_psj());
        assert_eq!(sale_def.name, "salePSJ");
        let product_def = defs.iter().find(|d| d.table == product).unwrap();
        assert_eq!(product_def.group_source_cols(), vec![0, 1]);
    }

    #[test]
    fn psj_stores_keep_one_tuple_per_transaction() {
        let (cat, db, _, sale, view) = fixture();
        let stores = load_psj_stores(&view, &cat, &db).unwrap();
        let sale_store = stores.iter().find(|s| s.def().table == sale).unwrap();
        // 4 qualifying transactions stored individually — no compression.
        assert_eq!(sale_store.len(), 4);
        let (rows, bytes) = psj_totals(&stores);
        assert_eq!(rows, 6); // 4 sales + 2 products
        assert!(bytes > 0);
    }

    #[test]
    fn psj_local_conditions_applied() {
        let (cat, db, _, sale, view) = fixture();
        let stores = load_psj_stores(&view, &cat, &db).unwrap();
        let sale_store = stores.iter().find(|s| s.def().table == sale).unwrap();
        // The negative-price sale is excluded.
        assert!(!sale_store
            .materialized_rows()
            .iter()
            .any(|r| r[0] == Value::Int(14)));
    }
}
