//! GPSJ minimal auxiliary views vs. the PSJ baseline (Quass et al. [14]):
//! smart duplicate compression must shrink the fact-side detail data by
//! (roughly) the duplication factor, while both remain sufficient for the
//! same summary. Also pins EXPERIMENTS.md's E1 (measured), E8 and E10
//! figures.
//!
//! The baseline is *Quass, Gupta, Mumick & Widom* (PDIS 1995 — reference
//! \[14\] of the paper). The paper extends their framework from PSJ to
//! GPSJ views; the natural storage baseline is therefore *their* auxiliary
//! views: local and join reductions are applied, but there is **no smart
//! duplicate compression** — every surviving base tuple is stored, and
//! keys are always retained so tuples remain individually identifiable.
//! For a fact table this means one auxiliary tuple per transaction
//! instead of one per `(group, …)` combination, which is exactly the gap
//! experiment E10 quantifies. It lives here, its one reader, and builds
//! its stores through md-maintain's public `AuxStore`.

use std::collections::BTreeSet;

use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, RowEnv, SelectItem};
use md_core::{AuxColKind, AuxColumn, AuxViewDef, ExtendedJoinGraph};
use md_maintain::{AuxStore, MaintainError, Result};
use md_relation::{row, Catalog, DataType, Database, Schema, TableId, Value};
use md_warehouse::{parse_view, Warehouse};
use md_workload::{generate_retail, views, Contracts, RetailParams, RetailSchema};

/// Derives PSJ-style auxiliary views for `view`: one per base table, with
/// local reductions (projection to preserved + join attributes, plus the
/// key), local condition pushdown, and semijoin reductions on dependency
/// edges — but no duplicate compression.
fn derive_psj(view: &GpsjView, catalog: &Catalog) -> Result<Vec<AuxViewDef>> {
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
            semijoins: graph.direct_dependencies(table),
        });
    }
    Ok(defs)
}

/// Materializes the PSJ auxiliary views from the sources and returns the
/// loaded stores.
fn load_psj_stores(view: &GpsjView, catalog: &Catalog, db: &Database) -> Result<Vec<AuxStore>> {
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
            let env = RowEnv::single(t, &row);
            for cond in &def.local_conditions {
                if !cond.eval(&env).map_err(MaintainError::from)? {
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
            // Keys are retained, so every tuple is its own group, summing
            // nothing: a run of one.
            store.apply_source_run(&store.group_key_of(&row), 1, 0, &[])?;
        }
        stores.push(store);
    }
    Ok(stores)
}

/// Convenience: the total storage (rows, paper bytes) of a PSJ store set.
fn psj_totals(stores: &[AuxStore]) -> (u64, u64) {
    let rows = stores.iter().map(|s| s.len() as u64).sum();
    let bytes = stores.iter().map(AuxStore::paper_bytes).sum();
    (rows, bytes)
}

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

/// A one-summary warehouse loaded from a generated retail instance.
struct Loaded {
    db: Database,
    schema: RetailSchema,
    wh: Warehouse,
    name: String,
}

fn load(params: RetailParams, sql: &str) -> Loaded {
    let (db, schema) = generate_retail(params, Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    let name = wh.add_summary_sql(sql, &db).unwrap();
    Loaded {
        db,
        schema,
        wh,
        name,
    }
}

impl Loaded {
    /// (tuples, paper bytes) of one auxiliary view.
    fn aux(&self, aux_name: &str) -> (u64, u64) {
        let report = self.wh.storage_report(&self.name).unwrap();
        let line = report.iter().find(|l| l.name == aux_name).unwrap();
        (line.rows, line.paper_bytes)
    }

    /// (tuples, paper bytes) of every auxiliary view the summary reads.
    fn gpsj_totals(&self) -> (u64, u64) {
        let plan = self.wh.plan(&self.name).unwrap();
        let (rows, bytes) = plan
            .aux
            .iter()
            .filter_map(|entry| match entry {
                md_core::AuxEntry::Materialized { def, .. } => Some(self.aux(&def.name)),
                md_core::AuxEntry::Omitted { .. } => None,
            })
            .fold((0, 0), |(r, b), (rows, bytes)| (r + rows, b + bytes));
        assert_eq!(bytes, self.wh.total_detail_bytes());
        (rows, bytes)
    }

    /// (tuples, paper bytes) of the PSJ baseline over the same sources.
    fn psj_totals(&self, sql: &str) -> (u64, u64) {
        let cat = self.db.catalog();
        let view = parse_view(sql, cat, "psj_view").unwrap();
        psj_totals(&load_psj_stores(&view, cat, &self.db).unwrap())
    }

    /// The sale fact table's (tuples, paper bytes) at the sources.
    fn fact(&self) -> (u64, u64) {
        let fact = self.db.table(self.schema.sale);
        (fact.len() as u64, fact.paper_bytes())
    }
}

/// EXPERIMENTS.md E8: every parameter but the duplication factor.
fn sweep_params(factor: u64) -> RetailParams {
    RetailParams {
        days: 12,
        stores: 4,
        products: 40,
        products_sold_per_day_per_store: 10,
        transactions_per_product: factor,
        start_year: 1997,
        year_split: 12, // all inside the view's selection
        seed: 7,
    }
}

#[test]
fn loaded_warehouse_is_consistent() {
    let loaded = load(RetailParams::tiny(), views::PRODUCT_SALES_SQL);
    assert!(loaded.wh.verify_all(&loaded.db).unwrap());
}

#[test]
fn gpsj_detail_is_never_larger_than_psj() {
    for sql in [views::PRODUCT_SALES_SQL, views::STORE_REVENUE_SQL] {
        let loaded = load(RetailParams::tiny(), sql);
        let (_, gpsj_bytes) = loaded.gpsj_totals();
        let (_, psj_bytes) = loaded.psj_totals(sql);
        assert!(
            gpsj_bytes <= psj_bytes,
            "view {}: GPSJ {gpsj_bytes} > PSJ {psj_bytes}",
            loaded.name
        );
    }
}

#[test]
fn compression_ratio_tracks_duplication_factor() {
    // With T transactions per (day, store, product) and a view grouping
    // sales on (timeid, productid), the PSJ fact store holds every
    // transaction while the GPSJ store holds one tuple per group — the
    // row-count ratio must be at least T (stores × T in fact, since the
    // view ignores the store dimension).
    let params = RetailParams {
        days: 6,
        stores: 3,
        products: 8,
        products_sold_per_day_per_store: 4,
        transactions_per_product: 5,
        start_year: 1997, // all data inside the view's year filter
        year_split: 6,
        seed: 5,
    };
    let loaded = load(params, views::PRODUCT_SALES_SQL);
    let (gpsj_fact_rows, _) = loaded.aux("saleDTL");

    let cat = loaded.db.catalog();
    let view = views::product_sales(cat).unwrap();
    let psj = load_psj_stores(&view, cat, &loaded.db).unwrap();
    let psj_fact_rows = psj
        .iter()
        .find(|s| s.def().table == loaded.schema.sale)
        .unwrap()
        .len() as u64;

    assert_eq!(psj_fact_rows, params.fact_rows());
    let ratio = psj_fact_rows as f64 / gpsj_fact_rows as f64;
    assert!(
        ratio >= params.transactions_per_product as f64,
        "ratio {ratio} below the duplication factor"
    );
}

#[test]
fn psj_baseline_counts_transactions() {
    let params = sweep_params(3);
    let loaded = load(params, views::PRODUCT_SALES_SQL);
    let (rows, bytes) = loaded.psj_totals(views::PRODUCT_SALES_SQL);
    // PSJ fact store has one tuple per transaction, plus dimensions.
    assert!(rows >= params.fact_rows());
    assert!(bytes > 0);
}

#[test]
fn psj_and_gpsj_support_the_same_summary() {
    // The PSJ fact store retains enough to recompute the view: grouping
    // its raw tuples must give the same answer the GPSJ warehouse
    // maintains.
    let loaded = load(RetailParams::tiny(), views::PRODUCT_SALES_MAX_SQL);
    let maintained = loaded.wh.summary_bag(&loaded.name).unwrap();

    // Recompute from the PSJ store by brute force.
    let cat = loaded.db.catalog();
    let view = views::product_sales_max(cat).unwrap();
    let psj = load_psj_stores(&view, cat, &loaded.db).unwrap();
    let fact = psj
        .iter()
        .find(|s| s.def().table == loaded.schema.sale)
        .unwrap();
    use std::collections::HashMap;
    let mut groups: HashMap<i64, (f64, f64, i64)> = HashMap::new();
    for (row, state) in fact.iter() {
        assert_eq!(state.cnt, 1, "PSJ stores are uncompressed");
        // PSJ fact columns: id, productid, price (sorted source order).
        let pid = row[1].as_int().unwrap();
        let price = row[2].as_double().unwrap();
        let e = groups.entry(pid).or_insert((f64::MIN, 0.0, 0));
        e.0 = e.0.max(price);
        e.1 += price;
        e.2 += 1;
    }
    let mut recomputed = md_relation::Bag::new();
    for (pid, (mx, sum, n)) in groups {
        recomputed.insert(row![pid, mx, sum, n]);
    }
    assert_eq!(maintained, recomputed);
}

/// E8: `saleDTL` stays at 282 tuples / 4 512 bytes whatever the number of
/// transactions per (day, store, product), while the fact table grows
/// linearly — so the compression ratio is linear in the duplication
/// factor (20, the paper's, gives 42.6×).
#[test]
fn e8_sweep_holds_sale_dtl_flat_while_the_fact_table_grows() {
    let mut ratios = Vec::new();
    for factor in [1, 2, 4, 8, 16, 20, 32, 64] {
        let loaded = load(sweep_params(factor), views::PRODUCT_SALES_SQL);
        let (fact_rows, fact_bytes) = loaded.fact();
        assert_eq!(fact_rows, 480 * factor, "factor {factor}");
        assert_eq!(fact_bytes, 20 * fact_rows, "factor {factor}");
        assert_eq!(loaded.aux("saleDTL"), (282, 4_512), "factor {factor}");
        ratios.push(format!("{:.1}", fact_bytes as f64 / 4_512.0));
    }
    assert_eq!(
        ratios,
        ["2.1", "4.3", "8.5", "17.0", "34.0", "42.6", "68.1", "136.2"]
    );
}

/// E10: minimal GPSJ detail data against the PSJ baseline, on a retail
/// instance of 30 000 sales (20 transactions per (day, store, product),
/// the paper's factor; half the days inside the views' year), for three
/// shapes of view: a compressible sum (`product_sales`: 25.7× smaller), a
/// grouping that collapses the fact table into a few cities
/// (`store_revenue`: 6 000×), and a raw argument that must stay
/// (`product_sales_max`: 2×).
#[test]
fn e10_psj_detail_is_larger_by_view_shape() {
    let params = RetailParams {
        days: 20,
        stores: 3,
        products: 100,
        products_sold_per_day_per_store: 25,
        transactions_per_product: 20,
        start_year: 1996,
        year_split: 10,
        seed: 1997,
    };
    let mut got = Vec::new();
    for sql in [
        views::PRODUCT_SALES_SQL,
        views::STORE_REVENUE_SQL,
        views::PRODUCT_SALES_MAX_SQL,
    ] {
        let loaded = load(params, sql);
        let (gpsj_rows, gpsj_bytes) = loaded.gpsj_totals();
        let (psj_rows, psj_bytes) = loaded.psj_totals(sql);
        let ratio = format!("{:.1}", psj_bytes as f64 / gpsj_bytes as f64);
        got.push((
            loaded.name,
            [gpsj_rows, gpsj_bytes, psj_rows, psj_bytes],
            ratio,
        ));
    }
    let expected = [
        ("product_sales", [640, 9_360, 15_110, 240_880], "25.7"),
        ("store_revenue", [6, 60, 30_003, 360_024], "6000.4"),
        (
            "product_sales_max",
            [15_238, 182_856, 30_000, 360_000],
            "2.0",
        ),
    ];
    assert_eq!(got.len(), expected.len());
    for ((name, sizes, ratio), (want_name, want_sizes, want_ratio)) in got.iter().zip(expected) {
        assert_eq!(
            (name.as_str(), *sizes, ratio.as_str()),
            (want_name, want_sizes, want_ratio)
        );
    }
}

/// E1 (measured): the paper's view over 240 000 sales with the paper's 20
/// transactions per (day, store, product) — the detail data is 101.2×
/// smaller than the fact table.
#[test]
fn e1_measured_instance() {
    let params = RetailParams {
        days: 40,
        stores: 6,
        products: 200,
        products_sold_per_day_per_store: 50,
        transactions_per_product: 20,
        start_year: 1996,
        year_split: 20,
        seed: 1997,
    };
    let loaded = load(params, views::PRODUCT_SALES_SQL);
    assert_eq!(loaded.fact(), (240_000, 4_800_000));
    assert_eq!(loaded.aux("timeDTL"), (20, 160));
    assert_eq!(loaded.aux("productDTL"), (200, 1_600));
    assert_eq!(loaded.aux("saleDTL"), (2_853, 45_648));
    let (_, detail_bytes) = loaded.gpsj_totals();
    assert_eq!(detail_bytes, 47_408);
    assert_eq!(format!("{:.1}", 4_800_000.0 / detail_bytes as f64), "101.2");
}
