//! Long mixed change streams against a multi-view warehouse, verified
//! against recomputation after every batch — the system-level
//! self-maintainability guarantee.

#[path = "../crates/maintain/tests/common/mod.rs"]
mod common;

use common::Solo;
use md_maintain::MaintStats;
use md_relation::{Catalog, Change, Database, TableId};
use md_sql::parse_view;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, generate_snowflake, product_brand_changes, sale_changes, time_inserts, views,
    Contracts, RetailParams, SnowflakeParams, UpdateMix,
};

#[test]
fn three_views_under_a_long_mixed_stream() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
    assert!(wh.verify_all(&db).unwrap());

    for batch in 0..10 {
        let changes = sale_changes(&mut db, &schema, 50, UpdateMix::balanced(), 100 + batch);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap(), "diverged at batch {batch}");
    }
}

#[test]
fn dimension_growth_and_rebranding() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();

    // Calendar grows (dependency no-ops)…
    let changes = time_inserts(&mut db, &schema, 10);
    wh.apply_batch(&ChangeBatch::single(schema.time, changes.to_vec()))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
    assert!(wh.stats("product_sales").unwrap().dim_noop_changes >= 10);

    // …brands churn (each rename the batch keeps after coalescing moves
    // the product's root auxiliary tuples to their new contribution — from
    // X, never from the sources, and never by rebuilding V)…
    let changes = product_brand_changes(&mut db, &schema, 8, 21);
    let batch = ChangeBatch::single(schema.product, changes.to_vec());
    let renames = batch.coalesced().change_count() as u64;
    wh.apply_batch(&batch).unwrap();
    assert!(wh.verify_all(&db).unwrap());
    let stats = wh.stats("product_sales").unwrap();
    assert_eq!(stats.dim_targeted_updates, renames);
    assert_eq!(stats.summary_rebuilds, 0);

    // …and facts keep flowing afterwards.
    let changes = sale_changes(&mut db, &schema, 100, UpdateMix::balanced(), 22);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn eliminated_root_view_under_stream() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
    assert!(wh.plan("daily_product").unwrap().root_omitted());

    for batch in 0..6 {
        let changes = sale_changes(&mut db, &schema, 40, UpdateMix::balanced(), 300 + batch);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap(), "diverged at batch {batch}");
    }
    // The warehouse holds no fact detail data at all for this view.
    let report = wh.storage_report("daily_product").unwrap();
    assert!(report.iter().all(|l| l.name != "saleDTL"));
}

#[test]
fn snowflake_rollup_under_stream() {
    let (mut db, schema) = generate_snowflake(SnowflakeParams::tiny());
    let catalog = db.catalog().clone();
    let mut wh = Warehouse::new(&catalog);
    wh.add_summary_sql(
        "CREATE VIEW by_category AS \
         SELECT category.name, SUM(price) AS Revenue, COUNT(*) AS Sales, \
                MIN(price) AS Cheapest \
         FROM sale, product, category \
         WHERE sale.productid = product.id AND product.categoryid = category.id \
         GROUP BY category.name",
        &db,
    )
    .unwrap();
    assert!(wh.verify_all(&db).unwrap());

    // Fact inserts and deletes through the two-hop chain.
    use md_relation::Value;
    let base = db
        .table(schema.sale)
        .rows()
        .map(|r| r[0].as_int().unwrap())
        .max()
        .unwrap()
        + 1;
    for i in 0..30 {
        let c = db
            .insert(
                schema.sale,
                md_relation::row![base + i, (i % 6) + 1, (i % 12) + 1, 0.5 + i as f64],
            )
            .unwrap();
        wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c]))
            .unwrap();
    }
    assert!(wh.verify_all(&db).unwrap());
    // Delete the cheapest sale of all: its category's MIN must fall back
    // to the cheapest sale it has left.
    let victim = db
        .table(schema.sale)
        .rows()
        .min_by(|a, b| {
            a[3].as_double()
                .unwrap()
                .total_cmp(&b[3].as_double().unwrap())
        })
        .map(|r| r[0].as_int().unwrap())
        .unwrap();
    let c = db.delete(schema.sale, &Value::Int(victim)).unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c]))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
    let cheapest_left = db
        .table(schema.sale)
        .rows()
        .map(|r| r[3].as_double().unwrap())
        .min_by(f64::total_cmp)
        .unwrap();
    let rows = wh.summary_rows("by_category").unwrap();
    assert!(rows.iter().any(|r| r[3] == Value::Double(cheapest_left)));
    assert_eq!(wh.stats("by_category").unwrap().groups_recomputed, 0);
}

#[test]
fn append_only_stream_is_cheap() {
    // The old-detail-data regime: insert-only streams never trigger
    // recomputations for CSMAS-only views.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 200, UpdateMix::append_only(), 77);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
    let stats = wh.stats("store_revenue").unwrap();
    assert_eq!(stats.groups_recomputed, 0);
    assert_eq!(stats.summary_rebuilds, 0);
}

/// `load(R) = apply(∅, +R)`: an engine loaded from `db` and an empty one
/// fed every table's rows as one batch of inserts — children before
/// parents, the order the load fills `X` in — hold the same `{V} ∪ X`,
/// and both agree with the oracles. Where the root auxiliary view is kept
/// this pits the reconstruction query against the summary fold. Returns
/// whether the plan eliminated it (the load's other branch).
fn assert_load_equals_inserts_into_empty(sql: &str, db: &Database) -> bool {
    let cat = db.catalog();
    let view = parse_view(sql, cat, "v").unwrap();
    let name = &view.name;
    let plan = md_core::derive(&view, cat).unwrap();
    let fresh = || Solo::new(plan.clone(), cat).unwrap();

    let mut loaded = fresh();
    loaded.initial_load(db).unwrap();
    // The load is not a batch: no work counted, no LSN consumed.
    assert_eq!(loaded.engine.stats(), MaintStats::default(), "{name}");
    for &table in &loaded.engine.plan().view.tables {
        let lsn = loaded.engine.applied_lsn(table, &loaded.stores);
        assert_eq!(lsn, 0, "{name}");
    }

    let mut fed = fresh();
    let graph = &fed.engine.plan().graph;
    let mut order = vec![graph.root()];
    let mut next = 0;
    while let Some(&table) = order.get(next) {
        order.extend(graph.children(table).map(|edge| edge.to));
        next += 1;
    }
    for table in order.into_iter().rev() {
        let inserts: Vec<Change> = db.table(table).rows().map(Change::Insert).collect();
        fed.apply(table, &inserts).unwrap();
    }

    for solo in [&loaded, &fed] {
        assert!(solo.engine.verify_against(db).unwrap(), "{name}");
        assert!(solo.verify_aux_against(db).unwrap(), "{name}");
        let audit = solo.audit();
        assert!(audit.is_clean(), "{name}: {:?}", audit.findings);
    }
    assert_eq!(
        loaded.engine.summary_bag().unwrap(),
        fed.engine.summary_bag().unwrap(),
        "{name}"
    );
    // Groups a HAVING clause hides are state too.
    let all_groups = loaded.engine.summary().to_bag_unfiltered();
    assert_eq!(
        all_groups,
        fed.engine.summary().to_bag_unfiltered(),
        "{name}"
    );
    if !view.having.is_empty() {
        let shown = loaded.engine.summary_bag().unwrap().len();
        assert!(0 < shown && shown < all_groups.len(), "{name}: {shown}");
    }
    assert_eq!(loaded.aux_stores().count(), fed.aux_stores().count());
    for (l, f) in loaded.aux_stores().zip(fed.aux_stores()) {
        assert_eq!(l.materialized_rows(), f.materialized_rows(), "{name}");
    }
    loaded.engine.plan().root_omitted()
}

#[test]
fn loading_is_inserting_into_the_empty_warehouse() {
    let (retail, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let root_omitted = [
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
        views::BRAND_SALES_SQL,
        // HAVING over a kept and over an eliminated root auxiliary view:
        // the groups below the threshold are loaded all the same.
        "CREATE VIEW busy_categories AS \
         SELECT product.category, AVG(price) AS AvgPrice, COUNT(*) AS N \
         FROM sale, product WHERE sale.productid = product.id \
         GROUP BY product.category HAVING COUNT(*) >= 30",
        "CREATE VIEW repeat_buys AS \
         SELECT time.id AS timeid, product.id AS productid, AVG(price) AS AvgPrice, \
                COUNT(*) AS N \
         FROM sale, time, product \
         WHERE sale.timeid = time.id AND sale.productid = product.id \
         GROUP BY time.id, product.id HAVING COUNT(*) >= 4",
    ]
    .map(|sql| assert_load_equals_inserts_into_empty(sql, &retail));
    assert_eq!(
        root_omitted,
        [false, false, false, true, false, false, true]
    );

    // A snowflake chain reduced from its far end.
    let (snowflake, _) = generate_snowflake(SnowflakeParams::tiny());
    let root_omitted = assert_load_equals_inserts_into_empty(
        "CREATE VIEW first_category AS \
         SELECT product.brand, SUM(sale.price) AS Revenue, COUNT(*) AS N \
         FROM sale, product, category \
         WHERE sale.productid = product.id AND product.categoryid = category.id \
           AND category.id = 1 \
         GROUP BY product.brand",
        &snowflake,
    );
    assert!(!root_omitted);

    // The append-only regime: MIN/MAX from deltas alone, no root view.
    let mut cat: Catalog = retail.catalog().clone();
    let tables: Vec<TableId> = vec![schema.time, schema.product, schema.store, schema.sale];
    for &table in &tables {
        cat.set_insert_only(table).unwrap();
    }
    let mut archive = Database::new(cat);
    for &table in &tables {
        for row in retail.table(table).rows() {
            archive.insert(table, row).unwrap();
        }
    }
    let sql = "CREATE VIEW price_range AS \
               SELECT product.brand, MIN(price) AS Lo, MAX(price) AS Hi, COUNT(*) AS N \
               FROM sale, product WHERE sale.productid = product.id \
               GROUP BY product.brand";
    assert!(assert_load_equals_inserts_into_empty(sql, &archive));
}
