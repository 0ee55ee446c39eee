//! Long mixed change streams against a multi-view warehouse, verified
//! against recomputation after every batch — the system-level
//! self-maintainability guarantee.

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
    // Delete the cheapest sale of some category to force MIN recompute.
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
    assert!(wh.stats("by_category").unwrap().groups_recomputed >= 1);
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
