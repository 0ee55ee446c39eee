//! The maintenance counters ([`md_maintain::MaintStats`]) must tell the
//! true story of which paths the engine took: plain per-row work for root
//! changes, proven no-ops on dependency-edge dimension inserts, targeted
//! or rebuild repairs for visible dimension updates.

use md_maintain::MaintStats;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, time_inserts, views, Contracts,
    RetailParams, UpdateMix,
};

fn delta(before: &MaintStats, after: &MaintStats) -> MaintStats {
    MaintStats {
        rows_processed: after.rows_processed - before.rows_processed,
        groups_recomputed: after.groups_recomputed - before.groups_recomputed,
        summary_rebuilds: after.summary_rebuilds - before.summary_rebuilds,
        dim_noop_changes: after.dim_noop_changes - before.dim_noop_changes,
        dim_targeted_updates: after.dim_targeted_updates - before.dim_targeted_updates,
        ..MaintStats::default()
    }
}

#[test]
fn root_inserts_count_rows_and_touch_nothing_else() {
    // store_revenue is CSMAS-only (SUM/AVG/COUNT): inserts adjust groups
    // in place — no recomputation, no rebuild, no dimension paths.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();

    let before = wh.stats("store_revenue").unwrap();
    let changes = sale_changes(&mut db, &schema, 25, UpdateMix::append_only(), 50);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();
    let d = delta(&before, &wh.stats("store_revenue").unwrap());

    assert_eq!(d.rows_processed, 25, "one count per root change");
    assert_eq!(d.summary_rebuilds, 0, "inserts never force a rebuild");
    assert_eq!(d.dim_noop_changes, 0);
    assert_eq!(d.dim_targeted_updates, 0);
    assert_eq!(d.groups_recomputed, 0, "appends adjust CSMAS in place");
}

#[test]
fn root_deletes_recompute_only_extremum_groups() {
    // product_sales_max has a MAX: deleting a group's maximum forces that
    // group to be recomputed. Delete the globally most expensive sale so
    // the recomputation is certain, not a roll of the seed.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
        .unwrap();

    let victim_id = db
        .table(schema.sale)
        .rows()
        .max_by(|a, b| a[4].cmp(&b[4]))
        .unwrap()[0]
        .clone();
    let change = db.delete(schema.sale, &victim_id).unwrap();

    let before = wh.stats("product_sales_max").unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![change]))
        .unwrap();
    let d = delta(&before, &wh.stats("product_sales_max").unwrap());

    assert_eq!(d.rows_processed, 1);
    assert_eq!(d.summary_rebuilds, 0, "root changes never rebuild from X");
    assert!(
        d.groups_recomputed >= 1,
        "deleting a maximum must recompute its group"
    );
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn dependency_edge_inserts_are_proven_noops() {
    // `time` rows are referenced by `sale` via a dependency edge: fresh
    // days cannot join with existing facts, so the engine counts them as
    // no-ops and leaves the summary untouched.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();

    let summary_before = wh.summary_rows("product_sales").unwrap();
    let before = wh.stats("product_sales").unwrap();
    let changes = time_inserts(&mut db, &schema, 4);
    wh.apply_batch(&ChangeBatch::single(schema.time, changes.to_vec()))
        .unwrap();
    let d = delta(&before, &wh.stats("product_sales").unwrap());

    assert_eq!(d.rows_processed, 4);
    assert_eq!(d.dim_noop_changes, 4, "dependency-edge inserts are no-ops");
    assert_eq!(d.summary_rebuilds, 0);
    assert_eq!(d.dim_targeted_updates, 0);
    assert_eq!(wh.summary_rows("product_sales").unwrap(), summary_before);
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn invisible_dimension_updates_are_noops() {
    // store_revenue reads store.city only — a manager change (the one
    // mutable store column under tight contracts) is invisible, and the
    // engine proves the no-op per change instead of repairing anything.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();

    let ids: Vec<md_relation::Value> = db
        .table(schema.store)
        .rows()
        .map(|r| r[0].clone())
        .collect();
    let mut changes = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let old = db.table(schema.store).get(id).unwrap().clone();
        let mut vals = old.into_values();
        vals[4] = md_relation::Value::str(format!("new-manager-{i}"));
        changes.push(
            db.update(schema.store, id, md_relation::Row::new(vals))
                .unwrap(),
        );
    }

    let before = wh.stats("store_revenue").unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.store, changes.to_vec()))
        .unwrap();
    let d = delta(&before, &wh.stats("store_revenue").unwrap());

    assert_eq!(d.rows_processed, ids.len() as u64);
    assert_eq!(
        d.dim_noop_changes,
        ids.len() as u64,
        "manager is invisible to this view"
    );
    assert_eq!(d.summary_rebuilds, 0);
    assert_eq!(d.dim_targeted_updates, 0);
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn visible_dimension_updates_repair_targeted_or_rebuild() {
    // product_sales counts DISTINCT brands: a rename is visible and must
    // be repaired — either by the targeted per-group path or by a full
    // rebuild from the auxiliary views, never silently. Coalescing is
    // disabled so the engine sees every rename (back-to-back renames of
    // the same product would otherwise fold into one).
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().coalesce(false).build(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();

    let before = wh.stats("product_sales").unwrap();
    let changes = product_brand_changes(&mut db, &schema, 3, 53);
    wh.apply_batch(&ChangeBatch::single(schema.product, changes.to_vec()))
        .unwrap();
    let d = delta(&before, &wh.stats("product_sales").unwrap());

    assert_eq!(d.rows_processed, 3);
    assert!(
        d.dim_targeted_updates + d.summary_rebuilds > 0,
        "a visible rename must take a repair path: {d:?}"
    );
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn counters_survive_save_restore_and_recovery() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 30, UpdateMix::balanced(), 54);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();
    let stats = wh.stats("product_sales").unwrap();
    assert!(stats.rows_processed > 0);

    let image = wh.save().unwrap();
    let restored = Warehouse::restore(db.catalog(), &image).unwrap();
    assert_eq!(restored.stats("product_sales").unwrap(), stats);

    let recovered = Warehouse::recover(db.catalog(), &image, wh.wal_bytes().unwrap()).unwrap();
    assert_eq!(recovered.stats("product_sales").unwrap(), stats);
}
