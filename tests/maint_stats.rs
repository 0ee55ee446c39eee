//! The maintenance counters ([`md_maintain::MaintStats`]) must tell the
//! true story of which paths the engine took: plain per-row work for root
//! changes, proven no-ops on dependency-edge dimension inserts and on
//! dimension changes the auxiliary view cannot see, moved contributions
//! for visible dimension updates — and no rebuild anywhere on the feed.
//! They are measurements of this process, not state: no image carries
//! them, and none of them ever goes down.

use md_maintain::MaintStats;
use md_relation::{row, Catalog, Change, DataType, Database, Row, Schema, TableId, Value};
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, time_inserts, views, Contracts,
    RetailParams, UpdateMix,
};

/// Applies every change of `batch` as a batch of its own, in batch order:
/// the engines see each change, none folded into another by coalescing.
fn apply_one_at_a_time(wh: &mut Warehouse, batch: &ChangeBatch) {
    for (table, changes) in batch.groups() {
        for change in changes {
            wh.apply_batch(&ChangeBatch::single(*table, vec![change.clone()]))
                .unwrap();
        }
    }
}

fn delta(before: &MaintStats, after: &MaintStats) -> MaintStats {
    MaintStats {
        rows_processed: after.rows_processed - before.rows_processed,
        groups_recomputed: after.groups_recomputed - before.groups_recomputed,
        summary_rebuilds: after.summary_rebuilds - before.summary_rebuilds,
        dim_noop_changes: after.dim_noop_changes - before.dim_noop_changes,
        dim_targeted_updates: after.dim_targeted_updates - before.dim_targeted_updates,
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
    // product_sales_max has a MAX: deleting a group's maximum moves it to
    // the group's next value, off its value counts — one row of work, no
    // group recomputed from X. Delete the globally most expensive sale so
    // the move is certain, not a roll of the seed.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
        .unwrap();

    let victim = db
        .table(schema.sale)
        .rows()
        .max_by(|a, b| a[4].cmp(&b[4]))
        .unwrap();
    let change = db.delete(schema.sale, &victim[0]).unwrap();
    let runner_up = db
        .table(schema.sale)
        .rows()
        .filter(|r| r[2] == victim[2])
        .map(|r| r[4].clone())
        .max();

    let before = wh.stats("product_sales_max").unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![change]))
        .unwrap();
    let d = delta(&before, &wh.stats("product_sales_max").unwrap());

    assert_eq!(d.rows_processed, 1);
    assert_eq!(d.summary_rebuilds, 0, "root changes never rebuild from X");
    assert_eq!(d.groups_recomputed, 0, "the value counts answer");
    let rows = wh.summary_rows("product_sales_max").unwrap();
    let max_now = rows
        .iter()
        .find(|r| r[0] == victim[2])
        .map(|r| r[1].clone());
    assert_eq!(max_now, runner_up, "MAX moved to the product's next price");
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

/// One manager change per store (the one mutable store column under
/// tight contracts).
fn manager_changes(db: &mut Database, store: TableId) -> Vec<Change> {
    let ids: Vec<Value> = db.table(store).rows().map(|r| r[0].clone()).collect();
    let mut changes = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let old = db.table(store).get(id).unwrap().clone();
        let mut vals = old.into_values();
        vals[4] = Value::str(format!("new-manager-{i}"));
        changes.push(db.update(store, id, Row::new(vals)).unwrap());
    }
    changes
}

#[test]
fn invisible_dimension_updates_are_noops() {
    // store_revenue reads store.city only — a manager change is invisible,
    // and the engine proves the no-op per change instead of repairing
    // anything.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();

    let changes = manager_changes(&mut db, schema.store);

    let before = wh.stats("store_revenue").unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.store, changes.to_vec()))
        .unwrap();
    let d = delta(&before, &wh.stats("store_revenue").unwrap());

    assert_eq!(d.rows_processed, changes.len() as u64);
    assert_eq!(
        d.dim_noop_changes,
        changes.len() as u64,
        "manager is invisible to this view"
    );
    assert_eq!(d.summary_rebuilds, 0);
    assert_eq!(d.dim_targeted_updates, 0);
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn visible_dimension_updates_move_contributions() {
    // product_sales counts DISTINCT brands: a rename is visible and every
    // one of them is propagated as a delta — the product's root auxiliary
    // tuples move to their new contribution, nothing is rebuilt. Each
    // rename is a batch of its own so the engine sees every one
    // (back-to-back renames of the same product would otherwise coalesce
    // into one).
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();

    let before = wh.stats("product_sales").unwrap();
    let changes = product_brand_changes(&mut db, &schema, 3, 53);
    apply_one_at_a_time(&mut wh, &ChangeBatch::single(schema.product, changes));
    let d = delta(&before, &wh.stats("product_sales").unwrap());

    assert_eq!(d.rows_processed, 3);
    assert_eq!(d.dim_targeted_updates, 3, "{d:?}");
    assert_eq!(d.dim_noop_changes, 0);
    assert_eq!(d.summary_rebuilds, 0);
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn a_dim_storm_batch_is_deltas_and_noops_never_a_rebuild() {
    // mdbench's `dim_storm` shape: brand renames, manager updates, new
    // days and sale inserts in one batch over its four views. Which
    // counter a dimension change lands in is decided by what the view's
    // auxiliary view of that dimension retains. The changes are applied
    // one batch each, in batch order, so that none coalesces away.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    let names = [
        "product_sales",
        "store_revenue",
        "daily_product",
        "brand_sales",
    ];
    for sql in [
        views::PRODUCT_SALES_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
        views::BRAND_SALES_SQL,
    ] {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    let before = names.map(|n| wh.stats(n).unwrap());

    let (renames, days, sales) = (4, 4, 32);
    let mut batch = ChangeBatch::new();
    batch.extend(
        schema.product,
        product_brand_changes(&mut db, &schema, renames, 60),
    );
    let managers = manager_changes(&mut db, schema.store);
    batch.extend(schema.store, managers.iter().cloned());
    batch.extend(schema.time, time_inserts(&mut db, &schema, days));
    batch.extend(
        schema.sale,
        sale_changes(&mut db, &schema, sales, UpdateMix::append_only(), 61),
    );
    apply_one_at_a_time(&mut wh, &batch);
    assert!(wh.verify_all(&db).unwrap());

    let (renames, managers, days, sales) = (
        renames as u64,
        managers.len() as u64,
        days as u64,
        sales as u64,
    );
    // (summary, dimension changes it is fed, of which no-ops, of which deltas)
    for (i, (fed, noops, deltas)) in [
        // Renames change COUNT(DISTINCT brand); days are dependency inserts.
        (renames + days, days, renames),
        // `manager` is not retained by storeDTL: ΔX is empty.
        (managers, managers, 0),
        // productDTL keeps only `id` here: a rename is an empty ΔX too.
        (renames + days, renames + days, 0),
        // Grouped by the renamed attribute: facts move between groups.
        (renames, 0, renames),
    ]
    .into_iter()
    .enumerate()
    {
        let d = delta(&before[i], &wh.stats(names[i]).unwrap());
        let name = names[i];
        assert_eq!(d.rows_processed, fed + sales, "{name}: {d:?}");
        assert_eq!(d.dim_noop_changes, noops, "{name}: {d:?}");
        assert_eq!(d.dim_targeted_updates, deltas, "{name}: {d:?}");
        assert_eq!(d.summary_rebuilds, 0, "{name}: {d:?}");
    }
}

/// `product_sales`' shape over a calendar of `days` days spread over
/// three months, in which product 1 sold on the first `sold` days and
/// product 2 on every one: `saleDTL` keeps a tuple per day and product,
/// the view a group per month.
fn month_brands(days: i64, sold: i64) -> (Warehouse, Database, TableId) {
    let mut cat = Catalog::new();
    let int = DataType::Int;
    let time = cat
        .add_table(
            "time",
            Schema::from_pairs(&[("id", int), ("month", int), ("year", int)]),
            0,
        )
        .unwrap();
    let product = cat
        .add_table(
            "product",
            Schema::from_pairs(&[("id", int), ("brand", DataType::Str)]),
            0,
        )
        .unwrap();
    let sale = cat
        .add_table(
            "sale",
            Schema::from_pairs(&[
                ("id", int),
                ("timeid", int),
                ("productid", int),
                ("price", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(sale, 1, time).unwrap();
    cat.add_foreign_key(sale, 2, product).unwrap();
    cat.set_append_only(time).unwrap();
    cat.set_updatable_columns(product, &[1]).unwrap();
    cat.set_updatable_columns(sale, &[3]).unwrap();
    let mut db = Database::new(cat.clone());
    for day in 1..=days {
        db.insert(time, row![day, 1 + (day - 1) % 3, 1997]).unwrap();
    }
    db.insert(product, row![1, "acme"]).unwrap();
    db.insert(product, row![2, "zeta"]).unwrap();
    let sales = (1..=sold)
        .map(|day| (day, 1))
        .chain((1..=days).map(|day| (day, 2)));
    for (id, (day, productid)) in sales.enumerate() {
        db.insert(sale, row![id as i64, day, productid, 2.5])
            .unwrap();
    }
    let mut wh = Warehouse::new(&cat);
    wh.add_summary_sql(
        "CREATE VIEW month_brands AS
         SELECT time.month, SUM(price) AS Revenue, COUNT(*) AS N,
                COUNT(DISTINCT brand) AS Brands
         FROM sale, time, product
         WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
         GROUP BY time.month",
        &db,
    )
    .unwrap();
    (wh, db, product)
}

/// `maintain.dim_joined` and `maintain.dim_runs` of `month_brands`.
fn dim_counts(wh: &Warehouse) -> [u64; 2] {
    let labels = [("summary", "month_brands")];
    ["maintain.dim_joined", "maintain.dim_runs"].map(|c| wh.obs().counter(c, &labels).get())
}

#[test]
fn a_rename_counts_its_joined_tuples_and_two_runs_per_group() {
    // Product 1 sold on k = 7 days over m = 3 months: its rename joins 7
    // root auxiliary tuples and folds them as 3 buckets out of the old
    // brand and 3 into the new one — not 7 moves of two runs each.
    let (mut wh, mut db, product) = month_brands(9, 7);
    let before = dim_counts(&wh);
    assert_eq!(before, [0, 0], "the load is no dimension delta");
    let rename = db.update(product, &Value::Int(1), row![1, "nova"]).unwrap();
    wh.apply_batch(&ChangeBatch::single(product, vec![rename]))
        .unwrap();
    assert_eq!(dim_counts(&wh), [7, 6]);
    assert_eq!(wh.stats("month_brands").unwrap().dim_targeted_updates, 1);
    assert!(wh.verify_all(&db).unwrap());

    // Product 2 (sold all 9 days) joins "nova": 9 tuples, 3 + 3 buckets.
    let join = db.update(product, &Value::Int(2), row![2, "nova"]).unwrap();
    wh.apply_batch(&ChangeBatch::single(product, vec![join]))
        .unwrap();
    assert_eq!(dim_counts(&wh), [16, 12]);
    // Both products leave "nova" for "vega" in one group: each month's
    // bucket holds both products' tuples, so the group folds 3 buckets
    // out and 3 in — buckets per group, not 6 + 6 per change — and still
    // counts two targeted changes.
    let renames = [1, 2].map(|p| db.update(product, &Value::Int(p), row![p, "vega"]).unwrap());
    wh.apply_batch(&ChangeBatch::single(product, renames.to_vec()))
        .unwrap();
    assert_eq!(dim_counts(&wh), [32, 18]);
    assert_eq!(wh.stats("month_brands").unwrap().dim_targeted_updates, 4);
    assert!(wh.verify_all(&db).unwrap());

    // Like every counter, neither is in the image: a restored warehouse
    // counts from zero.
    let restored = Warehouse::builder()
        .restore(db.catalog(), &wh.save().unwrap())
        .unwrap();
    assert_eq!(
        restored.stats("month_brands").unwrap(),
        MaintStats::default()
    );
    assert_eq!(dim_counts(&restored), [0, 0]);
}

#[test]
fn restored_and_recovered_warehouses_count_from_zero() {
    // A restore counts nothing; a recovery counts the batches it replays
    // and nothing before them — and both save the live warehouse's bytes.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 30, UpdateMix::balanced(), 54);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .unwrap();
    let image = wh.save().unwrap();
    let at_image = wh.stats("product_sales").unwrap();
    assert!(at_image.rows_processed > 0);
    let changes = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 55);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .unwrap();
    let replayed = delta(&at_image, &wh.stats("product_sales").unwrap());

    let restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();
    assert_eq!(
        restored.stats("product_sales").unwrap(),
        MaintStats::default()
    );
    assert_eq!(restored.save().unwrap(), image);

    let recovered = Warehouse::builder()
        .recover(db.catalog(), &image, wh.wal_bytes().unwrap())
        .unwrap();
    assert_eq!(recovered.stats("product_sales").unwrap(), replayed);
    assert_eq!(recovered.save().unwrap(), wh.save().unwrap());
}
