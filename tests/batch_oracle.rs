//! The batch scheduler against the recompute oracle: multi-table batches
//! over the retail star and the snowflake keep every summary equal to its
//! recomputation from the sources after every batch; coalescing changes
//! what reaches the engines and the log, never what they hold; a crash at
//! any injection point recovers to a warehouse that never crashed; and a
//! rejected batch leaves its dead letters sorted by `(table, LSN)`, the
//! offending change named on its own group.

use md_maintain::Wal;
use md_relation::{row, Change, Database, TableId, Value};
use md_warehouse::{ChangeBatch, FaultPlan, Warehouse, WarehouseBuilder};
use md_workload::{
    generate_retail, generate_snowflake, hot_sale_batches, product_brand_changes, sale_changes,
    time_inserts, views, Contracts, HotBatchParams, RetailParams, RetailSchema, SnowflakeParams,
    SnowflakeSchema, UpdateMix,
};

const RETAIL_VIEWS: [&str; 4] = [
    views::PRODUCT_SALES_SQL,
    views::PRODUCT_SALES_MAX_SQL,
    views::STORE_REVENUE_SQL,
    views::DAILY_PRODUCT_SQL,
];

fn retail_warehouse(db: &Database, builder: WarehouseBuilder) -> Warehouse {
    let mut wh = builder.build(db.catalog());
    for sql in RETAIL_VIEWS {
        wh.add_summary_sql(sql, db).unwrap();
    }
    wh
}

/// Multi-table batch schedule over the retail star, fixed up front so
/// every warehouse under test sees identical change vectors.
fn retail_schedule(db: &mut Database, schema: &RetailSchema) -> Vec<ChangeBatch> {
    let mut out = Vec::new();
    let mut batch = ChangeBatch::new();
    batch.extend(
        schema.sale,
        sale_changes(db, schema, 20, UpdateMix::balanced(), 301),
    );
    batch.extend(schema.product, product_brand_changes(db, schema, 3, 302));
    out.push(batch);

    let mut batch = ChangeBatch::new();
    batch.extend(
        schema.sale,
        sale_changes(
            db,
            schema,
            20,
            UpdateMix {
                delete_pct: 30,
                update_pct: 30,
            },
            303,
        ),
    );
    batch.extend(schema.time, time_inserts(db, schema, 2));
    out.push(batch);

    out.push(ChangeBatch::single(
        schema.sale,
        sale_changes(db, schema, 20, UpdateMix::balanced(), 304),
    ));
    out
}

/// Applies `schedule` batch by batch, checking every summary against its
/// recomputation from `db` after each. `db` holds the sources after the
/// whole schedule, so the schedule is replayed into `sources`, which start
/// where the warehouse did.
fn assert_verifies_after_every_batch(
    wh: &mut Warehouse,
    sources: &mut Database,
    schedule: &[ChangeBatch],
    ctx: &str,
) {
    for (i, batch) in schedule.iter().enumerate() {
        wh.apply_batch(batch).unwrap();
        for (table, changes) in batch.groups() {
            let key = sources.catalog().def(*table).unwrap().key_col;
            for change in changes {
                match change {
                    Change::Insert(row) => sources.insert(*table, row.clone()),
                    Change::Delete(row) => sources.delete(*table, &row[key]),
                    Change::Update { old, new } => sources.update(*table, &old[key], new.clone()),
                }
                .unwrap();
            }
        }
        assert!(wh.verify_all(sources).unwrap(), "{ctx}: batch {i}");
    }
}

#[test]
fn retail_summaries_verify_after_every_batch() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut sources = db.clone();
    let mut wh = retail_warehouse(&db, Warehouse::builder());
    let schedule = retail_schedule(&mut db, &schema);
    assert_verifies_after_every_batch(&mut wh, &mut sources, &schedule, "retail");
}

#[test]
fn snowflake_summaries_verify_after_every_batch() {
    let (mut db, schema) = generate_snowflake(SnowflakeParams::tiny());
    let mut sources = db.clone();
    let sqls = [
        "CREATE VIEW by_category AS \
         SELECT category.name, SUM(price) AS Revenue, COUNT(*) AS Sales \
         FROM sale, product, category \
         WHERE sale.productid = product.id AND product.categoryid = category.id \
         GROUP BY category.name",
        "CREATE VIEW by_product AS \
         SELECT product.id AS productid, SUM(price) AS Revenue, COUNT(*) AS Sales \
         FROM sale, product WHERE sale.productid = product.id GROUP BY product.id",
        "CREATE VIEW by_department AS \
         SELECT category.department, SUM(price) AS Revenue, COUNT(*) AS Sales \
         FROM sale, product, category \
         WHERE sale.productid = product.id AND product.categoryid = category.id \
         GROUP BY category.department",
        "CREATE VIEW monthly AS \
         SELECT sale.timeid, SUM(price) AS Revenue, COUNT(*) AS Sales \
         FROM sale GROUP BY sale.timeid",
    ];
    let mut wh = Warehouse::new(db.catalog());
    for sql in sqls {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    let schedule = snowflake_schedule(&mut db, &schema);
    assert_verifies_after_every_batch(&mut wh, &mut sources, &schedule, "snowflake");
}

/// Inserts, hot-row price updates and deletes over the snowflake fact,
/// plus fresh product/category rows — multi-table batches again.
fn snowflake_schedule(db: &mut Database, schema: &SnowflakeSchema) -> Vec<ChangeBatch> {
    let next_sale = 1 + db
        .table(schema.sale)
        .rows()
        .map(|r| r.values()[0].as_int().unwrap())
        .max()
        .unwrap();
    let mut out = Vec::new();

    let mut batch = ChangeBatch::new();
    let mut changes = Vec::new();
    for i in 0..10i64 {
        changes.push(
            db.insert(
                schema.sale,
                row![next_sale + i, 1 + (i % 3), 1 + (i % 5), 7.5],
            )
            .unwrap(),
        );
    }
    // Hot-row churn: the same sale repriced three times in one batch —
    // exactly what coalescing folds to a single net update.
    for price in [8.0, 9.0, 10.0] {
        let old = db.table(schema.sale).rows().next().unwrap().clone();
        let key = old.values()[0].clone();
        let mut v = old.values().to_vec();
        v[3] = Value::Double(price);
        changes.push(db.update(schema.sale, &key, v.into()).unwrap());
    }
    batch.extend(schema.sale, changes);
    batch.push(
        schema.category,
        db.insert(schema.category, row![100, "category-x", "food"])
            .unwrap(),
    );
    out.push(batch);

    let mut batch = ChangeBatch::new();
    batch.push(
        schema.product,
        db.insert(schema.product, row![100, "brand-x", 100])
            .unwrap(),
    );
    batch.push(
        schema.sale,
        db.delete(schema.sale, &Value::Int(next_sale)).unwrap(),
    );
    out.push(batch);
    out
}

#[test]
fn coalescing_is_a_pure_optimization() {
    // Same schedule, coalesced batches vs every change a batch of its own
    // (nothing to coalesce): identical summaries and verification,
    // strictly fewer changes reaching the engines.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut on = retail_warehouse(&db, Warehouse::builder());
    let mut off = retail_warehouse(&db, Warehouse::builder());
    for batch in retail_schedule(&mut db, &schema) {
        on.apply_batch(&batch).unwrap();
        for (table, changes) in batch.groups() {
            for change in changes {
                off.apply_batch(&ChangeBatch::single(*table, vec![change.clone()]))
                    .unwrap();
            }
        }
    }
    assert!(on.verify_all(&db).unwrap());
    assert!(off.verify_all(&db).unwrap());
    for sql in RETAIL_VIEWS {
        let name = sql.split_whitespace().nth(2).unwrap();
        assert_eq!(
            on.summary_rows(name).unwrap(),
            off.summary_rows(name).unwrap(),
            "'{name}' must not depend on coalescing"
        );
    }
    let (s_on, s_off) = (on.scheduler_stats(), off.scheduler_stats());
    assert_eq!(s_on.changes_submitted, s_off.changes_submitted);
    assert_eq!(s_off.changes_applied, s_off.changes_submitted);
    assert!(
        s_on.changes_applied < s_on.changes_submitted,
        "the repriced sale folds to one update"
    );
}

#[test]
fn crashes_recover_to_the_fault_free_oracle() {
    // Every injection point the batch path traverses, crashed and
    // recovered — the recovered warehouse must equal a fault-free
    // warehouse fed the surviving batches.
    for (point, nth) in [
        ("warehouse.apply.begin", 0),
        ("engine.apply.begin", 0),
        ("engine.apply.begin", 2),
        ("engine.apply.change", 0),
        ("engine.apply.change", 7),
        ("engine.apply.flush", 1),
        ("warehouse.wal.torn", 0),
        ("warehouse.wal.append", 0),
        ("warehouse.apply.commit", 0),
    ] {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut plan = FaultPlan::recording();
        let mut wh = retail_warehouse(&db, Warehouse::builder().fault_plan(plan.clone()));
        let mut oracle = retail_warehouse(&db, Warehouse::builder());

        // Committed pre-crash traffic and the last periodic snapshot.
        let warmup = ChangeBatch::single(
            schema.sale,
            sale_changes(&mut db, &schema, 15, UpdateMix::balanced(), 300),
        );
        wh.apply_batch(&warmup).unwrap();
        oracle.apply_batch(&warmup).unwrap();
        let snapshot = wh.save().unwrap();

        plan.arm(point, nth);
        let mut fired = false;
        for batch in retail_schedule(&mut db, &schema) {
            match wh.apply_batch(&batch) {
                Ok(()) => oracle.apply_batch(&batch).unwrap(),
                Err(e) => {
                    assert!(
                        e.to_string().contains("injected fault"),
                        "'{point}': expected the injected fault, got {e}"
                    );
                    if point == "warehouse.apply.commit" {
                        // Crash after the log append: the batch is durable
                        // and recovery will replay it.
                        oracle.apply_batch(&batch).unwrap();
                    }
                    fired = true;
                    break;
                }
            }
        }
        assert!(fired, "fault plan for '{point}' (nth {nth}) never fired");

        let wal = wh.wal_bytes().unwrap().to_vec();
        drop(wh);
        let recovered = Warehouse::builder()
            .recover(db.catalog(), &snapshot, &wal)
            .unwrap();
        assert!(
            recovered.dead_letters().is_empty(),
            "'{point}': replay must not dead-letter: {:?}",
            recovered.dead_letters()
        );
        for sql in RETAIL_VIEWS {
            let name = sql.split_whitespace().nth(2).unwrap();
            assert_eq!(
                recovered.summary_rows(name).unwrap(),
                oracle.summary_rows(name).unwrap(),
                "'{name}' after crash at '{point}' (nth {nth})"
            );
        }
    }
}

fn append_only_setup() -> (Database, TableId, TableId) {
    use md_relation::{Catalog, DataType, Schema};
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
    cat.set_insert_only(product).unwrap();
    cat.set_insert_only(sale).unwrap();
    let mut db = Database::new(cat);
    db.insert(product, row![1, "acme"]).unwrap();
    db.insert(sale, row![1, 1, 2.5]).unwrap();
    (db, product, sale)
}

const BY_BRAND: &str = "CREATE VIEW by_brand AS \
    SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS N \
    FROM sale, product WHERE sale.productid = product.id \
    GROUP BY product.brand";

/// The door holds the *coalesced* group. A delete on an insert-only
/// table is refused on its own, but an insert and a delete of the same
/// row in one batch cancel before the door: the batch commits and the
/// table logs an empty frame.
#[test]
fn a_forbidden_pair_that_cancels_in_its_batch_never_meets_the_door() {
    let (db, _, sale) = append_only_setup();
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(BY_BRAND, &db).unwrap();
    let alone = ChangeBatch::single(sale, vec![Change::Delete(row![1, 1, 2.5])]);
    let err = wh.apply_batch(&alone).unwrap_err();
    assert!(err.to_string().contains("insert-only"), "got: {err}");
    assert_eq!(wh.dead_letters().len(), 1);

    let pair = vec![
        Change::Insert(row![2, 1, 4.0]),
        Change::Delete(row![2, 1, 4.0]),
    ];
    wh.apply_batch(&ChangeBatch::single(sale, pair)).unwrap();
    assert_eq!(wh.dead_letters().len(), 1, "the pair is not dead-lettered");
    let (records, _) = Wal::replay(wh.wal_bytes().unwrap()).unwrap();
    let last = records.last().expect("the pair's frame");
    assert_eq!((last.table, last.changes.len()), (sale, 0));
    assert!(wh.verify_all(&db).unwrap());
}

/// A key-changing update is refused on its own, but one that folds into
/// an earlier insert of its old row is admitted as the insert of its new
/// row: what the door sees is the group's net effect, so coalescing must
/// fold key-changing updates exactly.
#[test]
fn a_key_change_folded_into_an_insert_is_admitted_as_that_insert() {
    let (mut db, _, sale) = append_only_setup();
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(BY_BRAND, &db).unwrap();
    let moved = |old, new| Change::Update { old, new };
    let alone = ChangeBatch::single(sale, vec![moved(row![1, 1, 2.5], row![5, 1, 2.5])]);
    assert!(wh.apply_batch(&alone).is_err());
    assert_eq!(wh.dead_letters().len(), 1);

    let folded = vec![
        Change::Insert(row![2, 1, 4.0]),
        moved(row![2, 1, 4.0], row![3, 1, 4.0]),
    ];
    wh.apply_batch(&ChangeBatch::single(sale, folded)).unwrap();
    let (records, _) = Wal::replay(wh.wal_bytes().unwrap()).unwrap();
    let last = records.last().expect("the batch's frame");
    assert_eq!(last.changes, [Change::Insert(row![3, 1, 4.0])]);
    db.insert(sale, row![3, 1, 4.0]).unwrap();
    assert!(wh.verify_all(&db).unwrap());
}

/// A product batch that puts a second tuple under a key value the
/// product view holds — `[Insert(p′), Delete(p)]`, p′ being product p
/// under another brand — is rejected at the insert: a join hop reads the
/// key index alone, which holds one tuple per key value. Taken, the batch
/// would let the insert overwrite p's key-index entry and the delete drop
/// it, and p′ would join nothing.
#[test]
fn a_second_tuple_under_a_held_dimension_key_is_rejected() {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let image = wh.save().unwrap();

    // Raw changes, not applied to `db`: the batch must bounce.
    let p = db.table(schema.product).rows().next().expect("a product");
    let mut rebranded = p.values().to_vec();
    rebranded[1] = Value::str("another brand");
    let changes = vec![
        Change::Insert(md_relation::Row::new(rebranded)),
        Change::Delete(p),
    ];
    let err = wh
        .apply_batch(&ChangeBatch::single(schema.product, changes))
        .unwrap_err();
    assert!(
        err.to_string().contains("under one key value"),
        "got: {err}"
    );
    let letters = wh.dead_letters();
    assert_eq!(letters.len(), 1);
    assert_eq!(
        (letters[0].table, letters[0].change_index),
        (schema.product, Some(0))
    );

    // Nothing of the batch took: the warehouse equals the unchanged
    // sources, and its key indexes are exact.
    assert_eq!(wh.save().unwrap(), image);
    assert!(wh.verify_all(&db).unwrap());
    for (name, report) in wh.audit() {
        assert!(report.is_clean(), "audit of '{name}': {report:?}");
    }
}

#[test]
fn dead_letters_are_sorted_and_name_the_offending_change() {
    // A multi-table batch whose sale group violates append-only is
    // rejected whole: one letter per group, sorted by (table, LSN), the
    // blamed change on the sale group's delete only, and nothing of the
    // batch committed.
    let (mut db, product, sale) = append_only_setup();
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(BY_BRAND, &db).unwrap();
    let rows_before = wh.summary_rows("by_brand").unwrap();

    // Raw changes, not applied to `db`: the whole batch must bounce.
    let mut batch = ChangeBatch::new();
    batch.extend(
        sale,
        vec![
            Change::Insert(row![2, 1, 4.0]),
            Change::Delete(row![1, 1, 2.5]),
        ],
    );
    batch.push(product, Change::Insert(row![2, "zenith"]));
    let err = wh.apply_batch(&batch).unwrap_err();
    assert!(err.to_string().contains("append-only"), "got: {err}");

    // Atomic: the healthy product group must not have leaked either.
    assert_eq!(wh.summary_rows("by_brand").unwrap(), rows_before);
    assert_eq!(wh.table_seq(product), 0);
    assert_eq!(wh.table_seq(sale), 0);

    let letters = wh.dead_letters();
    assert_eq!(letters.len(), 2, "one letter per group of the batch");
    assert_eq!(letters.peek().unwrap().table, letters[0].table);
    // Sorted by (table, lsn), whatever the order the batch named them in:
    // the product group precedes the sale group.
    assert_eq!((letters[0].table, letters[0].lsn), (product, 1));
    assert_eq!((letters[1].table, letters[1].lsn), (sale, 1));
    assert_eq!(letters[0].change_index, None);
    assert_eq!(letters[1].change_index, Some(1));
    assert_eq!(letters[1].changes.len(), 2);
    assert!(letters.iter().all(|l| l.reason == err.to_string()));

    // The letters drain and serving continues.
    let drained = wh.dead_letters_mut().drain();
    assert_eq!(drained.len(), 2);
    assert!(wh.dead_letters().is_empty());
    let good = db.insert(sale, row![2, 1, 4.0]).unwrap();
    wh.apply_batch(&ChangeBatch::single(sale, vec![good]))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn coalescing_applies_to_the_log_and_recovery() {
    // The coalesced form is what gets logged; recovery replays it and
    // converges. An insert+delete pair on a fresh row nets to an empty
    // group — the LSN is still consumed and an empty frame logged, so
    // replay stays aligned.
    let (mut db, _product, sale) = append_only_setup();
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(BY_BRAND, &db).unwrap();

    let c = db.insert(sale, row![2, 1, 4.0]).unwrap();
    wh.apply_batch(&ChangeBatch::single(sale, vec![c])).unwrap();
    let snapshot = wh.save().unwrap();

    // Transient row: coalesces to nothing, but keeps its LSN. (The raw
    // pair would violate append-only; its net effect is a no-op, which
    // the engines accept — net-effect semantics by design.)
    let batch = ChangeBatch::single(
        sale,
        vec![
            Change::Insert(row![3, 1, 9.0]),
            Change::Delete(row![3, 1, 9.0]),
        ],
    );
    wh.apply_batch(&batch).unwrap();
    assert_eq!(wh.table_seq(sale), 2);

    let wal = wh.wal_bytes().unwrap().to_vec();
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &snapshot, &wal)
        .unwrap();
    assert!(recovered.dead_letters().is_empty());
    assert_eq!(recovered.table_seq(sale), 2);
    assert_eq!(
        recovered.summary_rows("by_brand").unwrap(),
        wh.summary_rows("by_brand").unwrap()
    );
    assert_eq!(recovered.save().unwrap(), wh.save().unwrap());
}

/// The row a change targets (`sale.id` is column 0).
fn change_key(change: &Change) -> Value {
    match change {
        Change::Insert(row) | Change::Delete(row) => row[0].clone(),
        Change::Update { old, .. } => old[0].clone(),
    }
}

/// One hot-row batch over the retail star — three rows repriced three
/// times each, two rows inserted and deleted again — split into per-row
/// groups in delivery order: the granularity at which a staging area may
/// reorder delivery, each row's own changes staying in order. Returns the
/// sources before and after the batch.
fn hot_row_groups() -> (Database, Database, RetailSchema, Vec<Vec<Change>>) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let before = db.clone();
    let params = HotBatchParams {
        batches: 1,
        hot_rows: 3,
        touches: 3,
        transient_pairs: 2,
    };
    let changes = hot_sale_batches(&mut db, &schema, params).remove(0);
    let mut groups: Vec<Vec<Change>> = Vec::new();
    for change in changes {
        let key = change_key(&change);
        match groups.iter_mut().find(|g| change_key(&g[0]) == key) {
            Some(group) => group.push(change),
            None => groups.push(vec![change]),
        }
    }
    assert_eq!(groups.len(), 5, "3 hot rows + 2 transient pairs");
    (before, db, schema, groups)
}

/// The hot batch, its row groups delivered in `groups`' order, applied to
/// a warehouse over `before` built by `builder`.
fn apply_hot_batch(
    before: &Database,
    schema: &RetailSchema,
    groups: &[Vec<Change>],
    builder: WarehouseBuilder,
) -> Warehouse {
    let mut wh = retail_warehouse(before, builder);
    wh.apply_batch(&hot_batch(schema, groups)).unwrap();
    assert!(wh.dead_letters().is_empty());
    wh
}

fn hot_batch(schema: &RetailSchema, groups: &[Vec<Change>]) -> ChangeBatch {
    let mut batch = ChangeBatch::new();
    for group in groups {
        batch.extend(schema.sale, group.iter().cloned());
    }
    batch
}

#[test]
fn every_row_group_delivery_order_saves_the_same_image() {
    let (before, after, schema, groups) = hot_row_groups();
    let mut reversed = groups.clone();
    reversed.reverse();
    let mut orders = vec![("delivery", groups.clone()), ("reversed", reversed)];
    for (name, mut seed) in [("shuffled-3", 3u64), ("shuffled-17", 17)] {
        let mut order = groups.clone();
        for i in (1..order.len()).rev() {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            let j = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        orders.push((name, order));
    }
    let first = apply_hot_batch(&before, &schema, &orders[0].1, Warehouse::builder());
    assert!(first.verify_all(&after).unwrap());
    let image = first.save().unwrap();
    for (name, order) in &orders[1..] {
        let wh = apply_hot_batch(&before, &schema, order, Warehouse::builder());
        assert_eq!(wh.save().unwrap(), image, "delivery order {name}");
    }
}

#[test]
fn a_torn_append_resubmitted_logs_no_annihilated_row() {
    // The hot batch is torn twice at the log append and resubmitted each
    // time; the second tear replaces the first, and the append that
    // finally succeeds truncates it. The coalesced batch is logged once:
    // no torn tail, and no row that coalescing annihilated.
    let (before, _, schema, groups) = hot_row_groups();
    let mut faults = FaultPlan::recording();
    faults.arm("warehouse.wal.torn", 0);
    faults.arm("warehouse.wal.torn", 0);
    let mut torn = retail_warehouse(&before, Warehouse::builder().fault_plan(faults));
    let batch = hot_batch(&schema, &groups);
    for _ in 0..2 {
        torn.apply_batch(&batch).expect_err("the append is torn");
    }
    torn.apply_batch(&batch)
        .expect("the resubmitted batch commits");
    let clean = apply_hot_batch(&before, &schema, &groups, Warehouse::builder());
    assert_eq!(torn.wal_bytes(), clean.wal_bytes());
    assert_eq!(torn.save().unwrap(), clean.save().unwrap());

    let annihilated: Vec<Value> = groups
        .iter()
        .filter(|g| {
            matches!(g[0], Change::Insert(_)) && matches!(g.last(), Some(Change::Delete(_)))
        })
        .map(|g| change_key(&g[0]))
        .collect();
    assert_eq!(annihilated.len(), 2, "two transient pairs");
    let (records, _) = Wal::replay(torn.wal_bytes().unwrap()).unwrap();
    assert_eq!(records.len(), 1);
    for change in &records[0].changes {
        assert!(
            !annihilated.contains(&change_key(change)),
            "annihilated row {:?} logged",
            change_key(change)
        );
    }
}
