//! Oracle equality for the parallel batch scheduler: the worker count is
//! a *throughput* knob, never a *semantics* knob. Whatever the fan-out
//! width, a warehouse fed the same batch schedule must end byte-for-byte
//! identical to the serial oracle — summaries, counters, the persisted
//! image and the change log — including when batches fail mid-flight
//! under fault injection.

use md_relation::{row, Change, Database, TableId, Value};
use md_warehouse::{ChangeBatch, FaultPlan, Warehouse, WarehouseBuilder};
use md_workload::{
    generate_retail, generate_snowflake, product_brand_changes, sale_changes, time_inserts, views,
    Contracts, RetailParams, RetailSchema, SnowflakeParams, SnowflakeSchema, UpdateMix,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

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

/// Drives identically-configured-but-for-workers warehouses through the
/// same schedule and requires byte-identical persistent state.
fn assert_worker_counts_equivalent(
    warehouses: &mut [Warehouse],
    schedule: &[ChangeBatch],
    db: &Database,
    ctx: &str,
) {
    for batch in schedule {
        for wh in warehouses.iter_mut() {
            wh.apply_batch(batch).unwrap();
        }
    }
    let (oracle, rest) = warehouses.split_first_mut().unwrap();
    assert!(oracle.verify_all(db).unwrap(), "{ctx}: oracle diverged");
    let oracle_image = oracle.save().unwrap();
    let oracle_wal = oracle.wal_bytes().map(|b| b.to_vec());
    for wh in rest {
        assert_eq!(
            wh.save().unwrap(),
            oracle_image,
            "{ctx}: {}-worker warehouse image differs from the serial oracle",
            wh.workers()
        );
        assert_eq!(
            wh.wal_bytes().map(|b| b.to_vec()),
            oracle_wal,
            "{ctx}: {}-worker change log differs from the serial oracle",
            wh.workers()
        );
    }
}

#[test]
fn retail_worker_counts_are_byte_identical() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut warehouses: Vec<Warehouse> = WORKER_COUNTS
        .iter()
        .map(|&w| retail_warehouse(&db, Warehouse::builder().workers(w)))
        .collect();
    let schedule = retail_schedule(&mut db, &schema);
    assert_worker_counts_equivalent(&mut warehouses, &schedule, &db, "retail");
}

#[test]
fn snowflake_worker_counts_are_byte_identical() {
    let (mut db, schema) = generate_snowflake(SnowflakeParams::tiny());
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
    let mut warehouses: Vec<Warehouse> = WORKER_COUNTS
        .iter()
        .map(|&w| {
            let mut wh = Warehouse::builder().workers(w).build(db.catalog());
            for sql in sqls {
                wh.add_summary_sql(sql, &db).unwrap();
            }
            wh
        })
        .collect();
    let schedule = snowflake_schedule(&mut db, &schema);
    assert_worker_counts_equivalent(&mut warehouses, &schedule, &db, "snowflake");
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
    // Same schedule, coalescing on vs off: identical summaries and
    // verification, strictly fewer changes reaching the engines.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut on = retail_warehouse(&db, Warehouse::builder().coalesce(true));
    let mut off = retail_warehouse(&db, Warehouse::builder().coalesce(false));
    for batch in retail_schedule(&mut db, &schema) {
        on.apply_batch(&batch).unwrap();
        off.apply_batch(&batch).unwrap();
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
        s_on.changes_applied <= s_on.changes_submitted,
        "coalescing must never increase work"
    );
}

#[test]
fn crashes_under_parallel_fanout_recover_to_the_serial_oracle() {
    // Every injection point the batch path traverses, crashed with a
    // 2-worker fan-out and recovered — the recovered warehouse must equal
    // a fault-free *serial* warehouse fed the surviving batches.
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
        let mut wh = retail_warehouse(
            &db,
            Warehouse::builder().workers(2).fault_plan(plan.clone()),
        );
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
            .workers(2)
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
            assert_eq!(
                recovered.stats(name).unwrap(),
                oracle.stats(name).unwrap(),
                "counters of '{name}' after crash at '{point}' (nth {nth})"
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

#[test]
fn dead_letters_are_deterministic_across_worker_counts() {
    // A multi-table batch whose sale group violates append-only: every
    // worker count must reject it identically — same letters, same order
    // (sorted by table then LSN), same blamed change — and commit
    // nothing from the batch.
    let mut outcomes = Vec::new();
    for &workers in &WORKER_COUNTS {
        let (mut db, product, sale) = append_only_setup();
        let mut wh = Warehouse::builder().workers(workers).build(db.catalog());
        wh.add_summary_sql(BY_BRAND, &db).unwrap();
        let rows_before = wh.summary_rows("by_brand").unwrap();

        // Raw changes, not applied to `db`: the whole batch must bounce.
        let mut batch = ChangeBatch::new();
        batch.push(product, Change::Insert(row![2, "zenith"]));
        batch.extend(
            sale,
            vec![
                Change::Insert(row![2, 1, 4.0]),
                Change::Delete(row![1, 1, 2.5]),
            ],
        );
        let err = wh.apply_batch(&batch).unwrap_err();
        assert!(err.to_string().contains("append-only"), "got: {err}");

        // Atomic: the healthy product group must not have leaked either.
        assert_eq!(wh.summary_rows("by_brand").unwrap(), rows_before);
        assert_eq!(wh.table_seq(product), 0);
        assert_eq!(wh.table_seq(sale), 0);

        let letters = wh.dead_letters();
        assert_eq!(letters.len(), 2, "one letter per group of the batch");
        assert_eq!(wh.dead_letters().peek().unwrap().table, letters[0].table);
        outcomes.push(
            letters
                .iter()
                .map(|l| {
                    (
                        l.table,
                        l.lsn,
                        l.changes.clone(),
                        l.change_index,
                        l.reason.clone(),
                    )
                })
                .collect::<Vec<_>>(),
        );

        // The letters drain and serving continues.
        let drained = wh.dead_letters_mut().drain();
        assert_eq!(drained.len(), 2);
        assert!(wh.dead_letters().is_empty());
        let good = db.insert(sale, row![2, 1, 4.0]).unwrap();
        wh.apply_batch(&ChangeBatch::single(sale, vec![good]))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap());
    }
    let oracle = outcomes[0].clone();
    // Sorted by (table, lsn): the product group precedes the sale group.
    assert!(oracle[0].0 < oracle[1].0);
    // The blamed change index lands on the sale group's delete only.
    assert_eq!(oracle[0].3, None);
    assert_eq!(oracle[1].3, Some(1));
    for (i, other) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(
            &oracle, other,
            "dead letters differ between 1 and {} workers",
            WORKER_COUNTS[i]
        );
    }
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
    let recovered = Warehouse::recover(db.catalog(), &snapshot, &wal).unwrap();
    assert!(recovered.dead_letters().is_empty());
    assert_eq!(recovered.table_seq(sale), 2);
    assert_eq!(
        recovered.summary_rows("by_brand").unwrap(),
        wh.summary_rows("by_brand").unwrap()
    );
    assert_eq!(
        recovered.stats("by_brand").unwrap(),
        wh.stats("by_brand").unwrap()
    );
}
