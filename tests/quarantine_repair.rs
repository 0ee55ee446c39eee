//! End-to-end fault-domain isolation: a faulty summary is quarantined
//! behind an LSN watermark while the healthy rest of the warehouse keeps
//! committing, repair replays the change log written since — and only
//! what was logged — a batch the log rejects quarantines nobody, and the
//! recovery asymmetries (log without snapshot, snapshot without log) come
//! up serving with a warning instead of failing.

use md_maintain::{FaultPlan, MaintainError};
use md_relation::{row, Change, Row, TableId, Value};
use md_warehouse::{ChangeBatch, Warehouse, WarehouseError};
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, views, Contracts, RetailParams,
    RetailSchema, UpdateMix,
};

const SUMMARIES: [&str; 4] = [
    "product_sales",
    "product_sales_max",
    "store_revenue",
    "daily_product",
];

fn add_paper_views(wh: &mut Warehouse, db: &md_relation::Database) {
    for sql in [
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
    ] {
        wh.add_summary_sql(sql, db).expect("paper views are valid");
    }
}

fn batches(db: &mut md_relation::Database, schema: &RetailSchema, n: usize) -> Vec<ChangeBatch> {
    (0..n)
        .map(|i| {
            let changes = sale_changes(db, schema, 10, UpdateMix::balanced(), 7200 + i as u64);
            ChangeBatch::single(schema.sale, changes)
        })
        .collect()
}

/// The oracle: the same workload applied to a warehouse that never
/// faulted.
fn fault_free(db: &md_relation::Database, workload: &[ChangeBatch]) -> Warehouse {
    let mut wh = Warehouse::new(db.catalog());
    add_paper_views(&mut wh, db);
    for batch in workload {
        wh.apply_batch(batch).expect("oracle applies cleanly");
    }
    wh
}

/// A mid-prepare fault quarantines only `daily_product`; the three
/// healthy summaries commit the whole workload, and `repair` replays the
/// two root groups logged since and reinstates the summary to the exact
/// fault-free state.
#[test]
fn quarantine_isolates_the_faulty_summary_and_repair_reinstates_it() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let workload = batches(&mut db, &schema, 3);
    wh.apply_batch(&workload[0]).expect("clean batch commits");

    // The second batch's first change to `daily_product` fails.
    faults.arm("engine.apply.change@daily_product", 0);
    wh.apply_batch(&workload[1])
        .expect("quarantine absorbs the engine fault");
    assert!(wh.is_quarantined("daily_product"));
    let entry = wh
        .quarantined()
        .find(|(name, _)| *name == "daily_product")
        .map(|(_, e)| (e.since_lsn(), e.cause().to_owned()))
        .expect("entry exists");
    assert!(entry.0 > 0, "watermark is a committed LSN");
    assert!(
        entry.1.contains("injected"),
        "cause names the fault: {}",
        entry.1
    );

    // A third batch commits for the healthy summaries and is logged for
    // the quarantined one.
    wh.apply_batch(&workload[2]).expect("serving continues");

    let oracle = fault_free(&pristine, &workload);
    for name in ["product_sales", "product_sales_max", "store_revenue"] {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            oracle.summary_rows(name).unwrap(),
            "healthy summary '{name}' commits the whole workload"
        );
    }

    let report = wh.repair("daily_product").expect("repair succeeds");
    assert_eq!(report.summary, "daily_product");
    assert_eq!(report.replayed_groups, 2);
    assert_eq!(report.dead_lettered, 0);
    assert!(report.rebuilt_rows > 0);
    assert_eq!(wh.quarantined().count(), 0);
    assert!(wh.dead_letters().is_empty());
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}' after repair");
    }
    for name in SUMMARIES {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            oracle.summary_rows(name).unwrap(),
            "'{name}' matches the fault-free warehouse after repair"
        );
    }
}

/// A summary whose fold panics is caught, rolled back and quarantined
/// like one whose fold fails: the cause names the panic, the summary
/// stays at its pre-fault rows while the healthy rest commits every batch,
/// and repair — a rebuild from the stores, which hold every batch it
/// missed — brings it to the fault-free state.
#[test]
fn a_panicking_summary_is_quarantined_and_repair_reinstates_it() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);
    let before = wh.summary_rows("product_sales").unwrap();

    let workload = batches(&mut db, &schema, 3);
    faults.arm_panic("engine.apply.change@product_sales", 0);
    for batch in &workload {
        wh.apply_batch(batch).expect("quarantine absorbs the panic");
    }
    let (name, entry) = wh.quarantined().next().unwrap();
    assert_eq!(name, "product_sales");
    assert!(entry.since_lsn() > 0);
    assert!(
        entry.cause().contains("injected panic"),
        "{}",
        entry.cause()
    );
    assert_eq!(wh.summary_rows("product_sales").unwrap(), before);

    let oracle = fault_free(&pristine, &workload);
    for name in ["product_sales_max", "store_revenue", "daily_product"] {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            oracle.summary_rows(name).unwrap(),
            "healthy summary '{name}' commits the whole workload"
        );
    }
    let report = wh.repair("product_sales").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 0, "its stores hold every batch");
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}' after repair");
    }
    assert_eq!(wh.save().unwrap(), oracle.save().unwrap());
}

/// Quarantines `daily_product` on the second of three sale batches and
/// lets `fault` reject a fourth batch between the second and the third.
/// Returns the warehouse before repair, the batches in submission order
/// (the faulted one at index 2), and the source state that received all
/// but the faulted batch.
fn quarantined_with_a_faulted_batch(
    fault: impl FnOnce(&mut FaultPlan),
) -> (
    Warehouse,
    Vec<ChangeBatch>,
    md_relation::Database,
    md_relation::Database,
) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let mut workload = batches(&mut db, &schema, 2);
    wh.apply_batch(&workload[0]).expect("clean batch commits");
    faults.arm("engine.apply.change@daily_product", 0);
    wh.apply_batch(&workload[1])
        .expect("quarantine absorbs the engine fault");
    assert!(wh.is_quarantined("daily_product"));

    // The sources never see the faulted batch.
    let mut scratch = db.clone();
    let faulted = ChangeBatch::single(
        schema.sale,
        sale_changes(&mut scratch, &schema, 10, UpdateMix::balanced(), 9100),
    );
    fault(&mut faults);
    wh.apply_batch(&faulted).expect_err("the fault escalates");
    let last = ChangeBatch::single(
        schema.sale,
        sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 9200),
    );
    wh.apply_batch(&last).expect("serving continues");
    workload.extend([faulted, last]);
    (wh, workload, pristine, db)
}

/// A batch rejected at the log append was never committed anywhere, so
/// a quarantined summary must not see it on repair either: the change
/// log — not what was submitted — is the record of what committed.
#[test]
fn a_batch_rejected_at_the_log_never_reaches_a_quarantined_summary() {
    let (mut wh, workload, pristine, db) =
        quarantined_with_a_faulted_batch(|faults| faults.arm("warehouse.wal.append", 0));
    let report = wh.repair("daily_product").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 2, "only logged groups are replayed");
    assert_eq!(report.dead_lettered, 0);
    assert!(wh.verify_all(&db).unwrap(), "only committed batches count");
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}' after repair");
    }
    let committed = [
        workload[0].clone(),
        workload[1].clone(),
        workload[3].clone(),
    ];
    let never_quarantined = fault_free(&pristine, &committed);
    assert_eq!(wh.wal_bytes(), never_quarantined.wal_bytes());
    for name in SUMMARIES {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            never_quarantined.summary_rows(name).unwrap(),
            "'{name}' matches a warehouse fed only the committed batches"
        );
    }
}

/// The twin: a crash between the log append and the in-memory commit
/// burns the batch's LSNs — the log holds it, so the repaired summary
/// must too, exactly as crash recovery would replay it.
#[test]
fn a_batch_logged_before_a_commit_crash_reaches_a_quarantined_summary() {
    let (mut wh, workload, pristine, _) =
        quarantined_with_a_faulted_batch(|faults| faults.arm("warehouse.apply.commit", 0));
    let report = wh.repair("daily_product").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 3, "the crashed batch was logged");
    let oracle = fault_free(&pristine, &workload);
    assert_eq!(wh.wal_bytes(), oracle.wal_bytes());
    assert_eq!(
        wh.summary_rows("daily_product").unwrap(),
        oracle.summary_rows("daily_product").unwrap(),
        "the repaired summary holds every logged batch"
    );
    // The healthy engines rolled the crashed batch back; recovery from
    // the same log brings the whole warehouse to where the repaired
    // summary already is.
    let genesis = fault_free(&pristine, &[]).save().unwrap();
    let recovered = Warehouse::builder()
        .recover(pristine.catalog(), &genesis, wh.wal_bytes().unwrap())
        .expect("recovery replays the log");
    assert_eq!(recovered.save().unwrap(), oracle.save().unwrap());
}

/// Quarantine and repair are repeatable: the same summary faulted and
/// repaired on three consecutive batches ends at the fault-free state
/// with a clean audit every time.
#[test]
fn repeated_quarantine_and_repair_cycles_stay_clean() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let workload = batches(&mut db, &schema, 3);
    for batch in &workload {
        faults.arm("engine.apply.change@daily_product", 0);
        wh.apply_batch(batch)
            .expect("quarantine absorbs the injected fault");
        assert!(wh.is_quarantined("daily_product"));
        let report = wh.repair("daily_product").expect("repair succeeds");
        assert_eq!(report.replayed_groups, 1);
        for (name, audit) in wh.audit() {
            assert!(audit.is_clean(), "audit of '{name}' after repair");
        }
    }
    assert!(wh.verify_all(&db).unwrap());
    let oracle = fault_free(&pristine, &workload);
    for name in SUMMARIES {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            oracle.summary_rows(name).unwrap(),
            "'{name}' matches the fault-free warehouse"
        );
    }
}

/// Repairing after every applied batch drains the quarantine before the
/// next batch, so the caller never observes an isolated summary between
/// batches.
#[test]
fn repair_after_each_batch_reinstates_before_the_next() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let workload = batches(&mut db, &schema, 2);
    faults.arm("engine.apply.change@store_revenue", 0);
    for batch in &workload {
        wh.apply_batch(batch).expect("quarantine absorbs the fault");
        for (name, result) in wh.repair_all() {
            result.unwrap_or_else(|e| panic!("repair of '{name}': {e}"));
        }
        assert_eq!(wh.quarantined().count(), 0);
    }
    let oracle = fault_free(&pristine, &workload);
    for name in SUMMARIES {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            oracle.summary_rows(name).unwrap()
        );
    }
}

/// Dropping a quarantined summary drops its quarantine entry: a summary
/// re-added under the same name is a new one, loaded from the sources and
/// maintained from the next batch on.
#[test]
fn a_summary_dropped_in_quarantine_comes_back_maintained() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);
    faults.arm("engine.apply.change@store_revenue", 0);
    let first = sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 7300);
    wh.apply_batch(&ChangeBatch::single(schema.sale, first))
        .expect("quarantine absorbs the engine fault");
    assert!(wh.is_quarantined("store_revenue"));

    wh.drop_summary("store_revenue").unwrap();
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    assert!(!wh.is_quarantined("store_revenue"));
    let active = |wh: &Warehouse| {
        wh.metrics_json();
        wh.obs().gauge("quarantine.active", &[]).get()
    };
    assert_eq!(active(&wh), 0);

    let loaded = wh.stats("store_revenue").unwrap().rows_processed;
    let second = sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 7301);
    wh.apply_batch(&ChangeBatch::single(schema.sale, second))
        .unwrap();
    assert!(!wh.is_quarantined("store_revenue"));
    assert!(wh.stats("store_revenue").unwrap().rows_processed > loaded);
    assert_eq!(active(&wh), 0);
    assert!(wh.verify_all(&db).unwrap());
}

/// Repair on a live summary and on an unknown one are typed errors, not
/// silent no-ops.
#[test]
fn repair_outside_quarantine_is_a_typed_error() {
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    add_paper_views(&mut wh, &db);
    assert!(matches!(
        wh.repair("store_revenue"),
        Err(WarehouseError::NotQuarantined(_))
    ));
    assert!(matches!(
        wh.repair("no_such_summary"),
        Err(WarehouseError::UnknownSummary(_))
    ));
}

/// A batch the log rejects was never logged, so the summary that failed
/// inside it must not be quarantined either: the rejection rolls back
/// everything the batch did, quarantine entries included, and the same
/// batch then commits as if nothing had happened.
#[test]
fn a_batch_rejected_at_the_log_quarantines_nobody() {
    for point in ["warehouse.wal.torn", "warehouse.wal.append"] {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let pristine = db.clone();
        let mut faults = FaultPlan::recording();
        let mut wh = Warehouse::builder()
            .quarantine(true)
            .fault_plan(faults.clone())
            .build(db.catalog());
        add_paper_views(&mut wh, &db);
        let workload = batches(&mut db, &schema, 2);
        wh.apply_batch(&workload[0]).expect("clean batch commits");
        let entered = wh.obs().counter("quarantine.entered", &[]);
        let (image, entered_before) = (wh.save().unwrap(), entered.get());

        faults.arm("engine.apply.change@daily_product", 0);
        faults.arm(point, 0);
        let err = wh
            .apply_batch(&workload[1])
            .expect_err("the log rejects the batch");
        assert!(err.to_string().contains(point), "{point}: {err}");
        assert_eq!(wh.quarantined().count(), 0, "{point}: nobody quarantined");
        assert_eq!(entered.get(), entered_before, "{point}: quarantine.entered");
        assert_eq!(wh.save().unwrap(), image, "{point}: image moved");

        wh.apply_batch(&workload[1])
            .unwrap_or_else(|e| panic!("{point}: the batch again: {e}"));
        assert_eq!(wh.quarantined().count(), 0, "{point}");
        let oracle = fault_free(&pristine, &workload);
        assert_eq!(wh.wal_bytes(), oracle.wal_bytes(), "{point}: log");
        assert_eq!(wh.save().unwrap(), oracle.save().unwrap(), "{point}: image");
    }
}

/// Recovery asymmetry, genesis side: a surviving change log with a
/// missing/empty snapshot warns and replays from genesis — summaries
/// registered afterwards initial-load at the post-replay state and new
/// batches continue the LSN sequence.
#[test]
fn wal_without_a_snapshot_replays_from_genesis() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    add_paper_views(&mut wh, &db);
    let workload = batches(&mut db, &schema, 3);
    for batch in &workload {
        wh.apply_batch(batch).expect("clean batch commits");
    }
    let wal = wh.wal_bytes().unwrap().to_vec();

    let mut recovered = Warehouse::builder()
        .recover(db.catalog(), b"", &wal)
        .expect("genesis replay succeeds");
    assert!(
        recovered
            .recovery_warnings()
            .iter()
            .any(|w| w.contains("genesis")),
        "genesis recovery must warn: {:?}",
        recovered.recovery_warnings()
    );
    // The sources already contain the workload, so re-registered
    // summaries initial-load at the recovered warehouse's LSN frontier.
    add_paper_views(&mut recovered, &db);
    for name in SUMMARIES {
        assert_eq!(
            recovered.summary_rows(name).unwrap(),
            wh.summary_rows(name).unwrap(),
            "'{name}' after genesis replay"
        );
    }
    // New batches continue identically on both sides: the replayed LSN
    // frontier matches the original warehouse's.
    let next = batches(&mut db, &schema, 1).remove(0);
    wh.apply_batch(&next).unwrap();
    recovered.apply_batch(&next).unwrap();
    for name in SUMMARIES {
        assert_eq!(
            recovered.summary_rows(name).unwrap(),
            wh.summary_rows(name).unwrap()
        );
    }
}

/// `daily_product` plus the product's brand: no fact auxiliary view under
/// tight contracts, and a dimension-sourced aggregate a rename moves.
const DAILY_BRANDMAX_SQL: &str = "CREATE VIEW daily_brandmax AS \
    SELECT time.id AS timeid, product.id AS productid, MAX(product.brand) AS Brand, \
    COUNT(*) AS N \
    FROM sale, time, product \
    WHERE sale.timeid = time.id AND sale.productid = product.id \
    GROUP BY time.id, product.id";

/// A summary without a root store, quarantined while its products are
/// renamed and sales arrive: repair rebuilds it from its own groups under
/// the renamed products, replays the logged sales, and lands on the
/// recompute; its image saves and restores byte for byte.
#[test]
fn a_summary_without_a_root_store_repairs_under_renamed_products() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    wh.add_summary_sql(DAILY_BRANDMAX_SQL, &db).unwrap();
    assert!(wh.plan("daily_brandmax").unwrap().root_omitted());

    // Healthy, a rename moves its groups' brands in place.
    let renames = product_brand_changes(&mut db, &schema, 3, 11);
    wh.apply_batch(&ChangeBatch::single(schema.product, renames))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());

    faults.arm("engine.apply.change@daily_brandmax", 0);
    let renames = product_brand_changes(&mut db, &schema, 3, 12);
    wh.apply_batch(&ChangeBatch::single(schema.product, renames))
        .expect("quarantine absorbs the engine fault");
    assert!(wh.is_quarantined("daily_brandmax"));
    for seed in 0..3 {
        let mut batch = ChangeBatch::new();
        batch.extend(
            schema.product,
            product_brand_changes(&mut db, &schema, 4, 20 + seed),
        );
        batch.extend(
            schema.sale,
            sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 7300 + seed),
        );
        wh.apply_batch(&batch).expect("serving continues");
    }
    wh.save().expect("a quarantined summary saves");

    let report = wh.repair("daily_brandmax").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 3, "the sale groups logged since");
    assert!(!wh.is_quarantined("daily_brandmax"));
    assert!(wh.verify_all(&db).unwrap());
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}' after repair");
    }
    let image = wh.save().unwrap();
    let restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();
    assert_eq!(restored.save().unwrap(), image);
}

/// An append-only summary without a root store whose group key holds no
/// dimension key (`GROUP BY product.brand`): quarantined, the warehouse
/// still saves, and repair reinstates it from the log.
#[test]
fn a_quarantined_append_only_summary_without_a_root_store_saves_and_repairs() {
    use md_relation::{row, Catalog, DataType, Database, Schema};
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

    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    wh.add_summary_sql(
        "CREATE VIEW by_brand AS \
         SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS N \
         FROM sale, product WHERE sale.productid = product.id \
         GROUP BY product.brand",
        &db,
    )
    .unwrap();
    assert!(wh.plan("by_brand").unwrap().root_omitted());

    faults.arm("engine.apply.change@by_brand", 0);
    let sold = db.insert(sale, row![2, 1, 4.0]).unwrap();
    wh.apply_batch(&ChangeBatch::single(sale, vec![sold]))
        .expect("quarantine absorbs the engine fault");
    assert!(wh.is_quarantined("by_brand"));
    let mut batch = ChangeBatch::new();
    batch.push(product, db.insert(product, row![2, "zenith"]).unwrap());
    batch.push(sale, db.insert(sale, row![3, 2, 9.0]).unwrap());
    wh.apply_batch(&batch).expect("serving continues");

    wh.save().expect("a quarantined summary saves");
    let report = wh.repair("by_brand").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 2);
    assert!(!wh.is_quarantined("by_brand"));
    assert!(wh.verify_all(&db).unwrap());
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}' after repair");
    }
}

/// What a batch that does not fit its tables leaves behind: it is
/// rejected as `Rejected { table, change_index, .. }`, its reason saying
/// `detail`, before the log — the log and the sequence numbers are as they
/// were, one dead letter naming the change is added, and nobody is
/// quarantined.
fn assert_rejected_at_the_door(
    wh: &mut Warehouse,
    batch: &ChangeBatch,
    table: &str,
    change: Option<usize>,
    detail: &str,
) {
    let logged = wh.wal_bytes().unwrap().to_vec();
    let seqs: Vec<u64> = (batch.groups().iter())
        .map(|(t, _)| wh.table_seq(*t))
        .collect();
    let letters = wh.dead_letters().len();
    let err = wh.apply_batch(batch).expect_err("a misfit is rejected");
    match &err {
        WarehouseError::Maintain(MaintainError::Rejected {
            table: named,
            change_index,
            reason,
        }) => {
            assert_eq!((named.as_str(), *change_index), (table, change), "{err}");
            assert!(reason.to_string().contains(detail), "{err}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert_eq!(wh.wal_bytes().unwrap(), &logged[..], "{err}: logged");
    for ((t, _), seq) in batch.groups().iter().zip(seqs) {
        assert_eq!(wh.table_seq(*t), seq, "{err}: sequence number");
    }
    assert_eq!(wh.dead_letters().len(), letters + 1, "{err}: dead letters");
    let letter = wh.dead_letters().last().unwrap();
    assert_eq!(letter.change_index, change, "{err}: dead letter");
    assert_eq!(wh.quarantined().count(), 0, "{err}: quarantined");
}

/// `row` cut to its key, with a value too many, and with its last value
/// of the wrong type, each with what the schema says of it.
fn misfits(row: &Row) -> [(Row, String); 3] {
    let values = row.values();
    let n = values.len();
    let mut long = values.to_vec();
    long.push(Value::Int(7));
    let mut typed = values.to_vec();
    typed[n - 1] = match typed[n - 1] {
        Value::Str(_) => Value::Int(42),
        _ => Value::str("forty-two"),
    };
    [
        (
            Row::new(values[..1].to_vec()),
            format!("expected {n} values, got 1"),
        ),
        (
            Row::new(long),
            format!("expected {n} values, got {}", n + 1),
        ),
        (Row::new(typed), "expects".to_owned()),
    ]
}

/// Every change is held to its table's schema at the door. A fact row
/// and a dimension row cut short, one value too long, or with a value of
/// the wrong type (an `Int` as a store's manager among them) are each
/// rejected before the log, naming the table and the change, and so is a
/// batch for a table the catalog lacks, naming no change; nobody is
/// quarantined, nothing panics, and every summary still equals its
/// recomputation from the sources.
#[test]
fn a_change_that_does_not_fit_its_table_is_rejected_at_the_door() {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    add_paper_views(&mut wh, &db);
    let tables = [
        (schema.sale, "sale"),
        (schema.product, "product"),
        (schema.store, "store"),
        (schema.time, "time"),
    ];
    for (table, name) in tables {
        let mut rows = db.table(table).rows();
        let (first, second) = (rows.next().unwrap().clone(), rows.next().unwrap().clone());
        for (misfit, detail) in misfits(&first) {
            // The misfit second: the first change fits, so the door names
            // the one that does not. A fact row is new, a dimension row
            // the new side of an update.
            let misfit = match table == schema.sale {
                true => Change::Insert(misfit),
                false => Change::Update {
                    old: first.clone(),
                    new: misfit,
                },
            };
            let batch = ChangeBatch::single(table, vec![Change::Delete(second.clone()), misfit]);
            assert_rejected_at_the_door(&mut wh, &batch, name, Some(1), &detail);
        }
    }
    let unknown = ChangeBatch::single(TableId(99), vec![Change::Insert(row![1])]);
    assert_rejected_at_the_door(&mut wh, &unknown, "T99", None, "no table with id T99");

    for name in SUMMARIES {
        let view = &wh.plan(name).unwrap().view;
        let want = md_algebra::eval_view(view, &db).unwrap();
        assert_eq!(wh.summary_bag(name).unwrap(), want, "{name}");
    }
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}': {audit:?}");
    }
}

/// A sale row one value too long fits no table: the batch is rejected at
/// the door, naming change #2 and the schema's detail, before the log —
/// nobody is quarantined. A summary without a root store, grouped beside
/// the root stores in the group's one grouping, still fails alone: a
/// fault in `cheap_daily`'s own fold of the whole batch quarantines only
/// it, while the stores and every other summary commit the batch.
#[test]
fn a_refusing_summary_without_a_root_store_is_quarantined_alone() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);
    let cheap = "CREATE VIEW cheap_daily AS
        SELECT time.id AS timeid, product.id AS productid, SUM(price) AS TotalPrice,
               COUNT(*) AS TotalCount
        FROM sale, time, product
        WHERE sale.price < 1000.0 AND sale.timeid = time.id AND sale.productid = product.id
        GROUP BY time.id, product.id";
    wh.add_summary_sql(cheap, &db).unwrap();
    assert!(wh.plan("cheap_daily").unwrap().root_omitted());
    assert!(wh.plan("daily_product").unwrap().root_omitted());

    let mut changes = sale_changes(&mut db, &schema, 4, UpdateMix::balanced(), 31);
    let sold = db.table(schema.sale).rows().next().unwrap();
    let id = db.table(schema.sale).len() as i64 + 1_000;
    let mut fresh = sold.values().to_vec();
    fresh[0] = Value::Int(id);
    let fits = Row::new(fresh.clone());
    db.insert(schema.sale, fits.clone()).unwrap();
    fresh.push(Value::Int(7));
    let mut misfit = changes.clone();
    misfit.insert(2, Change::Insert(Row::new(fresh)));
    let batch = ChangeBatch::single(schema.sale, misfit);
    assert_rejected_at_the_door(&mut wh, &batch, "sale", Some(2), "expected 5 values, got 6");

    let before = wh.table_seq(schema.sale);
    changes.insert(2, Change::Insert(fits));
    faults.arm("engine.apply.change@cheap_daily", 0);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .expect("quarantine absorbs the fault");
    let quarantined: Vec<&str> = wh.quarantined().map(|(name, _)| name).collect();
    assert_eq!(quarantined, ["cheap_daily"]);
    assert_eq!(wh.table_seq(schema.sale), before + 1);
    for name in SUMMARIES {
        let view = &wh.plan(name).unwrap().view;
        let want = md_algebra::eval_view(view, &db).unwrap();
        assert_eq!(wh.summary_bag(name).unwrap(), want, "{name}");
    }
}

/// A sale row without its price is rejected at the door, naming change #2
/// and the schema's detail: `daily_product`, which sums the price, and
/// `daily_count`, which reads none, both sit it out with nothing logged
/// and nobody quarantined, and both commit the batch with the row whole.
#[test]
fn a_sale_row_missing_its_price_is_rejected_at_the_door() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    let daily_count = "CREATE VIEW daily_count AS
        SELECT time.id AS timeid, COUNT(*) AS TotalCount
        FROM sale, time
        WHERE sale.timeid = time.id
        GROUP BY time.id";
    for sql in [views::DAILY_PRODUCT_SQL, daily_count] {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    for name in ["daily_product", "daily_count"] {
        assert!(wh.plan(name).unwrap().root_omitted(), "{name}");
    }

    let mut changes = sale_changes(&mut db, &schema, 4, UpdateMix::balanced(), 37);
    let sold = db.table(schema.sale).rows().next().unwrap();
    let id = db.table(schema.sale).len() as i64 + 1_000;
    let mut fresh = sold.values().to_vec();
    fresh[0] = Value::Int(id);
    let fits = Row::new(fresh.clone());
    db.insert(schema.sale, fits.clone()).unwrap();
    fresh.pop();
    let mut misfit = changes.clone();
    misfit.insert(2, Change::Insert(Row::new(fresh)));
    let batch = ChangeBatch::single(schema.sale, misfit);
    assert_rejected_at_the_door(&mut wh, &batch, "sale", Some(2), "expected 5 values, got 4");

    let before = wh.table_seq(schema.sale);
    changes.insert(2, Change::Insert(fits));
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .expect("the batch fits");
    assert_eq!(wh.table_seq(schema.sale), before + 1);
    for name in ["daily_product", "daily_count"] {
        let view = &wh.plan(name).unwrap().view;
        let want = md_algebra::eval_view(view, &db).unwrap();
        assert_eq!(wh.summary_bag(name).unwrap(), want, "{name}");
    }
}

/// Every summary of `wh` equals its recomputation from `db`, and every
/// audit is clean.
fn assert_summaries_recompute(wh: &Warehouse, db: &md_relation::Database) {
    for (name, audit) in wh.audit() {
        let view = &wh.plan(&name).unwrap().view;
        let want = md_algebra::eval_view(view, db).unwrap();
        assert_eq!(wh.summary_bag(&name).unwrap(), want, "{name}");
        assert!(audit.is_clean(), "audit of '{name}': {audit:?}");
    }
}

/// `row` with column `c` set to `value`.
fn with(row: &Row, c: usize, value: Value) -> Row {
    let mut values = row.values().to_vec();
    values[c] = value;
    Row::new(values)
}

/// The contracts are held at the door too. Under `Contracts::Tight`
/// `time` takes no update, so `derive` reduced `product_sales`' `X_sale`
/// to the sales of 1997: an update that moves day 1 from 1996 into 1997
/// would leave that day's sales out of the summary, and the audit, which
/// rebuilds `V` from that `X`, could not tell. The update is rejected
/// before the log instead, and every summary equals its recomputation.
#[test]
fn an_update_of_a_time_row_under_tight_contracts_is_rejected_at_the_door() {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    add_paper_views(&mut wh, &db);
    let day = db.table(schema.time).get(&Value::Int(1)).unwrap();
    assert_eq!(day[3], Value::Int(1996));
    let moved = Change::Update {
        new: with(&day, 3, Value::Int(1997)),
        old: day,
    };
    let batch = ChangeBatch::single(schema.time, vec![moved]);
    let contract = "modifies column 'year' outside the update contract";
    assert_rejected_at_the_door(&mut wh, &batch, "time", Some(0), contract);
    assert_summaries_recompute(&wh, &db);
}

/// An update that changes a column outside its table's update contract
/// is rejected at the door, naming the change, behind one that keeps to
/// it.
#[test]
fn an_update_outside_the_update_contract_is_rejected_at_the_door() {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    add_paper_views(&mut wh, &db);
    let mut sales = db.table(schema.sale).rows();
    let (first, second) = (sales.next().unwrap(), sales.next().unwrap());
    let repriced = Change::Update {
        new: with(&first, 4, Value::Double(1.25)),
        old: first,
    };
    let Value::Int(store) = second[3] else {
        panic!("a store id is an INT");
    };
    let moved = Change::Update {
        new: with(&second, 3, Value::Int(store % 2 + 1)),
        old: second,
    };
    let batch = ChangeBatch::single(schema.sale, vec![repriced, moved]);
    let contract = "modifies column 'storeid' outside the update contract";
    assert_rejected_at_the_door(&mut wh, &batch, "sale", Some(1), contract);
    assert_summaries_recompute(&wh, &db);
}

/// An update keeps its key: one that changes it is a delete and an
/// insert, and is rejected at the door even where every other column
/// may change.
#[test]
fn an_update_that_changes_its_key_is_rejected_at_the_door() {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Default);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    add_paper_views(&mut wh, &db);
    let product = db.table(schema.product).rows().next().unwrap();
    let fresh = db.table(schema.product).len() as i64 + 1_000;
    let rekeyed = Change::Update {
        new: with(&product, 0, Value::Int(fresh)),
        old: product,
    };
    let batch = ChangeBatch::single(schema.product, vec![rekeyed]);
    assert_rejected_at_the_door(&mut wh, &batch, "product", Some(0), "changes the key");
    assert_summaries_recompute(&wh, &db);
}

/// An insert-only table takes no delete and no update: each is rejected
/// at the door, also where no summary's regime is append-only (`time`
/// alone is insert-only here), and nobody is quarantined for it.
#[test]
fn a_delete_or_an_update_of_an_insert_only_table_is_rejected_at_the_door() {
    let (generated, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let (mut cat, _) = md_workload::retail_catalog(Contracts::Tight);
    cat.set_insert_only(schema.time).unwrap();
    let mut db = md_relation::Database::new(cat.clone());
    for table in [schema.time, schema.product, schema.store, schema.sale] {
        for row in generated.table(table).rows() {
            db.insert(table, row).unwrap();
        }
    }
    let mut wh = Warehouse::builder().quarantine(true).build(&cat);
    add_paper_views(&mut wh, &db);
    let day = db.table(schema.time).rows().last().unwrap();
    let renumbered = with(&day, 1, Value::Int(99));
    for change in [
        Change::Delete(day.clone()),
        Change::Update {
            old: day.clone(),
            new: renumbered.clone(),
        },
    ] {
        let fresh = with(&day, 0, Value::Int(10_000));
        let batch = ChangeBatch::single(schema.time, vec![Change::Insert(fresh), change]);
        assert_rejected_at_the_door(&mut wh, &batch, "time", Some(1), "insert-only");
    }
    assert!(db.delete(schema.time, &day[0]).is_err());
    assert!(db.update(schema.time, &day[0], renumbered).is_err());
    assert_summaries_recompute(&wh, &db);
}

/// `daily_product` without `product`: no fact auxiliary view either.
const DAILY_TOTALS_SQL: &str = "CREATE VIEW daily_totals AS \
    SELECT time.id AS timeid, SUM(price) AS TotalPrice, COUNT(*) AS N \
    FROM sale, time WHERE sale.timeid = time.id GROUP BY time.id";

/// A frame live quarantined one summary for and committed for the rest
/// recovers the same way. The delete of a sale the sources never had —
/// its day sold, its (day, product) not — passes the door, since no store
/// holds `sale` to refuse it: `daily_product` fails and is quarantined,
/// `daily_totals` commits. Crash recovery under `quarantine(true)` commits
/// the frame for `daily_totals` and quarantines `daily_product` behind it,
/// so it comes up at the live image, and repair dead-letters the delete on
/// both. All-or-nothing recovery, whose live warehouse logs no frame a
/// summary failed, dead-letters the frame for everyone.
#[test]
fn crash_recovery_quarantines_the_summary_the_live_batch_quarantined() {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().quarantine(true).build(db.catalog());
    for sql in [views::DAILY_PRODUCT_SQL, DAILY_TOTALS_SQL] {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    assert!(wh.plan("daily_totals").unwrap().root_omitted());
    let image = wh.save().unwrap();
    let sales: Vec<Row> = db.table(schema.sale).rows().collect();
    let day = sales[0][1].clone();
    let sold = |product: &Value| sales.iter().any(|s| s[1] == day && s[2] == *product);
    let product = (1..).map(Value::Int).find(|p| !sold(p)).unwrap();
    let ghost = row![Value::Int(sales.len() as i64 + 1_000), day, product, 1, 2.5];
    let batch = ChangeBatch::single(schema.sale, vec![Change::Delete(ghost)]);
    wh.apply_batch(&batch).unwrap();
    let quarantined = |wh: &Warehouse| -> Vec<(String, u64)> {
        (wh.quarantined())
            .map(|(name, e)| (name.to_owned(), e.since_lsn()))
            .collect()
    };
    assert_eq!(quarantined(&wh), [("daily_product".to_owned(), 1)]);
    let live = wh.save().unwrap();
    let log = wh.wal_bytes().unwrap().to_vec();

    let mut recovered = Warehouse::builder()
        .quarantine(true)
        .recover(db.catalog(), &image, &log)
        .unwrap();
    assert_eq!(quarantined(&recovered), quarantined(&wh));
    assert!(recovered.dead_letters().is_empty());
    assert_eq!(
        recovered.summary_rows("daily_totals").unwrap(),
        wh.summary_rows("daily_totals").unwrap()
    );
    assert_eq!(recovered.save().unwrap(), live);
    for wh in [&mut wh, &mut recovered] {
        let report = wh.repair("daily_product").unwrap();
        assert_eq!(report.dead_lettered, 1);
    }
    assert_eq!(recovered.save().unwrap(), wh.save().unwrap());

    let strict = Warehouse::builder()
        .recover(db.catalog(), &image, &log)
        .unwrap();
    assert_eq!(strict.quarantined().count(), 0);
    assert_eq!(strict.dead_letters().len(), 1);
}
