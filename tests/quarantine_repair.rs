//! End-to-end fault-domain isolation: a faulty summary is quarantined
//! behind an LSN watermark while the healthy rest of the warehouse keeps
//! committing, repair replays the change log written since — and only
//! what was logged — transient I/O faults are
//! absorbed by the bounded-backoff retry, and the recovery asymmetries
//! (log without snapshot, snapshot without log) come up serving with a
//! warning instead of failing.

use md_maintain::{FaultPlan, IoFaultKind};
use md_warehouse::{ChangeBatch, Warehouse, WarehouseError};
use md_workload::{
    generate_retail, sale_changes, views, Contracts, RetailParams, RetailSchema, UpdateMix,
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
/// healthy summaries commit the whole workload, follow-up batches count
/// on the entry as they are logged, and `repair` reinstates the summary
/// to the exact fault-free state.
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
        .map(|(_, e)| (e.since_lsn(), e.pending_groups(), e.cause().to_owned()))
        .expect("entry exists");
    assert!(entry.0 > 0, "watermark is a committed LSN");
    assert_eq!(entry.1, 1, "the faulted batch's group is logged");
    assert!(
        entry.2.contains("injected"),
        "cause names the fault: {}",
        entry.2
    );

    // A third batch commits for the healthy summaries and awaits replay
    // for the quarantined one.
    wh.apply_batch(&workload[2]).expect("serving continues");
    let (_, e) = wh.quarantined().next().unwrap();
    assert_eq!(e.pending_groups(), 2);
    assert!(e.pending_changes() >= 2);

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
/// stays at its pre-fault rows while the healthy rest commits every batch
/// and its deltas queue up, and repair brings it to the fault-free state.
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
    assert!(entry.pending_changes() > 0, "queued deltas accumulate");
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
    wh.repair("product_sales").expect("repair succeeds");
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
    let (mut wh, workload, pristine, db) = quarantined_with_a_faulted_batch(|faults| {
        faults.arm_transient("warehouse.wal.append", 0, IoFaultKind::DiskFull, 1)
    });
    let (_, entry) = wh.quarantined().next().unwrap();
    assert_eq!(entry.pending_groups(), 2, "only logged groups await replay");

    let report = wh.repair("daily_product").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 2);
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
    let (_, entry) = wh.quarantined().next().unwrap();
    assert_eq!(entry.pending_groups(), 3, "the crashed batch was logged");

    let report = wh.repair("daily_product").expect("repair succeeds");
    assert_eq!(report.replayed_groups, 3);
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

/// Transient fsync/write faults on the change-log append and the
/// snapshot save are absorbed by the bounded-backoff retry: the caller
/// sees clean commits and the final state matches a fault-free run.
#[test]
fn transient_io_faults_are_absorbed_by_retry() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let workload = batches(&mut db, &schema, 2);
    faults.arm_transient("warehouse.wal.append", 0, IoFaultKind::Fsync, 2);
    faults.arm_transient("warehouse.save", 0, IoFaultKind::Write, 1);
    for batch in &workload {
        wh.apply_batch(batch).expect("retries absorb the faults");
    }
    let image = wh.save().expect("retried save succeeds");

    let oracle = fault_free(&pristine, &workload);
    assert_eq!(wh.wal_bytes(), oracle.wal_bytes());
    assert_eq!(image, oracle.save().unwrap());
}

/// A torn write on every batch's change-log append truncates and heals
/// on the first retry: no batch is lost and the log and image match a
/// fault-free run byte for byte.
#[test]
fn a_torn_append_on_every_batch_heals_on_retry() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let pristine = db.clone();
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let workload = batches(&mut db, &schema, 4);
    for batch in &workload {
        faults.arm_transient("warehouse.wal.append", 0, IoFaultKind::Torn, 1);
        wh.apply_batch(batch).expect("retry absorbs the torn write");
    }
    assert_eq!(
        wh.obs().counter("wal.retries", &[]).get(),
        workload.len() as u64,
        "every batch's append was torn once and retried"
    );

    let oracle = fault_free(&pristine, &workload);
    assert_eq!(wh.wal_bytes(), oracle.wal_bytes());
    assert_eq!(wh.save().unwrap(), oracle.save().unwrap());
}

/// Disk-full is not transient: the append escalates instead of burning
/// the retry budget, the batch rolls back to a byte-identical pre-batch
/// state, and the warehouse keeps serving.
#[test]
fn disk_full_escalates_and_rolls_back() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .fault_plan(faults.clone())
        .build(db.catalog());
    add_paper_views(&mut wh, &db);

    let workload = batches(&mut db, &schema, 2);
    let before = wh.save().unwrap();
    faults.arm_transient("warehouse.wal.append", 0, IoFaultKind::DiskFull, 1);
    let err = wh
        .apply_batch(&workload[0])
        .expect_err("disk full escalates");
    assert!(err.to_string().contains("disk-full"), "got: {err}");
    assert_eq!(wh.save().unwrap(), before, "failed batch leaves no trace");

    wh.apply_batch(&workload[1]).expect("serving continues");
    for (name, audit) in wh.audit() {
        assert!(audit.is_clean(), "audit of '{name}'");
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
