//! Crash-safety: at *every* named injection point in the apply / log /
//! commit / snapshot paths, a simulated crash must leave the system
//! recoverable to exactly the state an oracle (a fault-free warehouse fed
//! the surviving batches) reaches — and a failed batch must be perfectly
//! invisible at the engine level (snapshot-before == snapshot-after,
//! byte for byte).

#[path = "../crates/maintain/tests/common/mod.rs"]
mod common;

use common::Solo;
use md_core::derive;
use md_maintain::{FaultPlan, MaintainError, Wal};
use md_relation::{row, Change, Database, Row, TableId, Value};
use md_sql::parse_view;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, generate_snowflake, product_brand_changes, sale_changes, snowflake_catalog,
    time_inserts, views, Contracts, RetailParams, RetailSchema, SnowflakeParams, UpdateMix,
};

const VIEWS: [&str; 3] = [
    views::PRODUCT_SALES_SQL,
    views::PRODUCT_SALES_MAX_SQL,
    views::DAILY_PRODUCT_SQL,
];
const VIEW_NAMES: [&str; 3] = ["product_sales", "product_sales_max", "daily_product"];

/// A faulty warehouse and a fault-free oracle over the same initial data.
/// The fault plan's interior is shared, so the caller's handle can arm
/// injection points after the warehouse is built.
fn setup_with(faults: FaultPlan) -> (Database, RetailSchema, Warehouse, Warehouse) {
    let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder().fault_plan(faults).build(db.catalog());
    let mut oracle = Warehouse::new(db.catalog());
    for sql in VIEWS {
        wh.add_summary_sql(sql, &db).unwrap();
        oracle.add_summary_sql(sql, &db).unwrap();
    }
    (db, schema, wh, oracle)
}

fn setup() -> (Database, RetailSchema, Warehouse, Warehouse) {
    setup_with(FaultPlan::default())
}

fn assert_same_summaries(a: &Warehouse, b: &Warehouse, ctx: &str) {
    for name in VIEW_NAMES {
        assert_eq!(
            a.summary_rows(name).unwrap(),
            b.summary_rows(name).unwrap(),
            "summary '{name}' diverged from oracle ({ctx})"
        );
    }
}

/// A mixed batch schedule hitting facts, a dependency-edge dimension and a
/// non-dependency dimension. Generated up front so the faulty run and the
/// oracle see identical change vectors.
fn mixed_batches(db: &mut Database, schema: &RetailSchema) -> Vec<(TableId, Vec<Change>)> {
    vec![
        (
            schema.sale,
            sale_changes(db, schema, 12, UpdateMix::balanced(), 101),
        ),
        (schema.product, product_brand_changes(db, schema, 3, 102)),
        (
            schema.sale,
            sale_changes(
                db,
                schema,
                12,
                UpdateMix {
                    delete_pct: 30,
                    update_pct: 30,
                },
                103,
            ),
        ),
        (schema.time, time_inserts(db, schema, 2)),
        (
            schema.sale,
            sale_changes(db, schema, 12, UpdateMix::balanced(), 104),
        ),
    ]
}

/// Crash at (`point`, `nth`), recover from the last snapshot + the change
/// log, and require the recovered warehouse to equal the oracle — then to
/// keep serving and maintaining.
fn crash_and_recover_at(point: &str, nth: u64) {
    let mut plan = FaultPlan::recording();
    let (mut db, schema, mut wh, mut oracle) = setup_with(plan.clone());

    // Committed pre-crash traffic, then the "last periodic snapshot".
    for (t, c) in [
        (
            schema.sale,
            sale_changes(&mut db, &schema, 12, UpdateMix::balanced(), 100),
        ),
        (schema.time, time_inserts(&mut db, &schema, 2)),
    ] {
        wh.apply_batch(&ChangeBatch::single(t, c.to_vec())).unwrap();
        oracle
            .apply_batch(&ChangeBatch::single(t, c.to_vec()))
            .unwrap();
    }
    let snapshot = wh.save().unwrap();

    // Arm through the retained handle — configuration itself is immutable
    // after build, but the shared plan interior can still be armed.
    plan.arm(point, nth);

    let mut fault_fired = false;
    let batches = mixed_batches(&mut db, &schema);
    // The batches the sources took and the warehouse never did.
    let mut cut_off = &batches[..0];
    for (i, (t, c)) in batches.iter().enumerate() {
        match wh.apply_batch(&ChangeBatch::single(*t, c.to_vec())) {
            Ok(()) => oracle
                .apply_batch(&ChangeBatch::single(*t, c.to_vec()))
                .unwrap(),
            Err(e) => {
                assert!(
                    e.to_string().contains("injected fault"),
                    "expected the injected fault at '{point}', got: {e}"
                );
                fault_fired = true;
                // The crash hit *after* the log append: the batch is
                // durable and recovery will replay it.
                let durable = point == "warehouse.apply.commit";
                if durable {
                    oracle
                        .apply_batch(&ChangeBatch::single(*t, c.to_vec()))
                        .unwrap();
                }
                cut_off = &batches[i + usize::from(durable)..];
                break;
            }
        }
    }
    if point == "warehouse.save" {
        // Snapshotting is the faulting step here; applies all succeeded.
        assert!(!fault_fired, "applies must not traverse '{point}'");
        assert!(wh.save().unwrap_err().to_string().contains("injected"));
        fault_fired = true;
    }
    assert!(fault_fired, "fault plan for '{point}' never fired");

    // The crash: all that survives is the snapshot and the log image.
    let wal = wh.wal_bytes().unwrap().to_vec();
    drop(wh);

    let mut recovered = Warehouse::builder()
        .recover(db.catalog(), &snapshot, &wal)
        .unwrap();
    assert!(
        recovered.dead_letters().is_empty(),
        "replay after '{point}' must not dead-letter anything: {:?}",
        recovered.dead_letters()
    );
    assert_same_summaries(
        &recovered,
        &oracle,
        &format!("after recovery from '{point}'"),
    );
    for (name, report) in recovered.audit() {
        assert!(
            report.is_clean(),
            "audit of '{name}' after '{point}': {:?}",
            report.findings
        );
    }

    // Recovery is idempotent: running it again changes nothing.
    let again = Warehouse::builder()
        .recover(db.catalog(), &snapshot, &wal)
        .unwrap();
    assert_same_summaries(&again, &oracle, &format!("second recovery from '{point}'"));

    // And the recovered warehouse keeps serving and maintaining: it takes
    // the batches the crash cut off — the sources hold them, and the next
    // changes may delete their rows — then new traffic.
    for (t, c) in cut_off {
        for warehouse in [&mut recovered, &mut oracle] {
            let batch = ChangeBatch::single(*t, c.to_vec());
            warehouse.apply_batch(&batch).unwrap();
        }
    }
    let tail = sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 105);
    recovered
        .apply_batch(&ChangeBatch::single(schema.sale, tail.to_vec()))
        .unwrap();
    oracle
        .apply_batch(&ChangeBatch::single(schema.sale, tail.to_vec()))
        .unwrap();
    assert_same_summaries(
        &recovered,
        &oracle,
        &format!("post-recovery traffic after '{point}'"),
    );
}

#[test]
fn every_injection_point_recovers_to_the_oracle() {
    // Every named injection point the warehouse path traverses (the
    // standalone engine commit point is covered separately below), some
    // at multiple traversal counts so the crash lands mid-batch.
    for (point, nth) in [
        ("warehouse.apply.begin", 0),
        ("engine.apply.begin", 0),
        ("engine.apply.change", 0),
        ("engine.apply.change", 7),
        ("engine.apply.flush", 0),
        ("warehouse.wal.torn", 0),
        ("warehouse.wal.append", 0),
        ("warehouse.apply.commit", 0),
        ("warehouse.save", 0),
    ] {
        crash_and_recover_at(point, nth);
    }
}

/// A failed batch's dead letters carry the LSNs `apply_batch` assigned it.
/// Failing before the log append, those are the LSNs the next batch takes
/// again; failing at the commit after it, they are burnt — the log's last
/// frames carry them and the table sequence numbers have moved to them.
#[test]
fn dead_letters_carry_the_lsns_the_batch_was_assigned() {
    for point in [
        "engine.apply.change",
        "warehouse.wal.append",
        "warehouse.apply.commit",
    ] {
        let mut plan = FaultPlan::recording();
        let (mut db, schema, mut wh, _) = setup_with(plan.clone());
        let warm_up = sale_changes(&mut db, &schema, 6, UpdateMix::balanced(), 110);
        wh.apply_batch(&ChangeBatch::single(schema.sale, warm_up))
            .unwrap();
        let mut batch = ChangeBatch::new();
        batch.extend(
            schema.sale,
            sale_changes(&mut db, &schema, 6, UpdateMix::balanced(), 111),
        );
        batch.extend(
            schema.product,
            product_brand_changes(&mut db, &schema, 2, 112),
        );
        let assigned: Vec<(TableId, u64)> = [schema.sale, schema.product]
            .map(|t| (t, wh.table_seq(t) + 1))
            .to_vec();
        assert_eq!(assigned, [(schema.sale, 2), (schema.product, 1)]);

        plan.arm(point, 0);
        wh.apply_batch(&batch)
            .expect_err("the fault rejects the batch");
        let mut lettered: Vec<(TableId, u64)> =
            wh.dead_letters().iter().map(|l| (l.table, l.lsn)).collect();
        lettered.sort();
        let mut expected = assigned.clone();
        expected.sort();
        assert_eq!(lettered, expected, "{point}");

        let (records, _) = Wal::replay(wh.wal_bytes().unwrap()).unwrap();
        let logged: Vec<(TableId, u64)> = records.iter().map(|r| (r.table, r.lsn)).collect();
        let burnt = point == "warehouse.apply.commit";
        if burnt {
            assert_eq!(logged[logged.len() - 2..], assigned, "{point}");
        } else {
            assert_eq!(logged, [(schema.sale, 1)], "{point}");
        }
        for (table, lsn) in &assigned {
            let seq = if burnt { *lsn } else { lsn - 1 };
            assert_eq!(wh.table_seq(*table), seq, "{point}");
        }
    }
}

/// The valid prefix of a change-log image: what recovery would replay.
fn valid_prefix(log: &[u8]) -> &[u8] {
    let (_, valid) = Wal::replay(log).unwrap();
    &log[..valid]
}

/// A fault at any point before the log append undoes the whole batch in
/// one place: the image and the log's valid prefix are what they were
/// before it, and the same batch then applies — no prepare is left open
/// behind it. Under quarantine a fault inside one summary's fold isolates
/// that summary instead, and repair brings it back. Either way the
/// warehouse ends where a fault-free one fed the same batch does.
#[test]
fn a_fault_before_the_log_append_is_undone_in_one_place() {
    for quarantine in [false, true] {
        for point in [
            "warehouse.apply.begin",
            "engine.apply.begin",
            "engine.apply.change",
            "engine.apply.flush",
            "warehouse.wal.torn",
            "warehouse.wal.append",
        ] {
            let ctx = format!("{point}, quarantine={quarantine}");
            let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
            let mut plan = FaultPlan::recording();
            let build = |faults: FaultPlan| {
                let mut wh = Warehouse::builder()
                    .quarantine(quarantine)
                    .fault_plan(faults)
                    .build(db.catalog());
                for sql in VIEWS {
                    wh.add_summary_sql(sql, &db).unwrap();
                }
                wh
            };
            let (mut wh, mut oracle) = (build(plan.clone()), build(FaultPlan::default()));
            let warm_up = sale_changes(&mut db, &schema, 6, UpdateMix::balanced(), 120);
            for warehouse in [&mut wh, &mut oracle] {
                let batch = ChangeBatch::single(schema.sale, warm_up.clone());
                warehouse.apply_batch(&batch).unwrap();
            }
            let mut batch = ChangeBatch::new();
            batch.extend(
                schema.sale,
                sale_changes(&mut db, &schema, 8, UpdateMix::balanced(), 121),
            );
            batch.extend(
                schema.product,
                product_brand_changes(&mut db, &schema, 2, 122),
            );
            let image = wh.save().unwrap();
            let log = wh.wal_bytes().unwrap().to_vec();

            plan.arm(point, 0);
            match wh.apply_batch(&batch) {
                Err(e) => {
                    assert!(e.to_string().contains("injected fault"), "{ctx}: {e}");
                    assert_eq!(wh.save().unwrap(), image, "{ctx}: image moved");
                    assert_eq!(
                        valid_prefix(wh.wal_bytes().unwrap()),
                        log,
                        "{ctx}: log moved"
                    );
                    assert_eq!(wh.quarantined().count(), 0, "{ctx}");
                    wh.apply_batch(&batch)
                        .unwrap_or_else(|e| panic!("{ctx}: the batch again: {e}"));
                }
                Ok(()) => {
                    assert!(quarantine && point.starts_with("engine."), "{ctx}");
                    assert_eq!(wh.quarantined().count(), 1, "{ctx}");
                    for (name, repaired) in wh.repair_all() {
                        repaired.unwrap_or_else(|e| panic!("{ctx}: repair of '{name}': {e}"));
                    }
                }
            }
            assert!(plan.points_seen().iter().any(|p| p == point), "{ctx}");
            oracle.apply_batch(&batch).unwrap();
            assert!(wh.verify_all(&db).unwrap(), "{ctx}");
            assert_eq!(wh.wal_bytes(), oracle.wal_bytes(), "{ctx}");
            assert_eq!(wh.save().unwrap(), oracle.save().unwrap(), "{ctx}");
        }
    }
}

#[test]
fn workload_traverses_every_injection_point() {
    let plan = FaultPlan::recording();
    let (mut db, schema, mut wh, _) = setup_with(plan.clone());
    for (t, c) in &mixed_batches(&mut db, &schema) {
        wh.apply_batch(&ChangeBatch::single(*t, c.to_vec()))
            .unwrap();
    }
    wh.save().unwrap();
    let seen = plan.points_seen();
    for point in [
        "warehouse.apply.begin",
        "engine.apply.begin",
        "engine.apply.change",
        "engine.apply.flush",
        "warehouse.wal.torn",
        "warehouse.wal.append",
        "warehouse.apply.commit",
        "warehouse.save",
    ] {
        assert!(
            seen.iter().any(|p| p == point),
            "workload never traversed '{point}' (saw {seen:?})"
        );
    }
}

#[test]
fn failed_engine_apply_is_byte_for_byte_invisible() {
    for (point, nth) in [
        ("engine.apply.begin", 0),
        ("engine.apply.change", 4),
        ("engine.apply.flush", 0),
    ] {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut faults = FaultPlan::recording();
        let mut wh = Warehouse::builder()
            .fault_plan(faults.clone())
            .build(db.catalog());
        wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();

        let changes = sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 7);
        let batch = ChangeBatch::single(schema.sale, changes);
        assert!(batch.coalesced().change_count() > 4);
        let before = wh.save().unwrap();

        faults.arm(point, nth);
        let err = wh.apply_batch(&batch).unwrap_err();
        assert!(
            err.to_string().contains("injected fault"),
            "'{point}': expected the injected fault, got: {err}"
        );
        assert_eq!(
            before,
            wh.save().unwrap(),
            "'{point}': failed apply must leave the warehouse byte-for-byte unchanged"
        );

        // The fault disarmed itself; the same batch now applies, and the
        // warehouse converges to the sources.
        wh.apply_batch(&batch).unwrap();
        assert!(wh.verify_all(&db).unwrap(), "'{point}'");
    }
}

#[test]
fn the_initial_load_is_invisible_to_fault_plans() {
    // `daily_product` keeps no root auxiliary view, so its load folds the
    // fact table through the routine a batch's root changes take — without
    // being a batch: points armed before registration wait for the feed.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    faults.arm("engine.apply.change", 4);
    faults.arm("engine.apply.flush", 0);
    let mut wh = Warehouse::builder()
        .fault_plan(faults.clone())
        .build(db.catalog());
    wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
    assert!(wh.plan("daily_product").unwrap().root_omitted());
    assert_eq!(faults.points_seen(), Vec::<String>::new());
    assert!(wh.verify_all(&db).unwrap());

    let changes = sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 7);
    let batch = ChangeBatch::single(schema.sale, changes.to_vec());
    assert!(batch.coalesced().change_count() > 4);
    let before = wh.save().unwrap();

    // The first batch fed trips the change countdown at change #4 …
    let err = wh.apply_batch(&batch).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "got: {err}");
    let letters = wh.dead_letters_mut().drain();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].change_index, Some(4));
    assert_eq!(before, wh.save().unwrap(), "change fault left a trace");

    // … its retry the flush point, still at its first traversal …
    let err = wh.apply_batch(&batch).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "got: {err}");
    assert_eq!(wh.dead_letters_mut().drain()[0].change_index, None);
    assert_eq!(before, wh.save().unwrap(), "flush fault left a trace");

    // … and then it applies.
    wh.apply_batch(&batch).unwrap();
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn absent_row_delete_is_attributed_to_its_change() {
    // One run of four occurrences on a root key nothing references yet:
    // the third deletes a row that is absent once the first two cancelled.
    // The kernels fail the run as a whole; the replay must still name
    // change #2 — for a materialized root (the aux fold fails) and for a
    // root-omitted plan (the summary fold fails).
    for (sql, reason) in [
        (views::PRODUCT_SALES_SQL, "absent from"),
        (views::DAILY_PRODUCT_SQL, "absent summary group"),
    ] {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let cat = db.catalog().clone();
        let view = parse_view(sql, &cat, "v").unwrap();
        let mut solo = Solo::loaded(derive(&view, &cat).unwrap(), &db);
        let newcomer = db
            .insert(schema.product, row![11, "brand-x", "cat-x"])
            .unwrap();
        solo.apply(schema.product, &[newcomer]).unwrap();

        // A day `product_sales` keeps (1997), a product nothing sold yet.
        let day = db
            .table(schema.time)
            .rows()
            .find(|t| t[3] == Value::Int(1997));
        let template = db.table(schema.sale).rows().next().unwrap();
        let unsold = |id: i64| {
            let mut vals = resold(&template, id, None).into_values();
            vals[1] = day.as_ref().expect("a 1997 day")[0].clone();
            vals[2] = Value::Int(11);
            Row::new(vals)
        };
        let changes = [
            Change::Insert(unsold(900_001)),
            Change::Delete(unsold(900_001)),
            Change::Delete(unsold(900_002)),
            Change::Insert(unsold(900_003)),
        ];
        let before = solo.snapshot().unwrap();
        match solo.apply(schema.sale, &changes).unwrap_err() {
            MaintainError::Rejected {
                table,
                change_index,
                reason: cause,
            } => {
                assert_eq!((table.as_str(), change_index), ("sale", Some(2)), "{sql}");
                assert!(cause.to_string().contains(reason), "{sql}: {cause}");
            }
            other => panic!("{sql}: expected a rejection, got {other}"),
        }
        assert_eq!(before, solo.snapshot().unwrap(), "{sql}: image moved");
        assert!(solo.audit().is_clean(), "{sql}");
    }
}

/// The sale rows of the product with the fewest of them, ordered so that
/// no earlier row shares the last row's price.
fn rows_of_smallest_product(db: &Database, schema: &RetailSchema) -> Vec<Row> {
    let sales: Vec<Row> = db.table(schema.sale).rows().collect();
    let product = sales
        .iter()
        .map(|r| r[2].clone())
        .min_by_key(|p| sales.iter().filter(|r| r[2] == *p).count())
        .expect("sales exist");
    let mut rows: Vec<_> = sales.into_iter().filter(|r| r[2] == product).collect();
    let last_price = rows.last().expect("product has sales")[4].clone();
    rows.sort_by_key(|r| r[4] == last_price);
    rows
}

/// `row` with another sale id and, when given, another price.
fn resold(row: &Row, id: i64, price: Option<f64>) -> Row {
    let mut vals = row.clone().into_values();
    vals[0] = Value::Int(id);
    if let Some(price) = price {
        vals[4] = Value::Double(price);
    }
    Row::new(vals)
}

#[test]
fn failed_batches_unwind_every_value_count_transition() {
    // `product_sales_max` groups by product and counts each price under
    // its MAX, so one product's sales drive every shape of value-count
    // mutation; root-omitted `daily_product` takes the same batches with
    // no root store and no value counts at all. Each batch ends with an
    // unrelated insert; a fault on the last change fires before any fold,
    // a fault at the flush point after every fold. The image holds the
    // maps, so "image moved" is an entry a rollback failed to put back.
    type Build = fn(&mut Database, &RetailSchema) -> Vec<Change>;
    let scenarios: [(&str, Build); 4] = [
        ("a count driven to zero", |db, schema| {
            let rows = rows_of_smallest_product(db, schema);
            let unique = rows
                .iter()
                .find(|r| rows.iter().filter(|o| o[4] == r[4]).count() == 1)
                .expect("a price sold once");
            vec![db.delete(schema.sale, &unique[0]).unwrap()]
        }),
        ("last row deleted and its count refilled", |db, schema| {
            // The final delete empties the group inside the run of the
            // last row's root key; the insert lands in the same run.
            let rows = rows_of_smallest_product(db, schema);
            let mut changes: Vec<Change> = rows
                .iter()
                .map(|r| db.delete(schema.sale, &r[0]).unwrap())
                .collect();
            let again = resold(rows.last().unwrap(), 900_001, None);
            changes.push(db.insert(schema.sale, again).unwrap());
            changes
        }),
        ("a brand-new group", |db, schema| {
            let template = db.table(schema.sale).rows().next().unwrap();
            let mut vals = resold(&template, 900_002, None).into_values();
            vals[2] = Value::Int(11);
            vec![db.insert(schema.sale, Row::new(vals)).unwrap()]
        }),
        ("every count emptied, group present again", |db, schema| {
            let rows = rows_of_smallest_product(db, schema);
            let mut changes: Vec<Change> = rows
                .iter()
                .map(|r| db.delete(schema.sale, &r[0]).unwrap())
                .collect();
            let repriced = resold(&rows[0], 900_003, Some(999.25));
            changes.push(db.insert(schema.sale, repriced).unwrap());
            changes
        }),
    ];

    for target in ["product_sales_max", "daily_product"] {
        for on_last_change in [true, false] {
            for (what, build) in scenarios {
                let ctx = format!("{what}, fault in {target}, last={on_last_change}");
                let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
                let mut plan = FaultPlan::recording();
                let mut wh = Warehouse::builder()
                    .fault_plan(plan.clone())
                    .build(db.catalog());
                for sql in VIEWS {
                    wh.add_summary_sql(sql, &db).unwrap();
                }
                // A product nothing has sold yet, for the brand-new group.
                let newcomer = db
                    .insert(schema.product, row![11, "brand-x", "cat-x"])
                    .unwrap();
                wh.apply_batch(&ChangeBatch::single(schema.product, vec![newcomer]))
                    .unwrap();

                let mut changes = build(&mut db, &schema);
                let filler = resold(&db.table(schema.sale).rows().next().unwrap(), 900_009, None);
                changes.push(db.insert(schema.sale, filler).unwrap());
                let batch = ChangeBatch::single(schema.sale, changes.clone());
                assert_eq!(batch.coalesced(), batch, "{ctx}: nothing to fold");

                let before = wh.save().unwrap();
                if on_last_change {
                    plan.arm(
                        &format!("engine.apply.change@{target}"),
                        changes.len() as u64 - 1,
                    );
                } else {
                    plan.arm(&format!("engine.apply.flush@{target}"), 0);
                }
                let err = wh.apply_batch(&batch).unwrap_err();
                assert!(err.to_string().contains("injected fault"), "{ctx}: {err}");
                assert_eq!(before, wh.save().unwrap(), "{ctx}: image moved");
                for (name, report) in wh.audit() {
                    assert!(report.is_clean(), "{ctx}: '{name}': {:?}", report.findings);
                }

                wh.apply_batch(&batch).unwrap();
                assert!(wh.verify_all(&db).unwrap(), "{ctx}");
                for (name, report) in wh.audit() {
                    assert!(report.is_clean(), "{ctx}: '{name}': {:?}", report.findings);
                }
            }
        }
    }
}

/// Loads an engine for `sql` over `db`, builds one multi-group batch
/// with `build` (which mutates `db`), and fails it twice — at the flush
/// point of group `flush_of` (after that group's folds, value counts
/// moved) and on the first change of the last group. Each
/// rollback must restore the pre-batch image byte for byte; the batch
/// must then apply and agree with the sources.
fn assert_dim_batch_rolls_back<S>(
    ctx: &str,
    sql: &str,
    (mut db, schema): (Database, S),
    flush_of: u64,
    build: impl FnOnce(&mut Database, &S) -> Vec<(TableId, Vec<Change>)>,
) {
    let cat = db.catalog().clone();
    let view = parse_view(sql, &cat, "v").unwrap();
    let mut solo = Solo::loaded(derive(&view, &cat).unwrap(), &db);

    let owned = build(&mut db, &schema);
    let groups: Vec<(TableId, &[Change])> = owned.iter().map(|(t, c)| (*t, c.as_slice())).collect();
    let (last, earlier) = groups.split_last().expect("a batch");
    assert!(!last.1.is_empty(), "{ctx}: the last group takes the fault");
    let before_last: usize = earlier.iter().map(|(_, c)| c.len()).sum();
    let before = solo.snapshot().unwrap();

    for (point, nth) in [
        ("engine.apply.flush", flush_of),
        ("engine.apply.change", before_last as u64),
    ] {
        let mut faults = FaultPlan::recording();
        faults.arm(point, nth);
        solo.engine.set_fault_plan(faults);
        let err = solo.prepare(&groups).map(drop).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{ctx}: {err}");
        assert_eq!(
            before,
            solo.snapshot().unwrap(),
            "{ctx}: image moved by a fault at {point}#{nth}"
        );
        let audit = solo.audit();
        assert!(audit.is_clean(), "{ctx}: {:?}", audit.findings);
    }

    let lsns: Vec<(TableId, u64)> = groups.iter().map(|(t, _)| (*t, 1)).collect();
    solo.prepare(&groups).unwrap().commit(&lsns);
    assert!(solo.engine.verify_against(&db).unwrap(), "{ctx}");
    assert!(solo.verify_aux_against(&db).unwrap(), "{ctx}");
    let audit = solo.audit();
    assert!(audit.is_clean(), "{ctx}: {:?}", audit.findings);
    assert_eq!(solo.engine.stats().summary_rebuilds, 0, "{ctx}");
}

/// An in-place update of row `key` of `table`: `column` becomes `value`.
fn set_column(
    db: &mut Database,
    table: TableId,
    key: i64,
    column: usize,
    value: impl Into<Value>,
) -> Change {
    let key = Value::Int(key);
    let mut vals = db
        .table(table)
        .get(&key)
        .expect("row exists")
        .clone()
        .into_values();
    vals[column] = value.into();
    db.update(table, &key, Row::new(vals)).unwrap()
}

#[test]
fn dim_batches_roll_back_cleanly_too() {
    // One transaction that folds fact rows and moves contributions after
    // dimension changes, in either order, then fails in the dimension
    // group's flush or in a third group: the rollback must unwind the
    // contributions moved between groups and the value counts moved
    // within them, on whichever side of each other they happened.
    // (iv) MAX and COUNT(DISTINCT) read the renamed attribute.
    const BRAND_EXTREMES_SQL: &str = "\
        CREATE VIEW brand_extremes AS \
        SELECT time.month, MAX(product.brand) AS LastBrand, \
               COUNT(DISTINCT product.brand) AS Brands, COUNT(*) AS N \
        FROM sale, time, product \
        WHERE sale.timeid = time.id AND sale.productid = product.id \
        GROUP BY time.month";

    // (i) Under `brand_sales` a rename moves root keys between groups —
    // here group "solo" appears, empties and reappears in one table
    // group; root-omitted `daily_product` keeps no product attribute, so
    // the renames are empty deltas for it.
    for (sql, sales_first) in [
        views::PRODUCT_SALES_SQL,
        views::BRAND_SALES_SQL,
        BRAND_EXTREMES_SQL,
        views::DAILY_PRODUCT_SQL,
    ]
    .into_iter()
    .flat_map(|sql| [(sql, true), (sql, false)])
    {
        assert_dim_batch_rolls_back(
            &format!("sales_first={sales_first}, {sql}"),
            sql,
            generate_retail(RetailParams::tiny(), Contracts::Tight),
            if sales_first { 1 } else { 0 },
            |db, schema| {
                let sales = sale_changes(db, schema, 10, UpdateMix::balanced(), 7);
                let mut renames = product_brand_changes(db, schema, 4, 11);
                renames.push(set_column(db, schema.product, 1, 1, "solo"));
                renames.push(set_column(db, schema.product, 1, 1, "duo"));
                renames.push(set_column(db, schema.product, 2, 1, "solo"));
                let tail = sale_changes(db, schema, 4, UpdateMix::balanced(), 8);
                let mut groups = vec![(schema.sale, sales), (schema.product, renames)];
                if !sales_first {
                    groups.reverse();
                }
                groups.push((schema.sale, tail));
                groups
            },
        );
    }

    // (ii) Condition-crossing updates (the default contract exposes
    // `time.year`): a 1997 day leaves `product_sales`, a 1996 day enters
    // it, one changes month inside it.
    assert_dim_batch_rolls_back(
        "days crossing year = 1997",
        views::PRODUCT_SALES_SQL,
        generate_retail(RetailParams::tiny(), Contracts::Default),
        1,
        |db, schema| {
            let year = |db: &Database, want: i64| {
                let mut days: Vec<i64> = db
                    .table(schema.time)
                    .rows()
                    .filter(|t| t[3] == Value::Int(want))
                    .map(|t| t[0].as_int().unwrap())
                    .collect();
                days.sort_unstable();
                days
            };
            let (y96, y97) = (year(db, 1996), year(db, 1997));
            let sales = sale_changes(db, schema, 10, UpdateMix::balanced(), 7);
            let days = vec![
                set_column(db, schema.time, y97[0], 3, 1996i64),
                set_column(db, schema.time, y96[0], 3, 1997i64),
                set_column(db, schema.time, y97[1], 2, 11i64),
                set_column(db, schema.time, y97[0], 3, 1997i64),
            ];
            let tail = sale_changes(db, schema, 4, UpdateMix::balanced(), 8);
            vec![
                (schema.sale, sales),
                (schema.time, days),
                (schema.sale, tail),
            ]
        },
    );

    // (iii) A snowflake chain, product → category: two categories merge
    // into one name (their facts are found through the products'
    // reverse lookup), a product moves to another category, and the
    // merged name splits again.
    let relaxed_snowflake = || {
        let (tight, schema) = generate_snowflake(SnowflakeParams::tiny());
        let (mut cat, _) = snowflake_catalog();
        cat.set_updatable_columns(schema.category, &[1]).unwrap();
        cat.set_updatable_columns(schema.product, &[1, 2]).unwrap();
        let mut db = Database::new(cat);
        for table in [schema.category, schema.product, schema.time, schema.sale] {
            for row in tight.table(table).rows() {
                db.insert(table, row).unwrap();
            }
        }
        (db, schema)
    };
    for sql in [
        "CREATE VIEW category_sales AS \
         SELECT category.name, SUM(price) AS Revenue, COUNT(*) AS N \
         FROM sale, product, category \
         WHERE sale.productid = product.id AND product.categoryid = category.id \
         GROUP BY category.name",
        "CREATE VIEW department_brands AS \
         SELECT category.department, MAX(category.name) AS LastCategory, \
                COUNT(DISTINCT product.brand) AS Brands, COUNT(*) AS N \
         FROM sale, product, category \
         WHERE sale.productid = product.id AND product.categoryid = category.id \
         GROUP BY category.department",
    ] {
        assert_dim_batch_rolls_back(sql, sql, relaxed_snowflake(), 0, |db, schema| {
            let renames = vec![
                set_column(db, schema.category, 1, 1, "merged"),
                set_column(db, schema.category, 2, 1, "merged"),
            ];
            let moves = vec![
                set_column(db, schema.product, 1, 2, 3i64),
                set_column(db, schema.product, 2, 1, "brand-x"),
            ];
            let sales = vec![
                db.insert(schema.sale, row![900_001, 1, 1, 2.5]).unwrap(),
                db.delete(schema.sale, &Value::Int(1)).unwrap(),
            ];
            let split = vec![set_column(db, schema.category, 2, 1, "split")];
            vec![
                (schema.category, renames),
                (schema.product, moves),
                (schema.sale, sales),
                (schema.category, split),
            ]
        });
    }
}

#[test]
fn rejected_batches_are_dead_lettered_and_serving_continues() {
    // Graceful degradation without fault injection: under the paper's
    // append-only regime (every source insert-only) a batch containing a
    // delete is rejected with the offending change named, lands in the
    // dead-letter store, and the warehouse keeps applying later batches
    // as if it never happened.
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
    let mut db = Database::new(cat.clone());
    db.insert(product, row![1, "acme"]).unwrap();
    db.insert(sale, row![1, 1, 2.5]).unwrap();

    let mut wh = Warehouse::new(&cat);
    wh.add_summary_sql(
        "CREATE VIEW by_brand AS \
         SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS N \
         FROM sale, product WHERE sale.productid = product.id \
         GROUP BY product.brand",
        &db,
    )
    .unwrap();

    let rows_before = wh.summary_rows("by_brand").unwrap();
    let seq_before = wh.table_seq(sale);
    let bad = vec![
        Change::Insert(row![2, 1, 4.0]),
        Change::Delete(row![1, 1, 2.5]),
    ];
    let err = wh
        .apply_batch(&ChangeBatch::single(sale, bad.to_vec()))
        .unwrap_err();
    assert!(err.to_string().contains("append-only"), "got: {err}");

    let letters = wh.dead_letters();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].table, sale);
    assert_eq!(letters[0].change_index, Some(1), "the delete is change #1");
    assert!(letters[0].reason.contains("append-only"));
    assert_eq!(letters[0].changes, bad);

    // Nothing of the rejected batch leaked, and the LSN was not consumed.
    assert_eq!(wh.summary_rows("by_brand").unwrap(), rows_before);
    assert_eq!(wh.table_seq(sale), seq_before);

    // Serving and maintenance continue.
    let good = db.insert(sale, row![2, 1, 4.0]).unwrap();
    wh.apply_batch(&ChangeBatch::single(sale, vec![good]))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
    assert_eq!(wh.table_seq(sale), seq_before + 1);
    assert_eq!(wh.dead_letters_mut().drain().len(), 1);
    assert!(wh.dead_letters().is_empty());
}

#[test]
fn recovery_skips_batches_the_snapshot_already_contains() {
    // Snapshot *after* some logged batches: replay must skip exactly the
    // prefix the snapshot's LSN vector covers (idempotent replay).
    let (mut db, schema, mut wh, mut oracle) = setup();

    let batches = mixed_batches(&mut db, &schema);
    for (i, (t, c)) in batches.iter().enumerate() {
        wh.apply_batch(&ChangeBatch::single(*t, c.to_vec()))
            .unwrap();
        oracle
            .apply_batch(&ChangeBatch::single(*t, c.to_vec()))
            .unwrap();
        if i == 2 {
            // Periodic snapshot mid-stream; the log retains everything.
            let snapshot = wh.save().unwrap();
            let _ = snapshot;
        }
    }
    let late_snapshot = wh.save().unwrap();
    let wal = wh.wal_bytes().unwrap().to_vec();
    drop(wh);

    // Recovering from the late snapshot replays nothing new.
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &late_snapshot, &wal)
        .unwrap();
    assert_same_summaries(&recovered, &oracle, "snapshot-at-tip recovery");
    // A recovered warehouse counts from zero, so any work counted is a
    // batch re-applied.
    for name in VIEW_NAMES {
        assert_eq!(
            recovered.stats(name).unwrap(),
            md_warehouse::MaintStats::default(),
            "replay must be skipped, not re-applied, for '{name}'"
        );
    }
    assert_eq!(recovered.save().unwrap(), late_snapshot);
}
