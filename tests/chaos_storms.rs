//! Seeded fault storms against quarantine and repair.
//!
//! For each of 32 seeds a retail workload (six summaries over the fact
//! table, three batches of sale changes, the second with product renames
//! too) runs under a storm of one to three injected faults, in the three
//! shapes the warehouse meets: a crash at the change-log append (torn or
//! not) or at the snapshot save, and a panic or a crash pinned to one
//! summary's fold. A crash at the log rejects its batch, which the runner
//! submits once more; a failed save is called again. About half the
//! storms also submit a copy of one batch with a row cut short, and about
//! half a copy with one update its table's contract forbids, each of which
//! the door must reject before the batch goes in whole. Whatever the
//! storm, every rejection must come from an armed log
//! point or the door and its resubmission commit, the dead letters must
//! be exactly those of the rejected batches, and every summary must equal
//! its recomputation from the sources and a run without faults, every
//! audit be clean, the quarantine drained, and the change log
//! byte-identical to the fault-free run's, its LSNs
//! strictly increasing per table.

use std::collections::BTreeMap;

use md_maintain::{FaultPlan, MaintainError, Wal};
use md_relation::{Catalog, Change, Database, Row, TableId, Value};
use md_warehouse::{ChangeBatch, Warehouse, WarehouseError};
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, views, Contracts, RetailParams,
    RetailSchema, UpdateMix,
};

const STORMS: u64 = 32;
const FIRST_SEED: u64 = 0xC4A0_5000;
const BATCHES: usize = 3;
const CHANGES_PER_BATCH: usize = 6;

/// The points where a crash rejects the batch: mid-append, leaving a torn
/// tail, and at the append.
const LOG_POINTS: [&str; 2] = ["warehouse.wal.torn", "warehouse.wal.append"];

/// The six summaries, by name, that engine-scoped faults target.
const SUMMARIES: [(&str, &str); 6] = [
    ("product_sales", views::PRODUCT_SALES_SQL),
    ("product_sales_max", views::PRODUCT_SALES_MAX_SQL),
    ("store_revenue", views::STORE_REVENUE_SQL),
    ("daily_product", views::DAILY_PRODUCT_SQL),
    (
        "monthly_volume",
        "CREATE VIEW monthly_volume AS SELECT time.month, COUNT(*) AS n \
         FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month",
    ),
    (
        "country_revenue",
        "CREATE VIEW country_revenue AS SELECT store.country, SUM(price) AS Revenue, \
         COUNT(*) AS n FROM sale, store WHERE sale.storeid = store.id GROUP BY store.country",
    ),
];

/// One injected fault.
#[derive(Debug, Clone)]
enum Fault {
    /// Fires `Injected` once, at the `nth` traversal.
    Crash { point: String, nth: u64 },
    /// Panics once, at the `nth` traversal.
    Panic { point: String, nth: u64 },
}

impl Fault {
    fn kind(&self) -> &'static str {
        match self {
            Fault::Panic { .. } => "panic",
            Fault::Crash { point, .. } => match point.as_str() {
                "warehouse.wal.torn" => "torn-log",
                "warehouse.wal.append" => "log-crash",
                "warehouse.save" => "save-crash",
                _ => "crash",
            },
        }
    }

    fn point(&self) -> &str {
        match self {
            Fault::Crash { point, .. } | Fault::Panic { point, .. } => point,
        }
    }

    fn arm_into(&self, plan: &mut FaultPlan) {
        match self {
            Fault::Crash { point, nth } => plan.arm(point, *nth),
            Fault::Panic { point, nth } => plan.arm_panic(point, *nth),
        }
    }
}

/// A copy of batch number `batch` with one row cut short, submitted
/// before it: `pick` chooses the group, the change, the side and the cut.
#[derive(Debug, Clone, Copy)]
struct Misfit {
    batch: usize,
    pick: u64,
}

impl Misfit {
    /// A copy of `batch` with one row of one of its groups cut short, and
    /// that group's table.
    fn cut(&self, batch: &ChangeBatch) -> (ChangeBatch, TableId) {
        let mut pick = self.pick;
        let mut draw = |n: usize| {
            let drawn = (pick % n as u64) as usize;
            pick /= n as u64;
            drawn
        };
        let groups = batch.groups();
        let at = draw(groups.len());
        let mut copy = ChangeBatch::new();
        for (g, (table, changes)) in groups.iter().enumerate() {
            let mut changes = changes.clone();
            if g == at {
                let change = draw(changes.len());
                let side = draw(2);
                let row = match &mut changes[change] {
                    Change::Insert(row) | Change::Delete(row) => row,
                    Change::Update { old, new } => [old, new].into_iter().nth(side).unwrap(),
                };
                let keep = draw(row.arity());
                *row = Row::new(row.values()[..keep].to_vec());
            }
            copy.extend(*table, changes);
        }
        (copy, groups[at].0)
    }
}

/// A copy of batch number `batch` with an update its table's contract
/// forbids put first in one of its groups, submitted before it: `pick`
/// chooses the group, the row it updates and the column it moves, one
/// outside the update contract or the key.
#[derive(Debug, Clone, Copy)]
struct Breach {
    batch: usize,
    pick: u64,
}

impl Breach {
    /// The copy of `batch`, the group's table, and what the door says of
    /// the update.
    fn forge(&self, batch: &ChangeBatch, catalog: &Catalog) -> (ChangeBatch, TableId, &str) {
        let mut pick = self.pick;
        let mut draw = |n: usize| {
            let drawn = (pick % n as u64) as usize;
            pick /= n as u64;
            drawn
        };
        let groups = batch.groups();
        let at = draw(groups.len());
        let mut copy = ChangeBatch::new();
        let mut reason = "";
        for (g, (table, changes)) in groups.iter().enumerate() {
            let mut changes = changes.clone();
            if g == at {
                let def = catalog.def(*table).unwrap();
                let old = match &changes[draw(changes.len())] {
                    Change::Insert(row) | Change::Delete(row) => row.clone(),
                    Change::Update { old, .. } => old.clone(),
                };
                let fixed: Vec<usize> = (0..old.arity())
                    .filter(|c| !def.updatable_columns.contains(c))
                    .collect();
                let c = fixed[draw(fixed.len())];
                let mut new = old.values().to_vec();
                new[c] = match &new[c] {
                    Value::Int(i) => Value::Int(i.wrapping_add(1_000_000)),
                    Value::Double(d) => Value::Double(if *d == 0.5 { 0.25 } else { 0.5 }),
                    Value::Str(s) => Value::Str(format!("{s}′")),
                    Value::Bool(b) => Value::Bool(!b),
                };
                reason = match c == def.key_col {
                    true => "changes the key",
                    false => "outside the update contract",
                };
                let new = Row::new(new);
                changes.insert(0, Change::Update { old, new });
            }
            copy.extend(*table, changes);
        }
        (copy, groups[at].0, reason)
    }
}

/// A storm: its faults, and the misfit and contract-breaking batches it
/// submits, if any.
#[derive(Debug, Default)]
struct Storm {
    faults: Vec<Fault>,
    misfit: Option<Misfit>,
    breach: Option<Breach>,
}

/// Whether `e` is a crash at one of the [`LOG_POINTS`].
fn rejected_at_the_log(e: &WarehouseError) -> bool {
    matches!(e, WarehouseError::Maintain(MaintainError::Injected { point })
        if LOG_POINTS.contains(&point.as_str()))
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// injected fault-point panics and delegates everything else to the hook
/// it replaces: the storms fire panics that the scheduler catches, and
/// each would otherwise print a backtrace.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected panic at fault point"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// xorshift64*, seeded through splitmix so consecutive seeds give
/// unrelated streams.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
    }
}

/// One storm: 1–3 faults, each at a point of its own (a panic stacked on
/// a crash at one summary could fire the leftover during repair's replay,
/// outside the scheduler's catch), and at most one at the log (a second
/// could fire on the first one's resubmission). Panics fire on the
/// summary's first fold, where the scheduler catches them. About half
/// the storms also submit a misfit copy of one batch, and about half a
/// contract-breaking copy of one.
fn storm(seed: u64) -> Storm {
    let mut rng = XorShift::new(seed);
    let mut targets: Vec<&str> = SUMMARIES.iter().map(|(name, _)| *name).collect();
    let mut faults = Vec::new();
    let (mut log_used, mut save_used) = (false, false);
    for _ in 0..1 + rng.below(3) {
        match rng.below(4) {
            0 if !log_used => {
                log_used = true;
                faults.push(Fault::Crash {
                    point: LOG_POINTS[rng.below(2) as usize].into(),
                    nth: rng.below(BATCHES as u64),
                });
            }
            1 if !save_used => {
                save_used = true;
                faults.push(Fault::Crash {
                    point: "warehouse.save".into(),
                    nth: 0,
                });
            }
            0 | 1 => {}
            _ => {
                let target = targets.remove(rng.below(targets.len() as u64) as usize);
                let point = format!("engine.apply.change@{target}");
                faults.push(match rng.below(2) {
                    0 => Fault::Panic { point, nth: 0 },
                    _ => Fault::Crash {
                        point,
                        nth: rng.below(2),
                    },
                });
            }
        }
    }
    let misfit = (rng.below(2) == 0).then(|| Misfit {
        batch: rng.below(BATCHES as u64) as usize,
        pick: rng.below(1 << 32),
    });
    let breach = (rng.below(2) == 0).then(|| Breach {
        batch: rng.below(BATCHES as u64) as usize,
        pick: rng.below(1 << 32),
    });
    Storm {
        faults,
        misfit,
        breach,
    }
}

/// The starting point every storm shares: the tiny retail star and the
/// image of a warehouse holding the six summaries over it.
struct Start {
    db: Database,
    schema: RetailSchema,
    catalog: Catalog,
    image: Vec<u8>,
}

impl Start {
    fn new() -> Self {
        let (db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        for (_, sql) in SUMMARIES {
            wh.add_summary_sql(sql, &db).unwrap();
        }
        Start {
            catalog: db.catalog().clone(),
            image: wh.save().unwrap(),
            db,
            schema,
        }
    }

    /// `seed`'s workload, and the sources after it.
    fn workload(&self, seed: u64) -> (Vec<ChangeBatch>, Database) {
        let mut db = self.db.clone();
        let schema = &self.schema;
        let batches = (0..BATCHES as u64)
            .map(|b| {
                let mut batch = ChangeBatch::new();
                let mix = UpdateMix::balanced();
                let sales = sale_changes(&mut db, schema, CHANGES_PER_BATCH, mix, seed + b);
                batch.extend(schema.sale, sales);
                if b % 2 == 1 {
                    let renames = product_brand_changes(&mut db, schema, 2, seed + 100 + b);
                    batch.extend(schema.product, renames);
                }
                batch
            })
            .collect();
        (batches, db)
    }

    /// Runs `batches` from the start under `storm` and quarantine,
    /// submitting the misfit and the contract-breaking copy of a batch
    /// before it and a batch the log
    /// rejects once more, and repairing every quarantined summary after
    /// each applied batch (a failed attempt leaves it quarantined for the
    /// next), then repairs whatever a fault left quarantined and saves,
    /// once more if the save fails. Returns the warehouse, its image, the
    /// number of batches the log rejected, and every error met on the way.
    fn run(
        &self,
        batches: &[ChangeBatch],
        storm: &Storm,
    ) -> (Warehouse, Vec<u8>, usize, Vec<String>) {
        let faults = &storm.faults;
        let mut plan = FaultPlan::default();
        for fault in faults {
            fault.arm_into(&mut plan);
        }
        let mut wh = Warehouse::builder()
            .fault_plan(plan.clone())
            .quarantine(true)
            .restore(&self.catalog, &self.image)
            .unwrap();
        let mut errors = Vec::new();
        // The frames each resubmitted batch logged: its dead letters.
        let mut rejected: Vec<(TableId, u64, Vec<Change>)> = Vec::new();
        let mut batches_rejected = 0;
        for (b, batch) in batches.iter().enumerate() {
            if let Some(misfit) = storm.misfit.filter(|m| m.batch == b) {
                let (copy, table) = misfit.cut(batch);
                let name = &self.catalog.def(table).unwrap().name;
                match wh.apply_batch(&copy) {
                    Err(WarehouseError::Maintain(MaintainError::Rejected {
                        table,
                        reason,
                        ..
                    })) if table == *name && reason.to_string().contains("schema mismatch") => {
                        let groups = copy.coalesced().groups().to_vec();
                        let lsn = |t: TableId| wh.table_seq(t) + 1;
                        rejected.extend(groups.into_iter().map(|(t, c)| (t, lsn(t), c)));
                    }
                    other => errors.push(format!("misfit not rejected at the door: {other:?}")),
                }
            }
            if let Some(breach) = storm.breach.filter(|breach| breach.batch == b) {
                let (copy, table, why) = breach.forge(batch, &self.catalog);
                let name = &self.catalog.def(table).unwrap().name;
                match wh.apply_batch(&copy) {
                    Err(WarehouseError::Maintain(MaintainError::Rejected {
                        table,
                        change_index: Some(0),
                        reason,
                    })) if table == *name && reason.to_string().contains(why) => {
                        let groups = copy.coalesced().groups().to_vec();
                        let lsn = |t: TableId| wh.table_seq(t) + 1;
                        rejected.extend(groups.into_iter().map(|(t, c)| (t, lsn(t), c)));
                    }
                    other => errors.push(format!("breach not rejected at the door: {other:?}")),
                }
            }
            match wh.apply_batch(batch) {
                Ok(()) => {}
                Err(e) if rejected_at_the_log(&e) => {
                    batches_rejected += 1;
                    let logged = records(&wh).len();
                    match wh.apply_batch(batch) {
                        Ok(()) => rejected.extend(records(&wh).split_off(logged)),
                        Err(e) => errors.push(format!("resubmitted batch rejected: {e}")),
                    }
                }
                Err(e) => errors.push(format!("batch rejected: {e}")),
            }
            drop(wh.repair_all());
        }
        for (name, result) in wh.repair_all() {
            if let Err(e) = result {
                errors.push(format!("repair of '{name}' failed: {e}"));
            }
        }
        let image = match wh.save() {
            Err(WarehouseError::Maintain(MaintainError::Injected { point }))
                if point == "warehouse.save" =>
            {
                wh.save()
            }
            first => first,
        };
        let image = image.unwrap_or_else(|e| {
            errors.push(format!("save failed: {e}"));
            Vec::new()
        });
        for fault in faults {
            if plan.is_armed(fault.point()) {
                errors.push(format!("{fault:?} never fired"));
            }
        }
        let letters = wh.dead_letters().iter();
        let mut letters: Vec<_> = letters
            .map(|l| (l.table, l.lsn, l.changes.clone()))
            .collect();
        letters.sort_by_key(|(table, lsn, _)| (*table, *lsn));
        rejected.sort_by_key(|(table, lsn, _)| (*table, *lsn));
        if letters != rejected {
            errors.push(format!(
                "dead letters {letters:?} are not the rejected batches' {rejected:?}"
            ));
        }
        (wh, image, batches_rejected, errors)
    }
}

/// The valid frames of `wh`'s change log, as `(table, lsn, changes)`.
fn records(wh: &Warehouse) -> Vec<(TableId, u64, Vec<Change>)> {
    let (records, _) = Wal::replay(wh.wal_bytes().unwrap()).unwrap();
    let records = records.into_iter();
    records.map(|r| (r.table, r.lsn, r.changes)).collect()
}

#[test]
fn every_storm_is_absorbed_and_leaves_the_fault_free_state() {
    silence_injected_panics();
    let start = Start::new();
    let mut kinds = BTreeMap::new();
    for seed in FIRST_SEED..FIRST_SEED + STORMS {
        let storm = storm(seed);
        let faults = &storm.faults;
        assert!(
            (1..=3).contains(&faults.len()),
            "seed {seed:#x}: {faults:?}"
        );
        assert_eq!(format!("{storm:?}"), format!("{:?}", self::storm(seed)));
        let mut points: Vec<&str> = faults.iter().map(Fault::point).collect();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), faults.len(), "seed {seed:#x}: stacked");
        for fault in faults {
            *kinds.entry(fault.kind()).or_insert(0) += 1;
        }
        if storm.misfit.is_some() {
            *kinds.entry("misfit").or_insert(0) += 1;
        }
        if storm.breach.is_some() {
            *kinds.entry("contract").or_insert(0) += 1;
        }
        let (batches, sources) = start.workload(seed);
        let (clean, clean_image, clean_rejected, clean_errors) =
            start.run(&batches, &Storm::default());
        assert_eq!(
            (clean_rejected, clean_errors),
            (0, Vec::<String>::new()),
            "seed {seed:#x} fault-free"
        );
        let (wh, image, rejected, errors) = start.run(&batches, &storm);
        let tag = format!("seed {seed:#x}, storm {storm:?}");

        assert_eq!(errors, Vec::<String>::new(), "{tag}");
        let log_faults = faults.iter().filter(|f| LOG_POINTS.contains(&f.point()));
        assert_eq!(rejected, log_faults.count(), "{tag}: rejected batches");
        assert!(wh.verify_all(&sources).unwrap(), "{tag}: recompute differs");
        for (name, report) in wh.audit() {
            assert!(report.is_clean(), "{tag}: audit of '{name}': {report:?}");
        }
        assert_eq!(wh.quarantined().count(), 0, "{tag}: quarantine not drained");

        let (records, _) = Wal::replay(wh.wal_bytes().unwrap()).unwrap();
        let mut last = BTreeMap::new();
        for record in &records {
            let prev = last.insert(record.table, record.lsn);
            assert!(prev < Some(record.lsn), "{tag}: LSN regression: {record:?}");
        }

        for (name, _) in SUMMARIES {
            assert_eq!(
                wh.summary_rows(name).unwrap(),
                clean.summary_rows(name).unwrap(),
                "{tag}: '{name}' differs from the fault-free run"
            );
        }
        assert_eq!(wh.wal_bytes(), clean.wal_bytes(), "{tag}: change log");
        assert_eq!(image, clean_image, "{tag}: image");
    }
    // The 32 storms cover every kind of fault.
    assert_eq!(
        kinds.keys().copied().collect::<Vec<_>>(),
        [
            "contract",
            "crash",
            "log-crash",
            "misfit",
            "panic",
            "save-crash",
            "torn-log"
        ],
        "{kinds:?}"
    );
}
