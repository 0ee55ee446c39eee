//! Seeded fault storms against quarantine, repair and retry.
//!
//! For each of 32 seeds a retail workload (six summaries over the fact
//! table, three batches of sale changes, the second with product renames
//! too) runs under a storm of one to three injected faults: transient
//! failures of the change-log append and the snapshot save, and panics,
//! crashes and transient errors pinned to one summary's fold. Whatever the
//! storm, the warehouse must absorb it: no batch rejected, every summary
//! equal to its recomputation from the sources and to a run without
//! faults, every audit clean, the quarantine drained, and the change log
//! byte-identical to the fault-free run's, its LSNs strictly increasing
//! per table.

use std::collections::BTreeMap;

use md_maintain::{FaultPlan, IoFaultKind, Wal};
use md_relation::{Catalog, Database};
use md_warehouse::{ChangeBatch, Warehouse};
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, views, Contracts, RetailParams,
    RetailSchema, UpdateMix,
};

const STORMS: u64 = 32;
const FIRST_SEED: u64 = 0xC4A0_5000;
const BATCHES: usize = 3;
const CHANGES_PER_BATCH: usize = 6;

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
    /// Fails with an I/O error of `kind` for `times` traversals from the
    /// `nth` on, then heals.
    Transient {
        point: String,
        nth: u64,
        kind: IoFaultKind,
        times: u64,
    },
}

impl Fault {
    fn kind(&self) -> &'static str {
        match self {
            Fault::Crash { .. } => "crash",
            Fault::Panic { .. } => "panic",
            Fault::Transient { .. } => "transient",
        }
    }

    fn point(&self) -> &str {
        match self {
            Fault::Crash { point, .. }
            | Fault::Panic { point, .. }
            | Fault::Transient { point, .. } => point,
        }
    }

    fn arm_into(&self, plan: &mut FaultPlan) {
        match self {
            Fault::Crash { point, nth } => plan.arm(point, *nth),
            Fault::Panic { point, nth } => plan.arm_panic(point, *nth),
            Fault::Transient {
                point,
                nth,
                kind,
                times,
            } => plan.arm_transient(point, *nth, *kind, *times),
        }
    }
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

/// One storm: 1–3 faults, each at a point of its own — stacked transients
/// on one point could outlast the retry budget, and a panic stacked on a
/// crash at one summary could fire the leftover during repair's replay,
/// outside the scheduler's catch. Panics fire on the summary's first fold,
/// where the scheduler catches them.
fn storm(seed: u64) -> Vec<Fault> {
    let mut rng = XorShift::new(seed);
    let mut targets: Vec<&str> = SUMMARIES.iter().map(|(name, _)| *name).collect();
    let mut faults = Vec::new();
    let (mut wal_used, mut save_used) = (false, false);
    for _ in 0..1 + rng.below(3) {
        match rng.below(4) {
            0 if !wal_used => {
                wal_used = true;
                // Possibly a torn write the retried append must truncate.
                let kind = [IoFaultKind::Fsync, IoFaultKind::Write, IoFaultKind::Torn]
                    [rng.below(3) as usize];
                faults.push(Fault::Transient {
                    point: "warehouse.wal.append".into(),
                    nth: rng.below(BATCHES as u64),
                    kind,
                    times: 1 + rng.below(2),
                });
            }
            1 if !save_used => {
                save_used = true;
                let kind = [IoFaultKind::Fsync, IoFaultKind::Write][rng.below(2) as usize];
                faults.push(Fault::Transient {
                    point: "warehouse.save".into(),
                    nth: 0,
                    kind,
                    times: 1 + rng.below(2),
                });
            }
            0 | 1 => {}
            _ => {
                let target = targets.remove(rng.below(targets.len() as u64) as usize);
                let point = format!("engine.apply.change@{target}");
                faults.push(match rng.below(3) {
                    0 => Fault::Panic { point, nth: 0 },
                    1 => Fault::Crash {
                        point,
                        nth: rng.below(2),
                    },
                    _ => Fault::Transient {
                        point,
                        nth: rng.below(2),
                        kind: IoFaultKind::Read,
                        times: 1 + rng.below(2),
                    },
                });
            }
        }
    }
    faults
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

    /// Runs `batches` from the start under `faults` and quarantine,
    /// repairing every quarantined summary after each applied batch (a
    /// failed attempt leaves it quarantined for the next), then repairs
    /// whatever a fault left quarantined; returns the warehouse, its
    /// image, and every error met on the way.
    fn run(&self, batches: &[ChangeBatch], faults: &[Fault]) -> (Warehouse, Vec<u8>, Vec<String>) {
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
        for batch in batches {
            match wh.apply_batch(batch) {
                Ok(()) => drop(wh.repair_all()),
                Err(e) => errors.push(format!("batch rejected: {e}")),
            }
        }
        for (name, result) in wh.repair_all() {
            if let Err(e) = result {
                errors.push(format!("repair of '{name}' failed: {e}"));
            }
        }
        let image = wh.save().unwrap_or_else(|e| {
            errors.push(format!("save failed: {e}"));
            Vec::new()
        });
        for fault in faults {
            if plan.is_armed(fault.point()) {
                errors.push(format!("{fault:?} never fired"));
            }
        }
        (wh, image, errors)
    }
}

#[test]
fn every_storm_is_absorbed_and_leaves_the_fault_free_state() {
    silence_injected_panics();
    let start = Start::new();
    let mut kinds = BTreeMap::new();
    for seed in FIRST_SEED..FIRST_SEED + STORMS {
        let faults = storm(seed);
        assert!(
            (1..=3).contains(&faults.len()),
            "seed {seed:#x}: {faults:?}"
        );
        assert_eq!(format!("{faults:?}"), format!("{:?}", storm(seed)));
        let mut points: Vec<&str> = faults.iter().map(Fault::point).collect();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), faults.len(), "seed {seed:#x}: stacked");
        for fault in &faults {
            *kinds.entry(fault.kind()).or_insert(0) += 1;
        }
        let (batches, sources) = start.workload(seed);
        let (clean, clean_image, clean_errors) = start.run(&batches, &[]);
        assert_eq!(
            clean_errors,
            Vec::<String>::new(),
            "seed {seed:#x} fault-free"
        );
        let (wh, image, errors) = start.run(&batches, &faults);
        let tag = format!("seed {seed:#x}, storm {faults:?}");

        assert_eq!(errors, Vec::<String>::new(), "{tag}");
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
        ["crash", "panic", "transient"],
        "{kinds:?}"
    );
}
