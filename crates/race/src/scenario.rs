//! Workloads for the schedule explorer.
//!
//! A [`Scenario`] is a reproducible warehouse run: how to build the
//! warehouse (from a snapshot image, so hundreds of replays are cheap)
//! and which batches to apply. The explorer replays the same scenario
//! under many interleavings and compares every outcome against the
//! sequential oracle.

use md_maintain::{FaultPlan, IoFaultKind, RetryPolicy};
use md_relation::{row, Catalog, Change};
use md_warehouse::{ChangeBatch, Warehouse, WarehouseBuilder};
use md_workload::retail::{generate_retail, Contracts, RetailParams};
use md_workload::updates::{product_brand_changes, sale_changes, UpdateMix};
use md_workload::views;

/// A fault the scenario arms on **every** build — the explored replay
/// and the sequential oracle alike — so faulted runs still compare
/// byte-for-byte against the oracle. Points may be scoped
/// (`point@summary`) to pin a fault to one engine regardless of which
/// worker it lands on.
#[derive(Debug, Clone)]
pub enum PlannedFault {
    /// A hard stop ([`FaultPlan::arm`]): fires `Injected` once.
    Crash {
        /// Injection-point name, optionally `point@summary`-scoped.
        point: String,
        /// Traversals of the point to let through before firing.
        nth: u64,
    },
    /// A worker death ([`FaultPlan::arm_panic`]): panics once.
    Panic {
        /// Injection-point name, optionally `point@summary`-scoped.
        point: String,
        /// Traversals of the point to let through before firing.
        nth: u64,
    },
    /// A transient I/O failure ([`FaultPlan::arm_transient`]): fires for
    /// `times` consecutive traversals, then heals.
    Transient {
        /// Injection-point name, optionally `point@summary`-scoped.
        point: String,
        /// Traversals of the point to let through before firing.
        nth: u64,
        /// What kind of I/O error the point produces.
        kind: IoFaultKind,
        /// Consecutive firings before the fault heals.
        times: u64,
    },
}

impl PlannedFault {
    fn arm_into(&self, plan: &mut FaultPlan) {
        match self {
            PlannedFault::Crash { point, nth } => plan.arm(point, *nth),
            PlannedFault::Panic { point, nth } => plan.arm_panic(point, *nth),
            PlannedFault::Transient {
                point,
                nth,
                kind,
                times,
            } => plan.arm_transient(point, *nth, *kind, *times),
        }
    }
}

/// A reproducible warehouse run for the explorer.
pub trait Scenario {
    /// Display name, used in reports.
    fn name(&self) -> &str;

    /// Builds the warehouse under the given configuration (the explorer
    /// sets the worker count and the executor before calling this).
    fn build(&self, builder: WarehouseBuilder) -> Warehouse;

    /// The batches to apply, in order.
    fn batches(&self) -> &[ChangeBatch];
}

/// A scenario that rebuilds its warehouse from a saved snapshot image —
/// the cheap, deterministic way to get an identical starting state for
/// every replayed schedule.
#[derive(Debug, Clone)]
pub struct SnapshotScenario {
    name: String,
    catalog: Catalog,
    image: Vec<u8>,
    batches: Vec<ChangeBatch>,
    faults: Vec<PlannedFault>,
    quarantine: bool,
    auto_repair: bool,
    retry: Option<RetryPolicy>,
    dead_letter_capacity: Option<usize>,
}

impl SnapshotScenario {
    /// A scenario from an explicit snapshot and batch list.
    pub fn new(
        name: impl Into<String>,
        catalog: Catalog,
        image: Vec<u8>,
        batches: Vec<ChangeBatch>,
    ) -> Self {
        SnapshotScenario {
            name: name.into(),
            catalog,
            image,
            batches,
            faults: Vec::new(),
            quarantine: false,
            auto_repair: false,
            retry: None,
            dead_letter_capacity: None,
        }
    }

    /// The source catalog the scenario's warehouse runs over.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The scenario under a different display name.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The scenario with its batch list replaced — for deriving delivery
    /// permutations from a shared snapshot.
    pub fn with_batches(mut self, batches: Vec<ChangeBatch>) -> Self {
        self.batches = batches;
        self
    }

    /// Arms `fault` on every build of the scenario. Because the oracle
    /// and every explored schedule arm an identical fresh [`FaultPlan`],
    /// a deterministic fault keeps all runs comparable.
    pub fn with_fault(mut self, fault: PlannedFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Enables per-summary quarantine on every build, optionally with
    /// the auto-repair policy.
    pub fn with_quarantine(mut self, auto_repair: bool) -> Self {
        self.quarantine = true;
        self.auto_repair = auto_repair;
        self
    }

    /// Overrides the I/O retry policy on every build.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Bounds the dead-letter store on every build.
    pub fn with_dead_letter_capacity(mut self, capacity: usize) -> Self {
        self.dead_letter_capacity = Some(capacity);
        self
    }

    /// The faults armed on every build.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }
}

impl Scenario for SnapshotScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, mut builder: WarehouseBuilder) -> Warehouse {
        if !self.faults.is_empty() {
            // A fresh plan per build: countdowns and one-shot arms reset,
            // so every replay (and the oracle) sees identical faults.
            let mut plan = FaultPlan::default();
            for fault in &self.faults {
                fault.arm_into(&mut plan);
            }
            builder = builder.fault_plan(plan);
        }
        builder = builder
            .quarantine(self.quarantine)
            .auto_repair(self.auto_repair);
        if let Some(retry) = self.retry {
            builder = builder.retry_policy(retry);
        }
        if let Some(capacity) = self.dead_letter_capacity {
            builder = builder.dead_letter_capacity(capacity);
        }
        builder
            .restore(&self.catalog, &self.image)
            .expect("scenario snapshot restores under any configuration")
    }

    fn batches(&self) -> &[ChangeBatch] {
        &self.batches
    }
}

/// A count-only volume view, so the retail scenario has six summaries
/// over the fact table (three per worker at `workers = 2`).
const MONTHLY_VOLUME_SQL: &str = "\
CREATE VIEW monthly_volume AS
SELECT time.month, COUNT(*) AS n
FROM sale, time
WHERE sale.timeid = time.id
GROUP BY time.month";

/// A country-level rollup, sixth summary of the retail scenario.
const COUNTRY_REVENUE_SQL: &str = "\
CREATE VIEW country_revenue AS
SELECT store.country, SUM(price) AS Revenue, COUNT(*) AS n
FROM sale, store
WHERE sale.storeid = store.id
GROUP BY store.country";

/// The view definitions of the retail race scenario: the workload's four
/// paper views plus two extra rollups. All six cover the `sale` fact, so
/// every sale batch fans out to every engine.
pub const RETAIL_RACE_VIEW_COUNT: usize = 6;

fn retail_views() -> [&'static str; RETAIL_RACE_VIEW_COUNT] {
    [
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
        MONTHLY_VOLUME_SQL,
        COUNTRY_REVENUE_SQL,
    ]
}

/// The standard retail exploration workload: the tiny retail star under
/// tight contracts, six summaries over the fact table, and `n_batches`
/// mixed batches of `changes_per_batch` seeded sale changes (odd batches
/// also carry two product-brand renames, so the fan-out spans two source
/// tables). Fully deterministic under `seed`.
pub fn retail_scenario(n_batches: usize, changes_per_batch: usize, seed: u64) -> SnapshotScenario {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    for sql in retail_views() {
        wh.add_summary_sql(sql, &db)
            .expect("retail race views are valid");
    }
    let image = wh.save().expect("fresh warehouse snapshot serializes");
    let catalog = db.catalog().clone();

    let mut batches = Vec::with_capacity(n_batches);
    for b in 0..n_batches {
        let mut batch = ChangeBatch::new();
        batch.extend(
            schema.sale,
            sale_changes(
                &mut db,
                &schema,
                changes_per_batch,
                UpdateMix::balanced(),
                seed.wrapping_add(b as u64),
            ),
        );
        if b % 2 == 1 {
            batch.extend(
                schema.product,
                product_brand_changes(&mut db, &schema, 2, seed.wrapping_add(100 + b as u64)),
            );
        }
        batches.push(batch);
    }
    SnapshotScenario::new("retail", catalog, image, batches)
}

/// The retail scenario with a poisoned middle batch: its second batch
/// deletes a `sale` row that never existed, so every engine rejects it
/// and the batch lands in the dead-letter store. The explorer asserts
/// that the rejection — error message, dead letters, surviving state —
/// is identical on every interleaving.
pub fn retail_fault_scenario(seed: u64) -> SnapshotScenario {
    let mut scenario = retail_scenario(3, 6, seed);
    let schema_sale = {
        // The poisoned row targets the fact table by name, independent
        // of TableId assignment order.
        scenario
            .catalog
            .table_id("sale")
            .expect("retail catalog has a sale table")
    };
    let poison = Change::Delete(row![99_999_999_i64, 1_i64, 1_i64, 1_i64, 9.75_f64]);
    let mut batch = ChangeBatch::new();
    batch.push(schema_sale, poison);
    scenario.batches[1] = batch;
    scenario.name = "retail-poison".into();
    scenario
}

/// The retail scenario under fault-domain isolation with one worker
/// dying mid-prepare: the `product_sales` engine panics on its first
/// change of the first batch, gets quarantined, and auto-repair rebuilds
/// it from its auxiliary views before the next batch. The scoped point
/// (`@product_sales`) makes the panic land on the same engine no matter
/// which worker thread prepares it, so every schedule — and the
/// sequential oracle — converges to the same repaired state.
pub fn retail_panic_scenario(seed: u64) -> SnapshotScenario {
    retail_scenario(3, 6, seed)
        .renamed("retail-panic")
        .with_quarantine(true)
        .with_fault(PlannedFault::Panic {
            point: "engine.apply.change@product_sales".into(),
            nth: 0,
        })
}

/// The retail scenario with a transient torn-write storm on the change
/// log: the second batch's WAL append fails twice (each failure leaving
/// a torn frame behind) before healing. The default retry policy
/// truncates the torn tail and re-appends, so the batch commits and the
/// final log is byte-identical to a fault-free run's.
pub fn retail_transient_wal_scenario(seed: u64) -> SnapshotScenario {
    retail_scenario(3, 6, seed)
        .renamed("retail-transient-wal")
        .with_fault(PlannedFault::Transient {
            point: "warehouse.wal.append".into(),
            nth: 1,
            kind: IoFaultKind::Torn,
            times: 2,
        })
}
