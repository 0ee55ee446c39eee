//! Per-summary quarantine (fault-domain isolation) and repair: a summary
//! whose fold failed is isolated behind an LSN watermark while the stores
//! it shares keep folding every batch, and repair rebuilds it from those
//! stores by the reconstruction query. A plan that keeps a root store has
//! a store of every table it reads, so its repair reads no log; only a
//! plan without one replays its root frames, through the same streaming
//! log pass as crash recovery.

use std::time::Instant;

use md_maintain::{MaintainError, SummaryEngine};
use md_relation::TableId;

use crate::error::{Result, WarehouseError};
use crate::warehouse::Warehouse;

/// A quarantined summary: isolated behind an LSN watermark while the
/// rest of the warehouse keeps committing. What it misses is in the
/// change log, from `log_offset` on. See
/// [`crate::WarehouseBuilder::quarantine`] and [`Warehouse::repair`].
#[derive(Debug)]
pub struct QuarantineEntry {
    /// The first batch LSN this summary failed to commit — the watermark
    /// it is isolated behind.
    pub(crate) since_lsn: u64,
    /// Why the summary was quarantined.
    pub(crate) cause: String,
    /// The change log's valid length when the summary was isolated, just
    /// before the failing batch's frames. The repair of a plan without a
    /// root store replays its root frames from here.
    pub(crate) log_offset: usize,
}

impl QuarantineEntry {
    /// The LSN watermark the summary is isolated behind.
    pub fn since_lsn(&self) -> u64 {
        self.since_lsn
    }

    /// Why the summary was quarantined.
    pub fn cause(&self) -> &str {
        &self.cause
    }
}

/// What one [`Warehouse::repair`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The repaired summary.
    pub summary: String,
    /// Summary rows after the reconstruction rebuild.
    pub rebuilt_rows: u64,
    /// Logged change groups replayed into the rebuilt engine: root groups
    /// of a plan without a root store (the stores hold every other group
    /// the rebuild took in).
    pub replayed_groups: usize,
    /// Logged groups that no longer applied and went to the dead-letter
    /// store instead.
    pub dead_lettered: usize,
    /// Wall-clock nanoseconds the repair took.
    pub elapsed_nanos: u64,
}

impl QuarantineEntry {
    /// The entry of a summary `engine` whose part of the batch at `lsns`
    /// failed with `cause` (its engine rolled back already): isolated
    /// behind the lowest of those LSNs on its tables, with the log at
    /// `log_offset` — the batch's frames, not yet appended, are the first
    /// a replay reads.
    pub(crate) fn new(
        engine: &SummaryEngine,
        cause: &MaintainError,
        lsns: &[(TableId, u64)],
        log_offset: usize,
    ) -> Self {
        let tables = &engine.plan().view.tables;
        let since_lsn = lsns
            .iter()
            .filter(|(t, _)| tables.contains(t))
            .map(|(_, lsn)| *lsn)
            .min()
            .unwrap_or(0);
        QuarantineEntry {
            since_lsn,
            cause: cause.to_string(),
            log_offset,
        }
    }
}

impl Warehouse {
    /// The currently quarantined summaries, in name order.
    pub fn quarantined(&self) -> impl Iterator<Item = (&str, &QuarantineEntry)> {
        self.quarantine.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Whether `name` is currently quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.quarantine.contains_key(name)
    }

    /// Repairs one quarantined summary — the self-healing path promised
    /// by the paper's reconstruction query: rebuild `V` from the
    /// auxiliary views alone — the shared stores, which kept folding every
    /// batch while it was out — so that it holds the batches they hold. A
    /// plan that keeps a root store is then level with every frame it missed;
    /// a plan without one replays the root frames the change log holds
    /// since the quarantine (groups that no longer apply are
    /// dead-lettered, exactly like recovery — it is the same routine).
    /// The source-free audit is the reinstatement gate, and the
    /// quarantine is lifted. On failure the summary stays quarantined with
    /// an updated cause.
    pub fn repair(&mut self, name: &str) -> Result<RepairReport> {
        if !self.engines.contains_key(name) {
            return Err(WarehouseError::UnknownSummary(name.to_owned()));
        }
        let Some(entry) = self.quarantine.remove(name) else {
            return Err(WarehouseError::NotQuarantined(name.to_owned()));
        };
        let started = Instant::now();
        let mut span = self.obs.span("warehouse.repair").field("summary", name);
        let engine = self.engines.get_mut(name).expect("checked above");
        let attempt = match engine.rebuild_summary(&self.stores) {
            Err(e) => Err((
                "rebuild-failed",
                format!("rebuild from auxiliary views failed: {e}"),
            )),
            Ok(rebuilt_rows) => {
                // Replay off the log only what no store holds: the root
                // frames of a plan that keeps no root store.
                let root_kept = engine.store_of(engine.plan().graph.root()).is_some();
                let (replayed, letters) = if root_kept {
                    (0, Vec::new())
                } else {
                    let pass = Self::replay_log(
                        &mut self.stores,
                        &mut self.engines,
                        &mut self.table_seq,
                        &self.catalog,
                        &mut self.wal.frames_from(entry.log_offset),
                        Some(name),
                        false,
                    );
                    span = span
                        .field("frames", pass.frames)
                        .field("decoded", pass.decoded);
                    (pass.applied, pass.letters)
                };
                // Reinstatement gate: the source-free oracle
                // (reconstruction from X plus index cross-checks) must
                // be clean.
                let audit = self.engines[name].audit(&self.stores);
                if audit.is_clean() {
                    Ok((rebuilt_rows, replayed, letters))
                } else {
                    Err((
                        "audit-failed",
                        format!("post-repair audit failed: {audit:?}"),
                    ))
                }
            }
        };
        let (rebuilt_rows, replayed, letters) = match attempt {
            Ok(done) => done,
            Err((outcome, detail)) => {
                // Still quarantined from the same log offset: the next
                // repair rebuilds again and replays the same suffix,
                // skipping what this attempt already applied.
                self.sched.repair_failed.incr();
                self.quarantine.insert(
                    name.to_owned(),
                    QuarantineEntry {
                        cause: detail.clone(),
                        ..entry
                    },
                );
                drop(span.field("outcome", outcome));
                return Err(WarehouseError::RepairFailed {
                    summary: name.to_owned(),
                    detail,
                });
            }
        };
        let dead_lettered = letters.len();
        self.dead_letters.extend_sorted(letters);
        self.sched.repair_rebuilt_rows.add(rebuilt_rows);
        self.sched.repair_reinstated.incr();
        drop(span.field("outcome", "reinstated"));
        Ok(RepairReport {
            summary: name.to_owned(),
            rebuilt_rows,
            replayed_groups: replayed,
            dead_lettered,
            elapsed_nanos: started.elapsed().as_nanos() as u64,
        })
    }

    /// Repairs every quarantined summary in name order; returns one
    /// result per attempt.
    pub fn repair_all(&mut self) -> Vec<(String, Result<RepairReport>)> {
        let names: Vec<String> = self.quarantine.keys().cloned().collect();
        names
            .into_iter()
            .map(|name| {
                let outcome = self.repair(&name);
                (name, outcome)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ChangeBatch, FaultPlan, ObsConfig, Warehouse};
    use md_obs::FieldValue;
    use md_relation::row;
    use md_workload::{generate_retail, sale_changes, views, Contracts, RetailParams, UpdateMix};

    /// The repair of a plan without a root store walks every frame logged
    /// since the quarantine and builds only those it reads, has not
    /// committed, and finds in no store: its root groups. A plan with a
    /// root store is rebuilt from the stores and reads no log.
    #[test]
    fn repair_reads_the_log_only_for_a_plan_without_a_root_store() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut faults = FaultPlan::recording();
        let mut wh = Warehouse::builder()
            .quarantine(true)
            .fault_plan(faults.clone())
            .observe(ObsConfig::full())
            .build(db.catalog());
        // daily_product keeps no root store and reads `sale` and `time`;
        // product_sales_max keeps one and reads `sale` alone; store_revenue
        // reads `store` too.
        wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
        wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
            .unwrap();
        wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();

        let sale_batch = |db: &mut md_relation::Database, seed| {
            ChangeBatch::single(
                schema.sale,
                sale_changes(db, &schema, 6, UpdateMix::balanced(), seed),
            )
        };
        wh.apply_batch(&sale_batch(&mut db, 1)).unwrap();
        faults.arm("engine.apply.change@daily_product", 0);
        faults.arm("engine.apply.change@product_sales_max", 0);
        wh.apply_batch(&sale_batch(&mut db, 2)).unwrap();
        assert!(wh.is_quarantined("daily_product"));
        assert!(wh.is_quarantined("product_sales_max"));
        // Two store-only batches and one more sale batch while they are out.
        for i in 0..2 {
            let id = db.table(schema.store).len() as i64 + 1;
            let store = db
                .insert(
                    schema.store,
                    row![id, format!("st {i}"), "city-x", "us", "m"],
                )
                .unwrap();
            wh.apply_batch(&ChangeBatch::single(schema.store, vec![store]))
                .unwrap();
        }
        wh.apply_batch(&sale_batch(&mut db, 3)).unwrap();

        let daily = wh.repair("daily_product").unwrap();
        assert_eq!((daily.replayed_groups, daily.dead_lettered), (2, 0));
        let max = wh.repair("product_sales_max").unwrap();
        assert_eq!((max.replayed_groups, max.dead_lettered), (0, 0));
        assert!(wh.verify_all(&db).unwrap());

        let events = wh.obs().tracer().events();
        let repairs: Vec<_> = events
            .iter()
            .filter(|e| e.name == "warehouse.repair")
            .collect();
        let field = |at: usize, key: &str| {
            let fields = &repairs[at].fields;
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field(0, "frames"), Some(FieldValue::U64(4)));
        assert_eq!(field(0, "decoded"), Some(FieldValue::U64(2)));
        assert_eq!(field(1, "frames"), None);
        assert_eq!(field(1, "decoded"), None);
    }
}
