//! The `Warehouse` facade: the public API a downstream user adopts.
//!
//! A [`Warehouse`] plays the role of the data warehouse in the paper's
//! Figure 1: it holds *summarized data* (materialized GPSJ views) and the
//! *minimal current detail data* (the derived auxiliary views), and keeps
//! both consistent as the operational sources stream changes at it. After
//! the initial load it never reads a source again.
//!
//! Configuration is fixed at construction via [`WarehouseBuilder`]; change
//! ingestion goes through multi-table [`ChangeBatch`]es which the
//! scheduler coalesces, folds into the stores and the summary engines on
//! the calling thread, and commits under a single WAL append point.
//!
//! ```
//! use md_relation::{row, Catalog, Database, DataType, Schema};
//! use md_warehouse::{ChangeBatch, Warehouse};
//!
//! let mut cat = Catalog::new();
//! let t = cat
//!     .add_table(
//!         "orders",
//!         Schema::from_pairs(&[("id", DataType::Int), ("amount", DataType::Double)]),
//!         0,
//!     )
//!     .unwrap();
//! let mut db = Database::new(cat.clone());
//! db.insert(t, row![1, 10.0]).unwrap();
//!
//! let mut wh = Warehouse::new(&cat);
//! wh.add_summary_sql(
//!     "CREATE VIEW totals AS SELECT COUNT(*) AS n, SUM(orders.amount) AS total FROM orders",
//!     &db,
//! )
//! .unwrap();
//!
//! let mut batch = ChangeBatch::new();
//! batch.push(t, db.insert(t, row![2, 5.0]).unwrap());
//! wh.apply_batch(&batch).unwrap();
//! let rows = wh.summary_rows("totals").unwrap();
//! assert_eq!(rows, vec![row![2, 15.0]]);
//! ```

use std::collections::{BTreeMap, HashSet};
use std::ops::Deref;
use std::time::Instant;

use md_algebra::GpsjView;
use md_core::{derive, DerivedPlan};
use md_maintain::{
    coalesce, AuditReport, ChangeBatch, MaintStats, StorageLine, StoreRegistry, SummaryEngine, Wal,
};
use md_obs::{Counter, Gauge, Histogram, Obs};
use md_relation::{sort_by_row, Bag, Catalog, Change, ChangeRef, Database, Encoder, Row, TableId};
use md_sql::{parse_view, view_to_sql};

use crate::builder::WarehouseBuilder;
use crate::error::{Result, WarehouseError};
use crate::quarantine::QuarantineEntry;

/// The header string opening every [`Warehouse::save`] image. `MDWH2`
/// held engine images of snapshot version 4 or older.
pub(crate) const WAREHOUSE_HEADER: &str = "MDWH3";

/// One auxiliary view store that several summaries read: the warehouse
/// holds it once for all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedDetail {
    /// The auxiliary view name (e.g. `saleDTL`).
    pub aux_name: String,
    /// The covered base table.
    pub table: String,
    /// The summaries that read the store, in name order.
    pub summaries: Vec<String>,
    /// Stored tuples.
    pub rows: u64,
    /// Paper-model bytes of the store, held once; a copy per summary
    /// would hold `(summaries.len() - 1) × bytes_each` more.
    pub bytes_each: u64,
}

impl SharedDetail {
    /// Bytes that holding this store once saves over a copy per summary.
    pub fn dedup_savings(&self) -> u64 {
        (self.summaries.len() as u64 - 1) * self.bytes_each
    }
}

/// A change group the warehouse rejected, kept in the dead-letter store
/// for inspection and repair while serving continues.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The source table the group targeted.
    pub table: TableId,
    /// The LSN the group would have committed under.
    pub lsn: u64,
    /// The rejected changes as the engines saw them (coalesced).
    pub changes: Vec<Change>,
    /// Index of the offending change within the group, when the failure
    /// is attributable to a single change.
    pub change_index: Option<usize>,
    /// Why the batch was rejected.
    pub reason: String,
}

/// The warehouse's dead-letter store: rejected change groups awaiting
/// operator inspection. Dereferences to a slice in rejection order; the
/// groups of one rejected batch are surfaced sorted by `(table, lsn)`.
/// It keeps every letter until [`DeadLetterStore::drain`] takes them.
#[derive(Debug, Default)]
pub struct DeadLetterStore {
    letters: Vec<DeadLetter>,
}

impl Deref for DeadLetterStore {
    type Target = [DeadLetter];

    fn deref(&self) -> &[DeadLetter] {
        &self.letters
    }
}

impl DeadLetterStore {
    /// The oldest dead letter without removing it.
    pub fn peek(&self) -> Option<&DeadLetter> {
        self.letters.first()
    }

    /// Removes and returns all accumulated dead letters (after the
    /// operator has repaired or discarded them).
    pub fn drain(&mut self) -> Vec<DeadLetter> {
        std::mem::take(&mut self.letters)
    }

    pub(crate) fn extend_sorted(&mut self, mut letters: Vec<DeadLetter>) {
        letters.sort_by_key(|l| (l.table, l.lsn));
        self.letters.extend(letters);
    }
}

/// Wall-clock and volume counters of the batch scheduler — the
/// per-stage measurements of every batch.
///
/// A point-in-time view over the warehouse's `md-obs` registry (the
/// `sched.*` counters), holding the fields the benchmark reads;
/// [`Warehouse::scheduler_stats`] assembles it. The batches committed are
/// the `sched.batches_applied` counter.
///
/// **Which clock is which.** Every `*_nanos` field here is elapsed time
/// around one stage of a batch, which runs whole on the calling thread.
/// `fanout_nanos` covers the prepare pass: every store fold and every
/// summary fold. Each summary's own part of `fanout_nanos` and
/// `commit_nanos` is the sum of its `maintain.prepare_nanos` and
/// `maintain.commit_nanos` histograms, so across the summaries those sums
/// are at most these figures; the non-negative remainder is the stores'
/// work and the scheduler's own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Changes submitted across all batches, before coalescing.
    pub changes_submitted: u64,
    /// Changes handed to the engines, after coalescing.
    pub changes_applied: u64,
    /// Nanoseconds spent coalescing.
    pub coalesce_nanos: u64,
    /// Nanoseconds of wall time in the prepare pass (every store and
    /// summary fold; named after the fan-out it replaced).
    pub fanout_nanos: u64,
    /// Nanoseconds appending to the change log.
    pub wal_nanos: u64,
    /// Nanoseconds committing prepared engines.
    pub commit_nanos: u64,
}

/// The scheduler's live metric handles — the storage behind
/// [`SchedulerStats`], registered in the warehouse's `md-obs` registry.
#[derive(Debug, Clone)]
pub(crate) struct SchedCounters {
    pub(crate) batches_applied: Counter,
    pub(crate) changes_submitted: Counter,
    pub(crate) changes_applied: Counter,
    pub(crate) coalesce_nanos: Counter,
    pub(crate) fanout_nanos: Counter,
    pub(crate) wal_nanos: Counter,
    pub(crate) commit_nanos: Counter,
    /// Changes that cancelled out during coalescing
    /// (`submitted − applied` per batch).
    pub(crate) coalesce_annihilated: Counter,
    /// Bytes appended to the change log per batch.
    pub(crate) wal_append_bytes: Histogram,
    /// Current dead-letter count (refreshed at scrape time).
    pub(crate) deadletter_depth: Gauge,
    /// Auxiliary-view rows after compression, each shared store counted
    /// once (refreshed at scrape time).
    pub(crate) aux_rows: Gauge,
    /// Summaries that entered quarantine, ever.
    pub(crate) quarantine_entered: Counter,
    /// Currently quarantined summaries (refreshed at scrape time).
    pub(crate) quarantine_active: Gauge,
    /// Summary rows produced by reconstruction rebuilds during repair.
    pub(crate) repair_rebuilt_rows: Counter,
    /// Repairs that reinstated a summary.
    pub(crate) repair_reinstated: Counter,
    /// Repair attempts that failed (the summary stays quarantined).
    pub(crate) repair_failed: Counter,
    /// Log frames crash recovery verified.
    pub(crate) recovery_frames_scanned: Counter,
    /// Log frames crash recovery decoded and replayed; the rest were
    /// already in the snapshot.
    pub(crate) recovery_frames_replayed: Counter,
    /// Log bytes crash recovery read.
    pub(crate) recovery_log_bytes_scanned: Counter,
    /// Nanoseconds crash recovery spent stepping over log frames.
    pub(crate) recovery_walk_nanos: Counter,
    /// Nanoseconds crash recovery spent decoding the frames it replayed.
    pub(crate) recovery_decode_nanos: Counter,
    /// Nanoseconds crash recovery spent applying them.
    pub(crate) recovery_apply_nanos: Counter,
}

impl SchedCounters {
    pub(crate) fn new(obs: &Obs) -> Self {
        SchedCounters {
            batches_applied: obs.counter("sched.batches_applied", &[]),
            changes_submitted: obs.counter("sched.changes_submitted", &[]),
            changes_applied: obs.counter("sched.changes_applied", &[]),
            coalesce_nanos: obs.counter("sched.coalesce_nanos", &[]),
            fanout_nanos: obs.counter("sched.fanout_nanos", &[]),
            wal_nanos: obs.counter("sched.wal_nanos", &[]),
            commit_nanos: obs.counter("sched.commit_nanos", &[]),
            coalesce_annihilated: obs.counter("batch.coalesce_annihilated", &[]),
            wal_append_bytes: obs.histogram("wal.append_bytes", &[]),
            deadletter_depth: obs.gauge("deadletter.depth", &[]),
            aux_rows: obs.gauge("aux.rows_after_compression", &[]),
            quarantine_entered: obs.counter("quarantine.entered", &[]),
            quarantine_active: obs.gauge("quarantine.active", &[]),
            repair_rebuilt_rows: obs.counter("repair.rebuilt_rows", &[]),
            repair_reinstated: obs.counter("repair.reinstated", &[]),
            repair_failed: obs.counter("repair.failed", &[]),
            recovery_frames_scanned: obs.counter("recovery.frames_scanned", &[]),
            recovery_frames_replayed: obs.counter("recovery.frames_replayed", &[]),
            recovery_log_bytes_scanned: obs.counter("recovery.log_bytes_scanned", &[]),
            recovery_walk_nanos: obs.counter("recovery.walk_nanos", &[]),
            recovery_decode_nanos: obs.counter("recovery.decode_nanos", &[]),
            recovery_apply_nanos: obs.counter("recovery.apply_nanos", &[]),
        }
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            changes_submitted: self.changes_submitted.get(),
            changes_applied: self.changes_applied.get(),
            coalesce_nanos: self.coalesce_nanos.get(),
            fanout_nanos: self.fanout_nanos.get(),
            wal_nanos: self.wal_nanos.get(),
            commit_nanos: self.commit_nanos.get(),
        }
    }
}

/// One table's share of a batch as the scheduler carries it to the
/// engines, the log and the dead-letter store: the group's coalesced
/// changes, their rows borrowed from the submitted batch.
type WorkGroup<'a> = (TableId, Vec<ChangeRef<'a>>);

/// A data warehouse maintaining one or more GPSJ summary views over
/// minimal detail data.
pub struct Warehouse {
    pub(crate) catalog: Catalog,
    /// Every auxiliary view store, held once per definition for all the
    /// summaries that read it; part of every batch's transaction.
    pub(crate) stores: StoreRegistry,
    /// Each summary's engine: its summary view, over borrowed stores.
    pub(crate) engines: BTreeMap<String, SummaryEngine>,
    /// Highest batch sequence number committed per source table. Batch
    /// `n+1` of a table gets LSN `table_seq[t] + 1`.
    pub(crate) table_seq: BTreeMap<TableId, u64>,
    /// The durable change log: the one record of what committed.
    /// Recovery and quarantine repair both replay it.
    pub(crate) wal: Wal,
    /// Rejected change groups, in rejection order.
    pub(crate) dead_letters: DeadLetterStore,
    /// Quarantined summaries, by name. Not serialized into
    /// [`Warehouse::save`] images: what they miss is durable in the
    /// change log, and recovery's idempotent replay brings a lagging
    /// engine back to the current LSN.
    pub(crate) quarantine: BTreeMap<String, QuarantineEntry>,
    /// Human-readable anomalies [`WarehouseBuilder::recover`] noticed
    /// (missing snapshot, missing log); empty for a built/restored
    /// warehouse.
    pub(crate) recovery_warnings: Vec<String>,
    /// Scheduler metric handles (backing [`SchedulerStats`]).
    pub(crate) sched: SchedCounters,
    /// The shared observability handle (registry + tracer).
    pub(crate) obs: Obs,
    /// Immutable construction-time configuration.
    pub(crate) config: WarehouseBuilder,
}

impl Warehouse {
    /// Creates an empty warehouse over the source catalog with the
    /// default configuration (shorthand for `Warehouse::builder()
    /// .build(catalog)`).
    pub fn new(catalog: &Catalog) -> Self {
        Warehouse::builder().build(catalog)
    }

    /// A [`WarehouseBuilder`] with the production defaults.
    pub fn builder() -> WarehouseBuilder {
        WarehouseBuilder::default()
    }

    /// The change log's current byte image (always `Some`: the log cannot
    /// be turned off). This is what a deployment persists after each
    /// batch (together with periodic [`Warehouse::save`] snapshots) and
    /// hands to [`WarehouseBuilder::recover`] after a crash.
    pub fn wal_bytes(&self) -> Option<&[u8]> {
        Some(self.wal.bytes())
    }

    /// The rejected change groups kept for inspection, in rejection order.
    pub fn dead_letters(&self) -> &DeadLetterStore {
        &self.dead_letters
    }

    /// Mutable access to the dead-letter store, for
    /// [`DeadLetterStore::drain`].
    pub fn dead_letters_mut(&mut self) -> &mut DeadLetterStore {
        &mut self.dead_letters
    }

    /// Scheduler counters: batch/change volumes and per-stage wall time
    /// (a view over the `sched.*` metrics; see [`SchedulerStats`] for
    /// which clock each field measures).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.sched.stats()
    }

    /// The warehouse's shared observability handle. Clones are cheap and
    /// observe into the same registry and trace buffer.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Renders every registered metric as Prometheus-style text
    /// exposition. Point-in-time gauges (`deadletter.depth`,
    /// `aux.rows_after_compression`) are refreshed at this scrape point.
    pub fn metrics_prometheus(&self) -> String {
        self.refresh_gauges();
        self.obs.render_prometheus()
    }

    /// Renders every registered metric as JSON (fixed field order, same
    /// conventions as `md-check`'s diagnostics JSON). Gauges are
    /// refreshed at this scrape point.
    pub fn metrics_json(&self) -> String {
        self.refresh_gauges();
        self.obs.render_json()
    }

    /// Exports every recorded span as Chrome trace-event JSON, loadable
    /// in `chrome://tracing` or Perfetto.
    pub fn trace_json(&self) -> String {
        self.obs.trace_json()
    }

    /// Enables or disables span recording at runtime, in any
    /// observability mode.
    pub fn set_tracing(&self, enabled: bool) {
        self.obs.set_tracing(enabled);
    }

    /// Writes the current values of the scrape-time gauges.
    fn refresh_gauges(&self) {
        self.sched
            .deadletter_depth
            .set(self.dead_letters.len() as i64);
        self.sched
            .quarantine_active
            .set(self.quarantine.len() as i64);
        let aux_rows: usize = self.stores.iter().map(|(_, s)| s.len()).sum();
        self.sched.aux_rows.set(aux_rows as i64);
    }

    /// The highest committed batch sequence number for `table`.
    pub fn table_seq(&self, table: TableId) -> u64 {
        self.table_seq.get(&table).copied().unwrap_or(0)
    }

    /// The source catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Names of the registered summary views.
    pub fn summaries(&self) -> impl Iterator<Item = &str> {
        self.engines.keys().map(String::as_str)
    }

    /// Registers a summary view from SQL: derives its minimal auxiliary
    /// views (Algorithm 3.2), materializes those not held yet and the view
    /// from `db` (the one-time initial load), and returns the view name.
    pub fn add_summary_sql(&mut self, sql: &str, db: &Database) -> Result<String> {
        let view = parse_view(sql, &self.catalog, "unnamed_summary")?;
        let name = view.name.clone();
        self.add_summary(view, db)?;
        Ok(name)
    }

    /// Registers an already-constructed view definition. Of its
    /// auxiliary views, only those no registered summary holds yet are
    /// loaded from `db`; the rest are shared.
    pub fn add_summary(&mut self, view: GpsjView, db: &Database) -> Result<()> {
        if self.engines.contains_key(&view.name) {
            return Err(WarehouseError::DuplicateSummary(view.name));
        }
        let _span = (self.obs)
            .span("warehouse.add_summary")
            .field("summary", view.name.as_str());
        let plan = derive(&view, &self.catalog)?;
        let mut engine = SummaryEngine::new(plan, &self.catalog, &mut self.stores)?;
        // The load reflects every committed batch: the stores it fills, and
        // a summary without a root store, commit at the sequence numbers
        // already assigned, so recovery replays none of those batches.
        let root_seq = self.table_seq(engine.plan().graph.root());
        let table_seq = &self.table_seq;
        let loaded = self
            .stores
            .load(db, |table| table_seq.get(&table).copied().unwrap_or(0))
            .and_then(|()| engine.initial_load(&self.stores, db, root_seq));
        if let Err(e) = loaded {
            engine.release(&mut self.stores);
            return Err(e.into());
        }
        engine.set_fault_plan(self.config.faults.clone());
        engine.set_obs(self.obs.clone());
        self.engines.insert(view.name.clone(), engine);
        Ok(())
    }

    /// Removes a summary view and its quarantine entry if it has one, and
    /// releases its detail data: a store goes when the last summary
    /// reading it does. A summary later added under the same name is a
    /// new one, loaded from the sources.
    pub fn drop_summary(&mut self, name: &str) -> Result<()> {
        let engine = self
            .engines
            .remove(name)
            .ok_or_else(|| WarehouseError::UnknownSummary(name.to_owned()))?;
        engine.release(&mut self.stores);
        self.quarantine.remove(name);
        Ok(())
    }

    /// Applies one multi-table [`ChangeBatch`] to every summary — with no
    /// source access. This is the single ingestion entry point.
    ///
    /// The scheduler first coalesces each per-table group to its net
    /// effect, then folds each group into every distinct auxiliary store
    /// once and into every summary reading the table, one after the other
    /// on the calling thread, and finally appends the whole batch to the
    /// change log and commits it everywhere, one LSN per table, at a single
    /// append/commit point.
    ///
    /// All-or-nothing across the whole warehouse: any failure rolls the
    /// stores and every engine back to their pre-batch state, records
    /// each of the batch's groups in the dead-letter store (sorted by
    /// `(table, LSN)`, with the offending change named on the group that
    /// caused it), and returns the failure — a store's, or the first
    /// summary's in name order. The warehouse keeps serving its last
    /// consistent state. With [`WarehouseBuilder::quarantine`], a
    /// summary's failure isolates that summary and the batch commits for
    /// the stores and the rest.
    pub fn apply_batch(&mut self, batch: &ChangeBatch) -> Result<()> {
        let Warehouse {
            catalog,
            stores,
            engines,
            table_seq,
            wal,
            dead_letters,
            quarantine,
            sched,
            obs,
            config,
            ..
        } = self;
        let _span = obs
            .span("warehouse.apply_batch")
            .field("changes", batch.change_count());
        let started = Instant::now();
        let work: Vec<WorkGroup<'_>> = {
            let _coalesce = obs.span("batch.coalesce");
            let key = |t| catalog.def(t).ok().map(|d| d.key_col);
            let groups = batch.groups().iter();
            groups.map(|(t, c)| (*t, coalesce(c, key(*t)))).collect()
        };
        sched
            .coalesce_nanos
            .add(started.elapsed().as_nanos() as u64);
        let submitted = batch.change_count();
        let applied: usize = work.iter().map(|(_, c)| c.len()).sum();
        sched.changes_submitted.add(submitted as u64);
        sched.changes_applied.add(applied as u64);
        sched
            .coalesce_annihilated
            .add(submitted.saturating_sub(applied) as u64);

        // One LSN per table, assigned before anything can fail: a failure
        // after the log append has burnt them, and the dead letters name
        // the LSNs the batch was (or would have been) logged under.
        let lsns: Vec<(TableId, u64)> = work
            .iter()
            .map(|(t, _)| (*t, table_seq.get(t).copied().unwrap_or(0) + 1))
            .collect();

        // The batch, as one transaction: from the prepare on, every `?`
        // drops the prepared batch, which rolls it back everywhere.
        let outcome = (|| -> md_maintain::Result<()> {
            config.faults.hit("warehouse.apply.begin")?;

            // Fold the batch into the stores, each once, and into every
            // affected summary (already-quarantined summaries sit the batch
            // out), one after the other on this thread. Every summary runs
            // its whole part — even after another fails — so every failure
            // of the batch is found. A panicking summary is caught and
            // reported like a failed fold, carrying its payload so the
            // non-isolating configuration can resume the unwind.
            let fanout_started = Instant::now();
            let fanout_span = obs.span("scheduler.fanout");
            let groups: Vec<(TableId, &[ChangeRef<'_>])> =
                work.iter().map(|(t, c)| (*t, &c[..])).collect();
            let mut subscribed = 0usize;
            let subscribers = (engines.iter_mut())
                .filter(|(name, engine)| {
                    let tables = &engine.plan().view.tables;
                    !quarantine.contains_key(*name)
                        && groups.iter().any(|(t, _)| tables.contains(t))
                })
                .map(|(_, engine)| engine)
                .inspect(|_| subscribed += 1);
            let lsn = |table| {
                let found = lsns.iter().find(|(t, _)| *t == table);
                found.expect("every group is assigned an LSN").1
            };
            let prepared = stores.prepare_batch(&groups, lsn, subscribers);
            drop(fanout_span.field("engines", subscribed));
            sched
                .fanout_nanos
                .add(fanout_started.elapsed().as_nanos() as u64);
            let prepared = if config.quarantine {
                prepared?
            } else {
                // All-or-nothing: a panic propagates as before isolation
                // existed; an error rejects the whole batch.
                prepared?.all_or_nothing()?
            };
            // Log the whole batch — one frame per table, all at this single
            // append point — before it is committed anywhere. A fault here
            // escalates the first time it fires: the batch is rolled back
            // and dead-lettered, never retried.
            let log_offset = wal.valid_len();
            // Injection point: a crash mid-append. It leaves the batch's
            // first frame half-written, which recovery treats as absent
            // and the next append truncates.
            if let Err(e) = config.faults.hit("warehouse.wal.torn") {
                if let (Some((table, changes)), Some((_, lsn))) = (work.first(), lsns.first()) {
                    wal.append_torn(*table, *lsn, changes);
                }
                return Err(e);
            }
            config.faults.hit("warehouse.wal.append")?;
            let wal_started = Instant::now();
            let wal_span = obs.span("wal.append");
            let bytes_before = wal.bytes().len() as u64;
            for ((table, changes), (_, lsn)) in work.iter().zip(&lsns) {
                wal.append(*table, *lsn, changes);
            }
            let appended = (wal.bytes().len() as u64).saturating_sub(bytes_before);
            sched.wal_append_bytes.observe(appended);
            drop(wal_span.field("bytes", appended));
            sched.wal_nanos.add(wal_started.elapsed().as_nanos() as u64);

            // Fault-domain isolation, once the batch is logged: quarantine
            // each failed summary behind this batch's watermark and carry
            // on with the healthy subset — and the stores, which belong to
            // the batch. The batch's frames are the first a new entry's
            // replay reads.
            for (engine, cause) in prepared.failures() {
                let entry = QuarantineEntry::new(engine, cause, &lsns, log_offset);
                quarantine.insert(engine.name().to_owned(), entry);
                sched.quarantine_entered.incr();
            }

            // Injection point: a crash between the log append and the
            // in-memory commit — recovery replays the logged batch. The
            // LSNs are burnt: the log already holds this batch.
            if let Err(e) = config.faults.hit("warehouse.apply.commit") {
                table_seq.extend(lsns.iter().copied());
                return Err(e);
            }
            let commit_started = Instant::now();
            let commit_span = obs.span("warehouse.commit");
            let committed = prepared.commit(&lsns);
            table_seq.extend(lsns.iter().copied());
            drop(commit_span.field("engines", committed));
            sched
                .commit_nanos
                .add(commit_started.elapsed().as_nanos() as u64);
            Ok(())
        })();

        match outcome {
            Ok(()) => {
                sched.batches_applied.incr();
                Ok(())
            }
            Err(e) => {
                let letters = work
                    .into_iter()
                    .zip(lsns)
                    .map(|((table, changes), (_, lsn))| {
                        let changes = changes.into_iter().map(ChangeRef::to_change).collect();
                        DeadLetter::rejected(catalog, table, lsn, changes, &e, e.to_string())
                    });
                dead_letters.extend_sorted(letters.collect());
                Err(e.into())
            }
        }
    }

    /// Source-free integrity audit of every summary: rebuilds each `V`
    /// from its auxiliary views and holds the maintained groups, value
    /// counts included, against it (see [`SummaryEngine::audit`]). A
    /// quarantined summary lags the stores it shares until repaired: its
    /// report says so instead. Each store's key index is checked once, and
    /// a divergence reported by every summary reading the store. Returns
    /// one report per summary, in name order.
    pub fn audit(&self) -> Vec<(String, AuditReport)> {
        let _span = self.obs.span("warehouse.audit");
        let inexact = self.stores.inexact_key_indexes();
        self.engines
            .iter()
            .map(|(name, engine)| {
                let report = match self.quarantine.get(name) {
                    None => engine.audit_with(&self.stores, &inexact),
                    Some(entry) => AuditReport {
                        findings: vec![format!(
                            "quarantined since LSN {}: the summary lags its auxiliary views \
                             until repair rebuilds it from them",
                            entry.since_lsn
                        )],
                    },
                };
                (name.clone(), report)
            })
            .collect()
    }

    fn engine(&self, name: &str) -> Result<&SummaryEngine> {
        self.engines
            .get(name)
            .ok_or_else(|| WarehouseError::UnknownSummary(name.to_owned()))
    }

    /// The derived plan of a summary.
    pub fn plan(&self, name: &str) -> Result<&DerivedPlan> {
        Ok(self.engine(name)?.plan())
    }

    /// The current contents of a summary as a bag of output rows.
    pub fn summary_bag(&self, name: &str) -> Result<Bag> {
        Ok(self.engine(name)?.summary_bag()?)
    }

    /// The current contents of a summary, in output-row order (which is
    /// the group order only when the group columns lead the select list).
    /// Every group column is projected, so no two groups emit equal rows.
    pub fn summary_rows(&self, name: &str) -> Result<Vec<Row>> {
        let _span = self.obs.span("warehouse.read").field("summary", name);
        let mut rows = self.engine(name)?.summary().to_rows();
        sort_by_row(&mut rows, Row::values);
        Ok(rows)
    }

    /// Maintenance work counters of a summary (including its per-stage
    /// prepare/commit wall time).
    pub fn stats(&self, name: &str) -> Result<MaintStats> {
        Ok(self.engine(name)?.stats())
    }

    /// Storage accounting for one summary (auxiliary views — shared ones
    /// included — and the view).
    pub fn storage_report(&self, name: &str) -> Result<Vec<StorageLine>> {
        Ok(self.engine(name)?.storage_report(&self.stores))
    }

    /// The auxiliary view stores several summaries read, each held once —
    /// the paper's Section 4 direction of minimal detail data for whole
    /// *classes* of summary data, for identical definitions. Sorted by
    /// view name, then by the first summary reading the store.
    pub fn shared_detail_report(&self) -> Vec<SharedDetail> {
        let mut out: Vec<SharedDetail> = self
            .stores
            .iter()
            .filter(|(id, _)| self.stores.subscribers(*id) > 1)
            .map(|(id, store)| SharedDetail {
                aux_name: store.def().name.clone(),
                table: self
                    .catalog
                    .def(store.def().table)
                    .map(|d| d.name.clone())
                    .unwrap_or_default(),
                summaries: self.readers(id).map(str::to_owned).collect(),
                rows: store.len() as u64,
                bytes_each: store.paper_bytes(),
            })
            .collect();
        out.sort_by(|a, b| (&a.aux_name, &a.summaries).cmp(&(&b.aux_name, &b.summaries)));
        out
    }

    /// The summaries reading store `id`, in name order.
    fn readers(&self, id: md_maintain::StoreId) -> impl Iterator<Item = &str> {
        let reads = move |engine: &SummaryEngine| engine.store_ids().iter().any(|(_, s)| *s == id);
        self.engines
            .iter()
            .filter(move |(_, engine)| reads(engine))
            .map(|(name, _)| name.as_str())
    }

    /// Detail-data bytes (paper model) the warehouse holds: each store
    /// once, however many summaries read it.
    pub fn total_detail_bytes(&self) -> u64 {
        self.stores.paper_bytes()
    }

    /// Oracle check of every summary against a recomputation from `db`
    /// (testing/experiments only).
    pub fn verify_all(&self, db: &Database) -> Result<bool> {
        for engine in self.engines.values() {
            if !engine.verify_against(db)? || !engine.verify_aux_against(&self.stores, db)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serializes the whole warehouse — every summary's view definition
    /// (as SQL) and its engine state, the stores it reads included —
    /// into one versioned binary image of the maintained state and nothing
    /// else: each store once, in the section of the first summary reading
    /// it in name order, and no work counter, so two warehouses in one
    /// state save the same bytes. A quarantined summary is written as its
    /// repair would rebuild it from the stores, so that recovery replays
    /// each logged frame into a store at most once. Together with
    /// [`WarehouseBuilder::restore`] this lets the warehouse survive restarts
    /// without ever contacting the sources, which is the paper's
    /// operating assumption.
    pub fn save(&self) -> Result<Vec<u8>> {
        // Injection point: a failed save escalates; the caller saves again.
        self.config.faults.hit("warehouse.save")?;
        let _span = self.obs.span("warehouse.save");
        let mut e = Encoder::new();
        e.put_str(WAREHOUSE_HEADER);
        // Per-table batch sequence numbers, so recovery knows where the
        // image stands relative to the change log.
        e.put_u32(self.table_seq.len() as u32);
        for (table, seq) in &self.table_seq {
            e.put_u32(table.0 as u32);
            e.put_u64(*seq);
        }
        e.put_u32(self.engines.len() as u32);
        let mut written = HashSet::new();
        for (name, engine) in &self.engines {
            e.put_str(name);
            e.put_str(&view_to_sql(&engine.plan().view, &self.catalog)?);
            let image = if self.quarantine.contains_key(name) {
                engine.snapshot_rebuilt(&self.stores, &mut written)?
            } else {
                engine.snapshot(&self.stores, &mut written)?
            };
            e.put_bytes(&image);
        }
        Ok(e.into_bytes())
    }

    /// A human-readable explanation of one summary's derivation: the join
    /// graph (Figure 2 style), per-table outcomes as the plan records them
    /// (why an auxiliary view is omitted, or every reason it is kept), the
    /// auxiliary view SQL (Section 1.1 style) and, per auxiliary view, the
    /// other summaries that share its store.
    pub fn explain(&self, name: &str) -> Result<String> {
        use std::fmt::Write as _;
        let engine = self.engine(name)?;
        let plan = engine.plan();
        let mut out = String::new();
        let _ = writeln!(out, "summary view: {name}");
        let _ = writeln!(
            out,
            "extended join graph: {}",
            plan.graph.display(&self.catalog)
        );
        for entry in &plan.aux {
            let table = entry.table();
            let tname = (self.catalog.def(table))
                .map(|d| d.name.clone())
                .unwrap_or_default();
            match entry {
                md_core::AuxEntry::Omitted { reason, .. } => {
                    let _ = writeln!(out, "\n-- X_{tname}: OMITTED ({reason})");
                }
                md_core::AuxEntry::Materialized { def, blockers } => {
                    let why: Vec<String> = (blockers.iter())
                        .map(|b| b.describe(&self.catalog))
                        .collect();
                    let _ = writeln!(out, "\n-- X_{tname}: kept because {}", why.join("; "));
                    if let Some(sql) = md_sql::aux_view_to_sql(plan, def.table, &self.catalog)? {
                        let _ = writeln!(out, "{sql}");
                    }
                    let store = engine.store_ids().iter().find(|(t, _)| *t == def.table);
                    let others: Vec<&str> = store
                        .map(|&(_, id)| self.readers(id).filter(|n| *n != name).collect())
                        .unwrap_or_default();
                    if !others.is_empty() {
                        let _ = writeln!(out, "-- shared with: {}", others.join(", "));
                    }
                }
            }
        }
        let _ = writeln!(out);
        for line in engine.storage_report(&self.stores) {
            let _ = writeln!(
                out,
                "{:<24} {:>12} rows {:>14} bytes",
                line.name, line.rows, line.paper_bytes
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::row;
    use md_workload::{
        generate_retail, product_brand_changes, sale_changes, Contracts, RetailParams, UpdateMix,
    };

    #[test]
    fn warehouse_full_lifecycle() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        let name = wh
            .add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        assert_eq!(name, "product_sales");
        assert!(wh.verify_all(&db).unwrap());

        // Stream changes through.
        let changes = sale_changes(&mut db, &schema, 100, UpdateMix::balanced(), 3);
        for c in &changes {
            wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c.clone()]))
                .unwrap();
        }
        let brand_changes = product_brand_changes(&mut db, &schema, 3, 4);
        wh.apply_batch(&ChangeBatch::single(schema.product, brand_changes))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap());
    }

    #[test]
    fn summary_rows_come_in_output_row_order() {
        // An aggregate leads the select list: output-row order is not the
        // group order, and the rows are ordered as they are read.
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        let name = wh
            .add_summary_sql(
                "CREATE VIEW by_total AS SELECT SUM(sale.price) AS s, sale.productid \
                 FROM sale GROUP BY sale.productid",
                &db,
            )
            .unwrap();
        let changes = sale_changes(&mut db, &schema, 60, UpdateMix::balanced(), 5);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
            .unwrap();
        let rows = wh.summary_rows(&name).unwrap();
        let bag = wh.summary_bag(&name).unwrap();
        let mut by_row: Vec<Row> = bag.iter().map(|(row, _)| row.clone()).collect();
        by_row.sort();
        assert!(rows.len() > 2);
        assert_eq!(rows, by_row);
        let mut by_group = by_row.clone();
        by_group.sort_by(|a, b| a[1].cmp(&b[1]));
        assert_ne!(rows, by_group);
    }

    #[test]
    fn multiple_summaries_share_the_stream() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        wh.add_summary_sql(md_workload::views::STORE_REVENUE_SQL, &db)
            .unwrap();
        wh.add_summary_sql(md_workload::views::DAILY_PRODUCT_SQL, &db)
            .unwrap();
        assert_eq!(wh.summaries().count(), 3);

        let changes = sale_changes(&mut db, &schema, 60, UpdateMix::balanced(), 5);
        for c in &changes {
            wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c.clone()]))
                .unwrap();
        }
        assert!(wh.verify_all(&db).unwrap());
        // daily_product's fact auxiliary view is eliminated.
        assert!(wh.plan("daily_product").unwrap().root_omitted());
    }

    #[test]
    fn single_table_batches_go_through_apply_batch() {
        // The legacy `Warehouse::apply(table, changes)` wrapper is gone;
        // `ChangeBatch::single` is the spelling for one-table batches,
        // and the scheduler has exactly one ingestion path to model.
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        let changes = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 9);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap());
        assert_eq!(wh.table_seq(schema.sale), 1);
    }

    #[test]
    fn multi_table_batch_commits_atomically() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        let mut batch = ChangeBatch::new();
        batch.extend(
            schema.sale,
            sale_changes(&mut db, &schema, 10, UpdateMix::balanced(), 21),
        );
        batch.extend(
            schema.product,
            product_brand_changes(&mut db, &schema, 2, 22),
        );
        wh.apply_batch(&batch).unwrap();
        assert!(wh.verify_all(&db).unwrap());
        assert_eq!(wh.table_seq(schema.sale), 1);
        assert_eq!(wh.table_seq(schema.product), 1);
        // One WAL frame per table, appended at the single commit point.
        let (records, _) = Wal::replay(wh.wal_bytes().unwrap()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].table, schema.sale);
        assert_eq!(records[1].table, schema.product);
    }

    #[test]
    fn an_unresolvable_definition_is_refused_at_registration() {
        let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        assert!(matches!(
            wh.add_summary_sql(
                "SELECT sale.nope, COUNT(*) AS n FROM sale GROUP BY sale.nope",
                &db
            ),
            Err(WarehouseError::Sql(_))
        ));
        assert_eq!(wh.summaries().count(), 0);
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        assert_eq!(wh.summaries().count(), 1);
    }

    #[test]
    fn coalescing_is_observable_in_scheduler_stats() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        // A transient row: insert + delete annihilate under coalescing.
        let next_id = db.table(schema.sale).len() as i64 + 1000;
        let template = db.table(schema.sale).rows().next().unwrap().clone();
        let mut values = template.values().to_vec();
        values[0] = md_relation::Value::Int(next_id);
        let row = md_relation::Row::from(values);
        let ins = db.insert(schema.sale, row.clone()).unwrap();
        let del = db.delete(schema.sale, &row.values()[0]).unwrap();
        wh.apply_batch(&ChangeBatch::single(schema.sale, vec![ins, del]))
            .unwrap();
        let sched = wh.scheduler_stats();
        assert_eq!(sched.changes_submitted, 2);
        assert_eq!(sched.changes_applied, 0);
        assert_eq!(wh.obs().counter("sched.batches_applied", &[]).get(), 1);
        // The empty coalesced group still consumed the table's LSN.
        assert_eq!(wh.table_seq(schema.sale), 1);
        assert!(wh.verify_all(&db).unwrap());
        assert_eq!(wh.stats("product_sales").unwrap().rows_processed, 0);
    }

    #[test]
    fn duplicate_and_unknown_summary_errors() {
        let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        assert!(matches!(
            wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db),
            Err(WarehouseError::DuplicateSummary(_))
        ));
        assert!(matches!(
            wh.summary_bag("nope"),
            Err(WarehouseError::UnknownSummary(_))
        ));
        wh.drop_summary("product_sales").unwrap();
        assert!(wh.drop_summary("product_sales").is_err());
    }

    #[test]
    fn explain_mentions_graph_and_aux_views() {
        let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        let text = wh.explain("product_sales").unwrap();
        assert!(text.contains("sale -> time(g)"));
        assert!(text.contains("CREATE VIEW saleDTL"));
        assert!(text.contains("timeDTL"));
        // One "kept because" line per materialized entry, every reason the
        // plan records, right above the view's SQL.
        for line in [
            "-- X_sale: kept because in the Need set of 'time'; in the Need set of 'product'\n\
             CREATE VIEW saleDTL",
            "-- X_time: kept because not the root table; in the Need set of 'sale'; \
             in the Need set of 'product'\nCREATE VIEW timeDTL",
            "-- X_product: kept because not the root table; product.brand feeds a \
             non-CSMAS aggregate\nCREATE VIEW productDTL",
        ] {
            assert!(text.contains(line), "{line:?} missing from\n{text}");
        }
        assert_eq!(text.matches("kept because").count(), 3);
    }

    #[test]
    fn shared_detail_is_detected_across_summaries() {
        let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        // Two views over the product dimension with identical productDTL
        // definitions (id + brand, no conditions).
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        wh.add_summary_sql(
            "CREATE VIEW brand_counts AS \
             SELECT product.brand, COUNT(*) AS n FROM sale, product \
             WHERE sale.productid = product.id GROUP BY product.brand",
            &db,
        )
        .unwrap();
        // Semijoins against the same tables, but against stores that keep
        // other rows: the year's (or the month's) time rows decide which
        // sales each saleDTL keeps.
        wh.add_summary_sql(
            "CREATE VIEW product_sales_1996 AS \
             SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount, \
             COUNT(DISTINCT brand) AS DifferentBrands FROM sale, time, product \
             WHERE time.year = 1996 AND sale.timeid = time.id AND sale.productid = product.id \
             GROUP BY time.month",
            &db,
        )
        .unwrap();
        for sql in [
            "CREATE VIEW yearly_totals AS SELECT time.year, SUM(price) AS Revenue, \
             COUNT(*) AS Sales FROM sale, time WHERE sale.timeid = time.id GROUP BY time.year",
            "CREATE VIEW february_by_day AS SELECT time.day, SUM(price) AS Revenue, \
             COUNT(*) AS Sales FROM sale, time WHERE time.month = 2 AND sale.timeid = time.id \
             GROUP BY time.day",
        ] {
            wh.add_summary_sql(sql, &db).unwrap();
        }
        let shared = wh.shared_detail_report();
        let product_group = shared.iter().find(|g| g.table == "product").unwrap();
        assert_eq!(
            product_group.summaries,
            ["brand_counts", "product_sales", "product_sales_1996"]
        );
        assert_eq!(product_group.dedup_savings(), 2 * product_group.bytes_each);
        // No saleDTL is shared: product_sales' and brand_counts' differ in
        // their group columns, the rest in the time rows they reduce
        // against.
        assert!(!shared.iter().any(|g| g.table == "sale"), "{shared:?}");
        // `explain` names the other readers of each shared store.
        let text = wh.explain("product_sales").unwrap();
        assert!(text.contains("-- shared with: brand_counts, product_sales_1996"));
    }

    #[test]
    fn a_store_goes_with_its_last_reader() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        // brand_avg reads exactly brand_sales' stores.
        let brand_avg = "CREATE VIEW brand_avg AS SELECT product.brand, AVG(price) AS AvgTicket, \
             COUNT(*) AS Sales FROM sale, product WHERE sale.productid = product.id \
             GROUP BY product.brand";
        wh.add_summary_sql(md_workload::views::BRAND_SALES_SQL, &db)
            .unwrap();
        let alone = wh.total_detail_bytes();
        assert!(alone > 0);
        wh.add_summary_sql(brand_avg, &db).unwrap();
        assert_eq!(wh.total_detail_bytes(), alone);
        wh.drop_summary("brand_sales").unwrap();
        assert_eq!(wh.total_detail_bytes(), alone);
        assert!(wh.shared_detail_report().is_empty());
        wh.drop_summary("brand_avg").unwrap();
        assert_eq!(wh.total_detail_bytes(), 0);

        // The sources move on unseen; a summary added now loads from them.
        let changes = sale_changes(&mut db, &schema, 40, UpdateMix::balanced(), 31);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
            .unwrap();
        wh.add_summary_sql(brand_avg, &db).unwrap();
        assert!(wh.verify_all(&db).unwrap());
        let mut fresh = Warehouse::new(db.catalog());
        fresh.add_summary_sql(brand_avg, &db).unwrap();
        assert_eq!(wh.total_detail_bytes(), fresh.total_detail_bytes());
    }

    #[test]
    fn a_shared_store_keeps_its_semijoin_targets_after_their_reader_goes() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        // One filter on product, two column choices: the productDTLs keep
        // the same rows but differ, the saleDTLs reduce against equal rows
        // and are one store, which semijoins against toys_by_brand's.
        let view = |name: &str, column: &str| {
            format!(
                "CREATE VIEW {name} AS SELECT product.{column}, SUM(price) AS Revenue, \
                 COUNT(*) AS N FROM sale, product WHERE sale.productid = product.id \
                 AND product.category = 'cat-1' GROUP BY product.{column}"
            )
        };
        wh.add_summary_sql(&view("toys_by_brand", "brand"), &db)
            .unwrap();
        wh.add_summary_sql(&view("toys_by_category", "category"), &db)
            .unwrap();
        let shared = wh.shared_detail_report();
        assert_eq!(shared.len(), 1, "{shared:?}");
        assert_eq!(shared[0].table, "sale");

        // The shared saleDTL still tests membership in the first summary's
        // productDTL, which stays resident (and folds) without a reader.
        let held = wh.total_detail_bytes();
        wh.drop_summary("toys_by_brand").unwrap();
        assert_eq!(wh.total_detail_bytes(), held);
        for b in 0..4 {
            let mut batch = ChangeBatch::single(
                schema.sale,
                sale_changes(&mut db, &schema, 30, UpdateMix::balanced(), 50 + b),
            );
            batch.extend(
                schema.product,
                product_brand_changes(&mut db, &schema, 3, 60 + b),
            );
            wh.apply_batch(&batch).unwrap();
            assert!(wh.verify_all(&db).unwrap(), "batch {b}");
        }
        assert!(wh.audit().iter().all(|(_, r)| r.is_clean()));
        let restored = Warehouse::builder()
            .restore(db.catalog(), &wh.save().unwrap())
            .unwrap();
        assert!(restored.verify_all(&db).unwrap());

        // The last reader takes the store and its target with it.
        wh.drop_summary("toys_by_category").unwrap();
        assert_eq!(wh.total_detail_bytes(), 0);
    }

    #[test]
    fn changes_to_unreferenced_tables_are_ignored() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        // product_sales_max references only `sale`.
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_MAX_SQL, &db)
            .unwrap();
        let next_store = db.table(schema.store).len() as i64 + 1;
        let c = db
            .insert(schema.store, row![next_store, "x st", "city-x", "us", "m"])
            .unwrap();
        wh.apply_batch(&ChangeBatch::single(schema.store, vec![c]))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap());
        assert_eq!(wh.stats("product_sales_max").unwrap().rows_processed, 0);
    }
}
