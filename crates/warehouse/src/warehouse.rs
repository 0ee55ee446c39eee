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
//! scheduler coalesces, fans out across the summary engines (optionally on
//! worker threads) and commits under a single WAL append point.
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
//! let mut wh = Warehouse::builder().workers(2).build(&cat);
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

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use md_algebra::GpsjView;
use md_core::{derive, DerivedPlan};
use md_maintain::{
    AuditReport, ChangeBatch, Executor, FaultPlan, IoFaultKind, MaintStats, MaintainError,
    MaintenanceEngine, RetryPolicy, SchedEvent, SchedOp, StorageLine, Task, ThreadExecutor, Wal,
    WalRecord,
};
use md_obs::{Counter, Gauge, Histogram, Obs, ObsConfig};
use md_relation::{Bag, Catalog, Change, Database, Decoder, Encoder, Row, TableId};
use md_sql::{parse_view, view_to_sql};

use crate::error::{Result, WarehouseError};

/// One group of identical auxiliary views stored by multiple summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedDetail {
    /// The auxiliary view name (e.g. `saleDTL`).
    pub aux_name: String,
    /// The covered base table.
    pub table: String,
    /// Summaries whose plans contain this exact definition.
    pub summaries: Vec<String>,
    /// Stored tuples per copy.
    pub rows: u64,
    /// Paper-model bytes per copy; sharing saves
    /// `(summaries.len() - 1) × bytes_each`.
    pub bytes_each: u64,
}

impl SharedDetail {
    /// Bytes saved by deduplicating this group to a single copy.
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
    /// The rejected changes as the engines saw them (coalesced when the
    /// warehouse coalesces).
    pub changes: Vec<Change>,
    /// Index of the offending change within the group, when the failure
    /// is attributable to a single change.
    pub change_index: Option<usize>,
    /// Why the batch was rejected.
    pub reason: String,
}

impl DeadLetter {
    /// The one place a rejected change group becomes a dead letter. The
    /// offending change is named only on the group of the table `cause`
    /// attributes the failure to.
    fn rejected(
        catalog: &Catalog,
        table: TableId,
        lsn: u64,
        changes: Vec<Change>,
        cause: &MaintainError,
        reason: String,
    ) -> Self {
        let change_index = match cause {
            MaintainError::Rejected {
                table: failed,
                change_index,
                ..
            } if catalog.def(table).is_ok_and(|d| d.name == *failed) => *change_index,
            _ => None,
        };
        DeadLetter {
            table,
            lsn,
            changes,
            change_index,
            reason,
        }
    }
}

/// The warehouse's dead-letter store: rejected change groups awaiting
/// operator inspection. Dereferences to a slice in rejection order; the
/// groups of one rejected batch are surfaced deterministically, sorted by
/// `(table, lsn)` regardless of the worker count that found the failure.
///
/// The store is bounded (see [`WarehouseBuilder::dead_letter_capacity`];
/// unbounded by default): past capacity the *oldest* letters are evicted
/// first — the newest rejection carries the most diagnostic value — and
/// every eviction is surfaced through the `deadletter.dropped` counter
/// and [`DeadLetterStore::dropped`].
#[derive(Debug)]
pub struct DeadLetterStore {
    letters: Vec<DeadLetter>,
    capacity: usize,
    dropped: u64,
    dropped_counter: Option<Counter>,
}

impl Default for DeadLetterStore {
    fn default() -> Self {
        DeadLetterStore {
            letters: Vec::new(),
            capacity: usize::MAX,
            dropped: 0,
            dropped_counter: None,
        }
    }
}

impl Deref for DeadLetterStore {
    type Target = [DeadLetter];

    fn deref(&self) -> &[DeadLetter] {
        &self.letters
    }
}

impl DeadLetterStore {
    fn bounded(capacity: usize, dropped_counter: Counter) -> Self {
        DeadLetterStore {
            letters: Vec::new(),
            capacity,
            dropped: 0,
            dropped_counter: Some(dropped_counter),
        }
    }

    /// The oldest dead letter without removing it.
    pub fn peek(&self) -> Option<&DeadLetter> {
        self.letters.first()
    }

    /// Removes and returns all accumulated dead letters (after the
    /// operator has repaired or discarded them).
    pub fn drain(&mut self) -> Vec<DeadLetter> {
        std::mem::take(&mut self.letters)
    }

    /// The configured capacity (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Letters evicted (oldest-first) to stay within capacity, ever.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn extend_sorted(&mut self, mut letters: Vec<DeadLetter>) {
        letters.sort_by_key(|l| (l.table, l.lsn));
        self.letters.extend(letters);
        if self.letters.len() > self.capacity {
            let evict = self.letters.len() - self.capacity;
            self.letters.drain(..evict);
            self.dropped += evict as u64;
            if let Some(c) = &self.dropped_counter {
                c.add(evict as u64);
            }
        }
    }
}

/// Wall-clock and volume counters of the batch scheduler — the
/// per-stage measurements behind the parallel-maintenance experiments.
///
/// A point-in-time view over the warehouse's `md-obs` registry (the
/// `sched.*` metrics); [`Warehouse::scheduler_stats`] assembles it.
///
/// **Which clock is which.** Every `*_nanos` field here is *scheduler
/// wall-clock*: elapsed time at the coordinating thread, including the
/// whole overlapped prepare fan-out in `fanout_nanos`. The per-summary
/// `MaintStats::prepare_nanos`/`commit_nanos` measure each engine's own
/// busy time instead, so under `workers > 1` the per-summary values sum
/// to total work, not to these wall-clock figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Batches committed successfully.
    pub batches_applied: u64,
    /// Changes submitted across all batches, before coalescing.
    pub changes_submitted: u64,
    /// Changes handed to the engines, after coalescing.
    pub changes_applied: u64,
    /// Nanoseconds spent coalescing.
    pub coalesce_nanos: u64,
    /// Nanoseconds of wall time in the prepare fan-out (all engines).
    pub fanout_nanos: u64,
    /// Nanoseconds appending to the change log.
    pub wal_nanos: u64,
    /// Nanoseconds committing prepared engines.
    pub commit_nanos: u64,
}

/// The scheduler's live metric handles — the storage behind
/// [`SchedulerStats`], registered in the warehouse's `md-obs` registry.
#[derive(Debug, Clone)]
struct SchedCounters {
    batches_applied: Counter,
    changes_submitted: Counter,
    changes_applied: Counter,
    coalesce_nanos: Counter,
    fanout_nanos: Counter,
    wal_nanos: Counter,
    commit_nanos: Counter,
    /// Changes that cancelled out during coalescing
    /// (`submitted − applied` per batch).
    coalesce_annihilated: Counter,
    /// Bytes appended to the change log per batch.
    wal_append_bytes: Histogram,
    /// Current dead-letter count (refreshed at scrape time).
    deadletter_depth: Gauge,
    /// Total auxiliary-view rows after compression across all summaries
    /// (refreshed at scrape time).
    aux_rows: Gauge,
    /// Retried WAL appends after a transient I/O fault.
    wal_retries: Counter,
    /// Retried snapshot saves after a transient I/O fault.
    save_retries: Counter,
    /// Summaries that entered quarantine, ever.
    quarantine_entered: Counter,
    /// Currently quarantined summaries (refreshed at scrape time).
    quarantine_active: Gauge,
    /// Summary rows produced by reconstruction rebuilds during repair.
    repair_rebuilt_rows: Counter,
    /// Repairs that reinstated a summary.
    repair_reinstated: Counter,
    /// Repair attempts that failed (the summary stays quarantined).
    repair_failed: Counter,
    /// Columnar chunks the source tables' live rows occupy at the default
    /// chunk capacity (refreshed by [`Warehouse::observe_relation`]).
    chunk_count: Gauge,
    /// Live-slot fill of the columnar stores as a percentage — 100 until
    /// tombstones accumulate (refreshed by [`Warehouse::observe_relation`]).
    chunk_fill: Gauge,
}

impl SchedCounters {
    fn new(obs: &Obs) -> Self {
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
            wal_retries: obs.counter("wal.retries", &[]),
            save_retries: obs.counter("save.retries", &[]),
            quarantine_entered: obs.counter("quarantine.entered", &[]),
            quarantine_active: obs.gauge("quarantine.active", &[]),
            repair_rebuilt_rows: obs.counter("repair.rebuilt_rows", &[]),
            repair_reinstated: obs.counter("repair.reinstated", &[]),
            repair_failed: obs.counter("repair.failed", &[]),
            chunk_count: obs.gauge("relation.chunk_count", &[]),
            chunk_fill: obs.gauge("relation.chunk_fill", &[]),
        }
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            batches_applied: self.batches_applied.get(),
            changes_submitted: self.changes_submitted.get(),
            changes_applied: self.changes_applied.get(),
            coalesce_nanos: self.coalesce_nanos.get(),
            fanout_nanos: self.fanout_nanos.get(),
            wal_nanos: self.wal_nanos.get(),
            commit_nanos: self.commit_nanos.get(),
        }
    }
}

/// Construction-time configuration of a [`Warehouse`]. Every knob that
/// used to be a post-hoc `set_*` mutator lives here, so configuration is
/// immutable once built and the scheduler can rely on it.
///
/// ```
/// use md_relation::Catalog;
/// use md_warehouse::Warehouse;
///
/// let cat = Catalog::new();
/// let wh = Warehouse::builder().workers(4).build(&cat);
/// assert_eq!(wh.workers(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct WarehouseBuilder {
    faults: FaultPlan,
    workers: usize,
    coalesce: bool,
    strict: bool,
    obs: ObsConfig,
    executor: Arc<dyn Executor>,
    quarantine: bool,
    auto_repair: bool,
    retry: RetryPolicy,
    dead_letter_capacity: usize,
}

impl Default for WarehouseBuilder {
    fn default() -> Self {
        WarehouseBuilder {
            faults: FaultPlan::default(),
            workers: 1,
            coalesce: true,
            strict: false,
            obs: ObsConfig::off(),
            executor: Arc::new(ThreadExecutor),
            quarantine: false,
            auto_repair: false,
            retry: RetryPolicy::default(),
            dead_letter_capacity: usize::MAX,
        }
    }
}

impl WarehouseBuilder {
    /// A builder with the production defaults: coalescing on, one worker,
    /// no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault-injection plan, shared with every engine the
    /// warehouse registers. Testing only. The plan's interior is shared
    /// across clones, so a test may keep a handle and arm points after
    /// the warehouse is built.
    pub fn fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Number of worker threads the scheduler fans prepare work out to
    /// (clamped to at least 1). Engines are partitioned across workers;
    /// with one worker the fan-out runs inline on the caller's thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables/disables per-table change coalescing before fan-out
    /// (enabled by default).
    pub fn coalesce(mut self, enabled: bool) -> Self {
        self.coalesce = enabled;
        self
    }

    /// Enables strict registration: `add_summary_sql` / `add_summary`
    /// first run the `md-check` static analyzer and refuse definitions
    /// with error-level diagnostics ([`WarehouseError::Check`] carries
    /// the full report). Warnings and notes do not block registration.
    /// Off by default; snapshot restore is never strict-checked (the
    /// definitions were accepted when first registered).
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Replaces the executor the scheduler's fan-out/join, WAL-append
    /// and commit steps run against. The default is
    /// [`ThreadExecutor`] — real scoped OS threads, scheduling points
    /// ignored. `md-race` installs its deterministic stepper here to
    /// enumerate interleavings of the announced scheduling points.
    pub fn executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = executor;
        self
    }

    /// Enables per-summary quarantine (fault-domain isolation). When a
    /// summary's prepare fails — an engine error, an injected fault, or
    /// a worker panic — the scheduler isolates *that summary* behind an
    /// LSN watermark ([`QuarantineEntry`]), commits the healthy rest of
    /// the batch, and keeps accepting batches: the change log keeps what
    /// a quarantined summary misses until [`Warehouse::repair`] rebuilds
    /// it from its auxiliary views and replays the log written since.
    /// Off by default, where any engine failure rejects the whole batch
    /// (all-or-nothing).
    pub fn quarantine(mut self, enabled: bool) -> Self {
        self.quarantine = enabled;
        self
    }

    /// Enables the auto-repair policy: after every applied batch, each
    /// quarantined summary is repaired in name order
    /// ([`Warehouse::repair`] — rebuild from aux views, replay the log
    /// suffix, audit, reinstate). A summary whose repair fails stays
    /// quarantined (`repair.failed` counts the attempts). Implies
    /// nothing unless [`WarehouseBuilder::quarantine`] is also enabled.
    pub fn auto_repair(mut self, enabled: bool) -> Self {
        self.auto_repair = enabled;
        self
    }

    /// Sets the bounded-backoff retry policy wrapped around the WAL
    /// append and snapshot save I/O points. The default allows 4
    /// attempts; [`RetryPolicy::none`] escalates the first failure.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Bounds the dead-letter store. Past `capacity` letters the oldest
    /// are evicted first, surfaced via the `deadletter.dropped` counter.
    /// Unbounded by default.
    pub fn dead_letter_capacity(mut self, capacity: usize) -> Self {
        self.dead_letter_capacity = capacity;
        self
    }

    /// Sets the observability mode ([`ObsConfig::off`] by default, where
    /// spans and histograms are branch-only no-ops). Every engine the
    /// warehouse registers shares the resulting [`Obs`] handle, so
    /// [`Warehouse::metrics_prometheus`] and [`Warehouse::trace_json`]
    /// cover the whole pipeline.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Builds an empty warehouse over the source catalog.
    pub fn build(self, catalog: &Catalog) -> Warehouse {
        let obs = Obs::new(self.obs);
        let sched = SchedCounters::new(&obs);
        let dead_letters = DeadLetterStore::bounded(
            self.dead_letter_capacity,
            obs.counter("deadletter.dropped", &[]),
        );
        Warehouse {
            catalog: catalog.clone(),
            engines: BTreeMap::new(),
            table_seq: BTreeMap::new(),
            wal: Wal::new(),
            dead_letters,
            quarantine: BTreeMap::new(),
            recovery_warnings: Vec::new(),
            sched,
            obs,
            config: self,
        }
    }

    /// Rebuilds a warehouse from a [`Warehouse::save`] image over the same
    /// catalog, under this configuration. View definitions are re-parsed
    /// and re-derived; each engine's plan fingerprint guards against
    /// catalog or contract drift since the snapshot was taken.
    pub fn restore(self, catalog: &Catalog, bytes: &[u8]) -> Result<Warehouse> {
        let mut d = Decoder::new(bytes);
        let header = d.take_str().map_err(WarehouseError::from)?;
        if header != "MDWH2" {
            return Err(WarehouseError::Maintain(MaintainError::InvariantViolation(
                format!("not a readable warehouse image (header '{header}', expected 'MDWH2')"),
            )));
        }
        let mut wh = self.build(catalog);
        let n_seq = d.take_u32().map_err(WarehouseError::from)?;
        for _ in 0..n_seq {
            let table = TableId(d.take_u32().map_err(WarehouseError::from)? as usize);
            let seq = d.take_u64().map_err(WarehouseError::from)?;
            wh.table_seq.insert(table, seq);
        }
        let n = d.take_u32().map_err(WarehouseError::from)?;
        for _ in 0..n {
            let name = d.take_str().map_err(WarehouseError::from)?;
            let sql = d.take_str().map_err(WarehouseError::from)?;
            let len = d.take_u32().map_err(WarehouseError::from)? as usize;
            let mut image = Vec::with_capacity(len.min(d.remaining()));
            for _ in 0..len {
                image.push(d.take_u8().map_err(WarehouseError::from)?);
            }
            let view = parse_view(&sql, catalog, &name)?;
            let plan = derive(&view, catalog)?;
            let mut engine = MaintenanceEngine::restore(plan, catalog, &image)?;
            engine.set_fault_plan(wh.config.faults.clone());
            engine.set_obs(wh.obs.clone());
            wh.engines.insert(name, engine);
        }
        if !d.is_exhausted() {
            return Err(WarehouseError::Maintain(MaintainError::InvariantViolation(
                format!("warehouse image has {} trailing bytes", d.remaining()),
            )));
        }
        Ok(wh)
    }

    /// Crash recovery under this configuration: restores the latest
    /// [`Warehouse::save`] image and replays the change-log suffix it has
    /// not seen — every logged batch whose LSN exceeds the corresponding
    /// engine's committed mark. Replay is idempotent (committed batches
    /// are skipped per engine), tolerates a torn tail write in the log,
    /// and routes any batch that no longer applies to the dead-letter
    /// store rather than aborting, so a recovered warehouse always comes
    /// up serving.
    pub fn recover(
        self,
        catalog: &Catalog,
        snapshot: &[u8],
        wal_bytes: &[u8],
    ) -> Result<Warehouse> {
        let mut warnings: Vec<String> = Vec::new();
        // A missing/empty snapshot with a surviving log is a valid cold
        // start: replay from genesis. (The sequence numbers advance from
        // the log; summaries registered later initial-load at the
        // post-replay state.)
        let mut wh = if snapshot.is_empty() {
            warnings.push(
                "snapshot image is missing or empty; replaying the change log from genesis"
                    .to_owned(),
            );
            self.build(catalog)
        } else {
            self.restore(catalog, snapshot)?
        };
        // The reverse asymmetry — a snapshot but no log — silently loses
        // every batch committed after the snapshot. Come up serving, but
        // say so.
        if wal_bytes.is_empty() && !snapshot.is_empty() {
            warnings.push(
                "change log is missing or empty but a snapshot is present; batches \
                 committed after the snapshot cannot be replayed"
                    .to_owned(),
            );
        }
        if !wal_bytes.is_empty() {
            // Engines that already replayed a record keep it (each failed
            // engine rolled itself back); a record that no longer applies
            // goes to the dead-letter store for the operator.
            let (_, letters) = wh.replay(Wal::replay(wal_bytes)?.0, None);
            for letter in letters {
                wh.dead_letters.extend_sorted(vec![letter]);
            }
            // Adopt the surviving log so new batches append after its
            // valid prefix (any torn tail is truncated on the next append).
            wh.wal = Wal::open(wal_bytes.to_vec())?;
        }
        wh.recovery_warnings = warnings;
        Ok(wh)
    }
}

/// A quarantined summary: isolated behind an LSN watermark while the
/// rest of the warehouse keeps committing. What it misses is in the
/// change log, from `log_offset` on. See [`WarehouseBuilder::quarantine`]
/// and [`Warehouse::repair`].
#[derive(Debug)]
pub struct QuarantineEntry {
    /// The first batch LSN this summary failed to commit — the watermark
    /// it is isolated behind.
    since_lsn: u64,
    /// Why the summary was quarantined.
    cause: String,
    /// The change log's valid length when the summary was isolated, just
    /// before the failing batch's frames. Repair replays from here.
    log_offset: usize,
    /// Frames relevant to this summary appended since `log_offset`, and
    /// the changes in them.
    pending_groups: usize,
    pending_changes: usize,
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

    /// Logged change groups awaiting replay.
    pub fn pending_groups(&self) -> usize {
        self.pending_groups
    }

    /// Logged individual changes awaiting replay.
    pub fn pending_changes(&self) -> usize {
        self.pending_changes
    }
}

/// What one [`Warehouse::repair`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The repaired summary.
    pub summary: String,
    /// Summary rows after the reconstruction rebuild.
    pub rebuilt_rows: u64,
    /// Logged change groups replayed into the rebuilt engine (groups it
    /// had already committed are skipped and not counted).
    pub replayed_groups: usize,
    /// Logged groups that no longer applied and went to the dead-letter
    /// store instead.
    pub dead_lettered: usize,
    /// Wall-clock nanoseconds the repair took.
    pub elapsed_nanos: u64,
}

/// A data warehouse maintaining one or more GPSJ summary views over
/// minimal detail data.
pub struct Warehouse {
    catalog: Catalog,
    engines: BTreeMap<String, MaintenanceEngine>,
    /// Highest batch sequence number committed per source table. Batch
    /// `n+1` of a table gets LSN `table_seq[t] + 1`.
    table_seq: BTreeMap<TableId, u64>,
    /// The durable change log: the one record of what committed.
    /// Recovery and quarantine repair both replay it.
    wal: Wal,
    /// Rejected change groups, in rejection order.
    dead_letters: DeadLetterStore,
    /// Quarantined summaries, by name. Not serialized into
    /// [`Warehouse::save`] images: what they miss is durable in the
    /// change log, and recovery's idempotent replay brings a lagging
    /// engine back to the current LSN.
    quarantine: BTreeMap<String, QuarantineEntry>,
    /// Human-readable anomalies [`WarehouseBuilder::recover`] noticed
    /// (missing snapshot, missing log); empty for a built/restored
    /// warehouse.
    recovery_warnings: Vec<String>,
    /// Scheduler metric handles (backing [`SchedulerStats`]).
    sched: SchedCounters,
    /// The shared observability handle (registry + tracer).
    obs: Obs,
    /// Immutable construction-time configuration.
    config: WarehouseBuilder,
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

    /// The configured worker count of the scheduler.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The change log's current byte image (always `Some`: the log cannot
    /// be turned off). This is what a deployment persists after each
    /// batch (together with periodic [`Warehouse::save`] snapshots) and
    /// hands to [`Warehouse::recover`] after a crash.
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

    /// Refreshes the relation-layer gauges from the source database:
    /// `relation.chunk_count` (chunks the live rows occupy at
    /// [`md_relation::DEFAULT_CHUNK_ROWS`] capacity, at least one per
    /// table) and `relation.chunk_fill` (live slots as a percentage of
    /// physical slots — tombstones awaiting compaction lower it).
    ///
    /// The warehouse does not own the sources (the paper's premise is
    /// that it cannot re-read them), so the caller passes the database it
    /// mirrors changes from; the REPL does this on every `\metrics`.
    pub fn observe_relation(&self, db: &Database) {
        let mut chunks = 0usize;
        let mut live = 0usize;
        let mut slots = 0usize;
        for id in db.catalog().table_ids() {
            let t = db.table(id);
            chunks += t.len().div_ceil(md_relation::DEFAULT_CHUNK_ROWS).max(1);
            live += t.len();
            slots += t.slots();
        }
        self.sched.chunk_count.set(chunks as i64);
        let fill = (live * 100).checked_div(slots).unwrap_or(100) as i64;
        self.sched.chunk_fill.set(fill);
    }

    /// Writes the current values of the scrape-time gauges.
    fn refresh_gauges(&self) {
        self.sched
            .deadletter_depth
            .set(self.dead_letters.len() as i64);
        self.sched
            .quarantine_active
            .set(self.quarantine.len() as i64);
        let aux_rows: i64 = self
            .engines
            .values()
            .flat_map(|e| e.aux_stores())
            .map(|s| s.len() as i64)
            .sum();
        self.sched.aux_rows.set(aux_rows);
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
    /// views (Algorithm 3.2), materializes them and the view from `db`
    /// (the one-time initial load), and returns the view name.
    pub fn add_summary_sql(&mut self, sql: &str, db: &Database) -> Result<String> {
        if self.config.strict {
            let report = md_check::check_file_obs("<sql>", sql, &self.catalog, &self.obs);
            if report.has_errors() {
                return Err(WarehouseError::Check(Box::new(report)));
            }
        }
        let view = parse_view(sql, &self.catalog, "unnamed_summary")?;
        let name = view.name.clone();
        self.register(view, db)?;
        Ok(name)
    }

    /// Registers an already-constructed view definition.
    pub fn add_summary(&mut self, view: GpsjView, db: &Database) -> Result<()> {
        if self.config.strict {
            let report = md_check::check_view(&view, &self.catalog);
            if report.has_errors() {
                return Err(WarehouseError::Check(Box::new(report)));
            }
        }
        self.register(view, db)
    }

    /// Shared registration path; strict-mode checks have already run.
    fn register(&mut self, view: GpsjView, db: &Database) -> Result<()> {
        if self.engines.contains_key(&view.name) {
            return Err(WarehouseError::DuplicateSummary(view.name));
        }
        let plan = derive(&view, &self.catalog)?;
        let mut engine = MaintenanceEngine::new(plan, &self.catalog)?;
        engine.set_fault_plan(self.config.faults.clone());
        engine.set_obs(self.obs.clone());
        engine.initial_load(db)?;
        // The initial load already reflects every committed batch, so
        // align the new engine with the warehouse's sequence numbers —
        // recovery must not replay those batches into it.
        for table in &view.tables {
            engine.set_applied_lsn(*table, self.table_seq(*table));
        }
        self.engines.insert(view.name.clone(), engine);
        Ok(())
    }

    /// Removes a summary view and its detail data.
    pub fn drop_summary(&mut self, name: &str) -> Result<()> {
        self.engines
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| WarehouseError::UnknownSummary(name.to_owned()))
    }

    /// Applies one multi-table [`ChangeBatch`] to every summary — with no
    /// source access. This is the single ingestion entry point.
    ///
    /// The scheduler first coalesces each per-table group to its net
    /// effect (unless disabled via [`WarehouseBuilder::coalesce`]), then
    /// fans the prepared work out across the summary engines — on scoped
    /// worker threads when built with [`WarehouseBuilder::workers`] > 1 —
    /// and finally appends the whole batch to the change log and commits
    /// it everywhere, one LSN per table, at a single append/commit point.
    ///
    /// All-or-nothing across the whole warehouse: any failure rolls every
    /// engine back to its pre-batch state, records each of the batch's
    /// groups in the dead-letter store (sorted by `(table, LSN)`, with
    /// the offending change named on the group that caused it), and
    /// returns the first failure in engine-name order — deterministic
    /// regardless of the worker count. The warehouse keeps serving its
    /// last consistent state.
    pub fn apply_batch(&mut self, batch: &ChangeBatch) -> Result<()> {
        let _span = self
            .obs
            .span("warehouse.apply_batch")
            .field("changes", batch.change_count());
        let started = Instant::now();
        let work = if self.config.coalesce {
            let _coalesce = self.obs.span("batch.coalesce");
            batch.coalesced()
        } else {
            batch.clone()
        };
        self.sched
            .coalesce_nanos
            .add(started.elapsed().as_nanos() as u64);
        self.sched
            .changes_submitted
            .add(batch.change_count() as u64);
        self.sched.changes_applied.add(work.change_count() as u64);
        self.sched
            .coalesce_annihilated
            .add(batch.change_count().saturating_sub(work.change_count()) as u64);

        let outcome = self.try_apply_batch(&work);
        self.config
            .executor
            .yield_point(SchedEvent::coord(SchedOp::BatchEnd {
                committed: outcome.is_ok(),
            }));
        match outcome {
            Ok(()) => {
                self.sched.batches_applied.incr();
                // The auto-repair policy: after each applied batch, try
                // to bring every quarantined summary back (rebuild,
                // replay, audit, reinstate). Failures leave the summary
                // quarantined; `repair.failed` counts the attempts.
                if self.config.auto_repair && !self.quarantine.is_empty() {
                    for (_, result) in self.repair_all() {
                        let _ = result;
                    }
                }
                Ok(())
            }
            Err(e) => {
                let letters: Vec<DeadLetter> = work
                    .groups()
                    .iter()
                    .map(|(table, changes)| {
                        DeadLetter::rejected(
                            &self.catalog,
                            *table,
                            self.table_seq(*table) + 1,
                            changes.clone(),
                            &e,
                            e.to_string(),
                        )
                    })
                    .collect();
                self.dead_letters.extend_sorted(letters);
                Err(e.into())
            }
        }
    }

    fn try_apply_batch(&mut self, work: &ChangeBatch) -> std::result::Result<(), MaintainError> {
        self.config.faults.hit("warehouse.apply.begin")?;
        let executor = Arc::clone(&self.config.executor);
        let groups = work.groups();
        let lsns: Vec<(TableId, u64)> = groups
            .iter()
            .map(|(t, _)| (*t, self.table_seq(*t) + 1))
            .collect();
        executor.yield_point(SchedEvent::coord(SchedOp::BatchStart {
            lsns: lsns.clone(),
        }));

        // Phase 1: prepare every affected engine (already-quarantined
        // summaries sit the batch out), partitioned across the
        // configured workers and run through the executor (scoped OS
        // threads in production, md-race's stepper under test). Every
        // engine runs its whole share — even after another engine fails —
        // so the set of discovered failures (and therefore the dead
        // letters and the returned error) does not depend on thread
        // timing. Results come back in engine-name order. A panicking
        // engine is caught at the task boundary and reported like a
        // failed prepare, carrying its payload so the non-isolating
        // configuration can resume the unwind.
        let fanout_started = Instant::now();
        let fanout_span = self.obs.span("scheduler.fanout");
        // One engine's share of the batch: its name, exclusive access to
        // it, and the change groups its view depends on.
        type Assignment<'a> = (
            String,
            &'a mut MaintenanceEngine,
            Vec<(TableId, &'a [Change])>,
        );
        type PrepareOutcome = (
            String,
            std::result::Result<(), MaintainError>,
            Option<Box<dyn std::any::Any + Send>>,
        );
        let outcome: Vec<PrepareOutcome> = {
            let quarantine = &self.quarantine;
            let mut assignments: Vec<Assignment<'_>> = self
                .engines
                .iter_mut()
                .filter_map(|(name, engine)| {
                    if quarantine.contains_key(name) {
                        return None;
                    }
                    let eng_groups: Vec<(TableId, &[Change])> = groups
                        .iter()
                        .filter(|(t, _)| engine.plan().view.tables.contains(t))
                        .map(|(t, c)| (*t, c.as_slice()))
                        .collect();
                    if eng_groups.is_empty() {
                        None
                    } else {
                        Some((name.clone(), engine, eng_groups))
                    }
                })
                .collect();
            if assignments.is_empty() {
                Vec::new()
            } else {
                let workers = self.config.workers.min(assignments.len()).max(1);
                let per_worker = assignments.len().div_ceil(workers);
                // Each task writes its chunk's results into its own slice
                // of `results`, so completion order never reorders them.
                let mut results: Vec<Option<PrepareOutcome>> =
                    assignments.iter().map(|_| None).collect();
                let exec: &dyn Executor = executor.as_ref();
                let tasks: Vec<Task<'_>> = assignments
                    .chunks_mut(per_worker)
                    .zip(results.chunks_mut(per_worker))
                    .enumerate()
                    .map(|(task, (chunk, slots))| {
                        Box::new(move || {
                            for ((name, engine, eng_groups), slot) in
                                chunk.iter_mut().zip(slots.iter_mut())
                            {
                                exec.yield_point(SchedEvent {
                                    task,
                                    op: SchedOp::Prepare {
                                        engine: name.clone(),
                                    },
                                });
                                let caught =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        engine.prepare_batch(eng_groups)
                                    }));
                                let (result, payload) = match caught {
                                    Ok(r) => (r, None),
                                    Err(p) => (
                                        Err(MaintainError::InvariantViolation(format!(
                                            "prepare panicked: {}",
                                            panic_message(p.as_ref())
                                        ))),
                                        Some(p),
                                    ),
                                };
                                exec.yield_point(SchedEvent {
                                    task,
                                    op: SchedOp::PrepareDone {
                                        engine: name.clone(),
                                        ok: result.is_ok(),
                                    },
                                });
                                *slot = Some((name.clone(), result, payload));
                            }
                        }) as Task<'_>
                    })
                    .collect();
                exec.run_tasks(tasks);
                results
                    .into_iter()
                    .map(|slot| slot.expect("executor ran every task to completion"))
                    .collect()
            }
        };
        drop(fanout_span.field("engines", outcome.len()));
        self.sched
            .fanout_nanos
            .add(fanout_started.elapsed().as_nanos() as u64);

        let mut prepared: Vec<String> = Vec::with_capacity(outcome.len());
        let mut failures: Vec<(String, MaintainError)> = Vec::new();
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for (name, result, payload) in outcome {
            match result {
                Ok(()) => prepared.push(name),
                Err(e) => {
                    if first_panic.is_none() {
                        first_panic = payload;
                    }
                    failures.push((name, e));
                }
            }
        }
        if !failures.is_empty() {
            if !self.config.quarantine {
                // All-or-nothing: a panic propagates as before isolation
                // existed; an error rejects the whole batch. Failed
                // engines already rolled themselves back.
                if let Some(p) = first_panic {
                    std::panic::resume_unwind(p);
                }
                self.rollback_prepared(&prepared, executor.as_ref());
                return Err(failures.remove(0).1);
            }
            // Fault-domain isolation: quarantine each failed summary
            // behind this batch's watermark and carry on with the
            // healthy subset.
            for (name, cause) in failures {
                self.enter_quarantine(&name, &cause, &lsns, executor.as_ref());
            }
        }

        self.wal_phase(groups, &lsns, &prepared, executor.as_ref())?;
        self.commit_phase(&prepared, &lsns, executor.as_ref())
    }

    /// Logs the whole batch durably — one frame per table, all at this
    /// single append point — before it is committed anywhere.
    fn wal_phase(
        &mut self,
        groups: &[(TableId, Vec<Change>)],
        lsns: &[(TableId, u64)],
        prepared: &[String],
        exec: &dyn Executor,
    ) -> std::result::Result<(), MaintainError> {
        // Injection point: a crash mid-append leaves a torn frame
        // that recovery must treat as absent.
        if let Err(e) = self.config.faults.hit("warehouse.wal.torn") {
            if let (Some((table, changes)), Some((_, lsn))) = (groups.first(), lsns.first()) {
                self.wal.append_torn(*table, *lsn, changes);
            }
            self.rollback_prepared(prepared, exec);
            return Err(e);
        }
        // Injection point: I/O failures at the append point. Transient,
        // retryable kinds get bounded-backoff retries — a torn-write
        // fault additionally leaves a torn frame behind, which the
        // retried append truncates (heal-on-retry). Crash kinds and
        // disk-full escalate: roll back and dead-letter the batch.
        let mut attempts = 0u32;
        loop {
            match self.config.faults.hit("warehouse.wal.append") {
                Ok(()) => break,
                Err(e) => {
                    attempts += 1;
                    if let MaintainError::Io {
                        kind: IoFaultKind::Torn,
                        ..
                    } = &e
                    {
                        if let (Some((table, changes)), Some((_, lsn))) =
                            (groups.first(), lsns.first())
                        {
                            self.wal.append_torn(*table, *lsn, changes);
                        }
                    }
                    if self.config.retry.should_retry(&e, attempts) {
                        self.sched.wal_retries.incr();
                        let pause = self.config.retry.backoff(attempts);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        continue;
                    }
                    self.rollback_prepared(prepared, exec);
                    return Err(e);
                }
            }
        }
        let wal_started = Instant::now();
        let wal_span = self.obs.span("wal.append");
        let bytes_before = self.wal.bytes().len() as u64;
        for ((table, changes), (_, lsn)) in groups.iter().zip(lsns) {
            exec.yield_point(SchedEvent::coord(SchedOp::WalAppend {
                table: *table,
                lsn: *lsn,
            }));
            self.wal.append(*table, *lsn, changes);
        }
        // The frames a quarantined summary will have to replay.
        for (name, entry) in &mut self.quarantine {
            let Some(engine) = self.engines.get(name) else {
                continue;
            };
            for (table, changes) in groups {
                if engine.plan().view.tables.contains(table) {
                    entry.pending_groups += 1;
                    entry.pending_changes += changes.len();
                }
            }
        }
        let appended = (self.wal.bytes().len() as u64).saturating_sub(bytes_before);
        self.sched.wal_append_bytes.observe(appended);
        drop(wal_span.field("bytes", appended));
        self.sched
            .wal_nanos
            .add(wal_started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Phase 2: commit everywhere and advance the per-table sequence
    /// numbers. Infallible in production (the injection point simulates
    /// a crash between the log append and the in-memory commit —
    /// recovery replays the logged batch).
    fn commit_phase(
        &mut self,
        prepared: &[String],
        lsns: &[(TableId, u64)],
        exec: &dyn Executor,
    ) -> std::result::Result<(), MaintainError> {
        if let Err(e) = self.config.faults.hit("warehouse.apply.commit") {
            self.rollback_prepared(prepared, exec);
            // The LSNs are burnt: the log already holds this batch.
            for (table, lsn) in lsns {
                self.table_seq.insert(*table, *lsn);
            }
            return Err(e);
        }
        let commit_started = Instant::now();
        let commit_span = self
            .obs
            .span("warehouse.commit")
            .field("engines", prepared.len());
        for name in prepared {
            exec.yield_point(SchedEvent::coord(SchedOp::Commit {
                engine: name.clone(),
            }));
            let engine = self.engines.get_mut(name).expect("listed above");
            let eng_lsns: Vec<(TableId, u64)> = lsns
                .iter()
                .filter(|(t, _)| engine.plan().view.tables.contains(t))
                .copied()
                .collect();
            engine.commit_batch(&eng_lsns);
        }
        for (table, lsn) in lsns {
            self.table_seq.insert(*table, *lsn);
        }
        drop(commit_span);
        self.sched
            .commit_nanos
            .add(commit_started.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn rollback_prepared(&mut self, names: &[String], exec: &dyn Executor) {
        for name in names {
            if let Some(engine) = self.engines.get_mut(name) {
                exec.yield_point(SchedEvent::coord(SchedOp::Rollback {
                    engine: name.clone(),
                }));
                engine.rollback_prepared();
            }
        }
    }

    /// Isolates one failed summary behind the current batch's LSN
    /// watermark: rolls its engine back to the last consistent state and
    /// records the cause and where the log stands — the batch's frames,
    /// not yet appended, are the first it will replay. The rest of the
    /// warehouse continues committing.
    fn enter_quarantine(
        &mut self,
        name: &str,
        cause: &MaintainError,
        lsns: &[(TableId, u64)],
        exec: &dyn Executor,
    ) {
        let Some(engine) = self.engines.get_mut(name) else {
            return;
        };
        exec.yield_point(SchedEvent::coord(SchedOp::Rollback {
            engine: name.to_owned(),
        }));
        // After an error the engine already rolled back; after a caught
        // panic this restores the pre-batch state from the undo log.
        engine.rollback_prepared();
        let since_lsn = lsns
            .iter()
            .filter(|(t, _)| engine.plan().view.tables.contains(t))
            .map(|(_, lsn)| *lsn)
            .min()
            .unwrap_or(0);
        self.sched.quarantine_entered.incr();
        self.quarantine.insert(
            name.to_owned(),
            QuarantineEntry {
                since_lsn,
                cause: cause.to_string(),
                log_offset: self.wal.valid_len(),
                pending_groups: 0,
                pending_changes: 0,
            },
        );
    }

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
    /// auxiliary views alone, replay the change log written since the
    /// quarantine up to the current LSN (groups that no longer apply are
    /// dead-lettered, exactly like recovery — it is the same routine),
    /// run the source-free audit as the reinstatement gate,
    /// and lift the quarantine. On failure the summary stays quarantined
    /// with an updated cause.
    pub fn repair(&mut self, name: &str) -> Result<RepairReport> {
        if !self.engines.contains_key(name) {
            return Err(WarehouseError::UnknownSummary(name.to_owned()));
        }
        let Some(entry) = self.quarantine.remove(name) else {
            return Err(WarehouseError::NotQuarantined(name.to_owned()));
        };
        let started = Instant::now();
        let span = self
            .obs
            .span("warehouse.repair")
            .field("summary", name)
            .field("pending", entry.pending_groups);
        let engine = self.engines.get_mut(name).expect("checked above");
        let rebuilt_rows = match engine.rebuild_summary() {
            Ok(rows) => rows,
            Err(e) => {
                let detail = format!("rebuild from auxiliary views failed: {e}");
                self.sched.repair_failed.incr();
                self.quarantine.insert(
                    name.to_owned(),
                    QuarantineEntry {
                        cause: detail.clone(),
                        ..entry
                    },
                );
                drop(span.field("outcome", "rebuild-failed"));
                return Err(WarehouseError::RepairFailed {
                    summary: name.to_owned(),
                    detail,
                });
            }
        };
        let (replayed, letters) = self.replay(self.wal.records_from(entry.log_offset), Some(name));
        // Reinstatement gate: the source-free oracle (reconstruction
        // from X plus index cross-checks) must be clean.
        let audit = self.engines[name].audit();
        if !audit.is_clean() {
            let detail = format!("post-repair audit failed: {audit:?}");
            self.sched.repair_failed.incr();
            self.quarantine.insert(
                name.to_owned(),
                QuarantineEntry {
                    cause: detail.clone(),
                    ..entry
                },
            );
            drop(span.field("outcome", "audit-failed"));
            return Err(WarehouseError::RepairFailed {
                summary: name.to_owned(),
                detail,
            });
        }
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

    /// The one replay routine, shared by crash recovery (`only` = `None`:
    /// every engine) and quarantine repair (`only` = the repaired
    /// summary): feeds logged records, in log order, through the
    /// idempotent [`MaintenanceEngine::apply_at`], which skips what an
    /// engine already committed. Returns how many (record, engine)
    /// applications took effect, and one dead letter per record that no
    /// longer applies — the failed engine rolled itself back and the
    /// record's remaining engines are not attempted.
    fn replay(&mut self, records: Vec<WalRecord>, only: Option<&str>) -> (usize, Vec<DeadLetter>) {
        let mut applied = 0usize;
        let mut letters: Vec<DeadLetter> = Vec::new();
        for rec in records {
            let seq = self.table_seq.entry(rec.table).or_insert(0);
            *seq = (*seq).max(rec.lsn);
            let mut failure: Option<(&str, MaintainError)> = None;
            for (name, engine) in &mut self.engines {
                if only.is_some_and(|o| o != name)
                    || !engine.plan().view.tables.contains(&rec.table)
                {
                    continue;
                }
                match engine.apply_at(rec.table, &rec.changes, rec.lsn) {
                    Ok(took_effect) => applied += usize::from(took_effect),
                    Err(e) => {
                        failure = Some((name, e));
                        break;
                    }
                }
            }
            if let Some((name, e)) = failure {
                let reason = format!(
                    "replay of logged batch lsn {} into summary '{name}' failed: {e}",
                    rec.lsn
                );
                letters.push(DeadLetter::rejected(
                    &self.catalog,
                    rec.table,
                    rec.lsn,
                    rec.changes,
                    &e,
                    reason,
                ));
            }
        }
        (applied, letters)
    }

    /// Warnings the recovery path noticed (missing snapshot or change
    /// log); empty for a warehouse that was built or restored normally.
    pub fn recovery_warnings(&self) -> &[String] {
        &self.recovery_warnings
    }

    /// Source-free integrity audit of every summary: recomputes each `V`
    /// from its auxiliary views and cross-checks the maintenance indexes
    /// (see [`MaintenanceEngine::audit`]). Returns one report per
    /// summary, in name order.
    pub fn audit(&self) -> Vec<(String, AuditReport)> {
        self.engines
            .iter()
            .map(|(name, engine)| (name.clone(), engine.audit()))
            .collect()
    }

    fn engine(&self, name: &str) -> Result<&MaintenanceEngine> {
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

    /// The current contents of a summary, sorted (deterministic output for
    /// reports and tests).
    pub fn summary_rows(&self, name: &str) -> Result<Vec<Row>> {
        let bag = self.summary_bag(name)?;
        Ok(bag.into_sorted_rows().into_iter().map(|(r, _)| r).collect())
    }

    /// Maintenance work counters of a summary (including its per-stage
    /// prepare/commit wall time).
    pub fn stats(&self, name: &str) -> Result<MaintStats> {
        Ok(self.engine(name)?.stats())
    }

    /// Storage accounting for one summary (auxiliary views + the view).
    pub fn storage_report(&self, name: &str) -> Result<Vec<StorageLine>> {
        Ok(self.engine(name)?.storage_report())
    }

    /// Identifies auxiliary views with *identical definitions* across
    /// summaries — detail data the warehouse stores multiple times today
    /// and could share. This is the analysis step toward the paper's
    /// Section 4 direction of deriving minimal detail data for whole
    /// *classes* of summary data rather than one view at a time.
    pub fn shared_detail_report(&self) -> Vec<SharedDetail> {
        use std::collections::HashMap;
        // Definition fingerprint → (store facts, owning summaries).
        let mut groups: HashMap<String, SharedDetail> = HashMap::new();
        for (summary, engine) in &self.engines {
            for store in engine.aux_stores() {
                let def = store.def();
                let fingerprint = format!(
                    "{:?}|{:?}|{:?}|{:?}",
                    def.table, def.columns, def.local_conditions, def.semijoins
                );
                let entry = groups.entry(fingerprint).or_insert_with(|| SharedDetail {
                    aux_name: def.name.clone(),
                    table: self
                        .catalog
                        .def(def.table)
                        .map(|d| d.name.clone())
                        .unwrap_or_default(),
                    summaries: Vec::new(),
                    rows: store.len() as u64,
                    bytes_each: store.paper_bytes(),
                });
                entry.summaries.push(summary.clone());
            }
        }
        let mut out: Vec<SharedDetail> = groups
            .into_values()
            .filter(|g| g.summaries.len() > 1)
            .collect();
        out.sort_by(|a, b| a.aux_name.cmp(&b.aux_name));
        out
    }

    /// Total detail-data bytes (paper model) across all summaries.
    pub fn total_detail_bytes(&self) -> u64 {
        self.engines
            .values()
            .flat_map(|e| e.aux_stores())
            .map(|s| s.paper_bytes())
            .sum()
    }

    /// Oracle check of every summary against a recomputation from `db`
    /// (testing/experiments only).
    pub fn verify_all(&self, db: &Database) -> Result<bool> {
        for engine in self.engines.values() {
            if !engine.verify_against(db)? || !engine.verify_aux_against(db)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serializes the whole warehouse — every summary's view definition
    /// (as SQL) and its engine state — into one versioned binary image.
    /// Together with [`Warehouse::restore`] this lets the warehouse
    /// survive restarts without ever contacting the sources, which is the
    /// paper's operating assumption.
    pub fn save(&self) -> Result<Vec<u8>> {
        // Injection point, retry-wrapped like the WAL append: transient
        // I/O faults get bounded-backoff retries before escalating.
        let (hit, retries) = self
            .config
            .retry
            .run(|_| self.config.faults.hit("warehouse.save"));
        self.sched.save_retries.add(retries as u64);
        hit?;
        let mut e = Encoder::new();
        e.put_str("MDWH2");
        // Per-table batch sequence numbers, so recovery knows where the
        // image stands relative to the change log.
        e.put_u32(self.table_seq.len() as u32);
        for (table, seq) in &self.table_seq {
            e.put_u32(table.0 as u32);
            e.put_u64(*seq);
        }
        e.put_u32(self.engines.len() as u32);
        for (name, engine) in &self.engines {
            e.put_str(name);
            e.put_str(&view_to_sql(&engine.plan().view, &self.catalog)?);
            let image = engine.snapshot()?;
            e.put_u32(image.len() as u32);
            for b in image {
                e.put_u8(b);
            }
        }
        Ok(e.into_bytes())
    }

    /// Rebuilds a warehouse from a [`Warehouse::save`] image over the same
    /// catalog, with the default configuration. Use
    /// [`WarehouseBuilder::restore`] to restore under explicit options.
    pub fn restore(catalog: &Catalog, bytes: &[u8]) -> Result<Self> {
        Warehouse::builder().restore(catalog, bytes)
    }

    /// Crash recovery with the default configuration: restores the latest
    /// [`Warehouse::save`] image and replays the change-log suffix it has
    /// not seen. Use [`WarehouseBuilder::recover`] to recover under
    /// explicit options. See [`WarehouseBuilder::recover`] for the
    /// replay semantics.
    pub fn recover(catalog: &Catalog, snapshot: &[u8], wal_bytes: &[u8]) -> Result<Self> {
        Warehouse::builder().recover(catalog, snapshot, wal_bytes)
    }

    /// A human-readable explanation of one summary's derivation: the join
    /// graph (Figure 2 style), per-table outcomes and the auxiliary view
    /// SQL (Section 1.1 style).
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
            match entry {
                md_core::AuxEntry::Omitted { table, reason } => {
                    let tname = self
                        .catalog
                        .def(*table)
                        .map(|d| d.name.clone())
                        .unwrap_or_default();
                    let _ = writeln!(out, "\n-- X_{tname}: OMITTED ({reason})");
                }
                md_core::AuxEntry::Materialized(def) => {
                    if let Some(sql) = md_sql::aux_view_to_sql(plan, def.table, &self.catalog)? {
                        let _ = writeln!(out, "\n{sql}");
                    }
                }
            }
        }
        let _ = writeln!(out);
        for line in engine.storage_report() {
            let _ = writeln!(
                out,
                "{:<24} {:>12} rows {:>14} bytes",
                line.name, line.rows, line.paper_bytes
            );
        }
        Ok(out)
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
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
    fn relation_gauges_render_in_metrics() {
        let (db, _schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let wh = Warehouse::builder()
            .observe(ObsConfig::metrics())
            .build(db.catalog());
        wh.observe_relation(&db);
        let text = wh.metrics_prometheus();
        // Four base tables, each under one chunk's capacity → one chunk
        // apiece; no deletions yet → 100% fill.
        assert!(text.contains("relation.chunk_count 4"), "{text}");
        assert!(text.contains("relation.chunk_fill 100"), "{text}");
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
    fn builder_options_are_fixed_at_construction() {
        let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let wh = Warehouse::builder().workers(4).build(db.catalog());
        assert_eq!(wh.workers(), 4);
        // Worker counts clamp to at least one.
        assert_eq!(
            Warehouse::builder()
                .workers(0)
                .build(db.catalog())
                .workers(),
            1
        );
    }

    #[test]
    fn strict_mode_rejects_error_level_definitions() {
        let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::builder().strict().build(db.catalog());
        // Unknown column: strict mode surfaces the full check report.
        let err = wh
            .add_summary_sql(
                "SELECT sale.nope, COUNT(*) AS n FROM sale GROUP BY sale.nope",
                &db,
            )
            .unwrap_err();
        match err {
            WarehouseError::Check(report) => {
                assert!(report.has_errors());
                assert!(report.render().contains("MD012"));
            }
            other => panic!("expected Check error, got {other}"),
        }
        assert_eq!(wh.summaries().count(), 0);
        // A clean definition registers normally under strict mode.
        wh.add_summary_sql(md_workload::views::PRODUCT_SALES_SQL, &db)
            .unwrap();
        assert_eq!(wh.summaries().count(), 1);
        // Non-strict warehouses keep the lighter SQL error path.
        let mut lax = Warehouse::new(db.catalog());
        assert!(matches!(
            lax.add_summary_sql(
                "SELECT sale.nope, COUNT(*) AS n FROM sale GROUP BY sale.nope",
                &db
            ),
            Err(WarehouseError::Sql(_))
        ));
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
        assert_eq!(sched.batches_applied, 1);
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
        let shared = wh.shared_detail_report();
        let product_group = shared.iter().find(|g| g.table == "product").unwrap();
        assert_eq!(product_group.summaries.len(), 2);
        assert!(product_group.dedup_savings() > 0);
        // The two saleDTLs differ (different group columns) — not shared.
        assert!(!shared.iter().any(|g| g.table == "sale"));
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
