//! [`WarehouseBuilder`]: construction-time configuration, and building or
//! restoring a [`Warehouse`] under it.

use std::collections::BTreeMap;
use std::sync::Arc;

use md_core::derive;
use md_maintain::{
    Executor, FaultPlan, MaintainError, RetryPolicy, SharedCopies, StoreRegistry, SummaryEngine,
    ThreadExecutor, Wal,
};
use md_obs::{Obs, ObsConfig};
use md_relation::{Catalog, Decoder, TableId};
use md_sql::parse_view;

use crate::error::{Result, WarehouseError};
use crate::warehouse::{DeadLetterStore, SchedCounters, Warehouse};

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
    pub(crate) faults: FaultPlan,
    pub(crate) workers: usize,
    pub(crate) coalesce: bool,
    pub(crate) obs: ObsConfig,
    pub(crate) executor: Arc<dyn Executor>,
    pub(crate) quarantine: bool,
    pub(crate) auto_repair: bool,
    pub(crate) retry: RetryPolicy,
    pub(crate) dead_letter_capacity: usize,
}

impl Default for WarehouseBuilder {
    fn default() -> Self {
        WarehouseBuilder {
            faults: FaultPlan::default(),
            workers: 1,
            coalesce: true,
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
    /// LSN watermark ([`crate::warehouse::QuarantineEntry`]), commits the
    /// healthy rest of the batch, and keeps accepting batches: the change
    /// log keeps what a quarantined summary misses until
    /// [`Warehouse::repair`] rebuilds it from its auxiliary views and
    /// replays the log written since. Off by default, where any engine
    /// failure rejects the whole batch (all-or-nothing).
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
        self.build_observed(catalog, obs)
    }

    /// [`Self::build`] under a handle the caller made, so that recovery's
    /// spans start before there is a warehouse.
    pub(crate) fn build_observed(self, catalog: &Catalog, obs: Obs) -> Warehouse {
        let sched = SchedCounters::new(&obs);
        let dead_letters = DeadLetterStore::bounded(
            self.dead_letter_capacity,
            obs.counter("deadletter.dropped", &[]),
        );
        let mut stores = StoreRegistry::new(catalog);
        stores.set_obs(obs.clone());
        Warehouse {
            catalog: catalog.clone(),
            stores,
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
    /// catalog or contract drift since the snapshot was taken. A store
    /// several summaries read is filled from the first of their sections
    /// and shared by the rest, whose copies must equal it byte for byte
    /// ([`MaintainError::DivergentCopies`] otherwise).
    pub fn restore(self, catalog: &Catalog, bytes: &[u8]) -> Result<Warehouse> {
        let obs = Obs::new(self.obs);
        self.restore_observed(catalog, bytes, obs)
    }

    /// [`Self::restore`] under a handle the caller made.
    pub(crate) fn restore_observed(
        self,
        catalog: &Catalog,
        bytes: &[u8],
        obs: Obs,
    ) -> Result<Warehouse> {
        let mut d = Decoder::new(bytes);
        let header = d.take_str().map_err(WarehouseError::from)?;
        if header != "MDWH2" {
            return Err(WarehouseError::Maintain(MaintainError::InvariantViolation(
                format!("not a readable warehouse image (header '{header}', expected 'MDWH2')"),
            )));
        }
        let mut wh = self.build_observed(catalog, obs);
        let mut copies = SharedCopies::default();
        // Both lists come in strictly increasing key order, as `save`
        // writes them: a repeated key would silently replace its entry.
        let out_of_order = |what: String| {
            WarehouseError::Maintain(MaintainError::InvariantViolation(format!(
                "corrupt warehouse image: {what} out of order or repeated"
            )))
        };
        let n_seq = d.take_u32().map_err(WarehouseError::from)?;
        for _ in 0..n_seq {
            let table = TableId(d.take_u32().map_err(WarehouseError::from)? as usize);
            let seq = d.take_u64().map_err(WarehouseError::from)?;
            if wh
                .table_seq
                .last_key_value()
                .is_some_and(|(last, _)| *last >= table)
            {
                return Err(out_of_order(format!("sequence number of {table}")));
            }
            wh.table_seq.insert(table, seq);
        }
        let n = d.take_u32().map_err(WarehouseError::from)?;
        for _ in 0..n {
            let name = d.take_str().map_err(WarehouseError::from)?;
            if wh
                .engines
                .last_key_value()
                .is_some_and(|(last, _)| *last >= name)
            {
                return Err(out_of_order(format!("summary '{name}'")));
            }
            let sql = d.take_str().map_err(WarehouseError::from)?;
            let image = d.take_bytes().map_err(WarehouseError::from)?;
            let view = parse_view(&sql, catalog, &name)?;
            let plan = derive(&view, catalog)?;
            let mut engine =
                SummaryEngine::restore(plan, catalog, image, &mut wh.stores, &mut copies)?;
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
}
