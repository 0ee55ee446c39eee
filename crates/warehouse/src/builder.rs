//! [`WarehouseBuilder`]: construction-time configuration, and building or
//! restoring a [`Warehouse`] under it.

use std::collections::BTreeMap;

use md_core::derive;
use md_maintain::{FaultPlan, MaintainError, StoreRegistry, SummaryEngine, Wal};
use md_obs::{Obs, ObsConfig};
use md_relation::{Catalog, Decoder, TableId};
use md_sql::{parse_view, view_to_sql};

use crate::error::{Result, WarehouseError};
use crate::warehouse::{DeadLetterStore, SchedCounters, Warehouse, WAREHOUSE_HEADER};

/// Construction-time configuration of a [`Warehouse`]. Every knob that
/// used to be a post-hoc `set_*` mutator lives here, so configuration is
/// immutable once built and the scheduler can rely on it.
///
/// ```
/// use md_relation::Catalog;
/// use md_warehouse::Warehouse;
///
/// let cat = Catalog::new();
/// let wh = Warehouse::builder().quarantine(true).build(&cat);
/// assert_eq!(wh.summaries().count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WarehouseBuilder {
    pub(crate) faults: FaultPlan,
    pub(crate) obs: ObsConfig,
    pub(crate) quarantine: bool,
}

impl Default for WarehouseBuilder {
    fn default() -> Self {
        WarehouseBuilder {
            faults: FaultPlan::default(),
            obs: ObsConfig::off(),
            quarantine: false,
        }
    }
}

impl WarehouseBuilder {
    /// Installs a fault-injection plan, shared with every engine the
    /// warehouse registers. Testing only. The plan's interior is shared
    /// across clones, so a test may keep a handle and arm points after
    /// the warehouse is built.
    pub fn fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Does nothing: every batch is prepared on the calling thread. It
    /// ignores its argument, sets nothing, and stays only for callers
    /// written when batches could be spread over worker threads.
    #[doc(hidden)]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Enables per-summary quarantine (fault-domain isolation). When a
    /// summary's prepare fails — an engine error, an injected fault, or
    /// a panic — the scheduler isolates *that summary* behind an
    /// LSN watermark ([`QuarantineEntry`](crate::QuarantineEntry)), commits the
    /// healthy rest of the batch, and keeps accepting batches: the change
    /// log keeps what a quarantined summary misses until
    /// [`Warehouse::repair`] rebuilds it from its auxiliary views and
    /// replays the log written since. Off by default, where any engine
    /// failure rejects the whole batch (all-or-nothing).
    pub fn quarantine(mut self, enabled: bool) -> Self {
        self.quarantine = enabled;
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
        let mut stores = StoreRegistry::new(catalog);
        stores.set_obs(obs.clone());
        Warehouse {
            catalog: catalog.clone(),
            stores,
            engines: BTreeMap::new(),
            table_seq: BTreeMap::new(),
            wal: Wal::new(),
            dead_letters: DeadLetterStore::default(),
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
    /// several summaries read is filled from the section of the first of
    /// them in name order and shared by the rest. An image a different
    /// build wrote (header `MDWH2`: engine images of version 4 or older)
    /// is refused, naming both versions.
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
        if header != WAREHOUSE_HEADER {
            return Err(WarehouseError::Maintain(MaintainError::InvariantViolation(
                format!(
                    "not a readable warehouse image (header '{header}', expected \
                     '{WAREHOUSE_HEADER}')"
                ),
            )));
        }
        let mut wh = self.build_observed(catalog, obs);
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
            // The image spells each view as `save` prints it: any other
            // spelling of it would restore to a warehouse that saves other
            // bytes.
            if plan.view.name != name || view_to_sql(&plan.view, catalog)? != sql {
                return Err(WarehouseError::Maintain(MaintainError::InvariantViolation(
                    format!("corrupt warehouse image: summary '{name}' is not spelled as saved"),
                )));
            }
            let mut engine = SummaryEngine::restore(plan, catalog, image, &mut wh.stores)?;
            // A summary that committed a batch the image's sequence numbers
            // never assigned would make its stores skip the next live one.
            let tables = engine.plan().view.tables.iter();
            let mut lsns = tables.map(|&t| (t, engine.applied_lsn(t, &wh.stores)));
            if let Some((table, lsn)) = lsns.find(|&(t, lsn)| lsn > wh.table_seq(t)) {
                return Err(WarehouseError::Maintain(MaintainError::InvariantViolation(
                    format!(
                        "corrupt warehouse image: summary '{name}' committed LSN {lsn} of \
                         {table}, past its sequence number {}",
                        wh.table_seq(table)
                    ),
                )));
            }
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
