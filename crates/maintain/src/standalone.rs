//! One summary engine over a store registry of its own, stepped by hand.
//!
//! This module serves `benchmark/src/layers.rs` and nothing else: the
//! benchmark, which is frozen, drives its layer breakdown through these
//! fourteen calls. Everything else — the warehouse, the shell, every test —
//! runs the pair this wraps, a [`StoreRegistry`] and its
//! [`SummaryEngine`]s, through [`StoreRegistry::prepare_batch`]. The module
//! goes when the benchmark stops calling it (ROADMAP item 1).

use std::collections::HashSet;

use md_core::DerivedPlan;
use md_relation::{Bag, Catalog, Change, Database, TableId};

use crate::engine::{AuditReport, MaintStats, SummaryEngine};
use crate::error::Result;
use crate::registry::StoreRegistry;
use crate::store::AuxStore;
use crate::summary::SummaryStore;

/// A [`SummaryEngine`] over a [`StoreRegistry`] of its own.
pub struct MaintenanceEngine {
    stores: StoreRegistry,
    engine: SummaryEngine,
}

impl MaintenanceEngine {
    /// Creates an empty engine for `plan`.
    pub fn new(plan: DerivedPlan, catalog: &Catalog) -> Result<Self> {
        let mut stores = StoreRegistry::new(catalog);
        let engine = SummaryEngine::new(plan, catalog, &mut stores)?;
        Ok(MaintenanceEngine { stores, engine })
    }

    /// The derived plan this engine maintains.
    pub fn plan(&self) -> &DerivedPlan {
        self.engine.plan()
    }

    /// The maintained summary view.
    pub fn summary(&self) -> &SummaryStore {
        self.engine.summary()
    }

    /// The maintained summary contents as output rows.
    pub fn summary_bag(&self) -> Result<Bag> {
        self.engine.summary_bag()
    }

    /// All auxiliary stores, in table order.
    pub fn aux_stores(&self) -> impl Iterator<Item = &AuxStore> {
        self.engine.aux_stores(&self.stores)
    }

    /// Work counters (see [`MaintStats`]).
    pub fn stats(&self) -> MaintStats {
        self.engine.stats()
    }

    /// Loads the auxiliary views and the summary from the sources.
    pub fn initial_load(&mut self, db: &Database) -> Result<()> {
        self.stores.load(db, |_| 0)?;
        self.engine.initial_load(&self.stores, db)
    }

    /// Opens one batch over every per-table group of `groups`, all or
    /// nothing, and leaves it open for [`Self::commit_batch`].
    pub fn prepare_batch(&mut self, groups: &[(TableId, &[Change])]) -> Result<()> {
        let engines = [&mut self.engine];
        let batch = self.stores.prepare_batch(groups, |_| u64::MAX, engines)?;
        batch.all_or_nothing()?.leave_open();
        Ok(())
    }

    /// Keeps the open batch, recording every per-table LSN it covered.
    pub fn commit_batch(&mut self, lsns: &[(TableId, u64)]) {
        self.stores.commit(lsns);
        self.engine.commit_batch(lsns);
    }

    /// Replays `changes` as the batch with sequence number `lsn`, skipping
    /// it (returning `false`) when a batch at or past that LSN of `table`
    /// is committed already.
    pub fn apply_at(&mut self, table: TableId, changes: &[Change], lsn: u64) -> Result<bool> {
        if lsn <= self.engine.applied_lsn(table) {
            return Ok(false);
        }
        self.prepare_batch(&[(table, changes)])?;
        self.commit_batch(&[(table, lsn)]);
        Ok(true)
    }

    /// Rebuilds the summary view from the auxiliary views alone, after
    /// rolling back any open batch. Returns the summary's row count.
    pub fn rebuild_summary(&mut self) -> Result<u64> {
        self.stores.rollback();
        self.engine.rebuild_summary(&self.stores)
    }

    /// Source-free integrity audit (see [`SummaryEngine::audit`]).
    pub fn audit(&self) -> AuditReport {
        self.engine.audit(&self.stores)
    }

    /// The engine's image (see [`SummaryEngine::snapshot`]).
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        self.engine.snapshot(&self.stores, &mut HashSet::new())
    }

    /// An engine restored from `bytes` over a registry of its own (see
    /// [`SummaryEngine::restore`]).
    pub fn restore(plan: DerivedPlan, catalog: &Catalog, bytes: &[u8]) -> Result<Self> {
        let mut stores = StoreRegistry::new(catalog);
        let engine = SummaryEngine::restore(plan, catalog, bytes, &mut stores)?;
        Ok(MaintenanceEngine { stores, engine })
    }
}
