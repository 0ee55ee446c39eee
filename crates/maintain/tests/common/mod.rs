//! One summary held alone: a [`SummaryEngine`] over a [`StoreRegistry`] of
//! its own — the pair a warehouse runs for each of its summaries — for the
//! tests of one engine's image, journal or allocations. Every batch goes
//! through the handle the warehouse closes its batches with,
//! [`PreparedBatch`], and commits at its table's next LSN.
//!
//! `crates/maintain/tests` declares this as `mod common;`; the workspace
//! tests under `tests/` include it by path.

#![allow(dead_code)]

use std::collections::HashSet;

use md_core::DerivedPlan;
use md_maintain::{AuditReport, AuxStore, PreparedBatch, Result, StoreRegistry, SummaryEngine};
use md_relation::{Catalog, Change, Database, TableId};

/// One summary engine and the registry that holds its stores.
pub struct Solo {
    pub stores: StoreRegistry,
    pub engine: SummaryEngine,
}

impl Solo {
    /// An empty summary of `plan` over empty stores.
    pub fn new(plan: DerivedPlan, catalog: &Catalog) -> Result<Self> {
        let mut stores = StoreRegistry::new(catalog);
        let engine = SummaryEngine::new(plan, catalog, &mut stores)?;
        Ok(Solo { stores, engine })
    }

    /// Loads the stores, then the summary, from `db`.
    pub fn initial_load(&mut self, db: &Database) -> Result<()> {
        self.stores.load(db, |_| 0)?;
        self.engine.initial_load(&self.stores, db)
    }

    /// The summary of `plan` loaded from `db`.
    pub fn loaded(plan: DerivedPlan, db: &Database) -> Self {
        let mut solo = Solo::new(plan, db.catalog()).unwrap();
        solo.initial_load(db).unwrap();
        solo
    }

    /// The image [`SummaryEngine::snapshot`] writes of this summary alone.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        self.engine.snapshot(&self.stores, &mut HashSet::new())
    }

    /// The summary [`SummaryEngine::restore`] rebuilds from `bytes` over a
    /// fresh registry.
    pub fn restore(plan: DerivedPlan, catalog: &Catalog, bytes: &[u8]) -> Result<Self> {
        let mut stores = StoreRegistry::new(catalog);
        let engine = SummaryEngine::restore(plan, catalog, bytes, &mut stores)?;
        Ok(Solo { stores, engine })
    }

    /// Opens `groups` as one batch over every store and the summary, all
    /// or nothing: on `Err` nothing of it remains.
    pub fn prepare(&mut self, groups: &[(TableId, &[Change])]) -> Result<PreparedBatch<'_, '_>> {
        let engines = [&mut self.engine];
        (self.stores.prepare_batch(groups, |_| u64::MAX, engines)?).all_or_nothing()
    }

    /// Applies `changes` to `table` as the table's next batch, all or
    /// nothing.
    pub fn apply(&mut self, table: TableId, changes: &[Change]) -> Result<()> {
        let lsn = self.engine.applied_lsn(table) + 1;
        self.prepare(&[(table, changes)])?.commit(&[(table, lsn)]);
        Ok(())
    }

    /// The summary's auxiliary stores, in table order.
    pub fn aux_stores(&self) -> impl Iterator<Item = &AuxStore> {
        self.engine.aux_stores(&self.stores)
    }

    /// The auxiliary store of `table`, if materialized.
    pub fn aux_store(&self, table: TableId) -> Option<&AuxStore> {
        Some(self.stores.store(self.engine.store_of(table)?))
    }

    /// Whether each auxiliary store equals its definition evaluated from
    /// `db`.
    pub fn verify_aux_against(&self, db: &Database) -> Result<bool> {
        self.engine.verify_aux_against(&self.stores, db)
    }

    /// The source-free audit of the summary against its stores.
    pub fn audit(&self) -> AuditReport {
        self.engine.audit(&self.stores)
    }

    /// Rebuilds the summary from its stores; returns its row count.
    pub fn rebuild_summary(&mut self) -> Result<u64> {
        self.engine.rebuild_summary(&self.stores)
    }
}
