//! The auxiliary view stores, held once per definition.
//!
//! Two summaries whose plans derive the same auxiliary view — the same
//! table, retained columns and local conditions, reduced against the same
//! stores — need the same contents. A [`StoreRegistry`] keys each store by
//! that canonical definition — a typed `StoreKey`, decided in `canon.rs`,
//! that names no view or column — and holds it once, however many
//! summaries read it. Each distinct store is loaded, journaled and folded
//! once per batch; the summaries borrow their stores by [`StoreId`].
//!
//! A store belongs to the warehouse transaction, not to any one summary:
//! it folds every batch of its table — a summary that is quarantined meanwhile
//! catches up by rebuilding from it — and a failure in a store kernel
//! rejects the batch. Each store remembers the LSN of the last batch of its
//! table it committed, so a replayed frame reaches it at most once.
//!
//! A root store and a dimension store of one table are never the same
//! store, even under equal definitions: a root store folds a batch as runs
//! and indexes its foreign keys, a dimension store folds it change by
//! change between its subscribers' retracts and inserts. A run is one
//! signed `ΔX_{R₀}` tuple, summed once by its [`RootBatch`]: its signs and
//! net sums are all the store kernel, and every summary rooted there,
//! read of it — no kernel reads a source row.
//!
//! A store keeps its semijoin targets resident: a shared store may outlive
//! the summary whose plan first named its targets, and it goes on testing
//! membership in them after that summary is dropped.

use std::collections::HashMap;
use std::ops::Range;

use md_algebra::eval_all;
use md_algebra::{Condition, RowEnv};
use md_core::{AuxViewDef, DerivedPlan};
use md_obs::{Counter, Obs};
use md_relation::{
    Catalog, Change, Database, Row, RowKey, SeededHashMap, TableDef, TableId, Value,
};

use crate::canon::{Rows, StoreKey};
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::store::AuxStore;

/// A store's handle in its registry: stable while the store is resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreId(u32);

/// One resident store and what the registry keeps beside it.
#[derive(Debug)]
struct Entry {
    key: StoreKey,
    store: AuxStore,
    /// The store's group columns, apart from the store so that a run can
    /// read them while it folds.
    srcs: Vec<usize>,
    /// The source column each of the store's sums adds: what a root batch
    /// sums its runs by.
    sum_srcs: Vec<Option<usize>>,
    /// Per semijoin: the foreign-key column and the target store.
    partners: Vec<(usize, StoreId)>,
    /// Whether this is a root store (folded as runs, fk-indexed).
    root: bool,
    subscribers: u32,
    /// How many resident stores semijoin against this one. A store goes
    /// only when no summary reads it and no store tests membership in it.
    holders: u32,
    /// The LSN of the last batch of the store's table it committed.
    lsn: u64,
    /// Whether the store holds its contents (a load or a restore filled
    /// it), or waits for them.
    loaded: bool,
    /// `maintain.store_folds` and `maintain.store_runs`, by table.
    folds: Counter,
    runs: Counter,
}

/// Every auxiliary view store of a warehouse, each held once.
#[derive(Debug)]
pub struct StoreRegistry {
    /// The source catalog the stores' tables belong to.
    catalog: Catalog,
    /// By [`StoreId`]; a released store leaves its slot empty, so ids are
    /// never reused and id order is creation order — a store's semijoin
    /// targets always come before it.
    entries: Vec<Option<Entry>>,
    by_key: HashMap<StoreKey, StoreId>,
    /// Whether a batch is open: mutations are journaled.
    open: bool,
    obs: Obs,
}

impl StoreRegistry {
    /// An empty registry over `catalog`'s tables.
    pub fn new(catalog: &Catalog) -> Self {
        StoreRegistry {
            catalog: catalog.clone(),
            entries: Vec::new(),
            by_key: HashMap::new(),
            open: false,
            obs: Obs::noop(),
        }
    }

    /// The source catalog.
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers the store counters (`maintain.store_folds{table}`,
    /// `maintain.store_runs{table}`) and the `maintain.store` spans in
    /// `obs`, carrying their current values.
    pub fn set_obs(&mut self, obs: Obs) {
        for entry in self.entries.iter_mut().flatten() {
            let (folds, runs) = store_counters(&obs, &self.catalog, entry.store.def().table);
            folds.add(entry.folds.get());
            runs.add(entry.runs.get());
            (entry.folds, entry.runs) = (folds, runs);
        }
        self.obs = obs;
    }

    fn entry(&self, id: StoreId) -> &Entry {
        self.entries[id.0 as usize]
            .as_ref()
            .expect("a subscriber's store is resident")
    }

    fn entry_mut(&mut self, id: StoreId) -> &mut Entry {
        self.entries[id.0 as usize]
            .as_mut()
            .expect("a subscriber's store is resident")
    }

    /// The store behind `id`.
    pub fn store(&self, id: StoreId) -> &AuxStore {
        &self.entry(id).store
    }

    /// How many summaries read store `id`.
    pub fn subscribers(&self, id: StoreId) -> u32 {
        self.entry(id).subscribers
    }

    /// The LSN of the last batch of its table store `id` committed.
    pub(crate) fn lsn(&self, id: StoreId) -> u64 {
        self.entry(id).lsn
    }

    /// Every resident store, in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (StoreId, &AuxStore)> {
        let resident = self.entries.iter().enumerate();
        resident.filter_map(|(i, e)| Some((StoreId(i as u32), &e.as_ref()?.store)))
    }

    /// The resident stores whose key index is not what a rebuild would
    /// derive, each walked once: the part of
    /// an audit that belongs to the stores, not to a summary reading them.
    pub fn inexact_key_indexes(&self) -> Vec<StoreId> {
        let inexact = self.iter().filter(|(_, s)| !s.key_index_is_exact());
        inexact.map(|(id, _)| id).collect()
    }

    /// Detail data held, in the paper's bytes: each store once.
    pub fn paper_bytes(&self) -> u64 {
        self.iter().map(|(_, store)| store.paper_bytes()).sum()
    }

    /// Subscribes one summary's plan: each auxiliary view it materializes
    /// is found among the resident stores by its key, or created empty
    /// (to be filled by [`Self::load`] or a restore). Returns the store of
    /// each materialized table, in table order.
    pub(crate) fn subscribe(&mut self, plan: &DerivedPlan) -> Result<Vec<(TableId, StoreId)>> {
        let mut ids: Vec<(TableId, StoreId)> = Vec::new();
        // Children before parents: a semijoin target's key is known
        // before the key that names it.
        for table in load_order(plan) {
            let Some(def) = plan.aux_for(table) else {
                continue;
            };
            match self.subscribe_one(plan, def, &ids) {
                Ok(id) => ids.push((table, id)),
                Err(e) => {
                    self.unsubscribe(plan, &ids);
                    return Err(e);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn subscribe_one(
        &mut self,
        plan: &DerivedPlan,
        def: &AuxViewDef,
        ids: &[(TableId, StoreId)],
    ) -> Result<StoreId> {
        let broken =
            |what: &str| MaintainError::InvariantViolation(format!("{what} for {}", def.name));
        let mut partners = Vec::with_capacity(def.semijoins.len());
        for target in &def.semijoins {
            let mut edges = plan.graph.children(def.table);
            let edge = edges
                .find(|e| e.to == *target)
                .ok_or_else(|| broken("semijoin without an edge"))?;
            let &(_, id) = ids
                .iter()
                .find(|(t, _)| t == target)
                .ok_or_else(|| broken("semijoin target without a store"))?;
            partners.push((edge.fk_col, id));
        }
        let root = def.table == plan.graph.root();
        let targets = partners.iter();
        let targets = targets.map(|&(fk, id)| (fk, self.entry(id).key.rows().clone()));
        let key = StoreKey::of(def, root, Rows::of(def, targets.collect()));
        let id = match self.by_key.get(&key) {
            Some(&id) => {
                self.entry_mut(id).subscribers += 1;
                id
            }
            None => {
                let store = AuxStore::new(def.clone(), &self.catalog)?;
                for &(_, target) in &partners {
                    self.entry_mut(target).holders += 1;
                }
                let (folds, runs) = store_counters(&self.obs, &self.catalog, def.table);
                let id = StoreId(self.entries.len() as u32);
                self.by_key.insert(key.clone(), id);
                self.entries.push(Some(Entry {
                    key,
                    srcs: store.group_srcs().to_vec(),
                    sum_srcs: def.sum_cols().into_iter().map(|(_, s)| Some(s)).collect(),
                    store,
                    partners,
                    root,
                    subscribers: 1,
                    holders: 0,
                    lsn: 0,
                    loaded: false,
                    folds,
                    runs,
                }));
                id
            }
        };
        if root {
            let entry = self.entry_mut(id);
            for edge in plan.graph.children(def.table) {
                if let Some(pos) = entry.srcs.iter().position(|&s| s == edge.fk_col) {
                    entry.store.fk_subscribe((edge.to, pos));
                }
            }
        }
        Ok(id)
    }

    /// Releases one summary's subscription to the stores `ids` of `plan`:
    /// a store goes, with its fk index, when its last subscriber does and
    /// no store semijoins against it, and an fk edge when the last
    /// subscriber joining along it does.
    pub(crate) fn unsubscribe(&mut self, plan: &DerivedPlan, ids: &[(TableId, StoreId)]) {
        for &(table, id) in ids {
            let entry = self.entry_mut(id);
            entry.subscribers -= 1;
            // Only a root store keeps an fk index.
            let edges = plan.graph.children(table);
            for edge in edges.filter(|_| table == plan.graph.root()) {
                if let Some(pos) = entry.srcs.iter().position(|&s| s == edge.fk_col) {
                    entry.store.fk_unsubscribe((edge.to, pos));
                }
            }
            self.release_unused(id);
        }
    }

    /// Drops store `id` if nothing holds it any more, and then each of its
    /// semijoin targets that only it held.
    fn release_unused(&mut self, id: StoreId) {
        let entry = self.entry(id);
        if entry.subscribers > 0 || entry.holders > 0 {
            return;
        }
        let entry = self.entries[id.0 as usize].take().expect("resident");
        self.by_key.remove(&entry.key);
        for (_, target) in entry.partners {
            self.entry_mut(target).holders -= 1;
            self.release_unused(target);
        }
    }

    /// Loads every store still waiting for its contents from the sources
    /// — children before parents, so semijoin targets are ready — as
    /// committed at `lsn` of its table. Loading `R` into an empty store is
    /// applying `ΔR = +R`: a root batch of its rows, folded as any batch's
    /// runs are. This and a summary's own initial load are the only reads
    /// of a base table.
    pub fn load(&mut self, db: &Database, lsn: impl Fn(TableId) -> u64) -> Result<()> {
        for at in 0..self.entries.len() {
            if self.entries[at].as_ref().is_none_or(|e| e.loaded) {
                continue;
            }
            let mut entry = self.entries[at].take().expect("checked above");
            let result = self.fill(&mut entry, db);
            entry.lsn = lsn(entry.store.def().table);
            entry.loaded = result.is_ok();
            self.entries[at] = Some(entry);
            result?;
        }
        Ok(())
    }

    fn fill(&self, entry: &mut Entry, db: &Database) -> Result<()> {
        let def = entry.store.def();
        let table = self.catalog.def(def.table)?;
        let rows: Vec<Row> = db.table(def.table).rows().collect();
        let inserts = rows.iter().enumerate().map(|(i, row)| (1, Some(row), i));
        let (locals, srcs, sum_srcs) = (&def.local_conditions, &entry.srcs, &entry.sum_srcs);
        let batch = RootBatch::build(def.table, table, locals, srcs, sum_srcs, inserts)
            .map_err(|(_, e)| e)?;
        let partners = &entry.partners;
        entry.store.bulk_fill(|store| {
            // A load's runs that are not reduced away are its groups: the
            // maps are sized once.
            let kept = batch.runs().filter(|run| !self.reduced(partners, run.row));
            store.reserve(kept.count());
            self.fold_runs(store, srcs, partners, &batch)
                .map_err(|(_, e)| e)
        })
    }

    /// Whether the store of `entry` keeps source `row`: it passes the
    /// store's local conditions and finds its semijoin partners.
    fn visible(&self, entry: &Entry, row: &Row) -> Result<bool> {
        let def = entry.store.def();
        Ok(passes_locals(def.table, &def.local_conditions, row)?
            && !self.reduced(&entry.partners, row))
    }

    // ------------------------------------------------------------------
    // The batch transaction
    // ------------------------------------------------------------------

    /// Whether a batch is open.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Opens a batch: every store journals its mutations until
    /// [`Self::commit`] or [`Self::rollback`].
    pub(crate) fn begin(&mut self) {
        for entry in self.entries.iter_mut().flatten() {
            entry.store.begin_undo();
        }
        self.open = true;
    }

    /// Keeps the open batch: every store of a table in `lsns` has now
    /// committed that table's LSN.
    pub(crate) fn commit(&mut self, lsns: &[(TableId, u64)]) {
        for entry in self.entries.iter_mut().flatten() {
            entry.store.commit_undo();
            let table = entry.store.def().table;
            for &(t, lsn) in lsns {
                if t == table {
                    entry.lsn = entry.lsn.max(lsn);
                }
            }
        }
        self.open = false;
    }

    /// Undoes the open batch in every store. No-op when no batch is open.
    pub(crate) fn rollback(&mut self) {
        for entry in self.entries.iter_mut().flatten() {
            entry.store.rollback_undo();
        }
        self.open = false;
    }

    /// Marks store `id` filled by a restore, as committed at `lsn`.
    pub(crate) fn restored(&mut self, id: StoreId, lsn: u64) {
        let entry = self.entry_mut(id);
        entry.lsn = lsn;
        entry.loaded = true;
    }

    /// Whether store `id` has yet to be filled.
    pub(crate) fn is_pending(&self, id: StoreId) -> bool {
        !self.entry(id).loaded
    }

    /// The store behind `id`, to be filled by a restore.
    pub(crate) fn store_mut(&mut self, id: StoreId) -> &mut AuxStore {
        &mut self.entry_mut(id).store
    }

    // ------------------------------------------------------------------
    // Store kernels
    // ------------------------------------------------------------------

    /// The stores of `table` in the root role (or the dimension role) that
    /// a group at `lsn` reaches: those that have not committed it yet.
    pub(crate) fn stores_of(&self, table: TableId, root: bool, lsn: u64) -> Vec<StoreId> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let e = e.as_ref()?;
                (e.root == root && e.store.def().table == table && e.lsn < lsn)
                    .then_some(StoreId(i as u32))
            })
            .collect()
    }

    /// The occurrences of root group `changes` as root store `id` groups
    /// them: its local conditions applied, runs by its key.
    pub(crate) fn root_batch<'c>(
        &self,
        id: StoreId,
        changes: &'c [Change],
    ) -> std::result::Result<RootBatch<'c>, (Option<usize>, MaintainError)> {
        let entry = self.entry(id);
        let def = entry.store.def();
        let table = self.catalog.def(def.table).map_err(|e| (None, e.into()))?;
        RootBatch::build(
            def.table,
            table,
            &def.local_conditions,
            &entry.srcs,
            &entry.sum_srcs,
            occurrences(changes),
        )
    }

    /// Folds the runs of `batch` into root store `id` — the semijoin test,
    /// then the kernel, which keeps the store's fk index — once for every
    /// summary that reads it. On failure:
    /// the change to blame, and why; the caller rolls the batch back.
    pub(crate) fn fold_root(
        &mut self,
        id: StoreId,
        batch: &RootBatch<'_>,
    ) -> std::result::Result<(), (Option<usize>, MaintainError)> {
        let slot = id.0 as usize;
        let mut entry = self.entries[slot].take().expect("resident");
        let runs = batch.runs().len();
        let _span = self
            .obs
            .span("maintain.store")
            .field("store", entry.store.def().name.as_str())
            .field("runs", runs);
        entry.folds.incr();
        entry.runs.add(runs as u64);
        let result = self.fold_runs(&mut entry.store, &entry.srcs, &entry.partners, batch);
        self.entries[slot] = Some(entry);
        result
    }

    /// Folds each run of `batch` — one signed `ΔX` tuple — into `store`,
    /// whose group columns are `srcs` and semijoin partners `partners`,
    /// unless the semijoins reduce it away.
    fn fold_runs(
        &self,
        store: &mut AuxStore,
        srcs: &[usize],
        partners: &[(usize, StoreId)],
        batch: &RootBatch<'_>,
    ) -> std::result::Result<(), (Option<usize>, MaintainError)> {
        for run in batch.runs() {
            if self.reduced(partners, run.row) {
                continue;
            }
            let key = RunKey { row: run.row, srcs };
            if let Err(err) = store.apply_source_run(&key, run.signs, run.sums) {
                return Err(run.blame(err, |signs| store.apply_source_run(&key, signs, run.sums)));
            }
        }
        Ok(())
    }

    /// Whether a run whose first row is `row` is reduced away: a semijoin
    /// partner is missing, and every occurrence shares the foreign keys.
    fn reduced(&self, partners: &[(usize, StoreId)], row: &Row) -> bool {
        (partners.iter()).any(|&(col, target)| !self.store(target).contains_key_value(&row[col]))
    }

    /// `ΔX` of dimension store `id` under `change`: each side of the
    /// change as the store sees it, after its local conditions, semijoins
    /// and projection have had their say.
    pub(crate) fn dim_delta<'r>(&self, id: StoreId, change: &'r Change) -> Result<DimDelta<'r>> {
        let entry = self.entry(id);
        let (old, new) = change.as_delete_insert();
        let side = |row: Option<&'r Row>| -> Result<Option<(&'r Row, Row)>> {
            match row {
                Some(r) if self.visible(entry, r)? => Ok(Some((r, entry.store.group_key_of(r)))),
                _ => Ok(None),
            }
        };
        Ok(DimDelta {
            old: side(old)?,
            new: side(new)?,
        })
    }

    /// Applies `delta` to dimension store `id`: the keys differ, so each
    /// side is a run of one. A dimension store keeps its table's key, so
    /// it sums nothing (a degenerate PSJ view).
    pub(crate) fn apply_dim(&mut self, id: StoreId, delta: &DimDelta<'_>) -> Result<()> {
        let store = &mut self.entry_mut(id).store;
        if let Some((_, key)) = &delta.old {
            store.apply_source_run(key, &[-1], &[])?;
        }
        if let Some((_, key)) = &delta.new {
            store.apply_source_run(key, &[1], &[])?;
        }
        Ok(())
    }
}

/// `maintain.store_folds` and `maintain.store_runs` of `table`'s stores.
fn store_counters(obs: &Obs, catalog: &Catalog, table: TableId) -> (Counter, Counter) {
    let name = catalog
        .def(table)
        .map(|d| d.name.clone())
        .unwrap_or_else(|_| table.to_string());
    let labels = [("table", name.as_str())];
    (
        obs.counter("maintain.store_folds", &labels),
        obs.counter("maintain.store_runs", &labels),
    )
}

/// One summary's stores in a registry: the store of each table it
/// materializes, in table order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ViewStores<'a> {
    pub(crate) registry: &'a StoreRegistry,
    pub(crate) ids: &'a [(TableId, StoreId)],
}

impl<'a> ViewStores<'a> {
    /// The store of `table`, if materialized.
    pub(crate) fn store(self, table: TableId) -> Option<&'a AuxStore> {
        let (_, id) = self.ids.iter().find(|(t, _)| *t == table)?;
        Some(self.registry.store(*id))
    }
}

/// Tables of `plan` in post-order from the root: children first.
pub(crate) fn load_order(plan: &DerivedPlan) -> Vec<TableId> {
    fn visit(graph: &md_core::ExtendedJoinGraph, t: TableId, out: &mut Vec<TableId>) {
        let children: Vec<TableId> = graph.children(t).map(|e| e.to).collect();
        for c in children {
            visit(graph, c, out);
        }
        out.push(t);
    }
    let mut out = Vec::new();
    visit(&plan.graph, plan.graph.root(), &mut out);
    out
}

/// Whether `row` of `table` passes every one of `conds`, that table's local
/// conditions: loads, dimension deltas and root deltas all ask here.
pub(crate) fn passes_locals(table: TableId, conds: &[Condition], row: &Row) -> Result<bool> {
    eval_all(conds, &RowEnv::single(table, row)).map_err(MaintainError::from)
}

/// `ΔX` of one dimension store under one change: per side, the source row
/// and its group key, when the store keeps the row.
#[derive(Debug)]
pub(crate) struct DimDelta<'r> {
    pub(crate) old: Option<(&'r Row, Row)>,
    pub(crate) new: Option<(&'r Row, Row)>,
}

impl DimDelta<'_> {
    /// Whether the store is left as it was: a column it never kept, a row
    /// outside it before and after.
    pub(crate) fn is_empty(&self) -> bool {
        self.old.as_ref().map(|(_, k)| k) == self.new.as_ref().map(|(_, k)| k)
    }
}

/// The `±` sides of `changes` — `(sign, row, change index)` in batch
/// order, an update's delete first — a side a change lacks as `None`.
pub(crate) fn occurrences(changes: &[Change]) -> impl Iterator<Item = (i64, Option<&Row>, usize)> {
    changes.iter().enumerate().flat_map(|(i, change)| {
        let (del, ins) = change.as_delete_insert();
        [(-1, del, i), (1, ins, i)]
    })
}

/// A root group's `±` occurrences, local conditions applied, grouped into
/// runs that share one run key — each run one signed `ΔX_{R₀}` tuple whose
/// net sums are taken here, once for every kernel that folds it.
pub(crate) struct RootBatch<'c> {
    /// Per run: the row of its first occurrence, which holds the run key,
    /// and its stretch of `signs` and `changes`.
    runs: Vec<(&'c Row, Range<usize>)>,
    /// Per occurrence, run after run: its sign …
    signs: Vec<i64>,
    /// … and the change it came from.
    changes: Vec<usize>,
    /// Per run, its net sums, `width` of them, run after run.
    sums: Vec<ExactSum>,
    width: usize,
}

/// One run of a [`RootBatch`]: one signed `ΔX_{R₀}` tuple.
#[derive(Clone, Copy)]
pub(crate) struct RootRun<'b> {
    /// The row of its first occurrence: every occurrence shares its key.
    pub(crate) row: &'b Row,
    /// Each occurrence's sign, in batch order …
    pub(crate) signs: &'b [i64],
    /// … and the change it came from.
    pub(crate) changes: &'b [usize],
    /// The run's net sums, in the layout of the tuples it stands for.
    pub(crate) sums: &'b [ExactSum],
}

impl RootRun<'_> {
    /// The change to blame for `err`, which folding this run whole raised:
    /// a fold fails on a sign or a shared argument, never on a sum, so
    /// `fold` replays the signs one at a time and the first to fail names
    /// it. The caller rolls the batch back: the replay is transient.
    pub(crate) fn blame(
        &self,
        err: MaintainError,
        mut fold: impl FnMut(&[i64]) -> Result<()>,
    ) -> (Option<usize>, MaintainError) {
        for (sign, &change) in self.signs.chunks(1).zip(self.changes) {
            if let Err(e) = fold(sign) {
                return (Some(change), e);
            }
        }
        (Some(self.changes[0]), err)
    }
}

impl<'c> RootBatch<'c> {
    /// Keeps those of the occurrences `occs` (see [`occurrences`]) passing
    /// `locals`, groups them by their projection onto `srcs`, and sums each
    /// run once: position `i` of its sums adds source column `sum_srcs[i]`
    /// (nothing where `None`), each occurrence by its sign. A condition
    /// reads the row by source column and compares by type, so a row it is
    /// asked about is held to the root's schema first. On failure: the
    /// change to blame, and why.
    pub(crate) fn build(
        table: TableId,
        def: &TableDef,
        locals: &[Condition],
        srcs: &[usize],
        sum_srcs: &[Option<usize>],
        occs: impl IntoIterator<Item = (i64, Option<&'c Row>, usize)>,
    ) -> std::result::Result<Self, (Option<usize>, MaintainError)> {
        let occs = occs.into_iter();
        let expected = occs.size_hint().0;
        // One hash pass assigns each kept occurrence its run, through an
        // index from run key to run — runs in first-appearance order — and
        // one counting pass lays the runs out. A batch has about as many
        // runs as rows and is spared the rehashes; a load compresses a
        // table's worth of rows into far fewer runs, and is not made to
        // reserve a bucket per row.
        let mut run_of: SeededHashMap<RunKey<'_>, usize> =
            SeededHashMap::with_capacity_and_hasher(expected.min(4096), Default::default());
        let mut kept: Vec<(i64, &Row, usize, usize)> = Vec::with_capacity(expected);
        let mut runs: Vec<(&Row, Range<usize>)> = Vec::new();
        for (sign, row, i) in occs {
            let Some(row) = row else { continue };
            if !locals.is_empty() {
                let passes = def
                    .schema
                    .check_row(&def.name, row.values())
                    .map_err(MaintainError::from)
                    .and_then(|()| passes_locals(table, locals, row))
                    .map_err(|e| (Some(i), e))?;
                if !passes {
                    continue;
                }
            }
            let run = *run_of.entry(RunKey { row, srcs }).or_insert(runs.len());
            if run == runs.len() {
                runs.push((row, 0..0));
            }
            runs[run].1.end += 1;
            kept.push((sign, row, i, run));
        }
        // Lengths become offsets; each run's stretch then grows back to
        // its length as its occurrences are placed, in batch order.
        let mut start = 0;
        for (_, span) in &mut runs {
            let len = span.end;
            *span = start..start;
            start += len;
        }
        let width = sum_srcs.len();
        let mut signs = vec![0; kept.len()];
        let mut changes = vec![0; kept.len()];
        let mut sums = vec![ExactSum::default(); runs.len() * width];
        for &(sign, row, change, run) in &kept {
            let span = &mut runs[run].1;
            (signs[span.end], changes[span.end]) = (sign, change);
            span.end += 1;
            for (sum, src) in sums[run * width..][..width].iter_mut().zip(sum_srcs) {
                if let Some(src) = *src {
                    sum.add(&row[src], sign).map_err(|e| (Some(change), e))?;
                }
            }
        }
        Ok(RootBatch {
            runs,
            signs,
            changes,
            sums,
            width,
        })
    }

    /// The runs, in first-appearance order.
    pub(crate) fn runs(&self) -> impl ExactSizeIterator<Item = RootRun<'_>> {
        let width = self.width;
        self.runs
            .iter()
            .enumerate()
            .map(move |(r, (row, span))| RootRun {
                row,
                signs: &self.signs[span.clone()],
                changes: &self.changes[span.clone()],
                sums: &self.sums[r * width..][..width],
            })
    }
}

/// A row seen through its projection onto `srcs`: hashes and compares
/// the projected columns in place, and probes the stores as the
/// [`RowKey`] it projects to, so a run builds a key row only where a
/// store has to keep one.
#[derive(Clone, Copy)]
pub(crate) struct RunKey<'a> {
    pub(crate) row: &'a Row,
    pub(crate) srcs: &'a [usize],
}

impl std::hash::Hash for RunKey<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for &s in self.srcs {
            self.row[s].hash(state);
        }
    }
}

impl PartialEq for RunKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.srcs.iter().all(|&s| self.row[s] == other.row[s])
    }
}

impl Eq for RunKey<'_> {}

impl RowKey for RunKey<'_> {
    fn arity(&self) -> usize {
        self.srcs.len()
    }

    fn value(&self, idx: usize) -> &Value {
        &self.row[self.srcs[idx]]
    }
}
