//! The auxiliary view stores, held once per definition.
//!
//! Two summaries whose plans derive the same auxiliary view — the same
//! table, retained columns and local conditions, reduced against the same
//! stores — need the same contents, whether they read it as their root or
//! as a dimension: Section 3.2 builds every `X_{Rᵢ}` by one rule. A
//! [`StoreRegistry`] keys each store by that canonical definition — a
//! typed `StoreKey`, decided in `canon.rs`, that names no view, column or
//! role — and holds it once, however many summaries read it. Each distinct
//! store is loaded, journaled and folded once per batch; the summaries
//! borrow their stores by [`StoreId`].
//!
//! A store belongs to the warehouse transaction, not to any one summary:
//! it folds every batch of its table — a summary that is quarantined meanwhile
//! catches up by rebuilding from it — and a failure in a store kernel
//! rejects the batch. Each store remembers the LSN of the last batch of its
//! table it committed, so a replayed frame reaches it at most once.
//!
//! Every store folds a table group, and a load, one way: as runs. A table
//! group is grouped once ([`Grouping`]) for every store of its table and
//! every summary without a root store rooted there: one hash pass puts its
//! occurrences into fine runs, by every such consumer's run key and
//! condition columns at once, and each consumer reads its own runs and
//! sums off them. A run is one weighted `ΔX` tuple of a [`RunBatch`]: its
//! weight — its occurrences' summed sign and the lowest their running sum
//! falls to in batch order — and its net sums are all the store kernel,
//! and every summary rooted there, read of it — no kernel reads a source
//! row. A store drops the runs its semijoins reduce away; a summary that
//! reads the table as a dimension reads `ΔX_T` off the same runs
//! ([`StoreRegistry::deltas`]). A root-role subscriber also keeps the
//! store's foreign-key index. A load is a grouping of one consumer per
//! window. Every row it reads fits its table's schema — `prepare_batch`
//! holds a batch's rows to it before anything folds, and a base table
//! holds its own — and every condition it tests and every column it sums
//! was compiled against that schema when the plan was resolved, so the
//! grouping cannot fail.
//!
//! A store keeps its semijoin targets resident: a shared store may outlive
//! the summary whose plan first named its targets, and it goes on testing
//! membership in them after that summary is dropped.

use std::collections::HashMap;

use md_core::{AuxViewDef, DerivedPlan};
use md_obs::{Counter, Histogram, Obs, Span};
use md_relation::{
    BaseTable, Catalog, ChangeRef, Database, Row, RowKey, SeededHashMap, TableId, Value,
};

use crate::canon::{Rows, StoreKey};
use crate::engine::reject;
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::filter::Filter;
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
    /// The source column each of the store's sums adds: what a table
    /// group sums its runs by.
    sum_srcs: Vec<Option<usize>>,
    /// The store's local conditions, compiled.
    filter: Filter,
    /// Per semijoin: the foreign-key column and the target store.
    partners: Vec<(usize, StoreId)>,
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
    /// The buffers every table group is grouped in.
    pub(crate) grouping: Grouping,
    /// `maintain.grouping_nanos`, by table, registered as a table first
    /// groups.
    grouping_nanos: Vec<(TableId, Histogram)>,
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
            grouping: Grouping::default(),
            grouping_nanos: Vec::new(),
            obs: Obs::noop(),
        }
    }

    /// The source catalog.
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The observability context the stores report to.
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Registers the store counters (`maintain.store_folds{table}`,
    /// `maintain.store_runs{table}`) and the `maintain.store` and
    /// `maintain.grouping` spans in `obs`, carrying the counters' current
    /// values; `maintain.grouping_nanos{table}` registers as a table first
    /// groups.
    pub fn set_obs(&mut self, obs: Obs) {
        self.grouping_nanos.clear();
        for entry in self.entries.iter_mut().flatten() {
            let (folds, runs) = store_counters(&obs, &self.catalog, entry.store.def().table);
            folds.add(entry.folds.get());
            runs.add(entry.runs.get());
            (entry.folds, entry.runs) = (folds, runs);
        }
        self.obs = obs;
    }

    /// `maintain.grouping_nanos{table}`: the time each group of `table`
    /// took to group.
    pub(crate) fn grouping_nanos(&mut self, table: TableId) -> Histogram {
        if let Some((_, nanos)) = self.grouping_nanos.iter().find(|(t, _)| *t == table) {
            return nanos.clone();
        }
        let def = self.catalog.def(table);
        let name = def.map_or_else(|_| table.to_string(), |d| d.name.clone());
        let nanos = (self.obs).histogram("maintain.grouping_nanos", &[("table", &name)]);
        self.grouping_nanos.push((table, nanos.clone()));
        nanos
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
    /// (to be filled by [`Self::load`] or a restore) with its local
    /// conditions compiled — a plan whose conditions do not compile is
    /// refused, and subscribes nothing. Returns the store of each
    /// materialized table, in table order.
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
        let targets = partners.iter();
        let targets = targets.map(|&(fk, id)| (fk, self.entry(id).key.rows().clone()));
        let key = StoreKey::of(def, Rows::of(def, targets.collect()));
        let id = match self.by_key.get(&key) {
            Some(&id) => {
                self.entry_mut(id).subscribers += 1;
                id
            }
            None => {
                let conds = &def.local_conditions;
                let filter = Filter::locals(&plan.view, def.table, conds, &self.catalog)?;
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
                    filter,
                    store,
                    partners,
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
        // A root-role subscriber joins along the store's fk index.
        if def.table == plan.graph.root() {
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
            // Only a root-role subscriber keeps an fk index.
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
    /// applying `ΔR = +R`: batches of inserts of its rows, one window of
    /// them at a time (`load_windows`), folded as any batch's runs are.
    /// This and a summary's own initial load are the only reads of a base
    /// table.
    pub fn load(&mut self, db: &Database, lsn: impl Fn(TableId) -> u64) -> Result<()> {
        self.load_by(LOAD_WINDOW, db, lsn)
    }

    /// [`Self::load`], reading `window` rows of a table at a time.
    pub(crate) fn load_by(
        &mut self,
        window: usize,
        db: &Database,
        lsn: impl Fn(TableId) -> u64,
    ) -> Result<()> {
        for at in 0..self.entries.len() {
            if self.entries[at].as_ref().is_none_or(|e| e.loaded) {
                continue;
            }
            let mut entry = self.entries[at].take().expect("checked above");
            let table = entry.store.def().table;
            let mut span = self.load_span(table);
            let result = self.fill(&mut entry, db, window);
            if let Ok(loaded) = &result {
                span = loaded.fields(span).field("groups", entry.store.len());
            }
            drop(span);
            entry.lsn = lsn(table);
            entry.loaded = result.is_ok();
            self.entries[at] = Some(entry);
            result?;
        }
        Ok(())
    }

    /// The `maintain.load` span of a load of `table`: a store's, or a
    /// summary's without a root store.
    pub(crate) fn load_span(&self, table: TableId) -> Span {
        let span = self.obs.span("maintain.load");
        match self.catalog.def(table) {
            Ok(def) => span.field("table", def.name.as_str()),
            Err(_) => span,
        }
    }

    fn fill(&self, entry: &mut Entry, db: &Database, window: usize) -> Result<Loaded> {
        let table = entry.store.def().table;
        let (srcs, sums, partners) = (&entry.srcs, &entry.sum_srcs, &entry.partners);
        let key = ConsumerKey {
            locals: &entry.filter,
            srcs,
            sums,
        };
        let mut grouping = Grouping::default();
        entry.store.bulk_fill(|store| {
            load_windows(db.table(table), window, |rows, at| {
                let grouped = grouping.group(&[key], inserts(rows, at));
                let batch = grouped.batch(0);
                self.fold_runs(store, srcs, partners, &batch)
            })
        })
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

    /// The stores of `table` that a group at `lsn` reaches: those that
    /// have not committed it yet.
    pub(crate) fn stores_of(&self, table: TableId, lsn: u64) -> Vec<StoreId> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let e = e.as_ref()?;
                (e.store.def().table == table && e.lsn < lsn).then_some(StoreId(i as u32))
            })
            .collect()
    }

    /// What store `id` groups a table group by: its local conditions, its
    /// key and its sums.
    pub(crate) fn consumer_key(&self, id: StoreId) -> ConsumerKey<'_> {
        let entry = self.entry(id);
        ConsumerKey {
            locals: &entry.filter,
            srcs: &entry.srcs,
            sums: &entry.sum_srcs,
        }
    }

    /// Folds the runs of `batch` into store `id` — the semijoin test, then
    /// the kernel, which keeps the store's key and fk indexes — once for
    /// every summary that reads it, in whatever role. A failure rejects the
    /// batch, naming the change to blame; the caller rolls it back.
    pub(crate) fn fold_store(&mut self, id: StoreId, batch: &RunBatch<'_>) -> Result<()> {
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

    /// Folds each run of `batch` — one weighted `ΔX` tuple — into `store`,
    /// whose group columns are `srcs` and semijoin partners `partners`,
    /// unless the semijoins reduce it away.
    fn fold_runs(
        &self,
        store: &mut AuxStore,
        srcs: &[usize],
        partners: &[(usize, StoreId)],
        batch: &RunBatch<'_>,
    ) -> Result<()> {
        for run in batch.runs() {
            if self.reduced(partners, run.row) {
                continue;
            }
            let key = RunKey { row: run.row, srcs };
            if let Err(err) = store.apply_source_run(&key, run.net, run.low, run.sums) {
                let refold = |net, low| store.apply_source_run(&key, net, low, run.sums);
                let (i, e) = batch.blame(&run, err, refold);
                return Err(reject(&self.catalog, store.def().table, Some(i), e));
            }
        }
        Ok(())
    }

    /// Whether a run whose first row is `row` is reduced away: a semijoin
    /// partner is missing. Every occurrence of the run shares the foreign
    /// keys, since each is a group column of the store.
    fn reduced(&self, partners: &[(usize, StoreId)], row: &Row) -> bool {
        (partners.iter()).any(|&(col, target)| !self.store(target).contains_key_value(&row[col]))
    }

    /// `ΔX` of store `id` under each of `changes`, read off `batch`, the
    /// store's runs of them: per change, each side the store keeps — `None`
    /// where its local conditions drop the row or a semijoin reduces its
    /// run away — or `None` for the whole change when both sides land on
    /// one run (or on none) and leave the store as it was.
    pub(crate) fn deltas<'a, 'c: 'a>(
        &'a self,
        id: StoreId,
        batch: RunBatch<'a>,
        changes: &'a [ChangeRef<'c>],
    ) -> impl Iterator<Item = Option<[Option<&'c Row>; 2]>> + 'a {
        let partners = &self.entry(id).partners;
        let mut sides = batch.sides().peekable();
        changes.iter().enumerate().map(move |(i, change)| {
            // The run each side lands on, if the store keeps it.
            let mut runs = [None; 2];
            while let Some((_, sign, run)) = sides.next_if(|&(c, ..)| c == i) {
                let kept = run.filter(|run| !self.reduced(partners, run.row));
                runs[usize::from(sign > 0)] = kept.map(|run| run.at);
            }
            let (del, ins) = change.as_delete_insert();
            (runs[0] != runs[1]).then(|| [runs[0].and(del), runs[1].and(ins)])
        })
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

/// Rows a load reads of a source table at a time. Each window is one
/// batch of inserts, folded before the next is read into the same
/// rows: a load holds a window of its table, never a copy of it. Windows
/// of 1 024 to 8 192 rows load equally fast; a larger one only holds more.
pub(crate) const LOAD_WINDOW: usize = 4096;

/// What a load read of its table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Loaded {
    rows: usize,
    windows: usize,
}

impl Loaded {
    /// `span` with the rows and windows read.
    pub(crate) fn fields(self, span: Span) -> Span {
        span.field("rows", self.rows).field("windows", self.windows)
    }
}

/// The one read of a source table: hands `fold` the live rows of
/// `source` in slot order, `window` of them at a time, with the position
/// in the table of each window's first row — a window read into the rows
/// of the one before ([`BaseTable::scan`]). `fold` is done with a window
/// before the next is read. Stops at the first error.
pub(crate) fn load_windows<E>(
    source: &BaseTable,
    window: usize,
    mut fold: impl FnMut(&[Row], usize) -> std::result::Result<(), E>,
) -> std::result::Result<Loaded, E> {
    let mut loaded = Loaded::default();
    source.scan(window, |rows| {
        fold(rows, loaded.rows)?;
        loaded.rows += rows.len();
        loaded.windows += 1;
        Ok(())
    })?;
    Ok(loaded)
}

/// A window of a load, the rows of `R` from position `at` on, as
/// occurrences of `ΔR = +R`: `(+1, row, position in the table)`.
pub(crate) fn inserts(rows: &[Row], at: usize) -> impl Iterator<Item = (i64, Option<&Row>, usize)> {
    rows.iter().zip(at..).map(|(row, i)| (1, Some(row), i))
}

/// The `±` sides of `changes` — `(sign, row, change index)` in batch
/// order, an update's delete first — a side a change lacks as `None`.
pub(crate) fn occurrences<'s, 'c: 's>(
    changes: &'s [ChangeRef<'c>],
) -> impl Iterator<Item = (i64, Option<&'c Row>, usize)> + 's {
    changes.iter().enumerate().flat_map(|(i, change)| {
        let (del, ins) = change.as_delete_insert();
        [(-1, del, i), (1, ins, i)]
    })
}

/// What one consumer of a table group — a store, or a summary without a
/// root store rooted there — groups the group's occurrences by.
#[derive(Clone, Copy)]
pub(crate) struct ConsumerKey<'a> {
    /// The table's local conditions a row must pass to be kept, compiled.
    pub(crate) locals: &'a Filter,
    /// The run key: the source columns every occurrence of a run shares.
    pub(crate) srcs: &'a [usize],
    /// Per position of a run's sums, the source column added there
    /// (nothing where `None`).
    pub(crate) sums: &'a [Option<usize>],
}

impl ConsumerKey<'_> {
    /// Whether `other` keeps the same occurrences and runs them alike: the
    /// same conditions, the same key columns in any order.
    fn same_runs(&self, other: &ConsumerKey<'_>) -> bool {
        self.locals == other.locals
            && self.srcs.len() == other.srcs.len()
            && self.srcs.iter().all(|s| other.srcs.contains(s))
    }
}

/// A fine run's stand-in for "kept by no run of this key".
const DROPPED: u32 = u32::MAX;

/// A run's tally: one weighted `ΔX` tuple, its occurrences weighed.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// The fine run whose first row it keeps …
    row: u32,
    /// … and the change of its first occurrence.
    change: usize,
    /// How many occurrences it stands for.
    len: u32,
    /// Their summed sign, and the lowest their running sum falls to in
    /// batch order (0 or below).
    net: i64,
    low: i64,
}

/// The runs of one distinct consumer key over the fine runs.
#[derive(Debug, Default)]
struct KeyRuns {
    /// The first consumer with this key.
    consumer: usize,
    /// Per fine run: its run, or [`DROPPED`].
    run_of: Vec<u32>,
    runs: Vec<Tally>,
}

/// One consumer's part: its key and its sums.
#[derive(Debug, Default)]
struct ConsumerRuns {
    key: usize,
    /// Per run, `width` net sums.
    sums: Vec<ExactSum>,
    width: usize,
    /// Per sum position, the fine sum it adds (`None`: nothing).
    from: Vec<Option<usize>>,
}

/// A table group's `±` occurrences, grouped once for every consumer the
/// group reaches — each run one weighted `ΔX` tuple whose weight and net
/// sums are taken here, once for every kernel that folds it.
///
/// One hash pass puts each occurrence into a *fine run*, by the union of
/// every consumer's run key and local-condition columns, and sums the
/// union of their summed columns per fine run. A consumer's runs are then
/// read off the fine runs — its conditions tested and its key probed once
/// per fine run, its runs weighed in one walk over the occurrences in
/// batch order, its sums merged once per fine run — and come out as the
/// consumer's own grouping would: in first-appearance order, with the
/// weight its occurrences one at a time have and exact sums.
///
/// The buffers are kept from one group to the next.
#[derive(Debug, Default)]
pub(crate) struct Grouping {
    /// The fine key's columns, each once.
    cols: Vec<usize>,
    /// The fine runs' layout of sums: each column a consumer sums, once.
    sum_cols: Vec<usize>,
    /// Per occurrence kept, in batch order: its change, fine run and sign.
    occs: Vec<(usize, u32, i32)>,
    /// Per fine run, in first-appearance order: the change of its first
    /// occurrence …
    fine: Vec<usize>,
    /// … and its sums in the layout of `sum_cols`, run after run.
    fine_sums: Vec<ExactSum>,
    /// The first `n_keys` distinct keys and `n_consumers` consumers are
    /// this group's; the rest wait to be reused.
    keys: Vec<KeyRuns>,
    consumers: Vec<ConsumerRuns>,
    n_keys: usize,
    n_consumers: usize,
}

impl Grouping {
    /// Groups the occurrences `occs` of a table (see [`occurrences`]),
    /// whose rows fit the table's schema, for each consumer of `keys`.
    pub(crate) fn group<'g, 'c>(
        &'g mut self,
        keys: &[ConsumerKey<'_>],
        occs: impl IntoIterator<Item = (i64, Option<&'c Row>, usize)>,
    ) -> Grouped<'g, 'c> {
        let rows = self.fine_pass(keys, occs);
        u32::try_from(self.occs.len()).expect("fewer than 2³² occurrences a group");
        self.n_keys = 0;
        self.n_consumers = keys.len();
        for (k, key) in keys.iter().enumerate() {
            let known = self.keys[..self.n_keys]
                .iter()
                .position(|runs| keys[runs.consumer].same_runs(key));
            let at = match known {
                Some(at) => at,
                None => {
                    self.key_runs(key, k, &rows);
                    self.n_keys - 1
                }
            };
            self.consumer_sums(key, k, at);
        }
        Grouped {
            grouping: self,
            rows,
        }
    }

    /// The hash pass: each occurrence into its fine run, its sums added.
    fn fine_pass<'c>(
        &mut self,
        keys: &[ConsumerKey<'_>],
        occs: impl IntoIterator<Item = (i64, Option<&'c Row>, usize)>,
    ) -> Vec<&'c Row> {
        let Grouping {
            cols,
            sum_cols,
            occs: kept,
            fine,
            fine_sums,
            ..
        } = self;
        cols.clear();
        sum_cols.clear();
        for key in keys {
            cols.extend(key.srcs);
            cols.extend(key.locals.columns());
        }
        cols.sort_unstable();
        cols.dedup();
        sum_cols.extend(keys.iter().flat_map(|k| k.sums).flatten());
        sum_cols.sort_unstable();
        sum_cols.dedup();
        kept.clear();
        fine.clear();
        fine_sums.clear();
        let width = sum_cols.len();
        let occs = occs.into_iter();
        // A batch or a load window has about as many fine runs as
        // occurrences and is spared the rehashes, up to a load window's
        // worth: a larger batch reserves no bucket per row.
        let expected = occs.size_hint().0.min(LOAD_WINDOW);
        let mut fine_of: SeededHashMap<RunKey<'_>, u32> =
            SeededHashMap::with_capacity_and_hasher(expected, Default::default());
        let mut rows: Vec<&'c Row> = Vec::with_capacity(expected);
        for (sign, row, change) in occs {
            let Some(row) = row else { continue };
            let next = rows.len() as u32;
            let run = *fine_of.entry(RunKey { row, srcs: cols }).or_insert(next);
            if run == next {
                rows.push(row);
                fine.push(change);
                fine_sums.resize(fine_sums.len() + width, ExactSum::default());
            }
            // Signs are ±1.
            kept.push((change, run, sign as i32));
            let sums = &mut fine_sums[run as usize * width..][..width];
            for (sum, &col) in sums.iter_mut().zip(sum_cols.iter()) {
                sum.add(&row[col], sign);
            }
        }
        rows
    }

    /// The runs of consumer `k`'s key, a key no consumer before it has:
    /// each fine run its conditions keep goes to the run its key probes
    /// to, and each run is weighed by its occurrences in batch order.
    fn key_runs(&mut self, key: &ConsumerKey<'_>, k: usize, rows: &[&Row]) {
        if self.keys.len() == self.n_keys {
            self.keys.push(KeyRuns::default());
        }
        let Grouping {
            cols,
            occs,
            fine,
            keys,
            n_keys,
            ..
        } = self;
        let runs = &mut keys[*n_keys];
        *n_keys += 1;
        runs.consumer = k;
        runs.run_of.clear();
        runs.run_of.resize(fine.len(), DROPPED);
        runs.runs.clear();
        let fine_key = cols.iter().all(|c| key.srcs.contains(c));
        let mut run_of: SeededHashMap<RunKey<'_>, u32> = match fine_key {
            true => SeededHashMap::default(),
            false => SeededHashMap::with_capacity_and_hasher(fine.len(), Default::default()),
        };
        for (f, &change) in fine.iter().enumerate() {
            if !key.locals.passes(rows[f].values()) {
                continue;
            }
            let next = runs.runs.len() as u32;
            let run = match fine_key {
                true => next,
                false => *run_of
                    .entry(RunKey {
                        row: rows[f],
                        srcs: key.srcs,
                    })
                    .or_insert(next),
            };
            if run == next {
                runs.runs.push(Tally {
                    row: f as u32,
                    change,
                    ..Tally::default()
                });
            }
            runs.run_of[f] = run;
        }
        for &(_, f, sign) in occs.iter() {
            let run = runs.run_of[f as usize];
            if run == DROPPED {
                continue;
            }
            let run = &mut runs.runs[run as usize];
            run.len += 1;
            run.net += i64::from(sign);
            run.low = run.low.min(run.net);
        }
    }

    /// Consumer `k`'s sums over the runs of key `at`: each fine run's sums
    /// merged once into its run's.
    fn consumer_sums(&mut self, key: &ConsumerKey<'_>, k: usize, at: usize) {
        if self.consumers.len() == k {
            self.consumers.push(ConsumerRuns::default());
        }
        let Grouping {
            sum_cols,
            fine_sums,
            keys,
            consumers,
            ..
        } = self;
        let (runs, consumer) = (&keys[at], &mut consumers[k]);
        let width = key.sums.len();
        consumer.key = at;
        consumer.width = width;
        consumer.from.clear();
        let at_fine = |s: &Option<usize>| s.and_then(|s| sum_cols.iter().position(|&c| c == s));
        consumer.from.extend(key.sums.iter().map(at_fine));
        consumer.sums.clear();
        consumer
            .sums
            .resize(runs.runs.len() * width, ExactSum::default());
        let all = sum_cols.len();
        for (f, &run) in runs.run_of.iter().enumerate() {
            if run == DROPPED {
                continue;
            }
            let sums = &mut consumer.sums[run as usize * width..][..width];
            for (sum, from) in sums.iter_mut().zip(&consumer.from) {
                if let Some(u) = *from {
                    sum.merge(&fine_sums[f * all + u]);
                }
            }
        }
    }
}

/// A table group grouped for its consumers: what a [`Grouping`] holds
/// until the next group.
pub(crate) struct Grouped<'g, 'c> {
    grouping: &'g Grouping,
    /// The first row of each fine run.
    rows: Vec<&'c Row>,
}

impl Grouped<'_, '_> {
    /// Consumer `k`'s runs, `k` in the order the consumers were given.
    pub(crate) fn batch(&self, k: usize) -> RunBatch<'_> {
        RunBatch::build(self, k)
    }

    /// The occurrences grouped, the fine runs, the distinct keys and the
    /// consumers.
    pub(crate) fn shape(&self) -> (usize, usize, usize, usize) {
        let g = self.grouping;
        (g.occs.len(), g.fine.len(), g.n_keys, g.n_consumers)
    }
}

/// One consumer's runs of a table group, read off its [`Grouped`] fine
/// runs.
#[derive(Clone, Copy)]
pub(crate) struct RunBatch<'g> {
    /// The first row of each fine run.
    rows: &'g [&'g Row],
    /// The group's occurrences, in batch order: change, fine run, sign.
    occs: &'g [(usize, u32, i32)],
    /// Per fine run, its run or [`DROPPED`].
    run_of: &'g [u32],
    runs: &'g [Tally],
    /// Per run, its net sums, `width` of them, run after run.
    sums: &'g [ExactSum],
    width: usize,
}

/// One run of a [`RunBatch`]: one weighted `ΔX` tuple.
#[derive(Clone, Copy)]
pub(crate) struct Run<'b> {
    /// Its place among its batch's runs.
    at: u32,
    /// The row of its first occurrence: every occurrence shares its key.
    pub(crate) row: &'b Row,
    /// The change of its first occurrence.
    pub(crate) change: usize,
    /// How many occurrences it stands for.
    pub(crate) len: u32,
    /// Its weight: its occurrences' summed sign, and the lowest their
    /// running sum falls to in batch order (0 or below).
    pub(crate) net: i64,
    pub(crate) low: i64,
    /// The run's net sums, in the layout of the tuples it stands for.
    pub(crate) sums: &'b [ExactSum],
}

impl<'g> RunBatch<'g> {
    /// Consumer `k`'s runs of `grouped`.
    fn build(grouped: &'g Grouped<'_, '_>, k: usize) -> Self {
        let g = grouped.grouping;
        let consumer = &g.consumers[k];
        let runs = &g.keys[consumer.key];
        RunBatch {
            rows: &grouped.rows,
            occs: &g.occs,
            run_of: &runs.run_of,
            runs: &runs.runs,
            sums: &consumer.sums,
            width: consumer.width,
        }
    }

    /// The runs, in first-appearance order.
    pub(crate) fn runs(self) -> impl ExactSizeIterator<Item = Run<'g>> + 'g {
        (0..self.runs.len() as u32).map(move |r| self.run(r))
    }

    /// Run `r`.
    fn run(self, r: u32) -> Run<'g> {
        let (tally, width) = (&self.runs[r as usize], self.width);
        Run {
            at: r,
            row: self.rows[tally.row as usize],
            change: tally.change,
            len: tally.len,
            net: tally.net,
            low: tally.low,
            sums: &self.sums[r as usize * width..][..width],
        }
    }

    /// Per occurrence, in batch order: its change, its sign and its run —
    /// `None` where the consumer's local conditions drop its row.
    fn sides(self) -> impl Iterator<Item = (usize, i64, Option<Run<'g>>)> {
        self.occs.iter().map(move |&(change, f, sign)| {
            let run = self.run_of[f as usize];
            (
                change,
                i64::from(sign),
                (run != DROPPED).then(|| self.run(run)),
            )
        })
    }

    /// The change to blame for `err`, which folding `run` whole raised: a
    /// fold fails on its weight or a shared argument, never on a sum, so
    /// `fold` replays its occurrences one at a time in batch order, each
    /// as its weight `(sign, min(sign, 0))`, and the first to fail names
    /// it. The caller rolls the batch back: the replay is transient.
    pub(crate) fn blame(
        &self,
        run: &Run<'_>,
        err: MaintainError,
        mut fold: impl FnMut(i64, i64) -> Result<()>,
    ) -> (usize, MaintainError) {
        let occs = self.occs.iter();
        for &(change, _, sign) in occs.filter(|(_, f, _)| self.run_of[*f as usize] == run.at) {
            let sign = i64::from(sign);
            if let Err(e) = fold(sign, sign.min(0)) {
                return (change, e);
            }
        }
        (run.change, err)
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

#[cfg(test)]
pub(crate) mod tests {
    use md_algebra::{Aggregate, CmpOp, ColRef, Condition, GpsjView, RowEnv, SelectItem};
    use md_relation::{row, Change, DataType, Schema};
    use proptest::prelude::*;

    use super::*;
    use std::collections::BTreeMap;

    /// A run as the reference groups it: its first row, and its
    /// occurrences' signs, changes and sums.
    type Occurrences<'c> = (&'c Row, Vec<i64>, Vec<usize>, Vec<ExactSum>);

    /// A run as the test compares it: its first row by address, first
    /// change, occurrence count, weight `(net, low)` and sums, and per
    /// occurrence the change [`RunBatch::blame`] names and the weight it
    /// folds, in the order it replays them.
    type Run = (
        *const Row,
        usize,
        u32,
        (i64, i64),
        Vec<ExactSum>,
        Vec<Blamed>,
    );

    /// A change and the weight folded for it.
    pub(crate) type Blamed = (usize, (i64, i64));

    /// The grouping of one consumer alone, as the engine grouped each store
    /// and each summary without a root store before the group was grouped
    /// once for all of them: the reference the shared grouping must equal.
    /// It tests `conds`, the consumer's local conditions, by
    /// `Condition::eval`, not by the compiled filter the consumer holds,
    /// and weighs each run by its occurrences one at a time.
    fn reference<'c>(
        table: TableId,
        conds: &[Condition],
        key: ConsumerKey<'_>,
        occs: impl IntoIterator<Item = (i64, Option<&'c Row>, usize)>,
    ) -> Vec<Run> {
        let mut run_of: SeededHashMap<RunKey<'_>, usize> = SeededHashMap::default();
        let mut kept: Vec<(i64, &Row, usize, usize)> = Vec::new();
        let mut runs: Vec<Occurrences<'_>> = Vec::new();
        for (sign, row, i) in occs {
            let Some(row) = row else { continue };
            let env = RowEnv::single(table, row);
            if !conds.iter().all(|c| c.eval(&env).unwrap()) {
                continue;
            }
            let srcs = key.srcs;
            let run = *run_of.entry(RunKey { row, srcs }).or_insert(runs.len());
            if run == runs.len() {
                let sums = vec![ExactSum::default(); key.sums.len()];
                runs.push((row, Vec::new(), Vec::new(), sums));
            }
            kept.push((sign, row, i, run));
        }
        for &(sign, row, change, run) in &kept {
            let (_, signs, changes, sums) = &mut runs[run];
            signs.push(sign);
            changes.push(change);
            for (sum, src) in sums.iter_mut().zip(key.sums) {
                if let Some(src) = *src {
                    sum.add(&row[src], sign);
                }
            }
        }
        let runs = runs.into_iter().map(|(row, signs, changes, sums)| {
            let weight = crate::groups::tests::weigh(signs.iter().copied());
            let one_at_a_time = signs.iter().map(|&sign| (sign, sign.min(0)));
            let blamed = changes.iter().copied().zip(one_at_a_time).collect();
            let len = signs.len() as u32;
            (row as *const Row, changes[0], len, weight, sums, blamed)
        });
        runs.collect()
    }

    /// Per occurrence of `run`, in the order [`RunBatch::blame`] replays
    /// them: the change it names when the fold fails there, and the weight
    /// it folds.
    pub(crate) fn blamed(batch: &RunBatch<'_>, run: &super::Run<'_>) -> Vec<Blamed> {
        let refused = || MaintainError::InvariantViolation(String::new());
        let replay = |nth: usize| {
            let mut folded = Vec::new();
            let (change, _) = batch.blame(run, refused(), |net, low| {
                folded.push((net, low));
                match folded.len() > nth {
                    true => Err(refused()),
                    false => Ok(()),
                }
            });
            Some((change, *folded.get(nth)?))
        };
        (0..).map_while(replay).collect()
    }

    /// `batch`'s runs as [`reference`] returns them.
    fn read_off(batch: RunBatch<'_>) -> Vec<Run> {
        let runs = batch.runs().map(|run| {
            let row = run.row as *const Row;
            let sums = run.sums.to_vec();
            let blamed = blamed(&batch, &run);
            (row, run.change, run.len, (run.net, run.low), sums, blamed)
        });
        runs.collect()
    }

    /// `sale(id, timeid, productid, storeid, price, channel)`.
    fn sales() -> (Catalog, TableId) {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("timeid", DataType::Int),
            ("productid", DataType::Int),
            ("storeid", DataType::Int),
            ("price", DataType::Double),
            ("channel", DataType::Str),
        ]);
        let sale = cat.add_table("sale", schema, 0).unwrap();
        (cat, sale)
    }

    /// Sale `n` of 576: few enough values per column that rows repeat
    /// and runs share keys.
    fn sold(n: u64) -> Row {
        let n = n as i64;
        let price = [1.0, 2.5, 0.1, 3.0][(n / 72 % 4) as usize];
        let channel = ["web", "shop"][(n / 288 % 2) as usize];
        row![n % 4, n / 4 % 3, n / 12 % 3, n / 36 % 2, price, channel]
    }

    /// A change drawn as `(kind, a, b)`: inserts, deletes and updates,
    /// some moving the key.
    fn change((kind, a, b): (u8, u64, u64)) -> Change {
        match kind {
            0..=3 => Change::Insert(sold(a)),
            4..=5 => Change::Delete(sold(a)),
            _ => Change::Update {
                old: sold(a),
                new: sold(b),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048 })]

        /// Every consumer's runs off the one grouping equal, bit for bit,
        /// its grouping alone: run order, first row, first change,
        /// occurrence count, weight and sums, and the occurrences `blame`
        /// replays. Keys equal (also in another column order), nested,
        /// overlapping and disjoint; sums laid out as a store's and as a
        /// summary's without a root store; conditions on a column some
        /// key holds, on one no key holds, and an `INT` literal against a
        /// `DOUBLE` column.
        #[test]
        fn every_consumer_reads_off_the_one_grouping_what_it_groups_alone(
            drawn in proptest::collection::vec((0..9u8, 0..576u64, 0..576u64), 0..24),
            consumers in proptest::collection::vec((0..8usize, 0..4usize, 0..2usize), 1..7),
        ) {
            let (cat, sale) = sales();
            let price = ColRef::new(sale, 4);
            let channel = ColRef::new(sale, 5);
            let keys: [&[usize]; 8] =
                [&[1, 2], &[2, 1], &[2], &[3], &[1, 3], &[2, 4], &[4, 2], &[1, 2, 3]];
            let conds = [
                vec![],
                vec![Condition::cmp_lit(price, CmpOp::Ge, 2.0)],
                vec![Condition::cmp_lit(channel, CmpOp::Eq, "web")],
                vec![
                    Condition::cmp_lit(price, CmpOp::Ge, 2i64),
                    Condition::cmp_lit(channel, CmpOp::Ne, "shop"),
                ],
            ];
            let view = GpsjView::new("v", vec![sale], vec![], vec![]);
            let locals = conds.each_ref().map(|c| Filter::locals(&view, sale, c, &cat).unwrap());
            let sums: [&[Option<usize>]; 2] = [&[Some(4)], &[Some(4), None]];
            let consumers: Vec<(&[Condition], ConsumerKey<'_>)> = consumers
                .iter()
                .map(|&(k, l, s)| {
                    (&conds[l][..], ConsumerKey { locals: &locals[l], srcs: keys[k], sums: sums[s] })
                })
                .collect();
            let owned: Vec<Change> = drawn.into_iter().map(change).collect();
            let changes: Vec<ChangeRef<'_>> = owned.iter().map(ChangeRef::from).collect();
            let alone: Vec<Vec<Run>> = (consumers.iter())
                .map(|&(conds, key)| reference(sale, conds, key, occurrences(&changes)))
                .collect();
            let keys: Vec<ConsumerKey<'_>> = consumers.iter().map(|&(_, key)| key).collect();
            let mut grouping = Grouping::default();
            // Twice through the same buffers: what a group leaves behind
            // does not reach the next.
            for _ in 0..2 {
                let grouped = grouping.group(&keys, occurrences(&changes));
                let (occurrences, ..) = grouped.shape();
                let rows = super::occurrences(&changes).filter(|(_, row, _)| row.is_some());
                prop_assert_eq!(occurrences, rows.count());
                for (k, alone) in alone.iter().enumerate() {
                    prop_assert_eq!(&read_off(grouped.batch(k)), alone, "consumer {}", k);
                }
            }
        }
    }

    /// `category(id, department)`, `product(id, brand, categoryid, color)`
    /// and `sale(id, productid, price)`, with the food categories 1 and 3,
    /// and the plan of the product count by brand of the products that are
    /// not red, in a food category: `product`'s store keeps each product's
    /// key, brand and category, drops red ones, and semijoins the food
    /// categories — a snowflake partner present or absent.
    fn snowflake() -> (Database, TableId, DerivedPlan) {
        use DataType::{Double, Int, Str};
        let mut cat = Catalog::new();
        let columns = |c: &[(&str, DataType)]| Schema::from_pairs(c);
        let category =
            (cat.add_table("category", columns(&[("id", Int), ("department", Str)]), 0)).unwrap();
        let product_columns = [
            ("id", Int),
            ("brand", Str),
            ("categoryid", Int),
            ("color", Str),
        ];
        let product = cat
            .add_table("product", columns(&product_columns), 0)
            .unwrap();
        let sale_columns = [("id", Int), ("productid", Int), ("price", Double)];
        let sale = cat.add_table("sale", columns(&sale_columns), 0).unwrap();
        cat.add_foreign_key(product, 2, category).unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        // No category changes, so `product` depends on `category` and is
        // semijoin-reduced against it (Section 2.2).
        cat.set_append_only(category).unwrap();
        let items = vec![
            SelectItem::group_by(ColRef::new(product, 1), "brand"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ];
        let conditions = vec![
            Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
            Condition::eq_cols(ColRef::new(product, 2), ColRef::new(category, 0)),
            Condition::cmp_lit(ColRef::new(product, 3), CmpOp::Ne, "red"),
            Condition::cmp_lit(ColRef::new(category, 1), CmpOp::Eq, "food"),
        ];
        let view = GpsjView::new("brands", vec![sale, product, category], items, conditions);
        let plan = md_core::derive(&view, &cat).unwrap();
        let mut db = Database::new(cat);
        db.set_enforce_ri(false);
        for (id, department) in [(1, "food"), (2, "toys"), (3, "food")] {
            db.insert(category, row![id, department]).unwrap();
        }
        (db, product, plan)
    }

    /// Product `id` drawn from `(brand, category, color)`: category 4 is
    /// absent from the sources, 2 is not food.
    fn product(id: i64, (brand, category, color): (usize, usize, usize)) -> Row {
        let brand = ["b0", "b1", "b2"][brand % 3];
        let color = ["red", "blue", "green"][color % 3];
        row![id, brand, 1 + (category % 4) as i64, color]
    }

    /// A table group of `product` the sources could send, drawn as `(kind,
    /// id, values)` over the live rows `live`: an insert of an id not live,
    /// and of a live one a delete, an update of its brand (a kept column),
    /// its color (one only a local condition reads), its category (the
    /// semijoin's foreign key) or of nothing.
    fn product_group(
        live: &mut BTreeMap<i64, Row>,
        drawn: &[(u8, i64, (usize, usize, usize))],
    ) -> Vec<Change> {
        let mut changes = Vec::new();
        for &(kind, id, values) in drawn {
            let Some(old) = live.get(&id).cloned() else {
                let new = product(id, values);
                live.insert(id, new.clone());
                changes.push(Change::Insert(new));
                continue;
            };
            let drawn = product(id, values);
            let mut new = old.clone().into_values();
            match kind {
                0 => {
                    live.remove(&id);
                    changes.push(Change::Delete(old));
                    continue;
                }
                1 => new[1] = drawn[1].clone(),
                2 => new[3] = drawn[3].clone(),
                3 => new[2] = drawn[2].clone(),
                _ => {}
            }
            let new = Row::new(new);
            live.insert(id, new.clone());
            changes.push(Change::Update { old, new });
        }
        changes
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024 })]

        /// `ΔX_T` read off a store's runs ([`StoreRegistry::deltas`]) is,
        /// change by change, what the store's definition says of each
        /// side: its local conditions by `Condition::eval`, then its
        /// semijoin partners, then the projection onto its group columns —
        /// no change where the two sides project alike, else each side it
        /// keeps. And folding the runs leaves the store as folding each
        /// change's sides one at a time does, a keyed refusal included.
        #[test]
        fn delta_read_off_the_runs_is_its_per_change_definition(
            initial in proptest::collection::vec((0..3usize, 0..4usize, 0..3usize), 0..6),
            drawn in proptest::collection::vec((0..5u8, 1..9i64, (0..3usize, 0..4usize, 0..3usize)), 0..16),
            refused in any::<bool>(),
        ) {
            let (mut db, table, plan) = snowflake();
            let mut live = BTreeMap::new();
            for (id, values) in (1..).zip(initial) {
                let row = product(id, values);
                live.insert(id, row.clone());
                db.insert(table, row).unwrap();
            }
            let mut changes = product_group(&mut live, &drawn);
            let [mut runs, mut one_by_one] = [(); 2].map(|_| {
                let mut registry = StoreRegistry::new(db.catalog());
                let ids = registry.subscribe(&plan).unwrap();
                registry.load(&db, |_| 0).unwrap();
                registry.begin();
                let (_, id) = *ids.iter().find(|(t, _)| *t == table).unwrap();
                (registry, id)
            });
            let (registry, id) = (&runs.0, runs.1);
            prop_assert_eq!(registry.entry(id).srcs.as_slice(), &[0, 1, 2]);
            prop_assert_eq!(registry.entry(id).partners.len(), 1);

            // The reference: the store's definition, side by side.
            let def = plan.aux_for(table).unwrap();
            let entry = registry.entry(id);
            let keeps = |row: &Row| {
                let env = RowEnv::single(table, row);
                let passes = def.local_conditions.iter().all(|c| c.eval(&env).unwrap());
                let mut partners = entry.partners.iter();
                passes && partners.all(|&(col, t)| registry.store(t).contains_key_value(&row[col]))
            };
            // An insert under the key of a live row the store keeps: a
            // second tuple under one key value, which the store refuses.
            let held = live.iter().find(|(_, row)| keeps(row)).map(|(&id, _)| id);
            let refusal = held.filter(|_| refused).map(|id| product(id, (2, 0, 1)));
            changes.extend(refusal.clone().map(Change::Insert));
            let lent: Vec<ChangeRef<'_>> = changes.iter().map(ChangeRef::from).collect();
            let kept: Vec<[Option<&Row>; 2]> = (lent.iter())
                .map(|change| {
                    let (del, ins) = change.as_delete_insert();
                    [del.filter(|r| keeps(r)), ins.filter(|r| keeps(r))]
                })
                .collect();
            let projected = |row: Option<&Row>| row.map(|row| entry.store.group_key_of(row));

            let mut grouping = Grouping::default();
            let grouped = grouping.group(&[registry.consumer_key(id)], occurrences(&lent));
            let deltas: Vec<_> = registry.deltas(id, grouped.batch(0), &lent).collect();
            prop_assert_eq!(deltas.len(), lent.len());
            for (i, (&[del, ins], delta)) in kept.iter().zip(&deltas).enumerate() {
                let expected = (projected(del) != projected(ins)).then_some([del, ins]);
                prop_assert_eq!(delta, &expected, "change {}", i);
            }

            // The runs folded, against each kept side folded alone in
            // batch order.
            let folded = runs.0.fold_store(runs.1, &grouped.batch(0));
            drop(grouped);
            let (registry, id) = (&mut one_by_one.0, one_by_one.1);
            let store = &mut registry.entry_mut(id).store;
            let srcs = store.group_srcs().to_vec();
            let alone = kept.iter().try_for_each(|sides| {
                for (sign, row) in [-1, 1].into_iter().zip(sides) {
                    let Some(row) = *row else { continue };
                    store.apply_source_run(&RunKey { row, srcs: &srcs }, sign, sign.min(0), &[])?;
                }
                Ok::<(), MaintainError>(())
            });
            prop_assert_eq!(folded.is_ok(), alone.is_ok(), "{:?} {:?}", folded, alone);
            let contents = |r: &StoreRegistry, id| r.store(id).materialized_rows();
            if folded.is_ok() {
                prop_assert_eq!(contents(&runs.0, runs.1), contents(registry, id));
                prop_assert!(runs.0.store(runs.1).key_index_is_exact());
            }
            prop_assert_eq!(folded.is_ok(), refusal.is_none());
        }
    }

    /// `fold_runs` tests a run's semijoins on its first row, which holds
    /// for the whole run only if every semijoin's foreign-key column is a
    /// group column of its store: so it is, in every plan of the retail
    /// and snowflake views and of the random views the fuzz tests draw.
    #[test]
    fn every_semijoin_reads_a_group_column_of_its_store() {
        use md_workload::{random_setup, retail_catalog, snowflake_catalog, views, Contracts};
        let mut plans = Vec::new();
        for contracts in [Contracts::Tight, Contracts::Default] {
            let (cat, _) = retail_catalog(contracts);
            for view in [
                views::product_sales(&cat).unwrap(),
                views::product_sales_max(&cat).unwrap(),
                views::store_revenue(&cat).unwrap(),
                views::daily_product(&cat).unwrap(),
            ] {
                plans.push(md_core::derive(&view, &cat).unwrap());
            }
        }
        let (_, _, plan) = snowflake();
        plans.push(plan);
        let (cat, s) = snowflake_catalog();
        let category = ColRef::new(s.category, 1);
        let items = vec![
            SelectItem::group_by(category, "category"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ];
        let conditions = vec![
            Condition::eq_cols(ColRef::new(s.sale, 2), ColRef::new(s.product, 0)),
            Condition::eq_cols(ColRef::new(s.product, 2), ColRef::new(s.category, 0)),
            Condition::cmp_lit(ColRef::new(s.category, 2), CmpOp::Eq, "food"),
        ];
        let tables = vec![s.sale, s.product, s.category];
        let view = GpsjView::new("by_category", tables, items, conditions);
        plans.push(md_core::derive(&view, &cat).unwrap());
        for seed in 0..256 {
            let setup = random_setup(seed);
            if let Ok(plan) = md_core::derive(&setup.view, &setup.catalog) {
                plans.push(plan);
            }
        }
        let mut semijoins = 0;
        for plan in &plans {
            for def in plan.materialized() {
                let kept = def.group_source_cols();
                for target in &def.semijoins {
                    let mut edges = plan.graph.children(def.table);
                    let edge = edges.find(|e| e.to == *target).unwrap();
                    assert!(kept.contains(&edge.fk_col), "{}: {def:?}", plan.view.name);
                    semijoins += 1;
                }
            }
        }
        assert!(semijoins > 0);
    }

    #[test]
    fn a_load_names_each_row_by_its_position_in_the_table() {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]);
        let t = cat.add_table("t", schema, 0).unwrap();
        let mut db = Database::new(cat);
        for id in 0..10 {
            db.insert(t, row![id, id * 10]).unwrap();
        }
        for id in [2, 5] {
            db.delete(t, &Value::Int(id)).unwrap();
        }
        let live = [0, 1, 3, 4, 6, 7, 8, 9].map(Value::Int);

        // Eight live rows, three to a window: positions run on across
        // windows, and an error stops the load where it was raised.
        let mut seen = Vec::new();
        let loaded = load_windows(db.table(t), 3, |rows, at| {
            seen.extend(inserts(rows, at).map(|(sign, row, i)| (sign, row.unwrap()[0].clone(), i)));
            Ok::<(), ()>(())
        });
        let (rows, windows) = loaded.map(|l| (l.rows, l.windows)).unwrap();
        assert_eq!((rows, windows), (8, 3));
        let expected: Vec<_> = live
            .iter()
            .enumerate()
            .map(|(i, id)| (1, id.clone(), i))
            .collect();
        assert_eq!(seen, expected);

        let mut starts = Vec::new();
        let failed = load_windows(db.table(t), 3, |_, at| {
            starts.push(at);
            if at > 0 {
                Err(at)
            } else {
                Ok(())
            }
        });
        assert_eq!((failed.map(|_| ()), starts), (Err(3), vec![0, 3]));
    }
}
