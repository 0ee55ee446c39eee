//! The self-maintenance engine.
//!
//! A [`SummaryEngine`] keeps one summary view `V` of one derived plan
//! consistent with the auxiliary views `X` it reads under source change
//! streams **without ever reading the base tables** (the defining property
//! of self-maintainability, paper Section 2.2). It owns `V` alone: its
//! auxiliary stores live in a [`StoreRegistry`], held once for every
//! summary whose plan derives the same definition and folded once per
//! batch (`registry.rs`, driven by `pass.rs`). The only base-table access
//! in an engine's lifetime is its initial load.
//!
//! Change handling:
//!
//! * **Root (fact) table deltas** arrive as *runs* of rows sharing one key,
//!   grouped and summed once per table group for every store of the table
//!   and every summary without a root store — and folded into `X_{R₀}`,
//!   semijoin reductions respected, once per store: each run is a signed
//!   `ΔX_{R₀}` tuple, which the reconstruction query's one walk joins to the
//!   *auxiliary* dimension views by key lookups and folds into the affected
//!   summary group. CSMAS aggregates adjust in O(1), and `MIN`/`MAX`/
//!   `DISTINCT` move one entry of the group's value counts (see
//!   [`crate::summary`]) — no aggregate is ever re-derived from `X` by the
//!   feed.
//! * **Dimension changes** are deltas too: `ΔX_T ⋈ X_{R₀}` of a whole
//!   table group, retracted under the dimension stores before the group
//!   and inserted under them after it, a bucket of root auxiliary tuples
//!   per summary group at a time, through the same summary kernel the
//!   root path uses (see `dimension.rs`, a child of this module).
//!
//! Either way a table group is one fold: its per-change fault points fire
//! up front and the flush point after the last fold.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use md_algebra::{eval_view, ColRef, RowEnv};
use md_core::non_csmas_columns;
use md_core::DerivedPlan;
use md_obs::{Counter, Histogram, Obs};
use md_relation::{Bag, Catalog, ChangeRef, Database, Row, TableId, Value};

use crate::error::{MaintainError, Result};
use crate::fault::FaultPlan;
use crate::filter::Filter;
use crate::reconstruct::{agg_inputs, AggInput, Recon, ReconExecutor};
use crate::registry::{
    inserts, load_windows, occurrences, ConsumerKey, Grouping, RunBatch, StoreId, StoreRegistry,
    ViewStores, LOAD_WINDOW,
};
use crate::resolve::{Binding, Resolution};
use crate::store::AuxStore;
use crate::summary::SummaryStore;

// The dimension-delta path extends the engine's private state, so it is a
// child of this module; its file sits beside `reconstruct.rs`, whose walk
// it shares.
#[path = "dimension.rs"]
mod dimension;

/// Counters describing the work the engine has done — the measurements
/// behind the maintenance-cost experiments (E9).
///
/// A point-in-time *view* over the engine's registered `md-obs` counters
/// (`maintain.rows_processed{summary=…}` and friends), holding the fields
/// the benchmark reads. Every field is a process-local count that only
/// goes up: no snapshot carries it (a restored or recovered engine counts
/// from zero), the initial load counts nothing, and a batch that is rolled
/// back stays counted — its work was genuinely done.
///
/// Time is not here. Each batch's fold and commit time of this summary is
/// one observation of the `maintain.prepare_nanos{summary=…}` and
/// `maintain.commit_nanos{summary=…}` histograms (recorded under
/// `ObsConfig::metrics()` or `full()`); summed over the summaries their
/// sums are at most the scheduler's `fanout_nanos` and `commit_nanos`
/// (`md-warehouse`). The remainder is the scheduler's own work and the
/// shared stores' folds, which are nobody's share: they are counted once,
/// by table, as `maintain.store_folds` and `maintain.store_runs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Source delta rows processed (after update splitting).
    pub rows_processed: u64,
    /// Summary groups whose non-CSMAS aggregates were recomputed from `X`.
    /// Always 0: their value counts answer every delete. The field stays
    /// for the benchmark, which reads it.
    pub groups_recomputed: u64,
    /// Full summary rebuilds from `X` ([`SummaryEngine::rebuild_summary`],
    /// i.e. quarantine repair — never the feed).
    pub summary_rebuilds: u64,
    /// Dimension changes proven to be no-ops on `V`: an empty `ΔX`, or an
    /// insert/delete on a dependency edge.
    pub dim_noop_changes: u64,
    /// Dimension changes propagated as a delta: the affected root
    /// auxiliary tuples (or, root omitted, the pinned groups) moved
    /// between summary groups.
    pub dim_targeted_updates: u64,
}

/// The engine's live counter handles — the storage behind [`MaintStats`].
/// Detached (unregistered) atomics until a warehouse adopts the engine
/// into its metrics registry via [`SummaryEngine::set_obs`]; the increment
/// cost is identical either way. Nothing writes one but an increment.
#[derive(Debug, Clone, Default)]
struct MaintCounters {
    rows_processed: Counter,
    summary_rebuilds: Counter,
    dim_noop_changes: Counter,
    dim_targeted_updates: Counter,
    /// Root-delta runs folded (`maintain.runs`), and how many occurrences
    /// each held (`maintain.run_len`): what a change costs depends on how
    /// many share its run. Not part of [`MaintStats`].
    runs: Counter,
    run_len: Histogram,
    /// Root auxiliary tuples joined by dimension deltas
    /// (`maintain.dim_joined`), and the bucketed runs they were folded as
    /// (`maintain.dim_runs`, retracts and inserts alike): what a dimension
    /// delta costs is per group touched, not per tuple moved. Outside
    /// [`MaintStats`] like `runs`.
    dim_joined: Counter,
    dim_runs: Counter,
    /// Per-batch fold time (`maintain.prepare_nanos`), a batch rolled
    /// back included: the one record of this summary's time.
    prepare_nanos: Histogram,
    /// Per-batch commit time (`maintain.commit_nanos`).
    commit_nanos: Histogram,
}

impl MaintCounters {
    /// Registry-backed handles labeled with this engine's summary name.
    fn registered(obs: &Obs, summary: &str) -> Self {
        let labels = [("summary", summary)];
        MaintCounters {
            rows_processed: obs.counter("maintain.rows_processed", &labels),
            summary_rebuilds: obs.counter("maintain.summary_rebuilds", &labels),
            dim_noop_changes: obs.counter("maintain.dim_noop_changes", &labels),
            dim_targeted_updates: obs.counter("maintain.dim_targeted_updates", &labels),
            runs: obs.counter("maintain.runs", &labels),
            run_len: obs.histogram("maintain.run_len", &labels),
            dim_joined: obs.counter("maintain.dim_joined", &labels),
            dim_runs: obs.counter("maintain.dim_runs", &labels),
            prepare_nanos: obs.histogram("maintain.prepare_nanos", &labels),
            commit_nanos: obs.histogram("maintain.commit_nanos", &labels),
        }
    }

    /// The current values as the stats struct.
    fn stats(&self) -> MaintStats {
        MaintStats {
            rows_processed: self.rows_processed.get(),
            groups_recomputed: 0,
            summary_rebuilds: self.summary_rebuilds.get(),
            dim_noop_changes: self.dim_noop_changes.get(),
            dim_targeted_updates: self.dim_targeted_updates.get(),
        }
    }
}

/// The result of [`SummaryEngine::audit`]: a list of invariant
/// violations found by cross-checking `V` against `X`. A clean report is
/// empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Human-readable descriptions of every violated invariant.
    pub findings: Vec<String>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Storage accounting for one materialized object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageLine {
    /// Object name: an auxiliary view, the summary, or `value counts` for
    /// the summary's `MIN`/`MAX`/`DISTINCT` states.
    pub name: String,
    /// Stored tuples.
    pub rows: u64,
    /// Bytes in the paper's `fields × 4 bytes` model.
    pub paper_bytes: u64,
}

/// What the root-delta path derives from the plan and the catalog alone.
struct RootDelta {
    /// The root's local conditions, compiled.
    locals: Filter,
    /// Root source columns a delta row is projected onto to form its run
    /// key: the root auxiliary view's group columns, or — root omitted —
    /// the root-sourced group-by columns, outgoing foreign keys and
    /// `MIN`/`MAX`/`DISTINCT` arguments.
    run_srcs: Vec<usize>,
    /// Root omitted, per aggregate: the root column this engine's own runs
    /// sum at its position, where a group of `V` holds the sum.
    sum_srcs: Vec<Option<usize>>,
    /// The view's group-by columns.
    group_cols: Vec<ColRef>,
    /// Each aggregate's input, which every walk to `V` reads.
    inputs: Vec<AggInput>,
}

impl RootDelta {
    /// What a root group is grouped by for this engine.
    fn key(&self) -> ConsumerKey<'_> {
        ConsumerKey {
            locals: &self.locals,
            srcs: &self.run_srcs,
            sums: &self.sum_srcs,
        }
    }
}

/// The self-maintenance engine of one summary: it owns `V` and borrows
/// its auxiliary stores from a [`StoreRegistry`].
pub struct SummaryEngine {
    catalog: Catalog,
    plan: DerivedPlan,
    /// The store of each materialized table, in table order.
    stores: Vec<(TableId, StoreId)>,
    /// `X_{R₀}`'s among them, when materialized.
    root_store: Option<StoreId>,
    summary: SummaryStore,
    /// What the root-delta path reads that is fixed per engine (shared,
    /// so a batch can hold it across `&mut self` calls).
    root_delta: Arc<RootDelta>,
    /// What reconstruction reads of the plan — the rebuild's, the
    /// audit's and the dimension deltas' — derived once (`None`: an
    /// append-only plan without `X_{R₀}`, which is its own
    /// reconstruction).
    recon: Option<Recon>,
    /// Per direct root→child edge, the child and the position of its
    /// foreign key within the run key: the fk-index edges this summary
    /// joins along.
    fk_edges: Vec<(TableId, usize)>,
    counters: MaintCounters,
    /// Observability handle (noop until a warehouse adopts this engine).
    obs: Obs,
    /// Root omitted: the LSN of the last batch of the root this summary
    /// committed — the one position it keeps itself. Of every other table
    /// it holds the batches its store holds ([`Self::applied_lsn`]).
    root_lsn: u64,
    /// The open batch, when there is one: the nanoseconds its folds took
    /// so far, when its time is recorded. The summary store keeps the
    /// batch's undo log, the shared stores theirs.
    txn: Option<u64>,
    /// The open dimension group's retract, which its insert reads.
    retracted: Option<dimension::DimStep>,
    /// Fault-injection hooks (disarmed in production).
    faults: FaultPlan,
}

impl SummaryEngine {
    /// Creates an engine for `plan` with an empty summary, subscribed to
    /// the stores of `registry` its plan derives — found by definition
    /// among those resident, or created empty for [`Self::initial_load`]
    /// or a restore to fill. The plan's local conditions, sums and
    /// `HAVING` are compiled against the catalog here: one that does not
    /// compile is refused, naming the view and the condition, and nothing
    /// is subscribed.
    pub fn new(plan: DerivedPlan, catalog: &Catalog, registry: &mut StoreRegistry) -> Result<Self> {
        let root = plan.graph.root();
        let summary = SummaryStore::new(&plan.view, catalog, plan.regime)?;
        // A run's dimension chain, semijoin test, summary group and every
        // argument a value count reads are resolved from its key alone, so
        // the key must carry every root-sourced group-by attribute, every
        // outgoing foreign key and every root `MIN`/`MAX`/`DISTINCT`
        // argument.
        let mut needed: Vec<usize> = plan
            .view
            .group_by_cols()
            .iter()
            .filter(|c| c.table == root)
            .map(|c| c.column)
            .chain(plan.graph.children(root).map(|edge| edge.fk_col))
            .chain(non_csmas_columns(&plan.view, root))
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let run_srcs = match plan.aux_for(root) {
            None => needed,
            Some(def) => {
                let kept = def.group_source_cols();
                if let Some(lost) = needed.iter().find(|c| !kept.contains(c)) {
                    return Err(MaintainError::InvariantViolation(format!(
                        "root auxiliary view {} does not retain source column {lost}, \
                         which resolving a delta run needs",
                        def.name
                    )));
                }
                kept
            }
        };
        let fk_edges = plan
            .graph
            .children(root)
            .filter_map(|e| Some((e.to, run_srcs.iter().position(|&s| s == e.fk_col)?)))
            .collect();
        let inputs = agg_inputs(&plan);
        let sum_srcs = (inputs.iter())
            .map(|input| match *input {
                AggInput::Root { col, summed } => summed.and(Some(col)),
                _ => None,
            })
            .collect();
        let locals = Filter::locals(&plan.view, root, plan.view.local_conditions(root), catalog)?;
        let root_delta = Arc::new(RootDelta {
            locals,
            run_srcs,
            sum_srcs,
            group_cols: plan.view.group_by_cols(),
            inputs,
        });
        let recon = Recon::new(&plan);
        let stores = registry.subscribe(&plan)?;
        let root_store = stores.iter().find(|(t, _)| *t == root).map(|(_, id)| *id);
        Ok(SummaryEngine {
            catalog: catalog.clone(),
            recon,
            plan,
            stores,
            root_store,
            summary,
            root_delta,
            fk_edges,
            counters: MaintCounters::default(),
            obs: Obs::noop(),
            root_lsn: 0,
            txn: None,
            retracted: None,
            faults: FaultPlan::default(),
        })
    }

    /// Gives this engine's stores back to `registry`: each goes when its
    /// last subscriber does.
    pub fn release(self, registry: &mut StoreRegistry) {
        registry.unsubscribe(&self.plan, &self.stores);
    }

    /// The summary's name.
    pub fn name(&self) -> &str {
        &self.plan.view.name
    }

    /// The derived plan this engine maintains.
    pub fn plan(&self) -> &DerivedPlan {
        &self.plan
    }

    /// The maintained summary view.
    pub fn summary(&self) -> &SummaryStore {
        &self.summary
    }

    /// The maintained summary contents as output rows.
    pub fn summary_bag(&self) -> Result<Bag> {
        Ok(self.summary.to_bag())
    }

    /// The store of each table this summary materializes, in table order.
    pub fn store_ids(&self) -> &[(TableId, StoreId)] {
        &self.stores
    }

    /// The root auxiliary store's id, when materialized.
    pub(crate) fn root_store(&self) -> Option<StoreId> {
        self.root_store
    }

    /// The store of `table`, when materialized.
    pub fn store_of(&self, table: TableId) -> Option<StoreId> {
        self.stores
            .iter()
            .find(|(t, _)| *t == table)
            .map(|(_, id)| *id)
    }

    /// The reconstruction query over this summary's stores in `registry`.
    fn executor<'a>(&'a self, registry: &'a StoreRegistry) -> ReconExecutor<'a> {
        let (plan, catalog, fixed, ids) =
            (&self.plan, &self.catalog, &self.root_delta, &self.stores);
        let view = ViewStores { registry, ids };
        ReconExecutor::over(plan, catalog, view, &fixed.group_cols, &fixed.inputs)
    }

    /// This summary's auxiliary stores in `registry`, in table order.
    pub fn aux_stores<'a>(
        &'a self,
        registry: &'a StoreRegistry,
    ) -> impl Iterator<Item = &'a AuxStore> {
        self.stores.iter().map(|(_, id)| registry.store(*id))
    }

    /// Work counters (a point-in-time view over the engine's `md-obs`
    /// handles; see [`MaintStats`]).
    pub fn stats(&self) -> MaintStats {
        self.counters.stats()
    }

    /// Adopts this engine into an observability context: its counters are
    /// re-registered in `obs`'s metrics registry under
    /// `maintain.*{summary="<view>"}` keys, counting on from what the
    /// registry holds there (nothing, in a fresh one), and its folds and
    /// commits start emitting spans when tracing is on. Called by the
    /// warehouse at registration and restore, before the engine folds
    /// anything.
    pub fn set_obs(&mut self, obs: Obs) {
        self.counters = MaintCounters::registered(&obs, &self.plan.view.name);
        self.obs = obs;
    }

    /// Installs the fault-injection plan this engine consults at its
    /// transaction checkpoints. Testing only; the default plan is free.
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The highest committed batch LSN for `table` (0 = none yet). `V` is
    /// a function of `X` (Section 3.2), so of a table this summary keeps a
    /// store of it holds the batches the store in `registry` holds; only
    /// the root of a plan without `X_{R₀}` has a mark of its own.
    pub fn applied_lsn(&self, table: TableId, registry: &StoreRegistry) -> u64 {
        match self.store_of(table) {
            Some(id) => registry.lsn(id),
            None if table == self.plan.graph.root() => self.root_lsn,
            None => 0,
        }
    }

    /// Root omitted: sets the LSN of the last root batch the summary holds.
    pub(crate) fn set_root_lsn(&mut self, lsn: u64) {
        self.root_lsn = lsn;
    }

    /// The summary store, to be filled by a snapshot restore.
    pub(crate) fn summary_mut(&mut self) -> &mut SummaryStore {
        &mut self.summary
    }

    /// Per-object storage accounting: the auxiliary views, the summary
    /// and — for a view with `MIN`/`MAX`/`DISTINCT` aggregates — their
    /// value counts, which are derived from `X` and not part of it.
    pub fn storage_report(&self, registry: &StoreRegistry) -> Vec<StorageLine> {
        let mut lines: Vec<StorageLine> = self
            .aux_stores(registry)
            .map(|s| StorageLine {
                name: s.def().name.clone(),
                rows: s.len() as u64,
                paper_bytes: s.paper_bytes(),
            })
            .collect();
        lines.push(StorageLine {
            name: self.plan.view.name.clone(),
            rows: self.summary.len() as u64,
            paper_bytes: self.summary.paper_bytes(),
        });
        if let Some((rows, paper_bytes)) = self.summary.value_count_footprint() {
            lines.push(StorageLine {
                name: "value counts".to_string(),
                rows,
                paper_bytes,
            });
        }
        lines
    }

    // ------------------------------------------------------------------
    // Initial load
    // ------------------------------------------------------------------

    /// Loads the summary from its stores, which [`StoreRegistry::load`]
    /// filled: `V` is their reconstruction (Section 3.2) — or, when the
    /// root auxiliary view was eliminated, the root table of `db` folded
    /// as batches of inserts, a window of its rows at a time as a store
    /// loads, committed at `root_lsn` as the store loads are at their
    /// tables'. The load is not a batch: it runs outside a transaction,
    /// consults no fault point, and leaves the work counters alone (the
    /// batch path counts around the root fold the two share).
    pub fn initial_load(
        &mut self,
        registry: &StoreRegistry,
        db: &Database,
        root_lsn: u64,
    ) -> Result<()> {
        self.initial_load_by(LOAD_WINDOW, registry, db, root_lsn)
    }

    /// [`Self::initial_load`], reading `window` root rows at a time.
    pub(crate) fn initial_load_by(
        &mut self,
        window: usize,
        registry: &StoreRegistry,
        db: &Database,
        root_lsn: u64,
    ) -> Result<()> {
        if self.root_store.is_some() {
            self.summary = self.reconstructed(registry)?;
            return Ok(());
        }
        // Root auxiliary view eliminated: V is maintained from root deltas
        // and the dimension auxiliary views alone, so that is how it loads.
        let root = self.plan.graph.root();
        let span = registry.load_span(root);
        let mut grouping = Grouping::default();
        let fixed = Arc::clone(&self.root_delta);
        let loaded = load_windows(db.table(root), window, |rows, at| {
            let grouped = grouping.group(&[fixed.key()], inserts(rows, at));
            let batch = grouped.batch(0);
            self.fold_root_runs(&batch, registry)
        })?;
        drop(loaded.fields(span).field("groups", self.summary.len()));
        self.root_lsn = root_lsn;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Change application
    // ------------------------------------------------------------------

    /// Opens this summary's part of a batch over `groups` (those of its
    /// tables): refused while a batch is open. On error nothing is open.
    pub(crate) fn begin_batch(&mut self, groups: &[(TableId, &[ChangeRef<'_>])]) -> Result<()> {
        // A second prepare would restart every journal and strand the
        // first batch's mutations behind a rollback that cannot see them.
        if self.txn.is_some() {
            return Err(MaintainError::InvariantViolation(format!(
                "prepared batch still open on '{}': commit_batch or rollback_prepared \
                 must close it before the next prepare_batch",
                self.plan.view.name
            )));
        }
        self.summary.begin_undo();
        self.txn = Some(0);
        if let Err(e) = self
            .faults
            .hit_scoped("engine.apply.begin", &self.plan.view.name)
        {
            let mut tables = groups.iter().map(|(t, _)| *t);
            let table = tables.find(|t| self.plan.view.tables.contains(t));
            self.rollback_prepared();
            return Err(self.reject(table.unwrap_or_else(|| self.plan.graph.root()), None, e));
        }
        Ok(())
    }

    /// The start of a fold, when `maintain.prepare_nanos` records it: the
    /// clock is read only for a histogram that keeps the time.
    fn fold_started(&self) -> Option<Instant> {
        self.counters.prepare_nanos.is_enabled().then(Instant::now)
    }

    /// Adds the time of one of this batch's folds to the open batch.
    fn note_fold(&mut self, started: Option<Instant>) {
        if let (Some(nanos), Some(started)) = (&mut self.txn, started) {
            *nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Folds one root group into the summary: its runs as its root store
    /// grouped them or — root omitted — as it groups them itself, both
    /// read off the group's one grouping (`batch`). A plan with a root
    /// store holds the batches the store holds, so it always gets the
    /// store's runs.
    /// Per-change fault points fire upfront, in change order, and the
    /// flush point after the last fold.
    pub(crate) fn fold_root_group(
        &mut self,
        table: TableId,
        changes: &[ChangeRef<'_>],
        batch: Option<RunBatch<'_>>,
        registry: &StoreRegistry,
    ) -> Result<()> {
        let started = self.fold_started();
        let span = self
            .obs
            .span("maintain.prepare")
            .field("summary", self.plan.view.name.as_str())
            .field("rows", changes.len());
        let result = self.fold_root_group_inner(table, changes, batch, registry);
        drop(span);
        self.note_fold(started);
        result
    }

    fn fold_root_group_inner(
        &mut self,
        table: TableId,
        changes: &[ChangeRef<'_>],
        batch: Option<RunBatch<'_>>,
        registry: &StoreRegistry,
    ) -> Result<()> {
        for i in 0..changes.len() {
            self.faults
                .hit_scoped("engine.apply.change", &self.plan.view.name)
                .map_err(|e| self.reject(table, Some(i), e))?;
        }
        let Some(batch) = batch else {
            let cause = MaintainError::InvariantViolation(format!(
                "'{}' got a root group its root store did not fold",
                self.plan.view.name
            ));
            return Err(self.reject(table, None, cause));
        };
        let counters = &self.counters;
        let rows = occurrences(changes).filter(|(_, row, _)| row.is_some());
        counters.rows_processed.add(rows.count() as u64);
        counters.runs.add(batch.runs().len() as u64);
        for run in batch.runs() {
            counters.run_len.observe(u64::from(run.len));
        }
        self.fold_root_runs(&batch, registry)?;
        // Every fold of the table group is in place, nothing of it is
        // committed: the last point a fault can undo all of them from.
        self.faults
            .hit_scoped("engine.apply.flush", &self.plan.view.name)
    }

    /// What this engine's root-delta path groups a root group by: its
    /// root's local conditions, its run key, and a sum where a group of
    /// `V` holds one.
    pub(crate) fn root_key(&self) -> ConsumerKey<'_> {
        self.root_delta.key()
    }

    /// Folds the runs of `batch` into the summary: each run is one signed
    /// `ΔX_{R₀}` tuple, which takes the reconstruction query's one walk
    /// ([`ReconExecutor::share_of`]) to its summary group and arguments,
    /// and which the summary kernel folds when it joins through; a single
    /// change is a run of one. The committed state equals folding the
    /// occurrences one at a time, in order. A run on groups that exist
    /// allocates nothing: its resolution, summary group key and arguments
    /// are borrowed into buffers every run of the batch reuses, and the
    /// summary journals into buffers every batch reuses. A failure
    /// rejects the batch, naming the change to blame.
    fn fold_root_runs(&mut self, batch: &RunBatch<'_>, registry: &StoreRegistry) -> Result<()> {
        let SummaryEngine {
            catalog,
            plan,
            root_delta: fixed,
            stores: ids,
            summary,
            ..
        } = self;
        let view = ViewStores { registry, ids };
        let exec = ReconExecutor::over(plan, catalog, view, &fixed.group_cols, &fixed.inputs);
        let mut res = Resolution::new();
        let (mut vgroup, mut args) = (Vec::new(), Vec::new());
        let root = plan.graph.root();
        for run in batch.runs() {
            let binding = Binding::seen_through(&fixed.run_srcs, run.row);
            let joins = exec.share_of(binding, run.sums, &mut res, &mut vgroup, &mut args);
            if !joins.map_err(|e| reject(catalog, root, Some(run.change), e))? {
                continue;
            }
            let key = vgroup.as_slice();
            if let Err(err) = summary.apply_run(&key, run.net, run.low, &args) {
                let refold = |net, low| summary.apply_run(&key, net, low, &args);
                let (i, e) = batch.blame(&run, err, refold);
                return Err(reject(catalog, root, Some(i), e));
            }
        }
        Ok(())
    }

    /// Second phase of a two-phase apply: keeps the prepared batch and,
    /// root omitted, records the root LSN of `lsns` — the stores record
    /// the rest.
    pub(crate) fn commit_batch(&mut self, lsns: &[(TableId, u64)]) {
        let _span = self
            .obs
            .span("maintain.commit")
            .field("summary", self.plan.view.name.as_str());
        let started = self.counters.commit_nanos.is_enabled().then(Instant::now);
        self.summary.commit_undo();
        if let Some(nanos) = self.txn.take() {
            self.counters.prepare_nanos.observe(nanos);
        }
        if self.root_store.is_none() {
            let root = self.plan.graph.root();
            for &(_, lsn) in lsns.iter().filter(|(t, _)| *t == root) {
                self.root_lsn = self.root_lsn.max(lsn);
            }
        }
        if let Some(started) = started {
            let nanos = started.elapsed().as_nanos() as u64;
            self.counters.commit_nanos.observe(nanos);
        }
    }

    /// Second phase of a two-phase apply: undoes the prepared batch,
    /// restoring the summary to its pre-batch state. No-op when no batch
    /// is open.
    pub(crate) fn rollback_prepared(&mut self) {
        let Some(nanos) = self.txn.take() else {
            return;
        };
        self.retracted = None;
        self.summary.rollback_undo();
        // The batch stays counted: its work and time were spent.
        self.counters.prepare_nanos.observe(nanos);
    }

    /// Wraps `cause` as a batch rejection, unless it already is one.
    pub(crate) fn reject(
        &self,
        table: TableId,
        change_index: Option<usize>,
        cause: MaintainError,
    ) -> MaintainError {
        reject(&self.catalog, table, change_index, cause)
    }

    /// Rebuilds the summary view from the auxiliary views alone — the
    /// paper's reconstruction query run as a standalone repair, e.g. to
    /// bring a quarantined summary back to the stores that kept folding
    /// while it was out. Any open transaction of the summary is rolled
    /// back first, then `V` is rebuilt from `X`, holding the batches the
    /// stores hold; a failed rebuild leaves it as it was. Root omitted,
    /// the root LSN is left as it was: the root batches since are in the
    /// change log alone.
    /// Returns the number of summary rows after the rebuild.
    pub fn rebuild_summary(&mut self, registry: &StoreRegistry) -> Result<u64> {
        self.rollback_prepared();
        let _span = self
            .obs
            .span("maintain.rebuild")
            .field("summary", self.plan.view.name.as_str());
        self.counters.summary_rebuilds.incr();
        self.summary = self.reconstructed(registry)?;
        Ok(self.summary.len() as u64)
    }

    /// `V` rebuilt from `X` beside the live summary — the one place that
    /// rebuilds it: the reconstruction query over this summary's stores
    /// (Section 3.2), whose compressed root tuples are the groups of
    /// `X_{R₀}` or, root omitted, those of the live `V`. An append-only
    /// plan without `X_{R₀}` is its own reconstruction. This is also the
    /// summary a quarantined engine's image carries, so that the image
    /// holds no summary behind the stores it shares.
    pub(crate) fn reconstructed(&self, registry: &StoreRegistry) -> Result<SummaryStore> {
        let Some(recon) = &self.recon else {
            return Ok(self.summary.clone());
        };
        let exec = self.executor(registry);
        match self.root_store {
            Some(id) => exec.summary(recon, registry.store(id).iter()),
            None => exec.summary(recon, self.summary.iter()),
        }
    }

    // ------------------------------------------------------------------
    // Verification
    // ------------------------------------------------------------------

    /// Source-free integrity audit: rebuilds `V` from `X` and holds the
    /// maintained groups against it state by state — value counts
    /// included, since a wrong count can hide behind today's right
    /// answer — and checks that every group's value counts add up to its
    /// hidden count. Without `X_{R₀}` the groups of `V` are the compressed
    /// root tuples, so each is walked once instead: it must land on its
    /// own key and hold what it carries of the dimension stores. Unlike
    /// [`Self::verify_against`], this never touches base tables, so a
    /// live warehouse can run it at any time. Returns the violations found
    /// (an empty report means the engine's invariants all hold). Each of
    /// the summary's stores must also keep an exact key index, which the
    /// rebuild reads and so cannot check.
    pub fn audit(&self, registry: &StoreRegistry) -> AuditReport {
        let own = self.stores.iter().map(|&(_, id)| id);
        let inexact: Vec<StoreId> = own
            .filter(|&id| !registry.store(id).key_index_is_exact())
            .collect();
        self.audit_with(registry, &inexact)
    }

    /// [`Self::audit`], given the stores whose key index a walk of the
    /// registry found inexact ([`StoreRegistry::inexact_key_indexes`]):
    /// a warehouse walks each store once, however many summaries read it.
    pub fn audit_with(
        &self,
        registry: &StoreRegistry,
        inexact_key_indexes: &[StoreId],
    ) -> AuditReport {
        let mut findings = Vec::new();
        for &(_, id) in &self.stores {
            if inexact_key_indexes.contains(&id) {
                findings.push(format!(
                    "key index of {} diverges from its group keys",
                    registry.store(id).def().name
                ));
            }
        }
        for (key, state) in self.summary.iter() {
            if let Err(e) = self.summary.check_group(key, state) {
                findings.push(e.to_string());
            }
        }
        let Some(recon) = &self.recon else {
            // An append-only plan without X_{R₀}: X holds nothing to check
            // V against, and its dimension rows never change.
            return AuditReport { findings };
        };
        if let Some(id) = self.root_store {
            match self.reconstructed(registry) {
                Err(e) => findings.push(format!("summary rebuild from X failed: {e}")),
                Ok(fresh) if self.summary.same_groups(&fresh) => {}
                Ok(_) => findings.push(
                    "summary diverges from its reconstruction from the auxiliary views".to_string(),
                ),
            }
            // The fk index is not in the snapshot (restore rebuilds it),
            // yet dimension deltas trust it.
            if !registry.store(id).fk_is_exact(&self.fk_edges) {
                findings.push(
                    "fk index diverges from the root auxiliary view's group keys".to_string(),
                );
            }
            return AuditReport { findings };
        }
        let exec = self.executor(registry);
        let mut res = Resolution::new();
        let (mut vgroup, mut args) = (Vec::new(), Vec::new());
        for (key, state) in self.summary.iter() {
            match exec.share_of(recon.binding(key), state, &mut res, &mut vgroup, &mut args) {
                Err(e) => findings.push(format!("group {key}: {e}")),
                Ok(true) if vgroup.iter().copied().eq(key.values()) => {
                    if let Some(i) = state.first_not_carrying(&args) {
                        findings.push(format!(
                            "group {key}: aggregate {i} disagrees with the dimension stores"
                        ));
                    }
                }
                Ok(_) => findings.push(format!(
                    "group {key}: the dimension stores place it under another group key"
                )),
            }
        }
        AuditReport { findings }
    }

    /// Oracle check: compares the maintained summary against a fresh
    /// recomputation from the base tables. Intended for tests and
    /// experiments only — production maintenance never calls this.
    pub fn verify_against(&self, db: &Database) -> Result<bool> {
        let expected = eval_view(&self.plan.view, db).map_err(MaintainError::from)?;
        Ok(self.summary.to_bag() == expected)
    }

    /// Oracle check for the auxiliary views: each store must equal its
    /// definition evaluated from the base tables.
    pub fn verify_aux_against(&self, registry: &StoreRegistry, db: &Database) -> Result<bool> {
        let mut expected = BTreeMap::new();
        for store in self.aux_stores(registry) {
            let table = store.def().table;
            expected_aux_rows(table, &self.plan, db, &mut expected)?;
            if store.materialized_rows() != expected[&table] {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Wraps `cause` as a rejection of a batch of `table`, unless it already
/// is one.
pub(crate) fn reject(
    catalog: &Catalog,
    table: TableId,
    change_index: Option<usize>,
    cause: MaintainError,
) -> MaintainError {
    if matches!(cause, MaintainError::Rejected { .. }) {
        return cause;
    }
    let table = catalog
        .def(table)
        .map(|d| d.name.clone())
        .unwrap_or_else(|_| table.to_string());
    MaintainError::Rejected {
        table,
        change_index,
        reason: Box::new(cause),
    }
}

/// Test oracle: computes into `memo` the contents of `table`'s auxiliary
/// view directly from the base tables — local conditions, then semijoins
/// against the expected contents of the target views (computed first, so a
/// chain reduces from its far end inwards), then the group-by with its
/// `SUM`s — md-algebra's expansion sums — and `COUNT(*)`. It shares
/// nothing with the [`AuxStore`] it checks.
fn expected_aux_rows(
    table: TableId,
    plan: &DerivedPlan,
    db: &Database,
    memo: &mut BTreeMap<TableId, Vec<Row>>,
) -> Result<()> {
    // The oracle's own exact sum: the one place the engine crate uses it.
    use md_algebra::ExpansionSum;
    use std::collections::btree_map::Entry;

    if memo.contains_key(&table) {
        return Ok(());
    }
    let broken = |what: &str| MaintainError::InvariantViolation(format!("{what} for {table}"));
    let def = plan
        .aux_for(table)
        .ok_or_else(|| broken("no auxiliary view"))?;
    // Per semijoin: the foreign-key column and the key values it may take.
    let mut partners: Vec<(usize, HashSet<Value>)> = Vec::new();
    for target in &def.semijoins {
        expected_aux_rows(*target, plan, db, memo)?;
        let mut edges = plan.graph.children(table);
        let edge = edges
            .find(|e| e.to == *target)
            .ok_or_else(|| broken("semijoin without an edge"))?;
        let key_col = db.catalog().def(*target)?.key_col;
        let target_def = plan.aux_for(*target).expect("computed above");
        let key_pos = target_def
            .group_source_cols()
            .iter()
            .position(|&s| s == key_col)
            .ok_or_else(|| broken("semijoin target without its key"))?;
        let keys = memo[target].iter().map(|r| r[key_pos].clone()).collect();
        partners.push((edge.fk_col, keys));
    }
    let group_srcs = def.group_source_cols();
    let sum_srcs: Vec<usize> = def.sum_cols().into_iter().map(|(_, s)| s).collect();
    let schema = &db.catalog().def(table)?.schema;
    let mut groups: BTreeMap<Row, (Vec<ExpansionSum>, i64)> = BTreeMap::new();
    'rows: for row in db.table(table).rows() {
        let env = RowEnv::single(table, &row);
        for cond in &def.local_conditions {
            if !cond.eval(&env).map_err(MaintainError::from)? {
                continue 'rows;
            }
        }
        if !partners.iter().all(|(fk, keys)| keys.contains(&row[*fk])) {
            continue;
        }
        let (sums, cnt) = match groups.entry(row.project(&group_srcs)) {
            Entry::Occupied(group) => group.into_mut(),
            Entry::Vacant(group) => {
                let sums = sum_srcs.iter().map(|&s| {
                    ExpansionSum::new(schema.column(s).dtype).map_err(MaintainError::from)
                });
                group.insert((sums.collect::<Result<_>>()?, 0))
            }
        };
        for (sum, &s) in sums.iter_mut().zip(&sum_srcs) {
            sum.add(&row[s], 1).map_err(MaintainError::from)?;
        }
        *cnt += 1;
    }
    // Distinct keys lead their rows: key order is row order.
    let rows: Vec<Row> = groups
        .into_iter()
        .map(|(key, (sums, cnt))| {
            let count = def.count_col().map(|_| Value::Int(cnt));
            key.values()
                .iter()
                .cloned()
                .chain(sums.iter().map(ExpansionSum::sum))
                .chain(count)
                .collect()
        })
        .collect();
    memo.insert(table, rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSum;
    use crate::summary::{AggState, ValueCounts};
    use crate::PreparedBatch;
    use md_algebra::{AggFunc, Aggregate, Condition, GpsjView, SelectItem};
    use md_core::derive;
    use md_relation::{row, Change, DataType, GroupKey, Schema};

    /// `by_brand` over `sale ⋈ product` where every product carries the
    /// same brand and sells at a price of its own: one summary group whose
    /// `MAX(price)` counts one value per product — loaded, with its stores
    /// in a registry of its own.
    fn one_wide_group(products: i64) -> (StoreRegistry, SummaryEngine, TableId, TableId) {
        let mut cat = Catalog::new();
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        let mut db = Database::new(cat.clone());
        for p in 0..products {
            db.insert(product, row![p, "acme"]).unwrap();
            db.insert(sale, row![p, p, 1.5 + p as f64]).unwrap();
        }
        let view = GpsjView::new(
            "by_brand",
            vec![sale, product],
            vec![
                SelectItem::group_by(ColRef::new(product, 1), "brand"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "Revenue"),
                SelectItem::agg(Aggregate::count_star(), "N"),
                SelectItem::agg(Aggregate::of(AggFunc::Max, ColRef::new(sale, 2)), "Top"),
            ],
            vec![Condition::eq_cols(
                ColRef::new(sale, 1),
                ColRef::new(product, 0),
            )],
        );
        let mut stores = StoreRegistry::new(&cat);
        let plan = derive(&view, &cat).unwrap();
        let mut engine = SummaryEngine::new(plan, &cat, &mut stores).unwrap();
        stores.load(&db, |_| 0).unwrap();
        engine.initial_load(&stores, &db, 0).unwrap();
        (stores, engine, sale, product)
    }

    fn image(stores: &StoreRegistry, engine: &SummaryEngine) -> Vec<u8> {
        engine.snapshot(stores, &mut HashSet::new()).unwrap()
    }

    /// Prepares `groups` as one batch and leaves it open, for a test that
    /// looks at the journals before it closes the batch by hand.
    fn prepare_open(
        stores: &mut StoreRegistry,
        engine: &mut SummaryEngine,
        groups: &[(TableId, &[Change])],
    ) -> Result<()> {
        let batch = prepare(stores, groups, [engine])?;
        batch.all_or_nothing()?.leave_open();
        Ok(())
    }

    /// [`StoreRegistry::prepare_batch`] of `groups`, their changes lent.
    fn prepare<'r, 'e>(
        stores: &'r mut StoreRegistry,
        groups: &[(TableId, &[Change])],
        engines: impl IntoIterator<Item = &'e mut SummaryEngine>,
    ) -> Result<PreparedBatch<'r, 'e>> {
        let lent: Vec<Vec<ChangeRef<'_>>> = (groups.iter())
            .map(|(_, changes)| changes.iter().map(ChangeRef::from).collect())
            .collect();
        let groups: Vec<(TableId, &[ChangeRef<'_>])> = (groups.iter().zip(&lent))
            .map(|((t, _), c)| (*t, &c[..]))
            .collect();
        stores.prepare_batch(&groups, |_| u64::MAX, engines)
    }

    fn rollback(stores: &mut StoreRegistry, engine: &mut SummaryEngine) {
        stores.rollback();
        engine.rollback_prepared();
    }

    #[test]
    fn journal_of_a_one_change_batch_is_independent_of_the_entry_size() {
        // A count, not a timing: the open transaction must hold a constant
        // number of values however many the touched group counts — the
        // inverse of each mutation, never a copy of the map.
        let (mut stores, mut engine, sale, _) = one_wide_group(10_000);
        assert_eq!(engine.summary().len(), 1);
        assert_eq!(engine.summary().value_count_footprint().unwrap().0, 10_000);
        let before = image(&stores, &engine);
        let top = |engine: &SummaryEngine| {
            let rows = engine.summary().to_rows();
            rows[0][3].clone()
        };
        let root = engine.root_store().unwrap();

        // A sale, then the current maximum gone: the runner-up answers.
        for (change, want) in [
            (Change::Insert(row![10_000, 7, 2.5]), 10_000.5),
            (Change::Delete(row![9_999, 9_999, 10_000.5]), 9_999.5),
        ] {
            prepare_open(&mut stores, &mut engine, &[(sale, &[change])]).unwrap();
            assert!(engine.txn.is_some(), "prepared");
            // The root store's one journal covers its groups and its fk
            // index.
            let records = stores.store(root).undo_records() + engine.summary().undo_weight();
            assert!(records <= 4, "{records} undo records for one change");
            // Nor does the auxiliary journal grow with the 10 000 tuples
            // of its store: one key and one group's sums.
            let held: usize = engine.aux_stores(&stores).map(AuxStore::undo_weight).sum();
            assert!(
                held <= 4,
                "{held} auxiliary values journaled for one change"
            );
            assert_eq!(top(&engine), Value::Double(want));

            rollback(&mut stores, &mut engine);
            assert_eq!(before, image(&stores, &engine));
        }
    }

    #[test]
    fn rollback_unwinds_the_fk_index() {
        // A root key created, one removed, and a rename that moves a third
        // between summary groups, in one transaction.
        let (mut stores, mut engine, sale, product) = one_wide_group(50);
        let root = engine.root_store().unwrap();
        let fk = |stores: &StoreRegistry| stores.store(root).fk_keys((product, 0)).unwrap().clone();
        let before = fk(&stores);
        assert_eq!(before.len(), 50);

        let newcomer = [Change::Insert(row![50, "acme"])];
        let sales = [
            Change::Insert(row![50, 50, 2.5]),
            Change::Delete(row![3, 3, 4.5]),
        ];
        let rename = [Change::Update {
            old: row![5, "acme"],
            new: row![5, "zeta"],
        }];
        let groups: [(TableId, &[Change]); 3] =
            [(product, &newcomer), (sale, &sales), (product, &rename)];
        prepare_open(&mut stores, &mut engine, &groups).unwrap();
        assert!(fk(&stores).contains_key(&Value::Int(50)));
        assert!(!fk(&stores).contains_key(&Value::Int(3)));
        assert_eq!(engine.stats().dim_targeted_updates, 1);
        assert_eq!(engine.summary().len(), 2);

        rollback(&mut stores, &mut engine);
        assert_eq!(before, fk(&stores));
        assert_eq!(engine.summary().len(), 1);
    }

    /// A `product` newcomer, two `sale` changes and a `product` rename that
    /// moves a root key between summary groups: three table groups.
    fn multi_table_batch() -> (Vec<Change>, Vec<Change>, Vec<Change>) {
        let newcomer = vec![Change::Insert(row![50, "acme"])];
        let sales = vec![
            Change::Insert(row![50, 50, 2.5]),
            Change::Delete(row![3, 3, 4.5]),
        ];
        let rename = vec![Change::Update {
            old: row![5, "acme"],
            new: row![5, "zeta"],
        }];
        (newcomer, sales, rename)
    }

    #[test]
    fn a_second_prepare_is_refused_and_the_first_still_rolls_back() {
        let (mut stores, mut engine, sale, product) = one_wide_group(50);
        let before = image(&stores, &engine);
        let (newcomer, sales, rename) = multi_table_batch();
        let groups: [(TableId, &[Change]); 3] =
            [(product, &newcomer), (sale, &sales), (product, &rename)];
        prepare_open(&mut stores, &mut engine, &groups).unwrap();
        let prepared = image(&stores, &engine);

        let another = [Change::Insert(row![51, 7, 1.5])];
        let again = prepare_open(&mut stores, &mut engine, &[(sale, &another)]);
        match again {
            Err(MaintainError::InvariantViolation(why)) => {
                assert!(why.contains("prepared batch still open"), "{why}")
            }
            other => panic!("a second prepare must be refused, got {other:?}"),
        }
        // Refused before it touched anything: the first batch is intact
        // and still the one a rollback unwinds.
        assert_eq!(prepared, image(&stores, &engine));
        rollback(&mut stores, &mut engine);
        assert_eq!(before, image(&stores, &engine));
        assert!(engine.audit(&stores).is_clean());
    }

    #[test]
    fn a_fault_at_any_point_rolls_back_to_the_image_and_leaks_no_journal() {
        let (newcomer, sales, rename) = multi_table_batch();
        let committed = {
            let (mut stores, mut fresh, sale, product) = one_wide_group(50);
            let groups: [(TableId, &[Change]); 3] =
                [(product, &newcomer), (sale, &sales), (product, &rename)];
            let batch = prepare(&mut stores, &groups, [&mut fresh]);
            batch.unwrap().commit(&[(product, 1), (sale, 1)]);
            image(&stores, &fresh)
        };
        for point in [
            "engine.apply.begin",
            "engine.apply.change",
            "engine.apply.flush",
        ] {
            let mut fired = 0;
            for nth in 0.. {
                let (mut stores, mut engine, sale, product) = one_wide_group(50);
                let groups: [(TableId, &[Change]); 3] =
                    [(product, &newcomer), (sale, &sales), (product, &rename)];
                let before = image(&stores, &engine);
                let mut faults = FaultPlan::recording();
                faults.arm(point, nth);
                engine.set_fault_plan(faults);
                let batch = prepare(&mut stores, &groups, [&mut engine]);
                if batch.unwrap().all_or_nothing().is_ok() {
                    break; // the batch has fewer traversals of `point`
                }
                fired += 1;
                assert_eq!(before, image(&stores, &engine), "{point} #{nth}");
                assert!(engine.audit(&stores).is_clean(), "{point} #{nth}");
                assert_eq!(engine.summary().undo_weight(), 0);
                let leaked = |store: &AuxStore| store.undo_records() + store.undo_weight();
                assert!(engine.aux_stores(&stores).all(|store| leaked(store) == 0));
                // The journals were cleared and reused, not leaked: the
                // next batch lands where it does on a fresh engine.
                engine.set_fault_plan(FaultPlan::default());
                let batch = prepare(&mut stores, &groups, [&mut engine]);
                batch.unwrap().commit(&[(product, 1), (sale, 1)]);
                assert_eq!(committed, image(&stores, &engine), "{point} #{nth}");
            }
            let expected = match point {
                "engine.apply.begin" => 1,
                "engine.apply.change" => 4,
                _ => 3,
            };
            assert_eq!(fired, expected, "traversals of {point}");
        }
    }

    #[test]
    fn runs_stay_counted_when_their_batch_rolls_back() {
        let (mut stores, mut engine, sale, _) = one_wide_group(50);
        engine.set_obs(Obs::new(md_obs::ObsConfig::metrics()));
        // Two occurrences on product 7, one on product 8: two runs.
        let sales = [
            Change::Insert(row![50, 7, 8.5]),
            Change::Insert(row![51, 8, 9.5]),
            Change::Insert(row![52, 7, 8.5]),
        ];
        let batch = prepare(&mut stores, &[(sale, &sales)], [&mut engine]);
        batch
            .unwrap()
            .all_or_nothing()
            .unwrap()
            .commit(&[(sale, 1)]);
        let counters = &engine.counters;
        let run_len = counters.run_len.snapshot();
        assert_eq!((counters.runs.get(), run_len.count, run_len.sum), (2, 2, 3));

        // A rolled-back batch is undone in the state, not in the counts:
        // no counter ever goes down.
        let one = &sales[..1];
        let batch = prepare(&mut stores, &[(sale, one)], [&mut engine]);
        batch.unwrap().rollback();
        let counters = &engine.counters;
        let after = counters.run_len.snapshot();
        assert_eq!((counters.runs.get(), after.count, after.sum), (3, 3, 4));
        assert_eq!(engine.stats().rows_processed, 4);
    }

    #[test]
    fn a_run_that_deletes_first_is_refused_at_its_delete() {
        // Change 1 deletes a sale of a group nothing holds and change 2
        // inserts it back: one run `[−1, +1]`, which nets nothing but is
        // refused where its delete alone is, and blamed on change 1.
        let (mut stores, mut engine, sale, _) = one_wide_group(50);
        let before = image(&stores, &engine);
        let sales = [
            Change::Insert(row![900, 8, 9.5]),
            Change::Delete(row![901, 7, 99.0]),
            Change::Insert(row![901, 7, 99.0]),
        ];
        let batch = prepare(&mut stores, &[(sale, &sales)], [&mut engine]);
        match batch.and_then(|batch| batch.all_or_nothing()).map(|_| ()) {
            Err(MaintainError::Rejected {
                table,
                change_index,
                reason,
            }) => {
                assert_eq!((table.as_str(), change_index), ("sale", Some(1)));
                let reason = reason.to_string();
                assert!(reason.contains("delete of a row whose group"), "{reason}");
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!(before, image(&stores, &engine));
    }

    #[test]
    fn runs_come_out_in_first_appearance_order_and_keep_batch_order_within() {
        // Rows of `t(id INT, tag VARCHAR)`.
        let rows = [
            row![0, "b"],
            row![1, "a"],
            row![2, "b"],
            row![3, "c"],
            row![4, "a"],
            row![5, "b"],
        ];
        // Each run's changes, as `blame` replays them; its first change,
        // occurrence count and weight; and its net sum of `id`.
        let runs = |rows: &[Row]| {
            let inserts = rows.iter().enumerate().map(|(i, row)| (1, Some(row), i));
            let key = ConsumerKey {
                locals: &Filter::default(),
                srcs: &[1],
                sums: &[Some(0)],
            };
            let mut grouping = Grouping::default();
            let grouped = grouping.group(&[key], inserts);
            let batch = grouped.batch(0);
            let runs = batch.runs().map(|run| {
                let blamed = crate::registry::tests::blamed(&batch, &run);
                let changes: Vec<usize> = blamed.iter().map(|&(change, _)| change).collect();
                let weight = (run.net, run.low);
                (changes, run.change, run.len, weight, run.sums[0].clone())
            });
            runs.collect::<Vec<_>>()
        };
        let sum = |ids: &[i64]| {
            let mut sum = ExactSum::default();
            ids.iter().for_each(|&id| sum.add(&Value::Int(id), 1));
            sum
        };
        let want = [
            (vec![0, 2, 5], 0, 3, (3, 0), sum(&[0, 2, 5])),
            (vec![1, 4], 1, 2, (2, 0), sum(&[1, 4])),
            (vec![3], 3, 1, (1, 0), sum(&[3])),
        ];
        assert_eq!(runs(&rows), want);
        assert!(runs(&[]).is_empty());
    }

    #[test]
    fn audit_walks_each_group_of_a_summary_without_a_root_store() {
        // `GROUP BY product.id` with the product's brand: the fact table's
        // auxiliary view is eliminated, and a group's `MAX(brand)` is read
        // off the product store.
        let mut cat = Catalog::new();
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        cat.set_updatable_columns(product, &[1]).unwrap();
        cat.set_updatable_columns(sale, &[2]).unwrap();
        let mut db = Database::new(cat.clone());
        for p in 0..3 {
            db.insert(product, row![p, "acme"]).unwrap();
            db.insert(sale, row![p, p, 1.5]).unwrap();
            db.insert(sale, row![p + 10, p, 2.5]).unwrap();
        }
        let view = GpsjView::new(
            "by_product",
            vec![sale, product],
            vec![
                SelectItem::group_by(ColRef::new(product, 0), "id"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Max, ColRef::new(product, 1)),
                    "Brand",
                ),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "Revenue"),
            ],
            vec![Condition::eq_cols(
                ColRef::new(sale, 1),
                ColRef::new(product, 0),
            )],
        );
        let plan = derive(&view, &cat).unwrap();
        assert!(plan.root_omitted());
        let mut stores = StoreRegistry::new(&cat);
        let mut engine = SummaryEngine::new(plan, &cat, &mut stores).unwrap();
        stores.load(&db, |_| 0).unwrap();
        engine.initial_load(&stores, &db, 0).unwrap();
        assert!(engine.audit(&stores).is_clean());

        // A brand the product store does not hold, counted as often as
        // the group's rows: every group-local check still passes.
        let key = GroupKey::from(row![1]);
        let mut forged = engine.summary().group(&key).unwrap().clone();
        forged.aggs[0] =
            AggState::Values(ValueCounts::of(DataType::Str, [(Value::str("zeta"), 2)]));
        engine.summary().check_group(&key, &forged).unwrap();
        engine.summary_mut().install_group(key, forged).unwrap();
        let findings = engine.audit(&stores).findings;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("group (1): aggregate 0"),
            "{findings:?}"
        );
    }

    #[test]
    fn audit_checks_the_fk_index_against_the_root_store() {
        // Root keys created, removed and — by a rollback — restored.
        let (mut stores, mut engine, sale, product) = one_wide_group(50);
        let sales = [
            Change::Insert(row![50, 7, 2.5]),
            Change::Delete(row![3, 3, 4.5]),
        ];
        let batch = prepare(&mut stores, &[(sale, &sales)], [&mut engine]);
        batch
            .unwrap()
            .all_or_nothing()
            .unwrap()
            .commit(&[(sale, 1)]);
        assert!(engine.audit(&stores).is_clean());
        let gone = [Change::Delete(row![9, 9, 10.5])];
        let batch = prepare(&mut stores, &[(sale, &gone)], [&mut engine]);
        batch.unwrap().rollback();
        assert!(engine.audit(&stores).is_clean());

        // No snapshot carries the fk index: only this check sees it.
        let root = engine.root_store().unwrap();
        (stores.store_mut(root)).fk_forget((product, 0), &Value::Int(9));
        let findings = engine.audit(&stores).findings;
        assert!(
            findings.iter().any(|f| f.contains("fk index")),
            "{findings:?}"
        );
    }

    #[test]
    fn audit_checks_the_key_index_against_the_dimension_store() {
        // A product moved to another brand, and a move rolled back: the
        // key index follows the tuple both ways.
        let (mut stores, mut engine, _, product) = one_wide_group(50);
        let moved = [Change::Update {
            old: row![7, "acme"],
            new: row![7, "mega"],
        }];
        let batch = prepare(&mut stores, &[(product, &moved)], [&mut engine]);
        batch
            .unwrap()
            .all_or_nothing()
            .unwrap()
            .commit(&[(product, 1)]);
        assert!(engine.audit(&stores).is_clean());
        let back = [Change::Update {
            old: row![7, "mega"],
            new: row![7, "zeta"],
        }];
        let batch = prepare(&mut stores, &[(product, &back)], [&mut engine]);
        batch.unwrap().rollback();
        assert!(engine.audit(&stores).is_clean());
        assert!(stores.inexact_key_indexes().is_empty());

        // The index loses product 9: the check names the store whose index
        // every hop into `product` reads.
        let dim = engine.store_of(product).unwrap();
        stores.store_mut(dim).key_forget(&Value::Int(9));
        let findings = engine.audit(&stores).findings;
        assert!(
            findings.iter().any(|f| f.contains("key index of")),
            "{findings:?}"
        );
        // A warehouse walks the registry once and hands the result to
        // each reader.
        assert_eq!(stores.inexact_key_indexes(), vec![dim]);
        let given = engine.audit_with(&stores, &[dim]).findings;
        assert_eq!(given, findings);
    }

    /// The paper's four views over a retail star of 13 600 facts (four
    /// load windows), loaded `window` rows at a time: the image of every
    /// summary, each store written once, and whether each equals its
    /// recompute.
    fn loaded_by(window: usize, db: &Database) -> (Vec<u8>, bool) {
        use md_workload::views;
        let cat = db.catalog();
        let paper = [
            views::product_sales,
            views::product_sales_max,
            views::store_revenue,
            views::daily_product,
        ];
        let mut stores = StoreRegistry::new(cat);
        let mut engines: Vec<SummaryEngine> = paper
            .iter()
            .map(|view| {
                let plan = derive(&view(cat).unwrap(), cat).unwrap();
                SummaryEngine::new(plan, cat, &mut stores).unwrap()
            })
            .collect();
        stores.load_by(window, db, |_| 0).unwrap();
        let (mut image, mut written, mut verified) = (Vec::new(), HashSet::new(), true);
        for engine in &mut engines {
            engine.initial_load_by(window, &stores, db, 0).unwrap();
            image.extend(engine.snapshot(&stores, &mut written).unwrap());
            verified &= engine.verify_against(db).unwrap();
            verified &= engine.verify_aux_against(&stores, db).unwrap();
        }
        (image, verified)
    }

    #[test]
    fn a_load_leaves_one_image_whatever_its_window() {
        use md_workload::{generate_retail, Contracts, RetailParams};
        let params = RetailParams {
            days: 17,
            stores: 4,
            products: 60,
            products_sold_per_day_per_store: 25,
            transactions_per_product: 8,
            start_year: 1996,
            year_split: 10,
            seed: 3,
        };
        let (db, schema) = generate_retail(params, Contracts::Tight);
        let facts = db.table(schema.sale).len();
        assert!(facts > 3 * LOAD_WINDOW, "{facts} facts");
        let (image, verified) = loaded_by(LOAD_WINDOW, &db);
        assert!(verified);
        for window in [1, 7, facts, facts + 1] {
            let (other, verified) = loaded_by(window, &db);
            assert!(verified, "window {window}");
            assert!(other == image, "window {window} left another image");
        }
    }
}
