//! The self-maintenance engine.
//!
//! A [`MaintenanceEngine`] owns the materialized auxiliary views `X` and
//! summary view `V` of one derived plan and keeps `{V} ∪ X` consistent
//! under source change streams **without ever reading the base tables**
//! (the defining property of self-maintainability, paper Section 2.2). The
//! only base-table access in its lifetime is [`MaintenanceEngine::
//! initial_load`], which corresponds to the warehouse's initial load.
//!
//! Change handling:
//!
//! * **Root (fact) table deltas** are applied incrementally, a *run* of
//!   rows sharing one key at a time: rows are filtered by the root's local
//!   conditions, joined to the *auxiliary* dimension views by key lookups,
//!   folded into `X_{R₀}` (respecting its semijoin reductions) and into
//!   the affected summary group. CSMAS aggregates adjust in O(1), and
//!   `MIN`/`MAX`/`DISTINCT` move one entry of the group's value counts
//!   (see [`crate::summary`]) — no aggregate is ever re-derived from `X`
//!   by the feed.
//! * **Dimension changes** are deltas too: `ΔX_T ⋈ X_{R₀}`, retracted
//!   under the dimension stores before the change and inserted under them
//!   after it, a bucket of root auxiliary tuples per summary group at a
//!   time, through the same summary kernel the root path uses (see
//!   `dimension.rs`, a child of this module).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use md_algebra::pred::eval_all;
use md_algebra::{eval_view, ColRef, Condition, RowEnv};
use md_core::{edge_is_dependency, DerivedPlan};
use md_obs::{Counter, Histogram, HistogramSnapshot, Obs};
use md_relation::{
    Bag, Catalog, Change, Database, Row, RowHashMap, RowKey, SeededHashMap, SeededHashSet, TableId,
    Value,
};

use crate::error::{MaintainError, Result};
use crate::fault::FaultPlan;
use crate::reconstruct::{Recon, ReconExecutor};
use crate::resolve::{Binding, Resolution};
use crate::store::AuxStore;
use crate::summary::{GroupState, RunArg, SummaryStore};

// The dimension-delta path extends the engine's private state, so it is a
// child of this module; its file sits beside `reconstruct.rs`, whose walk
// it shares.
#[path = "dimension.rs"]
mod dimension;

/// Counters describing the work the engine has done — the measurements
/// behind the maintenance-cost experiments (E9).
///
/// Since the observability redesign this struct is a point-in-time *view*
/// over the engine's registered `md-obs` counters
/// (`maintain.rows_processed{summary=…}` and friends): the API is
/// unchanged, but the same numbers are now scrapeable through the
/// warehouse metrics endpoint and profile alongside the span tracer.
///
/// The `*_nanos` fields are process-local wall-clock measurements feeding
/// the parallel-scheduler experiments: they are excluded from equality
/// (two engines in the same logical state compare equal regardless of
/// how long each took to get there), never serialized into snapshots,
/// and survive batch rollbacks (time was genuinely spent).
///
/// **Which clock is which.** `prepare_nanos`/`commit_nanos` are this
/// summary's *busy* time: the duration of its own `prepare_batch` /
/// `commit_batch` calls, measured on whichever thread ran them. Under a
/// multi-worker scheduler the prepare calls of different summaries
/// overlap, so summing `prepare_nanos` across summaries gives total work
/// (the serial cost), **not** elapsed wall-clock. The scheduler's
/// wall-clock for the whole overlapped fan-out is
/// `SchedulerStats::fanout_nanos` in `md-warehouse`; earlier releases
/// conflated the two when reporting per-summary timings under
/// `workers > 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintStats {
    /// Source delta rows processed (after update splitting).
    pub rows_processed: u64,
    /// Summary groups whose non-CSMAS aggregates were recomputed from `X`.
    /// Always 0: their value counts answer every delete. The field stays
    /// for the benchmark, which reads it; no snapshot carries it.
    pub groups_recomputed: u64,
    /// Full summary rebuilds from `X` ([`MaintenanceEngine::rebuild_summary`],
    /// i.e. quarantine repair — never the feed).
    pub summary_rebuilds: u64,
    /// Dimension changes proven to be no-ops on `V`: an empty `ΔX`, or an
    /// insert/delete on a dependency edge.
    pub dim_noop_changes: u64,
    /// Dimension changes propagated as a delta: the affected root
    /// auxiliary tuples (or, root omitted, the pinned groups) moved
    /// between summary groups.
    pub dim_targeted_updates: u64,
    /// Nanoseconds this summary spent inside `prepare_batch` — per-summary
    /// busy time on its worker thread, not scheduler wall-clock (see the
    /// struct docs).
    pub prepare_nanos: u64,
    /// Nanoseconds this summary spent inside `commit_batch` — per-summary
    /// busy time, not scheduler wall-clock (see the struct docs).
    pub commit_nanos: u64,
}

/// The engine's live counter handles — the storage behind [`MaintStats`].
/// Detached (unregistered) atomics until a warehouse adopts the engine
/// into its metrics registry via [`MaintenanceEngine::set_obs`]; the
/// increment cost is identical either way.
#[derive(Debug, Clone, Default)]
struct MaintCounters {
    rows_processed: Counter,
    groups_recomputed: Counter,
    summary_rebuilds: Counter,
    dim_noop_changes: Counter,
    dim_targeted_updates: Counter,
    prepare_nanos: Counter,
    commit_nanos: Counter,
    /// Root-delta runs folded (`maintain.runs`), and how many occurrences
    /// each held (`maintain.run_len`): what a change costs depends on how
    /// many share its run. Logical counts, rolled back with a batch, but
    /// not part of [`MaintStats`] or of a snapshot.
    runs: Counter,
    run_len: Histogram,
    /// Root auxiliary tuples joined by dimension deltas
    /// (`maintain.dim_joined`), and the bucketed runs they were folded as
    /// (`maintain.dim_runs`, retracts and inserts alike): what a dimension
    /// delta costs is per group touched, not per tuple moved. Logical
    /// counts, rolled back with a batch, outside [`MaintStats`] and the
    /// snapshot like `runs`.
    dim_joined: Counter,
    dim_runs: Counter,
    /// Per-batch prepare duration distribution (records only when the
    /// owning registry has metrics enabled).
    prepare_hist: Histogram,
    /// Per-batch commit duration distribution.
    commit_hist: Histogram,
}

impl MaintCounters {
    /// Registry-backed handles labeled with this engine's summary name,
    /// seeded with the current values of `prior`.
    fn registered(obs: &Obs, summary: &str, prior: &MaintCounters) -> Self {
        let labels = [("summary", summary)];
        let c = MaintCounters {
            rows_processed: obs.counter("maintain.rows_processed", &labels),
            groups_recomputed: obs.counter("maintain.groups_recomputed", &labels),
            summary_rebuilds: obs.counter("maintain.summary_rebuilds", &labels),
            dim_noop_changes: obs.counter("maintain.dim_noop_changes", &labels),
            dim_targeted_updates: obs.counter("maintain.dim_targeted_updates", &labels),
            prepare_nanos: obs.counter("maintain.prepare_nanos_total", &labels),
            commit_nanos: obs.counter("maintain.commit_nanos_total", &labels),
            runs: obs.counter("maintain.runs", &labels),
            run_len: obs.histogram("maintain.run_len", &labels),
            dim_joined: obs.counter("maintain.dim_joined", &labels),
            dim_runs: obs.counter("maintain.dim_runs", &labels),
            prepare_hist: obs.histogram("maintain.prepare_nanos", &labels),
            commit_hist: obs.histogram("maintain.commit_nanos", &labels),
        };
        c.set_all(&prior.stats());
        c.set_runs(prior.runs());
        c
    }

    /// `maintain.runs`, `maintain.dim_joined` and `maintain.dim_runs`: the
    /// logical counts outside [`MaintStats`].
    fn runs(&self) -> [u64; 3] {
        [&self.runs, &self.dim_joined, &self.dim_runs].map(Counter::get)
    }

    /// Overwrites what [`Self::runs`] reads.
    fn set_runs(&self, [runs, dim_joined, dim_runs]: [u64; 3]) {
        self.runs.set(runs);
        self.dim_joined.set(dim_joined);
        self.dim_runs.set(dim_runs);
    }

    /// The current values as the API-stable stats struct.
    fn stats(&self) -> MaintStats {
        MaintStats {
            rows_processed: self.rows_processed.get(),
            groups_recomputed: self.groups_recomputed.get(),
            summary_rebuilds: self.summary_rebuilds.get(),
            dim_noop_changes: self.dim_noop_changes.get(),
            dim_targeted_updates: self.dim_targeted_updates.get(),
            prepare_nanos: self.prepare_nanos.get(),
            commit_nanos: self.commit_nanos.get(),
        }
    }

    /// Overwrites every counter (snapshot restore).
    fn set_all(&self, s: &MaintStats) {
        self.set_logical(s);
        self.prepare_nanos.set(s.prepare_nanos);
        self.commit_nanos.set(s.commit_nanos);
    }

    /// Overwrites the logical work counters only, leaving the timing
    /// counters untouched (transaction rollback: the work is undone, the
    /// time was genuinely spent).
    fn set_logical(&self, s: &MaintStats) {
        self.rows_processed.set(s.rows_processed);
        self.groups_recomputed.set(s.groups_recomputed);
        self.summary_rebuilds.set(s.summary_rebuilds);
        self.dim_noop_changes.set(s.dim_noop_changes);
        self.dim_targeted_updates.set(s.dim_targeted_updates);
    }
}

impl PartialEq for MaintStats {
    fn eq(&self, other: &Self) -> bool {
        // Timing fields are measurements, not logical state.
        self.rows_processed == other.rows_processed
            && self.groups_recomputed == other.groups_recomputed
            && self.summary_rebuilds == other.summary_rebuilds
            && self.dim_noop_changes == other.dim_noop_changes
            && self.dim_targeted_updates == other.dim_targeted_updates
    }
}

impl Eq for MaintStats {}

/// The result of [`MaintenanceEngine::audit`]: a list of invariant
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

/// Per-batch transaction bookkeeping: everything needed to restore the
/// engine exactly to its pre-batch state on a mid-batch failure. The
/// auxiliary and summary stores keep their own undo logs; this records
/// the engine-level state around them.
struct TxnState {
    /// Counters at batch start (restored wholesale on rollback).
    stats: MaintStats,
    /// `maintain.{runs, dim_joined, dim_runs}` and `maintain.run_len` at
    /// batch start; the latter `None` while the registry records no
    /// histograms.
    runs: [u64; 3],
    run_len: Option<HistogramSnapshot>,
}

/// Child table → child key value → root auxiliary group keys referencing it.
type FkIndex = HashMap<TableId, SeededHashMap<Value, SeededHashSet<Row>>>;

/// Adds `root_key` to (or removes it from) `index` under each edge's
/// foreign-key value; emptied entries are dropped, so equal key sets give
/// equal indexes.
fn fk_set(index: &mut FkIndex, positions: &[(TableId, usize)], root_key: &Row, add: bool) {
    for &(child, pos) in positions {
        let fk_value = &root_key[pos];
        if add {
            let by_value = index.entry(child).or_default();
            // Most root keys join a dimension row others already do.
            if let Some(keys) = by_value.get_mut(fk_value) {
                keys.insert(root_key.clone());
            } else {
                let keys = SeededHashSet::from_iter([root_key.clone()]);
                by_value.insert(fk_value.clone(), keys);
            }
        } else if let Some(by_value) = index.get_mut(&child) {
            if let Some(set) = by_value.get_mut(fk_value) {
                set.remove(root_key);
                if set.is_empty() {
                    by_value.remove(fk_value);
                }
            }
            if by_value.is_empty() {
                index.remove(&child);
            }
        }
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

/// What [`MaintenanceEngine::apply_root_changes`] derives from the plan
/// and the catalog alone.
struct RootDelta {
    /// The root's local conditions.
    locals: Vec<Condition>,
    /// Root source columns a delta row is projected onto to form its run
    /// key: the root auxiliary view's group columns, or — root omitted —
    /// the root-sourced group-by columns and outgoing foreign keys.
    run_srcs: Vec<usize>,
    /// The view's group-by columns.
    group_cols: Vec<ColRef>,
    /// Per aggregate, where a run reads its argument.
    arg_sources: Vec<ArgSource>,
}

/// Where a root-delta run reads one aggregate's argument: fixed by the
/// view, except that a dimension attribute is looked up once per run.
#[derive(Debug, Clone, Copy)]
enum ArgSource {
    /// `COUNT(*)` takes no argument.
    CountStar,
    /// This root source column of each occurrence row.
    Root(usize),
    /// A dimension attribute — constant across the run, whose key
    /// determines the dimension chain.
    Dim(ColRef),
}

/// The self-maintenance engine for one derived plan.
pub struct MaintenanceEngine {
    catalog: Catalog,
    plan: DerivedPlan,
    /// `X_{R₀}`, when materialized. Held apart from the dimension stores
    /// so that a run can fold into it while its [`Resolution`] still
    /// borrows those.
    root_aux: Option<AuxStore>,
    /// The dimension stores, by table.
    aux: BTreeMap<TableId, AuxStore>,
    summary: SummaryStore,
    /// Child table → whether its incoming edge is a dependency edge.
    dependency_edge: HashMap<TableId, bool>,
    /// Per direct root→child edge: child key value → root auxiliary group
    /// keys referencing it — `Δdim ⋈ X_{R₀}` for a dimension delta.
    /// Rebuilt after loads and rebuilds.
    fk_index: FkIndex,
    /// What the root-delta path reads that is fixed per engine (shared,
    /// so a batch can hold it across `&mut self` calls).
    root_delta: Arc<RootDelta>,
    /// What reconstruction reads of the plan — the rebuild's and the
    /// dimension deltas' — derived once (`None`: root omitted).
    recon: Option<Recon>,
    /// Per direct root→child edge, the position of its foreign key within
    /// the run key.
    fk_positions: Vec<(TableId, usize)>,
    counters: MaintCounters,
    /// Observability handle (noop until a warehouse adopts this engine).
    obs: Obs,
    /// Highest committed batch LSN per source table. A batch is applied
    /// exactly once: replay skips any record at or below this mark.
    applied_lsn: BTreeMap<TableId, u64>,
    /// In-flight batch transaction, when one is open.
    txn: Option<TxnState>,
    /// Every fk-index mutation of the open transaction, in mutation order:
    /// the root key, and whether it was added (else removed). A rollback
    /// replays the inverses in reverse. At most one record per run.
    fk_journal: Vec<(Row, bool)>,
    /// Fault-injection hooks (disarmed in production).
    faults: FaultPlan,
}

impl MaintenanceEngine {
    /// Creates an empty engine for `plan`.
    pub fn new(plan: DerivedPlan, catalog: &Catalog) -> Result<Self> {
        let root = plan.graph.root();
        let mut aux = BTreeMap::new();
        for def in plan.materialized() {
            aux.insert(def.table, AuxStore::new(def.clone(), catalog)?);
        }
        let root_aux = aux.remove(&root);
        let mut dependency_edge = HashMap::new();
        for edge in plan.graph.edges() {
            dependency_edge.insert(edge.to, edge_is_dependency(&plan.view, catalog, edge)?);
        }
        let summary = SummaryStore::new(&plan.view, catalog, plan.regime)?;
        // A run's dimension chain, semijoin test and summary group are
        // resolved from its key alone, so the key must carry every
        // root-sourced group-by attribute and every outgoing foreign key.
        let mut needed: Vec<usize> = plan
            .view
            .group_by_cols()
            .iter()
            .filter(|c| c.table == root)
            .map(|c| c.column)
            .chain(plan.graph.children(root).map(|edge| edge.fk_col))
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let run_srcs = match &root_aux {
            None => needed,
            Some(store) => {
                if let Some(lost) = needed.iter().find(|c| !store.group_srcs().contains(c)) {
                    return Err(MaintainError::InvariantViolation(format!(
                        "root auxiliary view {} does not retain source column {lost}, \
                         which resolving a delta run needs",
                        store.def().name
                    )));
                }
                store.group_srcs().to_vec()
            }
        };
        let fk_positions = plan
            .graph
            .children(root)
            .filter_map(|e| Some((e.to, run_srcs.iter().position(|&s| s == e.fk_col)?)))
            .collect();
        let root_delta = Arc::new(RootDelta {
            locals: plan
                .view
                .local_conditions(root)
                .into_iter()
                .cloned()
                .collect(),
            run_srcs,
            group_cols: plan.view.group_by_cols(),
            arg_sources: summary
                .aggregates()
                .iter()
                .map(|agg| match agg.arg {
                    None => ArgSource::CountStar,
                    Some(col) if col.table == root => ArgSource::Root(col.column),
                    Some(col) => ArgSource::Dim(col),
                })
                .collect(),
        });
        let recon = plan.reconstruction.is_some().then(|| Recon::new(&plan));
        Ok(MaintenanceEngine {
            catalog: catalog.clone(),
            recon: recon.transpose()?,
            plan,
            root_aux,
            aux,
            summary,
            dependency_edge,
            fk_index: HashMap::new(),
            root_delta,
            fk_positions,
            counters: MaintCounters::default(),
            obs: Obs::noop(),
            applied_lsn: BTreeMap::new(),
            txn: None,
            fk_journal: Vec::new(),
            faults: FaultPlan::default(),
        })
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
        self.summary.to_bag()
    }

    /// The auxiliary store of `table`, if materialized.
    pub fn aux_store(&self, table: TableId) -> Option<&AuxStore> {
        if table == self.plan.graph.root() {
            self.root_aux.as_ref()
        } else {
            self.aux.get(&table)
        }
    }

    fn aux_store_mut(&mut self, table: TableId) -> Option<&mut AuxStore> {
        if table == self.plan.graph.root() {
            self.root_aux.as_mut()
        } else {
            self.aux.get_mut(&table)
        }
    }

    /// All auxiliary stores, in table order.
    pub fn aux_stores(&self) -> impl Iterator<Item = &AuxStore> {
        let root = self.plan.graph.root();
        let before = self.aux.range(..root).map(|(_, store)| store);
        let after = self.aux.range(root..).map(|(_, store)| store);
        before.chain(&self.root_aux).chain(after)
    }

    fn aux_stores_mut(&mut self) -> impl Iterator<Item = &mut AuxStore> {
        self.root_aux.iter_mut().chain(self.aux.values_mut())
    }

    /// Work counters (a point-in-time view over the engine's `md-obs`
    /// handles; see [`MaintStats`] for which clock each field measures).
    pub fn stats(&self) -> MaintStats {
        self.counters.stats()
    }

    /// Adopts this engine into an observability context: its counters are
    /// re-registered in `obs`'s metrics registry under
    /// `maintain.*{summary="<view>"}` keys (carrying their current
    /// values), and its prepare/commit phases start emitting spans when
    /// tracing is on. Called by the warehouse at registration/restore.
    pub fn set_obs(&mut self, obs: Obs) {
        self.counters = MaintCounters::registered(&obs, &self.plan.view.name, &self.counters);
        self.obs = obs;
    }

    /// Installs the fault-injection plan this engine consults at its
    /// transaction checkpoints. Testing only; the default plan is free.
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The highest committed batch LSN for `table` (0 = none yet).
    pub fn applied_lsn(&self, table: TableId) -> u64 {
        self.applied_lsn.get(&table).copied().unwrap_or(0)
    }

    /// The per-table LSN vector of every committed batch.
    pub fn lsn_vector(&self) -> &BTreeMap<TableId, u64> {
        &self.applied_lsn
    }

    /// Overwrites one table's committed LSN. Used by snapshot restore and
    /// by the warehouse to align a freshly loaded engine with the batch
    /// sequence numbers it has already assigned.
    pub fn set_applied_lsn(&mut self, table: TableId, lsn: u64) {
        if lsn == 0 {
            self.applied_lsn.remove(&table);
        } else {
            self.applied_lsn.insert(table, lsn);
        }
    }

    /// Overwrites the counters (snapshot restore).
    pub(crate) fn set_stats(&mut self, stats: MaintStats) {
        self.counters.set_all(&stats);
    }

    /// Installs one auxiliary group (snapshot restore).
    pub(crate) fn install_aux_group(
        &mut self,
        table: TableId,
        key: Row,
        state: crate::store::AuxGroupState,
    ) -> Result<()> {
        let store = self.aux_store_mut(table).ok_or_else(|| {
            MaintainError::InvariantViolation(format!(
                "snapshot contains auxiliary data for {table}, \
                 which this plan does not materialize"
            ))
        })?;
        store.check_group(&key, &state)?;
        store.install_group(key, state);
        Ok(())
    }

    /// Installs one summary group (snapshot restore). The image is
    /// untrusted: a group of the wrong shape, or one whose value counts
    /// do not add up, is refused here rather than served.
    pub(crate) fn install_summary_group(&mut self, key: Row, state: GroupState) -> Result<()> {
        self.summary.check_group(&key, &state)?;
        self.summary.install_group(key, state);
        Ok(())
    }

    /// Per-object storage accounting: the auxiliary views, the summary
    /// and — for a view with `MIN`/`MAX`/`DISTINCT` aggregates — their
    /// value counts, which are derived from `X` and not part of it.
    pub fn storage_report(&self) -> Vec<StorageLine> {
        let mut lines: Vec<StorageLine> = self
            .aux_stores()
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

    /// Loads the auxiliary views and the summary from the sources. This is
    /// the *only* method that touches base tables — the warehouse's
    /// initial load. All subsequent maintenance is source-free.
    ///
    /// Loading `R` into the empty warehouse is applying `ΔR = +R`: every
    /// auxiliary view is filled through the run kernel, and `V` is its
    /// reconstruction from `X` (Section 3.2) — or, when the root auxiliary
    /// view was eliminated, the root table folded as one batch of inserts.
    /// The load is not a batch: it runs outside a transaction, consults no
    /// fault point, and leaves the work counters and the LSN vector alone.
    pub fn initial_load(&mut self, db: &Database) -> Result<()> {
        // Children before parents, so semijoin targets are ready.
        for table in self.load_order() {
            let Some(store) = self.aux_store(table) else {
                continue;
            };
            let def = store.def();
            let mut rows: Vec<Row> = Vec::new();
            for row in db.table(table).rows() {
                if self.visible_in(def, Some(&row))?.is_some() {
                    rows.push(row);
                }
            }
            let srcs = store.group_srcs().to_vec();
            let runs = group_runs(rows.iter(), &srcs);
            let store = self.aux_store_mut(table).expect("checked above");
            for items in runs.iter() {
                let key = RunKey {
                    row: &rows[items[0]],
                    srcs: &srcs,
                };
                store.apply_source_run(&key, items.iter().map(|&i| (1, &rows[i])))?;
            }
        }
        if self.plan.reconstruction.is_some() {
            return self.rebuild_from_aux();
        }
        // Root auxiliary view eliminated: V is maintained from root deltas
        // and the dimension auxiliary views alone, so that is how it loads.
        let root = self.plan.graph.root();
        let inserts: Vec<Change> = db.table(root).rows().map(Change::Insert).collect();
        // The counters measure maintenance work, which this is not.
        let (stats, runs) = (self.counters.stats(), self.counters.runs());
        self.apply_root_changes(root, &inserts)?;
        self.counters.set_logical(&stats);
        self.counters.set_runs(runs);
        Ok(())
    }

    fn load_order(&self) -> Vec<TableId> {
        // Post-order DFS from the root: children first.
        fn visit(graph: &md_core::ExtendedJoinGraph, t: TableId, out: &mut Vec<TableId>) {
            let children: Vec<TableId> = graph.children(t).map(|e| e.to).collect();
            for c in children {
                visit(graph, c, out);
            }
            out.push(t);
        }
        let mut out = Vec::new();
        visit(&self.plan.graph, self.plan.graph.root(), &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Change application
    // ------------------------------------------------------------------

    /// Applies a batch of source changes to one base table, maintaining
    /// `{V} ∪ X` without reading any base table.
    ///
    /// All-or-nothing: on any error the engine is rolled back to its
    /// pre-batch state and the error is reported as
    /// [`MaintainError::Rejected`] naming the offending change. On success
    /// the table's committed LSN advances by one.
    pub fn apply(&mut self, table: TableId, changes: &[Change]) -> Result<()> {
        let lsn = self.applied_lsn(table) + 1;
        self.prepare_batch(&[(table, changes)])?;
        match self
            .faults
            .hit_scoped("engine.apply.commit", &self.plan.view.name)
        {
            Ok(()) => {
                self.commit_batch(&[(table, lsn)]);
                Ok(())
            }
            Err(e) => {
                self.rollback_prepared();
                Err(self.reject(table, None, e))
            }
        }
    }

    /// Idempotent replay: applies `changes` as the batch with sequence
    /// number `lsn`, skipping it (returning `false`) when a batch at or
    /// past that LSN is already committed. Recovery uses this to replay a
    /// change-log suffix without double-applying what the snapshot holds.
    pub fn apply_at(&mut self, table: TableId, changes: &[Change], lsn: u64) -> Result<bool> {
        if lsn <= self.applied_lsn(table) {
            return Ok(false);
        }
        self.prepare_batch(&[(table, changes)])?;
        self.commit_batch(&[(table, lsn)]);
        Ok(true)
    }

    /// First phase of a two-phase apply: runs every per-table group of
    /// one [`crate::ChangeBatch`](crate::batch::ChangeBatch) relevant to
    /// this engine inside a *single* open transaction, in group order.
    /// On success the mutations are in place but uncommitted — the caller
    /// must follow with [`Self::commit_batch`] or
    /// [`Self::rollback_prepared`]; the warehouse uses this to coordinate
    /// one batch across several engines and the change log. On error the
    /// engine has already been rolled back — all groups take effect
    /// together or not at all. This is the unit the parallel scheduler
    /// fans out: one call per engine, safe to run on a scoped worker
    /// thread (`MaintenanceEngine: Send`, and each engine is touched by
    /// exactly one worker).
    pub fn prepare_batch(&mut self, groups: &[(TableId, &[Change])]) -> Result<()> {
        let rows: usize = groups.iter().map(|(_, c)| c.len()).sum();
        let _span = self
            .obs
            .span("maintain.prepare")
            .field("summary", self.plan.view.name.as_str())
            .field("rows", rows);
        let started = std::time::Instant::now();
        let result = self.prepare_batch_inner(groups);
        let nanos = started.elapsed().as_nanos() as u64;
        self.counters.prepare_nanos.add(nanos);
        self.counters.prepare_hist.observe(nanos);
        result
    }

    fn prepare_batch_inner(&mut self, groups: &[(TableId, &[Change])]) -> Result<()> {
        // A second prepare would restart every journal and strand the
        // first batch's mutations behind a rollback that cannot see them.
        if self.txn.is_some() {
            return Err(MaintainError::InvariantViolation(format!(
                "prepared batch still open on '{}': commit_batch or rollback_prepared \
                 must close it before the next prepare_batch",
                self.plan.view.name
            )));
        }
        // Plans derived under the append-only regime (paper Section 4)
        // dropped the detail data that deletions would need; reject any
        // non-insert change loudly instead of corrupting the summary.
        if self.plan.regime == md_core::ChangeRegime::AppendOnly {
            for (table, changes) in groups {
                if let Some(i) = changes.iter().position(|c| !matches!(c, Change::Insert(_))) {
                    let cause = MaintainError::InvariantViolation(format!(
                        "view '{}' was derived under the append-only regime; \
                         the source violated its insert-only contract",
                        self.plan.view.name
                    ));
                    return Err(self.reject(*table, Some(i), cause));
                }
            }
        }
        self.begin_txn();
        if let Err(e) = self.prepare_groups_body(groups) {
            self.rollback_txn();
            let table = groups
                .first()
                .map(|(t, _)| *t)
                .unwrap_or_else(|| self.plan.graph.root());
            return Err(self.reject(table, None, e));
        }
        Ok(())
    }

    fn prepare_groups_body(&mut self, groups: &[(TableId, &[Change])]) -> Result<()> {
        self.faults
            .hit_scoped("engine.apply.begin", &self.plan.view.name)?;
        for (table, changes) in groups {
            if *table == self.plan.graph.root() {
                // Per-change fault points fire upfront, in change order.
                for i in 0..changes.len() {
                    self.faults
                        .hit_scoped("engine.apply.change", &self.plan.view.name)
                        .map_err(|e| self.reject(*table, Some(i), e))?;
                }
                self.apply_root_changes(*table, changes)?;
            } else {
                self.apply_dim_changes(*table, changes)?;
            }
            // Every fold of the table group is in place, nothing of it is
            // committed: the last point a fault can undo all of them from.
            self.faults
                .hit_scoped("engine.apply.flush", &self.plan.view.name)?;
        }
        Ok(())
    }

    /// Second phase of a two-phase apply: keeps the prepared batch and
    /// records every per-table LSN it covered as committed.
    pub fn commit_batch(&mut self, lsns: &[(TableId, u64)]) {
        let _span = self
            .obs
            .span("maintain.commit")
            .field("summary", self.plan.view.name.as_str());
        let started = std::time::Instant::now();
        for store in self.aux_stores_mut() {
            store.commit_undo();
        }
        self.summary.commit_undo();
        self.fk_journal.clear();
        self.txn = None;
        for (table, lsn) in lsns {
            self.set_applied_lsn(*table, (*lsn).max(self.applied_lsn(*table)));
        }
        let nanos = started.elapsed().as_nanos() as u64;
        self.counters.commit_nanos.add(nanos);
        self.counters.commit_hist.observe(nanos);
    }

    /// Second phase of a two-phase apply: undoes the prepared batch,
    /// restoring the engine to its pre-batch state.
    pub fn rollback_prepared(&mut self) {
        self.rollback_txn();
    }

    fn begin_txn(&mut self) {
        for store in self.aux_stores_mut() {
            store.begin_undo();
        }
        self.summary.begin_undo();
        self.fk_journal.clear();
        let run_len = &self.counters.run_len;
        self.txn = Some(TxnState {
            stats: self.counters.stats(),
            runs: self.counters.runs(),
            run_len: self.obs.metrics_on().then(|| run_len.snapshot()),
        });
    }

    fn rollback_txn(&mut self) {
        let Some(txn) = self.txn.take() else {
            return;
        };
        for store in self.aux_stores_mut() {
            store.rollback_undo();
        }
        self.summary.rollback_undo();
        for (root_key, added) in self.fk_journal.drain(..).rev() {
            fk_set(&mut self.fk_index, &self.fk_positions, &root_key, !added);
        }
        // Logical counters roll back with the batch; timing counters do
        // not — the time was genuinely spent.
        self.counters.set_logical(&txn.stats);
        self.counters.set_runs(txn.runs);
        if let Some(run_len) = &txn.run_len {
            self.counters.run_len.restore(run_len);
        }
    }

    /// Wraps `cause` as a batch rejection, unless it already is one.
    fn reject(
        &self,
        table: TableId,
        change_index: Option<usize>,
        cause: MaintainError,
    ) -> MaintainError {
        if matches!(cause, MaintainError::Rejected { .. }) {
            return cause;
        }
        let table = self
            .catalog
            .def(table)
            .map(|d| d.name.clone())
            .unwrap_or_else(|_| table.to_string());
        MaintainError::Rejected {
            table,
            change_index,
            reason: Box::new(cause),
        }
    }

    /// The one root-delta path: every `±` occurrence of the coalesced
    /// delta batch that the root's local conditions keep is grouped into
    /// *runs* sharing one run key (`run_srcs`). Dimension resolution, the
    /// semijoin test, the summary group key and the aggregate-argument
    /// template are computed once per run, and each run is folded by the
    /// store kernels; a single change is a run of one. Loading a plan
    /// without a root auxiliary view is this path fed `+R`.
    fn apply_root_changes(&mut self, table: TableId, changes: &[Change]) -> Result<()> {
        let root = self.plan.graph.root();
        let fixed = Arc::clone(&self.root_delta);
        let def = self.catalog.def(root)?;
        // Split updates into ± occurrences, in batch order. A condition
        // reads the row by source column and compares by type, so a row
        // it is asked about is held to the root's schema first.
        let mut occs: Vec<(i64, &Row, usize)> = Vec::with_capacity(changes.len());
        let mut processed = 0;
        for (i, change) in changes.iter().enumerate() {
            let (del, ins) = change.as_delete_insert();
            for (sign, row) in [(-1, del), (1, ins)] {
                let Some(row) = row else { continue };
                processed += 1;
                if !fixed.locals.is_empty() {
                    let kept = def
                        .schema
                        .check_row(&def.name, row.values())
                        .map_err(MaintainError::from)
                        .and_then(|()| passes_locals(root, &fixed.locals, row))
                        .map_err(|e| self.reject(table, Some(i), e))?;
                    if !kept {
                        continue;
                    }
                }
                occs.push((sign, row, i));
            }
        }
        self.counters.rows_processed.add(processed);
        self.fold_root_runs(&occs)
            .map_err(|(change, cause)| self.reject(table, change, cause))
    }

    /// Groups `occs` — `(sign, row, change index)`, local conditions
    /// already applied — into runs and folds each through the store
    /// kernels: one auxiliary-store pass (whose net present/absent
    /// transition is all the fk index can see — every occurrence shares
    /// the full group key) and one summary pass. The committed state
    /// equals folding the occurrences one at a time, in order. A run on
    /// groups that exist allocates nothing: its key is the first
    /// occurrence seen through `run_srcs`, its resolution, summary group
    /// key and arguments are borrowed into buffers every run of the batch
    /// reuses, and the stores journal into buffers every batch reuses. On
    /// failure: the change to blame, and why.
    fn fold_root_runs(
        &mut self,
        occs: &[(i64, &Row, usize)],
    ) -> std::result::Result<(), (Option<usize>, MaintainError)> {
        let MaintenanceEngine {
            catalog,
            plan,
            root_delta: fixed,
            root_aux,
            aux,
            summary,
            fk_index,
            fk_positions,
            fk_journal,
            txn,
            counters,
            ..
        } = self;
        let root = plan.graph.root();
        let runs = group_runs(occs.iter().map(|occ| occ.1), &fixed.run_srcs);
        counters.runs.add(runs.len() as u64);
        let mut res = Resolution::new();
        let mut vgroup: Vec<&Value> = Vec::new();
        let mut args: Vec<RunArg<'_>> = Vec::new();
        let mut signs: Vec<i64> = Vec::new();
        let mut rows: Vec<&Row> = Vec::new();

        for items in runs.iter() {
            counters.run_len.observe(items.len() as u64);
            // Everything below is constant across the run: all its
            // occurrences share the run key, hence all fk values.
            let (_, first_row, first_change) = occs[items[0]];
            let blame_first = |e| (Some(first_change), e);
            let key = RunKey {
                row: first_row,
                srcs: &fixed.run_srcs,
            };
            res.resolve(
                &plan.graph,
                aux,
                root,
                Binding::seen_through(&fixed.run_srcs, first_row),
            );
            // Without a root auxiliary view there is nothing to reduce.
            let reduced_away = root_aux.as_ref().is_some_and(|store| {
                let mut semijoins = store.def().semijoins.iter();
                semijoins.any(|t| res.binding(*t).is_none())
            });
            let joins_through = res.is_complete();
            if joins_through {
                res.group_key_into(catalog, &fixed.group_cols, &mut vgroup)
                    .map_err(blame_first)?;
                args.clear();
                for src in &fixed.arg_sources {
                    args.push(match *src {
                        ArgSource::CountStar => RunArg::None,
                        ArgSource::Root(c) => RunArg::Column(c),
                        ArgSource::Dim(col) => RunArg::Const(res.value(col).ok_or_else(|| {
                            blame_first(MaintainError::InvariantViolation(
                                "aggregate argument unresolved in complete resolution".into(),
                            ))
                        })?),
                    });
                }
            }

            let mut fold = |items: &[usize]| -> Result<()> {
                if let Some(store) = root_aux.as_mut().filter(|_| !reduced_away) {
                    let occs = items.iter().map(|&i| (occs[i].0, occs[i].1));
                    let (was, now) = store.apply_source_run(&key, occs)?;
                    // A plan without a root→child edge keeps no fk index:
                    // a group that comes or goes has no key to build.
                    if was != now && !fk_positions.is_empty() {
                        let root_key = key.to_row();
                        fk_set(fk_index, fk_positions, &root_key, now);
                        // Outside a transaction (the initial load) nothing
                        // can roll back.
                        if txn.is_some() {
                            fk_journal.push((root_key, now));
                        }
                    }
                }
                if !joins_through {
                    return Ok(());
                }
                signs.clear();
                signs.extend(items.iter().map(|&i| occs[i].0));
                rows.clear();
                rows.extend(items.iter().map(|&i| occs[i].1));
                summary.apply_run(&vgroup.as_slice(), &signs, &rows, &args)
            };
            if let Err(err) = fold(items) {
                // The kernels leave a failed run's group as it was, so the
                // summary (and, unless the failure came after the aux
                // fold, the auxiliary store) still holds this run's
                // pre-run state. Replay the run through the same kernel
                // one occurrence at a time to attribute the error to the
                // exact failing change — the caller rolls the whole batch
                // back afterwards, so the replay's mutations are
                // transient.
                for k in 0..items.len() {
                    fold(&items[k..=k]).map_err(|e| (Some(occs[items[k]].2), e))?;
                }
                return Err(blame_first(err));
            }
        }
        Ok(())
    }

    /// Rebuilds the fk index from the root auxiliary store (after initial
    /// load, full rebuilds and snapshot restores).
    pub(crate) fn rebuild_fk_index(&mut self) {
        self.fk_index.clear();
        if let Some(store) = &self.root_aux {
            for (key, _) in store.iter() {
                fk_set(&mut self.fk_index, &self.fk_positions, key, true);
            }
        }
    }

    /// Whether the fk index is what [`Self::rebuild_fk_index`] would
    /// derive: per edge it lists every root auxiliary key, and nothing
    /// else, under that key's foreign-key value. Probes, builds nothing.
    fn fk_index_is_exact(&self) -> bool {
        let Some(store) = self.root_aux.as_ref().filter(|s| !s.is_empty()) else {
            return self.fk_index.is_empty();
        };
        let exact = |&(child, pos): &(TableId, usize)| {
            self.fk_index.get(&child).is_some_and(|by_value| {
                let listed: usize = by_value.values().map(SeededHashSet::len).sum();
                let real = |fk: &Value, key: &Row| key[pos] == *fk && store.get(key).is_some();
                listed == store.len()
                    && by_value
                        .iter()
                        .all(|(fk, keys)| keys.iter().all(|key| real(fk, key)))
            })
        };
        self.fk_index.len() == self.fk_positions.len() && self.fk_positions.iter().all(exact)
    }

    /// Rebuilds the summary view from the auxiliary views alone — the
    /// paper's reconstruction query (or the root-omitted group remap) run
    /// as a standalone repair, e.g. to bring a quarantined engine back
    /// from an arbitrary failed-prepare state. Any open transaction is
    /// rolled back first (restoring consistent aux views), then `V` is
    /// rebuilt from `X`. The committed LSN vector is left untouched so
    /// the logged deltas can be replayed idempotently afterwards. Returns
    /// the number of summary rows after the rebuild.
    pub fn rebuild_summary(&mut self) -> Result<u64> {
        self.rollback_txn();
        let _span = self
            .obs
            .span("maintain.rebuild")
            .field("summary", self.plan.view.name.as_str());
        self.counters.summary_rebuilds.incr();
        if self.plan.reconstruction.is_some() {
            self.rebuild_from_aux()?;
        } else {
            self.remap_groups_from_dims(|_| true)?;
        }
        Ok(self.summary.iter().count() as u64)
    }

    /// Replaces the summary and the fk index by what the auxiliary views
    /// reconstruct (initial load, standalone repair — never inside a
    /// transaction).
    fn rebuild_from_aux(&mut self) -> Result<()> {
        let (root_store, recon) = (self.root_aux.as_ref(), self.recon.as_ref());
        ReconExecutor::over(&self.plan, &self.catalog, root_store, &self.aux, recon)?
            .rebuild_summary(&mut self.summary)?;
        self.rebuild_fk_index();
        Ok(())
    }

    /// The reconstruction executor over this engine's stores.
    fn recon_executor(&self) -> Result<ReconExecutor<'_>> {
        let (root_store, recon) = (self.root_aux.as_ref(), self.recon.as_ref());
        ReconExecutor::over(&self.plan, &self.catalog, root_store, &self.aux, recon)
    }

    // ------------------------------------------------------------------
    // Verification
    // ------------------------------------------------------------------

    /// Source-free integrity audit: rebuilds `V` from `X` and holds the
    /// maintained groups against it state by state — value counts
    /// included, since a wrong count can hide behind today's right
    /// answer — and checks that every group's value counts add up to its
    /// hidden count. Unlike [`Self::verify_against`], this never touches
    /// base tables, so a live warehouse can run it at any time. Returns
    /// the violations found (an empty report means the engine's
    /// invariants all hold).
    pub fn audit(&self) -> AuditReport {
        let mut findings = Vec::new();
        for (key, state) in self.summary.iter() {
            if let Err(e) = self.summary.check_group(key, state) {
                findings.push(e.to_string());
            }
        }
        if self.plan.reconstruction.is_some() {
            let rebuilt = self.recon_executor().and_then(|exec| {
                let mut fresh =
                    SummaryStore::new(&self.plan.view, &self.catalog, self.plan.regime)?;
                exec.rebuild_summary(&mut fresh).map(|()| fresh)
            });
            match rebuilt {
                Err(e) => findings.push(format!("summary rebuild from X failed: {e}")),
                Ok(fresh) if self.summary.same_groups(&fresh) => {}
                Ok(_) => findings.push(
                    "summary diverges from its reconstruction from the auxiliary views".to_string(),
                ),
            }
            // The fk index is not in the snapshot (restore rebuilds it),
            // yet dimension deltas trust it.
            if !self.fk_index_is_exact() {
                findings.push(
                    "fk index diverges from the root auxiliary view's group keys".to_string(),
                );
            }
        } else if self.plan.regime == md_core::ChangeRegime::General {
            // Root omitted: the group key must still determine its
            // dimension chain, and the stored key values must agree with
            // the dimension stores. (An append-only plan omits the root
            // without pinning the dimension keys, and its dimension rows
            // never change: X holds nothing to check V against.)
            let root = self.plan.graph.root();
            let group_cols = self.plan.view.group_by_cols();
            for (key, _) in self.summary.iter() {
                match self.resolve_group_dims(key) {
                    Err(e) => {
                        findings.push(format!("group {key}: dimension chain unresolvable: {e}"))
                    }
                    Ok(res) => {
                        for (i, col) in group_cols.iter().enumerate() {
                            if col.table == root {
                                continue;
                            }
                            if res.value(*col) != Some(&key[i]) {
                                findings.push(format!(
                                    "group {key}: stored attribute {} disagrees with the \
                                     dimension stores",
                                    col.display(&self.catalog)
                                ));
                            }
                        }
                    }
                }
            }
        }
        AuditReport { findings }
    }

    /// Oracle check: compares the maintained summary against a fresh
    /// recomputation from the base tables. Intended for tests and
    /// experiments only — production maintenance never calls this.
    pub fn verify_against(&self, db: &Database) -> Result<bool> {
        let expected = eval_view(&self.plan.view, db).map_err(MaintainError::from)?;
        Ok(self.summary.to_bag()? == expected)
    }

    /// Oracle check for the auxiliary views: each store must equal its
    /// definition evaluated from the base tables.
    pub fn verify_aux_against(&self, db: &Database) -> Result<bool> {
        let mut expected = BTreeMap::new();
        for store in self.aux_stores() {
            let table = store.def().table;
            expected_aux_rows(table, &self.plan, db, &mut expected)?;
            if store.materialized_rows() != expected[&table] {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Compile-time guarantee the parallel scheduler relies on: engines can
/// be handed to scoped worker threads (each engine touched by exactly one
/// worker per batch, so no `Sync` requirement).
#[allow(dead_code)]
fn assert_engine_is_send()
where
    MaintenanceEngine: Send,
{
}

/// Whether `row` of `table` passes every one of `conds`, that table's local
/// conditions: loads, dimension deltas and root deltas all ask here.
fn passes_locals(table: TableId, conds: &[Condition], row: &Row) -> Result<bool> {
    eval_all(conds, &RowEnv::single(table, row)).map_err(MaintainError::from)
}

/// A row seen through its projection onto `srcs`: hashes and compares
/// the projected columns in place, and probes the stores as the
/// [`RowKey`] it projects to, so a run builds a key row only where a
/// store has to keep one.
#[derive(Clone, Copy)]
struct RunKey<'a> {
    row: &'a Row,
    srcs: &'a [usize],
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

/// The occurrences of a batch grouped into *runs* sharing one projection
/// onto `srcs`: runs in first-appearance order, and within a run the
/// occurrences' indices in input order — so a run's first index is the
/// occurrence that opened it.
struct Runs {
    /// Every occurrence index, run after run.
    items: Vec<usize>,
    /// Per run, its stretch of `items`.
    spans: Vec<Range<usize>>,
}

impl Runs {
    fn len(&self) -> usize {
        self.spans.len()
    }

    /// The runs, each as its occurrence indices (never empty).
    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.spans.iter().map(|span| &self.items[span.clone()])
    }
}

/// Groups `rows` into [`Runs`]: one hash pass assigns each row its run —
/// through an index from projection to run that is looked up and never
/// iterated, so it sits under the batch-local [`RowHashMap`] hasher —
/// and one counting pass lays the runs out in a single array.
fn group_runs<'r>(rows: impl Iterator<Item = &'r Row>, srcs: &[usize]) -> Runs {
    let expected = rows.size_hint().0;
    // A batch has about as many runs as rows and is spared the rehashes;
    // a load compresses a table's worth of rows into far fewer runs, and
    // is not made to reserve a bucket per row.
    let mut run_of: RowHashMap<RunKey<'_>, usize> =
        RowHashMap::with_capacity_and_hasher(expected.min(4096), Default::default());
    let mut run_of_row: Vec<usize> = Vec::with_capacity(expected);
    let mut spans: Vec<Range<usize>> = Vec::new();
    for row in rows {
        let run = *run_of.entry(RunKey { row, srcs }).or_insert(spans.len());
        if run == spans.len() {
            spans.push(0..0);
        }
        spans[run].end += 1;
        run_of_row.push(run);
    }
    // Lengths become offsets; each span then grows back to its length as
    // its rows are placed.
    let mut start = 0;
    for span in &mut spans {
        let len = span.end;
        *span = start..start;
        start += len;
    }
    let mut items = vec![0; run_of_row.len()];
    for (idx, &run) in run_of_row.iter().enumerate() {
        items[spans[run].end] = idx;
        spans[run].end += 1;
    }
    Runs { items, spans }
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
    use md_algebra::{AggFunc, Aggregate, Condition, GpsjView, SelectItem};
    use md_core::derive;
    use md_relation::{row, DataType, Schema};

    /// `by_brand` over `sale ⋈ product` where every product carries the
    /// same brand and sells at a price of its own: one summary group whose
    /// `MAX(price)` counts one value per product.
    fn one_wide_group(products: i64) -> (MaintenanceEngine, TableId, TableId) {
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
        let mut engine = MaintenanceEngine::new(derive(&view, &cat).unwrap(), &cat).unwrap();
        engine.initial_load(&db).unwrap();
        (engine, sale, product)
    }

    #[test]
    fn journal_of_a_one_change_batch_is_independent_of_the_entry_size() {
        // A count, not a timing: the open transaction must hold a constant
        // number of values however many the touched group counts — the
        // inverse of each mutation, never a copy of the map.
        let (mut engine, sale, _) = one_wide_group(10_000);
        assert_eq!(engine.summary.len(), 1);
        assert_eq!(engine.summary.value_count_footprint().unwrap().0, 10_000);
        let before = engine.snapshot().unwrap();
        let top = |engine: &MaintenanceEngine| {
            let rows = engine.summary.to_rows().unwrap();
            rows[0][3].clone()
        };

        // A sale, then the current maximum gone: the runner-up answers.
        for (change, want) in [
            (Change::Insert(row![10_000, 7, 2.5]), 10_000.5),
            (Change::Delete(row![9_999, 9_999, 10_000.5]), 9_999.5),
        ] {
            engine.prepare_batch(&[(sale, &[change])]).unwrap();
            assert!(engine.txn.is_some(), "prepared");
            let records = engine.fk_journal.len() + engine.summary.undo_weight();
            assert!(records <= 4, "{records} undo records for one change");
            // Nor does the auxiliary journal grow with the 10 000 tuples
            // of its store: one key and one group's sums.
            let held: usize = engine.aux_stores().map(AuxStore::undo_weight).sum();
            assert!(
                held <= 4,
                "{held} auxiliary values journaled for one change"
            );
            assert_eq!(top(&engine), Value::Double(want));

            engine.rollback_prepared();
            assert_eq!(before, engine.snapshot().unwrap());
        }
    }

    #[test]
    fn rollback_unwinds_the_fk_index() {
        // A root key created, one removed, and a rename that moves a third
        // between summary groups, in one transaction.
        let (mut engine, sale, product) = one_wide_group(50);
        let before = engine.fk_index.clone();
        assert_eq!(before[&product].len(), 50);

        let newcomer = [Change::Insert(row![50, "acme"])];
        let sales = [
            Change::Insert(row![50, 50, 2.5]),
            Change::Delete(row![3, 3, 4.5]),
        ];
        let rename = [Change::Update {
            old: row![5, "acme"],
            new: row![5, "zeta"],
        }];
        engine
            .prepare_batch(&[(product, &newcomer), (sale, &sales), (product, &rename)])
            .unwrap();
        assert!(engine.fk_index[&product].contains_key(&Value::Int(50)));
        assert!(!engine.fk_index[&product].contains_key(&Value::Int(3)));
        assert_eq!(engine.stats().dim_targeted_updates, 1);
        assert_eq!(engine.summary.len(), 2);

        engine.rollback_prepared();
        assert_eq!(before, engine.fk_index);
        assert_eq!(engine.summary.len(), 1);
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
        let (mut engine, sale, product) = one_wide_group(50);
        let before = engine.snapshot().unwrap();
        let (newcomer, sales, rename) = multi_table_batch();
        engine
            .prepare_batch(&[(product, &newcomer), (sale, &sales), (product, &rename)])
            .unwrap();
        let prepared = engine.snapshot().unwrap();

        let again = engine.prepare_batch(&[(sale, &[Change::Insert(row![51, 7, 1.5])])]);
        match again {
            Err(MaintainError::InvariantViolation(why)) => {
                assert!(why.contains("prepared batch still open"), "{why}")
            }
            other => panic!("a second prepare must be refused, got {other:?}"),
        }
        // Refused before it touched anything: the first batch is intact
        // and still the one a rollback unwinds.
        assert_eq!(prepared, engine.snapshot().unwrap());
        engine.rollback_prepared();
        assert_eq!(before, engine.snapshot().unwrap());
        assert!(engine.audit().is_clean());
    }

    #[test]
    fn a_fault_at_any_point_rolls_back_to_the_image_and_leaks_no_journal() {
        let (newcomer, sales, rename) = multi_table_batch();
        let committed = {
            let (mut fresh, sale, product) = one_wide_group(50);
            fresh
                .prepare_batch(&[(product, &newcomer), (sale, &sales), (product, &rename)])
                .unwrap();
            fresh.commit_batch(&[(product, 1), (sale, 1)]);
            fresh.snapshot().unwrap()
        };
        for point in [
            "engine.apply.begin",
            "engine.apply.change",
            "engine.apply.flush",
        ] {
            let mut fired = 0;
            for nth in 0.. {
                let (mut engine, sale, product) = one_wide_group(50);
                let groups: [(TableId, &[Change]); 3] =
                    [(product, &newcomer), (sale, &sales), (product, &rename)];
                let before = engine.snapshot().unwrap();
                let mut faults = FaultPlan::recording();
                faults.arm(point, nth);
                engine.set_fault_plan(faults);
                if engine.prepare_batch(&groups).is_ok() {
                    break; // the batch has fewer traversals of `point`
                }
                fired += 1;
                assert_eq!(before, engine.snapshot().unwrap(), "{point} #{nth}");
                assert!(engine.audit().is_clean(), "{point} #{nth}");
                assert!(engine.fk_journal.is_empty() && engine.summary.undo_weight() == 0);
                assert!(engine.aux_stores().all(|store| store.undo_weight() == 0));
                // The journals were cleared and reused, not leaked: the
                // next batch lands where it does on a fresh engine.
                engine.set_fault_plan(FaultPlan::default());
                engine.prepare_batch(&groups).unwrap();
                engine.commit_batch(&[(product, 1), (sale, 1)]);
                assert_eq!(committed, engine.snapshot().unwrap(), "{point} #{nth}");
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
    fn runs_are_counted_and_rolled_back_with_the_batch() {
        let (mut engine, sale, _) = one_wide_group(50);
        engine.set_obs(Obs::new(md_obs::ObsConfig::metrics()));
        // Two occurrences on product 7, one on product 8: two runs.
        let sales = [
            Change::Insert(row![50, 7, 8.5]),
            Change::Insert(row![51, 8, 9.5]),
            Change::Insert(row![52, 7, 8.5]),
        ];
        engine.apply(sale, &sales).unwrap();
        let run_len = engine.counters.run_len.snapshot();
        assert_eq!(
            (engine.counters.runs.get(), run_len.count, run_len.sum),
            (2, 2, 3)
        );

        engine.prepare_batch(&[(sale, &sales[..1])]).unwrap();
        assert_eq!(engine.counters.runs.get(), 3);
        engine.rollback_prepared();
        assert_eq!(engine.counters.runs.get(), 2);
        assert_eq!(engine.counters.run_len.snapshot(), run_len);
    }

    #[test]
    fn runs_come_out_in_first_appearance_order_and_keep_batch_order_within() {
        let rows = [
            row![0, "b"],
            row![1, "a"],
            row![2, "b"],
            row![3, "c"],
            row![4, "a"],
            row![5, "b"],
        ];
        let runs = group_runs(rows.iter(), &[1]);
        let grouped: Vec<&[usize]> = runs.iter().collect();
        assert_eq!(grouped, [&[0, 2, 5][..], &[1, 4], &[3]]);
        assert_eq!(runs.len(), 3);
        assert_eq!(group_runs([].iter(), &[1]).len(), 0);
    }

    #[test]
    fn audit_checks_the_fk_index_against_the_root_store() {
        // Root keys created, removed and — by a rollback — restored.
        let (mut engine, sale, product) = one_wide_group(50);
        let sales = [
            Change::Insert(row![50, 7, 2.5]),
            Change::Delete(row![3, 3, 4.5]),
        ];
        engine.apply(sale, &sales).unwrap();
        assert!(engine.audit().is_clean());
        let gone = [Change::Delete(row![9, 9, 10.5])];
        engine.prepare_batch(&[(sale, &gone)]).unwrap();
        engine.rollback_prepared();
        assert!(engine.audit().is_clean());

        // No snapshot carries the fk index: only this check sees it.
        let by_value = engine.fk_index.get_mut(&product).unwrap();
        by_value.remove(&Value::Int(9));
        let findings = engine.audit().findings;
        assert!(
            findings.iter().any(|f| f.contains("fk index")),
            "{findings:?}"
        );
    }
}
