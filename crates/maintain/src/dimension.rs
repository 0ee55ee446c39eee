//! Dimension deltas: the one rule for every non-root table.
//!
//! A change to dimension `T` is folded into `T`'s auxiliary store and
//! observed as `ΔX_T` — the pair of auxiliary rows before and after, once
//! local conditions, semijoins and the projection onto the retained
//! columns have had their say. An empty `ΔX_T` (a column the view never
//! kept, a row outside the view on both sides) cannot change `V`: that is
//! self-maintainability read backwards. Neither can an insert or delete on
//! a *dependency edge* (key join + referential integrity + no exposed
//! updates, Section 2.2) — no existing tuple joins the row.
//!
//! Anything else reshapes existing join results, and `ΔV` is one grouped
//! aggregate over `ΔX_T ⋈ X_{R₀}`: the semi-naive rule, with `T`
//! restricted to its delta and signed, since an exposed update is a
//! delete plus an insert (Section 2.2). The joined root auxiliary tuples
//! are read off the foreign-key index, and the change is applied in three
//! steps — the middle one once for every summary reading `T`'s store:
//!
//! 1. **Retract** ([`SummaryEngine::dim_retract`], every subscriber).
//!    While `T`'s store still holds the old row, every joined tuple is
//!    resolved by borrowing — its key in place in the fk index, one
//!    [`Resolution`] for all of them, the walk the rebuild takes
//!    ([`ReconExecutor::share_of`]) — and put in a bucket keyed by its
//!    summary group key and raw aggregate arguments, in first-appearance
//!    order. A bucket holds `Σcnt₀` and the exact merge of its tuples'
//!    stored sums, and is folded through [`SummaryStore::apply_run`] as
//!    one occurrence of weight `−Σcnt₀`.
//! 2. **Apply** `ΔX_T` to `T`'s store (the registry, once).
//! 3. **Insert** ([`SummaryEngine::dim_insert`], every subscriber). The
//!    same walk under the new row, weight `+Σcnt₀`.
//!
//! The sums are exact (DESIGN.md §14), so merging a bucket first moves
//! what moving its tuples one by one would: the committed state — every
//! image and log byte — is the same. A tuple that stops (starts) joining
//! through appears on the retract (insert) side only. The work is one
//! borrowed walk per joined tuple and one kernel call per bucket and side.
//!
//! When the root auxiliary view was eliminated there are no tuples to
//! join: the groups whose key pins the changed dimension row are remapped
//! from the dimension stores alone, which the elimination conditions
//! guarantee to be sufficient — a scan of `V` per change.

use std::time::Instant;

use md_algebra::ColRef;
use md_core::DerivedPlan;
use md_relation::{Catalog, Change, Row, SeededHashMap, TableId, Value};

use super::SummaryEngine;
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::reconstruct::ReconExecutor;
use crate::registry::{DimDelta, StoreId, StoreRegistry, ViewStores};
use crate::resolve::{Binding, Resolution, StoreLookup};
use crate::summary::{AggState, GroupState, RunArg, SummaryStore, ValueCounts};

/// What a retract leaves for the insert of the same change: the direct
/// root child and its key values whose tuples the change joins (`None`:
/// none — an insert or delete on a dependency edge), and how many tuples
/// the retract walked.
pub(crate) struct DimStep {
    joined: Option<(TableId, Vec<Value>)>,
    tuples: u64,
}

impl SummaryEngine {
    /// The store of dimension `table`, which every table but the root
    /// has.
    pub(crate) fn dim_store(&self, table: TableId) -> Result<StoreId> {
        self.store_of(table).ok_or_else(|| {
            MaintainError::InvariantViolation(format!(
                "changes for table {table} which has no auxiliary view (only the root \
                 can be omitted)"
            ))
        })
    }

    /// Step 1 of change `i` of a group of dimension `table`, while its
    /// store still holds the old row: `delta` is `ΔX_T` as this summary's
    /// store of `table` sees it. Returns what step 3 needs, or `None` when
    /// `ΔX_T` is empty and the change is a no-op here.
    pub(crate) fn dim_retract(
        &mut self,
        table: TableId,
        i: usize,
        change: &Change,
        delta: &DimDelta<'_>,
        registry: &StoreRegistry,
    ) -> Result<Option<DimStep>> {
        let started = Instant::now();
        let step = self
            .retract(table, change, delta, registry)
            .map_err(|e| self.reject(table, Some(i), e));
        self.note_fold(started);
        step
    }

    fn retract(
        &mut self,
        table: TableId,
        change: &Change,
        delta: &DimDelta<'_>,
        registry: &StoreRegistry,
    ) -> Result<Option<DimStep>> {
        self.faults
            .hit_scoped("engine.apply.change", &self.plan.view.name)?;
        self.counters.rows_processed.incr();
        // Equal sides leave X unchanged, and V is a function of X.
        if delta.is_empty() {
            self.counters.dim_noop_changes.incr();
            return Ok(None);
        }

        // Which root auxiliary tuples ΔX_T joins: those the fk index lists
        // under these keys of a direct child of the root. An insert or
        // delete on a dependency edge joins no existing tuple (Section
        // 2.2): there is no join.
        let is_update = matches!(change, Change::Update { .. });
        let joined = if is_update || !self.dependency_edge[&table] {
            let key_col = self.catalog.def(table)?.key_col;
            let sides = delta.old.iter().chain(&delta.new);
            let mut keys: Vec<Value> = sides.map(|(r, _)| r[key_col].clone()).collect();
            keys.dedup();
            Some(self.direct_child_keys(table, keys, registry)?)
        } else {
            None
        };
        let tuples = match joined.as_ref().filter(|_| self.recon.is_some()) {
            Some((child, keys)) => self.fold_joined(*child, keys, -1, registry)?,
            None => 0,
        };
        Ok(Some(DimStep { joined, tuples }))
    }

    /// Step 3 of change `i` of a group of dimension `table`, once its
    /// store holds the new row.
    pub(crate) fn dim_insert(
        &mut self,
        table: TableId,
        i: usize,
        step: DimStep,
        registry: &StoreRegistry,
    ) -> Result<()> {
        let started = Instant::now();
        let done = self
            .insert(step, registry)
            .map_err(|e| self.reject(table, Some(i), e));
        self.note_fold(started);
        done
    }

    fn insert(&mut self, step: DimStep, registry: &StoreRegistry) -> Result<()> {
        let Some((child, keys)) = step.joined else {
            self.counters.dim_noop_changes.incr();
            return Ok(());
        };
        if self.recon.is_some() {
            self.fold_joined(child, &keys, 1, registry)?;
            self.counters.dim_joined.add(step.tuples);
        } else {
            let (ctx, summary) = self.remap_parts(registry);
            let pos = pinned_key_position(&ctx, child)?;
            remap_groups(&ctx, summary, |vgroup| keys.contains(&vgroup[pos]))?;
        }
        self.counters.dim_targeted_updates.incr();
        Ok(())
    }

    /// After every change of a group of dimension `table`: the last point
    /// a fault can undo all of them from.
    pub(crate) fn dim_flush(&mut self) -> Result<()> {
        self.faults
            .hit_scoped("engine.apply.flush", &self.plan.view.name)
    }

    /// What a remap reads of this engine, and the summary it rewrites.
    pub(super) fn remap_parts<'a>(
        &'a mut self,
        registry: &'a StoreRegistry,
    ) -> (RemapContext<'a>, &'a mut SummaryStore) {
        let SummaryEngine {
            catalog,
            plan,
            root_delta,
            stores,
            summary,
            ..
        } = self;
        let ctx = RemapContext {
            catalog,
            plan,
            group_cols: &root_delta.group_cols,
            stores: ViewStores {
                registry,
                ids: stores,
            },
        };
        (ctx, summary)
    }

    /// What a remap reads of this engine.
    pub(super) fn remap_context<'a>(&'a self, registry: &'a StoreRegistry) -> RemapContext<'a> {
        RemapContext {
            catalog: &self.catalog,
            plan: &self.plan,
            group_cols: &self.root_delta.group_cols,
            stores: self.view(registry),
        }
    }

    /// Folds the root auxiliary tuples the fk index lists under `keys` of
    /// root child `child` into the summary, each weighing `sign · cnt₀`,
    /// as they resolve under the dimension stores now: bucketed by summary
    /// group key and raw argument values, one kernel call per bucket (see
    /// the module docs). Returns how many tuples it walked.
    fn fold_joined(
        &mut self,
        child: TableId,
        keys: &[Value],
        sign: i64,
        registry: &StoreRegistry,
    ) -> Result<u64> {
        let SummaryEngine {
            catalog,
            plan,
            recon,
            root_delta,
            stores,
            root_store,
            summary,
            fk_edges,
            counters,
            ..
        } = self;
        let edge = fk_edges.iter().find(|(c, _)| *c == child);
        let by_value = root_store
            .zip(edge)
            .and_then(|(id, edge)| registry.store(id).fk_keys(*edge));
        let Some(by_value) = by_value else {
            return Ok(0);
        };
        let view = ViewStores {
            registry,
            ids: stores,
        };
        let exec = ReconExecutor::over(plan, catalog, view, recon.as_ref())?;
        let root_store = exec.root_store()?;
        let mut res = Resolution::new();
        let (mut vgroup, mut args, mut probe) = (Vec::new(), Vec::new(), Vec::new());
        // Bucket key → bucket; per bucket `Σcnt₀` and where its merged
        // sums start in `sums`. The map is looked up, never iterated.
        let mut index: SeededHashMap<Vec<&Value>, usize> = SeededHashMap::default();
        let mut buckets: Vec<(u64, usize)> = Vec::new();
        let mut sums: Vec<ExactSum> = Vec::new();
        let mut tuples = 0;
        // In no particular order: the sums they move are exact, and an
        // error fails the whole batch whichever tuple it names.
        for root_key in keys.iter().filter_map(|k| by_value.get(k)).flatten() {
            tuples += 1;
            let Some(state) = root_store.get(root_key) else {
                continue;
            };
            if !exec.share_of(root_key, state, &mut res, &mut vgroup, &mut args)? {
                continue;
            }
            probe.clear();
            probe.extend_from_slice(&vgroup);
            probe.extend(args.iter().filter_map(raw));
            let bucket = match index.get(probe.as_slice()) {
                Some(&bucket) => bucket,
                None => {
                    index.insert(probe.clone(), buckets.len());
                    buckets.push((0, sums.len()));
                    let summed = args.iter().filter_map(summed);
                    sums.extend(summed.map(|_| ExactSum::default()));
                    buckets.len() - 1
                }
            };
            let (cnt, at) = &mut buckets[bucket];
            *cnt += state.cnt;
            for (total, sum) in sums[*at..].iter_mut().zip(args.iter().filter_map(summed)) {
                total.merge(sum);
            }
        }

        let mut order: Vec<&[&Value]> = vec![&[]; buckets.len()];
        for (key, &bucket) in &index {
            order[bucket] = key;
        }
        let width = root_delta.group_cols.len();
        let mut run: Vec<RunArg<'_>> = Vec::with_capacity(args.len());
        for (key, &(cnt, at)) in order.iter().zip(&buckets) {
            let (group, mut raws) = (&key[..width], key[width..].iter());
            let mut merged = sums[at..].iter();
            // `args` still holds the last joined tuple's arguments, and
            // every tuple's have the same shape: it is the template.
            run.clear();
            for arg in &args {
                run.push(match arg {
                    RunArg::Const(_) => RunArg::Const(raws.next().expect("one raw value each")),
                    RunArg::Summed(_) => RunArg::Summed(merged.next().expect("one sum each")),
                    RunArg::None => RunArg::None,
                    RunArg::Column(c) => RunArg::Column(*c),
                });
            }
            summary.apply_run(&group, &[sign * cnt as i64], &[], &run)?;
        }
        counters.dim_runs.add(buckets.len() as u64);
        Ok(tuples)
    }

    /// Climbs from `table` to the direct child of the root above it:
    /// returns that child and the key values of its auxiliary rows whose
    /// chain reaches one of `keys` in `table` (`keys` themselves when
    /// `table` is the direct child). Each hop scans the parent dimension's
    /// store — the reverse of the key lookup [`Resolution::resolve`] does
    /// going down, over a store that is dimension-sized by construction.
    fn direct_child_keys(
        &self,
        mut table: TableId,
        mut keys: Vec<Value>,
        registry: &StoreRegistry,
    ) -> Result<(TableId, Vec<Value>)> {
        let root = self.plan.graph.root();
        while let Some(edge) = self.plan.graph.parent_edge(table) {
            if edge.from == root {
                break;
            }
            let parent = registry.store(self.dim_store(edge.from)?);
            let parent_key = self.catalog.def(edge.from)?.key_col;
            keys = parent
                .iter()
                .filter_map(|(row, _)| {
                    let binding = Binding::stored(parent.group_srcs(), row);
                    let referenced = keys.contains(binding.value(edge.fk_col)?);
                    referenced.then(|| binding.value(parent_key).cloned())?
                })
                .collect();
            table = edge.from;
        }
        Ok((table, keys))
    }
}

/// What the root-omitted remap reads: the plan, its group-by columns and
/// the summary's dimension stores.
pub(super) struct RemapContext<'a> {
    catalog: &'a Catalog,
    plan: &'a DerivedPlan,
    group_cols: &'a [ColRef],
    stores: ViewStores<'a>,
}

/// Binds every dimension reachable from the group key's child-key values
/// (root-omitted plans only).
pub(super) fn resolve_group_dims<'a>(
    ctx: &RemapContext<'a>,
    vgroup: &Row,
) -> Result<Resolution<'a>> {
    let root = ctx.plan.graph.root();
    let mut res = Resolution::new();
    let mut stack = Vec::new();
    for edge in ctx.plan.graph.children(root) {
        let pos = pinned_key_position(ctx, edge.to)?;
        let store = ctx
            .stores
            .store(edge.to)
            .ok_or_else(|| MaintainError::InvariantViolation("dimension store missing".into()))?;
        if let Some((row, _)) = store.lookup_by_key(&vgroup[pos]) {
            res.bind(edge.to, Binding::stored(store.group_srcs(), row));
            stack.push(edge.to);
        }
    }
    // Descend into deeper dimensions.
    while let Some(t) = stack.pop() {
        let Some(binding) = res.binding(t) else {
            continue;
        };
        for edge in ctx.plan.graph.children(t) {
            let Some(store) = ctx.stores.store(edge.to) else {
                continue;
            };
            if let Some(fk) = binding.value(edge.fk_col) {
                if let Some((row, _)) = store.lookup_by_key(fk) {
                    res.bind(edge.to, Binding::stored(store.group_srcs(), row));
                    stack.push(edge.to);
                }
            }
        }
    }
    Ok(res)
}

/// Where the key of root child `child` sits in the group key of a
/// root-omitted plan (the elimination precondition puts it there).
fn pinned_key_position(ctx: &RemapContext<'_>, child: TableId) -> Result<usize> {
    let key_ref = ColRef::new(child, ctx.catalog.def(child)?.key_col);
    ctx.group_cols
        .iter()
        .position(|c| *c == key_ref)
        .ok_or_else(|| {
            MaintainError::InvariantViolation(format!(
                "child key {} not in the group key despite root elimination",
                key_ref.display(ctx.catalog)
            ))
        })
}

/// Root-omitted dimension delta: every group key pins its dimension
/// chain, so for the groups of `summary` that `pinned` selects the
/// group-by attributes and all dimension-sourced aggregates are recomputed
/// from the dimension stores (the whole group carries the one value the
/// chain determines), while root-sourced states are carried over
/// unchanged.
pub(super) fn remap_groups(
    ctx: &RemapContext<'_>,
    summary: &mut SummaryStore,
    pinned: impl Fn(&Row) -> bool,
) -> Result<()> {
    let root = ctx.plan.graph.root();
    let keys: Vec<Row> = summary
        .iter()
        .filter(|(k, _)| pinned(k))
        .map(|(k, _)| k.clone())
        .collect();
    let old_groups: Vec<(Row, GroupState)> = keys
        .into_iter()
        .filter_map(|k| {
            let state = summary.remove_group(&k)?;
            Some((k, state))
        })
        .collect();

    for (old_key, mut state) in old_groups {
        let res = resolve_group_dims(ctx, &old_key)?;
        // Recompute the group key: root attributes keep their old values
        // (positionally), dimension attributes re-resolve.
        let new_key: Row = ctx
            .group_cols
            .iter()
            .enumerate()
            .map(|(i, col)| {
                if col.table == root {
                    Ok(old_key[i].clone())
                } else {
                    res.value(*col).cloned().ok_or_else(|| {
                        MaintainError::InvariantViolation(format!(
                            "group-by attribute {} unresolved during remap",
                            col.display(ctx.catalog)
                        ))
                    })
                }
            })
            .collect::<Result<Row>>()?;
        // Recompute dimension-sourced aggregates.
        for (agg, agg_state) in summary.aggregates().iter().zip(state.aggs.iter_mut()) {
            let Some(col) = agg.arg else { continue };
            if col.table == root {
                continue;
            }
            let v = res.value(col).cloned().ok_or_else(|| {
                MaintainError::InvariantViolation(format!(
                    "aggregate argument {} unresolved during remap",
                    col.display(ctx.catalog)
                ))
            })?;
            let n = state.hidden_cnt;
            match agg_state {
                AggState::Count => {}
                AggState::Sum(total) => {
                    *total = ExactSum::default();
                    total.add(&v, n as i64)?;
                }
                AggState::Values(counts) => *counts = ValueCounts::from([(v, n)]),
            }
        }
        if summary.group(&new_key).is_some() {
            return Err(MaintainError::InvariantViolation(format!(
                "group collision during dimension remap at {new_key}; the group key \
                 no longer determines the dimension chain"
            )));
        }
        summary.install_group(new_key, state);
    }
    Ok(())
}

/// A raw argument's value: part of a bucket's key.
fn raw<'a>(arg: &RunArg<'a>) -> Option<&'a Value> {
    match arg {
        RunArg::Const(v) => Some(v),
        _ => None,
    }
}

/// A stored sum: merged into its bucket's.
fn summed<'a>(arg: &RunArg<'a>) -> Option<&'a ExactSum> {
    match arg {
        RunArg::Summed(sum) => Some(sum),
        _ => None,
    }
}
