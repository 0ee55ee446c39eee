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
//! When the root auxiliary view was eliminated (general regime) the
//! compressed root tuples a change joins are groups of `V` itself (see
//! `reconstruct.rs`): the retract takes out the groups whose key pins a
//! joined child key — a scan of `V` per change, since no index lists
//! them — and folds them at `−cnt₀` under the old row, and the insert
//! folds the same groups back at `+cnt₀` under the new one, through the
//! same buckets and kernel. An append-only plan without `X_{R₀}` joins
//! nothing: its dimensions are insert-only.

use std::time::Instant;

use md_relation::{Change, GroupKey, SeededHashMap, TableId, Value};

use super::SummaryEngine;
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::reconstruct::{ReconExecutor, RootTuple};
use crate::registry::{DimDelta, StoreId, StoreRegistry, ViewStores};
use crate::resolve::{Binding, Resolution};
use crate::summary::{GroupState, RunArg, SummaryStore};

/// What a retract leaves for the insert of the same change: the direct
/// root child and its key values whose tuples the change joins (`None`:
/// none — an insert or delete on a dependency edge), the groups of a
/// summary without `X_{R₀}` it took out, and how many tuples it walked.
pub(crate) struct DimStep {
    joined: Option<(TableId, Vec<Value>)>,
    taken: Vec<(GroupKey, GroupState)>,
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

        // Which compressed root tuples ΔX_T joins: those under these keys
        // of a direct child of the root. An insert or delete on a
        // dependency edge joins no existing tuple (Section 2.2): there is
        // no join.
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
        let (taken, tuples) = match &joined {
            Some((child, keys)) => {
                let taken = self.pinned_groups(*child, keys)?;
                let tuples = self.fold_joined(*child, keys, &taken, -1, registry)?;
                (taken, tuples)
            }
            None => (Vec::new(), 0),
        };
        Ok(Some(DimStep {
            joined,
            taken,
            tuples,
        }))
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
        self.fold_joined(child, &keys, &step.taken, 1, registry)?;
        self.counters.dim_joined.add(step.tuples);
        self.counters.dim_targeted_updates.incr();
        Ok(())
    }

    /// After every change of a group of dimension `table`: the last point
    /// a fault can undo all of them from.
    pub(crate) fn dim_flush(&mut self) -> Result<()> {
        self.faults
            .hit_scoped("engine.apply.flush", &self.plan.view.name)
    }

    /// The groups of a general-regime `V` without `X_{R₀}` whose key pins
    /// one of `keys` of root child `child`, copied out: the compressed
    /// root tuples a change to those keys joins. Empty for any other plan.
    fn pinned_groups(&self, child: TableId, keys: &[Value]) -> Result<Vec<(GroupKey, GroupState)>> {
        let (Some(recon), None) = (&self.recon, self.root_store) else {
            return Ok(Vec::new());
        };
        let root = self.plan.graph.root();
        let pos = (self.plan.graph.children(root))
            .find(|edge| edge.to == child)
            .and_then(|edge| recon.key_position(edge.fk_col))
            .ok_or_else(|| {
                MaintainError::InvariantViolation(format!(
                    "no group key position holds the key of root child {child}"
                ))
            })?;
        Ok(self
            .summary
            .iter()
            .filter(|(key, _)| keys.contains(&key[pos]))
            .map(|(key, state)| (key.clone(), state.clone()))
            .collect())
    }

    /// Folds the compressed root tuples that `keys` of root child `child`
    /// join into the summary, each weighing `sign · cnt₀`, as they
    /// resolve under the dimension stores now: the root auxiliary tuples
    /// the fk index lists under `keys` or — root omitted — the `taken`
    /// groups. Returns how many tuples it walked.
    fn fold_joined(
        &mut self,
        child: TableId,
        keys: &[Value],
        taken: &[(GroupKey, GroupState)],
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
        let Some(recon) = recon.as_ref() else {
            return Ok(0);
        };
        let view = ViewStores {
            registry,
            ids: stores,
        };
        let exec = ReconExecutor::over(plan, catalog, view, recon, &root_delta.inputs);
        let width = root_delta.group_cols.len();
        let (tuples, runs) = match root_store {
            Some(id) => {
                let store = registry.store(*id);
                let edge = fk_edges.iter().find(|(c, _)| *c == child);
                let Some(by_value) = edge.and_then(|edge| store.fk_keys(*edge)) else {
                    return Ok(0);
                };
                let joined = keys.iter().filter_map(|k| by_value.get(k)).flatten();
                let tuples = joined.filter_map(|key| Some((key, store.get(key)?)));
                fold_buckets(&exec, tuples, sign, width, summary)?
            }
            None => {
                let tuples = taken.iter().map(|(key, state)| (key, state));
                fold_buckets(&exec, tuples, sign, width, summary)?
            }
        };
        counters.dim_runs.add(runs);
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
                .filter_map(|(key, _)| {
                    let binding = Binding::stored(parent.group_srcs(), key.values());
                    let referenced = keys.contains(binding.value(edge.fk_col)?);
                    referenced.then(|| binding.value(parent_key).cloned())?
                })
                .collect();
            table = edge.from;
        }
        Ok((table, keys))
    }
}

/// Folds `tuples` into `summary`, each weighing `sign · cnt₀`, a bucket
/// (summary group key of `width` values + raw argument values) at a time,
/// in first-appearance order: a bucket holds `Σcnt₀` and the exact merge
/// of its tuples' stored sums, folded through [`SummaryStore::apply_run`]
/// as one occurrence. Returns how many tuples it walked and how many
/// buckets it folded.
fn fold_buckets<'a, T: RootTuple + 'a>(
    exec: &ReconExecutor<'a>,
    tuples: impl Iterator<Item = (&'a GroupKey, &'a T)>,
    sign: i64,
    width: usize,
    summary: &mut SummaryStore,
) -> Result<(u64, u64)> {
    let mut res = Resolution::new();
    let (mut vgroup, mut args, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    // Bucket key → bucket; per bucket `Σcnt₀` and where its merged sums
    // start in `sums`. The map is looked up, never iterated.
    let mut index: SeededHashMap<Vec<&Value>, usize> = SeededHashMap::default();
    let mut buckets: Vec<(u64, usize)> = Vec::new();
    let mut sums: Vec<ExactSum> = Vec::new();
    let mut walked = 0;
    // In no particular order: the sums they move are exact, and an error
    // fails the whole batch whichever tuple it names.
    for (key, tuple) in tuples {
        walked += 1;
        if !exec.share_of(key, tuple, &mut res, &mut vgroup, &mut args)? {
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
        *cnt += tuple.weight();
        for (total, sum) in sums[*at..].iter_mut().zip(args.iter().filter_map(summed)) {
            total.merge(sum);
        }
    }

    let mut order: Vec<&[&Value]> = vec![&[]; buckets.len()];
    for (key, &bucket) in &index {
        order[bucket] = key;
    }
    let mut run: Vec<RunArg<'_>> = Vec::with_capacity(args.len());
    for (key, &(cnt, at)) in order.iter().zip(&buckets) {
        let (group, mut raws) = (&key[..width], key[width..].iter());
        let mut merged = sums[at..].iter();
        // `args` still holds the last joined tuple's arguments, and every
        // tuple's have the same shape: it is the template.
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
    Ok((walked, buckets.len() as u64))
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
