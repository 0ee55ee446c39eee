//! Dimension deltas: the one rule for every non-root table.
//!
//! A change to dimension `T` reaches a summary as `ΔX_T`: which tuple of
//! `T`'s auxiliary store each side of the change is, once local
//! conditions, semijoins and the projection onto the retained columns
//! have had their say. The store folds the table group as runs, like every
//! store (`registry.rs`), and a summary reads `ΔX_T` off the same runs
//! ([`StoreRegistry::deltas`]): each side lands on a run or on none. Two
//! sides on one run (a column the view never kept) or on none (a row
//! outside the view before and after) cannot change `V`: that is
//! self-maintainability read backwards. Neither can an insert or delete on
//! a *dependency edge* (key join + referential integrity + no exposed
//! updates, Section 2.2) — no existing tuple joins the row.
//!
//! Anything else reshapes existing join results, and `ΔV` is one grouped
//! aggregate over `ΔX_T ⋈ X_{R₀}`: the semi-naive rule, with `T`
//! restricted to its delta and signed, since an exposed update is a
//! delete plus an insert (Section 2.2). The rule holds for a whole delta
//! as well as for one row, so a table group of `T` is folded once: the
//! joined root auxiliary tuples are read off the foreign-key index under
//! the sorted, deduplicated union of the keys the group's changes touch,
//! and the group is applied in three steps around the stores' fold:
//!
//! 1. **Retract** ([`SummaryEngine::dim_retract`], every subscriber).
//!    While `T`'s store still holds the old rows, every joined tuple is
//!    resolved by borrowing — its key in place in the fk index, one
//!    [`Resolution`] for all of them, the walk the rebuild takes
//!    ([`ReconExecutor::share_of`]) — and put in a bucket keyed by its
//!    summary group key and raw aggregate arguments, in first-appearance
//!    order. A bucket holds `Σcnt₀` and the exact merge of its tuples'
//!    stored sums, negated, and is folded through
//!    [`SummaryStore::apply_run`] as one occurrence of weight `−Σcnt₀`.
//! 2. **Fold** the runs into `T`'s store (the registry, once).
//! 3. **Insert** ([`SummaryEngine::dim_insert`], every subscriber). The
//!    same walk under the new rows, weight `+Σcnt₀`.
//!
//! A key two changes touch needs no split: dimension changes never touch
//! `X_{R₀}` or its fk index, so the tuples under the union of the keys
//! are the same before and after the group, each walked once per side,
//! and `V` is a function of `X`.
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
//! joined child key — a scan of `V` per table group, since no index lists
//! them — and folds them at `−cnt₀` under the old rows, and the insert
//! folds the same groups back at `+cnt₀` under the new ones, through the
//! same buckets and kernel. An append-only plan without `X_{R₀}` joins
//! nothing: its dimensions are insert-only.

use md_relation::{ChangeRef, GroupKey, SeededHashMap, TableId, Value};

use super::SummaryEngine;
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::reconstruct::{HeldTuple, Recon, ReconExecutor};
use crate::registry::{RunBatch, StoreId, StoreRegistry, ViewStores};
use crate::resolve::{Binding, Resolution};
use crate::summary::{GroupState, RunArg, SummaryStore};

/// What a group's retract leaves for its insert: the direct root child
/// and its key values whose tuples the group joins (`None`: none — every
/// change a no-op or an insert or delete on a dependency edge), and the
/// groups of a summary without `X_{R₀}` it took out.
pub(crate) struct DimStep {
    joined: Option<(TableId, Vec<Value>)>,
    taken: Vec<(GroupKey, GroupState)>,
}

impl SummaryEngine {
    /// The store of dimension `table`, which every table but the root
    /// has: only `X_{R₀}` can be omitted.
    pub(crate) fn dim_store(&self, table: TableId) -> StoreId {
        self.store_of(table).expect("a dimension keeps its store")
    }

    /// Step 1 of a group of dimension `table`, while its store still
    /// holds the old rows: `runs` are the store's runs of `changes`, which
    /// it folds next (`None`: it folds none, which a subscriber behind
    /// the group never meets). The step is kept for the insert. Per-change
    /// fault points fire upfront, in change order; an error of the walk
    /// names no change.
    pub(crate) fn dim_retract(
        &mut self,
        table: TableId,
        changes: &[ChangeRef<'_>],
        runs: Option<RunBatch<'_>>,
        registry: &StoreRegistry,
    ) -> Result<()> {
        for i in 0..changes.len() {
            self.faults
                .hit_scoped("engine.apply.change", &self.plan.view.name)
                .map_err(|e| self.reject(table, Some(i), e))?;
        }
        let Some(runs) = runs else {
            let cause = MaintainError::InvariantViolation(format!(
                "'{}' got a dimension group its store did not fold",
                self.plan.view.name
            ));
            return Err(self.reject(table, None, cause));
        };
        let started = self.fold_started();
        let step = self.retract(table, changes, runs, registry);
        self.note_fold(started);
        self.retracted = Some(step.map_err(|e| self.reject(table, None, e))?);
        Ok(())
    }

    fn retract(
        &mut self,
        table: TableId,
        changes: &[ChangeRef<'_>],
        runs: RunBatch<'_>,
        registry: &StoreRegistry,
    ) -> Result<DimStep> {
        // Which compressed root tuples the group joins: those under the
        // keys its changes touch, of a direct child of the root. Two sides
        // on one run (or on none) leave X unchanged, and V is a function
        // of X; an insert or delete on a dependency edge joins no existing
        // tuple (Section 2.2).
        let graph = &self.plan.graph;
        let dependency = (graph.parent_edge(table)).is_some_and(|e| graph.is_dependency(e));
        let key_col = self.catalog.def(table)?.key_col;
        let deltas = registry.deltas(self.dim_store(table), runs, changes);
        let mut keys = Vec::new();
        for (change, delta) in changes.iter().zip(deltas) {
            self.counters.rows_processed.incr();
            let is_update = matches!(change, ChangeRef::Update { .. });
            let Some(sides) = delta.filter(|_| is_update || !dependency) else {
                self.counters.dim_noop_changes.incr();
                continue;
            };
            self.counters.dim_targeted_updates.incr();
            keys.extend(sides.iter().flatten().map(|row| row[key_col].clone()));
        }
        if keys.is_empty() {
            return Ok(DimStep {
                joined: None,
                taken: Vec::new(),
            });
        }
        // Dimension changes never touch `X_{R₀}` or its fk index, so the
        // union of the keys names every tuple the group joins once.
        keys.sort_unstable();
        keys.dedup();
        let (child, keys) = self.direct_child_keys(table, keys, registry)?;
        let taken = self.pinned_groups(child, &keys);
        let tuples = self.fold_joined(child, &keys, &taken, -1, registry)?;
        self.counters.dim_joined.add(tuples);
        Ok(DimStep {
            joined: Some((child, keys)),
            taken,
        })
    }

    /// Step 3 of a group of dimension `table`, once its store holds the
    /// new rows: the tuples its retract took out go back in. It ends at the
    /// last point a fault can undo the whole group from.
    pub(crate) fn dim_insert(&mut self, table: TableId, registry: &StoreRegistry) -> Result<()> {
        if let Some(DimStep {
            joined: Some((child, keys)),
            taken,
        }) = self.retracted.take()
        {
            let started = self.fold_started();
            let done = self.fold_joined(child, &keys, &taken, 1, registry);
            self.note_fold(started);
            done.map_err(|e| self.reject(table, None, e))?;
        }
        self.faults
            .hit_scoped("engine.apply.flush", &self.plan.view.name)
    }

    /// The groups of a general-regime `V` without `X_{R₀}` whose key pins
    /// one of the sorted `keys` of root child `child`, copied out: the
    /// compressed root tuples a change to those keys joins — one scan of
    /// `V`. Empty for any other plan.
    fn pinned_groups(&self, child: TableId, keys: &[Value]) -> Vec<(GroupKey, GroupState)> {
        let (Some(recon), None) = (&self.recon, self.root_store) else {
            return Vec::new();
        };
        let root = self.plan.graph.root();
        let pos = (self.plan.graph.children(root))
            .find(|edge| edge.to == child)
            .and_then(|edge| recon.key_position(edge.fk_col))
            .expect("a group of V without X_{R₀} holds each root child's key");
        (self.summary.iter())
            .filter(|(key, _)| keys.binary_search(&key[pos]).is_ok())
            .map(|(key, state)| (key.clone(), state.clone()))
            .collect()
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
            root_delta: fixed,
            stores: ids,
            root_store,
            summary,
            fk_edges,
            counters,
            ..
        } = self;
        let Some(recon) = recon.as_ref() else {
            return Ok(0);
        };
        let view = ViewStores { registry, ids };
        let exec = ReconExecutor::over(plan, catalog, view, &fixed.group_cols, &fixed.inputs);
        let width = fixed.group_cols.len();
        let (tuples, runs) = match root_store {
            Some(id) => {
                let store = registry.store(*id);
                let edge = fk_edges.iter().find(|(c, _)| *c == child);
                let Some(by_value) = edge.and_then(|edge| store.fk_keys(*edge)) else {
                    return Ok(0);
                };
                let joined = keys.iter().filter_map(|k| by_value.get(k)).flatten();
                let tuples = joined.filter_map(|key| Some((key, store.get(key)?)));
                fold_buckets(&exec, recon, tuples, sign, width, summary)?
            }
            None => {
                let tuples = taken.iter().map(|(key, state)| (key, state));
                fold_buckets(&exec, recon, tuples, sign, width, summary)?
            }
        };
        counters.dim_runs.add(runs);
        Ok(tuples)
    }

    /// Climbs from `table` to the direct child of the root above it:
    /// returns that child and the sorted key values of its auxiliary rows
    /// whose chain reaches one of the sorted `keys` in `table` (`keys`
    /// themselves when `table` is the direct child). Each hop scans the
    /// parent dimension's store once — the reverse of the key lookup
    /// [`Resolution::resolve`] does going down, over a store that is
    /// dimension-sized by construction.
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
            let parent = registry.store(self.dim_store(edge.from));
            let parent_key = self.catalog.def(edge.from)?.key_col;
            keys = parent
                .iter()
                .filter_map(|(key, _)| {
                    let binding = Binding::stored(parent.group_srcs(), key.values());
                    let referenced = keys.binary_search(binding.value(edge.fk_col)?).is_ok();
                    referenced.then(|| binding.value(parent_key).cloned())?
                })
                .collect();
            keys.sort_unstable();
            table = edge.from;
        }
        Ok((table, keys))
    }
}

/// Folds `tuples`, held under `recon`'s key layout, into `summary`, each
/// weighing `sign · cnt₀`, a bucket (summary group key of `width` values +
/// raw argument values) at a time, in first-appearance order: a bucket
/// holds `Σcnt₀` and the exact merge of its tuples' stored sums — negated
/// for a retract — folded through [`SummaryStore::apply_run`] as one
/// occurrence. Returns how many tuples it walked and how many buckets it
/// folded.
fn fold_buckets<'a, T: HeldTuple + 'a>(
    exec: &ReconExecutor<'a>,
    recon: &'a Recon,
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
    let merge = if sign > 0 {
        ExactSum::merge
    } else {
        ExactSum::unmerge
    };
    // In no particular order: the sums they move are exact, and an error
    // fails the whole batch whichever tuple it names.
    for (key, tuple) in tuples {
        walked += 1;
        if !exec.share_of(recon.binding(key), tuple, &mut res, &mut vgroup, &mut args)? {
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
            merge(total, sum);
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
            });
        }
        let weight = sign * cnt as i64;
        summary.apply_run(&group, weight, weight.min(0), &run)?;
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
