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
//! steps:
//!
//! 1. **Retract.** While `T`'s store still holds the old row, every joined
//!    tuple is resolved by borrowing — its key in place in the fk index,
//!    one [`Resolution`] for all of them, the walk the rebuild takes
//!    ([`ReconExecutor::share_of`]) — and put in a bucket keyed by its
//!    summary group key and raw aggregate arguments, in first-appearance
//!    order. A bucket holds `Σcnt₀` and the exact merge of its tuples'
//!    stored sums, and is folded through [`SummaryStore::apply_run`] as
//!    one occurrence of weight `−Σcnt₀`.
//! 2. **Apply** `ΔX_T` to `T`'s store.
//! 3. **Insert.** The same walk under the new row, weight `+Σcnt₀`.
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
//!
//! [`SummaryStore::apply_run`]: crate::summary::SummaryStore::apply_run

use std::sync::Arc;

use md_algebra::ColRef;
use md_core::AuxViewDef;
use md_relation::{Change, Row, RowHashMap, TableId, Value};

use super::{passes_locals, MaintenanceEngine};
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::reconstruct::ReconExecutor;
use crate::resolve::{Binding, Resolution};
use crate::summary::{AggState, GroupState, RunArg, ValueCounts};

impl MaintenanceEngine {
    /// The one delta rule for every non-root table.
    pub(super) fn apply_dim_changes(&mut self, table: TableId, changes: &[Change]) -> Result<()> {
        let Some(store) = self.aux.get(&table) else {
            return Err(MaintainError::InvariantViolation(format!(
                "changes for table {table} which has no auxiliary view (only the root \
                 can be omitted)"
            )));
        };
        let def = store.def().clone();
        for (i, change) in changes.iter().enumerate() {
            self.apply_one_dim_change(table, change, &def)
                .map_err(|e| self.reject(table, Some(i), e))?;
        }
        Ok(())
    }

    /// `row` when the auxiliary view `def` keeps it: it passes the local
    /// conditions and finds its semijoin partners.
    pub(super) fn visible_in<'r>(
        &self,
        def: &AuxViewDef,
        row: Option<&'r Row>,
    ) -> Result<Option<&'r Row>> {
        Ok(match row {
            Some(r)
                if passes_locals(def.table, &def.local_conditions, r)?
                    && self.row_passes_semijoins(def, r) =>
            {
                Some(r)
            }
            _ => None,
        })
    }

    fn row_passes_semijoins(&self, def: &AuxViewDef, row: &Row) -> bool {
        def.semijoins.iter().all(|target| {
            let Some(edge) = self
                .plan
                .graph
                .children(def.table)
                .find(|e| e.to == *target)
            else {
                return false;
            };
            match self.aux.get(target) {
                Some(store) => store.contains_key_value(&row[edge.fk_col]),
                None => false,
            }
        })
    }

    fn apply_one_dim_change(
        &mut self,
        table: TableId,
        change: &Change,
        def: &AuxViewDef,
    ) -> Result<()> {
        self.faults
            .hit_scoped("engine.apply.change", &self.plan.view.name)?;
        self.counters.rows_processed.incr();

        // ΔX_T: each side of the change as the auxiliary view sees it. Equal
        // sides — a column the view never kept, a row outside the view
        // before and after — leave X unchanged, and V is a function of X.
        let (old, new) = change.as_delete_insert();
        let (old, new) = (self.visible_in(def, old)?, self.visible_in(def, new)?);
        let store = &self.aux[&table];
        let (old_key, new_key) = (
            old.map(|r| store.group_key_of(r)),
            new.map(|r| store.group_key_of(r)),
        );
        if old_key == new_key {
            self.counters.dim_noop_changes.incr();
            return Ok(());
        }

        // Which root auxiliary tuples ΔX_T joins: those the fk index lists
        // under these keys of a direct child of the root. An insert or
        // delete on a dependency edge joins no existing tuple (Section
        // 2.2): there is no join.
        let is_update = matches!(change, Change::Update { .. });
        let joined = if is_update || !self.dependency_edge[&table] {
            let key_col = self.catalog.def(table)?.key_col;
            let mut keys: Vec<Value> = old.iter().chain(&new).map(|r| r[key_col].clone()).collect();
            keys.dedup();
            Some(self.direct_child_keys(table, keys)?)
        } else {
            None
        };
        let retract = joined.as_ref().filter(|_| self.recon.is_some());
        let tuples = match retract {
            Some((child, keys)) => self.fold_joined(*child, keys, -1)?,
            None => 0,
        };

        // The keys differ, so each side is a run of one.
        let store = self.aux.get_mut(&table).expect("store exists");
        if let Some((key, row)) = old_key.as_ref().zip(old) {
            store.apply_source_run(key, [(-1, row)])?;
        }
        if let Some((key, row)) = new_key.as_ref().zip(new) {
            store.apply_source_run(key, [(1, row)])?;
        }
        let Some((child, keys)) = joined else {
            self.counters.dim_noop_changes.incr();
            return Ok(());
        };

        if self.recon.is_some() {
            self.fold_joined(child, &keys, 1)?;
            self.counters.dim_joined.add(tuples);
        } else {
            let pos = self.pinned_key_position(child)?;
            self.remap_groups_from_dims(|vgroup| keys.contains(&vgroup[pos]))?;
        }
        self.counters.dim_targeted_updates.incr();
        Ok(())
    }

    /// Folds the root auxiliary tuples the fk index lists under `keys` of
    /// root child `child` into the summary, each weighing `sign · cnt₀`,
    /// as they resolve under the dimension stores now: bucketed by summary
    /// group key and raw argument values, one kernel call per bucket (see
    /// the module docs). Returns how many tuples it walked.
    fn fold_joined(&mut self, child: TableId, keys: &[Value], sign: i64) -> Result<u64> {
        let MaintenanceEngine {
            catalog,
            plan,
            recon,
            root_delta,
            root_aux,
            aux,
            summary,
            fk_index,
            counters,
            ..
        } = self;
        let Some(by_value) = fk_index.get(&child) else {
            return Ok(0);
        };
        let exec = ReconExecutor::over(plan, catalog, root_aux.as_ref(), aux, recon.as_ref())?;
        let root_store = exec.root_store()?;
        let mut res = Resolution::new();
        let (mut vgroup, mut args, mut probe) = (Vec::new(), Vec::new(), Vec::new());
        // Bucket key → bucket; per bucket `Σcnt₀` and where its merged
        // sums start in `sums`. The map is looked up, never iterated.
        let mut index: RowHashMap<Vec<&Value>, usize> = RowHashMap::default();
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
    ) -> Result<(TableId, Vec<Value>)> {
        let root = self.plan.graph.root();
        while let Some(edge) = self.plan.graph.parent_edge(table) {
            if edge.from == root {
                break;
            }
            let parent = &self.aux[&edge.from];
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

    /// Binds every dimension reachable from the group key's child-key
    /// values (root-omitted plans only).
    pub(super) fn resolve_group_dims(&self, vgroup: &Row) -> Result<Resolution<'_>> {
        let root = self.plan.graph.root();
        let mut res = Resolution::new();
        let mut stack = Vec::new();
        for edge in self.plan.graph.children(root) {
            let pos = self.pinned_key_position(edge.to)?;
            let store = self.aux.get(&edge.to).ok_or_else(|| {
                MaintainError::InvariantViolation("dimension store missing".into())
            })?;
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
            for edge in self.plan.graph.children(t) {
                let Some(store) = self.aux.get(&edge.to) else {
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
    fn pinned_key_position(&self, child: TableId) -> Result<usize> {
        let key_ref = ColRef::new(child, self.catalog.def(child)?.key_col);
        let group_cols = &self.root_delta.group_cols;
        group_cols
            .iter()
            .position(|c| *c == key_ref)
            .ok_or_else(|| {
                MaintainError::InvariantViolation(format!(
                    "child key {} not in the group key despite root elimination",
                    key_ref.display(&self.catalog)
                ))
            })
    }

    /// Root-omitted dimension delta: every group key pins its dimension
    /// chain, so for the groups `pinned` selects the group-by attributes
    /// and all dimension-sourced aggregates are recomputed from the
    /// dimension stores (the whole group carries the one value the chain
    /// determines), while root-sourced states are carried over unchanged.
    pub(super) fn remap_groups_from_dims(&mut self, pinned: impl Fn(&Row) -> bool) -> Result<()> {
        let fixed = Arc::clone(&self.root_delta);
        let group_cols = &fixed.group_cols;
        let root = self.plan.graph.root();

        let keys: Vec<Row> = self
            .summary
            .iter()
            .filter(|(k, _)| pinned(k))
            .map(|(k, _)| k.clone())
            .collect();
        let old_groups: Vec<(Row, GroupState)> = keys
            .into_iter()
            .filter_map(|k| {
                let state = self.summary.remove_group(&k)?;
                Some((k, state))
            })
            .collect();

        for (old_key, mut state) in old_groups {
            let res = self.resolve_group_dims(&old_key)?;
            // Recompute the group key: root attributes keep their old
            // values (positionally), dimension attributes re-resolve.
            let new_key: Row = group_cols
                .iter()
                .enumerate()
                .map(|(i, col)| {
                    if col.table == root {
                        Ok(old_key[i].clone())
                    } else {
                        res.value(*col).cloned().ok_or_else(|| {
                            MaintainError::InvariantViolation(format!(
                                "group-by attribute {} unresolved during remap",
                                col.display(&self.catalog)
                            ))
                        })
                    }
                })
                .collect::<Result<Row>>()?;
            // Recompute dimension-sourced aggregates.
            let aggs = self.summary.aggregates();
            for (agg, agg_state) in aggs.iter().zip(state.aggs.iter_mut()) {
                let Some(col) = agg.arg else { continue };
                if col.table == root {
                    continue;
                }
                let v = res.value(col).cloned().ok_or_else(|| {
                    MaintainError::InvariantViolation(format!(
                        "aggregate argument {} unresolved during remap",
                        col.display(&self.catalog)
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
            if self.summary.group(&new_key).is_some() {
                return Err(MaintainError::InvariantViolation(format!(
                    "group collision during dimension remap at {new_key}; the group key \
                     no longer determines the dimension chain"
                )));
            }
            self.summary.install_group(new_key, state);
        }
        Ok(())
    }
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
