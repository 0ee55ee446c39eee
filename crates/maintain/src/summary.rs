//! The materialized summary table and its per-group aggregate states.
//!
//! A [`SummaryStore`] holds the contents of the GPSJ view `V` keyed by its
//! group-by attributes. CSMAS aggregates (`COUNT`/`SUM`/`AVG`) are
//! maintained purely from their old value and the change (Definition 1);
//! `MIN`/`MAX` are maintained incrementally on insertion (they are SMAs
//! w.r.t. `⊕`, Table 1) and flagged for recomputation from the auxiliary
//! views when the current extremum is deleted; `DISTINCT` aggregates are
//! always recomputed from the auxiliary views.
//!
//! The store keeps a hidden per-group `COUNT(*)` even when the view does
//! not project one — this is the standard companion count (Table 1: `SUM`
//! is a SMAS w.r.t. deletions only "if COUNT is included") that detects
//! when a group becomes empty and must be deleted from `V`.

use std::cmp::Ordering;
use std::collections::HashMap;

use md_algebra::{having_passes, AggFunc, Aggregate, GpsjView, HavingCond, SelectItem};
use md_relation::{Bag, Row, Value};

use crate::error::{MaintainError, Result};

/// Incrementally maintained state of one aggregate within one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// `COUNT(*)` / `COUNT(a)`: emitted from the group's hidden count.
    Count,
    /// `SUM(a)`: the running sum.
    Sum(Value),
    /// `AVG(a)`: the running sum; emitted as `sum / hidden count`.
    Avg(f64),
    /// `MIN(a)`/`MAX(a)`: the current extremum. `stale` is set when the
    /// extremum was deleted and the value must be recomputed from the
    /// auxiliary views before it can be read.
    MinMax {
        /// Which extremum.
        func: AggFunc,
        /// Current value (meaningless while `stale`).
        value: Value,
        /// Whether a recomputation from `X` is pending.
        stale: bool,
    },
    /// A `DISTINCT` aggregate: its current value, recomputed from the
    /// auxiliary views after every change to the group.
    Distinct {
        /// Current value (meaningless while `stale`).
        value: Value,
        /// Whether a recomputation from `X` is pending.
        stale: bool,
    },
}

/// The state of one summary group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupState {
    /// Aggregate states, parallel to the view's aggregate select items.
    pub aggs: Vec<AggState>,
    /// Hidden `COUNT(*)`: number of joined base tuples in the group.
    pub hidden_cnt: u64,
}

/// The compressed outcome of [`SummaryStore::apply_run`]: everything the
/// engine needs to do, once per run, the group-index and dirty-set
/// bookkeeping that folding the occurrences one at a time would do per
/// occurrence. Only the *final* effect matters there: a mid-run removal
/// wipes the group's index entry and dirty marks, so only staleness and
/// index contributions from occurrences after the last removal survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Some occurrence emptied the group (even if it was later re-created).
    pub removed_any: bool,
    /// Number of occurrences after the last removal (the whole run when
    /// nothing was removed). Zero means the group ended the run absent.
    pub tail_len: usize,
    /// Net signed weight of those tail occurrences (`Σ ±1` for a run of
    /// source rows).
    pub tail_sign: i64,
    /// Sorted union of the aggregate indices marked stale by the tail
    /// occurrences.
    pub stale_aggs: Vec<usize>,
}

/// The materialized summary view.
#[derive(Debug, Clone)]
pub struct SummaryStore {
    select: Vec<SelectItem>,
    /// The aggregates, in select order (cached).
    aggs: Vec<Aggregate>,
    /// `HAVING` output filter (paper Section 4 extension). Groups failing
    /// it are maintained internally — required for self-maintainability,
    /// since later changes can move a group across the threshold — and
    /// only suppressed at read time.
    having: Vec<HavingCond>,
    groups: HashMap<Row, GroupState>,
    /// Undo log of the transaction in progress, when one is open: the
    /// prior state of every group first touched since [`Self::begin_undo`]
    /// (`None` = the group did not exist). First touch wins.
    undo: Option<HashMap<Row, Option<GroupState>>>,
}

impl SummaryStore {
    /// Creates an empty summary store for `view`.
    pub fn new(view: &GpsjView) -> Self {
        SummaryStore {
            select: view.select.clone(),
            aggs: view.aggregates().into_iter().copied().collect(),
            having: view.having.clone(),
            groups: HashMap::new(),
            undo: None,
        }
    }

    /// Opens an undo scope: every group mutation until
    /// [`Self::commit_undo`] or [`Self::rollback_undo`] records the
    /// group's prior state so the store can be restored exactly.
    pub(crate) fn begin_undo(&mut self) {
        self.undo = Some(HashMap::new());
    }

    /// Closes the undo scope, keeping all mutations.
    pub(crate) fn commit_undo(&mut self) {
        self.undo = None;
    }

    /// Closes the undo scope, restoring every touched group to its
    /// pre-transaction state. No-op without an open scope.
    pub(crate) fn rollback_undo(&mut self) {
        let Some(undo) = self.undo.take() else {
            return;
        };
        for (key, prior) in undo {
            match prior {
                Some(state) => {
                    self.groups.insert(key, state);
                }
                None => {
                    self.groups.remove(&key);
                }
            }
        }
    }

    /// Records `key`'s current state in the open undo scope (first touch
    /// wins). Must be called before any mutation of the group.
    fn note_undo(&mut self, key: &Row) {
        if let Some(undo) = &mut self.undo {
            if !undo.contains_key(key) {
                undo.insert(key.clone(), self.groups.get(key).cloned());
            }
        }
    }

    /// Number of groups (rows of `V`).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` when `V` is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The aggregates, in select order.
    pub fn aggregates(&self) -> &[Aggregate] {
        &self.aggs
    }

    /// Iterates over `(group key, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, &GroupState)> {
        self.groups.iter()
    }

    /// The state of one group.
    pub fn group(&self, key: &Row) -> Option<&GroupState> {
        self.groups.get(key)
    }

    /// Applies a *run* of joined-tuple occurrences that all fold into the
    /// same group `key` in one pass: the group is hashed and undo-logged
    /// once, the occurrences are replayed in order on a local state, and
    /// the final state is written back. `signs[i]` is occurrence `i`'s
    /// signed weight: `±1` for one joined source row, `±cnt₀` for a
    /// compressed root auxiliary tuple standing for `cnt₀` of them. `args`
    /// holds the aggregate arguments of all occurrences flattened (`stride`
    /// per occurrence, in sign order); a `SUM`/`AVG` argument is the
    /// occurrence's whole contribution to the sum (the value itself at
    /// weight one, the stored sum or `a · cnt₀` for a compressed tuple),
    /// a `MIN`/`MAX` argument stays raw — duplicates do not matter to it.
    /// The committed group state is the one a sequence of one-occurrence
    /// runs would leave; the per-occurrence outcomes are compressed into a
    /// [`RunOutcome`] that carries exactly what the caller needs for its
    /// group-index and dirty-set bookkeeping. On error nothing is written
    /// back.
    pub fn apply_run(
        &mut self,
        key: &Row,
        signs: &[i64],
        args: &[Option<Value>],
        stride: usize,
    ) -> Result<RunOutcome> {
        if stride != self.aggs.len() || args.len() != signs.len() * stride {
            return Err(MaintainError::InvariantViolation(format!(
                "expected {} aggregate arguments per occurrence, got stride {} over {} values",
                self.aggs.len(),
                stride,
                args.len()
            )));
        }
        self.note_undo(key);
        let mut state = self.groups.get(key).cloned();
        let mut removed_any = false;
        let mut tail_start = 0usize;
        let mut stale: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (i, &sign) in signs.iter().enumerate() {
            let occ_args = &args[i * stride..(i + 1) * stride];
            if sign > 0 {
                let st = match state.as_mut() {
                    Some(st) => st,
                    None => {
                        state = Some(fresh_state_for(&self.aggs, occ_args)?);
                        state.as_mut().expect("just set")
                    }
                };
                stale.extend(fold_insert_into(st, sign.unsigned_abs(), occ_args)?);
            } else {
                let Some(st) = state.as_mut() else {
                    return Err(MaintainError::InvariantViolation(format!(
                        "delete against absent summary group {key}"
                    )));
                };
                let (removed, occ_stale) =
                    fold_delete_into(key, st, sign.unsigned_abs(), occ_args)?;
                if removed {
                    state = None;
                    removed_any = true;
                    tail_start = i + 1;
                    stale.clear();
                } else {
                    stale.extend(occ_stale);
                }
            }
        }
        match state {
            Some(st) => {
                self.groups.insert(key.clone(), st);
            }
            None => {
                self.groups.remove(key);
            }
        }
        Ok(RunOutcome {
            removed_any,
            tail_len: signs.len() - tail_start,
            tail_sign: signs[tail_start..].iter().sum(),
            stale_aggs: stale.into_iter().collect(),
        })
    }

    /// Overwrites the value of aggregate item `agg_idx` in `key`'s group
    /// after a recomputation from the auxiliary views, clearing staleness.
    pub fn set_recomputed(&mut self, key: &Row, agg_idx: usize, value: Value) -> Result<()> {
        self.note_undo(key);
        let state = self.groups.get_mut(key).ok_or_else(|| {
            MaintainError::InvariantViolation(format!(
                "recompute against absent summary group {key}"
            ))
        })?;
        match &mut state.aggs[agg_idx] {
            AggState::MinMax {
                value: v, stale, ..
            } => {
                *v = value;
                *stale = false;
            }
            AggState::Distinct { value: v, stale } => {
                *v = value;
                *stale = false;
            }
            other => {
                return Err(MaintainError::InvariantViolation(format!(
                    "set_recomputed on non-recomputable state {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// Installs a fully-computed group (used by rebuilds).
    pub fn install_group(&mut self, key: Row, state: GroupState) {
        self.note_undo(&key);
        self.groups.insert(key, state);
    }

    /// Takes one group out of the store (used by the root-omitted remap).
    pub fn remove_group(&mut self, key: &Row) -> Option<GroupState> {
        self.note_undo(key);
        self.groups.remove(key)
    }

    /// Removes every group (used by rebuilds).
    pub fn clear(&mut self) {
        if self.undo.is_some() {
            let keys: Vec<Row> = self.groups.keys().cloned().collect();
            for key in keys {
                self.note_undo(&key);
            }
        }
        self.groups.clear();
    }

    /// Emits the summary contents as output rows in select order (one per
    /// group, in no particular order), applying the view's `HAVING`
    /// filter. Returns an error if any group still has stale aggregate
    /// values.
    pub fn to_rows(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.groups.len());
        for (key, state) in &self.groups {
            let row = self.emit_row(key, state)?;
            if having_passes(&self.having, &row).map_err(MaintainError::from)? {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// [`Self::to_rows`] as a bag.
    pub fn to_bag(&self) -> Result<Bag> {
        Ok(Bag::from_rows(self.to_rows()?))
    }

    /// Emits the *unfiltered* contents (every maintained group, ignoring
    /// `HAVING`) — what the warehouse actually stores.
    pub fn to_bag_unfiltered(&self) -> Result<Bag> {
        let mut out = Bag::new();
        for (key, state) in &self.groups {
            out.insert(self.emit_row(key, state)?);
        }
        Ok(out)
    }

    /// Renders one group as an output row.
    pub fn emit_row(&self, key: &Row, state: &GroupState) -> Result<Row> {
        let mut values = Vec::with_capacity(self.select.len());
        let mut gi = 0;
        let mut ai = 0;
        for item in &self.select {
            match item {
                SelectItem::GroupBy { .. } => {
                    values.push(key[gi].clone());
                    gi += 1;
                }
                SelectItem::Agg { .. } => {
                    let v = match &state.aggs[ai] {
                        AggState::Count => Value::Int(state.hidden_cnt as i64),
                        AggState::Sum(total) => total.clone(),
                        AggState::Avg(total) => Value::Double(*total / state.hidden_cnt as f64),
                        AggState::MinMax { value, stale, .. }
                        | AggState::Distinct { value, stale } => {
                            if *stale {
                                return Err(MaintainError::InvariantViolation(format!(
                                    "stale aggregate read in group {key}; recompute from the \
                                     auxiliary views first"
                                )));
                            }
                            value.clone()
                        }
                    };
                    values.push(v);
                    ai += 1;
                }
            }
        }
        Ok(Row::new(values))
    }

    /// Storage footprint of `V` in the paper's model.
    pub fn paper_bytes(&self) -> u64 {
        self.groups.len() as u64 * self.select.len() as u64 * Value::PAPER_FIELD_BYTES
    }
}

/// Folds one inserted occurrence standing for `weight` joined rows into a
/// group state, returning the aggregate indices it marked stale.
fn fold_insert_into(
    state: &mut GroupState,
    weight: u64,
    args: &[Option<Value>],
) -> Result<Vec<usize>> {
    let first = state.hidden_cnt == 0;
    state.hidden_cnt += weight;
    let mut stale = Vec::new();
    if first {
        // First occurrence: states already initialized from its values.
        for (i, a) in state.aggs.iter().enumerate() {
            if matches!(a, AggState::Distinct { .. }) {
                stale.push(i);
            }
        }
        return Ok(stale);
    }
    for (i, (agg_state, arg)) in state.aggs.iter_mut().zip(args).enumerate() {
        match agg_state {
            AggState::Count => {}
            AggState::Sum(total) => {
                *total = total.add(required(arg)?).map_err(MaintainError::from)?;
            }
            AggState::Avg(total) => {
                *total += required(arg)?.as_double().map_err(MaintainError::from)?;
            }
            AggState::MinMax {
                func,
                value,
                stale: st,
            } => {
                // SMA w.r.t. insertion: min/max of old value and input.
                if !*st {
                    let v = required(arg)?;
                    let ord = v.try_cmp(value).map_err(MaintainError::from)?;
                    let replace = match func {
                        AggFunc::Min => ord == Ordering::Less,
                        AggFunc::Max => ord == Ordering::Greater,
                        _ => unreachable!("MinMax holds only MIN/MAX"),
                    };
                    if replace {
                        *value = v.clone();
                    }
                }
            }
            AggState::Distinct { stale: st, .. } => {
                *st = true;
                stale.push(i);
            }
        }
    }
    Ok(stale)
}

/// Folds one deleted occurrence standing for `weight` joined rows into a
/// group state. Returns `(true, _)` when the group emptied (the caller
/// removes it) and the stale aggregate indices otherwise.
fn fold_delete_into(
    key: &Row,
    state: &mut GroupState,
    weight: u64,
    args: &[Option<Value>],
) -> Result<(bool, Vec<usize>)> {
    if state.hidden_cnt < weight {
        return Err(MaintainError::InvariantViolation(format!(
            "summary group {key} holds {} rows, cannot retract {weight}",
            state.hidden_cnt
        )));
    }
    state.hidden_cnt -= weight;
    if state.hidden_cnt == 0 {
        return Ok((true, Vec::new()));
    }
    let mut stale = Vec::new();
    for (i, (agg_state, arg)) in state.aggs.iter_mut().zip(args).enumerate() {
        match agg_state {
            AggState::Count => {}
            AggState::Sum(total) => {
                *total = total.sub(required(arg)?).map_err(MaintainError::from)?;
            }
            AggState::Avg(total) => {
                *total -= required(arg)?.as_double().map_err(MaintainError::from)?;
            }
            AggState::MinMax {
                value, stale: st, ..
            } => {
                // Deleting the current extremum requires recomputation
                // from the auxiliary views (MIN/MAX are not SMAs w.r.t.
                // deletion, Table 1).
                if !*st && required(arg)? == value {
                    *st = true;
                }
                if *st {
                    stale.push(i);
                }
            }
            AggState::Distinct { stale: st, .. } => {
                *st = true;
                stale.push(i);
            }
        }
    }
    Ok((false, stale))
}

/// Builds the initial aggregate states for a brand-new group from the first
/// row's argument values.
fn fresh_state_for(aggs: &[Aggregate], args: &[Option<Value>]) -> Result<GroupState> {
    let states = aggs
        .iter()
        .zip(args)
        .map(|(agg, arg)| {
            Ok(match (agg.func, agg.distinct) {
                (AggFunc::Count, false) => AggState::Count,
                (AggFunc::Sum, false) => AggState::Sum(required(arg)?.clone()),
                (AggFunc::Avg, false) => {
                    AggState::Avg(required(arg)?.as_double().map_err(MaintainError::from)?)
                }
                (AggFunc::Min | AggFunc::Max, _) => AggState::MinMax {
                    func: agg.func,
                    value: required(arg)?.clone(),
                    stale: false,
                },
                (_, true) => AggState::Distinct {
                    value: Value::Int(0),
                    stale: true,
                },
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(GroupState {
        aggs: states,
        hidden_cnt: 0,
    })
}

fn required(arg: &Option<Value>) -> Result<&Value> {
    arg.as_ref()
        .ok_or_else(|| MaintainError::InvariantViolation("missing aggregate argument value".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{ColRef, Condition, GpsjView};
    use md_relation::{row, TableId};

    fn view() -> GpsjView {
        let t = TableId(0);
        GpsjView::new(
            "v",
            vec![t],
            vec![
                SelectItem::group_by(ColRef::new(t, 0), "g"),
                SelectItem::agg(Aggregate::count_star(), "n"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(t, 1)), "s"),
                SelectItem::agg(Aggregate::of(AggFunc::Max, ColRef::new(t, 1)), "mx"),
            ],
            Vec::<Condition>::new(),
        )
    }

    fn args(v: f64) -> Vec<Option<Value>> {
        vec![None, Some(Value::Double(v)), Some(Value::Double(v))]
    }

    /// One occurrence through the run kernel.
    fn apply_one(
        s: &mut SummaryStore,
        key: Row,
        sign: i64,
        args: &[Option<Value>],
    ) -> Result<RunOutcome> {
        s.apply_run(&key, &[sign], args, args.len())
    }

    #[test]
    fn insert_creates_and_accumulates() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        apply_one(&mut s, row![1], 1, &args(7.0)).unwrap();
        apply_one(&mut s, row![2], 1, &args(3.0)).unwrap();
        assert_eq!(s.len(), 2);
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 2, 12.0, 7.0]), 1);
        assert_eq!(bag.count(&row![2, 1, 3.0, 3.0]), 1);
    }

    #[test]
    fn max_insert_fast_path() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        let out = apply_one(&mut s, row![1], 1, &args(9.0)).unwrap();
        // MAX updated incrementally, nothing stale.
        assert!(out.stale_aggs.is_empty());
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 2, 14.0, 9.0]), 1);
    }

    #[test]
    fn delete_non_extremum_stays_fresh() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        apply_one(&mut s, row![1], 1, &args(9.0)).unwrap();
        let out = apply_one(&mut s, row![1], -1, &args(5.0)).unwrap();
        assert!(!out.removed_any);
        assert!(out.stale_aggs.is_empty());
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 1, 9.0, 9.0]), 1);
    }

    #[test]
    fn deleting_the_extremum_marks_stale() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        apply_one(&mut s, row![1], 1, &args(9.0)).unwrap();
        let out = apply_one(&mut s, row![1], -1, &args(9.0)).unwrap();
        assert_eq!(out.stale_aggs, vec![2]);
        // Reading a stale value is an error…
        assert!(s.to_bag().is_err());
        // …until the engine recomputes it from the auxiliary views.
        s.set_recomputed(&row![1], 2, Value::Double(5.0)).unwrap();
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 1, 5.0, 5.0]), 1);
    }

    #[test]
    fn group_disappears_at_zero() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        let out = apply_one(&mut s, row![1], -1, &args(5.0)).unwrap();
        assert!(out.removed_any);
        assert!(s.is_empty());
    }

    #[test]
    fn delete_from_absent_group_errors() {
        let mut s = SummaryStore::new(&view());
        assert!(apply_one(&mut s, row![1], -1, &args(5.0)).is_err());
    }

    #[test]
    fn avg_emits_sum_over_hidden_count() {
        let t = TableId(0);
        let v = GpsjView::new(
            "v",
            vec![t],
            vec![
                SelectItem::group_by(ColRef::new(t, 0), "g"),
                SelectItem::agg(Aggregate::of(AggFunc::Avg, ColRef::new(t, 1)), "a"),
            ],
            Vec::<Condition>::new(),
        );
        let mut s = SummaryStore::new(&v);
        apply_one(&mut s, row![1], 1, &[Some(Value::Double(1.0))]).unwrap();
        apply_one(&mut s, row![1], 1, &[Some(Value::Double(2.0))]).unwrap();
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 1.5]), 1);
    }

    #[test]
    fn distinct_is_always_stale_after_changes() {
        let t = TableId(0);
        let v = GpsjView::new(
            "v",
            vec![t],
            vec![
                SelectItem::group_by(ColRef::new(t, 0), "g"),
                SelectItem::agg(
                    Aggregate::distinct_of(AggFunc::Count, ColRef::new(t, 1)),
                    "d",
                ),
            ],
            Vec::<Condition>::new(),
        );
        let mut s = SummaryStore::new(&v);
        let out = apply_one(&mut s, row![1], 1, &[Some(Value::str("a"))]).unwrap();
        assert_eq!(out.stale_aggs, vec![0]);
        s.set_recomputed(&row![1], 0, Value::Int(1)).unwrap();
        assert_eq!(s.to_bag().unwrap().count(&row![1, 1]), 1);
    }

    #[test]
    fn rollback_restores_groups() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        let before = s.to_bag().unwrap();

        s.begin_undo();
        apply_one(&mut s, row![1], 1, &args(7.0)).unwrap(); // mutate existing
        apply_one(&mut s, row![2], 1, &args(3.0)).unwrap(); // create
        apply_one(&mut s, row![1], -1, &args(5.0)).unwrap();
        s.rollback_undo();
        assert_eq!(s.to_bag().unwrap(), before);
        assert_eq!(s.len(), 1);

        s.begin_undo();
        apply_one(&mut s, row![3], 1, &args(1.0)).unwrap();
        s.commit_undo();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn rollback_survives_clear_and_rebuild() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        apply_one(&mut s, row![2], 1, &args(3.0)).unwrap();
        let before = s.to_bag().unwrap();

        s.begin_undo();
        s.clear();
        s.install_group(
            row![9],
            GroupState {
                aggs: vec![
                    AggState::Count,
                    AggState::Sum(Value::Double(1.0)),
                    AggState::MinMax {
                        func: AggFunc::Max,
                        value: Value::Double(1.0),
                        stale: false,
                    },
                ],
                hidden_cnt: 1,
            },
        );
        s.rollback_undo();
        assert_eq!(s.to_bag().unwrap(), before);
    }

    #[test]
    fn paper_bytes_counts_view_fields() {
        let mut s = SummaryStore::new(&view());
        apply_one(&mut s, row![1], 1, &args(5.0)).unwrap();
        // 1 row × 4 fields × 4 bytes.
        assert_eq!(s.paper_bytes(), 16);
    }
}
