//! The materialized summary table and its per-group aggregate states.
//!
//! A [`SummaryStore`] holds the contents of the GPSJ view `V` keyed by its
//! group-by attributes. CSMAS aggregates (`COUNT`/`SUM`/`AVG`) are
//! maintained purely from their old value and the change (Definition 1).
//! `MIN`/`MAX`/`DISTINCT` are not self-maintainable under deletion
//! (Table 1), which is why the paper keeps their argument raw in `X`; the
//! store holds, per group, the *value counts* of that argument —
//! `π_{G, a, COUNT(*)}` of the joined auxiliary views, a projection of
//! detail data `X` already has — so that a delete is answered by the next
//! key instead of a rescan: `COUNT(DISTINCT a)` is the number of keys,
//! `MIN`/`MAX` the first/last key, `SUM`/`AVG(DISTINCT a)` the exact sum
//! of the keys.
//!
//! The store keeps a hidden per-group `COUNT(*)` even when the view does
//! not project one — this is the standard companion count (Table 1: `SUM`
//! is a SMAS w.r.t. deletions only "if COUNT is included") that detects
//! when a group becomes empty and must be deleted from `V`.
//!
//! Every group sits in the map's bucket: its key is a [`GroupKey`], which
//! holds one or two values in place, and its states are [`AggStates`],
//! which hold two in place — the shape of every summary with many groups
//! the benchmark workloads define. A probe or a scan of `V` reads the
//! bucket and, for a `MIN`/`MAX`/`DISTINCT`, its value counts; nothing
//! else.

use std::collections::BTreeMap;
use std::fmt;
use std::mem::discriminant;
use std::ops::{Deref, DerefMut};

use md_algebra::{having_passes, AggFunc, Aggregate, GpsjView, HavingCond, SelectItem};
use md_core::ChangeRegime;
use md_relation::{Bag, Catalog, DataType, GroupKey, Row, RowKey, SeededHashMap, Value};

use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;

/// Argument value → number of joined base rows of the group carrying it,
/// in value order. No key maps to zero.
pub type ValueCounts = BTreeMap<Value, u64>;

/// Incrementally maintained state of one aggregate within one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// `COUNT(*)` / `COUNT(a)`: emitted from the group's hidden count.
    Count,
    /// `SUM(a)` / `AVG(a)`: the exact sum of the argument over the group's
    /// base rows — rounded once to emit a `SUM`, over the hidden count for
    /// an `AVG`.
    Sum(ExactSum),
    /// `MIN`/`MAX`/`DISTINCT`: the value counts of the argument. They sum
    /// to the group's hidden count — except under the append-only regime,
    /// where a plain `MIN`/`MAX` is self-maintainable w.r.t. insertion
    /// (Table 1) and keeps its extremum alone.
    Values(ValueCounts),
}

/// The state of one summary group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupState {
    /// Aggregate states, parallel to the view's aggregate select items.
    pub aggs: AggStates,
    /// Hidden `COUNT(*)`: number of joined base tuples in the group.
    pub hidden_cnt: u64,
}

/// A group's aggregate states, one per aggregate: up to two held in
/// place, and any other number in one boxed slice. Reads and writes as a
/// slice; the number is fixed when the states are collected.
///
/// Two, not three: a bucket holds its states whether the group needs
/// them or not, and every summary of the benchmark workloads with many
/// groups (`daily_product`, up to 15 000) has two aggregates, while those
/// with three (`product_sales`, `product_sales_max`, `store_revenue`)
/// have at most 250 groups. Sized for three, the buckets of the many cost
/// `trickle` 2 MiB of peak resident set to spare the few a spill.
#[derive(Clone, PartialEq)]
pub struct AggStates(StatesRepr);

#[derive(Clone, PartialEq)]
enum StatesRepr {
    One([AggState; 1]),
    Two([AggState; 2]),
    Other(Box<[AggState]>),
}

impl FromIterator<AggState> for AggStates {
    fn from_iter<I: IntoIterator<Item = AggState>>(states: I) -> Self {
        let mut states = states.into_iter().fuse();
        let head = [states.next(), states.next(), states.next()];
        AggStates(match head {
            [Some(a), None, None] => StatesRepr::One([a]),
            [Some(a), Some(b), None] => StatesRepr::Two([a, b]),
            head => StatesRepr::Other(head.into_iter().flatten().chain(states).collect()),
        })
    }
}

impl Deref for AggStates {
    type Target = [AggState];

    fn deref(&self) -> &[AggState] {
        match &self.0 {
            StatesRepr::One(states) => states,
            StatesRepr::Two(states) => states,
            StatesRepr::Other(states) => states,
        }
    }
}

impl DerefMut for AggStates {
    fn deref_mut(&mut self) -> &mut [AggState] {
        match &mut self.0 {
            StatesRepr::One(states) => states,
            StatesRepr::Two(states) => states,
            StatesRepr::Other(states) => states,
        }
    }
}

impl<'a> IntoIterator for &'a AggStates {
    type Item = &'a AggState;
    type IntoIter = std::slice::Iter<'a, AggState>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for AggStates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl GroupState {
    /// How many `(a, COUNT(*))` entries the group's value counts hold.
    fn counted_values(&self) -> usize {
        let lens = self.aggs.iter().map(|agg| match agg {
            AggState::Values(counts) => counts.len(),
            _ => 0,
        });
        lens.sum()
    }

    /// Puts back the group's *scalar part* — the hidden count and the
    /// running totals (see [`is_total`]), in aggregate order — leaving the
    /// value counts alone.
    fn restore_scalars(&mut self, hidden_cnt: u64, totals: impl Iterator<Item = AggState>) {
        self.hidden_cnt = hidden_cnt;
        let slots = self.aggs.iter_mut().filter(|agg| is_total(agg));
        for (slot, was) in slots.zip(totals) {
            *slot = was;
        }
    }
}

impl GroupState {
    /// The first aggregate whose state is not what a compressed tuple of
    /// weight `hidden_cnt` carrying the constant arguments of `args` (one
    /// per aggregate) leaves: that value summed or counted `hidden_cnt`
    /// times. `None` when every such state agrees.
    pub(crate) fn first_not_carrying(&self, args: &[RunArg<'_>]) -> Option<usize> {
        let n = self.hidden_cnt;
        let agrees = |state: &AggState, arg: &RunArg<'_>| match (state, arg) {
            (AggState::Sum(total), RunArg::Const(v)) => {
                let mut want = ExactSum::default();
                want.add(v, n as i64).is_ok() && want == *total
            }
            (AggState::Values(counts), RunArg::Const(v)) => {
                counts.len() == 1 && counts.get(*v) == Some(&n)
            }
            _ => true,
        };
        let mut pairs = self.aggs.iter().zip(args);
        pairs.position(|(state, arg)| !agrees(state, arg))
    }
}

/// Whether `agg` is a running total (`SUM`/`AVG`): with the hidden count,
/// the state a run overwrites in place and an undo record has to hold,
/// whatever the size of the value counts.
fn is_total(agg: &AggState) -> bool {
    matches!(agg, AggState::Sum(_))
}

/// One aggregate's argument over a run: what every occurrence of the run
/// shares, so the kernel reads no row.
#[derive(Debug)]
pub(crate) enum RunArg<'a> {
    /// `COUNT(*)`: there is none.
    None,
    /// The same value on every occurrence: a dimension attribute, or a
    /// root column, which the run's key determines.
    Const(&'a Value),
    /// The run's sum of the argument, signed: what a compressed root
    /// tuple holds for the base rows it stands for, a root-delta run's net
    /// sum, or a retracted bucket's sum negated. Merged as given.
    Summed(&'a ExactSum),
}

/// The inverse of one value-count mutation: aggregate `.0` counted value
/// `.1` `.2` times (0 = not at all).
type CountUndo = (usize, Value, u64);

/// The inverse of one run folded into a group — the one mutation a batch
/// makes. A rollback replays them newest first, so each only has to
/// restore what its own run overwrote: where its record starts in each of
/// the journal's flat buffers (it ends where the next one starts), and
/// the group's hidden count before the run (`None` = the group did not
/// exist, and the record holds its key alone).
#[derive(Debug, Clone)]
struct Undo {
    key_at: usize,
    totals_at: usize,
    counts_at: usize,
    prior_cnt: Option<u64>,
}

/// The undo journal: records oldest first, and the flat buffers an
/// [`Undo`] indexes — so a run journals its group key, a few words and
/// the inverse of each value-count mutation, never a copy of a map and
/// no allocation of its own. The buffers keep their capacity from batch
/// to batch.
#[derive(Debug, Clone, Default)]
struct Journal {
    records: Vec<Undo>,
    /// Group keys of the run records.
    keys: Vec<Value>,
    /// The `SUM`/`AVG` states before each run on an existing group.
    totals: Vec<AggState>,
    /// The inverse of every value-count mutation, in mutation order.
    counts: Vec<CountUndo>,
}

impl Journal {
    /// Forgets every record, keeping the buffers.
    fn clear(&mut self) {
        self.records.clear();
        self.keys.clear();
        self.totals.clear();
        self.counts.clear();
    }
}

/// The materialized summary view.
#[derive(Debug, Clone)]
pub struct SummaryStore {
    select: Vec<SelectItem>,
    /// The aggregates, in select order (cached).
    aggs: Vec<Aggregate>,
    /// Per aggregate, its argument column's type: what a sum emits as.
    arg_types: Vec<Option<DataType>>,
    /// Per aggregate: whether its value counts keep the extremum alone —
    /// a plain `MIN`/`MAX` when no deletion can ever reach the view
    /// (Section 4: "old detail data can be reduced even further").
    extremum_only: Vec<bool>,
    /// `HAVING` output filter (paper Section 4 extension). Groups failing
    /// it are maintained internally — required for self-maintainability,
    /// since later changes can move a group across the threshold — and
    /// only suppressed at read time.
    having: Vec<HavingCond>,
    groups: SeededHashMap<GroupKey, GroupState>,
    /// Whether an undo scope is open: mutations are journaled.
    journaling: bool,
    journal: Journal,
}

impl SummaryStore {
    /// Creates an empty summary store for `view` over `catalog`,
    /// maintained under `regime`.
    pub fn new(view: &GpsjView, catalog: &Catalog, regime: ChangeRegime) -> Result<Self> {
        let aggs: Vec<Aggregate> = view.aggregates().into_iter().copied().collect();
        let arg_types = aggs
            .iter()
            .map(|agg| {
                let Some(col) = agg.arg else { return Ok(None) };
                Ok(Some(
                    catalog.def(col.table)?.schema.column(col.column).dtype,
                ))
            })
            .collect::<Result<_>>()?;
        let extremum_only = aggs
            .iter()
            .map(|a| {
                regime == ChangeRegime::AppendOnly
                    && !a.distinct
                    && matches!(a.func, AggFunc::Min | AggFunc::Max)
            })
            .collect();
        Ok(SummaryStore {
            select: view.select.clone(),
            aggs,
            arg_types,
            extremum_only,
            having: view.having.clone(),
            groups: SeededHashMap::default(),
            journaling: false,
            journal: Journal::default(),
        })
    }

    /// Opens an undo scope: every mutation until [`Self::commit_undo`] or
    /// [`Self::rollback_undo`] journals its inverse so the store can be
    /// restored exactly.
    pub(crate) fn begin_undo(&mut self) {
        self.journal.clear();
        self.journaling = true;
    }

    /// Closes the undo scope, keeping all mutations.
    pub(crate) fn commit_undo(&mut self) {
        self.journal.clear();
        self.journaling = false;
    }

    /// Closes the undo scope, restoring the pre-transaction state. No-op
    /// without an open scope.
    pub(crate) fn rollback_undo(&mut self) {
        let Journal {
            records,
            keys,
            totals,
            counts,
        } = &mut self.journal;
        for record in records.drain(..).rev() {
            let Undo {
                key_at,
                totals_at,
                counts_at,
                prior_cnt,
            } = record;
            let key = &keys[key_at..];
            match prior_cnt {
                None => {
                    self.groups.remove(&key as &dyn RowKey);
                }
                Some(hidden_cnt) => {
                    // The run may have emptied the group, and with it every
                    // map: the counts go back into a shell.
                    if !self.groups.contains_key(&key as &dyn RowKey) {
                        let key = GroupKey::of(&key);
                        self.groups.insert(key, empty_group(&self.aggs));
                    }
                    let group = self.groups.get_mut(&key as &dyn RowKey);
                    let group = group.expect("present or just inserted");
                    unwind_counts(group, counts.drain(counts_at..));
                    group.restore_scalars(hidden_cnt, totals.drain(totals_at..));
                }
            }
            keys.truncate(key_at);
        }
        self.journaling = false;
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
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &GroupState)> {
        self.groups.iter()
    }

    /// Makes room for an image's `groups` more groups, so the restore that
    /// follows never regrows the map.
    pub(crate) fn reserve(&mut self, groups: usize) {
        self.groups.reserve(groups);
    }

    /// Applies a *run* of joined-tuple occurrences that all fold into the
    /// same group `key` in one pass: the group is probed once — under a
    /// key the caller only borrows, which becomes a [`GroupKey`] when the
    /// run creates the group — the run is folded in place, and one undo
    /// record is journaled for it. `signs[i]` is occurrence `i`'s signed
    /// weight (`±1` for a source row, `±cnt₀` for a compressed root tuple)
    /// and moves the hidden count one at a time, so a retraction of a row
    /// the group does not hold yet is refused. `args` holds one [`RunArg`]
    /// per aggregate and moves once: a `SUM`/`AVG` merges a sum as given or
    /// adds a constant times the net weight (`a · cnt₀`), a
    /// `MIN`/`MAX`/`DISTINCT` moves the constant's count by it. Sums are
    /// exact, so the committed state is the one any order of the same
    /// occurrences would leave. On error the store is as it was.
    pub(crate) fn apply_run(
        &mut self,
        key: &dyn RowKey,
        signs: &[i64],
        args: &[RunArg<'_>],
    ) -> Result<()> {
        if args.len() != self.aggs.len() {
            return Err(MaintainError::InvariantViolation(format!(
                "a run into a view of {} aggregates got {} arguments",
                self.aggs.len(),
                args.len()
            )));
        }
        let run = Run {
            aggs: &self.aggs,
            extremum_only: &self.extremum_only,
            key,
            signs,
            args,
        };
        let Journal {
            records,
            keys,
            totals,
            counts,
        } = &mut self.journal;
        let (totals_at, counts_at) = (totals.len(), counts.len());
        let prior_cnt = match self.groups.get_mut(key) {
            Some(group) => {
                let prior_cnt = group.hidden_cnt;
                totals.extend(group.aggs.iter().filter(|agg| is_total(agg)).cloned());
                if let Err(e) = run.fold_into(group, counts) {
                    unwind_counts(group, counts.drain(counts_at..));
                    group.restore_scalars(prior_cnt, totals.drain(totals_at..));
                    return Err(e);
                }
                if group.hidden_cnt == 0 {
                    self.groups.remove(key);
                }
                Some(prior_cnt)
            }
            None => {
                let mut group = empty_group(&self.aggs);
                let folded = run.fold_into(&mut group, counts);
                // Undoing a creation takes the group out whole.
                counts.truncate(counts_at);
                folded?;
                if group.hidden_cnt == 0 {
                    // It came and went within the run: it was never there.
                    return Ok(());
                }
                self.groups.insert(GroupKey::of(key), group);
                None
            }
        };
        if self.journaling {
            records.push(Undo {
                key_at: keys.len(),
                totals_at,
                counts_at,
                prior_cnt,
            });
            keys.extend((0..key.arity()).map(|i| key.value(i).clone()));
        } else {
            totals.truncate(totals_at);
            counts.truncate(counts_at);
        }
        Ok(())
    }

    /// What must hold of a group before the store takes it from outside
    /// (a snapshot image) and what an audit re-checks: the shapes match
    /// the view, each sum is one its argument column can have, no value
    /// is counted zero times, and each aggregate's value counts add up to
    /// the group's hidden count.
    pub(crate) fn check_group(&self, key: &GroupKey, state: &GroupState) -> Result<()> {
        let broken = |what: String| {
            Err(MaintainError::InvariantViolation(format!(
                "summary group {key}: {what}"
            )))
        };
        let group_arity = self.select.len() - self.aggs.len();
        if key.arity() != group_arity || state.aggs.len() != self.aggs.len() {
            return broken(format!(
                "key arity {} and {} aggregates, the view expects {group_arity} and {}",
                key.arity(),
                state.aggs.len(),
                self.aggs.len()
            ));
        }
        if state.hidden_cnt == 0 {
            return broken("stands for no base row".into());
        }
        for (i, (agg, agg_state)) in self.aggs.iter().zip(&state.aggs).enumerate() {
            if discriminant(&state_kind(agg)) != discriminant(agg_state) {
                return broken(format!("aggregate {i} holds {agg_state:?}"));
            }
            let counts = match agg_state {
                AggState::Count => continue,
                AggState::Sum(sum) => match self.arg_types[i] {
                    Some(dtype) if sum.admits(dtype) => continue,
                    _ => return broken(format!("aggregate {i} holds a sum its column cannot")),
                },
                AggState::Values(counts) => counts,
            };
            let total = counts
                .values()
                .try_fold(0u64, |sum, &n| sum.checked_add(n).filter(|_| n > 0));
            let adds_up = match total {
                Some(total) if self.extremum_only[i] => {
                    counts.len() == 1 && total <= state.hidden_cnt
                }
                Some(total) => total == state.hidden_cnt,
                None => false,
            };
            if !adds_up {
                return broken(format!(
                    "the value counts of aggregate {i} do not add up to its {} base rows",
                    state.hidden_cnt
                ));
            }
        }
        Ok(())
    }

    /// Whether both stores hold the same groups in the same states,
    /// value counts included.
    pub(crate) fn same_groups(&self, other: &SummaryStore) -> bool {
        self.groups == other.groups
    }

    /// Installs a fully-computed group read from a snapshot image, outside
    /// any batch.
    pub fn install_group(&mut self, key: GroupKey, state: GroupState) {
        self.groups.insert(key, state);
    }

    /// Emits the summary contents as output rows in select order (one per
    /// group, in no particular order), applying the view's `HAVING`
    /// filter.
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
    fn emit_row(&self, key: &GroupKey, state: &GroupState) -> Result<Row> {
        let mut values = Vec::with_capacity(self.select.len());
        let mut gi = 0;
        let mut ai = 0;
        for item in &self.select {
            match item {
                SelectItem::GroupBy { .. } => {
                    values.push(key[gi].clone());
                    gi += 1;
                }
                SelectItem::Agg { agg, .. } => {
                    let arg_type = self.arg_types[ai].unwrap_or(DataType::Int);
                    let v = match &state.aggs[ai] {
                        AggState::Count => Value::Int(state.hidden_cnt as i64),
                        AggState::Sum(total) if agg.func == AggFunc::Avg => {
                            total.mean(state.hidden_cnt)
                        }
                        AggState::Sum(total) => total.emit(arg_type),
                        AggState::Values(counts) => answer_from(agg.func, counts, arg_type)?,
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

    /// The value counts as a relation `(G, a, COUNT(*))`, one per
    /// `MIN`/`MAX`/`DISTINCT` aggregate: its tuples, and their bytes in
    /// the paper's model. `None` for a view of CSMAS aggregates, which
    /// keeps none.
    pub fn value_count_footprint(&self) -> Option<(u64, u64)> {
        let counted = |agg| matches!(state_kind(agg), AggState::Values(_));
        if !self.aggs.iter().any(counted) {
            return None;
        }
        let rows = self.groups.values().map(GroupState::counted_values);
        let rows = rows.sum::<usize>() as u64;
        let fields = (self.select.len() - self.aggs.len()) as u64 + 2;
        Some((rows, rows * fields * Value::PAPER_FIELD_BYTES))
    }
}

#[cfg(test)]
impl SummaryStore {
    /// The state of one group.
    pub(crate) fn group(&self, key: &dyn RowKey) -> Option<&GroupState> {
        self.groups.get(key)
    }

    /// Values held by the open undo scope: one per record and one per
    /// value-count inverse.
    pub(crate) fn undo_weight(&self) -> usize {
        self.journal.records.len() + self.journal.counts.len()
    }
}

/// The state kind `agg` is maintained in, holding nothing yet.
fn state_kind(agg: &Aggregate) -> AggState {
    match (agg.func, agg.distinct) {
        (AggFunc::Count, false) => AggState::Count,
        (AggFunc::Sum | AggFunc::Avg, false) => AggState::Sum(ExactSum::default()),
        (AggFunc::Min | AggFunc::Max, _) | (_, true) => AggState::Values(ValueCounts::new()),
    }
}

/// A group no base row has reached yet: every sum is exact zero.
fn empty_group(aggs: &[Aggregate]) -> GroupState {
    GroupState {
        aggs: aggs.iter().map(state_kind).collect(),
        hidden_cnt: 0,
    }
}

/// Evaluates a `MIN`/`MAX`/`DISTINCT` aggregate over an argument of type
/// `arg_type` from its value counts.
fn answer_from(func: AggFunc, counts: &ValueCounts, arg_type: DataType) -> Result<Value> {
    let mut keys = counts.keys();
    let answer = match func {
        AggFunc::Count => return Ok(Value::Int(counts.len() as i64)),
        AggFunc::Min => keys.next().cloned(),
        AggFunc::Max => keys.next_back().cloned(),
        AggFunc::Sum | AggFunc::Avg if !counts.is_empty() => {
            let mut total = ExactSum::default();
            for v in keys {
                total.add(v, 1)?;
            }
            Some(match func {
                AggFunc::Avg => total.mean(counts.len() as u64),
                _ => total.emit(arg_type),
            })
        }
        AggFunc::Sum | AggFunc::Avg => None,
    };
    answer.ok_or_else(|| {
        MaintainError::InvariantViolation(format!("{func} over a group that counts no value"))
    })
}

/// Sets `value`'s count in `counts`; zero removes the key.
fn set_count(counts: &mut ValueCounts, value: &Value, n: u64) {
    if n == 0 {
        counts.remove(value);
    } else if let Some(slot) = counts.get_mut(value) {
        *slot = n;
    } else {
        counts.insert(value.clone(), n);
    }
}

/// Takes the key farthest from the `func` extremum out of `counts`, while
/// there is more than one: no deletion will ever ask an extremum-only
/// aggregate for its runner-up.
fn pop_runner_up(func: AggFunc, counts: &mut ValueCounts) -> Option<(Value, u64)> {
    if counts.len() < 2 {
        return None;
    }
    match func {
        AggFunc::Min => counts.pop_last(),
        _ => counts.pop_first(),
    }
}

/// Replays `undo` newest first onto `group`'s value counts.
fn unwind_counts(group: &mut GroupState, undo: impl DoubleEndedIterator<Item = CountUndo>) {
    for (agg, value, n) in undo.rev() {
        if let AggState::Values(counts) = &mut group.aggs[agg] {
            set_count(counts, &value, n);
        }
    }
}

/// One [`SummaryStore::apply_run`] call, unpacked.
struct Run<'a> {
    aggs: &'a [Aggregate],
    extremum_only: &'a [bool],
    key: &'a dyn RowKey,
    signs: &'a [i64],
    args: &'a [RunArg<'a>],
}

impl<'a> Run<'a> {
    /// Folds the run into `group` in place, journaling the inverse of
    /// every value-count mutation into `undo`. The scalar part is the
    /// caller's to restore on error.
    fn fold_into(&self, group: &mut GroupState, undo: &mut Vec<CountUndo>) -> Result<()> {
        let violated = |what: String| Err(MaintainError::InvariantViolation(what));
        for &sign in self.signs {
            let weight = sign.unsigned_abs();
            if sign > 0 {
                group.hidden_cnt += weight;
            } else if group.hidden_cnt == 0 {
                return violated(format!(
                    "delete against absent summary group {}",
                    self.key.to_row()
                ));
            } else if group.hidden_cnt < weight {
                return violated(format!(
                    "summary group {} holds {} rows, cannot retract {weight}",
                    self.key.to_row(),
                    group.hidden_cnt
                ));
            } else {
                group.hidden_cnt -= weight;
            }
        }
        let net: i64 = self.signs.iter().sum();
        for (i, (state, arg)) in group.aggs.iter_mut().zip(self.args).enumerate() {
            match (state, arg) {
                (AggState::Count, _) => {}
                (AggState::Sum(total), RunArg::Summed(sum)) => total.merge(sum),
                (AggState::Sum(total), RunArg::Const(v)) => total.add(v, net)?,
                (AggState::Values(counts), RunArg::Const(v)) => {
                    self.count(counts, i, v, net, undo)?;
                    if group.hidden_cnt == 0 && !counts.is_empty() {
                        return violated(format!(
                            "summary group {} emptied while aggregate {i} still counts {counts:?}",
                            self.key.to_row()
                        ));
                    }
                }
                (AggState::Sum(_) | AggState::Values(_), _) => {
                    return violated("missing aggregate argument value".into())
                }
            }
        }
        Ok(())
    }

    /// Moves the count of `value` under aggregate `agg` by `delta` base
    /// rows.
    fn count(
        &self,
        counts: &mut ValueCounts,
        agg: usize,
        value: &Value,
        delta: i64,
        undo: &mut Vec<CountUndo>,
    ) -> Result<()> {
        if delta == 0 {
            return Ok(());
        }
        let slot = counts.get_mut(value);
        let prior = slot.as_deref().copied().unwrap_or(0);
        let Some(now) = prior.checked_add_signed(delta) else {
            return Err(MaintainError::InvariantViolation(format!(
                "summary group {} counts {value} {prior} times under aggregate {agg}, \
                 cannot move that by {delta}",
                self.key.to_row()
            )));
        };
        undo.push((agg, value.clone(), prior));
        // One probe for a value already counted — a rebuild from `X` counts
        // every root auxiliary tuple through here. `delta ≠ 0`, so an
        // absent value is inserted with a positive count.
        match slot {
            Some(n) if now > 0 => *n = now,
            Some(_) => drop(counts.remove(value)),
            None => drop(counts.insert(value.clone(), now)),
        }
        if self.extremum_only[agg] {
            while let Some((value, n)) = pop_runner_up(self.aggs[agg].func, counts) {
                undo.push((agg, value, n));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{ColRef, Condition, GpsjView};
    use md_relation::{row, Decoder, Encoder, Schema, TableId};

    /// A store for `SELECT g, <aggs> FROM t GROUP BY g` over
    /// `t(g INT, a DOUBLE)`, every aggregate over `t.a`.
    fn store_of(aggs: &[Aggregate], regime: ChangeRegime) -> SummaryStore {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("a", DataType::Double)]);
        let t = cat.add_table("t", schema, 0).unwrap();
        let mut select = vec![SelectItem::group_by(ColRef::new(t, 0), "g")];
        for (i, agg) in aggs.iter().enumerate() {
            select.push(SelectItem::agg(*agg, format!("a{i}")));
        }
        let view = GpsjView::new("v", vec![t], select, Vec::<Condition>::new());
        SummaryStore::new(&view, &cat, regime).unwrap()
    }

    /// The exact sum of `v` once.
    fn sum_of(v: f64) -> ExactSum {
        let mut sum = ExactSum::default();
        sum.add(&Value::Double(v), 1).unwrap();
        sum
    }

    fn over(func: AggFunc) -> Aggregate {
        Aggregate::of(func, ColRef::new(TableId(0), 1))
    }

    fn distinct(func: AggFunc) -> Aggregate {
        Aggregate::distinct_of(func, ColRef::new(TableId(0), 1))
    }

    /// `COUNT(*)`, `SUM`, `MAX` under the general regime.
    fn store() -> SummaryStore {
        let aggs = [
            Aggregate::count_star(),
            over(AggFunc::Sum),
            over(AggFunc::Max),
        ];
        store_of(&aggs, ChangeRegime::General)
    }

    /// Each aggregate's argument for a run of one value `v` whose sum is
    /// `sum`: the sum for a `SUM`/`AVG`, the value for the rest.
    fn args_of<'a>(s: &SummaryStore, v: &'a Value, sum: &'a ExactSum) -> Vec<RunArg<'a>> {
        let arg = |agg: &Aggregate| match state_kind(agg) {
            AggState::Count => RunArg::None,
            AggState::Sum(_) => RunArg::Summed(sum),
            AggState::Values(_) => RunArg::Const(v),
        };
        s.aggregates().iter().map(arg).collect()
    }

    /// One occurrence carrying `v` for every aggregate, as a run of one:
    /// its sign, its signed sum and the value itself.
    fn apply_one(s: &mut SummaryStore, key: Row, sign: i64, v: impl Into<Value>) -> Result<()> {
        let v = v.into();
        let mut sum = ExactSum::default();
        sum.add(&v, sign)?;
        let args = args_of(s, &v, &sum);
        s.apply_run(&key, &[sign], &args)
    }

    #[test]
    fn one_or_two_states_sit_in_place_and_more_spill() {
        let states = |n: usize| (0..n).map(|_| AggState::Count).collect::<AggStates>();
        assert!(matches!(states(1).0, StatesRepr::One(_)));
        assert!(matches!(states(2).0, StatesRepr::Two(_)));
        assert!(matches!(states(3).0, StatesRepr::Other(_)));
        let lens = [0, 1, 2, 3, 4].map(|n| states(n).len());
        assert_eq!(lens, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn insert_creates_and_accumulates() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![1], 1, 7.0).unwrap();
        apply_one(&mut s, row![2], 1, 3.0).unwrap();
        assert_eq!(s.len(), 2);
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 2, 12.0, 7.0]), 1);
        assert_eq!(bag.count(&row![2, 1, 3.0, 3.0]), 1);
    }

    #[test]
    fn max_insert_fast_path() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![1], 1, 9.0).unwrap();
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 2, 14.0, 9.0]), 1);
    }

    #[test]
    fn delete_non_extremum_stays_fresh() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![1], 1, 9.0).unwrap();
        apply_one(&mut s, row![1], -1, 5.0).unwrap();
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 1, 9.0, 9.0]), 1);
    }

    #[test]
    fn deleting_the_extremum_exposes_the_runner_up() {
        let mut s = store();
        for v in [5.0, 9.0, 9.0] {
            apply_one(&mut s, row![1], 1, v).unwrap();
        }
        // One of two equal maxima goes: MAX must not move …
        apply_one(&mut s, row![1], -1, 9.0).unwrap();
        assert_eq!(s.to_bag().unwrap().count(&row![1, 2, 14.0, 9.0]), 1);
        // … the other goes: the next key answers, nothing is rescanned.
        apply_one(&mut s, row![1], -1, 9.0).unwrap();
        assert_eq!(s.to_bag().unwrap().count(&row![1, 1, 5.0, 5.0]), 1);
        // A value the group does not count cannot be retracted.
        assert!(apply_one(&mut s, row![1], -1, 9.0).is_err());
        assert_eq!(s.to_bag().unwrap().count(&row![1, 1, 5.0, 5.0]), 1);
    }

    #[test]
    fn group_disappears_at_zero() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![1], -1, 5.0).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn delete_from_absent_group_errors() {
        let mut s = store();
        assert!(apply_one(&mut s, row![1], -1, 5.0).is_err());
        assert!(s.is_empty());
    }

    #[test]
    fn a_run_equals_its_occurrences_one_at_a_time() {
        // Emptied and refilled mid-run, its net sum merged once, and its
        // constant arguments counted by the net weight: one run, then the
        // same as runs of one.
        let aggs = [
            over(AggFunc::Sum),
            over(AggFunc::Max),
            distinct(AggFunc::Count),
        ];
        let signs = [1, 1, -1, -1, 1, 1, 1];
        let price = Value::Double(2.5);
        let signed = |sign: i64| {
            let mut sum = ExactSum::default();
            sum.add(&price, sign).unwrap();
            sum
        };
        let net = signed(signs.iter().sum());

        let mut whole = store_of(&aggs, ChangeRegime::General);
        let args = args_of(&whole, &price, &net);
        whole.apply_run(&row![1], &signs, &args).unwrap();
        let mut singles = store_of(&aggs, ChangeRegime::General);
        for sign in signs {
            let sum = signed(sign);
            let args = args_of(&singles, &price, &sum);
            singles.apply_run(&row![1], &[sign], &args).unwrap();
        }
        assert!(whole.same_groups(&singles));
        assert_eq!(whole.to_bag().unwrap().count(&row![1, 7.5, 2.5, 1]), 1);
        let state = whole.group(&row![1]).unwrap();
        whole.check_group(&GroupKey::from(row![1]), state).unwrap();
        let thrice = AggState::Values(ValueCounts::from([(price.clone(), 3)]));
        assert_eq!((&state.aggs[1], &state.aggs[2]), (&thrice, &thrice));
    }

    #[test]
    fn a_failed_run_leaves_the_group_as_it_was() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        let before = s.clone();
        // The run nets one retraction of a value the group never counted.
        let nine = Value::Double(9.0);
        let mut net = ExactSum::default();
        net.add(&nine, -1).unwrap();
        let args = args_of(&s, &nine, &net);
        for journaling in [false, true] {
            if journaling {
                s.begin_undo();
            }
            let err = s.apply_run(&row![1], &[1, -1, -1], &args);
            assert!(err.is_err());
            assert!(s.same_groups(&before));
            assert_eq!(s.undo_weight(), 0, "a failed run leaves no record");
        }
        s.rollback_undo();
        assert!(s.same_groups(&before));
    }

    #[test]
    fn avg_emits_sum_over_hidden_count() {
        let mut s = store_of(&[over(AggFunc::Avg)], ChangeRegime::General);
        apply_one(&mut s, row![1], 1, 1.0).unwrap();
        apply_one(&mut s, row![1], 1, 2.0).unwrap();
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 1.5]), 1);
    }

    #[test]
    fn distinct_aggregates_read_the_keys_in_key_order() {
        let aggs = [
            distinct(AggFunc::Count),
            distinct(AggFunc::Sum),
            distinct(AggFunc::Avg),
            distinct(AggFunc::Min),
        ];
        let mut s = store_of(&aggs, ChangeRegime::General);
        for v in [0.3, 0.1, 0.2, 0.1] {
            apply_one(&mut s, row![1], 1, v).unwrap();
        }
        // The exact sum rounded once, which a fold in key order misses.
        let sum = 0.6;
        assert_ne!(sum, (0.1 + 0.2) + 0.3);
        let bag = s.to_bag().unwrap();
        assert_eq!(bag.count(&row![1, 3, sum, sum / 3.0, 0.1]), 1);
        // The second 0.1 goes, the first stays counted.
        apply_one(&mut s, row![1], -1, 0.1).unwrap();
        assert_eq!(
            s.to_bag().unwrap().count(&row![1, 3, sum, sum / 3.0, 0.1]),
            1
        );
        apply_one(&mut s, row![1], -1, 0.1).unwrap();
        let sum = 0.2 + 0.3;
        assert_eq!(
            s.to_bag().unwrap().count(&row![1, 2, sum, sum / 2.0, 0.2]),
            1
        );
    }

    #[test]
    fn append_only_extrema_keep_one_key() {
        // No deletion can reach the view (Section 4): MIN/MAX need no
        // runner-up, DISTINCT still needs every value.
        let aggs = [
            over(AggFunc::Min),
            over(AggFunc::Max),
            distinct(AggFunc::Count),
        ];
        let mut s = store_of(&aggs, ChangeRegime::AppendOnly);
        for v in [5, 3, 9, 3, 4] {
            apply_one(&mut s, row![1], 1, v).unwrap();
        }
        assert_eq!(s.to_bag().unwrap().count(&row![1, 3, 9, 4]), 1);
        let state = s.group(&row![1]).unwrap();
        assert_eq!(
            state.aggs[0],
            AggState::Values(ValueCounts::from([(Value::Int(3), 2)]))
        );
        assert_eq!(
            state.aggs[1],
            AggState::Values(ValueCounts::from([(Value::Int(9), 1)]))
        );
        s.check_group(&GroupKey::from(row![1]), state).unwrap();
        assert_eq!(s.value_count_footprint(), Some((6, 6 * 3 * 4)));

        // A rollback puts dropped runners-up back where they were.
        let before = s.clone();
        s.begin_undo();
        apply_one(&mut s, row![1], 1, 1).unwrap();
        apply_one(&mut s, row![1], 1, 10).unwrap();
        assert_eq!(s.to_bag().unwrap().count(&row![1, 1, 10, 6]), 1);
        s.rollback_undo();
        assert!(s.same_groups(&before));
    }

    #[test]
    fn rollback_restores_groups() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        let before = s.clone();

        s.begin_undo();
        apply_one(&mut s, row![1], 1, 7.0).unwrap(); // mutate existing
        apply_one(&mut s, row![2], 1, 3.0).unwrap(); // create
        apply_one(&mut s, row![1], -1, 5.0).unwrap();
        apply_one(&mut s, row![1], -1, 7.0).unwrap(); // empty
        apply_one(&mut s, row![1], 1, 8.0).unwrap(); // and refill
        s.rollback_undo();
        assert!(s.same_groups(&before));
        assert_eq!(s.len(), 1);

        s.begin_undo();
        apply_one(&mut s, row![3], 1, 1.0).unwrap();
        s.commit_undo();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn a_run_journals_inverses_not_maps() {
        // A count, not a timing: one change against a group counting
        // 10 000 values must journal a handful of them.
        let mut s = store();
        for v in 0..10_000 {
            apply_one(&mut s, row![1], 1, v as f64).unwrap();
        }
        let before = s.clone();
        s.begin_undo();
        apply_one(&mut s, row![1], -1, 9_999.0).unwrap();
        apply_one(&mut s, row![1], 1, 0.5).unwrap();
        assert!(s.undo_weight() <= 4, "{} values journaled", s.undo_weight());
        assert_eq!(
            s.to_bag()
                .unwrap()
                .count(&row![1, 10_000, 49_985_001.5, 9_998.0]),
            1
        );
        s.rollback_undo();
        assert!(s.same_groups(&before));
    }

    #[test]
    fn rollback_survives_groups_drained_and_created_by_weighted_runs() {
        // What a dimension change does to a root-omitted summary: a group
        // retracted whole by its weight, and its tuples folded back in
        // under another key, in one run each.
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![2], 1, 3.0).unwrap();
        apply_one(&mut s, row![2], 1, 3.0).unwrap();
        let before = s.clone();

        s.begin_undo();
        let (three, six, minus_six) = (Value::Double(3.0), sum_of(6.0), sum_of(-6.0));
        let retracted = [
            RunArg::None,
            RunArg::Summed(&minus_six),
            RunArg::Const(&three),
        ];
        s.apply_run(&row![2], &[-2], &retracted).unwrap();
        assert!(s.group(&row![2]).is_none(), "drained");
        let moved = [RunArg::None, RunArg::Summed(&six), RunArg::Const(&three)];
        s.apply_run(&row![7], &[2], &moved).unwrap();
        s.apply_run(&row![1], &[2], &moved).unwrap();
        assert_eq!(s.to_bag().unwrap().count(&row![1, 3, 11.0, 5.0]), 1);
        assert_eq!(s.to_bag().unwrap().count(&row![7, 2, 6.0, 3.0]), 1);
        s.rollback_undo();
        assert!(s.same_groups(&before));
    }

    #[test]
    fn check_group_refuses_counts_that_do_not_add_up() {
        let s = store();
        let group = |counts: &[(f64, u64)], hidden_cnt| GroupState {
            aggs: [
                AggState::Count,
                AggState::Sum(sum_of(1.0)),
                AggState::Values(counts.iter().map(|&(v, n)| (Value::Double(v), n)).collect()),
            ]
            .into_iter()
            .collect(),
            hidden_cnt,
        };
        // Canonical, but finer than 2⁻¹⁰⁷⁴: no sum of doubles.
        let mut e = Encoder::new();
        e.put_zigzag(-135);
        e.put_varint(2);
        e.put_u8(1);
        let too_fine = ExactSum::decode(&mut Decoder::new(&e.into_bytes())).unwrap();
        let mut no_double_sum = group(&[(1.0, 3)], 3);
        no_double_sum.aggs[1] = AggState::Sum(too_fine);
        assert!(s
            .check_group(&GroupKey::from(row![1]), &no_double_sum)
            .is_err());
        s.check_group(&GroupKey::from(row![1]), &group(&[(1.0, 2), (4.0, 1)], 3))
            .unwrap();
        for (what, state) in [
            ("a zero count", group(&[(1.0, 3), (4.0, 0)], 3)),
            ("a sum short of the hidden count", group(&[(1.0, 2)], 3)),
            ("a sum past u64", group(&[(1.0, u64::MAX), (4.0, 4)], 3)),
            ("no base row", group(&[], 0)),
        ] {
            assert!(
                s.check_group(&GroupKey::from(row![1]), &state).is_err(),
                "{what}"
            );
        }
        let mut wrong_kind = group(&[(1.0, 3)], 3);
        wrong_kind.aggs.swap(1, 2);
        assert!(s
            .check_group(&GroupKey::from(row![1]), &wrong_kind)
            .is_err());
        assert!(s
            .check_group(&GroupKey::from(row![1, 2]), &group(&[(1.0, 3)], 3))
            .is_err());
    }

    #[test]
    fn paper_bytes_counts_view_fields() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        // 1 row × 4 fields × 4 bytes.
        assert_eq!(s.paper_bytes(), 16);
        // One (g, a, count) tuple.
        assert_eq!(s.value_count_footprint(), Some((1, 12)));
    }
}
