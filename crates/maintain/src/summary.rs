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
//! of the keys. The counts are keyed by the argument column's type: a
//! number or a boolean by its order word, a string by itself.
//!
//! The store keeps a hidden per-group `COUNT(*)` even when the view does
//! not project one — this is the standard companion count (Table 1: `SUM`
//! is a SMAS w.r.t. deletions only "if COUNT is included") that detects
//! when a group becomes empty and must be deleted from `V`.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::mem::discriminant;
use std::vec::Drain;

use md_algebra::{AggFunc, Aggregate, ColRef, GpsjView, SelectItem, ViewSite};
use md_core::ChangeRegime;
use md_relation::{
    from_order_word, order_word, Bag, Catalog, DataType, Decoder, Encoder, GroupKey, Row, RowKey,
    Value,
};

use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::filter::{refused, Filter};
use crate::groups::{as_slice, Counted, Groups};

/// Argument value → number of joined base rows of the group carrying it,
/// in value order, keyed by the type of the argument column, which the
/// store fixes when it compiles the view. No key maps to zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueCounts(Keyed);

/// The keys of [`ValueCounts`].
#[derive(Debug, Clone, PartialEq)]
enum Keyed {
    /// An `Int`, `Double` or `Bool` argument (`.0`): each value under its
    /// order word ([`order_word`]), whose unsigned order is the values'
    /// and whose equality is theirs, bit for bit. An entry is 16 bytes,
    /// and a descent compares words.
    Words(DataType, BTreeMap<u64, u64>),
    /// A `Str` argument: each value under its string.
    Strs(BTreeMap<String, u64>),
}

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

as_slice!(AggStates(StatesRepr) of AggState: One | Two | Other);

impl GroupState {
    /// How many `(a, COUNT(*))` entries the group's value counts hold.
    fn counted_values(&self) -> usize {
        let lens = self.aggs.iter().map(|agg| match agg {
            AggState::Values(counts) => counts.len(),
            _ => 0,
        });
        lens.sum()
    }

    /// The first aggregate whose state is not what a compressed tuple of
    /// weight `hidden_cnt` carrying the constant arguments of `args` (one
    /// per aggregate) leaves: that value summed or counted `hidden_cnt`
    /// times. `None` when every such state agrees.
    pub(crate) fn first_not_carrying(&self, args: &[RunArg<'_>]) -> Option<usize> {
        let n = self.hidden_cnt;
        let agrees = |state: &AggState, arg: &RunArg<'_>| match (state, arg) {
            (AggState::Sum(total), RunArg::Const(v)) => {
                let mut want = ExactSum::default();
                want.add(v, n as i64);
                want == *total
            }
            (AggState::Values(counts), RunArg::Const(v)) => {
                counts.len() == 1 && counts.count_of(v) == Some(n)
            }
            _ => true,
        };
        let mut pairs = self.aggs.iter().zip(args);
        pairs.position(|(state, arg)| !agrees(state, arg))
    }
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

/// One piece of a group's state before a run, as the journal keeps it.
#[derive(Debug, Clone)]
pub(crate) enum Prior {
    /// Aggregate `.0` was the `SUM`/`AVG` total `.1`: the scalar part a
    /// run overwrites in place, whatever the size of the value counts.
    Total(usize, ExactSum),
    /// Aggregate `.0` counted the value of word `.1` `.2` times (0 = not
    /// at all): the inverse of one value-count mutation.
    Word(usize, u64, u64),
    /// As [`Prior::Word`], of a string.
    Str(usize, String, u64),
}

impl Counted for GroupState {
    type Undo = Prior;

    fn count(&self) -> u64 {
        self.hidden_cnt
    }

    fn restore(&mut self, hidden_cnt: u64, undo: Drain<'_, Prior>) {
        self.hidden_cnt = hidden_cnt;
        for prior in undo.rev() {
            match prior {
                Prior::Total(i, total) => self.aggs[i] = AggState::Sum(total),
                Prior::Word(i, word, n) => {
                    if let AggState::Values(ValueCounts(Keyed::Words(_, map))) = &mut self.aggs[i] {
                        set_count(map, word, n);
                    }
                }
                Prior::Str(i, s, n) => {
                    if let AggState::Values(ValueCounts(Keyed::Strs(map))) = &mut self.aggs[i] {
                        set_count(map, s, n);
                    }
                }
            }
        }
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
    /// `HAVING` output filter (paper Section 4 extension), compiled over
    /// the output rows. Groups failing it are maintained internally —
    /// required for self-maintainability, since later changes can move a
    /// group across the threshold — and only suppressed at read time.
    having: Filter,
    groups: Groups<GroupState>,
}

impl SummaryStore {
    /// Creates an empty summary store for `view` over `catalog`,
    /// maintained under `regime`. Each `SUM` and `AVG` must read a numeric
    /// column, and `HAVING` is compiled against the output's types: a view
    /// that does not compile is refused, naming the item.
    pub(crate) fn new(view: &GpsjView, catalog: &Catalog, regime: ChangeRegime) -> Result<Self> {
        let aggs: Vec<Aggregate> = view.aggregates().into_iter().copied().collect();
        let type_of = |c: ColRef| {
            catalog
                .def(c.table)
                .map(|def| def.schema.column(c.column).dtype)
        };
        // Each aggregate's argument type, and each output item's type.
        let (mut arg_types, mut items) = (Vec::new(), Vec::new());
        for (i, item) in view.select.iter().enumerate() {
            let agg = match item {
                SelectItem::GroupBy { col, .. } => {
                    items.push(type_of(*col)?);
                    continue;
                }
                SelectItem::Agg { agg, .. } => agg,
            };
            let arg = agg.arg.map(type_of).transpose()?;
            if matches!(agg.func, AggFunc::Sum | AggFunc::Avg)
                && !arg.is_some_and(DataType::is_numeric)
            {
                let message = format!("{} sums a column that is not numeric", agg.display(catalog));
                return Err(refused(view, ViewSite::Select(i), message));
            }
            items.push(match agg.func {
                AggFunc::Count => DataType::Int,
                AggFunc::Avg => DataType::Double,
                _ => arg.unwrap_or(DataType::Int),
            });
            arg_types.push(arg);
        }
        let extremum_only = aggs
            .iter()
            .map(|a| {
                regime == ChangeRegime::AppendOnly
                    && !a.distinct
                    && matches!(a.func, AggFunc::Min | AggFunc::Max)
            })
            .collect();
        let blank = GroupState {
            aggs: (aggs.iter().zip(&arg_types))
                .map(|(agg, arg)| state_kind(agg, *arg))
                .collect(),
            hidden_cnt: 0,
        };
        Ok(SummaryStore {
            select: view.select.clone(),
            aggs,
            arg_types,
            extremum_only,
            having: Filter::having(view, &items)?,
            groups: Groups::new(blank),
        })
    }

    /// Opens an undo scope: every mutation until [`Self::commit_undo`] or
    /// [`Self::rollback_undo`] journals its inverse so the store can be
    /// restored exactly.
    pub(crate) fn begin_undo(&mut self) {
        self.groups.begin();
    }

    /// Closes the undo scope, keeping all mutations.
    pub(crate) fn commit_undo(&mut self) {
        self.groups.commit();
    }

    /// Closes the undo scope, restoring the pre-transaction state. No-op
    /// without an open scope.
    pub(crate) fn rollback_undo(&mut self) {
        self.groups.rollback(&mut ());
    }

    /// Number of groups (rows of `V`).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` when `V` is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
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

    /// Per aggregate, its argument column's type (`None` for `COUNT(*)`):
    /// what its value counts are keyed by.
    pub(crate) fn arg_types(&self) -> &[Option<DataType>] {
        &self.arg_types
    }

    /// Applies a *run* of joined-tuple occurrences that all fold into the
    /// same group `key`, which the caller only lends, in one pass
    /// (`Groups::fold`). The run's weight is `net`, its occurrences'
    /// summed signed weight (`±1` for a source row, `±cnt₀` for a
    /// compressed root tuple), and `low`, the lowest their running sum
    /// falls to in order (0 or below): a run is refused where its
    /// occurrences one at a time would be — a retraction of a row the
    /// group does not hold yet, when the hidden count or a value count
    /// cannot take `low` — and otherwise moves them by `net`. `args` holds
    /// one [`RunArg`] per aggregate and moves once: a `SUM`/`AVG` merges a
    /// sum as given or adds a constant times the net weight (`a · cnt₀`), a
    /// `MIN`/`MAX`/`DISTINCT` moves the constant's count by it. Sums are
    /// exact, so the committed state is the one any order of the same
    /// occurrences would leave. On error the store is as it was.
    pub(crate) fn apply_run(
        &mut self,
        key: &dyn RowKey,
        net: i64,
        low: i64,
        args: &[RunArg<'_>],
    ) -> Result<()> {
        assert_eq!(args.len(), self.aggs.len(), "one argument per aggregate");
        let run = Run {
            aggs: &self.aggs,
            extremum_only: &self.extremum_only,
            key,
            weight: (net, low),
            args,
        };
        self.groups
            .fold(key, &mut (), |group, undo| run.fold_into(group, undo))
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
            if discriminant(&state_kind(agg, self.arg_types[i])) != discriminant(agg_state) {
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
            if Some(counts.data_type()) != self.arg_types[i] {
                return broken(format!(
                    "aggregate {i} counts {} values, not its column's",
                    counts.data_type()
                ));
            }
            let adds_up = match counts.total() {
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
        *self.groups == *other.groups
    }

    /// Installs a fully-computed group read from a snapshot image, outside
    /// any batch.
    pub(crate) fn install_group(&mut self, key: GroupKey, state: GroupState) -> Result<()> {
        self.groups.install(key, state, &mut ())
    }

    /// Emits the summary contents as output rows in select order (one per
    /// group, in no particular order), applying the view's `HAVING`
    /// filter.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.groups.len());
        for (key, state) in self.groups.iter() {
            let row = self.emit_row(key, state);
            if self.having.passes(row.values()) {
                out.push(row);
            }
        }
        out
    }

    /// [`Self::to_rows`] as a bag.
    pub(crate) fn to_bag(&self) -> Bag {
        Bag::from_rows(self.to_rows())
    }

    /// Emits the *unfiltered* contents (every maintained group, ignoring
    /// `HAVING`) — what the warehouse actually stores.
    pub fn to_bag_unfiltered(&self) -> Bag {
        Bag::from_rows(
            self.groups
                .iter()
                .map(|(key, state)| self.emit_row(key, state)),
        )
    }

    /// Renders one group as an output row.
    fn emit_row(&self, key: &GroupKey, state: &GroupState) -> Row {
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
                        AggState::Values(counts) => answer_from(agg.func, counts, arg_type),
                    };
                    values.push(v);
                    ai += 1;
                }
            }
        }
        Row::new(values)
    }

    /// Storage footprint of `V` in the paper's model.
    pub(crate) fn paper_bytes(&self) -> u64 {
        self.groups.len() as u64 * self.select.len() as u64 * Value::PAPER_FIELD_BYTES
    }

    /// The value counts as a relation `(G, a, COUNT(*))`, one per
    /// `MIN`/`MAX`/`DISTINCT` aggregate: its tuples, and their bytes in
    /// the paper's model. `None` for a view of CSMAS aggregates, which
    /// keeps none.
    pub(crate) fn value_count_footprint(&self) -> Option<(u64, u64)> {
        if !self.aggs.iter().any(counts_values) {
            return None;
        }
        let rows = self.groups.values().map(GroupState::counted_values);
        let rows = rows.sum::<usize>() as u64;
        let fields = (self.select.len() - self.aggs.len()) as u64 + 2;
        Some((rows, rows * fields * Value::PAPER_FIELD_BYTES))
    }
}

/// Whether `agg` is maintained from value counts: a `MIN`, a `MAX` and
/// every `DISTINCT` aggregate.
fn counts_values(agg: &Aggregate) -> bool {
    agg.distinct || matches!(agg.func, AggFunc::Min | AggFunc::Max)
}

/// The state `agg`, over an argument of type `arg`, is maintained in,
/// holding nothing yet.
fn state_kind(agg: &Aggregate, arg: Option<DataType>) -> AggState {
    match agg.func {
        _ if counts_values(agg) => AggState::Values(ValueCounts::new(arg.unwrap_or(DataType::Int))),
        AggFunc::Count => AggState::Count,
        _ => AggState::Sum(ExactSum::default()),
    }
}

/// Evaluates a `MIN`/`MAX`/`DISTINCT` aggregate over an argument of type
/// `arg_type` from the value counts of a group, which count a value of
/// each of its base rows.
fn answer_from(func: AggFunc, counts: &ValueCounts, arg_type: DataType) -> Value {
    let mut values = counts.iter().map(|(value, _)| value);
    let counted = "a group of V counts a value";
    match func {
        AggFunc::Count => Value::Int(counts.len() as i64),
        AggFunc::Min => values.next().expect(counted),
        AggFunc::Max => values.next_back().expect(counted),
        AggFunc::Sum | AggFunc::Avg => {
            let mut total = ExactSum::default();
            values.for_each(|v| total.add(&v, 1));
            match func {
                AggFunc::Avg => total.mean(counts.len() as u64),
                _ => total.emit(arg_type),
            }
        }
    }
}

/// The value of type `dtype` a word of [`Keyed::Words`] stands for.
fn value_of(dtype: DataType, word: u64) -> Value {
    from_order_word(dtype, word).expect("only numbers and booleans are counted under words")
}

/// The word `value` is counted under in [`Keyed::Words`] of `dtype`:
/// `None` for a value of another type.
fn word_of(dtype: DataType, value: &Value) -> Option<u64> {
    order_word(value).filter(|_| value.data_type() == dtype)
}

/// The refusal of `value` by aggregate `agg` of `group`, whose value
/// counts are keyed by `dtype`.
fn mistyped(group: &dyn RowKey, agg: usize, dtype: DataType, value: &Value) -> MaintainError {
    MaintainError::InvariantViolation(format!(
        "summary group {}: aggregate {agg} counts {dtype} values, not {value} ({})",
        group.to_row(),
        value.data_type()
    ))
}

/// Sets `key`'s count in `map`; zero removes the key.
fn set_count<K: Ord>(map: &mut BTreeMap<K, u64>, key: K, n: u64) {
    match map.entry(key) {
        Entry::Occupied(slot) if n == 0 => drop(slot.remove()),
        Entry::Occupied(mut slot) => *slot.get_mut() = n,
        Entry::Vacant(slot) if n > 0 => drop(slot.insert(n)),
        Entry::Vacant(_) => {}
    }
}

/// The sum of `map`'s counts; `None` past `u64` or at a zero count.
fn sum_of_counts<K>(map: &BTreeMap<K, u64>) -> Option<u64> {
    (map.values()).try_fold(0u64, |sum, &n| sum.checked_add(n).filter(|_| n > 0))
}

/// Takes the key farthest from the `func` extremum out of `map`, while
/// there is more than one: no deletion will ever ask an extremum-only
/// aggregate for its runner-up.
fn take_runner_up<K: Ord>(func: AggFunc, map: &mut BTreeMap<K, u64>) -> Option<(K, u64)> {
    if map.len() < 2 {
        return None;
    }
    match func {
        AggFunc::Min => map.pop_last(),
        _ => map.pop_first(),
    }
}

/// What a count of `prior` becomes when a run moves it by `delta` base
/// rows, the net of occurrences whose running sum falls to `low` on the
/// way: `Ok(None)` when it does not move, `Err(by)` for the move it
/// cannot take.
fn moved(prior: u64, (delta, low): (i64, i64)) -> Result<Option<u64>, i64> {
    // `low ≤ min(0, delta)`: a count that takes `low` cannot underflow at
    // `delta`.
    if prior.checked_add_signed(low).is_none() {
        return Err(low);
    }
    if delta == 0 {
        return Ok(None);
    }
    prior.checked_add_signed(delta).map(Some).ok_or(delta)
}

impl ValueCounts {
    /// No value counted, of an argument of type `dtype`.
    fn new(dtype: DataType) -> Self {
        ValueCounts(match dtype {
            DataType::Str => Keyed::Strs(BTreeMap::new()),
            dtype => Keyed::Words(dtype, BTreeMap::new()),
        })
    }

    /// The type of the values counted.
    fn data_type(&self) -> DataType {
        match &self.0 {
            Keyed::Words(dtype, _) => *dtype,
            Keyed::Strs(_) => DataType::Str,
        }
    }

    /// How many distinct values are counted.
    fn len(&self) -> usize {
        match &self.0 {
            Keyed::Words(_, map) => map.len(),
            Keyed::Strs(map) => map.len(),
        }
    }

    /// The sum of the counts; `None` past `u64` or at a zero count.
    fn total(&self) -> Option<u64> {
        match &self.0 {
            Keyed::Words(_, map) => sum_of_counts(map),
            Keyed::Strs(map) => sum_of_counts(map),
        }
    }

    /// How many times `value` is counted; `None` if it is not.
    fn count_of(&self, value: &Value) -> Option<u64> {
        match (&self.0, value) {
            (Keyed::Words(dtype, map), value) => map.get(&word_of(*dtype, value)?).copied(),
            (Keyed::Strs(map), Value::Str(s)) => map.get(s.as_str()).copied(),
            (Keyed::Strs(_), _) => None,
        }
    }

    /// Each value counted, with its count, in value order: a word decoded
    /// back to its value, a string cloned.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (Value, u64)> + '_ {
        let (words, strs) = match &self.0 {
            Keyed::Words(dtype, map) => (Some((*dtype, map)), None),
            Keyed::Strs(map) => (None, Some(map)),
        };
        let words = words.into_iter().flat_map(|(dtype, map)| {
            map.iter()
                .map(move |(&word, &n)| (value_of(dtype, word), n))
        });
        let strs = strs.into_iter().flatten();
        words.chain(strs.map(|(s, &n)| (Value::Str(s.clone()), n)))
    }

    /// Writes the counts as an image holds them: their number, then each
    /// value (as the change log spells it) and its count, in value order.
    /// A string is written from the map's own.
    pub(crate) fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.len() as u32);
        match &self.0 {
            Keyed::Words(dtype, map) => {
                for (&word, &n) in map {
                    e.put_value(&value_of(*dtype, word));
                    e.put_u64(n);
                }
            }
            Keyed::Strs(map) => {
                for (s, &n) in map {
                    e.put_str_value(s);
                    e.put_u64(n);
                }
            }
        }
    }

    /// Reads counts [`Self::encode`] wrote for aggregate `agg` of `group`,
    /// over an argument of type `dtype`. A value of another type is
    /// refused, naming the group and the aggregate, and so is one that
    /// does not strictly follow the value before it; the map is built
    /// once, from the ascending list.
    pub(crate) fn decode(
        d: &mut Decoder<'_>,
        dtype: DataType,
        group: &GroupKey,
        agg: usize,
    ) -> Result<Self> {
        // The length is untrusted; each entry consumes input, so a lying
        // prefix runs the decoder dry instead of allocating.
        let len = d.take_u32().map_err(MaintainError::from)?;
        let mut next = || -> Result<(Value, u64)> {
            let value = d.take_value().map_err(MaintainError::from)?;
            Ok((value, d.take_u64().map_err(MaintainError::from)?))
        };
        let unordered = |value: &Value| {
            MaintainError::InvariantViolation(format!(
                "corrupt snapshot: value counts out of key order at {value}"
            ))
        };
        Ok(ValueCounts(match dtype {
            DataType::Str => {
                let mut entries: Vec<(String, u64)> = Vec::new();
                for _ in 0..len {
                    let (value, n) = next()?;
                    let Value::Str(s) = value else {
                        return Err(mistyped(group, agg, dtype, &value));
                    };
                    if entries.last().is_some_and(|(last, _)| *last >= s) {
                        return Err(unordered(&Value::Str(s)));
                    }
                    entries.push((s, n));
                }
                Keyed::Strs(BTreeMap::from_iter(entries))
            }
            dtype => {
                let mut entries: Vec<(u64, u64)> = Vec::new();
                for _ in 0..len {
                    let (value, n) = next()?;
                    let Some(word) = word_of(dtype, &value) else {
                        return Err(mistyped(group, agg, dtype, &value));
                    };
                    if entries.last().is_some_and(|&(last, _)| last >= word) {
                        return Err(unordered(&value));
                    }
                    entries.push((word, n));
                }
                Keyed::Words(dtype, BTreeMap::from_iter(entries))
            }
        }))
    }

    /// Moves `value`'s count by a run's `weight`, `(delta, low)`, and
    /// pushes its inverse onto `undo`, inside an undo scope, as aggregate
    /// `agg`'s journal record; returns whether the count moved. A value of
    /// another type, or a move the count cannot take, is refused naming
    /// `group`, and changes nothing. A rebuild from `X` counts every root
    /// auxiliary tuple through here, outside a scope, so a word moves with
    /// one descent of the map (its entry), and a string, looked up
    /// borrowed, is cloned only into the map when it is new and into a
    /// journal record.
    fn shift(
        &mut self,
        group: &dyn RowKey,
        agg: usize,
        value: &Value,
        weight: (i64, i64),
        undo: Option<&mut Vec<Prior>>,
    ) -> Result<bool> {
        let refuse = |prior: u64| {
            move |by: i64| {
                MaintainError::InvariantViolation(format!(
                    "summary group {} counts {value} {prior} times under aggregate {agg}, \
                     cannot move that by {by}",
                    group.to_row()
                ))
            }
        };
        match (&mut self.0, value) {
            (Keyed::Words(dtype, map), value) => {
                let word =
                    word_of(*dtype, value).ok_or_else(|| mistyped(group, agg, *dtype, value))?;
                let slot = map.entry(word);
                let prior = match &slot {
                    Entry::Occupied(slot) => *slot.get(),
                    Entry::Vacant(_) => 0,
                };
                let Some(now) = moved(prior, weight).map_err(refuse(prior))? else {
                    return Ok(false);
                };
                match slot {
                    Entry::Occupied(slot) if now == 0 => drop(slot.remove()),
                    Entry::Occupied(mut slot) => *slot.get_mut() = now,
                    Entry::Vacant(slot) => drop(slot.insert(now)),
                }
                if let Some(undo) = undo {
                    undo.push(Prior::Word(agg, word, prior));
                }
                Ok(true)
            }
            (Keyed::Strs(map), Value::Str(s)) => {
                let slot = map.get_mut(s.as_str());
                let prior = slot.as_deref().copied().unwrap_or(0);
                let Some(now) = moved(prior, weight).map_err(refuse(prior))? else {
                    return Ok(false);
                };
                match slot {
                    Some(n) if now > 0 => *n = now,
                    Some(_) => drop(map.remove(s.as_str())),
                    None => drop(map.insert(s.clone(), now)),
                }
                if let Some(undo) = undo {
                    undo.push(Prior::Str(agg, s.clone(), prior));
                }
                Ok(true)
            }
            (Keyed::Strs(_), value) => Err(mistyped(group, agg, DataType::Str, value)),
        }
    }

    /// Takes the value farthest from the `func` extremum out, while more
    /// than one is counted, and returns its journal record as aggregate
    /// `agg`'s.
    fn pop_runner_up(&mut self, func: AggFunc, agg: usize) -> Option<Prior> {
        match &mut self.0 {
            Keyed::Words(_, map) => take_runner_up(func, map).map(|(w, n)| Prior::Word(agg, w, n)),
            Keyed::Strs(map) => take_runner_up(func, map).map(|(s, n)| Prior::Str(agg, s, n)),
        }
    }
}

/// One [`SummaryStore::apply_run`] call, unpacked.
struct Run<'a> {
    aggs: &'a [Aggregate],
    extremum_only: &'a [bool],
    key: &'a dyn RowKey,
    /// `(net, low)`.
    weight: (i64, i64),
    args: &'a [RunArg<'a>],
}

impl<'a> Run<'a> {
    /// Folds the run into `group` in place, journaling into `undo` each
    /// total before it moves and the inverse of every value-count
    /// mutation.
    fn fold_into(&self, group: &mut GroupState, mut undo: Option<&mut Vec<Prior>>) -> Result<()> {
        let violated = |what: String| Err(MaintainError::InvariantViolation(what));
        let (net, low) = self.weight;
        let hidden = group.hidden_cnt;
        let Some(now) = hidden
            .checked_add_signed(low)
            .and(hidden.checked_add_signed(net))
        else {
            return violated(match hidden {
                0 => format!("delete against absent summary group {}", self.key.to_row()),
                _ => format!(
                    "summary group {} holds {hidden} rows, cannot retract {}",
                    self.key.to_row(),
                    low.unsigned_abs()
                ),
            });
        };
        group.hidden_cnt = now;
        for (i, (state, arg)) in group.aggs.iter_mut().zip(self.args).enumerate() {
            match (state, arg) {
                (AggState::Count, _) => {}
                (AggState::Sum(total), RunArg::Summed(sum)) => {
                    if let Some(undo) = undo.as_deref_mut() {
                        undo.push(Prior::Total(i, total.clone()));
                    }
                    total.merge(sum);
                }
                (AggState::Sum(total), RunArg::Const(v)) => {
                    if let Some(undo) = undo.as_deref_mut() {
                        undo.push(Prior::Total(i, total.clone()));
                    }
                    total.add(v, net);
                }
                (AggState::Values(counts), RunArg::Const(v)) => {
                    self.count(counts, i, v, self.weight, undo.as_deref_mut())?;
                }
                (state, arg) => unreachable!("{state:?} takes no {arg:?}"),
            }
        }
        Ok(())
    }

    /// Moves the count of `value` under aggregate `agg` by `weight`, the
    /// run's `(net, low)`: a run is refused where its occurrences one at a
    /// time would be, when the count cannot take `low`.
    fn count(
        &self,
        counts: &mut ValueCounts,
        agg: usize,
        value: &Value,
        weight: (i64, i64),
        mut undo: Option<&mut Vec<Prior>>,
    ) -> Result<()> {
        if weight == (0, 0) || !counts.shift(self.key, agg, value, weight, undo.as_deref_mut())? {
            return Ok(());
        }
        if self.extremum_only[agg] {
            let func = self.aggs[agg].func;
            let popped = std::iter::from_fn(|| counts.pop_runner_up(func, agg));
            match undo {
                Some(undo) => undo.extend(popped),
                None => popped.for_each(drop),
            }
        }
        Ok(())
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
        let (records, _, undo) = self.groups.journal();
        let inverses = (undo.iter()).filter(|u| matches!(u, Prior::Word(..) | Prior::Str(..)));
        records + inverses.count()
    }
}

#[cfg(test)]
impl ValueCounts {
    /// `entries`, counted under an argument of type `dtype` as they are:
    /// a zero count included.
    pub(crate) fn of(dtype: DataType, entries: impl IntoIterator<Item = (Value, u64)>) -> Self {
        let mut counts = ValueCounts::new(dtype);
        for (value, n) in entries {
            let _ = match (&mut counts.0, value) {
                (Keyed::Strs(map), Value::Str(s)) => map.insert(s, n),
                (Keyed::Words(dtype, map), value) => {
                    map.insert(word_of(*dtype, &value).expect("a value of the type"), n)
                }
                (_, value) => panic!("{value} is not a string"),
            };
        }
        counts
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::groups::tests::{weigh, Grouped};
    use md_algebra::{ColRef, Condition, GpsjView};
    use md_relation::{row, Decoder, Encoder, Schema, TableId};

    /// A store for `SELECT g, <aggs> FROM t GROUP BY g` over
    /// `t(g INT, a DOUBLE)`, every aggregate over `t.a`.
    pub(crate) fn store_of(aggs: &[Aggregate], regime: ChangeRegime) -> SummaryStore {
        store_over(DataType::Double, aggs, regime)
    }

    /// [`store_of`] with `a` of type `dtype`.
    fn store_over(dtype: DataType, aggs: &[Aggregate], regime: ChangeRegime) -> SummaryStore {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("a", dtype)]);
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
        sum.add(&Value::Double(v), 1);
        sum
    }

    pub(crate) fn over(func: AggFunc) -> Aggregate {
        Aggregate::of(func, ColRef::new(TableId(0), 1))
    }

    pub(crate) fn distinct(func: AggFunc) -> Aggregate {
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
    pub(crate) fn args_of<'a>(
        s: &SummaryStore,
        v: &'a Value,
        sum: &'a ExactSum,
    ) -> Vec<RunArg<'a>> {
        let arg = |agg: &Aggregate| match agg.func {
            _ if counts_values(agg) => RunArg::Const(v),
            AggFunc::Count => RunArg::None,
            _ => RunArg::Summed(sum),
        };
        s.aggs.iter().map(arg).collect()
    }

    /// One occurrence carrying `v` for every aggregate, as a run of one:
    /// its sign, its signed sum and the value itself.
    fn apply_one(s: &mut SummaryStore, key: Row, sign: i64, v: impl Into<Value>) -> Result<()> {
        let v = v.into();
        let mut sum = ExactSum::default();
        sum.add(&v, sign);
        let args = args_of(s, &v, &sum);
        s.apply_run(&key, sign, sign.min(0), &args)
    }

    impl Grouped for SummaryStore {
        type State = GroupState;
        type Kept = ();

        fn parts(&self) -> (&Groups<GroupState>, &()) {
            (&self.groups, &())
        }

        fn parts_mut(&mut self) -> (&mut Groups<GroupState>, &mut ()) {
            // A box of nothing allocates nothing.
            (&mut self.groups, Box::leak(Box::new(())))
        }
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
        let bag = s.to_bag();
        assert_eq!(bag.count(&row![1, 2, 12.0, 7.0]), 1);
        assert_eq!(bag.count(&row![2, 1, 3.0, 3.0]), 1);
    }

    #[test]
    fn max_insert_fast_path() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![1], 1, 9.0).unwrap();
        let bag = s.to_bag();
        assert_eq!(bag.count(&row![1, 2, 14.0, 9.0]), 1);
    }

    #[test]
    fn delete_non_extremum_stays_fresh() {
        let mut s = store();
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        apply_one(&mut s, row![1], 1, 9.0).unwrap();
        apply_one(&mut s, row![1], -1, 5.0).unwrap();
        let bag = s.to_bag();
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
        assert_eq!(s.to_bag().count(&row![1, 2, 14.0, 9.0]), 1);
        // … the other goes: the next key answers, nothing is rescanned.
        apply_one(&mut s, row![1], -1, 9.0).unwrap();
        assert_eq!(s.to_bag().count(&row![1, 1, 5.0, 5.0]), 1);
        // A value the group does not count cannot be retracted.
        s.begin_undo();
        assert!(apply_one(&mut s, row![1], -1, 9.0).is_err());
        assert_eq!(s.to_bag().count(&row![1, 1, 5.0, 5.0]), 1);
        s.commit_undo();
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
    fn a_run_that_retracts_first_is_refused_on_an_absent_group() {
        // `[−1, +1]` nets nothing, but its retraction alone finds no row:
        // the hidden count of an absent group cannot take the run's low.
        let zero = ExactSum::default();
        let (net, low) = weigh([-1, 1]);
        let csmas = [Aggregate::count_star(), over(AggFunc::Sum)];
        let mut s = store_of(&csmas, ChangeRegime::General);
        let five = Value::Double(5.0);
        let err = s.apply_run(&row![1], net, low, &args_of(&s, &five, &zero));
        let err = err.unwrap_err().to_string();
        assert!(err.contains("delete against absent summary group"), "{err}");
        assert!(s.is_empty());
    }

    #[test]
    fn a_run_that_retracts_first_is_refused_on_a_value_not_counted() {
        // The group holds a row, so its hidden count takes `[−1, +1]`; the
        // count of a value it holds no row of does not.
        let zero = ExactSum::default();
        let (net, low) = weigh([-1, 1]);
        let mut s = store_of(&[over(AggFunc::Max)], ChangeRegime::General);
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        let before = s.clone();
        let nine = Value::Double(9.0);
        let err = s.apply_run(&row![1], net, low, &args_of(&s, &nine, &zero));
        let err = err.unwrap_err().to_string();
        assert!(
            err.contains("0 times under aggregate 0, cannot move that by -1"),
            "{err}"
        );
        assert!(s.same_groups(&before));
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
            sum.add(&price, sign);
            sum
        };
        let net = signed(signs.iter().sum());

        let mut whole = store_of(&aggs, ChangeRegime::General);
        let args = args_of(&whole, &price, &net);
        let (n, low) = weigh(signs);
        whole.apply_run(&row![1], n, low, &args).unwrap();
        let mut singles = store_of(&aggs, ChangeRegime::General);
        for sign in signs {
            let sum = signed(sign);
            let args = args_of(&singles, &price, &sum);
            singles
                .apply_run(&row![1], sign, sign.min(0), &args)
                .unwrap();
        }
        assert!(whole.same_groups(&singles));
        assert_eq!(whole.to_bag().count(&row![1, 7.5, 2.5, 1]), 1);
        let state = whole.group(&row![1]).unwrap();
        whole.check_group(&GroupKey::from(row![1]), state).unwrap();
        let thrice = AggState::Values(ValueCounts::of(DataType::Double, [(price.clone(), 3)]));
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
        net.add(&nine, -1);
        let args = args_of(&s, &nine, &net);
        let (n, low) = weigh([1, -1, -1]);
        s.begin_undo();
        let err = s.apply_run(&row![1], n, low, &args);
        assert!(err.is_err());
        assert!(s.same_groups(&before));
        assert_eq!(s.undo_weight(), 0, "a failed run leaves no record");
        s.rollback_undo();
        assert!(s.same_groups(&before));
        // Outside an undo scope the run is refused alike, and journals
        // nothing: the caller discards the store (a load, a rebuild).
        assert!(s.apply_run(&row![1], n, low, &args).is_err());
        assert_eq!(s.undo_weight(), 0, "a failed run leaves no record");
    }

    #[test]
    fn avg_emits_sum_over_hidden_count() {
        let mut s = store_of(&[over(AggFunc::Avg)], ChangeRegime::General);
        apply_one(&mut s, row![1], 1, 1.0).unwrap();
        apply_one(&mut s, row![1], 1, 2.0).unwrap();
        let bag = s.to_bag();
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
        let bag = s.to_bag();
        assert_eq!(bag.count(&row![1, 3, sum, sum / 3.0, 0.1]), 1);
        // The second 0.1 goes, the first stays counted.
        apply_one(&mut s, row![1], -1, 0.1).unwrap();
        assert_eq!(s.to_bag().count(&row![1, 3, sum, sum / 3.0, 0.1]), 1);
        apply_one(&mut s, row![1], -1, 0.1).unwrap();
        let sum = 0.2 + 0.3;
        assert_eq!(s.to_bag().count(&row![1, 2, sum, sum / 2.0, 0.2]), 1);
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
        let mut s = store_over(DataType::Int, &aggs, ChangeRegime::AppendOnly);
        for v in [5, 3, 9, 3, 4] {
            apply_one(&mut s, row![1], 1, v).unwrap();
        }
        assert_eq!(s.to_bag().count(&row![1, 3, 9, 4]), 1);
        let state = s.group(&row![1]).unwrap();
        let counted =
            |v: i64, n| AggState::Values(ValueCounts::of(DataType::Int, [(Value::Int(v), n)]));
        assert_eq!(state.aggs[0], counted(3, 2));
        assert_eq!(state.aggs[1], counted(9, 1));
        s.check_group(&GroupKey::from(row![1]), state).unwrap();
        assert_eq!(s.value_count_footprint(), Some((6, 6 * 3 * 4)));

        // A rollback puts dropped runners-up back where they were.
        let before = s.clone();
        s.begin_undo();
        apply_one(&mut s, row![1], 1, 1).unwrap();
        apply_one(&mut s, row![1], 1, 10).unwrap();
        assert_eq!(s.to_bag().count(&row![1, 1, 10, 6]), 1);
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
        assert_eq!(s.to_bag().count(&row![1, 10_000, 49_985_001.5, 9_998.0]), 1);
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
        s.apply_run(&row![2], -2, -2, &retracted).unwrap();
        assert!(s.group(&row![2]).is_none(), "drained");
        let moved = [RunArg::None, RunArg::Summed(&six), RunArg::Const(&three)];
        s.apply_run(&row![7], 2, 0, &moved).unwrap();
        s.apply_run(&row![1], 2, 0, &moved).unwrap();
        assert_eq!(s.to_bag().count(&row![1, 3, 11.0, 5.0]), 1);
        assert_eq!(s.to_bag().count(&row![7, 2, 6.0, 3.0]), 1);
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
                AggState::Values(ValueCounts::of(
                    DataType::Double,
                    counts.iter().map(|&(v, n)| (Value::Double(v), n)),
                )),
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
    fn check_group_refuses_counts_of_another_type() {
        // `MAX(a)` over a `DOUBLE`: counts of `INT`s or strings, however
        // well they add up, are no state a row of `t` can leave.
        let s = store();
        let group = |counts: ValueCounts| GroupState {
            aggs: [
                AggState::Count,
                AggState::Sum(sum_of(1.0)),
                AggState::Values(counts),
            ]
            .into_iter()
            .collect(),
            hidden_cnt: 3,
        };
        let key = GroupKey::from(row![1]);
        let doubles = ValueCounts::of(DataType::Double, [(Value::Double(5.0), 3)]);
        s.check_group(&key, &group(doubles)).unwrap();
        for (dtype, value) in [
            (DataType::Int, Value::Int(5)),
            (DataType::Str, Value::str("5")),
        ] {
            let err = (s.check_group(&key, &group(ValueCounts::of(dtype, [(value, 3)]))))
                .unwrap_err()
                .to_string();
            let named = format!("summary group (1): aggregate 2 counts {dtype} values");
            assert!(err.contains(&named), "{err}");
        }
        // A run cannot count one either.
        let mut s = store_of(&[over(AggFunc::Max)], ChangeRegime::General);
        apply_one(&mut s, row![1], 1, 5.0).unwrap();
        let (before, zero) = (s.clone(), ExactSum::default());
        s.begin_undo();
        for value in [Value::Int(5), Value::str("5")] {
            let args = args_of(&s, &value, &zero);
            let err = s.apply_run(&row![1], 1, 0, &args).unwrap_err().to_string();
            assert!(
                err.contains("summary group (1): aggregate 0 counts DOUBLE values"),
                "{err}"
            );
            assert!(s.same_groups(&before));
        }
        s.commit_undo();
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
