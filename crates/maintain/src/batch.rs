//! Multi-table change batches and per-table change coalescing.
//!
//! A [`ChangeBatch`] is the unit of work the warehouse scheduler applies
//! atomically: an ordered set of per-table change groups, committed under
//! one WAL append point and one LSN per table. Before fan-out the
//! scheduler *coalesces* each group — cancelling inserts against their
//! deletes and folding update chains — so every maintenance engine
//! processes the net effect of the batch rather than its raw history.
//!
//! ## Coalescing rules
//!
//! Within one table's change stream (bag semantics):
//!
//! * `Insert(r)` … `Delete(r)` — the pair annihilates.
//! * `Delete(r)` … `Insert(r)` — the pair annihilates (net no-op).
//! * `Update{a→b}` … `Update{b→c}` — folds to `Update{a→c}`; a chain
//!   closing on its origin (`c == a`) vanishes.
//! * `Insert(r)` … `Update{r→s}` — folds to `Insert(s)`.
//! * `Update{a→b}` … `Delete(b)` — folds to `Delete(a)`.
//! * `Update{r→r}` — dropped outright.
//!
//! Matching is LIFO: a `Delete`/`Update` consumes the *latest* pending
//! producer of its old row, so interleaved histories of equal rows fold
//! pairwise. This is sound because the stores and the summary depend only
//! on the final multiset of rows, never on which duplicate a change is
//! attributed to: the coalesced group drives `{V} ∪ X` to the same state
//! as the raw group (asserted by the randomized equivalence test below).
//!
//! ## Data structure
//!
//! Every table of the paper's model has a single-attribute key that no
//! update changes (a key change arrives as a delete and an insert), so
//! the fold looks each change up by its rows' key value: one map from a
//! key value to an `Entry` holding one row's two LIFO stacks of pending
//! slots — the slots that currently *produce* the row, and its plain
//! deletes awaiting a re-insert. An insert, a delete and a key-preserving
//! update each cost one probe of that map and at most one row comparison
//! (two for an update that follows another of its key). An update that
//! does change the key — the door runs after coalescing, so one can still
//! arrive — takes its old key's entry and then its new key's. Once a key
//! has a second distinct row pending, its other rows' stacks go to an
//! overflow map keyed by the whole row, so no probe walks a chain of
//! rows. A row too short to hold the key column is keyed by all of its
//! values: equal rows still share a key, which is all the fold needs.
//!
//! A slot sits on at most one stack, so all stacks share one `link`
//! array (slot → the slot below it) and a map holds only a stack's top.
//! The maps are looked up and never iterated. Slots borrow their rows
//! from the input, and the survivors are lent on as [`ChangeRef`]s: the
//! fold clones no row. [`ChangeBatch::coalesced`] runs the same fold with
//! the whole row as the key.

use std::hash::{Hash, Hasher};

use md_relation::{Change, ChangeRef, Row, SeededHashMap, TableId, Value};

/// An ordered multi-table change batch — the single entry point of
/// `Warehouse::apply_batch`.
///
/// Changes pushed for the same table join that table's group; groups keep
/// the order in which their tables first appeared. A batch therefore
/// holds at most one group per table, and the whole batch commits
/// atomically: one LSN per table, one WAL append point, all-or-nothing
/// across every summary engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeBatch {
    groups: Vec<(TableId, Vec<Change>)>,
}

impl ChangeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding one table's changes (the legacy `apply` shape).
    pub fn single(table: TableId, changes: Vec<Change>) -> Self {
        ChangeBatch {
            groups: vec![(table, changes)],
        }
    }

    /// Appends one change to `table`'s group, creating the group (at the
    /// end of the batch) on first use.
    pub fn push(&mut self, table: TableId, change: Change) {
        self.group_mut(table).push(change);
    }

    /// Appends many changes to `table`'s group.
    pub fn extend(&mut self, table: TableId, changes: impl IntoIterator<Item = Change>) {
        self.group_mut(table).extend(changes);
    }

    fn group_mut(&mut self, table: TableId) -> &mut Vec<Change> {
        if let Some(pos) = self.groups.iter().position(|(t, _)| *t == table) {
            return &mut self.groups[pos].1;
        }
        self.groups.push((table, Vec::new()));
        &mut self.groups.last_mut().expect("just pushed").1
    }

    /// The per-table groups, in first-appearance order.
    pub fn groups(&self) -> &[(TableId, Vec<Change>)] {
        &self.groups
    }

    /// Total number of changes across all groups.
    pub fn change_count(&self) -> usize {
        self.groups.iter().map(|(_, c)| c.len()).sum()
    }

    /// The batch with every group coalesced (see the module docs), keyed
    /// by whole rows and owned. Groups keep their position even when they
    /// coalesce to nothing, so the batch's LSN and WAL footprint per table
    /// is unchanged.
    pub fn coalesced(&self) -> ChangeBatch {
        let owned = |c| coalesce(c, None).into_iter().map(ChangeRef::to_change);
        ChangeBatch {
            groups: (self.groups.iter())
                .map(|(t, c)| (*t, owned(c).collect()))
                .collect(),
        }
    }
}

/// "No slot": the bottom of a stack in `link`, an empty stack.
const NONE: u32 = u32::MAX;

/// The tops of one row's two stacks of pending slots.
#[derive(Clone, Copy)]
struct Stacks {
    /// The slots whose net effect currently produces the row: an insert
    /// of it, or an update to it.
    producers: u32,
    /// The plain deletes of the row, awaiting a re-insert.
    deletes: u32,
}

impl Stacks {
    const EMPTY: Stacks = Stacks {
        producers: NONE,
        deletes: NONE,
    };

    fn is_empty(&self) -> bool {
        self.producers == NONE && self.deletes == NONE
    }
}

/// One key value's pending slots: the stacks of `row`, held in the entry,
/// and whether another row of the key keeps its stacks in the overflow
/// map. While nothing is pending under the key and nothing overflowed,
/// the entry is free for any row of the key.
struct Entry<'a> {
    row: &'a Row,
    stacks: Stacks,
    overflow: bool,
}

/// A row as the overflow map holds it: compared by [`same`].
#[derive(Clone, Copy)]
struct Whole<'a>(&'a Row);

impl Hash for Whole<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for Whole<'_> {
    fn eq(&self, other: &Self) -> bool {
        same(self.0, other.0)
    }
}

impl Eq for Whole<'_> {}

/// Whether `a` and `b` are equal rows: the fold's one row comparison.
#[inline]
fn same(a: &Row, b: &Row) -> bool {
    #[cfg(test)]
    tests::COMPARISONS.with(|n| n.set(n.get() + 1));
    std::ptr::eq(a, b) || a == b
}

/// The entry of key value `key`, made (for `row`) on first use.
fn entry<'m, 'a>(
    keys: &'m mut SeededHashMap<&'a [Value], Entry<'a>>,
    key: &'a [Value],
    row: &'a Row,
) -> &'m mut Entry<'a> {
    keys.entry(key).or_insert(Entry {
        row,
        stacks: Stacks::EMPTY,
        overflow: false,
    })
}

/// Where the stacks of `row` are kept under `entry`: in the entry or in
/// the overflow map. With `make` they are made if the row has none,
/// taking the entry when it is free; without, a row with none has no
/// pending slot.
fn stacks<'m, 'a>(
    entry: &'m mut Entry<'a>,
    overflow: &'m mut SeededHashMap<Whole<'a>, Stacks>,
    row: &'a Row,
    make: bool,
) -> Option<&'m mut Stacks> {
    if !entry.overflow && entry.stacks.is_empty() {
        // Nothing pending under the key: the entry is free.
        if make {
            entry.row = row;
        }
        return make.then_some(&mut entry.stacks);
    }
    if same(entry.row, row) {
        return Some(&mut entry.stacks);
    }
    if make {
        entry.overflow = true;
        return Some(overflow.entry(Whole(row)).or_insert(Stacks::EMPTY));
    }
    overflow.get_mut(&Whole(row))
}

/// Pops the top of a stack, if it has one.
fn pop(top: &mut u32, link: &[u32]) -> Option<usize> {
    let slot = (*top != NONE).then_some(*top as usize)?;
    *top = link[slot];
    Some(slot)
}

/// Pushes `slot` onto a stack.
fn push(top: &mut u32, link: &mut [u32], slot: usize) {
    link[slot] = *top;
    *top = slot as u32;
}

/// Folds `Update{old→new}` into the slot of `old`'s latest producer
/// (`popped`) or, without one, opens a slot for it. Returns the slot that
/// now produces `new`: none when a chain closed on its origin.
fn updated<'a>(
    slots: &mut Vec<Option<ChangeRef<'a>>>,
    popped: Option<usize>,
    old: &'a Row,
    new: &'a Row,
) -> Option<usize> {
    let Some(idx) = popped else {
        slots.push(Some(ChangeRef::Update { old, new }));
        return Some(slots.len() - 1);
    };
    slots[idx] = match slots[idx] {
        // Insert(a) … Update{a→b}: fold to Insert(b).
        Some(ChangeRef::Insert(_)) => Some(ChangeRef::Insert(new)),
        // Update{a→b} … Update{b→c}: fold to Update{a→c}, vanishing when
        // the chain closes on its origin.
        Some(ChangeRef::Update { old: origin, .. }) if same(origin, new) => None,
        Some(ChangeRef::Update { old: origin, .. }) => Some(ChangeRef::Update { old: origin, new }),
        _ => unreachable!("not a producer"),
    };
    slots[idx].map(|_| idx)
}

/// Coalesces one table's change stream to its net effect (bag semantics),
/// looking rows up by column `key_col` — the table's key — or, with
/// `None`, by the whole row; the survivors are the same either way. See
/// the module docs for the rules. The survivors keep their relative order
/// and borrow their rows from `changes`; a stream in which nothing
/// cancelled, folded or was dropped comes back change for change, as
/// many survivors as changes.
pub fn coalesce(changes: &[Change], key_col: Option<usize>) -> Vec<ChangeRef<'_>> {
    assert!(
        changes.len() < NONE as usize,
        "a change group holds fewer than 2^32 changes"
    );
    // The value a row is looked up by: its key column's, or all of its
    // values (the whole-row key, or a row too short to hold the column).
    fn key_of(row: &Row, key_col: Option<usize>) -> &[Value] {
        let values = row.values();
        match key_col {
            Some(k) => values.get(k..=k).unwrap_or(values),
            None => values,
        }
    }
    let key = |row| key_of(row, key_col);
    let mut slots: Vec<Option<ChangeRef<'_>>> = Vec::with_capacity(changes.len());
    let mut link = vec![NONE; changes.len()];
    // Sized so the fold never rehashes it.
    let mut keys = SeededHashMap::with_capacity_and_hasher(changes.len(), Default::default());
    let mut overflow = SeededHashMap::default();

    for change in changes {
        match change {
            Change::Insert(row) => {
                let entry = entry(&mut keys, key(row), row);
                let top = stacks(entry, &mut overflow, row, true).expect("made");
                if let Some(idx) = pop(&mut top.deletes, &link) {
                    // Delete(r) … Insert(r): net no-op.
                    slots[idx] = None;
                } else {
                    push(&mut top.producers, &mut link, slots.len());
                    slots.push(Some(ChangeRef::Insert(row)));
                }
            }
            Change::Delete(row) => {
                let entry = entry(&mut keys, key(row), row);
                let top = stacks(entry, &mut overflow, row, true).expect("made");
                if let Some(idx) = pop(&mut top.producers, &link) {
                    slots[idx] = match slots[idx] {
                        // Insert(r) … Delete(r): annihilate.
                        Some(ChangeRef::Insert(_)) => None,
                        // Update{a→r} … Delete(r): fold to Delete(a).
                        Some(ChangeRef::Update { old: origin, .. }) => {
                            Some(ChangeRef::Delete(origin))
                        }
                        _ => unreachable!("not a producer"),
                    };
                } else {
                    push(&mut top.deletes, &mut link, slots.len());
                    slots.push(Some(ChangeRef::Delete(row)));
                }
            }
            Change::Update { old, new } => {
                let (from, to) = (key(old), key(new));
                if from == to && same(old, new) {
                    continue; // no-op update
                }
                // The old row's latest producer, then the new row's
                // place: under one entry when the update keeps the key.
                if from == to {
                    let entry = entry(&mut keys, to, new);
                    let found = stacks(entry, &mut overflow, old, false);
                    let popped = found.and_then(|top| pop(&mut top.producers, &link));
                    let Some(slot) = updated(&mut slots, popped, old, new) else {
                        continue;
                    };
                    let top = stacks(entry, &mut overflow, new, true).expect("made");
                    push(&mut top.producers, &mut link, slot);
                } else {
                    let found =
                        (keys.get_mut(from)).and_then(|e| stacks(e, &mut overflow, old, false));
                    let popped = found.and_then(|top| pop(&mut top.producers, &link));
                    let Some(slot) = updated(&mut slots, popped, old, new) else {
                        continue;
                    };
                    let entry = entry(&mut keys, to, new);
                    let top = stacks(entry, &mut overflow, new, true).expect("made");
                    push(&mut top.producers, &mut link, slot);
                }
            }
        }
    }
    // The survivors take the slots' place, collected in place.
    slots.retain(Option::is_some);
    slots.into_iter().map(|slot| slot.expect("kept")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::row;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashMap;

    thread_local! {
        /// Row comparisons the fold made on this thread ([`same`]).
        pub(super) static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The first implementation of [`coalesce`] — owned rows as map
    /// keys, a `Vec` stack per distinct row, no key column — kept as the
    /// reference the keyed fold is held to, change for change and in
    /// order.
    fn reference_coalesce(changes: &[Change]) -> Vec<Change> {
        let mut out: Vec<Option<Change>> = Vec::with_capacity(changes.len());
        let mut producers: HashMap<Row, Vec<usize>> = HashMap::new();
        let mut pending_deletes: HashMap<Row, Vec<usize>> = HashMap::new();

        fn pop(map: &mut HashMap<Row, Vec<usize>>, row: &Row) -> Option<usize> {
            let stack = map.get_mut(row)?;
            let idx = stack.pop();
            if stack.is_empty() {
                map.remove(row);
            }
            idx
        }

        for change in changes {
            match change {
                Change::Insert(row) => {
                    if let Some(idx) = pop(&mut pending_deletes, row) {
                        out[idx] = None;
                    } else {
                        out.push(Some(change.clone()));
                        producers
                            .entry(row.clone())
                            .or_default()
                            .push(out.len() - 1);
                    }
                }
                Change::Delete(row) => {
                    if let Some(idx) = pop(&mut producers, row) {
                        match out[idx].take() {
                            Some(Change::Insert(_)) => {}
                            Some(Change::Update { old, .. }) => {
                                out[idx] = Some(Change::Delete(old));
                            }
                            other => unreachable!("producer index held {other:?}"),
                        }
                    } else {
                        out.push(Some(change.clone()));
                        pending_deletes
                            .entry(row.clone())
                            .or_default()
                            .push(out.len() - 1);
                    }
                }
                Change::Update { old, new } => {
                    if old == new {
                        continue;
                    }
                    if let Some(idx) = pop(&mut producers, old) {
                        match out[idx].take() {
                            Some(Change::Insert(_)) => {
                                out[idx] = Some(Change::Insert(new.clone()));
                                producers.entry(new.clone()).or_default().push(idx);
                            }
                            Some(Change::Update { old: origin, .. }) => {
                                if origin != *new {
                                    out[idx] = Some(Change::Update {
                                        old: origin,
                                        new: new.clone(),
                                    });
                                    producers.entry(new.clone()).or_default().push(idx);
                                }
                            }
                            other => unreachable!("producer index held {other:?}"),
                        }
                    } else {
                        out.push(Some(change.clone()));
                        producers
                            .entry(new.clone())
                            .or_default()
                            .push(out.len() - 1);
                    }
                }
            }
        }
        out.into_iter().flatten().collect()
    }

    /// The survivors of `changes` owned, looked up by column 0 (the
    /// key of the single-column rows the unit tests use).
    fn coalesce_changes(changes: &[Change]) -> Vec<Change> {
        let survivors = coalesce(changes, Some(0));
        survivors.into_iter().map(ChangeRef::to_change).collect()
    }

    /// Whether `survivors` are `changes` themselves, row for row: what the
    /// fold returns when nothing cancelled, folded or was dropped.
    fn unchanged(survivors: &[ChangeRef<'_>], changes: &[Change]) -> bool {
        survivors.len() == changes.len()
            && survivors.iter().zip(changes).all(|(lent, change)| {
                let (lent, own) = (lent.as_delete_insert(), change.as_delete_insert());
                let is = |a: Option<&Row>, b: Option<&Row>| match (a, b) {
                    (Some(a), Some(b)) => std::ptr::eq(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                };
                is(lent.0, own.0) && is(lent.1, own.1)
            })
    }

    /// A value of a domain small enough that equal rows, closed update
    /// chains and interleaved duplicates turn up in every stream, with
    /// the values whose equality is by bit pattern: `0.0` vs `-0.0`, two
    /// NaN payloads of each sign.
    fn small_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0..3i64).prop_map(Value::Int),
            (0..7usize).prop_map(|i| {
                let bits = [
                    0.0f64,
                    -0.0,
                    1.5,
                    f64::NAN,
                    f64::from_bits(0x7ff8_0000_0000_0001),
                    -f64::NAN,
                    f64::from_bits(0xfff8_0000_0000_0001),
                ];
                Value::Double(bits[i])
            }),
            (0..3usize).prop_map(|i| Value::str(["", "a", "brand-é"][i])),
        ]
    }

    /// Rows of up to three values, keyed by column 1 ([`KEY`]): a row of
    /// one value or none is too short to hold the key, and distinct rows
    /// share a key.
    fn small_row() -> impl Strategy<Value = Row> {
        proptest::collection::vec(small_value(), 0..4).prop_map(Row::new)
    }

    /// The key column of [`small_row`]'s rows.
    const KEY: usize = 1;

    /// An insert, a delete, an update to any row (which may move the
    /// key), or an update that keeps the key and changes column 2.
    fn small_change() -> impl Strategy<Value = Change> {
        prop_oneof![
            small_row().prop_map(Change::Insert),
            small_row().prop_map(Change::Delete),
            (small_row(), small_row()).prop_map(|(old, new)| Change::Update { old, new }),
            (small_row(), small_value()).prop_map(|(old, value)| {
                let mut values = old.values().to_vec();
                if let Some(v) = values.get_mut(KEY + 1) {
                    *v = value;
                }
                Change::Update {
                    old,
                    new: Row::new(values),
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: if cfg!(miri) { 8 } else { 512 } })]

        #[test]
        fn coalesce_equals_the_reference_change_for_change(
            stream in proptest::collection::vec(small_change(), 0..40)
        ) {
            let expected = reference_coalesce(&stream);
            let keyed = coalesce(&stream, Some(KEY));
            prop_assert_eq!(&keyed, &expected);
            // The input itself exactly when the output is the input.
            prop_assert_eq!(unchanged(&keyed, &stream), expected == stream);
            // The whole row as the key: the same fold, the same survivors.
            let whole = coalesce(&stream, None);
            prop_assert_eq!(&whole, &keyed);
            prop_assert_eq!(unchanged(&whole, &stream), expected == stream);
        }

        /// Single-column rows from a three-value domain: the densest
        /// stacks, where LIFO attribution decides the survivors' order.
        #[test]
        fn coalesce_equals_the_reference_on_dense_duplicates(
            ops in proptest::collection::vec((0..3u8, 0..3i64, 0..3i64), 0..60)
        ) {
            let stream: Vec<Change> = ops
                .into_iter()
                .map(|(kind, a, b)| match kind {
                    0 => ins(a),
                    1 => del(a),
                    _ => upd(a, b),
                })
                .collect();
            prop_assert_eq!(coalesce_changes(&stream), reference_coalesce(&stream));
            prop_assert_eq!(coalesce(&stream, None), coalesce(&stream, Some(0)));
        }
    }

    #[test]
    fn a_stream_with_nothing_to_fold_is_returned_borrowed() {
        let mut stream = vec![ins(1), ins(1), del(2), upd(3, 4), upd(5, 6), del(7)];
        assert!(unchanged(&coalesce(&stream, Some(0)), &stream));
        assert!(coalesce(&[], Some(0)).is_empty());
        // One dropped no-op update is already a different stream.
        stream.push(upd(8, 8));
        let folded = coalesce(&stream, Some(0));
        assert!(!unchanged(&folded, &stream));
        assert!(unchanged(&folded, &stream[..stream.len() - 1]));
    }

    /// `n` distinct rows under one key value, as the fold sees them.
    fn one_key(n: i64) -> Vec<Row> {
        (0..n).map(|i| row![0, i]).collect()
    }

    /// Row comparisons `coalesce` makes on `changes`, keyed by column 0,
    /// with its survivors.
    fn comparisons(changes: &[Change]) -> (u64, usize) {
        COMPARISONS.with(|n| n.set(0));
        let survivors = coalesce(changes, Some(0)).len();
        (COMPARISONS.with(Cell::get), survivors)
    }

    /// A key with many distinct rows pending is looked up through the
    /// overflow map, never by walking its rows: a per-key stack scan
    /// would compare each delete with every row still pending, ≈ n²/2
    /// comparisons (2·10⁸ for n = 20 000).
    #[test]
    fn many_rows_under_one_key_take_linear_comparisons() {
        let n = if cfg!(miri) { 200 } else { 20_000 };
        let rows = one_key(n);
        let inserts = rows.iter().map(|r| Change::Insert(r.clone()));
        let deletes = rows.iter().map(|r| Change::Delete(r.clone()));
        let stream: Vec<Change> = inserts.chain(deletes).collect();
        let (made, survivors) = comparisons(&stream);
        assert_eq!(survivors, 0);
        assert!(made <= 4 * n as u64, "{made} row comparisons for {n} rows");

        // Interleaved: each insert followed by the delete of the row
        // inserted before it, so one row of the key is always pending
        // beside the newest.
        let mut stream = vec![Change::Insert(rows[0].clone())];
        for pair in rows.windows(2) {
            stream.push(Change::Insert(pair[1].clone()));
            stream.push(Change::Delete(pair[0].clone()));
        }
        let (made, survivors) = comparisons(&stream);
        assert_eq!(survivors, 1);
        assert!(made <= 4 * n as u64, "{made} row comparisons for {n} rows");
    }

    /// A key-changing update leaves its old key's producer and joins the
    /// new key's stacks: the chain folds across keys.
    #[test]
    fn a_key_changing_update_folds_across_keys() {
        let (a, b, c) = (row![1, "a"], row![2, "a"], row![2, "b"]);
        let moved = |old: &Row, new: &Row| Change::Update {
            old: old.clone(),
            new: new.clone(),
        };
        let stream = [Change::Insert(a.clone()), moved(&a, &b), moved(&b, &c)];
        assert_eq!(coalesce(&stream, Some(0)), [Change::Insert(c.clone())]);
        let stream = [moved(&a, &b), Change::Delete(b.clone())];
        assert_eq!(coalesce(&stream, Some(0)), [Change::Delete(a.clone())]);
        let stream = [moved(&a, &b), moved(&b, &a)];
        assert!(coalesce(&stream, Some(0)).is_empty());
        for stream in [&stream[..], &[moved(&a, &b), moved(&b, &c)]] {
            assert_eq!(coalesce_changes(stream), reference_coalesce(stream));
        }
    }

    #[test]
    fn folded_deletes_do_not_meet_later_inserts() {
        // Update{1→2} … Delete(2) folds to Delete(1), which is not a
        // *plain* delete: a later Insert(1) stays beside it.
        let stream = [upd(1, 2), del(2), ins(1)];
        assert_eq!(coalesce_changes(&stream), vec![del(1), ins(1)]);
        assert_eq!(coalesce_changes(&stream), reference_coalesce(&stream));
    }

    fn ins(v: i64) -> Change {
        Change::Insert(row![v])
    }
    fn del(v: i64) -> Change {
        Change::Delete(row![v])
    }
    fn upd(a: i64, b: i64) -> Change {
        Change::Update {
            old: row![a],
            new: row![b],
        }
    }

    #[test]
    fn batch_groups_changes_per_table_in_first_appearance_order() {
        let mut batch = ChangeBatch::new();
        batch.push(TableId(2), ins(1));
        batch.push(TableId(0), ins(2));
        batch.push(TableId(2), ins(3));
        batch.extend(TableId(1), [ins(4), del(5)]);
        let tables: Vec<TableId> = batch.groups().iter().map(|(t, _)| *t).collect();
        assert_eq!(tables, vec![TableId(2), TableId(0), TableId(1)]);
        assert_eq!(batch.groups()[0].1, vec![ins(1), ins(3)]);
        assert_eq!(batch.change_count(), 5);
        assert!(!batch.groups().is_empty());
        assert!(ChangeBatch::new().groups().is_empty());
    }

    #[test]
    fn empty_groups_survive_coalescing() {
        let batch = ChangeBatch::single(TableId(0), vec![ins(1), del(1)]);
        let coalesced = batch.coalesced();
        assert_eq!(coalesced.groups().len(), 1);
        assert!(coalesced.groups()[0].1.is_empty());
        assert!(!coalesced.groups().is_empty());
    }

    #[test]
    fn insert_delete_pairs_annihilate_both_ways() {
        assert_eq!(coalesce_changes(&[ins(1), del(1)]), vec![]);
        assert_eq!(coalesce_changes(&[del(1), ins(1)]), vec![]);
        assert_eq!(
            coalesce_changes(&[ins(1), ins(1), del(1)]),
            vec![ins(1)],
            "bag semantics: one copy survives"
        );
        assert_eq!(coalesce_changes(&[del(1), del(1), ins(1)]), vec![del(1)]);
    }

    #[test]
    fn update_chains_fold() {
        assert_eq!(coalesce_changes(&[upd(1, 2), upd(2, 3)]), vec![upd(1, 3)]);
        assert_eq!(coalesce_changes(&[upd(1, 2), upd(2, 1)]), vec![]);
        assert_eq!(coalesce_changes(&[ins(1), upd(1, 2)]), vec![ins(2)]);
        assert_eq!(coalesce_changes(&[upd(1, 2), del(2)]), vec![del(1)]);
        assert_eq!(coalesce_changes(&[ins(1), upd(1, 2), del(2)]), vec![]);
        assert_eq!(coalesce_changes(&[upd(1, 1)]), vec![]);
    }

    #[test]
    fn unrelated_changes_keep_their_order() {
        let stream = [ins(1), del(2), upd(3, 4)];
        assert_eq!(coalesce_changes(&stream), stream.to_vec());
    }

    #[test]
    fn lifo_matching_folds_interleaved_duplicates() {
        // The delete consumes the *latest* producer of row 2: the insert,
        // not the update chain.
        assert_eq!(
            coalesce_changes(&[upd(1, 2), ins(2), del(2)]),
            vec![upd(1, 2)]
        );
    }

    /// Randomized equivalence oracle: applying the coalesced stream to a
    /// multiset reaches exactly the state of applying the raw stream, and
    /// never drives any row's count negative when the raw stream didn't.
    #[test]
    fn coalescing_preserves_multiset_state() {
        use std::collections::BTreeMap;

        fn apply(state: &mut BTreeMap<i64, i64>, changes: &[Change]) {
            for c in changes {
                let (old, new) = c.as_delete_insert();
                if let Some(r) = old {
                    *state.entry(r[0].as_int().unwrap()).or_insert(0) -= 1;
                }
                if let Some(r) = new {
                    *state.entry(r[0].as_int().unwrap()).or_insert(0) += 1;
                }
            }
            state.retain(|_, n| *n != 0);
        }

        // Deterministic LCG so the test needs no external entropy.
        let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };

        for _case in 0..200 {
            // Start from a small populated bag so deletes and updates of
            // pre-existing rows are exercised too.
            let mut live: Vec<i64> = (0..4).map(|_| (rng() % 5) as i64).collect();
            let mut baseline: BTreeMap<i64, i64> = BTreeMap::new();
            for v in &live {
                *baseline.entry(*v).or_insert(0) += 1;
            }
            let mut stream = Vec::new();
            for _ in 0..12 {
                match rng() % 3 {
                    0 => {
                        let v = (rng() % 5) as i64;
                        live.push(v);
                        stream.push(ins(v));
                    }
                    1 if !live.is_empty() => {
                        let v = live.swap_remove(rng() % live.len());
                        stream.push(del(v));
                    }
                    _ if !live.is_empty() => {
                        let i = rng() % live.len();
                        let old = live[i];
                        let new = (rng() % 5) as i64;
                        live[i] = new;
                        stream.push(upd(old, new));
                    }
                    _ => {}
                }
            }

            let coalesced = coalesce_changes(&stream);
            assert!(coalesced.len() <= stream.len());
            let mut raw_state = baseline.clone();
            apply(&mut raw_state, &stream);
            let mut coalesced_state = baseline.clone();
            apply(&mut coalesced_state, &coalesced);
            assert_eq!(
                raw_state, coalesced_state,
                "stream {stream:?} vs coalesced {coalesced:?}"
            );
        }
    }
}
