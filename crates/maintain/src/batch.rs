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
//! Every row a folded change can mention already lives in the input
//! slice, so the fold works on *slots* that borrow rows from it and clones
//! nothing until it knows something changed: a stream in which nothing
//! cancels comes back as the input itself ([`Cow::Borrowed`]). A pending
//! slot sits on exactly one LIFO stack — the producers of the row it
//! currently yields, or the plain deletes of the row it removed — or on
//! none once it has folded to a delete or vanished; so all stacks share
//! one `link` array (slot → the slot below it) and each map holds only a
//! stack's top. The maps are looked up and never iterated.

use std::borrow::Cow;

use md_relation::{Change, Row, SeededHashMap, TableId};

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

    /// The batch with every group coalesced (see the module docs). Groups
    /// keep their position even when they coalesce to nothing, so the
    /// batch's LSN and WAL footprint per table is unchanged.
    pub fn coalesced(&self) -> ChangeBatch {
        ChangeBatch {
            groups: self
                .groups
                .iter()
                .map(|(t, c)| (*t, coalesce_changes(c)))
                .collect(),
        }
    }
}

/// Coalesces one table's change stream to its net effect (bag semantics),
/// owned. See [`coalesce`].
pub fn coalesce_changes(changes: &[Change]) -> Vec<Change> {
    coalesce(changes).into_owned()
}

/// One pending position of the coalesced stream, borrowing its rows from
/// the input.
#[derive(Clone, Copy)]
enum Slot<'a> {
    Ins(&'a Row),
    Del(&'a Row),
    Upd(&'a Row, &'a Row),
    /// Cancelled: yields nothing.
    Gone,
}

/// "No slot": the bottom of a stack in `link`, an empty stack in a map.
const NONE: u32 = u32::MAX;

/// The top of each row's stack of pending slots.
type Tops<'a> = SeededHashMap<&'a Row, u32>;

fn push<'a>(tops: &mut Tops<'a>, link: &mut [u32], row: &'a Row, slot: usize) {
    let top = tops.entry(row).or_insert(NONE);
    link[slot] = *top;
    *top = slot as u32;
}

fn pop(tops: &mut Tops<'_>, link: &[u32], row: &Row) -> Option<usize> {
    let top = tops.get_mut(row).filter(|top| **top != NONE)?;
    let slot = *top as usize;
    *top = link[slot];
    Some(slot)
}

/// Coalesces one table's change stream to its net effect (bag semantics).
/// See the module docs for the rules; the output preserves the relative
/// order of the surviving changes. A stream in which nothing cancelled,
/// folded or was dropped is returned as it came, borrowed.
pub fn coalesce(changes: &[Change]) -> Cow<'_, [Change]> {
    assert!(
        changes.len() < NONE as usize,
        "a change group holds fewer than 2^32 changes"
    );
    // `slots` holds the surviving positions. `producers[r]` stacks the
    // slots whose net effect currently *produces* row r (an Ins(r) or an
    // Upd(_, r)); `pending_deletes[r]` stacks the plain deletes of r
    // awaiting a matching re-insert.
    let mut slots: Vec<Slot<'_>> = Vec::with_capacity(changes.len());
    let mut link: Vec<u32> = vec![NONE; changes.len()];
    // Most changes produce a row: sized so the fold never rehashes it.
    let mut producers = Tops::with_capacity_and_hasher(changes.len(), Default::default());
    let mut pending_deletes = Tops::default();
    let mut folded = false;

    for change in changes {
        match change {
            Change::Insert(row) => {
                if let Some(idx) = pop(&mut pending_deletes, &link, row) {
                    // Delete(r) … Insert(r): net no-op.
                    slots[idx] = Slot::Gone;
                    folded = true;
                } else {
                    slots.push(Slot::Ins(row));
                    push(&mut producers, &mut link, row, slots.len() - 1);
                }
            }
            Change::Delete(row) => {
                if let Some(idx) = pop(&mut producers, &link, row) {
                    slots[idx] = match slots[idx] {
                        // Insert(r) … Delete(r): annihilate.
                        Slot::Ins(_) => Slot::Gone,
                        // Update{a→r} … Delete(r): fold to Delete(a).
                        Slot::Upd(origin, _) => Slot::Del(origin),
                        Slot::Del(_) | Slot::Gone => unreachable!("not a producer"),
                    };
                    folded = true;
                } else {
                    slots.push(Slot::Del(row));
                    push(&mut pending_deletes, &mut link, row, slots.len() - 1);
                }
            }
            Change::Update { old, new } => {
                if old == new {
                    folded = true;
                    continue; // no-op update
                }
                if let Some(idx) = pop(&mut producers, &link, old) {
                    slots[idx] = match slots[idx] {
                        // Insert(a) … Update{a→b}: fold to Insert(b).
                        Slot::Ins(_) => Slot::Ins(new),
                        // Update{a→b} … Update{b→c}: fold to Update{a→c},
                        // vanishing when the chain closes on its origin.
                        Slot::Upd(origin, _) if origin == new => Slot::Gone,
                        Slot::Upd(origin, _) => Slot::Upd(origin, new),
                        Slot::Del(_) | Slot::Gone => unreachable!("not a producer"),
                    };
                    if !matches!(slots[idx], Slot::Gone) {
                        push(&mut producers, &mut link, new, idx);
                    }
                    folded = true;
                } else {
                    slots.push(Slot::Upd(old, new));
                    push(&mut producers, &mut link, new, slots.len() - 1);
                }
            }
        }
    }
    if !folded {
        return Cow::Borrowed(changes);
    }
    let survivors = slots.iter().filter_map(|slot| match *slot {
        Slot::Ins(row) => Some(Change::Insert(row.clone())),
        Slot::Del(row) => Some(Change::Delete(row.clone())),
        Slot::Upd(old, new) => Some(Change::Update {
            old: old.clone(),
            new: new.clone(),
        }),
        Slot::Gone => None,
    });
    Cow::Owned(survivors.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::{row, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The implementation [`coalesce`] replaced — owned rows as map keys,
    /// a `Vec` stack per distinct row — kept as the reference the
    /// borrowed one is held to, change for change and in order.
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

    /// Rows over a domain small enough that equal rows, closed update
    /// chains and interleaved duplicates turn up in every stream, with
    /// the values whose equality is by bit pattern: `0.0` vs `-0.0`, two
    /// NaN payloads.
    fn small_row() -> impl Strategy<Value = Row> {
        let cell = prop_oneof![
            (0..3i64).prop_map(Value::Int),
            (0..5usize).prop_map(|i| {
                let bits = [
                    0.0f64,
                    -0.0,
                    1.5,
                    f64::NAN,
                    f64::from_bits(0x7ff8_0000_0000_0001),
                ];
                Value::Double(bits[i])
            }),
            (0..3usize).prop_map(|i| Value::str(["", "a", "brand-é"][i])),
        ];
        proptest::collection::vec(cell, 1..3).prop_map(Row::new)
    }

    fn small_change() -> impl Strategy<Value = Change> {
        prop_oneof![
            small_row().prop_map(Change::Insert),
            small_row().prop_map(Change::Delete),
            (small_row(), small_row()).prop_map(|(old, new)| Change::Update { old, new }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: if cfg!(miri) { 8 } else { 512 } })]

        #[test]
        fn coalesce_equals_the_reference_change_for_change(
            stream in proptest::collection::vec(small_change(), 0..40)
        ) {
            let expected = reference_coalesce(&stream);
            let got = coalesce(&stream);
            prop_assert_eq!(got.as_ref(), expected.as_slice());
            // Borrowed exactly when the output is the input.
            prop_assert_eq!(matches!(got, Cow::Borrowed(_)), expected == stream);
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
            prop_assert_eq!(coalesce(&stream).into_owned(), reference_coalesce(&stream));
        }
    }

    #[test]
    fn a_stream_with_nothing_to_fold_is_returned_borrowed() {
        let mut stream = vec![ins(1), ins(1), del(2), upd(3, 4), upd(5, 6), del(7)];
        match coalesce(&stream) {
            Cow::Borrowed(same) => assert!(std::ptr::eq(same, stream.as_slice())),
            Cow::Owned(_) => panic!("nothing folded, yet the stream was cloned"),
        }
        assert!(matches!(coalesce(&[]), Cow::Borrowed(&[])));
        // One dropped no-op update is already a different stream.
        stream.push(upd(8, 8));
        let folded = coalesce(&stream);
        assert!(matches!(folded, Cow::Owned(_)));
        assert_eq!(folded.as_ref(), &stream[..stream.len() - 1]);
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
