//! The grouped, journaled map both kinds of store are made of.
//!
//! Algorithm 3.1 makes each auxiliary view `X_i` a GPSJ view itself
//! (grouped, with `COUNT(*)` and `SUM`s), and `V` is one too. So an
//! [`AuxStore`](crate::AuxStore) and a [`SummaryStore`](crate::SummaryStore)
//! hold their groups in one [`Groups`]: a seeded map from each group's key
//! to its state, both in the bucket (a [`GroupKey`] holds one or two
//! values in place, and `Sums` and `AggStates` one and two states: the
//! shapes of the benchmark workloads' many-group views), and the undo
//! journal of the open batch — per run the group key, its prior count and
//! its state's own undo pieces, in flat buffers that keep their capacity
//! from batch to batch. A rollback replays the runs newest first, so each
//! restores only what it overwrote. What a store keeps beside its groups
//! follows each creation and removal through its [`Upkeep`].

use std::fmt;
use std::ops::Deref;
use std::vec::Drain;

use md_relation::{GroupKey, RowKey, SeededHashMap, Value};

use crate::error::Result;

/// A group's state, as the map that holds it sees it.
pub(crate) trait Counted: Clone {
    /// One piece of a prior state, as the journal keeps it.
    type Undo: Clone + fmt::Debug;

    /// How many base rows the group stands for; 0 is no group.
    fn count(&self) -> u64;

    /// Puts back `count`, and each piece a fold journaled before it
    /// overwrote it (given oldest first).
    fn restore(&mut self, count: u64, undo: Drain<'_, Self::Undo>);
}

/// What a store keeps beside its groups, written only when one comes or
/// goes: by a fold, a rollback and an install alike.
pub(crate) trait Upkeep {
    /// Group `key` is about to be created; an error refuses it.
    fn created(&mut self, key: &GroupKey) -> Result<()>;

    /// Group `key` has been removed.
    fn removed(&mut self, key: &dyn RowKey);
}

impl Upkeep for () {
    fn created(&mut self, _: &GroupKey) -> Result<()> {
        Ok(())
    }

    fn removed(&mut self, _: &dyn RowKey) {}
}

/// The inverse of one run: where its key and its undo pieces start in the
/// journal's buffers, and the group's count before the run (`None`: it did
/// not exist, and the record holds its key alone).
#[derive(Debug, Clone)]
struct Record {
    key_at: usize,
    undo_at: usize,
    prior: Option<u64>,
}

/// The records of the open undo scope, oldest first, and the flat
/// buffers they index.
#[derive(Debug, Clone)]
struct Journal<U> {
    records: Vec<Record>,
    keys: Vec<Value>,
    undo: Vec<U>,
}

/// A store's groups and the undo journal of the open batch.
#[derive(Debug, Clone)]
pub(crate) struct Groups<S: Counted> {
    map: SeededHashMap<GroupKey, S>,
    /// A group no row has reached: what a created group folds into, and
    /// a removed one is put back into on rollback.
    blank: S,
    /// Whether an undo scope is open: runs are journaled.
    scope: bool,
    journal: Journal<S::Undo>,
}

impl<S: Counted> Groups<S> {
    pub(crate) fn new(blank: S) -> Self {
        Groups {
            map: SeededHashMap::default(),
            blank,
            scope: false,
            journal: Journal {
                records: Vec::new(),
                keys: Vec::new(),
                undo: Vec::new(),
            },
        }
    }

    /// Opens an undo scope: every run until [`Self::commit`] or
    /// [`Self::rollback`] is journaled.
    pub(crate) fn begin(&mut self) {
        self.commit();
        self.scope = true;
    }

    /// Closes the undo scope, keeping every run; the journal keeps its
    /// buffers.
    pub(crate) fn commit(&mut self) {
        self.journal.records.clear();
        self.journal.keys.clear();
        self.journal.undo.clear();
        self.scope = false;
    }

    /// Closes the undo scope, putting every touched group — and, through
    /// `upkeep`, what the store keeps beside them — back as it was. No-op
    /// without an open scope.
    pub(crate) fn rollback(&mut self, upkeep: &mut impl Upkeep) {
        let journal = &mut self.journal;
        for record in journal.records.drain(..).rev() {
            let key = &journal.keys[record.key_at..];
            match record.prior {
                None => {
                    self.map.remove(&key as &dyn RowKey);
                    upkeep.removed(&key);
                }
                Some(count) => {
                    let prior = journal.undo.drain(record.undo_at..);
                    if let Some(state) = self.map.get_mut(&key as &dyn RowKey) {
                        state.restore(count, prior);
                    } else {
                        // Every later run is undone, so its key is free.
                        let mut state = self.blank.clone();
                        state.restore(count, prior);
                        let key = GroupKey::of(&key);
                        upkeep.created(&key).expect("a removed group's key is free");
                        self.map.insert(key, state);
                    }
                }
            }
            journal.keys.truncate(record.key_at);
        }
        self.scope = false;
    }

    /// Makes room for `groups` more groups, so a fill never regrows.
    pub(crate) fn reserve(&mut self, groups: usize) {
        self.map.reserve(groups);
    }

    /// Folds one run into group `key`, probed once under a key the caller
    /// only lends: `fold` moves the state in place, journaling each piece
    /// but the count just before it overwrites it. A group left at count 0
    /// is removed; a group is created — its key becoming a [`GroupKey`],
    /// and `upkeep` may refuse it — only when left non-empty. On error
    /// nothing has changed.
    pub(crate) fn fold(
        &mut self,
        key: &dyn RowKey,
        upkeep: &mut impl Upkeep,
        fold: impl FnOnce(&mut S, &mut Vec<S::Undo>) -> Result<()>,
    ) -> Result<()> {
        let undo = &mut self.journal.undo;
        let undo_at = undo.len();
        let prior = match self.map.get_mut(key) {
            Some(state) => {
                let prior = state.count();
                if let Err(e) = fold(state, undo) {
                    state.restore(prior, undo.drain(undo_at..));
                    return Err(e);
                }
                if state.count() == 0 {
                    self.map.remove(key);
                    upkeep.removed(key);
                }
                Some(prior)
            }
            None => {
                let mut state = self.blank.clone();
                let folded = fold(&mut state, undo);
                // Undoing a creation takes the group out whole.
                undo.truncate(undo_at);
                folded?;
                if state.count() == 0 {
                    return Ok(()); // it came and went within the run
                }
                let key = GroupKey::of(key);
                upkeep.created(&key)?;
                self.map.insert(key, state);
                None
            }
        };
        if self.scope {
            let journal = &mut self.journal;
            let key_at = journal.keys.len();
            journal.records.push(Record {
                key_at,
                undo_at,
                prior,
            });
            journal
                .keys
                .extend((0..key.arity()).map(|i| key.value(i).clone()));
        } else {
            undo.truncate(undo_at);
        }
        Ok(())
    }

    /// Installs a group read from a snapshot image, outside any batch.
    pub(crate) fn install(
        &mut self,
        key: GroupKey,
        state: S,
        upkeep: &mut impl Upkeep,
    ) -> Result<()> {
        debug_assert!(!self.scope, "an image is installed outside any batch");
        upkeep.created(&key)?;
        self.map.insert(key, state);
        Ok(())
    }
}

/// Reads and writes a bucket's small vector — a newtype over an enum
/// each of whose variants holds the items in place or in a boxed slice —
/// as a slice, and prints it as a list.
macro_rules! as_slice {
    ($vec:ident($repr:ident) of $item:ty: $($variant:ident)|+) => {
        impl std::ops::Deref for $vec {
            type Target = [$item];

            fn deref(&self) -> &[$item] {
                match &self.0 {
                    $($repr::$variant(items) => items,)+
                }
            }
        }

        impl std::ops::DerefMut for $vec {
            fn deref_mut(&mut self) -> &mut [$item] {
                match &mut self.0 {
                    $($repr::$variant(items) => items,)+
                }
            }
        }

        impl<'a> IntoIterator for &'a $vec {
            type Item = &'a $item;
            type IntoIter = std::slice::Iter<'a, $item>;

            fn into_iter(self) -> Self::IntoIter {
                self.iter()
            }
        }

        impl std::fmt::Debug for $vec {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.iter()).finish()
            }
        }
    };
}
pub(crate) use as_slice;

/// Reads go straight to the map; only a fold, a rollback and an install
/// write it.
impl<S: Counted> Deref for Groups<S> {
    type Target = SeededHashMap<GroupKey, S>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

#[cfg(test)]
impl<S: Counted> Groups<S> {
    /// The open scope's records, and the key values and undo pieces they
    /// hold.
    pub(crate) fn journal(&self) -> (usize, &[Value], &[S::Undo]) {
        let journal = &self.journal;
        (journal.records.len(), &journal.keys, &journal.undo)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::HashMap;

    use md_algebra::{AggFunc, Aggregate};
    use md_core::ChangeRegime;
    use md_relation::{row, Row};
    use proptest::prelude::*;

    use super::*;
    use crate::exact::ExactSum;
    use crate::store::tests::sale_fixture;
    use crate::summary::tests::{args_of, distinct, over, store_of};
    use crate::{AggStates, AuxGroupState, GroupState, Sums};

    /// A store made of [`Groups`], as the journal's reference test sees
    /// it: its groups and what it keeps beside them.
    pub(crate) trait Grouped: Clone {
        type State: Counted + PartialEq + fmt::Debug;
        type Kept: Upkeep + PartialEq;

        fn parts(&self) -> (&Groups<Self::State>, &Self::Kept);

        fn parts_mut(&mut self) -> (&mut Groups<Self::State>, &mut Self::Kept);
    }

    /// Same groups in the same states, and the same indexes beside them.
    pub(crate) fn same_image<T: Grouped>(a: &T, b: &T) -> bool {
        let ((a, a_kept), (b, b_kept)) = (a.parts(), b.parts());
        **a == **b && a_kept == b_kept
    }

    /// The undo mechanism the journal replaced, kept as the reference the
    /// journal is held to: the state of every group at its *first* touch,
    /// restored in two passes — removals first, so that an index slot a
    /// group created in the scope took is free again when the group that
    /// held it before comes back (`(k, a)` replaced by `(k, b)`).
    struct FirstTouch<S>(HashMap<GroupKey, Option<S>>);

    impl<S: Counted> FirstTouch<S> {
        /// To be called before every run into group `key`.
        fn note(&mut self, groups: &Groups<S>, key: &Row) {
            let prior = groups.get(key as &dyn RowKey).cloned();
            self.0.entry(GroupKey::from(key.clone())).or_insert(prior);
        }

        fn restore(self, groups: &mut Groups<S>, kept: &mut impl Upkeep) {
            for (key, prior) in &self.0 {
                if prior.is_none() && groups.map.remove(key).is_some() {
                    kept.removed(key);
                }
            }
            for (key, prior) in self.0 {
                if let Some(state) = prior {
                    if !groups.map.contains_key(&key) {
                        kept.created(&key).unwrap();
                    }
                    groups.map.insert(key, state);
                }
            }
        }
    }

    /// Folds `txn` into `store` inside an undo scope, each run through
    /// `fold` into the group `key_of` names. A refused run must write
    /// nothing; a rollback must restore the image from before the scope —
    /// the one the first-touch map restores — and leave no record. Commits
    /// the scope and returns which runs landed.
    pub(crate) fn check_journal<T: Grouped, Op>(
        store: &mut T,
        txn: &[Op],
        key_of: impl Fn(&T, &Op) -> Row,
        fold: impl Fn(&mut T, &Op) -> Result<()>,
    ) -> Vec<bool> {
        let before = store.clone();
        let mut reference = FirstTouch(HashMap::new());
        store.parts_mut().0.begin();
        let mut landed = Vec::with_capacity(txn.len());
        for op in txn {
            reference.note(store.parts().0, &key_of(store, op));
            let was = store.clone();
            let ok = fold(store, op).is_ok();
            assert!(ok || same_image(store, &was), "a refused run wrote");
            landed.push(ok);
        }

        let mut rolled_back = store.clone();
        let (groups, kept) = rolled_back.parts_mut();
        groups.rollback(kept);
        assert!(groups.journal().0 == 0 && groups.journal().2.is_empty());
        assert!(
            same_image(&rolled_back, &before),
            "rollback != pre-transaction image"
        );
        let mut by_reference = store.clone();
        let (groups, kept) = by_reference.parts_mut();
        reference.restore(groups, kept);
        assert!(
            same_image(&rolled_back, &by_reference),
            "journal != first-touch map"
        );

        let groups = store.parts_mut().0;
        groups.commit();
        assert!(groups.journal().0 == 0 && groups.journal().2.is_empty());
        landed
    }

    /// One run: the group `(a, b)` it addresses and its occurrences as
    /// `(insert?, n)`.
    type RunOp = (i64, u8, Vec<(bool, u8)>);

    fn run_ops(max: usize) -> impl Strategy<Value = Vec<RunOp>> {
        let occs = proptest::collection::vec((any::<bool>(), 0..4u8), 1..4);
        proptest::collection::vec((0..3i64, 0..3u8, occs), 0..max)
    }

    #[test]
    fn bucket_states_keep_their_sizes() {
        // What every bucket of a store and of a summary costs: a merged
        // small vector would widen one of them.
        let sizes = [
            size_of::<AuxGroupState>(),
            size_of::<GroupState>(),
            size_of::<Sums>(),
            size_of::<AggStates>(),
        ];
        assert_eq!(sizes, [32, 72, 24, 64]);
        assert_eq!(size_of::<Sums>(), size_of::<ExactSum>());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: if cfg!(miri) { 8 } else { 256 } })]

        /// One sequence of runs into an auxiliary store's groups and into
        /// a summary's, both journaled in one scope.
        ///
        /// The store's groups are `(timeid, productid)` with a sum and a
        /// count; a group's rows share one price — a delete takes out a
        /// row the group holds — which the sums' exact arithmetic then
        /// never loses. The summary's groups are `a` alone, with
        /// `COUNT(*)`, `SUM`, `MAX`, `COUNT(DISTINCT)` and `MIN` of one
        /// value per run, weighing 1 or 2 per occurrence: runs move value
        /// counts (and refused ones must put them back), and under the
        /// append-only regime `MIN`/`MAX` keep their extremum alone, so a
        /// run pops the runner-up. A few groups per store and up to 12
        /// runs empty groups and create them again within the scope. In
        /// both stores the runs that land leave what their occurrences
        /// one at a time leave.
        #[test]
        fn journal_restores_what_the_first_touch_map_restores(
            setup in run_ops(8),
            txn in run_ops(12),
            append_only in any::<bool>(),
        ) {
            let (_, mut store) = sale_fixture();
            let prices = [0.1, 1e16, -2.5e-310, 3.75];
            let sold = |(t, p, _): &RunOp| {
                row![0, *t, i64::from(*p), prices[(*t as usize + usize::from(*p)) % 4]]
            };
            let aux_run = |store: &mut crate::AuxStore, op: &RunOp| {
                let row = sold(op);
                let occs: Vec<(i64, &Row)> =
                    op.2.iter().map(|&(insert, _)| (if insert { 1 } else { -1 }, &row)).collect();
                store.apply_rows(&store.group_key_of(&row), &occs)
            };
            for op in &setup {
                let _ = aux_run(&mut store, op);
            }
            let mut singles = store.clone();
            let key_of = |store: &crate::AuxStore, op: &RunOp| store.group_key_of(&sold(op));
            let landed = check_journal(&mut store, &txn, key_of, aux_run);
            // The runs that landed, an occurrence at a time.
            for (op, _) in txn.iter().zip(landed).filter(|(_, landed)| *landed) {
                for &(insert, _) in &op.2 {
                    singles.apply_one(&sold(op), if insert { 1 } else { -1 }).unwrap();
                }
            }
            prop_assert!(same_image(&store, &singles), "runs != their occurrences one at a time");

            let regime = if append_only { ChangeRegime::AppendOnly } else { ChangeRegime::General };
            let aggs = [
                Aggregate::count_star(),
                over(AggFunc::Sum),
                over(AggFunc::Max),
                distinct(AggFunc::Count),
                over(AggFunc::Min),
            ];
            let mut summary = store_of(&aggs, regime);
            let summary_run = |summary: &mut crate::SummaryStore, (a, b, occs): &RunOp| {
                let value = Value::Double(prices[usize::from(*b)]);
                let signs: Vec<i64> = occs
                    .iter()
                    .map(|&(insert, n)| i64::from(1 + n % 2) * if insert { 1 } else { -1 })
                    .collect();
                let mut sum = ExactSum::default();
                sum.add(&value, signs.iter().sum())?;
                summary.apply_run(&row![*a], &signs, &args_of(summary, &value, &sum))
            };
            for op in &setup {
                let _ = summary_run(&mut summary, op);
            }
            let mut singles = summary.clone();
            let landed = check_journal(&mut summary, &txn, |_, op| row![op.0], summary_run);
            // The runs that landed, an occurrence at a time, as for the
            // store. Under the append-only regime only for runs of
            // inserts, all its contract admits: a value short of the
            // extremum is popped as soon as it is counted, so a run
            // `[+1, −1]` of it lands while its `−1` alone is refused.
            let inserts = txn.iter().all(|op| op.2.iter().all(|&(insert, _)| insert));
            if append_only && !inserts {
                return Ok(());
            }
            for (op, _) in txn.iter().zip(landed).filter(|(_, landed)| *landed) {
                for &occ in &op.2 {
                    let single = summary_run(&mut singles, &(op.0, op.1, vec![occ]));
                    prop_assert!(single.is_ok(), "{op:?} landed, its {occ:?} alone: {single:?}");
                }
            }
            prop_assert!(same_image(&summary, &singles), "runs != their occurrences one at a time");
        }
    }
}
