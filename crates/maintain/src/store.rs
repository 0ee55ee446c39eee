//! Materialized auxiliary view stores.
//!
//! An [`AuxStore`] holds the contents of one auxiliary view `X_{Rᵢ}` as a
//! map from the *group key* (the raw group-column values) to the compressed
//! per-group state: the `SUM` columns and the `COUNT(*)`. A degenerate PSJ
//! auxiliary view (key retained) is simply the special case where every
//! group has count 1 and no sum columns.
//!
//! When the base table's key is among the group columns — a *keyed*
//! store, such as every dimension store — each key value stands for one
//! tuple, and the store keeps a key index from the key value to that
//! tuple's row: a join hop or a semijoin test is one probe of it, the
//! access path used throughout maintenance and reconstruction. A fold
//! that would put a second tuple under a held key value, or count one
//! tuple twice, is refused, so the index stays exact. A root store also
//! indexes its group keys by each foreign key its subscribers join along:
//! the root tuples a dimension delta reaches. Both indexes change only
//! when a group comes or goes, and the store's one undo journal puts both
//! back on rollback.
//!
//! Every group sits in its map's bucket: its key is a [`GroupKey`], which
//! holds one or two values in place, and its sums are [`Sums`], which hold
//! one in place — the shapes of every auxiliary view the benchmark
//! workloads derive. A probe or a scan of the store reads the bucket and
//! nothing behind it, and a group with such a key and such sums costs no
//! allocation of its own. The key index and the foreign-key index hold
//! their copies of a key the same way.

use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::{Deref, DerefMut};

use md_core::AuxViewDef;
use md_relation::{
    sort_by_row, Catalog, DataType, GroupKey, Row, RowKey, SeededHashMap, SeededHashSet, TableId,
    Value,
};

use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;

/// Per-group compressed state: the sum columns and the duplicate count.
#[derive(Debug, Clone, PartialEq)]
pub struct AuxGroupState {
    /// Current `SUM(a)` per sum column, parallel to
    /// [`AuxViewDef::sum_cols`]: exact, so duplicates compress in any
    /// order.
    pub sums: Sums,
    /// Current `COUNT(*)` of the group — the `cnt₀` of the paper's
    /// reconstruction rules. Always 1 for degenerate PSJ views.
    pub cnt: u64,
}

/// A group's sums, one per sum column: one sum held in place — no
/// auxiliary view the benchmark workloads derive keeps more — and any
/// other number in one boxed slice (none allocates nothing). Reads and
/// writes as a slice; the number is fixed when the sums are collected.
#[derive(Clone, PartialEq)]
pub struct Sums(SumsRepr);

#[derive(Clone, PartialEq)]
enum SumsRepr {
    One([ExactSum; 1]),
    Other(Box<[ExactSum]>),
}

impl FromIterator<ExactSum> for Sums {
    fn from_iter<I: IntoIterator<Item = ExactSum>>(sums: I) -> Self {
        let mut sums = sums.into_iter().fuse();
        Sums(match (sums.next(), sums.next()) {
            (Some(one), None) => SumsRepr::One([one]),
            (first, second) => {
                SumsRepr::Other(first.into_iter().chain(second).chain(sums).collect())
            }
        })
    }
}

impl Deref for Sums {
    type Target = [ExactSum];

    fn deref(&self) -> &[ExactSum] {
        match &self.0 {
            SumsRepr::One(sums) => sums,
            SumsRepr::Other(sums) => sums,
        }
    }
}

impl DerefMut for Sums {
    fn deref_mut(&mut self) -> &mut [ExactSum] {
        match &mut self.0 {
            SumsRepr::One(sums) => sums,
            SumsRepr::Other(sums) => sums,
        }
    }
}

impl<'a> IntoIterator for &'a Sums {
    type Item = &'a ExactSum;
    type IntoIter = std::slice::Iter<'a, ExactSum>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Sums {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The undo journal of one store: one record per mutation, oldest first,
/// over two flat buffers — a record owns no allocation, and the vectors
/// keep their capacity from batch to batch. A rollback replays the records
/// newest first, so each only has to restore what its own mutation
/// overwrote.
#[derive(Debug, Clone, Default)]
struct Journal {
    /// Per record: the arity of the group key, and the group's `cnt`
    /// before the mutation (`None` = it did not exist).
    records: Vec<(usize, Option<u64>)>,
    /// Per record, in record order: the group key.
    keys: Vec<Value>,
    /// Per record of a group that existed, in record order: its sums, one
    /// per sum column.
    sums: Vec<ExactSum>,
}

impl Journal {
    /// Forgets every record, keeping the buffers.
    fn clear(&mut self) {
        self.records.clear();
        self.keys.clear();
        self.sums.clear();
    }
}

/// Per foreign-key value, the group keys of a root store that hold it.
pub(crate) type FkMap = SeededHashMap<Value, SeededHashSet<GroupKey>>;

/// One root→child edge of a root store's foreign-key index.
#[derive(Debug, Clone)]
struct FkEdge {
    /// The child table, and the position of its foreign key within the
    /// group key.
    edge: (TableId, usize),
    /// How many subscribers join along the edge.
    subscribers: u32,
    /// Every group key under its foreign-key value; a value whose last key
    /// goes is dropped, so equal key sets give equal maps.
    keys: FkMap,
}

impl FkEdge {
    fn add(&mut self, key: &GroupKey) {
        let value = &key[self.edge.1];
        // Most root keys join a dimension row others already do.
        if let Some(keys) = self.keys.get_mut(value) {
            keys.insert(key.clone());
        } else {
            let keys = SeededHashSet::from_iter([key.clone()]);
            self.keys.insert(value.clone(), keys);
        }
    }

    fn remove(&mut self, key: &dyn RowKey) {
        let value = key.value(self.edge.1);
        if let Some(keys) = self.keys.get_mut(value) {
            keys.remove(key);
            if keys.is_empty() {
                self.keys.remove(value);
            }
        }
    }
}

/// Drops `key`'s entry from a key index (the key value at `kp`) when it
/// points at `key`'s group: an entry that points elsewhere is another
/// group's.
fn unindex(key_index: &mut SeededHashMap<Value, GroupKey>, kp: usize, key: &dyn RowKey) {
    let value = key.value(kp);
    let points_here = |group: &GroupKey| key == group as &dyn RowKey;
    if key_index.get(value).is_some_and(points_here) {
        key_index.remove(value);
    }
}

/// The materialized contents of one auxiliary view.
#[derive(Debug, Clone)]
pub struct AuxStore {
    def: AuxViewDef,
    /// Source column indices of the group columns (cached from `def`).
    group_srcs: Vec<usize>,
    /// Source column indices of the sum columns (cached from `def`).
    sum_srcs: Vec<usize>,
    /// The sum columns' types: what each sum emits as.
    sum_types: Vec<DataType>,
    /// Position of the table's key within the group key, when retained.
    key_pos: Option<usize>,
    /// Group key → state: read and written by the folds alone.
    groups: SeededHashMap<GroupKey, AuxGroupState>,
    /// Key value → the one group key holding it, a copy of the tuple's
    /// key in place: a join hop reads the tuple here and never probes
    /// `groups`.
    /// Filled iff `key_pos` is set, and exact — every group under its key
    /// value and nothing else — which the folds and restore keep and
    /// [`Self::key_index_is_exact`] checks.
    key_index: SeededHashMap<Value, GroupKey>,
    /// The foreign-key index of a root store, over the edges its
    /// subscribers join along (none for a dimension store).
    fk: Vec<FkEdge>,
    /// Whether an undo scope is open: mutations are journaled.
    journaling: bool,
    journal: Journal,
}

impl AuxStore {
    /// Creates an empty store for `def`.
    pub fn new(def: AuxViewDef, catalog: &Catalog) -> Result<Self> {
        let group_srcs = def.group_source_cols();
        let sum_srcs: Vec<usize> = def.sum_cols().into_iter().map(|(_, s)| s).collect();
        let table = catalog.def(def.table)?;
        let sum_types = sum_srcs
            .iter()
            .map(|&s| table.schema.column(s).dtype)
            .collect();
        let key_pos = group_srcs.iter().position(|&s| s == table.key_col);
        Ok(AuxStore {
            def,
            group_srcs,
            sum_srcs,
            sum_types,
            key_pos,
            groups: SeededHashMap::default(),
            key_index: SeededHashMap::default(),
            fk: Vec::new(),
            journaling: false,
            journal: Journal::default(),
        })
    }

    /// Opens an undo scope: every group mutation until
    /// [`Self::commit_undo`] or [`Self::rollback_undo`] journals the
    /// group's prior state so the store can be restored exactly.
    pub(crate) fn begin_undo(&mut self) {
        self.journal.clear();
        self.journaling = true;
    }

    /// Closes the undo scope, keeping all mutations.
    pub(crate) fn commit_undo(&mut self) {
        self.journal.clear();
        self.journaling = false;
    }

    /// Closes the undo scope, restoring every touched group (and the key
    /// and foreign-key indexes) to its pre-transaction state. No-op
    /// without an open scope.
    pub(crate) fn rollback_undo(&mut self) {
        let Journal {
            records,
            keys,
            sums,
        } = &mut self.journal;
        for (arity, prior) in records.drain(..).rev() {
            let key_at = keys.len() - arity;
            let key = &keys[key_at..];
            match prior {
                None => {
                    self.groups.remove(&key as &dyn RowKey);
                    if let Some(kp) = self.key_pos {
                        unindex(&mut self.key_index, kp, &key);
                    }
                    for edge in &mut self.fk {
                        edge.remove(&key);
                    }
                }
                Some(cnt) => {
                    let prior = sums.drain(sums.len() - self.sum_srcs.len()..);
                    if let Some(state) = self.groups.get_mut(&key as &dyn RowKey) {
                        state.cnt = cnt;
                        state
                            .sums
                            .iter_mut()
                            .zip(prior)
                            .for_each(|(s, was)| *s = was);
                    } else {
                        let key = GroupKey::of(&key);
                        if let Some(kp) = self.key_pos {
                            self.key_index.insert(key[kp].clone(), key.clone());
                        }
                        for edge in &mut self.fk {
                            edge.add(&key);
                        }
                        let sums = prior.collect();
                        self.groups.insert(key, AuxGroupState { sums, cnt });
                    }
                }
            }
            keys.truncate(key_at);
        }
        self.journaling = false;
    }

    /// The definition this store materializes.
    pub fn def(&self) -> &AuxViewDef {
        &self.def
    }

    /// Source column indices of the group columns, in group-key order.
    pub fn group_srcs(&self) -> &[usize] {
        &self.group_srcs
    }

    /// Number of stored tuples (groups).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` when the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Projects a source row onto the group key.
    pub fn group_key_of(&self, source_row: &Row) -> Row {
        source_row.project(&self.group_srcs)
    }

    /// Makes room for `groups` more groups — a load's runs, an image's
    /// groups — so the fill that follows never regrows the maps.
    pub(crate) fn reserve(&mut self, groups: usize) {
        self.groups.reserve(groups);
        if self.key_pos.is_some() {
            self.key_index.reserve(groups);
        }
    }

    /// Applies a *run* of source-row occurrences that all project onto
    /// the same group `key`, in one pass: `signs` holds each occurrence's
    /// sign, +1 (insert) or −1 (delete), in order, and `sums` the run's net
    /// sum of each sum column. The group is probed and journaled once; the
    /// signs move its count one at a time, so a delete of a row the group
    /// does not hold yet is refused, and the sums are merged once. A run of
    /// many leaves the image its occurrences would leave as runs of one, in
    /// any order. The caller is responsible for local-condition filtering,
    /// semijoin reduction and the sums: this is the only fold into the
    /// compressed representation, and it reads no source row. On error the
    /// store is as it was before the run.
    ///
    /// The caller only lends `key` — a `&Row`, or any [`RowKey`] that
    /// reads like one: an existing group costs one probe of `groups`, one
    /// journal record and no allocation; the key becomes a [`GroupKey`],
    /// and the key and foreign-key indexes are written, only when the run
    /// creates or removes the group. In a keyed store a run that would
    /// leave its group counting two tuples, or create a group under a key
    /// value another group holds, is refused: the key index that join hops
    /// read stays exact.
    pub fn apply_source_run(
        &mut self,
        key: &dyn RowKey,
        signs: &[i64],
        sums: &[ExactSum],
    ) -> Result<()> {
        let (keyed, view) = (self.key_pos.is_some(), &self.def.name);
        if sums.len() != self.sum_srcs.len() {
            let why = format!("a run into {view} carries {} sums", sums.len());
            return Err(MaintainError::InvariantViolation(why));
        }
        // The run into a state in which `cnt == 0` stands for "no such
        // group" (and every sum is zero). On error the state is part-way.
        let fold = |state: &mut AuxGroupState| -> Result<()> {
            for &sign in signs {
                match sign {
                    1 => state.cnt += 1,
                    -1 if state.cnt == 0 => {
                        return Err(MaintainError::InvariantViolation(format!(
                            "delete of a row whose group {} is absent from {view}",
                            key.to_row()
                        )));
                    }
                    -1 => state.cnt -= 1,
                    other => {
                        return Err(MaintainError::InvariantViolation(format!(
                            "sign must be ±1, got {other}"
                        )))
                    }
                }
            }
            for (slot, sum) in state.sums.iter_mut().zip(sums) {
                slot.merge(sum);
            }
            if keyed && state.cnt > 1 {
                return Err(MaintainError::InvariantViolation(format!(
                    "{view} would hold tuple {} {} times under one key value",
                    key.to_row(),
                    state.cnt
                )));
            }
            Ok(())
        };
        let Journal {
            records,
            keys,
            sums: journaled,
        } = &mut self.journal;
        let mark = journaled.len();
        let prior = match self.groups.get_mut(key) {
            Some(state) => {
                // The prior sums go on the journal before the fold: a
                // failed fold restores the slot from them.
                let prior = state.cnt;
                journaled.extend(state.sums.iter().cloned());
                if let Err(e) = fold(state) {
                    state.cnt = prior;
                    let was = journaled.drain(mark..);
                    state.sums.iter_mut().zip(was).for_each(|(s, was)| *s = was);
                    return Err(e);
                }
                if state.cnt == 0 {
                    self.groups.remove(key);
                    if let Some(kp) = self.key_pos {
                        unindex(&mut self.key_index, kp, key);
                    }
                    for edge in &mut self.fk {
                        edge.remove(key);
                    }
                }
                Some(prior)
            }
            None => {
                let zeros = self.sum_srcs.iter().map(|_| ExactSum::default());
                let mut state = AuxGroupState {
                    sums: zeros.collect(),
                    cnt: 0,
                };
                fold(&mut state)?;
                if state.cnt == 0 {
                    // It came and went within the run: it was never there.
                    return Ok(());
                }
                let key = GroupKey::of(key);
                if let Some(kp) = self.key_pos {
                    match self.key_index.entry(key[kp].clone()) {
                        Entry::Vacant(slot) => {
                            slot.insert(key.clone());
                        }
                        Entry::Occupied(held) => {
                            return Err(MaintainError::InvariantViolation(format!(
                                "{} would hold tuple {key} beside {} under one key value",
                                self.def.name,
                                held.get()
                            )));
                        }
                    }
                }
                for edge in &mut self.fk {
                    edge.add(&key);
                }
                self.groups.insert(key, state);
                None
            }
        };
        if self.journaling {
            keys.extend((0..key.arity()).map(|i| key.value(i).clone()));
            records.push((key.arity(), prior));
        } else {
            journaled.truncate(mark);
        }
        Ok(())
    }

    /// What must hold of a group before the store takes it from outside (a
    /// snapshot image): a key of the view's arity — a shorter one would
    /// panic on indexed access later — one sum per sum column, each one
    /// its column can have, and a count, since a group stands for at least
    /// one row. In a keyed store the group is one tuple, counted once,
    /// under a key value no group taken before holds.
    pub(crate) fn check_group(&self, key: &GroupKey, state: &AuxGroupState) -> Result<()> {
        let (arity, sums) = (self.group_srcs.len(), self.sum_srcs.len());
        let admitted = |(sum, &dtype): (&ExactSum, &DataType)| sum.admits(dtype);
        let broken = if key.arity() != arity || state.sums.len() != sums {
            format!(
                "key arity {} and {} sums, the view expects {arity} and {sums}",
                key.arity(),
                state.sums.len()
            )
        } else if state.cnt == 0 {
            "stands for no row".to_owned()
        } else if self.key_pos.is_some() && state.cnt != 1 {
            format!("a keyed tuple stands for {} rows", state.cnt)
        } else if let Some(held) = self.key_pos.and_then(|kp| self.key_index.get(&key[kp])) {
            format!("its key value is held by {held}")
        } else if !state.sums.iter().zip(&self.sum_types).all(admitted) {
            "holds a sum its column cannot".to_owned()
        } else {
            return Ok(());
        };
        Err(MaintainError::InvariantViolation(format!(
            "corrupt snapshot: {} group {key}: {broken}",
            self.def.name
        )))
    }

    /// Installs a fully-formed group (snapshot restore), one that
    /// [`Self::check_group`] passed. Replaces any existing group with the
    /// same key and maintains the key and foreign-key indexes.
    pub fn install_group(&mut self, group_key: GroupKey, state: AuxGroupState) {
        if let Some(kp) = self.key_pos {
            self.key_index
                .insert(group_key[kp].clone(), group_key.clone());
        }
        for edge in &mut self.fk {
            edge.add(&group_key);
        }
        if !self.journaling {
            self.groups.insert(group_key, state);
            return;
        }
        let Journal {
            records,
            keys,
            sums,
        } = &mut self.journal;
        let prior = self.groups.insert(group_key.clone(), state).map(|was| {
            sums.extend(was.sums.iter().cloned());
            was.cnt
        });
        records.push((group_key.arity(), prior));
        keys.extend(group_key.values().iter().cloned());
    }

    /// Looks up a group's state by group key.
    pub fn get(&self, group_key: &dyn RowKey) -> Option<&AuxGroupState> {
        self.groups.get(group_key)
    }

    /// The stored tuple under the base table's key value: one probe of
    /// the key index, which holds the tuple's key in place — `groups` is
    /// not read. Only a keyed store answers (every dimension store is
    /// one).
    pub fn lookup_by_key(&self, key: &Value) -> Option<&GroupKey> {
        self.key_index.get(key)
    }

    /// Returns `true` when a tuple with this base-table key exists — the
    /// semijoin membership test.
    pub fn contains_key_value(&self, key: &Value) -> bool {
        self.key_index.contains_key(key)
    }

    /// Iterates over `(group key, state)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &AuxGroupState)> {
        self.groups.iter()
    }

    /// Materializes the full auxiliary view contents as rows in the
    /// auxiliary view's output schema (group cols, sum cols, count).
    pub fn materialized_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .groups
            .iter()
            .map(|(key, state)| {
                let mut vals = key.values().to_vec();
                let sums = state.sums.iter().zip(&self.sum_types);
                vals.extend(sums.map(|(sum, &dtype)| sum.emit(dtype)));
                if self.def.count_col().is_some() {
                    vals.push(Value::Int(state.cnt as i64));
                }
                Row::new(vals)
            })
            .collect();
        sort_by_row(&mut rows, Row::values);
        rows
    }

    /// Storage footprint in the paper's model: `tuples × fields × 4 bytes`.
    pub fn paper_bytes(&self) -> u64 {
        self.groups.len() as u64 * self.def.paper_row_bytes()
    }

    // ------------------------------------------------------------------
    // The foreign-key index (root stores)
    // ------------------------------------------------------------------

    /// One more subscriber joins along `edge` (the child table, the
    /// position of its foreign key within the group key): an edge new to
    /// the store is indexed over the groups it holds.
    pub(crate) fn fk_subscribe(&mut self, edge: (TableId, usize)) {
        match self.fk.iter_mut().find(|e| e.edge == edge) {
            Some(held) => held.subscribers += 1,
            None => self.fk.push(self.fk_edge(edge, 1)),
        }
    }

    /// `edge`'s index over the groups held.
    fn fk_edge(&self, edge: (TableId, usize), subscribers: u32) -> FkEdge {
        let mut held = FkEdge {
            edge,
            subscribers,
            keys: FkMap::default(),
        };
        for key in self.groups.keys() {
            held.add(key);
        }
        held
    }

    /// Runs `fill` — a load or a restore of the store — with the
    /// foreign-key index set aside, then indexes what it filled: the group
    /// keys the fill allocates sit together in memory, where every later
    /// probe of the store reads them, not between their index entries.
    pub(crate) fn bulk_fill<T>(&mut self, fill: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let edges = std::mem::take(&mut self.fk);
        let filled = fill(self);
        let reindexed = edges.iter().map(|e| self.fk_edge(e.edge, e.subscribers));
        self.fk = reindexed.collect();
        filled
    }

    /// One subscriber less joins along `edge`; the last one takes the
    /// edge's index with it.
    pub(crate) fn fk_unsubscribe(&mut self, edge: (TableId, usize)) {
        if let Some(at) = self.fk.iter().position(|e| e.edge == edge) {
            self.fk[at].subscribers -= 1;
            if self.fk[at].subscribers == 0 {
                self.fk.remove(at);
            }
        }
    }

    /// The group keys under each foreign-key value of `edge`, when the
    /// store indexes it.
    pub(crate) fn fk_keys(&self, edge: (TableId, usize)) -> Option<&FkMap> {
        let held = self.fk.iter().find(|e| e.edge == edge)?;
        Some(&held.keys)
    }

    /// Whether the store indexes each of `edges`, and each indexed edge is
    /// what a rebuild would derive: every group key, and nothing else,
    /// under its foreign-key value. Probes, builds nothing.
    pub(crate) fn fk_is_exact(&self, edges: &[(TableId, usize)]) -> bool {
        let exact = |held: &FkEdge| {
            let listed: usize = held.keys.values().map(SeededHashSet::len).sum();
            let pos = held.edge.1;
            let real = |v: &Value, key: &GroupKey| key[pos] == *v && self.get(key).is_some();
            listed == self.len()
                && (held.keys.iter()).all(|(v, keys)| keys.iter().all(|key| real(v, key)))
        };
        edges.iter().all(|edge| self.fk_keys(*edge).is_some()) && self.fk.iter().all(exact)
    }

    /// Whether the key index is what a rebuild would derive: every group
    /// under its key value, and nothing else (nothing at all in a store
    /// that is not keyed). A join hop reads the index alone, so a rebuild
    /// of `V` cannot tell a stale entry from a true one; this can. Probes,
    /// builds nothing.
    pub(crate) fn key_index_is_exact(&self) -> bool {
        let Some(kp) = self.key_pos else {
            return self.key_index.is_empty();
        };
        self.key_index.len() == self.groups.len()
            && (self.groups.keys()).all(|key| self.key_index.get(&key[kp]) == Some(key))
    }
}

#[cfg(test)]
impl AuxStore {
    /// Values held by the open undo scope: the keys and prior sums of
    /// every record.
    pub(crate) fn undo_weight(&self) -> usize {
        self.journal.keys.len() + self.journal.sums.len()
    }

    /// Records held by the open undo scope.
    pub(crate) fn undo_records(&self) -> usize {
        self.journal.records.len()
    }

    /// Drops one foreign-key value of `edge` from the index (tests of the
    /// audit).
    pub(crate) fn fk_forget(&mut self, edge: (TableId, usize), value: &Value) {
        let held = self.fk.iter_mut().find(|e| e.edge == edge);
        held.expect("indexed").keys.remove(value);
    }

    /// Drops one key value from the key index (tests of the audit).
    pub(crate) fn key_forget(&mut self, value: &Value) {
        self.key_index.remove(value);
    }

    /// A run of source-row occurrences `(sign, row)`, its net sums taken
    /// here (unit-test shorthand).
    pub(crate) fn apply_rows(&mut self, key: &dyn RowKey, occs: &[(i64, &Row)]) -> Result<()> {
        let mut sums: Vec<ExactSum> = self.sum_srcs.iter().map(|_| ExactSum::default()).collect();
        for (sign, row) in occs {
            for (sum, &s) in sums.iter_mut().zip(&self.sum_srcs) {
                sum.add(&row[s], *sign)?;
            }
        }
        let signs: Vec<i64> = occs.iter().map(|&(sign, _)| sign).collect();
        self.apply_source_run(key, &signs, &sums)
    }

    /// One occurrence as a run of one (unit-test shorthand).
    pub(crate) fn apply_one(&mut self, source_row: &Row, sign: i64) -> Result<()> {
        self.apply_rows(&self.group_key_of(source_row), &[(sign, source_row)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::Binding;
    use md_core::{AuxColKind, AuxColumn};
    use md_relation::{row, DataType, Schema};
    use proptest::prelude::*;

    fn sale_fixture() -> (Catalog, AuxStore) {
        let mut cat = Catalog::new();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        let def = AuxViewDef {
            table: sale,
            name: "saleDTL".into(),
            columns: vec![
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 1 },
                    name: "timeid".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 2 },
                    name: "productid".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Sum { src_col: 3 },
                    name: "sum_price".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Count,
                    name: "cnt".into(),
                },
            ],
            local_conditions: vec![],
            semijoins: vec![],
        };
        let store = AuxStore::new(def, &cat).unwrap();
        (cat, store)
    }

    fn dim_fixture() -> (Catalog, AuxStore) {
        let mut cat = Catalog::new();
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let def = AuxViewDef {
            table: product,
            name: "productDTL".into(),
            columns: vec![
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 0 },
                    name: "id".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 1 },
                    name: "brand".into(),
                },
            ],
            local_conditions: vec![],
            semijoins: vec![],
        };
        let store = AuxStore::new(def, &cat).unwrap();
        (cat, store)
    }

    /// The sums of group `key`, emitted.
    fn sums(store: &AuxStore, key: &Row) -> Vec<Value> {
        let state = store.get(key).unwrap();
        state
            .sums
            .iter()
            .map(|s| s.emit(DataType::Double))
            .collect()
    }

    #[test]
    fn one_sum_sits_in_place_and_more_spill() {
        let sums = |n: usize| (0..n).map(|_| ExactSum::default()).collect::<Sums>();
        assert!(matches!(sums(1).0, SumsRepr::One(_)));
        assert!(matches!(sums(2).0, SumsRepr::Other(_)));
        assert_eq!((sums(0).len(), sums(1).len(), sums(3).len()), (0, 1, 3));
        // The one sum costs what the sum does.
        assert_eq!(size_of::<Sums>(), size_of::<ExactSum>());
    }

    #[test]
    fn duplicate_compression_accumulates() {
        // Reproduces the paper's Table 3 → Table 4 compression: rows with
        // equal (timeid, productid) collapse into SUM(price), COUNT(*).
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        store.apply_one(&row![101, 1, 10, 7.0], 1).unwrap();
        store.apply_one(&row![102, 1, 11, 3.0], 1).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(sums(&store, &row![1, 10]), vec![Value::Double(12.0)]);
        assert_eq!(store.get(&row![1, 10]).unwrap().cnt, 2);
    }

    #[test]
    fn deletion_decrements_and_removes_empty_groups() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        store.apply_one(&row![101, 1, 10, 7.0], 1).unwrap();
        store.apply_one(&row![100, 1, 10, 5.0], -1).unwrap();
        assert_eq!(sums(&store, &row![1, 10]), vec![Value::Double(7.0)]);
        store.apply_one(&row![101, 1, 10, 7.0], -1).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn delete_from_absent_group_is_invariant_violation() {
        let (_, mut store) = sale_fixture();
        assert!(store.apply_one(&row![100, 1, 10, 5.0], -1).is_err());
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        // Same group: the update is one run, −old then +new.
        let (old, new) = (row![100, 1, 10, 5.0], row![100, 1, 10, 8.0]);
        store
            .apply_rows(&row![1, 10], &[(-1, &old), (1, &new)])
            .unwrap();
        assert_eq!(sums(&store, &row![1, 10]), vec![Value::Double(8.0)]);
        // Moving the row to another group relocates the contribution.
        store.apply_one(&row![100, 1, 10, 8.0], -1).unwrap();
        store.apply_one(&row![100, 2, 10, 8.0], 1).unwrap();
        assert!(store.get(&row![1, 10]).is_none());
        assert_eq!(store.get(&row![2, 10]).unwrap().cnt, 1);
    }

    #[test]
    fn dim_store_key_lookup() {
        let (_, mut store) = dim_fixture();
        store.apply_one(&row![7, "acme"], 1).unwrap();
        assert!(store.contains_key_value(&Value::Int(7)));
        assert_eq!(
            store.lookup_by_key(&Value::Int(7)).map(GroupKey::to_row),
            Some(row![7, "acme"])
        );
        assert!(store.key_index_is_exact());
        store.apply_one(&row![7, "acme"], -1).unwrap();
        assert!(!store.contains_key_value(&Value::Int(7)));
    }

    #[test]
    fn a_keyed_store_refuses_a_second_tuple_under_a_held_key() {
        let (_, mut store) = dim_fixture();
        store.apply_one(&row![7, "acme"], 1).unwrap();
        let before = store.clone();
        // Another tuple under key 7, the same tuple twice, and a new tuple
        // counted twice by one run: each refused, the store unchanged.
        assert!(store.apply_one(&row![7, "mega"], 1).is_err());
        assert!(store.apply_one(&row![7, "acme"], 1).is_err());
        let twice = row![8, "zeta"];
        let run = store.apply_rows(&twice, &[(1, &twice), (1, &twice)]);
        assert!(run.is_err());
        assert!(same_image(&store, &before));
        assert!(store.key_index_is_exact());
        // Key 7 moves to another tuple: a removal, then a creation.
        store.apply_one(&row![7, "acme"], -1).unwrap();
        store.apply_one(&row![7, "mega"], 1).unwrap();
        assert_eq!(
            store.lookup_by_key(&Value::Int(7)).map(GroupKey::to_row),
            Some(row![7, "mega"])
        );
        assert!(store.key_index_is_exact());
        store.key_forget(&Value::Int(7));
        assert!(!store.key_index_is_exact());
    }

    #[test]
    fn fact_store_has_no_key_index() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        // sale.id is not retained → no key lookups.
        assert!(!store.contains_key_value(&Value::Int(100)));
        assert!(store.lookup_by_key(&Value::Int(100)).is_none());
    }

    #[test]
    fn group_value_resolves_raw_columns() {
        let (_, store) = sale_fixture();
        let key = row![1, 10];
        let group = Binding::stored(store.group_srcs(), key.values());
        assert_eq!(group.value(1), Some(&Value::Int(1)));
        assert_eq!(group.value(2), Some(&Value::Int(10)));
        assert_eq!(group.value(3), None); // price is summed
    }

    #[test]
    fn materialized_rows_match_paper_table4() {
        // Paper Table 4: the sale auxiliary view after compression.
        let (_, mut store) = sale_fixture();
        for (id, t, p, price) in [
            (1, 1, 1, 10.0),
            (2, 1, 1, 10.0),
            (3, 1, 2, 10.0),
            (4, 1, 3, 20.0),
            (5, 2, 1, 10.0),
            (6, 2, 1, 20.0),
            (7, 2, 2, 10.0),
            (8, 2, 2, 10.0),
        ] {
            store.apply_one(&row![id, t, p, price], 1).unwrap();
        }
        let rows = store.materialized_rows();
        assert_eq!(
            rows,
            vec![
                row![1, 1, 20.0, 2],
                row![1, 2, 10.0, 1],
                row![1, 3, 20.0, 1],
                row![2, 1, 30.0, 2],
                row![2, 2, 20.0, 2],
            ]
        );
    }

    #[test]
    fn rollback_restores_groups_and_key_index() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        let before = store.materialized_rows();

        store.begin_undo();
        store.apply_one(&row![101, 1, 10, 7.0], 1).unwrap(); // update
        store.apply_one(&row![102, 2, 11, 3.0], 1).unwrap(); // create
        store.apply_one(&row![100, 1, 10, 5.0], -1).unwrap();
        store.rollback_undo();
        assert_eq!(store.materialized_rows(), before);

        // Commit keeps the mutations.
        store.begin_undo();
        store.apply_one(&row![103, 3, 12, 1.0], 1).unwrap();
        store.commit_undo();
        assert!(store.get(&row![3, 12]).is_some());
    }

    #[test]
    fn rollback_repairs_key_index_after_group_swap() {
        let (_, mut store) = dim_fixture();
        store.apply_one(&row![7, "acme"], 1).unwrap();
        store.begin_undo();
        // Same key value migrates to a different group within the txn.
        store.apply_one(&row![7, "acme"], -1).unwrap();
        store.apply_one(&row![7, "mega"], 1).unwrap();
        assert_eq!(
            store.lookup_by_key(&Value::Int(7)).map(GroupKey::to_row),
            Some(row![7, "mega"])
        );
        store.rollback_undo();
        assert_eq!(
            store.lookup_by_key(&Value::Int(7)).map(GroupKey::to_row),
            Some(row![7, "acme"])
        );
        assert!(store.get(&row![7, "mega"]).is_none());
        assert!(store.key_index_is_exact());
    }

    #[test]
    fn an_existing_group_is_journaled_by_value_and_a_failed_run_by_nothing() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        let before = store.clone();
        store.begin_undo();
        // Two deletes against a group of one: the second cannot be folded.
        let sold = row![100, 1, 10, 5.0];
        let err = store.apply_rows(&row![1, 10], &[(-1, &sold), (-1, &sold)]);
        assert!(err.is_err());
        assert!(same_image(&store, &before));
        assert_eq!((store.journal.records.len(), store.undo_weight()), (0, 0));
        // Created and removed within one run: never there, not journaled.
        let other = row![101, 2, 11, 1.0];
        let flicker = store.apply_rows(&row![2, 11], &[(1, &other), (-1, &other)]);
        flicker.unwrap();
        assert!(store.get(&row![2, 11]).is_none());
        assert_eq!(store.journal.records.len(), 0);
        // A run that lands: the key and the prior sum, three values.
        store.apply_one(&row![102, 1, 10, 7.0], 1).unwrap();
        assert_eq!((store.journal.records.len(), store.undo_weight()), (1, 3));
        store.rollback_undo();
        assert!(same_image(&store, &before));
        assert_eq!(store.undo_weight(), 0);
    }

    /// Same groups in the same states, same key index.
    fn same_image(a: &AuxStore, b: &AuxStore) -> bool {
        a.groups == b.groups && a.key_index == b.key_index
    }

    /// The undo mechanism the journal replaced, kept as the reference the
    /// journal is held to: the prior state of every group at its *first*
    /// touch, restored in two passes — removals first, so that the key
    /// index ends up pointing at the restored group when `(k, a)` was
    /// replaced by `(k, b)`.
    #[derive(Default)]
    struct FirstTouch(std::collections::HashMap<GroupKey, Option<AuxGroupState>>);

    impl FirstTouch {
        /// To be called before every mutation of group `key`.
        fn note(&mut self, store: &AuxStore, key: &Row) {
            let key = GroupKey::from(key.clone());
            let prior = store.groups.get(&key).cloned();
            self.0.entry(key).or_insert(prior);
        }

        fn restore(self, store: &mut AuxStore) {
            for (key, prior) in &self.0 {
                if prior.is_none() {
                    store.groups.remove(key);
                    if let Some(kp) = store.key_pos {
                        if store.key_index.get(&key[kp]) == Some(key) {
                            store.key_index.remove(&key[kp]);
                        }
                    }
                }
            }
            for (key, prior) in self.0 {
                if let Some(state) = prior {
                    if let Some(kp) = store.key_pos {
                        store.key_index.insert(key[kp].clone(), key.clone());
                    }
                    store.groups.insert(key, state);
                }
            }
        }
    }

    /// One run: the group `(a, b)` it addresses and its occurrences as
    /// `(insert?, price index)`.
    type RunOp = (i64, u8, Vec<(bool, u8)>);

    fn run_ops(max: usize) -> impl Strategy<Value = Vec<RunOp>> {
        let occs = proptest::collection::vec((any::<bool>(), 0..4u8), 1..4);
        proptest::collection::vec((0..3i64, 0..3u8, occs), 0..max)
    }

    /// Folds `ops` into `store` a run at a time. A run the store refuses
    /// must leave it as it was; the runs it took are also folded into
    /// `singles` one occurrence at a time.
    fn fold_ops(
        store: &mut AuxStore,
        ops: &[RunOp],
        row_of: &dyn Fn(i64, u8, u8) -> Row,
        mut reference: Option<&mut FirstTouch>,
        mut singles: Option<&mut AuxStore>,
    ) {
        for (a, b, occs) in ops {
            let rows: Vec<(i64, Row)> = occs
                .iter()
                .map(|&(insert, price)| (if insert { 1 } else { -1 }, row_of(*a, *b, price)))
                .collect();
            let key = store.group_key_of(&rows[0].1);
            if let Some(reference) = reference.as_deref_mut() {
                reference.note(store, &key);
            }
            let before = store.clone();
            let run: Vec<(i64, &Row)> = rows.iter().map(|(sign, row)| (*sign, row)).collect();
            match store.apply_rows(&key, &run) {
                Err(_) => assert!(same_image(store, &before), "a failed run wrote"),
                Ok(()) => {
                    if let Some(singles) = singles.as_deref_mut() {
                        for (sign, row) in &rows {
                            singles.apply_one(row, *sign).unwrap();
                        }
                    }
                }
            }
        }
    }

    /// Runs `setup` outside a transaction and `txn` inside one, then
    /// closes the transaction both ways.
    fn check_journal(
        mut store: AuxStore,
        row_of: &dyn Fn(i64, u8, u8) -> Row,
        setup: &[RunOp],
        txn: &[RunOp],
    ) {
        fold_ops(&mut store, setup, row_of, None, None);
        let before = store.clone();
        let mut singles = store.clone();
        let mut reference = FirstTouch::default();
        store.begin_undo();
        fold_ops(
            &mut store,
            txn,
            row_of,
            Some(&mut reference),
            Some(&mut singles),
        );

        let mut rolled_back = store.clone();
        rolled_back.rollback_undo();
        assert!(
            same_image(&rolled_back, &before),
            "rollback != pre-transaction image"
        );
        let mut by_reference = store.clone();
        reference.restore(&mut by_reference);
        assert!(
            same_image(&rolled_back, &by_reference),
            "journal != first-touch map"
        );
        assert_eq!(rolled_back.undo_weight(), 0);

        store.commit_undo();
        assert!(
            same_image(&store, &singles),
            "runs != their occurrences one at a time"
        );
        assert_eq!(store.undo_weight(), 0);
        // The key index lists every group under its key, and nothing else.
        assert!(store.key_index_is_exact());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: if cfg!(miri) { 8 } else { 256 } })]

        /// No retained key: groups `(timeid, productid)` with a sum and a
        /// count, touched by several runs, emptied and refilled. A group's
        /// rows share one price — a delete takes out a row the group holds
        /// — which the sums' exact arithmetic then never loses.
        #[test]
        fn journal_restores_what_the_first_touch_map_restores(
            setup in run_ops(8),
            txn in run_ops(12),
        ) {
            let (_, store) = sale_fixture();
            let prices = [0.1, 1e16, -2.5e-310, 3.75];
            let sold = |t: i64, p: u8, _: u8| {
                row![0, t, i64::from(p), prices[(t as usize + usize::from(p)) % 4]]
            };
            check_journal(store, &sold, &setup, &txn);
        }

        /// Retained key: product `k` is `(k, a)`, then `(k, b)`, then
        /// `(k, a)` or `(k, c)` — groups that share a key-index slot. One
        /// row per key at a time, as a keyed source guarantees.
        #[test]
        fn journal_restores_the_key_index_through_key_sharing_chains(
            renames in proptest::collection::vec((0..2i64, 0..3u8), 0..10),
            split in 0..10usize,
        ) {
            let (_, store) = dim_fixture();
            let brands = ["acme", "mega", "zeta"];
            let product = |k: i64, brand: u8, _: u8| row![k, brands[usize::from(brand)]];
            // Product k moves to brand b: −(k, old) +(k, b), runs of one;
            // its first appearance is the insert alone.
            let mut current = [None; 2];
            let ops: Vec<RunOp> = renames
                .iter()
                .flat_map(|&(k, brand)| {
                    let was = current[k as usize].replace(brand);
                    let gone = was.map(|old| (k, old, vec![(false, 0)]));
                    gone.into_iter().chain([(k, brand, vec![(true, 0)])])
                })
                .collect();
            let split = split.min(ops.len());
            check_journal(store, &product, &ops[..split], &ops[split..]);
        }
    }

    #[test]
    fn rollback_without_scope_is_noop() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        let before = store.materialized_rows();
        store.rollback_undo();
        assert_eq!(store.materialized_rows(), before);
    }

    #[test]
    fn paper_bytes_accounting() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        store.apply_one(&row![101, 1, 10, 7.0], 1).unwrap();
        // 1 group × 4 fields × 4 bytes.
        assert_eq!(store.paper_bytes(), 16);
    }
}
