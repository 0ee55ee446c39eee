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
//! when a group comes or goes, so the journal of the store's groups puts
//! both back on rollback.

use std::collections::hash_map::Entry;
use std::vec::Drain;

use md_core::AuxViewDef;
use md_relation::{
    sort_by_row, Catalog, DataType, GroupKey, Row, RowKey, SeededHashMap, SeededHashSet, TableId,
    Value,
};

use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::groups::{as_slice, Counted, Groups, Upkeep};

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

as_slice!(Sums(SumsRepr) of ExactSum: One | Other);

impl Counted for AuxGroupState {
    type Undo = ExactSum;

    fn count(&self) -> u64 {
        self.cnt
    }

    fn restore(&mut self, cnt: u64, undo: Drain<'_, ExactSum>) {
        self.cnt = cnt;
        self.sums.iter_mut().zip(undo).for_each(|(s, was)| *s = was);
    }
}

/// Per foreign-key value, the group keys of a root store that hold it.
pub(crate) type FkMap = SeededHashMap<Value, SeededHashSet<GroupKey>>;

/// One root→child edge of a root store's foreign-key index.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
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

/// What a store keeps beside its groups: the key index and the
/// foreign-key index. Both change only when a group comes or goes — the
/// [`Upkeep`] the store's fold, rollback and install call — so the
/// groups' one journal puts both back on rollback.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Indexes {
    /// The view's name, for a refusal.
    view: String,
    /// Position of the table's key within the group key, when retained.
    key_pos: Option<usize>,
    /// Key value → the one group key holding it, a copy of the tuple's
    /// key in place: a join hop reads the tuple here and never probes the
    /// groups. Filled iff `key_pos` is set, and exact — every group under
    /// its key value and nothing else: `created` refuses a second tuple
    /// under a held key value, and [`AuxStore::key_index_is_exact`]
    /// checks it.
    key_index: SeededHashMap<Value, GroupKey>,
    /// The foreign-key index of a root store, over the edges its
    /// subscribers join along (none for a dimension store).
    fk: Vec<FkEdge>,
}

impl Upkeep for Indexes {
    fn created(&mut self, key: &GroupKey) -> Result<()> {
        if let Some(kp) = self.key_pos {
            match self.key_index.entry(key[kp].clone()) {
                Entry::Vacant(slot) => {
                    slot.insert(key.clone());
                }
                Entry::Occupied(held) => {
                    return Err(MaintainError::InvariantViolation(format!(
                        "{} would hold tuple {key} beside {} under one key value",
                        self.view,
                        held.get()
                    )));
                }
            }
        }
        for edge in &mut self.fk {
            edge.add(key);
        }
        Ok(())
    }

    fn removed(&mut self, key: &dyn RowKey) {
        // An entry that points at another group is that group's.
        if let Some(kp) = self.key_pos {
            let value = key.value(kp);
            let points_here = |group: &GroupKey| key == group as &dyn RowKey;
            if self.key_index.get(value).is_some_and(points_here) {
                self.key_index.remove(value);
            }
        }
        for edge in &mut self.fk {
            edge.remove(key);
        }
    }
}

/// The materialized contents of one auxiliary view.
#[derive(Debug, Clone)]
pub struct AuxStore {
    def: AuxViewDef,
    /// Source column indices of the group columns (cached from `def`).
    group_srcs: Vec<usize>,
    /// The sum columns' types (what each sum emits as), one per sum
    /// column.
    sum_types: Vec<DataType>,
    /// Group key → state: read and written by the folds alone.
    groups: Groups<AuxGroupState>,
    index: Indexes,
}

impl AuxStore {
    /// Creates an empty store for `def`.
    pub fn new(def: AuxViewDef, catalog: &Catalog) -> Result<Self> {
        let group_srcs = def.group_source_cols();
        let table = catalog.def(def.table)?;
        let sum_types: Vec<DataType> = (def.sum_cols().into_iter())
            .map(|(_, s)| table.schema.column(s).dtype)
            .collect();
        let blank = AuxGroupState {
            sums: sum_types.iter().map(|_| ExactSum::default()).collect(),
            cnt: 0,
        };
        let index = Indexes {
            view: def.name.clone(),
            key_pos: group_srcs.iter().position(|&s| s == table.key_col),
            key_index: SeededHashMap::default(),
            fk: Vec::new(),
        };
        Ok(AuxStore {
            def,
            group_srcs,
            sum_types,
            groups: Groups::new(blank),
            index,
        })
    }

    /// Opens an undo scope: every group mutation until
    /// [`Self::commit_undo`] or [`Self::rollback_undo`] journals the
    /// group's prior state so the store can be restored exactly.
    pub(crate) fn begin_undo(&mut self) {
        self.groups.begin();
    }

    /// Closes the undo scope, keeping all mutations.
    pub(crate) fn commit_undo(&mut self) {
        self.groups.commit();
    }

    /// Closes the undo scope, restoring every touched group (and the key
    /// and foreign-key indexes) to its pre-transaction state. No-op
    /// without an open scope.
    pub(crate) fn rollback_undo(&mut self) {
        self.groups.rollback(&mut self.index);
    }

    /// The definition this store materializes.
    pub fn def(&self) -> &AuxViewDef {
        &self.def
    }

    /// Source column indices of the group columns, in group-key order.
    pub(crate) fn group_srcs(&self) -> &[usize] {
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
        if self.index.key_pos.is_some() {
            self.index.key_index.reserve(groups);
        }
    }

    /// Applies a *run* of source-row occurrences that all project onto
    /// the same group `key`, which the caller only lends, in one pass
    /// (`Groups::fold`): `signs` holds each occurrence's sign, +1
    /// (insert) or −1 (delete), in order, and `sums` the run's net sum of
    /// each sum column. The signs move the count one at a time, so a
    /// delete of a row the group does not hold yet is refused, and the
    /// sums are merged once. A run of many leaves the image its
    /// occurrences would leave as runs of one, in any order. The caller is
    /// responsible for local-condition filtering, semijoin reduction and
    /// the sums: this is the only fold into the compressed representation,
    /// and it reads no source row. In a keyed store a run that would leave
    /// its group counting two tuples, or create a group under a key value
    /// another group holds, is refused: the key index that join hops read
    /// stays exact. On error the store is as it was before the run.
    pub fn apply_source_run(
        &mut self,
        key: &dyn RowKey,
        signs: &[i64],
        sums: &[ExactSum],
    ) -> Result<()> {
        let (keyed, view) = (self.index.key_pos.is_some(), &self.def.name);
        if sums.len() != self.sum_types.len() {
            let why = format!("a run into {view} carries {} sums", sums.len());
            return Err(MaintainError::InvariantViolation(why));
        }
        self.groups.fold(key, &mut self.index, |state, undo| {
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
            undo.extend(state.sums.iter().cloned());
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
        })
    }

    /// What must hold of a group before the store takes it from outside (a
    /// snapshot image): a key of the view's arity — a shorter one would
    /// panic on indexed access later — one sum per sum column, each one
    /// its column can have, and a count, since a group stands for at least
    /// one row. In a keyed store the group is one tuple, counted once,
    /// under a key value no group taken before holds.
    pub(crate) fn check_group(&self, key: &GroupKey, state: &AuxGroupState) -> Result<()> {
        let (arity, sums) = (self.group_srcs.len(), self.sum_types.len());
        let key_pos = self.index.key_pos;
        let admitted = |(sum, &dtype): (&ExactSum, &DataType)| sum.admits(dtype);
        let broken = if key.arity() != arity || state.sums.len() != sums {
            format!(
                "key arity {} and {} sums, the view expects {arity} and {sums}",
                key.arity(),
                state.sums.len()
            )
        } else if state.cnt == 0 {
            "stands for no row".to_owned()
        } else if key_pos.is_some() && state.cnt != 1 {
            format!("a keyed tuple stands for {} rows", state.cnt)
        } else if let Some(held) = key_pos.and_then(|kp| self.index.key_index.get(&key[kp])) {
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
    /// [`Self::check_group`] passed, and indexes it.
    pub(crate) fn install_group(&mut self, key: GroupKey, state: AuxGroupState) -> Result<()> {
        self.groups.install(key, state, &mut self.index)
    }

    /// Looks up a group's state by group key.
    pub(crate) fn get(&self, group_key: &dyn RowKey) -> Option<&AuxGroupState> {
        self.groups.get(group_key)
    }

    /// The stored tuple under the base table's key value: one probe of
    /// the key index, which holds the tuple's key in place — the groups
    /// are not read. Only a keyed store answers (every dimension store is
    /// one).
    pub fn lookup_by_key(&self, key: &Value) -> Option<&GroupKey> {
        self.index.key_index.get(key)
    }

    /// Returns `true` when a tuple with this base-table key exists — the
    /// semijoin membership test.
    pub fn contains_key_value(&self, key: &Value) -> bool {
        self.index.key_index.contains_key(key)
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
        match self.index.fk.iter_mut().find(|e| e.edge == edge) {
            Some(held) => held.subscribers += 1,
            None => self.index.fk.push(self.fk_edge(edge, 1)),
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
        let edges = std::mem::take(&mut self.index.fk);
        let filled = fill(self);
        let reindexed = edges.iter().map(|e| self.fk_edge(e.edge, e.subscribers));
        self.index.fk = reindexed.collect();
        filled
    }

    /// One subscriber less joins along `edge`; the last one takes the
    /// edge's index with it.
    pub(crate) fn fk_unsubscribe(&mut self, edge: (TableId, usize)) {
        let fk = &mut self.index.fk;
        if let Some(at) = fk.iter().position(|e| e.edge == edge) {
            fk[at].subscribers -= 1;
            if fk[at].subscribers == 0 {
                fk.remove(at);
            }
        }
    }

    /// The group keys under each foreign-key value of `edge`, when the
    /// store indexes it.
    pub(crate) fn fk_keys(&self, edge: (TableId, usize)) -> Option<&FkMap> {
        let held = self.index.fk.iter().find(|e| e.edge == edge)?;
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
        edges.iter().all(|edge| self.fk_keys(*edge).is_some()) && self.index.fk.iter().all(exact)
    }

    /// Whether the key index is what a rebuild would derive: every group
    /// under its key value, and nothing else (nothing at all in a store
    /// that is not keyed). A join hop reads the index alone, so a rebuild
    /// of `V` cannot tell a stale entry from a true one; this can. Probes,
    /// builds nothing.
    pub(crate) fn key_index_is_exact(&self) -> bool {
        let key_index = &self.index.key_index;
        let Some(kp) = self.index.key_pos else {
            return key_index.is_empty();
        };
        key_index.len() == self.groups.len()
            && (self.groups.keys()).all(|key| key_index.get(&key[kp]) == Some(key))
    }
}

#[cfg(test)]
impl AuxStore {
    /// Values held by the open undo scope: the keys and prior sums of
    /// every record.
    pub(crate) fn undo_weight(&self) -> usize {
        let (_, keys, sums) = self.groups.journal();
        keys.len() + sums.len()
    }

    /// Records held by the open undo scope.
    pub(crate) fn undo_records(&self) -> usize {
        self.groups.journal().0
    }

    /// Drops one foreign-key value of `edge` from the index (tests of the
    /// audit).
    pub(crate) fn fk_forget(&mut self, edge: (TableId, usize), value: &Value) {
        let held = self.index.fk.iter_mut().find(|e| e.edge == edge);
        held.expect("indexed").keys.remove(value);
    }

    /// Drops one key value from the key index (tests of the audit).
    pub(crate) fn key_forget(&mut self, value: &Value) {
        self.index.key_index.remove(value);
    }

    /// A run of source-row occurrences `(sign, row)`, its net sums taken
    /// here (unit-test shorthand).
    pub(crate) fn apply_rows(&mut self, key: &dyn RowKey, occs: &[(i64, &Row)]) -> Result<()> {
        let sum_srcs: Vec<usize> = self.def.sum_cols().into_iter().map(|(_, s)| s).collect();
        let mut sums: Vec<ExactSum> = sum_srcs.iter().map(|_| ExactSum::default()).collect();
        for (sign, row) in occs {
            for (sum, &s) in sums.iter_mut().zip(&sum_srcs) {
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
pub(crate) mod tests {
    use super::*;
    use crate::groups::tests::{check_journal, same_image, Grouped};
    use crate::resolve::Binding;
    use md_core::{AuxColKind, AuxColumn};
    use md_relation::{row, DataType, Schema};
    use proptest::prelude::*;

    pub(crate) fn sale_fixture() -> (Catalog, AuxStore) {
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
        assert_eq!((store.undo_records(), store.undo_weight()), (0, 0));
        // Created and removed within one run: never there, not journaled.
        let other = row![101, 2, 11, 1.0];
        let flicker = store.apply_rows(&row![2, 11], &[(1, &other), (-1, &other)]);
        flicker.unwrap();
        assert!(store.get(&row![2, 11]).is_none());
        assert_eq!(store.undo_records(), 0);
        // A run that lands: the key and the prior sum, three values.
        store.apply_one(&row![102, 1, 10, 7.0], 1).unwrap();
        assert_eq!((store.undo_records(), store.undo_weight()), (1, 3));
        store.rollback_undo();
        assert!(same_image(&store, &before));
        assert_eq!(store.undo_weight(), 0);
    }

    impl Grouped for AuxStore {
        type State = AuxGroupState;
        type Kept = Indexes;

        fn parts(&self) -> (&Groups<AuxGroupState>, &Indexes) {
            (&self.groups, &self.index)
        }

        fn parts_mut(&mut self) -> (&mut Groups<AuxGroupState>, &mut Indexes) {
            (&mut self.groups, &mut self.index)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: if cfg!(miri) { 8 } else { 256 } })]

        /// Retained key: product `k` is `(k, a)`, then `(k, b)`, then
        /// `(k, a)` or `(k, c)` — groups that share a key-index slot. One
        /// row per key at a time, as a keyed source guarantees.
        #[test]
        fn journal_restores_the_key_index_through_key_sharing_chains(
            renames in proptest::collection::vec((0..2i64, 0..3u8), 0..10),
            split in 0..10usize,
        ) {
            let (_, mut store) = dim_fixture();
            let brands = ["acme", "mega", "zeta"];
            // Product k moves to brand b: −(k, old) +(k, b), runs of one;
            // its first appearance is the insert alone.
            let mut current = [None; 2];
            let ops: Vec<(i64, Row)> = renames
                .iter()
                .flat_map(|&(k, brand)| {
                    let was = current[k as usize].replace(brand);
                    let gone = was.map(|old| (-1, row![k, brands[usize::from(old)]]));
                    gone.into_iter().chain([(1, row![k, brands[usize::from(brand)]])])
                })
                .collect();
            let split = split.min(ops.len());
            for (sign, product) in &ops[..split] {
                store.apply_one(product, *sign).unwrap();
            }
            let key_of = |store: &AuxStore, (_, product): &(i64, Row)| store.group_key_of(product);
            let run = |store: &mut AuxStore, (sign, product): &(i64, Row)| store.apply_one(product, *sign);
            check_journal(&mut store, &ops[split..], key_of, run);
            // The key index lists every group under its key, and nothing else.
            assert!(store.key_index_is_exact());
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
