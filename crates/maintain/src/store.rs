//! Materialized auxiliary view stores.
//!
//! An [`AuxStore`] holds the contents of one auxiliary view `X_{Rᵢ}` as a
//! map from the *group key* (the raw group-column values) to the compressed
//! per-group state: the `SUM` columns and the `COUNT(*)`. A degenerate PSJ
//! auxiliary view (key retained) is simply the special case where every
//! group has count 1 and no sum columns.
//!
//! When the base table's key is among the group columns, the store also
//! maintains a key index so that join partners and semijoin filters can
//! resolve rows by key in O(1) — the access path used throughout
//! maintenance and reconstruction.

use std::collections::HashMap;

use md_core::AuxViewDef;
use md_relation::{Catalog, Row, Value};

use crate::error::{MaintainError, Result};

/// Per-group compressed state: the sum columns and the duplicate count.
#[derive(Debug, Clone, PartialEq)]
pub struct AuxGroupState {
    /// Current `SUM(a)` per sum column, parallel to
    /// [`AuxViewDef::sum_cols`].
    pub sums: Vec<Value>,
    /// Current `COUNT(*)` of the group — the `cnt₀` of the paper's
    /// reconstruction rules. Always 1 for degenerate PSJ views.
    pub cnt: u64,
}

/// The materialized contents of one auxiliary view.
#[derive(Debug, Clone)]
pub struct AuxStore {
    def: AuxViewDef,
    /// Source column indices of the group columns (cached from `def`).
    group_srcs: Vec<usize>,
    /// Source column indices of the sum columns (cached from `def`).
    sum_srcs: Vec<usize>,
    /// Position of the table's key within the group key, when retained.
    key_pos: Option<usize>,
    groups: HashMap<Row, AuxGroupState>,
    /// key value → group key, present iff `key_pos` is.
    key_index: HashMap<Value, Row>,
    /// Undo log of the transaction in progress, when one is open: the
    /// prior state of every group first touched since [`Self::begin_undo`]
    /// (`None` = the group did not exist). First touch wins, so rollback
    /// restores exactly the pre-transaction image.
    undo: Option<HashMap<Row, Option<AuxGroupState>>>,
}

impl AuxStore {
    /// Creates an empty store for `def`.
    pub fn new(def: AuxViewDef, catalog: &Catalog) -> Result<Self> {
        let group_srcs = def.group_source_cols();
        let sum_srcs: Vec<usize> = def.sum_cols().into_iter().map(|(_, s)| s).collect();
        let key_src = catalog.def(def.table)?.key_col;
        let key_pos = group_srcs.iter().position(|&s| s == key_src);
        Ok(AuxStore {
            def,
            group_srcs,
            sum_srcs,
            key_pos,
            groups: HashMap::new(),
            key_index: HashMap::new(),
            undo: None,
        })
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

    /// Closes the undo scope, restoring every touched group (and the key
    /// index) to its pre-transaction state. No-op without an open scope.
    pub(crate) fn rollback_undo(&mut self) {
        let Some(undo) = self.undo.take() else {
            return;
        };
        // Removals first: a transaction may have replaced group (k, a)
        // with (k, b) for the same key value k, and the key-index entry
        // for k must end up pointing at the restored group.
        for (key, prior) in &undo {
            if prior.is_none() {
                self.groups.remove(key);
                if let Some(kp) = self.key_pos {
                    if self.key_index.get(&key[kp]) == Some(key) {
                        self.key_index.remove(&key[kp]);
                    }
                }
            }
        }
        for (key, prior) in undo {
            if let Some(state) = prior {
                if let Some(kp) = self.key_pos {
                    self.key_index.insert(key[kp].clone(), key.clone());
                }
                self.groups.insert(key, state);
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

    /// Applies a *run* of source-row occurrences — `(sign, row)` with sign
    /// +1 (insert) or −1 (delete) — that all project onto the same group
    /// `key`, in one pass: the group is hashed and undo-logged once, the
    /// occurrences are replayed in order on a local state, and the final
    /// state is written back. A run of many leaves the image its
    /// occurrences would leave as runs of one — replay performs the same
    /// additions in the same order, and transient create/remove cycles
    /// collapse to the same final map and key-index entries. The caller is
    /// responsible for local-condition filtering and semijoin reduction;
    /// this is the only fold into the compressed representation. Returns
    /// the group's presence before and after the run. On error nothing is
    /// written back.
    pub fn apply_source_run<'a, I>(&mut self, key: &Row, occs: I) -> Result<(bool, bool)>
    where
        I: IntoIterator<Item = (i64, &'a Row)>,
    {
        self.note_undo(key);
        let was_present = self.groups.contains_key(key);
        let mut state = self.groups.get(key).cloned();
        for (sign, row) in occs {
            match sign {
                1 => {
                    let st = state.get_or_insert_with(|| AuxGroupState {
                        sums: Vec::new(),
                        cnt: 0,
                    });
                    if st.cnt == 0 {
                        st.sums = self.sum_srcs.iter().map(|&s| row[s].clone()).collect();
                    } else {
                        for (slot, &s) in st.sums.iter_mut().zip(&self.sum_srcs) {
                            *slot = slot.add(&row[s]).map_err(MaintainError::from)?;
                        }
                    }
                    st.cnt += 1;
                }
                -1 => {
                    let Some(st) = state.as_mut() else {
                        return Err(MaintainError::InvariantViolation(format!(
                            "delete of a row whose group {key} is absent from {}",
                            self.def.name
                        )));
                    };
                    if st.cnt == 0 {
                        return Err(MaintainError::InvariantViolation(format!(
                            "group {key} in {} already empty",
                            self.def.name
                        )));
                    }
                    st.cnt -= 1;
                    if st.cnt == 0 {
                        state = None;
                    } else {
                        for (slot, &s) in st.sums.iter_mut().zip(&self.sum_srcs) {
                            *slot = slot.sub(&row[s]).map_err(MaintainError::from)?;
                        }
                    }
                }
                other => {
                    return Err(MaintainError::InvariantViolation(format!(
                        "sign must be ±1, got {other}"
                    )))
                }
            }
        }
        let now_present = state.is_some();
        match state {
            Some(st) => {
                if let Some(kp) = self.key_pos {
                    self.key_index.insert(key[kp].clone(), key.clone());
                }
                self.groups.insert(key.clone(), st);
            }
            None => {
                if was_present {
                    self.groups.remove(key);
                    if let Some(kp) = self.key_pos {
                        self.key_index.remove(&key[kp]);
                    }
                }
            }
        }
        Ok((was_present, now_present))
    }

    /// Installs a fully-formed group (snapshot restore). Replaces any
    /// existing group with the same key and maintains the key index.
    pub fn install_group(&mut self, group_key: Row, state: AuxGroupState) {
        self.note_undo(&group_key);
        if let Some(kp) = self.key_pos {
            self.key_index
                .insert(group_key[kp].clone(), group_key.clone());
        }
        self.groups.insert(group_key, state);
    }

    /// Looks up a group's state by group key.
    pub fn get(&self, group_key: &Row) -> Option<&AuxGroupState> {
        self.groups.get(group_key)
    }

    /// Looks up a stored tuple by the base table's key value. Only
    /// available when the key is retained (always true for dimensions).
    pub fn lookup_by_key(&self, key: &Value) -> Option<(&Row, &AuxGroupState)> {
        let group = self.key_index.get(key)?;
        self.groups.get_key_value(group)
    }

    /// Returns `true` when a tuple with this base-table key exists — the
    /// semijoin membership test.
    pub fn contains_key_value(&self, key: &Value) -> bool {
        self.key_index.contains_key(key)
    }

    /// Iterates over `(group key, state)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, &AuxGroupState)> {
        self.groups.iter()
    }

    /// The value of source column `src_col` within a stored group row, if
    /// that column is retained raw.
    pub fn group_value<'a>(&self, group_key: &'a Row, src_col: usize) -> Option<&'a Value> {
        self.group_srcs
            .iter()
            .position(|&s| s == src_col)
            .map(|i| &group_key[i])
    }

    /// Materializes the full auxiliary view contents as rows in the
    /// auxiliary view's output schema (group cols, sum cols, count).
    pub fn materialized_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .groups
            .iter()
            .map(|(key, state)| {
                let mut vals = key.values().to_vec();
                vals.extend(state.sums.iter().cloned());
                if self.def.count_col().is_some() {
                    vals.push(Value::Int(state.cnt as i64));
                }
                Row::new(vals)
            })
            .collect();
        rows.sort();
        rows
    }

    /// Storage footprint in the paper's model: `tuples × fields × 4 bytes`.
    pub fn paper_bytes(&self) -> u64 {
        self.groups.len() as u64 * self.def.paper_row_bytes()
    }

    /// Estimated actual heap footprint of the stored tuples.
    pub fn heap_bytes(&self) -> u64 {
        self.groups
            .iter()
            .map(|(k, s)| {
                k.heap_bytes()
                    + s.sums.iter().map(Value::heap_bytes).sum::<u64>()
                    + std::mem::size_of::<AuxGroupState>() as u64
            })
            .sum()
    }
}

#[cfg(test)]
impl AuxStore {
    /// One occurrence as a run of one (unit-test shorthand): the group's
    /// presence before and after.
    pub(crate) fn apply_one(&mut self, source_row: &Row, sign: i64) -> Result<(bool, bool)> {
        self.apply_source_run(&self.group_key_of(source_row), [(sign, source_row)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::{AuxColKind, AuxColumn};
    use md_relation::{row, DataType, Schema};

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

    #[test]
    fn duplicate_compression_accumulates() {
        // Reproduces the paper's Table 3 → Table 4 compression: rows with
        // equal (timeid, productid) collapse into SUM(price), COUNT(*).
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        store.apply_one(&row![101, 1, 10, 7.0], 1).unwrap();
        store.apply_one(&row![102, 1, 11, 3.0], 1).unwrap();
        assert_eq!(store.len(), 2);
        let s = store.get(&row![1, 10]).unwrap();
        assert_eq!(s.sums, vec![Value::Double(12.0)]);
        assert_eq!(s.cnt, 2);
    }

    #[test]
    fn deletion_decrements_and_removes_empty_groups() {
        let (_, mut store) = sale_fixture();
        store.apply_one(&row![100, 1, 10, 5.0], 1).unwrap();
        store.apply_one(&row![101, 1, 10, 7.0], 1).unwrap();
        let e = store.apply_one(&row![100, 1, 10, 5.0], -1).unwrap();
        assert_eq!(e, (true, true));
        assert_eq!(
            store.get(&row![1, 10]).unwrap().sums,
            vec![Value::Double(7.0)]
        );
        let e = store.apply_one(&row![101, 1, 10, 7.0], -1).unwrap();
        assert_eq!(e, (true, false));
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
            .apply_source_run(&row![1, 10], [(-1, &old), (1, &new)])
            .unwrap();
        assert_eq!(
            store.get(&row![1, 10]).unwrap().sums,
            vec![Value::Double(8.0)]
        );
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
        let (g, s) = store.lookup_by_key(&Value::Int(7)).unwrap();
        assert_eq!(g, &row![7, "acme"]);
        assert_eq!(s.cnt, 1);
        store.apply_one(&row![7, "acme"], -1).unwrap();
        assert!(!store.contains_key_value(&Value::Int(7)));
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
        assert_eq!(store.group_value(&key, 1), Some(&Value::Int(1)));
        assert_eq!(store.group_value(&key, 2), Some(&Value::Int(10)));
        assert_eq!(store.group_value(&key, 3), None); // price is summed
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
            store.lookup_by_key(&Value::Int(7)).unwrap().0,
            &row![7, "mega"]
        );
        store.rollback_undo();
        assert_eq!(
            store.lookup_by_key(&Value::Int(7)).unwrap().0,
            &row![7, "acme"]
        );
        assert!(store.get(&row![7, "mega"]).is_none());
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
        assert!(store.heap_bytes() > 0);
    }
}
