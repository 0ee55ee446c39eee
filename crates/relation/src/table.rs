//! Base tables with single-attribute keys, stored columnar.
//!
//! A [`BaseTable`] stores rows as per-attribute typed columns (the
//! [`crate::chunk`] layout) with a tombstone bitmap and a hash index on the
//! key column (the paper assumes every base table has a single-attribute
//! key, Section 2.1). Mutations return [`Change`] records so a warehouse can
//! consume the change stream without re-reading the source — which is the
//! whole point of the paper's setting: the sources may be inaccessible.
//!
//! [`BaseTable::scan`] is how a load reads a table: one window of rows
//! at a time, each read into the same rows. [`BaseTable::rows`]
//! materializes an owned row per live slot, for the readers that keep or
//! filter them (the recompute oracle, the referential-integrity checks,
//! the generators); [`BaseTable::chunks`] is kept for the frozen
//! benchmark alone.
//! Deletions tombstone their slot and the store compacts itself once dead
//! slots dominate, so hot-row churn cannot grow the arrays without bound.

use std::collections::HashMap;

use crate::chunk::{Bitmap, Chunk, ChunkBuilder, ColumnData};
use crate::delta::Change;
use crate::error::{RelationError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// Compact when at least this many slots are dead …
const COMPACT_MIN_DEAD: usize = 64;

/// Default row capacity of one emitted [`Chunk`].
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// A mutable base table over columnar storage.
#[derive(Debug, Clone)]
pub struct BaseTable {
    name: String,
    schema: Schema,
    key_col: usize,
    /// Slot-aligned typed columns; `Str` columns carry a growing
    /// table-level dictionary (chunks re-encode their own on emission).
    cols: Vec<ColumnData>,
    /// Dictionary interners, parallel to `cols` (empty for non-`Str`).
    interners: Vec<HashMap<String, u32>>,
    /// Live bit per slot; cleared slots are tombstones awaiting compaction.
    live: Bitmap,
    dead: usize,
    /// key value -> slot index
    index: HashMap<Value, usize>,
}

impl BaseTable {
    /// Creates an empty table. `key_col` must be a valid column index.
    pub(crate) fn new(name: impl Into<String>, schema: Schema, key_col: usize) -> Result<Self> {
        let name = name.into();
        if key_col >= schema.arity() {
            return Err(RelationError::Invalid(format!(
                "key column index {key_col} out of range for table '{name}' with arity {}",
                schema.arity()
            )));
        }
        let cols = schema
            .columns()
            .iter()
            .map(|c| ColumnData::empty(c.dtype))
            .collect();
        let interners = vec![HashMap::new(); schema.arity()];
        Ok(BaseTable {
            name,
            schema,
            key_col,
            cols,
            interners,
            live: Bitmap::new(),
            dead: 0,
            index: HashMap::new(),
        })
    }

    /// Table name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live.len() - self.dead
    }

    /// Returns `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn value_at(&self, slot: usize, col: usize) -> Value {
        match &self.cols[col] {
            ColumnData::Int(v) => Value::Int(v[slot]),
            ColumnData::Double(v) => Value::Double(v[slot]),
            ColumnData::Str { dict, codes } => Value::Str(dict[codes[slot] as usize].clone()),
            ColumnData::Bool(v) => Value::Bool(v[slot]),
        }
    }

    fn row_at(&self, slot: usize) -> Row {
        Row::new(
            (0..self.schema.arity())
                .map(|c| self.value_at(slot, c))
                .collect(),
        )
    }

    fn push_cell(&mut self, col: usize, value: &Value) {
        match (&mut self.cols[col], value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(*x),
            (ColumnData::Double(v), Value::Double(x)) => v.push(*x),
            (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                let code = match self.interners[col].get(s) {
                    Some(&code) => code,
                    None => {
                        let code = dict.len() as u32;
                        dict.push(s.clone());
                        self.interners[col].insert(s.clone(), code);
                        code
                    }
                };
                codes.push(code);
            }
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(*x),
            _ => unreachable!("row was schema-checked"),
        }
    }

    fn set_cell(&mut self, slot: usize, col: usize, value: &Value) {
        match (&mut self.cols[col], value) {
            (ColumnData::Int(v), Value::Int(x)) => v[slot] = *x,
            (ColumnData::Double(v), Value::Double(x)) => v[slot] = *x,
            (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                let code = match self.interners[col].get(s) {
                    Some(&code) => code,
                    None => {
                        let code = dict.len() as u32;
                        dict.push(s.clone());
                        self.interners[col].insert(s.clone(), code);
                        code
                    }
                };
                codes[slot] = code;
            }
            (ColumnData::Bool(v), Value::Bool(x)) => v[slot] = *x,
            _ => unreachable!("row was schema-checked"),
        }
    }

    /// Overwrites `row`, a row of this table, with the one at `slot`: a
    /// `Str` reuses its `String`'s buffer.
    fn refill(&self, row: &mut Row, slot: usize) {
        for (col, value) in self.cols.iter().zip(row.values_mut()) {
            match (col, value) {
                (ColumnData::Int(v), Value::Int(x)) => *x = v[slot],
                (ColumnData::Double(v), Value::Double(x)) => *x = v[slot],
                (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                    s.clone_from(&dict[codes[slot] as usize]);
                }
                (ColumnData::Bool(v), Value::Bool(x)) => *x = v[slot],
                _ => unreachable!("storage is schema-typed"),
            }
        }
    }

    /// Iterates over all live rows (materialized) in slot order.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.live.iter_ones().map(|slot| self.row_at(slot))
    }

    /// Hands the live rows to `f` in slot order, `window` of them at a
    /// time (the last window may hold fewer, and an empty table hands
    /// none). Every window is read into the same rows, overwritten in
    /// place, so a scan holds one window of the table, never all of it.
    /// Stops at the first error `f` returns.
    pub fn scan<E>(
        &self,
        window: usize,
        mut f: impl FnMut(&[Row]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let window = window.max(1);
        let mut rows: Vec<Row> = Vec::with_capacity(window.min(self.len()));
        let mut slots = self.live.iter_ones();
        loop {
            let mut filled = 0;
            for slot in slots.by_ref().take(window) {
                match rows.get_mut(filled) {
                    Some(row) => self.refill(row, slot),
                    None => rows.push(self.row_at(slot)),
                }
                filled += 1;
            }
            if filled == 0 {
                return Ok(());
            }
            f(&rows[..filled])?;
            if filled < window {
                return Ok(());
            }
        }
    }

    /// Emits the live contents as columnar [`Chunk`]s of at most
    /// `target_rows` rows each, every chunk with string dictionaries of
    /// its own. No reader is left but the frozen benchmark's
    /// `relation.chunk_scan_ms` probe.
    pub fn chunks(&self, target_rows: usize) -> Result<Vec<Chunk>> {
        let target = target_rows.max(1);
        let mut out = Vec::new();
        let mut b = ChunkBuilder::new(self.schema.clone());
        let mut filled = 0;
        for row in self.rows() {
            b.push_row(&row)?;
            filled += 1;
            if filled == target {
                out.push(
                    std::mem::replace(&mut b, ChunkBuilder::new(self.schema.clone())).finish(),
                );
                filled = 0;
            }
        }
        if filled > 0 || out.is_empty() {
            out.push(b.finish());
        }
        Ok(out)
    }

    /// Looks up a row by key value, materializing it.
    pub fn get(&self, key: &Value) -> Option<Row> {
        self.index.get(key).map(|&slot| self.row_at(slot))
    }

    /// Returns `true` if a row with this key exists.
    pub(crate) fn contains_key(&self, key: &Value) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts a row, enforcing schema and key uniqueness.
    pub(crate) fn insert(&mut self, row: Row) -> Result<Change> {
        self.schema.check_row(&self.name, row.values())?;
        let key = row[self.key_col].clone();
        if self.index.contains_key(&key) {
            return Err(RelationError::DuplicateKey {
                table: self.name.clone(),
                key,
            });
        }
        let slot = self.live.len();
        for (c, value) in row.values().iter().enumerate() {
            self.push_cell(c, value);
        }
        self.live.push(true);
        self.index.insert(key, slot);
        Ok(Change::Insert(row))
    }

    fn tombstone(&mut self, key: &Value) -> Result<Change> {
        let slot = *self
            .index
            .get(key)
            .ok_or_else(|| RelationError::KeyNotFound {
                table: self.name.clone(),
                key: key.clone(),
            })?;
        let removed = self.row_at(slot);
        self.index.remove(key);
        self.live.set(slot, false);
        self.dead += 1;
        Ok(Change::Delete(removed))
    }

    /// Deletes the row with the given key, returning the change.
    pub(crate) fn delete(&mut self, key: &Value) -> Result<Change> {
        let change = self.tombstone(key)?;
        self.maybe_compact();
        Ok(change)
    }

    /// Replaces the row with key `key` by `new_row`, in place.
    ///
    /// The new row must keep the same key value — key updates must be issued
    /// as an explicit delete followed by an insert, mirroring how the paper
    /// treats exposed updates.
    pub(crate) fn update(&mut self, key: &Value, new_row: Row) -> Result<Change> {
        self.schema.check_row(&self.name, new_row.values())?;
        if &new_row[self.key_col] != key {
            return Err(RelationError::Invalid(format!(
                "update on table '{}' changes the key from {key} to {}; \
                 issue delete+insert instead",
                self.name, new_row[self.key_col]
            )));
        }
        let slot = *self
            .index
            .get(key)
            .ok_or_else(|| RelationError::KeyNotFound {
                table: self.name.clone(),
                key: key.clone(),
            })?;
        let old = self.row_at(slot);
        for (c, value) in new_row.values().iter().enumerate() {
            self.set_cell(slot, c, value);
        }
        Ok(Change::Update { old, new: new_row })
    }

    /// Rewrites the columns with live slots only once tombstones dominate,
    /// re-interning string dictionaries from scratch so dictionaries of
    /// long-churning tables do not accumulate dead entries.
    fn maybe_compact(&mut self) {
        if self.dead < COMPACT_MIN_DEAD || self.dead * 2 < self.live.len() {
            return;
        }
        let mut cols: Vec<ColumnData> = self
            .schema
            .columns()
            .iter()
            .map(|c| ColumnData::empty(c.dtype))
            .collect();
        let mut interners = vec![HashMap::new(); self.schema.arity()];
        let mut index = HashMap::with_capacity(self.index.len());
        let mut next = 0usize;
        for slot in self.live.iter_ones() {
            for c in 0..self.schema.arity() {
                let value = self.value_at(slot, c);
                match (&mut cols[c], value) {
                    (ColumnData::Int(v), Value::Int(x)) => v.push(x),
                    (ColumnData::Double(v), Value::Double(x)) => v.push(x),
                    (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                        let interner: &mut HashMap<String, u32> = &mut interners[c];
                        let code = match interner.get(&s) {
                            Some(&code) => code,
                            None => {
                                let code = dict.len() as u32;
                                dict.push(s.clone());
                                interner.insert(s, code);
                                code
                            }
                        };
                        codes.push(code);
                    }
                    (ColumnData::Bool(v), Value::Bool(x)) => v.push(x),
                    _ => unreachable!("storage is schema-typed"),
                }
            }
            index.insert(self.value_at(slot, self.key_col), next);
            next += 1;
        }
        self.cols = cols;
        self.interners = interners;
        self.live = Bitmap::filled(next, true);
        self.dead = 0;
        self.index = index;
    }

    /// Estimated storage in the *paper's* model: `rows × fields × 4 bytes`.
    pub fn paper_bytes(&self) -> u64 {
        self.len() as u64 * self.schema.arity() as u64 * Value::PAPER_FIELD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn product_table() -> BaseTable {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("brand", DataType::Str),
            ("category", DataType::Str),
        ]);
        BaseTable::new("product", schema, 0).unwrap()
    }

    #[test]
    fn new_rejects_bad_key_col() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        assert!(BaseTable::new("t", schema, 3).is_err());
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = product_table();
        t.insert(row![1, "acme", "food"]).unwrap();
        t.insert(row![2, "zeta", "drink"]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&Value::Int(1)), Some(row![1, "acme", "food"]));
        assert!(t.contains_key(&Value::Int(2)));
        assert!(!t.contains_key(&Value::Int(3)));
    }

    #[test]
    fn insert_rejects_duplicate_key() {
        let mut t = product_table();
        t.insert(row![1, "acme", "food"]).unwrap();
        let e = t.insert(row![1, "other", "food"]).unwrap_err();
        assert!(matches!(e, RelationError::DuplicateKey { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_rejects_schema_mismatch() {
        let mut t = product_table();
        assert!(t.insert(row![1, 2, 3]).is_err());
        assert!(t.insert(row![1, "acme"]).is_err());
    }

    #[test]
    fn delete_returns_old_row_and_keeps_lookups() {
        let mut t = product_table();
        t.insert(row![1, "a", "x"]).unwrap();
        t.insert(row![2, "b", "y"]).unwrap();
        t.insert(row![3, "c", "z"]).unwrap();
        let c = t.delete(&Value::Int(1)).unwrap();
        assert_eq!(c, Change::Delete(row![1, "a", "x"]));
        assert_eq!(t.get(&Value::Int(3)), Some(row![3, "c", "z"]));
        assert_eq!(t.get(&Value::Int(2)), Some(row![2, "b", "y"]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_missing_key_errors() {
        let mut t = product_table();
        assert!(matches!(
            t.delete(&Value::Int(9)),
            Err(RelationError::KeyNotFound { .. })
        ));
    }

    #[test]
    fn update_replaces_row() {
        let mut t = product_table();
        t.insert(row![1, "a", "x"]).unwrap();
        let c = t.update(&Value::Int(1), row![1, "a2", "x"]).unwrap();
        assert_eq!(
            c,
            Change::Update {
                old: row![1, "a", "x"],
                new: row![1, "a2", "x"]
            }
        );
        assert_eq!(t.get(&Value::Int(1)), Some(row![1, "a2", "x"]));
    }

    #[test]
    fn update_cannot_change_key() {
        let mut t = product_table();
        t.insert(row![1, "a", "x"]).unwrap();
        assert!(t.update(&Value::Int(1), row![2, "a", "x"]).is_err());
    }

    #[test]
    fn update_missing_key_errors() {
        let mut t = product_table();
        assert!(t.update(&Value::Int(1), row![1, "a", "x"]).is_err());
    }

    #[test]
    fn paper_bytes_matches_model() {
        let mut t = product_table();
        t.insert(row![1, "a", "x"]).unwrap();
        t.insert(row![2, "b", "y"]).unwrap();
        // 2 rows × 3 fields × 4 bytes
        assert_eq!(t.paper_bytes(), 24);
    }

    #[test]
    fn chunks_emit_live_rows_with_rolled_dictionaries() {
        let mut t = product_table();
        for i in 0..10 {
            t.insert(row![i, format!("b{}", i % 2), "x"]).unwrap();
        }
        t.delete(&Value::Int(4)).unwrap();
        // The nine live rows, four to a chunk, each chunk interning only
        // the strings of its own rows.
        let live: Vec<Row> = t.rows().collect();
        assert_eq!(live.len(), 9);
        assert!(!live.contains(&row![4, "b0", "x"]));
        let expected: Vec<Chunk> = live
            .chunks(4)
            .map(|rows| {
                let mut b = ChunkBuilder::new(t.schema.clone());
                rows.iter().for_each(|r| b.push_row(r).unwrap());
                b.finish()
            })
            .collect();
        assert_eq!(expected.len(), 3);
        assert_eq!(t.chunks(4).unwrap(), expected);
        assert_eq!(product_table().chunks(4).unwrap().len(), 1);
    }

    #[test]
    fn scan_hands_out_the_rows_rows_yields_one_window_at_a_time() {
        // Brands of 0 to 12 bytes in no order, so a reused string shrinks
        // and grows from one window to the next.
        let brand = |i: i64| "b".repeat((i * 7 % 13) as usize);
        let mut tombstoned = product_table();
        for i in 0..40 {
            tombstoned
                .insert(row![i, brand(i), format!("c{}", i % 3)])
                .unwrap();
        }
        for i in (0..40).step_by(3) {
            tombstoned.delete(&Value::Int(i)).unwrap();
        }
        assert_eq!((tombstoned.dead, tombstoned.len()), (14, 26));
        let mut compacted = product_table();
        for i in 0..200 {
            compacted.insert(row![i, brand(i), "x"]).unwrap();
        }
        for i in (0..200).filter(|i| i % 4 != 1) {
            compacted.delete(&Value::Int(i)).unwrap();
        }
        // Compacted to 100 slots at the 100th delete, 50 tombstoned since.
        assert_eq!((compacted.live.len(), compacted.dead), (100, 50));
        for i in 200..210 {
            compacted.insert(row![i, brand(i), "y"]).unwrap();
        }
        compacted.delete(&Value::Int(201)).unwrap();

        for table in [tombstoned, compacted, product_table()] {
            let expected: Vec<Row> = table.rows().collect();
            let n = expected.len();
            for window in [1, 3, n.saturating_sub(1), n, n + 1] {
                let (mut seen, mut sizes) = (Vec::new(), Vec::new());
                let scanned = table.scan(window, |rows| {
                    sizes.push(rows.len());
                    seen.extend_from_slice(rows);
                    Ok::<(), ()>(())
                });
                assert_eq!((scanned, &seen), (Ok(()), &expected), "window {window}");
                let full = &sizes[..sizes.len().saturating_sub(1)];
                assert!(full.iter().all(|&len| len == window.max(1)), "{sizes:?}");
                assert_eq!(sizes.len(), n.div_ceil(window.max(1)));
            }
        }
    }

    #[test]
    fn scan_stops_at_the_first_error() {
        let mut t = product_table();
        for i in 0..10 {
            t.insert(row![i, "a", "x"]).unwrap();
        }
        let mut windows = 0;
        let scanned = t.scan(4, |rows| {
            windows += 1;
            if rows[0][0] == Value::Int(4) {
                return Err("second window");
            }
            Ok(())
        });
        assert_eq!((scanned, windows), (Err("second window"), 2));
    }

    #[test]
    fn churn_triggers_compaction_and_preserves_contents() {
        let mut t = product_table();
        for i in 0..200 {
            t.insert(row![i, format!("b{i}"), "x"]).unwrap();
        }
        for i in 0..150 {
            t.delete(&Value::Int(i)).unwrap();
        }
        // Compaction must have rewritten the store densely.
        assert!(t.live.len() < 200);
        assert_eq!(t.len(), 50);
        for i in 150..200 {
            assert_eq!(t.get(&Value::Int(i)), Some(row![i, format!("b{i}"), "x"]));
        }
        // Inserts keep working against the compacted store.
        t.insert(row![500, "new", "x"]).unwrap();
        assert_eq!(t.get(&Value::Int(500)), Some(row![500, "new", "x"]));
    }
}
