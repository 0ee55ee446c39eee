//! Catalogs (schema-level metadata) and databases (instances).
//!
//! A [`Catalog`] records table definitions, their single-attribute keys,
//! referential integrity constraints and each table's *update contract*:
//! the set of columns that source updates are allowed to modify. The paper
//! calls an update *exposed* when it can change attributes involved in
//! selection or join conditions of a view (Section 2.1); exposure is
//! therefore a property of a (table, view) pair and is computed in
//! `md-core` from the update contract recorded here.
//!
//! A [`Database`] pairs a catalog with table instances and optionally
//! enforces referential integrity on mutation, mimicking the operational
//! sources the warehouse cannot query.

use std::collections::BTreeSet;
use std::fmt;

use crate::delta::Change;
use crate::error::{RelationError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::table::BaseTable;
use crate::value::Value;

/// Identifier of a table within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Schema-level definition of a base table.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name, unique in the catalog.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Index of the single-attribute key column.
    pub key_col: usize,
    /// Columns that updates from the source may modify. The key column is
    /// never updatable (key changes arrive as delete+insert). By default all
    /// non-key columns are updatable — the most pessimistic contract.
    pub updatable_columns: BTreeSet<usize>,
    /// Whether the source guarantees this table only ever receives
    /// insertions — the paper's *old detail data* regime (Section 4),
    /// under which the CSMA definition relaxes because only insertions
    /// must be considered. Implies an empty update contract.
    pub insert_only: bool,
}

impl TableDef {
    /// Name of the key column.
    pub(crate) fn key_name(&self) -> &str {
        &self.schema.column(self.key_col).name
    }
}

/// A referential integrity constraint `from.from_col -> to.key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub from: TableId,
    /// Referencing (foreign key) column in `from`.
    pub from_col: usize,
    /// Referenced table; the referenced column is always its key.
    pub to: TableId,
}

/// Schema-level metadata: table definitions plus constraints.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    foreign_keys: Vec<ForeignKey>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a table with the default (all non-key columns) update contract.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        key_col: usize,
    ) -> Result<TableId> {
        let name = name.into();
        if self.table_id(&name).is_some() {
            return Err(RelationError::Invalid(format!(
                "table '{name}' already exists in catalog"
            )));
        }
        if key_col >= schema.arity() {
            return Err(RelationError::Invalid(format!(
                "key column index {key_col} out of range for table '{name}'"
            )));
        }
        let updatable: BTreeSet<usize> = (0..schema.arity()).filter(|&c| c != key_col).collect();
        self.tables.push(TableDef {
            name,
            schema,
            key_col,
            updatable_columns: updatable,
            insert_only: false,
        });
        Ok(TableId(self.tables.len() - 1))
    }

    /// Restricts a table's update contract to exactly `columns`.
    ///
    /// Declaring a tighter contract (e.g. "dimension rows are append-only,
    /// only `manager` may change") is how a deployment lets the derivation
    /// prove the absence of exposed updates and thereby enables join
    /// reductions (paper Section 2.2).
    pub fn set_updatable_columns(&mut self, table: TableId, columns: &[usize]) -> Result<()> {
        let def = self.def_mut(table)?;
        for &c in columns {
            if c >= def.schema.arity() {
                return Err(RelationError::Invalid(format!(
                    "updatable column {c} out of range for table '{}'",
                    def.name
                )));
            }
            if c == def.key_col {
                return Err(RelationError::Invalid(format!(
                    "key column of table '{}' cannot be updatable",
                    def.name
                )));
            }
        }
        def.updatable_columns = columns.iter().copied().collect();
        // Granting any mutation capability revokes an insert-only pledge;
        // set_insert_only re-establishes it explicitly.
        def.insert_only = false;
        Ok(())
    }

    /// Declares a table as never receiving updates by emptying its update
    /// contract (deletions remain possible).
    pub fn set_append_only(&mut self, table: TableId) -> Result<()> {
        self.set_updatable_columns(table, &[])
    }

    /// Declares a table *insert-only* (the paper's old-detail-data regime,
    /// Section 4): no updates and no deletions ever arrive from the
    /// source. Implies an empty update contract and lets the derivation
    /// relax the CSMA requirements (`MIN`/`MAX` become maintainable).
    pub fn set_insert_only(&mut self, table: TableId) -> Result<()> {
        self.set_updatable_columns(table, &[])?;
        self.def_mut(table)?.insert_only = true;
        Ok(())
    }

    /// Adds a referential integrity constraint from `from.from_col` to the
    /// key of `to`. The referencing column must have the same type as the
    /// referenced key.
    pub fn add_foreign_key(&mut self, from: TableId, from_col: usize, to: TableId) -> Result<()> {
        let from_def = self.def(from)?;
        let to_def = self.def(to)?;
        if from_col >= from_def.schema.arity() {
            return Err(RelationError::Invalid(format!(
                "foreign key column {from_col} out of range for table '{}'",
                from_def.name
            )));
        }
        let from_ty = from_def.schema.column(from_col).dtype;
        let to_ty = to_def.schema.column(to_def.key_col).dtype;
        if from_ty != to_ty {
            return Err(RelationError::Invalid(format!(
                "foreign key type mismatch: {}.{} is {from_ty}, {}.{} is {to_ty}",
                from_def.name,
                from_def.schema.column(from_col).name,
                to_def.name,
                to_def.key_name(),
            )));
        }
        self.foreign_keys.push(ForeignKey { from, from_col, to });
        Ok(())
    }

    /// All table ids.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> {
        (0..self.tables.len()).map(TableId)
    }

    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|t| t.name == name).map(TableId)
    }

    /// The definition of `table`.
    pub fn def(&self, table: TableId) -> Result<&TableDef> {
        self.tables
            .get(table.0)
            .ok_or_else(|| RelationError::Invalid(format!("no table with id {table}")))
    }

    fn def_mut(&mut self, table: TableId) -> Result<&mut TableDef> {
        self.tables
            .get_mut(table.0)
            .ok_or_else(|| RelationError::Invalid(format!("no table with id {table}")))
    }

    /// All declared foreign keys.
    pub(crate) fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Returns the foreign key constraint from `from.from_col` to `to`, if
    /// one is declared.
    pub fn foreign_key(&self, from: TableId, from_col: usize, to: TableId) -> Option<&ForeignKey> {
        self.foreign_keys
            .iter()
            .find(|fk| fk.from == from && fk.from_col == from_col && fk.to == to)
    }

    /// Foreign keys whose referencing side is `from`.
    pub fn foreign_keys_from(&self, from: TableId) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter().filter(move |fk| fk.from == from)
    }

    /// Foreign keys whose referenced side is `to`.
    pub(crate) fn foreign_keys_to(&self, to: TableId) -> impl Iterator<Item = &ForeignKey> {
        self.foreign_keys.iter().filter(move |fk| fk.to == to)
    }
}

/// A catalog plus table instances: the simulated operational data store.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<BaseTable>,
    enforce_ri: bool,
}

impl Database {
    /// Creates an empty database over `catalog` with referential integrity
    /// enforcement enabled.
    pub fn new(catalog: Catalog) -> Self {
        let tables = catalog
            .tables
            .iter()
            .map(|d| {
                BaseTable::new(d.name.clone(), d.schema.clone(), d.key_col)
                    .expect("catalog validated key column")
            })
            .collect();
        Database {
            catalog,
            tables,
            enforce_ri: true,
        }
    }

    /// Disables referential integrity checks (used by tests that need to
    /// construct violating states, and by bulk loaders that validate
    /// afterwards).
    pub fn set_enforce_ri(&mut self, enforce: bool) {
        self.enforce_ri = enforce;
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Borrow a table instance.
    pub fn table(&self, id: TableId) -> &BaseTable {
        &self.tables[id.0]
    }

    /// Inserts a row into `table`, enforcing schema, key and (when enabled)
    /// referential integrity.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<Change> {
        if self.enforce_ri {
            for fk in self.catalog.foreign_keys_from(table) {
                let v = &row[fk.from_col];
                if !self.tables[fk.to.0].contains_key(v) {
                    return Err(self.ri_error(fk, format!("referenced key {v} does not exist")));
                }
            }
        }
        self.tables[table.0].insert(row)
    }

    /// Deletes the row with key `key` from `table`, enforcing that no rows
    /// still reference it.
    pub fn delete(&mut self, table: TableId, key: &Value) -> Result<Change> {
        if self.catalog.def(table)?.insert_only {
            return Err(RelationError::Invalid(format!(
                "table '{}' is declared insert-only; deletions are not allowed",
                self.catalog.def(table)?.name
            )));
        }
        if self.enforce_ri {
            for fk in self.catalog.foreign_keys_to(table) {
                let referenced = self.tables[fk.from.0]
                    .rows()
                    .any(|r| &r[fk.from_col] == key);
                if referenced {
                    return Err(self.ri_error(
                        fk,
                        format!(
                            "key {key} is still referenced by '{}'",
                            self.tables[fk.from.0].name()
                        ),
                    ));
                }
            }
        }
        self.tables[table.0].delete(key)
    }

    /// Updates the row with key `key` in `table`, enforcing the table's
    /// update contract and referential integrity of changed foreign keys.
    pub fn update(&mut self, table: TableId, key: &Value, new_row: Row) -> Result<Change> {
        let def = self.catalog.def(table)?;
        if def.insert_only {
            return Err(RelationError::Invalid(format!(
                "table '{}' is declared insert-only; updates are not allowed",
                def.name
            )));
        }
        let old = self.tables[table.0]
            .get(key)
            .ok_or_else(|| RelationError::KeyNotFound {
                table: def.name.clone(),
                key: key.clone(),
            })?
            .clone();
        // Contract check: only declared-updatable columns may differ.
        for c in 0..def.schema.arity() {
            if old[c] != new_row[c] && !def.updatable_columns.contains(&c) {
                return Err(RelationError::Invalid(format!(
                    "update on '{}' modifies column '{}' outside the update contract",
                    def.name,
                    def.schema.column(c).name
                )));
            }
        }
        if self.enforce_ri {
            for fk in self.catalog.foreign_keys_from(table) {
                if old[fk.from_col] != new_row[fk.from_col] {
                    let v = &new_row[fk.from_col];
                    if !self.tables[fk.to.0].contains_key(v) {
                        return Err(self.ri_error(fk, format!("referenced key {v} does not exist")));
                    }
                }
            }
        }
        self.tables[table.0].update(key, new_row)
    }

    fn ri_error(&self, fk: &ForeignKey, detail: String) -> RelationError {
        let from = self
            .catalog
            .def(fk.from)
            .map(|d| d.name.clone())
            .unwrap_or_default();
        let to = self
            .catalog
            .def(fk.to)
            .map(|d| d.name.clone())
            .unwrap_or_default();
        let col = self
            .catalog
            .def(fk.from)
            .map(|d| d.schema.column(fk.from_col).name.clone())
            .unwrap_or_default();
        RelationError::ReferentialIntegrity {
            constraint: format!("{from}.{col} -> {to}"),
            detail,
        }
    }

    /// Validates every declared foreign key over the full instance. Useful
    /// after bulk loads with enforcement disabled.
    pub fn validate_ri(&self) -> Result<()> {
        for fk in self.catalog.foreign_keys() {
            for row in self.tables[fk.from.0].rows() {
                let v = &row[fk.from_col];
                if !self.tables[fk.to.0].contains_key(v) {
                    return Err(self.ri_error(fk, format!("dangling reference {v}")));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn star_catalog() -> (Catalog, TableId, TableId) {
        let mut cat = Catalog::new();
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        (cat, product, sale)
    }

    #[test]
    fn add_table_assigns_ids_and_rejects_duplicates() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table("t", Schema::from_pairs(&[("id", DataType::Int)]), 0)
            .unwrap();
        assert_eq!(t, TableId(0));
        assert!(cat
            .add_table("t", Schema::from_pairs(&[("id", DataType::Int)]), 0)
            .is_err());
    }

    #[test]
    fn default_update_contract_excludes_key() {
        let (cat, product, _) = star_catalog();
        let def = cat.def(product).unwrap();
        assert!(!def.updatable_columns.contains(&0));
        assert!(def.updatable_columns.contains(&1));
    }

    #[test]
    fn update_contract_can_be_tightened() {
        let (mut cat, product, _) = star_catalog();
        cat.set_append_only(product).unwrap();
        assert!(cat.def(product).unwrap().updatable_columns.is_empty());
        assert!(cat.set_updatable_columns(product, &[0]).is_err()); // key
        assert!(cat.set_updatable_columns(product, &[9]).is_err()); // range
    }

    #[test]
    fn foreign_key_type_mismatch_rejected() {
        let mut cat = Catalog::new();
        let a = cat
            .add_table("a", Schema::from_pairs(&[("id", DataType::Str)]), 0)
            .unwrap();
        let b = cat
            .add_table(
                "b",
                Schema::from_pairs(&[("id", DataType::Int), ("aref", DataType::Int)]),
                0,
            )
            .unwrap();
        assert!(cat.add_foreign_key(b, 1, a).is_err());
    }

    #[test]
    fn database_insert_enforces_ri() {
        let (cat, product, sale) = star_catalog();
        let mut db = Database::new(cat);
        // Sale referencing a missing product is rejected.
        let e = db.insert(sale, row![1, 99, 5.0]).unwrap_err();
        assert!(matches!(e, RelationError::ReferentialIntegrity { .. }));
        db.insert(product, row![99, "acme"]).unwrap();
        db.insert(sale, row![1, 99, 5.0]).unwrap();
    }

    #[test]
    fn database_delete_enforces_ri() {
        let (cat, product, sale) = star_catalog();
        let mut db = Database::new(cat);
        db.insert(product, row![1, "acme"]).unwrap();
        db.insert(sale, row![10, 1, 5.0]).unwrap();
        assert!(db.delete(product, &Value::Int(1)).is_err());
        db.delete(sale, &Value::Int(10)).unwrap();
        db.delete(product, &Value::Int(1)).unwrap();
    }

    #[test]
    fn database_update_enforces_contract() {
        let (mut cat, product, sale) = star_catalog();
        // sale may only update price (column 2), not productid.
        cat.set_updatable_columns(sale, &[2]).unwrap();
        let mut db = Database::new(cat);
        db.insert(product, row![1, "acme"]).unwrap();
        db.insert(sale, row![10, 1, 5.0]).unwrap();
        db.update(sale, &Value::Int(10), row![10, 1, 6.0]).unwrap();
        let e = db
            .update(sale, &Value::Int(10), row![10, 2, 6.0])
            .unwrap_err();
        assert!(e.to_string().contains("update contract"));
    }

    #[test]
    fn database_update_checks_changed_fk() {
        let (cat, product, sale) = star_catalog();
        let mut db = Database::new(cat);
        db.insert(product, row![1, "acme"]).unwrap();
        db.insert(sale, row![10, 1, 5.0]).unwrap();
        let e = db
            .update(sale, &Value::Int(10), row![10, 7, 5.0])
            .unwrap_err();
        assert!(matches!(e, RelationError::ReferentialIntegrity { .. }));
    }

    #[test]
    fn validate_ri_detects_dangling_after_unchecked_load() {
        let (cat, _, sale) = star_catalog();
        let mut db = Database::new(cat);
        db.set_enforce_ri(false);
        db.insert(sale, row![1, 42, 1.0]).unwrap();
        assert!(db.validate_ri().is_err());
    }

    #[test]
    fn table_lookup_by_name() {
        let (cat, _, _) = star_catalog();
        let db = Database::new(cat);
        assert!(db.catalog().table_id("sale").is_some());
        assert!(db.catalog().table_id("nope").is_none());
    }
}
