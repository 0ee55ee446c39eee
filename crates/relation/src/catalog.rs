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

use crate::delta::{Change, ChangeRef};
use crate::error::{RelationError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::table::BaseTable;
use crate::value::{DataType, Value};

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
    /// Per table, compiled once from its definition: each column's type,
    /// and whether an update may change it (see [`Self::admit`]).
    columns: Vec<Box<[(DataType, bool)]>>,
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
        let def = TableDef {
            name,
            schema,
            key_col,
            updatable_columns: updatable,
            insert_only: false,
        };
        self.columns.push(compiled(&def));
        self.tables.push(def);
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
        self.columns[table.0] = compiled(def);
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

    /// Holds `change` to `table`'s schema and contract: every row it
    /// carries has the table's arity and column types, an update keeps its
    /// key and changes only updatable columns, and an insert-only table
    /// takes no delete and no update. The one rule a warehouse's door and
    /// [`Database::update`] / [`Database::delete`] share, checked against
    /// a record compiled once per table.
    #[inline]
    pub fn admit(&self, table: TableId, change: ChangeRef<'_>) -> Result<()> {
        let (old, new) = change.as_delete_insert();
        self.admit_rows(table, old.map(Row::values), new.map(Row::values))
    }

    /// [`Self::admit`] of a change given as its old and new rows.
    #[inline]
    fn admit_rows(
        &self,
        table: TableId,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<()> {
        let (def, cols) = (self.def(table)?, &self.columns[table.0]);
        let fits = |row: &[Value]| {
            row.len() == cols.len()
                && row
                    .iter()
                    .zip(&**cols)
                    .all(|(v, (t, _))| v.data_type() == *t)
        };
        let admitted = match (old, new) {
            (None, Some(new)) => fits(new),
            (Some(old), None) => !def.insert_only && fits(old),
            (Some(old), Some(new)) => {
                let mut moved = old.iter().zip(new).zip(&**cols);
                !def.insert_only && fits(old) && fits(new) && moved.all(|((a, b), c)| c.1 || a == b)
            }
            (None, None) => true,
        };
        match admitted {
            true => Ok(()),
            false => Err(refusal(def, old, new)),
        }
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

/// `def`'s columns as [`Catalog::admit`] reads them: each one's type, and
/// whether an update may change it.
fn compiled(def: &TableDef) -> Box<[(DataType, bool)]> {
    let cols = def.schema.columns().iter().enumerate();
    cols.map(|(c, col)| (col.dtype, def.updatable_columns.contains(&c)))
        .collect()
}

/// Why `def`'s table does not admit the change of rows `old` → `new`:
/// a row that does not fit the schema first, then the contract.
#[cold]
#[inline(never)]
fn refusal(def: &TableDef, old: Option<&[Value]>, new: Option<&[Value]>) -> RelationError {
    let rows = old.into_iter().chain(new);
    if let Some(Err(e)) = rows
        .map(|row| def.schema.check_row(&def.name, row))
        .find(Result::is_err)
    {
        return e;
    }
    let (name, key) = (&def.name, def.key_col);
    let insert_only = |what| {
        format!("table '{name}' is declared insert-only (append-only); {what} are not allowed")
    };
    RelationError::Invalid(match (old, new) {
        (_, None) => insert_only("deletions"),
        _ if def.insert_only => insert_only("updates"),
        (Some(old), Some(new)) if old[key] != new[key] => format!(
            "update on table '{name}' changes the key from {} to {}; issue delete+insert instead",
            old[key], new[key]
        ),
        (Some(old), Some(new)) => {
            let fixed = |&c: &usize| old[c] != new[c] && !def.updatable_columns.contains(&c);
            let column = &def
                .schema
                .column((0..old.len()).find(fixed).unwrap_or(key))
                .name;
            format!(
                "update on table '{name}' modifies column '{column}' outside the update contract"
            )
        }
        (None, Some(_)) => unreachable!("an insert that fits is admitted"),
    })
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

    /// Deletes the row with key `key` from `table`, enforcing the table's
    /// contract ([`Catalog::admit`]: no deletion from an insert-only table)
    /// and that no rows still reference it.
    pub fn delete(&mut self, table: TableId, key: &Value) -> Result<Change> {
        let old = self.stored(table, key)?;
        self.catalog.admit_rows(table, Some(old.values()), None)?;
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
    /// schema and update contract ([`Catalog::admit`]) and referential
    /// integrity of changed foreign keys.
    pub fn update(&mut self, table: TableId, key: &Value, new_row: Row) -> Result<Change> {
        let old = self.stored(table, key)?;
        (self.catalog).admit_rows(table, Some(old.values()), Some(new_row.values()))?;
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

    /// The row with key `key` in `table`.
    fn stored(&self, table: TableId, key: &Value) -> Result<Row> {
        let def = self.catalog.def(table)?;
        let row = self.tables[table.0].get(key);
        row.ok_or_else(|| RelationError::KeyNotFound {
            table: def.name.clone(),
            key: key.clone(),
        })
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
