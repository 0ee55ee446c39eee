//! Table schemas.
//!
//! Following the paper (Section 2.1) every base table has a *single-attribute
//! key*; the key column index is recorded on `TableDef` in
//! [`crate::catalog`], not here — a [`Schema`] is just an ordered list of
//! typed, named columns and is shared by base tables, views and intermediate
//! results.

use std::fmt;

use crate::error::{RelationError, Result};
use crate::value::{DataType, Value};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within its schema).
    pub name: String,
    /// Column data type.
    pub dtype: DataType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.dtype)
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from columns. Returns an error on duplicate names.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(RelationError::Invalid(format!(
                    "duplicate column name '{}' in schema",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        // Duplicate names in a literal pair list are a programming error.
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Column::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("duplicate column names in schema literal")
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column at `idx`, panicking if out of range.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Looks up a column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Looks up a column index by name, returning an error naming `table`
    /// when absent.
    pub fn resolve(&self, table: &str, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| RelationError::UnknownColumn {
                table: table.to_owned(),
                column: name.to_owned(),
            })
    }

    /// Validates that `row` matches this schema in arity and types.
    pub fn check_row(&self, table: &str, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(RelationError::SchemaMismatch {
                table: table.to_owned(),
                detail: format!("expected {} values, got {}", self.arity(), row.len()),
            });
        }
        for (col, val) in self.columns.iter().zip(row) {
            if col.dtype != val.data_type() {
                return Err(RelationError::SchemaMismatch {
                    table: table.to_owned(),
                    detail: format!(
                        "column '{}' expects {}, got {}",
                        col.name,
                        col.dtype,
                        val.data_type()
                    ),
                });
            }
        }
        Ok(())
    }

    /// A new schema containing the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sale_schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("timeid", DataType::Int),
            ("productid", DataType::Int),
            ("storeid", DataType::Int),
            ("price", DataType::Double),
        ])
    }

    #[test]
    fn arity_and_lookup() {
        let s = sale_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.index_of("price"), Some(4));
        assert_eq!(s.index_of("brand"), None);
        assert_eq!(s.column(1).name, "timeid");
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("a", DataType::Str),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn resolve_errors_name_the_table() {
        let s = sale_schema();
        let e = s.resolve("sale", "brand").unwrap_err();
        assert!(e.to_string().contains("sale"));
        assert!(e.to_string().contains("brand"));
    }

    #[test]
    fn check_row_accepts_matching() {
        let s = sale_schema();
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Double(9.99),
        ];
        assert!(s.check_row("sale", &row).is_ok());
    }

    #[test]
    fn check_row_rejects_wrong_arity() {
        let s = sale_schema();
        assert!(s.check_row("sale", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn check_row_rejects_wrong_type() {
        let s = sale_schema();
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::str("not-a-price"),
        ];
        let e = s.check_row("sale", &row).unwrap_err();
        assert!(e.to_string().contains("price"));
    }

    #[test]
    fn projection_keeps_order() {
        let s = sale_schema();
        let p = s.project(&[1, 2]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.column(0).name, "timeid");
        assert_eq!(p.column(1).name, "productid");
    }

    #[test]
    fn display_renders_all_columns() {
        let s = Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]);
        assert_eq!(s.to_string(), "(id INT, brand VARCHAR)");
    }
}
