//! Error type for the storage substrate.

use std::fmt;

use crate::value::{DataType, Value};

/// Result alias used throughout `md-relation`.
pub type Result<T, E = RelationError> = std::result::Result<T, E>;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationError {
    /// A value of one type was used where another was required.
    TypeError {
        /// The type the operation required.
        expected: DataType,
        /// The type that was actually supplied.
        found: DataType,
    },
    /// Two values of incompatible types were compared or combined.
    Incomparable {
        /// Type on the left-hand side.
        left: DataType,
        /// Type on the right-hand side.
        right: DataType,
    },
    /// A row's arity or column types did not match the table schema.
    SchemaMismatch {
        /// The table involved.
        table: String,
        /// Explanation of the mismatch.
        detail: String,
    },
    /// An insert would duplicate an existing key value.
    DuplicateKey {
        /// The table involved.
        table: String,
        /// The offending key value.
        key: Value,
    },
    /// A lookup, delete or update referenced a key that does not exist.
    KeyNotFound {
        /// The table involved.
        table: String,
        /// The missing key value.
        key: Value,
    },
    /// A change would violate a declared referential integrity constraint.
    ReferentialIntegrity {
        /// Constraint description, e.g. `sale.productid -> product.id`.
        constraint: String,
        /// Explanation of the violation.
        detail: String,
    },
    /// The paper assumes null-free base data; a null-like condition arose.
    NullNotSupported,
    /// Catch-all for invalid arguments (e.g. key column out of range).
    Invalid(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::TypeError { expected, found } => {
                write!(f, "type error: expected {expected}, found {found}")
            }
            RelationError::Incomparable { left, right } => {
                write!(f, "cannot compare or combine {left} with {right}")
            }
            RelationError::SchemaMismatch { table, detail } => {
                write!(f, "schema mismatch on table '{table}': {detail}")
            }
            RelationError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table '{table}'")
            }
            RelationError::KeyNotFound { table, key } => {
                write!(f, "key {key} not found in table '{table}'")
            }
            RelationError::ReferentialIntegrity { constraint, detail } => {
                write!(
                    f,
                    "referential integrity violation ({constraint}): {detail}"
                )
            }
            RelationError::NullNotSupported => {
                write!(
                    f,
                    "null values are not supported (paper assumption, Section 2.1)"
                )
            }
            RelationError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationError::DuplicateKey {
            table: "sale".into(),
            key: Value::Int(7),
        };
        assert_eq!(e.to_string(), "duplicate key 7 in table 'sale'");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RelationError::NullNotSupported);
    }
}
