//! Error type for the warehouse facade.

use std::fmt;

use md_core::CoreError;
use md_maintain::MaintainError;
use md_relation::RelationError;
use md_sql::SqlError;

/// Result alias used throughout `md-warehouse`.
pub(crate) type Result<T, E = WarehouseError> = std::result::Result<T, E>;

/// Errors raised by the warehouse facade.
#[derive(Debug)]
pub enum WarehouseError {
    /// A summary with this name is already registered.
    DuplicateSummary(String),
    /// No summary with this name exists.
    UnknownSummary(String),
    /// `repair` was called on a summary that is not quarantined.
    NotQuarantined(String),
    /// A repair attempt failed; the summary stays quarantined.
    RepairFailed {
        /// The summary that could not be repaired.
        summary: String,
        /// What went wrong (rebuild failure or post-repair audit).
        detail: String,
    },
    /// Error from the SQL front end.
    Sql(SqlError),
    /// Error from the derivation layer.
    Core(CoreError),
    /// Error from the maintenance engine.
    Maintain(MaintainError),
    /// Error from the storage layer.
    Relation(RelationError),
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::DuplicateSummary(name) => {
                write!(f, "summary view '{name}' already exists")
            }
            WarehouseError::UnknownSummary(name) => {
                write!(f, "no summary view named '{name}'")
            }
            WarehouseError::NotQuarantined(name) => {
                write!(f, "summary view '{name}' is not quarantined")
            }
            WarehouseError::RepairFailed { summary, detail } => {
                write!(f, "repair of summary view '{summary}' failed: {detail}")
            }
            WarehouseError::Sql(e) => write!(f, "{e}"),
            WarehouseError::Core(e) => write!(f, "{e}"),
            WarehouseError::Maintain(e) => write!(f, "{e}"),
            WarehouseError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WarehouseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarehouseError::Sql(e) => Some(e),
            WarehouseError::Core(e) => Some(e),
            WarehouseError::Maintain(e) => Some(e),
            WarehouseError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SqlError> for WarehouseError {
    fn from(e: SqlError) -> Self {
        WarehouseError::Sql(e)
    }
}

impl From<CoreError> for WarehouseError {
    fn from(e: CoreError) -> Self {
        WarehouseError::Core(e)
    }
}

impl From<MaintainError> for WarehouseError {
    fn from(e: MaintainError) -> Self {
        WarehouseError::Maintain(e)
    }
}

impl From<RelationError> for WarehouseError {
    fn from(e: RelationError) -> Self {
        WarehouseError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_summary() {
        assert!(WarehouseError::UnknownSummary("x".into())
            .to_string()
            .contains("'x'"));
        assert!(WarehouseError::DuplicateSummary("y".into())
            .to_string()
            .contains("'y'"));
    }
}
