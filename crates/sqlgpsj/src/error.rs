//! Error type for the SQL front end.

use std::fmt;

use md_algebra::AlgebraError;
use md_relation::{RelationError, TableId};

use crate::parser::Span;

/// Result alias used throughout `md-sql`.
pub type SqlResult<T, E = SqlError> = std::result::Result<T, E>;

/// What name resolution can find wrong with a statement, each decided in
/// [`resolve`](crate::resolve()).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveKind {
    /// A table name (in `FROM`, or qualifying a column) is not in the catalog.
    UnknownTable,
    /// A column is qualified by a catalog table that `FROM` does not list.
    TableNotInFrom,
    /// The qualifying table has no such column.
    UnknownColumn(TableId),
    /// No `FROM` table has a column of this (unqualified) name.
    ColumnNotFound,
    /// Several `FROM` tables do; `qualified` is the first, as `table.column`.
    AmbiguousColumn {
        /// The reference, qualified by the first table that has it.
        qualified: String,
    },
    /// A plain select column is missing from `GROUP BY`.
    SelectNotGrouped,
    /// A `GROUP BY` column is missing from the select list.
    GroupNotSelected,
    /// A condition compares two literals.
    LiteralOnlyCondition,
    /// A `HAVING` aggregate call matches no select item.
    HavingAggregateNotSelected,
    /// A `HAVING` name is neither an output alias nor a group-by column.
    HavingNotAnOutput,
}

/// One name-resolution defect: what, the span of the clause element it
/// sits in, and the one wording of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveDefect {
    /// What is wrong.
    pub kind: ResolveKind,
    /// The select item, `FROM` table, conjunct or `GROUP BY` column at fault.
    pub span: Span,
    /// The message.
    pub message: String,
}

/// Errors raised while lexing, parsing or resolving GPSJ SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte offset in the input.
        offset: usize,
        /// Explanation.
        message: String,
    },
    /// Parse error at a byte offset.
    Parse {
        /// Byte offset in the input (or input length at end of input).
        offset: usize,
        /// Explanation.
        message: String,
    },
    /// Name-resolution errors: every defect of the statement, in clause
    /// order (never empty). `Display` shows the first.
    Resolve(Vec<ResolveDefect>),
    /// Error bubbled up from the algebra layer.
    Algebra(AlgebraError),
    /// Error bubbled up from the storage layer.
    Relation(RelationError),
}

impl SqlError {
    pub(crate) fn lex(offset: usize, message: impl Into<String>) -> Self {
        SqlError::Lex {
            offset,
            message: message.into(),
        }
    }

    pub(crate) fn parse(offset: usize, message: impl Into<String>) -> Self {
        SqlError::Parse {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            SqlError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SqlError::Resolve(defects) => {
                let first = defects.first();
                let (at, message) = first.map_or((0, ""), |d| (d.span.start, d.message.as_str()));
                write!(f, "resolution error at byte {at}: {message}")
            }
            SqlError::Algebra(e) => write!(f, "{e}"),
            SqlError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlError::Algebra(e) => Some(e),
            SqlError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for SqlError {
    fn from(e: AlgebraError) -> Self {
        SqlError::Algebra(e)
    }
}

impl From<RelationError> for SqlError {
    fn from(e: RelationError) -> Self {
        SqlError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offsets() {
        let e = SqlError::parse(17, "expected FROM");
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("expected FROM"));
    }
}
