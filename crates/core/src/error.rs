//! Error type for the derivation layer.

use std::fmt;

use md_algebra::AlgebraError;
use md_relation::{RelationError, TableId};

use crate::join_graph::JoinEdge;

/// Result alias used throughout `md-core`.
pub(crate) type Result<T, E = CoreError> = std::result::Result<T, E>;

/// One way an extended join graph fails to be a tree (paper Section 3.3),
/// each decided in [`ExtendedJoinGraph::build`](crate::ExtendedJoinGraph::build).
/// The site is the offending edges or tables themselves.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeDefectKind {
    /// A table has several incoming edges (these, in condition order).
    SeveralParents(Vec<JoinEdge>),
    /// Every table has an incoming edge: a cycle through all of them.
    NoRoot,
    /// Several tables have no incoming edge: the graph is disconnected.
    SeveralRoots(Vec<TableId>),
    /// A cycle hangs off the tree: these tables, in view order, cannot be
    /// reached from the one table without an incoming edge.
    Unreachable(Vec<TableId>),
}

/// A [`TreeDefectKind`] with the one wording of it (catalog names rendered
/// where it was decided).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDefect {
    /// What is wrong, and where.
    pub kind: TreeDefectKind,
    /// The message.
    pub message: String,
}

/// Errors raised while deriving auxiliary views.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The view's extended join graph is not a tree (Section 3.3 assumes a
    /// tree: at most one edge into any vertex, no cycles, no self-joins).
    NotATree {
        /// The view involved.
        view: String,
        /// Every defect of the first failing check (never empty).
        defects: Vec<TreeDefect>,
    },
    /// The view contains superfluous aggregates, which Section 2.1 assumes
    /// away; the offending output aliases are listed.
    SuperfluousAggregates {
        /// The view involved.
        view: String,
        /// Output aliases of the superfluous aggregates.
        aliases: Vec<String>,
    },
    /// Error bubbled up from the algebra layer.
    Algebra(AlgebraError),
    /// Error bubbled up from the storage layer.
    Relation(RelationError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotATree { view, defects } => {
                let first = defects.first().map_or("", |d| d.message.as_str());
                write!(f, "extended join graph of '{view}' is not a tree: {first}")
            }
            CoreError::SuperfluousAggregates { view, aliases } => {
                write!(
                    f,
                    "view '{view}' contains superfluous aggregates ({}) — replace them by \
                     the plain attribute (paper Section 2.1 assumption)",
                    aliases.join(", ")
                )
            }
            CoreError::Algebra(e) => write!(f, "{e}"),
            CoreError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Algebra(e) => Some(e),
            CoreError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for CoreError {
    fn from(e: AlgebraError) -> Self {
        CoreError::Algebra(e)
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        CoreError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_work() {
        let e: CoreError = RelationError::NullNotSupported.into();
        assert!(matches!(e, CoreError::Relation(_)));
        let e: CoreError = AlgebraError::InvalidView {
            view: "v".into(),
            defects: vec![],
        }
        .into();
        assert!(matches!(e, CoreError::Algebra(_)));
    }

    #[test]
    fn display_mentions_view() {
        let e = CoreError::NotATree {
            view: "v".into(),
            defects: vec![TreeDefect {
                kind: TreeDefectKind::NoRoot,
                message: "cycle".into(),
            }],
        };
        assert!(e.to_string().contains("'v'"));
    }
}
