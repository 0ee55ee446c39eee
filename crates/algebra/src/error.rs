//! Error type for the algebra layer.

use std::fmt;

use md_relation::RelationError;

/// Result alias used throughout `md-algebra`.
pub(crate) type Result<T, E = AlgebraError> = std::result::Result<T, E>;

/// Where a defect of a view definition sits, in the view's own terms: an
/// index into one of [`GpsjView`](crate::GpsjView)'s vectors. The SQL front
/// end resolves a statement into a view whose vectors are index-aligned with
/// the statement's clauses, so a site is also a source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewSite {
    /// The definition as a whole.
    View,
    /// `view.tables[i]`.
    Table(usize),
    /// `view.select[i]`.
    Select(usize),
    /// `view.conditions[i]`.
    Condition(usize),
    /// `view.having[i]`.
    Having(usize),
}

/// The ways a definition falls outside the GPSJ class (paper Section 2.1),
/// each decided in [`GpsjView::validate`](crate::GpsjView::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectKind {
    /// No tables, no select items or an index out of range — only a view
    /// built in code can have it.
    Malformed,
    /// A table occurs twice (a self-join).
    DuplicateTable,
    /// Two select items share an output alias.
    DuplicateAlias,
    /// An aggregate cannot take its argument: only `COUNT` may omit it, and
    /// `SUM`/`AVG` require a numeric type.
    AggregateArgument,
    /// The two sides of a comparison have incomparable types.
    ComparisonTypes,
    /// A literal is NaN or infinite.
    NonFiniteLiteral,
    /// A condition between two tables is not an equality.
    JoinNotEquality,
    /// An equality between two tables has a key on neither side.
    JoinNotOnKey,
}

/// One defect of a view definition: what, where, and the one wording of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDefect {
    /// What is wrong.
    pub kind: DefectKind,
    /// Where.
    pub site: ViewSite,
    /// The message, rendered with catalog names where it was decided.
    pub message: String,
}

impl ViewDefect {
    /// Builds a defect.
    pub(crate) fn new(kind: DefectKind, site: ViewSite, message: impl Into<String>) -> Self {
        ViewDefect {
            kind,
            site,
            message: message.into(),
        }
    }
}

/// Errors raised while constructing or evaluating GPSJ views.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraError {
    /// A column reference points at a table that is not part of the view.
    UnknownViewTable {
        /// The view involved.
        view: String,
        /// Rendered reference.
        reference: String,
    },
    /// A view definition is not a valid GPSJ view.
    InvalidView {
        /// The view involved.
        view: String,
        /// Every defect of the first failing validation stage (never empty).
        defects: Vec<ViewDefect>,
    },
    /// An aggregate was applied to an argument of an unsupported type.
    BadAggregateArgument {
        /// The aggregate, e.g. `SUM`.
        func: String,
        /// Explanation of the problem.
        detail: String,
    },
    /// Error bubbled up from the storage layer.
    Relation(RelationError),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownViewTable { view, reference } => {
                write!(
                    f,
                    "view '{view}': reference {reference} is not bound to a view table"
                )
            }
            AlgebraError::InvalidView { view, defects } => {
                let first = defects.first().map_or("", |d| d.message.as_str());
                write!(f, "invalid GPSJ view '{view}': {first}")
            }
            AlgebraError::BadAggregateArgument { func, detail } => {
                write!(f, "invalid argument to {func}: {detail}")
            }
            AlgebraError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl AlgebraError {
    /// An [`AlgebraError::InvalidView`] with one defect and no view name
    /// yet (a condition or a row does not know its view).
    pub(crate) fn defect(kind: DefectKind, message: impl Into<String>) -> Self {
        AlgebraError::InvalidView {
            view: String::new(),
            defects: vec![ViewDefect::new(kind, ViewSite::View, message)],
        }
    }
}

impl std::error::Error for AlgebraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgebraError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for AlgebraError {
    fn from(e: RelationError) -> Self {
        AlgebraError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_errors_convert() {
        let e: AlgebraError = RelationError::NullNotSupported.into();
        assert!(matches!(e, AlgebraError::Relation(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_names_the_view() {
        let mut e = AlgebraError::defect(DefectKind::Malformed, "empty select list");
        if let AlgebraError::InvalidView { view, .. } = &mut e {
            *view = "product_sales".into();
        }
        assert_eq!(
            e.to_string(),
            "invalid GPSJ view 'product_sales': empty select list"
        );
    }
}
