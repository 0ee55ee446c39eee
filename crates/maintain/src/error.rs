//! Error type for the maintenance engine.

use std::fmt;

use md_algebra::AlgebraError;
use md_core::CoreError;
use md_relation::RelationError;

/// Result alias used throughout `md-maintain`.
pub type Result<T, E = MaintainError> = std::result::Result<T, E>;

/// Errors raised while materializing or maintaining views.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintainError {
    /// Internal invariant violation (e.g. a group's count went negative).
    /// Indicates a bug or a delta stream inconsistent with the sources.
    InvariantViolation(String),
    /// A change batch was rejected before taking effect: the engine has
    /// been rolled back to its pre-batch state and serving continues.
    Rejected {
        /// The table the batch targeted.
        table: String,
        /// Index of the offending change within the batch, when the
        /// failure is attributable to a single change (`None` for
        /// failures during group recomputation or commit).
        change_index: Option<usize>,
        /// The underlying error that caused the rejection.
        reason: Box<MaintainError>,
    },
    /// A failure injected by a [`FaultPlan`](crate::FaultPlan)
    /// during testing; never produced in normal operation.
    Injected {
        /// The injection point that fired.
        point: String,
    },
    /// Error bubbled up from the derivation layer.
    Core(CoreError),
    /// Error bubbled up from the algebra layer.
    Algebra(AlgebraError),
    /// Error bubbled up from the storage layer.
    Relation(RelationError),
}

impl fmt::Display for MaintainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintainError::InvariantViolation(msg) => {
                write!(f, "maintenance invariant violated: {msg}")
            }
            MaintainError::Rejected {
                table,
                change_index,
                reason,
            } => {
                write!(f, "batch for table '{table}' rejected")?;
                if let Some(i) = change_index {
                    write!(f, " at change #{i}")?;
                }
                write!(f, " (engine rolled back): {reason}")
            }
            MaintainError::Injected { point } => {
                write!(f, "injected fault at '{point}'")
            }
            MaintainError::Core(e) => write!(f, "{e}"),
            MaintainError::Algebra(e) => write!(f, "{e}"),
            MaintainError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MaintainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaintainError::Rejected { reason, .. } => Some(reason.as_ref()),
            MaintainError::Core(e) => Some(e),
            MaintainError::Algebra(e) => Some(e),
            MaintainError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for MaintainError {
    fn from(e: CoreError) -> Self {
        MaintainError::Core(e)
    }
}

impl From<AlgebraError> for MaintainError {
    fn from(e: AlgebraError) -> Self {
        MaintainError::Algebra(e)
    }
}

impl From<RelationError> for MaintainError {
    fn from(e: RelationError) -> Self {
        MaintainError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: MaintainError = RelationError::NullNotSupported.into();
        assert!(matches!(e, MaintainError::Relation(_)));
        let e: MaintainError = AlgebraError::BadAggregateArgument {
            func: "SUM".into(),
            detail: "d".into(),
        }
        .into();
        assert!(matches!(e, MaintainError::Algebra(_)));
    }

    #[test]
    fn display_messages() {
        let e = MaintainError::InvariantViolation("root auxiliary store missing".into());
        assert_eq!(
            e.to_string(),
            "maintenance invariant violated: root auxiliary store missing"
        );
    }

    #[test]
    fn rejected_preserves_reason_text() {
        let e = MaintainError::Rejected {
            table: "sales".into(),
            change_index: Some(3),
            reason: Box::new(MaintainError::InvariantViolation(
                "append-only regime forbids deletes".into(),
            )),
        };
        let msg = e.to_string();
        assert!(msg.contains("sales"));
        assert!(msg.contains("change #3"));
        assert!(msg.contains("append-only"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn injected_names_its_point() {
        let e = MaintainError::Injected {
            point: "engine.apply.flush".into(),
        };
        assert!(e.to_string().contains("engine.apply.flush"));
    }
}
