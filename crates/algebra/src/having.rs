//! `HAVING` clauses — restrictions on groups.
//!
//! The paper's Section 4 names "restrictions on groups (the HAVING clause
//! in SQL)" as the first generalization of GPSJ views worth supporting.
//! The key observation making it cheap: a `HAVING` clause is a filter on
//! the *output* of the generalized projection, so `V` can be maintained
//! unrestricted (groups failing the clause are retained internally — they
//! must be, since later deletions can push a group back under a threshold)
//! and the clause applied at read time. Neither the auxiliary views nor
//! the maintenance logic change.

use std::fmt;

use md_relation::{Row, Value};

use crate::error::{AlgebraError, DefectKind, Result};
use crate::pred::CmpOp;

/// One `HAVING` conjunct: a comparison between an output column of the
/// view (referenced by select-item index) and a literal.
#[derive(Debug, Clone, PartialEq)]
pub struct HavingCond {
    /// Index into the view's select list.
    pub item: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: Value,
}

impl HavingCond {
    /// Creates a condition on output item `item`.
    pub fn new(item: usize, op: CmpOp, value: impl Into<Value>) -> Self {
        HavingCond {
            item,
            op,
            value: value.into(),
        }
    }

    /// Evaluates the condition against an output row of the view.
    pub(crate) fn eval(&self, output_row: &Row) -> Result<bool> {
        let lhs = output_row.values().get(self.item).ok_or_else(|| {
            AlgebraError::defect(
                DefectKind::Malformed,
                format!(
                    "HAVING references output column {} of a {}-column row",
                    self.item,
                    output_row.arity()
                ),
            )
        })?;
        let ord = lhs.try_cmp(&self.value).map_err(AlgebraError::from)?;
        Ok(self.op.matches(ord))
    }
}

impl fmt::Display for HavingCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {}", self.item, self.op, self.value)
    }
}

/// Evaluates a conjunction of `HAVING` conditions.
pub fn having_passes(conds: &[HavingCond], output_row: &Row) -> Result<bool> {
    for c in conds {
        if !c.eval(output_row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::row;

    #[test]
    fn eval_compares_output_columns() {
        // Row shaped like (month, TotalPrice, TotalCount).
        let r = row![3, 120.0, 7];
        assert!(HavingCond::new(2, CmpOp::Gt, 5i64).eval(&r).unwrap());
        assert!(!HavingCond::new(2, CmpOp::Gt, 7i64).eval(&r).unwrap());
        assert!(HavingCond::new(1, CmpOp::Ge, 120.0).eval(&r).unwrap());
    }

    #[test]
    fn conjunction_semantics() {
        let r = row![3, 120.0, 7];
        let conds = vec![
            HavingCond::new(2, CmpOp::Gt, 5i64),
            HavingCond::new(0, CmpOp::Le, 6i64),
        ];
        assert!(having_passes(&conds, &r).unwrap());
        let conds = vec![
            HavingCond::new(2, CmpOp::Gt, 5i64),
            HavingCond::new(0, CmpOp::Gt, 6i64),
        ];
        assert!(!having_passes(&conds, &r).unwrap());
    }

    #[test]
    fn out_of_range_reference_errors() {
        let r = row![1];
        assert!(HavingCond::new(5, CmpOp::Eq, 1i64).eval(&r).is_err());
    }

    #[test]
    fn incomparable_types_error() {
        let r = row!["text"];
        assert!(HavingCond::new(0, CmpOp::Gt, 1i64).eval(&r).is_err());
    }
}
