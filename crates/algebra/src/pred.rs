//! Column references, comparison predicates and join conditions.
//!
//! GPSJ views (paper Section 2.1) have a selection that is a conjunction of
//! conditions. A condition whose column references all come from a single
//! table is a *local condition*; an equality between a column of `Rᵢ` and the
//! key of `Rⱼ` is a *join condition*. The paper restricts joins to keys; this
//! module represents raw conditions and the classification helpers, while the
//! key-ness checks live where a catalog is available.

use std::cmp::Ordering;
use std::fmt;

use md_relation::{Catalog, Row, TableId, Value};

use crate::error::{AlgebraError, DefectKind, Result};

/// A reference to a column of a base table occurring in a view.
///
/// The paper assumes no self-joins (Section 3.3), so a base table occurs at
/// most once per view and `(table, column)` identifies an attribute
/// unambiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// The referenced table.
    pub table: TableId,
    /// The referenced column index within that table's schema.
    pub column: usize,
}

impl ColRef {
    /// Creates a column reference.
    pub fn new(table: TableId, column: usize) -> Self {
        ColRef { table, column }
    }

    /// Renders as `table.column` using catalog names; falls back to ids.
    pub fn display(&self, catalog: &Catalog) -> String {
        match catalog.def(self.table) {
            Ok(def) if self.column < def.schema.arity() => {
                format!("{}.{}", def.name, def.schema.column(self.column).name)
            }
            _ => format!("{}.c{}", self.table, self.column),
        }
    }
}

/// Comparison operators usable in selection conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an [`Ordering`].
    pub(crate) fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// SQL rendering.
    pub(crate) fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// The right-hand side of a comparison: a column or a literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// A column reference.
    Col(ColRef),
    /// A constant.
    Lit(Value),
}

impl Operand {
    /// The column reference, if this operand is one.
    pub(crate) fn as_col(&self) -> Option<ColRef> {
        match self {
            Operand::Col(c) => Some(*c),
            Operand::Lit(_) => None,
        }
    }
}

/// One conjunct of a view's selection condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Condition {
    /// Left-hand side (always a column — SQL conditions with the literal on
    /// the left are normalized by flipping the operator).
    pub left: ColRef,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub right: Operand,
}

impl Condition {
    /// `col op literal` condition.
    pub fn cmp_lit(left: ColRef, op: CmpOp, value: impl Into<Value>) -> Self {
        Condition {
            left,
            op,
            right: Operand::Lit(value.into()),
        }
    }

    /// `left = right` column-equality condition.
    pub fn eq_cols(left: ColRef, right: ColRef) -> Self {
        Condition {
            left,
            op: CmpOp::Eq,
            right: Operand::Col(right),
        }
    }

    /// The tables this condition mentions (1 or 2 entries, deduplicated).
    pub(crate) fn tables(&self) -> Vec<TableId> {
        let mut t = vec![self.left.table];
        if let Operand::Col(c) = &self.right {
            if c.table != self.left.table {
                t.push(c.table);
            }
        }
        t
    }

    /// All column references in the condition.
    pub fn columns(&self) -> Vec<ColRef> {
        let mut cols = vec![self.left];
        if let Operand::Col(c) = &self.right {
            cols.push(*c);
        }
        cols
    }

    /// A condition is *local* when all its columns come from one table
    /// (paper Section 2.2).
    pub fn is_local(&self) -> bool {
        self.tables().len() == 1
    }

    /// For a valid GPSJ join condition `Rᵢ.b = Rⱼ.a` where `a` is the key
    /// of `Rⱼ`, returns `(Rᵢ.b, Rⱼ.a)` — i.e. `(foreign side, key side)`.
    ///
    /// If *both* sides are keys (a key–key join) the right-hand side of the
    /// written condition is treated as the referenced key, matching how the
    /// paper orients edges in the join graph by the way the condition is
    /// written. This is the one place a condition between two tables is
    /// judged: anything but an equality on a key is a
    /// [`DefectKind::JoinNotEquality`] / [`DefectKind::JoinNotOnKey`].
    pub(crate) fn join_pair(&self, catalog: &Catalog) -> Result<(ColRef, ColRef)> {
        let right = match self.right.as_col() {
            Some(c) if c.table != self.left.table => c,
            _ => {
                return Err(AlgebraError::defect(
                    DefectKind::Malformed,
                    format!("{} does not join two tables", self.display(catalog)),
                ))
            }
        };
        if self.op != CmpOp::Eq {
            return Err(AlgebraError::defect(
                DefectKind::JoinNotEquality,
                "join conditions must be equalities",
            ));
        }
        let left_is_key = catalog.def(self.left.table)?.key_col == self.left.column;
        let right_is_key = catalog.def(right.table)?.key_col == right.column;
        match (left_is_key, right_is_key) {
            (_, true) => Ok((self.left, right)),
            (true, false) => Ok((right, self.left)),
            (false, false) => Err(AlgebraError::defect(
                DefectKind::JoinNotOnKey,
                format!(
                    "join between {} and {} is not on a key",
                    self.left.display(catalog),
                    right.display(catalog)
                ),
            )),
        }
    }

    /// Evaluates this condition against an environment mapping each view
    /// table to a row (see [`RowEnv`]).
    pub fn eval(&self, env: &RowEnv<'_>) -> Result<bool> {
        let lhs = env.value(self.left)?;
        let rhs = match &self.right {
            Operand::Col(c) => env.value(*c)?,
            Operand::Lit(v) => v,
        };
        let ord = lhs.try_cmp(rhs).map_err(AlgebraError::from)?;
        Ok(self.op.matches(ord))
    }

    /// Renders the condition as SQL using catalog names.
    pub fn display(&self, catalog: &Catalog) -> String {
        let rhs = match &self.right {
            Operand::Col(c) => c.display(catalog),
            Operand::Lit(v) => v.to_string(),
        };
        format!("{} {} {}", self.left.display(catalog), self.op, rhs)
    }
}

/// An evaluation environment binding view tables to rows.
///
/// During join evaluation each table of the view is bound to one of its rows
/// (or none yet); conditions are evaluated against whatever is bound.
pub struct RowEnv<'a> {
    bindings: Vec<(TableId, &'a Row)>,
}

impl<'a> RowEnv<'a> {
    /// An empty environment.
    pub(crate) fn new() -> Self {
        RowEnv {
            bindings: Vec::new(),
        }
    }

    /// Environment with a single binding.
    pub fn single(table: TableId, row: &'a Row) -> Self {
        RowEnv {
            bindings: vec![(table, row)],
        }
    }

    /// Adds a binding (replacing an existing one for the same table).
    pub(crate) fn bind(&mut self, table: TableId, row: &'a Row) {
        if let Some(slot) = self.bindings.iter_mut().find(|(t, _)| *t == table) {
            slot.1 = row;
        } else {
            self.bindings.push((table, row));
        }
    }

    /// The value of a column reference.
    pub(crate) fn value(&self, col: ColRef) -> Result<&'a Value> {
        self.bindings
            .iter()
            .find(|(t, _)| *t == col.table)
            .map(|(_, row)| &row[col.column])
            .ok_or_else(|| AlgebraError::UnknownViewTable {
                view: String::new(),
                reference: format!("{}(col {})", col.table, col.column),
            })
    }
}

impl Default for RowEnv<'_> {
    fn default() -> Self {
        RowEnv::new()
    }
}

/// Whether every one of `conds` holds under `env`.
pub(crate) fn eval_all<'c>(
    conds: impl IntoIterator<Item = &'c Condition>,
    env: &RowEnv<'_>,
) -> Result<bool> {
    for c in conds {
        if !c.eval(env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::{row, DataType, Schema};

    fn catalog() -> (Catalog, TableId, TableId) {
        let mut cat = Catalog::new();
        let time = cat
            .add_table(
                "time",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("month", DataType::Int),
                    ("year", DataType::Int),
                ]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        (cat, time, sale)
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.matches(Ordering::Equal));
        assert!(!CmpOp::Eq.matches(Ordering::Less));
        assert!(CmpOp::Ne.matches(Ordering::Greater));
        assert!(CmpOp::Lt.matches(Ordering::Less));
        assert!(CmpOp::Le.matches(Ordering::Equal));
        assert!(CmpOp::Gt.matches(Ordering::Greater));
        assert!(CmpOp::Ge.matches(Ordering::Equal));
    }

    #[test]
    fn locality_classification() {
        let (_, time, sale) = catalog();
        let local = Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64);
        assert!(local.is_local());

        let join = Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0));
        assert!(!join.is_local());

        let same_table = Condition::eq_cols(ColRef::new(time, 1), ColRef::new(time, 2));
        assert!(same_table.is_local());
    }

    #[test]
    fn join_pair_orients_fk_to_key() {
        let (cat, time, sale) = catalog();
        // Written as sale.timeid = time.id.
        let c = Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0));
        let (fk, key) = c.join_pair(&cat).unwrap();
        assert_eq!(fk, ColRef::new(sale, 1));
        assert_eq!(key, ColRef::new(time, 0));

        // Written flipped: time.id = sale.timeid — still oriented fk->key.
        let c = Condition::eq_cols(ColRef::new(time, 0), ColRef::new(sale, 1));
        let (fk, key) = c.join_pair(&cat).unwrap();
        assert_eq!(fk, ColRef::new(sale, 1));
        assert_eq!(key, ColRef::new(time, 0));
    }

    #[test]
    fn join_pair_rejects_non_key_joins() {
        let (cat, time, sale) = catalog();
        // sale.price = time.month — neither side is a key.
        let c = Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(time, 1));
        assert!(c.join_pair(&cat).is_err());
    }

    #[test]
    fn eval_local_condition() {
        let (_, time, _) = catalog();
        let row97 = row![1, 6, 1997];
        let row96 = row![2, 6, 1996];
        let cond = Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64);
        assert!(cond.eval(&RowEnv::single(time, &row97)).unwrap());
        assert!(!cond.eval(&RowEnv::single(time, &row96)).unwrap());
    }

    #[test]
    fn eval_join_condition_across_tables() {
        let (_, time, sale) = catalog();
        let trow = row![10, 6, 1997];
        let srow = row![1, 10, 5.0];
        let cond = Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0));
        let mut env = RowEnv::new();
        env.bind(sale, &srow);
        env.bind(time, &trow);
        assert!(cond.eval(&env).unwrap());
    }

    #[test]
    fn eval_unbound_reference_errors() {
        let (_, time, sale) = catalog();
        let srow = row![1, 10, 5.0];
        let cond = Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0));
        let env = RowEnv::single(sale, &srow);
        assert!(cond.eval(&env).is_err());
    }

    #[test]
    fn eval_all_is_conjunction() {
        let (_, time, _) = catalog();
        let r = row![1, 6, 1997];
        let conds = vec![
            Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
            Condition::cmp_lit(ColRef::new(time, 1), CmpOp::Le, 6i64),
        ];
        assert!(eval_all(&conds, &RowEnv::single(time, &r)).unwrap());
        let conds2 = vec![
            Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
            Condition::cmp_lit(ColRef::new(time, 1), CmpOp::Gt, 6i64),
        ];
        assert!(!eval_all(&conds2, &RowEnv::single(time, &r)).unwrap());
    }

    #[test]
    fn display_uses_catalog_names() {
        let (cat, time, sale) = catalog();
        let c = Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64);
        assert_eq!(c.display(&cat), "time.year = 1997");
        let j = Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0));
        assert_eq!(j.display(&cat), "sale.timeid = time.id");
    }

    #[test]
    fn rebinding_replaces() {
        let (_, time, _) = catalog();
        let a = row![1, 1, 1990];
        let b = row![2, 2, 1991];
        let mut env = RowEnv::new();
        env.bind(time, &a);
        env.bind(time, &b);
        assert_eq!(env.value(ColRef::new(time, 0)).unwrap(), &Value::Int(2));
    }
}
