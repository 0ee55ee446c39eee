//! Comparisons compiled once, against the schema.
//!
//! Every row a fold reads is typed: a change's rows fit their table's
//! schema at `prepare_batch`'s door, a base table holds only such rows,
//! and an output row of `V` has each item's type. So each comparison a
//! plan makes — a table's local conditions, the view's `HAVING` — is
//! compiled when the plan is resolved (`SummaryEngine::new`,
//! `StoreRegistry::subscribe`) into a [`Test`] of a position, an operator
//! and a literal already in the type it is compared in, or a second
//! position. A comparison no typed row can answer — only a plan forged
//! past `GpsjView::validate` carries one — refuses the plan there
//! ([`refused`]), and a [`Filter`] then answers every row.
//!
//! The compiled comparison is `Condition::eval`'s, bit for bit: values of
//! one type compare by their own order — doubles by `total_cmp`, so
//! `-0.0 < +0.0`, with every NaN after every number — and an `INT`
//! against a `DOUBLE` compares both as `f64`.

use std::cmp::Ordering;

use md_algebra::{AlgebraError, CmpOp, ColRef, Condition, DefectKind, GpsjView, Operand};
use md_algebra::{ViewDefect, ViewSite};
use md_relation::{Catalog, DataType, TableId, Value};

use crate::error::{MaintainError, Result};

/// `row[left] op right`; `widen`: one side is an `INT`, the other a
/// `DOUBLE`, and both compare as `f64`.
#[derive(Debug, Clone, PartialEq)]
struct Test {
    left: usize,
    op: CmpOp,
    right: Rhs,
    widen: bool,
}

/// A literal, in the type the comparison is made in, or `row[c]`.
#[derive(Debug, Clone, PartialEq)]
enum Rhs {
    Lit(Value),
    Col(usize),
}

/// A conjunction of compiled comparisons over one kind of row.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Filter(Vec<Test>);

impl Filter {
    /// `table`'s local conditions `conds` of `view`, compiled against the
    /// table's schema.
    pub(crate) fn locals<'c>(
        view: &GpsjView,
        table: TableId,
        conds: impl IntoIterator<Item = &'c Condition>,
        catalog: &Catalog,
    ) -> Result<Self> {
        let schema = &catalog.def(table)?.schema;
        let typed = |c: ColRef| {
            (c.table == table && c.column < schema.arity()).then(|| schema.column(c.column).dtype)
        };
        let mut tests = Vec::new();
        for cond in conds {
            let right = match &cond.right {
                Operand::Col(c) => typed(*c).map(|t| (Rhs::Col(c.column), t)),
                Operand::Lit(v) => Some((Rhs::Lit(v.clone()), v.data_type())),
            };
            let (left, op) = (cond.left.column, cond.op);
            let test = (typed(cond.left).zip(right))
                .and_then(|(lt, (r, rt))| Test::new(left, op, r, lt, rt));
            let Some(test) = test else {
                let site = view.conditions.iter().position(|c| c == cond);
                let site = site.map_or(ViewSite::View, ViewSite::Condition);
                let message = format!("cannot compare the sides of {}", cond.display(catalog));
                return Err(refused(view, site, message));
            };
            tests.push(test);
        }
        Ok(Filter(tests))
    }

    /// `view`'s `HAVING`, over its output rows, whose items have the
    /// types `items`.
    pub(crate) fn having(view: &GpsjView, items: &[DataType]) -> Result<Self> {
        let mut tests = Vec::with_capacity(view.having.len());
        for (i, h) in view.having.iter().enumerate() {
            let (value, rt) = (Rhs::Lit(h.value.clone()), h.value.data_type());
            let test = items
                .get(h.item)
                .and_then(|&lt| Test::new(h.item, h.op, value, lt, rt));
            let Some(test) = test else {
                let item = view.select.get(h.item).map_or("?", |item| item.alias());
                let message = format!("cannot compare output '{item}' with {}", h.value);
                return Err(refused(view, ViewSite::Having(i), message));
            };
            tests.push(test);
        }
        Ok(Filter(tests))
    }

    /// Whether `row` passes every comparison.
    #[inline]
    pub(crate) fn passes(&self, row: &[Value]) -> bool {
        self.0.iter().all(|test| test.holds(row))
    }

    /// The positions the comparisons read.
    pub(crate) fn columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .flat_map(|test| match test.right {
                Rhs::Lit(_) => [Some(test.left), None],
                Rhs::Col(c) => [Some(test.left), Some(c)],
            })
            .flatten()
    }
}

impl Test {
    /// The test of values of types `lt` and `rt`, if they compare.
    fn new(left: usize, op: CmpOp, right: Rhs, lt: DataType, rt: DataType) -> Option<Self> {
        let widen = lt != rt;
        if widen && !(lt.is_numeric() && rt.is_numeric()) {
            return None;
        }
        let right = match right {
            Rhs::Lit(v) if widen => Rhs::Lit(as_f64(&v)),
            right => right,
        };
        Some(Test {
            left,
            op,
            right,
            widen,
        })
    }

    #[inline]
    fn holds(&self, row: &[Value]) -> bool {
        let right = match &self.right {
            Rhs::Lit(v) => v,
            Rhs::Col(c) => &row[*c],
        };
        let left = &row[self.left];
        let ord = match self.widen {
            false => left.cmp(right),
            true => as_f64(left).cmp(&as_f64(right)),
        };
        match self.op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A number as a `DOUBLE`, an `INT` rounded to the nearest `f64`.
#[inline]
fn as_f64(v: &Value) -> Value {
    Value::Double(match *v {
        Value::Int(i) => i as f64,
        Value::Double(d) => d,
        ref v => unreachable!("a test widens numbers only, not {}", v.data_type()),
    })
}

/// The refusal of `view`'s plan at resolve time: one defect at `site` —
/// a select item's aggregate that cannot take its argument, or else a
/// comparison of types that do not compare.
pub(crate) fn refused(view: &GpsjView, site: ViewSite, message: String) -> MaintainError {
    let kind = match site {
        ViewSite::Select(_) => DefectKind::AggregateArgument,
        _ => DefectKind::ComparisonTypes,
    };
    let (view, defects) = (
        view.name.clone(),
        vec![ViewDefect {
            kind,
            site,
            message,
        }],
    );
    MaintainError::Algebra(AlgebraError::InvalidView { view, defects })
}

#[cfg(test)]
mod tests {
    use md_algebra::{ColRef, RowEnv};
    use md_relation::{Row, Schema};

    use super::*;

    /// Values at the edges of each type: the integers a `DOUBLE` cannot
    /// hold, signed zeros, infinities and NaNs, empty and non-ASCII
    /// strings.
    fn domain() -> Vec<Value> {
        let two53 = 1i64 << 53;
        let ints = [i64::MIN, -1, 0, 1, two53 - 1, two53, two53 + 1, i64::MAX];
        let doubles = [
            f64::NEG_INFINITY,
            i64::MIN as f64,
            -1.5,
            -0.0,
            0.0,
            5e-324,
            1.0,
            two53 as f64,
            (two53 + 2) as f64,
            i64::MAX as f64,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let strs = ["", "a", "A", "é", "日本", "a\u{0}", "ab"];
        let ints = ints.into_iter().map(Value::Int);
        let doubles = doubles.into_iter().map(Value::Double);
        let strs = strs.into_iter().map(Value::str);
        let bools = [false, true].into_iter().map(Value::Bool);
        ints.chain(doubles).chain(strs).chain(bools).collect()
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// For every operator and every pair of the domain whose types a view
    /// may compare, the compiled test answers what `Condition::eval`
    /// answers — against a literal, and against a second column — and a
    /// pair it may not compare does not compile.
    #[test]
    fn a_compiled_test_answers_what_condition_eval_answers() {
        // Two columns of each type: `c0, c1` INT, `c2, c3` DOUBLE, …
        let types = [
            DataType::Int,
            DataType::Double,
            DataType::Str,
            DataType::Bool,
        ];
        let names = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
        let pairs: Vec<_> = (names.iter().zip(types.iter().flat_map(|&t| [t, t])))
            .map(|(name, dtype)| (*name, dtype))
            .collect();
        let mut catalog = Catalog::new();
        let t = catalog
            .add_table("t", Schema::from_pairs(&pairs), 0)
            .unwrap();
        let view = GpsjView::new("pin", vec![t], vec![], vec![]);
        let at = |v: &Value| 2 * types.iter().position(|&t| t == v.data_type()).unwrap();
        let blank = [
            Value::Int(0),
            Value::Double(0.0),
            Value::str(""),
            Value::Bool(false),
        ];
        let domain = domain();
        let mut compared = 0;
        for a in &domain {
            for b in &domain {
                let mut row: Vec<Value> =
                    blank.iter().flat_map(|v| [v.clone(), v.clone()]).collect();
                let (left, right) = (ColRef::new(t, at(a)), ColRef::new(t, at(b) + 1));
                (row[left.column], row[right.column]) = (a.clone(), b.clone());
                let row = Row::new(row);
                let env = RowEnv::single(t, &row);
                for op in OPS {
                    let with_lit = Condition::cmp_lit(left, op, b.clone());
                    let with_col = Condition {
                        left,
                        op,
                        right: Operand::Col(right),
                    };
                    for cond in [with_lit, with_col] {
                        let compiled = Filter::locals(&view, t, [&cond], &catalog);
                        match (cond.eval(&env), compiled) {
                            (Ok(want), Ok(filter)) => {
                                assert_eq!(filter.passes(row.values()), want, "{cond:?}");
                                compared += 1;
                            }
                            (Err(_), Err(_)) => {}
                            (want, got) => panic!("{cond:?}: eval {want:?}, compiled {got:?}"),
                        }
                    }
                }
            }
        }
        // Each of the 21 numbers against each, each string against each,
        // each boolean against each; six operators, two shapes.
        assert_eq!(compared, (21 * 21 + 7 * 7 + 2 * 2) * 6 * 2);
    }
}
