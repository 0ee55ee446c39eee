//! Aggregates and generalized-projection select items.
//!
//! The paper considers the five SQL aggregates `COUNT`, `SUM`, `AVG`, `MIN`,
//! `MAX`, each optionally with `DISTINCT`, plus `COUNT(*)` (Section 2.1).
//! Regular attributes in the generalized projection become group-by
//! attributes. This module defines the AST plus one-shot accumulators used
//! by the evaluation engine (and, as the recomputation path, by the
//! maintenance engine).

use std::collections::HashSet;
use std::fmt;

use md_relation::{Catalog, DataType, Value};

use crate::error::{AlgebraError, Result};
use crate::expansion::ExpansionSum;
use crate::pred::ColRef;

/// The five SQL aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Result type of the aggregate over an argument of type `arg`.
    pub fn result_type(self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Double,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                arg.expect("SUM/AVG/MIN/MAX always have an argument")
            }
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An aggregate expression `f(a)`, `f(DISTINCT a)` or `COUNT(*)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// The single-attribute argument; `None` means `COUNT(*)`.
    pub arg: Option<ColRef>,
    /// Whether the `DISTINCT` keyword is present.
    pub distinct: bool,
}

impl Aggregate {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        Aggregate {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }
    }

    /// `f(col)`.
    pub fn of(func: AggFunc, col: ColRef) -> Self {
        Aggregate {
            func,
            arg: Some(col),
            distinct: false,
        }
    }

    /// `f(DISTINCT col)`.
    pub fn distinct_of(func: AggFunc, col: ColRef) -> Self {
        Aggregate {
            func,
            arg: Some(col),
            distinct: true,
        }
    }

    /// Validates well-formedness: only `COUNT` may omit the argument, and
    /// `SUM`/`AVG` require a numeric argument type.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        match self.arg {
            None => {
                if self.func != AggFunc::Count {
                    return Err(AlgebraError::BadAggregateArgument {
                        func: self.func.name().into(),
                        detail: "only COUNT may be applied to *".into(),
                    });
                }
                if self.distinct {
                    return Err(AlgebraError::BadAggregateArgument {
                        func: "COUNT".into(),
                        detail: "COUNT(DISTINCT *) is not valid SQL".into(),
                    });
                }
                Ok(())
            }
            Some(col) => {
                let def = catalog.def(col.table)?;
                if col.column >= def.schema.arity() {
                    return Err(AlgebraError::BadAggregateArgument {
                        func: self.func.name().into(),
                        detail: format!(
                            "column index {} out of range for table '{}'",
                            col.column, def.name
                        ),
                    });
                }
                let dtype = def.schema.column(col.column).dtype;
                if matches!(self.func, AggFunc::Sum | AggFunc::Avg) && !dtype.is_numeric() {
                    return Err(AlgebraError::BadAggregateArgument {
                        func: self.func.name().into(),
                        detail: format!(
                            "argument {} has non-numeric type {dtype}",
                            col.display(catalog)
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// Result type given the catalog.
    pub fn result_type(&self, catalog: &Catalog) -> Result<DataType> {
        let arg_type = match self.arg {
            None => None,
            Some(col) => Some(catalog.def(col.table)?.schema.column(col.column).dtype),
        };
        Ok(self.func.result_type(arg_type))
    }

    /// SQL rendering, e.g. `COUNT(DISTINCT product.brand)`.
    pub fn display(&self, catalog: &Catalog) -> String {
        match self.arg {
            None => "COUNT(*)".to_owned(),
            Some(col) => {
                let d = if self.distinct { "DISTINCT " } else { "" };
                format!("{}({d}{})", self.func, col.display(catalog))
            }
        }
    }
}

/// One item of a generalized projection: either a group-by attribute or an
/// aggregate, each with an output alias.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A regular attribute, which becomes a group-by attribute (`GB(A)` in
    /// the paper).
    GroupBy {
        /// The projected attribute.
        col: ColRef,
        /// Output column name.
        alias: String,
    },
    /// An aggregate.
    Agg {
        /// The aggregate expression.
        agg: Aggregate,
        /// Output column name.
        alias: String,
    },
}

impl SelectItem {
    /// Convenience constructor for group-by items.
    pub fn group_by(col: ColRef, alias: impl Into<String>) -> Self {
        SelectItem::GroupBy {
            col,
            alias: alias.into(),
        }
    }

    /// Convenience constructor for aggregate items.
    pub fn agg(agg: Aggregate, alias: impl Into<String>) -> Self {
        SelectItem::Agg {
            agg,
            alias: alias.into(),
        }
    }

    /// The output alias.
    pub fn alias(&self) -> &str {
        match self {
            SelectItem::GroupBy { alias, .. } | SelectItem::Agg { alias, .. } => alias,
        }
    }

    /// The aggregate, if this item is one.
    pub fn as_agg(&self) -> Option<&Aggregate> {
        match self {
            SelectItem::Agg { agg, .. } => Some(agg),
            SelectItem::GroupBy { .. } => None,
        }
    }

    /// The group-by column, if this item is one.
    pub fn as_group_by(&self) -> Option<ColRef> {
        match self {
            SelectItem::GroupBy { col, .. } => Some(*col),
            SelectItem::Agg { .. } => None,
        }
    }
}

/// A one-shot accumulator computing one aggregate over a stream of values.
///
/// `update` is fed the argument value (or nothing for `COUNT(*)`) once per
/// contributing row occurrence; `finish` produces the aggregate value, or
/// `None` over an empty input (a group with no rows does not appear in the
/// output). Sums are exact [`ExpansionSum`]s, rounded once by `finish`, so
/// no result depends on the order rows arrive in.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// Row counter (`COUNT(*)` and `COUNT(a)` — no nulls, so they agree).
    Count(i64),
    /// Distinct counter (`COUNT(DISTINCT a)`).
    CountDistinct(HashSet<Value>),
    /// Running sum.
    Sum {
        /// Sum so far.
        total: ExpansionSum,
        /// Number of contributing rows (to detect empty input).
        n: u64,
    },
    /// Sum over distinct values (`SUM(DISTINCT a)`).
    SumDistinct {
        /// The distinct values.
        values: HashSet<Value>,
        /// The argument column's type.
        dtype: DataType,
    },
    /// Running average: the sum, rounded once, over the number of rows.
    Avg {
        /// Sum so far.
        total: ExpansionSum,
        /// Number of contributing rows.
        n: u64,
    },
    /// Average over distinct values (`AVG(DISTINCT a)`): their sum over
    /// their number.
    AvgDistinct {
        /// The distinct values.
        values: HashSet<Value>,
        /// The argument column's type.
        dtype: DataType,
    },
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
}

impl Accumulator {
    /// Creates the accumulator for `agg`, given the argument column type.
    pub fn new(agg: &Aggregate, arg_type: Option<DataType>) -> Result<Self> {
        let dtype = || arg_type.ok_or_else(|| missing_arg(agg.func.name()));
        Ok(match (agg.func, agg.distinct) {
            (AggFunc::Count, false) => Accumulator::Count(0),
            (AggFunc::Count, true) => Accumulator::CountDistinct(HashSet::new()),
            (AggFunc::Sum, false) => Accumulator::Sum {
                total: ExpansionSum::new(dtype()?)?,
                n: 0,
            },
            (AggFunc::Sum, true) => Accumulator::SumDistinct {
                values: HashSet::new(),
                dtype: dtype()?,
            },
            (AggFunc::Avg, false) => Accumulator::Avg {
                total: ExpansionSum::new(dtype()?)?,
                n: 0,
            },
            (AggFunc::Avg, true) => Accumulator::AvgDistinct {
                values: HashSet::new(),
                dtype: dtype()?,
            },
            (AggFunc::Min, _) => Accumulator::Min(None),
            (AggFunc::Max, _) => Accumulator::Max(None),
        })
    }

    /// Feeds one row's argument value (`None` only for `COUNT(*)`).
    pub fn update(&mut self, value: Option<&Value>) -> Result<()> {
        self.update_n(value, 1)
    }

    /// Feeds one argument value with multiplicity `n` — the entry point used
    /// when aggregating over compressed duplicates, where each stored tuple
    /// represents `n` base tuples (paper Section 3.2).
    ///
    /// For duplicate-insensitive accumulators (`DISTINCT`, `MIN`, `MAX`) the
    /// multiplicity is irrelevant, exactly as the paper observes.
    pub fn update_n(&mut self, value: Option<&Value>, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        match self {
            Accumulator::Count(c) => *c += n as i64,
            Accumulator::CountDistinct(set)
            | Accumulator::SumDistinct { values: set, .. }
            | Accumulator::AvgDistinct { values: set, .. } => {
                set.insert(value.ok_or_else(|| missing_arg("DISTINCT"))?.clone());
            }
            Accumulator::Sum { total, n: count } | Accumulator::Avg { total, n: count } => {
                total.add(value.ok_or_else(|| missing_arg("SUM/AVG"))?, n)?;
                *count += n;
            }
            Accumulator::Min(slot) => {
                let v = value.ok_or_else(|| missing_arg("MIN"))?;
                let replace = match slot {
                    None => true,
                    Some(cur) => {
                        v.try_cmp(cur).map_err(AlgebraError::from)? == std::cmp::Ordering::Less
                    }
                };
                if replace {
                    *slot = Some(v.clone());
                }
            }
            Accumulator::Max(slot) => {
                let v = value.ok_or_else(|| missing_arg("MAX"))?;
                let replace = match slot {
                    None => true,
                    Some(cur) => {
                        v.try_cmp(cur).map_err(AlgebraError::from)? == std::cmp::Ordering::Greater
                    }
                };
                if replace {
                    *slot = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Produces the aggregate value; `None` over an empty input.
    pub fn finish(&self) -> Result<Option<Value>> {
        let distinct_sum = |values: &HashSet<Value>, dtype| -> Result<ExpansionSum> {
            let mut total = ExpansionSum::new(dtype)?;
            for v in values {
                total.add(v, 1)?;
            }
            Ok(total)
        };
        Ok(match self {
            Accumulator::Count(c) => Some(Value::Int(*c)),
            Accumulator::CountDistinct(set) => Some(Value::Int(set.len() as i64)),
            Accumulator::Sum { n: 0, .. } | Accumulator::Avg { n: 0, .. } => None,
            Accumulator::Sum { total, .. } => Some(total.sum()),
            Accumulator::Avg { total, n } => Some(total.mean(*n)),
            Accumulator::SumDistinct { values, .. } | Accumulator::AvgDistinct { values, .. }
                if values.is_empty() =>
            {
                None
            }
            Accumulator::SumDistinct { values, dtype } => Some(distinct_sum(values, *dtype)?.sum()),
            Accumulator::AvgDistinct { values, dtype } => {
                Some(distinct_sum(values, *dtype)?.mean(values.len() as u64))
            }
            Accumulator::Min(slot) | Accumulator::Max(slot) => slot.clone(),
        })
    }
}

fn missing_arg(func: &str) -> AlgebraError {
    AlgebraError::BadAggregateArgument {
        func: func.into(),
        detail: "missing argument value".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(agg: Aggregate, arg_type: Option<DataType>, values: &[Value]) -> Option<Value> {
        let mut acc = Accumulator::new(&agg, arg_type).unwrap();
        for v in values {
            acc.update(Some(v)).unwrap();
        }
        acc.finish().unwrap()
    }

    #[test]
    fn count_star_counts_rows() {
        let mut acc = Accumulator::new(&Aggregate::count_star(), None).unwrap();
        acc.update(None).unwrap();
        acc.update(None).unwrap();
        acc.update_n(None, 3).unwrap();
        assert_eq!(acc.finish().unwrap(), Some(Value::Int(5)));
    }

    #[test]
    fn count_star_over_empty_is_zero() {
        let acc = Accumulator::new(&Aggregate::count_star(), None).unwrap();
        assert_eq!(acc.finish().unwrap(), Some(Value::Int(0)));
    }

    #[test]
    fn sum_int_stays_int() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        let out = run(
            Aggregate::of(AggFunc::Sum, col),
            Some(DataType::Int),
            &[Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        assert_eq!(out, Some(Value::Int(6)));
    }

    #[test]
    fn sum_double() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        let out = run(
            Aggregate::of(AggFunc::Sum, col),
            Some(DataType::Double),
            &[Value::Double(1.5), Value::Double(2.5)],
        );
        assert_eq!(out, Some(Value::Double(4.0)));
    }

    #[test]
    fn sum_over_empty_is_none() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        assert_eq!(
            run(Aggregate::of(AggFunc::Sum, col), Some(DataType::Int), &[]),
            None
        );
    }

    #[test]
    fn sum_with_multiplicity_multiplies() {
        // The f(a · cnt₀) rule: one stored tuple standing for 4 duplicates.
        let col = ColRef::new(md_relation::TableId(0), 0);
        let mut acc =
            Accumulator::new(&Aggregate::of(AggFunc::Sum, col), Some(DataType::Double)).unwrap();
        acc.update_n(Some(&Value::Double(2.5)), 4).unwrap();
        assert_eq!(acc.finish().unwrap(), Some(Value::Double(10.0)));
    }

    #[test]
    fn avg_is_double() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        let out = run(
            Aggregate::of(AggFunc::Avg, col),
            Some(DataType::Int),
            &[Value::Int(1), Value::Int(2)],
        );
        assert_eq!(out, Some(Value::Double(1.5)));
    }

    #[test]
    fn min_max_track_extrema() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        let vals = [Value::Int(5), Value::Int(1), Value::Int(9)];
        assert_eq!(
            run(Aggregate::of(AggFunc::Min, col), Some(DataType::Int), &vals),
            Some(Value::Int(1))
        );
        assert_eq!(
            run(Aggregate::of(AggFunc::Max, col), Some(DataType::Int), &vals),
            Some(Value::Int(9))
        );
    }

    #[test]
    fn min_max_ignore_multiplicity() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        let mut acc =
            Accumulator::new(&Aggregate::of(AggFunc::Min, col), Some(DataType::Int)).unwrap();
        acc.update_n(Some(&Value::Int(3)), 100).unwrap();
        acc.update_n(Some(&Value::Int(7)), 1).unwrap();
        assert_eq!(acc.finish().unwrap(), Some(Value::Int(3)));
    }

    #[test]
    fn distinct_aggregates_dedupe() {
        let col = ColRef::new(md_relation::TableId(0), 0);
        let vals = [Value::Int(2), Value::Int(2), Value::Int(3)];
        assert_eq!(
            run(
                Aggregate::distinct_of(AggFunc::Count, col),
                Some(DataType::Int),
                &vals
            ),
            Some(Value::Int(2))
        );
        assert_eq!(
            run(
                Aggregate::distinct_of(AggFunc::Sum, col),
                Some(DataType::Int),
                &vals
            ),
            Some(Value::Int(5))
        );
        assert_eq!(
            run(
                Aggregate::distinct_of(AggFunc::Avg, col),
                Some(DataType::Int),
                &vals
            ),
            Some(Value::Double(2.5))
        );
    }

    #[test]
    fn distinct_sums_are_exact_in_every_feeding_order() {
        // Not sums of powers of two: a fold would show its order in the
        // last bits. The exact sum rounded once has none.
        let col = ColRef::new(md_relation::TableId(0), 0);
        let exact = 0.6;
        assert_ne!(exact, (0.1 + 0.2) + 0.3);
        for fed in [
            [0.2, 0.3, 0.1, 0.3],
            [0.3, 0.1, 0.2, 0.1],
            [0.1, 0.2, 0.3, 0.2],
        ] {
            let vals = fed.map(Value::Double);
            let run = |func| {
                run(
                    Aggregate::distinct_of(func, col),
                    Some(DataType::Double),
                    &vals,
                )
            };
            assert_eq!(run(AggFunc::Sum), Some(Value::Double(exact)));
            assert_eq!(run(AggFunc::Avg), Some(Value::Double(exact / 3.0)));
        }
    }

    #[test]
    fn validation_rules() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "t",
                md_relation::Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]),
                0,
            )
            .unwrap();
        // SUM over a string column is rejected.
        let bad = Aggregate::of(AggFunc::Sum, ColRef::new(t, 1));
        assert!(bad.validate(&cat).is_err());
        // MIN over strings is fine.
        let ok = Aggregate::of(AggFunc::Min, ColRef::new(t, 1));
        assert!(ok.validate(&cat).is_ok());
        // SUM(*) is not a thing.
        let sum_star = Aggregate {
            func: AggFunc::Sum,
            arg: None,
            distinct: false,
        };
        assert!(sum_star.validate(&cat).is_err());
        // COUNT(*) is.
        assert!(Aggregate::count_star().validate(&cat).is_ok());
    }

    #[test]
    fn result_types() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "t",
                md_relation::Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        assert_eq!(
            Aggregate::count_star().result_type(&cat).unwrap(),
            DataType::Int
        );
        assert_eq!(
            Aggregate::of(AggFunc::Sum, ColRef::new(t, 1))
                .result_type(&cat)
                .unwrap(),
            DataType::Double
        );
        assert_eq!(
            Aggregate::of(AggFunc::Avg, ColRef::new(t, 0))
                .result_type(&cat)
                .unwrap(),
            DataType::Double
        );
    }

    #[test]
    fn display_rendering() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "product",
                md_relation::Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        assert_eq!(Aggregate::count_star().display(&cat), "COUNT(*)");
        assert_eq!(
            Aggregate::distinct_of(AggFunc::Count, ColRef::new(t, 1)).display(&cat),
            "COUNT(DISTINCT product.brand)"
        );
    }
}
