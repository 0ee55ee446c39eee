//! Name resolution: [`ParsedView`] + [`Catalog`] → [`GpsjView`].
//!
//! This layer decides *names* and nothing else: every `FROM` table exists,
//! column references resolve unambiguously to a `FROM` table, plain select
//! columns and `GROUP BY` columns coincide (the paper requires all group-by
//! attributes to be projected), a condition mentions at least one column,
//! and a `HAVING` conjunct refers to an output of the view. Every defect is
//! recorded with the span of the clause element it sits in
//! ([`SqlError::Resolve`] carries them all, in clause order). Shape and
//! types — self-joins, duplicate aliases, comparison typing, key joins — are
//! decided by [`GpsjView::validate`], which runs on the resolved view.
//!
//! **Index alignment.** The view is index-aligned with the statement:
//! `view.tables[i]` is `parsed.from[i]`, `view.select[i]` is
//! `parsed.select[i]`, `view.conditions[i]` is `parsed.conditions[i]`
//! (a literal on the left flips the operator in place; nothing moves) and
//! `view.having[i]` is `parsed.having[i]`. A [`ViewSite`](md_algebra::ViewSite)
//! of the view is therefore an index into [`ParsedSpans`](crate::ParsedSpans):
//! `md-check` relies on it to put a span on everything found after resolution.

use md_algebra::{
    AggFunc, Aggregate, ColRef, Condition, GpsjView, HavingCond, Operand, SelectItem,
};
use md_relation::{Catalog, TableDef, TableId, Value};

use crate::error::{ResolveDefect, ResolveKind, SqlError, SqlResult};
use crate::parser::{
    flip_op, ParsedExpr, ParsedLiteral, ParsedOperand, ParsedView, QualName, Span,
};

/// Resolves a parsed view against `catalog`. `default_name` is used when
/// the statement had no `CREATE VIEW` clause.
pub fn resolve(parsed: &ParsedView, catalog: &Catalog, default_name: &str) -> SqlResult<GpsjView> {
    use ResolveKind::*;
    let spans = &parsed.spans;
    let span_of = |list: &[Span], i: usize| list.get(i).copied().unwrap_or(spans.statement);
    let mut r = Resolver {
        catalog,
        from: Vec::with_capacity(parsed.from.len()),
        unknown: Vec::new(),
        defects: Vec::new(),
    };

    for (i, name) in parsed.from.iter().enumerate() {
        match (catalog.table_id(name)).and_then(|id| Some((id, catalog.def(id).ok()?))) {
            Some(entry) => r.from.push(entry),
            None => {
                r.unknown.push(name);
                let message = format!("unknown table '{name}' in FROM");
                r.defect(UnknownTable, span_of(&spans.from, i), message);
            }
        }
    }

    // Select items; an entry is `None` when a name in it did not resolve.
    let mut aliases = Vec::with_capacity(parsed.select.len());
    let mut select: Vec<Option<SelectItem>> = Vec::with_capacity(parsed.select.len());
    for (i, item) in parsed.select.iter().enumerate() {
        let span = span_of(&spans.select, i);
        let alias = (item.alias.clone()).unwrap_or_else(|| default_alias(&item.expr));
        aliases.push(alias.clone());
        select.push(match &item.expr {
            ParsedExpr::Col(qn) => r.col(qn, span).map(|c| SelectItem::group_by(c, alias)),
            ParsedExpr::Agg {
                func,
                distinct,
                arg,
            } => (r.agg(*func, *distinct, arg, span)).map(|a| SelectItem::agg(a, alias)),
        });
    }
    let plain = |it: &Option<SelectItem>| it.as_ref().and_then(SelectItem::as_group_by);

    // GROUP BY must equal the set of plain select columns.
    let group_cols: Vec<Option<ColRef>> = (parsed.group_by.iter().enumerate())
        .map(|(i, qn)| r.col(qn, span_of(&spans.group_by, i)))
        .collect();
    for (i, c) in select.iter().map(plain).enumerate() {
        if let Some(c) = c.filter(|_| !group_cols.contains(&c)) {
            let message = format!(
                "select column {} must appear in GROUP BY",
                c.display(catalog)
            );
            r.defect(SelectNotGrouped, span_of(&spans.select, i), message);
        }
    }
    for (i, c) in group_cols.iter().enumerate() {
        if let Some(c) = c.filter(|_| !select.iter().any(|it| plain(it) == *c)) {
            let column = c.display(catalog);
            let message = format!("GROUP BY column {column} must be projected in the select list");
            r.defect(GroupNotSelected, span_of(&spans.group_by, i), message);
        }
    }

    // Conditions: the column goes left; a literal on the left flips the operator.
    let mut conditions = Vec::with_capacity(parsed.conditions.len());
    for (i, cond) in parsed.conditions.iter().enumerate() {
        let span = span_of(&spans.conditions, i);
        let resolved = match (&cond.left, &cond.right) {
            (ParsedOperand::Col(lhs), ParsedOperand::Col(rhs)) => {
                let (lhs, rhs) = (r.col(lhs, span), r.col(rhs, span));
                lhs.zip(rhs).map(|(l, rhs)| (l, cond.op, Operand::Col(rhs)))
            }
            (ParsedOperand::Col(lhs), ParsedOperand::Lit(v)) => {
                (r.col(lhs, span)).map(|l| (l, cond.op, Operand::Lit(lit_value(v))))
            }
            (ParsedOperand::Lit(v), ParsedOperand::Col(rhs)) => {
                (r.col(rhs, span)).map(|l| (l, flip_op(cond.op), Operand::Lit(lit_value(v))))
            }
            (ParsedOperand::Lit(_), ParsedOperand::Lit(_)) => {
                let message = "conditions between two literals are not supported";
                r.defect(LiteralOnlyCondition, span, message.to_owned());
                None
            }
        };
        conditions.extend(resolved.map(|(left, op, right)| Condition { left, op, right }));
    }

    // A HAVING conjunct restricts an output: an aggregate call matching a
    // select item, a select alias, or a group-by column.
    let mut having = Vec::with_capacity(parsed.having.len());
    for (i, h) in parsed.having.iter().enumerate() {
        let span = span_of(&spans.having, i);
        let item = match &h.expr {
            ParsedExpr::Agg {
                func,
                distinct,
                arg,
            } => r.agg(*func, *distinct, arg, span).and_then(|wanted| {
                let found = (select.iter())
                    .position(|it| it.as_ref().and_then(SelectItem::as_agg) == Some(&wanted));
                if found.is_none() {
                    let func = func.name();
                    let message = format!("HAVING aggregate {func} is not in the select list");
                    r.defect(HavingAggregateNotSelected, span, message);
                }
                found
            }),
            ParsedExpr::Col(qn) => {
                // Prefer an alias match for unqualified names.
                let by_alias = (qn.table.is_none())
                    .then(|| aliases.iter().position(|a| *a == qn.column))
                    .flatten();
                by_alias.or_else(|| {
                    let col = r.col(qn, span)?;
                    let found = select.iter().position(|it| plain(it) == Some(col));
                    if found.is_none() {
                        let message = format!(
                            "HAVING references '{}', which is neither an output alias nor a \
                             group-by column",
                            qn.to_sql()
                        );
                        r.defect(HavingNotAnOutput, span, message);
                    }
                    found
                })
            }
        };
        having.extend(item.map(|item| HavingCond {
            item,
            op: h.op,
            value: lit_value(&h.value),
        }));
    }

    if !r.defects.is_empty() {
        return Err(SqlError::Resolve(r.defects));
    }
    let name = (parsed.name.clone()).unwrap_or_else(|| default_name.to_owned());
    let tables = r.from.iter().map(|(id, _)| *id).collect();
    let select = select.into_iter().flatten().collect();
    let view = GpsjView::new(name, tables, select, conditions).with_having(having);
    view.validate(catalog)?;
    Ok(view)
}

struct Resolver<'a> {
    catalog: &'a Catalog,
    /// The `FROM` tables that exist, in clause order.
    from: Vec<(TableId, &'a TableDef)>,
    /// The `FROM` names that do not: reported there, not again per reference.
    unknown: Vec<&'a str>,
    defects: Vec<ResolveDefect>,
}

impl Resolver<'_> {
    fn defect(&mut self, kind: ResolveKind, span: Span, message: String) {
        self.defects.push(ResolveDefect {
            kind,
            span,
            message,
        });
    }

    /// Resolves one possibly-qualified name, recording at most one defect.
    fn col(&mut self, qn: &QualName, span: Span) -> Option<ColRef> {
        use ResolveKind::*;
        let column = &qn.column;
        let Some(tname) = &qn.table else {
            let mut found: Option<(ColRef, &str)> = None;
            for (id, def) in &self.from {
                let Some(col) = def.schema.index_of(column) else {
                    continue;
                };
                match found {
                    // A table listed twice is validate's finding, not an ambiguity.
                    Some((prev, _)) if prev.table == *id => {}
                    Some((_, first)) => {
                        let message = format!(
                            "ambiguous column '{column}': found in '{first}' and '{}'",
                            def.name
                        );
                        let qualified = format!("{first}.{column}");
                        self.defect(AmbiguousColumn { qualified }, span, message);
                        return None;
                    }
                    None => found = Some((ColRef::new(*id, col), &def.name)),
                }
            }
            if found.is_none() {
                let message = format!("column '{column}' not found in any FROM table");
                self.defect(ColumnNotFound, span, message);
            }
            return found.map(|(col, _)| col);
        };
        let Some(id) = self.catalog.table_id(tname) else {
            if !self.unknown.contains(&tname.as_str()) {
                self.defect(UnknownTable, span, format!("unknown table '{tname}'"));
            }
            return None;
        };
        let Some((_, def)) = self.from.iter().find(|(t, _)| *t == id) else {
            let message = format!("table '{tname}' is not listed in FROM");
            self.defect(TableNotInFrom, span, message);
            return None;
        };
        let col = def.schema.index_of(column);
        if col.is_none() {
            let message = format!("unknown column '{column}' in table '{tname}'");
            self.defect(UnknownColumn(id), span, message);
        }
        col.map(|col| ColRef::new(id, col))
    }

    /// Resolves an aggregate call's argument.
    fn agg(
        &mut self,
        func: AggFunc,
        distinct: bool,
        arg: &Option<QualName>,
        span: Span,
    ) -> Option<Aggregate> {
        let Some(qn) = arg else {
            return Some(Aggregate::count_star());
        };
        let col = self.col(qn, span)?;
        Some(if distinct {
            Aggregate::distinct_of(func, col)
        } else {
            Aggregate::of(func, col)
        })
    }
}

/// The output name of a select item written without `AS`.
fn default_alias(expr: &ParsedExpr) -> String {
    match expr {
        ParsedExpr::Col(qn) => qn.column.clone(),
        ParsedExpr::Agg { arg: None, .. } => "count_all".to_owned(),
        ParsedExpr::Agg {
            func,
            distinct,
            arg: Some(qn),
        } => format!(
            "{}_{}{}",
            func.name().to_ascii_lowercase(),
            if *distinct { "distinct_" } else { "" },
            qn.column
        ),
    }
}

fn lit_value(lit: &ParsedLiteral) -> Value {
    match lit {
        ParsedLiteral::Int(v) => Value::Int(*v),
        ParsedLiteral::Double(v) => Value::Double(*v),
        ParsedLiteral::Str(s) => Value::Str(s.clone()),
    }
}

/// Parses and resolves in one step.
pub fn parse_view(sql: &str, catalog: &Catalog, default_name: &str) -> SqlResult<GpsjView> {
    let parsed = crate::parser::parse(sql)?;
    resolve(&parsed, catalog, default_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{AlgebraError, CmpOp, DefectKind, ViewSite};
    use md_relation::{DataType, Schema};

    /// The kinds and spanned source texts of a failed resolution.
    fn defects<'a>(sql: &'a str, cat: &Catalog) -> Vec<(ResolveKind, &'a str)> {
        match parse_view(sql, cat, "q").unwrap_err() {
            SqlError::Resolve(ds) => (ds.into_iter())
                .map(|d| (d.kind, &sql[d.span.start..d.span.end]))
                .collect(),
            other => panic!("expected a resolution error for {sql:?}, got {other}"),
        }
    }

    fn catalog() -> (Catalog, TableId, TableId, TableId) {
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
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, time).unwrap();
        cat.add_foreign_key(sale, 2, product).unwrap();
        (cat, time, product, sale)
    }

    #[test]
    fn resolves_the_paper_view() {
        let (cat, time, product, sale) = catalog();
        let v = parse_view(
            "CREATE VIEW product_sales AS \
             SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount, \
                    COUNT(DISTINCT brand) AS DifferentBrands \
             FROM sale, time, product \
             WHERE time.year = 1997 AND sale.timeid = time.id \
               AND sale.productid = product.id \
             GROUP BY time.month",
            &cat,
            "q",
        )
        .unwrap();
        assert_eq!(v.name, "product_sales");
        assert_eq!(v.tables, vec![sale, time, product]);
        assert_eq!(v.group_by_cols(), vec![ColRef::new(time, 1)]);
        let aggs = v.aggregates();
        assert_eq!(aggs[0].func, AggFunc::Sum);
        assert_eq!(aggs[0].arg, Some(ColRef::new(sale, 3))); // price
        assert!(aggs[2].distinct);
        assert_eq!(aggs[2].arg, Some(ColRef::new(product, 1))); // brand
        assert_eq!(v.local_conditions(time).len(), 1);
    }

    #[test]
    fn unqualified_ambiguous_column_rejected() {
        let (cat, _, _, _) = catalog();
        // `id` exists in all three tables.
        let sql = "SELECT id FROM sale, time GROUP BY id";
        let ambiguous = ResolveKind::AmbiguousColumn {
            qualified: "sale.id".into(),
        };
        assert_eq!(
            defects(sql, &cat),
            vec![(ambiguous.clone(), "id"), (ambiguous, "id")]
        );
        let e = parse_view(sql, &cat, "q").unwrap_err().to_string();
        assert!(e.starts_with("resolution error at byte 7: ambiguous column 'id'"));
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        let (cat, _, _, sale) = catalog();
        // The unknown FROM table is reported there, not again per reference.
        assert_eq!(
            defects("SELECT nope.x, y FROM nope GROUP BY nope.x", &cat),
            vec![
                (ResolveKind::UnknownTable, "nope"),
                (ResolveKind::ColumnNotFound, "y")
            ]
        );
        assert_eq!(
            defects("SELECT sale.nope FROM sale", &cat),
            vec![(ResolveKind::UnknownColumn(sale), "sale.nope")]
        );
        assert_eq!(
            defects(
                "SELECT time.month FROM sale WHERE sale.id = 1 GROUP BY time.month",
                &cat
            ),
            vec![
                (ResolveKind::TableNotInFrom, "time.month"),
                (ResolveKind::TableNotInFrom, "time.month")
            ]
        );
    }

    #[test]
    fn having_must_name_an_output() {
        let (cat, _, _, _) = catalog();
        let sql = "SELECT time.month, COUNT(*) AS n FROM time GROUP BY time.month \
                   HAVING SUM(time.year) > 1 AND time.year > 1 AND 0 < n";
        assert_eq!(
            defects(sql, &cat),
            vec![
                (
                    ResolveKind::HavingAggregateNotSelected,
                    "SUM(time.year) > 1"
                ),
                (ResolveKind::HavingNotAnOutput, "time.year > 1"),
            ]
        );
    }

    /// The contract `md-check` reads spans through: every vector of the
    /// view is index-aligned with its clause of the statement, so a defect
    /// `validate` finds on the resolved view sits at the same index of
    /// `ParsedSpans`.
    #[test]
    fn the_view_is_index_aligned_with_the_statement() {
        let (cat, time, product, sale) = catalog();
        let sql = "SELECT product.brand, time.month AS m, COUNT(*) AS n, MAX(price) AS hi \
                   FROM time, sale, product \
                   WHERE 1996 < time.year AND sale.productid = product.id AND time.id = sale.timeid \
                     AND brand <> 'x' \
                   GROUP BY time.month, product.brand HAVING 3 >= n AND product.brand <> 'y'";
        let parsed = crate::parser::parse(sql).unwrap();
        let v = resolve(&parsed, &cat, "q").unwrap();
        assert_eq!(v.tables, vec![time, sale, product]);
        let aliases: Vec<&str> = v.select.iter().map(|it| it.alias()).collect();
        assert_eq!(aliases, vec!["brand", "m", "n", "hi"]);
        // Conditions keep their places; the literal-first ones flip.
        let lefts: Vec<ColRef> = v.conditions.iter().map(|c| c.left).collect();
        assert_eq!(
            lefts,
            vec![
                ColRef::new(time, 2),
                ColRef::new(sale, 2),
                ColRef::new(time, 0),
                ColRef::new(product, 1)
            ]
        );
        assert_eq!(v.conditions[0].op, CmpOp::Gt);
        assert_eq!((v.having[0].item, v.having[0].op), (2, CmpOp::Le));
        assert_eq!(v.having[1].item, 0);
        for (len, spans) in [
            (v.tables.len(), &parsed.spans.from),
            (v.select.len(), &parsed.spans.select),
            (v.conditions.len(), &parsed.spans.conditions),
            (v.having.len(), &parsed.spans.having),
        ] {
            assert_eq!(len, spans.len());
        }

        // A defect of the view is found at its site's span.
        let bad = sql.replace("brand <> 'x'", "brand <> 7");
        let parsed = crate::parser::parse(&bad).unwrap();
        let Err(SqlError::Algebra(AlgebraError::InvalidView { defects, .. })) =
            resolve(&parsed, &cat, "q")
        else {
            panic!("expected a typing defect");
        };
        assert_eq!(defects[0].kind, DefectKind::ComparisonTypes);
        assert_eq!(defects[0].site, ViewSite::Condition(3));
        let span = parsed.spans.conditions[3];
        assert_eq!(&bad[span.start..span.end], "brand <> 7");
    }

    #[test]
    fn select_group_by_must_match() {
        let (cat, _, _, _) = catalog();
        // month selected but not grouped.
        assert!(parse_view("SELECT time.month, COUNT(*) FROM time", &cat, "q").is_err());
        // grouped but not selected.
        assert!(parse_view("SELECT COUNT(*) FROM time GROUP BY time.month", &cat, "q").is_err());
    }

    #[test]
    fn literal_on_left_is_flipped() {
        let (cat, time, _, _) = catalog();
        let v = parse_view(
            "SELECT time.month, COUNT(*) FROM time WHERE 1996 < time.year GROUP BY time.month",
            &cat,
            "q",
        )
        .unwrap();
        let cond = &v.local_conditions(time)[0];
        assert_eq!(cond.left, ColRef::new(time, 2));
        assert_eq!(cond.op, CmpOp::Gt);
    }

    #[test]
    fn type_mismatch_in_condition_rejected() {
        let (cat, _, _, _) = catalog();
        let e = parse_view(
            "SELECT time.month, COUNT(*) FROM time WHERE time.year = 'x' GROUP BY time.month",
            &cat,
            "q",
        )
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid GPSJ view 'q': cannot compare time.year (INT) with a VARCHAR literal"
        );
    }

    #[test]
    fn non_ascii_string_literals_keep_their_text() {
        let (cat, _, product, _) = catalog();
        let sql = "SELECT product.brand, COUNT(*) FROM product \
                   WHERE product.brand = 'Café' GROUP BY product.brand";
        let parsed = crate::parser::parse(sql).unwrap();
        let span = parsed.spans.conditions[0];
        assert_eq!(&sql[span.start..span.end], "product.brand = 'Café'");
        let v = resolve(&parsed, &cat, "q").unwrap();
        let brand = ColRef::new(product, 1);
        assert_eq!(
            v.conditions,
            vec![Condition::cmp_lit(brand, CmpOp::Eq, "Café")]
        );
        assert_eq!(
            parse_view(
                "SELECT COUNT(*) FROM product WHERE brand = 'Café",
                &cat,
                "q"
            ),
            Err(SqlError::Lex {
                offset: 43,
                message: "unterminated string literal".into()
            })
        );
    }

    #[test]
    fn numeric_literal_against_double_column_ok() {
        let (cat, _, _, _) = catalog();
        assert!(parse_view(
            "SELECT sale.productid, COUNT(*) FROM sale WHERE sale.price > 5 \
             GROUP BY sale.productid",
            &cat,
            "q"
        )
        .is_ok());
    }

    #[test]
    fn default_aliases() {
        let (cat, _, _, _) = catalog();
        let v = parse_view(
            "SELECT time.month, COUNT(*), SUM(time.year), MIN(DISTINCT time.year) \
             FROM time GROUP BY time.month",
            &cat,
            "q",
        )
        .unwrap();
        let aliases: Vec<&str> = v.select.iter().map(|i| i.alias()).collect();
        assert_eq!(
            aliases,
            vec!["month", "count_all", "sum_year", "min_distinct_year"]
        );
    }

    #[test]
    fn default_view_name_used_for_bare_queries() {
        let (cat, _, _, _) = catalog();
        let v = parse_view(
            "SELECT time.month, COUNT(*) FROM time GROUP BY time.month",
            &cat,
            "adhoc",
        )
        .unwrap();
        assert_eq!(v.name, "adhoc");
    }
}
