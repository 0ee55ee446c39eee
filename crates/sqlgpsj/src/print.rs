//! SQL rendering: [`GpsjView`] and derived auxiliary views back to SQL.
//!
//! [`view_to_sql`] is the inverse of [`parse_view`](crate::parse_view): the
//! text it prints for a validated view resolves back to an equal view.
//! `Warehouse::save` stores that text and `restore`/`recover` re-read it,
//! so the guarantee covers literals too — [`sql_literal`] is the one
//! definition of the literal syntax the tokenizer reads.
//!
//! The auxiliary view renderer emits exactly the shape the paper prints in
//! Section 1.1 — semijoin reductions as `IN (SELECT key FROM otherDTL)`
//! subqueries and smart duplicate compression as `SUM`/`COUNT(*)` with a
//! `GROUP BY` over the raw columns.

use std::fmt::Write as _;

use md_algebra::{GpsjView, Operand, SelectItem};
use md_core::{AuxColKind, DerivedPlan};
use md_relation::{Catalog, TableId, Value};

use crate::error::{SqlError, SqlResult};

/// Renders a literal in this crate's SQL literal syntax, so that the
/// tokenizer reads back the same value: a string doubles its quotes, and a
/// finite double is printed positionally (no exponent) with the shortest
/// digits that parse to the same `f64` and always a fraction — `1e16` is
/// `10000000000000000.0`, not an `INT`; `-0.0` keeps its sign. (Row
/// printing uses `Value`'s `Display`, which is not this syntax.)
pub fn sql_literal(value: &Value) -> String {
    match value {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Double(d) => {
            let digits = d.to_string();
            if digits.contains('.') {
                digits
            } else {
                digits + ".0"
            }
        }
        Value::Int(_) | Value::Bool(_) => value.to_string(),
    }
}

/// Renders a GPSJ view definition as `CREATE VIEW … AS SELECT …` SQL.
pub fn view_to_sql(view: &GpsjView, catalog: &Catalog) -> SqlResult<String> {
    let mut out = String::new();
    let _ = write!(out, "CREATE VIEW {} AS\nSELECT ", view.name);
    for (i, item) in view.select.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::GroupBy { col, alias } => {
                let rendered = col.display(catalog);
                let _ = write!(out, "{rendered}");
                if alias != rendered.split('.').next_back().unwrap_or_default() {
                    let _ = write!(out, " AS {alias}");
                }
            }
            SelectItem::Agg { agg, alias } => {
                let _ = write!(out, "{} AS {alias}", agg.display(catalog));
            }
        }
    }
    out.push_str("\nFROM ");
    for (i, &t) in view.tables.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&catalog.def(t).map_err(SqlError::from)?.name);
    }
    if !view.conditions.is_empty() {
        out.push_str("\nWHERE ");
        for (i, cond) in view.conditions.iter().enumerate() {
            if i > 0 {
                out.push_str(" AND ");
            }
            let right = match &cond.right {
                Operand::Col(c) => c.display(catalog),
                Operand::Lit(v) => sql_literal(v),
            };
            let _ = write!(out, "{} {} {right}", cond.left.display(catalog), cond.op);
        }
    }
    let group_cols = view.group_by_cols();
    if !group_cols.is_empty() {
        out.push_str("\nGROUP BY ");
        for (i, c) in group_cols.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&c.display(catalog));
        }
    }
    if !view.having.is_empty() {
        out.push_str("\nHAVING ");
        for (i, h) in view.having.iter().enumerate() {
            if i > 0 {
                out.push_str(" AND ");
            }
            let expr = match &view.select[h.item] {
                SelectItem::GroupBy { col, .. } => col.display(catalog),
                SelectItem::Agg { agg, .. } => agg.display(catalog),
            };
            let _ = write!(out, "{expr} {} {}", h.op, sql_literal(&h.value));
        }
    }
    Ok(out)
}

/// Renders the auxiliary view of `table` from a derived plan as SQL, in the
/// paper's Section 1.1 style. Returns `None` when the auxiliary view was
/// eliminated.
pub fn aux_view_to_sql(
    plan: &DerivedPlan,
    table: TableId,
    catalog: &Catalog,
) -> SqlResult<Option<String>> {
    let Some(def) = plan.aux_for(table) else {
        return Ok(None);
    };
    let base = catalog.def(table).map_err(SqlError::from)?;
    let mut out = String::new();
    let _ = write!(out, "CREATE VIEW {} AS\nSELECT ", def.name);
    let mut first = true;
    let mut group_names = Vec::new();
    for col in &def.columns {
        if !first {
            out.push_str(", ");
        }
        first = false;
        match col.kind {
            AuxColKind::Group { src_col } => {
                let name = &base.schema.column(src_col).name;
                out.push_str(name);
                group_names.push(name.clone());
            }
            AuxColKind::Sum { src_col } => {
                let _ = write!(
                    out,
                    "SUM({}) AS {}",
                    base.schema.column(src_col).name,
                    col.name
                );
            }
            AuxColKind::Count => {
                let _ = write!(out, "COUNT(*) AS {}", col.name);
            }
        }
    }
    let _ = write!(out, "\nFROM {}", base.name);

    let mut where_parts: Vec<String> = def
        .local_conditions
        .iter()
        .map(|c| c.display(catalog))
        .collect();
    for target in &def.semijoins {
        let edge = plan.graph.children(table).find(|e| e.to == *target);
        let (Some(edge), Some(target_def)) = (edge, plan.aux_for(*target)) else {
            continue;
        };
        let target_base = catalog.def(*target).map_err(SqlError::from)?;
        let fk_name = &base.schema.column(edge.fk_col).name;
        let key_name = &target_base.schema.column(edge.key_col).name;
        where_parts.push(format!(
            "{fk_name} IN (SELECT {key_name} FROM {})",
            target_def.name
        ));
    }
    if !where_parts.is_empty() {
        let _ = write!(out, "\nWHERE {}", where_parts.join(" AND "));
    }
    if !def.is_degenerate_psj() && !group_names.is_empty() {
        let _ = write!(out, "\nGROUP BY {}", group_names.join(", "));
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::parse_view;
    use md_relation::{DataType, Schema};

    fn catalog() -> Catalog {
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
        cat.set_append_only(time).unwrap();
        cat.set_append_only(product).unwrap();
        cat
    }

    const PRODUCT_SALES: &str = "CREATE VIEW product_sales AS \
        SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount, \
               COUNT(DISTINCT brand) AS DifferentBrands \
        FROM sale, time, product \
        WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id \
        GROUP BY time.month";

    #[test]
    fn view_round_trips_through_sql() {
        let cat = catalog();
        let v1 = parse_view(PRODUCT_SALES, &cat, "q").unwrap();
        let sql = view_to_sql(&v1, &cat).unwrap();
        let v2 = parse_view(&sql, &cat, "q").unwrap();
        assert_eq!(v1, v2);
    }

    #[test]
    fn literals_read_back_as_the_same_value() {
        let doubles = [
            0.0,
            -0.0,
            1.0,
            0.1,
            -2.25,
            1e15,
            1e16,
            123456789012345680.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        let values = (doubles.into_iter().map(Value::Double)).chain([
            Value::Int(i64::MIN),
            Value::Int(-3),
            Value::Str("O'Brien".into()),
            Value::Str("''".into()),
            Value::Str("Café 🍰".into()),
            Value::Str(String::new()),
        ]);
        for v in values {
            let text = sql_literal(&v);
            let tokens = crate::token::tokenize(&text).unwrap();
            assert_eq!(tokens.len(), 1, "{text}");
            let back = match &tokens[0].kind {
                crate::token::TokenKind::Int(i) => Value::Int(*i),
                crate::token::TokenKind::Double(d) => Value::Double(*d),
                crate::token::TokenKind::Str(s) => Value::Str(s.clone()),
                other => panic!("{text} lexed as {other}"),
            };
            // `Value` compares doubles by total order: -0.0 is not 0.0.
            assert_eq!(back, v, "{text}");
        }
    }

    #[test]
    fn aux_sql_matches_paper_structure() {
        let cat = catalog();
        let v = parse_view(PRODUCT_SALES, &cat, "q").unwrap();
        let plan = md_core::derive(&v, &cat).unwrap();
        let sale = cat.table_id("sale").unwrap();
        let sql = aux_view_to_sql(&plan, sale, &cat).unwrap().unwrap();
        // The paper's saleDTL shape: semijoins + compression + group-by.
        assert!(sql.contains("CREATE VIEW saleDTL"));
        assert!(sql.contains("SUM(price)"));
        assert!(sql.contains("COUNT(*)"));
        assert!(sql.contains("timeid IN (SELECT id FROM timeDTL)"));
        assert!(sql.contains("productid IN (SELECT id FROM productDTL)"));
        assert!(sql.contains("GROUP BY timeid, productid"));
    }

    #[test]
    fn degenerate_aux_has_no_group_by() {
        let cat = catalog();
        let v = parse_view(PRODUCT_SALES, &cat, "q").unwrap();
        let plan = md_core::derive(&v, &cat).unwrap();
        let time = cat.table_id("time").unwrap();
        let sql = aux_view_to_sql(&plan, time, &cat).unwrap().unwrap();
        assert!(sql.contains("CREATE VIEW timeDTL"));
        assert!(sql.contains("time.year = 1997"));
        assert!(!sql.contains("GROUP BY"));
        assert!(!sql.contains("COUNT"));
    }

    #[test]
    fn omitted_aux_renders_none() {
        let mut cat = catalog();
        let sale = cat.table_id("sale").unwrap();
        cat.set_updatable_columns(sale, &[3]).unwrap();
        let v = parse_view(
            "CREATE VIEW by_keys AS \
             SELECT time.id AS tid, product.id AS pid, SUM(price) AS p, COUNT(*) AS n \
             FROM sale, time, product \
             WHERE sale.timeid = time.id AND sale.productid = product.id \
             GROUP BY time.id, product.id",
            &cat,
            "q",
        )
        .unwrap();
        let plan = md_core::derive(&v, &cat).unwrap();
        assert!(plan.root_omitted());
        assert!(aux_view_to_sql(&plan, sale, &cat).unwrap().is_none());
    }
}
