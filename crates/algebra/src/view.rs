//! GPSJ view definitions.
//!
//! A GPSJ view (paper Section 2.1) is
//!
//! ```text
//! V = Π_A σ_S (R₁ ⋈_{C₁} R₂ ⋈_{C₂} … ⋈_{Cₙ₋₁} Rₙ)
//! ```
//!
//! where `Π_A` is a *generalized projection* (duplicate-eliminating
//! projection whose schema `A` mixes group-by attributes and aggregates),
//! `S` is a conjunction of selection conditions, and each `Cᵢ` is a key
//! join `Rᵢ.b = Rⱼ.a` with `a` the key of `Rⱼ`.

use std::collections::BTreeSet;

use md_relation::{Catalog, DataType, TableId, Value};

use crate::agg::{Aggregate, SelectItem};
use crate::error::{AlgebraError, DefectKind, Result, ViewDefect, ViewSite};
use crate::having::HavingCond;
use crate::pred::{ColRef, Condition, Operand};

/// A generalized project–select–join view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsjView {
    /// View name.
    pub name: String,
    /// The base tables referenced (`R` in the paper), without duplicates —
    /// the paper assumes no self-joins.
    pub tables: Vec<TableId>,
    /// The generalized projection schema `A`, in output order.
    pub select: Vec<SelectItem>,
    /// The conjunctive selection `S` (local conditions and join conditions
    /// together, as written in the `WHERE` clause).
    pub conditions: Vec<Condition>,
    /// Restrictions on groups (`HAVING`) — an output filter over the
    /// select list (paper Section 4 extension). Does not affect the
    /// auxiliary views: groups failing the clause are maintained
    /// internally and filtered at read time.
    pub having: Vec<HavingCond>,
}

impl GpsjView {
    /// Creates a view definition. Call [`GpsjView::validate`] before use.
    pub fn new(
        name: impl Into<String>,
        tables: Vec<TableId>,
        select: Vec<SelectItem>,
        conditions: Vec<Condition>,
    ) -> Self {
        GpsjView {
            name: name.into(),
            tables,
            select,
            conditions,
            having: Vec::new(),
        }
    }

    /// Adds `HAVING` conditions (builder style).
    pub fn with_having(mut self, having: Vec<HavingCond>) -> Self {
        self.having = having;
        self
    }

    /// Checks that the definition is a well-formed GPSJ view, in three
    /// stages; every defect of the first failing stage is reported
    /// ([`AlgebraError::InvalidView`]), each with its site in the view:
    ///
    /// 1. *shape* — at least one table, all distinct (no self-joins), at
    ///    least one select item, every reference bound and in range;
    /// 2. *select list and types* — unique aliases, aggregates pass
    ///    [`Aggregate::validate`], literals are finite, and both sides of
    ///    every comparison (`WHERE` or `HAVING`, column or literal) have
    ///    equal or both-numeric types;
    /// 3. *joins* — every condition between two tables is an equality on
    ///    a key ([`Condition::join_pair`]).
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        use DefectKind::*;
        let mut defects = Vec::new();

        if self.tables.is_empty() || self.select.is_empty() {
            return self.malformed("view has no tables or no select items".into());
        }
        for (i, t) in self.tables.iter().enumerate() {
            let name = &catalog.def(*t)?.name;
            if self.tables[..i].contains(t) {
                let message = format!("table '{name}' listed twice in FROM");
                defects.push(ViewDefect::new(DuplicateTable, ViewSite::Table(i), message));
            }
        }
        let select_cols = self.select.iter().filter_map(|item| match item {
            SelectItem::GroupBy { col, .. } => Some(*col),
            SelectItem::Agg { agg, .. } => agg.arg,
        });
        for col in select_cols.chain(self.conditions.iter().flat_map(Condition::columns)) {
            self.check_col(catalog, col)?;
        }
        if let Some(h) = self.having.iter().find(|h| h.item >= self.select.len()) {
            return self.malformed(format!("HAVING references select item {}", h.item));
        }
        self.invalid(std::mem::take(&mut defects))?;

        for (i, item) in self.select.iter().enumerate() {
            let site = ViewSite::Select(i);
            if self.select[..i].iter().any(|it| it.alias() == item.alias()) {
                let message = format!("duplicate output alias '{}'", item.alias());
                defects.push(ViewDefect::new(DuplicateAlias, site, message));
            }
            match item.as_agg().map_or(Ok(()), |agg| agg.validate(catalog)) {
                Err(e @ AlgebraError::BadAggregateArgument { .. }) => {
                    defects.push(ViewDefect::new(AggregateArgument, site, e.to_string()))
                }
                other => other?,
            }
        }
        // One typing rule for every comparison, against a column or a literal.
        let comparable = |a: DataType, b: DataType| a == b || (a.is_numeric() && b.is_numeric());
        let literal_defect = |left: &str, lt: DataType, v: &Value| {
            let rt = v.data_type();
            if matches!(v, Value::Double(d) if !d.is_finite()) {
                let message = format!("cannot compare {left} with a literal that is not finite");
                Some((NonFiniteLiteral, message))
            } else if !comparable(lt, rt) {
                let message = format!("cannot compare {left} ({lt}) with a {rt} literal");
                Some((ComparisonTypes, message))
            } else {
                None
            }
        };
        for (i, cond) in self.conditions.iter().enumerate() {
            let (left, lt) = (cond.left.display(catalog), col_type(catalog, cond.left)?);
            let found = match &cond.right {
                Operand::Lit(v) => literal_defect(&left, lt, v),
                Operand::Col(c) => {
                    let (right, rt) = (c.display(catalog), col_type(catalog, *c)?);
                    let message = format!("cannot compare {left} ({lt}) with {right} ({rt})");
                    (!comparable(lt, rt)).then_some((ComparisonTypes, message))
                }
            };
            let site = ViewSite::Condition(i);
            defects.extend(found.map(|(kind, message)| ViewDefect::new(kind, site, message)));
        }
        for (i, h) in self.having.iter().enumerate() {
            let left = format!("output '{}'", self.select[h.item].alias());
            let found = literal_defect(&left, self.item_type(catalog, h.item)?, &h.value);
            let site = ViewSite::Having(i);
            defects.extend(found.map(|(kind, message)| ViewDefect::new(kind, site, message)));
        }
        self.invalid(std::mem::take(&mut defects))?;

        for (i, cond) in self.conditions.iter().enumerate() {
            if cond.is_local() {
                continue;
            }
            match cond.join_pair(catalog) {
                Err(AlgebraError::InvalidView { defects: ds, .. }) => {
                    defects.extend((ds.into_iter()).map(|d| ViewDefect {
                        site: ViewSite::Condition(i),
                        ..d
                    }))
                }
                other => drop(other?),
            }
        }
        self.invalid(defects)
    }

    /// `Ok` for no defects, [`AlgebraError::InvalidView`] otherwise.
    fn invalid(&self, defects: Vec<ViewDefect>) -> Result<()> {
        if defects.is_empty() {
            return Ok(());
        }
        Err(AlgebraError::InvalidView {
            view: self.name.clone(),
            defects,
        })
    }

    fn malformed(&self, message: String) -> Result<()> {
        self.invalid(vec![ViewDefect::new(
            DefectKind::Malformed,
            ViewSite::View,
            message,
        )])
    }

    fn check_col(&self, catalog: &Catalog, col: ColRef) -> Result<()> {
        if !self.tables.contains(&col.table) {
            return Err(AlgebraError::UnknownViewTable {
                view: self.name.clone(),
                reference: col.display(catalog),
            });
        }
        let def = catalog.def(col.table)?;
        if col.column >= def.schema.arity() {
            let (column, table) = (col.column, &def.name);
            return self.malformed(format!(
                "column index {column} out of range for table '{table}'"
            ));
        }
        Ok(())
    }

    /// The type of output column `item`.
    fn item_type(&self, catalog: &Catalog, item: usize) -> Result<DataType> {
        match &self.select[item] {
            SelectItem::GroupBy { col, .. } => col_type(catalog, *col),
            SelectItem::Agg { agg, .. } => agg.result_type(catalog),
        }
    }

    /// The group-by attributes `GB(A)`, in select order.
    pub fn group_by_cols(&self) -> Vec<ColRef> {
        self.select
            .iter()
            .filter_map(SelectItem::as_group_by)
            .collect()
    }

    /// All aggregates, in select order.
    pub fn aggregates(&self) -> Vec<&Aggregate> {
        self.select.iter().filter_map(SelectItem::as_agg).collect()
    }

    /// The local conditions (single-table conjuncts) on `table`.
    pub fn local_conditions(&self, table: TableId) -> Vec<&Condition> {
        self.conditions
            .iter()
            .filter(|c| c.is_local() && c.left.table == table)
            .collect()
    }

    /// All join conditions, each oriented as `(foreign side, key side)`.
    pub fn join_conditions(&self, catalog: &Catalog) -> Result<Vec<(ColRef, ColRef)>> {
        self.conditions
            .iter()
            .filter(|c| !c.is_local())
            .map(|c| c.join_pair(catalog))
            .collect()
    }

    /// The attributes of `table` *preserved* in the view: appearing in the
    /// projection schema `A`, either as group-by attributes or inside
    /// aggregates (paper Section 2.1).
    pub fn preserved_columns(&self, table: TableId) -> BTreeSet<usize> {
        let mut cols = BTreeSet::new();
        for item in &self.select {
            match item {
                SelectItem::GroupBy { col, .. } if col.table == table => {
                    cols.insert(col.column);
                }
                SelectItem::Agg { agg, .. } => {
                    if let Some(col) = agg.arg {
                        if col.table == table {
                            cols.insert(col.column);
                        }
                    }
                }
                SelectItem::GroupBy { .. } => {}
            }
        }
        cols
    }

    /// The attributes of `table` appearing in group-by position.
    pub fn group_by_columns_of(&self, table: TableId) -> BTreeSet<usize> {
        self.group_by_cols()
            .into_iter()
            .filter(|c| c.table == table)
            .map(|c| c.column)
            .collect()
    }

    /// The attributes of `table` involved in any selection or join
    /// condition — the attribute set whose updatability makes updates
    /// *exposed* (paper Section 2.1).
    pub fn condition_columns(&self, table: TableId) -> BTreeSet<usize> {
        self.conditions
            .iter()
            .flat_map(|c| c.columns())
            .filter(|c| c.table == table)
            .map(|c| c.column)
            .collect()
    }

    /// The attributes of `table` used as the *foreign* side of a join
    /// condition.
    pub fn join_columns_of(&self, catalog: &Catalog, table: TableId) -> Result<BTreeSet<usize>> {
        let mut cols = BTreeSet::new();
        for (fk, key) in self.join_conditions(catalog)? {
            if fk.table == table {
                cols.insert(fk.column);
            }
            if key.table == table {
                cols.insert(key.column);
            }
        }
        Ok(cols)
    }
}

fn col_type(catalog: &Catalog, col: ColRef) -> Result<DataType> {
    Ok(catalog.def(col.table)?.schema.column(col.column).dtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::pred::CmpOp;
    use md_relation::{DataType, Schema as RSchema};

    /// The paper's running-example catalog (Section 1.1).
    pub(crate) fn star_catalog() -> (Catalog, TableId, TableId, TableId, TableId) {
        let mut cat = Catalog::new();
        let time = cat
            .add_table(
                "time",
                RSchema::from_pairs(&[
                    ("id", DataType::Int),
                    ("day", DataType::Int),
                    ("month", DataType::Int),
                    ("year", DataType::Int),
                ]),
                0,
            )
            .unwrap();
        let product = cat
            .add_table(
                "product",
                RSchema::from_pairs(&[
                    ("id", DataType::Int),
                    ("brand", DataType::Str),
                    ("category", DataType::Str),
                ]),
                0,
            )
            .unwrap();
        let store = cat
            .add_table(
                "store",
                RSchema::from_pairs(&[
                    ("id", DataType::Int),
                    ("city", DataType::Str),
                    ("country", DataType::Str),
                ]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                RSchema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("productid", DataType::Int),
                    ("storeid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, time).unwrap();
        cat.add_foreign_key(sale, 2, product).unwrap();
        cat.add_foreign_key(sale, 3, store).unwrap();
        (cat, time, product, store, sale)
    }

    /// The paper's `product_sales` view (Section 1.1).
    pub(crate) fn product_sales(
        cat: &Catalog,
        time: TableId,
        product: TableId,
        sale: TableId,
    ) -> GpsjView {
        let _ = cat;
        GpsjView::new(
            "product_sales",
            vec![sale, time, product],
            vec![
                SelectItem::group_by(ColRef::new(time, 2), "month"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(sale, 4)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
                SelectItem::agg(
                    Aggregate::distinct_of(AggFunc::Count, ColRef::new(product, 1)),
                    "DifferentBrands",
                ),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 3), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        )
    }

    #[test]
    fn product_sales_validates() {
        let (cat, time, product, _, sale) = star_catalog();
        let v = product_sales(&cat, time, product, sale);
        v.validate(&cat).unwrap();
    }

    #[test]
    fn self_join_rejected() {
        let (cat, time, _, _, _) = star_catalog();
        let v = GpsjView::new(
            "bad",
            vec![time, time],
            vec![SelectItem::group_by(ColRef::new(time, 1), "day")],
            vec![],
        );
        assert!(v.validate(&cat).is_err());
    }

    #[test]
    fn unbound_reference_rejected() {
        let (cat, time, product, _, _) = star_catalog();
        let v = GpsjView::new(
            "bad",
            vec![time],
            vec![SelectItem::group_by(ColRef::new(product, 1), "brand")],
            vec![],
        );
        assert!(matches!(
            v.validate(&cat),
            Err(AlgebraError::UnknownViewTable { .. })
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let (cat, time, _, _, _) = star_catalog();
        let v = GpsjView::new(
            "bad",
            vec![time],
            vec![
                SelectItem::group_by(ColRef::new(time, 1), "x"),
                SelectItem::group_by(ColRef::new(time, 2), "x"),
            ],
            vec![],
        );
        assert!(v.validate(&cat).is_err());
    }

    #[test]
    fn non_key_join_rejected() {
        let (cat, time, _, _, sale) = star_catalog();
        let v = GpsjView::new(
            "bad",
            vec![sale, time],
            vec![SelectItem::agg(Aggregate::count_star(), "n")],
            vec![Condition::eq_cols(
                ColRef::new(sale, 4),
                ColRef::new(time, 2),
            )],
        );
        assert!(v.validate(&cat).is_err());
    }

    /// The `(kind, site)` of every defect `validate` reports.
    fn defects_of(v: &GpsjView, cat: &Catalog) -> Vec<(DefectKind, ViewSite)> {
        match v.validate(cat) {
            Err(AlgebraError::InvalidView { defects, .. }) => {
                defects.iter().map(|d| (d.kind, d.site)).collect()
            }
            other => panic!("expected InvalidView, got {other:?}"),
        }
    }

    #[test]
    fn comparisons_are_type_checked_against_columns_and_literals() {
        let (cat, time, product, _, sale) = star_catalog();
        let mut v = product_sales(&cat, time, product, sale);
        // VARCHAR = INT across tables and within one; INT vs DOUBLE is fine.
        v.conditions.extend([
            Condition::eq_cols(ColRef::new(product, 1), ColRef::new(time, 0)),
            Condition::eq_cols(ColRef::new(product, 2), ColRef::new(product, 0)),
            Condition::eq_cols(ColRef::new(sale, 4), ColRef::new(sale, 3)),
            Condition::cmp_lit(ColRef::new(sale, 4), CmpOp::Lt, f64::INFINITY),
            Condition::cmp_lit(ColRef::new(time, 3), CmpOp::Eq, "1997"),
        ]);
        v.having = vec![
            HavingCond::new(0, CmpOp::Gt, 1.5),
            HavingCond::new(2, CmpOp::Gt, "many"),
            HavingCond::new(1, CmpOp::Lt, f64::NAN),
        ];
        assert_eq!(
            defects_of(&v, &cat),
            vec![
                (DefectKind::ComparisonTypes, ViewSite::Condition(3)),
                (DefectKind::ComparisonTypes, ViewSite::Condition(4)),
                (DefectKind::NonFiniteLiteral, ViewSite::Condition(6)),
                (DefectKind::ComparisonTypes, ViewSite::Condition(7)),
                (DefectKind::ComparisonTypes, ViewSite::Having(1)),
                (DefectKind::NonFiniteLiteral, ViewSite::Having(2)),
            ]
        );
        let e = v.validate(&cat).unwrap_err().to_string();
        assert_eq!(
            e,
            "invalid GPSJ view 'product_sales': \
             cannot compare product.brand (VARCHAR) with time.id (INT)"
        );
    }

    #[test]
    fn every_defect_of_the_first_failing_stage_is_reported() {
        let (cat, time, product, _, sale) = star_catalog();
        let mut v = product_sales(&cat, time, product, sale);
        v.select.push(SelectItem::agg(
            Aggregate::of(AggFunc::Sum, ColRef::new(product, 1)),
            "month",
        ));
        // Two joins that are not key joins wait for the select list.
        v.conditions.extend([
            Condition::eq_cols(ColRef::new(sale, 3), ColRef::new(time, 1)),
            Condition {
                left: ColRef::new(sale, 1),
                op: CmpOp::Lt,
                right: Operand::Col(ColRef::new(time, 0)),
            },
        ]);
        assert_eq!(
            defects_of(&v, &cat),
            vec![
                (DefectKind::DuplicateAlias, ViewSite::Select(4)),
                (DefectKind::AggregateArgument, ViewSite::Select(4)),
            ]
        );
        v.select.pop();
        assert_eq!(
            defects_of(&v, &cat),
            vec![
                (DefectKind::JoinNotOnKey, ViewSite::Condition(3)),
                (DefectKind::JoinNotEquality, ViewSite::Condition(4)),
            ]
        );
        // A self-join comes before either.
        v.tables.push(time);
        assert_eq!(
            defects_of(&v, &cat),
            vec![(DefectKind::DuplicateTable, ViewSite::Table(3))]
        );
    }

    #[test]
    fn group_by_and_aggregate_extraction() {
        let (cat, time, product, _, sale) = star_catalog();
        let v = product_sales(&cat, time, product, sale);
        assert_eq!(v.group_by_cols(), vec![ColRef::new(time, 2)]);
        assert_eq!(v.aggregates().len(), 3);
    }

    #[test]
    fn preserved_and_condition_columns() {
        let (cat, time, product, _, sale) = star_catalog();
        let v = product_sales(&cat, time, product, sale);
        // sale preserves only price (used in SUM).
        assert_eq!(v.preserved_columns(sale), BTreeSet::from([4]));
        // time preserves month.
        assert_eq!(v.preserved_columns(time), BTreeSet::from([2]));
        // product preserves brand.
        assert_eq!(v.preserved_columns(product), BTreeSet::from([1]));
        // time's condition columns: id (join) and year (local).
        assert_eq!(v.condition_columns(time), BTreeSet::from([0, 3]));
        // sale's condition columns: timeid, productid.
        assert_eq!(v.condition_columns(sale), BTreeSet::from([1, 2]));
        // join columns of sale: the two foreign keys.
        assert_eq!(
            v.join_columns_of(&cat, sale).unwrap(),
            BTreeSet::from([1, 2])
        );
    }

    #[test]
    fn local_conditions_filtered_by_table() {
        let (cat, time, product, _, sale) = star_catalog();
        let v = product_sales(&cat, time, product, sale);
        assert_eq!(v.local_conditions(time).len(), 1);
        assert_eq!(v.local_conditions(sale).len(), 0);
        assert_eq!(v.join_conditions(&cat).unwrap().len(), 2);
    }
}
