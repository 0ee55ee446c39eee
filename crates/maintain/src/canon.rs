//! What identifies a derived plan and what identifies a store: the one
//! place that decides both.
//!
//! The sources cannot be re-read, so an engine image must restore only
//! under the plan it was derived for. Its header carries
//! [`plan_fingerprint`]: FNV-1a, 64 bit, over the plan's canonical bytes,
//! written through md-relation's [`Encoder`]. The bytes cover what fixes
//! the state an image holds — the view's tables and the catalog's column
//! types of each, its select items, conditions and `HAVING`; per auxiliary
//! view its table, column kinds, local conditions and semijoin tables, or
//! the table alone if it is omitted; and the change regime — and nothing
//! that does not: no view, alias, auxiliary view or column name. A literal
//! is written by `Encoder::put_value`, as the change log spells a value.
//! Both the encoding and the hash are written out here, so neither a
//! toolchain nor a renamed field moves a fingerprint, and a change to
//! either is a change of snapshot format.
//!
//! A store is held under a [`StoreKey`]: a typed value compared and hashed
//! by its derived `Eq` and `Hash`, whose local conditions and semijoins are
//! sorted by their derived `Ord`.

use md_algebra::{AggFunc, CmpOp, ColRef, Condition, Operand, SelectItem};
use md_core::{AuxColKind, AuxEntry, AuxViewDef, ChangeRegime, DerivedPlan};
use md_relation::{Catalog, DataType, Encoder, TableId};

use crate::error::Result;

/// The fingerprint of `plan` over `catalog`: FNV-1a of its canonical bytes.
pub(crate) fn plan_fingerprint(plan: &DerivedPlan, catalog: &Catalog) -> Result<u64> {
    let mut e = Encoder::new();
    let view = &plan.view;
    put_tables(&mut e, &view.tables);
    for &table in &view.tables {
        let columns = catalog.def(table)?.schema.columns();
        e.put_u32(columns.len() as u32);
        for column in columns {
            e.put_u8(match column.dtype {
                DataType::Int => 0,
                DataType::Double => 1,
                DataType::Str => 2,
                DataType::Bool => 3,
            });
        }
    }
    e.put_u32(view.select.len() as u32);
    for item in &view.select {
        match item {
            SelectItem::GroupBy { col, .. } => {
                e.put_u8(0);
                put_col(&mut e, *col);
            }
            SelectItem::Agg { agg, .. } => {
                e.put_u8(1);
                e.put_u8(match agg.func {
                    AggFunc::Count => 0,
                    AggFunc::Sum => 1,
                    AggFunc::Avg => 2,
                    AggFunc::Min => 3,
                    AggFunc::Max => 4,
                });
                match agg.arg {
                    None => e.put_u8(0),
                    Some(col) => {
                        e.put_u8(1);
                        put_col(&mut e, col);
                    }
                }
                e.put_u8(u8::from(agg.distinct));
            }
        }
    }
    put_conditions(&mut e, &view.conditions);
    e.put_u32(view.having.len() as u32);
    for having in &view.having {
        e.put_u32(having.item as u32);
        put_op(&mut e, having.op);
        e.put_value(&having.value);
    }
    e.put_u32(plan.aux.len() as u32);
    for entry in &plan.aux {
        match entry {
            AuxEntry::Materialized { def, .. } => {
                e.put_u8(0);
                e.put_u32(def.table.0 as u32);
                e.put_u32(def.columns.len() as u32);
                for column in &def.columns {
                    match column.kind {
                        AuxColKind::Group { src_col } => {
                            e.put_u8(0);
                            e.put_u32(src_col as u32);
                        }
                        AuxColKind::Sum { src_col } => {
                            e.put_u8(1);
                            e.put_u32(src_col as u32);
                        }
                        AuxColKind::Count => e.put_u8(2),
                    }
                }
                put_conditions(&mut e, &def.local_conditions);
                put_tables(&mut e, &def.semijoins);
            }
            AuxEntry::Omitted { table, .. } => {
                e.put_u8(1);
                e.put_u32(table.0 as u32);
            }
        }
    }
    e.put_u8(match plan.regime {
        ChangeRegime::General => 0,
        ChangeRegime::AppendOnly => 1,
    });
    Ok(fnv1a(&e.into_bytes()))
}

/// FNV-1a, 64 bit.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn put_tables(e: &mut Encoder, tables: &[TableId]) {
    e.put_u32(tables.len() as u32);
    for table in tables {
        e.put_u32(table.0 as u32);
    }
}

fn put_col(e: &mut Encoder, col: ColRef) {
    e.put_u32(col.table.0 as u32);
    e.put_u32(col.column as u32);
}

fn put_op(e: &mut Encoder, op: CmpOp) {
    e.put_u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn put_conditions(e: &mut Encoder, conditions: &[Condition]) {
    e.put_u32(conditions.len() as u32);
    for c in conditions {
        put_col(e, c.left);
        put_op(e, c.op);
        match &c.right {
            Operand::Col(col) => {
                e.put_u8(0);
                put_col(e, *col);
            }
            Operand::Lit(value) => {
                e.put_u8(1);
                e.put_value(value);
            }
        }
    }
}

/// The canonical definition a store is held under: everything that fixes
/// its contents — its retained columns and which rows it keeps — and
/// nothing that does not, such as the view's or a column's name, or
/// whether a summary reads it as its root or as a dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct StoreKey {
    kinds: Vec<AuxColKind>,
    rows: Rows,
}

impl StoreKey {
    /// The key of a store of `def` that keeps the rows `rows`.
    pub(crate) fn of(def: &AuxViewDef, rows: Rows) -> Self {
        let kinds = def.columns.iter().map(|c| c.kind.clone()).collect();
        StoreKey { kinds, rows }
    }

    /// Which rows the store keeps.
    pub(crate) fn rows(&self) -> &Rows {
        &self.rows
    }
}

/// Which rows of its table a store keeps: the table, the local conditions
/// and, per semijoin, the foreign-key column and the rows the target keeps.
/// A semijoin against the store tests a key value's membership, which this
/// alone decides.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Rows {
    table: TableId,
    locals: Vec<Condition>,
    semijoins: Vec<(usize, Rows)>,
}

impl Rows {
    /// The rows a store of `def` keeps, given the foreign-key column and
    /// the target's rows of each of its semijoins.
    pub(crate) fn of(def: &AuxViewDef, mut semijoins: Vec<(usize, Rows)>) -> Self {
        let mut locals = def.local_conditions.clone();
        locals.sort_unstable();
        semijoins.sort_unstable();
        Rows {
            table: def.table,
            locals,
            semijoins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{Aggregate, GpsjView};
    use md_core::derive;
    use md_relation::{Schema, Value};
    use md_workload::{retail_catalog, views, Contracts, RetailSchema};

    use crate::registry::StoreRegistry;

    /// The plans of the paper's running example under tight contracts.
    fn running_example(cat: &Catalog) -> [DerivedPlan; 4] {
        [
            views::product_sales(cat).unwrap(),
            views::product_sales_max(cat).unwrap(),
            views::store_revenue(cat).unwrap(),
            views::daily_product(cat).unwrap(),
        ]
        .map(|view| derive(&view, cat).unwrap())
    }

    /// `plan` with every name changed: the view's, each alias, each
    /// auxiliary view's and each of its columns'.
    fn renamed(mut plan: DerivedPlan) -> DerivedPlan {
        plan.view.name.push_str("_renamed");
        for item in &mut plan.view.select {
            match item {
                SelectItem::GroupBy { alias, .. } | SelectItem::Agg { alias, .. } => {
                    alias.push('2')
                }
            }
        }
        for entry in &mut plan.aux {
            if let AuxEntry::Materialized { def, .. } = entry {
                def.name.push_str("_x");
                for column in &mut def.columns {
                    column.name.push('_');
                }
            }
        }
        plan
    }

    /// Of the four, only `product_sales` carries a literal (`year = 1997`):
    /// its fingerprint alone moved when literals took the log's spelling.
    #[test]
    fn the_running_example_plans_have_the_pinned_fingerprints() {
        let (cat, _) = retail_catalog(Contracts::Tight);
        let found = running_example(&cat).map(|plan| plan_fingerprint(&plan, &cat).unwrap());
        assert_eq!(
            found,
            [
                0x2e92_1660_7cc7_5300,
                0xed1c_d94c_5e3a_c49f,
                0x7ef6_9e6a_ac3e_5a53,
                0x1f24_f5cf_a501_23a5,
            ],
            "product_sales, product_sales_max, store_revenue, daily_product"
        );
    }

    #[test]
    fn a_name_moves_no_fingerprint_and_a_literal_or_a_column_type_does() {
        let (cat, _) = retail_catalog(Contracts::Tight);
        let fingerprint = |plan: &DerivedPlan, cat: &Catalog| plan_fingerprint(plan, cat).unwrap();
        for plan in running_example(&cat) {
            let before = fingerprint(&plan, &cat);
            assert_eq!(fingerprint(&renamed(plan), &cat), before);
        }
        let [product_sales, ..] = running_example(&cat);
        let mut later = product_sales.view.clone();
        later.conditions[0].right = Operand::Lit(Value::Int(1998));
        let later = derive(&later, &cat).unwrap();
        assert_ne!(fingerprint(&later, &cat), fingerprint(&product_sales, &cat));

        // One table whose grouped column is declared another type: the
        // same plan, over a catalog that would hand its stores other values.
        let typed = |dtype| {
            let mut cat = Catalog::new();
            let columns = Schema::from_pairs(&[("id", DataType::Int), ("brand", dtype)]);
            let product = cat.add_table("product", columns, 0).unwrap();
            let brand = ColRef::new(product, 1);
            let items = vec![
                SelectItem::group_by(brand, "brand"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ];
            let view = GpsjView::new("brands", vec![product], items, vec![]);
            fingerprint(&derive(&view, &cat).unwrap(), &cat)
        };
        assert_ne!(typed(DataType::Str), typed(DataType::Int));
    }

    /// `product_sales` with a second local condition on `time`, the two in
    /// the order `year_first` says.
    fn product_sales_in_1997(cat: &Catalog, s: &RetailSchema, year_first: bool) -> DerivedPlan {
        let mut view = views::product_sales(cat).unwrap();
        let month = Condition::cmp_lit(ColRef::new(s.time, 2), CmpOp::Le, 12);
        if year_first {
            view.conditions.push(month);
        } else {
            view.conditions.insert(0, month);
        }
        derive(&view, cat).unwrap()
    }

    #[test]
    fn names_condition_order_and_roles_share_a_store() {
        let (cat, s) = retail_catalog(Contracts::Tight);
        let mut registry = StoreRegistry::new(&cat);
        let plan = product_sales_in_1997(&cat, &s, true);
        let other = renamed(product_sales_in_1997(&cat, &s, false));
        let locals = |plan: &DerivedPlan| plan.aux_for(s.time).unwrap().local_conditions.clone();
        assert_eq!(locals(&plan).len(), 2);
        assert_ne!(locals(&plan), locals(&other));
        let ids = registry.subscribe(&plan).unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(registry.subscribe(&other).unwrap(), ids);

        // `product` as the root of a view that keeps its keys and brands,
        // as product_sales keeps them for its dimension.
        let distinct_ids = Aggregate {
            func: AggFunc::Count,
            arg: Some(ColRef::new(s.product, 0)),
            distinct: true,
        };
        let root = GpsjView::new(
            "brands",
            vec![s.product],
            vec![
                SelectItem::group_by(ColRef::new(s.product, 1), "brand"),
                SelectItem::agg(distinct_ids, "products"),
            ],
            vec![],
        );
        let root = derive(&root, &cat).unwrap();
        let def = root.aux_for(s.product).unwrap();
        let dim = plan.aux_for(s.product).unwrap();
        assert_eq!(
            (&def.columns, &def.local_conditions, &def.semijoins),
            (&dim.columns, &dim.local_conditions, &dim.semijoins)
        );
        let root_ids = registry.subscribe(&root).unwrap();
        assert_eq!(root_ids.len(), 1);
        assert!(ids.contains(&root_ids[0]));
        assert_eq!(registry.subscribers(root_ids[0].1), 3);
    }
}
