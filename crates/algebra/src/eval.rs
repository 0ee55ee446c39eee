//! Bag-semantics evaluation of GPSJ views over a database.
//!
//! This evaluator computes a view directly from the base tables. In the
//! paper's setting that is exactly what the warehouse *cannot* do in
//! production (the sources are unreachable) — here it serves two roles:
//!
//! 1. the **recomputation baseline** the paper compares against, and
//! 2. the **correctness oracle** for the incremental maintenance engine:
//!    after any update stream, the maintained summary must equal the view
//!    evaluated from scratch.
//!
//! The join strategy is a simple left-deep hash join over the view's key
//! join conditions, falling back to nested loops for condition-less table
//! pairs; conditions are applied as soon as all their tables are bound.

use std::collections::HashMap;

use md_relation::{Bag, Database, Row, TableId, Value};

use crate::agg::{Accumulator, SelectItem};
use crate::error::Result;
use crate::pred::{eval_all, ColRef, Condition, RowEnv};
use crate::view::GpsjView;

/// Evaluates `view` against `db`, producing the view contents as a bag
/// (generalized projection eliminates duplicates, so the result is in fact
/// a set keyed by the group-by attributes).
pub fn eval_view(view: &GpsjView, db: &Database) -> Result<Bag> {
    view.validate(db.catalog())?;
    let joined = join_tables(view, db)?;
    let mut out = Bag::new();
    for row in aggregate(view, db, &joined)? {
        if crate::having::having_passes(&view.having, &row)? {
            out.insert(row);
        }
    }
    Ok(out)
}

/// The join result: the locally-filtered rows per view table (owned —
/// `BaseTable::rows()` materializes from columnar storage) plus the joined
/// tuples as `(table position, row index)` pairs into `filtered`, each
/// tuple sorted by table position (= `view.tables` order).
struct Joined {
    filtered: Vec<Vec<Row>>,
    tuples: Vec<Vec<(u32, u32)>>,
}

impl Joined {
    fn row(&self, entry: (u32, u32)) -> &Row {
        &self.filtered[entry.0 as usize][entry.1 as usize]
    }
}

/// Computes `σ_S(R₁ ⋈ … ⋈ Rₙ)` as a vector of joined tuples.
fn join_tables(view: &GpsjView, db: &Database) -> Result<Joined> {
    // Local filtering per table.
    let mut filtered: Vec<Vec<Row>> = Vec::with_capacity(view.tables.len());
    for &t in &view.tables {
        let locals = view.local_conditions(t);
        let mut rows = Vec::new();
        for row in db.table(t).rows() {
            if eval_all(locals.iter().copied(), &RowEnv::single(t, &row))? {
                rows.push(row);
            }
        }
        filtered.push(rows);
    }

    // Non-local conditions, applied as tables become bound.
    let cross_conditions: Vec<&Condition> =
        view.conditions.iter().filter(|c| !c.is_local()).collect();
    let mut applied = vec![false; cross_conditions.len()];

    let mut bound: Vec<TableId> = vec![view.tables[0]];
    let mut tuples: Vec<Vec<(u32, u32)>> = (0..filtered[0].len())
        .map(|i| vec![(0u32, i as u32)])
        .collect();

    while bound.len() < view.tables.len() {
        // Prefer a table connected to the bound set by an equality.
        let next = view
            .tables
            .iter()
            .position(|t| {
                !bound.contains(t)
                    && cross_conditions
                        .iter()
                        .any(|c| connects(c, *t, &bound).is_some())
            })
            .or_else(|| view.tables.iter().position(|t| !bound.contains(t)))
            .expect("some table remains unbound");
        let next_id = view.tables[next];
        let next_rows = &filtered[next];

        // Pick the hash key: the first unapplied equality linking next to
        // the bound set.
        let hash_cond = cross_conditions
            .iter()
            .enumerate()
            .filter(|(i, _)| !applied[*i])
            .find_map(|(i, c)| Some((i, connects(c, next_id, &bound)?)));

        let mut new_tuples: Vec<Vec<(u32, u32)>> = Vec::new();
        match hash_cond {
            Some((ci, (next_col, bound_col))) => {
                // Build hash index over next_rows on next_col.
                let mut index: HashMap<&Value, Vec<u32>> = HashMap::new();
                for (ri, r) in next_rows.iter().enumerate() {
                    index
                        .entry(&r[next_col.column])
                        .or_default()
                        .push(ri as u32);
                }
                for tuple in &tuples {
                    let probe = tuple_value(view, &filtered, tuple, bound_col);
                    if let Some(matches) = index.get(probe) {
                        for &m in matches {
                            let mut t = tuple.clone();
                            t.push((next as u32, m));
                            new_tuples.push(t);
                        }
                    }
                }
                applied[ci] = true;
            }
            None => {
                // Cross product fallback (no condition connects — rare, and
                // only for degenerate views).
                for tuple in &tuples {
                    for ri in 0..next_rows.len() {
                        let mut t = tuple.clone();
                        t.push((next as u32, ri as u32));
                        new_tuples.push(t);
                    }
                }
            }
        }
        bound.push(next_id);

        // Apply every remaining condition that is now fully bound.
        for (i, cond) in cross_conditions.iter().enumerate() {
            if applied[i] {
                continue;
            }
            if cond.tables().iter().all(|t| bound.contains(t)) {
                new_tuples.retain(|tuple| {
                    let env = env_of(view, &filtered, tuple);
                    cond.eval(&env).unwrap_or(false)
                });
                applied[i] = true;
            }
        }
        tuples = new_tuples;
    }
    // Normalize every tuple to view-table order so downstream code can
    // index by table position directly.
    for t in &mut tuples {
        t.sort_by_key(|&(tp, _)| tp);
    }
    Ok(Joined { filtered, tuples })
}

/// When `cond` is an equality linking `candidate` to a bound table:
/// `(column on candidate, column on the bound side)`.
fn connects(cond: &Condition, candidate: TableId, bound: &[TableId]) -> Option<(ColRef, ColRef)> {
    let right = cond.right.as_col()?;
    if cond.op != crate::pred::CmpOp::Eq {
        None
    } else if cond.left.table == candidate && bound.contains(&right.table) {
        Some((cond.left, right))
    } else if right.table == candidate && bound.contains(&cond.left.table) {
        Some((right, cond.left))
    } else {
        None
    }
}

fn tuple_value<'a>(
    view: &GpsjView,
    filtered: &'a [Vec<Row>],
    tuple: &[(u32, u32)],
    col: ColRef,
) -> &'a Value {
    let pos = view
        .tables
        .iter()
        .position(|t| *t == col.table)
        .expect("column table must be in the view");
    let &(tp, ri) = tuple
        .iter()
        .find(|(tp, _)| *tp as usize == pos)
        .expect("column table must be bound");
    &filtered[tp as usize][ri as usize][col.column]
}

fn env_of<'a>(view: &GpsjView, filtered: &'a [Vec<Row>], tuple: &[(u32, u32)]) -> RowEnv<'a> {
    let mut env = RowEnv::new();
    for &(tp, ri) in tuple {
        env.bind(
            view.tables[tp as usize],
            &filtered[tp as usize][ri as usize],
        );
    }
    env
}

/// Groups joined tuples by the view's group-by attributes and evaluates its
/// aggregates, producing the output rows in select-list order, unfiltered
/// by `HAVING`.
fn aggregate(view: &GpsjView, db: &Database, joined: &Joined) -> Result<Vec<Row>> {
    let catalog = db.catalog();
    let group_cols = view.group_by_cols();
    let tuples = &joined.tuples;

    // Pre-resolve positions: for each table in view order, its index.
    // Tuples are normalized to that order, so `tuple[pos]` addresses the
    // table's row directly.
    let table_pos: HashMap<TableId, usize> = view
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, i))
        .collect();
    let value_of = |tuple: &[(u32, u32)], col: ColRef| -> Value {
        joined.row(tuple[table_pos[&col.table]])[col.column].clone()
    };

    // Accumulator prototypes per select item.
    let mut groups: HashMap<Row, Vec<Accumulator>> = HashMap::new();
    let make_accs = |/* fresh accumulator row */| -> Result<Vec<Accumulator>> {
        let mut accs = Vec::new();
        for item in &view.select {
            if let SelectItem::Agg { agg, .. } = item {
                let arg_type = match agg.arg {
                    None => None,
                    Some(c) => Some(catalog.def(c.table)?.schema.column(c.column).dtype),
                };
                accs.push(Accumulator::new(agg, arg_type)?);
            }
        }
        Ok(accs)
    };

    for tuple in tuples {
        let key: Row = group_cols.iter().map(|&c| value_of(tuple, c)).collect();
        let accs = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(make_accs()?),
        };
        let mut ai = 0;
        for item in &view.select {
            if let SelectItem::Agg { agg, .. } = item {
                let arg = agg.arg.map(|c| value_of(tuple, c));
                accs[ai].update(arg.as_ref())?;
                ai += 1;
            }
        }
    }

    // Assemble output rows in select order.
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut values = Vec::with_capacity(view.select.len());
        let mut gi = 0;
        let mut ai = 0;
        let mut complete = true;
        for item in &view.select {
            match item {
                SelectItem::GroupBy { .. } => {
                    values.push(key[gi].clone());
                    gi += 1;
                }
                SelectItem::Agg { .. } => {
                    match accs[ai].finish()? {
                        Some(v) => values.push(v),
                        None => {
                            complete = false;
                            break;
                        }
                    }
                    ai += 1;
                }
            }
        }
        if complete {
            out.push(Row::new(values));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, Aggregate};
    use crate::pred::CmpOp;
    use md_relation::{row, Catalog, DataType, Schema};

    /// Builds the paper's running example with a small concrete instance.
    fn setup() -> (Database, TableId, TableId, TableId) {
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
        let mut db = Database::new(cat);
        // Two months of 1997 plus one 1996 day that must be filtered out.
        db.insert(time, row![1, 1, 1997]).unwrap();
        db.insert(time, row![2, 2, 1997]).unwrap();
        db.insert(time, row![3, 1, 1996]).unwrap();
        db.insert(product, row![10, "acme"]).unwrap();
        db.insert(product, row![11, "zeta"]).unwrap();
        // month 1: two acme sales, one zeta sale; month 2: one zeta sale.
        db.insert(sale, row![100, 1, 10, 5.0]).unwrap();
        db.insert(sale, row![101, 1, 10, 7.0]).unwrap();
        db.insert(sale, row![102, 1, 11, 3.0]).unwrap();
        db.insert(sale, row![103, 2, 11, 2.0]).unwrap();
        // A 1996 sale that must not appear.
        db.insert(sale, row![104, 3, 10, 99.0]).unwrap();
        (db, time, product, sale)
    }

    fn product_sales(time: TableId, product: TableId, sale: TableId) -> GpsjView {
        GpsjView::new(
            "product_sales",
            vec![sale, time, product],
            vec![
                SelectItem::group_by(ColRef::new(time, 1), "month"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(sale, 3)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
                SelectItem::agg(
                    Aggregate::distinct_of(AggFunc::Count, ColRef::new(product, 1)),
                    "DifferentBrands",
                ),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        )
    }

    #[test]
    fn paper_running_example_evaluates() {
        let (db, time, product, sale) = setup();
        let v = product_sales(time, product, sale);
        let result = eval_view(&v, &db).unwrap();
        // month 1: total 15.0, count 3, brands {acme, zeta} = 2
        // month 2: total 2.0, count 1, brands {zeta} = 1
        assert_eq!(result.len(), 2);
        assert_eq!(result.count(&row![1, 15.0, 3, 2]), 1);
        assert_eq!(result.count(&row![2, 2.0, 1, 1]), 1);
    }

    #[test]
    fn selection_filters_before_join() {
        let (db, time, product, sale) = setup();
        let mut v = product_sales(time, product, sale);
        // Restrict to year 1996: only sale 104 qualifies.
        v.conditions[0] = Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1996i64);
        let result = eval_view(&v, &db).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.count(&row![1, 99.0, 1, 1]), 1);
    }

    #[test]
    fn empty_selection_yields_empty_view() {
        let (db, time, product, sale) = setup();
        let mut v = product_sales(time, product, sale);
        v.conditions[0] = Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 2099i64);
        let result = eval_view(&v, &db).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn global_aggregation_without_group_by() {
        let (db, time, product, sale) = setup();
        let v = GpsjView::new(
            "totals",
            vec![sale, time, product],
            vec![
                SelectItem::agg(Aggregate::count_star(), "n"),
                SelectItem::agg(Aggregate::of(AggFunc::Max, ColRef::new(sale, 3)), "maxp"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        );
        let result = eval_view(&v, &db).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.count(&row![5, 99.0]), 1);
    }

    #[test]
    fn single_table_group_by_without_aggregates() {
        let (db, _, product, _) = setup();
        // Pure duplicate-eliminating projection (degenerate GPSJ).
        let v = GpsjView::new(
            "brands",
            vec![product],
            vec![SelectItem::group_by(ColRef::new(product, 1), "brand")],
            vec![],
        );
        let result = eval_view(&v, &db).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.count(&row!["acme"]), 1);
        assert_eq!(result.count(&row!["zeta"]), 1);
    }

    #[test]
    fn min_and_avg_aggregation() {
        let (db, time, product, sale) = setup();
        let v = GpsjView::new(
            "per_product",
            vec![sale, product, time],
            vec![
                SelectItem::group_by(ColRef::new(product, 1), "brand"),
                SelectItem::agg(Aggregate::of(AggFunc::Min, ColRef::new(sale, 3)), "minp"),
                SelectItem::agg(Aggregate::of(AggFunc::Avg, ColRef::new(sale, 3)), "avgp"),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        );
        let result = eval_view(&v, &db).unwrap();
        assert_eq!(result.count(&row!["acme", 5.0, 6.0]), 1);
        assert_eq!(result.count(&row!["zeta", 2.0, 2.5]), 1);
    }

    #[test]
    fn join_on_flipped_condition_order() {
        let (db, time, product, sale) = setup();
        // time.id = sale.timeid (key side written first).
        let v = GpsjView::new(
            "flipped",
            vec![sale, time, product],
            vec![
                SelectItem::group_by(ColRef::new(time, 1), "month"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(time, 0), ColRef::new(sale, 1)),
                Condition::eq_cols(ColRef::new(product, 0), ColRef::new(sale, 2)),
            ],
        );
        let result = eval_view(&v, &db).unwrap();
        assert_eq!(result.count(&row![1, 3]), 1);
        assert_eq!(result.count(&row![2, 1]), 1);
    }
}
