//! Scratch review test: run-batched vectorized apply vs row path when
//! occurrences of different aux-group runs interleave on one summary group.

use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
use md_core::derive;
use md_maintain::MaintenanceEngine;
use md_relation::{row, Catalog, Change, DataType, Database, Schema, TableId};

struct Star {
    cat: Catalog,
    db: Database,
    time: TableId,
    product: TableId,
    sale: TableId,
}

fn star() -> Star {
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
    let mut db = Database::new(cat.clone());
    db.insert(time, row![1, 1, 1997]).unwrap();
    db.insert(product, row![10, "acme"]).unwrap();
    db.insert(product, row![11, "zeta"]).unwrap();
    db.insert(sale, row![100, 1, 10, 15.0]).unwrap();
    Star {
        cat,
        db,
        time,
        product,
        sale,
    }
}

fn month_sales(s: &Star) -> GpsjView {
    GpsjView::new(
        "month_sales",
        vec![s.sale, s.time, s.product],
        vec![
            SelectItem::group_by(ColRef::new(s.time, 1), "month"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Sum, ColRef::new(s.sale, 3)),
                "TotalPrice",
            ),
            SelectItem::agg(Aggregate::count_star(), "TotalCount"),
        ],
        vec![
            Condition::cmp_lit(ColRef::new(s.time, 2), CmpOp::Eq, 1997i64),
            Condition::eq_cols(ColRef::new(s.sale, 1), ColRef::new(s.time, 0)),
            Condition::eq_cols(ColRef::new(s.sale, 2), ColRef::new(s.product, 0)),
        ],
    )
}

fn engine_for(s: &Star, view: &GpsjView, vectorized: bool) -> MaintenanceEngine {
    let plan = derive(view, &s.cat).unwrap();
    let mut engine = MaintenanceEngine::new(plan, &s.cat).unwrap();
    engine.set_vectorized(vectorized);
    engine.initial_load(&s.db).unwrap();
    engine
}

#[test]
fn interleaved_runs_on_shared_summary_group_match_row_path() {
    let mut s_vec = star();
    let mut s_row = star();
    let view = month_sales(&s_vec);
    let mut vectorized = engine_for(&s_vec, &view, true);
    let mut row_path = engine_for(&s_row, &view, false);

    // Batch order: +a(prod 10, 1e16), +b(prod 11, 1.0), -a(prod 10).
    // Runs group by (timeid, productid): run(1,10)=[+a,-a], run(1,11)=[+b].
    // Both runs fold into the same summary group (month 1).
    type Op = fn(&mut Database, TableId) -> Change;
    let batch: Vec<Op> = vec![
        |db, sale| db.insert(sale, row![800, 1, 10, 1e16]).unwrap(),
        |db, sale| db.insert(sale, row![801, 1, 11, 1.0]).unwrap(),
        |db, sale| db.delete(sale, &md_relation::Value::Int(800)).unwrap(),
    ];
    let vec_changes: Vec<Change> = batch
        .iter()
        .map(|op| op(&mut s_vec.db, s_vec.sale))
        .collect();
    let row_changes: Vec<Change> = batch
        .iter()
        .map(|op| op(&mut s_row.db, s_row.sale))
        .collect();
    vectorized.apply(s_vec.sale, &vec_changes).unwrap();
    row_path.apply(s_row.sale, &row_changes).unwrap();
    assert_eq!(
        vectorized.summary_bag().unwrap(),
        row_path.summary_bag().unwrap(),
        "summary diverged between vectorized and row paths"
    );
}
