//! End-to-end tests of the maintenance engine against the recomputation
//! oracle: after every change stream, the incrementally maintained
//! `{V} ∪ X` must equal a fresh evaluation from the base tables.

use md_algebra::{
    AggFunc, Aggregate, AlgebraError, CmpOp, ColRef, Condition, GpsjView, HavingCond, Operand,
    RowEnv, SelectItem, ViewSite,
};

use md_core::{derive, ChangeRegime};
mod common;

use common::Solo;
use md_maintain::{FaultPlan, MaintainError};
use md_obs::{Counter, Obs, ObsConfig};
use md_relation::{row, Catalog, Change, DataType, Database, Schema, TableId, Value};

/// The paper's running-example star schema with a small instance.
struct Star {
    cat: Catalog,
    db: Database,
    time: TableId,
    product: TableId,
    sale: TableId,
}

fn star(tight_contracts: bool) -> Star {
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
    if tight_contracts {
        cat.set_append_only(time).unwrap();
        cat.set_updatable_columns(product, &[1]).unwrap(); // brand only
        cat.set_updatable_columns(sale, &[3]).unwrap(); // price only
    }
    let mut db = Database::new(cat.clone());
    db.insert(time, row![1, 1, 1997]).unwrap();
    db.insert(time, row![2, 2, 1997]).unwrap();
    db.insert(time, row![3, 1, 1996]).unwrap();
    db.insert(product, row![10, "acme"]).unwrap();
    db.insert(product, row![11, "zeta"]).unwrap();
    for (id, t, p, price) in [
        (100, 1, 10, 5.0),
        (101, 1, 10, 7.0),
        (102, 1, 11, 3.0),
        (103, 2, 11, 2.0),
        (104, 3, 10, 99.0), // 1996 — filtered
    ] {
        db.insert(sale, row![id, t, p, price]).unwrap();
    }
    Star {
        cat,
        db,
        time,
        product,
        sale,
    }
}

fn product_sales(s: &Star) -> GpsjView {
    GpsjView::new(
        "product_sales",
        vec![s.sale, s.time, s.product],
        vec![
            SelectItem::group_by(ColRef::new(s.time, 1), "month"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Sum, ColRef::new(s.sale, 3)),
                "TotalPrice",
            ),
            SelectItem::agg(Aggregate::count_star(), "TotalCount"),
            SelectItem::agg(
                Aggregate::distinct_of(AggFunc::Count, ColRef::new(s.product, 1)),
                "DifferentBrands",
            ),
        ],
        vec![
            Condition::cmp_lit(ColRef::new(s.time, 2), CmpOp::Eq, 1997i64),
            Condition::eq_cols(ColRef::new(s.sale, 1), ColRef::new(s.time, 0)),
            Condition::eq_cols(ColRef::new(s.sale, 2), ColRef::new(s.product, 0)),
        ],
    )
}

/// `daily_product`'s shape: grouping by both dimension keys makes the
/// children k-annotated, so (under tight contracts) the fact auxiliary
/// view is eliminated.
fn by_keys(s: &Star) -> GpsjView {
    GpsjView::new(
        "by_keys",
        vec![s.sale, s.time, s.product],
        vec![
            SelectItem::group_by(ColRef::new(s.time, 0), "timeid"),
            SelectItem::group_by(ColRef::new(s.product, 0), "productid"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Sum, ColRef::new(s.sale, 3)),
                "TotalPrice",
            ),
            SelectItem::agg(Aggregate::count_star(), "TotalCount"),
        ],
        vec![
            Condition::eq_cols(ColRef::new(s.sale, 1), ColRef::new(s.time, 0)),
            Condition::eq_cols(ColRef::new(s.sale, 2), ColRef::new(s.product, 0)),
        ],
    )
}

/// [`by_keys`] plus a `MAX` over a product attribute — a dimension-sourced
/// non-CSMAS, recomputable from the group key.
fn by_keys_brandmax(s: &Star) -> GpsjView {
    GpsjView::new(
        "by_keys_brandmax",
        vec![s.sale, s.time, s.product],
        vec![
            SelectItem::group_by(ColRef::new(s.time, 0), "timeid"),
            SelectItem::group_by(ColRef::new(s.product, 0), "productid"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Max, ColRef::new(s.product, 1)),
                "Brand",
            ),
            SelectItem::agg(Aggregate::count_star(), "TotalCount"),
        ],
        vec![
            Condition::eq_cols(ColRef::new(s.sale, 1), ColRef::new(s.time, 0)),
            Condition::eq_cols(ColRef::new(s.sale, 2), ColRef::new(s.product, 0)),
        ],
    )
}

/// Builds an engine, loads it, and asserts initial consistency.
fn engine_for(s: &Star, view: &GpsjView) -> Solo {
    let plan = derive(view, &s.cat).unwrap();
    let mut solo = Solo::new(plan, &s.cat).unwrap();
    solo.initial_load(&s.db).unwrap();
    assert!(
        solo.engine.verify_against(&s.db).unwrap(),
        "initial load diverges"
    );
    assert!(solo.verify_aux_against(&s.db).unwrap());
    solo
}

/// Applies a database mutation and mirrors its change into the engine.
fn mirror(solo: &mut Solo, table: TableId, change: Change) {
    solo.apply(table, &[change]).unwrap();
}

#[test]
fn initial_load_matches_oracle() {
    let s = star(false);
    let view = product_sales(&s);
    let solo = engine_for(&s, &view);
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row![1, 15.0, 3, 2]), 1);
    assert_eq!(bag.count(&row![2, 2.0, 1, 1]), 1);
}

/// Why `Solo::new` refuses `forged`: a copy of `view` that `validate`
/// refuses, planted into `view`'s plan — the view, and each auxiliary
/// view's local conditions where `view` had them — as only a plan forged
/// past `validate` can carry it.
fn refusal_of(cat: &Catalog, view: &GpsjView, forged: GpsjView) -> MaintainError {
    assert!(derive(&forged, cat).is_err(), "{forged:?} is a valid view");
    let mut plan = derive(view, cat).unwrap();
    for entry in &mut plan.aux {
        if let md_core::AuxEntry::Materialized { def, .. } = entry {
            for cond in &mut def.local_conditions {
                let at = view.conditions.iter().position(|c| c == cond).unwrap();
                *cond = forged.conditions[at].clone();
            }
        }
    }
    plan.view = forged;
    match Solo::new(plan, cat) {
        Ok(_) => panic!("a forged plan was resolved"),
        Err(e) => e,
    }
}

/// `e` refuses view `view` for one defect at `site` whose message names
/// `what`.
fn assert_refused(e: &MaintainError, view: &str, site: ViewSite, what: &str) {
    match e {
        MaintainError::Algebra(AlgebraError::InvalidView {
            view: named,
            defects,
        }) => {
            assert_eq!(named, view, "{e}");
            assert_eq!(defects.len(), 1, "{e}");
            assert_eq!(defects[0].site, site, "{e}");
            assert!(defects[0].message.contains(what), "{e}");
        }
        other => panic!("expected a refusal of '{view}', got {other:?}"),
    }
}

#[test]
fn a_plan_that_does_not_compile_is_refused_at_resolve_time() {
    // Each comparison and each sum is compiled against the schema when a
    // plan is resolved: one no typed row can take — `validate` refuses it,
    // so only a forged plan carries it — refuses the plan there, naming
    // the view and the condition, before any store or summary is made.
    let s = star(false);
    let view = product_sales(&s);
    // `time.year = '1997'`: a dimension store's local condition.
    let mut forged = view.clone();
    forged.conditions[0] = Condition::cmp_lit(ColRef::new(s.time, 2), CmpOp::Eq, "1997");
    let e = refusal_of(&s.cat, &view, forged);
    assert_refused(
        &e,
        "product_sales",
        ViewSite::Condition(0),
        "time.year = '1997'",
    );
    assert!(e.to_string().contains("product_sales"), "{e}");

    // `COUNT(*) > 'many'` in `HAVING`.
    let counted = view
        .clone()
        .with_having(vec![HavingCond::new(2, CmpOp::Gt, 1i64)]);
    let forged = view
        .clone()
        .with_having(vec![HavingCond::new(2, CmpOp::Gt, "many")]);
    let e = refusal_of(&s.cat, &counted, forged);
    assert_refused(&e, "product_sales", ViewSite::Having(0), "TotalCount");

    // `SUM(product.brand)`, where `MAX(product.brand)` was derived.
    let view = by_keys_brandmax(&s);
    let mut forged = view.clone();
    let summed = Aggregate::of(AggFunc::Sum, ColRef::new(s.product, 1));
    forged.select[2] = SelectItem::agg(summed, "Brand");
    let e = refusal_of(&s.cat, &view, forged);
    assert_refused(
        &e,
        "by_keys_brandmax",
        ViewSite::Select(2),
        "SUM(product.brand)",
    );

    // `sale.channel = 5`: a root store's local condition, past a passing
    // conjunct.
    let t = tickets();
    let channel = ColRef::new(t.sale, 5);
    let locals = vec![
        Condition::cmp_lit(ColRef::new(t.sale, 2), CmpOp::Ge, 2i64),
        Condition::cmp_lit(channel, CmpOp::Eq, "5"),
    ];
    let view = tickets_view(&t, "incomparable", locals);
    let mut forged = view.clone();
    forged.conditions[2] = Condition::cmp_lit(channel, CmpOp::Eq, 5i64);
    let e = refusal_of(&t.cat, &view, forged);
    assert_refused(
        &e,
        "incomparable",
        ViewSite::Condition(2),
        "sale.channel = 5",
    );

    // `sale.price > 'cheap'` where no root store is kept: the summary
    // compiles its root's conditions itself.
    let s = star(true);
    let mut view = by_keys(&s);
    let price = ColRef::new(s.sale, 3);
    view.conditions
        .push(Condition::cmp_lit(price, CmpOp::Gt, 1.0));
    assert!(derive(&view, &s.cat).unwrap().root_omitted());
    let mut forged = view.clone();
    forged.conditions[2] = Condition::cmp_lit(price, CmpOp::Gt, "cheap");
    let e = refusal_of(&s.cat, &view, forged);
    assert_refused(
        &e,
        "by_keys",
        ViewSite::Condition(2),
        "sale.price > 'cheap'",
    );
}

#[test]
fn fact_inserts_existing_and_new_groups() {
    let mut s = star(false);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);

    // Existing group (month 1).
    let c = s.db.insert(s.sale, row![200, 1, 11, 10.0]).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());

    // New month needs a new time row first (dependency no-op for V)…
    let c = s.db.insert(s.time, row![4, 3, 1997]).unwrap();
    mirror(&mut solo, s.time, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    // …then a sale creating a brand-new group.
    let c = s.db.insert(s.sale, row![201, 4, 10, 1.5]).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.verify_aux_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![3, 1.5, 1, 1]),
        1
    );
}

#[test]
fn filtered_fact_rows_are_ignored() {
    let mut s = star(false);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    // A 1996 sale: joins a filtered time row, contributes nothing.
    let c = s.db.insert(s.sale, row![300, 3, 10, 50.0]).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.verify_aux_against(&s.db).unwrap());
}

#[test]
fn fact_deletes_shrink_and_remove_groups() {
    let mut s = star(false);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);

    // Deleting one of two month-1 acme sales shrinks the group; acme is
    // still counted once, so two brands remain …
    let c = s.db.delete(s.sale, &Value::Int(100)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![1, 10.0, 2, 2]),
        1
    );
    let c = s.db.insert(s.sale, row![100, 1, 10, 5.0]).unwrap();
    mirror(&mut solo, s.sale, c);

    // … deleting the last zeta sale of the month drops the brand.
    let c = s.db.delete(s.sale, &Value::Int(102)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![1, 12.0, 2, 1]),
        1
    );

    // Deleting the only month-2 sale removes the group entirely.
    let c = s.db.delete(s.sale, &Value::Int(103)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(solo.engine.summary().len(), 1);

    // The answers came from the group's value counts, not a rescan of X.
    assert_eq!(solo.engine.stats().groups_recomputed, 0);
    assert!(solo.audit().is_clean());
}

#[test]
fn fact_updates_move_between_groups() {
    let mut s = star(false);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    // Move sale 101 from month 1 to month 2 (timeid is exposed under the
    // default contract; the source emits an update, the engine splits it).
    let c =
        s.db.update(s.sale, &Value::Int(101), row![101, 2, 10, 7.0])
            .unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.verify_aux_against(&s.db).unwrap());
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row![1, 8.0, 2, 2]), 1);
    assert_eq!(bag.count(&row![2, 9.0, 2, 2]), 1);
}

#[test]
fn dimension_inserts_on_dependency_edges_are_noops() {
    let mut s = star(true); // tight contracts: both edges are dependencies
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    let before = solo.engine.summary_bag().unwrap();

    let c = s.db.insert(s.product, row![12, "nova"]).unwrap();
    mirror(&mut solo, s.product, c);
    let c = s.db.insert(s.time, row![5, 4, 1997]).unwrap();
    mirror(&mut solo, s.time, c);

    assert_eq!(solo.engine.stats().dim_noop_changes, 2);
    assert_eq!(solo.engine.stats().summary_rebuilds, 0);
    assert_eq!(solo.engine.summary_bag().unwrap(), before);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.verify_aux_against(&s.db).unwrap());
}

#[test]
fn dimension_update_changing_preserved_attr_repairs_summary() {
    let mut s = star(true);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    // Rebranding zeta → acme merges the distinct-brand sets. brand feeds
    // the DISTINCT aggregate: product 11's two root auxiliary tuples move
    // their contribution (same month, new brand) from one value count to
    // another — no rebuild, no rescan, however small the store.
    let c =
        s.db.update(s.product, &Value::Int(11), row![11, "acme"])
            .unwrap();
    mirror(&mut solo, s.product, c);
    let stats = solo.engine.stats();
    assert_eq!(stats.dim_targeted_updates, 1);
    assert_eq!(stats.summary_rebuilds, 0);
    assert_eq!(stats.groups_recomputed, 0);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    // Both months product 11 sold in now count one brand.
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row![1, 15.0, 3, 1]), 1);
    assert_eq!(bag.count(&row![2, 2.0, 1, 1]), 1);
    assert!(solo.audit().is_clean());
}

#[test]
fn exposed_dimension_update_filters_rows_in_and_out() {
    let mut s = star(false); // default contracts: year is exposed on time
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    // Move time row 3 from 1996 into 1997: sale 104 (99.0) enters the view.
    let c =
        s.db.update(s.time, &Value::Int(3), row![3, 1, 1997])
            .unwrap();
    mirror(&mut solo, s.time, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row![1, 114.0, 4, 2]), 1);

    // And back out again.
    let c =
        s.db.update(s.time, &Value::Int(3), row![3, 1, 1995])
            .unwrap();
    mirror(&mut solo, s.time, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![1, 15.0, 3, 2]),
        1
    );
}

#[test]
fn product_sales_max_extremum_deletion_recomputes_from_aux() {
    // Paper Section 3.2's product_sales_max, single-table view. ("From
    // aux": the value counts that answer are a projection of the auxiliary
    // view; the feed reads them, never the view itself.)
    let mut s = star(false);
    let view = GpsjView::new(
        "product_sales_max",
        vec![s.sale],
        vec![
            SelectItem::group_by(ColRef::new(s.sale, 2), "productid"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Max, ColRef::new(s.sale, 3)),
                "MaxPrice",
            ),
            SelectItem::agg(
                Aggregate::of(AggFunc::Sum, ColRef::new(s.sale, 3)),
                "TotalPrice",
            ),
            SelectItem::agg(Aggregate::count_star(), "TotalCount"),
        ],
        vec![],
    );
    let mut solo = engine_for(&s, &view);
    // Product 10's sales: 5.0, 7.0, 99.0 → max 99.0.
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![10, 99.0, 111.0, 3]),
        1
    );
    // Delete the extremum: MAX must fall back to 7.0 — the next value the
    // group counts, not a read of the sources.
    let c = s.db.delete(s.sale, &Value::Int(104)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![10, 7.0, 12.0, 2]),
        1
    );

    // A second sale at the maximum, then one of the two deleted: MAX must
    // not move.
    let c = s.db.insert(s.sale, row![105, 2, 10, 7.0]).unwrap();
    mirror(&mut solo, s.sale, c);
    let c = s.db.delete(s.sale, &Value::Int(101)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![10, 7.0, 12.0, 2]),
        1
    );

    // Deleting a non-extremum leaves it alone too.
    let c = s.db.delete(s.sale, &Value::Int(100)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![10, 7.0, 7.0, 1]),
        1
    );
    assert_eq!(solo.engine.stats().groups_recomputed, 0);
    assert!(solo.audit().is_clean());
}

#[test]
fn min_aggregate_maintenance() {
    let mut s = star(false);
    let view = GpsjView::new(
        "min_price",
        vec![s.sale],
        vec![
            SelectItem::group_by(ColRef::new(s.sale, 2), "productid"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Min, ColRef::new(s.sale, 3)),
                "MinPrice",
            ),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        vec![],
    );
    let mut solo = engine_for(&s, &view);
    // Insert a new minimum …
    let c = s.db.insert(s.sale, row![400, 1, 10, 0.5]).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine.summary_bag().unwrap().count(&row![10, 0.5, 4]),
        1
    );
    // … and delete it again: the old minimum is back.
    let c = s.db.delete(s.sale, &Value::Int(400)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert_eq!(
        solo.engine.summary_bag().unwrap().count(&row![10, 5.0, 3]),
        1
    );
    assert_eq!(solo.engine.stats().groups_recomputed, 0);
}

#[test]
fn root_omitted_plan_maintains_from_deltas() {
    let mut s = star(true);
    let view = by_keys(&s);
    let plan = derive(&view, &s.cat).unwrap();
    assert!(
        plan.root_omitted(),
        "expected the fact table to be eliminated"
    );
    let mut solo = Solo::new(plan, &s.cat).unwrap();
    solo.initial_load(&s.db).unwrap();
    assert!(solo.engine.verify_against(&s.db).unwrap());

    // Inserts and deletes maintain V with no root auxiliary view at all.
    let c = s.db.insert(s.sale, row![500, 2, 10, 4.0]).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    let c = s.db.delete(s.sale, &Value::Int(101)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    let c = s.db.delete(s.sale, &Value::Int(103)).unwrap();
    mirror(&mut solo, s.sale, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());

    // Storage: only the two (tiny) dimension auxiliary views exist.
    let names: Vec<String> = solo
        .engine
        .storage_report(&solo.stores)
        .into_iter()
        .map(|l| l.name)
        .collect();
    assert!(names.contains(&"timeDTL".to_owned()));
    assert!(names.contains(&"productDTL".to_owned()));
    assert!(!names.iter().any(|n| n == "saleDTL"));
    // A view of CSMAS aggregates keeps no value counts.
    assert!(!names.iter().any(|n| n == "value counts"));
}

#[test]
fn root_omitted_dim_update_remaps_groups() {
    let mut s = star(true);
    let view = by_keys_brandmax(&s);
    let plan = derive(&view, &s.cat).unwrap();
    assert!(plan.root_omitted());
    let mut solo = Solo::new(plan, &s.cat).unwrap();
    solo.initial_load(&s.db).unwrap();
    assert!(solo.engine.verify_against(&s.db).unwrap());

    // Renaming the brand (non-exposed update under the tight contract)
    // must flow into the MAX(product.brand) outputs.
    let c =
        s.db.update(s.product, &Value::Int(10), row![10, "acme-2"])
            .unwrap();
    mirror(&mut solo, s.product, c);
    assert!(solo.engine.verify_against(&s.db).unwrap());
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row![1, 10, "acme-2", 2]), 1);
}

#[test]
fn mixed_change_stream_stays_consistent() {
    let mut s = star(false);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    // A scripted mixed stream touching every path; each step mutates the
    // sources and immediately mirrors the change into the engine.
    type Step = Box<dyn Fn(&mut Database) -> (TableId, Change)>;
    let sale = s.sale;
    let product = s.product;
    let time = s.time;
    let steps: Vec<Step> = vec![
        Box::new(move |db| (sale, db.insert(sale, row![600, 2, 10, 8.0]).unwrap())),
        Box::new(move |db| (product, db.insert(product, row![12, "kilo"]).unwrap())),
        Box::new(move |db| (sale, db.insert(sale, row![601, 2, 12, 1.0]).unwrap())),
        Box::new(move |db| {
            (
                sale,
                db.update(sale, &Value::Int(600), row![600, 2, 10, 9.5])
                    .unwrap(),
            )
        }),
        Box::new(move |db| (sale, db.delete(sale, &Value::Int(102)).unwrap())),
        Box::new(move |db| {
            (
                product,
                db.update(product, &Value::Int(12), row![12, "kilo-x"])
                    .unwrap(),
            )
        }),
        Box::new(move |db| (sale, db.delete(sale, &Value::Int(601)).unwrap())),
        Box::new(move |db| (time, db.insert(time, row![6, 6, 1997]).unwrap())),
        Box::new(move |db| (sale, db.insert(sale, row![602, 6, 11, 2.5]).unwrap())),
    ];
    for (i, step) in steps.into_iter().enumerate() {
        let (table, change) = step(&mut s.db);
        solo.apply(table, &[change]).unwrap();
        if !solo.engine.verify_against(&s.db).unwrap() {
            let bag = solo.engine.summary_bag().unwrap();
            let oracle = md_maintain::recompute_from_sources(&view, &s.db).unwrap();
            panic!("diverged at step {i}:\nmaintained={bag}\noracle={oracle}");
        }
    }
    assert!(solo.verify_aux_against(&s.db).unwrap());
    let stats = solo.engine.stats();
    assert!(stats.rows_processed >= 9);
}

#[test]
fn storage_report_shows_compression() {
    let mut s = star(true);
    // Many duplicate (timeid, productid) sales.
    for i in 0..50 {
        s.db.insert(s.sale, row![1000 + i, 1, 10, 1.0]).unwrap();
    }
    let view = product_sales(&s);
    let solo = engine_for(&s, &view);
    let report = solo.engine.storage_report(&solo.stores);
    let sale_line = report.iter().find(|l| l.name == "saleDTL").unwrap();
    // 54 qualifying transactions collapse into 3 groups:
    // (1,10), (1,11), (2,11).
    assert_eq!(sale_line.rows, 3);
    // COUNT(DISTINCT brand) counts (month 1: acme, zeta), (month 2: zeta)
    // as (month, brand, count) tuples — reported, but derived from `X`,
    // not detail data of its own.
    let counts = report.iter().find(|l| l.name == "value counts").unwrap();
    assert_eq!((counts.rows, counts.paper_bytes), (3, 3 * 3 * 4));
}

#[test]
fn targeted_dim_update_shifts_csmas_sums() {
    // A dimension measure (product weight) feeding SUM/AVG: updating it
    // must take the targeted path (no non-CSMAS recompute involved) and
    // shift exactly the affected groups.
    let mut cat = Catalog::new();
    let product = cat
        .add_table(
            "product",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("category", DataType::Str),
                ("weight", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    let sale = cat
        .add_table(
            "sale",
            Schema::from_pairs(&[("id", DataType::Int), ("productid", DataType::Int)]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(sale, 1, product).unwrap();
    cat.set_updatable_columns(product, &[2]).unwrap();
    cat.set_updatable_columns(sale, &[]).unwrap();
    let mut db = Database::new(cat.clone());
    db.insert(product, row![1, "food", 2.0]).unwrap();
    db.insert(product, row![2, "food", 4.0]).unwrap();
    db.insert(product, row![3, "tools", 8.0]).unwrap();
    for (id, p) in [(10, 1), (11, 1), (12, 2), (13, 3)] {
        db.insert(sale, row![id, p]).unwrap();
    }
    let view = GpsjView::new(
        "shipped",
        vec![sale, product],
        vec![
            SelectItem::group_by(ColRef::new(product, 1), "category"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(product, 2)), "w"),
            SelectItem::agg(Aggregate::of(AggFunc::Avg, ColRef::new(product, 2)), "aw"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        vec![Condition::eq_cols(
            ColRef::new(sale, 1),
            ColRef::new(product, 0),
        )],
    );
    let plan = md_core::derive(&view, &cat).unwrap();
    let mut solo = Solo::new(plan, &cat).unwrap();
    solo.initial_load(&db).unwrap();
    // food: weights 2,2,4 → sum 8; tools: 8.
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row!["food", 8.0, 8.0 / 3.0, 3]),
        1
    );

    // Double product 1's weight: two food sales shift by +2 each.
    let c = db
        .update(product, &Value::Int(1), row![1, "food", 4.0])
        .unwrap();
    solo.apply(product, &[c]).unwrap();
    assert!(solo.engine.verify_against(&db).unwrap());
    let stats = solo.engine.stats();
    assert_eq!(stats.dim_targeted_updates, 1);
    assert_eq!(stats.summary_rebuilds, 0);
    assert_eq!(stats.groups_recomputed, 0);
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row!["food", 12.0, 4.0, 3]),
        1
    );
}

#[test]
fn avg_survives_mixed_deletes_and_inserts() {
    let mut s = star(false);
    let view = GpsjView::new(
        "avg_price",
        vec![s.sale],
        vec![
            SelectItem::group_by(ColRef::new(s.sale, 2), "productid"),
            SelectItem::agg(Aggregate::of(AggFunc::Avg, ColRef::new(s.sale, 3)), "avgp"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        vec![],
    );
    let mut solo = engine_for(&s, &view);
    let script: Vec<Change> = vec![
        s.db.insert(s.sale, row![700, 1, 10, 4.0]).unwrap(),
        s.db.delete(s.sale, &Value::Int(100)).unwrap(),
        s.db.insert(s.sale, row![701, 2, 11, 6.5]).unwrap(),
        s.db.update(s.sale, &Value::Int(101), row![101, 1, 10, 1.25])
            .unwrap(),
        s.db.delete(s.sale, &Value::Int(102)).unwrap(),
    ];
    // (The script already mutated the sources; apply it as one batch.)
    solo.apply(s.sale, &script).unwrap();
    assert!(solo.engine.verify_against(&s.db).unwrap());
    // AVG never needs recomputation: it is a CSMAS via {SUM, COUNT}.
    assert_eq!(solo.engine.stats().groups_recomputed, 0);
}

#[test]
fn fact_update_crossing_a_local_condition() {
    // A fact-side local condition: updates moving rows across it must
    // enter/leave both X and V correctly (the update splits into
    // delete+insert and each side is filtered independently).
    let mut s = star(false);
    let view = GpsjView::new(
        "big_tickets",
        vec![s.sale],
        vec![
            SelectItem::group_by(ColRef::new(s.sale, 2), "productid"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(s.sale, 3)), "total"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        vec![Condition::cmp_lit(
            ColRef::new(s.sale, 3),
            CmpOp::Ge,
            5.0f64,
        )],
    );
    let mut solo = engine_for(&s, &view);
    // 102 has price 3.0 (outside); raise it inside, then back out.
    let c =
        s.db.update(s.sale, &Value::Int(102), row![102, 1, 11, 50.0])
            .unwrap();
    solo.apply(s.sale, &[c]).unwrap();
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.verify_aux_against(&s.db).unwrap());
    let c =
        s.db.update(s.sale, &Value::Int(102), row![102, 1, 11, 0.5])
            .unwrap();
    solo.apply(s.sale, &[c]).unwrap();
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.verify_aux_against(&s.db).unwrap());
}

/// One source mutation of a scripted batch.
type Op = Box<dyn Fn(&mut Database) -> Change>;

fn ins(table: TableId, row: md_relation::Row) -> Op {
    Box::new(move |db| db.insert(table, row.clone()).unwrap())
}

fn del(table: TableId, key: i64) -> Op {
    Box::new(move |db| db.delete(table, &Value::Int(key)).unwrap())
}

fn upd(table: TableId, key: i64, row: md_relation::Row) -> Op {
    Box::new(move |db| db.update(table, &Value::Int(key), row.clone()).unwrap())
}

/// Feeds every batch (a list of per-table groups) to one engine as one
/// transaction and to another one change at a time. After each batch
/// both must equal a recompute from the sources — summary and auxiliary
/// views — pass the source-free audit (value counts, fk index), and hold
/// the same stores.
fn assert_batches_equal_singles(
    view: &GpsjView,
    mut db: Database,
    batches: Vec<Vec<(TableId, Vec<Op>)>>,
) {
    let cat = db.catalog().clone();
    let load = |db: &Database| {
        let mut solo = Solo::new(derive(view, &cat).unwrap(), &cat).unwrap();
        solo.initial_load(db).unwrap();
        solo
    };
    let (mut batched, mut singles) = (load(&db), load(&db));
    for (bi, batch) in batches.iter().enumerate() {
        let ctx = format!("{} after batch {bi}", view.name);
        let groups: Vec<(TableId, Vec<Change>)> = batch
            .iter()
            .map(|(table, ops)| (*table, ops.iter().map(|op| op(&mut db)).collect()))
            .collect();
        let refs: Vec<(TableId, &[Change])> =
            groups.iter().map(|(t, c)| (*t, c.as_slice())).collect();
        batched.prepare(&refs).unwrap().commit(&[]);
        for (table, changes) in &groups {
            for change in changes {
                singles.apply(*table, std::slice::from_ref(change)).unwrap();
            }
        }
        for solo in [&batched, &singles] {
            assert!(solo.engine.verify_against(&db).unwrap(), "{ctx}");
            assert!(solo.verify_aux_against(&db).unwrap(), "{ctx}");
            let audit = solo.audit();
            assert!(audit.is_clean(), "{ctx}: {:?}", audit.findings);
        }
        assert_eq!(
            batched.engine.summary_bag().unwrap(),
            singles.engine.summary_bag().unwrap(),
            "{ctx}"
        );
        for (b, o) in batched.aux_stores().zip(singles.aux_stores()) {
            assert_eq!(b.materialized_rows(), o.materialized_rows(), "{ctx}");
        }
        // Every counter is counted per change.
        let counts = |e: &Solo| {
            let s = e.engine.stats();
            (
                s.rows_processed,
                s.summary_rebuilds,
                s.dim_noop_changes,
                s.dim_targeted_updates,
            )
        };
        assert_eq!(counts(&batched), counts(&singles), "{ctx}");
        assert_eq!(batched.engine.stats().summary_rebuilds, 0, "{ctx}");
    }
}

/// A fact table with a column for every operand shape a local condition
/// can take — `Int`, `Str`, and two `Double`s to hold against each other
/// — seeded with the doubles conditions are most likely to get wrong.
struct Tickets {
    cat: Catalog,
    db: Database,
    product: TableId,
    sale: TableId,
}

fn tickets() -> Tickets {
    let mut cat = Catalog::new();
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
                ("productid", DataType::Int),
                ("qty", DataType::Int),
                ("price", DataType::Double),
                ("list", DataType::Double),
                ("channel", DataType::Str),
            ]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(sale, 1, product).unwrap();
    let mut db = Database::new(cat.clone());
    db.insert(product, row![10, "acme"]).unwrap();
    db.insert(product, row![11, "zeta"]).unwrap();
    for r in [
        row![1, 10, 1, 5.0, 5.0, "web"],
        row![2, 10, 3, 12.5, 10.0, "shop"],
        row![3, 11, 2, -0.0, 1.0, "web"],
        row![4, 11, 4, 0.0, 0.0, ""],
        row![5, 10, 2, f64::NAN, 9.0, "shop"],
        row![6, 11, 1, 7.5, f64::NAN, "web"],
    ] {
        db.insert(sale, r).unwrap();
    }
    Tickets {
        cat,
        db,
        product,
        sale,
    }
}

/// Units and tickets per brand, over the sales that pass `locals`.
fn tickets_view(t: &Tickets, name: &str, locals: Vec<Condition>) -> GpsjView {
    let mut conditions = vec![Condition::eq_cols(
        ColRef::new(t.sale, 1),
        ColRef::new(t.product, 0),
    )];
    conditions.extend(locals);
    GpsjView::new(
        name,
        vec![t.sale, t.product],
        vec![
            SelectItem::group_by(ColRef::new(t.product, 1), "brand"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(t.sale, 2)), "units"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        conditions,
    )
}

/// `sale.<left> op sale.<right>`: a local condition between two columns.
fn sale_cols(t: &Tickets, left: usize, op: CmpOp, right: usize) -> Condition {
    Condition {
        left: ColRef::new(t.sale, left),
        op,
        right: Operand::Col(ColRef::new(t.sale, right)),
    }
}

/// Root-local conditions of every operand shape, by name.
fn ticket_conditions(t: &Tickets) -> Vec<(&'static str, Vec<Condition>)> {
    let (qty, price, list, channel) = (
        ColRef::new(t.sale, 2),
        ColRef::new(t.sale, 3),
        ColRef::new(t.sale, 4),
        ColRef::new(t.sale, 5),
    );
    fn lit(col: ColRef, op: CmpOp, value: impl Into<Value>) -> Condition {
        Condition::cmp_lit(col, op, value)
    }
    vec![
        ("int_vs_int", vec![lit(qty, CmpOp::Ge, 2i64)]),
        ("int_vs_double", vec![lit(qty, CmpOp::Lt, 2.5f64)]),
        // A NaN price orders after every number; -0.0 before +0.0. (A NaN
        // *literal* is no definition: SQL cannot write one, `validate`
        // refuses it.)
        ("double_above_zero", vec![lit(price, CmpOp::Gt, 0.0f64)]),
        ("double_is_zero", vec![lit(price, CmpOp::Eq, 0.0f64)]),
        ("double_vs_int", vec![lit(price, CmpOp::Ge, 5i64)]),
        ("str_is", vec![lit(channel, CmpOp::Eq, "web")]),
        (
            "str_between",
            vec![lit(channel, CmpOp::Gt, ""), lit(channel, CmpOp::Ne, "shop")],
        ),
        ("double_vs_column", vec![sale_cols(t, 3, CmpOp::Le, 4)]),
        ("int_vs_double_column", vec![sale_cols(t, 2, CmpOp::Lt, 3)]),
        (
            "conjunction",
            vec![
                lit(qty, CmpOp::Ge, 2i64),
                lit(channel, CmpOp::Ne, "web"),
                Condition {
                    left: list,
                    op: CmpOp::Ge,
                    right: Operand::Col(price),
                },
            ],
        ),
    ]
}

#[test]
fn root_local_conditions_of_every_operand_shape() {
    // Inserts, updates that carry a row across each condition in both
    // directions (the two halves of an update are filtered on their own)
    // and deletes of rows inside and outside the view.
    let t = tickets();
    let s = t.sale;
    let batches = || {
        vec![
            vec![(
                s,
                vec![
                    ins(s, row![7, 10, 5, f64::NAN, f64::NAN, "web"]),
                    ins(s, row![8, 11, 2, -0.0, -0.0, "shop"]),
                    ins(s, row![9, 10, 1, 100.0, 50.0, ""]),
                ],
            )],
            vec![(
                s,
                vec![
                    upd(s, 1, row![1, 10, 3, 0.0, 5.0, "shop"]),
                    upd(s, 3, row![3, 11, 2, 0.0, 1.0, "web"]),
                    upd(s, 5, row![5, 10, 2, 4.0, 9.0, "shop"]),
                    upd(s, 2, row![2, 10, 3, 12.5, f64::NAN, "web"]),
                    upd(s, 4, row![4, 11, 1, -0.0, 0.0, "m"]),
                ],
            )],
            vec![(
                s,
                vec![
                    del(s, 6),
                    del(s, 7),
                    ins(s, row![10, 11, 2, 2.5, 2.5, "web"]),
                    upd(s, 10, row![10, 11, 3, 2.5, 2.0, "shop"]),
                    del(s, 2),
                    upd(s, 1, row![1, 10, 1, 5.0, 5.0, "web"]),
                ],
            )],
        ]
    };
    for (name, locals) in ticket_conditions(&t) {
        // The seed data must sit on both sides of the condition.
        let passes = |r: &md_relation::Row| {
            let env = RowEnv::single(s, r);
            locals.iter().all(|c| c.eval(&env).unwrap())
        };
        let kept = t.db.table(s).rows().filter(passes).count();
        assert!(0 < kept && kept < 6, "{name} keeps {kept} of 6");
        let view = tickets_view(&t, name, locals);
        assert_batches_equal_singles(&view, t.db.clone(), batches());
    }
}

#[test]
fn loading_rows_and_feeding_them_leave_the_same_image() {
    // Load and maintenance share one evaluator, so they agree row by row:
    // S1 ∪ S2 loaded and S2 deleted again is, byte for byte, S1 inserted
    // into an engine loaded before the first sale. (|S1| = |S2|, so the
    // two also count the same work.)
    let t = tickets();
    let s1: Vec<_> = t.db.table(t.sale).rows().collect();
    let s2 = vec![
        row![21, 11, 2, 0.0, -0.0, "shop"],
        row![22, 10, 7, f64::NAN, 3.0, "phone"],
        row![23, 10, 1, 2.0, 2.0, "web"],
        row![24, 11, 3, -1.5, f64::NAN, ""],
        row![25, 10, 2, 9.0, 9.5, "shop"],
        row![26, 11, 4, 6.0, 6.0, "web"],
    ];
    let mut before_sales = Database::new(t.cat.clone());
    for r in t.db.table(t.product).rows() {
        before_sales.insert(t.product, r).unwrap();
    }
    let mut both = t.db.clone();
    for r in &s2 {
        both.insert(t.sale, r.clone()).unwrap();
    }
    for (name, locals) in ticket_conditions(&t) {
        let view = tickets_view(&t, name, locals);
        let load = |db: &Database| {
            let mut solo = Solo::new(derive(&view, &t.cat).unwrap(), &t.cat).unwrap();
            solo.initial_load(db).unwrap();
            solo
        };
        let mut shrunk = load(&both);
        let deletes: Vec<Change> = s2.iter().cloned().map(Change::Delete).collect();
        shrunk.apply(t.sale, &deletes).unwrap();
        let mut fed = load(&before_sales);
        let inserts: Vec<Change> = s1.iter().cloned().map(Change::Insert).collect();
        fed.apply(t.sale, &inserts).unwrap();
        assert!(fed.engine.verify_against(&t.db).unwrap(), "{name}");
        assert_eq!(
            shrunk.snapshot().unwrap(),
            fed.snapshot().unwrap(),
            "{name}"
        );
    }
}

#[test]
fn a_rejected_root_change_is_named_by_its_own_index() {
    // A view with root-local conditions holds every row it is asked about
    // to the root's schema: the batch is refused whole, naming the change.
    let t = tickets();
    let locals = vec![Condition::cmp_lit(ColRef::new(t.sale, 2), CmpOp::Ge, 2i64)];
    let view = tickets_view(&t, "checked", locals);
    let mut solo = Solo::new(derive(&view, &t.cat).unwrap(), &t.cat).unwrap();
    solo.initial_load(&t.db).unwrap();
    let before = solo.snapshot().unwrap();
    let good = |id: i64| Change::Insert(row![id, 10, 3, 1.0, 1.0, "web"]);
    let rejected_at = |solo: &mut Solo, changes: &[Change]| match solo.apply(t.sale, changes) {
        Err(MaintainError::Rejected {
            table,
            change_index,
            ..
        }) => {
            assert_eq!(table, "sale");
            change_index
        }
        other => panic!("expected a rejection, got {other:?}"),
    };
    for malformed in [
        // Too short; an integer where the price belongs, in a column no
        // condition reads; and the new half of an update.
        Change::Insert(row![30, 10, 3]),
        Change::Insert(row![30, 10, 3, 1, 1.0, "web"]),
        Change::Update {
            old: row![1, 10, 1, 5.0, 5.0, "web"],
            new: row![1, 10, 1, 5.0, 5.0, 7],
        },
    ] {
        let batch = [good(31), good(32), malformed, good(33)];
        assert_eq!(rejected_at(&mut solo, &batch), Some(2));
        assert_eq!(before, solo.snapshot().unwrap());
    }
}

#[test]
fn a_batch_equals_its_changes_applied_one_at_a_time() {
    // A run's folds (auxiliary store, summary, value counts by their net
    // weight) must compose like its occurrences applied sequentially: the same changes as batches and as runs of one leave
    // the same stores, and both equal a recompute from the sources —
    // for a materialized root and for a root-omitted plan.
    for tight in [false, true] {
        let s = star(tight);
        let view = if tight {
            by_keys(&s)
        } else {
            product_sales(&s)
        };
        assert_eq!(derive(&view, &s.cat).unwrap().root_omitted(), tight);
        let sale = s.sale;
        // Sale 800 moves to timeid 2: an update where the contract exposes
        // `timeid`, a delete + insert where it does not.
        let move_800 = if tight {
            vec![del(sale, 800), ins(sale, row![800, 2, 10, 2.0])]
        } else {
            vec![upd(sale, 800, row![800, 2, 10, 2.0])]
        };
        let mut across_runs = vec![
            ins(sale, row![900, 2, 11, 6.0]),
            ins(sale, row![901, 1, 11, 1.5]),
        ];
        across_runs.extend(move_800);
        // A reprice splits into −/+ inside one run.
        across_runs.push(upd(sale, 801, row![801, 1, 10, 3.0]));
        across_runs.push(ins(sale, row![902, 2, 10, 3.25]));
        let batches = vec![
            // Hot batch: every insert lands in the (timeid=1, productid=10) run.
            vec![
                ins(sale, row![800, 1, 10, 2.0]),
                ins(sale, row![801, 1, 10, 2.0]),
                ins(sale, row![802, 1, 10, 4.5]),
                ins(sale, row![803, 1, 10, 4.5]),
                ins(sale, row![804, 1, 10, 2.0]),
            ],
            across_runs,
            // Rows `product_sales` filters (1996) interleaved with
            // qualifying deletes — including a transient group removal
            // (month 2 / group (2, 11) drains and refills).
            vec![
                ins(sale, row![910, 3, 10, 77.0]),
                del(sale, 900),
                del(sale, 103),
                del(sale, 800),
                del(sale, 902),
                ins(sale, row![911, 2, 11, 9.0]),
            ],
        ];
        let batches = batches.into_iter().map(|ops| vec![(sale, ops)]).collect();
        assert_batches_equal_singles(&view, s.db, batches);
    }

    // Append-only, without X_sale, `MIN`/`MAX` of the root's price: the
    // price is part of the run key, so product 10's sales at two prices
    // in one batch fold as two runs.
    let s = insert_only(star(false));
    let view = price_range(&s);
    let plan = derive(&view, &s.cat).unwrap();
    assert!(plan.root_omitted() && plan.regime == ChangeRegime::AppendOnly);
    let sale = s.sale;
    let batches = vec![
        vec![
            ins(sale, row![800, 1, 10, 2.0]),
            ins(sale, row![801, 2, 10, 9.5]),
            ins(sale, row![802, 1, 10, 2.0]),
            ins(sale, row![803, 1, 11, 0.5]),
        ],
        vec![
            ins(sale, row![804, 2, 11, 4.0]),
            ins(sale, row![805, 1, 10, 11.0]),
            ins(sale, row![806, 2, 10, 1.0]),
        ],
    ];
    let batches = batches.into_iter().map(|ops| vec![(sale, ops)]).collect();
    assert_batches_equal_singles(&view, s.db, batches);
}

/// `s` with every table insert-only (Section 4's old detail data), its
/// rows carried over.
fn insert_only(s: Star) -> Star {
    let tables = [s.time, s.product, s.sale];
    let mut cat = s.cat.clone();
    for table in tables {
        cat.set_insert_only(table).unwrap();
    }
    let mut db = Database::new(cat.clone());
    for table in tables {
        for row in s.db.table(table).rows() {
            db.insert(table, row).unwrap();
        }
    }
    Star { cat, db, ..s }
}

/// `price_range` of `tests/append_only.rs`: each brand's cheapest and
/// dearest sale.
fn price_range(s: &Star) -> GpsjView {
    let price = ColRef::new(s.sale, 3);
    GpsjView::new(
        "price_range",
        vec![s.sale, s.product],
        vec![
            SelectItem::group_by(ColRef::new(s.product, 1), "brand"),
            SelectItem::agg(Aggregate::of(AggFunc::Min, price), "Lo"),
            SelectItem::agg(Aggregate::of(AggFunc::Max, price), "Hi"),
            SelectItem::agg(Aggregate::count_star(), "N"),
        ],
        vec![Condition::eq_cols(
            ColRef::new(s.sale, 2),
            ColRef::new(s.product, 0),
        )],
    )
}

#[test]
fn a_dimension_batch_equals_its_changes_applied_one_at_a_time() {
    // The same equality for dimension deltas, under every shape a change
    // can take on its way to V.
    let brand_sales = |s: &Star| {
        GpsjView::new(
            "brand_sales",
            vec![s.sale, s.product],
            vec![
                SelectItem::group_by(ColRef::new(s.product, 1), "brand"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(s.sale, 3)),
                    "Revenue",
                ),
                SelectItem::agg(Aggregate::count_star(), "N"),
            ],
            vec![Condition::eq_cols(
                ColRef::new(s.sale, 2),
                ColRef::new(s.product, 0),
            )],
        )
    };

    // (i) A group-by rename: facts move between groups; "acme" empties
    // and reappears inside one table group. Then renames interleaved with
    // fact groups and a dependency-edge insert in one transaction.
    let s = star(true);
    let batches = vec![
        vec![(
            s.product,
            vec![
                upd(s.product, 10, row![10, "zeta"]),
                upd(s.product, 11, row![11, "acme"]),
            ],
        )],
        vec![
            (s.sale, vec![ins(s.sale, row![920, 1, 10, 2.5])]),
            (
                s.product,
                vec![
                    upd(s.product, 10, row![10, "nova"]),
                    ins(s.product, row![12, "acme"]),
                ],
            ),
            (
                s.sale,
                vec![ins(s.sale, row![921, 2, 12, 1.25]), del(s.sale, 102)],
            ),
            (s.product, vec![upd(s.product, 12, row![12, "nova"])]),
        ],
    ];
    assert_batches_equal_singles(&brand_sales(&s), s.db, batches);

    // (i′) A group walks each joined tuple once, however often its
    // changes touch the key: a product renamed twice in one uncoalesced
    // group, and deleted and re-inserted under another brand while its
    // sales still reference it — on an edge that is no dependency, since
    // the view's condition on the updatable brand exposes it.
    let s = star(true);
    let renamed_twice = vec![
        upd(s.product, 10, row![10, "zeta"]),
        upd(s.product, 10, row![10, "nova"]),
    ];
    let batches = vec![vec![(s.product, renamed_twice)]];
    assert_batches_equal_singles(&brand_sales(&s), s.db, batches);
    let mut s = star(true);
    let mut view = brand_sales(&s);
    let brand = ColRef::new(s.product, 1);
    view.conditions
        .push(Condition::cmp_lit(brand, CmpOp::Ne, "void"));
    let plan = derive(&view, &s.cat).unwrap();
    let edge = plan.graph.parent_edge(s.product).unwrap();
    assert!(!plan.graph.is_dependency(edge));
    s.db.set_enforce_ri(false);
    let reinserted = vec![del(s.product, 10), ins(s.product, row![10, "zeta"])];
    let batches = vec![vec![(s.product, reinserted)]];
    assert_batches_equal_singles(&view, s.db, batches);

    // (ii) Condition-crossing updates: a day enters the 1997 view, one
    // leaves it (its month group vanishes), one changes month inside it;
    // and an insert on a non-dependency edge that nothing references.
    let s = star(false);
    let batches = vec![
        vec![(
            s.time,
            vec![
                upd(s.time, 3, row![3, 1, 1997]),
                upd(s.time, 2, row![2, 2, 1996]),
            ],
        )],
        vec![
            (
                s.time,
                vec![
                    upd(s.time, 3, row![3, 2, 1997]),
                    upd(s.time, 2, row![2, 2, 1997]),
                    ins(s.time, row![7, 7, 1997]),
                ],
            ),
            (s.sale, vec![ins(s.sale, row![930, 7, 11, 0.75])]),
            (s.time, vec![upd(s.time, 7, row![7, 7, 1995])]),
        ],
    ];
    assert_batches_equal_singles(&product_sales(&s), s.db, batches);

    // (iii) A snowflake chain: category renames reach the facts through
    // the products' reverse lookup (two categories merge into one group
    // and split again), and a product changes category.
    let sf = snowflake(true);
    let batches = vec![
        vec![(
            sf.category,
            vec![
                upd(sf.category, 1, row![1, "groceries"]),
                upd(sf.category, 2, row![2, "groceries"]),
            ],
        )],
        vec![
            (sf.category, vec![upd(sf.category, 2, row![2, "tools"])]),
            (sf.product, vec![upd(sf.product, 10, row![10, 2])]),
            (sf.sale, vec![ins(sf.sale, row![103, 10, 1.5])]),
            (sf.category, vec![upd(sf.category, 2, row![2, "hardware"])]),
        ],
    ];
    assert_batches_equal_singles(&sf.view, sf.db, batches);

    // (iv) MAX and COUNT(DISTINCT) over the renamed attribute: deleting
    // a group's extremum by rename, then restoring it.
    let s = star(true);
    let view = GpsjView::new(
        "brand_extremes",
        vec![s.sale, s.time, s.product],
        vec![
            SelectItem::group_by(ColRef::new(s.time, 1), "month"),
            SelectItem::agg(
                Aggregate::of(AggFunc::Max, ColRef::new(s.product, 1)),
                "Last",
            ),
            SelectItem::agg(
                Aggregate::distinct_of(AggFunc::Count, ColRef::new(s.product, 1)),
                "Brands",
            ),
            SelectItem::agg(Aggregate::count_star(), "N"),
        ],
        vec![
            Condition::eq_cols(ColRef::new(s.sale, 1), ColRef::new(s.time, 0)),
            Condition::eq_cols(ColRef::new(s.sale, 2), ColRef::new(s.product, 0)),
        ],
    );
    let batches = vec![
        vec![(
            s.product,
            vec![
                upd(s.product, 11, row![11, "acme"]),
                upd(s.product, 10, row![10, "zulu"]),
            ],
        )],
        vec![
            (s.product, vec![upd(s.product, 10, row![10, "acme"])]),
            (s.sale, vec![del(s.sale, 103)]),
            (s.product, vec![upd(s.product, 11, row![11, "beta"])]),
        ],
    ];
    assert_batches_equal_singles(&view, s.db, batches);

    // Root omitted: the group key pins the renamed product, so only its
    // groups are remapped; `by_keys` keeps no product attribute at all.
    for view in [by_keys_brandmax, by_keys] {
        let s = star(true);
        let view = view(&s);
        assert!(derive(&view, &s.cat).unwrap().root_omitted());
        let batches = vec![vec![
            (
                s.product,
                vec![
                    upd(s.product, 10, row![10, "acme-2"]),
                    upd(s.product, 11, row![11, "acme-2"]),
                ],
            ),
            (s.sale, vec![ins(s.sale, row![940, 2, 10, 4.0])]),
            (s.product, vec![upd(s.product, 10, row![10, "acme-3"])]),
        ]];
        assert_batches_equal_singles(&view, s.db, batches);
    }
}

#[test]
fn distinct_sums_of_non_dyadic_doubles_are_exact() {
    // `SUM`/`AVG(DISTINCT a)` add up a *set*; with doubles that are not
    // sums of powers of two a fold's result depends on its order, so
    // engine and oracle each add exactly and round once. (Folding two hash
    // sets in their iteration orders, as both once did, disagrees in the
    // last bits on almost every run of this test.)
    let mut s = star(false);
    let price = ColRef::new(s.sale, 3);
    let view = GpsjView::new(
        "distinct_prices",
        vec![s.sale],
        vec![
            SelectItem::group_by(ColRef::new(s.sale, 2), "productid"),
            SelectItem::agg(Aggregate::distinct_of(AggFunc::Sum, price), "S"),
            SelectItem::agg(Aggregate::distinct_of(AggFunc::Avg, price), "A"),
            SelectItem::agg(Aggregate::count_star(), "N"),
        ],
        vec![],
    );
    // 48 distinct prices per product, each sold twice, in scrambled order.
    let prices = |p: i64| (0..96).map(move |i| 0.1 * ((i * 37 + p) % 48 + 1) as f64 + 0.01);
    for p in [10, 11] {
        for (i, price) in prices(p).enumerate() {
            let id = 1_000 * p + i as i64;
            s.db.insert(s.sale, row![id, 1, p, price]).unwrap();
        }
    }
    let mut solo = engine_for(&s, &view);

    // Take every third sale out again, as one batch.
    let gone: Vec<Change> = (0..96)
        .step_by(3)
        .map(|i| s.db.delete(s.sale, &Value::Int(10_000 + i)).unwrap())
        .collect();
    solo.apply(s.sale, &gone).unwrap();
    assert!(solo.engine.verify_against(&s.db).unwrap());
    assert!(solo.audit().is_clean());

    // And the value is the exact sum rounded once: every price here is a
    // multiple of 2⁻⁶⁰, so a 128-bit integer at that scale adds them
    // exactly.
    let mut left: Vec<f64> =
        s.db.table(s.sale)
            .rows()
            .filter(|r| r[2] == Value::Int(11))
            .map(|r| r[3].as_double().unwrap())
            .collect();
    left.sort_by(f64::total_cmp);
    let n = left.len() as i64;
    left.dedup();
    let scale = 2f64.powi(60);
    let exact: i128 = left.iter().map(|p| (p * scale) as i128).sum();
    let sum = exact as f64 / scale;
    let want = row![11, sum, sum / left.len() as f64, n];
    assert_eq!(solo.engine.summary_bag().unwrap().count(&want), 1);
}

#[test]
fn double_sum_with_cancelling_magnitudes_matches_recompute() {
    // `f64` addition is not associative: folded in float, the batch
    // `+1e16, +1.0, −1e16` on one summary group left the maintained `SUM`
    // at 17.0 where a recompute from the sources gives 16.0. Exact sums
    // are self-maintainable under deletion in any order.
    let mut s = star(false);
    s.db = Database::new(s.cat.clone());
    s.db.insert(s.time, row![1, 1, 1997]).unwrap();
    s.db.insert(s.product, row![10, "acme"]).unwrap();
    s.db.insert(s.product, row![11, "zeta"]).unwrap();
    s.db.insert(s.sale, row![100, 1, 10, 15.0]).unwrap();
    let view = GpsjView::new(
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
    );
    let mut solo = engine_for(&s, &view);
    let batch = [
        s.db.insert(s.sale, row![800, 1, 10, 1e16]).unwrap(),
        s.db.insert(s.sale, row![801, 1, 11, 1.0]).unwrap(),
        s.db.delete(s.sale, &Value::Int(800)).unwrap(),
    ];
    solo.apply(s.sale, &batch).unwrap();
    assert!(
        solo.engine.verify_against(&s.db).unwrap(),
        "maintained {} != recomputed {}",
        solo.engine.summary_bag().unwrap(),
        md_maintain::recompute_from_sources(&view, &s.db).unwrap()
    );
}

/// `sale(id, productid, qty INT, price DOUBLE) → product(id, brand)`, the
/// brand renamable, and a view summing by brand every way a float fold
/// gets wrong — `SUM` and `AVG` of `price`, `SUM(qty)` — beside a `MAX`
/// that keeps `price` raw in `X_root`, so that a root auxiliary tuple
/// contributes `a · cnt₀` to the sums.
struct Prices {
    db: Database,
    view: GpsjView,
    product: TableId,
    sale: TableId,
}

fn prices(products: &[(i64, &str)], sales: &[(i64, i64, f64)]) -> Prices {
    let mut cat = Catalog::new();
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
                ("productid", DataType::Int),
                ("qty", DataType::Int),
                ("price", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(sale, 1, product).unwrap();
    cat.set_updatable_columns(product, &[1]).unwrap();
    cat.set_updatable_columns(sale, &[3]).unwrap();
    let mut db = Database::new(cat);
    for &(id, brand) in products {
        db.insert(product, row![id, brand]).unwrap();
    }
    for &(id, productid, price) in sales {
        db.insert(sale, row![id, productid, id % 5, price]).unwrap();
    }
    let price = ColRef::new(sale, 3);
    let view = GpsjView::new(
        "prices",
        vec![sale, product],
        vec![
            SelectItem::group_by(ColRef::new(product, 1), "brand"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, price), "Total"),
            SelectItem::agg(Aggregate::of(AggFunc::Avg, price), "Mean"),
            SelectItem::agg(Aggregate::of(AggFunc::Max, price), "Top"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "Items"),
            SelectItem::agg(Aggregate::count_star(), "N"),
        ],
        vec![Condition::eq_cols(
            ColRef::new(sale, 1),
            ColRef::new(product, 0),
        )],
    );
    Prices {
        db,
        view,
        product,
        sale,
    }
}

fn ins_sale(id: i64, productid: i64, price: f64) -> (bool, Op) {
    (
        false,
        Box::new(move |db: &mut Database| {
            let sale = db.catalog().table_id("sale").unwrap();
            db.insert(sale, row![id, productid, id % 5, price]).unwrap()
        }),
    )
}

fn del_sale(id: i64) -> (bool, Op) {
    (
        false,
        Box::new(move |db: &mut Database| {
            let sale = db.catalog().table_id("sale").unwrap();
            db.delete(sale, &Value::Int(id)).unwrap()
        }),
    )
}

fn rename(id: i64, brand: &'static str) -> (bool, Op) {
    (
        true,
        Box::new(move |db: &mut Database| {
            let product = db.catalog().table_id("product").unwrap();
            db.update(product, &Value::Int(id), row![id, brand])
                .unwrap()
        }),
    )
}

#[test]
fn float_edge_cases_match_recompute_after_every_batch() {
    /// What it tests, the sales loaded, and the batches fed after.
    type Scenario = (&'static str, Vec<(i64, i64, f64)>, Vec<Vec<(bool, Op)>>);
    let scenarios: Vec<Scenario> = vec![
        (
            // The engine once seeded a sum with its first value: −0.0.
            "a group of only −0.0",
            vec![(1, 11, 2.0)],
            vec![vec![ins_sale(2, 10, -0.0), ins_sale(3, 10, -0.0)]],
        ),
        (
            "a NaN inserted, then deleted",
            vec![(1, 10, 1.5)],
            vec![vec![ins_sale(2, 10, f64::NAN)], vec![del_sale(2)]],
        ),
        (
            "+∞ and −∞ in one group, then −∞ gone",
            vec![(1, 10, 1.5)],
            vec![
                vec![
                    ins_sale(2, 10, f64::INFINITY),
                    ins_sale(3, 12, f64::NEG_INFINITY),
                ],
                vec![del_sale(3)],
            ],
        ),
        (
            "1e308 + 1e308, then one of them gone",
            vec![(1, 10, 1e308)],
            vec![vec![ins_sale(2, 12, 1e308)], vec![del_sale(1)]],
        ),
        (
            "a subnormal next to 1.0, then 1.0 gone",
            vec![(1, 10, 1.0)],
            vec![vec![ins_sale(2, 12, f64::from_bits(1))], vec![del_sale(1)]],
        ),
        (
            // 0.1 · 3 is one X_root tuple; the rename moves it out of a
            // group it shared with 0.2, into one holding 0.7.
            "a · cnt₀ with a = 0.1, cnt₀ = 3, moved by a rename",
            vec![
                (1, 10, 0.1),
                (2, 10, 0.1),
                (3, 10, 0.1),
                (4, 12, 0.2),
                (5, 11, 0.7),
            ],
            vec![vec![rename(10, "zeta")]],
        ),
    ];
    for (what, initial, batches) in scenarios {
        let mut p = prices(&[(10, "acme"), (11, "zeta"), (12, "acme")], &initial);
        let cat = p.db.catalog().clone();
        let plan = derive(&p.view, &cat).unwrap();
        let mut solo = Solo::new(plan, &cat).unwrap();
        solo.initial_load(&p.db).unwrap();
        assert!(solo.engine.verify_against(&p.db).unwrap(), "{what}: load");
        for (b, batch) in batches.into_iter().enumerate() {
            for (on_product, op) in batch {
                let table = if on_product { p.product } else { p.sale };
                let change = op(&mut p.db);
                solo.apply(table, &[change]).unwrap();
            }
            assert!(
                solo.engine.verify_against(&p.db).unwrap(),
                "{what}, batch {b}: maintained {} != recomputed {}",
                solo.engine.summary_bag().unwrap(),
                md_maintain::recompute_from_sources(&p.view, &p.db).unwrap()
            );
            assert!(solo.verify_aux_against(&p.db).unwrap(), "{what}, batch {b}");
            assert!(solo.audit().is_clean(), "{what}, batch {b}");
        }
    }
}

/// The engine image once an empty batch of every one of `tables` commits
/// at one common LSN, past every batch before it (a commit keeps the
/// highest LSN): what equal states reached through different batchings
/// must share byte for byte.
fn image_of(mut solo: Solo, tables: &[TableId]) -> Vec<u8> {
    let lsns: Vec<(TableId, u64)> = tables.iter().map(|&t| (t, 1_000)).collect();
    solo.prepare(&[]).unwrap().commit(&lsns);
    solo.snapshot().unwrap()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig { cases: 48 })]

    /// Exact sums make the order of a batch unobservable. A random stream
    /// of sales at adversarial prices (tenths, ±1e16, ±1e300, subnormals,
    /// ±0.0, ±∞, NaN) is coalesced, and a brand rename rides along; the
    /// coalesced batch applied whole, shuffled, shuffled and cut into
    /// batches, and one change at a time — with the rename first, last or
    /// in between, and one variant rolling a junk batch back first — must
    /// leave byte-identical engine images, equal to the recompute.
    #[test]
    fn any_order_or_batching_of_a_batch_leaves_the_same_image(
        seed in proptest::prelude::any::<u64>(),
        raw_price in proptest::prelude::any::<bool>(),
    ) {
        use md_workload::adversarial_double;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let initial: Vec<(i64, i64, f64)> = (1..=12)
            .map(|id| (id, rng.gen_range(10..=12), adversarial_double(&mut rng)))
            .collect();
        let mut p = prices(&[(10, "acme"), (11, "zeta"), (12, "acme")], &initial);
        if !raw_price {
            // Without the MAX, X_root holds SUM(price) compressed: the
            // rename moves stored sums instead of `a · cnt₀`.
            p.view.select.retain(|item| item.alias() != "Top");
        }
        let (sale, product) = (p.sale, p.product);
        let cat = p.db.catalog().clone();
        let plan = derive(&p.view, &cat).unwrap();
        let engines: Vec<Solo> = (0..4)
            .map(|_| {
                let mut solo = Solo::new(plan.clone(), &cat).unwrap();
                solo.initial_load(&p.db).unwrap();
                solo
            })
            .collect();

        // A valid stream against the sources, and its net effect.
        let mut stream = Vec::new();
        for next_id in 100..rng.gen_range(104..116) {
            let live: Vec<Value> = p.db.table(sale).rows().map(|r| r[0].clone()).collect();
            let roll = if live.is_empty() { 0 } else { rng.gen_range(0..10) };
            let change = match roll {
                0..=3 => {
                    let price = adversarial_double(&mut rng);
                    let row = row![next_id, rng.gen_range(10..=12), next_id % 5, price];
                    p.db.insert(sale, row).unwrap()
                }
                4..=6 => {
                    let id = live[rng.gen_range(0..live.len())].clone();
                    p.db.delete(sale, &id).unwrap()
                }
                _ => {
                    let id = live[rng.gen_range(0..live.len())].clone();
                    let mut vals = p.db.table(sale).get(&id).unwrap().into_values();
                    vals[3] = Value::Double(adversarial_double(&mut rng));
                    p.db.update(sale, &id, md_relation::Row::new(vals)).unwrap()
                }
            };
            stream.push(change);
        }
        let key = p.db.catalog().def(sale).unwrap().key_col;
        let batch: Vec<Change> = (md_maintain::coalesce(&stream, Some(key)).into_iter())
            .map(md_relation::ChangeRef::to_change)
            .collect();
        let renamed = rng.gen_range(10..=12);
        let brand = ["acme", "zeta", "kilo"][rng.gen_range(0..3usize)];
        let rename = [p.db.update(product, &Value::Int(renamed), row![renamed, brand]).unwrap()];

        let mut shuffled = batch.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen_range(0..=batch.len()))
            .collect();
        cuts.extend([0, batch.len()]);
        cuts.sort_unstable();
        let rename_at = rng.gen_range(0..cuts.len() - 1);

        let commit = |solo: &mut Solo, groups: &[(TableId, &[Change])]| {
            solo.prepare(groups).unwrap().commit(&[]);
        };
        let mut images = Vec::new();
        for (variant, mut solo) in engines.into_iter().enumerate() {
            match variant {
                // Whole, the rename first.
                0 => commit(&mut solo, &[(product, &rename), (sale, &batch)]),
                // Shuffled, the rename last — after a junk batch rolled back.
                1 => {
                    let junk: Vec<Change> = shuffled.iter().rev().cloned().collect();
                    solo.prepare(&[(sale, &junk), (product, &rename)]).unwrap().rollback();
                    commit(&mut solo, &[(sale, &shuffled), (product, &rename)]);
                }
                // Shuffled and cut, the rename between two of the pieces.
                2 => {
                    for (k, piece) in cuts.windows(2).enumerate() {
                        commit(&mut solo, &[(sale, &shuffled[piece[0]..piece[1]])]);
                        if k == rename_at {
                            commit(&mut solo, &[(product, &rename)]);
                        }
                    }
                }
                // One change at a time, the rename halfway.
                _ => {
                    let (first, second) = batch.split_at(batch.len() / 2);
                    for change in first {
                        commit(&mut solo, &[(sale, std::slice::from_ref(change))]);
                    }
                    commit(&mut solo, &[(product, &rename)]);
                    for change in second {
                        commit(&mut solo, &[(sale, std::slice::from_ref(change))]);
                    }
                }
            }
            proptest::prop_assert!(solo.engine.verify_against(&p.db).unwrap(), "variant {}", variant);
            proptest::prop_assert!(solo.verify_aux_against(&p.db).unwrap(), "variant {}", variant);
            images.push(image_of(solo, &[sale, product]));
        }
        for (variant, image) in images.iter().enumerate().skip(1) {
            proptest::prop_assert!(image == &images[0], "variant {} saves other bytes", variant);
        }
    }
}

/// `sale → product → category` with `category.name` in the group-by.
struct Snowflake {
    db: Database,
    view: GpsjView,
    category: TableId,
    product: TableId,
    sale: TableId,
}

/// `product_moves` lets a product change its category (which exposes the
/// join column: the `sale → product` edge stops being a dependency).
fn snowflake(product_moves: bool) -> Snowflake {
    let mut cat = Catalog::new();
    let category = cat
        .add_table(
            "category",
            Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]),
            0,
        )
        .unwrap();
    let product = cat
        .add_table(
            "product",
            Schema::from_pairs(&[("id", DataType::Int), ("categoryid", DataType::Int)]),
            0,
        )
        .unwrap();
    let sale = cat
        .add_table(
            "sale",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("productid", DataType::Int),
                ("price", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(sale, 1, product).unwrap();
    cat.add_foreign_key(product, 1, category).unwrap();
    cat.set_updatable_columns(category, &[1]).unwrap();
    if product_moves {
        cat.set_updatable_columns(product, &[1]).unwrap();
    } else {
        cat.set_append_only(product).unwrap();
    }
    cat.set_updatable_columns(sale, &[2]).unwrap();
    let mut db = Database::new(cat.clone());
    db.insert(category, row![1, "food"]).unwrap();
    db.insert(category, row![2, "tools"]).unwrap();
    db.insert(product, row![10, 1]).unwrap();
    db.insert(product, row![11, 2]).unwrap();
    for (id, p, price) in [(100, 10, 3.0), (101, 10, 4.0), (102, 11, 9.0)] {
        db.insert(sale, row![id, p, price]).unwrap();
    }
    let view = GpsjView::new(
        "by_category",
        vec![sale, product, category],
        vec![
            SelectItem::group_by(ColRef::new(category, 1), "name"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "rev"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        vec![
            Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
            Condition::eq_cols(ColRef::new(product, 1), ColRef::new(category, 0)),
        ],
    );
    Snowflake {
        db,
        view,
        category,
        product,
        sale,
    }
}

#[test]
fn snowflake_inner_dimension_update_repairs_from_aux() {
    // A category rename is a non-direct-child update: the products of the
    // category are found by scanning productDTL, their facts through the
    // fk index, and only those move (from X, never the sources).
    let Snowflake {
        mut db,
        view,
        category,
        ..
    } = snowflake(false);
    let cat = db.catalog().clone();
    let plan = md_core::derive(&view, &cat).unwrap();
    let mut solo = Solo::new(plan, &cat).unwrap();
    solo.initial_load(&db).unwrap();
    assert!(solo.engine.verify_against(&db).unwrap());

    // Rename "food" → "groceries": group key changes wholesale.
    let c = db
        .update(category, &Value::Int(1), row![1, "groceries"])
        .unwrap();
    solo.apply(category, &[c]).unwrap();
    assert!(solo.engine.verify_against(&db).unwrap());
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row!["groceries", 7.0, 2]), 1);
    assert_eq!(solo.engine.stats().dim_targeted_updates, 1);
    assert_eq!(solo.engine.stats().summary_rebuilds, 0);
}

#[test]
fn aux_oracle_reduces_a_snowflake_chain_from_its_far_end() {
    // A local condition on the outer dimension: categoryDTL keeps one
    // category, productDTL its products, saleDTL their sales. The oracle
    // has to reduce in that order too, or it expects the sales of products
    // the engine rightly dropped.
    let Snowflake {
        mut db,
        view,
        category,
        product,
        sale,
    } = snowflake(false);
    let mut conditions = view.conditions.clone();
    conditions.push(Condition::cmp_lit(
        ColRef::new(category, 0),
        CmpOp::Eq,
        1i64,
    ));
    let view = GpsjView::new(
        "food_by_product_category",
        vec![sale, product, category],
        vec![
            SelectItem::group_by(ColRef::new(product, 1), "categoryid"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "rev"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        conditions,
    );
    let cat = db.catalog().clone();
    let mut solo = Solo::new(derive(&view, &cat).unwrap(), &cat).unwrap();
    solo.initial_load(&db).unwrap();
    assert_eq!(solo.aux_store(product).unwrap().len(), 1);
    assert_eq!(solo.aux_store(sale).unwrap().len(), 1);
    assert!(solo.engine.verify_against(&db).unwrap());
    assert!(solo.audit().is_clean());
    assert!(solo.verify_aux_against(&db).unwrap());

    // And after sales on both sides of the condition.
    for row in [row![103, 10, 1.0], row![104, 11, 2.0]] {
        let c = db.insert(sale, row).unwrap();
        solo.apply(sale, &[c]).unwrap();
    }
    assert!(solo.engine.verify_against(&db).unwrap());
    assert!(solo.verify_aux_against(&db).unwrap());
    let bag = solo.engine.summary_bag().unwrap();
    assert_eq!(bag.count(&row![1, 8.0, 3]), 1);
    assert_eq!(bag.len(), 1);
}

// ----------------------------------------------------------------------
// Dimension deltas as bucketed runs: each case ends on the same three
// checks, and reads how many root auxiliary tuples were joined and how
// many runs (buckets, retracts and inserts alike) they were folded as.
// ----------------------------------------------------------------------

/// A clean audit — the summary equal to its rebuild from `X` group by
/// group, value counts included — and a summary equal to a recompute from
/// the sources.
fn assert_delta_consistent(solo: &Solo, db: &Database, ctx: &str) {
    let audit = solo.audit();
    assert!(audit.is_clean(), "{ctx}: {:?}", audit.findings);
    assert!(solo.engine.verify_against(db).unwrap(), "{ctx}");
    assert!(solo.verify_aux_against(db).unwrap(), "{ctx}");
}

/// `maintain.dim_joined` and `maintain.dim_runs` of `engine`, registered.
fn dim_counters(solo: &mut Solo) -> [Counter; 2] {
    let obs = Obs::new(ObsConfig::off());
    let name = solo.engine.plan().view.name.clone();
    let labels = [("summary", name.as_str())];
    let counters = ["maintain.dim_joined", "maintain.dim_runs"].map(|c| obs.counter(c, &labels));
    solo.engine.set_obs(obs);
    counters
}

fn read(counters: &[Counter; 2]) -> [u64; 2] {
    [counters[0].get(), counters[1].get()]
}

#[test]
fn a_dimension_row_leaving_its_view_only_retracts() {
    // Day 1 leaves 1997 (the time auxiliary view's local condition): its
    // sales — two root auxiliary tuples, one per product — join before
    // the change and not after. Month 1 holds
    // nothing else, so its group goes.
    let mut s = star(false);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    let counters = dim_counters(&mut solo);
    let c =
        s.db.update(s.time, &Value::Int(1), row![1, 1, 1996])
            .unwrap();
    mirror(&mut solo, s.time, c);
    assert_delta_consistent(&solo, &s.db, "day 1 left");
    // Two buckets, (month 1, acme) and (month 1, zeta), retracted only.
    assert_eq!(read(&counters), [2, 2]);
    assert_eq!(solo.engine.summary().len(), 1);
    assert_eq!(solo.engine.stats().dim_targeted_updates, 1);
}

#[test]
fn a_dangling_root_tuple_that_starts_joining_only_inserts() {
    // No referential integrity is declared for `sale → product`, so the
    // edge is no dependency: a sale may reference a product the sources
    // have not delivered yet. saleDTL keeps it, joining nothing, until
    // the product arrives.
    let mut cat = Catalog::new();
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
                ("productid", DataType::Int),
                ("price", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    let mut db = Database::new(cat.clone());
    db.insert(product, row![10, "acme"]).unwrap();
    db.insert(sale, row![100, 10, 5.0]).unwrap();
    db.insert(sale, row![101, 12, 1.5]).unwrap();
    let view = GpsjView::new(
        "brand_sales",
        vec![sale, product],
        vec![
            SelectItem::group_by(ColRef::new(product, 1), "brand"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "rev"),
            SelectItem::agg(Aggregate::count_star(), "n"),
        ],
        vec![Condition::eq_cols(
            ColRef::new(sale, 1),
            ColRef::new(product, 0),
        )],
    );
    let mut solo = Solo::new(derive(&view, &cat).unwrap(), &cat).unwrap();
    solo.initial_load(&db).unwrap();
    assert_eq!(solo.aux_store(sale).unwrap().len(), 2);
    assert_delta_consistent(&solo, &db, "dangling sale");
    let counters = dim_counters(&mut solo);

    let c = db.insert(product, row![12, "nova"]).unwrap();
    solo.apply(product, &[c]).unwrap();
    assert_delta_consistent(&solo, &db, "its product arrived");
    // One tuple, one bucket ("nova"), inserted only.
    assert_eq!(read(&counters), [1, 1]);
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row!["nova", 1.5, 1]),
        1
    );
}

#[test]
fn a_retract_may_empty_a_group_the_insert_recreates() {
    // Month 2 holds one sale, of zeta's product 11: renaming it retracts
    // the whole group and inserts it again, within one change — and a
    // rollback of that change brings back the group it removed, while the
    // work it did stays counted.
    let mut s = star(true);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    let counters = dim_counters(&mut solo);
    let before = solo.snapshot().unwrap();
    let c =
        s.db.update(s.product, &Value::Int(11), row![11, "acme"])
            .unwrap();

    solo.prepare(&[(s.product, std::slice::from_ref(&c))])
        .unwrap()
        .rollback();
    assert_eq!(before, solo.snapshot().unwrap());
    // Product 11's two tuples: (month 1, zeta) and (month 2, zeta) out,
    // (month 1, acme) and (month 2, acme) in.
    assert_eq!(read(&counters), [2, 4]);

    mirror(&mut solo, s.product, c);
    assert_delta_consistent(&solo, &s.db, "zeta renamed");
    assert_eq!(read(&counters), [4, 8]);
    assert_eq!(
        solo.engine
            .summary_bag()
            .unwrap()
            .count(&row![2, 2.0, 1, 1]),
        1
    );
}

#[test]
fn a_snowflake_repoint_to_an_equal_parent_is_a_net_no_op() {
    // Category 3 is named like category 1: product 10 moving from one to
    // the other changes productDTL (it keeps the foreign key) but not V.
    let Snowflake {
        mut db,
        view,
        category,
        product,
        ..
    } = snowflake(true);
    let cat = db.catalog().clone();
    let mut solo = Solo::new(derive(&view, &cat).unwrap(), &cat).unwrap();
    solo.initial_load(&db).unwrap();
    let c = db.insert(category, row![3, "food"]).unwrap();
    solo.apply(category, &[c]).unwrap();
    let counters = dim_counters(&mut solo);
    let summary = solo.engine.summary_bag().unwrap();

    let c = db.update(product, &Value::Int(10), row![10, 3]).unwrap();
    solo.apply(product, &[c]).unwrap();
    assert_delta_consistent(&solo, &db, "product 10 repointed");
    assert_eq!(solo.engine.summary_bag().unwrap(), summary);
    // Product 10's one tuple (its sums pre-merged), out of "food" and in
    // again.
    assert_eq!(read(&counters), [1, 2]);
    assert_eq!(solo.engine.stats().dim_targeted_updates, 1);
}

#[test]
fn a_fault_on_the_second_dimension_change_names_it_and_rolls_back() {
    let mut s = star(true);
    let view = product_sales(&s);
    let mut solo = engine_for(&s, &view);
    let counters = dim_counters(&mut solo);
    let before = solo.snapshot().unwrap();
    let renames = [
        s.db.update(s.product, &Value::Int(10), row![10, "nova"])
            .unwrap(),
        s.db.update(s.product, &Value::Int(11), row![11, "acme"])
            .unwrap(),
    ];
    let mut faults = FaultPlan::recording();
    faults.arm("engine.apply.change", 1);
    solo.engine.set_fault_plan(faults);
    match solo.prepare(&[(s.product, &renames)]).map(drop) {
        Err(MaintainError::Rejected {
            table,
            change_index,
            ..
        }) => assert_eq!((table.as_str(), change_index), ("product", Some(1))),
        other => panic!("expected a rejection, got {other:?}"),
    }
    // The fault fires before the group's walk: no tuple was moved, and
    // the batch leaves the state as it was.
    assert_eq!(before, solo.snapshot().unwrap());
    assert_eq!(read(&counters), [0, 0]);
    assert!(solo.audit().is_clean());

    solo.engine.set_fault_plan(FaultPlan::default());
    solo.apply(s.product, &renames).unwrap();
    assert_delta_consistent(&solo, &s.db, "both renames");
}
