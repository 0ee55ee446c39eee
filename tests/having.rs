//! `HAVING` clause support (paper Section 4 extension: restrictions on
//! groups). The clause filters the *output*; internally every group stays
//! maintained — which these tests exercise by pushing groups back and
//! forth across a threshold under change streams.

use md_relation::{row, Value};
use md_sql::{parse_view, view_to_sql};
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::retail::{generate_retail, retail_catalog, Contracts, RetailParams};

const HOT_PRODUCTS: &str = "\
CREATE VIEW hot_products AS
SELECT sale.productid, SUM(price) AS Revenue, COUNT(*) AS Sales
FROM sale
GROUP BY sale.productid
HAVING COUNT(*) >= 3 AND Revenue > 10.0";

#[test]
fn having_parses_and_round_trips() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    let v1 = parse_view(HOT_PRODUCTS, &cat, "q").unwrap();
    assert_eq!(v1.having.len(), 2);
    // Both the aggregate-expression and the alias form resolve to items.
    assert_eq!(v1.having[0].item, 2); // COUNT(*) AS Sales
    assert_eq!(v1.having[1].item, 1); // Revenue alias
    let sql = view_to_sql(&v1, &cat).unwrap();
    assert!(sql.contains("HAVING"));
    let v2 = parse_view(&sql, &cat, "q").unwrap();
    assert_eq!(v1, v2);
}

#[test]
fn having_with_literal_on_the_left() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    let v = parse_view(
        "SELECT sale.productid, COUNT(*) AS n FROM sale \
         GROUP BY sale.productid HAVING 3 <= COUNT(*)",
        &cat,
        "q",
    )
    .unwrap();
    assert_eq!(v.having.len(), 1);
    assert_eq!(v.having[0].op, md_algebra::CmpOp::Ge);
}

#[test]
fn having_on_group_by_column() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    let v = parse_view(
        "SELECT time.month, COUNT(*) AS n FROM sale, time \
         WHERE sale.timeid = time.id GROUP BY time.month HAVING time.month <= 6",
        &cat,
        "q",
    )
    .unwrap();
    assert_eq!(v.having[0].item, 0);
}

#[test]
fn having_errors() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    // Aggregate not in the select list.
    assert!(parse_view(
        "SELECT sale.productid, COUNT(*) AS n FROM sale \
         GROUP BY sale.productid HAVING SUM(price) > 5",
        &cat,
        "q",
    )
    .is_err());
    // Unknown alias.
    assert!(parse_view(
        "SELECT sale.productid, COUNT(*) AS n FROM sale \
         GROUP BY sale.productid HAVING nonsense > 5",
        &cat,
        "q",
    )
    .is_err());
    // Type mismatch (string literal against a count).
    assert!(parse_view(
        "SELECT sale.productid, COUNT(*) AS n FROM sale \
         GROUP BY sale.productid HAVING n > 'many'",
        &cat,
        "q",
    )
    .is_err());
}

#[test]
fn groups_cross_the_threshold_both_ways() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(HOT_PRODUCTS, &db).unwrap();
    assert!(wh.verify_all(&db).unwrap());

    // Pick a product currently below the 3-sale threshold by inserting a
    // fresh product with two qualifying sales.
    let next_product = db.table(schema.product).len() as i64 + 1;
    let c = db
        .insert(schema.product, row![next_product, "fresh", "cat-x"])
        .unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.product, vec![c]))
        .unwrap();
    let next_sale = db
        .table(schema.sale)
        .rows()
        .map(|r| r[0].as_int().unwrap())
        .max()
        .unwrap()
        + 1;
    for k in 0..2 {
        let c = db
            .insert(schema.sale, row![next_sale + k, 1, next_product, 1, 9.0])
            .unwrap();
        wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c]))
            .unwrap();
    }
    // Two sales: group exists internally, hidden from the output.
    assert!(wh.verify_all(&db).unwrap());
    let visible = wh.summary_rows("hot_products").unwrap();
    assert!(!visible.iter().any(|r| r[0] == Value::Int(next_product)));

    // Third sale: group surfaces.
    let c = db
        .insert(schema.sale, row![next_sale + 2, 1, next_product, 1, 9.0])
        .unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c]))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
    let visible = wh.summary_rows("hot_products").unwrap();
    assert!(visible
        .iter()
        .any(|r| r[0] == Value::Int(next_product) && r[2] == Value::Int(3)));

    // Delete one sale: back under the threshold, hidden again — only
    // possible because the group stayed maintained internally.
    let c = db.delete(schema.sale, &Value::Int(next_sale)).unwrap();
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c]))
        .unwrap();
    assert!(wh.verify_all(&db).unwrap());
    let visible = wh.summary_rows("hot_products").unwrap();
    assert!(!visible.iter().any(|r| r[0] == Value::Int(next_product)));
}

#[test]
fn having_does_not_change_the_auxiliary_views() {
    // HAVING is an output filter: the derived auxiliary views (and hence
    // the detail data) must be identical with and without it. Checked on
    // the paper's product_sales view (fact view materialized) and on
    // hot_products (fact view eliminated — and it stays eliminated).
    let (cat, schema) = retail_catalog(Contracts::Tight);
    let base = md_workload::views::PRODUCT_SALES_SQL;
    let with_having = format!("{base}\nHAVING COUNT(*) > 100");
    let v1 = parse_view(base, &cat, "q").unwrap();
    let v2 = parse_view(&with_having, &cat, "q").unwrap();
    let p1 = md_core::derive(&v1, &cat).unwrap();
    let p2 = md_core::derive(&v2, &cat).unwrap();
    for t in [schema.sale, schema.time, schema.product] {
        let a = p1.aux_for(t).unwrap();
        let b = p2.aux_for(t).unwrap();
        assert_eq!(a.columns, b.columns);
        assert_eq!(a.semijoins, b.semijoins);
    }

    // hot_products is a single-table CSMAS view: its fact auxiliary view
    // is eliminated regardless of the HAVING clause.
    let hot = parse_view(HOT_PRODUCTS, &cat, "q").unwrap();
    let plan = md_core::derive(&hot, &cat).unwrap();
    assert!(plan.root_omitted());
}

#[test]
fn under_threshold_groups_survive_the_initial_load() {
    // A group already below the HAVING threshold at registration time must
    // be materialized internally (the root auxiliary view is eliminated
    // for this view, so the initial load is the only chance to capture
    // it) and surface correctly once later inserts push it over.
    use md_relation::{Catalog, DataType, Database, Schema};
    let mut cat = Catalog::new();
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
    cat.set_updatable_columns(sale, &[2]).unwrap();
    let mut db = Database::new(cat.clone());
    // Product 1: 3 sales (visible); product 2: 1 sale (hidden).
    for (id, p) in [(1, 1), (2, 1), (3, 1), (4, 2)] {
        db.insert(sale, row![id, p, 2.0]).unwrap();
    }
    let mut wh = Warehouse::new(&cat);
    wh.add_summary_sql(
        "CREATE VIEW busy AS SELECT sale.productid, COUNT(*) AS n, SUM(price) AS s \
         FROM sale GROUP BY sale.productid HAVING COUNT(*) >= 3",
        &db,
    )
    .unwrap();
    assert!(wh.plan("busy").unwrap().root_omitted());
    let rows = wh.summary_rows("busy").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(1));

    // Two more product-2 sales: the pre-existing hidden group must
    // resurface with the CORRECT cumulative count (3, not 2).
    for id in [5, 6] {
        let c = db.insert(sale, row![id, 2, 2.0]).unwrap();
        wh.apply_batch(&ChangeBatch::single(sale, vec![c])).unwrap();
    }
    assert!(wh.verify_all(&db).unwrap());
    let rows = wh.summary_rows("busy").unwrap();
    assert!(rows.contains(&row![2, 3, 6.0]));
}
