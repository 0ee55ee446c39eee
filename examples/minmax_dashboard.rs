//! Non-CSMAS aggregates in action: the `product_sales_max` view of
//! Section 3.2.
//!
//! `MAX(price)` is *not* completely self-maintainable (Table 1): inserting
//! a higher price updates the extremum in O(1), but deleting the current
//! extremum forces a recomputation — from the **auxiliary view**, never
//! from the source. The auxiliary view keeps `price` raw (it feeds the
//! MAX) and reconstructs `SUM(price)` as `SUM(price · SaleCount)` — the
//! paper's multiplication rule.
//!
//! Run with: `cargo run --example minmax_dashboard`

use md_relation::Value;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{generate_retail, views, Contracts, RetailParams};

fn main() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
        .expect("view registers");

    println!(
        "{}",
        wh.explain("product_sales_max").expect("summary exists")
    );

    // Find the globally most expensive sale.
    let (max_id, max_price, productid) = db
        .table(schema.sale)
        .rows()
        .map(|r| {
            (
                r[0].as_int().expect("id"),
                r[4].as_double().expect("price"),
                r[2].as_int().expect("productid"),
            )
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    println!("most expensive sale: id {max_id}, price {max_price:.2}, product {productid}");

    let row_of = |wh: &Warehouse, pid: i64| {
        wh.summary_rows("product_sales_max")
            .expect("summary exists")
            .into_iter()
            .find(|r| r[0] == Value::Int(pid))
            .expect("group exists")
    };

    println!("before delete: {}", row_of(&wh, productid));

    // Delete the extremum at the source and mirror the change.
    let change = db.delete(schema.sale, &Value::Int(max_id)).expect("exists");
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![change]))
        .expect("maintenance succeeds");

    println!("after delete:  {}", row_of(&wh, productid));
    let stats = wh.stats("product_sales_max").expect("summary exists");
    println!(
        "groups recomputed from the auxiliary view: {}",
        stats.groups_recomputed
    );
    assert!(stats.groups_recomputed >= 1);

    // Insertions keep the O(1) fast path.
    let new_id = db
        .table(schema.sale)
        .rows()
        .map(|r| r[0].as_int().unwrap())
        .max()
        .unwrap()
        + 1;
    let change = db
        .insert(
            schema.sale,
            md_relation::row![new_id, 1, productid, 1, 999.99],
        )
        .expect("fresh id");
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![change]))
        .expect("maintenance succeeds");
    println!("after insert of a 999.99 sale: {}", row_of(&wh, productid));
    assert_eq!(
        wh.stats("product_sales_max")
            .expect("summary exists")
            .groups_recomputed,
        stats.groups_recomputed,
        "insertion must not recompute (MIN/MAX are SMAs w.r.t. insertion)"
    );

    assert!(wh.verify_all(&db).expect("verification runs"));
    println!("\noracle check passed");
}
