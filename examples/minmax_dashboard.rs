//! Non-CSMAS aggregates in action: the `product_sales_max` view of
//! Section 3.2.
//!
//! `MAX(price)` is *not* completely self-maintainable (Table 1): after the
//! current extremum is deleted, the old value and the change do not say
//! what the new one is — detail data does, never the source. The auxiliary
//! view keeps `price` raw (it feeds the MAX) and reconstructs `SUM(price)`
//! as `SUM(price · SaleCount)` — the paper's multiplication rule; the
//! summary keeps, per product, how many sales each price has, so the next
//! price answers without rescanning the view.
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

    let after = row_of(&wh, productid);
    println!("after delete:  {after}");
    let runner_up = db
        .table(schema.sale)
        .rows()
        .filter(|r| r[2] == Value::Int(productid))
        .map(|r| r[4].clone())
        .max()
        .expect("the product has other sales");
    assert_eq!(after[1], runner_up, "MAX fell back to the next price");
    for line in wh
        .storage_report("product_sales_max")
        .expect("summary exists")
    {
        println!(
            "{:>32}: {} rows, {} paper bytes",
            line.name, line.rows, line.paper_bytes
        );
    }

    // An insertion moves one count too.
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
    assert_eq!(row_of(&wh, productid)[1], Value::Double(999.99));

    assert!(wh.verify_all(&db).expect("verification runs"));
    println!("\noracle check passed");
}
