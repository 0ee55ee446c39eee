//! Snowflake schemas and auxiliary-view elimination.
//!
//! Uses the normalized `sale → product → category` chain to show two
//! things the paper's extended join graph buys:
//!
//! 1. `Need₀` descends through the snowflake to find the minimal table set
//!    whose group-by attributes form a combined key of the view, and
//! 2. when the view groups by the keys of the fact table's direct
//!    dimensions, Algorithm 3.2 **eliminates the fact auxiliary view
//!    entirely** — the paper's "omit the typically huge fact table".
//!
//! Run with: `cargo run --example snowflake_categories`

use md_relation::Value;
use md_warehouse::ChangeBatch;
use md_warehouse::{parse_view, Warehouse};
use md_workload::{generate_snowflake, SnowflakeParams};

fn main() {
    let (mut db, schema) = generate_snowflake(SnowflakeParams::tiny());
    let catalog = db.catalog().clone();
    let mut wh = Warehouse::new(&catalog);

    // A category-level rollup: Need0 must pull in product AND category.
    let by_category = "\
CREATE VIEW by_category AS
SELECT category.name, SUM(price) AS Revenue, COUNT(*) AS Sales
FROM sale, product, category
WHERE sale.productid = product.id AND product.categoryid = category.id
GROUP BY category.name";
    wh.add_summary_sql(by_category, &db)
        .expect("view registers");
    println!("{}", wh.explain("by_category").expect("summary exists"));

    // A product-keyed rollup: the fact auxiliary view is eliminated.
    let by_product = "\
CREATE VIEW by_product AS
SELECT product.id AS productid, SUM(price) AS Revenue, COUNT(*) AS Sales
FROM sale, product
WHERE sale.productid = product.id
GROUP BY product.id";
    let view = parse_view(by_product, &catalog, "by_product").expect("parses");
    wh.add_summary(view, &db).expect("view registers");
    println!("{}", wh.explain("by_product").expect("summary exists"));
    assert!(
        wh.plan("by_product")
            .expect("summary exists")
            .root_omitted(),
        "grouping on the dimension key eliminates the fact auxiliary view"
    );

    // Maintenance works in both regimes.
    let next_sale = db
        .table(schema.sale)
        .rows()
        .map(|r| r[0].as_int().unwrap())
        .max()
        .unwrap()
        + 1;
    let change = db
        .insert(schema.sale, md_relation::row![next_sale, 1, 1, 12.5])
        .expect("fresh id");
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![change]))
        .expect("maintenance succeeds");

    let change = db
        .delete(schema.sale, &Value::Int(next_sale))
        .expect("exists");
    wh.apply_batch(&ChangeBatch::single(schema.sale, vec![change]))
        .expect("maintenance succeeds");

    assert!(wh.verify_all(&db).expect("verification runs"));
    println!("both summaries verified after fact inserts/deletes");

    println!("\nby_category contents:");
    for row in wh.summary_rows("by_category").expect("summary exists") {
        println!("  {row}");
    }
}
