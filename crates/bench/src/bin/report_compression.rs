//! E4 / E6 — smart duplicate compression on the paper's own instances.
//!
//! Reproduces Table 3 (the sale auxiliary view after adding `COUNT(*)`)
//! and Table 4 (after the full compression), and the Section 3.2
//! `product_sales_max` example with its `SUM(price · SaleCount)`
//! reconstruction.

use md_bench::TableWriter;
use md_core::derive;
use md_maintain::{AuxStore, MaintenanceEngine};
use md_relation::{Database, Row};
use md_sql::aux_view_to_sql;
use md_workload::paper::{table3_sale_rows, table4_expected};
use md_workload::retail::{retail_catalog, Contracts};
use md_workload::views;

fn print_rows(headers: &[&str], rows: &[Row]) {
    let mut t = TableWriter::new(headers);
    for r in rows {
        let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
        t.row(&cells);
    }
    println!("{}", t.render());
}

fn main() {
    let (cat, schema) = retail_catalog(Contracts::Tight);

    // ------------------------------------------------------------- E4 --
    println!("== E4: Tables 3 and 4 — smart duplicate compression ==\n");
    println!("raw sale rows (id, timeid, productid, storeid, price):");
    print_rows(
        &["id", "timeid", "productid", "storeid", "price"],
        &table3_sale_rows(),
    );

    // Table 3: group by (timeid, productid, price) with COUNT(*) — the
    // auxiliary view of product_sales_max *extended to two group columns*;
    // in the paper this is the intermediate step before SUM replacement.
    println!("Table 3 — after local reduction + COUNT(*), before SUM replacement:");
    {
        // Build the intermediate form directly: group on raw price.
        use md_core::{AuxColKind, AuxColumn, AuxViewDef};
        let def = AuxViewDef {
            table: schema.sale,
            name: "sale_intermediate".into(),
            columns: vec![
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 1 },
                    name: "timeid".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 2 },
                    name: "productid".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 4 },
                    name: "price".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Count,
                    name: "cnt".into(),
                },
            ],
            local_conditions: vec![],
            semijoins: vec![],
        };
        let mut store = AuxStore::new(def, &cat).expect("store builds");
        for r in table3_sale_rows() {
            store
                .apply_source_run(&store.group_key_of(&r), [(1, &r)])
                .expect("rows apply");
        }
        print_rows(
            &["timeid", "productid", "price", "COUNT(*)"],
            &store.materialized_rows(),
        );
    }

    println!("Table 4 — after smart duplicate compression (SUM(price), COUNT(*)):");
    let view = views::product_sales(&cat).expect("view resolves");
    let plan = derive(&view, &cat).expect("plan derives");
    let def = plan
        .aux_for(schema.sale)
        .expect("saleDTL materialized")
        .clone();
    let mut store = AuxStore::new(def, &cat).expect("store builds");
    for r in table3_sale_rows() {
        store
            .apply_source_run(&store.group_key_of(&r), [(1, &r)])
            .expect("rows apply");
    }
    let rows = store.materialized_rows();
    print_rows(&["timeid", "productid", "SUM(price)", "COUNT(*)"], &rows);
    assert_eq!(rows, table4_expected(), "must match the paper's Table 4");
    println!("matches the paper's Table 4 instance exactly.\n");

    // ------------------------------------------------------------- E6 --
    println!("== E6: Section 3.2 — product_sales_max ==\n");
    let view = views::product_sales_max(&cat).expect("view resolves");
    let plan = derive(&view, &cat).expect("plan derives");
    println!("derived auxiliary view (price stays raw, COUNT(*) added):\n");
    println!(
        "{}\n",
        aux_view_to_sql(&plan, schema.sale, &cat)
            .expect("renders")
            .expect("materialized")
    );
    println!(
        "reconstruction of SUM uses the multiplication rule: {}",
        match plan.reconstruction.as_ref().expect("root kept").items[2] {
            md_core::ReconItem::Sum(md_core::SumSource::Raw { .. }) =>
                "SUM(price * SaleCount)  — as printed in the paper",
            _ => "unexpected plan shape!",
        }
    );

    // Run it on the Table 3 instance and show the view contents.
    let mut db = Database::new(cat.clone());
    db.set_enforce_ri(false);
    for r in table3_sale_rows() {
        db.insert(schema.sale, r).expect("rows load");
    }
    let mut engine = MaintenanceEngine::new(plan, &cat).expect("engine builds");
    engine.initial_load(&db).expect("loads");
    println!("\nproduct_sales_max over the Table 3 instance:");
    let bag = engine.summary_bag().expect("summary reads");
    let rows: Vec<Row> = bag.sorted_rows().into_iter().map(|(r, _)| r).collect();
    print_rows(
        &["productid", "MaxPrice", "TotalPrice", "TotalCount"],
        &rows,
    );
    assert!(engine.verify_against(&db).expect("verifies"));
    println!("verified against recomputation.");
}
