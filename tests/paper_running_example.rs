//! Exact reproduction of the paper's running example (Sections 1.1 and
//! 3.2): the derived auxiliary views, the Table 3/4 instances, the
//! Figure 2 join graph and the storage arithmetic.

use md_core::{human_bytes, RetailModel};
use md_maintain::{AuxStore, ExactSum};
use md_relation::{Database, Row};
use md_sql::aux_view_to_sql;
use md_warehouse::ChangeBatch;
use md_warehouse::{derive, parse_view, Warehouse};
use md_workload::{
    retail_catalog, table3_expected, table3_sale_rows, table4_expected, views, Contracts,
};

#[test]
fn section_1_1_auxiliary_views_match_the_paper() {
    let (cat, schema) = retail_catalog(Contracts::Tight);
    let view = views::product_sales(&cat).unwrap();
    let plan = derive(&view, &cat).unwrap();

    // timeDTL: SELECT id, month FROM time WHERE year = 1997.
    let time_sql = aux_view_to_sql(&plan, schema.time, &cat).unwrap().unwrap();
    assert_eq!(
        time_sql,
        "CREATE VIEW timeDTL AS\nSELECT id, month\nFROM time\nWHERE time.year = 1997"
    );

    // productDTL: SELECT id, brand FROM product.
    let product_sql = aux_view_to_sql(&plan, schema.product, &cat)
        .unwrap()
        .unwrap();
    assert_eq!(
        product_sql,
        "CREATE VIEW productDTL AS\nSELECT id, brand\nFROM product"
    );

    // saleDTL: compressed and semijoin-reduced against both dimensions.
    let sale_sql = aux_view_to_sql(&plan, schema.sale, &cat).unwrap().unwrap();
    assert_eq!(
        sale_sql,
        "CREATE VIEW saleDTL AS\n\
         SELECT timeid, productid, SUM(price) AS sum_price, COUNT(*) AS cnt\n\
         FROM sale\n\
         WHERE timeid IN (SELECT id FROM timeDTL) \
         AND productid IN (SELECT id FROM productDTL)\n\
         GROUP BY timeid, productid"
    );

    // The store dimension is not referenced: no auxiliary view for it, and
    // storeid is projected away from saleDTL.
    assert!(!sale_sql.contains("storeid"));
}

#[test]
fn figure_2_extended_join_graph() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    let view = views::product_sales(&cat).unwrap();
    let plan = derive(&view, &cat).unwrap();
    assert_eq!(plan.graph.display(&cat), "sale -> product, sale -> time(g)");
}

#[test]
fn tables_3_and_4_duplicate_compression() {
    let (cat, schema) = retail_catalog(Contracts::Tight);
    let sale_dtl = |view| {
        let plan = derive(&view, &cat).unwrap();
        let def = plan.aux_for(schema.sale).unwrap().clone();
        let mut store = AuxStore::new(def, &cat).unwrap();
        for row in table3_sale_rows() {
            let sums: Vec<ExactSum> = (store.def().sum_cols().into_iter())
                .map(|(_, src)| {
                    let mut sum = ExactSum::default();
                    sum.add(&row[src], 1);
                    sum
                })
                .collect();
            store
                .apply_source_run(&store.group_key_of(&row), 1, 0, &sums)
                .unwrap();
        }
        store.materialized_rows()
    };
    // Table 3 — COUNT(*) added, price still raw: the form saleDTL keeps
    // while a non-CSMAS aggregate (here MAX) reads price.
    let raw_price = parse_view(
        "CREATE VIEW daily_max AS SELECT sale.timeid, sale.productid, MAX(price) AS mx, \
         COUNT(*) AS n FROM sale GROUP BY sale.timeid, sale.productid",
        &cat,
        "daily_max",
    )
    .unwrap();
    assert_eq!(sale_dtl(raw_price), table3_expected());
    // Table 4 — price replaced by SUM(price): the paper's product_sales.
    assert_eq!(
        sale_dtl(views::product_sales(&cat).unwrap()),
        table4_expected()
    );
}

#[test]
fn section_1_1_storage_numbers() {
    let m = RetailModel::paper();
    assert_eq!(m.fact_rows(), 13_140_000_000);
    assert_eq!(human_bytes(m.fact_bytes()), "245 GBytes");
    assert_eq!(m.aux_rows_worst_case(), 10_950_000);
    assert_eq!(human_bytes(m.aux_bytes_worst_case()), "167 MBytes");
}

#[test]
fn product_sales_reconstruction_without_base_access() {
    // The paper's claim: product_sales "can now be reconstructed from
    // these three auxiliary views without ever accessing the original
    // fact and dimension tables". Load a warehouse, then move the source
    // database away entirely and read the summary.
    let (mut db, schema) =
        md_workload::generate_retail(md_workload::RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let expected = wh.summary_rows("product_sales").unwrap();

    // Stream a few changes, then drop the sources on the floor.
    let changes =
        md_workload::sale_changes(&mut db, &schema, 50, md_workload::UpdateMix::balanced(), 13);
    for c in &changes {
        wh.apply_batch(&ChangeBatch::single(schema.sale, vec![c.clone()]))
            .unwrap();
    }
    let after: Vec<Row> = wh.summary_rows("product_sales").unwrap();
    drop(db); // sources gone — summary still fully readable & maintained
    assert!(!after.is_empty() || expected.is_empty());
}

#[test]
fn section_3_2_product_sales_max_reconstruction_rule() {
    // SUM(price) over the compressed auxiliary view must use
    // SUM(price · SaleCount), MAX directly — checked by comparing to the
    // oracle over the paper's Table 3 instance.
    let (cat, schema) = retail_catalog(Contracts::Tight);
    let mut db = Database::new(cat.clone());
    db.set_enforce_ri(false);
    for row in table3_sale_rows() {
        db.insert(schema.sale, row).unwrap();
    }
    let mut wh = Warehouse::new(&cat);
    wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
        .unwrap();
    let rows = wh.summary_rows("product_sales_max").unwrap();
    // product 1: prices 10,10,10,20 → MAX 20, SUM 50, COUNT 4
    // product 2: prices 10,10,10   → MAX 10, SUM 30, COUNT 3
    // product 3: prices 20         → MAX 20, SUM 20, COUNT 1
    assert_eq!(
        rows,
        vec![
            md_relation::row![1, 20.0, 50.0, 4],
            md_relation::row![2, 10.0, 30.0, 3],
            md_relation::row![3, 20.0, 20.0, 1],
        ]
    );
    // And the auxiliary view groups on (productid, price) with COUNT(*).
    let plan = wh.plan("product_sales_max").unwrap();
    let aux = plan.aux_for(schema.sale).unwrap();
    assert_eq!(aux.group_source_cols(), vec![2, 4]);
    assert!(aux.count_col().is_some());
    assert!(aux.sum_cols().is_empty());
    assert_eq!(
        aux_view_to_sql(plan, schema.sale, &cat).unwrap().unwrap(),
        "CREATE VIEW saleDTL AS\nSELECT productid, price, COUNT(*) AS cnt\nFROM sale\n\
         GROUP BY productid, price"
    );
}
