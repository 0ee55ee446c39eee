//! Property-based tests of the paper's central invariants:
//!
//! * **P1** — the view reconstructed from the auxiliary views equals the
//!   view evaluated from the base tables;
//! * **P2** — after an arbitrary mixed update stream, the incrementally
//!   maintained `{V} ∪ X` equals recomputation;
//! * **P4** — view definitions round-trip through the SQL printer;
//! * **P5** — compression assigns each retained attribute exactly one role;
//! * **P6** — the maintained group states, value counts included, equal
//!   their rebuild from `X` after every batch.

use proptest::prelude::*;

use std::collections::HashMap;

#[path = "../crates/maintain/tests/common/mod.rs"]
mod common;

use common::Solo;
use md_algebra::eval_view;
use md_core::{compress, derive};
use md_maintain::GroupState;
use md_relation::{row, Catalog, Change, DataType, Database, Row, Schema, TableId, Value};
use md_sql::{parse_view, view_to_sql};
use md_warehouse::{ChangeBatch, Warehouse};
use md_workload::{
    generate_retail, product_brand_changes, retail_catalog, sale_changes, views, Contracts,
    RetailParams, UpdateMix,
};

/// The pool of views properties quantify over.
fn view_pool() -> Vec<&'static str> {
    vec![
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
        "CREATE VIEW mixed AS SELECT time.month, MIN(price) AS lo, AVG(price) AS avgp, \
         COUNT(DISTINCT brand) AS brands, COUNT(*) AS n \
         FROM sale, time, product \
         WHERE sale.timeid = time.id AND sale.productid = product.id \
         GROUP BY time.month",
        // COUNT(a) is COUNT(*) by Table 2, so X keeps no `brand`: under
        // tight contracts X_sale goes here and stays in the next view.
        "CREATE VIEW daily_brands AS SELECT time.id AS timeid, product.id AS productid, \
         SUM(price) AS TotalPrice, COUNT(*) AS TotalCount, COUNT(product.brand) AS Brands \
         FROM sale, time, product \
         WHERE sale.timeid = time.id AND sale.productid = product.id \
         GROUP BY time.id, product.id",
        "CREATE VIEW category_count AS SELECT product.category, COUNT(product.brand) AS n, \
         SUM(price) AS s \
         FROM sale, product \
         WHERE sale.productid = product.id \
         GROUP BY product.category",
    ]
}

fn small_params(seed: u64) -> RetailParams {
    RetailParams {
        days: 6,
        stores: 2,
        products: 8,
        products_sold_per_day_per_store: 3,
        transactions_per_product: 2,
        start_year: 1996,
        year_split: 3,
        seed,
    }
}

/// A star small enough that extrema repeat and groups run empty: two
/// months of 1997 and a day of 1996, three products over two brands, four
/// prices. `tight` contracts let the root auxiliary view be eliminated;
/// the default ones expose `time.year` and `time.month` to updates.
fn tiny_star(tight: bool) -> (Database, [TableId; 3]) {
    let mut cat = Catalog::new();
    let int = DataType::Int;
    let time = Schema::from_pairs(&[("id", int), ("month", int), ("year", int)]);
    let time = cat.add_table("time", time, 0).unwrap();
    let product = Schema::from_pairs(&[("id", int), ("brand", DataType::Str)]);
    let product = cat.add_table("product", product, 0).unwrap();
    let sale = Schema::from_pairs(&[
        ("id", int),
        ("timeid", int),
        ("productid", int),
        ("price", DataType::Double),
    ]);
    let sale = cat.add_table("sale", sale, 0).unwrap();
    cat.add_foreign_key(sale, 1, time).unwrap();
    cat.add_foreign_key(sale, 2, product).unwrap();
    if tight {
        cat.set_append_only(time).unwrap();
        cat.set_updatable_columns(product, &[1]).unwrap();
        cat.set_updatable_columns(sale, &[3]).unwrap();
    }
    let mut db = Database::new(cat);
    for (id, month, year) in [(1, 1, 1997), (2, 1, 1997), (3, 2, 1997), (4, 2, 1996)] {
        db.insert(time, row![id, month, year]).unwrap();
    }
    for (id, brand) in [(1, "acme"), (2, "acme"), (3, "zeta")] {
        db.insert(product, row![id, brand]).unwrap();
    }
    (db, [time, product, sale])
}

/// Every `MIN`/`MAX`/`DISTINCT` shape over a root and a dimension
/// attribute, behind a condition a day can cross.
const EXTREMES_SQL: &str = "\
    CREATE VIEW extremes AS \
    SELECT time.month, MAX(price) AS Hi, MIN(price) AS Lo, COUNT(DISTINCT price) AS Prices, \
           SUM(DISTINCT price) AS PriceSum, MAX(brand) AS LastBrand, \
           COUNT(DISTINCT brand) AS Brands, SUM(price) AS Total, COUNT(*) AS N \
    FROM sale, time, product \
    WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id \
    GROUP BY time.month";

/// Grouped by both dimension keys: under tight contracts the root
/// auxiliary view goes, and `brand` is what the group key determines.
const BRAND_BY_KEYS_SQL: &str = "\
    CREATE VIEW brand_by_keys AS \
    SELECT time.id AS timeid, product.id AS productid, MAX(brand) AS Brand, \
           COUNT(DISTINCT brand) AS Brands, SUM(price) AS Total, COUNT(*) AS N \
    FROM sale, time, product \
    WHERE sale.timeid = time.id AND sale.productid = product.id \
    GROUP BY time.id, product.id";

/// Decodes `code` into one source mutation — a sale inserted, deleted,
/// repriced or (default contracts) moved to another day; a brand renamed;
/// a day moved to another month or across the 1997 condition; a product's
/// sales of one day all deleted and one put back — applies it to `db` and
/// files the changes under their table.
fn mutate(
    db: &mut Database,
    [time, product, sale]: [TableId; 3],
    tight: bool,
    code: u32,
    out: &mut Vec<(TableId, Vec<Change>)>,
) {
    let pick = |salt: u32, n: u32| ((code / salt) % n) as i64;
    let price = Value::Double(1.0 + 0.5 * pick(7, 4) as f64);
    let sales: Vec<Row> = db.table(sale).rows().collect();
    let victim = (!sales.is_empty()).then(|| sales[pick(11, sales.len() as u32) as usize].clone());
    let next_id = 1 + sales
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .max()
        .unwrap_or(0);
    let mut file = |table: TableId, change: Change| match out.last_mut() {
        Some((t, changes)) if *t == table => changes.push(change),
        _ => out.push((table, vec![change])),
    };
    let fresh = |id: i64| {
        Row::new(vec![
            Value::Int(id),
            Value::Int(1 + pick(13, 4)),
            Value::Int(1 + pick(17, 3)),
            price.clone(),
        ])
    };
    match (code % 8, victim) {
        (0..=2, _) | (_, None) => file(sale, db.insert(sale, fresh(next_id)).unwrap()),
        (3, Some(v)) => file(sale, db.delete(sale, &v[0]).unwrap()),
        (4, Some(v)) => {
            let mut vals = if tight { v.clone() } else { fresh(0) }.into_values();
            vals[0] = v[0].clone();
            vals[3] = price.clone();
            file(sale, db.update(sale, &v[0], Row::new(vals)).unwrap());
        }
        (5, Some(v)) => {
            // Empty the (day, product) of `v`, then refill it: with one
            // price, the deletes and the insert share a run.
            for r in sales.iter().filter(|r| r[1] == v[1] && r[2] == v[2]) {
                file(sale, db.delete(sale, &r[0]).unwrap());
            }
            let mut vals = v.clone().into_values();
            vals[0] = Value::Int(next_id);
            file(sale, db.insert(sale, Row::new(vals)).unwrap());
        }
        (6, _) => {
            let id = Value::Int(1 + pick(13, 3));
            let brand = ["acme", "zeta", "kilo"][pick(19, 3) as usize];
            let renamed = row![id.as_int().unwrap(), brand];
            if db.table(product).get(&id).as_ref() != Some(&renamed) {
                file(product, db.update(product, &id, renamed).unwrap());
            }
        }
        (_, _) if tight => file(sale, db.insert(sale, fresh(next_id)).unwrap()),
        (_, _) => {
            let id = Value::Int(1 + pick(13, 4));
            let moved = row![id.as_int().unwrap(), 1 + pick(19, 2), 1996 + pick(23, 2)];
            if db.table(time).get(&id).as_ref() != Some(&moved) {
                file(time, db.update(time, &id, moved).unwrap());
            }
        }
    }
}

/// The group states a rebuild of `solo`'s summary from its own `X`
/// leaves — on a copy, whatever the plan shape.
fn rebuilt_from_x(solo: &Solo, cat: &Catalog) -> HashMap<Row, GroupState> {
    let image = solo.snapshot().unwrap();
    let mut copy = Solo::restore(solo.engine.plan().clone(), cat, &image).unwrap();
    copy.rebuild_summary().unwrap();
    let groups = copy.engine.summary().iter();
    groups.map(|(k, s)| (k.clone(), s.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// P1: reconstruction from X ≡ evaluation from the sources.
    #[test]
    fn p1_reconstruction_matches_oracle(seed in 0u64..500, view_idx in 0usize..7) {
        let (db, _) = generate_retail(small_params(seed), Contracts::Tight);
        let cat = db.catalog().clone();
        let view = parse_view(view_pool()[view_idx], &cat, "v").unwrap();
        let plan = derive(&view, &cat).unwrap();
        let mut solo = Solo::loaded(plan, &db);

        // Reconstruct purely from the auxiliary stores.
        solo.rebuild_summary().unwrap();
        let from_aux = solo.engine.summary_bag().unwrap();
        let from_sources = eval_view(&view, &db).unwrap();
        prop_assert_eq!(from_aux, from_sources);
    }

    /// P2: incremental maintenance ≡ recomputation after arbitrary streams.
    #[test]
    fn p2_maintenance_matches_oracle(
        seed in 0u64..500,
        view_idx in 0usize..7,
        n_changes in 1usize..120,
        delete_pct in 0u8..45,
        update_pct in 0u8..45,
        brand_churn in 0usize..3,
    ) {
        let (mut db, schema) = generate_retail(small_params(seed), Contracts::Tight);
        let cat = db.catalog().clone();
        let view = parse_view(view_pool()[view_idx], &cat, "v").unwrap();
        let mut wh = Warehouse::new(&cat);
        wh.add_summary(view.clone(), &db).unwrap();

        let mix = UpdateMix { delete_pct, update_pct };
        let changes = sale_changes(&mut db, &schema, n_changes, mix, seed ^ 0xabcd);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes)).unwrap();
        if brand_churn > 0 && view.tables.contains(&schema.product) {
            let changes = product_brand_changes(&mut db, &schema, brand_churn, seed ^ 0x77);
            wh.apply_batch(&ChangeBatch::single(schema.product, changes)).unwrap();
        }
        prop_assert!(wh.verify_all(&db).unwrap());
    }

    /// P6: after every batch — whole multi-table batches through
    /// `prepare_batch`, so same-key occurrences meet in one run — every
    /// maintained group equals its rebuild from `X`, value counts and all,
    /// and the view equals its recompute from the sources. A count that is
    /// wrong but still yields today's answer fails the first check.
    #[test]
    fn p6_value_counts_equal_their_rebuild_from_x(
        shape in 0usize..3,
        codes in proptest::collection::vec(any::<u32>(), 8..90),
        batch_len in 1usize..12,
    ) {
        let (sql, tight) = [
            (EXTREMES_SQL, false),
            (EXTREMES_SQL, true),
            (BRAND_BY_KEYS_SQL, true),
        ][shape];
        let (mut db, tables) = tiny_star(tight);
        let cat = db.catalog().clone();
        let view = parse_view(sql, &cat, "v").unwrap();
        let plan = derive(&view, &cat).unwrap();
        prop_assert_eq!(plan.root_omitted(), shape == 2);
        let mut solo = Solo::loaded(plan, &db);

        for (b, batch) in codes.chunks(batch_len).enumerate() {
            let mut groups = Vec::new();
            for &code in batch {
                mutate(&mut db, tables, tight, code, &mut groups);
            }
            let refs: Vec<(TableId, &[Change])> =
                groups.iter().map(|(t, c)| (*t, c.as_slice())).collect();
            solo.prepare(&refs).unwrap().commit(&[]);

            prop_assert!(solo.engine.verify_against(&db).unwrap(), "batch {}: {:?}", b, groups);
            prop_assert!(solo.verify_aux_against(&db).unwrap(), "batch {}", b);
            let maintained: HashMap<Row, GroupState> =
                solo.engine.summary().iter().map(|(k, s)| (k.clone(), s.clone())).collect();
            prop_assert_eq!(&maintained, &rebuilt_from_x(&solo, &cat), "batch {}: {:?}", b, groups);
            let audit = solo.audit();
            prop_assert!(audit.is_clean(), "batch {}: {:?}", b, audit.findings);
        }
    }

    /// P4: SQL printing round-trips.
    #[test]
    fn p4_sql_round_trip(view_idx in 0usize..7) {
        let (cat, _) = retail_catalog(Contracts::Tight);
        let v1 = parse_view(view_pool()[view_idx], &cat, "v").unwrap();
        let sql = view_to_sql(&v1, &cat).unwrap();
        let v2 = parse_view(&sql, &cat, "v").unwrap();
        prop_assert_eq!(v1, v2);
    }

    /// P5: compression partitions retained attributes into disjoint roles,
    /// and degenerate views never carry a count.
    #[test]
    fn p5_compression_roles_are_disjoint(view_idx in 0usize..7) {
        let (cat, _) = retail_catalog(Contracts::Tight);
        let view = parse_view(view_pool()[view_idx], &cat, "v").unwrap();
        for &t in &view.tables {
            let spec = compress(&view, &cat, t).unwrap();
            for g in &spec.group_cols {
                prop_assert!(!spec.sum_cols.contains(g), "column {g} has two roles");
            }
            let key = cat.def(t).unwrap().key_col;
            if spec.group_cols.contains(&key) {
                prop_assert!(!spec.include_count);
                prop_assert!(spec.sum_cols.is_empty());
            }
        }
    }
}
