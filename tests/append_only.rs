//! The append-only ("old detail data") regime — paper Section 4.
//!
//! When every source table is declared insert-only, only insertions have
//! to be considered, relaxing the CSMA definition: `MIN`/`MAX` become
//! maintainable from deltas alone, the Need-set condition is moot, and
//! the fact auxiliary view can be eliminated far more often — "old detail
//! data can be reduced even further".

use md_core::{derive, regime_of, ChangeRegime};
use md_relation::{row, Catalog, DataType, Database, Schema, TableId, Value};
use md_sql::parse_view;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;

/// A star catalog with every table declared insert-only.
fn insert_only_star() -> (Catalog, TableId, TableId) {
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
    cat.add_foreign_key(sale, 1, product).unwrap();
    cat.set_insert_only(product).unwrap();
    cat.set_insert_only(sale).unwrap();
    (cat, product, sale)
}

const MINMAX_VIEW: &str = "\
CREATE VIEW price_range AS
SELECT product.brand, MIN(price) AS Lo, MAX(price) AS Hi, COUNT(*) AS N
FROM sale, product
WHERE sale.productid = product.id
GROUP BY product.brand";

#[test]
fn regime_detection() {
    let (cat, product, _) = insert_only_star();
    let view = parse_view(MINMAX_VIEW, &cat, "v").unwrap();
    assert_eq!(regime_of(&view, &cat).unwrap(), ChangeRegime::AppendOnly);

    // One general table is enough to fall back to the general regime.
    let general = {
        let mut c = cat.clone();
        c.set_updatable_columns(product, &[1]).unwrap();
        c
    };
    assert_eq!(regime_of(&view, &general).unwrap(), ChangeRegime::General);
}

#[test]
fn min_max_no_longer_blocks_elimination() {
    let (cat, _, sale) = insert_only_star();
    let view = parse_view(MINMAX_VIEW, &cat, "v").unwrap();
    let plan = derive(&view, &cat).unwrap();
    assert_eq!(plan.regime, ChangeRegime::AppendOnly);
    // Under the general regime MIN/MAX force a fact auxiliary view keyed
    // on (productid, price); under append-only the fact view vanishes.
    assert!(plan.root_omitted(), "MIN/MAX must not block elimination");
    assert!(plan.aux_for(sale).is_none());

    // Same view under the general regime for contrast.
    let mut cat2 = Catalog::new();
    let product2 = cat2
        .add_table(
            "product",
            Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
            0,
        )
        .unwrap();
    let sale2 = cat2
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
    cat2.add_foreign_key(sale2, 1, product2).unwrap();
    cat2.set_append_only(product2).unwrap();
    let view2 = parse_view(MINMAX_VIEW, &cat2, "v").unwrap();
    let plan2 = derive(&view2, &cat2).unwrap();
    assert!(!plan2.root_omitted());
}

#[test]
fn distinct_still_blocks_elimination_when_append_only() {
    let (cat, _, sale) = insert_only_star();
    let view = parse_view(
        "CREATE VIEW brands AS \
         SELECT sale.productid, COUNT(DISTINCT price) AS DistinctPrices, COUNT(*) AS N \
         FROM sale GROUP BY sale.productid",
        &cat,
        "v",
    )
    .unwrap();
    let plan = derive(&view, &cat).unwrap();
    assert_eq!(plan.regime, ChangeRegime::AppendOnly);
    assert!(!plan.root_omitted());
    // The DISTINCT argument stays raw in the auxiliary view.
    let aux = plan.aux_for(sale).unwrap();
    assert!(aux.group_col_of_source(2).is_some());
}

#[test]
fn append_only_maintenance_of_min_max_without_any_fact_detail() {
    let (cat, product, sale) = insert_only_star();
    let mut db = Database::new(cat.clone());
    db.insert(product, row![1, "acme"]).unwrap();
    db.insert(product, row![2, "zeta"]).unwrap();
    for (id, p, price) in [(10, 1, 5.0), (11, 1, 7.0), (12, 2, 3.0)] {
        db.insert(sale, row![id, p, price]).unwrap();
    }

    let mut wh = Warehouse::new(&cat);
    wh.add_summary_sql(MINMAX_VIEW, &db).unwrap();
    assert!(wh.plan("price_range").unwrap().root_omitted());
    assert!(wh.verify_all(&db).unwrap());
    assert_eq!(wh.total_detail_bytes() / 4, {
        // Only productDTL (id, brand) × 2 rows = 4 fields remain.
        4
    });

    // New extremes on both ends, plus a brand-new group — all maintained
    // from deltas + the dimension auxiliary view alone.
    let changes = [
        db.insert(sale, row![13, 1, 0.5]).unwrap(),
        db.insert(sale, row![14, 1, 99.0]).unwrap(),
        db.insert(product, row![3, "kilo"]).unwrap(),
    ];
    wh.apply_batch(&ChangeBatch::single(sale, changes[..2].to_vec()))
        .unwrap();
    wh.apply_batch(&ChangeBatch::single(product, changes[2..].to_vec()))
        .unwrap();
    let c = db.insert(sale, row![15, 3, 1.0]).unwrap();
    wh.apply_batch(&ChangeBatch::single(sale, vec![c])).unwrap();
    assert!(wh.verify_all(&db).unwrap());
    let rows = wh.summary_rows("price_range").unwrap();
    assert!(rows.contains(&row!["acme", 0.5, 99.0, 4]));
    assert!(rows.contains(&row!["kilo", 1.0, 1.0, 1]));

    // Zero groups were recomputed and zero rebuilds happened: pure
    // incremental maintenance (the paper's "simplify and speed up").
    let stats = wh.stats("price_range").unwrap();
    assert_eq!(stats.groups_recomputed, 0);
    assert_eq!(stats.summary_rebuilds, 0);

    // "Without any fact detail" covers the summary's own state: with no
    // deletion to answer, MIN and MAX each count their extremum alone —
    // one (brand, value, count) tuple per group, however many prices sold.
    let report = wh.storage_report("price_range").unwrap();
    let counts = report.iter().find(|l| l.name == "value counts").unwrap();
    assert_eq!(counts.rows, 2 * rows.len() as u64);

    // Grouped by brand, not by product key: the source-free audit has no
    // pinned dimension chain to hold the groups against, and says so by
    // finding nothing — not by failing to resolve one.
    for (name, report) in wh.audit() {
        assert!(report.is_clean(), "'{name}': {:?}", report.findings);
    }
}

#[test]
fn sources_reject_non_insert_changes() {
    let (cat, product, sale) = insert_only_star();
    let mut db = Database::new(cat);
    db.insert(product, row![1, "acme"]).unwrap();
    db.insert(sale, row![10, 1, 5.0]).unwrap();
    assert!(db.delete(sale, &Value::Int(10)).is_err());
    assert!(db.update(product, &Value::Int(1), row![1, "x"]).is_err());
}

#[test]
fn engine_rejects_contract_violations() {
    let (cat, product, sale) = insert_only_star();
    let mut db = Database::new(cat.clone());
    db.insert(product, row![1, "acme"]).unwrap();
    db.insert(sale, row![10, 1, 5.0]).unwrap();
    let mut wh = Warehouse::new(&cat);
    wh.add_summary_sql(MINMAX_VIEW, &db).unwrap();
    // Hand-craft a delete that the (simulated) source could never emit.
    let bogus = md_relation::Change::Delete(row![10, 1, 5.0]);
    let err = wh
        .apply_batch(&ChangeBatch::single(sale, vec![bogus]))
        .unwrap_err();
    assert!(err.to_string().contains("append-only"));
}
