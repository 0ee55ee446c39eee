//! One store per definition: a warehouse that holds each distinct
//! auxiliary view once, for every summary that reads it, must leave each
//! summary exactly where a warehouse holding that summary alone leaves it —
//! rows and image — through dimension changes, injected faults,
//! quarantine, repair and recovery.

use std::collections::HashSet;

use proptest::prelude::*;

use md_algebra::{Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
use md_core::derive;
use md_maintain::{StoreRegistry, SummaryEngine};
use md_relation::{Catalog, Database, Decoder, Value};
use md_sql::parse_view;
use md_warehouse::{ChangeBatch, FaultPlan, Warehouse};
use md_workload::{
    generate_retail, product_brand_changes, random_setup, sale_changes, views, Contracts,
    RetailParams, RetailSchema, UpdateMix,
};

/// Summary `name` of warehouse image `image` as a standalone engine image:
/// the image restored, then that summary saved with every store it reads.
fn section(catalog: &Catalog, image: &[u8], name: &str) -> Vec<u8> {
    let mut d = Decoder::new(image);
    d.take_str().unwrap();
    for _ in 0..d.take_u32().unwrap() {
        d.take_u32().unwrap();
        d.take_u64().unwrap();
    }
    let mut registry = StoreRegistry::new(catalog);
    for _ in 0..d.take_u32().unwrap() {
        let found = d.take_str().unwrap();
        let view = parse_view(&d.take_str().unwrap(), catalog, &found).unwrap();
        let plan = derive(&view, catalog).unwrap();
        let bytes = d.take_bytes().unwrap();
        let engine = SummaryEngine::restore(plan, catalog, bytes, &mut registry).unwrap();
        if found == name {
            return engine.snapshot(&registry, &mut HashSet::new()).unwrap();
        }
    }
    panic!("no summary '{name}' in the image");
}

/// `wh`'s summary `name` equals `alone`'s: rows and image.
fn same_summary(wh: &Warehouse, alone: &Warehouse, name: &str) -> Result<(), String> {
    let (rows, solo_rows) = (wh.summary_rows(name), alone.summary_rows(name));
    if rows.as_ref().ok() != solo_rows.as_ref().ok() {
        return Err(format!("'{name}': rows differ from the summary alone"));
    }
    let (image, solo) = (wh.save().unwrap(), alone.save().unwrap());
    if section(wh.catalog(), &image, name) != section(alone.catalog(), &solo, name) {
        return Err(format!("'{name}': image differs from the summary alone"));
    }
    Ok(())
}

/// `view` under another name with only `COUNT(*)` for its aggregates.
fn other_aggregates(view: &GpsjView) -> GpsjView {
    let mut select: Vec<SelectItem> = view
        .select
        .iter()
        .filter(|s| matches!(s, SelectItem::GroupBy { .. }))
        .cloned()
        .collect();
    select.push(SelectItem::agg(Aggregate::count_star(), "n_other"));
    GpsjView::new(
        "fuzz_other_aggs",
        view.tables.clone(),
        select,
        view.conditions.clone(),
    )
}

/// `view` under another name, with one more condition on the key of one
/// of its dimensions.
fn filtered(view: &GpsjView, fact: md_relation::TableId) -> Option<GpsjView> {
    let dim = *view.tables.iter().find(|t| **t != fact)?;
    let mut filtered = view.clone();
    filtered.name = "fuzz_filtered".into();
    let keep = Condition::cmp_lit(ColRef::new(dim, 0), CmpOp::Ne, Value::Int(1));
    filtered.conditions.push(keep);
    Some(filtered)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// The view, the same view with other aggregates, and the same shape
    /// under another dimension filter, held together over random batches
    /// — fact and dimension changes — while one of them faults now and
    /// then: after every batch each healthy summary is where it would be
    /// alone, and after its repair so is the faulted one.
    #[test]
    fn summaries_sharing_stores_equal_each_summary_alone(
        seed in 0u64..10_000,
        batches in 3usize..8,
        victim in 0usize..3,
        fault_every in 2usize..4,
    ) {
        let mut setup = random_setup(seed);
        let mut faults = FaultPlan::recording();
        let mut wh = Warehouse::builder()
            .quarantine(true)
            .fault_plan(faults.clone())
            .build(&setup.catalog);
        let mut views = vec![setup.view.clone(), other_aggregates(&setup.view)];
        views.extend(filtered(&setup.view, setup.fact));
        let mut alone: Vec<(String, Warehouse)> = Vec::new();
        for view in views {
            let mut solo = Warehouse::new(&setup.catalog);
            // A variant the derivation refuses is left out of both.
            if solo.add_summary(view.clone(), &setup.db).is_ok() {
                wh.add_summary(view.clone(), &setup.db).unwrap();
                alone.push((view.name.clone(), solo));
            }
        }
        let dims: Vec<_> = setup.view.tables.iter().copied().filter(|t| *t != setup.fact).collect();

        for b in 0..batches {
            let mut batch = ChangeBatch::new();
            let mut tables = vec![setup.fact];
            if !dims.is_empty() {
                tables.insert(0, dims[b % dims.len()]);
                tables.push(dims[(b + 1) % dims.len()]);
            }
            for table in tables {
                for _ in 0..3 {
                    if let Some(change) = setup.random_change(table) {
                        batch.push(table, change);
                    }
                }
            }
            let victim = &alone[victim % alone.len()].0;
            if b % fault_every == 1 {
                faults.arm(&format!("engine.apply.change@{victim}"), 0);
            }
            wh.apply_batch(&batch).unwrap();
            for (_, solo) in &mut alone {
                solo.apply_batch(&batch).unwrap();
            }
            // Repair every other batch, so that a quarantine spans batches
            // its siblings and the stores commit.
            if b % 2 == 1 {
                for (name, repaired) in wh.repair_all() {
                    prop_assert!(repaired.is_ok(), "seed {seed}: repair of '{name}': {repaired:?}");
                }
            }
            for (name, solo) in &alone {
                if !wh.is_quarantined(name) {
                    let same = same_summary(&wh, solo, name);
                    prop_assert!(same.is_ok(), "seed {seed}, batch {b}: {same:?}");
                }
            }
        }
        for (name, repaired) in wh.repair_all() {
            prop_assert!(repaired.is_ok(), "seed {seed}: repair of '{name}': {repaired:?}");
        }
        for (name, solo) in &alone {
            let same = same_summary(&wh, solo, name);
            prop_assert!(same.is_ok(), "seed {seed}: {same:?}");
        }
        prop_assert!(wh.verify_all(&setup.db).unwrap(), "seed {seed}");
        prop_assert!(wh.dead_letters().is_empty(), "seed {seed}");
    }
}

/// `brand_avg` reads exactly the stores `brand_sales` reads: `saleDTL`
/// by product and `productDTL` by id and brand.
const BRAND_AVG_SQL: &str = "\
CREATE VIEW brand_avg AS
SELECT product.brand, AVG(price) AS AvgTicket, COUNT(*) AS Sales
FROM sale, product WHERE sale.productid = product.id
GROUP BY product.brand";

/// Batch `b` of the pinned cases: sales, and every other batch two brand
/// renames through the shared `productDTL`.
fn batch(db: &mut Database, schema: &RetailSchema, b: u64) -> ChangeBatch {
    let mut batch = ChangeBatch::single(
        schema.sale,
        sale_changes(db, schema, 8, UpdateMix::balanced(), 300 + b),
    );
    if b % 2 == 1 {
        batch.extend(
            schema.product,
            product_brand_changes(db, schema, 2, 400 + b),
        );
    }
    batch
}

/// `brand_sales` and `brand_avg` over one pair of stores, `brand_avg`
/// quarantined by a fault in the second of six batches, and each summary
/// alone fed the same six batches. Returns the shared warehouse with its
/// image saved after the fourth batch, the log, and the two lone ones.
fn quarantined_sibling() -> (Database, Warehouse, Vec<u8>, [Warehouse; 2]) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    let mut alone = [views::BRAND_SALES_SQL, BRAND_AVG_SQL].map(|sql| {
        let mut solo = Warehouse::new(db.catalog());
        solo.add_summary_sql(sql, &db).unwrap();
        wh.add_summary_sql(sql, &db).unwrap();
        solo
    });
    let before = wh.total_detail_bytes();
    assert_eq!(
        before,
        alone[0].total_detail_bytes(),
        "one copy of each store"
    );
    assert_eq!(wh.shared_detail_report().len(), 2);

    let mut image = Vec::new();
    for b in 0..6 {
        let batch = batch(&mut db, &schema, b);
        if b == 1 {
            faults.arm("engine.apply.change@brand_avg", 0);
        }
        wh.apply_batch(&batch).unwrap();
        for solo in &mut alone {
            solo.apply_batch(&batch).unwrap();
        }
        assert_eq!(wh.is_quarantined("brand_avg"), b >= 1, "batch {b}");
        // The sibling kept committing, and the stores with it.
        same_summary(&wh, &alone[0], "brand_sales").unwrap();
        if b == 3 {
            image = wh.save().unwrap();
        }
    }
    (db, wh, image, alone)
}

#[test]
fn a_quarantined_subscriber_is_repaired_from_the_shared_store_while_its_sibling_kept_committing() {
    let (db, mut wh, _, alone) = quarantined_sibling();
    let report = wh.repair("brand_avg").unwrap();
    // Its rebuild from the stores took in every batch: none is replayed.
    assert_eq!((report.replayed_groups, report.dead_lettered), (0, 0));
    for (name, solo) in ["brand_sales", "brand_avg"].into_iter().zip(&alone) {
        same_summary(&wh, solo, name).unwrap();
    }
    assert!(wh.audit().iter().all(|(_, r)| r.is_clean()));
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn recovery_from_an_image_saved_in_quarantine_reaches_each_store_once() {
    let (db, wh, image, alone) = quarantined_sibling();
    // The image holds `brand_avg` as its repair would have left it; the
    // log's last two batches reach the stores once, both summaries with
    // them.
    let log = wh.wal_bytes().unwrap();
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &image, log)
        .unwrap();
    assert!(recovered.dead_letters().is_empty());
    assert_eq!(recovered.quarantined().count(), 0);
    for (name, solo) in ["brand_sales", "brand_avg"].into_iter().zip(&alone) {
        same_summary(&recovered, solo, name).unwrap();
    }
    assert!(recovered.audit().iter().all(|(_, r)| r.is_clean()));
    assert!(recovered.verify_all(&db).unwrap());
    assert_eq!(
        recovered.total_detail_bytes(),
        alone[0].total_detail_bytes()
    );
}
