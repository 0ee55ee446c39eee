//! One store per definition: a warehouse that holds each distinct
//! auxiliary view once, for every summary that reads it, must leave each
//! summary exactly where a warehouse holding that summary alone leaves it —
//! rows and image — through dimension changes, injected faults,
//! quarantine, repair and recovery.

use std::collections::HashSet;

use proptest::prelude::*;

use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
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

/// A view rooted at one of `view`'s dimensions that keeps what `view`'s
/// store of it keeps: grouped by its retained columns but the key, with
/// the key's distinct count, under its local conditions — so that one
/// store is one summary's root and the other's dimension. None when no
/// dimension store of `view` is free of semijoins.
fn rooted_at_a_dimension(view: &GpsjView, catalog: &Catalog) -> Option<GpsjView> {
    let plan = derive(view, catalog).ok()?;
    let root = plan.graph.root();
    let def = (plan.materialized()).find(|def| def.table != root && def.semijoins.is_empty())?;
    let key = catalog.def(def.table).ok()?.key_col;
    let col = |c| ColRef::new(def.table, c);
    let kept = def.group_source_cols().into_iter().filter(|&c| c != key);
    let mut select: Vec<SelectItem> = kept
        .map(|c| SelectItem::group_by(col(c), format!("c{c}")))
        .collect();
    let keys = Aggregate {
        func: AggFunc::Count,
        arg: Some(col(key)),
        distinct: true,
    };
    select.push(SelectItem::agg(keys, "keys"));
    let conditions = def.local_conditions.clone();
    Some(GpsjView::new(
        "fuzz_dimension_root",
        vec![def.table],
        select,
        conditions,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// The view, the same view with other aggregates, the same shape
    /// under another dimension filter, and a view rooted at one of its
    /// dimensions that may share that store, held together over random batches
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
        views.extend(rooted_at_a_dimension(&setup.view, &setup.catalog));
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

/// `brand_sales` grouped by `product.id` too: its root store is omitted,
/// so its own root LSN is the one position it keeps, and it shares
/// `productDTL(id, brand)` — which the renames change — with
/// `brand_sales`, which keeps `saleDTL`.
const PRODUCT_BRAND_SQL: &str = "\
CREATE VIEW product_brand AS
SELECT product.id AS productid, product.brand, SUM(price) AS Revenue, COUNT(*) AS N
FROM sale, product WHERE sale.productid = product.id
GROUP BY product.id, product.brand";

/// A sibling that keeps its root store and a summary sharing stores with
/// it, by name and SQL, and how many stores they share.
type Siblings = ([(&'static str, &'static str); 2], usize);

/// `brand_sales` and `brand_avg`: both keep their root, over one pair of
/// stores.
const BRAND_AVG: Siblings = (
    [
        ("brand_sales", views::BRAND_SALES_SQL),
        ("brand_avg", BRAND_AVG_SQL),
    ],
    2,
);

/// `brand_sales` and `product_brand`, which omits its root store.
const PRODUCT_BRAND: Siblings = (
    [
        ("brand_sales", views::BRAND_SALES_SQL),
        ("product_brand", PRODUCT_BRAND_SQL),
    ],
    1,
);

/// The two summaries of `siblings` over shared stores, the second
/// quarantined by a fault in the second of six batches, and each summary
/// alone fed the same six batches. Returns the shared warehouse with its
/// image saved after the fourth batch, the log, and the two lone ones.
fn quarantined_sibling(siblings: Siblings) -> (Database, Warehouse, Vec<u8>, [Warehouse; 2]) {
    let ([(sibling, _), (quarantined, _)], shared) = siblings;
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    let mut wh = Warehouse::builder()
        .quarantine(true)
        .fault_plan(faults.clone())
        .build(db.catalog());
    let mut alone = siblings.0.map(|(_, sql)| {
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
    assert_eq!(wh.shared_detail_report().len(), shared);

    let mut image = Vec::new();
    for b in 0..6 {
        let batch = batch(&mut db, &schema, b);
        if b == 1 {
            faults.arm(&format!("engine.apply.change@{quarantined}"), 0);
        }
        wh.apply_batch(&batch).unwrap();
        for solo in &mut alone {
            solo.apply_batch(&batch).unwrap();
        }
        assert_eq!(wh.is_quarantined(quarantined), b >= 1, "batch {b}");
        // The sibling kept committing, and the stores with it.
        same_summary(&wh, &alone[0], sibling).unwrap();
        if b == 3 {
            image = wh.save().unwrap();
        }
    }
    (db, wh, image, alone)
}

#[test]
fn a_quarantined_subscriber_is_repaired_from_the_shared_store_while_its_sibling_kept_committing() {
    let (db, mut wh, _, alone) = quarantined_sibling(BRAND_AVG);
    let report = wh.repair("brand_avg").unwrap();
    // Its rebuild from the stores took in every batch: none is replayed.
    assert_eq!((report.replayed_groups, report.dead_lettered), (0, 0));
    for (name, solo) in ["brand_sales", "brand_avg"].into_iter().zip(&alone) {
        same_summary(&wh, solo, name).unwrap();
    }
    assert!(wh.audit().iter().all(|(_, r)| r.is_clean()));
    assert!(wh.verify_all(&db).unwrap());
}

/// The image holds the quarantined summary as its repair would have left
/// it; the log's last two batches — sale frames 5 and 6, product frame 3
/// — reach the stores once, both summaries with them. `product_brand`
/// keeps no root store: its image holds the sale batch before its
/// quarantine alone, so sale frames 2–4 are replayed into it and nothing
/// else, and the product frames its store holds into neither.
#[test]
fn recovery_from_an_image_saved_in_quarantine_reaches_each_store_once() {
    for (siblings, replayed) in [(BRAND_AVG, 3), (PRODUCT_BRAND, 6)] {
        let names = siblings.0.map(|(name, _)| name);
        let (db, wh, image, alone) = quarantined_sibling(siblings);
        let log = wh.wal_bytes().unwrap();
        let recovered = Warehouse::builder()
            .recover(db.catalog(), &image, log)
            .unwrap();
        let frames = recovered.obs().counter("recovery.frames_replayed", &[]);
        assert_eq!(frames.get(), replayed, "{}", names[1]);
        assert!(recovered.dead_letters().is_empty());
        assert_eq!(recovered.quarantined().count(), 0);
        for (name, solo) in names.into_iter().zip(&alone) {
            same_summary(&recovered, solo, name).unwrap();
        }
        assert!(recovered.audit().iter().all(|(_, r)| r.is_clean()));
        assert!(recovered.verify_all(&db).unwrap());
        assert_eq!(
            recovered.total_detail_bytes(),
            alone[0].total_detail_bytes()
        );
    }
}

/// `product` as the root of a view that keeps its keys and brands, as
/// `product_sales` keeps them for its dimension.
const BRANDS_SQL: &str = "\
CREATE VIEW brands AS
SELECT product.brand, COUNT(DISTINCT product.id) AS Products
FROM product GROUP BY product.brand";

/// One summary reads `productDTL(id, brand)` as its root, another as a
/// dimension: the store is held once (464 detail bytes, 544 while a role
/// made two stores of it), folds each product group once for both, and
/// saves, restores and recovers to the live image byte for byte.
#[test]
fn a_store_read_as_a_root_and_as_a_dimension_is_held_once() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    for sql in [BRANDS_SQL, views::PRODUCT_SALES_SQL] {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    assert_eq!(wh.total_detail_bytes(), 464);
    let shared = wh.shared_detail_report();
    assert_eq!(shared.len(), 1);
    assert_eq!(shared[0].aux_name, "productDTL");
    assert_eq!(shared[0].summaries, ["brands", "product_sales"]);

    let genesis = wh.save().unwrap();
    for b in 0..6 {
        wh.apply_batch(&batch(&mut db, &schema, b)).unwrap();
        assert!(wh.verify_all(&db).unwrap(), "batch {b}");
    }
    assert!(wh.audit().iter().all(|(_, r)| r.is_clean()));
    let image = wh.save().unwrap();
    let restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();
    assert_eq!(restored.save().unwrap(), image);
    let log = wh.wal_bytes().unwrap();
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &genesis, log)
        .unwrap();
    assert!(recovered.dead_letters().is_empty());
    assert_eq!(recovered.save().unwrap(), image);
    assert!(recovered.verify_all(&db).unwrap());
}
