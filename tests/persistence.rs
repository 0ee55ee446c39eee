//! Snapshot/restore: the warehouse must survive restarts without touching
//! the sources — after [`md_warehouse::WarehouseBuilder::restore`], summaries read
//! identically and maintenance continues seamlessly.

#[path = "../crates/maintain/tests/common/mod.rs"]
mod common;
#[path = "view_zoo.rs"]
mod zoo;

use common::Solo;
use md_core::derive;
use md_maintain::MaintStats;
use md_sql::parse_view;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, random_setup, sale_changes, views, Contracts, RetailParams, UpdateMix,
};

#[test]
fn warehouse_round_trips_through_an_image() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
        .unwrap();
    wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap(); // root omitted
    let changes = sale_changes(&mut db, &schema, 80, UpdateMix::balanced(), 42);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();

    let image = wh.save().unwrap();
    let restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();

    // Identical contents, source-free; the counters measure this process
    // and start from zero.
    for name in ["product_sales", "product_sales_max", "daily_product"] {
        assert_eq!(
            wh.summary_rows(name).unwrap(),
            restored.summary_rows(name).unwrap(),
            "summary '{name}' diverged across restore"
        );
        assert_eq!(restored.stats(name).unwrap(), MaintStats::default());
        assert_eq!(
            wh.storage_report(name).unwrap(),
            restored.storage_report(name).unwrap()
        );
    }
    assert!(restored.verify_all(&db).unwrap());
}

#[test]
fn maintenance_continues_after_restore() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();

    let image = wh.save().unwrap();
    let mut restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();
    drop(wh); // the original process is gone

    // Stream fresh changes into the restored warehouse, incl. deletions
    // that the restored value counts (brands per month) have to answer.
    for batch in 0..5 {
        let changes = sale_changes(
            &mut db,
            &schema,
            40,
            UpdateMix {
                delete_pct: 30,
                update_pct: 20,
            },
            900 + batch,
        );
        restored
            .apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
            .unwrap();
        assert!(
            restored.verify_all(&db).unwrap(),
            "diverged at batch {batch}"
        );
    }
}

#[test]
fn literals_the_image_spells_out_survive_a_restart() {
    // `save()` stores each definition as the SQL `view_to_sql` prints and
    // `restore`/`recover` re-read it: a quote, a double past 1e15 and a
    // signed zero must come back as the same view (same plan fingerprint).
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    let zoo = zoo::view_zoo();
    let literal_views = &zoo[zoo.len() - 3..];
    for sql in literal_views {
        assert!(["'O''Brien'", "10000000000000000.0", "-0.0"]
            .iter()
            .any(|lit| sql.contains(lit)));
        wh.add_summary_sql(sql, &db).unwrap();
    }
    let changes = sale_changes(&mut db, &schema, 60, UpdateMix::balanced(), 7);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();

    let image = wh.save().unwrap();
    let restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();
    assert_eq!(restored.save().unwrap(), image);
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &image, wh.wal_bytes().unwrap())
        .unwrap();
    assert_eq!(recovered.save().unwrap(), image);
    assert!(restored.verify_all(&db).unwrap());
    for name in ["v9", "v10", "v11"] {
        let view = &restored.plan(name).unwrap().view;
        let report = md_check::check_view(view, db.catalog());
        assert!(!report.has_errors(), "{}", report.render());
    }
}

#[test]
fn fingerprint_rejects_drifted_definitions() {
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let cat = db.catalog().clone();
    let view = parse_view(views::PRODUCT_SALES_SQL, &cat, "v").unwrap();
    let plan = derive(&view, &cat).unwrap();
    let image = Solo::loaded(plan.clone(), &db).snapshot().unwrap();

    // Same catalog, same view → restores.
    assert!(Solo::restore(plan, &cat, &image).is_ok());

    // A different view (extra HAVING) → fingerprint mismatch.
    let other_sql = format!("{}\nHAVING COUNT(*) > 1", views::PRODUCT_SALES_SQL);
    let other = parse_view(&other_sql, &cat, "v").unwrap();
    let other_plan = derive(&other, &cat).unwrap();
    let err = match Solo::restore(other_plan, &cat, &image) {
        Err(e) => e,
        Ok(_) => panic!("drifted definition must be rejected"),
    };
    assert!(err.to_string().contains("fingerprint"));

    // Corruption is detected.
    let mut corrupt = image.clone();
    corrupt.truncate(corrupt.len() / 2);
    let view2 = parse_view(views::PRODUCT_SALES_SQL, &cat, "v").unwrap();
    let plan2 = derive(&view2, &cat).unwrap();
    assert!(Solo::restore(plan2, &cat, &corrupt).is_err());

    // Garbage is rejected on the magic check.
    let view3 = parse_view(views::PRODUCT_SALES_SQL, &cat, "v").unwrap();
    let plan3 = derive(&view3, &cat).unwrap();
    assert!(Solo::restore(plan3, &cat, b"nonsense").is_err());
}

#[test]
fn random_universes_round_trip() {
    for seed in 0..60u64 {
        let mut setup = random_setup(seed);
        let name = setup.view.name.clone();
        let mut wh = Warehouse::new(&setup.catalog);
        wh.add_summary(setup.view.clone(), &setup.db).unwrap();
        // Some churn before the snapshot.
        for _ in 0..15 {
            let t = setup.random_table();
            if !setup.view.tables.contains(&t) {
                continue;
            }
            if let Some(c) = setup.random_change(t) {
                wh.apply_batch(&ChangeBatch::single(t, vec![c])).unwrap();
            }
        }
        let image = wh.save().unwrap();
        let mut restored = Warehouse::builder()
            .restore(&setup.catalog, &image)
            .unwrap();
        assert_eq!(
            wh.summary_bag(&name).unwrap(),
            restored.summary_bag(&name).unwrap(),
            "seed {seed}"
        );
        // And churn after it.
        for _ in 0..15 {
            let t = setup.random_table();
            if !setup.view.tables.contains(&t) {
                continue;
            }
            if let Some(c) = setup.random_change(t) {
                restored
                    .apply_batch(&ChangeBatch::single(t, vec![c]))
                    .unwrap();
            }
        }
        assert!(
            restored.verify_all(&setup.db).unwrap(),
            "seed {seed}: restored engine diverged under post-restore churn"
        );
    }
}
