//! SQL-to-maintenance pipeline tests: everything a user can write in the
//! GPSJ SQL subset must flow through parse → resolve → derive → maintain,
//! and view definitions must round-trip through the pretty-printer.

#[path = "view_zoo.rs"]
mod zoo;

use md_sql::{parse_view, view_to_sql};
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, retail_catalog, sale_changes, Contracts, RetailParams, UpdateMix,
};
use zoo::view_zoo;

#[test]
fn zoo_views_round_trip_through_sql() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    for sql in view_zoo() {
        let v1 = parse_view(sql, &cat, "q").unwrap();
        let printed = view_to_sql(&v1, &cat).unwrap();
        let v2 = parse_view(&printed, &cat, "q")
            .unwrap_or_else(|e| panic!("re-parse of {printed:?} failed: {e}"));
        assert_eq!(v1, v2, "round-trip mismatch for {sql}");
    }
}

#[test]
fn zoo_views_register_and_self_maintain() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    for sql in view_zoo() {
        wh.add_summary_sql(sql, &db)
            .unwrap_or_else(|e| panic!("registering {sql} failed: {e}"));
    }
    assert!(wh.verify_all(&db).unwrap());
    for batch in 0..4 {
        let changes = sale_changes(&mut db, &schema, 60, UpdateMix::balanced(), 40 + batch);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
            .unwrap();
        assert!(wh.verify_all(&db).unwrap(), "diverged at batch {batch}");
    }
}

#[test]
fn sql_errors_are_reported_not_panicked() {
    let (cat, _) = retail_catalog(Contracts::Tight);
    for bad in [
        "SELECT",                                      // truncated
        "SELECT x FROM",                               // truncated
        "SELECT price FROM sale",                      // not grouped
        "SELECT sale.price FROM sale GROUP BY nope",   // unknown column
        "SELECT COUNT(*) FROM nope",                   // unknown table
        "SELECT SUM(product.brand) AS s FROM product", // SUM over strings
        "SELECT COUNT(*) FROM sale, sale",             // self-join
        "SELECT COUNT(*) FROM sale WHERE price = 'x'", // type mismatch
    ] {
        assert!(
            parse_view(bad, &cat, "q").is_err(),
            "expected an error for {bad:?}"
        );
    }
}

#[test]
fn ill_typed_column_comparisons_are_definition_errors() {
    // VARCHAR = INT between two columns used to register (an empty summary
    // that verified) or to fail the load; it is refused before any load,
    // by a message that names the condition, at the span the analyzer shows.
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    for (cond, message) in [
        (
            "product.brand = time.id",
            "cannot compare product.brand (VARCHAR) with time.id (INT)",
        ),
        (
            "product.category = product.id",
            "cannot compare product.category (VARCHAR) with product.id (INT)",
        ),
    ] {
        let sql = format!(
            "CREATE VIEW bad AS SELECT product.category, COUNT(*) AS n \
             FROM sale, product, time WHERE sale.productid = product.id \
             AND sale.timeid = time.id AND {cond} GROUP BY product.category"
        );
        let e = wh.add_summary_sql(&sql, &db).unwrap_err().to_string();
        assert_eq!(e, format!("invalid GPSJ view 'bad': {message}"));
        let report = md_check::check_sql(&sql, db.catalog());
        let d = &report.diagnostics()[0];
        let span = d.span.unwrap();
        assert_eq!((d.code.as_str(), d.message.as_str()), ("MD015", message));
        assert_eq!(&sql[span.start..span.end], cond);
    }
    assert!(wh.explain("bad").is_err());
}

#[test]
fn explain_contains_renderable_sql_for_every_zoo_view() {
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    let mut names = Vec::new();
    for sql in view_zoo() {
        names.push(wh.add_summary_sql(sql, &db).unwrap());
    }
    for name in names {
        let text = wh.explain(&name).unwrap();
        assert!(text.contains("extended join graph"), "{name}");
    }
}
