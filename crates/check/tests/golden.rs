//! Golden-file tests: every stable diagnostic code is exercised by at
//! least one corpus file, and the rendered report plus its JSON form are
//! pinned byte-for-byte.
//!
//! Each `tests/golden/NAME.sql` holds one GPSJ statement; the filename
//! prefix selects the catalog it is checked against:
//!
//! * `retail_`  — the retail star schema with pessimistic contracts
//!   (every non-key column updatable), so exposure lints fire;
//! * `tight_`   — the same schema under tight contracts (`time`
//!   append-only, single updatable column per table);
//! * `toy_`     — small purpose-built catalogs (multipath, cycle,
//!   missing foreign keys) defined below.
//!
//! The expected rendered output lives next to the input as
//! `NAME.expected`, the expected JSON as `NAME.json`. Re-bless after an
//! intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p md-check --test golden
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use md_check::{check_file, Code};
use md_relation::{Catalog, DataType, Schema};
use md_workload::{retail_catalog, Contracts};

/// Two paths from `order` to `customer`: directly and through `shipment`.
fn toy_multipath() -> Catalog {
    let mut cat = Catalog::new();
    let customer = cat
        .add_table(
            "customer",
            Schema::from_pairs(&[("id", DataType::Int), ("region", DataType::Str)]),
            0,
        )
        .unwrap();
    let shipment = cat
        .add_table(
            "shipment",
            Schema::from_pairs(&[("id", DataType::Int), ("customerid", DataType::Int)]),
            0,
        )
        .unwrap();
    let orders = cat
        .add_table(
            "orders",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("customerid", DataType::Int),
                ("shipmentid", DataType::Int),
                ("amount", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(orders, 1, customer).unwrap();
    cat.add_foreign_key(orders, 2, shipment).unwrap();
    cat.add_foreign_key(shipment, 1, customer).unwrap();
    cat
}

/// Mutually referencing tables: joining both directions forms a cycle.
fn toy_cycle() -> Catalog {
    let mut cat = Catalog::new();
    let a = cat
        .add_table(
            "alpha",
            Schema::from_pairs(&[("id", DataType::Int), ("betaid", DataType::Int)]),
            0,
        )
        .unwrap();
    let b = cat
        .add_table(
            "beta",
            Schema::from_pairs(&[("id", DataType::Int), ("alphaid", DataType::Int)]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(a, 1, b).unwrap();
    cat.add_foreign_key(b, 1, a).unwrap();
    cat
}

/// A key join with no declared referential integrity.
fn toy_nofk() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        "event",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("deviceid", DataType::Int),
            ("value", DataType::Double),
        ]),
        0,
    )
    .unwrap();
    cat.add_table(
        "device",
        Schema::from_pairs(&[("id", DataType::Int), ("site", DataType::Str)]),
        0,
    )
    .unwrap();
    cat
}

fn catalog_for(stem: &str) -> Catalog {
    if stem.starts_with("retail_") {
        retail_catalog(Contracts::Default).0
    } else if stem.starts_with("tight_") {
        retail_catalog(Contracts::Tight).0
    } else if stem.starts_with("toy_multipath") {
        toy_multipath()
    } else if stem.starts_with("toy_cycle") {
        toy_cycle()
    } else if stem.starts_with("toy_nofk") {
        toy_nofk()
    } else {
        panic!("golden file '{stem}' has no catalog prefix (retail_/tight_/toy_*)");
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn compare(path: &Path, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "golden mismatch for {}; re-bless with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn golden_corpus() {
    let dir = golden_dir();
    let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "no golden cases in {}", dir.display());

    let mut seen_codes = BTreeSet::new();
    for case in &cases {
        let stem = case.file_stem().unwrap().to_str().unwrap().to_owned();
        let sql = fs::read_to_string(case).unwrap();
        let sql = sql.trim_end().trim_end_matches(';');
        let catalog = catalog_for(&stem);
        let origin = format!("{stem}.sql");

        // Byte-identical across runs.
        let report = check_file(&origin, sql, &catalog);
        let again = check_file(&origin, sql, &catalog);
        assert_eq!(report.render(), again.render(), "{stem}: nondeterministic");
        assert_eq!(
            report.to_json(),
            again.to_json(),
            "{stem}: nondeterministic"
        );

        for d in report.diagnostics() {
            seen_codes.insert(d.code);
        }
        compare(&case.with_extension("expected"), &report.render());
        compare(&case.with_extension("json"), &report.to_json());
    }

    // Every stable code must be pinned by at least one golden case.
    let missing: Vec<&str> = Code::ALL
        .iter()
        .filter(|c| !seen_codes.contains(*c))
        .map(|c| c.as_str())
        .collect();
    assert!(
        missing.is_empty(),
        "codes with no golden coverage: {missing:?}"
    );
}

#[test]
fn clean_views_stay_clean() {
    // The workload's canonical views never regress to error level against
    // the tight retail catalog.
    let (catalog, _) = retail_catalog(Contracts::Tight);
    for sql in [
        md_workload::views::PRODUCT_SALES_SQL,
        md_workload::views::PRODUCT_SALES_MAX_SQL,
        md_workload::views::STORE_REVENUE_SQL,
        md_workload::views::DAILY_PRODUCT_SQL,
        md_workload::views::BRAND_SALES_SQL,
    ] {
        let report = check_file("<workload>", sql, &catalog);
        assert!(!report.has_errors(), "{}", report.render());
    }
}
