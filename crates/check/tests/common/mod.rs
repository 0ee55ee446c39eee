//! What the golden corpus and the agreement test share: the corpus on
//! disk and the catalog each case is checked against.

use std::fs;
use std::path::{Path, PathBuf};

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

pub fn catalog_for(stem: &str) -> Catalog {
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

pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The one statement a `.sql` file holds, its trailing `;` trimmed.
pub fn statement(path: &Path) -> String {
    let sql = fs::read_to_string(path).unwrap();
    sql.trim_end().trim_end_matches(';').to_owned()
}

/// Every `tests/golden/NAME.sql`, sorted: its path, its statement (the
/// trailing `;` trimmed) and its catalog.
pub fn golden_cases() -> Vec<(PathBuf, String, Catalog)> {
    let dir = golden_dir();
    let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "no golden cases in {}", dir.display());
    (cases.into_iter())
        .map(|case| {
            let stem = case.file_stem().unwrap().to_str().unwrap();
            let catalog = catalog_for(stem);
            let sql = statement(&case);
            (case, sql, catalog)
        })
        .collect()
}
