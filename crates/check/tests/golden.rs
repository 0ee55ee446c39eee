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

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use common::golden_cases;
use md_check::{check_file, Code};
use md_workload::{retail_catalog, Contracts};

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
    let mut seen_codes = BTreeSet::new();
    for (case, sql, catalog) in golden_cases() {
        let stem = case.file_stem().unwrap().to_str().unwrap().to_owned();
        let (case, sql) = (&case, sql.as_str());
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
