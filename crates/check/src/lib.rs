//! # `md-check` — a compiler-style static analyzer for GPSJ views
//!
//! The paper's guarantees (the unique minimal self-maintainable `{V} ∪ X`,
//! Theorem 1) only hold when the preconditions of Sections 2–5 are met:
//! key/foreign-key join trees, declared referential integrity, no exposed
//! updates on reduced tables, CSMAS-only folding. This crate checks a view
//! definition against a [`Catalog`] *at registration time* and reports
//! every violation — and every forgone minimization — as a structured
//! diagnostic with a stable code (`MD001`–`MD050`), a severity, and a
//! source span into the SQL text, rendered rustc-style or as JSON.
//!
//! The analyzer rejects nothing itself. Whether a definition is inside the
//! GPSJ class is decided by the code registration runs — `md_sql::parse`
//! and `resolve` (names), `GpsjView::validate` (shape and types),
//! `ExtendedJoinGraph::build` (the join tree) — each once, each returning
//! the kind of defect and its site in the view's own terms; `translate`
//! maps kind to code and site to span. In order (an error ends the run):
//!
//! 1. **Front end** (`MD001`/`MD002`) — `md_sql::parse`.
//! 2. **Definition** (`MD010`–`MD016`, `MD020`) — `md_sql::resolve`.
//! 3. **Join graph** (`MD021`–`MD023`) — `ExtendedJoinGraph::build`; on
//!    the built graph, the edges its Section 2.2 classification found
//!    without declared referential integrity (`MD033`).
//! 4. **Aggregates** (`MD024`, `MD030`–`MD032`, `MD050`) — Tables 1–2
//!    classification under the view's change regime.
//! 5. **Exposure** (`MD034`) — Section 2.1 exposed updates.
//! 6. **Plan audit** (`MD040`/`MD041`) — a read of the derived plan's
//!    record: an auxiliary view whose only recorded blockers are edges
//!    into tables with exposed updates (a tighter contract would omit it),
//!    a root auxiliary view that degenerates to PSJ. Nothing in md-check
//!    re-evaluates the depends relation or the elimination test.
//!
//! ```
//! use md_check::check_sql;
//! use md_relation::{Catalog, DataType, Schema};
//!
//! let mut cat = Catalog::new();
//! cat.add_table(
//!     "sale",
//!     Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Double)]),
//!     0,
//! )
//! .unwrap();
//! let report = check_sql("SELECT sale.nope FROM sale", &cat);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].code.as_str(), "MD012");
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod agg_pass;
mod diag;
mod exposure_pass;
mod json;
mod plan_pass;
mod render;
mod translate;

pub use diag::{CheckReport, Code, Diagnostic, Severity};
pub use md_sql::Span;

use md_algebra::GpsjView;
use md_core::{Dependence, EdgeBlock, ExtendedJoinGraph};
use md_relation::Catalog;
use md_sql::ParsedView;

/// Checks one SQL statement. Never fails: every problem, from a stray
/// character to a suboptimal plan, becomes a diagnostic in the report.
pub fn check_sql(sql: &str, catalog: &Catalog) -> CheckReport {
    check_file("<sql>", sql, catalog)
}

/// Checks one SQL statement read from `origin` (a file name, shown in the
/// rendered `-->` location lines).
pub fn check_file(origin: &str, sql: &str, catalog: &Catalog) -> CheckReport {
    let mut report = CheckReport::new(origin, Some(sql.to_owned()));
    let parsed = match md_sql::parse(sql) {
        Ok(p) => p,
        Err(e) => {
            translate::sql_error(&mut report, sql, None, catalog, e);
            return report;
        }
    };
    report.set_view(parsed.name.clone());
    let view = match md_sql::resolve(&parsed, catalog, origin) {
        Ok(v) => v,
        Err(e) => {
            translate::sql_error(&mut report, sql, Some(&parsed), catalog, e);
            return report;
        }
    };
    match ExtendedJoinGraph::build(&view, catalog) {
        Ok(graph) => missing_foreign_keys(&mut report, &parsed, &view, &graph, catalog),
        Err(e) => {
            translate::core_error(&mut report, &parsed, &view, catalog, e);
            return report;
        }
    }

    agg_pass::run(&mut report, &parsed, &view, catalog);
    exposure_pass::run(&mut report, &parsed, &view, catalog);
    if !report.has_errors() {
        plan_pass::run(&mut report, &parsed, &view, catalog);
    }
    report
}

/// Checks an already-constructed [`GpsjView`] by rendering it back to SQL
/// (`md_sql::view_to_sql`) and checking the rendered text, so spans point
/// into the canonical SQL form of the view.
pub fn check_view(view: &GpsjView, catalog: &Catalog) -> CheckReport {
    let origin = format!("<view {}>", view.name);
    match md_sql::view_to_sql(view, catalog) {
        Ok(sql) => check_file(&origin, &sql, catalog),
        Err(e) => {
            let mut report = CheckReport::new(origin, None);
            report.set_view(Some(view.name.clone()));
            report.push(Diagnostic::new(
                Code::Md015,
                format!("view cannot be rendered against this catalog: {e}"),
            ));
            report
        }
    }
}

/// `MD033`: an edge without declared referential integrity can never
/// become a dependency edge (Section 2.2), so it blocks every join
/// reduction along it.
fn missing_foreign_keys(
    report: &mut CheckReport,
    parsed: &ParsedView,
    view: &GpsjView,
    graph: &ExtendedJoinGraph,
    catalog: &Catalog,
) {
    for (e, dependence) in graph.classified_edges() {
        let Dependence::Blocked(EdgeBlock {
            ri_declared: false, ..
        }) = dependence
        else {
            continue;
        };
        let from = md_algebra::ColRef::new(e.from, e.fk_col).display(catalog);
        let to = translate::table_name(catalog, e.to);
        report.push(
            Diagnostic::new(
                Code::Md033,
                format!("join from {from} to {to} has no declared foreign key"),
            )
            .with_span(translate::edge_span(parsed, view, e))
            .with_note(
                "without referential integrity this edge is never a dependency \
                 (Section 2.2), so auxiliary views on this path cannot be reduced or omitted",
            )
            .with_help("declare the foreign key in the catalog (Catalog::add_foreign_key)"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::{DataType, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let time = cat
            .add_table(
                "time",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("month", DataType::Int),
                    ("year", DataType::Int),
                ]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, time).unwrap();
        cat
    }

    #[test]
    fn clean_view_passes() {
        let cat = catalog();
        let report = check_sql(
            "SELECT time.month, SUM(sale.price) AS total, COUNT(*) AS n \
             FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month",
            &cat,
        );
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn lex_and_parse_errors_have_codes() {
        let cat = catalog();
        assert_eq!(
            check_sql("SELECT @ FROM sale", &cat).diagnostics()[0].code,
            Code::Md001
        );
        assert_eq!(
            check_sql("SELECT FROM sale", &cat).diagnostics()[0].code,
            Code::Md002
        );
    }

    #[test]
    fn resolution_errors_are_fatal_to_later_passes() {
        let cat = catalog();
        let report = check_sql("SELECT nope.x, COUNT(*) AS n FROM nope", &cat);
        assert!(report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| d.code == Code::Md010 || d.code == Code::Md012));
    }

    #[test]
    fn non_key_join_is_md020() {
        let cat = catalog();
        let report = check_sql(
            "SELECT COUNT(*) AS n FROM sale, time WHERE sale.timeid = time.month",
            &cat,
        );
        assert!(report.diagnostics().iter().any(|d| d.code == Code::Md020));
    }

    #[test]
    fn check_view_round_trips_through_sql() {
        let cat = catalog();
        let view = md_sql::parse_view(
            "CREATE VIEW v AS SELECT time.month, COUNT(*) AS n \
             FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month",
            &cat,
            "v",
        )
        .unwrap();
        let report = check_view(&view, &cat);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.view_name(), Some("v"));
        assert_eq!(report.origin(), "<view v>");
    }

    #[test]
    fn reports_are_deterministic() {
        let cat = catalog();
        let sql = "SELECT time.month, MIN(sale.price) AS m FROM sale, time \
                   WHERE sale.timeid = time.id AND time.year = 1997 GROUP BY time.month";
        let a = check_sql(sql, &cat);
        let b = check_sql(sql, &cat);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
    }
}
