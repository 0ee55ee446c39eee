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
//! Passes, in order (earlier failures suppress later passes):
//!
//! 1. **Front end** (`MD001`/`MD002`) — lexing and parsing.
//! 2. **Name resolution** (`MD010`–`MD016`) — tables, columns, aliases,
//!    `GROUP BY` coherence, condition typing.
//! 3. **Join graph** (`MD020`–`MD023`, `MD033`) — Definition 2
//!    well-formedness: key joins, tree shape, referential integrity.
//! 4. **Aggregates** (`MD024`, `MD030`–`MD032`, `MD050`) — Tables 1–2
//!    classification under the view's change regime.
//! 5. **Exposure** (`MD034`) — Section 2.1 exposed updates.
//! 6. **Plan audit** (`MD040`/`MD041`) — Algorithm 3.2 cross-check: what
//!    the derived plan materializes versus what a tighter contract allows.
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
mod graph_pass;
mod json;
mod plan_pass;
mod render;
mod resolve_pass;

pub use diag::{CheckReport, Code, Diagnostic, Severity};
pub use md_sql::Span;

use md_algebra::GpsjView;
use md_relation::Catalog;
use md_sql::SqlError;

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
            report.push(front_end_diagnostic(e));
            return report;
        }
    };
    report.set_view(parsed.name.clone());

    let Some(resolved) = resolve_pass::run(&mut report, &parsed, catalog) else {
        return report;
    };
    if !graph_pass::run(&mut report, &parsed, &resolved, catalog) {
        return report;
    }

    // The passes above mirror every rejection of the resolver, so this
    // succeeds; the fallback keeps the analyzer total if they ever diverge.
    let view = match md_sql::resolve(&parsed, catalog, "view") {
        Ok(v) => v,
        Err(e) => {
            report.push(
                Diagnostic::new(Code::Md015, format!("invalid view definition: {e}"))
                    .with_span(Some(parsed.spans.statement)),
            );
            return report;
        }
    };

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

fn front_end_diagnostic(e: SqlError) -> Diagnostic {
    match e {
        SqlError::Lex { offset, message } => {
            Diagnostic::new(Code::Md001, message).with_span(Some(Span::new(offset, offset + 1)))
        }
        SqlError::Parse { offset, message } => {
            Diagnostic::new(Code::Md002, message).with_span(Some(Span::new(offset, offset + 1)))
        }
        other => Diagnostic::new(Code::Md002, other.to_string()),
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
