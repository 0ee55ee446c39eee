//! The analyzer says what registration says — by enumeration, not by
//! sampling. Every statement of the golden corpus, of `examples/sql/` and
//! of the SQL pipeline's view zoo, and every single-token mutation of each
//! (a token deleted, duplicated, swapped with its neighbour, an identifier
//! replaced by another identifier of the statement), is registered the way
//! `add_summary_sql` does it (`parse_view`, then `derive`) and analyzed
//! (`check_file`), and the two must agree:
//!
//! * `parse_view` fails ⇔ the report has an error in `MD001`–`MD020`
//!   (front end, names, shape and types), and then its first diagnostic's
//!   message is the one registration prints;
//! * `derive` fails on the resolved view ⇔ the report has an error at all
//!   (`MD021`–`MD024`: the join tree, superfluous aggregates);
//! * every span lies inside the statement, on character boundaries, and
//!   neither rendering panics.

mod common;
#[path = "../../../tests/view_zoo.rs"]
mod zoo;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use md_check::{check_file, Code, Severity};
use md_relation::Catalog;
use md_sql::token::{tokenize, TokenKind};
use md_workload::{retail_catalog, Contracts};

/// Registers and analyzes one statement; panics on any disagreement.
fn agree(sql: &str, catalog: &Catalog) {
    let report = check_file("case.sql", sql, catalog);
    let definition_errors: Vec<_> = (report.diagnostics().iter())
        .filter(|d| d.severity == Severity::Error && d.code <= Code::Md020)
        .collect();
    match md_sql::parse_view(sql, catalog, "case.sql") {
        Err(e) => {
            assert!(
                !definition_errors.is_empty(),
                "registration refuses {sql:?} ({e}), the analyzer does not:\n{}",
                report.render()
            );
            let first = &report.diagnostics()[0].message;
            assert!(
                e.to_string().ends_with(first.as_str()),
                "{sql:?}: registration says {e:?}, the analyzer {first:?}"
            );
        }
        Ok(view) => {
            assert!(
                definition_errors.is_empty(),
                "registration resolves {sql:?}, the analyzer refuses it:\n{}",
                report.render()
            );
            let derived = md_core::derive(&view, catalog);
            assert_eq!(
                derived.is_err(),
                report.has_errors(),
                "{sql:?}: derive gives {:?}, the analyzer\n{}",
                derived.err(),
                report.render()
            );
        }
    }
    for d in report.diagnostics() {
        if let Some(span) = d.span {
            assert!(
                span.start <= span.end
                    && span.end <= sql.len()
                    && sql.is_char_boundary(span.start)
                    && sql.is_char_boundary(span.end),
                "{sql:?}: {} spans {span:?}",
                d.code.as_str()
            );
        }
    }
    let _ = (report.render(), report.to_json());
}

/// Every single-token mutation of `sql` (none when it does not lex).
fn mutations(sql: &str) -> BTreeSet<String> {
    let tokens = tokenize(sql).unwrap_or_default();
    let text = |i: usize| &sql[tokens[i].offset..tokens[i].end];
    // `sql` with the bytes `from..to` replaced.
    let splice = |from: usize, to: usize, with: &str| [&sql[..from], with, &sql[to..]].concat();
    let idents: BTreeSet<&str> = (0..tokens.len())
        .filter(|&i| matches!(tokens[i].kind, TokenKind::Ident(_)))
        .map(text)
        .collect();
    let mut out = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        out.insert(splice(t.offset, t.end, ""));
        out.insert(splice(t.end, t.end, &format!(" {}", text(i))));
        if let Some(next) = tokens.get(i + 1) {
            let swapped = [text(i + 1), &sql[t.end..next.offset], text(i)].concat();
            out.insert(splice(t.offset, next.end, &swapped));
        }
        if matches!(t.kind, TokenKind::Ident(_)) {
            for other in idents.iter().filter(|o| **o != text(i)) {
                out.insert(splice(t.offset, t.end, other));
            }
        }
    }
    out.remove(sql);
    out
}

#[test]
fn the_analyzer_and_registration_agree_on_every_mutated_statement() {
    let (tight, _) = retail_catalog(Contracts::Tight);
    let mut corpus: Vec<(String, Catalog)> = (common::golden_cases().into_iter())
        .map(|(_, sql, catalog)| (sql, catalog))
        .collect();
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sql");
    let mut files: Vec<_> = (fs::read_dir(&examples).unwrap())
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for file in files {
        corpus.push((common::statement(&file), tight.clone()));
    }
    corpus.extend(
        zoo::view_zoo()
            .into_iter()
            .map(|sql| (sql.to_owned(), tight.clone())),
    );
    // Text outside ASCII: inside a literal, ending an unterminated one,
    // and where no token can start.
    for sql in [
        "SELECT product.brand, COUNT(*) AS n FROM product WHERE brand = 'Café' GROUP BY brand",
        "SELECT COUNT(*) AS n FROM product WHERE product.brand = 'Café",
        "SELECT é FROM sale",
    ] {
        corpus.push((sql.to_owned(), tight.clone()));
    }

    let mut mutated = 0;
    for (sql, catalog) in &corpus {
        agree(sql, catalog);
        for m in mutations(sql) {
            agree(&m, catalog);
            mutated += 1;
        }
    }
    assert!(mutated >= 1000, "only {mutated} mutated statements");
}
