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
//!   neither rendering panics;
//! * `MD040`'s claim holds by re-derivation: for every materialized entry
//!   it names, removing the exposed columns of the tables its note names
//!   from their update contracts (nothing else) omits the entry, and
//!   leaving any one of them untightened keeps it; for every entry it
//!   does not name, removing every table's exposed columns keeps it. The
//!   same runs over `md_workload::fuzz::random_setup` views, seeds
//!   0..200.

mod common;
#[path = "../../../tests/view_zoo.rs"]
mod zoo;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use md_algebra::GpsjView;
use md_check::{check_file, check_view, CheckReport, Code, Severity};
use md_core::DerivedPlan;
use md_relation::{Catalog, TableId};
use md_sql::token::{tokenize, TokenKind};
use md_workload::{retail_catalog, Contracts};

/// Registers and analyzes one statement; panics on any disagreement.
/// Returns how many entries `MD040` named.
fn agree(sql: &str, catalog: &Catalog) -> usize {
    let report = check_file("case.sql", sql, catalog);
    let definition_errors: Vec<_> = (report.diagnostics().iter())
        .filter(|d| d.severity == Severity::Error && d.code <= Code::Md020)
        .collect();
    let mut md040 = 0;
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
                derived.as_ref().err(),
                report.render()
            );
            if let Ok(plan) = &derived {
                md040 = md040_holds_by_rederivation(&report, &view, catalog, plan);
            }
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
    md040
}

/// `catalog` with the exposed columns of `tables` (with respect to
/// `view`) removed from their update contracts, and nothing else changed.
fn tightened(view: &GpsjView, catalog: &Catalog, tables: &[TableId]) -> Catalog {
    let mut out = catalog.clone();
    for &t in tables {
        let exposed = md_core::exposed_columns(view, catalog, t).unwrap();
        let def = catalog.def(t).unwrap();
        assert!(!exposed.is_empty() && !def.insert_only);
        let keep: Vec<usize> = (def.updatable_columns.difference(&exposed))
            .copied()
            .collect();
        out.set_updatable_columns(t, &keep).unwrap();
    }
    out
}

/// Checks `MD040` in `report` against re-derivations of `view` under
/// tightened contracts (see the module docs); returns how many entries it
/// named.
fn md040_holds_by_rederivation(
    report: &CheckReport,
    view: &GpsjView,
    catalog: &Catalog,
    plan: &DerivedPlan,
) -> usize {
    let keeps = |cat: &Catalog, table: TableId| {
        let plan = md_core::derive(view, cat).expect("a contract change keeps the view derivable");
        plan.aux_for(table).is_some()
    };
    let name = |t: TableId| catalog.def(t).unwrap().name.clone();
    let exposed_anywhere: Vec<TableId> = (view.tables.iter().copied())
        .filter(|&t| {
            !md_core::exposed_columns(view, catalog, t)
                .unwrap()
                .is_empty()
        })
        .collect();
    let md040: Vec<_> = (report.diagnostics().iter())
        .filter(|d| d.code == Code::Md040)
        .collect();
    let mut named_entries = 0;
    for aux in plan.materialized() {
        let header = format!("auxiliary view '{}' for '{}' ", aux.name, name(aux.table));
        let Some(d) = md040.iter().find(|d| d.message.starts_with(&header)) else {
            assert!(
                keeps(&tightened(view, catalog, &exposed_anywhere), aux.table),
                "{}: no MD040, yet tightening every contract omits it:\n{}",
                aux.name,
                report.render()
            );
            continue;
        };
        named_entries += 1;
        let note = &d.notes[0];
        let named: Vec<TableId> = (view.tables.iter().copied())
            .filter(|&t| note.contains(&format!("'{}' (", name(t))))
            .collect();
        assert!(!named.is_empty(), "{note:?} names no table");
        assert!(
            !keeps(&tightened(view, catalog, &named), aux.table),
            "{}: MD040 says {note:?}, but tightening those tables keeps it",
            aux.name
        );
        for &left in &named {
            let others: Vec<TableId> = named.iter().copied().filter(|&t| t != left).collect();
            assert!(
                keeps(&tightened(view, catalog, &others), aux.table),
                "{}: MD040 says {note:?}, but '{}' need not be tightened",
                aux.name,
                name(left)
            );
        }
    }
    assert_eq!(named_entries, md040.len(), "{}", report.render());
    named_entries
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
    let mut md040 = 0;
    for (sql, catalog) in &corpus {
        md040 += agree(sql, catalog);
        for m in mutations(sql) {
            md040 += agree(&m, catalog);
            mutated += 1;
        }
    }
    assert!(mutated >= 1000, "only {mutated} mutated statements");
    assert!(md040 > 0, "MD040 never fired");
}

#[test]
fn md040_holds_by_rederivation_over_fuzz_views() {
    let mut md040 = 0;
    for seed in 0..200 {
        let setup = md_workload::random_setup(seed);
        let report = check_view(&setup.view, &setup.catalog);
        if let Ok(plan) = md_core::derive(&setup.view, &setup.catalog) {
            md040 += md040_holds_by_rederivation(&report, &setup.view, &setup.catalog, &plan);
        }
    }
    assert!(md040 > 0, "MD040 never fired over 200 seeds");
}
