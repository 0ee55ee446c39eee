//! Pass 6 — plan-audit lints (`MD040`, `MD041`).
//!
//! Runs Algorithm 3.2 (`md_core::derive`) on the (error-free) view and
//! reads the resulting [`DerivedPlan`]'s record of why each auxiliary view
//! is kept — nothing is re-derived here: an auxiliary view whose only
//! blockers are referentially sound edges into tables with exposed updates
//! (a tighter update contract would eliminate it), and a root auxiliary
//! view that degenerates to a plain PSJ view because the root's key is
//! preserved (smart duplicate compression, Algorithm 3.1, never fires).
//!
//! [`DerivedPlan`]: md_core::DerivedPlan

use md_algebra::{GpsjView, SelectItem};
use md_core::{derive, AuxEntry, Blocker, EdgeBlock};
use md_relation::Catalog;
use md_sql::ParsedView;

use crate::diag::{CheckReport, Code, Diagnostic};
use crate::translate::{select_span, statement_span, table_span};

pub(crate) fn run(
    report: &mut CheckReport,
    parsed: &ParsedView,
    view: &GpsjView,
    catalog: &Catalog,
) {
    // Earlier passes guarantee derivation succeeds; bail quietly otherwise
    // (the defect was already reported or is a catalog inconsistency).
    let Ok(plan) = derive(view, catalog) else {
        return;
    };

    // MD040: materialized auxiliary views that a tighter update contract
    // would eliminate — every recorded blocker is an edge with declared
    // referential integrity whose target has exposed updates. (A
    // dimension is never one: it is not the root.)
    'entries: for entry in &plan.aux {
        let AuxEntry::Materialized { def: aux, blockers } = entry else {
            continue;
        };
        let mut exposed = Vec::new();
        for blocker in blockers {
            let Blocker::Edge(
                edge,
                EdgeBlock {
                    ri_declared: true,
                    exposed: cols,
                },
            ) = blocker
            else {
                continue 'entries;
            };
            // Every table of a derived plan is in the catalog.
            let Ok(def) = catalog.def(edge.to) else {
                continue 'entries;
            };
            let names: Vec<&str> = (cols.iter())
                .map(|&c| def.schema.column(c).name.as_str())
                .collect();
            exposed.push(format!("'{}' ({})", def.name, names.join(", ")));
        }
        let table = aux.table;
        let def_name = catalog
            .def(table)
            .map(|d| d.name.clone())
            .unwrap_or_default();
        report.push(
            Diagnostic::new(
                Code::Md040,
                format!(
                    "auxiliary view '{}' for '{def_name}' could be omitted under a \
                     tighter update contract",
                    aux.name
                ),
            )
            .with_span(table_span(parsed, view, table))
            .with_label(format!(
                "materialized at {} bytes per row",
                aux.paper_row_bytes()
            ))
            .with_note(format!(
                "elimination fails only because of exposed updates on {}",
                exposed.join(", ")
            ))
            .with_help(
                "declare the affected tables append-only (or restrict their updatable \
                 columns) and re-register the view",
            ),
        );
    }

    // MD041: the root auxiliary view keeps every detail row when the root's
    // key is preserved — smart duplicate compression cannot fire.
    let root = plan.graph.root();
    if let Some(aux) = plan.aux_for(root) {
        if aux.is_degenerate_psj() {
            let root_name = catalog
                .def(root)
                .map(|d| d.name.clone())
                .unwrap_or_default();
            let key_col = catalog.def(root).map(|d| d.key_col).unwrap_or(0);
            let key_item = view.select.iter().position(|it| {
                matches!(it, SelectItem::GroupBy { col, .. }
                    if col.table == root && col.column == key_col)
            });
            let span = key_item
                .and_then(|i| select_span(parsed, i))
                .or_else(|| statement_span(parsed));
            report.push(
                Diagnostic::new(
                    Code::Md041,
                    format!(
                        "the auxiliary view '{}' for root '{root_name}' degenerates to a \
                         PSJ view",
                        aux.name
                    ),
                )
                .with_span(span)
                .with_label("the root table's key is preserved, so every detail row is kept")
                .with_note(
                    "smart duplicate compression (Algorithm 3.1) only compresses when the \
                     key is projected away",
                ),
            );
        }
    }
}
