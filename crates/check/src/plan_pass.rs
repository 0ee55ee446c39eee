//! Pass 6 — plan-audit lints (`MD040`, `MD041`).
//!
//! Runs Algorithm 3.2 (`md_core::derive`) on the (error-free) view and
//! audits the resulting [`DerivedPlan`]: auxiliary views that are
//! materialized only because of exposed updates (a tighter update contract
//! would eliminate them), and a root auxiliary view that degenerates to a
//! plain PSJ view because the root's key is preserved (smart duplicate
//! compression, Algorithm 3.1, never fires).

use std::collections::BTreeSet;

use md_algebra::{GpsjView, SelectItem};
use md_core::aggregates::{self, ChangeRegime};
use md_core::join_graph::ExtendedJoinGraph;
use md_core::need::in_need_of_another;
use md_core::{derive, exposure};
use md_relation::{Catalog, TableId};
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
    let Ok(plan) = derive::derive(view, catalog) else {
        return;
    };

    // MD040: materialized auxiliary views that a tighter update contract
    // would eliminate. Re-run the Algorithm 3.2 elimination test with
    // exposure ignored (referential integrity still required): if the table
    // passes, only the contract stands between it and omission.
    for entry in &plan.aux {
        let table = entry.table();
        let Some(aux) = entry.as_materialized() else {
            continue;
        };
        let depends_ignoring_exposure = depends_on_all_via_fk(&plan.graph, catalog, table);
        let needed_by_other = match plan.regime {
            ChangeRegime::General => in_need_of_another(&plan.graph, table),
            ChangeRegime::AppendOnly => false,
        };
        let non_csmas = aggregates::blocking_non_csmas_columns(view, table, plan.regime);
        let currently_blocked_by_exposure =
            !md_core::join_graph::transitively_depends_on_all(view, catalog, &plan.graph, table)
                .unwrap_or(true);
        if depends_ignoring_exposure
            && currently_blocked_by_exposure
            && !needed_by_other
            && non_csmas.is_empty()
        {
            let exposed = exposed_table_summary(view, catalog, &plan.graph);
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
                    "elimination fails only because of exposed updates on {exposed}"
                ))
                .with_help(
                    "declare the affected tables append-only (or restrict their updatable \
                     columns) and re-register the view",
                ),
            );
        }
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

/// Transitive dependence with exposure ignored: every edge with declared
/// referential integrity counts as a dependency edge.
fn depends_on_all_via_fk(graph: &ExtendedJoinGraph, catalog: &Catalog, table: TableId) -> bool {
    let mut reached = BTreeSet::new();
    let mut stack = vec![table];
    while let Some(t) = stack.pop() {
        if reached.insert(t) {
            for e in graph.children(t) {
                if catalog.foreign_key(e.from, e.fk_col, e.to).is_some() {
                    stack.push(e.to);
                }
            }
        }
    }
    reached.len() == graph.tables().len()
}

/// `"'time' (year)"`-style listing of the exposed tables and columns, in
/// table order.
fn exposed_table_summary(view: &GpsjView, catalog: &Catalog, graph: &ExtendedJoinGraph) -> String {
    let mut parts = Vec::new();
    for &t in graph.tables() {
        let Ok(cols) = exposure::exposed_columns(view, catalog, t) else {
            continue;
        };
        if cols.is_empty() {
            continue;
        }
        let Ok(def) = catalog.def(t) else { continue };
        let names: Vec<&str> = cols
            .iter()
            .map(|&c| def.schema.column(c).name.as_str())
            .collect();
        parts.push(format!("'{}' ({})", def.name, names.join(", ")));
    }
    if parts.is_empty() {
        "no table".to_owned()
    } else {
        parts.join(", ")
    }
}
