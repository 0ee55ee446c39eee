//! Pass 5 — exposure analysis (`MD034`).
//!
//! Paper Section 2.1: a table has *exposed updates* when its update
//! contract allows changes to attributes used in selection or join
//! conditions. Exposure disables join reductions against the table
//! (Section 2.2) and is the usual reason auxiliary views stay larger than
//! the paper's minimum — so each exposed column is reported at the
//! condition that exposes it.

use md_algebra::GpsjView;
use md_core::exposed_columns;
use md_relation::Catalog;
use md_sql::ParsedView;

use crate::diag::{CheckReport, Code, Diagnostic};
use crate::translate::cond_span;

pub(crate) fn run(
    report: &mut CheckReport,
    parsed: &ParsedView,
    view: &GpsjView,
    catalog: &Catalog,
) {
    for &table in &view.tables {
        let Ok(exposed) = exposed_columns(view, catalog, table) else {
            continue;
        };
        let Ok(def) = catalog.def(table) else {
            continue;
        };
        for col in exposed {
            // The first condition mentioning the exposed column is the
            // exposure site (view conditions parallel the parsed ones).
            let site = view.conditions.iter().position(|c| {
                c.columns()
                    .iter()
                    .any(|r| r.table == table && r.column == col)
            });
            let col_name = &def.schema.column(col).name;
            report.push(
                Diagnostic::new(
                    Code::Md034,
                    format!(
                        "updates to '{}.{col_name}' are exposed through this condition",
                        def.name
                    ),
                )
                .with_span(site.and_then(|i| cond_span(parsed, i)))
                .with_label(format!(
                    "'{col_name}' is updatable under the table's contract"
                ))
                .with_note(format!(
                    "exposed updates disable join reductions against '{}' (Section 2.2), \
                     keeping its auxiliary view and its parents' larger",
                    def.name
                ))
                .with_help(format!(
                    "tighten the contract (set_updatable_columns / set_append_only) if the \
                     source never updates '{}.{col_name}'",
                    def.name
                )),
            );
        }
    }
}
