//! Pass 4 — aggregate classification (`MD024`, `MD030`–`MD032`, `MD050`).
//!
//! Applies the paper's Section 3.1 taxonomy (Tables 1 and 2) to every
//! select item: superfluous aggregates are rejected (they would make
//! `derive` fail), non-CSMAS aggregates are flagged with their consequence,
//! and the `AVG → SUM/COUNT` rewrite is surfaced as a note. The change
//! regime matters: under append-only sources (Section 4) `MIN`/`MAX` are
//! insertion-maintainable and stay silent.

use md_algebra::{AggFunc, GpsjView, SelectItem};
use md_core::{find_superfluous, regime_of, ChangeRegime};
use md_relation::Catalog;
use md_sql::ParsedView;

use crate::diag::{CheckReport, Code, Diagnostic};
use crate::translate::select_span;

pub(crate) fn run(
    report: &mut CheckReport,
    parsed: &ParsedView,
    view: &GpsjView,
    catalog: &Catalog,
) {
    let regime = regime_of(view, catalog).unwrap_or(ChangeRegime::General);

    // MD024: superfluous aggregates (Section 2.1 footnote 1). `derive`
    // rejects these outright, so they are errors here.
    for alias in find_superfluous(view, catalog) {
        let item = view.select.iter().position(|it| it.alias() == alias);
        report.push(
            Diagnostic::new(
                Code::Md024,
                format!("aggregate '{alias}' is superfluous: its argument is a group-by attribute"),
            )
            .with_span(item.and_then(|i| select_span(parsed, i)))
            .with_label("every group holds exactly one value of this argument")
            .with_help("project the plain column instead of aggregating it"),
        );
    }

    let mut has_count_star = false;
    let mut first_sum_avg: Option<(usize, &str)> = None;
    for (i, item) in view.select.iter().enumerate() {
        let SelectItem::Agg { agg, alias } = item else {
            continue;
        };
        let span = select_span(parsed, i);
        let arg_text = |catalog: &Catalog| -> String {
            agg.arg
                .map(|c| c.display(catalog))
                .unwrap_or_else(|| "*".to_owned())
        };
        if agg.func == AggFunc::Count && agg.arg.is_none() && !agg.distinct {
            has_count_star = true;
        }
        if agg.distinct {
            // MD031: DISTINCT defeats distributivity in every regime.
            let arg = arg_text(catalog);
            let mut d = Diagnostic::new(
                Code::Md031,
                format!(
                    "{}(DISTINCT {arg}) is not completely self-maintainable",
                    agg.func.name()
                ),
            )
            .with_span(span)
            .with_label("DISTINCT makes any aggregate non-distributive");
            if let Some(col) = agg.arg {
                if let Ok(def) = catalog.def(col.table) {
                    d = d.with_note(format!(
                        "the auxiliary view for '{}' must keep raw '{}' values and can \
                         never be eliminated (Section 3.3)",
                        def.name,
                        def.schema.column(col.column).name
                    ));
                }
            }
            report.push(d);
        } else if matches!(agg.func, AggFunc::Min | AggFunc::Max) && regime == ChangeRegime::General
        {
            // MD030: MIN/MAX survive insertions but not deletions (Table 1).
            let arg = arg_text(catalog);
            let mut d = Diagnostic::new(
                Code::Md030,
                format!(
                    "{}({arg}) is not completely self-maintainable",
                    agg.func.name()
                ),
            )
            .with_span(span)
            .with_label("deleting the current extremum forces recomputation");
            if let Some(col) = agg.arg {
                if let Ok(def) = catalog.def(col.table) {
                    d = d.with_note(format!(
                        "the auxiliary view for '{}' must keep raw '{}' values and can \
                         never be eliminated (Section 3.3)",
                        def.name,
                        def.schema.column(col.column).name
                    ));
                }
            }
            report.push(d.with_help(
                "declare every source table insert-only if the warehouse is append-only: \
                     MIN/MAX are self-maintainable under insertions (Section 4)",
            ));
        } else if agg.func == AggFunc::Avg {
            // MD050: AVG is never stored as-is (Table 2 rewrite).
            report.push(
                Diagnostic::new(
                    Code::Md050,
                    format!(
                        "AVG({}) is maintained as SUM/COUNT and recomputed on read",
                        arg_text(catalog)
                    ),
                )
                .with_span(span)
                .with_note("Table 2 rewrites AVG(a) into the distributive set {SUM(a), COUNT(*)}"),
            );
        }
        if matches!(agg.func, AggFunc::Sum | AggFunc::Avg)
            && !agg.distinct
            && first_sum_avg.is_none()
        {
            first_sum_avg = Some((i, alias.as_str()));
        }
    }

    // MD032: SUM/AVG need a COUNT(*) companion to detect emptied groups
    // under deletions (Table 1, SMAS column).
    if regime == ChangeRegime::General && !has_count_star {
        if let Some((i, alias)) = first_sum_avg {
            report.push(
                Diagnostic::new(
                    Code::Md032,
                    "SUM/AVG without a COUNT(*) companion cannot detect groups becoming empty",
                )
                .with_span(select_span(parsed, i))
                .with_label(format!("'{alias}' needs a group count under deletions"))
                .with_help("add COUNT(*) to the select list (Table 1 SMAS companion)"),
            );
        }
    }
}
