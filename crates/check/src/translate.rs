//! The translation table: a rejection decided by `md-sql`, `md-algebra`
//! or `md-core` becomes a diagnostic — a code, a span, and the label, note
//! and help text that go with the kind of defect.
//!
//! Nothing is decided here. The message is the deciding layer's own (what
//! registration prints); the span is the defect's site — a span already
//! for name resolution, an index into the view for `validate` (the view is
//! index-aligned with the statement, see `md_sql::resolve`), tables and
//! edges for the join graph. Each layer's kinds are matched exhaustively,
//! so a new kind of rejection does not compile until it has a code.

use md_algebra::{AlgebraError, ColRef, DefectKind, GpsjView, ViewDefect, ViewSite};
use md_core::{CoreError, JoinEdge, TreeDefect, TreeDefectKind};
use md_relation::{Catalog, TableId};
use md_sql::{ParsedView, ResolveDefect, ResolveKind, Span, SqlError};

use crate::diag::{CheckReport, Code, Diagnostic};

/// Reports a failed `md_sql::parse` (`parsed` is `None`) or `resolve`.
pub(crate) fn sql_error(
    report: &mut CheckReport,
    sql: &str,
    parsed: Option<&ParsedView>,
    catalog: &Catalog,
    e: SqlError,
) {
    // The character at a byte offset (nothing at the end of the input).
    let char_at = |offset: usize| {
        let len = sql.get(offset..).and_then(|rest| rest.chars().next());
        Some(Span::new(offset, offset + len.map_or(0, char::len_utf8)))
    };
    match e {
        SqlError::Lex { offset, message } => {
            report.push(Diagnostic::new(Code::Md001, message).with_span(char_at(offset)))
        }
        SqlError::Parse { offset, message } => {
            report.push(Diagnostic::new(Code::Md002, message).with_span(char_at(offset)))
        }
        SqlError::Resolve(defects) => {
            for d in defects {
                report.push(resolve_defect(d, catalog));
            }
        }
        SqlError::Algebra(e) => algebra_error(report, parsed, e),
        SqlError::Relation(e) => report.push(invalid(parsed, &e)),
    }
}

/// Reports a failed `ExtendedJoinGraph::build` on the resolved `view`.
pub(crate) fn core_error(
    report: &mut CheckReport,
    parsed: &ParsedView,
    view: &GpsjView,
    catalog: &Catalog,
    e: CoreError,
) {
    match e {
        CoreError::NotATree { defects, .. } => {
            for d in defects {
                report.push(tree_defect(d, parsed, view, catalog));
            }
        }
        CoreError::Algebra(e) => algebra_error(report, Some(parsed), e),
        e @ (CoreError::SuperfluousAggregates { .. } | CoreError::Relation(_)) => {
            report.push(invalid(Some(parsed), &e))
        }
    }
}

fn algebra_error(report: &mut CheckReport, parsed: Option<&ParsedView>, e: AlgebraError) {
    match e {
        AlgebraError::InvalidView { defects, .. } => {
            for d in defects {
                report.push(view_defect(d, parsed));
            }
        }
        e @ (AlgebraError::UnknownViewTable { .. }
        | AlgebraError::BadAggregateArgument { .. }
        | AlgebraError::Relation(_)) => report.push(invalid(parsed, &e)),
    }
}

/// An error that is no defect of the statement (the catalog contradicts
/// itself): reported whole, on the whole statement.
fn invalid(parsed: Option<&ParsedView>, e: &dyn std::fmt::Display) -> Diagnostic {
    Diagnostic::new(Code::Md015, format!("invalid view definition: {e}"))
        .with_span(parsed.and_then(statement_span))
}

fn resolve_defect(d: ResolveDefect, catalog: &Catalog) -> Diagnostic {
    let diag = |code| Diagnostic::new(code, d.message).with_span(Some(d.span));
    match d.kind {
        ResolveKind::UnknownTable => {
            diag(Code::Md010).with_help(format!("available tables: {}", table_names(catalog)))
        }
        ResolveKind::TableNotInFrom => diag(Code::Md010),
        ResolveKind::UnknownColumn(table) => diag(Code::Md012).with_help(format!(
            "columns of {}: {}",
            table_name(catalog, table),
            column_names(catalog, table)
        )),
        ResolveKind::ColumnNotFound => diag(Code::Md012),
        ResolveKind::AmbiguousColumn { qualified } => {
            diag(Code::Md013).with_help(format!("qualify the reference, e.g. '{qualified}'"))
        }
        ResolveKind::SelectNotGrouped => diag(Code::Md014).with_label("projected but not grouped"),
        ResolveKind::GroupNotSelected => {
            diag(Code::Md014).with_note("GPSJ views project all group-by attributes")
        }
        ResolveKind::LiteralOnlyCondition | ResolveKind::HavingNotAnOutput => diag(Code::Md015),
        ResolveKind::HavingAggregateNotSelected => {
            diag(Code::Md015).with_note("GPSJ summary tables can only restrict projected outputs")
        }
    }
}

fn view_defect(d: ViewDefect, parsed: Option<&ParsedView>) -> Diagnostic {
    let span = parsed.and_then(|p| match d.site {
        ViewSite::View => statement_span(p),
        ViewSite::Table(i) => from_span(p, i),
        ViewSite::Select(i) => select_span(p, i),
        ViewSite::Condition(i) => cond_span(p, i),
        ViewSite::Having(i) => p.spans.having.get(i).copied(),
    });
    let diag = |code| Diagnostic::new(code, d.message).with_span(span);
    match d.kind {
        DefectKind::Malformed
        | DefectKind::AggregateArgument
        | DefectKind::ComparisonTypes
        | DefectKind::NonFiniteLiteral => diag(Code::Md015),
        DefectKind::DuplicateTable => {
            diag(Code::Md011).with_label("self-joins are outside the GPSJ class")
        }
        DefectKind::DuplicateAlias => {
            diag(Code::Md016).with_help("rename one of the select items with AS")
        }
        DefectKind::JoinNotEquality => {
            let op = match d.site {
                ViewSite::Condition(i) => parsed.and_then(|p| p.conditions.get(i)).map(|c| c.op),
                _ => None,
            };
            match op {
                Some(op) => diag(Code::Md020)
                    .with_label(format!("'{op}' cannot express a key/foreign-key join")),
                None => diag(Code::Md020),
            }
        }
        DefectKind::JoinNotOnKey => diag(Code::Md020)
            .with_label("neither side is its table's key")
            .with_help(
                "GPSJ joins must equate a foreign key with the referenced table's key \
                 (paper Definition 2)",
            ),
    }
}

fn tree_defect(
    d: TreeDefect,
    parsed: &ParsedView,
    view: &GpsjView,
    catalog: &Catalog,
) -> Diagnostic {
    let diag = |code| Diagnostic::new(code, d.message);
    match d.kind {
        TreeDefectKind::SeveralParents(edges) => {
            let end = |t, c| ColRef::new(t, c).display(catalog);
            let paths: Vec<String> = (edges.iter())
                .map(|e| format!("{} = {}", end(e.from, e.fk_col), end(e.to, e.key_col)))
                .collect();
            diag(Code::Md021)
                .with_span(edges.get(1).and_then(|e| edge_span(parsed, view, e)))
                .with_label("second join path into the table")
                .with_note(format!("join paths: {}", paths.join("; ")))
                .with_help("the extended join graph must be a tree (at most one parent per table)")
        }
        TreeDefectKind::NoRoot => diag(Code::Md022)
            .with_span(statement_span(parsed))
            .with_help("the extended join graph must be a tree rooted at the fact table"),
        TreeDefectKind::SeveralRoots(roots) => {
            let names: Vec<String> = roots.iter().map(|&t| table_name(catalog, t)).collect();
            diag(Code::Md023)
                .with_span(roots.get(1).and_then(|&t| table_span(parsed, view, t)))
                .with_label("not joined to the rest of the view")
                .with_note(format!("candidate roots: {}", names.join(", ")))
                .with_help("add a key/foreign-key join condition connecting the components")
        }
        TreeDefectKind::Unreachable(tables) => {
            diag(Code::Md022).with_span(tables.first().and_then(|&t| table_span(parsed, view, t)))
        }
    }
}

/// `'name'` of a table.
pub(crate) fn table_name(catalog: &Catalog, table: TableId) -> String {
    catalog
        .def(table)
        .map_or_else(|_| table.to_string(), |d| format!("'{}'", d.name))
}

fn table_names(catalog: &Catalog) -> String {
    let mut names: Vec<String> = catalog
        .table_ids()
        .filter_map(|t| catalog.def(t).ok().map(|d| d.name.clone()))
        .collect();
    names.sort_unstable();
    names.join(", ")
}

fn column_names(catalog: &Catalog, table: TableId) -> String {
    let columns = catalog.def(table).map(|d| d.schema.columns());
    let names: Vec<&str> = (columns.into_iter().flatten())
        .map(|c| c.name.as_str())
        .collect();
    names.join(", ")
}

pub(crate) fn select_span(parsed: &ParsedView, item: usize) -> Option<Span> {
    parsed.spans.select.get(item).copied()
}

pub(crate) fn from_span(parsed: &ParsedView, i: usize) -> Option<Span> {
    parsed.spans.from.get(i).copied()
}

pub(crate) fn cond_span(parsed: &ParsedView, i: usize) -> Option<Span> {
    parsed.spans.conditions.get(i).copied()
}

pub(crate) fn statement_span(parsed: &ParsedView) -> Option<Span> {
    Some(parsed.spans.statement)
}

/// The `FROM` entry of a view table.
pub(crate) fn table_span(parsed: &ParsedView, view: &GpsjView, table: TableId) -> Option<Span> {
    let i = view.tables.iter().position(|&t| t == table)?;
    from_span(parsed, i)
}

/// The first condition that induces a join edge.
pub(crate) fn edge_span(parsed: &ParsedView, view: &GpsjView, e: &JoinEdge) -> Option<Span> {
    let ends = [ColRef::new(e.from, e.fk_col), ColRef::new(e.to, e.key_col)];
    let i =
        (view.conditions.iter()).position(|c| ends.iter().all(|end| c.columns().contains(end)))?;
    cond_span(parsed, i)
}
