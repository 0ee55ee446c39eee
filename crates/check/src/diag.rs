//! The diagnostic model: stable codes, severities, and the check report.
//!
//! Codes are grouped by pass: `MD00x` front end, `MD01x` name resolution,
//! `MD02x` join-graph well-formedness, `MD03x` aggregate classification and
//! exposure, `MD04x`/`MD05x` plan-audit lints. Codes are append-only: a
//! published code never changes meaning, so scripts may match on them.
//! `MD060`–`MD063` (scheduler-model ordering) and `MD070`–`MD073`
//! (fault-domain configuration) are retired — the passes that emitted
//! them are gone — and their numbers are never reused.

use md_sql::Span;

/// Diagnostic severity. Errors make a definition unusable (`derive` would
/// fail or silently violate a paper precondition); warnings flag definitions
/// that work but forgo minimization opportunities; notes explain plan
/// consequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The definition violates a hard precondition and is rejected in
    /// strict mode.
    Error,
    /// The definition is accepted but suboptimal or fragile.
    Warning,
    /// Informational plan-audit finding.
    Note,
}

impl Severity {
    /// Lowercase name as rendered (`error` / `warning` / `note`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Lexical error in the SQL text.
    Md001,
    /// Syntax error in the SQL text.
    Md002,
    /// Unknown or unbound table reference.
    Md010,
    /// Table listed twice in `FROM` (self-join, outside the GPSJ class).
    Md011,
    /// Unknown column.
    Md012,
    /// Ambiguous unqualified column.
    Md013,
    /// Select list and `GROUP BY` disagree.
    Md014,
    /// Invalid condition (literal-only, type mismatch, bad `HAVING`).
    Md015,
    /// Duplicate output column alias.
    Md016,
    /// Join condition is not on the key of either table.
    Md020,
    /// A table is reached by more than one join path.
    Md021,
    /// The join graph contains a cycle.
    Md022,
    /// The join graph is disconnected.
    Md023,
    /// Superfluous aggregate (argument is a group-by attribute).
    Md024,
    /// `MIN`/`MAX` aggregate is not completely self-maintainable.
    Md030,
    /// `DISTINCT` aggregate is not completely self-maintainable.
    Md031,
    /// `SUM`/`AVG` without a `COUNT(*)` companion.
    Md032,
    /// Join edge without a declared foreign key.
    Md033,
    /// Condition column exposed to updates under the table's contract.
    Md034,
    /// Auxiliary view materialized only because of exposed updates.
    Md040,
    /// Root auxiliary view degenerates to a PSJ view (no compression).
    Md041,
    /// `AVG` is maintained via the `SUM`/`COUNT` rewrite.
    Md050,
}

impl Code {
    /// Every code the analyzer can emit, in ascending order.
    pub const ALL: [Code; 22] = [
        Code::Md001,
        Code::Md002,
        Code::Md010,
        Code::Md011,
        Code::Md012,
        Code::Md013,
        Code::Md014,
        Code::Md015,
        Code::Md016,
        Code::Md020,
        Code::Md021,
        Code::Md022,
        Code::Md023,
        Code::Md024,
        Code::Md030,
        Code::Md031,
        Code::Md032,
        Code::Md033,
        Code::Md034,
        Code::Md040,
        Code::Md041,
        Code::Md050,
    ];

    /// The stable code string, e.g. `"MD020"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Md001 => "MD001",
            Code::Md002 => "MD002",
            Code::Md010 => "MD010",
            Code::Md011 => "MD011",
            Code::Md012 => "MD012",
            Code::Md013 => "MD013",
            Code::Md014 => "MD014",
            Code::Md015 => "MD015",
            Code::Md016 => "MD016",
            Code::Md020 => "MD020",
            Code::Md021 => "MD021",
            Code::Md022 => "MD022",
            Code::Md023 => "MD023",
            Code::Md024 => "MD024",
            Code::Md030 => "MD030",
            Code::Md031 => "MD031",
            Code::Md032 => "MD032",
            Code::Md033 => "MD033",
            Code::Md034 => "MD034",
            Code::Md040 => "MD040",
            Code::Md041 => "MD041",
            Code::Md050 => "MD050",
        }
    }

    /// The fixed severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::Md001
            | Code::Md002
            | Code::Md010
            | Code::Md011
            | Code::Md012
            | Code::Md013
            | Code::Md014
            | Code::Md015
            | Code::Md016
            | Code::Md020
            | Code::Md021
            | Code::Md022
            | Code::Md023
            | Code::Md024 => Severity::Error,
            Code::Md030 | Code::Md031 | Code::Md032 | Code::Md033 | Code::Md034 => {
                Severity::Warning
            }
            Code::Md040 | Code::Md041 | Code::Md050 => Severity::Note,
        }
    }

    /// One-line description, for `--explain`-style listings and docs.
    pub fn title(self) -> &'static str {
        match self {
            Code::Md001 => "lexical error",
            Code::Md002 => "syntax error",
            Code::Md010 => "unknown or unbound table",
            Code::Md011 => "table listed twice in FROM",
            Code::Md012 => "unknown column",
            Code::Md013 => "ambiguous column",
            Code::Md014 => "select list / GROUP BY mismatch",
            Code::Md015 => "invalid condition",
            Code::Md016 => "duplicate output alias",
            Code::Md020 => "non-key join",
            Code::Md021 => "multiple join paths into a table",
            Code::Md022 => "join-graph cycle",
            Code::Md023 => "disconnected join graph",
            Code::Md024 => "superfluous aggregate",
            Code::Md030 => "MIN/MAX is not completely self-maintainable",
            Code::Md031 => "DISTINCT aggregate is not completely self-maintainable",
            Code::Md032 => "SUM/AVG without COUNT(*) companion",
            Code::Md033 => "join edge without declared foreign key",
            Code::Md034 => "condition column exposed to updates",
            Code::Md040 => "auxiliary view eliminable under a tighter contract",
            Code::Md041 => "root auxiliary view degenerates to PSJ",
            Code::Md050 => "AVG maintained via SUM/COUNT rewrite",
        }
    }
}

/// One finding: a stable code, a message, and an optional source span with
/// secondary text (label under the carets, `help:` and `note:` lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// The severity (always `code.severity()`).
    pub severity: Severity,
    /// Primary message.
    pub message: String,
    /// The offending source range, when the input was SQL text.
    pub span: Option<Span>,
    /// Short text rendered under the caret underline.
    pub label: Option<String>,
    /// `= help:` lines.
    pub help: Vec<String>,
    /// `= note:` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's fixed severity and no span.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            span: None,
            label: None,
            help: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Attaches a source span (no-op for `None`, which keeps call sites
    /// uniform: clause spans are themselves optional).
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Attaches the caret label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Appends a `help:` line.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help.push(help.into());
        self
    }

    /// Appends a `note:` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// The result of checking one view definition: the diagnostics plus the
/// source they point into, so the report renders itself.
#[derive(Debug, Clone)]
pub struct CheckReport {
    origin: String,
    view: Option<String>,
    source: Option<String>,
    diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    pub(crate) fn new(origin: impl Into<String>, source: Option<String>) -> Self {
        CheckReport {
            origin: origin.into(),
            view: None,
            source,
            diagnostics: Vec::new(),
        }
    }

    pub(crate) fn set_view(&mut self, name: Option<String>) {
        self.view = name;
    }

    /// Records a diagnostic, dropping exact duplicates (same code, span and
    /// message) so one underlying defect is reported once.
    pub(crate) fn push(&mut self, d: Diagnostic) {
        let dup = self
            .diagnostics
            .iter()
            .any(|e| e.code == d.code && e.span == d.span && e.message == d.message);
        if !dup {
            self.diagnostics.push(d);
        }
    }

    /// Where the checked SQL came from (a file name, or `<sql>`).
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// The view name, when the statement declared one.
    pub fn view_name(&self) -> Option<&str> {
        self.view.as_deref()
    }

    /// The checked source text, when the input was SQL.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// All diagnostics, in pass order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when nothing was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one error-level diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-level diagnostics.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-level diagnostics.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-level diagnostics.
    pub fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(strs, sorted, "Code::ALL must be unique and ascending");
    }

    #[test]
    fn severity_matches_code_bands() {
        assert_eq!(Code::Md001.severity(), Severity::Error);
        assert_eq!(Code::Md024.severity(), Severity::Error);
        assert_eq!(Code::Md030.severity(), Severity::Warning);
        assert_eq!(Code::Md034.severity(), Severity::Warning);
        assert_eq!(Code::Md040.severity(), Severity::Note);
        assert_eq!(Code::Md050.severity(), Severity::Note);
    }

    #[test]
    fn duplicate_diagnostics_are_dropped() {
        let mut r = CheckReport::new("<sql>", None);
        r.push(Diagnostic::new(Code::Md010, "unknown table 'x'"));
        r.push(Diagnostic::new(Code::Md010, "unknown table 'x'"));
        r.push(Diagnostic::new(Code::Md010, "unknown table 'y'"));
        assert_eq!(r.diagnostics().len(), 2);
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 2);
    }
}
