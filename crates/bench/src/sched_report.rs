//! Rendering of the scheduler/engine counters for the `mindetail` shell's
//! `\sched` command.
//!
//! Pure data in, text out: taking [`SchedulerStats`] and the per-summary
//! [`MaintStats`] (rather than a `&Warehouse`) keeps the format snapshot-
//! testable with hand-built numbers.

use std::fmt::Write as _;

use md_core::human_nanos;
use md_maintain::MaintStats;
use md_warehouse::SchedulerStats;

/// Renders the `\sched` report. The per-summary block is column-aligned
/// by computing the widest summary name and duration strings, so uneven
/// name lengths no longer shear the table.
pub fn format_sched(sched: &SchedulerStats, per_summary: &[(String, MaintStats)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "batches applied: {}", sched.batches_applied);
    let _ = writeln!(
        out,
        "changes: {} submitted -> {} applied after coalescing",
        sched.changes_submitted, sched.changes_applied
    );
    let _ = writeln!(
        out,
        "stage wall time: coalesce {}  fan-out {}  wal {}  commit {}",
        human_nanos(sched.coalesce_nanos),
        human_nanos(sched.fanout_nanos),
        human_nanos(sched.wal_nanos),
        human_nanos(sched.commit_nanos)
    );
    if per_summary.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "per-summary share of the fan-out and commit times above:"
    );
    let name_w = per_summary
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max("summary".len());
    let prep: Vec<String> = per_summary
        .iter()
        .map(|(_, s)| human_nanos(s.prepare_nanos))
        .collect();
    let comm: Vec<String> = per_summary
        .iter()
        .map(|(_, s)| human_nanos(s.commit_nanos))
        .collect();
    // Width in chars, not bytes: `µ` is two bytes and formatting pads by
    // char count.
    let chars = |s: &String| s.chars().count();
    let prep_w = prep.iter().map(chars).max().unwrap_or(0);
    let comm_w = comm.iter().map(chars).max().unwrap_or(0);
    for (((name, _), p), c) in per_summary.iter().zip(&prep).zip(&comm) {
        let _ = writeln!(
            out,
            "  {name:<name_w$}  prepare {p:>prep_w$}  commit {c:>comm_w$}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned output: alignment must hold across uneven name lengths and
    /// duration magnitudes (the old rendering sheared when a short name
    /// met a long one).
    #[test]
    fn sched_report_snapshot() {
        let sched = SchedulerStats {
            batches_applied: 3,
            changes_submitted: 210,
            changes_applied: 180,
            coalesce_nanos: 42_000,
            fanout_nanos: 7_300_000,
            wal_nanos: 512,
            commit_nanos: 1_250_000_000,
        };
        let per_summary = vec![
            (
                "product_sales".to_owned(),
                MaintStats {
                    prepare_nanos: 5_000_000,
                    commit_nanos: 950,
                    ..MaintStats::default()
                },
            ),
            (
                "v".to_owned(),
                MaintStats {
                    prepare_nanos: 999,
                    commit_nanos: 2_500_000_000,
                    ..MaintStats::default()
                },
            ),
        ];
        let expected = "\
batches applied: 3
changes: 210 submitted -> 180 applied after coalescing
stage wall time: coalesce 42.0µs  fan-out 7.300ms  wal 512ns  commit 1.250s
per-summary share of the fan-out and commit times above:
  product_sales  prepare 5.000ms  commit  950ns
  v              prepare   999ns  commit 2.500s
";
        assert_eq!(format_sched(&sched, &per_summary), expected);
    }

    #[test]
    fn sched_report_without_summaries_has_no_busy_block() {
        let text = format_sched(&SchedulerStats::default(), &[]);
        assert!(!text.contains("per-summary"));
        assert_eq!(text.lines().count(), 3);
    }
}
