//! Rendering of the scheduler/engine counters for the `mindetail` shell's
//! `\sched` command.
//!
//! Registry in, text out: the report reads the `sched.*` counters and each
//! summary's `maintain.{prepare,commit}_nanos` histogram sums straight
//! from an [`Obs`] registry, so its format is snapshot-testable with a
//! hand-filled one. The histograms record only under
//! `ObsConfig::metrics()` or `full()`, which the shell always runs with.

use std::fmt::Write as _;

use md_core::human_nanos;
use md_obs::Obs;

/// Renders the `\sched` report of the registry `obs` for `summaries`. The
/// per-summary block is column-aligned by computing the widest summary
/// name and duration strings, so uneven name lengths no longer shear the
/// table.
pub fn format_sched(obs: &Obs, summaries: &[&str]) -> String {
    let sched = |name: &str| obs.counter(name, &[]).get();
    let mut out = String::new();
    let _ = writeln!(out, "batches applied: {}", sched("sched.batches_applied"));
    let _ = writeln!(
        out,
        "changes: {} submitted -> {} applied after coalescing",
        sched("sched.changes_submitted"),
        sched("sched.changes_applied")
    );
    let _ = writeln!(
        out,
        "stage wall time: coalesce {}  fan-out {}  wal {}  commit {}",
        human_nanos(sched("sched.coalesce_nanos")),
        human_nanos(sched("sched.fanout_nanos")),
        human_nanos(sched("sched.wal_nanos")),
        human_nanos(sched("sched.commit_nanos"))
    );
    if summaries.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "per-summary share of the fan-out and commit times above:"
    );
    let name_w = summaries
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(0)
        .max("summary".len());
    let time = |metric: &str| -> Vec<String> {
        summaries
            .iter()
            .map(|&name| {
                let sum = obs.histogram(metric, &[("summary", name)]).snapshot().sum;
                human_nanos(sum)
            })
            .collect()
    };
    let prep = time("maintain.prepare_nanos");
    let comm = time("maintain.commit_nanos");
    // Width in chars, not bytes: `µ` is two bytes and formatting pads by
    // char count.
    let chars = |s: &String| s.chars().count();
    let prep_w = prep.iter().map(chars).max().unwrap_or(0);
    let comm_w = comm.iter().map(chars).max().unwrap_or(0);
    for ((name, p), c) in summaries.iter().zip(&prep).zip(&comm) {
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
    use md_obs::ObsConfig;

    /// Pinned output: alignment must hold across uneven name lengths and
    /// duration magnitudes (the old rendering sheared when a short name
    /// met a long one).
    #[test]
    fn sched_report_snapshot() {
        let obs = Obs::new(ObsConfig::metrics());
        for (name, value) in [
            ("sched.batches_applied", 3),
            ("sched.changes_submitted", 210),
            ("sched.changes_applied", 180),
            ("sched.coalesce_nanos", 42_000),
            ("sched.fanout_nanos", 7_300_000),
            ("sched.wal_nanos", 512),
            ("sched.commit_nanos", 1_250_000_000),
        ] {
            obs.counter(name, &[]).add(value);
        }
        for (summary, prepare, commit) in
            [("product_sales", 5_000_000, 950), ("v", 999, 2_500_000_000)]
        {
            let labels = [("summary", summary)];
            obs.histogram("maintain.prepare_nanos", &labels)
                .observe(prepare);
            obs.histogram("maintain.commit_nanos", &labels)
                .observe(commit);
        }
        let expected = "\
batches applied: 3
changes: 210 submitted -> 180 applied after coalescing
stage wall time: coalesce 42.0µs  fan-out 7.300ms  wal 512ns  commit 1.250s
per-summary share of the fan-out and commit times above:
  product_sales  prepare 5.000ms  commit  950ns
  v              prepare   999ns  commit 2.500s
";
        assert_eq!(format_sched(&obs, &["product_sales", "v"]), expected);
    }

    #[test]
    fn sched_report_without_summaries_has_no_busy_block() {
        let text = format_sched(&Obs::noop(), &[]);
        assert!(!text.contains("per-summary"));
        assert_eq!(text.lines().count(), 3);
    }
}
