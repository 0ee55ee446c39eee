//! Pass 7 — scheduler-ordering analysis (`MD060`–`MD063`).
//!
//! The dynamic explorer in `md-race` replays concrete interleavings of
//! the batch scheduler; this pass checks the *ordering invariants* of a
//! schedule statically, over an abstract [`SchedModel`], so they can be
//! verified even on plans the explorer can't reach — hand-written
//! schedules or traces recorded in production.
//!
//! The model is a list of [`SchedStep`]s. Steps of the *same* thread are
//! ordered as listed (program order); steps of different threads are
//! unordered except through the batch markers, so every finding below is
//! a violation on *every* interleaving consistent with the model, not
//! just on one:
//!
//! * **MD060** — within a batch, an engine commit precedes the batch's
//!   WAL append in its thread's program order (or the log is enabled and
//!   the batch commits without appending at all). A crash between the
//!   two loses committed changes.
//! * **MD061** — a table's WAL LSNs are not strictly increasing in
//!   append order. Recovery replays frames in log order; a regression
//!   reorders committed batches.
//! * **MD062** — two threads acquire the same pair of engines in
//!   opposite orders (more generally: the engine-acquisition precedence
//!   graph has a cycle), the classic deadlock recipe.
//! * **MD063** — an engine is prepared in a batch but neither committed
//!   nor rolled back by the batch's end: a leaked transaction that
//!   blocks every later batch on that engine.

use std::collections::BTreeMap;

use crate::diag::{CheckReport, Code, Diagnostic};

/// One scheduling operation in a [`SchedModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedModelOp {
    /// A batch begins.
    BatchStart,
    /// The thread takes exclusive access to an engine (and holds it
    /// until the matching [`SchedModelOp::Release`]).
    Acquire {
        /// The engine (summary) name.
        engine: String,
    },
    /// The thread releases an engine.
    Release {
        /// The engine (summary) name.
        engine: String,
    },
    /// The thread runs an engine's prepare phase.
    Prepare {
        /// The engine (summary) name.
        engine: String,
    },
    /// The thread appends one table frame to the change log.
    WalAppend {
        /// The table name.
        table: String,
        /// The frame's log sequence number.
        lsn: u64,
    },
    /// The thread commits a prepared engine.
    Commit {
        /// The engine (summary) name.
        engine: String,
    },
    /// The thread rolls a prepared engine back.
    Rollback {
        /// The engine (summary) name.
        engine: String,
    },
    /// The batch ends.
    BatchEnd,
}

/// One step: which thread performs which operation. Thread `0` is the
/// coordinator by convention; worker tasks are `1..`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStep {
    /// The performing thread.
    pub thread: usize,
    /// The operation.
    pub op: SchedModelOp,
}

impl SchedStep {
    /// Shorthand constructor.
    pub fn new(thread: usize, op: SchedModelOp) -> Self {
        SchedStep { thread, op }
    }
}

/// An abstract schedule of the batch scheduler: what each thread does, in
/// per-thread program order. Build one by hand or record one from an
/// md-race trace.
#[derive(Debug, Clone, Default)]
pub struct SchedModel {
    /// Whether the durable change log is enabled. When `false`, MD060's
    /// missing-append arm and MD061 are vacuous.
    pub wal_enabled: bool,
    /// The steps, in per-thread program order (steps of different
    /// threads may be listed in any order).
    pub steps: Vec<SchedStep>,
}

impl SchedModel {
    /// An empty model with the log enabled.
    pub fn new() -> Self {
        SchedModel {
            wal_enabled: true,
            steps: Vec::new(),
        }
    }

    /// Appends a step.
    pub fn push(&mut self, thread: usize, op: SchedModelOp) {
        self.steps.push(SchedStep::new(thread, op));
    }
}

/// Checks the ordering invariants of a schedule model and reports every
/// violation as an `MD06x` diagnostic. The origin of the returned report
/// is `<schedule>`.
pub fn check_schedule(model: &SchedModel) -> CheckReport {
    let mut report = CheckReport::new("<schedule>", None);
    check_batches(&mut report, model);
    check_lsns(&mut report, model);
    check_lock_order(&mut report, model);
    report
}

/// MD060 + MD063: per-batch commit/append ordering and transaction
/// hygiene. Batches are delimited by `BatchStart`/`BatchEnd` markers;
/// steps outside any marker belong to one implicit batch.
fn check_batches(report: &mut CheckReport, model: &SchedModel) {
    // Split the step list into batches. Markers may come from any
    // thread; the scheduler emits them from the coordinator.
    let mut batches: Vec<&[SchedStep]> = Vec::new();
    let mut start = 0usize;
    let mut saw_marker = false;
    for (i, step) in model.steps.iter().enumerate() {
        match step.op {
            SchedModelOp::BatchStart => {
                start = i + 1;
                saw_marker = true;
            }
            SchedModelOp::BatchEnd => {
                batches.push(&model.steps[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !saw_marker && batches.is_empty() {
        batches.push(&model.steps[..]);
    } else if start < model.steps.len() {
        batches.push(&model.steps[start..]);
    }

    for (batch_no, steps) in batches.iter().enumerate() {
        // MD060: in any thread's program order, a commit before the
        // first WAL append of the same batch.
        let mut appended_by_thread: BTreeMap<usize, bool> = BTreeMap::new();
        let mut any_append = false;
        let mut commits: Vec<&str> = Vec::new();
        for step in *steps {
            match &step.op {
                SchedModelOp::WalAppend { .. } => {
                    appended_by_thread.insert(step.thread, true);
                    any_append = true;
                }
                SchedModelOp::Commit { engine } => {
                    commits.push(engine);
                    let appended = appended_by_thread
                        .get(&step.thread)
                        .copied()
                        .unwrap_or(false);
                    if model.wal_enabled && !appended {
                        report.push(
                            Diagnostic::new(
                                Code::Md060,
                                format!(
                                    "batch {batch_no}: engine '{engine}' commits before the \
                                     batch is appended to the change log"
                                ),
                            )
                            .with_note(
                                "a crash between the commit and the append loses the \
                                 committed changes: recovery replays only logged batches"
                                    .to_owned(),
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
        if model.wal_enabled && !commits.is_empty() && !any_append {
            report.push(Diagnostic::new(
                Code::Md060,
                format!(
                    "batch {batch_no}: {} engine commit(s) with no change-log append at all",
                    commits.len()
                ),
            ));
        }

        // MD063: prepared but neither committed nor rolled back.
        let mut open: Vec<&str> = Vec::new();
        for step in *steps {
            match &step.op {
                SchedModelOp::Prepare { engine } => open.push(engine),
                SchedModelOp::Commit { engine } | SchedModelOp::Rollback { engine } => {
                    open.retain(|e| e != engine);
                }
                _ => {}
            }
        }
        for engine in open {
            report.push(
                Diagnostic::new(
                    Code::Md063,
                    format!(
                        "batch {batch_no}: engine '{engine}' is prepared but neither \
                         committed nor rolled back by batch end"
                    ),
                )
                .with_note(
                    "a leaked prepared transaction blocks every later batch on this engine"
                        .to_owned(),
                ),
            );
        }
    }
}

/// MD061: per-table WAL LSNs must be strictly increasing in append
/// order across the whole model.
fn check_lsns(report: &mut CheckReport, model: &SchedModel) {
    if !model.wal_enabled {
        return;
    }
    let mut last: BTreeMap<&str, u64> = BTreeMap::new();
    for step in &model.steps {
        if let SchedModelOp::WalAppend { table, lsn } = &step.op {
            if let Some(prev) = last.get(table.as_str()) {
                if *lsn <= *prev {
                    report.push(Diagnostic::new(
                        Code::Md061,
                        format!(
                            "table '{table}': WAL LSN {lsn} appended after {prev} \
                             (LSNs must be strictly increasing per table)"
                        ),
                    ));
                }
            }
            last.insert(table.as_str(), *lsn);
        }
    }
}

/// MD062: the engine-acquisition precedence graph must be acyclic.
/// An edge `a → b` means some thread acquired `b` while holding `a`; a
/// cycle means two (or more) threads can each hold what the next one
/// wants.
fn check_lock_order(report: &mut CheckReport, model: &SchedModel) {
    // Collect edges per thread from Acquire/Release nesting. Prepare
    // counts as acquire+release of its engine when not already held
    // (the scheduler's own model spells the hold out explicitly).
    let mut edges: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut held: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for step in &model.steps {
        match &step.op {
            SchedModelOp::Acquire { engine } => {
                let stack = held.entry(step.thread).or_default();
                for h in stack.iter() {
                    let succ = edges.entry(h).or_default();
                    if !succ.contains(&engine.as_str()) {
                        succ.push(engine.as_str());
                    }
                }
                stack.push(engine.as_str());
            }
            SchedModelOp::Release { engine } => {
                if let Some(stack) = held.get_mut(&step.thread) {
                    if let Some(pos) = stack.iter().rposition(|e| e == engine) {
                        stack.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    // DFS cycle detection over the precedence graph; report one cycle
    // per offending start node, smallest name first (deterministic).
    let nodes: Vec<&str> = edges.keys().copied().collect();
    for &start in &nodes {
        if let Some(cycle) = find_cycle(start, &edges) {
            // Only report the cycle from its lexicographically smallest
            // member, so one cycle yields one diagnostic.
            if cycle.iter().min() == Some(&start) {
                report.push(
                    Diagnostic::new(
                        Code::Md062,
                        format!(
                            "engines {} are acquired in conflicting orders across threads",
                            cycle.join(" → ")
                        ),
                    )
                    .with_help(
                        "impose a single global acquisition order (the scheduler uses \
                         engine-name order) to make deadlock impossible"
                            .to_owned(),
                    ),
                );
            }
        }
    }
}

/// Returns a cycle through `start` as a node list (without the closing
/// repeat), or `None`.
fn find_cycle<'a>(start: &'a str, edges: &BTreeMap<&'a str, Vec<&'a str>>) -> Option<Vec<&'a str>> {
    fn dfs<'a>(
        node: &'a str,
        start: &'a str,
        edges: &BTreeMap<&'a str, Vec<&'a str>>,
        path: &mut Vec<&'a str>,
    ) -> bool {
        for &next in edges.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            if next == start {
                return true;
            }
            if !path.contains(&next) {
                path.push(next);
                if dfs(next, start, edges, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    let mut path = vec![start];
    if dfs(start, start, edges, &mut path) {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SchedModelOp as Op;

    fn correct_model() -> SchedModel {
        let mut m = SchedModel::new();
        m.push(0, Op::BatchStart);
        m.push(1, Op::Acquire { engine: "a".into() });
        m.push(1, Op::Prepare { engine: "a".into() });
        m.push(1, Op::Release { engine: "a".into() });
        m.push(2, Op::Acquire { engine: "b".into() });
        m.push(2, Op::Prepare { engine: "b".into() });
        m.push(2, Op::Release { engine: "b".into() });
        m.push(
            0,
            Op::WalAppend {
                table: "sale".into(),
                lsn: 1,
            },
        );
        m.push(0, Op::Commit { engine: "a".into() });
        m.push(0, Op::Commit { engine: "b".into() });
        m.push(0, Op::BatchEnd);
        m
    }

    #[test]
    fn correct_schedule_is_clean() {
        let report = check_schedule(&correct_model());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn commit_before_append_is_md060() {
        let mut m = SchedModel::new();
        m.push(0, Op::BatchStart);
        m.push(1, Op::Prepare { engine: "a".into() });
        m.push(0, Op::Commit { engine: "a".into() });
        m.push(
            0,
            Op::WalAppend {
                table: "sale".into(),
                lsn: 1,
            },
        );
        m.push(0, Op::BatchEnd);
        let report = check_schedule(&m);
        assert!(report.has_errors());
        assert!(report.diagnostics().iter().any(|d| d.code == Code::Md060));
    }

    #[test]
    fn committed_but_never_logged_batch_is_md060() {
        let mut m = SchedModel::new();
        m.push(0, Op::BatchStart);
        m.push(1, Op::Prepare { engine: "a".into() });
        m.push(0, Op::Commit { engine: "a".into() });
        m.push(0, Op::BatchEnd);
        let report = check_schedule(&m);
        assert!(report.diagnostics().iter().any(|d| d.code == Code::Md060));
        // With the log disabled the same schedule is legitimate.
        m.wal_enabled = false;
        assert!(check_schedule(&m).is_clean());
    }

    #[test]
    fn lsn_regression_is_md061() {
        let mut m = SchedModel::new();
        for lsn in [1u64, 2, 2] {
            m.push(
                0,
                Op::WalAppend {
                    table: "sale".into(),
                    lsn,
                },
            );
        }
        // Another table's parallel sequence does not confuse the check.
        m.push(
            0,
            Op::WalAppend {
                table: "product".into(),
                lsn: 1,
            },
        );
        let report = check_schedule(&m);
        let lsn_errors: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::Md061)
            .collect();
        assert_eq!(lsn_errors.len(), 1, "{}", report.render());
        assert!(lsn_errors[0].message.contains("'sale'"));
    }

    #[test]
    fn opposite_acquisition_orders_are_md062() {
        let mut m = SchedModel::new();
        m.wal_enabled = false;
        // Thread 1: a then b. Thread 2: b then a.
        for (thread, first, second) in [(1usize, "a", "b"), (2, "b", "a")] {
            m.push(
                thread,
                Op::Acquire {
                    engine: first.into(),
                },
            );
            m.push(
                thread,
                Op::Acquire {
                    engine: second.into(),
                },
            );
            m.push(
                thread,
                Op::Release {
                    engine: second.into(),
                },
            );
            m.push(
                thread,
                Op::Release {
                    engine: first.into(),
                },
            );
        }
        let report = check_schedule(&m);
        let inversions: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::Md062)
            .collect();
        assert_eq!(inversions.len(), 1, "{}", report.render());
    }

    #[test]
    fn nested_same_order_acquisition_is_clean() {
        let mut m = SchedModel::new();
        m.wal_enabled = false;
        for thread in [1usize, 2] {
            m.push(thread, Op::Acquire { engine: "a".into() });
            m.push(thread, Op::Acquire { engine: "b".into() });
            m.push(thread, Op::Release { engine: "b".into() });
            m.push(thread, Op::Release { engine: "a".into() });
        }
        assert!(check_schedule(&m).is_clean());
    }

    #[test]
    fn leaked_prepare_is_md063() {
        let mut m = SchedModel::new();
        m.wal_enabled = false;
        m.push(0, Op::BatchStart);
        m.push(1, Op::Prepare { engine: "a".into() });
        m.push(1, Op::Prepare { engine: "b".into() });
        m.push(0, Op::Rollback { engine: "b".into() });
        m.push(0, Op::BatchEnd);
        let report = check_schedule(&m);
        let leaks: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::Md063)
            .collect();
        assert_eq!(leaks.len(), 1, "{}", report.render());
        assert!(leaks[0].message.contains("'a'"));
        assert_eq!(report.error_count(), 0, "MD063 is a warning");
    }

    #[test]
    fn unmarked_step_lists_form_one_implicit_batch() {
        let mut m = SchedModel::new();
        m.push(1, Op::Prepare { engine: "a".into() });
        m.push(
            0,
            Op::WalAppend {
                table: "sale".into(),
                lsn: 1,
            },
        );
        m.push(0, Op::Commit { engine: "a".into() });
        assert!(check_schedule(&m).is_clean());
    }
}
