//! Acceptance tests for the schedule explorer: exhaustive coverage on
//! the retail batch workload, reproducibility from the printed seed and
//! schedule, sensitivity of the trace check to each ordering bug, and
//! dead-letter determinism.

use std::sync::Arc;

use md_maintain::{SchedEvent, SchedOp};
use md_race::{
    retail_fault_scenario, retail_scenario, trace_invariants, Explorer, RaceConfig, RunRecord,
    Scenario, SnapshotScenario, StepExecutor,
};
use md_warehouse::Warehouse;

/// The headline guarantee: at `workers = 2` the retail workload's
/// prepare fan-out (two tasks, six yield points each) has C(12, 6) = 924
/// interleavings, and the explorer visits every one of them within the
/// bound — well past the 500-schedule floor — with byte-identity against
/// the sequential oracle and the trace invariants clean on every
/// schedule.
#[test]
fn retail_workload_explores_exhaustively_and_cleanly() {
    let scenario = retail_scenario(1, 6, 7);
    let cfg = RaceConfig {
        workers: 2,
        bound: 12,
        max_schedules: 10_000,
        random_schedules: 16,
        seed: 0xD1CE,
    };
    let report = Explorer::new(&scenario, cfg).run();
    println!("{}", report.summary());
    assert!(report.exhaustive, "enumeration must finish within the cap");
    assert_eq!(
        report.schedules, 924,
        "two tasks with six yields each have C(12,6) interleavings"
    );
    assert!(report.schedules >= 500, "acceptance floor");
    assert_eq!(report.random_schedules, 16);
    assert!(
        report.is_clean(),
        "violations found:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Wider fan-out explores cleanly too: four workers over the same
/// workload, a bounded sweep plus a seeded-random tail.
#[test]
fn four_workers_explore_cleanly() {
    let scenario = retail_scenario(1, 6, 7);
    let cfg = RaceConfig {
        workers: 4,
        bound: 6,
        max_schedules: 200,
        random_schedules: 8,
        seed: 0xD1CE,
    };
    let report = Explorer::new(&scenario, cfg).run();
    assert!(report.schedules > 0 && report.random_schedules == 8);
    assert!(report.is_clean(), "{}", report.summary());
}

/// The same configuration explored twice produces the identical report:
/// schedule count, depth, event count. Determinism is what makes a
/// printed seed a bug report.
#[test]
fn exploration_is_deterministic_for_a_seed() {
    let scenario = retail_scenario(1, 4, 21);
    let cfg = RaceConfig {
        bound: 6,
        max_schedules: 2_000,
        random_schedules: 8,
        seed: 0xBEEF,
        ..RaceConfig::default()
    };
    let a = Explorer::new(&scenario, cfg.clone()).run();
    let b = Explorer::new(&scenario, cfg).run();
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.random_schedules, b.random_schedules);
    assert_eq!(a.max_decisions, b.max_decisions);
    assert_eq!(a.events, b.events);
    assert_eq!(a.violations.len(), b.violations.len());
}

/// One run of `scenario` at two workers on the stepper: decisions the
/// `forced` schedule does not cover are drawn from `seed`'s stream.
/// Returns the record with the final image and change log.
fn record(
    scenario: &SnapshotScenario,
    forced: &[usize],
    seed: u64,
) -> (RunRecord, Vec<u8>, Vec<u8>) {
    let exec = Arc::new(StepExecutor::new());
    exec.begin_run(forced, 0, seed);
    let mut wh = scenario.build(Warehouse::builder().workers(2).executor(exec.clone()));
    for batch in scenario.batches() {
        wh.apply_batch(batch).expect("clean workload commits");
    }
    let log = wh.wal_bytes().expect("the log is always on").to_vec();
    (exec.finish_run(), wh.save().unwrap(), log)
}

fn position(trace: &[SchedEvent], pred: impl Fn(&SchedOp) -> bool) -> usize {
    trace
        .iter()
        .position(|e| pred(&e.op))
        .expect("the clean trace has such an event")
}

/// The checker is sensitive to each ordering bug it exists to catch,
/// shown on the recorded trace of the real scheduler rather than by a
/// bug planted in it: one clean trace, three hand-made mutations, one
/// named finding each. (Two batches, so the fact table is appended
/// twice and an LSN can regress.)
#[test]
fn trace_invariants_catch_each_ordering_mutation() {
    let scenario = retail_scenario(2, 6, 7);
    let (clean, _, _) = record(&scenario, &[], 0xF00D);
    assert_eq!(trace_invariants(&clean.trace), Vec::<String>::new());

    let first_commit = position(&clean.trace, |op| matches!(op, SchedOp::Commit { .. }));
    let SchedOp::Commit { engine } = clean.trace[first_commit].op.clone() else {
        unreachable!()
    };

    // The first batch's first commit moved ahead of its log appends.
    let mut reordered = clean.trace.clone();
    let commit = reordered.remove(first_commit);
    let first_append = position(&reordered, |op| matches!(op, SchedOp::WalAppend { .. }));
    reordered.insert(first_append, commit);
    assert_eq!(
        trace_invariants(&reordered),
        vec![format!(
            "engine '{engine}' committed before the batch's WAL append"
        )]
    );

    // The second batch's fact-table frame re-uses the first batch's LSN.
    let mut regressed = clean.trace.clone();
    let (table, first_lsn) = match &regressed[first_append].op {
        SchedOp::WalAppend { table, lsn } => (*table, *lsn),
        _ => unreachable!(),
    };
    let second = regressed
        .iter_mut()
        .filter_map(|e| match &mut e.op {
            SchedOp::WalAppend { table: t, lsn } if *t == table => Some(lsn),
            _ => None,
        })
        .nth(1)
        .expect("two batches append the fact table twice");
    *second = first_lsn;
    assert_eq!(
        trace_invariants(&regressed),
        vec![format!(
            "WAL LSN regression on table {}: {first_lsn} after {first_lsn}",
            table.0
        )]
    );

    // A commit dropped: the prepared engine leaks past the batch's end.
    let mut leaked = clean.trace.clone();
    leaked.remove(first_commit);
    assert_eq!(
        trace_invariants(&leaked),
        vec![format!(
            "engine '{engine}' left a prepared transaction open past the batch's end"
        )]
    );
}

/// A run is reproducible from its coordinates alone: forcing a recorded
/// schedule replays the identical trace, image and log whatever the
/// seed, and the explorer's replay of it reports the same (empty)
/// findings.
#[test]
fn a_recorded_schedule_replays_from_its_coordinates() {
    let scenario = retail_scenario(1, 6, 7);
    let (first, image, log) = record(&scenario, &[], 0xF00D);
    assert!(first.decisions.len() > 1, "the fan-out has branch points");
    let (again, image_again, log_again) = record(&scenario, &first.schedule(), 0xBAD_5EED);
    assert_eq!(again.trace, first.trace);
    assert_eq!(again.schedule(), first.schedule());
    assert_eq!((image_again, log_again), (image, log));

    let explorer = Explorer::new(&scenario, RaceConfig::default());
    assert_eq!(
        explorer.replay(&first.schedule(), 0xBAD_5EED),
        trace_invariants(&first.trace)
    );
}

/// A poisoned batch (deleting a row that never existed) is rejected
/// identically on every interleaving: same error, same dead letters,
/// same surviving state as the sequential oracle.
#[test]
fn dead_letters_are_deterministic_across_schedules() {
    let scenario = retail_fault_scenario(11);
    let cfg = RaceConfig {
        bound: 8,
        max_schedules: 2_000,
        random_schedules: 8,
        seed: 0xACE,
        ..RaceConfig::default()
    };
    let report = Explorer::new(&scenario, cfg).run();
    println!("{}", report.summary());
    assert!(report.exhaustive);
    assert!(
        report.schedules > 100,
        "the surviving batches still fan out: {} schedules",
        report.schedules
    );
    assert!(
        report.is_clean(),
        "dead-letter handling must not depend on the schedule:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
