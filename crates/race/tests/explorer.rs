//! Acceptance tests for the schedule explorer: exhaustive coverage on
//! the retail batch workload, reproducibility from the printed seed and
//! schedule, planted-bug detection, and dead-letter determinism.

use md_race::{retail_fault_scenario, retail_scenario, Explorer, RaceConfig};

/// The headline guarantee: at `workers = 2` the retail workload's
/// prepare fan-out (two tasks, six yield points each) has C(12, 6) = 924
/// interleavings, and the explorer visits every one of them within the
/// bound — well past the 500-schedule floor — with byte-identity against
/// the sequential oracle, LSN monotonicity, and the `MD06x` pass clean
/// on every schedule.
#[test]
fn retail_workload_explores_exhaustively_and_cleanly() {
    let scenario = retail_scenario(1, 6, 7);
    let cfg = RaceConfig {
        workers: 2,
        bound: 12,
        max_schedules: 10_000,
        random_schedules: 16,
        seed: 0xD1CE,
        check_static: true,
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
        check_static: true,
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

/// The planted commit-before-append bug is caught: both the direct
/// trace invariant and the `MD060` static pass flag it, on a bounded
/// exhaustive sweep and on seeded-random schedules alike — and a
/// reported violation replays from its printed schedule and seed.
#[test]
fn planted_commit_reordering_bug_is_caught_and_replays() {
    let scenario = retail_scenario(1, 6, 7).with_planted_bug();
    let cfg = RaceConfig {
        bound: 3,
        max_schedules: 64,
        random_schedules: 4,
        seed: 0xF00D,
        ..RaceConfig::default()
    };
    let explorer = Explorer::new(&scenario, cfg);
    let report = explorer.run();
    assert!(
        !report.is_clean(),
        "the planted bug must be caught on every schedule"
    );
    assert_eq!(
        report.violations.len() as u64,
        report.schedules + report.random_schedules,
        "commit-before-append is unconditional, so every schedule trips it"
    );
    for v in &report.violations {
        assert!(
            v.findings.iter().any(|f| f.contains("MD060")),
            "static pass flags the reordering: {:?}",
            v.findings
        );
    }
    let v = &report.violations[0];
    assert!(
        v.findings
            .iter()
            .any(|f| f.contains("committed before the batch's WAL append")),
        "trace invariant flags the reordering: {:?}",
        v.findings
    );
    // Reproduce from the printed coordinates alone.
    let replayed = explorer.replay(&v.schedule, v.seed);
    assert_eq!(replayed, v.findings, "violation replays byte-for-byte");
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
