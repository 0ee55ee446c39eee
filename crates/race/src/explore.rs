//! The schedule explorer: bounded-exhaustive + seeded-random replay.
//!
//! For a [`Scenario`], the explorer first computes the **sequential
//! oracle** — the scenario run to completion on one worker with the
//! production executor — and then replays the scenario under many
//! interleavings of the scheduler's yield points:
//!
//! * **exhaustively** over every scheduling decision up to
//!   [`RaceConfig::bound`], by depth-first backtracking over the
//!   stepper's recorded decisions (same discipline as loom's bounded
//!   model checking), and
//! * **randomly** for [`RaceConfig::random_schedules`] extra runs where
//!   every decision is drawn from the seeded stream, covering depths
//!   the bound cuts off.
//!
//! Every replay is checked three ways: byte-identity of the warehouse
//! image against the oracle (summaries + auxiliary views), byte-identity
//! of the change log and the dead-letter store, and the ordering
//! invariants of the recorded trace ([`trace_invariants`]). Any finding
//! becomes a [`Violation`] carrying the exact choice sequence and seed
//! that reproduce it.

use std::fmt;
use std::sync::Arc;

use md_maintain::{SchedEvent, SchedOp};
use md_obs::Obs;
use md_warehouse::Warehouse;

use crate::scenario::Scenario;
use crate::step::{RunRecord, StepExecutor};

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct RaceConfig {
    /// Worker threads the scheduler partitions engines across.
    pub workers: usize,
    /// Scheduling decisions enumerated exhaustively; deeper decisions
    /// are seeded-random.
    pub bound: usize,
    /// Hard cap on exhaustive schedules (safety valve; when hit, the
    /// report's `exhaustive` flag is false).
    pub max_schedules: usize,
    /// Extra runs with every decision randomized (depth coverage
    /// beyond the bound).
    pub random_schedules: usize,
    /// Base seed; every run's seed derives from it deterministically.
    pub seed: u64,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig {
            workers: 2,
            bound: 16,
            max_schedules: 5_000,
            random_schedules: 32,
            seed: 0xD1CE,
        }
    }
}

/// One schedule that violated an invariant, with everything needed to
/// reproduce it: `Explorer::replay(&violation.schedule, violation.seed)`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The full choice sequence of the offending run.
    pub schedule: Vec<usize>,
    /// The per-run seed (only relevant for choices the schedule does
    /// not cover).
    pub seed: u64,
    /// What was violated, one finding per line.
    pub findings: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "violation (seed={:#x}, schedule={:?}):",
            self.seed, self.schedule
        )?;
        for finding in &self.findings {
            writeln!(f, "  - {finding}")?;
        }
        Ok(())
    }
}

/// What an exploration run covered and found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Worker count explored.
    pub workers: usize,
    /// The decision bound.
    pub bound: usize,
    /// The base seed (prints with every report so any run reproduces).
    pub seed: u64,
    /// Distinct schedules visited by the exhaustive enumeration.
    pub schedules: u64,
    /// Extra fully-randomized schedules.
    pub random_schedules: u64,
    /// Whether the within-bound enumeration ran to completion.
    pub exhaustive: bool,
    /// Deepest decision count seen in any run.
    pub max_decisions: usize,
    /// Total scheduling events across all runs.
    pub events: u64,
    /// Every schedule that violated an invariant.
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// `true` when no schedule violated any invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} schedules ({} random) at workers={} bound={} seed={:#x} — {}{}",
            self.scenario,
            self.schedules + self.random_schedules,
            self.random_schedules,
            self.workers,
            self.bound,
            self.seed,
            if self.exhaustive {
                "exhaustive within bound, "
            } else {
                "enumeration capped, "
            },
            if self.is_clean() {
                "no violations".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// The final state of one run, compared byte-for-byte across schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StateDigest {
    image: Vec<u8>,
    wal: Vec<u8>,
    dead: Vec<String>,
    errors: Vec<String>,
}

impl StateDigest {
    fn capture(wh: &Warehouse, errors: Vec<String>) -> Self {
        StateDigest {
            image: wh.save().expect("warehouse snapshot serializes"),
            wal: wh.wal_bytes().expect("the log is always on").to_vec(),
            dead: wh
                .dead_letters()
                .iter()
                .map(|l| {
                    format!(
                        "table={} lsn={} changes={} index={:?} reason={}",
                        l.table.0,
                        l.lsn,
                        l.changes.len(),
                        l.change_index,
                        l.reason
                    )
                })
                .collect(),
            errors,
        }
    }
}

/// The schedule explorer over one scenario.
pub struct Explorer<'a> {
    scenario: &'a dyn Scenario,
    cfg: RaceConfig,
    obs: Obs,
}

impl<'a> Explorer<'a> {
    /// An explorer with no observability.
    pub fn new(scenario: &'a dyn Scenario, cfg: RaceConfig) -> Self {
        Explorer {
            scenario,
            cfg,
            obs: Obs::noop(),
        }
    }

    /// Registers the explorer's metrics (`race.schedules_explored`,
    /// `race.explored_depth`, `race.violations`,
    /// `race.events_per_schedule`) in `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs the full exploration: oracle, bounded-exhaustive DFS, then
    /// the randomized tail.
    pub fn run(&self) -> ExploreReport {
        let schedules_ctr = self.obs.counter("race.schedules_explored", &[]);
        let violations_ctr = self.obs.counter("race.violations", &[]);
        let depth_gauge = self.obs.gauge("race.explored_depth", &[]);
        let events_hist = self.obs.histogram("race.events_per_schedule", &[]);

        let oracle = self.sequential_oracle();
        let mut report = ExploreReport {
            scenario: self.scenario.name().to_owned(),
            workers: self.cfg.workers,
            bound: self.cfg.bound,
            seed: self.cfg.seed,
            exhaustive: true,
            ..ExploreReport::default()
        };

        // Bounded-exhaustive DFS: replay, then backtrack the deepest
        // within-bound decision that still has an untaken branch.
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            if report.schedules >= self.cfg.max_schedules as u64 {
                report.exhaustive = false;
                break;
            }
            let seed = per_run_seed(self.cfg.seed, report.schedules);
            let (record, digest) = self.run_schedule(&prefix, self.cfg.bound, seed);
            report.schedules += 1;
            schedules_ctr.incr();
            report.max_decisions = report.max_decisions.max(record.decisions.len());
            depth_gauge.set(report.max_decisions as i64);
            report.events += record.trace.len() as u64;
            events_hist.observe(record.trace.len() as u64);
            let findings = self.check_run(&record, &digest, &oracle);
            if !findings.is_empty() {
                violations_ctr.incr();
                report.violations.push(Violation {
                    schedule: record.schedule(),
                    seed,
                    findings,
                });
            }

            let mut next = None;
            for i in (0..record.decisions.len().min(self.cfg.bound)).rev() {
                let d = record.decisions[i];
                if d.picked + 1 < d.options {
                    let mut p = record.schedule();
                    p.truncate(i);
                    p.push(d.picked + 1);
                    next = Some(p);
                    break;
                }
            }
            match next {
                Some(p) => prefix = p,
                None => break,
            }
        }

        // Randomized tail: every decision from the seeded stream.
        for k in 0..self.cfg.random_schedules {
            let seed = per_run_seed(self.cfg.seed ^ 0xACE0_FBA5E, k as u64);
            let (record, digest) = self.run_schedule(&[], 0, seed);
            report.random_schedules += 1;
            schedules_ctr.incr();
            report.max_decisions = report.max_decisions.max(record.decisions.len());
            depth_gauge.set(report.max_decisions as i64);
            report.events += record.trace.len() as u64;
            events_hist.observe(record.trace.len() as u64);
            let findings = self.check_run(&record, &digest, &oracle);
            if !findings.is_empty() {
                violations_ctr.incr();
                report.violations.push(Violation {
                    schedule: record.schedule(),
                    seed,
                    findings,
                });
            }
        }
        report
    }

    /// Replays one schedule and returns its findings — empty when the
    /// run upholds every invariant. `Violation::schedule` +
    /// `Violation::seed` reproduce a reported violation exactly.
    pub fn replay(&self, schedule: &[usize], seed: u64) -> Vec<String> {
        let oracle = self.sequential_oracle();
        let (record, digest) = self.run_schedule(schedule, self.cfg.bound, seed);
        self.check_run(&record, &digest, &oracle)
    }

    /// The scenario run on one worker with the production executor: the
    /// serialization every explored schedule must be equivalent to.
    fn sequential_oracle(&self) -> StateDigest {
        let mut wh = self.scenario.build(Warehouse::builder().workers(1));
        let errors = apply_all(&mut wh, self.scenario);
        StateDigest::capture(&wh, errors)
    }

    fn run_schedule(&self, forced: &[usize], bound: usize, seed: u64) -> (RunRecord, StateDigest) {
        let exec = Arc::new(StepExecutor::new());
        exec.begin_run(forced, bound, seed);
        let builder = Warehouse::builder()
            .workers(self.cfg.workers)
            .executor(exec.clone());
        let mut wh = self.scenario.build(builder);
        let errors = apply_all(&mut wh, self.scenario);
        let record = exec.finish_run();
        let digest = StateDigest::capture(&wh, errors);
        (record, digest)
    }

    fn check_run(
        &self,
        record: &RunRecord,
        digest: &StateDigest,
        oracle: &StateDigest,
    ) -> Vec<String> {
        let mut findings = Vec::new();
        if digest.image != oracle.image {
            findings.push("summary/auxiliary state diverged from the sequential oracle".to_owned());
        }
        if digest.wal != oracle.wal {
            findings.push("change log diverged from the sequential oracle".to_owned());
        }
        if digest.dead != oracle.dead {
            findings.push(format!(
                "dead letters diverged from the sequential oracle ({:?} vs {:?})",
                digest.dead, oracle.dead
            ));
        }
        if digest.errors != oracle.errors {
            findings.push(format!(
                "apply errors diverged from the sequential oracle ({:?} vs {:?})",
                digest.errors, oracle.errors
            ));
        }
        findings.extend(trace_invariants(&record.trace));
        findings
    }
}

fn apply_all(wh: &mut Warehouse, scenario: &dyn Scenario) -> Vec<String> {
    let mut errors = Vec::new();
    for batch in scenario.batches() {
        if let Err(e) = wh.apply_batch(batch) {
            errors.push(e.to_string());
        }
    }
    errors
}

/// splitmix64 over the base seed and run index: independent, documented,
/// reproducible per-run seeds.
fn per_run_seed(base: u64, run: u64) -> u64 {
    let mut z = base
        .wrapping_add(run.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The ordering check every recorded trace goes through: per-table LSN
/// monotonicity across the whole run, commit-after-append within each
/// batch, and no prepared engine left uncommitted and un-rolled-back
/// past its batch's end. One finding per violation; empty when the
/// trace upholds all three.
pub fn trace_invariants(trace: &[SchedEvent]) -> Vec<String> {
    let mut findings = Vec::new();
    let mut last_lsn: std::collections::BTreeMap<usize, u64> = Default::default();
    let mut appended_this_batch = false;
    let mut open: Vec<&str> = Vec::new();
    for event in trace {
        match &event.op {
            SchedOp::BatchStart { .. } => appended_this_batch = false,
            SchedOp::WalAppend { table, lsn } => {
                appended_this_batch = true;
                if let Some(prev) = last_lsn.get(&table.0) {
                    if *lsn <= *prev {
                        findings.push(format!(
                            "WAL LSN regression on table {}: {} after {}",
                            table.0, lsn, prev
                        ));
                    }
                }
                last_lsn.insert(table.0, *lsn);
            }
            SchedOp::PrepareDone { engine, ok: true } => open.push(engine),
            SchedOp::Commit { engine } => {
                if !appended_this_batch {
                    findings.push(format!(
                        "engine '{engine}' committed before the batch's WAL append"
                    ));
                }
                open.retain(|e| e != engine);
            }
            SchedOp::Rollback { engine } => open.retain(|e| e != engine),
            SchedOp::BatchEnd { .. } => {
                for engine in open.drain(..) {
                    findings.push(format!(
                        "engine '{engine}' left a prepared transaction open past the batch's end"
                    ));
                }
            }
            _ => {}
        }
    }
    findings
}
