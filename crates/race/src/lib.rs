//! # md-race — deterministic concurrency checking for the scheduler
//!
//! A dependency-free, loom-style model checker for the warehouse's
//! batch-maintenance scheduler. The scheduler's fan-out/join, WAL-append
//! and commit steps all run against `md-maintain`'s `Executor` trait; in
//! production that is real threads ([`md_maintain::ThreadExecutor`]),
//! under test it is this crate's cooperative [`StepExecutor`], which
//! serializes every thread at its yield points and hands control to
//! exactly one task at a time — so the interleaving is decided by data,
//! not by the OS scheduler, and every run is reproducible.
//!
//! On top of the stepper, the [`Explorer`] enumerates interleavings of a
//! [`Scenario`]: exhaustively (depth-first with backtracking) up to a
//! bounded number of scheduling decisions, seeded-random beyond the
//! bound. Every schedule is replayed from the same snapshot and checked
//! against the sequential oracle:
//!
//! * byte-identity of all summaries and auxiliary views,
//! * byte-identity of the change log,
//! * dead-letter determinism (rejected batches land identically on
//!   every interleaving),
//! * the ordering invariants of the recorded trace
//!   ([`trace_invariants`]): per-table LSN monotonicity,
//!   commit-after-append, no prepared engine leaked past its batch.
//!
//! The [`chaos`] module is the explorer's complement: instead of
//! enumerating interleavings of one fixed workload, it generates seeded
//! **fault storms** — transient I/O errors, engine-scoped mid-prepare
//! panics and crashes — and drives the warehouse's quarantine, repair
//! and retry machinery under them, checking audits, drain and
//! byte-identity with a sequential run of the identical storm.
//!
//! ```
//! use md_race::{retail_scenario, Explorer, RaceConfig};
//!
//! let scenario = retail_scenario(1, 4, 42);
//! let cfg = RaceConfig { bound: 4, random_schedules: 4, ..RaceConfig::default() };
//! let report = Explorer::new(&scenario, cfg).run();
//! println!("{}", report.summary());
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod explore;
pub mod scenario;
pub mod step;

pub use chaos::{run_chaos, silence_injected_panics, ChaosConfig, ChaosReport};
pub use explore::{trace_invariants, ExploreReport, Explorer, RaceConfig, Violation};
pub use scenario::{
    retail_fault_scenario, retail_panic_scenario, retail_scenario, retail_transient_wal_scenario,
    PlannedFault, Scenario, SnapshotScenario, RETAIL_RACE_VIEW_COUNT,
};
pub use step::{Decision, RunRecord, StepExecutor};
