//! # `md-bench` — the `mindetail` shell
//!
//! The library half of the `mindetail` binary: the `\sched` report
//! renderer, kept here so it can be tested with hand-built numbers.
//!
//! The paper's figures (`EXPERIMENTS.md` at the repository root) are
//! pinned by tests, shown live by the shell's `\explain` and `\storage`
//! and by `cargo run --example retail_star`; every runtime claim is
//! measured by `benchmark/` (`mdbench`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod sched_report;

pub use sched_report::format_sched;
