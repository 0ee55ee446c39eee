//! # `md-bench` — the shell and the paper-table printers
//!
//! Regenerates the deterministic artifacts of the paper (see
//! `EXPERIMENTS.md` at the repository root for the experiment index):
//!
//! | id | artifact | binary |
//! |----|----------|--------|
//! | E1 | §1.1 storage table (245 GB → 167 MB) | `report_storage` |
//! | E2 | Table 1 (SMA/SMAS classification)    | `report_aggregates` |
//! | E3 | Table 2 (CSMAS rewrites)             | `report_aggregates` |
//! | E4 | Tables 3–4 (duplicate compression)   | `report_compression` |
//! | E5 | Figure 2 (extended join graph)       | `report_joingraph` |
//! | E6 | §3.2 `product_sales_max`             | `report_compression` |
//! | E7 | §3.3 elimination conditions          | `report_elimination` |
//! | E8 | compression sweep                    | `report_storage` |
//! | E9 | incremental vs. recomputation        | see `benchmark/` |
//! | E10| GPSJ vs. PSJ detail data             | `report_storage` |
//! | E11| observability overhead               | see `benchmark/` |
//!
//! The report binaries print the same rows/series the paper reports and
//! time nothing; every runtime claim is measured by `benchmark/`
//! (`mdbench`). The `mindetail` binary is the interactive shell.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod sched_report;
pub mod table;

pub use experiments::*;
pub use sched_report::format_sched;
pub use table::TableWriter;
