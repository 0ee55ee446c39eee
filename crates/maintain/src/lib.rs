//! # `md-maintain` — self-maintenance of GPSJ views over minimal detail data
//!
//! The runtime half of the *mindetail* reproduction of *Akinde, Jensen &
//! Böhlen, "Minimizing Detail Data in Data Warehouses" (EDBT 1998)*: it
//! materializes the auxiliary views derived by `md-core` and keeps
//! `{V} ∪ X` consistent under source change streams **without base-table
//! access** — the paper's definition of self-maintainability.
//!
//! * [`AuxStore`] — compressed auxiliary view contents
//!   (`group key → (SUMs, COUNT(*))`), the materialization of Tables 3→4.
//! * [`SummaryStore`] — the summary view with per-group aggregate
//!   states: CSMAS aggregates adjust in place, `MIN`/`MAX`/`DISTINCT`
//!   are read off the group's value counts of their argument.
//! * [`ExactSum`] — the one accumulator behind every `SUM` and
//!   `AVG`, in `X` and in `V`: exact, so order-free, rounded once at emit.
//! * [`StoreRegistry`] — every auxiliary store held once per
//!   canonical definition, however many summaries read it, and folded once
//!   per batch ([`PreparedBatch`] drives a batch over the stores and
//!   their summaries).
//! * [`SummaryEngine`] — one summary's engine over borrowed
//!   stores: root deltas as runs through the summary kernel, dimension
//!   changes as deltas on top, and `V` rebuilt from `X` in one place,
//!   by the paper's reconstruction query (Sections 1.1 and 3.2). A
//!   warehouse runs one per summary over one registry, and tests run the
//!   same pair.
//! * [`FaultPlan`] — named points a test arms to crash or panic. A
//!   crash is also the one shape of a storage fault: nothing retries it.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]
#![warn(rust_2018_idioms)]

mod batch;
mod canon;
mod engine;
mod error;
mod exact;
mod fault;
mod filter;
mod groups;
mod pass;
mod reconstruct;
mod registry;
mod resolve;
mod snapshot;
mod standalone;
mod store;
mod summary;
mod wal;

pub use batch::{coalesce, ChangeBatch};
pub use engine::{AuditReport, MaintStats, StorageLine, SummaryEngine};
pub use error::{MaintainError, Result};
pub use exact::ExactSum;
pub use fault::FaultPlan;
pub use pass::PreparedBatch;
pub use registry::{StoreId, StoreRegistry};
pub use snapshot::SNAPSHOT_VERSION;
#[doc(hidden)]
pub use standalone::MaintenanceEngine;
pub use store::{AuxGroupState, AuxStore, Sums};
pub use summary::{AggState, AggStates, GroupState, SummaryStore, ValueCounts};
pub use wal::{Frame, FrameCursor, Wal, WalRecord, WAL_VERSION};

use md_algebra::{eval_view, GpsjView};
use md_relation::{Bag, Database};

/// The recomputation baseline: evaluates `view` from the base tables — what
/// a warehouse without auxiliary views would have to do on every change
/// (and cannot do at all when the sources are unreachable).
pub fn recompute_from_sources(view: &GpsjView, db: &Database) -> Result<Bag> {
    eval_view(view, db).map_err(MaintainError::from)
}
