//! # `md-warehouse` — the mindetail data warehouse facade
//!
//! The top-level public API of the *mindetail* reproduction of
//! *Akinde, Jensen & Böhlen, "Minimizing Detail Data in Data Warehouses"
//! (EDBT 1998)*. A [`Warehouse`] registers GPSJ summary views (from SQL or
//! ASTs), derives and materializes their **minimal auxiliary views**
//! (Algorithm 3.2: local + join reductions, smart duplicate compression,
//! auxiliary-view elimination) and self-maintains everything under source
//! change streams — the sources are read exactly once, at registration.
//!
//! See the crate-level example on [`Warehouse`], the runnable programs in
//! the repository's `examples/` directory, and `DESIGN.md` for the full
//! architecture.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
pub mod error;
mod quarantine;
mod recovery;
pub mod warehouse;

pub use error::{Result, WarehouseError};
pub use warehouse::{
    DeadLetter, DeadLetterStore, SchedulerStats, SharedDetail, Warehouse, WarehouseBuilder,
};

// Re-export the layers a downstream user typically needs alongside the
// facade, so `md-warehouse` can be used as a single dependency.
pub use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
pub use md_core::{derive, DerivedPlan, RetailModel};
pub use md_maintain::{ChangeBatch, FaultPlan, MaintStats, StorageLine, Wal};
pub use md_obs::{Obs, ObsConfig};
pub use md_relation::{Bag, Catalog, Change, DataType, Database, Row, Schema, TableId, Value};
pub use md_sql::{parse_view, view_to_sql};
