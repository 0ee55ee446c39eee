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
#![warn(unreachable_pub)]
#![warn(unnameable_types)]
#![warn(rust_2018_idioms)]

mod builder;
mod error;
mod quarantine;
mod recovery;
mod warehouse;

pub use builder::WarehouseBuilder;
pub use error::WarehouseError;
pub use quarantine::{QuarantineEntry, RepairReport};
pub use warehouse::{DeadLetter, DeadLetterStore, SchedulerStats, SharedDetail, Warehouse};

// The other layers' names that callers reach through the facade.
pub use md_core::derive;
pub use md_maintain::{ChangeBatch, FaultPlan, MaintStats};
pub use md_obs::ObsConfig;
pub use md_sql::parse_view;
