//! # `md-relation` — storage substrate for *mindetail*
//!
//! The bottom layer of the [mindetail](https://example.org/mindetail)
//! reproduction of *Akinde, Jensen & Böhlen, "Minimizing Detail Data in Data
//! Warehouses" (EDBT 1998)*. It provides everything the paper assumes of the
//! operational data sources:
//!
//! * typed, null-free [`value::Value`]s and [`schema::Schema`]s,
//! * [`table::BaseTable`]s with single-attribute keys,
//! * [`catalog::Catalog`]s with referential-integrity constraints and
//!   per-table *update contracts* (which columns updates may modify — the
//!   input to the exposed-update analysis in `md-core`),
//! * [`delta::Change`] streams that mutations emit,
//!   so a warehouse can be maintained without ever re-reading a source,
//! * bag-semantics relations ([`bag::Bag`]) used by the algebra layer, and
//! * [`key::GroupKey`], the group key the warehouse's maps hold in place,
//!   and [`order::sort_by_row`], the one kernel behind every key-order
//!   listing.
//!
//! The design goal is fidelity to the paper's model (Section 2.1): no nulls,
//! single-attribute keys, key joins, explicit insertion/deletion/update
//! streams with updates splittable into delete+insert.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bag;
pub mod catalog;
pub mod chunk;
pub mod codec;
pub mod delta;
pub mod error;
pub mod hash;
pub mod key;
pub mod order;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use bag::Bag;
pub use catalog::{Catalog, Database, ForeignKey, TableDef, TableId};
pub use chunk::{Chunk, ChunkBuilder};
pub use codec::{crc32, Decoder, Encoder};
pub use delta::Change;
pub use error::{RelationError, Result};
pub use hash::{SeededBuildHasher, SeededHashMap, SeededHashSet, SeededHasher};
pub use key::GroupKey;
pub use order::sort_by_row;
pub use row::{Row, RowKey};
pub use schema::{Column, Schema};
pub use table::{BaseTable, DEFAULT_CHUNK_ROWS};
pub use value::{total_cmp_nan_last, DataType, Value};
