//! # `md-relation` — storage substrate for *mindetail*
//!
//! The bottom layer of the [mindetail](https://example.org/mindetail)
//! reproduction of *Akinde, Jensen & Böhlen, "Minimizing Detail Data in Data
//! Warehouses" (EDBT 1998)*. It provides everything the paper assumes of the
//! operational data sources:
//!
//! * typed, null-free [`Value`]s and [`Schema`]s,
//! * [`BaseTable`]s with single-attribute keys,
//! * [`Catalog`]s with referential-integrity constraints and
//!   per-table *update contracts* (which columns updates may modify — the
//!   input to the exposed-update analysis in `md-core`),
//! * [`Change`] streams that mutations emit,
//!   so a warehouse can be maintained without ever re-reading a source,
//! * bag-semantics relations ([`Bag`]) used by the algebra layer, and
//! * [`GroupKey`], the group key the warehouse's maps hold in place,
//!   and [`sort_by_row`], the one kernel behind every key-order
//!   listing.
//!
//! The design goal is fidelity to the paper's model (Section 2.1): no nulls,
//! single-attribute keys, key joins, explicit insertion/deletion/update
//! streams with updates splittable into delete+insert.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]
#![warn(rust_2018_idioms)]

mod bag;
mod catalog;
mod chunk;
mod codec;
mod delta;
mod error;
mod hash;
mod key;
mod order;
mod row;
mod schema;
mod table;
mod value;

pub use bag::Bag;
pub use catalog::{Catalog, Database, ForeignKey, TableDef, TableId};
pub use chunk::Chunk;
pub use codec::{crc32, Decoder, Encoder};
pub use delta::{Change, ChangeRef};
pub use error::{RelationError, Result};
pub use hash::{SeededBuildHasher, SeededHashMap, SeededHashSet, SeededHasher};
pub use key::GroupKey;
pub use order::{from_order_word, order_word, sort_by_row};
pub use row::{Row, RowKey};
pub use schema::{Column, Schema};
pub use table::{BaseTable, DEFAULT_CHUNK_ROWS};
pub use value::{DataType, Value};
