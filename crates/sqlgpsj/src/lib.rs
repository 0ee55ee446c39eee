//! # `md-sql` — SQL front end for GPSJ views
//!
//! The paper writes every view as SQL (`CREATE VIEW … AS SELECT … FROM …
//! WHERE … GROUP BY …`); this crate parses exactly that subset — the five
//! aggregates, `DISTINCT`, `COUNT(*)`, key joins and conjunctive `WHERE`
//! clauses — resolves names against a catalog into a validated
//! [`md_algebra::GpsjView`], and renders views (and the derived auxiliary
//! views) back to SQL in the paper's style.
//!
//! ```
//! use md_relation::{Catalog, DataType, Schema};
//! use md_sql::parse_view;
//!
//! let mut cat = Catalog::new();
//! cat.add_table(
//!     "t",
//!     Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Int)]),
//!     0,
//! )
//! .unwrap();
//! let view = parse_view("SELECT t.x, COUNT(*) AS n FROM t GROUP BY t.x", &cat, "q").unwrap();
//! assert_eq!(view.aggregates().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod parser;
pub mod print;
pub mod resolve;
pub mod token;

pub use error::{ResolveDefect, ResolveKind, SqlError, SqlResult};
pub use parser::{parse, ParsedSpans, ParsedView, Span};
pub use print::{aux_view_to_sql, sql_literal, view_to_sql};
pub use resolve::{parse_view, resolve};
