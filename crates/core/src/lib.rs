//! # `md-core` — deriving minimal auxiliary views for GPSJ views
//!
//! The heart of the *mindetail* reproduction of *Akinde, Jensen & Böhlen,
//! "Minimizing Detail Data in Data Warehouses" (EDBT 1998)*: given a
//! materialized GPSJ view `V`, derive the **unique minimal set of auxiliary
//! views `X`** such that `{V} ∪ X` is self-maintainable under insertions,
//! deletions and updates to the base tables — without ever accessing the
//! (possibly unreachable) data sources.
//!
//! The pipeline, mirroring the paper:
//!
//! 1. [`aggregates`] — classify the view's aggregates (Tables 1–2):
//!    `COUNT`/`SUM`/`AVG` form completely self-maintainable aggregate sets
//!    (CSMAS) after rewriting; `MIN`/`MAX` and `DISTINCT` aggregates do not.
//! 2. [`join_graph`] — build the extended join graph `G(V)` (Definition 2)
//!    with `g`/`k` annotations, classifying each edge once by the
//!    *depends* relation (key join + referential integrity + no
//!    [`exposure`]d updates). Every other layer reads these verdicts.
//! 3. [`mod@need`] — the `Need`/`Need₀` functions (Definitions 3–4).
//! 4. [`compression`] — local reduction and smart duplicate compression
//!    (Algorithm 3.1).
//! 5. [`mod@derive`] — Algorithm 3.2, assembling [`aux::AuxViewDef`]s and
//!    eliminating omissible auxiliary views. The plan records why each
//!    entry is kept ([`Blocker`]s: every failed condition) or omitted
//!    ([`Omission`]); md-check's plan audit and the warehouse's
//!    `explain` read that record. How `V` is rebuilt from `X` is left to
//!    the engine, which reads each aggregate's input off Table 2
//!    ([`rewrite`]) and the retained columns.
//!
//! [`size_model`] reproduces the paper's Section 1.1 storage arithmetic
//! (245 GBytes → 167 MBytes).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregates;
pub mod aux;
pub mod compression;
pub mod derive;
pub mod error;
pub mod exposure;
pub mod join_graph;
pub mod need;
pub mod size_model;

pub use aggregates::{
    classify, is_sma, regime_of, rewrite, smas_companions, AggClass, ChangeKind, ChangeRegime,
    Rewrite,
};
pub use aux::{AuxColKind, AuxColumn, AuxViewDef};
pub use compression::{compress, CompressionSpec};
pub use derive::{derive, AuxEntry, Blocker, DerivedPlan, Omission};
pub use error::{CoreError, Result, TreeDefect, TreeDefectKind};
pub use exposure::exposed_columns;
pub use join_graph::{Annotation, Dependence, EdgeBlock, ExtendedJoinGraph, JoinEdge};
pub use need::{need, need0, need_others};
pub use size_model::{human_bytes, human_nanos, RetailModel};
