//! # `md-algebra` — GPSJ views and their evaluation
//!
//! The relational-algebra layer of the *mindetail* reproduction of
//! *Akinde, Jensen & Böhlen, "Minimizing Detail Data in Data Warehouses"
//! (EDBT 1998)*.
//!
//! A **GPSJ view** (generalized project–select–join view, paper Section 2.1)
//! is `Π_A σ_S (R₁ ⋈ … ⋈ Rₙ)` where the generalized projection `Π_A` mixes
//! group-by attributes with the five SQL aggregates (optionally `DISTINCT`),
//! `σ_S` is a conjunctive selection, and all joins are key joins. The paper
//! calls this "the single most important class of SQL statements used in
//! data warehousing".
//!
//! This crate provides:
//!
//! * the view AST ([`view::GpsjView`], [`agg::SelectItem`],
//!   [`pred::Condition`]),
//! * aggregate semantics including multiplicity-aware accumulation
//!   ([`agg::Accumulator::update_n`]) — the primitive behind the paper's
//!   `f(a · cnt₀)` reconstruction rule — over exact sums
//!   ([`expansion::ExpansionSum`]: Shewchuk expansions, rounded once), and
//! * a full bag-semantics evaluator ([`eval::eval_view`]) used as the
//!   recomputation baseline and as the correctness oracle for the
//!   incremental maintenance engine in `md-maintain`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod error;
pub mod eval;
pub mod expansion;
pub mod having;
pub mod pred;
pub mod view;

pub use agg::{Accumulator, AggFunc, Aggregate, SelectItem};
pub use error::{AlgebraError, DefectKind, Result, ViewDefect, ViewSite};
pub use eval::eval_view;
pub use expansion::ExpansionSum;
pub use having::{having_passes, HavingCond};
pub use pred::{CmpOp, ColRef, Condition, Operand, RowEnv};
pub use view::GpsjView;
