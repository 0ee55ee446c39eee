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
//! * the view AST ([`GpsjView`], [`SelectItem`], [`Condition`]),
//! * aggregate semantics including multiplicity-aware accumulation (an
//!   accumulator takes a value `n` times) — the primitive behind the
//!   paper's `f(a · cnt₀)` reconstruction rule — over exact sums
//!   ([`ExpansionSum`]: Shewchuk expansions, rounded once), and
//! * a full bag-semantics evaluator ([`eval_view`]) used as the
//!   recomputation baseline and as the correctness oracle for the
//!   incremental maintenance engine in `md-maintain`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]
#![warn(rust_2018_idioms)]

mod agg;
mod error;
mod eval;
mod expansion;
mod having;
mod pred;
mod view;

pub use agg::{AggFunc, Aggregate, SelectItem};
pub use error::{AlgebraError, DefectKind, ViewDefect, ViewSite};
pub use eval::eval_view;
pub use expansion::ExpansionSum;
pub use having::{having_passes, HavingCond};
pub use pred::{eval_all, CmpOp, ColRef, Condition, Operand, RowEnv};
pub use view::GpsjView;
