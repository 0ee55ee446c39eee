//! Reconstruction of the summary view from the auxiliary views alone.
//!
//! Implements the paper's reconstruction semantics (Sections 1.1 and 3.2):
//! join the auxiliary views along the extended join graph, group by the
//! view's group-by attributes, and evaluate each aggregate with the
//! duplicate-compression rules — `COUNT(*)`, and `COUNT(a)` by Table 2,
//! `= Σ cnt₀`, pre-aggregated `SUM` columns added distributively, raw
//! CSMAS attributes contributing `a · cnt₀`, and `MIN`/`MAX`/`DISTINCT`
//! aggregates reading raw values (duplicates are irrelevant to them).
//! Where each aggregate reads its input is derived once per engine, by
//! [`agg_inputs`] from Table 2 ([`md_core::rewrite`]).
//!
//! The query reads *compressed root tuples* ([`RootTuple`]): the groups of
//! `X_{R₀}` — or, when Algorithm 3.2 eliminated `X_{R₀}` under the general
//! regime, the groups of `V` itself. Elimination there requires every
//! direct root child to be `k`-annotated and every root-sourced aggregate
//! to be CSMAS, so a group of `V` already is one compressed root tuple:
//! its key holds each root foreign key (at the position of the child key
//! it equals) and each root group column, its `SUM` states the
//! root-sourced sums, its hidden count `cnt₀`. A root-delta run is one
//! more: a signed `ΔX_{R₀}` tuple, its key the run key, its sums the
//! run's net sums in the layout of the tuples it stands for, its weight
//! `(net, low)`: its occurrences' summed sign and the lowest their running
//! sum falls to. One borrowed walk, [`ReconExecutor::share_of`], takes
//! each shape to its share of `V`, and the summary's own run kernel,
//! [`SummaryStore::apply_run`], folds it — a held tuple as an occurrence
//! weighing `cnt₀`. It serves every rebuild of `V` from `X` — the initial
//! load, repair, a quarantined summary's image, all through
//! `SummaryEngine::reconstructed` — the audit, the dimension deltas
//! (`dimension.rs`), which resolve the tuples a change joins under the
//! dimension stores before and after it, and the root deltas.
//!
//! An append-only plan without `X_{R₀}` has no reconstruction — its
//! dimensions are insert-only, so no group of `V` ever moves, and `V` is
//! its own rebuild — but its root-delta runs take the walk all the same.

use md_algebra::ColRef;
use md_core::{rewrite, AuxViewDef, ChangeRegime, DerivedPlan, Rewrite};
use md_relation::{Catalog, GroupKey, Value};

use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::registry::ViewStores;
use crate::resolve::{Binding, Resolution};
use crate::store::AuxGroupState;
use crate::summary::{AggState, GroupState, RunArg, SummaryStore};

/// The reconstruction query over one summary's stores.
pub(crate) struct ReconExecutor<'a> {
    plan: &'a DerivedPlan,
    catalog: &'a Catalog,
    /// The store of every table the summary materializes.
    aux: ViewStores<'a>,
    /// The view's group-by columns and each aggregate's input
    /// ([`agg_inputs`]), derived once by the engine.
    group_cols: &'a [ColRef],
    inputs: &'a [AggInput],
}

/// A compressed root tuple: the sums it holds for the base rows it stands
/// for — a stored one, or a root-delta run's net sums.
pub(crate) trait RootTuple {
    /// Whether the tuple joins through to every dimension, always: a
    /// group of `V` stands for facts that did, and eliminating `X_{R₀}`
    /// takes referential integrity and no exposed update on every edge, so
    /// nothing can make them stop.
    const ALWAYS_JOINS: bool;
    /// Its sum at `pos` (see [`AggInput::Root`]), which its plan lays out.
    fn sum(&self, pos: usize) -> &ExactSum;
}

/// A compressed root tuple a summary's stores hold, standing for `cnt₀`
/// base rows.
pub(crate) trait HeldTuple: RootTuple {
    /// `cnt₀`.
    fn weight(&self) -> u64;
}

/// A group of `X_{R₀}`.
impl RootTuple for AuxGroupState {
    const ALWAYS_JOINS: bool = false;

    fn sum(&self, pos: usize) -> &ExactSum {
        &self.sums[pos]
    }
}

impl HeldTuple for AuxGroupState {
    fn weight(&self) -> u64 {
        self.cnt
    }
}

/// A group of a `V` whose `X_{R₀}` was eliminated.
impl RootTuple for GroupState {
    const ALWAYS_JOINS: bool = true;

    fn sum(&self, pos: usize) -> &ExactSum {
        match &self.aggs[pos] {
            AggState::Sum(sum) => sum,
            state => unreachable!("a SUM or AVG's state is a sum, not {state:?}"),
        }
    }
}

impl HeldTuple for GroupState {
    fn weight(&self) -> u64 {
        self.hidden_cnt
    }
}

/// A root-delta run's net sums, in the layout of the tuples it stands
/// for; its weight `(net, low)` travels beside them.
impl RootTuple for [ExactSum] {
    const ALWAYS_JOINS: bool = false;

    fn sum(&self, pos: usize) -> &ExactSum {
        &self[pos]
    }
}

/// Where one aggregate reads its input — on a root-delta run and on a
/// compressed root tuple alike: Table 2 ([`md_core::rewrite`]) decides
/// whether there is one, the argument's table where it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggInput {
    /// No input: `COUNT(*)`, and `COUNT(a)`, which Table 2 rewrites to it
    /// — so `X` need not retain `a`, and `COUNT` is `Σcnt₀`.
    None,
    /// Root source column `col`. A compressed root tuple holds a sum for
    /// it at position `summed` — a `SUM` column of `X_{R₀}`, or, `X_{R₀}`
    /// eliminated, the aggregate's own state in `V` — or, without one, the
    /// raw column in its key, taken `cnt₀` times (the multiplication rule).
    Root { col: usize, summed: Option<usize> },
    /// A dimension attribute: the same for every row a run or a tuple
    /// stands for, since its key determines the dimension chain.
    Dim(ColRef),
}

/// Each aggregate's input, in aggregate order: the one rule both plan
/// shapes, the root-delta runs and the reconstruction walk read. A
/// root-sourced `MIN`/`MAX`/`DISTINCT` keeps `X_{R₀}` under the general
/// regime, so a plan without it reads no raw root column off `V`.
pub(crate) fn agg_inputs(plan: &DerivedPlan) -> Vec<AggInput> {
    let root = plan.graph.root();
    let root_sums = plan.aux_for(root).map(AuxViewDef::sum_cols);
    let aggs = plan.view.aggregates().into_iter().enumerate();
    aggs.map(|(i, agg)| {
        let summable = match rewrite(agg) {
            Rewrite::Replaced {
                needs_sum: false, ..
            } => return AggInput::None,
            Rewrite::Replaced {
                needs_sum: true, ..
            } => true,
            Rewrite::NotReplaced => false,
        };
        let col = agg.arg.expect("an aggregate with an input has an argument");
        if col.table != root {
            return AggInput::Dim(col);
        }
        let summed = match &root_sums {
            _ if !summable => None,
            Some(sums) => sums.iter().position(|&(_, src)| src == col.column),
            None => Some(i),
        };
        AggInput::Root {
            col: col.column,
            summed,
        }
    })
    .collect()
}

/// Where a compressed root tuple a summary's stores hold keeps each root
/// source column in its key, derived once per plan.
#[derive(Debug, Clone)]
pub(crate) struct Recon {
    /// Per position of a compressed root tuple's key, the root source
    /// column read there; [`NO_COLUMN`] where none is.
    key_srcs: Vec<usize>,
}

/// A key position no root column is read at: names no source column.
const NO_COLUMN: usize = usize::MAX;

impl Recon {
    /// Derives what `plan`'s reconstruction walk reads: `None` for an
    /// append-only plan whose root auxiliary view was omitted, which is
    /// its own reconstruction. The key of a group of `X_{R₀}` holds its
    /// group columns; without `X_{R₀}` a group of `V` holds each root
    /// foreign key at the position of the child key it equals (Algorithm
    /// 3.2 omits `X_{R₀}` only where the view groups by every direct
    /// child's key) and each root group column at its own.
    pub(crate) fn new(plan: &DerivedPlan) -> Option<Self> {
        let root = plan.graph.root();
        let key_srcs = match plan.aux_for(root) {
            Some(def) => def.group_source_cols(),
            None if plan.regime == ChangeRegime::AppendOnly => return None,
            None => (plan.view.group_by_cols().iter())
                .map(|col| match plan.graph.parent_edge(col.table) {
                    _ if col.table == root => col.column,
                    Some(edge) if edge.from == root && edge.key_col == col.column => edge.fk_col,
                    _ => NO_COLUMN,
                })
                .collect(),
        };
        Some(Recon { key_srcs })
    }

    /// Where a compressed root tuple's key holds root source column `src`.
    pub(crate) fn key_position(&self, src: usize) -> Option<usize> {
        self.key_srcs.iter().position(|&s| s == src)
    }

    /// A held tuple's `key` as the walk binds the root.
    pub(crate) fn binding<'k>(&'k self, key: &'k GroupKey) -> Binding<'k> {
        Binding::stored(&self.key_srcs, key.values())
    }
}

impl<'a> ReconExecutor<'a> {
    /// The executor over a summary's stores `aux`, for the view's
    /// `group_cols` and the aggregate `inputs` its engine derived. Builds
    /// nothing.
    pub(crate) fn over(
        plan: &'a DerivedPlan,
        catalog: &'a Catalog,
        aux: ViewStores<'a>,
        group_cols: &'a [ColRef],
        inputs: &'a [AggInput],
    ) -> Self {
        ReconExecutor {
            plan,
            catalog,
            aux,
            group_cols,
            inputs,
        }
    }

    /// The one walk from a compressed root tuple to its share of `V`:
    /// resolves the tuple — its root bound as `binding`, holding `tuple` —
    /// through the dimension stores as they are now, into `res`. When it
    /// joins through to every dimension, its summary group key is
    /// borrowed into `vgroup`, its aggregate arguments into `args` — a
    /// sum it holds, a root column its key holds or a dimension attribute,
    /// each taken for every base row it stands for, or nothing for
    /// `COUNT` — and `true` is returned. Every buffer is the caller's,
    /// reused from tuple to tuple: the walk allocates nothing.
    pub(crate) fn share_of<T: RootTuple + ?Sized>(
        &self,
        binding: Binding<'a>,
        tuple: &'a T,
        res: &mut Resolution<'a>,
        vgroup: &mut Vec<&'a Value>,
        args: &mut Vec<RunArg<'a>>,
    ) -> Result<bool> {
        let root = self.plan.graph.root();
        res.resolve(&self.plan.graph, self.aux, root, binding);
        if !res.is_complete() {
            if T::ALWAYS_JOINS {
                return Err(MaintainError::InvariantViolation(
                    "a group of V no longer joins through to every dimension".into(),
                ));
            }
            return Ok(false);
        }
        res.group_key_into(self.group_cols, vgroup);
        args.clear();
        args.extend(self.inputs.iter().map(|&input| match input {
            AggInput::None => RunArg::None,
            AggInput::Root {
                summed: Some(pos), ..
            } => RunArg::Summed(tuple.sum(pos)),
            AggInput::Root { col, summed: None } => {
                RunArg::Const(res.attribute(ColRef::new(root, col)))
            }
            AggInput::Dim(col) => RunArg::Const(res.attribute(col)),
        }));
        Ok(true)
    }

    /// `V` as the compressed root `tuples` held under `recon`'s key layout
    /// reconstruct it, value counts included: every tuple that joins
    /// through to all dimensions is folded into a fresh summary as a run
    /// of one occurrence weighing its `cnt₀`.
    pub(crate) fn summary<T: HeldTuple + 'a>(
        &self,
        recon: &'a Recon,
        tuples: impl Iterator<Item = (&'a GroupKey, &'a T)>,
    ) -> Result<SummaryStore> {
        let mut summary = SummaryStore::new(&self.plan.view, self.catalog, self.plan.regime)?;
        let mut res = Resolution::new();
        let mut vgroup = Vec::new();
        let mut args = Vec::with_capacity(self.inputs.len());
        for (key, tuple) in tuples {
            if self.share_of(recon.binding(key), tuple, &mut res, &mut vgroup, &mut args)? {
                summary.apply_run(&vgroup.as_slice(), tuple.weight() as i64, 0, &args)?;
            }
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{AggFunc, Aggregate, SelectItem};
    use md_core::derive;
    use md_workload::{retail_catalog, views, Contracts};

    /// `sale.price` and `product.brand` in the retail schema.
    const PRICE: usize = 4;
    const BRAND: usize = 1;

    #[test]
    fn product_sales_reads_a_stored_sum_nothing_and_a_dimension_attribute() {
        // Section 1.1: SUM(price) adds saleDTL's partial sums, COUNT(*) is
        // Σcnt₀, COUNT(DISTINCT brand) reads the product attribute.
        let (cat, s) = retail_catalog(Contracts::Tight);
        let plan = derive(&views::product_sales(&cat).unwrap(), &cat).unwrap();
        assert_eq!(plan.aux_for(s.sale).unwrap().sum_cols().len(), 1);
        assert_eq!(
            agg_inputs(&plan),
            [
                AggInput::Root {
                    col: PRICE,
                    summed: Some(0)
                },
                AggInput::None,
                AggInput::Dim(ColRef::new(s.product, BRAND)),
            ]
        );
    }

    #[test]
    fn product_sales_max_sum_reads_the_raw_root_column() {
        // Section 3.2: saleDTL groups on price for the MAX and holds no sum
        // of it, so SUM(price) is SUM(price · SaleCount) — the raw column
        // taken cnt₀ times, the multiplication rule (E6).
        let (cat, s) = retail_catalog(Contracts::Tight);
        let plan = derive(&views::product_sales_max(&cat).unwrap(), &cat).unwrap();
        let sale_dtl = plan.aux_for(s.sale).unwrap();
        assert!(sale_dtl.sum_cols().is_empty());
        assert!(sale_dtl.group_col_of_source(PRICE).is_some());
        let raw = AggInput::Root {
            col: PRICE,
            summed: None,
        };
        assert_eq!(agg_inputs(&plan), [raw, raw, AggInput::None]);
    }

    #[test]
    fn count_of_a_dimension_attribute_reads_nothing_and_a_sum_without_x_root_reads_v() {
        // Table 2 rewrites COUNT(brand) to COUNT(*): productDTL keeps no
        // brand, X_sale still goes, and the count reads no input. With
        // X_sale gone, SUM(price) reads its own state in a group of V.
        let (cat, s) = retail_catalog(Contracts::Tight);
        let mut view = views::daily_product(&cat).unwrap();
        let count_brand = Aggregate::of(AggFunc::Count, ColRef::new(s.product, BRAND));
        view.select.push(SelectItem::agg(count_brand, "Brands"));
        let plan = derive(&view, &cat).unwrap();
        assert!(plan.root_omitted());
        let product_dtl = plan.aux_for(s.product).unwrap();
        assert!(product_dtl.group_col_of_source(BRAND).is_none());
        let sum = AggInput::Root {
            col: PRICE,
            summed: Some(0),
        };
        assert_eq!(agg_inputs(&plan), [sum, AggInput::None, AggInput::None]);
    }
}
