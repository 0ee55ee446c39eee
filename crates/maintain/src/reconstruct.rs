//! Reconstruction of the summary view from the auxiliary views alone.
//!
//! Implements the paper's reconstruction semantics (Sections 1.1 and 3.2):
//! join the auxiliary views along the extended join graph, group by the
//! view's group-by attributes, and evaluate each aggregate with the
//! duplicate-compression rules — `COUNT(*) = Σ cnt₀`, pre-aggregated `SUM`
//! columns added distributively, raw CSMAS attributes contributing
//! `a · cnt₀`, and `MIN`/`MAX`/`DISTINCT` aggregates reading raw values
//! (duplicates are irrelevant to them).
//!
//! Used for (a) the initial materialization of `V` from a freshly loaded
//! `X`, the rebuild behind quarantine repair and the one an audit holds
//! `V` against, and (b) the contribution of single root auxiliary tuples
//! that a dimension delta moves between summary groups. Both are folded by
//! the summary's own run kernel, [`SummaryStore::apply_run`]: a root
//! auxiliary tuple is a run of one occurrence weighing `cnt₀`.

use std::collections::BTreeMap;

use md_algebra::{ColRef, GpsjView, SelectItem};
use md_core::{AuxColKind, DerivedPlan, ReconItem, SumSource};
use md_relation::{Bag, Catalog, Row, TableId, Value};

use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::resolve::{Binding, Resolution};
use crate::store::AuxStore;
use crate::summary::{RunArg, SummaryStore};

/// A rebuild executor over a set of auxiliary stores.
pub struct ReconExecutor<'a> {
    plan: &'a DerivedPlan,
    catalog: &'a Catalog,
    /// The root auxiliary store, when the caller holds one.
    root_store: Option<&'a AuxStore>,
    /// The store of every table below the root.
    aux: &'a BTreeMap<TableId, AuxStore>,
    /// Where each aggregate reads its input, in aggregate order.
    agg_sources: Vec<AggSource>,
    /// The view's group-by columns.
    group_cols: Vec<ColRef>,
}

/// Where one aggregate reads its input on a contributing root auxiliary
/// tuple — its [`ReconItem`] resolved against the plan once per executor.
#[derive(Debug, Clone, Copy)]
enum AggSource {
    /// `COUNT`: the tuple's count alone.
    Count,
    /// The tuple's stored sum at this position.
    Summed(usize),
    /// A raw attribute, read through the tuple's dimension chain: the same
    /// for every base row the tuple stands for.
    Raw(ColRef),
}

/// An aggregate argument a [`Contribution`] owns, as [`RunArg`] borrows
/// it: the dimension stores it was read from change before it is applied.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HeldArg {
    /// `COUNT`: none.
    None,
    /// A raw attribute, taken `cnt₀` times.
    Raw(Value),
    /// A stored sum, standing for all `cnt₀` base rows.
    Summed(ExactSum),
}

impl HeldArg {
    pub(crate) fn as_run_arg(&self) -> RunArg<'_> {
        match self {
            HeldArg::None => RunArg::None,
            HeldArg::Raw(v) => RunArg::Const(v),
            HeldArg::Summed(sum) => RunArg::Summed(sum),
        }
    }
}

/// One root auxiliary tuple's share of `V` under the current dimension
/// stores: the summary group it lands in, the base rows it stands for, and
/// its aggregate arguments.
pub(crate) type Contribution = (Row, u64, Vec<HeldArg>);

impl<'a> ReconExecutor<'a> {
    /// Creates an executor over the stores in `aux`, the root's among
    /// them. Fails when the plan's root auxiliary view was omitted (there
    /// is nothing to reconstruct from).
    pub fn new(
        plan: &'a DerivedPlan,
        catalog: &'a Catalog,
        aux: &'a BTreeMap<TableId, AuxStore>,
    ) -> Result<Self> {
        Self::over(plan, catalog, aux.get(&plan.graph.root()), aux)
    }

    /// [`Self::new`] for a caller that holds the root store apart from
    /// the dimension stores, as the engine does.
    pub(crate) fn over(
        plan: &'a DerivedPlan,
        catalog: &'a Catalog,
        root_store: Option<&'a AuxStore>,
        aux: &'a BTreeMap<TableId, AuxStore>,
    ) -> Result<Self> {
        let Some(recon) = plan.reconstruction.as_ref() else {
            return Err(MaintainError::RootOmitted {
                view: plan.view.name.clone(),
                operation: "reconstruct".into(),
            });
        };
        // Root auxiliary column index → position within the stored sums.
        let sum_cols = plan
            .aux_for(recon.root)
            .expect("root materialized when reconstruction exists")
            .sum_cols();
        let source_of = |item: &ReconItem| {
            let (table, aux_col) = match item {
                ReconItem::Group { .. } => unreachable!("group items are not accumulated"),
                ReconItem::Count => return Ok(AggSource::Count),
                ReconItem::Sum(SumSource::PreSummed { aux_col, .. })
                | ReconItem::Avg(SumSource::PreSummed { aux_col, .. }) => {
                    let pos = sum_cols.iter().position(|(idx, _)| idx == aux_col);
                    return pos.map(AggSource::Summed).ok_or_else(|| {
                        MaintainError::InvariantViolation(format!(
                            "column {aux_col} of the root auxiliary view holds no sum"
                        ))
                    });
                }
                ReconItem::Sum(SumSource::Raw { table, aux_col })
                | ReconItem::Avg(SumSource::Raw { table, aux_col })
                | ReconItem::MinMax { table, aux_col, .. }
                | ReconItem::Distinct { table, aux_col, .. } => (*table, *aux_col),
            };
            let def = plan.aux_for(table).ok_or_else(|| {
                MaintainError::InvariantViolation(format!("no auxiliary view for {table}"))
            })?;
            match def.columns[aux_col].kind {
                AuxColKind::Group { src_col } | AuxColKind::Sum { src_col } => {
                    Ok(AggSource::Raw(ColRef::new(table, src_col)))
                }
                AuxColKind::Count => Err(MaintainError::InvariantViolation(
                    "raw reference to the count column".into(),
                )),
            }
        };
        let agg_sources = recon
            .items
            .iter()
            .zip(&plan.view.select)
            .filter(|(_, si)| matches!(si, SelectItem::Agg { .. }))
            .map(|(item, _)| source_of(item))
            .collect::<Result<_>>()?;
        Ok(ReconExecutor {
            plan,
            catalog,
            root_store,
            aux,
            agg_sources,
            group_cols: plan.view.group_by_cols(),
        })
    }

    /// The root auxiliary store.
    fn root_store(&self) -> Result<&'a AuxStore> {
        self.root_store
            .ok_or_else(|| MaintainError::InvariantViolation("root auxiliary store missing".into()))
    }

    /// Resolves the dimension chain of root auxiliary tuple `root_key`
    /// into `res`: whether it joins through to every dimension.
    fn join_through<'r>(
        &'r self,
        res: &mut Resolution<'r>,
        root_store: &'r AuxStore,
        root_key: &'r Row,
    ) -> bool {
        let binding = Binding::stored(root_store.group_srcs(), root_key);
        res.resolve(&self.plan.graph, self.aux, self.plan.graph.root(), binding);
        res.is_complete()
    }

    fn view(&self) -> &GpsjView {
        &self.plan.view
    }

    /// The raw attribute `col` of a tuple whose chain resolved to `res`.
    fn raw<'r>(&self, res: &Resolution<'r>, col: ColRef) -> Result<&'r Value> {
        res.value(col).ok_or_else(|| {
            MaintainError::InvariantViolation(format!(
                "aggregate attribute {} unresolved",
                col.display(self.catalog)
            ))
        })
    }

    /// What root auxiliary tuple `root_key` contributes to `V` right now;
    /// `None` when it is absent or does not join through to every
    /// dimension.
    pub(crate) fn contribution(&self, root_key: &Row) -> Result<Option<Contribution>> {
        let root_store = self.root_store()?;
        let Some(state) = root_store.get(root_key) else {
            return Ok(None);
        };
        let mut res = Resolution::new();
        if !self.join_through(&mut res, root_store, root_key) {
            return Ok(None);
        }
        let vgroup = res.group_key(self.catalog, &self.group_cols)?;
        let args = self
            .agg_sources
            .iter()
            .map(|&source| {
                Ok(match source {
                    AggSource::Count => HeldArg::None,
                    AggSource::Summed(pos) => HeldArg::Summed(state.sums[pos].clone()),
                    AggSource::Raw(col) => HeldArg::Raw(self.raw(&res, col)?.clone()),
                })
            })
            .collect::<Result<_>>()?;
        Ok(Some((vgroup, state.cnt, args)))
    }

    /// Rebuilds `summary` (cleared first) from the auxiliary views, value
    /// counts included: every root auxiliary tuple that joins through to
    /// all dimensions is folded in as a run of one occurrence weighing its
    /// `cnt₀`. On error `summary` is left part-rebuilt.
    pub fn rebuild_summary(&self, summary: &mut SummaryStore) -> Result<()> {
        let root_store = self.root_store()?;
        let mut res = Resolution::new();
        let mut vgroup = Vec::new();
        let mut args = Vec::with_capacity(self.agg_sources.len());
        summary.clear();
        for (root_key, state) in root_store.iter() {
            if !self.join_through(&mut res, root_store, root_key) {
                continue;
            }
            res.group_key_into(self.catalog, &self.group_cols, &mut vgroup)?;
            args.clear();
            for &source in &self.agg_sources {
                args.push(match source {
                    AggSource::Count => RunArg::None,
                    AggSource::Summed(pos) => RunArg::Summed(&state.sums[pos]),
                    AggSource::Raw(col) => RunArg::Const(self.raw(&res, col)?),
                });
            }
            summary.apply_run(&vgroup.as_slice(), &[state.cnt as i64], &[], &args)?;
        }
        Ok(())
    }

    /// Computes the full view contents as a bag — the paper's rewritten
    /// `product_sales` query over `saleDTL ⋈ timeDTL ⋈ productDTL`.
    pub fn to_bag(&self) -> Result<Bag> {
        let mut summary = SummaryStore::new(self.view(), self.catalog, self.plan.regime)?;
        self.rebuild_summary(&mut summary)?;
        summary.to_bag()
    }
}
