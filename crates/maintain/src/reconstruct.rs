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
//! Used for (a) every rebuild of `V` from `X` of a plan that keeps its
//! root store — the initial load, repair, a quarantined summary's image
//! and the one an audit holds `V` against, all through
//! `SummaryEngine::reconstructed` — and (b) a dimension delta, whose
//! joined root auxiliary tuples `ΔX_T ⋈ X_{R₀}` are resolved under the
//! dimension stores before and after the change (`dimension.rs`). Both
//! read what a root auxiliary tuple contributes through one borrowed
//! walk, `ReconExecutor::share_of`, and fold it by the summary's own run
//! kernel, [`SummaryStore::apply_run`]: a root auxiliary tuple is an
//! occurrence weighing `cnt₀`.

use md_algebra::{ColRef, SelectItem};
use md_core::{AuxColKind, DerivedPlan, ReconItem, SumSource};
use md_relation::{Catalog, Row, Value};

use crate::error::{MaintainError, Result};
use crate::registry::ViewStores;
use crate::resolve::{Binding, Resolution};
use crate::store::{AuxGroupState, AuxStore};
use crate::summary::{RunArg, SummaryStore};

/// The reconstruction query over one summary's stores.
pub(crate) struct ReconExecutor<'a> {
    plan: &'a DerivedPlan,
    catalog: &'a Catalog,
    /// The root auxiliary store.
    root_store: &'a AuxStore,
    /// The store of every table the summary materializes.
    aux: ViewStores<'a>,
    /// What the plan's reconstruction reads, derived once by the engine.
    recon: &'a Recon,
}

/// What reconstruction reads of a plan, derived once per plan: where each
/// aggregate finds its input on a root auxiliary tuple, and the view's
/// group-by columns.
#[derive(Debug, Clone)]
pub(crate) struct Recon {
    /// Per aggregate, in aggregate order.
    agg_sources: Vec<AggSource>,
    group_cols: Vec<ColRef>,
}

/// Where one aggregate reads its input on a contributing root auxiliary
/// tuple — its [`ReconItem`] resolved against the plan.
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

impl Recon {
    /// Derives what `plan`'s reconstruction reads: `None` when the plan's
    /// root auxiliary view was omitted (there is nothing to reconstruct
    /// from).
    pub(crate) fn new(plan: &DerivedPlan) -> Result<Option<Self>> {
        let Some(recon) = plan.reconstruction.as_ref() else {
            return Ok(None);
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
        Ok(Some(Recon {
            agg_sources,
            group_cols: plan.view.group_by_cols(),
        }))
    }
}

impl<'a> ReconExecutor<'a> {
    /// The executor over a summary's stores `aux`, for the `recon` its
    /// engine derived. Builds nothing.
    pub(crate) fn over(
        plan: &'a DerivedPlan,
        catalog: &'a Catalog,
        aux: ViewStores<'a>,
        recon: &'a Recon,
    ) -> Result<Self> {
        let root_store = aux.store(plan.graph.root()).ok_or_else(|| {
            MaintainError::InvariantViolation("root auxiliary store missing".into())
        })?;
        Ok(ReconExecutor {
            plan,
            catalog,
            root_store,
            aux,
            recon,
        })
    }

    /// The root auxiliary store.
    pub(crate) fn root_store(&self) -> &'a AuxStore {
        self.root_store
    }

    /// The one walk from a root auxiliary tuple to its share of `V`:
    /// resolves tuple `root_key` (stored as `state`) through the dimension
    /// stores as they are now, into `res`. When it joins through to every
    /// dimension, its summary group key is borrowed into `vgroup`, its
    /// aggregate arguments into `args` — a stored sum, a raw attribute
    /// taken `cnt₀` times, or nothing for `COUNT` — and `true` is
    /// returned; its weight is `state.cnt`. Every buffer is the caller's,
    /// reused from tuple to tuple: the walk allocates nothing.
    pub(crate) fn share_of(
        &self,
        root_key: &'a Row,
        state: &'a AuxGroupState,
        res: &mut Resolution<'a>,
        vgroup: &mut Vec<&'a Value>,
        args: &mut Vec<RunArg<'a>>,
    ) -> Result<bool> {
        let binding = Binding::stored(self.root_store.group_srcs(), root_key);
        res.resolve(&self.plan.graph, self.aux, self.plan.graph.root(), binding);
        if !res.is_complete() {
            return Ok(false);
        }
        res.group_key_into(self.catalog, &self.recon.group_cols, vgroup)?;
        args.clear();
        for &source in &self.recon.agg_sources {
            args.push(match source {
                AggSource::Count => RunArg::None,
                AggSource::Summed(pos) => RunArg::Summed(&state.sums[pos]),
                AggSource::Raw(col) => RunArg::Const(res.value(col).ok_or_else(|| {
                    MaintainError::InvariantViolation(format!(
                        "aggregate attribute {} unresolved",
                        col.display(self.catalog)
                    ))
                })?),
            });
        }
        Ok(true)
    }

    /// `V` as the auxiliary views reconstruct it, value counts included:
    /// every root auxiliary tuple that joins through to all dimensions is
    /// folded into a fresh summary as a run of one occurrence weighing its
    /// `cnt₀`.
    pub(crate) fn summary(&self) -> Result<SummaryStore> {
        let mut summary = SummaryStore::new(&self.plan.view, self.catalog, self.plan.regime)?;
        let mut res = Resolution::new();
        let mut vgroup = Vec::new();
        let mut args = Vec::with_capacity(self.recon.agg_sources.len());
        for (root_key, state) in self.root_store.iter() {
            if self.share_of(root_key, state, &mut res, &mut vgroup, &mut args)? {
                summary.apply_run(&vgroup.as_slice(), &[state.cnt as i64], &[], &args)?;
            }
        }
        Ok(summary)
    }
}
