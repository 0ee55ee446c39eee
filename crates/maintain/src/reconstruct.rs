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
//! The query reads *compressed root tuples* ([`RootTuple`]): the groups of
//! `X_{R₀}` — or, when Algorithm 3.2 eliminated `X_{R₀}` under the general
//! regime, the groups of `V` itself. Elimination there requires every
//! direct root child to be `k`-annotated and every root-sourced aggregate
//! to be CSMAS, so a group of `V` already is one compressed root tuple:
//! its key holds each root foreign key (at the position of the child key
//! it equals) and each root group column, its `SUM` states the
//! root-sourced sums, its hidden count `cnt₀`. One borrowed walk,
//! [`ReconExecutor::share_of`], takes either shape to its share of `V`,
//! and the summary's own run kernel, [`SummaryStore::apply_run`], folds it
//! as an occurrence weighing `cnt₀`. It serves every rebuild of `V` from
//! `X` — the initial load, repair, a quarantined summary's image, all
//! through `SummaryEngine::reconstructed` — the audit, and the dimension
//! deltas (`dimension.rs`), which resolve the tuples a change joins under
//! the dimension stores before and after it.
//!
//! An append-only plan without `X_{R₀}` has no reconstruction: its
//! dimensions are insert-only, so no group of `V` ever moves, and `V` is
//! its own rebuild.

use md_algebra::{AggFunc, ColRef, SelectItem};
use md_core::{AuxColKind, ChangeRegime, DerivedPlan, ReconItem, SumSource};
use md_relation::{Catalog, Row, Value};

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
    /// What the plan's reconstruction reads, derived once by the engine.
    recon: &'a Recon,
}

/// A compressed root tuple: how many base rows it stands for and the
/// sums it holds for them.
pub(crate) trait RootTuple {
    /// Whether the tuple joins through to every dimension, always: a
    /// group of `V` stands for facts that did, and eliminating `X_{R₀}`
    /// takes referential integrity and no exposed update on every edge, so
    /// nothing can make them stop.
    const ALWAYS_JOINS: bool;
    /// `cnt₀`.
    fn weight(&self) -> u64;
    /// Its stored sum at `pos` (see [`AggSource::Summed`]).
    fn sum(&self, pos: usize) -> Option<&ExactSum>;
}

/// A group of `X_{R₀}`.
impl RootTuple for AuxGroupState {
    const ALWAYS_JOINS: bool = false;

    fn weight(&self) -> u64 {
        self.cnt
    }

    fn sum(&self, pos: usize) -> Option<&ExactSum> {
        self.sums.get(pos)
    }
}

/// A group of a `V` whose `X_{R₀}` was eliminated.
impl RootTuple for GroupState {
    const ALWAYS_JOINS: bool = true;

    fn weight(&self) -> u64 {
        self.hidden_cnt
    }

    fn sum(&self, pos: usize) -> Option<&ExactSum> {
        match self.aggs.get(pos)? {
            AggState::Sum(sum) => Some(sum),
            _ => None,
        }
    }
}

/// What reconstruction reads of a plan, derived once per plan: where the
/// walk reads root columns and each aggregate's input on a compressed
/// root tuple, and the view's group-by columns.
#[derive(Debug, Clone)]
pub(crate) struct Recon {
    /// Per position of a compressed root tuple's key, the root source
    /// column read there; [`NO_COLUMN`] where none is.
    key_srcs: Vec<usize>,
    /// Per aggregate, in aggregate order.
    agg_sources: Vec<AggSource>,
    group_cols: Vec<ColRef>,
}

/// A key position no root column is read at: names no source column.
const NO_COLUMN: usize = usize::MAX;

/// Where one aggregate reads its input on a compressed root tuple — its
/// [`ReconItem`] resolved against the plan, or, without `X_{R₀}`, its
/// argument's table.
#[derive(Debug, Clone, Copy)]
enum AggSource {
    /// `COUNT`: the tuple's count alone.
    Count,
    /// The tuple's stored sum at this position: a sum column of `X_{R₀}`,
    /// or the aggregate's own `SUM` state in a group of `V`.
    Summed(usize),
    /// A raw attribute, read through the tuple's dimension chain: the same
    /// for every base row the tuple stands for.
    Raw(ColRef),
}

impl Recon {
    /// Derives what `plan`'s reconstruction reads: `None` for an
    /// append-only plan whose root auxiliary view was omitted, which is
    /// its own reconstruction.
    pub(crate) fn new(plan: &DerivedPlan, catalog: &Catalog) -> Result<Option<Self>> {
        let group_cols = plan.view.group_by_cols();
        let Some(recon) = plan.reconstruction.as_ref() else {
            return match plan.regime {
                ChangeRegime::AppendOnly => Ok(None),
                ChangeRegime::General => Self::of_groups(plan, catalog, group_cols).map(Some),
            };
        };
        // Root auxiliary column index → position within the stored sums.
        let root = plan
            .aux_for(recon.root)
            .expect("root materialized when reconstruction exists");
        let sum_cols = root.sum_cols();
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
            key_srcs: root.group_source_cols(),
            agg_sources,
            group_cols,
        }))
    }

    /// Where a compressed root tuple's key holds root source column `src`.
    pub(crate) fn key_position(&self, src: usize) -> Option<usize> {
        self.key_srcs.iter().position(|&s| s == src)
    }

    /// The reconstruction of a general-regime plan without `X_{R₀}`, read
    /// off the groups of `V`: each root foreign key at the position of the
    /// child key it equals, each root group column at its own, a
    /// root-sourced `SUM`/`AVG` off the group's state and a dimension
    /// attribute raw.
    fn of_groups(plan: &DerivedPlan, catalog: &Catalog, group_cols: Vec<ColRef>) -> Result<Self> {
        let root = plan.graph.root();
        let key_srcs: Vec<usize> = group_cols
            .iter()
            .map(|col| match plan.graph.parent_edge(col.table) {
                _ if col.table == root => col.column,
                Some(edge) if edge.from == root && edge.key_col == col.column => edge.fk_col,
                _ => NO_COLUMN,
            })
            .collect();
        if let Some(edge) = (plan.graph.children(root)).find(|e| !key_srcs.contains(&e.fk_col)) {
            return Err(MaintainError::InvariantViolation(format!(
                "child key {} not in the group key despite root elimination",
                ColRef::new(edge.to, edge.key_col).display(catalog)
            )));
        }
        // Elimination admits no root-sourced aggregate but a CSMAS one: a
        // `MIN`/`MAX`/`DISTINCT` would find no argument, and fail its fold.
        let aggs = plan.view.aggregates().into_iter().enumerate();
        let agg_sources = aggs
            .map(|(i, agg)| match (agg.arg, agg.func) {
                (Some(col), _) if col.table != root => AggSource::Raw(col),
                (Some(_), AggFunc::Sum | AggFunc::Avg) => AggSource::Summed(i),
                _ => AggSource::Count,
            })
            .collect();
        Ok(Recon {
            key_srcs,
            agg_sources,
            group_cols,
        })
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
    ) -> Self {
        ReconExecutor {
            plan,
            catalog,
            aux,
            recon,
        }
    }

    /// The one walk from a compressed root tuple to its share of `V`:
    /// resolves tuple `key` (holding `tuple`) through the dimension
    /// stores as they are now, into `res`. When it joins through to every
    /// dimension, its summary group key is borrowed into `vgroup`, its
    /// aggregate arguments into `args` — a stored sum, a raw attribute
    /// taken `cnt₀` times, or nothing for `COUNT` — and `true` is
    /// returned; its weight is `tuple.weight()`. Every buffer is the
    /// caller's, reused from tuple to tuple: the walk allocates nothing.
    pub(crate) fn share_of<T: RootTuple>(
        &self,
        key: &'a Row,
        tuple: &'a T,
        res: &mut Resolution<'a>,
        vgroup: &mut Vec<&'a Value>,
        args: &mut Vec<RunArg<'a>>,
    ) -> Result<bool> {
        let binding = Binding::stored(&self.recon.key_srcs, key);
        res.resolve(&self.plan.graph, self.aux, self.plan.graph.root(), binding);
        if !res.is_complete() {
            if T::ALWAYS_JOINS {
                return Err(MaintainError::InvariantViolation(format!(
                    "group {key} no longer joins through to every dimension"
                )));
            }
            return Ok(false);
        }
        res.group_key_into(self.catalog, &self.recon.group_cols, vgroup)?;
        args.clear();
        for &source in &self.recon.agg_sources {
            args.push(match source {
                AggSource::Count => RunArg::None,
                AggSource::Summed(pos) => RunArg::Summed(tuple.sum(pos).ok_or_else(|| {
                    MaintainError::InvariantViolation(format!(
                        "compressed root tuple {key} holds no sum at {pos}"
                    ))
                })?),
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

    /// `V` as the compressed root `tuples` reconstruct it, value counts
    /// included: every tuple that joins through to all dimensions is
    /// folded into a fresh summary as a run of one occurrence weighing its
    /// `cnt₀`.
    pub(crate) fn summary<T: RootTuple + 'a>(
        &self,
        tuples: impl Iterator<Item = (&'a Row, &'a T)>,
    ) -> Result<SummaryStore> {
        let mut summary = SummaryStore::new(&self.plan.view, self.catalog, self.plan.regime)?;
        let mut res = Resolution::new();
        let mut vgroup = Vec::new();
        let mut args = Vec::with_capacity(self.recon.agg_sources.len());
        for (key, tuple) in tuples {
            if self.share_of(key, tuple, &mut res, &mut vgroup, &mut args)? {
                let weight = [tuple.weight() as i64];
                summary.apply_run(&vgroup.as_slice(), &weight, &[], &args)?;
            }
        }
        Ok(summary)
    }
}
