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
//! that a dimension delta moves between summary groups.

use std::collections::BTreeMap;

use md_algebra::{ColRef, GpsjView, SelectItem};
use md_core::{AuxColKind, DerivedPlan, ReconItem, SumSource};
use md_relation::{Bag, Catalog, Row, RowKey, SeededHashMap, TableId, Value};

use crate::error::{MaintainError, Result};
use crate::resolve::{Binding, Resolution};
use crate::store::AuxStore;
use crate::summary::{AggState, GroupState, SummaryStore, ValueCounts};

/// A rebuild executor over a set of auxiliary stores.
pub struct ReconExecutor<'a> {
    plan: &'a DerivedPlan,
    catalog: &'a Catalog,
    /// The root auxiliary store, when the caller holds one.
    root_store: Option<&'a AuxStore>,
    /// The store of every table below the root.
    aux: &'a BTreeMap<TableId, AuxStore>,
    /// The aggregates' reconstruction instructions, in aggregate order,
    /// each with where it reads its input.
    agg_items: Vec<(&'a ReconItem, AggSource)>,
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
    /// A raw attribute, read through the tuple's dimension chain.
    Raw(ColRef),
}

/// One aggregate's input on one contributing root auxiliary tuple.
enum AggInput<'r> {
    /// `COUNT`: the tuple's count alone.
    Count,
    /// A sum the root auxiliary view already holds for the tuple.
    Summed(&'r Value),
    /// A raw attribute, identical for every base row the tuple stands for.
    Raw(&'r Value),
}

/// The multiplication rule: a raw CSMAS attribute of a tuple standing for
/// `cnt` base rows contributes `a · cnt₀` to a sum.
fn scaled(v: &Value, cnt: u64) -> Result<Value> {
    v.mul(&Value::Int(cnt as i64)).map_err(MaintainError::from)
}

/// One root auxiliary tuple's share of `V` under the current dimension
/// stores: the summary group it lands in, the base rows it stands for, and
/// its aggregate arguments as [`SummaryStore::apply_run`] takes them.
pub(crate) type Contribution = (Row, u64, Vec<Option<Value>>);

/// One accumulator used during rebuilds (unlike
/// [`md_algebra::Accumulator`], it exposes the raw sums needed to seed
/// incremental [`AggState`]s).
#[derive(Debug, Clone)]
enum RebuildAcc {
    Count,
    Sum(Option<Value>),
    Avg(f64),
    /// `MIN`/`MAX`/`DISTINCT`: the value counts of the raw argument.
    Values(ValueCounts),
}

impl RebuildAcc {
    fn for_item(item: &ReconItem) -> Self {
        match item {
            ReconItem::Count => RebuildAcc::Count,
            ReconItem::Sum(_) => RebuildAcc::Sum(None),
            ReconItem::Avg(_) => RebuildAcc::Avg(0.0),
            ReconItem::MinMax { .. } | ReconItem::Distinct { .. } => {
                RebuildAcc::Values(ValueCounts::new())
            }
            ReconItem::Group { .. } => unreachable!("group items are not accumulated"),
        }
    }

    fn add_summed(&mut self, sum: &Value) -> Result<()> {
        match self {
            RebuildAcc::Sum(total) => {
                *total = Some(match total.take() {
                    None => sum.clone(),
                    Some(t) => t.add(sum).map_err(MaintainError::from)?,
                });
            }
            RebuildAcc::Avg(total) => {
                *total += sum.as_double().map_err(MaintainError::from)?;
            }
            other => {
                return Err(MaintainError::InvariantViolation(format!(
                    "pre-summed input fed to {other:?}"
                )))
            }
        }
        Ok(())
    }

    fn add_raw(&mut self, v: &Value, cnt: u64) -> Result<()> {
        match self {
            RebuildAcc::Count => {}
            RebuildAcc::Sum(_) | RebuildAcc::Avg(_) => self.add_summed(&scaled(v, cnt)?)?,
            RebuildAcc::Values(counts) => match counts.get_mut(v) {
                Some(n) => *n += cnt,
                None => {
                    counts.insert(v.clone(), cnt);
                }
            },
        }
        Ok(())
    }

    /// Converts into the incremental [`AggState`] for the summary store.
    fn into_state(self) -> Result<AggState> {
        Ok(match self {
            RebuildAcc::Count => AggState::Count,
            RebuildAcc::Sum(total) => AggState::Sum(total.ok_or_else(|| {
                MaintainError::InvariantViolation("SUM over empty group during rebuild".into())
            })?),
            RebuildAcc::Avg(total) => AggState::Avg(total),
            RebuildAcc::Values(counts) => AggState::Values(counts),
        })
    }
}

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
        let agg_items = recon
            .items
            .iter()
            .zip(&plan.view.select)
            .filter(|(_, si)| matches!(si, SelectItem::Agg { .. }))
            .map(|(item, _)| Ok((item, source_of(item)?)))
            .collect::<Result<_>>()?;
        Ok(ReconExecutor {
            plan,
            catalog,
            root_store,
            aux,
            agg_items,
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

    /// The input `source` names on a root auxiliary tuple with stored sums
    /// `presums` whose dimension chain resolved to `res`.
    fn input_of<'r>(
        &self,
        source: AggSource,
        res: &Resolution<'r>,
        presums: &'r [Value],
    ) -> Result<AggInput<'r>> {
        match source {
            AggSource::Count => Ok(AggInput::Count),
            AggSource::Summed(pos) => Ok(AggInput::Summed(&presums[pos])),
            AggSource::Raw(col) => res.value(col).map(AggInput::Raw).ok_or_else(|| {
                MaintainError::InvariantViolation(format!(
                    "aggregate attribute {} unresolved",
                    col.display(self.catalog)
                ))
            }),
        }
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
            .agg_items
            .iter()
            .map(|&(item, source)| {
                Ok(match self.input_of(source, &res, &state.sums)? {
                    AggInput::Count => None,
                    AggInput::Summed(sum) => Some(sum.clone()),
                    AggInput::Raw(v) if matches!(item, ReconItem::Sum(_) | ReconItem::Avg(_)) => {
                        Some(scaled(v, state.cnt)?)
                    }
                    AggInput::Raw(v) => Some(v.clone()),
                })
            })
            .collect::<Result<_>>()?;
        Ok(Some((vgroup, state.cnt, args)))
    }

    /// Iterates over every root auxiliary tuple that joins through to all
    /// dimensions, invoking `f(vgroup, resolution, state_cnt, presums)`
    /// where `vgroup` is the summary group key it lands in, borrowed, and
    /// `presums[i]` the i-th stored sum of the tuple.
    fn for_each_contributing<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(&[&Value], &Resolution<'_>, u64, &[Value]) -> Result<()>,
    {
        let root_store = self.root_store()?;
        let mut res = Resolution::new();
        let mut vgroup = Vec::new();
        for (root_key, state) in root_store.iter() {
            if !self.join_through(&mut res, root_store, root_key) {
                continue;
            }
            res.group_key_into(self.catalog, &self.group_cols, &mut vgroup)?;
            f(&vgroup, &res, state.cnt, &state.sums)?;
        }
        Ok(())
    }

    /// Rebuilds `summary` (cleared first) from the auxiliary views, value
    /// counts included.
    pub fn rebuild_summary(&self, summary: &mut SummaryStore) -> Result<()> {
        let mut groups: SeededHashMap<Row, (Vec<RebuildAcc>, u64)> = SeededHashMap::default();

        self.for_each_contributing(|vgroup, res, cnt, presums| {
            let vgroup: &dyn RowKey = &vgroup;
            if !groups.contains_key(vgroup) {
                let accs = self.agg_items.iter();
                let accs = accs.map(|(item, _)| RebuildAcc::for_item(item)).collect();
                groups.insert(vgroup.to_row(), (accs, 0));
            }
            let (accs, hidden) = groups.get_mut(vgroup).expect("present or just inserted");
            *hidden += cnt;
            for (acc, &(_, source)) in accs.iter_mut().zip(&self.agg_items) {
                match self.input_of(source, res, presums)? {
                    AggInput::Count => {}
                    AggInput::Summed(sum) => acc.add_summed(sum)?,
                    AggInput::Raw(v) => acc.add_raw(v, cnt)?,
                }
            }
            Ok(())
        })?;

        summary.clear();
        for (vgroup, (accs, hidden)) in groups {
            let aggs = accs
                .into_iter()
                .map(RebuildAcc::into_state)
                .collect::<Result<Vec<_>>>()?;
            summary.install_group(
                vgroup,
                GroupState {
                    aggs,
                    hidden_cnt: hidden,
                },
            );
        }
        Ok(())
    }

    /// Computes the full view contents as a bag — the paper's rewritten
    /// `product_sales` query over `saleDTL ⋈ timeDTL ⋈ productDTL`.
    pub fn to_bag(&self) -> Result<Bag> {
        let mut summary = SummaryStore::new(self.view(), self.plan.regime);
        self.rebuild_summary(&mut summary)?;
        summary.to_bag()
    }
}
