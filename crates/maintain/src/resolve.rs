//! Resolution of dimension chains from auxiliary views.
//!
//! During maintenance, a fact-table delta row must be joined with the
//! *auxiliary* dimension views (never the sources) to find the summary
//! group it contributes to and the dimension attribute values it carries
//! into aggregates. Because every non-root auxiliary view retains its key
//! (it appears in a join condition), each hop is one probe of the store's
//! key index, which holds the joined tuple's row: the store's groups are
//! not read.

use md_algebra::ColRef;
use md_core::ExtendedJoinGraph;
use md_relation::{Catalog, Row, TableId, Value};

use crate::error::{MaintainError, Result};
use crate::registry::ViewStores;

/// A row bound for one table during resolution, which only exposes the
/// source columns `srcs`: a stored auxiliary group key, holding exactly
/// those columns in that order, or a delta row seen through its run key —
/// whole, but readable only where every occurrence of its run agrees.
/// Either is read where it lies, as a slice of values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Binding<'a> {
    srcs: &'a [usize],
    row: &'a [Value],
    /// Whether `row` holds the columns `srcs` alone (else: every source
    /// column, at its own index).
    stored: bool,
}

impl<'a> Binding<'a> {
    /// A stored auxiliary group key: `srcs[i]` is the source column at
    /// position `i` of `key`.
    pub(crate) fn stored(srcs: &'a [usize], key: &'a [Value]) -> Self {
        let stored = true;
        Binding {
            srcs,
            row: key,
            stored,
        }
    }

    /// A source row of which only the columns `srcs` may be read.
    pub(crate) fn seen_through(srcs: &'a [usize], row: &'a Row) -> Self {
        let stored = false;
        let row = row.values();
        Binding { srcs, row, stored }
    }

    /// The value of source column `src_col`, when available in this binding.
    pub(crate) fn value(&self, src_col: usize) -> Option<&'a Value> {
        let i = self.srcs.iter().position(|&s| s == src_col)?;
        Some(&self.row[if self.stored { i } else { src_col }])
    }
}

/// The outcome of resolving the dimension chain under one starting binding.
#[derive(Debug, Clone, Default)]
pub(crate) struct Resolution<'a> {
    /// Bound tables in binding order. A view joins a handful of tables, so
    /// a linear scan is the lookup, and the vector doubles as the walk's
    /// worklist and keeps its allocation across [`Self::resolve`] calls.
    bindings: Vec<(TableId, Binding<'a>)>,
    missing: Vec<TableId>,
}

impl<'a> Resolution<'a> {
    /// Creates an empty resolution.
    pub(crate) fn new() -> Self {
        Resolution::default()
    }

    /// The binding of `table`, if resolved.
    pub(crate) fn binding(&self, table: TableId) -> Option<Binding<'a>> {
        self.bindings
            .iter()
            .find(|(t, _)| *t == table)
            .map(|(_, b)| *b)
    }

    /// The value of a column reference, when its table resolved and the
    /// column is retained.
    pub(crate) fn value(&self, col: ColRef) -> Option<&'a Value> {
        self.binding(col.table)?.value(col.column)
    }

    /// The summary group key this resolution lands in — the values of the
    /// view's group-by columns, all of which a complete resolution binds —
    /// borrowed into `key` (cleared first): enough to probe the summary
    /// with, and a `Row` only if the group has to be created.
    pub(crate) fn group_key_into(
        &self,
        catalog: &Catalog,
        group_cols: &[ColRef],
        key: &mut Vec<&'a Value>,
    ) -> Result<()> {
        key.clear();
        for col in group_cols {
            key.push(self.attribute(catalog, *col)?);
        }
        Ok(())
    }

    /// The value of `col` — a group-by column or a dimension attribute an
    /// aggregate reads — which a complete resolution binds.
    pub(crate) fn attribute(&self, catalog: &Catalog, col: ColRef) -> Result<&'a Value> {
        self.value(col).ok_or_else(|| {
            MaintainError::InvariantViolation(format!(
                "attribute {} unresolved",
                col.display(catalog)
            ))
        })
    }

    /// Tables that failed to resolve (dimension tuple absent from its
    /// auxiliary view — filtered out by local conditions, or a dangling
    /// reference under a non-dependency edge).
    #[cfg(test)]
    pub(crate) fn missing(&self) -> &[TableId] {
        &self.missing
    }

    /// Returns `true` when every table of the chain resolved — i.e. the
    /// starting row joins through to all dimensions and contributes to `V`.
    pub(crate) fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// Discards the previous outcome and resolves all dimensions reachable
    /// from `start` (typically the root), whose binding is given, by
    /// following the extended join graph's edges through the auxiliary
    /// stores (`aux`: a summary's stores, which hold every table below
    /// `start`). A caller resolving many rows reuses one `Resolution`.
    pub(crate) fn resolve(
        &mut self,
        graph: &ExtendedJoinGraph,
        aux: ViewStores<'a>,
        start: TableId,
        start_binding: Binding<'a>,
    ) {
        self.bindings.clear();
        self.missing.clear();
        self.bindings.push((start, start_binding));
        let mut next = 0;
        while let Some(&(t, binding)) = self.bindings.get(next) {
            next += 1;
            for edge in graph.children(t) {
                // Only the root is ever omitted, and the root has no parent;
                // a missing child store would be a derivation bug.
                let bound = aux.store(edge.to).and_then(|store| {
                    let key = store.lookup_by_key(binding.value(edge.fk_col)?)?;
                    Some(Binding::stored(store.group_srcs(), key.values()))
                });
                // A tree reaches each table once.
                match bound {
                    Some(b) => self.bindings.push((edge.to, b)),
                    None => self.missing.push(edge.to),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{StoreId, StoreRegistry};
    use md_algebra::{Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
    use md_core::{derive, DerivedPlan};
    use md_relation::{row, Catalog, DataType, Schema};

    fn snowflake() -> (Catalog, DerivedPlan, TableId, TableId, TableId) {
        let mut cat = Catalog::new();
        let category = cat
            .add_table(
                "category",
                Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]),
                0,
            )
            .unwrap();
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("categoryid", DataType::Int)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        cat.add_foreign_key(product, 1, category).unwrap();
        let view = GpsjView::new(
            "by_category",
            vec![sale, product, category],
            vec![
                SelectItem::group_by(ColRef::new(category, 1), "name"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
                Condition::eq_cols(ColRef::new(product, 1), ColRef::new(category, 0)),
                Condition::cmp_lit(ColRef::new(category, 1), CmpOp::Ne, "discontinued"),
            ],
        );
        let plan = derive(&view, &cat).unwrap();
        (cat, plan, sale, product, category)
    }

    /// A registry subscribed to `plan`'s stores, and their ids.
    fn stores(cat: &Catalog, plan: &DerivedPlan) -> (StoreRegistry, Vec<(TableId, StoreId)>) {
        let mut registry = StoreRegistry::new(cat);
        let ids = registry.subscribe(plan).unwrap();
        (registry, ids)
    }

    /// Folds `row` into the store of `table`.
    fn fill(stores: &mut (StoreRegistry, Vec<(TableId, StoreId)>), table: TableId, row: Row) {
        let (registry, ids) = stores;
        let (_, id) = ids.iter().find(|(t, _)| *t == table).unwrap();
        registry.store_mut(*id).apply_one(&row, 1).unwrap();
    }

    /// [`Resolution::resolve`] of a fact row, every source column
    /// retained, into a fresh [`Resolution`].
    fn resolve_from<'a>(
        plan: &DerivedPlan,
        (registry, ids): &'a (StoreRegistry, Vec<(TableId, StoreId)>),
        fact: &'a Row,
    ) -> Resolution<'a> {
        let mut res = Resolution::new();
        let aux = ViewStores { registry, ids };
        let start = Binding::seen_through(&[0, 1, 2], fact);
        res.resolve(&plan.graph, aux, plan.graph.root(), start);
        res
    }

    #[test]
    fn resolves_two_hop_chain() {
        let (cat, plan, sale, product, category) = snowflake();
        let mut aux = stores(&cat, &plan);
        fill(&mut aux, category, row![5, "food"]);
        fill(&mut aux, product, row![10, 5]);

        let fact = row![100, 10, 9.0];
        let res = resolve_from(&plan, &aux, &fact);
        assert!(res.is_complete());
        assert_eq!(
            res.value(ColRef::new(category, 1)),
            Some(&Value::str("food"))
        );
        assert_eq!(res.value(ColRef::new(product, 0)), Some(&Value::Int(10)));
        // The fact's own columns resolve through the starting binding.
        assert_eq!(res.value(ColRef::new(sale, 2)), Some(&Value::Double(9.0)));
    }

    #[test]
    fn missing_dimension_is_reported() {
        let (cat, plan, _, product, category) = snowflake();
        let mut aux = stores(&cat, &plan);
        // Product present, its category absent (e.g. filtered by the local
        // condition).
        fill(&mut aux, product, row![10, 5]);
        let fact = row![100, 10, 9.0];
        let res = resolve_from(&plan, &aux, &fact);
        assert!(!res.is_complete());
        assert_eq!(res.missing(), &[category]);
        // The resolved prefix is still usable.
        assert!(res.binding(product).is_some());
    }

    #[test]
    fn missing_first_hop_stops_descent() {
        let (cat, plan, _, product, _) = snowflake();
        let aux = stores(&cat, &plan);
        let fact = row![100, 10, 9.0];
        let res = resolve_from(&plan, &aux, &fact);
        assert_eq!(res.missing(), &[product]);
        assert!(res.binding(product).is_none());
    }

    #[test]
    fn aux_group_binding_exposes_only_retained_columns() {
        let (cat, plan, _, product, _) = snowflake();
        let _ = cat;
        let aux_def = plan.aux_for(product).unwrap();
        let srcs = aux_def.group_source_cols();
        let stored = row![10, 5];
        let b = Binding::stored(&srcs, stored.values());
        assert_eq!(b.value(0), Some(&Value::Int(10)));
        assert_eq!(b.value(1), Some(&Value::Int(5)));
        assert_eq!(b.value(9), None);
        // A delta row shows the same columns, wherever it keeps them.
        let delta = row!["x", 10, "y", 5];
        let b = Binding::seen_through(&[1, 3], &delta);
        assert_eq!(b.value(1), Some(&Value::Int(10)));
        assert_eq!(b.value(3), Some(&Value::Int(5)));
        assert_eq!(b.value(0), None);
    }
}
