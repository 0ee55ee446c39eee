//! The `Need` and `Need₀` functions — paper Definitions 3 and 4.
//!
//! Informally, `Need(Rᵢ)` is the minimal set of base tables with which `Rᵢ`
//! must join so that the unique set of tuples in `V` associated with any
//! tuple of `Rᵢ` can be identified; if `Rⱼ ∈ Need(Rᵢ)` then `X_{Rⱼ}` is
//! required to propagate deletions (and exposed updates) of `Rᵢ` to `V`.
//!
//! Unlike the PSJ case (Quass et al.), a GPSJ view need not join with all
//! other tables when the key of `Rᵢ` is not preserved: the group-by
//! attributes always form a combined key to the view, and `Need₀` finds a
//! minimal subset of tables whose group-by attributes do.

use std::collections::BTreeSet;

use md_relation::TableId;

use crate::join_graph::{Annotation, ExtendedJoinGraph};

/// `Need(Rᵢ, G(V))` per Definition 3:
///
/// * `∅` when `Rᵢ` is annotated `k` (its key is a group-by attribute, so a
///   tuple of `Rᵢ` identifies its groups directly);
/// * `{Rⱼ} ∪ Need(Rⱼ)` when `Rᵢ` is not annotated `k` and has a parent `Rⱼ`
///   (`e(Rⱼ, Rᵢ)` exists and `i ≠ 0`);
/// * `Need₀(R₀, G(V))` otherwise (the root with un-preserved key).
pub(crate) fn need(graph: &ExtendedJoinGraph, table: TableId) -> BTreeSet<TableId> {
    if graph.annotation(table) == Annotation::Key {
        return BTreeSet::new();
    }
    match graph.parent_edge(table) {
        Some(edge) => {
            let mut set = need(graph, edge.from);
            set.insert(edge.from);
            set
        }
        None => need0(graph, graph.root()),
    }
}

/// `Need₀(Rᵢ, G(V))` per Definition 4: a depth-first traversal collecting
/// the minimal set of base tables whose group-by attributes form a combined
/// key to `V`. A child subtree is entered only when the current vertex is
/// not annotated `k` and the subtree actually contains a `k`- or
/// `g`-annotated vertex.
pub(crate) fn need0(graph: &ExtendedJoinGraph, table: TableId) -> BTreeSet<TableId> {
    let mut set = BTreeSet::new();
    if graph.annotation(table) == Annotation::Key {
        return set;
    }
    for edge in graph.children(table) {
        let subtree_grouped = graph
            .subtree(edge.to)
            .into_iter()
            .any(|t| graph.annotation(t).is_grouped());
        if subtree_grouped {
            set.insert(edge.to);
            set.extend(need0(graph, edge.to));
        }
    }
    set
}

/// The *other* tables of the view whose Need set holds `table`, in view
/// order — the second elimination condition of Algorithm 3.2 fails once
/// for each.
pub(crate) fn needed_by(graph: &ExtendedJoinGraph, table: TableId) -> Vec<TableId> {
    (graph.tables().iter().copied())
        .filter(|&t| t != table && need(graph, t).contains(&table))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
    use md_relation::{Catalog, DataType, Schema};

    struct Fixture {
        cat: Catalog,
        time: TableId,
        product: TableId,
        sale: TableId,
    }

    fn fixture() -> Fixture {
        let mut cat = Catalog::new();
        let time = cat
            .add_table(
                "time",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("month", DataType::Int),
                    ("year", DataType::Int),
                ]),
                0,
            )
            .unwrap();
        let product = cat
            .add_table(
                "product",
                Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
                0,
            )
            .unwrap();
        let sale = cat
            .add_table(
                "sale",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, time).unwrap();
        cat.add_foreign_key(sale, 2, product).unwrap();
        Fixture {
            cat,
            time,
            product,
            sale,
        }
    }

    fn view_with_select(f: &Fixture, select: Vec<SelectItem>) -> GpsjView {
        GpsjView::new(
            "v",
            vec![f.sale, f.time, f.product],
            select,
            vec![
                Condition::cmp_lit(ColRef::new(f.time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(f.sale, 1), ColRef::new(f.time, 0)),
                Condition::eq_cols(ColRef::new(f.sale, 2), ColRef::new(f.product, 0)),
            ],
        )
    }

    #[test]
    fn product_sales_need_sets() {
        // Group by time.month: time is g; sale and product unannotated.
        let f = fixture();
        let view = view_with_select(
            &f,
            vec![
                SelectItem::group_by(ColRef::new(f.time, 1), "month"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        // Need(sale) = Need0(root) = {time}: time's subtree holds the only
        // grouped vertex.
        assert_eq!(need(&g, f.sale), BTreeSet::from([f.time]));
        // Need(time) = {sale} ∪ Need(sale) = {sale, time}.
        assert_eq!(need(&g, f.time), BTreeSet::from([f.sale, f.time]));
        let mut others = need(&g, f.time);
        others.remove(&f.time);
        assert_eq!(others, BTreeSet::from([f.sale]));
        // Need(product) = {sale} ∪ Need(sale) = {sale, time}.
        assert_eq!(need(&g, f.product), BTreeSet::from([f.sale, f.time]));
        // sale is needed by both dimensions.
        assert!(!needed_by(&g, f.sale).is_empty());
        assert!(!needed_by(&g, f.time).is_empty());
        assert!(needed_by(&g, f.product).is_empty());
    }

    #[test]
    fn key_annotated_table_needs_nothing() {
        // Group by product.id (key): product annotated k.
        let f = fixture();
        let view = view_with_select(
            &f,
            vec![
                SelectItem::group_by(ColRef::new(f.product, 0), "pid"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        assert_eq!(need(&g, f.product), BTreeSet::new());
        // Need(sale) = Need0: product subtree grouped → {product}.
        assert_eq!(need(&g, f.sale), BTreeSet::from([f.product]));
        // Need(time) = {sale} ∪ Need(sale).
        assert_eq!(need(&g, f.time), BTreeSet::from([f.sale, f.product]));
    }

    #[test]
    fn root_annotated_k_has_empty_need() {
        // Group by sale.id: root annotated k → Need(sale) = ∅ and no
        // dimension group-bys required.
        let f = fixture();
        let view = view_with_select(
            &f,
            vec![
                SelectItem::group_by(ColRef::new(f.sale, 0), "saleid"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(f.sale, 3)), "p"),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        assert_eq!(need(&g, f.sale), BTreeSet::new());
        // Dimensions still need the parent chain.
        assert_eq!(need(&g, f.time), BTreeSet::from([f.sale]));
    }

    #[test]
    fn need0_skips_ungrouped_subtrees() {
        // Group by time.month only; product subtree has no annotation and
        // is not entered.
        let f = fixture();
        let view = view_with_select(
            &f,
            vec![
                SelectItem::group_by(ColRef::new(f.time, 1), "month"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        let n0 = need0(&g, f.sale);
        assert!(n0.contains(&f.time));
        assert!(!n0.contains(&f.product));
    }

    #[test]
    fn need0_on_snowflake_descends_to_grouped_leaf() {
        // sale -> product -> category(g): Need0(sale) = {product, category}.
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
                Schema::from_pairs(&[("id", DataType::Int), ("productid", DataType::Int)]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        cat.add_foreign_key(product, 1, category).unwrap();
        let view = GpsjView::new(
            "v",
            vec![sale, product, category],
            vec![
                SelectItem::group_by(ColRef::new(category, 1), "name"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
                Condition::eq_cols(ColRef::new(product, 1), ColRef::new(category, 0)),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(need(&g, sale), BTreeSet::from([product, category]));
        // category: {product} ∪ Need(product) = {product, sale} ∪ Need(sale)…
        let nc = need(&g, category);
        assert!(nc.contains(&product));
        assert!(nc.contains(&sale));
    }

    #[test]
    fn need0_stops_below_key_annotated_vertex() {
        // sale -> product(k) -> category(g): grouping on product.id makes
        // category's group-by redundant for the combined key, so Need0(sale)
        // = {product} only.
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
                Schema::from_pairs(&[("id", DataType::Int), ("productid", DataType::Int)]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        cat.add_foreign_key(product, 1, category).unwrap();
        let view = GpsjView::new(
            "v",
            vec![sale, product, category],
            vec![
                SelectItem::group_by(ColRef::new(product, 0), "pid"),
                SelectItem::group_by(ColRef::new(category, 1), "name"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
                Condition::eq_cols(ColRef::new(product, 1), ColRef::new(category, 0)),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(need0(&g, sale), BTreeSet::from([product]));
    }

    // Edge cases: single-table views, disconnected graphs, self-referential
    // foreign keys, and the root-omitted shape that Algorithm 3.2 produces
    // for key-grouped views.

    #[test]
    fn single_table_view_needs_nothing() {
        let f = fixture();
        let sale = f.sale;
        let view = GpsjView::new(
            "v",
            vec![sale],
            vec![
                SelectItem::group_by(ColRef::new(sale, 2), "pid"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        assert_eq!(g.tables().len(), 1);
        assert_eq!(g.root(), sale);
        // With no other table, nothing can need the root and the root can
        // need nothing beyond (possibly) itself.
        let mut others = need(&g, sale);
        others.remove(&sale);
        assert_eq!(others, BTreeSet::new());
        assert!(needed_by(&g, sale).is_empty());
    }

    #[test]
    fn single_table_key_grouped_has_empty_need() {
        let f = fixture();
        let sale = f.sale;
        let view = GpsjView::new(
            "v",
            vec![sale],
            vec![
                SelectItem::group_by(ColRef::new(sale, 0), "sid"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 3)), "total"),
            ],
            vec![],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        // Root annotated k: Definition 3's first case, Need = ∅ outright.
        assert_eq!(need(&g, sale), BTreeSet::new());
        assert_eq!(need0(&g, sale), BTreeSet::new());
    }

    #[test]
    fn disconnected_graph_is_rejected_at_build() {
        let f = fixture();
        // sale and time listed but never joined: no tree covers both.
        let view = GpsjView::new(
            "v",
            vec![f.sale, f.time],
            vec![SelectItem::agg(Aggregate::count_star(), "n")],
            vec![],
        );
        assert!(ExtendedJoinGraph::build(&view, &f.cat).is_err());
    }

    #[test]
    fn self_referential_fk_does_not_confuse_need() {
        // employee.managerid references employee itself. GPSJ forbids
        // self-joins, so the edge never materializes in a graph; the declared
        // FK must not leak into Need computation.
        let mut cat = Catalog::new();
        let employee = cat
            .add_table(
                "employee",
                Schema::from_pairs(&[
                    ("id", DataType::Int),
                    ("managerid", DataType::Int),
                    ("salary", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        cat.add_foreign_key(employee, 1, employee).unwrap();
        let view = GpsjView::new(
            "v",
            vec![employee],
            vec![
                SelectItem::group_by(ColRef::new(employee, 1), "mgr"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(employee, 2)), "pay"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![],
        );
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(g.tables().len(), 1);
        assert!(g.children(employee).next().is_none());
        assert!(needed_by(&g, employee).is_empty());
    }

    #[test]
    fn key_grouped_dimensions_leave_root_unneeded() {
        // GROUP BY both dimension keys: every dimension is annotated k, so
        // Need(dim) = ∅ and the fact table is in no other Need set — the
        // precondition for Algorithm 3.2 to omit the root auxiliary view.
        let f = fixture();
        let (sale, time, product) = (f.sale, f.time, f.product);
        let view = GpsjView::new(
            "v",
            vec![sale, time, product],
            vec![
                SelectItem::group_by(ColRef::new(time, 0), "tid"),
                SelectItem::group_by(ColRef::new(product, 0), "pid"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 3)), "total"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        assert_eq!(need(&g, time), BTreeSet::new());
        assert_eq!(need(&g, product), BTreeSet::new());
        assert!(needed_by(&g, sale).is_empty());
        // And the derived plan indeed drops the fact auxiliary view.
        let plan = crate::derive(&view, &f.cat).unwrap();
        assert!(plan.root_omitted());
    }

    #[test]
    fn need_propagates_down_a_snowflake_chain() {
        // sale → product → category, grouped on the far end of the chain:
        // Need₀(sale) must pull in the whole grouped subtree, and every
        // link's Need set includes its parent chain.
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
        cat.add_foreign_key(product, 1, category).unwrap();
        cat.add_foreign_key(sale, 1, product).unwrap();
        let view = GpsjView::new(
            "v",
            vec![sale, product, category],
            vec![
                SelectItem::group_by(ColRef::new(category, 1), "name"),
                SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 2)), "total"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(product, 0)),
                Condition::eq_cols(ColRef::new(product, 1), ColRef::new(category, 0)),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        // Need₀ of the root collects the grouped subtree.
        assert_eq!(need0(&g, sale), BTreeSet::from([product, category]));
        assert_eq!(need(&g, sale), BTreeSet::from([product, category]));
        // Mid-chain: {parent} ∪ Need(parent).
        assert_eq!(need(&g, product), BTreeSet::from([sale, product, category]));
        // Everything is in somebody else's Need set.
        assert!(!needed_by(&g, sale).is_empty());
        assert!(!needed_by(&g, product).is_empty());
        assert!(!needed_by(&g, category).is_empty());
    }

    #[test]
    fn comparison_conditions_do_not_create_edges() {
        // A literal selection on the dimension adds a condition column but no
        // join edge; Need must be computed over join edges alone.
        let f = fixture();
        let (sale, time, product) = (f.sale, f.time, f.product);
        let view = GpsjView::new(
            "v",
            vec![sale, time, product],
            vec![
                SelectItem::group_by(ColRef::new(time, 1), "month"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 1), CmpOp::Ge, 6i64),
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        );
        let g = ExtendedJoinGraph::build(&view, &f.cat).unwrap();
        assert_eq!(g.children(sale).count(), 2);
        assert_eq!(need(&g, sale), BTreeSet::from([time]));
        // product holds no grouped column and no condition: needed by nobody.
        assert!(needed_by(&g, product).is_empty());
    }
}
