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
pub fn need(graph: &ExtendedJoinGraph, table: TableId) -> BTreeSet<TableId> {
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
pub fn need0(graph: &ExtendedJoinGraph, table: TableId) -> BTreeSet<TableId> {
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

/// Convenience: `Need(Rᵢ)` with `Rᵢ` itself removed. Definition 3's literal
/// recursion can include the starting table (a non-`k` dimension's Need set
/// contains its parent chain *and*, through the root's `Need₀`, possibly
/// itself); the elimination test in Algorithm 3.2 asks whether `Rᵢ` is in
/// the Need set of any *other* table, so self-membership is irrelevant.
pub fn need_others(graph: &ExtendedJoinGraph, table: TableId) -> BTreeSet<TableId> {
    let mut set = need(graph, table);
    set.remove(&table);
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

/// Returns `true` when `table` appears in the Need set of some *other*
/// table of the view.
pub fn in_need_of_another(graph: &ExtendedJoinGraph, table: TableId) -> bool {
    !needed_by(graph, table).is_empty()
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
        assert_eq!(need_others(&g, f.time), BTreeSet::from([f.sale]));
        // Need(product) = {sale} ∪ Need(sale) = {sale, time}.
        assert_eq!(need(&g, f.product), BTreeSet::from([f.sale, f.time]));
        // sale is needed by both dimensions.
        assert!(in_need_of_another(&g, f.sale));
        assert!(in_need_of_another(&g, f.time));
        assert!(!in_need_of_another(&g, f.product));
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
}
