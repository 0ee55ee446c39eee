//! Extended join graphs — paper Definition 2 and Figure 2.
//!
//! Given a GPSJ view `V`, the extended join graph `G(V)` is a directed graph
//! over the referenced base tables with an edge `e(Rᵢ, Rⱼ)` for every join
//! condition `Rᵢ.b = Rⱼ.a` with `a` the key of `Rⱼ`. A vertex is annotated
//! `g` when the table contributes group-by attributes, and `k` when one of
//! those attributes is the table's key.
//!
//! The paper assumes the graph is a **tree** (at most one edge into any
//! vertex, no cycles, no self-joins), which covers star and snowflake
//! schemas; [`ExtendedJoinGraph::build`] validates this. The table at the
//! tree's root is the *root table* `R₀` — the fact table in a star schema.
//!
//! [`ExtendedJoinGraph::build`] is also the one place that decides Section
//! 2.2's *depends* relation: it classifies each edge once, as a
//! [`Dependence::Dependency`] or as [`Dependence::Blocked`] with the reason
//! (no declared referential integrity, the target's exposed columns).
//! Derivation, the analyzer and the engine read these verdicts.

use std::collections::BTreeSet;

use md_algebra::GpsjView;
use md_relation::{Catalog, TableId};

use crate::error::{CoreError, Result, TreeDefect, TreeDefectKind};
use crate::exposure::exposed_columns;

/// A directed edge `e(from, to)` induced by the join condition
/// `from.fk_col = to.key_col` (with `key_col` the key of `to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    /// The referencing (foreign-key side) table.
    pub from: TableId,
    /// The foreign-key column on `from`.
    pub fk_col: usize,
    /// The referenced (key side) table.
    pub to: TableId,
    /// The key column on `to`.
    pub key_col: usize,
}

/// Vertex annotation per Definition 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Annotation {
    /// No group-by attribute comes from this table.
    None,
    /// The table contributes group-by attributes (`g`).
    Group,
    /// One of the contributed group-by attributes is the table's key (`k`).
    Key,
}

impl Annotation {
    /// Returns `true` for `g` or `k`.
    pub(crate) fn is_grouped(self) -> bool {
        !matches!(self, Annotation::None)
    }
}

/// Section 2.2's verdict on an edge `e(from, to)`: does `from` *depend on*
/// `to`?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dependence {
    /// The join is on the key of `to` (by construction), referential
    /// integrity is declared along it, and `to` has no exposed updates.
    Dependency,
    /// `from` does not depend on `to`.
    Blocked(EdgeBlock),
}

/// Why an edge is not a dependency: referential integrity is missing,
/// the target has exposed columns, or both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeBlock {
    /// Whether referential integrity is declared from `from.fk_col` to `to`.
    pub ri_declared: bool,
    /// The target's exposed columns (updatable under its contract and in a
    /// condition of the view), ascending.
    pub exposed: Vec<usize>,
}

impl Dependence {
    /// Returns `true` for [`Dependence::Dependency`].
    pub(crate) fn is_dependency(&self) -> bool {
        matches!(self, Dependence::Dependency)
    }
}

/// The extended join graph of a GPSJ view, validated to be a tree, with
/// each edge classified by Section 2.2's *depends* relation.
#[derive(Debug, Clone)]
pub struct ExtendedJoinGraph {
    tables: Vec<TableId>,
    edges: Vec<JoinEdge>,
    /// Parallel to `edges`.
    dependence: Vec<Dependence>,
    annotations: Vec<Annotation>,
    root: TableId,
}

impl ExtendedJoinGraph {
    /// Builds and validates the extended join graph of `view`. The tree
    /// checks run in order — at most one edge into any table, exactly one
    /// table without one, every table reachable from it — and the first
    /// that fails reports all its defects ([`CoreError::NotATree`]).
    pub fn build(view: &GpsjView, catalog: &Catalog) -> Result<Self> {
        view.validate(catalog)?;
        let tables = view.tables.clone();
        let name = |t: TableId| match catalog.def(t) {
            Ok(def) => format!("'{}'", def.name),
            Err(_) => t.to_string(),
        };
        let defect = |kind, message: String| TreeDefect { kind, message };
        let not_a_tree = |defects| CoreError::NotATree {
            view: view.name.clone(),
            defects,
        };

        // Edges from join conditions, oriented fk -> key.
        let mut edges: Vec<JoinEdge> = Vec::new();
        for (fk, key) in view.join_conditions(catalog)? {
            let edge = JoinEdge {
                from: fk.table,
                fk_col: fk.column,
                to: key.table,
                key_col: key.column,
            };
            if !edges.contains(&edge) {
                edges.push(edge);
            }
        }

        // Tree validation: at most one incoming edge per vertex.
        let mut several_parents = Vec::new();
        for &table in &tables {
            let edges: Vec<JoinEdge> = edges.iter().filter(|e| e.to == table).copied().collect();
            if edges.len() > 1 {
                let n = edges.len();
                let message = format!("table {} is reached by {n} join paths", name(table));
                several_parents.push(defect(TreeDefectKind::SeveralParents(edges), message));
            }
        }
        if !several_parents.is_empty() {
            return Err(not_a_tree(several_parents));
        }

        // Exactly one root (vertex with no incoming edge).
        let roots: Vec<TableId> = tables
            .iter()
            .copied()
            .filter(|t| !edges.iter().any(|e| e.to == *t))
            .collect();
        let root = match roots.as_slice() {
            [r] => *r,
            [] => {
                let message =
                    "every table has an incoming join edge: the join graph contains a cycle";
                return Err(not_a_tree(vec![defect(
                    TreeDefectKind::NoRoot,
                    message.into(),
                )]));
            }
            _ => {
                let message = "the join graph is disconnected".to_owned();
                return Err(not_a_tree(vec![defect(
                    TreeDefectKind::SeveralRoots(roots),
                    message,
                )]));
            }
        };

        // Reachability: the root must reach every table (rules out cycles
        // hanging off the tree).
        let mut reached = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if reached.insert(t) {
                for e in edges.iter().filter(|e| e.from == t) {
                    stack.push(e.to);
                }
            }
        }
        let unreached: Vec<TableId> = (tables.iter().copied())
            .filter(|t| !reached.contains(t))
            .collect();
        if !unreached.is_empty() {
            let names: Vec<String> = unreached.iter().map(|&t| name(t)).collect();
            let message = format!(
                "the join graph contains a cycle: {} cannot be reached from root {}",
                names.join(", "),
                name(root)
            );
            let kind = TreeDefectKind::Unreachable(unreached);
            return Err(not_a_tree(vec![defect(kind, message)]));
        }

        // Annotations.
        let annotations = tables
            .iter()
            .map(|&t| {
                let group_cols = view.group_by_columns_of(t);
                let key_col = catalog.def(t)?.key_col;
                Ok(if group_cols.contains(&key_col) {
                    Annotation::Key
                } else if !group_cols.is_empty() {
                    Annotation::Group
                } else {
                    Annotation::None
                })
            })
            .collect::<Result<Vec<_>>>()?;

        // Section 2.2, decided here and nowhere else: `from` depends on
        // `to` when referential integrity is declared along the key join
        // and `to` has no exposed updates with respect to the view.
        let dependence = edges
            .iter()
            .map(|e| {
                let ri_declared = catalog.foreign_key(e.from, e.fk_col, e.to).is_some();
                let exposed: Vec<usize> =
                    exposed_columns(view, catalog, e.to)?.into_iter().collect();
                Ok(if ri_declared && exposed.is_empty() {
                    Dependence::Dependency
                } else {
                    Dependence::Blocked(EdgeBlock {
                        ri_declared,
                        exposed,
                    })
                })
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(ExtendedJoinGraph {
            tables,
            edges,
            dependence,
            annotations,
            root,
        })
    }

    /// The root table `R₀` (the fact table in a star schema).
    pub fn root(&self) -> TableId {
        self.root
    }

    /// All tables, in view order.
    pub(crate) fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// All edges with their Section 2.2 verdicts.
    pub fn classified_edges(&self) -> impl Iterator<Item = (&JoinEdge, &Dependence)> {
        self.edges.iter().zip(&self.dependence)
    }

    /// Returns `true` when `edge` is an edge of this graph and `edge.from`
    /// *depends on* `edge.to`.
    pub fn is_dependency(&self, edge: &JoinEdge) -> bool {
        self.classified_edges()
            .any(|(e, d)| e == edge && d.is_dependency())
    }

    /// The tables that `table` directly depends on (targets of its
    /// dependency edges) — the semijoin-reduction partners of its
    /// auxiliary view.
    pub fn direct_dependencies(&self, table: TableId) -> Vec<TableId> {
        self.classified_edges()
            .filter(|(e, d)| e.from == table && d.is_dependency())
            .map(|(e, _)| e.to)
            .collect()
    }

    /// The edges of `table`'s subtree that are not dependencies, in edge
    /// order. `table` *transitively depends on all other* base tables —
    /// the first elimination condition of Algorithm 3.2 — exactly when it
    /// is the root and this is empty.
    pub(crate) fn blocked_edges(
        &self,
        table: TableId,
    ) -> impl Iterator<Item = (&JoinEdge, &EdgeBlock)> {
        let under = self.subtree(table);
        self.classified_edges().filter_map(move |(e, d)| match d {
            Dependence::Blocked(block) if under.contains(&e.from) => Some((e, block)),
            _ => None,
        })
    }

    /// The annotation of `table`.
    pub(crate) fn annotation(&self, table: TableId) -> Annotation {
        self.tables
            .iter()
            .position(|&t| t == table)
            .map(|i| self.annotations[i])
            .unwrap_or(Annotation::None)
    }

    /// Outgoing edges of `table` (toward its children).
    pub fn children(&self, table: TableId) -> impl Iterator<Item = &JoinEdge> {
        self.edges.iter().filter(move |e| e.from == table)
    }

    /// The edge into `table`, if it is not the root.
    pub fn parent_edge(&self, table: TableId) -> Option<&JoinEdge> {
        self.edges.iter().find(|e| e.to == table)
    }

    /// All tables in the subtree rooted at `table` (inclusive), in DFS
    /// preorder.
    pub(crate) fn subtree(&self, table: TableId) -> Vec<TableId> {
        let mut out = Vec::new();
        let mut stack = vec![table];
        while let Some(t) = stack.pop() {
            out.push(t);
            for e in self.children(t) {
                stack.push(e.to);
            }
        }
        out
    }

    /// Renders the graph in the style of the paper's Figure 2, e.g.
    /// `sale -> time(g), sale -> product`.
    pub fn display(&self, catalog: &Catalog) -> String {
        let name = |t: TableId| -> String {
            catalog
                .def(t)
                .map(|d| d.name.clone())
                .unwrap_or_else(|_| t.to_string())
        };
        let annot = |t: TableId| -> &'static str {
            match self.annotation(t) {
                Annotation::None => "",
                Annotation::Group => "(g)",
                Annotation::Key => "(k)",
            }
        };
        if self.edges.is_empty() {
            return format!("{}{}", name(self.root), annot(self.root));
        }
        let mut parts: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{}{} -> {}{}",
                    name(e.from),
                    annot(e.from),
                    name(e.to),
                    annot(e.to)
                )
            })
            .collect();
        parts.sort();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, SelectItem};
    use md_relation::{DataType, Schema};

    /// The paper's running example: sale -> time(g), sale -> product.
    fn paper_setup() -> (Catalog, TableId, TableId, TableId, GpsjView) {
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
        let view = GpsjView::new(
            "product_sales",
            vec![sale, time, product],
            vec![
                SelectItem::group_by(ColRef::new(time, 1), "month"),
                SelectItem::agg(
                    Aggregate::of(AggFunc::Sum, ColRef::new(sale, 3)),
                    "TotalPrice",
                ),
                SelectItem::agg(Aggregate::count_star(), "TotalCount"),
                SelectItem::agg(
                    Aggregate::distinct_of(AggFunc::Count, ColRef::new(product, 1)),
                    "DifferentBrands",
                ),
            ],
            vec![
                Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
                Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
                Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
            ],
        );
        (cat, time, product, sale, view)
    }

    #[test]
    fn figure2_graph_structure() {
        let (cat, time, product, sale, view) = paper_setup();
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(g.root(), sale);
        assert_eq!(g.edges.len(), 2);
        assert!(g.parent_edge(sale).is_none());
        assert_eq!(g.parent_edge(time).unwrap().from, sale);
        assert_eq!(g.parent_edge(product).unwrap().from, sale);
        // Figure 2 annotations: Sale unannotated, Time g, Product unannotated.
        assert_eq!(g.annotation(sale), Annotation::None);
        assert_eq!(g.annotation(time), Annotation::Group);
        assert_eq!(g.annotation(product), Annotation::None);
        assert_eq!(g.display(&cat), "sale -> product, sale -> time(g)");
    }

    #[test]
    fn key_annotation_when_key_grouped() {
        let (cat, time, product, sale, mut view) = paper_setup();
        let _ = product;
        // Group by time.id instead of time.month.
        view.select[0] = SelectItem::group_by(ColRef::new(time, 0), "timeid");
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(g.annotation(time), Annotation::Key);
        assert_eq!(g.annotation(sale), Annotation::None);
        assert!(g.annotation(time).is_grouped());
    }

    #[test]
    fn subtree_enumeration() {
        let (cat, time, product, sale, view) = paper_setup();
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        let mut sub = g.subtree(sale);
        sub.sort();
        let mut all = vec![sale, time, product];
        all.sort();
        assert_eq!(sub, all);
        assert_eq!(g.subtree(time), vec![time]);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let (cat, time, product, sale, mut view) = paper_setup();
        let _ = time;
        // Remove the product join: product becomes a second root.
        view.conditions
            .retain(|c| !c.columns().iter().any(|col| col.table == product) || c.is_local());
        let e = ExtendedJoinGraph::build(&view, &cat).unwrap_err();
        let CoreError::NotATree { defects, .. } = e else {
            panic!("expected NotATree, got {e}");
        };
        assert_eq!(
            defects[0].kind,
            TreeDefectKind::SeveralRoots(vec![sale, product])
        );
    }

    #[test]
    fn double_parent_rejected() {
        // a -> c, b -> c: two incoming edges into c.
        let mut cat = Catalog::new();
        let c = cat
            .add_table("c", Schema::from_pairs(&[("id", DataType::Int)]), 0)
            .unwrap();
        let a = cat
            .add_table(
                "a",
                Schema::from_pairs(&[("id", DataType::Int), ("cid", DataType::Int)]),
                0,
            )
            .unwrap();
        let b = cat
            .add_table(
                "b",
                Schema::from_pairs(&[("id", DataType::Int), ("cid", DataType::Int)]),
                0,
            )
            .unwrap();
        let view = GpsjView::new(
            "v",
            vec![a, b, c],
            vec![SelectItem::agg(Aggregate::count_star(), "n")],
            vec![
                Condition::eq_cols(ColRef::new(a, 1), ColRef::new(c, 0)),
                Condition::eq_cols(ColRef::new(b, 1), ColRef::new(c, 0)),
            ],
        );
        let e = ExtendedJoinGraph::build(&view, &cat).unwrap_err();
        let CoreError::NotATree { defects, .. } = e else {
            panic!("expected NotATree, got {e}");
        };
        assert!(matches!(
            &defects[0].kind,
            TreeDefectKind::SeveralParents(edges) if edges.len() == 2 && edges[1].to == c
        ));
    }

    #[test]
    fn single_table_graph() {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "t",
                Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Int)]),
                0,
            )
            .unwrap();
        let view = GpsjView::new(
            "v",
            vec![t],
            vec![
                SelectItem::group_by(ColRef::new(t, 1), "x"),
                SelectItem::agg(Aggregate::count_star(), "n"),
            ],
            vec![],
        );
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(g.root(), t);
        assert!(g.edges.is_empty());
        assert_eq!(g.display(&cat), "t(g)");
    }

    #[test]
    fn dependencies_require_ri_and_no_exposure() {
        let (mut cat, time, product, sale, view) = paper_setup();
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        // With the default (pessimistic) update contract, time.year is
        // exposed, so sale does not depend on time; product has no condition
        // columns other than its key, which is never updatable → depends.
        assert_eq!(g.direct_dependencies(sale), vec![product]);
        let blocked: Vec<_> = g.blocked_edges(sale).collect();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].0.to, time);
        assert_eq!(
            blocked[0].1,
            &EdgeBlock {
                ri_declared: true,
                exposed: vec![2]
            }
        );

        // Declaring time append-only removes the exposure; the verdicts
        // are the graph's, so it is rebuilt against the new contract.
        cat.set_append_only(time).unwrap();
        let g = ExtendedJoinGraph::build(&view, &cat).unwrap();
        assert_eq!(g.direct_dependencies(sale).len(), 2);
        assert!(g.edges.iter().all(|e| g.is_dependency(e)));
        assert_eq!(g.blocked_edges(sale).count(), 0);
    }

    #[test]
    fn missing_ri_breaks_dependency() {
        let (mut cat, time, product, sale, view) = paper_setup();
        cat.set_append_only(time).unwrap();
        cat.set_append_only(product).unwrap();
        // Build an identical catalog but without the sale->product FK.
        let mut cat2 = Catalog::new();
        for t in [time, product, sale] {
            let d = cat.def(t).unwrap();
            cat2.add_table(d.name.clone(), d.schema.clone(), d.key_col)
                .unwrap();
        }
        cat2.add_foreign_key(sale, 1, time).unwrap();
        cat2.set_append_only(time).unwrap();
        cat2.set_append_only(product).unwrap();
        let g = ExtendedJoinGraph::build(&view, &cat2).unwrap();
        assert_eq!(g.direct_dependencies(sale), vec![time]);
        let (edge, dependence) = g.classified_edges().find(|(e, _)| e.to == product).unwrap();
        assert_eq!(
            dependence,
            &Dependence::Blocked(EdgeBlock {
                ri_declared: false,
                exposed: vec![]
            })
        );
        assert!(!g.is_dependency(edge));
    }
}
