//! Auxiliary view definitions.
//!
//! Each base table `Rᵢ` referenced by a GPSJ view gets (unless eliminated)
//! an auxiliary view
//!
//! ```text
//! X_{Rᵢ} = (Π_{A_{Rᵢ}} σ_S Rᵢ) ⋉ X_{R_{j1}} ⋉ … ⋉ X_{R_{jn}}
//! ```
//!
//! (paper Section 3.2): a local-condition selection and a generalized
//! projection over `Rᵢ`, semijoin-reduced against the auxiliary views of the
//! tables `Rᵢ` depends on. After smart duplicate compression the projection
//! schema `A_{Rᵢ}` consists of *group columns* (attributes that must stay
//! raw), *sum columns* (`SUM(a)` for attributes used only in CSMASs) and a
//! `COUNT(*)` column, unless the key of `Rᵢ` is among the group columns, in
//! which case the view degenerates to a PSJ-style auxiliary view.

use md_algebra::Condition;
use md_relation::{Catalog, Column, DataType, Schema, TableId, Value};

use crate::error::Result;

/// The role of one column in an auxiliary view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuxColKind {
    /// A raw source attribute, part of the auxiliary view's group-by key.
    Group {
        /// Source column index in the base table.
        src_col: usize,
    },
    /// `SUM(src_col)` over the compressed duplicates of a group.
    Sum {
        /// Source column index in the base table.
        src_col: usize,
    },
    /// `COUNT(*)` over the compressed duplicates of a group.
    Count,
}

/// A named auxiliary view column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuxColumn {
    /// Role of the column.
    pub kind: AuxColKind,
    /// Output column name.
    pub name: String,
}

/// The definition of one auxiliary view `X_{Rᵢ}`.
#[derive(Debug, Clone)]
pub struct AuxViewDef {
    /// The base table this auxiliary view covers.
    pub table: TableId,
    /// View name, e.g. `saleDTL` (following the paper's examples).
    pub name: String,
    /// Output columns: group columns first (in source-column order), then
    /// sum columns, then the optional count column.
    pub columns: Vec<AuxColumn>,
    /// Local conditions pushed down onto the base table.
    pub local_conditions: Vec<Condition>,
    /// Tables whose auxiliary views this one is semijoin-reduced against —
    /// the tables `Rᵢ` directly depends on.
    pub semijoins: Vec<TableId>,
}

impl AuxViewDef {
    /// Source column indices of the group columns, in output order.
    pub fn group_source_cols(&self) -> Vec<usize> {
        self.columns
            .iter()
            .filter_map(|c| match c.kind {
                AuxColKind::Group { src_col } => Some(src_col),
                _ => None,
            })
            .collect()
    }

    /// `(output index, source column)` of each sum column.
    pub fn sum_cols(&self) -> Vec<(usize, usize)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c.kind {
                AuxColKind::Sum { src_col } => Some((i, src_col)),
                _ => None,
            })
            .collect()
    }

    /// Output index of the `COUNT(*)` column, if present.
    pub fn count_col(&self) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.kind == AuxColKind::Count)
    }

    /// Output index of the *group* column holding raw source attribute
    /// `src_col`, if it is stored raw.
    pub fn group_col_of_source(&self, src_col: usize) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.kind == AuxColKind::Group { src_col })
    }

    /// An auxiliary view is a *degenerate PSJ view* when smart duplicate
    /// compression found `COUNT(*)` superfluous (the table's key is among
    /// the group columns), so no aggregation happens at all.
    pub fn is_degenerate_psj(&self) -> bool {
        self.count_col().is_none() && self.sum_cols().is_empty()
    }

    /// The output schema of the auxiliary view.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        let base = &catalog.def(self.table)?.schema;
        let cols = self
            .columns
            .iter()
            .map(|c| {
                let dtype = match c.kind {
                    AuxColKind::Group { src_col } | AuxColKind::Sum { src_col } => {
                        base.column(src_col).dtype
                    }
                    AuxColKind::Count => DataType::Int,
                };
                Column::new(c.name.clone(), dtype)
            })
            .collect();
        Schema::new(cols).map_err(Into::into)
    }

    /// Width of one stored tuple in the paper's storage model
    /// (fields × 4 bytes).
    pub fn paper_row_bytes(&self) -> u64 {
        self.columns.len() as u64 * Value::PAPER_FIELD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::{DataType, Schema as RSchema};

    fn sale_aux() -> (Catalog, AuxViewDef) {
        let mut cat = Catalog::new();
        let sale = cat
            .add_table(
                "sale",
                RSchema::from_pairs(&[
                    ("id", DataType::Int),
                    ("timeid", DataType::Int),
                    ("productid", DataType::Int),
                    ("price", DataType::Double),
                ]),
                0,
            )
            .unwrap();
        // The paper's saleDTL: group (timeid, productid), SUM(price), COUNT(*).
        let def = AuxViewDef {
            table: sale,
            name: "saleDTL".into(),
            columns: vec![
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 1 },
                    name: "timeid".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Group { src_col: 2 },
                    name: "productid".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Sum { src_col: 3 },
                    name: "SalePrice".into(),
                },
                AuxColumn {
                    kind: AuxColKind::Count,
                    name: "SaleCount".into(),
                },
            ],
            local_conditions: vec![],
            semijoins: vec![],
        };
        (cat, def)
    }

    #[test]
    fn accessors() {
        let (_, def) = sale_aux();
        assert_eq!(def.group_source_cols(), vec![1, 2]);
        assert_eq!(def.sum_cols(), vec![(2, 3)]);
        assert_eq!(def.count_col(), Some(3));
        assert_eq!(def.group_col_of_source(2), Some(1));
        assert_eq!(def.group_col_of_source(3), None);
        assert!(!def.is_degenerate_psj());
        // sale.id (the key) is not retained.
        assert_eq!(def.group_col_of_source(0), None);
    }

    #[test]
    fn schema_types_follow_sources() {
        let (cat, def) = sale_aux();
        let s = def.schema(&cat).unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.column(0).dtype, DataType::Int);
        assert_eq!(s.column(2).name, "SalePrice");
        assert_eq!(s.column(2).dtype, DataType::Double);
        assert_eq!(s.column(3).dtype, DataType::Int);
    }

    #[test]
    fn paper_row_bytes_counts_fields() {
        let (_, def) = sale_aux();
        // 4 fields × 4 bytes — the paper's "167 MBytes" arithmetic unit.
        assert_eq!(def.paper_row_bytes(), 16);
    }

    #[test]
    fn degenerate_psj_detection() {
        let (cat, mut def) = sale_aux();
        let _ = cat;
        def.columns = vec![
            AuxColumn {
                kind: AuxColKind::Group { src_col: 0 },
                name: "id".into(),
            },
            AuxColumn {
                kind: AuxColKind::Group { src_col: 3 },
                name: "price".into(),
            },
        ];
        assert!(def.is_degenerate_psj());
    }
}
