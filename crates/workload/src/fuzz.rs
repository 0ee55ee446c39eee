//! Randomized schema/view/workload generation for property-based testing.
//!
//! [`random_setup`] deterministically derives, from a single seed, a full
//! test universe: a star or snowflake catalog with randomized update
//! contracts, a populated database, a random well-formed GPSJ view over
//! it, and the ability to produce contract-respecting change streams.
//! Property tests quantify over seeds and assert the paper's invariants
//! (reconstruction ≡ evaluation, incremental maintenance ≡ recomputation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, HavingCond, SelectItem};
use md_relation::{row, Catalog, Change, DataType, Database, Row, Schema, TableId, Value};

/// A randomly generated universe for one property-test case.
pub struct RandomSetup {
    /// The catalog (with randomized contracts).
    pub catalog: Catalog,
    /// The populated sources.
    pub db: Database,
    /// A random well-formed GPSJ view over the catalog.
    pub view: GpsjView,
    /// The fact table.
    pub fact: TableId,
    /// All tables, fact first.
    pub tables: Vec<TableId>,
    rng: StdRng,
    next_ids: Vec<i64>,
}

/// Generates a universe from `seed`.
pub fn random_setup(seed: u64) -> RandomSetup {
    let mut rng = StdRng::seed_from_u64(seed);

    // ---- Schema ---------------------------------------------------------
    let n_dims = rng.gen_range(0..=3usize);
    let snowflake = n_dims >= 1 && rng.gen_bool(0.4);
    let mut cat = Catalog::new();

    // Dimension tables: key + 1–2 attributes.
    let mut dims: Vec<TableId> = Vec::new();
    for d in 0..n_dims {
        let extra = rng.gen_range(1..=2usize);
        let mut cols = vec![("id".to_owned(), DataType::Int)];
        for a in 0..extra {
            // dim0.attr0 doubles as the snowflake foreign key and must be
            // an integer in that case.
            let ty = if (snowflake && d == 0 && a == 0) || rng.gen_bool(0.5) {
                DataType::Int
            } else {
                DataType::Str
            };
            cols.push((format!("attr{a}"), ty));
        }
        let schema = Schema::new(
            cols.iter()
                .map(|(n, t)| md_relation::Column::new(n.clone(), *t))
                .collect(),
        )
        .expect("unique names");
        dims.push(cat.add_table(format!("dim{d}"), schema, 0).expect("fresh"));
    }
    // Optional snowflake: dim0 gets a parent "cat0" dimension.
    let snow_parent = if snowflake {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("label", DataType::Str)]);
        let t = cat.add_table("cat0", schema, 0).expect("fresh");
        Some(t)
    } else {
        None
    };

    // Fact table: key + one fk per dim + 2 measures + 1 small-domain tag.
    let mut fact_cols = vec![("id".to_owned(), DataType::Int)];
    for d in 0..n_dims {
        fact_cols.push((format!("dim{d}id"), DataType::Int));
    }
    fact_cols.push(("m_int".to_owned(), DataType::Int));
    fact_cols.push(("m_dbl".to_owned(), DataType::Double));
    fact_cols.push(("tag".to_owned(), DataType::Int));
    let fact_schema = Schema::new(
        fact_cols
            .iter()
            .map(|(n, t)| md_relation::Column::new(n.clone(), *t))
            .collect(),
    )
    .expect("unique names");
    let fact = cat.add_table("fact", fact_schema, 0).expect("fresh");
    for (d, &dim) in dims.iter().enumerate() {
        cat.add_foreign_key(fact, 1 + d, dim).expect("typed");
    }
    if let Some(parent) = snow_parent {
        // dim0.attr0 becomes the fk when it is an Int; otherwise add no
        // snowflake edge (keep it simple and always make attr0 Int below).
        if cat.def(dims[0]).expect("dim0").schema.column(1).dtype == DataType::Int {
            cat.add_foreign_key(dims[0], 1, parent).expect("typed");
        }
    }

    // ---- Contracts ------------------------------------------------------
    // Dimensions: mostly append-only (enables join reductions); sometimes
    // keep an updatable non-condition attribute; occasionally pessimistic.
    let mut all_tables = vec![fact];
    all_tables.extend(dims.iter().copied());
    if let Some(p) = snow_parent {
        all_tables.push(p);
    }
    for &t in &all_tables {
        match rng.gen_range(0..4u8) {
            0 => { /* pessimistic default */ }
            1 => cat.set_append_only(t).expect("valid"),
            2 => {
                // One updatable non-key attribute if there is one that is
                // not a foreign key (fk updates are fine too, just noisier).
                let arity = cat.def(t).expect("t").schema.arity();
                if arity > 1 {
                    let c = rng.gen_range(1..arity);
                    cat.set_updatable_columns(t, &[c]).expect("valid");
                }
            }
            _ => cat.set_insert_only(t).expect("valid"),
        }
    }

    // ---- Data -----------------------------------------------------------
    let mut db = Database::new(cat.clone());
    db.set_enforce_ri(false);
    let mut next_ids = vec![0i64; all_tables.iter().map(|t| t.0).max().unwrap_or(0) + 1];

    if let Some(p) = snow_parent {
        let n = rng.gen_range(2..=4i64);
        for k in 1..=n {
            db.insert(p, row![k, format!("label-{}", k % 3)])
                .expect("fresh");
        }
        next_ids[p.0] = n + 1;
    }
    for (d, &dim) in dims.iter().enumerate() {
        let n = rng.gen_range(3..=8i64);
        let arity = cat.def(dim).expect("dim").schema.arity();
        for k in 1..=n {
            let mut vals = vec![Value::Int(k)];
            for a in 1..arity {
                let ty = cat.def(dim).expect("dim").schema.column(a).dtype;
                vals.push(random_attr(
                    &mut rng,
                    ty,
                    d,
                    snow_parent.is_some() && d == 0 && a == 1,
                ));
            }
            db.insert(dim, Row::new(vals)).expect("fresh");
        }
        next_ids[dim.0] = n + 1;
    }
    let n_facts = rng.gen_range(30..=150i64);
    for k in 1..=n_facts {
        let r = random_fact_row(&mut rng, &cat, fact, &dims, &db, k);
        db.insert(fact, r).expect("fresh");
    }
    next_ids[fact.0] = n_facts + 1;
    db.set_enforce_ri(true);
    db.validate_ri().expect("generator preserves RI");

    // ---- View -----------------------------------------------------------
    let view = random_view(&mut rng, &cat, fact, &dims, snow_parent);

    RandomSetup {
        catalog: cat,
        db,
        view,
        fact,
        tables: all_tables,
        rng,
        next_ids,
    }
}

fn random_attr(rng: &mut StdRng, ty: DataType, dim_idx: usize, is_snow_fk: bool) -> Value {
    if is_snow_fk {
        // Foreign key into cat0 (1..=2 guaranteed to exist).
        return Value::Int(rng.gen_range(1..=2));
    }
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..6)),
        DataType::Str => Value::str(format!("d{dim_idx}-v{}", rng.gen_range(0..4))),
        DataType::Double => Value::Double(adversarial_double(rng)),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
    }
}

/// A `Double` measure whose sums a float fold gets wrong: a third are
/// quarter steps, exact in binary as every generator here once drew; the
/// rest are tenths, magnitudes 1e±16 and 1e±300 of either sign (so they
/// cancel), subnormals, ±0.0, and now and then ±∞ or NaN.
pub fn adversarial_double(rng: &mut impl Rng) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    match rng.gen_range(0..100u8) {
        0..=32 => rng.gen_range(0..40) as f64 * 0.25,
        33..=54 => rng.gen_range(0..400) as f64 * 0.1,
        55..=79 => sign * [1e16, 1e-16, 1e300, 1e-300][rng.gen_range(0..4usize)],
        80..=87 => sign * f64::from_bits(rng.gen_range(1..1u64 << 52)),
        88..=93 => sign * 0.0,
        94..=96 => sign * f64::INFINITY,
        _ => f64::NAN,
    }
}

fn random_fact_row(
    rng: &mut StdRng,
    cat: &Catalog,
    fact: TableId,
    dims: &[TableId],
    db: &Database,
    id: i64,
) -> Row {
    let arity = cat.def(fact).expect("fact").schema.arity();
    let mut vals = vec![Value::Int(id)];
    for &dim in dims {
        let n = db.table(dim).len() as i64;
        vals.push(Value::Int(rng.gen_range(1..=n)));
    }
    // m_int, m_dbl, tag.
    vals.push(Value::Int(rng.gen_range(0..20)));
    vals.push(Value::Double(adversarial_double(rng)));
    vals.push(Value::Int(rng.gen_range(0..4)));
    debug_assert_eq!(vals.len(), arity);
    Row::new(vals)
}

fn random_view(
    rng: &mut StdRng,
    cat: &Catalog,
    fact: TableId,
    dims: &[TableId],
    snow_parent: Option<TableId>,
) -> GpsjView {
    let fact_arity = cat.def(fact).expect("fact").schema.arity();
    let m_int = fact_arity - 3;
    let m_dbl = fact_arity - 2;
    let tag = fact_arity - 1;

    let mut tables = vec![fact];
    let mut conditions = Vec::new();
    for (d, &dim) in dims.iter().enumerate() {
        tables.push(dim);
        conditions.push(Condition::eq_cols(
            ColRef::new(fact, 1 + d),
            ColRef::new(dim, 0),
        ));
    }
    if let Some(p) = snow_parent {
        tables.push(p);
        conditions.push(Condition::eq_cols(
            ColRef::new(dims[0], 1),
            ColRef::new(p, 0),
        ));
    }

    // Group-by candidates: fact tag, dim attributes, dim keys, parent label.
    let mut gb_candidates: Vec<(ColRef, String)> = vec![(ColRef::new(fact, tag), "tag".into())];
    for (d, &dim) in dims.iter().enumerate() {
        let def = cat.def(dim).expect("dim");
        gb_candidates.push((ColRef::new(dim, 0), format!("d{d}key")));
        for a in 1..def.schema.arity() {
            // Skip the snowflake fk as a group-by to keep things varied.
            gb_candidates.push((ColRef::new(dim, a), format!("d{d}a{a}")));
        }
    }
    if let Some(p) = snow_parent {
        gb_candidates.push((ColRef::new(p, 1), "plabel".into()));
    }

    let n_group = rng.gen_range(0..=2usize.min(gb_candidates.len()));
    let mut select: Vec<SelectItem> = Vec::new();
    let mut used = Vec::new();
    for _ in 0..n_group {
        let i = rng.gen_range(0..gb_candidates.len());
        if used.contains(&i) {
            continue;
        }
        used.push(i);
        let (col, alias) = gb_candidates[i].clone();
        select.push(SelectItem::group_by(col, alias));
    }
    let group_cols: Vec<ColRef> = select.iter().filter_map(SelectItem::as_group_by).collect();

    // Aggregate arguments on a dimension: every non-key attribute, the
    // parent label included.
    let mut dim_attrs: Vec<(ColRef, DataType)> = Vec::new();
    for &dim in dims.iter().chain(snow_parent.iter()) {
        let schema = &cat.def(dim).expect("dim").schema;
        for a in 1..schema.arity() {
            dim_attrs.push((ColRef::new(dim, a), schema.column(a).dtype));
        }
    }

    // Aggregates: always COUNT(*), plus 1–3 others over the fact measures
    // or a dimension attribute, avoiding superfluous combinations.
    select.push(SelectItem::agg(Aggregate::count_star(), "n"));
    let n_aggs = rng.gen_range(1..=3usize);
    for k in 0..n_aggs {
        let func = match rng.gen_range(0..5u8) {
            0 => AggFunc::Sum,
            1 => AggFunc::Avg,
            2 => AggFunc::Min,
            3 => AggFunc::Max,
            _ => AggFunc::Count,
        };
        let distinct = rng.gen_bool(0.25);
        let arg = match rng.gen_range(0..4u8) {
            0 => ColRef::new(fact, m_int),
            1 => ColRef::new(fact, m_dbl),
            2 => ColRef::new(fact, tag),
            _ => {
                // Any type for COUNT/MIN/MAX, a number for SUM/AVG.
                let numeric = matches!(func, AggFunc::Sum | AggFunc::Avg);
                let fits: Vec<ColRef> = (dim_attrs.iter())
                    .filter(|(_, ty)| !numeric || *ty != DataType::Str)
                    .map(|(col, _)| *col)
                    .collect();
                if fits.is_empty() {
                    continue;
                }
                fits[rng.gen_range(0..fits.len())]
            }
        };
        // Avoid superfluous aggregates: duplicate-insensitive over a
        // group-by attribute.
        let dup_insensitive =
            distinct || matches!(func, AggFunc::Min | AggFunc::Max | AggFunc::Avg);
        if dup_insensitive && group_cols.contains(&arg) {
            continue;
        }
        let agg = if distinct {
            Aggregate::distinct_of(func, arg)
        } else {
            Aggregate::of(func, arg)
        };
        select.push(SelectItem::agg(agg, format!("a{k}")));
    }

    // Local conditions: sometimes restrict the fact tag or a dim attr.
    if rng.gen_bool(0.5) {
        conditions.push(Condition::cmp_lit(
            ColRef::new(fact, tag),
            *[CmpOp::Le, CmpOp::Ge, CmpOp::Ne][rng.gen_range(0..3)].pick(),
            rng.gen_range(0..4i64),
        ));
    }
    if !dims.is_empty() && rng.gen_bool(0.4) {
        let d = rng.gen_range(0..dims.len());
        let def = cat.def(dims[d]).expect("dim");
        if def.schema.arity() > 1 {
            let a = 1;
            match def.schema.column(a).dtype {
                DataType::Int => conditions.push(Condition::cmp_lit(
                    ColRef::new(dims[d], a),
                    CmpOp::Le,
                    rng.gen_range(0..6i64),
                )),
                DataType::Str => conditions.push(Condition::cmp_lit(
                    ColRef::new(dims[d], a),
                    CmpOp::Ne,
                    format!("d{d}-v0"),
                )),
                _ => {}
            }
        }
    }

    // Occasionally a HAVING on the count.
    let having = if rng.gen_bool(0.3) {
        let count_idx = select
            .iter()
            .position(|it| it.alias() == "n")
            .expect("count item exists");
        vec![HavingCond::new(
            count_idx,
            CmpOp::Ge,
            rng.gen_range(1..4i64),
        )]
    } else {
        Vec::new()
    };

    GpsjView::new("fuzz_view", tables, select, conditions).with_having(having)
}

trait Pick {
    fn pick(&self) -> &Self;
}
impl Pick for CmpOp {
    fn pick(&self) -> &Self {
        self
    }
}

impl RandomSetup {
    /// Produces one contract-respecting random change against `table`,
    /// applying it to the sources and returning it — or `None` when the
    /// contract permits nothing applicable right now.
    pub fn random_change(&mut self, table: TableId) -> Option<Change> {
        let def = self.catalog.def(table).expect("table exists").clone();
        let insert_only = def.insert_only;
        let updatable: Vec<usize> = def.updatable_columns.iter().copied().collect();
        let is_fact = table == self.fact;
        let choice = self.rng.gen_range(0..10u8);

        // Delete path (facts only — dimension deletes would violate RI).
        if !insert_only && is_fact && choice < 3 && db_len(&self.db, table) > 0 {
            let victim = self.pick_existing_key(table)?;
            return self.db.delete(table, &victim).ok();
        }
        // Update path.
        if !updatable.is_empty() && choice < 6 && db_len(&self.db, table) > 0 {
            let key = self.pick_existing_key(table)?;
            let old = self.db.table(table).get(&key)?.clone();
            let mut vals = old.into_values();
            let c = updatable[self.rng.gen_range(0..updatable.len())];
            let ty = def.schema.column(c).dtype;
            // Foreign keys must stay valid: re-point to an existing target.
            let fk_target = self
                .catalog
                .foreign_keys_from(table)
                .find(|fk| fk.from_col == c)
                .map(|fk| fk.to);
            vals[c] = match fk_target {
                Some(target) => self.pick_existing_key(target)?,
                None => random_attr(&mut self.rng, ty, 0, false),
            };
            return self.db.update(table, &key, Row::new(vals)).ok();
        }
        // Insert path.
        let id = self.next_ids[table.0].max(1);
        self.next_ids[table.0] = id + 1;
        let row = if is_fact {
            let dims: Vec<TableId> = self
                .catalog
                .foreign_keys_from(table)
                .map(|fk| fk.to)
                .collect();
            let mut vals = vec![Value::Int(id)];
            for dim in dims {
                vals.push(self.pick_existing_key(dim)?);
            }
            vals.push(Value::Int(self.rng.gen_range(0..20)));
            vals.push(Value::Double(adversarial_double(&mut self.rng)));
            vals.push(Value::Int(self.rng.gen_range(0..4)));
            Row::new(vals)
        } else {
            let arity = def.schema.arity();
            let mut vals = vec![Value::Int(id)];
            for a in 1..arity {
                let ty = def.schema.column(a).dtype;
                let fk_target = self
                    .catalog
                    .foreign_keys_from(table)
                    .find(|fk| fk.from_col == a)
                    .map(|fk| fk.to);
                vals.push(match fk_target {
                    Some(target) => self.pick_existing_key(target)?,
                    None => random_attr(&mut self.rng, ty, 0, false),
                });
            }
            Row::new(vals)
        };
        self.db.insert(table, row).ok()
    }

    fn pick_existing_key(&mut self, table: TableId) -> Option<Value> {
        let keys: Vec<Value> = self
            .db
            .table(table)
            .rows()
            .map(|r| r[self.catalog.def(table).expect("t").key_col].clone())
            .collect();
        if keys.is_empty() {
            return None;
        }
        Some(keys[self.rng.gen_range(0..keys.len())].clone())
    }

    /// A random table of the universe, fact-biased.
    pub fn random_table(&mut self) -> TableId {
        if self.rng.gen_bool(0.7) || self.tables.len() == 1 {
            self.fact
        } else {
            self.tables[self.rng.gen_range(1..self.tables.len())]
        }
    }
}

fn db_len(db: &Database, t: TableId) -> usize {
    db.table(t).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_algebra::eval_view;

    #[test]
    fn setups_are_valid_and_deterministic() {
        for seed in 0..40u64 {
            let s1 = random_setup(seed);
            let s2 = random_setup(seed);
            assert_eq!(s1.view, s2.view, "seed {seed}");
            s1.view
                .validate(&s1.catalog)
                .unwrap_or_else(|e| panic!("seed {seed}: invalid view: {e}"));
            s1.db.validate_ri().unwrap();
            // The view must evaluate.
            eval_view(&s1.view, &s1.db).unwrap_or_else(|e| panic!("seed {seed}: eval failed: {e}"));
        }
    }

    #[test]
    fn change_streams_respect_contracts() {
        let mut s = random_setup(7);
        for k in 0..200 {
            let t = s.random_table();
            if let Some(change) = s.random_change(t) {
                let def = s.catalog.def(t).unwrap();
                if def.insert_only {
                    assert!(
                        matches!(change, Change::Insert(_)),
                        "step {k}: insert-only table emitted {change}"
                    );
                }
            }
        }
        s.db.validate_ri().unwrap();
    }
}
