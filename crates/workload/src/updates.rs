//! Seeded update-stream generation.
//!
//! Produces mixed insert/delete/update streams against a generated retail
//! database, mutating the database as it goes (so the stream is always
//! consistent with the sources) and returning the [`Change`] records for a
//! warehouse to mirror. Respects referential integrity and each table's
//! update contract by construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use md_relation::{row, Change, Database, Value};

use crate::fuzz::adversarial_double;
use crate::retail::RetailSchema;

/// Mix of change kinds, in percent (must sum to ≤ 100; the remainder is
/// assigned to inserts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateMix {
    /// Percentage of deletions.
    pub delete_pct: u8,
    /// Percentage of in-place price updates.
    pub update_pct: u8,
}

impl UpdateMix {
    /// Insert-only stream (old-detail-data / append-only regime).
    pub fn append_only() -> Self {
        UpdateMix {
            delete_pct: 0,
            update_pct: 0,
        }
    }

    /// A balanced OLTP-ish mix: 60% inserts, 20% deletes, 20% updates.
    pub fn balanced() -> Self {
        UpdateMix {
            delete_pct: 20,
            update_pct: 20,
        }
    }
}

/// Generates `n` changes against the `sale` fact table, applying each to
/// `db` and returning them in order.
pub fn sale_changes(
    db: &mut Database,
    schema: &RetailSchema,
    n: usize,
    mix: UpdateMix,
    seed: u64,
) -> Vec<Change> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut changes = Vec::with_capacity(n);
    // Track live sale ids locally to pick delete/update victims cheaply.
    let mut live: Vec<i64> = db
        .table(schema.sale)
        .rows()
        .map(|r| r[0].as_int().expect("sale.id is Int"))
        .collect();
    let mut next_id: i64 = live.iter().copied().max().unwrap_or(0) + 1;
    let days = db.table(schema.time).len() as i64;
    let products = db.table(schema.product).len() as i64;
    let stores = db.table(schema.store).len() as i64;

    for _ in 0..n {
        let roll = rng.gen_range(0..100u8);
        if roll < mix.delete_pct && !live.is_empty() {
            let idx = rng.gen_range(0..live.len());
            let id = live.swap_remove(idx);
            let change = db
                .delete(schema.sale, &Value::Int(id))
                .expect("victim exists");
            changes.push(change);
        } else if roll < mix.delete_pct + mix.update_pct && !live.is_empty() {
            let id = live[rng.gen_range(0..live.len())];
            let old = db
                .table(schema.sale)
                .get(&Value::Int(id))
                .expect("victim exists")
                .clone();
            let mut vals = old.into_values();
            vals[4] = Value::Double(adversarial_double(&mut rng));
            let change = db
                .update(schema.sale, &Value::Int(id), md_relation::Row::new(vals))
                .expect("price is updatable");
            changes.push(change);
        } else {
            let id = next_id;
            next_id += 1;
            live.push(id);
            let change = db
                .insert(
                    schema.sale,
                    row![
                        id,
                        rng.gen_range(1..=days),
                        rng.gen_range(1..=products),
                        rng.gen_range(1..=stores),
                        adversarial_double(&mut rng)
                    ],
                )
                .expect("fresh id, valid fks");
            changes.push(change);
        }
    }
    changes
}

/// Generates `n` brand renames against the `product` dimension (the
/// non-exposed dimension update the paper's tight contracts allow).
pub fn product_brand_changes(
    db: &mut Database,
    schema: &RetailSchema,
    n: usize,
    seed: u64,
) -> Vec<Change> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<i64> = db
        .table(schema.product)
        .rows()
        .map(|r| r[0].as_int().expect("product.id is Int"))
        .collect();
    let mut changes = Vec::with_capacity(n);
    for i in 0..n {
        let id = ids[rng.gen_range(0..ids.len())];
        let old = db
            .table(schema.product)
            .get(&Value::Int(id))
            .expect("id exists")
            .clone();
        let mut vals = old.into_values();
        vals[1] = Value::str(format!("rebrand-{i}"));
        let change = db
            .update(schema.product, &Value::Int(id), md_relation::Row::new(vals))
            .expect("brand is updatable");
        changes.push(change);
    }
    changes
}

/// Appends `n` fresh time rows (new days) — the dependency-edge dimension
/// inserts that the engine proves to be no-ops.
pub fn time_inserts(db: &mut Database, schema: &RetailSchema, n: usize) -> Vec<Change> {
    let next = db.table(schema.time).len() as i64 + 1;
    let mut changes = Vec::with_capacity(n);
    for k in 0..n as i64 {
        let d = next + k - 1;
        let change = db
            .insert(
                schema.time,
                row![next + k, d % 30 + 1, (d / 30) % 12 + 1, 1996 + d / 360],
            )
            .expect("fresh time id");
        changes.push(change);
    }
    changes
}

/// Parameters of [`hot_sale_batches`].
#[derive(Debug, Clone, Copy)]
pub struct HotBatchParams {
    /// Number of batches to generate.
    pub batches: usize,
    /// Distinct sale rows touched per batch.
    pub hot_rows: usize,
    /// Successive repricings of each hot row within one batch.
    pub touches: usize,
    /// Rows inserted and deleted again within the same batch.
    pub transient_pairs: usize,
}

/// Generates an update-heavy, hot-row batch schedule against the `sale`
/// fact: each batch reprices `hot_rows` rows `touches` times in a row
/// (a staging area batching a day of trickle-feed activity — the net
/// effect per row is a single update) and creates `transient_pairs`
/// rows that die within the batch. The shape a coalescing maintenance
/// pipeline collapses by ~`touches`×; every change is applied to `db`
/// so the stream stays consistent with the sources.
pub fn hot_sale_batches(
    db: &mut Database,
    schema: &RetailSchema,
    params: HotBatchParams,
) -> Vec<Vec<Change>> {
    let live: Vec<i64> = db
        .table(schema.sale)
        .rows()
        .map(|r| r[0].as_int().expect("sale.id is Int"))
        .collect();
    assert!(!live.is_empty(), "need loaded sale rows to reprice");
    let mut next_id = live.iter().copied().max().unwrap_or(0) + 1;
    let mut schedule = Vec::with_capacity(params.batches);
    for b in 0..params.batches {
        let mut changes = Vec::new();
        for h in 0..params.hot_rows {
            let id = live[(b * 31 + h * 7) % live.len()];
            for touch in 0..params.touches {
                let old = db
                    .table(schema.sale)
                    .get(&Value::Int(id))
                    .expect("live row")
                    .clone();
                let mut vals = old.into_values();
                vals[4] = Value::Double(((b + h + touch) % 97) as f64 * 0.5 + 1.0);
                changes.push(
                    db.update(schema.sale, &Value::Int(id), md_relation::Row::new(vals))
                        .expect("price is updatable"),
                );
            }
        }
        for p in 0..params.transient_pairs {
            let id = next_id;
            next_id += 1;
            let fresh = row![id, 1 + (p as i64 % 5), 1, 1, 9.75];
            changes.push(db.insert(schema.sale, fresh).expect("fresh id"));
            changes.push(
                db.delete(schema.sale, &Value::Int(id))
                    .expect("just inserted"),
            );
        }
        schedule.push(changes);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retail::{generate_retail, Contracts, RetailParams};

    #[test]
    fn hot_batches_have_the_advertised_shape() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let rows_before = db.table(schema.sale).len();
        let params = HotBatchParams {
            batches: 3,
            hot_rows: 5,
            touches: 4,
            transient_pairs: 2,
        };
        let schedule = hot_sale_batches(&mut db, &schema, params);
        assert_eq!(schedule.len(), 3);
        for batch in &schedule {
            assert_eq!(batch.len(), 5 * 4 + 2 * 2);
        }
        // Transient rows died within their batch: net row count unchanged.
        assert_eq!(db.table(schema.sale).len(), rows_before);
    }

    #[test]
    fn sale_stream_respects_mix_and_ri() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let before = db.table(schema.sale).len();
        let changes = sale_changes(&mut db, &schema, 200, UpdateMix::balanced(), 9);
        assert_eq!(changes.len(), 200);
        let inserts = changes
            .iter()
            .filter(|c| matches!(c, Change::Insert(_)))
            .count();
        let deletes = changes
            .iter()
            .filter(|c| matches!(c, Change::Delete(_)))
            .count();
        let updates = changes
            .iter()
            .filter(|c| matches!(c, Change::Update { .. }))
            .count();
        assert!(inserts > deletes);
        assert!(updates > 0);
        assert_eq!(db.table(schema.sale).len(), before + inserts - deletes);
        db.validate_ri().unwrap();
    }

    #[test]
    fn append_only_stream_has_only_inserts() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let changes = sale_changes(&mut db, &schema, 50, UpdateMix::append_only(), 9);
        assert!(changes.iter().all(|c| matches!(c, Change::Insert(_))));
    }

    #[test]
    fn streams_are_deterministic() {
        let (mut db1, s1) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let (mut db2, s2) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let c1 = sale_changes(&mut db1, &s1, 100, UpdateMix::balanced(), 5);
        let c2 = sale_changes(&mut db2, &s2, 100, UpdateMix::balanced(), 5);
        assert_eq!(c1, c2);
    }

    #[test]
    fn brand_changes_touch_only_brand() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let changes = product_brand_changes(&mut db, &schema, 5, 3);
        for c in &changes {
            let Change::Update { old, new } = c else {
                panic!("expected updates")
            };
            assert_eq!(old[0], new[0]);
            assert_eq!(old[2], new[2]);
            assert_ne!(old[1], new[1]);
        }
    }

    #[test]
    fn time_inserts_extend_calendar() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let before = db.table(schema.time).len();
        let changes = time_inserts(&mut db, &schema, 3);
        assert_eq!(changes.len(), 3);
        assert_eq!(db.table(schema.time).len(), before + 3);
    }
}
