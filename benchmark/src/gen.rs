//! The seeded load generator: the retail star and the change batches.
//!
//! Everything the system under test receives comes from here and is a
//! function of `--seed` alone. The generator owns the simulated sources
//! (`Database`): every change it emits has been applied to them first, so
//! the stream is consistent by construction (no operation is expected to
//! fail) and the final sources are the oracle `verify_all` recomputes
//! from. The warehouse never sees the generator, only its `ChangeBatch`es.

use std::time::Instant;

use md_maintain::ChangeBatch;
use md_relation::{row, Change, Database, Encoder, Row, TableId, Value};
use md_workload::{generate_retail, time_inserts, Contracts, RetailParams, RetailSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape of one batch of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `inserts` fresh `sale` rows spread over `combos` hot
    /// (day, product, store) combinations, plus the deletion of the first
    /// `deletes` rows the previous batch inserted.
    Bulk {
        inserts: usize,
        deletes: usize,
        combos: usize,
    },
    /// `hot_rows` live rows repriced `touches` times in a row, plus
    /// `transient_pairs` rows inserted and deleted within the batch.
    HotRows {
        hot_rows: usize,
        touches: usize,
        transient_pairs: usize,
    },
    /// `changes` changes at uniformly random keys: 60 % inserts, 20 %
    /// deletes, 20 % price updates (`UpdateMix::balanced`).
    Mix { changes: usize },
    /// A multi-table batch: brand renames (to another existing brand, so
    /// facts move between `GROUP BY brand` groups), manager updates, new
    /// days, and fresh sales.
    DimStorm {
        renames: usize,
        managers: usize,
        new_days: usize,
        sales: usize,
    },
}

impl Shape {
    /// Changes one batch of this shape submits.
    pub fn changes_per_batch(&self) -> usize {
        match *self {
            Shape::Bulk {
                inserts, deletes, ..
            } => inserts + deletes,
            Shape::HotRows {
                hot_rows,
                touches,
                transient_pairs,
            } => hot_rows * touches + 2 * transient_pairs,
            Shape::Mix { changes } => changes,
            Shape::DimStorm {
                renames,
                managers,
                new_days,
                sales,
            } => renames + managers + new_days + sales,
        }
    }
}

/// A random price in quarter steps: exact in binary, so every `SUM` the
/// oracle recomputes is independent of fold order.
fn price(rng: &mut StdRng) -> f64 {
    rng.gen_range(2..200) as f64 * 0.25
}

pub struct Generator {
    db: Database,
    schema: RetailSchema,
    rng: StdRng,
    /// Live `sale` ids that `Mix` and `HotRows` pick victims from.
    live: Vec<i64>,
    next_sale_id: i64,
    /// Days that existed before the batch being built (sales of a
    /// `DimStorm` batch never reference a day the same batch adds).
    days: i64,
    products: i64,
    stores: i64,
    brands: i64,
    /// `sale` ids the previous `Bulk` batch inserted.
    previous_bulk: Vec<i64>,
    hot_combos: Vec<(i64, i64, i64)>,
    digest: u64,
    changes: u64,
    generate_ns: u64,
    schedule_ns: u64,
    source_apply_ns: u64,
}

impl Generator {
    /// Generates the star for `params` (seeded from `seed`).
    pub fn new(mut params: RetailParams, seed: u64) -> Self {
        params.seed = seed;
        let started = Instant::now();
        let (db, schema) = generate_retail(params, Contracts::Tight);
        let generate_ns = started.elapsed().as_nanos() as u64;
        let facts = params.fact_rows() as i64;
        Generator {
            db,
            schema,
            // A stream of its own, so the batches do not replay the draws
            // that placed the initial facts.
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            live: (1..=facts).collect(),
            next_sale_id: facts + 1,
            days: params.days as i64,
            products: params.products as i64,
            stores: params.stores as i64,
            brands: (params.products / 4).max(1) as i64,
            previous_bulk: Vec::new(),
            hot_combos: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            changes: 0,
            generate_ns,
            schedule_ns: 0,
            source_apply_ns: 0,
        }
    }

    /// The simulated sources, at the state after the last batch built.
    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn schema(&self) -> &RetailSchema {
        &self.schema
    }

    /// FNV-1a over the encoded change stream so far: two runs that print
    /// the same digest fed the system the same inputs.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Time spent generating the star.
    pub fn generate_ms(&self) -> f64 {
        self.generate_ns as f64 / 1e6
    }

    /// Time spent building batches (including applying them to the sources).
    pub fn schedule_ms(&self) -> f64 {
        self.schedule_ns as f64 / 1e6
    }

    /// Mean time one change took to apply to the sources.
    pub fn source_apply_ns_per_change(&self) -> f64 {
        self.source_apply_ns as f64 / self.changes.max(1) as f64
    }

    /// Builds the next batch of `shape`, applying it to the sources.
    pub fn next_batch(&mut self, shape: &Shape) -> ChangeBatch {
        let started = Instant::now();
        let mut batch = ChangeBatch::new();
        match *shape {
            Shape::Bulk {
                inserts,
                deletes,
                combos,
            } => self.bulk(&mut batch, inserts, deletes, combos),
            Shape::HotRows {
                hot_rows,
                touches,
                transient_pairs,
            } => self.hot_rows(&mut batch, hot_rows, touches, transient_pairs),
            Shape::Mix { changes } => self.mix(&mut batch, changes),
            Shape::DimStorm {
                renames,
                managers,
                new_days,
                sales,
            } => self.dim_storm(&mut batch, renames, managers, new_days, sales),
        }
        self.schedule_ns += started.elapsed().as_nanos() as u64;
        batch
    }

    /// Applies one mutation to the sources and records the change it
    /// produced in `batch` and in the digest.
    fn emit(
        &mut self,
        batch: &mut ChangeBatch,
        table: TableId,
        mutate: impl FnOnce(&mut Database) -> md_relation::Result<Change>,
    ) {
        let started = Instant::now();
        let change = mutate(&mut self.db).expect("the generator only builds valid changes");
        self.source_apply_ns += started.elapsed().as_nanos() as u64;
        self.record(table, &change);
        batch.push(table, change);
    }

    fn record(&mut self, table: TableId, change: &Change) {
        let mut enc = Encoder::new();
        enc.put_u32(table.0 as u32);
        enc.put_change(change);
        for byte in enc.into_bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.changes += 1;
    }

    fn fresh_sale_id(&mut self) -> i64 {
        let id = self.next_sale_id;
        self.next_sale_id += 1;
        id
    }

    fn insert_sale(&mut self, batch: &mut ChangeBatch, fresh: Row) {
        let sale = self.schema.sale;
        self.emit(batch, sale, |db| db.insert(sale, fresh));
    }

    fn delete_sale(&mut self, batch: &mut ChangeBatch, id: i64) {
        let sale = self.schema.sale;
        self.emit(batch, sale, |db| db.delete(sale, &Value::Int(id)));
    }

    /// Reprices one live sale to a price different from its current one
    /// (an update that changes nothing would be dropped by the coalescer).
    fn reprice_sale(&mut self, batch: &mut ChangeBatch, id: i64) {
        let sale = self.schema.sale;
        let key = Value::Int(id);
        let mut values = self
            .db
            .table(sale)
            .get(&key)
            .expect("victim is live")
            .into_values();
        let new_price = loop {
            let p = Value::Double(price(&mut self.rng));
            if p != values[4] {
                break p;
            }
        };
        values[4] = new_price;
        self.emit(batch, sale, |db| db.update(sale, &key, Row::new(values)));
    }

    fn bulk(&mut self, batch: &mut ChangeBatch, inserts: usize, deletes: usize, combos: usize) {
        if self.hot_combos.len() != combos {
            self.hot_combos = (0..combos)
                .map(|_| {
                    (
                        self.rng.gen_range(1..=self.days),
                        self.rng.gen_range(1..=self.products),
                        self.rng.gen_range(1..=self.stores),
                    )
                })
                .collect();
        }
        let mut inserted = Vec::with_capacity(inserts);
        for _ in 0..inserts {
            let (day, product, store) = self.hot_combos[self.rng.gen_range(0..combos)];
            let id = self.fresh_sale_id();
            let p = price(&mut self.rng);
            self.insert_sale(batch, row![id, day, product, store, p]);
            inserted.push(id);
        }
        let previous = std::mem::replace(&mut self.previous_bulk, inserted);
        for id in previous.into_iter().take(deletes) {
            self.delete_sale(batch, id);
        }
    }

    fn hot_rows(
        &mut self,
        batch: &mut ChangeBatch,
        hot_rows: usize,
        touches: usize,
        transient_pairs: usize,
    ) {
        for _ in 0..hot_rows {
            let id = self.live[self.rng.gen_range(0..self.live.len())];
            for _ in 0..touches {
                self.reprice_sale(batch, id);
            }
        }
        for _ in 0..transient_pairs {
            let id = self.fresh_sale_id();
            let fresh = self.random_sale(id);
            self.insert_sale(batch, fresh);
            self.delete_sale(batch, id);
        }
    }

    fn random_sale(&mut self, id: i64) -> Row {
        row![
            id,
            self.rng.gen_range(1..=self.days),
            self.rng.gen_range(1..=self.products),
            self.rng.gen_range(1..=self.stores),
            price(&mut self.rng)
        ]
    }

    fn mix(&mut self, batch: &mut ChangeBatch, changes: usize) {
        for _ in 0..changes {
            let roll = self.rng.gen_range(0..100u8);
            if roll < 20 && !self.live.is_empty() {
                let victim = self.rng.gen_range(0..self.live.len());
                let id = self.live.swap_remove(victim);
                self.delete_sale(batch, id);
            } else if roll < 40 && !self.live.is_empty() {
                let id = self.live[self.rng.gen_range(0..self.live.len())];
                self.reprice_sale(batch, id);
            } else {
                let id = self.fresh_sale_id();
                self.live.push(id);
                let fresh = self.random_sale(id);
                self.insert_sale(batch, fresh);
            }
        }
    }

    fn dim_storm(
        &mut self,
        batch: &mut ChangeBatch,
        renames: usize,
        managers: usize,
        new_days: usize,
        sales: usize,
    ) {
        let RetailSchema {
            product,
            store,
            time,
            ..
        } = self.schema;
        for _ in 0..renames {
            let key = Value::Int(self.rng.gen_range(1..=self.products));
            let mut values = self
                .db
                .table(product)
                .get(&key)
                .expect("product exists")
                .into_values();
            let new_brand = loop {
                let b = Value::str(format!(
                    "brand-{}",
                    self.rng.gen_range(0..self.brands.max(2))
                ));
                if b != values[1] {
                    break b;
                }
            };
            values[1] = new_brand;
            self.emit(batch, product, |db| {
                db.update(product, &key, Row::new(values))
            });
        }
        for _ in 0..managers {
            let key = Value::Int(self.rng.gen_range(1..=self.stores));
            let mut values = self
                .db
                .table(store)
                .get(&key)
                .expect("store exists")
                .into_values();
            let new_manager = loop {
                let m = Value::str(format!("manager-{}", self.rng.gen_range(0..64)));
                if m != values[4] {
                    break m;
                }
            };
            values[4] = new_manager;
            self.emit(batch, store, |db| db.update(store, &key, Row::new(values)));
        }
        let started = Instant::now();
        let added = time_inserts(&mut self.db, &self.schema, new_days);
        self.source_apply_ns += started.elapsed().as_nanos() as u64;
        for change in added {
            self.record(time, &change);
            batch.push(time, change);
        }
        for _ in 0..sales {
            let id = self.fresh_sale_id();
            let fresh = self.random_sale(id);
            self.insert_sale(batch, fresh);
        }
        self.days += new_days as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<Shape> {
        vec![
            Shape::Bulk {
                inserts: 40,
                deletes: 20,
                combos: 6,
            },
            Shape::HotRows {
                hot_rows: 10,
                touches: 5,
                transient_pairs: 4,
            },
            Shape::Mix { changes: 50 },
            Shape::DimStorm {
                renames: 2,
                managers: 3,
                new_days: 2,
                sales: 9,
            },
        ]
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        for shape in shapes() {
            let run = |seed| {
                let mut g = Generator::new(RetailParams::tiny(), seed);
                let batches: Vec<ChangeBatch> = (0..4).map(|_| g.next_batch(&shape)).collect();
                (batches, g.digest())
            };
            let (a, da) = run(11);
            let (b, db) = run(11);
            let (_, dc) = run(12);
            assert_eq!(a, b);
            assert_eq!(da, db);
            assert_ne!(da, dc);
        }
    }

    #[test]
    fn batches_have_the_declared_size_and_keep_the_sources_consistent() {
        for shape in shapes() {
            let mut g = Generator::new(RetailParams::tiny(), 3);
            // The first bulk batch has no predecessor to delete from.
            g.next_batch(&shape);
            for _ in 0..3 {
                assert_eq!(
                    g.next_batch(&shape).change_count(),
                    shape.changes_per_batch()
                );
            }
            g.db().validate_ri().unwrap();
        }
    }
}
