//! The paper's grocery-chain retail star schema and data generator
//! (Section 1.1).
//!
//! Schema:
//!
//! ```text
//! sale(id, timeid, productid, storeid, price)
//! time(id, day, month, year)
//! product(id, brand, category)
//! store(id, street_address, city, country, manager)
//! ```
//!
//! with referential integrity from each `sale` foreign key to its
//! dimension. The generator is fully deterministic under a seed and
//! parameterized by the paper's scale knobs: days, stores, products sold
//! per day per store, and transactions per product — the last being the
//! duplicate-compression factor the paper's 245 GB → 167 MB computation
//! rests on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use md_relation::{row, Catalog, DataType, Database, Schema, TableId};

/// Table handles for the retail star schema.
#[derive(Debug, Clone, Copy)]
pub struct RetailSchema {
    /// `time(id, day, month, year)`
    pub time: TableId,
    /// `product(id, brand, category)`
    pub product: TableId,
    /// `store(id, street_address, city, country, manager)`
    pub store: TableId,
    /// `sale(id, timeid, productid, storeid, price)` — the fact table.
    pub sale: TableId,
}

/// Update-contract tightness for the generated catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contracts {
    /// Pessimistic defaults: every non-key column updatable. Condition
    /// attributes become exposed, disabling most join reductions.
    Default,
    /// Realistic warehouse contracts: dimensions append-only except
    /// explicitly mutable descriptive attributes (`product.brand`,
    /// `store.manager`), facts may only change `price`. No exposed
    /// updates for the paper's views.
    Tight,
}

/// Builds the retail catalog.
pub fn retail_catalog(contracts: Contracts) -> (Catalog, RetailSchema) {
    let mut cat = Catalog::new();
    let time = cat
        .add_table(
            "time",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("day", DataType::Int),
                ("month", DataType::Int),
                ("year", DataType::Int),
            ]),
            0,
        )
        .expect("static schema");
    let product = cat
        .add_table(
            "product",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("brand", DataType::Str),
                ("category", DataType::Str),
            ]),
            0,
        )
        .expect("static schema");
    let store = cat
        .add_table(
            "store",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("street_address", DataType::Str),
                ("city", DataType::Str),
                ("country", DataType::Str),
                ("manager", DataType::Str),
            ]),
            0,
        )
        .expect("static schema");
    let sale = cat
        .add_table(
            "sale",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("timeid", DataType::Int),
                ("productid", DataType::Int),
                ("storeid", DataType::Int),
                ("price", DataType::Double),
            ]),
            0,
        )
        .expect("static schema");
    cat.add_foreign_key(sale, 1, time).expect("static fk");
    cat.add_foreign_key(sale, 2, product).expect("static fk");
    cat.add_foreign_key(sale, 3, store).expect("static fk");
    if contracts == Contracts::Tight {
        cat.set_append_only(time).expect("static");
        cat.set_updatable_columns(product, &[1]).expect("static");
        cat.set_updatable_columns(store, &[4]).expect("static");
        cat.set_updatable_columns(sale, &[4]).expect("static");
    }
    (
        cat,
        RetailSchema {
            time,
            product,
            store,
            sale,
        },
    )
}

/// Generator parameters (the paper's scale knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetailParams {
    /// Days of history (paper: 730).
    pub days: u64,
    /// Stores (paper: 300).
    pub stores: u64,
    /// Distinct products in the chain (paper: 30,000).
    pub products: u64,
    /// Distinct products that sell each day in each store (paper: 3,000).
    pub products_sold_per_day_per_store: u64,
    /// Transactions per (day, store, product) (paper: 20) — the
    /// duplicate-compression factor.
    pub transactions_per_product: u64,
    /// First calendar year covered.
    pub start_year: i64,
    /// Days assigned to `start_year`; the remainder belong to
    /// `start_year + 1`. This makes the paper's `year = 1997` selection
    /// bite even on tiny instances.
    pub year_split: u64,
    /// RNG seed.
    pub seed: u64,
}

impl RetailParams {
    /// A tiny instance for unit tests (hundreds of facts).
    pub fn tiny() -> Self {
        RetailParams {
            days: 8,
            stores: 2,
            products: 10,
            products_sold_per_day_per_store: 4,
            transactions_per_product: 3,
            start_year: 1996,
            year_split: 4,
            seed: 42,
        }
    }

    /// A small instance for integration tests and examples
    /// (tens of thousands of facts).
    pub fn small() -> Self {
        RetailParams {
            days: 30,
            stores: 5,
            products: 100,
            products_sold_per_day_per_store: 30,
            transactions_per_product: 8,
            start_year: 1996,
            year_split: 10,
            seed: 7,
        }
    }

    /// Total fact rows this parameter set generates.
    pub fn fact_rows(&self) -> u64 {
        self.days
            * self.stores
            * self.products_sold_per_day_per_store.min(self.products)
            * self.transactions_per_product
    }
}

/// Deterministically generates a populated retail database.
///
/// Dates advance one day per `time` row with 30-day months and 360-day
/// years (so month/year boundaries appear even in tiny instances).
/// Each day × store samples `products_sold_per_day_per_store` distinct
/// products, each producing `transactions_per_product` sale rows with
/// prices in cents between 0.50 and 50.00.
pub fn generate_retail(params: RetailParams, contracts: Contracts) -> (Database, RetailSchema) {
    let (cat, schema) = retail_catalog(contracts);
    let mut db = Database::new(cat);
    // Bulk load without per-row RI scans; validated once at the end.
    db.set_enforce_ri(false);
    let mut rng = StdRng::seed_from_u64(params.seed);

    for d in 0..params.days {
        let day = (d % 30 + 1) as i64;
        let month = ((d / 30) % 12 + 1) as i64;
        let year = if d < params.year_split {
            params.start_year
        } else {
            params.start_year + 1
        };
        db.insert(schema.time, row![(d + 1) as i64, day, month, year])
            .expect("unique time ids");
    }
    for p in 0..params.products {
        let brand = format!("brand-{}", p % (params.products / 4).max(1));
        let category = format!("cat-{}", p % 8);
        db.insert(schema.product, row![(p + 1) as i64, brand, category])
            .expect("unique product ids");
    }
    for s in 0..params.stores {
        db.insert(
            schema.store,
            row![
                (s + 1) as i64,
                format!("{} main st", s + 1),
                format!("city-{}", s % 16),
                if s % 5 == 0 { "dk" } else { "us" },
                format!("manager-{s}")
            ],
        )
        .expect("unique store ids");
    }

    let sold = params.products_sold_per_day_per_store.min(params.products);
    let mut sale_id: i64 = 0;
    for d in 0..params.days {
        for s in 0..params.stores {
            // Sample `sold` distinct products with a random stride walk —
            // cheap, deterministic, and covers the id space. The walk is
            // seeded per (day, store) independently of the main RNG so the
            // *group structure* (which (day, product) pairs exist) does not
            // depend on the transactions-per-product factor — the E8 sweep
            // varies only the duplication, never the groups.
            let mut pick = StdRng::seed_from_u64(
                params.seed ^ (d.wrapping_mul(1_000_003) ^ s.wrapping_mul(7_919)),
            );
            let start = pick.gen_range(0..params.products);
            let stride = 1 + pick.gen_range(0..params.products.max(2) / 2).max(1) * 2 - 1;
            for k in 0..sold {
                let product = (start + k * stride) % params.products;
                for _ in 0..params.transactions_per_product {
                    sale_id += 1;
                    // Prices are multiples of 0.25 so every f64 sum is
                    // exact and order-independent — maintained summaries
                    // compare bitwise-equal to recomputed oracles.
                    let quarters = rng.gen_range(2..200);
                    db.insert(
                        schema.sale,
                        row![
                            sale_id,
                            (d + 1) as i64,
                            (product + 1) as i64,
                            (s + 1) as i64,
                            quarters as f64 * 0.25
                        ],
                    )
                    .expect("unique sale ids");
                }
            }
        }
    }

    db.set_enforce_ri(true);
    db.validate_ri().expect("generator preserves RI");
    (db, schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_instance_is_consistent() {
        let params = RetailParams::tiny();
        let (db, schema) = generate_retail(params, Contracts::Tight);
        assert_eq!(db.table(schema.time).len() as u64, params.days);
        assert_eq!(db.table(schema.product).len() as u64, params.products);
        assert_eq!(db.table(schema.store).len() as u64, params.stores);
        assert_eq!(db.table(schema.sale).len() as u64, params.fact_rows());
        db.validate_ri().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let (db1, s1) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let (db2, s2) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let rows1: Vec<_> = db1.table(s1.sale).rows().collect();
        let rows2: Vec<_> = db2.table(s2.sale).rows().collect();
        assert_eq!(rows1, rows2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut p2 = RetailParams::tiny();
        p2.seed = 43;
        let (db1, s1) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let (db2, s2) = generate_retail(p2, Contracts::Tight);
        let rows1: Vec<_> = db1.table(s1.sale).rows().collect();
        let rows2: Vec<_> = db2.table(s2.sale).rows().collect();
        assert_ne!(rows1, rows2);
    }

    #[test]
    fn duplication_factor_shows_up() {
        // With T transactions per (day, store, product), grouping sales by
        // (timeid, productid) must give groups of size ≥ T.
        let params = RetailParams::tiny();
        let (db, schema) = generate_retail(params, Contracts::Tight);
        use std::collections::HashMap;
        let mut groups: HashMap<(i64, i64), u64> = HashMap::new();
        for r in db.table(schema.sale).rows() {
            let t = r[1].as_int().unwrap();
            let p = r[2].as_int().unwrap();
            *groups.entry((t, p)).or_insert(0) += 1;
        }
        assert!(groups
            .values()
            .all(|&c| c >= params.transactions_per_product));
        // And compression is actually possible: fewer groups than rows.
        assert!((groups.len() as u64) < params.fact_rows());
    }

    #[test]
    fn years_and_months_advance() {
        let params = RetailParams {
            days: 400,
            stores: 1,
            products: 4,
            products_sold_per_day_per_store: 1,
            transactions_per_product: 1,
            start_year: 1996,
            year_split: 200,
            seed: 1,
        };
        let (db, schema) = generate_retail(params, Contracts::Tight);
        let years: std::collections::BTreeSet<i64> = db
            .table(schema.time)
            .rows()
            .map(|r| r[3].as_int().unwrap())
            .collect();
        assert_eq!(years, [1996i64, 1997].into_iter().collect());
    }

    #[test]
    fn tight_contracts_restrict_updates() {
        let (cat, schema) = retail_catalog(Contracts::Tight);
        assert!(cat.def(schema.time).unwrap().updatable_columns.is_empty());
        assert_eq!(
            cat.def(schema.sale).unwrap().updatable_columns,
            [4usize].into_iter().collect()
        );
    }
}
