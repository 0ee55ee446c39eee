//! Shared experiment setups used by the report binaries.

use md_core::derive;
use md_maintain::{load_psj_stores, psj_totals, MaintenanceEngine};
use md_relation::Database;
use md_sql::parse_view;
use md_workload::{generate_retail, Contracts, RetailParams, RetailSchema};

/// A fully loaded engine over a generated retail instance.
pub struct LoadedEngine {
    /// The simulated sources.
    pub db: Database,
    /// Table handles.
    pub schema: RetailSchema,
    /// The loaded maintenance engine.
    pub engine: MaintenanceEngine,
}

/// Generates a retail instance and loads a maintenance engine for `sql`.
pub fn setup_engine(params: RetailParams, sql: &str) -> LoadedEngine {
    let (db, schema) = generate_retail(params, Contracts::Tight);
    let cat = db.catalog().clone();
    let view = parse_view(sql, &cat, "bench_view").expect("bench views parse");
    let plan = derive(&view, &cat).expect("bench views derive");
    let mut engine = MaintenanceEngine::new(plan, &cat).expect("engine builds");
    engine.initial_load(&db).expect("initial load succeeds");
    LoadedEngine { db, schema, engine }
}

/// One point of the E8 compression sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Transactions per (day, store, product) — the duplication factor.
    pub factor: u64,
    /// Fact rows generated.
    pub fact_rows: u64,
    /// Fact bytes in the paper model.
    pub fact_bytes: u64,
    /// Compressed auxiliary fact tuples.
    pub aux_rows: u64,
    /// Compressed auxiliary fact bytes in the paper model.
    pub aux_bytes: u64,
}

impl SweepPoint {
    /// The measured compression ratio.
    pub fn ratio(&self) -> f64 {
        self.fact_bytes as f64 / self.aux_bytes as f64
    }
}

/// Base parameters for the sweep (everything but the duplication factor).
pub fn sweep_params(factor: u64) -> RetailParams {
    RetailParams {
        days: 12,
        stores: 4,
        products: 40,
        products_sold_per_day_per_store: 10,
        transactions_per_product: factor,
        start_year: 1997,
        year_split: 12, // all inside the view's selection
        seed: 7,
    }
}

/// Runs one sweep point: generates the instance, loads `product_sales`,
/// and reports fact vs. compressed-auxiliary sizes.
pub fn run_sweep_point(factor: u64) -> SweepPoint {
    let params = sweep_params(factor);
    let loaded = setup_engine(params, md_workload::views::PRODUCT_SALES_SQL);
    let fact = loaded.db.table(loaded.schema.sale);
    let aux = loaded
        .engine
        .aux_store(loaded.schema.sale)
        .expect("product_sales keeps the fact auxiliary view");
    SweepPoint {
        factor,
        fact_rows: fact.len() as u64,
        fact_bytes: fact.paper_bytes(),
        aux_rows: aux.len() as u64,
        aux_bytes: aux.paper_bytes(),
    }
}

/// E10: total (rows, paper bytes) of the PSJ baseline for `sql` over the
/// same instance an engine was loaded from.
pub fn psj_baseline(db: &Database, sql: &str) -> (u64, u64) {
    let cat = db.catalog().clone();
    let view = parse_view(sql, &cat, "psj_view").expect("views parse");
    let stores = load_psj_stores(&view, &cat, db).expect("psj loads");
    psj_totals(&stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_workload::views;

    #[test]
    fn setup_engine_is_consistent() {
        let loaded = setup_engine(RetailParams::tiny(), views::PRODUCT_SALES_SQL);
        assert!(loaded.engine.verify_against(&loaded.db).unwrap());
    }

    #[test]
    fn sweep_ratio_grows_with_duplication() {
        let low = run_sweep_point(1);
        let high = run_sweep_point(8);
        assert!(high.ratio() > low.ratio());
        // Auxiliary size is independent of the duplication factor (same
        // group structure), fact size is linear in it.
        assert_eq!(low.aux_rows, high.aux_rows);
        assert_eq!(high.fact_rows, 8 * low.fact_rows);
    }

    #[test]
    fn psj_baseline_counts_transactions() {
        let params = sweep_params(3);
        let loaded = setup_engine(params, views::PRODUCT_SALES_SQL);
        let (rows, bytes) = psj_baseline(&loaded.db, views::PRODUCT_SALES_SQL);
        // PSJ fact store has one tuple per transaction, plus dimensions.
        assert!(rows >= params.fact_rows());
        assert!(bytes > 0);
    }
}
