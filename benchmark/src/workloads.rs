//! The six workloads: which star, which summaries, which batch shape, how
//! many batches. `BENCHMARK.json` carries each workload's one-line reason;
//! `README.md` the long form and what each predicts *no change* for.

use md_workload::views::{
    DAILY_PRODUCT_SQL, PRODUCT_SALES_MAX_SQL, PRODUCT_SALES_SQL, STORE_REVENUE_SQL,
};
use md_workload::RetailParams;

use crate::gen::Shape;

/// `product_sales` without its `COUNT(DISTINCT brand)`: every aggregate is
/// completely self-maintainable, so nothing is ever recomputed from `X`.
const PRODUCT_SALES_CSMAS_SQL: &str = "\
CREATE VIEW product_sales_csmas AS
SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.month";

/// Grouped by a mutable dimension attribute: a brand rename moves every
/// fact of the product from one group to another.
const BRAND_SALES_SQL: &str = "\
CREATE VIEW brand_sales AS
SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS Sales
FROM sale, product
WHERE sale.productid = product.id
GROUP BY product.brand";

const CSMAS_VIEWS: &[&str] = &[
    STORE_REVENUE_SQL,
    DAILY_PRODUCT_SQL,
    PRODUCT_SALES_CSMAS_SQL,
];

const PAPER_VIEWS: &[&str] = &[
    PRODUCT_SALES_SQL,
    PRODUCT_SALES_MAX_SQL,
    STORE_REVENUE_SQL,
    DAILY_PRODUCT_SQL,
];

const DIM_VIEWS: &[&str] = &[
    PRODUCT_SALES_SQL,
    STORE_REVENUE_SQL,
    DAILY_PRODUCT_SQL,
    BRAND_SALES_SQL,
];

/// The wide catalog: the paper's four views plus group-by, year-filter
/// and month-filter variants. Several pairs differ only in their
/// aggregates (`brand_sales`/`brand_avg`, `store_revenue`/`city_tickets`,
/// `monthly_sum_1997`/`monthly_avg_1997`, …), so their auxiliary views
/// have byte-identical definitions — the duplication ROADMAP item 5 is
/// about.
const WIDE_VIEWS: &[&str] = &[
    PRODUCT_SALES_SQL,
    PRODUCT_SALES_MAX_SQL,
    STORE_REVENUE_SQL,
    DAILY_PRODUCT_SQL,
    PRODUCT_SALES_CSMAS_SQL,
    BRAND_SALES_SQL,
    "CREATE VIEW product_sales_1996 AS
     SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
            COUNT(DISTINCT brand) AS DifferentBrands
     FROM sale, time, product
     WHERE time.year = 1996 AND sale.timeid = time.id AND sale.productid = product.id
     GROUP BY time.month",
    "CREATE VIEW monthly_sum_1997 AS
     SELECT time.month, SUM(price) AS Revenue, COUNT(*) AS Sales
     FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
     GROUP BY time.month",
    "CREATE VIEW monthly_avg_1997 AS
     SELECT time.month, AVG(price) AS AvgTicket, COUNT(*) AS Sales
     FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
     GROUP BY time.month",
    "CREATE VIEW yearly_totals AS
     SELECT time.year, SUM(price) AS Revenue, COUNT(*) AS Sales
     FROM sale, time WHERE sale.timeid = time.id
     GROUP BY time.year",
    "CREATE VIEW category_sales AS
     SELECT product.category, SUM(price) AS Revenue, COUNT(*) AS Sales
     FROM sale, product WHERE sale.productid = product.id
     GROUP BY product.category",
    "CREATE VIEW brand_avg AS
     SELECT product.brand, AVG(price) AS AvgTicket, COUNT(*) AS Sales
     FROM sale, product WHERE sale.productid = product.id
     GROUP BY product.brand",
    "CREATE VIEW country_revenue AS
     SELECT store.country, SUM(price) AS Revenue, COUNT(*) AS Tickets
     FROM sale, store WHERE sale.storeid = store.id
     GROUP BY store.country",
    "CREATE VIEW manager_revenue AS
     SELECT store.manager, SUM(price) AS Revenue, COUNT(*) AS Tickets
     FROM sale, store WHERE sale.storeid = store.id
     GROUP BY store.manager",
    "CREATE VIEW city_tickets AS
     SELECT store.city, COUNT(*) AS Tickets, SUM(price) AS Revenue
     FROM sale, store WHERE sale.storeid = store.id
     GROUP BY store.city",
    "CREATE VIEW product_min_price AS
     SELECT sale.productid, MIN(sale.price) AS MinPrice, COUNT(*) AS Sales
     FROM sale
     GROUP BY sale.productid",
    "CREATE VIEW store_max_ticket AS
     SELECT sale.storeid, MAX(sale.price) AS MaxTicket, SUM(sale.price) AS Revenue,
            COUNT(*) AS Tickets
     FROM sale
     GROUP BY sale.storeid",
    "CREATE VIEW product_totals AS
     SELECT sale.productid, SUM(sale.price) AS Revenue, COUNT(*) AS Sales
     FROM sale
     GROUP BY sale.productid",
    "CREATE VIEW daily_store AS
     SELECT time.id AS timeid, store.id AS storeid, SUM(price) AS Revenue, COUNT(*) AS Tickets
     FROM sale, time, store
     WHERE sale.timeid = time.id AND sale.storeid = store.id
     GROUP BY time.id, store.id",
    "CREATE VIEW daily_product_1997 AS
     SELECT time.id AS timeid, product.id AS productid, SUM(price) AS TotalPrice,
            COUNT(*) AS TotalCount
     FROM sale, time, product
     WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
     GROUP BY time.id, product.id",
    "CREATE VIEW january_by_day AS
     SELECT time.day, SUM(price) AS Revenue, COUNT(*) AS Sales
     FROM sale, time WHERE time.month = 1 AND sale.timeid = time.id
     GROUP BY time.day",
    "CREATE VIEW february_by_day AS
     SELECT time.day, SUM(price) AS Revenue, COUNT(*) AS Sales
     FROM sale, time WHERE time.month = 2 AND sale.timeid = time.id
     GROUP BY time.day",
    "CREATE VIEW city_month AS
     SELECT store.city, time.month, SUM(price) AS Revenue, COUNT(*) AS Tickets
     FROM sale, store, time
     WHERE sale.storeid = store.id AND sale.timeid = time.id
     GROUP BY store.city, time.month",
    "CREATE VIEW category_month_1997 AS
     SELECT product.category, time.month, SUM(price) AS Revenue, COUNT(*) AS Sales
     FROM sale, product, time
     WHERE time.year = 1997 AND sale.productid = product.id AND sale.timeid = time.id
     GROUP BY product.category, time.month",
];

/// How many scheduler workers the warehouse is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workers {
    One,
    /// `min(nproc, 4)`: never more threads than the host has cores.
    UpToFour,
}

impl Workers {
    pub fn count(self) -> usize {
        match self {
            Workers::One => 1,
            Workers::UpToFour => crate::host::nproc().min(4),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Products in the star, a tenth of which sell per day and store. The
    /// one star parameter that differs between workloads: it scales facts
    /// (480 per product) and maintained state together.
    pub products: u64,
    pub views: &'static [&'static str],
    pub shape: Shape,
    /// Timed batches per second of `--seconds`, calibrated at the commit
    /// that added the benchmark so the timed phase lasts about
    /// `--seconds`. The work is fixed, not the clock: the same command
    /// line applies the same batches and every count repeats exactly.
    pub batches_per_second: usize,
    pub workers: Workers,
    /// Read every summary after every batch (reads beside writes) rather
    /// than after every n-th (about 32 samples of `read_ms` per run).
    pub read_after_every_batch: bool,
}

/// Fewest timed batches of any run: the p95 then has ten samples beyond it.
pub const MIN_BATCHES: usize = 200;

/// Untimed batches applied first, so allocator and hash-table growth that
/// only the first batches pay is not in the measurement.
pub const WARMUP_BATCHES: usize = 5;

impl Workload {
    /// The star: 60 days × 10 stores × `products / 10` products sold per
    /// day and store × 8 transactions. With 1 000 products (480 000 facts)
    /// the maintained state is several times a core's private L2, so it
    /// does not sit in cache between batches. The workloads whose batches
    /// rebuild or recompute from `X` — work that grows with days × products
    /// — get fewer products, so that 200 of their batches fit the run.
    pub fn star(&self, smoke: bool) -> RetailParams {
        if smoke {
            return RetailParams {
                days: 9,
                stores: 3,
                products: 40,
                products_sold_per_day_per_store: 10,
                transactions_per_product: 3,
                start_year: 1996,
                year_split: 3,
                seed: 0,
            };
        }
        RetailParams {
            days: 60,
            stores: 10,
            products: self.products,
            products_sold_per_day_per_store: self.products / 10,
            transactions_per_product: 8,
            start_year: 1996,
            year_split: 20,
            seed: 0,
        }
    }

    pub fn batches(&self, seconds: u64, smoke: bool) -> usize {
        if smoke {
            12
        } else {
            (self.batches_per_second * seconds as usize).max(MIN_BATCHES)
        }
    }

    /// Every summary is read after each `read_every`-th batch.
    pub fn read_every(&self, batches: usize) -> usize {
        if self.read_after_every_batch {
            1
        } else {
            (batches / 32).max(1)
        }
    }

    /// The reference kernel is sampled before every `kernel_every`-th
    /// batch: about 150 samples per second of feed.
    pub fn kernel_every(&self) -> usize {
        (self.batches_per_second / 150).max(1)
    }

    pub fn shape(&self, smoke: bool) -> Shape {
        match (smoke, self.shape) {
            (true, Shape::Bulk { .. }) => Shape::Bulk {
                inserts: 134,
                deletes: 66,
                combos: 8,
            },
            (true, Shape::HotRows { touches, .. }) => Shape::HotRows {
                hot_rows: 20,
                touches,
                transient_pairs: 10,
            },
            (true, Shape::Mix { changes }) => Shape::Mix {
                changes: changes.min(60),
            },
            (_, shape) => shape,
        }
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bulk_feed",
        products: 250,
        views: CSMAS_VIEWS,
        shape: Shape::Bulk {
            inserts: 1334,
            deletes: 666,
            combos: 48,
        },
        batches_per_second: 150,
        workers: Workers::One,
        read_after_every_batch: false,
    },
    Workload {
        name: "hot_rows",
        products: 250,
        views: CSMAS_VIEWS,
        shape: Shape::HotRows {
            hot_rows: 200,
            touches: 14,
            transient_pairs: 100,
        },
        batches_per_second: 200,
        workers: Workers::One,
        read_after_every_batch: false,
    },
    Workload {
        name: "trickle",
        products: 250,
        views: CSMAS_VIEWS,
        shape: Shape::Mix { changes: 16 },
        batches_per_second: 1000,
        workers: Workers::One,
        read_after_every_batch: false,
    },
    Workload {
        name: "paper_mix",
        products: 250,
        views: PAPER_VIEWS,
        shape: Shape::Mix { changes: 500 },
        batches_per_second: 70,
        workers: Workers::One,
        read_after_every_batch: false,
    },
    Workload {
        name: "dim_storm",
        products: 100,
        views: DIM_VIEWS,
        shape: Shape::DimStorm {
            renames: 4,
            managers: 8,
            new_days: 4,
            sales: 32,
        },
        batches_per_second: 75,
        workers: Workers::One,
        read_after_every_batch: false,
    },
    Workload {
        name: "wide_catalog",
        products: 100,
        views: WIDE_VIEWS,
        shape: Shape::Mix { changes: 200 },
        batches_per_second: 55,
        workers: Workers::UpToFour,
        read_after_every_batch: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_workload::{retail_catalog, Contracts};

    #[test]
    fn every_view_parses_checks_clean_and_has_a_unique_name() {
        let (catalog, _) = retail_catalog(Contracts::Tight);
        for w in WORKLOADS {
            let mut names = std::collections::BTreeSet::new();
            for sql in w.views {
                let view = md_sql::parse_view(sql, &catalog, "unnamed").unwrap();
                assert!(
                    !md_check::check_view(&view, &catalog).has_errors(),
                    "{}",
                    view.name
                );
                md_core::derive(&view, &catalog).unwrap();
                assert!(names.insert(view.name.clone()), "duplicate {}", view.name);
            }
        }
        assert_eq!(find("wide_catalog").unwrap().views.len(), 24);
    }
}
