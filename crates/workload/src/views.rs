//! The paper's view definitions as SQL, resolvable against the retail
//! catalog from [`crate::retail`].

use md_algebra::GpsjView;
use md_relation::Catalog;
use md_sql::{parse_view, SqlResult};

/// The `product_sales` view of Section 1.1: monthly totals over 1997,
/// with a `DISTINCT` brand count.
pub const PRODUCT_SALES_SQL: &str = "\
CREATE VIEW product_sales AS
SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
       COUNT(DISTINCT brand) AS DifferentBrands
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.month";

/// The `product_sales_max` view of Section 3.2: per-product extremum plus
/// CSMAS totals over the bare fact table.
pub const PRODUCT_SALES_MAX_SQL: &str = "\
CREATE VIEW product_sales_max AS
SELECT sale.productid, MAX(sale.price) AS MaxPrice, SUM(sale.price) AS TotalPrice,
       COUNT(*) AS TotalCount
FROM sale
GROUP BY sale.productid";

/// A store-level revenue view (used by examples and benches): exercises a
/// second dimension and an `AVG`.
pub const STORE_REVENUE_SQL: &str = "\
CREATE VIEW store_revenue AS
SELECT store.city, SUM(price) AS Revenue, AVG(price) AS AvgTicket, COUNT(*) AS Tickets
FROM sale, store
WHERE sale.storeid = store.id
GROUP BY store.city";

/// A view grouped by both dimension keys — the shape whose fact auxiliary
/// view Algorithm 3.2 eliminates under tight contracts.
pub const DAILY_PRODUCT_SQL: &str = "\
CREATE VIEW daily_product AS
SELECT time.id AS timeid, product.id AS productid, SUM(price) AS TotalPrice,
       COUNT(*) AS TotalCount
FROM sale, time, product
WHERE sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.id, product.id";

/// A view grouped by a mutable dimension attribute: under tight contracts
/// a `product.brand` rename moves the product's facts between groups —
/// the dimension-delta shape.
pub const BRAND_SALES_SQL: &str = "\
CREATE VIEW brand_sales AS
SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS N
FROM sale, product
WHERE sale.productid = product.id
GROUP BY product.brand";

/// Resolves [`PRODUCT_SALES_SQL`] against `catalog`.
pub fn product_sales(catalog: &Catalog) -> SqlResult<GpsjView> {
    parse_view(PRODUCT_SALES_SQL, catalog, "product_sales")
}

/// Resolves [`PRODUCT_SALES_MAX_SQL`] against `catalog`.
pub fn product_sales_max(catalog: &Catalog) -> SqlResult<GpsjView> {
    parse_view(PRODUCT_SALES_MAX_SQL, catalog, "product_sales_max")
}

/// Resolves [`STORE_REVENUE_SQL`] against `catalog`.
pub fn store_revenue(catalog: &Catalog) -> SqlResult<GpsjView> {
    parse_view(STORE_REVENUE_SQL, catalog, "store_revenue")
}

/// Resolves [`DAILY_PRODUCT_SQL`] against `catalog`.
pub fn daily_product(catalog: &Catalog) -> SqlResult<GpsjView> {
    parse_view(DAILY_PRODUCT_SQL, catalog, "daily_product")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retail::{retail_catalog, Contracts};

    #[test]
    fn all_paper_views_resolve() {
        let (cat, _) = retail_catalog(Contracts::Tight);
        assert_eq!(product_sales(&cat).unwrap().tables.len(), 3);
        assert_eq!(product_sales_max(&cat).unwrap().tables.len(), 1);
        assert_eq!(store_revenue(&cat).unwrap().tables.len(), 2);
        assert_eq!(daily_product(&cat).unwrap().tables.len(), 3);
    }

    #[test]
    fn product_sales_matches_paper_shape() {
        let (cat, schema) = retail_catalog(Contracts::Tight);
        let v = product_sales(&cat).unwrap();
        assert_eq!(v.aggregates().len(), 3);
        assert_eq!(v.group_by_cols().len(), 1);
        assert_eq!(v.group_by_cols()[0].table, schema.time);
    }
}
