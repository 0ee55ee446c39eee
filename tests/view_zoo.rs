//! The view zoo of `tests/sql_pipeline.rs`, in a file of its own so that
//! `crates/check/tests/agreement.rs` enumerates the same statements
//! (`#[path]`-included by both; not a test target itself).

/// A zoo of GPSJ views exercising every aggregate, DISTINCT, both
/// dimension combinations and assorted conditions.
pub fn view_zoo() -> Vec<&'static str> {
    vec![
        "CREATE VIEW v1 AS SELECT time.month, COUNT(*) AS n FROM sale, time \
         WHERE sale.timeid = time.id GROUP BY time.month",
        "CREATE VIEW v2 AS SELECT product.brand, SUM(price) AS s, AVG(price) AS a \
         FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand",
        "CREATE VIEW v3 AS SELECT store.country, MIN(price) AS lo, MAX(price) AS hi, \
         COUNT(*) AS n FROM sale, store WHERE sale.storeid = store.id \
         GROUP BY store.country",
        "CREATE VIEW v4 AS SELECT time.year, COUNT(DISTINCT brand) AS brands, \
         COUNT(*) AS n FROM sale, time, product \
         WHERE sale.timeid = time.id AND sale.productid = product.id \
         GROUP BY time.year",
        "CREATE VIEW v5 AS SELECT sale.productid, SUM(DISTINCT price) AS sd, \
         COUNT(*) AS n FROM sale GROUP BY sale.productid",
        "CREATE VIEW v6 AS SELECT time.month, store.city, SUM(price) AS s, \
         COUNT(*) AS n FROM sale, time, store \
         WHERE sale.timeid = time.id AND sale.storeid = store.id \
         AND time.year >= 1996 AND price > 1.0 \
         GROUP BY time.month, store.city",
        "CREATE VIEW v7 AS SELECT COUNT(*) AS n, SUM(price) AS total FROM sale",
        "CREATE VIEW v8 AS SELECT product.category, AVG(DISTINCT price) AS ad, \
         COUNT(*) AS n FROM sale, product WHERE sale.productid = product.id \
         AND product.category <> 'cat-0' GROUP BY product.category",
        // Literals the printer must write so that the tokenizer reads them
        // back: a quote, a double past 1e15 (still a DOUBLE), a signed zero.
        "CREATE VIEW v9 AS SELECT product.category, COUNT(*) AS n FROM sale, product \
         WHERE sale.productid = product.id AND product.brand <> 'O''Brien' \
         GROUP BY product.category",
        "CREATE VIEW v10 AS SELECT sale.productid, SUM(price) AS s, COUNT(*) AS n \
         FROM sale WHERE sale.price < 10000000000000000.0 GROUP BY sale.productid",
        "CREATE VIEW v11 AS SELECT store.city, SUM(price) AS s, COUNT(*) AS n \
         FROM sale, store WHERE sale.storeid = store.id AND price >= -0.0 \
         GROUP BY store.city HAVING SUM(price) < 10000000000000000.0 AND s > -0.0",
    ]
}
