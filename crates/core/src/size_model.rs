//! Analytic storage model — paper Section 1.1.
//!
//! The paper quantifies the savings of smart duplicate compression on
//! "numbers based on real-life case studies of data warehouses"
//! (Kimball, The Data Warehouse Toolkit):
//!
//! ```text
//! Time:    2 years × 365 days                    = 730 days
//! Store:   300 stores, reporting sales each day
//! Product: 30,000 products per store, 3,000 sell per day per store
//! Transactions per product: 20
//! Fact tuples:  730 × 300 × 3,000 × 20           = 13,140,000,000
//! Fact size:    13.14e9 × 5 fields × 4 bytes     = 245 GBytes
//! saleDTL tuples (worst case): 365 × 30,000      = 10,950,000
//! saleDTL size: 10.95e6 × 4 fields × 4 bytes     = 167 MBytes
//! ```
//!
//! This module reproduces that arithmetic exactly (experiment E1) and
//! generalizes it into a parameterized model the benches sweep over (E8).

use md_relation::Value;

/// Parameters of the paper's retail scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetailModel {
    /// Days covered by the fact table (the paper: 2 years = 730).
    pub days: u64,
    /// Number of stores (the paper: 300).
    pub stores: u64,
    /// Distinct products sold per day *per store* (the paper: 3,000).
    pub products_sold_per_day_per_store: u64,
    /// Transactions per (day, store, product) triple (the paper: 20).
    pub transactions_per_product: u64,
    /// Distinct products across the chain (the paper: 30,000).
    pub distinct_products: u64,
    /// Fraction of days passing the view's time selection (the paper's
    /// `year = 1997` over two years: one half). Expressed as
    /// (numerator, denominator) to keep the arithmetic exact.
    pub selected_day_fraction: (u64, u64),
    /// Fields in the fact table (the paper: 5).
    pub fact_fields: u64,
    /// Fields in the compressed auxiliary view (the paper: 4 —
    /// timeid, productid, SUM(price), COUNT(*)).
    pub aux_fields: u64,
}

impl RetailModel {
    /// The exact parameter set from Section 1.1.
    pub fn paper() -> Self {
        RetailModel {
            days: 730,
            stores: 300,
            products_sold_per_day_per_store: 3_000,
            transactions_per_product: 20,
            distinct_products: 30_000,
            selected_day_fraction: (1, 2),
            fact_fields: 5,
            aux_fields: 4,
        }
    }

    /// Number of tuples in the fact table:
    /// `days × stores × products_sold/day/store × transactions/product`.
    pub fn fact_rows(&self) -> u64 {
        self.days
            * self.stores
            * self.products_sold_per_day_per_store
            * self.transactions_per_product
    }

    /// Fact table bytes in the paper's model.
    pub fn fact_bytes(&self) -> u64 {
        self.fact_rows() * self.fact_fields * Value::PAPER_FIELD_BYTES
    }

    /// Days passing the time selection.
    pub fn selected_days(&self) -> u64 {
        self.days * self.selected_day_fraction.0 / self.selected_day_fraction.1
    }

    /// Worst-case number of tuples in the compressed auxiliary view of the
    /// fact table (grouped on `(timeid, productid)`): every distinct
    /// product sells somewhere in the chain every selected day.
    pub fn aux_rows_worst_case(&self) -> u64 {
        self.selected_days() * self.distinct_products
    }

    /// Worst-case auxiliary view bytes in the paper's model.
    pub fn aux_bytes_worst_case(&self) -> u64 {
        self.aux_rows_worst_case() * self.aux_fields * Value::PAPER_FIELD_BYTES
    }

    /// The compression ratio `fact bytes / aux bytes` (worst case).
    pub fn compression_ratio(&self) -> f64 {
        self.fact_bytes() as f64 / self.aux_bytes_worst_case() as f64
    }
}

/// Formats a byte count the way the paper does: binary units, no decimals
/// beyond what the paper prints ("245 GBytes", "167 MBytes").
pub fn human_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.0} GBytes", b / GB)
    } else if b >= MB {
        format!("{:.0} MBytes", b / MB)
    } else if b >= KB {
        format!("{:.0} KBytes", b / KB)
    } else {
        format!("{bytes} bytes")
    }
}

/// Nanoseconds in a display unit (ns/µs/ms/s), for the shell's timing
/// output — the duration counterpart of [`human_bytes`].
pub fn human_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fact_table_numbers() {
        let m = RetailModel::paper();
        // "Number of tuples in fact table: … = 13,140,000,000"
        assert_eq!(m.fact_rows(), 13_140_000_000);
        // "Fact table size: 13,140,000,000 × 5 fields × 4 bytes = 245 GBytes"
        assert_eq!(m.fact_bytes(), 262_800_000_000);
        assert_eq!(human_bytes(m.fact_bytes()), "245 GBytes");
    }

    #[test]
    fn paper_aux_view_numbers() {
        let m = RetailModel::paper();
        // "Number of tuples in the auxiliary view: … = 10,950,000"
        assert_eq!(m.aux_rows_worst_case(), 10_950_000);
        // "Auxiliary view size: 10,950,000 × 4 fields × 4 bytes = 167 MBytes"
        assert_eq!(m.aux_bytes_worst_case(), 175_200_000);
        assert_eq!(human_bytes(m.aux_bytes_worst_case()), "167 MBytes");
    }

    #[test]
    fn compression_ratio_is_three_orders_of_magnitude() {
        let m = RetailModel::paper();
        // 245 GB / 167 MB = 1500.
        assert!((m.compression_ratio() - 1500.0).abs() < 1.0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 bytes");
        assert_eq!(human_bytes(2048), "2 KBytes");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3 MBytes");
        assert_eq!(human_nanos(512), "512ns");
        assert_eq!(human_nanos(2_500), "2.5µs");
        assert_eq!(human_nanos(2_500_000), "2.500ms");
        assert_eq!(human_nanos(2_500_000_000), "2.500s");
    }
}
