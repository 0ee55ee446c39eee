//! # `md-workload` — workload generators for the mindetail experiments
//!
//! Deterministic, seeded generators for the data and change streams the
//! paper's evaluation rests on:
//!
//! * [`retail`] — the Section 1.1 grocery-chain star schema
//!   (`sale` × `time`/`product`/`store`) with the paper's scale knobs
//!   (days, stores, products sold per day per store, transactions per
//!   product — the duplicate-compression factor);
//! * [`snowflake`] — a normalized `sale → product → category` chain for
//!   the extended-join-graph and `Need₀` machinery;
//! * [`views`] — the paper's views as SQL constants;
//! * [`updates`] — mixed insert/delete/update streams that mutate the
//!   simulated sources and hand the [`md_relation::Change`] records to a
//!   warehouse for mirroring;
//! * [`paper`] — the exact instances behind Tables 3 and 4.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod paper;
pub mod retail;
pub mod snowflake;
pub mod updates;
pub mod views;

pub use fuzz::{adversarial_double, random_setup, RandomSetup};
pub use retail::{generate_retail, retail_catalog, Contracts, RetailParams, RetailSchema};
pub use snowflake::{generate_snowflake, snowflake_catalog, SnowflakeParams, SnowflakeSchema};
pub use updates::{
    hot_sale_batches, product_brand_changes, sale_changes, time_inserts, HotBatchParams, UpdateMix,
};
