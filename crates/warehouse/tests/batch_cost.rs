//! What a batch costs the allocator, end to end: three streams shaped like
//! the benchmark's `hot_rows` and `bulk_feed` (under the three CSMAS
//! views) and `dim_storm` (under its four views) go through
//! `Warehouse::apply_batch` over `RetailParams::small()`, and each batch's
//! allocations and bytes allocated are held to one checked-in table,
//! [`PINS`].
//!
//! A count, not a timing: it repeats on any host. The test thread's
//! allocations are counted by a wrapping global allocator (per thread, so
//! the harness's own threads do not show); a batch runs on the thread that
//! applies it. Every hashed map draws its own key, so a batch that removes
//! groups and creates others (a brand rename) now and then finds a map
//! full of tombstones and grows it, in one process and not the next: each
//! stream is measured on [`WAREHOUSES`] warehouses, and the least of their
//! costs counts. A count above its pin fails; a count below it prints the
//! table measured, to be checked in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use md_relation::{Change, Database, Row, TableId, Value};
use md_warehouse::{ChangeBatch, Warehouse};
use md_workload::{generate_retail, time_inserts, views, Contracts, RetailParams, RetailSchema};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialized thread-local
// `Cell`s, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation is counted as an allocation of its new size.
        count(new_size);
        // SAFETY: as for `dealloc` and `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and bytes allocated by this thread while running `f`.
fn cost_of(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Per stream, the most one measured batch may allocate: allocations,
/// then bytes.
///
/// Measured: `hot_rows` 29 allocations and 356 038 bytes a batch (436
/// and 330 142 while coalescing cloned every surviving row, 30 and
/// 356 302 while a group's runs were collected per consumer), `bulk_feed`
/// 28 and 1 053 200 (38 and 990 052 while a group with nothing to fold
/// came back borrowed, and its fold's two maps held 16-byte entries; 29
/// and 1 053 464 while its runs were collected), `dim_storm` 205 and
/// 46 812 (248 and 46 903 while a dimension store folded change by
/// change).
const PINS: &[(&str, u64, u64)] = &[
    ("hot_rows", 29, 356_038),
    ("bulk_feed", 28, 1_053_200),
    ("dim_storm", 205, 46_812),
];

/// Batches applied before the counted ones: the first batches grow the
/// journals and the grouping's buffers.
const WARM_UP: usize = 3;
/// Batches counted; a batch's cost is the most any of them made.
const COUNTED: usize = 4;
/// Warehouses a stream is measured on, each with its own map keys; the
/// least of their costs counts.
const WAREHOUSES: usize = 3;

/// A fixed linear congruential sequence.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// A price in quarter steps.
    fn price(&mut self) -> Value {
        Value::Double(1.0 + self.below(400) as f64 / 4.0)
    }
}

/// The sources, the live sales' ids, and the next fresh id.
struct Feed {
    db: Database,
    schema: RetailSchema,
    sale: TableId,
    live: Vec<i64>,
    next_id: i64,
    draw: Draw,
    /// The sales the last bulk batch inserted.
    previous: Vec<i64>,
}

impl Feed {
    /// The feed of `db`, whose live sales it reads.
    fn over(db: Database, schema: RetailSchema) -> Self {
        let sale = schema.sale;
        let live: Vec<i64> = (db.table(sale).rows())
            .map(|row| row[0].as_int().unwrap())
            .collect();
        let next_id = live.iter().max().unwrap() + 1;
        Feed {
            db,
            schema,
            sale,
            live,
            next_id,
            draw: Draw(1998),
            previous: Vec::new(),
        }
    }

    fn sale_row(&self, id: i64) -> Row {
        self.db.table(self.sale).get(&Value::Int(id)).unwrap()
    }

    /// A fresh sale on the foreign keys of live sale `like`.
    fn fresh(&mut self, like: i64) -> Row {
        let mut values = self.sale_row(like).into_values();
        values[0] = Value::Int(self.next_id);
        values[4] = self.draw.price();
        self.next_id += 1;
        Row::new(values)
    }

    fn reprice(&mut self, id: i64) -> Change {
        let mut values = self.sale_row(id).into_values();
        let price = loop {
            let price = self.draw.price();
            if price != values[4] {
                break price;
            }
        };
        values[4] = price;
        self.db
            .update(self.sale, &Value::Int(id), Row::new(values))
            .unwrap()
    }

    /// 200 live sales repriced 14 times each, then 100 sales inserted and
    /// deleted again: 3 000 changes that net about 200.
    fn hot_rows(&mut self) -> ChangeBatch {
        let mut batch = ChangeBatch::new();
        for _ in 0..200 {
            let id = self.live[self.draw.below(self.live.len())];
            for _ in 0..14 {
                batch.push(self.sale, self.reprice(id));
            }
        }
        for _ in 0..100 {
            let like = self.live[self.draw.below(self.live.len())];
            let row = self.fresh(like);
            let id = row[0].clone();
            batch.push(self.sale, self.db.insert(self.sale, row).unwrap());
            batch.push(self.sale, self.db.delete(self.sale, &id).unwrap());
        }
        batch
    }

    /// 1 334 inserts over 8 combinations of foreign keys, then deletes of
    /// the first 666 sales the previous bulk batch inserted.
    fn bulk_feed(&mut self, combos: &[i64]) -> ChangeBatch {
        let mut batch = ChangeBatch::new();
        let mut inserted = Vec::with_capacity(1334);
        for _ in 0..1334 {
            let like = combos[self.draw.below(combos.len())];
            let row = self.fresh(like);
            inserted.push(row[0].as_int().unwrap());
            batch.push(self.sale, self.db.insert(self.sale, row).unwrap());
        }
        for id in std::mem::replace(&mut self.previous, inserted)
            .iter()
            .take(666)
        {
            batch.push(
                self.sale,
                self.db.delete(self.sale, &Value::Int(*id)).unwrap(),
            );
        }
        batch
    }

    /// 4 brand renames, 8 manager updates, 4 new days and 32 fresh sales.
    fn dim_storm(&mut self) -> ChangeBatch {
        let RetailSchema {
            product,
            store,
            time,
            ..
        } = self.schema;
        let mut batch = ChangeBatch::new();
        let brands = self.db.table(product).len() / 4;
        for (table, n, col, values, prefix) in [
            (product, 4, 1, brands, "brand"),
            (store, 8, 4, 64, "manager"),
        ] {
            let keys = self.db.table(table).len();
            for _ in 0..n {
                let key = Value::Int(self.draw.below(keys) as i64 + 1);
                let mut row = self.db.table(table).get(&key).unwrap().into_values();
                row[col] = loop {
                    let value = Value::str(format!("{prefix}-{}", self.draw.below(values)));
                    if value != row[col] {
                        break value;
                    }
                };
                let change = self.db.update(table, &key, Row::new(row)).unwrap();
                batch.push(table, change);
            }
        }
        for change in time_inserts(&mut self.db, &self.schema, 4) {
            batch.push(time, change);
        }
        for _ in 0..32 {
            let like = self.live[self.draw.below(self.live.len())];
            let row = self.fresh(like);
            batch.push(self.sale, self.db.insert(self.sale, row).unwrap());
        }
        batch
    }
}

/// The warehouse of the CSMAS views over `RetailParams::small()`, and its
/// feed.
fn csmas() -> (Warehouse, Feed) {
    let (db, schema) = generate_retail(RetailParams::small(), Contracts::Tight);
    let catalog = db.catalog().clone();
    let mut csmas = views::product_sales(&catalog).unwrap();
    csmas.name = "product_sales_csmas".into();
    csmas
        .select
        .retain(|item| item.alias() != "DifferentBrands");
    let mut wh = Warehouse::new(&catalog);
    for view in [
        views::store_revenue(&catalog).unwrap(),
        views::daily_product(&catalog).unwrap(),
        csmas,
    ] {
        wh.add_summary(view, &db).unwrap();
    }
    (wh, Feed::over(db, schema))
}

/// The warehouse of the `dim_storm` views over `RetailParams::small()`,
/// and its feed.
fn dims() -> (Warehouse, Feed) {
    let (db, schema) = generate_retail(RetailParams::small(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    for sql in [
        views::PRODUCT_SALES_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
        views::BRAND_SALES_SQL,
    ] {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    (wh, Feed::over(db, schema))
}

/// The most one of [`COUNTED`] batches of `stream` allocated, after
/// [`WARM_UP`] batches: the least of that over [`WAREHOUSES`] warehouses.
fn batch_cost(stream: &str) -> (u64, u64) {
    let costs = (0..WAREHOUSES).map(|_| worst_batch(stream));
    costs.fold((u64::MAX, u64::MAX), |(n, b), (m, c)| (n.min(m), b.min(c)))
}

/// The most one of [`COUNTED`] batches of `stream` allocated in a fresh
/// warehouse, after [`WARM_UP`] batches.
fn worst_batch(stream: &str) -> (u64, u64) {
    let (mut wh, mut feed) = match stream {
        "dim_storm" => dims(),
        _ => csmas(),
    };
    let combos: Vec<i64> = (0..8)
        .map(|_| feed.live[feed.draw.below(feed.live.len())])
        .collect();
    let mut worst = (0, 0);
    for i in 0..WARM_UP + COUNTED {
        let batch = match stream {
            "hot_rows" => feed.hot_rows(),
            "dim_storm" => feed.dim_storm(),
            _ => feed.bulk_feed(&combos),
        };
        let cost = cost_of(|| wh.apply_batch(&batch).unwrap());
        if i >= WARM_UP {
            worst = (worst.0.max(cost.0), worst.1.max(cost.1));
        }
    }
    worst
}

#[test]
fn each_stream_allocates_at_most_its_pinned_count_a_batch() {
    let measured: Vec<(&str, u64, u64)> = (PINS.iter())
        .map(|&(stream, ..)| {
            let (allocations, bytes) = batch_cost(stream);
            (stream, allocations, bytes)
        })
        .collect();
    let table: String = (measured.iter())
        .map(|(stream, n, bytes)| format!("    ({stream:?}, {n}, {bytes}),\n"))
        .collect();
    for (&(stream, pin_n, pin_bytes), &(_, n, bytes)) in PINS.iter().zip(&measured) {
        assert!(
            n <= pin_n && bytes <= pin_bytes,
            "{stream}: {n} allocations and {bytes} bytes a batch, pinned at {pin_n} and \
             {pin_bytes}; measured:\n{table}"
        );
    }
    if (PINS.iter().zip(&measured)).any(|(pin, got)| got.1 < pin.1 || got.2 < pin.2) {
        println!("a batch allocates less than its pin; the table measured:\n{table}");
    }
}
