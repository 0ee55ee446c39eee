//! What a batch costs the allocator, end to end: two streams shaped like
//! the benchmark's `hot_rows` and `bulk_feed` go through
//! `Warehouse::apply_batch` under the three CSMAS views over
//! `RetailParams::small()`, and each batch's allocations and bytes
//! allocated are held to one checked-in table, [`PINS`].
//!
//! A count, not a timing: it repeats exactly on any host. The test
//! thread's allocations are counted by a wrapping global allocator (per
//! thread, so the harness's own threads do not show); a batch runs on the
//! thread that applies it. A count above its pin fails; a count below it
//! prints the table measured, to be checked in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use md_relation::{Change, Database, Row, TableId, Value};
use md_warehouse::{ChangeBatch, Warehouse};
use md_workload::{generate_retail, views, Contracts, RetailParams};

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
/// Measured: `hot_rows` 30 allocations and 356 302 bytes a batch (436
/// and 330 142 while coalescing cloned every surviving row), `bulk_feed`
/// 29 and 1 053 464 (38 and 990 052 while a group with nothing to fold
/// came back borrowed, and its fold's two maps held 16-byte entries).
const PINS: &[(&str, u64, u64)] = &[("hot_rows", 30, 356_302), ("bulk_feed", 29, 1_053_464)];

/// Batches applied before the counted ones: the first batches grow the
/// journals and the grouping's buffers.
const WARM_UP: usize = 3;
/// Batches counted; a batch's cost is the most any of them made.
const COUNTED: usize = 4;

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
    sale: TableId,
    live: Vec<i64>,
    next_id: i64,
    draw: Draw,
    /// The sales the last bulk batch inserted.
    previous: Vec<i64>,
}

impl Feed {
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
    let sale = schema.sale;
    let live: Vec<i64> = (db.table(sale).rows())
        .map(|row| row[0].as_int().unwrap())
        .collect();
    let next_id = live.iter().max().unwrap() + 1;
    let feed = Feed {
        db,
        sale,
        live,
        next_id,
        draw: Draw(1998),
        previous: Vec::new(),
    };
    (wh, feed)
}

/// The most one of [`COUNTED`] batches of `stream` allocated, after
/// [`WARM_UP`] batches.
fn batch_cost(stream: &str) -> (u64, u64) {
    let (mut wh, mut feed) = csmas();
    let combos: Vec<i64> = (0..8)
        .map(|_| feed.live[feed.draw.below(feed.live.len())])
        .collect();
    let mut worst = (0, 0);
    for i in 0..WARM_UP + COUNTED {
        let batch = match stream {
            "hot_rows" => feed.hot_rows(),
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
