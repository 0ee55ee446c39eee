//! What a run costs, as a count: a batch of changes against groups that
//! exist allocates a fixed number of buffers per batch and, per run folded,
//! nothing but the `String`s of the values its journal records carry; a
//! run that creates or removes its group on a single-table view builds no
//! key for an fk index the plan does not have, and one whose key holds two
//! values allocates nothing for its key, its sums or the key index's
//! entry; a dimension rename
//! allocates per bucket of the tuples it moves, never per tuple; a
//! rebuild of a `MAX` holds its value counts at 16 bytes an entry, one of
//! a `COUNT(DISTINCT)` journals nothing; and a
//! reader that verifies a change log without wanting its changes
//! allocates nothing at all.
//!
//! A load holds one window of its table while it reads it, never a copy
//! of the table: what it needs only while it runs does not grow with the
//! table.
//!
//! A count, not a timing — it repeats exactly. The test thread's
//! allocations, and the bytes it holds at most, are counted by a wrapping
//! global allocator (per thread, so the harness's own threads do not
//! show), and the runs by the engine's `maintain.runs` counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use md_core::{derive, AuxColKind, AuxColumn, AuxViewDef};
mod common;

use common::Solo;
use md_maintain::{AggState, AuxStore, ExactSum, FrameCursor, Wal};
use md_obs::{Obs, ObsConfig};
use md_relation::{row, Catalog, Change, ChangeRef, DataType, Row, Schema, TableId, Value};
use md_workload::{generate_retail, views, Contracts, RetailParams};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: what it allocated less what it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`held_while`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live bytes by `bytes`, raising the peak with them.
fn hold(bytes: i64) {
    let live = LIVE.with(|live| {
        live.set(live.get() + bytes);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialized thread-local
// `Cell`s, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        hold(layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc` and `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) this thread made while running `f`.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The bytes this thread held while running `f` beyond what it holds
/// after: what `f` needed only while it ran.
fn transient_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
    let kept = f();
    (kept, PEAK.with(Cell::get) - LIVE.with(Cell::get))
}

/// `row` under a new id and, optionally, a new price.
fn resold(row: &Row, id: i64, price: Option<f64>) -> Row {
    let mut values = row.values().to_vec();
    values[0] = Value::Int(id);
    if let Some(price) = price {
        values[4] = Value::Double(price);
    }
    Row::new(values)
}

/// Buffers one batch may allocate whatever its size: the occurrence list,
/// the run grouping's map and arrays, the resolution and argument scratch,
/// growth of the journals on their first large batch. Measured: 17 to 20.
const PER_BATCH: u64 = 32;

/// Allocations one run into existing groups may make on top: none for its
/// keys, states and journal records, one per `Str` a journal record
/// carries. Measured: 0 on three of the views; on `product_sales`, whose
/// `COUNT(DISTINCT brand)` journals the brand whose count it moves, 0.67
/// (an update nets to no move). The parent made 8.
const PER_RUN: u64 = 1;

#[test]
fn a_run_on_existing_groups_allocates_only_the_strings_it_journals() {
    // Prices in quarter steps, sums exact in binary, and in tenths, sums a
    // float fold rounds: an exact sum of either fits its two inline limbs.
    for step in [0.25, 0.1] {
        runs_on_existing_groups(step);
    }
}

/// The budget of runs on existing groups whose prices move in `step`s.
fn runs_on_existing_groups(step: f64) {
    let (mut db, schema) = generate_retail(RetailParams::small(), Contracts::Tight);
    let catalog = db.catalog().clone();
    let sale = schema.sale;

    // 1 000 sales of 1997 (so they join through `product_sales`' year
    // filter), no two on the same day and product: each is a run of its
    // own wherever the run key holds both. Each is repriced by a few
    // `step`s before the load.
    let mut seen = HashSet::new();
    let chosen: Vec<Row> = db
        .table(sale)
        .rows()
        .filter(|r| r[1].as_int().unwrap() > 10 && seen.insert((r[1].clone(), r[2].clone())))
        .take(1_000)
        .collect();
    assert_eq!(chosen.len(), 1_000);
    let price = |r: &Row| r[4].as_double().unwrap();
    let chosen: Vec<Row> = chosen
        .iter()
        .map(|r| {
            let key = r[0].as_int().unwrap();
            let repriced = resold(r, key, Some(price(r) + step * (key % 7) as f64));
            db.update(sale, &r[0], repriced.clone()).unwrap();
            repriced
        })
        .collect();
    let next_id = db.table(sale).len() as i64 + 1;
    let id = |k: i64, i: usize| next_id + k * 1_000 + i as i64;

    // Warm-up: per chosen sale a second one like it (so a delete leaves
    // its groups standing) and one a step dearer (so a price update finds
    // the group it moves to, where the price is part of the key).
    let warm_up: Vec<Change> = chosen
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            [
                Change::Insert(resold(r, id(0, i), None)),
                Change::Insert(resold(r, id(1, i), Some(price(r) + step))),
            ]
        })
        .collect();
    // Measured: an insert, a delete or a price update per chosen sale.
    let measured: Vec<Change> = chosen
        .iter()
        .enumerate()
        .map(|(i, r)| match i % 3 {
            0 => Change::Insert(resold(r, id(2, i), None)),
            1 => Change::Delete(resold(r, id(0, i), None)),
            _ => Change::Update {
                old: resold(r, id(0, i), None),
                new: resold(r, id(0, i), Some(price(r) + step)),
            },
        })
        .collect();

    let paper_views = [
        views::product_sales(&catalog).unwrap(),
        views::product_sales_max(&catalog).unwrap(),
        views::store_revenue(&catalog).unwrap(),
        views::daily_product(&catalog).unwrap(),
    ];
    for view in paper_views {
        let name = view.name.clone();
        let mut solo = Solo::new(derive(&view, &catalog).unwrap(), &catalog).unwrap();
        solo.initial_load(&db).unwrap();
        let obs = Obs::new(ObsConfig::off());
        let runs = obs.counter("maintain.runs", &[("summary", &name)]);
        solo.stores.set_obs(obs.clone());
        solo.engine.set_obs(obs);

        solo.apply(sale, &warm_up).unwrap();
        let (groups_before, aux_before) = (solo.engine.summary().len(), aux_rows(&solo));
        let runs_before = runs.get();
        let allocations = allocations_of(|| {
            solo.prepare(&[(sale, &measured)])
                .unwrap()
                .commit(&[(sale, 2)]);
        });
        let runs = runs.get() - runs_before;

        // Existing groups only: nothing was created, nothing removed.
        assert_eq!(groups_before, solo.engine.summary().len(), "{name}");
        assert_eq!(aux_before, aux_rows(&solo), "{name}");
        assert!(solo
            .verify_aux_against(&db_after(&db, sale, &warm_up, &measured))
            .unwrap());
        // One run per change where the run key tells the sales apart
        // (up to two per update where it holds the price, fewer where two
        // sales of a product cost the same), one per store where it is
        // the store alone.
        let expected_runs = match name.as_str() {
            "product_sales" | "daily_product" => 1_000..=1_000,
            "product_sales_max" => 1_200..=1_333,
            _ => 5..=5,
        };
        assert!(
            expected_runs.contains(&runs),
            "{name} ({step}): {runs} runs"
        );
        assert!(
            allocations <= PER_BATCH + PER_RUN * runs,
            "{name} ({step}): {allocations} allocations for {runs} runs"
        );
    }
}

/// Allocations a thousand runs may make when each creates its `X_root`
/// group on a plan without a root→child edge: no key, state or index
/// entry (they sit in the maps' buckets), only the `MAX`'s value counts,
/// whose B-tree splits a node every few new prices. Measured: 157 to
/// create (0.16 a group) and 0 to remove.
const PER_THOUSAND_TRANSITIONS: u64 = 160;

#[test]
fn a_group_that_comes_or_goes_on_a_single_table_view_builds_no_fk_key() {
    let (db, schema) = generate_retail(RetailParams::small(), Contracts::Tight);
    let catalog = db.catalog().clone();
    let sale = schema.sale;
    // `product_sales_max` reads `sale` alone and keeps `X_root` by product
    // and price: a sale at a price its product never had creates a group,
    // and its delete removes it again.
    let view = views::product_sales_max(&catalog).unwrap();
    let mut solo = Solo::new(derive(&view, &catalog).unwrap(), &catalog).unwrap();
    solo.initial_load(&db).unwrap();
    let obs = Obs::new(ObsConfig::off());
    let runs = obs.counter("maintain.runs", &[("summary", "product_sales_max")]);
    solo.stores.set_obs(obs.clone());
    solo.engine.set_obs(obs);

    let next_id = db.table(sale).len() as i64 + 1;
    let newcomers: Vec<Row> = db
        .table(sale)
        .rows()
        .take(1_000)
        .enumerate()
        .map(|(i, r)| resold(&r, next_id + i as i64, Some(1e6 + i as f64)))
        .collect();
    let created: Vec<Change> = newcomers.iter().cloned().map(Change::Insert).collect();
    let removed: Vec<Change> = newcomers.iter().cloned().map(Change::Delete).collect();
    // Warm-up: the journals and maps reach the size these batches need.
    solo.apply(sale, &created).unwrap();
    solo.apply(sale, &removed).unwrap();
    let aux_before = aux_rows(&solo);
    let image = solo.snapshot().unwrap();

    // Prepared and rolled back, the engine is the image it was, fk index
    // included (the audit compares it with the root store).
    let batch = solo.prepare(&[(sale, &created)]).unwrap();
    let prepared: usize = batch.registry().iter().map(|(_, store)| store.len()).sum();
    assert_eq!(prepared, aux_before + 1_000);
    batch.rollback();
    assert!(image == solo.snapshot().unwrap(), "rollback left a trace");
    assert!(solo.audit().is_clean());

    for (batch, lsn, budget) in [(&created, 3, PER_THOUSAND_TRANSITIONS), (&removed, 4, 0)] {
        let runs_before = runs.get();
        let allocations = allocations_of(|| {
            solo.prepare(&[(sale, batch.as_slice())])
                .unwrap()
                .commit(&[(sale, lsn)]);
        });
        assert_eq!(runs.get() - runs_before, 1_000);
        assert!(
            allocations <= PER_BATCH + budget,
            "{allocations} allocations for 1 000 groups (budget {budget})"
        );
        assert!(solo.audit().is_clean());
    }
    assert_eq!(aux_rows(&solo), aux_before);
    assert!(solo.verify_aux_against(&db).unwrap());
}

/// A run that creates a group whose key holds two values allocates
/// nothing of its own: the key, its sum and the key index's copy of the
/// key all sit in the maps' buckets. Counted once the maps have room: a
/// warm-up creates and removes the same groups.
#[test]
fn creating_a_group_of_a_two_value_key_allocates_no_key_sums_or_index_entry() {
    let mut catalog = Catalog::new();
    let columns = [
        ("id", DataType::Int),
        ("shelf", DataType::Int),
        ("price", DataType::Double),
    ];
    let item = (catalog.add_table("item", Schema::from_pairs(&columns), 0)).unwrap();
    let column = |kind, name: &str| AuxColumn {
        kind,
        name: name.into(),
    };
    // Keyed by `id`: the store keeps a key index beside its groups.
    let def = AuxViewDef {
        table: item,
        name: "itemDTL".into(),
        columns: vec![
            column(AuxColKind::Group { src_col: 0 }, "id"),
            column(AuxColKind::Group { src_col: 1 }, "shelf"),
            column(AuxColKind::Sum { src_col: 2 }, "sum_price"),
            column(AuxColKind::Count, "cnt"),
        ],
        local_conditions: vec![],
        semijoins: vec![],
    };
    let mut store = AuxStore::new(def, &catalog).unwrap();
    let items: Vec<Row> = (0..1_000)
        .map(|i| row![i, i % 7, 0.25 * i as f64])
        .collect();
    let fold = |store: &mut AuxStore, sign: i64| {
        for item in &items {
            let key: &[&Value] = &[&item[0], &item[1]];
            let mut price = ExactSum::default();
            price.add(&item[2], sign);
            store
                .apply_source_run(&key, sign, sign.min(0), &[price])
                .unwrap();
        }
    };
    fold(&mut store, 1);
    fold(&mut store, -1);
    assert!(store.is_empty());
    let created = allocations_of(|| fold(&mut store, 1));
    assert_eq!(store.len(), 1_000);
    assert_eq!(store.lookup_by_key(&Value::Int(7)).unwrap(), &row![7, 0]);
    let removed = allocations_of(|| fold(&mut store, -1));
    assert_eq!((created, removed), (0, 0));
}

/// Bytes this thread held at most while running `f`, beyond what it held
/// before: what `f` built, kept or not.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let kept = f();
    (kept, PEAK.with(Cell::get) - before)
}

/// What rebuilding `product_sales_max` from its stores over
/// `RetailParams::small()` may allocate, and hold at most beyond what was
/// held before: the rebuild an audit, a quarantine repair and a quarantined
/// summary's image make. The summary's `MAX(price)` counts every price of
/// each product, 16 464 of them, in B-tree nodes whose entries are 16
/// bytes under the price's order word (32 under a `Value` key). The
/// rebuild meets the prices in the order of the store's seeded hash map,
/// so the node splits, and with them both counts, vary a little from
/// process to process.
/// Measured: 2 366 to 2 409 allocations and 486 512 to 494 864 bytes;
/// with `Value` keys, 2 379 to 2 402 allocations and 886 336 to 895 184
/// bytes.
const REBUILD_ALLOCATIONS: u64 = 2_500;
const REBUILD_PEAK_BYTES: i64 = 520_000;

#[test]
fn rebuilding_a_max_holds_its_value_counts_under_order_words() {
    let (db, _) = generate_retail(RetailParams::small(), Contracts::Tight);
    let catalog = db.catalog().clone();
    let view = views::product_sales_max(&catalog).unwrap();
    let mut solo = Solo::loaded(derive(&view, &catalog).unwrap(), &db);
    let image = solo.snapshot().unwrap();
    let mut allocations = 0;
    let ((), peak) = peak_of(|| {
        allocations = allocations_of(|| {
            solo.rebuild_summary().unwrap();
        });
    });
    assert!(
        image == solo.snapshot().unwrap(),
        "the rebuild moved the summary"
    );
    let counted: usize = (solo.engine.summary().iter())
        .flat_map(|(_, state)| state.aggs.iter())
        .map(|agg| match agg {
            AggState::Values(counts) => counts.iter().count(),
            _ => 0,
        })
        .sum();
    assert!(
        allocations <= REBUILD_ALLOCATIONS,
        "{allocations} allocations (budget {REBUILD_ALLOCATIONS})"
    );
    assert!(
        peak <= REBUILD_PEAK_BYTES,
        "{peak} bytes held for {counted} counted prices (budget {REBUILD_PEAK_BYTES})"
    );
}

/// What rebuilding `product_sales` — `COUNT(DISTINCT brand)` per month —
/// from its stores over `RetailParams::small()` may allocate. A rebuild
/// folds outside any undo scope, so it journals nothing: a brand's count
/// moves without a copy of the brand for a journal record. Measured: 46
/// (one `String` per root tuple, 1 494, while a fold outside a scope still
/// built its journal records and dropped them).
const DISTINCT_REBUILD_ALLOCATIONS: u64 = 60;

#[test]
fn rebuilding_a_distinct_count_journals_nothing() {
    let (db, _) = generate_retail(RetailParams::small(), Contracts::Tight);
    let catalog = db.catalog().clone();
    let view = views::product_sales(&catalog).unwrap();
    let mut solo = Solo::loaded(derive(&view, &catalog).unwrap(), &db);
    let image = solo.snapshot().unwrap();
    let allocations = allocations_of(|| {
        solo.rebuild_summary().unwrap();
    });
    assert!(
        image == solo.snapshot().unwrap(),
        "the rebuild moved the summary"
    );
    assert!(
        allocations <= DISTINCT_REBUILD_ALLOCATIONS,
        "{allocations} allocations (budget {DISTINCT_REBUILD_ALLOCATIONS})"
    );
}

/// A reader that wants none of a log's changes verifies every frame —
/// checksum, structure, canonical spelling — without one allocation.
#[test]
fn verifying_a_log_without_its_changes_allocates_nothing() {
    let mut wal = Wal::new();
    for lsn in 1..=50u64 {
        let k = lsn as i64;
        let changes = [
            Change::Insert(row![k, "brand-é", 2.5, true]),
            Change::Delete(row![k, ""]),
            Change::Update {
                old: row![k, "acme", 7, 1.25],
                new: row![k, "zeta", 7, 2.5],
            },
            Change::Update {
                old: row![k],
                new: row![k, k],
            },
        ];
        wal.append(TableId(lsn as usize % 3), lsn, &changes);
    }
    let mut frames = 0;
    let allocations = allocations_of(|| {
        let mut cursor = FrameCursor::new(wal.bytes()).unwrap();
        while cursor.next_frame(|_, _| false).is_some() {
            frames += 1;
        }
        assert_eq!(cursor.position(), wal.bytes().len());
    });
    assert_eq!(frames, 50);
    assert_eq!(allocations, 0);
}

fn aux_rows(solo: &Solo) -> usize {
    solo.aux_stores().map(|store| store.len()).sum()
}

/// The sources after both batches: what the stores must equal.
fn db_after(
    db: &md_relation::Database,
    sale: md_relation::TableId,
    warm_up: &[Change],
    measured: &[Change],
) -> md_relation::Database {
    let mut db = db.clone();
    for change in warm_up.iter().chain(measured) {
        match change {
            Change::Insert(row) => db.insert(sale, row.clone()),
            Change::Delete(row) => db.delete(sale, &row[0]),
            Change::Update { new, .. } => db.update(sale, &new[0], new.clone()),
        }
        .unwrap();
    }
    db
}

/// A product rename moves the product's root auxiliary tuples out of its
/// old brand and into its new one. They are folded a bucket at a time — a
/// summary group and its argument values — so what the rename allocates
/// grows with the buckets and never with the tuples: here `k` tuples, on
/// `k` days of one month, make one bucket per side for any `k`. Measured:
/// 40 for either `k`; moving the tuples one at a time made 42 for one
/// and 995 for 64 (≈ 15 per tuple).
#[test]
fn a_rename_allocates_per_bucket_never_per_moved_tuple() {
    let [one, many] = [1, 64].map(rename_allocations);
    assert_eq!(
        one, many,
        "moving 1 tuple allocated {one}, moving 64 {many}"
    );
}

/// Allocations of one batch renaming a product that sold on `k` days of
/// month 1, under `product_sales`' shape (`COUNT(DISTINCT brand)` by
/// month, `saleDTL` keyed by day and product).
fn rename_allocations(k: i64) -> u64 {
    use md_algebra::{AggFunc, Aggregate, CmpOp, ColRef, Condition, GpsjView, SelectItem};
    use md_relation::{Catalog, DataType, Database, Schema};

    let mut cat = Catalog::new();
    let time = cat
        .add_table(
            "time",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("month", DataType::Int),
                ("year", DataType::Int),
            ]),
            0,
        )
        .unwrap();
    let product = cat
        .add_table(
            "product",
            Schema::from_pairs(&[("id", DataType::Int), ("brand", DataType::Str)]),
            0,
        )
        .unwrap();
    let sale = cat
        .add_table(
            "sale",
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("timeid", DataType::Int),
                ("productid", DataType::Int),
                ("price", DataType::Double),
            ]),
            0,
        )
        .unwrap();
    cat.add_foreign_key(sale, 1, time).unwrap();
    cat.add_foreign_key(sale, 2, product).unwrap();
    cat.set_append_only(time).unwrap();
    cat.set_updatable_columns(product, &[1]).unwrap();
    cat.set_updatable_columns(sale, &[3]).unwrap();
    let mut db = Database::new(cat.clone());
    for day in 1..=64 {
        db.insert(time, row![day, 1, 1997]).unwrap();
    }
    // Product 1 is renamed; products 2 and 3 keep month 1 and its brands
    // standing, so the buckets land on groups and counts that exist.
    for (id, brand) in [(1, "acme"), (2, "acme"), (3, "zeta")] {
        db.insert(product, row![id, brand]).unwrap();
    }
    let mut id = 0;
    for (productid, days) in [(1, k), (2, 64), (3, 64)] {
        for day in 1..=days {
            id += 1;
            db.insert(sale, row![id, day, productid, 1.5]).unwrap();
        }
    }
    let view = GpsjView::new(
        "month_brands",
        vec![sale, time, product],
        vec![
            SelectItem::group_by(ColRef::new(time, 1), "month"),
            SelectItem::agg(Aggregate::of(AggFunc::Sum, ColRef::new(sale, 3)), "rev"),
            SelectItem::agg(Aggregate::count_star(), "n"),
            SelectItem::agg(
                Aggregate::distinct_of(AggFunc::Count, ColRef::new(product, 1)),
                "brands",
            ),
        ],
        vec![
            Condition::cmp_lit(ColRef::new(time, 2), CmpOp::Eq, 1997i64),
            Condition::eq_cols(ColRef::new(sale, 1), ColRef::new(time, 0)),
            Condition::eq_cols(ColRef::new(sale, 2), ColRef::new(product, 0)),
        ],
    );
    let mut solo = Solo::new(derive(&view, &cat).unwrap(), &cat).unwrap();
    solo.initial_load(&db).unwrap();
    let obs = Obs::new(ObsConfig::off());
    let labels = [("summary", "month_brands")];
    let joined = obs.counter("maintain.dim_joined", &labels);
    let runs = obs.counter("maintain.dim_runs", &labels);
    solo.stores.set_obs(obs.clone());
    solo.engine.set_obs(obs);

    // Warm-up: a rename of product 3 there and back brings the journals
    // and maps to the size the measured batch needs.
    for brand in ["zeta-2", "zeta"] {
        let rename = db.update(product, &Value::Int(3), row![3, brand]).unwrap();
        solo.apply(product, &[rename]).unwrap();
    }
    let rename = [db.update(product, &Value::Int(1), row![1, "nova"]).unwrap()];
    let (joined_before, runs_before) = (joined.get(), runs.get());
    let allocations = allocations_of(|| {
        solo.prepare(&[(product, &rename)])
            .unwrap()
            .commit(&[(product, 4)]);
    });
    assert_eq!(joined.get() - joined_before, k as u64);
    assert_eq!(runs.get() - runs_before, 2, "one bucket out, one in");
    assert!(solo.engine.verify_against(&db).unwrap());
    assert!(solo.audit().is_clean());
    allocations
}

/// What loading `store_revenue` (one group per city) holds beyond what
/// it leaves, in bytes, over a retail star of `days` × 800 facts.
fn load_transient(days: u64) -> i64 {
    let params = RetailParams {
        days,
        stores: 10,
        products: 50,
        products_sold_per_day_per_store: 20,
        transactions_per_product: 4,
        start_year: 1996,
        year_split: days / 2,
        seed: 5,
    };
    let (db, _) = generate_retail(params, Contracts::Tight);
    let catalog = db.catalog().clone();
    let plan = derive(&views::store_revenue(&catalog).unwrap(), &catalog).unwrap();
    let (solo, transient) = transient_of(|| Solo::loaded(plan, &db));
    assert_eq!(solo.engine.summary().len(), 10);
    assert!(solo.verify_aux_against(&db).unwrap());
    transient
}

/// How much more the load of four times the facts may hold for a while:
/// what its bigger tables' maps hold no more than the smaller ones' do.
/// Measured: 1.0 MiB for either, the same to the byte; reading the whole
/// table at once held 2.2 MiB for 9 600 facts and 7.9 MiB for 38 400.
const TRANSIENT_SLACK: i64 = 16 * 1024;

#[test]
fn a_load_holds_a_window_of_its_table_never_the_table() {
    // 9 600 facts are already three load windows.
    let [once, four_times] = [12, 48].map(load_transient);
    assert!(
        four_times <= once + TRANSIENT_SLACK,
        "loading 9 600 facts held {once} bytes for a while, 38 400 held {four_times}"
    );
}

/// Blocks one batch of 16 changes at random keys — `trickle`'s shape —
/// allocates under the three CSMAS views (`store_revenue`,
/// `daily_product`, `product_sales` without its `COUNT(DISTINCT)`), from
/// its prepare to its commit, once the journals have grown: its root
/// group is grouped once for the two root stores and the summary without
/// one. Measured: 22 to 25 a batch (batches 9 to 24); 39 to 43 when each
/// root store and the summary grouped the group alone.
const TRICKLE_BATCH: u64 = 25;

#[test]
fn a_trickle_batch_under_the_csmas_views_allocates_a_pinned_count() {
    use md_maintain::{StoreRegistry, SummaryEngine};

    let (mut db, schema) = generate_retail(RetailParams::small(), Contracts::Tight);
    let catalog = db.catalog().clone();
    let sale = schema.sale;
    let mut csmas = views::product_sales(&catalog).unwrap();
    csmas.name = "product_sales_csmas".into();
    csmas
        .select
        .retain(|item| item.alias() != "DifferentBrands");
    let csmas_views = [
        views::store_revenue(&catalog).unwrap(),
        views::daily_product(&catalog).unwrap(),
        csmas,
    ];
    let mut stores = StoreRegistry::new(&catalog);
    let mut engines: Vec<SummaryEngine> = csmas_views
        .iter()
        .map(|view| {
            let plan = derive(view, &catalog).unwrap();
            SummaryEngine::new(plan, &catalog, &mut stores).unwrap()
        })
        .collect();
    stores.load(&db, |_| 0).unwrap();
    for engine in &mut engines {
        engine.initial_load(&stores, &db, 0).unwrap();
    }

    // 60 % inserts, 20 % deletes, 20 % price updates, prices in quarter
    // steps, drawn by a fixed linear congruential sequence.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % n
    };
    let mut live: Vec<i64> = db
        .table(sale)
        .rows()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    let mut next = live.iter().max().unwrap() + 1;
    let mut worst = 0;
    for lsn in 1..=24 {
        let mut changes = Vec::new();
        for _ in 0..16 {
            let price = Value::Double(draw(800) as f64 * 0.25);
            let change = match draw(10) {
                0..=5 => {
                    let (days, products, stores) = (30, 100, 5);
                    let day = draw(days) as i64 + 1;
                    let sold = row![
                        next,
                        day,
                        draw(products) as i64 + 1,
                        draw(stores) as i64 + 1
                    ];
                    let mut values = sold.into_values();
                    values.push(price);
                    live.push(next);
                    next += 1;
                    db.insert(sale, Row::new(values)).unwrap()
                }
                6..=7 => {
                    let id = live.swap_remove(draw(live.len() as u64) as usize);
                    db.delete(sale, &Value::Int(id)).unwrap()
                }
                _ => {
                    let id = live[draw(live.len() as u64) as usize];
                    let mut values = db
                        .table(sale)
                        .get(&Value::Int(id))
                        .unwrap()
                        .clone()
                        .into_values();
                    values[4] = price;
                    db.update(sale, &Value::Int(id), Row::new(values)).unwrap()
                }
            };
            changes.push(change);
        }
        let lent: Vec<ChangeRef<'_>> = changes.iter().map(ChangeRef::from).collect();
        let allocations = allocations_of(|| {
            let groups: [(TableId, &[ChangeRef<'_>]); 1] = [(sale, &lent)];
            let batch = stores.prepare_batch(&groups, |_| lsn, engines.iter_mut());
            batch
                .unwrap()
                .all_or_nothing()
                .unwrap()
                .commit(&[(sale, lsn)]);
        });
        // The first batches grow the journals and the grouping's buffers.
        if lsn > 8 {
            worst = worst.max(allocations);
        }
    }
    for engine in &engines {
        assert!(engine.verify_against(&db).unwrap(), "{}", engine.name());
    }
    assert!(
        worst <= TRICKLE_BATCH,
        "{worst} allocations in a 16-change batch"
    );
}
