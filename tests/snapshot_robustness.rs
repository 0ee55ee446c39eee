//! Corrupted persistence images must surface as typed errors — never as
//! panics, hangs or absurd allocations. Exercises engine snapshots,
//! warehouse images and change-log images against truncation, bit flips,
//! wrong magic/version bytes and definition drift. An engine image that
//! restores is canonical: the engine re-encodes it to the same bytes.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::ops::Range;

#[path = "../crates/maintain/tests/common/mod.rs"]
mod common;

use common::Solo;

use md_core::derive;
use md_maintain::{AggState, ExactSum, SNAPSHOT_VERSION};
use md_maintain::{FrameCursor, Wal, WAL_VERSION};
use md_relation::{Change, Decoder, Encoder, Row, Value};
use md_sql::parse_view;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, views, Contracts, RetailParams, UpdateMix,
};

/// Live heap bytes and their high-water mark, per thread (the harness's
/// own threads do not show), counted by a wrapping global allocator as
/// `crates/warehouse/tests/recovery_memory.rs` counts them.
struct CountingAllocator;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes as isize);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|l| l.set(l.get() - bytes as isize));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialized thread-local
// `Cell`s, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: as for `dealloc` and `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// How far this thread's live heap rose above where it stood while
/// running `f`, and what `f` returned.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

fn loaded_engine() -> (md_relation::Catalog, Solo) {
    loaded_engine_of(views::PRODUCT_SALES_SQL)
}

fn loaded_engine_of(sql: &str) -> (md_relation::Catalog, Solo) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let cat = db.catalog().clone();
    let view = parse_view(sql, &cat, "v").unwrap();
    let plan = derive(&view, &cat).unwrap();
    let mut solo = Solo::new(plan, &cat).unwrap();
    solo.initial_load(&db).unwrap();
    let changes = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 17);
    solo.apply(schema.sale, &changes).unwrap();
    (cat, solo)
}

fn engine_image() -> (md_relation::Catalog, Vec<u8>) {
    let (cat, solo) = loaded_engine();
    (cat, solo.snapshot().unwrap())
}

fn restored(cat: &md_relation::Catalog, bytes: &[u8]) -> md_maintain::Result<Solo> {
    restored_as(views::PRODUCT_SALES_SQL, cat, bytes)
}

fn restored_as(sql: &str, cat: &md_relation::Catalog, bytes: &[u8]) -> md_maintain::Result<Solo> {
    let view = parse_view(sql, cat, "v").unwrap();
    let plan = derive(&view, cat).unwrap();
    Solo::restore(plan, cat, bytes)
}

fn restore_engine(cat: &md_relation::Catalog, bytes: &[u8]) -> md_maintain::Result<()> {
    restored(cat, bytes).map(|_| ())
}

/// The image is refused, or restores to an engine that writes it back
/// byte for byte — the rule the change log's frames follow too.
fn assert_refused_or_canonical(cat: &md_relation::Catalog, bytes: &[u8], what: &str) {
    if let Ok(solo) = restored(cat, bytes) {
        assert!(
            solo.snapshot().unwrap() == bytes,
            "{what} restored, but to an solo that saves other bytes"
        );
    }
}

#[test]
fn every_truncation_of_an_engine_snapshot_is_a_typed_error() {
    let (cat, image) = engine_image();
    assert!(
        restore_engine(&cat, &image).is_ok(),
        "intact image restores"
    );
    for cut in 0..image.len() {
        let err = match restore_engine(&cat, &image[..cut]) {
            Err(e) => e,
            Ok(()) => panic!("truncation at byte {cut} restored successfully"),
        };
        // A typed error with a message — not a panic, not an empty shell.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn engine_snapshot_byte_flips_never_panic() {
    let (cat, image) = engine_image();
    assert_eq!(restored(&cat, &image).unwrap().snapshot().unwrap(), image);
    for i in 0..image.len() {
        let mut flipped = image.clone();
        flipped[i] ^= 0xA5;
        // The flip may be detected (Err) or land in a don't-care bit
        // pattern (Ok) — either way restore must return, not panic, and
        // what it accepts it must write back unchanged.
        assert_refused_or_canonical(&cat, &flipped, &format!("flip at byte {i}"));
    }
}

/// Where an engine image keeps each list it holds: per list, the offset of
/// its `u32` length and the byte range of every entry.
struct Layout {
    /// The offset of the root's committed LSN, in the image of a plan
    /// without a root store.
    root_lsn: Option<usize>,
    stores: Vec<(usize, Vec<Range<usize>>)>,
    /// The whole section of each auxiliary view: its table id, then its
    /// committed LSN, then its groups.
    store_sections: Vec<Range<usize>>,
    summary: (usize, Vec<Range<usize>>),
}

impl Layout {
    /// Walks `image` as [`md_maintain::SummaryEngine::snapshot`] lays it
    /// out for a plan that omits its root store (`root_omitted`) or not.
    fn of(image: &[u8], root_omitted: bool) -> Layout {
        let mut d = Decoder::new(image);
        let at = |d: &Decoder<'_>| image.len() - d.remaining();
        let list = |d: &mut Decoder<'_>, entry: &dyn Fn(&mut Decoder<'_>)| {
            let count_at = at(d);
            let n = d.take_u32().unwrap();
            let entries = (0..n)
                .map(|_| {
                    let start = at(d);
                    entry(d);
                    start..at(d)
                })
                .collect();
            (count_at, entries)
        };
        // Magic, version, plan fingerprint.
        for _ in 0..13 {
            d.take_u8().unwrap();
        }
        let root_lsn = root_omitted.then(|| at(&d));
        if root_omitted {
            d.take_u64().unwrap();
        }
        let (mut stores, mut store_sections) = (Vec::new(), Vec::new());
        for _ in 0..d.take_u32().unwrap() {
            let start = at(&d);
            d.take_u32().unwrap();
            d.take_u64().unwrap();
            stores.push(list(&mut d, &|d| {
                d.take_row().unwrap();
                for _ in 0..d.take_u32().unwrap() {
                    ExactSum::decode(d).unwrap();
                }
                d.take_u64().unwrap();
            }));
            store_sections.push(start..at(&d));
        }
        let summary = list(&mut d, &|d| {
            d.take_row().unwrap();
            d.take_u64().unwrap();
            for _ in 0..d.take_u32().unwrap() {
                skip_agg_state(d);
            }
        });
        assert!(d.is_exhausted());
        Layout {
            root_lsn,
            stores,
            store_sections,
            summary,
        }
    }
}

/// Walks one aggregate state as the engine image lays it out.
fn skip_agg_state(d: &mut Decoder<'_>) {
    match d.take_u8().unwrap() {
        0 => {}
        1 => drop(ExactSum::decode(d).unwrap()),
        _ => {
            for _ in 0..d.take_u32().unwrap() {
                d.take_value().unwrap();
                d.take_u64().unwrap();
            }
        }
    }
}

/// `image` with the list whose length sits at `count_at` and whose entries
/// span `entries` replaced by `with`, its length rewritten to match.
fn respliced(
    image: &[u8],
    (count_at, entries): &(usize, Vec<Range<usize>>),
    with: &[Vec<u8>],
) -> Vec<u8> {
    let end = entries.last().map_or(count_at + 4, |e| e.end);
    let mut out = image[..*count_at].to_vec();
    out.extend((with.len() as u32).to_le_bytes());
    out.extend(with.concat());
    out.extend(&image[end..]);
    out
}

/// Restore makes room for a section's groups before it reads them, by
/// the count the image announces — clamped to what the bytes left could
/// hold. An auxiliary view or a summary that claims `u32::MAX` groups
/// over a short body is the typed error of a cut image, and restoring it
/// costs no more heap than restoring the whole image does.
#[test]
fn a_group_count_past_the_body_sizes_no_map() {
    let (cat, image) = engine_image();
    let layout = Layout::of(&image, false);
    let (whole, whole_peak) = peak_of(|| restored(&cat, &image));
    assert!(whole.is_ok());
    let counts = (layout.stores.iter())
        .map(|(count_at, _)| ("auxiliary view", *count_at))
        .chain([("summary", layout.summary.0)]);
    let mut refusals = Vec::new();
    for (section, count_at) in counts {
        // The count, then the first entries' worth of a short body.
        let mut forged = image[..count_at + 4 + 48].to_vec();
        forged[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (restored, peak) = peak_of(|| restored(&cat, &forged));
        let err = restored
            .err()
            .unwrap_or_else(|| panic!("{section}: restored"));
        refusals.push(err.to_string());
        assert!(
            peak < whole_peak,
            "{section}: {peak} bytes at peak for {} bytes of image; the whole {} \
             bytes peak at {whole_peak}",
            forged.len(),
            image.len()
        );
    }
    // Three auxiliary views, then the summary: each the refusal of a cut
    // image, word for word and at the byte the body ran dry.
    let ran_dry = [
        "u64 at byte 76",
        "varint at byte 165",
        "u32 at byte 420",
        "bytes at byte 1004",
    ];
    let expected = ran_dry.map(|at| format!("invalid operation: corrupt encoding: truncated {at}"));
    assert_eq!(refusals, expected);
}

/// Each list of an engine image with its entries repeated, reordered or
/// emptied — images the parent commit restored (to an engine holding one
/// group fewer than the image declares, or a group standing for no row)
/// and that are now typed errors, because no engine writes them.
#[test]
fn engine_snapshot_restores_only_canonical_images() {
    // `store_revenue`: several cities, and a fact auxiliary view with a sum.
    let sql = views::STORE_REVENUE_SQL;
    let (cat, mut solo) = loaded_engine_of(sql);
    let mut tables = [
        cat.table_id("sale").unwrap(),
        cat.table_id("store").unwrap(),
    ];
    tables.sort();
    // An empty batch committed at LSNs of its own.
    let batch = solo.prepare(&[]).unwrap();
    batch.commit(&[(tables[0], 3), (tables[1], 5)]);
    let image = solo.snapshot().unwrap();
    let layout = Layout::of(&image, false);
    assert_eq!(
        restored_as(sql, &cat, &image).unwrap().snapshot().unwrap(),
        image
    );

    let bytes = |list: &(usize, Vec<Range<usize>>)| -> Vec<Vec<u8>> {
        list.1.iter().map(|r| image[r.clone()].to_vec()).collect()
    };
    let repeated = |list: &(usize, Vec<Range<usize>>)| {
        let mut entries = bytes(list);
        entries[1] = entries[0].clone();
        respliced(&image, list, &entries)
    };
    let swapped = |list: &(usize, Vec<Range<usize>>)| {
        let mut entries = bytes(list);
        entries.swap(0, 1);
        respliced(&image, list, &entries)
    };
    let fact = layout
        .stores
        .iter()
        .max_by_key(|(_, entries)| entries.len())
        .expect("auxiliary views");
    assert!(fact.1.len() >= 2 && layout.summary.1.len() >= 2);
    // The fact table's first entry: key, sums, count.
    let first = bytes(fact).swap_remove(0);
    let (head, cnt) = first.split_at(first.len() - 8);
    assert_ne!(cnt, [0; 8]);
    let uncounted = [head, &[0; 8]].concat();
    let mut d = Decoder::new(head);
    d.take_row().unwrap();
    let n_sums_at = head.len() - d.remaining();
    let n_sums = d.take_u32().unwrap();
    assert_eq!(n_sums, 1, "SUM(price)");
    let mut extra_sum = head.to_vec();
    extra_sum[n_sums_at..n_sums_at + 4].copy_from_slice(&(n_sums + 1).to_le_bytes());
    let mut seven = Encoder::new();
    let mut sum = ExactSum::default();
    sum.add(&Value::Double(7.0), 1);
    sum.encode(&mut seven);
    extra_sum.extend(seven.into_bytes());
    extra_sum.extend(cnt);
    let with_first = |entry: Vec<u8>| {
        let mut entries = bytes(fact);
        entries[0] = entry;
        respliced(&image, fact, &entries)
    };
    let sections = &layout.store_sections;
    let (last, kept) = sections.split_last().unwrap();
    let mut view_left_out = image[..sections[0].start - 4].to_vec();
    view_left_out.extend((kept.len() as u32).to_le_bytes());
    view_left_out.extend(&image[sections[0].start..last.start]);
    view_left_out.extend(&image[last.end..]);

    for (what, bytes, says) in [
        (
            "a repeated auxiliary group",
            repeated(fact),
            "does not follow",
        ),
        (
            "auxiliary groups out of order",
            swapped(fact),
            "does not follow",
        ),
        (
            "an auxiliary group of count 0",
            with_first(uncounted),
            "stands for no row",
        ),
        (
            "an auxiliary group with a sum too many",
            with_first(extra_sum),
            "sums",
        ),
        (
            "an auxiliary view left out",
            view_left_out,
            "auxiliary views",
        ),
        (
            "a repeated summary group",
            repeated(&layout.summary),
            "does not follow",
        ),
        (
            "summary groups out of order",
            swapped(&layout.summary),
            "does not follow",
        ),
    ] {
        match restored_as(sql, &cat, &bytes) {
            Ok(_) => panic!("{what} restored"),
            Err(e) => assert!(e.to_string().contains(says), "{what}: {e}"),
        }
    }
}

/// A keyed auxiliary view — `store_revenue`'s `store` view, whose group
/// key holds `store.id` — keeps one tuple per key value, counted once: a
/// join hop reads the key index alone. An image that lists a second tuple
/// under a key value, or counts a keyed tuple twice, is a typed error:
/// installed, the second tuple would take over the first one's key-index
/// entry.
#[test]
fn a_keyed_view_holding_a_key_value_twice_is_refused() {
    let sql = views::STORE_REVENUE_SQL;
    let (cat, solo) = loaded_engine_of(sql);
    let image = solo.snapshot().unwrap();
    let layout = Layout::of(&image, false);
    let store_table = cat.table_id("store").unwrap().0 as u32;
    let at = (layout.store_sections.iter())
        .position(|s| image[s.start..s.start + 4] == store_table.to_le_bytes())
        .expect("the store view");
    let dim = &layout.stores[at];
    assert!(dim.1.len() >= 2, "several stores");
    let entries: Vec<Vec<u8>> = dim.1.iter().map(|r| image[r.clone()].to_vec()).collect();
    // A dimension entry: its key row, no sums, a count of 1.
    let mut d = Decoder::new(&entries[0]);
    let first = d.take_row().unwrap();
    assert_eq!((d.take_u32().unwrap(), d.take_u64().unwrap()), (0, 1));
    let entry = |key: &Row, cnt: u64| {
        let mut e = Encoder::new();
        e.put_row(key.values());
        e.put_u32(0);
        e.put_u64(cnt);
        e.into_bytes()
    };
    // The first store again, under another city that sorts right after
    // its own: the list stays in key order.
    let Value::Str(city) = &first[1] else {
        panic!("store.city at position 1: {first}")
    };
    let beside = Row::new(vec![first[0].clone(), Value::str(format!("{city}~"))]);
    let mut second_tuple = entries.clone();
    second_tuple.insert(1, entry(&beside, 1));
    let mut counted_twice = entries.clone();
    counted_twice[0] = entry(&first, 2);

    for (what, entries, says) in [
        ("a second tuple under a key value", second_tuple, "held by"),
        (
            "a keyed tuple counted twice",
            counted_twice,
            "stands for 2 rows",
        ),
    ] {
        match restored_as(sql, &cat, &respliced(&image, dim, &entries)) {
            Ok(_) => panic!("{what} restored"),
            Err(e) => {
                let e = e.to_string();
                assert!(
                    e.contains("corrupt snapshot") && e.contains(says),
                    "{what}: {e}"
                );
            }
        }
    }
    let unchanged = respliced(&image, dim, &entries);
    assert_eq!(
        restored_as(sql, &cat, &unchanged)
            .unwrap()
            .snapshot()
            .unwrap(),
        image
    );
}

#[test]
fn engine_snapshot_header_corruptions_are_named() {
    let (cat, image) = engine_image();

    let mut bad_magic = image.clone();
    bad_magic[0] = b'X';
    let err = restore_engine(&cat, &bad_magic).unwrap_err();
    assert!(err.to_string().contains("magic"), "got: {err}");

    let mut bad_version = image.clone();
    bad_version[4] = 99;
    let err = restore_engine(&cat, &bad_version).unwrap_err();
    assert!(err.to_string().contains("version 99"), "got: {err}");

    // An image of the previous format (group index, no value counts) is
    // refused by its version byte, before anything of it is read.
    let mut previous = image.clone();
    previous[4] = SNAPSHOT_VERSION - 1;
    let err = restore_engine(&cat, &previous).unwrap_err();
    let want = format!("unsupported snapshot version {}", SNAPSHOT_VERSION - 1);
    assert!(err.to_string().contains(&want), "got: {err}");

    let mut trailing = image.clone();
    trailing.extend_from_slice(b"junk");
    let err = restore_engine(&cat, &trailing).unwrap_err();
    assert!(err.to_string().contains("trailing"), "got: {err}");

    let err = restore_engine(&cat, b"").unwrap_err();
    assert!(!err.to_string().is_empty());
}

/// A `MIN`/`MAX`/`DISTINCT` state as the engine image lays it out.
fn encode_value_counts(len: u32, entries: &[(Value, u64)]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(2);
    e.put_u32(len);
    for (value, n) in entries {
        e.put_value(value);
        e.put_u64(*n);
    }
    e.into_bytes()
}

#[test]
fn engine_snapshot_value_counts_are_validated() {
    // `product_sales` counts brands per month. Take the month counting
    // the most, find its map in the image and put malformed ones in its
    // place: restore must answer each with an error — a served group whose
    // counts are wrong would answer today and fail at some later delete.
    let (cat, solo) = loaded_engine();
    let image = solo.snapshot().unwrap();
    let widest = solo
        .engine
        .summary()
        .iter()
        .flat_map(|(_, state)| &state.aggs);
    let entries: Vec<(Value, u64)> = widest
        .filter_map(|agg| match agg {
            AggState::Values(counts) => Some(counts.iter().collect::<Vec<_>>()),
            _ => None,
        })
        .max_by_key(Vec::len)
        .expect("a DISTINCT state");
    assert!(entries.len() >= 2, "a month selling two brands");
    let len = entries.len() as u32;
    let needle = encode_value_counts(len, &entries);
    let at: Vec<usize> = (0..image.len())
        .filter(|&i| image[i..].starts_with(&needle))
        .collect();
    let with = |replacement: Vec<u8>| {
        let mut bytes = image[..at[0]].to_vec();
        bytes.extend(replacement);
        bytes.extend(&image[at[0] + needle.len()..]);
        bytes
    };
    assert!(restore_engine(&cat, &with(needle.clone())).is_ok());

    let mutated = |edit: fn(&mut Vec<(Value, u64)>)| {
        let mut entries = entries.clone();
        edit(&mut entries);
        entries
    };
    let zero = mutated(|e| e[0].1 = 0);
    let over = mutated(|e| e[0].1 += 1);
    let twice = mutated(|e| e[1].0 = e[0].0.clone());
    let unsorted = mutated(|e| e.swap(0, 1));
    let short = mutated(|e| drop(e.pop()));
    for (what, bytes) in [
        ("a zero count", encode_value_counts(len, &zero)),
        (
            "counts past the hidden count",
            encode_value_counts(len, &over),
        ),
        ("a duplicate key", encode_value_counts(len, &twice)),
        ("unsorted keys", encode_value_counts(len, &unsorted)),
        (
            "a key short of the hidden count",
            encode_value_counts(len - 1, &short),
        ),
        (
            "an oversized length prefix",
            encode_value_counts(u32::MAX, &entries),
        ),
    ] {
        assert!(
            restore_engine(&cat, &with(bytes)).is_err(),
            "{what} restored"
        );
    }
}

#[test]
fn value_counts_of_another_type_are_refused_naming_the_group() {
    // `product_sales_max` counts each product's prices under `MAX(price)`,
    // a `DOUBLE`. A group's counts respelled as `INT`s or strings, each
    // count kept, add up and are in order: only their type is wrong, and
    // restore must say so, naming the group and the aggregate, rather than
    // serve a `MAX(price)` no price column can hold.
    let sql = views::PRODUCT_SALES_MAX_SQL;
    let (cat, solo) = loaded_engine_of(sql);
    let image = solo.snapshot().unwrap();
    let (key, entries) = (solo.engine.summary().iter())
        .find_map(|(key, state)| match &state.aggs[0] {
            AggState::Values(counts) => Some((key.clone(), counts.iter().collect::<Vec<_>>())),
            _ => None,
        })
        .expect("a MAX state");
    let len = entries.len() as u32;
    let needle = encode_value_counts(len, &entries);
    let at = (0..image.len())
        .find(|&i| image[i..].starts_with(&needle))
        .expect("the group's counts in the image");
    let retyped: [fn(usize) -> Value; 2] =
        [|i| Value::Int(i as i64), |i| Value::Str(format!("{i:05}"))];
    for value in retyped {
        let forged: Vec<(Value, u64)> = (entries.iter().enumerate())
            .map(|(i, (_, n))| (value(i), *n))
            .collect();
        let mut bytes = image[..at].to_vec();
        bytes.extend(encode_value_counts(len, &forged));
        bytes.extend(&image[at + needle.len()..]);
        let err = match restored_as(sql, &cat, &bytes) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{} counted under MAX(price) restored", forged[0].0),
        };
        let named = format!(
            "summary group {key}: aggregate 0 counts DOUBLE values, not {}",
            forged[0].0
        );
        assert!(err.contains(&named), "{err}");
    }
}

#[test]
fn engine_snapshot_rejects_a_drifted_plan() {
    let (cat, image) = engine_image();
    // Same catalog, different view: the fingerprint must catch it.
    let other = parse_view(views::DAILY_PRODUCT_SQL, &cat, "v").unwrap();
    let other_plan = derive(&other, &cat).unwrap();
    let err = match Solo::restore(other_plan, &cat, &image) {
        Err(e) => e,
        Ok(_) => panic!("a drifted plan must be rejected"),
    };
    assert!(err.to_string().contains("fingerprint"), "got: {err}");
}

fn warehouse_image() -> (md_relation::Catalog, Vec<u8>) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 23);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
        .unwrap();
    (db.catalog().clone(), wh.save().unwrap())
}

#[test]
fn every_truncation_of_a_warehouse_image_is_a_typed_error() {
    let (cat, image) = warehouse_image();
    assert!(Warehouse::builder().restore(&cat, &image).is_ok());
    for cut in 0..image.len() {
        assert!(
            Warehouse::builder().restore(&cat, &image[..cut]).is_err(),
            "truncation at byte {cut} restored successfully"
        );
    }
}

#[test]
fn warehouse_image_byte_flips_never_panic() {
    let (cat, image) = warehouse_image();
    for i in 0..image.len() {
        let mut flipped = image.clone();
        flipped[i] ^= 0xA5;
        let _ = Warehouse::builder().restore(&cat, &flipped);
    }
}

/// The warehouse image's two lists — sequence numbers per table, then
/// summaries by name — with an entry repeated or two swapped: images the
/// parent commit restored (a repeated summary replaced the one before it)
/// and that are now typed errors.
#[test]
fn warehouse_image_lists_restore_in_key_order_only() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    let sales = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 23);
    wh.apply_batch(&ChangeBatch::single(schema.sale, sales))
        .unwrap();
    let renames = product_brand_changes(&mut db, &schema, 2, 5);
    wh.apply_batch(&ChangeBatch::single(schema.product, renames))
        .unwrap();
    let (cat, image) = (db.catalog().clone(), wh.save().unwrap());
    assert!(Warehouse::builder().restore(&cat, &image).is_ok());
    // Header, then `(count, entries)` per list, by walking the layout.
    let mut d = Decoder::new(&image);
    let at = |d: &Decoder<'_>| image.len() - d.remaining();
    d.take_str().unwrap();
    let seq_at = at(&d);
    let seqs: Vec<Range<usize>> = (0..d.take_u32().unwrap())
        .map(|_| {
            let start = at(&d);
            d.take_u32().unwrap();
            d.take_u64().unwrap();
            start..at(&d)
        })
        .collect();
    let summaries_at = at(&d);
    let summaries: Vec<Range<usize>> = (0..d.take_u32().unwrap())
        .map(|_| {
            let start = at(&d);
            d.take_str().unwrap();
            d.take_str().unwrap();
            d.take_bytes().unwrap();
            start..at(&d)
        })
        .collect();
    assert!(d.is_exhausted());
    let seqs = (seq_at, seqs);
    let summaries = (summaries_at, summaries);
    assert!(seqs.1.len() >= 2 && summaries.1.len() >= 2);

    let edited = |list: &(usize, Vec<Range<usize>>), edit: fn(&mut Vec<Vec<u8>>)| {
        let mut entries: Vec<Vec<u8>> = list.1.iter().map(|r| image[r.clone()].to_vec()).collect();
        edit(&mut entries);
        respliced(&image, list, &entries)
    };
    let repeat = |e: &mut Vec<Vec<u8>>| e[1] = e[0].clone();
    let swap = |e: &mut Vec<Vec<u8>>| e.swap(0, 1);
    for (what, bytes) in [
        ("a repeated sequence number", edited(&seqs, repeat)),
        ("sequence numbers out of order", edited(&seqs, swap)),
        ("a repeated summary", edited(&summaries, repeat)),
        ("summaries out of order", edited(&summaries, swap)),
    ] {
        match Warehouse::builder().restore(&cat, &bytes) {
            Ok(_) => panic!("{what} restored"),
            Err(e) => assert!(
                e.to_string().contains("out of order or repeated"),
                "{what}: {e}"
            ),
        }
    }
}

const BRAND_AVG_SQL: &str = "CREATE VIEW brand_avg AS SELECT product.brand, \
     AVG(price) AS AvgTicket, COUNT(*) AS Sales FROM sale, product \
     WHERE sale.productid = product.id GROUP BY product.brand";

/// `brand_avg` and `brand_sales` over two sales batches and a rename: two
/// summaries reading the same `saleDTL` and `productDTL`.
fn shared_image() -> (md_relation::Catalog, Warehouse, Vec<u8>) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::BRAND_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(BRAND_AVG_SQL, &db).unwrap();
    for seed in [23, 24] {
        let sales = sale_changes(&mut db, &schema, 12, UpdateMix::balanced(), seed);
        wh.apply_batch(&ChangeBatch::single(schema.sale, sales))
            .unwrap();
    }
    let renames = product_brand_changes(&mut db, &schema, 1, 5);
    wh.apply_batch(&ChangeBatch::single(schema.product, renames))
        .unwrap();
    let image = wh.save().unwrap();
    (db.catalog().clone(), wh, image)
}

/// Per summary of a warehouse image, in name order: the byte range of its
/// engine image.
fn engine_sections(image: &[u8]) -> Vec<Range<usize>> {
    let mut d = Decoder::new(image);
    let at = |d: &Decoder<'_>| image.len() - d.remaining();
    d.take_str().unwrap();
    for _ in 0..d.take_u32().unwrap() {
        d.take_u32().unwrap();
        d.take_u64().unwrap();
    }
    (0..d.take_u32().unwrap())
        .map(|_| {
            d.take_str().unwrap();
            d.take_str().unwrap();
            let len = d.take_u32().unwrap() as usize;
            let start = at(&d);
            for _ in 0..len {
                d.take_u8().unwrap();
            }
            start..start + len
        })
        .collect()
}

/// A store two summaries read is written once, in the section of the
/// first of them by name, and shared again on restore.
#[test]
fn a_shared_store_is_written_once_by_its_first_reader() {
    let (cat, wh, image) = shared_image();
    let sections = engine_sections(&image);
    let stores_in =
        |section: &Range<usize>| Layout::of(&image[section.clone()], false).stores.len();
    assert_eq!(
        sections.iter().map(stores_in).collect::<Vec<_>>(),
        [2, 0],
        "brand_avg writes both stores, brand_sales none"
    );
    let restored = Warehouse::builder().restore(&cat, &image).unwrap();
    assert_eq!(restored.total_detail_bytes(), wh.total_detail_bytes());
    assert_eq!(restored.save().unwrap(), image);
}

/// Every truncation and every single-bit flip of an image whose two
/// summaries share their stores is refused, or restores to a warehouse
/// that saves the very same bytes.
#[test]
fn every_cut_and_bit_flip_of_a_shared_image_is_refused_or_canonical() {
    let (cat, _, image) = shared_image();
    for cut in 0..image.len() {
        assert!(
            Warehouse::builder().restore(&cat, &image[..cut]).is_err(),
            "truncation at byte {cut} restored"
        );
    }
    for i in 0..image.len() {
        for bit in 0..8 {
            let mut flipped = image.clone();
            flipped[i] ^= 1 << bit;
            if let Ok(wh) = Warehouse::builder().restore(&cat, &flipped) {
                assert!(
                    wh.save().unwrap() == flipped,
                    "bit {bit} of byte {i} flipped restored to other bytes"
                );
            }
        }
    }
}

/// An image whose summary holds a batch past the image's sequence number
/// of its table would make the next batch — given the same LSN — skip the
/// summary's stores while the summary folds it. Three ways to write one:
/// the sequence number lowered below a store's LSN (an image that restored
/// on the parent of snapshot version 5, and saved back to its own bytes),
/// a store section's LSN raised past it, and the root LSN of a plan
/// without a root store raised past it.
#[test]
fn a_summary_ahead_of_the_sequence_numbers_is_refused() {
    let refusal =
        |image: &[u8], cat: &md_relation::Catalog| match Warehouse::builder().restore(cat, image) {
            Ok(_) => panic!("a summary ahead of the sequence numbers restored"),
            Err(e) => e.to_string(),
        };
    let u64_at =
        |image: &[u8], at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());

    let (cat, _, image) = shared_image();
    let sale = cat.table_id("sale").unwrap();
    let mut d = Decoder::new(&image);
    d.take_str().unwrap();
    let mut lowered = image.clone();
    for _ in 0..d.take_u32().unwrap() {
        let table = d.take_u32().unwrap() as usize;
        let at = image.len() - d.remaining();
        let seq = d.take_u64().unwrap();
        if table == sale.0 {
            assert_eq!(seq, 2);
            lowered[at..at + 8].copy_from_slice(&(seq - 1).to_le_bytes());
        }
    }
    assert_ne!(lowered, image);
    let got = refusal(&lowered, &cat);
    assert!(got.contains("past its sequence number 1"), "got: {got}");

    // `brand_avg` writes the shared `saleDTL`: its section's LSN.
    let section = engine_sections(&image)[0].clone();
    let layout = Layout::of(&image[section.clone()], false);
    let sale_id = (sale.0 as u32).to_le_bytes();
    let store = (layout.store_sections.iter())
        .find(|s| image[section.start + s.start..][..4] == sale_id)
        .expect("the sale store's section");
    let at = section.start + store.start + 4;
    assert_eq!(u64_at(&image, at), 2);
    let mut raised = image.clone();
    raised[at..at + 8].copy_from_slice(&3u64.to_le_bytes());
    let got = refusal(&raised, &cat);
    assert!(
        got.contains("committed LSN 3") && got.contains("past its sequence number 2"),
        "got: {got}"
    );

    // `daily_product` keeps no root store: its own root LSN.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
    let sales = sale_changes(&mut db, &schema, 12, UpdateMix::balanced(), 23);
    wh.apply_batch(&ChangeBatch::single(schema.sale, sales))
        .unwrap();
    let image = wh.save().unwrap();
    let section = engine_sections(&image)[0].clone();
    let layout = Layout::of(&image[section.clone()], true);
    let at = section.start + layout.root_lsn.expect("a root LSN");
    assert_eq!(u64_at(&image, at), 1);
    let mut raised = image.clone();
    raised[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
    let got = refusal(&raised, db.catalog());
    assert!(
        got.contains("committed LSN 2") && got.contains("past its sequence number 1"),
        "got: {got}"
    );
}

#[test]
fn warehouse_image_header_corruptions_are_named() {
    let (cat, image) = warehouse_image();

    // The header is a length-prefixed string: byte 4 is the first char.
    let mut bad_header = image.clone();
    bad_header[4] = b'X';
    let err = match Warehouse::builder().restore(&cat, &bad_header) {
        Err(e) => e,
        Ok(_) => panic!("bad header must be rejected"),
    };
    assert!(err.to_string().contains("header"), "got: {err}");

    let mut trailing = image.clone();
    trailing.push(0);
    let err = match Warehouse::builder().restore(&cat, &trailing) {
        Err(e) => e,
        Ok(_) => panic!("trailing bytes must be rejected"),
    };
    assert!(err.to_string().contains("trailing"), "got: {err}");

    assert!(Warehouse::builder().restore(&cat, b"nonsense").is_err());
    assert!(Warehouse::builder().restore(&cat, b"").is_err());
}

#[test]
fn recovery_survives_arbitrary_log_corruption() {
    // A corrupted change-log *body* degrades recovery (the valid prefix
    // is kept) but never breaks it; only a corrupt header is an error.
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let snapshot = wh.save().unwrap();
    for seed in 0..3 {
        let changes = sale_changes(&mut db, &schema, 8, UpdateMix::balanced(), 400 + seed);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes.to_vec()))
            .unwrap();
    }
    let wal = wh.wal_bytes().unwrap().to_vec();

    for i in 5..wal.len() {
        let mut flipped = wal.clone();
        flipped[i] ^= 0xA5;
        let recovered = Warehouse::builder()
            .recover(db.catalog(), &snapshot, &flipped)
            .expect("body corruption is torn-tail, not fatal");
        // Whatever survived the corruption, the result is coherent.
        for (name, report) in recovered.audit() {
            assert!(report.is_clean(), "audit of '{name}' after flip at {i}");
        }
    }
    for cut in 5..wal.len() {
        assert!(Warehouse::builder()
            .recover(db.catalog(), &snapshot, &wal[..cut])
            .is_ok());
    }

    // An empty byte string is a *missing* log, not a corrupt one:
    // recovery proceeds from the snapshot alone, but warns that batches
    // after the snapshot cannot be replayed.
    let no_log = Warehouse::builder()
        .recover(db.catalog(), &snapshot, b"")
        .unwrap();
    assert!(
        no_log
            .recovery_warnings()
            .iter()
            .any(|w| w.contains("change log is missing")),
        "missing-log recovery must warn: {:?}",
        no_log.recovery_warnings()
    );

    // Header corruption is a different animal: wrong file, typed error.
    assert!(Warehouse::builder()
        .recover(db.catalog(), &snapshot, b"MDWX\x01")
        .is_err());
    let bad_version = [b"MDWL".as_slice(), &[WAL_VERSION + 1]].concat();
    assert!(Warehouse::builder()
        .recover(db.catalog(), &snapshot, &bad_version)
        .is_err());

    // And a sanity check that an intact log still recovers fully.
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &snapshot, &wal)
        .unwrap();
    assert_eq!(
        recovered.summary_rows("product_sales").unwrap(),
        wh.summary_rows("product_sales").unwrap()
    );

    // Recovery with a fresh (empty) log is the no-replay baseline.
    let empty = Wal::new();
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &snapshot, empty.bytes())
        .unwrap();
    assert!(recovered.dead_letters().is_empty());
}

/// A logged frame whose row does not fit its table — `Wal::append` writes
/// whatever it is given — is held to the schema at the door like a live
/// batch: recovery dead-letters it, naming its change, and comes up
/// serving, with the frames that fit replayed around it. A one-value
/// `store` row used to panic recovery inside the dimension fold.
#[test]
fn a_logged_row_that_does_not_fit_its_table_is_dead_lettered_by_recovery() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut live = Warehouse::new(db.catalog());
    for sql in [
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
    ] {
        live.add_summary_sql(sql, &db).unwrap();
    }
    let snapshot = live.save().unwrap();
    let sales = sale_changes(&mut db, &schema, 8, UpdateMix::balanced(), 61);
    live.apply_batch(&ChangeBatch::single(schema.sale, sales))
        .unwrap();

    let store = db.table(schema.store).rows().next().unwrap().clone();
    let cut = Change::Update {
        old: store.clone(),
        new: Row::new(vec![store[0].clone()]),
    };
    let mut wal = Wal::new();
    wal.append(schema.store, 1, &[cut]);
    let (records, _) = Wal::replay(live.wal_bytes().unwrap()).unwrap();
    for record in &records {
        wal.append(record.table, record.lsn, &record.changes);
    }
    let recovered = Warehouse::builder()
        .recover(db.catalog(), &snapshot, wal.bytes())
        .expect("a misfit frame is dead-lettered, not fatal");

    let letters: Vec<_> = recovered.dead_letters().iter().collect();
    assert_eq!(letters.len(), 1, "{letters:?}");
    let letter = letters[0];
    assert_eq!(
        (letter.table, letter.lsn, letter.change_index),
        (schema.store, 1, Some(0))
    );
    assert!(
        letter.reason.contains("expected 5 values, got 1"),
        "{}",
        letter.reason
    );
    for name in recovered.summaries() {
        assert_eq!(
            recovered.summary_rows(name).unwrap(),
            live.summary_rows(name).unwrap(),
            "{name}"
        );
    }
    for (name, report) in recovered.audit() {
        assert!(report.is_clean(), "audit of '{name}': {report:?}");
    }
}

/// A change log of format version 1, kept as bytes: the 644-byte image
/// `wal.rs`'s golden test pinned until version 2 replaced it — three
/// tables, inserts, deletes, an update, an empty batch, a healed tear.
const CHANGE_LOG_V1: &[u8] = include_bytes!("fixtures/change_log_v1.bin");

#[test]
fn a_version_1_change_log_is_a_typed_error_never_a_guess() {
    assert_eq!(CHANGE_LOG_V1.len(), 644);
    assert_eq!(&CHANGE_LOG_V1[..5], b"MDWL\x01");
    assert_eq!(WAL_VERSION, 2);
    let (cat, snapshot) = warehouse_image();
    let refusals = [
        FrameCursor::new(CHANGE_LOG_V1).unwrap_err().to_string(),
        Wal::open(CHANGE_LOG_V1.to_vec()).unwrap_err().to_string(),
        Wal::replay(CHANGE_LOG_V1).unwrap_err().to_string(),
        // No warehouse comes back to be half-built: the log is refused
        // before anything is replayed.
        match Warehouse::builder().recover(&cat, &snapshot, CHANGE_LOG_V1) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a version-1 log must not recover"),
        },
        match Warehouse::builder()
            .quarantine(true)
            .recover(&cat, &snapshot, CHANGE_LOG_V1)
        {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a version-1 log must not recover"),
        },
    ];
    for refusal in refusals {
        assert!(
            refusal.contains("unsupported version 1 (expected 2)"),
            "got: {refusal}"
        );
    }
    // Nor do its frames pass for version-2 frames under a forged version
    // byte: nothing of the old layout replays.
    let mut relabelled = CHANGE_LOG_V1.to_vec();
    relabelled[4] = WAL_VERSION;
    let (records, valid) = Wal::replay(&relabelled).unwrap();
    assert!(records.is_empty());
    assert_eq!(valid, 5);
}

/// `store_revenue` with an `Int` sum beside its `Double` ones.
const SUMS_SQL: &str = "\
    CREATE VIEW sums AS \
    SELECT store.city, SUM(price) AS Revenue, AVG(price) AS AvgTicket, \
           SUM(sale.timeid) AS Days, COUNT(*) AS Tickets \
    FROM sale, store WHERE sale.storeid = store.id GROUP BY store.city";

/// An engine of [`SUMS_SQL`] fed sales at every kind of price a `Double`
/// sum has to hold exactly: NaN, ±∞, magnitudes 1e±300 that cancel,
/// subnormals, tenths.
fn adversarial_sums_engine() -> (md_relation::Catalog, Solo) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let cat = db.catalog().clone();
    let plan = derive(&parse_view(SUMS_SQL, &cat, "v").unwrap(), &cat).unwrap();
    let mut solo = Solo::new(plan, &cat).unwrap();
    solo.initial_load(&db).unwrap();
    let template = db.table(schema.sale).rows().next().unwrap();
    let stores: Vec<Value> = db
        .table(schema.store)
        .rows()
        .map(|r| r[0].clone())
        .collect();
    let prices = [
        f64::NAN,
        f64::INFINITY,
        1e300,
        -1e300,
        1e-300,
        f64::from_bits(3),
        0.1,
        -0.0,
        1e16,
        f64::NEG_INFINITY,
    ];
    let changes: Vec<Change> = prices
        .iter()
        .enumerate()
        .map(|(i, &price)| {
            let mut vals = template.values().to_vec();
            vals[0] = Value::Int(1_000_000 + i as i64);
            vals[3] = stores[i % stores.len()].clone();
            vals[4] = Value::Double(price);
            db.insert(schema.sale, Row::new(vals)).unwrap()
        })
        .collect();
    solo.apply(schema.sale, &changes).unwrap();
    assert!(solo.engine.verify_against(&db).unwrap());
    (cat, solo)
}

#[test]
fn every_flip_and_cut_of_an_image_of_adversarial_sums_is_refused_or_canonical() {
    let (cat, solo) = adversarial_sums_engine();
    let image = solo.snapshot().unwrap();
    let restore = |bytes: &[u8]| restored_as(SUMS_SQL, &cat, bytes);
    assert!(restore(&image).unwrap().snapshot().unwrap() == image);
    for i in 0..image.len() {
        for mask in [0xA5, 0x01, 0x80] {
            let mut flipped = image.clone();
            flipped[i] ^= mask;
            if let Ok(solo) = restore(&flipped) {
                assert!(
                    solo.snapshot().unwrap() == flipped,
                    "flip {mask:#x} at byte {i} restored to other bytes"
                );
            }
        }
    }
    for cut in 0..image.len() {
        assert!(restore(&image[..cut]).is_err(), "truncation at {cut}");
    }
}

/// A `SUM`/`AVG` state spelled as the image would spell one: the byte
/// exponent, the bytes (lowest first) and, flagged, the special counts.
fn spelled_sum(at: i64, bytes: &[u8], specials: Option<[u64; 3]>) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(1);
    e.put_zigzag(at);
    e.put_varint((bytes.len() as u64) << 1 | u64::from(specials.is_some()));
    for &b in bytes {
        e.put_u8(b);
    }
    for n in specials.into_iter().flatten() {
        e.put_varint(n);
    }
    e.into_bytes()
}

/// Where the first summary group of an image of [`SUMS_SQL`] keeps each of
/// its aggregates: SUM and AVG(price) (Double), SUM(timeid) (Int),
/// COUNT(*).
fn first_summary_aggs(image: &[u8]) -> Vec<Range<usize>> {
    let entry = Layout::of(image, false).summary.1[0].clone();
    let mut d = Decoder::new(&image[entry.clone()]);
    let at = |d: &Decoder<'_>| entry.end - d.remaining();
    d.take_row().unwrap();
    d.take_u64().unwrap();
    let aggs: Vec<Range<usize>> = (0..d.take_u32().unwrap())
        .map(|_| {
            let start = at(&d);
            skip_agg_state(&mut d);
            start..at(&d)
        })
        .collect();
    assert_eq!(aggs.len(), 4);
    aggs
}

#[test]
fn an_image_holds_each_sum_in_its_one_normal_form() {
    let (cat, solo) = adversarial_sums_engine();
    let image = solo.snapshot().unwrap();
    let aggs = first_summary_aggs(&image);
    let with = |agg: usize, state: Vec<u8>| {
        [&image[..aggs[agg].start], &state, &image[aggs[agg].end..]].concat()
    };
    let restore = |bytes: &[u8]| restored_as(SUMS_SQL, &cat, bytes);
    // Twelve and a half (0x0C80 · 2⁻⁸), and twelve, spelled right, are taken.
    let twelve_and_a_half = [0x80, 0x0c];
    assert!(restore(&with(0, spelled_sum(-1, &twelve_and_a_half, None))).is_ok());
    assert!(restore(&with(2, spelled_sum(0, &[12], None))).is_ok());
    for (what, agg, state) in [
        (
            "a zero low byte",
            0,
            spelled_sum(-2, &[0, 0x80, 0x0c], None),
        ),
        (
            "a redundant high byte",
            0,
            spelled_sum(-1, &[0x80, 0x0c, 0], None),
        ),
        (
            "a redundant sign byte",
            0,
            spelled_sum(0, &[0xf4, 0xff], None),
        ),
        ("a zero with a scale", 0, spelled_sum(2, &[], None)),
        (
            "a special flag counting none",
            1,
            spelled_sum(0, &[12], Some([0; 3])),
        ),
        (
            "a NaN in an Int sum",
            2,
            spelled_sum(0, &[12], Some([1, 0, 0])),
        ),
        (
            "a fraction in an Int sum",
            2,
            spelled_sum(-1, &twelve_and_a_half, None),
        ),
        ("a bit below 2^-1074", 0, spelled_sum(-135, &[1], None)),
    ] {
        assert!(restore(&with(agg, state)).is_err(), "{what} restored");
    }
}

/// An exact sum whose exponent is spelled in two bytes where one does: the
/// varint walk's refusal, in the words of the encoding — what it refused
/// and the byte of the engine image after it — and not of another stream.
#[test]
fn an_overlong_varint_inside_an_exact_sum_is_refused_in_the_encodings_words() {
    let (cat, solo) = adversarial_sums_engine();
    let image = solo.snapshot().unwrap();
    let sum = first_summary_aggs(&image)[2].clone();
    // SUM(timeid) of 12, its exponent 0 spelled `0x80 0x00`.
    let overlong = [1, 0x80, 0x00, 2, 12];
    let bytes = [&image[..sum.start], &overlong, &image[sum.end..]].concat();
    let err = match restored_as(SUMS_SQL, &cat, &bytes) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("an overlong varint restored"),
    };
    let want = format!(
        "invalid operation: corrupt encoding: overlong varint before byte {}",
        sum.start + 3
    );
    assert_eq!(err, want);
}

/// Each old warehouse image in `tests/fixtures/`, by its snapshot format,
/// and its length in bytes. Each is the same warehouse (`product_sales` and
/// `store_revenue`) saved by the last build of its format:
/// - 3 (header `MDWH2`): sums held as rounded values;
/// - 4 (`MDWH2`): a copy of each store per reader and four work counters
///   per summary;
/// - 5 (`MDWH3`, as now): each shared store written once, the plan
///   fingerprinted by std's hasher over `Debug` text;
/// - 6: the plan fingerprinted by FNV-1a over its canonical bytes, and a
///   committed-LSN vector per summary;
/// - 7: group keys and counted values fixed-width, a `u32` arity and an
///   8-byte integer each.
///
/// A format bump adds the image the last build of the old format saves,
/// and its row here.
const OLD_IMAGES: [(u8, usize); 5] = [(3, 2_724), (4, 3_340), (5, 3_276), (6, 3_276), (7, 3_284)];

/// The last snapshot format whose warehouse header was `MDWH2`.
const LAST_MDWH2: u8 = 4;

/// What every entry point — `restore`, `recover` and a quarantining
/// `restore` — says when it refuses `image`.
fn refusals(image: &[u8], cat: &md_relation::Catalog) -> Vec<String> {
    let refusals = [
        Warehouse::builder().restore(cat, image).err(),
        Warehouse::builder()
            .recover(cat, image, Wal::new().bytes())
            .err(),
        Warehouse::builder()
            .quarantine(true)
            .restore(cat, image)
            .err(),
    ];
    let refusals = refusals.into_iter();
    let refusals = refusals.map(|r| r.expect("the image must not restore").to_string());
    refusals.collect()
}

/// `image` (an old warehouse image) is refused by every entry point,
/// naming the header it has and the one this build reads, and each of its
/// engine images on its own with `engine_refusal`.
fn assert_old_image_refused(image: &[u8], engine_refusal: &str) {
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let cat = db.catalog();
    for refusal in refusals(image, cat) {
        assert!(
            refusal.contains("header 'MDWH2', expected 'MDWH3'"),
            "got: {refusal}"
        );
    }
    let mut d = Decoder::new(image);
    assert_eq!(d.take_str().unwrap(), "MDWH2");
    for _ in 0..d.take_u32().unwrap() {
        d.take_u32().unwrap();
        d.take_u64().unwrap();
    }
    let summaries = d.take_u32().unwrap();
    assert_eq!(summaries, 2);
    for _ in 0..summaries {
        d.take_str().unwrap();
        let sql = d.take_str().unwrap();
        let err = match restored_as(&sql, cat, d.take_bytes().unwrap()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("an old solo image must not restore"),
        };
        assert!(err.contains(engine_refusal), "got: {err}");
    }
    assert!(d.is_exhausted());
}

/// `tests/fixtures/`, where the old images are.
fn fixtures() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The old image of snapshot format `version` is refused by its version at
/// every entry point. One of an `MDWH2` header is refused by that header,
/// and each of its engine images on its own by its version. One of this
/// build's header is read as far as its first engine image and refused by
/// its version byte, before any fingerprint, LSN or key of it is read.
fn assert_refused_by_its_version(version: u8) {
    let (_, len) = OLD_IMAGES.into_iter().find(|&(v, _)| v == version).unwrap();
    let image = std::fs::read(fixtures().join(format!("warehouse_image_v{version}.bin"))).unwrap();
    assert_eq!(image.len(), len, "version {version}");
    assert!(version < SNAPSHOT_VERSION);
    let refused =
        format!("unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})");
    if version <= LAST_MDWH2 {
        assert_old_image_refused(&image, &refused);
        return;
    }
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    for refusal in refusals(&image, db.catalog()) {
        assert!(refusal.contains(&refused), "version {version}: {refusal}");
    }
}

/// Every image in `tests/fixtures/` has its row in `OLD_IMAGES`, and every
/// row is refused by its version.
#[test]
fn every_old_image_is_refused_by_its_version() {
    let versions = std::fs::read_dir(fixtures()).unwrap().map(|entry| {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let version = name
            .strip_prefix("warehouse_image_v")?
            .strip_suffix(".bin")?;
        Some(version.parse::<u8>().unwrap())
    });
    let mut versions: Vec<u8> = versions.flatten().collect();
    versions.sort_unstable();
    assert_eq!(versions, OLD_IMAGES.map(|(v, _)| v), "one row per image");
    for (version, _) in OLD_IMAGES {
        assert_refused_by_its_version(version);
    }
}

#[test]
fn a_version_3_engine_image_is_a_typed_error_never_a_guess() {
    assert_refused_by_its_version(3);
}

#[test]
fn a_version_4_image_is_refused_naming_both_versions() {
    assert_refused_by_its_version(4);
}

#[test]
fn a_version_5_image_is_refused_by_its_version_not_its_fingerprint() {
    assert_refused_by_its_version(5);
}

#[test]
fn a_version_6_image_is_refused_by_its_version() {
    assert_refused_by_its_version(6);
}

#[test]
fn a_version_7_image_is_refused_by_its_version() {
    assert_refused_by_its_version(7);
}

/// An image is refused under a catalog whose contracts drifted: the same
/// SQL derives another plan under `Contracts::Default`, and the plan
/// fingerprint names it.
#[test]
fn a_drifted_catalog_is_refused_by_the_plan_fingerprint() {
    let (_, image) = warehouse_image();
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Default);
    for refusal in refusals(&image, db.catalog()) {
        assert!(
            refusal.contains("plan fingerprint mismatch"),
            "got: {refusal}"
        );
    }
}
