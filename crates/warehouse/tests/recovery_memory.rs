//! Recovery holds one logged frame at a time: its peak heap over the
//! restored state does not grow with the length of the log tail it
//! replays.
//!
//! Live bytes and their high-water mark are counted per thread by a
//! wrapping global allocator (the harness's own threads do not show). Each
//! tail frame is one batch of updates to a column the summary does not
//! read, so replaying it leaves the maintained state as it was. A decoded
//! update is two rows of 32 values at 32 bytes a value; its encoding is
//! the old row at about two bytes a value plus one patched column, so one
//! decoded frame weighs about as much as the 32-frame log the recovered
//! warehouse keeps a copy of. A reader that holds the whole decoded tail
//! peaks several times higher on 32 frames than on 4.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use md_relation::{Catalog, Change, DataType, Database, Row, Schema, TableId, Value};
use md_warehouse::{ChangeBatch, Warehouse};

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
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

/// Columns besides the key, the group and the updated one.
const WIDTH: usize = 29;
/// Rows of the table, and rows each tail frame updates.
const ROWS: i64 = 64;
const PER_FRAME: i64 = 16;

fn row(id: i64, updated: i64) -> Row {
    let mut values = vec![Value::Int(id), Value::Int(id % 4), Value::Int(updated)];
    values.extend((0..WIDTH).map(|_| Value::Int(7)));
    Row::new(values)
}

/// A checkpoint, the log of `frames` batches appended after it, and the
/// image the live warehouse saves at the end.
fn checkpoint_and_tail(frames: i64) -> (Catalog, Vec<u8>, Vec<u8>, Vec<u8>) {
    let mut catalog = Catalog::new();
    let names: Vec<String> = (0..WIDTH).map(|c| format!("c{c}")).collect();
    let mut columns = vec![
        ("id", DataType::Int),
        ("g", DataType::Int),
        ("updated", DataType::Int),
    ];
    columns.extend(names.iter().map(|n| (n.as_str(), DataType::Int)));
    let wide: TableId = catalog
        .add_table("wide", Schema::from_pairs(&columns), 0)
        .unwrap();
    let mut db = Database::new(catalog.clone());
    for id in 0..ROWS {
        db.insert(wide, row(id, 1)).unwrap();
    }
    let mut wh = Warehouse::new(&catalog);
    wh.add_summary_sql(
        "CREATE VIEW by_g AS SELECT wide.g, COUNT(*) AS n FROM wide GROUP BY wide.g",
        &db,
    )
    .unwrap();
    let checkpoint = wh.save().unwrap();
    for frame in 0..frames {
        // Every frame moves `updated` of its rows between 1 and 2, so all
        // frames encode to the same size.
        let (was, now) = if frame / (ROWS / PER_FRAME) % 2 == 0 {
            (1, 2)
        } else {
            (2, 1)
        };
        let first = frame % (ROWS / PER_FRAME) * PER_FRAME;
        let changes = (first..first + PER_FRAME)
            .map(|id| Change::Update {
                old: row(id, was),
                new: row(id, now),
            })
            .collect();
        wh.apply_batch(&ChangeBatch::single(wide, changes)).unwrap();
    }
    let live = wh.save().unwrap();
    (catalog, checkpoint, wh.wal_bytes().unwrap().to_vec(), live)
}

/// Peak heap growth of recovering from `frames` frames past the checkpoint.
fn recovery_peak(frames: i64) -> isize {
    let (catalog, checkpoint, log, live) = checkpoint_and_tail(frames);
    let (recovered, peak) = peak_of(|| {
        Warehouse::builder()
            .recover(&catalog, &checkpoint, &log)
            .unwrap()
    });
    assert!(recovered.dead_letters().is_empty());
    assert!(recovered.save().unwrap() == live, "{frames} frames");
    peak
}

#[test]
fn recovery_peak_heap_does_not_grow_with_the_tail_it_replays() {
    let short = recovery_peak(4);
    let long = recovery_peak(32);
    let ratio = long as f64 / short as f64;
    assert!(
        ratio < 1.5,
        "peak heap during recovery: {short} B over 4 frames, {long} B over 32 ({ratio:.2}×)"
    );
}
