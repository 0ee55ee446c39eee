//! Corrupted persistence images must surface as typed errors — never as
//! panics, hangs or absurd allocations. Exercises engine snapshots,
//! warehouse images and change-log images against truncation, bit flips,
//! wrong magic/version bytes and definition drift.

use md_core::derive;
use md_maintain::wal::{FrameCursor, Wal, WAL_VERSION};
use md_maintain::{AggState, MaintenanceEngine, SNAPSHOT_VERSION};
use md_relation::{Encoder, Value};
use md_sql::parse_view;
use md_warehouse::ChangeBatch;
use md_warehouse::Warehouse;
use md_workload::{generate_retail, sale_changes, views, Contracts, RetailParams, UpdateMix};

fn loaded_engine() -> (md_relation::Catalog, MaintenanceEngine) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let cat = db.catalog().clone();
    let view = parse_view(views::PRODUCT_SALES_SQL, &cat, "v").unwrap();
    let plan = derive(&view, &cat).unwrap();
    let mut engine = MaintenanceEngine::new(plan, &cat).unwrap();
    engine.initial_load(&db).unwrap();
    let changes = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 17);
    engine.apply(schema.sale, &changes).unwrap();
    (cat, engine)
}

fn engine_image() -> (md_relation::Catalog, Vec<u8>) {
    let (cat, engine) = loaded_engine();
    (cat, engine.snapshot().unwrap())
}

fn restore_engine(cat: &md_relation::Catalog, bytes: &[u8]) -> md_maintain::Result<()> {
    let view = parse_view(views::PRODUCT_SALES_SQL, cat, "v").unwrap();
    let plan = derive(&view, cat).unwrap();
    MaintenanceEngine::restore(plan, cat, bytes).map(|_| ())
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
    for i in 0..image.len() {
        let mut flipped = image.clone();
        flipped[i] ^= 0xA5;
        // The flip may be detected (Err) or land in a don't-care bit
        // pattern (Ok) — either way restore must return, not panic.
        let _ = restore_engine(&cat, &flipped);
    }
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
    e.put_u8(3);
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
    let (cat, engine) = loaded_engine();
    let image = engine.snapshot().unwrap();
    let widest = engine.summary().iter().flat_map(|(_, state)| &state.aggs);
    let entries: Vec<(Value, u64)> = widest
        .filter_map(|agg| match agg {
            AggState::Values(counts) => Some(counts.clone().into_iter().collect::<Vec<_>>()),
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
fn engine_snapshot_rejects_a_drifted_plan() {
    let (cat, image) = engine_image();
    // Same catalog, different view: the fingerprint must catch it.
    let other = parse_view(views::DAILY_PRODUCT_SQL, &cat, "v").unwrap();
    let other_plan = derive(&other, &cat).unwrap();
    let err = match MaintenanceEngine::restore(other_plan, &cat, &image) {
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
    assert!(Warehouse::restore(&cat, &image).is_ok());
    for cut in 0..image.len() {
        assert!(
            Warehouse::restore(&cat, &image[..cut]).is_err(),
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
        let _ = Warehouse::restore(&cat, &flipped);
    }
}

#[test]
fn warehouse_image_header_corruptions_are_named() {
    let (cat, image) = warehouse_image();

    // The header is a length-prefixed string: byte 4 is the first char.
    let mut bad_header = image.clone();
    bad_header[4] = b'X';
    let err = match Warehouse::restore(&cat, &bad_header) {
        Err(e) => e,
        Ok(_) => panic!("bad header must be rejected"),
    };
    assert!(err.to_string().contains("header"), "got: {err}");

    let mut trailing = image.clone();
    trailing.push(0);
    let err = match Warehouse::restore(&cat, &trailing) {
        Err(e) => e,
        Ok(_) => panic!("trailing bytes must be rejected"),
    };
    assert!(err.to_string().contains("trailing"), "got: {err}");

    assert!(Warehouse::restore(&cat, b"nonsense").is_err());
    assert!(Warehouse::restore(&cat, b"").is_err());
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
        let recovered = Warehouse::recover(db.catalog(), &snapshot, &flipped)
            .expect("body corruption is torn-tail, not fatal");
        // Whatever survived the corruption, the result is coherent.
        for (name, report) in recovered.audit() {
            assert!(report.is_clean(), "audit of '{name}' after flip at {i}");
        }
    }
    for cut in 5..wal.len() {
        assert!(Warehouse::recover(db.catalog(), &snapshot, &wal[..cut]).is_ok());
    }

    // An empty byte string is a *missing* log, not a corrupt one:
    // recovery proceeds from the snapshot alone, but warns that batches
    // after the snapshot cannot be replayed.
    let no_log = Warehouse::recover(db.catalog(), &snapshot, b"").unwrap();
    assert!(
        no_log
            .recovery_warnings()
            .iter()
            .any(|w| w.contains("change log is missing")),
        "missing-log recovery must warn: {:?}",
        no_log.recovery_warnings()
    );

    // Header corruption is a different animal: wrong file, typed error.
    assert!(Warehouse::recover(db.catalog(), &snapshot, b"MDWX\x01").is_err());
    let bad_version = [b"MDWL".as_slice(), &[WAL_VERSION + 1]].concat();
    assert!(Warehouse::recover(db.catalog(), &snapshot, &bad_version).is_err());

    // And a sanity check that an intact log still recovers fully.
    let recovered = Warehouse::recover(db.catalog(), &snapshot, &wal).unwrap();
    assert_eq!(
        recovered.summary_rows("product_sales").unwrap(),
        wh.summary_rows("product_sales").unwrap()
    );

    // Recovery with a fresh (empty) log is the no-replay baseline.
    let empty = Wal::new();
    let recovered = Warehouse::recover(db.catalog(), &snapshot, empty.bytes()).unwrap();
    assert!(recovered.dead_letters().is_empty());
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
        match Warehouse::recover(&cat, &snapshot, CHANGE_LOG_V1) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a version-1 log must not recover"),
        },
        match Warehouse::builder()
            .workers(2)
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
