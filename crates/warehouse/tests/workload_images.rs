//! Same states, same bytes: the image `save()` writes after each of the
//! benchmark's six workloads is pinned by a golden hash.
//!
//! The workloads are the benchmark's own — its star, views, batch shapes
//! and generator, compiled from `benchmark/src` — at its `--smoke` scale
//! (a tiny star, 5 warm-up + 12 batches), seed 1998. The lengths and
//! hashes were re-captured for snapshot version 8 (group keys and counted
//! values in the change log's spelling of rows and values) and have to
//! survive any change that claims not to touch what the engine computes:
//! arithmetic, fold order, snapshot encoding, the key-order kernel behind
//! the image. A change to the snapshot format, to the generator or to a
//! workload re-captures them on purpose.
//! Each image also restores to a warehouse that saves it again byte for
//! byte.
//!
//! Beside each hash sits a *logical* digest of the state the image holds,
//! independent of its layout. It hashes fixed-width bytes of its own
//! (`put_fixed_row`), not `Debug` text, and was re-pinned once when it
//! moved to them (the state it covers had not moved since snapshot version
//! 4); it does not move with the codec's spelling of a row, so a format
//! change that re-captures the hashes shows it kept the state.

// The benchmark's sources are not ours to tidy, and this test calls a
// fraction of them.
#[allow(dead_code, clippy::all)]
#[path = "../../../benchmark/src/gen.rs"]
mod gen;
#[allow(dead_code, clippy::all)]
#[path = "../../../benchmark/src/host.rs"]
mod host;
#[allow(dead_code, clippy::all)]
#[path = "../../../benchmark/src/workloads.rs"]
mod workloads;

use md_core::derive;
use md_maintain::{StoreRegistry, SummaryEngine};
use md_relation::{sort_by_row, Catalog, Decoder, Encoder, Row, Value};
use md_sql::parse_view;
use md_warehouse::Warehouse;

const SEED: u64 = 1998;

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A digest of the state `image` holds, whatever its layout: per table
/// its sequence number, and per summary in name order its name, its rows
/// in key order, its non-zero committed LSNs in table order and, per store
/// it reads, the store's table and rows — each written as fixed-width
/// bytes, so no `Debug` text or toolchain detail is in it.
fn logical_digest(catalog: &Catalog, image: &[u8]) -> u64 {
    let mut d = Decoder::new(image);
    d.take_str().unwrap();
    let mut out = Encoder::new();
    let tables = d.take_u32().unwrap();
    out.put_u32(tables);
    for _ in 0..tables {
        out.put_u32(d.take_u32().unwrap());
        out.put_u64(d.take_u64().unwrap());
    }
    let rows = |out: &mut Encoder, rows: &[Row]| {
        out.put_u32(rows.len() as u32);
        for row in rows {
            put_fixed_row(out, row.values());
        }
    };
    let mut registry = StoreRegistry::new(catalog);
    for _ in 0..d.take_u32().unwrap() {
        let name = d.take_str().unwrap();
        let view = parse_view(&d.take_str().unwrap(), catalog, &name).unwrap();
        let plan = derive(&view, catalog).unwrap();
        let plan_tables = plan.view.tables.clone();
        let bytes = d.take_bytes().unwrap();
        let engine = SummaryEngine::restore(plan, catalog, bytes, &mut registry).unwrap();
        out.put_str(&name);
        let mut summary = engine.summary().to_rows();
        sort_by_row(&mut summary, |row| row.values());
        rows(&mut out, &summary);
        // The bytes the LSN vector of snapshot versions 2–6 held: the
        // non-zero committed LSNs, in table order.
        let mut tables = plan_tables.clone();
        tables.sort_unstable();
        let lsns: Vec<_> = (tables.into_iter())
            .map(|t| (t, engine.applied_lsn(t, &registry)))
            .filter(|&(_, lsn)| lsn != 0)
            .collect();
        out.put_u32(lsns.len() as u32);
        for (table, lsn) in lsns {
            out.put_u32(table.0 as u32);
            out.put_u64(lsn);
        }
        for (table, id) in engine.store_ids() {
            out.put_u32(table.0 as u32);
            rows(&mut out, &registry.store(*id).materialized_rows());
        }
    }
    fnv(&out.into_bytes())
}

/// `values` as the digest has always spelled a row, whatever spelling the
/// codec writes: a `u32` arity, then per value its tag and an `i64` or
/// `f64` little-endian, a `u32`-length string or a bool byte.
fn put_fixed_row(out: &mut Encoder, values: &[Value]) {
    out.put_u32(values.len() as u32);
    for value in values {
        match value {
            Value::Int(i) => {
                out.put_u8(0);
                out.put_raw(&i.to_le_bytes());
            }
            Value::Double(d) => {
                out.put_u8(1);
                out.put_u64(d.to_bits());
            }
            Value::Str(s) => {
                out.put_u8(2);
                out.put_str(s);
            }
            Value::Bool(b) => {
                out.put_u8(3);
                out.put_u8(u8::from(*b));
            }
        }
    }
}

/// The catalog and the image after `workload`'s smoke feed, checked to be
/// one a restore of it saves again unchanged.
fn image_after(workload: &workloads::Workload) -> (Catalog, Vec<u8>) {
    let mut gen = gen::Generator::new(workload.star(true), SEED);
    let catalog = gen.db().catalog().clone();
    let mut warehouse = Warehouse::new(&catalog);
    for sql in workload.views {
        warehouse.add_summary_sql(sql, gen.db()).unwrap();
    }
    let shape = workload.shape(true);
    for _ in 0..workloads::WARMUP_BATCHES + workload.batches(1, true) {
        warehouse.apply_batch(&gen.next_batch(&shape)).unwrap();
    }
    assert!(warehouse.dead_letters().is_empty());
    assert!(warehouse.verify_all(gen.db()).unwrap());
    let image = warehouse.save().unwrap();
    let restored = Warehouse::builder().restore(&catalog, &image).unwrap();
    assert!(
        restored.save().unwrap() == image,
        "{}: a restore of the image saves other bytes",
        workload.name
    );
    (catalog, image)
}

#[test]
fn images_after_the_six_workloads_are_the_pinned_ones() {
    let golden: [(&str, usize, u64, u64); 6] = [
        (
            "bulk_feed",
            7_988,
            16_226_664_899_999_625_107,
            739_126_931_329_615_905,
        ),
        (
            "hot_rows",
            7_896,
            5_433_506_811_115_804_668,
            9_021_012_749_898_423_003,
        ),
        (
            "trickle",
            10_292,
            10_692_877_050_115_169_635,
            7_980_570_722_772_143_676,
        ),
        (
            "paper_mix",
            62_828,
            2_973_776_974_984_363_074,
            1_735_510_254_675_668_505,
        ),
        (
            "dim_storm",
            21_717,
            18_434_022_170_722_636_956,
            8_213_290_444_949_700_071,
        ),
        (
            "wide_catalog",
            123_291,
            17_053_202_948_736_622_201,
            18_403_985_224_641_545_060,
        ),
    ];
    let found: Vec<(&str, usize, u64, u64)> = workloads::WORKLOADS
        .iter()
        .map(|w| {
            let (catalog, image) = image_after(w);
            let digest = logical_digest(&catalog, &image);
            (w.name, image.len(), fnv(&image), digest)
        })
        .collect();
    assert_eq!(
        found, golden,
        "(workload, image bytes, FNV-1a of the image, logical digest)"
    );
}
