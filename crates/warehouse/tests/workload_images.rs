//! Same states, same bytes: the image `save()` writes after each of the
//! benchmark's six workloads is pinned by a golden hash.
//!
//! The workloads are the benchmark's own — its star, views, batch shapes
//! and generator, compiled from `benchmark/src` — at its `--smoke` scale
//! (a tiny star, 5 warm-up + 12 batches), seed 1998. The hashes were
//! re-captured for snapshot version 5 (each shared store written once, no
//! work counters) and have to survive any change that claims not to touch
//! what the engine computes: arithmetic, fold order, snapshot encoding,
//! the key-order kernel behind the image. A change to the snapshot
//! format, to the generator or to a workload re-captures them on purpose.
//! Each image also restores to a warehouse that saves it again byte for
//! byte.
//!
//! Beside each hash sits a *logical* digest of the state the image holds,
//! independent of its layout: it was pinned under snapshot version 4 and
//! has not moved since, so a format change that re-captures the hashes
//! shows it kept the state.

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

use std::fmt::Write as _;

use md_core::derive;
use md_maintain::{StoreRegistry, SummaryEngine};
use md_relation::{sort_by_row, Catalog, Decoder};
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
/// its sequence number, and per summary in name order its rows, its
/// committed LSNs and the rows of every store it reads.
fn logical_digest(catalog: &Catalog, image: &[u8]) -> u64 {
    let mut d = Decoder::new(image);
    d.take_str().unwrap();
    let mut text = String::new();
    for _ in 0..d.take_u32().unwrap() {
        let (table, seq) = (d.take_u32().unwrap(), d.take_u64().unwrap());
        writeln!(text, "seq {table} {seq}").unwrap();
    }
    let mut registry = StoreRegistry::new(catalog);
    for _ in 0..d.take_u32().unwrap() {
        let name = d.take_str().unwrap();
        let view = parse_view(&d.take_str().unwrap(), catalog, &name).unwrap();
        let plan = derive(&view, catalog).unwrap();
        let bytes = d.take_bytes().unwrap();
        let engine = SummaryEngine::restore(plan, catalog, bytes, &mut registry).unwrap();
        let mut rows = engine.summary().to_rows().unwrap();
        sort_by_row(&mut rows, |row| row.values());
        writeln!(text, "{name} {rows:?} {:?}", engine.lsn_vector()).unwrap();
        for (table, id) in engine.store_ids() {
            let stored = registry.store(*id).materialized_rows();
            writeln!(text, "{table:?} {stored:?}").unwrap();
        }
    }
    fnv(text.as_bytes())
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
            13_191,
            6_942_597_064_217_291_661,
            9_735_681_383_226_790_641,
        ),
        (
            "hot_rows",
            13_031,
            4_361_274_698_026_102_816,
            1_339_235_276_700_610_215,
        ),
        (
            "trickle",
            17_314,
            3_977_841_291_700_281_309,
            129_008_034_201_549_236,
        ),
        (
            "paper_mix",
            84_771,
            9_693_953_005_211_988_716,
            14_798_017_553_470_426_558,
        ),
        (
            "dim_storm",
            36_313,
            10_731_272_765_348_113_507,
            10_708_949_830_440_627_076,
        ),
        (
            "wide_catalog",
            160_052,
            2_417_834_228_225_640_019,
            1_391_716_975_338_847_627,
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
