//! Same states, same bytes: the image `save()` writes after each of the
//! benchmark's six workloads is pinned by a golden hash.
//!
//! The workloads are the benchmark's own — its star, views, batch shapes
//! and generator, compiled from `benchmark/src` — at its `--smoke` scale
//! (a tiny star, 5 warm-up + 12 batches), seed 1998. The hashes were
//! re-captured for snapshot version 4 (PR 26: sums held exact) and have
//! to survive any change that claims not to touch what the engine
//! computes: arithmetic, fold order, snapshot encoding, the key-order
//! kernel behind the image. A change to the snapshot format, to the
//! generator or to a workload re-captures them on purpose. Each image
//! also restores to a warehouse that saves it again byte for byte.

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

use md_warehouse::Warehouse;

const SEED: u64 = 1998;

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The image after `workload`'s smoke feed, checked to be one a restore
/// of it saves again unchanged.
fn image_after(workload: &workloads::Workload) -> Vec<u8> {
    let mut gen = gen::Generator::new(workload.star(true), SEED);
    let catalog = gen.db().catalog().clone();
    let mut warehouse = Warehouse::builder()
        .workers(workload.workers.count())
        .build(&catalog);
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
    let restored = Warehouse::restore(&catalog, &image).unwrap();
    assert!(
        restored.save().unwrap() == image,
        "{}: a restore of the image saves other bytes",
        workload.name
    );
    image
}

#[test]
fn images_after_the_six_workloads_are_the_pinned_ones() {
    let golden: [(&str, usize, u64); 6] = [
        ("bulk_feed", 14_295, 2_259_112_539_080_733_616),
        ("hot_rows", 14_135, 1_581_299_699_917_348_488),
        ("trickle", 18_418, 14_245_860_557_289_159_595),
        ("paper_mix", 84_899, 17_190_181_398_488_068_468),
        ("dim_storm", 37_929, 603_115_922_621_672_673),
        ("wide_catalog", 227_534, 826_220_045_293_816_149),
    ];
    let found: Vec<(&str, usize, u64)> = workloads::WORKLOADS
        .iter()
        .map(|w| {
            let image = image_after(w);
            (w.name, image.len(), fnv(&image))
        })
        .collect();
    assert_eq!(
        found, golden,
        "(workload, image bytes, FNV-1a of the image)"
    );
}
