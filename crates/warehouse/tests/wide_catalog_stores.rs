//! One store per definition, on the benchmark's wide catalog: its 24
//! summaries derive 48 auxiliary views between them, of 26 distinct
//! definitions. The warehouse holds each of those once, counts its detail
//! bytes once, folds each distinct root store once per batch, and writes
//! each once in its image.
//!
//! The workload is the benchmark's own, compiled from `benchmark/src` at
//! its `--smoke` scale, seed 1998 (as in `workload_images.rs`).

#[allow(dead_code, clippy::all)]
#[path = "../../../benchmark/src/gen.rs"]
mod gen;
#[allow(dead_code, clippy::all)]
#[path = "../../../benchmark/src/host.rs"]
mod host;
#[allow(dead_code, clippy::all)]
#[path = "../../../benchmark/src/workloads.rs"]
mod workloads;

use std::collections::BTreeMap;

use md_maintain::MaintenanceEngine;
use md_relation::{Decoder, Row};
use md_warehouse::Warehouse;

/// The auxiliary-view sections a [`Warehouse::save`] image holds, over
/// all its summaries.
fn store_sections(image: &[u8]) -> u32 {
    let mut d = Decoder::new(image);
    d.take_str().unwrap();
    for _ in 0..d.take_u32().unwrap() {
        d.take_u32().unwrap();
        d.take_u64().unwrap();
    }
    let mut sections = 0;
    for _ in 0..d.take_u32().unwrap() {
        d.take_str().unwrap();
        d.take_str().unwrap();
        // An engine image: magic, version, plan fingerprint, the LSN
        // vector, then the count of its auxiliary views.
        let mut engine = Decoder::new(d.take_bytes().unwrap());
        for _ in 0..13 {
            engine.take_u8().unwrap();
        }
        for _ in 0..engine.take_u32().unwrap() {
            engine.take_u32().unwrap();
            engine.take_u64().unwrap();
        }
        sections += engine.take_u32().unwrap();
    }
    sections
}

/// Per summary, its auxiliary views' `(table, paper bytes)`, in table
/// order.
fn copies(wh: &Warehouse) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for name in wh.summaries() {
        let plan = wh.plan(name).unwrap();
        let tables = plan.materialized().map(|def| def.table);
        let lines = wh.storage_report(name).unwrap();
        for (table, line) in tables.zip(lines) {
            let table = wh.catalog().def(table).unwrap().name.clone();
            out.push((table, line.paper_bytes));
        }
    }
    out
}

#[test]
fn the_wide_catalog_holds_and_folds_each_distinct_store_once() {
    let workload = workloads::find("wide_catalog").unwrap();
    let mut gen = gen::Generator::new(workload.star(true), 1998);
    let catalog = gen.db().catalog().clone();
    let mut wh = Warehouse::new(&catalog);
    for sql in workload.views {
        wh.add_summary_sql(sql, gen.db()).unwrap();
    }
    let shape = workload.shape(true);
    let mut sale_batches = 0;
    for _ in 0..workloads::WARMUP_BATCHES + workload.batches(1, true) {
        let batch = gen.next_batch(&shape);
        sale_batches += batch.groups().iter().any(|(t, _)| *t == gen.schema().sale) as u64;
        wh.apply_batch(&batch).unwrap();
    }
    assert!(wh.verify_all(gen.db()).unwrap());

    // 48 copies, 26 stores: each shared store stands for its readers.
    let copies = copies(&wh);
    let shared = wh.shared_detail_report();
    let extra = |table: Option<&str>| -> usize {
        let of = |s: &&md_warehouse::SharedDetail| table.map_or(true, |t| s.table == t);
        shared
            .iter()
            .filter(of)
            .map(|s| s.summaries.len() - 1)
            .sum()
    };
    assert_eq!(copies.len(), 48);
    assert_eq!(copies.len() - extra(None), 26);

    // The detail bytes are the distinct stores', each once.
    let held: u64 = copies.iter().map(|(_, b)| b).sum();
    let saved: u64 = shared.iter().map(|s| s.dedup_savings()).sum();
    assert_eq!(wh.total_detail_bytes(), held - saved);

    // A shared store is what each reader would keep alone: every
    // reader's copy, loaded by itself from the sources, has its contents.
    let mut alone: BTreeMap<(&str, String), Vec<Row>> = BTreeMap::new();
    for name in wh.summaries() {
        let plan = wh.plan(name).unwrap().clone();
        let mut engine = MaintenanceEngine::new(plan, &catalog).unwrap();
        engine.initial_load(gen.db()).unwrap();
        for store in engine.aux_stores() {
            let table = catalog.def(store.def().table).unwrap().name.clone();
            alone.insert((name, table), store.materialized_rows());
        }
    }
    for s in &shared {
        let first = &alone[&(s.summaries[0].as_str(), s.table.clone())];
        for reader in &s.summaries[1..] {
            let copy = &alone[&(reader.as_str(), s.table.clone())];
            assert_eq!(copy, first, "{}: {reader}'s copy differs", s.aux_name);
        }
    }
    assert!(
        wh.total_detail_bytes() < held * 13 / 20,
        "35 % less than a copy per summary"
    );

    // 20 summaries keep a root store, 11 distinct ones: a batch of sales
    // folds 11, not 20.
    let roots = copies.iter().filter(|(t, _)| t == "sale").count();
    let distinct_roots = roots - extra(Some("sale"));
    assert_eq!((roots, distinct_roots), (20, 11));
    let folds = wh
        .obs()
        .counter("maintain.store_folds", &[("table", "sale")]);
    assert!(sale_batches > 0);
    assert_eq!(folds.get(), distinct_roots as u64 * sale_batches);

    // The image holds each store once too: a restore decodes 26 store
    // sections, not 48, and saves them back unchanged.
    let image = wh.save().unwrap();
    assert_eq!(store_sections(&image), 26);
    let restored = Warehouse::restore(&catalog, &image).unwrap();
    assert_eq!(restored.total_detail_bytes(), wh.total_detail_bytes());
    assert!(restored.save().unwrap() == image);
}
