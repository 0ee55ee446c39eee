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

use md_core::derive;
use md_maintain::ExactSum;
use md_relation::{Catalog, Decoder, TableId};
use md_sql::parse_view;
use md_warehouse::Warehouse;

/// The auxiliary-view sections a [`Warehouse::save`] image over `catalog`
/// holds, over all its summaries, in image order: each one's table and
/// bytes, its LSN included.
fn store_sections(catalog: &Catalog, image: &[u8]) -> Vec<(TableId, Vec<u8>)> {
    let mut d = Decoder::new(image);
    d.take_str().unwrap();
    for _ in 0..d.take_u32().unwrap() {
        d.take_u32().unwrap();
        d.take_u64().unwrap();
    }
    let mut sections = Vec::new();
    for _ in 0..d.take_u32().unwrap() {
        let name = d.take_str().unwrap();
        let view = parse_view(&d.take_str().unwrap(), catalog, &name).unwrap();
        // An engine image: magic, version, plan fingerprint, the root's
        // LSN if the plan omits its root store, then its auxiliary views,
        // each a table, its LSN and its groups.
        let bytes = d.take_bytes().unwrap();
        let mut engine = Decoder::new(bytes);
        for _ in 0..13 {
            engine.take_u8().unwrap();
        }
        if derive(&view, catalog).unwrap().root_omitted() {
            engine.take_u64().unwrap();
        }
        for _ in 0..engine.take_u32().unwrap() {
            let table = TableId(engine.take_u32().unwrap() as usize);
            let start = bytes.len() - engine.remaining();
            engine.take_u64().unwrap();
            for _ in 0..engine.take_u32().unwrap() {
                engine.take_row().unwrap();
                for _ in 0..engine.take_u32().unwrap() {
                    ExactSum::decode(&mut engine).unwrap();
                }
                engine.take_u64().unwrap();
            }
            let end = bytes.len() - engine.remaining();
            sections.push((table, bytes[start..end].to_vec()));
        }
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
        let of = |s: &&md_warehouse::SharedDetail| table.is_none_or(|t| s.table == t);
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
    // reader's copy, loaded by itself from the sources into a warehouse of
    // its own, saves to the same bytes.
    let mut alone: BTreeMap<(&str, String), Vec<u8>> = BTreeMap::new();
    for name in wh.summaries() {
        let mut one = Warehouse::new(&catalog);
        let view = wh.plan(name).unwrap().view.clone();
        one.add_summary(view, gen.db()).unwrap();
        for (table, section) in store_sections(&catalog, &one.save().unwrap()) {
            let table = catalog.def(table).unwrap().name.clone();
            alone.insert((name, table), section);
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
    assert_eq!(store_sections(&catalog, &image).len(), 26);
    let restored = Warehouse::builder().restore(&catalog, &image).unwrap();
    assert_eq!(restored.total_detail_bytes(), wh.total_detail_bytes());
    assert!(restored.save().unwrap() == image);
}
