//! Property tests over *randomly generated* schemas, contracts, views,
//! data and change streams — the broadest statement of the paper's
//! Theorem 1 guarantees this repository makes:
//!
//! * derivation succeeds on every well-formed GPSJ view;
//! * the view reconstructed from the derived auxiliary views equals the
//!   view evaluated from the sources (when the root view is kept);
//! * after arbitrary contract-respecting change streams, the incrementally
//!   maintained `{V} ∪ X` equals recomputation — across star and
//!   snowflake shapes, all five aggregates, `DISTINCT`, `HAVING`, local
//!   conditions, mixed update contracts and the append-only regime;
//! * and a warehouse recovered from its image right after the load and its
//!   change log is the warehouse that took the stream, byte for byte.

use proptest::prelude::*;

#[path = "../crates/maintain/tests/common/mod.rs"]
mod common;

use common::Solo;
use md_algebra::{CmpOp, ColRef, Condition};
use md_core::derive;
use md_maintain::ReconExecutor;
use md_relation::{Database, TableId};
use md_warehouse::{ChangeBatch, Warehouse};
use md_workload::{random_setup, RandomSetup};

/// A warehouse holding `setup`'s view, loaded from its sources, and its
/// image right after the load.
fn loaded(setup: &RandomSetup) -> (Warehouse, Vec<u8>) {
    let mut wh = Warehouse::new(&setup.catalog);
    wh.add_summary(setup.view.clone(), &setup.db).unwrap();
    let image = wh.save().unwrap();
    (wh, image)
}

/// The warehouse recovered from `image` and `wh`'s change log is `wh`:
/// it saves the same bytes and agrees with the sources.
fn assert_recovers(wh: &Warehouse, image: &[u8], db: &Database, ctx: &str) {
    let log = wh.wal_bytes().unwrap();
    let recovered = Warehouse::builder()
        .recover(wh.catalog(), image, log)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert!(
        recovered.save().unwrap() == wh.save().unwrap(),
        "{ctx}: recovered image differs"
    );
    assert!(recovered.verify_all(db).unwrap(), "{ctx}: recovered");
}

/// Applies `change` to `table` as a batch of its own.
fn apply_one(wh: &mut Warehouse, table: TableId, change: md_relation::Change) {
    wh.apply_batch(&ChangeBatch::single(table, vec![change]))
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn random_views_derive_and_load(seed in 0u64..10_000) {
        let setup = random_setup(seed);
        derive(&setup.view, &setup.catalog).unwrap();
        let (wh, image) = loaded(&setup);
        prop_assert!(wh.verify_all(&setup.db).unwrap(), "seed {seed}");
        assert_recovers(&wh, &image, &setup.db, &format!("seed {seed}"));
    }

    #[test]
    fn random_reconstruction_matches_oracle(seed in 0u64..10_000) {
        let setup = random_setup(seed);
        let plan = derive(&setup.view, &setup.catalog).unwrap();
        prop_assume!(plan.reconstruction.is_some());
        let solo = Solo::loaded(plan, &setup.db);
        let plan = solo.engine.plan();
        let aux: std::collections::BTreeMap<_, _> = plan
            .materialized()
            .map(|d| d.table)
            .map(|t| (t, solo.aux_store(t).unwrap().clone()))
            .collect();
        let recon = ReconExecutor::new(plan, &setup.catalog, &aux).unwrap();
        let from_aux = recon.to_bag().unwrap();
        let from_sources = md_algebra::eval_view(&setup.view, &setup.db).unwrap();
        prop_assert_eq!(from_aux, from_sources, "seed {}", seed);
    }

    #[test]
    fn random_streams_stay_consistent(seed in 0u64..10_000, steps in 10usize..80) {
        let mut setup = random_setup(seed);
        let (mut wh, image) = loaded(&setup);

        for step in 0..steps {
            let table = setup.random_table();
            // Skip tables the view does not reference (a real warehouse
            // would not route their changes to this engine).
            if !setup.view.tables.contains(&table) {
                continue;
            }
            let Some(change) = setup.random_change(table) else { continue };
            apply_one(&mut wh, table, change);
            // Verify periodically (and always at the end) to keep runtime
            // bounded while still localizing divergence.
            if step % 10 == 9 || step + 1 == steps {
                prop_assert!(
                    wh.verify_all(&setup.db).unwrap(),
                    "seed {seed}, diverged by step {step}"
                );
            }
        }
        prop_assert!(wh.verify_all(&setup.db).unwrap(), "seed {seed}");
        assert_recovers(&wh, &image, &setup.db, &format!("seed {seed}"));
    }

    #[test]
    fn dimension_heavy_batches_stay_consistent(seed in 0u64..10_000, batches in 3usize..10) {
        // Six dimension changes around four fact changes per batch, several
        // to a table group, through the whole warehouse path (coalescing,
        // scheduler, log): whatever the random contracts let a dimension
        // do — renames of group-by and aggregate attributes, condition
        // crossings, re-pointed snowflake keys, inserts nothing or
        // something references — must reach `V` as a delta.
        let mut setup = random_setup(seed);
        let dims: Vec<TableId> = setup
            .view
            .tables
            .iter()
            .copied()
            .filter(|t| *t != setup.fact)
            .collect();
        prop_assume!(!dims.is_empty());
        let (mut wh, image) = loaded(&setup);

        for b in 0..batches {
            let mut batch = ChangeBatch::new();
            for table in [dims[b % dims.len()], setup.fact, dims[(b + 1) % dims.len()]] {
                let n = if table == setup.fact { 4 } else { 3 };
                for _ in 0..n {
                    if let Some(change) = setup.random_change(table) {
                        batch.push(table, change);
                    }
                }
            }
            wh.apply_batch(&batch).unwrap();
            prop_assert!(wh.verify_all(&setup.db).unwrap(), "seed {seed}, batch {b}");
            for (name, report) in wh.audit() {
                prop_assert!(
                    report.is_clean(),
                    "seed {seed}, batch {b}, '{name}': {:?}",
                    report.findings
                );
            }
        }
        prop_assert_eq!(wh.stats("fuzz_view").unwrap().summary_rebuilds, 0);
        assert_recovers(&wh, &image, &setup.db, &format!("seed {seed}"));
    }
}

/// The generator never restricts the far end of a snowflake chain, so this
/// does: `cat0.id = 1` on every snowflake universe among the first seeds.
/// `cat0DTL` then reduces `dim0DTL`, which reduces the fact auxiliary view
/// — and the auxiliary-view oracle has to follow the chain the same way.
#[test]
fn snowflake_chains_restricted_at_the_outer_dimension_stay_consistent() {
    let mut universes = 0;
    for seed in 0..160u64 {
        let mut setup = random_setup(seed);
        let Some(outer) = setup.catalog.table_id("cat0") else {
            continue;
        };
        universes += 1;
        let key = ColRef::new(outer, 0);
        setup
            .view
            .conditions
            .push(Condition::cmp_lit(key, CmpOp::Eq, 1i64));
        let (mut wh, image) = loaded(&setup);
        for step in 0..=40 {
            if step % 20 == 0 {
                assert!(
                    wh.verify_all(&setup.db).unwrap(),
                    "seed {seed}, step {step}"
                );
                for (_, audit) in wh.audit() {
                    assert!(audit.is_clean(), "seed {seed}: {:?}", audit.findings);
                }
            }
            let table = setup.random_table();
            if let Some(change) = setup.random_change(table) {
                apply_one(&mut wh, table, change);
            }
        }
        assert_recovers(&wh, &image, &setup.db, &format!("seed {seed}"));
    }
    assert!(universes >= 30, "only {universes} snowflake universes");
}

/// Exhaustive seed sweep — run explicitly with `cargo test -- --ignored`.
#[test]
#[ignore = "long-running deep fuzz; run on demand"]
fn deep_fuzz_two_thousand_universes() {
    for seed in 0..2000u64 {
        let mut setup = random_setup(seed);
        derive(&setup.view, &setup.catalog)
            .unwrap_or_else(|e| panic!("seed {seed}: derive failed: {e}"));
        let (mut wh, image) = loaded(&setup);
        assert!(
            wh.verify_all(&setup.db).unwrap(),
            "seed {seed}: initial load diverged"
        );
        for step in 0..30 {
            let table = setup.random_table();
            if !setup.view.tables.contains(&table) {
                continue;
            }
            let Some(change) = setup.random_change(table) else {
                continue;
            };
            apply_one(&mut wh, table, change);
            let _ = step;
        }
        assert!(
            wh.verify_all(&setup.db).unwrap(),
            "seed {seed}: stream diverged"
        );
        assert_recovers(&wh, &image, &setup.db, &format!("seed {seed}"));
    }
}
