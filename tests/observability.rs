//! End-to-end checks of the observability layer: Chrome traces of a
//! batch contain the pipeline's nested spans, the stats structs
//! agree with the metrics registry they are views over, no counter goes
//! down when a batch is rolled back or kept in an image, and the default
//! (off) mode records nothing beyond the always-live counters.

use md_obs::{FieldValue, TraceEvent};
use md_warehouse::{ChangeBatch, FaultPlan, MaintStats, ObsConfig, Warehouse};
use md_workload::{
    generate_retail, product_brand_changes, sale_changes, views, Contracts, RetailParams, UpdateMix,
};

/// A warehouse with full observability over the retail star, three
/// summaries registered, one mixed batch applied.
fn traced_warehouse() -> (md_relation::Database, Warehouse) {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder()
        .observe(ObsConfig::full())
        .build(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 40, UpdateMix::balanced(), 7);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .unwrap();
    (db, wh)
}

#[test]
fn parallel_batch_trace_contains_nested_pipeline_spans() {
    let (db, wh) = traced_warehouse();
    assert!(wh.verify_all(&db).unwrap());

    let events = wh.obs().tracer().events();
    let find = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();

    // Every pipeline stage produced at least one span with real duration.
    for name in [
        "warehouse.apply_batch",
        "batch.coalesce",
        "scheduler.fanout",
        "maintain.prepare",
        "wal.append",
        "warehouse.commit",
        "maintain.commit",
    ] {
        let spans = find(name);
        assert!(!spans.is_empty(), "no '{name}' span recorded");
        assert!(
            spans.iter().any(|e| e.dur_ns > 0),
            "'{name}' spans all have zero duration"
        );
    }
    // One prepare span per affected summary.
    assert_eq!(find("maintain.prepare").len(), 3);

    // Nesting by time containment: the scheduler stages sit inside the
    // batch span on the coordinating thread.
    let outer = find("warehouse.apply_batch")[0];
    for name in ["scheduler.fanout", "wal.append", "warehouse.commit"] {
        let inner = find(name)[0];
        assert_eq!(inner.tid, outer.tid, "'{name}' ran on the batch thread");
        assert!(
            inner.start_ns >= outer.start_ns
                && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
            "'{name}' is not nested inside warehouse.apply_batch"
        );
    }

    // And the export is the Chrome trace-event shape.
    let json = wh.trace_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\": \"X\""));
    assert!(json.contains("\"name\": \"maintain.prepare\""));
}

#[test]
fn saves_reads_and_audits_are_traced() {
    let (_db, wh) = traced_warehouse();
    wh.save().unwrap();
    let names: Vec<String> = wh.summaries().map(str::to_owned).collect();
    for name in &names {
        wh.summary_rows(name).unwrap();
    }
    assert!(wh.audit().iter().all(|(_, report)| report.is_clean()));

    let json = wh.trace_json();
    for name in ["warehouse.save", "warehouse.read", "warehouse.audit"] {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "no '{name}' span in the trace"
        );
    }
    // One read span per summary read, labelled with the summary.
    let events = wh.obs().tracer().events();
    let reads: Vec<_> = events
        .iter()
        .filter(|e| e.name == "warehouse.read")
        .collect();
    assert_eq!(reads.len(), names.len());
    assert!(json.contains("\"summary\": \"daily_product\""));
}

#[test]
fn stats_structs_are_views_over_the_registry() {
    let (_db, wh) = traced_warehouse();

    // SchedulerStats fields equal the sched.* counters they read from.
    let sched = wh.scheduler_stats();
    let obs = wh.obs();
    assert_eq!(obs.counter("sched.batches_applied", &[]).get(), 1);
    assert_eq!(
        sched.changes_submitted,
        obs.counter("sched.changes_submitted", &[]).get()
    );
    assert_eq!(
        sched.fanout_nanos,
        obs.counter("sched.fanout_nanos", &[]).get()
    );

    // MaintStats fields equal the labeled maintain.* counters.
    let stats = wh.stats("product_sales").unwrap();
    let labels = [("summary", "product_sales")];
    assert!(stats.rows_processed > 0);
    assert_eq!(
        stats.rows_processed,
        obs.counter("maintain.rows_processed", &labels).get()
    );

    // The renderers expose the same numbers, and the scrape refreshes
    // the point-in-time gauges.
    let prom = wh.metrics_prometheus();
    assert!(prom.contains("sched.batches_applied 1"));
    assert!(prom.contains("maintain.rows_processed{summary=\"product_sales\"}"));
    assert!(prom.contains("deadletter.depth 0"));
    assert!(prom.contains("aux.rows_after_compression"));
    assert!(prom.contains("wal.append_bytes_count 1"));
    let json = wh.metrics_json();
    assert!(json.contains("\"name\": \"sched.batches_applied\""));
    assert!(json.contains("\"name\": \"wal.append_bytes\""));
}

/// One clock: a batch runs on one thread, so each summary's prepare and
/// commit time is a part of the scheduler's, never more. After every
/// batch of a mixed sale + product sequence, the sums of the per-summary
/// histograms leave a non-negative remainder of `fanout_nanos` and
/// `commit_nanos`.
#[test]
fn per_summary_time_is_a_part_of_the_scheduler_clock() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder()
        .observe(ObsConfig::metrics())
        .build(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    wh.add_summary_sql(views::STORE_REVENUE_SQL, &db).unwrap();
    wh.add_summary_sql(views::BRAND_SALES_SQL, &db).unwrap();
    for seed in 0..8 {
        let mut batch = ChangeBatch::single(
            schema.sale,
            sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 40 + seed),
        );
        if seed % 2 == 1 {
            batch.extend(
                schema.product,
                product_brand_changes(&mut db, &schema, 3, 50 + seed),
            );
        }
        wh.apply_batch(&batch).unwrap();

        let sched = wh.scheduler_stats();
        let time = |metric: &str| -> u64 {
            wh.summaries()
                .map(|n| wh.obs().histogram(metric, &[("summary", n)]).snapshot().sum)
                .sum()
        };
        let prepare = time("maintain.prepare_nanos");
        let commit = time("maintain.commit_nanos");
        assert!(prepare > 0 && commit > 0, "batch {seed}");
        assert!(
            prepare <= sched.fanout_nanos,
            "batch {seed}: summaries prepared {prepare} ns of a {} ns pass",
            sched.fanout_nanos
        );
        assert!(
            commit <= sched.commit_nanos,
            "batch {seed}: summaries committed {commit} ns of a {} ns commit",
            sched.commit_nanos
        );
    }
    assert!(wh.verify_all(&db).unwrap());
}

#[test]
fn a_rejected_batch_never_lowers_a_counter() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut faults = FaultPlan::recording();
    faults.arm("warehouse.apply.commit", 1);
    let mut wh = Warehouse::builder()
        .fault_plan(faults)
        .observe(ObsConfig::metrics())
        .build(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let labels = [("summary", "product_sales")];
    let runs = wh.obs().counter("maintain.runs", &labels);
    let prepare = wh.obs().histogram("maintain.prepare_nanos", &labels);

    let good = sale_changes(&mut db, &schema, 10, UpdateMix::append_only(), 11);
    wh.apply_batch(&ChangeBatch::single(schema.sale, good))
        .unwrap();
    let before = wh.stats("product_sales").unwrap();
    assert_eq!(before.rows_processed, 10);
    let runs_before = runs.get();
    let prepare_before = prepare.snapshot();

    // The armed fault fires at the commit point of the next batch: the
    // engines prepared (and counted) the work, then rolled the state back
    // — and the counts stay, as its prepare time does.
    let doomed = sale_changes(&mut db, &schema, 5, UpdateMix::append_only(), 12);
    wh.apply_batch(&ChangeBatch::single(schema.sale, doomed))
        .unwrap_err();
    let after = wh.stats("product_sales").unwrap();
    assert_eq!(after.rows_processed, before.rows_processed + 5);
    assert!(runs.get() > runs_before);
    let prepare_after = prepare.snapshot();
    assert!(prepare_after.count > prepare_before.count);
    assert!(prepare_after.sum >= prepare_before.sum);
    // The failed batch is observable where it should be.
    assert_eq!(wh.dead_letters().len(), 1);
    assert!(wh.metrics_prometheus().contains("deadletter.depth 1"));

    // Counts are not state: a warehouse restored from this one, which has
    // counted nothing, saves the same bytes, before and after one more
    // batch.
    let image = wh.save().unwrap();
    let mut restored = Warehouse::builder().restore(db.catalog(), &image).unwrap();
    assert_eq!(restored.save().unwrap(), image);
    let next = ChangeBatch::single(
        schema.sale,
        sale_changes(&mut db, &schema, 5, UpdateMix::balanced(), 13),
    );
    wh.apply_batch(&next).unwrap();
    restored.apply_batch(&next).unwrap();
    assert_eq!(restored.save().unwrap(), wh.save().unwrap());
    let (live, fresh) = (wh.stats("product_sales"), restored.stats("product_sales"));
    assert!(live.unwrap().rows_processed > fresh.unwrap().rows_processed);
}

#[test]
fn off_mode_records_no_spans_or_histograms_but_counts() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog()); // ObsConfig::off()
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 15, UpdateMix::balanced(), 13);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .unwrap();

    // Counters (the stats backbone) are live…
    assert!(wh.stats("product_sales").unwrap().rows_processed > 0);
    assert_eq!(wh.obs().counter("sched.batches_applied", &[]).get(), 1);
    wh.save().unwrap();
    wh.summary_rows("product_sales").unwrap();
    wh.audit();
    // …but nothing was traced — not the batch, the save, the read or the
    // audit — and no histogram recorded.
    assert!(wh.obs().tracer().is_empty());
    assert_eq!(
        wh.obs().histogram("wal.append_bytes", &[]).snapshot().count,
        0
    );
    // Tracing can still be flipped on at runtime.
    wh.set_tracing(true);
    let more = sale_changes(&mut db, &schema, 1, UpdateMix::append_only(), 14);
    wh.apply_batch(&ChangeBatch::single(schema.sale, more))
        .unwrap();
    assert!(!wh.obs().tracer().is_empty());
    assert!(wh.trace_json().contains("warehouse.apply_batch"));
}

/// Observability is read-only: the same batches under the off, metrics
/// and full tiers verify against the sources and leave byte-identical
/// images and change logs.
#[test]
fn observability_tier_never_changes_the_maintained_state() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut warehouses: Vec<Warehouse> =
        [ObsConfig::off(), ObsConfig::metrics(), ObsConfig::full()]
            .into_iter()
            .map(|tier| {
                let mut wh = Warehouse::builder().observe(tier).build(db.catalog());
                wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
                wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
                wh
            })
            .collect();
    for seed in [21, 22] {
        let changes = sale_changes(&mut db, &schema, 30, UpdateMix::balanced(), seed);
        let batch = ChangeBatch::single(schema.sale, changes);
        for wh in &mut warehouses {
            wh.apply_batch(&batch).unwrap();
        }
    }
    let off_image = warehouses[0].save().unwrap();
    for wh in &warehouses {
        assert!(wh.verify_all(&db).unwrap());
        assert_eq!(wh.save().unwrap(), off_image);
        assert_eq!(wh.wal_bytes(), warehouses[0].wal_bytes());
    }
}

#[test]
fn a_restored_warehouse_counts_from_zero_under_its_labels() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::builder()
        .observe(ObsConfig::metrics())
        .build(db.catalog());
    wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
    let changes = sale_changes(&mut db, &schema, 20, UpdateMix::balanced(), 15);
    wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
        .unwrap();
    assert!(wh.stats("product_sales").unwrap().rows_processed > 0);

    let image = wh.save().unwrap();
    let mut restored = Warehouse::builder()
        .observe(ObsConfig::metrics())
        .restore(db.catalog(), &image)
        .unwrap();
    assert_eq!(
        restored.stats("product_sales").unwrap(),
        MaintStats::default()
    );
    // The restored engine was adopted into the fresh registry: the
    // counters are scrapeable under its summary label, and count what
    // this process does.
    let more = sale_changes(&mut db, &schema, 4, UpdateMix::append_only(), 16);
    restored
        .apply_batch(&ChangeBatch::single(schema.sale, more))
        .unwrap();
    assert_eq!(restored.stats("product_sales").unwrap().rows_processed, 4);
    assert!(restored
        .metrics_prometheus()
        .contains("maintain.rows_processed{summary=\"product_sales\"} 4"));
}

/// Set-up is traced by its loads: each `add_summary` is a
/// `warehouse.add_summary` span, and each store it fills — and, for a
/// summary without a root store, its own load — is a `maintain.load` span
/// inside it, carrying the table read, its rows, the windows they were
/// read in (4 096 rows each) and the groups the load left.
#[test]
fn each_load_of_a_new_summary_is_a_span_inside_it() {
    let (db, _) = generate_retail(RetailParams::small(), Contracts::Tight);
    let mut wh = Warehouse::builder()
        .observe(ObsConfig::full())
        .build(db.catalog());
    for sql in [
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
    ] {
        wh.add_summary_sql(sql, &db).unwrap();
    }
    let events = wh.obs().tracer().events();
    let field = |e: &TraceEvent, key: &str| {
        let (_, value) = e.fields.iter().find(|(k, _)| *k == key).unwrap();
        value.clone()
    };
    let count = |e: &TraceEvent, key: &str| match field(e, key) {
        FieldValue::U64(n) => n,
        other => panic!("{key} = {other:?}"),
    };
    let named =
        |name: &str| -> Vec<&TraceEvent> { events.iter().filter(|e| e.name == name).collect() };
    let loads = named("maintain.load");
    let mut seen = Vec::new();
    for add in named("warehouse.add_summary") {
        let FieldValue::Str(summary) = field(add, "summary") else {
            panic!("add_summary without its summary");
        };
        let end = add.start_ns + add.dur_ns;
        let inside = loads.iter().filter(|load| {
            load.tid == add.tid
                && load.start_ns >= add.start_ns
                && load.start_ns + load.dur_ns <= end
        });
        for load in inside {
            let FieldValue::Str(table) = field(load, "table") else {
                panic!("a load without its table");
            };
            let rows = count(load, "rows");
            let len = db.table(db.catalog().table_id(&table).unwrap()).len();
            assert_eq!(rows, len as u64, "{summary}: {table}");
            assert_eq!(
                count(load, "windows"),
                rows.div_ceil(4096),
                "{summary}: {table}"
            );
            let groups = count(load, "groups");
            assert!(
                (1..=rows).contains(&groups),
                "{summary}: {table} left {groups}"
            );
            seen.push((summary.clone(), table, groups));
        }
    }
    assert_eq!(seen.len(), loads.len(), "a load outside every add_summary");
    // Each summary fills the stores no summary before it holds, children
    // first; `daily_product` keeps no `X_sale` and loads `sale` itself.
    let expected = [
        ("product_sales", "time", 20),
        ("product_sales", "product", 100),
        ("product_sales", "sale", 1_447),
        ("product_sales_max", "sale", 16_464),
        ("store_revenue", "store", 5),
        ("store_revenue", "sale", 5),
        ("daily_product", "time", 30),
        ("daily_product", "product", 100),
        ("daily_product", "sale", 2_170),
    ];
    let expected =
        expected.map(|(summary, table, groups)| (summary.to_owned(), table.to_owned(), groups));
    assert_eq!(seen, expected);
}

/// `product_sales` without its `COUNT(DISTINCT brand)`: with
/// `store_revenue` and `daily_product`, the views of the CSMAS workloads.
const PRODUCT_SALES_CSMAS_SQL: &str = "\
CREATE VIEW product_sales_csmas AS
SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.month";

/// The run grouping is one phase per table group: a `maintain.grouping`
/// span inside `scheduler.fanout` hashes each occurrence of the group once
/// for every store of the table and every summary without a root store
/// rooted there — a `sale` group of the paper's four views is 4 consumers
/// on 3 keys, of the CSMAS views 3 on 2, and a `product` group 2 stores on
/// 2 keys and 1 on 1 — and `maintain.grouping_nanos{table}` records one
/// time per group. Every store of a table folds each group of it, a
/// dimension store too (`maintain.store_folds{table}`).
#[test]
fn each_table_group_is_grouped_once_inside_the_fanout() {
    let paper: &[&str] = &[
        views::PRODUCT_SALES_SQL,
        views::PRODUCT_SALES_MAX_SQL,
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
    ];
    let csmas: &[&str] = &[
        views::STORE_REVENUE_SQL,
        views::DAILY_PRODUCT_SQL,
        PRODUCT_SALES_CSMAS_SQL,
    ];
    // Per view set, per table group in batch order: the table, its
    // consumers, their distinct keys and the stores among them.
    let paper_groups = [("sale", 4, 3, 3), ("product", 2, 2, 2)];
    let csmas_groups = [("sale", 3, 2, 2), ("product", 1, 1, 1)];
    for (views, groups) in [(paper, paper_groups), (csmas, csmas_groups)] {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::builder()
            .observe(ObsConfig::full())
            .build(db.catalog());
        for sql in views {
            wh.add_summary_sql(sql, &db).unwrap();
        }
        let (batches, mut sides) = (3, [0; 2]);
        for seed in 0..batches {
            let mut batch = ChangeBatch::single(
                schema.sale,
                sale_changes(&mut db, &schema, 30, UpdateMix::balanced(), 90 + seed),
            );
            batch.extend(
                schema.product,
                product_brand_changes(&mut db, &schema, 2, 70 + seed),
            );
            let side = |c: &md_relation::Change| {
                let (old, new) = c.as_delete_insert();
                u64::from(old.is_some()) + u64::from(new.is_some())
            };
            let coalesced = batch.coalesced();
            for (sides, (_, changes)) in sides.iter_mut().zip(coalesced.groups()) {
                *sides += changes.iter().map(side).sum::<u64>();
            }
            wh.apply_batch(&batch).unwrap();
        }
        assert!(wh.verify_all(&db).unwrap());

        let events = wh.obs().tracer().events();
        let named =
            |name: &str| -> Vec<&TraceEvent> { events.iter().filter(|e| e.name == name).collect() };
        let field = |e: &TraceEvent, key: &str| {
            let (_, value) = e.fields.iter().find(|(k, _)| *k == key).unwrap();
            value.clone()
        };
        let count = |e: &TraceEvent, key: &str| match field(e, key) {
            FieldValue::U64(n) => n,
            other => panic!("{key} = {other:?}"),
        };
        let groupings = named("maintain.grouping");
        let fanouts = named("scheduler.fanout");
        assert_eq!(
            (groupings.len(), fanouts.len()),
            (2 * batches as usize, batches as usize)
        );
        let mut hashed = [0; 2];
        for (at, grouping) in groupings.iter().enumerate() {
            let fanout = fanouts[at / 2];
            let (table, consumers, keys, _) = groups[at % 2];
            assert_eq!(grouping.tid, fanout.tid);
            assert!(grouping.start_ns >= fanout.start_ns);
            assert!(grouping.start_ns + grouping.dur_ns <= fanout.start_ns + fanout.dur_ns);
            assert_eq!(field(grouping, "table"), FieldValue::Str(table.into()));
            assert_eq!(count(grouping, "consumers"), consumers, "{table}");
            assert_eq!(count(grouping, "keys"), keys, "{table}");
            let occurrences = count(grouping, "occurrences");
            assert!((1..=occurrences).contains(&count(grouping, "fine_runs")));
            hashed[at % 2] += occurrences;
        }
        // Every side of every coalesced change, hashed once.
        assert_eq!(hashed, sides);
        for (table, _, _, stores) in groups {
            let nanos = wh
                .obs()
                .histogram("maintain.grouping_nanos", &[("table", table)]);
            let nanos = nanos.snapshot();
            assert_eq!(nanos.count, batches);
            assert!(nanos.sum > 0);
            // Every store of the table folds each group once.
            let folds = wh
                .obs()
                .counter("maintain.store_folds", &[("table", table)]);
            assert_eq!(folds.get(), stores * batches, "{table}");
        }
    }
}
