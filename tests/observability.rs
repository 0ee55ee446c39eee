//! End-to-end checks of the observability layer: Chrome traces of a
//! batch contain the pipeline's nested spans, the stats structs
//! agree with the metrics registry they are views over, no counter goes
//! down when a batch is rolled back or kept in an image, and the default
//! (off) mode records nothing beyond the always-live counters.

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
    assert_eq!(sched.batches_applied, 1);
    assert_eq!(
        sched.batches_applied,
        obs.counter("sched.batches_applied", &[]).get()
    );
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
    assert_eq!(
        stats.prepare_nanos,
        obs.counter("maintain.prepare_nanos_total", &labels).get()
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
/// batch of a mixed sale + product sequence, the per-summary sums leave a
/// non-negative remainder of `fanout_nanos` and `commit_nanos`.
#[test]
fn per_summary_time_is_a_part_of_the_scheduler_clock() {
    let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let mut wh = Warehouse::new(db.catalog());
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
        let names: Vec<String> = wh.summaries().map(str::to_owned).collect();
        let stats: Vec<MaintStats> = names.iter().map(|n| wh.stats(n).unwrap()).collect();
        let prepare: u64 = stats.iter().map(|s| s.prepare_nanos).sum();
        let commit: u64 = stats.iter().map(|s| s.commit_nanos).sum();
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
    let runs = wh
        .obs()
        .counter("maintain.runs", &[("summary", "product_sales")]);

    let good = sale_changes(&mut db, &schema, 10, UpdateMix::append_only(), 11);
    wh.apply_batch(&ChangeBatch::single(schema.sale, good))
        .unwrap();
    let before = wh.stats("product_sales").unwrap();
    assert_eq!(before.rows_processed, 10);
    let runs_before = runs.get();

    // The armed fault fires at the commit point of the next batch: the
    // engines prepared (and counted) the work, then rolled the state back
    // — and the counts stay, as its prepare time does.
    let doomed = sale_changes(&mut db, &schema, 5, UpdateMix::append_only(), 12);
    wh.apply_batch(&ChangeBatch::single(schema.sale, doomed))
        .unwrap_err();
    let after = wh.stats("product_sales").unwrap();
    assert_eq!(after.rows_processed, before.rows_processed + 5);
    assert!(runs.get() > runs_before);
    assert!(after.prepare_nanos >= before.prepare_nanos);
    // The failed batch is observable where it should be.
    assert_eq!(wh.dead_letters().len(), 1);
    assert!(wh.metrics_prometheus().contains("deadletter.depth 1"));

    // Counts are not state: a warehouse restored from this one, which has
    // counted nothing, saves the same bytes, before and after one more
    // batch.
    let image = wh.save().unwrap();
    let mut restored = Warehouse::restore(db.catalog(), &image).unwrap();
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
    assert_eq!(wh.scheduler_stats().batches_applied, 1);
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
