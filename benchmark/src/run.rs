//! One run of one workload: generate, set up, feed, check.
//!
//! Closed loop, one client thread: the next batch is built (untimed) only
//! after the previous `apply_batch` returned, and only the `apply_batch`
//! call itself is inside the batch timer. The warehouse runs with its
//! defaults (WAL on, coalescing on, vectorized on, observability off).
//!
//! The feed is the same code in both modes. Untraced, it is followed by
//! the correctness gate and the end-to-end metrics. Traced, it is followed
//! by a replay of the same inputs through the layer driver (`layers.rs`),
//! and the run reports the per-layer metrics instead.

use std::fmt::Write as _;
use std::time::Instant;

use md_relation::Catalog;
use md_warehouse::{SchedulerStats, Warehouse};

use crate::gen::Generator;
use crate::hostspeed::{at_nominal_speed, HostSpeed};
use crate::layers::{self, LayerReport, WarehouseSide};
use crate::stats::{median, percentile};
use crate::workloads::{Workload, WARMUP_BATCHES};
use crate::{host, json};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Seconds-scale run on a tiny star: shape and correctness only.
    pub smoke: bool,
}

impl RunArgs {
    /// Repetitions of a measurement whose median is reported. The traced
    /// and the smoke run measure no spread: one repetition each.
    fn reps(&self, n: usize) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            n
        }
    }

    pub fn batches(&self) -> usize {
        self.workload.batches(self.seconds, self.smoke)
    }

    /// The warehouse saves its checkpoint after this many timed batches:
    /// recovery restores it, skips ⅞ of the log and replays the last ⅛.
    pub fn checkpoint_after(&self) -> usize {
        self.batches() * 7 / 8
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value, for the mode the run was in.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample count behind each sampled metric.
    pub samples: Vec<(&'static str, usize)>,
    /// Lines for the operator: input digest, exact counts, findings.
    pub notes: Vec<String>,
    /// Raw wall time of every timed `apply_batch`, in feed order.
    pub batch_ms: Vec<f64>,
    pub layers: Option<LayerReport>,
}

/// Attempted and failed operations, and why the failed ones did.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    findings: Vec<String>,
}

impl Ops {
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.findings.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// One check of the correctness gate; counts like an operation.
    fn gate(&mut self, what: &str, holds: bool) {
        self.op(
            what,
            if holds {
                Ok(())
            } else {
                Err("it does not hold")
            },
        );
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e6
}

/// Kernel samples taken right before and right after a one-off measurement.
const PROBE_SAMPLES: usize = 15;

/// Kernel samples on either side of a batch whose median is the host
/// speed that batch ran at (about a quarter of a second of feed each way).
const SMOOTHING: usize = 32;

/// Runs `f`; its wall time in milliseconds, scaled to the nominal host
/// speed by probing the reference kernel right before and after it.
fn timed<T>(host: &mut HostSpeed, f: impl FnOnce() -> T) -> (T, f64) {
    let before = host.probe(PROBE_SAMPLES);
    let started = Instant::now();
    let value = f();
    let raw_ms = ms_since(started);
    let after = host.probe(PROBE_SAMPLES);
    (value, at_nominal_speed(raw_ms, (before + after) / 2.0))
}

fn sched_attributed_ms(s: &SchedulerStats) -> f64 {
    (s.coalesce_nanos + s.fanout_nanos + s.wal_nanos + s.commit_nanos) as f64 / 1e6
}

/// Times every summary read once: one sample of `read_ms`.
fn read_sweep(warehouse: &Warehouse, ops: &mut Ops) -> f64 {
    let names: Vec<String> = warehouse.summaries().map(str::to_owned).collect();
    let started = Instant::now();
    for name in &names {
        let rows = warehouse.summary_rows(name).map(std::hint::black_box);
        ops.op("summary_rows", rows);
    }
    ms_since(started)
}

/// Everything the feed leaves behind.
struct Feed {
    gen: Generator,
    catalog: Catalog,
    warehouse: Warehouse,
    workers: usize,
    host: HostSpeed,
    /// Median reference-kernel time over the feed, in nanoseconds.
    kernel_ns: f64,
    /// Raw wall time of every timed `apply_batch`, in feed order.
    batch_raw_ms: Vec<f64>,
    // Everything below is scaled to the nominal host speed.
    setup_s: Vec<f64>,
    batch_ms: Vec<f64>,
    read_ms: Vec<f64>,
    save_ms: Vec<f64>,
    /// The image saved after `checkpoint_after` batches.
    checkpoint: Vec<u8>,
    /// Changes submitted in the timed batches, and what was left of them
    /// after coalescing.
    changes_in: u64,
    changes_out: u64,
    /// The scheduler's own stage timers, over the timed batches.
    sched_attributed_ms: f64,
    /// WAL bytes the timed batches appended.
    wal_bytes: usize,
    /// `VmHWM` when the last batch returned: the peak of set-up and feed,
    /// before recovery builds a second warehouse beside the first.
    peak_rss_mb: f64,
}

fn feed(args: &RunArgs, ops: &mut Ops) -> Result<Feed, String> {
    let workload = args.workload;
    let workers = workload.workers.count();
    let mut gen = Generator::new(workload.star(args.smoke), args.seed);
    let catalog = gen.db().catalog().clone();
    let mut host = HostSpeed::new();

    // Set-up: build the warehouse and register every summary (parse,
    // derive, initial load). Repeated, because the median is reported.
    let mut setup_s = Vec::new();
    let mut warehouse = None;
    for _ in 0..args.reps(5) {
        drop(warehouse.take());
        let (built, ms) = timed(&mut host, || {
            let mut built = Warehouse::builder().workers(workers).build(&catalog);
            for sql in workload.views {
                built.add_summary_sql(sql, gen.db())?;
            }
            Ok::<_, md_warehouse::WarehouseError>(built)
        });
        setup_s.push(ms / 1e3);
        warehouse = Some(built.map_err(|e| e.to_string())?);
    }
    let mut warehouse = warehouse.expect("at least one set-up");

    let shape = workload.shape(args.smoke);
    for _ in 0..WARMUP_BATCHES {
        let batch = gen.next_batch(&shape);
        ops.op("warm-up apply_batch", warehouse.apply_batch(&batch));
    }

    let sched_before = warehouse.scheduler_stats();
    let wal_before = warehouse.wal_bytes().map_or(0, <[u8]>::len);
    let batches = args.batches();
    let read_every = workload.read_every(batches);
    let kernel_every = workload.kernel_every();
    let mut kernel_samples = Vec::with_capacity(batches / kernel_every + 1);
    let mut batch_raw_ms = Vec::with_capacity(batches);
    let mut reads = Vec::new();
    let mut save_ms = Vec::new();
    let mut checkpoint = Vec::new();
    for b in 0..batches {
        let batch = gen.next_batch(&shape);
        if b % kernel_every == 0 {
            kernel_samples.push(host.sample());
        }
        let started = Instant::now();
        let applied = warehouse.apply_batch(&batch);
        batch_raw_ms.push(ms_since(started));
        ops.op("apply_batch", applied);
        if (b + 1) % read_every == 0 {
            reads.push((b, read_sweep(&warehouse, ops)));
        }
        if b + 1 == args.checkpoint_after() {
            for _ in 0..args.reps(15) {
                let (image, ms) = timed(&mut host, || warehouse.save());
                save_ms.push(ms);
                checkpoint = ops.op("save", image).unwrap_or_default();
            }
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let sched = warehouse.scheduler_stats();

    // The host speed each batch ran at: the median kernel sample of its
    // neighbourhood, so that one odd sample does not rescale one batch.
    let smoothed: Vec<f64> = (0..kernel_samples.len())
        .map(|j| {
            let window = j.saturating_sub(SMOOTHING)..(j + SMOOTHING + 1).min(kernel_samples.len());
            median(&kernel_samples[window])
        })
        .collect();
    let at_batch = |b: usize, raw_ms: f64| at_nominal_speed(raw_ms, smoothed[b / kernel_every]);
    let batch_ms = batch_raw_ms
        .iter()
        .enumerate()
        .map(|(b, raw)| at_batch(b, *raw))
        .collect();
    let read_ms = reads.iter().map(|(b, raw)| at_batch(*b, *raw)).collect();
    Ok(Feed {
        workers,
        host,
        kernel_ns: median(&kernel_samples),
        batch_raw_ms,
        setup_s,
        batch_ms,
        read_ms,
        save_ms,
        checkpoint,
        changes_in: sched.changes_submitted - sched_before.changes_submitted,
        changes_out: sched.changes_applied - sched_before.changes_applied,
        sched_attributed_ms: sched_attributed_ms(&sched) - sched_attributed_ms(&sched_before),
        wal_bytes: warehouse.wal_bytes().map_or(0, <[u8]>::len) - wal_before,
        peak_rss_mb,
        gen,
        catalog,
        warehouse,
    })
}

/// The correctness gate of the untraced run, and the end-to-end metrics
/// measured on the way through it.
fn end_to_end(args: &RunArgs, feed: &mut Feed, ops: &mut Ops) -> Vec<(&'static str, f64)> {
    let warehouse = &feed.warehouse;
    let wal = warehouse.wal_bytes().unwrap_or_default();
    let live_image = ops.op("save", warehouse.save()).unwrap_or_default();

    let mut recover_ms = Vec::new();
    for _ in 0..args.reps(7) {
        let (recovered, ms) = timed(&mut feed.host, || {
            Warehouse::builder()
                .workers(feed.workers)
                .recover(&feed.catalog, &feed.checkpoint, wal)
        });
        recover_ms.push(ms);
        if let Some(recovered) = ops.op("recover", recovered) {
            ops.gate(
                "recovered image is byte-identical to the live one",
                recovered.dead_letters().is_empty()
                    && recovered.save().is_ok_and(|image| image == live_image),
            );
        }
    }

    let mut audit_ms = Vec::new();
    for _ in 0..args.reps(15) {
        let (reports, ms) = timed(&mut feed.host, || warehouse.audit());
        audit_ms.push(ms);
        for (name, report) in reports.iter().filter(|(_, r)| !r.is_clean()) {
            ops.findings
                .push(format!("audit of '{name}': {}", report.findings.join("; ")));
        }
        ops.gate("audit is clean", reports.iter().all(|(_, r)| r.is_clean()));
    }

    let verified = ops.op("verify_all", warehouse.verify_all(feed.gen.db()));
    ops.gate(
        "summaries equal a recomputation from the sources",
        verified == Some(true),
    );
    ops.gate("no dead letters", warehouse.dead_letters().is_empty());

    let source_bytes: u64 = feed
        .catalog
        .table_ids()
        .map(|t| feed.gen.db().table(t).paper_bytes())
        .sum();
    let batch_wall_s = feed.batch_ms.iter().sum::<f64>() / 1e3;
    [
        ("setup_s", median(&feed.setup_s)),
        ("changes_per_s", feed.changes_in as f64 / batch_wall_s),
        ("batch_ms_p50", median(&feed.batch_ms)),
        ("read_ms_p50", median(&feed.read_ms)),
        ("save_ms", median(&feed.save_ms)),
        ("recover_ms", median(&recover_ms)),
        ("audit_ms", median(&audit_ms)),
        ("peak_rss_mb", feed.peak_rss_mb),
        (
            "detail_bytes_per_source_byte",
            warehouse.total_detail_bytes() as f64 / source_bytes as f64,
        ),
        (
            "wal_bytes_per_change",
            feed.wal_bytes as f64 / feed.changes_in as f64,
        ),
    ]
    .to_vec()
}

/// The traced run's second half: replay through the layer driver.
fn per_layer(args: &RunArgs, feed: &Feed, ops: &mut Ops) -> Result<LayerReport, String> {
    let side = WarehouseSide {
        warehouse: &feed.warehouse,
        workers: feed.workers,
        batch_wall_ms: feed.batch_raw_ms.iter().sum(),
        sched_attributed_ms: feed.sched_attributed_ms,
    };
    let mut report = layers::replay(args, &side)?;
    for finding in std::mem::take(&mut report.findings) {
        ops.op("layer driver check", Err::<(), _>(finding));
    }
    ops.gate(
        "layer driver saw the inputs the warehouse saw",
        report.input_digest == feed.gen.digest(),
    );
    report.metrics.push((
        "warehouse.batch_ms_p95",
        percentile(&feed.batch_raw_ms, 0.95),
    ));
    // Last, so that every failure above is in it.
    report.metrics.push((
        "warehouse.failed_ops_share",
        ops.failed as f64 / ops.attempted as f64,
    ));
    Ok(report)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let run_started = Instant::now();
    let mut feed = feed(args, &mut ops)?;
    let feed_s = run_started.elapsed().as_secs_f64();

    let stats: Vec<md_warehouse::MaintStats> = feed
        .warehouse
        .summaries()
        .filter_map(|name| feed.warehouse.stats(name).ok())
        .collect();
    let mut notes = vec![format!(
        "inputs: digest={:016x} changes_in={} changes_out={} rows_processed={} \
         groups_recomputed={} wal_bytes={}",
        feed.gen.digest(),
        feed.changes_in,
        feed.changes_out,
        stats.iter().map(|s| s.rows_processed).sum::<u64>(),
        stats.iter().map(|s| s.groups_recomputed).sum::<u64>(),
        feed.wal_bytes,
    )];

    let mut samples = Vec::new();
    let mut layers = None;
    let metrics = if args.trace {
        let report = per_layer(args, &feed, &mut ops)?;
        let metrics = report.metrics.clone();
        layers = Some(report);
        metrics
    } else {
        samples = vec![
            ("setup_s", feed.setup_s.len()),
            ("batch_ms_p50", feed.batch_ms.len()),
            ("read_ms_p50", feed.read_ms.len()),
            ("save_ms", feed.save_ms.len()),
            ("recover_ms", args.reps(7)),
            ("audit_ms", args.reps(15)),
        ];
        end_to_end(args, &mut feed, &mut ops)
    };

    notes.push(format!(
        "host: reference kernel ran in {:.1} us (nominal {:.1} us); raw batch_ms_p50 {:.4}",
        feed.kernel_ns / 1e3,
        crate::hostspeed::NOMINAL_NS / 1e3,
        median(&feed.batch_raw_ms),
    ));
    notes.push(format!(
        "phases: generate, set-up and feed {feed_s:.2} s ({} batches, {:.2} s of it inside \
         apply_batch), {} {:.2} s",
        feed.batch_raw_ms.len(),
        feed.batch_raw_ms.iter().sum::<f64>() / 1e3,
        if args.trace {
            "layer replay"
        } else {
            "correctness gate"
        },
        run_started.elapsed().as_secs_f64() - feed_s,
    ));
    notes.extend(ops.findings.iter().map(|f| format!("FAILED: {f}")));
    Ok(Outcome {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        samples,
        notes,
        batch_ms: feed.batch_raw_ms,
        layers,
    })
}

/// The full record of a run, for the files under `benchmark/out/`.
pub fn record_json(args: &RunArgs, outcome: &Outcome, units: &dyn Fn(&str) -> String) -> String {
    let star = args.workload.star(args.smoke);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", json::quote(args.workload.name));
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"trace\": {},", args.trace);
    let _ = writeln!(out, "  \"commit\": {},", json::quote(&host::commit()));
    let _ = writeln!(out, "  \"rustc\": {},", json::quote(&host::rustc_version()));
    let _ = writeln!(out, "  \"nproc\": {},", host::nproc());
    let _ = writeln!(out, "  \"workers\": {},", args.workload.workers.count());
    let _ = writeln!(
        out,
        "  \"scale\": {{\"facts\": {}, \"days\": {}, \"stores\": {}, \"products\": {}, \
         \"batches\": {}, \"changes_per_batch\": {}, \"summaries\": {}}},",
        star.fact_rows(),
        star.days,
        star.stores,
        star.products,
        args.batches(),
        args.workload.shape(args.smoke).changes_per_batch(),
        args.workload.views.len(),
    );
    let _ = writeln!(out, "  \"claim\": null,");
    let _ = writeln!(out, "  \"correct\": {},", outcome.correct);
    let _ = writeln!(out, "  \"attempted\": {},", outcome.attempted);
    let _ = writeln!(out, "  \"failed\": {},", outcome.failed);
    let notes: Vec<String> = outcome.notes.iter().map(|n| json::quote(n)).collect();
    let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
    if let Some(layers) = &outcome.layers {
        let max_of: Vec<String> = layers
            .max_of
            .iter()
            .map(|(metric, summary)| format!("{}: {}", json::quote(metric), json::quote(summary)))
            .collect();
        let _ = writeln!(out, "  \"max_of\": {{{}}},", max_of.join(", "));
        let rows: Vec<String> = layers
            .per_summary
            .iter()
            .map(|s| {
                format!(
                    "    {{\"summary\": {}, \"initial_load_ms\": {}, \"prepare_ms\": {}, \
                     \"commit_ms\": {}, \"rows_processed\": {}, \"groups_recomputed\": {}, \
                     \"aux_rows\": {}, \"aux_bytes\": {}, \"summary_groups\": {}, \
                     \"audit_ms\": {}, \"read_ms\": {}, \"rebuild_ms\": {}, \"recompute_ms\": {}}}",
                    json::quote(&s.name),
                    s.initial_load_ms,
                    s.prepare_ms,
                    s.commit_ms,
                    s.rows_processed,
                    s.groups_recomputed,
                    s.aux_rows,
                    s.aux_bytes,
                    s.summary_groups,
                    s.audit_ms,
                    s.read_ms,
                    s.rebuild_ms,
                    s.recompute_ms,
                )
            })
            .collect();
        let _ = writeln!(out, "  \"per_summary\": [\n{}\n  ],", rows.join(",\n"));
        // Index = the `batch` field of the spans in trace-<workload>.json.
        let walls: Vec<String> = outcome.batch_ms.iter().map(f64::to_string).collect();
        let _ = writeln!(
            out,
            "  \"warehouse_batch_wall_ms\": [{}],",
            walls.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "  \"metrics\": {}",
        metrics_json(&outcome.metrics, units)
    );
    out.push_str("}\n");
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}`
pub fn metrics_json(metrics: &[(&str, f64)], units: &dyn Fn(&str) -> String) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                value,
                json::quote(&units(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
