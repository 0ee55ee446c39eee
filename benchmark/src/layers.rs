//! The layer driver: the traced run that gives the per-layer numbers.
//!
//! It replays the batches the warehouse received through standalone
//! `MaintenanceEngine`s and a `Wal`, stepped by hand through the layers'
//! public functions in the order the warehouse's scheduler calls them —
//! `ChangeBatch::coalesced` → per engine `prepare_batch` → `Wal::append` →
//! per engine `commit_batch` — single-threaded, each call inside an
//! `md-obs` span. The spans live in this file, around the calls into each
//! layer; the measured crates are not instrumented for it. Per-layer
//! times are read back from the recorded spans, the same ones the trace
//! file holds.
//!
//! The spans are recorded **without fields**. A field costs `md-obs` a
//! heap allocation that stays in the trace ring, and a few such long-lived
//! allocations per batch, interleaved with the engines' short-lived ones,
//! slowed the replayed `trickle` feed by 60 % (5.0 s against 3.2 s; an
//! isolated span with three fields costs 0.35 µs). The batch and the
//! summary of a span are instead recovered from its ordinal — the replay
//! is single-threaded and every summary takes part in every batch, which
//! `step` checks — and written into the trace file afterwards.
//!
//! End-to-end metrics never come from here. What ties the two runs
//! together is a correctness check (the driver's summaries must equal the
//! warehouse's) and one subtraction (`warehouse.self_ms_per_batch`: what
//! the warehouse spends per batch beyond the layer calls replayed here).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use md_maintain::{recompute_from_sources, ChangeBatch, MaintenanceEngine, Wal};
use md_obs::{Obs, ObsConfig, TraceEvent};
use md_relation::{Bag, Catalog, Change, Database, TableId, DEFAULT_CHUNK_ROWS};
use md_warehouse::Warehouse;

use crate::gen::Generator;
use crate::hostspeed::HostSpeed;
use crate::json;
use crate::run::RunArgs;
use crate::workloads::WARMUP_BATCHES;

// Span names. The first group is recorded once per batch (the per-engine
// ones once per batch and summary, in summary-name order); the second
// after the feed (per-engine ones once per summary, same order).
const BATCH: &str = "driver.batch";
const COALESCE: &str = "maintain.batch.coalesce";
const PREPARE: &str = "maintain.engine.prepare";
const APPEND: &str = "maintain.wal.append";
const COMMIT: &str = "maintain.engine.commit";
const SNAPSHOT_SAVE: &str = "maintain.snapshot.save";
const SNAPSHOT_RESTORE: &str = "maintain.snapshot.restore";
const REPLAY_DECODE: &str = "maintain.wal.replay_decode";
const REPLAY_APPLY: &str = "maintain.engine.replay_apply";
const AUDIT: &str = "maintain.engine.audit";
const READ: &str = "maintain.read";
const REBUILD: &str = "maintain.engine.rebuild";
const RECOMPUTE: &str = "algebra.recompute";
const CHUNK_SCAN: &str = "relation.chunk_scan";

/// Spans recorded once per summary (per batch, or once after the feed).
const PER_ENGINE: &[&str] = &[
    PREPARE,
    COMMIT,
    SNAPSHOT_SAVE,
    SNAPSHOT_RESTORE,
    AUDIT,
    READ,
    REBUILD,
    RECOMPUTE,
];

/// Spans recorded inside a [`BATCH`] span.
const PER_BATCH: &[&str] = &[COALESCE, PREPARE, APPEND, COMMIT];

/// One summary's row of the per-summary table in the result file.
#[derive(Debug, Clone, Default)]
pub struct SummaryLayers {
    pub name: String,
    pub initial_load_ms: f64,
    pub prepare_ms: f64,
    pub commit_ms: f64,
    pub rows_processed: u64,
    pub groups_recomputed: u64,
    pub aux_rows: u64,
    pub aux_bytes: u64,
    pub summary_groups: u64,
    pub audit_ms: f64,
    pub read_ms: f64,
    pub rebuild_ms: f64,
    pub recompute_ms: f64,
}

/// What the measured warehouse run hands over for the cross-run metrics.
pub struct WarehouseSide<'a> {
    pub warehouse: &'a Warehouse,
    pub workers: usize,
    /// Σ raw `apply_batch` wall over the timed batches.
    pub batch_wall_ms: f64,
    /// Σ of the scheduler's own stage timers over the timed batches.
    pub sched_attributed_ms: f64,
}

pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64)>,
    pub per_summary: Vec<SummaryLayers>,
    /// Name of the summary behind each `.max` metric.
    pub max_of: Vec<(&'static str, String)>,
    /// Correctness findings; empty when the driver agrees with the
    /// warehouse and with a recomputation from the sources.
    pub findings: Vec<String>,
    /// Every recorded span, as Chrome trace-event JSON.
    pub trace_json: String,
    /// Digest of the change stream the driver was fed.
    pub input_digest: u64,
}

/// Replays the run's inputs — regenerated from the same seed, so the
/// warehouse's feed did not have to keep them — through the layer driver.
pub fn replay(args: &RunArgs, side: &WarehouseSide<'_>) -> Result<LayerReport, String> {
    let workload = args.workload;
    let mut gen = Generator::new(workload.star(args.smoke), args.seed);
    let mut driver = LayerDriver::setup(workload.views, gen.db())?;
    let shape = workload.shape(args.smoke);
    for _ in 0..WARMUP_BATCHES {
        driver.step(&gen.next_batch(&shape))?;
    }
    driver.start_tracing();
    // The feed samples the reference kernel between batches; so does the
    // replay, so that both find the caches in the same state.
    let mut host = HostSpeed::new();
    let mut kernel_samples = Vec::new();
    for b in 0..args.batches() {
        let batch = gen.next_batch(&shape);
        if b % workload.kernel_every() == 0 {
            kernel_samples.push(host.sample());
        }
        driver.step(&batch)?;
        if b + 1 == args.checkpoint_after() {
            driver.checkpoint()?;
        }
    }
    let mut report = driver.finish(&gen, args.batches(), side)?;
    report.metrics.push((
        "hostspeed.kernel_us",
        crate::stats::median(&kernel_samples) / 1e3,
    ));
    Ok(report)
}

struct LayerDriver {
    obs: Obs,
    catalog: Catalog,
    /// In summary-name order, which is also the warehouse's order.
    engines: BTreeMap<String, MaintenanceEngine>,
    wal: Wal,
    table_seq: BTreeMap<TableId, u64>,
    parse_us: f64,
    check_us: f64,
    derive_us: f64,
    initial_load_ms: BTreeMap<String, f64>,
    aux_kept: u64,
    aux_eliminated: u64,
    changes_in: u64,
    changes_out: u64,
    wal_frames: u64,
    /// WAL length when tracing was switched on (end of warm-up).
    wal_mark: usize,
    /// Engine images taken at the checkpoint batch.
    checkpoint: Vec<(String, Vec<u8>)>,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The recorded spans in time order, with what their ordinals say about
/// them.
struct Spans {
    events: Vec<TraceEvent>,
    summaries: Vec<String>,
}

impl Spans {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.name == name)
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|e| e.dur_ns).sum()
    }

    /// Total duration per summary of a per-engine span: its i-th
    /// occurrence belongs to summary `i mod summaries`.
    fn per_summary_ns(&self, name: &str) -> Vec<u64> {
        let mut totals = vec![0; self.summaries.len()];
        for (i, e) in self.named(name).enumerate() {
            totals[i % self.summaries.len()] += e.dur_ns;
        }
        totals
    }

    /// The largest per-summary total and the summary it belongs to.
    fn max_of(&self, name: &str) -> (u64, String) {
        self.per_summary_ns(name)
            .into_iter()
            .zip(&self.summaries)
            .max_by_key(|(ns, _)| *ns)
            .map_or((0, String::new()), |(ns, summary)| (ns, summary.clone()))
    }

    /// Chrome trace-event JSON, in `md-obs`'s format, with the batch id,
    /// the parent span and the summary of each span filled in.
    fn chrome_json(&self) -> String {
        let mut out = String::from(
            "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n    {\"ph\": \"M\", \
             \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \
             \"mdbench layer driver\"}}",
        );
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &self.events {
            let ordinal = {
                let n = seen.entry(e.name).or_insert(0);
                *n += 1;
                *n - 1
            };
            let per_engine = PER_ENGINE.contains(&e.name);
            let mut args = Vec::new();
            if e.name == BATCH {
                args.push(format!("\"batch\": {ordinal}"));
            } else if PER_BATCH.contains(&e.name) {
                let batch = if per_engine {
                    ordinal / self.summaries.len()
                } else {
                    ordinal
                };
                args.push(format!(
                    "\"batch\": {batch}, \"parent\": {}",
                    json::quote(BATCH)
                ));
            }
            if per_engine {
                let summary = &self.summaries[ordinal % self.summaries.len()];
                args.push(format!("\"summary\": {}", json::quote(summary)));
            }
            let _ = write!(
                out,
                ",\n    {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"args\": {{{}}}}}",
                json::quote(e.name),
                json::quote(e.name.split('.').next().unwrap_or("mdbench")),
                e.tid,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
                args.join(", "),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl LayerDriver {
    /// Takes every view through the front-end layers by hand — parse,
    /// check, derive, initial load — timing each. Tracing starts off; the
    /// caller switches it on after the warm-up batches.
    fn setup(views: &[&str], db: &Database) -> Result<Self, String> {
        let catalog = db.catalog().clone();
        let mut driver = LayerDriver {
            obs: Obs::new(ObsConfig::off()),
            catalog,
            engines: BTreeMap::new(),
            wal: Wal::new(),
            table_seq: BTreeMap::new(),
            parse_us: 0.0,
            check_us: 0.0,
            derive_us: 0.0,
            initial_load_ms: BTreeMap::new(),
            aux_kept: 0,
            aux_eliminated: 0,
            changes_in: 0,
            changes_out: 0,
            wal_frames: 0,
            wal_mark: 0,
            checkpoint: Vec::new(),
        };
        for sql in views {
            let started = Instant::now();
            let view = md_sql::parse_view(sql, &driver.catalog, "unnamed_summary")
                .map_err(|e| e.to_string())?;
            driver.parse_us += started.elapsed().as_nanos() as f64 / 1e3;

            let started = Instant::now();
            let report = md_check::check_view(&view, &driver.catalog);
            driver.check_us += started.elapsed().as_nanos() as f64 / 1e3;
            if report.has_errors() {
                return Err(format!("md-check rejects '{}'", view.name));
            }

            let started = Instant::now();
            let plan = md_core::derive(&view, &driver.catalog).map_err(|e| e.to_string())?;
            driver.derive_us += started.elapsed().as_nanos() as f64 / 1e3;
            driver.aux_kept += plan.materialized().count() as u64;
            driver.aux_eliminated += plan.omitted_tables().len() as u64;

            let started = Instant::now();
            let mut engine =
                MaintenanceEngine::new(plan, &driver.catalog).map_err(|e| e.to_string())?;
            engine.initial_load(db).map_err(|e| e.to_string())?;
            driver
                .initial_load_ms
                .insert(view.name.clone(), ms(started.elapsed().as_nanos() as u64));
            driver.engines.insert(view.name.clone(), engine);
        }
        Ok(driver)
    }

    /// Ends the warm-up: spans and counts from here on are the timed phase.
    fn start_tracing(&mut self) {
        self.obs.set_tracing(true);
        self.wal_mark = self.wal.bytes().len();
        self.changes_in = 0;
        self.changes_out = 0;
        self.wal_frames = 0;
    }

    /// Replays one batch through the layers.
    fn step(&mut self, batch: &ChangeBatch) -> Result<(), String> {
        let obs = &self.obs;
        let _batch_span = obs.span(BATCH);

        let work = {
            let _s = obs.span(COALESCE);
            batch.coalesced()
        };
        self.changes_in += batch.change_count() as u64;
        self.changes_out += work.change_count() as u64;

        let groups = work.groups();
        let lsns: Vec<(TableId, u64)> = groups
            .iter()
            .map(|(t, _)| (*t, self.table_seq.get(t).copied().unwrap_or(0) + 1))
            .collect();

        for (name, engine) in &mut self.engines {
            let share: Vec<(TableId, &[Change])> = groups
                .iter()
                .filter(|(t, _)| engine.plan().view.tables.contains(t))
                .map(|(t, c)| (*t, c.as_slice()))
                .collect();
            if share.is_empty() {
                // The spans carry no fields: which summary a span belongs
                // to is read off its ordinal.
                return Err(format!(
                    "'{name}' reads no table of this batch; the layer driver needs every \
                     summary to take part in every batch"
                ));
            }
            let _s = obs.span(PREPARE);
            engine.prepare_batch(&share).map_err(|e| e.to_string())?;
        }

        {
            let _s = obs.span(APPEND);
            for ((table, changes), (_, lsn)) in groups.iter().zip(&lsns) {
                self.wal.append(*table, *lsn, changes);
            }
        }
        self.wal_frames += groups.len() as u64;

        for engine in self.engines.values_mut() {
            let share: Vec<(TableId, u64)> = lsns
                .iter()
                .filter(|(t, _)| engine.plan().view.tables.contains(t))
                .copied()
                .collect();
            let _s = obs.span(COMMIT);
            engine.commit_batch(&share);
        }
        self.table_seq.extend(lsns);
        Ok(())
    }

    /// Snapshots every engine — the driver's side of the checkpoint the
    /// warehouse saves at the same batch.
    fn checkpoint(&mut self) -> Result<(), String> {
        self.checkpoint.clear();
        for (name, engine) in &self.engines {
            let _s = self.obs.span(SNAPSHOT_SAVE);
            let image = engine.snapshot().map_err(|e| e.to_string())?;
            self.checkpoint.push((name.clone(), image));
        }
        Ok(())
    }

    /// Restores the checkpoint images and replays the log over them — the
    /// two halves of `recover`, a layer at a time. Returns the recovered
    /// engines.
    fn recover_by_hand(&self) -> Result<BTreeMap<String, MaintenanceEngine>, String> {
        let mut recovered = BTreeMap::new();
        for (name, image) in &self.checkpoint {
            let plan = self.engines[name].plan().clone();
            let _s = self.obs.span(SNAPSHOT_RESTORE);
            let engine = MaintenanceEngine::restore(plan, &self.catalog, image)
                .map_err(|e| e.to_string())?;
            recovered.insert(name.clone(), engine);
        }
        let records = {
            let _s = self.obs.span(REPLAY_DECODE);
            Wal::replay(self.wal.bytes()).map_err(|e| e.to_string())?.0
        };
        let _s = self.obs.span(REPLAY_APPLY);
        for record in &records {
            for engine in recovered.values_mut() {
                if engine.plan().view.tables.contains(&record.table) {
                    engine
                        .apply_at(record.table, &record.changes, record.lsn)
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(recovered)
    }

    /// Runs the after-the-feed layers (recovery, audit, read, rebuild,
    /// recompute), checks the driver against the warehouse and the
    /// sources, and folds the recorded spans into the per-layer metrics.
    fn finish(
        self,
        gen: &Generator,
        batches: usize,
        side: &WarehouseSide<'_>,
    ) -> Result<LayerReport, String> {
        let mut findings = Vec::new();
        let obs = &self.obs;
        // The sources at their final state: the oracle.
        let db = gen.db();

        let mut bags: BTreeMap<&str, Bag> = BTreeMap::new();
        for (name, engine) in &self.engines {
            let bag = engine.summary_bag().map_err(|e| e.to_string())?;
            match side.warehouse.summary_bag(name) {
                Ok(theirs) if theirs == bag => {}
                Ok(_) => findings.push(format!("driver and warehouse disagree on '{name}'")),
                Err(e) => findings.push(format!("warehouse cannot read '{name}': {e}")),
            }
            bags.insert(name, bag);
        }

        // Counters of the feed, before recovery and rebuild add their own.
        let stats: BTreeMap<&str, md_maintain::MaintStats> = self
            .engines
            .iter()
            .map(|(name, e)| (name.as_str(), e.stats()))
            .collect();

        let mut recovered = self.recover_by_hand()?;
        for (name, engine) in &recovered {
            if engine.summary_bag().map_err(|e| e.to_string())? != bags[name.as_str()] {
                findings.push(format!(
                    "hand-recovered '{name}' differs from the live engine"
                ));
            }
        }

        let mut read_rows = 0u64;
        for (name, engine) in &self.engines {
            {
                let _s = obs.span(AUDIT);
                let report = engine.audit();
                if !report.is_clean() {
                    findings.push(format!("audit of '{name}': {}", report.findings.join("; ")));
                }
            }
            let _s = obs.span(READ);
            let rows = engine
                .summary_bag()
                .map_err(|e| e.to_string())?
                .sorted_rows();
            read_rows += rows.len() as u64;
        }

        // Repair's core, on the recovered copies (they are disposable).
        for (name, engine) in &mut recovered {
            {
                let _s = obs.span(REBUILD);
                engine.rebuild_summary().map_err(|e| e.to_string())?;
            }
            if engine.summary_bag().map_err(|e| e.to_string())? != bags[name.as_str()] {
                findings.push(format!("rebuilding '{name}' from X changed it"));
            }
        }
        drop(recovered);

        for (name, engine) in &self.engines {
            let recomputed = {
                let _s = obs.span(RECOMPUTE);
                recompute_from_sources(&engine.plan().view, db).map_err(|e| e.to_string())?
            };
            if recomputed != bags[name.as_str()] {
                findings.push(format!(
                    "'{name}' differs from a recomputation from the sources"
                ));
            }
        }

        let chunks = {
            let _s = obs.span(CHUNK_SCAN);
            db.table(gen.schema().sale)
                .chunks(DEFAULT_CHUNK_ROWS)
                .map_err(|e| e.to_string())?
                .len()
        };

        // --- fold the spans -------------------------------------------
        if obs.tracer().dropped() > 0 {
            return Err(format!(
                "trace ring overflowed ({} spans dropped): too many batches for one traced run",
                obs.tracer().dropped()
            ));
        }
        let spans = Spans {
            events: obs.tracer().events(),
            summaries: self.engines.keys().cloned().collect(),
        };
        let coalesce_ns = spans.total_ns(COALESCE);
        let prepare_ns = spans.total_ns(PREPARE);
        let commit_ns = spans.total_ns(COMMIT);
        let append_ns = spans.total_ns(APPEND);
        let recompute_ns = spans.total_ns(RECOMPUTE);
        let layer_ns = coalesce_ns + prepare_ns + append_ns + commit_ns;

        let (prepare_max, prepare_max_of) = spans.max_of(PREPARE);
        let (commit_max, commit_max_of) = spans.max_of(COMMIT);
        let (audit_max, audit_max_of) = spans.max_of(AUDIT);
        let (read_max, read_max_of) = spans.max_of(READ);
        let load_max_of = self
            .initial_load_ms
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(String::new(), |(name, _)| name.clone());

        let rows_processed: u64 = stats.values().map(|s| s.rows_processed).sum();
        let groups_recomputed: u64 = stats.values().map(|s| s.groups_recomputed).sum();
        let by = |name: &str| spans.per_summary_ns(name);
        let (prepare_by, commit_by, audit_by, read_by, rebuild_by, recompute_by) = (
            by(PREPARE),
            by(COMMIT),
            by(AUDIT),
            by(READ),
            by(REBUILD),
            by(RECOMPUTE),
        );
        let per_summary: Vec<SummaryLayers> = self
            .engines
            .iter()
            .enumerate()
            .map(|(i, (name, engine))| SummaryLayers {
                name: name.clone(),
                initial_load_ms: self.initial_load_ms[name],
                prepare_ms: ms(prepare_by[i]),
                commit_ms: ms(commit_by[i]),
                rows_processed: stats[name.as_str()].rows_processed,
                groups_recomputed: stats[name.as_str()].groups_recomputed,
                aux_rows: engine.aux_stores().map(|s| s.len() as u64).sum(),
                aux_bytes: engine.aux_stores().map(|s| s.paper_bytes()).sum(),
                summary_groups: engine.summary().len() as u64,
                audit_ms: ms(audit_by[i]),
                read_ms: ms(read_by[i]),
                rebuild_ms: ms(rebuild_by[i]),
                recompute_ms: ms(recompute_by[i]),
            })
            .collect();

        let span_ns = empty_span_ns();
        let batches = batches as f64;
        let views = self.engines.len() as f64;

        let metrics = vec![
            ("workload.generate_ms", gen.generate_ms()),
            ("workload.schedule_ms", gen.schedule_ms()),
            (
                "relation.source_apply_ns_per_change",
                gen.source_apply_ns_per_change(),
            ),
            ("relation.chunk_scan_ms", ms(spans.total_ns(CHUNK_SCAN))),
            ("relation.chunks", chunks as f64),
            ("sqlgpsj.parse_us_per_view", self.parse_us / views),
            ("check.check_us_per_view", self.check_us / views),
            ("core.derive_us_per_view", self.derive_us / views),
            ("core.aux_views_kept", self.aux_kept as f64),
            ("core.aux_views_eliminated", self.aux_eliminated as f64),
            (
                "maintain.initial_load_ms.sum",
                self.initial_load_ms.values().sum(),
            ),
            (
                "maintain.initial_load_ms.max",
                self.initial_load_ms.values().copied().fold(0.0, f64::max),
            ),
            (
                "maintain.aux_rows.sum",
                per_summary.iter().map(|s| s.aux_rows).sum::<u64>() as f64,
            ),
            (
                "maintain.aux_bytes.sum",
                per_summary.iter().map(|s| s.aux_bytes).sum::<u64>() as f64,
            ),
            (
                "maintain.summary_groups.sum",
                per_summary.iter().map(|s| s.summary_groups).sum::<u64>() as f64,
            ),
            (
                "warehouse.shared_aux_dedup_bytes",
                side.warehouse
                    .shared_detail_report()
                    .iter()
                    .map(|s| s.dedup_savings())
                    .sum::<u64>() as f64,
            ),
            ("maintain.batch.coalesce_ms", ms(coalesce_ns)),
            ("maintain.batch.changes_in", self.changes_in as f64),
            ("maintain.batch.changes_out", self.changes_out as f64),
            (
                "maintain.batch.coalesce_ratio",
                self.changes_in as f64 / self.changes_out.max(1) as f64,
            ),
            ("maintain.engine.prepare_ms.sum", ms(prepare_ns)),
            ("maintain.engine.prepare_ms.max", ms(prepare_max)),
            (
                "maintain.engine.prepare_ns_per_row",
                prepare_ns as f64 / rows_processed.max(1) as f64,
            ),
            ("maintain.engine.rows_processed", rows_processed as f64),
            (
                "maintain.engine.groups_recomputed",
                groups_recomputed as f64,
            ),
            (
                "maintain.engine.recompute_per_1k_rows",
                groups_recomputed as f64 * 1e3 / rows_processed.max(1) as f64,
            ),
            (
                "maintain.engine.summary_rebuilds",
                stats.values().map(|s| s.summary_rebuilds).sum::<u64>() as f64,
            ),
            (
                "maintain.engine.dim_noop_changes",
                stats.values().map(|s| s.dim_noop_changes).sum::<u64>() as f64,
            ),
            (
                "maintain.engine.dim_targeted_updates",
                stats.values().map(|s| s.dim_targeted_updates).sum::<u64>() as f64,
            ),
            ("maintain.engine.commit_ms.sum", ms(commit_ns)),
            ("maintain.engine.commit_ms.max", ms(commit_max)),
            ("maintain.wal.append_ms", ms(append_ns)),
            (
                "maintain.wal.bytes",
                (self.wal.bytes().len() - self.wal_mark) as f64,
            ),
            ("maintain.wal.frames", self.wal_frames as f64),
            (
                "warehouse.self_ms_per_batch",
                (side.batch_wall_ms - ms(layer_ns)) / batches,
            ),
            (
                "warehouse.sched_unattributed_ms",
                (side.batch_wall_ms - side.sched_attributed_ms) / batches,
            ),
            (
                "warehouse.parallel_efficiency",
                ms(layer_ns) / (side.batch_wall_ms * side.workers as f64),
            ),
            (
                "maintain.snapshot.save_ms.sum",
                ms(spans.total_ns(SNAPSHOT_SAVE)),
            ),
            (
                "maintain.snapshot.bytes",
                self.checkpoint.iter().map(|(_, i)| i.len()).sum::<usize>() as f64,
            ),
            (
                "maintain.snapshot.restore_ms.sum",
                ms(spans.total_ns(SNAPSHOT_RESTORE)),
            ),
            (
                "maintain.wal.replay_decode_ms",
                ms(spans.total_ns(REPLAY_DECODE)),
            ),
            (
                "maintain.engine.replay_apply_ms",
                ms(spans.total_ns(REPLAY_APPLY)),
            ),
            ("maintain.engine.audit_ms.sum", ms(spans.total_ns(AUDIT))),
            ("maintain.engine.audit_ms.max", ms(audit_max)),
            ("maintain.read_ms.sum", ms(spans.total_ns(READ))),
            ("maintain.read_ms.max", ms(read_max)),
            ("maintain.read_rows", read_rows as f64),
            (
                "maintain.engine.rebuild_ms.sum",
                ms(spans.total_ns(REBUILD)),
            ),
            ("algebra.recompute_ms.sum", ms(recompute_ns)),
            (
                "algebra.recompute_over_incremental",
                ms(recompute_ns) / (ms(prepare_ns) / batches),
            ),
            ("obs.span_ns", span_ns),
            (
                "obs.trace_overhead_pct",
                spans.events.len() as f64 * span_ns / spans.total_ns(BATCH).max(1) as f64 * 100.0,
            ),
        ];

        Ok(LayerReport {
            metrics,
            per_summary,
            max_of: vec![
                ("maintain.initial_load_ms.max", load_max_of),
                ("maintain.engine.prepare_ms.max", prepare_max_of),
                ("maintain.engine.commit_ms.max", commit_max_of),
                ("maintain.engine.audit_ms.max", audit_max_of),
                ("maintain.read_ms.max", read_max_of),
            ],
            findings,
            trace_json: spans.chrome_json(),
            input_digest: gen.digest(),
        })
    }
}

/// Cost of one empty span with the tracer on: 10⁶ spans through a tracer
/// of their own, so the run's trace is not evicted from its ring.
fn empty_span_ns() -> f64 {
    const SPANS: u32 = 1_000_000;
    let obs = Obs::new(ObsConfig::full());
    let started = Instant::now();
    for _ in 0..SPANS {
        drop(std::hint::black_box(obs.span("obs.empty")));
    }
    started.elapsed().as_nanos() as f64 / f64::from(SPANS)
}
