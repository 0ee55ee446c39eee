//! `mindetail` — an interactive shell over the warehouse.
//!
//! Boots the simulated retail sources, then accepts GPSJ SQL and
//! backslash commands on stdin (or from a script via `--script FILE`):
//!
//! ```text
//! CREATE VIEW ... ;          register a summary view (GPSJ SQL)
//! \tables                    list source tables and row counts
//! \views                     list registered summaries
//! \explain NAME              join graph + derived auxiliary views
//! \check [NAME]              static analysis (md-check) of one/all summaries
//! \rows NAME [N]             first N rows of a summary (default 10)
//! \storage                   detail-data storage accounting
//! \shared                    auxiliary views shared across summaries
//! \churn N                   stream N random source changes through
//! \verify                    oracle-check every summary (demo only)
//! \audit                     source-free integrity audit (V vs X, indexes)
//! \sched                     batch-scheduler counters and stage timings
//! \stats                     per summary: rows processed, runs folded, occurrences per run
//! \metrics [--json]          metrics registry (Prometheus text or JSON)
//! \trace on|off|dump FILE    toggle span tracing / export a Chrome trace
//! \deadletters               rejected batches kept for inspection
//! \quarantine                isolated summaries: since which LSN, and why
//! \repair NAME               rebuild a quarantined summary from its stores
//! \wal                       change-log status (records, bytes, what \recover read)
//! \save FILE | \restore FILE persist / restart from the warehouse image
//! \recover FILE              crash recovery: image + FILE.wal log replay
//! \help | \quit
//! ```
//!
//! Pass `--trace-out FILE.json` to record spans for the whole session and
//! dump a Chrome trace-event file (`chrome://tracing` / Perfetto) at exit.
//!
//! Batch mode: `mindetail check FILE.sql... [--json]` analyzes every GPSJ
//! statement in the given files against the retail catalog and exits
//! non-zero if any error-level diagnostic is found — suitable for CI.
//!
//! Try: `cargo run -p md-bench --bin mindetail -- --demo`

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use md_bench::format_sched;
use md_core::human_bytes;
use md_warehouse::{ChangeBatch, ObsConfig, Warehouse, WarehouseBuilder};
use md_workload::{
    generate_retail, sale_changes, views, Contracts, RetailParams, RetailSchema, UpdateMix,
};

struct Shell {
    wh: Warehouse,
    db: md_relation::Database,
    schema: RetailSchema,
    churn_seed: u64,
    /// Observability mode, reused when `\restore`/`\recover` rebuild the
    /// warehouse so the session keeps its metrics and tracing setup.
    obs_config: ObsConfig,
    /// Original SQL text per summary, for `\check NAME` span rendering.
    sql_by_name: BTreeMap<String, String>,
}

impl Shell {
    fn builder(&self) -> WarehouseBuilder {
        // Quarantine on: a summary whose prepare fails is isolated (see
        // `\quarantine`) and repairable (`\repair NAME`) instead of
        // rejecting the whole batch.
        Warehouse::builder()
            .observe(self.obs_config)
            .quarantine(true)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        std::process::exit(run_check(&args[1..]));
    }
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1).cloned());
    // The shell always runs with metrics on (the registry is what
    // `\metrics` shows); tracing starts enabled only when a trace file
    // was requested, and `\trace on` can flip it any time.
    let obs_config = if trace_out.is_some() {
        ObsConfig::full()
    } else {
        ObsConfig::metrics()
    };
    let (db, schema) = generate_retail(RetailParams::small(), Contracts::Tight);
    let wh = Warehouse::builder()
        .observe(obs_config)
        .quarantine(true)
        .build(db.catalog());
    let mut shell = Shell {
        wh,
        db,
        schema,
        churn_seed: 1,
        obs_config,
        sql_by_name: BTreeMap::new(),
    };

    println!("mindetail — minimal detail data for GPSJ summary views (EDBT 1998)");
    println!("sources: simulated retail star schema (sale, time, product, store)");
    println!("type \\help for commands\n");

    if args.iter().any(|a| a == "--demo") {
        for cmd in [
            views::PRODUCT_SALES_SQL,
            "\\explain product_sales",
            "\\check product_sales",
            "\\churn 200",
            "\\rows product_sales",
            "\\storage",
            "\\verify",
            "\\audit",
            "\\sched",
            "\\stats",
            "\\wal",
        ] {
            println!("mindetail> {cmd}");
            shell.exec(cmd);
        }
        dump_trace(&shell, trace_out.as_deref());
        return;
    }

    let script = args
        .iter()
        .position(|a| a == "--script")
        .and_then(|i| args.get(i + 1).cloned());
    match script {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            for stmt in split_statements(&text) {
                println!("mindetail> {stmt}");
                shell.exec(&stmt);
            }
        }
        None => {
            let stdin = std::io::stdin();
            let mut buffer = String::new();
            loop {
                print!("mindetail> ");
                std::io::stdout().flush().ok();
                let mut line = String::new();
                if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // SQL may span lines until a semicolon; commands are one line.
                if line.starts_with('\\') {
                    if line == "\\quit" || line == "\\q" {
                        break;
                    }
                    shell.exec(line);
                } else {
                    buffer.push_str(line);
                    buffer.push(' ');
                    if line.ends_with(';') {
                        let stmt = buffer.trim().trim_end_matches(';').to_owned();
                        buffer.clear();
                        shell.exec(&stmt);
                    }
                }
            }
        }
    }
    dump_trace(&shell, trace_out.as_deref());
}

/// Writes the session's Chrome trace to `path` when `--trace-out` was
/// given (every entry mode ends here or calls it before returning).
fn dump_trace(shell: &Shell, path: Option<&str>) {
    let Some(path) = path else {
        return;
    };
    let json = shell.wh.trace_json();
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {} span(s) ({} bytes) to {path}",
            shell.wh.obs().tracer().len(),
            json.len()
        ),
        Err(e) => eprintln!("error: cannot write trace to {path}: {e}"),
    }
}

/// Batch mode: `mindetail check FILE.sql... [--json]`. Analyzes every GPSJ
/// statement in the files against the retail catalog; returns the process
/// exit code (1 when any error-level diagnostic is found, 2 on usage or
/// I/O problems).
fn run_check(args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("usage: mindetail check FILE.sql... [--json]");
        return 2;
    }
    // The shell's own catalog: tight contracts, so the analyzer audits the
    // same schema the interactive session runs against.
    let (db, _) = generate_retail(RetailParams::tiny(), Contracts::Tight);
    let catalog = db.catalog();
    let mut errors = 0usize;
    let mut reports = Vec::new();
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return 2;
            }
        };
        for stmt in split_statements(&text) {
            if stmt.starts_with('\\') {
                continue; // shell commands are not checkable SQL
            }
            let report = md_check::check_file(path, stmt.trim_end_matches(';'), catalog);
            errors += report.error_count();
            reports.push(report);
        }
    }
    if json {
        // One JSON array over all statements, stable order.
        println!("[");
        for (i, r) in reports.iter().enumerate() {
            let sep = if i + 1 < reports.len() { "," } else { "" };
            println!("{}{sep}", r.to_json());
        }
        println!("]");
    } else {
        for r in &reports {
            println!("{}", r.render());
            println!();
        }
        println!(
            "checked {} statement(s): {} error(s)",
            reports.len(),
            errors
        );
    }
    if errors > 0 {
        1
    } else {
        0
    }
}

/// Splits a script into statements: backslash commands are line-delimited,
/// SQL is semicolon-delimited.
fn split_statements(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut sql = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        if line.starts_with('\\') {
            out.push(line.to_owned());
        } else {
            sql.push_str(line);
            sql.push(' ');
            if line.ends_with(';') {
                out.push(sql.trim().trim_end_matches(';').to_owned());
                sql.clear();
            }
        }
    }
    if !sql.trim().is_empty() {
        out.push(sql.trim().to_owned());
    }
    out
}

impl Shell {
    fn exec(&mut self, input: &str) {
        let result = self.dispatch(input);
        if let Err(msg) = result {
            println!("error: {msg}");
        }
        println!();
    }

    fn dispatch(&mut self, input: &str) -> Result<(), String> {
        if !input.starts_with('\\') {
            let sql = input.trim_end_matches(';');
            let name = self
                .wh
                .add_summary_sql(sql, &self.db)
                .map_err(|e| e.to_string())?;
            self.sql_by_name.insert(name.clone(), sql.to_owned());
            println!("registered summary '{name}'");
            return Ok(());
        }
        let mut parts = input.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let arg1 = parts.next();
        let arg2 = parts.next();
        match cmd {
            "\\help" => {
                println!(
                    "CREATE VIEW ... ;  register a GPSJ summary view\n\
                     \\tables  \\views  \\explain NAME  \\check [NAME]  \\rows NAME [N]\n\
                     \\storage  \\shared  \\churn N  \\verify\n\
                     \\audit  \\sched  \\stats  \\metrics [--json]  \\trace on|off|dump FILE\n\
                     \\deadletters  \\quarantine  \\repair NAME  \\wal\n\
                     \\save FILE  \\restore FILE  \\recover FILE  \\quit"
                );
            }
            "\\tables" => {
                for t in self.db.catalog().table_ids() {
                    let def = self.db.catalog().def(t).map_err(|e| e.to_string())?;
                    println!(
                        "{:<10} {:>8} rows  {}",
                        def.name,
                        self.db.table(t).len(),
                        def.schema
                    );
                }
            }
            "\\views" => {
                let names: Vec<&str> = self.wh.summaries().collect();
                if names.is_empty() {
                    println!("(no summaries registered)");
                }
                for n in names {
                    println!("{n}");
                }
            }
            "\\explain" => {
                let name = arg1.ok_or("usage: \\explain NAME")?;
                println!("{}", self.wh.explain(name).map_err(|e| e.to_string())?);
            }
            "\\check" => {
                let names: Vec<String> = match arg1 {
                    Some(n) => vec![n.to_owned()],
                    None => self.wh.summaries().map(|s| s.to_owned()).collect(),
                };
                if names.is_empty() {
                    println!("(no summaries registered)");
                }
                for name in names {
                    // Prefer the original SQL text (spans point into what the
                    // user typed); restored summaries fall back to the view.
                    let report = match self.sql_by_name.get(&name) {
                        Some(sql) => md_check::check_file(&name, sql, self.db.catalog()),
                        None => {
                            let plan = self.wh.plan(&name).map_err(|e| e.to_string())?;
                            md_check::check_view(&plan.view, self.db.catalog())
                        }
                    };
                    println!("{}", report.render());
                }
            }
            "\\rows" => {
                let name = arg1.ok_or("usage: \\rows NAME [N]")?;
                let limit: usize = arg2.and_then(|s| s.parse().ok()).unwrap_or(10);
                let rows = self.wh.summary_rows(name).map_err(|e| e.to_string())?;
                let total = rows.len();
                for r in rows.into_iter().take(limit) {
                    println!("{r}");
                }
                if total > limit {
                    println!("… {} more rows", total - limit);
                }
            }
            "\\storage" => {
                let names: Vec<String> = self.wh.summaries().map(|s| s.to_owned()).collect();
                for name in names {
                    println!("summary '{name}':");
                    for line in self.wh.storage_report(&name).map_err(|e| e.to_string())? {
                        println!(
                            "  {:<24} {:>10} rows  {:>12}",
                            line.name,
                            line.rows,
                            human_bytes(line.paper_bytes)
                        );
                    }
                }
                println!(
                    "total detail data: {}",
                    human_bytes(self.wh.total_detail_bytes())
                );
            }
            "\\shared" => {
                let shared = self.wh.shared_detail_report();
                if shared.is_empty() {
                    println!("(no auxiliary views shared across summaries)");
                }
                for g in shared {
                    println!(
                        "{} over '{}' shared by [{}]: {} rows, held once, saving {}",
                        g.aux_name,
                        g.table,
                        g.summaries.join(", "),
                        g.rows,
                        human_bytes(g.dedup_savings())
                    );
                }
            }
            "\\churn" => {
                let n: usize = arg1
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: \\churn N")?;
                self.churn_seed += 1;
                let changes = sale_changes(
                    &mut self.db,
                    &self.schema,
                    n,
                    UpdateMix::balanced(),
                    self.churn_seed,
                );
                self.wh
                    .apply_batch(&ChangeBatch::single(self.schema.sale, changes))
                    .map_err(|e| e.to_string())?;
                println!("applied {n} random source changes (no base-table access)");
            }
            "\\verify" => {
                let ok = self.wh.verify_all(&self.db).map_err(|e| e.to_string())?;
                println!(
                    "{}",
                    if ok {
                        "all summaries match recomputation"
                    } else {
                        "DIVERGENCE DETECTED"
                    }
                );
            }
            "\\audit" => {
                let reports = self.wh.audit();
                if reports.is_empty() {
                    println!("(no summaries registered)");
                }
                for (name, report) in reports {
                    if report.is_clean() {
                        println!("{name}: clean");
                    } else {
                        println!("{name}: {} finding(s)", report.findings.len());
                        for f in &report.findings {
                            println!("  - {f}");
                        }
                    }
                }
            }
            "\\sched" => {
                let names: Vec<&str> = self.wh.summaries().collect();
                print!("{}", format_sched(self.wh.obs(), &names));
            }
            "\\stats" => {
                // What a change costs depends on how many share its run:
                // the kernels probe and journal once per run, not per row.
                let names: Vec<String> = self.wh.summaries().map(|s| s.to_owned()).collect();
                if names.is_empty() {
                    println!("(no summaries registered)");
                }
                for name in names {
                    let st = self.wh.stats(&name).map_err(|e| e.to_string())?;
                    let labels = [("summary", name.as_str())];
                    let runs = self.wh.obs().counter("maintain.runs", &labels).get();
                    let run_len = self.wh.obs().histogram("maintain.run_len", &labels);
                    let run_len = run_len.snapshot();
                    print!("{name}: {} rows processed, {runs} runs", st.rows_processed);
                    if run_len.count > 0 {
                        let per_run = run_len.sum as f64 / run_len.count as f64;
                        print!(", {per_run:.2} occurrences per run");
                    }
                    println!();
                }
            }
            "\\metrics" => {
                if arg1 == Some("--json") {
                    println!("{}", self.wh.metrics_json());
                } else {
                    print!("{}", self.wh.metrics_prometheus());
                }
            }
            "\\trace" => match arg1 {
                Some("on") => {
                    self.wh.set_tracing(true);
                    println!("span tracing on");
                }
                Some("off") => {
                    self.wh.set_tracing(false);
                    println!("span tracing off");
                }
                Some("dump") => {
                    let path = arg2.ok_or("usage: \\trace dump FILE")?;
                    let json = self.wh.trace_json();
                    std::fs::write(path, &json).map_err(|e| e.to_string())?;
                    println!(
                        "wrote {} span(s) ({} bytes) to {path}",
                        self.wh.obs().tracer().len(),
                        json.len()
                    );
                }
                _ => return Err("usage: \\trace on|off|dump FILE".to_owned()),
            },
            "\\deadletters" => {
                let letters = self.wh.dead_letters();
                if letters.is_empty() {
                    println!("(no rejected batches)");
                }
                for (i, l) in letters.iter().enumerate() {
                    let tname = self
                        .db
                        .catalog()
                        .def(l.table)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|_| l.table.to_string());
                    let at = l
                        .change_index
                        .map(|c| format!(" at change #{c}"))
                        .unwrap_or_default();
                    println!(
                        "#{i}: {} change(s) on '{tname}'{at}: {}",
                        l.changes.len(),
                        l.reason
                    );
                }
            }
            "\\quarantine" => {
                let mut entries = self.wh.quarantined().peekable();
                if entries.peek().is_none() {
                    println!("(no quarantined summaries)");
                }
                for (name, e) in entries {
                    println!("{name}: quarantined since lsn {}", e.since_lsn());
                    println!("  cause: {}", e.cause());
                    println!("  repair with: \\repair {name}");
                }
            }
            "\\repair" => {
                let name = arg1.ok_or("usage: \\repair NAME")?;
                let report = self.wh.repair(name).map_err(|e| e.to_string())?;
                println!(
                    "repaired '{}' in {:.2} ms: rebuilt {} row(s) from the auxiliary \
                     views, replayed {} logged group(s), {} dead-lettered",
                    report.summary,
                    report.elapsed_nanos as f64 / 1e6,
                    report.rebuilt_rows,
                    report.replayed_groups,
                    report.dead_lettered
                );
            }
            "\\wal" => {
                let bytes = self.wh.wal_bytes().expect("the change log is always on");
                let (records, valid) =
                    md_maintain::Wal::replay(bytes).map_err(|e| e.to_string())?;
                println!(
                    "change log: {} record(s), {} ({} valid)",
                    records.len(),
                    human_bytes(bytes.len() as u64),
                    human_bytes(valid as u64)
                );
                if let Some(last) = records.last() {
                    let tname = self
                        .db
                        .catalog()
                        .def(last.table)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|_| last.table.to_string());
                    println!(
                        "last record: lsn {} on '{tname}' ({} change(s))",
                        last.lsn,
                        last.changes.len()
                    );
                }
                // What `\recover` read of the log to bring this warehouse up.
                let counter = |name: &str| self.wh.obs().counter(name, &[]).get();
                let scanned = counter("recovery.frames_scanned");
                if scanned > 0 {
                    println!(
                        "recovery: scanned {scanned} frame(s) ({}), replayed {}",
                        human_bytes(counter("recovery.log_bytes_scanned")),
                        counter("recovery.frames_replayed")
                    );
                    let ms = |name: &str| counter(name) as f64 / 1e6;
                    println!(
                        "recovery time: walk {:.3} ms, decode {:.3} ms, apply {:.3} ms",
                        ms("recovery.walk_nanos"),
                        ms("recovery.decode_nanos"),
                        ms("recovery.apply_nanos")
                    );
                }
            }
            "\\save" => {
                let path = arg1.ok_or("usage: \\save FILE")?;
                let image = self.wh.save().map_err(|e| e.to_string())?;
                std::fs::write(path, &image).map_err(|e| e.to_string())?;
                println!("saved {} bytes to {path}", image.len());
                if let Some(wal) = self.wh.wal_bytes() {
                    let wal_path = format!("{path}.wal");
                    std::fs::write(&wal_path, wal).map_err(|e| e.to_string())?;
                    println!("saved {} change-log bytes to {wal_path}", wal.len());
                }
            }
            "\\restore" => {
                let path = arg1.ok_or("usage: \\restore FILE")?;
                let image = std::fs::read(path).map_err(|e| e.to_string())?;
                self.wh = self
                    .builder()
                    .restore(self.db.catalog(), &image)
                    .map_err(|e| e.to_string())?;
                println!("restored {} summaries", self.wh.summaries().count());
            }
            "\\recover" => {
                let path = arg1.ok_or("usage: \\recover FILE (reads FILE and FILE.wal)")?;
                let image = std::fs::read(path).map_err(|e| e.to_string())?;
                let wal = std::fs::read(format!("{path}.wal")).map_err(|e| e.to_string())?;
                self.wh = self
                    .builder()
                    .recover(self.db.catalog(), &image, &wal)
                    .map_err(|e| e.to_string())?;
                println!(
                    "recovered {} summaries (log replayed; {} batch(es) dead-lettered)",
                    self.wh.summaries().count(),
                    self.wh.dead_letters().len()
                );
                for warning in self.wh.recovery_warnings() {
                    println!("warning: {warning}");
                }
            }
            other => return Err(format!("unknown command {other}; try \\help")),
        }
        Ok(())
    }
}
