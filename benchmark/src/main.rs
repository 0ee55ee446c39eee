//! `mdbench` — the repository's one benchmark.
//!
//! ```text
//! mdbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! mdbench selfcheck [--runs N] [--seed S] [--seconds N] [--smoke]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of its standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`. Without
//! `--workload` it runs every workload, each in a child process of its
//! own (so `peak_rss_mb` is per workload), untraced and then traced.
//! `selfcheck` runs two interleaved sets of the same build and fails
//! unless they agree within the bounds `BENCHMARK.json` states.
//!
//! See `README.md` beside this package for the metric → layer → workload
//! table and how to read the files under `benchmark/out/`.

mod gen;
mod host;
mod hostspeed;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use json::Json;
use run::{Outcome, RunArgs};
use spec::{MetricSpec, Spec};
use workloads::WORKLOADS;

/// The seed runs use unless told otherwise (the paper's year).
const DEFAULT_SEED: u64 = 1998;

/// Where result and trace files go, relative to the checkout root the
/// benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_cli(args: &[String], spec: &Spec) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_owned()),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--runs" => cli.runs = number(value()?)?.max(1) as usize,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn unit_of(spec: &Spec, name: &str) -> String {
    spec.end_to_end
        .iter()
        .chain(&spec.per_layer)
        .find(|m| m.name == name)
        .map_or_else(|| "?".to_owned(), |m| m.unit.clone())
}

/// Every declared metric of the mode must be there, finite, and nothing else.
fn check_shape(declared: &[MetricSpec], metrics: &[(&str, f64)]) -> Result<(), String> {
    for m in declared {
        match metrics.iter().filter(|(n, _)| *n == m.name).count() {
            1 => {}
            n => return Err(format!("metric '{}' reported {n} times", m.name)),
        }
    }
    for (name, value) in metrics {
        if !declared.iter().any(|m| m.name == *name) {
            return Err(format!("metric '{name}' is not in BENCHMARK.json"));
        }
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not a finite number: {value}"));
        }
    }
    Ok(())
}

fn print_metrics(spec: &Spec, outcome: &Outcome) {
    println!(
        "{:<42} {:>18} {:<7} {:>5} {:>6}",
        "metric", "value", "unit", "n", "bound"
    );
    for (name, value) in &outcome.metrics {
        let n = outcome
            .samples
            .iter()
            .find(|(m, _)| m == name)
            .map_or("1".to_owned(), |(_, n)| n.to_string());
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == *name)
            .and_then(|m| m.bound)
            .map_or("-".to_owned(), |b| b.to_string());
        println!(
            "{name:<42} {value:>18.6} {:<7} {n:>5} {bound:>6}",
            unit_of(spec, name)
        );
    }
}

/// Runs one workload in this process; prints the result line last.
fn run_one(spec: &Spec, cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let outcome = run::run(&args)?;
    let declared = if cli.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    check_shape(declared, &outcome.metrics)?;

    println!(
        "mdbench {name}: seed={} seconds={} trace={} nproc={} workers={}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        host::nproc(),
        workload.workers.count()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    print_metrics(spec, &outcome);

    let units = |metric: &str| unit_of(spec, metric);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let kind = if cli.trace { "layers" } else { "result" };
    let path = Path::new(OUT_DIR).join(format!("{kind}-{name}.json"));
    std::fs::write(&path, run::record_json(&args, &outcome, &units))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(trace) = outcome.layers.as_ref().map(|l| &l.trace_json) {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        run::metrics_json(&outcome.metrics, &units)
    );
    Ok(outcome.correct)
}

/// What a child run printed last.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs `mdbench run --workload …` as a child and waits for it. With
/// `echo` the child's report is passed through.
fn run_child(cli: &Cli, workload: &str, trace: bool, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}\n");
    }
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit {:?}; stderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        metrics,
    })
}

/// Every workload, untraced then traced, each run a process of its own.
fn run_all(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    let mut table: Vec<(&str, ChildResult)> = Vec::new();
    for w in WORKLOADS {
        let measured = run_child(cli, w.name, false, true)?;
        let traced = run_child(cli, w.name, true, true)?;
        all_correct &= measured.correct && traced.correct;
        table.push((w.name, measured));
    }
    println!("end-to-end, by workload (seed {}):", cli.seed);
    print!("{:<30}", "metric [unit]");
    for (name, _) in &table {
        print!(" {name:>14}");
    }
    println!();
    for m in &spec.end_to_end {
        print!("{:<30}", format!("{} [{}]", m.name, m.unit));
        for (_, result) in &table {
            match result.metrics.iter().find(|(n, _)| *n == m.name) {
                Some((_, v)) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    println!("files: {OUT_DIR}/{{result,layers,trace}}-<workload>.json");
    Ok(all_correct)
}

/// Seconds-scale: every workload, both modes, shape and correctness only.
fn smoke(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            // `run_one` in the child has already checked the shape.
            let result = run_child(cli, w.name, trace, false)?;
            println!(
                "smoke {:<14} trace={} {}",
                w.name,
                u8::from(trace),
                if result.correct { "ok" } else { "FAILED" }
            );
            ok &= result.correct;
        }
    }
    Ok(ok)
}

/// Two interleaved sets (A, B) of `--runs` runs per workload of the same
/// build. Exact metrics must be identical across all runs; each timing
/// metric's two medians must agree within its bound.
fn selfcheck(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    if cli.smoke {
        return smoke(cli);
    }
    // values[workload][metric][set] = samples
    let mut values: Vec<Vec<[Vec<f64>; 2]>> = WORKLOADS
        .iter()
        .map(|_| spec.end_to_end.iter().map(|_| [vec![], vec![]]).collect())
        .collect();
    let mut ok = true;
    for round in 0..cli.runs {
        // Alternate which set goes first, so a drift of the host over
        // the session does not favour one of them.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let result = run_child(cli, workload.name, false, false)?;
                ok &= result.correct;
                for (m, metric) in spec.end_to_end.iter().enumerate() {
                    let value = result
                        .metrics
                        .iter()
                        .find(|(n, _)| *n == metric.name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("{}: no {}", workload.name, metric.name))?;
                    values[w][m][set].push(value);
                }
                eprintln!(
                    "selfcheck: round {} set {} {} done",
                    round + 1,
                    ["A", "B"][set],
                    workload.name
                );
            }
        }
    }

    println!(
        "{:<14} {:<30} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "B vs A",
        "bound"
    );
    let quartiles = |v: &[f64]| {
        if v.len() < 2 {
            "-".to_owned()
        } else {
            let (q1, q3) = stats::quartiles(v);
            format!("{q1:.4}..{q3:.4}")
        }
    };
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in spec.end_to_end.iter().enumerate() {
            let [a, b] = &values[w][m];
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let bound = metric.bound.unwrap_or(0.0);
            let drift = (med_b - med_a) / med_a;
            let agrees = if metric.is_exact() {
                a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits())
            } else {
                drift.abs() <= bound
            };
            ok &= agrees;
            println!(
                "{:<14} {:<30} {:>12.4} {:>23} {:>12.4} {:>23} {:>+7.2}% {:>6}  {}",
                workload.name,
                metric.name,
                med_a,
                quartiles(a),
                med_b,
                quartiles(b),
                drift * 100.0,
                if metric.is_exact() {
                    "exact".to_owned()
                } else {
                    bound.to_string()
                },
                if agrees { "ok" } else { "DISAGREES" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: mdbench run|selfcheck [options]  (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let outcome = parse_cli(rest, &spec).and_then(|cli| match command.as_str() {
        "run" => match &cli.workload {
            Some(name) => run_one(&spec, &cli, name),
            None => run_all(&spec, &cli),
        },
        "selfcheck" => selfcheck(&spec, &cli),
        other => Err(format!("unknown command '{other}'")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("mdbench: FAILED (see the lines marked FAILED above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mdbench: {e}");
            ExitCode::from(2)
        }
    }
}
