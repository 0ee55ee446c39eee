//! The shell's `\save` → `\recover` flow, driven through `--script`, and
//! its answer to a change log of the previous format.

use std::path::Path;
use std::process::Command;

use md_workload::views;

/// The same 644-byte version-1 image `tests/snapshot_robustness.rs` holds.
const CHANGE_LOG_V1: &[u8] = include_bytes!("../../../tests/fixtures/change_log_v1.bin");

/// Runs the shell over `script`; its standard output.
fn run_script(dir: &Path, name: &str, script: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, script).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mindetail"))
        .arg("--script")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn recover_replays_its_own_log_and_refuses_a_version_1_log() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("shell_recover");
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("now.img");
    let old = dir.join("old.img");
    let view = views::PRODUCT_SALES_MAX_SQL;

    let saved = run_script(
        &dir,
        "save.script",
        &format!("{view};\n\\churn 40\n\\save {}\n", image.display()),
    );
    assert!(saved.contains("change-log bytes to"), "{saved}");
    // The same image beside a log written before format version 2.
    std::fs::copy(&image, &old).unwrap();
    std::fs::write(dir.join("old.img.wal"), CHANGE_LOG_V1).unwrap();

    let out = run_script(
        &dir,
        "recover.script",
        &format!(
            "\\recover {}\n\\wal\n\\audit\n\\recover {}\n\\views\n\\audit\n",
            image.display(),
            old.display()
        ),
    );
    let (own, rest) = out
        .split_once("mindetail> \\recover")
        .unwrap()
        .1
        .split_once("mindetail> \\recover")
        .unwrap();
    assert!(own.contains("recovered 1 summaries"), "{out}");
    assert!(!own.contains("error:"), "{out}");
    // `\wal` splits the pass's time between its three phases.
    assert!(own.contains("recovery time: walk "), "{out}");
    // A typed refusal, and the warehouse recovered before it still serves.
    assert!(
        rest.contains("error: ") && rest.contains("unsupported version 1 (expected 2)"),
        "{out}"
    );
    assert!(!rest.contains("recovered"), "{out}");
    let views = rest.split_once("mindetail> \\views").unwrap().1;
    assert!(views.contains("product_sales_max: clean"), "{out}");
    assert!(!views.contains("error:"), "{out}");
}

/// `\sched` reads each summary's time from its histograms, which record
/// only under the metrics the shell always runs with: after one batch the
/// summary's line shows a prepare time above zero.
#[test]
fn sched_shows_each_summarys_prepare_time_after_a_batch() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("shell_sched");
    std::fs::create_dir_all(&dir).unwrap();
    let view = views::PRODUCT_SALES_MAX_SQL;
    let out = run_script(
        &dir,
        "sched.script",
        &format!("{view};\n\\churn 40\n\\sched\n"),
    );
    let sched = out.split_once("mindetail> \\sched").unwrap().1;
    assert!(sched.contains("batches applied: 1"), "{out}");
    let line = sched
        .lines()
        .find(|l| l.trim_start().starts_with("product_sales_max "))
        .unwrap_or_else(|| panic!("no per-summary line: {out}"));
    let prepare = line
        .split_once("prepare")
        .unwrap()
        .1
        .split_whitespace()
        .next();
    assert!(prepare.is_some_and(|t| t != "0ns"), "{line}");
}
