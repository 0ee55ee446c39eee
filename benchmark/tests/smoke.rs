//! `mdbench selfcheck --smoke`: every workload once untraced and once
//! traced, at a seconds scale. Checks shape and correctness only — every
//! metric `BENCHMARK.json` declares is reported, finite and nothing else
//! is, and each run's correctness gate passes — never a timing.

use std::path::Path;
use std::process::Command;

#[test]
fn every_workload_runs_correctly_in_both_modes() {
    // The benchmark writes under `benchmark/out/` of the directory it is
    // run from: run it from the repository root, as the contract does.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root");
    let output = Command::new(env!("CARGO_BIN_EXE_mdbench"))
        .args(["selfcheck", "--smoke"])
        .current_dir(root)
        .output()
        .expect("mdbench starts");
    assert!(
        output.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
