//! Golden-file tests pinning the metric renderers byte-for-byte, in the
//! style of `crates/check/tests/golden/`: a fixed registry is rendered as
//! Prometheus-style text and as JSON and compared against the files in
//! `tests/golden/`. Re-bless after an intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p md-obs --test golden
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use md_obs::{render, MetricsRegistry};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn compare(path: &Path, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "golden mismatch for {}; re-bless with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

/// A registry exercising every renderer feature: labeled and unlabeled
/// counters, gauges (including negative), and histograms hitting the
/// boundary buckets (0, 1, powers of two, `u64::MAX`).
fn fixed_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new(true);
    reg.counter("batch.coalesce_annihilated", &[]).add(16);
    reg.counter("maintain.rows_processed", &[("summary", "product_sales")])
        .add(1200);
    reg.counter("maintain.rows_processed", &[("summary", "store_revenue")])
        .add(340);
    reg.counter("recovery.frames_replayed", &[]).add(1);
    reg.counter("recovery.frames_scanned", &[]).add(8);
    reg.counter("recovery.log_bytes_scanned", &[]).add(4096);
    reg.counter("sched.batches_applied", &[]).add(12);
    reg.gauge("aux.rows_after_compression", &[]).set(4821);
    reg.gauge("deadletter.depth", &[]).set(0);
    reg.gauge("obs.balance", &[]).set(-3);
    reg.gauge("relation.chunk_count", &[]).set(7);
    reg.gauge("relation.chunk_fill", &[]).set(93);
    let prepare = reg.histogram("maintain.prepare_nanos", &[("summary", "product_sales")]);
    for v in [0, 1, 2, 4, 1023, 1024, 65_536] {
        prepare.observe(v);
    }
    let wal = reg.histogram("wal.append_bytes", &[]);
    for v in [128, 128, 256, u64::MAX] {
        wal.observe(v);
    }
    // Registered but never observed: renders with +Inf/sum/count only.
    reg.histogram("maintain.commit_nanos", &[("summary", "product_sales")]);
    reg
}

#[test]
fn golden_prometheus_text() {
    let snap = fixed_registry().snapshot();
    let text = render::prometheus(&snap);
    assert_eq!(text, render::prometheus(&snap), "nondeterministic");
    compare(&golden_dir().join("registry.prom"), &text);
}

#[test]
fn golden_json() {
    let snap = fixed_registry().snapshot();
    let json = render::json(&snap);
    assert_eq!(json, render::json(&snap), "nondeterministic");
    compare(&golden_dir().join("registry.json"), &json);
}

#[test]
fn merged_histograms_render_identically_to_combined_observations() {
    // Observing {a ∪ b} into one histogram must equal merging the two —
    // the property the per-summary → warehouse-level rollups rely on.
    let reg = MetricsRegistry::new(true);
    let a = reg.histogram("a", &[]);
    let b = reg.histogram("b", &[]);
    let c = reg.histogram("c", &[]);
    for v in [0u64, 3, 900] {
        a.observe(v);
        c.observe(v);
    }
    for v in [1u64, 3, 1 << 40] {
        b.observe(v);
        c.observe(v);
    }
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    assert_eq!(merged, c.snapshot());
}
