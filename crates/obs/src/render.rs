//! Deterministic renderers for a [`RegistrySnapshot`]: Prometheus-style
//! text exposition and hand-rolled JSON (the workspace has no serde; the
//! conventions — fixed field order, 2-space indent, the same string
//! escaping — follow `md-check`'s diagnostics JSON).
//!
//! Metric names keep the workspace's dotted scheme verbatim; the text
//! format is Prometheus *style* (TYPE comments, `{label="v"}` sets,
//! cumulative `le` histogram buckets), not strict Prometheus naming.

use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, HistogramSnapshot, MetricKey, RegistrySnapshot};
use crate::trace::json_quote;

/// Renders the snapshot as Prometheus-style text exposition. Counters
/// first, then gauges, then histograms, each in `(name, labels)` order;
/// a `# TYPE` line precedes each distinct metric name.
pub(crate) fn prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_type_line = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let line = format!("# TYPE {name} {kind}\n");
        if line != last_type_line {
            out.push_str(&line);
            last_type_line = line;
        }
    };
    for (key, value) in &snap.counters {
        type_line(&mut out, &key.name, "counter");
        let _ = writeln!(out, "{key} {value}");
    }
    for (key, value) in &snap.gauges {
        type_line(&mut out, &key.name, "gauge");
        let _ = writeln!(out, "{key} {value}");
    }
    for (key, hist) in &snap.histograms {
        type_line(&mut out, &key.name, "histogram");
        render_histogram_text(&mut out, key, hist);
    }
    out
}

/// Cumulative `le`-style buckets. Empty buckets are elided (their
/// cumulative value is readable from the previous line); every histogram
/// still gets its `+Inf`, `_sum` and `_count`.
fn render_histogram_text(out: &mut String, key: &MetricKey, hist: &HistogramSnapshot) {
    let labels = &key.labels;
    let inner = labels
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or("");
    let with = |extra: String| {
        if inner.is_empty() {
            format!("{{{extra}}}")
        } else {
            format!("{{{inner},{extra}}}")
        }
    };
    let mut cumulative = 0u64;
    for (i, count) in hist.buckets.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        cumulative += count;
        let _ = writeln!(
            out,
            "{}_bucket{} {cumulative}",
            key.name,
            with(format!("le=\"{}\"", bucket_upper_bound(i)))
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        key.name,
        with("le=\"+Inf\"".to_owned()),
        hist.count
    );
    let _ = writeln!(out, "{}_sum{labels} {}", key.name, hist.sum);
    let _ = writeln!(out, "{}_count{labels} {}", key.name, hist.count);
}

/// Renders the snapshot as a JSON object with `counters`, `gauges` and
/// `histograms` arrays, fixed field order, deterministic for a given
/// snapshot.
pub(crate) fn json(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"counters\": [");
    for (i, (key, value)) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"name\": {}, \"labels\": {}, \"value\": {value}}}",
            json_quote(&key.name),
            json_quote(&key.labels)
        );
    }
    out.push_str(if snap.counters.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"gauges\": [");
    for (i, (key, value)) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"name\": {}, \"labels\": {}, \"value\": {value}}}",
            json_quote(&key.name),
            json_quote(&key.labels)
        );
    }
    out.push_str(if snap.gauges.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"histograms\": [");
    for (i, (key, hist)) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"name\": {}, \"labels\": {}, \"count\": {}, \"sum\": {}, \"buckets\": [",
            json_quote(&key.name),
            json_quote(&key.labels),
            hist.count,
            hist.sum
        );
        let mut first = true;
        if let Some(highest) = hist.highest_bucket() {
            for (b, count) in hist.buckets.iter().enumerate().take(highest + 1) {
                if *count == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"le\": {}, \"count\": {count}}}",
                    bucket_upper_bound(b)
                );
            }
        }
        out.push_str("]}");
    }
    out.push_str(if snap.histograms.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample() -> RegistrySnapshot {
        let reg = MetricsRegistry::new(true);
        reg.counter("sched.batches_applied", &[]).add(3);
        reg.counter("maintain.rows_processed", &[("summary", "product_sales")])
            .add(120);
        reg.gauge("deadletter.depth", &[]).set(2);
        let h = reg.histogram("wal.append_bytes", &[]);
        h.observe(0);
        h.observe(5);
        h.observe(5);
        h.observe(900);
        reg.snapshot()
    }

    #[test]
    fn prometheus_text_is_deterministic_and_cumulative() {
        let text = prometheus(&sample());
        assert_eq!(text, prometheus(&sample()));
        assert!(text.contains("# TYPE sched.batches_applied counter"));
        assert!(text.contains("sched.batches_applied 3"));
        assert!(text.contains("maintain.rows_processed{summary=\"product_sales\"} 120"));
        assert!(text.contains("deadletter.depth 2"));
        // Buckets are cumulative: le=0 → 1, le=7 → 3, +Inf → 4.
        assert!(
            text.contains("wal.append_bytes_bucket{le=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("wal.append_bytes_bucket{le=\"7\"} 3"),
            "{text}"
        );
        assert!(text.contains("wal.append_bytes_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("wal.append_bytes_sum 910"));
        assert!(text.contains("wal.append_bytes_count 4"));
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let j = json(&sample());
        assert_eq!(j, json(&sample()));
        assert!(j.contains("\"name\": \"wal.append_bytes\""));
        assert!(j.contains("{\"le\": 0, \"count\": 1}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn empty_snapshot_renders() {
        let empty = RegistrySnapshot::default();
        assert_eq!(prometheus(&empty), "");
        let j = json(&empty);
        assert!(j.contains("\"counters\": []"));
        assert!(j.contains("\"histograms\": []"));
    }
}
