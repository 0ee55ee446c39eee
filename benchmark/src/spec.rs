//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are stated. The binary reads them from
//! here, so what it prints cannot drift from the contract file.

use crate::json::Json;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics that depend on the inputs only, never on the clock:
/// two runs of one build with one seed must report them bit for bit.
pub const EXACT: &[&str] = &["detail_bytes_per_source_byte", "wal_bytes_per_change"];

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    pub fn is_exact(&self) -> bool {
        EXACT.contains(&self.name.as_str())
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: '{key}' must be a list"))
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: metric without '{field}'"))
                    .to_owned()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in manifest. A malformed manifest is a bug in
    /// this repository, not an input error, hence the panics.
    pub fn load() -> Spec {
        let doc = Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn manifest_names_the_workloads_this_binary_runs() {
        let spec = Spec::load();
        let doc = Json::parse(MANIFEST).unwrap();
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for exact in EXACT {
            assert!(spec.end_to_end.iter().any(|m| m.name == *exact));
        }
    }
}
