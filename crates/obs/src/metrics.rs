//! The metrics registry: named counters, gauges and log₂ histograms.
//!
//! Handles are obtained once (at subsystem construction) and updated
//! lock-free thereafter — every handle is an `Arc` around atomics, so the
//! registry mutex is touched only at registration and snapshot time.
//! Metric names follow the workspace's dotted scheme
//! (`subsystem.measurement[_unit]`, e.g. `maintain.prepare_nanos`);
//! labels distinguish instances (`{summary="product_sales"}`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two
/// (`2⁰ … 2⁶³`), so every `u64` lands in exactly one bucket.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index of a value: 0 for 0, else `⌊log₂ v⌋ + 1`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// The inclusive upper bound of bucket `i`: 0 for bucket 0, else `2ⁱ − 1`.
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing counter. Always live: counters back the
/// engine and scheduler stats structs, which must count in every
/// observability mode. It only counts up — a scrape never sees it go
/// down, so no reader mistakes a rolled-back batch for a restart.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depths, row counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log₂ histogram. The handle records only when its
/// registry was built with metrics enabled — in off mode `observe` is a
/// single branch.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    enabled: bool,
}

impl Default for Histogram {
    /// A disabled histogram not registered anywhere.
    fn default() -> Self {
        Histogram {
            cell: Arc::new(HistogramCell::new()),
            enabled: false,
        }
    }
}

impl Histogram {
    /// Records one observation (no-op when disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !self.enabled {
            return;
        }
        self.cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state (individual loads
    /// are relaxed; exact cross-field consistency is not required for
    /// monitoring output).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.cell.buckets[i].load(Ordering::Relaxed)),
            count: self.cell.count.load(Ordering::Relaxed),
            sum: self.cell.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a histogram's buckets, mergeable and renderable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts: bucket 0 holds 0, bucket `i > 0`
    /// holds `2ⁱ⁻¹ ..= 2ⁱ − 1`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merges another histogram into this one, bucket by bucket — the
    /// per-shard / per-summary aggregation primitive.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The index of the highest non-empty bucket, if any observation was
    /// recorded. Renderers stop emitting buckets past this point.
    pub(crate) fn highest_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

/// One metric's identity: its dotted name plus rendered labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    /// Dotted metric name (`maintain.rows_processed`).
    pub name: String,
    /// Rendered label set (`{summary="product_sales"}`), empty when
    /// unlabeled. Labels are sorted by key at registration.
    pub labels: String,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut sorted: Vec<(&str, &str)> = labels.to_vec();
        sorted.sort();
        let labels = if sorted.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{{{}}}", pairs.join(","))
        };
        MetricKey {
            name: name.to_owned(),
            labels,
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.name, self.labels)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// The shared metric store. Cloning shares the underlying maps; the
/// mutex guards registration and snapshotting only — updates through the
/// returned handles never take it.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
    metrics_enabled: bool,
}

impl MetricsRegistry {
    /// An empty registry. `metrics_enabled` governs whether histogram
    /// handles record (counters and gauges always do).
    pub(crate) fn new(metrics_enabled: bool) -> Self {
        MetricsRegistry {
            inner: Arc::new(Mutex::new(RegistryInner::default())),
            metrics_enabled,
        }
    }

    /// The counter registered under `name`/`labels`, created on first use.
    pub(crate) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(key).or_default().clone()
    }

    /// The gauge registered under `name`/`labels`, created on first use.
    pub(crate) fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(key).or_default().clone()
    }

    /// The histogram registered under `name`/`labels`, created on first
    /// use. Recording is enabled iff the registry was built with metrics
    /// enabled.
    pub(crate) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let enabled = self.metrics_enabled;
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram {
                cell: Arc::new(HistogramCell::new()),
                enabled,
            })
            .clone()
    }

    /// A point-in-time copy of every registered metric, in name order —
    /// the input to the renderers.
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole registry, deterministically ordered.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegistrySnapshot {
    /// Counter values, in `(name, labels)` order.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values, in `(name, labels)` order.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram snapshots, in `(name, labels)` order.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        // Exact powers of two open a new bucket; `2ⁱ − 1` closes one.
        for i in 1..63usize {
            let p = 1u64 << i;
            assert_eq!(bucket_index(p), i + 1, "2^{i}");
            assert_eq!(bucket_index(p - 1), i, "2^{i} - 1");
            assert_eq!(bucket_upper_bound(i), p - 1);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("t", &[]);
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 2 + 3 + 1024).wrapping_add(u64::MAX)
        );
        assert_eq!(s.highest_bucket(), Some(64));
        assert_eq!(HistogramSnapshot::default().highest_bucket(), None);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let reg = MetricsRegistry::new(true);
        let a = reg.histogram("a", &[]);
        let b = reg.histogram("b", &[]);
        a.observe(0);
        a.observe(5);
        b.observe(5);
        b.observe(300);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.buckets[0], 1);
        assert_eq!(merged.buckets[bucket_index(5)], 2);
        assert_eq!(merged.buckets[bucket_index(300)], 1);
        assert_eq!(merged.sum, 310);
        // Merge commutes.
        let mut other = b.snapshot();
        other.merge(&a.snapshot());
        assert_eq!(merged, other);
    }

    #[test]
    fn labels_are_sorted_and_rendered() {
        let key = MetricKey::new("m", &[("z", "1"), ("a", "2")]);
        assert_eq!(key.to_string(), "m{a=\"2\",z=\"1\"}");
        assert_eq!(MetricKey::new("m", &[]).to_string(), "m");
    }

    #[test]
    fn handles_share_cells_per_key() {
        let reg = MetricsRegistry::new(false);
        let c1 = reg.counter("x", &[("summary", "v")]);
        let c2 = reg.counter("x", &[("summary", "v")]);
        c1.add(3);
        c2.add(4);
        assert_eq!(c1.get(), 7);
        let other = reg.counter("x", &[("summary", "w")]);
        assert_eq!(other.get(), 0);
        let g = reg.gauge("depth", &[]);
        g.set(3);
        assert_eq!(reg.gauge("depth", &[]).get(), 3);
    }
}
