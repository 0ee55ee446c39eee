//! The span tracer: RAII spans recorded into one bounded ring buffer and
//! exported as Chrome trace-event JSON.
//!
//! Recording is safe from any thread: each thread owns a small integer id
//! (assigned once, used as the trace `tid`), and the hot path when tracing
//! is *off* is a single relaxed load. Every span becomes a Chrome
//! *complete* event (`"ph":"X"`); the viewer nests events on the same
//! `tid` by time containment, which matches RAII scoping exactly.
//!
//! The ring is bounded: when it is full the oldest events are dropped (and
//! counted), so a long-running warehouse cannot grow without bound.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Event capacity of the ring; the oldest events are dropped beyond it.
const CAPACITY: usize = 65_536;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's stable small trace id (Chrome `tid`).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// A span field value: unsigned, signed, or string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned quantity (counts, bytes, nanoseconds).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A free-form string (summary names, table names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span, as stored in the ring.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Static span name (`maintain.prepare`).
    pub name: &'static str,
    /// Recording thread's trace id.
    pub tid: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached key/value fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    epoch: Instant,
    ring: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

/// The shared span recorder. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty, disabled tracer.
    pub(crate) fn new() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                epoch: Instant::now(),
                ring: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording. In-flight spans opened while
    /// enabled still record on drop.
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Opens a span. Disabled tracers hand out an inert guard — no
    /// allocation, no clock read.
    #[inline]
    pub(crate) fn span(&self, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(ActiveSpan {
                tracer: self.clone(),
                name,
                start_ns: self.now_ns(),
                fields: Vec::new(),
            }),
        }
    }

    /// Nanoseconds since this tracer's construction.
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Recorded events.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// `true` when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    fn ring(&self) -> MutexGuard<'_, VecDeque<TraceEvent>> {
        self.inner.ring.lock().expect("trace ring poisoned")
    }

    fn record(&self, event: TraceEvent) {
        let mut ring = self.ring();
        if ring.len() >= CAPACITY {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Every recorded event, sorted by `(start_ns, tid, name)` so export
    /// order is deterministic for a given set of spans.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.ring().iter().cloned().collect();
        all.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        all
    }

    /// Exports the buffer as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto "JSON object" format). Timestamps
    /// and durations are microseconds with nanosecond precision; each
    /// span's category is its name's leading `subsystem.` segment.
    pub(crate) fn chrome_json(&self) -> String {
        let events = self.events();
        let mut out = String::new();
        out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
        let _ = write!(
            out,
            "    {{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"mindetail\"}}}}"
        );
        for e in &events {
            out.push_str(",\n");
            let cat = e.name.split('.').next().unwrap_or("obs");
            let _ = write!(
                out,
                "    {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {}.{:03}, \"dur\": {}.{:03}",
                json_quote(e.name),
                json_quote(cat),
                e.tid,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
            );
            if !e.fields.is_empty() {
                out.push_str(", \"args\": {");
                for (i, (k, v)) in e.fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: ", json_quote(k));
                    match v {
                        FieldValue::U64(n) => {
                            let _ = write!(out, "{n}");
                        }
                        FieldValue::I64(n) => {
                            let _ = write!(out, "{n}");
                        }
                        FieldValue::Str(s) => out.push_str(&json_quote(s)),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// JSON string escaping (same conventions as `md-check`'s emitter).
pub(crate) fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct ActiveSpan {
    tracer: Tracer,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An RAII span guard: records a complete event covering its lifetime
/// when dropped. Inert (and free) when the tracer is disabled.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Attaches a key/value field. On an inert span the value is never
    /// converted — a disabled `field("summary", name)` does not allocate.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(active) = &mut self.active {
            active.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = active.tracer.now_ns();
        let event = TraceEvent {
            name: active.name,
            tid: current_tid(),
            start_ns: active.start_ns,
            dur_ns: end.saturating_sub(active.start_ns),
            fields: active.fields,
        };
        active.tracer.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> Tracer {
        let t = Tracer::new();
        t.set_enabled(true);
        t
    }

    #[test]
    fn spans_record_duration_and_fields() {
        let t = enabled();
        {
            let _s = t
                .span("maintain.prepare")
                .field("summary", "product_sales")
                .field("changes", 7u64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let events = t.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "maintain.prepare");
        assert!(e.dur_ns >= 1_000_000, "slept 1ms, got {}ns", e.dur_ns);
        assert_eq!(
            e.fields,
            vec![
                ("summary", FieldValue::Str("product_sales".into())),
                ("changes", FieldValue::U64(7)),
            ]
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let t = Tracer::new();
        let s = t.span("x").field("k", 1u64);
        assert!(s.active.is_none());
        drop(s);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn worker_threads_record_concurrently() {
        let t = enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let _span = t.span("maintain.prepare");
                    }
                });
            }
        });
        assert_eq!(t.len(), 400);
        // Distinct tids were assigned.
        let tids: std::collections::BTreeSet<u64> = t.events().iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 2, "expected multiple worker tids");
    }

    #[test]
    fn chrome_json_shape() {
        let t = enabled();
        {
            let _outer = t.span("warehouse.apply_batch").field("changes", 2u64);
            let _inner = t.span("maintain.prepare").field("summary", "v");
        }
        let json = t.chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"warehouse.apply_batch\""));
        assert!(json.contains("\"cat\": \"maintain\""));
        assert!(json.contains("\"summary\": \"v\""));
        // Metadata record present exactly once.
        assert_eq!(json.matches("process_name").count(), 1);
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn rings_are_bounded() {
        let t = enabled();
        // Overfill the ring.
        for _ in 0..(CAPACITY + 10) {
            let _s = t.span("x");
        }
        assert!(t.len() <= CAPACITY);
        assert!(t.dropped() >= 10);
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
