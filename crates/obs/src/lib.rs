//! # `md-obs` — observability for the maintenance pipeline
//!
//! A zero-external-dependency observability layer shared by every runtime
//! crate. Three pillars:
//!
//! * **Span tracing** ([`Tracer`], [`Span`]) — cheap RAII spans with static names and
//!   key/value fields, recorded into one bounded ring buffer and
//!   exportable as Chrome trace-event JSON (loadable in `chrome://tracing`
//!   or Perfetto), so an `apply_batch` can be profiled end to end:
//!   coalescing, the prepare pass, WAL append, commit.
//! * **Metrics registry** ([`Counter`], [`Gauge`], [`Histogram`]) — named
//!   counters, gauges and fixed-bucket log₂ histograms
//!   (`maintain.prepare_nanos`, `wal.append_bytes`, …), rendered as
//!   Prometheus-style text exposition or JSON
//!   ([`Obs::render_prometheus`], [`Obs::render_json`]).
//! * **The [`Obs`] handle** — one cheaply clonable façade over both,
//!   configured once via [`ObsConfig`] and handed to every subsystem.
//!   [`ObsConfig::off`] (the default) reduces every instrumentation call
//!   to a branch: disabled spans allocate nothing and disabled histograms
//!   skip their atomics. Counters stay live in every mode: each
//!   measurement is recorded once, here, and the engine/scheduler stats
//!   structs are views over the counters the benchmark reads.
//!
//! ```
//! use md_obs::{Obs, ObsConfig};
//!
//! let obs = Obs::new(ObsConfig::full());
//! let batches = obs.counter("sched.batches_applied", &[]);
//! {
//!     let _span = obs.span("warehouse.apply_batch").field("changes", 3u64);
//!     batches.incr();
//! }
//! assert_eq!(batches.get(), 1);
//! assert!(obs.render_prometheus().contains("sched.batches_applied 1"));
//! assert!(obs.trace_json().contains("warehouse.apply_batch"));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]
#![warn(rust_2018_idioms)]

mod metrics;
mod render;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use trace::{FieldValue, Span, TraceEvent, Tracer};

use metrics::MetricsRegistry;

/// Construction-time observability configuration.
///
/// * `off()` — spans and histograms are branch-only no-ops; counters and
///   gauges stay live.
/// * `metrics()` — histograms record; tracing stays off (toggleable).
/// * `full()` — histograms record and tracing starts enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record histogram observations (counters/gauges are always live).
    pub metrics: bool,
    /// Start with span tracing enabled ([`Obs::set_tracing`] can flip it
    /// at runtime in any configuration).
    pub tracing: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

impl ObsConfig {
    /// Near-zero-cost mode: no histograms, no tracing. The default.
    pub fn off() -> Self {
        ObsConfig {
            metrics: false,
            tracing: false,
        }
    }

    /// Metrics only: histograms record, tracing starts disabled.
    pub fn metrics() -> Self {
        ObsConfig {
            metrics: true,
            tracing: false,
        }
    }

    /// Everything on: histograms record and tracing starts enabled.
    pub fn full() -> Self {
        ObsConfig {
            metrics: true,
            tracing: true,
        }
    }
}

/// The shared observability handle: a metrics registry plus a span tracer
/// behind one cheap clone (two `Arc`s). Every subsystem holds one; all
/// clones observe into the same registry and trace buffer.
#[derive(Debug, Clone)]
pub struct Obs {
    registry: MetricsRegistry,
    tracer: Tracer,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl Obs {
    /// Creates a fresh handle under `config`.
    pub fn new(config: ObsConfig) -> Self {
        let tracer = Tracer::new();
        tracer.set_enabled(config.tracing);
        Obs {
            registry: MetricsRegistry::new(config.metrics),
            tracer,
        }
    }

    /// The default disabled handle ([`ObsConfig::off`]).
    pub fn noop() -> Self {
        Obs::new(ObsConfig::off())
    }

    /// Enables or disables span recording at runtime (the shell's
    /// `\trace on|off`).
    pub fn set_tracing(&self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// The underlying span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A live counter handle, registered under `name` and `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry.counter(name, labels)
    }

    /// A live gauge handle, registered under `name` and `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.registry.gauge(name, labels)
    }

    /// A histogram handle, registered under `name` and `labels`. The
    /// handle records only when the configuration enables metrics.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.registry.histogram(name, labels)
    }

    /// Opens an RAII span named `name`. When tracing is off this is a
    /// branch and returns an inert guard; when on, the span records its
    /// wall-clock duration from now until drop.
    pub fn span(&self, name: &'static str) -> Span {
        self.tracer.span(name)
    }

    /// Renders the registry as Prometheus-style text exposition.
    pub fn render_prometheus(&self) -> String {
        render::prometheus(&self.registry.snapshot())
    }

    /// Renders the registry as JSON (same hand-rolled conventions as
    /// `md-check`'s diagnostics JSON: fixed field order, 2-space indent).
    pub fn render_json(&self) -> String {
        render::json(&self.registry.snapshot())
    }

    /// Exports every recorded span as Chrome trace-event JSON.
    pub fn trace_json(&self) -> String {
        self.tracer.chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_disables_histograms_and_tracing() {
        let obs = Obs::noop();
        assert!(!obs.tracer().is_enabled());
        let h = obs.histogram("maintain.prepare_nanos", &[]);
        h.observe(42);
        assert_eq!(h.snapshot().count, 0, "disabled histogram must not record");
        {
            let _s = obs.span("warehouse.apply_batch");
        }
        assert_eq!(obs.tracer().len(), 0, "disabled tracer must not record");
        // Counters are always live.
        let c = obs.counter("sched.batches_applied", &[]);
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn tracing_toggles_at_runtime() {
        let obs = Obs::new(ObsConfig::metrics());
        assert!(!obs.tracer().is_enabled());
        obs.set_tracing(true);
        {
            let _s = obs.span("maintain.prepare");
        }
        obs.set_tracing(false);
        {
            let _s = obs.span("maintain.prepare");
        }
        assert_eq!(obs.tracer().len(), 1);
    }

    #[test]
    fn clones_share_registry_and_tracer() {
        let obs = Obs::new(ObsConfig::full());
        let clone = obs.clone();
        clone.counter("a", &[]).add(7);
        assert_eq!(obs.counter("a", &[]).get(), 7);
        {
            let _s = clone.span("x");
        }
        assert_eq!(obs.tracer().len(), 1);
    }
}
