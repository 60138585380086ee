//! # herqles-telemetry — allocation-free observability primitives
//!
//! The streaming QEC engine's hot path must not allocate, lock, or block —
//! yet a production readout service needs to *see* its own latency
//! distribution and event history. This crate provides the observation layer
//! under that constraint:
//!
//! * [`Histogram`] — a fixed-size, log-linear-bucketed latency histogram in
//!   the HDR style: every `u64` value maps to one of [`hist::N_BUCKETS`]
//!   atomic cells with ≤ [`hist::RELATIVE_ERROR`] relative error.
//!   [`Histogram::record`] is a handful of relaxed atomic operations — no
//!   locks, no allocation — and [`Histogram::quantile`] /
//!   [`Histogram::quantiles`] answer p50/p90/p99/max without allocating
//!   either. [`Histogram::merge`] folds shards together;
//!   [`Histogram::snapshot`] takes a consistent-enough copy for offline
//!   analysis.
//! * [`Registry`] — named counters/gauges/histograms with label sets.
//!   Registration (setup time) allocates; the returned [`Counter`],
//!   [`Gauge`] and [`Histogram`] handles are `Arc`s recorded into without
//!   ever touching the registry again. [`Registry::scope`] pins a label set
//!   (e.g. `engine="d5-f32-t4"`) — the seam a multi-tenant fleet hangs
//!   per-tenant views on.
//! * [`SpanRing`] — the flight recorder: a lock-free fixed-capacity ring
//!   of [`SpanEvent`]s, each with a begin timestamp, duration and *track
//!   id* (stage lane, pool worker, …) so causal timelines can be
//!   reconstructed exactly. Point events (health transitions, hot-swaps,
//!   alert fire/clear, …) are records of a point [`SpanKind`] with zero
//!   duration. [`SpanRing::record`] never blocks the hot path;
//!   [`SpanRing::snapshot_into`] drains an ordered, torn-write-free
//!   snapshot off it.
//! * [`ChromeTrace`] — renders ring snapshots as Chrome Trace Event Format
//!   JSON (`"X"` complete events for spans, `"I"` instants for point
//!   kinds, `"M"` track metadata) loadable in Perfetto or
//!   `chrome://tracing`.
//! * [`AlertEngine`] — declarative [`AlertRule`]s (quantile threshold,
//!   counter rate, gauge bound) evaluated over successive
//!   [`RegistrySnapshot`]s with hold/hysteresis debounce, stamping
//!   fire/clear point records and per-rule state gauges.
//! * Exporter — [`RegistrySnapshot::to_prometheus_text`] renders a
//!   snapshot in the Prometheus text exposition format.
//! * [`time`] — the one shared timing vocabulary: saturating
//!   [`time::duration_ns`], a process-global monotonic [`time::now_ns`],
//!   and the reusable [`StageTimer`] lap timer.
//!
//! The crate has no dependencies and uses only `std`.
//!
//! # Example
//!
//! ```
//! use herqles_telemetry::{Histogram, Registry};
//!
//! let registry = Registry::new();
//! let scope = registry.scope(&[("engine", "a")]);
//! let hist = scope.histogram("req_latency_ns", "request latency", &[]);
//! for v in [120u64, 140, 135, 90_000] {
//!     hist.record(v); // lock- and allocation-free
//! }
//! assert!(hist.quantile(0.5) >= 120 && hist.quantile(0.5) <= 141);
//! assert_eq!(hist.max(), 90_000);
//! let text = registry.snapshot().to_prometheus_text();
//! assert!(text.contains("req_latency_ns_count{engine=\"a\"} 4"));
//! ```

pub mod alert;
pub mod chrome;
pub mod export;
pub mod hist;
pub mod registry;
pub mod span;
pub mod time;

pub use alert::{AlertCondition, AlertEngine, AlertRule, AlertState, Quantile, RuleStatus};
pub use chrome::ChromeTrace;
pub use hist::{Histogram, HistogramSnapshot, HistogramSummary};
pub use registry::{Counter, Gauge, MetricValue, Registry, RegistrySnapshot, Scope};
pub use span::{SpanEvent, SpanKind, SpanRing};
pub use time::{duration_ns, now_ns, StageTimer};
