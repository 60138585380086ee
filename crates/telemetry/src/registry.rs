//! Named metrics with label sets: the scrape-side index over the hot-side
//! primitives.
//!
//! Registration (setup time, control plane) takes a mutex and allocates;
//! the returned handles ([`Counter`], [`Gauge`], [`crate::Histogram`]) are
//! `Arc`s the hot path records into with relaxed atomics, never touching
//! the registry again. [`Registry::scope`] pins a label set onto every
//! metric registered through it — one scope per engine is the seam a
//! multi-tenant fleet hangs per-tenant views on.
//!
//! [`Registry::snapshot`] freezes every registered metric into a
//! [`RegistrySnapshot`], which [`RegistrySnapshot::to_prometheus_text`]
//! renders as the text exposition.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSummary};

/// A monotonically increasing counter. Lock- and allocation-free.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-write-wins gauge storing an `f64`. Lock- and allocation-free.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// The handle kinds a registry can hold.
#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl MetricHandle {
    fn type_name(&self) -> &'static str {
        match self {
            MetricHandle::Counter(_) => "counter",
            MetricHandle::Gauge(_) => "gauge",
            MetricHandle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    metric: MetricHandle,
}

/// Validates a metric name against the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok_first = |c: char| c.is_ascii_alphabetic() || c == '_' || c == ':';
    let valid = match chars.next() {
        Some(c) => ok_first(c) && chars.all(|c| ok_first(c) || c.is_ascii_digit()),
        None => false,
    };
    assert!(valid, "invalid metric name {name:?}");
}

/// Validates a label key (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn validate_label_key(key: &str) {
    let mut chars = key.chars();
    let ok_first = |c: char| c.is_ascii_alphabetic() || c == '_';
    let valid = match chars.next() {
        Some(c) => ok_first(c) && chars.all(|c| ok_first(c) || c.is_ascii_digit()),
        None => false,
    };
    assert!(valid, "invalid label key {key:?}");
}

/// The metric index: names, labels and help strings mapping to live metric
/// handles. Cheap to share (`&Registry` everywhere); interior mutex guards
/// registration and snapshotting only.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registration scope whose `labels` are prepended to every metric
    /// registered through it.
    pub fn scope<'r>(&'r self, labels: &[(&str, &str)]) -> Scope<'r> {
        for (k, _) in labels {
            validate_label_key(k);
        }
        Scope {
            registry: self,
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        }
    }

    /// Registers (or retrieves) a counter. Re-registering the same
    /// `(name, labels)` returns the existing handle.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name/label key, or if `name` is already
    /// registered with a different metric type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || {
            MetricHandle::Counter(Arc::new(Counter::new()))
        }) {
            MetricHandle::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or retrieves) a gauge. Same contract as
    /// [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || {
            MetricHandle::Gauge(Arc::new(Gauge::new()))
        }) {
            MetricHandle::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or retrieves) a histogram. Same contract as
    /// [`Registry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, labels, || {
            MetricHandle::Histogram(Arc::new(Histogram::new()))
        }) {
            MetricHandle::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        validate_name(name);
        for (k, _) in labels {
            validate_label_key(k);
        }
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        let mut entries = self.entries.lock().expect("registry poisoned");
        // One metric type per family name, across all label sets.
        let fresh = make();
        if let Some(existing) = entries.iter().find(|e| e.name == name) {
            assert_eq!(
                existing.metric.type_name(),
                fresh.type_name(),
                "metric family {name} registered with conflicting types"
            );
        }
        if let Some(existing) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return existing.metric.clone();
        }
        entries.push(Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            metric: fresh.clone(),
        });
        fresh
    }

    /// Freezes every registered metric into a deterministic, ordered
    /// snapshot (sorted by name then labels).
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut metrics: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                value: match &e.metric {
                    MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
                    MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
                    MetricHandle::Histogram(h) => MetricValue::Histogram(h.summary()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        RegistrySnapshot { metrics }
    }
}

/// A registration scope: a [`Registry`] reference plus a pinned label set.
#[derive(Debug)]
pub struct Scope<'r> {
    registry: &'r Registry,
    labels: Vec<(String, String)>,
}

impl Scope<'_> {
    fn merged<'a>(&'a self, extra: &'a [(&str, &str)]) -> Vec<(&'a str, &'a str)> {
        self.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
            .collect()
    }

    /// [`Registry::counter`] with the scope's labels prepended.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.registry.counter(name, help, &self.merged(labels))
    }

    /// [`Registry::gauge`] with the scope's labels prepended.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.registry.gauge(name, help, &self.merged(labels))
    }

    /// [`Registry::histogram`] with the scope's labels prepended.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.registry.histogram(name, help, &self.merged(labels))
    }
}

/// The frozen value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram scalar summary.
    Histogram(HistogramSummary),
}

/// One metric in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Family name.
    pub name: String,
    /// Sorted label set.
    pub labels: Vec<(String, String)>,
    /// Help string (from the first registration of the family).
    pub help: String,
    /// Frozen value.
    pub value: MetricValue,
}

/// A deterministic, ordered freeze of a whole [`Registry`] — what the
/// exporter renders and alert rules evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Metrics sorted by `(name, labels)` so families are contiguous.
    pub metrics: Vec<MetricSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn reregistration_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("hits_total", "hits", &[("shard", "0")]);
        let b = r.counter("hits_total", "hits", &[("shard", "0")]);
        a.inc();
        assert_eq!(b.get(), 1, "same (name, labels) must share storage");
        let other = r.counter("hits_total", "hits", &[("shard", "1")]);
        assert_eq!(other.get(), 0);
        assert_eq!(r.snapshot().metrics.len(), 2);
    }

    #[test]
    #[should_panic(expected = "conflicting types")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        let _ = r.counter("x_total", "", &[]);
        let _ = r.gauge("x_total", "", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        let _ = Registry::new().counter("9bad", "", &[]);
    }

    #[test]
    fn scope_labels_are_pinned() {
        let r = Registry::new();
        let scope = r.scope(&[("engine", "e0")]);
        let h = scope.histogram("lat_ns", "latency", &[("stage", "synth")]);
        h.record(10);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(
            snap.metrics[0].labels,
            vec![
                ("engine".to_string(), "e0".to_string()),
                ("stage".to_string(), "synth".to_string())
            ]
        );
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let r = Registry::new();
        let _ = r.counter("z_total", "", &[]);
        let _ = r.counter("a_total", "", &[("k", "2")]);
        let _ = r.counter("a_total", "", &[("k", "1")]);
        let names: Vec<_> = r
            .snapshot()
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.labels.clone()))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
