//! Exporter: Prometheus text exposition of a [`RegistrySnapshot`].
//!
//! Histograms are exported in the Prometheus *summary* shape — quantile
//! sample lines (`0`=min, `0.5`, `0.9`, `0.99`, `1`=max) plus `_sum` and
//! `_count` — because the log-linear bucket table (7k+ buckets) is the
//! wrong granularity for a scrape.

use std::fmt::Write as _;

use crate::registry::{MetricValue, RegistrySnapshot};

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders `{k="v",…}` (empty string when there are no labels, including
/// the extras).
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, &mut out);
        out.push('"');
    }
    out.push('}');
    out
}

/// Renders a gauge value: integral values print without a fractional part
/// so counters-as-gauges stay readable.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers once per family,
    /// `name{labels} value` samples, histograms as summaries (see module
    /// docs).
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for m in &self.metrics {
            if last_family != Some(m.name.as_str()) {
                last_family = Some(m.name.as_str());
                let type_name = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "summary",
                };
                if !m.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", m.name, m.help.replace('\n', " "));
                }
                let _ = writeln!(out, "# TYPE {} {}", m.name, type_name);
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels, &[]), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        m.name,
                        label_block(&m.labels, &[]),
                        fmt_f64(*v)
                    );
                }
                MetricValue::Histogram(s) => {
                    for (q, v) in [
                        ("0", s.min),
                        ("0.5", s.p50),
                        ("0.9", s.p90),
                        ("0.99", s.p99),
                        ("1", s.max),
                    ] {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            m.name,
                            label_block(&m.labels, &[("quantile", q)]),
                            v
                        );
                    }
                    let lb = label_block(&m.labels, &[]);
                    let _ = writeln!(out, "{}_sum{} {}", m.name, lb, s.sum);
                    let _ = writeln!(out, "{}_count{} {}", m.name, lb, s.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn text_exposition_shape() {
        let r = Registry::new();
        r.counter("req_total", "requests", &[("engine", "a")])
            .add(7);
        let h = r.histogram("lat_ns", "latency", &[]);
        h.record(100);
        h.record(200);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{engine=\"a\"} 7"));
        assert!(text.contains("# TYPE lat_ns summary"));
        assert!(text.contains("lat_ns{quantile=\"0.5\"} "));
        assert!(text.contains("lat_ns_sum 300"));
        assert!(text.contains("lat_ns_count 2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let _ = r.counter("x_total", "", &[("k", "a\"b\\c\nd")]);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains(r#"x_total{k="a\"b\\c\nd"} 0"#));
    }
}
