//! Chrome Trace Event Format export for ring snapshots.
//!
//! [`ChromeTrace`] renders [`SpanEvent`]s as the JSON object format
//! understood by Perfetto and `chrome://tracing`: spans become `"X"`
//! (complete) events with microsecond `ts`/`dur`, point kinds
//! ([`SpanKind::is_point`](crate::SpanKind::is_point)) become `"I"`
//! (instant) events, and `"M"` metadata events name
//! the processes and threads so the track layout is self-describing.
//! Convention used by the streaming engine: one *process* (`pid`) per
//! engine, `tid 0` for the engine's stage track, `tid 1 + worker` for
//! pool-worker tracks.
//!
//! The builder is control-plane code — it allocates freely; hot paths only
//! ever touch the rings. Serialization is hand-rolled (the crate is
//! dependency-free): names are engine labels and `'static` kind labels,
//! escaped for the JSON string grammar anyway for safety.

use std::fmt::Write as _;

use crate::span::SpanEvent;

/// One renderable entry: a ring record on a display track, or metadata.
#[derive(Debug, Clone)]
enum Entry {
    Record {
        pid: u32,
        tid: u32,
        record: SpanEvent,
    },
    ProcessName {
        pid: u32,
        name: String,
    },
    ThreadName {
        pid: u32,
        tid: u32,
        name: String,
    },
}

/// Builder assembling one Chrome Trace Event Format JSON document from any
/// number of ring snapshots. See the module docs for the track convention.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    entries: Vec<Entry>,
}

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names the process `pid` in the trace UI (emitted as an `"M"`
    /// `process_name` metadata event).
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.entries.push(Entry::ProcessName {
            pid,
            name: name.to_string(),
        });
    }

    /// Names the thread `(pid, tid)` in the trace UI (emitted as an `"M"`
    /// `thread_name` metadata event).
    pub fn set_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.entries.push(Entry::ThreadName {
            pid,
            tid,
            name: name.to_string(),
        });
    }

    /// Adds a ring snapshot under process `pid` on display thread
    /// `tid_base + record.track`: a point kind renders as an `"I"` instant
    /// event, every other kind as an `"X"` complete event. The choice is by
    /// kind, not by `dur_ns == 0`, so a stage that timed at 0 ns still
    /// renders as a span.
    pub fn add_spans(&mut self, pid: u32, tid_base: u32, spans: &[SpanEvent]) {
        self.entries
            .extend(spans.iter().map(|&record| Entry::Record {
                pid,
                tid: tid_base.saturating_add(record.track),
                record,
            }));
    }

    /// Renderable (non-metadata) events accumulated so far.
    pub fn event_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Record { .. }))
            .count()
    }

    /// Renders the accumulated events as a Chrome Trace Event Format JSON
    /// object (`{"displayTimeUnit":"ns","traceEvents":[...]}`). Events are
    /// sorted by `(pid, tid, ts)` with metadata first, so per-track
    /// timestamps come out monotone; `ts`/`dur` are microseconds (Chrome's
    /// unit) with nanosecond precision kept in the fraction.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&Entry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| match e {
            // Metadata first (ts 0), then events laid out per track.
            Entry::ProcessName { pid, .. } => (0u8, *pid, 0u32, 0u64),
            Entry::ThreadName { pid, tid, .. } => (0, *pid, *tid, 0),
            Entry::Record { pid, tid, record } => (1, *pid, *tid, record.ts_ns),
        });

        let mut out = String::with_capacity(64 + sorted.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, entry) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match entry {
                Entry::Record { pid, tid, record } => {
                    out.push_str("{\"name\":");
                    push_json_string(&mut out, record.kind.label());
                    let ts = MicroNs(record.ts_ns);
                    if record.kind.is_point() {
                        let _ = write!(
                            out,
                            ",\"ph\":\"I\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}"
                        );
                    } else {
                        let _ = write!(
                            out,
                            ",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{}",
                            MicroNs(record.dur_ns)
                        );
                    }
                    let _ = write!(out, ",\"args\":{{\"arg\":{}}}}}", record.arg);
                }
                Entry::ProcessName { pid, name } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"args\":{{\"name\":"
                    );
                    push_json_string(&mut out, name);
                    out.push_str("}}");
                }
                Entry::ThreadName { pid, tid, name } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":"
                    );
                    push_json_string(&mut out, name);
                    out.push_str("}}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds displayed as a microsecond decimal (`1234` ns → `1.234`),
/// Chrome's native trace unit, without going through floating point (so
/// large timestamps keep full precision).
struct MicroNs(u64);

impl std::fmt::Display for MicroNs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let micros = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{micros}")
        } else {
            write!(f, "{micros}.{frac:03}")
        }
    }
}

/// Appends `s` as a JSON string literal (quoted, minimally escaped).
fn push_json_string(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, SpanRing};

    #[test]
    fn renders_complete_events_with_metadata() {
        let ring = SpanRing::new(8);
        ring.record(SpanKind::Synth, 0, 1_500, 2_000, 0);
        ring.record(SpanKind::Task, 2, 1_500, 900, 4);
        let mut trace = ChromeTrace::new();
        trace.set_process_name(1, "engine d5-f64");
        trace.set_thread_name(1, 0, "stages");
        trace.set_thread_name(1, 3, "worker 2");
        trace.add_spans(1, 1, &ring.snapshot());
        let json = trace.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"engine d5-f64\""));
        assert!(json.contains("\"ph\":\"X\""));
        // 1500 ns → 1.5 µs; track 2 + tid_base 1 → tid 3.
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"tid\":3"));
        assert_eq!(trace.event_count(), 2);
    }

    #[test]
    fn renders_instants_and_sorts_per_track() {
        let ring = SpanRing::new(8);
        ring.record(SpanKind::HotSwap, 0, 5_000, 0, 1);
        let mut trace = ChromeTrace::new();
        // Out-of-order spans on one track must come out ts-sorted.
        trace.add_spans(
            0,
            0,
            &[
                SpanEvent {
                    seq: 1,
                    track: 0,
                    kind: SpanKind::Decode,
                    ts_ns: 9_000,
                    dur_ns: 100,
                    arg: 0,
                },
                SpanEvent {
                    seq: 0,
                    track: 0,
                    kind: SpanKind::Synth,
                    ts_ns: 4_000,
                    dur_ns: 100,
                    arg: 0,
                },
            ],
        );
        trace.add_spans(0, 0, &ring.snapshot());
        let json = trace.to_json();
        assert!(json.contains("\"ph\":\"I\""));
        let synth = json.find("\"name\":\"synth\"").expect("synth present");
        let swap = json
            .find("\"name\":\"hot_swap\"")
            .expect("hot_swap present");
        let decode = json.find("\"name\":\"decode\"").expect("decode present");
        assert!(
            synth < swap && swap < decode,
            "per-track events must be ts-sorted"
        );
    }

    #[test]
    fn renders_by_kind_not_by_duration() {
        let ring = SpanRing::new(4);
        ring.record(SpanKind::HealthTransition, 0, 2_000, 0, 1);
        ring.record(SpanKind::Synth, 0, 3_000, 0, 0);
        let mut trace = ChromeTrace::new();
        trace.add_spans(0, 0, &ring.snapshot());
        let json = trace.to_json();
        assert!(json.contains(
            "{\"name\":\"health_transition\",\"ph\":\"I\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":2,"
        ));
        assert!(json
            .contains("{\"name\":\"synth\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":3,\"dur\":0,"));
        assert_eq!(trace.event_count(), 2);
    }

    #[test]
    fn escapes_names() {
        let mut trace = ChromeTrace::new();
        trace.set_process_name(0, "weird \"name\"\nwith\tcontrol\u{1}");
        let json = trace.to_json();
        assert!(json.contains("weird \\\"name\\\"\\nwith\\tcontrol\\u0001"));
    }

    #[test]
    fn micro_ns_keeps_ns_precision() {
        assert_eq!(MicroNs(0).to_string(), "0");
        assert_eq!(MicroNs(1_000).to_string(), "1");
        assert_eq!(MicroNs(1_234).to_string(), "1.234");
        assert_eq!(MicroNs(999).to_string(), "0.999");
        assert_eq!(MicroNs(1_000_007).to_string(), "1000.007");
    }
}
