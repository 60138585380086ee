//! Spans recorded from outside the code under test.
//!
//! Every span wraps one call into a layer's public functions, so no code of
//! the workspace changes to be traced. Spans are kept in memory — per-layer
//! samples for the statistics, plus a bounded [`SpanRing`] of the newest
//! spans — and written out once at the end as a Chrome trace through the
//! workspace's own [`ChromeTrace`] exporter. The traced layers are leaves
//! (no traced call nests another), so each layer's span time is its self
//! time; the enclosing cycle span's self time is the composition's glue.

use std::path::{Path, PathBuf};

use herqles_exec::PoolTelemetry;
use herqles_telemetry::{now_ns, ChromeTrace, SpanKind, SpanRing};

use crate::report::Samples;

/// The traced layer boundaries: `(span name, Chrome span kind)`. The index
/// is the layer id and the span's track in the exported trace.
pub const LAYERS: [(&str, SpanKind); 14] = [
    ("stream.cycle", SpanKind::Cycle),
    ("qec.syndrome.prologue", SpanKind::Syndrome),
    ("stream.synth", SpanKind::Synth),
    ("core.discriminate", SpanKind::Discriminate),
    ("qec.syndrome.commit", SpanKind::Syndrome),
    ("stream.health", SpanKind::Custom),
    ("qec.window.advance", SpanKind::Decode),
    ("qec.syndrome.write", SpanKind::Syndrome),
    ("qec.window.finish", SpanKind::Decode),
    ("qec.decode", SpanKind::Decode),
    ("qec.decode.exact", SpanKind::Decode),
    ("qec.decode.uf", SpanKind::Decode),
    ("core.fused.features", SpanKind::Discriminate),
    ("nn.head", SpanKind::Discriminate),
];

pub const CYCLE: usize = 0;
pub const PROLOGUE: usize = 1;
pub const SYNTH: usize = 2;
pub const DISCRIMINATE: usize = 3;
pub const COMMIT: usize = 4;
pub const HEALTH: usize = 5;
pub const WINDOW_ADVANCE: usize = 6;
pub const WRITE: usize = 7;
pub const WINDOW_FINISH: usize = 8;
pub const DECODE: usize = 9;
pub const DECODE_EXACT: usize = 10;
pub const DECODE_UF: usize = 11;
pub const FEATURES: usize = 12;
pub const HEAD: usize = 13;

/// Newest spans kept for the Chrome export (the statistics keep them all).
const RING_CAPACITY: usize = 1 << 15;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    ring: SpanRing,
    samples: Vec<Samples>,
    /// Payload of the next span (the cycle or block index), shown as the
    /// Chrome event's argument.
    pub arg: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            ring: SpanRing::new(RING_CAPACITY),
            samples: vec![Samples::default(); LAYERS.len()],
            arg: 0,
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: usize, f: impl FnOnce() -> T) -> T {
        let begin = now_ns();
        let out = f();
        self.record(layer, begin, now_ns().saturating_sub(begin));
        out
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, layer: usize, begin_ns: u64, dur_ns: u64) {
        self.ring
            .record(LAYERS[layer].1, layer as u32, begin_ns, dur_ns, self.arg);
        self.samples[layer].push(dur_ns);
    }

    /// All span durations of one layer.
    pub fn samples(&mut self, layer: usize) -> &mut Samples {
        &mut self.samples[layer]
    }

    /// Total span time of one layer, in nanoseconds.
    pub fn total_ns(&self, layer: usize) -> u64 {
        self.samples[layer].sum()
    }

    /// Writes the newest spans (plus, when given, the pool's per-worker task
    /// spans) as a Chrome trace into `dir`, returning the file's path.
    pub fn write_chrome(
        &self,
        dir: &Path,
        stem: &str,
        pool: Option<&PoolTelemetry>,
    ) -> std::io::Result<PathBuf> {
        let mut trace = ChromeTrace::new();
        trace.set_process_name(1, "perfbench layers");
        for (layer, (name, _)) in LAYERS.iter().enumerate() {
            trace.set_thread_name(1, layer as u32, name);
        }
        trace.add_spans(1, 0, &self.ring.snapshot());
        if let Some(pool) = pool {
            trace.set_process_name(2, "exec pool workers");
            for w in 0..pool.workers() {
                trace.set_thread_name(2, w as u32, &format!("exec.worker{w}"));
            }
            trace.add_spans(2, 0, &pool.spans().snapshot());
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace.to_json())?;
        Ok(path)
    }
}
