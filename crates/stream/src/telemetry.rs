//! The engine's observability surface: latency histograms, counters and the
//! flight recorder, bundled as [`EngineTelemetry`].
//!
//! Every [`crate::CycleEngine`] owns one `EngineTelemetry`. By default it is
//! *unregistered* — private histograms and counters the engine records into
//! so [`crate::EngineStats`] can answer per-stage p50/p90/p99/max — but
//! [`EngineTelemetry::registered`] builds the same bundle on a
//! [`herqles_telemetry::Registry`] scope, which is how `bench_stream` exposes
//! per-engine metrics in the Prometheus text exposition. Either way
//! the hot path is identical: recording is lock- and allocation-free, so the
//! engine's warm-cycle zero-allocation invariant (`tests/alloc.rs`) holds
//! with telemetry enabled.
//!
//! Exported metric families (all prefixed `herqles_`):
//!
//! | name | type | labels |
//! |------|------|--------|
//! | `herqles_stage_latency_ns` | histogram | `stage` = `synth` \| `discriminate` \| `syndrome` \| `decode` |
//! | `herqles_cycle_latency_ns` | histogram | — |
//! | `herqles_cycles_total` | counter | — |
//! | `herqles_rounds_total` | counter | — |
//! | `herqles_logical_errors_total` | counter | — |
//! | `herqles_degraded_decodes_total` | counter | — |
//! | `herqles_health_transitions_total` | counter | — |
//! | `herqles_hot_swaps_total` | counter | — |
//! | `herqles_trace_dropped_events` | gauge | — |
//!
//! Beyond the aggregate view, every engine carries a flight recorder: one
//! [`SpanRing`] of causal stage spans (begin timestamp + duration + track)
//! and point events (health transitions, degraded decodes, hot-swaps,
//! recalibrations) recorded from the same zero-alloc hot path, drainable
//! into the [`herqles_telemetry::ChromeTrace`] exporter. [`demo_alert_rules`]
//! provides the reference SLO alert set evaluated by `bench_stream` and
//! the `qec_stream` example.

use std::sync::Arc;

use herqles_telemetry::registry::Scope;
use herqles_telemetry::{
    now_ns, AlertCondition, AlertRule, Counter, Gauge, Histogram, Quantile, SpanKind, SpanRing,
};
use surface_code::decoder::DecodeOutcome;

use crate::engine::CycleStats;
use crate::health::HealthStatus;

/// Span-ring capacity of an engine: four stage spans per round plus three
/// per cycle, so 8192 slots retain the last ~60–250 cycles at d ∈ {3..9}.
const SPAN_CAPACITY: usize = 8192;

/// Scalar latency summary of one histogram: the percentile block
/// [`crate::EngineStats`] carries per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median estimate (≤ one bucket width, <1 % relative error).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest observation (exact).
    pub max: u64,
}

impl LatencySummary {
    fn of(hist: &Histogram) -> Self {
        let mut q = [0u64; 3];
        hist.quantiles(&[0.5, 0.9, 0.99], &mut q);
        LatencySummary {
            p50: q[0],
            p90: q[1],
            p99: q[2],
            max: hist.max(),
        }
    }
}

/// Per-stage latency percentiles over an engine's lifetime (or since the
/// last [`EngineTelemetry::clear_latency`]). All values in nanoseconds per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatency {
    /// Waveform synthesis.
    pub synth: LatencySummary,
    /// Batched discrimination.
    pub discriminate: LatencySummary,
    /// Syndrome bookkeeping.
    pub syndrome: LatencySummary,
    /// Block decode.
    pub decode: LatencySummary,
    /// Whole cycle (sum of the stages, distributed per cycle).
    pub cycle: LatencySummary,
}

/// Maps a [`HealthStatus`] onto the stable `u64` payload of a
/// [`SpanKind::HealthTransition`] record.
fn health_arg(status: HealthStatus) -> u64 {
    match status {
        HealthStatus::Nominal => 0,
        HealthStatus::Degraded => 1,
        HealthStatus::Critical => 2,
    }
}

/// The telemetry bundle one engine records into: five latency histograms
/// (per stage + whole cycle), six lifetime counters mirroring
/// [`crate::EngineStats`], and the flight-recorder [`SpanRing`].
///
/// Recording is allocation-free; building ([`EngineTelemetry::new`] /
/// [`EngineTelemetry::registered`]) and draining
/// ([`EngineTelemetry::spans`]'s snapshot) are control-plane.
#[derive(Debug)]
pub struct EngineTelemetry {
    enabled: bool,
    synth: Arc<Histogram>,
    discriminate: Arc<Histogram>,
    syndrome: Arc<Histogram>,
    decode: Arc<Histogram>,
    cycle: Arc<Histogram>,
    cycles: Arc<Counter>,
    rounds: Arc<Counter>,
    logical_errors: Arc<Counter>,
    degraded_decodes: Arc<Counter>,
    health_transitions: Arc<Counter>,
    hot_swaps: Arc<Counter>,
    /// Ring-overwrite loss of `spans`, refreshed per cycle so a scrape sees
    /// overflow instead of silence.
    dropped_events: Arc<Gauge>,
    spans: SpanRing,
}

impl Default for EngineTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineTelemetry {
    /// A private (unregistered) bundle: the engine's default, feeding
    /// [`crate::EngineStats::latency`] without any registry.
    #[must_use]
    pub fn new() -> Self {
        EngineTelemetry {
            enabled: true,
            synth: Arc::new(Histogram::new()),
            discriminate: Arc::new(Histogram::new()),
            syndrome: Arc::new(Histogram::new()),
            decode: Arc::new(Histogram::new()),
            cycle: Arc::new(Histogram::new()),
            cycles: Arc::new(Counter::new()),
            rounds: Arc::new(Counter::new()),
            logical_errors: Arc::new(Counter::new()),
            degraded_decodes: Arc::new(Counter::new()),
            health_transitions: Arc::new(Counter::new()),
            hot_swaps: Arc::new(Counter::new()),
            dropped_events: Arc::new(Gauge::new()),
            spans: SpanRing::new(SPAN_CAPACITY),
        }
    }

    /// The same bundle registered on `scope`, so the metrics show up in the
    /// scope's registry snapshots (and therefore in the exposition). The
    /// scope's labels — typically `engine="…"` — keep engines apart in a
    /// shared registry.
    #[must_use]
    pub fn registered(scope: &Scope<'_>) -> Self {
        let stage_help = "Per-cycle stage wall time in nanoseconds";
        let stage = |name: &str| {
            scope.histogram("herqles_stage_latency_ns", stage_help, &[("stage", name)])
        };
        EngineTelemetry {
            enabled: true,
            synth: stage("synth"),
            discriminate: stage("discriminate"),
            syndrome: stage("syndrome"),
            decode: stage("decode"),
            cycle: scope.histogram(
                "herqles_cycle_latency_ns",
                "Whole-cycle wall time in nanoseconds",
                &[],
            ),
            cycles: scope.counter("herqles_cycles_total", "Completed QEC cycles", &[]),
            rounds: scope.counter("herqles_rounds_total", "Noisy rounds processed", &[]),
            logical_errors: scope.counter(
                "herqles_logical_errors_total",
                "Logical errors observed",
                &[],
            ),
            degraded_decodes: scope.counter(
                "herqles_degraded_decodes_total",
                "Blocks whose decode overran the real-time budget",
                &[],
            ),
            health_transitions: scope.counter(
                "herqles_health_transitions_total",
                "Health-status transitions",
                &[],
            ),
            hot_swaps: scope.counter(
                "herqles_hot_swaps_total",
                "Discriminator hot-swaps performed",
                &[],
            ),
            dropped_events: scope.gauge(
                "herqles_trace_dropped_events",
                "Flight-recorder ring events lost to overwrite",
                &[],
            ),
            spans: SpanRing::new(SPAN_CAPACITY),
        }
    }

    /// Whether the engine records into this bundle.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording. Disabled telemetry skips every
    /// histogram/counter/ring touch on the hot path (the A/B arm of
    /// `tests/overhead.rs`).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The flight recorder: stage spans and point events (track 0 = the
    /// engine's stage lane; see [`herqles_telemetry::SpanEvent`]).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Flight-recorder records lost to ring overwrite. Grows once the ring
    /// wraps — surfaced as the `herqles_trace_dropped_events` gauge and in
    /// [`crate::EngineStats::summary`].
    pub fn dropped_events(&self) -> u64 {
        self.spans.dropped()
    }

    /// Resets the five latency histograms (e.g. after warm-up, so reported
    /// percentiles cover only measured cycles). Counters and the flight
    /// recorder keep their lifetime totals.
    pub fn clear_latency(&self) {
        self.synth.clear();
        self.discriminate.clear();
        self.syndrome.clear();
        self.decode.clear();
        self.cycle.clear();
    }

    /// Current per-stage latency percentiles. Allocation-free.
    #[must_use]
    pub fn stage_latency(&self) -> StageLatency {
        StageLatency {
            synth: LatencySummary::of(&self.synth),
            discriminate: LatencySummary::of(&self.discriminate),
            syndrome: LatencySummary::of(&self.syndrome),
            decode: LatencySummary::of(&self.decode),
            cycle: LatencySummary::of(&self.cycle),
        }
    }

    /// Folds one finished cycle into the histograms and counters, and
    /// stamps a point record for a health transition or a degraded decode
    /// observed during the cycle. Allocation-free.
    pub(crate) fn observe_cycle(
        &self,
        cycle_index: u64,
        stats: &CycleStats,
        outcome: &DecodeOutcome,
        transitions_delta: u64,
    ) {
        if !self.enabled {
            return;
        }
        let stage = &stats.stage;
        self.synth.record(stage.synth);
        self.discriminate.record(stage.discriminate);
        self.syndrome.record(stage.syndrome);
        self.decode.record(stage.decode);
        self.cycle.record(stage.total());

        self.cycles.inc();
        self.rounds.add(stats.rounds as u64);
        self.logical_errors.add(u64::from(outcome.logical_error));
        self.degraded_decodes.add(u64::from(outcome.degraded));
        self.health_transitions.add(transitions_delta);

        if transitions_delta > 0 {
            self.note_point(SpanKind::HealthTransition, health_arg(stats.health));
        }
        if outcome.degraded {
            self.note_point(SpanKind::DegradedDecode, cycle_index);
        }
        self.dropped_events.set(self.dropped_events() as f64);
    }

    /// Records one causal stage span on the engine's stage track (track 0).
    /// Allocation-free; no-op while disabled.
    #[inline]
    pub(crate) fn note_span(&self, kind: SpanKind, begin_ns: u64, dur_ns: u64, arg: u64) {
        if self.enabled {
            self.spans.record(kind, 0, begin_ns, dur_ns, arg);
        }
    }

    /// Stamps a point record of `kind` on the stage track, now.
    fn note_point(&self, kind: SpanKind, arg: u64) {
        self.spans.record(kind, 0, now_ns(), 0, arg);
    }

    /// Stamps a discriminator hot-swap (`arg` = lifetime swap count after
    /// the swap) and bumps the swap counter. Allocation-free.
    pub(crate) fn note_hot_swap(&self, swap_count: u64) {
        if self.enabled {
            self.hot_swaps.inc();
            self.note_point(SpanKind::HotSwap, swap_count);
        }
    }

    /// Stamps an adaptive retrain that produced a new calibration.
    pub(crate) fn note_recal_trained(&self, cycle_index: u64) {
        if self.enabled {
            self.note_point(SpanKind::RecalTrained, cycle_index);
        }
    }

    /// Stamps an adaptive retrain attempt that declined (e.g. single-class
    /// harvest).
    pub(crate) fn note_recal_declined(&self, cycle_index: u64) {
        if self.enabled {
            self.note_point(SpanKind::RecalDeclined, cycle_index);
        }
    }
}

/// The reference SLO alert set for one (or a registry of) streaming
/// engine(s), matched against the `herqles_*` families
/// [`EngineTelemetry::registered`] exports:
///
/// * `decode_p99_high` — block-decode p99 above 5 ms (well clear of the
///   µs-scale nominal decode; fires only on genuine stalls);
/// * `degraded_decode_rate` — any decode-budget overrun between two
///   evaluations;
/// * `health_transitions` — any health-status transition between two
///   evaluations; clears only after six consecutive quiet evaluations, so
///   a drift-detect → hot-swap → recover episode renders as one
///   fire → hold → clear arc.
///
/// Evaluate with [`herqles_telemetry::AlertEngine`] at cycle or scrape
/// cadence.
#[must_use]
pub fn demo_alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::new(
            "decode_p99_high",
            "herqles_stage_latency_ns",
            AlertCondition::QuantileAbove {
                quantile: Quantile::P99,
                threshold: 5e6,
            },
        )
        .with_labels(&[("stage", "decode")])
        .with_hold_evals(2)
        .with_clear_evals(2),
        AlertRule::new(
            "degraded_decode_rate",
            "herqles_degraded_decodes_total",
            AlertCondition::RateAbove { per_eval: 0.0 },
        )
        .with_clear_evals(2),
        AlertRule::new(
            "health_transitions",
            "herqles_health_transitions_total",
            AlertCondition::RateAbove { per_eval: 0.0 },
        )
        .with_clear_evals(6),
    ]
}

/// Renders nanoseconds with a human unit (`ns`, `µs`, `ms`, `s`), three
/// significant-ish digits.
pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageNanos;
    use herqles_telemetry::Registry;

    fn stats(synth: u64) -> CycleStats {
        CycleStats {
            rounds: 3,
            n_events: 2,
            stage: StageNanos {
                synth,
                discriminate: 200,
                syndrome: 300,
                decode: 400,
            },
            health: HealthStatus::Degraded,
        }
    }

    fn outcome() -> DecodeOutcome {
        DecodeOutcome {
            n_events: 2,
            west_matches: 0,
            logical_error: true,
            degraded: true,
        }
    }

    fn clean_outcome() -> DecodeOutcome {
        DecodeOutcome {
            n_events: 0,
            west_matches: 0,
            logical_error: false,
            degraded: false,
        }
    }

    #[test]
    fn observe_cycle_populates_everything() {
        let t = EngineTelemetry::new();
        t.observe_cycle(7, &stats(100), &outcome(), 1);
        let lat = t.stage_latency();
        assert_eq!(lat.synth.p50, 100);
        assert_eq!(lat.decode.max, 400);
        assert_eq!(lat.cycle.p50, 1000);
        // Stage timings live in the histograms (and the engine's own stage
        // spans); the ring gets only the cycle's point events.
        let events = t.spans().snapshot();
        let kinds: Vec<SpanKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::HealthTransition, SpanKind::DegradedDecode]
        );
        assert_eq!(events[0].arg, health_arg(HealthStatus::Degraded));
        assert_eq!(events[1].arg, 7);
        assert!(events.iter().all(|e| e.track == 0 && e.dur_ns == 0));
        assert!(events[0].ts_ns <= events[1].ts_ns);

        // A quiet cycle records no point events.
        t.observe_cycle(8, &stats(100), &clean_outcome(), 0);
        assert_eq!(t.spans().recorded(), 2);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = EngineTelemetry::new();
        t.set_enabled(false);
        t.observe_cycle(0, &stats(100), &outcome(), 1);
        t.note_hot_swap(1);
        t.note_recal_trained(0);
        t.note_recal_declined(0);
        t.note_span(SpanKind::Synth, 0, 1, 0);
        assert_eq!(t.spans().recorded(), 0);
        assert_eq!(t.stage_latency(), StageLatency::default());
    }

    #[test]
    fn clear_latency_keeps_counters() {
        let t = EngineTelemetry::new();
        t.observe_cycle(0, &stats(100), &outcome(), 0);
        t.clear_latency();
        assert_eq!(t.stage_latency(), StageLatency::default());
        // Lifetime counters survive the clear.
        assert_eq!(t.cycles.get(), 1);
        assert_eq!(t.logical_errors.get(), 1);
    }

    #[test]
    fn registered_bundle_reaches_the_exporters() {
        let registry = Registry::new();
        let scope = registry.scope(&[("engine", "d3")]);
        let t = EngineTelemetry::registered(&scope);
        t.observe_cycle(0, &stats(100), &outcome(), 0);
        let text = registry.snapshot().to_prometheus_text();
        assert!(text.contains("herqles_cycles_total{engine=\"d3\"} 1"));
        assert!(text.contains(
            "herqles_stage_latency_ns{engine=\"d3\",stage=\"decode\",quantile=\"0.5\"} 400"
        ));
        assert!(text.contains("herqles_cycle_latency_ns_count{engine=\"d3\"} 1"));
    }

    #[test]
    fn note_span_lands_on_the_stage_track() {
        let t = EngineTelemetry::new();
        t.note_span(SpanKind::Synth, 1_000, 250, 0);
        t.note_span(SpanKind::Decode, 1_250, 80, 3);
        let spans = t.spans().snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.track == 0));
        assert_eq!(spans[0].kind, SpanKind::Synth);
        assert_eq!(spans[1].arg, 3);
        assert_eq!(t.dropped_events(), 0);

        let mut off = EngineTelemetry::new();
        off.set_enabled(false);
        off.note_span(SpanKind::Synth, 0, 1, 0);
        assert_eq!(off.spans().recorded(), 0);
    }

    #[test]
    fn demo_alert_rules_fire_on_drift_symptoms_and_clear() {
        use herqles_telemetry::{AlertEngine, AlertState, Registry};
        let registry = Registry::new();
        let scope = registry.scope(&[("engine", "demo")]);
        let t = EngineTelemetry::registered(&scope);
        let mut alerts = AlertEngine::registered(demo_alert_rules(), &registry.scope(&[]));

        // Quiet baseline: two evaluations, nothing fires.
        t.observe_cycle(0, &stats(100), &clean_outcome(), 0);
        alerts.evaluate(&registry.snapshot());
        t.observe_cycle(1, &stats(100), &clean_outcome(), 0);
        assert_eq!(alerts.evaluate(&registry.snapshot()), 0);
        assert_eq!(alerts.firing(), 0);

        // A drifted cycle: degraded decode + a health transition.
        t.observe_cycle(2, &stats(100), &outcome(), 1);
        assert_eq!(alerts.evaluate(&registry.snapshot()), 2);
        assert_eq!(alerts.firing(), 2);

        // Recovery: degraded clears after 2 quiet evals, transitions after 6.
        for i in 0..6 {
            t.observe_cycle(3 + i, &stats(100), &clean_outcome(), 0);
            alerts.evaluate(&registry.snapshot());
        }
        assert_eq!(alerts.firing(), 0);
        let statuses = alerts.statuses();
        for s in &statuses {
            if s.name == "decode_p99_high" {
                assert_eq!(s.fired, 0, "µs-scale decode must not trip the 5 ms SLO");
            } else {
                assert_eq!(s.fired, 1, "{} must have fired once", s.name);
                assert_eq!(s.cleared, 1, "{} must have cleared", s.name);
                assert_eq!(s.state, AlertState::Ok);
            }
        }
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(12_500), "12.5 µs");
        assert_eq!(fmt_ns(12_500_000), "12.5 ms");
        assert_eq!(fmt_ns(12_500_000_000), "12.50 s");
    }
}
