//! Flight-recorder integration tests: the ring under real multi-writer
//! contention, and the alert engine's debounce lifecycle against a live
//! registry.
//!
//! The ring stress tests (mixed spans and point records, then point
//! records alone) encode a checkable relation into every record's fields
//! (`ts = arg`, kind and duration both functions of `arg`) so a torn read
//! — a snapshot observing one writer's timestamp with another writer's
//! payload — is detectable as a relation violation, not just a statistical
//! anomaly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use herqles_telemetry::{
    AlertCondition, AlertEngine, AlertRule, AlertState, Quantile, Registry, SpanKind, SpanRing,
};

const WRITERS: usize = 4;
const PER_WRITER: u64 = 5_000;
/// Per-writer payload stride: writer `w` records args `w*STRIDE..w*STRIDE+N`.
const STRIDE: u64 = 1_000_000;

/// The record a writer stores for `arg`: even args are point records
/// (zero duration), odd args are spans lasting `arg + 1` ns.
fn kind_and_dur(arg: u64) -> (SpanKind, u64) {
    if arg.is_multiple_of(2) {
        (SpanKind::HealthTransition, 0)
    } else {
        (SpanKind::Task, arg + 1)
    }
}

#[test]
fn span_ring_survives_concurrent_writers_and_snapshots() {
    let ring = Arc::new(SpanRing::new(512));
    let stop = Arc::new(AtomicBool::new(false));

    // A reader hammers snapshot_into while writers race: every returned
    // record must satisfy the field relations and sequences must be
    // strictly increasing within one snapshot.
    let reader = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut buf = Vec::new();
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                ring.snapshot_into(&mut buf);
                let mut prev_seq = None;
                for ev in &buf {
                    assert_eq!(ev.ts_ns, ev.arg, "torn record: ts/arg mismatch");
                    assert_eq!(
                        (ev.kind, ev.dur_ns),
                        kind_and_dur(ev.arg),
                        "torn record: kind/dur/arg mismatch"
                    );
                    assert_eq!(
                        u64::from(ev.track),
                        ev.arg / STRIDE,
                        "torn record: track/arg mismatch"
                    );
                    if let Some(p) = prev_seq {
                        assert!(ev.seq > p, "snapshot seqs must be strictly increasing");
                    }
                    prev_seq = Some(ev.seq);
                }
                snapshots += 1;
            }
            snapshots
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let base = w as u64 * STRIDE;
                for i in 0..PER_WRITER {
                    let arg = base + i;
                    let (kind, dur) = kind_and_dur(arg);
                    ring.record(kind, w as u32, arg, dur, arg);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "reader must have taken snapshots");

    // Quiescent state: exactly WRITERS * PER_WRITER records were claimed,
    // the ring holds the newest `capacity` of them, and the loss is
    // accounted by `dropped`.
    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(ring.recorded(), total);
    assert_eq!(ring.dropped(), total - ring.capacity() as u64);
    let final_events = ring.snapshot();
    assert_eq!(final_events.len(), ring.capacity());
    // Newest-kept: every surviving seq is from the final `capacity` claims.
    for ev in &final_events {
        assert!(ev.seq >= total - ring.capacity() as u64);
    }
}

/// Point records only (the flight recorder's former trace traffic): a
/// smaller ring so writers lap it constantly, with the record's kind
/// determined by `arg`'s parity and its timestamp equal to `arg`.
#[test]
fn trace_ring_survives_concurrent_writers_and_snapshots() {
    let ring = Arc::new(SpanRing::new(256));
    let stop = Arc::new(AtomicBool::new(false));
    let kind_of = |arg: u64| {
        if arg.is_multiple_of(2) {
            SpanKind::HealthTransition
        } else {
            SpanKind::DegradedDecode
        }
    };

    let reader = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut buf = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                ring.snapshot_into(&mut buf);
                let mut prev_seq = None;
                for ev in &buf {
                    assert!(ev.kind.is_point(), "point record read back as a span");
                    assert_eq!(ev.kind, kind_of(ev.arg), "torn point: kind/arg mismatch");
                    assert_eq!(ev.ts_ns, ev.arg, "torn point: ts/arg mismatch");
                    assert_eq!(ev.dur_ns, 0, "torn point: nonzero duration");
                    if let Some(p) = prev_seq {
                        assert!(ev.seq > p, "snapshot seqs must be strictly increasing");
                    }
                    prev_seq = Some(ev.seq);
                }
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let base = w as u64 * STRIDE;
                for i in 0..PER_WRITER {
                    let arg = base + i;
                    ring.record(kind_of(arg), w as u32, arg, 0, arg);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(ring.recorded(), total);
    assert_eq!(ring.dropped(), total - ring.capacity() as u64);
    assert_eq!(ring.snapshot().len(), ring.capacity());
}

/// Full fire → hold → clear lifecycle against a live registry: a p99
/// latency rule with hold/clear debounce and hysteresis, driven by real
/// histogram records rather than synthesized snapshots.
#[test]
fn alert_engine_fires_holds_and_clears_against_live_registry() {
    let registry = Registry::new();
    let hist = registry.histogram("fr_latency_ns", "test latency", &[("stage", "decode")]);
    let rules = vec![AlertRule::new(
        "latency_p99_high",
        "fr_latency_ns",
        AlertCondition::QuantileAbove {
            quantile: Quantile::P99,
            threshold: 1_000.0,
        },
    )
    .with_labels(&[("stage", "decode")])
    .with_hold_evals(2)
    .with_clear_evals(2)
    .with_hysteresis(0.2)];
    let mut engine = AlertEngine::registered(rules, &registry.scope(&[]));

    let state = |e: &AlertEngine| e.statuses()[0].state;

    // Healthy baseline.
    for _ in 0..64 {
        hist.record(100);
    }
    engine.evaluate(&registry.snapshot());
    assert_eq!(state(&engine), AlertState::Ok);

    // Latency regresses: the first breaching eval only arms the rule
    // (hold_evals = 2), the second fires it.
    for _ in 0..512 {
        hist.record(50_000);
    }
    engine.evaluate(&registry.snapshot());
    assert_eq!(state(&engine), AlertState::Pending, "hold debounce");
    assert_eq!(engine.firing(), 0);
    engine.evaluate(&registry.snapshot());
    assert_eq!(state(&engine), AlertState::Firing);
    assert_eq!(engine.firing(), 1);

    // Recovery: flood the histogram back under the *clear* band
    // (threshold × (1 − hysteresis) = 800). Two in-band evals clear it.
    for _ in 0..200_000 {
        hist.record(100);
    }
    engine.evaluate(&registry.snapshot());
    assert_eq!(state(&engine), AlertState::Firing, "clear debounce holds");
    engine.evaluate(&registry.snapshot());
    assert_eq!(state(&engine), AlertState::Ok);

    let status = &engine.statuses()[0];
    assert_eq!((status.fired, status.cleared), (1, 1));

    // The lifecycle was stamped into the alert ring in order.
    let kinds: Vec<_> = engine.trace().snapshot().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![SpanKind::AlertFiring, SpanKind::AlertCleared]);

    // ...and mirrored into the registered per-rule state gauge.
    let snap = registry.snapshot();
    let gauge = snap
        .metrics
        .iter()
        .find(|m| m.name == "herqles_alert_state")
        .expect("state gauge registered");
    assert_eq!(
        gauge.value,
        herqles_telemetry::MetricValue::Gauge(AlertState::Ok.as_gauge())
    );
}
