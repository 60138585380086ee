//! Integration pins for the telemetry primitives: histogram bucket
//! exactness and quantile error bounds, merge equivalence, saturation,
//! flight-recorder ring wraparound/ordering, and exporter round-trip
//! agreement.

use herqles_telemetry::hist::{bucket_bounds, bucket_index, RELATIVE_ERROR};
use herqles_telemetry::{Histogram, MetricValue, Registry, SpanKind, SpanRing};

/// SplitMix64 — the repo's standard deterministic sample stream, inlined so
/// the telemetry crate keeps zero dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn powers_of_two_start_fresh_buckets_exactly() {
    for k in 0..64u32 {
        let v = 1u64 << k;
        let idx = bucket_index(v);
        let (lo, _) = bucket_bounds(idx);
        assert_eq!(lo, v, "2^{k} must be its bucket's exact lower bound");
        if v > 1 {
            let below = bucket_index(v - 1);
            assert_ne!(idx, below, "2^{k} must not share a bucket with 2^{k}-1");
            let (_, hi_below) = bucket_bounds(below);
            assert_eq!(hi_below, v - 1, "bucket below 2^{k} must end at 2^{k}-1");
        }
    }
}

#[test]
fn singleton_quantiles_are_exact_at_powers_of_two() {
    for k in 0..64u32 {
        let h = Histogram::new();
        h.record(1u64 << k);
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(
                h.quantile(p),
                1u64 << k,
                "singleton 2^{k} quantile({p}) must be exact"
            );
        }
    }
}

#[test]
fn quantile_error_is_bounded_by_one_bucket_width() {
    // Seeded sample mix spanning many octaves: uniform within a
    // per-sample random bit width, so low and high magnitudes both occur.
    let mut state = 0x00C0_FFEE_u64;
    let mut samples: Vec<u64> = (0..10_000)
        .map(|_| {
            let width = splitmix64(&mut state) % 40;
            splitmix64(&mut state) & ((1u64 << (width + 1)) - 1)
        })
        .collect();
    let h = Histogram::new();
    for &s in &samples {
        h.record(s);
    }
    samples.sort_unstable();

    for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let reference = samples[rank - 1];
        let got = h.quantile(p);
        let (lo, hi) = bucket_bounds(bucket_index(reference));
        let width = hi - lo + 1;
        assert!(
            got.abs_diff(reference) <= width,
            "quantile({p}) = {got}, sorted reference = {reference}, \
             bucket width {width} exceeded"
        );
        // The documented relative-error contract.
        let rel = got.abs_diff(reference) as f64 / reference.max(1) as f64;
        assert!(
            rel <= RELATIVE_ERROR || got.abs_diff(reference) <= 1,
            "quantile({p}) relative error {rel} above {RELATIVE_ERROR}"
        );
    }
}

#[test]
fn recording_saturates_at_u64_max() {
    let h = Histogram::new();
    h.record(u64::MAX);
    h.record(u64::MAX);
    assert_eq!(h.count(), 2);
    assert_eq!(h.max(), u64::MAX);
    assert_eq!(h.min(), u64::MAX);
    assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
    assert_eq!(h.quantile(1.0), u64::MAX);
    assert_eq!(h.quantile(0.5), u64::MAX, "clamped into [min, max]");
    // A later small value keeps the table consistent.
    h.record(1);
    assert_eq!(h.count(), 3);
    assert_eq!(h.min(), 1);
    assert_eq!(h.quantile(0.0), 1);
}

#[test]
fn merge_equals_interleaved_recording() {
    let mut state = 0xDEAD_BEEF_u64;
    let samples: Vec<u64> = (0..4_096)
        .map(|_| splitmix64(&mut state) % 1_000_000_007)
        .collect();

    let interleaved = Histogram::new();
    for &s in &samples {
        interleaved.record(s);
    }
    // Shard the same stream across two histograms, then merge.
    let a = Histogram::new();
    let b = Histogram::new();
    for (i, &s) in samples.iter().enumerate() {
        if i % 2 == 0 { &a } else { &b }.record(s);
    }
    a.merge(&b);

    assert_eq!(a.count(), interleaved.count());
    assert_eq!(a.sum(), interleaved.sum());
    assert_eq!(a.min(), interleaved.min());
    assert_eq!(a.max(), interleaved.max());
    assert_eq!(
        a.snapshot().bucket_counts(),
        interleaved.snapshot().bucket_counts(),
        "merged bucket table must equal the interleaved one cell-for-cell"
    );
    for p in [0.1, 0.5, 0.99] {
        assert_eq!(a.quantile(p), interleaved.quantile(p));
    }
}

#[test]
fn trace_ring_wraps_keeping_newest_in_order() {
    let ring = SpanRing::new(8);
    assert_eq!(ring.capacity(), 8);
    for i in 0..20u64 {
        ring.record(SpanKind::Custom, 0, 10 * i, 5, i);
    }
    assert_eq!(ring.recorded(), 20);
    assert_eq!(ring.dropped(), 12);
    let events = ring.snapshot();
    assert_eq!(events.len(), 8, "ring keeps exactly the newest capacity");
    // The survivors are the last 8, in ascending sequence order, payloads
    // intact.
    for (k, e) in events.iter().enumerate() {
        let i = 12 + k as u64;
        assert_eq!((e.seq, e.arg, e.ts_ns, e.dur_ns), (i, i, 10 * i, 5));
        assert_eq!(e.kind, SpanKind::Custom);
    }

    // Reusing the drain buffer does not grow it once warm.
    let mut buf = Vec::with_capacity(8);
    let n = ring.snapshot_into(&mut buf);
    assert_eq!(n, 8);
    let cap = buf.capacity();
    ring.record(SpanKind::HotSwap, 0, 500, 0, 99);
    let _ = ring.snapshot_into(&mut buf);
    assert_eq!(buf.capacity(), cap);
    assert_eq!(buf.last().map(|e| e.kind), Some(SpanKind::HotSwap));
}

/// Pulls `name{labels...} value`-style sample values back out of the text
/// exposition and checks they match the snapshot — the round-trip pin: what
/// the snapshot froze is what a scrape reads.
#[test]
fn exporters_roundtrip_the_same_snapshot() {
    let registry = Registry::new();
    let scope = registry.scope(&[("engine", "e0")]);
    scope
        .counter("cycles_total", "completed cycles", &[])
        .add(41);
    scope.gauge("load_ratio", "load", &[]).set(0.75);
    let h = scope.histogram("stage_latency_ns", "stage latency", &[("stage", "synth")]);
    for v in [1_000u64, 2_000, 3_000, 40_000] {
        h.record(v);
    }

    let snap = registry.snapshot();
    let text = snap.to_prometheus_text();

    // Counter.
    assert!(text.contains("cycles_total{engine=\"e0\"} 41"));

    // Gauge.
    assert!(text.contains("load_ratio{engine=\"e0\"} 0.75"));

    // Histogram summary: count, sum and the quantiles reach the exposition.
    let summary = snap
        .metrics
        .iter()
        .find_map(|m| match (&m.name[..], &m.value) {
            ("stage_latency_ns", MetricValue::Histogram(s)) => Some(*s),
            _ => None,
        })
        .expect("histogram present in snapshot");
    assert_eq!(summary.count, 4);
    assert_eq!(summary.max, 40_000);
    assert!(text.contains(&format!(
        "stage_latency_ns_count{{engine=\"e0\",stage=\"synth\"}} {}",
        summary.count
    )));
    assert!(text.contains(&format!(
        "stage_latency_ns_sum{{engine=\"e0\",stage=\"synth\"}} {}",
        summary.sum
    )));
    assert!(text.contains(&format!(
        "stage_latency_ns{{engine=\"e0\",stage=\"synth\",quantile=\"0.5\"}} {}",
        summary.p50
    )));
    assert!(text.contains(&format!(
        "stage_latency_ns{{engine=\"e0\",stage=\"synth\",quantile=\"1\"}} {}",
        summary.max
    )));
}

#[test]
fn hot_recording_paths_do_not_allocate_per_call() {
    // Indirect allocation probe (the stream crate owns the hard global
    // pin): record into pre-built structures through many iterations and
    // confirm quantile queries stay O(table) without growth by checking
    // snapshot sizes stay constant.
    let h = Histogram::new();
    let ring = SpanRing::new(32);
    let before = h.snapshot().bucket_counts().len();
    for i in 0..10_000u64 {
        h.record(i * 37 % 1_000_000);
        ring.record(SpanKind::Custom, 0, i, 1, i);
    }
    assert_eq!(h.snapshot().bucket_counts().len(), before);
    assert_eq!(ring.capacity(), 32);
    assert_eq!(h.count(), 10_000);
}
