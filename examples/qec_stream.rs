//! End-to-end streaming QEC cycles: multiplexed ancilla readout synthesized,
//! discriminated, and decoded on one batch pipeline with per-stage timing —
//! serially, then on a `ShardPool` with the two-stage synthesis pipeline
//! (bit-identical results at any worker count). Every engine's flight
//! recorder is drained into `qec_stream.trace.json` (open it in Perfetto or
//! `chrome://tracing`), and a drifted run at the end drives the demo SLO
//! alert set through its fire → clear lifecycle.
//!
//! Run with `cargo run --release --example qec_stream`.

use std::sync::Arc;

use herqles::exec::PoolTelemetry;
use herqles::qec::RotatedSurfaceCode;
use herqles::sim::{ChipConfig, DriftEvent, FaultPlan};
use herqles::stream::{
    demo_alert_rules, train_mf_discriminator, AdaptiveMf, CycleConfig, CycleEngine,
    EngineTelemetry, HealthConfig, RecalConfig, ShardPool,
};
use herqles::telemetry::{AlertEngine, ChromeTrace, Registry};

fn main() {
    let chip = ChipConfig::five_qubit_default();
    println!("training the mf discriminator on a synthetic calibration set…");
    let disc = train_mf_discriminator(&chip, 12, 7);

    // The flight recorder: every engine in this example drains its spans
    // into one Chrome trace, one process per engine.
    let mut trace = ChromeTrace::new();
    let mut next_pid = 0u32;
    let mut alloc_pid = move |trace: &mut ChromeTrace, name: &str| {
        next_pid += 1;
        trace.set_process_name(next_pid, name);
        trace.set_thread_name(next_pid, 0, "engine");
        next_pid
    };

    for distance in [3usize, 5] {
        let code = RotatedSurfaceCode::new(distance);
        let cfg = CycleConfig {
            rounds: distance,
            data_error_prob: 4e-3,
            seed: 1,
        };
        let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
        println!(
            "\ndistance {distance}: {} ancillas on {} feedline groups of {} channels",
            code.n_stabilizers(),
            engine.ancilla_map().n_groups(),
            chip.n_qubits(),
        );

        // Pull-based streaming: each item is one decoded cycle.
        for (i, result) in engine.cycles().take(10).enumerate() {
            let s = result.stats.stage;
            println!(
                "  cycle {i}: {:>2} events, logical_error={:<5} | synth {:>9} ns, \
                 discriminate {:>8} ns, syndrome {:>6} ns, decode {:>6} ns",
                result.stats.n_events,
                result.outcome.logical_error,
                s.synth,
                s.discriminate,
                s.syndrome,
                s.decode,
            );
        }

        let totals = engine.stats();
        let per_cycle_ns = totals.stage.total() / totals.cycles.max(1);
        println!(
            "  ⇒ {} cycles, {} rounds, {} logical errors, ≈{:.2} µs/cycle on the pipeline",
            totals.cycles,
            totals.rounds,
            totals.logical_errors,
            per_cycle_ns as f64 / 1e3,
        );

        // The same cycles on a worker pool: each feedline group synthesizes
        // on its own shard while the previous round discriminates — and the
        // outcomes are bit-identical to the serial engine's. Per-worker
        // instrumentation rides along for the flight recorder.
        let pool = ShardPool::new(4);
        let workers = Arc::new(PoolTelemetry::new(pool.threads()));
        pool.set_telemetry(Some(Arc::clone(&workers)));
        let mut parallel = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
        let serial_errors = totals.logical_errors;
        let pooled: u64 = parallel
            .cycles()
            .take(10)
            .map(|r| u64::from(r.outcome.logical_error))
            .sum();
        pool.set_telemetry(None);
        println!(
            "  ⇒ pooled on {} threads: {} logical errors (serial saw {}) — identical per seed",
            pool.threads(),
            pooled,
            serial_errors,
        );
        assert_eq!(pooled, serial_errors, "pooled run must match serial");

        // The engine's built-in telemetry (always on) has been watching the
        // serial run: per-stage latency percentiles straight from `stats()`.
        println!("\n  telemetry summary (serial engine):");
        for line in engine.stats().summary().lines() {
            println!("    {line}");
        }

        // Drain both engines into the flight recorder: the serial engine's
        // stage track, and the pooled engine's stage track plus one task
        // track per worker (tid 1 + w; worker 0 is the calling thread).
        let pid = alloc_pid(&mut trace, &format!("qec_stream d{distance} serial"));
        trace.add_spans(pid, 0, &engine.telemetry().spans().snapshot());
        let pid = alloc_pid(&mut trace, &format!("qec_stream d{distance} pooled"));
        trace.add_spans(pid, 0, &parallel.telemetry().spans().snapshot());
        for w in 0..workers.workers() {
            trace.set_thread_name(pid, 1 + w as u32, &format!("worker {w}"));
        }
        trace.add_spans(pid, 1, &workers.spans().snapshot());
    }

    // SLO alerting: stream adaptively through an injected centroid drift
    // and evaluate the demo alert set against the engine's registered
    // metrics every cycle — the health monitor detects the drift (alert
    // fires), the hot-swap recalibrates, and quiet cycles clear it again.
    println!("\ndrifted adaptive run with the demo SLO alert set:");
    let chip2 = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let mf = train_mf_discriminator(&chip2, 12, 7);
    let adaptive = AdaptiveMf::from_mf(
        &mf,
        RecalConfig {
            capacity: 128,
            min_windows: 8,
            ..RecalConfig::default()
        },
    );
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.03,
        seed: 20_230_612,
    };
    let registry = Registry::new();
    let scope = registry.scope(&[("engine", "qec-stream-drift")]);
    let mut drifted = CycleEngine::<f64, _>::new(cfg, &chip2, &code, &adaptive);
    drifted.set_health_config(HealthConfig {
        alpha: 0.04,
        baseline_rounds: 60,
        hold_rounds: 4,
        degraded_defect_factor: 3.0,
        critical_defect_factor: 8.0,
        ..HealthConfig::default()
    });
    drifted.set_recal_cooldown(12);
    drifted.set_telemetry(EngineTelemetry::registered(&scope));
    let mut alerts = AlertEngine::registered(demo_alert_rules(), &scope);

    // Clean baseline, then step every readout cloud by 0.3 of its
    // ground/excited separation (the drift recipe the stream tests pin).
    let _ = drifted.run_cycles_adaptive(40);
    alerts.evaluate(&registry.snapshot());
    let onset = drifted.stats().rounds;
    let mut plan = FaultPlan::none();
    for (k, q) in chip2.qubits.iter().enumerate() {
        plan.push(DriftEvent::CentroidDrift {
            qubit: k,
            start_round: onset,
            end_round: onset,
            delta: q.separation_dir() * (0.30 * q.separation()),
        });
    }
    drifted.set_fault_plan(plan);
    for _ in 0..60 {
        let _ = drifted.run_cycle_adaptive();
        alerts.evaluate(&registry.snapshot());
    }

    println!(
        "  drift detected and recalibrated: {} hot-swap(s), {} health transition(s)",
        drifted.stats().hot_swaps,
        drifted.stats().health_transitions,
    );
    println!("  after {} evaluations:", alerts.evaluations());
    for s in alerts.statuses() {
        println!(
            "    {:<24} {:<8} fired {} cleared {} (last value {:?})",
            s.name,
            s.state.label(),
            s.fired,
            s.cleared,
            s.last_value,
        );
    }

    // The alert lifecycle lands in the flight recorder too.
    let pid = alloc_pid(&mut trace, "qec_stream drifted");
    trace.add_spans(pid, 0, &drifted.telemetry().spans().snapshot());
    trace.add_spans(pid, 0, &alerts.trace().snapshot());

    std::fs::write("qec_stream.trace.json", trace.to_json()).expect("write trace");
    println!(
        "\nwrote qec_stream.trace.json ({} events) — open it in Perfetto or chrome://tracing",
        trace.event_count()
    );
}
