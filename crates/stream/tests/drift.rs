//! The fault-injection → detection → recovery integration pin: under an
//! injected IQ centroid drift the engine's error rate rises and the health
//! monitor leaves Nominal; the adaptive discriminator then retrains from its
//! harvested high-confidence windows, hot-swaps its calibration, and the
//! error rate recovers toward the pre-drift baseline.
//!
//! Everything here is seeded and the engine is bit-deterministic (pinned by
//! `tests/determinism.rs`), so the thresholds below are stable pins, not
//! statistical hopes.

use herqles_stream::{
    train_mf_discriminator, AdaptiveMf, CycleConfig, CycleEngine, CycleResult, DriftEvent,
    FaultPlan, HealthConfig, HealthStatus, RecalConfig, Recalibrate, ShardPool,
};
use readout_sim::ChipConfig;
use surface_code::RotatedSurfaceCode;

fn mean_events(results: &[CycleResult]) -> f64 {
    results
        .iter()
        .map(|r| r.outcome.n_events as f64)
        .sum::<f64>()
        / results.len().max(1) as f64
}

#[test]
fn drift_is_detected_and_recovered_by_hot_swap() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let mf = train_mf_discriminator(&chip, 16, 99);
    // The ring must hold genuinely excited ancilla windows for the retrain
    // to see both classes — QEC traffic at a realistic data error rate
    // provides them (at very low error rates the excited class starves and
    // `recalibrate` correctly declines to train on one class).
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
        seed: 7,
    };
    // Pooled engine: the retrain must be able to hide behind the cycle's
    // synthesis fan-out (run_cycle_adaptive's prelude path).
    let pool = ShardPool::new(2);
    let mut engine = CycleEngine::<f64, _>::with_pool(cfg, &chip, &code, &adaptive, &pool);
    // Slow EWMA + long baseline: on a 4-ancilla code one flipped ancilla is
    // a 0.25 defect-rate quantum, so the monitor needs enough smoothing that
    // benign Poisson bursts don't trip the defect-factor cut.
    engine.set_health_config(HealthConfig {
        alpha: 0.04,
        baseline_rounds: 60,
        hold_rounds: 4,
        degraded_defect_factor: 3.0,
        critical_defect_factor: 8.0,
        ..HealthConfig::default()
    });
    engine.set_recal_cooldown(12);

    // ---- Clean phase: calibrate the monitor, establish the baseline. ----
    let clean = engine.run_cycles_adaptive(40);
    let clean_mean = mean_events(&clean);
    assert_eq!(
        engine.health().status(),
        HealthStatus::Nominal,
        "clean channel must calibrate to Nominal"
    );
    assert!(engine.health().is_calibrated());
    assert_eq!(engine.stats().hot_swaps, 0, "no swap without drift");

    // ---- Inject: step both channels' readout clouds by a third of their
    // ground/excited separation, from the current round on. Both basis
    // states shift together, so the trained thresholds are suddenly badly
    // off-center — the classic slow-drift failure, compressed to a step.
    // (A much larger shift would park the ground cloud on the threshold and
    // poison the self-labels the retrain feeds on; a real deployment would
    // have hit Critical and recalibrated long before drifting that far.) ----
    let onset = engine.stats().rounds;
    let mut plan = FaultPlan::none();
    for (k, q) in chip.qubits.iter().enumerate() {
        plan.push(DriftEvent::CentroidDrift {
            qubit: k,
            start_round: onset,
            end_round: onset,
            delta: q.separation_dir() * (0.30 * q.separation()),
        });
    }
    engine.set_fault_plan(plan);

    // ---- Detect + recover: stream adaptively until the hot-swap fires. ----
    let mut pre_swap = Vec::new();
    let mut saw_unhealthy = false;
    for _ in 0..120 {
        let r = engine.run_cycle_adaptive();
        saw_unhealthy |= r.stats.health != HealthStatus::Nominal;
        if engine.stats().hot_swaps >= 1 {
            break;
        }
        pre_swap.push(r);
    }
    assert!(
        engine.stats().hot_swaps >= 1,
        "drift must trigger a recalibration hot-swap (status {:?}, {} windows)",
        engine.health().status(),
        adaptive.buffered_windows()
    );
    assert!(saw_unhealthy, "health must leave Nominal under drift");
    assert!(engine.stats().health_transitions >= 1);
    assert!(adaptive.generation() >= 1, "swap must bump the generation");

    // The drifted channel must have hurt before the swap: mean detection
    // events well above the clean baseline (misdiscriminated ancillas show
    // up as defect storms).
    let drift_mean = mean_events(&pre_swap);
    assert!(
        drift_mean > clean_mean * 1.5,
        "drift must raise the event rate: clean {clean_mean:.2}, drifted {drift_mean:.2}"
    );

    // ---- Recovered: post-swap cycles settle back toward baseline. ----
    let post = engine.run_cycles_adaptive(40);
    let recovered_mean = mean_events(&post[post.len() - 20..]);
    assert!(
        recovered_mean < clean_mean + 0.5 * (drift_mean - clean_mean),
        "hot-swap must recover at least half the drift-induced event-rate \
         rise: clean {clean_mean:.2}, drifted {drift_mean:.2}, recovered {recovered_mean:.2}"
    );
    assert_eq!(
        engine.health().status(),
        HealthStatus::Nominal,
        "recovered channel must re-baseline to Nominal"
    );
}

#[test]
fn fault_plan_validation_rejects_out_of_range_channels() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let mf = train_mf_discriminator(&chip, 8, 1);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.004,
        seed: 1,
    };
    let mut engine = CycleEngine::<f64, _>::new(cfg, &chip, &code, &mf);
    let plan = FaultPlan::new(vec![DriftEvent::Leakage {
        qubit: 7,
        start_round: 0,
        end_round: 0,
        prob: 0.1,
        leak_ss: readout_sim::trace::IqPoint::new(10.0, 10.0),
    }]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.set_fault_plan(plan);
    }))
    .expect_err("channel 7 on a 2-channel chip must be rejected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("channel 7"), "unexpected panic message: {msg}");
}

#[test]
fn emptying_the_fault_plan_restores_nominal_synthesis() {
    // Faults ride only the per-group synthesis streams, never the master
    // RNG, so once the plan is emptied the stream must be bit-identical to
    // one that never had a plan. A fault snapshot left over from the old
    // plan would keep drifting every later round.
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let mf = train_mf_discriminator(&chip, 8, 5);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.01,
        seed: 11,
    };
    let pool = ShardPool::new(2);
    let mut clean = CycleEngine::<f64, _>::with_pool(cfg, &chip, &code, &mf, &pool);
    let mut drifted = CycleEngine::<f64, _>::with_pool(cfg, &chip, &code, &mf, &pool);
    drifted.set_fault_plan(FaultPlan::new(vec![DriftEvent::CentroidDrift {
        qubit: 0,
        start_round: 0,
        end_round: 0,
        delta: readout_sim::trace::IqPoint::new(6.0, -6.0),
    }]));
    let mut diverged = false;
    for _ in 0..3 {
        let _ = (clean.run_cycle(), drifted.run_cycle());
        diverged |= clean.last_block() != drifted.last_block();
    }
    assert!(diverged, "the drift must change the stream while installed");

    drifted.set_fault_plan(FaultPlan::none());
    for i in 0..4 {
        assert_eq!(
            drifted.run_cycle().outcome,
            clean.run_cycle().outcome,
            "cycle {i}"
        );
        assert_eq!(drifted.last_block(), clean.last_block(), "cycle {i}");
    }
}
