//! Thread-count independence of [`CycleEngine::with_pool`]: for any pool
//! size the pooled engine must produce **bit-identical** blocks, decode
//! outcomes and aggregate statistics to [`CycleEngine::new`] (the inline
//! 1-thread pool) — the acceptance pin of the `herqles-exec` integration.
//! Any divergence in the per-group RNG stream derivation, shard scheduling
//! leaking into results, or pipeline reordering of the syndrome commits
//! fails these tests.

use herqles_core::designs::MfDiscriminator;
use herqles_stream::{
    train_mf_discriminator, CycleConfig, CycleEngine, DriftEvent, FaultPlan, Real, ShardPool,
};
use readout_sim::trace::IqPoint;
use readout_sim::ChipConfig;
use surface_code::{RotatedSurfaceCode, SyndromeBlock};

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

fn assert_pooled_matches_serial<R: Real>(
    cfg: CycleConfig,
    chip: &ChipConfig,
    code: &RotatedSurfaceCode,
    disc: &MfDiscriminator,
    cycles: usize,
) {
    assert_pooled_matches_serial_under_plan::<R>(cfg, chip, code, disc, cycles, &FaultPlan::none());
}

fn assert_pooled_matches_serial_under_plan<R: Real>(
    cfg: CycleConfig,
    chip: &ChipConfig,
    code: &RotatedSurfaceCode,
    disc: &MfDiscriminator,
    cycles: usize,
    plan: &FaultPlan,
) {
    let mut serial = CycleEngine::<R, _>::new(cfg, chip, code, disc);
    serial.set_fault_plan(plan.clone());
    let mut reference: Vec<(SyndromeBlock, surface_code::decoder::DecodeOutcome)> = Vec::new();
    for _ in 0..cycles {
        let r = serial.run_cycle();
        reference.push((serial.last_block().clone(), r.outcome));
    }

    for threads in THREAD_COUNTS {
        let pool = ShardPool::new(threads);
        let mut pooled = CycleEngine::<R, _>::with_pool(cfg, chip, code, disc, &pool);
        pooled.set_fault_plan(plan.clone());
        for (i, (ref_block, ref_outcome)) in reference.iter().enumerate() {
            let r = pooled.run_cycle();
            assert_eq!(
                &r.outcome,
                ref_outcome,
                "{}/threads={threads}: cycle {i} outcome diverges from serial",
                R::NAME
            );
            assert_eq!(
                pooled.last_block(),
                ref_block,
                "{}/threads={threads}: cycle {i} block diverges from serial",
                R::NAME
            );
        }
        assert_eq!(pooled.stats().cycles, serial.stats().cycles);
        assert_eq!(pooled.stats().rounds, serial.stats().rounds);
        assert_eq!(pooled.stats().logical_errors, serial.stats().logical_errors);
    }
}

#[test]
fn pooled_engine_is_bit_identical_to_serial_f64() {
    // d = 5 → 12 ancillas on the 2-channel test chip → 6 shards: enough
    // groups that 2- and 4-thread pools genuinely interleave shard execution.
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(5);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 5,
        data_error_prob: 0.01,
        seed: 777,
    };
    assert_pooled_matches_serial::<f64>(cfg, &chip, &code, &disc, 4);
}

#[test]
fn pooled_engine_is_bit_identical_to_serial_f32() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(5);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 5,
        data_error_prob: 0.01,
        seed: 777,
    };
    assert_pooled_matches_serial::<f32>(cfg, &chip, &code, &disc, 4);
}

#[test]
fn pooled_engine_with_idle_padding_slots_matches_serial() {
    // d = 3 on the five-channel chip → a single ragged group: the pooled
    // path must behave with one shard and idle channels.
    let chip = ChipConfig::five_qubit_default();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 8, 2026);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.012,
        seed: 13,
    };
    assert_pooled_matches_serial::<f64>(cfg, &chip, &code, &disc, 3);
}

#[test]
fn pooled_engine_is_bit_identical_to_serial_under_active_faults() {
    // Every fault kind at once, ramping across the run: leakage draws an
    // extra random number per leaked channel, so this pins that the injected
    // randomness rides the per-group streams (not the master RNG) and stays
    // thread-count-independent.
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(5);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 5,
        data_error_prob: 0.01,
        seed: 777,
    };
    let plan = FaultPlan::new(vec![
        DriftEvent::CentroidDrift {
            qubit: 0,
            start_round: 2,
            end_round: 10,
            delta: IqPoint::new(3.0, -2.0),
        },
        DriftEvent::SigmaScale {
            start_round: 0,
            end_round: 8,
            factor: 1.6,
        },
        DriftEvent::Leakage {
            qubit: 1,
            start_round: 4,
            end_round: 12,
            prob: 0.35,
            leak_ss: IqPoint::new(25.0, 25.0),
        },
        DriftEvent::CrosstalkBurst {
            start_round: 6,
            end_round: 14,
            gain: 3.0,
        },
    ]);
    assert_pooled_matches_serial_under_plan::<f64>(cfg, &chip, &code, &disc, 4, &plan);
}

#[test]
fn pooled_engine_is_bit_identical_to_serial_under_active_faults_f32() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(5);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 5,
        data_error_prob: 0.01,
        seed: 777,
    };
    let plan = FaultPlan::new(vec![
        DriftEvent::CentroidDrift {
            qubit: 1,
            start_round: 0,
            end_round: 6,
            delta: IqPoint::new(-2.0, 4.0),
        },
        DriftEvent::Leakage {
            qubit: 0,
            start_round: 3,
            end_round: 3,
            prob: 0.5,
            leak_ss: IqPoint::new(30.0, 30.0),
        },
    ]);
    assert_pooled_matches_serial_under_plan::<f32>(cfg, &chip, &code, &disc, 4, &plan);
}

#[test]
fn one_pool_serves_several_engines() {
    // The pool is a shared runtime, not engine-owned: two engines on the
    // same pool must not perturb each other's streams.
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 10, 7);
    let cfg_a = CycleConfig {
        rounds: 3,
        data_error_prob: 0.02,
        seed: 1,
    };
    let cfg_b = CycleConfig {
        rounds: 3,
        data_error_prob: 0.02,
        seed: 2,
    };
    let reference_a = CycleEngine::<f64>::new(cfg_a, &chip, &code, &disc).run_cycles(3);
    let reference_b = CycleEngine::<f64>::new(cfg_b, &chip, &code, &disc).run_cycles(3);

    let pool = ShardPool::new(3);
    let mut a = CycleEngine::<f64>::with_pool(cfg_a, &chip, &code, &disc, &pool);
    let mut b = CycleEngine::<f64>::with_pool(cfg_b, &chip, &code, &disc, &pool);
    for i in 0..3 {
        assert_eq!(a.run_cycle().outcome, reference_a[i].outcome);
        assert_eq!(b.run_cycle().outcome, reference_b[i].outcome);
    }
}
