//! The end-to-end single-precision streaming pipeline.
//!
//! `CycleEngine::<f32, _>` runs the full readout → syndrome → decode cycle —
//! ancilla waveform synthesis included — in `f32`. Its noise realizations
//! are *not* those of the `f64` engine (the Marsaglia rejection loop rounds
//! differently, so the RNG streams diverge), so parity is statistical, not
//! bitwise: for a fixed seed the two precisions must land in the same
//! logical-error regime. Determinism per seed, however, is exact, and a
//! `&dyn Discriminator` drives the `f32` engine exactly as the concrete
//! design does.

use herqles_core::designs::DesignKind;
use herqles_core::{Discriminator, ReadoutTrainer};
use herqles_stream::{train_mf_discriminator, CycleConfig, CycleEngine};
use readout_sim::{ChipConfig, Dataset};
use surface_code::decoder::DecodeOutcome;
use surface_code::{RotatedSurfaceCode, SyndromeBlock};

const CYCLES: usize = 50;

#[test]
fn f32_engine_is_deterministic_per_seed() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.01,
        seed: 11,
    };
    let run = || {
        let mut engine = CycleEngine::<f32, _>::new(cfg, &chip, &code, &disc);
        let outcomes: Vec<_> = engine.cycles().take(6).map(|r| r.outcome).collect();
        (outcomes, engine.last_block().clone())
    };
    let (oa, ba) = run();
    let (ob, bb) = run();
    assert_eq!(oa, ob, "same seed, same f32 outcomes");
    assert_eq!(ba, bb, "same seed, same f32 final block");
}

#[test]
fn f32_and_f64_logical_error_counts_agree_within_tolerance_band() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 12, 2077);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.05,
        seed: 40,
    };

    let mut e64 = CycleEngine::<f64, _>::new(cfg, &chip, &code, &disc);
    let _ = e64.run_cycles(CYCLES);
    let errors64 = e64.stats().logical_errors;

    let mut e32 = CycleEngine::<f32, _>::new(cfg, &chip, &code, &disc);
    let _ = e32.run_cycles(CYCLES);
    let errors32 = e32.stats().logical_errors;

    // Seeded tolerance band: both engines sample the same physics at the
    // same operating point, so their per-cycle logical-error rates are
    // draws from one distribution. With 50 cycles at this operating point
    // the count stays in single digits for a working discriminator; a
    // miscompiled f32 kernel (wrong weights, truncated accumulation) blows
    // the count to tens immediately.
    let diff = errors64.abs_diff(errors32);
    assert!(
        errors64 > 0,
        "operating point must produce logical errors for the band to mean anything"
    );
    assert!(
        diff <= 8,
        "logical-error counts diverged: f64 {errors64} vs f32 {errors32}"
    );
    assert!(
        errors32 <= CYCLES as u64 / 2,
        "f32 engine error rate implausibly high: {errors32}/{CYCLES}"
    );
    assert_eq!(e32.stats().cycles, CYCLES as u64);
    assert_eq!(e32.stats().rounds, (CYCLES * cfg.rounds) as u64);
}

#[test]
fn f32_round_buffers_and_stats_are_populated() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 8, 3);
    let cfg = CycleConfig {
        rounds: 2,
        data_error_prob: 0.01,
        seed: 5,
    };
    let mut engine = CycleEngine::<f32, _>::new(cfg, &chip, &code, &disc);
    let r = engine.run_cycle();
    assert_eq!(r.stats.rounds, 2);
    assert!(r.stats.stage.synth > 0);
    assert!(r.stats.stage.discriminate > 0);
    assert_eq!(engine.stats().cycles, 1);
}

/// Six `f32` cycles of `disc` at `cfg`: the per-cycle outcomes and the final
/// block.
fn run_f32<D: ?Sized + Discriminator>(
    cfg: CycleConfig,
    chip: &ChipConfig,
    code: &RotatedSurfaceCode,
    disc: &D,
) -> (Vec<DecodeOutcome>, SyndromeBlock) {
    let mut engine = CycleEngine::<f32, _>::new(cfg, chip, code, disc);
    let outcomes = engine.cycles().take(6).map(|r| r.outcome).collect();
    (outcomes, engine.last_block().clone())
}

#[test]
fn f32_engine_over_dyn_discriminator_matches_the_concrete_design() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let dataset = Dataset::generate(&chip, 10, 404);
    let split = dataset.split(0.5, 0.0, 404 ^ 0xA5A5);
    let mut trainer = ReadoutTrainer::new(&dataset, &split.train);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.02,
        seed: 11,
    };
    for kind in [DesignKind::Mf, DesignKind::MfRmfNn] {
        let boxed: Box<dyn Discriminator> = trainer.train(kind);
        let via_dyn = run_f32(cfg, &chip, &code, boxed.as_ref());
        let concrete = match kind {
            DesignKind::Mf => run_f32(cfg, &chip, &code, &trainer.train_mf()),
            _ => run_f32(cfg, &chip, &code, &trainer.train_nn(true)),
        };
        assert!(
            concrete.0.iter().any(|o| o.n_events > 0),
            "{kind}: no detection events — the comparison would be vacuous"
        );
        assert_eq!(via_dyn.0, concrete.0, "{kind}: per-cycle outcomes");
        assert_eq!(via_dyn.1, concrete.1, "{kind}: final block");
    }
}
