//! Streaming ↔ offline parity: for a fixed seed the [`CycleEngine`] must
//! produce bit-identical [`SyndromeBlock`]s and [`DecodeOutcome`]s to the
//! materializing reference path — the acceptance pin of the streaming
//! subsystem. Any divergence in RNG draw order, batch row layout, fused
//! kernel weights, or syndrome bookkeeping fails these tests.

use herqles_stream::{run_cycles_offline, train_mf_discriminator, CycleConfig, CycleEngine};
use readout_sim::ChipConfig;
use surface_code::{RotatedSurfaceCode, SyndromeBlock};

fn assert_parity(chip: &ChipConfig, distance: usize, cfg: CycleConfig, cycles: usize) {
    let code = RotatedSurfaceCode::new(distance);
    let disc = train_mf_discriminator(chip, 10, 404);

    let offline = run_cycles_offline(&cfg, chip, &code, &disc, cycles);
    let mut engine = CycleEngine::<f64>::new(cfg, chip, &code, &disc);
    let mut streamed: Vec<(SyndromeBlock, surface_code::decoder::DecodeOutcome)> = Vec::new();
    for _ in 0..cycles {
        let result = engine.run_cycle();
        streamed.push((engine.last_block().clone(), result.outcome));
    }

    assert_eq!(offline.len(), streamed.len());
    for (i, (off, (block, outcome))) in offline.iter().zip(&streamed).enumerate() {
        assert_eq!(
            &off.block, block,
            "cycle {i}: streaming block diverges from offline"
        );
        assert_eq!(
            off.outcome, *outcome,
            "cycle {i}: streaming decode diverges from offline"
        );
    }
}

#[test]
fn streaming_matches_offline_bit_for_bit_d3_two_channel() {
    // d = 3 → 4 ancillas on a 2-channel feedline → 2 exact groups.
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.01,
        seed: 2026,
    };
    assert_parity(&ChipConfig::two_qubit_test(), 3, cfg, 5);
}

#[test]
fn streaming_matches_offline_bit_for_bit_d5_two_channel() {
    // d = 5 → 12 ancillas → 6 groups, more rounds, different seed.
    let cfg = CycleConfig {
        rounds: 5,
        data_error_prob: 0.008,
        seed: 31,
    };
    assert_parity(&ChipConfig::two_qubit_test(), 5, cfg, 2);
}

#[test]
fn streaming_matches_offline_with_idle_padding_slots() {
    // d = 3 → 4 ancillas on the five-channel default chip → one group with
    // one idle padding channel: exercises the ragged tail of the tiling.
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.012,
        seed: 9000,
    };
    assert_parity(&ChipConfig::five_qubit_default(), 3, cfg, 2);
}

#[test]
fn engine_rng_stream_is_one_continuous_sequence() {
    // Running 4 cycles on one engine must equal 4 cycles of the offline path
    // (which shares a single RNG across cycles) — i.e. the engine does not
    // reseed between blocks.
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 2,
        data_error_prob: 0.02,
        seed: 55,
    };
    let offline = run_cycles_offline(&cfg, &chip, &code, &disc, 4);
    let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    let outcomes: Vec<_> = engine.cycles().take(4).map(|r| r.outcome).collect();
    let expected: Vec<_> = offline.iter().map(|c| c.outcome).collect();
    assert_eq!(outcomes, expected);
}
