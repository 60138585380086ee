//! Decode-mode parity: sliding-window streaming decode and async decode
//! offload must not change *what* the engine decodes — only *when*.
//!
//! * Sliding-window mode commits clusters behind the stream as rounds
//!   arrive; its per-cycle outcomes must be identical to whole-block mode.
//! * Async offload moves each block's decode into the next cycle's fan-out
//!   prelude; the outcome sequence (shifted one cycle, plus the drained
//!   final block) must equal the synchronous sequence.

use herqles_exec::ShardPool;
use herqles_stream::{train_mf_discriminator, CycleConfig, CycleEngine};
use readout_sim::ChipConfig;
use surface_code::decoder::DecodeOutcome;
use surface_code::RotatedSurfaceCode;

const CYCLES: usize = 6;

fn reference_outcomes(
    cfg: CycleConfig,
    chip: &ChipConfig,
    code: &RotatedSurfaceCode,
    disc: &dyn herqles_core::Discriminator,
) -> Vec<DecodeOutcome> {
    let mut engine = CycleEngine::<f64>::new(cfg, chip, code, disc);
    (0..CYCLES).map(|_| engine.run_cycle().outcome).collect()
}

#[test]
fn sliding_window_engine_matches_whole_block_outcomes() {
    for (d, rounds, lag, p) in [(3usize, 8usize, 2usize, 0.01), (5, 12, 3, 0.008)] {
        let chip = ChipConfig::two_qubit_test();
        let code = RotatedSurfaceCode::new(d);
        let disc = train_mf_discriminator(&chip, 10, 404);
        let cfg = CycleConfig {
            rounds,
            data_error_prob: p,
            seed: 7100 + d as u64,
        };
        let reference = reference_outcomes(cfg, &chip, &code, &disc);

        // Serial engine, sliding-window decode.
        let mut windowed = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
        windowed.set_sliding_window(lag);
        for (i, expected) in reference.iter().enumerate() {
            let got = windowed.run_cycle().outcome;
            assert_eq!(
                got, *expected,
                "d={d} cycle {i}: sliding-window outcome diverged from whole-block"
            );
        }

        // Pooled engine, sliding-window decode overlapped with synthesis.
        let pool = ShardPool::new(3);
        let mut pooled = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
        pooled.set_sliding_window(lag);
        for (i, expected) in reference.iter().enumerate() {
            let got = pooled.run_cycle().outcome;
            assert_eq!(
                got, *expected,
                "d={d} cycle {i}: pooled sliding-window outcome diverged"
            );
        }
    }
}

#[test]
fn sliding_window_commits_decode_work_ahead_of_block_end() {
    // The mode must genuinely stream: with enough rounds and noise, clusters
    // commit behind the lag while the block is still running. Probed via the
    // engine totals — if nothing ever committed early, finish_window_block
    // would always fall back to the whole-block dispatch and this test's
    // premise (exercised streaming) would be vacuous.
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(5);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 24,
        data_error_prob: 0.02,
        seed: 91,
    };
    let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    engine.set_sliding_window(3);
    let mut events = 0usize;
    for _ in 0..CYCLES {
        events += engine.run_cycle().outcome.n_events;
    }
    assert!(
        events > 0,
        "no detection events — noise too low to exercise"
    );
}

#[test]
fn async_offload_outcome_sequence_matches_serial_shifted_by_one() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 6,
        data_error_prob: 0.012,
        seed: 4242,
    };
    let reference = reference_outcomes(cfg, &chip, &code, &disc);

    // Offload on the inline 1-thread pool and on a 3-thread pool.
    let pool = ShardPool::new(3);
    let serial = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    let pooled = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
    for (name, mut engine) in [("serial", serial), ("pooled", pooled)] {
        engine.set_async_decode(true);
        let mut shifted = Vec::new();
        for _ in 0..CYCLES {
            shifted.push(engine.run_cycle().outcome);
        }
        let drained = engine.drain_async_decode().expect("final block pending");
        assert_eq!(engine.drain_async_decode(), None, "drain must be one-shot");

        // Cycle 0 reports the empty placeholder; cycle k reports block k-1.
        assert_eq!(shifted[0], DecodeOutcome::default());
        assert_eq!(
            &shifted[1..],
            &reference[..CYCLES - 1],
            "{name}: offloaded outcomes diverged from the synchronous sequence"
        );
        assert_eq!(
            drained,
            reference[CYCLES - 1],
            "{name}: drained final outcome diverged"
        );
    }
}

#[test]
fn async_offload_totals_count_each_block_exactly_once() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 6,
        data_error_prob: 0.03,
        seed: 8,
    };
    let mut serial = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    for _ in 0..CYCLES {
        serial.run_cycle();
    }
    let expected = serial.stats().logical_errors;

    let pool = ShardPool::new(2);
    let mut engine = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
    engine.set_async_decode(true);
    for _ in 0..CYCLES {
        engine.run_cycle();
    }
    engine.drain_async_decode();
    assert_eq!(
        engine.stats().logical_errors,
        expected,
        "async totals lost or double-counted a block"
    );
}

#[test]
#[should_panic(expected = "mutually exclusive")]
fn sliding_window_refuses_async_engine() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 10, 404);
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.01,
        seed: 1,
    };
    let pool = ShardPool::new(2);
    let mut engine = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
    engine.set_async_decode(true);
    engine.set_sliding_window(2);
}
