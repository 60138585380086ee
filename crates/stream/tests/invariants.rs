//! Seeded cross-mode invariant sweep. A fixed, seeded list of engine
//! configurations — distance d ∈ {3, 5, 7}, a 1-, 2- or 4-thread pool, f64 or
//! f32 pipeline, whole-block / sliding-window (lag 2–3) / offloaded decode,
//! with or without a seeded drift [`FaultPlan`] — must all stream the same
//! thing:
//!
//! * blocks ([`CycleEngine::last_block`]) and outcomes equal the whole-block
//!   [`CycleEngine::new`] run of the same precision and plan;
//! * offload reports that outcome sequence shifted by one cycle, and
//!   [`CycleEngine::drain_async_decode`] returns the last outcome;
//! * the [`EngineStats`] totals are conserved (cycles, rounds, logical
//!   errors, health transitions, and the per-cycle stage times they sum);
//! * the f64 no-fault configurations equal [`run_cycles_offline`], the
//!   independent materializing reference.

use herqles_core::designs::MfDiscriminator;
use herqles_stream::{
    run_cycles_offline, train_mf_discriminator, CycleConfig, CycleEngine, DriftEvent, EngineStats,
    FaultPlan, Real, ShardPool, StageNanos,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_sim::trace::IqPoint;
use readout_sim::ChipConfig;
use surface_code::decoder::DecodeOutcome;
use surface_code::{RotatedSurfaceCode, SyndromeBlock};

const CYCLES: usize = 4;
const THREADS: [usize; 3] = [1, 2, 4];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    WholeBlock,
    Window(usize),
    Offload,
}

/// Everything one engine run exposes.
struct Run {
    blocks: Vec<SyndromeBlock>,
    outcomes: Vec<DecodeOutcome>,
    /// Sum of the per-cycle stage times the engine reported.
    cycle_stage: StageNanos,
    drained: Option<DecodeOutcome>,
    stats: EngineStats,
}

fn run<R: Real>(
    engine: &mut CycleEngine<'_, R, MfDiscriminator>,
    plan: &FaultPlan,
    mode: Mode,
) -> Run {
    engine.set_fault_plan(plan.clone());
    match mode {
        Mode::WholeBlock => {}
        Mode::Window(lag) => engine.set_sliding_window(lag),
        Mode::Offload => engine.set_async_decode(true),
    }
    let mut out = Run {
        blocks: Vec::new(),
        outcomes: Vec::new(),
        cycle_stage: StageNanos::default(),
        drained: None,
        stats: EngineStats::default(),
    };
    for _ in 0..CYCLES {
        let r = engine.run_cycle();
        assert_eq!(r.stats.rounds, engine.config().rounds);
        out.cycle_stage.add(&r.stats.stage);
        out.outcomes.push(r.outcome);
        out.blocks.push(engine.last_block().clone());
    }
    out.drained = engine.drain_async_decode();
    out.stats = engine.stats();
    out
}

/// A seeded ramping drift inside the sweep's round horizon: a centroid
/// walk, a noise broadening and a leaking channel, at drawn rounds and
/// strengths.
fn drift_plan(rng: &mut StdRng, horizon: u64) -> FaultPlan {
    let window = |rng: &mut StdRng| {
        let start = rng.random_range(0..horizon / 2);
        (start, start + rng.random_range(1..horizon / 2))
    };
    let (s0, e0) = window(rng);
    let (s1, e1) = window(rng);
    let (s2, e2) = window(rng);
    FaultPlan::new(vec![
        DriftEvent::CentroidDrift {
            qubit: rng.random_range(0..2),
            start_round: s0,
            end_round: e0,
            delta: IqPoint::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)),
        },
        DriftEvent::SigmaScale {
            start_round: s1,
            end_round: e1,
            factor: rng.random_range(1.1..1.6),
        },
        DriftEvent::Leakage {
            qubit: rng.random_range(0..2),
            start_round: s2,
            end_round: e2,
            prob: rng.random_range(0.05..0.4),
            leak_ss: IqPoint::new(25.0, 25.0),
        },
    ])
}

fn assert_conserved(tag: &str, got: &Run, reference: &Run) {
    let (s, r) = (&got.stats, &reference.stats);
    assert_eq!(s.cycles, CYCLES as u64, "{tag}: cycles");
    assert_eq!(s.rounds, r.rounds, "{tag}: rounds");
    assert_eq!(s.logical_errors, r.logical_errors, "{tag}: logical errors");
    assert_eq!(s.degraded_decodes, 0, "{tag}: degraded without a budget");
    assert_eq!(
        s.health_transitions, r.health_transitions,
        "{tag}: health transitions"
    );
    assert_eq!(s.hot_swaps, 0, "{tag}: hot-swaps");
    // The totals are the per-cycle stage times summed; only a drained
    // offload decode lands in the totals without a cycle to report it.
    let c = &got.cycle_stage;
    assert_eq!(s.stage.synth, c.synth, "{tag}: synth total");
    assert_eq!(
        s.stage.discriminate, c.discriminate,
        "{tag}: discriminate total"
    );
    assert_eq!(s.stage.syndrome, c.syndrome, "{tag}: syndrome total");
    if got.drained.is_some() {
        assert!(s.stage.decode >= c.decode, "{tag}: decode total");
    } else {
        assert_eq!(s.stage.decode, c.decode, "{tag}: decode total");
    }
}

fn sweep<R: Real>(seed: u64) {
    let chip = ChipConfig::two_qubit_test();
    let disc = train_mf_discriminator(&chip, 10, 404);
    let pools = THREADS.map(ShardPool::new);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut drawn = [false; THREADS.len()];
    for distance in [3usize, 5, 7] {
        let code = RotatedSurfaceCode::new(distance);
        let cfg = CycleConfig {
            rounds: distance + 3,
            data_error_prob: 0.012,
            seed: rng.random(),
        };
        let horizon = (CYCLES * cfg.rounds) as u64;
        for faulted in [false, true] {
            let plan = if faulted {
                drift_plan(&mut rng, horizon)
            } else {
                FaultPlan::none()
            };
            let reference = run(
                &mut CycleEngine::<R, _>::new(cfg, &chip, &code, &disc),
                &plan,
                Mode::WholeBlock,
            );
            assert_eq!(reference.stats.rounds, horizon);
            assert!(
                reference.outcomes.iter().any(|o| o.n_events > 0),
                "d={distance}: no detection events — the sweep would be vacuous"
            );
            if R::NAME == f64::NAME && !faulted {
                let offline = run_cycles_offline(&cfg, &chip, &code, &disc, CYCLES);
                for (i, off) in offline.iter().enumerate() {
                    assert_eq!(
                        off.block, reference.blocks[i],
                        "d={distance}: offline block {i}"
                    );
                    assert_eq!(
                        off.outcome, reference.outcomes[i],
                        "d={distance}: offline outcome {i}"
                    );
                }
            }

            let lag = rng.random_range(2..4);
            for mode in [Mode::WholeBlock, Mode::Window(lag), Mode::Offload] {
                let k = rng.random_range(0..THREADS.len());
                drawn[k] = true;
                let pool = &pools[k];
                let tag = format!(
                    "{}/d={distance}/threads={}/{mode:?}/faulted={faulted}",
                    R::NAME,
                    pool.threads()
                );
                let got = run(
                    &mut CycleEngine::<R, _>::with_pool(cfg, &chip, &code, &disc, pool),
                    &plan,
                    mode,
                );
                assert_eq!(got.blocks, reference.blocks, "{tag}: blocks");
                if mode == Mode::Offload {
                    assert_eq!(
                        got.outcomes[0],
                        DecodeOutcome::default(),
                        "{tag}: placeholder"
                    );
                    assert_eq!(
                        got.outcomes[1..],
                        reference.outcomes[..CYCLES - 1],
                        "{tag}: shifted outcomes"
                    );
                    assert_eq!(
                        got.drained,
                        reference.outcomes.last().copied(),
                        "{tag}: drained"
                    );
                } else {
                    assert_eq!(got.outcomes, reference.outcomes, "{tag}: outcomes");
                    assert_eq!(got.drained, None, "{tag}: nothing to drain");
                }
                assert_conserved(&tag, &got, &reference);
            }
        }
    }
    assert_eq!(
        drawn,
        [true; THREADS.len()],
        "the draw must cover every pool size"
    );
}

#[test]
fn seeded_f64_configs_stream_identical_blocks_and_outcomes() {
    sweep::<f64>(0x5EED_0F64);
}

#[test]
fn seeded_f32_configs_stream_identical_blocks_and_outcomes() {
    sweep::<f32>(0x5EED_0F32);
}
