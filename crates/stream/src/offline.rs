//! The offline (materializing) reference path.
//!
//! Runs exactly the same physics and discrimination as [`crate::CycleEngine`]
//! but the way the pre-streaming pipeline did it: every round materializes
//! one owned [`IqTrace`] per ancilla group and a fresh `Vec<BasisState>` of
//! decisions — the per-round allocation and re-layout cost the streaming
//! engine exists to eliminate. RNG draw order is identical to the engine's,
//! so for the same [`crate::CycleConfig`] the two paths produce bit-identical
//! [`SyndromeBlock`]s and [`DecodeOutcome`]s; the parity test in
//! `tests/parity.rs` pins that equivalence.

use herqles_core::Discriminator;
use herqles_exec::stream_seed;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use readout_sim::crosstalk::CrosstalkScratch;
use readout_sim::events::sample_path;
use readout_sim::multiplex::{synthesize, CarrierTable};
use readout_sim::trace::{IqPoint, IqTrace};
use readout_sim::trajectory::{baseband_into_cached, excitation_measure, RingupTable};
use readout_sim::{BasisState, ChipConfig, GaussianNoise};
use surface_code::decoder::DecodeOutcome;
use surface_code::{decode_block, NoiseParams, RotatedSurfaceCode, SyndromeBlock, SyndromeSim};

use crate::engine::CycleConfig;
use crate::map::AncillaMap;

/// One offline cycle: the materialized block plus its decode verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineCycle {
    /// The assembled syndrome block.
    pub block: SyndromeBlock,
    /// The decoder's verdict on it.
    pub outcome: DecodeOutcome,
}

/// Materializes one feedline shot with freshly allocated buffers
/// ([`baseband_into_cached`] into new `Vec`s, [`synthesize`]); RNG draws
/// match [`readout_sim::RoundSynth::synth_into_row`] exactly. It shares
/// none of the synthesizer's reused buffers or its fused mixer, so it stays
/// an independent reference for the engine (`tests/parity.rs`).
fn synth_trace<R: Rng + ?Sized>(
    chip: &ChipConfig,
    carriers: &CarrierTable,
    times: &[f64],
    ringups: &[RingupTable],
    prepared: BasisState,
    rng: &mut R,
) -> IqTrace {
    let n = chip.n_qubits();
    let mut paths = Vec::with_capacity(n);
    for (k, params) in chip.qubits.iter().enumerate() {
        paths.push(sample_path(params, prepared.qubit(k), chip.readout_duration_s, rng).path);
    }
    // Basebands ride the same closed-form ring-up tables as the streaming
    // engine (falling back to the sequential reference on the scalar arm),
    // so engine/offline parity stays bit-exact on every backend.
    let mut basebands: Vec<Vec<IqPoint>> = chip
        .qubits
        .iter()
        .zip(&paths)
        .zip(ringups)
        .map(|((params, path), table)| {
            let mut bb = Vec::new();
            baseband_into_cached(params, path, times, table, &mut bb);
            bb
        })
        .collect();
    let measures: Vec<Vec<f64>> = chip
        .qubits
        .iter()
        .zip(&basebands)
        .map(|(params, bb)| bb.iter().map(|&s| excitation_measure(params, s)).collect())
        .collect();
    // Crosstalk rides the same batched pass as the streaming engine — the
    // AVX2 kernels use FMA, so routing both paths through one implementation
    // is what keeps engine/offline parity bit-exact on every backend.
    let transient = chip.crosstalk.transient_table(times);
    let mut scratch = CrosstalkScratch::new();
    chip.crosstalk
        .apply_batch(&measures, &transient, 1.0, &mut basebands, &mut scratch);
    let mut noise = GaussianNoise::new(chip.adc_noise_sigma);
    synthesize(carriers, &basebands, &mut noise, rng)
}

/// Runs `n_cycles` full readout → syndrome → decode cycles on the
/// materializing path.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::CycleEngine::new`].
pub fn run_cycles_offline(
    cfg: &CycleConfig,
    chip: &ChipConfig,
    code: &RotatedSurfaceCode,
    disc: &dyn Discriminator,
    n_cycles: usize,
) -> Vec<OfflineCycle> {
    cfg.validate();
    assert_eq!(
        disc.n_qubits(),
        chip.n_qubits(),
        "discriminator and chip must cover the same channels"
    );
    chip.validate().expect("invalid chip configuration");
    let carriers = CarrierTable::new(chip);
    let times: Vec<f64> = (0..chip.n_samples())
        .map(|t| chip.sample_time(t) + 0.5 / chip.sample_rate_hz)
        .collect();
    let ringups: Vec<RingupTable> = chip
        .qubits
        .iter()
        .map(|q| RingupTable::new(q, &times))
        .collect();
    let map = AncillaMap::new(code.n_stabilizers(), chip.n_qubits());
    let noise = NoiseParams {
        data_error_prob: cfg.data_error_prob,
        meas_error_prob: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut out = Vec::with_capacity(n_cycles);
    for _ in 0..n_cycles {
        let mut sim = SyndromeSim::new(code, &noise);
        let mut parities = vec![false; code.n_stabilizers()];
        for _ in 0..cfg.rounds {
            sim.apply_data_errors(&mut rng);
            sim.true_parities_into(&mut parities);
            // One entropy word per round; every group synthesizes from its
            // own stream_seed-derived RNG — the same scheme as the engine
            // (serial and pooled), so all three paths stay bit-identical.
            let entropy: u64 = rng.random();
            // Materialize every group's trace — the per-round allocations
            // the streaming engine removes.
            let traces: Vec<IqTrace> = (0..map.n_groups())
                .map(|g| {
                    let prepared = map.prepared_state(g, &parities);
                    let mut group_rng = StdRng::seed_from_u64(stream_seed(entropy, g as u64));
                    synth_trace(chip, &carriers, &times, &ringups, prepared, &mut group_rng)
                })
                .collect();
            let refs: Vec<&IqTrace> = traces.iter().collect();
            let states: Vec<BasisState> = disc.discriminate_batch(&refs);
            let measured: Vec<bool> = (0..map.n_ancillas())
                .map(|a| {
                    let (g, c) = map.slot(a);
                    states[g].qubit(c)
                })
                .collect();
            sim.record_measured_syndrome(&measured);
        }
        sim.finish_perfect_round();
        let block = sim.into_block();
        let outcome = decode_block(code, &block);
        out.push(OfflineCycle { block, outcome });
    }
    out
}
