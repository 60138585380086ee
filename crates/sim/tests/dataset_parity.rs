//! Pins `Dataset` generation, which synthesizes every shot through
//! `RoundSynth`, to the per-sample reference generator it replaced.
//!
//! The reference below is that generator: one state path per qubit, the
//! sequential `baseband` recurrence, an `excitation_measure` per sample, the
//! sample-by-sample `CrosstalkModel::shift_at` loop and the materializing
//! `synthesize`, all on the same `stream_seed(seed, state)` RNG stream. On
//! the scalar kernel arm every raw sample must be bit-identical; on a SIMD
//! arm the closed-form ring-up tables and FMA contraction may move the last
//! bits, so samples must agree within 1e-12. The ground truth must match
//! exactly on both arms. Run it under both arms:
//!
//! ```sh
//! HERQLES_KERNEL=scalar cargo test --release -p readout-sim --test dataset_parity
//! HERQLES_KERNEL=auto cargo test --release -p readout-sim --test dataset_parity
//! ```

use herqles_exec::stream_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use readout_sim::events::{sample_path, StatePath};
use readout_sim::multiplex::{synthesize, CarrierTable};
use readout_sim::trajectory::{baseband, excitation_measure};
use readout_sim::{BasisState, ChipConfig, Dataset, GaussianNoise, IqPoint, Shot, ShotTruth};

const SHOTS_PER_STATE: usize = 10;
/// Largest sample difference a SIMD arm may show against the reference.
const SIMD_TOLERANCE: f64 = 1e-12;

/// One shot of the per-sample reference generator.
fn reference_shot<G: Rng + ?Sized>(
    config: &ChipConfig,
    carriers: &CarrierTable,
    prepared: BasisState,
    rng: &mut G,
) -> Shot {
    let n = config.n_qubits();
    let n_samples = config.n_samples();
    let times: Vec<f64> = (0..n_samples)
        .map(|t| config.sample_time(t) + 0.5 / config.sample_rate_hz)
        .collect();

    // 1. Sample each qubit's state path.
    let mut paths = Vec::with_capacity(n);
    let mut initial = BasisState::new(0);
    let mut final_state = BasisState::new(0);
    let mut relaxation_time_s = Vec::with_capacity(n);
    let mut excitation_time_s = Vec::with_capacity(n);
    for (k, params) in config.qubits.iter().enumerate() {
        let sampled = sample_path(params, prepared.qubit(k), config.readout_duration_s, rng);
        initial = initial.with_qubit(k, sampled.path.initial_excited());
        final_state =
            final_state.with_qubit(k, sampled.path.final_excited(config.readout_duration_s));
        relaxation_time_s.push(sampled.path.relaxation_time());
        excitation_time_s.push(match sampled.path {
            StatePath::Excitation { time_s } => Some(time_s),
            _ => None,
        });
        paths.push(sampled.path);
    }

    // 2. Noiseless basebands and the excitation measures that drive the
    //    crosstalk model.
    let mut basebands: Vec<Vec<IqPoint>> = config
        .qubits
        .iter()
        .zip(&paths)
        .map(|(params, path)| baseband(params, path, &times))
        .collect();
    let measures: Vec<Vec<f64>> = config
        .qubits
        .iter()
        .zip(&basebands)
        .map(|(params, bb)| bb.iter().map(|&s| excitation_measure(params, s)).collect())
        .collect();

    // 3. Crosstalk shifts, sample by sample.
    let mut m = vec![0.0; n];
    for t in 0..n_samples {
        for (k, meas) in measures.iter().enumerate() {
            m[k] = meas[t];
        }
        for (victim, bb) in basebands.iter_mut().enumerate() {
            bb[t] += config.crosstalk.shift_at(victim, &m, times[t]);
        }
    }

    // 4. The multiplexed ADC waveform with additive noise.
    let mut noise = GaussianNoise::new(config.adc_noise_sigma);
    let raw = synthesize(carriers, &basebands, &mut noise, rng);

    Shot {
        prepared,
        raw,
        truth: ShotTruth {
            initial,
            final_state,
            relaxation_time_s,
            excitation_time_s,
        },
    }
}

/// The reference dataset: state-major, one `stream_seed` stream per state.
fn reference_dataset(config: &ChipConfig, shots_per_state: usize, seed: u64) -> Vec<Shot> {
    let carriers = CarrierTable::new(config);
    let mut shots = Vec::new();
    for state in 0..1usize << config.n_qubits() {
        let prepared = BasisState::new(state as u32);
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, state as u64));
        for _ in 0..shots_per_state {
            shots.push(reference_shot(config, &carriers, prepared, &mut rng));
        }
    }
    shots
}

#[test]
fn dataset_matches_the_per_sample_reference_generator() {
    let scalar = herqles_num::active_kernel_name() == "scalar";
    let config = ChipConfig::five_qubit_default();
    for seed in [7, 20230612] {
        let got = Dataset::generate_with_threads(&config, SHOTS_PER_STATE, seed, 1).shots;
        let want = reference_dataset(&config, SHOTS_PER_STATE, seed);
        assert_eq!(got.len(), want.len());
        let mut transitions = 0;
        for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.prepared, w.prepared, "seed {seed} shot {idx}");
            assert_eq!(g.truth, w.truth, "seed {seed} shot {idx}: truth differs");
            transitions += g
                .truth
                .relaxation_time_s
                .iter()
                .chain(&g.truth.excitation_time_s)
                .filter(|t| t.is_some())
                .count();
            assert_eq!(g.raw.len(), w.raw.len());
            let channels = [(g.raw.i(), w.raw.i()), (g.raw.q(), w.raw.q())];
            for (ch, (gs, ws)) in channels.into_iter().enumerate() {
                for (t, (&a, &b)) in gs.iter().zip(ws).enumerate() {
                    if scalar {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "seed {seed} shot {idx} channel {ch} sample {t}: {a} vs {b}"
                        );
                    } else {
                        assert!(
                            (a - b).abs() <= SIMD_TOLERANCE,
                            "seed {seed} shot {idx} channel {ch} sample {t}: {a} vs {b}"
                        );
                    }
                }
            }
        }
        // The pin must cover the mid-window transition branches, not only
        // constant state paths.
        assert!(transitions > 0, "seed {seed} sampled no transition");
    }
}
