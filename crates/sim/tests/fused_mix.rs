//! Bitwise pin of [`ReadoutMixer`] against the row passes it replaces.
//!
//! The mixer's AVX2 arm fuses the excitation measures, the crosstalk model
//! and the carrier mix into one register pass; its rows must equal, bit for
//! bit, the row passes the offline reference runs: `excitation_measure`
//! rows, `CrosstalkModel::apply_batch` and `mix_into_scratch`. The pin runs
//! on the dispatched kernel backend and, where the CPU has it, on the AVX2
//! backend, at both precisions, two chip widths, a full 500-sample window
//! and a 150-sample one whose last samples fall in the f64 (`n mod 4`) and
//! f32 (`n mod 8`) scalar tails, at nominal and reduced crosstalk gain.
//!
//! This file holds exactly one test: it switches the process-wide kernel
//! selection, which no concurrently running test may observe.

use herqles_num::kernel::{active_kernel_name, select_kernel, KernelBackend};
use herqles_num::Real;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_sim::crosstalk::{CrosstalkModel, CrosstalkScratch};
use readout_sim::multiplex::{mix_into_scratch, CarrierTable, SynthScratch};
use readout_sim::trajectory::excitation_measure;
use readout_sim::{ChipConfig, IqPoint, QubitParams, ReadoutMixer};

/// `n` channels of the default chip over a `n_samples`-sample window.
fn chip(n: usize, n_samples: usize) -> ChipConfig {
    let mut chip = ChipConfig::five_qubit_default();
    chip.qubits.truncate(n);
    let seps: Vec<f64> = chip.qubits.iter().map(QubitParams::separation).collect();
    chip.crosstalk = CrosstalkModel::chain_for_separations(&seps);
    chip.readout_duration_s = n_samples as f64 / chip.sample_rate_hz;
    chip.validate().expect("test chip validates");
    assert_eq!(chip.n_samples(), n_samples);
    chip
}

fn sample_times(chip: &ChipConfig) -> Vec<f64> {
    (0..chip.n_samples())
        .map(|t| chip.sample_time(t) + 0.5 / chip.sample_rate_hz)
        .collect()
}

/// One channel's baseband, drawn from the shapes the synthesizer produces
/// (ring-ups to either state, a mid-window decay, a centroid-shifted
/// ring-up, a ring-up to a distant leakage cloud) plus unstructured points.
fn baseband(params: &QubitParams, times: &[f64], kind: usize, rng: &mut StdRng) -> Vec<IqPoint> {
    let ring = |target: IqPoint, t: f64| target * (1.0 - (-t / params.ringup_tau_s).exp());
    let decay_at = times[times.len() / 3];
    times
        .iter()
        .map(|&t| match kind {
            0 => ring(params.ground_ss, t),
            1 => ring(params.excited_ss, t),
            2 if t < decay_at => ring(params.excited_ss, t),
            2 => ring(params.ground_ss, t) + ring(params.excited_ss - params.ground_ss, decay_at),
            3 => ring(params.excited_ss, t) + IqPoint::new(3.0, -1.0),
            4 => ring(IqPoint::new(40.0, 40.0), t),
            _ => IqPoint::new(
                rng.random::<f64>() * 10.0 - 5.0,
                rng.random::<f64>() * 10.0 - 5.0,
            ),
        })
        .collect()
}

/// The row passes: measure rows, `apply_batch`, then the carrier mix.
fn row_passes<R: Real>(
    chip: &ChipConfig,
    times: &[f64],
    bb: &[Vec<IqPoint>],
    gain: f64,
) -> (Vec<R>, Vec<R>) {
    let mut bb = bb.to_vec();
    let measures: Vec<Vec<f64>> = chip
        .qubits
        .iter()
        .zip(&bb)
        .map(|(params, row)| row.iter().map(|&s| excitation_measure(params, s)).collect())
        .collect();
    let transient = chip.crosstalk.transient_table(times);
    chip.crosstalk.apply_batch(
        &measures,
        &transient,
        gain,
        &mut bb,
        &mut CrosstalkScratch::new(),
    );
    let ns = chip.n_samples();
    let (mut i, mut q) = (vec![R::ZERO; ns], vec![R::ZERO; ns]);
    let mut scratch = SynthScratch::new(ns);
    mix_into_scratch(&CarrierTable::new(chip), &bb, &mut scratch, &mut i, &mut q);
    (i, q)
}

fn assert_same_bits<R: Real>(got: &[R], want: &[R], what: &str) {
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_f64().to_bits(),
            w.to_f64().to_bits(),
            "{what}, sample {t}: fused {g} vs row passes {w}"
        );
    }
}

fn pin<R: Real>(backend: &str) {
    let mut rng = StdRng::seed_from_u64(14);
    for n in [2, 5] {
        for n_samples in [500, 150] {
            let chip = chip(n, n_samples);
            let times = sample_times(&chip);
            // One mixer per chip, reused across shots: warm scratch must
            // not leak between calls.
            let mut mixer = ReadoutMixer::<R>::new(&chip, &times);
            for shot in 0..6 {
                let bb: Vec<Vec<IqPoint>> = chip
                    .qubits
                    .iter()
                    .enumerate()
                    .map(|(k, params)| baseband(params, &times, (shot + k) % 6, &mut rng))
                    .collect();
                for gain in [1.0, 0.35] {
                    let (want_i, want_q) = row_passes::<R>(&chip, &times, &bb, gain);
                    let (mut i, mut q) = (vec![R::ZERO; n_samples], vec![R::ZERO; n_samples]);
                    mixer.mix_into(&mut bb.clone(), gain, &mut i, &mut q);
                    let what = format!(
                        "{backend} {} n={n} samples={n_samples} shot={shot} gain={gain}",
                        R::NAME
                    );
                    assert_same_bits(&i, &want_i, &format!("{what} I"));
                    assert_same_bits(&q, &want_q, &format!("{what} Q"));
                }
            }
        }
    }
}

#[test]
fn fused_mix_is_bit_identical_to_the_row_passes() {
    let restore = KernelBackend::parse(active_kernel_name()).expect("active name parses");
    let mut backends = vec![restore];
    if herqles_num::avx2_available() {
        backends.push(KernelBackend::Avx2);
    }
    for backend in backends {
        let name = select_kernel(backend).expect("backend known selectable");
        pin::<f64>(name);
        pin::<f32>(name);
    }
    select_kernel(restore).expect("restoring the dispatched backend");
}
