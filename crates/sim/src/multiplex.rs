//! Frequency-multiplexed waveform synthesis.
//!
//! All qubits on a feedline are read out through the same physical channel:
//! each qubit's baseband signal `s_q(t)` rides on its own intermediate
//! frequency `ω_q`, and the ADC digitizes the quadrature-sampled sum
//!
//! ```text
//! S(t) = Σ_q s_q(t) · e^{i ω_q t},    I(t) = Re S(t),   Q(t) = Im S(t).
//! ```
//!
//! The carrier phasors are precomputed once per configuration in a
//! [`CarrierTable`]; the same table is reused by the demodulator in
//! `readout-dsp`, guaranteeing synthesis and demodulation agree on phases.

use herqles_num::Real;
use rand::Rng;

use crate::config::ChipConfig;
use crate::noise::GaussianNoise;
use crate::trace::{IqPoint, IqTrace};

/// Precomputed carrier phasors `e^{i ω_q t}` for every qubit and raw sample.
///
/// The phasors live in flattened per-precision cosine/sine planes
/// (`[qubit × sample]`): the `f64` planes serve [`CarrierTable::phasor`]
/// to the demodulator, and the `f32` planes hold the same values rounded
/// through [`Real::from_f64`] exactly as the per-sample mix did, so trace
/// assembly runs as contiguous [`herqles_num::Kernel::mix_accum`] passes at
/// either precision instead of per-sample phasor lookups.
#[derive(Debug, Clone)]
pub struct CarrierTable {
    n_qubits: usize,
    planes32: CarrierPlanes<f32>,
    planes64: CarrierPlanes<f64>,
}

/// Flattened `R`-typed modulation planes of one [`CarrierTable`].
#[derive(Debug, Clone)]
pub(crate) struct CarrierPlanes<R> {
    pub(crate) cos: Vec<R>,
    pub(crate) sin: Vec<R>,
    pub(crate) n_samples: usize,
}

impl<R: Real> CarrierPlanes<R> {
    /// Rounds every `f64` plane entry through [`Real::from_f64`].
    fn rounded(planes: &CarrierPlanes<f64>) -> Self {
        CarrierPlanes {
            cos: planes.cos.iter().map(|&c| R::from_f64(c)).collect(),
            sin: planes.sin.iter().map(|&s| R::from_f64(s)).collect(),
            n_samples: planes.n_samples,
        }
    }

    fn cos_of(&self, qubit: usize) -> &[R] {
        &self.cos[qubit * self.n_samples..(qubit + 1) * self.n_samples]
    }

    fn sin_of(&self, qubit: usize) -> &[R] {
        &self.sin[qubit * self.n_samples..(qubit + 1) * self.n_samples]
    }
}

impl CarrierTable {
    /// Builds the table for a chip configuration.
    pub fn new(config: &ChipConfig) -> Self {
        let n_qubits = config.n_qubits();
        let n_samples = config.n_samples();
        let mut planes64 = CarrierPlanes {
            cos: Vec::with_capacity(n_qubits * n_samples),
            sin: Vec::with_capacity(n_qubits * n_samples),
            n_samples,
        };
        for q in &config.qubits {
            for t in 0..n_samples {
                let phase = 2.0 * std::f64::consts::PI * q.if_freq_hz * config.sample_time(t);
                let (s, c) = phase.sin_cos();
                planes64.cos.push(c);
                planes64.sin.push(s);
            }
        }
        CarrierTable {
            n_qubits,
            planes32: CarrierPlanes::rounded(&planes64),
            planes64,
        }
    }

    /// The phasor of `qubit` at raw sample `t` as `(cos, sin)`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` or `t` is out of range.
    pub fn phasor(&self, qubit: usize, t: usize) -> (f64, f64) {
        let p = &self.planes64;
        assert!(t < p.n_samples, "sample {t} outside the carrier table");
        let k = qubit * p.n_samples + t;
        (p.cos[k], p.sin[k])
    }

    /// Number of qubits covered by the table.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of raw samples covered by the table.
    pub fn n_samples(&self) -> usize {
        self.planes64.n_samples
    }

    /// The cached `R`-typed planes ([`Real`] is sealed to `f32`/`f64`, so
    /// one of the two stored precisions always matches).
    pub(crate) fn planes<R: Real>(&self) -> &CarrierPlanes<R> {
        use std::any::Any;
        let p32: &dyn Any = &self.planes32;
        if let Some(p) = p32.downcast_ref::<CarrierPlanes<R>>() {
            return p;
        }
        let p64: &dyn Any = &self.planes64;
        p64.downcast_ref::<CarrierPlanes<R>>()
            .expect("Real is sealed to f32/f64")
    }
}

/// Synthesizes the raw ADC trace from per-qubit baseband signals, adding
/// white Gaussian noise of deviation `noise.sigma()` to each channel sample.
///
/// `basebands[q][t]` is qubit `q`'s (crosstalk-shifted) baseband field at raw
/// sample `t`.
///
/// # Panics
///
/// Panics if the baseband dimensions do not match the carrier table.
pub fn synthesize<R: Real, G: Rng + ?Sized>(
    carriers: &CarrierTable,
    basebands: &[Vec<IqPoint>],
    noise: &mut GaussianNoise<R>,
    rng: &mut G,
) -> IqTrace {
    let n = carriers.n_samples();
    let mut i_ch = vec![R::ZERO; n];
    let mut q_ch = vec![R::ZERO; n];
    synthesize_into(carriers, basebands, noise, rng, &mut i_ch, &mut q_ch);
    IqTrace::new(
        i_ch.iter().map(|x| x.to_f64()).collect(),
        q_ch.iter().map(|x| x.to_f64()).collect(),
    )
}

/// Reusable SoA staging buffers for [`mix_into_scratch`]: one
/// baseband's I and Q samples, converted to `R` once per qubit so the mix
/// runs as a contiguous kernel pass.
#[derive(Debug, Clone)]
pub struct SynthScratch<R: Real> {
    bi: Vec<R>,
    bq: Vec<R>,
}

impl<R: Real> SynthScratch<R> {
    /// Pre-sizes the staging buffers for `n_samples`-sample windows.
    pub fn new(n_samples: usize) -> Self {
        SynthScratch {
            bi: vec![R::ZERO; n_samples],
            bq: vec![R::ZERO; n_samples],
        }
    }

    fn resize(&mut self, n_samples: usize) {
        self.bi.resize(n_samples, R::ZERO);
        self.bq.resize(n_samples, R::ZERO);
    }
}

/// Buffer-writing variant of [`synthesize`]: writes the summed waveform into
/// caller-owned channel slices (e.g. a [`crate::ShotBatch`] row obtained from
/// [`crate::ShotBatch::push_empty_row`]), allocating a fresh [`SynthScratch`]
/// per call. Hot paths that own a scratch should call
/// [`synthesize_into_scratch`] directly — the values are identical.
///
/// # Panics
///
/// Panics if the baseband dimensions or output slice lengths do not match the
/// carrier table.
pub fn synthesize_into<R: Real, G: Rng + ?Sized>(
    carriers: &CarrierTable,
    basebands: &[Vec<IqPoint>],
    noise: &mut GaussianNoise<R>,
    rng: &mut G,
    i_out: &mut [R],
    q_out: &mut [R],
) {
    let mut scratch = SynthScratch::new(carriers.n_samples());
    synthesize_into_scratch(carriers, basebands, noise, rng, &mut scratch, i_out, q_out);
}

/// The allocation-free trace-assembly engine behind [`synthesize`] and
/// [`synthesize_into`]: [`mix_into_scratch`], then the amplifier noise as
/// one bulk [`GaussianNoise::fill_add_iq`].
///
/// Generic over the output precision `R` ([`Real`]): carrier mixing, channel
/// accumulation and amplifier-noise draws all run in `R`, so an `f32` batch
/// row is synthesized at `f32` arithmetic width end to end. On the scalar
/// backend every operation matches the historical per-sample loop in order
/// and rounding, so scalar synthesis is bit-identical to the pre-batched
/// implementation; the AVX2 backend diverges only by FMA contraction in the
/// mix and by its lane-parallel noise stream.
///
/// # Panics
///
/// Panics if the baseband dimensions or output slice lengths do not match the
/// carrier table.
pub fn synthesize_into_scratch<R: Real, G: Rng + ?Sized>(
    carriers: &CarrierTable,
    basebands: &[Vec<IqPoint>],
    noise: &mut GaussianNoise<R>,
    rng: &mut G,
    scratch: &mut SynthScratch<R>,
    i_out: &mut [R],
    q_out: &mut [R],
) {
    mix_into_scratch(carriers, basebands, scratch, i_out, q_out);
    noise.fill_add_iq(rng, i_out, q_out);
}

/// The noise-free carrier mix: overwrites `i_out`/`q_out` with
/// `Σ_q basebands[q] · e^{i ω_q t}`.
///
/// Per qubit, the baseband is staged into `scratch`'s SoA rows (through the
/// same [`Real::from_f64`] rounding the per-sample loop applied) and mixed
/// onto the output by one [`herqles_num::Kernel::mix_accum`] pass over the
/// cached carrier planes.
///
/// # Panics
///
/// Panics if the baseband dimensions or output slice lengths do not match the
/// carrier table.
pub fn mix_into_scratch<R: Real>(
    carriers: &CarrierTable,
    basebands: &[Vec<IqPoint>],
    scratch: &mut SynthScratch<R>,
    i_out: &mut [R],
    q_out: &mut [R],
) {
    let n = carriers.n_samples();
    assert_eq!(i_out.len(), n, "I output length must match carrier table");
    assert_eq!(q_out.len(), n, "Q output length must match carrier table");
    mix_window(carriers, basebands, 0, scratch, i_out, q_out);
}

/// [`mix_into_scratch`] over the sample window `from..from + i_out.len()`:
/// `basebands[q]` and the output rows cover exactly that window, and the
/// carrier planes are read from sample `from` on.
///
/// # Panics
///
/// Panics if the baseband count, a baseband length or the window disagrees
/// with the carrier table.
pub(crate) fn mix_window<R: Real>(
    carriers: &CarrierTable,
    basebands: &[Vec<IqPoint>],
    from: usize,
    scratch: &mut SynthScratch<R>,
    i_out: &mut [R],
    q_out: &mut [R],
) {
    assert_eq!(
        basebands.len(),
        carriers.n_qubits(),
        "one baseband per qubit required"
    );
    let len = i_out.len();
    assert_eq!(q_out.len(), len, "I and Q outputs must share a length");
    assert!(
        from + len <= carriers.n_samples(),
        "window exceeds the carrier table"
    );
    scratch.resize(len);
    i_out.fill(R::ZERO);
    q_out.fill(R::ZERO);
    let kernel = R::kernel();
    let planes = carriers.planes::<R>();
    for (q, bb) in basebands.iter().enumerate() {
        assert_eq!(bb.len(), len, "baseband length must match carrier table");
        for (t, s) in bb.iter().enumerate() {
            scratch.bi[t] = R::from_f64(s.i);
            scratch.bq[t] = R::from_f64(s.q);
        }
        kernel.mix_accum(
            &scratch.bi,
            &scratch.bq,
            &planes.cos_of(q)[from..from + len],
            &planes.sin_of(q)[from..from + len],
            i_out,
            q_out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn carrier_table_has_unit_phasors() {
        let cfg = ChipConfig::five_qubit_default();
        let table = CarrierTable::new(&cfg);
        assert_eq!(table.n_qubits(), 5);
        assert_eq!(table.n_samples(), 500);
        for q in 0..5 {
            for t in (0..500).step_by(37) {
                let (c, s) = table.phasor(q, t);
                assert!((c * c + s * s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn carriers_complete_integer_cycles_per_bin() {
        // IFs are multiples of 20 MHz = 1 / 50 ns, so the phasor at the start
        // of every bin equals the phasor at t = 0.
        let cfg = ChipConfig::five_qubit_default();
        let table = CarrierTable::new(&cfg);
        let spb = cfg.samples_per_bin();
        for q in 0..5 {
            let (c0, s0) = table.phasor(q, 0);
            for bin in 1..cfg.n_bins() {
                let (c, s) = table.phasor(q, bin * spb);
                assert!((c - c0).abs() < 1e-9 && (s - s0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn synthesis_of_single_constant_tone() {
        // A single qubit with constant baseband (1, 0) must synthesize exactly
        // its carrier.
        let mut cfg = ChipConfig::five_qubit_default();
        cfg.qubits.truncate(1);
        let table = CarrierTable::new(&cfg);
        let bb = vec![vec![IqPoint::new(1.0, 0.0); cfg.n_samples()]];
        let mut noise = GaussianNoise::new(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let raw = synthesize(&table, &bb, &mut noise, &mut rng);
        for t in 0..cfg.n_samples() {
            let (c, s) = table.phasor(0, t);
            assert!((raw.i()[t] - c).abs() < 1e-12);
            assert!((raw.q()[t] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn synthesis_is_additive_across_qubits() {
        let cfg = {
            let mut c = ChipConfig::five_qubit_default();
            c.qubits.truncate(2);
            c
        };
        let table = CarrierTable::new(&cfg);
        let n = cfg.n_samples();
        let bb0 = vec![vec![IqPoint::new(0.7, -0.2); n], vec![IqPoint::ZERO; n]];
        let bb1 = vec![vec![IqPoint::ZERO; n], vec![IqPoint::new(-0.1, 0.9); n]];
        let bb_both = vec![bb0[0].clone(), bb1[1].clone()];
        let mut noise = GaussianNoise::new(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let r0 = synthesize(&table, &bb0, &mut noise, &mut rng);
        let r1 = synthesize(&table, &bb1, &mut noise, &mut rng);
        let rb = synthesize(&table, &bb_both, &mut noise, &mut rng);
        for t in 0..n {
            assert!((rb.i()[t] - r0.i()[t] - r1.i()[t]).abs() < 1e-12);
            assert!((rb.q()[t] - r0.q()[t] - r1.q()[t]).abs() < 1e-12);
        }
    }

    #[test]
    fn synthesize_into_batch_row_matches_materializing_path() {
        let cfg = ChipConfig::two_qubit_test();
        let table = CarrierTable::new(&cfg);
        let n = cfg.n_samples();
        let bb = vec![
            vec![IqPoint::new(0.6, -0.4); n],
            vec![IqPoint::new(-0.2, 0.8); n],
        ];
        let mut noise = GaussianNoise::new(cfg.adc_noise_sigma);
        let mut rng = StdRng::seed_from_u64(77);
        let owned = synthesize(&table, &bb, &mut noise, &mut rng);

        let mut noise2 = GaussianNoise::new(cfg.adc_noise_sigma);
        let mut rng2 = StdRng::seed_from_u64(77);
        let mut batch = crate::ShotBatch::with_capacity(1, n);
        let (i_row, q_row) = batch.push_empty_row();
        synthesize_into(&table, &bb, &mut noise2, &mut rng2, i_row, q_row);
        assert_eq!(
            batch.i_of(0),
            owned.i(),
            "streaming I must be bit-identical"
        );
        assert_eq!(
            batch.q_of(0),
            owned.q(),
            "streaming Q must be bit-identical"
        );
    }

    #[test]
    #[should_panic(expected = "one baseband per qubit")]
    fn synthesis_rejects_wrong_qubit_count() {
        let cfg = ChipConfig::five_qubit_default();
        let table = CarrierTable::new(&cfg);
        let mut noise = GaussianNoise::new(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = synthesize(&table, &[], &mut noise, &mut rng);
    }
}
