//! Allocation-free per-round ancilla readout synthesis.
//!
//! [`RoundSynth`] produces one feedline group's multiplexed ADC waveform per
//! call, written directly into a [`ShotBatch`] row. It performs exactly the
//! physics of `readout_sim`'s dataset generator — state-path sampling,
//! ring-up basebands, dispersive crosstalk, multiplexed synthesis with
//! amplifier noise — over buffers reused across rounds, so the warm
//! steady-state path touches the heap not at all. Basebands come from
//! [`readout_sim::trajectory::baseband_into_cached`]; one
//! [`ReadoutMixer`] then applies crosstalk and the carrier mix (on the AVX2
//! backend as one fused register pass, pinned bitwise to the row passes the
//! offline reference runs); the amplifier noise lands last through
//! [`GaussianNoise::fill_add_iq`].
//!
//! RNG draw order matches the materializing path (per-channel state paths in
//! channel order, then per-sample noise), so a streaming row and an offline
//! [`readout_sim::trace::IqTrace`] synthesized from the same RNG state are
//! bit-identical.

use herqles_num::Real;
use rand::{Rng, RngExt};
use readout_sim::drift::RoundFaults;
use readout_sim::events::{sample_path, StatePath};
use readout_sim::trace::IqPoint;
use readout_sim::trajectory::{baseband_into_cached, RingupTable};
use readout_sim::{BasisState, ChipConfig, GaussianNoise, ReadoutMixer, ShotBatch};

/// Reusable synthesizer of one feedline group's readout shot.
///
/// Generic over the pipeline precision `R` ([`Real`], default `f64`): the
/// analog physics (state paths, ring-up basebands, crosstalk shifts) always
/// evolves in `f64` — it stands in for continuous voltages — while the
/// ADC-facing mixing, accumulation and amplifier-noise draws run at `R`,
/// writing directly into a `ShotBatch<R>` row.
#[derive(Debug, Clone)]
pub struct RoundSynth<R: Real = f64> {
    chip: ChipConfig,
    times: Vec<f64>,
    paths: Vec<StatePath>,
    basebands: Vec<Vec<IqPoint>>,
    /// Per-qubit closed-form ring-up tables (`dᵏ` decay powers on the fixed
    /// sample clock) driving the vectorizable baseband fill on SIMD arms.
    ringups: Vec<RingupTable>,
    mixer: ReadoutMixer<R>,
    /// ADC noise deviation at pipeline precision.
    sigma: R,
}

impl<R: Real> RoundSynth<R> {
    /// Builds a synthesizer for one feedline configuration, pre-sizing every
    /// scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ChipConfig::validate`].
    pub fn new(chip: &ChipConfig) -> Self {
        chip.validate().expect("invalid chip configuration");
        let n = chip.n_qubits();
        let n_samples = chip.n_samples();
        // Half-sample offset: identical to the dataset generator's clock.
        let times: Vec<f64> = (0..n_samples)
            .map(|t| chip.sample_time(t) + 0.5 / chip.sample_rate_hz)
            .collect();
        RoundSynth {
            chip: chip.clone(),
            ringups: chip
                .qubits
                .iter()
                .map(|q| RingupTable::new(q, &times))
                .collect(),
            mixer: ReadoutMixer::new(chip, &times),
            times,
            paths: Vec::with_capacity(n),
            basebands: vec![Vec::with_capacity(n_samples); n],
            sigma: R::from_f64(chip.adc_noise_sigma),
        }
    }

    /// Multiplexed channels per synthesized shot.
    pub fn n_channels(&self) -> usize {
        self.chip.n_qubits()
    }

    /// Raw ADC samples per synthesized shot.
    pub fn n_samples(&self) -> usize {
        self.times.len()
    }

    /// The chip configuration this synthesizer was built for.
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Synthesizes one feedline shot for `prepared` (bit `k` = channel `k`'s
    /// ancilla parity) and appends it to `batch` as a new row.
    ///
    /// Allocation-free once warm; RNG draws match the materializing
    /// generator: one state path per channel in channel order, then the
    /// per-sample amplifier noise.
    ///
    /// # Panics
    ///
    /// Panics if `batch` was sized for a different sample count.
    pub fn synth_into_row<G: Rng + ?Sized>(
        &mut self,
        prepared: BasisState,
        batch: &mut ShotBatch<R>,
        rng: &mut G,
    ) {
        self.synth_into_row_faulted(prepared, None, batch, rng);
    }

    /// Like [`RoundSynth::synth_into_row`] with an optional resolved fault
    /// snapshot; `None` is the nominal path, bit-identical to
    /// [`RoundSynth::synth_into_row`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` was sized for a different sample count.
    pub fn synth_into_row_faulted<G: Rng + ?Sized>(
        &mut self,
        prepared: BasisState,
        faults: Option<&RoundFaults>,
        batch: &mut ShotBatch<R>,
        rng: &mut G,
    ) {
        assert_eq!(
            batch.n_samples(),
            self.n_samples(),
            "batch sized for a different readout window"
        );
        let (i_row, q_row) = batch.push_empty_row();
        self.synth_into_slot_faulted(prepared, faults, i_row, q_row, rng);
    }

    /// Synthesizes one feedline shot straight into caller-owned channel
    /// slices — the shard-parallel entry point: each feedline-group shard of
    /// a pooled engine owns its own `RoundSynth` and writes its own
    /// pre-sized [`ShotBatch`] row, so groups synthesize concurrently with
    /// no shared mutable state.
    ///
    /// RNG draws and output are identical to [`RoundSynth::synth_into_row`].
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the synthesizer's sample count.
    pub fn synth_into_slot<G: Rng + ?Sized>(
        &mut self,
        prepared: BasisState,
        i_row: &mut [R],
        q_row: &mut [R],
        rng: &mut G,
    ) {
        self.synth_into_slot_faulted(prepared, None, i_row, q_row, rng);
    }

    /// [`RoundSynth::synth_into_slot`] with an optional resolved
    /// [`RoundFaults`] snapshot injected into the physics: per-channel IQ
    /// centroid shifts, |2⟩ leakage clouds, a feedline-wide crosstalk gain
    /// and an ADC-noise sigma multiplier.
    ///
    /// `faults: None` is the nominal path and is **bit-identical** to
    /// [`RoundSynth::synth_into_slot`] — every fault branch (including the
    /// per-shot leakage draw) is gated on the corresponding fault actually
    /// deviating from nominal, so the RNG draw sequence and all floating
    /// point values are untouched when no fault is active. A leaked channel
    /// replaces its state-path draws with a single leakage uniform, which
    /// stays inside the caller's per-group RNG stream: pooled and serial
    /// engines remain bit-identical under active fault injection.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the synthesizer's sample count, or
    /// the snapshot was sized for a different channel count.
    pub fn synth_into_slot_faulted<G: Rng + ?Sized>(
        &mut self,
        prepared: BasisState,
        faults: Option<&RoundFaults>,
        i_row: &mut [R],
        q_row: &mut [R],
        rng: &mut G,
    ) {
        assert_eq!(
            i_row.len(),
            self.n_samples(),
            "row sized for a different readout window"
        );
        assert_eq!(
            q_row.len(),
            self.n_samples(),
            "row sized for a different readout window"
        );
        if let Some(f) = faults {
            assert_eq!(
                f.n_qubits(),
                self.chip.n_qubits(),
                "fault snapshot sized for a different channel count"
            );
        }
        // 1. Per-channel state paths (relaxation / excitation / init errors).
        //    A channel with an active leakage fault first draws its per-shot
        //    leakage decision; a leaked shot consumes exactly that one
        //    uniform and skips the computational-state path entirely.
        let mut leaked: u32 = 0;
        self.paths.clear();
        for (k, params) in self.chip.qubits.iter().enumerate() {
            if let Some(f) = faults {
                let p = f.leak_prob(k);
                if p > 0.0 && rng.random::<f64>() < p {
                    leaked |= 1 << k;
                    self.paths.push(StatePath::Ground);
                    continue;
                }
            }
            let sampled = sample_path(params, prepared.qubit(k), self.chip.readout_duration_s, rng);
            self.paths.push(sampled.path);
        }
        // 2. Noiseless ring-up basebands. A leaked channel rings up from the
        //    origin toward its |2⟩ steady state instead; centroid drift then
        //    displaces the whole baseband (both clouds shift together).
        for (k, ((params, path), bb)) in self
            .chip
            .qubits
            .iter()
            .zip(&self.paths)
            .zip(&mut self.basebands)
            .enumerate()
        {
            if leaked & (1 << k) != 0 {
                let leak_ss = faults.expect("leak without faults").leak_ss(k);
                bb.clear();
                bb.extend(self.times.iter().map(|&t| {
                    let ringup = 1.0 - (-t / params.ringup_tau_s).exp();
                    leak_ss * ringup
                }));
            } else {
                baseband_into_cached(params, path, &self.times, &self.ringups[k], bb);
            }
            if let Some(f) = faults {
                let shift = f.centroid_shift(k);
                if shift != IqPoint::ZERO {
                    for s in bb.iter_mut() {
                        *s += shift;
                    }
                }
            }
        }
        // 3. Excitation measures, dispersive crosstalk shifts (computed on
        //    the faulted basebands: a drifted or leaked channel pulls
        //    neighbours according to where its resonator actually sits) and
        //    the carrier mix, straight into the row.
        let gain = faults.map_or(1.0, RoundFaults::crosstalk_gain);
        self.mixer.mix_into(&mut self.basebands, gain, i_row, q_row);
        // 4. Amplifier noise (fresh noise state per shot, like the dataset
        //    path). Sigma scaling rebuilds the sampler only when the fault
        //    deviates, so the nominal noise stream is untouched bit for bit.
        let sigma_scale = faults.map_or(1.0, RoundFaults::sigma_scale);
        let sigma = if sigma_scale != 1.0 {
            self.sigma * R::from_f64(sigma_scale)
        } else {
            self.sigma
        };
        GaussianNoise::new(sigma).fill_add_iq(rng, i_row, q_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_row() {
        let chip = ChipConfig::two_qubit_test();
        let mut synth = RoundSynth::new(&chip);
        let run = |synth: &mut RoundSynth| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut batch: ShotBatch = ShotBatch::with_capacity(1, chip.n_samples());
            synth.synth_into_row(BasisState::new(0b10), &mut batch, &mut rng);
            batch
        };
        let a = run(&mut synth);
        let b = run(&mut synth);
        assert_eq!(a, b, "warm buffers must not leak state between rows");
        assert_eq!(a.n_shots(), 1);
        assert_eq!(a.n_samples(), chip.n_samples());
    }

    #[test]
    fn prepared_state_shapes_the_waveform() {
        let chip = ChipConfig::two_qubit_test();
        let mut synth = RoundSynth::new(&chip);
        let mut energy = |state: u32| -> f64 {
            let mut rng = StdRng::seed_from_u64(9);
            let mut batch: ShotBatch = ShotBatch::with_capacity(1, chip.n_samples());
            synth.synth_into_row(BasisState::new(state), &mut batch, &mut rng);
            batch.i_of(0).iter().map(|x| x * x).sum()
        };
        assert!((energy(0b00) - energy(0b11)).abs() > 1e-6);
    }

    #[test]
    fn inactive_fault_snapshot_is_bit_identical_to_nominal() {
        use readout_sim::drift::RoundFaults;
        let chip = ChipConfig::two_qubit_test();
        let mut synth = RoundSynth::new(&chip);
        let nominal = {
            let mut rng = StdRng::seed_from_u64(11);
            let mut batch: ShotBatch = ShotBatch::with_capacity(1, chip.n_samples());
            synth.synth_into_row(BasisState::new(0b01), &mut batch, &mut rng);
            batch
        };
        let faulted = {
            let rf = RoundFaults::nominal(chip.n_qubits());
            let mut rng = StdRng::seed_from_u64(11);
            let mut batch: ShotBatch = ShotBatch::with_capacity(1, chip.n_samples());
            synth.synth_into_row_faulted(BasisState::new(0b01), Some(&rf), &mut batch, &mut rng);
            batch
        };
        assert_eq!(nominal, faulted, "nominal snapshot must not perturb draws");
    }

    #[test]
    fn centroid_shift_displaces_the_row() {
        use readout_sim::drift::{DriftEvent, FaultPlan, RoundFaults};
        use readout_sim::IqPoint;
        let chip = ChipConfig::two_qubit_test();
        let mut synth = RoundSynth::new(&chip);
        let mut run = |faults: Option<&RoundFaults>| -> ShotBatch {
            let mut rng = StdRng::seed_from_u64(4);
            let mut batch: ShotBatch = ShotBatch::with_capacity(1, chip.n_samples());
            synth.synth_into_row_faulted(BasisState::new(0b00), faults, &mut batch, &mut rng);
            batch
        };
        let clean = run(None);
        let plan = FaultPlan::new(vec![DriftEvent::CentroidDrift {
            qubit: 0,
            start_round: 0,
            end_round: 0,
            delta: IqPoint::new(3.0, -1.0),
        }]);
        let mut rf = RoundFaults::nominal(chip.n_qubits());
        plan.resolve_into(0, &mut rf);
        let shifted = run(Some(&rf));
        assert_ne!(clean, shifted, "an active drift must change the waveform");
    }

    #[test]
    fn certain_leakage_rings_to_the_leak_cloud() {
        use readout_sim::drift::{DriftEvent, FaultPlan, RoundFaults};
        use readout_sim::IqPoint;
        let chip = ChipConfig::two_qubit_test();
        let mut synth = RoundSynth::new(&chip);
        let plan = FaultPlan::new(vec![DriftEvent::Leakage {
            qubit: 0,
            start_round: 0,
            end_round: 0,
            prob: 1.0,
            leak_ss: IqPoint::new(40.0, 40.0),
        }]);
        let mut rf = RoundFaults::nominal(chip.n_qubits());
        plan.resolve_into(0, &mut rf);
        let energy = |synth: &mut RoundSynth, faults: Option<&RoundFaults>| -> f64 {
            let mut rng = StdRng::seed_from_u64(8);
            let mut batch: ShotBatch = ShotBatch::with_capacity(1, chip.n_samples());
            synth.synth_into_row_faulted(BasisState::new(0b00), faults, &mut batch, &mut rng);
            batch.i_of(0).iter().map(|x| x * x).sum()
        };
        let clean = energy(&mut synth, None);
        let leaked = energy(&mut synth, Some(&rf));
        // A |2⟩ cloud parked at (40, 40) carries far more carrier energy
        // than either computational cloud.
        assert!(leaked > 2.0 * clean, "leaked {leaked} vs clean {clean}");
    }

    #[test]
    #[should_panic(expected = "different readout window")]
    fn rejects_mis_sized_batch() {
        let chip = ChipConfig::two_qubit_test();
        let mut synth: RoundSynth = RoundSynth::new(&chip);
        let mut batch = ShotBatch::with_capacity(1, 7);
        let mut rng = StdRng::seed_from_u64(0);
        synth.synth_into_row(BasisState::new(0), &mut batch, &mut rng);
    }
}
