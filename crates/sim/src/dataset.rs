//! Labeled shot generation: the synthetic counterpart of the paper's
//! calibration dataset.
//!
//! The paper's dataset contains readout traces for all `2^5` basis states of
//! the five-qubit chip (50 000 shots per state). [`Dataset::generate`]
//! produces the same structure at a configurable scale: every shot is one
//! [`RoundSynth`] call — the same synthesizer the streaming engine reads its
//! ancillas with — which samples per-qubit state paths
//! (relaxation/excitation/init errors), evolves the resonator basebands,
//! applies crosstalk and synthesizes the frequency-multiplexed ADC waveform.
//! The state paths it sampled become the shot's ground-truth event record,
//! for validating the semi-supervised relaxation labeling (Algorithm 1).

use herqles_exec::ShardPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::ChipConfig;
use crate::events::StatePath;
use crate::synth::RoundSynth;
use crate::trace::{BasisState, IqTrace};

/// Ground-truth event record for one shot (not observable by discriminators;
/// used to validate labeling algorithms and to compute oracle accuracies).
#[derive(Debug, Clone, PartialEq)]
pub struct ShotTruth {
    /// State at the start of the window, after initialization errors.
    pub initial: BasisState,
    /// State at the end of the window, after any transitions.
    pub final_state: BasisState,
    /// Per-qubit relaxation times (seconds into the window), if the qubit
    /// underwent a `1 → 0` transition during readout.
    pub relaxation_time_s: Vec<Option<f64>>,
    /// Per-qubit excitation times, if the qubit underwent a `0 → 1`
    /// transition during readout.
    pub excitation_time_s: Vec<Option<f64>>,
}

impl ShotTruth {
    /// The ground truth of a shot whose qubits followed `paths` (one per
    /// qubit, in qubit order) over a window of `duration_s` seconds.
    fn from_paths(paths: &[StatePath], duration_s: f64) -> Self {
        let mut initial = BasisState::new(0);
        let mut final_state = BasisState::new(0);
        for (k, path) in paths.iter().enumerate() {
            initial = initial.with_qubit(k, path.initial_excited());
            final_state = final_state.with_qubit(k, path.final_excited(duration_s));
        }
        ShotTruth {
            initial,
            final_state,
            relaxation_time_s: paths.iter().map(StatePath::relaxation_time).collect(),
            excitation_time_s: paths
                .iter()
                .map(|path| match *path {
                    StatePath::Excitation { time_s } => Some(time_s),
                    _ => None,
                })
                .collect(),
        }
    }
}

/// One labeled readout shot: the nominally prepared state plus the raw
/// digitized ADC waveform of the shared feedline.
#[derive(Debug, Clone, PartialEq)]
pub struct Shot {
    /// The basis state the register was nominally prepared in (the label).
    pub prepared: BasisState,
    /// Raw quadrature-sampled ADC waveform (both channels, ADC rate).
    pub raw: IqTrace,
    /// Ground-truth events (hidden from discriminators).
    pub truth: ShotTruth,
}

/// Index-based train/validation/test partition of a [`Dataset`].
///
/// Splits are stratified per prepared basis state, mirroring the paper's
/// 9 750 / 5 250 / 35 000 split of each state's 50 000 traces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetSplit {
    /// Indices of training shots.
    pub train: Vec<usize>,
    /// Indices of validation shots.
    pub val: Vec<usize>,
    /// Indices of test shots.
    pub test: Vec<usize>,
}

/// A collection of labeled shots generated from one chip configuration.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The configuration the shots were generated from.
    pub config: ChipConfig,
    /// All shots, grouped by prepared state (state-major order).
    pub shots: Vec<Shot>,
}

impl Dataset {
    /// Generates `shots_per_state` shots for each of the `2^n` basis states,
    /// sharding basis states across a machine-sized [`ShardPool`].
    ///
    /// Generation is deterministic in `seed` and — because every basis state
    /// draws from its own `seed`-derived RNG stream — independent of the
    /// thread count: `generate`, [`Dataset::generate_with_threads`] and
    /// [`Dataset::generate_with_pool`] at any parallelism produce identical
    /// shots.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ChipConfig::validate`].
    pub fn generate(config: &ChipConfig, shots_per_state: usize, seed: u64) -> Dataset {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::generate_with_threads(config, shots_per_state, seed, threads)
    }

    /// [`Dataset::generate`] with an explicit thread count (1 runs inline on
    /// the caller's thread). Output is identical for every `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ChipConfig::validate`].
    pub fn generate_with_threads(
        config: &ChipConfig,
        shots_per_state: usize,
        seed: u64,
        threads: usize,
    ) -> Dataset {
        let n_states = 1usize << config.n_qubits();
        let pool = ShardPool::new(threads.clamp(1, n_states));
        Self::generate_with_pool(config, shots_per_state, seed, &pool)
    }

    /// [`Dataset::generate`] on a caller-owned [`ShardPool`] — the shared
    /// execution runtime, so calibration generation and the streaming cycle
    /// engine can reuse one set of persistent workers. One basis state is one
    /// shard; output is identical for every pool size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ChipConfig::validate`].
    pub fn generate_with_pool(
        config: &ChipConfig,
        shots_per_state: usize,
        seed: u64,
        pool: &ShardPool,
    ) -> Dataset {
        // Built once and cloned per shard, so at most one synthesizer per
        // worker (plus this one) is ever alive, however many states there are.
        let template: RoundSynth = RoundSynth::new(config);
        let n = config.n_qubits();
        let n_states = 1usize << n;
        let n_samples = template.n_samples();
        let duration_s = config.readout_duration_s;

        let mut per_state: Vec<Vec<Shot>> = Vec::with_capacity(n_states);
        per_state.resize_with(n_states, Vec::new);
        pool.run_mut(&mut per_state, |state, bucket| {
            let prepared = BasisState::new(state as u32);
            let mut rng = StdRng::seed_from_u64(state_stream_seed(seed, state));
            let mut synth = template.clone();
            bucket.reserve(shots_per_state);
            for _ in 0..shots_per_state {
                let mut i = vec![0.0; n_samples];
                let mut q = vec![0.0; n_samples];
                synth.synth_into_slot(prepared, None, &mut i, &mut q, &mut rng);
                bucket.push(Shot {
                    prepared,
                    raw: IqTrace::new(i, q),
                    truth: ShotTruth::from_paths(synth.paths(), duration_s),
                });
            }
        });

        let mut shots = Vec::with_capacity(shots_per_state << n);
        for bucket in per_state {
            shots.extend(bucket);
        }
        Dataset {
            config: config.clone(),
            shots,
        }
    }

    /// Number of qubits on the underlying chip.
    pub fn n_qubits(&self) -> usize {
        self.config.n_qubits()
    }

    /// Stratified split into train/validation/test index sets.
    ///
    /// Each prepared state's shots are shuffled (deterministically in `seed`)
    /// and divided according to the two fractions; the remainder is the test
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if `train_frac + val_frac > 1.0` or either fraction is negative.
    pub fn split(&self, train_frac: f64, val_frac: f64, seed: u64) -> DatasetSplit {
        assert!(
            train_frac >= 0.0 && val_frac >= 0.0,
            "fractions must be non-negative"
        );
        assert!(
            train_frac + val_frac <= 1.0,
            "train + val fractions must not exceed 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_state: Vec<Vec<usize>> = Vec::new();
        for (idx, shot) in self.shots.iter().enumerate() {
            let s = shot.prepared.index();
            if by_state.len() <= s {
                by_state.resize_with(s + 1, Vec::new);
            }
            by_state[s].push(idx);
        }
        let mut split = DatasetSplit::default();
        for mut group in by_state {
            group.shuffle(&mut rng);
            let n_train = (group.len() as f64 * train_frac).round() as usize;
            let n_val = (group.len() as f64 * val_frac).round() as usize;
            let n_val_end = (n_train + n_val).min(group.len());
            split.train.extend_from_slice(&group[..n_train]);
            split.val.extend_from_slice(&group[n_train..n_val_end]);
            split.test.extend_from_slice(&group[n_val_end..]);
        }
        split
    }

    /// Borrows the shots at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Vec<&Shot> {
        indices.iter().map(|&i| &self.shots[i]).collect()
    }
}

/// Derives the RNG seed of one basis state's generation stream from the
/// dataset seed: decorrelated streams per state, stable across sharding
/// layouts. Delegates to the shared [`herqles_exec::stream_seed`] derivation
/// (bit-identical to the formula this generator originally shipped with, so
/// pinned datasets are unchanged).
fn state_stream_seed(seed: u64, state: usize) -> u64 {
    herqles_exec::stream_seed(seed, state as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        Dataset::generate(&ChipConfig::two_qubit_test(), 6, 99)
    }

    #[test]
    fn generation_covers_all_states() {
        let ds = small_dataset();
        assert_eq!(ds.shots.len(), 6 * 4);
        for s in BasisState::all(2) {
            let count = ds.shots.iter().filter(|sh| sh.prepared == s).count();
            assert_eq!(count, 6);
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let cfg = ChipConfig::two_qubit_test();
        let a = Dataset::generate(&cfg, 3, 5);
        let b = Dataset::generate(&cfg, 3, 5);
        assert_eq!(a.shots, b.shots);
        let c = Dataset::generate(&cfg, 3, 6);
        assert_ne!(a.shots, c.shots);
    }

    #[test]
    fn generation_is_independent_of_thread_count() {
        // The determinism pin of the parallel generator: per-state RNG
        // streams make the traces a function of (config, shots, seed) only,
        // regardless of how basis states are sharded across threads.
        let cfg = ChipConfig::two_qubit_test();
        let single = Dataset::generate_with_threads(&cfg, 4, 31, 1);
        for threads in [2, 3, 4, 16] {
            let multi = Dataset::generate_with_threads(&cfg, 4, 31, threads);
            assert_eq!(
                single.shots, multi.shots,
                "threads={threads} changed the generated traces"
            );
        }
        assert_eq!(single.shots, Dataset::generate(&cfg, 4, 31).shots);
        // Each shard clones its own synthesizer: on the 32-state chip two
        // workers must still reproduce the inline traces and truth.
        let cfg = ChipConfig::five_qubit_default();
        let single = Dataset::generate_with_threads(&cfg, 2, 17, 1);
        let pooled = Dataset::generate_with_threads(&cfg, 2, 17, 2);
        assert_eq!(single.shots, pooled.shots);
    }

    #[test]
    fn generation_on_a_shared_pool_matches_the_inline_path() {
        // The ShardPool migration pin: a caller-owned pool of any size
        // produces the same dataset as single-threaded generation, and one
        // pool can serve several generations back to back.
        let cfg = ChipConfig::two_qubit_test();
        let single = Dataset::generate_with_threads(&cfg, 4, 31, 1);
        let pool = ShardPool::new(3);
        for _ in 0..2 {
            let pooled = Dataset::generate_with_pool(&cfg, 4, 31, &pool);
            assert_eq!(single.shots, pooled.shots);
        }
    }

    #[test]
    fn raw_traces_have_adc_length() {
        let ds = small_dataset();
        for shot in &ds.shots {
            assert_eq!(shot.raw.len(), ds.config.n_samples());
        }
    }

    #[test]
    fn truth_tracks_prepared_state_mostly() {
        // With default error rates the initial state should equal the
        // prepared state in the overwhelming majority of shots.
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 50, 11);
        let matching = ds
            .shots
            .iter()
            .filter(|s| s.truth.initial == s.prepared)
            .count();
        assert!(matching as f64 / ds.shots.len() as f64 > 0.95);
    }

    #[test]
    fn relaxation_truth_only_for_excited_preparations() {
        let ds = small_dataset();
        for shot in &ds.shots {
            for (k, t) in shot.truth.relaxation_time_s.iter().enumerate() {
                if t.is_some() {
                    assert!(
                        shot.truth.initial.qubit(k),
                        "relaxation recorded for a qubit that started in ground"
                    );
                    assert!(!shot.truth.final_state.qubit(k));
                }
            }
        }
    }

    #[test]
    fn split_is_stratified_and_complete() {
        let ds = Dataset::generate(&ChipConfig::two_qubit_test(), 10, 3);
        let split = ds.split(0.2, 0.1, 7);
        assert_eq!(split.train.len(), 4 * 2);
        assert_eq!(split.val.len(), 4);
        assert_eq!(split.test.len(), 40 - 8 - 4);
        let mut all: Vec<usize> = split
            .train
            .iter()
            .chain(&split.val)
            .chain(&split.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic() {
        let ds = small_dataset();
        assert_eq!(ds.split(0.5, 0.2, 1), ds.split(0.5, 0.2, 1));
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn split_rejects_oversubscription() {
        let _ = small_dataset().split(0.8, 0.5, 0);
    }

    #[test]
    fn subset_borrows_requested_shots() {
        let ds = small_dataset();
        let sub = ds.subset(&[0, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].prepared, ds.shots[0].prepared);
    }

    #[test]
    fn mtv_of_demixed_states_differs() {
        // Sanity: the raw multiplexed waveform of |00> and |11> must differ
        // substantially (different basebands on both tones).
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 4, 21);
        let mean_raw = |state: BasisState| -> f64 {
            let shots: Vec<_> = ds.shots.iter().filter(|s| s.prepared == state).collect();
            shots
                .iter()
                .map(|s| s.raw.i().iter().map(|x| x * x).sum::<f64>())
                .sum::<f64>()
                / shots.len() as f64
        };
        let e00 = mean_raw(BasisState::new(0));
        let e11 = mean_raw(BasisState::new(3));
        assert!((e00 - e11).abs() > 1e-6);
    }
}
