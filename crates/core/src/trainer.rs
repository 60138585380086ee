//! Training orchestration: dataset in, any trained design out.
//!
//! A [`ReadoutTrainer`] demodulates the training shots once, then lazily
//! trains and caches the shared stages (matched filters, Algorithm 1
//! relabeling, relaxation matched filters) so that building several designs
//! for a Table 1-style comparison does not repeat work. Use
//! [`ReadoutTrainer::reset_caches`] (or a fresh trainer) when measuring
//! training *time* per design, as Table 5 does.

use readout_classifiers::svm::SvmConfig;
use readout_classifiers::{CentroidClassifier, LinearSvm, ThresholdDiscriminator};
use readout_dsp::filters::MatchedFilter;
use readout_dsp::{BasebandBatch, Demodulator};
use readout_nn::net::TrainConfig;
use readout_nn::{Mlp, Standardizer};
use readout_sim::dataset::Dataset;
use readout_sim::trace::IqTrace;
use readout_sim::ShotBatch;

use crate::bank::FilterBank;
use crate::designs::{
    BaselineFnnDiscriminator, CentroidDiscriminator, DesignKind, Discriminator, MfDiscriminator,
    NnDiscriminator, SvmDiscriminator,
};
use crate::relabel::identify_relaxation_traces;

/// Hyper-parameters for all trainable stages.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Training configuration for the small FNN heads (`mf-nn`, `mf-rmf-nn`).
    pub nn_train: TrainConfig,
    /// Training configuration for the baseline large FNN.
    pub baseline_train: TrainConfig,
    /// Configuration of the per-qubit linear SVMs.
    pub svm: SvmConfig,
    /// Minimum number of mined relaxation traces required to train a
    /// meaningful RMF; below this the RMF degenerates to a zero envelope
    /// (the paper's qubit-2 situation, where Algorithm 1 output is noise).
    pub min_relaxation_traces: usize,
    /// Minimum resolvability of Algorithm 1's geometry, measured as the MTV
    /// centroid distance in units of the MTV noise deviation. Below this the
    /// mined "relaxation" labels are dominated by noise (the paper reports
    /// exactly this for its qubit 2: "the lack of distinguishability results
    /// in noisy results"), so the RMF degenerates to a zero envelope rather
    /// than injecting a noise feature.
    pub min_mtv_resolvability: f64,
    /// Base seed for network initialization.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            nn_train: TrainConfig {
                epochs: 150,
                batch_size: 64,
                learning_rate: 3e-3,
                ..TrainConfig::default()
            },
            baseline_train: TrainConfig {
                epochs: 60,
                batch_size: 128,
                learning_rate: 2e-3,
                ..TrainConfig::default()
            },
            svm: SvmConfig {
                lambda: 1e-5,
                epochs: 60,
                seed: 0,
            },
            min_relaxation_traces: 3,
            min_mtv_resolvability: 4.0,
            seed: 0x9e3779b9,
        }
    }
}

/// Trains any [`DesignKind`] from one dataset and training-index set.
#[derive(Debug)]
pub struct ReadoutTrainer<'a> {
    dataset: &'a Dataset,
    train_idx: Vec<usize>,
    config: TrainerConfig,
    demod: Demodulator,
    /// Demodulated traces of the training shots (aligned with `train_idx`).
    demod_traces: Vec<Vec<IqTrace>>,
    mfs: Option<Vec<MatchedFilter>>,
    rmfs: Option<Vec<MatchedFilter>>,
    relax_fractions: Option<Vec<f64>>,
}

impl<'a> ReadoutTrainer<'a> {
    /// Creates a trainer over the given training indices with default
    /// hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `train_idx` is empty or contains out-of-range indices.
    pub fn new(dataset: &'a Dataset, train_idx: &[usize]) -> Self {
        Self::with_config(dataset, train_idx, TrainerConfig::default())
    }

    /// Creates a trainer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `train_idx` is empty or contains out-of-range indices.
    pub fn with_config(dataset: &'a Dataset, train_idx: &[usize], config: TrainerConfig) -> Self {
        assert!(!train_idx.is_empty(), "training set must be non-empty");
        let demod = Demodulator::new(&dataset.config);
        // One batched demodulation pass over the training set (bit-identical
        // to per-shot demodulation, a fraction of the allocations).
        let batch: ShotBatch = ShotBatch::from_dataset(dataset, train_idx);
        let mut bb = BasebandBatch::new();
        demod.demodulate_batch(&batch, &mut bb);
        let demod_traces = (0..train_idx.len())
            .map(|s| (0..dataset.n_qubits()).map(|q| bb.trace(s, q)).collect())
            .collect();
        ReadoutTrainer {
            dataset,
            train_idx: train_idx.to_vec(),
            config,
            demod,
            demod_traces,
            mfs: None,
            rmfs: None,
            relax_fractions: None,
        }
    }

    /// The hyper-parameters in use.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.dataset.n_qubits()
    }

    /// Number of training shots.
    pub fn n_train(&self) -> usize {
        self.train_idx.len()
    }

    /// Drops all cached trained stages (for per-design timing studies).
    pub fn reset_caches(&mut self) {
        self.mfs = None;
        self.rmfs = None;
        self.relax_fractions = None;
    }

    /// Fraction of excited-labeled training traces Algorithm 1 re-labeled as
    /// relaxations, per qubit (paper §4.3.1 reports 4.3–11.6 %).
    pub fn relaxation_fractions(&mut self) -> Vec<f64> {
        self.ensure_rmfs();
        self.relax_fractions
            .clone()
            .expect("populated by ensure_rmfs")
    }

    /// The trained per-qubit matched filters (training them on first call).
    pub fn matched_filters(&mut self) -> &[MatchedFilter] {
        self.ensure_mfs();
        self.mfs.as_deref().expect("populated by ensure_mfs")
    }

    /// The trained per-qubit relaxation matched filters.
    pub fn relaxation_filters(&mut self) -> &[MatchedFilter] {
        self.ensure_rmfs();
        self.rmfs.as_deref().expect("populated by ensure_rmfs")
    }

    /// Trains the requested design end to end.
    pub fn train(&mut self, kind: DesignKind) -> Box<dyn Discriminator> {
        match kind {
            DesignKind::Centroid => Box::new(self.train_centroid()),
            DesignKind::Mf => Box::new(self.train_mf()),
            DesignKind::MfSvm => Box::new(self.train_svm(false)),
            DesignKind::MfRmfSvm => Box::new(self.train_svm(true)),
            DesignKind::MfNn => Box::new(self.train_nn(false)),
            DesignKind::MfRmfNn => Box::new(self.train_nn(true)),
            DesignKind::BaselineFnn => Box::new(self.train_baseline()),
        }
    }

    fn ensure_mfs(&mut self) {
        if self.mfs.is_some() {
            return;
        }
        let n = self.n_qubits();
        let mut mfs = Vec::with_capacity(n);
        for q in 0..n {
            let (ground, excited) = self.classes_for(q);
            // Envelope oriented excited-minus-ground: positive output leans
            // excited, matching the threshold orientation downstream.
            let mf = MatchedFilter::train(&excited, &ground)
                .expect("training classes are non-empty by construction");
            mfs.push(mf);
        }
        self.mfs = Some(mfs);
    }

    fn ensure_rmfs(&mut self) {
        if self.rmfs.is_some() {
            return;
        }
        let n = self.n_qubits();
        let n_bins = self.dataset.config.n_bins();
        let mut rmfs = Vec::with_capacity(n);
        let mut fractions = Vec::with_capacity(n);
        for q in 0..n {
            let (ground, excited) = self.classes_for(q);
            let labels = identify_relaxation_traces(&ground, &excited);
            fractions.push(labels.relaxation_fraction(excited.len()));
            // MTV noise: per-bin noise averaged over the window.
            let mtv_sigma = self.dataset.config.bin_noise_sigma()
                / (self.dataset.config.n_bins() as f64).sqrt();
            let resolvability = 2.0 * labels.radius / mtv_sigma.max(f64::MIN_POSITIVE);
            if labels.relaxation_indices.len() < self.config.min_relaxation_traces
                || resolvability < self.config.min_mtv_resolvability
            {
                // Degenerate case (e.g. a qubit with no separation): a zero
                // envelope contributes a constant feature the head ignores.
                rmfs.push(MatchedFilter::from_envelope(IqTrace::zeros(n_bins)));
                continue;
            }
            let relax: Vec<&IqTrace> = labels
                .relaxation_indices
                .iter()
                .map(|&i| excited[i])
                .collect();
            // RMF = mean(Tr_relax − Tr_0)/var(Tr_relax − Tr_0) (paper §4.3.2).
            let rmf = MatchedFilter::train(&relax, &ground)
                .expect("relaxation and ground classes are non-empty");
            rmfs.push(rmf);
        }
        self.rmfs = Some(rmfs);
        self.relax_fractions = Some(fractions);
    }

    /// Ground/excited demodulated traces of qubit `q` across the training set.
    fn classes_for(&self, q: usize) -> (Vec<&IqTrace>, Vec<&IqTrace>) {
        let mut ground = Vec::new();
        let mut excited = Vec::new();
        for (&shot_idx, traces) in self.train_idx.iter().zip(&self.demod_traces) {
            if self.dataset.shots[shot_idx].prepared.qubit(q) {
                excited.push(&traces[q]);
            } else {
                ground.push(&traces[q]);
            }
        }
        (ground, excited)
    }

    fn bank(&mut self, with_rmf: bool) -> FilterBank {
        self.ensure_mfs();
        let mfs = self.mfs.clone().expect("populated by ensure_mfs");
        if with_rmf {
            self.ensure_rmfs();
            FilterBank::with_rmfs(mfs, self.rmfs.clone().expect("populated by ensure_rmfs"))
        } else {
            FilterBank::new(mfs)
        }
    }

    fn feature_matrix(&self, bank: &FilterBank) -> Vec<Vec<f64>> {
        self.demod_traces
            .iter()
            .map(|tr| bank.features(tr))
            .collect()
    }

    fn state_labels(&self) -> Vec<usize> {
        self.train_idx
            .iter()
            .map(|&i| self.dataset.shots[i].prepared.index())
            .collect()
    }

    fn qubit_labels(&self, q: usize) -> Vec<bool> {
        self.train_idx
            .iter()
            .map(|&i| self.dataset.shots[i].prepared.qubit(q))
            .collect()
    }

    /// Trains the `centroid` design with its concrete type (the typed
    /// counterpart of [`ReadoutTrainer::train`]).
    pub fn train_centroid(&mut self) -> CentroidDiscriminator {
        let n = self.n_qubits();
        let mut per_qubit = Vec::with_capacity(n);
        for q in 0..n {
            let mut classes = vec![Vec::new(), Vec::new()];
            for (&shot_idx, traces) in self.train_idx.iter().zip(&self.demod_traces) {
                let mtv = traces[q].mtv();
                let class = usize::from(self.dataset.shots[shot_idx].prepared.qubit(q));
                classes[class].push(vec![mtv.i, mtv.q]);
            }
            per_qubit.push(CentroidClassifier::train(&classes));
        }
        CentroidDiscriminator::new(self.demod.clone(), per_qubit)
    }

    /// Trains the `mf` design with its concrete type.
    pub fn train_mf(&mut self) -> MfDiscriminator {
        let bank = self.bank(false);
        let n = self.n_qubits();
        let features = self.feature_matrix(&bank);
        let mut thresholds = Vec::with_capacity(n);
        for q in 0..n {
            let labels = self.qubit_labels(q);
            let excited: Vec<f64> = features
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l)
                .map(|(f, _)| f[q])
                .collect();
            let ground: Vec<f64> = features
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| !l)
                .map(|(f, _)| f[q])
                .collect();
            thresholds.push(ThresholdDiscriminator::train(&excited, &ground));
        }
        MfDiscriminator::new(self.demod.clone(), bank, thresholds)
    }

    /// Trains the `mf-svm` (or, `with_rmf`, `mf-rmf-svm`) design with its
    /// concrete type.
    pub fn train_svm(&mut self, with_rmf: bool) -> SvmDiscriminator {
        let bank = self.bank(with_rmf);
        let features = self.feature_matrix(&bank);
        let standardizer = Standardizer::fit(&features);
        let features = standardizer.transform_all(&features);
        let svms: Vec<LinearSvm> = (0..self.n_qubits())
            .map(|q| LinearSvm::train(&features, &self.qubit_labels(q), &self.config.svm))
            .collect();
        SvmDiscriminator::new(self.demod.clone(), bank, standardizer, svms)
    }

    /// Trains a head network with restart-on-plateau: narrow ReLU stacks
    /// (e.g. the 2-feature `mf-nn` head) can die wholesale under an unlucky
    /// initialization, leaving the loss pinned at the uniform-prediction
    /// plateau `ln(n_classes)` with zero gradient. When that happens the
    /// network is reinitialized from a deterministically derived seed and
    /// retrained; the best attempt wins.
    fn train_with_restarts(
        sizes: &[usize],
        seed: u64,
        inputs: &[Vec<f64>],
        labels: &[usize],
        config: &TrainConfig,
    ) -> Mlp {
        const MAX_RESTARTS: u64 = 4;
        let uniform_loss = (*sizes.last().expect("non-empty sizes") as f64).ln();
        let mut best: Option<(f64, Mlp)> = None;
        for attempt in 0..MAX_RESTARTS {
            let mut net = Mlp::new(sizes, seed ^ attempt.wrapping_mul(0x9e3779b97f4a7c15));
            let report = net.train(inputs, labels, config);
            let loss = report.final_loss();
            if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                best = Some((loss, net));
            }
            if loss < 0.995 * uniform_loss {
                break;
            }
        }
        best.expect("at least one attempt ran").1
    }

    /// Trains the `mf-nn` (or, `with_rmf`, `mf-rmf-nn`) design with its
    /// concrete type.
    pub fn train_nn(&mut self, with_rmf: bool) -> NnDiscriminator {
        let bank = self.bank(with_rmf);
        let features = self.feature_matrix(&bank);
        let standardizer = Standardizer::fit(&features);
        let features = standardizer.transform_all(&features);
        let sizes = NnDiscriminator::layer_sizes(bank.n_features(), self.n_qubits());
        let labels = self.state_labels();
        let mut net = Self::train_with_restarts(
            &sizes,
            self.config.seed ^ u64::from(with_rmf),
            &features,
            &labels,
            &self.config.nn_train,
        );
        // Fine-tune at a lower learning rate: the 32-way softmax head gains
        // a consistent fraction of a percent from annealing, which matters
        // at Table 1 resolution.
        let fine = TrainConfig {
            epochs: self.config.nn_train.epochs / 3,
            learning_rate: self.config.nn_train.learning_rate / 6.0,
            seed: self.config.nn_train.seed.wrapping_add(1),
            ..self.config.nn_train.clone()
        };
        net.train(&features, &labels, &fine);
        NnDiscriminator::new(self.demod.clone(), bank, standardizer, net)
    }

    /// Trains the baseline raw-trace FNN with its concrete type.
    pub fn train_baseline(&mut self) -> BaselineFnnDiscriminator {
        let n_samples = self.dataset.config.n_samples();
        let inputs: Vec<Vec<f64>> = self
            .train_idx
            .iter()
            .map(|&i| self.dataset.shots[i].raw.to_feature_vec())
            .collect();
        let standardizer = Standardizer::fit(&inputs);
        let inputs = standardizer.transform_all(&inputs);
        let sizes = BaselineFnnDiscriminator::layer_sizes(n_samples, self.n_qubits());
        let labels = self.state_labels();
        let mut net = Self::train_with_restarts(
            &sizes,
            self.config.seed ^ 0xbead,
            &inputs,
            &labels,
            &self.config.baseline_train,
        );
        let fine = TrainConfig {
            epochs: self.config.baseline_train.epochs / 3,
            learning_rate: self.config.baseline_train.learning_rate / 6.0,
            seed: self.config.baseline_train.seed.wrapping_add(1),
            ..self.config.baseline_train.clone()
        };
        net.train(&inputs, &labels, &fine);
        BaselineFnnDiscriminator::new(standardizer, net, self.n_qubits(), n_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readout_sim::ChipConfig;

    fn small_setup() -> (Dataset, Vec<usize>, Vec<usize>) {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 60, 77);
        let split = ds.split(0.5, 0.0, 3);
        (ds, split.train, split.test)
    }

    fn accuracy(disc: &dyn Discriminator, ds: &Dataset, idx: &[usize]) -> f64 {
        let raws: Vec<&IqTrace> = idx.iter().map(|&i| &ds.shots[i].raw).collect();
        let preds = disc.discriminate_batch(&raws);
        let correct = idx
            .iter()
            .zip(&preds)
            .filter(|(&i, &p)| ds.shots[i].prepared == p)
            .count();
        correct as f64 / idx.len() as f64
    }

    #[test]
    fn every_design_trains_and_beats_chance() {
        let (ds, train, test) = small_setup();
        let mut trainer = ReadoutTrainer::with_config(
            &ds,
            &train,
            TrainerConfig {
                nn_train: TrainConfig {
                    epochs: 30,
                    ..TrainerConfig::default().nn_train
                },
                baseline_train: TrainConfig {
                    epochs: 6,
                    ..TrainerConfig::default().baseline_train
                },
                ..TrainerConfig::default()
            },
        );
        for kind in DesignKind::ALL {
            let disc = trainer.train(kind);
            let acc = accuracy(disc.as_ref(), &ds, &test);
            // Chance on 2 qubits is 0.25.
            assert!(acc > 0.5, "{kind} accuracy {acc}");
            assert_eq!(disc.n_qubits(), 2);
            assert_eq!(disc.name(), kind.label());
        }
    }

    #[test]
    fn matched_filters_are_cached() {
        let (ds, train, _) = small_setup();
        let mut trainer = ReadoutTrainer::new(&ds, &train);
        let first = trainer.matched_filters().to_vec();
        let second = trainer.matched_filters().to_vec();
        assert_eq!(first, second);
        trainer.reset_caches();
        let third = trainer.matched_filters().to_vec();
        assert_eq!(
            first, third,
            "retraining on same data must reproduce filters"
        );
    }

    #[test]
    fn relaxation_fractions_are_physical() {
        let (ds, train, _) = small_setup();
        let mut trainer = ReadoutTrainer::new(&ds, &train);
        let fracs = trainer.relaxation_fractions();
        assert_eq!(fracs.len(), 2);
        // T1-driven relaxation fractions plus Algorithm-1 noise: bounded
        // well below 1 and usually a few percent.
        for (q, f) in fracs.iter().enumerate() {
            assert!((0.0..0.5).contains(f), "qubit {q} fraction {f}");
        }
    }

    #[test]
    fn rmf_design_features_are_wider() {
        let (ds, train, _) = small_setup();
        let mut trainer = ReadoutTrainer::new(&ds, &train);
        let bank_plain = trainer.bank(false);
        let bank_rmf = trainer.bank(true);
        assert_eq!(bank_plain.n_features(), 2);
        assert_eq!(bank_rmf.n_features(), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_panics() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 2, 0);
        let _ = ReadoutTrainer::new(&ds, &[]);
    }
}
