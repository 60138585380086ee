//! The `mf-svm` / `mf-rmf-svm` designs: per-qubit linear SVMs over the full
//! filter-bank feature vector.
//!
//! Each qubit gets its own binary SVM, but every SVM sees *all* qubits'
//! filter outputs — that is what lets a linear model subtract the linear part
//! of readout crosstalk (paper §4.3.3, Table 2's `MF-RMF-SVM` row).

use herqles_num::Real;
use readout_classifiers::LinearSvm;
use readout_dsp::Demodulator;
use readout_nn::Standardizer;
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

use crate::bank::FilterBank;
use crate::designs::{Discriminator, PrecisionDiscriminator};
use crate::fused::{FeatureHead, FilterFrontEnd};

/// Linear-SVM discriminator over filter-bank features.
#[derive(Debug, Clone)]
pub struct SvmDiscriminator {
    front: FilterFrontEnd,
    standardizer: Standardizer,
    svms: Vec<LinearSvm>,
    name: &'static str,
}

impl SvmDiscriminator {
    /// Builds the discriminator; `bank.has_rmfs()` decides whether it is the
    /// `mf-svm` or `mf-rmf-svm` design.
    ///
    /// # Panics
    ///
    /// Panics if the SVM count differs from the qubit count or the
    /// standardizer dimension differs from the feature width.
    pub fn new(
        demod: Demodulator,
        bank: FilterBank,
        standardizer: Standardizer,
        svms: Vec<LinearSvm>,
    ) -> Self {
        assert_eq!(svms.len(), bank.n_qubits(), "one SVM per qubit required");
        assert_eq!(
            standardizer.dim(),
            bank.n_features(),
            "standardizer must match feature width"
        );
        let name = if bank.has_rmfs() {
            "mf-rmf-svm"
        } else {
            "mf-svm"
        };
        SvmDiscriminator {
            front: FilterFrontEnd::new(demod, bank),
            standardizer,
            svms,
            name,
        }
    }

    /// The underlying filter bank.
    pub fn bank(&self) -> &FilterBank {
        self.front.bank()
    }
}

impl FeatureHead for SvmDiscriminator {
    /// Widens the rows once to the trained `f64` standardizer + linear heads
    /// — a hardware pipeline whose MAC banks may run narrow while the tiny
    /// head runs at full precision.
    fn classify_rows<R: Real>(&self, rows: &[R], width: usize, out: &mut Vec<BasisState>) {
        let mut features: Vec<f64> = rows.iter().map(|v| v.to_f64()).collect();
        self.standardizer.transform_rows_inplace(&mut features);
        out.extend(features.chunks(width).map(|f| {
            let mut state = BasisState::new(0);
            for (q, svm) in self.svms.iter().enumerate() {
                state = state.with_qubit(q, svm.predict(f));
            }
            state
        }));
    }
}

impl Discriminator for SvmDiscriminator {
    fn name(&self) -> &str {
        self.name
    }

    fn n_qubits(&self) -> usize {
        self.front.bank().n_qubits()
    }

    fn discriminate(&self, raw: &IqTrace) -> BasisState {
        self.front.classify(self, raw, None)
    }

    fn discriminate_shot_batch(&self, batch: &ShotBatch) -> Vec<BasisState> {
        self.front.classify_batch(self, batch)
    }

    fn discriminate_shot_batch_into(
        &self,
        batch: &ShotBatch,
        scratch: &mut Vec<f64>,
        out: &mut Vec<BasisState>,
    ) {
        self.front.classify_batch_into(self, batch, scratch, out);
    }

    fn discriminate_truncated(&self, raw: &IqTrace, bins: &[usize]) -> Option<BasisState> {
        Some(self.front.classify(self, raw, Some(bins)))
    }

    fn discriminate_truncated_batch(
        &self,
        raws: &[&IqTrace],
        bins: &[usize],
    ) -> Option<Vec<BasisState>> {
        Some(self.front.classify_truncated_batch(self, raws, bins))
    }
}

impl PrecisionDiscriminator<f32> for SvmDiscriminator {
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<f32>,
        scratch: &mut Vec<f32>,
        out: &mut Vec<BasisState>,
    ) {
        self.front.classify_batch_into(self, batch, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readout_classifiers::svm::SvmConfig;
    use readout_dsp::filters::MatchedFilter;
    use readout_sim::{ChipConfig, Dataset};

    fn train_mf_svm(dataset: &Dataset) -> SvmDiscriminator {
        let demod = Demodulator::new(&dataset.config);
        let n = dataset.n_qubits();
        let demod_traces: Vec<Vec<IqTrace>> = dataset
            .shots
            .iter()
            .map(|s| demod.demodulate(&s.raw))
            .collect();
        let mut mfs = Vec::new();
        for q in 0..n {
            let excited: Vec<&IqTrace> = dataset
                .shots
                .iter()
                .zip(&demod_traces)
                .filter(|(s, _)| s.prepared.qubit(q))
                .map(|(_, tr)| &tr[q])
                .collect();
            let ground: Vec<&IqTrace> = dataset
                .shots
                .iter()
                .zip(&demod_traces)
                .filter(|(s, _)| !s.prepared.qubit(q))
                .map(|(_, tr)| &tr[q])
                .collect();
            mfs.push(MatchedFilter::train(&excited, &ground).unwrap());
        }
        let bank = FilterBank::new(mfs);
        let features: Vec<Vec<f64>> = demod_traces.iter().map(|tr| bank.features(tr)).collect();
        let standardizer = Standardizer::fit(&features);
        let features = standardizer.transform_all(&features);
        let svms = (0..n)
            .map(|q| {
                let labels: Vec<bool> = dataset.shots.iter().map(|s| s.prepared.qubit(q)).collect();
                LinearSvm::train(&features, &labels, &SvmConfig::default())
            })
            .collect();
        SvmDiscriminator::new(demod, bank, standardizer, svms)
    }

    #[test]
    fn svm_head_discriminates() {
        // 120 shots per state: at 50 the training-set accuracy estimate is
        // noisy enough (~±7 pp) that an unlucky noise stream dips below the
        // bound, which made the test flaky across noise-kernel backends.
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 120, 19);
        let disc = train_mf_svm(&ds);
        assert_eq!(disc.name(), "mf-svm");
        let correct = ds
            .shots
            .iter()
            .filter(|s| disc.discriminate(&s.raw) == s.prepared)
            .count();
        let acc = correct as f64 / ds.shots.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn truncated_path_is_supported() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 20, 20);
        let disc = train_mf_svm(&ds);
        assert!(disc
            .discriminate_truncated(&ds.shots[0].raw, &[15, 15])
            .is_some());
    }

    #[test]
    #[should_panic(expected = "one SVM per qubit")]
    fn svm_count_mismatch_panics() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 10, 21);
        let trained = train_mf_svm(&ds);
        let _ = SvmDiscriminator::new(
            Demodulator::new(&cfg),
            trained.bank().clone(),
            trained.standardizer.clone(),
            vec![],
        );
    }
}
