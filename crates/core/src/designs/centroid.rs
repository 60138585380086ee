//! Per-qubit nearest-centroid discrimination on the mean trace value — the
//! simple hardware discriminator cloud systems ship by default (paper §3.4).

use herqles_num::Real;
use readout_classifiers::CentroidClassifier;
use readout_dsp::{BasebandBatch, Demodulator};
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

use crate::designs::{Discriminator, PrecisionDiscriminator};

/// Nearest-centroid discriminator: each qubit's demodulated trace is reduced
/// to its MTV and classified against the two trained class centroids.
#[derive(Debug, Clone)]
pub struct CentroidDiscriminator {
    demod: Demodulator,
    per_qubit: Vec<CentroidClassifier>,
}

impl CentroidDiscriminator {
    /// Builds the discriminator from per-qubit centroid classifiers (class 0
    /// = ground, class 1 = excited).
    ///
    /// # Panics
    ///
    /// Panics if `per_qubit` is empty or any classifier is not binary.
    pub fn new(demod: Demodulator, per_qubit: Vec<CentroidClassifier>) -> Self {
        assert!(!per_qubit.is_empty(), "at least one qubit required");
        assert!(
            per_qubit.iter().all(|c| c.n_classes() == 2),
            "centroid classifiers must be binary"
        );
        CentroidDiscriminator { demod, per_qubit }
    }
}

impl Discriminator for CentroidDiscriminator {
    fn name(&self) -> &str {
        "centroid"
    }

    fn n_qubits(&self) -> usize {
        self.per_qubit.len()
    }

    fn discriminate(&self, raw: &IqTrace) -> BasisState {
        let mut state = BasisState::new(0);
        for (q, classifier) in self.per_qubit.iter().enumerate() {
            let mtv = self.demod.demodulate_qubit(raw, q).mtv();
            let class = classifier.classify(&[mtv.i, mtv.q]);
            state = state.with_qubit(q, class == 1);
        }
        state
    }

    fn discriminate_truncated(&self, raw: &IqTrace, bins: &[usize]) -> Option<BasisState> {
        let mut state = BasisState::new(0);
        for (q, classifier) in self.per_qubit.iter().enumerate() {
            let tr = self.demod.demodulate_qubit(raw, q);
            let mtv = tr.truncated(bins[q]).mtv();
            let class = classifier.classify(&[mtv.i, mtv.q]);
            state = state.with_qubit(q, class == 1);
        }
        Some(state)
    }
}

impl<R: Real> PrecisionDiscriminator<R> for CentroidDiscriminator {
    /// One batched demodulation at `R` for all shots. MTVs are means over the
    /// baseband bins, accumulated in `R` in the same order as `IqTrace::mtv`
    /// (so batched and per-shot `f64` predictions agree exactly) and widened
    /// only for the two-point centroid comparison.
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<R>,
        _scratch: &mut Vec<R>,
        out: &mut Vec<BasisState>,
    ) {
        out.clear();
        if batch.n_samples() < self.demod.samples_per_bin() {
            // No full bin: the per-shot path's empty-trace MTV semantics.
            out.extend((0..batch.n_shots()).map(|s| self.discriminate(&batch.trace(s))));
            return;
        }
        let mut bb = BasebandBatch::<R>::new();
        self.demod.demodulate_batch(batch, &mut bb);
        let n = bb.n_bins() as f64;
        out.extend((0..batch.n_shots()).map(|s| {
            let mut state = BasisState::new(0);
            for (q, classifier) in self.per_qubit.iter().enumerate() {
                let si: R = bb.i_of(s, q).iter().sum();
                let sq: R = bb.q_of(s, q).iter().sum();
                let class = classifier.classify(&[si.to_f64() / n, sq.to_f64() / n]);
                state = state.with_qubit(q, class == 1);
            }
            state
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readout_sim::{ChipConfig, Dataset};

    fn train_centroid(dataset: &Dataset) -> CentroidDiscriminator {
        let demod = Demodulator::new(&dataset.config);
        let n = dataset.n_qubits();
        let mut per_qubit = Vec::new();
        for q in 0..n {
            let mut classes = vec![Vec::new(), Vec::new()];
            for shot in &dataset.shots {
                let mtv = demod.demodulate_qubit(&shot.raw, q).mtv();
                let class = usize::from(shot.prepared.qubit(q));
                classes[class].push(vec![mtv.i, mtv.q]);
            }
            per_qubit.push(CentroidClassifier::train(&classes));
        }
        CentroidDiscriminator::new(demod, per_qubit)
    }

    #[test]
    fn discriminates_well_separated_qubits() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 40, 8);
        let disc = train_centroid(&ds);
        assert_eq!(disc.n_qubits(), 2);
        let correct = ds
            .shots
            .iter()
            .filter(|s| disc.discriminate(&s.raw) == s.prepared)
            .count();
        let acc = correct as f64 / ds.shots.len() as f64;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn truncated_discrimination_works() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 10, 9);
        let disc = train_centroid(&ds);
        let out = disc.discriminate_truncated(&ds.shots[0].raw, &[10, 10]);
        assert!(out.is_some());
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_classifier_rejected() {
        let cfg = ChipConfig::two_qubit_test();
        let demod = Demodulator::new(&cfg);
        let tri = CentroidClassifier::train(&[
            vec![vec![0.0, 0.0]],
            vec![vec![1.0, 0.0]],
            vec![vec![2.0, 0.0]],
        ]);
        let _ = CentroidDiscriminator::new(demod, vec![tri]);
    }
}
