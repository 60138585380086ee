//! The `mf` design: per-qubit matched filter + scalar threshold (paper §4.2).

use herqles_num::Real;
use readout_classifiers::ThresholdDiscriminator;
use readout_dsp::Demodulator;
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

use crate::bank::FilterBank;
use crate::designs::{Discriminator, PrecisionDiscriminator};
use crate::fused::{FeatureHead, FilterFrontEnd};

/// Matched-filter discriminator: one MF and one threshold per qubit, no
/// crosstalk compensation. The hardware-cheapest design and the accuracy
/// floor of Table 1.
#[derive(Debug, Clone)]
pub struct MfDiscriminator {
    front: FilterFrontEnd,
    /// Per-qubit thresholds; class A of each threshold is "excited".
    thresholds: Vec<ThresholdDiscriminator>,
}

impl MfDiscriminator {
    /// Builds the discriminator.
    ///
    /// # Panics
    ///
    /// Panics if the bank has RMFs (the plain `mf` design has none) or the
    /// threshold count differs from the qubit count.
    pub fn new(
        demod: Demodulator,
        bank: FilterBank,
        thresholds: Vec<ThresholdDiscriminator>,
    ) -> Self {
        Self::from_front_end(FilterFrontEnd::new(demod, bank), thresholds)
    }

    /// Builds the discriminator on an already compiled front end.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MfDiscriminator::new`].
    pub fn from_front_end(front: FilterFrontEnd, thresholds: Vec<ThresholdDiscriminator>) -> Self {
        assert!(
            !front.bank().has_rmfs(),
            "the mf design uses plain matched filters only"
        );
        assert_eq!(
            thresholds.len(),
            front.bank().n_qubits(),
            "one threshold per qubit required"
        );
        MfDiscriminator { front, thresholds }
    }

    /// The underlying filter bank.
    pub fn bank(&self) -> &FilterBank {
        self.front.bank()
    }

    /// The demodulator the design was trained with.
    pub fn demod(&self) -> &Demodulator {
        self.front.demod()
    }

    /// The per-qubit decision thresholds (class A = "excited").
    pub fn thresholds(&self) -> &[ThresholdDiscriminator] {
        &self.thresholds
    }

    /// The per-qubit soft margins of one feature row at any pipeline
    /// precision: each qubit's distance from its threshold.
    pub fn margins<'a, R: Real>(&'a self, features: &'a [R]) -> impl Iterator<Item = f64> + 'a {
        self.thresholds
            .iter()
            .zip(features)
            .map(|(threshold, f)| (f.to_f64() - threshold.threshold()).abs())
    }
}

impl FeatureHead for MfDiscriminator {
    fn classify_rows<R: Real>(&self, rows: &[R], width: usize, out: &mut Vec<BasisState>) {
        out.extend(rows.chunks(width).map(|f| {
            let mut state = BasisState::new(0);
            for (q, threshold) in self.thresholds.iter().enumerate() {
                state = state.with_qubit(q, threshold.classify_a(f[q].to_f64()));
            }
            state
        }));
    }
}

impl PrecisionDiscriminator<f32> for MfDiscriminator {
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<f32>,
        scratch: &mut Vec<f32>,
        out: &mut Vec<BasisState>,
    ) {
        self.front.classify_batch_into(self, batch, scratch, out);
    }
}

impl Discriminator for MfDiscriminator {
    fn name(&self) -> &str {
        "mf"
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

    fn soft_margins(&self, features: &[f64], out: &mut [f64]) -> bool {
        if features.len() < self.thresholds.len() || out.len() < self.thresholds.len() {
            return false;
        }
        for (dst, margin) in out.iter_mut().zip(self.margins(features)) {
            *dst = margin;
        }
        true
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

#[cfg(test)]
mod tests {
    use super::*;
    use readout_dsp::filters::MatchedFilter;
    use readout_sim::{ChipConfig, Dataset};

    /// Trains a plain-MF discriminator directly (the trainer crate-level path
    /// is exercised in `trainer.rs` tests).
    fn train_mf(dataset: &Dataset) -> MfDiscriminator {
        let demod = Demodulator::new(&dataset.config);
        let n = dataset.n_qubits();
        let demod_traces: Vec<Vec<IqTrace>> = dataset
            .shots
            .iter()
            .map(|s| demod.demodulate(&s.raw))
            .collect();
        let mut mfs = Vec::new();
        for q in 0..n {
            let ground: Vec<&IqTrace> = dataset
                .shots
                .iter()
                .zip(&demod_traces)
                .filter(|(s, _)| !s.prepared.qubit(q))
                .map(|(_, tr)| &tr[q])
                .collect();
            let excited: Vec<&IqTrace> = dataset
                .shots
                .iter()
                .zip(&demod_traces)
                .filter(|(s, _)| s.prepared.qubit(q))
                .map(|(_, tr)| &tr[q])
                .collect();
            // Envelope oriented excited-minus-ground so positive ⇒ excited.
            mfs.push(MatchedFilter::train(&excited, &ground).unwrap());
        }
        let bank = FilterBank::new(mfs);
        let mut thresholds = Vec::new();
        for q in 0..n {
            let mut out_e = Vec::new();
            let mut out_g = Vec::new();
            for (shot, traces) in dataset.shots.iter().zip(&demod_traces) {
                let v = bank.mf(q).apply(&traces[q]);
                if shot.prepared.qubit(q) {
                    out_e.push(v);
                } else {
                    out_g.push(v);
                }
            }
            thresholds.push(ThresholdDiscriminator::train(&out_e, &out_g));
        }
        MfDiscriminator::new(demod, bank, thresholds)
    }

    #[test]
    fn beats_chance_substantially() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 50, 13);
        let disc = train_mf(&ds);
        let correct = ds
            .shots
            .iter()
            .filter(|s| disc.discriminate(&s.raw) == s.prepared)
            .count();
        let acc = correct as f64 / ds.shots.len() as f64;
        assert!(acc > 0.85, "state accuracy {acc}");
        assert_eq!(disc.name(), "mf");
    }

    #[test]
    fn truncation_degrades_gracefully() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 40, 14);
        let disc = train_mf(&ds);
        let acc = |bins: usize| -> f64 {
            let correct = ds
                .shots
                .iter()
                .filter(|s| {
                    disc.discriminate_truncated(&s.raw, &[bins, bins]).unwrap() == s.prepared
                })
                .count();
            correct as f64 / ds.shots.len() as f64
        };
        let full = acc(20);
        let tiny = acc(2);
        assert!(full > tiny, "full {full} vs tiny {tiny}");
    }

    #[test]
    #[should_panic(expected = "plain matched filters")]
    fn bank_with_rmfs_is_rejected() {
        let cfg = ChipConfig::two_qubit_test();
        let demod = Demodulator::new(&cfg);
        let flat = MatchedFilter::from_envelope(IqTrace::zeros(20));
        let bank =
            FilterBank::with_rmfs(vec![flat.clone(), flat.clone()], vec![flat.clone(), flat]);
        let th = ThresholdDiscriminator::train(&[1.0], &[-1.0]);
        let _ = MfDiscriminator::new(demod, bank, vec![th, th]);
    }
}
