//! The `mf-nn` / `mf-rmf-nn` designs: a small FNN over filter-bank features.
//!
//! The network follows the paper's `F → 2F → 4F → 2F → 2^N` architecture
//! (§4.2.1) where `F` is the feature width (`N` for `mf-nn`, `2N` for
//! `mf-rmf-nn`). The output layer enumerates all basis states, so one
//! inference classifies every qubit jointly and the hidden layers can learn
//! crosstalk and relaxation corrections.

use herqles_num::Real;
use readout_dsp::Demodulator;
use readout_nn::{Matrix, Mlp, Standardizer};
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

use crate::bank::FilterBank;
use crate::designs::{Discriminator, PrecisionDiscriminator};
use crate::fused::{FeatureHead, FilterFrontEnd};

/// Small-FNN discriminator over filter-bank features.
#[derive(Debug, Clone)]
pub struct NnDiscriminator {
    front: FilterFrontEnd,
    standardizer: Standardizer,
    net: Mlp,
    name: &'static str,
}

impl NnDiscriminator {
    /// The paper's layer sizes for a feature width `f` and `n`-qubit output.
    ///
    /// Hidden widths are floored at 8 units: at paper scale (`f ≥ 4`) this
    /// is exactly the `F → 2F → 4F → 2F → 2^N` architecture of §4.2.1, while
    /// degenerate tiny feature widths (e.g. the 2-feature `mf-nn` head on a
    /// two-qubit test chip) keep enough trunk width that ReLU units cannot
    /// die wholesale during training.
    pub fn layer_sizes(n_features: usize, n_qubits: usize) -> Vec<usize> {
        let hidden = |k: usize| (k * n_features).max(8);
        vec![n_features, hidden(2), hidden(4), hidden(2), 1 << n_qubits]
    }

    /// Builds the discriminator; `bank.has_rmfs()` decides whether it is the
    /// `mf-nn` or `mf-rmf-nn` design.
    ///
    /// # Panics
    ///
    /// Panics if the network input/output widths do not match the bank and
    /// qubit count, or the standardizer dimension differs from the feature
    /// width.
    pub fn new(demod: Demodulator, bank: FilterBank, standardizer: Standardizer, net: Mlp) -> Self {
        assert_eq!(
            net.input_size(),
            bank.n_features(),
            "network input must match feature width"
        );
        assert_eq!(
            net.output_size(),
            1 << bank.n_qubits(),
            "network output must enumerate the basis states"
        );
        assert_eq!(
            standardizer.dim(),
            bank.n_features(),
            "standardizer must match feature width"
        );
        let name = if bank.has_rmfs() {
            "mf-rmf-nn"
        } else {
            "mf-nn"
        };
        NnDiscriminator {
            front: FilterFrontEnd::new(demod, bank),
            standardizer,
            net,
            name,
        }
    }

    /// The underlying filter bank.
    pub fn bank(&self) -> &FilterBank {
        self.front.bank()
    }

    /// The trained network (for hardware-cost estimation).
    pub fn network(&self) -> &Mlp {
        &self.net
    }
}

impl FeatureHead for NnDiscriminator {
    /// Widens the rows once to the trained `f64` standardizer, then runs one
    /// batched forward pass and maps each row's class to its basis state.
    fn classify_rows<R: Real>(&self, rows: &[R], width: usize, out: &mut Vec<BasisState>) {
        let mut features: Vec<f64> = rows.iter().map(|v| v.to_f64()).collect();
        self.standardizer.transform_rows_inplace(&mut features);
        let x = Matrix::from_vec(features.len() / width, width, features);
        out.extend(
            self.net
                .predict_rows(&x)
                .into_iter()
                .map(|c| BasisState::new(c as u32)),
        );
    }
}

impl<R: Real> PrecisionDiscriminator<R> for NnDiscriminator {
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<R>,
        scratch: &mut Vec<R>,
        out: &mut Vec<BasisState>,
    ) {
        self.front.classify_batch_into(self, batch, scratch, out);
    }
}

impl Discriminator for NnDiscriminator {
    fn name(&self) -> &str {
        self.name
    }

    fn n_qubits(&self) -> usize {
        self.front.bank().n_qubits()
    }

    fn discriminate(&self, raw: &IqTrace) -> BasisState {
        self.front.classify(self, raw, None)
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

    #[test]
    fn layer_sizes_follow_paper_architecture() {
        // Five qubits with RMFs: 10 → 20 → 40 → 20 → 32.
        assert_eq!(
            NnDiscriminator::layer_sizes(10, 5),
            vec![10, 20, 40, 20, 32]
        );
        // Without RMFs: 5 → 10 → 20 → 10 → 32.
        assert_eq!(NnDiscriminator::layer_sizes(5, 5), vec![5, 10, 20, 10, 32]);
    }

    #[test]
    #[should_panic(expected = "network input")]
    fn input_width_mismatch_panics() {
        use readout_dsp::filters::MatchedFilter;
        use readout_sim::ChipConfig;
        let cfg = ChipConfig::two_qubit_test();
        let flat = MatchedFilter::from_envelope(IqTrace::zeros(20));
        let bank = FilterBank::new(vec![flat.clone(), flat]);
        let st = Standardizer::fit(&[vec![0.0, 0.0]]);
        let net = Mlp::new(&[3, 4, 4], 0);
        let _ = NnDiscriminator::new(Demodulator::new(&cfg), bank, st, net);
    }
    // End-to-end behaviour is covered by `trainer.rs` tests, which exercise
    // the full train → discriminate path on simulated data.
}
