//! The baseline design: a large FNN on raw ADC traces (Lienhard et al.,
//! paper §3.2).
//!
//! The raw `[I…, Q…]` waveform (1000 samples for the 1 µs window at
//! 500 MS/s) feeds a 1000-500-250-32 network. No demodulation, no filters —
//! the network learns everything, which is why it is accurate, enormous, and
//! welded to one readout duration: its input layer *is* the duration, so
//! [`Discriminator::discriminate_truncated`] returns `None`.

use herqles_num::Real;
use readout_nn::{Matrix, Mlp, Standardizer};
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

use crate::designs::{Discriminator, PrecisionDiscriminator};

/// The baseline large-FNN discriminator.
#[derive(Debug, Clone)]
pub struct BaselineFnnDiscriminator {
    standardizer: Standardizer,
    net: Mlp,
    n_qubits: usize,
    expected_samples: usize,
}

impl BaselineFnnDiscriminator {
    /// The paper's hidden sizes for a raw input of `2·samples` values and an
    /// `n`-qubit output: `1000-500-250-32` scaled with the input.
    pub fn layer_sizes(n_samples: usize, n_qubits: usize) -> Vec<usize> {
        let input = 2 * n_samples;
        vec![input, input / 2, input / 4, 1 << n_qubits]
    }

    /// Builds the discriminator.
    ///
    /// # Panics
    ///
    /// Panics if the network widths are inconsistent with the sample count or
    /// qubit count, or the standardizer dimension differs from the input.
    pub fn new(
        standardizer: Standardizer,
        net: Mlp,
        n_qubits: usize,
        expected_samples: usize,
    ) -> Self {
        assert_eq!(
            net.input_size(),
            2 * expected_samples,
            "network input must be 2× the raw sample count"
        );
        assert_eq!(
            net.output_size(),
            1 << n_qubits,
            "network output must enumerate the basis states"
        );
        assert_eq!(
            standardizer.dim(),
            net.input_size(),
            "standardizer must match the input width"
        );
        BaselineFnnDiscriminator {
            standardizer,
            net,
            n_qubits,
            expected_samples,
        }
    }

    /// The trained network (for hardware-cost estimation).
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The raw sample count the input layer was sized for.
    pub fn expected_samples(&self) -> usize {
        self.expected_samples
    }

    fn features_of(&self, raw: &IqTrace) -> Vec<f64> {
        assert_eq!(
            raw.len(),
            self.expected_samples,
            "baseline FNN requires full-duration traces; retrain for other durations"
        );
        self.standardizer.transform(&raw.to_feature_vec())
    }
}

impl Discriminator for BaselineFnnDiscriminator {
    fn name(&self) -> &str {
        "baseline"
    }

    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn discriminate(&self, raw: &IqTrace) -> BasisState {
        BasisState::new(self.net.predict(&self.features_of(raw)) as u32)
    }

    // discriminate_truncated deliberately keeps the default `None`: the
    // baseline cannot shorten readout without retraining (paper §5.2).
}

impl<R: Real> PrecisionDiscriminator<R> for BaselineFnnDiscriminator {
    /// A batch row already is the network's `[I…, Q…]` input vector: the
    /// plane is copied (widened from `R` to the `f64` the network was
    /// trained in), standardized in place and run through one forward pass.
    /// There is no narrow-precision win to be had here; the `f32`
    /// instantiation exists so every Table 1 design drives the
    /// precision-generic streaming engine.
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<R>,
        _scratch: &mut Vec<R>,
        out: &mut Vec<BasisState>,
    ) {
        out.clear();
        if batch.is_empty() {
            return;
        }
        assert_eq!(
            batch.n_samples(),
            self.expected_samples,
            "baseline FNN requires full-duration traces; retrain for other durations"
        );
        let mut inputs: Vec<f64> = batch.as_slice().iter().map(|v| v.to_f64()).collect();
        self.standardizer.transform_rows_inplace(&mut inputs);
        let x = Matrix::from_vec(batch.n_shots(), batch.row_width(), inputs);
        out.extend(
            self.net
                .predict_rows(&x)
                .into_iter()
                .map(|c| BasisState::new(c as u32)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sizes_match_paper_for_full_window() {
        assert_eq!(
            BaselineFnnDiscriminator::layer_sizes(500, 5),
            vec![1000, 500, 250, 32]
        );
    }

    #[test]
    fn truncation_is_unsupported() {
        let st = Standardizer::fit(&[vec![0.0; 8]]);
        let net = Mlp::new(&[8, 4, 2, 4], 0);
        let disc = BaselineFnnDiscriminator::new(st, net, 2, 4);
        let raw = IqTrace::zeros(4);
        assert!(disc.discriminate_truncated(&raw, &[1, 1]).is_none());
        assert_eq!(disc.name(), "baseline");
        assert_eq!(disc.n_qubits(), 2);
    }

    #[test]
    #[should_panic(expected = "full-duration traces")]
    fn short_trace_panics() {
        let st = Standardizer::fit(&[vec![0.0; 8]]);
        let net = Mlp::new(&[8, 4, 2, 4], 0);
        let disc = BaselineFnnDiscriminator::new(st, net, 2, 4);
        let _ = disc.discriminate(&IqTrace::zeros(3));
    }

    #[test]
    #[should_panic(expected = "2× the raw sample count")]
    fn inconsistent_input_width_panics() {
        let st = Standardizer::fit(&[vec![0.0; 8]]);
        let net = Mlp::new(&[8, 4, 4], 0);
        let _ = BaselineFnnDiscriminator::new(st, net, 2, 5);
    }
}
