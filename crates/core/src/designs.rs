//! The discriminator designs compared in the paper (Table 1).
//!
//! Every design implements [`Discriminator`]: raw multiplexed ADC trace in,
//! multi-qubit [`BasisState`] out, with its batched path written once for
//! both pipeline precisions ([`PrecisionDiscriminator`]). The designs differ
//! in what happens between demodulation and the final decision:
//!
//! | design | features | decision head | paper section |
//! |---|---|---|---|
//! | `centroid` | per-qubit MTV | nearest centroid | §3.4 (cloud default) |
//! | `mf` | per-qubit MF | scalar threshold | §4.2 |
//! | `mf-svm` | all MFs | per-qubit linear SVM | §4.2 |
//! | `mf-nn` | all MFs | small FNN | §4.2.1 |
//! | `mf-rmf-svm` | MFs + RMFs | per-qubit linear SVM | §4.3 |
//! | `mf-rmf-nn` | MFs + RMFs | small FNN | §4.3 (flagship) |
//! | `baseline-fnn` | raw 1000-dim trace | large FNN | §3.2 (Lienhard et al.) |

pub mod baseline;
pub mod centroid;
pub mod mf;
pub mod nn_head;
pub mod svm_head;

use std::fmt;

use herqles_num::Real;
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

pub use baseline::BaselineFnnDiscriminator;
pub use centroid::CentroidDiscriminator;
pub use mf::MfDiscriminator;
pub use nn_head::NnDiscriminator;
pub use svm_head::SvmDiscriminator;

/// Identifier of a discriminator design, used to request training and label
/// benchmark output rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Per-qubit nearest-centroid on the mean trace value.
    Centroid,
    /// Per-qubit matched filter + threshold.
    Mf,
    /// Matched filters + per-qubit linear SVMs.
    MfSvm,
    /// Matched filters + small FNN.
    MfNn,
    /// Matched + relaxation matched filters + per-qubit linear SVMs.
    MfRmfSvm,
    /// Matched + relaxation matched filters + small FNN (the HERQULES
    /// flagship).
    MfRmfNn,
    /// The baseline large FNN on raw ADC traces (Lienhard et al.).
    BaselineFnn,
}

impl DesignKind {
    /// All designs in Table 1 order.
    pub const ALL: [DesignKind; 7] = [
        DesignKind::BaselineFnn,
        DesignKind::Centroid,
        DesignKind::Mf,
        DesignKind::MfSvm,
        DesignKind::MfNn,
        DesignKind::MfRmfSvm,
        DesignKind::MfRmfNn,
    ];

    /// The paper's name for the design.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::Centroid => "centroid",
            DesignKind::Mf => "mf",
            DesignKind::MfSvm => "mf-svm",
            DesignKind::MfNn => "mf-nn",
            DesignKind::MfRmfSvm => "mf-rmf-svm",
            DesignKind::MfRmfNn => "mf-rmf-nn",
            DesignKind::BaselineFnn => "baseline",
        }
    }

    /// Whether the design uses relaxation matched filters.
    pub fn uses_rmf(self) -> bool {
        matches!(self, DesignKind::MfRmfSvm | DesignKind::MfRmfNn)
    }
}

impl fmt::Display for DesignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A trained multi-qubit state discriminator.
///
/// A design implements its batched path once, as
/// [`PrecisionDiscriminator<R>`] for every pipeline precision `R`; both
/// instantiations are supertraits, so a `dyn Discriminator` discriminates
/// `f64` and `f32` batches (and drives a streaming engine at either
/// precision). Implementations are `Send + Sync` so evaluation can be
/// parallelized.
pub trait Discriminator:
    PrecisionDiscriminator<f64> + PrecisionDiscriminator<f32> + Send + Sync
{
    /// The design's display name (Table 1 row label).
    fn name(&self) -> &str;

    /// Number of qubits discriminated per shot.
    fn n_qubits(&self) -> usize;

    /// Discriminates one raw multiplexed ADC trace.
    fn discriminate(&self, raw: &IqTrace) -> BasisState;

    /// Discriminates a batch of borrowed traces.
    ///
    /// When the traces share one length they are packed into a [`ShotBatch`]
    /// and routed through [`Discriminator::discriminate_shot_batch`]. Ragged
    /// batches fall back to the per-shot loop.
    fn discriminate_batch(&self, raws: &[&IqTrace]) -> Vec<BasisState> {
        match ShotBatch::try_from_traces(raws) {
            Some(batch) => self.discriminate_shot_batch(&batch),
            None => raws.iter().map(|r| self.discriminate(r)).collect(),
        }
    }

    /// Discriminates a packed `f64` [`ShotBatch`] (the inference hot path)
    /// into a fresh vector: the design's `PrecisionDiscriminator<f64>` path
    /// with fresh buffers. Designs implement that path, not this wrapper.
    fn discriminate_shot_batch(&self, batch: &ShotBatch) -> Vec<BasisState> {
        let mut out = Vec::new();
        PrecisionDiscriminator::<f64>::discriminate_shot_batch_r_into(
            self,
            batch,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// Writes the per-qubit *soft margins* of one feature row into `out` and
    /// returns `true`, or returns `false` when the design has no calibrated
    /// margin notion (the default).
    ///
    /// A soft margin is the distance of qubit `q`'s decision statistic from
    /// its decision boundary, in feature units: large when the shot sits deep
    /// inside a calibrated cloud, shrinking toward zero as channel drift
    /// pushes shots onto the boundary. Streaming health monitors feed on it
    /// as a leading indicator of discriminator degradation — margins collapse
    /// *before* the error rate visibly rises.
    ///
    /// `features` is one shot's feature row exactly as produced by the
    /// design's batch path (`scratch` chunk of
    /// [`PrecisionDiscriminator::discriminate_shot_batch_r_into`], widened to
    /// `f64`); implementations must return `false` rather than panic on a row
    /// of unexpected width.
    fn soft_margins(&self, features: &[f64], out: &mut [f64]) -> bool {
        let _ = (features, out);
        false
    }

    /// Discriminates with per-qubit readout-duration budgets, expressed in
    /// demodulation bins.
    ///
    /// Returns `None` if the design cannot handle truncated inputs without
    /// retraining — which is exactly the baseline FNN's limitation the paper
    /// highlights (§5.2).
    fn discriminate_truncated(&self, _raw: &IqTrace, _bins: &[usize]) -> Option<BasisState> {
        None
    }

    /// Batch version of [`Discriminator::discriminate_truncated`].
    fn discriminate_truncated_batch(
        &self,
        raws: &[&IqTrace],
        bins: &[usize],
    ) -> Option<Vec<BasisState>> {
        raws.iter()
            .map(|r| self.discriminate_truncated(r, bins))
            .collect()
    }
}

/// A design's batched discrimination at pipeline precision `R` ([`Real`]).
///
/// Each design writes one `impl<R: Real>`: the fused designs (`mf`,
/// `mf-svm`, `mf-nn` and their RMF variants) run the demod + filter GEMM at
/// `R`, the strawman heads (`centroid`, `baseline`) demodulate or read the raw
/// trace at `R` and widen to their trained `f64` heads. The `f64`
/// instantiation is the double-precision reference path.
///
/// [`Discriminator`] requires both instantiations; the streaming
/// `CycleEngine` (crate `herqles-stream`) is generic over this trait, which is
/// what makes an end-to-end `f32` readout → syndrome → decode cycle possible.
/// Where both instantiations are in scope (a generic `D: Discriminator` or a
/// trait object), call it by its qualified name,
/// `PrecisionDiscriminator::<R>::discriminate_shot_batch_r_into(disc, …)`.
pub trait PrecisionDiscriminator<R: Real> {
    /// Discriminates a packed `ShotBatch<R>` into caller-owned buffers — the
    /// streaming hot path: `out` is cleared and receives one state per shot,
    /// and `scratch` is a feature workspace at pipeline precision, both
    /// reused across calls so warm steady-state rounds of the `mf` design
    /// allocate nothing. Fused designs leave `scratch` holding the feature
    /// rows (empty when the batch took the per-shot fallback).
    ///
    /// Duration-agnostic designs fall back to the per-shot path when the
    /// batch length does not match their trained readout window (e.g.
    /// truncated-duration batches); designs welded to one duration (the
    /// baseline FNN, whose input layer *is* the window) panic on mismatched
    /// batches exactly as their [`Discriminator::discriminate`] does.
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<R>,
        scratch: &mut Vec<R>,
        out: &mut Vec<BasisState>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(DesignKind::MfRmfNn.label(), "mf-rmf-nn");
        assert_eq!(DesignKind::BaselineFnn.to_string(), "baseline");
    }

    #[test]
    fn rmf_usage_flags() {
        assert!(DesignKind::MfRmfNn.uses_rmf());
        assert!(DesignKind::MfRmfSvm.uses_rmf());
        assert!(!DesignKind::MfNn.uses_rmf());
        assert!(!DesignKind::BaselineFnn.uses_rmf());
    }

    #[test]
    fn all_contains_every_variant_once() {
        assert_eq!(DesignKind::ALL.len(), 7);
        for (i, a) in DesignKind::ALL.iter().enumerate() {
            for b in &DesignKind::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
