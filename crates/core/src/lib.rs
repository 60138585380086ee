//! HERQULES: hardware-efficient qubit-state discrimination.
//!
//! This crate is the reproduction of the paper's primary contribution — the
//! discriminator architectures of Table 1 and the machinery around them:
//!
//! * [`bank`] — the per-qubit filter bank: matched filters (MF), relaxation
//!   matched filters (RMF), and feature assembly with optional per-qubit
//!   readout-duration truncation;
//! * [`relabel`] — **Algorithm 1**: the semi-supervised labeling that mines
//!   relaxation traces out of the calibration set;
//! * [`designs`] — the discriminator designs compared in the paper:
//!   `centroid`, `mf`, `mf-svm`, `mf-nn`, `mf-rmf-svm`, `mf-rmf-nn` and the
//!   baseline raw-trace FNN of Lienhard et al.;
//! * [`trainer`] — one-stop training orchestration that demodulates a
//!   dataset once, trains the filter bank, and builds any design from it;
//! * [`metrics`] — assignment fidelities, geometric-mean cumulative accuracy
//!   (`F5Q`/`F4Q`), precision/recall, cross-fidelity, misclassification
//!   counts;
//! * [`duration`] — readout-duration sweeps (paper §5) that reuse a trained
//!   pipeline at shorter readout windows without retraining.
//!
//! # Example
//!
//! Train the flagship `mf-rmf-nn` design and measure its cumulative accuracy:
//!
//! ```
//! use readout_sim::{ChipConfig, Dataset};
//! use herqles_core::trainer::ReadoutTrainer;
//! use herqles_core::designs::DesignKind;
//! use herqles_core::metrics::evaluate;
//!
//! let config = ChipConfig::five_qubit_default();
//! let dataset = Dataset::generate(&config, 8, 42);
//! let split = dataset.split(0.5, 0.0, 1);
//! let mut trainer = ReadoutTrainer::new(&dataset, &split.train);
//! let design = trainer.train(DesignKind::MfRmfNn);
//! let result = evaluate(design.as_ref(), &dataset, &split.test);
//! assert!(result.cumulative_accuracy() > 0.5);
//! ```

pub mod bank;
pub mod designs;
pub mod duration;
pub mod fused;
pub mod metrics;
pub mod relabel;
pub mod trainer;

pub use bank::FilterBank;
pub use designs::{DesignKind, Discriminator, PrecisionDiscriminator};
pub use fused::{FilterFrontEnd, FusedFilterKernel, TruncatedKernelCache};
pub use herqles_num::Real;
pub use metrics::{evaluate, EvalResult};
pub use relabel::identify_relaxation_traces;
pub use trainer::ReadoutTrainer;
