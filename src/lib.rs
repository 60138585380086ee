//! # HERQULES — hardware-efficient machine-learning qubit readout
//!
//! Umbrella crate for the reproduction of *"Scaling Qubit Readout with
//! Hardware Efficient Machine Learning Architectures"* (ISCA 2023). It
//! re-exports every workspace crate under one roof so applications can depend
//! on a single crate:
//!
//! * [`exec`] — deterministic parallel execution runtime (shard pool,
//!   staged fan-out, RNG stream derivation)
//! * [`sim`] — physics-level readout-trace simulator (dataset substrate)
//! * [`dsp`] — demodulation, boxcar filtering, matched / relaxation matched filters
//! * [`nn`] — minimal dense neural-network library (training + quantized inference)
//! * [`classifiers`] — linear SVM, centroid, and threshold discriminators
//! * [`core`] — the HERQULES discriminator architectures and metrics
//! * [`fpga`] — FPGA resource/latency estimation for readout datapaths
//! * [`qec`] — rotated surface-code simulation and syndrome-cycle timing
//! * [`stream`] — streaming QEC-cycle engine (readout → syndrome → decode
//!   on one batch pipeline)
//! * [`telemetry`] — allocation-free latency histograms, metrics registry
//!   with a Prometheus text exporter, and lock-free event tracing
//! * [`nisq`] — noisy state-vector simulation of NISQ benchmark circuits
//!
//! # Quickstart
//!
//! ```
//! use herqles::sim::{ChipConfig, Dataset};
//!
//! let config = ChipConfig::five_qubit_default();
//! let dataset = Dataset::generate(&config, 2, 7);
//! assert_eq!(dataset.shots.len(), 2 * 32);
//! ```
//!
//! See `examples/quickstart.rs` for the end-to-end train → discriminate flow.

pub use fpga_model as fpga;
pub use herqles_core as core;
pub use herqles_exec as exec;
pub use herqles_stream as stream;
pub use herqles_telemetry as telemetry;
pub use nisq_sim as nisq;
pub use readout_classifiers as classifiers;
pub use readout_dsp as dsp;
pub use readout_nn as nn;
pub use readout_sim as sim;
pub use surface_code as qec;
