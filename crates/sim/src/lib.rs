//! Physics-level simulator of dispersive superconducting-qubit readout.
//!
//! This crate is the dataset substrate for the HERQULES reproduction: it
//! replaces the proprietary five-qubit chip measurements used by the paper
//! (Lienhard et al.'s trace dataset) with synthetically generated readout
//! traces that exhibit the same statistical structure the discriminators
//! exploit:
//!
//! * **Dispersive IQ separation** — each qubit's readout resonator rings up to
//!   a qubit-state-dependent steady-state point in the IQ plane
//!   ([`trajectory`]).
//! * **Relaxation / excitation events** — excited qubits decay with an
//!   exponentially distributed lifetime *during* the readout window, producing
//!   time-structured traces that start on the excited trajectory and decay to
//!   the ground one ([`events`]).
//! * **Readout crosstalk** — the state of neighbouring frequency-multiplexed
//!   qubits shifts a qubit's steady-state point ([`crosstalk`]).
//! * **Frequency multiplexing** — all five resonator signals share one feedline;
//!   the ADC digitizes the summed intermediate-frequency waveform
//!   ([`multiplex`]).
//! * **Additive Gaussian noise** — amplifier-chain noise on both ADC channels
//!   ([`noise`]).
//!
//! One synthesizer, [`RoundSynth`], turns a prepared basis state into one
//! feedline shot: it samples the state paths, rings up the basebands, applies
//! crosstalk, mixes the carriers ([`ReadoutMixer`]) and adds the amplifier
//! noise, into caller-owned rows with no allocation once warm. Both shot
//! producers run on it: [`Dataset::generate`], which produces labeled shots
//! for every basis state of the configured chip, mirroring the paper's
//! calibration dataset (50 000 traces per basis state; scaled down by
//! default), and the streaming QEC engine in `herqles-stream`, which
//! synthesizes each round's ancilla readout. Calibration therefore trains on
//! exactly the physics the stream classifies.
//!
//! # Example
//!
//! ```
//! use readout_sim::{ChipConfig, Dataset};
//!
//! let config = ChipConfig::five_qubit_default();
//! let dataset = Dataset::generate(&config, 4, 1234);
//! assert_eq!(dataset.shots.len(), 4 * 32); // 2^5 basis states
//! ```

pub mod batch;
pub mod config;
pub mod crosstalk;
pub mod dataset;
pub mod drift;
pub mod events;
pub mod mixer;
pub mod multiplex;
pub mod noise;
pub mod synth;
pub mod trace;
pub mod trajectory;

pub use batch::ShotBatch;
pub use config::{ChipConfig, QubitParams};
pub use crosstalk::{CrosstalkError, CrosstalkModel};
pub use dataset::{Dataset, DatasetSplit, Shot, ShotTruth};
pub use drift::{DriftEvent, FaultPlan, RoundFaults};
pub use herqles_num::Real;
pub use mixer::ReadoutMixer;
pub use noise::GaussianNoise;
pub use synth::RoundSynth;
pub use trace::{BasisState, IqPoint, IqTrace};
