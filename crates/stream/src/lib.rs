//! # herqles-stream — streaming QEC-cycle engine
//!
//! The paper's end goal is not offline figure reproduction but low-latency
//! qubit-state discrimination feeding *real-time error correction*. This
//! crate closes that loop: it runs full distance-`d` surface-code cycles as
//! one batch pipeline,
//!
//! ```text
//! data errors ─▶ true parities ─▶ ancilla readout synthesis (sim)
//!        ─▶ fused demod + matched-filter discrimination (dsp/core)
//!        ─▶ measured syndrome → detection events (qec)
//!        ─▶ decode → logical verdict
//! ```
//!
//! with **no intermediate `Vec<BasisState>`**, and with **no per-round
//! allocation after warm-up** for the `mf` and `mf-adaptive` discriminators
//! (`tests/alloc.rs`; the other designs' heads allocate). The measurement error εR of the phenomenological model
//! is replaced by the physical thing it abstracts: misdiscrimination of
//! synthesized multiplexed readout waveforms.
//!
//! * [`CycleEngine`] — the engine: double-buffered blocks, a reusable
//!   cycle-wide shot batch, a blocking [`CycleEngine::run_cycles`] API and a
//!   pull-based [`CycleEngine::cycles`] iterator with per-stage timings.
//!   Every engine runs one cycle pipeline on a [`herqles_exec::ShardPool`]
//!   (a 1-thread inline pool for [`CycleEngine::new`], the caller's for
//!   [`CycleEngine::with_pool`]): one staged fan-out per cycle, one task per
//!   (round, feedline group) row on the [`RoundSynth`] of the thread running
//!   it, while the caller runs round `t`'s discriminate → syndrome →
//!   window-decode step as soon as its rows are in. Bit-identical at every
//!   pool size; pool dispatch adds no allocation. Any discriminator, a
//!   concrete design or a `&dyn Discriminator`, streams at either pipeline
//!   precision (`CycleEngine::<f64>` / `CycleEngine::<f32>`);
//! * [`RoundSynth`] — re-exported from `readout_sim`: the one readout
//!   synthesizer, which also generates the calibration [`Dataset`]s the
//!   discriminators train on, writing each round's multiplexed feedline
//!   shots straight into [`readout_sim::ShotBatch`] rows;
//! * [`AncillaMap`] — tiling of the code's ancillas onto
//!   frequency-multiplexed feedline groups (batch rows);
//! * [`run_cycles_offline`] — the materializing reference path, bit-identical
//!   to the engine for the same [`CycleConfig`] (pinned by
//!   `tests/parity.rs`).
//!
//! # Example
//!
//! ```
//! use herqles_stream::{train_mf_discriminator, CycleConfig, CycleEngine};
//! use readout_sim::ChipConfig;
//! use surface_code::RotatedSurfaceCode;
//!
//! let chip = ChipConfig::two_qubit_test();
//! let code = RotatedSurfaceCode::new(3);
//! let disc = train_mf_discriminator(&chip, 8, 42);
//! let cfg = CycleConfig {
//!     rounds: 3,
//!     data_error_prob: 0.01,
//!     seed: 7,
//! };
//! let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
//! for result in engine.cycles().take(3) {
//!     assert_eq!(result.stats.rounds, 3);
//! }
//! ```

pub mod engine;
pub mod health;
pub mod map;
pub mod offline;
pub mod recal;
pub mod telemetry;

pub use engine::{
    CycleConfig, CycleEngine, CycleResult, CycleStats, Cycles, EngineStats, StageNanos,
};
pub use health::{HealthConfig, HealthMonitor, HealthStatus};
pub use herqles_exec::{stream_seed, PoolTelemetry, ShardPool};
pub use map::AncillaMap;
pub use offline::{run_cycles_offline, OfflineCycle};
pub use readout_sim::{DriftEvent, FaultPlan, RoundFaults, RoundSynth};
pub use recal::{AdaptiveMf, RecalConfig, Recalibrate};
pub use telemetry::{demo_alert_rules, EngineTelemetry, LatencySummary, StageLatency};

use herqles_core::designs::MfDiscriminator;
use herqles_core::ReadoutTrainer;
use readout_sim::{ChipConfig, Dataset};

pub use herqles_core::{PrecisionDiscriminator, Real};

/// Trains the `mf` discriminator (the engine's default workhorse: fused
/// demod + matched-filter GEMM, allocation-free batch path) on a synthetic
/// calibration dataset of `shots_per_state` shots per basis state.
///
/// Convenience for examples, benches and tests; production callers train via
/// [`herqles_core::ReadoutTrainer`] directly and can pass any design to
/// [`CycleEngine::new`], concrete or as a `&dyn Discriminator`, at either
/// pipeline precision.
pub fn train_mf_discriminator(
    chip: &ChipConfig,
    shots_per_state: usize,
    seed: u64,
) -> MfDiscriminator {
    let dataset = Dataset::generate(chip, shots_per_state, seed);
    let split = dataset.split(0.5, 0.0, seed ^ 0xA5A5);
    let mut trainer = ReadoutTrainer::new(&dataset, &split.train);
    trainer.train_mf()
}
