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
//! * [`CycleEngine`] — the engine: double-buffered blocks, reusable
//!   [`engine::RoundBuffers`], a blocking [`CycleEngine::run_cycles`] API and a
//!   pull-based [`CycleEngine::cycles`] iterator with per-stage timings.
//!   Every engine runs one round pipeline on a [`herqles_exec::ShardPool`]
//!   (a 1-thread inline pool for [`CycleEngine::new`], the caller's for
//!   [`CycleEngine::with_pool`]): feedline groups become shards, each owning
//!   its [`RoundSynth`], and round `t+1`'s synthesis overlaps round `t`'s
//!   discriminate → syndrome → window-decode stage. Bit-identical at every
//!   pool size; pool dispatch adds no allocation;
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
//! let mut engine = CycleEngine::new(cfg, &chip, &code, disc.as_ref());
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

use herqles_core::designs::DesignKind;
use herqles_core::designs::MfDiscriminator;
use herqles_core::{Discriminator, ReadoutTrainer};
use readout_sim::{ChipConfig, Dataset};

pub use herqles_core::{PrecisionDiscriminator, Real};

/// Trains the `mf` discriminator (the engine's default workhorse: fused
/// demod + matched-filter GEMM, zero-allocation batch override) on a
/// synthetic calibration dataset of `shots_per_state` shots per basis state.
///
/// Convenience for examples, benches and tests; production callers train via
/// [`herqles_core::ReadoutTrainer`] directly and can pass any design to
/// [`CycleEngine::new`].
pub fn train_mf_discriminator(
    chip: &ChipConfig,
    shots_per_state: usize,
    seed: u64,
) -> Box<dyn Discriminator> {
    let dataset = Dataset::generate(chip, shots_per_state, seed);
    let split = dataset.split(0.5, 0.0, seed ^ 0xA5A5);
    let mut trainer = ReadoutTrainer::new(&dataset, &split.train);
    trainer.train(DesignKind::Mf)
}

/// Like [`train_mf_discriminator`] but with the concrete
/// [`MfDiscriminator`] type, for callers that want a non-default pipeline
/// precision: a `&dyn Discriminator` only drives `CycleEngine<f64>`, while a
/// concrete design implements `PrecisionDiscriminator<f32>` and can power
/// `CycleEngine::<f32, _>::new(cfg, &chip, &code, &disc)`. Trained on the
/// same calibration dataset and split as the type-erased variant, so the two
/// produce identical discriminators.
pub fn train_mf_discriminator_typed(
    chip: &ChipConfig,
    shots_per_state: usize,
    seed: u64,
) -> MfDiscriminator {
    let dataset = Dataset::generate(chip, shots_per_state, seed);
    let split = dataset.split(0.5, 0.0, seed ^ 0xA5A5);
    let mut trainer = ReadoutTrainer::new(&dataset, &split.train);
    trainer.train_mf()
}
