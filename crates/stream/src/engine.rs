//! The streaming QEC-cycle engine.
//!
//! [`CycleEngine`] runs full distance-`d` surface-code cycles as one batch
//! pipeline: each noisy round it applies data errors, reads the true
//! stabilizer parities, synthesizes every ancilla group's multiplexed
//! readout waveform directly into a reusable [`ShotBatch`], discriminates
//! the batch through the fused demod + matched-filter kernel, and commits
//! the *measured* syndrome to a [`SyndromeSim`] — the measurement error εR
//! emerges from physical misdiscrimination instead of a phenomenological
//! coin flip. Blocks terminate with a perfect round, are copied into one of
//! two double-buffered [`SyndromeBlock`] homes, and decoded.
//!
//! After a warm-up cycle the engine's own per-round path performs **zero
//! heap allocation**: every buffer (the cycle-wide shot batch, the synth
//! scratch, the syndrome stepper's event store) is pre-sized and reused. A
//! whole round is allocation-free when the discriminator's buffered batch
//! path is too:
//! `tests/alloc.rs` pins that for `mf` (at `f64` and `f32`) and
//! `mf-adaptive`. The `mf-svm` and `mf-nn` heads widen their feature rows
//! into a fresh `f64` buffer every call, and `centroid` and `baseline` take
//! the allocating default batch path at `f64`. The engine
//! exposes a blocking [`CycleEngine::run_cycles`] API and a pull-based
//! [`CycleEngine::cycles`] iterator of [`CycleResult`]s carrying per-stage
//! nanosecond timings.
//!
//! # One cycle pipeline
//!
//! Every engine runs its cycles on a [`herqles_exec::ShardPool`]: the pool
//! passed to [`CycleEngine::with_pool`], or for [`CycleEngine::new`] a
//! process-wide 1-thread pool that spawns no thread. A cycle is
//!
//! 1. a serial prologue over all its rounds, in ascending order: each
//!    round's fault snapshot, data errors, true parities, and one entropy
//!    word from the master RNG from which every feedline group's synthesis
//!    stream derives ([`herqles_exec::stream_seed`]);
//! 2. one staged fan-out ([`ShardPool::staged`]) with one stage per round
//!    and one task per (round, group) row: each task synthesizes its row of
//!    the cycle-wide `rounds × groups` batch on the [`RoundSynth`] of the
//!    thread running it (synthesis is `&mut self`, so one synthesizer per
//!    pool thread). Meanwhile the calling thread runs the prelude — the
//!    previous block's offloaded decode and any control-plane task — and
//!    then consumes round `t` as soon as its rows are in: discriminate →
//!    syndrome commit → health → sliding-window advance;
//! 3. the block's end: the perfect round, block write-out and decode.
//!
//! No consume step draws from the master RNG, so the prologue draws in the
//! same order as a round-by-round loop, and because every row's randomness
//! comes from its own stream, output is **bit-identical at every pool
//! size** and to the offline materializing reference. Job dispatch on the
//! pool allocates nothing, so pooled warm cycles are as allocation-free as
//! serial ones.
//!
//! Stage accounting is the same at every pool size: the caller's prelude
//! and consume steps charge their own discriminate, syndrome and decode
//! time, and synthesis is charged the fan-out's wall time minus those
//! steps — the synthesis latency the fan-out did not hide. Round `t`'s
//! `Synth` span is how long the caller waited for round `t`'s rows after
//! its previous step. On a 1-thread pool that is all of synthesis.

use std::sync::OnceLock;

use herqles_core::{Discriminator, PrecisionDiscriminator, Real};
use herqles_exec::{stream_seed, CallerStep, ShardPool, Tiles};
use herqles_telemetry::{now_ns, SpanKind, StageTimer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_sim::drift::{FaultPlan, RoundFaults};
use readout_sim::{BasisState, ChipConfig, RoundSynth, ShotBatch};
use surface_code::decoder::DecodeOutcome;
use surface_code::syndrome::DetectionEvent;
use surface_code::{
    decode_block_with, DecodeScratch, NoiseParams, RotatedSurfaceCode, SlidingWindowDecoder,
    SyndromeBlock, SyndromeSim,
};

use crate::health::{HealthConfig, HealthMonitor, HealthStatus};
use crate::map::AncillaMap;
use crate::recal::Recalibrate;
use crate::telemetry::{fmt_ns, EngineTelemetry, StageLatency};

/// Configuration of a streaming cycle run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleConfig {
    /// Noisy stabilizer-measurement rounds per block (commonly `d`).
    pub rounds: usize,
    /// Per-round, per-data-qubit `X` error probability.
    pub data_error_prob: f64,
    /// RNG seed of the whole stream (data errors + readout physics).
    pub seed: u64,
}

impl CycleConfig {
    /// Defaults for a distance-`d` run: `d` rounds, `p = 4·10⁻³` (the
    /// operating point of the paper's Fig. 13 study), seed 0.
    pub fn for_distance(distance: usize) -> Self {
        CycleConfig {
            rounds: distance,
            data_error_prob: 4e-3,
            seed: 0,
        }
    }

    /// Rejects nonsensical configurations loudly at construction time
    /// instead of letting them surface as NaN syndromes or empty blocks
    /// deep inside a run.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `data_error_prob` is not a finite
    /// probability in `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.rounds > 0, "need at least one round per cycle");
        assert!(
            self.data_error_prob.is_finite() && (0.0..=1.0).contains(&self.data_error_prob),
            "data_error_prob must be a finite probability in [0, 1], got {}",
            self.data_error_prob
        );
    }
}

/// Cumulative per-stage wall time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Waveform synthesis (state paths, basebands, crosstalk, multiplexing).
    pub synth: u64,
    /// Batched discrimination (fused demod + matched filter + thresholds).
    pub discriminate: u64,
    /// Syndrome bookkeeping (data errors, parities, detection events).
    pub syndrome: u64,
    /// Block decode (matching + logical-class decision).
    pub decode: u64,
}

impl StageNanos {
    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.synth + self.discriminate + self.syndrome + self.decode
    }

    /// Accumulates another stage breakdown into this one.
    pub fn add(&mut self, other: &StageNanos) {
        self.synth += other.synth;
        self.discriminate += other.discriminate;
        self.syndrome += other.syndrome;
        self.decode += other.decode;
    }
}

/// Timing and size statistics of one completed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStats {
    /// Noisy rounds in the block.
    pub rounds: usize,
    /// Detection events decoded.
    pub n_events: usize,
    /// Per-stage wall time of this cycle.
    pub stage: StageNanos,
    /// Channel health verdict at the end of the cycle.
    pub health: HealthStatus,
}

/// One completed streaming cycle: the decode verdict plus its timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleResult {
    /// Decoder outcome of the block.
    pub outcome: DecodeOutcome,
    /// Stage timings and block size.
    pub stats: CycleStats,
}

/// Aggregate statistics over an engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Completed cycles.
    pub cycles: u64,
    /// Noisy rounds processed.
    pub rounds: u64,
    /// Logical errors observed.
    pub logical_errors: u64,
    /// Blocks whose decode overran the configured real-time budget
    /// ([`CycleEngine::set_decode_budget_ns`]) and were stamped
    /// [`DecodeOutcome::degraded`]. Always zero with no budget set. Zero
    /// does not mean every decode was exact: the union-find decoder keeps
    /// the peeled answer for an interaction group larger than
    /// [`surface_code::uf::LOCAL_EXACT_LIMIT`] events.
    pub degraded_decodes: u64,
    /// Health-status transitions reported by the engine's
    /// [`HealthMonitor`].
    pub health_transitions: u64,
    /// Discriminator hot-swaps performed by
    /// [`CycleEngine::run_cycle_adaptive`].
    pub hot_swaps: u64,
    /// Cumulative per-stage wall time.
    pub stage: StageNanos,
    /// Per-stage latency percentiles (p50/p90/p99/max, ns per cycle), read
    /// from the engine's [`EngineTelemetry`] histograms when
    /// [`CycleEngine::stats`] is called: all-zero before the first recorded
    /// cycle, unchanged while telemetry is disabled.
    pub latency: StageLatency,
    /// Flight-recorder records lost to overwrite
    /// ([`EngineTelemetry::dropped_events`]): nonzero means the flight
    /// recorder's history no longer reaches back to the first event.
    pub trace_dropped: u64,
}

impl EngineStats {
    /// Counts one reported decode outcome.
    fn note_outcome(&mut self, outcome: &DecodeOutcome) {
        self.logical_errors += u64::from(outcome.logical_error);
        self.degraded_decodes += u64::from(outcome.degraded);
    }

    /// The multi-line human-readable report [`EngineStats`]'s `Display`
    /// renders.
    #[must_use]
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles {} | rounds {} | logical errors {} | degraded decodes {}",
            self.cycles, self.rounds, self.logical_errors, self.degraded_decodes
        )?;
        writeln!(
            f,
            "health transitions {} | hot-swaps {} | trace events dropped {}",
            self.health_transitions, self.hot_swaps, self.trace_dropped
        )?;
        writeln!(f, "stage           p50        p99        max")?;
        for (name, s) in [
            ("synth", self.latency.synth),
            ("discriminate", self.latency.discriminate),
            ("syndrome", self.latency.syndrome),
            ("decode", self.latency.decode),
            ("cycle", self.latency.cycle),
        ] {
            writeln!(
                f,
                "{name:<13} {:>10} {:>10} {:>10}",
                fmt_ns(s.p50),
                fmt_ns(s.p99),
                fmt_ns(s.max)
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for CycleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} events, health {:?}: synth {} | discriminate {} | \
             syndrome {} | decode {} | total {}",
            self.rounds,
            self.n_events,
            self.health,
            fmt_ns(self.stage.synth),
            fmt_ns(self.stage.discriminate),
            fmt_ns(self.stage.syndrome),
            fmt_ns(self.stage.decode),
            fmt_ns(self.stage.total())
        )
    }
}

/// The consume step's working set: the discriminator's feature and state
/// outputs and the measured syndrome, at the engine's pipeline precision
/// `R`. Sized during the first cycle and recycled every round.
struct RoundScratch<R: Real> {
    measured: Vec<bool>,
    states: Vec<BasisState>,
    features: Vec<R>,
}

/// The engine's health-monitoring working set: the [`HealthMonitor`] plus
/// the fixed buffers the per-round observation writes through (a widened
/// `f64` feature row for [`Discriminator::soft_margins`] and the per-channel
/// margin output). Sized during the first cycle, allocation-free thereafter.
struct HealthState {
    monitor: HealthMonitor,
    /// Per-channel soft margins of one feature row.
    margins: Vec<f64>,
    /// One group's feature row widened to `f64` for the margin query.
    feat_row: Vec<f64>,
    /// Latched off permanently the first time the discriminator declines a
    /// margin query, so unsupported designs pay one call, not one per round.
    margin_supported: bool,
}

/// The pool an engine runs on, one [`RoundSynth`] per pool thread (a task
/// uses the one of the thread running it), and the cycle-wide working set
/// that the prologue fills and the fan-out synthesizes into. Everything is
/// sized at engine construction; round `t`'s entries are written before the
/// fan-out or by its tasks, and read by round `t`'s consume step.
struct PoolState<'a, R: Real> {
    pool: &'a ShardPool,
    synths: Vec<RoundSynth<R>>,
    /// Round-major `rounds × groups` synthesis stream seeds.
    seeds: Vec<u64>,
    /// Round-major `rounds × ancillas` true parities.
    parities: Vec<bool>,
    /// Each round's resolved fault snapshot.
    faults: Vec<RoundFaults>,
    /// The cycle-wide batch: round `t`'s `groups` rows are `batches[t]`.
    batches: Vec<ShotBatch<R>>,
    rows: BatchRows<R>,
}

/// Row access for the fan-out's tasks: the base pointer of every round's
/// batch, re-derived from a `&mut` borrow before each fan-out, so task
/// `(t, g)` can write row `g` of round `t`'s batch while the caller reads
/// the batches of completed rounds.
struct BatchRows<R> {
    bases: Vec<*mut R>,
    n_rows: usize,
    row_width: usize,
}

// SAFETY: the pointers are only written through by `BatchRows::row`, whose
// contract hands each row to one task at a time — sharing or sending the
// view is sound exactly when sending `&mut [R]` is.
unsafe impl<R: Send> Send for BatchRows<R> {}
unsafe impl<R: Send> Sync for BatchRows<R> {}

impl<R: Real> BatchRows<R> {
    /// Points the view at `batches`, every one holding `n_rows` rows.
    fn bind(&mut self, batches: &mut [ShotBatch<R>]) {
        self.bases.clear();
        for batch in batches {
            assert_eq!(
                batch.n_shots(),
                self.n_rows,
                "batch holds one row per group"
            );
            self.bases.push(batch.as_mut_slice().as_mut_ptr());
        }
    }

    /// Row `g` of round `t`'s batch.
    ///
    /// # Safety
    ///
    /// Since the last [`BatchRows::bind`], the batches must not have been
    /// moved or resized, and no other live reference may cover this row:
    /// the fan-out hands each `(t, g)` to exactly one task, and a consume
    /// step reads only rounds whose tasks have all completed.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, t: usize, g: usize) -> &mut [R] {
        assert!(g < self.n_rows, "row index out of range");
        std::slice::from_raw_parts_mut(self.bases[t].add(g * self.row_width), self.row_width)
    }
}

/// The pool behind [`CycleEngine::new`]: its one thread is the caller, so it
/// spawns nothing and runs both pipeline stages inline.
fn inline_pool() -> &'static ShardPool {
    static POOL: OnceLock<ShardPool> = OnceLock::new();
    POOL.get_or_init(|| ShardPool::new(1))
}

/// Sliding-window streaming decode state: the window decoder plus per-block
/// feed progress and budget bookkeeping.
struct WindowState {
    wd: SlidingWindowDecoder,
    /// Detection events already fed to the window this block.
    events_fed: usize,
    /// Whether any decode step of the current block overran the engine's
    /// real-time budget.
    over_budget: bool,
}

impl WindowState {
    /// Feeds the block's events not yet in the window.
    fn feed(&mut self, events: &[DetectionEvent]) {
        self.wd.push_events(&events[self.events_fed..]);
        self.events_fed = events.len();
    }

    /// Ends a block: feeds the terminating perfect round's events, resolves
    /// whatever the window deferred, and combines with the west parity
    /// committed during the stream. When the stream committed nothing ahead
    /// of the block end, the whole block goes through the standard dispatch
    /// instead — bit-identical to whole-block mode on quiet or short streams.
    fn finish(
        &mut self,
        code: &RotatedSurfaceCode,
        rounds: usize,
        block: &SyndromeBlock,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        self.feed(&block.events);
        if self.wd.committed_clusters() == 0 {
            return decode_block_with(code, block, scratch);
        }
        let (graph, uf) = scratch.window_parts(code, rounds);
        let west_matches = self.wd.finish(graph, uf);
        debug_assert_eq!(self.wd.n_events(), block.events.len());
        DecodeOutcome {
            n_events: self.wd.n_events(),
            west_matches,
            logical_error: block.west_column_error_parity(code) != (west_matches % 2 == 1),
            degraded: false,
        }
    }
}

/// When a block's decode work happens. Logical verdicts are the same in
/// every mode.
enum DecodeMode {
    /// The whole block decodes when its cycle finishes.
    WholeBlock,
    /// Every consumed round advances a sliding window
    /// ([`CycleEngine::set_sliding_window`]); the cycle's end resolves the
    /// remainder.
    Window(WindowState),
    /// Each block decodes in the next cycle's fan-out prelude
    /// ([`CycleEngine::set_async_decode`]).
    Offload {
        /// A finished block awaits its decode.
        pending: bool,
        /// The latest offloaded decode's outcome, not yet reported.
        outcome: DecodeOutcome,
    },
}

/// The engine's decode side: the code and block length it decodes, the
/// decoder workspace, the decode schedule, and the real-time budget.
struct BlockDecoder<'a> {
    code: &'a RotatedSurfaceCode,
    rounds: usize,
    /// Reusable decoder workspace: pre-sized at construction so no decode
    /// allocates, completing the warm whole-cycle zero-allocation invariant
    /// (`tests/alloc.rs`).
    scratch: DecodeScratch,
    mode: DecodeMode,
    /// Real-time budget per decode step; overruns stamp
    /// [`DecodeOutcome::degraded`].
    budget_ns: Option<u64>,
}

/// One decode step: runs `decode`, stamps [`DecodeOutcome::degraded`] when
/// it overran `budget_ns`, records its `Decode` span, and charges its time to
/// `stage`.
fn timed_decode(
    budget_ns: Option<u64>,
    telem: &EngineTelemetry,
    stage: &mut StageNanos,
    arg: u64,
    decode: impl FnOnce() -> DecodeOutcome,
) -> DecodeOutcome {
    let mut timer = StageTimer::start();
    let mut outcome = decode();
    let (begin, ns) = timer.lap_span_ns();
    outcome.degraded |= budget_ns.is_some_and(|b| ns > b);
    telem.note_span(SpanKind::Decode, begin, ns, arg);
    stage.decode += ns;
    outcome
}

impl BlockDecoder<'_> {
    /// Clears the per-block window state.
    fn begin_block(&mut self) {
        if let DecodeMode::Window(ws) = &mut self.mode {
            ws.wd.reset();
            ws.events_fed = 0;
            ws.over_budget = false;
        }
    }

    /// Feeds the rounds committed so far into the sliding window and commits
    /// every group confined behind the commit depth; an overrun latches into
    /// the block's degraded stamp. No-op outside window mode.
    fn advance_window(
        &mut self,
        sim: &SyndromeSim<'_>,
        telem: &EngineTelemetry,
        stage: &mut StageNanos,
    ) {
        let DecodeMode::Window(ws) = &mut self.mode else {
            return;
        };
        // The round just committed (sim.round() counts committed rounds).
        let t = sim.round().saturating_sub(1);
        let (graph, uf) = self.scratch.window_parts(self.code, self.rounds);
        let step = timed_decode(self.budget_ns, telem, stage, t as u64, || {
            ws.feed(sim.events());
            ws.wd.advance(t, graph, uf);
            DecodeOutcome::default()
        });
        ws.over_budget |= step.degraded;
    }

    /// Decodes the block just finished, as the mode schedules it: whole, or
    /// the window's remainder — or, under offload, returns the previous
    /// block's outcome (empty when none was pending) and leaves this block
    /// for the next cycle's fan-out prelude.
    fn finish_block(
        &mut self,
        block: &SyndromeBlock,
        telem: &EngineTelemetry,
        stage: &mut StageNanos,
        cycle: u64,
    ) -> DecodeOutcome {
        match &mut self.mode {
            DecodeMode::WholeBlock => timed_decode(self.budget_ns, telem, stage, cycle, || {
                decode_block_with(self.code, block, &mut self.scratch)
            }),
            DecodeMode::Window(ws) => {
                let mut outcome = timed_decode(self.budget_ns, telem, stage, cycle, || {
                    ws.finish(self.code, self.rounds, block, &mut self.scratch)
                });
                outcome.degraded |= ws.over_budget;
                outcome
            }
            DecodeMode::Offload { pending, outcome } => {
                *pending = true;
                std::mem::take(outcome)
            }
        }
    }

    /// Runs the offloaded decode of the block awaiting it, if any, into the
    /// offload outcome, and returns that outcome.
    fn decode_pending(
        &mut self,
        block: &SyndromeBlock,
        telem: &EngineTelemetry,
        stage: &mut StageNanos,
        cycle: u64,
    ) -> Option<&mut DecodeOutcome> {
        let DecodeMode::Offload {
            pending: pending @ true,
            outcome,
        } = &mut self.mode
        else {
            return None;
        };
        *pending = false;
        *outcome = timed_decode(self.budget_ns, telem, stage, cycle, || {
            decode_block_with(self.code, block, &mut self.scratch)
        });
        Some(outcome)
    }
}

/// Streaming readout → syndrome → decode engine for one surface code, one
/// feedline chip, and one trained discriminator.
///
/// Generic over the pipeline precision `R` ([`Real`], default `f64`) and the
/// discriminator type `D`: a concrete design or, by default,
/// `dyn Discriminator`. Every discriminator runs at both precisions, so a
/// constructor names the precision. `CycleEngine::<f64>::new(cfg, &chip,
/// &code, &disc)` is the double-precision engine behind a
/// `&dyn Discriminator`, bit-identical to the offline reference;
/// `CycleEngine::<f64, _>` keeps the concrete type (which
/// [`CycleEngine::run_cycle_adaptive`] needs); `CycleEngine::<f32>` runs the
/// whole readout → syndrome → decode round — waveform synthesis included —
/// in single precision, with the same zero-allocation steady state for the
/// `mf` design.
pub struct CycleEngine<'a, R: Real = f64, D: ?Sized = dyn Discriminator + 'a> {
    cfg: CycleConfig,
    disc: &'a D,
    map: AncillaMap,
    rng: StdRng,
    sim: SyndromeSim<'a>,
    scratch: RoundScratch<R>,
    exec: PoolState<'a, R>,
    /// Double-buffered block homes: the block finished last cycle stays
    /// readable (via [`CycleEngine::last_block`]) while the next cycle's
    /// rounds accumulate, and block storage is never reallocated.
    blocks: [SyndromeBlock; 2],
    active: usize,
    decoder: BlockDecoder<'a>,
    in_flight: StageNanos,
    totals: EngineStats,
    /// Deterministic fault schedule (empty by default: the zero-cost no-fault
    /// path); it resolves into the per-round snapshots of `exec.faults`.
    plan: FaultPlan,
    /// Rounds synthesized since construction — the fault schedule's clock.
    /// Distinct from `totals.rounds`, which counts *consumed* rounds and
    /// therefore lags synthesis inside the cycle.
    synth_round: u64,
    health: HealthState,
    /// Consumed-round stamp of the last discriminator hot-swap.
    last_swap_round: u64,
    /// [`now_ns`] stamp of the current cycle's start, the begin timestamp of
    /// the cycle's flight-recorder span.
    cycle_begin_ns: u64,
    /// Minimum consumed rounds between hot-swaps.
    recal_cooldown: u64,
    /// Latency histograms, counters and the flight recorder. Enabled by
    /// default; recording is allocation-free.
    telem: EngineTelemetry,
}

impl<'a, R: Real, D: ?Sized + Discriminator + PrecisionDiscriminator<R>> CycleEngine<'a, R, D> {
    /// Builds an engine on a process-wide 1-thread [`ShardPool`], which
    /// spawns no thread: every synthesis task and consume step runs inline
    /// on the caller.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rounds == 0`, the error probability is outside
    /// `[0, 1]`, the chip is invalid, or the discriminator was trained for a
    /// different channel count than the chip.
    pub fn new(
        cfg: CycleConfig,
        chip: &ChipConfig,
        code: &'a RotatedSurfaceCode,
        disc: &'a D,
    ) -> Self {
        Self::with_pool(cfg, chip, code, disc, inline_pool())
    }

    /// Builds an engine whose cycles run on `pool`: each (round, feedline
    /// group) synthesis is one task of the cycle's one fan-out, and round
    /// `t`'s consume step runs as soon as its rows are in, while later
    /// rounds still synthesize. Output is **bit-identical** to
    /// [`CycleEngine::new`] at every pool size, and warm cycles stay free
    /// of heap allocation.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CycleEngine::new`].
    pub fn with_pool(
        cfg: CycleConfig,
        chip: &ChipConfig,
        code: &'a RotatedSurfaceCode,
        disc: &'a D,
        pool: &'a ShardPool,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            disc.n_qubits(),
            chip.n_qubits(),
            "discriminator and chip must cover the same channels"
        );
        let map = AncillaMap::new(code.n_stabilizers(), chip.n_qubits());
        let (n_groups, n_samples) = (map.n_groups(), chip.n_samples());
        let synths: Vec<RoundSynth<R>> =
            (0..pool.threads()).map(|_| RoundSynth::new(chip)).collect();
        // Every round's batch holds its groups' rows for the engine's
        // lifetime: synthesis overwrites whole rows.
        let batches: Vec<ShotBatch<R>> = (0..cfg.rounds)
            .map(|_| {
                let mut batch = ShotBatch::with_capacity(n_groups, n_samples);
                for _ in 0..n_groups {
                    let _ = batch.push_empty_row();
                }
                batch
            })
            .collect();
        // meas_error_prob = 0: measurement noise comes from the physical
        // readout + discrimination loop, not the phenomenological coin.
        let noise = NoiseParams {
            data_error_prob: cfg.data_error_prob,
            meas_error_prob: 0.0,
        };
        let mut sim = SyndromeSim::new(code, &noise);
        sim.reserve_rounds(cfg.rounds);
        let empty = SyndromeBlock {
            events: Vec::new(),
            final_errors: vec![false; code.n_data()],
            rounds: 0,
        };
        let health = HealthState {
            monitor: HealthMonitor::new(HealthConfig::default(), map.n_ancillas()),
            margins: vec![0.0; chip.n_qubits()],
            feat_row: Vec::new(),
            margin_supported: true,
        };
        CycleEngine {
            cfg,
            disc,
            rng: StdRng::seed_from_u64(cfg.seed),
            sim,
            scratch: RoundScratch {
                measured: vec![false; map.n_ancillas()],
                states: Vec::with_capacity(n_groups),
                features: Vec::new(),
            },
            exec: PoolState {
                pool,
                synths,
                seeds: vec![0; cfg.rounds * n_groups],
                parities: vec![false; cfg.rounds * map.n_ancillas()],
                faults: vec![RoundFaults::nominal(chip.n_qubits()); cfg.rounds],
                batches,
                rows: BatchRows {
                    bases: Vec::with_capacity(cfg.rounds),
                    n_rows: n_groups,
                    row_width: 2 * n_samples,
                },
            },
            map,
            blocks: [empty.clone(), empty],
            active: 0,
            decoder: BlockDecoder {
                code,
                rounds: cfg.rounds,
                // Sized for this engine's worst case up front: the decoding
                // graph, union-find buffers, and matcher tables for (code,
                // rounds) blocks, so the first cycle decodes without
                // allocating.
                scratch: DecodeScratch::prewarmed(code, cfg.rounds),
                mode: DecodeMode::WholeBlock,
                budget_ns: None,
            },
            in_flight: StageNanos::default(),
            totals: EngineStats::default(),
            plan: FaultPlan::none(),
            synth_round: 0,
            health,
            last_swap_round: 0,
            cycle_begin_ns: 0,
            recal_cooldown: 64,
            telem: EngineTelemetry::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CycleConfig {
        &self.cfg
    }

    /// The ancilla → feedline-group mapping in use.
    pub fn ancilla_map(&self) -> &AncillaMap {
        &self.map
    }

    /// Aggregate statistics since construction, with the latency
    /// percentiles and the flight recorder's dropped-record count read from
    /// the telemetry bundle now. Allocation-free.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            latency: self.telem.stage_latency(),
            trace_dropped: self.telem.dropped_events(),
            ..self.totals
        }
    }

    /// The most recently completed block (empty before the first cycle).
    pub fn last_block(&self) -> &SyndromeBlock {
        &self.blocks[self.active]
    }

    /// Installs a deterministic fault schedule. Rounds already synthesized
    /// keep their clock: the plan's round indices are absolute over the
    /// engine's lifetime, so installing at round `r` leaves events scheduled
    /// before `r` in the past.
    ///
    /// Fault resolution is part of the serial cycle prologue and the
    /// injected randomness rides the existing per-group synthesis streams,
    /// so engines under the same plan remain **bit-identical at every pool
    /// size**.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a qubit outside the chip or carries a
    /// non-finite parameter.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let n_qubits = self.disc.n_qubits();
        if let Err(e) = plan.validate(n_qubits) {
            panic!("invalid fault plan: {e}");
        }
        self.plan = plan;
        // An emptied plan stops resolving: leave no stale snapshot behind.
        self.exec.faults.fill(RoundFaults::nominal(n_qubits));
    }

    /// The installed fault schedule (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The engine's health monitor.
    pub fn health(&self) -> &HealthMonitor {
        &self.health.monitor
    }

    /// Replaces the health monitor's tuning (resets its baseline).
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.health.monitor = HealthMonitor::new(cfg, self.map.n_ancillas());
    }

    /// Sets the minimum consumed rounds between discriminator hot-swaps in
    /// [`CycleEngine::run_cycle_adaptive`] (default 64).
    pub fn set_recal_cooldown(&mut self, rounds: u64) {
        self.recal_cooldown = rounds;
    }

    /// Switches the engine to sliding-window streaming decode: every
    /// consumed round feeds the union-find window, and groups confined
    /// `max(lag, d + 1)` rounds behind the stream commit while later rounds
    /// are still being synthesized; the cycle's end only resolves the
    /// remainder. A cycle of at most `d + 1` rounds therefore commits
    /// nothing before its end. Cycle outcomes match whole-block mode
    /// (pinned at d ≤ 7 by `tests/decode_modes.rs` and
    /// `tests/invariants.rs`); the difference is *when* the decode work
    /// happens. Call between cycles, not mid-block.
    ///
    /// # Panics
    ///
    /// Panics if async decode offload is enabled (the two schedules are
    /// mutually exclusive) or if `lag == 0`.
    pub fn set_sliding_window(&mut self, lag: usize) {
        assert!(
            !matches!(self.decoder.mode, DecodeMode::Offload { .. }),
            "sliding-window and async decode offload are mutually exclusive"
        );
        let (graph, _) = self
            .decoder
            .scratch
            .window_parts(self.decoder.code, self.cfg.rounds);
        let mut wd = SlidingWindowDecoder::new(lag);
        wd.reserve_for(graph);
        self.decoder.mode = DecodeMode::Window(WindowState {
            wd,
            events_fed: 0,
            over_budget: false,
        });
    }

    /// Sets (or clears) the real-time decode budget: any decode step — a
    /// sliding-window advance, a block decode, an offloaded decode — that
    /// takes longer stamps its cycle's [`DecodeOutcome::degraded`], counted
    /// by [`EngineStats::degraded_decodes`].
    pub fn set_decode_budget_ns(&mut self, budget: Option<u64>) {
        self.decoder.budget_ns = budget;
    }

    /// Enables decode offload: a finished block's decode runs in the *next*
    /// cycle's fan-out prelude — on a multi-thread pool hidden behind that
    /// cycle's synthesis — so decode latency leaves the cycle's critical
    /// path. Each [`CycleEngine::run_cycle`] then reports
    /// the *previous* block's outcome (the first reports an empty
    /// [`DecodeOutcome::default`]); call [`CycleEngine::drain_async_decode`]
    /// after the last cycle for the final block. The outcome *sequence* is
    /// identical to synchronous decoding, one cycle later. Disabling drops
    /// a block still awaiting its decode; drain it first.
    ///
    /// # Panics
    ///
    /// Panics when enabling while sliding-window mode is active.
    pub fn set_async_decode(&mut self, enabled: bool) {
        let offloading = matches!(self.decoder.mode, DecodeMode::Offload { .. });
        if enabled && !offloading {
            assert!(
                !matches!(self.decoder.mode, DecodeMode::Window(_)),
                "sliding-window and async decode offload are mutually exclusive"
            );
            self.decoder.mode = DecodeMode::Offload {
                pending: false,
                outcome: DecodeOutcome::default(),
            };
        } else if !enabled && offloading {
            self.decoder.mode = DecodeMode::WholeBlock;
        }
    }

    /// Decodes the block still awaiting its offloaded decode (the last
    /// block of an async run), accounts it into the engine totals, and
    /// returns its outcome. `None` when nothing is pending.
    pub fn drain_async_decode(&mut self) -> Option<DecodeOutcome> {
        let outcome = self
            .decoder
            .decode_pending(
                &self.blocks[self.active],
                &self.telem,
                &mut self.totals.stage,
                self.totals.cycles.saturating_sub(1),
            )
            .map(std::mem::take)?;
        self.totals.note_outcome(&outcome);
        Some(outcome)
    }

    /// The engine's telemetry bundle (histograms, counters, flight recorder).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telem
    }

    /// Replaces the telemetry bundle — the way to give the engine
    /// registry-backed metrics ([`EngineTelemetry::registered`]) so a scrape
    /// endpoint sees them. Histories recorded into the old bundle stay with
    /// the old bundle.
    pub fn set_telemetry(&mut self, telem: EngineTelemetry) {
        self.telem = telem;
    }

    /// Enables or disables telemetry recording (enabled by default). While
    /// disabled the engine skips every histogram/counter/ring touch, so
    /// [`EngineStats::latency`] stops changing.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telem.set_enabled(enabled);
    }

    /// Runs one full cycle (block) and returns its outcome.
    ///
    /// The cycle is the serial prologue over all its rounds, then one staged
    /// fan-out that synthesizes every (round, group) row while the caller
    /// consumes the rounds in order as their rows come in, then the block's
    /// end and decode, as the decode mode schedules it.
    pub fn run_cycle(&mut self) -> CycleResult {
        self.run_cycle_with(None)
    }

    /// [`CycleEngine::run_cycle`] with an optional control-plane task run in
    /// the fan-out's prelude, before any round is consumed. A discriminator
    /// retrain scheduled there hides behind the cycle's synthesis fan-out
    /// instead of stalling the stream.
    fn run_cycle_with(&mut self, extra: Option<&mut dyn FnMut()>) -> CycleResult {
        self.sim.reset();
        self.sim.reserve_rounds(self.cfg.rounds);
        self.health.monitor.begin_block();
        self.decoder.begin_block();
        self.in_flight = StageNanos::default();
        self.cycle_begin_ns = now_ns();
        self.prologue();
        self.fan_out(extra);
        self.finish_cycle()
    }

    /// The cycle's serial prologue, round by round in ascending order: the
    /// round's fault snapshot, data errors, true parities, and one entropy
    /// word from the master RNG. Every group's synthesis stream is derived
    /// from that one draw via [`stream_seed`], which is what makes synthesis
    /// shard-order- and thread-count-independent by construction.
    fn prologue(&mut self) {
        let n_groups = self.map.n_groups();
        let exec = &mut self.exec;
        let rounds = exec
            .faults
            .iter_mut()
            .zip(exec.parities.chunks_exact_mut(self.map.n_ancillas()))
            .zip(exec.seeds.chunks_exact_mut(n_groups));
        for (t, ((faults, parities), seeds)) in rounds.enumerate() {
            let mut timer = StageTimer::start();
            // The fault clock counts synthesized rounds; an empty plan — the
            // zero-cost no-fault default — resolves nothing.
            if !self.plan.is_empty() {
                self.plan.resolve_into(self.synth_round, faults);
            }
            self.synth_round += 1;
            self.sim.apply_data_errors(&mut self.rng);
            self.sim.true_parities_into(parities);
            let entropy: u64 = self.rng.random();
            for (g, s) in seeds.iter_mut().enumerate() {
                *s = stream_seed(entropy, g as u64);
            }
            let (begin, ns) = timer.lap_span_ns();
            self.in_flight.syndrome += ns;
            self.telem
                .note_span(SpanKind::Syndrome, begin, ns, t as u64);
        }
    }

    /// The cycle's one staged fan-out: task `(t, g)` synthesizes group `g`
    /// of round `t` into row `g` of round `t`'s batch, on the synthesizer of
    /// the thread running it. The caller runs the prelude — `extra` and the
    /// previous block's offloaded decode — then consumes each round as soon
    /// as its rows are in. Synthesis is charged the fan-out's wall time minus
    /// the caller's prelude and consume steps: its exposed latency.
    /// Allocation-free once warm.
    fn fan_out(&mut self, mut extra: Option<&mut dyn FnMut()>) {
        let (n_groups, n_ancillas) = (self.map.n_groups(), self.map.n_ancillas());
        let prev_cycle = self.totals.cycles.saturating_sub(1);
        let CycleEngine {
            disc,
            map,
            sim,
            scratch,
            exec,
            blocks,
            active,
            decoder,
            in_flight,
            totals,
            health,
            telem,
            ..
        } = self;
        let (disc, map, telem): (&D, &AncillaMap, &EngineTelemetry) = (*disc, map, telem);
        let PoolState {
            pool,
            synths,
            seeds,
            parities,
            faults,
            batches,
            rows,
        } = exec;
        rows.bind(batches);
        let batches: &[ShotBatch<R>] = batches;
        let rows: &BatchRows<R> = rows;
        let (seeds, parities, faults): (&[u64], &[bool], &[RoundFaults]) =
            (seeds, parities, faults);
        let synth_tiles = Tiles::new(synths);
        let n_samples = rows.row_width / 2;

        let mut timer = StageTimer::start();
        let mut caller_ns = 0;
        pool.staged(
            batches.len(),
            n_groups,
            |task, worker| {
                let (t, g) = (task / n_groups, task % n_groups);
                // SAFETY: no two tasks running at once share a worker index,
                // so the worker's synthesizer has no other live borrow; the
                // pool hands each task index to one task, and no consume
                // step reads round `t` before all its tasks have completed,
                // so row `g` of round `t` has none either.
                let synth = unsafe { synth_tiles.item(worker) };
                let (i_row, q_row) = unsafe { rows.row(t, g) }.split_at_mut(n_samples);
                let round_faults = &faults[t];
                let mut rng = StdRng::seed_from_u64(seeds[task]);
                synth.synth_into_slot(
                    map.prepared_state(g, &parities[t * n_ancillas..(t + 1) * n_ancillas]),
                    round_faults.is_active().then_some(round_faults),
                    i_row,
                    q_row,
                    &mut rng,
                );
            },
            |step| match step {
                CallerStep::Prelude => {
                    timer.lap_ns();
                    if let Some(f) = extra.take() {
                        f();
                    }
                    // The previous block stays in the active home until
                    // this cycle's finish swaps homes.
                    decoder.decode_pending(&blocks[*active], telem, in_flight, prev_cycle);
                    caller_ns += timer.lap_ns();
                }
                CallerStep::Consume(t) => {
                    // The synth span is the caller's wait for round `t`'s
                    // rows; the per-worker layout of the fan-out lives on
                    // the pool's worker tracks.
                    let (wait_begin, wait_ns) = timer.lap_span_ns();
                    telem.note_span(SpanKind::Synth, wait_begin, wait_ns, t as u64);
                    let stage =
                        consume_round(disc, map, &batches[t], scratch, sim, health, decoder, telem);
                    in_flight.add(&stage);
                    totals.rounds += 1;
                    caller_ns += timer.lap_ns();
                }
            },
        );
        in_flight.synth += timer.elapsed_ns().saturating_sub(caller_ns);
    }

    /// Terminates the block with a perfect round, swaps it into the inactive
    /// block home, decodes it as the decode mode schedules, and folds the
    /// cycle into the totals.
    fn finish_cycle(&mut self) -> CycleResult {
        let cycle_index = self.totals.cycles;
        let mut timer = StageTimer::start();
        self.sim.finish_perfect_round();
        self.active ^= 1;
        // write_block reuses the target's buffers — no block reallocation.
        self.sim.write_block(&mut self.blocks[self.active]);
        let (write_begin, write_ns) = timer.lap_span_ns();
        self.in_flight.syndrome += write_ns;
        self.telem
            .note_span(SpanKind::Syndrome, write_begin, write_ns, cycle_index);
        let outcome = self.decoder.finish_block(
            &self.blocks[self.active],
            &self.telem,
            &mut self.in_flight,
            cycle_index,
        );
        self.telem.note_span(
            SpanKind::Cycle,
            self.cycle_begin_ns,
            now_ns().saturating_sub(self.cycle_begin_ns),
            cycle_index,
        );

        let stats = CycleStats {
            rounds: self.sim.round(),
            n_events: outcome.n_events,
            stage: self.in_flight,
            health: self.health.monitor.status(),
        };
        let transitions = self.health.monitor.transitions();
        let transitions_delta = transitions.saturating_sub(self.totals.health_transitions);
        self.totals.cycles += 1;
        self.totals.note_outcome(&outcome);
        self.totals.health_transitions = transitions;
        self.totals.stage.add(&self.in_flight);
        self.telem
            .observe_cycle(cycle_index, &stats, &outcome, transitions_delta);
        CycleResult { outcome, stats }
    }

    /// Blocking API: runs `n` cycles back to back.
    pub fn run_cycles(&mut self, n: usize) -> Vec<CycleResult> {
        (0..n).map(|_| self.run_cycle()).collect()
    }

    /// Pull-based streaming API: an endless iterator of cycle results —
    /// bound it with `.take(n)`.
    pub fn cycles(&mut self) -> Cycles<'_, 'a, R, D> {
        Cycles { engine: self }
    }
}

impl<'a, R: Real, D: ?Sized + Discriminator + PrecisionDiscriminator<R> + Recalibrate>
    CycleEngine<'a, R, D>
{
    /// [`CycleEngine::run_cycle`] with the detect → recover loop closed:
    /// when the [`HealthMonitor`] reports Degraded or Critical, the
    /// discriminator has harvested enough windows
    /// ([`Recalibrate::recal_ready`]), and the hot-swap cooldown has
    /// elapsed, the cycle retrains and atomically hot-swaps the
    /// discriminator's calibration. The retrain runs in the fan-out's
    /// prelude, before any round of the cycle is discriminated; on a
    /// multi-thread pool it hides behind the cycle's synthesis.
    ///
    /// A successful swap bumps [`EngineStats::hot_swaps`] and re-baselines
    /// the health monitor (the new calibration's feature scale invalidates
    /// the old margin baseline).
    pub fn run_cycle_adaptive(&mut self) -> CycleResult {
        let unhealthy = matches!(
            self.health.monitor.status(),
            HealthStatus::Degraded | HealthStatus::Critical
        );
        let cooled = self.totals.rounds >= self.last_swap_round.saturating_add(self.recal_cooldown)
            || self.totals.hot_swaps == 0;
        if !(unhealthy && cooled && self.disc.recal_ready()) {
            return self.run_cycle();
        }
        let disc = self.disc;
        let mut swapped = None;
        let mut retrain = || swapped = disc.recalibrate();
        let result = self.run_cycle_with(Some(&mut retrain));
        // The cycle that hosted the retrain attempt (just finished).
        let cycle_index = self.totals.cycles.saturating_sub(1);
        if swapped.is_some() {
            self.totals.hot_swaps += 1;
            self.last_swap_round = self.totals.rounds;
            self.health.monitor.recalibrated();
            self.telem.note_recal_trained(cycle_index);
            self.telem.note_hot_swap(self.totals.hot_swaps);
        } else {
            self.telem.note_recal_declined(cycle_index);
        }
        result
    }

    /// Blocking adaptive API: [`CycleEngine::run_cycle_adaptive`], `n`
    /// times.
    pub fn run_cycles_adaptive(&mut self, n: usize) -> Vec<CycleResult> {
        (0..n).map(|_| self.run_cycle_adaptive()).collect()
    }
}

/// The consume step of one round: batched discrimination of the round's
/// `batch`, measured-syndrome commit, the health observation, and the
/// sliding-window advance. Returns the stage time it spent.
#[allow(clippy::too_many_arguments)]
fn consume_round<R: Real, D: ?Sized + Discriminator + PrecisionDiscriminator<R>>(
    disc: &D,
    map: &AncillaMap,
    batch: &ShotBatch<R>,
    scratch: &mut RoundScratch<R>,
    sim: &mut SyndromeSim<'_>,
    health: &mut HealthState,
    decoder: &mut BlockDecoder<'_>,
    telem: &EngineTelemetry,
) -> StageNanos {
    let round = sim.round() as u64;
    let mut timer = StageTimer::start();
    PrecisionDiscriminator::<R>::discriminate_shot_batch_r_into(
        disc,
        batch,
        &mut scratch.features,
        &mut scratch.states,
    );
    let (disc_begin, disc_ns) = timer.lap_span_ns();
    for (a, m) in scratch.measured.iter_mut().enumerate() {
        let (g, c) = map.slot(a);
        *m = scratch.states[g].qubit(c);
    }
    sim.record_measured_syndrome(&scratch.measured);
    observe_round_health(disc, map, health, &scratch.features, &scratch.measured);
    let (commit_begin, commit_ns) = timer.lap_span_ns();
    telem.note_span(SpanKind::Discriminate, disc_begin, disc_ns, round);
    telem.note_span(SpanKind::Syndrome, commit_begin, commit_ns, round);
    let mut stage = StageNanos {
        discriminate: disc_ns,
        syndrome: commit_ns,
        ..StageNanos::default()
    };
    decoder.advance_window(sim, telem, &mut stage);
    stage
}

/// Feeds one consumed round into the engine's health state: widens each
/// group's feature row to `f64`, queries the discriminator's soft margins,
/// averages them over *live* ancilla slots (idle pad channels carry no
/// signal), and folds the mean plus the measured syndrome into the
/// [`HealthMonitor`]. Allocation-free once the feature-row buffer has its
/// warm size.
fn observe_round_health<R: Real, D: ?Sized + Discriminator>(
    disc: &D,
    map: &AncillaMap,
    health: &mut HealthState,
    features: &[R],
    measured: &[bool],
) {
    let mut margin_sum = 0.0;
    let mut margin_n = 0usize;
    let n_groups = map.n_groups();
    if health.margin_supported && n_groups > 0 && !features.is_empty() {
        let width = features.len() / n_groups;
        if width > 0 && features.len() == n_groups * width {
            if health.feat_row.len() != width {
                health.feat_row.resize(width, 0.0);
            }
            for g in 0..n_groups {
                let row = &features[g * width..(g + 1) * width];
                for (dst, src) in health.feat_row.iter_mut().zip(row) {
                    *dst = src.to_f64();
                }
                if !disc.soft_margins(&health.feat_row, &mut health.margins) {
                    health.margin_supported = false;
                    margin_n = 0;
                    break;
                }
                for (c, &m) in health.margins.iter().enumerate() {
                    if map.ancilla(g, c).is_some() {
                        margin_sum += m;
                        margin_n += 1;
                    }
                }
            }
        }
    }
    let mean_margin = (margin_n > 0).then(|| margin_sum / margin_n as f64);
    health.monitor.observe_round(mean_margin, measured);
}

impl<R: Real, D: ?Sized> std::fmt::Debug for CycleEngine<'_, R, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleEngine")
            .field("cfg", &self.cfg)
            .field("distance", &self.decoder.code.distance())
            .field("groups", &self.map.n_groups())
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

/// Endless pull-based iterator over an engine's cycles.
#[derive(Debug)]
pub struct Cycles<'e, 'a, R: Real = f64, D: ?Sized = dyn Discriminator + 'a> {
    engine: &'e mut CycleEngine<'a, R, D>,
}

impl<R: Real, D: ?Sized + Discriminator + PrecisionDiscriminator<R>> Iterator
    for Cycles<'_, '_, R, D>
{
    type Item = CycleResult;

    fn next(&mut self) -> Option<CycleResult> {
        Some(self.engine.run_cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_mf_discriminator;
    use herqles_core::designs::MfDiscriminator;

    fn setup() -> (ChipConfig, RotatedSurfaceCode, MfDiscriminator) {
        let chip = ChipConfig::two_qubit_test();
        let code = RotatedSurfaceCode::new(3);
        let disc = train_mf_discriminator(&chip, 12, 77);
        (chip, code, disc)
    }

    #[test]
    fn engine_streams_deterministic_cycles() {
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 3,
            data_error_prob: 0.01,
            seed: 5,
        };
        let run = || {
            let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
            let results = engine.run_cycles(4);
            let block = engine.last_block().clone();
            (results, block)
        };
        let (ra, ba) = run();
        let (rb, bb) = run();
        assert_eq!(ra.len(), 4);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.outcome, y.outcome, "same seed, same outcomes");
            assert_eq!(x.stats.rounds, 3);
        }
        assert_eq!(ba, bb, "same seed, same final block");
    }

    #[test]
    fn iterator_and_blocking_api_agree() {
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 2,
            data_error_prob: 0.02,
            seed: 9,
        };
        let mut a = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
        let mut b = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
        let blocking: Vec<DecodeOutcome> = a.run_cycles(5).iter().map(|r| r.outcome).collect();
        let pulled: Vec<DecodeOutcome> = b.cycles().take(5).map(|r| r.outcome).collect();
        assert_eq!(blocking, pulled);
        assert_eq!(a.stats().cycles, 5);
        assert_eq!(a.stats().rounds, 10);
    }

    #[test]
    fn perfect_readout_yields_low_logical_rate() {
        // With a tiny data error rate and a working discriminator, most
        // cycles must decode without a logical error.
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 3,
            data_error_prob: 0.002,
            seed: 21,
        };
        let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
        let failures = engine
            .run_cycles(30)
            .iter()
            .filter(|r| r.outcome.logical_error)
            .count();
        assert!(failures <= 6, "{failures}/30 logical errors");
    }

    #[test]
    fn stage_timings_are_populated() {
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 2,
            data_error_prob: 0.01,
            seed: 1,
        };
        let mut engine = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
        let r = engine.run_cycle();
        assert!(r.stats.stage.synth > 0);
        assert!(r.stats.stage.discriminate > 0);
        assert!(r.stats.stage.total() >= r.stats.stage.synth);
        assert_eq!(engine.stats().stage, r.stats.stage);
    }

    #[test]
    #[should_panic(expected = "same channels")]
    fn rejects_chip_discriminator_mismatch() {
        let (_, code, disc) = setup();
        let five = ChipConfig::five_qubit_default();
        let cfg = CycleConfig::for_distance(3);
        let _ = CycleEngine::<f64>::new(cfg, &five, &code, &disc);
    }
}
