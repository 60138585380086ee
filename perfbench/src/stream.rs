//! The streamed QEC-cycle workloads (`stream_d5`, `stream_d7_pool2`).
//!
//! A closed loop: the next cycle starts when the previous one returns. The
//! timed phase runs the `CycleEngine` exactly as shipped (untraced, default
//! telemetry). The reference is a serial, whole-block composition of the
//! public calls each layer exposes, driven by the engine's RNG scheme (a
//! master `StdRng` plus one `stream_seed(entropy, g)` stream per feedline
//! group and round). The pooled, windowed and serial engine paths are all
//! pinned outcome-identical to it, so every cycle's `DecodeOutcome` must
//! match. The composition is also the traced run: its spans are the
//! per-layer metrics.

use std::sync::Arc;
use std::time::Instant;

use herqles_core::designs::MfDiscriminator;
use herqles_core::{Discriminator, PrecisionDiscriminator, ReadoutTrainer};
use herqles_exec::{stream_seed, PoolTelemetry, ShardPool};
use herqles_stream::{
    AncillaMap, CycleConfig, CycleEngine, HealthConfig, HealthMonitor, RoundSynth,
};
use herqles_telemetry::now_ns;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_sim::{BasisState, ChipConfig, Dataset, ShotBatch};
use surface_code::{
    decode_block_with, DecodeOutcome, DecodeScratch, DecodingGraph, NoiseParams,
    RotatedSurfaceCode, SlidingWindowDecoder, SyndromeBlock, SyndromeSim, EXACT_DISPATCH_LIMIT,
};

use crate::report::{median_secs, peak_rss_mib, time_setups, Replays, Report, Samples, REPLAYS};
use crate::trace::{self, Tracer};
use crate::RunArgs;

/// One streamed workload's operating point.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub distance: usize,
    pub p_data: f64,
    /// `Some(n)`: `CycleEngine::with_pool` on an `n`-thread `ShardPool`.
    pub pool_threads: Option<usize>,
    /// `Some(lag)`: sliding-window decode at that lag.
    pub window_lag: Option<usize>,
}

/// Serial engine, d = 5, whole-block decode.
pub const STREAM_D5: StreamSpec = StreamSpec {
    distance: 5,
    p_data: 4e-3,
    pool_threads: None,
    window_lag: None,
};

/// Pooled engine on two threads, d = 7, sliding-window decode at lag 3.
pub const STREAM_D7_POOL2: StreamSpec = StreamSpec {
    distance: 7,
    p_data: 4e-3,
    pool_threads: Some(2),
    window_lag: Some(3),
};

/// Calibration set of the `mf` discriminator: fixed, so the workload seed
/// moves only the stream's own randomness.
const CAL_SHOTS_PER_STATE: usize = 12;
const CAL_SEED: u64 = 20_230_612;
/// The calibration set is synthesized on one thread: cross-core wake-ups
/// on a shared box make a threaded set-up's time far noisier.
const CAL_THREADS: usize = 1;
/// Cycles run during set-up, before timing starts.
const WARM_CYCLES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `DecodingGraph::new` timings behind `qec.graph.build_ns`.
const GRAPH_BUILDS: usize = 11;

/// Everything an engine borrows, built during set-up.
struct Fixture {
    chip: ChipConfig,
    code: RotatedSurfaceCode,
    disc: MfDiscriminator,
    pool: Option<ShardPool>,
    train_s: f64,
}

impl Fixture {
    fn new(spec: &StreamSpec) -> Self {
        let chip = ChipConfig::five_qubit_default();
        let t = Instant::now();
        let dataset =
            Dataset::generate_with_threads(&chip, CAL_SHOTS_PER_STATE, CAL_SEED, CAL_THREADS);
        let split = dataset.split(0.5, 0.0, CAL_SEED ^ 0xA5A5);
        let disc = ReadoutTrainer::new(&dataset, &split.train).train_mf();
        let train_s = t.elapsed().as_secs_f64();
        let pool = spec.pool_threads.map(|n| {
            let pool = ShardPool::new(n);
            pool.warm_up();
            pool
        });
        Fixture {
            chip,
            code: RotatedSurfaceCode::new(spec.distance),
            disc,
            pool,
            train_s,
        }
    }

    fn config(&self, spec: &StreamSpec, seed: u64) -> CycleConfig {
        CycleConfig {
            rounds: spec.distance,
            data_error_prob: spec.p_data,
            seed,
        }
    }

    /// The engine under test, warmed by [`WARM_CYCLES`] cycles whose
    /// outcomes are returned.
    fn warm_engine(
        &self,
        spec: &StreamSpec,
        seed: u64,
    ) -> (CycleEngine<'_, f64, MfDiscriminator>, Vec<DecodeOutcome>) {
        let cfg = self.config(spec, seed);
        let mut engine = match &self.pool {
            Some(pool) => CycleEngine::with_pool(cfg, &self.chip, &self.code, &self.disc, pool),
            None => CycleEngine::new(cfg, &self.chip, &self.code, &self.disc),
        };
        if let Some(lag) = spec.window_lag {
            engine.set_sliding_window(lag);
        }
        let warm = (0..WARM_CYCLES)
            .map(|_| engine.run_cycle().outcome)
            .collect();
        (engine, warm)
    }
}

/// Runs one streamed workload into `report`.
pub fn run(spec: &StreamSpec, args: &RunArgs, report: &mut Report) {
    let throwaway = || drop(Fixture::new(spec).warm_engine(spec, args.seed));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    time_setups(SETUP_REPS / 2, &mut setup_s, throwaway);
    let t = Instant::now();
    let fx = Fixture::new(spec);
    let (mut engine, warm) = fx.warm_engine(spec, args.seed);
    setup_s.push(t.elapsed().as_secs_f64());

    // The traced run watches the pool through its public telemetry hook
    // during the timed loops; the untraced run leaves the pool as shipped.
    let pool_telem = match (&fx.pool, args.traced) {
        (Some(pool), true) => Some(Arc::new(PoolTelemetry::new(pool.threads()))),
        _ => None,
    };
    let watch_pool = |on: bool| {
        if let (Some(pool), Some(telem)) = (&fx.pool, &pool_telem) {
            pool.set_telemetry(on.then(|| Arc::clone(telem)));
        }
    };

    // Timed phase: a closed loop over whole cycles, replayed. Each later
    // replay rebuilds the engine with the same seed (untimed) and runs the
    // first replay's cycles again.
    let mut timings = Replays::new();
    let mut replays: Vec<Vec<DecodeOutcome>> = Vec::with_capacity(REPLAYS);
    let mut warm_ok = true;
    for replay in 0..REPLAYS {
        if replay > 0 {
            let (rebuilt, rewarm) = fx.warm_engine(spec, args.seed);
            engine = rebuilt;
            warm_ok &= rewarm == warm;
        }
        let mut outcomes = Vec::with_capacity(timings.ops());
        watch_pool(true);
        let start = Instant::now();
        while timings.wants_more(replay, start, args.seconds, outcomes.len()) {
            let t = Instant::now();
            let outcome = engine.run_cycle().outcome;
            timings.record(outcomes.len(), t.elapsed().as_nanos() as u64);
            outcomes.push(outcome);
        }
        timings.wall_s += start.elapsed().as_secs_f64();
        watch_pool(false);
        replays.push(outcomes);
    }
    let timed = timings.ops();
    let peak_rss = peak_rss_mib();
    drop(engine);
    time_setups(SETUP_REPS - SETUP_REPS / 2 - 1, &mut setup_s, throwaway);

    // Reference (and traced) run over the same cycles: the warm-up cycles,
    // then the timed ones.
    let mut tracer = Tracer::new();
    let mut reference = Composition::new(spec, &fx, args.seed);
    let ref_start = Instant::now();
    let mut logical_errors = 0u64;
    let mut events = 0u64;
    let mut uf_blocks = 0u64;
    for i in 0..WARM_CYCLES + timed {
        tracer.arg = i as u64;
        let (want, windowed) = reference.cycle(&mut tracer);
        let windowed_ok = windowed.is_none_or(|w| w == want);
        events += want.n_events as u64;
        uf_blocks += u64::from(want.n_events > EXACT_DISPATCH_LIMIT);
        if let Some(got) = warm.get(i) {
            warm_ok &= *got == want && windowed_ok;
            continue;
        }
        logical_errors += u64::from(want.logical_error);
        for outcomes in &replays {
            report.attempted += 1;
            if outcomes[i - WARM_CYCLES] != want || !windowed_ok {
                report.failed += 1;
            }
        }
    }
    let ref_wall = ref_start.elapsed().as_secs_f64();
    report.sound &= warm_ok;

    timings.report(report, "cycles_per_s", "cycle", 1.0);
    let ler = logical_errors as f64 / timed as f64;
    println!("logical_error_rate {ler:.6} ({logical_errors}/{timed} timed cycles)");
    report.e2e("error_rate", ler, "ratio");
    report.e2e("peak_rss_mib", peak_rss, "MiB");
    report.e2e("setup_s", median_secs(&setup_s), "s");

    // Per-layer metrics from the composition's spans.
    let cycles = (WARM_CYCLES + timed) as f64;
    let rounds = cycles * spec.distance as f64;
    let per_round = |tr: &Tracer, layer| tr.total_ns(layer) as f64 / rounds;
    let per_block = |tr: &Tracer, layer| tr.total_ns(layer) as f64 / cycles;
    report.layer("stream.synth_ns", per_round(&tracer, trace::SYNTH), "ns");
    report.layer(
        "stream.synth_rows",
        rounds * reference.map.n_groups() as f64,
        "count",
    );
    report.layer(
        "core.discriminate_ns",
        per_round(&tracer, trace::DISCRIMINATE),
        "ns",
    );
    report.layer(
        "qec.syndrome.prologue_ns",
        per_round(&tracer, trace::PROLOGUE),
        "ns",
    );
    report.layer(
        "qec.syndrome.commit_ns",
        per_round(&tracer, trace::COMMIT),
        "ns",
    );
    report.layer("stream.health_ns", per_round(&tracer, trace::HEALTH), "ns");
    report.layer(
        "qec.syndrome.write_ns",
        per_block(&tracer, trace::WRITE),
        "ns",
    );
    let children: u64 = (1..trace::LAYERS.len())
        .map(|layer| tracer.total_ns(layer))
        .sum();
    report.layer(
        "stream.cycle.self_ns",
        tracer.total_ns(trace::CYCLE).saturating_sub(children) as f64 / cycles,
        "ns",
    );
    let decode = tracer.samples(trace::DECODE);
    println!("qec.decode (whole block): {}", decode.describe(1.0, "ns"));
    report.layer("qec.decode_ns.p50", decode.p50() as f64, "ns");
    report.layer("qec.decode_ns.p99", decode.p99(1.0), "ns");
    report.layer(
        "qec.decode.events_per_block",
        events as f64 / cycles,
        "count",
    );
    report.layer("qec.decode.uf_share", uf_blocks as f64 / cycles, "ratio");
    if spec.window_lag.is_some() {
        report.layer(
            "qec.window.advance_ns",
            per_round(&tracer, trace::WINDOW_ADVANCE),
            "ns",
        );
        report.layer(
            "qec.window.finish_ns",
            per_block(&tracer, trace::WINDOW_FINISH),
            "ns",
        );
    }
    if let Some(telem) = &pool_telem {
        let wall_ns = timings.wall_s * 1e9;
        let samples = timings.samples() as f64;
        for w in 0..telem.workers() {
            report.layer(
                &format!("exec.pool.w{w}.busy_share"),
                telem.busy_ns(w) as f64 / wall_ns,
                "ratio",
            );
            report.layer(
                &format!("exec.pool.w{w}.tasks_per_cycle"),
                telem.tasks_run(w) as f64 / samples,
                "count",
            );
        }
        report.layer(
            "exec.pool.caller_wait_ns",
            (wall_ns - telem.busy_ns(0) as f64) / samples,
            "ns",
        );
    }
    report.layer(
        "qec.graph.build_ns",
        graph_build_ns(&fx.code, spec.distance),
        "ns",
    );
    report.layer("core.train_s", fx.train_s, "s");
    if spec.pool_threads.is_none() {
        // Both sides serial, wall-clock rates: the traced composition
        // against the untraced engine.
        let traced_cycles_per_s = cycles / ref_wall;
        let untraced_cycles_per_s = timings.samples() as f64 / timings.wall_s;
        report.layer(
            "telemetry.overhead",
            traced_cycles_per_s / untraced_cycles_per_s,
            "ratio",
        );
    }
    if args.traced {
        crate::write_trace(&tracer, args, pool_telem.as_deref());
    }
}

/// Median wall time of [`GRAPH_BUILDS`] `DecodingGraph::new` calls.
pub fn graph_build_ns(code: &RotatedSurfaceCode, rounds: usize) -> f64 {
    let mut t = Samples::with_capacity(GRAPH_BUILDS);
    for _ in 0..GRAPH_BUILDS {
        let begin = now_ns();
        std::hint::black_box(DecodingGraph::new(code, rounds));
        t.push(now_ns() - begin);
    }
    t.p50() as f64
}

/// The sliding-window decoder of a windowed composition, with its own
/// decode scratch (the engine likewise shares one scratch between window
/// and fallback decodes).
struct Window {
    wd: SlidingWindowDecoder,
    scratch: DecodeScratch,
    fed: usize,
}

/// Serial whole-block composition of the public per-layer calls; the
/// reference and the traced run of the streamed workloads.
struct Composition<'a> {
    code: &'a RotatedSurfaceCode,
    disc: &'a MfDiscriminator,
    map: AncillaMap,
    rounds: usize,
    rng: StdRng,
    synth: RoundSynth<f64>,
    sim: SyndromeSim<'a>,
    batch: ShotBatch<f64>,
    parities: Vec<bool>,
    measured: Vec<bool>,
    states: Vec<BasisState>,
    features: Vec<f64>,
    health: HealthMonitor,
    margins: Vec<f64>,
    feat_row: Vec<f64>,
    block: SyndromeBlock,
    scratch: DecodeScratch,
    window: Option<Window>,
}

impl<'a> Composition<'a> {
    fn new(spec: &StreamSpec, fx: &'a Fixture, seed: u64) -> Self {
        let code = &fx.code;
        let rounds = spec.distance;
        let map = AncillaMap::new(code.n_stabilizers(), fx.chip.n_qubits());
        let synth = RoundSynth::new(&fx.chip);
        let noise = NoiseParams {
            data_error_prob: spec.p_data,
            meas_error_prob: 0.0,
        };
        let mut sim = SyndromeSim::new(code, &noise);
        sim.reserve_rounds(rounds);
        let window = spec.window_lag.map(|lag| {
            let mut scratch = DecodeScratch::prewarmed(code, rounds);
            let mut wd = SlidingWindowDecoder::new(lag);
            wd.reserve_for(scratch.window_parts(code, rounds).0);
            Window {
                wd,
                scratch,
                fed: 0,
            }
        });
        Composition {
            code,
            disc: &fx.disc,
            map,
            rounds,
            rng: StdRng::seed_from_u64(seed),
            batch: ShotBatch::with_capacity(map.n_groups(), synth.n_samples()),
            synth,
            sim,
            parities: vec![false; map.n_ancillas()],
            measured: vec![false; map.n_ancillas()],
            states: Vec::with_capacity(map.n_groups()),
            features: Vec::new(),
            health: HealthMonitor::new(HealthConfig::default(), map.n_ancillas()),
            margins: vec![0.0; fx.chip.n_qubits()],
            feat_row: Vec::new(),
            block: SyndromeBlock {
                events: Vec::new(),
                final_errors: Vec::new(),
                rounds: 0,
            },
            scratch: DecodeScratch::prewarmed(code, rounds),
            window,
        }
    }

    /// One cycle: the whole-block outcome, plus the sliding-window outcome
    /// when the workload decodes through the window.
    fn cycle(&mut self, tr: &mut Tracer) -> (DecodeOutcome, Option<DecodeOutcome>) {
        let begin = now_ns();
        self.sim.reset();
        self.health.begin_block();
        if let Some(w) = self.window.as_mut() {
            w.wd.reset();
            w.fed = 0;
        }
        for t in 0..self.rounds {
            self.round(t, tr);
        }
        let (sim, block) = (&mut self.sim, &mut self.block);
        tr.span(trace::WRITE, || {
            sim.finish_perfect_round();
            sim.write_block(block);
        });
        let (code, rounds, block) = (self.code, self.rounds, &self.block);
        let windowed = self.window.as_mut().map(|w| {
            tr.span(trace::WINDOW_FINISH, || {
                finish_window(w, code, rounds, &self.sim, block)
            })
        });
        let scratch = &mut self.scratch;
        let outcome = tr.span(trace::DECODE, || decode_block_with(code, block, scratch));
        tr.record(trace::CYCLE, begin, now_ns().saturating_sub(begin));
        (outcome, windowed)
    }

    fn round(&mut self, t: usize, tr: &mut Tracer) {
        let Composition {
            code,
            disc,
            map,
            rounds,
            rng,
            synth,
            sim,
            batch,
            parities,
            measured,
            states,
            features,
            health,
            margins,
            feat_row,
            window,
            ..
        } = self;
        let entropy: u64 = tr.span(trace::PROLOGUE, || {
            sim.apply_data_errors(rng);
            sim.true_parities_into(parities);
            rng.random()
        });
        tr.span(trace::SYNTH, || {
            batch.clear();
            for g in 0..map.n_groups() {
                let prepared = map.prepared_state(g, parities);
                let mut group_rng = StdRng::seed_from_u64(stream_seed(entropy, g as u64));
                synth.synth_into_row(prepared, batch, &mut group_rng);
            }
        });
        tr.span(trace::DISCRIMINATE, || {
            PrecisionDiscriminator::<f64>::discriminate_shot_batch_r_into(
                *disc, batch, features, states,
            );
        });
        tr.span(trace::COMMIT, || {
            for (a, m) in measured.iter_mut().enumerate() {
                let (g, c) = map.slot(a);
                *m = states[g].qubit(c);
            }
            sim.record_measured_syndrome(measured);
        });
        tr.span(trace::HEALTH, || {
            let mean_margin = mean_live_margin(disc, map, features, margins, feat_row);
            health.observe_round(mean_margin, measured);
        });
        if let Some(w) = window.as_mut() {
            tr.span(trace::WINDOW_ADVANCE, || {
                let events = sim.events();
                w.wd.push_events(&events[w.fed..]);
                w.fed = events.len();
                let (graph, uf) = w.scratch.window_parts(code, *rounds);
                w.wd.advance(t, graph, uf);
            });
        }
    }
}

/// Ends a windowed block the way the engine does: feed the perfect round's
/// events, and resolve the window's remainder — or, when the stream
/// committed nothing, decode the whole block through the standard dispatch.
fn finish_window(
    w: &mut Window,
    code: &RotatedSurfaceCode,
    rounds: usize,
    sim: &SyndromeSim<'_>,
    block: &SyndromeBlock,
) -> DecodeOutcome {
    let events = sim.events();
    w.wd.push_events(&events[w.fed..]);
    w.fed = events.len();
    if w.wd.committed_clusters() == 0 {
        return decode_block_with(code, block, &mut w.scratch);
    }
    let (graph, uf) = w.scratch.window_parts(code, rounds);
    let west_matches = w.wd.finish(graph, uf);
    DecodeOutcome {
        n_events: w.wd.n_events(),
        west_matches,
        logical_error: block.west_column_error_parity(code) != (west_matches % 2 == 1),
        degraded: false,
    }
}

/// The health monitor's input for one round: the discriminator's soft
/// margins averaged over live ancilla slots (idle pad channels carry no
/// signal), as the engine computes it; `None` when the design has no margin.
fn mean_live_margin(
    disc: &MfDiscriminator,
    map: &AncillaMap,
    features: &[f64],
    margins: &mut [f64],
    feat_row: &mut Vec<f64>,
) -> Option<f64> {
    let n_groups = map.n_groups();
    if features.is_empty() || !features.len().is_multiple_of(n_groups) {
        return None;
    }
    let width = features.len() / n_groups;
    let (mut sum, mut n) = (0.0, 0usize);
    for (g, row) in features.chunks_exact(width).enumerate() {
        feat_row.clear();
        feat_row.extend_from_slice(row);
        if !disc.soft_margins(feat_row, margins) {
            return None;
        }
        for (c, &m) in margins.iter().enumerate() {
            if map.ancilla(g, c).is_some() {
                sum += m;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}
