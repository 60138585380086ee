//! Streaming QEC-cycle throughput benchmark.
//!
//! Trains the `mf` discriminator once on the five-qubit default chip, then
//! runs the streaming [`CycleEngine`] at distances 3, 5, 7, 9 and 11
//! (rounds = d)
//! at **both pipeline precisions** (`CycleEngine<f64>` and
//! `CycleEngine<f32>`) and at **several worker counts**: the serial engine
//! (`threads = 1`, [`CycleEngine::new`]'s inline pool) plus
//! [`CycleEngine::with_pool`] on a [`ShardPool`] for every count in
//! `--threads` (default `2,4`). All variants are bit-identical per seed;
//! the rows measure cycles/second and the per-stage nanosecond breakdown
//! (synth / discriminate / syndrome / decode) of the warm engine. On every
//! row the synth figure is the *exposed* synthesis latency — the fan-out's
//! wall time minus the consume stage it overlaps, which on one thread is
//! all of synthesis. The offline materializing path (f64, serial by
//! construction) is timed on the same workload for the speedup column.
//!
//! Results land in `BENCH_stream.json` (cwd), continuing the performance
//! trajectory seeded by `BENCH_inference.json`.
//!
//! Every engine the benchmark runs carries **registry-backed telemetry**
//! (`herqles-telemetry`): per-stage latency histograms scoped by an
//! `engine="d{d}-{precision}-t{threads}-{kernel}"` label. The JSON rows gain
//! `p50_ns` / `p99_ns` / `max_ns` per-stage percentile objects, and the whole
//! registry can be exported after the run:
//!
//! * `--serve-text` — dump the Prometheus text exposition to **stdout**
//!   (bench progress goes to stderr, so `bench_stream --serve-text >
//!   metrics.prom` scrapes cleanly in CI);
//! * `--serve-text ADDR` (e.g. `127.0.0.1:9184`) — serve `GET /metrics`
//!   (and `GET /trace`, the Chrome-trace JSON) forever on a plain TCP
//!   listener;
//! * `--metrics-json PATH` — write the JSON export of the same snapshot;
//! * `--trace-json PATH` — write the **flight recorder** export: every
//!   variant's stage spans and point events as Chrome Trace Event
//!   Format JSON, one process per engine variant (tid 0 = the engine's
//!   stage track, tid 1+w = pool worker `w`'s task track), loadable in
//!   Perfetto / `chrome://tracing`.
//!
//! Flags: `--threads N[,M…]` (pooled worker counts; `--threads 0` disables
//! pooled rows) and `--drift` (append fault-injection
//! robustness rows: the adaptive engine's cycles/s under an active centroid
//! drift plus its
//! rounds-to-detect and rounds-to-recover, per precision, serial and pooled,
//! kernel-tagged — emitted under a `"drift"` key in the JSON; each drift
//! variant also evaluates the demo SLO alert set
//! ([`demo_alert_rules`](herqles_stream::demo_alert_rules)) every cycle and
//! reports how many alerts fired and cleared).
//!
//! # Environment knobs — two prefixes, deliberately different
//!
//! The bench's **workload** knobs all share the `HERQULES_STREAM_*` prefix
//! (plus the run-wide `HERQULES_SEED`), while the SIMD **kernel dispatch**
//! is the `herqles-num` crate's own `HERQLES_KERNEL` variable — note the
//! spelling difference (`HERQULES_` vs `HERQLES_`). The kernel variable
//! predates the bench prefix and is read process-wide by every crate that
//! links `herqles-num`, so it keeps its historical name; everything the
//! bench itself owns is namespaced under the longer prefix:
//!
//! * `HERQULES_STREAM_CYCLES` — measured cycles per distance (default 40);
//! * `HERQULES_STREAM_SHOTS` — calibration shots per basis state
//!   (default 12);
//! * `HERQULES_STREAM_THREADS` — same as `--threads`;
//! * `HERQULES_SEED` — the run seed;
//! * `HERQLES_KERNEL` — `scalar` | `avx2` | `auto` GEMM/noise backend
//!   dispatch (consumed by `herqles-num`, not parsed here).

use std::sync::Arc;

use herqles_bench::{env_usize, with_scalar_kernel, JsonReport};
use herqles_core::Real;
use herqles_num::kernel::active_kernel_name;
use herqles_stream::{
    demo_alert_rules, run_cycles_offline, train_mf_discriminator_typed, AdaptiveMf, CycleConfig,
    CycleEngine, DriftEvent, EngineTelemetry, FaultPlan, HealthConfig, HealthStatus,
    LatencySummary, PoolTelemetry, RecalConfig, ShardPool, StageLatency,
};
use herqles_telemetry::{AlertEngine, ChromeTrace, Registry, SpanKind, StageTimer};
use readout_sim::ChipConfig;
use surface_code::RotatedSurfaceCode;

const DISTANCES: [usize; 5] = [3, 5, 7, 9, 11];

/// How `--serve-text` exports the metrics registry after the run.
enum ServeText {
    /// Flag absent.
    Off,
    /// Bare `--serve-text`: dump the exposition to stdout once.
    Stdout,
    /// `--serve-text ADDR`: serve `GET /metrics` forever.
    Addr(String),
}

/// Parsed command line.
struct Args {
    /// Pooled worker counts; empty means serial only.
    threads: Vec<usize>,
    /// Append the fault-injection robustness rows.
    drift: bool,
    /// Prometheus-text export mode.
    serve_text: ServeText,
    /// Write the registry's JSON export here.
    metrics_json: Option<String>,
    /// Write the Chrome-trace flight-recorder export here.
    trace_json: Option<String>,
}

/// Parses the command line. `--threads 2,4` wins over
/// `HERQULES_STREAM_THREADS` wins over the default `2,4`; `0` (or an empty
/// list) means serial only.
fn parse_args() -> Args {
    let mut spec: Option<String> = std::env::var("HERQULES_STREAM_THREADS").ok();
    let mut drift = false;
    let mut serve_text = ServeText::Off;
    let mut metrics_json = None;
    let mut trace_json = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threads" => {
                i += 1;
                spec = Some(
                    argv.get(i)
                        .expect("--threads requires a value, e.g. --threads 2,4")
                        .clone(),
                );
            }
            "--drift" => drift = true,
            "--serve-text" => {
                // Optional value: an address to serve on; bare means stdout.
                serve_text = match argv.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        ServeText::Addr(v.clone())
                    }
                    _ => ServeText::Stdout,
                };
            }
            "--metrics-json" => {
                i += 1;
                metrics_json = Some(argv.get(i).expect("--metrics-json requires a path").clone());
            }
            "--trace-json" => {
                i += 1;
                trace_json = Some(argv.get(i).expect("--trace-json requires a path").clone());
            }
            other => {
                panic!(
                    "unknown argument {other:?} (supported: --threads N[,M…], --drift, \
                     --serve-text [ADDR], --metrics-json PATH, --trace-json PATH)"
                )
            }
        }
        i += 1;
    }
    let spec = spec.unwrap_or_else(|| "2,4".to_string());
    let threads = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .unwrap_or_else(|_| panic!("--threads entries must be integers, got {s:?}"))
        })
        .filter(|&t| {
            if t == 1 {
                eprintln!(
                    "[bench_stream] ignoring --threads 1: a 1-thread pool is the inline path, \
                     already covered by the serial (threads=1) rows"
                );
            }
            t > 1
        })
        .collect();
    Args {
        threads,
        drift,
        serve_text,
        metrics_json,
        trace_json,
    }
}

/// Accumulates every variant's flight-recorder output into one Chrome
/// trace: one process (pid) per engine variant, tid 0 = the engine's stage
/// track, tid `1 + w` = pool worker `w`'s task track (worker 0 is the
/// calling thread). Always built — draining the rings doubles as the
/// in-bench check that span recording actually happened — and written out
/// only under `--trace-json` / served under `--serve-text ADDR`.
struct TraceSink {
    chrome: ChromeTrace,
    next_pid: u32,
}

impl TraceSink {
    fn new() -> Self {
        TraceSink {
            chrome: ChromeTrace::new(),
            next_pid: 1,
        }
    }

    /// Registers a new variant process and returns its pid.
    fn alloc_pid(&mut self, name: &str) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.chrome.set_process_name(pid, name);
        self.chrome.set_thread_name(pid, 0, "engine");
        pid
    }

    /// Drains one engine variant's telemetry into the trace and asserts the
    /// flight recorder really recorded: a `Cycle` span per measured cycle
    /// (unless the ring wrapped) and, for pooled variants, at least one
    /// task span on a background-worker track.
    fn drain_engine(
        &mut self,
        label: &str,
        telem: &EngineTelemetry,
        pool_telem: Option<&PoolTelemetry>,
        measured_cycles: usize,
    ) {
        let pid = self.alloc_pid(label);
        let spans = telem.spans().snapshot();
        let cycle_spans = spans.iter().filter(|s| s.kind == SpanKind::Cycle).count();
        if telem.spans().dropped() == 0 {
            assert!(
                cycle_spans >= measured_cycles,
                "variant {label}: {cycle_spans} cycle spans recorded for {measured_cycles} \
                 measured cycles"
            );
        } else {
            assert!(
                cycle_spans > 0,
                "variant {label}: span ring wrapped but kept no cycle spans"
            );
        }
        self.chrome.add_spans(pid, 0, &spans);
        if let Some(t) = pool_telem {
            let tasks = t.spans().snapshot();
            assert!(
                tasks.iter().any(|s| s.track >= 1),
                "variant {label}: pooled run recorded no background-worker task spans"
            );
            for w in 0..t.workers() {
                let name = if w == 0 {
                    "worker 0 (caller)".to_string()
                } else {
                    format!("worker {w}")
                };
                self.chrome.set_thread_name(pid, 1 + w as u32, &name);
            }
            self.chrome.add_spans(pid, 1, &tasks);
        }
    }
}

/// One fault-injection robustness row: throughput under an active centroid
/// drift plus the detect/recover latencies of the health → hot-swap loop.
struct DriftRow {
    precision: &'static str,
    kernel: &'static str,
    threads: usize,
    clean_cycles_per_sec: f64,
    faulted_cycles_per_sec: f64,
    /// Rounds from fault onset until the health monitor left `Nominal`
    /// (−1 if it never tripped within the budget).
    rounds_to_detect: i64,
    /// Rounds from fault onset until a hot-swap had fired *and* the monitor
    /// re-baselined to `Nominal` (−1 if not reached within the budget).
    rounds_to_recover: i64,
    hot_swaps: u64,
    degraded_decodes: u64,
    /// Demo-alert-set fire transitions over the whole scenario.
    alerts_fired: u64,
    /// Demo-alert-set clear transitions over the whole scenario.
    alerts_cleared: u64,
}

/// Runs the drift → detect → hot-swap → recover scenario (the same recipe
/// `crates/stream/tests/drift.rs` pins): calibrate clean on the two-channel
/// chip at d = 3, step both readout clouds by 0.3 of their ground/excited
/// separation, then stream adaptively until the monitor re-baselines.
///
/// The demo SLO alert set rides along: an [`AlertEngine`] over the
/// variant's own registry is evaluated after every cycle, and once the
/// engine has recovered the scenario keeps streaming quiet cycles until
/// every alert has cleared — asserting the fire → hold → clear lifecycle
/// end to end.
fn measure_drift<R: Real>(
    shots: usize,
    seed: u64,
    pool: Option<&ShardPool>,
    sink: &mut TraceSink,
) -> DriftRow
where
    herqles_stream::AdaptiveMf: herqles_core::PrecisionDiscriminator<R>,
{
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let mf = train_mf_discriminator_typed(&chip, shots, seed);
    let adaptive = AdaptiveMf::from_mf(
        &mf,
        RecalConfig {
            capacity: 128,
            min_windows: 8,
            ..RecalConfig::default()
        },
    );
    let cfg = CycleConfig {
        rounds: 3,
        data_error_prob: 0.03,
        seed,
    };
    let mut engine = match pool {
        Some(pool) => CycleEngine::<R, _>::with_pool(cfg, &chip, &code, &adaptive, pool),
        None => CycleEngine::<R, _>::new(cfg, &chip, &code, &adaptive),
    };
    engine.set_health_config(HealthConfig {
        alpha: 0.04,
        baseline_rounds: 60,
        hold_rounds: 4,
        degraded_defect_factor: 3.0,
        critical_defect_factor: 8.0,
        ..HealthConfig::default()
    });
    engine.set_recal_cooldown(12);

    // Per-variant registry + the demo SLO alert set, evaluated once per
    // cycle against fresh registry snapshots.
    let registry = Registry::new();
    let label = format!(
        "drift-{}-t{}-{}",
        R::NAME,
        pool.map_or(1, ShardPool::threads),
        active_kernel_name()
    );
    let scope = registry.scope(&[("engine", label.as_str())]);
    engine.set_telemetry(EngineTelemetry::registered(&scope));
    let mut alerts = AlertEngine::registered(demo_alert_rules(), &scope);

    // Clean calibration phase (also the clean-throughput measurement).
    const CLEAN_CYCLES: usize = 40;
    let timer = StageTimer::start();
    let _ = engine.run_cycles_adaptive(CLEAN_CYCLES);
    let clean_cps = CLEAN_CYCLES as f64 / timer.elapsed_secs();
    // Two quiet evaluations: the first baselines the rate rules, the
    // second confirms the clean phase evaluates to Ok across the board.
    alerts.evaluate(&registry.snapshot());
    alerts.evaluate(&registry.snapshot());
    assert_eq!(
        alerts.firing(),
        0,
        "{label}: demo alerts must be quiet on the clean baseline"
    );

    let onset = engine.stats().rounds;
    let mut plan = FaultPlan::none();
    for (k, q) in chip.qubits.iter().enumerate() {
        plan.push(DriftEvent::CentroidDrift {
            qubit: k,
            start_round: onset,
            end_round: onset,
            delta: q.separation_dir() * (0.30 * q.separation()),
        });
    }
    engine.set_fault_plan(plan);

    let mut detect_round: Option<u64> = None;
    let mut recover_round: Option<u64> = None;
    let mut faulted_cycles = 0usize;
    let timer = StageTimer::start();
    for _ in 0..400 {
        let r = engine.run_cycle_adaptive();
        faulted_cycles += 1;
        alerts.evaluate(&registry.snapshot());
        if detect_round.is_none() && r.stats.health != HealthStatus::Nominal {
            detect_round = Some(engine.stats().rounds);
        }
        if detect_round.is_some()
            && engine.stats().hot_swaps >= 1
            && r.stats.health == HealthStatus::Nominal
        {
            recover_round = Some(engine.stats().rounds);
            break;
        }
    }
    let faulted_cps = faulted_cycles as f64 / timer.elapsed_secs();

    // Post-recovery: stream quiet cycles until every alert's clear debounce
    // has run down (the demo set's longest is 6 evaluations).
    if recover_round.is_some() {
        for _ in 0..40 {
            if alerts.firing() == 0 {
                break;
            }
            let _ = engine.run_cycle_adaptive();
            alerts.evaluate(&registry.snapshot());
        }
    }

    let (alerts_fired, alerts_cleared) = alerts
        .statuses()
        .iter()
        .fold((0, 0), |acc, s| (acc.0 + s.fired, acc.1 + s.cleared));
    if recover_round.is_some() {
        assert!(
            alerts_fired >= 1,
            "{label}: drift was detected and recovered but no demo alert fired"
        );
        assert_eq!(
            alerts.firing(),
            0,
            "{label}: demo alerts must all clear after recovery (fired {alerts_fired}, \
             cleared {alerts_cleared})"
        );
    }

    // Flight-recorder export: the drift variant's stage spans and point
    // events, plus the alert fire/clear points, on the same track.
    let pid = sink.alloc_pid(&label);
    sink.chrome
        .add_spans(pid, 0, &engine.telemetry().spans().snapshot());
    sink.chrome.add_spans(pid, 0, &alerts.trace().snapshot());

    let since_onset = |round: Option<u64>| round.map_or(-1, |r| (r - onset) as i64);
    DriftRow {
        precision: R::NAME,
        kernel: active_kernel_name(),
        threads: pool.map_or(1, ShardPool::threads),
        clean_cycles_per_sec: clean_cps,
        faulted_cycles_per_sec: faulted_cps,
        rounds_to_detect: since_onset(detect_round),
        rounds_to_recover: since_onset(recover_round),
        hot_swaps: engine.stats().hot_swaps,
        degraded_decodes: engine.stats().degraded_decodes,
        alerts_fired,
        alerts_cleared,
    }
}

struct Row {
    distance: usize,
    precision: &'static str,
    /// SIMD microkernel backend the discriminate GEMM ran on.
    kernel: &'static str,
    threads: usize,
    groups: usize,
    cycles: usize,
    cycles_per_sec: f64,
    offline_cycles_per_sec: f64,
    logical_errors: u64,
    synth_ns: u64,
    discriminate_ns: u64,
    syndrome_ns: u64,
    decode_ns: u64,
    /// Per-stage latency percentiles (p50/p90/p99/max, ns per cycle) from
    /// the engine's registered histograms, warm cycles only.
    latency: StageLatency,
}

fn main() {
    let cycles = env_usize("HERQULES_STREAM_CYCLES", 40);
    assert!(cycles > 0, "HERQULES_STREAM_CYCLES must be at least 1");
    let shots = env_usize("HERQULES_STREAM_SHOTS", 12);
    let seed = env_usize("HERQULES_SEED", 20_230_612) as u64;
    let args = parse_args();

    let chip = ChipConfig::five_qubit_default();
    eprintln!("[bench_stream] training mf discriminator ({shots} shots/state)…");
    let disc = train_mf_discriminator_typed(&chip, shots, seed);

    // One registry spans the whole run; every engine variant registers its
    // histograms and counters under a distinguishing `engine=…` label, so the
    // exports at the end expose the full matrix in one scrape.
    let registry = Registry::new();

    /// Run-wide invariants shared by every `measure` call.
    struct MeasureCtx<'a> {
        disc: &'a herqles_core::designs::MfDiscriminator,
        chip: &'a ChipConfig,
        cycles: usize,
        registry: &'a Registry,
    }

    /// One warm-up cycle, then the measured run; returns a precision- and
    /// thread-tagged row. `pool: None` is the serial engine. Offline
    /// throughput is supplied by the caller (the materializing reference is
    /// serial `f64` by construction and shared by every row of a distance).
    fn measure<R: Real>(
        ctx: &MeasureCtx<'_>,
        code: &RotatedSurfaceCode,
        cfg: CycleConfig,
        pool: Option<&ShardPool>,
        offline_cycles_per_sec: f64,
        sink: &mut TraceSink,
    ) -> Row
    where
        herqles_core::designs::MfDiscriminator: herqles_core::PrecisionDiscriminator<R>,
    {
        let cycles = ctx.cycles;
        let mut engine = match pool {
            Some(pool) => CycleEngine::<R, _>::with_pool(cfg, ctx.chip, code, ctx.disc, pool),
            None => CycleEngine::<R, _>::new(cfg, ctx.chip, code, ctx.disc),
        };
        let label = format!(
            "d{}-{}-t{}-{}",
            code.distance(),
            R::NAME,
            pool.map_or(1, ShardPool::threads),
            active_kernel_name()
        );
        engine.set_telemetry(EngineTelemetry::registered(
            &ctx.registry.scope(&[("engine", label.as_str())]),
        ));
        // Pooled variants get per-worker instrumentation for the flight
        // recorder (a generous ring so a full measured run fits). The
        // warm-up fan-out is barrier-synchronized — every thread claims
        // exactly one task — so with telemetry already attached each
        // background worker deterministically records at least one span,
        // however the measured cycles themselves get scheduled.
        let pool_telem = pool.map(|p| {
            let t = Arc::new(PoolTelemetry::with_span_capacity(p.threads(), 1 << 16));
            p.set_telemetry(Some(Arc::clone(&t)));
            p.warm_up();
            t
        });
        let _ = engine.run_cycle();
        // Drop the warm-up cycle from the histograms so the percentiles
        // describe the same warm cycles the throughput figure does.
        engine.telemetry().clear_latency();
        let warm = *engine.stats();
        let timer = StageTimer::start();
        let results = engine.run_cycles(cycles);
        let elapsed = timer.elapsed_secs();
        if let Some(p) = pool {
            p.set_telemetry(None);
        }
        sink.drain_engine(&label, engine.telemetry(), pool_telem.as_deref(), cycles);
        let mut stage = herqles_stream::StageNanos::default();
        for r in &results {
            stage.add(&r.stats.stage);
        }
        let n = cycles as u64;
        Row {
            distance: code.distance(),
            precision: R::NAME,
            kernel: active_kernel_name(),
            threads: pool.map_or(1, ShardPool::threads),
            groups: engine.ancilla_map().n_groups(),
            cycles,
            cycles_per_sec: cycles as f64 / elapsed,
            offline_cycles_per_sec,
            logical_errors: engine.stats().logical_errors - warm.logical_errors,
            synth_ns: stage.synth / n,
            discriminate_ns: stage.discriminate / n,
            syndrome_ns: stage.syndrome / n,
            decode_ns: stage.decode / n,
            latency: engine.stage_latency(),
        }
    }

    let ctx = MeasureCtx {
        disc: &disc,
        chip: &chip,
        cycles,
        registry: &registry,
    };

    let pools: Vec<ShardPool> = args.threads.iter().map(|&t| ShardPool::new(t)).collect();
    let mut sink = TraceSink::new();
    let mut rows = Vec::new();
    for d in DISTANCES {
        let code = RotatedSurfaceCode::new(d);
        let cfg = CycleConfig {
            rounds: d,
            data_error_prob: 4e-3,
            seed,
        };

        // Offline materializing path on the same cycle count.
        let off_timer = StageTimer::start();
        let _ = run_cycles_offline(&cfg, &chip, &code, &disc, cycles);
        let offline_cps = cycles as f64 / off_timer.elapsed_secs();

        let mut variants: Vec<Row> = Vec::new();
        variants.push(measure::<f64>(
            &ctx,
            &code,
            cfg,
            None,
            offline_cps,
            &mut sink,
        ));
        variants.push(measure::<f32>(
            &ctx,
            &code,
            cfg,
            None,
            offline_cps,
            &mut sink,
        ));
        for pool in &pools {
            variants.push(measure::<f64>(
                &ctx,
                &code,
                cfg,
                Some(pool),
                offline_cps,
                &mut sink,
            ));
            variants.push(measure::<f32>(
                &ctx,
                &code,
                cfg,
                Some(pool),
                offline_cps,
                &mut sink,
            ));
        }

        // Scalar-kernel reference rows (serial, both precisions): when the
        // dispatch resolved to a SIMD backend, the discriminate-stage
        // multiplier is dispatched-vs-scalar at the same distance. The
        // offline baseline is re-measured under the scalar backend so the
        // rows' offline/speedup fields describe one backend, not a mix.
        if let Some((r64, r32)) = with_scalar_kernel(|| {
            let off_timer = StageTimer::start();
            let _ = run_cycles_offline(&cfg, &chip, &code, &disc, cycles);
            let scalar_offline_cps = cycles as f64 / off_timer.elapsed_secs();
            (
                measure::<f64>(&ctx, &code, cfg, None, scalar_offline_cps, &mut sink),
                measure::<f32>(&ctx, &code, cfg, None, scalar_offline_cps, &mut sink),
            )
        }) {
            variants.push(r64);
            variants.push(r32);
        }

        for row in variants {
            eprintln!(
                "[bench_stream] d={}/{}/{}/t={}: {:>8.1} cycles/s streamed ({:>8.1} offline, {:.2}x), per-cycle \
                 synth {} ns | discriminate {} ns | syndrome {} ns | decode {} ns, \
                 cycle p50 {} ns | p99 {} ns | max {} ns, {} logical errors",
                row.distance,
                row.precision,
                row.kernel,
                row.threads,
                row.cycles_per_sec,
                row.offline_cycles_per_sec,
                row.cycles_per_sec / row.offline_cycles_per_sec,
                row.synth_ns,
                row.discriminate_ns,
                row.syndrome_ns,
                row.decode_ns,
                row.latency.cycle.p50,
                row.latency.cycle.p99,
                row.latency.cycle.max,
                row.logical_errors,
            );
            rows.push(row);
        }
    }

    // `--drift`: fault-injection robustness rows — the adaptive engine under
    // an injected centroid drift, serial plus the first pooled worker count.
    let mut drift_rows: Vec<DriftRow> = Vec::new();
    if args.drift {
        eprintln!("[bench_stream] drift scenario (inject → detect → hot-swap → recover)…");
        let drift_pools: Vec<Option<&ShardPool>> = std::iter::once(None)
            .chain(pools.first().map(Some))
            .collect();
        for pool in drift_pools {
            drift_rows.push(measure_drift::<f64>(shots, seed, pool, &mut sink));
            drift_rows.push(measure_drift::<f32>(shots, seed, pool, &mut sink));
        }
        for r in &drift_rows {
            eprintln!(
                "[bench_stream] drift {}/{}/t={}: {:>8.1} cycles/s clean, {:>8.1} under fault, \
                 detect {} rounds | recover {} rounds | {} hot-swaps | {} degraded decodes | \
                 {} alerts fired, {} cleared",
                r.precision,
                r.kernel,
                r.threads,
                r.clean_cycles_per_sec,
                r.faulted_cycles_per_sec,
                r.rounds_to_detect,
                r.rounds_to_recover,
                r.hot_swaps,
                r.degraded_decodes,
                r.alerts_fired,
                r.alerts_cleared,
            );
        }
    }

    /// One `{"synth": …, "discriminate": …, "syndrome": …, "decode": …,
    /// "cycle": …}` object built from a single percentile of every stage
    /// histogram.
    fn pct_json(l: &StageLatency, pick: fn(LatencySummary) -> u64) -> String {
        format!(
            "{{\"synth\": {}, \"discriminate\": {}, \"syndrome\": {}, \"decode\": {}, \"cycle\": {}}}",
            pick(l.synth),
            pick(l.discriminate),
            pick(l.syndrome),
            pick(l.decode),
            pick(l.cycle)
        )
    }

    let mut report = JsonReport::new("stream_cycle_throughput", "cycles_per_second");
    report.scalar("shots_per_state", shots);
    for r in &drift_rows {
        report.row(
            "drift",
            format!(
                "{{\"precision\": \"{}\", \"kernel\": \"{}\", \"threads\": {}, \
                 \"clean\": {:.1}, \"faulted\": {:.1}, \"rounds_to_detect\": {}, \
                 \"rounds_to_recover\": {}, \"hot_swaps\": {}, \"degraded_decodes\": {}, \
                 \"alerts_fired\": {}, \"alerts_cleared\": {}}}",
                r.precision,
                r.kernel,
                r.threads,
                r.clean_cycles_per_sec,
                r.faulted_cycles_per_sec,
                r.rounds_to_detect,
                r.rounds_to_recover,
                r.hot_swaps,
                r.degraded_decodes,
                r.alerts_fired,
                r.alerts_cleared,
            ),
        );
    }
    for r in &rows {
        report.row(
            "results",
            format!(
                "{{\"distance\": {}, \"rounds\": {}, \"precision\": \"{}\", \"kernel\": \"{}\", \
                 \"threads\": {}, \"groups\": {}, \
                 \"cycles\": {}, \"streamed\": {:.1}, \"offline\": {:.1}, \"speedup\": {:.3}, \
                 \"per_cycle_ns\": {{\"synth\": {}, \"discriminate\": {}, \"syndrome\": {}, \
                 \"decode\": {}}}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"logical_errors\": {}}}",
                r.distance,
                r.distance,
                r.precision,
                r.kernel,
                r.threads,
                r.groups,
                r.cycles,
                r.cycles_per_sec,
                r.offline_cycles_per_sec,
                r.cycles_per_sec / r.offline_cycles_per_sec,
                r.synth_ns,
                r.discriminate_ns,
                r.syndrome_ns,
                r.decode_ns,
                pct_json(&r.latency, |s| s.p50),
                pct_json(&r.latency, |s| s.p99),
                pct_json(&r.latency, |s| s.max),
                r.logical_errors,
            ),
        );
    }
    report.write("BENCH_stream.json");

    // Flight-recorder export: one Chrome trace spanning every variant.
    let trace_body = sink.chrome.to_json();
    if let Some(path) = &args.trace_json {
        std::fs::write(path, &trace_body).expect("write trace JSON");
        eprintln!(
            "[bench_stream] wrote Chrome trace ({} events) to {path} — load it in \
             Perfetto or chrome://tracing",
            sink.chrome.event_count()
        );
    }

    // Registry exports: the same snapshot drives every export format.
    let snapshot = registry.snapshot();
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, snapshot.to_json()).expect("write metrics JSON");
        eprintln!("[bench_stream] wrote metrics JSON to {path}");
    }
    match args.serve_text {
        ServeText::Off => {}
        ServeText::Stdout => {
            // Stdout is reserved for the exposition (progress goes to
            // stderr), so `bench_stream --serve-text > metrics.prom`
            // produces a clean scrape file.
            print!("{}", snapshot.to_prometheus_text());
        }
        ServeText::Addr(addr) => {
            serve_metrics(&addr, &snapshot.to_prometheus_text(), &trace_body);
        }
    }
}

/// Serves `GET /metrics` (the default for any unrecognized path — a scraper
/// only asks for one) and `GET /trace` (the Chrome-trace JSON) forever on a
/// plain TCP listener. Deliberately minimal: read the request head, route
/// on the request-line path, answer 200, close.
fn serve_metrics(addr: &str, metrics: &str, trace: &str) -> ! {
    use std::io::{Read as _, Write as _};
    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| panic!("--serve-text: cannot bind {addr}: {e}"));
    eprintln!(
        "[bench_stream] serving metrics on http://{addr}/metrics and the flight \
         recorder on http://{addr}/trace (ctrl-c to stop)"
    );
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        // Read the request head; the request line is all we route on.
        let mut buf = [0u8; 1024];
        let n = stream.read(&mut buf).unwrap_or(0);
        let head = String::from_utf8_lossy(&buf[..n]);
        let path = head
            .lines()
            .next()
            .and_then(|line| line.split_whitespace().nth(1))
            .unwrap_or("/metrics");
        let (body, content_type) = if path == "/trace" || path.starts_with("/trace?") {
            (trace, "application/json")
        } else {
            (metrics, "text/plain; version=0.0.4")
        };
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            content_type,
            body.len(),
            body
        );
        let _ = stream.write_all(response.as_bytes());
    }
}
