//! Observability and drift smoke for the streaming [`CycleEngine`].
//!
//! Stream *timing* is the repository benchmark's job (`perfbench`'s
//! `stream_d5` and `stream_d7_pool2` workloads time every cycle as its
//! fastest replay). This binary checks what only an exported run shows:
//!
//! * **Registry-backed telemetry.** One fixed variant set — d = 5
//!   ([`DISTANCE`]), the serial engine plus [`CycleEngine::with_pool`] on one
//!   2-thread [`ShardPool`], each at f64 and f32 — streams [`CYCLES`] cycles
//!   under an `engine="d5-{precision}-t{threads}-{kernel}"` label, so one
//!   registry carries the whole matrix.
//! * **Flight recorder.** Every variant's span ring is drained into one
//!   Chrome trace, asserting a `Cycle` span per measured cycle and, on the
//!   pooled variants, task spans on a background-worker track.
//! * **Drift → detect → hot-swap → recover.** The adaptive engine (f64 and
//!   f32, serial and pooled) must detect an injected centroid drift,
//!   hot-swap its discriminator, re-baseline to `Nominal`, and take the demo
//!   SLO alert set ([`demo_alert_rules`]) through fire → clear. A variant
//!   that misses any step panics. Each drift engine and its alert engine
//!   register on the same registry under an `engine="drift-…"` label, so
//!   the exposition carries the loop's hot-swap and health-transition
//!   counters and the alert state gauges.
//!
//! Exports, after the run:
//!
//! * `--serve-text` — dump the Prometheus text exposition to **stdout**
//!   (progress goes to stderr, so `bench_stream --serve-text >
//!   metrics.prom` scrapes cleanly in CI);
//! * `--serve-text ADDR` (e.g. `127.0.0.1:9184`) — serve `GET /metrics`
//!   (and `GET /trace`, the Chrome-trace JSON) forever on a plain TCP
//!   listener;
//! * `--trace-json PATH` — write the **flight recorder** export: every
//!   variant's stage spans and point events as Chrome Trace Event Format
//!   JSON, one process per engine variant (tid 0 = the engine's stage
//!   track, tid 1+w = pool worker `w`'s task track), loadable in Perfetto /
//!   `chrome://tracing`.
//!
//! The SIMD kernel follows `HERQLES_KERNEL` (`scalar` | `avx2` | `auto`,
//! read by `herqles-num`); every label carries the resolved backend.

use std::sync::Arc;

use herqles_core::Real;
use herqles_num::kernel::active_kernel_name;
use herqles_stream::{
    demo_alert_rules, train_mf_discriminator, AdaptiveMf, CycleConfig, CycleEngine, DriftEvent,
    EngineTelemetry, FaultPlan, HealthConfig, HealthStatus, PoolTelemetry, RecalConfig, ShardPool,
};
use herqles_telemetry::{AlertEngine, ChromeTrace, MetricValue, Registry, SpanKind};
use readout_sim::ChipConfig;
use surface_code::RotatedSurfaceCode;

/// Code distance of the telemetry variants (rounds = d).
const DISTANCE: usize = 5;
/// Measured cycles per telemetry variant.
const CYCLES: usize = 8;
/// Calibration shots per basis state, for both discriminators.
const SHOTS: usize = 12;
/// Run seed.
const SEED: u64 = 20_230_612;
/// Worker count of the pooled variants (the caller included).
const POOL_THREADS: usize = 2;

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
    /// Prometheus-text export mode.
    serve_text: ServeText,
    /// Write the Chrome-trace flight-recorder export here.
    trace_json: Option<String>,
}

fn parse_args() -> Args {
    let mut serve_text = ServeText::Off;
    let mut trace_json = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
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
            "--trace-json" => {
                i += 1;
                trace_json = Some(argv.get(i).expect("--trace-json requires a path").clone());
            }
            other => panic!(
                "unknown argument {other:?} (supported: --serve-text [ADDR], \
                 --trace-json PATH)"
            ),
        }
        i += 1;
    }
    Args {
        serve_text,
        trace_json,
    }
}

/// `{prefix}-{precision}-t{threads}-{kernel}`: the variant's `engine` label
/// and trace process name.
fn variant_label<R: Real>(prefix: &str, pool: Option<&ShardPool>) -> String {
    format!(
        "{prefix}-{}-t{}-{}",
        R::NAME,
        pool.map_or(1, ShardPool::threads),
        active_kernel_name()
    )
}

/// Accumulates every variant's flight-recorder output into one Chrome
/// trace: one process (pid) per engine variant, tid 0 = the engine's stage
/// track, tid `1 + w` = pool worker `w`'s task track (worker 0 is the
/// calling thread). Always built — draining the rings doubles as the
/// in-binary check that span recording actually happened — and written out
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

    /// Drains one telemetry variant into the trace and asserts the flight
    /// recorder really recorded: a `Cycle` span for each of the [`CYCLES`]
    /// cycles (unless the ring wrapped) and, for pooled variants, at least one
    /// task span on a background-worker track.
    fn drain_engine(
        &mut self,
        label: &str,
        telem: &EngineTelemetry,
        pool_telem: Option<&PoolTelemetry>,
    ) {
        let pid = self.alloc_pid(label);
        let spans = telem.spans().snapshot();
        let cycle_spans = spans.iter().filter(|s| s.kind == SpanKind::Cycle).count();
        if telem.spans().dropped() == 0 {
            assert!(
                cycle_spans >= CYCLES,
                "variant {label}: {cycle_spans} cycle spans recorded for {CYCLES} cycles"
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

/// Streams one telemetry variant for [`CYCLES`] cycles with its histograms
/// and counters in `registry`, then drains its flight recorder into `sink`.
/// `pool: None` is the serial engine.
fn run_variant<R: Real>(
    disc: &herqles_core::designs::MfDiscriminator,
    chip: &ChipConfig,
    code: &RotatedSurfaceCode,
    registry: &Registry,
    pool: Option<&ShardPool>,
    sink: &mut TraceSink,
) {
    let cfg = CycleConfig {
        rounds: DISTANCE,
        data_error_prob: 4e-3,
        seed: SEED,
    };
    let mut engine = match pool {
        Some(pool) => CycleEngine::<R, _>::with_pool(cfg, chip, code, disc, pool),
        None => CycleEngine::<R, _>::new(cfg, chip, code, disc),
    };
    let label = variant_label::<R>(&format!("d{DISTANCE}"), pool);
    engine.set_telemetry(EngineTelemetry::registered(
        &registry.scope(&[("engine", label.as_str())]),
    ));
    // Pooled variants get per-worker instrumentation for the flight
    // recorder (a generous ring so the whole run fits). The warm-up fan-out
    // is barrier-synchronized — every thread claims exactly one task — so
    // with telemetry already attached each background worker
    // deterministically records at least one span, however the measured
    // cycles themselves get scheduled.
    let pool_telem = pool.map(|p| {
        let t = Arc::new(PoolTelemetry::with_span_capacity(p.threads(), 1 << 16));
        p.set_telemetry(Some(Arc::clone(&t)));
        p.warm_up();
        t
    });
    let _ = engine.run_cycles(CYCLES);
    if let Some(p) = pool {
        p.set_telemetry(None);
    }
    sink.drain_engine(&label, engine.telemetry(), pool_telem.as_deref());
    eprintln!(
        "[bench_stream] {label}: {CYCLES} cycles, {} logical errors",
        engine.stats().logical_errors
    );
}

/// Runs the drift → detect → hot-swap → recover scenario (the same recipe
/// `crates/stream/tests/drift.rs` pins): calibrate clean on the two-channel
/// chip at d = 3, step both readout clouds by 0.3 of their ground/excited
/// separation, then stream adaptively until the monitor re-baselines.
///
/// The engine and the demo SLO alert set register on `registry` under the
/// variant's `engine` label, and each rule reads only that label's series,
/// so the other engines in the registry can neither fire nor hold its
/// alerts. The [`AlertEngine`] is evaluated after every cycle, and once the
/// engine has recovered the scenario keeps streaming quiet cycles until
/// every alert has cleared. Returns the variant's label.
///
/// # Panics
///
/// Panics unless the monitor detects the drift, a hot-swap re-baselines it
/// to `Nominal`, at least one demo alert fires and every alert clears.
fn run_drift<R: Real>(
    registry: &Registry,
    pool: Option<&ShardPool>,
    sink: &mut TraceSink,
) -> String {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let mf = train_mf_discriminator(&chip, SHOTS, SEED);
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
        seed: SEED,
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

    // The demo SLO alert set, narrowed to this engine's series and
    // evaluated once per cycle against fresh registry snapshots. The engine
    // label is appended rather than set with `with_labels`, which replaces
    // the label set and would take `decode_p99_high` off `stage="decode"`.
    let label = variant_label::<R>("drift", pool);
    let scope = registry.scope(&[("engine", label.as_str())]);
    engine.set_telemetry(EngineTelemetry::registered(&scope));
    let rules = demo_alert_rules()
        .into_iter()
        .map(|mut rule| {
            rule.labels.push(("engine".to_string(), label.clone()));
            rule
        })
        .collect();
    let mut alerts = AlertEngine::registered(rules, &scope);

    // Clean calibration phase.
    let _ = engine.run_cycles_adaptive(40);
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
    for _ in 0..400 {
        let r = engine.run_cycle_adaptive();
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
    let detect = detect_round.unwrap_or_else(|| panic!("{label}: drift never detected"));
    let recover = recover_round.unwrap_or_else(|| {
        panic!(
            "{label}: no recovery (a hot-swap, then Nominal) after detecting {} rounds past \
             onset ({} hot-swaps)",
            detect - onset,
            engine.stats().hot_swaps
        )
    });

    // Post-recovery: stream quiet cycles until every alert's clear debounce
    // has run down (the demo set's longest is 6 evaluations).
    for _ in 0..40 {
        if alerts.firing() == 0 {
            break;
        }
        let _ = engine.run_cycle_adaptive();
        alerts.evaluate(&registry.snapshot());
    }
    let (alerts_fired, alerts_cleared) = alerts
        .statuses()
        .iter()
        .fold((0, 0), |acc, s| (acc.0 + s.fired, acc.1 + s.cleared));
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

    // Flight-recorder export: the drift variant's stage spans and point
    // events, plus the alert fire/clear points, on the same track.
    let pid = sink.alloc_pid(&label);
    sink.chrome
        .add_spans(pid, 0, &engine.telemetry().spans().snapshot());
    sink.chrome.add_spans(pid, 0, &alerts.trace().snapshot());

    eprintln!(
        "[bench_stream] {label}: detect {} rounds | recover {} rounds | {} hot-swaps | \
         {} degraded decodes | {alerts_fired} alerts fired, {alerts_cleared} cleared",
        detect - onset,
        recover - onset,
        engine.stats().hot_swaps,
        engine.stats().degraded_decodes,
    );
    label
}

/// Asserts that the exported counter `family` reads ≥ 1 on every engine in
/// `labels` — the exposition, not just the engine's own stats, must show
/// the robustness loop.
fn assert_exported_at_least_one(registry: &Registry, family: &str, labels: &[String]) {
    let snapshot = registry.snapshot();
    for label in labels {
        let value = snapshot.metrics.iter().find_map(|m| match m.value {
            MetricValue::Counter(v)
                if m.name == family
                    && m.labels.iter().any(|(k, l)| k == "engine" && l == label) =>
            {
                Some(v)
            }
            _ => None,
        });
        assert!(
            value.is_some_and(|v| v >= 1),
            "{label}: exported {family} is {value:?}, expected ≥ 1"
        );
    }
}

fn main() {
    let args = parse_args();

    let chip = ChipConfig::five_qubit_default();
    eprintln!("[bench_stream] training mf discriminator ({SHOTS} shots/state)…");
    let disc = train_mf_discriminator(&chip, SHOTS, SEED);
    let code = RotatedSurfaceCode::new(DISTANCE);

    // One registry spans the telemetry and drift variants; each registers
    // its histograms and counters under a distinguishing `engine=…` label,
    // so the exports at the end expose the full matrix in one scrape.
    let registry = Registry::new();
    let pool = ShardPool::new(POOL_THREADS);
    let mut sink = TraceSink::new();
    for p in [None, Some(&pool)] {
        run_variant::<f64>(&disc, &chip, &code, &registry, p, &mut sink);
        run_variant::<f32>(&disc, &chip, &code, &registry, p, &mut sink);
    }
    eprintln!("[bench_stream] drift scenario (inject → detect → hot-swap → recover)…");
    let mut drift_labels = Vec::new();
    for p in [None, Some(&pool)] {
        drift_labels.push(run_drift::<f64>(&registry, p, &mut sink));
        drift_labels.push(run_drift::<f32>(&registry, p, &mut sink));
    }
    for family in [
        "herqles_hot_swaps_total",
        "herqles_health_transitions_total",
    ] {
        assert_exported_at_least_one(&registry, family, &drift_labels);
    }

    let trace_body = sink.chrome.to_json();
    if let Some(path) = &args.trace_json {
        std::fs::write(path, &trace_body).expect("write trace JSON");
        eprintln!(
            "[bench_stream] wrote Chrome trace ({} events) to {path} — load it in \
             Perfetto or chrome://tracing",
            sink.chrome.event_count()
        );
    }
    let metrics = registry.snapshot().to_prometheus_text();
    match args.serve_text {
        ServeText::Off => {}
        ServeText::Stdout => print!("{metrics}"),
        ServeText::Addr(addr) => serve_metrics(&addr, &metrics, &trace_body),
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
