//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_d5|stream_d7_pool2|decode_corpus|readout_batch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up several times (reporting the median as
//! `setup_s`), measures a closed loop for `--seconds`, checks every output
//! against a reference, prints every metric by name with its unit and
//! sample count, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! `BENCHMARK.json` at the repository root records why each workload and
//! metric exists.

mod corpus;
mod readout;
mod report;
mod stream;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use herqles_exec::PoolTelemetry;

use report::Report;
use trace::Tracer;

/// Every per-layer metric, in output order, with its unit. A traced run
/// prints all of them; a layer its workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("stream.synth_ns", "ns"),
    ("stream.synth_rows", "count"),
    ("core.discriminate_ns", "ns"),
    ("qec.syndrome.prologue_ns", "ns"),
    ("qec.syndrome.commit_ns", "ns"),
    ("stream.health_ns", "ns"),
    ("qec.syndrome.write_ns", "ns"),
    ("stream.cycle.self_ns", "ns"),
    ("qec.decode_ns.p50", "ns"),
    ("qec.decode_ns.p99", "ns"),
    ("qec.decode.events_per_block", "count"),
    ("qec.decode.uf_share", "ratio"),
    ("qec.decode.exact_ns.p50", "ns"),
    ("qec.decode.exact_ns.p99", "ns"),
    ("qec.decode.uf_ns.p50", "ns"),
    ("qec.decode.uf_ns.p99", "ns"),
    ("qec.decode.d5.p99_ns", "ns"),
    ("qec.decode.d7.p99_ns", "ns"),
    ("qec.decode.d9.p99_ns", "ns"),
    ("qec.decode.d11.p99_ns", "ns"),
    ("qec.window.advance_ns", "ns"),
    ("qec.window.finish_ns", "ns"),
    ("exec.pool.w0.busy_share", "ratio"),
    ("exec.pool.w1.busy_share", "ratio"),
    ("exec.pool.w0.tasks_per_cycle", "count"),
    ("exec.pool.w1.tasks_per_cycle", "count"),
    ("exec.pool.caller_wait_ns", "ns"),
    ("qec.graph.build_ns", "ns"),
    ("core.train_s", "s"),
    ("core.fused.features_ns", "ns"),
    ("nn.head_ns", "ns"),
    ("telemetry.overhead", "ratio"),
];

const WORKLOADS: [&str; 4] = [
    "stream_d5",
    "stream_d7_pool2",
    "decode_corpus",
    "readout_batch",
];

/// A replay never runs past this, whatever its sample count, so that even a
/// starved run (five replays plus its reference) ends within 180 s.
const HARD_CAP: Duration = Duration::from_secs(20);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        traced: traced.unwrap_or(false),
    })
}

/// Whether a timed phase that started at `start` is over: its time budget
/// is spent and it has `min_samples` samples — or it hit [`HARD_CAP`].
pub fn done(start: Instant, budget: Duration, samples: usize, min_samples: usize) -> bool {
    let elapsed = start.elapsed();
    (elapsed >= budget && samples >= min_samples) || elapsed >= HARD_CAP
}

/// Writes the traced run's spans as a Chrome trace under `.bench_out/`.
pub fn write_trace(tracer: &Tracer, args: &RunArgs, pool: Option<&PoolTelemetry>) {
    let stem = format!("{}-seed{}", args.workload, args.seed);
    match tracer.write_chrome(Path::new(".bench_out"), &stem, pool) {
        Ok(path) => println!("chrome trace: {}", path.display()),
        Err(e) => println!("chrome trace not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} seconds {} trace {} | kernel backend {} | noise backend {} | cores {cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        herqles_num::active_kernel_name(),
        herqles_num::active_noise_kernel_name(),
    );
    let mut report = Report::new();
    match args.workload.as_str() {
        "stream_d5" => stream::run(&stream::STREAM_D5, &args, &mut report),
        "stream_d7_pool2" => stream::run(&stream::STREAM_D7_POOL2, &args, &mut report),
        "decode_corpus" => corpus::run(&args, &mut report),
        "readout_batch" => readout::run(&args, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    report.finish(args.traced, PER_LAYER);
    ExitCode::SUCCESS
}
