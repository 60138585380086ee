//! Metric collection, percentile honesty and the result printout.
//!
//! Every timing is summarized as a median plus the highest percentile its
//! sample count supports (at least ten samples beyond it), always with its
//! `n`. The final line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A p99 is reported only from this many samples on, so that at least ten
/// samples lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Timing samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn from_ns(ns: &[u64]) -> Self {
        Samples {
            ns: ns.to_vec(),
            sorted: false,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sum(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile `q` in `(0, 1]`; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> u64 {
        self.sort();
        if self.ns.is_empty() {
            return 0;
        }
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1]
    }

    pub fn p50(&mut self) -> u64 {
        self.quantile(0.5)
    }

    /// The p99 divided by `scale`, or NaN (reported as 0) when fewer than
    /// [`P99_MIN_SAMPLES`] samples back it.
    pub fn p99(&mut self, scale: f64) -> f64 {
        if self.len() >= P99_MIN_SAMPLES {
            self.quantile(0.99) as f64 / scale
        } else {
            f64::NAN
        }
    }

    /// "p50 X, pNN Y (n=N)" with the highest supported percentile; the max
    /// is never relabelled as a percentile.
    pub fn describe(&mut self, scale: f64, unit: &str) -> String {
        let n = self.len();
        let p50 = self.p50() as f64 / scale;
        let tail = [(0.99, "p99", 1000), (0.9, "p90", 100)]
            .into_iter()
            .find(|&(_, _, min)| n >= min)
            .map(|(q, label, _)| format!(", {label} {:.3} {unit}", self.quantile(q) as f64 / scale))
            .unwrap_or_default();
        format!("p50 {p50:.3} {unit}{tail} (n={n})")
    }
}

/// Replays of a timed operation sequence whose length is set by the first
/// replay (the stream and readout workloads).
pub const REPLAYS: usize = 5;

/// Latencies of one fixed sequence of operations, replayed several times
/// on identical inputs.
///
/// Interference from outside the process only ever adds time, so each
/// operation's *fastest* replay is the steadiest estimate of its cost
/// (Chen & Revels, "Robust benchmarking in noisy environments",
/// arXiv:1608.04295). The end-to-end timings are computed from those
/// per-operation minima; every raw sample is kept for the printout.
#[derive(Debug, Clone)]
pub struct Replays {
    best: Vec<u64>,
    all: Samples,
    /// Wall time of all replays together, in seconds.
    pub wall_s: f64,
}

impl Replays {
    pub fn new() -> Self {
        Replays {
            best: Vec::new(),
            all: Samples::with_capacity(1 << 14),
            wall_s: 0.0,
        }
    }

    /// Records one replay of operation `op`.
    pub fn record(&mut self, op: usize, ns: u64) {
        if op == self.best.len() {
            self.best.push(ns);
        } else {
            self.best[op] = self.best[op].min(ns);
        }
        self.all.push(ns);
    }

    /// Distinct operations in the sequence.
    pub fn ops(&self) -> usize {
        self.best.len()
    }

    /// Whether replay `replay` (of [`REPLAYS`], from 0), which started at
    /// `start` and has timed `done` operations, should time another. The
    /// first replay runs for its share of the run's `seconds` and to at
    /// least [`P99_MIN_SAMPLES`] operations, which fixes the sequence; later
    /// replays repeat exactly that sequence.
    pub fn wants_more(&self, replay: usize, start: Instant, seconds: f64, done: usize) -> bool {
        if replay == 0 {
            let budget = Duration::from_secs_f64(seconds / REPLAYS as f64);
            !crate::done(start, budget, done, P99_MIN_SAMPLES)
        } else {
            done < self.best.len()
        }
    }

    /// Each operation's fastest replay, in operation order.
    pub fn best(&self) -> &[u64] {
        &self.best
    }

    /// Samples recorded over all replays.
    pub fn samples(&self) -> usize {
        self.all.len()
    }

    /// Prints the timings and records the end-to-end `throughput_per_s`
    /// (`items_per_op` items per operation) and `latency_p50_us`, both from
    /// the per-operation minima. The p99 is printed, not gated: see
    /// `METRICS.md`. `rate` and `op` name the workload's own quantities in
    /// the printout.
    pub fn report(&mut self, report: &mut Report, rate: &str, op: &str, items_per_op: f64) {
        let mut best = Samples::from_ns(&self.best);
        let replays = self.all.len() as f64 / self.best.len() as f64;
        let best_total_s = best.sum() as f64 / 1e9;
        let throughput = self.best.len() as f64 * items_per_op / best_total_s;
        let wall_rate = self.all.len() as f64 * items_per_op / self.wall_s;
        println!(
            "{rate} {throughput:.3} 1/s from each {op}'s fastest of {replays:.1} replays \
             ({} {op}s); wall-clock rate over all replays {wall_rate:.3} 1/s",
            self.best.len()
        );
        println!("{op} latency, fastest replay: {}", best.describe(1e3, "us"));
        println!(
            "{op} latency, every replay: {}",
            self.all.describe(1e3, "us")
        );
        report.e2e("throughput_per_s", throughput, "1/s");
        report.e2e("latency_p50_us", best.p50() as f64 / 1e3, "us");
    }
}

/// One named metric of the final JSON object.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one run reports: human-readable lines, the end-to-end and per-layer
/// metrics, and the correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Operations whose output was checked against the reference.
    pub attempted: u64,
    /// Checked operations whose output disagreed with the reference.
    pub failed: u64,
    /// Cleared by any failed invariant that is not a per-operation check.
    pub sound: bool,
}

impl Report {
    pub fn new() -> Self {
        Report {
            sound: true,
            ..Report::default()
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Prints the metric tables and the closing JSON line: the end-to-end
    /// metrics untraced, the per-layer metrics traced. `per_layer` lists
    /// every per-layer metric in output order; one the workload did not
    /// record reads 0 (its layer is not exercised).
    pub fn finish(&self, traced: bool, per_layer: &[(&str, &'static str)]) {
        for m in &self.per_layer {
            assert!(
                per_layer
                    .iter()
                    .any(|&(name, unit)| name == m.name && unit == m.unit),
                "per-layer metric {} [{}] is not in the published list",
                m.name,
                m.unit
            );
        }
        let per_layer: Vec<Metric> = per_layer
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: self
                    .per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
                unit,
            })
            .collect();
        let failure_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failure_rate {failure_rate:.6} ({} of {} checked operations disagreed with the reference)",
            self.failed, self.attempted
        );
        let table = |title: &str, metrics: &[Metric]| {
            println!("{title}:");
            for m in metrics {
                println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
            }
        };
        table("end-to-end", &self.end_to_end);
        if traced {
            table("per-layer (traced run)", &per_layer);
        }
        let metrics = if traced { &per_layer } else { &self.end_to_end };
        let mut json = String::from("{");
        let correct = self.sound && self.failed == 0 && self.attempted > 0;
        let _ = write!(
            json,
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Times `reps` throwaway set-ups into `secs`. A workload runs about half
/// of its set-ups before the timed phase and the rest after it, so that the
/// median `setup_s` samples the box at more than one moment of the run.
pub fn time_setups(reps: usize, secs: &mut Vec<f64>, mut setup: impl FnMut()) {
    for _ in 0..reps {
        let t = Instant::now();
        setup();
        secs.push(t.elapsed().as_secs_f64());
    }
}

/// Median of a non-empty slice of seconds.
pub fn median_secs(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}
