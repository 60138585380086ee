//! The `decode_corpus` workload: the decoder alone, on a fixed corpus.
//!
//! The corpus is generated from the workload seed by
//! `SyndromeBlock::simulate` (phenomenological noise), so neither synthesis
//! nor discrimination code runs and a change to `sim` or `core` cannot
//! change the decoder's inputs. Every block goes through
//! `decode_block_with` on a warm `DecodeScratch::prewarmed` per distance.
//! Reference: the exact subset-DP oracle (`decode_block_exact`) on every
//! block it can handle, computed during set-up; every later decode of a
//! block must also repeat its first outcome.

use std::time::{Duration, Instant};

use herqles_exec::stream_seed;
use herqles_telemetry::now_ns;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use surface_code::{
    decode_block_exact, decode_block_uf, decode_block_with, DecodeOutcome, DecodeScratch,
    NoiseParams, RotatedSurfaceCode, SyndromeBlock, EXACT_DISPATCH_LIMIT, EXACT_MATCHING_LIMIT,
};

use crate::report::{median_secs, peak_rss_mib, time_setups, Replays, Report, Samples};
use crate::trace::{self, Tracer};
use crate::RunArgs;

/// Code distances of the corpus; every block has `rounds = d`.
pub const DISTANCES: [usize; 4] = [5, 7, 9, 11];

/// The corpus's two noise points: `(label, p_data, p_meas)`.
pub const NOISE_POINTS: [(&str, f64, f64); 2] = [
    // Mostly handled by the exact-DP dispatch.
    ("sparse", 4e-3, 1e-2),
    // Mean events per block at d = 5 matches stream_d5's traced
    // qec.decode.events_per_block (see BENCHMARK.json).
    ("dense", 4e-3, 8e-2),
];

/// Blocks per (distance, noise point).
const BLOCKS_PER_CELL: usize = 2048;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed passes over the corpus (see [`Replays`]).
const MIN_PASSES: usize = 3;

/// One corpus entry.
struct Entry {
    /// Index into [`DISTANCES`].
    d_index: usize,
    /// Index into [`NOISE_POINTS`].
    p_index: usize,
    block: SyndromeBlock,
    /// The exact oracle's verdict, when the block is within its ceiling.
    exact_logical_error: Option<bool>,
}

/// The generated corpus plus one warm scratch per distance.
struct Corpus {
    codes: Vec<RotatedSurfaceCode>,
    scratches: Vec<DecodeScratch>,
    entries: Vec<Entry>,
    graph_build_ns: f64,
}

impl Corpus {
    fn new(seed: u64) -> Self {
        let codes: Vec<RotatedSurfaceCode> = DISTANCES
            .iter()
            .map(|&d| RotatedSurfaceCode::new(d))
            .collect();
        let graph_build_ns = codes
            .iter()
            .map(|code| crate::stream::graph_build_ns(code, code.distance()))
            .sum();
        let mut scratches: Vec<DecodeScratch> = codes
            .iter()
            .map(|code| DecodeScratch::prewarmed(code, code.distance()))
            .collect();
        let mut entries =
            Vec::with_capacity(DISTANCES.len() * NOISE_POINTS.len() * BLOCKS_PER_CELL);
        for (d_index, code) in codes.iter().enumerate() {
            for (p_index, &(_, p_data, p_meas)) in NOISE_POINTS.iter().enumerate() {
                let noise = NoiseParams {
                    data_error_prob: p_data,
                    meas_error_prob: p_meas,
                };
                let cell = (d_index * NOISE_POINTS.len() + p_index) as u64;
                let mut rng = StdRng::seed_from_u64(stream_seed(seed, cell));
                for _ in 0..BLOCKS_PER_CELL {
                    let block = SyndromeBlock::simulate(code, &noise, code.distance(), &mut rng);
                    let exact_logical_error =
                        (block.events.len() <= EXACT_MATCHING_LIMIT).then(|| {
                            decode_block_exact(code, &block, &mut scratches[d_index]).logical_error
                        });
                    entries.push(Entry {
                        d_index,
                        p_index,
                        block,
                        exact_logical_error,
                    });
                }
            }
        }
        // Interleave distances and noise points in a seeded order, so the
        // decoder sees a mixed stream rather than one cell at a time.
        entries.shuffle(&mut StdRng::seed_from_u64(stream_seed(seed, u64::MAX)));
        Corpus {
            codes,
            scratches,
            entries,
            graph_build_ns,
        }
    }

    fn decode(&mut self, i: usize) -> DecodeOutcome {
        let e = &self.entries[i];
        decode_block_with(
            &self.codes[e.d_index],
            &e.block,
            &mut self.scratches[e.d_index],
        )
    }
}

/// Runs the corpus workload into `report`.
pub fn run(args: &RunArgs, report: &mut Report) {
    let throwaway = || drop(Corpus::new(args.seed));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    time_setups(SETUP_REPS / 2, &mut setup_s, throwaway);
    let t = Instant::now();
    let mut corpus = Corpus::new(args.seed);
    setup_s.push(t.elapsed().as_secs_f64());
    let n_blocks = corpus.entries.len();
    println!(
        "corpus: {n_blocks} blocks, d in {DISTANCES:?} (rounds = d), {BLOCKS_PER_CELL} per (d, noise point)"
    );

    // Timed phase: whole passes over the corpus, one decode per block, at
    // least MIN_PASSES of them. Each pass replays the same decodes.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut first: Vec<Option<DecodeOutcome>> = vec![None; n_blocks];
    let mut timings = Replays::new();
    let mut tracer = Tracer::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes < MIN_PASSES || !crate::done(start, budget, timings.samples(), 0) {
        for (i, first) in first.iter_mut().enumerate() {
            let begin = now_ns();
            let outcome = corpus.decode(i);
            let ns = now_ns() - begin;
            timings.record(i, ns);
            if args.traced {
                tracer.arg = i as u64;
                tracer.record(trace::DECODE, begin, ns);
            }
            report.attempted += 1;
            let wrong_exact = corpus.entries[i]
                .exact_logical_error
                .is_some_and(|want| want != outcome.logical_error);
            if wrong_exact || *first.get_or_insert(outcome) != outcome {
                report.failed += 1;
            }
        }
        passes += 1;
    }
    timings.wall_s = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib();
    time_setups(SETUP_REPS - SETUP_REPS / 2 - 1, &mut setup_s, throwaway);

    // Whole-corpus facts, from each block's first decode.
    let outcomes: Vec<DecodeOutcome> = first
        .iter()
        .map(|o| o.expect("every block decoded"))
        .collect();
    let logical_errors = outcomes.iter().filter(|o| o.logical_error).count();
    let events: usize = outcomes.iter().map(|o| o.n_events).sum();
    let uf_blocks = outcomes
        .iter()
        .filter(|o| o.n_events > EXACT_DISPATCH_LIMIT)
        .count();

    let error_rate = logical_errors as f64 / n_blocks as f64;
    timings.report(report, "blocks_per_s", "block", 1.0);
    println!("corpus logical error share {error_rate:.6} ({logical_errors}/{n_blocks})");
    report.e2e("error_rate", error_rate, "ratio");
    report.e2e("peak_rss_mib", peak_rss, "MiB");
    report.e2e("setup_s", median_secs(&setup_s), "s");

    report.layer(
        "qec.decode.events_per_block",
        events as f64 / n_blocks as f64,
        "count",
    );
    report.layer(
        "qec.decode.uf_share",
        uf_blocks as f64 / n_blocks as f64,
        "ratio",
    );
    report.layer("qec.graph.build_ns", corpus.graph_build_ns, "ns");
    for (p_index, &(label, p_data, p_meas)) in NOISE_POINTS.iter().enumerate() {
        let at_d5: Vec<usize> = corpus
            .entries
            .iter()
            .filter(|e| e.d_index == 0 && e.p_index == p_index)
            .map(|e| e.block.events.len())
            .collect();
        println!(
            "{label} point (p_data {p_data}, p_meas {p_meas}): {:.3} events/block at d=5",
            at_d5.iter().sum::<usize>() as f64 / at_d5.len() as f64
        );
    }
    if !args.traced {
        return;
    }
    // The traced split keeps the timed phase's statistic: each block's
    // fastest decode.
    let mut decode = Samples::from_ns(timings.best());
    let mut per_d: Vec<Samples> = vec![Samples::default(); DISTANCES.len()];
    for (entry, &ns) in corpus.entries.iter().zip(timings.best()) {
        per_d[entry.d_index].push(ns);
    }
    println!("qec.decode (fastest pass): {}", decode.describe(1.0, "ns"));
    report.layer("qec.decode_ns.p50", decode.p50() as f64, "ns");
    report.layer("qec.decode_ns.p99", decode.p99(1.0), "ns");
    for (samples, d) in per_d.iter_mut().zip(DISTANCES) {
        println!(
            "qec.decode d={d} (fastest pass): {}",
            samples.describe(1.0, "ns")
        );
        report.layer(&format!("qec.decode.d{d}.p99_ns"), samples.p99(1.0), "ns");
    }
    // Both decoders on the same inputs, MIN_PASSES passes each: the exact
    // oracle on every block it can take, union-find on every block.
    for (layer, name) in [(trace::DECODE_EXACT, "exact"), (trace::DECODE_UF, "uf")] {
        let mut fastest = Replays::new();
        for _ in 0..MIN_PASSES {
            let mut op = 0;
            for (i, e) in corpus.entries.iter().enumerate() {
                if layer == trace::DECODE_EXACT && e.exact_logical_error.is_none() {
                    continue;
                }
                let (code, scratch) = (&corpus.codes[e.d_index], &mut corpus.scratches[e.d_index]);
                tracer.arg = i as u64;
                let begin = now_ns();
                let outcome = if layer == trace::DECODE_EXACT {
                    decode_block_exact(code, &e.block, scratch)
                } else {
                    decode_block_uf(code, &e.block, scratch)
                };
                let ns = now_ns() - begin;
                tracer.record(layer, begin, ns);
                fastest.record(op, ns);
                op += 1;
                if e.exact_logical_error
                    .is_some_and(|want| want != outcome.logical_error)
                {
                    report.sound = false;
                }
            }
        }
        let mut samples = Samples::from_ns(fastest.best());
        println!(
            "qec.decode.{name} (fastest pass): {}",
            samples.describe(1.0, "ns")
        );
        report.layer(
            &format!("qec.decode.{name}_ns.p50"),
            samples.p50() as f64,
            "ns",
        );
        report.layer(&format!("qec.decode.{name}_ns.p99"), samples.p99(1.0), "ns");
    }
    crate::write_trace(&tracer, args, None);
}
