//! The `readout_batch` workload: the paper's `mf-rmf-nn` design, `f64`,
//! classifying a fixed synthesized test set of the five-qubit chip in calls
//! of [`BATCH`] shots through `discriminate_shot_batch`.
//!
//! Reference: the per-shot `Discriminator::discriminate` labels of every
//! test shot, computed during set-up; a call fails if any of its labels
//! differs. The traced run splits the same discrimination into the fused
//! filter-bank features (`FusedFilterKernel::features_batch`) and the
//! network head (standardization + `Mlp::predict_rows`).

use std::time::{Duration, Instant};

use herqles_core::designs::NnDiscriminator;
use herqles_core::{Discriminator, FusedFilterKernel, ReadoutTrainer};
use herqles_exec::stream_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use readout_dsp::Demodulator;
use readout_nn::{Matrix, Standardizer};
use readout_sim::{BasisState, ChipConfig, Dataset, ShotBatch};

use crate::report::{median_secs, peak_rss_mib, time_setups, Replays, Report, REPLAYS};
use crate::trace::{self, Tracer};
use crate::RunArgs;

/// Shots per `discriminate_shot_batch` call.
pub const BATCH: usize = 1024;
/// Test shots per basis state (32 states: 8 calls of [`BATCH`]).
const TEST_SHOTS_PER_STATE: usize = 256;
/// Calibration set: fixed, so the workload seed moves only the test set.
const CAL_SHOTS_PER_STATE: usize = 100;
const CAL_SEED: u64 = 42;
const CAL_TRAIN_FRACTION: f64 = 0.5;
/// Datasets are synthesized on one thread: cross-core wake-ups on a shared
/// box make a threaded set-up's time far noisier.
const GEN_THREADS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Calls the traced split times, at least.
const TRACED_CALLS: usize = 100;

/// Trained design, packed test calls and their reference labels.
struct Fixture {
    chip: ChipConfig,
    calibration: Dataset,
    train_idx: Vec<usize>,
    disc: NnDiscriminator,
    batches: Vec<ShotBatch>,
    /// Per-shot reference labels, one vector per call.
    reference: Vec<Vec<BasisState>>,
    /// Prepared states, one vector per call.
    prepared: Vec<Vec<BasisState>>,
    train_s: f64,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let chip = ChipConfig::five_qubit_default();
        let t = Instant::now();
        let calibration =
            Dataset::generate_with_threads(&chip, CAL_SHOTS_PER_STATE, CAL_SEED, GEN_THREADS);
        let split = calibration.split(CAL_TRAIN_FRACTION, 0.0, CAL_SEED);
        let disc = ReadoutTrainer::new(&calibration, &split.train).train_nn(true);
        let train_s = t.elapsed().as_secs_f64();

        let test = Dataset::generate_with_threads(&chip, TEST_SHOTS_PER_STATE, seed, GEN_THREADS);
        let mut order: Vec<usize> = (0..test.shots.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(stream_seed(seed, 1)));
        let mut batches = Vec::new();
        let mut reference = Vec::new();
        let mut prepared = Vec::new();
        for call in order.chunks(BATCH) {
            batches.push(ShotBatch::from_dataset(&test, call));
            reference.push(
                call.iter()
                    .map(|&i| disc.discriminate(&test.shots[i].raw))
                    .collect(),
            );
            prepared.push(call.iter().map(|&i| test.shots[i].prepared).collect());
        }
        Fixture {
            chip,
            calibration,
            train_idx: split.train,
            disc,
            batches,
            reference,
            prepared,
            train_s,
        }
    }
}

/// Runs the readout workload into `report`.
pub fn run(args: &RunArgs, report: &mut Report) {
    let throwaway = || drop(Fixture::new(args.seed));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    time_setups(SETUP_REPS / 2, &mut setup_s, throwaway);
    let t = Instant::now();
    let fx = Fixture::new(args.seed);
    setup_s.push(t.elapsed().as_secs_f64());

    // Timed phase: a closed loop over a sequence of calls, replayed. Call
    // i classifies packed batch i mod n_batches.
    let mut timings = Replays::new();
    for replay in 0..REPLAYS {
        let start = Instant::now();
        let mut i = 0;
        while timings.wants_more(replay, start, args.seconds, i) {
            let batch = i % fx.batches.len();
            let t = Instant::now();
            let labels = fx.disc.discriminate_shot_batch(&fx.batches[batch]);
            timings.record(i, t.elapsed().as_nanos() as u64);
            report.attempted += 1;
            if labels != fx.reference[batch] {
                report.failed += 1;
            }
            i += 1;
        }
        timings.wall_s += start.elapsed().as_secs_f64();
    }
    let peak_rss = peak_rss_mib();
    time_setups(SETUP_REPS - SETUP_REPS / 2 - 1, &mut setup_s, throwaway);
    timings.report(report, "shots_per_s", "call", BATCH as f64);

    // Accuracy of the design's labels; a call's labels equal the reference
    // unless the call failed.
    let n_test = (fx.batches.len() * BATCH) as f64;
    let mut joint = 0usize;
    let mut per_qubit = vec![0usize; fx.chip.n_qubits()];
    for (labels, prepared) in fx
        .reference
        .iter()
        .flatten()
        .zip(fx.prepared.iter().flatten())
    {
        joint += usize::from(labels == prepared);
        for (q, hits) in per_qubit.iter_mut().enumerate() {
            *hits += usize::from(labels.qubit(q) == prepared.qubit(q));
        }
    }
    let accuracy = joint as f64 / n_test;
    println!(
        "readout_accuracy {accuracy:.6} ({joint}/{n_test} shots with the prepared joint label)"
    );
    // The paper's F5Q: geometric mean of the per-qubit accuracies.
    let f5q = per_qubit
        .iter()
        .map(|&h| (h as f64 / n_test).ln())
        .sum::<f64>()
        / per_qubit.len() as f64;
    println!("per-qubit accuracy geometric mean (F5Q) {:.6}", f5q.exp());
    report.e2e("error_rate", 1.0 - accuracy, "ratio");
    report.e2e("peak_rss_mib", peak_rss, "MiB");
    report.e2e("setup_s", median_secs(&setup_s), "s");
    report.layer("core.train_s", fx.train_s, "s");
    if args.traced {
        traced(&fx, args, report);
    }
}

/// The traced split: fused features, then the network head, per call.
fn traced(fx: &Fixture, args: &RunArgs, report: &mut Report) {
    let demod = Demodulator::new(&fx.chip);
    let kernel: FusedFilterKernel = FusedFilterKernel::new(&demod, fx.disc.bank());
    // The design keeps its standardizer private; refit it exactly as the
    // trainer does, on the training shots' filter-bank features.
    let train_features: Vec<Vec<f64>> = fx
        .train_idx
        .iter()
        .map(|&i| {
            let traces = demod.demodulate(&fx.calibration.shots[i].raw);
            fx.disc.bank().features(&traces)
        })
        .collect();
    let standardizer = Standardizer::fit(&train_features);
    let mut tracer = Tracer::new();
    let mut features = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds / REPLAYS as f64);
    let mut calls = 0usize;
    let mut i = 0;
    let start = Instant::now();
    while !crate::done(start, budget, calls, TRACED_CALLS) {
        let batch = &fx.batches[i];
        tracer.arg = i as u64;
        tracer.span(trace::FEATURES, || {
            kernel.features_batch(batch, &mut features)
        });
        let labels = tracer.span(trace::HEAD, || {
            standardizer.transform_rows_inplace(&mut features);
            let x = Matrix::from_vec(
                batch.n_shots(),
                kernel.n_features(),
                std::mem::take(&mut features),
            );
            fx.disc.network().predict_rows(&x)
        });
        if labels
            .iter()
            .zip(&fx.reference[i])
            .any(|(&l, r)| BasisState::new(l as u32) != *r)
        {
            report.sound = false;
        }
        calls += 1;
        i = (i + 1) % fx.batches.len();
    }
    for (layer, name) in [
        (trace::FEATURES, "core.fused.features_ns"),
        (trace::HEAD, "nn.head_ns"),
    ] {
        let samples = tracer.samples(layer);
        println!("{name}: {}", samples.describe(1e3, "us"));
        report.layer(name, samples.p50() as f64, "ns");
    }
    crate::write_trace(&tracer, args, None);
}
