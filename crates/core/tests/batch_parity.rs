//! Parity: the batched (fused-kernel) inference path must agree with the
//! per-shot path for every design.
//!
//! * `centroid` and `mf`-threshold decisions are compared shot by shot — the
//!   batched demodulation and MTV accumulation reproduce the per-shot
//!   floating-point operations exactly, so predictions must be identical.
//! * Designs whose features go through the fused `[shots × 2T] · [2T × F]`
//!   matmul (`mf`, `mf-svm`, `mf-nn`, `mf-rmf-*`) may reassociate the sum
//!   over raw samples; feature values are pinned to ≤ 1e-12 relative error
//!   (`fused` module tests) and the discrete predictions must still match.

use herqles_core::designs::DesignKind;
use herqles_core::trainer::{ReadoutTrainer, TrainerConfig};
use herqles_core::{
    evaluate, Discriminator, FilterBank, FusedFilterKernel, PrecisionDiscriminator,
};
use readout_dsp::Demodulator;
use readout_nn::net::TrainConfig;
use readout_sim::trace::IqTrace;
use readout_sim::{ChipConfig, Dataset, ShotBatch};

fn quick_config() -> TrainerConfig {
    TrainerConfig {
        nn_train: TrainConfig {
            epochs: 25,
            ..TrainerConfig::default().nn_train
        },
        baseline_train: TrainConfig {
            epochs: 4,
            ..TrainerConfig::default().baseline_train
        },
        ..TrainerConfig::default()
    }
}

fn trained_designs() -> (Dataset, Vec<usize>, Vec<Box<dyn Discriminator>>) {
    let config = ChipConfig::two_qubit_test();
    let dataset = Dataset::generate(&config, 40, 4321);
    let split = dataset.split(0.5, 0.0, 11);
    let mut trainer = ReadoutTrainer::with_config(&dataset, &split.train, quick_config());
    let designs = DesignKind::ALL.iter().map(|&k| trainer.train(k)).collect();
    (dataset, split.test, designs)
}

#[test]
fn batched_predictions_match_per_shot_for_every_design() {
    let (dataset, test_idx, designs) = trained_designs();
    let batch = ShotBatch::from_dataset(&dataset, &test_idx);
    for disc in &designs {
        let batched = disc.discriminate_shot_batch(&batch);
        assert_eq!(batched.len(), test_idx.len(), "{}", disc.name());
        for (pos, &i) in test_idx.iter().enumerate() {
            let per_shot = disc.discriminate(&dataset.shots[i].raw);
            assert_eq!(
                batched[pos],
                per_shot,
                "{} diverges on shot {i}",
                disc.name()
            );
        }
    }
}

#[test]
fn buffered_batch_discrimination_matches_allocating_path_for_every_design() {
    let (dataset, test_idx, designs) = trained_designs();
    let batch = ShotBatch::from_dataset(&dataset, &test_idx);
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    for disc in &designs {
        let reference = disc.discriminate_shot_batch(&batch);
        // Run twice through the same warm buffers: results must be stable
        // and identical to the allocating entry point.
        for _ in 0..2 {
            PrecisionDiscriminator::<f64>::discriminate_shot_batch_r_into(
                disc.as_ref(),
                &batch,
                &mut scratch,
                &mut out,
            );
            assert_eq!(out, reference, "{} diverges through buffers", disc.name());
        }
    }
}

#[test]
fn trace_slice_batches_route_through_the_same_path() {
    let (dataset, test_idx, designs) = trained_designs();
    let raws: Vec<&IqTrace> = test_idx.iter().map(|&i| &dataset.shots[i].raw).collect();
    let batch = ShotBatch::from_dataset(&dataset, &test_idx);
    for disc in &designs {
        assert_eq!(
            disc.discriminate_batch(&raws),
            disc.discriminate_shot_batch(&batch),
            "{}",
            disc.name()
        );
    }
}

#[test]
fn ragged_batches_fall_back_to_per_shot() {
    let (dataset, test_idx, designs) = trained_designs();
    // One truncated trace makes the batch ragged; duration-agnostic designs
    // must still discriminate it per shot.
    let short = dataset.shots[test_idx[0]].raw.truncated(400);
    let raws = vec![&short, &dataset.shots[test_idx[1]].raw];
    for disc in &designs {
        if disc.name() == "baseline" {
            continue; // welded to the full window by construction
        }
        let out = disc.discriminate_batch(&raws);
        assert_eq!(out[0], disc.discriminate(&short), "{}", disc.name());
        assert_eq!(
            out[1],
            disc.discriminate(&dataset.shots[test_idx[1]].raw),
            "{}",
            disc.name()
        );
    }
}

#[test]
fn uniformly_truncated_batches_match_per_shot() {
    // A uniform shorter-than-window batch exercises every design's
    // "kernel does not match, fall back" branch in one call.
    let (dataset, test_idx, designs) = trained_designs();
    let cut = 300;
    let shorts: Vec<IqTrace> = test_idx
        .iter()
        .take(6)
        .map(|&i| dataset.shots[i].raw.truncated(cut))
        .collect();
    let refs: Vec<&IqTrace> = shorts.iter().collect();
    let batch = ShotBatch::try_from_traces(&refs).unwrap();
    for disc in &designs {
        if disc.name() == "baseline" {
            continue;
        }
        let batched = disc.discriminate_shot_batch(&batch);
        for (pos, short) in shorts.iter().enumerate() {
            assert_eq!(batched[pos], disc.discriminate(short), "{}", disc.name());
        }
    }
}

#[test]
fn evaluate_agrees_with_manual_per_shot_accuracy() {
    let (dataset, test_idx, designs) = trained_designs();
    for disc in &designs {
        let result = evaluate(disc.as_ref(), &dataset, &test_idx);
        let manual = test_idx
            .iter()
            .filter(|&&i| disc.discriminate(&dataset.shots[i].raw) == dataset.shots[i].prepared)
            .count() as f64
            / test_idx.len() as f64;
        assert!(
            (result.state_accuracy() - manual).abs() < 1e-12,
            "{}: batched {} vs per-shot {}",
            disc.name(),
            result.state_accuracy(),
            manual
        );
    }
}

#[test]
fn fused_kernel_feature_parity_with_rmf_bank() {
    // Feature-level parity at the kernel boundary, including interleaved
    // MF/RMF columns: ≤ 1e-12 relative error from matmul reassociation.
    let config = ChipConfig::two_qubit_test();
    let dataset = Dataset::generate(&config, 30, 99);
    let split = dataset.split(0.5, 0.0, 3);
    let mut trainer = ReadoutTrainer::with_config(&dataset, &split.train, quick_config());
    let bank = FilterBank::with_rmfs(
        trainer.matched_filters().to_vec(),
        trainer.relaxation_filters().to_vec(),
    );
    let demod = Demodulator::new(&config);
    let kernel = FusedFilterKernel::new(&demod, &bank);
    let batch = ShotBatch::from_dataset(&dataset, &split.test);
    let mut fused = Vec::new();
    kernel.features_batch(&batch, &mut fused);
    for (pos, &i) in split.test.iter().enumerate() {
        let reference = bank.features(&demod.demodulate(&dataset.shots[i].raw));
        let row = &fused[pos * kernel.n_features()..(pos + 1) * kernel.n_features()];
        for (f, r) in row.iter().zip(&reference) {
            let rel = (f - r).abs() / r.abs().max(1.0);
            assert!(rel <= 1e-12, "shot {i}: fused {f} vs per-shot {r}");
        }
    }
}

#[test]
fn large_batches_match_per_shot_across_the_forward_row_split() {
    // 384 shots per state × 4 states = 1536 rows: every NN design's forward
    // (mf-nn 176, mf-rmf-nn 320, baseline ≥ 6·10⁵ MACs per shot) crosses
    // the matmul's 2^18-MAC parallel threshold, so the batched labels come
    // from row blocks split across threads and walked in 16-row tiles.
    let (_, _, designs) = trained_designs();
    let eval = Dataset::generate(&ChipConfig::two_qubit_test(), 384, 97_531);
    let all: Vec<usize> = (0..eval.shots.len()).collect();
    let batch = ShotBatch::from_dataset(&eval, &all);
    assert!(batch.n_shots() >= 1024);
    let nn_designs = ["mf-nn", "mf-rmf-nn", "baseline"];
    for disc in designs.iter().filter(|d| nn_designs.contains(&d.name())) {
        let batched = disc.discriminate_shot_batch(&batch);
        assert_eq!(batched.len(), all.len(), "{}", disc.name());
        for (i, shot) in eval.shots.iter().enumerate() {
            assert_eq!(
                batched[i],
                disc.discriminate(&shot.raw),
                "{} diverges on evaluation shot {i}",
                disc.name()
            );
        }
    }
}
