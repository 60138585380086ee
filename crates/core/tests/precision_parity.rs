//! f32 ↔ f64 batched-discrimination parity.
//!
//! The precision-generic pipeline promises that `R = f64` is the historical
//! path bit for bit (that pin lives in `batch_parity.rs` and the `_r`
//! delegation test below) and that `R = f32` is *numerically* equivalent:
//! the single-precision fused kernels may round differently, but state
//! assignments flip only for shots sitting within float-epsilon of a
//! decision boundary. These tests pin that agreement at ≥ 99.9 % of shots
//! for every Table 1 design on a seeded dataset.

use herqles_core::designs::DesignKind;
use herqles_core::trainer::{ReadoutTrainer, TrainerConfig};
use herqles_core::{Discriminator, PrecisionDiscriminator};
use readout_nn::TrainConfig;
use readout_sim::{BasisState, ChipConfig, Dataset, ShotBatch};

/// Shots per basis state of the evaluation dataset (2-qubit chip → ×4).
const EVAL_SHOTS_PER_STATE: usize = 500;

fn setup() -> (ReadoutTrainer<'static>, ShotBatch, ShotBatch<f32>) {
    let cfg = ChipConfig::two_qubit_test();
    // The trainer borrows the dataset; leak both so the helper can hand the
    // trainer out by value (test-only, bounded).
    let train_ds: &'static Dataset = Box::leak(Box::new(Dataset::generate(&cfg, 40, 2024)));
    let eval_ds: &'static Dataset =
        Box::leak(Box::new(Dataset::generate(&cfg, EVAL_SHOTS_PER_STATE, 777)));
    let train_idx: Vec<usize> = (0..train_ds.shots.len()).collect();
    let config = TrainerConfig {
        nn_train: TrainConfig {
            epochs: 40,
            ..TrainerConfig::default().nn_train
        },
        baseline_train: TrainConfig {
            epochs: 4,
            ..TrainerConfig::default().baseline_train
        },
        ..TrainerConfig::default()
    };
    let trainer = ReadoutTrainer::with_config(train_ds, &train_idx, config);
    let batch64: ShotBatch = ShotBatch::from_shots(&eval_ds.shots);
    let batch32: ShotBatch<f32> = ShotBatch::from_shots(&eval_ds.shots);
    (trainer, batch64, batch32)
}

/// Pins a design's f32 labels to its f64 labels, and its 0-shot batches to
/// no labels at both precisions.
fn assert_agreement<D: Discriminator + PrecisionDiscriminator<f32>>(
    disc: &D,
    batch64: &ShotBatch,
    batch32: &ShotBatch<f32>,
) {
    // A 0-shot batch yields no labels at either precision, and clears the
    // caller's stale output.
    let empty64: ShotBatch = ShotBatch::with_capacity(0, batch64.n_samples());
    let empty32: ShotBatch<f32> = ShotBatch::with_capacity(0, batch32.n_samples());
    assert!(
        disc.discriminate_shot_batch(&empty64).is_empty(),
        "{}",
        disc.name()
    );
    assert!(
        disc.discriminate_shot_batch_r(&empty32).is_empty(),
        "{}",
        disc.name()
    );
    let mut out = vec![BasisState::new(1)];
    disc.discriminate_shot_batch_into(&empty64, &mut Vec::new(), &mut out);
    assert!(out.is_empty(), "{}: f64 0-shot batch", disc.name());
    out.push(BasisState::new(1));
    disc.discriminate_shot_batch_r_into(&empty32, &mut Vec::new(), &mut out);
    assert!(out.is_empty(), "{}: f32 0-shot batch", disc.name());

    let states64 = disc.discriminate_shot_batch(batch64);
    let states32 = disc.discriminate_shot_batch_r(batch32);
    assert_eq!(states64.len(), states32.len());
    let agree = states64
        .iter()
        .zip(&states32)
        .filter(|(a, b)| a == b)
        .count();
    let frac = agree as f64 / states64.len() as f64;
    assert!(
        frac >= 0.999,
        "{}: f32 agreement {frac:.5} ({agree}/{})",
        disc.name(),
        states64.len()
    );
}

#[test]
fn fused_mf_f32_assignments_agree_with_f64() {
    let (mut trainer, batch64, batch32) = setup();
    let disc = trainer.train_mf();
    assert_agreement(&disc, &batch64, &batch32);
}

#[test]
fn centroid_f32_assignments_agree_with_f64() {
    let (mut trainer, batch64, batch32) = setup();
    let disc = trainer.train_centroid();
    assert_agreement(&disc, &batch64, &batch32);
}

#[test]
fn svm_heads_f32_assignments_agree_with_f64() {
    let (mut trainer, batch64, batch32) = setup();
    for with_rmf in [false, true] {
        let disc = trainer.train_svm(with_rmf);
        assert_agreement(&disc, &batch64, &batch32);
    }
}

#[test]
fn nn_heads_f32_assignments_agree_with_f64() {
    let (mut trainer, batch64, batch32) = setup();
    for with_rmf in [false, true] {
        let disc = trainer.train_nn(with_rmf);
        assert_agreement(&disc, &batch64, &batch32);
    }
}

#[test]
fn baseline_f32_assignments_agree_with_f64() {
    let (mut trainer, batch64, batch32) = setup();
    let disc = trainer.train_baseline();
    assert_agreement(&disc, &batch64, &batch32);
}

/// The `f64` instantiation of the generic entry point is the ordinary
/// `Discriminator` path — not merely close, the same decisions.
#[test]
fn f64_generic_entry_point_is_bit_identical() {
    let (mut trainer, batch64, _) = setup();
    let disc = trainer.train_mf();
    let via_trait = disc.discriminate_shot_batch(&batch64);
    let via_generic = PrecisionDiscriminator::<f64>::discriminate_shot_batch_r(&disc, &batch64);
    assert_eq!(via_trait, via_generic);
    // And through a trait object, which only the blanket impl can serve.
    let boxed: Box<dyn Discriminator> = trainer.train(DesignKind::Mf);
    let via_dyn = boxed.as_ref().discriminate_shot_batch_r(&batch64);
    assert_eq!(via_trait, via_dyn);
}
