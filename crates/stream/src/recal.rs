//! Online recalibration: a self-harvesting, hot-swappable MF discriminator.
//!
//! [`AdaptiveMf`] publishes a trained [`MfDiscriminator`] behind a
//! **generation-counted atomic slot**: every batch discriminate loads the
//! current [`Arc`]'d discriminator (a read lock plus a refcount bump — no
//! allocation) and runs its fused batch path, so a retrain can build a
//! complete new discriminator off to the side and [`SwapSlot::swap`] it in
//! while the engine keeps streaming. Readers either see the old calibration
//! or the new one, never a torn mix of old filters and new thresholds.
//!
//! While discriminating, the design *harvests its own training data*: shots
//! whose soft margin clears a self-normalizing confidence gate are copied
//! (raw window + self-assigned label) into a fixed-capacity window ring.
//! [`AdaptiveMf::recalibrate`] then
//!
//! 1. averages the confident raw windows per qubit per class and
//!    demodulates the means (demodulation is linear, so the demodulated
//!    mean *is* the mean demodulated trace),
//! 2. rebuilds each drifted qubit's matched filter from the
//!    excited-minus-ground mean envelope,
//! 3. compiles the new bank's [`FilterFrontEnd`] once, re-featurizes the
//!    harvested windows through its fused kernel — one tall-skinny GEMM on
//!    the `herqles-num` kernel layer — and refits the per-qubit thresholds
//!    on those features,
//! 4. swaps the resulting [`MfDiscriminator`] in atomically, bumping the
//!    generation.
//!
//! The retrain path may allocate (it is a rare control-plane event, and the
//! streaming engine hides it behind synthesis in the prelude of its
//! [`herqles_exec::ShardPool::staged`] fan-out); the harvest path on the
//! round loop is allocation-free once warm.
//!
//! Self-labeling is honest about its limits: labels come from the *current*
//! calibration, so recovery works while the drifted channel still labels
//! high-margin shots correctly — the regime the confidence gate selects for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use herqles_core::bank::FilterBank;
use herqles_core::designs::MfDiscriminator;
use herqles_core::{Discriminator, FilterFrontEnd, PrecisionDiscriminator, Real};
use readout_classifiers::ThresholdDiscriminator;
use readout_dsp::filters::MatchedFilter;
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

/// A discriminator that can retrain itself from harvested data and hot-swap
/// the result into place. The streaming engine's adaptive cycle entry point
/// is bounded on this trait.
pub trait Recalibrate: Send + Sync {
    /// Whether enough harvested data is buffered for a retrain to be worth
    /// attempting.
    fn recal_ready(&self) -> bool;

    /// Rebuilds the calibration from harvested data and atomically swaps it
    /// in. Returns the new generation, or `None` when there was not enough
    /// per-class data to retrain anything.
    fn recalibrate(&self) -> Option<u64>;

    /// Generation of the live calibration (0 until the first swap).
    fn generation(&self) -> u64;
}

/// A generation-counted atomic publication slot.
///
/// Readers [`SwapSlot::load`] an [`Arc`] snapshot (read lock + refcount, no
/// allocation); writers build a replacement off-line and [`SwapSlot::swap`]
/// it in, bumping the generation. Std-only — no external atomics crates.
#[derive(Debug)]
pub struct SwapSlot<T> {
    current: RwLock<Arc<T>>,
    generation: AtomicU64,
}

impl<T> SwapSlot<T> {
    /// A slot publishing `value` at generation 0.
    pub fn new(value: T) -> Self {
        SwapSlot {
            current: RwLock::new(Arc::new(value)),
            generation: AtomicU64::new(0),
        }
    }

    /// Snapshot of the current value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read().expect("swap slot poisoned"))
    }

    /// Atomically publishes `value`, returning the new generation.
    pub fn swap(&self, value: T) -> u64 {
        let mut slot = self.current.write().expect("swap slot poisoned");
        *slot = Arc::new(value);
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Generation of the published value (0 before any swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// Fixed-capacity ring of harvested high-confidence raw windows.
///
/// Each slot stores one shot's raw row (`[i…, q…]`, widened to `f64`), the
/// self-assigned label bits, and a per-qubit confidence mask. The per-qubit
/// margin-scale EWMA that drives the confidence gate lives here too, so the
/// whole harvest path works under one uncontended mutex with zero
/// allocation.
#[derive(Debug)]
struct WindowRing {
    width: usize,
    capacity: usize,
    data: Vec<f64>,
    labels: Vec<u32>,
    conf: Vec<u32>,
    len: usize,
    head: usize,
    /// Per-qubit EWMA of the absolute soft margin — the self-normalizing
    /// scale the confidence gate compares against.
    scale: Vec<f64>,
}

impl WindowRing {
    fn new(capacity: usize, width: usize, n_qubits: usize) -> Self {
        WindowRing {
            width,
            capacity,
            data: vec![0.0; capacity * width],
            labels: vec![0; capacity],
            conf: vec![0; capacity],
            len: 0,
            head: 0,
            scale: vec![0.0; n_qubits],
        }
    }

    fn push<R: Real>(&mut self, i_row: &[R], q_row: &[R], label: u32, conf: u32) {
        let slot = &mut self.data[self.head * self.width..(self.head + 1) * self.width];
        let (i_dst, q_dst) = slot.split_at_mut(i_row.len());
        for (d, s) in i_dst.iter_mut().zip(i_row) {
            *d = s.to_f64();
        }
        for (d, s) in q_dst.iter_mut().zip(q_row) {
            *d = s.to_f64();
        }
        self.labels[self.head] = label;
        self.conf[self.head] = conf;
        self.head = (self.head + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    #[cfg(test)]
    fn row(&self, s: usize) -> &[f64] {
        &self.data[s * self.width..(s + 1) * self.width]
    }

    fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
    }
}

/// Tuning of the harvest ring and retrain gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecalConfig {
    /// Harvested windows kept (ring capacity).
    pub capacity: usize,
    /// A shot is "confident" for qubit `q` when its margin is at least this
    /// fraction of the qubit's margin-scale EWMA.
    pub min_margin_frac: f64,
    /// Minimum confident windows *per class per qubit* to retrain that
    /// qubit's filter and threshold.
    pub min_windows: usize,
    /// EWMA weight of the per-qubit margin scale.
    pub scale_alpha: f64,
}

impl Default for RecalConfig {
    fn default() -> Self {
        RecalConfig {
            capacity: 256,
            min_margin_frac: 0.5,
            min_windows: 12,
            scale_alpha: 0.05,
        }
    }
}

/// The `mf` design wrapped in an atomic, self-recalibrating shell: the
/// published [`MfDiscriminator`]'s batch hot path, plus window harvesting and
/// [`Recalibrate::recalibrate`].
///
/// Implements [`Discriminator`], so it drives a `CycleEngine` at either
/// pipeline precision.
#[derive(Debug)]
pub struct AdaptiveMf {
    cfg: RecalConfig,
    slot: SwapSlot<MfDiscriminator>,
    ring: Mutex<WindowRing>,
}

impl AdaptiveMf {
    /// Wraps a clone of a trained [`MfDiscriminator`] (generation starts at
    /// 0).
    pub fn from_mf(mf: &MfDiscriminator, cfg: RecalConfig) -> Self {
        let width = 2 * mf.demod().n_samples();
        AdaptiveMf {
            ring: Mutex::new(WindowRing::new(cfg.capacity.max(1), width, mf.n_qubits())),
            slot: SwapSlot::new(mf.clone()),
            cfg,
        }
    }

    /// Harvested windows currently buffered.
    pub fn buffered_windows(&self) -> usize {
        self.ring.lock().expect("ring poisoned").len
    }

    /// The live per-qubit decision thresholds (snapshot).
    pub fn thresholds(&self) -> Vec<ThresholdDiscriminator> {
        self.slot.load().thresholds().to_vec()
    }

    /// Updates the per-qubit margin scales and copies confident windows into
    /// the ring. `features` is empty when the batch took the per-shot
    /// fallback, and then nothing is harvested. Allocation-free: fixed ring
    /// storage, uncontended mutex.
    fn harvest<R: Real>(
        &self,
        mf: &MfDiscriminator,
        batch: &ShotBatch<R>,
        features: &[R],
        states: &[BasisState],
    ) {
        let width = mf.bank().n_features().max(1);
        let mut ring = self.ring.lock().expect("ring poisoned");
        for (s, (f, state)) in features.chunks(width).zip(states).enumerate() {
            let mut conf = 0u32;
            for (q, margin) in mf.margins(f).enumerate() {
                let scale = &mut ring.scale[q];
                *scale += self.cfg.scale_alpha * (margin - *scale);
                if margin >= self.cfg.min_margin_frac * *scale {
                    conf |= 1 << q;
                }
            }
            if conf != 0 {
                ring.push(batch.i_of(s), batch.q_of(s), state.bits(), conf);
            }
        }
    }
}

/// The live discriminator's batch path at any pipeline precision, plus
/// harvesting.
impl<R: Real> PrecisionDiscriminator<R> for AdaptiveMf {
    fn discriminate_shot_batch_r_into(
        &self,
        batch: &ShotBatch<R>,
        scratch: &mut Vec<R>,
        out: &mut Vec<BasisState>,
    ) {
        let mf = self.slot.load();
        mf.discriminate_shot_batch_r_into(batch, scratch, out);
        self.harvest(&mf, batch, scratch, out);
    }
}

impl Discriminator for AdaptiveMf {
    fn name(&self) -> &str {
        "mf-adaptive"
    }

    fn n_qubits(&self) -> usize {
        self.slot.load().n_qubits()
    }

    fn discriminate(&self, raw: &IqTrace) -> BasisState {
        self.slot.load().discriminate(raw)
    }

    fn soft_margins(&self, features: &[f64], out: &mut [f64]) -> bool {
        self.slot.load().soft_margins(features, out)
    }
}

impl Recalibrate for AdaptiveMf {
    fn recal_ready(&self) -> bool {
        // Cheap gate: enough windows that at least one qubit can plausibly
        // split into two sufficiently populated classes.
        self.buffered_windows() >= 4 * self.cfg.min_windows
    }

    fn recalibrate(&self) -> Option<u64> {
        // Snapshot the ring into a batch (copy, then release the lock so the
        // hot path keeps harvesting while we train). A ring slot is laid out
        // exactly like a batch row: `[i…, q…]`.
        let (batch, labels, conf) = {
            let ring = self.ring.lock().expect("ring poisoned");
            if ring.len == 0 {
                return None;
            }
            let mut batch: ShotBatch<f64> = ShotBatch::with_capacity(ring.len, ring.width / 2);
            for _ in 0..ring.len {
                batch.push_empty_row();
            }
            batch
                .as_mut_slice()
                .copy_from_slice(&ring.data[..ring.len * ring.width]);
            (
                batch,
                ring.labels[..ring.len].to_vec(),
                ring.conf[..ring.len].to_vec(),
            )
        };
        let mf = self.slot.load();
        let (demod, n_qubits) = (mf.demod(), mf.n_qubits());
        let (n_windows, n_samples) = (batch.n_shots(), batch.n_samples());
        let kern = <f64 as Real>::kernel();

        // 1.+2. Per-qubit mean confident window per class → new envelope.
        let mut mfs = Vec::with_capacity(n_qubits);
        let mut retrained = vec![false; n_qubits];
        for (q, q_retrained) in retrained.iter_mut().enumerate() {
            let bit = 1u32 << q;
            let excited: Vec<usize> = (0..n_windows)
                .filter(|&s| conf[s] & bit != 0 && labels[s] & bit != 0)
                .collect();
            let ground: Vec<usize> = (0..n_windows)
                .filter(|&s| conf[s] & bit != 0 && labels[s] & bit == 0)
                .collect();
            if excited.len() < self.cfg.min_windows || ground.len() < self.cfg.min_windows {
                mfs.push(mf.bank().mf(q).clone());
                continue;
            }
            let mean_demod = |idx: &[usize]| -> IqTrace {
                let mut acc = vec![0.0f64; batch.row_width()];
                for &s in idx {
                    kern.axpy(1.0, batch.row(s), &mut acc);
                }
                let inv = 1.0 / idx.len() as f64;
                for v in &mut acc {
                    *v *= inv;
                }
                let (i_mean, q_mean) = acc.split_at(n_samples);
                // Demodulation is linear: demod(mean raw) == mean demod.
                demod.demodulate_qubit(&IqTrace::new(i_mean.to_vec(), q_mean.to_vec()), q)
            };
            let mean_e = mean_demod(&excited);
            let mean_g = mean_demod(&ground);
            let di: Vec<f64> = mean_e
                .i()
                .iter()
                .zip(mean_g.i())
                .map(|(a, b)| a - b)
                .collect();
            let dq: Vec<f64> = mean_e
                .q()
                .iter()
                .zip(mean_g.q())
                .map(|(a, b)| a - b)
                .collect();
            // Excited-minus-ground mean envelope: the matched filter for
            // white bin noise, oriented so positive ⇒ excited.
            mfs.push(MatchedFilter::from_envelope(IqTrace::new(di, dq)));
            *q_retrained = true;
        }
        if !retrained.iter().any(|&r| r) {
            return None;
        }

        // 3. Compile the new bank's front end once and refit thresholds on
        //    the harvested windows featurized through it — one tall-skinny
        //    GEMM on the kernel layer.
        let front = FilterFrontEnd::new(demod.clone(), FilterBank::new(mfs));
        let mut features = Vec::new();
        front.kernel::<f64>().features_batch(&batch, &mut features);
        let mut thresholds = Vec::with_capacity(n_qubits);
        for q in 0..n_qubits {
            if !retrained[q] {
                thresholds.push(mf.thresholds()[q]);
                continue;
            }
            let bit = 1u32 << q;
            let mut excited = Vec::new();
            let mut ground = Vec::new();
            for (s, f) in features.chunks(n_qubits).enumerate() {
                if conf[s] & bit == 0 {
                    continue;
                }
                if labels[s] & bit != 0 {
                    excited.push(f[q]);
                } else {
                    ground.push(f[q]);
                }
            }
            thresholds.push(ThresholdDiscriminator::train(&excited, &ground));
        }

        // 4. Atomic publication; stale self-labels die with the old epoch.
        let generation = self
            .slot
            .swap(MfDiscriminator::from_front_end(front, thresholds));
        self.ring.lock().expect("ring poisoned").clear();
        Some(generation)
    }

    fn generation(&self) -> u64 {
        self.slot.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_mf_discriminator;
    use readout_sim::{ChipConfig, Dataset};

    #[test]
    fn swap_slot_publishes_generations() {
        let slot = SwapSlot::new(1u32);
        assert_eq!(slot.generation(), 0);
        assert_eq!(*slot.load(), 1);
        assert_eq!(slot.swap(2), 1);
        assert_eq!(slot.swap(3), 2);
        assert_eq!(*slot.load(), 3);
        assert_eq!(slot.generation(), 2);
    }

    #[test]
    fn window_ring_wraps_and_clears() {
        let mut ring = WindowRing::new(2, 4, 1);
        ring.push(&[1.0, 2.0], &[3.0, 4.0], 1, 1);
        ring.push(&[5.0, 6.0], &[7.0, 8.0], 0, 1);
        ring.push(&[9.0, 10.0], &[11.0, 12.0], 1, 1);
        assert_eq!(ring.len, 2);
        // Third push overwrote slot 0.
        assert_eq!(ring.row(0), &[9.0, 10.0, 11.0, 12.0]);
        assert_eq!(ring.labels[0], 1);
        ring.clear();
        assert_eq!(ring.len, 0);
    }

    #[test]
    fn adaptive_mf_matches_wrapped_mf_before_any_swap() {
        let chip = ChipConfig::two_qubit_test();
        let mf = train_mf_discriminator(&chip, 12, 99);
        let adaptive = AdaptiveMf::from_mf(&mf, RecalConfig::default());
        let ds = Dataset::generate(&chip, 16, 1234);
        for shot in &ds.shots {
            assert_eq!(
                adaptive.discriminate(&shot.raw),
                mf.discriminate(&shot.raw),
                "generation 0 must classify exactly like the wrapped mf"
            );
        }
        // The engine's paths: batched labels and feature rows at both
        // precisions, then the soft margins of every f64 feature row.
        let features = batch_parity::<f64>(&adaptive, &mf, &ds);
        batch_parity::<f32>(&adaptive, &mf, &ds);
        let (mut from_adaptive, mut from_mf) = ([0.0; 2], [0.0; 2]);
        for row in features.chunks(2) {
            assert!(adaptive.soft_margins(row, &mut from_adaptive));
            assert!(mf.soft_margins(row, &mut from_mf));
            assert_eq!(from_adaptive.map(f64::to_bits), from_mf.map(f64::to_bits));
        }
        assert!(!adaptive.soft_margins(&features[..1], &mut from_adaptive));
        assert_eq!(adaptive.generation(), 0);
        assert_eq!(adaptive.name(), "mf-adaptive");
        assert_eq!(adaptive.n_qubits(), 2);
    }

    /// Runs `ds` through both designs' buffered batch path at precision `R`,
    /// asserts identical labels and bit-identical feature rows, and returns
    /// the feature rows widened to `f64`.
    fn batch_parity<R: Real>(
        adaptive: &AdaptiveMf,
        mf: &MfDiscriminator,
        ds: &Dataset,
    ) -> Vec<f64> {
        let batch: ShotBatch<R> = ShotBatch::from_shots(&ds.shots);
        let (mut adaptive_rows, mut adaptive_out) = (Vec::new(), Vec::new());
        let (mut mf_rows, mut mf_out) = (Vec::new(), Vec::new());
        PrecisionDiscriminator::<R>::discriminate_shot_batch_r_into(
            adaptive,
            &batch,
            &mut adaptive_rows,
            &mut adaptive_out,
        );
        PrecisionDiscriminator::<R>::discriminate_shot_batch_r_into(
            mf,
            &batch,
            &mut mf_rows,
            &mut mf_out,
        );
        assert_eq!(adaptive_out, mf_out, "batched labels at {}", R::NAME);
        assert_eq!(adaptive_out.len(), ds.shots.len());
        let widen = |rows: &[R]| rows.iter().map(|v| v.to_f64()).collect::<Vec<f64>>();
        let bits = |rows: &[f64]| rows.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let (adaptive_rows, mf_rows) = (widen(&adaptive_rows), widen(&mf_rows));
        assert_eq!(
            bits(&adaptive_rows),
            bits(&mf_rows),
            "feature rows at {}",
            R::NAME
        );
        adaptive_rows
    }

    #[test]
    fn harvesting_fills_the_ring_and_retrain_swaps_a_generation() {
        let chip = ChipConfig::two_qubit_test();
        let mf = train_mf_discriminator(&chip, 12, 99);
        let cfg = RecalConfig {
            min_windows: 8,
            ..RecalConfig::default()
        };
        let adaptive = AdaptiveMf::from_mf(&mf, cfg);
        let ds = Dataset::generate(&chip, 40, 777);
        let mut batch: ShotBatch<f64> = ShotBatch::with_capacity(ds.shots.len(), chip.n_samples());
        for shot in &ds.shots {
            batch.push_trace(&shot.raw);
        }
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        adaptive.discriminate_shot_batch_r_into(&batch, &mut scratch, &mut out);
        assert!(adaptive.buffered_windows() > 0, "confident shots harvested");
        assert!(adaptive.recal_ready());
        let generation = adaptive.recalibrate().expect("enough data to retrain");
        assert_eq!(generation, 1);
        assert_eq!(adaptive.generation(), 1);
        // The self-trained calibration still discriminates competently on
        // clean data (trained from its own labels, so near the original).
        let correct = ds
            .shots
            .iter()
            .filter(|s| adaptive.discriminate(&s.raw) == s.prepared)
            .count();
        let accuracy = correct as f64 / ds.shots.len() as f64;
        assert!(accuracy > 0.8, "post-swap accuracy {accuracy}");
    }
}
