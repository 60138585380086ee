//! Structure-of-arrays shot batches for allocation-free batched inference.
//!
//! The per-shot pipeline walks one [`IqTrace`] at a time, allocating
//! per-qubit baseband traces and feature vectors for every shot. At hardware
//! line rate that is the wrong shape: the discriminator should see a
//! contiguous `[shot × sample]` buffer it can stream through fused kernels.
//! [`ShotBatch`] is that buffer — one flat `f64` plane holding every shot's
//! raw I and Q channels row by row, in the same `[I…, Q…]` row layout as
//! [`IqTrace::to_feature_vec`], so a batch row doubles as the baseline FNN's
//! input vector and as one row of the fused demod + matched-filter matmul.

use herqles_num::Real;

use crate::dataset::{Dataset, Shot};
use crate::trace::IqTrace;

/// A contiguous batch of equally long raw IQ traces.
///
/// Row `s` of the underlying buffer is shot `s` as `[i_0 … i_{T−1},
/// q_0 … q_{T−1}]`; rows are stored back to back, so the whole batch is a
/// row-major `[n_shots × 2T]` matrix ready for a blocked matmul with a
/// `[2T × features]` fused filter matrix — no per-shot allocation anywhere.
///
/// Generic over the pipeline precision `R` ([`Real`], default `f64`): the
/// batch models the ADC output plane, so this is where the digital pipeline's
/// precision begins. Packing an [`IqTrace`] (always `f64`, like the analog
/// physics it stands in for) into a `ShotBatch<f32>` rounds each sample once,
/// exactly as a narrower digitizer word would.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotBatch<R: Real = f64> {
    n_shots: usize,
    n_samples: usize,
    data: Vec<R>,
}

impl<R: Real> ShotBatch<R> {
    /// An empty batch with capacity reserved for `n_shots` traces of
    /// `n_samples` samples.
    pub fn with_capacity(n_shots: usize, n_samples: usize) -> Self {
        ShotBatch::<R> {
            n_shots: 0,
            n_samples,
            data: Vec::with_capacity(n_shots * 2 * n_samples),
        }
    }

    /// Packs borrowed traces into a batch.
    ///
    /// Returns `None` if `raws` is empty or the traces have unequal lengths —
    /// callers fall back to the per-shot path in that case (e.g. mixed
    /// readout durations).
    pub fn try_from_traces(raws: &[&IqTrace]) -> Option<Self> {
        let first = raws.first()?;
        let n_samples = first.len();
        if raws.iter().any(|r| r.len() != n_samples) {
            return None;
        }
        let mut batch = ShotBatch::<R>::with_capacity(raws.len(), n_samples);
        for raw in raws {
            batch.push_trace(raw);
        }
        Some(batch)
    }

    /// Packs the raw traces of `dataset`'s shots at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_dataset(dataset: &Dataset, indices: &[usize]) -> Self {
        let mut batch = ShotBatch::<R>::with_capacity(indices.len(), dataset.config.n_samples());
        for &i in indices {
            batch.push_trace(&dataset.shots[i].raw);
        }
        batch
    }

    /// Packs a slice of owned shots.
    pub fn from_shots(shots: &[Shot]) -> Self {
        let n_samples = shots.first().map_or(0, |s| s.raw.len());
        let mut batch = ShotBatch::<R>::with_capacity(shots.len(), n_samples);
        for shot in shots {
            batch.push_trace(&shot.raw);
        }
        batch
    }

    /// Removes all shots, keeping the allocation and the configured sample
    /// count — the reuse primitive of a per-round batch: a warm batch
    /// cycles through `clear` → `push_empty_row`×k with zero heap traffic.
    pub fn clear(&mut self) {
        self.n_shots = 0;
        self.data.clear();
    }

    /// Appends one zeroed row and returns its `(I, Q)` halves for in-place
    /// synthesis (e.g. [`crate::RoundSynth::synth_into_row`]).
    ///
    /// Uses the batch's configured sample count (set by
    /// [`ShotBatch::with_capacity`] or the first pushed trace); within the
    /// reserved capacity this performs no allocation.
    pub fn push_empty_row(&mut self) -> (&mut [R], &mut [R]) {
        let w = self.row_width();
        let start = self.data.len();
        self.data.resize(start + w, R::ZERO);
        self.n_shots += 1;
        self.data[start..].split_at_mut(self.n_samples)
    }

    /// Appends one trace to the batch.
    ///
    /// # Panics
    ///
    /// Panics if the trace length differs from the batch's sample count.
    pub fn push_trace(&mut self, raw: &IqTrace) {
        if self.n_shots == 0 && self.data.is_empty() {
            self.n_samples = raw.len();
        }
        assert_eq!(
            raw.len(),
            self.n_samples,
            "all traces in a batch must share one length"
        );
        self.data.extend(raw.i().iter().map(|&v| R::from_f64(v)));
        self.data.extend(raw.q().iter().map(|&v| R::from_f64(v)));
        self.n_shots += 1;
    }

    /// Number of shots in the batch.
    pub fn n_shots(&self) -> usize {
        self.n_shots
    }

    /// Whether the batch holds no shots.
    pub fn is_empty(&self) -> bool {
        self.n_shots == 0
    }

    /// Raw samples per shot (per channel).
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Width of one row: `2 × n_samples` (`I` plane then `Q` plane).
    pub fn row_width(&self) -> usize {
        2 * self.n_samples
    }

    /// The whole batch as one flat row-major `[n_shots × row_width]` slice.
    pub fn as_slice(&self) -> &[R] {
        &self.data
    }

    /// Mutable view of the whole batch, for in-place row synthesis from
    /// disjoint shards (e.g. one `herqles_exec::Tiles` tile per row); pair
    /// with [`ShotBatch::push_empty_row`] to pre-size the rows first.
    pub fn as_mut_slice(&mut self) -> &mut [R] {
        &mut self.data
    }

    /// Row `shot` as `[i…, q…]`.
    ///
    /// # Panics
    ///
    /// Panics if `shot` is out of bounds.
    pub fn row(&self, shot: usize) -> &[R] {
        assert!(shot < self.n_shots, "shot index out of bounds");
        let w = self.row_width();
        &self.data[shot * w..(shot + 1) * w]
    }

    /// The I channel of `shot`.
    ///
    /// # Panics
    ///
    /// Panics if `shot` is out of bounds.
    pub fn i_of(&self, shot: usize) -> &[R] {
        &self.row(shot)[..self.n_samples]
    }

    /// The Q channel of `shot`.
    ///
    /// # Panics
    ///
    /// Panics if `shot` is out of bounds.
    pub fn q_of(&self, shot: usize) -> &[R] {
        &self.row(shot)[self.n_samples..]
    }

    /// Materializes shot `shot` as an owned [`IqTrace`] (the allocation the
    /// batched path exists to avoid; used only by per-shot fallbacks).
    ///
    /// # Panics
    ///
    /// Panics if `shot` is out of bounds.
    pub fn trace(&self, shot: usize) -> IqTrace {
        IqTrace::new(
            self.i_of(shot).iter().map(|&v| v.to_f64()).collect(),
            self.q_of(shot).iter().map(|&v| v.to_f64()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipConfig;

    fn ramp_trace(offset: f64, len: usize) -> IqTrace {
        IqTrace::new(
            (0..len).map(|t| offset + t as f64).collect(),
            (0..len).map(|t| -(offset + t as f64)).collect(),
        )
    }

    #[test]
    fn rows_follow_feature_vec_layout() {
        let a = ramp_trace(0.0, 4);
        let b = ramp_trace(10.0, 4);
        let batch: ShotBatch = ShotBatch::try_from_traces(&[&a, &b]).unwrap();
        assert_eq!(batch.n_shots(), 2);
        assert_eq!(batch.n_samples(), 4);
        assert_eq!(batch.row(0), a.to_feature_vec().as_slice());
        assert_eq!(batch.row(1), b.to_feature_vec().as_slice());
        assert_eq!(batch.as_slice().len(), 2 * 8);
    }

    #[test]
    fn channels_are_recoverable() {
        let a = ramp_trace(5.0, 3);
        let batch: ShotBatch = ShotBatch::try_from_traces(&[&a]).unwrap();
        assert_eq!(batch.i_of(0), a.i());
        assert_eq!(batch.q_of(0), a.q());
        assert_eq!(batch.trace(0), a);
    }

    #[test]
    fn ragged_traces_are_rejected() {
        let a = ramp_trace(0.0, 4);
        let b = ramp_trace(0.0, 5);
        assert!(ShotBatch::<f64>::try_from_traces(&[&a, &b]).is_none());
        assert!(ShotBatch::<f64>::try_from_traces(&[]).is_none());
    }

    #[test]
    fn dataset_packing_matches_shot_order() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 2, 7);
        let idx = [3usize, 0, 5];
        let batch: ShotBatch = ShotBatch::from_dataset(&ds, &idx);
        assert_eq!(batch.n_shots(), 3);
        for (r, &i) in idx.iter().enumerate() {
            assert_eq!(batch.trace(r), ds.shots[i].raw);
        }
    }

    #[test]
    fn from_shots_covers_all() {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 1, 9);
        let batch: ShotBatch = ShotBatch::from_shots(&ds.shots);
        assert_eq!(batch.n_shots(), ds.shots.len());
        assert_eq!(batch.n_samples(), cfg.n_samples());
    }

    #[test]
    fn clear_and_push_empty_row_reuse_the_allocation() {
        let a = ramp_trace(0.0, 4);
        let b = ramp_trace(3.0, 4);
        let mut batch: ShotBatch = ShotBatch::with_capacity(2, 4);
        batch.push_trace(&a);
        batch.push_trace(&b);
        let cap = batch.as_slice().len();
        let ptr = batch.as_slice().as_ptr();
        batch.clear();
        assert!(batch.is_empty());
        for src in [&a, &b] {
            let (i, q) = batch.push_empty_row();
            i.copy_from_slice(src.i());
            q.copy_from_slice(src.q());
        }
        assert_eq!(batch.n_shots(), 2);
        assert_eq!(batch.as_slice().len(), cap);
        assert_eq!(batch.as_slice().as_ptr(), ptr, "buffer must be reused");
        assert_eq!(batch.trace(0), a);
        assert_eq!(batch.trace(1), b);
    }

    #[test]
    fn push_empty_row_yields_zeroed_halves() {
        let mut batch: ShotBatch = ShotBatch::with_capacity(1, 3);
        let (i, q) = batch.push_empty_row();
        assert_eq!(i, &[0.0; 3]);
        assert_eq!(q, &[0.0; 3]);
        assert_eq!(batch.n_samples(), 3);
        assert_eq!(batch.row_width(), 6);
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn push_rejects_length_mismatch() {
        let mut batch: ShotBatch = ShotBatch::with_capacity(2, 4);
        batch.push_trace(&ramp_trace(0.0, 4));
        batch.push_trace(&ramp_trace(0.0, 3));
    }
}
