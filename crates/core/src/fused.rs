//! Fused demodulation + matched-filter inference kernel.
//!
//! Both demodulation and matched filtering are linear in the raw ADC
//! samples, so their composition is one linear map. For qubit `q` with
//! envelope `env` and demodulation bin width `B`:
//!
//! ```text
//! feature = Σ_b env_I(b)·bb_I(b) + env_Q(b)·bb_Q(b)
//!         = Σ_t raw_I(t)·w_I(t) + raw_Q(t)·w_Q(t)
//! w_I(t) = (env_I(b)·cos ω_q t − env_Q(b)·sin ω_q t) / B,   b = ⌊t/B⌋
//! w_Q(t) = (env_I(b)·sin ω_q t + env_Q(b)·cos ω_q t) / B
//! ```
//!
//! [`FusedFilterKernel`] folds every filter of a [`FilterBank`] into one
//! time-domain weight matrix (stored transposed, `[F × 2T]`) at
//! construction, and applies the whole bank to a [`ShotBatch`] as a single
//! blocked matmul `[shots × 2T] · [2T × F]` via
//! [`readout_nn::matrix::gemm_rt_into`] — zero per-shot allocation, the
//! per-shot demodulate → per-qubit dot-product loop replaced by one batched
//! GEMM whose per-feature weight rows stream contiguously (the software
//! mirror of the paper's pipelined FPGA MAC banks).
//!
//! [`FilterFrontEnd`] owns the compiled kernels together with the
//! demodulator, the bank and the truncated-kernel cache: it is the one front
//! end of every matched-filter design, which adds only its decision head.
//!
//! Batched and per-shot features differ only by floating-point
//! reassociation (the sum over `t` is grouped per bin on the per-shot path),
//! bounded by ~1e-12 relative error; the parity tests in
//! `tests/batch_parity.rs` pin this.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use herqles_num::Real;
use readout_dsp::Demodulator;
use readout_nn::matrix::gemm_rt_into;
use readout_sim::trace::{BasisState, IqTrace};
use readout_sim::ShotBatch;

use crate::bank::FilterBank;

/// A filter bank compiled to raw-sample weights for batched application,
/// generic over the pipeline precision `R` ([`Real`], default `f64`).
///
/// Weights are always *derived* in `f64` (envelope × carrier × bin norm, the
/// calibration math) and rounded into `R` once at compile time, so an `f32`
/// kernel carries optimally rounded weights rather than error-compounded
/// single-precision products — exactly how fixed-point FPGA weights are
/// produced from a float training pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedFilterKernel<R: Real = f64> {
    /// `[F × 2T]` weights, stored transposed so each feature's weights are
    /// one contiguous scan: row `f` holds feature `f`'s I-plane weights for
    /// samples `0..T`, then its Q-plane weights.
    weights_t: Vec<R>,
    n_samples: usize,
    n_features: usize,
}

impl<R: Real> FusedFilterKernel<R> {
    /// Compiles `bank` against the demodulator's carrier table.
    ///
    /// Envelope bins beyond the readout window (or windows beyond the
    /// envelope) contribute zero weight, mirroring the prefix-overlap
    /// semantics of [`readout_dsp::MatchedFilter::apply`].
    ///
    /// # Panics
    ///
    /// Panics if the bank and demodulator disagree on the qubit count.
    pub fn new(demod: &Demodulator, bank: &FilterBank) -> Self {
        Self::compile(demod, bank, None)
    }

    /// Compiles `bank` with per-qubit readout-duration budgets, expressed in
    /// demodulation bins (the §5 truncated-inference setting): qubit `q`'s
    /// filters contribute weight only over their first `budgets[q]` bins, so
    /// applying the kernel to a *full-length* batch computes exactly the
    /// prefix features of
    /// [`FilterBank::features_truncated`](crate::bank::FilterBank::features_truncated)
    /// — no per-shot demod walk, one GEMM for the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts disagree or `budgets` does not hold one
    /// entry per qubit.
    pub fn new_truncated(demod: &Demodulator, bank: &FilterBank, budgets: &[usize]) -> Self {
        assert_eq!(
            budgets.len(),
            bank.n_qubits(),
            "one bin budget per qubit required"
        );
        Self::compile(demod, bank, Some(budgets))
    }

    fn compile(demod: &Demodulator, bank: &FilterBank, budgets: Option<&[usize]>) -> Self {
        assert_eq!(
            bank.n_qubits(),
            demod.n_qubits(),
            "bank and demodulator must cover the same qubits"
        );
        let n_samples = demod.n_samples();
        let n_features = bank.n_features();
        let spb = demod.samples_per_bin();
        let norm = 1.0 / spb as f64;
        let carriers = demod.carriers();
        let mut weights_t = vec![R::ZERO; 2 * n_samples * n_features];
        for q in 0..bank.n_qubits() {
            let mut filters = vec![(bank.mf_feature_index(q), bank.mf(q))];
            if let Some(rmf) = bank.rmf(q) {
                filters.push((bank.mf_feature_index(q) + 1, rmf));
            }
            for (col, filter) in filters {
                let env = filter.envelope();
                let (ei, eq) = (env.i(), env.q());
                let mut bins = env.len().min(n_samples / spb);
                if let Some(budgets) = budgets {
                    bins = bins.min(budgets[q]);
                }
                let row = &mut weights_t[col * 2 * n_samples..(col + 1) * 2 * n_samples];
                for t in 0..bins * spb {
                    let b = t / spb;
                    let (c, s) = carriers.phasor(q, t);
                    row[t] = R::from_f64((ei[b] * c - eq[b] * s) * norm);
                    row[n_samples + t] = R::from_f64((ei[b] * s + eq[b] * c) * norm);
                }
            }
        }
        FusedFilterKernel {
            weights_t,
            n_samples,
            n_features,
        }
    }

    /// Feature-vector width (`N` without RMFs, `2N` with).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Raw samples per shot the kernel was compiled for.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Whether `batch` has the sample count this kernel was compiled for.
    pub fn matches(&self, batch: &ShotBatch<R>) -> bool {
        batch.n_samples() == self.n_samples
    }

    /// Rounds the compiled weight plane into another precision — exactly the
    /// values [`FusedFilterKernel::new`] would derive at `R2` (weights are
    /// computed in `f64` either way and rounded once), at none of the
    /// recompilation cost.
    pub fn to_precision<R2: Real>(&self) -> FusedFilterKernel<R2> {
        FusedFilterKernel {
            weights_t: self
                .weights_t
                .iter()
                .map(|&w| R2::from_f64(w.to_f64()))
                .collect(),
            n_samples: self.n_samples,
            n_features: self.n_features,
        }
    }

    /// Computes the feature matrix of a whole batch into the caller-owned
    /// buffer `out`, resized to `[n_shots × n_features]` (row `s` = shot
    /// `s`'s features).
    ///
    /// # Panics
    ///
    /// Panics if the batch sample count does not match the kernel.
    pub fn features_batch(&self, batch: &ShotBatch<R>, out: &mut Vec<R>) {
        assert!(
            self.matches(batch),
            "batch sample count does not match the compiled kernel"
        );
        out.clear();
        out.resize(batch.n_shots() * self.n_features, R::ZERO);
        gemm_rt_into(
            batch.as_slice(),
            &self.weights_t,
            out,
            batch.n_shots(),
            2 * self.n_samples,
            self.n_features,
        );
    }
}

/// The matched-filter front end every fused design shares: demodulator,
/// filter bank, the bank compiled to [`FusedFilterKernel`]s at both pipeline
/// precisions, and the lazily compiled truncated-duration kernels.
///
/// The `mf`, `mf-svm` and `mf-nn` designs (and their RMF variants) are this
/// front end plus a decision head, so the per-shot demod walk, the batched
/// GEMM with its per-shot fallback, and the truncated-batch routing exist
/// once, here.
#[derive(Debug, Clone)]
pub struct FilterFrontEnd {
    demod: Demodulator,
    bank: FilterBank,
    k64: FusedFilterKernel<f64>,
    k32: FusedFilterKernel<f32>,
    truncated: TruncatedKernelCache,
}

impl FilterFrontEnd {
    /// Compiles `bank` at both precisions.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FusedFilterKernel::new`].
    pub fn new(demod: Demodulator, bank: FilterBank) -> Self {
        let k64 = FusedFilterKernel::new(&demod, &bank);
        // The f32 plane is the f64 one rounded element-wise — identical to
        // compiling at f32 (weight math runs in f64 either way), at half
        // the compile cost.
        let k32 = k64.to_precision::<f32>();
        FilterFrontEnd {
            demod,
            bank,
            k64,
            k32,
            truncated: TruncatedKernelCache::new(),
        }
    }

    /// The demodulator the bank was trained with.
    pub(crate) fn demod(&self) -> &Demodulator {
        &self.demod
    }

    /// The filter bank.
    pub(crate) fn bank(&self) -> &FilterBank {
        &self.bank
    }

    /// The compiled kernel matching the pipeline precision `R`, resolved at
    /// monomorphization time (the `Any` downcast folds to a constant branch
    /// because [`Real`] is sealed to exactly two types).
    pub fn kernel<R: Real>(&self) -> &FusedFilterKernel<R> {
        let k64: &dyn Any = &self.k64;
        if let Some(k) = k64.downcast_ref::<FusedFilterKernel<R>>() {
            return k;
        }
        let k32: &dyn Any = &self.k32;
        k32.downcast_ref::<FusedFilterKernel<R>>()
            .expect("Real is sealed to f32 and f64")
    }

    /// Row width of every feature matrix the front end hands a head.
    fn width(&self) -> usize {
        self.k64.n_features().max(1)
    }

    /// One shot's features through the per-bin demod walk: the full window
    /// for `bins = None`, else each qubit's first `bins[q]` bins.
    pub(crate) fn features(&self, raw: &IqTrace, bins: Option<&[usize]>) -> Vec<f64> {
        let traces = self.demod.demodulate(raw);
        match bins {
            Some(bins) => self.bank.features_truncated(&traces, bins),
            None => self.bank.features(&traces),
        }
    }

    /// The whole batch's features at precision `R`, one fused GEMM into the
    /// caller's `out` (`[n_shots × n_features]`). Returns `false`, leaving
    /// `out` empty, when the batch is empty or its sample count is not the
    /// compiled window's; the caller then classifies per shot.
    pub(crate) fn features_batch<R: Real>(&self, batch: &ShotBatch<R>, out: &mut Vec<R>) -> bool {
        let kernel = self.kernel::<R>();
        if batch.is_empty() || !kernel.matches(batch) {
            out.clear();
            return false;
        }
        kernel.features_batch(batch, out);
        true
    }

    /// Classifies one shot (full window or truncated) through `head`.
    pub(crate) fn classify(
        &self,
        head: &impl FeatureHead,
        raw: &IqTrace,
        bins: Option<&[usize]>,
    ) -> BasisState {
        let mut out = Vec::with_capacity(1);
        head.classify_rows(&self.features(raw, bins), self.width(), &mut out);
        out[0]
    }

    /// Classifies a packed batch into `out` through the caller's `scratch`
    /// (left holding the feature rows): one fused GEMM, or per shot when
    /// [`FilterFrontEnd::features_batch`] declines.
    pub(crate) fn classify_batch_into<R: Real>(
        &self,
        head: &impl FeatureHead,
        batch: &ShotBatch<R>,
        scratch: &mut Vec<R>,
        out: &mut Vec<BasisState>,
    ) {
        out.clear();
        if self.features_batch(batch, scratch) {
            head.classify_rows(scratch, self.width(), out);
        } else {
            out.extend((0..batch.n_shots()).map(|s| self.classify(head, &batch.trace(s), None)));
        }
    }

    /// Classifies `raws` under per-qubit bin budgets through `head`.
    /// Full-window batches go through the cached per-duration kernel (one
    /// GEMM); ragged or shortened traces walk per shot.
    pub(crate) fn classify_truncated_batch(
        &self,
        head: &impl FeatureHead,
        raws: &[&IqTrace],
        bins: &[usize],
    ) -> Vec<BasisState> {
        let features = match ShotBatch::try_from_traces(raws).filter(|b| self.k64.matches(b)) {
            Some(batch) => {
                let mut features = Vec::new();
                self.truncated
                    .get_or_compile(&self.demod, &self.bank, bins)
                    .features_batch(&batch, &mut features);
                features
            }
            None => raws
                .iter()
                .flat_map(|raw| self.features(raw, Some(bins)))
                .collect(),
        };
        let mut out = Vec::with_capacity(raws.len());
        if !features.is_empty() {
            head.classify_rows(&features, self.width(), &mut out);
        }
        out
    }
}

/// The decision stage behind a [`FilterFrontEnd`]: what a fused design does
/// with its feature rows.
pub(crate) trait FeatureHead {
    /// Appends one state per row of the non-empty row-major
    /// `[rows × width]` feature matrix to `out`.
    fn classify_rows<R: Real>(&self, rows: &[R], width: usize, out: &mut Vec<BasisState>);
}

/// Lazy cache of per-duration truncated kernels, keyed by the per-qubit bin
/// budgets.
///
/// The §5 duration sweeps evaluate the same discriminator at dozens of
/// budgets over thousands of shots each; before this cache every truncated
/// evaluation walked shot by shot through the per-bin demod path. Each
/// distinct budget vector now compiles one [`FusedFilterKernel`] (weights are
/// bin prefixes of the full kernel) on first use and reuses it for every
/// subsequent batch at that duration — a sweep is then one GEMM per point.
///
/// Thread-safe (`Mutex`-guarded map), so discriminators stay `Send + Sync`;
/// compilation happens *outside* the lock (concurrent misses on the same
/// budgets may compile twice, first insert wins — cache hits never wait on a
/// compile), and cloning a discriminator clones the already-compiled
/// kernels. The cache is unbounded by design: sweep workloads use a handful
/// of budget vectors, and each kernel is the size of the full-duration one
/// the design already owns — callers feeding *adversarially many* distinct
/// budget vectors should expect memory to grow linearly with them.
pub struct TruncatedKernelCache {
    kernels: Mutex<HashMap<Vec<usize>, Arc<FusedFilterKernel<f64>>>>,
}

impl TruncatedKernelCache {
    /// An empty cache.
    pub fn new() -> Self {
        TruncatedKernelCache {
            kernels: Mutex::new(HashMap::new()),
        }
    }

    /// The kernel for `budgets`, compiling and memoizing it on first use.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`FusedFilterKernel::new_truncated`].
    pub fn get_or_compile(
        &self,
        demod: &Demodulator,
        bank: &FilterBank,
        budgets: &[usize],
    ) -> Arc<FusedFilterKernel<f64>> {
        if let Some(kernel) = self
            .kernels
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(budgets)
        {
            return Arc::clone(kernel);
        }
        // Compile outside the lock so concurrent hits on other budgets (and
        // on this one, once inserted) never serialize behind the weight
        // build; if two threads race the same miss, the first insert wins.
        let kernel = Arc::new(FusedFilterKernel::new_truncated(demod, bank, budgets));
        let mut kernels = self.kernels.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(kernels.entry(budgets.to_vec()).or_insert(kernel))
    }

    /// Number of distinct durations compiled so far.
    pub fn len(&self) -> usize {
        self.kernels.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no duration has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TruncatedKernelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for TruncatedKernelCache {
    fn clone(&self) -> Self {
        TruncatedKernelCache {
            kernels: Mutex::new(
                self.kernels
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

impl std::fmt::Debug for TruncatedKernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TruncatedKernelCache")
            .field("durations", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readout_sim::{ChipConfig, Dataset};

    fn trained_setup(with_rmf: bool) -> (Dataset, Demodulator, FilterBank) {
        let cfg = ChipConfig::two_qubit_test();
        let ds = Dataset::generate(&cfg, 20, 91);
        let demod = Demodulator::new(&cfg);
        let split = ds.split(0.5, 0.0, 1);
        let mut trainer = crate::trainer::ReadoutTrainer::new(&ds, &split.train);
        let mfs = trainer.matched_filters().to_vec();
        let bank = if with_rmf {
            FilterBank::with_rmfs(mfs, trainer.relaxation_filters().to_vec())
        } else {
            FilterBank::new(mfs)
        };
        (ds, demod, bank)
    }

    fn max_rel_err(fused: &[f64], reference: &[f64]) -> f64 {
        fused
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
            .fold(0.0, f64::max)
    }

    #[test]
    fn fused_features_match_per_shot_bank() {
        for with_rmf in [false, true] {
            let (ds, demod, bank) = trained_setup(with_rmf);
            let kernel: FusedFilterKernel = FusedFilterKernel::new(&demod, &bank);
            assert_eq!(kernel.n_features(), bank.n_features());
            let batch = ShotBatch::from_shots(&ds.shots[..16]);
            let mut fused = Vec::new();
            kernel.features_batch(&batch, &mut fused);
            for (s, shot) in ds.shots[..16].iter().enumerate() {
                let reference = bank.features(&demod.demodulate(&shot.raw));
                let row = &fused[s * kernel.n_features()..(s + 1) * kernel.n_features()];
                let err = max_rel_err(row, &reference);
                assert!(err <= 1e-12, "rmf={with_rmf} shot {s}: rel err {err:e}");
            }
        }
    }

    #[test]
    fn output_buffer_is_reusable() {
        let (ds, demod, bank) = trained_setup(false);
        let kernel: FusedFilterKernel = FusedFilterKernel::new(&demod, &bank);
        let batch = ShotBatch::from_shots(&ds.shots[..8]);
        let mut out = Vec::new();
        kernel.features_batch(&batch, &mut out);
        let first = out.clone();
        let small = ShotBatch::from_shots(&ds.shots[..2]);
        kernel.features_batch(&small, &mut out);
        assert_eq!(out.len(), 2 * kernel.n_features());
        assert_eq!(
            out[..],
            first[..out.len()],
            "same leading shots, same features"
        );
    }

    #[test]
    fn rounded_f32_kernel_is_bit_identical_to_a_recompiled_one() {
        let (_, demod, bank) = trained_setup(true);
        let recompiled: FusedFilterKernel<f32> = FusedFilterKernel::new(&demod, &bank);
        let front = FilterFrontEnd::new(demod, bank);
        assert_eq!(&recompiled, front.kernel::<f32>());
    }

    #[test]
    fn precision_kernels_select_by_type_and_agree_across_precisions() {
        let (ds, demod, bank) = trained_setup(true);
        let n_features = bank.n_features();
        let front = FilterFrontEnd::new(demod, bank);
        let batch64: ShotBatch = ShotBatch::from_shots(&ds.shots[..8]);
        let batch32: ShotBatch<f32> = ShotBatch::from_shots(&ds.shots[..8]);
        let mut f64_out = Vec::new();
        assert!(front.features_batch(&batch64, &mut f64_out));
        let mut f32_out = Vec::new();
        assert!(front.features_batch(&batch32, &mut f32_out));
        assert_eq!(f64_out.len(), 8 * n_features);
        assert_eq!(f64_out.len(), f32_out.len());
        for (a, b) in f64_out.iter().zip(&f32_out) {
            let rel = (a - f64::from(*b)).abs() / a.abs().max(1.0);
            assert!(rel < 1e-4, "f32 feature diverges: {a} vs {b}");
        }
    }

    #[test]
    fn front_end_declines_empty_and_mismatched_batches() {
        let (ds, demod, bank) = trained_setup(false);
        let front = FilterFrontEnd::new(demod, bank);
        let mut out = vec![1.0; 4];
        let empty: ShotBatch = ShotBatch::with_capacity(0, front.kernel::<f64>().n_samples());
        assert!(!front.features_batch(&empty, &mut out));
        assert!(out.is_empty(), "a declined batch leaves no stale features");
        let cut = ds.shots[0].raw.truncated(10);
        let short: ShotBatch<f32> = ShotBatch::try_from_traces(&[&cut]).unwrap();
        let mut out32 = vec![1.0f32; 4];
        assert!(!front.features_batch(&short, &mut out32));
        assert!(out32.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match the compiled kernel")]
    fn mismatched_batch_is_rejected() {
        let (ds, demod, bank) = trained_setup(false);
        let kernel: FusedFilterKernel = FusedFilterKernel::new(&demod, &bank);
        let cut = ds.shots[0].raw.truncated(10);
        let batch = ShotBatch::try_from_traces(&[&cut]).unwrap();
        let mut out = Vec::new();
        kernel.features_batch(&batch, &mut out);
    }
}
