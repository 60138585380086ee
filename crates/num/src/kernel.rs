//! SIMD microkernel backends for the `Real`-generic GEMMs.
//!
//! The hot path of the whole workspace — the fused demod + matched-filter
//! GEMM, the NN heads, the streaming discriminate stage — bottoms out in
//! three primitive shapes: a contiguous dot product, a register-blocked
//! 4-column dot ([`Kernel::dot4`], one left-operand load feeding four
//! accumulator chains), and the broadcast-GEMM rank-1 update
//! ([`Kernel::axpy`] / the register-resident panel form
//! [`Kernel::axpy_panel`], which sums a whole `KC`-deep right-operand tile
//! into one output segment). [`Kernel`] abstracts exactly those primitives
//! so one backend serves both pipeline precisions:
//!
//! | backend | where | f32 lanes | f64 lanes |
//! |---|---|---|---|
//! | [`ScalarKernel`] | everywhere | 1 (8-acc ILP) | 1 (8-acc ILP) |
//! | [`Avx2Kernel`] | `x86_64` with AVX2+FMA | 8 | 4 |
//!
//! # Dispatch
//!
//! The active backend is resolved **once per process**, on first use, from
//! the `HERQLES_KERNEL` environment variable:
//!
//! * `auto` (default) — AVX2+FMA when the CPU has it, scalar otherwise;
//! * `scalar` — force the reference backend;
//! * `avx2` — force AVX2+FMA; **panics** if the host lacks it (a silently
//!   ignored override would invalidate a recorded experiment).
//!
//! [`select_kernel`] overrides the choice programmatically at any point
//! (benches use it to emit scalar-vs-dispatched rows from one process);
//! [`active_kernel_name`] reports what is live. Every backend computes the
//! same results up to floating-point reassociation and FMA contraction —
//! the kernel-parity suite (`crates/nn/tests/kernel_parity.rs`) pins each
//! backend against [`ScalarKernel`] under documented ULP tolerances, and
//! [`ScalarKernel`] itself is bit-identical to the pre-SIMD hand-written
//! loops, so `HERQLES_KERNEL=scalar` reproduces historical results exactly.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::Real;

/// One SIMD (or scalar) implementation of the GEMM primitives at scalar
/// type `R`.
///
/// All slice arguments of one call **must share one length** — the GEMM
/// callers guarantee it, and the scalar reference debug-asserts it.
/// Implementations stay memory-safe on unequal lengths (the AVX2 paths
/// bound their pointers by the common prefix) but the *value* computed is
/// then unspecified and differs between backends. `out`-accumulating
/// methods (`axpy`, `axpy_panel`) must add into `out`, never overwrite it.
pub trait Kernel<R: Real>: Send + Sync {
    /// Backend label (`"scalar"` / `"avx2"`), used by bench rows and tests.
    fn name(&self) -> &'static str;

    /// Contiguous dot product `Σ a[i]·b[i]`.
    fn dot(&self, a: &[R], b: &[R]) -> R;

    /// Register-blocked 4-column dot: `[Σ a·b0, Σ a·b1, Σ a·b2, Σ a·b3]`.
    ///
    /// The tall-skinny GEMM calls this with four consecutive rows of the
    /// transposed right operand so each left-operand load feeds four
    /// accumulator chains.
    fn dot4(&self, a: &[R], bs: [&[R]; 4]) -> [R; 4];

    /// Rank-1 update segment `out[i] += alpha · x[i]`.
    ///
    /// `alpha == 0` must leave `out` untouched (the broadcast GEMM leans on
    /// this to skip ReLU-sparse left operands).
    fn axpy(&self, alpha: R, x: &[R], out: &mut [R]);

    /// Register-resident panel update
    /// `out[i] += Σ_l alphas[l] · rhs[l·stride + i]` for `i < out.len()`.
    ///
    /// The broadcast GEMM calls this once per output row and `KC × NC`
    /// tile, with `rhs` starting at the tile's first element and `stride`
    /// the right operand's row length. Rows are accumulated in ascending
    /// `l`, and a zero alpha is skipped: its row is never read, so a
    /// blown-up (`∞`/`NaN`) weight behind a ReLU zero cannot turn `0 · ∞`
    /// into `NaN`. Every backend is therefore bit-identical to
    /// `alphas.len()` sequential [`Kernel::axpy`] calls on that same
    /// backend — the default body is exactly that loop — and SIMD
    /// overrides differ only in keeping `out` in registers across the rows.
    ///
    /// # Panics
    ///
    /// Panics if `alphas` is non-empty and
    /// `rhs.len() < (alphas.len() − 1)·stride + out.len()`.
    fn axpy_panel(&self, alphas: &[R], rhs: &[R], stride: usize, out: &mut [R]) {
        let n = out.len();
        for (l, &alpha) in alphas.iter().enumerate() {
            self.axpy(alpha, &rhs[l * stride..l * stride + n], out);
        }
    }

    /// Whether the tall-skinny GEMM should present work to this backend in
    /// column quads ([`Kernel::dot4`]) rather than one column at a time.
    ///
    /// SIMD backends say `true`: the quad form amortizes left-operand loads
    /// across register-blocked accumulator chains. The
    /// scalar reference says `false` — measured on the reference container,
    /// funneling four array-returning dot calls through one statement
    /// defeats LLVM's scalar-replacement + vectorization of the plain
    /// per-column dot loop and costs ~3.5× on the fused-MF GEMM, so the
    /// scalar arm keeps the exact pre-backend loop shape instead.
    fn quad_blocked(&self) -> bool {
        true
    }

    /// Carrier mix-accumulate: the multiplexed-readout modulation
    /// `i_out[t] += bi[t]·cos[t] − bq[t]·sin[t]`,
    /// `q_out[t] += bi[t]·sin[t] + bq[t]·cos[t]`.
    ///
    /// The default body is the historical per-sample scalar expression in
    /// its exact operation order, so every non-overriding backend (the
    /// scalar reference in particular) is bit-identical to the pre-batched
    /// synthesis loop. The AVX2 override contracts the multiplies into
    /// FMAs, diverging by at most the contraction rounding.
    fn mix_accum(
        &self,
        bi: &[R],
        bq: &[R],
        cos: &[R],
        sin: &[R],
        i_out: &mut [R],
        q_out: &mut [R],
    ) {
        let n = bi
            .len()
            .min(bq.len())
            .min(cos.len())
            .min(sin.len())
            .min(i_out.len())
            .min(q_out.len());
        for t in 0..n {
            let (si, sq) = (bi[t], bq[t]);
            let (c, sn) = (cos[t], sin[t]);
            i_out[t] += si * c - sq * sn;
            q_out[t] += si * sn + sq * c;
        }
    }
}

/// The portable reference backend: plain Rust loops with the 8-accumulator
/// dot-product fan-out the workspace has always used, bit-identical to the
/// pre-SIMD `gemm_into`/`gemm_rt_into` on every input.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl<R: Real> Kernel<R> for ScalarKernel {
    #[inline(always)]
    fn name(&self) -> &'static str {
        "scalar"
    }

    /// Eight-accumulator contiguous dot product; the accumulator fan-out
    /// breaks the add dependency chain so the loop saturates the FMA ports
    /// even without explicit SIMD.
    #[inline(always)]
    fn dot(&self, a: &[R], b: &[R]) -> R {
        debug_assert_eq!(a.len(), b.len(), "kernel slices must share a length");
        let mut acc = [R::ZERO; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ta, tb) = (ca.remainder(), cb.remainder());
        for (x, y) in ca.zip(cb) {
            for i in 0..8 {
                acc[i] += x[i] * y[i];
            }
        }
        let mut tail = R::ZERO;
        for (&x, &y) in ta.iter().zip(tb) {
            tail += x * y;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    }

    #[inline(always)]
    fn dot4(&self, a: &[R], bs: [&[R]; 4]) -> [R; 4] {
        [
            self.dot(a, bs[0]),
            self.dot(a, bs[1]),
            self.dot(a, bs[2]),
            self.dot(a, bs[3]),
        ]
    }

    #[inline(always)]
    fn axpy(&self, alpha: R, x: &[R], out: &mut [R]) {
        if alpha == R::ZERO {
            // ReLU activations make training matmuls sparse.
            return;
        }
        for (o, &v) in out.iter_mut().zip(x) {
            *o += alpha * v;
        }
    }

    #[inline(always)]
    fn quad_blocked(&self) -> bool {
        false
    }
}

/// The `x86_64` AVX2+FMA backend: 8-lane f32 / 4-lane f64 microkernels via
/// `std::arch` intrinsics behind `#[target_feature]`.
///
/// Instances are only obtainable through [`Avx2Kernel::get`], which returns
/// `Some` exactly when the running CPU reports AVX2 **and** FMA — the safe
/// trait methods may therefore call the `target_feature` functions without
/// re-checking. Results differ from [`ScalarKernel`] only by reduction
/// order and FMA contraction (unrounded multiply feeding the add), bounded
/// by the kernel-parity suite's ULP tolerances.
#[derive(Debug, Clone, Copy)]
pub struct Avx2Kernel(());

/// The one (zero-sized) AVX2 backend instance [`Avx2Kernel::get`] hands out.
static AVX2_INSTANCE: Avx2Kernel = Avx2Kernel(());

impl Avx2Kernel {
    /// The AVX2+FMA backend, iff the host supports it (always `None` off
    /// `x86_64`).
    pub fn get() -> Option<&'static Avx2Kernel> {
        if avx2_available() {
            Some(&AVX2_INSTANCE)
        } else {
            None
        }
    }
}

/// Whether the running CPU supports the [`Avx2Kernel`] (AVX2 and FMA).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel<f32> for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: an Avx2Kernel only exists when AVX2+FMA were detected.
        unsafe { avx2::dot_f32(a, b) }
    }

    fn dot4(&self, a: &[f32], bs: [&[f32]; 4]) -> [f32; 4] {
        // SAFETY: as above.
        unsafe { avx2::dot4_f32(a, bs) }
    }

    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]) {
        if alpha == 0.0 {
            return;
        }
        // SAFETY: as above.
        unsafe { avx2::axpy_f32(alpha, x, out) }
    }

    fn axpy_panel(&self, alphas: &[f32], rhs: &[f32], stride: usize, out: &mut [f32]) {
        check_panel(alphas.len(), rhs.len(), stride, out.len());
        // SAFETY: as above; `check_panel` bounds every row the body reads.
        unsafe { avx2::axpy_panel_f32(alphas, rhs, stride, out) }
    }

    fn mix_accum(
        &self,
        bi: &[f32],
        bq: &[f32],
        cos: &[f32],
        sin: &[f32],
        i_out: &mut [f32],
        q_out: &mut [f32],
    ) {
        // SAFETY: as above.
        unsafe { avx2::mix_accum_f32(bi, bq, cos, sin, i_out, q_out) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel<f64> for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: an Avx2Kernel only exists when AVX2+FMA were detected.
        unsafe { avx2::dot_f64(a, b) }
    }

    fn dot4(&self, a: &[f64], bs: [&[f64]; 4]) -> [f64; 4] {
        // SAFETY: as above.
        unsafe { avx2::dot4_f64(a, bs) }
    }

    fn axpy(&self, alpha: f64, x: &[f64], out: &mut [f64]) {
        if alpha == 0.0 {
            return;
        }
        // SAFETY: as above.
        unsafe { avx2::axpy_f64(alpha, x, out) }
    }

    fn axpy_panel(&self, alphas: &[f64], rhs: &[f64], stride: usize, out: &mut [f64]) {
        check_panel(alphas.len(), rhs.len(), stride, out.len());
        // SAFETY: as above; `check_panel` bounds every row the body reads.
        unsafe { avx2::axpy_panel_f64(alphas, rhs, stride, out) }
    }

    fn mix_accum(
        &self,
        bi: &[f64],
        bq: &[f64],
        cos: &[f64],
        sin: &[f64],
        i_out: &mut [f64],
        q_out: &mut [f64],
    ) {
        // SAFETY: as above.
        unsafe { avx2::mix_accum_f64(bi, bq, cos, sin, i_out, q_out) }
    }
}

/// The bound [`Kernel::axpy_panel`] documents: `k` rows of `n` elements,
/// `stride` apart, must fit in `rhs_len`.
#[cfg(target_arch = "x86_64")]
fn check_panel(k: usize, rhs_len: usize, stride: usize, n: usize) {
    let fits = k == 0
        || (k - 1)
            .checked_mul(stride)
            .and_then(|start| start.checked_add(n))
            .is_some_and(|end| end <= rhs_len);
    assert!(
        fits,
        "axpy_panel: rhs holds fewer than alphas.len() rows of out.len()"
    );
}

/// Off `x86_64` the type still exists (so generic code and the parity
/// harness compile everywhere) but [`Avx2Kernel::get`] never hands one out;
/// these impls delegate to the scalar reference and are unreachable in
/// practice.
#[cfg(not(target_arch = "x86_64"))]
impl<R: Real> Kernel<R> for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot(&self, a: &[R], b: &[R]) -> R {
        ScalarKernel.dot(a, b)
    }

    fn dot4(&self, a: &[R], bs: [&[R]; 4]) -> [R; 4] {
        ScalarKernel.dot4(a, bs)
    }

    fn axpy(&self, alpha: R, x: &[R], out: &mut [R]) {
        ScalarKernel.axpy(alpha, x, out);
    }
}

/// A requestable backend: what `HERQLES_KERNEL` and [`select_kernel`]
/// accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The portable reference loops.
    Scalar,
    /// AVX2+FMA microkernels (requires hardware support).
    Avx2,
    /// Best available: [`KernelBackend::Avx2`] when supported, else scalar.
    Auto,
}

impl KernelBackend {
    /// Parses a `HERQLES_KERNEL` value.
    pub fn parse(s: &str) -> Result<KernelBackend, KernelSelectError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelBackend::Scalar),
            "avx2" => Ok(KernelBackend::Avx2),
            "auto" | "" => Ok(KernelBackend::Auto),
            other => Err(KernelSelectError {
                reason: format!("unknown kernel backend {other:?} (expected scalar|avx2|auto)"),
            }),
        }
    }
}

/// Why a kernel selection was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSelectError {
    reason: String,
}

impl std::fmt::Display for KernelSelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for KernelSelectError {}

/// The resolved backend, process-wide: 0 = not yet resolved, 1 = scalar,
/// 2 = avx2. Both precisions share one selection so an `f32` and an `f64`
/// pipeline in the same process always ride the same backend.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

pub(crate) const SCALAR_ID: u8 = 1;
const AVX2_ID: u8 = 2;

fn backend_id(backend: KernelBackend) -> Result<u8, KernelSelectError> {
    match backend {
        KernelBackend::Scalar => Ok(SCALAR_ID),
        KernelBackend::Avx2 => {
            if avx2_available() {
                Ok(AVX2_ID)
            } else {
                Err(KernelSelectError {
                    reason: "HERQLES_KERNEL=avx2 requested but this CPU lacks AVX2+FMA \
                             (use scalar or auto)"
                        .to_string(),
                })
            }
        }
        KernelBackend::Auto => Ok(if avx2_available() { AVX2_ID } else { SCALAR_ID }),
    }
}

/// Resolves the active backend id, reading `HERQLES_KERNEL` on first use.
///
/// # Panics
///
/// Panics if the environment variable holds an unknown value or requests
/// `avx2` on hardware without it — a silently ignored override would
/// invalidate a recorded experiment.
pub(crate) fn resolved() -> u8 {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let requested = match std::env::var("HERQLES_KERNEL") {
                Ok(v) => KernelBackend::parse(&v).unwrap_or_else(|e| panic!("{e}")),
                Err(_) => KernelBackend::Auto,
            };
            let id = backend_id(requested).unwrap_or_else(|e| panic!("{e}"));
            // A concurrent first-use resolves to the same id (env + CPUID
            // are process-constant), so a plain store is race-free in effect.
            ACTIVE.store(id, Ordering::Relaxed);
            id
        }
        id => id,
    }
}

/// Overrides the process-wide kernel selection and returns the name of the
/// now-active backend.
///
/// Takes effect for every subsequent GEMM in the process (calls already in
/// flight on other threads finish on the backend they started with — both
/// compute the same results within the parity tolerances). Selecting
/// [`KernelBackend::Avx2`] on hardware without it fails without changing
/// the selection.
pub fn select_kernel(backend: KernelBackend) -> Result<&'static str, KernelSelectError> {
    let id = backend_id(backend)?;
    ACTIVE.store(id, Ordering::Relaxed);
    Ok(id_name(id))
}

fn id_name(id: u8) -> &'static str {
    match id {
        SCALAR_ID => "scalar",
        AVX2_ID => "avx2",
        _ => unreachable!("unknown kernel backend id {id}"),
    }
}

/// The name of the backend the GEMMs are currently dispatched to
/// (`"scalar"` or `"avx2"`), resolving `HERQLES_KERNEL` if this is the
/// first kernel use of the process.
pub fn active_kernel_name() -> &'static str {
    id_name(resolved())
}

macro_rules! active_fn {
    ($name:ident, $t:ty) => {
        /// The dispatched backend at this scalar type (monomorphic so the
        /// sealed [`Real::kernel`] impls can reference it directly).
        pub(crate) fn $name() -> &'static dyn Kernel<$t> {
            match resolved() {
                SCALAR_ID => &ScalarKernel,
                _ => &AVX2_INSTANCE,
            }
        }
    };
}

active_fn!(active_f32, f32);
active_fn!(active_f64, f64);

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The `#[target_feature]` bodies. Callers guarantee AVX2+FMA (see
    //! [`super::Avx2Kernel`]); every function handles arbitrary slice
    //! lengths with a scalar tail, so all m/k/n remainder edges of the
    //! blocked GEMMs land here rather than in the callers.

    use std::arch::x86_64::*;

    /// Horizontal sum of 8 f32 lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_ps(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Horizontal sum of 4 f64 lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pd(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// 8-lane f32 dot with a 4-vector (32 MAC/iter) main loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let mut sum = hsum_ps(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// 4-lane f64 dot with a 4-vector (16 MAC/iter) main loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 8)),
                _mm256_loadu_pd(bp.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 12)),
                _mm256_loadu_pd(bp.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            i += 4;
        }
        let mut sum = hsum_pd(_mm256_add_pd(
            _mm256_add_pd(acc0, acc1),
            _mm256_add_pd(acc2, acc3),
        ));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// Register-blocked 4-column f32 dot: two a-vectors per iteration feed
    /// eight accumulator chains (4 columns × 2-deep unroll).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot4_f32(a: &[f32], bs: [&[f32]; 4]) -> [f32; 4] {
        let n = bs.iter().fold(a.len(), |acc, b| acc.min(b.len()));
        let ap = a.as_ptr();
        let bp = [
            bs[0].as_ptr(),
            bs[1].as_ptr(),
            bs[2].as_ptr(),
            bs[3].as_ptr(),
        ];
        let mut lo = [_mm256_setzero_ps(); 4];
        let mut hi = [_mm256_setzero_ps(); 4];
        let mut i = 0;
        while i + 16 <= n {
            let va0 = _mm256_loadu_ps(ap.add(i));
            let va1 = _mm256_loadu_ps(ap.add(i + 8));
            for j in 0..4 {
                lo[j] = _mm256_fmadd_ps(va0, _mm256_loadu_ps(bp[j].add(i)), lo[j]);
                hi[j] = _mm256_fmadd_ps(va1, _mm256_loadu_ps(bp[j].add(i + 8)), hi[j]);
            }
            i += 16;
        }
        while i + 8 <= n {
            let va = _mm256_loadu_ps(ap.add(i));
            for j in 0..4 {
                lo[j] = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp[j].add(i)), lo[j]);
            }
            i += 8;
        }
        let mut out = [0.0f32; 4];
        for j in 0..4 {
            out[j] = hsum_ps(_mm256_add_ps(lo[j], hi[j]));
        }
        while i < n {
            for j in 0..4 {
                out[j] += a[i] * bs[j][i];
            }
            i += 1;
        }
        out
    }

    /// Register-blocked 4-column f64 dot (4 columns × 2-deep unroll).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot4_f64(a: &[f64], bs: [&[f64]; 4]) -> [f64; 4] {
        let n = bs.iter().fold(a.len(), |acc, b| acc.min(b.len()));
        let ap = a.as_ptr();
        let bp = [
            bs[0].as_ptr(),
            bs[1].as_ptr(),
            bs[2].as_ptr(),
            bs[3].as_ptr(),
        ];
        let mut lo = [_mm256_setzero_pd(); 4];
        let mut hi = [_mm256_setzero_pd(); 4];
        let mut i = 0;
        while i + 8 <= n {
            let va0 = _mm256_loadu_pd(ap.add(i));
            let va1 = _mm256_loadu_pd(ap.add(i + 4));
            for j in 0..4 {
                lo[j] = _mm256_fmadd_pd(va0, _mm256_loadu_pd(bp[j].add(i)), lo[j]);
                hi[j] = _mm256_fmadd_pd(va1, _mm256_loadu_pd(bp[j].add(i + 4)), hi[j]);
            }
            i += 8;
        }
        while i + 4 <= n {
            let va = _mm256_loadu_pd(ap.add(i));
            for j in 0..4 {
                lo[j] = _mm256_fmadd_pd(va, _mm256_loadu_pd(bp[j].add(i)), lo[j]);
            }
            i += 4;
        }
        let mut out = [0.0f64; 4];
        for j in 0..4 {
            out[j] = hsum_pd(_mm256_add_pd(lo[j], hi[j]));
        }
        while i < n {
            for j in 0..4 {
                out[j] += a[i] * bs[j][i];
            }
            i += 1;
        }
        out
    }

    /// f32 `out += alpha · x` over the common length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_f32(alpha: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len().min(out.len());
        let va = _mm256_set1_ps(alpha);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let o = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(op.add(i)));
            _mm256_storeu_ps(op.add(i), o);
            i += 8;
        }
        while i < n {
            out[i] += alpha * x[i];
            i += 1;
        }
    }

    /// f64 `out += alpha · x` over the common length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_f64(alpha: f64, x: &[f64], out: &mut [f64]) {
        let n = x.len().min(out.len());
        let va = _mm256_set1_pd(alpha);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            let o = _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(op.add(i)));
            _mm256_storeu_pd(op.add(i), o);
            i += 4;
        }
        while i < n {
            out[i] += alpha * x[i];
            i += 1;
        }
    }

    /// Nonzero alphas compacted per batch: one `KC`-deep GEMM tile.
    const PANEL: usize = 64;

    /// Emits the `axpy_panel` body for one precision: `$sweep::<V>` holds
    /// `V` vectors of `out` in registers while every compacted row is
    /// fused into them, and the body walks `out` in 8-vector chunks, one
    /// `V = 1..=7` chunk for the rest, then the `n mod lanes` tail with
    /// the same unfused multiply + add as [`axpy_f32`]/[`axpy_f64`].
    macro_rules! axpy_panel {
        ($name:ident, $sweep:ident, $t:ty, $lanes:expr,
         $zero:ident, $set1:ident, $load:ident, $store:ident, $fmadd:ident) => {
            /// `out += Σ_l alphas[l] · rhs[l·stride..]` (see
            /// [`super::Kernel::axpy_panel`]); bitwise equal to sequential
            /// axpys.
            ///
            /// # Safety
            ///
            /// AVX2+FMA must be available, and every row must lie in
            /// `rhs`: `(alphas.len() − 1)·stride + out.len() ≤ rhs.len()`
            /// (`super::check_panel`).
            #[target_feature(enable = "avx2", enable = "fma")]
            pub unsafe fn $name(alphas: &[$t], rhs: &[$t], stride: usize, out: &mut [$t]) {
                let n = out.len();
                let body = n - n % $lanes;
                let (rp, op) = (rhs.as_ptr(), out.as_mut_ptr());
                let mut a = [0.0 as $t; PANEL];
                let mut rows = [0usize; PANEL];
                for (batch, chunk) in alphas.chunks(PANEL).enumerate() {
                    // Branch-free compaction: ReLU zeros follow no pattern
                    // a branch predictor could learn.
                    let mut nz = 0;
                    for (j, &alpha) in chunk.iter().enumerate() {
                        a[nz] = alpha;
                        rows[nz] = (batch * PANEL + j) * stride;
                        nz += usize::from(alpha != 0.0);
                    }
                    let (a, rows) = (&a[..nz], &rows[..nz]);
                    if a.is_empty() {
                        continue;
                    }
                    let mut c = 0;
                    while c + 8 * $lanes <= body {
                        $sweep::<8>(a, rows, rp, op, c);
                        c += 8 * $lanes;
                    }
                    match (body - c) / $lanes {
                        0 => {}
                        1 => $sweep::<1>(a, rows, rp, op, c),
                        2 => $sweep::<2>(a, rows, rp, op, c),
                        3 => $sweep::<3>(a, rows, rp, op, c),
                        4 => $sweep::<4>(a, rows, rp, op, c),
                        5 => $sweep::<5>(a, rows, rp, op, c),
                        6 => $sweep::<6>(a, rows, rp, op, c),
                        _ => $sweep::<7>(a, rows, rp, op, c),
                    }
                    for c in body..n {
                        let mut o = out[c];
                        for (&alpha, &row) in a.iter().zip(rows) {
                            o += alpha * rhs[row + c];
                        }
                        out[c] = o;
                    }
                }
            }

            /// `V` vectors of `out` from column `c`, fused with every row.
            ///
            /// # Safety
            ///
            /// AVX2+FMA must be available; `op[c..c + V·lanes]` and, for
            /// each compacted row offset, `rp[row + c..row + c + V·lanes]`
            /// must be in bounds.
            #[inline]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $sweep<const V: usize>(
                a: &[$t],
                rows: &[usize],
                rp: *const $t,
                op: *mut $t,
                c: usize,
            ) {
                let mut acc = [$zero(); V];
                for (v, acc) in acc.iter_mut().enumerate() {
                    *acc = $load(op.add(c + v * $lanes));
                }
                for (&alpha, &row) in a.iter().zip(rows) {
                    let va = $set1(alpha);
                    let x = rp.add(row + c);
                    for (v, acc) in acc.iter_mut().enumerate() {
                        *acc = $fmadd(va, $load(x.add(v * $lanes)), *acc);
                    }
                }
                for (v, acc) in acc.iter().enumerate() {
                    $store(op.add(c + v * $lanes), *acc);
                }
            }
        };
    }

    axpy_panel!(
        axpy_panel_f32,
        sweep_f32,
        f32,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps
    );
    axpy_panel!(
        axpy_panel_f64,
        sweep_f64,
        f64,
        4,
        _mm256_setzero_pd,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_fmadd_pd
    );

    /// f32 carrier mix-accumulate (see [`super::Kernel::mix_accum`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mix_accum_f32(
        bi: &[f32],
        bq: &[f32],
        cos: &[f32],
        sin: &[f32],
        i_out: &mut [f32],
        q_out: &mut [f32],
    ) {
        let n = bi
            .len()
            .min(bq.len())
            .min(cos.len())
            .min(sin.len())
            .min(i_out.len())
            .min(q_out.len());
        let (bip, bqp, cp, sp) = (bi.as_ptr(), bq.as_ptr(), cos.as_ptr(), sin.as_ptr());
        let (ip, qp) = (i_out.as_mut_ptr(), q_out.as_mut_ptr());
        let mut t = 0;
        while t + 8 <= n {
            let vbi = _mm256_loadu_ps(bip.add(t));
            let vbq = _mm256_loadu_ps(bqp.add(t));
            let vc = _mm256_loadu_ps(cp.add(t));
            let vs = _mm256_loadu_ps(sp.add(t));
            let mut vi = _mm256_loadu_ps(ip.add(t));
            let mut vq = _mm256_loadu_ps(qp.add(t));
            vi = _mm256_fmadd_ps(vbi, vc, vi);
            vi = _mm256_fnmadd_ps(vbq, vs, vi);
            vq = _mm256_fmadd_ps(vbi, vs, vq);
            vq = _mm256_fmadd_ps(vbq, vc, vq);
            _mm256_storeu_ps(ip.add(t), vi);
            _mm256_storeu_ps(qp.add(t), vq);
            t += 8;
        }
        while t < n {
            i_out[t] += bi[t] * cos[t] - bq[t] * sin[t];
            q_out[t] += bi[t] * sin[t] + bq[t] * cos[t];
            t += 1;
        }
    }

    /// f64 carrier mix-accumulate (see [`super::Kernel::mix_accum`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mix_accum_f64(
        bi: &[f64],
        bq: &[f64],
        cos: &[f64],
        sin: &[f64],
        i_out: &mut [f64],
        q_out: &mut [f64],
    ) {
        let n = bi
            .len()
            .min(bq.len())
            .min(cos.len())
            .min(sin.len())
            .min(i_out.len())
            .min(q_out.len());
        let (bip, bqp, cp, sp) = (bi.as_ptr(), bq.as_ptr(), cos.as_ptr(), sin.as_ptr());
        let (ip, qp) = (i_out.as_mut_ptr(), q_out.as_mut_ptr());
        let mut t = 0;
        while t + 4 <= n {
            let vbi = _mm256_loadu_pd(bip.add(t));
            let vbq = _mm256_loadu_pd(bqp.add(t));
            let vc = _mm256_loadu_pd(cp.add(t));
            let vs = _mm256_loadu_pd(sp.add(t));
            let mut vi = _mm256_loadu_pd(ip.add(t));
            let mut vq = _mm256_loadu_pd(qp.add(t));
            vi = _mm256_fmadd_pd(vbi, vc, vi);
            vi = _mm256_fnmadd_pd(vbq, vs, vi);
            vq = _mm256_fmadd_pd(vbi, vs, vq);
            vq = _mm256_fmadd_pd(vbq, vc, vq);
            _mm256_storeu_pd(ip.add(t), vi);
            _mm256_storeu_pd(qp.add(t), vq);
            t += 4;
        }
        while t < n {
            i_out[t] += bi[t] * cos[t] - bq[t] * sin[t];
            q_out[t] += bi[t] * sin[t] + bq[t] * cos[t];
            t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing() {
        assert_eq!(KernelBackend::parse("scalar"), Ok(KernelBackend::Scalar));
        assert_eq!(KernelBackend::parse("AVX2"), Ok(KernelBackend::Avx2));
        assert_eq!(KernelBackend::parse(" auto "), Ok(KernelBackend::Auto));
        assert!(KernelBackend::parse("neon").is_err());
    }

    #[test]
    fn scalar_dot_matches_naive_sum() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64) * 0.25 - 4.0).collect();
        let b: Vec<f64> = (0..37).map(|i| 1.5 - (i as f64) * 0.125).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got: f64 = ScalarKernel.dot(&a, &b);
        assert!((got - naive).abs() < 1e-12, "{got} vs {naive}");
    }

    #[test]
    fn scalar_axpy_skips_zero_alpha() {
        let x = [f64::NAN; 3];
        let mut out = [1.0, 2.0, 3.0];
        ScalarKernel.axpy(0.0, &x, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0], "alpha == 0 must not touch out");
    }

    #[test]
    fn scalar_axpy_panel_is_sequential_axpys() {
        // Four rows of stride 11, each read as a 9-wide segment.
        let rhs: Vec<f64> = (0..3 * 11 + 9).map(|i| i as f64 * 0.5).collect();
        let alphas = [0.5, -1.0, 0.0, 2.0];
        let mut fused = vec![1.0; 9];
        let mut seq = vec![1.0; 9];
        ScalarKernel.axpy_panel(&alphas, &rhs, 11, &mut fused);
        for (l, &alpha) in alphas.iter().enumerate() {
            ScalarKernel.axpy(alpha, &rhs[l * 11..l * 11 + 9], &mut seq);
        }
        assert_eq!(fused, seq);
    }

    #[test]
    #[should_panic]
    fn axpy_panel_rejects_a_short_rhs() {
        let mut out = [0.0f64; 4];
        // Two rows of stride 4 need 8 elements.
        <f64 as Real>::kernel().axpy_panel(&[1.0, 1.0], &[0.0; 7], 4, &mut out);
    }

    #[test]
    fn selection_is_reversible_and_reports_names() {
        let scalar = select_kernel(KernelBackend::Scalar).expect("scalar always selectable");
        assert_eq!(scalar, "scalar");
        assert_eq!(active_kernel_name(), "scalar");
        assert_eq!(<f64 as Real>::kernel().name(), "scalar");
        assert_eq!(<f32 as Real>::kernel().name(), "scalar");
        let auto = select_kernel(KernelBackend::Auto).expect("auto always selectable");
        assert_eq!(auto, active_kernel_name());
        assert_eq!(<f64 as Real>::kernel().name(), auto);
        if avx2_available() {
            assert_eq!(auto, "avx2");
            assert!(Avx2Kernel::get().is_some());
        } else {
            assert_eq!(auto, "scalar");
            assert!(Avx2Kernel::get().is_none());
            assert!(select_kernel(KernelBackend::Avx2).is_err());
        }
        // Selection is process-global: put back whatever HERQLES_KERNEL
        // asked for so the rest of this test binary (and the CI kernel
        // matrix's scalar arm in particular) runs on the requested backend.
        let requested = std::env::var("HERQLES_KERNEL")
            .ok()
            .and_then(|v| KernelBackend::parse(&v).ok())
            .unwrap_or(KernelBackend::Auto);
        select_kernel(requested).expect("restoring the env-requested backend");
    }
}
