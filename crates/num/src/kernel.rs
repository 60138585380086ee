//! SIMD microkernel backends for the `Real`-generic GEMMs.
//!
//! The hot path of the whole workspace — the fused demod + matched-filter
//! GEMM, the NN heads, the streaming discriminate stage — bottoms out in
//! three primitive shapes: a contiguous dot product, a block of dot
//! products between a few left-operand rows and a few right-operand
//! columns ([`Kernel::dot_tile`], whose SIMD bodies share each column load
//! across a register tile of rows), and the broadcast-GEMM rank-1 update
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

    /// Block of dot products between left-operand rows and right-operand
    /// columns: `out[i·cols.len() + j] = Σ_t rows[i][t] · cols[j][t]`.
    ///
    /// The tall-skinny GEMM hands it a short block of output rows and all
    /// their (≤ 16) columns, so a backend can reuse each column from L1
    /// across the block's rows; any row and column count is accepted.
    /// Every element must be bitwise this backend's [`Kernel::dot`] of its
    /// row and column, whatever else shares the block, so a GEMM row's bits
    /// do not depend on its neighbours. The default body is the per-column
    /// `dot` loop; SIMD overrides share each column load across a register
    /// tile of rows.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows.len() · cols.len()`.
    fn dot_tile(&self, rows: &[&[R]], cols: &[&[R]], out: &mut [R]) {
        check_tile(rows.len(), cols.len(), out.len());
        if cols.is_empty() {
            return;
        }
        for (a, out_row) in rows.iter().zip(out.chunks_exact_mut(cols.len())) {
            for (o, b) in out_row.iter_mut().zip(cols) {
                *o = self.dot(a, b);
            }
        }
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
        // Hide the reduction tree from the loop: seeing it, LLVM pairs
        // accumulators (i, i + 4) into vectors and shuffles every load, at
        // half the throughput. The sums are unchanged.
        let acc = std::hint::black_box(acc);
        let mut tail = R::ZERO;
        for (&x, &y) in ta.iter().zip(tb) {
            tail += x * y;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
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
        let mut out = [0.0];
        self.dot_tile(&[a], &[b], &mut out);
        out[0]
    }

    fn dot_tile(&self, rows: &[&[f32]], cols: &[&[f32]], out: &mut [f32]) {
        check_tile(rows.len(), cols.len(), out.len());
        // SAFETY: an Avx2Kernel only exists when AVX2+FMA were detected,
        // and `check_tile` sized `out`.
        unsafe { avx2::dot_tile_f32(rows, cols, out) }
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
        let mut out = [0.0];
        self.dot_tile(&[a], &[b], &mut out);
        out[0]
    }

    fn dot_tile(&self, rows: &[&[f64]], cols: &[&[f64]], out: &mut [f64]) {
        check_tile(rows.len(), cols.len(), out.len());
        // SAFETY: an Avx2Kernel only exists when AVX2+FMA were detected,
        // and `check_tile` sized `out`.
        unsafe { avx2::dot_tile_f64(rows, cols, out) }
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

/// The shape [`Kernel::dot_tile`] documents: `out` holds one element per
/// row and column.
fn check_tile(rows: usize, cols: usize, out: usize) {
    assert_eq!(
        out,
        rows * cols,
        "dot_tile: out must hold rows.len() · cols.len() elements"
    );
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

    /// Rows × columns of the per-element accumulator state one block of
    /// [`dot_tile_f32`]/[`dot_tile_f64`] keeps on the stack; bigger tiles
    /// are walked block by block.
    const TILE_ROWS: usize = 8;
    const TILE_COLS: usize = 16;

    /// Bytes of every row and column one k-block spans: 256 `f64` or 512
    /// `f32` samples. The readout front end's 10 weight columns then take
    /// 20 KiB and a block's 8 rows 16 KiB, so the columns stay in L1 while
    /// every register tile of the block sweeps them.
    const K_BLOCK_BYTES: usize = 2048;

    /// Register tile: 2 rows × at most 5 columns is 10 accumulators, 2 row
    /// vectors and 1 column vector of the 16 `ymm` registers.
    const REG_ROWS: usize = 2;
    const REG_COLS: usize = 5;

    /// Emits the `dot_tile` body for one precision: `$block` walks one
    /// block k-block by k-block, and `$micro::<R, C>` fuses one k-block
    /// into an `R × C` register tile whose every column load feeds `R`
    /// accumulators.
    macro_rules! dot_tile {
        ($name:ident, $block:ident, $micro:ident, $t:ty, $v:ty, $lanes:expr,
         $zero:ident, $load:ident, $fmadd:ident, $hsum:ident) => {
            /// `out[i·cols.len() + j] = Σ_t rows[i][t] · cols[j][t]` (see
            /// [`super::Kernel::dot_tile`]). Every element is one FMA chain
            /// per lane over the whole-vector body, reduced by the
            /// horizontal sum, then the tail added in order: the same bits
            /// in any block, register tile or k-block. Reads each slice only
            /// below the shortest length.
            ///
            /// # Safety
            ///
            /// AVX2+FMA must be available.
            ///
            /// # Panics
            ///
            /// Panics if `out` is shorter than `rows.len() · cols.len()`.
            #[target_feature(enable = "avx2", enable = "fma")]
            pub unsafe fn $name(rows: &[&[$t]], cols: &[&[$t]], out: &mut [$t]) {
                let stride = cols.len();
                for (rb, rows) in rows.chunks(TILE_ROWS).enumerate() {
                    for (cb, cols) in cols.chunks(TILE_COLS).enumerate() {
                        let at = rb * TILE_ROWS * stride + cb * TILE_COLS;
                        $block(rows, cols, &mut out[at..], stride);
                    }
                }
            }

            /// One block of at most `TILE_ROWS × TILE_COLS` elements, into
            /// `out[i·stride + j]`. K-blocks are the outer loop, so the
            /// block's columns are read from memory once per k-block, not
            /// once per row; the accumulators carry across k-blocks.
            ///
            /// # Safety
            ///
            /// AVX2+FMA must be available.
            ///
            /// # Panics
            ///
            /// Panics if `rows.len() > TILE_ROWS`, `cols.len() > TILE_COLS`,
            /// or `out` lacks element `(rows.len() − 1)·stride +
            /// cols.len() − 1`.
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $block(rows: &[&[$t]], cols: &[&[$t]], out: &mut [$t], stride: usize) {
                let (nr, nc) = (rows.len(), cols.len());
                let len = rows.iter().chain(cols).map(|s| s.len()).min().unwrap_or(0);
                let body = len - len % $lanes;
                let mut ap = [std::ptr::null::<$t>(); TILE_ROWS];
                for (p, row) in ap.iter_mut().zip(rows) {
                    *p = row.as_ptr();
                }
                let mut bp = [std::ptr::null::<$t>(); TILE_COLS];
                for (p, col) in bp.iter_mut().zip(cols) {
                    *p = col.as_ptr();
                }
                let mut acc = [[$zero(); TILE_COLS]; TILE_ROWS];
                // Column groups as even as ≤ REG_COLS allows: 16 → 4 × 4,
                // 7 → 4 + 3, so no register tile is left one column wide.
                let groups = nc.div_ceil(REG_COLS);
                let k_block = K_BLOCK_BYTES / std::mem::size_of::<$t>();
                let mut k0 = 0;
                while k0 < body {
                    let k1 = body.min(k0 + k_block);
                    for r in (0..nr).step_by(REG_ROWS) {
                        let tr = REG_ROWS.min(nr - r);
                        let mut c = 0;
                        for g in 0..groups {
                            let tc = (nc - c).div_ceil(groups - g);
                            // The micro-tile's contract holds: `ap[r..r + tr]`
                            // and `bp[c..c + tc]` point into slices of at
                            // least `len ≥ k1` elements, and `k0`, `k1` are
                            // multiples of the lane count.
                            let (a, b) = (&ap[r..], &bp[c..]);
                            let span = (r, c, k0, k1);
                            match (tr, tc) {
                                (2, 5) => $micro::<2, 5>(a, b, &mut acc, span),
                                (2, 4) => $micro::<2, 4>(a, b, &mut acc, span),
                                (2, 3) => $micro::<2, 3>(a, b, &mut acc, span),
                                (2, 2) => $micro::<2, 2>(a, b, &mut acc, span),
                                (2, _) => $micro::<2, 1>(a, b, &mut acc, span),
                                (_, 5) => $micro::<1, 5>(a, b, &mut acc, span),
                                (_, 4) => $micro::<1, 4>(a, b, &mut acc, span),
                                (_, 3) => $micro::<1, 3>(a, b, &mut acc, span),
                                (_, 2) => $micro::<1, 2>(a, b, &mut acc, span),
                                _ => $micro::<1, 1>(a, b, &mut acc, span),
                            }
                            c += tc;
                        }
                    }
                    k0 = k1;
                }
                for (i, (row, acc)) in rows.iter().zip(&acc).enumerate() {
                    for (j, (col, &v)) in cols.iter().zip(acc).enumerate() {
                        let mut sum = $hsum(v);
                        for t in body..len {
                            sum += row[t] * col[t];
                        }
                        out[i * stride + j] = sum;
                    }
                }
            }

            /// Fuses samples `k0..k1` of `R` rows from `a` and `C` columns
            /// from `b` into accumulators `[r][c]..[r + R][c + C]`, where
            /// `(r, c, k0, k1) = span`.
            ///
            /// # Safety
            ///
            /// AVX2+FMA must be available; `a` and `b` hold at least `R`
            /// and `C` pointers, each valid for `k1` elements, and `k1 − k0`
            /// is a multiple of the lane count.
            #[inline]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $micro<const R: usize, const C: usize>(
                a: &[*const $t],
                b: &[*const $t],
                acc: &mut [[$v; TILE_COLS]; TILE_ROWS],
                (r, c, k0, k1): (usize, usize, usize, usize),
            ) {
                let a: [*const $t; R] = a[..R].try_into().expect("R row pointers");
                let b: [*const $t; C] = b[..C].try_into().expect("C column pointers");
                let mut s = [[$zero(); C]; R];
                for (s, acc) in s.iter_mut().zip(&acc[r..]) {
                    s.copy_from_slice(&acc[c..c + C]);
                }
                let mut t = k0;
                while t < k1 {
                    let mut va = [$zero(); R];
                    for (v, p) in va.iter_mut().zip(&a) {
                        *v = $load(p.add(t));
                    }
                    for (j, p) in b.iter().enumerate() {
                        let vb = $load(p.add(t));
                        for (s, &v) in s.iter_mut().zip(&va) {
                            s[j] = $fmadd(v, vb, s[j]);
                        }
                    }
                    t += $lanes;
                }
                for (s, acc) in s.iter().zip(&mut acc[r..]) {
                    acc[c..c + C].copy_from_slice(s);
                }
            }
        };
    }

    dot_tile!(
        dot_tile_f32,
        tile_block_f32,
        tile_micro_f32,
        f32,
        __m256,
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_fmadd_ps,
        hsum_ps
    );
    dot_tile!(
        dot_tile_f64,
        tile_block_f64,
        tile_micro_f64,
        f64,
        __m256d,
        4,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_fmadd_pd,
        hsum_pd
    );

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
