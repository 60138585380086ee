//! Row-major real matrix with a cache-blocked, thread-parallel matmul,
//! generic over the scalar precision `R` ([`Real`], default `f64`).
//!
//! Deliberately minimal: just what dense-layer training and batched readout
//! inference need. The matmul kernel ([`gemm_into`]) streams each output row
//! against an L1-resident right-operand tile (`KC × NC` doubles = 32 KiB)
//! and, when the problem is large enough, hands fixed-size output-row
//! blocks to the crate's one persistent [`ShardPool`], whose workers and
//! calling thread claim them dynamically. It is exposed on raw slices so
//! callers owning flat buffers (e.g. `ShotBatch` planes) can multiply with
//! zero copies. Its single-thread body is one crate-internal helper that
//! `Mlp::forward` also runs on 16-row inference tiles, so a network's
//! layers do exactly the per-row arithmetic of [`Matrix::matmul`] without a
//! per-layer matrix or fan-out.
//!
//! Every inner loop — one register-resident panel update
//! ([`Kernel::axpy_panel`]) per output row and tile on the broadcast path,
//! one block of dot products ([`Kernel::dot_tile`]) per row block on the
//! tall-skinny path — runs on the
//! process-dispatched SIMD microkernel backend ([`herqles_num::kernel`]):
//! AVX2+FMA on `x86_64` CPUs that support it, the bit-identical-to-history
//! scalar reference otherwise, overridable with
//! `HERQLES_KERNEL=scalar|avx2|auto`. The `*_with` variants
//! ([`gemm_into_with`], [`gemm_rt_into_with`]) take an explicit backend so
//! the kernel-parity suite can compare them head to head in one process.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

use herqles_exec::ShardPool;
use herqles_num::kernel::{active_kernel_name, Kernel, ScalarKernel};
use herqles_num::Real;

/// Minimum number of multiply-accumulates before a matmul (or a whole
/// `Mlp::forward`) splits its rows across the shared pool.
///
/// Measured on the 2-vCPU AVX2 box: one thread sustains 4–13 GMAC/s (with
/// the panel microkernel: 64³: 4.6, 16×1000×500: 13.5, the five-qubit head
/// forward ≈ 10; with the dot-tile skinny kernel, 256×1000×5: 9.8–12.0 and
/// the front end's 1024×1000×10: 10.1–11.2), so 2^18 MACs is 20–65 µs of
/// work. A fan-out of 16 empty tasks on a warm 2-thread `ShardPool` costs
/// 2.4 µs (p50 of 2000) while its worker still spins from the last one and
/// 5.1 µs (p90 11.9 µs) after a 1 ms idle gap has parked it. A split at
/// the threshold pays: the head forward took 54 µs (p50) on one thread and
/// 35 µs pooled at 108 rows (64 + 44), 499 µs and 286 µs at 1024 rows.
/// Every GEMM of the benchmarked paths sits either far below 2^18 (stream
/// discrimination) or above 2^21 (1024-shot readout batches), so the value
/// is kept; lowering it needs the in-between shapes measured first.
const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Right-operand tile depth (rows of `rhs` per tile).
const KC: usize = 64;

/// Right-operand tile width (columns of `rhs` per tile); `KC × NC` doubles
/// fill a 32 KiB L1 data cache (an f32 tile uses half of it — still a win,
/// as the tile then shares L1 with the streamed left operand).
const NC: usize = 64;

/// Output rows per [`Kernel::dot_tile`] on the tall-skinny path: the rows
/// that share each L1-resident segment of the transposed right operand.
const ROW_BLOCK: usize = 8;

/// Rows per pooled task when a product splits ([`for_row_blocks`]): a
/// multiple of [`ROW_BLOCK`] and of `Mlp::forward`'s 16-row inference tile,
/// so no block ends in a partial tile but the last. A 1024-shot readout
/// batch is 16 blocks, so a worker that wakes late still finds some left.
const SPLIT_ROWS: usize = 64;

/// Column count at or below which the kernel switches to the tall-skinny
/// path ([`Rhs::Skinny`]): transpose `rhs` once, then compute each output
/// element as a contiguous dot product, a [`ROW_BLOCK`] of rows and up to
/// this many columns per [`Kernel::dot_tile`]. The fused readout filter
/// banks have 5–10 columns; the dot-product form streams both operands
/// linearly and keeps its accumulators in registers.
const SKINNY_N: usize = 16;

/// A dense row-major matrix of reals.
///
/// Generic over the scalar `R` ([`Real`], default `f64`): `Matrix` in type
/// position keeps meaning the double-precision matrix every training path
/// uses, while `Matrix<f32>` carries single-precision activation planes at
/// twice the SIMD width.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<R: Real = f64> {
    rows: usize,
    cols: usize,
    data: Vec<R>,
}

impl<R: Real> Matrix<R> {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![R::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<R>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose rows are the given slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<R>]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> R {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: R) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[R] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [R] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[R] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [R] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix<R>) -> Matrix<R> {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm_into(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix<R> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix<R>) -> Matrix<R> {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix<R>) -> Matrix<R> {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scaled copy.
    pub fn scale(&self, k: R) -> Matrix<R> {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&a| a * k).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(R) -> R>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm, accumulated in `f64` regardless of `R`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let v = v.to_f64();
                v * v
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Widens (or rounds) every element into another precision.
    pub fn to_precision<R2: Real>(&self) -> Matrix<R2> {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data
                .iter()
                .map(|&v| R2::from_f64(v.to_f64()))
                .collect(),
        )
    }
}

/// Computes `out = lhs · rhs` on flat row-major slices:
/// `[m × k] · [k × n] → [m × n]`.
///
/// `out` is fully overwritten. The kernel tiles `rhs` into `KC × NC` blocks
/// that stay L1-resident while every output row streams against them, and
/// splits output rows across the crate's shared thread pool once the MAC
/// count crosses `PARALLEL_THRESHOLD` (2^18). This is the workhorse behind
/// both [`Matrix::matmul`] and the zero-copy batched readout-inference
/// kernels, which own flat buffers rather than `Matrix` values.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_into<R: Real>(lhs: &[R], rhs: &[R], out: &mut [R], m: usize, k: usize, n: usize) {
    // The scalar arm is monomorphized (concrete `&ScalarKernel`, not the
    // `&dyn` the dispatcher hands out) so its inner loops inline and LLVM
    // auto-vectorizes them exactly like the pre-backend code — hosts
    // without SIMD support, and `HERQLES_KERNEL=scalar` runs, keep their
    // historical throughput. SIMD backends lose nothing behind `dyn`:
    // their bodies are `target_feature` functions that cannot inline into
    // generic callers anyway.
    if active_kernel_name() == "scalar" {
        gemm_into_with(&ScalarKernel, lhs, rhs, out, m, k, n);
    } else {
        gemm_into_with(R::kernel(), lhs, rhs, out, m, k, n);
    }
}

/// [`gemm_into`] on an explicit microkernel backend instead of the
/// process-dispatched one. The kernel-parity tests use this to compare
/// backends within one process; production callers use [`gemm_into`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_into_with<R: Real, K: Kernel<R> + ?Sized>(
    kernel: &K,
    lhs: &[R],
    rhs: &[R],
    out: &mut [R],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * k, "lhs length must equal m*k");
    assert_eq!(rhs.len(), k * n, "rhs length must equal k*n");
    assert_eq!(out.len(), m * n, "out length must equal m*n");
    let rhs = Rhs::new(rhs, k, n);
    for_row_blocks(m * k * n, m, lhs, k, out, n, |lhs, out, rows| {
        gemm_rows_into(kernel, lhs, &rhs, out, rows, k, n);
    });
}

/// Runs `body(lhs_rows, out_rows, rows)` over the `rows` rows of a product
/// of `work` multiply-accumulates whose row `r` reads `lhs_width` values of
/// `lhs` and writes `out_width` values of `out`.
///
/// Below [`PARALLEL_THRESHOLD`], within one [`SPLIT_ROWS`] block or on a
/// one-core machine, `body` runs once on the whole problem. Otherwise the
/// crate's one [`ShardPool`] — built at the first split, sized to the
/// machine — runs it on [`SPLIT_ROWS`] blocks that its workers and the
/// calling thread claim as they come free. `body` computes each row from
/// that row alone, so the split moves no bit. No task publishes a fan-out,
/// so none nests on the pool; callers on other threads queue for it, and a
/// call from another pool's task or caller step is fine.
pub(crate) fn for_row_blocks<R: Real>(
    work: usize,
    rows: usize,
    lhs: &[R],
    lhs_width: usize,
    out: &mut [R],
    out_width: usize,
    body: impl Fn(&[R], &mut [R], usize) + Sync,
) {
    static POOL: OnceLock<ShardPool> = OnceLock::new();
    let pool = (work >= PARALLEL_THRESHOLD && rows > SPLIT_ROWS)
        .then(|| {
            POOL.get_or_init(|| {
                ShardPool::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
            })
        })
        .filter(|pool| pool.threads() > 1);
    let Some(pool) = pool else {
        return body(lhs, out, rows);
    };
    let mut blocks: Vec<(&[R], &mut [R])> = lhs
        .chunks(SPLIT_ROWS * lhs_width)
        .zip(out.chunks_mut(SPLIT_ROWS * out_width))
        .collect();
    pool.run_mut(&mut blocks, |_, (lhs, out)| {
        body(lhs, out, lhs.len() / lhs_width)
    });
}

/// A `[k × n]` right operand prepared for [`gemm_rows_into`]: the
/// skinny-or-blocked choice, made once per operand so every row block —
/// one thread's share, or one inference tile — reuses it.
pub(crate) enum Rhs<'a, R: Real> {
    /// Broadcast path over `KC × NC` tiles of the row-major operand.
    Blocked(&'a [R]),
    /// Tall-skinny path (`n ≤ SKINNY_N`, `k ≥ 2·SKINNY_N`): the `[n × k]`
    /// transpose, so each output element is one contiguous dot product.
    /// The broadcast kernel loads and stores the whole `n`-wide output
    /// segment per left-operand element, which for small `n` is 2 memory
    /// ops per FMA; the transpose is O(k·n), amortized over all rows.
    Skinny(Vec<R>),
}

impl<'a, R: Real> Rhs<'a, R> {
    /// Prepares `rhs` (`[k × n]`, row-major; lengths checked by callers).
    pub(crate) fn new(rhs: &'a [R], k: usize, n: usize) -> Self {
        if n > 0 && n <= SKINNY_N && k >= 2 * SKINNY_N {
            let mut rt = vec![R::ZERO; k * n];
            for (l, row) in rhs.chunks_exact(n).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    rt[j * k + l] = v;
                }
            }
            Rhs::Skinny(rt)
        } else {
            Rhs::Blocked(rhs)
        }
    }
}

/// The single-thread body of [`gemm_into`]: `out = lhs · rhs` over `m`
/// rows (`lhs` is `[m × k]`, `out` is `[m × n]`). Each output row's
/// arithmetic depends only on that row, so any split of the rows — pooled
/// row blocks in [`gemm_into`], inference tiles in `Mlp::forward` —
/// computes the same bits as one call over all of them.
pub(crate) fn gemm_rows_into<R: Real, K: Kernel<R> + ?Sized>(
    kernel: &K,
    lhs: &[R],
    rhs: &Rhs<'_, R>,
    out: &mut [R],
    m: usize,
    k: usize,
    n: usize,
) {
    out.fill(R::ZERO);
    match rhs {
        Rhs::Skinny(rt) => gemm_rows_skinny(kernel, lhs, rt, out, m, k, n),
        Rhs::Blocked(rhs) => gemm_rows(kernel, lhs, rhs, out, m, k, n),
    }
}

/// Computes `out = lhs · rhs_tᵀ` where `rhs_t` is stored **transposed**
/// (`[n × k]` row-major): `[m × k] · [k × n] → [m × n]`.
///
/// The fast path for callers that can keep the right operand transposed for
/// the lifetime of a kernel (e.g. compiled readout filter banks): every
/// output element is a contiguous dot product with no per-call transpose or
/// tile traffic. Parallelized over output-row blocks like [`gemm_into`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_rt_into<R: Real>(lhs: &[R], rhs_t: &[R], out: &mut [R], m: usize, k: usize, n: usize) {
    // Monomorphized scalar arm, as in [`gemm_into`].
    if active_kernel_name() == "scalar" {
        gemm_rt_into_with(&ScalarKernel, lhs, rhs_t, out, m, k, n);
    } else {
        gemm_rt_into_with(R::kernel(), lhs, rhs_t, out, m, k, n);
    }
}

/// [`gemm_rt_into`] on an explicit microkernel backend instead of the
/// process-dispatched one (see [`gemm_into_with`]).
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_rt_into_with<R: Real, K: Kernel<R> + ?Sized>(
    kernel: &K,
    lhs: &[R],
    rhs_t: &[R],
    out: &mut [R],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * k, "lhs length must equal m*k");
    assert_eq!(rhs_t.len(), k * n, "rhs_t length must equal k*n");
    assert_eq!(out.len(), m * n, "out length must equal m*n");
    for_row_blocks(m * k * n, m, lhs, k, out, n, |lhs, out, rows| {
        gemm_rows_skinny(kernel, lhs, rhs_t, out, rows, k, n);
    });
}

/// Tall-skinny kernel: `rhs_t` is the `[n × k]` transpose of `rhs`, so every
/// output element is a dot product of two contiguous slices. Rows go in
/// blocks of [`ROW_BLOCK`], columns in chunks of up to [`SKINNY_N`], one
/// [`Kernel::dot_tile`] per block and chunk: the SIMD backends then read
/// each column segment from memory once per block, not once per row. Every
/// element of a tile depends only on its own row and column, so a row's
/// bits do not depend on its block, the batch size or the thread split.
fn gemm_rows_skinny<R: Real, K: Kernel<R> + ?Sized>(
    kernel: &K,
    lhs: &[R],
    rhs_t: &[R],
    out: &mut [R],
    rows: usize,
    inner: usize,
    rcols: usize,
) {
    let mut a: [&[R]; ROW_BLOCK] = [&[]; ROW_BLOCK];
    let mut b: [&[R]; SKINNY_N] = [&[]; SKINNY_N];
    let mut narrow = [R::ZERO; ROW_BLOCK * SKINNY_N];
    for r0 in (0..rows).step_by(ROW_BLOCK) {
        let nr = ROW_BLOCK.min(rows - r0);
        for (i, a) in a[..nr].iter_mut().enumerate() {
            *a = &lhs[(r0 + i) * inner..(r0 + i + 1) * inner];
        }
        let out_block = &mut out[r0 * rcols..(r0 + nr) * rcols];
        for c0 in (0..rcols).step_by(SKINNY_N) {
            let nc = SKINNY_N.min(rcols - c0);
            for (j, b) in b[..nc].iter_mut().enumerate() {
                *b = &rhs_t[(c0 + j) * inner..(c0 + j + 1) * inner];
            }
            if nc == rcols {
                kernel.dot_tile(&a[..nr], &b[..nc], out_block);
            } else {
                // More than SKINNY_N columns: the tile's rows are narrower
                // than the output's, so copy them across.
                let narrow = &mut narrow[..nr * nc];
                kernel.dot_tile(&a[..nr], &b[..nc], narrow);
                for (out_row, tile_row) in out_block
                    .chunks_exact_mut(rcols)
                    .zip(narrow.chunks_exact(nc))
                {
                    out_row[c0..c0 + nc].copy_from_slice(tile_row);
                }
            }
        }
    }
}

/// Accumulates `lhs · rhs` into `out` (`rows` rows, already zeroed). Each
/// output row takes one [`Kernel::axpy_panel`] per `KC × NC` right-operand
/// tile: the SIMD backends keep the row's `NC`-wide segment in registers
/// across the tile's `KC` rows, and every backend skips the zero
/// (ReLU-sparse) multipliers without reading their rows.
fn gemm_rows<R: Real, K: Kernel<R> + ?Sized>(
    kernel: &K,
    lhs: &[R],
    rhs: &[R],
    out: &mut [R],
    rows: usize,
    inner: usize,
    rcols: usize,
) {
    for jc in (0..rcols).step_by(NC) {
        let jw = NC.min(rcols - jc);
        for kc in (0..inner).step_by(KC) {
            let kw = KC.min(inner - kc);
            // The rhs tile rows [kc, kc+kw) × cols [jc, jc+jw) are revisited
            // by every output row below and stay L1-resident.
            let tile = &rhs[kc * rcols + jc..];
            for r in 0..rows {
                kernel.axpy_panel(
                    &lhs[r * inner + kc..r * inner + kc + kw],
                    tile,
                    rcols,
                    &mut out[r * rcols + jc..r * rcols + jc + jw],
                );
            }
        }
    }
}

impl<R: Real> fmt::Display for Matrix<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for l in 0..a.cols() {
                    acc += a.get(r, l) * b.get(l, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        // xorshift-based fill; deterministic and dependency-free.
        let mut state = seed | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 500.0 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn small_matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn blocked_matmul_matches_naive() {
        let a = pseudo_random(33, 47, 1);
        let b = pseudo_random(47, 29, 2);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.sub(&slow).frobenius_norm() < 1e-9);
    }

    #[test]
    fn parallel_matmul_matches_naive() {
        // Big enough to cross PARALLEL_THRESHOLD and split into two
        // SPLIT_ROWS blocks.
        let a = pseudo_random(128, 200, 3);
        let b = pseudo_random(200, 64, 4);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.sub(&slow).frobenius_norm() < 1e-8);
    }

    #[test]
    fn skinny_matmul_matches_naive() {
        // n ≤ SKINNY_N and k ≥ 2·SKINNY_N exercises the transposed
        // dot-product kernel.
        let a = pseudo_random(17, 200, 9);
        let b = pseudo_random(200, 5, 10);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.sub(&slow).frobenius_norm() < 1e-9);
    }

    #[test]
    fn gemm_rt_matches_gemm() {
        let a = pseudo_random(23, 150, 11);
        let b = pseudo_random(150, 7, 12);
        let reference = a.matmul(&b);
        let bt = b.transpose();
        let mut out = vec![0.0; 23 * 7];
        gemm_rt_into(a.as_slice(), bt.as_slice(), &mut out, 23, 150, 7);
        let out = Matrix::from_vec(23, 7, out);
        assert!(out.sub(&reference).frobenius_norm() < 1e-9);
    }

    #[test]
    fn gemm_rt_parallel_path_matches() {
        // Large enough to cross PARALLEL_THRESHOLD: four full SPLIT_ROWS
        // blocks and a ragged fifth.
        let a = pseudo_random(300, 500, 13);
        let b = pseudo_random(500, 4, 14);
        let bt = b.transpose();
        let mut out = vec![0.0; 300 * 4];
        gemm_rt_into(a.as_slice(), bt.as_slice(), &mut out, 300, 500, 4);
        let slow = naive_matmul(&a, &b);
        let out = Matrix::from_vec(300, 4, out);
        assert!(out.sub(&slow).frobenius_norm() < 1e-8);
    }

    /// Each output row of the tall-skinny GEMM must not depend on the rows
    /// computed with it: row `r` of an `m`-row call is `to_bits`-equal to
    /// the same row of a 1024-row call (which the pool splits into 16
    /// blocks), at the front end's depth `k = 1000`, for every skinny
    /// width, at the start and at the end of the batch, on the scalar
    /// reference and on the dispatched backend.
    #[test]
    fn gemm_rt_rows_do_not_depend_on_the_batch() {
        const M: usize = 1024;
        const K: usize = 1000;
        let lhs = pseudo_random(M, K, 21);
        for n in 1..=SKINNY_N {
            let rhs_t = pseudo_random(n, K, 22 + n as u64);
            let gemm = |scalar: bool, rows: &[f64], m: usize| {
                let mut out = vec![0.0; m * n];
                if scalar {
                    gemm_rt_into_with(&ScalarKernel, rows, rhs_t.as_slice(), &mut out, m, K, n);
                } else {
                    gemm_rt_into(rows, rhs_t.as_slice(), &mut out, m, K, n);
                }
                out
            };
            for scalar in [true, false] {
                let full = gemm(scalar, lhs.as_slice(), M);
                for m in [1, 2, 3, 5, 17] {
                    for first in [0, M - m] {
                        let part = gemm(scalar, &lhs.as_slice()[first * K..(first + m) * K], m);
                        for (i, (p, f)) in part.iter().zip(&full[first * n..]).enumerate() {
                            assert_eq!(
                                p.to_bits(),
                                f.to_bits(),
                                "scalar {scalar} n {n}: row {} of {m} from {first}, column {}",
                                i / n,
                                i % n,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs_t length")]
    fn gemm_rt_rejects_bad_lengths() {
        let mut out = vec![0.0; 4];
        gemm_rt_into(&[1.0, 2.0], &[1.0], &mut out, 2, 1, 2);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = pseudo_random(5, 9, 5);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.get(2, 1), a.get(1, 2));
        assert_eq!((t.rows(), t.cols()), (3, 2));
    }

    #[test]
    fn distributivity_holds() {
        let a = pseudo_random(8, 6, 6);
        let b = pseudo_random(6, 7, 7);
        let c = pseudo_random(6, 7, 8);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert!(left.sub(&right).frobenius_norm() < 1e-9);
    }

    #[test]
    fn scale_and_norm() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((a.scale(2.0).frobenius_norm() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a: Matrix = Matrix::zeros(2, 3);
        let b: Matrix = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn map_inplace_applies_function() {
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        m.map_inplace(|x| x.max(0.0));
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
