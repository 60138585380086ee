//! Kernel-parity harness: every SIMD backend against the scalar reference.
//!
//! The SIMD microkernels ([`herqles_num::kernel`]) are the first codepath
//! in the workspace whose results may *legitimately* differ from the
//! historical scalar pins: AVX2 reduces dot products over 8 (f32) / 4
//! (f64) lanes × 4 accumulators instead of the scalar 8-accumulator
//! fan-out, and FMA contracts each multiply-add to one rounding. Parity is
//! therefore **tolerance-based, not bit-exact**, with the bound derived
//! from what reassociation can actually move:
//!
//! For a dot of length `k` with partial sums reassociated into any tree,
//! each backend's error against the exact sum is bounded by
//! `~k · eps · Σ|aᵢ·bᵢ|`; the *difference between two backends* is at most
//! the sum of both. We pin `|scalar − simd| ≤ TOL_ULPS · eps_R · A` with
//! `A = Σ|aᵢ||bᵢ|` accumulated in `f64` and `TOL_ULPS = 32` — roughly 32
//! ULPs of the absolute-value dot, far above anything reassociation over
//! ≤ 8-lane × 4-acc trees plus FMA contraction produces for these shapes
//! (observed ≲ 4), far below any real kernel bug (a single dropped or
//! doubled element shows up at `~eps⁻¹` ULPs).
//!
//! The sweep covers every remainder edge the blocked GEMMs have: m, k, n
//! of 0 and 1, below/at/above the 8-lane f32 and 4-lane f64 widths, the
//! 32-element f32 (16-element f64) unrolled main-loop steps, the `KC`/`NC`
//! = 64 tile boundaries, the `SKINNY_N` = 16 path switch, and a
//! tall-skinny shape crossing the parallel threshold — for both `f32` and
//! `f64`, with seeded deterministic inputs. The panel update
//! [`Kernel::axpy_panel`] is held to more than the tolerance: on every
//! backend it must be bit-identical to sequential `axpy` calls on that
//! backend, which is what keeps inference tiles and GEMM row splits from
//! moving any logit.

use herqles_num::kernel::{Avx2Kernel, Kernel, ScalarKernel};
use herqles_num::Real;
use readout_nn::matrix::{gemm_into_with, gemm_rt_into_with};

/// Backend-difference headroom, in ULPs of the absolute-value dot.
const TOL_ULPS: f64 = 32.0;

/// Deterministic xorshift fill in `[-1, 1)`, matching the matrix tests'
/// generator so sweep inputs are reproducible from the seed alone.
fn pseudo_random<R: Real>(len: usize, seed: u64) -> Vec<R> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            R::from_f64((state % 1000) as f64 / 500.0 - 1.0)
        })
        .collect()
}

/// `Σ |a[r,·]| · |b[·,c]|` in `f64`: the scale the ULP tolerance is
/// relative to.
fn abs_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum()
}

/// Asserts two same-shape outputs agree within `TOL_ULPS` ULPs of the
/// per-element absolute-value dot.
fn assert_close<R: Real>(
    label: &str,
    scalar: &[R],
    simd: &[R],
    abs: &[f64],
    (m, k, n): (usize, usize, usize),
) {
    assert_eq!(scalar.len(), simd.len());
    for (i, (&s, &v)) in scalar.iter().zip(simd).enumerate() {
        let tol = TOL_ULPS * R::EPS.to_f64() * abs[i].max(1.0);
        let diff = (s.to_f64() - v.to_f64()).abs();
        assert!(
            diff <= tol,
            "{label} {}x{}x{} [{}]: scalar {} vs simd {} (diff {diff:e} > tol {tol:e})",
            m,
            k,
            n,
            i,
            s.to_f64(),
            v.to_f64(),
        );
    }
}

/// Shape grid: every lane/unroll/tile remainder class the kernels branch
/// on. `KC = NC = 64` (tile), `SKINNY_N = 16` (path switch), f32 lanes 8
/// (32/iter unrolled), f64 lanes 4 (16/iter unrolled).
fn shape_grid() -> Vec<(usize, usize, usize)> {
    let ms = [0, 1, 2, 3, 7, 33];
    let ks = [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100];
    let ns = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65];
    let mut shapes = Vec::new();
    for &m in &ms {
        for &k in &ks {
            for &n in &ns {
                shapes.push((m, k, n));
            }
        }
    }
    // Tall-skinny shapes: k ≥ 2·SKINNY_N forces the transposed dot-product
    // path; the last one crosses PARALLEL_THRESHOLD (2^18 MACs).
    shapes.extend([(1, 500, 1), (17, 200, 5), (33, 129, 15), (300, 500, 4)]);
    shapes
}

/// Runs the full shape sweep for one precision, comparing `kernel` against
/// the scalar reference through both GEMM entry points.
fn sweep_backend<R: Real>(kernel: &dyn Kernel<R>) {
    let scalar = &ScalarKernel;
    for (si, (m, k, n)) in shape_grid().into_iter().enumerate() {
        let seed = 0x9E37_79B9 + si as u64;
        let lhs: Vec<R> = pseudo_random(m * k, seed);
        let rhs: Vec<R> = pseudo_random(k * n, seed ^ 0xABCD);
        let lhs64: Vec<f64> = lhs.iter().map(|v| v.to_f64()).collect();
        let rhs64: Vec<f64> = rhs.iter().map(|v| v.to_f64()).collect();

        // Per-element |lhs row|·|rhs col| scale for the tolerance.
        let mut abs = vec![0.0f64; m * n];
        let mut rhs_col = vec![0.0f64; k];
        let mut rhs_t: Vec<R> = vec![R::ZERO; k * n];
        for c in 0..n {
            for l in 0..k {
                rhs_col[l] = rhs64[l * n + c];
                rhs_t[c * k + l] = rhs[l * n + c];
            }
            for r in 0..m {
                abs[r * n + c] = abs_dot(&lhs64[r * k..(r + 1) * k], &rhs_col);
            }
        }

        let mut out_scalar = vec![R::ZERO; m * n];
        let mut out_simd = vec![R::ZERO; m * n];
        gemm_into_with(scalar, &lhs, &rhs, &mut out_scalar, m, k, n);
        gemm_into_with(kernel, &lhs, &rhs, &mut out_simd, m, k, n);
        assert_close("gemm_into", &out_scalar, &out_simd, &abs, (m, k, n));

        gemm_rt_into_with(scalar, &lhs, &rhs_t, &mut out_scalar, m, k, n);
        gemm_rt_into_with(kernel, &lhs, &rhs_t, &mut out_simd, m, k, n);
        assert_close("gemm_rt_into", &out_scalar, &out_simd, &abs, (m, k, n));
    }
}

/// Primitive-level sweep: `dot`/`dot4`/`axpy` at every length through the
/// unroll and remainder windows.
fn sweep_primitives<R: Real>(kernel: &dyn Kernel<R>) {
    let scalar = &ScalarKernel;
    for len in 0..=67 {
        let a: Vec<R> = pseudo_random(len, 11 + len as u64);
        let rows: Vec<Vec<R>> = (0..4)
            .map(|j| pseudo_random(len, 171 + j + len as u64))
            .collect();
        let bs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
        let a64: Vec<f64> = a.iter().map(|v| v.to_f64()).collect();

        let abs: Vec<f64> = (0..4)
            .map(|j| {
                let b64: Vec<f64> = rows[j].iter().map(|v| v.to_f64()).collect();
                abs_dot(&a64, &b64)
            })
            .collect();
        let tol = |j: usize| TOL_ULPS * R::EPS.to_f64() * abs[j].max(1.0);

        let d_scalar = scalar.dot(&a, bs[0]).to_f64();
        let d_simd = kernel.dot(&a, bs[0]).to_f64();
        assert!(
            (d_scalar - d_simd).abs() <= tol(0),
            "dot len {len}: {d_scalar} vs {d_simd}"
        );

        let d4_scalar = scalar.dot4(&a, bs);
        let d4_simd = kernel.dot4(&a, bs);
        for j in 0..4 {
            let (s, v) = (d4_scalar[j].to_f64(), d4_simd[j].to_f64());
            assert!(
                (s - v).abs() <= tol(j),
                "dot4 len {len} col {j}: {s} vs {v}"
            );
        }

        // axpy accumulates into a non-trivial out so the update is checked
        // against live partial sums.
        let base: Vec<R> = pseudo_random(len, 999 + len as u64);
        let mut out_scalar = base.clone();
        let mut out_simd = base.clone();
        scalar.axpy(R::from_f64(0.75), bs[0], &mut out_scalar);
        kernel.axpy(R::from_f64(0.75), bs[0], &mut out_simd);
        for i in 0..len {
            let (s, v) = (out_scalar[i].to_f64(), out_simd[i].to_f64());
            let t = TOL_ULPS * R::EPS.to_f64() * (1.0 + s.abs());
            assert!((s - v).abs() <= t, "axpy len {len} [{i}]: {s} vs {v}");
        }
    }
}

/// Panel sweep: `axpy_panel` at every depth `k ∈ 0..=64` (one `KC` tile)
/// and width `0..=67` (every lane/unroll/8-vector chunk remainder), on
/// rows `width + 3` apart. Every third alpha is zero and its row is
/// poisoned with `∞`/`NaN`, which must never be read. The panel must be
/// bitwise equal to sequential `axpy` on the same backend, and within the
/// ULP tolerance of the scalar reference.
fn sweep_panels<R: Real>(kernel: &dyn Kernel<R>) {
    let scalar = &ScalarKernel;
    for k in 0..=64usize {
        for width in 0..=67usize {
            let stride = width + 3;
            let seed = (k * 101 + width) as u64;
            let mut alphas: Vec<R> = pseudo_random(k, 7 + seed);
            let mut rhs: Vec<R> = pseudo_random(k * stride, 13 + seed);
            for l in (0..k).filter(|l| (l + width) % 3 == 0) {
                alphas[l] = R::ZERO;
                let poison = if l % 2 == 0 {
                    R::from_f64(f64::INFINITY)
                } else {
                    R::from_f64(f64::NAN)
                };
                rhs[l * stride..(l + 1) * stride].fill(poison);
            }
            let base: Vec<R> = pseudo_random(width, 999 + seed);
            let row = |l: usize| &rhs[l * stride..l * stride + width];

            let mut sequential = base.clone();
            let mut reference = base.clone();
            let mut abs: Vec<f64> = base.iter().map(|v| v.to_f64().abs()).collect();
            for (l, &alpha) in alphas.iter().enumerate() {
                kernel.axpy(alpha, row(l), &mut sequential);
                scalar.axpy(alpha, row(l), &mut reference);
                if alpha != R::ZERO {
                    for (s, &x) in abs.iter_mut().zip(row(l)) {
                        *s += (alpha.to_f64() * x.to_f64()).abs();
                    }
                }
            }
            let mut panel = base.clone();
            kernel.axpy_panel(&alphas, &rhs, stride, &mut panel);

            for i in 0..width {
                assert_eq!(
                    panel[i].to_f64().to_bits(),
                    sequential[i].to_f64().to_bits(),
                    "{} axpy_panel k {k} width {width} [{i}]: panel {} vs sequential axpy {}",
                    kernel.name(),
                    panel[i].to_f64(),
                    sequential[i].to_f64(),
                );
                let (s, v) = (reference[i].to_f64(), panel[i].to_f64());
                let t = TOL_ULPS * R::EPS.to_f64() * abs[i].max(1.0);
                assert!(
                    (s - v).abs() <= t,
                    "{} axpy_panel k {k} width {width} [{i}]: scalar {s} vs {v}",
                    kernel.name(),
                );
            }
        }
    }
}

/// The backends the host can run beyond the scalar reference. Empty on
/// machines without AVX2+FMA — the sweep then degenerates to
/// scalar-vs-scalar, keeping the harness green (and meaningful under
/// `HERQLES_KERNEL=scalar` CI runs) everywhere.
fn simd_backends<R: Real>() -> Vec<&'static dyn Kernel<R>>
where
    Avx2Kernel: Kernel<R>,
{
    match Avx2Kernel::get() {
        Some(avx2) => vec![avx2],
        None => {
            eprintln!("[kernel_parity] no AVX2+FMA on this host; scalar-only sweep");
            vec![]
        }
    }
}

#[test]
fn scalar_reference_agrees_with_itself_over_the_sweep() {
    // Guards the harness itself: zero diff must pass every shape/length.
    sweep_backend::<f64>(&ScalarKernel);
    sweep_primitives::<f32>(&ScalarKernel);
    sweep_panels::<f64>(&ScalarKernel);
}

#[test]
fn f32_backends_match_scalar_over_shape_sweep() {
    for kernel in simd_backends::<f32>() {
        eprintln!("[kernel_parity] f32 sweep: {} vs scalar", kernel.name());
        sweep_backend::<f32>(kernel);
    }
}

#[test]
fn f64_backends_match_scalar_over_shape_sweep() {
    for kernel in simd_backends::<f64>() {
        eprintln!("[kernel_parity] f64 sweep: {} vs scalar", kernel.name());
        sweep_backend::<f64>(kernel);
    }
}

#[test]
fn f32_primitives_match_scalar_over_length_sweep() {
    for kernel in simd_backends::<f32>() {
        sweep_primitives::<f32>(kernel);
        sweep_panels::<f32>(kernel);
    }
}

#[test]
fn f64_primitives_match_scalar_over_length_sweep() {
    for kernel in simd_backends::<f64>() {
        sweep_primitives::<f64>(kernel);
        sweep_panels::<f64>(kernel);
    }
}

/// A right-operand row behind a zero left-operand element (a ReLU zero) is
/// never read by the broadcast GEMM, so an `∞`/`NaN` weight there cannot
/// turn `0 · ∞` into `NaN`. Shapes stay off the tall-skinny path, whose
/// dot products do multiply every element.
fn poisoned_rows_stay_unread<R: Real>(kernel: &dyn Kernel<R>) {
    for (m, k, n) in [(3, 9, 5), (5, 70, 40), (17, 33, 67)] {
        let mut lhs: Vec<R> = pseudo_random(m * k, 31);
        let mut rhs: Vec<R> = pseudo_random(k * n, 37);
        for l in (0..k).step_by(4) {
            for r in 0..m {
                lhs[r * k + l] = R::ZERO;
            }
            let poison = if l % 8 == 0 {
                R::from_f64(f64::INFINITY)
            } else {
                R::from_f64(f64::NAN)
            };
            rhs[l * n..(l + 1) * n].fill(poison);
        }
        let mut out = vec![R::ZERO; m * n];
        gemm_into_with(kernel, &lhs, &rhs, &mut out, m, k, n);
        assert!(
            out.iter().all(|v| v.to_f64().is_finite()),
            "{} gemm {m}x{k}x{n}: a zero-multiplied ∞/NaN row leaked into the output",
            kernel.name(),
        );
    }
}

#[test]
fn zero_multiplied_nonfinite_rows_leave_gemm_output_finite() {
    poisoned_rows_stay_unread::<f64>(&ScalarKernel);
    poisoned_rows_stay_unread::<f32>(&ScalarKernel);
    poisoned_rows_stay_unread::<f64>(<f64 as Real>::kernel());
    for kernel in simd_backends::<f64>() {
        poisoned_rows_stay_unread::<f64>(kernel);
    }
    for kernel in simd_backends::<f32>() {
        poisoned_rows_stay_unread::<f32>(kernel);
    }
}

#[test]
fn dispatched_gemm_matches_explicit_backend_gemm() {
    // The plain gemm_into must be exactly the _with form on the dispatched
    // backend: same results bit for bit, whatever HERQLES_KERNEL says.
    let kernel = <f64 as Real>::kernel();
    let (m, k, n) = (9, 77, 13);
    let lhs: Vec<f64> = pseudo_random(m * k, 5);
    let rhs: Vec<f64> = pseudo_random(k * n, 6);
    let mut dispatched = vec![0.0; m * n];
    let mut explicit = vec![0.0; m * n];
    readout_nn::matrix::gemm_into(&lhs, &rhs, &mut dispatched, m, k, n);
    gemm_into_with(kernel, &lhs, &rhs, &mut explicit, m, k, n);
    assert_eq!(dispatched, explicit);
}
