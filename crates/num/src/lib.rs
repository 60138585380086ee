//! # herqles-num — the `Real` scalar abstraction
//!
//! The paper's thesis is hardware-efficient readout: matched-filter and RMF
//! discriminators are chosen precisely because they fit narrow FPGA
//! datapaths. The software hot path mirrors that by being generic over the
//! scalar the *digital* pipeline computes in: [`Real`], sealed to `f32` and
//! `f64`.
//!
//! The precision boundary is the ADC. Everything before it (trajectory
//! sampling, dispersive crosstalk, carrier phases — the stand-in for analog
//! physics) stays `f64`, exactly like the continuous voltages it models; the
//! digitized planes (`ShotBatch`, baseband bins, filter weights, GEMM
//! accumulators) carry `R: Real`. With `R = f64` every conversion is the
//! identity and the pipeline is bit-for-bit the pre-generic code; with
//! `R = f32` the same kernels run at twice the SIMD width and half the
//! memory traffic.
//!
//! The trait is deliberately small: conversions, the arithmetic the kernels
//! use, `EPS`-style tolerances for parity tests, and the SplitMix64-seeded
//! (via the workspace [`rand::rngs::StdRng`]) Marsaglia-polar
//! [`Real::sample_gaussian`] that lets amplifier noise be drawn directly at
//! pipeline precision.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::{Random, Rng};

pub mod kernel;
pub mod noisegen;

pub use kernel::{
    active_kernel_name, avx2_available, select_kernel, Avx2Kernel, Kernel, KernelBackend,
    KernelSelectError, ScalarKernel,
};
pub use noisegen::{active_noise_kernel_name, Avx2NoiseKernel, NoiseKernel, ScalarNoiseKernel};

mod sealed {
    /// Prevents downstream impls: every generic kernel in the workspace may
    /// assume `Real` is exactly `f32` or `f64` (e.g. for `Any`-based kernel
    /// selection).
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A hardware floating-point scalar the readout hot path can run in.
///
/// Sealed: implemented for `f32` and `f64` only. All default-parameterized
/// types (`ShotBatch<R>`, `Matrix<R>`, `FusedFilterKernel<R>`,
/// `CycleEngine<R>`, …) use `R = f64`, so pre-existing call sites keep their
/// exact numerics; `R = f32` instantiates the same code at single precision.
pub trait Real:
    sealed::Sealed
    + Copy
    + Default
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + for<'a> Sum<&'a Self>
    + Random
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the format.
    const EPS: Self;
    /// Relative tolerance appropriate for comparing a chain of fused
    /// multiply-accumulates at this precision against an `f64` reference
    /// (used by the precision-parity tests; a few hundred ulps of headroom
    /// over [`Real::EPS`]).
    const PARITY_TOL: f64;
    /// Bench/JSON label of the format (`"f32"` / `"f64"`).
    const NAME: &'static str;
    /// Bit width of the format.
    const BITS: u32;

    /// Rounds an `f64` into this format (identity for `f64`).
    fn from_f64(v: f64) -> Self;

    /// Widens to `f64` (identity for `f64`).
    fn to_f64(self) -> f64;

    /// Converts a count (exact for the sizes this workspace handles).
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }

    /// Absolute value.
    fn abs(self) -> Self;

    /// Square root.
    fn sqrt(self) -> Self;

    /// Natural logarithm.
    fn ln(self) -> Self;

    /// Larger of two values (IEEE `max` semantics of the primitive).
    fn max(self, other: Self) -> Self;

    /// Smaller of two values.
    fn min(self, other: Self) -> Self;

    /// Whether the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// The SIMD microkernel backend the process is dispatched to at this
    /// precision ([`kernel`] module): AVX2+FMA where the CPU supports it,
    /// the scalar reference otherwise, overridable via `HERQLES_KERNEL`
    /// (`scalar|avx2|auto`) or [`kernel::select_kernel`]. The GEMMs in
    /// `readout-nn` route every inner loop through this.
    fn kernel() -> &'static dyn Kernel<Self>;

    /// The bulk Gaussian backend at this precision ([`noisegen`] module),
    /// riding the same process-wide selection as [`Real::kernel`]: the
    /// scalar backend replays [`Real::sample_gaussian`] bit for bit off the
    /// caller's RNG; the AVX2 backend expands one caller draw into an
    /// in-register SplitMix64 → polar pipeline.
    fn noise_kernel() -> &'static dyn NoiseKernel<Self>;

    /// One uniform draw in `[0, 1)` at this precision.
    ///
    /// Consumes exactly one `next_u64` regardless of format, so `f32` and
    /// `f64` pipelines driven by the same seed stay draw-aligned until a
    /// rounding-induced rejection divergence (rare) occurs.
    fn sample_uniform<G: Rng + ?Sized>(rng: &mut G) -> Self {
        Self::random(rng)
    }

    /// One standard-normal draw by the Marsaglia polar method, buffering the
    /// spare deviate in `spare`.
    ///
    /// For `f64` this reproduces the workspace's historical
    /// `GaussianNoise::standard` bit for bit: same uniform mapping, same
    /// constants, same operation order.
    fn sample_gaussian<G: Rng + ?Sized>(rng: &mut G, spare: &mut Option<Self>) -> Self {
        if let Some(z) = spare.take() {
            return z;
        }
        let two = Self::from_f64(2.0);
        loop {
            let u = Self::sample_uniform(rng) * two - Self::ONE;
            let v = Self::sample_uniform(rng) * two - Self::ONE;
            let s = u * u + v * v;
            if s > Self::ZERO && s < Self::ONE {
                let factor = (Self::from_f64(-2.0) * s.ln() / s).sqrt();
                *spare = Some(v * factor);
                return u * factor;
            }
        }
    }
}

macro_rules! impl_real {
    ($t:ty, $name:literal, $bits:literal, $parity_tol:expr, $active_kernel:path, $active_noise:path) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPS: Self = <$t>::EPSILON;
            const PARITY_TOL: f64 = $parity_tol;
            const NAME: &'static str = $name;
            const BITS: u32 = $bits;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }

            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }

            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }

            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }

            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }

            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }

            #[inline]
            fn kernel() -> &'static dyn Kernel<Self> {
                $active_kernel()
            }

            #[inline]
            fn noise_kernel() -> &'static dyn NoiseKernel<Self> {
                $active_noise()
            }
        }
    };
}

impl_real!(
    f32,
    "f32",
    32,
    1e-3,
    kernel::active_f32,
    noisegen::active_noise_f32
);
impl_real!(
    f64,
    "f64",
    64,
    1e-10,
    kernel::active_f64,
    noisegen::active_noise_f64
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(f64::from_f64(1.25), 1.25);
        assert_eq!(f64::to_f64(1.25), 1.25);
        assert_eq!(f32::from_f64(1.25), 1.25f32);
        assert_eq!(f32::from_f64(0.1).to_f64(), 0.1f32 as f64);
        assert_eq!(f32::from_usize(1024), 1024.0f32);
    }

    #[test]
    fn labels_and_widths() {
        assert_eq!(<f32 as Real>::NAME, "f32");
        assert_eq!(<f64 as Real>::NAME, "f64");
        assert_eq!(<f32 as Real>::BITS, 32);
        assert_eq!(<f64 as Real>::BITS, 64);
        let (eps32, eps64) = (<f32 as Real>::EPS, <f64 as Real>::EPS);
        assert!(f64::from(eps32) > eps64);
        let (tol32, tol64) = (<f32 as Real>::PARITY_TOL, <f64 as Real>::PARITY_TOL);
        assert!(tol32 > tol64);
    }

    /// The generic polar sampler instantiated at f64 must match the
    /// historical hand-written f64 implementation draw for draw.
    #[test]
    fn f64_gaussian_matches_reference_polar_method() {
        let reference = |rng: &mut StdRng, spare: &mut Option<f64>| -> f64 {
            if let Some(z) = spare.take() {
                return z;
            }
            loop {
                let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    let factor = (-2.0 * s.ln() / s).sqrt();
                    *spare = Some(v * factor);
                    return u * factor;
                }
            }
        };
        use rand::RngExt;
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let (mut sa, mut sb) = (None, None);
        for _ in 0..64 {
            let x = f64::sample_gaussian(&mut a, &mut sa);
            let y = reference(&mut b, &mut sb);
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn f32_gaussian_has_unit_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut spare = None;
        let n = 100_000;
        let xs: Vec<f32> = (0..n)
            .map(|_| f32::sample_gaussian(&mut rng, &mut spare))
            .collect();
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn uniform_draws_consume_one_word_per_sample_in_both_formats() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            let _: f32 = f32::sample_uniform(&mut a);
            let _: f64 = f64::sample_uniform(&mut b);
        }
        // Both generators must have advanced identically.
        use rand::Rng as _;
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
