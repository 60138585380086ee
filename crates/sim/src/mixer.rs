//! Crosstalk and carrier mixing of one feedline shot.
//!
//! [`ReadoutMixer`] turns a shot's per-channel basebands into its noise-free
//! multiplexed I/Q rows: excitation measures, [`CrosstalkModel`] shifts, then
//! the [`CarrierTable`] mix. It has two arms that produce bit-identical rows:
//!
//! * **Row passes** (the reference): one [`ExcitationProbe::measure`] row per
//!   channel, [`CrosstalkModel::apply_batch`], then
//!   [`crate::multiplex::mix_into_scratch`]. Each stage streams its rows
//!   through memory. This arm runs on the scalar kernel backend and for
//!   chips wider than eight channels.
//! * **Fused register pass** (AVX2 backend, 1–8 channels): each 4-sample
//!   block of the basebands is loaded once. The measures, the linear and
//!   pairwise crosstalk, the transient/gain combine, the conversion to `R`
//!   and the carrier mix stay in registers, and only the output rows are
//!   stored. Per element it performs exactly the row passes' operations in
//!   their order: FMA where the AVX2 `axpy` and `mix_accum` use FMA, plain
//!   multiply and add everywhere else. Samples past the last full vector go
//!   through the row passes on sub-slices, which reproduces the row passes'
//!   own unfused scalar tails.

use herqles_num::Real;

use crate::config::ChipConfig;
use crate::crosstalk::{CrosstalkModel, CrosstalkScratch};
use crate::multiplex::{mix_window, CarrierTable, SynthScratch};
use crate::trace::IqPoint;
use crate::trajectory::ExcitationProbe;

/// Widest chip the fused pass specializes for; wider chips take the row
/// passes.
const MAX_FUSED: usize = 8;
/// Aggressor pairs of a [`MAX_FUSED`]-channel chip.
const MAX_PAIRS: usize = MAX_FUSED * (MAX_FUSED - 1) / 2;
/// `f64` lanes of one AVX2 register: the fused pass's block width.
const FUSED_LANES: usize = 4;

/// Reusable crosstalk-and-carrier mixer of one feedline configuration at
/// output precision `R`.
///
/// Owns everything the mix reads besides the basebands: the carrier table,
/// the crosstalk transient table, the per-channel excitation probes, the
/// row-pass scratch and the fused pass's precomputed plan. Once warm, a mix
/// touches the heap not at all.
#[derive(Debug, Clone)]
pub struct ReadoutMixer<R: Real = f64> {
    crosstalk: CrosstalkModel,
    carriers: CarrierTable,
    /// Per-sample crosstalk transient factors, precomputed once (the sample
    /// clock never changes) so the hot loop evaluates no exponentials.
    transient: Vec<f64>,
    /// Per-channel excitation geometry, precomputed so the per-sample
    /// measure needs no square roots.
    probes: Vec<ExcitationProbe>,
    measures: Vec<Vec<f64>>,
    xtalk: CrosstalkScratch,
    synth: SynthScratch<R>,
    /// The fused pass's coupling tables; `None` for chips wider than
    /// [`MAX_FUSED`].
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    plan: Option<FusedPlan>,
    /// The basebands' last samples, which the fused arm hands to the row
    /// passes.
    tail: Vec<Vec<IqPoint>>,
}

impl<R: Real> ReadoutMixer<R> {
    /// Builds the mixer for `chip` on the sample clock `times_s` (one entry
    /// per raw sample, seconds into the window).
    ///
    /// # Panics
    ///
    /// Panics if `times_s` does not have one entry per raw sample of `chip`.
    pub fn new(chip: &ChipConfig, times_s: &[f64]) -> Self {
        let n = chip.n_qubits();
        let n_samples = chip.n_samples();
        assert_eq!(
            times_s.len(),
            n_samples,
            "one sample time per raw sample required"
        );
        ReadoutMixer {
            crosstalk: chip.crosstalk.clone(),
            carriers: CarrierTable::new(chip),
            transient: chip.crosstalk.transient_table(times_s),
            probes: chip.qubits.iter().map(ExcitationProbe::new).collect(),
            measures: vec![Vec::with_capacity(n_samples); n],
            xtalk: CrosstalkScratch::new(),
            synth: SynthScratch::new(n_samples),
            plan: FusedPlan::new(&chip.crosstalk),
            tail: vec![Vec::with_capacity(2 * FUSED_LANES); n],
        }
    }

    /// Raw samples per mixed shot.
    fn n_samples(&self) -> usize {
        self.transient.len()
    }

    /// Mixes `basebands` (one per channel, one point per raw sample) into
    /// the noise-free I/Q rows, overwriting `i_out` and `q_out`.
    ///
    /// The crosstalk shift is scaled by `gain`; `gain == 1.0` skips the
    /// multiply, like [`CrosstalkModel::apply_batch`]. `basebands` serves
    /// as scratch: its contents afterwards are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if the baseband count or any row length disagrees with the
    /// mixer's chip and window.
    pub fn mix_into(
        &mut self,
        basebands: &mut [Vec<IqPoint>],
        gain: f64,
        i_out: &mut [R],
        q_out: &mut [R],
    ) {
        let ns = self.n_samples();
        assert_eq!(
            basebands.len(),
            self.probes.len(),
            "one baseband per channel required"
        );
        for bb in basebands.iter() {
            assert_eq!(bb.len(), ns, "baseband must match the window");
        }
        assert_eq!(i_out.len(), ns, "I row must match the window");
        assert_eq!(q_out.len(), ns, "Q row must match the window");
        let fused = self.mix_fused(basebands, gain, i_out, q_out);
        if fused == 0 {
            self.row_passes(basebands, 0, gain, i_out, q_out);
        } else if fused < ns {
            let mut tail = std::mem::take(&mut self.tail);
            for (t, bb) in tail.iter_mut().zip(basebands.iter()) {
                t.clear();
                t.extend_from_slice(&bb[fused..]);
            }
            self.row_passes(
                &mut tail,
                fused,
                gain,
                &mut i_out[fused..],
                &mut q_out[fused..],
            );
            self.tail = tail;
        }
    }

    /// The reference arm over the window starting at sample `from`:
    /// `basebands` and the output rows cover `from..from + i_out.len()`.
    fn row_passes(
        &mut self,
        basebands: &mut [Vec<IqPoint>],
        from: usize,
        gain: f64,
        i_out: &mut [R],
        q_out: &mut [R],
    ) {
        for ((probe, bb), meas) in self
            .probes
            .iter()
            .zip(basebands.iter())
            .zip(&mut self.measures)
        {
            meas.clear();
            meas.extend(bb.iter().map(|&s| probe.measure(s)));
        }
        let transient = &self.transient[from..from + i_out.len()];
        self.crosstalk
            .apply_batch(&self.measures, transient, gain, basebands, &mut self.xtalk);
        mix_window(
            &self.carriers,
            basebands,
            from,
            &mut self.synth,
            i_out,
            q_out,
        );
    }

    /// Runs the fused pass over the longest prefix of whole vector blocks
    /// at precision `R` and returns that prefix's length (`0` when the fused
    /// pass does not apply). The row passes round the remaining samples in
    /// their scalar tails.
    fn mix_fused(
        &self,
        basebands: &[Vec<IqPoint>],
        gain: f64,
        i_out: &mut [R],
        q_out: &mut [R],
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if let Some(plan) = &self.plan {
            if herqles_num::active_kernel_name() == "avx2" {
                let ns = self.n_samples();
                let pass = avx2::Pass {
                    plan,
                    probes: &self.probes,
                    basebands,
                    transient: &self.transient,
                    gain,
                };
                macro_rules! by_width {
                    ($f:ident, $planes:expr, $i:expr, $q:expr, $len:expr) => {{
                        let (p, len) = ($planes, $len);
                        // SAFETY: the avx2 kernel backend is only ever
                        // selected on a CPU with AVX2 and FMA.
                        unsafe {
                            match basebands.len() {
                                1 => avx2::$f::<1>(&pass, p, $i, $q, len),
                                2 => avx2::$f::<2>(&pass, p, $i, $q, len),
                                3 => avx2::$f::<3>(&pass, p, $i, $q, len),
                                4 => avx2::$f::<4>(&pass, p, $i, $q, len),
                                5 => avx2::$f::<5>(&pass, p, $i, $q, len),
                                6 => avx2::$f::<6>(&pass, p, $i, $q, len),
                                7 => avx2::$f::<7>(&pass, p, $i, $q, len),
                                8 => avx2::$f::<8>(&pass, p, $i, $q, len),
                                _ => unreachable!("plans exist for 1..=8 channels"),
                            }
                        }
                        len
                    }};
                }
                // The f64 row passes vectorize 4 samples at a time; the f32
                // mix vectorizes 8.
                if let Some((i, q)) = same_type::<R, f64>(i_out, q_out) {
                    let planes = self.carriers.planes::<f64>();
                    return by_width!(mix_f64, planes, i, q, ns - ns % FUSED_LANES);
                }
                if let Some((i, q)) = same_type::<R, f32>(i_out, q_out) {
                    let planes = self.carriers.planes::<f32>();
                    return by_width!(mix_f32, planes, i, q, ns - ns % (2 * FUSED_LANES));
                }
                unreachable!("Real is sealed to f32/f64");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (basebands, gain, i_out, q_out);
        0
    }
}

/// Reinterprets two `R` rows as `T` rows when `R` and `T` are one type.
#[cfg(target_arch = "x86_64")]
fn same_type<'a, R: Real, T: Real>(
    i: &'a mut [R],
    q: &'a mut [R],
) -> Option<(&'a mut [T], &'a mut [T])> {
    use std::any::TypeId;
    if TypeId::of::<R>() != TypeId::of::<T>() {
        return None;
    }
    // SAFETY: `R` and `T` are the same type, so the casts only rename it.
    unsafe {
        Some((
            &mut *(i as *mut [R] as *mut [T]),
            &mut *(q as *mut [R] as *mut [T]),
        ))
    }
}

/// The fused pass's flat copy of a [`CrosstalkModel`]'s coefficients.
///
/// Indexed `[victim][aggressor]` like the model. A zero linear coefficient
/// is skipped, as the `axpy` calls of [`CrosstalkModel::apply_batch`] skip
/// `α = 0`.
#[derive(Debug, Clone)]
struct FusedPlan {
    lin_i: [[f64; MAX_FUSED]; MAX_FUSED],
    lin_q: [[f64; MAX_FUSED]; MAX_FUSED],
    pairwise: [IqPoint; MAX_FUSED],
    strength: [f64; MAX_FUSED],
}

impl FusedPlan {
    /// The plan for `model`, or `None` when it has no channels or more than
    /// [`MAX_FUSED`].
    fn new(model: &CrosstalkModel) -> Option<Self> {
        let n = model.n_qubits();
        if n == 0 || n > MAX_FUSED {
            return None;
        }
        let mut plan = FusedPlan {
            lin_i: [[0.0; MAX_FUSED]; MAX_FUSED],
            lin_q: [[0.0; MAX_FUSED]; MAX_FUSED],
            pairwise: [IqPoint::ZERO; MAX_FUSED],
            strength: [0.0; MAX_FUSED],
        };
        for (v, row) in model.linear.iter().enumerate() {
            for (agg, c) in row.iter().enumerate() {
                plan.lin_i[v][agg] = c.i;
                plan.lin_q[v][agg] = c.q;
            }
        }
        plan.pairwise[..n].copy_from_slice(&model.pairwise);
        plan.strength[..n].copy_from_slice(&model.pair_strength);
        Some(plan)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The `#[target_feature]` bodies of the fused pass. Every operation
    //! mirrors one row-pass operation on the same element; the comments name
    //! the row-pass expression each step reproduces.

    use std::arch::x86_64::*;

    use super::{FusedPlan, MAX_PAIRS};
    use crate::multiplex::CarrierPlanes;
    use crate::trace::IqPoint;
    use crate::trajectory::ExcitationProbe;

    /// The `f64` inputs one fused pass reads, shared by both precisions.
    pub(super) struct Pass<'a> {
        pub(super) plan: &'a FusedPlan,
        pub(super) probes: &'a [ExcitationProbe],
        pub(super) basebands: &'a [Vec<IqPoint>],
        pub(super) transient: &'a [f64],
        pub(super) gain: f64,
    }

    impl Pass<'_> {
        /// Checks every bound the block loads rely on for a `len`-sample
        /// prefix of an `N`-channel pass writing `out_len`-sample rows, and
        /// returns the pass's per-channel view.
        fn lanes<const N: usize, T>(
            &self,
            planes: &CarrierPlanes<T>,
            out_len: usize,
            len: usize,
        ) -> Lanes<'_, N> {
            assert!(len <= self.transient.len(), "prefix exceeds the window");
            assert!(len <= planes.n_samples, "prefix exceeds the carriers");
            assert!(planes.cos.len() >= N * planes.n_samples);
            assert!(planes.sin.len() >= N * planes.n_samples);
            assert!(len <= out_len, "prefix exceeds the output rows");
            let basebands: &[Vec<IqPoint>; N] =
                self.basebands.try_into().expect("one baseband per channel");
            for bb in basebands {
                assert!(len <= bb.len(), "prefix exceeds a baseband");
            }
            Lanes {
                rows: std::array::from_fn(|k| basebands[k].as_ptr().cast::<f64>()),
                probes: self.probes.try_into().expect("one probe per channel"),
                plan: self.plan,
                transient: self.transient.as_ptr(),
                gain: self.gain,
            }
        }
    }

    /// One pass at a fixed channel count `N`, bounds-checked by
    /// [`Pass::lanes`].
    struct Lanes<'a, const N: usize> {
        /// Each channel's baseband as interleaved `(i, q)` `f64`s.
        rows: [*const f64; N],
        probes: &'a [ExcitationProbe; N],
        plan: &'a FusedPlan,
        transient: *const f64,
        gain: f64,
    }

    impl<const N: usize> Lanes<'_, N> {
        /// Crosstalk-shifted basebands `(I, Q)` of every channel at samples
        /// `t..t + 4`.
        ///
        /// # Safety
        ///
        /// The CPU supports AVX2 and FMA, and `t + 4` is within the prefix
        /// [`Pass::lanes`] checked.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn shifted(&self, t: usize) -> ([__m256d; N], [__m256d; N]) {
            let zero = _mm256_setzero_pd();
            let mut bi = [zero; N];
            let mut bq = [zero; N];
            let mut m = [zero; N];
            for k in 0..N {
                // SAFETY (all raw loads below): `IqPoint` is `#[repr(C)]`
                // `(i, q)`, so samples `t..t + 4` are the 8 `f64`s from
                // `2t`, inside the row by the caller's contract.
                let p = self.rows[k].add(2 * t);
                let a = _mm256_loadu_pd(p); // i0 q0 i1 q1
                let b = _mm256_loadu_pd(p.add(4)); // i2 q2 i3 q3
                bi[k] = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpacklo_pd(a, b));
                bq[k] = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpackhi_pd(a, b));
                // ExcitationProbe::measure:
                // ((s.i − g.i)·dir.i + (s.q − g.q)·dir.q) / separation.
                let pr = &self.probes[k];
                if pr.separation != 0.0 {
                    let ri = _mm256_sub_pd(bi[k], _mm256_set1_pd(pr.ground_ss.i));
                    let rq = _mm256_sub_pd(bq[k], _mm256_set1_pd(pr.ground_ss.q));
                    let dot = _mm256_add_pd(
                        _mm256_mul_pd(ri, _mm256_set1_pd(pr.dir.i)),
                        _mm256_mul_pd(rq, _mm256_set1_pd(pr.dir.q)),
                    );
                    m[k] = _mm256_div_pd(dot, _mm256_set1_pd(pr.separation));
                }
            }
            // Pair terms in lexicographic order: (m_j·p_j · m_k) · p_k.
            let mut terms = [zero; MAX_PAIRS];
            let mut idx = 0;
            for j in 0..N {
                let wj = _mm256_mul_pd(m[j], _mm256_set1_pd(self.plan.strength[j]));
                for (k, &mk) in m.iter().enumerate().skip(j + 1) {
                    let pk = _mm256_set1_pd(self.plan.strength[k]);
                    terms[idx] = _mm256_mul_pd(_mm256_mul_pd(wj, mk), pk);
                    idx += 1;
                }
            }
            let tr = _mm256_loadu_pd(self.transient.add(t));
            let scale = (self.gain != 1.0).then(|| _mm256_set1_pd(self.gain));
            let plan = self.plan;
            // Every loop below runs to the const `N`, so it unrolls and the
            // `agg != v` / pair-membership tests fold away.
            for v in 0..N {
                // Linear rows: the AVX2 axpy's fma(α, m, row) per aggressor,
                // ascending, skipping α = 0 like axpy.
                let mut li = zero;
                let mut lq = zero;
                for (agg, &ma) in m.iter().enumerate() {
                    if agg == v {
                        continue;
                    }
                    let (ci, cq) = (plan.lin_i[v][agg], plan.lin_q[v][agg]);
                    if ci != 0.0 {
                        li = _mm256_fmadd_pd(_mm256_set1_pd(ci), ma, li);
                    }
                    if cq != 0.0 {
                        lq = _mm256_fmadd_pd(_mm256_set1_pd(cq), ma, lq);
                    }
                }
                // Pair sum over the pairs excluding v, lexicographic: an
                // axpy with α = 1 rounds exactly like an add.
                let mut ps = zero;
                let mut idx = 0;
                for j in 0..N {
                    for k in (j + 1)..N {
                        if j != v && k != v {
                            ps = _mm256_add_pd(ps, terms[idx]);
                        }
                        idx += 1;
                    }
                }
                // bb += ((lin + pairwise·pair) · transient) · gain.
                let pw = plan.pairwise[v];
                let mut si = _mm256_mul_pd(
                    _mm256_add_pd(li, _mm256_mul_pd(_mm256_set1_pd(pw.i), ps)),
                    tr,
                );
                let mut sq = _mm256_mul_pd(
                    _mm256_add_pd(lq, _mm256_mul_pd(_mm256_set1_pd(pw.q), ps)),
                    tr,
                );
                if let Some(g) = scale {
                    si = _mm256_mul_pd(si, g);
                    sq = _mm256_mul_pd(sq, g);
                }
                bi[v] = _mm256_add_pd(bi[v], si);
                bq[v] = _mm256_add_pd(bq[v], sq);
            }
            (bi, bq)
        }
    }

    /// Fused pass at `f64` over samples `0..len` (`len` a multiple of 4),
    /// overwriting those samples of `i_out` and `q_out`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mix_f64<const N: usize>(
        pass: &Pass<'_>,
        planes: &CarrierPlanes<f64>,
        i_out: &mut [f64],
        q_out: &mut [f64],
        len: usize,
    ) {
        assert_eq!(len % 4, 0, "f64 blocks are 4 samples");
        let lanes = pass.lanes::<N, f64>(planes, i_out.len().min(q_out.len()), len);
        let ns = planes.n_samples;
        let (cp, sp) = (planes.cos.as_ptr(), planes.sin.as_ptr());
        let (ip, qp) = (i_out.as_mut_ptr(), q_out.as_mut_ptr());
        let mut t = 0;
        while t < len {
            // SAFETY: `lanes` bounds every load and store to `t + 4 <= len`.
            let (bi, bq) = lanes.shifted(t);
            // mix_accum from zeroed rows, channels ascending.
            let mut vi = _mm256_setzero_pd();
            let mut vq = _mm256_setzero_pd();
            for k in 0..N {
                let c = _mm256_loadu_pd(cp.add(k * ns + t));
                let s = _mm256_loadu_pd(sp.add(k * ns + t));
                vi = _mm256_fmadd_pd(bi[k], c, vi);
                vi = _mm256_fnmadd_pd(bq[k], s, vi);
                vq = _mm256_fmadd_pd(bi[k], s, vq);
                vq = _mm256_fmadd_pd(bq[k], c, vq);
            }
            _mm256_storeu_pd(ip.add(t), vi);
            _mm256_storeu_pd(qp.add(t), vq);
            t += 4;
        }
    }

    /// Fused pass at `f32` over samples `0..len` (`len` a multiple of 8):
    /// two 4-sample `f64` crosstalk blocks, rounded to `f32` like
    /// `Real::from_f64`, then one 8-lane mix.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn mix_f32<const N: usize>(
        pass: &Pass<'_>,
        planes: &CarrierPlanes<f32>,
        i_out: &mut [f32],
        q_out: &mut [f32],
        len: usize,
    ) {
        assert_eq!(len % 8, 0, "f32 blocks are 8 samples");
        let lanes = pass.lanes::<N, f32>(planes, i_out.len().min(q_out.len()), len);
        let ns = planes.n_samples;
        let (cp, sp) = (planes.cos.as_ptr(), planes.sin.as_ptr());
        let (ip, qp) = (i_out.as_mut_ptr(), q_out.as_mut_ptr());
        let mut t = 0;
        while t < len {
            // SAFETY: `lanes` bounds every load and store to `t + 8 <= len`.
            let (ai, aq) = lanes.shifted(t);
            let (bi, bq) = lanes.shifted(t + 4);
            let mut vi = _mm256_setzero_ps();
            let mut vq = _mm256_setzero_ps();
            for k in 0..N {
                let si = _mm256_set_m128(_mm256_cvtpd_ps(bi[k]), _mm256_cvtpd_ps(ai[k]));
                let sq = _mm256_set_m128(_mm256_cvtpd_ps(bq[k]), _mm256_cvtpd_ps(aq[k]));
                let c = _mm256_loadu_ps(cp.add(k * ns + t));
                let s = _mm256_loadu_ps(sp.add(k * ns + t));
                vi = _mm256_fmadd_ps(si, c, vi);
                vi = _mm256_fnmadd_ps(sq, s, vi);
                vq = _mm256_fmadd_ps(si, s, vq);
                vq = _mm256_fmadd_ps(sq, c, vq);
            }
            _mm256_storeu_ps(ip.add(t), vi);
            _mm256_storeu_ps(qp.add(t), vq);
            t += 8;
        }
    }
}
