//! Readout-crosstalk model between frequency-multiplexed channels.
//!
//! When several qubits share one feedline, the state of qubit *j* perturbs the
//! signal observed on qubit *q*'s channel (dispersive shifts pulling
//! neighbouring resonators, finite isolation between tones). The model here is
//! additive in the baseband: each aggressor contributes a shift proportional
//! to its instantaneous normalized excitation, plus a weaker *pairwise*
//! (nonlinear) term when two aggressors are excited simultaneously. The linear
//! part can be compensated by a linear classifier over all matched-filter
//! outputs; the pairwise part is what gives the neural network its measurable
//! edge in the cross-fidelity study (paper Table 2).

use std::error::Error;
use std::fmt;

use herqles_num::Real;

use crate::trace::IqPoint;

/// A structural defect in a [`CrosstalkModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrosstalkError {
    /// The model's dimension does not match the chip's channel count.
    SizeMismatch {
        /// Qubits the model was built for.
        model: usize,
        /// Qubits the chip actually has.
        chip: usize,
    },
    /// A qubit's self-coupling coefficient is nonzero (a qubit cannot be its
    /// own crosstalk aggressor).
    NonzeroDiagonal {
        /// The offending victim/aggressor index.
        qubit: usize,
    },
}

impl fmt::Display for CrosstalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CrosstalkError::SizeMismatch { model, chip } => {
                write!(
                    f,
                    "crosstalk model sized for {model} qubits, chip has {chip}"
                )
            }
            CrosstalkError::NonzeroDiagonal { qubit } => {
                write!(f, "crosstalk diagonal for qubit {qubit} must be zero")
            }
        }
    }
}

impl Error for CrosstalkError {}

/// Reusable row buffers for [`CrosstalkModel::apply_batch`].
///
/// Holds the victim-major linear shift rows, the per-aggressor weight rows,
/// the per-pair term rows and the per-victim pair sums. Sized lazily on
/// first use and only re-sized when the model or window changes, so a warm
/// streaming synthesizer applies crosstalk without touching the heap.
#[derive(Debug, Clone, Default)]
pub struct CrosstalkScratch {
    lin_i: Vec<f64>,
    lin_q: Vec<f64>,
    w: Vec<f64>,
    terms: Vec<f64>,
    pair: Vec<f64>,
}

impl CrosstalkScratch {
    /// An empty scratch; buffers are sized on first
    /// [`CrosstalkModel::apply_batch`].
    pub fn new() -> Self {
        CrosstalkScratch::default()
    }

    fn resize(&mut self, n: usize, n_samples: usize) {
        let rows = n * n_samples;
        self.lin_i.resize(rows, 0.0);
        self.lin_q.resize(rows, 0.0);
        self.w.resize(rows, 0.0);
        self.pair.resize(rows, 0.0);
        self.terms
            .resize(n * n.saturating_sub(1) / 2 * n_samples, 0.0);
    }
}

/// Crosstalk coefficients for one victim/aggressor pair and the shared
/// pairwise term.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkModel {
    n: usize,
    /// `linear[victim][aggressor]`: baseband shift (absolute IQ units) applied
    /// to the victim when the aggressor is fully excited. Diagonal is zero.
    pub(crate) linear: Vec<Vec<IqPoint>>,
    /// Direction and magnitude of the extra shift on victim `q` when a *pair*
    /// of other qubits is simultaneously excited.
    pub(crate) pairwise: Vec<IqPoint>,
    /// Per-qubit aggressor strength entering the pairwise term (normalized
    /// dispersive separation; a weakly coupled qubit contributes weakly).
    pub(crate) pair_strength: Vec<f64>,
    /// Extra multiplicative strength of the crosstalk during the ring-up
    /// transient: the shift is scaled by `1 + boost · exp(−t/τ)`. Resonators
    /// pull each other hardest while their fields are still building up,
    /// which concentrates crosstalk in the early readout window — exactly
    /// the window the relaxation matched filter projects onto, making the
    /// RMF double as a crosstalk probe (paper §4.3.2's "additional
    /// features").
    transient_boost: f64,
    /// Decay time of the transient boost, in seconds.
    transient_tau_s: f64,
}

impl CrosstalkModel {
    /// A crosstalk-free model for `n` qubits.
    pub fn none(n: usize) -> Self {
        CrosstalkModel {
            n,
            linear: vec![vec![IqPoint::ZERO; n]; n],
            pairwise: vec![IqPoint::ZERO; n],
            pair_strength: vec![1.0; n],
            transient_boost: 0.0,
            transient_tau_s: 1.0,
        }
    }

    /// Builds a model from explicit coefficient matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n` with `n == pairwise.len()`, or if
    /// it fails [`CrosstalkModel::validate`] (nonzero diagonal).
    pub fn from_coefficients(linear: Vec<Vec<IqPoint>>, pairwise: Vec<IqPoint>) -> Self {
        let n = linear.len();
        assert!(
            linear.iter().all(|row| row.len() == n),
            "matrix must be square"
        );
        assert_eq!(
            pairwise.len(),
            n,
            "pairwise vector must have one entry per qubit"
        );
        let model = CrosstalkModel {
            n,
            linear,
            pairwise,
            pair_strength: vec![1.0; n],
            transient_boost: 0.0,
            transient_tau_s: 1.0,
        };
        if let Err(e) = model.validate(n) {
            panic!("invalid crosstalk coefficients: {e}");
        }
        model
    }

    /// Default chain topology with unit aggressor strength: see
    /// [`CrosstalkModel::chain_for_separations`], which is what the default
    /// chips use. Kept for tests and for chips without per-qubit separation
    /// information (all aggressors treated as unit-separation).
    pub fn chain_default(n: usize) -> Self {
        Self::chain_for_separations(&vec![2.5; n])
    }

    /// Chain topology where each aggressor's pull is proportional to its own
    /// dispersive separation (a qubit that barely moves its own resonator
    /// cannot move its neighbours' either). Relative couplings: 21 % of the
    /// aggressor separation at chain distance 1, 7 % at distance 2, 1.5 %
    /// farther; pairwise term 8.5 %. The shift direction is deterministic per
    /// victim/aggressor pair so it has components both along and across each
    /// victim's separation axis. The transient boost concentrates the shift
    /// in the early window (2× extra at `t = 0`, τ = 200 ns).
    pub fn chain_for_separations(separations: &[f64]) -> Self {
        let n = separations.len();
        let mut linear = vec![vec![IqPoint::ZERO; n]; n];
        for (victim, row) in linear.iter_mut().enumerate() {
            for (aggressor, c) in row.iter_mut().enumerate() {
                if victim == aggressor {
                    continue;
                }
                let dist = victim.abs_diff(aggressor);
                let ratio = match dist {
                    1 => 0.21,
                    2 => 0.07,
                    _ => 0.015,
                };
                let mag = ratio * separations[aggressor];
                let angle = 0.9 * victim as f64 + 2.1 * aggressor as f64;
                *c = IqPoint::new(mag, 0.0).rotate(angle);
            }
        }
        let mean_sep = separations.iter().sum::<f64>() / n as f64;
        let pairwise = (0..n)
            .map(|q| IqPoint::new(0.085 * mean_sep, 0.0).rotate(1.3 * q as f64 + 0.4))
            .collect();
        CrosstalkModel {
            n,
            linear,
            pairwise,
            pair_strength: separations.iter().map(|s| s / mean_sep).collect(),
            transient_boost: 2.0,
            transient_tau_s: 200e-9,
        }
    }

    /// Number of qubits the model is sized for.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Linear coefficient applied to `victim` per unit excitation of
    /// `aggressor`.
    pub fn linear_coeff(&self, victim: usize, aggressor: usize) -> IqPoint {
        self.linear[victim][aggressor]
    }

    /// Time-dependent transient scale factor at `t` seconds into the window.
    pub fn transient_scale(&self, t_s: f64) -> f64 {
        1.0 + self.transient_boost * (-t_s / self.transient_tau_s).exp()
    }

    /// Instantaneous crosstalk shift on `victim` at time `t_s` (seconds into
    /// the readout window) given every qubit's normalized excitation measure
    /// `m` (0 = ground steady state, 1 = excited steady state; values in
    /// between during ring-up or decay).
    ///
    /// The pairwise contribution sums `m_j · m_k` over all aggressor pairs;
    /// the whole shift is scaled by the early-window transient factor.
    pub fn shift_at(&self, victim: usize, m: &[f64], t_s: f64) -> IqPoint {
        self.shift(victim, m) * self.transient_scale(t_s)
    }

    /// Steady-state crosstalk shift (no transient scaling); see
    /// [`CrosstalkModel::shift_at`].
    pub fn shift(&self, victim: usize, m: &[f64]) -> IqPoint {
        debug_assert_eq!(m.len(), self.n);
        let mut shift = IqPoint::ZERO;
        for (aggressor, &mj) in m.iter().enumerate() {
            if aggressor != victim && mj != 0.0 {
                shift += self.linear[victim][aggressor] * mj;
            }
        }
        let mut pair_sum = 0.0;
        for j in 0..self.n {
            if j == victim {
                continue;
            }
            for k in (j + 1)..self.n {
                if k == victim {
                    continue;
                }
                pair_sum += m[j] * self.pair_strength[j] * m[k] * self.pair_strength[k];
            }
        }
        shift + self.pairwise[victim] * pair_sum
    }

    /// Precomputed [`CrosstalkModel::transient_scale`] at each sample time.
    ///
    /// Sample clocks are fixed per configuration, so the per-sample `exp`
    /// inside the scale can be evaluated once and reused for every shot;
    /// the table entries are exactly `transient_scale(t)`.
    pub fn transient_table(&self, times_s: &[f64]) -> Vec<f64> {
        times_s.iter().map(|&t| self.transient_scale(t)).collect()
    }

    /// Applies the crosstalk shifts of a whole readout window in batch:
    /// equivalent to `basebands[v][t] += shift_at(v, m_t, times[t]) * gain`
    /// for every victim and sample (with the `gain` multiply skipped when
    /// `gain == 1.0`, like the per-sample caller did), but restructured
    /// into contiguous row passes:
    ///
    /// * the linear part becomes one axpy per victim/aggressor pair over
    ///   the sample axis, routed through the dispatched [`Kernel`]
    ///   (element-wise, aggressors ascending — the same adds in the same
    ///   per-element order as the scalar loop, so the scalar backend is
    ///   bit-identical and the AVX2 backend differs only by FMA
    ///   contraction);
    /// * the pairwise part hoists the per-aggressor weights
    ///   `w_j = m_j · p_j` and the pair terms `(w_j · m_k) · p_k` out of
    ///   the victim loop, preserving the original left-association and
    ///   per-victim summation order exactly;
    /// * the transient factor comes from a precomputed
    ///   [`CrosstalkModel::transient_table`].
    ///
    /// This is the row-pass reference: the offline path routes through it,
    /// and so does the scalar arm of [`ReadoutMixer`]. The mixer's AVX2 arm
    /// replays these exact per-element operations in registers and is
    /// pinned bitwise to them, so engine and offline traces stay
    /// bit-identical on every kernel backend.
    ///
    /// [`ReadoutMixer`]: crate::mixer::ReadoutMixer
    /// [`Kernel`]: herqles_num::Kernel
    ///
    /// # Panics
    ///
    /// Panics if `measures`, `basebands` or their rows disagree with the
    /// model size or the transient table length.
    pub fn apply_batch(
        &self,
        measures: &[Vec<f64>],
        transient: &[f64],
        gain: f64,
        basebands: &mut [Vec<IqPoint>],
        scratch: &mut CrosstalkScratch,
    ) {
        let n = self.n;
        let ns = transient.len();
        assert_eq!(measures.len(), n, "one measure row per qubit required");
        assert_eq!(basebands.len(), n, "one baseband per qubit required");
        for row in measures {
            assert_eq!(row.len(), ns, "measure row must match the window");
        }
        for row in basebands.iter() {
            assert_eq!(row.len(), ns, "baseband must match the window");
        }
        scratch.resize(n, ns);

        // Linear part, victim-major: lin[v][t] = Σ_{agg≠v} L[v][agg]·m[agg][t],
        // aggressors ascending so the per-element add order matches the
        // historical per-sample accumulation.
        let kernel = <f64 as Real>::kernel();
        scratch.lin_i.fill(0.0);
        scratch.lin_q.fill(0.0);
        for v in 0..n {
            let li = &mut scratch.lin_i[v * ns..v * ns + ns];
            for (agg, m) in measures.iter().enumerate() {
                if agg != v {
                    kernel.axpy(self.linear[v][agg].i, m, li);
                }
            }
            let lq = &mut scratch.lin_q[v * ns..v * ns + ns];
            for (agg, m) in measures.iter().enumerate() {
                if agg != v {
                    kernel.axpy(self.linear[v][agg].q, m, lq);
                }
            }
        }

        // Pairwise part: weights, then one term row per (j, k) pair, then
        // per-victim sums over that victim's pairs in lexicographic order —
        // the same addends in the same order as the scalar double loop.
        // Element-wise product rows, written through lockstep iterators so
        // the compiler can vectorize them (no reassociation — each output
        // element is the exact historical expression).
        for (j, m) in measures.iter().enumerate() {
            let p = self.pair_strength[j];
            let w = &mut scratch.w[j * ns..j * ns + ns];
            for (w, &m) in w.iter_mut().zip(m) {
                *w = m * p;
            }
        }
        let mut idx = 0;
        for j in 0..n {
            for (k, mk) in measures.iter().enumerate().skip(j + 1) {
                let pk = self.pair_strength[k];
                let wj = &scratch.w[j * ns..j * ns + ns];
                let term = &mut scratch.terms[idx * ns..idx * ns + ns];
                for ((term, &wj), &mk) in term.iter_mut().zip(wj).zip(mk) {
                    *term = (wj * mk) * pk;
                }
                idx += 1;
            }
        }
        for v in 0..n {
            let pair = &mut scratch.pair[v * ns..v * ns + ns];
            pair.fill(0.0);
            let mut idx = 0;
            for j in 0..n {
                for k in (j + 1)..n {
                    if j != v && k != v {
                        // axpy with α = 1.0 is a plain element-wise add on
                        // both backends (1·x is exact, and fma(1, x, acc)
                        // rounds exactly like acc + x), so routing the pair
                        // sums through the kernel keeps the scalar arm
                        // bit-identical while vectorizing the AVX2 arm.
                        let term = &scratch.terms[idx * ns..idx * ns + ns];
                        kernel.axpy(1.0, term, pair);
                    }
                    idx += 1;
                }
            }
        }

        // Combine, exactly as the per-sample expression nested it:
        // ((lin + pairwise·pair_sum) · transient) · gain.
        for (v, bb) in basebands.iter_mut().enumerate() {
            let li = &scratch.lin_i[v * ns..v * ns + ns];
            let lq = &scratch.lin_q[v * ns..v * ns + ns];
            let ps = &scratch.pair[v * ns..v * ns + ns];
            let pw = self.pairwise[v];
            let rows = bb.iter_mut().zip(li).zip(lq).zip(ps.iter().zip(transient));
            if gain != 1.0 {
                for (((bb, &li), &lq), (&ps, &tr)) in rows {
                    bb.i += (li + pw.i * ps) * tr * gain;
                    bb.q += (lq + pw.q * ps) * tr * gain;
                }
            } else {
                for (((bb, &li), &lq), (&ps, &tr)) in rows {
                    bb.i += (li + pw.i * ps) * tr;
                    bb.q += (lq + pw.q * ps) * tr;
                }
            }
        }
    }

    /// Checks the model is sized for an `n`-qubit chip and structurally
    /// sound.
    ///
    /// # Errors
    ///
    /// Returns the first [`CrosstalkError`] found: a dimension mismatch or a
    /// nonzero self-coupling coefficient.
    pub fn validate(&self, n: usize) -> Result<(), CrosstalkError> {
        if self.n != n {
            return Err(CrosstalkError::SizeMismatch {
                model: self.n,
                chip: n,
            });
        }
        for (v, row) in self.linear.iter().enumerate() {
            if row[v] != IqPoint::ZERO {
                return Err(CrosstalkError::NonzeroDiagonal { qubit: v });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_produces_zero_shift() {
        let xt = CrosstalkModel::none(3);
        assert_eq!(xt.shift(0, &[1.0, 1.0, 1.0]), IqPoint::ZERO);
    }

    #[test]
    fn chain_default_validates() {
        CrosstalkModel::chain_default(5).validate(5).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_size() {
        assert!(CrosstalkModel::chain_default(5).validate(4).is_err());
    }

    #[test]
    fn shift_is_linear_in_single_aggressor() {
        let xt = CrosstalkModel::chain_default(5);
        let mut m = [0.0; 5];
        m[2] = 1.0;
        let full = xt.shift(1, &m);
        m[2] = 0.5;
        let half = xt.shift(1, &m);
        assert!((full.i - 2.0 * half.i).abs() < 1e-12);
        assert!((full.q - 2.0 * half.q).abs() < 1e-12);
    }

    #[test]
    fn own_state_does_not_shift_self() {
        let xt = CrosstalkModel::chain_default(5);
        let mut m = [0.0; 5];
        m[1] = 1.0;
        assert_eq!(xt.shift(1, &m), IqPoint::ZERO);
    }

    #[test]
    fn adjacent_shift_exceeds_distant_shift() {
        let xt = CrosstalkModel::chain_default(5);
        let adj = xt.linear_coeff(2, 1).norm();
        let far = xt.linear_coeff(2, 4).norm();
        assert!(adj > far);
    }

    #[test]
    fn pairwise_term_engages_with_two_aggressors() {
        let xt = CrosstalkModel::chain_default(5);
        let mut m = [0.0; 5];
        m[0] = 1.0;
        m[2] = 1.0;
        let both = xt.shift(1, &m);
        let lin = xt.linear_coeff(1, 0) + xt.linear_coeff(1, 2);
        // Difference between the joint shift and the linear sum is exactly the
        // pairwise contribution.
        assert!((both - lin).norm() > 1e-6);
    }

    #[test]
    fn transient_boosts_early_window() {
        let xt = CrosstalkModel::chain_default(5);
        let mut m = [0.0; 5];
        m[0] = 1.0;
        let early = xt.shift_at(1, &m, 0.0);
        let late = xt.shift_at(1, &m, 1e-6);
        assert!(early.norm() > 2.0 * late.norm());
        // Late-window shift approaches the steady-state value.
        assert!((late.norm() - xt.shift(1, &m).norm()).abs() < 0.05 * xt.shift(1, &m).norm());
    }

    #[test]
    fn none_model_has_no_transient() {
        let xt = CrosstalkModel::none(3);
        assert_eq!(xt.transient_scale(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn from_coefficients_rejects_ragged_matrix() {
        let _ = CrosstalkModel::from_coefficients(
            vec![vec![IqPoint::ZERO; 2], vec![IqPoint::ZERO; 3]],
            vec![IqPoint::ZERO; 2],
        );
    }

    #[test]
    #[should_panic(expected = "diagonal for qubit 1")]
    fn from_coefficients_rejects_nonzero_diagonal() {
        let mut linear = vec![vec![IqPoint::ZERO; 2]; 2];
        linear[1][1] = IqPoint::new(0.1, 0.0);
        let _ = CrosstalkModel::from_coefficients(linear, vec![IqPoint::ZERO; 2]);
    }

    #[test]
    fn transient_table_matches_transient_scale() {
        let xt = CrosstalkModel::chain_default(5);
        let times: Vec<f64> = (0..64).map(|t| t as f64 * 2e-9).collect();
        let table = xt.transient_table(&times);
        for (&t, &tr) in times.iter().zip(&table) {
            assert_eq!(tr, xt.transient_scale(t), "transient at t={t}");
        }
    }

    #[test]
    fn apply_batch_matches_per_sample_shift_at() {
        // The batched pass must reproduce the historical per-sample loop:
        // bit-for-bit on the scalar kernel, and within FMA rounding slack on
        // any vector backend (CI runs this test under both arms).
        let xt = CrosstalkModel::chain_default(4);
        let n = 4;
        let times: Vec<f64> = (0..33).map(|t| t as f64 * 2e-9).collect();
        let measures: Vec<Vec<f64>> = (0..n)
            .map(|q| {
                times
                    .iter()
                    .enumerate()
                    .map(|(t, _)| ((q * 31 + t * 7) % 13) as f64 / 13.0 - 0.4)
                    .collect()
            })
            .collect();
        let base: Vec<Vec<IqPoint>> = (0..n)
            .map(|q| {
                times
                    .iter()
                    .enumerate()
                    .map(|(t, _)| IqPoint::new(q as f64 + t as f64 * 0.01, -(t as f64) * 0.02))
                    .collect()
            })
            .collect();
        for gain in [1.0, 0.35] {
            // Reference: the original sample-major loop over shift_at.
            let mut want = base.clone();
            let mut m = vec![0.0; n];
            for t in 0..times.len() {
                for (k, meas) in measures.iter().enumerate() {
                    m[k] = meas[t];
                }
                for (victim, bb) in want.iter_mut().enumerate() {
                    let mut shift = xt.shift_at(victim, &m, times[t]);
                    if gain != 1.0 {
                        shift = shift * gain;
                    }
                    bb[t] += shift;
                }
            }
            let mut got = base.clone();
            let transient = xt.transient_table(&times);
            let mut scratch = CrosstalkScratch::new();
            xt.apply_batch(&measures, &transient, gain, &mut got, &mut scratch);
            let scalar = herqles_num::active_kernel_name() == "scalar";
            for (v, (g_row, w_row)) in got.iter().zip(&want).enumerate() {
                for (t, (g, w)) in g_row.iter().zip(w_row).enumerate() {
                    if scalar {
                        assert_eq!(
                            (g.i.to_bits(), g.q.to_bits()),
                            (w.i.to_bits(), w.q.to_bits()),
                            "victim {v} sample {t} gain {gain}: scalar arm must be bit-identical"
                        );
                    } else {
                        assert!(
                            (g.i - w.i).abs() <= 1e-12 && (g.q - w.q).abs() <= 1e-12,
                            "victim {v} sample {t} gain {gain}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_batch_scratch_is_reusable_across_sizes() {
        // Shrinking then growing the problem must not leave stale rows behind.
        let big = CrosstalkModel::chain_default(5);
        let small = CrosstalkModel::chain_default(2);
        let times: Vec<f64> = (0..16).map(|t| t as f64 * 2e-9).collect();
        let mut scratch = CrosstalkScratch::new();
        for xt in [&big, &small, &big] {
            let n = xt.n_qubits();
            let measures = vec![vec![0.7; times.len()]; n];
            let mut bb = vec![vec![IqPoint::ZERO; times.len()]; n];
            let transient = xt.transient_table(&times);
            xt.apply_batch(&measures, &transient, 1.0, &mut bb, &mut scratch);
            let m = vec![0.7; n];
            for t in 0..times.len() {
                for (victim, row) in bb.iter().enumerate() {
                    let want = xt.shift_at(victim, &m, times[t]);
                    assert!((row[t].i - want.i).abs() <= 1e-12);
                    assert!((row[t].q - want.q).abs() <= 1e-12);
                }
            }
        }
    }

    #[test]
    fn validate_errors_are_typed_and_display() {
        let err = CrosstalkModel::chain_default(5).validate(4).unwrap_err();
        assert_eq!(err, CrosstalkError::SizeMismatch { model: 5, chip: 4 });
        assert!(err.to_string().contains("sized for 5 qubits, chip has 4"));
        // The enum is a std::error::Error, so it boxes like one.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("crosstalk"));
    }
}
