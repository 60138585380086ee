//! Noiseless baseband trajectory of a readout resonator.
//!
//! The resonator field follows first-order (κ-limited) dynamics toward a
//! qubit-state-dependent steady-state point:
//!
//! ```text
//! s(t) = target + (s(t₀) − target) · exp(−(t − t₀)/τ)
//! ```
//!
//! where `target` switches between the ground and excited steady-state points
//! whenever the qubit's [`StatePath`] transitions. The field starts at the
//! origin (no drive before the window), producing the ring-up arcs of the
//! paper's Fig. 3(a); a mid-window relaxation produces the characteristic
//! excited-then-decaying traces of Fig. 8(b) that the relaxation matched
//! filter detects.

use crate::config::QubitParams;
use crate::events::StatePath;
use crate::trace::IqPoint;

/// Evaluates the noiseless baseband field of one qubit at the given sample
/// times, returning one [`IqPoint`] per time.
///
/// `times_s` must be non-decreasing (checked in debug builds only).
pub fn baseband(params: &QubitParams, path: &StatePath, times_s: &[f64]) -> Vec<IqPoint> {
    let mut out = Vec::new();
    baseband_into(params, path, times_s, &mut out);
    out
}

/// Allocation-free variant of [`baseband`]: clears `out` and refills it with
/// one point per sample time, reusing the existing capacity. [`baseband`] is
/// implemented on top of this function, so both produce identical values.
pub fn baseband_into(
    params: &QubitParams,
    path: &StatePath,
    times_s: &[f64],
    out: &mut Vec<IqPoint>,
) {
    out.clear();
    out.reserve(times_s.len());
    // Piecewise-exponential evolution; state changes at most once per window.
    let mut s = IqPoint::ZERO;
    let mut t_prev = 0.0;
    let mut memo = ExpMemo::new();
    let transition = match *path {
        StatePath::Relaxation { time_s } | StatePath::Excitation { time_s } => Some(time_s),
        _ => None,
    };
    for &t in times_s {
        debug_assert!(t >= t_prev, "sample times must be non-decreasing");
        // If the transition falls inside (t_prev, t], advance to the
        // transition point first so the exponential restarts from there.
        if let Some(tt) = transition {
            if t_prev < tt && tt <= t {
                s = step(params, path, s, t_prev, tt, &mut memo);
                t_prev = tt;
            }
        }
        s = step(params, path, s, t_prev, t, &mut memo);
        t_prev = t;
        out.push(s);
    }
}

/// Precomputed ring-up geometry of one qubit on a fixed uniform sample
/// clock, enabling closed-form baseband evaluation.
///
/// The sequential recurrence in [`baseband_into`] chains every sample
/// through the previous one (`s ← target + (s − target)·d`), which caps the
/// hot loop at the latency of one fused multiply-add per sample. On a
/// uniform clock the recurrence has a closed form: with `d = exp(−Δt/τ)`
/// and `v₀ = (s₀ − target)·exp(−t₀/τ)`,
///
/// ```text
/// s(tₖ) = target + v₀ · dᵏ
/// ```
///
/// so a whole segment becomes one independent (vectorizable) pass over a
/// precomputed `dᵏ` table. [`baseband_into_cached`] uses this table on the
/// SIMD kernel arms and falls back to the sequential reference whenever the
/// clock is not uniform, the table does not match, or the scalar backend is
/// dispatched (keeping the scalar arm bit-identical to history).
#[derive(Debug, Clone)]
pub struct RingupTable {
    /// `dᵏ` for `k ∈ 0..n` where `d = exp(−Δt/τ)`.
    dp: Vec<f64>,
    /// `exp(−t₀/τ)`: the decay of the (possibly fractional) first step from
    /// the window origin to the first sample.
    d0: f64,
    /// First sample time, for cheap table/clock agreement checks.
    t0: f64,
    /// Ring-up time constant the table was built for.
    tau: f64,
    /// Clock uniformity verified at construction; `false` always falls back.
    uniform: bool,
}

impl RingupTable {
    /// Builds the `dᵏ` table for `params`' ring-up constant on `times_s`.
    ///
    /// The clock is accepted as uniform when every step agrees with the
    /// first to within a 10⁻⁹ relative tolerance — sample clocks here are
    /// `k·Δt` sums whose floating-point jitter is a few ulps, while a
    /// genuinely non-uniform clock misses by orders of magnitude more.
    pub fn new(params: &QubitParams, times_s: &[f64]) -> Self {
        let tau = params.ringup_tau_s;
        let n = times_s.len();
        let mut table = RingupTable {
            dp: Vec::new(),
            d0: 1.0,
            t0: 0.0,
            tau,
            uniform: false,
        };
        // `>` guards (rather than `<=`) so NaN parameters also fall back.
        let usable = n > 0 && tau > 0.0 && times_s[0] > 0.0;
        if !usable {
            return table;
        }
        let dt = if n >= 2 {
            times_s[1] - times_s[0]
        } else {
            times_s[0]
        };
        let uniform_clock = dt > 0.0
            && times_s
                .windows(2)
                .all(|w| ((w[1] - w[0]) - dt).abs() <= 1e-9 * dt);
        if !uniform_clock {
            return table;
        }
        let d = (-dt / tau).exp();
        table.dp.reserve_exact(n);
        let mut acc = 1.0;
        for _ in 0..n {
            table.dp.push(acc);
            acc *= d;
        }
        table.d0 = (-times_s[0] / tau).exp();
        table.t0 = times_s[0];
        table.uniform = true;
        table
    }

    /// Whether this table was built for exactly this clock (and verified
    /// uniform).
    #[inline]
    fn matches(&self, times_s: &[f64]) -> bool {
        self.uniform
            && self.dp.len() == times_s.len()
            && times_s
                .first()
                .is_some_and(|&t| t.to_bits() == self.t0.to_bits())
    }
}

/// Closed-form variant of [`baseband_into`] driven by a [`RingupTable`]
/// built from the **same** `params` and `times_s`.
///
/// On the scalar kernel arm — or whenever the table does not match the
/// clock — this delegates to the sequential [`baseband_into`] reference, so
/// the scalar backend stays bit-identical to history. On the SIMD arms it
/// evaluates each constant-target segment as `target + v·dᵏ` over the
/// precomputed table (value-equal to the recurrence up to rounding, and
/// deterministic per backend); a mid-window transition splits the window at
/// the first sample past the transition with two exact scalar exponential
/// steps, exactly where the sequential loop splits it.
pub fn baseband_into_cached(
    params: &QubitParams,
    path: &StatePath,
    times_s: &[f64],
    table: &RingupTable,
    out: &mut Vec<IqPoint>,
) {
    if !table.matches(times_s) || herqles_num::active_kernel_name() == "scalar" {
        baseband_into(params, path, times_s, out);
        return;
    }
    out.clear();
    out.reserve(times_s.len());
    let n = times_s.len();
    // A transition at or before the window start never splits the sample
    // loop (the sequential loop's `t_prev < tt` guard): the whole window
    // rings toward the post-transition state.
    let split = match *path {
        StatePath::Relaxation { time_s } | StatePath::Excitation { time_s } if time_s > 0.0 => {
            Some(time_s)
        }
        _ => None,
    };
    match split {
        None => {
            // Constant target for the whole window: the state at any
            // positive probe time (paths without a positive-time transition
            // are time-independent there).
            let target = if path.excited_at(table.t0) {
                params.excited_ss
            } else {
                params.ground_ss
            };
            fill_geometric(target, (IqPoint::ZERO - target) * table.d0, &table.dp, out);
        }
        Some(tt) => {
            let (ta, tb) = match *path {
                StatePath::Relaxation { .. } => (params.excited_ss, params.ground_ss),
                StatePath::Excitation { .. } => (params.ground_ss, params.excited_ss),
                _ => unreachable!("split implies a transition path"),
            };
            // First sample at or after the transition: segment A covers
            // samples 0..ks ringing toward `ta`, segment B starts at `ks`.
            let ks = times_s.partition_point(|&t| t < tt);
            fill_geometric(
                ta,
                (IqPoint::ZERO - ta) * table.d0,
                &table.dp[..ks.min(n)],
                out,
            );
            if ks >= n {
                return;
            }
            let (s_prev, t_prev) = if ks == 0 {
                (IqPoint::ZERO, 0.0)
            } else {
                (out[ks - 1], times_s[ks - 1])
            };
            // Two exact scalar steps across the split — to the transition
            // under the old target, then to sample `ks` under the new one —
            // mirroring the sequential loop's interval split.
            let s_tt = ta + (s_prev - ta) * (-(tt - t_prev) / table.tau).exp();
            let s_ks = tb + (s_tt - tb) * (-(times_s[ks] - tt) / table.tau).exp();
            out.push(s_ks);
            fill_geometric(tb, s_ks - tb, &table.dp[1..n - ks], out);
        }
    }
}

/// Appends `target + v·dp[j]` for each table entry: one ring-up segment in
/// closed form. Independent iterations, extended from the exact-size table
/// iterator so the compiler vectorizes the fill without per-point capacity
/// checks.
#[inline]
fn fill_geometric(target: IqPoint, v: IqPoint, dp: &[f64], out: &mut Vec<IqPoint>) {
    out.extend(dp.iter().map(|&p| target + v * p));
}

/// Single-entry `exp` memo keyed on the exact bit pattern of the argument.
///
/// Sample clocks are uniform, so outside the one transition split every
/// [`step`] of a trace evaluates `exp` at the *same* `-dt/τ` — and `exp` of
/// identical input bits is identical output bits, so memoizing is
/// value-preserving while removing ~99 % of the hot path's libm calls.
struct ExpMemo {
    key: u64,
    val: f64,
}

impl ExpMemo {
    fn new() -> Self {
        // u64::MAX is a NaN pattern; dt/τ arguments are always finite, so
        // the first lookup can never spuriously hit.
        ExpMemo {
            key: u64::MAX,
            val: 0.0,
        }
    }

    #[inline]
    fn exp(&mut self, x: f64) -> f64 {
        let key = x.to_bits();
        if key != self.key {
            self.key = key;
            self.val = x.exp();
        }
        self.val
    }
}

/// Normalized excitation measure of a baseband point: the projection of the
/// displacement from the ground steady state onto the separation axis,
/// in units of the full separation (≈0 when ground, ≈1 when excited).
///
/// Used by the crosstalk model to scale aggressor contributions.
pub fn excitation_measure(params: &QubitParams, s: IqPoint) -> f64 {
    ExcitationProbe::new(params).measure(s)
}

/// Precomputed excitation-measure geometry of one qubit.
///
/// [`excitation_measure`] recomputes the separation distance and axis (two
/// square roots) on every call; a probe evaluates them once at construction
/// so the per-sample measure is a projection and a divide. The measured
/// values are identical — [`excitation_measure`] is implemented on top of
/// this type — which keeps the crosstalk physics bit-for-bit stable when
/// the streaming synthesizer switches to cached probes.
#[derive(Debug, Clone)]
pub struct ExcitationProbe {
    pub(crate) separation: f64,
    pub(crate) dir: IqPoint,
    pub(crate) ground_ss: IqPoint,
}

impl ExcitationProbe {
    /// Captures `params`' separation geometry.
    pub fn new(params: &QubitParams) -> Self {
        ExcitationProbe {
            separation: params.separation(),
            dir: params.separation_dir(),
            ground_ss: params.ground_ss,
        }
    }

    /// Normalized excitation of baseband point `s`; see
    /// [`excitation_measure`].
    #[inline]
    pub fn measure(&self, s: IqPoint) -> f64 {
        if self.separation == 0.0 {
            return 0.0;
        }
        let rel = s - self.ground_ss;
        (rel.i * self.dir.i + rel.q * self.dir.q) / self.separation
    }
}

fn step(
    params: &QubitParams,
    path: &StatePath,
    s: IqPoint,
    t0: f64,
    t1: f64,
    memo: &mut ExpMemo,
) -> IqPoint {
    if t1 <= t0 {
        return s;
    }
    // Target during (t0, t1]: determined by the state just after t0 (the
    // caller splits intervals at the transition time).
    let excited = path.excited_at(t0 + 0.5 * (t1 - t0));
    let target = if excited {
        params.excited_ss
    } else {
        params.ground_ss
    };
    let decay = memo.exp(-(t1 - t0) / params.ringup_tau_s);
    target + (s - target) * decay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;

    fn q(k: usize) -> QubitParams {
        ChipConfig::five_qubit_default().qubits[k].clone()
    }

    fn uniform_times(n: usize, dt: f64) -> Vec<f64> {
        (1..=n).map(|k| k as f64 * dt).collect()
    }

    #[test]
    fn ground_trace_rings_up_to_ground_point() {
        let params = q(0);
        let times = uniform_times(500, 2e-9);
        let tr = baseband(&params, &StatePath::Ground, &times);
        let last = *tr.last().unwrap();
        // 1 µs ≫ τ = 140 ns → essentially settled.
        assert!(last.distance(params.ground_ss) < 1e-3 * params.ground_ss.norm().max(1.0));
    }

    #[test]
    fn excited_trace_rings_up_to_excited_point() {
        let params = q(0);
        let times = uniform_times(500, 2e-9);
        let tr = baseband(&params, &StatePath::Excited, &times);
        assert!(tr.last().unwrap().distance(params.excited_ss) < 1e-3);
    }

    #[test]
    fn ringup_is_monotone_toward_target() {
        let params = q(0);
        let times = uniform_times(100, 2e-9);
        let tr = baseband(&params, &StatePath::Ground, &times);
        let mut prev = IqPoint::ZERO.distance(params.ground_ss);
        for p in tr {
            let d = p.distance(params.ground_ss);
            assert!(d <= prev + 1e-12, "distance to target must shrink");
            prev = d;
        }
    }

    #[test]
    fn relaxation_trace_ends_at_ground() {
        let params = q(0);
        let times = uniform_times(500, 2e-9);
        let path = StatePath::Relaxation { time_s: 0.3e-6 };
        let tr = baseband(&params, &path, &times);
        // 0.7 µs of ring-down at τ = 140 ns leaves exp(-5) ≈ 0.7 % of the
        // separation.
        assert!(tr.last().unwrap().distance(params.ground_ss) < 0.02);
        // At 0.29 µs (τ-settled from t=0) the trace must be near the excited
        // point.
        let idx = (0.29e-6 / 2e-9) as usize;
        assert!(tr[idx].distance(params.excited_ss) < 0.2 * params.separation() + 0.05);
    }

    #[test]
    fn relaxation_trace_differs_from_both_pure_traces() {
        let params = q(0);
        let times = uniform_times(500, 2e-9);
        let relax = baseband(&params, &StatePath::Relaxation { time_s: 0.5e-6 }, &times);
        let ground = baseband(&params, &StatePath::Ground, &times);
        let excited = baseband(&params, &StatePath::Excited, &times);
        let dist = |a: &[IqPoint], b: &[IqPoint]| -> f64 {
            a.iter().zip(b).map(|(x, y)| x.distance(*y)).sum::<f64>()
        };
        assert!(dist(&relax, &ground) > 1.0);
        assert!(dist(&relax, &excited) > 1.0);
    }

    #[test]
    fn transition_inside_a_coarse_step_is_honoured() {
        // Even with a single sample after the transition, the trace must land
        // between the two steady states, not at the excited point.
        let params = q(0);
        let path = StatePath::Relaxation { time_s: 0.5e-6 };
        let tr = baseband(&params, &path, &[1.0e-6]);
        let d_ground = tr[0].distance(params.ground_ss);
        let d_excited = tr[0].distance(params.excited_ss);
        assert!(
            d_ground < d_excited,
            "late sample should be closer to ground"
        );
    }

    #[test]
    fn excitation_measure_endpoints() {
        let params = q(2);
        assert!(excitation_measure(&params, params.ground_ss).abs() < 1e-12);
        assert!((excitation_measure(&params, params.excited_ss) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_matches_excitation_measure_bitwise() {
        let cfg = ChipConfig::five_qubit_default();
        let times = uniform_times(64, 2e-9);
        for params in &cfg.qubits {
            let probe = ExcitationProbe::new(params);
            let tr = baseband(params, &StatePath::Relaxation { time_s: 0.3e-6 }, &times);
            for &s in &tr {
                assert_eq!(
                    probe.measure(s).to_bits(),
                    excitation_measure(params, s).to_bits()
                );
            }
        }
    }

    #[test]
    fn cached_baseband_matches_sequential() {
        let times = uniform_times(500, 2e-9);
        let paths = [
            StatePath::Ground,
            StatePath::Excited,
            // Transition at the window start: no split, pure final state.
            StatePath::Relaxation { time_s: 0.0 },
            StatePath::Excitation { time_s: 0.0 },
            // Mid-window transitions, on and off the sample grid.
            StatePath::Relaxation { time_s: 0.3e-6 },
            StatePath::Excitation { time_s: 0.4567e-6 },
            StatePath::Relaxation { time_s: 2e-9 },
            StatePath::Excitation { time_s: 1e-9 },
            // Transition past the window end: segment B never starts.
            StatePath::Relaxation { time_s: 5e-6 },
        ];
        let scalar_arm = herqles_num::active_kernel_name() == "scalar";
        for params in &ChipConfig::five_qubit_default().qubits {
            let table = RingupTable::new(params, &times);
            for path in &paths {
                let reference = baseband(params, path, &times);
                let mut cached = Vec::new();
                baseband_into_cached(params, path, &times, &table, &mut cached);
                assert_eq!(cached.len(), reference.len());
                for (k, (c, r)) in cached.iter().zip(&reference).enumerate() {
                    if scalar_arm {
                        // The scalar arm must fall back to the sequential
                        // reference bit for bit.
                        assert_eq!(c.i.to_bits(), r.i.to_bits(), "{path:?} sample {k}");
                        assert_eq!(c.q.to_bits(), r.q.to_bits(), "{path:?} sample {k}");
                    } else {
                        assert!(
                            c.distance(*r) <= 1e-9 * (1.0 + r.norm()),
                            "{path:?} sample {k}: {c:?} vs {r:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cached_baseband_falls_back_bitwise_on_nonuniform_clock() {
        let params = q(0);
        let mut times = uniform_times(64, 2e-9);
        times[30] += 0.5e-9; // genuinely non-uniform step
        let table = RingupTable::new(&params, &times);
        let path = StatePath::Relaxation { time_s: 0.05e-6 };
        let reference = baseband(&params, &path, &times);
        let mut cached = Vec::new();
        baseband_into_cached(&params, &path, &times, &table, &mut cached);
        assert_eq!(cached.len(), reference.len());
        for (c, r) in cached.iter().zip(&reference) {
            assert_eq!(c.i.to_bits(), r.i.to_bits());
            assert_eq!(c.q.to_bits(), r.q.to_bits());
        }
    }

    #[test]
    fn ringup_table_rejects_mismatched_clock() {
        let params = q(0);
        let times = uniform_times(64, 2e-9);
        let table = RingupTable::new(&params, &times);
        // A different clock must not be accepted by a stale table.
        let other = uniform_times(64, 4e-9);
        let reference = baseband(&params, &StatePath::Excited, &other);
        let mut cached = Vec::new();
        baseband_into_cached(&params, &StatePath::Excited, &other, &table, &mut cached);
        for (c, r) in cached.iter().zip(&reference) {
            assert_eq!(c.i.to_bits(), r.i.to_bits());
            assert_eq!(c.q.to_bits(), r.q.to_bits());
        }
    }

    #[test]
    fn excitation_measure_zero_separation_is_zero() {
        let mut params = q(0);
        params.excited_ss = params.ground_ss;
        assert_eq!(excitation_measure(&params, IqPoint::new(3.0, 4.0)), 0.0);
    }
}
