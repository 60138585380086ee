//! Core data types shared across the readout pipeline: IQ points, IQ time
//! traces, and multi-qubit basis states.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A single point in the IQ (in-phase / quadrature) plane.
///
/// Readout signals are quadrature-modulated; after demodulation each time bin
/// of a qubit's trace is one `IqPoint`. The type behaves like a complex number
/// `i + j·q` under addition and scalar multiplication.
///
/// ```
/// use readout_sim::IqPoint;
/// let a = IqPoint::new(1.0, 2.0);
/// let b = IqPoint::new(0.5, -1.0);
/// assert_eq!((a + b).i, 1.5);
/// assert!((a * 2.0).q == 4.0);
/// ```
///
/// `#[repr(C)]`: a `[IqPoint]` is an interleaved `i, q, i, q, …` run of
/// `f64`s, which the vectorized readout mixer loads directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct IqPoint {
    /// In-phase component.
    pub i: f64,
    /// Quadrature component.
    pub q: f64,
}

impl IqPoint {
    /// Origin of the IQ plane.
    pub const ZERO: IqPoint = IqPoint { i: 0.0, q: 0.0 };

    /// Creates a point from its in-phase and quadrature components.
    pub fn new(i: f64, q: f64) -> Self {
        IqPoint { i, q }
    }

    /// Euclidean distance to another point.
    ///
    /// ```
    /// use readout_sim::IqPoint;
    /// let d = IqPoint::new(0.0, 0.0).distance(IqPoint::new(3.0, 4.0));
    /// assert!((d - 5.0).abs() < 1e-12);
    /// ```
    pub fn distance(self, other: IqPoint) -> f64 {
        (self - other).norm()
    }

    /// Euclidean norm (distance from the origin).
    pub fn norm(self) -> f64 {
        self.i.hypot(self.q)
    }

    /// Complex multiplication by `e^{i·theta}` (rotation about the origin).
    pub fn rotate(self, theta: f64) -> IqPoint {
        let (s, c) = theta.sin_cos();
        IqPoint::new(self.i * c - self.q * s, self.i * s + self.q * c)
    }
}

impl Add for IqPoint {
    type Output = IqPoint;
    fn add(self, rhs: IqPoint) -> IqPoint {
        IqPoint::new(self.i + rhs.i, self.q + rhs.q)
    }
}

impl AddAssign for IqPoint {
    fn add_assign(&mut self, rhs: IqPoint) {
        self.i += rhs.i;
        self.q += rhs.q;
    }
}

impl Sub for IqPoint {
    type Output = IqPoint;
    fn sub(self, rhs: IqPoint) -> IqPoint {
        IqPoint::new(self.i - rhs.i, self.q - rhs.q)
    }
}

impl Mul<f64> for IqPoint {
    type Output = IqPoint;
    fn mul(self, rhs: f64) -> IqPoint {
        IqPoint::new(self.i * rhs, self.q * rhs)
    }
}

impl fmt::Display for IqPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.i, self.q)
    }
}

/// A time-ordered sequence of IQ samples.
///
/// Used both for raw ADC-rate waveforms (one sample every 2 ns at
/// 500 MS/s) and for demodulated traces (one sample per 50 ns averaging bin).
/// The I and Q channels always have equal length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IqTrace {
    i: Vec<f64>,
    q: Vec<f64>,
}

impl IqTrace {
    /// Creates a trace from separate I and Q channel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the two channels have different lengths.
    pub fn new(i: Vec<f64>, q: Vec<f64>) -> Self {
        assert_eq!(i.len(), q.len(), "I and Q channels must have equal length");
        IqTrace { i, q }
    }

    /// Creates an all-zero trace of `len` samples.
    pub fn zeros(len: usize) -> Self {
        IqTrace {
            i: vec![0.0; len],
            q: vec![0.0; len],
        }
    }

    /// Number of time samples.
    pub fn len(&self) -> usize {
        self.i.len()
    }

    /// Whether the trace contains no samples.
    pub fn is_empty(&self) -> bool {
        self.i.is_empty()
    }

    /// The I channel.
    pub fn i(&self) -> &[f64] {
        &self.i
    }

    /// The Q channel.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// The sample at time index `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    pub fn sample(&self, t: usize) -> IqPoint {
        IqPoint::new(self.i[t], self.q[t])
    }

    /// Appends a sample at the end of the trace.
    pub fn push(&mut self, p: IqPoint) {
        self.i.push(p.i);
        self.q.push(p.q);
    }

    /// Iterates over samples as [`IqPoint`]s.
    pub fn iter(&self) -> impl Iterator<Item = IqPoint> + '_ {
        self.i
            .iter()
            .zip(self.q.iter())
            .map(|(&i, &q)| IqPoint::new(i, q))
    }

    /// The Mean Trace Value (MTV): the temporal mean of the trace.
    ///
    /// The paper uses the MTV both for visualization (Fig. 3b, Fig. 8a) and as
    /// the dimensionality reduction inside Algorithm 1's relaxation labeling.
    ///
    /// Returns [`IqPoint::ZERO`] for an empty trace.
    pub fn mtv(&self) -> IqPoint {
        if self.is_empty() {
            return IqPoint::ZERO;
        }
        let n = self.len() as f64;
        let si: f64 = self.i.iter().sum();
        let sq: f64 = self.q.iter().sum();
        IqPoint::new(si / n, sq / n)
    }

    /// Returns a copy truncated to the first `len` samples.
    ///
    /// Used for readout-duration reduction (paper §5): traces recorded for the
    /// full 1 µs window are discriminated using only a prefix. If `len`
    /// exceeds the trace length the whole trace is returned.
    pub fn truncated(&self, len: usize) -> IqTrace {
        let len = len.min(self.len());
        IqTrace {
            i: self.i[..len].to_vec(),
            q: self.q[..len].to_vec(),
        }
    }

    /// Concatenated `[I..., Q...]` feature vector, the input layout of the
    /// baseline FNN discriminator (500 I samples then 500 Q samples).
    pub fn to_feature_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 * self.len());
        v.extend_from_slice(&self.i);
        v.extend_from_slice(&self.q);
        v
    }
}

impl FromIterator<IqPoint> for IqTrace {
    fn from_iter<T: IntoIterator<Item = IqPoint>>(iter: T) -> Self {
        let mut tr = IqTrace::default();
        for p in iter {
            tr.push(p);
        }
        tr
    }
}

/// A computational basis state of an `n`-qubit register, stored little-endian
/// (bit `k` is qubit `k`).
///
/// ```
/// use readout_sim::BasisState;
/// let s = BasisState::new(0b01101);
/// assert!(s.qubit(0) && !s.qubit(1) && s.qubit(2));
/// assert_eq!(s.index(), 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BasisState(u32);

impl BasisState {
    /// Creates a basis state from its little-endian bit pattern.
    pub fn new(bits: u32) -> Self {
        BasisState(bits)
    }

    /// The raw bit pattern.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// The integer index of the state (equal to the bit pattern).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether qubit `k` is excited (`1`) in this state.
    pub fn qubit(self, k: usize) -> bool {
        (self.0 >> k) & 1 == 1
    }

    /// Returns a copy with qubit `k` set to `value`.
    pub fn with_qubit(self, k: usize, value: bool) -> BasisState {
        if value {
            BasisState(self.0 | (1 << k))
        } else {
            BasisState(self.0 & !(1 << k))
        }
    }

    /// Flips qubit `k`.
    #[must_use]
    pub fn flipped(self, k: usize) -> BasisState {
        BasisState(self.0 ^ (1 << k))
    }

    /// Hamming distance to another basis state.
    pub fn hamming_distance(self, other: BasisState) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// Iterates over all `2^n` basis states of an `n`-qubit register.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (guard against accidental enormous enumerations).
    pub fn all(n: usize) -> impl Iterator<Item = BasisState> {
        assert!(n <= 20, "refusing to enumerate more than 2^20 basis states");
        (0..(1u32 << n)).map(BasisState)
    }

    /// Renders the state as a bit string with qubit 0 leftmost, e.g. `|01101>`.
    pub fn to_bit_string(self, n: usize) -> String {
        let mut s = String::with_capacity(n + 2);
        s.push('|');
        for k in 0..n {
            s.push(if self.qubit(k) { '1' } else { '0' });
        }
        s.push('>');
        s
    }
}

impl From<u32> for BasisState {
    fn from(bits: u32) -> Self {
        BasisState(bits)
    }
}

impl fmt::Display for BasisState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iq_point_arithmetic() {
        let a = IqPoint::new(1.0, -2.0);
        let b = IqPoint::new(3.0, 4.0);
        assert_eq!(a + b, IqPoint::new(4.0, 2.0));
        assert_eq!(b - a, IqPoint::new(2.0, 6.0));
        assert_eq!(a * -1.0, IqPoint::new(-1.0, 2.0));
    }

    #[test]
    fn iq_point_rotation_preserves_norm() {
        let p = IqPoint::new(3.0, 4.0);
        let r = p.rotate(1.234);
        assert!((r.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn iq_point_rotation_quarter_turn() {
        let p = IqPoint::new(1.0, 0.0);
        let r = p.rotate(std::f64::consts::FRAC_PI_2);
        assert!(r.i.abs() < 1e-12 && (r.q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_mtv_is_mean() {
        let tr = IqTrace::new(vec![1.0, 3.0], vec![-2.0, 2.0]);
        assert_eq!(tr.mtv(), IqPoint::new(2.0, 0.0));
    }

    #[test]
    fn trace_mtv_empty_is_zero() {
        assert_eq!(IqTrace::default().mtv(), IqPoint::ZERO);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn trace_mismatched_channels_panic() {
        let _ = IqTrace::new(vec![1.0], vec![]);
    }

    #[test]
    fn trace_truncation_clamps() {
        let tr = IqTrace::new(vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]);
        assert_eq!(tr.truncated(2).len(), 2);
        assert_eq!(tr.truncated(99).len(), 3);
        assert_eq!(tr.truncated(0).len(), 0);
    }

    #[test]
    fn trace_feature_vec_layout() {
        let tr = IqTrace::new(vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(tr.to_feature_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn trace_collects_from_points() {
        let tr: IqTrace = (0..3).map(|t| IqPoint::new(t as f64, 0.0)).collect();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.sample(2), IqPoint::new(2.0, 0.0));
    }

    #[test]
    fn basis_state_bits() {
        let s = BasisState::new(0b10110);
        assert!(!s.qubit(0));
        assert!(s.qubit(1));
        assert!(s.qubit(2));
        assert!(!s.qubit(3));
        assert!(s.qubit(4));
    }

    #[test]
    fn basis_state_flip_roundtrip() {
        let s = BasisState::new(0b00101);
        assert_eq!(s.flipped(1).flipped(1), s);
        assert_eq!(s.with_qubit(1, true).bits(), 0b00111);
    }

    #[test]
    fn basis_state_hamming() {
        assert_eq!(
            BasisState::new(0b11111).hamming_distance(BasisState::new(0b00000)),
            5
        );
        assert_eq!(
            BasisState::new(0b101).hamming_distance(BasisState::new(0b100)),
            1
        );
    }

    #[test]
    fn basis_state_enumeration() {
        let all: Vec<_> = BasisState::all(3).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[5].index(), 5);
    }

    #[test]
    fn basis_state_bit_string() {
        assert_eq!(BasisState::new(0b01101).to_bit_string(5), "|10110>");
    }
}
