//! The paper's NISQ benchmark circuits: `qft-n`, `ghz-n`, `bv-n`, `qaoa-n`.

use crate::circuit::Circuit;

/// Quantum Fourier transform on `n` qubits followed by its inverse — a
/// self-verifying workload whose ideal output is the input state (the
/// `qft-n` benchmark's success condition).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn qft_roundtrip(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    append_qft(&mut c, n, false);
    append_qft(&mut c, n, true);
    c
}

/// The forward QFT alone.
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    append_qft(&mut c, n, false);
    c
}

fn append_qft(c: &mut Circuit, n: usize, inverse: bool) {
    let sign = if inverse { -1.0 } else { 1.0 };
    let qubits: Vec<usize> = (0..n).collect();
    let body = |c: &mut Circuit| {
        for i in (0..n).rev() {
            c.h(qubits[i]);
            for j in (0..i).rev() {
                let theta = sign * std::f64::consts::PI / f64::from(1u32 << (i - j));
                c.cp(qubits[j], qubits[i], theta);
            }
        }
    };
    if inverse {
        // Inverse: reverse gate order with negated phases. For this
        // palindrome structure, rebuilding in reverse order achieves it.
        let mut tmp = Circuit::new(n);
        body(&mut tmp);
        for g in tmp.gates().iter().rev() {
            c.push(*g);
        }
    } else {
        body(c);
    }
}

/// GHZ state preparation on `n` qubits: `H` then a CNOT ladder. Ideal output
/// is an equal superposition of all-zeros and all-ones.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c
}

/// Bernstein–Vazirani with an `n`-bit secret (little-endian bits of
/// `secret`), using the phase-oracle construction without an ancilla. The
/// ideal measurement outcome is exactly `secret`.
///
/// # Panics
///
/// Panics if `n == 0` or `secret >= 2^n`.
pub fn bernstein_vazirani(n: usize, secret: u64) -> Circuit {
    assert!(n < 64 && secret < (1u64 << n), "secret must fit in n bits");
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    // Phase oracle: Z on every secret bit flips the phase of |1⟩ components.
    for q in 0..n {
        if (secret >> q) & 1 == 1 {
            c.push(crate::circuit::Gate::Z(q));
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// The conventional alternating secret `1010…` used by benchmark suites.
pub fn alternating_secret(n: usize) -> u64 {
    let mut s = 0u64;
    for q in (0..n).step_by(2) {
        s |= 1 << q;
    }
    s
}

/// One-level QAOA for MaxCut on a ring of `n` vertices with angles
/// `(gamma, beta)`: the standard cost-layer (`ZZ` interactions via
/// CNOT–RZ–CNOT) plus the mixer layer.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn qaoa_ring(n: usize, gamma: f64, beta: f64) -> Circuit {
    assert!(n >= 2, "QAOA ring needs at least two vertices");
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for e in 0..n {
        let (a, b) = (e, (e + 1) % n);
        if a == b {
            continue;
        }
        c.cx(a, b);
        c.rz(b, 2.0 * gamma);
        c.cx(a, b);
    }
    for q in 0..n {
        c.rx(q, 2.0 * beta);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_ideal;

    #[test]
    fn qft_roundtrip_is_identity_on_zero() {
        for n in [2, 4] {
            let probs = run_ideal(&qft_roundtrip(n)).probabilities();
            assert!((probs[0] - 1.0).abs() < 1e-9, "qft-{n} roundtrip broke");
        }
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let probs = run_ideal(&qft(3)).probabilities();
        for (idx, p) in probs.iter().enumerate() {
            assert!((p - 0.125).abs() < 1e-9, "index {idx}: {p}");
        }
    }

    #[test]
    fn ghz_is_cat_state() {
        let probs = run_ideal(&ghz(5)).probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[31] - 0.5).abs() < 1e-12);
        let middle: f64 = probs[1..31].iter().sum();
        assert!(middle.abs() < 1e-12);
    }

    #[test]
    fn bernstein_vazirani_recovers_secret() {
        for n in [3, 5, 8] {
            let secret = alternating_secret(n);
            let probs = run_ideal(&bernstein_vazirani(n, secret)).probabilities();
            assert!(
                (probs[secret as usize] - 1.0).abs() < 1e-9,
                "bv-{n} failed to produce its secret deterministically"
            );
        }
    }

    #[test]
    fn alternating_secret_pattern() {
        assert_eq!(alternating_secret(5), 0b10101);
        assert_eq!(alternating_secret(4), 0b0101);
    }

    #[test]
    fn qaoa_preserves_norm_and_mixes() {
        let state = run_ideal(&qaoa_ring(4, 0.7, 0.4));
        assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
        // The distribution must not be a delta.
        let max = state.probabilities().into_iter().fold(0.0, f64::max);
        assert!(max < 0.9);
    }

    #[test]
    fn qaoa_zero_angles_is_uniform() {
        let probs = run_ideal(&qaoa_ring(3, 0.0, 0.0)).probabilities();
        for p in probs {
            assert!((p - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "fit in n bits")]
    fn oversized_secret_panics() {
        let _ = bernstein_vazirani(2, 4);
    }
}
