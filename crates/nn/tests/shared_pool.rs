//! The row split under concurrency: every product large enough to split
//! runs on one process-wide thread pool, so callers on several threads at
//! once, and callers inside another pool's tasks, must share it without a
//! deadlock, a nested-fan-out panic or a moved bit.
//!
//! Each product below crosses the 2^18-MAC parallel threshold with several
//! 64-row blocks. Its reference is the same product computed one row at a
//! time, far below the threshold, so it never splits; every output row
//! depends only on its own input row, so the two must match `to_bits`.

use std::sync::{Arc, Barrier};

use herqles_exec::ShardPool;
use readout_nn::matrix::{gemm_into, gemm_rt_into};
use readout_nn::{Matrix, Mlp};

/// Seeded values in `[-1, 1)` (xorshift; deterministic and dependency-free).
fn pseudo_random(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        })
        .collect()
}

/// Broadcast GEMM: 300 × 200 × 64 (3.8 M MACs, five blocks).
const GEMM: (usize, usize, usize) = (300, 200, 64);
/// Tall-skinny GEMM on a transposed right operand: 300 × 500 × 4.
const GEMM_RT: (usize, usize, usize) = (300, 500, 4);
/// Rows through the five-qubit head (2440 MACs per row, 17 blocks).
const FORWARD_ROWS: usize = 1027;

struct Fixture {
    gemm_lhs: Vec<f64>,
    gemm_rhs: Vec<f64>,
    rt_lhs: Vec<f64>,
    rt_rhs_t: Vec<f64>,
    net: Mlp,
    x: Matrix,
}

/// The three products' outputs, in one vector.
fn products(f: &Fixture) -> Vec<f64> {
    let (m, k, n) = GEMM;
    let mut gemm = vec![0.0; m * n];
    gemm_into(&f.gemm_lhs, &f.gemm_rhs, &mut gemm, m, k, n);
    let (m, k, n) = GEMM_RT;
    let mut rt = vec![0.0; m * n];
    gemm_rt_into(&f.rt_lhs, &f.rt_rhs_t, &mut rt, m, k, n);
    let logits = f.net.forward(&f.x);
    [gemm, rt, logits.as_slice().to_vec()].concat()
}

/// The same products, one row per call: no call reaches the threshold.
fn row_by_row(f: &Fixture) -> Vec<f64> {
    let (_, k, n) = GEMM;
    let mut gemm = Vec::new();
    for row in f.gemm_lhs.chunks_exact(k) {
        let mut out = vec![0.0; n];
        gemm_into(row, &f.gemm_rhs, &mut out, 1, k, n);
        gemm.extend(out);
    }
    let (_, k, n) = GEMM_RT;
    let mut rt = Vec::new();
    for row in f.rt_lhs.chunks_exact(k) {
        let mut out = vec![0.0; n];
        gemm_rt_into(row, &f.rt_rhs_t, &mut out, 1, k, n);
        rt.extend(out);
    }
    let mut logits = Vec::new();
    for r in 0..f.x.rows() {
        let row = Matrix::from_vec(1, f.x.cols(), f.x.row(r).to_vec());
        logits.extend_from_slice(f.net.forward(&row).as_slice());
    }
    [gemm, rt, logits].concat()
}

fn fixture() -> Fixture {
    let net = Mlp::new(&[10, 20, 40, 20, 32], 5);
    let n_in = net.input_size();
    Fixture {
        gemm_lhs: pseudo_random(GEMM.0 * GEMM.1, 1),
        gemm_rhs: pseudo_random(GEMM.1 * GEMM.2, 2),
        rt_lhs: pseudo_random(GEMM_RT.0 * GEMM_RT.1, 3),
        rt_rhs_t: pseudo_random(GEMM_RT.2 * GEMM_RT.1, 4),
        x: Matrix::from_vec(FORWARD_ROWS, n_in, pseudo_random(FORWARD_ROWS * n_in, 6)),
        net,
    }
}

fn assert_bit_identical(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: value {i}: {g} vs {w}");
    }
}

#[test]
fn concurrent_callers_share_the_pool_bitwise() {
    const CALLERS: usize = 4;
    let f = Arc::new(fixture());
    let want = Arc::new(row_by_row(&f));
    let start = Arc::new(Barrier::new(CALLERS));
    let callers: Vec<_> = (0..CALLERS)
        .map(|t| {
            let (f, want, start) = (Arc::clone(&f), Arc::clone(&want), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for rep in 0..3 {
                    assert_bit_identical(&format!("thread {t} rep {rep}"), &products(&f), &want);
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("a concurrent caller failed");
    }
}

#[test]
fn calls_from_another_pools_tasks_finish_bitwise() {
    let f = fixture();
    let want = row_by_row(&f);
    // Each task runs on the outer pool's worker or on the calling thread in
    // the middle of publishing the outer fan-out; either way the products
    // publish on a different pool, which must not count as nesting.
    let outer = ShardPool::new(2);
    outer.run(2, |task| {
        assert_bit_identical(&format!("outer task {task}"), &products(&f), &want);
    });
}
