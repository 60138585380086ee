//! Forward parity: the tiled, allocation-free [`Mlp::forward`] against the
//! layer chain it replaces.
//!
//! The reference is built from public parts only: [`Dense::forward`] on the
//! whole batch, then [`relu_inplace`] before every later layer. The tiled
//! forward walks 16-row tiles through all layers and may split the rows
//! into 64-row blocks on a thread pool, so the nets and batch sizes below
//! cross every edge that could move a bit: widths 1–70 (lane and unroll
//! remainders, the `KC`/`NC` = 64 tile boundaries), a tall-skinny layer
//! (`n ≤ 16`, `k ≥ 32`), batches of 0, 1, 15, 16, 17, 65 and 1027 rows
//! (tile edges and the pooled split), an all-zero input row and a ReLU
//! unit that is dead on every row. Logits must match `to_bits`, on
//! whichever kernel backend `HERQLES_KERNEL` selects.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_nn::layers::relu_inplace;
use readout_nn::{Dense, Matrix, Mlp};

/// The pre-tiling forward: one `Dense::forward` per layer over the whole
/// batch, ReLU between layers.
fn layer_chain(net: &Mlp, x: &Matrix) -> Matrix {
    let layers = net.layers();
    let mut a = layers[0].forward(x);
    for layer in &layers[1..] {
        relu_inplace(&mut a);
        a = layer.forward(&a);
    }
    a
}

/// Seeded inputs in `[-2, 2)`, with row 0 all zeros (every hidden unit's
/// pre-activation is then its bias).
fn inputs(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random::<f64>() * 4.0 - 2.0)
        .collect();
    data.iter_mut().take(cols).for_each(|v| *v = 0.0);
    Matrix::from_vec(rows, cols, data)
}

/// `Mlp::new(sizes)` with random biases, and hidden unit 0 of the second
/// layer made dead: zero weights and a negative bias, so ReLU zeroes it on
/// every row and the next layer always sees a zero multiplier there.
fn net_with_dead_unit(sizes: &[usize], seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
    let layers = Mlp::new(sizes, seed)
        .layers()
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let mut weights = layer.weights().clone();
            let mut bias: Vec<f64> = (0..layer.output_size())
                .map(|_| rng.random::<f64>() - 0.5)
                .collect();
            if l == 1 && l + 1 < sizes.len() - 1 {
                for r in 0..weights.rows() {
                    weights.set(r, 0, 0.0);
                }
                bias[0] = -0.25;
            }
            Dense::from_parameters(weights, bias)
        })
        .collect();
    Mlp::from_layers(layers)
}

fn assert_bit_identical(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{label}: shape"
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: logit {i} (row {}, col {}) {g} vs layer chain {w}",
            i / got.cols(),
            i % got.cols(),
        );
    }
}

/// Fixed architectures: the paper's five-qubit head, width-1 and width-70
/// layers, every `KC`/`NC` = 64 neighbour, a tall-skinny layer (`33 → 12`),
/// and a net wide enough (18 480 MACs per row) that 65 rows already cross
/// the 2^18-MAC parallel threshold and split into a 64-row and a 1-row
/// block on a multi-core host.
const FIXED: &[&[usize]] = &[
    &[10, 20, 40, 20, 32],
    &[1, 70, 1, 5],
    &[67, 33, 12, 70, 2],
    &[64, 65, 63, 17, 16],
    &[3, 64, 64, 64, 9],
    &[70, 70, 65, 70, 64],
];

/// Batch sizes: tile edges, a last pooled block of one row, and a batch
/// large enough to split for every net above but `[1, 70, 1, 5]`.
const ROWS: &[usize] = &[0, 1, 15, 16, 17, 65, 1027];

#[test]
fn tiled_forward_matches_layer_chain_bitwise() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut nets: Vec<Vec<usize>> = FIXED.iter().map(|s| s.to_vec()).collect();
    for _ in 0..4 {
        let depth = rng.random_range(2..7);
        nets.push((0..depth).map(|_| rng.random_range(1..71)).collect());
    }
    for (ni, sizes) in nets.iter().enumerate() {
        let net = net_with_dead_unit(sizes, 100 + ni as u64);
        for &m in ROWS {
            let x = inputs(m, sizes[0], (ni * 10_000 + m) as u64);
            let label = format!("net {sizes:?} rows {m}");
            let got = net.forward(&x);
            let want = layer_chain(&net, &x);
            assert_bit_identical(&label, &got, &want);
            let classes = net.predict_rows(&x);
            for (r, &c) in classes.iter().enumerate() {
                assert_eq!(c, readout_nn::net::argmax(want.row(r)), "{label}: row {r}");
            }
        }
    }
}

#[test]
fn dead_unit_is_dead_and_zero_row_sees_only_biases() {
    // Guards the fixture: the second layer's unit 0 outputs zero on every
    // row, so the parity test above really runs zero multipliers.
    let net = net_with_dead_unit(&[10, 20, 40, 20, 32], 7);
    let x = inputs(64, 10, 8);
    let layers = net.layers();
    let mut a = layers[0].forward(&x);
    relu_inplace(&mut a);
    let mut h = layers[1].forward(&a);
    relu_inplace(&mut h);
    assert!((0..h.rows()).all(|r| h.get(r, 0) == 0.0));
    assert!(x.row(0).iter().all(|&v| v == 0.0));
}

#[test]
fn single_and_batched_predictions_use_the_same_forward() {
    let net = net_with_dead_unit(&[10, 20, 40, 20, 32], 3);
    let x = inputs(40, 10, 4);
    let rows: Vec<Vec<f64>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
    let batched = net.predict_batch(&rows);
    let chain = layer_chain(&net, &x);
    for (r, row) in rows.iter().enumerate() {
        assert_eq!(net.predict(row), batched[r], "row {r}");
        assert_eq!(batched[r], readout_nn::net::argmax(chain.row(r)), "row {r}");
    }
    let probs = net.forward_probs(&x);
    let want = readout_nn::loss::softmax(&chain);
    assert_bit_identical("forward_probs", &probs, &want);
}
