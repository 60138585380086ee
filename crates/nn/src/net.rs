//! The multilayer perceptron: architecture, inference, and training loop.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use herqles_num::kernel::{active_kernel_name, Kernel, ScalarKernel};
use herqles_num::Real;

use crate::data::minibatch_indices;
use crate::layers::{relu_inplace, Dense};
use crate::loss::{softmax, softmax_cross_entropy};
use crate::matrix::{for_row_blocks, gemm_rows_into, Matrix, Rhs};
use crate::optim::{Adam, Optimizer, Sgd};

/// Rows per inference tile in [`Mlp::forward`]: every layer's activations
/// for one tile stay in L1 (16 rows × the 40-unit widest hidden layer of
/// the five-qubit head is 5 KiB).
const TILE: usize = 16;

/// Which optimizer the training loop instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Adam with the configured learning rate.
    Adam,
    /// SGD with the configured learning rate and the given momentum.
    Sgd {
        /// Momentum coefficient in `[0, 1)`.
        momentum: f64,
    },
}

/// Training hyper-parameters for [`Mlp::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimizer learning rate.
    pub learning_rate: f64,
    /// Optimizer flavour.
    pub optimizer: OptimizerKind,
    /// Seed controlling minibatch shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            batch_size: 64,
            learning_rate: 1e-3,
            optimizer: OptimizerKind::Adam,
            seed: 0,
        }
    }
}

/// Summary returned by [`Mlp::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss after each epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock time spent inside the training loop.
    pub wall_time: Duration,
}

impl TrainReport {
    /// The loss after the final epoch.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// A feed-forward network of dense layers with ReLU activations on hidden
/// layers and linear output (softmax applied in the loss / probability
/// helpers).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds a network with the given layer sizes, e.g. `[10, 20, 40, 20, 32]`
    /// for the paper's five-qubit HERQULES head. Weights are He-initialized
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Mlp { layers }
    }

    /// Builds a network from explicit layers, input side first.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or a layer's input width differs from
    /// the previous layer's output width.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_size(),
                pair[1].input_size(),
                "consecutive layer widths must agree"
            );
        }
        Mlp { layers }
    }

    /// The layer sizes, input first.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.layers[0].input_size()];
        sizes.extend(self.layers.iter().map(Dense::output_size));
        sizes
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Output dimension (number of classes).
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .output_size()
    }

    /// The dense layers, input side first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Total number of trainable parameters.
    pub fn n_parameters(&self) -> usize {
        self.layers.iter().map(Dense::n_parameters).sum()
    }

    /// Total multiply-accumulates per single-sample inference.
    pub fn n_macs(&self) -> usize {
        self.layers.iter().map(Dense::n_macs).sum()
    }

    /// Forward pass producing logits for a batch, one sample per row.
    ///
    /// Walks 16-row tiles through every layer in two scratch
    /// buffers: per layer, the single-thread GEMM body of
    /// [`gemm_into`](crate::matrix::gemm_into) on the tile, then bias add
    /// and (on hidden layers) ReLU in place. No per-layer matrix or ReLU
    /// mask is built, and the rows are split into pooled blocks at most
    /// once, when the whole forward crosses the matmul's parallel threshold.
    /// Every layer does the same per-row arithmetic as [`Dense::forward`]
    /// followed by [`relu_inplace`], so the logits are bit-identical to
    /// that layer chain on every kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_size()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_size(), "inner dimensions must agree");
        // Monomorphized scalar arm, as in `gemm_into`.
        if active_kernel_name() == "scalar" {
            self.forward_with(&ScalarKernel, x)
        } else {
            self.forward_with(<f64 as Real>::kernel(), x)
        }
    }

    /// [`Mlp::forward`] on an explicit microkernel backend.
    fn forward_with<K: Kernel<f64> + ?Sized>(&self, kernel: &K, x: &Matrix) -> Matrix {
        let m = x.rows();
        let n_out = self.output_size();
        let mut out = Matrix::zeros(m, n_out);
        let rhs: Vec<Rhs<'_, f64>> = self
            .layers
            .iter()
            .map(|layer| {
                let w = layer.weights();
                Rhs::new(w.as_slice(), w.rows(), w.cols())
            })
            .collect();
        let (work, x, n_in) = (m * self.n_macs(), x.as_slice(), self.input_size());
        for_row_blocks(work, m, x, n_in, out.as_mut_slice(), n_out, |x, out, _| {
            self.forward_rows(kernel, &rhs, x, out);
        });
        out
    }

    /// Logits of the rows of `x` into `out`, one [`TILE`] at a time, with
    /// the layer outputs ping-ponging between two tile-sized buffers.
    fn forward_rows<K: Kernel<f64> + ?Sized>(
        &self,
        kernel: &K,
        rhs: &[Rhs<'_, f64>],
        x: &[f64],
        out: &mut [f64],
    ) {
        let n_in = self.input_size();
        let n_out = self.output_size();
        let last = self.layers.len() - 1;
        let hidden = self.layers[..last]
            .iter()
            .map(Dense::output_size)
            .max()
            .unwrap_or(0);
        let mut a = vec![0.0; TILE * hidden];
        let mut b = vec![0.0; TILE * hidden];
        for (x_tile, out_tile) in x.chunks(TILE * n_in).zip(out.chunks_mut(TILE * n_out)) {
            let rows = x_tile.len() / n_in;
            for (l, (layer, rhs)) in self.layers.iter().zip(rhs).enumerate() {
                let (k, n) = (layer.input_size(), layer.output_size());
                let input = if l == 0 { x_tile } else { &a[..rows * k] };
                let output = if l == last {
                    &mut out_tile[..]
                } else {
                    &mut b[..rows * n]
                };
                gemm_rows_into(kernel, input, rhs, output, rows, k, n);
                let relu = l != last;
                for row in output.chunks_exact_mut(n) {
                    for (v, &bias) in row.iter_mut().zip(layer.bias()) {
                        *v += bias;
                        // As `relu_inplace`: all but v > 0 (NaN too) is +0.
                        if relu {
                            *v = if *v > 0.0 { *v } else { 0.0 };
                        }
                    }
                }
                std::mem::swap(&mut a, &mut b);
            }
        }
    }

    /// Forward pass producing softmax probabilities.
    pub fn forward_probs(&self, x: &Matrix) -> Matrix {
        softmax(&self.forward(x))
    }

    /// Predicted class of a single input.
    ///
    /// # Panics
    ///
    /// Panics if the input dimension is wrong.
    pub fn predict(&self, input: &[f64]) -> usize {
        let x = Matrix::from_vec(1, input.len(), input.to_vec());
        let logits = self.forward(&x);
        argmax(logits.row(0))
    }

    /// Predicted classes for a set of inputs (one batched forward pass).
    pub fn predict_batch(&self, inputs: &[Vec<f64>]) -> Vec<usize> {
        if inputs.is_empty() {
            return Vec::new();
        }
        self.predict_rows(&Matrix::from_rows(inputs))
    }

    /// Predicted classes for a batch already materialized as a matrix (one
    /// sample per row) — the zero-copy path for batched inference pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.input_size()`.
    pub fn predict_rows(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows()).map(|r| argmax(logits.row(r))).collect()
    }

    /// Trains the network with softmax cross-entropy on integer labels.
    ///
    /// # Panics
    ///
    /// Panics if inputs/labels disagree in length, the set is empty, or a
    /// label exceeds the output width.
    pub fn train(
        &mut self,
        inputs: &[Vec<f64>],
        labels: &[usize],
        config: &TrainConfig,
    ) -> TrainReport {
        assert_eq!(inputs.len(), labels.len(), "one label per input required");
        assert!(!inputs.is_empty(), "training set must be non-empty");
        let mut optimizer: Box<dyn Optimizer> = match config.optimizer {
            OptimizerKind::Adam => Box::new(Adam::new(config.learning_rate)),
            OptimizerKind::Sgd { momentum } => Box::new(Sgd::new(config.learning_rate, momentum)),
        };
        let start = Instant::now();
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        for epoch in 0..config.epochs {
            let batches = minibatch_indices(
                inputs.len(),
                config.batch_size,
                config.seed.wrapping_add(epoch as u64),
            );
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            for batch in &batches {
                let x_rows: Vec<Vec<f64>> = batch.iter().map(|&i| inputs[i].clone()).collect();
                let y: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                let x = Matrix::from_rows(&x_rows);
                let loss = self.train_step(&x, &y, optimizer.as_mut());
                epoch_loss += loss * batch.len() as f64;
                seen += batch.len();
            }
            epoch_losses.push(epoch_loss / seen as f64);
        }
        TrainReport {
            epoch_losses,
            wall_time: start.elapsed(),
        }
    }

    /// One forward/backward/update step on a batch; returns the batch loss.
    fn train_step(&mut self, x: &Matrix, labels: &[usize], optimizer: &mut dyn Optimizer) -> f64 {
        // Forward, caching post-activation inputs of every layer.
        let mut activations: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut masks: Vec<Matrix> = Vec::with_capacity(self.layers.len().saturating_sub(1));
        activations.push(x.clone());
        let mut a = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            let mask = relu_inplace(&mut a);
            masks.push(mask);
            activations.push(a.clone());
            a = layer.forward(&a);
        }
        let (loss, mut delta) = softmax_cross_entropy(&a, labels);

        // Backward through the stack.
        for l in (0..self.layers.len()).rev() {
            let input = &activations[l];
            // dW = inputᵀ · delta ; db = column sums of delta.
            let grad_w = input.transpose().matmul(&delta);
            let mut grad_b = vec![0.0; delta.cols()];
            for r in 0..delta.rows() {
                for (g, &d) in grad_b.iter_mut().zip(delta.row(r)) {
                    *g += d;
                }
            }
            // Propagate before updating the weights.
            if l > 0 {
                let mut next = delta.matmul(&self.layers[l].weights().transpose());
                let mask = &masks[l - 1];
                for (v, &m) in next.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                    *v *= m;
                }
                delta = next;
            }
            let layer = &mut self.layers[l];
            optimizer.step(2 * l, layer.weights_mut().as_mut_slice(), grad_w.as_slice());
            optimizer.step(2 * l + 1, layer.bias_mut(), &grad_b);
        }
        optimizer.end_step();
        loss
    }
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..50 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                inputs.push(vec![a, b]);
                labels.push(((a as i32) ^ (b as i32)) as usize);
            }
        }
        (inputs, labels)
    }

    #[test]
    fn architecture_reporting() {
        let net = Mlp::new(&[10, 20, 40, 20, 32], 0);
        assert_eq!(net.layer_sizes(), vec![10, 20, 40, 20, 32]);
        assert_eq!(net.input_size(), 10);
        assert_eq!(net.output_size(), 32);
        assert_eq!(net.n_macs(), 10 * 20 + 20 * 40 + 40 * 20 + 20 * 32);
        assert_eq!(net.n_parameters(), net.n_macs() + 20 + 40 + 20 + 32);
    }

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(&[4, 8, 2], 3);
        let b = Mlp::new(&[4, 8, 2], 3);
        assert_eq!(a, b);
        let c = Mlp::new(&[4, 8, 2], 4);
        assert_ne!(a, c);
    }

    #[test]
    fn learns_xor() {
        let (inputs, labels) = xor_data();
        let mut net = Mlp::new(&[2, 8, 8, 2], 1);
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 16,
            learning_rate: 5e-3,
            ..TrainConfig::default()
        };
        let report = net.train(&inputs, &labels, &cfg);
        assert!(report.final_loss() < 0.05, "loss {}", report.final_loss());
        for (a, b, want) in [(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)] {
            assert_eq!(net.predict(&[a, b]), want, "xor({a},{b})");
        }
    }

    #[test]
    fn sgd_also_learns() {
        let (inputs, labels) = xor_data();
        let mut net = Mlp::new(&[2, 16, 2], 2);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 8,
            learning_rate: 0.05,
            optimizer: OptimizerKind::Sgd { momentum: 0.9 },
            seed: 0,
        };
        net.train(&inputs, &labels, &cfg);
        assert_eq!(net.predict(&[1.0, 0.0]), 1);
        assert_eq!(net.predict(&[1.0, 1.0]), 0);
    }

    #[test]
    fn loss_decreases_during_training() {
        let (inputs, labels) = xor_data();
        let mut net = Mlp::new(&[2, 8, 2], 5);
        let report = net.train(
            &inputs,
            &labels,
            &TrainConfig {
                epochs: 50,
                ..TrainConfig::default()
            },
        );
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn batch_prediction_matches_single() {
        let net = Mlp::new(&[3, 6, 4], 9);
        let inputs = vec![vec![0.1, -0.5, 0.3], vec![1.0, 1.0, -1.0]];
        let batch = net.predict_batch(&inputs);
        assert_eq!(batch[0], net.predict(&inputs[0]));
        assert_eq!(batch[1], net.predict(&inputs[1]));
    }

    #[test]
    fn probabilities_form_simplex() {
        let net = Mlp::new(&[2, 5, 3], 0);
        let p = net.forward_probs(&Matrix::from_vec(1, 2, vec![0.2, -0.7]));
        let sum: f64 = p.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_prediction_is_empty() {
        let net = Mlp::new(&[2, 3, 2], 0);
        assert!(net.predict_batch(&[]).is_empty());
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        assert_eq!(argmax(&[1.0, 1.0, 0.0]), 0);
        assert_eq!(argmax(&[0.0, 2.0, 2.0]), 1);
    }

    #[test]
    #[should_panic(expected = "one label per input")]
    fn mismatched_training_data_panics() {
        let mut net = Mlp::new(&[1, 2, 2], 0);
        let _ = net.train(&[vec![0.0]], &[0, 1], &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn single_size_panics() {
        let _ = Mlp::new(&[3], 0);
    }
}
