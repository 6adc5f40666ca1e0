//! Fully-connected (dense) layer with manual backprop.
//!
//! A layer runs three products through the crate's GEMM kernel (see
//! [`crate::tensor`]): the forward `X W`, the weight gradient and the
//! input gradient `dY W^T`. The kernel's columns are the product's output
//! columns, and a product only a few columns wide runs in narrow tiles at
//! a fraction of the kernel's rate. So the weight gradient picks its
//! orientation from the layer's shape: `dW = X^T dY` has `out_dim`
//! columns, and the same sums as `dW^T = dY^T X` have `in_dim`. A layer
//! with fewer than 16 outputs, and fewer outputs than inputs, such as a
//! Q-network's output layer with one column per action, takes the
//! second. Either way every element is one sum over the batch rows,
//! ascending from `0.0`, of the same unfused products (`a * b == b * a`
//! exactly), so the gradient has the same bits.
//!
//! The forward keeps `X W` at every width. The wide orientation, `Y^T =
//! W^T X^T`, needs `X^T` copied first, and on a Q-network's output layer
//! (`[128 x 64]·[64 x n]`, n of 2 to 8) the copy costs about what the
//! product saves; running the whole network feature-major moves that
//! cost to the input but makes the two 64-wide hidden products slower.

use rand::Rng;

use crate::activation::Activation;
use crate::init;
use crate::param::Param;
use crate::tensor::{gemm, transpose_into, Strided, Tensor};

/// A dense layer computing `Y = X W + b` over 2-D batches `[batch, in]`.
///
/// The layer caches its input during [`Linear::forward`] so that
/// [`Linear::backward`] can compute `dW = X^T dY` without the caller
/// re-supplying activations — the same contract PyTorch modules provide.
/// Weights and bias are read in place, and the input cache and the
/// backward scratch are reused from call to call.
#[derive(Debug)]
pub struct Linear {
    /// Weight matrix, row-major `[in_dim, out_dim]`.
    pub w: Param,
    /// Bias vector `[out_dim]`.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    /// Input of the last training forward, row-major `[batch, in_dim]`.
    input: Vec<f32>,
    /// Rows in `input`; `None` until the first training forward.
    batch: Option<usize>,
    /// Backward scratch: `[in_dim, out_dim]` `dW` (or `[out_dim, in_dim]`
    /// `dW^T`) before it is accumulated, then `[out_dim]` `db`, then `W^T`
    /// for the input gradient.
    scratch: Vec<f32>,
}

/// A clone copies the parameters only. The input cache and the scratch
/// are this layer's working memory, so a clone (such as a served policy)
/// carries no training batch, and must run a training forward before a
/// backward.
impl Clone for Linear {
    fn clone(&self) -> Self {
        Self::from_params(self.in_dim, self.out_dim, self.w.clone(), self.b.clone())
    }
}

impl Linear {
    fn from_params(in_dim: usize, out_dim: usize, w: Param, b: Param) -> Self {
        Linear {
            w,
            b,
            in_dim,
            out_dim,
            input: Vec::new(),
            batch: None,
            scratch: Vec::new(),
        }
    }

    /// Create a layer with He-normal weights (suited to the ReLU MLPs Zeus
    /// uses) and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = Param::new(init::he_normal(in_dim, in_dim * out_dim, rng));
        Self::from_params(in_dim, out_dim, w, Param::zeros(out_dim))
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Whether the weight gradient runs output-major, as `dW^T = dY^T X`,
    /// with the layer's inputs as the kernel's columns (see the module
    /// docs).
    fn output_major_grad(&self) -> bool {
        self.out_dim < 16 && self.out_dim < self.in_dim
    }

    /// `out = x W + b` for `x` of `[rows, in_dim]`. `out` is resized to
    /// `[rows, out_dim]`, reusing its allocation; the kernel writes every
    /// element, so a buffer of the right length is not cleared first. The
    /// bias is added after each element's sum, as a separate rounding
    /// step.
    pub(crate) fn affine(&self, x: &[f32], rows: usize, out: &mut Vec<f32>) {
        out.resize(rows * self.out_dim, 0.0);
        gemm(
            Strided::row_major(x, rows, self.in_dim),
            &self.w.value,
            self.out_dim,
            out,
        );
        for row in out.chunks_exact_mut(self.out_dim.max(1)) {
            for (o, &b) in row.iter_mut().zip(&self.b.value) {
                *o += b;
            }
        }
    }

    /// Training forward pass over `act(x)`: caches `act(x)` as the layer
    /// input for [`Linear::backward_into`] and writes `act(x) W + b` into
    /// `out`.
    pub(crate) fn forward_into(
        &mut self,
        x: &[f32],
        rows: usize,
        act: Activation,
        out: &mut Vec<f32>,
    ) {
        self.input.clear();
        self.input.extend_from_slice(x);
        act.forward_in_place(&mut self.input);
        self.batch = Some(rows);
        self.affine(&self.input, rows, out);
    }

    /// Backward pass for the last training forward, given `dY` of
    /// `[batch, out_dim]`: accumulates `dW` and `db`, and writes
    /// `dX = dY W^T` into `dx` when one is asked for.
    ///
    /// `dW[p, j]` is the sum over the batch rows `r`, ascending from
    /// `0.0`, of `X[r, p] * dY[r, j]`. Computed output-major, as `dW^T =
    /// dY^T X` with `dY^T` read through a transposed view, each element is
    /// the same products in the same order, and is added into the
    /// gradient at its `dW` position.
    ///
    /// Panics if called before a training forward.
    pub(crate) fn backward_into(&mut self, dy: &[f32], dx: Option<&mut Vec<f32>>) {
        let rows = self.batch.expect("backward called before forward");
        assert_eq!(dy.len(), rows * self.out_dim, "grad shape mismatch");
        // The kernel writes every element of the scratch, which is
        // therefore resized but not cleared.
        self.scratch.resize(self.in_dim * self.out_dim, 0.0);
        if self.output_major_grad() {
            // dW^T = dY^T X, with dY^T a transposed view of dY.
            gemm(
                Strided::transposed(dy, rows, self.out_dim),
                &self.input,
                self.in_dim,
                &mut self.scratch,
            );
            accumulate_transposed(&mut self.w.grad, &self.scratch, self.out_dim, self.in_dim);
        } else {
            // dW = X^T dY, read through a transposed view of the cached X.
            gemm(
                Strided::transposed(&self.input, rows, self.in_dim),
                dy,
                self.out_dim,
                &mut self.scratch,
            );
            self.w.accumulate(&self.scratch);
        }
        // db = column sums of dY, each summed from 0.0 down the rows. The
        // rows are added in order into one accumulator row, so every
        // column keeps its summation order without a strided pass per
        // column.
        self.scratch.clear();
        self.scratch.resize(self.out_dim, 0.0);
        for row in dy.chunks_exact(self.out_dim.max(1)) {
            for (s, &v) in self.scratch.iter_mut().zip(row) {
                *s += v;
            }
        }
        self.b.accumulate(&self.scratch);
        if let Some(dx) = dx {
            transpose_into(&self.w.value, self.in_dim, self.out_dim, &mut self.scratch);
            dx.resize(rows * self.in_dim, 0.0);
            gemm(
                Strided::row_major(dy, rows, self.out_dim),
                &self.scratch,
                self.in_dim,
                dx,
            );
        }
    }

    /// Forward pass, caching the input for the subsequent backward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects [batch, features]");
        assert_eq!(
            x.shape()[1],
            self.in_dim,
            "input features {} != layer in_dim {}",
            x.shape()[1],
            self.in_dim
        );
        let rows = x.shape()[0];
        let mut out = Vec::new();
        self.forward_into(x.data(), rows, Activation::Identity, &mut out);
        Tensor::from_vec(&[rows, self.out_dim], out)
    }

    /// Backward pass: accumulate `dW`, `db` and return `dX`.
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.ndim(), 2, "Linear expects [batch, features]");
        assert_eq!(grad_out.shape()[1], self.out_dim, "grad width mismatch");
        let mut dx = Vec::new();
        self.backward_into(grad_out.data(), Some(&mut dx));
        Tensor::from_vec(&[grad_out.shape()[0], self.in_dim], dx)
    }

    /// Mutable references to this layer's parameters (weights then bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// `grad += t^T` for the row-major `rows x cols` matrix `t`, with `grad`
/// row-major `cols x rows`: each element gets one addition, as
/// [`Param::accumulate`] gives it.
fn accumulate_transposed(grad: &mut [f32], t: &[f32], rows: usize, cols: usize) {
    assert_eq!(grad.len(), rows * cols, "gradient length mismatch");
    assert_eq!(t.len(), rows * cols, "transposed gradient length mismatch");
    // Counted loops: the test suite runs unoptimised.
    let mut j = 0;
    while j < rows {
        let mut p = 0;
        while p < cols {
            grad[p * rows + j] += t[j * cols + p];
            p += 1;
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixed_layer() -> Linear {
        // 2 -> 3 layer with hand-set weights for exact checks.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut l = Linear::new(2, 3, &mut rng);
        l.w.value = vec![
            1.0, 2.0, 3.0, // row for input dim 0
            4.0, 5.0, 6.0, // row for input dim 1
        ];
        l.b.value = vec![0.1, 0.2, 0.3];
        l
    }

    #[test]
    fn forward_hand_computed() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let y = l.forward(&x);
        // y = [1*1+2*4+0.1, 1*2+2*5+0.2, 1*3+2*6+0.3] = [9.1, 12.2, 15.3]
        assert_eq!(y.shape(), &[1, 3]);
        let want = [9.1, 12.2, 15.3];
        for (a, b) in y.data().iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_gradients_hand_computed() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let _ = l.forward(&x);
        let dy = Tensor::from_vec(&[1, 3], vec![1.0, 1.0, 1.0]);
        let dx = l.backward(&dy);
        // dW = x^T dy = [[1,1,1],[2,2,2]]
        assert_eq!(l.w.grad, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // db = dy
        assert_eq!(l.b.grad, vec![1.0, 1.0, 1.0]);
        // dX = dy W^T = [1+2+3, 4+5+6] = [6, 15]
        assert_eq!(dx.data(), &[6.0, 15.0]);
    }

    #[test]
    fn backward_numerical_gradient_check() {
        // Finite-difference check of dL/dW for L = sum(forward(x)).
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);

        let _ = l.forward(&x);
        let dy = Tensor::full(&[2, 2], 1.0);
        let _ = l.backward(&dy);
        let analytic = l.w.grad.clone();

        let eps = 1e-3f32;
        // Index-based: the loop both perturbs `l.w.value[i]` and reads
        // `analytic[i]`, which an iterator cannot borrow simultaneously.
        #[allow(clippy::needless_range_loop)]
        for i in 0..l.w.value.len() {
            let orig = l.w.value[i];
            l.w.value[i] = orig + eps;
            let up = l.forward(&x).sum();
            l.w.value[i] = orig - eps;
            let down = l.forward(&x).sum();
            l.w.value[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-2,
                "weight {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        let dy = Tensor::zeros(&[1, 2]);
        let _ = l.backward(&dy);
    }

    #[test]
    fn reused_input_buffer_holds_only_the_last_batch() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut fresh = Linear::new(3, 5, &mut rng);
        let mut reused = fresh.clone();
        let x = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let dy = Tensor::from_vec(&[2, 5], (0..10).map(|i| (i as f32).sin()).collect());

        // A larger batch first leaves four rows in the input buffer.
        let _ = reused.forward(&Tensor::from_vec(
            &[4, 3],
            (0..12).map(|i| i as f32).collect(),
        ));
        let _ = reused.forward(&x);
        let dx_reused = reused.backward(&dy);
        let _ = fresh.forward(&x);
        let dx_fresh = fresh.backward(&dy);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(reused.w.grad.as_slice()),
            bits(fresh.w.grad.as_slice())
        );
        assert_eq!(
            bits(reused.b.grad.as_slice()),
            bits(fresh.b.grad.as_slice())
        );
        assert_eq!(bits(dx_reused.data()), bits(dx_fresh.data()));
    }

    #[test]
    fn clone_copies_parameters_but_not_the_forward_cache() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let y = l.forward(&x);
        let mut copy = l.clone();
        assert!(copy.input.is_empty() && copy.batch.is_none() && copy.scratch.is_empty());
        assert_eq!(copy.forward(&x), y);
    }

    #[test]
    fn bias_gradient_sums_each_column_from_zero_down_the_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut l = Linear::new(3, 5, &mut rng);
        let rows = 37;
        let x = Tensor::from_vec(
            &[rows, 3],
            (0..rows * 3).map(|i| (i as f32).cos()).collect(),
        );
        let dy: Vec<f32> = (0..rows * 5)
            .map(|i| (i as f32 * 0.7).sin() * 1e3)
            .collect();
        l.b.grad = vec![0.25; 5];
        let _ = l.forward(&x);
        let _ = l.backward(&Tensor::from_vec(&[rows, 5], dy.clone()));
        for (j, g) in l.b.grad.iter().enumerate() {
            let column = (0..rows).fold(0.0f32, |s, r| s + dy[r * 5 + j]);
            assert_eq!(g.to_bits(), (0.25 + column).to_bits(), "column {j}");
        }
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut l = fixed_layer();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]);
        let dy = Tensor::from_vec(&[1, 3], vec![1.0, 0.0, 0.0]);
        let _ = l.forward(&x);
        let _ = l.backward(&dy);
        let _ = l.forward(&x);
        let _ = l.backward(&dy);
        assert_eq!(l.w.grad[0], 2.0, "two backward passes should accumulate");
    }
}
