//! Multi-layer perceptron with manual backprop.
//!
//! Zeus's DQN model "is a Multi-layer Perceptron (MLP) with 3 fully-connected
//! layers" (§5). [`Mlp`] composes [`Linear`] layers with a shared hidden
//! activation and an identity output, exactly the shape the Q-network needs:
//! proxy-feature in, one Q-value per configuration out.

use rand::Rng;
use rand::SeedableRng;

use crate::activation::Activation;
use crate::linear::Linear;
use crate::param::Param;
use crate::serialize::DecodeError;
use crate::tensor::Tensor;

/// A feed-forward network `Linear -> act -> ... -> Linear` (identity output).
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    /// Pre-activation output of each hidden layer from the last `forward`
    /// (needed for the activation gradients in `backward`). The buffers
    /// are reused from call to call.
    preacts: Vec<Vec<f32>>,
    /// Gradient with respect to each hidden layer's pre-activation output,
    /// filled by `backward`; reused like `preacts`.
    deltas: Vec<Vec<f32>>,
}

/// Caller-owned buffers for [`Mlp::forward_row`]: the two activation rows
/// it alternates between. They grow to the widest layer they meet and are
/// then reused, so one scratch serves networks of any shape.
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    h: Vec<f32>,
    z: Vec<f32>,
}

/// Like [`Linear`]'s, a clone copies the parameters only: a policy cloned
/// from a trained network carries none of its training buffers.
impl Clone for Mlp {
    fn clone(&self) -> Self {
        Self::from_layers(self.layers.clone(), self.hidden_activation)
    }
}

impl Mlp {
    fn from_layers(layers: Vec<Linear>, hidden_activation: Activation) -> Self {
        Mlp {
            layers,
            hidden_activation,
            preacts: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Build an MLP from a layer-size spec, e.g. `&[24, 64, 64, 16]` builds
    /// three `Linear` layers (the paper's 3-FC-layer Q-network shape).
    pub fn new(sizes: &[usize], hidden_activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            layers.push(Linear::new(w[0], w[1], rng));
        }
        Self::from_layers(layers, hidden_activation)
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(Linear::in_dim).unwrap_or(0)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(Linear::out_dim).unwrap_or(0)
    }

    /// Validate a `[batch, in_dim]` input, returning the batch size.
    fn check_input(&self, x: &Tensor) -> usize {
        assert_eq!(x.ndim(), 2, "Mlp expects [batch, features]");
        assert_eq!(x.shape()[1], self.in_dim(), "input width != in_dim");
        x.shape()[0]
    }

    /// Training forward pass (caches activations for `backward`).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let rows = self.check_input(x);
        let last = self.layers.len() - 1;
        self.preacts.resize_with(last, Vec::new);
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (done, rest) = self.preacts.split_at_mut(i);
            // Layer i's input is x, or the activated output of layer i - 1.
            let (input, act) = match done.last() {
                Some(z) => (z.as_slice(), self.hidden_activation),
                None => (x.data(), Activation::Identity),
            };
            let z = if i < last { &mut rest[0] } else { &mut out };
            layer.forward_into(input, rows, act, z);
        }
        Tensor::from_vec(&[rows, self.out_dim()], out)
    }

    /// Inference forward pass without caching (usable through `&self`).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let rows = self.check_input(x);
        let (mut h, mut z) = (Vec::new(), Vec::new());
        self.infer_into(x.data(), rows, &mut h, &mut z);
        Tensor::from_vec(&[rows, self.out_dim()], h)
    }

    /// Inference forward pass of one input row into `scratch`, returning
    /// the output row. Bit-identical to [`Mlp::forward_inference`] on a
    /// one-row batch, without allocating once `scratch` has grown to the
    /// network's widest layer.
    pub fn forward_row<'s>(&self, x: &[f32], scratch: &'s mut RowScratch) -> &'s [f32] {
        assert_eq!(x.len(), self.in_dim(), "input width != in_dim");
        let RowScratch { h, z } = scratch;
        self.infer_into(x, 1, h, z);
        h
    }

    /// The inference forward over `rows` rows of `x`, leaving the output
    /// in `h`; `h` and `z` alternate as each layer's input and output.
    fn infer_into(&self, x: &[f32], rows: usize, h: &mut Vec<f32>, z: &mut Vec<f32>) {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.affine(if i == 0 { x } else { h }, rows, z);
            if i < last {
                self.hidden_activation.forward_in_place(z);
            }
            std::mem::swap(h, z);
        }
    }

    /// Backward pass from an output gradient; accumulates parameter
    /// gradients. The gradient with respect to the network input is not
    /// computed.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let last = self.layers.len() - 1;
        assert_eq!(self.preacts.len(), last, "backward called before forward");
        self.deltas.resize_with(last, Vec::new);
        for i in (0..=last).rev() {
            let (below, rest) = self.deltas.split_at_mut(i);
            let dy = if i == last {
                grad_out.data()
            } else {
                rest[0].as_slice()
            };
            match below.last_mut() {
                Some(dx) => {
                    self.layers[i].backward_into(dy, Some(dx));
                    self.hidden_activation
                        .backward_in_place(&self.preacts[i - 1], dx);
                }
                None => self.layers[i].backward_into(dy, None),
            }
        }
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.w.zero_grad();
            l.b.zero_grad();
        }
    }

    /// Mutable access to all parameters in a stable order (for optimizers
    /// and checkpointing).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Snapshot all parameter values as flat vectors (stable order).
    pub fn snapshot(&self) -> Vec<Vec<f32>> {
        self.layers
            .iter()
            .flat_map(|l| [l.w.value.clone(), l.b.value.clone()])
            .collect()
    }

    /// Load parameter values from a snapshot produced by [`Mlp::snapshot`]
    /// on an identically-shaped network.
    pub fn load_snapshot(&mut self, snap: &[Vec<f32>]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), snap.len(), "snapshot layer count mismatch");
        for (p, s) in params.iter_mut().zip(snap.iter()) {
            assert_eq!(p.value.len(), s.len(), "snapshot param length mismatch");
            p.value.copy_from_slice(s);
        }
    }

    /// Copy parameter values from another identically-shaped MLP (used for
    /// DQN target-network synchronisation).
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        let snap = other.snapshot();
        self.load_snapshot(&snap);
    }

    /// Rebuild an MLP from a snapshot produced by [`Mlp::snapshot`]. Layer
    /// shapes are recovered from the flat buffers: each `(weights, bias)`
    /// pair implies `out = bias.len()`, `in = weights.len() / out`.
    ///
    /// A snapshot read from outside the program may be malformed: buffers
    /// that do not pair up, or layers that do not chain, are a
    /// [`DecodeError::BadShape`].
    pub fn from_snapshot(
        snap: &[Vec<f32>],
        hidden_activation: Activation,
    ) -> Result<Mlp, DecodeError> {
        if snap.is_empty() || !snap.len().is_multiple_of(2) {
            return Err(DecodeError::BadShape);
        }
        let mut sizes = Vec::with_capacity(snap.len() / 2 + 1);
        for pair in snap.chunks(2) {
            let out = pair[1].len();
            if out == 0 || pair[0].is_empty() || pair[0].len() % out != 0 {
                return Err(DecodeError::BadShape);
            }
            let inp = pair[0].len() / out;
            match sizes.last() {
                None => sizes.push(inp),
                Some(&prev) if prev != inp => return Err(DecodeError::BadShape),
                Some(_) => {}
            }
            sizes.push(out);
        }
        // Weight values come from the snapshot; the RNG is only used for
        // construction and its output is immediately overwritten.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut mlp = Mlp::new(&sizes, hidden_activation, &mut rng);
        mlp.load_snapshot(snap);
        Ok(mlp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optim::{Optimizer, Sgd};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shapes_flow_through() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Mlp::new(&[4, 8, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(net.in_dim(), 4);
        assert_eq!(net.out_dim(), 3);
        let x = Tensor::zeros(&[5, 4]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = Mlp::new(&[3, 6, 2], Activation::Relu, &mut rng);
        let x = Tensor::from_vec(&[2, 3], vec![1.0, -0.5, 0.3, 0.0, 2.0, -1.0]);
        let a = net.forward(&x);
        let b = net.forward_inference(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_row_matches_a_one_row_inference_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let wide = Mlp::new(&[5, 70, 64, 7], Activation::Relu, &mut rng);
        let narrow = Mlp::new(&[3, 4, 2], Activation::Relu, &mut rng);
        let mut scratch = RowScratch::default();
        for (net, step) in [(&wide, 0.37f32), (&narrow, -0.61), (&wide, 0.11)] {
            let x: Vec<f32> = (0..net.in_dim()).map(|i| step * i as f32 - 0.5).collect();
            let want = net.forward_inference(&Tensor::from_vec(&[1, x.len()], x.clone()));
            let got = net.forward_row(&x, &mut scratch);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want.data()));
        }
    }

    #[test]
    fn numerical_gradient_check_through_two_layers() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut net = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut rng);
        let x = Tensor::from_vec(&[2, 3], vec![0.2, -0.4, 0.6, -0.1, 0.5, 0.3]);

        // Analytic gradient of L = sum(output).
        net.zero_grad();
        let y = net.forward(&x);
        let dy = Tensor::full(y.shape(), 1.0);
        net.backward(&dy);
        let analytic: Vec<Vec<f32>> = net.params_mut().iter().map(|p| p.grad.clone()).collect();

        // Numeric gradients.
        let eps = 1e-3f32;
        let n_params = analytic.len();
        // Index-based: the loop perturbs `params_mut()[pi]` while reading
        // `analytic[pi]`, which an iterator cannot borrow simultaneously.
        #[allow(clippy::needless_range_loop)]
        for pi in 0..n_params {
            let plen = analytic[pi].len();
            for j in (0..plen).step_by(3) {
                let orig = net.params_mut()[pi].value[j];
                net.params_mut()[pi].value[j] = orig + eps;
                let up = net.forward_inference(&x).sum();
                net.params_mut()[pi].value[j] = orig - eps;
                let down = net.forward_inference(&x).sum();
                net.params_mut()[pi].value[j] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic[pi][j];
                assert!(
                    (numeric - a).abs() < 2e-2,
                    "param {pi}[{j}]: numeric {numeric} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn learns_a_linear_function() {
        // Regression sanity check: y = 2*x0 - x1 learnable to low MSE.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut net = Mlp::new(&[2, 16, 1], Activation::Relu, &mut rng);
        let mut opt = Sgd::new(0.05, 0.9);

        let xs: Vec<f32> = (0..64)
            .flat_map(|i| {
                let a = (i % 8) as f32 / 4.0 - 1.0;
                let b = (i / 8) as f32 / 4.0 - 1.0;
                [a, b]
            })
            .collect();
        let x = Tensor::from_vec(&[64, 2], xs.clone());
        let targets: Vec<f32> = xs.chunks(2).map(|p| 2.0 * p[0] - p[1]).collect();
        let t = Tensor::from_vec(&[64, 1], targets);

        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            net.zero_grad();
            let y = net.forward(&x);
            let (l, dy) = loss::mse(&y, &t);
            net.backward(&dy);
            opt.step(&mut net.params_mut());
            final_loss = l;
        }
        assert!(final_loss < 0.01, "MLP failed to fit: loss {final_loss}");
    }

    #[test]
    fn from_snapshot_reconstructs_the_network() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let original = Mlp::new(&[5, 7, 3], Activation::Relu, &mut rng);
        let rebuilt = Mlp::from_snapshot(&original.snapshot(), Activation::Relu).unwrap();
        assert_eq!(rebuilt.in_dim(), 5);
        assert_eq!(rebuilt.out_dim(), 3);
        let x = Tensor::from_vec(&[2, 5], (0..10).map(|i| i as f32 / 10.0).collect());
        assert_eq!(
            original.forward_inference(&x),
            rebuilt.forward_inference(&x)
        );
    }

    #[test]
    fn from_snapshot_rejects_odd_buffers() {
        let rebuilt = Mlp::from_snapshot(&[vec![1.0]], Activation::Relu);
        assert_eq!(rebuilt.err(), Some(DecodeError::BadShape));
    }

    #[test]
    fn from_snapshot_rejects_layers_that_do_not_chain() {
        // Layer 0 is 2 -> 3, layer 1 expects 4 inputs.
        let snap = [vec![0.0; 6], vec![0.0; 3], vec![0.0; 4], vec![0.0; 1]];
        let rebuilt = Mlp::from_snapshot(&snap, Activation::Relu);
        assert_eq!(rebuilt.err(), Some(DecodeError::BadShape));
        // A weight buffer that is not a whole number of bias-width rows.
        let ragged = [vec![0.0; 5], vec![0.0; 3]];
        let rebuilt = Mlp::from_snapshot(&ragged, Activation::Relu);
        assert_eq!(rebuilt.err(), Some(DecodeError::BadShape));
    }

    #[test]
    fn clone_copies_parameters_but_no_training_buffers() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng);
        let x = Tensor::from_vec(&[2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        let y = net.forward(&x);
        net.backward(&Tensor::full(y.shape(), 1.0));
        let copy = net.clone();
        assert_eq!(copy.forward_inference(&x), y);
        assert!(copy.preacts.is_empty() && copy.deltas.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_and_target_sync() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng);
        let mut b = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng);
        let x = Tensor::from_vec(&[1, 3], vec![0.1, 0.2, 0.3]);
        assert_ne!(a.forward_inference(&x), b.forward_inference(&x));
        b.copy_weights_from(&a);
        assert_eq!(a.forward_inference(&x), b.forward_inference(&x));
    }
}
