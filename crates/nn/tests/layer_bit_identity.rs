//! `Linear` and `Mlp` against the plain triple loops, bit for bit.
//!
//! Every product a layer computes is one sum over its inner dimension, in
//! ascending order, starting from `0.0`, of unfused products; the bias is
//! added after the sum, and gradients are added to what the parameters
//! already hold. The layers choose how to run those sums from the shape:
//! a layer with few outputs computes its weight gradient as `dW^T = dY^T
//! X`. The references below spell the sums out directly, so a rerouted
//! product that fused a multiply-add, or summed in another order, differs
//! here in the last bit. Output widths 1..=12, input widths 1..=70 and
//! batches of 1..=140 rows reach both sides of every such choice.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zeus_nn::{Activation, Linear, Mlp, RowScratch, Tensor};

/// Finite values with signed zeros and subnormals mixed in.
fn values(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1.0f32..1.0) * 1e-39,
            _ => rng.gen_range(-4.0f32..4.0),
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `x W + b` for `x` of `[rows, n_in]` and `w` of `[n_in, n_out]`.
fn affine_ref(x: &[f32], w: &[f32], b: &[f32], rows: usize, n_in: usize) -> Vec<f32> {
    let n_out = b.len();
    let mut y = vec![0.0f32; rows * n_out];
    for r in 0..rows {
        for j in 0..n_out {
            let mut acc = 0.0f32;
            for p in 0..n_in {
                acc += x[r * n_in + p] * w[p * n_out + j];
            }
            y[r * n_out + j] = acc + b[j];
        }
    }
    y
}

/// One layer's backward: the gradients `gw + X^T dY` and `gb + colsum(dY)`,
/// and `dX = dY W^T`.
struct LayerGrads {
    gw: Vec<f32>,
    gb: Vec<f32>,
    dx: Vec<f32>,
}

fn backward_ref(
    x: &[f32],
    w: &[f32],
    dy: &[f32],
    (gw, gb): (&[f32], &[f32]),
    rows: usize,
    n_in: usize,
) -> LayerGrads {
    let n_out = gb.len();
    let mut grads = LayerGrads {
        gw: gw.to_vec(),
        gb: gb.to_vec(),
        dx: vec![0.0f32; rows * n_in],
    };
    for p in 0..n_in {
        for j in 0..n_out {
            let mut acc = 0.0f32;
            for r in 0..rows {
                acc += x[r * n_in + p] * dy[r * n_out + j];
            }
            grads.gw[p * n_out + j] += acc;
        }
    }
    for j in 0..n_out {
        let mut acc = 0.0f32;
        for r in 0..rows {
            acc += dy[r * n_out + j];
        }
        grads.gb[j] += acc;
    }
    for r in 0..rows {
        for p in 0..n_in {
            let mut acc = 0.0f32;
            for j in 0..n_out {
                acc += dy[r * n_out + j] * w[p * n_out + j];
            }
            grads.dx[r * n_in + p] = acc;
        }
    }
    grads
}

fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

fn relu_grad(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// `(rows, input width, output width, seed)`.
fn layer_shapes() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..=140, 1usize..=70, 1usize..=12, any::<u64>())
}

/// `(rows, [input, hidden, hidden, output] widths, seed)`.
fn mlp_shapes() -> impl Strategy<Value = (usize, [usize; 4], u64)> {
    (
        1usize..=140,
        (1usize..=70, 1usize..=70, 1usize..=70, 1usize..=12),
        any::<u64>(),
    )
        .prop_map(|(rows, (a, b, c, d), seed)| (rows, [a, b, c, d], seed))
}

proptest! {
    #[test]
    fn linear_matches_the_triple_loops_bit_for_bit(shape in layer_shapes()) {
        let (rows, n_in, n_out, seed) = shape;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut layer = Linear::new(n_in, n_out, &mut rng);
        layer.w.value = values(&mut rng, n_in * n_out);
        layer.b.value = values(&mut rng, n_out);
        layer.w.grad = values(&mut rng, n_in * n_out);
        layer.b.grad = values(&mut rng, n_out);
        let x = values(&mut rng, rows * n_in);
        let dy = values(&mut rng, rows * n_out);
        let want_y = affine_ref(&x, &layer.w.value, &layer.b.value, rows, n_in);
        let want = backward_ref(
            &x,
            &layer.w.value,
            &dy,
            (&layer.w.grad, &layer.b.grad),
            rows,
            n_in,
        );

        let y = layer.forward(&Tensor::from_vec(&[rows, n_in], x));
        prop_assert_eq!(bits(y.data()), bits(&want_y), "forward at {:?}", shape);
        let dx = layer.backward(&Tensor::from_vec(&[rows, n_out], dy));
        prop_assert_eq!(bits(&layer.w.grad), bits(&want.gw), "dW at {:?}", shape);
        prop_assert_eq!(bits(&layer.b.grad), bits(&want.gb), "db at {:?}", shape);
        prop_assert_eq!(bits(dx.data()), bits(&want.dx), "dX at {:?}", shape);
    }

    #[test]
    fn mlp_matches_the_triple_loops_bit_for_bit(shape in mlp_shapes()) {
        let (rows, sizes, seed) = shape;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Mlp::new(&sizes, Activation::Relu, &mut rng);
        let weights: Vec<Vec<f32>> = net
            .snapshot()
            .iter()
            .map(|p| values(&mut rng, p.len()))
            .collect();
        net.load_snapshot(&weights);
        let grads0: Vec<Vec<f32>> = weights.iter().map(|p| values(&mut rng, p.len())).collect();
        for (param, g) in net.params_mut().into_iter().zip(&grads0) {
            param.grad.clone_from(g);
        }
        let x = values(&mut rng, rows * sizes[0]);
        let dy = values(&mut rng, rows * sizes[3]);

        // Reference forward: each layer's input and pre-activation output.
        let mut inputs = vec![x.clone()];
        let mut preacts = Vec::new();
        for l in 0..3 {
            let z = affine_ref(&inputs[l], &weights[2 * l], &weights[2 * l + 1], rows, sizes[l]);
            inputs.push(z.iter().map(|&v| relu(v)).collect());
            preacts.push(z);
        }
        // Reference backward, from the output layer down.
        let mut want_grads = grads0.clone();
        let mut delta = dy.clone();
        for l in (0..3).rev() {
            let g = backward_ref(
                &inputs[l],
                &weights[2 * l],
                &delta,
                (&grads0[2 * l], &grads0[2 * l + 1]),
                rows,
                sizes[l],
            );
            want_grads[2 * l] = g.gw;
            want_grads[2 * l + 1] = g.gb;
            if l > 0 {
                delta = g
                    .dx
                    .iter()
                    .zip(&preacts[l - 1])
                    .map(|(&d, &z)| d * relu_grad(z))
                    .collect();
            }
        }

        let mut scratch = RowScratch::default();
        let batched = net.forward_rows(&x, rows, &mut scratch);
        prop_assert_eq!(bits(batched), bits(&preacts[2]), "batched inference at {:?}", shape);
        let x = Tensor::from_vec(&[rows, sizes[0]], x);
        let inferred = net.forward_inference(&x);
        prop_assert_eq!(bits(inferred.data()), bits(&preacts[2]), "inference at {:?}", shape);
        let trained = net.forward(&x);
        prop_assert_eq!(bits(trained.data()), bits(&preacts[2]), "forward at {:?}", shape);
        net.backward(&Tensor::from_vec(&[rows, sizes[3]], dy));
        for (i, (param, want)) in net.params_mut().into_iter().zip(&want_grads).enumerate() {
            prop_assert_eq!(bits(&param.grad), bits(want), "param {} at {:?}", i, shape);
        }
    }
}
