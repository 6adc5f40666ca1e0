//! Property-based tests for the tensor/NN substrate.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use zeus_nn::{loss, Activation, Mlp, Tensor};

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(&[rows, cols], v))
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
        c in tensor_strategy(4, 2),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_reverses_products(a in tensor_strategy(3, 4), b in tensor_strategy(4, 2)) {
        // (AB)^T == B^T A^T
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(row in prop::collection::vec(-20.0f32..20.0, 1..12),
                                  shift in -50.0f32..50.0) {
        let n = row.len();
        let base = Tensor::from_vec(&[1, n], row.clone());
        let shifted = Tensor::from_vec(&[1, n], row.iter().map(|x| x + shift).collect());
        let s1 = base.softmax_rows();
        let s2 = shifted.softmax_rows();
        for (a, b) in s1.data().iter().zip(s2.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4, "softmax must ignore constant shifts");
        }
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_strategy(4, 6)) {
        let s = t.softmax_rows();
        for r in 0..4 {
            let row = s.row(r);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let total: f32 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn huber_bounded_by_half_mse(pred in prop::collection::vec(-5.0f32..5.0, 1..20),
                                 target in prop::collection::vec(-5.0f32..5.0, 1..20)) {
        let n = pred.len().min(target.len());
        let p = Tensor::vector(pred[..n].to_vec());
        let t = Tensor::vector(target[..n].to_vec());
        let (h, _) = loss::huber(&p, &t, 1.0);
        let (m, _) = loss::mse(&p, &t);
        // Huber is everywhere ≤ quadratic/2 and non-negative.
        prop_assert!(h >= 0.0);
        prop_assert!(h <= 0.5 * m + 1e-5, "huber {h} vs mse/2 {}", 0.5 * m);
    }

    #[test]
    fn huber_gradient_is_bounded(pred in prop::collection::vec(-100.0f32..100.0, 1..20)) {
        let n = pred.len();
        let p = Tensor::vector(pred);
        let t = Tensor::zeros(&[n]);
        let (_, g) = loss::huber(&p, &t, 1.0);
        // |grad| per element is at most delta / n.
        let bound = 1.0 / n as f32 + 1e-6;
        prop_assert!(g.data().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn cross_entropy_is_nonnegative(logits in prop::collection::vec(-10.0f32..10.0, 2..8),
                                    label_pick in 0usize..8) {
        let n = logits.len();
        let label = label_pick % n;
        let t = Tensor::from_vec(&[1, n], logits);
        let (l, g) = loss::softmax_cross_entropy(&t, &[label]);
        prop_assert!(l >= 0.0);
        // Gradient sums to ~0 (softmax minus one-hot).
        let sum: f32 = g.data().iter().sum();
        prop_assert!(sum.abs() < 1e-4);
    }

    #[test]
    fn mlp_snapshot_roundtrip_is_exact(seed in 0u64..500, hidden in 1usize..32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(&[6, hidden, 3], Activation::Relu, &mut rng);
        let rebuilt = Mlp::from_snapshot(&net.snapshot(), Activation::Relu).unwrap();
        let x = Tensor::from_vec(&[2, 6], (0..12).map(|i| (i as f32).sin()).collect());
        prop_assert_eq!(net.forward_inference(&x), rebuilt.forward_inference(&x));
    }

    #[test]
    fn relu_and_leaky_are_monotone(xs in prop::collection::vec(-10.0f32..10.0, 1..30)) {
        let mut sorted = xs.clone();
        sorted.sort_by(f32::total_cmp);
        for act in [Activation::Relu, Activation::LeakyRelu, Activation::Tanh] {
            let mut y = sorted.clone();
            act.forward_in_place(&mut y);
            for pair in y.windows(2) {
                prop_assert!(pair[0] <= pair[1] + 1e-6, "{act:?} must be monotone");
            }
        }
    }
}
