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
    fn mlp_snapshot_roundtrip_is_exact(seed in 0u64..500, hidden in 1usize..32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::new(&[6, hidden, 3], Activation::Relu, &mut rng);
        let rebuilt = Mlp::from_snapshot(&net.snapshot(), Activation::Relu).unwrap();
        let x = Tensor::from_vec(&[2, 6], (0..12).map(|i| (i as f32).sin()).collect());
        prop_assert_eq!(net.forward_inference(&x), rebuilt.forward_inference(&x));
    }

    #[test]
    fn relu_and_tanh_are_monotone(xs in prop::collection::vec(-10.0f32..10.0, 1..30)) {
        let mut sorted = xs.clone();
        sorted.sort_by(f32::total_cmp);
        for act in [Activation::Relu, Activation::Tanh] {
            let mut y = sorted.clone();
            act.forward_in_place(&mut y);
            for pair in y.windows(2) {
                prop_assert!(pair[0] <= pair[1] + 1e-6, "{act:?} must be monotone");
            }
        }
    }
}
