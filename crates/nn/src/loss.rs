//! Loss functions returning `(scalar_loss, gradient_wrt_prediction)`.
//!
//! The DQN update in the paper (Algorithm 1, line 13) uses the Huber loss
//! between predicted Q-values and bootstrapped targets.

use crate::tensor::Tensor;

/// Mean squared error: `L = mean((pred - target)^2)`.
///
/// Returns the loss and `dL/dpred` (already divided by element count).
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shapes must match");
    let n = pred.len() as f32;
    let diff = pred.sub(target);
    let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Huber (smooth-L1) loss with threshold `delta`.
///
/// Quadratic within `|e| <= delta`, linear outside — the standard DQN loss
/// that bounds gradient magnitude for outlier TD errors (Algorithm 1).
pub fn huber(pred: &Tensor, target: &Tensor, delta: f32) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "huber shapes must match");
    assert!(delta > 0.0, "delta must be positive");
    let n = pred.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = vec![0.0f32; pred.len()];
    for (i, (&p, &t)) in pred.data().iter().zip(target.data().iter()).enumerate() {
        let e = p - t;
        if e.abs() <= delta {
            loss += 0.5 * e * e;
            grad[i] = e / n;
        } else {
            loss += delta * (e.abs() - 0.5 * delta);
            grad[i] = delta * e.signum() / n;
        }
    }
    (loss / n, Tensor::from_vec(pred.shape(), grad))
}

/// Masked Huber loss for DQN: only the Q-values at `action_indices`
/// contribute; gradients for unselected actions are zero.
///
/// `pred` is `[batch, num_actions]`, `targets` is one scalar per batch row,
/// `action_indices` selects the acted column per row. The per-element
/// normalisation uses the batch size (matching `gather`-style DQN losses).
pub fn huber_selected(
    pred: &Tensor,
    action_indices: &[usize],
    targets: &[f32],
    delta: f32,
) -> (f32, Tensor) {
    assert_eq!(pred.ndim(), 2);
    let (batch, num_actions) = (pred.shape()[0], pred.shape()[1]);
    assert_eq!(action_indices.len(), batch, "one action per row");
    assert_eq!(targets.len(), batch, "one target per row");
    let n = batch as f32;

    let mut loss = 0.0f32;
    let mut grad = vec![0.0f32; pred.len()];
    for (row, (&a, &t)) in action_indices.iter().zip(targets.iter()).enumerate() {
        assert!(a < num_actions, "action index {a} out of range");
        let p = pred.at2(row, a);
        let e = p - t;
        if e.abs() <= delta {
            loss += 0.5 * e * e;
            grad[row * num_actions + a] = e / n;
        } else {
            loss += delta * (e.abs() - 0.5 * delta);
            grad[row * num_actions + a] = delta * e.signum() / n;
        }
    }
    (loss / n, Tensor::from_vec(pred.shape(), grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_hand_computed() {
        let p = Tensor::vector(vec![1.0, 2.0]);
        let t = Tensor::vector(vec![0.0, 0.0]);
        let (l, g) = mse(&p, &t);
        assert!((l - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(g.data(), &[1.0, 2.0]); // 2*diff/2
    }

    #[test]
    fn huber_is_quadratic_inside_linear_outside() {
        let p = Tensor::vector(vec![0.5, 3.0]);
        let t = Tensor::vector(vec![0.0, 0.0]);
        let (l, g) = huber(&p, &t, 1.0);
        // elem0: 0.5*0.25 = 0.125 ; elem1: 1*(3-0.5) = 2.5 ; mean = 1.3125
        assert!((l - 1.3125).abs() < 1e-6);
        assert!((g.data()[0] - 0.25).abs() < 1e-6); // e/n = 0.5/2
        assert!((g.data()[1] - 0.5).abs() < 1e-6); // delta*sign/n = 1/2
    }

    #[test]
    fn huber_equals_mse_for_small_errors() {
        let p = Tensor::vector(vec![0.1, -0.2, 0.05]);
        let t = Tensor::zeros(&[3]);
        let (lh, _) = huber(&p, &t, 10.0);
        let (lm, _) = mse(&p, &t);
        // Huber = 0.5 * MSE inside the quadratic region.
        assert!((lh - 0.5 * lm).abs() < 1e-6);
    }

    #[test]
    fn huber_selected_masks_other_actions() {
        let pred = Tensor::from_vec(&[2, 3], vec![1.0, 5.0, 2.0, 0.0, -1.0, 3.0]);
        let (l, g) = huber_selected(&pred, &[1, 2], &[5.0, 0.0], 1.0);
        // Row 0: pred=5, target=5 -> 0 loss, 0 grad.
        // Row 1: pred=3, target=0 -> linear region: 1*(3-0.5)=2.5; grad 0.5.
        assert!((l - 1.25).abs() < 1e-6);
        assert_eq!(g.at2(0, 0), 0.0);
        assert_eq!(g.at2(0, 1), 0.0);
        assert_eq!(g.at2(1, 2), 0.5);
        assert_eq!(g.at2(1, 0), 0.0);
    }
}
