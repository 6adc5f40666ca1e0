//! Activation functions, applied in place to pre-activation buffers.

/// Supported activation kinds for MLP hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)` — used by the Q-network (the
    /// paper's networks are ReLU throughout).
    Relu,
    /// Hyperbolic tangent, occasionally useful for bounded features.
    Tanh,
    /// Identity (no-op), used for output layers.
    Identity,
}

impl Activation {
    /// The activation of one pre-activation value.
    #[inline]
    fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Activation::Tanh => v.tanh(),
            Activation::Identity => v,
        }
    }

    /// The derivative at one pre-activation value.
    #[inline]
    fn derivative(self, v: f32) -> f32 {
        match self {
            Activation::Relu => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - v.tanh() * v.tanh(),
            Activation::Identity => 1.0,
        }
    }

    /// Replace each pre-activation in `x` by its activation.
    pub fn forward_in_place(self, x: &mut [f32]) {
        if self != Activation::Identity {
            for v in x {
                *v = self.apply(*v);
            }
        }
    }

    /// Multiply the upstream gradient `grad` in place by the activation's
    /// derivative at the pre-activations `x`, giving the gradient with
    /// respect to `x`.
    pub fn backward_in_place(self, x: &[f32], grad: &mut [f32]) {
        assert_eq!(x.len(), grad.len(), "activation grad shape");
        if self != Activation::Identity {
            for (g, &v) in grad.iter_mut().zip(x) {
                *g *= self.derivative(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(act: Activation, x: &[f32]) -> Vec<f32> {
        let mut y = x.to_vec();
        act.forward_in_place(&mut y);
        y
    }

    fn backward(act: Activation, x: &[f32], grad: &[f32]) -> Vec<f32> {
        let mut g = grad.to_vec();
        act.backward_in_place(x, &mut g);
        g
    }

    #[test]
    fn relu_forward_backward() {
        let x = [-1.0, 0.0, 2.0];
        assert_eq!(forward(Activation::Relu, &x), [0.0, 0.0, 2.0]);
        assert_eq!(backward(Activation::Relu, &x, &[1.0; 3]), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_matches_numeric() {
        let x = [0.3f32, -0.7];
        let g = backward(Activation::Tanh, &x, &[1.0, 1.0]);
        let eps = 1e-3f32;
        for i in 0..2 {
            let numeric = ((x[i] + eps).tanh() - (x[i] - eps).tanh()) / (2.0 * eps);
            assert!((g[i] - numeric).abs() < 1e-4);
        }
    }

    #[test]
    fn identity_passthrough() {
        let x = [1.0, -2.0];
        assert_eq!(forward(Activation::Identity, &x), x);
        assert_eq!(backward(Activation::Identity, &x, &[0.5, 0.5]), [0.5, 0.5]);
    }
}
