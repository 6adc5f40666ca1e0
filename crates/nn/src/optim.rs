//! First-order optimizers: SGD with momentum, and Adam.
//!
//! Zeus fine-tunes the APFG and trains the DQN with Adam (the paper cites
//! Kingma & Ba \[18\]); only the DQN trains here. SGD is kept as a simpler
//! baseline in tests.

use crate::param::Param;

/// Common optimizer interface over flat parameter lists.
///
/// The parameter order must be stable across calls (it is, for `Mlp`):
/// per-parameter state (momentum, moments) is keyed by position.
pub trait Optimizer {
    /// Apply one update step and leave gradients untouched (callers are
    /// expected to `zero_grad` before the next backward pass).
    fn step(&mut self, params: &mut [&mut Param]);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (supports schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Create an SGD optimizer. `momentum = 0.0` gives plain SGD.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            assert_eq!(p.len(), v.len(), "parameter shape changed mid-training");
            for ((w, g), vel) in p.value.iter_mut().zip(p.grad.iter()).zip(v.iter_mut()) {
                *vel = self.momentum * *vel + g;
                *w -= self.lr * *vel;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Create an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Create an Adam optimizer with explicit betas.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            assert_eq!(p.len(), m.len(), "parameter shape changed mid-training");
            for (((w, g), mi), vi) in p
                .value
                .iter_mut()
                .zip(p.grad.iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / b1t;
                let v_hat = *vi / b2t;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Clip gradients globally to a maximum L2 norm (DQN stabiliser).
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let total: f32 = params
        .iter()
        .map(|p| p.grad.iter().map(|g| g * g).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params.iter_mut() {
            for g in &mut p.grad {
                *g *= scale;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &mut Param) {
        // d/dw of 0.5*(w - 3)^2 = (w - 3)
        p.zero_grad();
        let deltas: Vec<f32> = p.value.iter().map(|w| w - 3.0).collect();
        p.accumulate(&deltas);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Param::new(vec![0.0, 10.0]);
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..200 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        for w in &p.value {
            assert!((w - 3.0).abs() < 1e-3, "w = {w}");
        }
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut p = Param::new(vec![0.0]);
            let mut opt = Sgd::new(0.01, momentum);
            for _ in 0..50 {
                quadratic_grad(&mut p);
                opt.step(&mut [&mut p]);
            }
            (p.value[0] - 3.0).abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new(vec![-5.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!((p.value[0] - 3.0).abs() < 1e-2, "w = {}", p.value[0]);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut p = Param::new(vec![0.0, 0.0]);
        p.accumulate(&[3.0, 4.0]); // norm 5
        let norm = clip_grad_norm(&mut [&mut p], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped = (p.grad[0] * p.grad[0] + p.grad[1] * p.grad[1]).sqrt();
        assert!((clipped - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let mut p = Param::new(vec![0.0]);
        p.accumulate(&[0.5]);
        clip_grad_norm(&mut [&mut p], 1.0);
        assert_eq!(p.grad[0], 0.5);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
