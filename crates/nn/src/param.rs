//! Trainable parameters: a value buffer paired with a gradient buffer.

/// A flat trainable parameter with its accumulated gradient.
///
/// Layers own `Param`s; optimizers walk `(value, grad)` pairs via
/// [`crate::optim::Optimizer::step`]. Gradients accumulate across backward
/// calls until [`Param::zero_grad`] is invoked, mirroring the usual
/// deep-learning training loop.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values (row-major for matrices).
    pub value: Vec<f32>,
    /// Accumulated gradient, same length as `value`.
    pub grad: Vec<f32>,
}

impl Param {
    /// Create a parameter from initial values with a zeroed gradient.
    pub fn new(value: Vec<f32>) -> Self {
        let grad = vec![0.0; value.len()];
        Param { value, grad }
    }

    /// Create a zero-initialised parameter of length `n`.
    pub fn zeros(n: usize) -> Self {
        Param {
            value: vec![0.0; n],
            grad: vec![0.0; n],
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad {
            *g = 0.0;
        }
    }

    /// Accumulate `delta` into the gradient buffer.
    ///
    /// Panics if lengths differ.
    pub fn accumulate(&mut self, delta: &[f32]) {
        assert_eq!(self.grad.len(), delta.len(), "gradient length mismatch");
        for (g, d) in self.grad.iter_mut().zip(delta.iter()) {
            *g += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_grad() {
        let p = Param::new(vec![1.0, 2.0]);
        assert_eq!(p.grad, vec![0.0, 0.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::zeros(3);
        p.accumulate(&[1.0, 2.0, 3.0]);
        p.accumulate(&[1.0, 1.0, 1.0]);
        assert_eq!(p.grad, vec![2.0, 3.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn accumulate_length_mismatch_panics() {
        let mut p = Param::zeros(2);
        p.accumulate(&[1.0]);
    }
}
