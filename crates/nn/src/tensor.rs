//! Row-major `f32` tensors.
//!
//! This is deliberately a small tensor type: Zeus only needs dense 1-D/2-D
//! algebra for the Q-network and 5-D indexing for video segments flowing
//! through the small real 3D-CNN. We favour clarity and determinism over
//! generality; hot paths (matmul, elementwise) are written so the compiler
//! can elide bounds checks via slice iteration.

use std::fmt;

/// A dense, row-major, `f32` n-dimensional array.
///
/// Invariant: `data.len() == shape.iter().product()`. All constructors and
/// ops preserve this; it is `debug_assert`ed on access paths.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(f, "data=[{} elems])", self.data.len())
        }
    }
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Create a tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Create a tensor from raw data. Panics if `data.len()` does not match
    /// the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// 1-D convenience constructor.
    pub fn vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor {
            shape: vec![n],
            data,
        }
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Borrow the underlying data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape in place. The element count must be preserved.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape must preserve element count");
        self.shape = shape.to_vec();
        self
    }

    /// 2-D element accessor (row, col).
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        self.data[r * cols + c]
    }

    /// 2-D mutable element accessor (row, col).
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Borrow row `r` of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutably borrow row `r` of a 2-D tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Matrix multiplication of 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Written as an `ikj` loop over slices so the inner loop vectorizes.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");

        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        let b = &other.data;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ip * b_pj;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// `self^T x other`: `[k, m]^T x [k, n] -> [m, n]` without materialising
    /// the transpose (used for weight gradients `dW = X^T dY`).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "outer dimensions must agree: {k} vs {k2}");

        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                if a_pi == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_pi * b_pj;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// `self x other^T`: `[m, k] x [n, k]^T -> [m, n]` without materialising
    /// the transpose (used for input gradients `dX = dY W^T`).
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");

        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Elementwise addition. Shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shapes must match");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise subtraction. Shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub shapes must match");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise (Hadamard) product. Shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "mul shapes must match");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * s).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Add a 1-D bias row-wise to a 2-D tensor: `[m, n] + [n] -> [m, n]`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(bias.ndim(), 1);
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(bias.shape[0], n, "bias length must equal column count");
        let mut data = self.data.clone();
        for i in 0..m {
            let row = &mut data[i * n..(i + 1) * n];
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Sum a 2-D tensor over rows, producing a 1-D tensor of length `n`
    /// (used for bias gradients).
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            for (o, &x) in out.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
        Tensor {
            shape: vec![n],
            data: out,
        }
    }

    /// Apply a function elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element of a 1-D tensor (first on ties).
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        let mut best_v = self.data[0];
        for (i, &v) in self.data.iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Per-row argmax of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2);
        (0..self.shape[0])
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                let mut best_v = row[0];
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > best_v {
                        best = i;
                        best_v = v;
                    }
                }
                best
            })
            .collect()
    }

    /// Per-row max of a 2-D tensor.
    pub fn max_rows(&self) -> Vec<f32> {
        assert_eq!(self.ndim(), 2);
        (0..self.shape[0])
            .map(|r| {
                self.row(r)
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .collect()
    }

    /// Numerically stable softmax along the last axis of a 2-D tensor.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = self.row(i);
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &x) in out_row.iter_mut().zip(row.iter()) {
                let e = (x - mx).exp();
                *o = e;
                denom += e;
            }
            for o in out_row.iter_mut() {
                *o /= denom;
            }
        }
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at2(0, 1), 2.0);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_hand_computed() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[4.0, 5.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let fused = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[4, 3], (0..12).map(|x| x as f32).collect());
        let fused = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(fused, explicit);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(vec![1.0, 2.0, 3.0]);
        let b = Tensor::vector(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn broadcast_and_sum_rows() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::vector(vec![10.0, 20.0, 30.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::vector(vec![1.0, -2.0, 3.5]);
        assert_eq!(t.sum(), 2.5);
        assert!((t.mean() - 2.5 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.5);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::vector(vec![1.0, 3.0, 3.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "row {r} sums to {total}");
        }
        // Large-magnitude row must not produce NaN (stability check).
        assert!(s.all_finite());
    }

    #[test]
    fn argmax_rows_and_max_rows() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 5.0, 2.0, 9.0, 0.0, 3.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
        assert_eq!(t.max_rows(), vec![5.0, 9.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "reshape must preserve element count")]
    fn reshape_bad_count_panics() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[3]);
    }

    #[test]
    fn norm_matches_hand_value() {
        let t = Tensor::vector(vec![3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
