//! Row-major `f32` tensors and the crate's one GEMM kernel.
//!
//! This is deliberately a small tensor type: Zeus only needs dense 1-D/2-D
//! algebra for the Q-network. We favour clarity and determinism over
//! generality.
//!
//! Every dense product in the crate runs through one crate-private kernel,
//! `gemm`: [`Tensor::matmul`], and inside [`crate::Linear`] the forward
//! `X W`, the weight gradient `X^T dY` and the input gradient `dY W^T`.
//! The kernel reads its left operand through a row and a column stride, so
//! `X^T` is never copied; `dY W^T` multiplies against a materialised `W^T`.
//! It accumulates 4-row register tiles, then tiles of the single rows
//! left over, with 32-, 16- and 8-column edges and then one tile exactly
//! as wide as the `n % 8` columns left, so those columns share one pass
//! over `k`. That matters for a Q-network's output layer, which has one
//! column per action: the planner thins each action space to at most 8
//! by default, usually fewer. Each output element is still one sum over
//! `k` in ascending order, starting from `0.0`, of unfused products, so
//! the result is bit-identical to the plain triple loop whatever the
//! tiling.
//!
//! The body is compiled three times, and `is_x86_feature_detected!` picks
//! the fastest the CPU runs, in the order AVX-512F, AVX2, portable. Their
//! full tile widths, in columns:
//!
//! | Body | 4-row tile | 1-row tile |
//! |---|---|---|
//! | AVX-512F | 32 | 64 |
//! | AVX2 | 16 | 64 |
//! | portable | 16 | 32 |
//!
//! A 4 x 32 tile's 8 accumulators fit AVX-512F's 32 zmm registers easily,
//! where in ymm registers they would take all 16. A single row's
//! accumulators take a quarter of the registers, so its tile is wider:
//! the one-row products of the executor's policy forward, and a 64-wide
//! hidden layer in particular, run as one set of independent sums instead
//! of tiles in sequence. AVX-512F makes FMA available, but Rust never
//! emits a multiply or add that LLVM may contract, so no product is fused
//! and all three bodies give the same bits.
//!
//! Because every output row depends only on its own input row, a row's
//! value does not depend on the size or makeup of the batch it is computed
//! in. `zeus-rl`'s DQN agent relies on this to memoize target-network rows
//! between syncs.

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

    /// Borrow row `r` of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Matrix multiplication of 2-D tensors: `[m, k] x [k, n] -> [m, n]`,
    /// computed by the crate's GEMM kernel (see the module docs).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        gemm(
            Strided::row_major(&self.data, m, k),
            &other.data,
            n,
            &mut out,
        );
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Vec::new();
        transpose_into(&self.data, m, n, &mut out);
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

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * s).collect();
        Tensor {
            shape: self.shape.clone(),
            data,
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
        argmax(&self.data)
    }

    /// Per-row argmax of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2);
        (0..self.shape[0]).map(|r| argmax(self.row(r))).collect()
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
}

/// Index of the maximum of `values`, the first one on ties. Panics on an
/// empty slice.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of an empty slice");
    let mut best = 0;
    let mut best_v = values[0];
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Write the transpose of the row-major `rows x cols` matrix `src` into
/// `dst` (resized to `cols x rows`, reusing its allocation).
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    assert_eq!(src.len(), rows * cols, "transpose source length");
    dst.clear();
    dst.resize(rows * cols, 0.0);
    for (i, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// A read-only `rows x cols` matrix view over a slice: element `(i, p)`
/// is `data[i * row_stride + p * col_stride]`. One view type lets the
/// GEMM kernel read both `X` and `X^T` without copying either.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strided<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> Strided<'a> {
    /// `data` as a row-major `rows x cols` matrix.
    pub(crate) fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major view length");
        Strided {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// The transpose of the row-major `rows x cols` matrix in `data`,
    /// i.e. a `cols x rows` view.
    pub(crate) fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "transposed view length");
        Strided {
            data,
            rows: cols,
            cols: rows,
            row_stride: 1,
            col_stride: cols,
        }
    }
}

/// `out = A x B` for an `m x k` view `A` and a row-major `k x n` matrix
/// `B`, written to the row-major `m x n` slice `out`.
///
/// Every output element is one sum over `p` in ascending order, starting
/// from `0.0`, of the unfused products `A[i, p] * B[p, j]`; register tiling
/// only changes which elements are summed side by side. Results are
/// therefore bit-identical to the textbook triple loop, and to each other
/// across the three [`Body`]s, the fastest of which the running CPU
/// supports is chosen at run time. Rust never emits a contractable
/// multiply or add, so no product is fused even where a body's target
/// features make FMA available: a fused multiply-add rounds once where the
/// loop rounds twice.
pub(crate) fn gemm(a: Strided<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_on(Body::Avx512f, a, b, n, out);
}

/// The compiled copies of [`gemm_body`], slowest first. They give the
/// same bits and differ in speed and in the CPU features they need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Body {
    /// The build's baseline target features: 16-column tiles of four
    /// rows, 32-column tiles of one row.
    Portable,
    /// AVX2: 16-column tiles of four rows, since a 32-column one would
    /// need all 16 ymm registers for its accumulators; 64-column tiles of
    /// one row, in 8 of them.
    Avx2,
    /// AVX-512F: 32-column tiles of four rows and 64-column tiles of one
    /// row, which 32 zmm registers hold easily.
    Avx512f,
}

/// [`gemm`] on `body`, or on the fastest slower body when the running CPU
/// lacks `body`'s features. Returns the body that ran.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn gemm_on(body: Body, a: Strided<'_>, b: &[f32], n: usize, out: &mut [f32]) -> Body {
    assert_eq!(b.len(), a.cols * n, "gemm rhs must be [k, n]");
    assert_eq!(out.len(), a.rows * n, "gemm output must be [m, n]");
    #[cfg(target_arch = "x86_64")]
    {
        if body >= Body::Avx512f && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `gemm_avx512f` requires only the AVX-512F target
            // feature, and `is_x86_feature_detected!("avx512f")` just
            // confirmed that the running CPU supports it.
            unsafe { gemm_avx512f(a, b, n, out) };
            return Body::Avx512f;
        }
        if body >= Body::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `gemm_avx2` requires only the AVX2 target feature,
            // and `is_x86_feature_detected!("avx2")` just confirmed that
            // the running CPU supports it.
            unsafe { gemm_avx2(a, b, n, out) };
            return Body::Avx2;
        }
    }
    gemm_body::<16, 32>(a, b, n, out);
    Body::Portable
}

/// [`gemm_body`] compiled with AVX2 enabled (and FMA deliberately not).
/// Calling it is sound only on a CPU with AVX2, which [`gemm_on`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: Strided<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_body::<16, 64>(a, b, n, out);
}

/// [`gemm_body`] compiled with AVX-512F enabled, with 32-column tiles of
/// four rows. Calling it is sound only on a CPU with AVX-512F, which
/// [`gemm_on`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512f(a: Strided<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_body::<32, 64>(a, b, n, out);
}

/// The kernel: 4-row blocks tiled `W` columns wide, then the rows left
/// over one at a time, tiled `W1` columns wide. Within each, the
/// full-width tiles are followed by 32-, 16- and 8-column edges, then one
/// tile as wide as the `n % 8` columns left.
///
/// A single row's tile is twice as wide or more because its accumulators
/// take a quarter of the registers: with `W1 = 64`, a 64-wide hidden
/// layer's one-row forward is one set of independent sums over `k`
/// instead of two tiles in sequence.
#[inline(always)]
fn gemm_body<const W: usize, const W1: usize>(
    a: Strided<'_>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut i = 0;
    while i + 4 <= a.rows {
        tile_row::<4, W>(a, b, n, out, i);
        i += 4;
    }
    while i < a.rows {
        tile_row::<1, W1>(a, b, n, out, i);
        i += 1;
    }
}

/// Rows `i0..i0 + R` of the output, tiled across the columns.
#[inline(always)]
fn tile_row<const R: usize, const W: usize>(
    a: Strided<'_>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i0: usize,
) {
    let mut j = 0;
    while j + W <= n {
        tile::<R, W>(a, b, n, out, i0, j);
        j += W;
    }
    // Fewer than `W` columns are left, so an edge at least `W` wide never
    // runs: with `W = 16` the first loop has covered both of these.
    while j + 32 <= n {
        tile::<R, 32>(a, b, n, out, i0, j);
        j += 32;
    }
    while j + 16 <= n {
        tile::<R, 16>(a, b, n, out, i0, j);
        j += 16;
    }
    while j + 8 <= n {
        tile::<R, 8>(a, b, n, out, i0, j);
        j += 8;
    }
    // The last `n % 8` columns as one tile of exactly that width, so they
    // share one pass over `k`.
    match n - j {
        0 => {}
        1 => tile::<R, 1>(a, b, n, out, i0, j),
        2 => tile::<R, 2>(a, b, n, out, i0, j),
        3 => tile::<R, 3>(a, b, n, out, i0, j),
        4 => tile::<R, 4>(a, b, n, out, i0, j),
        5 => tile::<R, 5>(a, b, n, out, i0, j),
        6 => tile::<R, 6>(a, b, n, out, i0, j),
        7 => tile::<R, 7>(a, b, n, out, i0, j),
        _ => unreachable!("fewer than 8 columns remain"),
    }
}

/// One `R x C` output tile, accumulated in registers over all of `k`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: Strided<'_>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    for p in 0..a.cols {
        let b_row: &[f32; C] = b[p * n + j0..p * n + j0 + C]
            .try_into()
            .expect("tile lies within B");
        let a_col: [f32; R] =
            std::array::from_fn(|r| a.data[(i0 + r) * a.row_stride + p * a.col_stride]);
        // Counted loops, not iterator adapters: the test suite runs
        // unoptimised, where every adapter step is a function call.
        let mut c = 0;
        while c < C {
            let mut r = 0;
            while r < R {
                acc[r][c] += a_col[r] * b_row[c];
                r += 1;
            }
            c += 1;
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let start = (i0 + r) * n + j0;
        out[start..start + C].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
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

    // The three matmul loops this kernel replaced, kept verbatim (over
    // slices) as the bit-level reference: `X W` and `X^T dY` skipped zero
    // left-hand factors, `dY W^T` took dot products.
    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
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
        out
    }

    fn reference_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
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
        out
    }

    fn reference_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        out
    }

    /// Finite values with signed zeros and subnormals mixed in.
    fn values(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1.0f32..1.0) * 1e-39,
                _ => rng.gen_range(-10.0f32..10.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run `kernel` on the three layouts the layers use and return
    /// `(kernel output, reference output)` per layout.
    fn layouts(
        mut kernel: impl FnMut(Strided<'_>, &[f32], usize, &mut [f32]),
        (m, n, k, seed): (usize, usize, usize, u64),
    ) -> Vec<(Vec<f32>, Vec<f32>)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut run = |a: Strided<'_>, b: &[f32]| {
            let mut out = vec![f32::NAN; m * n];
            kernel(a, b, n, &mut out);
            out
        };
        // X W: X is [m, k], W is [k, n].
        let x = values(&mut rng, m * k);
        let w = values(&mut rng, k * n);
        let nn = run(Strided::row_major(&x, m, k), &w);
        // X^T dY: X is [k, m] (k batch rows), dY is [k, n].
        let xt = values(&mut rng, k * m);
        let dy = values(&mut rng, k * n);
        let tn = run(Strided::transposed(&xt, k, m), &dy);
        // dY W^T: dY is [m, k], W is [n, k], multiplied as a materialised W^T.
        let g = values(&mut rng, m * k);
        let wn = values(&mut rng, n * k);
        let mut w_t = Vec::new();
        transpose_into(&wn, n, k, &mut w_t);
        let nt = run(Strided::row_major(&g, m, k), &w_t);
        vec![
            (nn, reference_nn(&x, &w, m, k, n)),
            (tn, reference_tn(&xt, &dy, k, m, n)),
            (nt, reference_nt(&g, &wn, m, k, n)),
        ]
    }

    /// `n` up to 72 runs two 32-column tiles, the 16- and 8-column edges,
    /// every tail width 1..=7, and (with `m % 4 != 0`) the single-row
    /// tiles: one 64 columns wide then the edges and tail, or (portable)
    /// two 32 columns wide.
    fn shapes() -> impl Strategy<Value = (usize, usize, usize, u64)> {
        (1usize..=9, 1usize..=72, 0usize..=70, any::<u64>())
    }

    proptest! {
        #[test]
        fn gemm_matches_the_reference_loops_bit_for_bit(shape in shapes()) {
            for (layout, (got, want)) in layouts(gemm, shape).into_iter().enumerate() {
                prop_assert_eq!(bits(&got), bits(&want), "layout {} at {:?}", layout, shape);
            }
        }

        #[test]
        fn every_body_agrees_with_the_portable_body_bit_for_bit(shape in shapes()) {
            let portable = layouts(
                |a, b, n, out| {
                    gemm_on(Body::Portable, a, b, n, out);
                },
                shape,
            );
            for body in [Body::Avx512f, Body::Avx2] {
                let mut ran = body;
                let got = layouts(|a, b, n, out| ran = gemm_on(body, a, b, n, out), shape);
                // A body the CPU lacks falls back to a slower one, which
                // its own iteration covers.
                if ran != body {
                    continue;
                }
                for (layout, (g, p)) in got.iter().zip(&portable).enumerate() {
                    prop_assert_eq!(
                        bits(&g.0),
                        bits(&p.0),
                        "{:?} layout {} at {:?}",
                        body,
                        layout,
                        shape
                    );
                }
            }
        }
    }
}
