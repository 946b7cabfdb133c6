//! Row-major 2-D matrix over `f32` and the GEMM kernels.
//!
//! Every kernel vectorizes across *independent outputs*, never across the
//! reduction index `k`. Each output element is one accumulator that
//! starts at a value fixed by the call site and adds its products in
//! ascending `k`, exactly as a scalar `acc += a * b` loop would. Rust
//! never reassociates or contracts float operations, so the compiler is
//! free to pack many such accumulators into one SIMD register but cannot
//! change any result: outputs are bit-identical to the naive loop for any
//! blocking. The kernels run on the calling thread; callers that fork do
//! so at a coarser grain.
//!
//! * [`Matrix::matmul_transposed`] (`X · Wᵀ`, the shape of every
//!   projection, since weights are stored output-major) copies blocks of
//!   eight activation rows into `k`-major scratch (a shorter tail takes a
//!   four- or one-row block) and sweeps the weight rows four at a time
//!   (eight for a single row), so each pass keeps up to 4 x 8
//!   independent accumulators live. The start value is a parameter
//!   because call sites differ: `-0.0` is the identity of
//!   `Iterator::sum`, `0.0` that of a zeroed buffer, and the two differ
//!   on a column whose products are all `-0.0`.
//! * [`matmul_into`] (`A · B`) accumulates `C[i,:] += A[i,k] * B[k,:]`,
//!   which is already contiguous across outputs.

use moe_json::{FromJson, ToJson};

use crate::rng;

/// Activation rows per full block of [`Matrix::matmul_transposed`].
const ROW_BLOCK: usize = 8;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from an existing buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer does not match {rows}x{cols}"
        );
        Self { rows, cols, data }
    }

    /// Deterministically random matrix with entries uniform in
    /// `[-scale, scale)`.
    pub fn random(rows: usize, cols: usize, seed: u64, scale: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        rng::fill_uniform(&mut m.data, seed, scale);
        m
    }

    /// Deterministically random matrix with ~N(0, std^2) entries, the usual
    /// transformer weight initialization.
    pub fn random_normal(rows: usize, cols: usize, seed: u64, std: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        rng::fill_normal(&mut m.data, seed, std);
        m
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Copy the rows selected by `indices` into a new matrix (a gather, as
    /// used by MoE token dispatch).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Accumulate `alpha * src_row` into row `r` (a scatter-add, as used by
    /// MoE expert-output combination).
    pub fn scatter_add_row(&mut self, r: usize, src_row: &[f32], alpha: f32) {
        let dst = self.row_mut(r);
        debug_assert_eq!(dst.len(), src_row.len());
        for (d, s) in dst.iter_mut().zip(src_row) {
            *d += alpha * s;
        }
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self @ other` — GEMM. Panics on a shape mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_into(self, other, &mut out);
        out
    }

    /// `self · wᵀ`, the projection GEMM: `w` is `n x k`, one row per
    /// output. Every output element starts at `start` and adds its `k`
    /// products in ascending order (see the module docs). Panics on a
    /// shape mismatch.
    pub fn matmul_transposed(&self, w: &Matrix, start: f32) -> Matrix {
        assert_eq!(
            self.cols, w.cols,
            "matmul_transposed shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, w.rows, w.cols
        );
        let (k, n) = (self.cols, w.rows);
        let mut out = Matrix::zeros(self.rows, n);
        if k == 0 || n == 0 {
            out.data.fill(start);
            return out;
        }
        let mut xt = vec![0.0f32; k * ROW_BLOCK];
        let mut done = 0;
        while done < self.rows {
            let x = &self.data[done * k..];
            let out_rows = &mut out.data[done * n..];
            // Blocks of eight rows; a short tail takes the narrowest block
            // that holds it, so few lanes compute discarded outputs.
            done += match self.rows - done {
                5.. => row_block::<ROW_BLOCK, 4>(x, w, start, &mut xt, out_rows),
                2..=4 => row_block::<4, 4>(x, w, start, &mut xt, out_rows),
                _ => row_block::<1, 8>(x, w, start, &mut xt, out_rows),
            };
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// GEMM into a pre-allocated output (`out = a @ b`), reusing the output
/// buffer.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.cols),
        "output shape mismatch"
    );
    let n = b.cols;
    for (i, out_row) in out.data.chunks_mut(n).enumerate() {
        out_row.fill(0.0);
        for (kk, &aik) in a.row(i).iter().enumerate() {
            // Bit-pattern test for ±0.0: skipping a zero row of A is an
            // exact sparsity shortcut, not a tolerance decision, so it must
            // not be widened to an epsilon (and `== 0.0` trips the
            // no-float-eq lint).
            if aik.to_bits() & 0x7FFF_FFFF == 0 {
                continue;
            }
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// `out = start + x · wᵀ` for the first `min(R, rows)` rows of `x`,
/// returning how many rows it did. The rows are copied `k`-major into
/// `xt` (`xt[kk * R + r]` is row `r`'s element `kk`; lanes past the last
/// row hold stale values whose outputs are never stored), then the weight
/// rows are swept `C` at a time.
fn row_block<const R: usize, const C: usize>(
    x: &[f32],
    w: &Matrix,
    start: f32,
    xt: &mut [f32],
    out: &mut [f32],
) -> usize {
    let (k, n) = (w.cols, w.rows);
    let rows = (x.len() / k).min(R);
    let xt = &mut xt[..k * R];
    for (r, x_row) in x.chunks_exact(k).take(rows).enumerate() {
        for (kk, &v) in x_row.iter().enumerate() {
            xt[kk * R + r] = v;
        }
    }
    let out = &mut out[..rows * n];
    let mut j = 0;
    while j + C <= n {
        let panel: [&[f32]; C] = std::array::from_fn(|c| w.row(j + c));
        store_block(out, n, j, &dot_block::<R, C>(xt, panel, start));
        j += C;
    }
    for j in j..n {
        store_block(out, n, j, &dot_block::<R, 1>(xt, [w.row(j)], start));
    }
    rows
}

/// Dot products of a `k`-major row block against `C` weight rows:
/// `acc[c][r] = start + Σ xt[kk][r] * w[c][kk]`, summed in ascending
/// `kk`. The `C x R` accumulators are independent, which is what lets
/// them share SIMD registers.
#[inline(always)]
fn dot_block<const R: usize, const C: usize>(
    xt: &[f32],
    w: [&[f32]; C],
    start: f32,
) -> [[f32; R]; C] {
    let mut acc = [[start; R]; C];
    for (kk, x) in xt.chunks_exact(R).enumerate() {
        for (a, w_row) in acc.iter_mut().zip(&w) {
            let wv = w_row[kk];
            for (a, &xv) in a.iter_mut().zip(x) {
                *a += xv * wv;
            }
        }
    }
    acc
}

/// Store a block's accumulators into columns `j..j + C` of its rows.
#[inline(always)]
fn store_block<const R: usize, const C: usize>(
    out_rows: &mut [f32],
    n: usize,
    j: usize,
    acc: &[[f32; R]; C],
) {
    for (r, out_row) in out_rows.chunks_exact_mut(n).enumerate() {
        for (c, a) in acc.iter().enumerate() {
            out_row[j + c] = a[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_large_parallel() {
        let a = Matrix::random(97, 83, 1, 1.0);
        let b = Matrix::random(83, 71, 2, 1.0);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::random(16, 16, 3, 1.0);
        let i = Matrix::identity(16);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::random(33, 17, 4, 1.0);
        let b = Matrix::random(29, 17, 5, 1.0);
        let direct = a.matmul_transposed(&b, 0.0);
        let via_t = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&via_t) < 1e-4);
    }

    /// The sequential `acc += x * w` loop the kernel must reproduce bit
    /// for bit.
    fn naive_transposed(x: &Matrix, w: &Matrix, start: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(x.rows() * w.rows());
        for i in 0..x.rows() {
            for j in 0..w.rows() {
                let mut acc = start;
                for k in 0..x.cols() {
                    acc += x.get(i, k) * w.get(j, k);
                }
                out.push(acc);
            }
        }
        out
    }

    #[test]
    fn randomized_matmul_transposed_is_bit_identical_to_the_sequential_loop() {
        let mut rng = crate::rng::rng_from_seed(0x6E3E);
        let mut seen_k = [false; 97];
        let mut case = 0;
        for rows in 1..=19 {
            for _ in 0..12 {
                // Strides coprime to 97 and 23 sweep every k in 1..=97 and
                // every n in 1..=23 (odd and even, whole and partial
                // column blocks) across the cases.
                let k = 1 + (case * 31) % 97;
                let n = 1 + (case * 5) % 23;
                seen_k[k - 1] = true;
                case += 1;
                let seed = rng.next_below(1 << 20) as u64;
                let mut x = Matrix::random(rows, k, seed, 1.0);
                // All-zero rows make every product ±0.0, so the start
                // value's sign can show in the output.
                x.row_mut(rng.next_below(rows)).fill(0.0);
                let w = Matrix::random(n, k, seed + 1, 1.0);
                for start in [0.0f32, -0.0] {
                    let fast = x.matmul_transposed(&w, start);
                    let slow = naive_transposed(&x, &w, start);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(fast.as_slice()),
                        bits(&slow),
                        "rows {rows}, n {n}, k {k}, start {start:?}"
                    );
                }
            }
        }
        assert!(seen_k.iter().all(|&s| s), "every k in 1..=97 covered");
    }

    #[test]
    fn zero_rows_keep_the_start_sign() {
        // An all-zero row against non-negative weights sums only +0.0
        // products: `-0.0 + 0.0` is `+0.0`, so both starts give +0.0;
        // against negative weights every product is -0.0 and the start
        // sign survives.
        let x = Matrix::zeros(1, 3);
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, -2.0, -3.0]);
        for start in [0.0f32, -0.0] {
            let out = x.matmul_transposed(&w, start);
            assert_eq!(out.get(0, 0).to_bits(), 0.0f32.to_bits());
            assert_eq!(out.get(0, 1).to_bits(), start.to_bits());
        }
    }

    #[test]
    fn empty_reduction_yields_the_start_value() {
        let out = Matrix::zeros(2, 0).matmul_transposed(&Matrix::zeros(3, 0), -0.0);
        assert!(out
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let m = Matrix::random(8, 4, 8, 1.0);
        let g = m.gather_rows(&[3, 1, 7]);
        assert_eq!(g.row(0), m.row(3));
        assert_eq!(g.row(1), m.row(1));
        assert_eq!(g.row(2), m.row(7));

        let mut acc = Matrix::zeros(8, 4);
        acc.scatter_add_row(3, g.row(0), 2.0);
        for (a, b) in acc.row(3).iter().zip(m.row(3)) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(5, 9, 9, 1.0);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Matrix::random(12, 8, 10, 1.0);
        let b = Matrix::random(8, 6, 11, 1.0);
        let mut out = Matrix::zeros(12, 6);
        matmul_into(&a, &b, &mut out);
        assert!(out.max_abs_diff(&a.matmul(&b)) < 1e-5);
        // Second call overwrites rather than accumulates.
        matmul_into(&a, &b, &mut out);
        assert!(out.max_abs_diff(&a.matmul(&b)) < 1e-5);
    }
}
