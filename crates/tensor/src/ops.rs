//! Row-wise softmax and the backward ReLU gate.
//!
//! The forward activations live in the fused GEMM epilogues
//! ([`crate::Activation`]), so this module keeps only the two helpers the
//! models call outside a GEMM: [`softmax_rows_into`] (the loss and the
//! attention rows) and [`relu_grad_mask_inplace`] (every ReLU layer's
//! backward pass). That the fused epilogues match an unfused GEMM, bias and
//! activation chain bit for bit is pinned by `gemm`'s
//! `fused_*_matches_unfused_chain_bitwise` tests; how far their vector
//! transcendentals sit from libm is pinned by `simd`'s ULP tests.

use crate::matrix::Matrix;

/// In-place ReLU gradient gate: zeroes `grad` wherever the pre-activation
/// `pre` is non-positive — `grad ⊙ relu'(pre)` without materialising the
/// derivative matrix or the Hadamard product.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn relu_grad_mask_inplace(grad: &mut Matrix, pre: &Matrix) {
    assert_eq!(
        grad.shape(),
        pre.shape(),
        "gradient and pre-activation shapes must match"
    );
    for (g, &p) in grad.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Numerically stable row-wise softmax into a caller-owned matrix (resized
/// in place), so per-iteration probability buffers can be recycled.
///
/// Each row is treated as one sample's logits; the maximum logit is
/// subtracted before exponentiation so large logits do not overflow.
pub fn softmax_rows_into(x: &Matrix, out: &mut Matrix) {
    out.resize_for_overwrite(x.rows(), x.cols());
    for i in 0..x.rows() {
        let row = x.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for &v in row {
            denom += (v - max).exp();
        }
        let out_row = out.row_mut(i);
        for (j, &v) in row.iter().enumerate() {
            out_row[j] = (v - max).exp() / denom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax_rows(x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        softmax_rows_into(x, &mut out);
        out
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
        // Uniform logits yield uniform probabilities even when huge.
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_prefers_largest_logit() {
        let x = Matrix::from_rows(&[&[0.0, 5.0, 1.0]]);
        let s = softmax_rows(&x);
        assert_eq!(s.argmax_row(0), 1);
    }

    #[test]
    fn relu_grad_mask_zeroes_non_positive_pre_activations() {
        let pre = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let mut grad = Matrix::from_rows(&[&[3.0, 4.0, 5.0]]);
        relu_grad_mask_inplace(&mut grad, &pre);
        assert_eq!(grad.row(0), &[0.0, 0.0, 5.0]);
    }
}
