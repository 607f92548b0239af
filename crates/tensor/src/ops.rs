//! The backward ReLU gate.
//!
//! The forward activations live in the fused GEMM epilogues
//! ([`crate::Activation`]), the transcendentals in `simd`'s slice kernels,
//! and each softmax in its one caller (the loss in `nn::loss`, the
//! attention rows in `nn::transformer`), so this module keeps only the
//! helper every ReLU layer's backward pass calls outside a GEMM:
//! [`relu_grad_mask_inplace`]. That the fused epilogues match an unfused
//! GEMM, bias and activation chain bit for bit is pinned by `gemm`'s
//! `fused_*_matches_unfused_chain_bitwise` tests; how far the
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_grad_mask_zeroes_non_positive_pre_activations() {
        let pre = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let mut grad = Matrix::from_rows(&[&[3.0, 4.0, 5.0]]);
        relu_grad_mask_inplace(&mut grad, &pre);
        assert_eq!(grad.row(0), &[0.0, 0.0, 5.0]);
    }
}
