//! Elementwise nonlinearities and row-wise softmax.
//!
//! These are the activation functions the MLP and LSTM substrates need. Each
//! forward function has a matching derivative helper expressed in terms of
//! the forward output, which is how the backward passes use them.
//!
//! [`relu`], [`sigmoid`] and [`tanh`] route through the same
//! [`crate::simd`] primitives as the fused GEMM epilogues, so fused and
//! unfused layer paths stay bitwise identical at every SIMD level (ReLU is
//! scalar-exact everywhere; the transcendentals switch to the documented
//! polynomial forms when a vector level is active).

use crate::matrix::Matrix;
use crate::simd;

/// Rectified linear unit, `max(0, x)`, applied elementwise.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    simd::relu_slice(out.as_mut_slice());
    out
}

/// Derivative of ReLU expressed in terms of the pre-activation input.
pub fn relu_grad(x: &Matrix) -> Matrix {
    x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

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

/// Logistic sigmoid applied elementwise.
pub fn sigmoid(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    simd::sigmoid_slice(out.as_mut_slice());
    out
}

/// Derivative of the sigmoid expressed in terms of the sigmoid *output* `y`:
/// `y * (1 - y)`.
pub fn sigmoid_grad_from_output(y: &Matrix) -> Matrix {
    y.map(|v| v * (1.0 - v))
}

/// Hyperbolic tangent applied elementwise.
pub fn tanh(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    simd::tanh_slice(out.as_mut_slice());
    out
}

/// Derivative of tanh expressed in terms of the tanh *output* `y`: `1 - y^2`.
pub fn tanh_grad_from_output(y: &Matrix) -> Matrix {
    y.map(|v| 1.0 - v * v)
}

/// Numerically stable row-wise softmax.
///
/// Each row is treated as one sample's logits; the maximum logit is
/// subtracted before exponentiation so large logits do not overflow.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    softmax_rows_into(x, &mut out);
    out
}

/// Like [`softmax_rows`] but writing into a caller-owned matrix (resized in
/// place), so per-iteration probability buffers can be recycled.
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

/// Row-wise log-softmax (used by the cross-entropy / perplexity metrics).
pub fn log_softmax_rows(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for i in 0..x.rows() {
        let row = x.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_denom = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        let out_row = out.row_mut(i);
        for (j, &v) in row.iter().enumerate() {
            out_row[j] = v - max - log_denom;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(relu(&x).row(0), &[0.0, 0.0, 2.0]);
        assert_eq!(relu_grad(&x).row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_is_centered_at_half() {
        let x = Matrix::from_rows(&[&[0.0]]);
        let y = sigmoid(&x);
        assert!((y[(0, 0)] - 0.5).abs() < 1e-6);
        let g = sigmoid_grad_from_output(&y);
        assert!((g[(0, 0)] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_saturates_towards_zero_and_one() {
        let x = Matrix::from_rows(&[&[-20.0, 20.0]]);
        let y = sigmoid(&x);
        assert!(y[(0, 0)] < 1e-6);
        assert!(y[(0, 1)] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let x = Matrix::from_rows(&[&[-3.0, 0.0, 3.0]]);
        let y = tanh(&x);
        assert!((y[(0, 0)] + y[(0, 2)]).abs() < 1e-6);
        assert_eq!(y[(0, 1)], 0.0);
        assert!(y.as_slice().iter().all(|v| v.abs() <= 1.0));
        let g = tanh_grad_from_output(&y);
        assert!((g[(0, 1)] - 1.0).abs() < 1e-6);
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
    fn log_softmax_matches_log_of_softmax() {
        let x = Matrix::from_rows(&[&[0.3, -1.2, 2.5]]);
        let s = softmax_rows(&x);
        let ls = log_softmax_rows(&x);
        for j in 0..3 {
            assert!((ls[(0, j)] - s[(0, j)].ln()).abs() < 1e-5);
        }
    }
}
