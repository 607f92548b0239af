//! Softmax cross-entropy loss.

use tensor::{ops, Matrix};

/// Recycled buffers for [`softmax_cross_entropy_into`]: the probability
/// matrix and the logits gradient, reused across training iterations so the
/// loss computation stops allocating once warmed up (the same workspace
/// discipline the layers follow).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossEntropyScratch {
    probs: Matrix,
    grad_logits: Matrix,
}

impl CrossEntropyScratch {
    /// Row-wise softmax probabilities of the most recent call.
    pub fn probabilities(&self) -> &Matrix {
        &self.probs
    }

    /// Gradient of the mean loss w.r.t. the logits of the most recent call.
    pub fn grad_logits(&self) -> &Matrix {
        &self.grad_logits
    }
}

/// Mean softmax cross-entropy between `logits` (one row per sample) and
/// integer class `labels`: writes the probabilities and the gradient of the
/// mean loss w.r.t. the logits (already divided by the batch size, ready
/// for the backward pass) into `scratch`, whose buffers are recycled across
/// calls, and returns the mean loss.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    scratch: &mut CrossEntropyScratch,
) -> f32 {
    assert_eq!(
        labels.len(),
        logits.rows(),
        "one label per logits row is required"
    );
    let batch = logits.rows().max(1);
    ops::softmax_rows_into(logits, &mut scratch.probs);
    // The loss needs the log-softmax only at the label positions, so the
    // per-row log-denominator is computed on the fly instead of
    // materialising the whole log-softmax matrix.
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let row = logits.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_denom = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        loss -= row[label] - max - log_denom;
    }
    loss /= batch as f32;
    scratch.grad_logits.clone_from(&scratch.probs);
    for (i, &label) in labels.iter().enumerate() {
        scratch.grad_logits[(i, label)] -= 1.0;
    }
    let inv = 1.0 / batch as f32;
    scratch.grad_logits.map_inplace(|v| v * inv);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three-pass reference [`softmax_cross_entropy_into`] must match
    /// bit for bit: whole softmax rows, whole log-softmax rows, then the
    /// loss at the labels and the gradient scaled by the batch size.
    /// Returns `(loss, probabilities, grad_logits)`.
    fn three_pass_reference(logits: &Matrix, labels: &[usize]) -> (f32, Matrix, Matrix) {
        let batch = logits.rows().max(1);
        let (rows, cols) = logits.shape();
        let (mut probs, mut log_probs) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
        for i in 0..rows {
            let row = logits.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for &v in row {
                denom += (v - max).exp();
            }
            let log_denom = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
            for (j, &v) in row.iter().enumerate() {
                probs[(i, j)] = (v - max).exp() / denom;
                log_probs[(i, j)] = v - max - log_denom;
            }
        }
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        for (i, &label) in labels.iter().enumerate() {
            loss -= log_probs[(i, label)];
            grad[(i, label)] -= 1.0;
        }
        loss /= batch as f32;
        (loss, probs, grad.scale(1.0 / batch as f32))
    }

    /// The mean loss of one call on a fresh scratch.
    fn loss_of(logits: &Matrix, labels: &[usize]) -> f32 {
        softmax_cross_entropy_into(logits, labels, &mut CrossEntropyScratch::default())
    }

    #[test]
    fn scratch_variant_matches_allocating_function_bitwise() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[2.0, 0.1, -1.0], &[0.0, 0.0, 5.0]]);
        let labels = vec![1, 0, 2];
        let (loss_ref, probs_ref, grad_ref) = three_pass_reference(&logits, &labels);
        let mut scratch = CrossEntropyScratch::default();
        let loss = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
        assert_eq!(loss.to_bits(), loss_ref.to_bits());
        assert_eq!(*scratch.probabilities(), probs_ref);
        assert_eq!(*scratch.grad_logits(), grad_ref);
    }

    #[test]
    fn scratch_buffers_are_recycled_across_calls() {
        let logits = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 1.0, 1.0]]);
        let labels = vec![1, 0];
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
        let probs_ptr = scratch.probs.as_slice().as_ptr();
        let grad_ptr = scratch.grad_logits.as_slice().as_ptr();
        let _ = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
        assert_eq!(probs_ptr, scratch.probs.as_slice().as_ptr());
        assert_eq!(grad_ptr, scratch.grad_logits.as_slice().as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scratch_variant_rejects_out_of_range_label() {
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&Matrix::zeros(1, 3), &[3], &mut scratch);
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Matrix::zeros(4, 10);
        let labels = vec![0, 1, 2, 3];
        let loss = loss_of(&logits, &labels);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits[(0, 2)] = 10.0;
        let mut scratch = CrossEntropyScratch::default();
        let loss = softmax_cross_entropy_into(&logits, &[2], &mut scratch);
        assert!(loss < 1e-3);
        // Gradient pushes the correct logit up (negative gradient) and the
        // others down.
        assert!(scratch.grad_logits()[(0, 2)] < 0.0);
        assert!(scratch.grad_logits()[(0, 0)] >= 0.0);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[2.0, 0.1, -1.0]]);
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&logits, &[1, 0], &mut scratch);
        for i in 0..2 {
            let s: f32 = scratch.grad_logits().row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn numerical_gradient_check() {
        let logits = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        let labels = vec![1];
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut plus = logits.clone();
            plus[(0, j)] += eps;
            let mut minus = logits.clone();
            minus[(0, j)] -= eps;
            let numeric = (loss_of(&plus, &labels) - loss_of(&minus, &labels)) / (2.0 * eps);
            assert!(
                (numeric - scratch.grad_logits()[(0, j)]).abs() < 1e-3,
                "logit {j}: numeric {numeric} vs analytic {}",
                scratch.grad_logits()[(0, j)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "one label per logits row")]
    fn rejects_mismatched_label_count() {
        let _ = loss_of(&Matrix::zeros(2, 3), &[0]);
    }

    /// Every row's label is checked, not only the first one's.
    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        let _ = loss_of(&Matrix::zeros(2, 3), &[0, 3]);
    }

    #[test]
    fn probabilities_are_exposed() {
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&Matrix::zeros(1, 4), &[0], &mut scratch);
        assert!((scratch.probabilities()[(0, 0)] - 0.25).abs() < 1e-6);
    }
}
