//! Softmax cross-entropy loss.

use tensor::{simd, Matrix};

/// Recycled buffers for [`softmax_cross_entropy_into`]: the logits gradient,
/// which holds each row's `exp` values until they become the gradient, and
/// the count of rows whose argmax hit the label. Reused across training
/// iterations, so the loss stops allocating once warmed up (the same
/// workspace discipline the layers follow).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossEntropyScratch {
    grad_logits: Matrix,
    hits: usize,
}

impl CrossEntropyScratch {
    /// Gradient of the mean loss w.r.t. the logits of the most recent call.
    pub fn grad_logits(&self) -> &Matrix {
        &self.grad_logits
    }

    /// Fraction of the most recent call's rows whose argmax (the first
    /// maximum) equals the label; 0 for an empty batch.
    pub fn accuracy(&self) -> f64 {
        match self.grad_logits.rows() {
            0 => 0.0,
            rows => self.hits as f64 / rows as f64,
        }
    }
}

/// Mean softmax cross-entropy between `logits` (one row per sample) and
/// integer class `labels`: writes the gradient of the mean loss w.r.t. the
/// logits (already divided by the batch size, ready for the backward pass)
/// and the argmax hit count into `scratch`, whose buffers are recycled
/// across calls, and returns the mean loss.
///
/// One pass per row over its logits finds the max and the argmax, a second
/// writes `v − max` into the gradient row, [`simd::exp_slice`] turns it
/// into `exp(v − max)` (one polynomial `exp` per logit, the same bits at
/// every SIMD level), a third sums the row from 0 in index order, and a
/// fourth turns the row into `(p − 1[label]) / batch`. The two serial
/// folds (max/argmax and sum) run 8 rows side by side, each row in
/// its own index order, so their dependency chains overlap without moving
/// a bit. A NaN logit makes the loss NaN.
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
    for &label in labels {
        assert!(label < logits.cols(), "label {label} out of range");
    }
    let batch = logits.rows().max(1);
    scratch
        .grad_logits
        .resize_for_overwrite(logits.rows(), logits.cols());
    scratch.hits = 0;
    let mut loss = 0.0f32;
    let full = labels.len() - labels.len() % ROWS;
    for i in (0..full).step_by(ROWS) {
        loss = xent_rows::<ROWS>(logits, labels, i, scratch, loss);
    }
    for i in full..labels.len() {
        loss = xent_rows::<1>(logits, labels, i, scratch, loss);
    }
    loss / batch as f32
}

/// Rows of the loss whose serial folds run side by side.
const ROWS: usize = 8;

/// The loss of the `R` rows from `i0`: writes their gradient rows, counts
/// their argmax hits and returns `loss` minus their log-likelihoods, in row
/// order. Every label is in range and every row is non-empty.
// Index loops: the inner loop steps each of the `R` chains once per column.
#[allow(clippy::needless_range_loop)]
fn xent_rows<const R: usize>(
    logits: &Matrix,
    labels: &[usize],
    i0: usize,
    scratch: &mut CrossEntropyScratch,
    mut loss: f32,
) -> f32 {
    let cols = logits.cols();
    let inv = 1.0 / logits.rows().max(1) as f32;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &logits.row(i0 + r)[..cols]);
    // `best[r]` is `rows[r][argmax[r]]`, so the first-maximum argmax
    // compares against a register instead of reloading the row.
    let mut max = [f32::NEG_INFINITY; R];
    let mut argmax = [0usize; R];
    let mut best: [f32; R] = std::array::from_fn(|r| rows[r][0]);
    for j in 0..cols {
        for r in 0..R {
            let v = rows[r][j];
            max[r] = max[r].max(v);
            let gt = v > best[r];
            argmax[r] = if gt { j } else { argmax[r] };
            best[r] = if gt { v } else { best[r] };
        }
    }
    let grads = &mut scratch.grad_logits.as_mut_slice()[i0 * cols..(i0 + R) * cols];
    for ((grad, row), &m) in grads.chunks_exact_mut(cols).zip(rows).zip(&max) {
        for (g, &v) in grad.iter_mut().zip(row) {
            *g = v - m;
        }
        simd::exp_slice(grad);
    }
    let exps: [&[f32]; R] = std::array::from_fn(|r| &grads[r * cols..(r + 1) * cols]);
    let mut denom = [0.0f32; R];
    for j in 0..cols {
        for r in 0..R {
            denom[r] += exps[r][j];
        }
    }
    for (r, grad) in grads.chunks_exact_mut(cols).enumerate() {
        let label = labels[i0 + r];
        scratch.hits += usize::from(argmax[r] == label);
        let label_p = grad[label] / denom[r];
        for g in grad.iter_mut() {
            *g = *g / denom[r] * inv;
        }
        grad[label] = (label_p - 1.0) * inv;
        loss -= rows[r][label] - max[r] - denom[r].ln();
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The three-pass reference [`softmax_cross_entropy_into`] must match
    /// bit for bit: whole softmax rows, whole log-softmax rows, then the
    /// loss at the labels and the gradient scaled by the batch size, with
    /// the accuracy from a separate first-maximum argmax per row. Its `exp`
    /// is the scalar form of the loss's [`simd::exp_slice`].
    /// Returns `(loss, grad_logits, accuracy)`.
    fn three_pass_reference(logits: &Matrix, labels: &[usize]) -> (f32, Matrix, f64) {
        let exp = simd::exp_approx;
        let batch = logits.rows().max(1);
        let (rows, cols) = logits.shape();
        let (mut probs, mut log_probs) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
        for i in 0..rows {
            let row = logits.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for &v in row {
                denom += exp(v - max);
            }
            let log_denom = row.iter().map(|&v| exp(v - max)).sum::<f32>().ln();
            for (j, &v) in row.iter().enumerate() {
                probs[(i, j)] = exp(v - max) / denom;
                log_probs[(i, j)] = v - max - log_denom;
            }
        }
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        let mut correct = 0;
        for (i, &label) in labels.iter().enumerate() {
            loss -= log_probs[(i, label)];
            grad[(i, label)] -= 1.0;
            let row = logits.row(i);
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            correct += usize::from(best == label);
        }
        loss /= batch as f32;
        let accuracy = if rows == 0 {
            0.0
        } else {
            correct as f64 / rows as f64
        };
        (loss, grad.scale(1.0 / batch as f32), accuracy)
    }

    /// The softmax probabilities of the most recent call, recovered from
    /// its gradient `(p − 1[label]) / batch`.
    fn probabilities(scratch: &CrossEntropyScratch, labels: &[usize]) -> Matrix {
        let grad = scratch.grad_logits();
        let batch = grad.rows().max(1) as f32;
        Matrix::from_fn(grad.rows(), grad.cols(), |i, j| {
            grad[(i, j)] * batch + if j == labels[i] { 1.0 } else { 0.0 }
        })
    }

    /// The mean loss of one call on a fresh scratch.
    fn loss_of(logits: &Matrix, labels: &[usize]) -> f32 {
        softmax_cross_entropy_into(logits, labels, &mut CrossEntropyScratch::default())
    }

    /// Loss, gradient and accuracy match the reference bit for bit: on a
    /// small hand-written batch, then on random rows at several widths
    /// with ties and a huge uniform row mixed in, through one recycled
    /// scratch that carries nothing over between shapes.
    #[test]
    fn scratch_variant_matches_allocating_function_bitwise() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[2.0, 0.1, -1.0], &[0.0, 0.0, 5.0]]);
        let labels = vec![1, 0, 2];
        let (loss_ref, grad_ref, _) = three_pass_reference(&logits, &labels);
        let mut scratch = CrossEntropyScratch::default();
        let loss = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
        assert_eq!(loss.to_bits(), loss_ref.to_bits());
        assert_eq!(*scratch.grad_logits(), grad_ref);

        let mut rng = StdRng::seed_from_u64(21);
        for &(rows, cols) in &[(7, 1), (16, 10), (5, 37), (33, 1000), (0, 4)] {
            let mut logits = tensor::init::gaussian(&mut rng, rows, cols, 0.0, 3.0);
            if rows > 2 && cols > 2 {
                logits[(1, 2)] = logits[(1, 0)];
                logits.row_mut(2).fill(1000.0);
            }
            let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..cols)).collect();
            let (loss_ref, grad_ref, accuracy_ref) = three_pass_reference(&logits, &labels);
            let loss = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
            assert_eq!(loss.to_bits(), loss_ref.to_bits(), "{rows}x{cols}");
            assert_eq!(*scratch.grad_logits(), grad_ref, "{rows}x{cols}");
            assert_eq!(scratch.accuracy().to_bits(), accuracy_ref.to_bits());
        }
    }

    /// Rows the side-by-side folds must treat exactly like one row at a
    /// time, through the full groups and the remainder alike: NaN first and
    /// inside a row, ±inf, a +0.0 max beside −0.0 in both orders, rows
    /// shorter than 16, and batches that are not a multiple of the
    /// interleave. Every gradient row is compared (a NaN row's gradient
    /// must be NaN where the reference's is); the loss and accuracy are
    /// compared by bits on the finite batches.
    #[test]
    fn edge_rows_match_the_reference_bitwise() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let finite: [&[f32]; 4] = [
            &[0.0, -0.0, -1.0, -2.0, -3.0],
            &[-0.0, 0.0, -1.0, -2.0, -3.0],
            &[-0.0, -1.0, -0.0, -2.5, 0.5],
            &[1.5, -0.25, 3.0, 3.0, -7.0],
        ];
        let special: [&[f32]; 4] = [
            &[nan, 1.0, 2.0, 3.0, 4.0],
            &[1.0, 2.0, nan, 0.0, -1.0],
            &[inf, 0.0, 1.0, -1.0, 2.0],
            &[-inf, 0.0, 1.0, 2.0, -inf],
        ];
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut scratch = CrossEntropyScratch::default();
        for (edge, finite) in [(finite, true), (special, false)] {
            for rows in [1, 7, 8, 11, 19] {
                for cols in [1, 5] {
                    let logits = Matrix::from_fn(rows, cols, |i, j| edge[(i + j) % 4][j]);
                    let labels: Vec<usize> = (0..rows).map(|i| i % cols).collect();
                    let (loss_ref, grad_ref, accuracy_ref) = three_pass_reference(&logits, &labels);
                    let loss = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
                    let what = format!("{rows}x{cols}, finite {finite}");
                    let grad = scratch.grad_logits().as_slice();
                    for (k, (&g, &r)) in grad.iter().zip(grad_ref.as_slice()).enumerate() {
                        assert!(same(g, r), "gradient {k}: {g} vs {r}, {what}");
                    }
                    let accuracy = scratch.accuracy();
                    assert_eq!(accuracy.to_bits(), accuracy_ref.to_bits(), "{what}");
                    if finite {
                        assert_eq!(loss.to_bits(), loss_ref.to_bits(), "{what}");
                    } else {
                        assert!(loss.is_nan() && loss_ref.is_nan(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_buffers_are_recycled_across_calls() {
        let logits = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 1.0, 1.0]]);
        let labels = vec![1, 0];
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
        let grad_ptr = scratch.grad_logits.as_slice().as_ptr();
        let _ = softmax_cross_entropy_into(&logits, &labels, &mut scratch);
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

    /// A non-label class's gradient entry is its probability over the
    /// batch size.
    #[test]
    fn probabilities_are_exposed() {
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&Matrix::zeros(1, 4), &[0], &mut scratch);
        assert!((scratch.grad_logits()[(0, 1)] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let labels = [0, 1];
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&x, &labels, &mut scratch);
        let s = probabilities(&scratch, &labels);
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
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(&x, &[1], &mut scratch);
        assert_eq!(scratch.accuracy(), 1.0);
        let s = probabilities(&scratch, &[1]);
        assert!(s[(0, 1)] > s[(0, 0)] && s[(0, 1)] > s[(0, 2)]);
    }
}
