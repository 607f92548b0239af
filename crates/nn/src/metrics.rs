//! Evaluation metrics: language-model perplexity and a running mean.
//! Classification accuracy is counted by the loss in the same pass that
//! finds each row's max ([`crate::CrossEntropyScratch::accuracy`]); its
//! tests live here beside the other metrics.

/// Converts a mean negative log-likelihood (in nats per token) into
/// perplexity, the metric the paper reports for the PTB experiment.
pub fn perplexity_from_nll(mean_nll: f64) -> f64 {
    mean_nll.exp()
}

/// Running average utility used by the training loops.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// Creates an empty running mean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Current mean (0 if nothing was added).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{softmax_cross_entropy_into, CrossEntropyScratch};
    use tensor::Matrix;

    /// Accuracy of `labels` against `logits`, counted by the loss.
    fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
        let mut scratch = CrossEntropyScratch::default();
        let _ = softmax_cross_entropy_into(logits, labels, &mut scratch);
        scratch.accuracy()
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_resolves_ties_to_first_max() {
        let ties = Matrix::from_rows(&[&[0.1, 0.9, 0.9], &[2.0, 1.0, 0.0]]);
        assert_eq!(accuracy(&ties, &[1, 0]), 1.0);
        assert_eq!(accuracy(&ties, &[2, 0]), 0.5);
    }

    #[test]
    fn accuracy_of_empty_batch_is_zero() {
        let logits = Matrix::zeros(0, 3);
        assert_eq!(accuracy(&logits, &[]), 0.0);
        assert_eq!(CrossEntropyScratch::default().accuracy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one label per logits row")]
    fn accuracy_rejects_mismatched_labels() {
        let _ = accuracy(&Matrix::zeros(2, 2), &[0]);
    }

    #[test]
    fn perplexity_of_uniform_model() {
        // Uniform over V words: NLL = ln V, perplexity = V.
        let v = 8800f64;
        assert!((perplexity_from_nll(v.ln()) - v).abs() / v < 1e-9);
        assert!((perplexity_from_nll(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn running_mean_tracks_average() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.add(1.0);
        m.add(3.0);
        assert_eq!(m.mean(), 2.0);
        assert_eq!(m.count(), 2);
    }
}
