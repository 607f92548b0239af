//! Algorithm 1 — the SGD-based Search Algorithm for the dropout-pattern
//! distribution.
//!
//! Given a target global dropout rate `p` and the maximum pattern period `N`,
//! the algorithm optimises a parameter vector `v ∈ ℝᴺ` so that the softmax
//! `d = softmax(v)` is a probability distribution over pattern periods
//! `dp ∈ {1, …, N}` satisfying two goals (paper §III-C):
//!
//! 1. **Rate matching** — the expected global dropout rate
//!    `dᵀ · pu`, with `pu_i = (i − 1)/i`, equals the target `p`
//!    (`E_p = ‖dᵀ·pu − p‖²`).
//! 2. **Sub-model diversity** — the distribution stays dense, enforced by the
//!    negative entropy term `E_n = (1/N) Σ d_i ln d_i`.
//!
//! The loss is `λ₁ E_p + λ₂ E_n` with `λ₁ + λ₂ = 1`, minimised by plain
//! gradient descent on `v` until the loss change falls below a threshold.

use crate::error::DropoutError;
use crate::rate::DropoutRate;
use std::fmt;

/// Largest pattern period `N` the search accepts. Algorithm 1 allocates
/// several `N`-long vectors, so an unbounded period from a scheme string
/// would abort the process; the widest period in use is 16, and a sampled
/// period is clamped to the layer's unit count anyway.
pub const MAX_DP: usize = 1 << 16;

/// Hyper-parameters of the SGD-based search (Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Weight of the rate-matching term `E_p`. The paper requires
    /// `lambda1 + lambda2 = 1`.
    pub lambda1: f64,
    /// Weight of the negative-entropy (diversity) term `E_n`.
    pub lambda2: f64,
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Stop when `|Δloss|` drops below this threshold.
    pub loss_threshold: f64,
    /// Hard cap on iterations so the search always terminates.
    pub max_iterations: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            lambda1: 0.95,
            lambda2: 0.05,
            learning_rate: 0.5,
            loss_threshold: 1e-9,
            max_iterations: 20_000,
        }
    }
}

impl SearchConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::Search`] if the lambdas are negative, do not
    /// sum to 1 (within 1e-6), the learning rate is non-positive, or the
    /// iteration cap is zero.
    pub fn validate(&self) -> Result<(), DropoutError> {
        if self.lambda1 < 0.0 || self.lambda2 < 0.0 {
            return Err(DropoutError::Search(
                "lambda weights must be non-negative".into(),
            ));
        }
        if (self.lambda1 + self.lambda2 - 1.0).abs() > 1e-6 {
            return Err(DropoutError::Search(format!(
                "lambda1 + lambda2 must equal 1 (got {})",
                self.lambda1 + self.lambda2
            )));
        }
        if self.learning_rate <= 0.0 {
            return Err(DropoutError::Search(
                "learning rate must be positive".into(),
            ));
        }
        if self.max_iterations == 0 {
            return Err(DropoutError::Search(
                "max_iterations must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A probability distribution `K = {k_dp}` over pattern periods `dp = 1..=N`.
///
/// Index 0 corresponds to `dp = 1` (no dropout), index `i` to `dp = i + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternDistribution {
    probs: Vec<f64>,
}

impl PatternDistribution {
    /// Creates a distribution from raw probabilities over `dp = 1..=N`.
    ///
    /// The probabilities are normalised to sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidDistribution`] if the vector is empty,
    /// contains negative or non-finite entries, or sums to zero.
    pub fn new(probs: Vec<f64>) -> Result<Self, DropoutError> {
        if probs.is_empty() {
            return Err(DropoutError::InvalidDistribution(
                "empty distribution".into(),
            ));
        }
        if probs.iter().any(|&p| !p.is_finite() || p < 0.0) {
            return Err(DropoutError::InvalidDistribution(
                "probabilities must be finite and non-negative".into(),
            ));
        }
        let total: f64 = probs.iter().sum();
        if total <= 0.0 {
            return Err(DropoutError::InvalidDistribution(
                "probabilities must not all be zero".into(),
            ));
        }
        Ok(Self {
            probs: probs.into_iter().map(|p| p / total).collect(),
        })
    }

    /// A point mass on a single period `dp` (useful for ablations and for
    /// the "fixed pattern" baseline).
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidDistribution`] if `dp == 0` or
    /// `dp > max_dp`.
    pub fn point_mass(dp: usize, max_dp: usize) -> Result<Self, DropoutError> {
        if dp == 0 || dp > max_dp {
            return Err(DropoutError::InvalidDistribution(format!(
                "dp {dp} outside 1..={max_dp}"
            )));
        }
        let mut probs = vec![0.0; max_dp];
        probs[dp - 1] = 1.0;
        Self::new(probs)
    }

    /// Number of pattern periods covered (the `N` of Algorithm 1).
    pub fn max_dp(&self) -> usize {
        self.probs.len()
    }

    /// Probability assigned to period `dp`.
    ///
    /// # Panics
    ///
    /// Panics if `dp == 0` or `dp > max_dp()`.
    pub fn probability_of(&self, dp: usize) -> f64 {
        assert!(dp >= 1 && dp <= self.probs.len(), "dp {dp} out of range");
        self.probs[dp - 1]
    }

    /// Borrow the probabilities, index `i` ↦ `dp = i + 1`.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Expected global dropout rate `Σ k_dp (dp − 1)/dp` (paper Eq. 3).
    pub fn expected_global_rate(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &k)| k * (i as f64) / (i as f64 + 1.0))
            .sum()
    }

    /// Shannon entropy of the distribution in nats; higher means more
    /// diverse sub-models.
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Effective number of distinct periods, `exp(entropy)`.
    pub fn effective_support(&self) -> f64 {
        self.entropy().exp()
    }
}

impl fmt::Display for PatternDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PatternDistribution(N={}, E[p]={:.4}, H={:.3})",
            self.max_dp(),
            self.expected_global_rate(),
            self.entropy()
        )
    }
}

/// Diagnostics returned alongside the distribution by [`sgd_search_with_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The optimised distribution.
    pub distribution: PatternDistribution,
    /// Final value of the combined loss.
    pub final_loss: f64,
    /// Final value of the rate-matching term `E_p`.
    pub rate_error: f64,
    /// Final value of the negative-entropy term `E_n`.
    pub negative_entropy: f64,
    /// Number of gradient steps taken.
    pub iterations: usize,
    /// `true` when the loss-change threshold was reached before the
    /// iteration cap.
    pub converged: bool,
}

/// Runs Algorithm 1 and returns just the distribution.
///
/// # Errors
///
/// Returns [`DropoutError::Search`] when the configuration is invalid or
/// `max_dp` is outside `1..=`[`MAX_DP`].
///
/// # Example
///
/// ```
/// use approx_dropout::{search::sgd_search, DropoutRate, SearchConfig};
///
/// # fn main() -> Result<(), approx_dropout::DropoutError> {
/// let dist = sgd_search(DropoutRate::new(0.7)?, 16, &SearchConfig::default())?;
/// assert!((dist.expected_global_rate() - 0.7).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
pub fn sgd_search(
    target: DropoutRate,
    max_dp: usize,
    config: &SearchConfig,
) -> Result<PatternDistribution, DropoutError> {
    sgd_search_with_trace(target, max_dp, config).map(|o| o.distribution)
}

/// Runs Algorithm 1 and returns the distribution together with convergence
/// diagnostics.
///
/// # Errors
///
/// Returns [`DropoutError::Search`] when the configuration is invalid or
/// `max_dp` is outside `1..=`[`MAX_DP`].
pub fn sgd_search_with_trace(
    target: DropoutRate,
    max_dp: usize,
    config: &SearchConfig,
) -> Result<SearchOutcome, DropoutError> {
    config.validate()?;
    if max_dp == 0 || max_dp > MAX_DP {
        return Err(DropoutError::Search(format!(
            "max_dp must be in 1..={MAX_DP}, got {max_dp}"
        )));
    }
    let n = max_dp;
    let p = target.value();
    // pu_i = (i-1)/i for dp = i, i = 1..=N  (line 2 of Algorithm 1).
    let pu: Vec<f64> = (1..=n).map(|i| (i as f64 - 1.0) / i as f64).collect();

    // Line 1: initialise v. A zero vector (uniform softmax) is a deterministic
    // and reproducible choice of the "arbitrary" initialisation.
    let mut v = vec![0.0f64; n];
    let mut prev_loss = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut d = softmax(&v);
    let mut loss_terms = loss(&d, &pu, p, config);

    while iterations < config.max_iterations {
        iterations += 1;
        d = softmax(&v);
        loss_terms = loss(&d, &pu, p, config);
        let total_loss = loss_terms.0;
        if (prev_loss - total_loss).abs() < config.loss_threshold {
            converged = true;
            break;
        }
        prev_loss = total_loss;

        // dLoss/dd_i
        let expected: f64 = d.iter().zip(&pu).map(|(di, pi)| di * pi).sum();
        let grad_d: Vec<f64> = d
            .iter()
            .enumerate()
            .map(|(i, &di)| {
                let rate_term = config.lambda1 * 2.0 * (expected - p) * pu[i];
                // E_n = (1/N) Σ d_i ln d_i  ⇒  ∂E_n/∂d_i = (ln d_i + 1)/N.
                let entropy_term = config.lambda2 * (di.max(1e-300).ln() + 1.0) / n as f64;
                rate_term + entropy_term
            })
            .collect();

        // Chain rule through the softmax: dLoss/dv_j = d_j (g_j − Σ_i g_i d_i).
        let g_dot_d: f64 = grad_d.iter().zip(&d).map(|(g, di)| g * di).sum();
        for j in 0..n {
            let grad_v = d[j] * (grad_d[j] - g_dot_d);
            v[j] -= config.learning_rate * grad_v;
        }
    }

    let distribution = PatternDistribution::new(d)?;
    Ok(SearchOutcome {
        rate_error: loss_terms.1,
        negative_entropy: loss_terms.2,
        final_loss: loss_terms.0,
        iterations,
        converged,
        distribution,
    })
}

/// Closed-form two-point fallback distribution used as a sanity baseline and
/// in tests: mixes `dp = 1` and `dp = max_dp` so the expected rate hits `p`
/// exactly (when representable).
///
/// # Errors
///
/// Returns [`DropoutError::Search`] if `max_dp < 2` and `p > 0`.
pub fn two_point_distribution(
    target: DropoutRate,
    max_dp: usize,
) -> Result<PatternDistribution, DropoutError> {
    let p = target.value();
    if p == 0.0 {
        return PatternDistribution::point_mass(1, max_dp.max(1));
    }
    if max_dp < 2 {
        return Err(DropoutError::Search(
            "max_dp must be at least 2 to represent a non-zero rate".into(),
        ));
    }
    let high_rate = (max_dp as f64 - 1.0) / max_dp as f64;
    let w_high = (p / high_rate).min(1.0);
    let mut probs = vec![0.0; max_dp];
    probs[0] = 1.0 - w_high;
    probs[max_dp - 1] = w_high;
    PatternDistribution::new(probs)
}

fn softmax(v: &[f64]) -> Vec<f64> {
    let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = v.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Returns `(total_loss, E_p, E_n)` for the current distribution.
fn loss(d: &[f64], pu: &[f64], p: f64, config: &SearchConfig) -> (f64, f64, f64) {
    let expected: f64 = d.iter().zip(pu).map(|(di, pi)| di * pi).sum();
    let ep = (expected - p) * (expected - p);
    let en = d
        .iter()
        .map(|&di| if di > 0.0 { di * di.ln() } else { 0.0 })
        .sum::<f64>()
        / d.len() as f64;
    (config.lambda1 * ep + config.lambda2 * en, ep, en)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SearchConfig::default().validate().is_ok());
    }

    #[test]
    fn config_rejects_bad_lambdas() {
        let bad = SearchConfig {
            lambda1: 0.5,
            lambda2: 0.6,
            ..SearchConfig::default()
        };
        assert!(bad.validate().is_err());
        let negative = SearchConfig {
            lambda1: -0.1,
            lambda2: 1.1,
            ..SearchConfig::default()
        };
        assert!(negative.validate().is_err());
    }

    #[test]
    fn config_rejects_bad_learning_rate_and_iterations() {
        let bad_lr = SearchConfig {
            learning_rate: 0.0,
            ..SearchConfig::default()
        };
        assert!(bad_lr.validate().is_err());
        let bad_iter = SearchConfig {
            max_iterations: 0,
            ..SearchConfig::default()
        };
        assert!(bad_iter.validate().is_err());
    }

    #[test]
    fn distribution_normalises_and_validates() {
        let d = PatternDistribution::new(vec![2.0, 2.0]).unwrap();
        assert!((d.probability_of(1) - 0.5).abs() < 1e-12);
        assert!(PatternDistribution::new(vec![]).is_err());
        assert!(PatternDistribution::new(vec![-1.0, 2.0]).is_err());
        assert!(PatternDistribution::new(vec![0.0, 0.0]).is_err());
        assert!(PatternDistribution::new(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn point_mass_expected_rate_is_pattern_rate() {
        let d = PatternDistribution::point_mass(4, 8).unwrap();
        assert!((d.expected_global_rate() - 0.75).abs() < 1e-12);
        assert_eq!(d.entropy(), 0.0);
        assert!(PatternDistribution::point_mass(0, 8).is_err());
        assert!(PatternDistribution::point_mass(9, 8).is_err());
    }

    #[test]
    fn expected_rate_formula_matches_manual_sum() {
        // K = {dp=1: 0.5, dp=2: 0.5} ⇒ E[p] = 0.5*0 + 0.5*0.5 = 0.25.
        let d = PatternDistribution::new(vec![0.5, 0.5]).unwrap();
        assert!((d.expected_global_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn search_matches_target_rate_for_common_settings() {
        for &p in &[0.3, 0.5, 0.7] {
            let dist =
                sgd_search(DropoutRate::new(p).unwrap(), 16, &SearchConfig::default()).unwrap();
            let achieved = dist.expected_global_rate();
            assert!(
                (achieved - p).abs() < 0.02,
                "target {p}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn search_keeps_distribution_dense() {
        let outcome =
            sgd_search_with_trace(DropoutRate::new(0.5).unwrap(), 16, &SearchConfig::default())
                .unwrap();
        // The entropy term should leave probability on several periods, not
        // collapse onto a single dp.
        assert!(outcome.distribution.effective_support() > 2.0);
        assert!(outcome.converged);
        assert!(outcome.final_loss.is_finite());
    }

    #[test]
    fn more_entropy_weight_yields_more_diversity() {
        let target = DropoutRate::new(0.5).unwrap();
        let low_entropy_cfg = SearchConfig {
            lambda1: 0.999,
            lambda2: 0.001,
            ..SearchConfig::default()
        };
        let high_entropy_cfg = SearchConfig {
            lambda1: 0.7,
            lambda2: 0.3,
            ..SearchConfig::default()
        };
        let low = sgd_search(target, 16, &low_entropy_cfg).unwrap();
        let high = sgd_search(target, 16, &high_entropy_cfg).unwrap();
        assert!(high.entropy() >= low.entropy() - 1e-9);
    }

    #[test]
    fn search_rejects_zero_max_dp() {
        assert!(sgd_search(DropoutRate::new(0.5).unwrap(), 0, &SearchConfig::default()).is_err());
    }

    #[test]
    fn search_handles_zero_rate() {
        let dist = sgd_search(DropoutRate::disabled(), 8, &SearchConfig::default()).unwrap();
        assert!(dist.expected_global_rate() < 0.05);
    }

    #[test]
    fn two_point_distribution_hits_rate_exactly() {
        let d = two_point_distribution(DropoutRate::new(0.6).unwrap(), 10).unwrap();
        assert!((d.expected_global_rate() - 0.6).abs() < 1e-9);
        assert!(two_point_distribution(DropoutRate::new(0.5).unwrap(), 1).is_err());
        let zero = two_point_distribution(DropoutRate::disabled(), 4).unwrap();
        assert_eq!(zero.probability_of(1), 1.0);
    }

    #[test]
    fn display_mentions_expected_rate() {
        let d = PatternDistribution::point_mass(2, 4).unwrap();
        assert!(d.to_string().contains("E[p]=0.5"));
    }
}
