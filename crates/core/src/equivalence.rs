//! Statistical-equivalence checks (paper §III-D, Eq. 2 and Eq. 3).
//!
//! The paper argues that, over the whole training run, the probability `p_n`
//! of a single neuron/synapse being dropped under the sampled regular
//! patterns equals the global dropout rate `p_g = Σ k_dp (dp−1)/dp`, which
//! Algorithm 1 drives towards the target rate `p`. This module provides the
//! empirical counterpart: it simulates many iterations of pattern sampling
//! and measures the per-unit drop frequency, so tests and experiments can
//! verify the equivalence numerically.

use crate::pattern::PatternKind;
use crate::sampler::PatternSampler;
use crate::search::PatternDistribution;
use rand::Rng;

/// Result of an empirical equivalence measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Analytic per-unit drop probability `p_n = Σ k_dp (dp−1)/dp` (Eq. 2).
    pub analytic_rate: f64,
    /// Mean of the measured per-unit drop frequencies.
    pub empirical_mean: f64,
    /// Standard deviation of the per-unit drop frequencies across units;
    /// small values mean the drop probability is uniform across units, which
    /// is what the uniformly random bias is responsible for.
    pub empirical_std: f64,
    /// Largest absolute deviation of any single unit's frequency from the
    /// analytic rate.
    pub max_unit_deviation: f64,
    /// Number of iterations simulated.
    pub iterations: usize,
    /// Number of units tracked.
    pub unit_count: usize,
}

impl EquivalenceReport {
    /// Returns `true` when both the mean and the per-unit deviations are
    /// within `tolerance` of the analytic rate.
    pub fn is_equivalent(&self, tolerance: f64) -> bool {
        (self.empirical_mean - self.analytic_rate).abs() <= tolerance
            && self.max_unit_deviation <= tolerance
    }
}

/// Analytic per-unit drop probability implied by a pattern distribution
/// (Eq. 2); identical to the expected global rate of Eq. 3, which is the
/// paper's equivalence argument in closed form.
pub fn analytic_unit_drop_rate(distribution: &PatternDistribution) -> f64 {
    distribution.expected_global_rate()
}

/// Simulates `iterations` of pattern sampling over `unit_count` units and
/// measures how often each unit is dropped.
///
/// Returns one drop frequency per unit.
pub fn empirical_unit_drop_rates<R: Rng + ?Sized>(
    sampler: &PatternSampler,
    rng: &mut R,
    unit_count: usize,
    iterations: usize,
) -> Vec<f64> {
    let mut dropped = vec![0usize; unit_count];
    for _ in 0..iterations {
        let (dp, bias) = sampler.sample_params(rng, unit_count);
        for (u, count) in dropped.iter_mut().enumerate() {
            if u % dp != bias {
                *count += 1;
            }
        }
    }
    dropped
        .into_iter()
        .map(|d| d as f64 / iterations.max(1) as f64)
        .collect()
}

/// Runs a full equivalence measurement: samples `iterations` patterns over
/// `unit_count` units and compares the per-unit empirical drop rate against
/// the analytic rate of the sampler's distribution.
pub fn measure_equivalence<R: Rng + ?Sized>(
    sampler: &PatternSampler,
    rng: &mut R,
    unit_count: usize,
    iterations: usize,
) -> EquivalenceReport {
    let analytic = analytic_unit_drop_rate(sampler.distribution());
    let rates = empirical_unit_drop_rates(sampler, rng, unit_count, iterations);
    let mean = if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    };
    let std = if rates.is_empty() {
        0.0
    } else {
        (rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rates.len() as f64).sqrt()
    };
    let max_dev = rates
        .iter()
        .map(|r| (r - analytic).abs())
        .fold(0.0, f64::max);
    EquivalenceReport {
        analytic_rate: analytic,
        empirical_mean: mean,
        empirical_std: std,
        max_unit_deviation: max_dev,
        iterations,
        unit_count,
    }
}

/// Counts how many *distinct* sub-models (unique kept-index sets) appear over
/// `iterations` sampled patterns — the paper's diversity argument for why the
/// entropy term in Algorithm 1 matters and why TDP outperforms RDP in
/// accuracy.
pub fn distinct_sub_models<R: Rng + ?Sized>(
    sampler: &PatternSampler,
    rng: &mut R,
    unit_count: usize,
    iterations: usize,
) -> usize {
    use std::collections::HashSet;
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    for _ in 0..iterations {
        let (dp, bias) = sampler.sample_params(rng, unit_count);
        seen.insert((bias..unit_count).step_by(dp).collect());
    }
    seen.len()
}

/// Convenience: builds a row-pattern sampler from a distribution and runs
/// [`measure_equivalence`] with a fresh deterministic RNG seed.
pub fn quick_row_equivalence(
    distribution: PatternDistribution,
    unit_count: usize,
    iterations: usize,
    seed: u64,
) -> EquivalenceReport {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let sampler = PatternSampler::new(distribution, PatternKind::Row);
    let mut rng = StdRng::seed_from_u64(seed);
    measure_equivalence(&sampler, &mut rng, unit_count, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::DropoutRate;
    use crate::search::{sgd_search, SearchConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn point_mass_pattern_drops_exactly_its_rate() {
        // dp = 2 always: every unit is dropped exactly half the time thanks
        // to the uniform bias.
        let dist = PatternDistribution::point_mass(2, 2).unwrap();
        let report = quick_row_equivalence(dist, 64, 20_000, 0);
        assert!((report.analytic_rate - 0.5).abs() < 1e-12);
        assert!(report.is_equivalent(0.02), "report: {report:?}");
    }

    #[test]
    fn searched_distribution_is_statistically_equivalent() {
        for &p in &[0.3, 0.5, 0.7] {
            let dist =
                sgd_search(DropoutRate::new(p).unwrap(), 16, &SearchConfig::default()).unwrap();
            let report = quick_row_equivalence(dist, 128, 8_000, 42);
            assert!(
                (report.empirical_mean - p).abs() < 0.03,
                "target {p}, empirical {:.4}",
                report.empirical_mean
            );
            assert!(
                report.max_unit_deviation < 0.06,
                "target {p}, max deviation {:.4}",
                report.max_unit_deviation
            );
        }
    }

    #[test]
    fn per_unit_rates_are_uniform_across_units() {
        let dist = PatternDistribution::new(vec![0.2, 0.3, 0.5]).unwrap();
        let report = quick_row_equivalence(dist, 96, 20_000, 7);
        assert!(
            report.empirical_std < 0.02,
            "std {:.4}",
            report.empirical_std
        );
    }

    #[test]
    fn empirical_rates_have_one_entry_per_unit() {
        let dist = PatternDistribution::point_mass(3, 4).unwrap();
        let sampler = PatternSampler::new(dist, PatternKind::Row);
        let mut rng = StdRng::seed_from_u64(1);
        let rates = empirical_unit_drop_rates(&sampler, &mut rng, 10, 100);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn distinct_sub_models_grow_with_entropy() {
        let mut rng = StdRng::seed_from_u64(2);
        let point = PatternSampler::new(
            PatternDistribution::point_mass(4, 8).unwrap(),
            PatternKind::Row,
        );
        let dense = PatternSampler::new(
            PatternDistribution::new(vec![1.0; 8]).unwrap(),
            PatternKind::Row,
        );
        let point_models = distinct_sub_models(&point, &mut rng, 64, 500);
        let dense_models = distinct_sub_models(&dense, &mut rng, 64, 500);
        // The point mass can only produce `dp` distinct biases; the dense
        // distribution reaches many more sub-models.
        assert!(point_models <= 4);
        assert!(dense_models > point_models);
    }

    #[test]
    fn zero_iteration_report_is_well_formed() {
        let dist = PatternDistribution::point_mass(2, 2).unwrap();
        let sampler = PatternSampler::new(dist, PatternKind::Row);
        let mut rng = StdRng::seed_from_u64(3);
        let report = measure_equivalence(&sampler, &mut rng, 8, 0);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.empirical_mean, 0.0);
    }
}
