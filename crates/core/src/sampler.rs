//! Per-iteration dropout-pattern generation (paper §III-D).
//!
//! In every training iteration one pattern period `dp` is sampled from the
//! distribution `K` produced by Algorithm 1, a bias `b` is drawn uniformly
//! from `{0, …, dp − 1}`, and the resulting regular pattern is applied to the
//! whole batch. Over the course of training each neuron/synapse is therefore
//! dropped with probability `Σ k_dp (dp − 1)/dp ≈ p`, while every single
//! iteration still uses a GPU-friendly regular pattern.

use crate::error::DropoutError;
use crate::pattern::{PatternKind, RowPattern, TileGrid, TilePattern};
use crate::plan::{DropoutPlan, LayerShape};
use crate::rate::DropoutRate;
use crate::scheme::DropoutScheme;
use crate::search::{sgd_search, PatternDistribution, SearchConfig};
use crate::DEFAULT_TILE_SIZE;
use rand::{Rng, RngCore};

/// Samples `(dp, bias)` pairs from a [`PatternDistribution`].
///
/// # Example
///
/// ```
/// use approx_dropout::{PatternDistribution, PatternKind, PatternSampler};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), approx_dropout::DropoutError> {
/// let dist = PatternDistribution::new(vec![0.5, 0.5])?; // dp ∈ {1, 2}
/// let sampler = PatternSampler::new(dist, PatternKind::Row);
/// let mut rng = StdRng::seed_from_u64(0);
/// let (dp, bias) = sampler.sample_params(&mut rng, 100);
/// assert!(dp == 1 || dp == 2);
/// assert!(bias < dp);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSampler {
    distribution: PatternDistribution,
    kind: PatternKind,
    tile: usize,
}

impl PatternSampler {
    /// Creates a sampler for the given distribution and pattern family,
    /// using the paper's default 32×32 tile for tile patterns.
    pub fn new(distribution: PatternDistribution, kind: PatternKind) -> Self {
        Self {
            distribution,
            kind,
            tile: DEFAULT_TILE_SIZE,
        }
    }

    /// Overrides the tile edge length (only meaningful for tile patterns).
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    pub fn with_tile_size(mut self, tile: usize) -> Self {
        assert!(tile > 0, "tile size must be positive");
        self.tile = tile;
        self
    }

    /// The distribution the sampler draws from.
    pub fn distribution(&self) -> &PatternDistribution {
        &self.distribution
    }

    /// The pattern family this sampler produces.
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// Tile edge length used for tile patterns.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Draws a pattern period `dp` from the distribution.
    pub fn sample_dp<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // Walk the CDF in place: summing inside the loop keeps the draw
        // allocation-free.
        let mut cumulative = 0.0;
        for (i, &p) in self.distribution.probabilities().iter().enumerate() {
            cumulative += p;
            if u <= cumulative {
                return i + 1;
            }
        }
        self.distribution.max_dp()
    }

    /// Draws a uniform bias for a period `dp`.
    pub fn sample_bias<R: Rng + ?Sized>(&self, rng: &mut R, dp: usize) -> usize {
        if dp <= 1 {
            0
        } else {
            rng.gen_range(0..dp)
        }
    }

    /// Draws the `(dp, bias)` pair for one iteration — the one pattern draw
    /// every consumer makes — with the period clamped to `unit_count`
    /// droppable units (output neurons for row patterns, total tiles for
    /// tile patterns) so that at least one unit always survives.
    pub fn sample_params<R: Rng + ?Sized>(&self, rng: &mut R, unit_count: usize) -> (usize, usize) {
        let dp = self.sample_dp(rng).min(unit_count.max(1));
        let bias = self.sample_bias(rng, dp);
        (dp, bias)
    }
}

/// Builder for [`ApproxDropoutLayer`]: runs Algorithm 1 for a target rate and
/// layer size and packages the result with a sampler.
///
/// # Example
///
/// ```
/// use approx_dropout::{ApproxDropoutBuilder, DropoutRate, PatternKind};
///
/// # fn main() -> Result<(), approx_dropout::DropoutError> {
/// let layer = ApproxDropoutBuilder::new(DropoutRate::new(0.5)?, PatternKind::Row)
///     .max_dp(16)
///     .build()?;
/// assert!((layer.target_rate().value() - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApproxDropoutBuilder {
    rate: DropoutRate,
    kind: PatternKind,
    max_dp: usize,
    tile: usize,
}

impl ApproxDropoutBuilder {
    /// Starts a builder for the given target rate and pattern family.
    pub fn new(rate: DropoutRate, kind: PatternKind) -> Self {
        Self {
            rate,
            kind,
            max_dp: 16,
            tile: DEFAULT_TILE_SIZE,
        }
    }

    /// Sets the maximum pattern period `N` explored by Algorithm 1.
    pub fn max_dp(mut self, max_dp: usize) -> Self {
        self.max_dp = max_dp;
        self
    }

    /// Sets the tile edge length for tile patterns.
    pub fn tile_size(mut self, tile: usize) -> Self {
        self.tile = tile;
        self
    }

    /// Runs Algorithm 1 and builds the layer.
    ///
    /// # Errors
    ///
    /// Propagates [`DropoutError`] from the search (invalid configuration or
    /// `max_dp` outside `1..=`[`crate::search::MAX_DP`]) or from tile
    /// validation.
    pub fn build(self) -> Result<ApproxDropoutLayer, DropoutError> {
        if self.tile == 0 {
            return Err(DropoutError::InvalidPattern(
                "tile size must be positive".into(),
            ));
        }
        let distribution = sgd_search(self.rate, self.max_dp, &SearchConfig::default())?;
        let sampler = PatternSampler::new(distribution, self.kind).with_tile_size(self.tile);
        Ok(ApproxDropoutLayer {
            rate: self.rate,
            sampler,
            iterations: 0,
            dropped_unit_sum: 0.0,
        })
    }
}

/// Per-layer approximate-dropout state: the searched distribution, a sampler,
/// and running statistics about the patterns that were actually applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxDropoutLayer {
    rate: DropoutRate,
    sampler: PatternSampler,
    iterations: u64,
    dropped_unit_sum: f64,
}

impl ApproxDropoutLayer {
    /// The target dropout rate the distribution was searched for.
    pub fn target_rate(&self) -> DropoutRate {
        self.rate
    }

    /// The sampler (and through it the distribution) used by the layer.
    pub fn sampler(&self) -> &PatternSampler {
        &self.sampler
    }

    /// Number of iterations sampled so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Mean realised global dropout rate over the sampled iterations.
    pub fn mean_realized_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.dropped_unit_sum / self.iterations as f64
        }
    }
}

impl DropoutScheme for ApproxDropoutLayer {
    /// The paper's approximate random dropout: sample `(dp, bias)` from the
    /// distribution found by Algorithm 1, resolve the pattern against the
    /// layer, and record the plan's realised drop fraction.
    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        match self.sampler.kind {
            PatternKind::Row => {
                let (dp, bias) = self.sampler.sample_params(rng, shape.out_features);
                let pattern =
                    RowPattern::new(dp, bias).expect("dp >= 1 and bias < dp by construction");
                out.reset_row(shape, pattern);
            }
            PatternKind::Tile => {
                let tile = self.sampler.tile;
                let grid = TileGrid::new(shape.in_features, shape.out_features, tile)
                    .expect("tile size validated at construction");
                let (dp, bias) = self.sampler.sample_params(rng, grid.total_tiles());
                let pattern = TilePattern::new(dp, bias, tile)
                    .expect("dp >= 1, bias < dp and tile > 0 by construction");
                out.reset_tile(shape, pattern, grid);
            }
        }
        self.iterations += 1;
        self.dropped_unit_sum += out.realized_drop_fraction();
    }

    fn nominal_rate(&self) -> f64 {
        self.rate.value()
    }

    fn label(&self) -> &'static str {
        match self.sampler.kind {
            PatternKind::Row => "row",
            PatternKind::Tile => "tile",
        }
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler_for(probs: Vec<f64>, kind: PatternKind) -> PatternSampler {
        PatternSampler::new(PatternDistribution::new(probs).unwrap(), kind)
    }

    #[test]
    fn sample_dp_respects_point_mass() {
        let s = sampler_for(vec![0.0, 0.0, 1.0], PatternKind::Row);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(s.sample_dp(&mut rng), 3);
        }
    }

    #[test]
    fn sample_dp_frequencies_match_distribution() {
        let s = sampler_for(vec![0.25, 0.75], PatternKind::Row);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 40_000;
        let mut count_dp2 = 0;
        for _ in 0..trials {
            if s.sample_dp(&mut rng) == 2 {
                count_dp2 += 1;
            }
        }
        let freq = count_dp2 as f64 / trials as f64;
        assert!((freq - 0.75).abs() < 0.02, "frequency {freq}");
    }

    #[test]
    fn sample_bias_is_uniform_over_dp() {
        let s = sampler_for(vec![1.0], PatternKind::Row);
        let mut rng = StdRng::seed_from_u64(2);
        let dp = 4;
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[s.sample_bias(&mut rng, dp)] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / 20_000.0;
            assert!((freq - 0.25).abs() < 0.02, "bias frequency {freq}");
        }
        assert_eq!(s.sample_bias(&mut rng, 1), 0);
    }

    #[test]
    fn sample_clamps_dp_to_unit_count() {
        let s = sampler_for(
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            PatternKind::Row,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let (dp, bias) = s.sample_params(&mut rng, 3);
        assert!(dp <= 3);
        assert!(bias < dp, "at least one unit survives");
    }

    fn layer_for(probs: Vec<f64>, kind: PatternKind, tile: usize) -> ApproxDropoutLayer {
        ApproxDropoutLayer {
            rate: DropoutRate::new(0.5).unwrap(),
            sampler: sampler_for(probs, kind).with_tile_size(tile),
            iterations: 0,
            dropped_unit_sum: 0.0,
        }
    }

    #[test]
    fn row_sample_has_row_kind_and_tile_sample_has_tile_kind() {
        let mut rng = StdRng::seed_from_u64(4);
        let shape = LayerShape::new(64, 64);
        let row = layer_for(vec![0.5, 0.5], PatternKind::Row, 16).plan(&mut rng, shape);
        assert!(row.compact_rows().is_some());
        assert!(row.kept_tiles().is_none());
        let tile = layer_for(vec![0.5, 0.5], PatternKind::Tile, 16).plan(&mut rng, shape);
        assert!(tile.compact_rows().is_none());
        let (_, grid) = tile.kept_tiles().unwrap();
        assert_eq!(grid.tile(), 16);
    }

    #[test]
    fn sample_for_grid_requires_tile_kind() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = LayerShape::new(64, 64);
        // Only a tile-kind layer resolves its draw against a tile grid.
        let row = layer_for(vec![1.0], PatternKind::Row, 32).plan(&mut rng, shape);
        assert!(row.kept_tiles().is_none());
        // A point mass on dp = 2 resolves against the layer's full grid of
        // 32×32 tiles: half of its 4 tiles survive.
        let tile = layer_for(vec![0.0, 1.0], PatternKind::Tile, 32).plan(&mut rng, shape);
        let (kept, grid) = tile.kept_tiles().unwrap();
        assert_eq!(grid.total_tiles(), 4);
        assert_eq!(kept.len(), 2);
        assert_eq!(tile.scale(), 2.0);
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn with_tile_size_rejects_zero() {
        let _ = sampler_for(vec![1.0], PatternKind::Tile).with_tile_size(0);
    }

    #[test]
    fn builder_produces_layer_matching_rate() {
        let mut layer = ApproxDropoutBuilder::new(DropoutRate::new(0.5).unwrap(), PatternKind::Row)
            .max_dp(16)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut plan = DropoutPlan::default();
        for _ in 0..2_000 {
            layer.plan_into(&mut rng, LayerShape::vector(256), &mut plan);
        }
        let realized = layer.mean_realized_rate();
        assert!(
            (realized - 0.5).abs() < 0.05,
            "mean realised rate {realized}"
        );
        assert_eq!(layer.iterations(), 2_000);
        assert_eq!(layer.sampler().kind(), PatternKind::Row);
    }

    #[test]
    fn builder_rejects_zero_tile() {
        let res = ApproxDropoutBuilder::new(DropoutRate::new(0.5).unwrap(), PatternKind::Tile)
            .tile_size(0)
            .build();
        assert!(res.is_err());
    }

    #[test]
    fn fresh_layer_reports_zero_statistics() {
        let layer = ApproxDropoutBuilder::new(DropoutRate::new(0.3).unwrap(), PatternKind::Row)
            .build()
            .unwrap();
        assert_eq!(layer.iterations(), 0);
        assert_eq!(layer.mean_realized_rate(), 0.0);
        assert!((layer.target_rate().value() - 0.3).abs() < 1e-12);
    }
}
