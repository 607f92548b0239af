//! Per-iteration dropout-pattern generation (paper §III-D).
//!
//! In every training iteration one pattern period `dp` is sampled from the
//! distribution `K` produced by Algorithm 1, a bias `b` is drawn uniformly
//! from `{0, …, dp − 1}`, and the resulting regular pattern is applied to the
//! whole batch. Over the course of training each neuron/synapse is therefore
//! dropped with probability `Σ k_dp (dp − 1)/dp ≈ p`, while every single
//! iteration still uses a GPU-friendly regular pattern.

use crate::error::DropoutError;
use crate::pattern::{PatternKind, RowPattern, SampledPattern, TileGrid, TilePattern};
use crate::rate::DropoutRate;
use crate::search::{sgd_search, PatternDistribution, SearchConfig};
use crate::DEFAULT_TILE_SIZE;
use rand::Rng;

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
/// let pattern = sampler.sample(&mut rng, 100);
/// assert!(pattern.dp() == 1 || pattern.dp() == 2);
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

    /// Draws the `(dp, bias)` pair for one iteration, with the period clamped
    /// to `unit_count` so that at least one unit always survives. Exactly the
    /// two RNG draws [`PatternSampler::sample`] makes, exposed separately so
    /// allocation-free planning ([`crate::DropoutScheme::plan_into`]) stays
    /// draw-for-draw identical to the allocating path.
    pub fn sample_params<R: Rng + ?Sized>(&self, rng: &mut R, unit_count: usize) -> (usize, usize) {
        let dp = self.sample_dp(rng).min(unit_count.max(1));
        let bias = self.sample_bias(rng, dp);
        (dp, bias)
    }

    /// Samples a concrete pattern for one iteration, resolved against
    /// `unit_count` droppable units (output neurons for row patterns, total
    /// tiles for tile patterns).
    ///
    /// The sampled period is clamped to `unit_count` so that at least one
    /// unit always survives.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, unit_count: usize) -> SampledPattern {
        let (dp, bias) = self.sample_params(rng, unit_count);
        match self.kind {
            PatternKind::Row => {
                let pattern =
                    RowPattern::new(dp, bias).expect("dp >= 1 and bias < dp by construction");
                SampledPattern::from_row(pattern, unit_count)
            }
            PatternKind::Tile => {
                let pattern = TilePattern::new(dp, bias, self.tile)
                    .expect("dp >= 1, bias < dp and tile > 0 by construction");
                SampledPattern::from_tile_units(pattern, unit_count)
            }
        }
    }

    /// Samples a concrete tile pattern resolved against a full tile grid.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] if the sampler was built for
    /// row patterns.
    pub fn sample_for_grid<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        grid: &TileGrid,
    ) -> Result<SampledPattern, DropoutError> {
        if self.kind != PatternKind::Tile {
            return Err(DropoutError::InvalidPattern(
                "sample_for_grid requires a tile-pattern sampler".into(),
            ));
        }
        let dp = self.sample_dp(rng).min(grid.total_tiles().max(1));
        let bias = self.sample_bias(rng, dp);
        let pattern = TilePattern::new(dp, bias, grid.tile())?;
        Ok(SampledPattern::from_tile(pattern, grid))
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
    search: SearchConfig,
}

impl ApproxDropoutBuilder {
    /// Starts a builder for the given target rate and pattern family.
    pub fn new(rate: DropoutRate, kind: PatternKind) -> Self {
        Self {
            rate,
            kind,
            max_dp: 16,
            tile: DEFAULT_TILE_SIZE,
            search: SearchConfig::default(),
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

    /// Overrides the search hyper-parameters.
    pub fn search_config(mut self, config: SearchConfig) -> Self {
        self.search = config;
        self
    }

    /// Runs Algorithm 1 and builds the layer.
    ///
    /// # Errors
    ///
    /// Propagates [`DropoutError`] from the search (invalid configuration or
    /// `max_dp == 0`) or from tile validation.
    pub fn build(self) -> Result<ApproxDropoutLayer, DropoutError> {
        if self.tile == 0 {
            return Err(DropoutError::InvalidPattern(
                "tile size must be positive".into(),
            ));
        }
        let distribution = sgd_search(self.rate, self.max_dp, &self.search)?;
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

    /// Samples the pattern for the next training iteration and updates the
    /// running statistics.
    pub fn next_pattern<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        unit_count: usize,
    ) -> SampledPattern {
        let pattern = self.sampler.sample(rng, unit_count);
        self.record_resolved(pattern.realized_dropout_fraction());
        pattern
    }

    /// Draws the next iteration's row pattern without materialising its
    /// kept-index vector; statistics are updated exactly like
    /// [`ApproxDropoutLayer::next_pattern`] and the RNG draws are identical.
    pub fn next_row_pattern<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        unit_count: usize,
    ) -> RowPattern {
        let (dp, bias) = self.sampler.sample_params(rng, unit_count);
        let pattern = RowPattern::new(dp, bias).expect("dp >= 1 and bias < dp by construction");
        self.record_resolved(realized_fraction(dp, bias, unit_count));
        pattern
    }

    /// Draws the next iteration's tile pattern without materialising its
    /// kept-index vector; statistics are updated exactly like
    /// [`ApproxDropoutLayer::next_pattern`] and the RNG draws are identical.
    pub fn next_tile_pattern<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        total_tiles: usize,
    ) -> TilePattern {
        let (dp, bias) = self.sampler.sample_params(rng, total_tiles);
        let pattern = TilePattern::new(dp, bias, self.sampler.tile_size())
            .expect("dp >= 1, bias < dp and tile > 0 by construction");
        self.record_resolved(realized_fraction(dp, bias, total_tiles));
        pattern
    }

    fn record_resolved(&mut self, realized_dropout_fraction: f64) {
        self.iterations += 1;
        self.dropped_unit_sum += realized_dropout_fraction;
    }
}

/// Realised dropout fraction of a `(dp, bias)` pattern over `unit_count`
/// units, computed without materialising the kept-index list (mirrors
/// [`SampledPattern::realized_dropout_fraction`]).
fn realized_fraction(dp: usize, bias: usize, unit_count: usize) -> f64 {
    if unit_count == 0 {
        return 0.0;
    }
    let kept = if unit_count > bias {
        (unit_count - bias).div_ceil(dp)
    } else {
        0
    };
    1.0 - kept as f64 / unit_count as f64
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
        let p = s.sample(&mut rng, 3);
        assert!(p.dp() <= 3);
        assert!(!p.kept_indices().is_empty());
    }

    #[test]
    fn row_sample_has_row_kind_and_tile_sample_has_tile_kind() {
        let mut rng = StdRng::seed_from_u64(4);
        let row = sampler_for(vec![0.5, 0.5], PatternKind::Row).sample(&mut rng, 64);
        assert_eq!(row.kind(), PatternKind::Row);
        let tile = sampler_for(vec![0.5, 0.5], PatternKind::Tile)
            .with_tile_size(16)
            .sample(&mut rng, 64);
        assert_eq!(tile.kind(), PatternKind::Tile);
        assert_eq!(tile.tile(), 16);
    }

    #[test]
    fn sample_for_grid_requires_tile_kind() {
        let mut rng = StdRng::seed_from_u64(5);
        let grid = TileGrid::new(64, 64, 32).unwrap();
        let row_sampler = sampler_for(vec![1.0], PatternKind::Row);
        assert!(row_sampler.sample_for_grid(&mut rng, &grid).is_err());
        let tile_sampler = sampler_for(vec![0.0, 1.0], PatternKind::Tile);
        let p = tile_sampler.sample_for_grid(&mut rng, &grid).unwrap();
        assert_eq!(p.unit_count(), 4);
        assert_eq!(p.dp(), 2);
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
        for _ in 0..2_000 {
            let _ = layer.next_pattern(&mut rng, 256);
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
