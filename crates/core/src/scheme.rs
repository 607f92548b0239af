//! The *scheme* half of the plan–execute dropout API.
//!
//! A [`DropoutScheme`] is a per-layer dropout policy: at the start of every
//! training iteration it samples a concrete [`DropoutPlan`] for the layer's
//! [`LayerShape`]. The scheme owns whatever per-layer state the policy needs
//! (a target rate, a searched pattern distribution, running statistics) and
//! the plan is the immutable, fully resolved decision both the training
//! passes and the GPU timing model execute against.
//!
//! Implementations provided here:
//!
//! * [`NoDropout`] — the identity scheme.
//! * [`RowPattern`] / [`TilePattern`] — a *fixed* regular pattern as a
//!   degenerate scheme (the "fixed pattern" ablation baseline).
//! * [`crate::Bernoulli`] / [`crate::DivergentBernoulli`] — the conventional
//!   per-neuron mask baseline (paper Fig. 1(a)) and its naive in-kernel
//!   skip (Fig. 1(b)), implemented in [`crate::bernoulli`] and boxed here
//!   by [`bernoulli`] / [`divergent_bernoulli`].
//! * [`crate::ApproxDropoutLayer`] — the paper's contribution:
//!   per-iteration `(dp, bias)` sampling from the distribution found by
//!   Algorithm 1, implemented in [`crate::sampler`].
//! * [`crate::NmSparsity`] / [`crate::BlockUnit`] — the structured-sparsity
//!   family from follow-up work (N:M fine-grained sparsity, arXiv:2203.05705,
//!   and SDropout's structured unit dropout, arXiv:2411.01238), implemented
//!   in [`crate::structured`] and boxed here by [`nm`] / [`block_unit`].
//!
//! Adding a new pattern family is one [`DropoutScheme::plan_into`]
//! implementation plus, when the family implies a new kernel shape, one
//! [`crate::KernelSchedule`] variant and a `DropoutPlan` family tag with a
//! `reset_*` method that fills the plan's kept buffer: the scheme samples the
//! plan, the plan carries the schedule, and every consumer (`nn` execution,
//! `gpu_sim` pricing) dispatches on the plan alone — no consumer ever
//! branches on the scheme type.

use crate::bernoulli::{Bernoulli, DivergentBernoulli};
use crate::error::DropoutError;
use crate::pattern::{PatternKind, RowPattern, TileGrid, TilePattern};
use crate::plan::{DropoutPlan, LayerShape};
use crate::rate::DropoutRate;
use crate::sampler::ApproxDropoutBuilder;
use rand::RngCore;

/// A per-layer dropout policy that plans each iteration's execution before
/// any kernel runs.
pub trait DropoutScheme: std::fmt::Debug + Send {
    /// Samples the next iteration's plan *into* an existing plan buffer
    /// through one of its `reset_*` methods, recycling its kept-index and
    /// mask allocations whatever family the buffer held before. This is the
    /// one sampling path every scheme implements.
    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan);

    /// Samples the concrete plan for one training iteration of a layer:
    /// [`DropoutScheme::plan_into`] into a fresh [`DropoutPlan::default`].
    fn plan(&mut self, rng: &mut dyn RngCore, shape: LayerShape) -> DropoutPlan {
        let mut out = DropoutPlan::default();
        self.plan_into(rng, shape, &mut out);
        out
    }

    /// Nominal (target) dropout rate of the scheme.
    fn nominal_rate(&self) -> f64;

    /// Short human-readable label used in reports.
    fn label(&self) -> &'static str;

    /// Clones the scheme behind a box (schemes are held as trait objects by
    /// the network types, which must stay `Clone`).
    fn clone_box(&self) -> Box<dyn DropoutScheme>;
}

impl Clone for Box<dyn DropoutScheme> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The identity scheme: every plan is a plain dense GEMM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoDropout;

impl DropoutScheme for NoDropout {
    fn plan_into(&mut self, _rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        out.reset_none(shape);
    }

    fn nominal_rate(&self) -> f64 {
        0.0
    }

    fn label(&self) -> &'static str {
        "none"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(*self)
    }
}

impl DropoutScheme for RowPattern {
    /// A fixed row pattern used as a scheme: the same `(dp, bias)` every
    /// iteration (the "fixed pattern" ablation baseline).
    fn plan_into(&mut self, _rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        out.reset_row(shape, *self);
    }

    fn nominal_rate(&self) -> f64 {
        use crate::pattern::DropoutPattern;
        self.global_dropout_rate()
    }

    fn label(&self) -> &'static str {
        "row-fixed"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(*self)
    }
}

impl DropoutScheme for TilePattern {
    /// A fixed tile pattern used as a scheme: the same `(dp, bias)` every
    /// iteration, resolved against the layer's weight grid.
    fn plan_into(&mut self, _rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let grid = TileGrid::new(shape.in_features, shape.out_features, self.tile())
            .expect("tile size validated at pattern construction");
        out.reset_tile(shape, *self, grid);
    }

    fn nominal_rate(&self) -> f64 {
        use crate::pattern::DropoutPattern;
        self.global_dropout_rate()
    }

    fn label(&self) -> &'static str {
        "tile-fixed"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(*self)
    }
}

/// Boxed identity scheme.
pub fn none() -> Box<dyn DropoutScheme> {
    Box::new(NoDropout)
}

/// Boxed conventional-dropout scheme.
pub fn bernoulli(rate: DropoutRate) -> Box<dyn DropoutScheme> {
    Box::new(Bernoulli::new(rate))
}

/// Boxed divergent-execution Bernoulli scheme (Fig. 1(b) baseline).
pub fn divergent_bernoulli(rate: DropoutRate) -> Box<dyn DropoutScheme> {
    Box::new(DivergentBernoulli::new(rate))
}

/// Default maximum pattern period explored by Algorithm 1 when none is
/// given.
pub const DEFAULT_MAX_DP: usize = 16;

/// Boxed row-pattern scheme: runs Algorithm 1 for `rate` with periods up to
/// `max_dp` and samples a fresh `(dp, bias)` each iteration.
///
/// # Errors
///
/// Propagates [`DropoutError`] from the search.
pub fn row(rate: DropoutRate, max_dp: usize) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(
        ApproxDropoutBuilder::new(rate, PatternKind::Row)
            .max_dp(max_dp)
            .build()?,
    ))
}

/// Boxed tile-pattern scheme with an explicit tile edge length.
///
/// # Errors
///
/// Propagates [`DropoutError`] from the search or tile validation.
pub fn tile(
    rate: DropoutRate,
    max_dp: usize,
    tile_size: usize,
) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(
        ApproxDropoutBuilder::new(rate, PatternKind::Tile)
            .max_dp(max_dp)
            .tile_size(tile_size)
            .build()?,
    ))
}

/// Boxed N:M structured-sparsity scheme: every iteration keeps exactly `n`
/// uniformly sampled lanes in each group of `m` consecutive output neurons.
///
/// # Errors
///
/// Propagates [`DropoutError`] from parameter validation.
pub fn nm(n: usize, m: usize) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(crate::structured::NmSparsity::new(n, m)?))
}

/// Boxed block-structured unit-dropout scheme: contiguous `block`-wide
/// neuron blocks are dropped with independent Bernoulli draws at `rate`.
///
/// # Errors
///
/// Propagates [`DropoutError`] from parameter validation.
pub fn block_unit(rate: DropoutRate, block: usize) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(crate::structured::BlockUnit::new(rate, block)?))
}

/// Boxed pure CRS-sampling scheme: every iteration keeps `round(keep · K)`
/// uniformly chosen inner-dimension indices of the layer's GEMM and the
/// kernel scales the product by `K/k` for unbiasedness. No neuron is
/// dropped — this approximates the GEMM itself.
///
/// # Errors
///
/// Propagates [`DropoutError`] from parameter validation.
pub fn crs(keep: f64) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(crate::crs::CrsSampling::new(keep)?))
}

/// Boxed composed row-dropout × CRS scheme: the row scheme (Algorithm 1 at
/// `rate` with periods up to `max_dp`) compacts the output dimension while
/// CRS samples `round(keep · K)` inner indices of the *same* kernel call, so
/// the two speedups multiply.
///
/// # Errors
///
/// Propagates [`DropoutError`] from the search or parameter validation.
pub fn row_crs(
    rate: DropoutRate,
    max_dp: usize,
    keep: f64,
) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(crate::crs::CrsSampling::composed(
        keep,
        row(rate, max_dp)?,
    )?))
}

/// Boxed pattern scheme of either family with the paper's defaults
/// (`max_dp = 16`, 32×32 tiles).
///
/// # Errors
///
/// Propagates [`DropoutError`] from the search.
pub fn pattern(
    rate: DropoutRate,
    kind: PatternKind,
) -> Result<Box<dyn DropoutScheme>, DropoutError> {
    Ok(Box::new(
        ApproxDropoutBuilder::new(rate, kind)
            .max_dp(DEFAULT_MAX_DP)
            .build()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_dropout_plans_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scheme = NoDropout;
        let plan = scheme.plan(&mut rng, LayerShape::new(8, 8));
        assert!(plan.is_identity());
        assert_eq!(scheme.nominal_rate(), 0.0);
    }

    #[test]
    fn bernoulli_scheme_masks_at_the_target_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut scheme = Bernoulli::new(DropoutRate::new(0.5).unwrap());
        let plan = scheme.plan(&mut rng, LayerShape::new(64, 1024));
        let dropped = plan.realized_drop_fraction();
        assert!((dropped - 0.5).abs() < 0.08, "dropped {dropped}");
        assert!((plan.scale() - 2.0).abs() < 1e-6);
        assert!(plan.kernel_schedule().needs_mask_kernel());
    }

    #[test]
    fn divergent_scheme_matches_bernoulli_numerics() {
        let mut a = Bernoulli::new(DropoutRate::new(0.3).unwrap());
        let mut b = DivergentBernoulli::new(DropoutRate::new(0.3).unwrap());
        let shape = LayerShape::new(16, 128);
        let plan_a = a.plan(&mut StdRng::seed_from_u64(9), shape);
        let plan_b = b.plan(&mut StdRng::seed_from_u64(9), shape);
        // Same RNG seed, same draws, same mask — only the schedule differs.
        assert_eq!(plan_a.bernoulli_mask(), plan_b.bernoulli_mask());
        assert_ne!(plan_a.kernel_schedule(), plan_b.kernel_schedule());
        assert!(!plan_b.kernel_schedule().needs_mask_kernel());
    }

    #[test]
    fn fixed_row_pattern_is_a_scheme() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut scheme = RowPattern::new(3, 1).unwrap();
        let plan = scheme.plan(&mut rng, LayerShape::vector(9));
        assert_eq!(plan.compact_rows().unwrap(), &[1, 4, 7]);
        assert!((scheme.nominal_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Fixed pattern: identical plan every iteration.
        let again = scheme.plan(&mut rng, LayerShape::vector(9));
        assert_eq!(plan, again);
    }

    #[test]
    fn fixed_tile_pattern_resolves_against_layer_grid() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut scheme = TilePattern::new(2, 0, 4).unwrap();
        let plan = scheme.plan(&mut rng, LayerShape::new(8, 8));
        let (kept, grid) = plan.kept_tiles().unwrap();
        assert_eq!(grid.total_tiles(), 4);
        assert_eq!(kept, &[0, 2]);
    }

    #[test]
    fn searched_row_scheme_tracks_target_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scheme = row(DropoutRate::new(0.5).unwrap(), 16).unwrap();
        assert_eq!(scheme.label(), "row");
        let mut acc = 0.0;
        let iters = 2_000;
        for _ in 0..iters {
            let plan = scheme.plan(&mut rng, LayerShape::vector(256));
            acc += plan.realized_drop_fraction();
        }
        let mean = acc / iters as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean realized rate {mean}");
    }

    #[test]
    fn searched_tile_scheme_produces_tile_plans() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut scheme = tile(DropoutRate::new(0.5).unwrap(), 8, 16).unwrap();
        assert_eq!(scheme.label(), "tile");
        let plan = scheme.plan(&mut rng, LayerShape::new(64, 64));
        let (_, grid) = plan.kept_tiles().unwrap();
        assert_eq!(grid.total_tiles(), 16);
    }

    #[test]
    fn boxed_schemes_clone_independently() {
        let mut original = row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
        let mut copy = original.clone();
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let plan_a = original.plan(&mut rng_a, LayerShape::vector(64));
        let plan_b = copy.plan(&mut rng_b, LayerShape::vector(64));
        assert_eq!(plan_a, plan_b);
    }

    #[test]
    fn pattern_helper_uses_paper_defaults() {
        let scheme = pattern(DropoutRate::new(0.3).unwrap(), PatternKind::Row).unwrap();
        assert!((scheme.nominal_rate() - 0.3).abs() < 1e-12);
    }
}
