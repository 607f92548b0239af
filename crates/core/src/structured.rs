//! Structured-sparsity dropout schemes: N:M fine-grained sparsity and
//! block-structured unit dropout.
//!
//! The paper's RDP/TDP patterns are two points in a larger space of
//! GPGPU-friendly structured sparsity. This module adds two more, both from
//! follow-up work, behind the same plan–execute API:
//!
//! * [`NmSparsity`] — N:M fine-grained sparsity (Song et al.,
//!   arXiv:2203.05705): in every group of `m` consecutive output neurons,
//!   exactly `n` survive each iteration, sampled uniformly without
//!   replacement. The kept fraction is the *constant* `n/m`, so the GEMM
//!   shrinks deterministically while the surviving lane set still varies
//!   per group per iteration (many distinct sub-models, like TDP).
//! * [`BlockUnit`] — structured unit dropout (SDropout, arXiv:2411.01238):
//!   output neurons are grouped into contiguous blocks of `block` units and
//!   whole blocks are dropped with an independent Bernoulli draw, so the
//!   surviving columns form contiguous runs a GPU kernel can fetch as
//!   coalesced strips (the CPU executor packs them like any kept columns).
//!
//! Both schemes drop whole output neurons (like RDP), so they shrink the
//! next layer's input as well, and both resolve to a [`DropoutPlan`] whose
//! [`crate::KernelSchedule`] ([`crate::KernelSchedule::NmCompact`] /
//! [`crate::KernelSchedule::BlockCompact`]) the `gpu_sim` timing model
//! prices from the same sampled decision the CPU passes execute.

use crate::error::DropoutError;
use crate::plan::{DropoutPlan, LayerShape};
use crate::rate::DropoutRate;
use crate::scheme::DropoutScheme;
use rand::{Rng, RngCore};

/// Which structured-sparsity family a [`StructuredUnits`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructuredKind {
    /// N:M fine-grained sparsity: `kept` holds *neuron* indices, exactly
    /// `n` per complete group of `m` consecutive neurons.
    Nm {
        /// Kept lanes per group.
        n: usize,
        /// Group size.
        m: usize,
    },
    /// Block-structured unit dropout: `kept` holds *block* indices over a
    /// grid of `total` contiguous blocks of `block` neurons each.
    Block {
        /// Block width in neurons.
        block: usize,
        /// Total blocks the layer's outputs split into.
        total: usize,
    },
}

/// The resolved structured decision of one iteration: which units (neurons
/// or blocks) survive, against how many output neurons.
///
/// Like [`crate::SampledPattern`], this doubles as a reusable buffer: the
/// `resolve_*` methods recycle the kept-index vector across iterations.
#[derive(Debug, PartialEq)]
pub struct StructuredUnits {
    kind: StructuredKind,
    /// Output neurons the decision was resolved against.
    unit_count: usize,
    /// Kept neuron indices (N:M) or kept block indices (block dropout),
    /// ascending.
    kept: Vec<usize>,
}

impl Clone for StructuredUnits {
    fn clone(&self) -> Self {
        Self {
            kind: self.kind,
            unit_count: self.unit_count,
            kept: self.kept.clone(),
        }
    }

    /// Reuses the existing kept-index buffer whenever capacity suffices.
    fn clone_from(&mut self, source: &Self) {
        self.kind = source.kind;
        self.unit_count = source.unit_count;
        self.kept.clone_from(&source.kept);
    }
}

impl StructuredUnits {
    /// An empty placeholder decision; a recyclable buffer for `resolve_*`.
    pub fn empty() -> Self {
        Self {
            kind: StructuredKind::Nm { n: 1, m: 1 },
            unit_count: 0,
            kept: Vec::new(),
        }
    }

    /// Re-resolves this buffer as an N:M decision over `out_features`
    /// neurons; `fill` receives the cleared kept-index vector and must push
    /// the kept neuron indices in ascending order.
    pub fn resolve_nm(
        &mut self,
        n: usize,
        m: usize,
        out_features: usize,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        self.kind = StructuredKind::Nm { n, m };
        self.unit_count = out_features;
        self.kept.clear();
        fill(&mut self.kept);
        debug_assert!(
            self.kept.windows(2).all(|w| w[0] < w[1]),
            "kept lanes must be ascending"
        );
        debug_assert!(
            self.kept.iter().all(|&j| j < out_features),
            "kept lane out of bounds"
        );
    }

    /// Re-resolves this buffer as a block decision over
    /// `out_features.div_ceil(block)` blocks; `fill` receives the cleared
    /// kept-index vector and must push kept *block* indices ascending.
    pub fn resolve_block(
        &mut self,
        block: usize,
        out_features: usize,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        let total = out_features.div_ceil(block.max(1));
        self.kind = StructuredKind::Block { block, total };
        self.unit_count = out_features;
        self.kept.clear();
        fill(&mut self.kept);
        debug_assert!(
            self.kept.windows(2).all(|w| w[0] < w[1]),
            "kept blocks must be ascending"
        );
        debug_assert!(
            self.kept.iter().all(|&b| b < total),
            "kept block out of bounds"
        );
    }

    /// The family and its parameters.
    pub fn kind(&self) -> StructuredKind {
        self.kind
    }

    /// Output neurons the decision was resolved against.
    pub fn unit_count(&self) -> usize {
        self.unit_count
    }

    /// Kept unit indices (neurons for N:M, blocks for block dropout),
    /// ascending.
    pub fn kept_indices(&self) -> &[usize] {
        &self.kept
    }

    /// Number of output *neurons* that survive the decision.
    pub fn kept_neuron_count(&self) -> usize {
        match self.kind {
            StructuredKind::Nm { .. } => self.kept.len(),
            StructuredKind::Block { block, .. } => self
                .kept
                .iter()
                .map(|&b| {
                    let start = b * block;
                    (start + block).min(self.unit_count).saturating_sub(start)
                })
                .sum(),
        }
    }

    /// Fraction of output neurons that survive.
    pub fn active_fraction(&self) -> f64 {
        if self.unit_count == 0 {
            return 1.0;
        }
        self.kept_neuron_count() as f64 / self.unit_count as f64
    }

    /// Appends the kept neuron indices to `out` (expanding blocks).
    pub fn extend_kept_neurons(&self, out: &mut Vec<usize>) {
        match self.kind {
            StructuredKind::Nm { .. } => out.extend_from_slice(&self.kept),
            StructuredKind::Block { block, .. } => {
                for &b in &self.kept {
                    let start = b * block;
                    out.extend(start..(start + block).min(self.unit_count));
                }
            }
        }
    }
}

/// N:M fine-grained structured sparsity as a dropout scheme: each iteration
/// keeps exactly `n` uniformly chosen lanes in every group of `m`
/// consecutive output neurons (a ragged tail group keeps
/// `min(n, tail_size)` of its lanes).
///
/// The nominal dropout rate is the constant `1 − n/m` and kept activations
/// are scaled by `m/n` (inverted dropout), so a 2:4 scheme is the
/// structured analogue of rate-0.5 dropout.
#[derive(Debug, Clone)]
pub struct NmSparsity {
    n: usize,
    m: usize,
    /// Fisher–Yates scratch (one group's lane offsets), recycled across
    /// iterations so planning stays allocation-free once warmed.
    scratch: Vec<usize>,
}

impl PartialEq for NmSparsity {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.m == other.m
    }
}

impl NmSparsity {
    /// Creates an `n`-of-`m` scheme.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] if `n == 0`, `m == 0` or
    /// `n > m`.
    pub fn new(n: usize, m: usize) -> Result<Self, DropoutError> {
        if n == 0 || m == 0 {
            return Err(DropoutError::InvalidPattern(
                "N:M sparsity needs n >= 1 and m >= 1".into(),
            ));
        }
        if n > m {
            return Err(DropoutError::InvalidPattern(format!(
                "cannot keep {n} lanes out of a group of {m}"
            )));
        }
        Ok(Self {
            n,
            m,
            scratch: Vec::new(),
        })
    }

    /// Kept lanes per group.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Group size.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inverted-dropout multiplier for kept lanes, `m/n`.
    pub fn inverted_scale(&self) -> f32 {
        self.m as f32 / self.n as f32
    }

    /// Samples the kept neuron indices for a layer with `out_features`
    /// outputs into `kept` (cleared first, ascending): a partial
    /// Fisher–Yates shuffle per group draws `n` distinct lanes.
    pub fn sample_kept(
        &mut self,
        rng: &mut dyn RngCore,
        out_features: usize,
        kept: &mut Vec<usize>,
    ) {
        kept.clear();
        let mut start = 0;
        while start < out_features {
            let size = self.m.min(out_features - start);
            let take = self.n.min(size);
            self.scratch.clear();
            self.scratch.extend(0..size);
            for i in 0..take {
                let j = rng.gen_range(i..size);
                self.scratch.swap(i, j);
            }
            let chosen = &mut self.scratch[..take];
            chosen.sort_unstable();
            kept.extend(chosen.iter().map(|&o| start + o));
            start += size;
        }
    }
}

impl DropoutScheme for NmSparsity {
    fn plan(&mut self, rng: &mut dyn RngCore, shape: LayerShape) -> DropoutPlan {
        let mut kept = Vec::new();
        self.sample_kept(rng, shape.out_features, &mut kept);
        DropoutPlan::nm(shape, self.n, self.m, kept)
    }

    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let (n, m) = (self.n, self.m);
        let out_features = shape.out_features;
        out.reset_nm_with(shape, n, m, |kept| {
            self.sample_kept(rng, out_features, kept);
        });
    }

    fn nominal_rate(&self) -> f64 {
        1.0 - self.n as f64 / self.m as f64
    }

    fn label(&self) -> &'static str {
        "nm"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(self.clone())
    }
}

/// Block-structured unit dropout (SDropout-style): contiguous blocks of
/// `block` output neurons are dropped with an independent Bernoulli draw at
/// the configured rate; if every draw drops, one uniformly chosen block is
/// kept so the layer never goes fully dark.
///
/// Kept activations carry the conventional inverted-dropout scale
/// `1/(1−rate)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockUnit {
    rate: DropoutRate,
    block: usize,
}

impl BlockUnit {
    /// Creates a block-unit scheme dropping `block`-wide neuron blocks at
    /// the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`DropoutError::InvalidPattern`] if `block == 0`.
    pub fn new(rate: DropoutRate, block: usize) -> Result<Self, DropoutError> {
        if block == 0 {
            return Err(DropoutError::InvalidPattern(
                "block width must be at least 1".into(),
            ));
        }
        Ok(Self { rate, block })
    }

    /// Block width in neurons.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Configured drop rate.
    pub fn rate(&self) -> DropoutRate {
        self.rate
    }

    /// Samples the kept block indices over `total_blocks` blocks into
    /// `kept` (cleared first, ascending).
    pub fn sample_kept_blocks(
        &self,
        rng: &mut dyn RngCore,
        total_blocks: usize,
        kept: &mut Vec<usize>,
    ) {
        kept.clear();
        let keep_p = 1.0 - self.rate.value();
        for b in 0..total_blocks {
            if rng.gen_bool(keep_p) {
                kept.push(b);
            }
        }
        if kept.is_empty() && total_blocks > 0 {
            kept.push(rng.gen_range(0..total_blocks));
        }
    }
}

impl DropoutScheme for BlockUnit {
    fn plan(&mut self, rng: &mut dyn RngCore, shape: LayerShape) -> DropoutPlan {
        let total = shape.out_features.div_ceil(self.block);
        let mut kept = Vec::new();
        self.sample_kept_blocks(rng, total, &mut kept);
        DropoutPlan::block_unit(
            shape,
            self.block,
            kept,
            self.rate.inverted_scale() as f32,
            self.rate.value(),
        )
    }

    fn plan_into(&mut self, rng: &mut dyn RngCore, shape: LayerShape, out: &mut DropoutPlan) {
        let total = shape.out_features.div_ceil(self.block);
        out.reset_block_unit_with(
            shape,
            self.block,
            self.rate.inverted_scale() as f32,
            self.rate.value(),
            |kept| self.sample_kept_blocks(rng, total, kept),
        );
    }

    fn nominal_rate(&self) -> f64 {
        self.rate.value()
    }

    fn label(&self) -> &'static str {
        "block"
    }

    fn clone_box(&self) -> Box<dyn DropoutScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nm_rejects_bad_parameters() {
        assert!(NmSparsity::new(0, 4).is_err());
        assert!(NmSparsity::new(4, 0).is_err());
        assert!(NmSparsity::new(5, 4).is_err());
        assert!(NmSparsity::new(2, 4).is_ok());
        assert!(NmSparsity::new(4, 4).is_ok());
    }

    #[test]
    fn nm_keeps_exactly_n_per_group() {
        let mut scheme = NmSparsity::new(2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut kept = Vec::new();
        for _ in 0..50 {
            scheme.sample_kept(&mut rng, 32, &mut kept);
            assert_eq!(kept.len(), 16);
            for g in 0..8 {
                let in_group = kept
                    .iter()
                    .filter(|&&j| j >= g * 4 && j < (g + 1) * 4)
                    .count();
                assert_eq!(in_group, 2, "group {g} kept {in_group} lanes");
            }
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "ascending");
        }
    }

    #[test]
    fn nm_handles_ragged_tail_group() {
        let mut scheme = NmSparsity::new(3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut kept = Vec::new();
        // 10 = 2 full groups of 4 + a tail of 2: the tail keeps min(3, 2).
        scheme.sample_kept(&mut rng, 10, &mut kept);
        assert_eq!(kept.len(), 3 + 3 + 2);
        assert!(kept.iter().all(|&j| j < 10));
    }

    #[test]
    fn nm_lane_choice_varies_across_iterations() {
        let mut scheme = NmSparsity::new(1, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        let mut kept = Vec::new();
        for _ in 0..40 {
            scheme.sample_kept(&mut rng, 16, &mut kept);
            seen.insert(kept.clone());
        }
        assert!(seen.len() > 5, "only {} distinct lane sets", seen.len());
    }

    #[test]
    fn nm_plan_carries_schedule_scale_and_fraction() {
        let mut scheme = NmSparsity::new(2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let plan = scheme.plan(&mut rng, LayerShape::new(16, 32));
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::NmCompact { n: 2, m: 4 }
        );
        assert_eq!(plan.scale(), 2.0);
        assert!((plan.realized_drop_fraction() - 0.5).abs() < 1e-12);
        assert!((plan.active_output_fraction() - 0.5).abs() < 1e-12);
        assert!((scheme.nominal_rate() - 0.5).abs() < 1e-12);
        let (kept, n, m) = plan.nm_lanes().unwrap();
        assert_eq!((n, m), (2, 4));
        assert_eq!(kept.len(), 16);
    }

    #[test]
    fn block_rejects_zero_block() {
        assert!(BlockUnit::new(DropoutRate::new(0.5).unwrap(), 0).is_err());
    }

    #[test]
    fn block_tracks_nominal_rate_on_average() {
        let mut scheme = BlockUnit::new(DropoutRate::new(0.5).unwrap(), 8).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut acc = 0.0;
        let iters = 2_000;
        for _ in 0..iters {
            let plan = scheme.plan(&mut rng, LayerShape::new(64, 256));
            acc += plan.realized_drop_fraction();
        }
        let mean = acc / iters as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean realized {mean}");
    }

    #[test]
    fn block_never_drops_every_block() {
        // Rate close to 1: without the guard the layer would regularly go
        // fully dark.
        let mut scheme = BlockUnit::new(DropoutRate::new(0.99).unwrap(), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let plan = scheme.plan(&mut rng, LayerShape::new(8, 16));
            let (kept, _, _) = plan.kept_unit_blocks().unwrap();
            assert!(!kept.is_empty());
        }
    }

    #[test]
    fn block_plan_covers_ragged_last_block() {
        let mut scheme = BlockUnit::new(DropoutRate::new(0.0).unwrap(), 8).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        // 20 outputs with block 8: blocks cover 8 + 8 + 4 neurons.
        let plan = scheme.plan(&mut rng, LayerShape::new(4, 20));
        let (kept, block, total) = plan.kept_unit_blocks().unwrap();
        assert_eq!(block, 8);
        assert_eq!(total, 3);
        assert_eq!(kept, &[0, 1, 2]);
        assert_eq!(plan.active_output_fraction(), 1.0);
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::BlockCompact {
                kept: 3,
                total: 3,
                block: 8
            }
        );
        // Whole heads only when the blocks are exactly the heads.
        assert_eq!(plan.kept_heads(8, 3), Some(&[0, 1, 2][..]));
        assert_eq!(plan.kept_heads(4, 3), None, "block != head_dim");
        assert_eq!(plan.kept_heads(8, 4), None, "total != heads");
        let nm = NmSparsity::new(2, 4)
            .unwrap()
            .plan(&mut rng, LayerShape::new(4, 24));
        assert_eq!(nm.kept_heads(8, 3), None, "N:M lanes are not heads");
        let row = DropoutPlan::row(
            LayerShape::new(4, 24),
            crate::SampledPattern::from_row(crate::RowPattern::new(2, 0).unwrap(), 24),
        );
        assert_eq!(row.kept_heads(8, 3), None, "rows are not heads");
    }

    #[test]
    fn structured_units_recycle_their_buffer() {
        let mut units = StructuredUnits::empty();
        units.resolve_nm(2, 4, 16, |kept| kept.extend([0, 1, 4, 5, 8, 9, 12, 13]));
        let ptr = units.kept_indices().as_ptr();
        units.resolve_nm(2, 4, 16, |kept| kept.extend([2, 3, 6, 7, 10, 11, 14, 15]));
        assert_eq!(ptr, units.kept_indices().as_ptr());
        assert_eq!(units.kept_neuron_count(), 8);
    }

    #[test]
    fn block_units_count_clipped_neurons() {
        let mut units = StructuredUnits::empty();
        units.resolve_block(8, 20, |kept| kept.extend([0, 2]));
        // Block 0 covers 8 neurons, block 2 only the ragged 4.
        assert_eq!(units.kept_neuron_count(), 12);
        let mut neurons = Vec::new();
        units.extend_kept_neurons(&mut neurons);
        assert_eq!(neurons, (0..8).chain(16..20).collect::<Vec<_>>());
    }
}
