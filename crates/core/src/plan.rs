//! The *plan* half of the plan–execute dropout API.
//!
//! The paper's central observation is that a regular dropout pattern is known
//! **before** the GEMM is launched, so the kernel can be planned around it:
//! compact operands, `1/dp` of the work, no mask kernel. [`DropoutPlan`]
//! captures exactly that pre-launch decision for one training iteration of
//! one layer. Every consumer — the CPU forward/backward passes in `nn` and
//! the GPU timing model in `gpu_sim` — reads the *same* plan object, so
//! training numerics and speedup figures can never drift apart.
//!
//! A plan is produced by [`crate::DropoutScheme::plan`]. It stores one
//! sampled output-side decision (nothing dropped, a Bernoulli mask, a row
//! pattern, a tile pattern, or N:M / block units) beside an optional CRS
//! inner-dimension selection, and every view below is derived from those
//! two:
//!
//! * [`DropoutPlan::compact_rows`] — kept output neurons for a row-compacted
//!   GEMM (`None` when the GEMM is dense),
//! * [`DropoutPlan::kept_tiles`] — kept weight tiles for a tile-compacted
//!   GEMM,
//! * [`DropoutPlan::bernoulli_mask`] / [`DropoutPlan::apply_mask`] — the
//!   post-GEMM Bernoulli mask of the conventional baseline,
//! * [`DropoutPlan::column_multiplier`] — the per-output-unit multiplier the
//!   LSTM applies between stacked layers,
//! * [`DropoutPlan::active_output_fraction`] — how much of the layer output
//!   the *next* layer still has to process,
//! * [`DropoutPlan::kernel_schedule`] — the kernel launches this plan implies
//!   on a GPU, consumed by the `gpu_sim` timing model.

use crate::pattern::{SampledPattern, TileGrid};
use crate::structured::{StructuredKind, StructuredUnits};
use tensor::Matrix;

/// Shape of the layer a plan is resolved against: the weight matrix is
/// `in_features × out_features` and dropout acts on the output units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerShape {
    /// Input width of the layer (rows of the weight matrix).
    pub in_features: usize,
    /// Output width of the layer (columns of the weight matrix; the units
    /// dropout acts on).
    pub out_features: usize,
}

impl LayerShape {
    /// Creates a shape for an `in_features × out_features` layer.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Self {
            in_features,
            out_features,
        }
    }

    /// Shape of a per-unit dropout site with no meaningful input width, as
    /// used for the inter-layer dropout of the LSTM (`1 × width`).
    pub fn vector(width: usize) -> Self {
        Self::new(1, width)
    }
}

/// Device-independent description of the kernel launches a [`DropoutPlan`]
/// implies for one layer's GEMMs — the contract between a sampled plan and
/// the `gpu_sim` timing model.
///
/// A schedule describes the GEMM only. Whether the layer's bias/activation
/// epilogue runs as its own elementwise kernel or inside the GEMM launch is
/// a property of the executor, which `gpu_sim::price_fc_schedule` takes as
/// a separate argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSchedule {
    /// Dense GEMM, no dropout kernels at all.
    Dense,
    /// Dense GEMM plus the mask-generation and mask-multiply kernels of the
    /// conventional baseline (paper Fig. 1(a)).
    DenseWithMask,
    /// Dense GEMM with naive `if (kept)` skipping inside the kernel (paper
    /// Fig. 1(b)): pays the SIMT divergence penalty and skips nothing.
    DenseDivergent {
        /// Dropout rate determining how many warps diverge.
        rate: f64,
    },
    /// Row-compacted GEMM over `kept` of `total` output neurons (RDP).
    RowCompact {
        /// Output neurons actually computed.
        kept: usize,
        /// Output neurons of the full layer.
        total: usize,
    },
    /// Tile-compacted GEMM over `kept` of `total` weight tiles (TDP).
    TileCompact {
        /// Weight tiles participating in the GEMM.
        kept: usize,
        /// Tiles in the full weight grid.
        total: usize,
    },
    /// Group-compacted GEMM under N:M fine-grained sparsity: exactly `n` of
    /// every `m` consecutive output lanes are computed, so the executed
    /// fraction is the constant `n/m`.
    NmCompact {
        /// Kept lanes per group.
        n: usize,
        /// Group size.
        m: usize,
    },
    /// Block-compacted GEMM under structured unit dropout: `kept` of `total`
    /// contiguous `block`-wide output-neuron blocks are computed as dense
    /// column strips.
    BlockCompact {
        /// Blocks participating in the GEMM.
        kept: usize,
        /// Blocks the layer's outputs split into.
        total: usize,
        /// Block width in neurons.
        block: usize,
    },
    /// Sampled GEMM under column-row sampling (CRS, arXiv:1805.08079): only
    /// `kept_k` of the `total_k` inner products are computed, the product is
    /// scaled by `K/k` for unbiasedness, and the output stays full-width
    /// dense — the compaction is on the *inner* dimension, orthogonal to
    /// every output-neuron dropout family above.
    CrsCompact {
        /// Inner-dimension indices actually multiplied.
        kept_k: usize,
        /// Inner dimension of the full GEMM.
        total_k: usize,
    },
    /// Composed row-dropout × CRS launch: the N dimension is compacted by a
    /// row dropout plan while the K dimension is sampled by CRS in the same
    /// kernel call, so the executed fraction is the *product* of both axes.
    RowCrsCompact {
        /// Output neurons actually computed.
        kept_n: usize,
        /// Output neurons of the full layer.
        total_n: usize,
        /// Inner-dimension indices actually multiplied.
        kept_k: usize,
        /// Inner dimension of the full GEMM.
        total_k: usize,
    },
}

impl KernelSchedule {
    /// Fraction of the dense GEMM work the scheduled kernel actually
    /// executes (1.0 for every dense variant).
    pub fn kept_fraction(&self) -> f64 {
        match *self {
            KernelSchedule::RowCompact { kept, total }
            | KernelSchedule::TileCompact { kept, total }
            | KernelSchedule::BlockCompact { kept, total, .. } => {
                if total == 0 {
                    1.0
                } else {
                    kept as f64 / total as f64
                }
            }
            KernelSchedule::NmCompact { n, m } => n as f64 / m as f64,
            KernelSchedule::CrsCompact { kept_k, total_k } => {
                if total_k == 0 {
                    1.0
                } else {
                    kept_k as f64 / total_k as f64
                }
            }
            KernelSchedule::RowCrsCompact {
                kept_n,
                total_n,
                kept_k,
                total_k,
            } => {
                // Both axes compact independently, so the executed fraction
                // of the dense GEMM is the product of the two ratios.
                KernelSchedule::RowCompact {
                    kept: kept_n,
                    total: total_n,
                }
                .kept_fraction()
                    * KernelSchedule::CrsCompact { kept_k, total_k }.kept_fraction()
            }
            _ => 1.0,
        }
    }

    /// `true` when the plan pays for separate dropout-mask kernels. (A fused
    /// masked layer folds the mask *multiply* into its epilogue but still
    /// launches the mask-generation kernel.)
    pub fn needs_mask_kernel(&self) -> bool {
        matches!(self, KernelSchedule::DenseWithMask)
    }
}

/// The sampled column-row selection (CRS, arXiv:1805.08079) a plan carries
/// when its GEMM is K-dimension sampled: the kept inner indices in ascending
/// order, the full inner width, and the `K/k` unbiasedness scale.
///
/// The CRS scale is deliberately *not* folded into [`DropoutPlan::scale`]:
/// the dropout scale multiplies post-bias activations while the CRS scale
/// corrects the raw GEMM product *before* the bias is added, so the two live
/// on different sides of the epilogue.
#[derive(Debug, PartialEq)]
pub struct CrsSelection {
    /// Kept inner-dimension indices, strictly ascending.
    kept: Vec<usize>,
    /// Inner dimension of the full GEMM.
    total: usize,
}

impl Clone for CrsSelection {
    fn clone(&self) -> Self {
        Self {
            kept: self.kept.clone(),
            total: self.total,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.kept.clone_from(&source.kept);
        self.total = source.total;
    }
}

impl CrsSelection {
    /// An empty selection — the natural initial state of a recycled buffer.
    pub fn empty() -> Self {
        Self {
            kept: Vec::new(),
            total: 0,
        }
    }

    /// Empties the selection, keeping the kept-index vector's capacity.
    fn clear(&mut self) {
        self.kept.clear();
        self.total = 0;
    }

    /// Re-resolves the selection in place, recycling the kept-index vector:
    /// `fill` receives the cleared vector and must push kept inner indices
    /// in strictly ascending order, at least one unless `total` is zero.
    fn resolve(&mut self, total: usize, fill: impl FnOnce(&mut Vec<usize>)) {
        self.total = total;
        self.kept.clear();
        fill(&mut self.kept);
        assert!(
            !self.kept.is_empty() || total == 0,
            "CRS must keep at least one inner index"
        );
        debug_assert!(
            self.kept.windows(2).all(|w| w[0] < w[1]),
            "kept inner indices must be strictly ascending"
        );
        debug_assert!(
            self.kept.iter().all(|&i| i < total),
            "kept inner index out of bounds"
        );
    }

    /// Kept inner-dimension indices in ascending order.
    pub fn kept_indices(&self) -> &[usize] {
        &self.kept
    }

    /// Inner dimension of the full GEMM.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The `K/k` unbiasedness multiplier for the sampled product — exactly
    /// 1.0 in the `k == K` degeneracy so the dense path is reproduced
    /// bitwise.
    pub fn scale(&self) -> f32 {
        if self.kept.is_empty() || self.kept.len() == self.total {
            1.0
        } else {
            self.total as f32 / self.kept.len() as f32
        }
    }
}

/// The sampled output-side decision of a plan: which output units survive.
/// A plan holds exactly one, so two families can never coexist and
/// [`DropoutPlan::kernel_schedule`] can never disagree with the kept set.
#[derive(Debug, PartialEq)]
enum Decision {
    /// Nothing dropped.
    Dense,
    /// Per-output-neuron 0/1 mask (1 = kept) applied after a dense GEMM by
    /// mask kernels (Fig. 1(a)).
    Mask(Vec<f32>),
    /// The same mask, applied by the naive in-kernel `if (kept)` skip of
    /// Fig. 1(b) instead of mask kernels.
    Divergent(Vec<f32>),
    /// Row pattern over the output neurons.
    Rows(SampledPattern),
    /// Tile pattern and the weight grid it was resolved against.
    Tiles(SampledPattern, TileGrid),
    /// N:M lanes or unit blocks.
    Units(StructuredUnits),
}

impl Clone for Decision {
    fn clone(&self) -> Self {
        match self {
            Decision::Dense => Decision::Dense,
            Decision::Mask(mask) => Decision::Mask(mask.clone()),
            Decision::Divergent(mask) => Decision::Divergent(mask.clone()),
            Decision::Rows(pattern) => Decision::Rows(pattern.clone()),
            Decision::Tiles(pattern, grid) => Decision::Tiles(pattern.clone(), *grid),
            Decision::Units(units) => Decision::Units(units.clone()),
        }
    }

    /// Reuses the kept-index / mask buffer whenever both sides hold the same
    /// family.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Decision::Mask(dst), Decision::Mask(src))
            | (Decision::Divergent(dst), Decision::Divergent(src)) => dst.clone_from(src),
            (Decision::Rows(dst), Decision::Rows(src)) => dst.clone_from(src),
            (Decision::Tiles(dst, grid), Decision::Tiles(src, src_grid)) => {
                dst.clone_from(src);
                *grid = *src_grid;
            }
            (Decision::Units(dst), Decision::Units(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// The concrete dropout decision for one iteration of one layer, produced by
/// [`crate::DropoutScheme::plan`] before any GEMM runs.
///
/// A plan is also a *reusable buffer*: [`crate::DropoutScheme::plan_into`]
/// re-resolves an existing plan in place through the `reset_*` methods, so
/// the kept-index / mask vectors are recycled across training iterations
/// instead of being reallocated every step.
#[derive(Debug, PartialEq)]
pub struct DropoutPlan {
    shape: LayerShape,
    /// Inverted-dropout multiplier for kept units (1.0 when nothing is
    /// dropped).
    scale: f32,
    nominal_rate: f64,
    /// The sampled output-side decision.
    decision: Decision,
    /// Sampled inner-dimension (CRS) selection. Orthogonal to the output
    /// decision and composable with a dense or row one (the composed
    /// row × CRS launch). Empty unless `k_sampled` is set; resets clear it
    /// but keep its buffer, so re-sampling it never allocates.
    crs: CrsSelection,
    /// Whether the plan's GEMM is K-sampled by `crs`.
    k_sampled: bool,
}

impl Clone for DropoutPlan {
    fn clone(&self) -> Self {
        Self {
            shape: self.shape,
            scale: self.scale,
            nominal_rate: self.nominal_rate,
            decision: self.decision.clone(),
            crs: self.crs.clone(),
            k_sampled: self.k_sampled,
        }
    }

    /// Copies `source` into `self`, reusing the kept-index / mask buffers
    /// whenever both sides hold the same plan family. This is what lets a
    /// layer cache the iteration's plan without a per-step allocation.
    fn clone_from(&mut self, source: &Self) {
        self.shape = source.shape;
        self.scale = source.scale;
        self.nominal_rate = source.nominal_rate;
        self.decision.clone_from(&source.decision);
        self.crs.clone_from(&source.crs);
        self.k_sampled = source.k_sampled;
    }
}

impl Default for DropoutPlan {
    /// An identity plan for a degenerate `0 × 0` layer — the natural initial
    /// state of a reusable plan buffer.
    fn default() -> Self {
        Self::none(LayerShape::new(0, 0))
    }
}

impl DropoutPlan {
    /// A plan that drops nothing and schedules a plain dense GEMM.
    pub fn none(shape: LayerShape) -> Self {
        Self {
            shape,
            scale: 1.0,
            nominal_rate: 0.0,
            decision: Decision::Dense,
            crs: CrsSelection::empty(),
            k_sampled: false,
        }
    }

    /// A conventional-dropout plan: dense GEMM followed by the given
    /// per-output-neuron 0/1 mask with inverted-dropout `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match `shape.out_features`.
    pub fn bernoulli(shape: LayerShape, mask: Vec<f32>, scale: f32, nominal_rate: f64) -> Self {
        let mut plan = Self::none(shape);
        plan.reset_bernoulli_with(shape, scale, nominal_rate, |buf| *buf = mask);
        plan
    }

    /// Like [`DropoutPlan::bernoulli`] but scheduling the naive in-kernel
    /// `if (kept)` skip of Fig. 1(b) instead of mask kernels — numerically
    /// identical, slower on a SIMT device.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match `shape.out_features`.
    pub fn divergent(shape: LayerShape, mask: Vec<f32>, scale: f32, nominal_rate: f64) -> Self {
        let mut plan = Self::none(shape);
        plan.reset_divergent_with(shape, scale, nominal_rate, |buf| *buf = mask);
        plan
    }

    /// A row-pattern plan: compacted GEMM over the pattern's kept output
    /// neurons, kept outputs scaled by `dp`.
    pub fn row(shape: LayerShape, pattern: SampledPattern) -> Self {
        Self {
            scale: pattern.inverted_scale(),
            nominal_rate: pattern.nominal_rate().value(),
            decision: Decision::Rows(pattern),
            ..Self::none(shape)
        }
    }

    /// A tile-pattern plan: compacted GEMM over the pattern's kept weight
    /// tiles, the product scaled by `dp`.
    pub fn tile(shape: LayerShape, pattern: SampledPattern, grid: TileGrid) -> Self {
        Self {
            scale: pattern.inverted_scale(),
            nominal_rate: pattern.nominal_rate().value(),
            decision: Decision::Tiles(pattern, grid),
            ..Self::none(shape)
        }
    }

    /// An N:M structured-sparsity plan: group-compacted GEMM over the kept
    /// lanes (`n` of every `m` consecutive output neurons), kept outputs
    /// scaled by `m/n`.
    pub fn nm(shape: LayerShape, n: usize, m: usize, kept: Vec<usize>) -> Self {
        let mut plan = Self::none(shape);
        plan.reset_nm_with(shape, n, m, |buf| *buf = kept);
        plan
    }

    /// A block-structured unit-dropout plan: block-compacted GEMM over the
    /// kept contiguous `block`-wide output-neuron blocks, kept outputs
    /// scaled by the inverted-dropout `scale`.
    pub fn block_unit(
        shape: LayerShape,
        block: usize,
        kept_blocks: Vec<usize>,
        scale: f32,
        nominal_rate: f64,
    ) -> Self {
        let mut plan = Self::none(shape);
        plan.reset_block_unit_with(shape, block, scale, nominal_rate, |buf| *buf = kept_blocks);
        plan
    }

    /// Re-resolves the plan's dropout fields to `decision` and clears any
    /// CRS selection (keeping its buffer for the next one).
    fn set(&mut self, shape: LayerShape, scale: f32, nominal_rate: f64, decision: Decision) {
        self.shape = shape;
        self.scale = scale;
        self.nominal_rate = nominal_rate;
        self.decision = decision;
        self.crs.clear();
        self.k_sampled = false;
    }

    /// Takes the current decision out of the plan so a `reset_*` call can
    /// recycle its buffer.
    fn take_decision(&mut self) -> Decision {
        std::mem::replace(&mut self.decision, Decision::Dense)
    }

    /// The sampled-pattern buffer of a row or tile decision, or a new one.
    fn take_pattern_buffer(&mut self) -> SampledPattern {
        match self.take_decision() {
            Decision::Rows(pattern) | Decision::Tiles(pattern, _) => pattern,
            _ => SampledPattern::empty(),
        }
    }

    /// The structured-units buffer of an N:M or block decision, or a new
    /// one.
    fn take_units_buffer(&mut self) -> StructuredUnits {
        match self.take_decision() {
            Decision::Units(units) => units,
            _ => StructuredUnits::empty(),
        }
    }

    /// Re-resolves this plan in place as the identity (dense GEMM, nothing
    /// dropped).
    pub fn reset_none(&mut self, shape: LayerShape) {
        self.set(shape, 1.0, 0.0, Decision::Dense);
    }

    /// Re-resolves this plan in place as a conventional-dropout plan,
    /// recycling the mask buffer: `fill` receives the cleared vector and must
    /// push exactly `shape.out_features` 0/1 entries.
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves the mask with the wrong length.
    pub fn reset_bernoulli_with(
        &mut self,
        shape: LayerShape,
        scale: f32,
        nominal_rate: f64,
        fill: impl FnOnce(&mut Vec<f32>),
    ) {
        self.reset_mask_with(shape, scale, nominal_rate, Decision::Mask, fill);
    }

    /// Like [`DropoutPlan::reset_bernoulli_with`] but scheduling the naive
    /// in-kernel `if (kept)` skip of Fig. 1(b).
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves the mask with the wrong length.
    pub fn reset_divergent_with(
        &mut self,
        shape: LayerShape,
        scale: f32,
        nominal_rate: f64,
        fill: impl FnOnce(&mut Vec<f32>),
    ) {
        self.reset_mask_with(shape, scale, nominal_rate, Decision::Divergent, fill);
    }

    fn reset_mask_with(
        &mut self,
        shape: LayerShape,
        scale: f32,
        nominal_rate: f64,
        decision: fn(Vec<f32>) -> Decision,
        fill: impl FnOnce(&mut Vec<f32>),
    ) {
        let mut mask = match self.take_decision() {
            Decision::Mask(mask) | Decision::Divergent(mask) => mask,
            _ => Vec::new(),
        };
        mask.clear();
        fill(&mut mask);
        assert_eq!(
            mask.len(),
            shape.out_features,
            "mask length must match out_features"
        );
        self.set(shape, scale, nominal_rate, decision(mask));
    }

    /// Re-resolves this plan in place as a row plan for `pattern`, recycling
    /// the kept-index buffer. Equivalent to (but allocation-free compared
    /// with) rebuilding through [`DropoutPlan::row`].
    pub fn reset_row(&mut self, shape: LayerShape, pattern: crate::pattern::RowPattern) {
        let mut sampled = self.take_pattern_buffer();
        sampled.resolve_row(pattern, shape.out_features);
        self.set(
            shape,
            sampled.inverted_scale(),
            sampled.nominal_rate().value(),
            Decision::Rows(sampled),
        );
    }

    /// Re-resolves this plan in place as a tile plan for `pattern` on `grid`,
    /// recycling the kept-index buffer. Equivalent to (but allocation-free
    /// compared with) rebuilding through [`DropoutPlan::tile`].
    pub fn reset_tile(
        &mut self,
        shape: LayerShape,
        pattern: crate::pattern::TilePattern,
        grid: TileGrid,
    ) {
        let mut sampled = self.take_pattern_buffer();
        sampled.resolve_tile_units(pattern, grid.total_tiles());
        self.set(
            shape,
            sampled.inverted_scale(),
            sampled.nominal_rate().value(),
            Decision::Tiles(sampled, grid),
        );
    }

    /// Re-resolves this plan in place as an N:M plan, recycling the
    /// kept-index buffer: `fill` receives the cleared vector and must push
    /// the kept neuron indices in ascending order (exactly `n` per complete
    /// `m`-group). Equivalent to (but allocation-free compared with)
    /// rebuilding through [`DropoutPlan::nm`].
    pub fn reset_nm_with(
        &mut self,
        shape: LayerShape,
        n: usize,
        m: usize,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        let mut units = self.take_units_buffer();
        units.resolve_nm(n, m, shape.out_features, fill);
        let (scale, nominal_rate) = (m as f32 / n as f32, 1.0 - n as f64 / m as f64);
        self.set(shape, scale, nominal_rate, Decision::Units(units));
    }

    /// Re-resolves this plan in place as a block-unit plan, recycling the
    /// kept-index buffer: `fill` receives the cleared vector and must push
    /// kept *block* indices in ascending order. Equivalent to (but
    /// allocation-free compared with) rebuilding through
    /// [`DropoutPlan::block_unit`].
    pub fn reset_block_unit_with(
        &mut self,
        shape: LayerShape,
        block: usize,
        scale: f32,
        nominal_rate: f64,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        let mut units = self.take_units_buffer();
        units.resolve_block(block, shape.out_features, fill);
        self.set(shape, scale, nominal_rate, Decision::Units(units));
    }

    /// Re-resolves this plan in place as a pure CRS-sampling plan: dense
    /// output (nothing dropped), `kept_k` of `total_k` inner products
    /// executed, recycling the kept-index buffer. `fill` receives the
    /// cleared vector and must push kept inner indices in strictly
    /// ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `fill` keeps nothing while `total_k > 0`.
    pub fn reset_crs_with(
        &mut self,
        shape: LayerShape,
        total_k: usize,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        self.reset_none(shape);
        self.attach_crs_with(total_k, fill);
        // CRS drops no neurons; the nominal rate records the fraction of
        // inner products skipped, which is what the pricing model needs.
        let kept_k = self.crs.kept.len();
        self.nominal_rate = if total_k == 0 {
            0.0
        } else {
            1.0 - kept_k as f64 / total_k as f64
        };
    }

    /// Attaches a CRS inner-dimension selection to an already-resolved plan,
    /// composing the two approximation axes: a dense plan upgrades to
    /// [`KernelSchedule::CrsCompact`], a row-compacted plan to the composed
    /// [`KernelSchedule::RowCrsCompact`] launch. The dropout fields (rows,
    /// scale, nominal rate) are left untouched — CRS is a GEMM
    /// approximation, not extra dropout.
    ///
    /// # Panics
    ///
    /// Panics if `fill` keeps nothing while `total_k > 0`, or if the plan's
    /// schedule is neither dense nor row-compacted (CRS does not compose
    /// with the mask, tile, N:M or block families, nor with itself).
    pub fn attach_crs_with(&mut self, total_k: usize, fill: impl FnOnce(&mut Vec<usize>)) {
        assert!(
            !self.k_sampled && matches!(self.decision, Decision::Dense | Decision::Rows(_)),
            "CRS composes with dense or row-compacted plans, not {:?}",
            self.kernel_schedule()
        );
        self.crs.resolve(total_k, fill);
        self.k_sampled = true;
    }

    /// The layer shape this plan was resolved against.
    pub fn shape(&self) -> LayerShape {
        self.shape
    }

    /// Inverted-dropout multiplier applied to kept units.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Nominal dropout rate of the decision this plan encodes.
    pub fn nominal_rate(&self) -> f64 {
        self.nominal_rate
    }

    /// The kernel launches this plan implies on a GPU, derived from the
    /// sampled decision and, for a dense or row decision, the CRS selection
    /// (no other decision can carry one).
    pub fn kernel_schedule(&self) -> KernelSchedule {
        let crs = self.crs_selection().map(|s| (s.kept.len(), s.total));
        match &self.decision {
            Decision::Dense => match crs {
                None => KernelSchedule::Dense,
                Some((kept_k, total_k)) => KernelSchedule::CrsCompact { kept_k, total_k },
            },
            Decision::Mask(_) => KernelSchedule::DenseWithMask,
            Decision::Divergent(_) => KernelSchedule::DenseDivergent {
                rate: self.nominal_rate,
            },
            Decision::Rows(pattern) => {
                let (kept, total) = (pattern.kept_indices().len(), pattern.unit_count());
                match crs {
                    None => KernelSchedule::RowCompact { kept, total },
                    Some((kept_k, total_k)) => KernelSchedule::RowCrsCompact {
                        kept_n: kept,
                        total_n: total,
                        kept_k,
                        total_k,
                    },
                }
            }
            Decision::Tiles(pattern, grid) => KernelSchedule::TileCompact {
                kept: pattern.kept_indices().len(),
                total: grid.total_tiles(),
            },
            Decision::Units(units) => match units.kind() {
                StructuredKind::Nm { n, m } => KernelSchedule::NmCompact { n, m },
                StructuredKind::Block { block, total } => KernelSchedule::BlockCompact {
                    kept: units.kept_indices().len(),
                    total,
                    block,
                },
            },
        }
    }

    /// Kept output neurons for a row-compacted GEMM; `None` when the GEMM is
    /// dense or tile-compacted.
    pub fn compact_rows(&self) -> Option<&[usize]> {
        match &self.decision {
            Decision::Rows(pattern) => Some(pattern.kept_indices()),
            _ => None,
        }
    }

    /// Kept weight tiles and the grid they index into, for a tile-compacted
    /// GEMM; `None` otherwise.
    pub fn kept_tiles(&self) -> Option<(&[usize], &TileGrid)> {
        match &self.decision {
            Decision::Tiles(pattern, grid) => Some((pattern.kept_indices(), grid)),
            _ => None,
        }
    }

    /// The per-output-neuron Bernoulli mask (1 = kept), if this plan applies
    /// one after a dense GEMM.
    pub fn bernoulli_mask(&self) -> Option<&[f32]> {
        match &self.decision {
            Decision::Mask(mask) | Decision::Divergent(mask) => Some(mask),
            _ => None,
        }
    }

    /// Kept output lanes and the `(n, m)` group parameters, if this is an
    /// N:M structured-sparsity plan.
    pub fn nm_lanes(&self) -> Option<(&[usize], usize, usize)> {
        match &self.decision {
            Decision::Units(units) => match units.kind() {
                StructuredKind::Nm { n, m } => Some((units.kept_indices(), n, m)),
                StructuredKind::Block { .. } => None,
            },
            _ => None,
        }
    }

    /// Kept block indices, the block width and the total block count, if
    /// this is a block-unit plan.
    pub fn kept_unit_blocks(&self) -> Option<(&[usize], usize, usize)> {
        match &self.decision {
            Decision::Units(units) => match units.kind() {
                StructuredKind::Block { block, total } => {
                    Some((units.kept_indices(), block, total))
                }
                StructuredKind::Nm { .. } => None,
            },
            _ => None,
        }
    }

    /// The kept heads, if this is a block-unit plan whose blocks are
    /// exactly `heads` attention heads of width `head_dim` (whole-head
    /// attention dropout); `None` for every other plan.
    pub fn kept_heads(&self, head_dim: usize, heads: usize) -> Option<&[usize]> {
        match self.kept_unit_blocks()? {
            (kept, block, total) if block == head_dim && total == heads => Some(kept),
            _ => None,
        }
    }

    /// The sampled inner-dimension (CRS) selection, if this plan's GEMM is
    /// K-sampled.
    pub fn crs_selection(&self) -> Option<&CrsSelection> {
        self.k_sampled.then_some(&self.crs)
    }

    /// The `K/k` unbiasedness multiplier the kernel applies to the sampled
    /// GEMM product before the bias (1.0 when the plan is not CRS-sampled
    /// or keeps every inner index).
    pub fn crs_scale(&self) -> f32 {
        self.crs_selection().map_or(1.0, CrsSelection::scale)
    }

    /// `true` when the plan performs no approximation at all.
    pub fn is_identity(&self) -> bool {
        matches!(self.decision, Decision::Dense) && !self.k_sampled
    }

    /// Per-output-column multiplier implementing this plan on an activation
    /// matrix with `n_cols` columns: kept columns carry the inverted-dropout
    /// scale, dropped columns 0, and columns beyond the plan's resolved
    /// width stay at exactly 1.0 (they are outside the dropout site and must
    /// pass through untouched).
    pub fn column_multiplier(&self, n_cols: usize) -> Vec<f32> {
        let mut mult = Vec::new();
        self.column_multiplier_into(n_cols, &mut mult);
        mult
    }

    /// Like [`DropoutPlan::column_multiplier`] but writing into a
    /// caller-owned vector so the per-iteration multiplier of the LSTM's
    /// inter-layer dropout can be recycled instead of reallocated.
    pub fn column_multiplier_into(&self, n_cols: usize, out: &mut Vec<f32>) {
        out.clear();
        match &self.decision {
            Decision::Dense => out.resize(n_cols, 1.0),
            Decision::Mask(mask) | Decision::Divergent(mask) => {
                // Columns the mask does not cover are untouched (multiplier
                // 1.0), *not* rescaled: the inverted-dropout scale
                // compensates for masked columns only.
                out.extend((0..n_cols).map(|j| mask.get(j).map_or(1.0, |&m| m * self.scale)));
            }
            Decision::Rows(pattern) => {
                out.resize(n_cols, 0.0);
                for &j in pattern.kept_indices() {
                    if j < n_cols {
                        out[j] = self.scale;
                    }
                }
                for m in out.iter_mut().skip(pattern.unit_count()) {
                    *m = 1.0;
                }
            }
            Decision::Tiles(pattern, grid) => {
                out.resize(n_cols, 0.0);
                for &t in pattern.kept_indices() {
                    if t < grid.total_tiles() {
                        let (_, cols) = grid.tile_bounds(t);
                        for c in cols {
                            if c < n_cols {
                                out[c] = self.scale;
                            }
                        }
                    }
                }
                let (_, covered_cols) = grid.weight_shape();
                for m in out.iter_mut().skip(covered_cols) {
                    *m = 1.0;
                }
            }
            Decision::Units(units) => {
                out.resize(n_cols, 0.0);
                match units.kind() {
                    StructuredKind::Nm { .. } => {
                        for &j in units.kept_indices() {
                            if j < n_cols {
                                out[j] = self.scale;
                            }
                        }
                    }
                    StructuredKind::Block { block, .. } => {
                        for &b in units.kept_indices() {
                            let start = (b * block).min(n_cols);
                            let end = (b * block + block).min(units.unit_count()).min(n_cols);
                            for m in &mut out[start..end] {
                                *m = self.scale;
                            }
                        }
                    }
                }
                for m in out.iter_mut().skip(units.unit_count()) {
                    *m = 1.0;
                }
            }
        }
    }

    /// Applies the conventional mask (if any) to a full activation matrix in
    /// place. Pattern plans leave the input unchanged because the compacted
    /// GEMM already produced masked output.
    pub fn apply_mask(&self, activations: &mut Matrix) {
        if let Some(mask) = self.bernoulli_mask() {
            let scale = self.scale;
            for i in 0..activations.rows() {
                let row = activations.row_mut(i);
                for (j, v) in row.iter_mut().enumerate() {
                    *v *= mask[j] * scale;
                }
            }
        }
    }

    /// Fraction of this layer's output neurons that remain fully active and
    /// therefore still have to be processed by the next layer. Only plans
    /// that drop whole neurons (row, N:M, block) shrink this below 1.
    pub fn active_output_fraction(&self) -> f64 {
        match &self.decision {
            Decision::Rows(pattern) => 1.0 - pattern.realized_dropout_fraction(),
            Decision::Units(units) => units.active_fraction(),
            _ => 1.0,
        }
    }

    /// Fraction of droppable units this plan actually zeroes.
    pub fn realized_drop_fraction(&self) -> f64 {
        match &self.decision {
            Decision::Dense => 0.0,
            Decision::Rows(pattern) | Decision::Tiles(pattern, _) => {
                pattern.realized_dropout_fraction()
            }
            Decision::Units(units) => 1.0 - units.active_fraction(),
            Decision::Mask(mask) | Decision::Divergent(mask) if mask.is_empty() => 0.0,
            Decision::Mask(mask) | Decision::Divergent(mask) => {
                mask.iter().filter(|&&m| m == 0.0).count() as f64 / mask.len() as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{RowPattern, TilePattern};

    fn row_plan(dp: usize, bias: usize, n: usize) -> DropoutPlan {
        let pattern = SampledPattern::from_row(RowPattern::new(dp, bias).unwrap(), n);
        DropoutPlan::row(LayerShape::vector(n), pattern)
    }

    #[test]
    fn none_plan_is_identity() {
        let plan = DropoutPlan::none(LayerShape::new(4, 6));
        assert!(plan.is_identity());
        assert_eq!(plan.scale(), 1.0);
        assert_eq!(plan.column_multiplier(6), vec![1.0; 6]);
        assert_eq!(plan.active_output_fraction(), 1.0);
        assert_eq!(plan.realized_drop_fraction(), 0.0);
        assert_eq!(plan.kernel_schedule(), KernelSchedule::Dense);
    }

    #[test]
    fn bernoulli_plan_masks_and_scales() {
        let plan = DropoutPlan::bernoulli(LayerShape::vector(3), vec![1.0, 0.0, 1.0], 2.0, 0.5);
        assert_eq!(plan.column_multiplier(3), vec![2.0, 0.0, 2.0]);
        assert!((plan.realized_drop_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!(plan.kernel_schedule().needs_mask_kernel());
        let mut x = Matrix::from_rows(&[&[3.0, 5.0, 7.0]]);
        plan.apply_mask(&mut x);
        assert_eq!(x.row(0), &[6.0, 0.0, 14.0]);
    }

    #[test]
    fn column_multiplier_beyond_mask_length_stays_one() {
        // Regression test: the seed implementation multiplied out-of-range
        // columns by the inverted scale (`unwrap_or(1.0) * scale`), silently
        // amplifying activations the mask never covered.
        let plan = DropoutPlan::bernoulli(LayerShape::vector(2), vec![1.0, 0.0], 2.0, 0.5);
        assert_eq!(plan.column_multiplier(4), vec![2.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn row_plan_exposes_compact_rows_and_fraction() {
        let plan = row_plan(2, 0, 10);
        assert_eq!(plan.compact_rows().unwrap(), &[0, 2, 4, 6, 8]);
        assert!(plan.kept_tiles().is_none());
        assert_eq!(plan.scale(), 2.0);
        assert!((plan.active_output_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::RowCompact { kept: 5, total: 10 }
        );
        assert_eq!(
            plan.column_multiplier(10),
            vec![2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0]
        );
    }

    #[test]
    fn row_multiplier_beyond_resolved_units_stays_one() {
        let plan = row_plan(2, 0, 4);
        assert_eq!(
            plan.column_multiplier(6),
            vec![2.0, 0.0, 2.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn tile_plan_exposes_tiles_and_covers_columns() {
        let grid = TileGrid::new(4, 4, 2).unwrap(); // 2x2 tiles
        let pattern = SampledPattern::from_tile(TilePattern::new(2, 1, 2).unwrap(), &grid);
        let plan = DropoutPlan::tile(LayerShape::new(4, 4), pattern, grid);
        let (kept, g) = plan.kept_tiles().unwrap();
        assert_eq!(kept, &[1, 3]);
        assert_eq!(g.total_tiles(), 4);
        // Tiles 1 and 3 cover columns 2..4.
        assert_eq!(plan.column_multiplier(4), vec![0.0, 0.0, 2.0, 2.0]);
        assert_eq!(plan.active_output_fraction(), 1.0);
        assert!((plan.kernel_schedule().kept_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mask_application_is_identity_for_pattern_plans() {
        let plan = row_plan(3, 1, 6);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let mut masked = x.clone();
        plan.apply_mask(&mut masked);
        assert_eq!(masked, x);
    }

    #[test]
    fn schedule_kept_fraction_handles_degenerate_totals() {
        assert_eq!(KernelSchedule::Dense.kept_fraction(), 1.0);
        assert_eq!(
            KernelSchedule::RowCompact { kept: 0, total: 0 }.kept_fraction(),
            1.0
        );
        assert_eq!(
            KernelSchedule::DenseDivergent { rate: 0.5 }.kept_fraction(),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "mask length must match")]
    fn bernoulli_plan_rejects_wrong_mask_length() {
        let _ = DropoutPlan::bernoulli(LayerShape::vector(4), vec![1.0], 2.0, 0.5);
    }

    #[test]
    fn crs_plan_samples_the_inner_dimension_only() {
        let mut plan = DropoutPlan::none(LayerShape::new(8, 6));
        plan.reset_crs_with(LayerShape::new(8, 6), 8, |kept| kept.extend([0, 2, 5, 7]));
        assert!(!plan.is_identity());
        // Output-side views are untouched: no neuron is dropped.
        assert_eq!(plan.scale(), 1.0);
        assert_eq!(plan.active_output_fraction(), 1.0);
        assert_eq!(plan.column_multiplier(6), vec![1.0; 6]);
        assert!(plan.compact_rows().is_none());
        // Inner-side views carry the selection and the K/k scale.
        let selection = plan.crs_selection().unwrap();
        assert_eq!(selection.kept_indices(), &[0, 2, 5, 7]);
        assert_eq!(selection.total(), 8);
        assert_eq!(plan.crs_scale(), 2.0);
        assert!((plan.nominal_rate() - 0.5).abs() < 1e-12);
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::CrsCompact {
                kept_k: 4,
                total_k: 8
            }
        );
        assert!((plan.kernel_schedule().kept_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn crs_keeping_every_index_has_unit_scale() {
        let mut plan = DropoutPlan::default();
        plan.reset_crs_with(LayerShape::new(4, 3), 4, |kept| kept.extend(0..4));
        assert_eq!(plan.crs_scale(), 1.0);
        assert_eq!(plan.nominal_rate(), 0.0);
    }

    #[test]
    fn attach_crs_composes_with_a_row_plan() {
        let mut plan = row_plan(2, 0, 10);
        plan.attach_crs_with(6, |kept| kept.extend([1, 4, 5]));
        // The row decision is untouched…
        assert_eq!(plan.compact_rows().unwrap(), &[0, 2, 4, 6, 8]);
        assert_eq!(plan.scale(), 2.0);
        // …and the schedule is the composed launch whose executed fraction
        // is the product of both axes.
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::RowCrsCompact {
                kept_n: 5,
                total_n: 10,
                kept_k: 3,
                total_k: 6,
            }
        );
        assert!((plan.kernel_schedule().kept_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(plan.crs_scale(), 2.0);
    }

    #[test]
    fn crs_plan_buffers_are_recycled_through_clone_from_and_reset() {
        let mut plan = DropoutPlan::default();
        plan.reset_crs_with(LayerShape::new(8, 4), 8, |kept| kept.extend([0, 3, 6]));
        let ptr = plan.crs_selection().unwrap().kept_indices().as_ptr();
        plan.reset_crs_with(LayerShape::new(8, 4), 8, |kept| kept.extend([1, 2, 7]));
        assert_eq!(
            ptr,
            plan.crs_selection().unwrap().kept_indices().as_ptr(),
            "reset_crs_with must reuse the kept-index buffer"
        );
        let mut copy = plan.clone();
        plan.reset_crs_with(LayerShape::new(8, 4), 8, |kept| kept.extend([4, 5]));
        let copy_ptr = copy.crs_selection().unwrap().kept_indices().as_ptr();
        copy.clone_from(&plan);
        assert_eq!(
            copy_ptr,
            copy.crs_selection().unwrap().kept_indices().as_ptr(),
            "clone_from must reuse the destination's kept-index buffer"
        );
        assert_eq!(copy, plan);
    }

    #[test]
    fn resetting_a_composed_plan_drops_its_crs_selection() {
        let mut plan = row_plan(2, 0, 10);
        plan.attach_crs_with(6, |kept| kept.extend([1, 4, 5]));
        plan.reset_row(LayerShape::vector(10), RowPattern::new(2, 1).unwrap());
        assert!(plan.crs_selection().is_none());
        assert_eq!(
            plan.kernel_schedule(),
            KernelSchedule::RowCompact { kept: 5, total: 10 }
        );
        assert_eq!(plan, row_plan(2, 1, 10));
    }

    #[test]
    #[should_panic(expected = "at least one inner index")]
    fn crs_plan_rejects_an_empty_selection() {
        let mut plan = DropoutPlan::default();
        plan.reset_crs_with(LayerShape::new(4, 4), 4, |_| {});
    }

    #[test]
    #[should_panic(expected = "CRS composes with dense or row-compacted")]
    fn attach_crs_rejects_incompatible_families() {
        let mut plan = DropoutPlan::bernoulli(LayerShape::vector(3), vec![1.0, 0.0, 1.0], 2.0, 0.5);
        plan.attach_crs_with(4, |kept| kept.extend([0, 1]));
    }
}
