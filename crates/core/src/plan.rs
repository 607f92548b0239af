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
//! A plan is produced by [`crate::DropoutScheme::plan_into`]. It stores one
//! sampled output-side family (nothing dropped, a Bernoulli mask, a row
//! pattern, a tile pattern, or N:M / block units) as a small tag over one
//! recycled buffer — the kept neurons, tiles, lanes or blocks, or the mask —
//! beside an optional CRS inner-dimension selection, and every view below is
//! derived from those:
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

use crate::pattern::{DropoutPattern, RowPattern, TileGrid, TilePattern};
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

/// Which output-side family a plan resolved to, with the family's
/// parameters. The kept set itself lives in the plan's one kept-index (or
/// mask) buffer, so a plan holds exactly one family — two can never coexist
/// and [`DropoutPlan::kernel_schedule`] can never disagree with the kept set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    /// Nothing dropped.
    Dense,
    /// Per-output-neuron 0/1 mask (1 = kept) applied after a dense GEMM by
    /// mask kernels (Fig. 1(a)).
    Mask,
    /// The same mask, applied by the naive in-kernel `if (kept)` skip of
    /// Fig. 1(b) instead of mask kernels.
    Divergent,
    /// Kept output neurons of a row pattern.
    Rows,
    /// Kept tiles of a tile pattern, on the weight grid it was resolved
    /// against.
    Tiles(TileGrid),
    /// Kept output lanes, `n` of every `m`.
    Nm { n: usize, m: usize },
    /// Kept `block`-wide output-neuron blocks.
    Blocks { block: usize },
}

/// The concrete dropout decision for one iteration of one layer, produced by
/// [`crate::DropoutScheme::plan_into`] before any GEMM runs.
///
/// A plan is also a *reusable buffer*: `plan_into` re-resolves an existing
/// plan in place through the `reset_*` methods, so its kept-index and mask
/// vectors are recycled across training iterations — whatever family the
/// plan held before — instead of being reallocated every step.
#[derive(Debug, PartialEq)]
pub struct DropoutPlan {
    shape: LayerShape,
    /// Inverted-dropout multiplier for kept units (1.0 when nothing is
    /// dropped).
    scale: f32,
    nominal_rate: f64,
    /// The sampled output-side family.
    decision: Decision,
    /// Kept neurons (rows, N:M), tiles or blocks, ascending; empty for the
    /// dense and mask families.
    kept: Vec<usize>,
    /// The 0/1 neuron mask of the mask families; empty otherwise.
    mask: Vec<f32>,
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
            decision: self.decision,
            kept: self.kept.clone(),
            mask: self.mask.clone(),
            crs: self.crs.clone(),
            k_sampled: self.k_sampled,
        }
    }

    /// Copies `source` into `self`, reusing the kept-index, mask and CRS
    /// buffers whatever family either side holds. This is what lets a layer
    /// cache the iteration's plan without a per-step allocation.
    fn clone_from(&mut self, source: &Self) {
        self.shape = source.shape;
        self.scale = source.scale;
        self.nominal_rate = source.nominal_rate;
        self.decision = source.decision;
        self.kept.clone_from(&source.kept);
        self.mask.clone_from(&source.mask);
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
            kept: Vec::new(),
            mask: Vec::new(),
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

    /// A row-pattern plan: compacted GEMM over the pattern's kept output
    /// neurons, kept outputs scaled by `dp`.
    pub fn row(shape: LayerShape, pattern: RowPattern) -> Self {
        let mut plan = Self::none(shape);
        plan.reset_row(shape, pattern);
        plan
    }

    /// A tile-pattern plan: compacted GEMM over the pattern's kept weight
    /// tiles on `grid`, the product scaled by `dp`.
    pub fn tile(shape: LayerShape, pattern: TilePattern, grid: TileGrid) -> Self {
        let mut plan = Self::none(shape);
        plan.reset_tile(shape, pattern, grid);
        plan
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

    /// Re-resolves the plan's dropout fields to `decision`, emptying the
    /// kept-index and mask buffers and any CRS selection (keeping every
    /// buffer's capacity for the next fill).
    fn set(&mut self, shape: LayerShape, scale: f32, nominal_rate: f64, decision: Decision) {
        self.shape = shape;
        self.scale = scale;
        self.nominal_rate = nominal_rate;
        self.decision = decision;
        self.kept.clear();
        self.mask.clear();
        self.crs.clear();
        self.k_sampled = false;
    }

    /// [`DropoutPlan::set`], then `fill` pushes the kept units (neurons,
    /// tiles or blocks) into the cleared kept-index buffer, ascending.
    fn reset_kept_with(
        &mut self,
        shape: LayerShape,
        scale: f32,
        nominal_rate: f64,
        decision: Decision,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        self.set(shape, scale, nominal_rate, decision);
        fill(&mut self.kept);
        debug_assert!(
            self.kept.windows(2).all(|w| w[0] < w[1]),
            "kept units must be strictly ascending"
        );
        debug_assert!(
            self.kept.iter().all(|&u| u < self.unit_count()),
            "kept unit out of bounds"
        );
    }

    /// How many units the kept buffer indexes into: output neurons for rows
    /// and N:M, tiles for tiles, blocks for blocks (0 for the other
    /// families).
    fn unit_count(&self) -> usize {
        match self.decision {
            Decision::Rows | Decision::Nm { .. } => self.shape.out_features,
            Decision::Tiles(grid) => grid.total_tiles(),
            Decision::Blocks { block } => self.shape.out_features.div_ceil(block.max(1)),
            Decision::Dense | Decision::Mask | Decision::Divergent => 0,
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
        decision: Decision,
        fill: impl FnOnce(&mut Vec<f32>),
    ) {
        self.set(shape, scale, nominal_rate, decision);
        fill(&mut self.mask);
        assert_eq!(
            self.mask.len(),
            shape.out_features,
            "mask length must match out_features"
        );
    }

    /// Re-resolves this plan in place as a row plan for `pattern`, recycling
    /// the kept-index buffer.
    pub fn reset_row(&mut self, shape: LayerShape, pattern: RowPattern) {
        let (dp, bias) = (pattern.dp(), pattern.bias());
        let n = shape.out_features;
        let rate = pattern.global_dropout_rate();
        self.reset_kept_with(shape, dp as f32, rate, Decision::Rows, |kept| {
            kept.extend((bias..n).step_by(dp))
        });
    }

    /// Re-resolves this plan in place as a tile plan for `pattern` on `grid`,
    /// recycling the kept-index buffer.
    pub fn reset_tile(&mut self, shape: LayerShape, pattern: TilePattern, grid: TileGrid) {
        let (dp, bias) = (pattern.dp(), pattern.bias());
        let tiles = grid.total_tiles();
        let rate = pattern.global_dropout_rate();
        self.reset_kept_with(shape, dp as f32, rate, Decision::Tiles(grid), |kept| {
            kept.extend((bias..tiles).step_by(dp))
        });
    }

    /// Re-resolves this plan in place as an N:M plan, recycling the
    /// kept-index buffer: `fill` receives the cleared vector and must push
    /// the kept neuron indices in ascending order (exactly `n` per complete
    /// `m`-group).
    pub fn reset_nm_with(
        &mut self,
        shape: LayerShape,
        n: usize,
        m: usize,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        let (scale, nominal_rate) = (m as f32 / n as f32, 1.0 - n as f64 / m as f64);
        self.reset_kept_with(shape, scale, nominal_rate, Decision::Nm { n, m }, fill);
    }

    /// Re-resolves this plan in place as a block-unit plan over
    /// `shape.out_features.div_ceil(block)` blocks, recycling the kept-index
    /// buffer: `fill` receives the cleared vector and must push kept *block*
    /// indices in ascending order.
    pub fn reset_block_unit_with(
        &mut self,
        shape: LayerShape,
        block: usize,
        scale: f32,
        nominal_rate: f64,
        fill: impl FnOnce(&mut Vec<usize>),
    ) {
        self.reset_kept_with(shape, scale, nominal_rate, Decision::Blocks { block }, fill);
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
            !self.k_sampled && matches!(self.decision, Decision::Dense | Decision::Rows),
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
        let kept = self.kept.len();
        match self.decision {
            Decision::Dense => match crs {
                None => KernelSchedule::Dense,
                Some((kept_k, total_k)) => KernelSchedule::CrsCompact { kept_k, total_k },
            },
            Decision::Mask => KernelSchedule::DenseWithMask,
            Decision::Divergent => KernelSchedule::DenseDivergent {
                rate: self.nominal_rate,
            },
            Decision::Rows => {
                let total = self.shape.out_features;
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
            Decision::Tiles(grid) => KernelSchedule::TileCompact {
                kept,
                total: grid.total_tiles(),
            },
            Decision::Nm { n, m } => KernelSchedule::NmCompact { n, m },
            Decision::Blocks { block } => KernelSchedule::BlockCompact {
                kept,
                total: self.unit_count(),
                block,
            },
        }
    }

    /// Kept output neurons for a row-compacted GEMM; `None` when the GEMM is
    /// dense or tile-compacted.
    pub fn compact_rows(&self) -> Option<&[usize]> {
        matches!(self.decision, Decision::Rows).then_some(self.kept.as_slice())
    }

    /// Kept weight tiles and the grid they index into, for a tile-compacted
    /// GEMM; `None` otherwise.
    pub fn kept_tiles(&self) -> Option<(&[usize], &TileGrid)> {
        match &self.decision {
            Decision::Tiles(grid) => Some((self.kept.as_slice(), grid)),
            _ => None,
        }
    }

    /// The per-output-neuron Bernoulli mask (1 = kept), if this plan applies
    /// one after a dense GEMM.
    pub fn bernoulli_mask(&self) -> Option<&[f32]> {
        matches!(self.decision, Decision::Mask | Decision::Divergent)
            .then_some(self.mask.as_slice())
    }

    /// Kept output lanes and the `(n, m)` group parameters, if this is an
    /// N:M structured-sparsity plan.
    pub fn nm_lanes(&self) -> Option<(&[usize], usize, usize)> {
        match self.decision {
            Decision::Nm { n, m } => Some((self.kept.as_slice(), n, m)),
            _ => None,
        }
    }

    /// Kept block indices, the block width and the total block count, if
    /// this is a block-unit plan.
    pub fn kept_unit_blocks(&self) -> Option<(&[usize], usize, usize)> {
        match self.decision {
            Decision::Blocks { block } => Some((self.kept.as_slice(), block, self.unit_count())),
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
        let covered = match self.decision {
            Decision::Dense => {
                out.resize(n_cols, 1.0);
                return;
            }
            Decision::Mask | Decision::Divergent => {
                // Columns the mask does not cover are untouched (multiplier
                // 1.0), *not* rescaled: the inverted-dropout scale
                // compensates for masked columns only.
                let mask = &self.mask;
                out.extend((0..n_cols).map(|j| mask.get(j).map_or(1.0, |&m| m * self.scale)));
                return;
            }
            Decision::Rows | Decision::Nm { .. } => {
                out.resize(n_cols, 0.0);
                for &j in &self.kept {
                    if j < n_cols {
                        out[j] = self.scale;
                    }
                }
                self.shape.out_features
            }
            Decision::Tiles(grid) => {
                out.resize(n_cols, 0.0);
                for &t in &self.kept {
                    if t < grid.total_tiles() {
                        let (_, cols) = grid.tile_bounds(t);
                        for c in cols {
                            if c < n_cols {
                                out[c] = self.scale;
                            }
                        }
                    }
                }
                grid.weight_shape().1
            }
            Decision::Blocks { block } => {
                out.resize(n_cols, 0.0);
                let n = self.shape.out_features;
                for &b in &self.kept {
                    let start = (b * block).min(n_cols);
                    let end = (b * block + block).min(n).min(n_cols);
                    for m in &mut out[start..end] {
                        *m = self.scale;
                    }
                }
                n
            }
        };
        for m in out.iter_mut().skip(covered) {
            *m = 1.0;
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
        match self.decision {
            Decision::Rows => 1.0 - self.realized_drop_fraction(),
            Decision::Nm { .. } | Decision::Blocks { .. } => self.kept_neuron_fraction(),
            _ => 1.0,
        }
    }

    /// Fraction of droppable units this plan actually zeroes.
    pub fn realized_drop_fraction(&self) -> f64 {
        match self.decision {
            Decision::Dense => 0.0,
            Decision::Rows | Decision::Tiles(_) => match self.unit_count() {
                0 => 0.0,
                units => 1.0 - self.kept.len() as f64 / units as f64,
            },
            Decision::Nm { .. } | Decision::Blocks { .. } => 1.0 - self.kept_neuron_fraction(),
            Decision::Mask | Decision::Divergent if self.mask.is_empty() => 0.0,
            Decision::Mask | Decision::Divergent => {
                let dropped = self.mask.iter().filter(|&&m| m == 0.0).count();
                dropped as f64 / self.mask.len() as f64
            }
        }
    }

    /// Fraction of output neurons an N:M or block plan keeps (1 on a
    /// zero-width layer); kept blocks count their neurons clipped to the
    /// layer.
    fn kept_neuron_fraction(&self) -> f64 {
        let n = self.shape.out_features;
        if n == 0 {
            return 1.0;
        }
        let kept = match self.decision {
            Decision::Blocks { block } => self
                .kept
                .iter()
                .map(|&b| (b * block + block).min(n).saturating_sub(b * block))
                .sum(),
            _ => self.kept.len(),
        };
        kept as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_plan(dp: usize, bias: usize, n: usize) -> DropoutPlan {
        DropoutPlan::row(LayerShape::vector(n), RowPattern::new(dp, bias).unwrap())
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
        let pattern = TilePattern::new(2, 1, 2).unwrap();
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
