//! Dropout-aware fully connected layer.
//!
//! The layer computes `Z = X·W + b` and *executes* whatever
//! [`DropoutPlan`] the layer's scheme sampled for the iteration. The plan's
//! fields are classified once by `ExecPath` — the single place in this
//! crate that maps plan fields to kernels — and both the forward and the
//! backward pass dispatch on that classification:
//!
//! * `ExecPath::Gather` — every compacting scheme runs through the one
//!   gather core of `tensor::gemm`: the plan's kept set resolves into the
//!   layer's [`GatherScratch`] as dense (kept-K × kept-N) sub-GEMMs —
//!   scattered kept output neurons (the Row-based Dropout Pattern, N:M
//!   structured sparsity with the group structure validated), contiguous
//!   kept blocks expanded to their columns (block-structured unit dropout),
//!   the kept weight tiles of the Tile-based Dropout Pattern grouped by the
//!   strips each tile row keeps, and the K-dimension sampled GEMM
//!   (column-row sampling) alone or composed with a kept-neuron set so the
//!   two speedups multiply. The [`GatherEpilogue`] carries the scales and
//!   what dropped columns hold;
//! * `ExecPath::Dense` — dense GEMM, with the conventional Bernoulli
//!   column mask folded into the epilogue (no mask for the identity plan) —
//!   the baseline of the paper, Fig. 1(a).
//!
//! The layer never inspects *which* scheme produced the plan: a new pattern
//! family only needs to populate the plan fields it uses and resolve them
//! into gather classes here.
//!
//! Because dropped outputs are exactly zero and ReLU is positively
//! homogeneous, applying the pattern to the pre-activation `Z` is
//! mathematically identical to the conventional "mask the post-activation
//! output" formulation the paper starts from.

use crate::optimizer::{Param, Params, Sgd};
use approx_dropout::{Activation, DropoutPlan};
use rand::Rng;
use tensor::{gemm, init, GatherEpilogue, GatherScratch, GemmError, Matrix};

/// The execution strategy a [`DropoutPlan`] implies for a fully connected
/// layer — classified once per forward pass and kept for the matching
/// backward pass, so the two can never disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum ExecPath {
    /// Dense GEMM; a Bernoulli (or divergent) plan's per-neuron column mask
    /// rides in the epilogue.
    #[default]
    Dense,
    /// The gather core over the classes resolved into the layer's
    /// [`GatherScratch`], finished by this epilogue.
    Gather(GatherEpilogue),
}

/// Classifies a plan, resolving any compaction into `gather` for a weight of
/// shape `(k, n)`.
fn exec_path(
    plan: &DropoutPlan,
    (k, n): (usize, usize),
    gather: &mut GatherScratch,
) -> Result<ExecPath, GemmError> {
    let scale = plan.scale();
    // CRS is orthogonal to the output-neuron families, so it is classified
    // first: a plan carrying both a kept-row set and a kept-K selection is
    // the composed double compaction. The K/k estimator scale corrects the
    // raw product *before* the bias, so the bias is never inflated.
    if let Some(selection) = plan.crs_selection() {
        let (kept_k, pre) = (selection.kept_indices(), selection.scale());
        let epilogue = match plan.compact_rows() {
            Some(kept) => {
                gather.resolve_nk(kept_k, kept);
                GatherEpilogue::Neurons { pre, post: scale }
            }
            None => {
                gather.resolve_k(kept_k);
                GatherEpilogue::Synapses { pre }
            }
        };
        return Ok(ExecPath::Gather(epilogue));
    }
    let neurons = ExecPath::Gather(GatherEpilogue::Neurons {
        pre: 1.0,
        post: scale,
    });
    if let Some(kept) = plan.compact_rows() {
        gather.resolve_cols(kept);
        return Ok(neurons);
    }
    if let Some((kept, lanes, group)) = plan.nm_lanes() {
        gather.resolve_nm(kept, lanes, group, n)?;
        return Ok(neurons);
    }
    if let Some((kept, block, _)) = plan.kept_unit_blocks() {
        gather.resolve_blocks(kept, block, n)?;
        return Ok(neurons);
    }
    if let Some((kept, grid)) = plan.kept_tiles() {
        // Dropped synapses leave every neuron alive: the bias reaches all
        // columns.
        gather.resolve_tiles(kept, grid.tile(), k, n)?;
        return Ok(ExecPath::Gather(GatherEpilogue::Synapses { pre: scale }));
    }
    Ok(ExecPath::Dense)
}

/// A fully connected layer with weights `(in_features × out_features)` and a
/// row-vector bias.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Param,
    bias: Param,
    ws: Workspace,
}

/// Per-layer scratch workspace: every buffer the forward/backward pair needs
/// is owned by the layer and recycled across iterations, so the hot path
/// performs no per-iteration heap allocations for caching inputs or plans —
/// `clone_from` copies into the warmed buffers instead of cloning afresh.
#[derive(Debug, Clone, Default, PartialEq)]
struct Workspace {
    /// Cached forward input (contents copied per iteration, buffer reused).
    input: Matrix,
    /// Cached dropout plan (kept-index / mask buffers reused).
    plan: DropoutPlan,
    /// The forward pass's classification of `plan`.
    path: ExecPath,
    /// `true` between a forward pass and the matching backward pass.
    armed: bool,
    /// Masked / scaled output-gradient buffer of the Bernoulli-masked dense
    /// path.
    grad: Matrix,
    /// The gather core's resolved classes and packing buffers. Each pass
    /// packs the weight panels it reads afresh, so nothing packed by the
    /// forward pass is reused by the backward pass's `dX` product and the
    /// weights may change between the two.
    gather: GatherScratch,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let weight = init::xavier_uniform(rng, in_features, out_features);
        Self::from_parameters(weight, Matrix::zeros(1, out_features))
    }

    /// Creates a layer with explicit parameters and a zero gradient and
    /// velocity.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a `1 × out_features` row vector.
    pub fn from_parameters(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(
            bias.cols(),
            weight.cols(),
            "bias width must match weight columns"
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            ws: Workspace::default(),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.value.cols()
    }

    /// Borrows the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight.value
    }

    /// Borrows the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias.value
    }

    /// Borrows the most recent weight gradient (for tests and diagnostics).
    pub fn weight_grad(&self) -> &Matrix {
        &self.weight.grad
    }

    /// Borrows the most recent bias gradient (for tests and diagnostics).
    pub fn bias_grad(&self) -> &Matrix {
        &self.bias.grad
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weight.value.len() + self.bias.value.len()
    }

    /// Forward pass executing the given dropout plan, without an activation;
    /// caches what the backward pass needs. Allocates the returned output —
    /// the training hot paths use [`Linear::forward_act_into`], of which
    /// this is the [`Activation::Identity`] case.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != in_features()`.
    pub fn forward(&mut self, input: &Matrix, plan: &DropoutPlan) -> Matrix {
        let mut out = Matrix::default();
        self.forward_act_into(input, plan, Activation::Identity, &mut out);
        out
    }

    /// Fused whole-layer forward pass: executes the plan, the bias add and
    /// `act` as **one** fused kernel per layer, writing into the
    /// caller-owned `out` buffer. Caches exactly what [`Linear::backward`]
    /// needs.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != in_features()`.
    pub fn forward_act_into(
        &mut self,
        input: &Matrix,
        plan: &DropoutPlan,
        act: Activation,
        out: &mut Matrix,
    ) {
        assert_eq!(
            input.cols(),
            self.in_features(),
            "input width must match in_features"
        );
        let (weight, bias) = (&self.weight.value, &self.bias.value);
        let path = exec_path(plan, weight.shape(), &mut self.ws.gather)
            .expect("the plan resolves against the layer it was sampled for");
        match path {
            ExecPath::Gather(epilogue) => gemm::gather_gemm_bias_act_into(
                input,
                weight,
                bias,
                epilogue,
                act,
                &mut self.ws.gather,
                out,
            ),
            ExecPath::Dense => match plan.bernoulli_mask() {
                Some(mask) => gemm::gemm_bias_act_masked_into(
                    input,
                    weight,
                    bias,
                    mask,
                    plan.scale(),
                    act,
                    out,
                ),
                None => gemm::gemm_bias_act_into(input, weight, bias, act, out),
            },
        }
        .expect("shapes agree and kept indices come from the plan");
        // Cache by copying into the warmed workspace buffers: no fresh heap
        // allocation once shapes have stabilised.
        self.ws.input.clone_from(input);
        self.ws.plan.clone_from(plan);
        self.ws.path = path;
        self.ws.armed = true;
    }

    /// Backward pass: consumes the gradient w.r.t. this layer's output and
    /// returns the gradient w.r.t. its input, storing parameter gradients.
    /// The same cached plan that shaped the forward pass shapes the
    /// gradients (paper Fig. 1(a): one mask for both directions).
    ///
    /// Allocates the returned `dX` matrix; the training hot paths use
    /// [`Linear::backward_into`] instead, which writes into caller scratch.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward`] or with a gradient whose
    /// shape does not match the cached forward pass.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(grad_output, &mut dx);
        dx
    }

    /// Like [`Linear::backward`] but writing the input gradient into the
    /// caller-owned `dx` buffer (resized in place, allocation reused once
    /// warmed) — the backward counterpart of [`Linear::forward_act_into`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Linear::backward`].
    pub fn backward_into(&mut self, grad_output: &Matrix, dx: &mut Matrix) {
        self.backward_body(grad_output, Some(dx));
    }

    /// Like [`Linear::backward_into`] but computing only the parameter
    /// gradients: for a model's first layer, whose input gradient nothing
    /// reads, the `dX` product is skipped altogether.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Linear::backward`].
    pub(crate) fn backward_params(&mut self, grad_output: &Matrix) {
        self.backward_body(grad_output, None);
    }

    /// The one backward body: parameter gradients always, `dX` into `dx`
    /// when one is asked for.
    fn backward_body(&mut self, grad_output: &Matrix, dx: Option<&mut Matrix>) {
        assert!(self.ws.armed, "backward called without a preceding forward");
        // Move the workspace out (cheap pointer swaps, no allocation) so its
        // buffers can be borrowed alongside `self`'s parameter fields.
        let mut ws = std::mem::take(&mut self.ws);
        ws.armed = false;
        assert_eq!(grad_output.rows(), ws.input.rows(), "batch size mismatch");
        assert_eq!(
            grad_output.cols(),
            self.out_features(),
            "output width mismatch"
        );
        match ws.path {
            ExecPath::Gather(epilogue) => {
                // dW = Xᵀ·(s·G) and dX = (s·G)·Wᵀ over the resolved classes
                // only: dropped entries of dW stay exactly zero.
                gemm::gather_backward_into(
                    &ws.input,
                    grad_output,
                    &self.weight.value,
                    epilogue.grad_scale(),
                    &mut ws.gather,
                    &mut self.weight.grad,
                    dx,
                )
                .expect("shapes agree and kept indices come from the plan");
                match epilogue {
                    // Dropped neurons get no bias gradient; kept ones scale
                    // by the dropout factor only (the bias sits outside any
                    // sampled product).
                    GatherEpilogue::Neurons { post, .. } => {
                        self.bias.grad.resize(1, grad_output.cols());
                        let acc = self.bias.grad.row_mut(0);
                        let kept = ws.gather.kept_cols();
                        for i in 0..grad_output.rows() {
                            let row = grad_output.row(i);
                            for &j in kept {
                                acc[j] += row[j] * post;
                            }
                        }
                    }
                    // The bias is added after the scaled product and reaches
                    // every neuron: plain column sums.
                    GatherEpilogue::Synapses { .. } => {
                        grad_output.sum_rows_into(&mut self.bias.grad);
                    }
                }
            }
            ExecPath::Dense => {
                // Dense path: a Bernoulli-masked plan lets the gradient flow
                // only through kept neurons, scaled like the forward pass;
                // the identity plan reads `grad_output` as it is.
                let grad = if ws.plan.bernoulli_mask().is_some() {
                    ws.grad.clone_from(grad_output);
                    ws.plan.apply_mask(&mut ws.grad);
                    &ws.grad
                } else {
                    grad_output
                };
                gemm::gemm_at_b_into(&ws.input, grad, &mut self.weight.grad)
                    .expect("batch dimensions agree");
                grad.sum_rows_into(&mut self.bias.grad);
                if let Some(dx) = dx {
                    gemm::gemm_a_bt_into(grad, &self.weight.value, dx)
                        .expect("inner dimensions agree");
                }
            }
        }
        self.ws = ws;
    }

    /// Applies one SGD step using the stored gradients: the step every
    /// model family runs, over this layer's weight and bias.
    pub fn step(&mut self, sgd: &Sgd) {
        sgd.step(self);
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Full 0/1 tile mask over the weight matrix — the reference formulation for
/// the equivalence tests below.
#[cfg(test)]
fn tile_mask(kept: &[usize], grid: &approx_dropout::TileGrid) -> Matrix {
    let (rows, cols) = grid.weight_shape();
    let mut mask = Matrix::zeros(rows, cols);
    for &t in kept {
        let (rr, cc) = grid.tile_bounds(t);
        for r in rr.clone() {
            for c in cc.clone() {
                mask[(r, c)] = 1.0;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::{LayerShape, RowPattern, TileGrid, TilePattern};

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_layer() -> Linear {
        let weight = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let bias = Matrix::from_rows(&[&[0.5, -0.5, 0.0]]);
        Linear::from_parameters(weight, bias)
    }

    fn dense_plan(layer: &Linear) -> DropoutPlan {
        DropoutPlan::none(LayerShape::new(layer.in_features(), layer.out_features()))
    }

    fn row_plan(layer: &Linear, dp: usize, bias: usize) -> DropoutPlan {
        let n = layer.out_features();
        DropoutPlan::row(
            LayerShape::new(layer.in_features(), n),
            RowPattern::new(dp, bias).unwrap(),
        )
    }

    fn tile_plan(layer: &Linear, dp: usize, bias: usize, tile: usize) -> DropoutPlan {
        let grid = TileGrid::new(layer.in_features(), layer.out_features(), tile).unwrap();
        let pattern = TilePattern::new(dp, bias, tile).unwrap();
        DropoutPlan::tile(
            LayerShape::new(layer.in_features(), layer.out_features()),
            pattern,
            grid,
        )
    }

    #[test]
    fn dense_forward_matches_manual_computation() {
        let mut layer = small_layer();
        let plan = dense_plan(&layer);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = layer.forward(&x, &plan);
        assert_eq!(y.row(0), &[5.5, 6.5, 9.0]);
    }

    #[test]
    fn dense_backward_gradients_are_correct() {
        let mut layer = small_layer();
        let plan = dense_plan(&layer);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let _ = layer.forward(&x, &plan);
        let dy = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]);
        let dx = layer.backward(&dy);
        // dX = dy * W^T = [1*1 + 0*2 + (-1)*3, 1*4 + 0*5 + (-1)*6] = [-2, -2]
        assert_eq!(dx.row(0), &[-2.0, -2.0]);
        // dW = x^T * dy
        assert_eq!(layer.weight_grad().row(0), &[1.0, 0.0, -1.0]);
        assert_eq!(layer.weight_grad().row(1), &[2.0, 0.0, -2.0]);
    }

    #[test]
    fn numerical_gradient_check_dense() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(&mut rng, 4, 3);
        let plan = dense_plan(&layer);
        let x = init::uniform(&mut rng, 2, 4, -1.0, 1.0);
        // Loss = sum of outputs; analytic dL/dW = x^T * ones.
        let _ = layer.forward(&x, &plan);
        let ones = Matrix::ones(2, 3);
        let _ = layer.backward(&ones);
        let analytic = layer.weight_grad().clone();

        let eps = 1e-2f32;
        let mut numeric = Matrix::zeros(4, 3);
        for r in 0..4 {
            for c in 0..3 {
                let mut plus = layer.clone();
                let mut w = plus.weight.value.clone();
                w[(r, c)] += eps;
                plus.weight.value = w;
                let mut minus = layer.clone();
                let mut w = minus.weight.value.clone();
                w[(r, c)] -= eps;
                minus.weight.value = w;
                let f_plus = plus.forward(&x, &plan).sum();
                let f_minus = minus.forward(&x, &plan).sum();
                numeric[(r, c)] = (f_plus - f_minus) / (2.0 * eps);
            }
        }
        for r in 0..4 {
            for c in 0..3 {
                assert!(
                    (analytic[(r, c)] - numeric[(r, c)]).abs() < 1e-2,
                    "grad mismatch at ({r},{c}): {} vs {}",
                    analytic[(r, c)],
                    numeric[(r, c)]
                );
            }
        }
    }

    #[test]
    fn row_plan_forward_zeroes_dropped_neurons_and_scales_kept() {
        let mut layer = small_layer();
        let plan = row_plan(&layer, 3, 1);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = layer.forward(&x, &plan);
        // Only neuron 1 is kept: (1*2 + 1*5 + bias -0.5) * 3 = 19.5.
        assert_eq!(y.row(0), &[0.0, 19.5, 0.0]);
    }

    #[test]
    fn row_plan_matches_explicit_mask_formulation() {
        // Computing the dense output, masking dropped neurons and scaling by
        // dp must equal the compacted path.
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(&mut rng, 6, 8);
        let plan = row_plan(&layer, 2, 0);
        let x = init::uniform(&mut rng, 3, 6, -1.0, 1.0);
        let kept = plan.compact_rows().unwrap().to_vec();
        let compact = layer.clone().forward(&x, &plan);
        let dplan = dense_plan(&layer);
        let dense = layer.forward(&x, &dplan);
        for i in 0..3 {
            for j in 0..8 {
                let expected = if kept.contains(&j) {
                    dense[(i, j)] * 2.0
                } else {
                    0.0
                };
                assert!(
                    (compact[(i, j)] - expected).abs() < 1e-4,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn row_plan_backward_zeroes_dropped_weight_columns() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(&mut rng, 4, 6);
        let plan = row_plan(&layer, 2, 1);
        let kept = plan.compact_rows().unwrap().to_vec();
        let x = init::uniform(&mut rng, 2, 4, -1.0, 1.0);
        let _ = layer.forward(&x, &plan);
        let dy = Matrix::ones(2, 6);
        let dx = layer.backward(&dy);
        assert_eq!(dx.shape(), (2, 4));
        for c in 0..6 {
            let col_norm: f32 = (0..4).map(|r| layer.weight_grad()[(r, c)].abs()).sum();
            if kept.contains(&c) {
                assert!(col_norm > 0.0, "kept column {c} should receive gradient");
            } else {
                assert_eq!(col_norm, 0.0, "dropped column {c} must have zero gradient");
            }
        }
    }

    #[test]
    fn tile_plan_forward_matches_masked_weight_formulation() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Linear::new(&mut rng, 8, 8);
        let x = init::uniform(&mut rng, 2, 8, -1.0, 1.0);
        let plan = tile_plan(&layer, 2, 0, 4);
        let (kept, grid) = plan.kept_tiles().unwrap();
        let mask = tile_mask(kept, grid);
        let mut compact_layer = layer.clone();
        let compact = compact_layer.forward(&x, &plan);
        // Reference: mask the weights, dense multiply, scale by dp, add bias.
        let masked_w = layer.weight().hadamard(&mask).unwrap();
        let reference = x
            .matmul(&masked_w)
            .scale(2.0)
            .add_row_broadcast(layer.bias())
            .unwrap();
        assert!(tensor::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn tile_plan_backward_zeroes_dropped_tiles() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Linear::new(&mut rng, 8, 8);
        let x = init::uniform(&mut rng, 2, 8, -1.0, 1.0);
        let plan = tile_plan(&layer, 4, 3, 4);
        let (kept, grid) = plan.kept_tiles().unwrap();
        let kept = kept.to_vec(); // only tile 3
        let grid = *grid;
        let _ = layer.forward(&x, &plan);
        let _ = layer.backward(&Matrix::ones(2, 8));
        for t in 0..grid.total_tiles() {
            let (rr, cc) = grid.tile_bounds(t);
            let norm: f32 = rr
                .clone()
                .flat_map(|r| cc.clone().map(move |c| (r, c)))
                .map(|(r, c)| layer.weight_grad()[(r, c)].abs())
                .sum();
            if kept.contains(&t) {
                assert!(norm > 0.0, "kept tile {t} should receive gradient");
            } else {
                assert_eq!(norm, 0.0, "dropped tile {t} must have zero gradient");
            }
        }
    }

    fn nm_plan(layer: &Linear, n: usize, m: usize, seed: u64) -> DropoutPlan {
        let mut scheme = approx_dropout::NmSparsity::new(n, m).unwrap();
        use approx_dropout::DropoutScheme;
        scheme.plan(
            &mut StdRng::seed_from_u64(seed),
            LayerShape::new(layer.in_features(), layer.out_features()),
        )
    }

    fn block_plan(layer: &Linear, rate: f64, block: usize, seed: u64) -> DropoutPlan {
        let mut scheme =
            approx_dropout::BlockUnit::new(approx_dropout::DropoutRate::new(rate).unwrap(), block)
                .unwrap();
        use approx_dropout::DropoutScheme;
        scheme.plan(
            &mut StdRng::seed_from_u64(seed),
            LayerShape::new(layer.in_features(), layer.out_features()),
        )
    }

    /// Masked-dense forward reference shared by the structured plans: dense
    /// `X·W + b`, then the plan's column multiplier.
    fn column_masked_reference(layer: &Linear, x: &Matrix, plan: &DropoutPlan) -> Matrix {
        let dense = x
            .matmul(layer.weight())
            .add_row_broadcast(layer.bias())
            .unwrap();
        let mult = plan.column_multiplier(layer.out_features());
        Matrix::from_fn(dense.rows(), dense.cols(), |i, j| dense[(i, j)] * mult[j])
    }

    #[test]
    fn nm_plan_forward_matches_masked_dense() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut layer = Linear::new(&mut rng, 6, 12);
        let plan = nm_plan(&layer, 2, 4, 99);
        let x = init::uniform(&mut rng, 3, 6, -1.0, 1.0);
        let reference = column_masked_reference(&layer, &x, &plan);
        let compact = layer.forward(&x, &plan);
        assert!(tensor::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-3
        ));
        // Exactly half the output columns are live under 2:4.
        let live = (0..12)
            .filter(|&j| (0..3).any(|i| compact[(i, j)] != 0.0))
            .count();
        assert_eq!(live, 6);
    }

    #[test]
    fn nm_plan_backward_zeroes_dropped_lane_gradients() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut layer = Linear::new(&mut rng, 5, 8);
        let plan = nm_plan(&layer, 1, 4, 7);
        let (kept, _, _) = plan.nm_lanes().unwrap();
        let kept = kept.to_vec();
        let x = init::uniform(&mut rng, 4, 5, -1.0, 1.0);
        let _ = layer.forward(&x, &plan);
        let dx = layer.backward(&Matrix::ones(4, 8));
        assert_eq!(dx.shape(), (4, 5));
        for c in 0..8 {
            let col_norm: f32 = (0..5).map(|r| layer.weight_grad()[(r, c)].abs()).sum();
            if kept.contains(&c) {
                assert!(col_norm > 0.0, "kept lane {c} should receive gradient");
            } else {
                assert_eq!(col_norm, 0.0, "dropped lane {c} must have zero gradient");
            }
        }
    }

    #[test]
    fn block_plan_forward_matches_masked_dense() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut layer = Linear::new(&mut rng, 7, 10); // ragged last block
        let plan = block_plan(&layer, 0.5, 4, 3);
        let x = init::uniform(&mut rng, 3, 7, -1.0, 1.0);
        let reference = column_masked_reference(&layer, &x, &plan);
        let compact = layer.forward(&x, &plan);
        assert!(tensor::approx_eq_slice(
            compact.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn block_plan_backward_zeroes_dropped_block_gradients() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut layer = Linear::new(&mut rng, 6, 12);
        let plan = block_plan(&layer, 0.5, 4, 11);
        let (kept, block, total) = plan.kept_unit_blocks().unwrap();
        let kept = kept.to_vec();
        assert!(kept.len() < total, "seed should drop at least one block");
        let x = init::uniform(&mut rng, 3, 6, -1.0, 1.0);
        let _ = layer.forward(&x, &plan);
        let _ = layer.backward(&Matrix::ones(3, 12));
        for b in 0..total {
            let cols = (b * block)..((b + 1) * block).min(12);
            let norm: f32 = cols
                .flat_map(|c| (0..6).map(move |r| (r, c)))
                .map(|(r, c)| layer.weight_grad()[(r, c)].abs())
                .sum();
            if kept.contains(&b) {
                assert!(norm > 0.0, "kept block {b} should receive gradient");
            } else {
                assert_eq!(norm, 0.0, "dropped block {b} must have zero gradient");
            }
        }
    }

    #[test]
    fn structured_numerical_gradient_check() {
        // Loss = sum of outputs under a fixed structured plan; analytic dW
        // must match central differences through the compacted kernels.
        for (label, plan_of) in [
            (
                "nm",
                Box::new(|l: &Linear| nm_plan(l, 2, 4, 5)) as Box<dyn Fn(&Linear) -> DropoutPlan>,
            ),
            ("block", Box::new(|l: &Linear| block_plan(l, 0.5, 2, 5))),
        ] {
            let mut rng = StdRng::seed_from_u64(24);
            let mut layer = Linear::new(&mut rng, 4, 8);
            let plan = plan_of(&layer);
            let x = init::uniform(&mut rng, 2, 4, -1.0, 1.0);
            let _ = layer.forward(&x, &plan);
            let _ = layer.backward(&Matrix::ones(2, 8));
            let analytic = layer.weight_grad().clone();
            let eps = 1e-2f32;
            for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5), (3, 7)] {
                let perturb = |delta: f32| {
                    let mut copy = layer.clone();
                    let mut w = copy.weight.value.clone();
                    w[(r, c)] += delta;
                    copy.weight.value = w;
                    copy.forward(&x, &plan).sum()
                };
                let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                assert!(
                    (analytic[(r, c)] - numeric).abs() < 2e-2,
                    "{label} grad mismatch at ({r},{c}): {} vs {numeric}",
                    analytic[(r, c)]
                );
            }
        }
    }

    #[test]
    fn bernoulli_plan_masks_forward_and_backward() {
        let mut layer = small_layer();
        let plan =
            DropoutPlan::bernoulli(LayerShape::new(2, 3), vec![1.0, 0.0, 1.0], 2.0, 1.0 / 3.0);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = layer.forward(&x, &plan);
        // Dense output [5.5, 6.5, 9.0] masked to [11.0, 0.0, 18.0].
        assert_eq!(y.row(0), &[11.0, 0.0, 18.0]);
        let _ = layer.backward(&Matrix::ones(1, 3));
        // Column 1 is dropped, so its weight gradient must be zero.
        assert_eq!(layer.weight_grad()[(0, 1)], 0.0);
        assert_eq!(layer.weight_grad()[(1, 1)], 0.0);
        assert!(layer.weight_grad()[(0, 0)] > 0.0);
    }

    #[test]
    fn step_moves_parameters_against_gradient() {
        let mut layer = small_layer();
        let plan = dense_plan(&layer);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let before = layer.weight()[(0, 0)];
        let _ = layer.forward(&x, &plan);
        let _ = layer.backward(&Matrix::ones(1, 3));
        layer.step(&Sgd::new(0.1, 0.0));
        assert!(layer.weight()[(0, 0)] < before);
    }

    #[test]
    #[should_panic(expected = "backward called without a preceding forward")]
    fn backward_requires_forward() {
        let mut layer = small_layer();
        let _ = layer.backward(&Matrix::ones(1, 3));
    }

    #[test]
    #[should_panic(expected = "input width must match")]
    fn forward_rejects_wrong_input_width() {
        let mut layer = small_layer();
        let plan = dense_plan(&layer);
        let _ = layer.forward(&Matrix::ones(1, 5), &plan);
    }

    #[test]
    fn parameter_count_includes_bias() {
        let layer = small_layer();
        assert_eq!(layer.parameter_count(), 2 * 3 + 3);
        assert_eq!(layer.in_features(), 2);
        assert_eq!(layer.out_features(), 3);
    }

    fn crs_plan(layer: &Linear, keep: f64, seed: u64) -> DropoutPlan {
        let mut scheme = approx_dropout::CrsSampling::new(keep).unwrap();
        use approx_dropout::DropoutScheme;
        scheme.plan(
            &mut StdRng::seed_from_u64(seed),
            LayerShape::new(layer.in_features(), layer.out_features()),
        )
    }

    fn row_crs_plan(layer: &Linear, rate: f64, keep: f64, seed: u64) -> DropoutPlan {
        let mut scheme = approx_dropout::scheme::row_crs(
            approx_dropout::DropoutRate::new(rate).unwrap(),
            4,
            keep,
        )
        .unwrap();
        scheme.plan(
            &mut StdRng::seed_from_u64(seed),
            LayerShape::new(layer.in_features(), layer.out_features()),
        )
    }

    #[test]
    fn crs_plan_forward_matches_masked_input_reference() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut layer = Linear::new(&mut rng, 12, 7);
        let plan = crs_plan(&layer, 0.5, 77);
        let selection = plan.crs_selection().unwrap();
        let kept_k = selection.kept_indices().to_vec();
        let crs_scale = selection.scale();
        assert_eq!(kept_k.len(), 6);
        let x = init::uniform(&mut rng, 3, 12, -1.0, 1.0);
        // Reference: zero the dropped inner columns of X, dense multiply,
        // apply the K/k estimator scale, then the bias.
        let mut x_masked = x.clone();
        for i in 0..3 {
            for (p, v) in x_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        let reference = x_masked
            .matmul(layer.weight())
            .scale(crs_scale)
            .add_row_broadcast(layer.bias())
            .unwrap();
        let sampled = layer.forward(&x, &plan);
        assert!(tensor::approx_eq_slice(
            sampled.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn crs_full_keep_is_bitwise_dense() {
        // keep == 1.0 keeps every inner index in order and the estimator
        // scale is exactly 1, so the sampled path must reproduce the dense
        // forward bitwise — the no-sampling degeneracy.
        let mut rng = StdRng::seed_from_u64(31);
        let mut layer = Linear::new(&mut rng, 9, 6);
        let plan = crs_plan(&layer, 1.0, 5);
        assert_eq!(plan.crs_scale(), 1.0);
        let x = init::uniform(&mut rng, 4, 9, -1.0, 1.0);
        let sampled = layer.clone().forward(&x, &plan);
        let dense = layer.forward(&x, &dense_plan(&layer));
        assert_eq!(sampled, dense);
    }

    #[test]
    fn crs_estimator_is_unbiased_over_seeds() {
        // E[K/k · Σ_{p∈S} x_p w_p] over uniform k-subsets S equals the dense
        // product, so the mean forward output over many sampled plans must
        // converge to the dense output.
        let mut rng = StdRng::seed_from_u64(32);
        let mut layer = Linear::new(&mut rng, 10, 4);
        let x = init::uniform(&mut rng, 2, 10, -1.0, 1.0);
        let dense = layer.clone().forward(&x, &dense_plan(&layer));
        let mut mean = Matrix::zeros(2, 4);
        let trials = 4000;
        for seed in 0..trials {
            let plan = crs_plan(&layer, 0.5, seed);
            let y = layer.forward(&x, &plan);
            for i in 0..2 {
                for j in 0..4 {
                    mean[(i, j)] += y[(i, j)] / trials as f32;
                }
            }
        }
        for i in 0..2 {
            for j in 0..4 {
                assert!(
                    (mean[(i, j)] - dense[(i, j)]).abs() < 0.1,
                    "estimator biased at ({i},{j}): mean {} vs dense {}",
                    mean[(i, j)],
                    dense[(i, j)]
                );
            }
        }
    }

    #[test]
    fn composed_row_crs_plan_matches_masked_reference() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut layer = Linear::new(&mut rng, 10, 8);
        // The sampled pattern period varies by seed; scan deterministically
        // for one that actually drops a neuron.
        let plan = (0..32)
            .map(|seed| row_crs_plan(&layer, 0.5, 0.5, seed))
            .find(|p| p.compact_rows().is_some_and(|kept| kept.len() < 8))
            .expect("some seed below 32 drops at least one neuron");
        let kept = plan.compact_rows().unwrap().to_vec();
        let selection = plan.crs_selection().unwrap();
        let kept_k = selection.kept_indices().to_vec();
        let crs_scale = selection.scale();
        let row_scale = plan.scale();
        assert!(kept.len() < 8, "seed should drop at least one neuron");
        assert_eq!(kept_k.len(), 5);
        let x = init::uniform(&mut rng, 3, 10, -1.0, 1.0);
        // Reference: mask the dropped inner columns of X, dense multiply,
        // then per kept output column (crs_scale·q + b)·row_scale, dropped
        // columns exactly zero.
        let mut x_masked = x.clone();
        for i in 0..3 {
            for (p, v) in x_masked.row_mut(i).iter_mut().enumerate() {
                if !kept_k.contains(&p) {
                    *v = 0.0;
                }
            }
        }
        let q = x_masked.matmul(layer.weight());
        let reference = Matrix::from_fn(3, 8, |i, j| {
            if kept.contains(&j) {
                (q[(i, j)] * crs_scale + layer.bias()[(0, j)]) * row_scale
            } else {
                0.0
            }
        });
        let composed = layer.forward(&x, &plan);
        assert!(tensor::approx_eq_slice(
            composed.as_slice(),
            reference.as_slice(),
            1e-3
        ));
    }

    #[test]
    fn crs_numerical_gradient_check() {
        // Loss = sum of outputs under a fixed sampled plan (pure CRS and
        // composed row×CRS); analytic dW must match central differences
        // through the K-gather kernels.
        for (label, plan_of) in [
            (
                "crs",
                Box::new(|l: &Linear| crs_plan(l, 0.5, 9)) as Box<dyn Fn(&Linear) -> DropoutPlan>,
            ),
            (
                "row-crs",
                Box::new(|l: &Linear| row_crs_plan(l, 0.5, 0.5, 9)),
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(34);
            let mut layer = Linear::new(&mut rng, 6, 8);
            let plan = plan_of(&layer);
            let x = init::uniform(&mut rng, 2, 6, -1.0, 1.0);
            let _ = layer.forward(&x, &plan);
            let _ = layer.backward(&Matrix::ones(2, 8));
            let analytic = layer.weight_grad().clone();
            let eps = 1e-2f32;
            for &(r, c) in &[(0usize, 0usize), (1, 3), (3, 5), (5, 7)] {
                let perturb = |delta: f32| {
                    let mut copy = layer.clone();
                    let mut w = copy.weight.value.clone();
                    w[(r, c)] += delta;
                    copy.weight.value = w;
                    copy.forward(&x, &plan).sum()
                };
                let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                assert!(
                    (analytic[(r, c)] - numeric).abs() < 2e-2,
                    "{label} grad mismatch at ({r},{c}): {} vs {numeric}",
                    analytic[(r, c)]
                );
            }
        }
    }

    /// The parameter-only backward a first layer runs computes exactly the
    /// `dW` and bias gradient of the full backward, for every plan family,
    /// over two SGD steps (the second on stepped weights).
    #[test]
    fn parameter_only_backward_matches_backward_into_bitwise() {
        let mut rng = StdRng::seed_from_u64(40);
        let layer = Linear::new(&mut rng, 37, 48);
        let x = init::uniform(&mut rng, 40, 37, -1.0, 1.0);
        let g = init::uniform(&mut rng, 40, 48, -1.0, 1.0);
        let mask = (0..48)
            .map(|j| if j % 3 == 0 { 0.0 } else { 1.0 })
            .collect();
        let shape = LayerShape::new(37, 48);
        let plans = [
            ("none", dense_plan(&layer)),
            (
                "bernoulli",
                DropoutPlan::bernoulli(shape, mask, 1.5, 1.0 / 3.0),
            ),
            ("row", row_plan(&layer, 2, 1)),
            ("tile", tile_plan(&layer, 2, 0, 8)),
            ("nm", nm_plan(&layer, 2, 4, 3)),
            ("block", block_plan(&layer, 0.5, 8, 4)),
            ("crs", crs_plan(&layer, 0.5, 5)),
            ("row_crs", row_crs_plan(&layer, 0.5, 0.5, 6)),
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let sgd = Sgd::new(0.1, 0.9);
        for (label, plan) in &plans {
            let (mut full, mut params) = (layer.clone(), layer.clone());
            let (mut out, mut dx) = (Matrix::default(), Matrix::default());
            for step in 0..2 {
                full.forward_act_into(&x, plan, Activation::Relu, &mut out);
                params.forward_act_into(&x, plan, Activation::Relu, &mut out);
                full.backward_into(&g, &mut dx);
                params.backward_params(&g);
                let what = format!("{label}, step {step}");
                assert_eq!(
                    bits(full.weight_grad()),
                    bits(params.weight_grad()),
                    "dW, {what}"
                );
                assert_eq!(
                    bits(full.bias_grad()),
                    bits(params.bias_grad()),
                    "db, {what}"
                );
                full.step(&sgd);
                params.step(&sgd);
            }
            assert_eq!(
                bits(full.weight()),
                bits(params.weight()),
                "{label}: W after two steps"
            );
            assert_eq!(
                bits(full.bias()),
                bits(params.bias()),
                "{label}: b after two steps"
            );
        }
    }

    #[test]
    fn crs_backward_zeroes_dropped_inner_gradients() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut layer = Linear::new(&mut rng, 8, 6);
        let plan = crs_plan(&layer, 0.5, 13);
        let kept_k = plan.crs_selection().unwrap().kept_indices().to_vec();
        let x = init::uniform(&mut rng, 3, 8, -1.0, 1.0);
        let _ = layer.forward(&x, &plan);
        let dx = layer.backward(&Matrix::ones(3, 6));
        assert_eq!(dx.shape(), (3, 8));
        for p in 0..8 {
            let row_norm: f32 = (0..6).map(|c| layer.weight_grad()[(p, c)].abs()).sum();
            let dx_norm: f32 = (0..3).map(|i| dx[(i, p)].abs()).sum();
            if kept_k.contains(&p) {
                assert!(row_norm > 0.0, "kept inner index {p} should get gradient");
            } else {
                assert_eq!(row_norm, 0.0, "dropped weight row {p} must be zero");
                assert_eq!(dx_norm, 0.0, "dropped input column {p} must be zero");
            }
        }
    }
}
