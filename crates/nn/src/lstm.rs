//! LSTM language model for the §IV-C experiments.
//!
//! The model is a word-level next-token predictor: an embedding table, a
//! stack of LSTM layers with dropout applied to each layer's output (shared
//! across all timesteps of one iteration, exactly like the paper applies one
//! pattern per batch), and a softmax projection over the vocabulary.
//!
//! Dropout between LSTM layers is applied as a per-hidden-unit multiplier
//! derived from the plan each layer's scheme samples for the iteration
//! ([`DropoutPlan::column_multiplier`]): conventional Bernoulli masks, row
//! patterns (kept units scaled by `dp`) or tile patterns (kept 32-wide unit
//! groups). On the GPU the row/tile variants let the next layer's GEMM skip
//! the dropped inputs; the corresponding time saving is modelled by the
//! `gpu-sim` crate from the *same* sampled plans, while this CPU
//! implementation focuses on numerical fidelity of the training dynamics.

use crate::layers::Linear;
use crate::loss::{softmax_cross_entropy, softmax_cross_entropy_into, CrossEntropyScratch};
use crate::metrics::perplexity_from_nll;
use crate::mlp::PlanSource;
use crate::optimizer::Sgd;
use approx_dropout::{Activation, DropoutPlan, DropoutScheme, LayerShape};
use rand::Rng;
use tensor::{gemm, init, Matrix};

/// One LSTM layer (cell iterated over a sequence) with combined gate weights.
///
/// Gate layout along the `4·hidden` axis is `[input | forget | cell | output]`.
///
/// The per-timestep gate matrices live in recycled workspaces: the
/// `StepCache` entries are reused across *iterations* (re-resolved in
/// place each forward pass) and the gate pre-activation / BPTT buffers are
/// reused across *timesteps*, so the sequence loops perform no per-step
/// heap allocations once the shapes have stabilised — the same workspace
/// discipline the `Linear` layer follows.
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_x: Matrix,
    w_h: Matrix,
    bias: Matrix,
    w_x_grad: Matrix,
    w_h_grad: Matrix,
    bias_grad: Matrix,
    w_x_vel: Matrix,
    w_h_vel: Matrix,
    bias_vel: Matrix,
    hidden: usize,
    /// Per-timestep caches, reused across iterations (entries are
    /// re-resolved in place, never reallocated while shapes are stable).
    cache: Vec<StepCache>,
    /// Timesteps cached by the most recent forward pass (the cache vector
    /// itself persists for buffer reuse, so its length is not the marker).
    steps: usize,
    /// Running hidden state of the forward sequence loop.
    h_state: Matrix,
    /// Running cell state of the forward sequence loop.
    c_state: Matrix,
    /// Gate pre-activation workspace `z = x·W_x + h·W_h + b`.
    z_ws: Matrix,
    /// Second GEMM product workspace (`h·W_h`) merged into `z_ws`.
    zh_ws: Matrix,
    /// Backward-through-time workspaces.
    bptt: BpttWorkspace,
}

#[derive(Debug, Clone, Default)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c: Matrix,
}

/// Recycled buffers of the backward-through-time loop: the combined gate
/// gradient and the recurrent hidden/cell gradients that flow between
/// timesteps, plus the per-step bias-row reduction.
#[derive(Debug, Clone, Default)]
struct BpttWorkspace {
    dz: Matrix,
    dh_next: Matrix,
    dc_next: Matrix,
    bias_rows: Matrix,
    /// Per-timestep weight-gradient product, accumulated into the running
    /// gradients (reused across the whole sequence and across iterations).
    dw: Matrix,
}

/// Applies `f` to columns `[start, end)` of `z`, writing into `out`
/// (resized in place) — the allocation-free replacement for slicing a gate
/// column band into a fresh matrix every timestep.
fn gate_into(z: &Matrix, start: usize, end: usize, out: &mut Matrix, f: impl Fn(f32) -> f32) {
    out.resize_for_overwrite(z.rows(), end - start);
    for b in 0..z.rows() {
        let src = &z.row(b)[start..end];
        for (dst, &v) in out.row_mut(b).iter_mut().zip(src) {
            *dst = f(v);
        }
    }
}

#[inline]
fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

impl LstmCell {
    /// Creates a cell with Xavier-initialised weights; the forget-gate bias
    /// is initialised to 1 as is standard practice.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input_dim: usize, hidden: usize) -> Self {
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            bias[(0, j)] = 1.0;
        }
        Self {
            w_x: init::xavier_uniform(rng, input_dim, 4 * hidden),
            w_h: init::xavier_uniform(rng, hidden, 4 * hidden),
            bias,
            w_x_grad: Matrix::zeros(input_dim, 4 * hidden),
            w_h_grad: Matrix::zeros(hidden, 4 * hidden),
            bias_grad: Matrix::zeros(1, 4 * hidden),
            w_x_vel: Matrix::zeros(input_dim, 4 * hidden),
            w_h_vel: Matrix::zeros(hidden, 4 * hidden),
            bias_vel: Matrix::zeros(1, 4 * hidden),
            hidden,
            cache: Vec::new(),
            steps: 0,
            h_state: Matrix::default(),
            c_state: Matrix::default(),
            z_ws: Matrix::default(),
            zh_ws: Matrix::default(),
            bptt: BpttWorkspace::default(),
        }
    }

    /// Hidden-state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w_x.rows()
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.w_x.len() + self.w_h.len() + self.bias.len()
    }

    /// Runs the cell over a sequence of inputs (one `(batch, input_dim)`
    /// matrix per timestep) starting from a zero state, returning the hidden
    /// state of every timestep and caching intermediates for backward.
    pub fn forward_sequence(&mut self, inputs: &[Matrix]) -> Vec<Matrix> {
        let mut outputs = Vec::new();
        self.forward_sequence_into(inputs, &mut outputs);
        outputs
    }

    /// Like [`LstmCell::forward_sequence`] but writing the per-timestep
    /// hidden states into caller-owned buffers (`outputs` is resized to the
    /// sequence length and each entry recycled), so the inter-layer
    /// activation matrices of a stacked LSTM stop being reallocated every
    /// iteration.
    pub fn forward_sequence_into(&mut self, inputs: &[Matrix], outputs: &mut Vec<Matrix>) {
        let batch = inputs.first().map_or(0, Matrix::rows);
        let h = self.hidden;
        // Zero-initialised running state, buffers recycled across
        // iterations.
        self.h_state.resize(batch, h);
        self.c_state.resize(batch, h);
        outputs.resize_with(inputs.len(), Matrix::default);
        for (t, x) in inputs.iter().enumerate() {
            if self.cache.len() <= t {
                self.cache.push(StepCache::default());
            }
            // z = x·W_x + h_prev·W_h + b, accumulated in the recycled gate
            // workspace (same evaluation order as the allocating
            // formulation).
            gemm::blocked_gemm_into(x, &self.w_x, &mut self.z_ws)
                .expect("gate pre-activation shapes agree");
            gemm::blocked_gemm_into(&self.h_state, &self.w_h, &mut self.zh_ws)
                .expect("gate pre-activation shapes agree");
            self.z_ws
                .axpy_inplace(1.0, &self.zh_ws)
                .expect("gate pre-activation shapes agree");
            self.z_ws
                .add_row_broadcast_inplace(&self.bias)
                .expect("bias width matches 4*hidden");

            let cache = &mut self.cache[t];
            cache.x.clone_from(x);
            cache.h_prev.clone_from(&self.h_state);
            cache.c_prev.clone_from(&self.c_state);
            gate_into(&self.z_ws, 0, h, &mut cache.i, sigmoid_scalar);
            gate_into(&self.z_ws, h, 2 * h, &mut cache.f, sigmoid_scalar);
            gate_into(&self.z_ws, 2 * h, 3 * h, &mut cache.g, f32::tanh);
            gate_into(&self.z_ws, 3 * h, 4 * h, &mut cache.o, sigmoid_scalar);
            // c = f ⊙ c_prev + i ⊙ g, updating the cell state in place
            // (c_prev is already saved in the cache).
            cache.tanh_c.resize_for_overwrite(batch, h);
            for b in 0..batch {
                let crow = self.c_state.row_mut(b);
                let (irow, frow, grow) = (cache.i.row(b), cache.f.row(b), cache.g.row(b));
                for j in 0..h {
                    crow[j] = frow[j] * crow[j] + irow[j] * grow[j];
                }
                let tcrow = cache.tanh_c.row_mut(b);
                for (tc, &c) in tcrow.iter_mut().zip(&*crow) {
                    *tc = c.tanh();
                }
            }
            // h = o ⊙ tanh(c), again in place over the hidden state.
            for b in 0..batch {
                let hrow = self.h_state.row_mut(b);
                let (orow, tcrow) = (cache.o.row(b), cache.tanh_c.row(b));
                for j in 0..h {
                    hrow[j] = orow[j] * tcrow[j];
                }
            }
            outputs[t].clone_from(&self.h_state);
        }
        self.steps = inputs.len();
    }

    /// Backpropagation through time. `grad_hidden[t]` is the gradient of the
    /// loss w.r.t. the hidden output of timestep `t` coming from above (the
    /// next layer or the softmax). Returns the gradient w.r.t. each input.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`LstmCell::forward_sequence`] or
    /// with a gradient list of the wrong length.
    pub fn backward_sequence(&mut self, grad_hidden: &[Matrix]) -> Vec<Matrix> {
        let mut dx_list = Vec::new();
        self.backward_sequence_into(grad_hidden, &mut dx_list);
        dx_list
    }

    /// Like [`LstmCell::backward_sequence`] but writing the per-timestep
    /// input gradients into caller-owned buffers (`dx_out` resized to the
    /// sequence length, entries recycled) — the backward counterpart of
    /// [`LstmCell::forward_sequence_into`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LstmCell::backward_sequence`].
    pub fn backward_sequence_into(&mut self, grad_hidden: &[Matrix], dx_out: &mut Vec<Matrix>) {
        assert_eq!(
            grad_hidden.len(),
            self.steps,
            "one hidden gradient per cached timestep is required"
        );
        assert!(self.steps > 0, "backward called without forward");
        let h = self.hidden;
        let batch = grad_hidden[0].rows();

        self.w_x_grad.resize(self.w_x.rows(), self.w_x.cols());
        self.w_h_grad.resize(self.w_h.rows(), self.w_h.cols());
        self.bias_grad.resize(1, 4 * h);
        dx_out.resize_with(grad_hidden.len(), Matrix::default);

        // Recurrent gradients and the combined gate gradient live in the
        // recycled BPTT workspace; moved out so its buffers can be borrowed
        // alongside `self`'s parameter fields.
        let mut ws = std::mem::take(&mut self.bptt);
        ws.dh_next.resize(batch, h);
        ws.dc_next.resize(batch, h);
        for t in (0..self.steps).rev() {
            let cache = &self.cache[t];
            // All gate gradients fused into one pass that writes the
            // `[di | df | dg | do]` bands of the recycled dz buffer — no
            // per-step gate-gradient matrices are ever materialised. The
            // per-element expressions (and their evaluation order) match
            // the hadamard formulation they replace.
            ws.dz.resize_for_overwrite(batch, 4 * h);
            for b in 0..batch {
                let gh = grad_hidden[t].row(b);
                let dh_next_row = ws.dh_next.row(b);
                let dc_next_row = ws.dc_next.row_mut(b);
                let dzrow = ws.dz.row_mut(b);
                let (irow, frow, grow, orow) = (
                    cache.i.row(b),
                    cache.f.row(b),
                    cache.g.row(b),
                    cache.o.row(b),
                );
                let (tcrow, cprow) = (cache.tanh_c.row(b), cache.c_prev.row(b));
                for j in 0..h {
                    // h = o ⊙ tanh(c)
                    let dh = gh[j] + dh_next_row[j];
                    let d_o = dh * tcrow[j];
                    let dc = dh * orow[j] * (1.0 - tcrow[j] * tcrow[j]) + dc_next_row[j];
                    // c = f ⊙ c_prev + i ⊙ g
                    let d_f = dc * cprow[j];
                    let d_i = dc * grow[j];
                    let d_g = dc * irow[j];
                    dc_next_row[j] = dc * frow[j];
                    // Pre-activation gradients.
                    dzrow[j] = d_i * (irow[j] * (1.0 - irow[j]));
                    dzrow[h + j] = d_f * (frow[j] * (1.0 - frow[j]));
                    dzrow[2 * h + j] = d_g * (1.0 - grow[j] * grow[j]);
                    dzrow[3 * h + j] = d_o * (orow[j] * (1.0 - orow[j]));
                }
            }

            // Transposed-operand kernels: `Xᵀ·dZ` and `dZ·Wᵀ` without ever
            // materialising a transpose (paper-scale LSTMs run this for
            // every timestep of every layer).
            gemm::gemm_at_b_into(&cache.x, &ws.dz, &mut ws.dw)
                .expect("weight gradient shapes agree");
            self.w_x_grad
                .axpy_inplace(1.0, &ws.dw)
                .expect("weight gradient shapes agree");
            gemm::gemm_at_b_into(&cache.h_prev, &ws.dz, &mut ws.dw)
                .expect("weight gradient shapes agree");
            self.w_h_grad
                .axpy_inplace(1.0, &ws.dw)
                .expect("weight gradient shapes agree");
            ws.dz.sum_rows_into(&mut ws.bias_rows);
            self.bias_grad
                .axpy_inplace(1.0, &ws.bias_rows)
                .expect("bias gradient shapes agree");

            gemm::gemm_a_bt_into(&ws.dz, &self.w_x, &mut dx_out[t])
                .expect("input gradient shapes agree");
            gemm::gemm_a_bt_into(&ws.dz, &self.w_h, &mut ws.dh_next)
                .expect("hidden gradient shapes agree");
        }
        self.bptt = ws;
        self.steps = 0;
    }

    /// Maximum absolute value over all parameter gradients (used for
    /// clipping diagnostics).
    pub fn grad_max_abs(&self) -> f32 {
        self.w_x_grad
            .as_slice()
            .iter()
            .chain(self.w_h_grad.as_slice())
            .chain(self.bias_grad.as_slice())
            .fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Scales every stored gradient by `factor` (gradient clipping).
    pub fn scale_gradients(&mut self, factor: f32) {
        self.w_x_grad.map_inplace(|v| v * factor);
        self.w_h_grad.map_inplace(|v| v * factor);
        self.bias_grad.map_inplace(|v| v * factor);
    }

    /// Applies one SGD step with the stored gradients.
    pub fn step(&mut self, sgd: &Sgd) {
        sgd.update(&mut self.w_x, &self.w_x_grad, &mut self.w_x_vel);
        sgd.update(&mut self.w_h, &self.w_h_grad, &mut self.w_h_vel);
        sgd.update(&mut self.bias, &self.bias_grad, &mut self.bias_vel);
    }
}

/// Configuration of the LSTM language model.
#[derive(Debug, Clone)]
pub struct LstmLmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Word-embedding width.
    pub embed_dim: usize,
    /// Hidden width of every LSTM layer.
    pub hidden: usize,
    /// Number of stacked LSTM layers.
    pub layers: usize,
    /// Dropout scheme applied to the output of every LSTM layer.
    pub dropout: Box<dyn DropoutScheme>,
    /// SGD learning rate (the paper uses 1.0 with decay; the scaled-down
    /// experiments use smaller values).
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Gradient-clipping threshold on the max-abs gradient (0 disables).
    pub grad_clip: f32,
}

impl LstmLmConfig {
    /// A down-scaled stand-in for the paper's 2×1500 LSTM that trains on one
    /// CPU core: `vocab` words, `hidden` units, 2 layers.
    pub fn scaled_paper_lstm(vocab: usize, hidden: usize, dropout: Box<dyn DropoutScheme>) -> Self {
        Self {
            vocab,
            embed_dim: hidden,
            hidden,
            layers: 2,
            dropout,
            learning_rate: 0.5,
            momentum: 0.0,
            grad_clip: 5.0,
        }
    }
}

/// Statistics of one language-model training batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmBatchStats {
    /// Mean next-token cross-entropy (nats per token).
    pub loss: f32,
    /// `exp(loss)` — the perplexity the paper reports for PTB.
    pub perplexity: f64,
    /// Next-token prediction accuracy (the "accuracy" of Table II).
    pub accuracy: f64,
}

/// Recycled buffers of one [`LstmLm::train_batch`] iteration: the
/// inter-layer activation sequences (ping-ponged between layer input and
/// layer output), the stacked projection input, the logits, the per-step
/// gradient sequences, the flattened target ids and the softmax
/// cross-entropy scratch. Together with the per-cell workspaces this makes
/// the whole training hot path allocation-free once shapes have stabilised.
#[derive(Debug, Clone, Default)]
struct SeqWorkspace {
    /// Current layer's per-timestep inputs (the embeddings at layer 0).
    acts_a: Vec<Matrix>,
    /// Current layer's per-timestep outputs (dropout applied in place);
    /// swapped with `acts_a` after each layer.
    acts_b: Vec<Matrix>,
    /// Top-layer states stacked over time, feeding the projection.
    stacked: Matrix,
    /// Projection output (vocabulary logits).
    logits: Matrix,
    /// Gradient w.r.t. the stacked projection input, written by
    /// [`crate::Linear::backward_into`] (the backward counterpart of the
    /// `stacked`/`logits` recycling).
    grad_stacked: Matrix,
    /// Per-timestep gradient buffers, ping-ponged like the activations.
    grad_a: Vec<Matrix>,
    grad_b: Vec<Matrix>,
    /// Flattened next-token targets.
    targets: Vec<usize>,
    /// Softmax cross-entropy probability/gradient buffers.
    xent: CrossEntropyScratch,
}

/// Word-level LSTM language model with inter-layer approximate dropout.
#[derive(Debug, Clone)]
pub struct LstmLm {
    embedding: Matrix,
    embedding_grad: Matrix,
    embedding_vel: Matrix,
    cells: Vec<LstmCell>,
    dropout: Vec<Box<dyn DropoutScheme>>,
    /// Per-layer reusable plan buffers, re-resolved in place each iteration.
    plan_ws: Vec<DropoutPlan>,
    /// Per-layer column-multiplier buffers derived from the plans.
    mult_ws: Vec<Vec<f32>>,
    /// Per-iteration sequence buffers, recycled across iterations.
    seq_ws: SeqWorkspace,
    projection: Linear,
    sgd: Sgd,
    grad_clip: f32,
    vocab: usize,
}

impl LstmLm {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(config: &LstmLmConfig, rng: &mut R) -> Self {
        assert!(
            config.vocab > 0 && config.hidden > 0 && config.layers > 0 && config.embed_dim > 0,
            "dimensions must be positive"
        );
        let mut cells = Vec::new();
        let mut in_dim = config.embed_dim;
        for _ in 0..config.layers {
            cells.push(LstmCell::new(rng, in_dim, config.hidden));
            in_dim = config.hidden;
        }
        Self {
            embedding: init::gaussian(rng, config.vocab, config.embed_dim, 0.0, 0.1),
            embedding_grad: Matrix::zeros(config.vocab, config.embed_dim),
            embedding_vel: Matrix::zeros(config.vocab, config.embed_dim),
            cells,
            dropout: vec![config.dropout.clone(); config.layers],
            plan_ws: vec![DropoutPlan::default(); config.layers],
            mult_ws: vec![Vec::new(); config.layers],
            seq_ws: SeqWorkspace::default(),
            projection: Linear::new(rng, config.hidden, config.vocab),
            sgd: Sgd::new(config.learning_rate, config.momentum),
            grad_clip: config.grad_clip,
            vocab: config.vocab,
        }
    }

    /// Number of stacked LSTM layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.embedding.len()
            + self
                .cells
                .iter()
                .map(LstmCell::parameter_count)
                .sum::<usize>()
            + self.projection.parameter_count()
    }

    /// Overrides the dropout scheme of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn set_layer_dropout(&mut self, layer: usize, dropout: Box<dyn DropoutScheme>) {
        assert!(layer < self.dropout.len(), "layer index out of range");
        self.dropout[layer] = dropout;
    }

    fn embed(&self, tokens: &[Vec<usize>], t: usize) -> Matrix {
        let mut out = Matrix::default();
        embed_into(&self.embedding, tokens, t, &mut out);
        out
    }

    /// One training step on a batch of token sequences. Each sequence must
    /// contain `seq_len + 1` token ids: positions `0..seq_len` are inputs and
    /// positions `1..=seq_len` the prediction targets.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, sequences have fewer than two tokens or
    /// unequal lengths, or a token id is out of range.
    pub fn train_batch<R: Rng>(&mut self, tokens: &[Vec<usize>], rng: &mut R) -> LmBatchStats {
        self.train_batch_inner(tokens, PlanSource::Sample(rng))
    }

    /// Like [`LstmLm::train_batch`] but with caller-resolved plans (one per
    /// LSTM layer) instead of sampling from the per-layer schemes — the
    /// entry point a serving layer uses after resolving plans through a
    /// memoized `PlanCache`. `clone_from` recycles the per-layer plan
    /// buffers, so injection allocates nothing once the slots are warm.
    ///
    /// # Panics
    ///
    /// Panics if `plans.len()` differs from [`LstmLm::layers`], plus
    /// everything [`LstmLm::train_batch`] panics on.
    pub fn train_batch_with_plans(
        &mut self,
        tokens: &[Vec<usize>],
        plans: &[DropoutPlan],
    ) -> LmBatchStats {
        assert_eq!(
            plans.len(),
            self.cells.len(),
            "one dropout plan per LSTM layer is required"
        );
        self.train_batch_inner(tokens, PlanSource::Inject(plans))
    }

    /// The [`LayerShape`] each LSTM layer presents to its dropout scheme —
    /// the hidden-state vector, matching what [`LstmLm::train_batch`] plans
    /// against.
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        vec![LayerShape::vector(self.cells[0].hidden()); self.cells.len()]
    }

    fn train_batch_inner(
        &mut self,
        tokens: &[Vec<usize>],
        mut source: PlanSource<'_>,
    ) -> LmBatchStats {
        let (seq_len, batch) = self.validate_batch(tokens);
        let hidden = self.cells[0].hidden();

        // Plan one dropout decision per layer for the whole iteration,
        // re-resolving the per-layer plan and multiplier buffers in place.
        for l in 0..self.dropout.len() {
            match &mut source {
                PlanSource::Sample(rng) => {
                    self.dropout[l].plan_into(
                        &mut **rng,
                        LayerShape::vector(hidden),
                        &mut self.plan_ws[l],
                    );
                }
                PlanSource::Inject(plans) => self.plan_ws[l].clone_from(&plans[l]),
            }
            self.plan_ws[l].column_multiplier_into(hidden, &mut self.mult_ws[l]);
        }

        // Forward. The inter-layer activation sequences live in the recycled
        // `seq_ws` buffers: embeddings land in `acts_a`, each cell writes
        // its hidden states into `acts_b`, dropout multiplies in place, and
        // the two buffers swap roles for the next layer — no per-iteration
        // activation matrix is ever allocated.
        let mut ws = std::mem::take(&mut self.seq_ws);
        ws.acts_a.resize_with(seq_len, Matrix::default);
        for t in 0..seq_len {
            embed_into(&self.embedding, tokens, t, &mut ws.acts_a[t]);
        }
        for (l, cell) in self.cells.iter_mut().enumerate() {
            cell.forward_sequence_into(&ws.acts_a, &mut ws.acts_b);
            for step in &mut ws.acts_b {
                apply_column_multiplier_inplace(step, &self.mult_ws[l]);
            }
            std::mem::swap(&mut ws.acts_a, &mut ws.acts_b);
        }

        // Stack the (dropped) top-layer states over time and project — one
        // fused GEMM+bias kernel into the recycled logits buffer.
        stack_rows_into(&ws.acts_a, &mut ws.stacked);
        let projection_shape = LayerShape::new(
            self.projection.in_features(),
            self.projection.out_features(),
        );
        let mut logits = std::mem::take(&mut ws.logits);
        self.projection.forward_act_into(
            &ws.stacked,
            &DropoutPlan::none(projection_shape),
            Activation::Identity,
            &mut logits,
        );
        ws.logits = logits;
        flatten_targets_into(tokens, seq_len, &mut ws.targets);
        let loss = softmax_cross_entropy_into(&ws.logits, &ws.targets, &mut ws.xent);
        let acc = crate::metrics::accuracy(&ws.logits, &ws.targets);

        // Backward. The projection's dX lands in the recycled
        // `grad_stacked` buffer — the last per-iteration allocation of the
        // backward pass is gone.
        let SeqWorkspace {
            xent, grad_stacked, ..
        } = &mut ws;
        self.projection
            .backward_into(xent.grad_logits(), grad_stacked);
        unstack_rows_into(&ws.grad_stacked, seq_len, batch, &mut ws.grad_a);
        for l in (0..self.cells.len()).rev() {
            // Gradient through this layer's output dropout, in place.
            for step in &mut ws.grad_a {
                apply_column_multiplier_inplace(step, &self.mult_ws[l]);
            }
            self.cells[l].backward_sequence_into(&ws.grad_a, &mut ws.grad_b);
            std::mem::swap(&mut ws.grad_a, &mut ws.grad_b);
        }

        // Embedding gradient: scatter the bottom-layer input gradients back
        // onto the rows of the embedding table (buffer recycled across
        // iterations).
        self.embedding_grad
            .resize(self.embedding.rows(), self.embedding.cols());
        for (t, grad) in ws.grad_a.iter().enumerate() {
            for (b, token_row) in tokens.iter().enumerate() {
                let dst = self.embedding_grad.row_mut(token_row[t]);
                for (d, &g) in dst.iter_mut().zip(grad.row(b)) {
                    *d += g;
                }
            }
        }
        self.seq_ws = ws;

        self.clip_and_step();
        LmBatchStats {
            loss,
            perplexity: perplexity_from_nll(loss as f64),
            accuracy: acc,
        }
    }

    /// Evaluates loss, perplexity and next-token accuracy with dropout
    /// disabled (dense forward).
    pub fn evaluate(&self, tokens: &[Vec<usize>]) -> LmBatchStats {
        let (seq_len, _batch) = self.validate_batch(tokens);
        let mut model = self.clone();
        let mut layer_inputs: Vec<Matrix> = (0..seq_len).map(|t| model.embed(tokens, t)).collect();
        for cell in &mut model.cells {
            layer_inputs = cell.forward_sequence(&layer_inputs);
        }
        let stacked = stack_rows(&layer_inputs);
        let logits = model.projection.infer(&stacked);
        let mut targets = Vec::new();
        flatten_targets_into(tokens, seq_len, &mut targets);
        let loss_out = softmax_cross_entropy(&logits, &targets);
        LmBatchStats {
            loss: loss_out.loss,
            perplexity: perplexity_from_nll(loss_out.loss as f64),
            accuracy: crate::metrics::accuracy(&logits, &targets),
        }
    }

    fn validate_batch(&self, tokens: &[Vec<usize>]) -> (usize, usize) {
        assert!(!tokens.is_empty(), "batch must not be empty");
        let len = tokens[0].len();
        assert!(
            len >= 2,
            "sequences need at least two tokens (input + target)"
        );
        for seq in tokens {
            assert_eq!(seq.len(), len, "all sequences must have the same length");
            for &t in seq {
                assert!(t < self.vocab, "token id {t} out of range");
            }
        }
        (len - 1, tokens.len())
    }

    fn clip_and_step(&mut self) {
        if self.grad_clip > 0.0 {
            let mut max_abs = self
                .embedding_grad
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            for cell in &self.cells {
                max_abs = max_abs.max(cell.grad_max_abs());
            }
            max_abs = max_abs.max(
                self.projection
                    .weight_grad()
                    .as_slice()
                    .iter()
                    .fold(0.0f32, |m, &v| m.max(v.abs())),
            );
            if max_abs > self.grad_clip {
                let factor = self.grad_clip / max_abs;
                self.embedding_grad.map_inplace(|v| v * factor);
                for cell in &mut self.cells {
                    cell.scale_gradients(factor);
                }
                // Projection gradients are scaled through its own step below
                // by shrinking the learning rate once; simpler: scale stored
                // gradient via a dedicated hook is not available, so the
                // projection keeps its unclipped gradient. In practice its
                // gradient is the best conditioned of the stack.
            }
        }
        let sgd = self.sgd;
        sgd.update(
            &mut self.embedding,
            &self.embedding_grad,
            &mut self.embedding_vel,
        );
        for cell in &mut self.cells {
            cell.step(&sgd);
        }
        self.projection.step(&sgd);
    }
}

/// Gathers the embedding rows of timestep `t` into `out` (resized in place).
fn embed_into(embedding: &Matrix, tokens: &[Vec<usize>], t: usize, out: &mut Matrix) {
    out.resize_for_overwrite(tokens.len(), embedding.cols());
    for (b, seq) in tokens.iter().enumerate() {
        out.row_mut(b).copy_from_slice(embedding.row(seq[t]));
    }
}

/// Applies a per-column multiplier in place — the allocation-free form of
/// the inter-layer dropout (and its gradient) application.
fn apply_column_multiplier_inplace(m: &mut Matrix, mult: &[f32]) {
    for i in 0..m.rows() {
        for (v, &s) in m.row_mut(i).iter_mut().zip(mult) {
            *v *= s;
        }
    }
}

fn stack_rows(steps: &[Matrix]) -> Matrix {
    let mut out = Matrix::default();
    stack_rows_into(steps, &mut out);
    out
}

/// Stacks per-timestep `(batch, cols)` matrices into one
/// `(steps·batch, cols)` matrix, recycling `out`.
fn stack_rows_into(steps: &[Matrix], out: &mut Matrix) {
    let batch = steps.first().map_or(0, Matrix::rows);
    let cols = steps.first().map_or(0, Matrix::cols);
    out.resize_for_overwrite(batch * steps.len(), cols);
    for (t, step) in steps.iter().enumerate() {
        for b in 0..batch {
            out.row_mut(t * batch + b).copy_from_slice(step.row(b));
        }
    }
}

/// Reference formulation of [`unstack_rows_into`], retained for the
/// round-trip test.
#[cfg(test)]
fn unstack_rows(stacked: &Matrix, steps: usize, batch: usize) -> Vec<Matrix> {
    let mut out = Vec::new();
    unstack_rows_into(stacked, steps, batch, &mut out);
    out
}

/// Splits a stacked `(steps·batch, cols)` matrix back into per-timestep
/// matrices, recycling the buffers in `out`.
fn unstack_rows_into(stacked: &Matrix, steps: usize, batch: usize, out: &mut Vec<Matrix>) {
    out.resize_with(steps, Matrix::default);
    for (t, m) in out.iter_mut().enumerate() {
        m.resize_for_overwrite(batch, stacked.cols());
        for b in 0..batch {
            m.row_mut(b).copy_from_slice(stacked.row(t * batch + b));
        }
    }
}

/// Flattens the next-token targets into `out` (cleared and refilled).
fn flatten_targets_into(tokens: &[Vec<usize>], seq_len: usize, out: &mut Vec<usize>) {
    out.clear();
    out.reserve(seq_len * tokens.len());
    for t in 0..seq_len {
        for seq in tokens {
            out.push(seq[t + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::scheme;
    use approx_dropout::DropoutRate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cyclic_batch(vocab: usize, batch: usize, seq_len: usize) -> Vec<Vec<usize>> {
        // A deterministic cyclic language: token (t+1) always follows token t.
        (0..batch)
            .map(|b| (0..=seq_len).map(|t| (b + t) % vocab).collect())
            .collect()
    }

    fn config(dropout: Box<dyn DropoutScheme>) -> LstmLmConfig {
        LstmLmConfig {
            vocab: 12,
            embed_dim: 16,
            hidden: 16,
            layers: 2,
            dropout,
            learning_rate: 1.0,
            momentum: 0.0,
            grad_clip: 5.0,
        }
    }

    #[test]
    fn cell_forward_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cell = LstmCell::new(&mut rng, 8, 16);
        let inputs: Vec<Matrix> = (0..5).map(|_| Matrix::ones(3, 8)).collect();
        let outputs = cell.forward_sequence(&inputs);
        assert_eq!(outputs.len(), 5);
        assert_eq!(outputs[0].shape(), (3, 16));
        // h = o ⊙ tanh(c) is bounded by (-1, 1).
        assert!(outputs
            .iter()
            .all(|h| h.as_slice().iter().all(|v| v.abs() < 1.0)));
    }

    #[test]
    fn cell_backward_produces_input_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cell = LstmCell::new(&mut rng, 8, 16);
        let inputs: Vec<Matrix> = (0..4).map(|_| Matrix::ones(2, 8)).collect();
        let outputs = cell.forward_sequence(&inputs);
        let grads: Vec<Matrix> = outputs
            .iter()
            .map(|h| Matrix::ones(h.rows(), h.cols()))
            .collect();
        let dx = cell.backward_sequence(&grads);
        assert_eq!(dx.len(), 4);
        assert_eq!(dx[0].shape(), (2, 8));
        assert!(cell.grad_max_abs() > 0.0);
    }

    #[test]
    fn cell_numerical_gradient_check_on_wx() {
        // Loss = sum of all hidden outputs over a 2-step sequence.
        let mut rng = StdRng::seed_from_u64(2);
        let cell = LstmCell::new(&mut rng, 3, 4);
        let inputs: Vec<Matrix> = (0..2)
            .map(|_| init::uniform(&mut rng, 2, 3, -1.0, 1.0))
            .collect();

        let mut analytic_cell = cell.clone();
        let outputs = analytic_cell.forward_sequence(&inputs);
        let grads: Vec<Matrix> = outputs
            .iter()
            .map(|h| Matrix::ones(h.rows(), h.cols()))
            .collect();
        let _ = analytic_cell.backward_sequence(&grads);

        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 0usize), (1, 5), (2, 10), (0, 15)] {
            let mut plus = cell.clone();
            plus.w_x[(r, c)] += eps;
            let mut minus = cell.clone();
            minus.w_x[(r, c)] -= eps;
            let f_plus: f32 = plus.forward_sequence(&inputs).iter().map(Matrix::sum).sum();
            let f_minus: f32 = minus
                .forward_sequence(&inputs)
                .iter()
                .map(Matrix::sum)
                .sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = analytic_cell.w_x_grad[(r, c)];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "w_x[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gate_workspaces_are_recycled_across_iterations() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut cell = LstmCell::new(&mut rng, 8, 16);
        let inputs: Vec<Matrix> = (0..3).map(|_| Matrix::ones(4, 8)).collect();
        let outputs = cell.forward_sequence(&inputs);
        let grads: Vec<Matrix> = outputs
            .iter()
            .map(|h| Matrix::ones(h.rows(), h.cols()))
            .collect();
        let _ = cell.backward_sequence(&grads);
        // Second iteration with the same shapes: the per-timestep gate
        // caches and the BPTT gate-gradient buffer must be reused, not
        // reallocated.
        let gate_ptr = cell.cache[0].i.as_slice().as_ptr();
        let dz_ptr = cell.bptt.dz.as_slice().as_ptr();
        let _ = cell.forward_sequence(&inputs);
        assert_eq!(
            gate_ptr,
            cell.cache[0].i.as_slice().as_ptr(),
            "gate cache must be recycled"
        );
        let _ = cell.backward_sequence(&grads);
        assert_eq!(
            dz_ptr,
            cell.bptt.dz.as_slice().as_ptr(),
            "dz workspace must be recycled"
        );
    }

    #[test]
    fn shrinking_sequence_reuses_then_truncates_cached_steps() {
        // A shorter sequence after a longer one must not leave stale steps
        // visible to backward.
        let mut rng = StdRng::seed_from_u64(41);
        let mut cell = LstmCell::new(&mut rng, 4, 8);
        let long: Vec<Matrix> = (0..5).map(|_| Matrix::ones(2, 4)).collect();
        let _ = cell.forward_sequence(&long);
        let short: Vec<Matrix> = (0..2).map(|_| Matrix::ones(2, 4)).collect();
        let outputs = cell.forward_sequence(&short);
        assert_eq!(outputs.len(), 2);
        let grads: Vec<Matrix> = outputs
            .iter()
            .map(|h| Matrix::ones(h.rows(), h.cols()))
            .collect();
        let dx = cell.backward_sequence(&grads);
        assert_eq!(dx.len(), 2);
    }

    #[test]
    fn train_batch_sequence_workspaces_are_recycled() {
        // The inter-layer activation sequences, stacked projection input,
        // logits, gradient sequences, target ids and softmax scratch must
        // all reuse their buffers across iterations — the hot path performs
        // no per-iteration allocations once warmed up.
        let mut rng = StdRng::seed_from_u64(42);
        let dropout = scheme::bernoulli(DropoutRate::new(0.3).unwrap());
        let mut lm = LstmLm::new(&config(dropout), &mut rng);
        let batch = cyclic_batch(12, 4, 6);
        let _ = lm.train_batch(&batch, &mut rng);
        let _ = lm.train_batch(&batch, &mut rng); // warm both ping-pong roles
        let acts_ptr = lm.seq_ws.acts_a[0].as_slice().as_ptr();
        let stacked_ptr = lm.seq_ws.stacked.as_slice().as_ptr();
        let logits_ptr = lm.seq_ws.logits.as_slice().as_ptr();
        let grad_ptr = lm.seq_ws.grad_a[0].as_slice().as_ptr();
        let targets_ptr = lm.seq_ws.targets.as_ptr();
        let probs_ptr = lm.seq_ws.xent.probabilities().as_slice().as_ptr();
        let _ = lm.train_batch(&batch, &mut rng);
        assert_eq!(acts_ptr, lm.seq_ws.acts_a[0].as_slice().as_ptr());
        assert_eq!(stacked_ptr, lm.seq_ws.stacked.as_slice().as_ptr());
        assert_eq!(logits_ptr, lm.seq_ws.logits.as_slice().as_ptr());
        assert_eq!(grad_ptr, lm.seq_ws.grad_a[0].as_slice().as_ptr());
        assert_eq!(targets_ptr, lm.seq_ws.targets.as_ptr());
        assert_eq!(
            probs_ptr,
            lm.seq_ws.xent.probabilities().as_slice().as_ptr()
        );
    }

    #[test]
    fn sequence_into_variants_match_allocating_wrappers() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut cell_a = LstmCell::new(&mut rng, 6, 10);
        let mut cell_b = cell_a.clone();
        let inputs: Vec<Matrix> = (0..3)
            .map(|_| init::uniform(&mut rng, 4, 6, -1.0, 1.0))
            .collect();
        let out_a = cell_a.forward_sequence(&inputs);
        let mut out_b = Vec::new();
        cell_b.forward_sequence_into(&inputs, &mut out_b);
        assert_eq!(out_a, out_b);
        let grads: Vec<Matrix> = out_a
            .iter()
            .map(|h| Matrix::ones(h.rows(), h.cols()))
            .collect();
        let dx_a = cell_a.backward_sequence(&grads);
        let mut dx_b = Vec::new();
        cell_b.backward_sequence_into(&grads, &mut dx_b);
        assert_eq!(dx_a, dx_b);
    }

    #[test]
    fn lm_learns_cyclic_language_without_dropout() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lm = LstmLm::new(&config(scheme::none()), &mut rng);
        let batch = cyclic_batch(12, 6, 8);
        let first = lm.train_batch(&batch, &mut rng).loss;
        for _ in 0..300 {
            let _ = lm.train_batch(&batch, &mut rng);
        }
        let eval = lm.evaluate(&batch);
        assert!(
            eval.loss < first,
            "loss did not improve: {first} -> {}",
            eval.loss
        );
        assert!(eval.accuracy > 0.8, "accuracy {}", eval.accuracy);
        assert!(eval.perplexity < 3.0, "perplexity {}", eval.perplexity);
    }

    #[test]
    fn lm_learns_with_row_pattern_dropout() {
        let mut rng = StdRng::seed_from_u64(4);
        let dropout = scheme::row(DropoutRate::new(0.3).unwrap(), 16).unwrap();
        let mut lm = LstmLm::new(&config(dropout), &mut rng);
        let batch = cyclic_batch(12, 6, 8);
        for _ in 0..400 {
            let _ = lm.train_batch(&batch, &mut rng);
        }
        let eval = lm.evaluate(&batch);
        assert!(eval.accuracy > 0.7, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn lm_learns_with_bernoulli_dropout() {
        let mut rng = StdRng::seed_from_u64(5);
        let dropout = scheme::bernoulli(DropoutRate::new(0.3).unwrap());
        let mut lm = LstmLm::new(&config(dropout), &mut rng);
        let batch = cyclic_batch(12, 6, 8);
        for _ in 0..400 {
            let _ = lm.train_batch(&batch, &mut rng);
        }
        let eval = lm.evaluate(&batch);
        assert!(eval.accuracy > 0.7, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = config(scheme::none());
        let lm = LstmLm::new(&cfg, &mut rng);
        let cell0 = 16 * 64 + 16 * 64 + 64;
        let cell1 = 16 * 64 + 16 * 64 + 64;
        let expected = 12 * 16 + cell0 + cell1 + 16 * 12 + 12;
        assert_eq!(lm.parameter_count(), expected);
        assert_eq!(lm.layers(), 2);
    }

    #[test]
    #[should_panic(expected = "token id")]
    fn rejects_out_of_range_tokens() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lm = LstmLm::new(&config(scheme::none()), &mut rng);
        let _ = lm.train_batch(&[vec![0, 99]], &mut rng);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn rejects_ragged_batches() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut lm = LstmLm::new(&config(scheme::none()), &mut rng);
        let _ = lm.train_batch(&[vec![0, 1, 2], vec![0, 1]], &mut rng);
    }

    #[test]
    fn set_layer_dropout_overrides_one_layer() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lm = LstmLm::new(&config(scheme::none()), &mut rng);
        lm.set_layer_dropout(1, scheme::bernoulli(DropoutRate::new(0.5).unwrap()));
        let batch = cyclic_batch(12, 2, 4);
        let stats = lm.train_batch(&batch, &mut rng);
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn stack_and_unstack_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let stacked = stack_rows(&[a.clone(), b.clone()]);
        assert_eq!(stacked.shape(), (4, 2));
        let unstacked = unstack_rows(&stacked, 2, 2);
        assert_eq!(unstacked[0], a);
        assert_eq!(unstacked[1], b);
    }
}
