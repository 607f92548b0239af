//! LSTM language model for the §IV-C experiments.
//!
//! The model is a word-level next-token predictor: an embedding table, a
//! stack of LSTM layers with dropout applied to each layer's output (shared
//! across all timesteps of one iteration, exactly like the paper applies one
//! pattern per batch), and a softmax projection over the vocabulary.
//!
//! Every activation and gradient of a batch is one stacked time-major matrix
//! (row `t·batch + b` is timestep `t` of sequence `b`), from the embeddings
//! through each layer's hidden states to the logits and back. Each
//! [`LstmCell`] runs its input projection `x·W_x + b` as one [`Linear`] call
//! over the whole stacked sequence before the recurrence, so only `h·W_h`
//! is left per timestep; its backward pass likewise finishes with one `W_h`
//! weight-gradient GEMM and one [`Linear::backward_into`] for `W_x`, the
//! bias and the input gradient.
//!
//! Dropout between LSTM layers is applied as a per-hidden-unit multiplier
//! derived from the plan each layer's scheme samples for the iteration
//! ([`DropoutPlan::column_multiplier`]): conventional Bernoulli masks, row
//! patterns (kept units scaled by `dp`) or tile patterns (kept 32-wide unit
//! groups). On the GPU the row/tile variants let the next layer's input GEMM
//! and the softmax projection skip the dropped inputs; the `gpu-sim` crate
//! prices that saving from the *same* sampled plans. Here those GEMMs still
//! run dense: the next step is to hand the lower layer's kept units to each
//! input `Linear` and to the projection as a K-gather plan.

use crate::layers::Linear;
use crate::loss::{softmax_cross_entropy_into, CrossEntropyScratch};
use crate::metrics::perplexity_from_nll;
use crate::mlp::PlanSource;
use crate::optimizer::{clip_gradients, Param, Params, Sgd};
use approx_dropout::{Activation, DropoutPlan, DropoutScheme, LayerShape};
use rand::Rng;
use tensor::{gemm, init, simd, Matrix};

/// One LSTM layer (cell iterated over a sequence) with combined gate weights.
///
/// Gate layout along the `4·hidden` axis is `[input | forget | cell | output]`.
/// Sequences are stacked time-major: row `t·batch + b` of the input, the
/// output and every cache below is timestep `t` of sequence `b`. All caches
/// are recycled across iterations, so a pass allocates nothing once shapes
/// have stabilised.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input projection `x·W_x + b`, run once over the stacked sequence.
    input: Linear,
    /// Recurrent weights `W_h`, `(hidden, 4·hidden)`.
    w_h: Param,
    hidden: usize,
    /// Sequences in the forward pass awaiting its backward pass (0: none).
    batch: usize,
    /// Gate pre-activations `x·W_x + b`, to which each timestep adds `h·W_h`
    /// and applies the gate nonlinearities in place (`tensor::simd`'s
    /// polynomial sigmoid and tanh): the activated gates are the backward
    /// cache.
    gates: Matrix,
    /// `h_{t-1}` of every row (zero at `t = 0`).
    h_prev: Matrix,
    /// `c_{t-1}` of every row (zero at `t = 0`).
    c_prev: Matrix,
    /// `tanh(c_t)` of every row.
    tanh_c: Matrix,
    /// Gate-gradient `dZ` of every row, the operand of the weight
    /// gradients.
    dz: Matrix,
    /// Running hidden state `h` forward, its gradient `dh` backward.
    h: Matrix,
    /// Running cell state `c` forward, its gradient `dc` backward.
    c: Matrix,
    /// One timestep's gate-sized scratch: `h·W_h` forward, the gate
    /// gradient backward.
    step_gates: Matrix,
    /// `W_hᵀ`, packed once per backward pass for every timestep's
    /// `dh = dZ·W_hᵀ`.
    w_h_t: Matrix,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialised weights; the forget-gate bias
    /// is initialised to 1 as is standard practice.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input_dim: usize, hidden: usize) -> Self {
        let w_x = init::xavier_uniform(rng, input_dim, 4 * hidden);
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            bias[(0, j)] = 1.0;
        }
        Self {
            input: Linear::from_parameters(w_x, bias),
            w_h: Param::new(init::xavier_uniform(rng, hidden, 4 * hidden)),
            hidden,
            batch: 0,
            gates: Matrix::default(),
            h_prev: Matrix::default(),
            c_prev: Matrix::default(),
            tanh_c: Matrix::default(),
            dz: Matrix::default(),
            h: Matrix::default(),
            c: Matrix::default(),
            step_gates: Matrix::default(),
            w_h_t: Matrix::default(),
        }
    }

    /// Hidden-state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input.in_features()
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.input.parameter_count() + self.w_h.value.len()
    }

    /// Runs the cell from a zero state over `batch` sequences stacked
    /// time-major in `x` (`(steps·batch, input_dim)`), writing every
    /// timestep's hidden state into `out` (`(steps·batch, hidden)`, resized
    /// in place) and caching what [`LstmCell::backward_into`] needs.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or does not divide `x.rows()`, or if
    /// `x.cols() != input_dim()`.
    pub fn forward_into(&mut self, x: &Matrix, batch: usize, out: &mut Matrix) {
        assert!(
            batch > 0 && x.rows() % batch == 0,
            "the stacked rows must be whole timesteps of {batch} sequences"
        );
        let (h, rows) = (self.hidden, x.rows());
        let shape = LayerShape::new(self.input.in_features(), 4 * h);
        self.input.forward_act_into(
            x,
            &DropoutPlan::none(shape),
            Activation::Identity,
            &mut self.gates,
        );
        for cache in [&mut self.h_prev, &mut self.c_prev, &mut self.tanh_c] {
            cache.resize_for_overwrite(rows, h);
        }
        out.resize_for_overwrite(rows, h);
        self.h.resize(batch, h);
        self.c.resize(batch, h);
        for t in 0..rows / batch {
            gemm::blocked_gemm_into(&self.h, &self.w_h.value, &mut self.step_gates)
                .expect("recurrent gate shapes agree");
            for b in 0..batch {
                let r = t * batch + b;
                let z = self.gates.row_mut(r);
                simd::add_bias(z, self.step_gates.row(b));
                simd::sigmoid_slice(&mut z[..2 * h]);
                simd::tanh_slice(&mut z[2 * h..3 * h]);
                simd::sigmoid_slice(&mut z[3 * h..]);
                let (hs, cs) = (self.h.row_mut(b), self.c.row_mut(b));
                self.h_prev.row_mut(r).copy_from_slice(hs);
                self.c_prev.row_mut(r).copy_from_slice(cs);
                // c = f ⊙ c_prev + i ⊙ g, h = o ⊙ tanh(c)
                for j in 0..h {
                    cs[j] = z[h + j] * cs[j] + z[j] * z[2 * h + j];
                }
                let tc = self.tanh_c.row_mut(r);
                tc.copy_from_slice(cs);
                simd::tanh_slice(tc);
                for j in 0..h {
                    hs[j] = z[3 * h + j] * tc[j];
                }
                out.row_mut(r).copy_from_slice(hs);
            }
        }
        self.batch = batch;
    }

    /// Backpropagation through time over the cached forward pass. `grad` is
    /// the gradient w.r.t. every stacked hidden output (from the next layer
    /// or the softmax); the gradient w.r.t. the stacked input is written
    /// into `dx` (resized in place) and the parameter gradients are stored.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`LstmCell::forward_into`] or
    /// with a gradient whose shape differs from that pass's output.
    pub fn backward_into(&mut self, grad: &Matrix, dx: &mut Matrix) {
        let batch = self.batch;
        assert!(batch > 0, "backward called without forward");
        assert_eq!(
            grad.shape(),
            self.h_prev.shape(),
            "one hidden gradient per cached row is required"
        );
        let h = self.hidden;
        self.dz.resize_for_overwrite(grad.rows(), 4 * h);
        self.step_gates.resize_for_overwrite(batch, 4 * h);
        self.h.resize(batch, h);
        self.c.resize(batch, h);
        self.w_h.value.transpose_into(&mut self.w_h_t);
        for t in (0..grad.rows() / batch).rev() {
            for b in 0..batch {
                let r = t * batch + b;
                let (z, tc, cp) = (self.gates.row(r), self.tanh_c.row(r), self.c_prev.row(r));
                let (gh, dh_next, dc_next) = (grad.row(r), self.h.row(b), self.c.row_mut(b));
                let dz_t = self.step_gates.row_mut(b);
                for j in 0..h {
                    let (i, f, g, o) = (z[j], z[h + j], z[2 * h + j], z[3 * h + j]);
                    // h = o ⊙ tanh(c)
                    let dh = gh[j] + dh_next[j];
                    let d_o = dh * tc[j];
                    let dc = dh * o * (1.0 - tc[j] * tc[j]) + dc_next[j];
                    // c = f ⊙ c_prev + i ⊙ g
                    let d_f = dc * cp[j];
                    let d_i = dc * g;
                    let d_g = dc * i;
                    dc_next[j] = dc * f;
                    // Pre-activation gradients.
                    dz_t[j] = d_i * (i * (1.0 - i));
                    dz_t[h + j] = d_f * (f * (1.0 - f));
                    dz_t[2 * h + j] = d_g * (1.0 - g * g);
                    dz_t[3 * h + j] = d_o * (o * (1.0 - o));
                }
                self.dz.row_mut(r).copy_from_slice(dz_t);
            }
            gemm::blocked_gemm_into(&self.step_gates, &self.w_h_t, &mut self.h)
                .expect("hidden gradient shapes agree");
        }
        gemm::gemm_at_b_into(&self.h_prev, &self.dz, &mut self.w_h.grad)
            .expect("weight gradient shapes agree");
        self.input.backward_into(&self.dz, dx);
        self.batch = 0;
    }

    /// Per-timestep adapter over [`LstmCell::forward_into`]: stacks `inputs`
    /// (one `(batch, input_dim)` matrix per timestep), runs one stacked pass
    /// and unstacks the hidden states into `outputs` (resized to the
    /// sequence length, entries recycled).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, plus everything
    /// [`LstmCell::forward_into`] panics on.
    pub fn forward_sequence_into(&mut self, inputs: &[Matrix], outputs: &mut Vec<Matrix>) {
        let batch = inputs.first().map_or(0, Matrix::rows);
        let (mut x, mut hs) = (Matrix::default(), Matrix::default());
        stack_rows_into(inputs, &mut x);
        self.forward_into(&x, batch, &mut hs);
        unstack_rows_into(&hs, inputs.len(), batch, outputs);
    }

    /// Per-timestep adapter over [`LstmCell::backward_into`]: `grad_hidden[t]`
    /// is the gradient w.r.t. the hidden output of timestep `t`; the input
    /// gradient of each timestep lands in `dx_out` (resized to the sequence
    /// length, entries recycled).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LstmCell::backward_into`].
    pub fn backward_sequence_into(&mut self, grad_hidden: &[Matrix], dx_out: &mut Vec<Matrix>) {
        let batch = grad_hidden.first().map_or(0, Matrix::rows);
        let (mut grad, mut dx) = (Matrix::default(), Matrix::default());
        stack_rows_into(grad_hidden, &mut grad);
        self.backward_into(&grad, &mut dx);
        unstack_rows_into(&dx, grad_hidden.len(), batch, dx_out);
    }
}

impl Params for LstmCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.input.visit_params(f);
        f(&mut self.w_h);
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
    /// Gradient-clipping threshold on the max-abs value over every
    /// parameter gradient (0 disables): `nn::optimizer`'s one
    /// `clip_gradients` rule, shared with the transformer LM.
    pub grad_clip: f32,
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

/// Recycled buffers of one [`LstmLm`] pass: the stacked sequence
/// ping-ponged between a layer's input and its output (the embeddings and
/// hidden states forward, their gradients backward), the logits, the
/// flattened targets and the softmax cross-entropy scratch. Together with
/// the per-cell caches this makes training and evaluation allocation-free
/// once shapes have stabilised.
#[derive(Debug, Clone, Default)]
struct SeqWorkspace {
    /// A layer's stacked input forward; the gradient w.r.t. its output
    /// backward.
    seq: Matrix,
    /// The layer's result, swapped into `seq` after each layer.
    next: Matrix,
    /// Projection output (vocabulary logits).
    logits: Matrix,
    /// Next-token targets of the logits rows.
    targets: Vec<usize>,
    /// Softmax cross-entropy gradient buffer and argmax hit count.
    xent: CrossEntropyScratch,
}

/// Word-level LSTM language model with inter-layer approximate dropout.
#[derive(Debug, Clone)]
pub struct LstmLm {
    embedding: Param,
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
        let embedding = init::gaussian(rng, config.vocab, config.embed_dim, 0.0, 0.1);
        Self {
            embedding: Param::new(embedding),
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
        self.embedding.value.len()
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

    /// Plans one dropout decision per layer for the whole iteration, then
    /// runs the stacked forward pass into `seq_ws.logits` and flattens the
    /// matching targets. Returns the sequence length.
    fn forward_logits(&mut self, tokens: &[Vec<usize>], mut source: PlanSource<'_>) -> usize {
        let (seq_len, batch) = validate_batch(tokens, self.vocab);
        let hidden = self.cells[0].hidden();
        for l in 0..self.dropout.len() {
            let (scheme, plan) = (self.dropout[l].as_mut(), &mut self.plan_ws[l]);
            source.resolve(l, scheme, LayerShape::vector(hidden), plan);
            plan.column_multiplier_into(hidden, &mut self.mult_ws[l]);
        }

        // Embeddings, then each cell's hidden states with its dropout
        // multiplied in place, ping-ponged through the recycled buffers.
        let ws = &mut self.seq_ws;
        let embedding = &self.embedding.value;
        ws.seq
            .resize_for_overwrite(seq_len * batch, embedding.cols());
        for (r, token) in time_major(tokens, 0, seq_len).enumerate() {
            ws.seq.row_mut(r).copy_from_slice(embedding.row(token));
        }
        for (cell, mult) in self.cells.iter_mut().zip(&self.mult_ws) {
            cell.forward_into(&ws.seq, batch, &mut ws.next);
            apply_column_multiplier_inplace(&mut ws.next, mult);
            std::mem::swap(&mut ws.seq, &mut ws.next);
        }
        let projection_shape = LayerShape::new(
            self.projection.in_features(),
            self.projection.out_features(),
        );
        self.projection.forward_act_into(
            &ws.seq,
            &DropoutPlan::none(projection_shape),
            Activation::Identity,
            &mut ws.logits,
        );
        ws.targets.clear();
        ws.targets.extend(time_major(tokens, 1, seq_len));
        seq_len
    }

    fn train_batch_inner(&mut self, tokens: &[Vec<usize>], source: PlanSource<'_>) -> LmBatchStats {
        let seq_len = self.forward_logits(tokens, source);
        let ws = &mut self.seq_ws;
        let stats = lm_batch_stats(&ws.logits, &ws.targets, &mut ws.xent);

        // Backward: the projection's dX lands in `seq`, then each layer
        // multiplies in its dropout and hands its input gradient down.
        self.projection
            .backward_into(ws.xent.grad_logits(), &mut ws.seq);
        for (cell, mult) in self.cells.iter_mut().zip(&self.mult_ws).rev() {
            apply_column_multiplier_inplace(&mut ws.seq, mult);
            cell.backward_into(&ws.seq, &mut ws.next);
            std::mem::swap(&mut ws.seq, &mut ws.next);
        }

        // Scatter the embedding gradient back onto the table rows.
        let embedding = &mut self.embedding;
        let (vocab, width) = embedding.value.shape();
        embedding.grad.resize(vocab, width);
        for (r, token) in time_major(tokens, 0, seq_len).enumerate() {
            let dst = embedding.grad.row_mut(token);
            for (d, &g) in dst.iter_mut().zip(ws.seq.row(r)) {
                *d += g;
            }
        }

        let (sgd, grad_clip) = (self.sgd, self.grad_clip);
        clip_gradients(self, grad_clip);
        sgd.step(self);
        stats
    }

    /// Evaluates loss, perplexity and next-token accuracy with dropout
    /// off: the training forward with every plan reset to the identity, on
    /// the model's own recycled buffers, so a warmed call allocates
    /// nothing. It overwrites the forward caches (gate caches, plan slots)
    /// that a training step refills before its backward pass, and draws no
    /// randomness, so interleaving evaluations leaves a training trajectory
    /// bit for bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LstmLm::train_batch`].
    pub fn evaluate(&mut self, tokens: &[Vec<usize>]) -> LmBatchStats {
        self.forward_logits(tokens, PlanSource::Dense);
        let ws = &mut self.seq_ws;
        lm_batch_stats(&ws.logits, &ws.targets, &mut ws.xent)
    }
}

impl Params for LstmLm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embedding);
        for cell in &mut self.cells {
            cell.visit_params(f);
        }
        self.projection.visit_params(f);
    }
}

/// Checks a batch of token sequences against a `vocab`-word model and
/// returns `(seq_len, batch)`: every sequence holds `seq_len + 1` tokens.
///
/// # Panics
///
/// Panics if the batch is empty, sequences have fewer than two tokens or
/// unequal lengths, or a token id is out of range.
pub(crate) fn validate_batch(tokens: &[Vec<usize>], vocab: usize) -> (usize, usize) {
    assert!(!tokens.is_empty(), "batch must not be empty");
    let len = tokens[0].len();
    assert!(
        len >= 2,
        "sequences need at least two tokens (input + target)"
    );
    for seq in tokens {
        assert_eq!(seq.len(), len, "all sequences must have the same length");
        for &t in seq {
            assert!(t < vocab, "token id {t} out of range");
        }
    }
    (len - 1, tokens.len())
}

/// Loss, perplexity and next-token accuracy of `logits` against `targets`,
/// the loss computed through the recycled cross-entropy `xent` scratch.
pub(crate) fn lm_batch_stats(
    logits: &Matrix,
    targets: &[usize],
    xent: &mut CrossEntropyScratch,
) -> LmBatchStats {
    let loss = softmax_cross_entropy_into(logits, targets, xent);
    LmBatchStats {
        loss,
        perplexity: perplexity_from_nll(loss as f64),
        accuracy: xent.accuracy(),
    }
}

/// Applies a per-column multiplier in place — the allocation-free form of
/// an inter-layer dropout plan (and of its gradient).
pub(crate) fn apply_column_multiplier_inplace(m: &mut Matrix, mult: &[f32]) {
    for i in 0..m.rows() {
        for (v, &s) in m.row_mut(i).iter_mut().zip(mult) {
            *v *= s;
        }
    }
}

/// Token ids of positions `from..from + seq_len` in stacked time-major
/// order (row `t·batch + b` is `tokens[b][from + t]`): the inputs at
/// `from = 0`, the next-token targets at `from = 1`.
fn time_major(
    tokens: &[Vec<usize>],
    from: usize,
    seq_len: usize,
) -> impl Iterator<Item = usize> + '_ {
    (from..from + seq_len).flat_map(move |t| tokens.iter().map(move |seq| seq[t]))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{assert_walk_covers, largest_grad};
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

    /// Stacked forward pass of `cell` over `x`, returning the hidden states.
    fn forward(cell: &mut LstmCell, x: &Matrix, batch: usize) -> Matrix {
        let mut out = Matrix::default();
        cell.forward_into(x, batch, &mut out);
        out
    }

    /// Stacked backward pass of `cell`, returning the input gradient.
    fn backward(cell: &mut LstmCell, grad: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        cell.backward_into(grad, &mut dx);
        dx
    }

    #[test]
    fn cell_forward_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cell = LstmCell::new(&mut rng, 8, 16);
        // Five timesteps of three sequences.
        let out = forward(&mut cell, &Matrix::ones(15, 8), 3);
        assert_eq!(out.shape(), (15, 16));
        // h = o ⊙ tanh(c) is bounded by (-1, 1).
        assert!(out.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn cell_backward_produces_input_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cell = LstmCell::new(&mut rng, 8, 16);
        let out = forward(&mut cell, &Matrix::ones(8, 8), 2);
        let dx = backward(&mut cell, &Matrix::ones(out.rows(), out.cols()));
        assert_eq!(dx.shape(), (8, 8));
        assert!(largest_grad(&mut cell) > 0.0);
    }

    #[test]
    fn cell_numerical_gradient_check_on_wx() {
        // Loss = sum of all hidden outputs of four 4-step sequences (summed
        // in f64 to keep the central differences sharp). `W_h` is scaled up
        // so the recurrent path carries weight: a `W_h` gradient read from
        // the wrong timestep misses the tolerance several times over.
        let mut rng = StdRng::seed_from_u64(2);
        let mut cell = LstmCell::new(&mut rng, 3, 4);
        cell.w_h.value.map_inplace(|v| v * 3.0);
        let x = init::uniform(&mut rng, 16, 3, -1.0, 1.0);
        let loss = |cell: &LstmCell| {
            let out = forward(&mut cell.clone(), &x, 4);
            out.as_slice().iter().map(|&v| f64::from(v)).sum::<f64>() as f32
        };

        let mut analytic_cell = cell.clone();
        let out = forward(&mut analytic_cell, &x, 4);
        let _ = backward(&mut analytic_cell, &Matrix::ones(out.rows(), out.cols()));

        #[derive(Clone, Copy, Debug)]
        enum Param {
            Wx,
            Wh,
            Bias,
        }
        let nudged = |param: Param, (r, c): (usize, usize), delta: f32| {
            let mut out = cell.clone();
            let (mut w, mut bias) = (cell.input.weight().clone(), cell.input.bias().clone());
            match param {
                Param::Wx => w[(r, c)] += delta,
                Param::Wh => out.w_h.value[(r, c)] += delta,
                Param::Bias => bias[(r, c)] += delta,
            }
            out.input = Linear::from_parameters(w, bias);
            out
        };
        let eps = 1e-2f32;
        let entries = [
            (Param::Wx, (0usize, 0usize)),
            (Param::Wx, (1, 5)),
            (Param::Wx, (2, 10)),
            (Param::Wx, (0, 15)),
            (Param::Wh, (0, 1)),
            (Param::Wh, (3, 6)),
            (Param::Wh, (2, 13)),
            // Columns 4..8 are the forget gate, 8..12 the cell gate.
            (Param::Bias, (0, 5)),
            (Param::Bias, (0, 9)),
        ];
        for (param, (r, c)) in entries {
            let numeric = (loss(&nudged(param, (r, c), eps)) - loss(&nudged(param, (r, c), -eps)))
                / (2.0 * eps);
            let analytic = match param {
                Param::Wx => analytic_cell.input.weight_grad()[(r, c)],
                Param::Wh => analytic_cell.w_h.grad[(r, c)],
                Param::Bias => analytic_cell.input.bias_grad()[(r, c)],
            };
            assert!(
                (numeric - analytic).abs() <= 1e-4 + 1e-3 * analytic.abs(),
                "{param:?}[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Every backward pass packs `W_hᵀ` from the current weights: after a
    /// pass and a weight change, the next pass equals that of a copy whose
    /// packed buffer starts empty.
    #[test]
    fn backward_packs_the_current_recurrent_weights() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut cell = LstmCell::new(&mut rng, 4, 8);
        let x = init::uniform(&mut rng, 12, 4, -1.0, 1.0);
        let grad = init::uniform(&mut rng, 12, 8, -1.0, 1.0);
        let _ = forward(&mut cell, &x, 3);
        let _ = backward(&mut cell, &grad);
        cell.w_h.value.map_inplace(|v| v * 2.0);
        let mut fresh = cell.clone();
        fresh.w_h_t = Matrix::default();
        assert_eq!(forward(&mut cell, &x, 3), forward(&mut fresh, &x, 3));
        assert_eq!(backward(&mut cell, &grad), backward(&mut fresh, &grad));
        assert_eq!(cell.w_h.grad, fresh.w_h.grad);
    }

    #[test]
    fn gate_workspaces_are_recycled_across_iterations() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut cell = LstmCell::new(&mut rng, 8, 16);
        let x = Matrix::ones(12, 8);
        let grad = Matrix::ones(12, 16);
        let _ = forward(&mut cell, &x, 4);
        let _ = backward(&mut cell, &grad);
        // Second iteration with the same shapes: the stacked gate cache and
        // gate-gradient buffer must be reused, not reallocated.
        let gate_ptr = cell.gates.as_slice().as_ptr();
        let dz_ptr = cell.dz.as_slice().as_ptr();
        let _ = forward(&mut cell, &x, 4);
        assert_eq!(
            gate_ptr,
            cell.gates.as_slice().as_ptr(),
            "gate cache must be recycled"
        );
        let _ = backward(&mut cell, &grad);
        assert_eq!(
            dz_ptr,
            cell.dz.as_slice().as_ptr(),
            "dz workspace must be recycled"
        );
    }

    #[test]
    fn shrinking_sequence_reuses_then_truncates_cached_steps() {
        // A shorter sequence after a longer one must not leave stale steps
        // visible to backward: the short pass equals a fresh cell's.
        let mut rng = StdRng::seed_from_u64(41);
        let mut cell = LstmCell::new(&mut rng, 4, 8);
        let mut fresh = cell.clone();
        let _ = forward(&mut cell, &Matrix::ones(10, 4), 2);
        let short = init::uniform(&mut rng, 4, 4, -1.0, 1.0);
        let out = forward(&mut cell, &short, 2);
        assert_eq!(out, forward(&mut fresh, &short, 2));
        let grad = Matrix::ones(4, 8);
        let dx = backward(&mut cell, &grad);
        assert_eq!(dx.shape(), (4, 4));
        assert_eq!(dx, backward(&mut fresh, &grad));
    }

    #[test]
    fn train_batch_sequence_workspaces_are_recycled() {
        // The stacked sequence ping-pong buffers, logits, target ids and
        // softmax scratch must all reuse their buffers across iterations —
        // the hot path performs no per-iteration allocations once warmed up.
        let mut rng = StdRng::seed_from_u64(42);
        let dropout = scheme::bernoulli(DropoutRate::new(0.3).unwrap());
        let mut lm = LstmLm::new(&config(dropout), &mut rng);
        let batch = cyclic_batch(12, 4, 6);
        let _ = lm.train_batch(&batch, &mut rng);
        let _ = lm.train_batch(&batch, &mut rng);
        let seq_ptr = lm.seq_ws.seq.as_slice().as_ptr();
        let next_ptr = lm.seq_ws.next.as_slice().as_ptr();
        let logits_ptr = lm.seq_ws.logits.as_slice().as_ptr();
        let targets_ptr = lm.seq_ws.targets.as_ptr();
        let grad_ptr = lm.seq_ws.xent.grad_logits().as_slice().as_ptr();
        let _ = lm.train_batch(&batch, &mut rng);
        assert_eq!(seq_ptr, lm.seq_ws.seq.as_slice().as_ptr());
        assert_eq!(next_ptr, lm.seq_ws.next.as_slice().as_ptr());
        assert_eq!(logits_ptr, lm.seq_ws.logits.as_slice().as_ptr());
        assert_eq!(targets_ptr, lm.seq_ws.targets.as_ptr());
        assert_eq!(grad_ptr, lm.seq_ws.xent.grad_logits().as_slice().as_ptr());
    }

    #[test]
    fn sequence_adapters_match_stacked_pass_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut stacked = LstmCell::new(&mut rng, 6, 10);
        let mut adapted = stacked.clone();
        let inputs: Vec<Matrix> = (0..3)
            .map(|_| init::uniform(&mut rng, 4, 6, -1.0, 1.0))
            .collect();
        let grads: Vec<Matrix> = (0..3)
            .map(|_| init::uniform(&mut rng, 4, 10, -1.0, 1.0))
            .collect();
        let (mut x, mut grad) = (Matrix::default(), Matrix::default());
        stack_rows_into(&inputs, &mut x);
        stack_rows_into(&grads, &mut grad);

        let out = forward(&mut stacked, &x, 4);
        let mut outputs = Vec::new();
        adapted.forward_sequence_into(&inputs, &mut outputs);
        let mut restacked = Matrix::default();
        stack_rows_into(&outputs, &mut restacked);
        assert_eq!(out, restacked);

        let dx = backward(&mut stacked, &grad);
        let mut dx_steps = Vec::new();
        adapted.backward_sequence_into(&grads, &mut dx_steps);
        stack_rows_into(&dx_steps, &mut restacked);
        assert_eq!(dx, restacked);
        assert_eq!(stacked.w_h.grad, adapted.w_h.grad);
        assert_eq!(stacked.input, adapted.input);
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
    fn degenerate_batches_train_and_evaluate() {
        // One-step sequences, a single sequence, and a shorter batch after a
        // longer one all run end to end.
        let mut rng = StdRng::seed_from_u64(44);
        let dropout = scheme::row(DropoutRate::new(0.5).unwrap(), 8).unwrap();
        let mut lm = LstmLm::new(&config(dropout), &mut rng);
        for batch in [
            cyclic_batch(12, 3, 1),
            cyclic_batch(12, 1, 5),
            cyclic_batch(12, 4, 9),
            cyclic_batch(12, 2, 3),
        ] {
            assert!(lm.train_batch(&batch, &mut rng).loss.is_finite());
            assert!(lm.evaluate(&batch).loss.is_finite());
        }
    }

    #[test]
    fn gradient_clipping_bounds_every_stored_gradient() {
        let mut rng = StdRng::seed_from_u64(45);
        let clip = 1e-3;
        let mut lm = LstmLm::new(
            &LstmLmConfig {
                grad_clip: clip,
                ..config(scheme::none())
            },
            &mut rng,
        );
        let _ = lm.train_batch(&cyclic_batch(12, 4, 6), &mut rng);
        let max_abs = |m: &Matrix| m.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let bound = clip * (1.0 + 1e-5);
        assert!(max_abs(&lm.embedding.grad) <= bound);
        for cell in &mut lm.cells {
            assert!(largest_grad(cell) <= bound);
        }
        assert!(max_abs(lm.projection.weight_grad()) <= bound);
        assert!(max_abs(lm.projection.bias_grad()) <= bound);
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
    fn parameter_walk_visits_every_tensor_once() {
        // The embedding, `W_x`, its bias and `W_h` per layer, and the
        // projection's weight and bias.
        let mut rng = StdRng::seed_from_u64(10);
        for layers in [1, 2, 3] {
            let mut lm = LstmLm::new(
                &LstmLmConfig {
                    layers,
                    ..config(scheme::none())
                },
                &mut rng,
            );
            let count = lm.parameter_count();
            assert_walk_covers(&mut lm, 1 + 3 * layers + 2, count);
        }
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
        let mut stacked = Matrix::default();
        stack_rows_into(&[a.clone(), b.clone()], &mut stacked);
        assert_eq!(stacked.shape(), (4, 2));
        assert_eq!(stacked.row(1), a.row(1));
        assert_eq!(stacked.row(2), b.row(0));
        let mut unstacked = Vec::new();
        unstack_rows_into(&stacked, 2, 2, &mut unstacked);
        assert_eq!(unstacked, vec![a, b]);
    }
}
