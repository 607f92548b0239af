//! Transformer encoder language model with structured attention dropout.
//!
//! The model is the third architecture next to [`crate::Mlp`] and
//! [`crate::lstm::LstmLm`]: an embedding table with fixed sinusoidal
//! positional encodings, a stack of encoder blocks (multi-head
//! self-attention + feed-forward, both with residual connections), and a
//! softmax projection over the vocabulary. The self-attention is causally
//! masked so the next-token objective — the same perplexity the LSTM
//! experiments report on PTB — stays well-posed.
//!
//! Dropout enters through the one plan–execute API every family shares,
//! with two sites per encoder block:
//!
//! * **Attention** — the plan is dispatched structurally:
//!   - a block-unit plan whose blocks are exactly the heads
//!     ([`DropoutPlan::kept_heads`]) drops *whole attention heads* (SDropout
//!     on attention): only the kept heads' `softmax(QKᵀ/√d)·V` pipelines run
//!     at all, their context columns carry the inverted-dropout scale, and
//!     dropped heads' columns stay exactly zero — the CPU analogue of the
//!     proportionally shrunk batched GEMMs the timing model prices;
//!   - an N:M plan ([`DropoutPlan::nm_lanes`]) is routed into the Q/K/V/O
//!     projection [`Linear`] layers, whose existing gather kernels execute
//!     the 2:4 lane compaction on the projection weights;
//!   - every other plan falls back to the LSTM's inter-layer idiom: a
//!     per-column multiplier ([`DropoutPlan::column_multiplier_into`])
//!     applied to the attention context before the output projection.
//! * **FFN** — the first feed-forward layer reuses [`Linear`] with the plan
//!   passed straight through ([`Linear::forward_act_into`], fused
//!   GEMM+bias+ReLU), so every existing `DropoutScheme` works unchanged,
//!   exactly like an [`crate::Mlp`] hidden layer. The backward ReLU is
//!   gated by the cached post-activation (`relu(z) > 0 ⇔ z > 0`).
//!
//! All softmax rows, per-head gathers and gradients live in recycled scratch
//! workspaces (the `loss` scratch idiom): once shapes have stabilised the
//! training hot path performs no per-iteration heap allocations, which the
//! pointer-identity tests pin down.

use crate::layers::Linear;
use crate::loss::{softmax_cross_entropy_into, CrossEntropyScratch};
use crate::lstm::LmBatchStats;
use crate::metrics::perplexity_from_nll;
use crate::mlp::PlanSource;
use crate::optimizer::Sgd;
use approx_dropout::{Activation, DropoutPlan, DropoutScheme, LayerShape};
use rand::Rng;
use tensor::{gemm, init, ops, Matrix};

/// Configuration of the transformer encoder language model.
#[derive(Debug, Clone)]
pub struct TransformerLmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width (embedding and residual-stream dimension).
    pub model_dim: usize,
    /// Number of attention heads; must divide `model_dim`.
    pub heads: usize,
    /// Hidden width of the feed-forward block.
    pub ff_dim: usize,
    /// Number of stacked encoder blocks.
    pub layers: usize,
    /// Dropout scheme planned against the attention site
    /// (`model_dim × model_dim`) of every block.
    pub attn_dropout: Box<dyn DropoutScheme>,
    /// Dropout scheme planned against the FFN hidden site
    /// (`model_dim × ff_dim`) of every block.
    pub ffn_dropout: Box<dyn DropoutScheme>,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Gradient-clipping threshold on the embedding gradient's max-abs
    /// value (0 disables). The `Linear` layers keep their unclipped
    /// gradients — like the LSTM's projection they are the best
    /// conditioned of the stack.
    pub grad_clip: f32,
}

impl TransformerLmConfig {
    /// A down-scaled stand-in for a paper-scale encoder that trains on one
    /// CPU core: `heads` heads over `model_dim` channels, a `4×` FFN, two
    /// blocks.
    pub fn scaled_paper_transformer(
        vocab: usize,
        model_dim: usize,
        heads: usize,
        attn_dropout: Box<dyn DropoutScheme>,
        ffn_dropout: Box<dyn DropoutScheme>,
    ) -> Self {
        Self {
            vocab,
            model_dim,
            heads,
            ff_dim: 4 * model_dim,
            layers: 2,
            attn_dropout,
            ffn_dropout,
            learning_rate: 0.1,
            momentum: 0.0,
            grad_clip: 5.0,
        }
    }
}

/// Batch geometry threaded through the encoder blocks.
#[derive(Debug, Clone, Copy)]
struct Geom {
    batch: usize,
    seq: usize,
    heads: usize,
    head_dim: usize,
}

impl Geom {
    fn model_dim(&self) -> usize {
        self.heads * self.head_dim
    }

    fn rows(&self) -> usize {
        self.batch * self.seq
    }
}

/// How one iteration's attention plan executes, resolved structurally from
/// the sampled [`DropoutPlan`] (the nn-side counterpart of the pricing
/// dispatch in `gpu-sim`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum AttnPath {
    /// Whole-head drop: the plan's unit blocks are exactly the heads, so
    /// only kept heads compute and their context carries the kept scale.
    HeadDrop,
    /// N:M lanes: the plan rides inside the Q/K/V/O projection GEMMs.
    Projection,
    /// Everything else: per-column multiplier on the attention context.
    Multiplier,
}

fn attn_path(plan: &DropoutPlan, g: Geom) -> AttnPath {
    if plan.kept_heads(g.head_dim, g.heads).is_some() {
        return AttnPath::HeadDrop;
    }
    if plan.nm_lanes().is_some() {
        return AttnPath::Projection;
    }
    AttnPath::Multiplier
}

/// Recycled scratch of one encoder block: activations, per-head gathers,
/// cached softmax rows and every backward buffer. All matrices are resized
/// in place each iteration, so nothing is reallocated while shapes are
/// stable.
#[derive(Debug, Clone, Default)]
struct BlockWorkspace {
    /// Q/K/V projection outputs, `(batch·seq, model_dim)`.
    q_all: Matrix,
    k_all: Matrix,
    v_all: Matrix,
    /// Attention context (head outputs concatenated), dropped head columns
    /// exactly zero.
    ctx: Matrix,
    /// Residual-summed attention output `x + O(ctx)`, input to the FFN.
    y1: Matrix,
    /// Post-ReLU FFN hidden activation (also gates the backward ReLU).
    ffn_act: Matrix,
    /// Block output `y1 + ffn2(ffn_act)`.
    y2: Matrix,
    /// Per-(batch, head) gather scratch, `(seq, head_dim)`.
    qh: Matrix,
    kh: Matrix,
    vh: Matrix,
    ctx_h: Matrix,
    /// Pre-softmax scores forward, softmax-backward `dS` backward.
    scores: Matrix,
    /// Cached softmax rows per (batch, head), indexed `b·heads + h`.
    probs: Vec<Matrix>,
    /// Heads to compute this iteration (kept heads, or all of them).
    head_ws: Vec<usize>,
    /// Fallback per-column multiplier on the attention context.
    attn_mult: Vec<f32>,
    /// Backward buffers.
    dffn: Matrix,
    dy1: Matrix,
    dctx: Matrix,
    dctx_h: Matrix,
    dprobs: Matrix,
    dqh: Matrix,
    dkh: Matrix,
    dvh: Matrix,
    dq_all: Matrix,
    dk_all: Matrix,
    dv_all: Matrix,
    dproj: Matrix,
    /// Gradient w.r.t. the block input, read by the next block down.
    dx: Matrix,
}

/// One encoder block: Q/K/V/O projections, causal multi-head attention and
/// a two-layer FFN, both sub-blocks residual.
#[derive(Debug, Clone)]
struct EncoderBlock {
    q: Linear,
    k: Linear,
    v: Linear,
    o: Linear,
    ffn1: Linear,
    ffn2: Linear,
    attn_dropout: Box<dyn DropoutScheme>,
    ffn_dropout: Box<dyn DropoutScheme>,
    /// Reusable plan buffers, re-resolved in place each iteration.
    attn_plan: DropoutPlan,
    ffn_plan: DropoutPlan,
    ws: BlockWorkspace,
}

/// Copies the `head`-th `head_dim`-wide column band of rows
/// `row0..row0+seq` of `src` into `out` (resized in place), scaling every
/// element — the gather half of the per-head attention pipeline.
fn gather_head(src: &Matrix, row0: usize, seq: usize, band: (usize, usize), out: &mut Matrix) {
    let (head, head_dim) = band;
    let c0 = head * head_dim;
    out.resize_for_overwrite(seq, head_dim);
    for s in 0..seq {
        out.row_mut(s)
            .copy_from_slice(&src.row(row0 + s)[c0..c0 + head_dim]);
    }
}

/// Writes `scale · src` into the `head`-th column band of rows
/// `row0..row0+src.rows()` of `out` — the scatter half. `out` must already
/// hold the full `(batch·seq, model_dim)` shape; bands of dropped heads are
/// simply never written (they stay at the zero fill).
fn scatter_head(src: &Matrix, row0: usize, band: (usize, usize), scale: f32, out: &mut Matrix) {
    let (head, head_dim) = band;
    let c0 = head * head_dim;
    for s in 0..src.rows() {
        let dst = &mut out.row_mut(row0 + s)[c0..c0 + head_dim];
        for (d, &v) in dst.iter_mut().zip(src.row(s)) {
            *d = v * scale;
        }
    }
}

/// Applies the causal mask and the `1/√head_dim` scaling to raw `QKᵀ`
/// scores in place: entries above the diagonal become `-∞` (softmax weight
/// exactly 0), the rest are scaled.
fn causal_scale_inplace(scores: &mut Matrix, inv_sqrt: f32) {
    for i in 0..scores.rows() {
        let row = scores.row_mut(i);
        for v in &mut row[..=i] {
            *v *= inv_sqrt;
        }
        for v in &mut row[i + 1..] {
            *v = f32::NEG_INFINITY;
        }
    }
}

/// Applies a per-column multiplier in place (the inter-layer dropout idiom
/// shared with the LSTM).
fn apply_column_multiplier_inplace(m: &mut Matrix, mult: &[f32]) {
    for i in 0..m.rows() {
        for (v, &s) in m.row_mut(i).iter_mut().zip(mult) {
            *v *= s;
        }
    }
}

impl EncoderBlock {
    fn new<R: Rng + ?Sized>(
        rng: &mut R,
        model_dim: usize,
        ff_dim: usize,
        attn_dropout: Box<dyn DropoutScheme>,
        ffn_dropout: Box<dyn DropoutScheme>,
    ) -> Self {
        Self {
            q: Linear::new(rng, model_dim, model_dim),
            k: Linear::new(rng, model_dim, model_dim),
            v: Linear::new(rng, model_dim, model_dim),
            o: Linear::new(rng, model_dim, model_dim),
            ffn1: Linear::new(rng, model_dim, ff_dim),
            ffn2: Linear::new(rng, ff_dim, model_dim),
            attn_dropout,
            ffn_dropout,
            attn_plan: DropoutPlan::default(),
            ffn_plan: DropoutPlan::default(),
            ws: BlockWorkspace::default(),
        }
    }

    fn parameter_count(&self) -> usize {
        self.q.parameter_count()
            + self.k.parameter_count()
            + self.v.parameter_count()
            + self.o.parameter_count()
            + self.ffn1.parameter_count()
            + self.ffn2.parameter_count()
    }

    /// The kept heads of this iteration, resolved into the recycled
    /// `head_ws` buffer.
    fn resolve_heads(&mut self, g: Geom) {
        self.ws.head_ws.clear();
        match self.attn_plan.kept_heads(g.head_dim, g.heads) {
            Some(kept) => self.ws.head_ws.extend_from_slice(kept),
            None => self.ws.head_ws.extend(0..g.heads),
        }
    }

    /// The multiplier applied to raw `QKᵀ` scores: `1/√head_dim`, with the
    /// plan scale the Q and K projections put on their kept lanes divided
    /// back out so the scores stay unbiased. On the head-drop path both
    /// projections gather only the kept-head columns, which carry the full
    /// inverted-dropout scale (squared in `QKᵀ`); on the N:M
    /// projection path the kept lanes average one factor of the scale.
    fn score_multiplier(&self, path: AttnPath, g: Geom) -> f32 {
        let inv_sqrt = 1.0 / (g.head_dim as f32).sqrt();
        match path {
            AttnPath::HeadDrop => {
                let s = self.attn_plan.scale();
                inv_sqrt / (s * s)
            }
            AttnPath::Projection => inv_sqrt / self.attn_plan.scale(),
            AttnPath::Multiplier => inv_sqrt,
        }
    }

    /// Forward pass of one block over the stacked `(batch·seq, model_dim)`
    /// input. Caches everything backward needs.
    fn forward(&mut self, x: &Matrix, g: Geom) {
        let d = g.model_dim();
        let path = attn_path(&self.attn_plan, g);
        self.resolve_heads(g);
        let dense = DropoutPlan::none(LayerShape::new(d, d));
        // Q/K/V execute the attention plan on both structured paths through
        // the column gather: N:M lanes, or whole heads as contiguous column
        // blocks, so dropped heads' projection columns are never computed
        // (the kept columns carry the inverted-dropout scale). Only the
        // fallback multiplier path projects densely.
        let qkv_plan: &DropoutPlan = match path {
            AttnPath::Projection | AttnPath::HeadDrop => &self.attn_plan,
            AttnPath::Multiplier => &dense,
        };
        // O's outputs are the residual stream, not head-structured — it only
        // carries the plan when the plan rides inside every projection GEMM.
        let o_plan: &DropoutPlan = if path == AttnPath::Projection {
            &self.attn_plan
        } else {
            &dense
        };

        self.q
            .forward_act_into(x, qkv_plan, Activation::Identity, &mut self.ws.q_all);
        self.k
            .forward_act_into(x, qkv_plan, Activation::Identity, &mut self.ws.k_all);
        self.v
            .forward_act_into(x, qkv_plan, Activation::Identity, &mut self.ws.v_all);

        // Per-(batch, head) attention: gather the head band, run
        // softmax(QKᵀ/√d)·V on the recycled scratch, scatter the context
        // back. Dropped heads never execute — their context columns stay at
        // the zero fill, exactly what the timing model prices as the
        // proportionally shrunk batched GEMM.
        let score_mul = self.score_multiplier(path, g);
        let ws = &mut self.ws;
        ws.ctx.resize(g.rows(), d);
        ws.probs.resize_with(g.batch * g.heads, Matrix::default);
        for b in 0..g.batch {
            let row0 = b * g.seq;
            for i in 0..ws.head_ws.len() {
                let h = ws.head_ws[i];
                let band = (h, g.head_dim);
                gather_head(&ws.q_all, row0, g.seq, band, &mut ws.qh);
                gather_head(&ws.k_all, row0, g.seq, band, &mut ws.kh);
                gather_head(&ws.v_all, row0, g.seq, band, &mut ws.vh);
                gemm::gemm_a_bt_into(&ws.qh, &ws.kh, &mut ws.scores)
                    .expect("attention score shapes agree");
                causal_scale_inplace(&mut ws.scores, score_mul);
                let probs = &mut ws.probs[b * g.heads + h];
                ops::softmax_rows_into(&ws.scores, probs);
                gemm::blocked_gemm_into(probs, &ws.vh, &mut ws.ctx_h)
                    .expect("attention context shapes agree");
                // V's kept columns already carry the inverted-dropout scale
                // on the head-drop path, so the context scatters unscaled.
                scatter_head(&ws.ctx_h, row0, band, 1.0, &mut ws.ctx);
            }
        }
        if path == AttnPath::Multiplier {
            self.attn_plan
                .column_multiplier_into(d, &mut self.ws.attn_mult);
            apply_column_multiplier_inplace(&mut self.ws.ctx, &self.ws.attn_mult);
        }

        // Output projection + residual: y1 = x + O(ctx).
        self.o
            .forward_act_into(&self.ws.ctx, o_plan, Activation::Identity, &mut self.ws.y1);
        self.ws
            .y1
            .axpy_inplace(1.0, x)
            .expect("residual shapes agree");

        // FFN with the second dropout site riding the fused kernel, then the
        // second residual: y2 = y1 + ffn2(relu(ffn1(y1))).
        self.ffn1.forward_act_into(
            &self.ws.y1,
            &self.ffn_plan,
            Activation::Relu,
            &mut self.ws.ffn_act,
        );
        let dense_ff2 = DropoutPlan::none(LayerShape::new(self.ffn2.in_features(), d));
        self.ffn2.forward_act_into(
            &self.ws.ffn_act,
            &dense_ff2,
            Activation::Identity,
            &mut self.ws.y2,
        );
        self.ws
            .y2
            .axpy_inplace(1.0, &self.ws.y1)
            .expect("residual shapes agree");
    }

    /// Backward pass given the gradient w.r.t. the block output; leaves the
    /// gradient w.r.t. the block input in `ws.dx`.
    fn backward(&mut self, dout: &Matrix, g: Geom) {
        let d = g.model_dim();
        let path = attn_path(&self.attn_plan, g);
        self.resolve_heads(g);

        // FFN backward. The post-ReLU activation gates the gradient exactly
        // like the pre-activation would: relu(z) > 0 ⇔ z > 0.
        self.ffn2.backward_into(dout, &mut self.ws.dffn);
        ops::relu_grad_mask_inplace(&mut self.ws.dffn, &self.ws.ffn_act);
        self.ffn1.backward_into(&self.ws.dffn, &mut self.ws.dy1);
        self.ws
            .dy1
            .axpy_inplace(1.0, dout)
            .expect("residual gradient shapes agree");

        // Attention backward: through O, the context multiplier/scale, the
        // cached softmax rows, and the Q/K/V projections.
        self.o.backward_into(&self.ws.dy1, &mut self.ws.dctx);
        if path == AttnPath::Multiplier {
            apply_column_multiplier_inplace(&mut self.ws.dctx, &self.ws.attn_mult);
        }
        let score_mul = self.score_multiplier(path, g);
        let ws = &mut self.ws;
        // Zero-filled so dropped heads contribute exactly nothing.
        ws.dq_all.resize(g.rows(), d);
        ws.dk_all.resize(g.rows(), d);
        ws.dv_all.resize(g.rows(), d);
        for b in 0..g.batch {
            let row0 = b * g.seq;
            for i in 0..ws.head_ws.len() {
                let h = ws.head_ws[i];
                let band = (h, g.head_dim);
                gather_head(&ws.q_all, row0, g.seq, band, &mut ws.qh);
                gather_head(&ws.k_all, row0, g.seq, band, &mut ws.kh);
                gather_head(&ws.v_all, row0, g.seq, band, &mut ws.vh);
                gather_head(&ws.dctx, row0, g.seq, band, &mut ws.dctx_h);
                let probs = &ws.probs[b * g.heads + h];
                // dP = dCtx·Vᵀ and dV = Pᵀ·dCtx on the transposed-operand
                // kernels (no transpose is ever materialised).
                gemm::gemm_a_bt_into(&ws.dctx_h, &ws.vh, &mut ws.dprobs)
                    .expect("attention gradient shapes agree");
                gemm::gemm_at_b_into(probs, &ws.dctx_h, &mut ws.dvh)
                    .expect("attention gradient shapes agree");
                scatter_head(&ws.dvh, row0, band, 1.0, &mut ws.dv_all);
                // Softmax backward into the recycled scores buffer:
                // dS = P ⊙ (dP − rowsum(dP ⊙ P)), then the 1/√d chain.
                // Masked entries have P = 0, so their dS is exactly 0.
                ws.scores.resize_for_overwrite(g.seq, g.seq);
                for r in 0..g.seq {
                    let prow = probs.row(r);
                    let dprow = ws.dprobs.row(r);
                    let dot: f32 = prow.iter().zip(dprow).map(|(&p, &dp)| p * dp).sum();
                    let srow = ws.scores.row_mut(r);
                    for (s, (&p, &dp)) in srow.iter_mut().zip(prow.iter().zip(dprow)) {
                        *s = p * (dp - dot) * score_mul;
                    }
                }
                // dQ = dS·K and dK = dSᵀ·Q.
                gemm::blocked_gemm_into(&ws.scores, &ws.kh, &mut ws.dqh)
                    .expect("attention gradient shapes agree");
                scatter_head(&ws.dqh, row0, band, 1.0, &mut ws.dq_all);
                gemm::gemm_at_b_into(&ws.scores, &ws.qh, &mut ws.dkh)
                    .expect("attention gradient shapes agree");
                scatter_head(&ws.dkh, row0, band, 1.0, &mut ws.dk_all);
            }
        }

        // Projection backward, summed into dx together with the residual.
        self.q.backward_into(&self.ws.dq_all, &mut self.ws.dx);
        self.k.backward_into(&self.ws.dk_all, &mut self.ws.dproj);
        self.ws
            .dx
            .axpy_inplace(1.0, &self.ws.dproj)
            .expect("projection gradient shapes agree");
        self.v.backward_into(&self.ws.dv_all, &mut self.ws.dproj);
        self.ws
            .dx
            .axpy_inplace(1.0, &self.ws.dproj)
            .expect("projection gradient shapes agree");
        self.ws
            .dx
            .axpy_inplace(1.0, &self.ws.dy1)
            .expect("residual gradient shapes agree");
    }

    fn step(&mut self, sgd: &Sgd) {
        self.q.step(sgd);
        self.k.step(sgd);
        self.v.step(sgd);
        self.o.step(sgd);
        self.ffn1.step(sgd);
        self.ffn2.step(sgd);
    }

    fn layers(&self) -> [&Linear; 6] {
        [&self.q, &self.k, &self.v, &self.o, &self.ffn1, &self.ffn2]
    }

    fn layers_mut(&mut self) -> [&mut Linear; 6] {
        [
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.o,
            &mut self.ffn1,
            &mut self.ffn2,
        ]
    }

    fn grad_max_abs(&self) -> f32 {
        self.layers()
            .iter()
            .fold(0.0f32, |m, l| m.max(l.grad_max_abs()))
    }

    fn scale_gradients(&mut self, factor: f32) {
        for layer in self.layers_mut() {
            layer.scale_gradients(factor);
        }
    }
}

/// Recycled model-level buffers of one training iteration.
#[derive(Debug, Clone, Default)]
struct ModelWorkspace {
    /// Embedded input with positional encodings, `(batch·seq, model_dim)`,
    /// stacked batch-major (row `b·seq + s`).
    x0: Matrix,
    /// Vocabulary logits.
    logits: Matrix,
    /// Gradient w.r.t. the projection input.
    grad_out: Matrix,
    /// Flattened next-token targets (batch-major, matching `x0`).
    targets: Vec<usize>,
    /// Softmax cross-entropy probability/gradient buffers.
    xent: CrossEntropyScratch,
}

/// Word-level transformer encoder language model with structured attention
/// dropout — the third model family next to [`crate::Mlp`] and
/// [`crate::lstm::LstmLm`].
#[derive(Debug, Clone)]
pub struct TransformerLm {
    embedding: Matrix,
    embedding_grad: Matrix,
    embedding_vel: Matrix,
    /// Fixed sinusoidal positional encodings, regrown on demand.
    pos_enc: Matrix,
    blocks: Vec<EncoderBlock>,
    projection: Linear,
    sgd: Sgd,
    grad_clip: f32,
    vocab: usize,
    heads: usize,
    head_dim: usize,
    ws: ModelWorkspace,
}

impl TransformerLm {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `heads` does not divide
    /// `model_dim`.
    pub fn new<R: Rng + ?Sized>(config: &TransformerLmConfig, rng: &mut R) -> Self {
        assert!(
            config.vocab > 0
                && config.model_dim > 0
                && config.heads > 0
                && config.ff_dim > 0
                && config.layers > 0,
            "dimensions must be positive"
        );
        assert_eq!(
            config.model_dim % config.heads,
            0,
            "heads must divide model_dim"
        );
        let blocks = (0..config.layers)
            .map(|_| {
                EncoderBlock::new(
                    rng,
                    config.model_dim,
                    config.ff_dim,
                    config.attn_dropout.clone(),
                    config.ffn_dropout.clone(),
                )
            })
            .collect();
        Self {
            embedding: init::gaussian(rng, config.vocab, config.model_dim, 0.0, 0.1),
            embedding_grad: Matrix::zeros(config.vocab, config.model_dim),
            embedding_vel: Matrix::zeros(config.vocab, config.model_dim),
            pos_enc: Matrix::default(),
            blocks,
            projection: Linear::new(rng, config.model_dim, config.vocab),
            sgd: Sgd::new(config.learning_rate, config.momentum),
            grad_clip: config.grad_clip,
            vocab: config.vocab,
            heads: config.heads,
            head_dim: config.model_dim / config.heads,
            ws: ModelWorkspace::default(),
        }
    }

    /// Number of stacked encoder blocks.
    pub fn layers(&self) -> usize {
        self.blocks.len()
    }

    /// Number of attention heads per block.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Width of one attention head.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Model (residual-stream) width.
    pub fn model_dim(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.embedding.len()
            + self
                .blocks
                .iter()
                .map(EncoderBlock::parameter_count)
                .sum::<usize>()
            + self.projection.parameter_count()
    }

    /// The [`LayerShape`] of every dropout site, in plan-injection order:
    /// for each block the attention site (`model_dim × model_dim`) followed
    /// by the FFN site (`model_dim × ff_dim`) — the shapes a serving layer
    /// keys its plan cache by.
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        let d = self.model_dim();
        self.blocks
            .iter()
            .flat_map(|b| {
                [
                    LayerShape::new(d, d),
                    LayerShape::new(d, b.ffn1.out_features()),
                ]
            })
            .collect()
    }

    /// One training step on a batch of token sequences. Each sequence must
    /// contain `seq_len + 1` token ids: positions `0..seq_len` are inputs
    /// and positions `1..=seq_len` the prediction targets (the causal mask
    /// keeps the objective well-posed).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, sequences have fewer than two tokens
    /// or unequal lengths, or a token id is out of range.
    pub fn train_batch<R: Rng>(&mut self, tokens: &[Vec<usize>], rng: &mut R) -> LmBatchStats {
        self.train_batch_inner(tokens, PlanSource::Sample(rng))
    }

    /// Like [`TransformerLm::train_batch`] but with caller-resolved plans —
    /// two per block in [`TransformerLm::layer_shapes`] order (attention,
    /// then FFN) — instead of sampling from the per-block schemes; the
    /// entry point a serving layer uses after resolving plans through a
    /// memoized `PlanCache`. `clone_from` recycles the per-block plan
    /// buffers, so injection allocates nothing once the slots are warm.
    ///
    /// # Panics
    ///
    /// Panics if `plans.len() != 2 · layers`, plus everything
    /// [`TransformerLm::train_batch`] panics on.
    pub fn train_batch_with_plans(
        &mut self,
        tokens: &[Vec<usize>],
        plans: &[DropoutPlan],
    ) -> LmBatchStats {
        assert_eq!(
            plans.len(),
            2 * self.blocks.len(),
            "two dropout plans (attention, FFN) per encoder block are required"
        );
        self.train_batch_inner(tokens, PlanSource::Inject(plans))
    }

    fn train_batch_inner(&mut self, tokens: &[Vec<usize>], source: PlanSource<'_>) -> LmBatchStats {
        let g = self.forward_logits(tokens, source);

        let loss = softmax_cross_entropy_into(&self.ws.logits, &self.ws.targets, &mut self.ws.xent);
        let acc = crate::metrics::accuracy(&self.ws.logits, &self.ws.targets);

        // Backward: projection, then the blocks top-down (each leaves its
        // input gradient in its own recycled `dx` buffer), then the
        // embedding scatter.
        self.projection
            .backward_into(self.ws.xent.grad_logits(), &mut self.ws.grad_out);
        for l in (0..self.blocks.len()).rev() {
            let (prev, rest) = self.blocks.split_at_mut(l + 1);
            let block = &mut prev[l];
            let grad: &Matrix = match rest.first() {
                Some(above) => &above.ws.dx,
                None => &self.ws.grad_out,
            };
            block.backward(grad, g);
        }
        self.embedding_grad
            .resize(self.embedding.rows(), self.embedding.cols());
        let dx0 = &self.blocks[0].ws.dx;
        for (b, seq) in tokens.iter().enumerate() {
            for (s, &tok) in seq.iter().enumerate().take(g.seq) {
                let dst = self.embedding_grad.row_mut(tok);
                for (d, &v) in dst.iter_mut().zip(dx0.row(b * g.seq + s)) {
                    *d += v;
                }
            }
        }

        self.clip_and_step();
        LmBatchStats {
            loss,
            perplexity: perplexity_from_nll(loss as f64),
            accuracy: acc,
        }
    }

    /// Resolves plans, embeds the batch and runs every block, leaving the
    /// logits (and flattened targets) in the model workspace.
    fn forward_logits(&mut self, tokens: &[Vec<usize>], mut source: PlanSource<'_>) -> Geom {
        let (seq_len, batch) = self.validate_batch(tokens);
        let g = Geom {
            batch,
            seq: seq_len,
            heads: self.heads,
            head_dim: self.head_dim,
        };
        let d = g.model_dim();

        // One plan per dropout site for the whole iteration, re-resolved
        // into the per-block plan buffers.
        for (l, block) in self.blocks.iter_mut().enumerate() {
            match &mut source {
                PlanSource::Sample(rng) => {
                    block.attn_dropout.plan_into(
                        &mut **rng,
                        LayerShape::new(d, d),
                        &mut block.attn_plan,
                    );
                    block.ffn_dropout.plan_into(
                        &mut **rng,
                        LayerShape::new(d, block.ffn1.out_features()),
                        &mut block.ffn_plan,
                    );
                }
                PlanSource::Inject(plans) => {
                    block.attn_plan.clone_from(&plans[2 * l]);
                    block.ffn_plan.clone_from(&plans[2 * l + 1]);
                }
            }
        }

        self.ensure_pos_enc(seq_len);
        embed_stacked_into(
            &self.embedding,
            &self.pos_enc,
            tokens,
            seq_len,
            &mut self.ws.x0,
        );
        for l in 0..self.blocks.len() {
            let (prev, rest) = self.blocks.split_at_mut(l);
            let block = &mut rest[0];
            let x: &Matrix = match prev.last() {
                Some(below) => &below.ws.y2,
                None => &self.ws.x0,
            };
            block.forward(x, g);
        }

        let top = &self.blocks[self.blocks.len() - 1].ws.y2;
        let out_shape = LayerShape::new(self.projection.in_features(), self.vocab);
        self.projection.forward_act_into(
            top,
            &DropoutPlan::none(out_shape),
            Activation::Identity,
            &mut self.ws.logits,
        );
        flatten_targets_into(tokens, seq_len, &mut self.ws.targets);
        g
    }

    /// Evaluates loss, perplexity and next-token accuracy with dropout
    /// disabled (dense forward on a clone, like the other families).
    pub fn evaluate(&self, tokens: &[Vec<usize>]) -> LmBatchStats {
        let mut model = self.clone();
        let plans: Vec<DropoutPlan> = model
            .layer_shapes()
            .into_iter()
            .map(DropoutPlan::none)
            .collect();
        let _ = model.forward_logits(tokens, PlanSource::Inject(&plans));
        let loss =
            softmax_cross_entropy_into(&model.ws.logits, &model.ws.targets, &mut model.ws.xent);
        LmBatchStats {
            loss,
            perplexity: perplexity_from_nll(loss as f64),
            accuracy: crate::metrics::accuracy(&model.ws.logits, &model.ws.targets),
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

    /// Regrows the sinusoidal positional-encoding table when a longer
    /// sequence (or a fresh model) needs it. The values are a pure function
    /// of position, so regrowth is deterministic.
    fn ensure_pos_enc(&mut self, seq: usize) {
        let d = self.model_dim();
        if self.pos_enc.rows() >= seq && self.pos_enc.cols() == d {
            return;
        }
        self.pos_enc.resize_for_overwrite(seq, d);
        for s in 0..seq {
            let row = self.pos_enc.row_mut(s);
            for (j, v) in row.iter_mut().enumerate() {
                let pair = (j / 2) as f32;
                let angle = s as f32 / 10_000f32.powf(2.0 * pair / d as f32);
                *v = if j % 2 == 0 { angle.sin() } else { angle.cos() };
            }
        }
    }

    fn clip_and_step(&mut self) {
        // Global max-abs clipping across every parameter gradient — embedding,
        // all attention/FFN projections and the vocabulary projection. The
        // encoder stack has no layer normalisation, so dropout noise can spike
        // individual gradients; clipping everything (not just the embedding)
        // is what keeps structured-dropout training stable.
        if self.grad_clip > 0.0 {
            let mut max_abs = self
                .embedding_grad
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            for block in &self.blocks {
                max_abs = max_abs.max(block.grad_max_abs());
            }
            max_abs = max_abs.max(self.projection.grad_max_abs());
            if max_abs > self.grad_clip {
                let factor = self.grad_clip / max_abs;
                self.embedding_grad.map_inplace(|v| v * factor);
                for block in &mut self.blocks {
                    block.scale_gradients(factor);
                }
                self.projection.scale_gradients(factor);
            }
        }
        let sgd = self.sgd;
        sgd.update(
            &mut self.embedding,
            &self.embedding_grad,
            &mut self.embedding_vel,
        );
        for block in &mut self.blocks {
            block.step(&sgd);
        }
        self.projection.step(&sgd);
    }
}

/// Embeds the batch into one stacked `(batch·seq, model_dim)` matrix,
/// batch-major (row `b·seq + s` so each sequence's rows are contiguous —
/// the layout the per-head gathers slice), adding the positional encoding.
fn embed_stacked_into(
    embedding: &Matrix,
    pos_enc: &Matrix,
    tokens: &[Vec<usize>],
    seq_len: usize,
    out: &mut Matrix,
) {
    out.resize_for_overwrite(tokens.len() * seq_len, embedding.cols());
    for (b, seq) in tokens.iter().enumerate() {
        for (s, &tok) in seq.iter().enumerate().take(seq_len) {
            let dst = out.row_mut(b * seq_len + s);
            dst.copy_from_slice(embedding.row(tok));
            for (d, &p) in dst.iter_mut().zip(pos_enc.row(s)) {
                *d += p;
            }
        }
    }
}

/// Flattens the next-token targets batch-major (matching the stacked
/// activation layout) into `out` (cleared and refilled).
fn flatten_targets_into(tokens: &[Vec<usize>], seq_len: usize, out: &mut Vec<usize>) {
    out.clear();
    out.reserve(seq_len * tokens.len());
    for seq in tokens {
        for s in 0..seq_len {
            out.push(seq[s + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::scheme;
    use approx_dropout::{DropoutRate, SchemeSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cyclic_batch(vocab: usize, batch: usize, seq_len: usize) -> Vec<Vec<usize>> {
        // A deterministic cyclic language: token (t+1) always follows token t.
        (0..batch)
            .map(|b| (0..=seq_len).map(|t| (b + t) % vocab).collect())
            .collect()
    }

    fn config(attn: Box<dyn DropoutScheme>, ffn: Box<dyn DropoutScheme>) -> TransformerLmConfig {
        TransformerLmConfig {
            vocab: 12,
            model_dim: 16,
            heads: 4,
            ff_dim: 32,
            layers: 2,
            attn_dropout: attn,
            ffn_dropout: ffn,
            learning_rate: 0.1,
            momentum: 0.0,
            grad_clip: 5.0,
        }
    }

    fn none_plans(model: &TransformerLm) -> Vec<DropoutPlan> {
        model
            .layer_shapes()
            .into_iter()
            .map(DropoutPlan::none)
            .collect()
    }

    #[test]
    fn forward_shapes_and_finite_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let batch = cyclic_batch(12, 4, 6);
        let stats = lm.train_batch(&batch, &mut rng);
        assert!(stats.loss.is_finite());
        assert_eq!(lm.ws.logits.shape(), (4 * 6, 12));
        assert_eq!(lm.layer_shapes().len(), 4);
        assert_eq!(lm.layer_shapes()[0], LayerShape::new(16, 16));
        assert_eq!(lm.layer_shapes()[1], LayerShape::new(16, 32));
    }

    #[test]
    fn lm_learns_cyclic_language_without_dropout() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
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
    fn lm_learns_with_whole_head_dropout() {
        // The transformer scheme arm: BlockUnit over the head dimension.
        let mut rng = StdRng::seed_from_u64(4);
        let spec = SchemeSpec::Transformer {
            rate: 0.25,
            head_dim: 4,
        };
        let attn = spec.build().unwrap();
        let mut lm = TransformerLm::new(&config(attn, scheme::none()), &mut rng);
        let batch = cyclic_batch(12, 6, 8);
        for _ in 0..400 {
            let _ = lm.train_batch(&batch, &mut rng);
        }
        let eval = lm.evaluate(&batch);
        assert!(eval.accuracy > 0.7, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn lm_learns_with_nm_projections_and_ffn_row_dropout() {
        let mut rng = StdRng::seed_from_u64(5);
        let attn = scheme::nm(2, 4).unwrap();
        let ffn = scheme::row(DropoutRate::new(0.3).unwrap(), 16).unwrap();
        let mut lm = TransformerLm::new(&config(attn, ffn), &mut rng);
        let batch = cyclic_batch(12, 6, 8);
        for _ in 0..400 {
            let _ = lm.train_batch(&batch, &mut rng);
        }
        let eval = lm.evaluate(&batch);
        assert!(eval.accuracy > 0.7, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn head_drop_zeroes_dropped_head_columns() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let batch = cyclic_batch(12, 3, 5);
        // Keep heads 0 and 2 of 4 (head_dim 4): columns 4..8 and 12..16 of
        // the attention context must be exactly zero.
        let shape = LayerShape::new(16, 16);
        let head_plan = DropoutPlan::block_unit(shape, 4, vec![0, 2], 2.0, 0.5);
        let mut plans = none_plans(&lm);
        plans[0] = head_plan;
        let _ = lm.train_batch_with_plans(&batch, &plans);
        let ctx = &lm.blocks[0].ws.ctx;
        for r in 0..ctx.rows() {
            let row = ctx.row(r);
            assert!(row[4..8].iter().all(|&v| v == 0.0), "head 1 not dark");
            assert!(row[12..16].iter().all(|&v| v == 0.0), "head 3 not dark");
        }
        // Kept heads carry signal.
        assert!(ctx.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn injected_plans_match_between_identical_models_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = config(scheme::none(), scheme::none());
        let mut a = TransformerLm::new(&cfg, &mut rng);
        let mut b = a.clone();
        let batch = cyclic_batch(12, 4, 6);
        let shape = LayerShape::new(16, 16);
        let mut plans = none_plans(&a);
        plans[0] = DropoutPlan::block_unit(shape, 4, vec![1, 3], 2.0, 0.5);
        plans[2] = DropoutPlan::nm(shape, 2, 4, (0..16).filter(|j| j % 4 < 2).collect());
        let sa = a.train_batch_with_plans(&batch, &plans);
        let sb = b.train_batch_with_plans(&batch, &plans);
        assert_eq!(sa.loss.to_bits(), sb.loss.to_bits());
        assert_eq!(a.ws.logits, b.ws.logits);
    }

    #[test]
    fn numerical_gradient_check_on_embedding() {
        // train_batch computes the loss before the SGD step, so each call
        // returns the loss at exactly the parameters it was given; a
        // vanishing learning rate keeps the analytic model's gradients
        // untouched by clipping.
        let mut rng = StdRng::seed_from_u64(8);
        let mut cfg = config(scheme::none(), scheme::none());
        cfg.learning_rate = 1e-9;
        cfg.grad_clip = 0.0;
        cfg.layers = 1;
        let lm = TransformerLm::new(&cfg, &mut rng);
        let batch = cyclic_batch(12, 3, 4);
        let plans = none_plans(&lm);

        let mut analytic = lm.clone();
        let _ = analytic.train_batch_with_plans(&batch, &plans);

        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 0usize), (1, 5), (3, 10), (5, 15)] {
            let mut plus = lm.clone();
            plus.embedding[(r, c)] += eps;
            let f_plus = plus.train_batch_with_plans(&batch, &plans).loss;
            let mut minus = lm.clone();
            minus.embedding[(r, c)] -= eps;
            let f_minus = minus.train_batch_with_plans(&batch, &plans).loss;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic_g = analytic.embedding_grad[(r, c)];
            assert!(
                (numeric - analytic_g).abs() < 2e-3 + 5e-2 * analytic_g.abs(),
                "embedding[{r},{c}]: numeric {numeric} vs analytic {analytic_g}"
            );
        }
    }

    #[test]
    fn train_batch_workspaces_are_recycled() {
        // The per-block attention scratch, cached softmax rows, gradient
        // buffers and the model-level logits/targets/xent buffers must all
        // reuse their allocations across iterations.
        let mut rng = StdRng::seed_from_u64(9);
        let attn = scheme::bernoulli(DropoutRate::new(0.3).unwrap());
        let ffn = scheme::bernoulli(DropoutRate::new(0.3).unwrap());
        let mut lm = TransformerLm::new(&config(attn, ffn), &mut rng);
        let batch = cyclic_batch(12, 4, 6);
        let _ = lm.train_batch(&batch, &mut rng);
        let _ = lm.train_batch(&batch, &mut rng);
        let ws = &lm.blocks[0].ws;
        let q_ptr = ws.q_all.as_slice().as_ptr();
        let ctx_ptr = ws.ctx.as_slice().as_ptr();
        let probs_ptr = ws.probs[0].as_slice().as_ptr();
        let scores_ptr = ws.scores.as_slice().as_ptr();
        let dq_ptr = ws.dq_all.as_slice().as_ptr();
        let dx_ptr = ws.dx.as_slice().as_ptr();
        let ffn_ptr = ws.ffn_act.as_slice().as_ptr();
        let x0_ptr = lm.ws.x0.as_slice().as_ptr();
        let logits_ptr = lm.ws.logits.as_slice().as_ptr();
        let targets_ptr = lm.ws.targets.as_ptr();
        let probs_xent_ptr = lm.ws.xent.probabilities().as_slice().as_ptr();
        let _ = lm.train_batch(&batch, &mut rng);
        let ws = &lm.blocks[0].ws;
        assert_eq!(q_ptr, ws.q_all.as_slice().as_ptr());
        assert_eq!(ctx_ptr, ws.ctx.as_slice().as_ptr());
        assert_eq!(probs_ptr, ws.probs[0].as_slice().as_ptr());
        assert_eq!(scores_ptr, ws.scores.as_slice().as_ptr());
        assert_eq!(dq_ptr, ws.dq_all.as_slice().as_ptr());
        assert_eq!(dx_ptr, ws.dx.as_slice().as_ptr());
        assert_eq!(ffn_ptr, ws.ffn_act.as_slice().as_ptr());
        assert_eq!(x0_ptr, lm.ws.x0.as_slice().as_ptr());
        assert_eq!(logits_ptr, lm.ws.logits.as_slice().as_ptr());
        assert_eq!(targets_ptr, lm.ws.targets.as_ptr());
        assert_eq!(
            probs_xent_ptr,
            lm.ws.xent.probabilities().as_slice().as_ptr()
        );
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(10);
        let lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let proj4 = 4 * (16 * 16 + 16);
        let ffn = (16 * 32 + 32) + (32 * 16 + 16);
        let expected = 12 * 16 + 2 * (proj4 + ffn) + 16 * 12 + 12;
        assert_eq!(lm.parameter_count(), expected);
        assert_eq!(lm.layers(), 2);
        assert_eq!(lm.heads(), 4);
        assert_eq!(lm.head_dim(), 4);
        assert_eq!(lm.model_dim(), 16);
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        let mut scores = Matrix::filled(3, 3, 1.0);
        causal_scale_inplace(&mut scores, 0.5);
        assert_eq!(scores.row(0), &[0.5, f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_eq!(scores.row(1), &[0.5, 0.5, f32::NEG_INFINITY]);
        assert_eq!(scores.row(2), &[0.5, 0.5, 0.5]);
        // Softmax of a fully-masked tail puts zero weight on the future.
        let mut probs = Matrix::default();
        ops::softmax_rows_into(&scores, &mut probs);
        assert_eq!(probs[(0, 0)], 1.0);
        assert_eq!(probs[(0, 1)], 0.0);
        assert_eq!(probs[(0, 2)], 0.0);
    }

    #[test]
    #[should_panic(expected = "token id")]
    fn rejects_out_of_range_tokens() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let _ = lm.train_batch(&[vec![0, 99]], &mut rng);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn rejects_ragged_batches() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let _ = lm.train_batch(&[vec![0, 1, 2], vec![0, 1]], &mut rng);
    }

    #[test]
    #[should_panic(expected = "two dropout plans")]
    fn rejects_wrong_plan_count() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let plans = vec![DropoutPlan::default()];
        let _ = lm.train_batch_with_plans(&cyclic_batch(12, 2, 4), &plans);
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn rejects_indivisible_head_count() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut cfg = config(scheme::none(), scheme::none());
        cfg.heads = 3;
        let _ = TransformerLm::new(&cfg, &mut rng);
    }
}
