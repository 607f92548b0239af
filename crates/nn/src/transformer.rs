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
//! Causal attention runs in place over each kept head's column band of the
//! Q/K/V projections: only unmasked scores are computed, one `exp` each,
//! and the products accumulate straight into the context and gradient
//! bands, bit for bit the dense per-head GEMMs (pinned against
//! `tests::per_head_gemm_reference`). Softmax rows and gradients live in
//! recycled scratch workspaces (the `loss` scratch idiom): once shapes have
//! stabilised neither training nor evaluation performs a per-iteration heap
//! allocation, which the pointer-identity tests below and the one-thread
//! allocation counts of `tests/plan_allocations.rs` pin down.

use crate::layers::Linear;
use crate::loss::CrossEntropyScratch;
use crate::lstm::{apply_column_multiplier_inplace, lm_batch_stats, validate_batch, LmBatchStats};
use crate::mlp::PlanSource;
use crate::optimizer::{clip_gradients, Param, Params, Sgd};
use approx_dropout::{Activation, DropoutPlan, DropoutScheme, LayerShape};
use rand::Rng;
use std::ops::Range;
use tensor::{init, ops, simd, Matrix};

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
    /// Gradient-clipping threshold on the max-abs value over every
    /// parameter gradient (0 disables): `nn::optimizer`'s one
    /// `clip_gradients` rule, shared with the LSTM LM.
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

/// Recycled scratch of one encoder block: activations, cached softmax rows
/// and every backward buffer. All buffers are resized in place each
/// iteration, so nothing is reallocated while shapes are stable.
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
    /// Cached softmax rows: one `seq × seq` block per (batch, head) at
    /// `(b·heads + h)·seq²`, zero above the diagonal. Grow-only, so a
    /// smaller batch keeps the room for the next larger one.
    probs: Vec<f32>,
    /// Softmax-backward `dS` of one head, `seq × seq`, zero above the
    /// diagonal; reused for every head.
    ds: Vec<f32>,
    /// Heads to compute this iteration (kept heads, or all of them).
    head_ws: Vec<usize>,
    /// Fallback per-column multiplier on the attention context.
    attn_mult: Vec<f32>,
    /// Backward buffers.
    dffn: Matrix,
    dy1: Matrix,
    dctx: Matrix,
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

/// Accumulates one head's causal product into rows `row0..row0 + seq` of
/// `out`'s column band `cols`: `W·S`, or `Wᵀ·S` when `transposed`, where
/// `W` is a `seq × seq` block that is zero above the diagonal and `S` is
/// the same band of `src`. The summed index walks 4-aligned quads (one
/// `simd::axpy4`, four `fma` steps), then the `seq % 4` tail, and skips
/// only quads whose four entries are all masked; a quad that straddles the
/// diagonal runs whole, its zero entries adding nothing. So every element
/// is the `fma` chain the dense GEMM forms, bit for bit.
fn causal_band_gemm(
    w: &[f32],
    transposed: bool,
    seq: usize,
    src: &Matrix,
    out: &mut Matrix,
    (row0, cols): (usize, Range<usize>),
) {
    let quad_end = seq - seq % 4;
    // `W`'s (or `Wᵀ`'s) entry at output row `o`, summed index `p`, sits at
    // `o·o_stride + p·p_stride`.
    let (o_stride, p_stride) = if transposed { (1, seq) } else { (seq, 1) };
    for o in 0..seq {
        // The summed indices the mask leaves live for output row `o`.
        let live = if transposed { o..seq } else { 0..o + 1 };
        let coef = |p: usize| w[o * o_stride + p * p_stride];
        let band = |p: usize| &src.row(row0 + p)[cols.clone()];
        let dst = &mut out.row_mut(row0 + o)[cols.clone()];
        let mut p = live.start - live.start % 4;
        while p < live.end.min(quad_end) {
            let alpha = [coef(p), coef(p + 1), coef(p + 2), coef(p + 3)];
            simd::axpy4(dst, alpha, band(p), band(p + 1), band(p + 2), band(p + 3));
            p += 4;
        }
        for p in live.start.max(quad_end)..live.end {
            simd::axpy(dst, coef(p), band(p));
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

        // Per-(batch, kept head) causal attention in place over the head's
        // column band: row `i` scores keys `0..=i` only, one `exp` each, and
        // P·V accumulates straight into the context band. Dropped heads never
        // execute, so their context columns stay at the zero fill — the
        // proportionally shrunk batched GEMM the timing model prices. V's
        // kept columns already carry the inverted-dropout scale.
        let score_mul = self.score_multiplier(path, g);
        let ws = &mut self.ws;
        ws.ctx.resize(g.rows(), d);
        let seq2 = g.seq * g.seq;
        if ws.probs.len() < g.batch * g.heads * seq2 {
            ws.probs.resize(g.batch * g.heads * seq2, 0.0);
        }
        for b in 0..g.batch {
            let row0 = b * g.seq;
            for &h in &ws.head_ws {
                let cols = h * g.head_dim..(h + 1) * g.head_dim;
                let probs = &mut ws.probs[(b * g.heads + h) * seq2..][..seq2];
                for (i, row) in probs.chunks_exact_mut(g.seq).enumerate() {
                    let q = &ws.q_all.row(row0 + i)[cols.clone()];
                    let (live, masked) = row.split_at_mut(i + 1);
                    let mut max = f32::NEG_INFINITY;
                    for (j, s) in live.iter_mut().enumerate() {
                        *s = simd::dot(q, &ws.k_all.row(row0 + j)[cols.clone()]) * score_mul;
                        max = max.max(*s);
                    }
                    for s in live.iter_mut() {
                        *s -= max;
                    }
                    simd::exp_slice(live);
                    let denom = live.iter().fold(0.0, |sum, &s| sum + s);
                    for s in live.iter_mut() {
                        *s /= denom;
                    }
                    masked.fill(0.0);
                }
                causal_band_gemm(probs, false, g.seq, &ws.v_all, &mut ws.ctx, (row0, cols));
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
        let seq2 = g.seq * g.seq;
        ws.ds.resize(seq2, 0.0);
        for b in 0..g.batch {
            let row0 = b * g.seq;
            for &h in &ws.head_ws {
                let cols = h * g.head_dim..(h + 1) * g.head_dim;
                let probs = &ws.probs[(b * g.heads + h) * seq2..][..seq2];
                for (i, row) in ws.ds.chunks_exact_mut(g.seq).enumerate() {
                    let dctx = &ws.dctx.row(row0 + i)[cols.clone()];
                    let prow = &probs[i * g.seq..=i * g.seq + i];
                    let (live, masked) = row.split_at_mut(i + 1);
                    // dP = dCtx·Vᵀ where the mask leaves P nonzero, then
                    // the softmax backward in place:
                    // dS = P ⊙ (dP − rowsum(dP ⊙ P)), then the 1/√d chain.
                    for (j, s) in live.iter_mut().enumerate() {
                        *s = simd::dot(dctx, &ws.v_all.row(row0 + j)[cols.clone()]);
                    }
                    let dot: f32 = prow.iter().zip(live.iter()).map(|(&p, &dp)| p * dp).sum();
                    for (s, &p) in live.iter_mut().zip(prow) {
                        *s = p * (*s - dot) * score_mul;
                    }
                    masked.fill(0.0);
                }
                // dV = Pᵀ·dCtx, dQ = dS·K and dK = dSᵀ·Q.
                let (ds, band) = (&ws.ds[..], (row0, cols));
                causal_band_gemm(probs, true, g.seq, &ws.dctx, &mut ws.dv_all, band.clone());
                causal_band_gemm(ds, false, g.seq, &ws.k_all, &mut ws.dq_all, band.clone());
                causal_band_gemm(ds, true, g.seq, &ws.q_all, &mut ws.dk_all, band);
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
}

impl Params for EncoderBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let layers = [
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.o,
            &mut self.ffn1,
            &mut self.ffn2,
        ];
        for layer in layers {
            layer.visit_params(f);
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
    /// Softmax cross-entropy gradient buffer and argmax hit count.
    xent: CrossEntropyScratch,
}

/// Word-level transformer encoder language model with structured attention
/// dropout — the third model family next to [`crate::Mlp`] and
/// [`crate::lstm::LstmLm`].
#[derive(Debug, Clone)]
pub struct TransformerLm {
    embedding: Param,
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
        let embedding = init::gaussian(rng, config.vocab, config.model_dim, 0.0, 0.1);
        Self {
            embedding: Param::new(embedding),
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
        self.embedding.value.len()
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
        let stats = lm_batch_stats(&self.ws.logits, &self.ws.targets, &mut self.ws.xent);

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
        let embedding = &mut self.embedding;
        let (vocab, width) = embedding.value.shape();
        embedding.grad.resize(vocab, width);
        let dx0 = &self.blocks[0].ws.dx;
        for (b, seq) in tokens.iter().enumerate() {
            for (s, &tok) in seq.iter().enumerate().take(g.seq) {
                let dst = embedding.grad.row_mut(tok);
                for (d, &v) in dst.iter_mut().zip(dx0.row(b * g.seq + s)) {
                    *d += v;
                }
            }
        }

        // The encoder stack has no layer normalisation, so dropout noise
        // can spike individual gradients: every gradient is clipped, not
        // just the embedding's.
        let (sgd, grad_clip) = (self.sgd, self.grad_clip);
        clip_gradients(self, grad_clip);
        sgd.step(self);
        stats
    }

    /// Resolves plans, embeds the batch and runs every block, leaving the
    /// logits (and flattened targets) in the model workspace.
    fn forward_logits(&mut self, tokens: &[Vec<usize>], mut source: PlanSource<'_>) -> Geom {
        let (seq_len, batch) = validate_batch(tokens, self.vocab);
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
            let ff = block.ffn1.out_features();
            let (attn, ffn) = (&mut block.attn_plan, &mut block.ffn_plan);
            source.resolve(
                2 * l,
                block.attn_dropout.as_mut(),
                LayerShape::new(d, d),
                attn,
            );
            source.resolve(
                2 * l + 1,
                block.ffn_dropout.as_mut(),
                LayerShape::new(d, ff),
                ffn,
            );
        }

        self.ensure_pos_enc(seq_len);
        embed_stacked_into(
            &self.embedding.value,
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
    /// off: the training forward with every plan reset to the identity, on
    /// the model's own recycled buffers, so a warmed call allocates
    /// nothing. It overwrites the forward caches (block workspaces, plan
    /// slots) that a training step refills before its backward pass, and
    /// draws no randomness, so interleaving evaluations leaves a training
    /// trajectory bit for bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TransformerLm::train_batch`].
    pub fn evaluate(&mut self, tokens: &[Vec<usize>]) -> LmBatchStats {
        self.forward_logits(tokens, PlanSource::Dense);
        lm_batch_stats(&self.ws.logits, &self.ws.targets, &mut self.ws.xent)
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
}

impl Params for TransformerLm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embedding);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.projection.visit_params(f);
    }
}

/// Embeds the batch into one stacked `(batch·seq, model_dim)` matrix,
/// batch-major (row `b·seq + s` so each sequence's rows are contiguous —
/// the layout the attention's head bands slice), adding the positional
/// encoding.
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
    use crate::optimizer::{assert_walk_covers, largest_grad};
    use approx_dropout::scheme;
    use approx_dropout::{DropoutRate, SchemeSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::gemm;

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

    /// One attention-site plan per [`AttnPath`] of the `config` model
    /// (`model_dim` 16, four heads of 4): N:M lanes, heads 0 and 2 of a
    /// head-drop, and a sampled Bernoulli mask.
    fn path_plans(rng: &mut StdRng) -> Vec<(AttnPath, DropoutPlan)> {
        let shape = LayerShape::new(16, 16);
        let bernoulli = scheme::bernoulli(DropoutRate::new(0.3).unwrap()).plan(rng, shape);
        vec![
            (
                AttnPath::Projection,
                DropoutPlan::nm(shape, 2, 4, (0..16).filter(|j| j % 4 < 2).collect()),
            ),
            (
                AttnPath::HeadDrop,
                DropoutPlan::block_unit(shape, 4, vec![0, 2], 2.0, 0.5),
            ),
            (AttnPath::Multiplier, bernoulli),
        ]
    }

    /// The per-head GEMM pipeline the in-place attention replaced, kept as
    /// its test-only reference the way `loss::tests::three_pass_reference`
    /// keeps the three-pass loss. Per (batch, head in `heads`) it gathers
    /// the Q/K/V/dCtx bands of a block's workspace into matrices, runs
    /// `QKᵀ` and `dCtx·Vᵀ` as one `simd::dot` per element (what the
    /// in-place attention runs) and the other products as dense GEMMs,
    /// over the full `seq × seq` scores under a `−∞` causal mask, a
    /// two-`exp` softmax (the scalar form of the attention's
    /// [`simd::exp_slice`]) and its Jacobian, and scatters the results
    /// back. Returns `[ctx, dq, dk, dv]`.
    fn per_head_gemm_reference(
        ws: &BlockWorkspace,
        g: Geom,
        heads: &[usize],
        score_mul: f32,
    ) -> [Matrix; 4] {
        let hd = g.head_dim;
        let gather = |src: &Matrix, row0: usize, h: usize| {
            Matrix::from_fn(g.seq, hd, |s, c| src[(row0 + s, h * hd + c)])
        };
        let scatter = |src: &Matrix, row0: usize, h: usize, out: &mut Matrix| {
            for s in 0..g.seq {
                out.row_mut(row0 + s)[h * hd..(h + 1) * hd].copy_from_slice(src.row(s));
            }
        };
        // `x·yᵀ` as one `simd::dot` per element, the products the in-place
        // attention scores and its `dP` run.
        let dot_rows = |x: &Matrix, y: &Matrix| {
            Matrix::from_fn(x.rows(), y.rows(), |i, j| simd::dot(x.row(i), y.row(j)))
        };
        let mut out = [(); 4].map(|_| Matrix::zeros(g.rows(), g.model_dim()));
        for b in 0..g.batch {
            let row0 = b * g.seq;
            for &h in heads {
                let qh = gather(&ws.q_all, row0, h);
                let kh = gather(&ws.k_all, row0, h);
                let vh = gather(&ws.v_all, row0, h);
                let dctx_h = gather(&ws.dctx, row0, h);
                let mut scores = dot_rows(&qh, &kh);
                for i in 0..g.seq {
                    let row = scores.row_mut(i);
                    for v in &mut row[..=i] {
                        *v *= score_mul;
                    }
                    for v in &mut row[i + 1..] {
                        *v = f32::NEG_INFINITY;
                    }
                }
                let mut probs = Matrix::zeros(g.seq, g.seq);
                let exp = simd::exp_approx;
                for i in 0..g.seq {
                    let row = scores.row(i);
                    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut denom = 0.0;
                    for &v in row {
                        denom += exp(v - max);
                    }
                    for (j, &v) in row.iter().enumerate() {
                        probs[(i, j)] = exp(v - max) / denom;
                    }
                }
                let ctx_h = gemm::blocked_gemm(&probs, &vh).unwrap();
                scatter(&ctx_h, row0, h, &mut out[0]);
                let dprobs = dot_rows(&dctx_h, &vh);
                let dvh = gemm::gemm_at_b(&probs, &dctx_h).unwrap();
                scatter(&dvh, row0, h, &mut out[3]);
                let mut ds = Matrix::zeros(g.seq, g.seq);
                for r in 0..g.seq {
                    let (prow, dprow) = (probs.row(r), dprobs.row(r));
                    let dot: f32 = prow.iter().zip(dprow).map(|(&p, &dp)| p * dp).sum();
                    for (s, (&p, &dp)) in ds.row_mut(r).iter_mut().zip(prow.iter().zip(dprow)) {
                        *s = p * (dp - dot) * score_mul;
                    }
                }
                let (dqh, dkh) = (gemm::blocked_gemm(&ds, &kh), gemm::gemm_at_b(&ds, &qh));
                scatter(&dqh.unwrap(), row0, h, &mut out[1]);
                scatter(&dkh.unwrap(), row0, h, &mut out[2]);
            }
        }
        out
    }

    /// One encoder block's in-place attention equals the per-head GEMM
    /// pipeline bit for bit, forward (`ctx`) and backward (`dq_all`,
    /// `dk_all`, `dv_all`): at lm_train's seq 24, at seq 7 and 13 (so the
    /// `seq % 4` tail and the quads straddling the diagonal both run), at a
    /// head width with an 8-lane dot remainder, over all heads (identity
    /// and N:M plans) and over a head-drop kept set.
    #[test]
    fn in_place_attention_matches_per_head_gemm_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(16);
        for &(seq, heads, head_dim) in &[(24, 4, 16), (7, 4, 16), (13, 4, 16), (13, 3, 12)] {
            let d = heads * head_dim;
            let g = Geom {
                batch: 2,
                seq,
                heads,
                head_dim,
            };
            let shape = LayerShape::new(d, d);
            let plans = [
                DropoutPlan::none(shape),
                DropoutPlan::nm(shape, 2, 4, (0..d).filter(|j| j % 4 < 2).collect()),
                DropoutPlan::block_unit(shape, head_dim, vec![0, heads - 1], 2.0, 0.5),
            ];
            for plan in plans {
                let mut block =
                    EncoderBlock::new(&mut rng, d, 2 * d, scheme::none(), scheme::none());
                block.attn_plan = plan;
                block.ffn_plan = DropoutPlan::none(LayerShape::new(d, 2 * d));
                let x = init::uniform(&mut rng, g.rows(), d, -1.0, 1.0);
                let dout = init::uniform(&mut rng, g.rows(), d, -1.0, 1.0);
                block.forward(&x, g);
                block.backward(&dout, g);
                let path = attn_path(&block.attn_plan, g);
                let score_mul = block.score_multiplier(path, g);
                let reference = per_head_gemm_reference(&block.ws, g, &block.ws.head_ws, score_mul);
                let ws = &block.ws;
                for (name, got, want) in [
                    ("ctx", &ws.ctx, &reference[0]),
                    ("dq", &ws.dq_all, &reference[1]),
                    ("dk", &ws.dk_all, &reference[2]),
                    ("dv", &ws.dv_all, &reference[3]),
                ] {
                    let same = got
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{name} differs at seq {seq}, {path:?}");
                }
            }
        }
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
        // Identity plans, then one attention plan per `AttnPath`.
        let mut attn_plans = vec![(AttnPath::Multiplier, none_plans(&lm)[0].clone())];
        attn_plans.extend(path_plans(&mut rng));
        for (path, attn_plan) in attn_plans {
            let mut plans = none_plans(&lm);
            plans[0] = attn_plan;
            let mut analytic = lm.clone();
            let _ = analytic.train_batch_with_plans(&batch, &plans);

            let eps = 1e-2f32;
            for &(r, c) in &[(0usize, 0usize), (1, 5), (2, 7), (3, 10), (4, 12), (5, 15)] {
                let mut plus = lm.clone();
                plus.embedding.value[(r, c)] += eps;
                let f_plus = plus.train_batch_with_plans(&batch, &plans).loss;
                let mut minus = lm.clone();
                minus.embedding.value[(r, c)] -= eps;
                let f_minus = minus.train_batch_with_plans(&batch, &plans).loss;
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                let analytic_g = analytic.embedding.grad[(r, c)];
                assert!(
                    (numeric - analytic_g).abs() < 2e-3 + 5e-2 * analytic_g.abs(),
                    "{path:?} embedding[{r},{c}]: numeric {numeric} vs analytic {analytic_g}"
                );
            }
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
        let probs_ptr = ws.probs.as_ptr();
        let ds_ptr = ws.ds.as_ptr();
        let dq_ptr = ws.dq_all.as_slice().as_ptr();
        let dx_ptr = ws.dx.as_slice().as_ptr();
        let ffn_ptr = ws.ffn_act.as_slice().as_ptr();
        let x0_ptr = lm.ws.x0.as_slice().as_ptr();
        let logits_ptr = lm.ws.logits.as_slice().as_ptr();
        let targets_ptr = lm.ws.targets.as_ptr();
        let grad_xent_ptr = lm.ws.xent.grad_logits().as_slice().as_ptr();
        let _ = lm.train_batch(&batch, &mut rng);
        let ws = &lm.blocks[0].ws;
        assert_eq!(q_ptr, ws.q_all.as_slice().as_ptr());
        assert_eq!(ctx_ptr, ws.ctx.as_slice().as_ptr());
        assert_eq!(probs_ptr, ws.probs.as_ptr());
        assert_eq!(ds_ptr, ws.ds.as_ptr());
        assert_eq!(dq_ptr, ws.dq_all.as_slice().as_ptr());
        assert_eq!(dx_ptr, ws.dx.as_slice().as_ptr());
        assert_eq!(ffn_ptr, ws.ffn_act.as_slice().as_ptr());
        assert_eq!(x0_ptr, lm.ws.x0.as_slice().as_ptr());
        assert_eq!(logits_ptr, lm.ws.logits.as_slice().as_ptr());
        assert_eq!(targets_ptr, lm.ws.targets.as_ptr());
        assert_eq!(grad_xent_ptr, lm.ws.xent.grad_logits().as_slice().as_ptr());
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
    fn parameter_walk_visits_every_tensor_once() {
        // The embedding, the weight and bias of Q, K, V, O and both FFN
        // layers per block, and the projection's weight and bias.
        let mut rng = StdRng::seed_from_u64(11);
        for layers in [1, 2, 3] {
            let cfg = TransformerLmConfig {
                layers,
                ..config(scheme::none(), scheme::none())
            };
            let mut lm = TransformerLm::new(&cfg, &mut rng);
            let count = lm.parameter_count();
            assert_walk_covers(&mut lm, 1 + 12 * layers + 2, count);
        }
    }

    #[test]
    fn gradient_clipping_bounds_every_stored_gradient() {
        let mut rng = StdRng::seed_from_u64(12);
        let clip = 1e-3;
        let attn = scheme::block_unit(DropoutRate::new(0.5).unwrap(), 4).unwrap();
        let cfg = TransformerLmConfig {
            grad_clip: clip,
            ..config(attn, scheme::none())
        };
        let mut lm = TransformerLm::new(&cfg, &mut rng);
        let _ = lm.train_batch(&cyclic_batch(12, 4, 6), &mut rng);
        // Every gradient is under the clip, and the largest sits on it: the
        // unclipped gradients are orders of magnitude larger.
        let mut tensors = 0;
        lm.visit_params(&mut |p| {
            tensors += 1;
            let max_abs = p
                .grad
                .as_slice()
                .iter()
                .fold(0.0f32, |a, &v| a.max(v.abs()));
            assert!(
                max_abs <= clip * (1.0 + 1e-5),
                "tensor {tensors}: {max_abs}"
            );
        });
        assert_eq!(tensors, 27);
        let largest = largest_grad(&mut lm);
        assert!((largest - clip).abs() <= clip * 1e-5, "largest {largest}");
    }

    /// Changing the last input token of every sequence leaves the logits of
    /// every earlier position bit for bit unchanged, on every attention
    /// path: no position reads a later one.
    #[test]
    fn causal_mask_blocks_future_positions() {
        let mut rng = StdRng::seed_from_u64(15);
        let lm = TransformerLm::new(&config(scheme::none(), scheme::none()), &mut rng);
        let (batch, seq) = (3, 7);
        let tokens = cyclic_batch(12, batch, seq);
        let mut changed = tokens.clone();
        for sequence in &mut changed {
            sequence[seq - 1] = (sequence[seq - 1] + 5) % 12;
        }
        for (path, attn_plan) in path_plans(&mut rng) {
            let mut plans = none_plans(&lm);
            plans[0] = attn_plan.clone();
            plans[2] = attn_plan;
            let (mut a, mut b) = (lm.clone(), lm.clone());
            let _ = a.train_batch_with_plans(&tokens, &plans);
            let _ = b.train_batch_with_plans(&changed, &plans);
            for s in 0..batch {
                for t in 0..seq {
                    let (ra, rb) = (a.ws.logits.row(s * seq + t), b.ws.logits.row(s * seq + t));
                    if t + 1 < seq {
                        assert!(
                            ra.iter().zip(rb).all(|(x, y)| x.to_bits() == y.to_bits()),
                            "{path:?}: sequence {s} position {t} saw a later token"
                        );
                    } else {
                        assert_ne!(ra, rb, "{path:?}: the changed token had no effect");
                    }
                }
            }
        }
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
