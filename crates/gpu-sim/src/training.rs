//! Layer- and network-level training-time models driven by sampled dropout
//! plans.
//!
//! These compose the kernel models of [`crate::kernels`] into the
//! per-iteration training time of the networks evaluated in the paper: a
//! 4-layer MLP (Fig. 4, Table I) and multi-layer LSTMs (Table II, Fig. 5,
//! Fig. 6).
//!
//! The timing model consumes the **same** [`DropoutPlan`] objects the
//! training passes in `nn` execute: a [`NetworkTimingModel`] asks each
//! layer's [`DropoutScheme`] for a plan (exactly like `nn::Mlp` /
//! `nn::LstmLm` do at the start of an iteration) and prices the
//! [`KernelSchedule`] the plan carries. There is no parallel timing-only
//! dropout representation left to drift from the training numerics; the
//! per-iteration time *is* a function of the sampled plan, and expected
//! iteration times are Monte-Carlo averages over sampled iterations.
//!
//! The speedup the paper reports is the ratio of the conventional-dropout
//! iteration time to the approximate-random-dropout iteration time;
//! [`NetworkTimingModel::speedup`] reproduces exactly that ratio.

use crate::config::GpuConfig;
use crate::kernels::{self, GatherIndex};
use approx_dropout::{Activation, DropoutPlan, DropoutScheme, KernelSchedule, LayerShape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of sampled iterations the expectation helpers average over by
/// default. Pattern-period distributions have at most 16 support points, so
/// a few hundred samples pin the mean to well under a percent.
pub const DEFAULT_TIMING_SAMPLES: usize = 256;

/// Timing of one layer's forward + backward work within a training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Human-readable layer label.
    pub name: String,
    /// Forward-pass time in microseconds.
    pub forward_us: f64,
    /// Backward-pass time (activation and weight gradients) in microseconds.
    pub backward_us: f64,
    /// Extra time spent in dropout mask kernels (baseline only).
    pub dropout_us: f64,
}

impl LayerTiming {
    /// Total time contributed by this layer.
    pub fn total_us(&self) -> f64 {
        self.forward_us + self.backward_us + self.dropout_us
    }
}

/// Per-iteration training-time breakdown for a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingTimeBreakdown {
    /// Per-layer timings in network order.
    pub layers: Vec<LayerTiming>,
    /// Total forward time in microseconds.
    pub forward_us: f64,
    /// Total backward time in microseconds.
    pub backward_us: f64,
    /// Total dropout-kernel time in microseconds.
    pub dropout_us: f64,
}

impl TrainingTimeBreakdown {
    /// Total per-iteration time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.forward_us + self.backward_us + self.dropout_us
    }

    /// Total per-iteration time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() / 1e3
    }
}

/// Shape of the fully connected networks of §IV-A/B.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    /// Mini-batch size (the paper uses 128).
    pub batch: usize,
    /// Input dimensionality (784 for MNIST).
    pub input_dim: usize,
    /// Hidden layer widths (e.g. `[2048, 2048]`).
    pub hidden: Vec<usize>,
    /// Output classes (10 for MNIST).
    pub output_dim: usize,
}

impl MlpSpec {
    /// The 4-layer MLP of §IV-A: 784 → 2048 → 2048 → 10, batch 128.
    pub fn paper_mlp() -> Self {
        Self {
            batch: 128,
            input_dim: 784,
            hidden: vec![2048, 2048],
            output_dim: 10,
        }
    }

    /// The Table I variant with the given two hidden-layer widths.
    pub fn with_hidden(h1: usize, h2: usize) -> Self {
        Self {
            batch: 128,
            input_dim: 784,
            hidden: vec![h1, h2],
            output_dim: 10,
        }
    }

    /// Number of layers that carry dropout (one per hidden layer).
    pub fn dropout_layers(&self) -> usize {
        self.hidden.len()
    }
}

/// Shape of the LSTM language models of §IV-C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LstmSpec {
    /// Mini-batch size (20 in the paper, swept to 40 in Fig. 6(b)).
    pub batch: usize,
    /// Word-embedding / input dimensionality.
    pub input_dim: usize,
    /// Hidden state width per layer (1500 in the paper).
    pub hidden: usize,
    /// Number of stacked LSTM layers (2 for the dictionary set, 3 for PTB).
    pub layers: usize,
    /// Unrolled sequence length (35 in the paper).
    pub seq_len: usize,
    /// Vocabulary size of the output softmax (8800 or 10k for PTB).
    pub vocab: usize,
}

impl LstmSpec {
    /// The 2-layer, 1500-hidden LSTM on the 8800-word dictionary corpus.
    pub fn paper_dictionary_lstm() -> Self {
        Self {
            batch: 20,
            input_dim: 1500,
            hidden: 1500,
            layers: 2,
            seq_len: 35,
            vocab: 8800,
        }
    }

    /// The 3-layer LSTM used for the Penn Treebank experiment (Fig. 6).
    pub fn paper_ptb_lstm() -> Self {
        Self {
            batch: 20,
            input_dim: 1500,
            hidden: 1500,
            layers: 3,
            seq_len: 35,
            vocab: 10_000,
        }
    }

    /// Number of layers that carry dropout (between stacked layers and before
    /// the softmax — one per LSTM layer).
    pub fn dropout_layers(&self) -> usize {
        self.layers
    }
}

/// Shape of the transformer encoder language model (the third model family,
/// matching `nn::TransformerLm`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerSpec {
    /// Mini-batch size (sequences per iteration).
    pub batch: usize,
    /// Model width (`d_model`).
    pub model_dim: usize,
    /// Attention heads per block; must divide `model_dim`.
    pub heads: usize,
    /// FFN expansion width (4·`d_model` in the classic encoder).
    pub ff_dim: usize,
    /// Number of stacked encoder blocks.
    pub layers: usize,
    /// Sequence length each iteration attends over.
    pub seq_len: usize,
    /// Vocabulary size of the output softmax.
    pub vocab: usize,
}

impl TransformerSpec {
    /// A PTB-scale encoder LM sized like the paper family's transformer
    /// experiments: 512-wide, 8 heads, 4× FFN, 2 blocks, seq 35, 10k vocab.
    pub fn paper_ptb_transformer() -> Self {
        Self {
            batch: 20,
            model_dim: 512,
            heads: 8,
            ff_dim: 2048,
            layers: 2,
            seq_len: 35,
            vocab: 10_000,
        }
    }

    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        self.model_dim / self.heads
    }

    /// Number of droppable plan positions: one attention plan and one FFN
    /// plan per encoder block, in block order — exactly what
    /// `nn::TransformerLm::train_batch_with_plans` consumes.
    pub fn dropout_layers(&self) -> usize {
        2 * self.layers
    }
}

/// Which network architecture a [`NetworkTimingModel`] describes.
#[derive(Debug, Clone, PartialEq)]
enum NetworkKind {
    Mlp(MlpSpec),
    Lstm(LstmSpec),
    Transformer(TransformerSpec),
}

/// Per-iteration training-time model for one network on one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTimingModel {
    gpu: GpuConfig,
    kind: NetworkKind,
    /// When `true`, forward fully connected layers are priced as **fused**
    /// whole-layer launches: each layer passes its activation as the
    /// `epilogue` of [`price_fc_schedule`], so the bias/activation epilogue
    /// rides in the GEMM's write-back and launch overhead is charged once
    /// per layer instead of once per chained kernel. Off by default so
    /// existing speedup comparisons keep their baseline; flip it with
    /// [`NetworkTimingModel::with_fusion`] to price the deployed fused
    /// executor.
    fused: bool,
}

impl NetworkTimingModel {
    /// Builds a timing model for an MLP.
    pub fn mlp(gpu: GpuConfig, spec: MlpSpec) -> Self {
        gpu.assert_valid();
        Self {
            gpu,
            kind: NetworkKind::Mlp(spec),
            fused: false,
        }
    }

    /// Builds a timing model for an LSTM language model.
    pub fn lstm(gpu: GpuConfig, spec: LstmSpec) -> Self {
        gpu.assert_valid();
        Self {
            gpu,
            kind: NetworkKind::Lstm(spec),
            fused: false,
        }
    }

    /// Builds a timing model for a transformer encoder language model.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `model_dim` or any dimension is
    /// zero.
    pub fn transformer(gpu: GpuConfig, spec: TransformerSpec) -> Self {
        gpu.assert_valid();
        assert!(
            spec.heads > 0 && spec.model_dim > 0 && spec.ff_dim > 0 && spec.layers > 0,
            "transformer dimensions must be positive"
        );
        assert_eq!(
            spec.model_dim % spec.heads,
            0,
            "head count must divide model_dim"
        );
        Self {
            gpu,
            kind: NetworkKind::Transformer(spec),
            fused: false,
        }
    }

    /// Selects whether forward fc layers are priced as fused whole-layer
    /// launches (GEMM+bias+activation in one kernel) or as the separate
    /// GEMM → elementwise chain.
    pub fn with_fusion(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// The GPU the model charges kernels against.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Number of per-layer dropout plans [`Self::iteration_time_from_plans`]
    /// expects.
    pub fn dropout_layers(&self) -> usize {
        match &self.kind {
            NetworkKind::Mlp(spec) => spec.dropout_layers(),
            NetworkKind::Lstm(spec) => spec.dropout_layers(),
            NetworkKind::Transformer(spec) => spec.dropout_layers(),
        }
    }

    /// The [`LayerShape`] each droppable layer presents to its scheme —
    /// identical to the shapes `nn::Mlp` / `nn::LstmLm` plan against, so a
    /// plan sampled here is distributed exactly like one sampled in
    /// training.
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        match &self.kind {
            NetworkKind::Mlp(spec) => {
                let mut shapes = Vec::with_capacity(spec.hidden.len());
                let mut in_dim = spec.input_dim;
                for &width in &spec.hidden {
                    shapes.push(LayerShape::new(in_dim, width));
                    in_dim = width;
                }
                shapes
            }
            NetworkKind::Lstm(spec) => {
                vec![LayerShape::vector(spec.hidden); spec.layers]
            }
            NetworkKind::Transformer(spec) => {
                // Per block: the attention plan resolves against the
                // `(model_dim × model_dim)` projection shape (a `BlockUnit`
                // scheme with `block == head_dim` then partitions the output
                // into whole heads), the FFN plan against the expansion
                // layer — identical to `nn::TransformerLm::layer_shapes`.
                let mut shapes = Vec::with_capacity(spec.dropout_layers());
                for _ in 0..spec.layers {
                    shapes.push(LayerShape::new(spec.model_dim, spec.model_dim));
                    shapes.push(LayerShape::new(spec.model_dim, spec.ff_dim));
                }
                shapes
            }
        }
    }

    /// Samples one plan per droppable layer from `schemes` — the same
    /// plan-before-launch step the training loop performs.
    ///
    /// # Panics
    ///
    /// Panics if `schemes.len()` does not match [`Self::dropout_layers`].
    pub fn plan_iteration(
        &self,
        schemes: &mut [Box<dyn DropoutScheme>],
        rng: &mut StdRng,
    ) -> Vec<DropoutPlan> {
        assert_eq!(
            schemes.len(),
            self.dropout_layers(),
            "expected one dropout scheme per droppable layer"
        );
        self.layer_shapes()
            .into_iter()
            .zip(schemes.iter_mut())
            .map(|(shape, scheme)| scheme.plan(rng, shape))
            .collect()
    }

    /// Per-iteration time implied by concrete sampled plans (one per
    /// droppable layer) — the quantity a real training run would observe for
    /// that iteration.
    ///
    /// # Panics
    ///
    /// Panics if `plans.len()` does not match [`Self::dropout_layers`].
    pub fn iteration_time_from_plans(&self, plans: &[DropoutPlan]) -> TrainingTimeBreakdown {
        assert_eq!(
            plans.len(),
            self.dropout_layers(),
            "expected one dropout plan per droppable layer"
        );
        match &self.kind {
            NetworkKind::Mlp(spec) => self.mlp_iteration(spec, plans),
            NetworkKind::Lstm(spec) => self.lstm_iteration(spec, plans),
            NetworkKind::Transformer(spec) => self.transformer_iteration(spec, plans),
        }
    }

    /// Mean per-iteration time over `samples` iterations with one scheme per
    /// droppable layer, planned from a deterministic RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0` or the scheme count does not match
    /// [`Self::dropout_layers`].
    pub fn expected_iteration_time_per_layer(
        &self,
        schemes: &mut [Box<dyn DropoutScheme>],
        samples: usize,
        seed: u64,
    ) -> TrainingTimeBreakdown {
        assert!(samples > 0, "at least one sample is required");
        let mut rng = StdRng::seed_from_u64(seed);
        // The kernel model only sees a plan through its schedule and its
        // downstream keep fraction, so identical signatures price
        // identically: memoising on the signature keeps the Monte-Carlo
        // weighting exact while collapsing the (at most ~max_dp distinct)
        // kernel-model evaluations — plan-invariant schemes like the
        // Bernoulli baseline evaluate the model exactly once.
        type TimingKey = Vec<(KernelSchedule, f64)>;
        let mut memo: Vec<(TimingKey, TrainingTimeBreakdown)> = Vec::new();
        let mut acc: Option<TrainingTimeBreakdown> = None;
        for _ in 0..samples {
            let plans = self.plan_iteration(schemes, &mut rng);
            let key: TimingKey = plans
                .iter()
                .map(|p| (p.kernel_schedule(), p.active_output_fraction()))
                .collect();
            let breakdown = match memo.iter().find(|(k, _)| *k == key) {
                Some((_, cached)) => cached.clone(),
                None => {
                    let fresh = self.iteration_time_from_plans(&plans);
                    memo.push((key, fresh.clone()));
                    fresh
                }
            };
            acc = Some(match acc {
                None => breakdown,
                Some(total) => accumulate(total, breakdown),
            });
        }
        scale_breakdown(acc.expect("samples > 0"), 1.0 / samples as f64)
    }

    /// Mean per-iteration time with the same scheme on every droppable layer
    /// (cloned per layer so each layer keeps independent statistics).
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn expected_iteration_time(
        &self,
        scheme: &dyn DropoutScheme,
        samples: usize,
        seed: u64,
    ) -> TrainingTimeBreakdown {
        let mut schemes: Vec<Box<dyn DropoutScheme>> = (0..self.dropout_layers())
            .map(|_| scheme.clone_box())
            .collect();
        self.expected_iteration_time_per_layer(&mut schemes, samples, seed)
    }

    /// Speedup of `new` over `baseline` applied uniformly to every droppable
    /// layer: `E[time(baseline)] / E[time(new)]`, both expectations over
    /// `samples` planned iterations.
    pub fn speedup(
        &self,
        baseline: &dyn DropoutScheme,
        new: &dyn DropoutScheme,
        samples: usize,
        seed: u64,
    ) -> f64 {
        self.expected_iteration_time(baseline, samples, seed)
            .total_us()
            / self.expected_iteration_time(new, samples, seed).total_us()
    }

    /// Speedup with per-layer schemes (e.g. the `(p1, p2)` rate pairs of
    /// Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if either slice length does not match [`Self::dropout_layers`].
    pub fn speedup_per_layer(
        &self,
        baseline: &mut [Box<dyn DropoutScheme>],
        new: &mut [Box<dyn DropoutScheme>],
        samples: usize,
        seed: u64,
    ) -> f64 {
        self.expected_iteration_time_per_layer(baseline, samples, seed)
            .total_us()
            / self
                .expected_iteration_time_per_layer(new, samples, seed)
                .total_us()
    }

    /// Time of one fully connected layer (forward GEMM + bias/activation,
    /// backward data and weight GEMMs) under a kernel schedule, given its
    /// active input width `k_eff` and the `activation` of its epilogue.
    fn fc_layer(
        &self,
        name: &str,
        batch: usize,
        k_eff: usize,
        out_features: usize,
        schedule: KernelSchedule,
        activation: Activation,
    ) -> LayerTiming {
        let (forward, backward, dropout) = price_fc_schedule(
            &self.gpu,
            &schedule,
            batch,
            k_eff,
            out_features,
            self.fused.then_some(activation),
        );
        LayerTiming {
            name: name.to_string(),
            forward_us: forward.time_us(),
            backward_us: backward.time_us(),
            dropout_us: dropout,
        }
    }

    fn mlp_iteration(&self, spec: &MlpSpec, plans: &[DropoutPlan]) -> TrainingTimeBreakdown {
        // The next layer is not charged the dropped inputs: see the
        // consuming-GEMM rule on `price_fc_schedule`.
        let mut layers = Vec::new();
        let mut in_dim = spec.input_dim;
        for (i, &width) in spec.hidden.iter().enumerate() {
            let layer = self.fc_layer(
                &format!("fc{} ({}x{})", i + 1, in_dim, width),
                spec.batch,
                in_dim,
                width,
                plans[i].kernel_schedule(),
                Activation::Relu,
            );
            layers.push(layer);
            in_dim = width;
        }
        // Output layer: small and never dropped.
        let output = self.fc_layer(
            &format!("fc_out ({}x{})", in_dim, spec.output_dim),
            spec.batch,
            in_dim,
            spec.output_dim,
            KernelSchedule::Dense,
            Activation::Identity,
        );
        layers.push(output);
        summarize(layers)
    }

    /// Time of one LSTM layer for a full unrolled sequence.
    ///
    /// Per timestep the layer runs an input GEMM `(batch × in) · (in × 4h)`,
    /// a recurrent GEMM `(batch × h) · (h × 4h)` and elementwise gate math;
    /// the backward pass costs roughly twice the forward GEMM work. The input
    /// GEMM runs over the `input_keep` fraction of `in_dim` (the
    /// consuming-GEMM rule on [`price_fc_schedule`]), and the dropout-mask
    /// kernels of the baseline run once per timestep on the layer output.
    fn lstm_layer(
        &self,
        name: &str,
        spec: &LstmSpec,
        in_dim: usize,
        input_keep: f64,
        schedule: KernelSchedule,
    ) -> LayerTiming {
        let gpu = &self.gpu;
        let h4 = 4 * spec.hidden;
        let k_eff = scaled_dim(in_dim, input_keep);
        let steps = spec.seq_len as f64;

        // A CRS schedule samples the inner products of the GEMM consuming
        // this plan position: the layer's input GEMM gathers `kept_k/total_k`
        // of its K dimension per timestep. The recurrent GEMM keeps full
        // fidelity — sampling the state-to-state path every step would
        // compound the approximation across the sequence. Plans resolved
        // against the vector-shaped LSTM positions degenerate to
        // `kept_k == total_k`; the executor falls back to the dense GEMM
        // there, so the pricing must too.
        let input_gemm = match schedule {
            KernelSchedule::CrsCompact { kept_k, total_k }
            | KernelSchedule::RowCrsCompact {
                kept_k, total_k, ..
            } if total_k > 0 && kept_k < total_k => {
                let kk = scaled_dim(k_eff, kept_k as f64 / total_k as f64);
                kernels::gather_gemm(gpu, spec.batch, k_eff, h4, kk, h4, GatherIndex::Inner)
            }
            _ => kernels::dense_gemm(gpu, spec.batch, k_eff, h4),
        };
        let recurrent_gemm = kernels::dense_gemm(gpu, spec.batch, spec.hidden, h4);
        let gates = kernels::elementwise(gpu, spec.batch, h4, 2, 1, 6.0);
        let forward_step = input_gemm.merged_with(&recurrent_gemm).merged_with(&gates);
        let forward_us = forward_step.time_us() * steps;
        // Backward through time: gradients w.r.t. inputs, recurrent state and
        // weights — about twice the forward GEMM volume.
        let backward_us = 2.0 * (input_gemm.time_us() + recurrent_gemm.time_us()) * steps
            + gates.time_us() * steps;

        let dropout_us = if schedule.needs_mask_kernel() {
            let per_step =
                kernels::conventional_dropout_layer(gpu, spec.batch, spec.hidden).merged_with(
                    &kernels::elementwise(gpu, spec.batch, spec.hidden, 2, 1, 1.0),
                );
            per_step.time_us() * steps
        } else {
            0.0
        };

        LayerTiming {
            name: name.to_string(),
            forward_us,
            backward_us,
            dropout_us,
        }
    }

    fn lstm_iteration(&self, spec: &LstmSpec, plans: &[DropoutPlan]) -> TrainingTimeBreakdown {
        let mut layers = Vec::new();
        let mut input_keep = 1.0;
        let mut in_dim = spec.input_dim;
        for (i, plan) in plans.iter().enumerate().take(spec.layers) {
            let layer = self.lstm_layer(
                &format!("lstm{} (h={})", i + 1, spec.hidden),
                spec,
                in_dim,
                input_keep,
                plan.kernel_schedule(),
            );
            layers.push(layer);
            input_keep = plan.active_output_fraction();
            in_dim = spec.hidden;
        }
        // Output softmax projection over the whole unrolled sequence:
        // (batch·seq_len × h) · (h × vocab), over the last layer's kept units
        // (the consuming-GEMM rule on `price_fc_schedule`).
        let tokens = spec.batch * spec.seq_len;
        let proj = self.fc_layer(
            &format!("softmax ({}x{})", spec.hidden, spec.vocab),
            tokens,
            scaled_dim(spec.hidden, input_keep),
            spec.vocab,
            KernelSchedule::Dense,
            Activation::Identity,
        );
        layers.push(proj);
        summarize(layers)
    }

    /// Time of one multi-head self-attention layer for a full iteration.
    ///
    /// The attention plan prices the executor in `nn::transformer` arm by
    /// arm:
    ///
    /// * an `NmCompact` plan routes all four `(model_dim × model_dim)`
    ///   projections (Q, K, V, O) through the compacted N:M kernel via
    ///   [`price_fc_schedule`] — on a sparse-tensor-core device that is the
    ///   hardware 2:4 roofline;
    /// * a block-unit plan over whole heads ([`DropoutPlan::kept_heads`])
    ///   drops them: Q/K/V run the block-compacted kernel (dropped heads'
    ///   projection columns are never computed), both batched attention
    ///   GEMMs (QKᵀ and attn·V) and the softmax shrink to the kept heads,
    ///   and O's input GEMM skips the dropped heads' zero columns;
    /// * mask-family plans (conventional Bernoulli) leave everything dense
    ///   and pay the per-iteration mask kernel on the context tensor.
    ///
    /// One convention, like the consuming-GEMM rule on
    /// [`price_fc_schedule`]: the model prices the full `seq × seq` QKᵀ,
    /// softmax and attn·V of every computed head, causal mask included.
    /// The CPU executor scores only the unmasked lower triangle and skips
    /// the quads of its attention products that the mask zeroes entirely,
    /// so it runs a little over half of these FLOPs at lm_train's seq 24.
    /// Pricing the triangle would move the `pricing_properties` pins and
    /// the transformer goldens, so it is a deliberate pricing change of its
    /// own. Likewise the CPU runs Q, K and V as one fused `d × 3d`
    /// projection, one launch each way, while the model prices three
    /// `d × d` launches of the same FLOPs.
    fn attention_layer(
        &self,
        name: &str,
        spec: &TransformerSpec,
        plan: &DropoutPlan,
    ) -> LayerTiming {
        let gpu = &self.gpu;
        let tokens = spec.batch * spec.seq_len;
        let d = spec.model_dim;
        let hd = spec.head_dim();
        let schedule = plan.kernel_schedule();

        // Whole-head drop keeps `kept_heads` of `heads` heads; the
        // executor's per-head loop skips dropped heads outright. Every other
        // plan family runs all heads.
        let head_drop = plan.kept_heads(hd, spec.heads);
        let kept_heads = head_drop.map_or(spec.heads, |kept| kept.len().max(1));

        let qkv_schedule = match schedule {
            KernelSchedule::NmCompact { .. } => schedule,
            KernelSchedule::BlockCompact { .. } if head_drop.is_some() => schedule,
            _ => KernelSchedule::Dense,
        };
        let o_schedule = match schedule {
            KernelSchedule::NmCompact { .. } => schedule,
            _ => KernelSchedule::Dense,
        };
        let epilogue = self.fused.then_some(Activation::Identity);
        // O reads only the kept heads' context columns (the consuming-GEMM
        // rule on `price_fc_schedule`).
        let o_input_keep = kept_heads as f64 / spec.heads as f64;

        let mut forward_us = 0.0;
        let mut backward_us = 0.0;
        for _ in 0..3 {
            let (f, b, _) = price_fc_schedule(gpu, &qkv_schedule, tokens, d, d, epilogue);
            forward_us += f.time_us();
            backward_us += b.time_us();
        }
        let o_k = scaled_dim(d, o_input_keep);
        let (f, b, _) = price_fc_schedule(gpu, &o_schedule, tokens, o_k, d, epilogue);
        forward_us += f.time_us();
        backward_us += b.time_us();
        // Batched per-head GEMMs priced as one tall GEMM over the
        // `batch · kept_heads` head instances: QKᵀ is `(seq × hd) · (hd ×
        // seq)` per head, attn·V is `(seq × seq) · (seq × hd)`, and the
        // causal softmax reads and rewrites each score row.
        let rows = spec.batch * kept_heads * spec.seq_len;
        let qk = kernels::dense_gemm(gpu, rows, hd, spec.seq_len);
        let softmax = kernels::elementwise(gpu, rows, spec.seq_len, 2, 1, 6.0);
        let av = kernels::dense_gemm(gpu, rows, spec.seq_len, hd);
        forward_us += qk.time_us() + softmax.time_us() + av.time_us();
        // Backward re-runs the pair twice (dP = dCtx·Vᵀ and dV = Pᵀ·dCtx
        // mirror attn·V; dQ = dS·K and dK = dSᵀ·Q mirror QKᵀ) plus the
        // softmax Jacobian elementwise pass.
        backward_us += 2.0 * (qk.time_us() + av.time_us()) + softmax.time_us();

        let dropout_us = if schedule.needs_mask_kernel() {
            kernels::conventional_dropout_layer(gpu, tokens, d)
                .merged_with(&kernels::elementwise(gpu, tokens, d, 2, 1, 1.0))
                .time_us()
        } else {
            0.0
        };

        LayerTiming {
            name: name.to_string(),
            forward_us,
            backward_us,
            dropout_us,
        }
    }

    fn transformer_iteration(
        &self,
        spec: &TransformerSpec,
        plans: &[DropoutPlan],
    ) -> TrainingTimeBreakdown {
        let tokens = spec.batch * spec.seq_len;
        let mut layers = Vec::new();
        for l in 0..spec.layers {
            let attn_plan = &plans[2 * l];
            let ffn_plan = &plans[2 * l + 1];
            layers.push(self.attention_layer(
                &format!("attn{} ({} heads x {})", l + 1, spec.heads, spec.head_dim()),
                spec,
                attn_plan,
            ));
            // FFN expansion carries the block's second dropout plan; the
            // contraction back to model width is not charged its dropped
            // inputs (the consuming-GEMM rule on `price_fc_schedule`).
            layers.push(self.fc_layer(
                &format!("ffn{}_in ({}x{})", l + 1, spec.model_dim, spec.ff_dim),
                tokens,
                spec.model_dim,
                spec.ff_dim,
                ffn_plan.kernel_schedule(),
                Activation::Relu,
            ));
            layers.push(self.fc_layer(
                &format!("ffn{}_out ({}x{})", l + 1, spec.ff_dim, spec.model_dim),
                tokens,
                spec.ff_dim,
                spec.model_dim,
                KernelSchedule::Dense,
                Activation::Identity,
            ));
        }
        // Vocabulary softmax over every position, dense and never dropped.
        layers.push(self.fc_layer(
            &format!("softmax ({}x{})", spec.model_dim, spec.vocab),
            tokens,
            spec.model_dim,
            spec.vocab,
            KernelSchedule::Dense,
            Activation::Identity,
        ));
        summarize(layers)
    }
}

/// Prices one fully connected layer's kernels under a [`KernelSchedule`]:
/// the forward GEMM with its bias/activation epilogue, the two backward
/// GEMMs (input and weight gradients), and any dropout-mask kernel time.
///
/// `epilogue` says how the forward epilogue runs. `None` prices the GEMM
/// followed by a separate bias/activation elementwise kernel. `Some(act)`
/// prices the fused whole-layer launch: the bias add and `act` (and, for
/// masked schedules, the mask multiply) ride in the GEMM's write-back, so
/// launch overhead is charged once and no second pass re-reads the
/// activation matrix. The backward pass is the same either way.
///
/// This is the *single* per-variant pricing dispatch of the crate — the
/// counterpart of the `ExecPath` classification the `nn` crate executes
/// with. Every schedule that runs over kept units fixed before launch
/// (rows, blocks, software N:M, CRS and row×CRS) prices through one
/// [`kernels::gather_gemm`] arm; a new such schedule is one line mapping it
/// to its kept inner width, kept output width and [`GatherIndex`]. Pricing
/// is capability-aware: on a [`GpuConfig`] whose capabilities accelerate
/// hardware 2:4, an `NmCompact { n: 2, m: 4 }` schedule prices through
/// [`kernels::nm_tensor_core_gemm`] instead of the gather.
///
/// # Which GEMM is charged a dropped input
///
/// A plan shrinks the GEMMs that produce its own layer's output, which is
/// what this function prices. The GEMM that *consumes* that output could
/// also skip the dropped inputs; the network models charge that saving,
/// as a smaller `k_eff`, for exactly these consumers:
///
/// * charged: the next LSTM layer's input GEMM and the LSTM softmax
///   (`input_keep`), and the transformer's O projection (`o_input_keep`);
/// * not charged: the MLP's next layer and the transformer's FFN output.
///   The paper's end-to-end MLP speedups (≤ 2.2× at rate 0.7) indicate the
///   deployed kernels realise the reduction once per layer, and charging
///   it twice would overshoot those measurements.
///
/// The CPU executor in `nn` realises none of these consuming-GEMM savings
/// today.
///
/// Returns `(forward, backward, dropout_us)`: the forward-pass kernel
/// stats, the backward-pass kernel stats, and any separate dropout-mask
/// kernel time in microseconds.
pub fn price_fc_schedule(
    gpu: &GpuConfig,
    schedule: &KernelSchedule,
    batch: usize,
    k_eff: usize,
    out_features: usize,
    epilogue: Option<Activation>,
) -> (kernels::KernelStats, kernels::KernelStats, f64) {
    let n = out_features;
    // A gather layer over `kk` of the `k_eff` inner products and `kn` of
    // the `n` outputs. Its epilogue covers the `kn` kept outputs. dX is a
    // dense GEMM over the kept outputs (the gather already happened in
    // forward), except that a sampled inner index scatters into the kept
    // inner columns. dW computes only the kept weights from the gathered
    // input panel.
    let gather = |kk: usize, kn: usize, index: GatherIndex| {
        let dx = match index {
            GatherIndex::Inner => kernels::gather_gemm(gpu, batch, kn, k_eff, kn, kk, index),
            _ => kernels::dense_gemm(gpu, batch, kn, k_eff),
        };
        (
            kernels::gather_gemm(gpu, batch, k_eff, n, kk, kn, index),
            kn,
            dx,
            kernels::gather_gemm(gpu, kk, batch, n, batch, kn, index),
        )
    };
    // Per schedule: the forward GEMM, the output width its epilogue covers,
    // and the input-gradient (dX) and weight-gradient (dW) GEMMs.
    let (gemm, epilogue_n, dx, dw) = match *schedule {
        KernelSchedule::Dense | KernelSchedule::DenseWithMask => (
            kernels::dense_gemm(gpu, batch, k_eff, n),
            n,
            kernels::dense_gemm(gpu, batch, n, k_eff),
            kernels::dense_gemm(gpu, k_eff, batch, n),
        ),
        KernelSchedule::DenseDivergent { rate } => (
            kernels::divergent_gemm(gpu, batch, k_eff, n, rate),
            n,
            kernels::divergent_gemm(gpu, batch, n, k_eff, rate),
            kernels::divergent_gemm(gpu, k_eff, batch, n, rate),
        ),
        // The tile epilogue covers every output column (bias is added to
        // dropped columns too, matching the executor).
        KernelSchedule::TileCompact { kept, total } => (
            kernels::tile_compact_gemm(gpu, batch, k_eff, n, kept, total),
            n,
            kernels::tile_compact_gemm(gpu, batch, n, k_eff, kept, total),
            kernels::tile_compact_gemm(gpu, k_eff, batch, n, kept, total),
        ),
        // Hardware 2:4 keeps its sparse-tensor-core roofline; every other
        // N:M shape falls through to the gather arm below.
        KernelSchedule::NmCompact { n: lanes, m } if gpu.capabilities.accelerates_nm(lanes, m) => {
            let kept = scaled_units(n, lanes, m);
            (
                kernels::nm_tensor_core_gemm(gpu, batch, k_eff, n),
                kept,
                kernels::dense_gemm(gpu, batch, kept, k_eff),
                kernels::nm_tensor_core_gemm(gpu, k_eff, batch, n),
            )
        }
        KernelSchedule::RowCompact { kept, total } => {
            gather(k_eff, scaled_units(n, kept, total), GatherIndex::Rows)
        }
        KernelSchedule::BlockCompact { kept, total, .. } => gather(
            k_eff,
            scaled_units(n, kept, total),
            GatherIndex::Blocks { total },
        ),
        KernelSchedule::NmCompact { n: lanes, m } => {
            gather(k_eff, scaled_units(n, lanes, m), GatherIndex::Lanes { m })
        }
        KernelSchedule::CrsCompact { kept_k, total_k } => {
            gather(scaled_units(k_eff, kept_k, total_k), n, GatherIndex::Inner)
        }
        // The composed launch: the two axes' savings multiply in one GEMM.
        KernelSchedule::RowCrsCompact {
            kept_n,
            total_n,
            kept_k,
            total_k,
        } => gather(
            scaled_units(k_eff, kept_k, total_k),
            scaled_units(n, kept_n, total_n),
            GatherIndex::Inner,
        ),
    };
    let fwd = match epilogue {
        None => gemm.merged_with(&kernels::elementwise(gpu, batch, epilogue_n, 1, 1, 2.0)),
        Some(activation) => {
            // A masked epilogue folds the mask multiply in too: one extra
            // flop and one extra broadcast vector read per element.
            let masked = matches!(
                schedule,
                KernelSchedule::DenseWithMask | KernelSchedule::DenseDivergent { .. }
            );
            let flops_per_element =
                1.0 + activation_flops(activation) + if masked { 1.0 } else { 0.0 };
            let vector_reads = if masked { 2 } else { 1 };
            kernels::fuse_epilogue(
                gpu,
                gemm,
                batch,
                epilogue_n,
                flops_per_element,
                vector_reads,
            )
        }
    };
    let dropout_us = if schedule.needs_mask_kernel() {
        // Mask generation (plus the forward mask apply, unless the fused
        // epilogue folds it in), then the mask apply again on the gradient
        // in backward.
        let forward_mask = match epilogue {
            None => kernels::conventional_dropout_layer(gpu, batch, n),
            Some(_) => kernels::elementwise(gpu, batch, n, 0, 1, 12.0),
        };
        forward_mask
            .merged_with(&kernels::elementwise(gpu, batch, n, 2, 1, 1.0))
            .time_us()
    } else {
        0.0
    };
    (fwd, dx.merged_with(&dw), dropout_us)
}

/// FLOPs a fused epilogue charges per output element for the activation
/// (the bias add and optional mask multiply are accounted separately).
fn activation_flops(act: Activation) -> f64 {
    match act {
        Activation::Identity => 0.0,
        Activation::Relu => 1.0,
    }
}

fn summarize(layers: Vec<LayerTiming>) -> TrainingTimeBreakdown {
    let forward_us = layers.iter().map(|l| l.forward_us).sum();
    let backward_us = layers.iter().map(|l| l.backward_us).sum();
    let dropout_us = layers.iter().map(|l| l.dropout_us).sum();
    TrainingTimeBreakdown {
        layers,
        forward_us,
        backward_us,
        dropout_us,
    }
}

fn accumulate(
    mut total: TrainingTimeBreakdown,
    sample: TrainingTimeBreakdown,
) -> TrainingTimeBreakdown {
    assert_eq!(
        total.layers.len(),
        sample.layers.len(),
        "layer counts agree"
    );
    for (acc, layer) in total.layers.iter_mut().zip(sample.layers) {
        acc.forward_us += layer.forward_us;
        acc.backward_us += layer.backward_us;
        acc.dropout_us += layer.dropout_us;
    }
    total.forward_us += sample.forward_us;
    total.backward_us += sample.backward_us;
    total.dropout_us += sample.dropout_us;
    total
}

fn scale_breakdown(mut breakdown: TrainingTimeBreakdown, factor: f64) -> TrainingTimeBreakdown {
    for layer in &mut breakdown.layers {
        layer.forward_us *= factor;
        layer.backward_us *= factor;
        layer.dropout_us *= factor;
    }
    breakdown.forward_us *= factor;
    breakdown.backward_us *= factor;
    breakdown.dropout_us *= factor;
    breakdown
}

/// Maps the kept fraction of a plan (sampled at the plan's own resolution)
/// onto this model's layer width, clamped so at least one unit survives
/// (none of a zero-width layer).
fn scaled_units(out_features: usize, kept: usize, total: usize) -> usize {
    if total == 0 {
        return out_features;
    }
    scaled_dim(out_features, kept as f64 / total as f64)
}

/// Effective dimension after keeping a fraction of the features: at least 1
/// of a nonzero dimension, 0 of an empty one.
fn scaled_dim(dim: usize, keep: f64) -> usize {
    ((dim as f64 * keep).round() as usize).clamp(usize::from(dim > 0), dim.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_dropout::scheme;
    use approx_dropout::DropoutRate;

    const SAMPLES: usize = DEFAULT_TIMING_SAMPLES;

    fn rate(p: f64) -> DropoutRate {
        DropoutRate::new(p).unwrap()
    }

    fn row(p: f64) -> Box<dyn DropoutScheme> {
        scheme::row(rate(p), 16).unwrap()
    }

    fn tile(p: f64) -> Box<dyn DropoutScheme> {
        scheme::tile(rate(p), 16, 32).unwrap()
    }

    #[test]
    fn mlp_row_dropout_is_faster_than_conventional() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let speedup = model.speedup(&*scheme::bernoulli(rate(0.5)), &*row(0.5), SAMPLES, 0);
        assert!(speedup > 1.0, "speedup {speedup}");
        assert!(speedup < 3.0, "speedup {speedup} unreasonably high");
    }

    #[test]
    fn speedup_grows_with_dropout_rate() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let s03 = model.speedup(&*scheme::bernoulli(rate(0.3)), &*row(0.3), SAMPLES, 1);
        let s07 = model.speedup(&*scheme::bernoulli(rate(0.7)), &*row(0.7), SAMPLES, 1);
        assert!(
            s07 > s03,
            "0.7 speedup {s07} should exceed 0.3 speedup {s03}"
        );
    }

    #[test]
    fn speedup_grows_with_network_size() {
        let gpu = GpuConfig::gtx_1080ti();
        let small = NetworkTimingModel::mlp(gpu.clone(), MlpSpec::with_hidden(1024, 64));
        let large = NetworkTimingModel::mlp(gpu, MlpSpec::with_hidden(4096, 4096));
        let baseline = scheme::bernoulli(rate(0.7));
        assert!(
            large.speedup(&*baseline, &*row(0.7), SAMPLES, 2)
                > small.speedup(&*baseline, &*row(0.7), SAMPLES, 2)
        );
    }

    #[test]
    fn tile_speedup_is_positive_but_below_row() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let baseline = scheme::bernoulli(rate(0.7));
        let row_speedup = model.speedup(&*baseline, &*row(0.7), SAMPLES, 3);
        let tile_speedup = model.speedup(&*baseline, &*tile(0.7), SAMPLES, 3);
        assert!(tile_speedup > 1.0, "tile speedup {tile_speedup}");
        assert!(
            row_speedup > tile_speedup,
            "row {row_speedup} should exceed tile {tile_speedup}"
        );
    }

    fn nm(n: usize, m: usize) -> Box<dyn DropoutScheme> {
        scheme::nm(n, m).unwrap()
    }

    fn block(p: f64, width: usize) -> Box<dyn DropoutScheme> {
        scheme::block_unit(rate(p), width).unwrap()
    }

    #[test]
    fn structured_schemes_speed_up_on_both_device_presets() {
        // The structured-vs-dense ordering must hold on the consumer card
        // *and* the bandwidth-rich server preset: every structured scheme
        // beats the conventional baseline, and dropping more (1:4 vs 2:4)
        // never slows down.
        for gpu in [GpuConfig::gtx_1080ti(), GpuConfig::server_hbm()] {
            let model = NetworkTimingModel::mlp(gpu.clone(), MlpSpec::paper_mlp());
            let baseline = scheme::bernoulli(rate(0.5));
            let s_nm24 = model.speedup(&*baseline, &*nm(2, 4), SAMPLES, 20);
            let s_nm14 = model.speedup(&*baseline, &*nm(1, 4), SAMPLES, 20);
            let s_block = model.speedup(&*baseline, &*block(0.5, 32), SAMPLES, 20);
            let s_row = model.speedup(&*baseline, &*row(0.5), SAMPLES, 20);
            assert!(s_nm24 > 1.0, "{}: 2:4 speedup {s_nm24}", gpu.name);
            assert!(s_block > 1.0, "{}: block speedup {s_block}", gpu.name);
            assert!(
                s_nm14 > s_nm24,
                "{}: 1:4 ({s_nm14}) must beat 2:4 ({s_nm24})",
                gpu.name
            );
            // Contiguous rows never lose to the within-group gather at the
            // same rate.
            assert!(
                s_row >= s_nm24 * 0.99,
                "{}: row {s_row} vs nm {s_nm24}",
                gpu.name
            );
        }
    }

    #[test]
    fn sparse_tensor_core_preset_realises_the_nm_hardware_win() {
        // The acceptance criterion of the sparse-tensor-core preset: on it,
        // a simulated 2:4 N:M training iteration prices faster than (a) the
        // Bernoulli-masked dense baseline and (b) the *same plan's*
        // SIMT-gather pricing on identical silicon (tensor cores stripped).
        let sparse = GpuConfig::sparse_tensor_core();
        let model = NetworkTimingModel::mlp(sparse.clone(), MlpSpec::paper_mlp());
        let gather_model =
            NetworkTimingModel::mlp(sparse.without_tensor_cores(), MlpSpec::paper_mlp());

        let s_nm24 = model.speedup(&*scheme::bernoulli(rate(0.5)), &*nm(2, 4), SAMPLES, 21);
        assert!(s_nm24 > 1.0, "2:4 must beat Bernoulli: {s_nm24}");

        let t_tc = model
            .expected_iteration_time(&*nm(2, 4), SAMPLES, 21)
            .total_us();
        let t_gather = gather_model
            .expected_iteration_time(&*nm(2, 4), SAMPLES, 21)
            .total_us();
        assert!(
            t_tc < t_gather,
            "tensor-core 2:4 iteration {t_tc} must beat its gather pricing {t_gather}"
        );

        // Dropping more still never prices slower, across the model switch
        // (1:4 falls back to the gather model on the same device).
        let s_nm14 = model.speedup(&*scheme::bernoulli(rate(0.75)), &*nm(1, 4), SAMPLES, 21);
        assert!(s_nm14 > 1.0, "1:4 must still beat Bernoulli: {s_nm14}");
        let t_nm14 = model
            .expected_iteration_time(&*nm(1, 4), SAMPLES, 21)
            .total_us();
        assert!(
            t_nm14 <= t_tc + 1e-9,
            "1:4 ({t_nm14}) must not price above 2:4 ({t_tc})"
        );
    }

    #[test]
    fn structured_plans_price_monotonically_in_kept_fraction() {
        // Lower kept_fraction never prices slower, through the full
        // network-level pricing path (plans constructed directly so the
        // kept counts are exact).
        use approx_dropout::{DropoutPlan, RowPattern};
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let shapes = model.layer_shapes();

        let nm_plans = |n: usize, m: usize| -> Vec<DropoutPlan> {
            shapes
                .iter()
                .map(|&s| {
                    let mut sch = approx_dropout::NmSparsity::new(n, m).unwrap();
                    sch.plan(&mut StdRng::seed_from_u64(1), s)
                })
                .collect()
        };
        let block_plans = |kept_of_64: usize| -> Vec<DropoutPlan> {
            shapes
                .iter()
                .map(|&s| {
                    let total = s.out_features.div_ceil(32);
                    let kept: Vec<usize> = (0..(kept_of_64 * total / 64).max(1)).collect();
                    DropoutPlan::block_unit(s, 32, kept, 1.0, 0.0)
                })
                .collect()
        };
        let row_plans = |dp: usize| -> Vec<DropoutPlan> {
            shapes
                .iter()
                .map(|&s| DropoutPlan::row(s, RowPattern::new(dp, 0).unwrap()))
                .collect()
        };

        let nm_series: Vec<f64> = [(4, 4), (3, 4), (2, 4), (1, 4)]
            .iter()
            .map(|&(n, m)| model.iteration_time_from_plans(&nm_plans(n, m)).total_us())
            .collect();
        let block_series: Vec<f64> = [64, 48, 32, 16]
            .iter()
            .map(|&kept| {
                model
                    .iteration_time_from_plans(&block_plans(kept))
                    .total_us()
            })
            .collect();
        let row_series: Vec<f64> = [1, 2, 4, 8]
            .iter()
            .map(|&dp| model.iteration_time_from_plans(&row_plans(dp)).total_us())
            .collect();
        for series in [nm_series, block_series, row_series] {
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "lower kept fraction priced slower: {series:?}"
                );
            }
        }
    }

    /// One instance of every `KernelSchedule` arm.
    fn every_arm() -> [KernelSchedule; 9] {
        [
            KernelSchedule::Dense,
            KernelSchedule::DenseWithMask,
            KernelSchedule::DenseDivergent { rate: 0.5 },
            KernelSchedule::RowCompact {
                kept: 1024,
                total: 2048,
            },
            KernelSchedule::TileCompact {
                kept: 2048,
                total: 4096,
            },
            KernelSchedule::NmCompact { n: 2, m: 4 },
            KernelSchedule::BlockCompact {
                kept: 32,
                total: 64,
                block: 32,
            },
            KernelSchedule::CrsCompact {
                kept_k: 1024,
                total_k: 2048,
            },
            KernelSchedule::RowCrsCompact {
                kept_n: 1024,
                total_n: 2048,
                kept_k: 1024,
                total_k: 2048,
            },
        ]
    }

    fn all_presets() -> [GpuConfig; 4] {
        [
            GpuConfig::gtx_1080ti(),
            GpuConfig::server_hbm(),
            GpuConfig::sparse_tensor_core(),
            GpuConfig::small_embedded(),
        ]
    }

    #[test]
    fn fused_layer_never_prices_above_the_unfused_chain() {
        // fused_cost <= sum(parts): the fused launch saves the elementwise
        // kernel's launch overhead and its re-read/re-write of the
        // activation matrix, for every schedule arm, on every device preset
        // and under every epilogue activation. Fusion is a property of the
        // forward epilogue only, so the backward pass prices identically.
        for gpu in all_presets() {
            for schedule in every_arm() {
                for (batch, k, n) in [(128, 2048, 2048), (64, 784, 2048), (20, 1500, 6000)] {
                    let (unfused_fwd, unfused_bwd, unfused_drop) =
                        price_fc_schedule(&gpu, &schedule, batch, k, n, None);
                    for act in [Activation::Identity, Activation::Relu] {
                        let (fused_fwd, fused_bwd, fused_drop) =
                            price_fc_schedule(&gpu, &schedule, batch, k, n, Some(act));
                        let case =
                            format!("{}: {schedule:?}/{act:?} at ({batch},{k},{n})", gpu.name);
                        assert!(
                            fused_fwd.time_us() <= unfused_fwd.time_us(),
                            "{case}: fused fwd {} > unfused {}",
                            fused_fwd.time_us(),
                            unfused_fwd.time_us()
                        );
                        assert_eq!(fused_bwd, unfused_bwd, "{case}: backward moved");
                        // Whole-layer totals shrink too.
                        let unfused_total =
                            unfused_fwd.time_us() + unfused_bwd.time_us() + unfused_drop;
                        let fused_total = fused_fwd.time_us() + fused_bwd.time_us() + fused_drop;
                        assert!(
                            fused_total <= unfused_total,
                            "{case}: fused total {fused_total} > unfused {unfused_total}"
                        );
                        // Launch accounting: the fused forward is one kernel,
                        // the unfused forward is a GEMM + elementwise chain.
                        assert_eq!(fused_fwd.launches, 1, "{case}");
                        assert_eq!(unfused_fwd.launches, 2, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_width_layers_price_finite() {
        // A zero-sized GEMM dimension prices as finite overhead, never a
        // panic: every arm, fused and unfused, on every preset.
        for gpu in all_presets() {
            for schedule in every_arm() {
                for (batch, k, n) in [(0, 512, 256), (64, 0, 256), (64, 512, 0), (0, 0, 0)] {
                    for epilogue in [None, Some(Activation::Relu)] {
                        let (fwd, bwd, drop) =
                            price_fc_schedule(&gpu, &schedule, batch, k, n, epilogue);
                        assert!(
                            fwd.time_us().is_finite()
                                && bwd.time_us().is_finite()
                                && drop.is_finite(),
                            "{}: {schedule:?}/{epilogue:?} at ({batch},{k},{n})",
                            gpu.name
                        );
                    }
                }
            }
        }
        // A zero-width hidden layer reaches the same guards through the
        // network model.
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::with_hidden(0, 8));
        for scheme in [
            scheme::none(),
            scheme::bernoulli(rate(0.5)),
            row(0.5),
            tile(0.5),
            nm(2, 4),
            block(0.5, 32),
            scheme::crs(0.5).unwrap(),
            scheme::row_crs(rate(0.5), 16, 0.5).unwrap(),
        ] {
            let t = model.expected_iteration_time(&*scheme, 16, 0).total_us();
            assert!(t.is_finite() && t > 0.0, "{}: {t}", scheme.label());
        }
    }

    #[test]
    fn fused_pricing_is_monotonic_in_kept_fraction() {
        let g = GpuConfig::gtx_1080ti();
        let relu = Some(Activation::Relu);
        let row_series: Vec<f64> = [2048usize, 1024, 512, 256]
            .iter()
            .map(|&kept| {
                let schedule = KernelSchedule::RowCompact { kept, total: 2048 };
                let (fwd, bwd, _) = price_fc_schedule(&g, &schedule, 128, 2048, 2048, relu);
                fwd.time_us() + bwd.time_us()
            })
            .collect();
        let nm_series: Vec<f64> = [(4usize, 4usize), (3, 4), (2, 4), (1, 4)]
            .iter()
            .map(|&(n, m)| {
                let schedule = KernelSchedule::NmCompact { n, m };
                let (fwd, bwd, _) = price_fc_schedule(&g, &schedule, 128, 2048, 2048, relu);
                fwd.time_us() + bwd.time_us()
            })
            .collect();
        let crs_series: Vec<f64> = [2048usize, 1536, 1024, 512]
            .iter()
            .map(|&kept_k| {
                let schedule = KernelSchedule::CrsCompact {
                    kept_k,
                    total_k: 2048,
                };
                let (fwd, bwd, _) = price_fc_schedule(&g, &schedule, 128, 2048, 2048, relu);
                fwd.time_us() + bwd.time_us()
            })
            .collect();
        for series in [row_series, nm_series, crs_series] {
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "dropping more must not price slower: {series:?}"
                );
            }
        }
    }

    #[test]
    fn crs_schedule_prices_monotonically_in_kept_k() {
        // Sampling fewer inner products never prices slower, through the
        // full per-layer dispatch (forward + backward), on every preset.
        for gpu in [
            GpuConfig::gtx_1080ti(),
            GpuConfig::server_hbm(),
            GpuConfig::sparse_tensor_core(),
        ] {
            let series: Vec<f64> = [2048usize, 1536, 1024, 512, 256]
                .iter()
                .map(|&kept_k| {
                    let schedule = KernelSchedule::CrsCompact {
                        kept_k,
                        total_k: 2048,
                    };
                    let (fwd, bwd, drop) =
                        price_fc_schedule(&gpu, &schedule, 128, 2048, 2048, None);
                    fwd.time_us() + bwd.time_us() + drop
                })
                .collect();
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "{}: sampling fewer inner products priced slower: {series:?}",
                    gpu.name
                );
            }
        }
    }

    #[test]
    fn composed_row_crs_prices_below_either_axis_alone() {
        // The composed launch executes (kn/N)·(kk/K) of the dense work, so a
        // whole layer must price below both the pure CRS schedule and the
        // pure row schedule at the same per-axis fractions.
        let layer_time = |gpu: &GpuConfig, schedule: &KernelSchedule| {
            let (fwd, bwd, drop) = price_fc_schedule(gpu, schedule, 128, 2048, 2048, None);
            fwd.time_us() + bwd.time_us() + drop
        };
        for gpu in [
            GpuConfig::gtx_1080ti(),
            GpuConfig::server_hbm(),
            GpuConfig::sparse_tensor_core(),
        ] {
            let crs_only = layer_time(
                &gpu,
                &KernelSchedule::CrsCompact {
                    kept_k: 1024,
                    total_k: 2048,
                },
            );
            let row_only = layer_time(
                &gpu,
                &KernelSchedule::RowCompact {
                    kept: 1024,
                    total: 2048,
                },
            );
            let composed = layer_time(
                &gpu,
                &KernelSchedule::RowCrsCompact {
                    kept_n: 1024,
                    total_n: 2048,
                    kept_k: 1024,
                    total_k: 2048,
                },
            );
            assert!(
                composed < crs_only,
                "{}: composed {composed} vs crs {crs_only}",
                gpu.name
            );
            assert!(
                composed < row_only,
                "{}: composed {composed} vs row {row_only}",
                gpu.name
            );
        }
    }

    #[test]
    fn crs_scheme_speeds_up_whole_network_pricing() {
        // A CRS scheme planned by the network model prices a faster
        // iteration than the dense no-dropout baseline, and keeping fewer
        // inner products speeds it up further; the composed row×CRS scheme
        // beats both of its axes alone.
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let t_dense = model
            .expected_iteration_time(&*scheme::none(), SAMPLES, 30)
            .total_us();
        let t_crs_half = model
            .expected_iteration_time(&*scheme::crs(0.5).unwrap(), SAMPLES, 30)
            .total_us();
        let t_crs_quarter = model
            .expected_iteration_time(&*scheme::crs(0.25).unwrap(), SAMPLES, 30)
            .total_us();
        assert!(t_crs_half < t_dense, "crs {t_crs_half} vs dense {t_dense}");
        assert!(
            t_crs_quarter < t_crs_half,
            "keeping fewer inner products must be faster: {t_crs_quarter} vs {t_crs_half}"
        );

        let t_row = model
            .expected_iteration_time(&*row(0.5), SAMPLES, 30)
            .total_us();
        let t_composed = model
            .expected_iteration_time(&*scheme::row_crs(rate(0.5), 16, 0.5).unwrap(), SAMPLES, 30)
            .total_us();
        assert!(
            t_composed < t_crs_half && t_composed < t_row,
            "composed {t_composed} must beat crs {t_crs_half} and row {t_row}"
        );
    }

    #[test]
    fn fused_model_speeds_up_whole_network_pricing() {
        // The deployed executor runs one fused kernel per layer; the model
        // with fusion on must price a strictly faster iteration than the
        // unfused chain, on every device preset, with the dropout-scheme
        // speedup ordering intact.
        for gpu in [
            GpuConfig::gtx_1080ti(),
            GpuConfig::server_hbm(),
            GpuConfig::sparse_tensor_core(),
        ] {
            let unfused = NetworkTimingModel::mlp(gpu.clone(), MlpSpec::paper_mlp());
            let fused = unfused.clone().with_fusion(true);
            for scheme in [scheme::bernoulli(rate(0.5)), row(0.5), scheme::none()] {
                let t_unfused = unfused.expected_iteration_time(&*scheme, 64, 13).total_us();
                let t_fused = fused.expected_iteration_time(&*scheme, 64, 13).total_us();
                assert!(
                    t_fused < t_unfused,
                    "{}: fused {t_fused} >= unfused {t_unfused}",
                    gpu.name
                );
            }
            // Fusion does not wash out the compaction win.
            let speedup = fused.speedup(&*scheme::bernoulli(rate(0.5)), &*row(0.5), 64, 13);
            assert!(speedup > 1.0, "{}: fused-model speedup {speedup}", gpu.name);
        }
    }

    #[test]
    fn divergent_skipping_gives_no_speedup() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let speedup = model.speedup(
            &*scheme::bernoulli(rate(0.5)),
            &*scheme::divergent_bernoulli(rate(0.5)),
            SAMPLES,
            4,
        );
        assert!(
            speedup <= 1.05,
            "divergent speedup {speedup} should be ~<= 1"
        );
    }

    #[test]
    fn per_layer_schemes_allow_asymmetric_rates() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let mut baseline: Vec<Box<dyn DropoutScheme>> =
            vec![scheme::bernoulli(rate(0.7)), scheme::bernoulli(rate(0.3))];
        let mut new = vec![row(0.7), row(0.3)];
        let speedup = model.speedup_per_layer(&mut baseline, &mut new, SAMPLES, 5);
        assert!(speedup > 1.0);
    }

    #[test]
    #[should_panic(expected = "one dropout plan per droppable layer")]
    fn plans_must_match_layer_count() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let plan = DropoutPlan::none(LayerShape::new(784, 2048));
        let _ = model.iteration_time_from_plans(&[plan]);
    }

    #[test]
    fn lstm_row_dropout_speedup_is_modest() {
        // Only the inter-layer inputs and the softmax projection shrink, so
        // the LSTM speedup is smaller than the MLP one — as in the paper
        // (Table II vs Fig. 4).
        let model =
            NetworkTimingModel::lstm(GpuConfig::gtx_1080ti(), LstmSpec::paper_dictionary_lstm());
        let speedup = model.speedup(&*scheme::bernoulli(rate(0.7)), &*row(0.7), SAMPLES, 6);
        assert!(speedup > 1.0, "lstm speedup {speedup}");
        assert!(speedup < 2.0, "lstm speedup {speedup} should stay modest");
    }

    #[test]
    fn lstm_crs_degenerates_at_vector_positions_but_prices_real_plans() {
        // The LSTM's droppable positions are vector-shaped (they drop hidden
        // units, exactly like the training side), so a CRS plan resolved
        // there keeps its single inner product — the executor falls back to
        // the dense GEMM and the pricing must agree bit-for-bit: no phantom
        // gather penalty, no phantom speedup.
        let model =
            NetworkTimingModel::lstm(GpuConfig::gtx_1080ti(), LstmSpec::paper_dictionary_lstm());
        let degenerate = model.speedup(&*scheme::none(), &*scheme::crs(0.5).unwrap(), SAMPLES, 6);
        assert!(
            (degenerate - 1.0).abs() < 1e-12,
            "degenerate lstm crs plans must price exactly dense, got {degenerate}"
        );
        // A plan carrying the real inner width (resolved against the
        // hidden-to-gates GEMM shape) prices the input GEMMs through the
        // K-gather kernel and beats dense — while the dense recurrent path
        // keeps the speedup modest.
        let mut crs = scheme::crs(0.5).unwrap();
        let plans: Vec<DropoutPlan> = (0..2)
            .map(|i| {
                crs.plan(
                    &mut StdRng::seed_from_u64(40 + i),
                    LayerShape::new(1500, 1500),
                )
            })
            .collect();
        let dense_plans: Vec<DropoutPlan> = model
            .layer_shapes()
            .into_iter()
            .map(DropoutPlan::none)
            .collect();
        let t_crs = model.iteration_time_from_plans(&plans).total_us();
        let t_dense = model.iteration_time_from_plans(&dense_plans).total_us();
        assert!(
            t_crs < t_dense,
            "explicit crs plans {t_crs} must price below dense {t_dense}"
        );
        assert!(
            t_crs > t_dense / 1.5,
            "crs speedup {} should stay modest (recurrent path is dense)",
            t_dense / t_crs
        );
    }

    #[test]
    fn lstm_speedup_grows_with_batch_size() {
        let gpu = GpuConfig::gtx_1080ti();
        let mut spec_small = LstmSpec::paper_dictionary_lstm();
        spec_small.batch = 20;
        let mut spec_large = spec_small.clone();
        spec_large.batch = 40;
        let baseline = scheme::bernoulli(rate(0.5));
        let s20 = NetworkTimingModel::lstm(gpu.clone(), spec_small).speedup(
            &*baseline,
            &*row(0.5),
            SAMPLES,
            7,
        );
        let s40 =
            NetworkTimingModel::lstm(gpu, spec_large).speedup(&*baseline, &*row(0.5), SAMPLES, 7);
        assert!(
            s40 >= s20 * 0.98,
            "batch 40 speedup {s40} vs batch 20 {s20}"
        );
    }

    #[test]
    fn breakdown_totals_sum_layer_contributions() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let breakdown = model.expected_iteration_time(&*scheme::bernoulli(rate(0.5)), SAMPLES, 8);
        let layer_total: f64 = breakdown.layers.iter().map(|l| l.total_us()).sum();
        assert!((breakdown.total_us() - layer_total).abs() < 1e-6);
        assert!(breakdown.dropout_us > 0.0);
        assert!((breakdown.total_ms() - breakdown.total_us() / 1e3).abs() < 1e-12);
    }

    #[test]
    fn expectations_are_deterministic_for_a_seed() {
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let a = model.expected_iteration_time(&*row(0.5), 64, 9);
        let b = model.expected_iteration_time(&*row(0.5), 64, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn timing_consumes_the_exact_sampled_plan() {
        // A fixed row pattern produces the same plan every iteration, so the
        // per-iteration time equals the expectation and reflects the plan's
        // concrete kept count.
        let model = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        let mut schemes: Vec<Box<dyn DropoutScheme>> = vec![
            Box::new(approx_dropout::RowPattern::new(2, 0).unwrap()),
            Box::new(approx_dropout::RowPattern::new(2, 0).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(10);
        let plans = model.plan_iteration(&mut schemes, &mut rng);
        assert_eq!(
            plans[0].kernel_schedule(),
            KernelSchedule::RowCompact {
                kept: 1024,
                total: 2048
            }
        );
        let single = model.iteration_time_from_plans(&plans);
        let expected = model.expected_iteration_time_per_layer(&mut schemes, 16, 11);
        assert!((single.total_us() - expected.total_us()).abs() < 1e-6);
    }

    #[test]
    fn layer_shapes_match_training_side_shapes() {
        let mlp = NetworkTimingModel::mlp(GpuConfig::gtx_1080ti(), MlpSpec::paper_mlp());
        assert_eq!(
            mlp.layer_shapes(),
            vec![LayerShape::new(784, 2048), LayerShape::new(2048, 2048)]
        );
        let lstm =
            NetworkTimingModel::lstm(GpuConfig::gtx_1080ti(), LstmSpec::paper_dictionary_lstm());
        assert_eq!(
            lstm.layer_shapes(),
            vec![LayerShape::vector(1500), LayerShape::vector(1500)]
        );
    }
}
