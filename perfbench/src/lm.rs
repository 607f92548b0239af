//! `lm_train`: per op, one LSTM language-model step and one transformer
//! language-model step on synthetic-PTB batches, closed loop.

use crate::trace::Tracer;
use crate::training::{measure, price, scheme, Planner, Training};
use crate::{derive_seed, stats, Outcome, RunSpec};
use data::{CorpusConfig, SyntheticCorpus};
use gpu_sim::{GpuConfig, NetworkTimingModel, TransformerSpec};
use nn::lstm::{LstmCell, LstmLm, LstmLmConfig};
use nn::{softmax_cross_entropy_into, CrossEntropyScratch, TransformerLm, TransformerLmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::Matrix;

const VOCAB: usize = 1000;
/// LSTM LM: hidden 96, 2 layers, seq 20, batch 16, row dropout.
const LSTM_HIDDEN: usize = 96;
const LSTM_LAYERS: usize = 2;
const LSTM_SEQ: usize = 20;
const LSTM_BATCH: usize = 16;
const LSTM_SCHEME: &str = "row:0.5:8";
/// A fifth of the scaled-LSTM default of 0.5: at 0.5 and 0.25 row dropout
/// made this model's loss spike past twice the chance level on some seeds.
const LSTM_LEARNING_RATE: f32 = 0.1;
/// Transformer LM: d 64, 4 heads of 16, FFN 128, 2 blocks, seq 24, batch
/// 32, whole-head attention dropout and no FFN dropout.
const TF_DIM: usize = 64;
const TF_HEADS: usize = 4;
const TF_FF: usize = 128;
const TF_LAYERS: usize = 2;
const TF_SEQ: usize = 24;
const TF_BATCH: usize = 32;
const TF_ATTN: &str = "transformer:0.25:16";
/// Attention scheme of the replay `nn.speedup.tf_headdrop` compares against.
const TF_BERNOULLI_ATTN: &str = "bernoulli:0.25";
const TF_LEARNING_RATE: f32 = 0.05;
const GRAD_CLIP: f32 = 5.0;
/// Ops per second of `--seconds` (fixed op count, see `mlp_train`).
const OPS_PER_SECOND: f64 = 8.0;
const WARMUP_OPS: usize = 2;
/// Interleaved head-drop / Bernoulli-attention replay steps.
const REPLAY_STEPS: usize = 10;
const REPLAY_REPS: usize = 12;

enum Net {
    Lstm(LstmLm),
    Transformer(TransformerLm),
}

struct Replica {
    tag: &'static str,
    net: Net,
    planner: Planner,
}

impl Replica {
    fn lstm(seed: u64) -> Self {
        let dropout = scheme(LSTM_SCHEME);
        let config = LstmLmConfig {
            vocab: VOCAB,
            embed_dim: LSTM_HIDDEN,
            hidden: LSTM_HIDDEN,
            layers: LSTM_LAYERS,
            dropout: dropout.clone(),
            learning_rate: LSTM_LEARNING_RATE,
            momentum: 0.0,
            grad_clip: GRAD_CLIP,
        };
        let lm = LstmLm::new(&config, &mut StdRng::seed_from_u64(derive_seed(seed, 110)));
        let shapes = lm.layer_shapes();
        Self {
            tag: "lstm",
            planner: Planner::new(
                shapes.iter().map(|_| dropout.clone()).collect(),
                shapes,
                derive_seed(seed, 210),
            ),
            net: Net::Lstm(lm),
        }
    }

    fn transformer(seed: u64, tag: &'static str, attn: &str) -> Self {
        let (attn, ffn) = (scheme(attn), scheme("none"));
        let config = TransformerLmConfig {
            vocab: VOCAB,
            model_dim: TF_DIM,
            heads: TF_HEADS,
            ff_dim: TF_FF,
            layers: TF_LAYERS,
            attn_dropout: attn.clone(),
            ffn_dropout: ffn.clone(),
            learning_rate: TF_LEARNING_RATE,
            momentum: 0.0,
            grad_clip: GRAD_CLIP,
        };
        let lm = TransformerLm::new(&config, &mut StdRng::seed_from_u64(derive_seed(seed, 111)));
        // Each block's attention site, then its FFN site.
        let schemes = (0..TF_LAYERS)
            .flat_map(|_| [attn.clone(), ffn.clone()])
            .collect();
        Self {
            tag,
            planner: Planner::new(schemes, lm.layer_shapes(), derive_seed(seed, 211)),
            net: Net::Transformer(lm),
        }
    }

    /// One SGD step; `planned` selects `plan_into` + `train_batch_with_plans`.
    fn step(&mut self, tokens: &[Vec<usize>], planned: bool, op: u64, tr: &mut Tracer) -> f32 {
        if !planned {
            let rng = &mut self.planner.rng;
            return match &mut self.net {
                Net::Lstm(lm) => lm.train_batch(tokens, rng).loss,
                Net::Transformer(lm) => lm.train_batch(tokens, rng).loss,
            };
        }
        let step = tr.enter("lm_train.replica_step", self.tag, op);
        let plans = self.planner.plan_all(tr, self.tag, op);
        let span = tr.enter("nn.train_batch_with_plans", self.tag, op);
        let loss = match &mut self.net {
            Net::Lstm(lm) => lm.train_batch_with_plans(tokens, plans).loss,
            Net::Transformer(lm) => lm.train_batch_with_plans(tokens, plans).loss,
        };
        tr.exit(span);
        tr.exit(step);
        loss
    }
}

struct Setup {
    lstm: Replica,
    transformer: Replica,
    lstm_ring: Vec<Vec<Vec<usize>>>,
    tf_ring: Vec<Vec<Vec<usize>>>,
    batch_us: Vec<f64>,
}

impl Training for Setup {
    const NAME: &'static str = "lm_train";
    const REPLICAS: &'static [&'static str] = &["lstm", "tf_headdrop"];
    /// Twice the chance level, ln 1000 nats.
    const LOSS_CAP: f32 = 13.8;
    const FINAL_BLOCK: usize = 40;
    /// Corpus batches generated at set-up, per model, cycled through.
    const RING: usize = 16;

    fn set_up(seed: u64, planned: bool) -> Self {
        // The corpus's word statistics define the task and stay fixed; the
        // seed draws which sequences fill the rings (see `mlp_train`).
        let corpus = SyntheticCorpus::new(CorpusConfig {
            vocab: VOCAB,
            ..CorpusConfig::default()
        });
        let mut batch_us = Vec::with_capacity(2 * Self::RING);
        let mut ring = |batch, seq, stream: u64| -> Vec<Vec<Vec<usize>>> {
            (0..Self::RING as u64)
                .map(|i| {
                    let start = Instant::now();
                    let b = corpus.batch(batch, seq, derive_seed(seed, stream + i));
                    batch_us.push(start.elapsed().as_secs_f64() * 1e6);
                    b
                })
                .collect()
        };
        let lstm_ring = ring(LSTM_BATCH, LSTM_SEQ, 1000);
        let tf_ring = ring(TF_BATCH, TF_SEQ, 2000);
        let mut setup = Self {
            lstm: Replica::lstm(seed),
            transformer: Replica::transformer(seed, "tf_headdrop", TF_ATTN),
            lstm_ring,
            tf_ring,
            batch_us,
        };
        let mut quiet = Tracer::disabled();
        for op in 0..WARMUP_OPS {
            setup.op(op, planned, &mut quiet);
        }
        setup
    }

    /// One op: an LSTM step and a transformer step.
    fn op(&mut self, op: usize, planned: bool, tr: &mut Tracer) -> Vec<f32> {
        let span = tr.enter("lm_train.op", "", op as u64);
        let a = self
            .lstm
            .step(&self.lstm_ring[op % Self::RING], planned, op as u64, tr);
        let b = self
            .transformer
            .step(&self.tf_ring[op % Self::RING], planned, op as u64, tr);
        tr.exit(span);
        vec![a, b]
    }
}

/// Runs `lm_train`. Traced, it also replays head-drop against Bernoulli
/// attention and the LSTM cell and loss entry points.
pub fn run(spec: &RunSpec, tr: &mut Tracer) -> Outcome {
    let planned = tr.is_enabled();
    let ops = (spec.seconds * OPS_PER_SECOND).round().max(1.0) as usize;
    let mut out = Outcome::default();
    let run = measure(spec.seed, ops, tr, &mut out, |_: &Setup, _| {});
    if planned {
        for tag in Setup::REPLICAS {
            let step = tr.durations_ms(run.first_span, "lm_train.replica_step", tag);
            let plan = tr.durations_ms(run.first_span, "core.plan_into", tag);
            out.layers
                .set(format!("nn.step_ms.{tag}"), stats::median(&step), "ms");
            out.layers.set(
                format!("core.plan_us.{tag}"),
                stats::median(&plan) * 1e3,
                "us",
            );
        }
        out.layers.set(
            "data.corpus_batch_us",
            stats::median(&run.setup.batch_us),
            "us",
        );
        replay_headdrop(&mut out, tr, spec.seed, &run.setup.tf_ring);
        replay_kernels(&mut out, tr, spec.seed, &run.setup.lstm_ring);
    }
    out
}

/// Interleaves transformer steps with whole-head attention dropout and with
/// Bernoulli attention dropout at the same rate from the same seed, and
/// compares the two both as measured and as priced on the timing model
/// from the plans each step ran.
fn replay_headdrop(out: &mut Outcome, tr: &mut Tracer, seed: u64, ring: &[Vec<Vec<usize>>]) {
    let from = tr.spans().len();
    let mut head = Replica::transformer(seed, "tf_headdrop_replay", TF_ATTN);
    let mut bern = Replica::transformer(seed, "tf_bernoulli_replay", TF_BERNOULLI_ATTN);
    let (mut head_plans, mut bern_plans) = (Vec::new(), Vec::new());
    let mut quiet = Tracer::disabled();
    for i in 0..=REPLAY_STEPS {
        // Step 0 warms both replicas' workspaces and is not traced.
        let t = if i == 0 { &mut quiet } else { &mut *tr };
        let tokens = &ring[i % ring.len()];
        for (r, plans) in [(&mut head, &mut head_plans), (&mut bern, &mut bern_plans)] {
            let loss = r.step(tokens, true, i as u64, t);
            out.attempted += 1;
            if !loss.is_finite() || loss > Setup::LOSS_CAP {
                out.nonfinite += u64::from(!loss.is_finite());
                out.fail(format!("{} replay step {i}: loss {loss}", r.tag));
            }
            plans.push(r.planner.plans.clone());
        }
    }
    let head_ms = stats::median(&tr.durations_ms(from, "lm_train.replica_step", head.tag));
    let bern_ms = stats::median(&tr.durations_ms(from, "lm_train.replica_step", bern.tag));
    out.layers
        .set("nn.speedup.tf_headdrop", bern_ms / head_ms, "x");
    let model = NetworkTimingModel::transformer(
        GpuConfig::gtx_1080ti(),
        TransformerSpec {
            batch: TF_BATCH,
            model_dim: TF_DIM,
            heads: TF_HEADS,
            ff_dim: TF_FF,
            layers: TF_LAYERS,
            seq_len: TF_SEQ,
            vocab: VOCAB,
        },
    );
    let head_us = price(tr, &model, head.tag, &head_plans);
    let bern_us = price(tr, &model, bern.tag, &bern_plans);
    out.layers
        .set("gpu_sim.speedup.tf_headdrop", bern_us / head_us, "x");
}

/// Replays `LstmCell::forward_sequence_into` / `backward_sequence_into` and
/// `softmax_cross_entropy_into` at the LSTM LM's exact shapes.
fn replay_kernels(out: &mut Outcome, tr: &mut Tracer, seed: u64, ring: &[Vec<Vec<usize>>]) {
    let from = tr.spans().len();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 310));
    let mut cell = LstmCell::new(&mut rng, LSTM_HIDDEN, LSTM_HIDDEN);
    let inputs: Vec<Matrix> = (0..LSTM_SEQ)
        .map(|_| tensor::init::uniform(&mut rng, LSTM_BATCH, LSTM_HIDDEN, -0.5, 0.5))
        .collect();
    let grads = vec![Matrix::filled(LSTM_BATCH, LSTM_HIDDEN, 1e-3); LSTM_SEQ];
    let (mut hidden, mut dx) = (Vec::new(), Vec::new());
    let logits = tensor::init::gaussian(&mut rng, LSTM_SEQ * LSTM_BATCH, VOCAB, 0.0, 1.0);
    // Next-token targets of the first ring batch, time-major like the model.
    let targets: Vec<usize> = (1..=LSTM_SEQ)
        .flat_map(|t| ring[0].iter().map(move |seq| seq[t]))
        .collect();
    let mut scratch = CrossEntropyScratch::default();
    let mut quiet = Tracer::disabled();
    for rep in 0..=REPLAY_REPS {
        let t = if rep == 0 { &mut quiet } else { &mut *tr };
        let span = t.enter("nn.lstm_forward_sequence_into", "lstm", rep as u64);
        cell.forward_sequence_into(&inputs, &mut hidden);
        t.exit(span);
        let span = t.enter("nn.lstm_backward_sequence_into", "lstm", rep as u64);
        cell.backward_sequence_into(&grads, &mut dx);
        t.exit(span);
        let span = t.enter("nn.softmax_cross_entropy_into", "lstm", rep as u64);
        let loss = softmax_cross_entropy_into(&logits, &targets, &mut scratch);
        t.exit(span);
        std::hint::black_box(loss);
    }
    let median = |name| stats::median(&tr.durations_ms(from, name, "lstm"));
    out.layers.set(
        "nn.lstm_cell.fwd_ms",
        median("nn.lstm_forward_sequence_into"),
        "ms",
    );
    out.layers.set(
        "nn.lstm_cell.bwd_ms",
        median("nn.lstm_backward_sequence_into"),
        "ms",
    );
    out.layers.set(
        "nn.xent_us",
        median("nn.softmax_cross_entropy_into") * 1e3,
        "us",
    );
}
