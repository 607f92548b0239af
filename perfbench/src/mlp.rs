//! `mlp_train`: one SGD step on each of six replicas of the paper's MLP,
//! one replica per `Linear` execution arm, closed loop with no think time.

use crate::trace::Tracer;
use crate::training::{measure, price, scheme, Planner, Training};
use crate::{derive_seed, stats, Outcome, RunSpec};
use approx_dropout::DropoutPlan;
use data::{MnistConfig, SyntheticMnist};
use gpu_sim::{GpuConfig, MlpSpec, NetworkTimingModel};
use nn::{Linear, Mlp, MlpConfig, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tensor::{Activation, Matrix};

/// One replica per `Linear` execution arm: its label and its scheme.
const ARMS: [&str; 6] = ["bernoulli", "row", "tile", "block16", "nm24", "crs"];
const SCHEMES: [&str; 6] = [
    "bernoulli:0.5",
    "row:0.5:8",
    "tile:0.5:8:32",
    "block:0.5:16",
    "nm:2:4",
    "crs:0.5",
];

/// The paper's MLP scaled to one core: 784 → 256 → 256 → 10, batch 128.
/// At 512 hidden units and batch 64 the six replicas' 48 MB of weights,
/// velocities and gradients lived in the shared L3 cache, and round times
/// moved 22–39% from run to run with the neighbours' load; at 256 (about
/// 20 MB) they move about 10%. The doubled batch keeps rounds near 0.1 s.
const INPUT: usize = 784;
const HIDDEN: usize = 256;
const CLASSES: usize = 10;
const BATCH: usize = 128;
/// Momentum 0.9 made the row and tile replicas diverge on most seeds.
const LEARNING_RATE: f32 = 0.01;
const MOMENTUM: f32 = 0.5;
/// Rounds per second of `--seconds`: the op count is fixed by the
/// arguments, never by the clock, so two runs do identical work.
const ROUNDS_PER_SECOND: f64 = 13.0;
const WARMUP_ROUNDS: usize = 2;
/// Rounds at the end of a traced run whose plans the replays reuse.
const RECORDED_ROUNDS: usize = 8;
/// Timed calls per replayed entry point and layer.
const REPLAY_REPS: usize = 12;

struct Replica {
    arm: &'static str,
    mlp: Mlp,
    planner: Planner,
    /// Executed and dense forward multiply-adds of the dropout layers.
    kept_macs: f64,
    dense_macs: f64,
}

impl Replica {
    fn step(&mut self, x: &Matrix, y: &[usize], planned: bool, op: u64, tr: &mut Tracer) -> f32 {
        if !planned {
            return self.mlp.train_batch(x, y, &mut self.planner.rng).loss;
        }
        let step = tr.enter("mlp_train.replica_step", self.arm, op);
        self.planner.plan_all(tr, self.arm, op);
        let (plans, shapes) = (&self.planner.plans, &self.planner.shapes);
        for (plan, shape) in plans.iter().zip(shapes) {
            let macs = (shape.in_features * shape.out_features) as f64;
            self.kept_macs += macs * plan.kernel_schedule().kept_fraction();
            self.dense_macs += macs;
        }
        let span = tr.enter("nn.train_batch_with_plans", self.arm, op);
        let loss = self.mlp.train_batch_with_plans(x, y, plans).loss;
        tr.exit(span);
        tr.exit(step);
        loss
    }
}

struct Setup {
    replicas: Vec<Replica>,
    ring: Vec<(Matrix, Vec<usize>)>,
    batch_us: Vec<f64>,
}

impl Training for Setup {
    const NAME: &'static str = "mlp_train";
    const REPLICAS: &'static [&'static str] = &ARMS;
    /// Over 4 · ln 10 nats, chance being ln 10.
    const LOSS_CAP: f32 = 10.0;
    const FINAL_BLOCK: usize = 50;
    /// Synthetic-MNIST batches generated at set-up and cycled through.
    const RING: usize = 16;

    fn set_up(seed: u64, planned: bool) -> Self {
        // The class prototypes define the task and stay fixed; the seed
        // draws which noisy samples fill the ring. Pixel noise this high
        // keeps the loss on a plateau set by the data rather than by how
        // far a seed's replicas got, so `final_loss` varies little by seed.
        let data = SyntheticMnist::new(MnistConfig {
            dim: INPUT,
            classes: CLASSES,
            noise: 1.0,
            seed: 7,
        });
        let mut batch_us = Vec::with_capacity(Self::RING);
        let ring = (0..Self::RING as u64)
            .map(|i| {
                let start = Instant::now();
                let batch = data.batch(BATCH, derive_seed(seed, 1000 + i));
                batch_us.push(start.elapsed().as_secs_f64() * 1e6);
                batch
            })
            .collect();
        let replicas = ARMS
            .into_iter()
            .zip(SCHEMES)
            .zip(0u64..)
            .map(|((arm, spec), i)| {
                let dropout = scheme(spec);
                let config = MlpConfig {
                    input_dim: INPUT,
                    hidden: vec![HIDDEN, HIDDEN],
                    output_dim: CLASSES,
                    dropout: dropout.clone(),
                    learning_rate: LEARNING_RATE,
                    momentum: MOMENTUM,
                };
                let mut init = StdRng::seed_from_u64(derive_seed(seed, 100 + i));
                let mlp = Mlp::new(&config, &mut init);
                let shapes = mlp.layer_shapes();
                Replica {
                    arm,
                    planner: Planner::new(
                        shapes.iter().map(|_| dropout.clone()).collect(),
                        shapes,
                        derive_seed(seed, 200 + i),
                    ),
                    mlp,
                    kept_macs: 0.0,
                    dense_macs: 0.0,
                }
            })
            .collect();
        let mut setup = Self {
            replicas,
            ring,
            batch_us,
        };
        let mut quiet = Tracer::disabled();
        for op in 0..WARMUP_ROUNDS {
            setup.op(op, planned, &mut quiet);
        }
        setup
    }

    /// One round: a step on every replica.
    fn op(&mut self, op: usize, planned: bool, tr: &mut Tracer) -> Vec<f32> {
        let (x, y) = &self.ring[op % Self::RING];
        let span = tr.enter("mlp_train.round", "", op as u64);
        let losses = self
            .replicas
            .iter_mut()
            .map(|r| r.step(x, y, planned, op as u64, tr))
            .collect();
        tr.exit(span);
        losses
    }
}

/// Runs `mlp_train`. Traced, it also records the last rounds' plans and
/// replays the layer entry points with them.
pub fn run(spec: &RunSpec, tr: &mut Tracer) -> Outcome {
    let planned = tr.is_enabled();
    let ops = (spec.seconds * ROUNDS_PER_SECOND).round().max(1.0) as usize;
    let mut out = Outcome::default();
    let mut recorded: Vec<Vec<Vec<DropoutPlan>>> = vec![Vec::new(); ARMS.len()];
    let run = measure(spec.seed, ops, tr, &mut out, |s: &Setup, op| {
        if planned && op + RECORDED_ROUNDS >= ops {
            for (r, rec) in s.replicas.iter().zip(&mut recorded) {
                rec.push(r.planner.plans.clone());
            }
        }
    });
    if planned {
        layer_metrics(&mut out, tr, run.first_span, &run.setup, &recorded);
        replay_layers(&mut out, tr, spec.seed, &run.setup.ring[0].0, &recorded);
    }
    out
}

/// Per-arm metrics taken from the traced ops and the recorded plans.
fn layer_metrics(
    out: &mut Outcome,
    tr: &mut Tracer,
    first_span: usize,
    setup: &Setup,
    recorded: &[Vec<Vec<DropoutPlan>>],
) {
    let model = NetworkTimingModel::mlp(
        GpuConfig::gtx_1080ti(),
        MlpSpec {
            batch: BATCH,
            input_dim: INPUT,
            hidden: vec![HIDDEN, HIDDEN],
            output_dim: CLASSES,
        },
    );
    let price_from = tr.spans().len();
    let mut step_ms = Vec::new();
    let mut kept = Vec::new();
    let mut modeled_us = Vec::new();
    for (r, rec) in setup.replicas.iter().zip(recorded) {
        let steps = stats::median(&tr.durations_ms(first_span, "mlp_train.replica_step", r.arm));
        let plan_ms = stats::median(&tr.durations_ms(first_span, "core.plan_into", r.arm));
        out.layers.set(format!("nn.step_ms.{}", r.arm), steps, "ms");
        out.layers
            .set(format!("core.plan_us.{}", r.arm), plan_ms * 1e3, "us");
        let frac = r.kept_macs / r.dense_macs;
        out.layers
            .set(format!("tensor.kept_flop_frac.{}", r.arm), frac, "ratio");
        step_ms.push(steps);
        kept.push(frac);
        modeled_us.push(price(tr, &model, r.arm, rec));
    }
    let price_ms: Vec<f64> = ARMS
        .iter()
        .flat_map(|arm| tr.durations_ms(price_from, "gpu_sim.iteration_time_from_plans", arm))
        .collect();
    out.layers
        .set("gpu_sim.price_us", stats::median(&price_ms) * 1e3, "us");
    for (i, arm) in ARMS.into_iter().enumerate().skip(1) {
        let speedup = step_ms[0] / step_ms[i];
        out.layers.set(format!("nn.speedup.{arm}"), speedup, "x");
        // The kept work alone would allow a speedup of kept[0] / kept[i].
        out.layers.set(
            format!("nn.work_eff.{arm}"),
            speedup * kept[i] / kept[0],
            "ratio",
        );
        out.layers.set(
            format!("gpu_sim.speedup.{arm}"),
            modeled_us[0] / modeled_us[i],
            "x",
        );
    }
    out.layers
        .set("data.mnist_batch_us", stats::median(&setup.batch_us), "us");
}

/// Replays `Linear::forward_act_into`, `Linear::backward_into` and
/// `Linear::step` for every arm at the hidden layers' exact shapes with the
/// plans the traced ops ran. Every forward call is one fused kernel of the
/// arm's `tensor` family, so its kept multiply-adds over its time is the
/// kernel's kept-FLOP rate.
fn replay_layers(
    out: &mut Outcome,
    tr: &mut Tracer,
    seed: u64,
    images: &Matrix,
    recorded: &[Vec<Vec<DropoutPlan>>],
) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 300));
    // Post-ReLU-like activations feeding the second hidden layer.
    let activations = tensor::init::uniform(&mut rng, BATCH, HIDDEN, 0.0, 1.0);
    let grad = Matrix::filled(BATCH, HIDDEN, 1e-3);
    let sgd = Sgd::new(LEARNING_RATE, MOMENTUM);
    let from = tr.spans().len();
    for (arm, rec) in ARMS.into_iter().zip(recorded) {
        let (mut fwd_us, mut bwd_us, mut kept_flops, mut fwd_s) = (0.0, 0.0, 0.0, 0.0);
        for (l, input) in [images, &activations].into_iter().enumerate() {
            let mut linear = Linear::new(&mut rng, input.cols(), HIDDEN);
            let (mut act, mut dx) = (Matrix::default(), Matrix::default());
            let layer_from = tr.spans().len();
            // Rep 0 warms the layer's workspaces and is not traced.
            for rep in 0..=REPLAY_REPS {
                let plan = &rec[rep % rec.len()][l];
                let mut quiet = Tracer::disabled();
                let t = if rep == 0 { &mut quiet } else { &mut *tr };
                let span = t.enter("nn.forward_act_into", arm, rep as u64);
                linear.forward_act_into(input, plan, Activation::Relu, &mut act);
                t.exit(span);
                let span = t.enter("nn.backward_into", arm, rep as u64);
                linear.backward_into(&grad, &mut dx);
                t.exit(span);
                let span = t.enter("nn.linear_step", arm, rep as u64);
                linear.step(&sgd);
                t.exit(span);
                if rep > 0 {
                    let macs = (input.rows() * input.cols() * HIDDEN) as f64;
                    kept_flops += 2.0 * macs * plan.kernel_schedule().kept_fraction();
                }
            }
            let fwd = tr.durations_ms(layer_from, "nn.forward_act_into", arm);
            fwd_s += fwd.iter().sum::<f64>() / 1e3;
            fwd_us += stats::median(&fwd) * 1e3;
            bwd_us += stats::median(&tr.durations_ms(layer_from, "nn.backward_into", arm)) * 1e3;
        }
        out.layers.set(format!("nn.fwd_us.{arm}"), fwd_us, "us");
        out.layers.set(format!("nn.bwd_us.{arm}"), bwd_us, "us");
        out.layers.set(
            format!("tensor.fwd_gflops.{arm}"),
            kept_flops / fwd_s / 1e9,
            "GFLOP/s",
        );
    }
    // The SGD update is dense whatever the arm: one figure for both layers.
    let step_ms: Vec<f64> = ARMS
        .iter()
        .flat_map(|arm| tr.durations_ms(from, "nn.linear_step", arm))
        .collect();
    out.layers
        .set("nn.linear_step_us", stats::median(&step_ms) * 2e3, "us");
}
