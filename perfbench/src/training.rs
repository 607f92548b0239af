//! The closed loop the two training workloads share: repeated
//! set-ups, a fixed number of timed ops, loss checks, a determinism check
//! and the end-to-end metrics.

use crate::trace::Tracer;
use crate::{host, latency_tail, setup_metric, stats, Outcome, SETUPS};
use approx_dropout::{DropoutPlan, DropoutScheme, LayerShape, SchemeSpec};
use gpu_sim::NetworkTimingModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Builds a scheme from its spec text.
///
/// # Panics
///
/// Panics on a spec the benchmark hard-codes wrongly.
pub fn scheme(spec: &str) -> Box<dyn DropoutScheme> {
    spec.parse::<SchemeSpec>()
        .map_err(|e| format!("{e:?}"))
        .and_then(|s| s.build().map_err(|e| format!("{e:?}")))
        .unwrap_or_else(|e| panic!("scheme {spec}: {e}"))
}

/// A replica's plan source. Untraced, the model's `train_batch` samples its
/// plans from `rng`; traced, [`Planner::plan_all`] plans with clones of the
/// schemes the model's dropout sites own, in the order `train_batch` plans
/// them, so `train_batch_with_plans` runs exactly the plans `train_batch`
/// would have sampled.
pub struct Planner {
    schemes: Vec<Box<dyn DropoutScheme>>,
    pub shapes: Vec<LayerShape>,
    pub plans: Vec<DropoutPlan>,
    pub rng: StdRng,
}

impl Planner {
    /// `schemes[i]` plans the dropout site of shape `shapes[i]`.
    pub fn new(schemes: Vec<Box<dyn DropoutScheme>>, shapes: Vec<LayerShape>, seed: u64) -> Self {
        assert_eq!(schemes.len(), shapes.len(), "one scheme per dropout site");
        Self {
            schemes,
            plans: vec![DropoutPlan::default(); shapes.len()],
            shapes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Plans every dropout site, each `plan_into` call traced under `tag`.
    pub fn plan_all(&mut self, tr: &mut Tracer, tag: &'static str, op: u64) -> &[DropoutPlan] {
        let sites = self
            .schemes
            .iter_mut()
            .zip(&self.shapes)
            .zip(&mut self.plans);
        for ((scheme, &shape), plan) in sites {
            let span = tr.enter("core.plan_into", tag, op);
            scheme.plan_into(&mut self.rng, shape, plan);
            tr.exit(span);
        }
        &self.plans
    }
}

/// Mean modeled iteration time (µs) of `plans` on the timing model, each
/// pricing call traced under `tag`.
pub fn price(
    tr: &mut Tracer,
    model: &NetworkTimingModel,
    tag: &'static str,
    plans: &[Vec<DropoutPlan>],
) -> f64 {
    let mut total = 0.0;
    for (op, p) in plans.iter().enumerate() {
        let span = tr.enter("gpu_sim.iteration_time_from_plans", tag, op as u64);
        total += model.iteration_time_from_plans(p).total_us();
        tr.exit(span);
    }
    total / plans.len().max(1) as f64
}

/// A training workload as [`measure`] runs it.
pub trait Training: Sized {
    /// Workload name, for messages.
    const NAME: &'static str;
    /// One label per replica, in the order `op` reports losses.
    const REPLICAS: &'static [&'static str];
    /// A loss above this counts as exploding.
    const LOSS_CAP: f32;
    /// Ops at the end of a run whose mean loss is `final_loss`.
    const FINAL_BLOCK: usize;
    /// Input batches generated at set-up; op `i` trains on batch `i % RING`.
    const RING: usize;

    /// Builds replicas and inputs from `seed` and runs the warm-up ops
    /// along the path `planned` selects.
    fn set_up(seed: u64, planned: bool) -> Self;

    /// Runs op `op` and returns one loss per replica. `planned` selects the
    /// traced path: `plan_into` on the bench's own scheme clones, then
    /// `train_batch_with_plans`; otherwise `train_batch` samples the plans.
    fn op(&mut self, op: usize, planned: bool, tr: &mut Tracer) -> Vec<f32>;
}

/// What [`measure`] leaves for the traced run's per-layer metrics.
pub struct Measured<S> {
    pub setup: S,
    /// Index of the first span the timed ops recorded.
    pub first_span: usize,
}

/// Sets `S` up [`SETUPS`] times (one at a time, so each starts from the
/// same memory state), times `ops` ops on the last set-up, checks every
/// loss and fills the end-to-end metrics. `after_op` sees the set-up after
/// each op.
///
/// Then it replays the first `RING + 1` ops on a fresh set-up and checks
/// that their losses repeat bit for bit: every ring batch once, and the op
/// that wraps back to batch 0 with trained weights. The whole run's
/// `final_loss` is compared bit for bit only by the traced command, which
/// runs the workload twice.
pub fn measure<S: Training>(
    seed: u64,
    ops: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
    mut after_op: impl FnMut(&S, usize),
) -> Measured<S> {
    let planned = tr.is_enabled();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let start = Instant::now();
        setup = Some(S::set_up(seed, planned));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    let first_span = tr.spans().len();

    let mut op_ms = Vec::with_capacity(ops);
    let mut losses = Vec::with_capacity(ops);
    let wall = Instant::now();
    for op in 0..ops {
        let start = Instant::now();
        losses.push(setup.op(op, planned, tr));
        op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        after_op(&setup, op);
    }
    let measured_s = wall.elapsed().as_secs_f64();

    let final_loss = check_losses(
        out,
        S::NAME,
        S::REPLICAS,
        &losses,
        S::LOSS_CAP,
        S::FINAL_BLOCK,
    );
    // Read before the check's set-up exists beside the timed one.
    out.e2e.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    let mut again = S::set_up(seed, planned);
    let mut quiet = Tracer::disabled();
    for (op, expect) in losses.iter().enumerate().take(S::RING + 1) {
        let got = again.op(op, planned, &mut quiet);
        if got
            .iter()
            .map(|l| l.to_bits())
            .ne(expect.iter().map(|l| l.to_bits()))
        {
            out.fail(format!(
                "{} op {op} did not repeat: {got:?} vs {expect:?}",
                S::NAME
            ));
        }
    }
    drop(again);

    let sorted = stats::sorted(&op_ms);
    setup_metric(out, &setup_s);
    out.e2e
        .set("throughput_per_s", ops as f64 / measured_s, "1/s");
    out.e2e
        .set("latency_p50_ms", stats::percentile(&sorted, 500), "ms");
    latency_tail(out, &sorted, "op");
    out.e2e.set("final_loss", final_loss, "nats");
    Measured { setup, first_span }
}

/// Counts one attempted op per row of `losses` (one loss per replica,
/// named by `labels`) and fails every op with a loss that is not finite or
/// exceeds `cap`. Returns `final_loss`: the mean over the last
/// `final_block` ops, summed in a fixed order so it repeats bit for bit.
fn check_losses(
    out: &mut Outcome,
    workload: &str,
    labels: &[&str],
    losses: &[Vec<f32>],
    cap: f32,
    final_block: usize,
) -> f64 {
    let mut worst = (0.0f32, 0, "");
    for (op, row) in losses.iter().enumerate() {
        out.attempted += 1;
        out.nonfinite += row.iter().filter(|l| !l.is_finite()).count() as u64;
        let bad: Vec<String> = row
            .iter()
            .zip(labels)
            .filter(|(l, _)| !l.is_finite() || **l > cap)
            .map(|(l, label)| format!("{label}={l}"))
            .collect();
        if !bad.is_empty() {
            out.fail(format!(
                "{workload} op {op}: loss out of bounds: {}",
                bad.join(" ")
            ));
        }
        for (&l, &label) in row.iter().zip(labels) {
            if l > worst.0 {
                worst = (l, op, label);
            }
        }
    }
    out.notes.push(format!(
        "highest loss {} nats ({} at op {}), cap {cap}",
        worst.0, worst.2, worst.1
    ));
    let block = &losses[losses.len().saturating_sub(final_block)..];
    let sum: f64 = block.iter().flatten().map(|&l| f64::from(l)).sum();
    sum / block.iter().map(Vec::len).sum::<usize>().max(1) as f64
}
