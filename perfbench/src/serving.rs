//! `serve_mixed`: one `Server` with one worker, adaptive batching, a bounded
//! queue and the plan cache on, serving a three-model catalog (two MLPs and
//! an LSTM LM). Four closed-loop Batch tenants keep two Train jobs each
//! outstanding; Interactive Infer jobs arrive open loop on a seeded Poisson
//! schedule. One generator thread drives both.

use crate::stats::{self, latency_from_due};
use crate::trace::Tracer;
use crate::{derive_seed, host, latency_tail, setup_metric, Outcome, RunSpec, SETUPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{
    AdmissionError, BatchPolicy, Client, JobKind, JobReply, JobResult, JobSpec, ModelSpec,
    QosClass, SchemeSpec, ServeConfig, Server,
};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Closed-loop training tenants and the Train jobs each keeps in flight.
const TENANTS: u64 = 4;
const WINDOW: usize = 2;
/// Mean Interactive arrival rate, jobs per second.
const INTERACTIVE_RATE: f64 = 200.0;
const INTERACTIVE_TENANT: u64 = 9;
/// Jobs a shard may queue; far above what the loops keep in flight, so
/// nothing is ever shed or rejected in a healthy run.
const QUEUE_BOUND: usize = 64;
const EPOCH_ROUNDS: u64 = 8;
/// Train jobs generated per tenant; a tenant cycles through its trace.
const TRACE_LEN: usize = 4096;
/// Closed-loop Train jobs each set-up runs and waits for after its per-key
/// warm-up. Start-up and the per-key warm-up alone take about 6 ms, mostly
/// thread start and replica builds, so the median of 15 back-to-back
/// set-ups caught the host's speed at one instant: its interquartile range
/// over ten runs was 0.30 of the median. With these jobs a set-up is about
/// 65 ms of serving work and, in runs alternated with the short set-up,
/// that range fell to 0.10.
const SETUP_JOBS: usize = 200;
/// Train jobs answered before the window opens. Per-dispatch cost grows by
/// about a third over the first ~16 000 jobs as the replicas train, then
/// holds; measuring after it keeps runs of different lengths comparable.
const SETTLE_JOBS: usize = 16_000;
/// Last Train replies whose per-model mean losses make `final_loss`.
const FINAL_BLOCK: usize = 300;
/// Generator poll interval while it drains replies after the window.
const POLL: Duration = Duration::from_micros(100);
/// How long after the window the generator waits for outstanding replies.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The catalog: a row-pattern MLP, an N:M MLP and a small row-dropout LSTM
/// language model, so dispatches mix three `LayerShape` families.
fn catalog() -> Vec<ModelSpec> {
    vec![
        ModelSpec::mlp(
            "mlp-row",
            64,
            vec![256, 256],
            10,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 8,
            },
        ),
        ModelSpec::mlp(
            "mlp-nm",
            48,
            vec![128, 128],
            10,
            SchemeSpec::Nm { n: 2, m: 4 },
        ),
        ModelSpec::lstm(
            "lstm-row",
            64,
            32,
            2,
            8,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        ),
    ]
}

/// A job spec drawn for one of the catalog models: LSTM rows are whole
/// sequences, so they are kept smaller than MLP rows.
fn job(rng: &mut StdRng, tenant: u64, seed: u64, kind: JobKind, qos: QosClass) -> JobSpec {
    let model = rng.gen_range(0..3usize);
    let rows = match (model, kind) {
        (2, _) => rng.gen_range(1..3usize),
        (_, JobKind::Train) => rng.gen_range(2..9usize),
        (_, JobKind::Infer) => rng.gen_range(1..5usize),
    };
    JobSpec {
        tenant,
        model,
        rows,
        seed,
        kind,
        qos,
    }
}

struct Setup {
    server: Server,
    /// Per tenant, the Train jobs it submits in order.
    traces: Vec<Vec<JobSpec>>,
    /// Interactive jobs with their due offsets from the window start.
    schedule: Vec<(Duration, JobSpec)>,
}

fn setup(seed: u64, seconds: f64, out: &mut Outcome) -> Setup {
    let config = ServeConfig::builder()
        .workers(1)
        .policy(BatchPolicy::adaptive_default())
        .plan_cache(true)
        .queue_bound(QUEUE_BOUND)
        .epoch_rounds(EPOCH_ROUNDS)
        .init_seed(derive_seed(seed, 3))
        .build()
        .expect("the serve_mixed configuration is valid");
    let traces: Vec<Vec<JobSpec>> = (0..TENANTS)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 400 + t));
            (0..TRACE_LEN as u64)
                .map(|i| {
                    let job_seed = derive_seed(seed, (t << 32) | i);
                    job(&mut rng, t, job_seed, JobKind::Train, QosClass::Batch)
                })
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 500));
    let mut schedule = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / INTERACTIVE_RATE;
        if at >= seconds {
            break;
        }
        let job_seed = derive_seed(seed, (INTERACTIVE_TENANT << 32) | schedule.len() as u64);
        let spec = job(
            &mut rng,
            INTERACTIVE_TENANT,
            job_seed,
            JobKind::Infer,
            QosClass::Interactive,
        );
        schedule.push((Duration::from_secs_f64(at), spec));
    }
    let server = Server::start(config, catalog());
    // Warm-up: every model and kind once, so replicas exist, plans are
    // cached and the batcher has seen each key before the window opens.
    let client = server.client();
    for model in 0..3 {
        for kind in [JobKind::Train, JobKind::Infer] {
            let spec = JobSpec {
                tenant: INTERACTIVE_TENANT + 1,
                model,
                rows: 2,
                seed: derive_seed(seed, 600 + model as u64),
                kind,
                qos: QosClass::Batch,
            };
            let reply = client.submit(spec).map(|rx| rx.recv());
            if !matches!(reply, Ok(Ok(Ok(r))) if r.value.is_finite()) {
                out.fail(format!(
                    "warm-up {kind:?} job on model {model} failed: {reply:?}"
                ));
            }
        }
    }
    let mut tenants = Tenants::new(client, &traces);
    tenants.start(out);
    tenants.closed_loop(SETUP_JOBS, out);
    tenants.drain(out);
    Setup {
        server,
        traces,
        schedule,
    }
}

/// A submitted job waiting for its reply.
struct Pending {
    rx: Receiver<JobReply>,
    op: u64,
    model: usize,
    /// Due offset from the window start (Interactive jobs; 0 for Train).
    due: Duration,
    submit_start: Instant,
    submit_end: Instant,
}

/// Everything the generator loop collects.
#[derive(Default)]
struct Tally {
    train_done_in_window: u64,
    /// (model, loss) of Train replies in completion order.
    train_losses: Vec<(usize, f32)>,
    interactive_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    gen_lag_ms: f64,
}

/// Submits `spec`, recording when the call started and returned.
fn submit(
    client: &Client,
    spec: JobSpec,
    op: u64,
    due: Duration,
    out: &mut Outcome,
) -> Option<Pending> {
    out.attempted += 1;
    let submit_start = Instant::now();
    let result = client.submit(spec);
    let submit_end = Instant::now();
    match result {
        Ok(rx) => Some(Pending {
            rx,
            op,
            model: spec.model,
            due,
            submit_start,
            submit_end,
        }),
        Err(e) => {
            out.fail(format!("{:?} job {op} refused at submit: {e}", spec.qos));
            None
        }
    }
}

/// Checks a reply; `Some` for a finite answer, otherwise a failed op.
fn answer(
    reply: Result<JobReply, TryRecvError>,
    p: &Pending,
    class: &'static str,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Option<JobResult> {
    let result = match reply {
        Ok(Ok(r)) if r.value.is_finite() => r,
        Ok(Ok(r)) => {
            out.nonfinite += 1;
            out.fail(format!(
                "{class} job {} answered a non-finite value {}",
                p.op, r.value
            ));
            return None;
        }
        Ok(Err(AdmissionError::Shed { by })) => {
            out.fail(format!("{class} job {} was shed by {by:?}", p.op));
            return None;
        }
        Ok(Err(e)) => {
            out.fail(format!("{class} job {} failed: {e}", p.op));
            return None;
        }
        Err(_) => {
            out.fail(format!("{class} job {} was never answered", p.op));
            return None;
        }
    };
    let job = tr.record(
        "serve.job",
        class,
        p.op,
        None,
        p.submit_start,
        Instant::now(),
    );
    tr.record(
        "serve.submit",
        class,
        p.op,
        Some(job),
        p.submit_start,
        p.submit_end,
    );
    Some(result)
}

/// The closed-loop tenants: each keeps `WINDOW` Train jobs in flight and
/// sends its next job as soon as one is answered.
struct Tenants<'a> {
    client: Client,
    traces: &'a [Vec<JobSpec>],
    cursors: Vec<usize>,
    queues: Vec<VecDeque<Pending>>,
    /// Op id of the last job submitted by anyone.
    next_op: u64,
}

impl<'a> Tenants<'a> {
    fn new(client: Client, traces: &'a [Vec<JobSpec>]) -> Self {
        Self {
            client,
            traces,
            cursors: vec![0; traces.len()],
            queues: traces.iter().map(|_| VecDeque::new()).collect(),
            next_op: 0,
        }
    }

    fn feed(&mut self, t: usize, out: &mut Outcome) {
        let spec = self.traces[t][self.cursors[t] % TRACE_LEN];
        self.cursors[t] += 1;
        self.next_op += 1;
        let pending = submit(&self.client, spec, self.next_op, Duration::ZERO, out);
        self.queues[t].extend(pending);
    }

    fn start(&mut self, out: &mut Outcome) {
        for t in 0..self.queues.len() {
            for _ in 0..WINDOW {
                self.feed(t, out);
            }
        }
    }

    /// Collects every answered Train job into `tally`, counting those
    /// answered by `window_end`, and resubmits while `resubmit`.
    fn poll(
        &mut self,
        resubmit: bool,
        window_end: Option<Instant>,
        tally: &mut Tally,
        out: &mut Outcome,
        tr: &mut Tracer,
    ) {
        for t in 0..self.queues.len() {
            while let Some(front) = self.queues[t].front() {
                let reply = match front.rx.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    other => other,
                };
                let p = self.queues[t].pop_front().expect("front exists");
                if let Some(r) = answer(reply, &p, "train", out, tr) {
                    tally.train_losses.push((p.model, r.value));
                    tally.exec_ms.push(r.exec.as_secs_f64() * 1e3);
                    if window_end.is_some_and(|end| Instant::now() <= end) {
                        tally.train_done_in_window += 1;
                    }
                }
                if resubmit {
                    self.feed(t, out);
                }
            }
        }
    }

    /// Runs the closed loop alone, untimed and untraced, until `jobs` Train
    /// jobs have been answered.
    fn closed_loop(&mut self, jobs: usize, out: &mut Outcome) {
        let mut tally = Tally::default();
        let start = Instant::now();
        while tally.train_losses.len() < jobs && start.elapsed() < DRAIN_LIMIT {
            self.poll(true, None, &mut tally, out, &mut Tracer::disabled());
            std::thread::yield_now();
        }
    }

    /// Waits for every outstanding Train job, sending no more.
    fn drain(&mut self, out: &mut Outcome) {
        let start = Instant::now();
        while self.queues.iter().any(|q| !q.is_empty()) {
            if start.elapsed() > DRAIN_LIMIT {
                for p in self.queues.iter_mut().flat_map(|q| q.drain(..)) {
                    out.fail(format!(
                        "job {} still unanswered after the drain limit",
                        p.op
                    ));
                }
                break;
            }
            self.poll(
                false,
                None,
                &mut Tally::default(),
                out,
                &mut Tracer::disabled(),
            );
            std::thread::yield_now();
        }
    }
}

/// Runs `serve_mixed` for `spec.seconds` of Interactive schedule.
pub fn run(spec: &RunSpec, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = last.take() {
            old.server.shutdown();
        }
        let start = Instant::now();
        last = Some(setup(spec.seed, spec.seconds, &mut out));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Setup {
        server,
        traces,
        schedule,
    } = last.expect("at least one set-up");
    let first_span = tr.spans().len();
    let mut tenants = Tenants::new(server.client(), &traces);
    tenants.start(&mut out);
    // Settle: until the replicas' per-job cost has stopped drifting.
    tenants.closed_loop(SETTLE_JOBS, &mut out);

    let mut tally = Tally::default();
    let window = Duration::from_secs_f64(spec.seconds);
    let t0 = Instant::now();
    let mut interactive: Vec<Pending> = Vec::new();
    let mut next_i = 0;
    loop {
        let now = Instant::now();
        let elapsed = now - t0;
        while next_i < schedule.len() && schedule[next_i].0 <= elapsed {
            let (due, spec) = schedule[next_i];
            next_i += 1;
            tenants.next_op += 1;
            if let Some(p) = submit(&tenants.client, spec, tenants.next_op, due, &mut out) {
                let late = p
                    .submit_start
                    .saturating_duration_since(t0)
                    .saturating_sub(due);
                tally.gen_lag_ms = tally.gen_lag_ms.max(late.as_secs_f64() * 1e3);
                interactive.push(p);
            }
        }
        let open = elapsed < window;
        tenants.poll(open, Some(t0 + window), &mut tally, &mut out, tr);
        let mut i = 0;
        while i < interactive.len() {
            let reply = match interactive[i].rx.try_recv() {
                Err(TryRecvError::Empty) => {
                    i += 1;
                    continue;
                }
                other => other,
            };
            let p = interactive.swap_remove(i);
            if let Some(r) = answer(reply, &p, "interactive", &mut out, tr) {
                let sent = p.submit_start.saturating_duration_since(t0);
                let latency = latency_from_due(p.due, sent, r.latency);
                tally.interactive_ms.push(latency.as_secs_f64() * 1e3);
                tally.queue_wait_ms.push(r.queue_wait.as_secs_f64() * 1e3);
                tally.exec_ms.push(r.exec.as_secs_f64() * 1e3);
            }
        }
        let drained = tenants.queues.iter().all(VecDeque::is_empty) && interactive.is_empty();
        if next_i == schedule.len() && !open && drained {
            break;
        }
        if elapsed > window + DRAIN_LIMIT {
            let queues = tenants.queues.iter_mut();
            for p in queues
                .flat_map(|q| q.drain(..))
                .chain(interactive.drain(..))
            {
                out.fail(format!(
                    "job {} still unanswered after the drain limit",
                    p.op
                ));
            }
            break;
        }
        // Never sleep while the window is open: a sleeping generator wakes
        // late, and lateness is charged to the Interactive jobs it sends.
        if open {
            std::thread::yield_now();
        } else {
            std::thread::sleep(POLL);
        }
    }
    let report = server.shutdown();
    e2e_metrics(&mut out, &setup_s, &tally, spec.seconds);
    if tr.is_enabled() {
        let submit_ms: Vec<f64> = ["train", "interactive"]
            .iter()
            .flat_map(|class| tr.durations_ms(first_span, "serve.submit", class))
            .collect();
        let submit = stats::sorted(&submit_ms);
        let wait = stats::sorted(&tally.queue_wait_ms);
        let exec = stats::sorted(&tally.exec_ms);
        let l = &mut out.layers;
        if !submit.is_empty() && !wait.is_empty() && !exec.is_empty() {
            l.set(
                "serve.submit_us.p50",
                stats::percentile(&submit, 500) * 1e3,
                "us",
            );
            l.set(
                "serve.submit_us.p99",
                stats::percentile(&submit, 990) * 1e3,
                "us",
            );
            l.set(
                "serve.queue_wait_ms.p50",
                stats::percentile(&wait, 500),
                "ms",
            );
            l.set(
                "serve.queue_wait_ms.p99",
                stats::percentile(&wait, 990),
                "ms",
            );
            l.set("serve.exec_ms.p50", stats::percentile(&exec, 500), "ms");
            l.set("serve.exec_ms.p99", stats::percentile(&exec, 990), "ms");
        }
        l.set("serve.batch_rows_mean", report.mean_batch_rows(), "rows");
        l.set("serve.batches", report.batches as f64, "count");
        l.set("serve.shed", report.shed as f64, "count");
        l.set("serve.rejected", report.rejected as f64, "count");
        l.set("serve.gen_lag_ms", tally.gen_lag_ms, "ms");
        let hit_rate = report.plan_cache.map_or(0.0, |c| c.hit_rate());
        l.set("core.plan_cache.hit_rate", hit_rate, "ratio");
    }
    out
}

fn e2e_metrics(out: &mut Outcome, setup_s: &[f64], tally: &Tally, seconds: f64) {
    setup_metric(out, setup_s);
    out.e2e.set(
        "throughput_per_s",
        tally.train_done_in_window as f64 / seconds,
        "1/s",
    );
    let sorted = stats::sorted(&tally.interactive_ms);
    if sorted.is_empty() {
        out.fail("no Interactive job completed".to_string());
    } else {
        out.e2e
            .set("latency_p50_ms", stats::percentile(&sorted, 500), "ms");
        latency_tail(out, &sorted, "Interactive");
    }
    // Losses depend on how jobs coalesced, so they are only checked for
    // finiteness; the per-model mean keeps the figure comparable when the
    // model mix of the last block shifts.
    let block = &tally.train_losses[tally.train_losses.len().saturating_sub(FINAL_BLOCK)..];
    let per_model: Vec<f64> = (0..3)
        .filter_map(|m| {
            let v: Vec<f64> = block
                .iter()
                .filter(|(model, _)| *model == m)
                .map(|&(_, l)| l as f64)
                .collect();
            (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
        })
        .collect();
    out.e2e.set(
        "final_loss",
        per_model.iter().sum::<f64>() / per_model.len().max(1) as f64,
        "nats",
    );
    out.e2e.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    out.notes.push(format!(
        "serve_mixed: {} Train jobs in the {seconds} s window, {} Interactive jobs, generator lag up to {:.3} ms",
        tally.train_done_in_window,
        tally.interactive_ms.len(),
        tally.gen_lag_ms
    ));
}
