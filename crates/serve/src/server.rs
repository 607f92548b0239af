//! The threaded serving front end: admission → weighted fair queue →
//! adaptive batcher → plan cache → autoscaled workers.
//!
//! [`Server::start`] spawns one OS thread per **worker shard** plus, when
//! autoscaling is configured, a supervisor thread that grows and shrinks
//! the fleet at runtime. Every worker builds replicas of the whole catalog
//! (so jobs can be re-routed as the fleet resizes), drains its shard of
//! the [`ShardedQueue`] under QoS-weighted fairness, coalesces jobs under
//! the configured [`BatchPolicy`] — holding adaptive batches open only
//! while the marginal merge win beats the queueing cost — and executes
//! them through its [`ShardEngine`], resolving dropout plans through the
//! shared [`PlanCache`] when caching is enabled.
//!
//! Tenants interact through [`Client`]: [`Client::submit`] runs admission
//! control against the (optionally bounded) queue and returns either a
//! receiver that yields the [`crate::JobReply`] or an immediate
//! [`AdmissionError::Rejected`]. Completed jobs report their latency split
//! into queue wait (submit → dispatch start, including any batching hold)
//! and execution time, and the post-shutdown [`ServeReport`] summarizes
//! both distributions as percentiles.
//!
//! ## Autoscaling mechanism
//!
//! The queue is sized for `max_workers` shards up front; the supervisor
//! only moves the `active` high-water mark. Jobs route to `model % active`,
//! so a scale event re-routes traffic instantly. A scaled-down worker
//! notices `shard >= active`, drains what its shard still holds, merges
//! its stats and exits; worker 0 adopts any stragglers left on orphaned
//! shards while idle. Scale-ups spawn a fresh worker for the next shard —
//! with a warm plan cache the new replicas resolve their dropout plans as
//! cache hits, which is exactly the condition under which the
//! [`crate::Autoscaler`] scales up earliest.

use crate::adaptive::{AdaptiveController, ArrivalTracker};
use crate::admission::{AdmissionError, JobReply};
use crate::autoscale::{AutoscaleConfig, Autoscaler, ScaleDecision};
use crate::batcher::BatchPolicy;
use crate::config::ServeConfig;
use crate::engine::ShardEngine;
use crate::job::JobSpec;
use crate::model::ModelSpec;
use crate::queue::{Push, ShardedQueue};
use approx_dropout::{PlanCache, PlanCacheStats};
use gpu_sim::GpuConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle worker sleeps between queue polls.
const IDLE_POLL: Duration = Duration::from_micros(50);

/// How long a worker holding a partially filled batch sleeps between queue
/// polls while its deadline runs.
const DEADLINE_POLL: Duration = Duration::from_micros(20);

/// What a tenant gets back for one completed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// Batch loss of the dispatch the job rode in.
    pub value: f32,
    /// Total rows of that dispatch (1 job's rows under per-request
    /// dispatch, more under coalescing policies).
    pub batch_rows: usize,
    /// Seed epoch the dispatch resolved plans for.
    pub epoch: u64,
    /// Submit to dispatch start: queueing plus any batching hold.
    pub queue_wait: Duration,
    /// Dispatch start to completion: pure execution.
    pub exec: Duration,
    /// End-to-end latency (`queue_wait + exec`).
    pub latency: Duration,
}

/// A queued job: the spec plus everything needed to answer it.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    enqueued: Instant,
    reply: Sender<JobReply>,
}

/// Per-worker execution counters and latency samples, merged into the
/// [`ServeReport`] when the worker exits.
#[derive(Debug, Default)]
struct WorkerStats {
    batches: u64,
    jobs: u64,
    rows: u64,
    queue_wait_us: Vec<u64>,
    exec_us: Vec<u64>,
}

/// Order statistics of one latency distribution, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Largest sample.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes `samples` (microseconds); all-zero for an empty input.
    /// Percentiles use the nearest-rank rule on the sorted samples.
    pub fn from_us(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean_us: 0.0,
                p50_us: 0.0,
                p99_us: 0.0,
                p999_us: 0.0,
                max_us: 0.0,
            };
        }
        samples.sort_unstable();
        let count = samples.len();
        let pct = |q: f64| samples[((q * count as f64).ceil() as usize).clamp(1, count) - 1] as f64;
        Self {
            count: count as u64,
            mean_us: samples.iter().sum::<u64>() as f64 / count as f64,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            p999_us: pct(0.999),
            max_us: samples[count - 1] as f64,
        }
    }
}

/// What a drained [`Server`] reports after shutdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeReport {
    /// Dispatches executed across all workers.
    pub batches: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Request rows processed.
    pub rows: u64,
    /// Admitted jobs later displaced by more valuable arrivals.
    pub shed: u64,
    /// Submissions refused at the door.
    pub rejected: u64,
    /// Autoscaler scale-up events applied.
    pub scale_ups: u64,
    /// Autoscaler scale-down events applied.
    pub scale_downs: u64,
    /// Most workers ever simultaneously active.
    pub peak_workers: usize,
    /// Distribution of submit-to-dispatch-start waits.
    pub queue_wait: LatencySummary,
    /// Distribution of dispatch execution times.
    pub exec: LatencySummary,
    /// Plan-cache counters (`None` when caching was disabled).
    pub plan_cache: Option<PlanCacheStats>,
}

impl ServeReport {
    /// Mean coalesced rows per dispatch — 1-job batches under per-request
    /// dispatch push this toward the mean request size, coalescing pushes
    /// it up.
    pub fn mean_batch_rows(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.rows as f64 / self.batches as f64
        }
    }
}

/// Everything the client, workers and supervisor share.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    catalog: Vec<ModelSpec>,
    queue: ShardedQueue<Job>,
    shutdown: AtomicBool,
    /// Worker shards currently receiving traffic (`model % active`).
    active: AtomicUsize,
    tracker: ArrivalTracker,
    controller: AdaptiveController,
    cache: Option<Arc<PlanCache>>,
    /// Stats merged by workers as they exit.
    stats: Mutex<Vec<WorkerStats>>,
    scale_ups: AtomicU64,
    scale_downs: AtomicU64,
    peak_workers: AtomicUsize,
}

/// Handle tenants submit through (cheaply cloneable).
#[derive(Debug, Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Runs admission for `spec` and, if admitted, enqueues it on its
    /// model's active worker shard, returning the receiver its
    /// [`crate::JobReply`] arrives on.
    ///
    /// On a bounded queue the push may displace a strictly cheaper queued
    /// job (that victim's receiver yields [`AdmissionError::Shed`]), or
    /// bounce off a shard full of work at least as valuable — then nothing
    /// is enqueued and the [`AdmissionError::Rejected`] comes back
    /// directly so the tenant can back off. A job naming no catalog model
    /// is refused with [`AdmissionError::Invalid`], and a zero-row job with
    /// [`AdmissionError::EmptyJob`], before either reaches a worker.
    pub fn submit(&self, spec: JobSpec) -> Result<Receiver<JobReply>, AdmissionError> {
        let catalog = self.shared.catalog.len();
        if spec.model >= catalog {
            return Err(AdmissionError::Invalid {
                model: spec.model,
                catalog,
            });
        }
        if spec.rows == 0 {
            return Err(AdmissionError::EmptyJob);
        }
        let now = Instant::now();
        self.shared.tracker.observe(spec.batch_key(), now);
        let (reply, result) = channel();
        let shard = spec.model % self.shared.active.load(Ordering::SeqCst).max(1);
        let job = Job {
            spec,
            enqueued: now,
            reply,
        };
        match self.shared.queue.push(
            shard,
            spec.tenant,
            spec.qos,
            spec.shed_rank(),
            spec.rows,
            job,
        ) {
            Push::Enqueued => Ok(result),
            Push::Displaced(victim) => {
                // The victim's tenant learns it was shed, and by whom.
                let _ = victim
                    .reply
                    .send(Err(AdmissionError::Shed { by: spec.qos }));
                Ok(result)
            }
            Push::Rejected(_) => Err(AdmissionError::Rejected {
                bound: self.shared.queue.bound().unwrap_or(usize::MAX),
            }),
        }
    }
}

/// The running serving layer.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Spawns the worker fleet for `catalog` and returns the running
    /// server. Each worker builds replicas of every catalog model inside
    /// its own thread; jobs route to worker `model % active`. With
    /// autoscaling configured the queue is sized for `max_workers` shards
    /// and a supervisor thread resizes the fleet at runtime.
    ///
    /// # Panics
    ///
    /// Panics if `catalog` is empty.
    pub fn start(config: ServeConfig, catalog: Vec<ModelSpec>) -> Self {
        assert!(!catalog.is_empty(), "a server needs at least one model");
        let base = if config.workers() == 0 {
            tensor::pool::threads().max(1)
        } else {
            config.workers()
        };
        let (initial, shards) = match config.autoscale() {
            Some(scale) => (
                base.clamp(scale.min_workers, scale.max_workers),
                scale.max_workers,
            ),
            None => (base, base),
        };
        let queue = match config.queue_bound() {
            Some(bound) => ShardedQueue::with_bound(shards, config.qos_weights(), bound),
            None => ShardedQueue::new(shards, config.qos_weights()),
        };
        let cache = config
            .plan_cache()
            .then(|| Arc::new(PlanCache::new(config.plan_cache_shards())));
        let controller =
            AdaptiveController::new(&catalog, &GpuConfig::gtx_1080ti(), config.latency_cost());
        let shared = Arc::new(Shared {
            catalog,
            queue,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(initial),
            tracker: ArrivalTracker::new(),
            controller,
            cache,
            stats: Mutex::new(Vec::new()),
            scale_ups: AtomicU64::new(0),
            scale_downs: AtomicU64::new(0),
            peak_workers: AtomicUsize::new(initial),
            config,
        });
        let workers = (0..initial)
            .map(|shard| spawn_worker(&shared, shard))
            .collect();
        let supervisor = shared
            .config
            .autoscale()
            .map(|scale| spawn_supervisor(&shared, scale));
        Self {
            shared,
            workers,
            supervisor,
        }
    }

    /// A submission handle.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Jobs currently queued (approximate while producers are active).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Worker shards currently receiving traffic.
    pub fn active_workers(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Signals shutdown, drains the queue, joins the supervisor and every
    /// worker, and returns the aggregate report.
    pub fn shutdown(self) -> ServeReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut handles = self.workers;
        if let Some(supervisor) = self.supervisor {
            handles.extend(supervisor.join().expect("the serve supervisor panicked"));
        }
        for handle in handles {
            handle.join().expect("a serve worker panicked");
        }
        let mut report = ServeReport {
            batches: 0,
            jobs: 0,
            rows: 0,
            shed: self.shared.queue.shed_count(),
            rejected: self.shared.queue.rejected_count(),
            scale_ups: self.shared.scale_ups.load(Ordering::Relaxed),
            scale_downs: self.shared.scale_downs.load(Ordering::Relaxed),
            peak_workers: self.shared.peak_workers.load(Ordering::Relaxed),
            queue_wait: LatencySummary::from_us(Vec::new()),
            exec: LatencySummary::from_us(Vec::new()),
            plan_cache: self.shared.cache.as_ref().map(|c| c.stats()),
        };
        let mut queue_wait = Vec::new();
        let mut exec = Vec::new();
        let stats = self.shared.stats.lock().expect("stats mutex poisoned");
        for worker in stats.iter() {
            report.batches += worker.batches;
            report.jobs += worker.jobs;
            report.rows += worker.rows;
            queue_wait.extend_from_slice(&worker.queue_wait_us);
            exec.extend_from_slice(&worker.exec_us);
        }
        report.queue_wait = LatencySummary::from_us(queue_wait);
        report.exec = LatencySummary::from_us(exec);
        report
    }
}

/// Spawns the worker thread for `shard`.
fn spawn_worker(shared: &Arc<Shared>, shard: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("serve-worker-{shard}"))
        .spawn(move || {
            let engine = ShardEngine::new(
                &shared.catalog,
                // Every worker replicates the whole catalog so traffic can
                // be re-routed freely as the fleet resizes.
                |_| true,
                shared.cache.clone(),
                shared.config.epoch_rounds(),
                shared.config.init_seed(),
            );
            Worker {
                shard,
                engine,
                pending: VecDeque::new(),
                stats: WorkerStats::default(),
                shared,
            }
            .run()
        })
        .expect("spawning a serve worker thread failed")
}

/// Spawns the autoscale supervisor; returns the handles of every worker it
/// spawned so shutdown can join them.
fn spawn_supervisor(
    shared: &Arc<Shared>,
    scale: AutoscaleConfig,
) -> JoinHandle<Vec<JoinHandle<()>>> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name("serve-supervisor".into())
        .spawn(move || {
            let mut scaler = Autoscaler::new(scale);
            let mut spawned = Vec::new();
            while !shared.shutdown.load(Ordering::SeqCst) {
                thread::sleep(scale.interval);
                let active = shared.active.load(Ordering::SeqCst);
                let warm = shared
                    .cache
                    .as_ref()
                    .map(|c| c.stats().is_warm())
                    .unwrap_or(false);
                match scaler.observe(shared.queue.len(), active, warm, Instant::now()) {
                    Some(ScaleDecision::Up) => {
                        // Raise the routing mark first so the new worker
                        // sees itself active from its first loop.
                        shared.active.store(active + 1, Ordering::SeqCst);
                        spawned.push(spawn_worker(&shared, active));
                        shared.scale_ups.fetch_add(1, Ordering::Relaxed);
                        shared.peak_workers.fetch_max(active + 1, Ordering::Relaxed);
                    }
                    Some(ScaleDecision::Down) => {
                        // The highest-index worker notices and retires.
                        shared.active.store(active - 1, Ordering::SeqCst);
                        shared.scale_downs.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {}
                }
            }
            spawned
        })
        .expect("spawning the serve supervisor thread failed")
}

/// One worker shard's thread state.
struct Worker {
    shard: usize,
    engine: ShardEngine,
    /// Jobs drained while filling a batch they did not match; served with
    /// priority by the next dispatch so draining never reorders a tenant's
    /// lane unboundedly.
    pending: VecDeque<Job>,
    stats: WorkerStats,
    shared: Arc<Shared>,
}

impl Worker {
    fn run(mut self) {
        loop {
            if self.shard >= self.shared.active.load(Ordering::SeqCst) {
                // Retired by the autoscaler: serve what is already here,
                // then exit. Stragglers racing the scale-down are adopted
                // by worker 0.
                self.drain();
                break;
            }
            match self.next_batch() {
                Some(batch) => self.dispatch(batch),
                None => {
                    if self.shared.shutdown.load(Ordering::SeqCst)
                        && self.pending.is_empty()
                        && self.shared.queue.is_empty()
                    {
                        break;
                    }
                    if self.shard == 0 && self.adopt_orphans() {
                        continue;
                    }
                    thread::sleep(IDLE_POLL);
                }
            }
        }
        self.shared
            .stats
            .lock()
            .expect("stats mutex poisoned")
            .push(std::mem::take(&mut self.stats));
    }

    /// Serves everything left on this worker's shard and stash,
    /// per-request (no holds — nothing new is routed here anymore).
    fn drain(&mut self) {
        while let Some(job) = self.pending.pop_front() {
            self.dispatch(vec![job]);
        }
        while let Some(job) = self.shared.queue.pop_fair(self.shard) {
            self.dispatch(vec![job]);
        }
    }

    /// Moves jobs stranded on shards beyond the active mark into this
    /// worker's stash; returns whether anything was adopted.
    fn adopt_orphans(&mut self) -> bool {
        let active = self.shared.active.load(Ordering::SeqCst);
        let mut adopted = false;
        for shard in active..self.shared.queue.shards() {
            while let Some(job) = self.shared.queue.pop_fair(shard) {
                self.pending.push_back(job);
                adopted = true;
            }
        }
        adopted
    }

    /// Takes the stashed job with the highest QoS rank (FIFO among
    /// equals), so the stash cannot bypass the queue's class ordering —
    /// under overload this is what keeps Interactive ahead of a flood that
    /// was drained into the stash.
    fn take_pending(&mut self) -> Option<Job> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .max_by_key(|(i, job)| (job.spec.qos.rank(), std::cmp::Reverse(*i)))?
            .0;
        self.pending.remove(best)
    }

    /// Drains the next dispatch under the batching policy: the stash
    /// first, then the shard queue. A dynamic batch holds until full or
    /// its fixed deadline; an adaptive batch holds only while the marginal
    /// merge win of the next expected arrival beats the latency cost of
    /// the jobs already waiting, with `max_deadline` as a backstop.
    fn next_batch(&mut self) -> Option<Vec<Job>> {
        let first = self
            .take_pending()
            .or_else(|| self.shared.queue.pop_fair(self.shard))?;
        let policy = self.shared.config.policy();
        let (max_rows, deadline) = match policy {
            BatchPolicy::PerRequest => return Some(vec![first]),
            BatchPolicy::Dynamic {
                max_batch_rows,
                deadline,
            } => (max_batch_rows.max(1), deadline),
            BatchPolicy::Adaptive {
                max_batch_rows,
                max_deadline,
            } => (max_batch_rows.max(1), max_deadline),
        };
        let key = first.spec.batch_key();
        let mut rows = first.spec.rows;
        let mut batch = vec![first];
        // Matching jobs stashed by earlier fills join immediately.
        let mut i = 0;
        while i < self.pending.len() && rows < max_rows {
            if self.pending[i].spec.batch_key() == key
                && rows + self.pending[i].spec.rows <= max_rows
            {
                let job = self.pending.remove(i).expect("index checked above");
                rows += job.spec.rows;
                batch.push(job);
            } else {
                i += 1;
            }
        }
        let cutoff = Instant::now() + deadline;
        while rows < max_rows && Instant::now() < cutoff {
            match self.shared.queue.pop_fair(self.shard) {
                Some(job) if job.spec.batch_key() == key && rows + job.spec.rows <= max_rows => {
                    rows += job.spec.rows;
                    batch.push(job);
                }
                Some(job) => self.pending.push_back(job),
                None => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break; // No more traffic is coming; dispatch now.
                    }
                    if matches!(policy, BatchPolicy::Adaptive { .. })
                        && !self.shared.controller.should_hold(
                            &self.shared.tracker,
                            key,
                            batch.len(),
                            Instant::now(),
                        )
                    {
                        break; // Waiting costs more than merging would win.
                    }
                    thread::sleep(DEADLINE_POLL);
                }
            }
        }
        Some(batch)
    }

    fn dispatch(&mut self, batch: Vec<Job>) {
        let specs: Vec<JobSpec> = batch.iter().map(|job| job.spec).collect();
        let started = Instant::now();
        let outcome = self.engine.execute(&specs);
        let completed = Instant::now();
        let exec = completed.duration_since(started);
        self.stats.batches += 1;
        self.stats.jobs += batch.len() as u64;
        self.stats.rows += outcome.rows as u64;
        for job in batch {
            let queue_wait = started.saturating_duration_since(job.enqueued);
            self.stats.queue_wait_us.push(queue_wait.as_micros() as u64);
            self.stats.exec_us.push(exec.as_micros() as u64);
            // A tenant that dropped its receiver just stops listening; the
            // dispatch already happened, so ignore the send error.
            let _ = job.reply.send(Ok(JobResult {
                value: outcome.value,
                batch_rows: outcome.rows,
                epoch: outcome.epoch,
                queue_wait,
                exec,
                latency: queue_wait + exec,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use crate::qos::QosClass;
    use approx_dropout::SchemeSpec;

    fn tiny_catalog() -> Vec<ModelSpec> {
        vec![ModelSpec::mlp(
            "tiny",
            8,
            vec![16],
            4,
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 4,
            },
        )]
    }

    fn job(tenant: u64, seed: u64, rows: usize) -> JobSpec {
        JobSpec {
            tenant,
            model: 0,
            rows,
            seed,
            kind: JobKind::Train,
            qos: QosClass::Batch,
        }
    }

    #[test]
    fn jobs_round_trip_through_the_server() {
        let config = ServeConfig::builder()
            .workers(2)
            .build()
            .expect("valid config");
        let server = Server::start(config, tiny_catalog());
        let client = server.client();
        let receivers: Vec<_> = (0..6)
            .map(|i| {
                client
                    .submit(job(i % 2, i, 2))
                    .expect("unbounded queue admits")
            })
            .collect();
        for rx in receivers {
            let result = rx
                .recv()
                .expect("job must complete")
                .expect("no admission control configured");
            assert!(result.value.is_finite());
            assert!(result.batch_rows >= 2);
            assert_eq!(result.latency, result.queue_wait + result.exec);
        }
        let report = server.shutdown();
        assert_eq!(report.jobs, 6);
        assert_eq!(report.rows, 12);
        assert_eq!(report.shed, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.queue_wait.count, 6);
        assert_eq!(report.exec.count, 6);
        assert!(report.exec.p99_us > 0.0);
        let cache = report.plan_cache.expect("cache enabled by default");
        assert!(cache.hits + cache.misses > 0);
    }

    #[test]
    fn per_request_policy_never_coalesces() {
        let config = ServeConfig::builder()
            .workers(1)
            .policy(BatchPolicy::PerRequest)
            .build()
            .expect("valid config");
        let server = Server::start(config, tiny_catalog());
        let client = server.client();
        let receivers: Vec<_> = (0..4)
            .map(|i| client.submit(job(0, i, 3)).expect("unbounded queue admits"))
            .collect();
        for rx in receivers {
            let result = rx.recv().expect("job must complete").expect("admitted");
            assert_eq!(result.batch_rows, 3);
        }
        let report = server.shutdown();
        assert_eq!(report.batches, 4);
        assert!((report.mean_batch_rows() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let summary = LatencySummary::from_us((1..=1000).collect());
        assert_eq!(summary.count, 1000);
        assert_eq!(summary.p50_us, 500.0);
        assert_eq!(summary.p99_us, 990.0);
        assert_eq!(summary.p999_us, 999.0);
        assert_eq!(summary.max_us, 1000.0);
        let empty = LatencySummary::from_us(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max_us, 0.0);
    }
}
