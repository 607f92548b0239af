//! Hand-rolled thread pool that splits the batch (row) dimension of the
//! GEMM entry points across worker threads.
//!
//! The build environment has no crates.io access, so this is a minimal
//! `std::thread` + `std::sync::mpsc` pool rather than rayon: a fixed set of
//! detached workers pulls boxed jobs off one shared channel, and
//! [`ThreadPool::run`] blocks the submitting thread until every job of the
//! batch has finished (a latch), which is what makes lending stack-borrowing
//! closures to the workers sound.
//!
//! Row-partitioned GEMM is deterministic by construction: every output row is
//! computed by exactly one worker with the same per-row instruction sequence
//! the serial kernel uses, so results are bitwise identical for any thread
//! count. The `TENSOR_THREADS` environment variable pins the pool size (set
//! `TENSOR_THREADS=1` for fully serial execution in tests); it is read once
//! when the global pool is first used, after which [`set_threads`] can resize
//! it programmatically (used by the hot-path bench to sweep thread counts).

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread;

/// Upper bound on the pool size; protects against absurd `TENSOR_THREADS`
/// values and machines reporting very wide parallelism.
pub const MAX_THREADS: usize = 64;

/// Default row count below which the GEMM entry points stay serial:
/// splitting a tiny batch across threads costs more in latch traffic than
/// the kernel saves. The *active* threshold is [`par_min_rows`]; the
/// [`crate::tune`] search, which tunes nothing else, can replace it.
pub const PAR_MIN_ROWS: usize = 32;

/// Active serial-fallback threshold (see [`PAR_MIN_ROWS`] for the default).
static PAR_MIN_ROWS_ACTIVE: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(PAR_MIN_ROWS);

/// The row count below which [`run_row_chunks`] stays serial.
#[inline]
pub fn par_min_rows() -> usize {
    PAR_MIN_ROWS_ACTIVE.load(std::sync::atomic::Ordering::Relaxed)
}

/// Overrides the serial-fallback threshold (clamped to at least 1; the
/// threshold only affects scheduling, never results — row chunking is
/// bitwise thread-invariant). Used by [`crate::tune`] when applying a
/// persisted config.
pub fn set_par_min_rows(threshold: usize) {
    PAR_MIN_ROWS_ACTIVE.store(threshold.max(1), std::sync::atomic::Ordering::Relaxed);
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch shared by one [`ThreadPool::run`] batch.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    /// First panic payload observed among the batch's jobs, if any.
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining: jobs,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn job_finished(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.state.lock().expect("latch mutex poisoned");
        if state.panic.is_none() {
            state.panic = panic;
        } else {
            drop(panic);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job has finished, then re-raises the first panic.
    fn wait(&self) {
        let mut state = self.state.lock().expect("latch mutex poisoned");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("latch mutex poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

thread_local! {
    /// `true` on pool worker threads; [`ThreadPool::run`] from inside a job
    /// executes inline instead of re-queueing (which could deadlock a fully
    /// busy pool).
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-size pool of detached worker threads fed from one shared channel.
///
/// A pool of size 1 spawns no threads at all: [`ThreadPool::run`] executes
/// jobs inline, which is the deterministic serial fallback selected by
/// `TENSOR_THREADS=1`.
#[derive(Debug)]
pub struct ThreadPool {
    /// `None` for the serial (single-thread) pool.
    sender: Option<Sender<Job>>,
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool with `workers` threads (clamped to `1..=MAX_THREADS`).
    pub fn new(workers: usize) -> Self {
        let workers = workers.clamp(1, MAX_THREADS);
        if workers == 1 {
            return Self {
                sender: None,
                workers,
            };
        }
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for idx in 0..workers {
            let receiver = Arc::clone(&receiver);
            thread::Builder::new()
                .name(format!("tensor-pool-{idx}"))
                .spawn(move || worker_loop(&receiver))
                .expect("spawning a pool worker thread failed");
        }
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads (1 means fully serial execution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of jobs and blocks until all of them have completed.
    ///
    /// Jobs may borrow from the caller's stack (`'env`): the latch guarantees
    /// no job outlives this call, even when a job panics — every remaining
    /// job still runs to completion before the panic is re-raised here.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any job of the batch, and panics
    /// if the worker threads have exited (after draining the batch safely).
    pub fn run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let Some(sender) = &self.sender else {
            for job in jobs {
                job();
            }
            return;
        };
        if IS_POOL_WORKER.with(std::cell::Cell::get) {
            // Nested parallelism: the caller *is* a pool worker, so queueing
            // and blocking could starve the pool. Degrade to inline.
            for job in jobs {
                job();
            }
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len()));
        // Wrap every job *before* sending anything. Each wrapper owns a
        // [`JobGuard`] that decrements the latch when the wrapper is dropped
        // — whether it ran to completion, panicked, or was dropped
        // unexecuted by a dying channel — so `latch.wait()` below can never
        // miss a slot and the `'env` transmute stays sound on every path.
        let wrapped: Vec<Job> = jobs
            .into_iter()
            .map(|job| {
                // SAFETY: `run` does not return until the latch has counted
                // every wrapper as finished (executed or dropped), so the
                // `'env` borrows captured by the job are live for as long as
                // any worker can touch it. The lifetime is only widened for
                // transport through the channel.
                let job: Job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'env>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(job)
                };
                let mut guard = JobGuard {
                    latch: Arc::clone(&latch),
                    panic: None,
                };
                Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                        guard.panic = Some(payload);
                    }
                    drop(guard);
                }) as Job
            })
            .collect();
        // Dispatch. A send failure means the workers are gone (unreachable
        // while the pool holds its sender, but guarded against regardless):
        // run the failed and remaining wrappers inline, let the guards of
        // any already-queued-but-dropped wrappers drain the latch, then
        // report the broken pool.
        let mut send_failed = false;
        let mut queue = wrapped.into_iter();
        for wrapper in &mut queue {
            if let Err(std::sync::mpsc::SendError(returned)) = sender.send(wrapper) {
                returned();
                send_failed = true;
                break;
            }
        }
        if send_failed {
            for wrapper in queue {
                wrapper();
            }
        }
        latch.wait();
        assert!(!send_failed, "pool workers exited while the pool was alive");
    }
}

/// Accounts one job slot to the latch on drop, so a wrapper that is dropped
/// without ever executing (e.g. by a torn-down channel) still releases its
/// slot instead of deadlocking [`ThreadPool::run`].
struct JobGuard {
    latch: Arc<Latch>,
    panic: Option<Box<dyn Any + Send>>,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.latch.job_finished(self.panic.take());
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let job = {
            let guard = receiver.lock().expect("pool receiver mutex poisoned");
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            // All senders dropped: the pool was replaced or torn down.
            Err(_) => return,
        }
    }
}

/// The process-wide pool used by the GEMM entry points.
///
/// Initialised lazily from `TENSOR_THREADS` (or the machine's available
/// parallelism) and replaceable at runtime with [`set_threads`].
static GLOBAL: RwLock<Option<Arc<ThreadPool>>> = RwLock::new(None);

/// Cache of the initial environment-derived size so repeated pool lookups do
/// not re-read the environment.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        if let Ok(value) = std::env::var("TENSOR_THREADS") {
            if let Ok(parsed) = value.trim().parse::<usize>() {
                if parsed >= 1 {
                    return parsed.min(MAX_THREADS);
                }
            }
            // An unparsable override falls back to serial: a misconfigured
            // run should be slow and correct, not silently wide.
            return 1;
        }
        thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// The pool size the environment implies — `TENSOR_THREADS` when set
/// (unparsable values fall back to 1, the documented slow-and-correct
/// misconfiguration behaviour), else the machine's available parallelism,
/// clamped to [`MAX_THREADS`]. This is what the global pool starts at
/// before any [`set_threads`] override; benches use it to restore the
/// default width after sweeping explicit thread counts.
pub fn env_default_threads() -> usize {
    env_threads()
}

/// Handle to the global pool, creating it from the environment on first use.
pub fn global() -> Arc<ThreadPool> {
    if let Some(pool) = GLOBAL
        .read()
        .expect("pool registry poisoned")
        .as_ref()
        .map(Arc::clone)
    {
        return pool;
    }
    let mut slot = GLOBAL.write().expect("pool registry poisoned");
    if let Some(pool) = slot.as_ref() {
        return Arc::clone(pool);
    }
    let pool = Arc::new(ThreadPool::new(env_threads()));
    *slot = Some(Arc::clone(&pool));
    pool
}

/// Replaces the global pool with one of `threads` workers.
///
/// Existing in-flight batches keep their handle on the old pool and finish
/// normally; the old workers exit once the last handle is dropped. Used by
/// the hot-path bench to sweep 1/2/4 threads inside one process and by tests
/// that need a specific pool size.
pub fn set_threads(threads: usize) {
    let pool = Arc::new(ThreadPool::new(threads));
    *GLOBAL.write().expect("pool registry poisoned") = Some(pool);
}

/// Current size of the global pool.
pub fn threads() -> usize {
    global().workers()
}

/// Splits the `rows`-row output (row-major, `cols` columns) into one
/// contiguous row chunk per worker and runs `kernel` on each chunk in
/// parallel; falls back to a single serial call when the batch is shorter
/// than the active [`par_min_rows`] threshold or the pool is serial.
///
/// The kernel receives the global row range and the mutable slice holding
/// exactly those rows, so writes are disjoint by construction and the result
/// is bitwise identical for every thread count.
///
/// # Panics
///
/// Propagates panics from `kernel` and panics if `data` is not
/// `rows * cols` long.
pub fn run_row_chunks(
    rows: usize,
    cols: usize,
    data: &mut [f32],
    kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    assert_eq!(data.len(), rows * cols, "row-chunk buffer length mismatch");
    let pool = global();
    let workers = pool.workers();
    if workers <= 1 || rows < par_min_rows() {
        kernel(0..rows, data);
        return;
    }
    let chunk_rows = rows.div_ceil(workers);
    let kernel = &kernel;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
    let mut rest = data;
    let mut start = 0;
    while start < rows {
        let end = (start + chunk_rows).min(rows);
        let (chunk, tail) = rest.split_at_mut((end - start) * cols);
        rest = tail;
        jobs.push(Box::new(move || kernel(start..end, chunk)));
        start = end;
    }
    pool.run(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline_without_threads() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 1);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn pool_size_is_clamped() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
        assert_eq!(ThreadPool::new(MAX_THREADS + 7).workers(), MAX_THREADS);
    }

    #[test]
    fn env_default_is_a_valid_pool_size() {
        let threads = env_default_threads();
        assert!((1..=MAX_THREADS).contains(&threads));
        // Stable across calls (cached once).
        assert_eq!(threads, env_default_threads());
    }

    #[test]
    fn parallel_pool_runs_every_job_exactly_once() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(i, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), (0..64).sum());
    }

    #[test]
    fn jobs_may_borrow_and_mutate_stack_data() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 300];
        {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (idx, chunk) in data.chunks_mut(100).enumerate() {
                jobs.push(Box::new(move || {
                    for v in chunk.iter_mut() {
                        *v = idx as u64 + 1;
                    }
                }));
            }
            pool.run(jobs);
        }
        assert!(data[..100].iter().all(|&v| v == 1));
        assert!(data[100..200].iter().all(|&v| v == 2));
        assert!(data[200..].iter().all(|&v| v == 3));
    }

    #[test]
    fn panic_in_a_job_propagates_after_the_batch_drains() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            jobs.push(Box::new(|| panic!("boom in worker")));
            for _ in 0..7 {
                jobs.push(Box::new(|| {
                    finished.fetch_add(1, Ordering::SeqCst);
                }));
            }
            pool.run(jobs);
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string payload");
        assert!(message.contains("boom"), "unexpected payload {message}");
        // Every non-panicking job still ran: the latch drains the batch.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn run_row_chunks_covers_all_rows_without_overlap() {
        // Local pools cannot drive run_row_chunks (it uses the global pool),
        // so check the splitting arithmetic through the serial path and the
        // global path in one process-safe test: every row is written once.
        let rows = 97; // odd on purpose
        let cols = 5;
        let mut data = vec![0.0f32; rows * cols];
        run_row_chunks(rows, cols, &mut data, |range, chunk| {
            assert_eq!(chunk.len(), range.len() * cols);
            for (local, row) in range.enumerate() {
                for c in 0..cols {
                    chunk[local * cols + c] += (row * cols + c) as f32 + 1.0;
                }
            }
        });
        for (idx, &v) in data.iter().enumerate() {
            assert_eq!(v, idx as f32 + 1.0, "row element {idx} written once");
        }
    }

    #[test]
    fn nested_run_degrades_to_inline_instead_of_deadlocking() {
        let pool = Arc::new(ThreadPool::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let inner_pool = Arc::clone(&pool);
        let inner_counter = Arc::clone(&counter);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(move || {
            // A job submitting to its own (possibly saturated) pool must not
            // block on the queue.
            let c = Arc::clone(&inner_counter);
            let nested: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            inner_pool.run(nested);
        })];
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }
}
