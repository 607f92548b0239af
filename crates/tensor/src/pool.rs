//! Hand-rolled thread pool that splits the batch (row) dimension of the
//! GEMM entry points across worker threads.
//!
//! The build environment has no crates.io access, so this is a minimal
//! `std::thread` pool rather than rayon. A pool holds one batch slot under a
//! mutex: [`run_row_chunks`] publishes a borrowed chunk function there, the
//! calling thread claims chunks beside a fixed set of persistent workers, and
//! the call returns only once every chunk has finished, which is what makes
//! lending a stack-borrowing closure to the workers sound. Nothing is boxed,
//! sent or allocated per dispatch. A dispatch that finds the slot taken — by
//! a concurrent caller, or from inside a chunk — runs inline.
//!
//! Row-partitioned GEMM is deterministic by construction: every output row is
//! computed by exactly one thread with the same per-row instruction sequence
//! the serial kernel uses, so results are bitwise identical for any thread
//! count. The `TENSOR_THREADS` environment variable pins the pool size (set
//! `TENSOR_THREADS=1` for fully serial execution in tests); it is read once
//! when the global pool is first used, after which [`set_threads`] can resize
//! it programmatically (used by the hot-path bench to sweep thread counts).

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread;

/// Upper bound on the pool size; protects against absurd `TENSOR_THREADS`
/// values and machines reporting very wide parallelism.
pub const MAX_THREADS: usize = 64;

/// Default row count below which the GEMM entry points stay serial:
/// splitting a tiny batch across threads costs more in waking the workers
/// than the kernel saves. The *active* threshold is [`par_min_rows`]; the
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

/// The batch a pool is running, if any, and the workers' shutdown flag.
struct Slot {
    /// The published chunk function, called once per chunk index; `None`
    /// while the pool is idle.
    task: Option<&'static (dyn Fn(usize) + Sync)>,
    chunks: usize,
    /// Next chunk index no thread has claimed yet.
    next: usize,
    /// Chunks not yet finished; the caller returns when this reaches 0.
    pending: usize,
    /// First panic payload raised by a chunk of the batch, if any.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// State shared by a pool's handle and its worker threads.
struct Shared {
    slot: Mutex<Slot>,
    /// Wakes the workers when a batch is published or the pool shuts down.
    work: Condvar,
    /// Wakes the caller when the batch's last chunk finishes.
    done: Condvar,
}

impl Shared {
    /// Locks the slot. Chunks run outside the lock under `catch_unwind`, so
    /// poisoning cannot leave the slot inconsistent; ignoring it keeps
    /// locking infallible while a batch is published.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and runs chunks of the published batch until none is left
    /// unclaimed. Called and returns with the slot locked.
    fn run_claimed<'a>(&'a self, mut slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        while let Some(task) = slot.task.filter(|_| slot.next < slot.chunks) {
            let chunk = slot.next;
            slot.next += 1;
            drop(slot);
            let result = catch_unwind(AssertUnwindSafe(|| task(chunk)));
            slot = self.lock();
            if let Err(payload) = result {
                slot.panic.get_or_insert(payload);
            }
            slot.pending -= 1;
            if slot.pending == 0 {
                self.done.notify_one();
            }
        }
        slot
    }
}

/// A fixed-width pool: the calling thread plus `width − 1` persistent
/// workers.
///
/// A pool of width 1 spawns no threads at all and runs every batch inline,
/// which is the deterministic serial fallback selected by
/// `TENSOR_THREADS=1`.
struct ThreadPool {
    shared: Arc<Shared>,
    width: usize,
}

impl ThreadPool {
    /// Creates a pool of width `width` (clamped to `1..=MAX_THREADS`).
    fn new(width: usize) -> Self {
        let width = width.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                task: None,
                chunks: 0,
                next: 0,
                pending: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        for idx in 1..width {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("tensor-pool-{idx}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning a pool worker thread failed");
        }
        Self { shared, width }
    }

    /// Runs `chunk(0)`, …, `chunk(chunks − 1)` and returns once all of them
    /// have finished, each exactly once on some thread of the pool.
    ///
    /// Runs inline on the calling thread when the pool is one wide, the
    /// batch has one chunk, or another batch already holds the pool (a
    /// concurrent caller, or a call made from inside a chunk).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by a chunk, after every other chunk
    /// of the batch has finished; the pool stays usable.
    fn run_chunks(&self, chunks: usize, chunk: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        let mut slot = shared.lock();
        if self.width == 1 || chunks <= 1 || slot.task.is_some() {
            drop(slot);
            (0..chunks).for_each(chunk);
            return;
        }
        // SAFETY: the borrow is erased only while the batch is published.
        // Workers reach `task` only through the slot, and only by claiming a
        // chunk; this call clears the slot and returns only after `pending`
        // reached 0, i.e. after every claimed chunk has finished, and
        // nothing between here and there can unwind (chunks run under
        // `catch_unwind`, locking ignores poisoning).
        let task = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(chunk)
        };
        slot.task = Some(task);
        slot.chunks = chunks;
        slot.next = 0;
        slot.pending = chunks;
        shared.work.notify_all();
        slot = shared.run_claimed(slot);
        while slot.pending > 0 {
            slot = shared
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.task = None;
        let panic = slot.panic.take();
        drop(slot);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    /// Retires the workers. No batch can be in flight: a caller holds the
    /// pool for the whole of [`ThreadPool::run_chunks`].
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let mut slot = shared.lock();
    loop {
        slot = shared.run_claimed(slot);
        if slot.shutdown {
            return;
        }
        slot = shared
            .work
            .wait(slot)
            .unwrap_or_else(PoisonError::into_inner);
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
fn global() -> Arc<ThreadPool> {
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

/// Replaces the global pool with one of width `threads`.
///
/// Existing in-flight batches keep their handle on the old pool and finish
/// normally; the old workers exit once the last handle is dropped. Used by
/// the hot-path bench to sweep 1/2/4 threads inside one process and by tests
/// that need a specific pool size.
pub fn set_threads(threads: usize) {
    let pool = Arc::new(ThreadPool::new(threads));
    *GLOBAL.write().expect("pool registry poisoned") = Some(pool);
}

/// Current width of the global pool, the calling thread included.
pub fn threads() -> usize {
    global().width
}

/// Splits the `rows`-row output (row-major, `cols` columns) into one
/// contiguous row chunk per pool thread and runs `kernel` on each chunk in
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
    if pool.width <= 1 || rows < par_min_rows() || cols == 0 {
        kernel(0..rows, data);
        return;
    }
    let chunk_rows = rows.div_ceil(pool.width);
    // One lock per chunk hands each chunk its own rows; each is taken once,
    // by the one thread that claimed that chunk, so none is ever contended.
    let mut parts: [Option<Mutex<&mut [f32]>>; MAX_THREADS] = std::array::from_fn(|_| None);
    for (part, chunk) in parts.iter_mut().zip(data.chunks_mut(chunk_rows * cols)) {
        *part = Some(Mutex::new(chunk));
    }
    pool.run_chunks(rows.div_ceil(chunk_rows), &|idx| {
        let part = parts[idx].as_ref().expect("one part per chunk");
        let mut part = part.lock().expect("each part is locked once");
        let start = idx * chunk_rows;
        kernel(start..start + part.len() / cols, &mut part);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Runs `batches` batches of `chunks` chunks on `pool` and checks that
    /// every chunk of every batch ran exactly once.
    fn check_every_chunk_once(pool: &ThreadPool, batches: usize, chunks: usize) {
        let runs: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
        for batch in 1..=batches {
            pool.run_chunks(chunks, &|idx| {
                runs[idx].fetch_add(1, Ordering::SeqCst);
            });
            for (idx, count) in runs.iter().enumerate() {
                assert_eq!(count.load(Ordering::SeqCst), batch, "chunk {idx}");
            }
        }
    }

    #[test]
    fn serial_pool_runs_inline_without_threads() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.width, 1);
        let caller = thread::current().id();
        let counter = AtomicUsize::new(0);
        pool.run_chunks(8, &|_| {
            assert_eq!(thread::current().id(), caller);
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn pool_size_is_clamped() {
        assert_eq!(ThreadPool::new(0).width, 1);
        assert_eq!(ThreadPool::new(MAX_THREADS + 7).width, MAX_THREADS);
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
        // Hundreds of batches, so the workers park and wake again and again;
        // fewer, as many and more chunks than threads.
        let pool = ThreadPool::new(4);
        for chunks in [2, 4, 9] {
            check_every_chunk_once(&pool, 150, chunks);
        }
    }

    #[test]
    fn jobs_may_borrow_and_mutate_stack_data() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 300];
        {
            let parts: Vec<Mutex<&mut [u64]>> = data.chunks_mut(100).map(Mutex::new).collect();
            pool.run_chunks(parts.len(), &|idx| {
                for v in parts[idx].lock().unwrap().iter_mut() {
                    *v = idx as u64 + 1;
                }
            });
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
            pool.run_chunks(8, &|idx| {
                if idx == 0 {
                    panic!("boom in chunk");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string payload");
        assert!(message.contains("boom"), "unexpected payload {message}");
        // Every non-panicking chunk still ran: the batch drains first.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
        // And the pool runs the next batch.
        check_every_chunk_once(&pool, 10, 4);
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
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.run_chunks(2, &|_| {
            // A chunk dispatching to its own busy pool must not wait for it.
            let chunk_thread = thread::current().id();
            pool.run_chunks(4, &|_| {
                assert_eq!(thread::current().id(), chunk_thread);
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn a_second_caller_runs_inline_while_a_batch_holds_the_pool() {
        let pool = ThreadPool::new(2);
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        let inline = AtomicBool::new(true);
        thread::scope(|scope| {
            scope.spawn(|| {
                pool.run_chunks(2, &|idx| {
                    if idx == 0 {
                        // Hold the pool until the second caller is done.
                        started.wait();
                        release.wait();
                    }
                });
            });
            started.wait();
            let caller = thread::current().id();
            pool.run_chunks(4, &|_| {
                if thread::current().id() != caller {
                    inline.store(false, Ordering::SeqCst);
                }
            });
            release.wait();
        });
        assert!(inline.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // Callers race for the one batch slot; the losers run inline. Either
        // way every chunk of every caller's batches runs exactly once.
        let pool = ThreadPool::new(3);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| check_every_chunk_once(&pool, 100, 5));
            }
        });
    }
}
