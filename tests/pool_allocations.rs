//! A warmed training step, and an evaluation between two steps, allocate
//! nothing at any pool width. At batch 64 every GEMM of the step below is
//! wide enough to dispatch to the pool at two and four threads, and so is
//! every forward GEMM of the 48-row evaluation, so this pins that a
//! parallel dispatch allocates nothing, on the calling thread or on the
//! pool's workers, when the batch size changes between calls too.
//!
//! The counting global allocator below counts every thread of the process,
//! which is why this test has a binary of its own: no other test runs while
//! it counts. `tests/plan_allocations.rs` covers the one-thread pool.

use approx_dropout::SchemeSpec;
use nn::{Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tensor::pool;

/// Heap allocations (and reallocations) made by any thread of the process.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; bumping a static atomic neither allocates nor
// runs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warmed_mlp_train_step_allocates_nothing_at_two_and_four_threads() {
    let specs = [
        "none",
        "bernoulli:0.5",
        "divergent:0.5",
        "row:0.5:16",
        "tile:0.5:16:8",
        "nm:2:4",
        "block:0.5:8",
        "crs:0.5",
        "row_crs:0.5:16:0.5",
    ];
    let (batch, eval_batch, input_dim, hidden, output_dim) = (64, 48, 32, 32, 10);
    // Forward and dX GEMMs split the batch rows, dW GEMMs the input rows.
    assert!(eval_batch.min(input_dim).min(hidden) >= pool::par_min_rows());
    for threads in [2, 4] {
        pool::set_threads(threads);
        for spec in specs {
            let dropout = spec.parse::<SchemeSpec>().unwrap().build().unwrap();
            let config = MlpConfig {
                input_dim,
                hidden: vec![hidden, hidden],
                output_dim,
                dropout,
                learning_rate: 0.01,
                momentum: 0.9,
            };
            let mut rng = StdRng::seed_from_u64(1);
            let mut mlp = Mlp::new(&config, &mut rng);
            let inputs = tensor::init::uniform(&mut rng, batch, input_dim, -1.0, 1.0);
            let labels: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..output_dim)).collect();
            let eval_inputs = tensor::init::uniform(&mut rng, eval_batch, input_dim, -1.0, 1.0);
            let eval_labels = &labels[..eval_batch];
            let mut step = || {
                mlp.train_batch(&inputs, &labels, &mut rng);
                mlp.evaluate(&eval_inputs, eval_labels);
            };
            // Tile and block kept sets vary in size, so their buffers keep
            // growing to new highs for a while: the warm-up is long.
            for _ in 0..300 {
                step();
            }
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..100 {
                step();
            }
            let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(
                allocations, 0,
                "{spec} at {threads} threads: {allocations} allocations in 100 warmed \
                 train+evaluate steps"
            );
        }
    }
}
