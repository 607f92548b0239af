//! Planning is allocation-free once a plan buffer is warm: `plan_into` into
//! a recycled [`DropoutPlan`] makes no heap allocation for any scheme family,
//! and neither does a warmed `Mlp::train_batch` at one pool thread.
//! The counting global allocator below is the only one in this test binary,
//! and it counts per thread, so nothing but the measured calls is counted.

use approx_dropout::{
    scheme, CrsSampling, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, RowPattern,
    SchemeSpec, TilePattern,
};
use nn::{Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (and reallocations) made by the current thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, so bumping it neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warmed_plan_into_allocates_nothing_for_every_scheme() {
    let rate = DropoutRate::new(0.5).unwrap();
    let schemes: Vec<Box<dyn DropoutScheme>> = vec![
        scheme::none(),
        scheme::bernoulli(rate),
        scheme::divergent_bernoulli(rate),
        scheme::row(rate, 16).unwrap(),
        scheme::tile(rate, 16, 8).unwrap(),
        Box::new(RowPattern::new(4, 1).unwrap()),
        Box::new(TilePattern::new(2, 0, 8).unwrap()),
        scheme::nm(2, 4).unwrap(),
        scheme::nm(1, 4).unwrap(),
        scheme::block_unit(rate, 8).unwrap(),
        scheme::crs(0.5).unwrap(),
        scheme::row_crs(rate, 16, 0.5).unwrap(),
        Box::new(CrsSampling::composed(0.5, Box::new(RowPattern::new(4, 1).unwrap())).unwrap()),
    ];
    let shape = LayerShape::new(64, 96);
    for mut s in schemes {
        let mut rng = StdRng::seed_from_u64(3);
        let mut plan = DropoutPlan::default();
        // Warm-up: the kept-index, mask and scratch buffers grow to the
        // largest kept set the scheme draws.
        for _ in 0..100 {
            s.plan_into(&mut rng, shape, &mut plan);
        }
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..100 {
            s.plan_into(&mut rng, shape, &mut plan);
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            allocations,
            0,
            "scheme {} allocated {allocations} times in 100 warmed plan_into calls",
            s.label()
        );
    }
}

/// README hot-path item 3: once warmed, a training step allocates nothing
/// when the pool runs one thread, for every scheme family — `Linear` caches
/// each step's plan through `DropoutPlan::clone_from`, so this also pins
/// that the plan copy recycles its buffers. Tile and block kept sets vary
/// in size, so their buffers keep growing to new highs for a while: the
/// warm-up is deliberately long.
#[test]
fn warmed_mlp_train_step_allocates_nothing_at_one_thread() {
    tensor::pool::set_threads(1);
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
    let (batch, input_dim, output_dim) = (16, 32, 10);
    for spec in specs {
        let dropout = spec.parse::<SchemeSpec>().unwrap().build().unwrap();
        let config = MlpConfig {
            input_dim,
            hidden: vec![48, 48],
            output_dim,
            dropout,
            learning_rate: 0.01,
            momentum: 0.9,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&config, &mut rng);
        let inputs = tensor::init::uniform(&mut rng, batch, input_dim, -1.0, 1.0);
        let labels: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..output_dim)).collect();
        for _ in 0..200 {
            mlp.train_batch(&inputs, &labels, &mut rng);
        }
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..100 {
            mlp.train_batch(&inputs, &labels, &mut rng);
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            allocations, 0,
            "{spec}: {allocations} allocations in 100 warmed train steps"
        );
    }
}
