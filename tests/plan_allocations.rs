//! Planning is allocation-free once a plan buffer is warm: `plan_into` into
//! a recycled [`DropoutPlan`] makes no heap allocation for any scheme family.
//! The counting global allocator below is the only one in this test binary,
//! and it counts per thread, so nothing but the planning calls is measured.

use approx_dropout::{
    scheme, CrsSampling, DropoutPlan, DropoutRate, DropoutScheme, LayerShape, RowPattern,
    TilePattern,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
